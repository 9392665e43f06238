//! Offline stand-in for the `serde` crate.
//!
//! The build environment cannot reach crates.io, so this crate provides the
//! subset of serde's surface the workspace uses: `#[derive(Serialize,
//! Deserialize)]` (including `#[serde(transparent)]` newtypes, named-field
//! structs, unit enums and externally-tagged data enums) plus trait impls
//! for the primitives, `String`, `Option`, `Vec` and small tuples.
//!
//! Unlike real serde there is no data-model indirection: [`Serialize`]
//! writes JSON text directly and [`Deserialize`] reads it from a
//! [`de::Parser`]. The companion `serde_json` crate is a thin wrapper over
//! these traits, so the two crates must be used together (which is how the
//! workspace always uses them).
//!
//! # Allocation-free codec
//!
//! Checkpoints and recovery are codec time, so neither direction allocates
//! for anything but the values it produces:
//!
//! * encoding writes integers as digits from a stack buffer, integral
//!   `f64`s below 1e15 as those digits plus `.0`, and every other finite
//!   `f64` through the std `Debug` formatter straight into the output;
//!   strings are copied in runs between escapes. Into a `String` with
//!   enough capacity, encoding a derived type performs no allocation. The
//!   bytes are exactly those of `to_string()` / `format!("{v:?}")`: debug
//!   builds check every fast-path number against the std formatter
//!   (formatted into a stack buffer, so the check allocates nothing
//!   either);
//! * decoding reads string literals as [`de::Parser::parse_str`], which
//!   borrows from the input unless the literal holds escapes, so derived
//!   types match field keys and enum tags without allocating; skipping a
//!   value ([`de::Parser::skip_value`], [`de::Parser::raw_value`]) never
//!   allocates.
//!
//! # Nesting limit
//!
//! [`de::Parser::skip_value`] and [`de::Parser::raw_value`] reject
//! containers nested more than [`de::MAX_DEPTH`] (128, `serde_json`'s
//! default recursion limit) deep with `nesting too deep`, so hostile input
//! cannot overflow the stack. Derived decoders only nest as deep as their
//! types do, and skip unknown fields through `skip_value`.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

pub use serde_derive::{Deserialize, Serialize};

/// Serialization into JSON text.
pub trait Serialize {
    /// Appends the JSON encoding of `self` to `out`.
    fn serialize_json(&self, out: &mut String);
}

/// Deserialization from JSON text.
pub trait Deserialize: Sized {
    /// Reads one JSON value from the parser.
    ///
    /// # Errors
    ///
    /// Returns a [`de::DeError`] describing the first syntax or type
    /// mismatch.
    fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::DeError>;
}

/// JSON writer helpers shared with the derive macro.
pub mod ser {
    use std::fmt;

    /// `"00"`, `"01"`, …, `"99"`: two digits per table lookup.
    const DIGIT_PAIRS: [u8; 200] = {
        let mut t = [0u8; 200];
        let mut i = 0;
        while i < 100 {
            t[2 * i] = b'0' + (i / 10) as u8;
            t[2 * i + 1] = b'0' + (i % 10) as u8;
            i += 1;
        }
        t
    };

    const HEX: &[u8; 16] = b"0123456789abcdef";

    /// Appends the decimal digits of `v`.
    pub(crate) fn write_u64(mut v: u64, out: &mut String) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        while v >= 100 {
            let d = (v % 100) as usize * 2;
            v /= 100;
            i -= 2;
            buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
        }
        if v >= 10 {
            let d = v as usize * 2;
            i -= 2;
            buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
        } else {
            i -= 1;
            buf[i] = b'0' + v as u8;
        }
        out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
    }

    /// Appends `v` in decimal, with a leading `-` when negative.
    pub(crate) fn write_i64(v: i64, out: &mut String) {
        if v < 0 {
            out.push('-');
        }
        write_u64(v.unsigned_abs(), out);
    }

    /// Debug builds: asserts that a fast path appended to `out` (from byte
    /// `start` on) exactly what the std formatter makes of `expected`.
    /// The reference is formatted into a stack buffer, so the check never
    /// allocates. Release builds compile it away.
    #[inline]
    pub(crate) fn oracle(out: &str, start: usize, expected: fmt::Arguments<'_>) {
        #[cfg(debug_assertions)]
        {
            use std::io::Write as _;
            let mut reference = std::io::Cursor::new([0u8; 64]);
            reference
                .write_fmt(expected)
                .expect("a number formats in 64 bytes");
            let reference = &reference.get_ref()[..reference.position() as usize];
            assert!(
                &out.as_bytes()[start..] == reference,
                "number fast path wrote {} where the std formatter writes {}",
                &out[start..],
                String::from_utf8_lossy(reference)
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = (out, start, expected);
    }

    /// Appends `s` as a JSON string literal (quoted, escaped): runs of
    /// bytes that need no escape are copied whole.
    pub fn write_escaped(s: &str, out: &mut String) {
        out.push('"');
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            // escaped bytes are ASCII, so `i` is a char boundary
            out.push_str(&s[run..i]);
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                _ => {
                    out.push_str("\\u00");
                    out.push(char::from(HEX[usize::from(b >> 4)]));
                    out.push(char::from(HEX[usize::from(b & 0xf)]));
                }
            }
            run = i + 1;
        }
        out.push_str(&s[run..]);
        out.push('"');
    }
}

/// JSON reader: a hand-rolled recursive-descent parser.
pub mod de {
    use std::borrow::Cow;
    use std::fmt;

    /// Containers nested deeper than this are rejected by
    /// [`Parser::skip_value`] and [`Parser::raw_value`] (`serde_json`'s
    /// default recursion limit).
    pub const MAX_DEPTH: usize = 128;

    /// Error produced while deserializing.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DeError(String);

    impl DeError {
        /// Creates an error with the given message.
        #[must_use]
        pub fn msg(m: impl Into<String>) -> Self {
            DeError(m.into())
        }

        /// Error for a missing required field.
        #[must_use]
        pub fn missing(field: &str) -> Self {
            DeError(format!("missing field `{field}`"))
        }
    }

    impl fmt::Display for DeError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "json error: {}", self.0)
        }
    }

    impl std::error::Error for DeError {}

    /// Cursor over JSON text.
    #[derive(Debug)]
    pub struct Parser<'a> {
        bytes: &'a [u8],
        text: &'a str,
        pos: usize,
    }

    impl<'a> Parser<'a> {
        /// Starts parsing `s` from the beginning.
        #[must_use]
        pub fn new(s: &'a str) -> Self {
            Parser {
                bytes: s.as_bytes(),
                text: s,
                pos: 0,
            }
        }

        /// Skips ASCII whitespace.
        pub fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            {
                self.pos += 1;
            }
        }

        /// The next non-whitespace byte, without consuming it.
        pub fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.bytes.get(self.pos).copied()
        }

        /// Whether all remaining input is whitespace.
        pub fn at_end(&mut self) -> bool {
            self.peek().is_none()
        }

        /// Consumes `c` or errors.
        ///
        /// # Errors
        ///
        /// When the next non-whitespace byte is not `c`.
        pub fn expect_char(&mut self, c: char) -> Result<(), DeError> {
            if self.peek() == Some(c as u8) {
                self.pos += 1;
                Ok(())
            } else {
                Err(DeError::msg(format!(
                    "expected '{c}' at byte {} of {:.40}…",
                    self.pos, self.text
                )))
            }
        }

        /// Consumes `c` if present; returns whether it did.
        pub fn consume_char(&mut self, c: char) -> bool {
            if self.peek() == Some(c as u8) {
                self.pos += 1;
                true
            } else {
                false
            }
        }

        /// Consumes a `null` literal if present.
        pub fn consume_null(&mut self) -> bool {
            self.skip_ws();
            if self.bytes[self.pos..].starts_with(b"null") {
                self.pos += 4;
                true
            } else {
                false
            }
        }

        /// Parses a JSON string literal into an owned `String`.
        ///
        /// # Errors
        ///
        /// On malformed literals or escapes.
        pub fn parse_string(&mut self) -> Result<String, DeError> {
            self.parse_str().map(Cow::into_owned)
        }

        /// Parses a JSON string literal, borrowing it from the input when
        /// it holds no escapes (the common case: no allocation) and
        /// otherwise unescaping it into a `String`, copying the runs
        /// between escapes whole.
        ///
        /// # Errors
        ///
        /// On malformed literals or escapes.
        pub fn parse_str(&mut self) -> Result<Cow<'a, str>, DeError> {
            self.expect_char('"')?;
            let start = self.pos;
            self.plain_run();
            if self.bytes.get(self.pos) == Some(&b'"') {
                self.pos += 1;
                return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
            }
            let mut out = String::from(&self.text[start..self.pos]);
            loop {
                match self.bytes.get(self.pos) {
                    None => return Err(DeError::msg("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(Cow::Owned(out));
                    }
                    Some(_) => out.push(self.escape()?),
                }
                let run = self.pos;
                self.plain_run();
                out.push_str(&self.text[run..self.pos]);
            }
        }

        /// Skips a JSON string literal, checking its escapes, without
        /// building it.
        fn skip_str(&mut self) -> Result<(), DeError> {
            self.expect_char('"')?;
            loop {
                self.plain_run();
                match self.bytes.get(self.pos) {
                    None => return Err(DeError::msg("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(());
                    }
                    Some(_) => {
                        self.escape()?;
                    }
                }
            }
        }

        /// Advances over string bytes that need no unescaping. It stops
        /// only at ASCII bytes (`"`, `\`) or the end, so it always leaves
        /// the cursor on a char boundary.
        fn plain_run(&mut self) {
            let rest = &self.bytes[self.pos..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
        }

        /// Decodes the escape sequence whose `\` is under the cursor.
        fn escape(&mut self) -> Result<char, DeError> {
            let esc = self.bytes.get(self.pos + 1).copied();
            self.pos += 2;
            Ok(match esc {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| DeError::msg("truncated \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| DeError::msg("bad \\u escape"))?;
                    self.pos += 4;
                    char::from_u32(code).ok_or_else(|| DeError::msg("invalid codepoint"))?
                }
                _ => return Err(DeError::msg("unknown escape")),
            })
        }

        /// Reads the raw token of a JSON number.
        ///
        /// # Errors
        ///
        /// When the input does not start with a number.
        pub fn parse_number_token(&mut self) -> Result<&'a str, DeError> {
            self.skip_ws();
            let start = self.pos;
            if self.bytes.get(self.pos) == Some(&b'-') {
                self.pos += 1;
            }
            while self.bytes.get(self.pos).is_some_and(|b| {
                b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
            }) {
                self.pos += 1;
            }
            if self.pos == start {
                return Err(DeError::msg(format!("expected number at byte {start}")));
            }
            Ok(&self.text[start..self.pos])
        }

        /// Parses a `true`/`false` literal.
        ///
        /// # Errors
        ///
        /// When neither literal is present.
        pub fn parse_bool(&mut self) -> Result<bool, DeError> {
            self.skip_ws();
            if self.bytes[self.pos..].starts_with(b"true") {
                self.pos += 4;
                Ok(true)
            } else if self.bytes[self.pos..].starts_with(b"false") {
                self.pos += 5;
                Ok(false)
            } else {
                Err(DeError::msg("expected boolean"))
            }
        }

        /// Skips one complete JSON value of any type.
        ///
        /// # Errors
        ///
        /// On malformed input, or containers nested more than
        /// [`MAX_DEPTH`] deep.
        pub fn skip_value(&mut self) -> Result<(), DeError> {
            self.skip_nested(MAX_DEPTH)
        }

        /// Skips one complete JSON value of any type and returns its exact
        /// text (without the whitespace before it).
        ///
        /// # Errors
        ///
        /// As [`Parser::skip_value`].
        pub fn raw_value(&mut self) -> Result<&'a str, DeError> {
            self.skip_ws();
            let start = self.pos;
            self.skip_nested(MAX_DEPTH)?;
            Ok(&self.text[start..self.pos])
        }

        /// Skips one value, entering at most `depth_left` more containers.
        fn skip_nested(&mut self, depth_left: usize) -> Result<(), DeError> {
            let close = match self.peek() {
                Some(b'"') => return self.skip_str(),
                Some(b't' | b'f') => return self.parse_bool().map(drop),
                Some(b'n') if self.consume_null() => return Ok(()),
                Some(b'n') => return Err(DeError::msg("expected null")),
                Some(b'{') => '}',
                Some(b'[') => ']',
                _ => return self.parse_number_token().map(drop),
            };
            if depth_left == 0 {
                return Err(DeError::msg("nesting too deep"));
            }
            self.pos += 1;
            if self.consume_char(close) {
                return Ok(());
            }
            loop {
                if close == '}' {
                    self.skip_str()?;
                    self.expect_char(':')?;
                }
                self.skip_nested(depth_left - 1)?;
                if !self.consume_char(',') {
                    return self.expect_char(close);
                }
            }
        }
    }
}

macro_rules! impl_int {
    ($write:ident as $wide:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                let start = out.len();
                ser::$write(*self as $wide, out);
                ser::oracle(out, start, format_args!("{self}"));
            }
        }

        impl Deserialize for $t {
            fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::DeError> {
                let tok = p.parse_number_token()?;
                tok.parse::<$t>()
                    .map_err(|_| de::DeError::msg(format!("invalid {}: {tok}", stringify!($t))))
            }
        }
    )*};
}

impl_int!(write_u64 as u64: u8, u16, u32, u64, usize);
impl_int!(write_i64 as i64: i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize_json(&self, out: &mut String) {
        let v = *self;
        if !v.is_finite() {
            out.push_str("null");
        } else if v.trunc() == v && v.abs() < 1e15 && !(v == 0.0 && v.is_sign_negative()) {
            // what Debug prints for an integral value in this range
            let start = out.len();
            ser::write_i64(v as i64, out);
            out.push_str(".0");
            ser::oracle(out, start, format_args!("{v:?}"));
        } else {
            // Debug formatting is the shortest round-trip representation
            write!(out, "{v:?}").expect("writing to a String cannot fail");
        }
    }
}

impl Deserialize for f64 {
    fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::DeError> {
        if p.consume_null() {
            return Ok(f64::NAN);
        }
        let tok = p.parse_number_token()?;
        tok.parse::<f64>()
            .map_err(|_| de::DeError::msg(format!("invalid f64: {tok}")))
    }
}

impl Serialize for f32 {
    fn serialize_json(&self, out: &mut String) {
        f64::from(*self).serialize_json(out);
    }
}

impl Deserialize for f32 {
    fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::DeError> {
        f64::deserialize_json(p).map(|v| v as f32)
    }
}

impl Serialize for bool {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::DeError> {
        p.parse_bool()
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut String) {
        ser::write_escaped(self, out);
    }
}

impl Serialize for str {
    fn serialize_json(&self, out: &mut String) {
        ser::write_escaped(self, out);
    }
}

impl Deserialize for String {
    fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::DeError> {
        p.parse_string()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(v) => v.serialize_json(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::DeError> {
        if p.consume_null() {
            Ok(None)
        } else {
            T::deserialize_json(p).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.serialize_json(out);
        }
        out.push(']');
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::DeError> {
        p.expect_char('[')?;
        let mut out = Vec::new();
        if p.consume_char(']') {
            return Ok(out);
        }
        loop {
            out.push(T::deserialize_json(p)?);
            if p.consume_char(',') {
                continue;
            }
            p.expect_char(']')?;
            return Ok(out);
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize_json(&self, out: &mut String) {
        out.push('[');
        self.0.serialize_json(out);
        out.push(',');
        self.1.serialize_json(out);
        out.push(']');
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize_json(p: &mut de::Parser<'_>) -> Result<Self, de::DeError> {
        p.expect_char('[')?;
        let a = A::deserialize_json(p)?;
        p.expect_char(',')?;
        let b = B::deserialize_json(p)?;
        p.expect_char(']')?;
        Ok((a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(v: T, json: &str) {
        let mut out = String::new();
        v.serialize_json(&mut out);
        assert_eq!(out, json);
        let mut p = de::Parser::new(json);
        let back = T::deserialize_json(&mut p).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitives() {
        round_trip(42u64, "42");
        round_trip(-7i32, "-7");
        round_trip(1.5f64, "1.5");
        round_trip(true, "true");
        round_trip(String::from("a\"b"), "\"a\\\"b\"");
        round_trip(Some(3u32), "3");
        round_trip::<Option<u32>>(None, "null");
        round_trip(vec![1u8, 2, 3], "[1,2,3]");
        round_trip((0.5f64, 2.0f64), "[0.5,2.0]");
    }

    #[test]
    fn skip_value_handles_nesting() {
        let mut p = de::Parser::new("{\"a\":[1,{\"b\":null}],\"c\":2} 7");
        p.skip_value().unwrap();
        assert_eq!(u32::deserialize_json(&mut p).unwrap(), 7);
        assert!(p.at_end());
    }

    #[test]
    fn string_escapes() {
        let mut p = de::Parser::new("\"line\\nbreak \\u0041\"");
        assert_eq!(p.parse_string().unwrap(), "line\nbreak A");
    }

    fn encode<T: Serialize + ?Sized>(v: &T) -> String {
        let mut out = String::new();
        v.serialize_json(&mut out);
        out
    }

    /// 0, ±1 and every power of ten ±1 up to 10^20 (past `u64::MAX`).
    fn int_edges() -> Vec<i128> {
        let mut edges = vec![0, 1, -1];
        let mut p: i128 = 1;
        for _ in 0..20 {
            p *= 10;
            edges.extend([p - 1, p, p + 1, 1 - p, -p, -1 - p]);
        }
        edges
    }

    macro_rules! sweep_int {
        ($($t:ty),*) => {$(
            let in_range = int_edges().into_iter().filter_map(|v| <$t>::try_from(v).ok());
            let bounds = [<$t>::MIN, <$t>::MIN + 1, <$t>::MAX - 1, <$t>::MAX];
            for v in in_range.chain(bounds) {
                assert_eq!(encode(&v), v.to_string(), "{}", stringify!($t));
                assert_eq!(<$t>::deserialize_json(&mut de::Parser::new(&encode(&v))), Ok(v));
            }
        )*};
    }

    #[test]
    fn integer_fast_path_matches_to_string_at_every_edge() {
        sweep_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
    }

    #[test]
    fn float_fast_path_matches_debug_formatting() {
        let two_53 = 9_007_199_254_740_992.0_f64;
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            1e15 - 1.0,
            -(1e15 - 1.0),
            1e15,
            -1e15,
            1e15 + 1.0,
            1e16,
            -1e16,
            two_53,
            two_53 - 1.0,
            -two_53,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            0.1 + 0.2,
            1e-7,
            123_456.789,
        ];
        let mut p = 1.0_f64;
        for _ in 0..=22 {
            values.extend([p - 1.0, p, p + 1.0, -p, p + 0.5]);
            p *= 10.0;
        }
        for v in values {
            assert_eq!(encode(&v), format!("{v:?}"), "{v:e}");
            let back = f64::deserialize_json(&mut de::Parser::new(&encode(&v))).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:e} round-trips");
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(encode(&v), "null");
        }
        assert_eq!(encode(&0.25f32), "0.25");
    }

    #[test]
    fn escaping_matches_the_char_by_char_reference() {
        fn reference(s: &str) -> String {
            let mut out = String::from('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let controls: String = (0u8..0x20).map(char::from).collect();
        for s in [
            "",
            "plain",
            "a\"b\\c",
            "\"",
            "tail\\",
            "ünïcödé → 🚀\u{7f}",
            "mixed\u{1}é\u{1f}\"x",
            controls.as_str(),
        ] {
            let out = encode(s);
            assert_eq!(out, reference(s), "{s:?}");
            assert_eq!(de::Parser::new(&out).parse_str().unwrap(), s);
        }
    }

    #[test]
    fn parse_str_borrows_unless_it_must_unescape() {
        use std::borrow::Cow;
        let mut p = de::Parser::new("\"plain ünï\" \"a\\tb\\u00e9c\\\"\"");
        assert!(matches!(p.parse_str().unwrap(), Cow::Borrowed("plain ünï")));
        match p.parse_str().unwrap() {
            Cow::Owned(s) => assert_eq!(s, "a\tbéc\""),
            Cow::Borrowed(s) => panic!("escapes must be decoded, got {s:?}"),
        }
        for bad in [
            "\"open",
            "\"bad \\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"end\\",
        ] {
            assert!(de::Parser::new(bad).parse_str().is_err(), "{bad}");
            assert!(de::Parser::new(bad).skip_value().is_err(), "{bad}");
        }
    }

    #[test]
    fn raw_value_returns_the_exact_text_of_one_value() {
        let mut p = de::Parser::new(" {\"a\": [1, \"x\\\"]\", null]} ,true");
        assert_eq!(p.raw_value().unwrap(), "{\"a\": [1, \"x\\\"]\", null]}");
        assert!(p.consume_char(','));
        assert_eq!(p.raw_value().unwrap(), "true");
        assert!(p.at_end());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        for ok in [1, 100, de::MAX_DEPTH] {
            let text = nested(ok);
            assert!(de::Parser::new(&text).skip_value().is_ok(), "depth {ok}");
        }
        for deep in [de::MAX_DEPTH + 1, 100_000] {
            let text = nested(deep);
            let err = de::Parser::new(&text).raw_value().unwrap_err();
            assert!(err.to_string().contains("nesting too deep"), "{err}");
        }
        let objects = format!("{}1{}", "{\"k\":".repeat(100_000), "}".repeat(100_000));
        assert!(de::Parser::new(&objects).skip_value().is_err());
    }
}
