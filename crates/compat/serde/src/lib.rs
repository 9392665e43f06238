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

#![forbid(unsafe_code)]

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
    /// Appends `s` as a JSON string literal (quoted, escaped).
    pub fn write_escaped(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// JSON reader: a hand-rolled recursive-descent parser.
pub mod de {
    use std::fmt;

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

        /// Parses a JSON string literal.
        ///
        /// # Errors
        ///
        /// On malformed literals or escapes.
        pub fn parse_string(&mut self) -> Result<String, DeError> {
            self.expect_char('"')?;
            let mut out = String::new();
            loop {
                let rest = &self.text[self.pos..];
                let mut chars = rest.char_indices();
                match chars.next() {
                    None => return Err(DeError::msg("unterminated string")),
                    Some((_, '"')) => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some((_, '\\')) => {
                        self.pos += 1;
                        let esc = self.bytes.get(self.pos).copied();
                        self.pos += 1;
                        match esc {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .text
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| DeError::msg("truncated \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| DeError::msg("bad \\u escape"))?;
                                self.pos += 4;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| DeError::msg("invalid codepoint"))?,
                                );
                            }
                            _ => return Err(DeError::msg("unknown escape")),
                        }
                    }
                    Some((i, c)) => {
                        self.pos += i + c.len_utf8();
                        out.push(c);
                    }
                }
            }
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
        /// On malformed input.
        pub fn skip_value(&mut self) -> Result<(), DeError> {
            match self.peek() {
                Some(b'"') => {
                    self.parse_string()?;
                }
                Some(b'{') => {
                    self.expect_char('{')?;
                    if !self.consume_char('}') {
                        loop {
                            self.parse_string()?;
                            self.expect_char(':')?;
                            self.skip_value()?;
                            if self.consume_char(',') {
                                continue;
                            }
                            self.expect_char('}')?;
                            break;
                        }
                    }
                }
                Some(b'[') => {
                    self.expect_char('[')?;
                    if !self.consume_char(']') {
                        loop {
                            self.skip_value()?;
                            if self.consume_char(',') {
                                continue;
                            }
                            self.expect_char(']')?;
                            break;
                        }
                    }
                }
                Some(b't') | Some(b'f') => {
                    self.parse_bool()?;
                }
                Some(b'n') => {
                    if !self.consume_null() {
                        return Err(DeError::msg("expected null"));
                    }
                }
                _ => {
                    self.parse_number_token()?;
                }
            }
            Ok(())
        }
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
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

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize_json(&self, out: &mut String) {
        if self.is_finite() {
            // Debug formatting is the shortest round-trip representation
            out.push_str(&format!("{self:?}"));
        } else {
            out.push_str("null");
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
}
