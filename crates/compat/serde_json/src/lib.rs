//! Offline stand-in for `serde_json`, backed by the vendored `serde`
//! traits (which serialize JSON text directly).

#![forbid(unsafe_code)]

use std::fmt;
use std::io::{Read, Write};

use serde::{de, Deserialize, Serialize};

/// Serialization/deserialization error.
#[derive(Debug)]
pub enum Error {
    /// Malformed or mismatching JSON.
    Json(de::DeError),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Json(e) => write!(f, "{e}"),
            Error::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<de::DeError> for Error {
    fn from(e: de::DeError) -> Self {
        Error::Json(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Serializes `value` to a JSON string.
///
/// # Errors
///
/// Never fails for the types in this workspace; the `Result` mirrors the
/// real `serde_json` signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize_json(&mut out);
    Ok(out)
}

/// Serializes `value` as JSON into `writer`.
///
/// # Errors
///
/// Propagates I/O failures from the writer.
pub fn to_writer<W: Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<(), Error> {
    let s = to_string(value)?;
    writer.write_all(s.as_bytes())?;
    Ok(())
}

/// Deserializes a value from a JSON string.
///
/// # Errors
///
/// Returns [`Error::Json`] on malformed input or trailing garbage.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = de::Parser::new(s);
    let v = T::deserialize_json(&mut p)?;
    if !p.at_end() {
        return Err(Error::Json(de::DeError::msg("trailing characters")));
    }
    Ok(v)
}

/// Deserializes a value from a JSON reader.
///
/// # Errors
///
/// Returns [`Error::Io`] on read failures and [`Error::Json`] on malformed
/// input.
pub fn from_reader<R: Read, T: Deserialize>(mut reader: R) -> Result<T, Error> {
    let mut buf = String::new();
    reader.read_to_string(&mut buf)?;
    from_str(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_round_trip() {
        let v = vec![1u32, 2, 3];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,2,3]");
        let back: Vec<u32> = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(from_str::<u32>("3 x").is_err());
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Tier {
        Hp,
        Spot { grace: u32 },
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Rec {
        seq: u64,
        tier: Tier,
    }

    #[test]
    fn escaped_keys_and_tags_decode_to_their_field_and_variant() {
        let canonical = Rec {
            seq: 3,
            tier: Tier::Hp,
        };
        assert_eq!(to_string(&canonical).unwrap(), r#"{"seq":3,"tier":"Hp"}"#);
        let escaped = r#"{"\u0073eq":3,"ti\u0065r":"H\u0070"}"#;
        assert_eq!(from_str::<Rec>(escaped).unwrap(), canonical);
        let data = r#"{"seq":4,"tier":{"\u0053pot":{"gr\u0061ce":9}}}"#;
        assert_eq!(
            from_str::<Rec>(data).unwrap(),
            Rec {
                seq: 4,
                tier: Tier::Spot { grace: 9 }
            }
        );
        assert!(from_str::<Rec>(r#"{"seq":1,"tier":"Hq"}"#).is_err());
    }

    #[test]
    fn deep_nesting_in_a_skipped_field_is_an_error_not_a_crash() {
        let nested = |depth: usize| {
            format!(
                r#"{{"x":{}{},"seq":1,"tier":"Hp"}}"#,
                "[".repeat(depth),
                "]".repeat(depth)
            )
        };
        assert!(from_str::<Rec>(&nested(100)).is_ok());
        let err = from_str::<Rec>(&nested(100_000)).unwrap_err();
        assert!(err.to_string().contains("nesting too deep"), "{err}");
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut buf = Vec::new();
        to_writer(&mut buf, &(1.5f64, 2.5f64)).unwrap();
        let back: (f64, f64) = from_reader(buf.as_slice()).unwrap();
        assert_eq!(back, (1.5, 2.5));
    }
}
