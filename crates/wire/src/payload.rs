//! Shared payload plumbing for frame grammars built on [`crate::json`].
//!
//! Every protocol of the workspace frames JSON objects tagged by a `"t"`
//! member and reads typed fields out of them.  The accessors here are the
//! one copy of that plumbing; `omq-server`'s client/server frames and
//! `omq-cluster`'s coordinator/worker messages both decode through them.
//!
//! A payload failure is always a [`ProtocolViolation`] — the *recoverable*
//! half of the wire's error split: the length prefix framed the payload, so
//! the stream stays in sync and the peer can answer with an error frame and
//! keep going.

use crate::json::{self, Json};
use omq_data::Semantics;
use std::fmt;

/// A payload that was framed correctly but is not a valid protocol request.
/// Never fatal: the length prefix keeps the byte stream in sync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolViolation {
    /// What was wrong with the payload.
    pub message: String,
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed frame: {}", self.message)
    }
}

impl std::error::Error for ProtocolViolation {}

/// Builds a [`ProtocolViolation`] from any message.
pub fn violation(message: impl Into<String>) -> ProtocolViolation {
    ProtocolViolation {
        message: message.into(),
    }
}

/// The payload as text, or the complaint that it is not UTF-8.
pub(crate) fn payload_text(payload: &[u8]) -> Result<&str, ProtocolViolation> {
    std::str::from_utf8(payload).map_err(|_| violation("frame payload is not UTF-8"))
}

/// The complaint about a payload that is not a JSON document.
pub(crate) fn invalid_json(e: json::JsonError) -> ProtocolViolation {
    violation(format!("invalid JSON: {e}"))
}

/// The complaint about a payload that is JSON but not an object.
pub(crate) fn not_an_object() -> ProtocolViolation {
    violation("frame payload must be a JSON object")
}

/// Decodes a payload into a JSON object (UTF-8, valid JSON, object-shaped).
pub fn decode_object(payload: &[u8]) -> Result<Json, ProtocolViolation> {
    let doc = json::parse(payload_text(payload)?).map_err(invalid_json)?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(not_an_object());
    }
    Ok(doc)
}

/// Looks up a required member of an object payload.
pub fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, ProtocolViolation> {
    obj.get(key)
        .ok_or_else(|| violation(format!("missing field `{key}`")))
}

/// A required string member.
pub fn str_field(obj: &Json, key: &str) -> Result<String, ProtocolViolation> {
    field(obj, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| violation(format!("field `{key}` must be a string")))
}

/// A required non-negative integer member.
pub fn u64_field(obj: &Json, key: &str) -> Result<u64, ProtocolViolation> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| violation(format!("field `{key}` must be a non-negative integer")))
}

/// A required boolean member.
pub fn bool_field(obj: &Json, key: &str) -> Result<bool, ProtocolViolation> {
    field(obj, key)?
        .as_bool()
        .ok_or_else(|| violation(format!("field `{key}` must be a boolean")))
}

/// An optional non-negative integer member (`null` and absence both read as
/// `None`).
pub fn opt_u64_field(obj: &Json, key: &str) -> Result<Option<u64>, ProtocolViolation> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| violation(format!("field `{key}` must be a non-negative integer"))),
    }
}

/// The canonical wire spelling of a [`Semantics`] (matches its `Display`).
pub fn semantics_name(semantics: Semantics) -> &'static str {
    match semantics {
        Semantics::Complete => "complete",
        Semantics::MinimalPartial => "minimal-partial",
        Semantics::MinimalPartialMulti => "minimal-partial-multi",
    }
}

/// Parses the wire spelling of a [`Semantics`].
pub fn parse_semantics(name: &str) -> Result<Semantics, ProtocolViolation> {
    match name {
        "complete" => Ok(Semantics::Complete),
        "minimal-partial" => Ok(Semantics::MinimalPartial),
        "minimal-partial-multi" => Ok(Semantics::MinimalPartialMulti),
        other => Err(violation(format!("unknown semantics `{other}`"))),
    }
}

/// A required `semantics` member.
pub fn semantics_field(obj: &Json) -> Result<Semantics, ProtocolViolation> {
    parse_semantics(&str_field(obj, "semantics")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantics_spellings_round_trip() {
        for semantics in Semantics::ALL {
            assert_eq!(parse_semantics(semantics_name(semantics)), Ok(semantics));
            // The wire spelling matches the Display impl, so log lines and
            // frames agree.
            assert_eq!(semantics_name(semantics), semantics.to_string());
        }
        assert!(parse_semantics("certain").is_err());
    }

    #[test]
    fn field_accessors_report_missing_and_ill_typed_members() {
        let obj = decode_object(br#"{"t":"x","n":3,"b":true,"s":"hi","o":null}"#).unwrap();
        assert_eq!(str_field(&obj, "s").unwrap(), "hi");
        assert_eq!(u64_field(&obj, "n").unwrap(), 3);
        assert!(bool_field(&obj, "b").unwrap());
        assert_eq!(opt_u64_field(&obj, "o").unwrap(), None);
        assert_eq!(opt_u64_field(&obj, "missing").unwrap(), None);
        assert_eq!(opt_u64_field(&obj, "n").unwrap(), Some(3));
        assert!(str_field(&obj, "n").is_err());
        assert!(u64_field(&obj, "s").is_err());
        assert!(field(&obj, "missing").is_err());
        assert!(opt_u64_field(&obj, "s").is_err());
    }

    #[test]
    fn decode_object_rejects_non_objects() {
        assert!(decode_object(b"[1,2]").is_err());
        assert!(decode_object(b"not json").is_err());
        assert!(decode_object(b"\xff\xfe").is_err());
        assert!(decode_object(b"{}").is_ok());
    }
}
