//! Shared payload plumbing for frame grammars built on [`crate::json`].
//!
//! Every protocol of the workspace frames JSON objects tagged by a `"t"`
//! member; the [frame table](crate::table) reads typed members out of them.
//!
//! A payload failure is always a [`ProtocolViolation`] — the *recoverable*
//! half of the wire's error split: the length prefix framed the payload, so
//! the stream stays in sync and the peer can answer with an error frame and
//! keep going.

use crate::json::{self, Json};
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_object_rejects_non_objects() {
        assert!(decode_object(b"[1,2]").is_err());
        assert!(decode_object(b"not json").is_err());
        assert!(decode_object(b"\xff\xfe").is_err());
        assert!(decode_object(b"{}").is_ok());
    }
}
