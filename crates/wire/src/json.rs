//! A minimal hand-rolled JSON value, parser and writer.
//!
//! The build environment is hermetic (the vendored `serde` is a stub with no
//! `serde_json`), so the wire protocol carries its payloads through this
//! small module instead: a [`Json`] tree, a pull tokenizer (`Reader`) with
//! a depth-limited tree builder ([`parse`]) on top, and a writer that
//! escapes exactly what the tokenizer accepts.  Integers are kept exact
//! ([`Json::Int`]) instead of routing everything through `f64` — epochs,
//! cursor ids and counts must round-trip without precision loss.
//!
//! The tokenizer is shared within the crate so that a decoder which knows
//! the shape it expects (a `page` frame's answers, see [`crate::page`]) can
//! pull strings straight into its own types; [`parse`] is the same tokenizer
//! building a tree, so the two accept and reject exactly the same documents.

use std::fmt;

/// Maximum nesting depth the parser accepts (frames are flat in practice;
/// the limit only guards against adversarial input blowing the stack).
const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number that fits `i64`, kept exact.
    Int(i64),
    /// Any other number (fractional or out of `i64` range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as a key-ordered-as-written list of members.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Builds a `Json::Str` from anything string-like.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a `Json::Int` from a `u64` (falls back to `Num` above
    /// `i64::MAX`, which no wire field reaches in practice).
    pub fn uint(n: u64) -> Json {
        match i64::try_from(n) {
            Ok(i) => Json::Int(i),
            Err(_) => Json::Num(n as f64),
        }
    }

    /// Member lookup on an object (first member with that key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the value as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out);
        String::from_utf8(out).expect("the writer emits UTF-8")
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Int(i) => write_display(out, i),
            Json::Num(x) => {
                if x.is_finite() {
                    write_display(out, x);
                } else {
                    out.extend_from_slice(b"null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write(out);
                }
                out.push(b']');
            }
            Json::Obj(members) => {
                out.push(b'{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_escaped(k, out);
                    out.push(b':');
                    v.write(out);
                }
                out.push(b'}');
            }
        }
    }
}

fn write_display(out: &mut Vec<u8>, value: impl fmt::Display) {
    use std::io::Write;
    write!(out, "{value}").expect("writing to a Vec cannot fail");
}

/// Appends `n` exactly as [`Json::uint`]`(n)` serialises.
pub(crate) fn write_uint(out: &mut Vec<u8>, n: u64) {
    match i64::try_from(n) {
        Ok(i) => write_display(out, i),
        Err(_) => write_display(out, n as f64),
    }
}

/// Appends `s` as a JSON string literal, quotes included — the one escape
/// routine of the workspace ([`crate::answer_wire_len`] mirrors it).
/// Everything that needs escaping is ASCII, so the runs between escapes
/// are copied as bytes.
pub(crate) fn write_escaped(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[run..i]);
        run = i + 1;
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 0xf)]);
            }
        }
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut reader = Reader::new(input);
    let value = reader.value(0)?;
    reader.finish()?;
    Ok(value)
}

/// What kind of value the [`Reader`] is positioned at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Number,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// A pull tokenizer over one JSON document.
///
/// The caller drives it: ask what comes next ([`Reader::kind`]), then pull
/// it — a scalar ([`Reader::string`]), a whole subtree as a [`Json`]
/// ([`Reader::value`]), or a container member by member
/// ([`Reader::begin_array`] + [`Reader::next_element`],
/// [`Reader::begin_object`] + [`Reader::next_key`]).  Nesting lives in the
/// caller's control flow, so the tokenizer itself keeps no stack; `depth`
/// is passed to [`Reader::value`] so a subtree pulled from inside
/// containers still trips the same nesting limit as [`parse`].  A reader is
/// a position in the text and nothing else: clone it to read the same value
/// a second way.
#[derive(Debug, Clone)]
pub(crate) struct Reader<'a> {
    /// The input as a `&str` — string runs are sliced out of it at
    /// positions that only ever stop on ASCII bytes, hence char boundaries.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the document's value.
    pub(crate) fn new(input: &'a str) -> Self {
        let mut reader = Reader {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        reader.skip_ws();
        reader
    }

    /// Checks that only whitespace follows the document's value.
    pub(crate) fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON document"));
        }
        Ok(())
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    /// The kind of the value the reader is positioned at, judged by its
    /// first byte (nothing is consumed).
    pub(crate) fn kind(&self) -> Result<Kind, JsonError> {
        match self.peek() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'{') => Ok(Kind::Obj),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Kind::Number),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Pulls the whole value the reader is positioned at as a tree.
    /// `depth` is how many containers enclose it.
    pub(crate) fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.kind()? {
            Kind::Null => self.literal("null", Json::Null),
            Kind::Bool if self.peek() == Some(b't') => self.literal("true", Json::Bool(true)),
            Kind::Bool => self.literal("false", Json::Bool(false)),
            Kind::Str => Ok(Json::Str(self.string()?)),
            Kind::Number => self.number(),
            Kind::Arr => {
                let mut items = Vec::new();
                self.begin_array()?;
                let mut first = true;
                while self.next_element(&mut first)? {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Json::Arr(items))
            }
            Kind::Obj => {
                let mut members = Vec::new();
                self.begin_object()?;
                let mut first = true;
                while let Some(key) = self.next_key(&mut first)? {
                    members.push((key, self.value(depth + 1)?));
                }
                Ok(Json::Obj(members))
            }
        }
    }

    /// Enters an array; follow with [`Reader::next_element`].
    pub(crate) fn begin_array(&mut self) -> Result<(), JsonError> {
        self.expect(b'[')
    }

    /// Steps to the next array element: `true` leaves the reader positioned
    /// at it (pull it before calling again), `false` means the closing
    /// bracket was consumed.  `first` starts out `true`.
    pub(crate) fn next_element(&mut self, first: &mut bool) -> Result<bool, JsonError> {
        self.next_member(first, b']', "expected `,` or `]` in array")
    }

    /// Enters an object; follow with [`Reader::next_key`].
    pub(crate) fn begin_object(&mut self) -> Result<(), JsonError> {
        self.expect(b'{')
    }

    /// Steps to the next object member: `Some(key)` leaves the reader
    /// positioned at the member's value (pull it before calling again),
    /// `None` means the closing brace was consumed.  `first` starts out
    /// `true`.
    pub(crate) fn next_key(&mut self, first: &mut bool) -> Result<Option<String>, JsonError> {
        if !self.next_member(first, b'}', "expected `,` or `}` in object")? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// The separator logic shared by arrays and objects: an immediate
    /// `close` is accepted only before the first member, a comma only
    /// after one.
    fn next_member(
        &mut self,
        first: &mut bool,
        close: u8,
        expected: &str,
    ) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b) if b == close && *first => {
                self.pos += 1;
                Ok(false)
            }
            _ if *first => {
                *first = false;
                Ok(true)
            }
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.err(expected)),
        }
    }

    /// Pulls the string the reader is positioned at.
    pub(crate) fn string(&mut self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.string_into(&mut out)?;
        Ok(out)
    }

    /// Pulls the string the reader is positioned at, unescaped onto the
    /// end of `out`.
    pub(crate) fn string_into(&mut self, out: &mut String) -> Result<(), JsonError> {
        self.expect(b'"')?;
        loop {
            // Copy the run up to the next byte that needs a decision.  All
            // three kinds are ASCII, so the run ends on a char boundary.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a following `\uXXXX` low
                                // surrogate is required.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            // `hex4` leaves `pos` past the digits; the shared
                            // `pos += 1` below would eat a payload byte.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("invalid unicode escape"))?;
        let value = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Json::Num(x)),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::Int(0)),
            ("-42", Json::Int(-42)),
            ("9223372036854775807", Json::Int(i64::MAX)),
            ("1.5", Json::Num(1.5)),
            ("\"hi\"", Json::Str("hi".to_owned())),
        ] {
            assert_eq!(parse(text).unwrap(), value, "{text}");
            assert_eq!(parse(&value.to_json()).unwrap(), value, "{text}");
        }
    }

    #[test]
    fn structures_round_trip() {
        let value = Json::obj([
            ("t", Json::str("page")),
            ("answers", Json::Arr(vec![Json::Arr(vec![Json::str("a")])])),
            ("done", Json::Bool(true)),
            ("n", Json::Int(3)),
        ]);
        let text = value.to_json();
        assert_eq!(text, r#"{"t":"page","answers":[["a"]],"done":true,"n":3}"#);
        assert_eq!(parse(&text).unwrap(), value);
        assert_eq!(value.get("t").and_then(Json::as_str), Some("page"));
        assert_eq!(value.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(value.get("done").and_then(Json::as_bool), Some(true));
        assert!(value.get("missing").is_none());
    }

    #[test]
    fn escapes_round_trip() {
        let nasty = "quote\" slash\\ newline\n tab\t nul\u{1} unicode\u{1F600}é";
        let value = Json::str(nasty);
        assert_eq!(parse(&value.to_json()).unwrap(), value);
        // Explicit \u escapes, including a surrogate pair.
        assert_eq!(
            parse("\"A\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::str("A\u{e9}\u{1F600}")
        );
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"lone \\ud800 surrogate\"",
            "1 2",
            "{\"a\":1}x",
            "\u{1}",
            "--5",
            "[\u{7}]",
        ] {
            assert!(parse(text).is_err(), "{text:?} should not parse");
        }
        // The depth limit trips instead of blowing the stack.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn integers_stay_exact() {
        let big = (1u64 << 60) + 1;
        let value = Json::uint(big);
        assert_eq!(parse(&value.to_json()).unwrap().as_u64(), Some(big));
        // Above i64::MAX the value degrades to a float rather than failing.
        assert!(matches!(Json::uint(u64::MAX), Json::Num(_)));
    }
}
