//! The frame table: every wire vocabulary declared once, row by row.
//!
//! A protocol lists its frames in one [`frames!`](crate::frames) block.
//! Each row is the `"t"` tag, the variant, and its documented members in
//! wire order; the macro generates the enum and its whole codec from that
//! one declaration:
//!
//! - `to_json` — the payload as a [`Json`] tree: `"t"` first, then every
//!   member, each [`Member::put`] under its field name;
//! - `encode` — the payload behind its length prefix;
//! - `decode` — the inverse, each member [`Member::take`]n back out.
//!
//! A member's type is its wire format, through [`Member`]: implemented
//! here for `u64`, `bool`, `String`, [`Semantics`], [`ErrorCode`], an
//! `Option<u64>` (omitted when `None`), rendered answers and lists of
//! [`Entry`] values, and by each protocol next to its own member types.  A
//! member declared `name: Type = default` reads as `default` when absent
//! or `null`.
//!
//! A row whose members are an id, `answers` and `done` is a `page`, the one
//! frame whose size scales with the data: `encode` writes it with
//! [`PageWriter`](crate::PageWriter) under the id member's name, and every
//! payload is read through [`decode_page_object`], so a page's answers
//! never go through a tree in either direction.

use crate::code::ErrorCode;
use crate::json::Json;
use crate::page::{decode_page_object, DecodedAnswers, Rows};
use crate::payload::{violation, ProtocolViolation};
use omq_data::Semantics;

/// A decoded frame payload whose members are taken out one by one.
#[derive(Debug)]
pub struct Object {
    doc: Json,
    /// The `answers` member, read without a tree (see
    /// [`decode_page_object`]).
    answers: Option<DecodedAnswers>,
}

impl Object {
    /// Decodes a payload: UTF-8, one JSON object.
    pub fn decode(payload: &[u8]) -> Result<Object, ProtocolViolation> {
        let (doc, answers) = decode_page_object(payload)?;
        Ok(Object { doc, answers })
    }

    /// A required member.
    pub fn get(&self, key: &str) -> Result<&Json, ProtocolViolation> {
        self.doc
            .get(key)
            .ok_or_else(|| violation(format!("missing field `{key}`")))
    }

    /// Whether the member is absent or `null`.
    pub fn is_absent(&self, key: &str) -> bool {
        matches!(self.doc.get(key), None | Some(Json::Null))
    }

    /// Whether the payload is a frame tagged `tag`, so that a reader
    /// expecting one kind of frame can take its members without decoding
    /// it as the whole vocabulary.
    pub fn is(&self, tag: &str) -> bool {
        self.doc.get("t").and_then(Json::as_str) == Some(tag)
    }

    /// The `answers` member, as [`decode_page_object`] read it: in one
    /// buffer, without a tree.
    pub fn take_answers(&mut self) -> Result<Rows, ProtocolViolation> {
        let answers = self.answers.take();
        answers.ok_or_else(|| violation("missing field `answers`"))?
    }
}

/// The complaint about a member of the wrong type.
pub fn ill_typed(key: &str, expected: &str) -> ProtocolViolation {
    violation(format!("field `{key}` must be {expected}"))
}

/// A type that travels as one named member of a frame.
pub trait Member: Sized {
    /// Adds `self` to `members` under `key` (a `None` option adds nothing).
    fn put(&self, key: &'static str, members: &mut Vec<(&'static str, Json)>);

    /// Takes the member `key` back out of a decoded payload.
    fn take(object: &mut Object, key: &str) -> Result<Self, ProtocolViolation>;
}

/// A type that travels as one element of a list member (`Vec<T>`).
pub trait Entry: Sized {
    /// The element as JSON.
    fn to_json(&self) -> Json;

    /// Reads an element back; `key` names the list, for the complaint.
    fn from_json(json: &Json, key: &str) -> Result<Self, ProtocolViolation>;
}

impl Member for u64 {
    fn put(&self, key: &'static str, members: &mut Vec<(&'static str, Json)>) {
        members.push((key, Json::uint(*self)));
    }

    fn take(object: &mut Object, key: &str) -> Result<Self, ProtocolViolation> {
        (object.get(key)?.as_u64()).ok_or_else(|| ill_typed(key, "a non-negative integer"))
    }
}

impl Member for Option<u64> {
    fn put(&self, key: &'static str, members: &mut Vec<(&'static str, Json)>) {
        if let Some(value) = self {
            value.put(key, members);
        }
    }

    fn take(object: &mut Object, key: &str) -> Result<Self, ProtocolViolation> {
        if object.is_absent(key) {
            return Ok(None);
        }
        u64::take(object, key).map(Some)
    }
}

impl Member for bool {
    fn put(&self, key: &'static str, members: &mut Vec<(&'static str, Json)>) {
        members.push((key, Json::Bool(*self)));
    }

    fn take(object: &mut Object, key: &str) -> Result<Self, ProtocolViolation> {
        (object.get(key)?.as_bool()).ok_or_else(|| ill_typed(key, "a boolean"))
    }
}

impl Member for String {
    fn put(&self, key: &'static str, members: &mut Vec<(&'static str, Json)>) {
        members.push((key, Json::str(self.clone())));
    }

    fn take(object: &mut Object, key: &str) -> Result<Self, ProtocolViolation> {
        let value = object.get(key)?.as_str();
        value
            .map(str::to_owned)
            .ok_or_else(|| ill_typed(key, "a string"))
    }
}

/// The wire spelling of a [`Semantics`] (its `Display`).
fn semantics_name(semantics: Semantics) -> &'static str {
    match semantics {
        Semantics::Complete => "complete",
        Semantics::MinimalPartial => "minimal-partial",
        Semantics::MinimalPartialMulti => "minimal-partial-multi",
    }
}

impl Member for Semantics {
    fn put(&self, key: &'static str, members: &mut Vec<(&'static str, Json)>) {
        members.push((key, Json::str(semantics_name(*self))));
    }

    fn take(object: &mut Object, key: &str) -> Result<Self, ProtocolViolation> {
        let name = String::take(object, key)?;
        Semantics::ALL
            .into_iter()
            .find(|&semantics| semantics_name(semantics) == name)
            .ok_or_else(|| violation(format!("unknown semantics `{name}`")))
    }
}

/// Travels as its number ([`ErrorCode::as_u16`]).
impl Member for ErrorCode {
    fn put(&self, key: &'static str, members: &mut Vec<(&'static str, Json)>) {
        u64::from(self.as_u16()).put(key, members);
    }

    fn take(object: &mut Object, key: &str) -> Result<Self, ProtocolViolation> {
        let raw = u64::take(object, key)?;
        u16::try_from(raw)
            .ok()
            .and_then(ErrorCode::from_u16)
            .ok_or_else(|| violation(format!("unknown error code {raw}")))
    }
}

/// Rendered answers (see [`render_answer`](crate::render_answer)): the
/// `answers` member of a page, copied out of its [`Rows`].
impl Member for Vec<Vec<String>> {
    fn put(&self, key: &'static str, members: &mut Vec<(&'static str, Json)>) {
        let answer = |a: &Vec<String>| Json::Arr(a.iter().map(|v| Json::str(v.clone())).collect());
        members.push((key, Json::Arr(self.iter().map(answer).collect())));
    }

    fn take(object: &mut Object, key: &str) -> Result<Self, ProtocolViolation> {
        debug_assert_eq!(key, "answers", "only `answers` is read without a tree");
        object.take_answers().map(Rows::into_owned)
    }
}

impl<T: Entry> Member for Vec<T> {
    fn put(&self, key: &'static str, members: &mut Vec<(&'static str, Json)>) {
        members.push((key, Json::Arr(self.iter().map(T::to_json).collect())));
    }

    fn take(object: &mut Object, key: &str) -> Result<Self, ProtocolViolation> {
        let entries = object.get(key)?.as_arr();
        let entries = entries.ok_or_else(|| ill_typed(key, "an array"))?;
        entries.iter().map(|e| T::from_json(e, key)).collect()
    }
}

/// Strings in, strings out: a string entry or the complaint about `key`.
fn string_entry(json: &Json, key: &str) -> Result<String, ProtocolViolation> {
    let value = json.as_str().map(str::to_owned);
    value.ok_or_else(|| violation(format!("entries of `{key}` must be strings")))
}

/// A fact row, `[relation, constant…]`, as
/// `Database::export_fact_rows` writes it.
impl Entry for (String, Vec<String>) {
    fn to_json(&self) -> Json {
        let names = std::iter::once(&self.0).chain(&self.1);
        Json::Arr(names.map(|name| Json::str(name.clone())).collect())
    }

    fn from_json(json: &Json, key: &str) -> Result<Self, ProtocolViolation> {
        let names = json.as_arr().unwrap_or_default().iter();
        let mut names = (names.map(|n| string_entry(n, key))).collect::<Result<Vec<_>, _>>()?;
        if names.is_empty() {
            return Err(ill_typed(key, "non-empty arrays"));
        }
        Ok((names.remove(0), names))
    }
}

/// A relation of a schema, `[name, arity]`.
impl Entry for (String, u64) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![Json::str(self.0.clone()), Json::uint(self.1)])
    }

    fn from_json(json: &Json, key: &str) -> Result<Self, ProtocolViolation> {
        match json.as_arr() {
            Some([name, arity]) => Ok((
                string_entry(name, key)?,
                (arity.as_u64()).ok_or_else(|| ill_typed(key, "[name, arity] pairs"))?,
            )),
            _ => Err(ill_typed(key, "[name, arity] pairs")),
        }
    }
}

/// Declares a frame vocabulary: an enum with one variant per row, and its
/// `to_json`, `encode` and `decode` (see the [module docs](crate::table)).
#[macro_export]
macro_rules! frames {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$row_meta:meta])*
                $tag:literal => $variant:ident $({
                    $( $(#[$field_meta:meta])* $field:ident : $ty:ty $(= $default:expr)? ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$row_meta])*
                $variant $({ $( $(#[$field_meta])* $field: $ty ),* })?,
            )*
        }

        impl $name {
            /// The frame payload (no length prefix) as a JSON tree.
            pub fn to_json(&self) -> $crate::json::Json {
                match self {
                    $($name::$variant $({ $($field),* })? => {
                        #[allow(unused_mut)]
                        let mut members = vec![("t", $crate::json::Json::str($tag))];
                        $($( $crate::table::Member::put($field, stringify!($field), &mut members); )*)?
                        $crate::json::Json::obj(members)
                    })*
                }
            }

            /// Encodes the frame, length prefix included.
            pub fn encode(&self) -> Vec<u8> {
                match self {
                    $($name::$variant $({ $($field),* })? => {
                        $crate::__encode_row!(self, [$($($field),*)?] $($($field),*)?)
                    })*
                }
            }

            /// Decodes a frame payload (no length prefix).
            pub fn decode(payload: &[u8]) -> Result<$name, $crate::ProtocolViolation> {
                let mut object = $crate::table::Object::decode(payload)?;
                match <String as $crate::table::Member>::take(&mut object, "t")?.as_str() {
                    $($tag => Ok($name::$variant $({ $($field: {
                        $(if object.is_absent(stringify!($field)) { $default } else)? {
                            $crate::table::Member::take(&mut object, stringify!($field))?
                        }
                    },)* })?),)*
                    other => Err($crate::violation(format!(
                        "unknown {} tag `{other}`",
                        stringify!($name)
                    ))),
                }
            }
        }
    };
}

/// The body of one row's `encode`: a page through the page writer, any
/// other row through its tree.
#[doc(hidden)]
#[macro_export]
macro_rules! __encode_row {
    ($frame:ident, [$_id:ident, answers, done] $id:ident, $answers:ident, $done:ident) => {{
        let mut out = Vec::new();
        let mut page = $crate::PageWriter::begin(&mut out, stringify!($id), *$id);
        for answer in $answers {
            page.push_rendered(answer);
        }
        page.finish(*$done);
        out
    }};
    ($frame:ident, [$($_field:ident),*] $($field:ident),*) => {
        $crate::frame_payload($frame.to_json().to_json().as_bytes())
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantics_travel_as_their_display() {
        for semantics in Semantics::ALL {
            assert_eq!(semantics_name(semantics), semantics.to_string());
        }
        let mut object = Object::decode(br#"{"s":"certain"}"#).unwrap();
        assert!(Semantics::take(&mut object, "s").is_err());
    }

    #[test]
    fn members_report_missing_and_ill_typed_values() {
        let payload = br#"{"t":"x","n":3,"b":true,"s":"hi","o":null,"c":999}"#;
        let mut object = Object::decode(payload).unwrap();
        let opt = |object: &mut Object, key| <Option<u64> as Member>::take(object, key);
        assert_eq!(String::take(&mut object, "t").unwrap(), "x");
        assert_eq!(String::take(&mut object, "s").unwrap(), "hi");
        assert_eq!(u64::take(&mut object, "n").unwrap(), 3);
        assert!(bool::take(&mut object, "b").unwrap());
        assert_eq!(opt(&mut object, "o").unwrap(), None);
        assert_eq!(opt(&mut object, "missing").unwrap(), None);
        assert_eq!(opt(&mut object, "n").unwrap(), Some(3));
        assert!(String::take(&mut object, "n").is_err());
        assert!(u64::take(&mut object, "s").is_err());
        assert!(u64::take(&mut object, "missing").is_err());
        assert!(opt(&mut object, "s").is_err());
        assert!(ErrorCode::take(&mut object, "c").is_err());
        assert!(Vec::<Vec<String>>::take(&mut object, "answers").is_err());
    }
}
