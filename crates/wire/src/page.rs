//! `page` frames without a tree, in both directions.
//!
//! A page is the one frame whose size scales with the data — everything
//! else on the wire is a handful of scalars — so it is the one frame with a
//! path of its own, shared by both vocabularies (the server's page names
//! its `cursor`, the cluster worker's its `shard`):
//!
//! - [`PageWriter`] appends the length prefix and the JSON of a `page`
//!   frame directly to a byte buffer (a connection's write buffer),
//!   escaping constant names in place from typed answers.  The bytes are
//!   exactly what the tree encoder (`Json` → `to_json` → `frame_payload`)
//!   produces for the same page; the server's codec property test holds
//!   the two together.
//! - [`decode_page_object`] reads an object payload through the pull
//!   tokenizer, building a tree for every member *except* `answers`, which
//!   is unescaped straight into [`Rows`]: one string holding every value of
//!   the page back to back, plus `u32` offsets — not a `String` per value
//!   and a `Vec` per answer.  Every frame of the
//!   [frame table](crate::table) is read through it; the table's `page`
//!   rows copy the rows out ([`Rows::into_owned`]), while a client that
//!   only reads a page (`omq-server`'s `Client::fetch`) keeps them
//!   borrowed.
//!
//! ```text
//! u32_be(len) {"t":"page","<id>":N,"answers":[["a","*"],…],"done":B}
//! ```

use crate::frame::MAX_FRAME_LEN;
use crate::json::{self, Json, JsonError, Kind, Reader};
use crate::payload::{invalid_json, not_an_object, payload_text, violation, ProtocolViolation};
use omq_data::{AnswerRef, ConstId, Database, MultiValue, PartialValue};

/// Hard ceiling on one rendered answer: even alone in a page it must fit a
/// frame, with generous allowance for the page envelope.  An answer past
/// this is undeliverable; the sender reports an error instead.
pub const MAX_SINGLE_ANSWER_BYTES: usize = MAX_FRAME_LEN - 1024;

/// Appends one `page` frame to a byte buffer, answer by answer.
///
/// [`PageWriter::begin`] reserves the length prefix and writes the
/// envelope's head; each `push_*` appends one answer and reports its
/// encoded size, so the caller can keep a byte budget on the bytes actually
/// written and [`PageWriter::pop`] the answer that broke it;
/// [`PageWriter::finish`] closes the envelope and fills the prefix in.  On
/// [`PageWriter::abort`] the buffer is back to what it was.
#[derive(Debug)]
pub struct PageWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Where the frame's length prefix sits in `out`.
    frame: usize,
    /// Where the last pushed answer (separator included) starts.
    last: usize,
    answers: usize,
}

impl<'a> PageWriter<'a> {
    /// Starts a page at the end of `out`, its id member named `key`
    /// (`"cursor"` on the server's wire, `"shard"` on the cluster's).
    pub fn begin(out: &'a mut Vec<u8>, key: &str, id: u64) -> Self {
        let frame = out.len();
        out.extend_from_slice(&[0; 4]);
        out.extend_from_slice(b"{\"t\":\"page\",");
        json::write_escaped(key, out);
        out.push(b':');
        json::write_uint(out, id);
        out.extend_from_slice(b",\"answers\":[");
        let last = out.len();
        PageWriter {
            out,
            frame,
            last,
            answers: 0,
        }
    }

    /// Answers in the page so far.
    pub fn answers(&self) -> usize {
        self.answers
    }

    /// Appends a typed answer, borrowed from wherever its producer keeps it
    /// (an answer stream's [`AnswerRef`]), rendering constants by their
    /// interned name in `db`, the single wildcard as `"*"`, multi-wildcards
    /// as `"*k"` — the bytes of [`render_answer`](crate::render_answer)'s
    /// strings, without the strings.  Returns the encoded size of the answer's JSON
    /// array ([`answer_wire_len`](crate::answer_wire_len) of the rendered
    /// answer; the separating comma is not counted).
    pub fn push_answer(&mut self, answer: AnswerRef<'_>, db: &Database) -> usize {
        let constant = |out: &mut Vec<u8>, c: ConstId| json::write_escaped(db.const_name(c), out);
        match answer {
            AnswerRef::Complete(t) => self.push_with(t, |out, &c| constant(out, c)),
            AnswerRef::Partial(t) => self.push_with(t, |out, v| match v {
                PartialValue::Const(c) => constant(out, *c),
                PartialValue::Star => out.extend_from_slice(b"\"*\""),
            }),
            AnswerRef::Multi(t) => self.push_with(t, |out, v| match v {
                MultiValue::Const(c) => constant(out, *c),
                MultiValue::Wild(k) => {
                    out.extend_from_slice(b"\"*");
                    json::write_uint(out, u64::from(*k));
                    out.push(b'"');
                }
            }),
        }
    }

    /// Appends an already rendered answer; same return as
    /// [`PageWriter::push_answer`].
    pub fn push_rendered(&mut self, answer: &[String]) -> usize {
        self.push_with(answer, |out, value| json::write_escaped(value, out))
    }

    fn push_with<T>(&mut self, values: &[T], mut write: impl FnMut(&mut Vec<u8>, &T)) -> usize {
        self.last = self.out.len();
        if self.answers > 0 {
            self.out.push(b',');
        }
        let start = self.out.len();
        self.out.push(b'[');
        for (i, value) in values.iter().enumerate() {
            if i > 0 {
                self.out.push(b',');
            }
            write(self.out, value);
        }
        self.out.push(b']');
        self.answers += 1;
        self.out.len() - start
    }

    /// Takes the last pushed answer back out (once per push).
    pub fn pop(&mut self) {
        debug_assert!(self.answers > 0 && self.last < self.out.len());
        self.out.truncate(self.last);
        self.answers -= 1;
    }

    /// Closes the frame: the `done` flag, then the length prefix.
    pub fn finish(self, done: bool) {
        self.out.extend_from_slice(if done {
            b"],\"done\":true}"
        } else {
            b"],\"done\":false}"
        });
        let len = self.out.len() - self.frame - 4;
        self.out[self.frame..self.frame + 4].copy_from_slice(&(len as u32).to_be_bytes());
    }

    /// Drops the frame: the buffer is as it was before [`PageWriter::begin`].
    pub fn abort(self) {
        self.out.truncate(self.frame);
    }
}

/// A page's answers read into one buffer: every value of every answer,
/// unescaped, back to back in one string, with `u32` offsets marking where
/// each value and each answer ends — three buffers a page, where rendered
/// answers take a `String` per value and a `Vec` per answer.
///
/// [`Rows::iter`] borrows the answers as [`Row`]s of `&str` values;
/// [`Rows::into_owned`] (and `into_iter`) copies them out as the rendered
/// answers the frame table's `page` rows hold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rows {
    /// Every value, unescaped, back to back.
    text: String,
    /// Where each value ends in `text`.
    ends: Vec<u32>,
    /// Where each answer's values end in `ends`.
    rows: Vec<u32>,
}

impl Rows {
    /// Number of answers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the page holds no answer.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `i`-th answer.
    pub fn get(&self, i: usize) -> Option<Row<'_>> {
        let last = *self.rows.get(i)? as usize;
        let first = if i == 0 { 0 } else { self.rows[i - 1] as usize };
        let start = if first == 0 { 0 } else { self.ends[first - 1] };
        Some(Row {
            text: &self.text,
            start,
            ends: &self.ends[first..last],
        })
    }

    /// The answers, borrowed.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Row<'_>> {
        (0..self.len()).map(|i| self.get(i).expect("in range"))
    }

    /// The answers as rendered answers, one `String` per value.
    pub fn into_owned(self) -> Vec<Vec<String>> {
        self.iter().map(|row| row.to_vec()).collect()
    }
}

/// Equal to rendered answers holding the same values.
impl<S: AsRef<str>> PartialEq<Vec<Vec<S>>> for Rows {
    fn eq(&self, other: &Vec<Vec<S>>) -> bool {
        self.len() == other.len()
            && (self.iter().zip(other))
                .all(|(row, answer)| row.iter().eq(answer.iter().map(AsRef::as_ref)))
    }
}

impl IntoIterator for Rows {
    type Item = Vec<String>;
    type IntoIter = std::vec::IntoIter<Vec<String>>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_owned().into_iter()
    }
}

/// One answer of [`Rows`]: its values, borrowed from the page's buffer.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    text: &'a str,
    /// Where the first value starts in `text`.
    start: u32,
    /// Where each value ends in `text`.
    ends: &'a [u32],
}

impl<'a> Row<'a> {
    /// Number of values (the answer's arity).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the answer is the empty (Boolean) tuple.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `j`-th value.
    pub fn get(&self, j: usize) -> Option<&'a str> {
        let end = *self.ends.get(j)? as usize;
        let start = if j == 0 { self.start } else { self.ends[j - 1] };
        Some(&self.text[start as usize..end])
    }

    /// The values, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a str> {
        let row = *self;
        (0..row.len()).map(move |j| row.get(j).expect("in range"))
    }

    /// The answer as a rendered answer.
    pub fn to_vec(&self) -> Vec<String> {
        self.iter().map(str::to_owned).collect()
    }
}

/// An `answers` member as [`decode_page_object`] read it: the answers, or
/// what about its shape was not a page's.
pub type DecodedAnswers = Result<Rows, ProtocolViolation>;

/// Decodes an object payload like [`decode_object`](crate::decode_object),
/// except that its first `answers` member is read straight into [`Rows`]
/// instead of a tree (and left out of the returned object).
///
/// Accepts and rejects exactly the payloads `decode_object` does — member
/// order, unknown members, duplicate keys (first wins) and whitespace are
/// all as tolerant, syntax errors as fatal.  An `answers` member that is
/// well-formed JSON but not an array of arrays of strings is not an error
/// *here* (only a `page` frame cares): it comes back as the `Err` the
/// `page` arm should fail with.
pub fn decode_page_object(
    payload: &[u8],
) -> Result<(Json, Option<DecodedAnswers>), ProtocolViolation> {
    let mut reader = Reader::new(payload_text(payload)?);
    if reader.kind().map_err(invalid_json)? != Kind::Obj {
        // Syntax errors outrank the shape complaint, as in `decode_object`.
        reader.value(0).map_err(invalid_json)?;
        reader.finish().map_err(invalid_json)?;
        return Err(not_an_object());
    }
    let mut members = Vec::new();
    let mut answers = None;
    reader.begin_object().map_err(invalid_json)?;
    let mut first = true;
    while let Some(key) = reader.next_key(&mut first).map_err(invalid_json)? {
        if key == "answers" && answers.is_none() {
            answers = Some(read_answers(&mut reader, payload.len()).map_err(invalid_json)?);
        } else {
            members.push((key, reader.value(1).map_err(invalid_json)?));
        }
    }
    reader.finish().map_err(invalid_json)?;
    Ok((Json::Obj(members), answers))
}

/// Why the typed read of an `answers` member stopped.
enum Unreadable {
    Syntax(JsonError),
    Shape(&'static str),
}

impl From<JsonError> for Unreadable {
    fn from(e: JsonError) -> Self {
        Unreadable::Syntax(e)
    }
}

/// Reads the value the reader is positioned at as [`Rows`], whose text
/// cannot outgrow the `payload_len` bytes it is unescaped from.  On a shape
/// mismatch the value is re-read generically, so a syntax error further
/// into it still surfaces as one and the reader ends up past the value
/// either way.
fn read_answers(reader: &mut Reader<'_>, payload_len: usize) -> Result<DecodedAnswers, JsonError> {
    let start = reader.clone();
    match read_answers_typed(reader, payload_len) {
        Ok(answers) => Ok(Ok(answers)),
        Err(Unreadable::Syntax(e)) => Err(e),
        Err(Unreadable::Shape(message)) => {
            *reader = start;
            reader.value(1)?;
            Ok(Err(violation(message)))
        }
    }
}

fn read_answers_typed(reader: &mut Reader<'_>, payload_len: usize) -> Result<Rows, Unreadable> {
    if reader.kind()? != Kind::Arr {
        return Err(Unreadable::Shape("field `answers` must be an array"));
    }
    let offset = |n: usize| u32::try_from(n).map_err(|_| Unreadable::Shape("page too large"));
    let mut rows = Rows {
        text: String::with_capacity(payload_len),
        ..Rows::default()
    };
    reader.begin_array()?;
    let mut first_answer = true;
    while reader.next_element(&mut first_answer)? {
        if reader.kind()? != Kind::Arr {
            return Err(Unreadable::Shape("answers must be arrays"));
        }
        reader.begin_array()?;
        let mut first_value = true;
        while reader.next_element(&mut first_value)? {
            if reader.kind()? != Kind::Str {
                return Err(Unreadable::Shape("answer entries must be strings"));
            }
            reader.string_into(&mut rows.text)?;
            rows.ends.push(offset(rows.text.len())?);
        }
        rows.rows.push(offset(rows.ends.len())?);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::frame_payload;

    /// The tree encoder's bytes for a page, the reference for the writer.
    fn tree_encoded(cursor: u64, answers: &[Vec<String>], done: bool) -> Vec<u8> {
        let answers = answers
            .iter()
            .map(|a| Json::Arr(a.iter().map(|v| Json::str(v.clone())).collect()))
            .collect();
        let doc = Json::obj([
            ("t", Json::str("page")),
            ("cursor", Json::uint(cursor)),
            ("answers", Json::Arr(answers)),
            ("done", Json::Bool(done)),
        ]);
        frame_payload(doc.to_json().as_bytes())
    }

    #[test]
    fn pop_and_abort_restore_the_buffer() {
        let answer = vec!["x".to_owned()];
        let mut out = vec![7u8; 3];
        let mut page = PageWriter::begin(&mut out, "cursor", 1);
        page.push_rendered(&answer);
        page.pop(); // popping the first answer leaves no stray bracket…
        page.push_rendered(&answer);
        page.push_rendered(&answer);
        page.pop(); // …and popping a later one no stray comma.
        assert_eq!(page.answers(), 1);
        page.finish(false);
        assert_eq!(&out[3..], tree_encoded(1, &[answer], false));

        let page = PageWriter::begin(&mut out, "cursor", 2);
        page.abort();
        assert_eq!(
            out.len(),
            3 + tree_encoded(1, &[vec!["x".to_owned()]], false).len()
        );
    }

    #[test]
    fn answers_are_read_wherever_the_member_sits() {
        let (doc, answers) = decode_page_object(
            r#" { "answers" : [ ["a","é"] , [ ] ], "t":"page", "answers": 5, "x":[1] } "#
                .as_bytes(),
        )
        .unwrap();
        let rows = answers.unwrap().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.get(0).unwrap().iter().collect::<Vec<_>>(), ["a", "é"]);
        assert!(rows.get(1).unwrap().is_empty());
        assert!(rows.get(2).is_none());
        assert_eq!(
            rows.into_owned(),
            vec![vec!["a".to_owned(), "é".to_owned()], vec![]]
        );
        // The first `answers` went to the typed read, the duplicate stays
        // a member like any other.
        assert_eq!(doc.get("t").and_then(Json::as_str), Some("page"));
        assert_eq!(doc.get("answers").and_then(Json::as_u64), Some(5));
        assert!(decode_page_object(b"{}").unwrap().1.is_none());
    }

    #[test]
    fn shape_errors_are_deferred_and_syntax_errors_are_not() {
        for (payload, complaint) in [
            (&br#"{"answers":7}"#[..], "must be an array"),
            (br#"{"answers":[["a"],"b"]}"#, "must be arrays"),
            (br#"{"answers":[["a",null]],"t":"page"}"#, "must be strings"),
        ] {
            let (_, answers) = decode_page_object(payload).unwrap();
            let violation = answers.unwrap().unwrap_err();
            assert!(violation.message.contains(complaint), "{violation}");
        }
        for payload in [
            &br#"{"answers":[["a"],7,}"#[..],
            br#"{"answers":[["a",]]}"#,
            br#"{"answers":[["a"]"#,
            br#"{"answers":[["a"]]} x"#,
            br#"[["a"]]"#,
            br#"[["a"]"#,
            b"\xff",
        ] {
            assert!(decode_page_object(payload).is_err());
        }
    }
}
