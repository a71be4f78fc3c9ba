//! The rendered-answer convention shared by every wire.
//!
//! Answers travel as arrays of strings: constants by their interned name,
//! the single wildcard as `"*"`, multi-wildcards as `"*1"`, `"*2"`, ….  The
//! server, the cluster workers, the load harness and the end-to-end tests
//! all render through [`render_answer`], so "byte-identical to an
//! in-process drain" is checkable by string equality; the cluster
//! coordinator folds worker pages back into typed answers with
//! [`parse_answer`], the exact inverse over the coordinator's interner.
//!
//! Rendering is lossy exactly when a constant is *named* `"*"` or `"*k"` —
//! such a name is indistinguishable from a wildcard on the wire.  Complete
//! answers are unaffected (no wildcard parse), and the workloads this
//! workspace generates never mint such names.

use crate::payload::{violation, ProtocolViolation};
use omq_data::{Answer, Database, MultiTuple, MultiValue, PartialTuple, PartialValue, Semantics};

/// Exact number of bytes one rendered answer occupies as a JSON array
/// inside a `page` frame's `answers` member, mirroring [`crate::json`]'s
/// writer escapes.  Connection layers use it to cap pages at their byte
/// budget *before* encoding them, so no outgoing frame can approach
/// [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN) however large `k` or the
/// constant names are.  Any JSON array of strings has this length, a
/// cluster fact row `[relation, arg…]` included.
pub fn answer_wire_len<S: AsRef<str>>(answer: impl IntoIterator<Item = S>) -> usize {
    let mut len = 2; // the brackets
    for (i, value) in answer.into_iter().enumerate() {
        len += 2 + usize::from(i > 0); // the quotes, and the comma before
        for c in value.as_ref().chars() {
            len += match c {
                '"' | '\\' | '\n' | '\r' | '\t' => 2,
                c if (c as u32) < 0x20 => 6, // \u00xx
                c => c.len_utf8(),
            };
        }
    }
    len
}

/// Renders one answer as the wire carries it: constants by their interned
/// name in `db`, the single wildcard as `"*"`, multi-wildcards as `"*k"`.
pub fn render_answer(answer: &Answer, db: &Database) -> Vec<String> {
    match answer {
        Answer::Complete(t) => t.iter().map(|&c| db.const_name(c).to_owned()).collect(),
        Answer::Partial(t) => {
            t.0.iter()
                .map(|v| match v {
                    PartialValue::Const(c) => db.const_name(*c).to_owned(),
                    PartialValue::Star => "*".to_owned(),
                })
                .collect()
        }
        Answer::Multi(t) => {
            t.0.iter()
                .map(|v| match v {
                    MultiValue::Const(c) => db.const_name(*c).to_owned(),
                    MultiValue::Wild(k) => format!("*{k}"),
                })
                .collect()
        }
    }
}

/// Parses a rendered answer back into a typed [`Answer`] under `semantics`,
/// resolving constant names through `db`'s interner — the inverse of
/// [`render_answer`] for any database that interns the same names.
///
/// This is how the cluster coordinator folds worker pages back into the
/// local reduce: workers render through their own interner (rebuilt from
/// shipped fact rows, so the *names* agree with the coordinator's), and the
/// coordinator re-resolves them here.  Wildcards never need resolution, and
/// chase-generated nulls never reach an answer as constants (they surface
/// as wildcards), so every constant in a well-formed page is a database
/// constant the coordinator knows.
///
/// A name `db` has not interned, or a malformed multi-wildcard index, is a
/// [`ProtocolViolation`].
pub fn parse_answer(
    rendered: &[String],
    semantics: Semantics,
    db: &Database,
) -> Result<Answer, ProtocolViolation> {
    let lookup = |name: &str| {
        db.const_id(name)
            .ok_or_else(|| violation(format!("answer constant `{name}` is not in the database")))
    };
    match semantics {
        Semantics::Complete => {
            let tuple = rendered
                .iter()
                .map(|name| lookup(name))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Answer::Complete(tuple))
        }
        Semantics::MinimalPartial => {
            let tuple = rendered
                .iter()
                .map(|name| {
                    if name == "*" {
                        Ok(PartialValue::Star)
                    } else {
                        lookup(name).map(PartialValue::Const)
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Answer::Partial(PartialTuple(tuple)))
        }
        Semantics::MinimalPartialMulti => {
            let tuple = rendered
                .iter()
                .map(|name| match name.strip_prefix('*') {
                    Some(index) if !index.is_empty() => index
                        .parse::<u32>()
                        .map(MultiValue::Wild)
                        .map_err(|_| violation(format!("malformed multi-wildcard `{name}`"))),
                    _ => lookup(name).map(MultiValue::Const),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Answer::Multi(MultiTuple(tuple)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use omq_data::Schema;

    fn db() -> Database {
        let mut schema = Schema::new();
        schema.add_relation("R", 2).unwrap();
        Database::builder(schema)
            .fact("R", ["ada", "lovelace"])
            .build()
            .unwrap()
    }

    #[test]
    fn answer_wire_len_matches_the_encoder_exactly() {
        for answer in [
            vec![],
            vec!["plain".to_owned()],
            vec!["*".to_owned(), "*17".to_owned()],
            vec![
                "quote\"".to_owned(),
                "back\\slash".to_owned(),
                "nl\n tab\t cr\r".to_owned(),
                "nul\u{1}bel\u{7}".to_owned(),
                "é\u{1F600}".to_owned(),
                String::new(),
            ],
        ] {
            let encoded =
                Json::Arr(answer.iter().map(|v| Json::str(v.clone())).collect()).to_json();
            assert_eq!(answer_wire_len(&answer), encoded.len(), "{answer:?}");
        }
    }

    #[test]
    fn rendered_answers_round_trip_through_parse_answer() {
        let db = db();
        let ada = db.const_id("ada").unwrap();
        let lovelace = db.const_id("lovelace").unwrap();
        let answers = [
            (Answer::Complete(vec![ada, lovelace]), Semantics::Complete),
            (
                Answer::Partial(PartialTuple(vec![
                    PartialValue::Const(ada),
                    PartialValue::Star,
                ])),
                Semantics::MinimalPartial,
            ),
            (
                Answer::Multi(MultiTuple(vec![
                    MultiValue::Wild(1),
                    MultiValue::Const(lovelace),
                    MultiValue::Wild(1),
                ])),
                Semantics::MinimalPartialMulti,
            ),
        ];
        for (answer, semantics) in answers {
            let rendered = render_answer(&answer, &db);
            assert_eq!(parse_answer(&rendered, semantics, &db).unwrap(), answer);
        }
        // The empty (Boolean) tuple round-trips under every semantics.
        for semantics in Semantics::ALL {
            assert!(parse_answer(&[], semantics, &db).is_ok());
        }
    }

    #[test]
    fn unknown_constants_and_malformed_wildcards_are_violations() {
        let db = db();
        for semantics in Semantics::ALL {
            assert!(parse_answer(&["nobody".to_owned()], semantics, &db).is_err());
        }
        // "*" alone is a constant lookup under multi semantics (wildcards
        // there always carry an index), and a wildcard under partial.
        assert!(parse_answer(&["*".to_owned()], Semantics::MinimalPartialMulti, &db).is_err());
        assert!(parse_answer(&["*x".to_owned()], Semantics::MinimalPartialMulti, &db).is_err());
        assert!(parse_answer(&["*".to_owned()], Semantics::MinimalPartial, &db).is_ok());
        // Under Complete, "*" is just a (here unknown) constant name.
        assert!(parse_answer(&["*".to_owned()], Semantics::Complete, &db).is_err());
    }
}
