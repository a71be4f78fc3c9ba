//! The unified answer value and semantics selector shared by every
//! enumeration surface of the workspace.
//!
//! The paper studies three answer semantics over the query-directed chase:
//! complete (certain) answers, minimal partial answers with a single
//! wildcard `*`, and minimal partial answers with multi-wildcards
//! `*1, *2, …`.  Downstream crates expose one cursor API over all three —
//! `PreparedInstance::answers(Semantics)` in `omq-core` — so the semantics
//! selector ([`Semantics`]) and the typed answer value ([`Answer`]) live
//! here, next to the tuple types they wrap, together with the borrowed view
//! of an answer ([`AnswerRef`]) that a batched pull hands its sink.

use crate::value::ConstId;
use crate::wildcard::{MultiTuple, MultiValue, PartialTuple, PartialValue};
use std::fmt;

/// Which answer semantics an enumeration produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Semantics {
    /// Complete (certain) answers — constant tuples only (Theorem 4.1(1)).
    Complete,
    /// Minimal partial answers with a single wildcard `*` (Theorem 5.2).
    MinimalPartial,
    /// Minimal partial answers with multi-wildcards `*1, *2, …`
    /// (Theorem 6.1).
    MinimalPartialMulti,
}

impl Semantics {
    /// All three semantics, in increasing generality.
    pub const ALL: [Semantics; 3] = [
        Semantics::Complete,
        Semantics::MinimalPartial,
        Semantics::MinimalPartialMulti,
    ];
}

impl fmt::Display for Semantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Semantics::Complete => "complete",
            Semantics::MinimalPartial => "minimal-partial",
            Semantics::MinimalPartialMulti => "minimal-partial-multi",
        };
        f.write_str(name)
    }
}

/// One answer, typed by the semantics that produced it.
///
/// An answer stream of a fixed [`Semantics`] only ever yields the matching
/// variant, so pattern matches in consumers may treat the other two as
/// unreachable after checking the stream's semantics once.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Answer {
    /// A complete (certain) answer: a tuple of constants.
    Complete(Vec<ConstId>),
    /// A minimal partial answer with the single wildcard `*`.
    Partial(PartialTuple),
    /// A minimal partial answer with multi-wildcards `*1, *2, …`.
    Multi(MultiTuple),
}

impl Answer {
    /// The semantics this answer belongs to.
    pub fn semantics(&self) -> Semantics {
        match self {
            Answer::Complete(_) => Semantics::Complete,
            Answer::Partial(_) => Semantics::MinimalPartial,
            Answer::Multi(_) => Semantics::MinimalPartialMulti,
        }
    }

    /// Arity of the answer tuple.
    pub fn len(&self) -> usize {
        match self {
            Answer::Complete(t) => t.len(),
            Answer::Partial(t) => t.len(),
            Answer::Multi(t) => t.len(),
        }
    }

    /// Returns `true` iff the answer is the empty (Boolean) tuple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` iff the answer carries no wildcard — complete answers
    /// always, partial/multi answers when every position is a constant.
    pub fn is_complete(&self) -> bool {
        match self {
            Answer::Complete(_) => true,
            Answer::Partial(t) => t.is_complete(),
            Answer::Multi(t) => t.is_complete(),
        }
    }

    /// The complete tuple, if this is a [`Answer::Complete`] answer.
    pub fn as_complete(&self) -> Option<&[ConstId]> {
        match self {
            Answer::Complete(t) => Some(t),
            _ => None,
        }
    }

    /// The partial tuple, if this is a [`Answer::Partial`] answer.
    pub fn as_partial(&self) -> Option<&PartialTuple> {
        match self {
            Answer::Partial(t) => Some(t),
            _ => None,
        }
    }

    /// The multi-wildcard tuple, if this is a [`Answer::Multi`] answer.
    pub fn as_multi(&self) -> Option<&MultiTuple> {
        match self {
            Answer::Multi(t) => Some(t),
            _ => None,
        }
    }

    /// Consumes the answer into its complete tuple, if it is one.
    pub fn into_complete(self) -> Option<Vec<ConstId>> {
        match self {
            Answer::Complete(t) => Some(t),
            _ => None,
        }
    }

    /// Consumes the answer into its partial tuple, if it is one.
    pub fn into_partial(self) -> Option<PartialTuple> {
        match self {
            Answer::Partial(t) => Some(t),
            _ => None,
        }
    }

    /// Consumes the answer into its multi-wildcard tuple, if it is one.
    pub fn into_multi(self) -> Option<MultiTuple> {
        match self {
            Answer::Multi(t) => Some(t),
            _ => None,
        }
    }

    /// Renders the answer with constant names supplied by `resolve`.
    pub fn display_with(&self, mut resolve: impl FnMut(ConstId) -> String) -> String {
        match self {
            Answer::Complete(t) => {
                let names: Vec<String> = t.iter().map(|&c| resolve(c)).collect();
                format!("({})", names.join(","))
            }
            Answer::Partial(t) => t.display_with(resolve),
            Answer::Multi(t) => t.display_with(resolve),
        }
    }

    /// The answer as a borrowed view.
    #[inline]
    pub fn as_answer_ref(&self) -> AnswerRef<'_> {
        match self {
            Answer::Complete(t) => AnswerRef::Complete(t),
            Answer::Partial(t) => AnswerRef::Partial(&t.0),
            Answer::Multi(t) => AnswerRef::Multi(&t.0),
        }
    }
}

/// One answer, borrowed from wherever its producer keeps it: the view an
/// answer stream's batched pull hands its sink, so a consumer that only
/// writes the answer out (a page writer, a counter) allocates nothing per
/// answer.  [`AnswerRef::to_answer`] copies it into an owned [`Answer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerRef<'a> {
    /// A complete (certain) answer: a tuple of constants.
    Complete(&'a [ConstId]),
    /// A minimal partial answer with the single wildcard `*`.
    Partial(&'a [PartialValue]),
    /// A minimal partial answer with multi-wildcards `*1, *2, …`.
    Multi(&'a [MultiValue]),
}

impl AnswerRef<'_> {
    /// The owned answer: one allocation, the tuple's.
    #[inline]
    pub fn to_answer(self) -> Answer {
        match self {
            AnswerRef::Complete(t) => Answer::Complete(t.to_vec()),
            AnswerRef::Partial(t) => Answer::Partial(PartialTuple(t.to_vec())),
            AnswerRef::Multi(t) => Answer::Multi(MultiTuple(t.to_vec())),
        }
    }
}

impl From<PartialTuple> for Answer {
    fn from(t: PartialTuple) -> Self {
        Answer::Partial(t)
    }
}

impl From<MultiTuple> for Answer {
    fn from(t: MultiTuple) -> Self {
        Answer::Multi(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wildcard::{MultiValue, PartialValue};

    #[test]
    fn semantics_roundtrip_and_display() {
        assert_eq!(Semantics::ALL.len(), 3);
        assert_eq!(Semantics::Complete.to_string(), "complete");
        assert_eq!(
            Semantics::MinimalPartialMulti.to_string(),
            "minimal-partial-multi"
        );
    }

    #[test]
    fn answer_accessors_are_variant_exact() {
        let complete = Answer::Complete(vec![ConstId(0), ConstId(1)]);
        let partial = Answer::Partial(PartialTuple(vec![
            PartialValue::Const(ConstId(0)),
            PartialValue::Star,
        ]));
        let multi = Answer::Multi(MultiTuple(vec![MultiValue::Wild(1), MultiValue::Wild(1)]));
        assert_eq!(complete.semantics(), Semantics::Complete);
        assert_eq!(partial.semantics(), Semantics::MinimalPartial);
        assert_eq!(multi.semantics(), Semantics::MinimalPartialMulti);
        assert!(complete.is_complete());
        assert!(!partial.is_complete());
        assert!(!multi.is_complete());
        assert_eq!(complete.as_complete().map(<[_]>::len), Some(2));
        assert!(complete.as_partial().is_none());
        assert_eq!(partial.as_partial().map(PartialTuple::len), Some(2));
        assert!(partial.as_multi().is_none());
        assert_eq!(multi.as_multi().map(MultiTuple::len), Some(2));
        assert!(multi.as_complete().is_none());
        assert_eq!(
            partial.clone().into_partial(),
            partial.as_partial().cloned()
        );
        assert!(multi.clone().into_complete().is_none());
        assert_eq!(complete.len(), 2);
        assert!(!complete.is_empty());
        assert!(Answer::Complete(Vec::new()).is_empty());
        for answer in [&complete, &partial, &multi] {
            assert_eq!(&answer.as_answer_ref().to_answer(), answer);
        }
    }

    #[test]
    fn display_renders_wildcards() {
        let partial = Answer::Partial(PartialTuple(vec![
            PartialValue::Const(ConstId(7)),
            PartialValue::Star,
        ]));
        assert_eq!(partial.display_with(|_| "c".to_owned()), "(c,*)");
        let complete = Answer::Complete(vec![ConstId(7)]);
        assert_eq!(complete.display_with(|_| "c".to_owned()), "(c)");
    }
}
