//! Error type for the conjunctive-query crate.

use std::fmt;

/// Errors raised while parsing or manipulating conjunctive queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CqError {
    /// The textual syntax could not be parsed.
    Parse(String),
    /// An answer variable does not occur in the query body.
    UnboundAnswerVariable(String),
    /// A relation symbol is used with two different arities inside the query.
    ArityConflict {
        /// Relation symbol.
        relation: String,
        /// First arity seen.
        first: usize,
        /// Conflicting arity.
        second: usize,
    },
}

impl fmt::Display for CqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CqError::Parse(msg) => write!(f, "parse error: {msg}"),
            CqError::UnboundAnswerVariable(v) => {
                write!(f, "answer variable `{v}` does not occur in the query body")
            }
            CqError::ArityConflict {
                relation,
                first,
                second,
            } => write!(
                f,
                "relation `{relation}` used with conflicting arities {first} and {second}"
            ),
        }
    }
}

impl std::error::Error for CqError {}
