//! Error type for the ontology / chase crate.

use std::fmt;

/// Errors raised while parsing or applying ontologies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaseError {
    /// The TGD text could not be parsed.
    Parse(String),
    /// A relation symbol is used with conflicting arities.
    ArityConflict {
        /// Relation symbol.
        relation: String,
        /// First arity seen.
        first: usize,
        /// Conflicting arity.
        second: usize,
    },
    /// The chase exceeded its configured fact budget.
    ChaseBudgetExceeded {
        /// The configured maximum number of facts.
        max_facts: usize,
    },
    /// A query-layer error bubbled up.
    Cq(omq_cq::CqError),
    /// A data-layer error bubbled up.
    Data(omq_data::DataError),
}

impl fmt::Display for ChaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseError::Parse(msg) => write!(f, "TGD parse error: {msg}"),
            ChaseError::ArityConflict {
                relation,
                first,
                second,
            } => write!(
                f,
                "relation `{relation}` used with conflicting arities {first} and {second}"
            ),
            ChaseError::ChaseBudgetExceeded { max_facts } => {
                write!(f, "chase exceeded its budget of {max_facts} facts")
            }
            ChaseError::Cq(e) => write!(f, "query error: {e}"),
            ChaseError::Data(e) => write!(f, "data error: {e}"),
        }
    }
}

impl std::error::Error for ChaseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChaseError::Cq(e) => Some(e),
            ChaseError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<omq_cq::CqError> for ChaseError {
    fn from(e: omq_cq::CqError) -> Self {
        ChaseError::Cq(e)
    }
}

impl From<omq_data::DataError> for ChaseError {
    fn from(e: omq_data::DataError) -> Self {
        ChaseError::Data(e)
    }
}
