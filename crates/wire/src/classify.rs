//! Classifying the workspace's layered errors into wire [`ErrorCode`]s.
//!
//! Every layer keeps its own rich error enum; on the wire a client only
//! needs to know *whose fault it was* (can the request succeed if retried
//! unchanged?) plus a coarse kind.  The classifiers here are the single
//! source of truth for that mapping — the server and the cluster use them
//! when a request fails, and the `omq` facade's `Error::wire_code`
//! delegates to them so in-process and over-the-wire callers classify
//! identically (the facade carries the table test).  The serving-layer
//! classifier lives in `omq-server` (this crate sits below `omq-serve`).
//!
//! The ground rules:
//!
//! - anything the *data* in the request violates (unknown relation, arity
//!   mismatch, unknown constant, ill-formed tuple) → [`ErrorCode::SchemaMismatch`];
//! - anything wrong with a submitted *query or ontology* (parse errors,
//!   fragment violations such as not-guarded / not-acyclic / not-free-connex,
//!   a query too wide for the multi-wildcard semantics)
//!   → [`ErrorCode::BadQuery`];
//! - everything that indicates a server-side bug or resource exhaustion
//!   (internal invariants, stale indices, chase budget, a saturation cut off
//!   by its round limit) → [`ErrorCode::Internal`].

use crate::code::ErrorCode;
use omq_chase::ChaseError;
use omq_core::CoreError;
use omq_cq::CqError;
use omq_data::DataError;

impl ErrorCode {
    /// Classifies a data-layer error.
    pub fn for_data(e: &DataError) -> ErrorCode {
        match e {
            // A stale columnar index is an engine bookkeeping failure, not
            // something the request did wrong — and so is trying to ship a
            // chased (null-bearing) instance as named rows.
            DataError::StaleIndex { .. } | DataError::UnexportableNull { .. } => {
                ErrorCode::Internal
            }
            DataError::UnknownRelation(_)
            | DataError::ArityMismatch { .. }
            | DataError::ConflictingArity { .. }
            | DataError::ArityTooLarge { .. }
            | DataError::NonCanonicalWildcards => ErrorCode::SchemaMismatch,
        }
    }

    /// Classifies a query-layer error.
    pub fn for_cq(e: &CqError) -> ErrorCode {
        match e {
            CqError::Parse(_)
            | CqError::UnboundAnswerVariable(_)
            | CqError::ArityConflict { .. } => ErrorCode::BadQuery,
        }
    }

    /// Classifies an ontology/chase-layer error.
    pub fn for_chase(e: &ChaseError) -> ErrorCode {
        match e {
            ChaseError::Parse(_) | ChaseError::ArityConflict { .. } => ErrorCode::BadQuery,
            // The budget is a server-side resource limit; the query itself
            // may be perfectly valid.
            ChaseError::ChaseBudgetExceeded { .. } => ErrorCode::Internal,
            ChaseError::Cq(e) => ErrorCode::for_cq(e),
            ChaseError::Data(e) => ErrorCode::for_data(e),
        }
    }

    /// Classifies a core-engine error.
    pub fn for_core(e: &CoreError) -> ErrorCode {
        match e {
            CoreError::NotAcyclic(_)
            | CoreError::NotFreeConnex(_)
            | CoreError::NotEnumerationTractable(_)
            | CoreError::NotGuarded(_)
            | CoreError::MultiWildcardArityTooLarge { .. } => ErrorCode::BadQuery,
            CoreError::ArityMismatch { .. } | CoreError::UnknownConstant(_) => {
                ErrorCode::SchemaMismatch
            }
            CoreError::ShardedInstance(_) | CoreError::Internal(_) => ErrorCode::Internal,
            CoreError::Cq(e) => ErrorCode::for_cq(e),
            CoreError::Chase(e) => ErrorCode::for_chase(e),
            CoreError::Data(e) => ErrorCode::for_data(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_agrees_with_the_fault_line() {
        // Request-side faults are 4xx…
        assert!(ErrorCode::for_data(&DataError::UnknownRelation("R".into())).is_client_error());
        assert!(ErrorCode::for_cq(&CqError::Parse("…".into())).is_client_error());
        assert!(ErrorCode::for_chase(&ChaseError::Parse("…".into())).is_client_error());
        assert!(ErrorCode::for_core(&CoreError::NotFreeConnex("…".into())).is_client_error());
        // …server-side failures are 5xx, even when nested through layers.
        assert!(!ErrorCode::for_core(&CoreError::Internal("bug".into())).is_client_error());
        assert_eq!(
            ErrorCode::for_core(&CoreError::Chase(ChaseError::ChaseBudgetExceeded {
                max_facts: 10
            })),
            ErrorCode::Internal
        );
        // Nested data errors classify the same at every layer.
        let data = DataError::ArityMismatch {
            relation: "R".into(),
            expected: 2,
            actual: 3,
        };
        let via_core = ErrorCode::for_core(&CoreError::Data(data.clone()));
        let via_chase = ErrorCode::for_chase(&ChaseError::Data(data.clone()));
        assert_eq!(via_core, ErrorCode::for_data(&data));
        assert_eq!(via_chase, ErrorCode::for_data(&data));
    }
}
