//! Error type for the core enumeration crate.

use std::fmt;

/// Errors raised by the enumeration engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The operation requires an acyclic query.
    NotAcyclic(String),
    /// The operation requires a free-connex acyclic query.
    NotFreeConnex(String),
    /// The operation requires both acyclicity and free-connex acyclicity.
    NotEnumerationTractable(String),
    /// The operation requires a guarded ontology.
    NotGuarded(String),
    /// A candidate tuple has the wrong arity.
    ArityMismatch {
        /// Expected arity.
        expected: usize,
        /// Supplied arity.
        actual: usize,
    },
    /// A constant name supplied by the caller is unknown to the database.
    UnknownConstant(String),
    /// The operation is only defined on single-shard instances (sequential
    /// executions); the instance at hand was produced by a sharded parallel
    /// execution.  Use the shard-aware `answers`/`count`/`test`, or evaluate
    /// per shard.
    ShardedInstance(String),
    /// The query is too wide for the multi-wildcard semantics: Algorithm 2
    /// inspects Bell(arity + 1) candidates per answer, so it is only served
    /// up to [`crate::MAX_MULTI_WILDCARD_ARITY`].  The other two semantics
    /// are unaffected.
    MultiWildcardArityTooLarge {
        /// Arity of the query.
        arity: usize,
        /// The widest arity served.
        max: usize,
    },
    /// Internal invariant violation (indicates a bug; reported instead of
    /// panicking so that callers can surface it).
    Internal(String),
    /// A query-layer error bubbled up.
    Cq(omq_cq::CqError),
    /// A chase-layer error bubbled up.
    Chase(omq_chase::ChaseError),
    /// A data-layer error bubbled up.
    Data(omq_data::DataError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NotAcyclic(q) => write!(f, "query is not acyclic: {q}"),
            CoreError::NotFreeConnex(q) => write!(f, "query is not free-connex acyclic: {q}"),
            CoreError::NotEnumerationTractable(q) => write!(
                f,
                "query is not both acyclic and free-connex acyclic, enumeration with constant delay is not supported: {q}"
            ),
            CoreError::NotGuarded(o) => write!(f, "ontology is not guarded: {o}"),
            CoreError::ArityMismatch { expected, actual } => {
                write!(f, "candidate has arity {actual}, expected {expected}")
            }
            CoreError::UnknownConstant(c) => write!(f, "unknown constant `{c}`"),
            CoreError::ShardedInstance(op) => write!(
                f,
                "`{op}` exposes a single chased database and is only defined on single-shard \
                 instances; this instance is sharded — use the shard-aware methods"
            ),
            CoreError::MultiWildcardArityTooLarge { arity, max } => write!(
                f,
                "minimal partial answers with multi-wildcards are enumerated for queries of \
                 arity at most {max}; this query has arity {arity}"
            ),
            CoreError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
            CoreError::Cq(e) => write!(f, "query error: {e}"),
            CoreError::Chase(e) => write!(f, "chase error: {e}"),
            CoreError::Data(e) => write!(f, "data error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Cq(e) => Some(e),
            CoreError::Chase(e) => Some(e),
            CoreError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<omq_cq::CqError> for CoreError {
    fn from(e: omq_cq::CqError) -> Self {
        CoreError::Cq(e)
    }
}

impl From<omq_chase::ChaseError> for CoreError {
    fn from(e: omq_chase::ChaseError) -> Self {
        CoreError::Chase(e)
    }
}

impl From<omq_data::DataError> for CoreError {
    fn from(e: omq_data::DataError) -> Self {
        CoreError::Data(e)
    }
}
