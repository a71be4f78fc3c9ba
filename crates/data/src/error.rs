//! Error type for the data-model substrate.

use std::fmt;

/// Errors raised while constructing or manipulating schemas and databases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A relation symbol was used that is not part of the schema.
    UnknownRelation(String),
    /// A fact was constructed with the wrong number of arguments for its
    /// relation symbol.
    ArityMismatch {
        /// Relation symbol name.
        relation: String,
        /// Arity declared in the schema.
        expected: usize,
        /// Number of arguments supplied.
        actual: usize,
    },
    /// The same relation symbol was declared twice with different arities.
    ConflictingArity {
        /// Relation symbol name.
        relation: String,
        /// First declared arity.
        first: usize,
        /// Conflicting arity.
        second: usize,
    },
    /// A relation symbol was declared with an arity above
    /// [`crate::schema::MAX_ARITY`].
    ArityTooLarge {
        /// Relation symbol name.
        relation: String,
        /// The declared arity.
        arity: usize,
    },
    /// A multi-wildcard tuple violated the canonical numbering condition
    /// (a wildcard `*_j` with `j > 1` must be preceded by `*_{j-1}`).
    NonCanonicalWildcards,
    /// A fact mentioning a labelled null was exported as named rows.  Rows
    /// travel by constant *name* (e.g. between cluster processes), and a
    /// null has none; base databases — the only thing shipped — never
    /// contain nulls (nulls are minted by the chase, downstream of export).
    UnexportableNull {
        /// The relation of the offending fact.
        relation: String,
    },
    /// A [`crate::ColumnarIndex`] was executed against a database whose
    /// revision differs from the one the index was built at (e.g. a cloned
    /// index outliving a mutation, or a reused shard that was refreshed
    /// underneath it).
    StaleIndex {
        /// The revision the index was built at.
        index_revision: u64,
        /// The current revision of the database it was checked against.
        database_revision: u64,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::UnknownRelation(name) => {
                write!(f, "unknown relation symbol `{name}`")
            }
            DataError::ArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "relation `{relation}` has arity {expected} but {actual} arguments were supplied"
            ),
            DataError::ConflictingArity {
                relation,
                first,
                second,
            } => write!(
                f,
                "relation `{relation}` declared with conflicting arities {first} and {second}"
            ),
            DataError::ArityTooLarge { relation, arity } => write!(
                f,
                "relation `{relation}` declared with arity {arity}, above the maximum {}",
                crate::schema::MAX_ARITY
            ),
            DataError::NonCanonicalWildcards => {
                write!(
                    f,
                    "multi-wildcard tuple does not use canonical wildcard numbering"
                )
            }
            DataError::UnexportableNull { relation } => write!(
                f,
                "a fact of relation `{relation}` mentions a labelled null \
                 and cannot be exported as named rows"
            ),
            DataError::StaleIndex {
                index_revision,
                database_revision,
            } => write!(
                f,
                "stale columnar index: built at revision {index_revision}, \
                 database is at revision {database_revision}"
            ),
        }
    }
}

impl std::error::Error for DataError {}
