//! The facade-level error type: one [`enum@Error`] for the whole stack.
//!
//! Every layer of the workspace has its own error type (`omq_data::DataError`,
//! `omq_cq::CqError`, `omq_chase::ChaseError`, `omq_core::CoreError`,
//! `omq_serve::ServeError`).  [`enum@Error`] unifies them behind `From`
//! conversions, so one `?` works across layers in application code, and
//! implements [`std::error::Error::source`] so the originating layer stays
//! inspectable through the standard chain.

use std::fmt;

/// Any error of the OMQ stack, tagged by the layer it originated in.
///
/// Constructed via the `From` impls (i.e. by `?`); match on the variant to
/// dispatch by layer, or walk [`std::error::Error::source`] to find root
/// causes (layers wrap each other: a `Core` error may carry a `Chase` error
/// carrying a `Data` error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Data-model layer: schemas, databases, the store (`omq-data`).
    Data(omq_data::DataError),
    /// Conjunctive-query layer: parsing, acyclicity (`omq-cq`).
    Cq(omq_cq::CqError),
    /// Ontology/chase layer: TGDs, the query-directed chase (`omq-chase`).
    Chase(omq_chase::ChaseError),
    /// Core engine layer: plans, enumeration, testing (`omq-core`).
    Core(omq_core::CoreError),
    /// Serving layer: catalogue, sessions, requests (`omq-serve`).
    Serve(omq_serve::ServeError),
    /// Distributed layer: coordinator/worker runs (`omq-cluster`).
    Cluster(omq_cluster::ClusterError),
}

impl Error {
    /// The wire [`ErrorCode`](omq_server::ErrorCode) this error maps onto
    /// when it crosses the `omq-server` network boundary.
    ///
    /// The classification lives in `omq-server` (one table for in-process
    /// and over-the-wire callers); this method dispatches by originating
    /// layer.  Codes below 500 mean the request was at fault (unknown
    /// query, schema mismatch, ill-formed query text); 5xx codes mean the
    /// server side failed — see
    /// [`ErrorCode::is_client_error`](omq_server::ErrorCode::is_client_error).
    pub fn wire_code(&self) -> omq_server::ErrorCode {
        match self {
            Error::Data(e) => omq_server::ErrorCode::for_data(e),
            Error::Cq(e) => omq_server::ErrorCode::for_cq(e),
            Error::Chase(e) => omq_server::ErrorCode::for_chase(e),
            Error::Core(e) => omq_server::ErrorCode::for_core(e),
            Error::Serve(e) => omq_server::wire_code_for_serve(e),
            Error::Cluster(e) => e.wire_code(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Prefix the originating layer (the workspace convention, cf.
        // `CoreError::Cq` → "query error: …") rather than delegating
        // verbatim, so chain printers that walk `source()` do not show the
        // identical message twice in a row.
        match self {
            Error::Data(e) => write!(f, "data layer: {e}"),
            Error::Cq(e) => write!(f, "query layer: {e}"),
            Error::Chase(e) => write!(f, "chase layer: {e}"),
            Error::Core(e) => write!(f, "core layer: {e}"),
            Error::Serve(e) => write!(f, "serving layer: {e}"),
            Error::Cluster(e) => write!(f, "cluster layer: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Data(e) => Some(e),
            Error::Cq(e) => Some(e),
            Error::Chase(e) => Some(e),
            Error::Core(e) => Some(e),
            Error::Serve(e) => Some(e),
            Error::Cluster(e) => Some(e),
        }
    }
}

impl From<omq_data::DataError> for Error {
    fn from(e: omq_data::DataError) -> Self {
        Error::Data(e)
    }
}

impl From<omq_cq::CqError> for Error {
    fn from(e: omq_cq::CqError) -> Self {
        Error::Cq(e)
    }
}

impl From<omq_chase::ChaseError> for Error {
    fn from(e: omq_chase::ChaseError) -> Self {
        Error::Chase(e)
    }
}

impl From<omq_core::CoreError> for Error {
    fn from(e: omq_core::CoreError) -> Self {
        Error::Core(e)
    }
}

impl From<omq_serve::ServeError> for Error {
    fn from(e: omq_serve::ServeError) -> Self {
        Error::Serve(e)
    }
}

impl From<omq_cluster::ClusterError> for Error {
    fn from(e: omq_cluster::ClusterError) -> Self {
        Error::Cluster(e)
    }
}

/// Convenient `Result` alias over the facade [`enum@Error`].
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn conversions_and_sources_cover_every_layer() {
        let data: Error = omq_data::DataError::UnknownRelation("R".into()).into();
        assert!(matches!(data, Error::Data(_)));
        assert!(data.source().is_some());

        let cq: Error = omq_cq::CqError::Parse("bad".into()).into();
        assert!(matches!(cq, Error::Cq(_)));

        let chase: Error = omq_chase::ChaseError::Parse("t".into()).into();
        assert!(matches!(chase, Error::Chase(_)));

        // A nested error keeps its full chain: Core -> Chase -> Data.
        let nested: Error = omq_core::CoreError::Chase(omq_chase::ChaseError::Data(
            omq_data::DataError::UnknownRelation("R".into()),
        ))
        .into();
        let chase_src = nested.source().unwrap().source().unwrap();
        assert!(chase_src.source().is_some());
        assert!(chase_src.source().unwrap().source().is_none());

        let serve: Error =
            omq_serve::ServeError::Data(omq_data::DataError::NonCanonicalWildcards).into();
        assert!(matches!(serve, Error::Serve(_)));
        assert!(serve.source().unwrap().source().is_some());

        let cluster: Error =
            omq_cluster::ClusterError::Cq(omq_cq::CqError::Parse("bad".into())).into();
        assert!(matches!(cluster, Error::Cluster(_)));
        assert!(cluster.source().unwrap().source().is_some());

        // Display prefixes the layer in front of the inner message.
        assert_eq!(
            Error::from(omq_data::DataError::UnknownRelation("R".into())).to_string(),
            format!(
                "data layer: {}",
                omq_data::DataError::UnknownRelation("R".into())
            )
        );
    }

    /// The table: one row per representative error, with the wire code a
    /// client sees and whose fault it is.  A client that gets a 4xx knows
    /// the request itself must change; a 5xx means retry-or-report.
    #[test]
    fn wire_codes_classify_every_layer() {
        use omq_server::ErrorCode;
        let table: &[(Error, ErrorCode, bool)] = &[
            // (error, expected wire code, is the client at fault?)
            (
                omq_data::DataError::UnknownRelation("R".into()).into(),
                ErrorCode::SchemaMismatch,
                true,
            ),
            (
                omq_data::DataError::ArityMismatch {
                    relation: "R".into(),
                    expected: 2,
                    actual: 3,
                }
                .into(),
                ErrorCode::SchemaMismatch,
                true,
            ),
            (
                omq_data::DataError::ArityTooLarge {
                    relation: "Z".into(),
                    arity: 1 << 40,
                }
                .into(),
                ErrorCode::SchemaMismatch,
                true,
            ),
            (
                omq_data::DataError::NonCanonicalWildcards.into(),
                ErrorCode::SchemaMismatch,
                true,
            ),
            (
                omq_data::DataError::StaleIndex {
                    index_revision: 1,
                    database_revision: 2,
                }
                .into(),
                ErrorCode::Internal,
                false,
            ),
            (
                omq_cq::CqError::Parse("bad".into()).into(),
                ErrorCode::BadQuery,
                true,
            ),
            (
                omq_cq::CqError::UnboundAnswerVariable("x".into()).into(),
                ErrorCode::BadQuery,
                true,
            ),
            (
                omq_chase::ChaseError::Parse("t".into()).into(),
                ErrorCode::BadQuery,
                true,
            ),
            (
                omq_chase::ChaseError::ChaseBudgetExceeded { max_facts: 10 }.into(),
                ErrorCode::Internal,
                false,
            ),
            (
                omq_core::CoreError::NotFreeConnex("q".into()).into(),
                ErrorCode::BadQuery,
                true,
            ),
            (
                omq_core::CoreError::MultiWildcardArityTooLarge { arity: 9, max: 8 }.into(),
                ErrorCode::BadQuery,
                true,
            ),
            (
                omq_core::CoreError::UnknownConstant("c".into()).into(),
                ErrorCode::SchemaMismatch,
                true,
            ),
            (
                omq_core::CoreError::Internal("bug".into()).into(),
                ErrorCode::Internal,
                false,
            ),
            (
                omq_serve::ServeError::UnknownQueryName("q".into()).into(),
                ErrorCode::UnknownQuery,
                true,
            ),
            (
                omq_serve::ServeError::UnknownQuery(7).into(),
                ErrorCode::UnknownQuery,
                true,
            ),
            (
                omq_serve::ServeError::DuplicateQuery("q".into()).into(),
                ErrorCode::DuplicateQuery,
                true,
            ),
            // Nested: the classification follows the root cause.
            (
                omq_core::CoreError::Chase(omq_chase::ChaseError::Data(
                    omq_data::DataError::UnknownRelation("R".into()),
                ))
                .into(),
                ErrorCode::SchemaMismatch,
                true,
            ),
            (
                omq_serve::ServeError::Core(omq_core::CoreError::Internal("bug".into())).into(),
                ErrorCode::Internal,
                false,
            ),
            // Distributed runs share the taxonomy: a bad query is the
            // client's fault wherever it fails to compile; infrastructure
            // trouble (no workers, dead sockets) is server-side.
            (
                omq_cluster::ClusterError::Cq(omq_cq::CqError::Parse("bad".into())).into(),
                ErrorCode::BadQuery,
                true,
            ),
            (
                omq_cluster::ClusterError::NoWorkers("timed out".into()).into(),
                ErrorCode::Internal,
                false,
            ),
            (
                omq_cluster::ClusterError::Protocol("stray frame".into()).into(),
                ErrorCode::MalformedFrame,
                true,
            ),
        ];
        for (error, expected, client_fault) in table {
            let code = error.wire_code();
            assert_eq!(code, *expected, "{error}");
            assert_eq!(code.is_client_error(), *client_fault, "{error}");
            // The code survives the wire: u16 round-trip is lossless.
            assert_eq!(ErrorCode::from_u16(code.as_u16()), Some(code), "{error}");
        }
    }
}
