//! `omq-cluster` — coordinator/worker **distributed execution** of one
//! query plan across worker processes.
//!
//! This crate scales the engine's shared-nothing parallel story
//! (`QueryPlan::execute_tracked`, threads in one address space) out to
//! **processes**: a coordinator packs the database's Gaifman components into
//! shards by the rule the in-process executor uses
//! (`Database::pack_components`), behind the same gate
//! (`QueryPlan::shard_keys`), ships each shard's facts plus the ontology/query text to workers over
//! the length-prefixed JSON wire shared with `omq-server` (the `omq-wire`
//! codec), places shards with a work-stealing queue (largest first, idle
//! workers steal), and chains the returned answer pages as shard cursors of
//! an ordinary `AnswerStream` — the engine's one chain, whose cross-shard
//! reduce (wildcard-minimality merge, Boolean dedup) is the code local
//! shards go through — so callers drain a perfectly ordinary stream.
//!
//! The soundness argument is unchanged from the in-process path: for
//! connected queries under guarded ontologies, with no nullary atom in
//! either, Gaifman components chase and
//! enumerate independently (paper §3, Prop. 3.3), constant-bearing answers
//! are globally minimal whenever they are shard-locally minimal, and only
//! wildcard-only tuples need the cross-shard merge.
//!
//! Entry points:
//!
//! * [`execute`] — run a query distributed, returning a [`ClusterRun`]
//!   (stream + handle + stats).
//! * [`run_worker`] / [`maybe_run_worker`] — the worker side; the
//!   `omq-cluster-worker` binary is a thin wrapper, and any binary can
//!   serve as its own fleet by calling [`maybe_run_worker`] first thing in
//!   `main` (the integration tests self-spawn this way).
//!
//! Fault handling: shard results commit exactly once (pages buffer until
//! the shard's done marker), a dead worker's uncommitted shards are
//! requeued for the survivors, and the run only fails when a worker reports
//! a deterministic evaluation error or the whole fleet dies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod messages;
pub mod worker;

pub use coordinator::{
    execute, ClusterConfig, ClusterHandle, ClusterRun, ClusterStats, Kill, WorkerSpawn,
};
pub use messages::{CoordFrame, FactRow, WorkerFrame};
pub use worker::{maybe_run_worker, run_worker, WorkerFault};

use omq_chase::ChaseError;
use omq_core::CoreError;
use omq_cq::CqError;
use omq_data::DataError;
use omq_wire::ErrorCode;

/// Errors raised while setting up or driving a distributed run.
///
/// Once [`execute`] has returned a [`ClusterRun`], runtime failures (worker
/// death, protocol violations mid-stream) surface through the answer
/// stream's `error()` instead, exactly like local enumeration failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Socket or process-spawn failure.  Carries the [`std::io::ErrorKind`]
    /// and rendered message rather than the error itself so the type stays
    /// `Clone`/`Eq` like every other error in the stack.
    Io(std::io::ErrorKind, String),
    /// The ontology was rejected (parse error, not guarded).
    Chase(ChaseError),
    /// The query was rejected (parse error, not acyclic).
    Cq(CqError),
    /// Plan compilation or evaluation failed on the coordinator.
    Core(CoreError),
    /// Shard export/import failed (e.g. a labelled null in the input).
    Data(DataError),
    /// A peer broke the coordinator/worker protocol.
    Protocol(String),
    /// No worker connected before the timeout.
    NoWorkers(String),
    /// A fact row of this many encoded bytes, too long to travel in one
    /// frame (over [`omq_wire::MAX_SINGLE_ANSWER_BYTES`]).
    FactTooLarge(usize),
}

impl ClusterError {
    /// The wire error code this failure maps to — the same classification
    /// the single-node server uses, so clients see one error taxonomy.
    pub fn wire_code(&self) -> ErrorCode {
        match self {
            ClusterError::Io(..) => ErrorCode::Internal,
            ClusterError::Chase(e) => ErrorCode::for_chase(e),
            ClusterError::Cq(e) => ErrorCode::for_cq(e),
            ClusterError::Core(e) => ErrorCode::for_core(e),
            ClusterError::Data(e) => ErrorCode::for_data(e),
            ClusterError::Protocol(_) => ErrorCode::MalformedFrame,
            ClusterError::NoWorkers(_) => ErrorCode::Internal,
            ClusterError::FactTooLarge(_) => ErrorCode::FrameTooLarge,
        }
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Io(_, message) => write!(f, "cluster i/o error: {message}"),
            ClusterError::Chase(e) => write!(f, "{e}"),
            ClusterError::Cq(e) => write!(f, "{e}"),
            ClusterError::Core(e) => write!(f, "{e}"),
            ClusterError::Data(e) => write!(f, "{e}"),
            ClusterError::Protocol(msg) => write!(f, "cluster protocol violation: {msg}"),
            ClusterError::NoWorkers(msg) => write!(f, "no cluster workers: {msg}"),
            ClusterError::FactTooLarge(bytes) => write!(
                f,
                "a fact row of {bytes} encoded bytes exceeds the {}-byte cap of one frame",
                omq_wire::MAX_SINGLE_ANSWER_BYTES
            ),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Chase(e) => Some(e),
            ClusterError::Cq(e) => Some(e),
            ClusterError::Core(e) => Some(e),
            ClusterError::Data(e) => Some(e),
            ClusterError::Io(..)
            | ClusterError::Protocol(_)
            | ClusterError::NoWorkers(_)
            | ClusterError::FactTooLarge(_) => None,
        }
    }
}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        ClusterError::Io(e.kind(), e.to_string())
    }
}

impl From<ChaseError> for ClusterError {
    fn from(e: ChaseError) -> Self {
        ClusterError::Chase(e)
    }
}

impl From<CqError> for ClusterError {
    fn from(e: CqError) -> Self {
        ClusterError::Cq(e)
    }
}

impl From<CoreError> for ClusterError {
    fn from(e: CoreError) -> Self {
        ClusterError::Core(e)
    }
}

impl From<DataError> for ClusterError {
    fn from(e: DataError) -> Self {
        ClusterError::Data(e)
    }
}
