//! Core of the OMQ enumeration library — the contribution of *Efficiently
//! Enumerating Answers to Ontology-Mediated Queries* (Lutz & Przybyłko,
//! PODS 2022).
//!
//! The crate provides, for ontology-mediated queries `(O, S, q)` with guarded
//! (or ELI) ontologies:
//!
//! * **single-testing** of complete and (minimal) partial answers in linear
//!   time (Theorem 3.1), see [`single_testing`];
//! * **enumeration of complete answers** with linear-time preprocessing and
//!   constant delay for acyclic, free-connex acyclic OMQs (Theorem 4.1(1)),
//!   see [`enumerate`];
//! * **all-testing of complete answers** for free-connex acyclic OMQs
//!   (Theorem 4.1(2), Proposition 4.2), see [`all_testing`];
//! * **enumeration of minimal partial answers** with a single wildcard
//!   (Theorem 5.2, Algorithm 1), see [`progress`] and [`partial_enum`];
//! * **enumeration of minimal partial answers with multi-wildcards**
//!   (Theorem 6.1, Algorithm 2), see [`multi_enum`];
//! * **complete answers first** (Proposition 2.1):
//!   `PreparedInstance::enumerate_minimal_partial_complete_first`, the
//!   minimal partial answers stably partitioned so the complete ones lead;
//! * **one preprocessing per shard**: the enumeration structures are built
//!   on first use and kept with the chased shard they derive from, so a
//!   second cursor, a `count` or a refreshed instance starts from them, see
//!   [`shard`];
//! * **shared-nothing parallel execution**: the chase and the enumeration
//!   pipeline sharded into packs of whole Gaifman components and run on
//!   scoped threads (`QueryPlan::execute_tracked`, `execute_parallel`), see
//!   [`parallel`];
//! * the **distributed execution seam**: [`RemoteShard`] answer sources and
//!   `AnswerStream::from_remote`, which chains them as one more kind of
//!   shard cursor, so pages produced by worker processes go through the
//!   very cross-shard reduce local shards do (used by `omq-cluster`), see
//!   [`remote`];
//! * brute-force baselines used by tests and benchmarks, see [`baseline`].
//!
//! Both enumerators are opened over a chased [`Shard`] and nothing else:
//! [`PartialEnumerator::open`] over the shard's prepared half, and
//! [`MultiEnumerator::open`], which prepares Algorithm 1 over the shard
//! for itself.  There is no entry point over a raw query and database.
//!
//! All three enumeration modes are served by **one lazy cursor API**:
//! `PreparedInstance::answers(Semantics)` returns an [`AnswerStream`]
//! (`Iterator<Item = Answer>`) with constant work per `next()`, early
//! termination via `take(k)`, and shard-sound chaining — see [`stream`].
//!
//! The one evaluation entry is [`QueryPlan`] in [`plan`]:
//! `QueryPlan::compile(&omq)?.execute(&db)?` yields a [`PreparedInstance`]
//! with `answers(Semantics)`, `count`, `exists` and `test(&Answer)`.  Compile
//! once and execute per database to amortise the query-side work (the
//! `omq-serve` crate's session front end does exactly that).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod all_testing;
pub mod baseline;
pub mod enumerate;
pub mod error;
pub mod extension;
pub mod multi_enum;
mod multi_templates;
pub mod parallel;
pub mod partial_enum;
pub mod plan;
pub mod preprocess;
pub mod progress;
pub mod remote;
pub mod shard;
pub mod single_testing;
pub mod stream;
pub mod yannakakis;

pub use all_testing::AllTester;
pub use baseline::BruteForce;
pub use enumerate::{collect_answers, AnswerCursor, AnswerIter};
pub use error::CoreError;
pub use extension::{Extension, Tuple};
pub use multi_enum::{MultiEnumerator, MultiStats, MAX_MULTI_WILDCARD_ARITY};
pub use omq_data::{Answer, Semantics};
pub use partial_enum::{PartialEnumerator, PreparedPartial};
pub use plan::{PreparedInstance, PreprocessStats, QueryPlan};
pub use preprocess::{FreeConnexStructure, JoinCsr, PlanSkeleton};
pub use progress::{ProgressIndex, ProgressTree, TreeLists};
pub use remote::RemoteShard;
pub use shard::Shard;
pub use stream::AnswerStream;

/// Convenient `Result` alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
