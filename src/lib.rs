//! # omq — efficiently enumerating answers to ontology-mediated queries
//!
//! A Rust implementation of *Efficiently Enumerating Answers to
//! Ontology-Mediated Queries* (Carsten Lutz, Marcin Przybyłko, PODS 2022).
//!
//! An **ontology-mediated query** (OMQ) `Q = (O, S, q)` pairs a conjunctive
//! query `q` with an ontology `O` — here a set of guarded tuple-generating
//! dependencies (TGDs) or an ELI description-logic ontology — that injects
//! domain knowledge when querying incomplete data.  This crate provides:
//!
//! * **complete (certain) answers**: single-testing in linear time,
//!   all-testing with constant-time tests, and enumeration with linear-time
//!   preprocessing and constant delay for acyclic, free-connex acyclic OMQs;
//! * **minimal partial answers**: answers that may contain the wildcard `*`
//!   (or multi-wildcards `*1, *2, …`) standing for objects whose existence is
//!   implied by the ontology but whose identity is unknown — enumerated with
//!   linear-time preprocessing and constant delay (Algorithms 1 and 2 of the
//!   paper);
//! * a **compile-once/execute-many pipeline**: `QueryPlan` compiles the
//!   query-side artefacts once per OMQ and evaluates them over any number of
//!   databases (or store snapshots) via `QueryPlan::execute` — see
//!   `examples/plan_reuse.rs`;
//! * **shared-nothing parallel execution**: `QueryPlan::execute_tracked`
//!   shards a database into packs of whole Gaifman connected components
//!   (sound under guardedness), chases them on as many scoped threads as
//!   there are CPUs (`execute_parallel` takes the bound from the caller)
//!   and merges the shards' answer streams without losing constant delay;
//! * **distributed execution**: `omq::cluster::execute` runs the same
//!   sharded pipeline across worker *processes* — a coordinator ships fact
//!   shards over the wire, places them with a work-stealing queue, survives
//!   worker death by reassigning unacknowledged shards, and reduces the
//!   returned pages into an ordinary `AnswerStream`;
//! * a **unified lazy answer cursor**: `PreparedInstance::answers(Semantics)`
//!   returns an `AnswerStream` — an `Iterator<Item = Answer>` over any of the
//!   three semantics with constant work per `next()`, so `take(k)` costs
//!   `O(k)` beyond the linear preprocessing; the stream owns its data and
//!   survives the instance it came from (resumable pagination);
//! * a **session-oriented serving layer**: a long-lived `Store` with
//!   transactional batch ingestion (`Txn`) and copy-on-write, epoch-tagged
//!   `Snapshot`s, plus a `ServingEngine` that owns one store and a catalogue
//!   of named compiled plans.  Owned `Request`s reference queries by
//!   id/name and data by snapshot; every request pins a snapshot, so
//!   concurrent commits never invalidate an in-flight answer stream — see
//!   `examples/live_store.rs`;
//! * all the substrates required along the way: a relational data model with
//!   dense columnar indexes, conjunctive-query machinery (join trees,
//!   acyclicity notions), the chase and the query-directed chase.
//!
//! ## Quick start: a serving session
//!
//! ```
//! use omq::prelude::*;
//!
//! // The running example of the paper (Example 1.1).
//! let ontology = Ontology::parse(
//!     "Researcher(x) -> exists y. HasOffice(x, y)\n\
//!      HasOffice(x, y) -> Office(y)\n\
//!      Office(x) -> exists y. InBuilding(x, y)",
//! )?;
//! let query = ConjunctiveQuery::parse(
//!     "q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)",
//! )?;
//! let omq = OntologyMediatedQuery::new(ontology, query)?;
//!
//! // A session: the engine owns a mutable fact store plus a catalogue of
//! // compiled plans.  Registering the query compiles it once and teaches
//! // the store its data schema.
//! let mut engine = ServingEngine::new(2);
//! let q = engine.register_query("offices", &omq)?;
//!
//! // Ingestion is transactional: a `Txn` commits atomically (or not at all).
//! engine.register_data(
//!     Txn::new()
//!         .insert("Researcher", ["mary"])
//!         .insert("Researcher", ["john"])
//!         .insert("Researcher", ["mike"])
//!         .insert("HasOffice", ["mary", "room1"])
//!         .insert("HasOffice", ["john", "room4"])
//!         .insert("InBuilding", ["room1", "main1"]),
//! )?;
//!
//! // Requests are owned values; by default they pin the store head.
//! let response = engine.serve_one(&Request::new(q, Semantics::MinimalPartial))?;
//! assert_eq!(response.answers.len(), 3); // (mary,room1,main1), (john,room4,*), (mike,*,*)
//!
//! // Snapshot isolation: a pinned snapshot never changes, however many
//! // commits happen — and fresh requests see new facts with no recompile.
//! let pinned = engine.snapshot();
//! engine.register_data(
//!     Txn::new()
//!         .insert("HasOffice", ["mike", "room9"])
//!         .insert("InBuilding", ["room9", "main1"]),
//! )?;
//! let old = engine.serve_one(&Request::new(q, Semantics::Complete).at(pinned))?;
//! let new = engine.serve_one(&Request::new(q, Semantics::Complete))?;
//! assert_eq!(old.answers.len(), 1); // (mary,room1,main1)
//! assert_eq!(new.answers.len(), 2); // + (mike,room9,main1)
//! # Ok::<(), omq::Error>(())
//! ```
//!
//! ## One error type across the stack
//!
//! Every layer has its own error; the facade's [`enum@Error`] unifies them so
//! one `?` works end to end, with [`std::error::Error::source`] chains back
//! to the originating layer:
//!
//! ```
//! use omq::prelude::*;
//!
//! fn pipeline() -> omq::Result<usize> {
//!     let ontology = Ontology::parse("A(x) -> exists y. R(x, y)")?; // chase layer
//!     let query = ConjunctiveQuery::parse("q(x, y) :- R(x, y)")?; // cq layer
//!     let omq = OntologyMediatedQuery::new(ontology, query)?;
//!
//!     let mut store = Store::new(omq.data_schema().clone());
//!     store.commit(Txn::new().insert("A", ["a"]))?; // data layer
//!
//!     let plan = QueryPlan::compile(&omq)?; // core layer
//!     let instance = plan.execute(&store.snapshot())?;
//!     Ok(instance.answers(Semantics::MinimalPartial)?.count())
//! }
//! assert_eq!(pipeline().unwrap(), 1);
//!
//! // The layer stays inspectable through the source chain.
//! let err = omq::Error::from(omq::data::DataError::UnknownRelation("R".into()));
//! assert!(std::error::Error::source(&err).is_some());
//! ```
//!
//! See `DESIGN.md` for the system inventory (including the store/session
//! model) and `EXPERIMENTS.md` for the experimental validation of the
//! paper's theorems.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use omq_chase as chase;
pub use omq_cluster as cluster;
pub use omq_core as core;
pub use omq_cq as cq;
pub use omq_data as data;
pub use omq_serve as serve;
pub use omq_server as server;

mod error;

pub use error::{Error, Result};

/// The most commonly used types, re-exported for convenient glob imports.
///
/// The facade [`enum@Error`]/[`Result`] deliberately stay at the crate root
/// (`omq::Error`, `omq::Result`): a glob import must not shadow
/// `std::result::Result` or the caller's own error type.
pub mod prelude {
    pub use omq_chase::{
        chase, query_directed_chase, ChaseConfig, Ontology, OntologyMediatedQuery, QchaseConfig,
        QchasePlan, Tgd,
    };
    pub use omq_core::{
        all_testing::AllTester, baseline::BruteForce, single_testing, AnswerStream,
        MultiEnumerator, PartialEnumerator, PlanSkeleton, PreparedInstance, PreprocessStats,
        QueryPlan,
    };
    pub use omq_cq::{acyclicity::AcyclicityReport, Atom, ConjunctiveQuery, Term, VarId};
    pub use omq_data::{
        Answer, ColumnarIndex, CommitReceipt, ConstId, Database, Fact, MultiTuple, MultiValue,
        NullId, PartialTuple, PartialValue, RelId, Schema, Semantics, Snapshot, Store, Txn, Value,
    };
    pub use omq_serve::{
        AnswerSet, CountResponse, DataRef, QueryId, QueryRef, Request, Response, ServeError,
        ServingEngine, StreamedResponse,
    };
    pub use omq_server::{Client, ErrorCode, QueryTarget, Server, ServerConfig, TxnOp};

    pub use omq_cluster::{ClusterConfig, ClusterRun, ClusterStats, WorkerSpawn};
}

/// Compile-time thread-safety contract of the serving stack.
///
/// The shared-nothing parallel pipeline hands these types across scoped
/// threads — compiled plans, store snapshots, and interner/index artefacts
/// are shared read-only; requests, instances, and responses are moved
/// between workers.  Each assertion fails the *build* (not a test) if a
/// refactor introduces a non-`Send`/non-`Sync` field (an `Rc`, a raw
/// pointer, a `RefCell`, …) anywhere in these types.
mod thread_safety {
    #[allow(dead_code)]
    fn assert_send_sync<T: Send + Sync>() {}

    #[allow(dead_code)]
    fn assert_send<T: Send>() {}

    #[allow(dead_code)]
    fn assertions() {
        // Data substrate: databases (with their lazily built columnar
        // indexes and shared interner snapshots) are read concurrently by
        // every shard worker; stores move into writer tasks and snapshots
        // fan out to arbitrarily many reader threads.
        assert_send_sync::<omq_data::Database>();
        assert_send_sync::<omq_data::ColumnarIndex>();
        assert_send_sync::<omq_data::Interner>();
        assert_send_sync::<omq_data::Schema>();
        assert_send_sync::<omq_data::Store>();
        assert_send_sync::<omq_data::Snapshot>();
        assert_send_sync::<omq_data::Txn>();
        // Chase: one compiled chase plan is shared by all executions, with
        // the bag-type memo behind a read-mostly lock.
        assert_send_sync::<omq_chase::QchasePlan>();
        // Core: compiled plans are shared, prepared instances are moved.
        assert_send_sync::<omq_core::QueryPlan>();
        assert_send_sync::<omq_core::PreparedInstance>();
        assert_send_sync::<omq_core::PlanSkeleton>();
        // Serving: one engine, many request threads; requests are owned
        // values (no lifetime) shipped into workers.
        assert_send_sync::<omq_serve::ServingEngine>();
        assert_send_sync::<omq_serve::Request>();
        assert_send_sync::<omq_serve::Response>();
        assert_send_sync::<omq_serve::CountResponse>();
        // The facade error crosses thread boundaries inside responses.
        assert_send_sync::<crate::Error>();
        // Cursors are moved into per-request handler tasks.
        assert_send::<omq_core::AnswerStream>();
        assert_send::<omq_serve::StreamedResponse>();
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let ontology = Ontology::parse("A(x) -> exists y. R(x, y)").unwrap();
        let query = ConjunctiveQuery::parse("q(x, y) :- R(x, y)").unwrap();
        let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
        let db = Database::builder(omq.data_schema().clone())
            .fact("A", ["a"])
            .build()
            .unwrap();
        let instance = QueryPlan::compile(&omq).unwrap().execute(&db).unwrap();
        assert_eq!(instance.answers(Semantics::Complete).unwrap().count(), 0);
        assert_eq!(
            instance.answers(Semantics::MinimalPartial).unwrap().count(),
            1
        );
    }

    #[test]
    fn facade_session_types_work_together() {
        let ontology = Ontology::parse("A(x) -> exists y. R(x, y)").unwrap();
        let query = ConjunctiveQuery::parse("q(x, y) :- R(x, y)").unwrap();
        let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
        let mut engine = ServingEngine::new(2);
        let q = engine.register_query("r", &omq).unwrap();
        engine.register_data(Txn::new().insert("A", ["a"])).unwrap();
        let pinned = engine.snapshot();
        engine
            .register_data(Txn::new().insert("R", ["a", "b"]))
            .unwrap();
        let old = engine
            .serve_one(&Request::new(q, Semantics::Complete).at(pinned))
            .unwrap();
        assert!(old.answers.is_empty());
        let new = engine
            .serve_one(&Request::new(q, Semantics::Complete))
            .unwrap();
        assert_eq!(new.answers.len(), 1);
    }
}
