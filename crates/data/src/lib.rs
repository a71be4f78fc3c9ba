//! Relational data-model substrate for the OMQ enumeration library.
//!
//! This crate provides the "databases" half of the formal setup of
//! *Efficiently Enumerating Answers to Ontology-Mediated Queries*
//! (Lutz & Przybyłko, PODS 2022):
//!
//! * interned **constants** (the countably infinite set `C` of the paper) and
//!   **nulls** (the set `N`), see [`Value`];
//! * **schemas** of relation symbols with arities, see [`Schema`];
//! * **facts** and finite **instances / databases** with dense columnar
//!   indexes that play the role of the RAM-model lookup tables assumed by the
//!   paper, see [`Database`] and [`columnar::ColumnarIndex`]; the database
//!   also keeps its **Gaifman components** (a union-find over values, see
//!   [`Database::component_keys`]) and packs them into shards
//!   ([`Database::pack_components`]); a nullary fact has no value and is in
//!   no component;
//! * **wildcard tuples** for partial answers — both the single-wildcard variant
//!   (`*`) and the multi-wildcard variant (`*1, *2, …`) together with their
//!   preference orders `⪯` / `≺`, minimality filters, balls and cones, see
//!   [`wildcard`];
//! * the **unified answer value** ([`Answer`]) and semantics selector
//!   ([`Semantics`]) shared by the enumeration cursors upstream, see
//!   [`answer`];
//! * the long-lived **fact store** with transactional batch ingestion and
//!   copy-on-write, epoch-tagged snapshots ([`Store`] / [`Txn`] /
//!   [`Snapshot`]) — the session substrate of the serving layer, see
//!   [`store`].
//!
//! Everything downstream (conjunctive queries, the chase, the enumeration
//! engines) is built on top of these types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod columnar;
pub mod database;
pub mod error;
pub mod fact;
pub mod interner;
pub mod schema;
pub mod store;
pub mod value;
pub mod wildcard;

pub use answer::{Answer, AnswerRef, Semantics};
pub use columnar::{Column, ColumnarIndex};
pub use database::{Database, DatabaseBuilder};
pub use error::DataError;
pub use fact::Fact;
pub use interner::Interner;
pub use schema::{RelId, Relation, Schema};
pub use store::{CommitReceipt, Snapshot, Store, Txn};
pub use value::{ConstId, NullId, Value};
pub use wildcard::{
    multi_wildcard_ball, multi_wildcard_cone, MultiTuple, MultiValue, PartialTuple, PartialValue,
};

/// Convenient `Result` alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, DataError>;
