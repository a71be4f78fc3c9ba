//! Ontology substrate for the OMQ enumeration library.
//!
//! This crate implements the ontology-side formalism of *Efficiently
//! Enumerating Answers to Ontology-Mediated Queries* (Lutz & Przybyłko,
//! PODS 2022):
//!
//! * **tuple-generating dependencies (TGDs)**, guardedness and the description
//!   logic **ELI** (as syntactically restricted guarded TGDs), see [`tgd`];
//! * **ontologies** (finite sets of TGDs) and **ontology-mediated queries**
//!   `(O, S, q)`, see [`ontology`] and [`omq`];
//! * the (bounded, fair, oblivious) **chase**, see [`mod@chase`];
//! * the **query-directed chase** `ch^q_O(D)` of Section 3 of the paper,
//!   computed in time linear in `‖D‖` by guarded saturation of the database
//!   part plus a memo of bag types, see [`qchase`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod chase;
pub mod error;
pub mod omq;
pub mod ontology;
pub mod qchase;
pub mod tgd;

pub use arena::FactArena;
pub use chase::{chase, chase_in, ChaseConfig, ChaseResult};
pub use error::ChaseError;
pub use omq::OntologyMediatedQuery;
pub use ontology::Ontology;
pub use qchase::{query_directed_chase, QchaseConfig, QchasePlan, QueryDirectedChase};
pub use tgd::Tgd;

/// Convenient `Result` alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, ChaseError>;
