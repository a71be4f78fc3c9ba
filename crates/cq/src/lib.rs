//! Conjunctive queries for the OMQ enumeration library.
//!
//! This crate implements the query-side formalism of *Efficiently Enumerating
//! Answers to Ontology-Mediated Queries* (Lutz & Przybyłko, PODS 2022):
//!
//! * the **conjunctive query** AST and a small text syntax
//!   (`q(x, y) :- R(x, z), S(z, y)`), see [`ConjunctiveQuery`] and [`parser`];
//! * **hypergraphs**, the **GYO reduction** and **join trees**, see
//!   [`hypergraph`];
//! * the acyclicity notions of the paper — *acyclic*, *weakly acyclic*,
//!   *free-connex acyclic* — together with self-join freeness, connectedness
//!   and *bad paths*, see [`acyclicity`];
//! * **homomorphism search** from a query into a database (used by the
//!   brute-force baselines, the chase machinery and the testers), see
//!   [`homomorphism`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acyclicity;
pub mod atom;
pub mod error;
pub mod homomorphism;
pub mod hypergraph;
pub mod parser;
pub mod query;
pub mod term;

pub use acyclicity::AcyclicityReport;
pub use atom::Atom;
pub use error::CqError;
pub use homomorphism::{Assignment, HomSearch};
pub use hypergraph::{Hypergraph, JoinTree, RootedJoinTree};
pub use query::ConjunctiveQuery;
pub use term::{Term, VarId};

/// Convenient `Result` alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, CqError>;
