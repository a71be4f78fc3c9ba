//! Workload generators, hardness reductions, measurement utilities and the
//! experiment harness for the OMQ enumeration library.
//!
//! The paper contains no empirical evaluation (it is a theory paper), so the
//! experiments implemented here validate its *theorems* empirically:
//!
//! * E1 — Figure 1 (classification of the acyclicity notions);
//! * E2 — Proposition 3.3 / Theorem 3.1 (linear-time query-directed chase and
//!   single-testing);
//! * E3 — Theorem 4.1(1) (complete-answer enumeration: linear preprocessing,
//!   constant delay);
//! * E4 — Theorem 4.1(2) (all-testing);
//! * E5 — Theorem 5.2 / Algorithm 1 (minimal partial answers);
//! * E6 — Theorem 6.1 / Algorithm 2 (multi-wildcard answers);
//! * E7 — Theorems 3.4/3.6/5.1 (triangle-detection reductions);
//! * E8 — Theorems 4.4/4.6 (Boolean matrix multiplication reductions);
//! * E9 — Proposition 2.1 and the running example;
//! * E10 — comparison against the brute-force baseline;
//! * E11 — ablations (chase depth, memoisation).
//!
//! What the *system* costs — compile, chase, refresh, page, wire, count — is
//! timed by the repository's benchmark (`benchmark/`, `BENCHMARK.json`), not
//! here; `EXPERIMENTS.md` maps each such measurement to its metric and to the
//! differential test that guards it.
//!
//! See `EXPERIMENTS.md` at the workspace root for the paper-vs-measured
//! discussion and `cargo run -p omq-bench --bin harness --release` to
//! regenerate every table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod generators;
pub mod measure;
pub mod reductions;

pub use experiments::{run_all, run_experiment, Table};
pub use generators::{university, UniversityConfig};
pub use measure::{measure_stream, DelayStats};
