//! One shard of a `PreparedInstance`: a chased database together with the
//! enumeration structures derived from it, each built at most once.
//!
//! The paper's contract is *one* linear preprocessing phase and constant
//! delay after it.  The chase is the first half of that phase and lives in
//! the shard's [`Database`]; the second half — the join structure of
//! Theorem 4.1(1) for complete answers, and Algorithm 1's prepared half
//! ([`PreparedPartial`]) that the two wildcard semantics share — depends on
//! the shard and the plan alone, so it is kept *with the shard*: built by
//! whichever cursor, `count` or `exists` needs it first, handed to every
//! later one behind an [`Arc`], and dropped with the shard.  Because
//! [`crate::PreparedInstance::refresh`] splices untouched shards into the
//! successor instance by `Arc`-clone, their structures cross a refresh for
//! free.
//!
//! There is no eviction and no switch: a structure is a pure function of
//! (plan, shard), costs memory linear in the shard's chase — a fraction of
//! what the shard's own columnar index takes — and a shard lives exactly as
//! long as some instance or parked stream can still enumerate it.

use crate::partial_enum::PreparedPartial;
use crate::preprocess::{FreeConnexStructure, PlanSkeleton};
use crate::Result;
use omq_data::Database;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A chased shard database and the lazily built, shared enumeration
/// structures over it.  Dereferences to the [`Database`].
///
/// A shard belongs to the instances of **one** plan (its own, and the
/// refresh successors that reuse it), which is what makes the structures a
/// function of the shard.
#[derive(Debug)]
pub struct Shard {
    db: Database,
    /// The join structure for complete answers (`complete_only`).
    complete: OnceLock<Result<Arc<FreeConnexStructure>>>,
    /// Algorithm 1's prepared half, for both wildcard semantics.
    partial: OnceLock<Result<Arc<PreparedPartial>>>,
    /// Structure builds run on this shard so far (at most one per kind).
    builds: AtomicUsize,
}

impl Shard {
    pub(crate) fn new(db: Database) -> Self {
        Shard {
            db,
            complete: OnceLock::new(),
            partial: OnceLock::new(),
            builds: AtomicUsize::new(0),
        }
    }

    /// The shard's join structure for complete answers, built on first use.
    pub(crate) fn complete_structure(
        &self,
        skeleton: &PlanSkeleton,
    ) -> Result<&Arc<FreeConnexStructure>> {
        self.cached(&self.complete, |db| {
            let mut structure = FreeConnexStructure::materialize(skeleton, db, true)?;
            // The predecessor hash indexes are preprocessing-time state (the
            // walk follows the CSR parent joins) and, at two small
            // allocations a tuple, most of what the structure would retain.
            for node in &mut structure.nodes {
                node.index = Default::default();
            }
            Ok(structure)
        })
    }

    /// The shard's prepared half of Algorithm 1, built on first use.
    pub(crate) fn prepared_partial(
        &self,
        skeleton: &PlanSkeleton,
    ) -> Result<&Arc<PreparedPartial>> {
        self.cached(&self.partial, |db| PreparedPartial::prepare(skeleton, db))
    }

    /// The one accessor behind both kinds: runs `build` unless the cell is
    /// filled, concurrent callers waiting for the one that runs it.
    ///
    /// The *result* is cached, failure included: a build is a pure function
    /// of the plan and the shard, so a failed one would fail again, and
    /// every open over the shard reports the same typed error instead of
    /// only the first.
    fn cached<'a, T>(
        &'a self,
        cell: &'a OnceLock<Result<Arc<T>>>,
        build: impl FnOnce(&Database) -> Result<T>,
    ) -> Result<&'a Arc<T>> {
        cell.get_or_init(|| {
            // `Relaxed`: a statistic; the structure itself is published by
            // the `OnceLock`.
            self.builds.fetch_add(1, Ordering::Relaxed);
            build(&self.db).map(Arc::new)
        })
        .as_ref()
        .map_err(Clone::clone)
    }

    /// How many structure builds have run on this shard: at most one per
    /// kind, however many cursors, counts and instances have used it.
    pub fn structure_builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }
}

impl Deref for Shard {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use omq_cq::ConjunctiveQuery;
    use omq_data::Schema;

    fn shard() -> Shard {
        let mut schema = Schema::new();
        schema.add_relation("R", 2).unwrap();
        Shard::new(
            Database::builder(schema)
                .fact("R", ["a", "b"])
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn each_kind_is_built_once_and_shared() {
        let query = ConjunctiveQuery::parse("q(x, y) :- R(x, y)").unwrap();
        let skeleton = PlanSkeleton::compile(&query).unwrap();
        let shard = shard();
        assert_eq!(shard.structure_builds(), 0);
        let first = Arc::clone(shard.complete_structure(&skeleton).unwrap());
        assert_eq!(shard.structure_builds(), 1);
        assert!(Arc::ptr_eq(
            &first,
            shard.complete_structure(&skeleton).unwrap()
        ));
        let prepared = Arc::clone(shard.prepared_partial(&skeleton).unwrap());
        assert!(Arc::ptr_eq(
            &prepared,
            shard.prepared_partial(&skeleton).unwrap()
        ));
        assert_eq!(shard.structure_builds(), 2);
    }

    #[test]
    fn a_failed_build_is_reported_on_every_access_and_runs_once() {
        let shard = shard();
        let failure = CoreError::Internal("no structure for this shard".to_owned());
        for _ in 0..3 {
            let got = shard.cached(&shard.complete, |_| Err(failure.clone()));
            assert_eq!(got.map(|_| ()).unwrap_err(), failure);
        }
        assert_eq!(shard.structure_builds(), 1);
        // The other kind is unaffected.
        let query = ConjunctiveQuery::parse("q(x, y) :- R(x, y)").unwrap();
        let skeleton = PlanSkeleton::compile(&query).unwrap();
        assert!(shard.prepared_partial(&skeleton).is_ok());
    }
}
