//! Shared-nothing parallel execution of a [`QueryPlan`] over packs of whole
//! Gaifman components of the database: the soundness argument, the
//! bounded-worker helper every fan-out goes through, the run split of the
//! sharded executor and the cross-shard merge.
//!
//! # Why sharding is sound
//!
//! The paper's locality property (Proposition 3.3 and Lemma A.2) makes the
//! query-directed chase of a *guarded* ontology act independently per
//! connected component of the database's Gaifman graph: every TGD trigger is
//! guarded, so all frontier values of a trigger co-occur in one fact and
//! therefore lie in a single component, and the nulls a trigger generates
//! attach below that component.  Components never merge during the chase,
//! hence
//!
//! ```text
//! ch^q_O(D)  =  ⊎_i ch^q_O(D_i)        (D_i the Gaifman components of D)
//! ```
//!
//! and chasing the components independently — on separate threads, with the
//! plan's bag-type memo shared behind a read-mostly lock — produces exactly
//! the sequential chase, partitioned.
//!
//! For a *connected* query (atoms connected via shared variables or
//! constants), every homomorphic image of the body is connected and thus
//! falls inside one component, so the answer set over `D` is the union of
//! the per-shard answer sets.
//!
//! A **nullary** atom breaks both halves.  Its fact has no value, so it is
//! in every component at once: a trigger may join `N()` with facts of any
//! component, and a rule `A(x) -> N()` lets one component's facts fire
//! another's (`N(), B(x) -> C(x)`).  No partition of the components puts
//! such a fact where every reader sees it, so a plan whose OMQ — ontology
//! or query — has a nullary atom runs as one shard.  Conversely a plan that
//! shards has no nullary atom, so no trigger and no query atom reads a
//! nullary fact, and leaving those facts out of every shard changes
//! nothing.  [`QueryPlan::shard_keys`] is the one gate: decided at compile
//! time (a connected query, no nullary atom), read by the sharded executor
//! behind [`QueryPlan::execute_tracked`] and [`QueryPlan::execute_parallel`]
//! and by the cluster coordinator, each falling back to one shard when it
//! says no.
//!
//! # Cross-shard minimality of wildcard answers
//!
//! Minimal partial answers need one extra merge step.  The preference order
//! `⪯` requires a dominating tuple to *agree on every constant position* of
//! the dominated tuple, so for an answer carrying at least one constant, all
//! of its dominators live in the same shard (constants are partitioned by
//! component) and shard-local minimality is already global.  The only
//! tuples whose minimality is a cross-shard property are the **wildcard-only
//! tuples** — `(*, …, *)` for the single-wildcard semantics and the
//! canonical wildcard-identification patterns (one per set partition of the
//! positions, a number depending only on the query arity) for
//! multi-wildcards.  The crate-private `WildcardMerge` filter takes those
//! patterns from the plan (they are compiled once, with Algorithm 2's other
//! templates, and shared by every merge of the plan),
//! parks them as they stream by, marks each pattern dominated as soon as
//! *any* emitted answer strictly dominates it, and flushes the surviving
//! ones after the shard streams are exhausted.  The bookkeeping per emitted
//! answer is bounded by the (query-constant) number of patterns, so the
//! chained enumeration keeps its constant delay.

use crate::error::CoreError;
use crate::multi_enum::{check_multi_arity, MultiEnumerator};
use crate::partial_enum::PartialEnumerator;
use crate::plan::{PreparedInstance, QueryPlan};
use crate::preprocess::PlanSkeleton;
use crate::shard::Shard;
use crate::Result;
use omq_chase::{QchasePlan, QueryDirectedChase};
use omq_data::{Answer, AnswerRef, Database, MultiTuple, PartialTuple, PartialValue};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

impl QueryPlan {
    /// [`QueryPlan::execute_tracked`] with the caller's bound on the worker
    /// count in place of the machine's CPU count: the packs are chased on
    /// `min(packs, threads)` workers, the caller being one of them (so
    /// `threads <= 1` spawns nothing).  The bound is what lets a test or an
    /// experiment drive the multi-worker path on a host pinned to one CPU;
    /// it changes nothing else — the shards, their order, the provenance and
    /// the answer sequence are those of `execute_tracked`, and the instance
    /// refreshes incrementally like one.
    ///
    /// Every evaluation mode agrees with the sequential
    /// [`QueryPlan::execute`] (see the module docs for the soundness
    /// argument and `tests/parallel_equivalence.rs` for the property tests).
    pub fn execute_parallel(
        &self,
        db: impl AsRef<Database>,
        threads: usize,
    ) -> Result<PreparedInstance> {
        self.execute_sharded(db.as_ref(), |_| threads)
    }
}

/// How many workers `pieces` independent pieces of work are spread over when
/// the caller sets no bound: as many as the machine has CPUs.  The CPUs are
/// asked about per call, and only when there is more than one piece.
pub(crate) fn available_workers(pieces: usize) -> usize {
    if pieces > 1 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        1
    }
}

/// Chases the packs `parts` of one database on `min(parts, workers)` workers
/// and returns the chases in pack order.  The packs are cut into contiguous
/// runs balanced by fact count, one [`QchasePlan::chase_many`] per run — one
/// memo snapshot, one buffer set and at most one publish per worker — so one
/// worker is one `chase_many` over all packs on the calling thread.
pub(crate) fn chase_packs(
    chase: &QchasePlan,
    parts: Vec<Database>,
    workers: usize,
) -> Result<Vec<QueryDirectedChase>> {
    let workers = workers.min(parts.len());
    if workers <= 1 {
        return Ok(chase.chase_many(parts)?);
    }
    // A pack joins the run its first fact falls into when the facts are cut
    // into `workers` equal stretches.  Each run sits behind a mutex so that
    // the one worker claiming its index can take it by value.
    let total: usize = parts.iter().map(Database::len).sum();
    let mut runs: Vec<Mutex<Vec<Database>>> = (0..workers).map(|_| Mutex::default()).collect();
    let mut before = 0usize;
    for part in parts {
        let run = (before * workers / total.max(1)).min(workers - 1);
        before += part.len();
        runs[run].get_mut().expect("unshared").push(part);
    }
    let chased = map_bounded(workers, workers, |idx| {
        chase.chase_many(std::mem::take(&mut *runs[idx].lock().expect("locked once")))
    })?;
    Ok(chased.into_iter().flatten().collect())
}

/// Applies `f` to every index in `0..n` on `min(n, max_workers)` workers and
/// returns the results in index order, or the error of the lowest failing
/// index.  The workers are scoped threads claiming indices off a shared
/// cursor, the caller being one of them — so one worker means **no thread at
/// all**: the indices are mapped inline.  This is the one fan-out of the
/// in-process stack: shard chases, shard counts and `omq-serve`'s request
/// batches all go through it.
pub fn map_bounded<R: Send, E: Send>(
    n: usize,
    max_workers: usize,
    f: impl Fn(usize) -> std::result::Result<R, E> + Sync,
) -> std::result::Result<Vec<R>, E> {
    let workers = max_workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // `Relaxed`: the cursor only hands out indices; the results reach the
    // caller through `join`.
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut local = Vec::new();
        loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            if idx >= n {
                return local;
            }
            local.push((idx, f(idx)));
        }
    };
    let mut slots: Vec<Option<std::result::Result<R, E>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut claimed = claim();
        for handle in spawned {
            claimed.extend(handle.join().expect("shard worker panicked"));
        }
        for (idx, result) in claimed {
            slots[idx] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed exactly once"))
        .collect()
}

/// One of the two wildcard answer kinds: the tuple that flows through the
/// cross-shard merge, together with the shard enumerator producing it — what
/// the stream's wildcard batch loop and `PreparedInstance::count` are
/// generic over.
pub(crate) trait MergeTuple: Clone + PartialEq + Send + Sync {
    /// The per-shard enumerator yielding tuples of this kind.
    type Cursor;
    /// Every wildcard-only tuple of the plan's arity, i.e. the patterns
    /// whose minimality is a cross-shard property.  Fails, before building
    /// anything, when the semantics is not served at that arity.
    fn wildcard_only(skeleton: &PlanSkeleton) -> Result<Arc<[Self]>>;
    /// `true` iff the tuple carries no constant (its minimality is a
    /// cross-shard property).
    fn constant_free(&self) -> bool;
    /// The strict preference order `≺`: `self` carries strictly more
    /// information than `other`.
    fn dominates(&self, other: &Self) -> bool;
    /// Opens a cursor over the shard's prepared half of Algorithm 1, which
    /// the shard builds on first use (linear in its chase) and keeps.
    fn open(skeleton: &PlanSkeleton, shard: &Arc<Shard>) -> Result<Self::Cursor>;
    /// Batched pull of up to `limit` borrowed tuples, allocation-free per
    /// tuple; fewer means the cursor ended (check [`MergeTuple::error`]).
    fn fill_ref(cursor: &mut Self::Cursor, limit: usize, emit: impl FnMut(&Self)) -> usize;
    /// The error that ended the cursor early, if any.
    fn error(cursor: &Self::Cursor) -> Option<&CoreError>;
    /// The tuple inside an answer of this kind; `None` for an answer of
    /// another semantics.
    fn from_answer(answer: Answer) -> Option<Self>;
    /// The tuple as a borrowed answer.
    fn answer_ref(&self) -> AnswerRef<'_>;
}

impl MergeTuple for PartialTuple {
    type Cursor = PartialEnumerator;
    /// The only wildcard-only tuple of arity `n` is `(*, …, *)`.
    fn wildcard_only(skeleton: &PlanSkeleton) -> Result<Arc<[Self]>> {
        let arity = skeleton.answer_positions.len();
        Ok(Arc::new([PartialTuple(vec![PartialValue::Star; arity])]))
    }
    fn constant_free(&self) -> bool {
        self.0.iter().all(|v| v.is_star())
    }
    fn dominates(&self, other: &Self) -> bool {
        self.preferred_lt(other)
    }
    fn open(skeleton: &PlanSkeleton, shard: &Arc<Shard>) -> Result<Self::Cursor> {
        let prepared = shard.prepared_partial(skeleton)?;
        Ok(PartialEnumerator::open(Arc::clone(prepared)))
    }
    fn fill_ref(cursor: &mut Self::Cursor, limit: usize, emit: impl FnMut(&Self)) -> usize {
        cursor.fill_ref(limit, emit)
    }
    fn error(_: &Self::Cursor) -> Option<&CoreError> {
        None
    }
    fn from_answer(answer: Answer) -> Option<Self> {
        match answer {
            Answer::Partial(t) => Some(t),
            _ => None,
        }
    }
    fn answer_ref(&self) -> AnswerRef<'_> {
        AnswerRef::Partial(&self.0)
    }
}

impl MergeTuple for MultiTuple {
    type Cursor = MultiEnumerator;
    /// One pattern per way of identifying wildcards across the positions
    /// (the multi-wildcard ball of `(*, …, *)`, one canonical tuple per set
    /// partition), from the plan's templates.
    fn wildcard_only(skeleton: &PlanSkeleton) -> Result<Arc<[Self]>> {
        check_multi_arity(skeleton.answer_positions.len())?;
        Ok(skeleton.multi_templates().merge_patterns())
    }
    fn constant_free(&self) -> bool {
        self.0.iter().all(|v| v.is_wild())
    }
    fn dominates(&self, other: &Self) -> bool {
        self.preferred_lt(other)
    }
    fn open(skeleton: &PlanSkeleton, shard: &Arc<Shard>) -> Result<Self::Cursor> {
        MultiEnumerator::open(skeleton, shard)
    }
    fn fill_ref(cursor: &mut Self::Cursor, limit: usize, emit: impl FnMut(&Self)) -> usize {
        cursor.fill_ref(limit, emit)
    }
    fn error(cursor: &Self::Cursor) -> Option<&CoreError> {
        cursor.error()
    }
    fn from_answer(answer: Answer) -> Option<Self> {
        match answer {
            Answer::Multi(t) => Some(t),
            _ => None,
        }
    }
    fn answer_ref(&self) -> AnswerRef<'_> {
        AnswerRef::Multi(&self.0)
    }
}

/// What the merge knows about one wildcard-only pattern.
#[derive(Debug, Clone, Copy, Default)]
struct PatternState {
    /// Some shard emitted this exact tuple as a shard-minimal answer.
    seen: bool,
    /// Some answer (from any shard) strictly dominates the tuple, so it is
    /// not globally minimal.
    dominated: bool,
}

/// The cross-shard minimality filter for chained shard enumerations.
///
/// Show every per-shard minimal answer to [`WildcardMerge::observe`]:
/// answers with constants pass immediately (their shard-local minimality is
/// global — see the module docs), wildcard-only answers are parked against
/// the plan's pattern list.  [`WildcardMerge::flush`] then releases the
/// wildcard-only tuples that were produced by some shard and dominated by
/// no answer.
#[derive(Debug)]
pub(crate) struct WildcardMerge<T> {
    /// [`MergeTuple::wildcard_only`] of the plan, shared.
    patterns: Arc<[T]>,
    /// One entry per pattern.
    state: Vec<PatternState>,
}

impl<T: MergeTuple> WildcardMerge<T> {
    /// Fresh merge state over the wildcard-only tuples of a plan.
    pub(crate) fn new(patterns: Arc<[T]>) -> Self {
        WildcardMerge {
            state: vec![PatternState::default(); patterns.len()],
            patterns,
        }
    }

    /// The globally minimal wildcard-only answers (produced by some shard,
    /// dominated by none): ask once every shard's answers were observed.
    pub(crate) fn flush(&self) -> impl Iterator<Item = &T> {
        let survives = |(_, state): &(&T, &PatternState)| state.seen && !state.dominated;
        (self.patterns.iter().zip(&self.state))
            .filter(survives)
            .map(|(t, _)| t)
    }

    /// Updates the domination/seen state from a *borrowed* tuple and reports
    /// whether the tuple counts immediately (`true` for constant-bearing
    /// answers, whose shard-local minimality is global) or was parked
    /// against the wildcard patterns (`false`).  Parked tuples are accounted
    /// for by [`WildcardMerge::flush`] at the end.
    pub(crate) fn observe(&mut self, t: &T) -> bool {
        for (tuple, state) in self.patterns.iter().zip(&mut self.state) {
            if !state.dominated && t.dominates(tuple) {
                state.dominated = true;
            }
        }
        if t.constant_free() {
            let parked = self
                .patterns
                .iter()
                .position(|tuple| tuple == t)
                .expect("the pattern list covers every wildcard-only tuple of the arity");
            self.state[parked].seen = true;
            false
        } else {
            true
        }
    }

    /// Folds another merge of the **same plan and semantics** into this one.
    /// Both sides come from [`WildcardMerge::new`] over the same pattern
    /// list, so their states are positionally aligned; a
    /// pattern is seen (dominated) globally iff it is seen (dominated) in
    /// either side.  This is the associative combine of the embarrassingly
    /// parallel per-shard counting reduce.
    pub(crate) fn absorb(&mut self, other: Self) {
        debug_assert!(Arc::ptr_eq(&self.patterns, &other.patterns));
        for (mine, theirs) in self.state.iter_mut().zip(other.state) {
            mine.seen |= theirs.seen;
            mine.dominated |= theirs.dominated;
        }
    }
}

// `QueryPlan` and `PreparedInstance` are the artefacts shared across the
// worker threads; keep them `Send + Sync` by construction (the facade crate
// re-asserts this for the whole public surface).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryPlan>();
    assert_send_sync::<PreparedInstance>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use omq_chase::{Ontology, OntologyMediatedQuery};
    use omq_cq::ConjunctiveQuery;
    use omq_data::{ConstId, MultiValue, Schema, Semantics};
    use std::collections::BTreeSet;

    fn office_omq() -> OntologyMediatedQuery {
        let ontology = Ontology::parse(
            "Researcher(x) -> exists y. HasOffice(x, y)\n\
             HasOffice(x, y) -> Office(y)\n\
             Office(x) -> exists y. InBuilding(x, y)",
        )
        .unwrap();
        let query =
            ConjunctiveQuery::parse("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)")
                .unwrap();
        OntologyMediatedQuery::new(ontology, query).unwrap()
    }

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation("Researcher", 1).unwrap();
        s.add_relation("HasOffice", 2).unwrap();
        s.add_relation("InBuilding", 2).unwrap();
        s
    }

    /// Three components: mary's complete chain, john's office, lone mike.
    fn component_db() -> Database {
        Database::builder(schema())
            .fact("Researcher", ["mary"])
            .fact("Researcher", ["john"])
            .fact("Researcher", ["mike"])
            .fact("HasOffice", ["mary", "room1"])
            .fact("HasOffice", ["john", "room4"])
            .fact("InBuilding", ["room1", "main1"])
            .build()
            .unwrap()
    }

    fn answer_set(instance: &PreparedInstance, semantics: Semantics) -> BTreeSet<String> {
        instance
            .answers(semantics)
            .unwrap()
            .map(|a| instance.format_answer(&a))
            .collect()
    }

    fn partial_set(instance: &PreparedInstance) -> BTreeSet<String> {
        answer_set(instance, Semantics::MinimalPartial)
    }

    #[test]
    fn parallel_execution_matches_sequential_on_running_example() {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        let db = component_db();
        let sequential = plan.execute(&db).unwrap();
        for threads in [2, 3, 8] {
            let parallel = plan.execute_parallel(&db, threads).unwrap();
            assert!(parallel.shard_count() > 1);
            assert_eq!(parallel.shard_count(), parallel.stats().shards);
            assert_eq!(
                parallel.stats().chased_facts,
                sequential.stats().chased_facts
            );
            for semantics in Semantics::ALL {
                assert_eq!(
                    answer_set(&sequential, semantics),
                    answer_set(&parallel, semantics)
                );
            }
        }
    }

    #[test]
    fn all_star_answers_are_filtered_across_shards() {
        // Query answering only the building; researchers without any office
        // produce the all-star answer `(*)` in their own component.  With
        // another component holding a real building, `(*)` is dominated
        // cross-shard and must not survive the merge.
        let ontology = Ontology::parse(
            "Researcher(x) -> exists y. HasOffice(x, y)\n\
             HasOffice(x, y) -> Office(y)\n\
             Office(x) -> exists y. InBuilding(x, y)",
        )
        .unwrap();
        let query =
            ConjunctiveQuery::parse("q(x3) :- HasOffice(x1, x2), InBuilding(x2, x3)").unwrap();
        let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
        let plan = QueryPlan::compile(&omq).unwrap();
        let db = Database::builder(schema())
            .fact("Researcher", ["ada"]) // component 1: chase-only office
            .fact("Researcher", ["bob"]) // component 2: listed building
            .fact("HasOffice", ["bob", "lab"])
            .fact("InBuilding", ["lab", "west"])
            .build()
            .unwrap();
        let sequential = plan.execute(&db).unwrap();
        let parallel = plan.execute_parallel(&db, 2).unwrap();
        assert_eq!(parallel.shard_count(), 2);
        assert_eq!(partial_set(&sequential), partial_set(&parallel));
        // And the merged set is exactly {(west)} — the all-star was dropped.
        assert_eq!(
            partial_set(&parallel),
            BTreeSet::from(["(west)".to_owned()])
        );
        // With no building anywhere, the all-star is the unique minimal
        // answer and must survive (deduplicated across shards).
        let lonely = Database::builder(schema())
            .fact("Researcher", ["ada"])
            .fact("Researcher", ["bob"])
            .build()
            .unwrap();
        let sequential = plan.execute(&lonely).unwrap();
        let parallel = plan.execute_parallel(&lonely, 2).unwrap();
        assert_eq!(parallel.shard_count(), 2);
        assert_eq!(partial_set(&sequential), partial_set(&parallel));
        assert_eq!(partial_set(&parallel), BTreeSet::from(["(*)".to_owned()]));
    }

    #[test]
    fn disconnected_queries_fall_back_to_sequential() {
        let ontology = Ontology::new();
        let query = ConjunctiveQuery::parse("q(x, y) :- Researcher(x), Office(y)").unwrap();
        let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
        let plan = QueryPlan::compile(&omq).unwrap();
        let mut s = Schema::new();
        s.add_relation("Researcher", 1).unwrap();
        s.add_relation("Office", 1).unwrap();
        let db = Database::builder(s)
            .fact("Researcher", ["a"])
            .fact("Office", ["o"])
            .build()
            .unwrap();
        // Two components, but the disconnected query must not be sharded:
        // the answer (a, o) combines values from both.
        let parallel = plan.execute_parallel(&db, 4).unwrap();
        assert_eq!(parallel.shard_count(), 1);
        assert_eq!(parallel.answers(Semantics::Complete).unwrap().count(), 1);
    }

    #[test]
    fn single_shard_structure_apis_error_on_sharded_instances() {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        let parallel = plan.execute_parallel(component_db(), 2).unwrap();
        assert!(parallel.shard_count() > 1);
        assert!(matches!(
            parallel.complete_structure(),
            Err(crate::CoreError::ShardedInstance(_))
        ));
        // The shard-aware testers still work.
        assert!(parallel
            .test_complete_names(&["mary", "room1", "main1"])
            .unwrap());
        assert!(!parallel
            .test_complete_names(&["mike", "room1", "main1"])
            .unwrap());
        let mike_partial = parallel.parse_partial(&["mike", "*", "*"]).unwrap();
        assert!(parallel.test(&Answer::Partial(mike_partial)).unwrap());
    }

    #[test]
    fn map_bounded_keeps_index_order_reports_errors_and_bounds_its_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::thread::{self, ThreadId};
        let caller = thread::current().id();
        for max_workers in [1usize, 2, 3, 8, 5_000] {
            let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
            let squares = map_bounded(1_000, max_workers, |idx| {
                seen.lock().unwrap().insert(thread::current().id());
                Ok::<usize, String>(idx * idx)
            })
            .unwrap();
            assert_eq!(squares, (0..1_000).map(|i| i * i).collect::<Vec<_>>());
            let seen = seen.into_inner().unwrap();
            assert!(
                seen.len() <= max_workers.min(1_000),
                "{} threads",
                seen.len()
            );
            if max_workers == 1 {
                assert_eq!(seen, HashSet::from([caller]), "one worker runs inline");
            }
            // An error from any index comes back — the lowest failing one.
            for failing in [0usize, 499, 999] {
                let result = map_bounded(1_000, max_workers, |idx| {
                    if idx >= failing {
                        Err(format!("index {idx}"))
                    } else {
                        Ok(idx)
                    }
                });
                assert_eq!(result.unwrap_err(), format!("index {failing}"));
            }
        }
        assert!(map_bounded(0, 4, Ok::<usize, String>).unwrap().is_empty());
        // A single index never leaves the caller's thread either.
        let ids = map_bounded(1, 4, |_| Ok::<ThreadId, String>(thread::current().id()));
        assert_eq!(ids.unwrap(), vec![caller]);
    }

    #[test]
    fn wildcard_merge_multi_patterns_track_domination() {
        // Arity 2: patterns (*1,*1) and (*1,*2).
        let query = ConjunctiveQuery::parse("q(x, y) :- R(x, y)").unwrap();
        let skeleton = PlanSkeleton::compile(&query).unwrap();
        let patterns = MultiTuple::wildcard_only(&skeleton).unwrap();
        let mut merge = WildcardMerge::new(Arc::clone(&patterns));
        assert_eq!(merge.patterns.len(), 2);
        let distinct = MultiTuple(vec![MultiValue::Wild(1), MultiValue::Wild(2)]);
        let identified = MultiTuple(vec![MultiValue::Wild(1), MultiValue::Wild(1)]);
        // Shard 1 yields (*1,*2); shard 2 yields (*1,*1), which dominates it.
        // Both are parked, not passed.
        assert!(!merge.observe(&distinct));
        assert!(!merge.observe(&identified));
        assert_eq!(merge.flush().collect::<Vec<_>>(), [&identified]);
        // A constant-bearing answer passes and kills every pattern it
        // dominates, even if the pattern streams by later.
        let mut merge = WildcardMerge::new(patterns);
        let constant = MultiTuple(vec![MultiValue::Const(ConstId(0)), MultiValue::Wild(1)]);
        assert!(merge.observe(&constant));
        assert!(!merge.observe(&distinct));
        // (*1,*2) was dominated by (c0,*1); (*1,*1) was never seen.
        assert_eq!(merge.flush().count(), 0);
    }
}
