//! The compile-once/execute-many evaluation pipeline: [`QueryPlan`] and
//! [`PreparedInstance`].
//!
//! Everything the engines derive from the *query* side of an OMQ — the
//! guardedness check, the acyclicity classification, the GYO join tree and
//! reduced-relation layout ([`PlanSkeleton`]), and the query-directed chase's
//! rule-trigger tables ([`omq_chase::QchasePlan`]) — depends only on the OMQ,
//! not on the data.  A [`QueryPlan`] compiles all of it exactly once;
//! [`QueryPlan::execute`] then evaluates the plan over any number of
//! databases, each call producing a [`PreparedInstance`] that exposes every
//! evaluation mode of the paper over that database's query-directed chase.
//!
//! This is the architectural seam for serving workloads: a fixed catalogue of
//! OMQs is compiled up front, and per-request databases are only charged the
//! data-linear work (chase copy + columnar extension scans), with the chase's
//! bag-type memo amortised across requests.  One-off callers write
//! `QueryPlan::compile(&omq)?.execute(&db)?`.

use crate::all_testing::AllTester;
use crate::error::CoreError;
use crate::multi_enum::check_multi_arity;
use crate::parallel::{available_workers, chase_packs, map_bounded, MergeTuple, WildcardMerge};
use crate::preprocess::{FreeConnexStructure, PlanSkeleton};
use crate::shard::Shard;
use crate::single_testing;
use crate::stream::{AnswerStream, Shards};
use crate::Result;
use omq_chase::{OntologyMediatedQuery, QchaseConfig, QchasePlan, QueryDirectedChase};
use omq_cq::acyclicity::AcyclicityReport;
use omq_cq::ConjunctiveQuery;
use omq_data::{
    Answer, CommitReceipt, ConstId, Database, MultiTuple, PartialTuple, Semantics, Value,
};
use rustc_hash::FxHashSet;
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

/// Pull granularity of the wildcard counting loops: large enough to amortise
/// the batched-cursor dispatch, small enough to stay cache-resident.
const COUNT_BATCH: usize = 256;

/// Statistics about the preprocessing phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreprocessStats {
    /// Facts in the input database.
    pub input_facts: usize,
    /// Facts in the query-directed chase.
    pub chased_facts: usize,
    /// Wall-clock microseconds spent computing the query-directed chase.
    pub chase_micros: u128,
    /// Number of grafted null trees.
    pub grafts: usize,
    /// Bag-memoisation hits during the chase.
    pub memo_hits: usize,
    /// Work the chase spent typing bags (value-set lookups and facts read,
    /// see `QueryDirectedChase::bag_probes`): linear in `|D|` at any degree.
    pub bag_probes: usize,
    /// Number of shards the execution ran over (1 for sequential).  Every
    /// shard is a union of whole Gaifman components.
    pub shards: usize,
    /// Shards spliced in unchanged from a predecessor instance by
    /// [`PreparedInstance::refresh`] (0 for fresh executions).  Their chase
    /// output and columnar indexes were not recomputed.
    pub reused_shards: usize,
    /// Gaifman components of the input behind the shards (a nullary fact is
    /// in none): `components / shards` is how many components a shard holds
    /// on average.
    pub components: usize,
    /// Input facts this execution chased: all of them for the `execute*`
    /// entry points, the re-packed ones — the dirty components, their
    /// pack-mates and what compaction took along — for
    /// [`PreparedInstance::refresh`].  Delta-proportionality is asserted on
    /// this count, not on a clock.
    pub rechased_facts: usize,
}

#[derive(Debug)]
struct PlanInner {
    omq: OntologyMediatedQuery,
    report: AcyclicityReport,
    /// The reduced-relation layout, or why the query is not
    /// enumeration-tractable (testing modes still work).
    skeleton: Result<PlanSkeleton>,
    chase: QchasePlan,
    /// The one sharding gate, see [`QueryPlan::shard_keys`].
    may_shard: bool,
}

/// A compiled evaluation plan for one OMQ, reusable across databases.
///
/// Cheap to clone (the compiled state is shared behind an [`Arc`]).
#[derive(Debug, Clone)]
pub struct QueryPlan {
    inner: Arc<PlanInner>,
}

impl QueryPlan {
    /// Compiles a plan with the default configuration.
    ///
    /// Returns an error if the ontology is not guarded.
    pub fn compile(omq: &OntologyMediatedQuery) -> Result<QueryPlan> {
        Self::compile_with(omq, &QchaseConfig::default())
    }

    /// Compiles a plan with an explicit chase configuration.
    pub fn compile_with(omq: &OntologyMediatedQuery, config: &QchaseConfig) -> Result<QueryPlan> {
        if !omq.is_guarded() {
            return Err(CoreError::NotGuarded(
                omq.ontology()
                    .first_unguarded()
                    .map(|t| t.to_string())
                    .unwrap_or_default(),
            ));
        }
        let report = omq.classify();
        let skeleton = PlanSkeleton::compile(omq.query());
        let chase = QchasePlan::new(omq, config)?;
        let tgds = omq.ontology().tgds().iter();
        let atoms = tgds.flat_map(|t| [t.body(), t.head()]).flatten();
        let may_shard =
            omq.query().is_connected() && atoms.chain(omq.query().atoms()).all(|a| a.arity() > 0);
        Ok(QueryPlan {
            inner: Arc::new(PlanInner {
                omq: omq.clone(),
                report,
                skeleton,
                chase,
                may_shard,
            }),
        })
    }

    /// The one sharding gate: the component keys ([`Database::component_keys`])
    /// to shard `db` by, or `None` if this plan runs over `db` as one shard.
    ///
    /// A plan may shard when its query is connected and no atom of its OMQ
    /// is nullary (see the `parallel` module docs for why); that is decided
    /// once, at compile time.  A nullary fact is in no component, so a plan
    /// that shards never reads one, and a database with no component —
    /// empty, or nullary facts only — runs as one shard too.  In-process
    /// sharded execution and the cluster coordinator both read this.
    pub fn shard_keys(&self, db: &Database) -> Option<Vec<u32>> {
        let keys = self.inner.may_shard.then(|| db.component_keys())?;
        (!keys.is_empty()).then_some(keys)
    }

    /// The OMQ this plan evaluates.
    pub fn omq(&self) -> &OntologyMediatedQuery {
        &self.inner.omq
    }

    /// The acyclicity classification of the query.
    pub fn report(&self) -> &AcyclicityReport {
        &self.inner.report
    }

    /// The compiled reduced-relation layout, or an error if the query is not
    /// both acyclic and free-connex acyclic.
    pub fn skeleton(&self) -> Result<&PlanSkeleton> {
        self.inner.skeleton.as_ref().map_err(CoreError::clone)
    }

    /// The reusable query-directed chase plan.
    pub fn chase_plan(&self) -> &QchasePlan {
        &self.inner.chase
    }

    /// Executes the plan over a database: runs the linear-time preprocessing
    /// (query-directed chase, reusing the plan's memoised bag-type tables)
    /// and returns a [`PreparedInstance`] exposing every evaluation mode.
    ///
    /// Accepts anything that views a [`Database`] — `&Database` as before,
    /// or a store [`omq_data::Snapshot`] pinned at some epoch.  Snapshots of
    /// one epoch share a single database allocation, so repeated executions
    /// over them reuse the already-built columnar indexes instead of
    /// recomputing per request.
    ///
    /// For sharded, multi-core execution over component-rich databases see
    /// [`QueryPlan::execute_tracked`].
    pub fn execute(&self, db: impl AsRef<Database>) -> Result<PreparedInstance> {
        let db = db.as_ref();
        let start = Instant::now();
        let chased = self.inner.chase.chase(db)?;
        self.assemble(db, db.len(), start, vec![chased], Vec::new(), None)
    }

    /// Like [`QueryPlan::execute`], but shards the database into **packs**
    /// — unions of whole Gaifman components holding at most 64 input facts,
    /// a larger component being a pack of its own
    /// ([`Database::pack_components`] at [`Database::pack_capacity`]) —
    /// chases the packs on at most as many workers as the machine has CPUs
    /// (on the calling thread alone when that is one) and records each
    /// pack's stable component keys as *provenance*, enabling incremental
    /// maintenance via [`PreparedInstance::refresh`]: after a store commit,
    /// only the packs the commit touched are re-chased, and every untouched
    /// shard is spliced into the refreshed instance unchanged.  The number
    /// of shards is thereby bounded by the data's size, not by its component
    /// count, and a database of fewer than sixteen facts keeps one shard per
    /// component.  The shards, their order and the answer sequence are a
    /// function of the database alone, whatever the worker count.
    ///
    /// Sharding is only sound for a connected query over an OMQ with no
    /// nullary atom (see the `parallel` module docs); for any other plan —
    /// or a database with no component to key — this falls back to the
    /// sequential [`QueryPlan::execute`] (see [`QueryPlan::shard_keys`]) and
    /// the resulting instance carries no provenance, so `refresh` on it
    /// degrades to a full re-execution (still tracked, so the *next* refresh
    /// is incremental again when possible).
    pub fn execute_tracked(&self, db: impl AsRef<Database>) -> Result<PreparedInstance> {
        self.execute_sharded(db.as_ref(), available_workers)
    }

    /// The one sharded executor behind [`QueryPlan::execute_tracked`] and
    /// [`QueryPlan::execute_parallel`]: pack, chase the packs on
    /// `workers(packs)` bounded workers, record provenance, assemble.
    pub(crate) fn execute_sharded(
        &self,
        db: &Database,
        workers: impl FnOnce(usize) -> usize,
    ) -> Result<PreparedInstance> {
        let Some(keys) = self.shard_keys(db) else {
            return self.execute(db);
        };
        let start = Instant::now();
        let mut provenance = Provenance::new(db);
        let parts = provenance.pack(db, &keys);
        let workers = workers(parts.len());
        let chased = chase_packs(&self.inner.chase, parts, workers)?;
        self.assemble(db, db.len(), start, chased, Vec::new(), Some(provenance))
    }

    /// The one assembly point behind [`QueryPlan::execute`], the sharded
    /// executor and [`PreparedInstance::refresh`]: folds the per-part chase
    /// statistics, puts every freshly chased part behind its own [`Arc`]'d
    /// [`Shard`] — fresh shards lead, `reused` ones follow, with whatever
    /// structures they have built — and attaches the provenance.
    /// `rechased_facts` is how many of `db`'s facts went into `fresh`.
    pub(crate) fn assemble(
        &self,
        db: &Database,
        rechased_facts: usize,
        started: Instant,
        fresh: Vec<QueryDirectedChase>,
        reused: Vec<Arc<Shard>>,
        provenance: Option<Provenance>,
    ) -> Result<PreparedInstance> {
        let mut stats = PreprocessStats {
            input_facts: db.len(),
            reused_shards: reused.len(),
            components: match &provenance {
                Some(prov) => prov.keys.len(),
                None => db.component_count(),
            },
            rechased_facts,
            ..PreprocessStats::default()
        };
        let mut shards = Vec::with_capacity(fresh.len() + reused.len());
        for part in fresh {
            stats.chased_facts += part.database.len();
            stats.grafts += part.grafts;
            stats.memo_hits += part.memo_hits;
            stats.bag_probes += part.bag_probes;
            shards.push(Arc::new(Shard::new(part.database)));
        }
        for shard in reused {
            stats.chased_facts += shard.len();
            shards.push(shard);
        }
        debug_assert!(!shards.is_empty());
        stats.shards = shards.len();
        stats.chase_micros = started.elapsed().as_micros();
        Ok(PreparedInstance {
            plan: self.clone(),
            shards: Arc::new(shards),
            stats,
            provenance: provenance.map(Arc::new),
        })
    }
}

/// Where a tracked instance's shards came from: the source database's
/// revision and, per shard, the stable keys of the components packed into
/// it.  [`PreparedInstance::refresh`] re-canonicalises these keys against
/// the refreshed database's component partition to decide which shards can
/// be reused.
#[derive(Debug, Clone)]
pub(crate) struct Provenance {
    /// `Database::revision` of the source at execution time.
    source_revision: u64,
    /// Number of schema relations at execution time; a schema that grew in
    /// the meantime (e.g. `add_relation` in a later transaction) invalidates
    /// the chase outputs' relation-id layout.
    schema_len: usize,
    /// The component keys (canonical component roots) of every shard, shard
    /// after shard.
    keys: Vec<u32>,
    /// Shard `i` holds the components `keys[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Input facts per shard — what compaction sizes a shard by.
    facts: Vec<usize>,
}

impl Provenance {
    /// The provenance of no shards yet, over `db`.
    fn new(db: &Database) -> Self {
        Provenance {
            source_revision: db.revision(),
            schema_len: db.schema().len(),
            keys: Vec::new(),
            offsets: vec![0],
            facts: Vec::new(),
        }
    }

    /// Number of shards recorded.
    fn shards(&self) -> usize {
        self.facts.len()
    }

    /// Where the component keys of shard `idx` lie in `keys`.
    fn range(&self, idx: usize) -> std::ops::Range<usize> {
        self.offsets[idx]..self.offsets[idx + 1]
    }

    /// Records one shard of `facts` input facts holding the components
    /// `members`.
    fn push(&mut self, members: &[u32], facts: usize) {
        self.keys.extend_from_slice(members);
        self.offsets.push(self.keys.len());
        self.facts.push(facts);
    }

    /// Packs the components `keys` of `db` (canonical-root order) by
    /// [`Database::pack_components`], records the packs as the next shards
    /// and returns their extracted databases, ready to chase.
    fn pack(&mut self, db: &Database, keys: &[u32]) -> Vec<Database> {
        let offsets = db.pack_components(keys, db.pack_capacity());
        let mut parts = Vec::with_capacity(offsets.len() - 1);
        for pack in offsets.windows(2) {
            let members = &keys[pack[0]..pack[1]];
            let part = db.pack_database(members);
            self.push(members, part.len());
            parts.push(part);
        }
        parts
    }
}

/// A plan executed over one database: the query-directed chase `ch^q_O(D)`
/// plus every evaluation mode of the paper over it.
///
/// A sequential [`QueryPlan::execute`] produces exactly one *shard* (the
/// whole chase); [`QueryPlan::execute_tracked`] and
/// [`QueryPlan::execute_parallel`] produce one per pack of at most 64 input
/// facts — every shard a union of whole Gaifman components, chased
/// independently.  The unified cursor
/// ([`PreparedInstance::answers`]) and the testers are shard-aware and agree
/// with the sequential result (see `crate::parallel` for why sharding is
/// sound); the structure-level accessors
/// ([`PreparedInstance::complete_structure`] and friends) expose a single
/// chased database and therefore require a single-shard instance.
#[derive(Debug)]
pub struct PreparedInstance {
    plan: QueryPlan,
    /// The chased database(s), one per shard, each with the enumeration
    /// structures built over it so far; never empty.  The vector is shared
    /// behind an [`Arc`] so that [`AnswerStream`]s own the data they
    /// enumerate and can outlive the instance; each *shard* is additionally
    /// its own [`Arc`] so that [`PreparedInstance::refresh`] can splice
    /// untouched shards — chase output, columnar indexes, enumeration
    /// structures and all — into a successor instance without copying a
    /// fact.
    shards: Arc<Vec<Arc<Shard>>>,
    stats: PreprocessStats,
    /// Component keys of every shard, present iff the instance was produced
    /// by the sharded executor ([`QueryPlan::execute_tracked`],
    /// [`QueryPlan::execute_parallel`]) or a refresh thereof.
    provenance: Option<Arc<Provenance>>,
}

impl PreparedInstance {
    /// The plan this instance was produced by.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// The OMQ being evaluated.
    pub fn omq(&self) -> &OntologyMediatedQuery {
        self.plan.omq()
    }

    /// The query-directed chase `ch^q_O(D)` the instance evaluates over.
    ///
    /// For sharded instances this is the *first* shard only; use
    /// [`PreparedInstance::shards`] to see all of them.
    pub fn chased_database(&self) -> &Database {
        &self.shards[0]
    }

    /// The chased shard databases (exactly one for sequential executions).
    ///
    /// Shards share one constant-interner snapshot (constant ids coincide
    /// everywhere), but **labelled nulls are shard-local**: independently
    /// chased shards mint `NullId`s from the same counter, so equal ids in
    /// different shards denote *different* nulls.  Do not union shard fact
    /// sets naively — remap each shard's nulls into a disjoint range first
    /// (e.g. via [`Database::null_counter`] offsets).  The answer semantics
    /// are unaffected: no enumerator or tester ever exposes a raw null.
    ///
    /// Each shard sits behind its own [`Arc`]: instances produced by
    /// [`PreparedInstance::refresh`] share the untouched shards of their
    /// predecessor by pointer (observable via [`Arc::ptr_eq`]).  A [`Shard`]
    /// dereferences to its [`Database`] and carries the enumeration
    /// structures built over it, so a shared shard is also a shared cache.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// How many enumeration-structure builds have run over the shards of
    /// this instance — by it, by a predecessor it inherited the shard from,
    /// or by a stream either handed out.  Every shard builds each of its two
    /// kinds (the join structure for complete answers, Algorithm 1's
    /// prepared half for the wildcard semantics) at most once, on first use:
    /// the number is `0` after an execution, at most `2 × shards` ever, and
    /// does not move when a cursor is opened, a count taken or an `exists`
    /// asked a second time.  The per-layer accessors
    /// ([`PreparedInstance::complete_structure`] and friends) build afresh
    /// and are not counted.
    pub fn structure_builds(&self) -> usize {
        self.shards.iter().map(|s| s.structure_builds()).sum()
    }

    /// Number of shards of this instance.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The database used for symbol resolution and formatting.  All shards
    /// share one interner snapshot, so any of them resolves every constant.
    fn symbols(&self) -> &Database {
        &self.shards[0]
    }

    /// The sole shard, or an error naming the single-shard-only operation.
    fn single_shard(&self, op: &str) -> Result<&Arc<Shard>> {
        match self.shards.as_slice() {
            [single] => Ok(single),
            _ => Err(CoreError::ShardedInstance(op.to_owned())),
        }
    }

    /// Incrementally re-executes the plan after a store commit, reusing
    /// every shard the commit did not touch.
    ///
    /// `db` is the store's head *after* the commit and `receipt` the
    /// [`CommitReceipt`] that commit returned.  The dirty components are read
    /// off the receipt's delta window (`db.facts()[receipt.base_facts..]`);
    /// a shard (a pack of whole components) is dirty iff one of its
    /// components is.  The components of the dirty shards, together with the
    /// brand-new ones, are packed again against `db` and re-chased (sharing
    /// the plan's bag-type memo), and the remaining shards of `self` are
    /// spliced into the new instance by [`Arc`]-clone — their chase output,
    /// columnar indexes and the enumeration structures already built over
    /// them are not recomputed ([`PreprocessStats::reused_shards`] counts
    /// them; [`PreparedInstance::structure_builds`] does not move for
    /// them).  A commit that
    /// merges two components is no exception: both their shards are dirty,
    /// the merged component is chased once.  The freshly chased shards are
    /// ordered *first*, so the time to the first answer of a post-refresh
    /// [`PreparedInstance::answers`] stream scales with the delta's chase,
    /// not with `|D|`.  A nullary delta fact is in no component and dirties
    /// no shard: a plan that shards has no nullary atom to read it.
    ///
    /// What is re-chased ([`PreprocessStats::rechased_facts`]) is, per dirty
    /// component, at most the larger of the component and one pack's
    /// capacity (its pack-mates), plus the delta.  So that a stream of small
    /// commits does not fragment the instance into ever more small shards, a
    /// refresh whose re-chase is below one pack's capacity also takes along
    /// clean shards of under half the capacity while the total stays within
    /// it — at most one pack's worth of extra chase, after which either the
    /// new shard holds at least half the capacity or no other shard that
    /// small is left.
    ///
    /// Falls back to a full (tracked) re-execution whenever incremental
    /// maintenance would be unsound or the lineage cannot be verified:
    ///
    /// * `self` carries no provenance (sequential execution, a plan that
    ///   may not shard, or a source database with no component);
    /// * the commit added relation symbols, or the schema length changed
    ///   (chase outputs bake in relation ids);
    /// * the receipt does not chain `self`'s source revision to `db`'s
    ///   current revision (a commit was skipped, or `db` mutated since).
    ///
    /// The fallback is transparent: the result is always answer-equivalent
    /// to `self.plan().execute(db)` (property-tested in
    /// `tests/incremental_maintenance.rs`).
    ///
    /// # Errors
    ///
    /// Besides chase errors, surfaces [`omq_data::DataError::StaleIndex`]
    /// (as `CoreError::Data`) if a shard selected for reuse carries a
    /// columnar index that no longer matches the shard's revision — a bug
    /// guard; shards are immutable once published.
    pub fn refresh(
        &self,
        db: impl AsRef<Database>,
        receipt: &CommitReceipt,
    ) -> Result<PreparedInstance> {
        let db = db.as_ref();
        let Some(prov) = &self.provenance else {
            return self.plan.execute_tracked(db);
        };
        if receipt.new_relations > 0
            || prov.source_revision != receipt.base_revision
            || db.revision() != receipt.revision
            || db.schema().len() != prov.schema_len
            || receipt.base_facts > db.len()
            || prov.shards() != self.shards.len()
        {
            return self.plan.execute_tracked(db);
        }
        let start = Instant::now();
        // Dirty set: the keys of the components the delta facts landed in,
        // under the *new* head's partition.  A nullary fact is in no
        // component, and no atom of a plan that shards reads one.
        let mut dirty: FxHashSet<u32> = FxHashSet::default();
        let delta = &db.facts()[receipt.base_facts..];
        for &v in delta.iter().filter_map(|f| f.args.first()) {
            // A fact argument always has a component root; treat a miss as
            // lineage corruption and rebuild.
            let Some(root) = db.component_root(v) else {
                return self.plan.execute_tracked(db);
            };
            dirty.insert(root);
        }
        if dirty.is_empty() {
            // Nothing the plan reads changed: share every shard.
            let mut stats = self.stats;
            stats.input_facts = db.len();
            stats.chase_micros = 0;
            stats.reused_shards = self.shards.len();
            stats.rechased_facts = 0;
            let provenance = Provenance {
                source_revision: db.revision(),
                ..Provenance::clone(prov)
            };
            return Ok(PreparedInstance {
                plan: self.plan.clone(),
                shards: Arc::clone(&self.shards),
                stats,
                provenance: Some(Arc::new(provenance)),
            });
        }
        // Re-canonicalise every old component key against the new partition:
        // components a delta fact bridged collapse onto one (dirty) root.
        let roots: Option<Vec<u32>> = prov
            .keys
            .iter()
            .map(|&old_root| db.component_root_of_code(old_root))
            .collect();
        let Some(roots) = roots else {
            return self.plan.execute_tracked(db);
        };
        // What to chase again: the dirty keys — those no shard owns are
        // brand-new components — and every pack-mate of one, in canonical
        // root order and without the duplicates a merge leaves.
        let mut rechase: BTreeSet<u32> = dirty.iter().copied().collect();
        let mut clean: Vec<usize> = Vec::with_capacity(prov.shards());
        for idx in 0..prov.shards() {
            let members = &roots[prov.range(idx)];
            if members.iter().any(|key| dirty.contains(key)) {
                rechase.extend(members);
            } else {
                clean.push(idx);
            }
        }
        // Local compaction: a re-chase that leaves room in its pack fills it
        // with clean shards of under half the capacity, so that small shards
        // do not pile up under a stream of small commits.
        let capacity = db.pack_capacity();
        let mut load: usize = rechase.iter().map(|&key| db.component_len(key)).sum();
        if load < capacity {
            clean.retain(|&idx| {
                let facts = prov.facts[idx];
                let fits = 2 * facts < capacity && load + facts <= capacity;
                if fits {
                    load += facts;
                    rechase.extend(&roots[prov.range(idx)]);
                }
                !fits
            });
        }
        // Pack and re-chase them from the new head.  Each extracted pack
        // carries *all* facts of its components (old and new), so grown,
        // merged and brand-new components are handled uniformly.
        let keys: Vec<u32> = rechase.into_iter().collect();
        let mut provenance = Provenance::new(db);
        let parts = provenance.pack(db, &keys);
        let chased = self.plan.chase_plan().chase_many(parts)?;
        // Fresh shards first: they derive from the new head (so the symbol
        // shard resolves every constant, including ones this commit minted)
        // and they are delta-sized, which is what makes post-refresh
        // time-to-first-answer proportional to the delta.  Then the
        // untouched shards of the predecessor, spliced by pointer.
        let mut reused: Vec<Arc<Shard>> = Vec::with_capacity(clean.len());
        for idx in clean {
            let shard = &self.shards[idx];
            shard.verify_columnar()?;
            reused.push(Arc::clone(shard));
            provenance.push(&roots[prov.range(idx)], prov.facts[idx]);
        }
        self.plan
            .assemble(db, load, start, chased, reused, Some(provenance))
    }

    /// Preprocessing statistics of this execution.
    pub fn stats(&self) -> &PreprocessStats {
        &self.stats
    }

    // ------------------------------------------------------------------
    // The unified answer cursor.
    // ------------------------------------------------------------------

    /// Returns the lazy answer cursor for `semantics` — the engine's one
    /// enumeration entry point (Theorems 4.1(1), 5.2 and 6.1 of the paper).
    ///
    /// The call itself only checks the tractability gate.  The stream opens
    /// a cursor over a shard when it reaches it; the first cursor of a kind
    /// over a shard runs that shard's enumeration preprocessing (linear in
    /// its chase) and leaves the structure with the shard, so every later
    /// cursor, `count` and `exists` — of this instance or of a
    /// [`PreparedInstance::refresh`] successor that reuses the shard —
    /// starts from it.  After that, `next()` is constant work, so
    /// `answers(sem)?.take(k)` costs `O(k)` beyond preprocessing — the
    /// complexity guarantee the paper is about, surfaced as an API.  The
    /// stream owns shared handles to the plan and the shards: it may outlive
    /// this instance, be parked between requests (resumable pagination), or
    /// be dropped mid-way.
    ///
    /// On sharded instances the per-shard streams are chained and the
    /// cross-shard minimality filter for wildcard-only answers plus the
    /// Boolean empty-tuple dedup run inside the cursor, so sequential and
    /// parallel executions agree (see the `parallel` module docs).
    pub fn answers(&self, semantics: Semantics) -> Result<AnswerStream> {
        let shards = Shards::Local {
            shards: Arc::clone(self.shared_shards()),
            next: 0,
        };
        AnswerStream::chain(&self.plan, semantics, shards)
    }

    /// Streams the answers of `semantics` to `f` with `ControlFlow`-style
    /// early exit; returns the number of answers delivered (including the
    /// one `f` broke on).  Convenience wrapper over
    /// [`PreparedInstance::answers`] for callback-shaped callers.
    pub fn for_each_answer(
        &self,
        semantics: Semantics,
        mut f: impl FnMut(Answer) -> ControlFlow<()>,
    ) -> Result<usize> {
        let mut stream = self.answers(semantics)?;
        let mut delivered = 0usize;
        for answer in &mut stream {
            delivered += 1;
            if f(answer).is_break() {
                return Ok(delivered);
            }
        }
        match stream.error() {
            Some(e) => Err(e.clone()),
            None => Ok(delivered),
        }
    }

    /// Single-tests an answer of any semantics (Theorem 3.1), shard-aware:
    /// the one testing entry point matching [`PreparedInstance::answers`].
    pub fn test(&self, answer: &Answer) -> Result<bool> {
        match answer {
            Answer::Complete(tuple) => {
                let values: Vec<Value> = tuple.iter().map(|&c| Value::Const(c)).collect();
                for shard in self.shards.iter() {
                    if single_testing::test_complete(self.omq().query(), shard, &values)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Answer::Partial(t) => {
                self.test_wildcard(t, answer, single_testing::test_minimal_partial)
            }
            Answer::Multi(t) => {
                self.test_wildcard(t, answer, single_testing::test_minimal_partial_multi)
            }
        }
    }

    /// Shard-aware single-testing of a minimal partial answer of either
    /// wildcard kind (`answer` is `candidate` in its [`Answer`] form): a
    /// candidate carrying at least one constant is an answer only in the
    /// shard owning its constants, and every tuple dominating it shares
    /// those constants, so the shard-local test is exact.  A wildcard-only
    /// candidate's minimality is a cross-shard property; it is resolved
    /// against the merged enumeration (constant-many candidates exist, so
    /// this stays cheap relative to an enumeration pass).
    fn test_wildcard<T: MergeTuple>(
        &self,
        candidate: &T,
        answer: &Answer,
        test: impl Fn(&ConjunctiveQuery, &Database, &T) -> Result<bool>,
    ) -> Result<bool> {
        let query = self.omq().query();
        if let [shard] = self.shards.as_slice() {
            return test(query, shard, candidate);
        }
        if !candidate.constant_free() {
            for shard in self.shards.iter() {
                if test(query, shard, candidate)? {
                    return Ok(true);
                }
            }
            return Ok(false);
        }
        let mut found = false;
        self.for_each_answer(answer.semantics(), |streamed| {
            if streamed == *answer {
                found = true;
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })?;
        Ok(found)
    }

    /// The shard vector behind this instance, shared with the answer
    /// streams it produces.
    pub(crate) fn shared_shards(&self) -> &Arc<Vec<Arc<Shard>>> {
        &self.shards
    }

    // ------------------------------------------------------------------
    // Aggregate fast paths: count and exists without materialisation.
    // ------------------------------------------------------------------

    /// Counts the answers of `semantics` **without materialising a single
    /// [`Answer`] tuple** — always equal to `answers(semantics)?.count()`,
    /// but structurally cheaper:
    ///
    /// * complete answers are counted by the prefix walk of
    ///   [`crate::enumerate::count_answers`], which folds the deepest
    ///   enumeration level into CSR fan-out sums instead of visiting it;
    /// * wildcard semantics drive the shard enumerators through their
    ///   allocation-free batched pulls and feed a borrowed-tuple minimality
    ///   filter ([`crate::parallel`]), so constant-bearing answers are
    ///   counted in place and only the wildcard-only patterns are tracked;
    /// * shards are counted independently and reduced (count is associative
    ///   — the embarrassingly parallel half of the sharded execution), on
    ///   at most as many threads as the machine has CPUs and on the
    ///   caller's alone when that is one.
    pub fn count(&self, semantics: Semantics) -> Result<u64> {
        let skeleton = self.plan.skeleton()?;
        match semantics {
            Semantics::Complete => {
                let counts = self.map_shards(|idx| {
                    let structure = self.shards[idx].complete_structure(skeleton)?;
                    Ok(crate::enumerate::count_answers(structure))
                })?;
                if skeleton.boolean {
                    // The stream dedups the Boolean empty tuple across
                    // shards: the query is satisfiable, or it is not.
                    Ok(u64::from(counts.iter().any(|&c| c > 0)))
                } else {
                    Ok(counts.iter().sum())
                }
            }
            Semantics::MinimalPartial => self.count_wildcard::<PartialTuple>(skeleton),
            Semantics::MinimalPartialMulti => self.count_wildcard::<MultiTuple>(skeleton),
        }
    }

    /// The wildcard arm of [`PreparedInstance::count`], generic over the
    /// tuple kind: per shard, drain the enumerator in borrowed batches
    /// through a [`WildcardMerge`], then reduce the per-shard merges.
    fn count_wildcard<T: MergeTuple>(&self, skeleton: &PlanSkeleton) -> Result<u64> {
        let patterns = T::wildcard_only(skeleton)?;
        let parts = self.map_shards(|idx| {
            let mut cursor = T::open(skeleton, &self.shards[idx])?;
            let mut merge = WildcardMerge::new(Arc::clone(&patterns));
            let mut counted = 0u64;
            loop {
                let got = T::fill_ref(&mut cursor, COUNT_BATCH, |t| {
                    counted += u64::from(merge.observe(t));
                });
                if got < COUNT_BATCH {
                    break;
                }
            }
            if let Some(e) = T::error(&cursor) {
                return Err(e.clone());
            }
            Ok((counted, merge))
        })?;
        let mut total = 0u64;
        let mut merge = WildcardMerge::new(patterns);
        for (counted, shard_merge) in parts {
            total += counted;
            merge.absorb(shard_merge);
        }
        Ok(total + merge.flush().count() as u64)
    }

    /// Emptiness probe for `semantics` — always equal to
    /// `answers(semantics)?.next().is_some()`, without materialising any
    /// answer and without running the wildcard enumeration at all, on the
    /// structures the shards keep (built here for the shards visited, if no
    /// cursor or count has built them yet):
    ///
    /// * complete answers need one cursor descent per shard (first hit
    ///   wins);
    /// * for the wildcard semantics a non-empty enumeration structure
    ///   already guarantees an answer (Lemma 5.4's progress invariant), and
    ///   the cross-shard minimality filter only ever replaces answers with
    ///   dominating ones, so it cannot empty a non-empty union;
    /// * a query too wide for Algorithm 2 is refused for the multi-wildcard
    ///   semantics before any shard is visited, as `answers` and `count`
    ///   refuse it.
    pub fn exists(&self, semantics: Semantics) -> Result<bool> {
        let skeleton = self.plan.skeleton()?;
        if semantics == Semantics::MinimalPartialMulti {
            check_multi_arity(skeleton.answer_positions.len())?;
        }
        for shard in self.shards.iter() {
            let found = match semantics {
                Semantics::Complete => {
                    crate::enumerate::has_answer(shard.complete_structure(skeleton)?)
                }
                Semantics::MinimalPartial | Semantics::MinimalPartialMulti => {
                    !shard.prepared_partial(skeleton)?.is_empty()
                }
            };
            if found {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Applies `f` to every shard index — the map half of the aggregate
    /// reduces above — on at most as many workers as the machine has CPUs,
    /// and inline on one.
    fn map_shards<R: Send>(&self, f: impl Fn(usize) -> Result<R> + Sync) -> Result<Vec<R>> {
        let shards = self.shards.len();
        map_bounded(shards, available_workers(shards), f)
    }

    // ------------------------------------------------------------------
    // Enumeration structures (single-shard, structure-level access).
    // ------------------------------------------------------------------

    /// Builds the constant-delay enumeration structure for complete answers
    /// (Theorem 4.1(1)) — afresh on every call; the copy the shard keeps for
    /// `answers`, `count` and `exists` is neither read nor filled.  Requires
    /// the query to be acyclic and free-connex acyclic, and the instance to
    /// be single-shard.
    pub fn complete_structure(&self) -> Result<FreeConnexStructure> {
        let shard = self.single_shard("complete_structure")?;
        FreeConnexStructure::materialize(self.plan.skeleton()?, shard, true)
    }

    /// Builds the enumeration structure for partial answers (labelled nulls
    /// kept), the one Algorithm 1's preprocessing starts from — afresh on
    /// every call.  Single-shard instances only.
    pub fn partial_structure(&self) -> Result<FreeConnexStructure> {
        let shard = self.single_shard("partial_structure")?;
        FreeConnexStructure::materialize(self.plan.skeleton()?, shard, false)
    }

    /// Enumerates the minimal partial answers with all complete answers first
    /// (Proposition 2.1): the answers of `answers(MinimalPartial)`, stably
    /// partitioned so the complete ones lead.  This ordering guarantee is not
    /// expressible as a plain [`Semantics`]; the method materialises the full
    /// answer set by construction.
    pub fn enumerate_minimal_partial_complete_first(&self) -> Result<Vec<Answer>> {
        let merged = self.answers(Semantics::MinimalPartial)?.try_collect()?;
        let (complete, partial): (Vec<_>, Vec<_>) =
            merged.into_iter().partition(Answer::is_complete);
        Ok(complete.into_iter().chain(partial).collect())
    }

    // ------------------------------------------------------------------
    // Testing.
    // ------------------------------------------------------------------

    /// Builds the all-tester for complete answers (Theorem 4.1(2)) — afresh
    /// on every call; requires the query to be free-connex acyclic
    /// (acyclicity is *not* required).
    /// Single-shard instances only; on sharded instances use
    /// [`PreparedInstance::test_complete_names`], which tests across shards.
    pub fn all_tester(&self) -> Result<AllTester> {
        let shard = self.single_shard("all_tester")?;
        AllTester::build(self.omq().query(), shard, true)
    }

    /// Single-tests a complete answer given by constant names.
    ///
    /// Shard-aware: a connected query's witnessing homomorphism lies within
    /// one Gaifman component, so the candidate is an answer iff it is an
    /// answer of some shard.
    pub fn test_complete_names(&self, names: &[&str]) -> Result<bool> {
        match self.resolve(names) {
            Ok(tuple) => self.test(&Answer::Complete(tuple)),
            // A name that does not occur in the data cannot be an answer.
            Err(CoreError::UnknownConstant(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    // ------------------------------------------------------------------
    // Convenience / display.
    // ------------------------------------------------------------------

    /// Resolves constant names to identifiers of the chased database.
    pub fn resolve(&self, names: &[&str]) -> Result<Vec<ConstId>> {
        names
            .iter()
            .map(|n| {
                self.symbols()
                    .const_id(n)
                    .ok_or_else(|| CoreError::UnknownConstant((*n).to_owned()))
            })
            .collect()
    }

    /// Builds a partial tuple from constant names and `*` wildcards.
    pub fn parse_partial(&self, spec: &[&str]) -> Result<PartialTuple> {
        let values = spec
            .iter()
            .map(|s| {
                if *s == "*" {
                    Ok(omq_data::PartialValue::Star)
                } else {
                    self.symbols()
                        .const_id(s)
                        .map(omq_data::PartialValue::Const)
                        .ok_or_else(|| CoreError::UnknownConstant((*s).to_owned()))
                }
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(PartialTuple(values))
    }

    /// Renders any answer with constant names.
    pub fn format_answer(&self, answer: &Answer) -> String {
        answer.display_with(|c| self.symbols().const_name(c).to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_chase::Ontology;
    use omq_data::Schema;
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

    fn db_one() -> Database {
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

    fn db_two() -> Database {
        Database::builder(schema())
            .fact("Researcher", ["ada"])
            .fact("Researcher", ["bob"])
            .fact("HasOffice", ["ada", "lab2"])
            .fact("InBuilding", ["lab2", "west"])
            .fact("InBuilding", ["lab9", "east"])
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

    #[test]
    fn one_plan_many_databases_matches_fresh_engines() {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        for db in [db_one(), db_two()] {
            let reused = plan.execute(&db).unwrap();
            let fresh = QueryPlan::compile(&omq).unwrap().execute(&db).unwrap();
            for semantics in Semantics::ALL {
                assert_eq!(
                    answer_set(&reused, semantics),
                    answer_set(&fresh, semantics)
                );
            }
        }
    }

    #[test]
    fn testing_modes_agree_with_enumeration() {
        let plan = QueryPlan::compile(&office_omq()).unwrap();
        let instance = plan.execute(db_one()).unwrap();
        // Single-testing by name.
        assert!(instance
            .test_complete_names(&["mary", "room1", "main1"])
            .unwrap());
        assert!(!instance
            .test_complete_names(&["john", "room4", "main1"])
            .unwrap());
        assert!(!instance.test_complete_names(&["nobody", "x", "y"]).unwrap());
        // Every enumerated answer of every semantics passes `test`.
        for semantics in Semantics::ALL {
            for answer in instance.answers(semantics).unwrap() {
                assert!(instance.test(&answer).unwrap(), "{answer:?}");
            }
        }
        let not_minimal = instance.parse_partial(&["mary", "room1", "*"]).unwrap();
        assert!(!instance.test(&Answer::Partial(not_minimal)).unwrap());
        // All-testing agrees.
        let tester = instance.all_tester().unwrap();
        for answer in instance.answers(Semantics::Complete).unwrap() {
            let tuple = answer.into_complete().unwrap();
            let values: Vec<Value> = tuple.into_iter().map(Value::Const).collect();
            assert!(tester.test(&values).unwrap());
        }
        let wrong = instance.resolve(&["john", "room4", "main1"]).unwrap();
        let wrong: Vec<Value> = wrong.into_iter().map(Value::Const).collect();
        assert!(!tester.test(&wrong).unwrap());
    }

    #[test]
    fn streaming_counts_match_collection() {
        let plan = QueryPlan::compile(&office_omq()).unwrap();
        let instance = plan.execute(db_one()).unwrap();
        for semantics in Semantics::ALL {
            let streamed = instance
                .for_each_answer(semantics, |_| ControlFlow::Continue(()))
                .unwrap();
            assert_eq!(streamed, instance.answers(semantics).unwrap().count());
        }
    }

    #[test]
    fn second_execution_reuses_chase_memo() {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        let first = plan.execute(db_one()).unwrap();
        let types = plan.chase_plan().memoized_bag_types();
        assert!(types > 0);
        let second = plan.execute(db_one()).unwrap();
        // Same shape, so the second run hits the memo for every bag.
        assert!(second.stats().memo_hits >= first.stats().memo_hits);
        assert_eq!(plan.chase_plan().memoized_bag_types(), types);
    }

    #[test]
    fn execute_tracked_matches_execute_on_every_semantics() {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        for db in [db_one(), db_two()] {
            let plain = plan.execute(&db).unwrap();
            let tracked = plan.execute_tracked(&db).unwrap();
            assert!(tracked.shard_count() > 1, "component-rich data shards");
            assert_eq!(tracked.stats().reused_shards, 0);
            for semantics in [
                Semantics::Complete,
                Semantics::MinimalPartial,
                Semantics::MinimalPartialMulti,
            ] {
                assert_eq!(
                    answer_set(&plain, semantics),
                    answer_set(&tracked, semantics)
                );
            }
        }
    }

    #[test]
    fn tracked_execution_of_a_disconnected_query_falls_back() {
        let ontology = Ontology::new();
        let query = ConjunctiveQuery::parse("q(x, y) :- Researcher(x), InBuilding(y, z)").unwrap();
        let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
        let plan = QueryPlan::compile(&omq).unwrap();
        let tracked = plan.execute_tracked(db_one()).unwrap();
        // Sharding a disconnected query would lose cross-component answers.
        assert_eq!(tracked.shard_count(), 1);
    }

    fn store_with(facts: &[(&str, &[&str])]) -> omq_data::Store {
        let mut store = omq_data::Store::new(schema());
        let mut txn = omq_data::Txn::new();
        for (rel, args) in facts {
            txn = txn.insert(rel, args);
        }
        store.commit(txn).unwrap();
        store
    }

    #[test]
    fn refresh_reuses_untouched_component_shards_by_pointer() {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        let mut store = store_with(&[
            ("Researcher", &["mary"]),
            ("HasOffice", &["mary", "room1"]),
            ("InBuilding", &["room1", "main1"]),
            ("Researcher", &["john"]),
            ("HasOffice", &["john", "room4"]),
            ("Researcher", &["mike"]),
        ]);
        let base = plan.execute_tracked(store.snapshot()).unwrap();
        assert_eq!(base.shard_count(), 3);
        // A delta inside john's component only.
        let receipt = store
            .commit(omq_data::Txn::new().insert("InBuilding", ["room4", "main2"]))
            .unwrap();
        let head = store.snapshot();
        let refreshed = base.refresh(&head, &receipt).unwrap();
        assert_eq!(refreshed.shard_count(), 3);
        assert_eq!(refreshed.stats().reused_shards, 2);
        // The two untouched shards are shared with the predecessor by
        // pointer; the dirty component was re-chased into a fresh shard,
        // ordered first.
        let shared = refreshed
            .shards()
            .iter()
            .filter(|shard| base.shards().iter().any(|old| Arc::ptr_eq(shard, old)))
            .count();
        assert_eq!(shared, 2);
        assert!(
            !base
                .shards()
                .iter()
                .any(|old| Arc::ptr_eq(&refreshed.shards()[0], old)),
            "the fresh shard leads the shard order"
        );
        // Answers agree with a from-scratch execution over the new head.
        let scratch = plan.execute(&head).unwrap();
        for semantics in [
            Semantics::Complete,
            Semantics::MinimalPartial,
            Semantics::MinimalPartialMulti,
        ] {
            assert_eq!(
                answer_set(&scratch, semantics),
                answer_set(&refreshed, semantics)
            );
        }
        // New constants minted by the commit resolve through the refreshed
        // instance (the symbol shard derives from the new head).
        assert!(refreshed
            .test_complete_names(&["john", "room4", "main2"])
            .unwrap());
    }

    /// Every instance shape the batching property tests sweep: both example
    /// databases, sequential (one shard) and tracked (one shard per Gaifman
    /// component) execution.
    fn batching_instances(plan: &QueryPlan) -> Vec<PreparedInstance> {
        let mut instances = Vec::new();
        for db in [db_one(), db_two()] {
            instances.push(plan.execute(&db).unwrap());
            let tracked = plan.execute_tracked(&db).unwrap();
            assert!(tracked.shard_count() > 1, "component-rich data shards");
            instances.push(tracked);
        }
        instances
    }

    #[test]
    fn next_batch_equals_repeated_next_on_every_semantics_and_sharding() {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        for instance in batching_instances(&plan) {
            for semantics in Semantics::ALL {
                let reference: Vec<Answer> = instance.answers(semantics).unwrap().collect();
                assert!(!reference.is_empty());
                for k in [1, 2, 3, reference.len(), reference.len() + 7] {
                    // Draining purely through `next_batch(k)` yields the same
                    // answers in the same order as repeated `next()`.
                    let mut stream = instance.answers(semantics).unwrap();
                    let mut batched: Vec<Answer> = Vec::new();
                    loop {
                        let before = batched.len();
                        let got = stream.next_batch(&mut batched, k);
                        assert_eq!(batched.len(), before + got);
                        assert!(got <= k);
                        if got == 0 {
                            break;
                        }
                    }
                    assert_eq!(batched, reference, "k = {k}");
                    // An exhausted stream stays exhausted on both pulls.
                    assert_eq!(stream.next_batch(&mut batched, k), 0);
                    assert!(stream.next().is_none());
                    assert_eq!(batched, reference);
                    // The borrowed pull shows the same answers, in the same
                    // order.
                    let mut stream = instance.answers(semantics).unwrap();
                    let mut borrowed: Vec<Answer> = Vec::new();
                    loop {
                        let before = borrowed.len();
                        let got = stream.next_batch_ref(k, |a| borrowed.push(a.to_answer()));
                        assert_eq!(borrowed.len(), before + got);
                        assert!(got <= k);
                        if got == 0 {
                            break;
                        }
                    }
                    assert_eq!(borrowed, reference, "k = {k}");
                    assert_eq!(stream.next_batch_ref(k, |_| panic!("exhausted")), 0);
                    assert_eq!(stream.emitted(), reference.len());
                }
            }
        }
    }

    #[test]
    fn count_and_exists_agree_with_the_stream() {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        for instance in batching_instances(&plan) {
            for semantics in Semantics::ALL {
                let drained = instance.answers(semantics).unwrap().count() as u64;
                assert_eq!(instance.count(semantics).unwrap(), drained);
                assert_eq!(instance.exists(semantics).unwrap(), drained > 0);
            }
        }
        // Boolean query: one empty tuple, deduped across shards.
        let ontology = omq.ontology().clone();
        let boolean = ConjunctiveQuery::parse("q() :- HasOffice(x, y)").unwrap();
        let bomq = OntologyMediatedQuery::new(ontology, boolean).unwrap();
        let bplan = QueryPlan::compile(&bomq).unwrap();
        for instance in batching_instances(&bplan) {
            for semantics in Semantics::ALL {
                let drained = instance.answers(semantics).unwrap().count() as u64;
                assert_eq!(instance.count(semantics).unwrap(), drained);
                assert_eq!(drained, 1);
                assert!(instance.exists(semantics).unwrap());
            }
        }
        // Empty data: zero everywhere.
        let empty = Database::builder(schema()).build().unwrap();
        let instance = plan.execute(&empty).unwrap();
        for semantics in Semantics::ALL {
            assert_eq!(instance.count(semantics).unwrap(), 0);
            assert!(!instance.exists(semantics).unwrap());
        }
    }

    #[test]
    fn mid_stream_interleaving_of_next_next_batch_and_fill() {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        // A deterministic xorshift schedule: each step pulls via `next()`,
        // `next_batch(k)` or `fill` with a pseudo-random small k, so batch
        // boundaries land at every offset — including mid-shard and across
        // shard handovers — over the different instances and semantics.
        let mut seed: u64 = 0x9e3779b97f4a7c15;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for instance in batching_instances(&plan) {
            for semantics in Semantics::ALL {
                let reference: Vec<Answer> = instance.answers(semantics).unwrap().collect();
                for _schedule in 0..8 {
                    let mut stream = instance.answers(semantics).unwrap();
                    let mut got: Vec<Answer> = Vec::new();
                    loop {
                        let r = rng();
                        let k = (r >> 8) as usize % 4 + 1;
                        match r % 3 {
                            0 => match stream.next() {
                                Some(answer) => got.push(answer),
                                None => break,
                            },
                            1 => {
                                // The prefix invariant holds mid-stream, not
                                // just at exhaustion.
                                assert_eq!(got, reference[..got.len()]);
                                if stream.next_batch(&mut got, k) == 0 {
                                    break;
                                }
                            }
                            _ => {
                                let placeholder = Answer::Complete(Vec::new());
                                let mut buf = vec![placeholder; k];
                                let n = stream.fill(&mut buf);
                                got.extend(buf.into_iter().take(n));
                                if n < k {
                                    break;
                                }
                            }
                        }
                    }
                    assert_eq!(got, reference);
                }
            }
        }
    }

    #[test]
    fn refresh_maintains_a_component_merge_incrementally() {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        // Five components: mary's chain, john's office, ada's office and
        // the lone mike and bob.
        let mut store = store_with(&[
            ("Researcher", &["mary"]),
            ("HasOffice", &["mary", "room1"]),
            ("InBuilding", &["room1", "main1"]),
            ("Researcher", &["john"]),
            ("HasOffice", &["john", "room4"]),
            ("Researcher", &["mike"]),
            ("Researcher", &["ada"]),
            ("HasOffice", &["ada", "lab2"]),
            ("Researcher", &["bob"]),
        ]);
        let base = plan.execute_tracked(store.snapshot()).unwrap();
        assert_eq!(base.shard_count(), 5);
        assert_eq!(base.stats().components, 5);
        assert_eq!(base.stats().rechased_facts, 9);
        // A fact bridging mary's and john's components: both their shards
        // are dirty, the merged component is chased once, the rest reused.
        let receipt = store
            .commit(omq_data::Txn::new().insert("InBuilding", ["room4", "main1"]))
            .unwrap();
        let head = store.snapshot();
        let refreshed = base.refresh(&head, &receipt).unwrap();
        assert_eq!(refreshed.stats().reused_shards, 3);
        assert_eq!(refreshed.shard_count(), 4);
        assert_eq!(refreshed.stats().components, 4);
        assert_eq!(refreshed.stats().rechased_facts, 6);
        for untouched in &base.shards()[2..] {
            assert!(
                refreshed.shards()[1..]
                    .iter()
                    .any(|shard| Arc::ptr_eq(shard, untouched)),
                "an untouched shard was not spliced by pointer"
            );
        }
        let scratch = plan.execute(&head).unwrap();
        for semantics in Semantics::ALL {
            assert_eq!(
                answer_set(&scratch, semantics),
                answer_set(&refreshed, semantics)
            );
        }
        // The chain stays incremental: the merged component is one key now.
        let receipt = store
            .commit(omq_data::Txn::new().insert("InBuilding", ["lab2", "west"]))
            .unwrap();
        let again = refreshed.refresh(store.snapshot(), &receipt).unwrap();
        assert_eq!(again.stats().reused_shards, 3);
        assert_eq!(again.stats().rechased_facts, 3);
    }

    #[test]
    fn a_nullary_atom_anywhere_in_the_omq_runs_the_plan_as_one_shard() {
        let mut db = db_one();
        for (name, arity) in [("N", 0), ("A", 1), ("C", 1)] {
            db.add_relation(name, arity).unwrap();
        }
        db.add_named_fact::<&str>("N", &[]).unwrap();
        for (ontology, query, may_shard) in [
            ("Researcher(x) -> A(x)", "q(x) :- A(x)", true),
            ("Researcher(x) -> N()", "q(x) :- A(x)", false),
            ("N(), Researcher(x) -> C(x)", "q(x) :- C(x)", false),
            // A one-atom query is connected, nullary or not.
            ("Researcher(x) -> A(x)", "q() :- N()", false),
        ] {
            let omq = OntologyMediatedQuery::new(
                Ontology::parse(ontology).unwrap(),
                ConjunctiveQuery::parse(query).unwrap(),
            )
            .unwrap();
            let plan = QueryPlan::compile(&omq).unwrap();
            assert_eq!(plan.shard_keys(&db).is_some(), may_shard, "{ontology}");
            let parallel = plan.execute_parallel(&db, 2).unwrap();
            assert_eq!(parallel.shard_count() > 1, may_shard, "{ontology}");
            let sequential = plan.execute(&db).unwrap();
            for semantics in Semantics::ALL {
                assert_eq!(
                    answer_set(&parallel, semantics),
                    answer_set(&sequential, semantics)
                );
            }
        }
    }

    #[test]
    fn a_nullary_fact_the_omq_does_not_mention_is_in_no_shard_and_dirties_none() {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        let mut schema = schema();
        schema.add_relation("Flag", 0).unwrap();
        schema.add_relation("Mark", 0).unwrap();
        let mut store = omq_data::Store::new(schema);
        let none: [&str; 0] = [];
        let mut load = omq_data::Txn::new();
        for i in 0..15 {
            load = load.insert("Researcher", [format!("s{i}")]);
        }
        store.commit(load.insert("Flag", none)).unwrap();
        let base = plan.execute_tracked(store.snapshot()).unwrap();
        assert_eq!(base.stats().components, 15);
        let sharded: usize = base.shards().iter().map(|s| s.len()).sum();
        assert_eq!(
            sharded,
            plan.execute(store.snapshot()).unwrap().stats().chased_facts - 1
        );
        // A nullary fact arriving dirties no shard, and the next refresh
        // still chains onto this one.
        let receipt = store
            .commit(omq_data::Txn::new().insert("Mark", none))
            .unwrap();
        let marked = base.refresh(store.snapshot(), &receipt).unwrap();
        assert_eq!(marked.stats().reused_shards, base.shard_count());
        assert_eq!(marked.stats().rechased_facts, 0);
        let receipt = store
            .commit(omq_data::Txn::new().insert("HasOffice", ["s14", "room"]))
            .unwrap();
        let head = store.snapshot();
        let grown = marked.refresh(&head, &receipt).unwrap();
        assert_eq!(grown.stats().reused_shards, base.shard_count() - 1);
        let scratch = plan.execute(&head).unwrap();
        for semantics in Semantics::ALL {
            assert_eq!(
                answer_set(&scratch, semantics),
                answer_set(&grown, semantics)
            );
        }
    }

    #[test]
    fn refresh_reuses_nothing_on_a_total_merge_a_new_relation_or_an_untracked_instance() {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        let mut store = store_with(&[
            ("Researcher", &["mary"]),
            ("HasOffice", &["mary", "room1"]),
            ("Researcher", &["john"]),
            ("HasOffice", &["john", "room4"]),
        ]);
        let base = plan.execute_tracked(store.snapshot()).unwrap();
        assert_eq!(base.shard_count(), 2);
        // A bridging fact merges the two components: no shard is reusable.
        let receipt = store
            .commit(omq_data::Txn::new().insert("InBuilding", ["room1", "room4"]))
            .unwrap();
        let merged = base.refresh(store.snapshot(), &receipt).unwrap();
        assert_eq!(merged.stats().reused_shards, 0);
        assert_eq!(merged.shard_count(), 1);
        // A commit that adds a relation symbol invalidates the baked-in
        // relation-id layout: full rebuild.
        let receipt = store
            .commit(
                omq_data::Txn::new()
                    .add_relation("Lab", 1)
                    .insert("Lab", ["l1"]),
            )
            .unwrap();
        let rebuilt = merged.refresh(store.snapshot(), &receipt).unwrap();
        assert_eq!(rebuilt.stats().reused_shards, 0);
        // An untracked instance (plain `execute`) has no provenance: refresh
        // degrades to a full tracked execution.
        let untracked = plan.execute(store.snapshot()).unwrap();
        let receipt = store
            .commit(omq_data::Txn::new().insert("Researcher", ["zoe"]))
            .unwrap();
        let from_untracked = untracked.refresh(store.snapshot(), &receipt).unwrap();
        assert_eq!(from_untracked.stats().reused_shards, 0);
        // …and the *next* refresh over it is incremental again.
        let receipt = store
            .commit(omq_data::Txn::new().insert("Researcher", ["amy"]))
            .unwrap();
        let incremental = from_untracked.refresh(store.snapshot(), &receipt).unwrap();
        assert!(incremental.stats().reused_shards > 0);
    }

    #[test]
    fn refresh_shares_everything_on_a_no_effect_commit() {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        let mut store = store_with(&[("Researcher", &["mary"]), ("Researcher", &["john"])]);
        let base = plan.execute_tracked(store.snapshot()).unwrap();
        let receipt = store
            .commit(omq_data::Txn::new().insert("Researcher", ["mary"]))
            .unwrap();
        assert_eq!(receipt.new_facts, 0);
        let refreshed = base.refresh(store.snapshot(), &receipt).unwrap();
        assert_eq!(refreshed.stats().reused_shards, base.shard_count());
        assert!(Arc::ptr_eq(base.shared_shards(), refreshed.shared_shards()));
    }

    #[test]
    fn refresh_rejects_a_skipped_receipt_via_full_rebuild() {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        let mut store = store_with(&[("Researcher", &["mary"]), ("Researcher", &["john"])]);
        let base = plan.execute_tracked(store.snapshot()).unwrap();
        // Two commits, but only the second receipt is handed to refresh:
        // the revision chain does not connect, so nothing may be reused.
        store
            .commit(omq_data::Txn::new().insert("Researcher", ["zoe"]))
            .unwrap();
        let second = store
            .commit(omq_data::Txn::new().insert("Researcher", ["amy"]))
            .unwrap();
        let refreshed = base.refresh(store.snapshot(), &second).unwrap();
        assert_eq!(refreshed.stats().reused_shards, 0);
        let scratch = plan.execute(store.snapshot()).unwrap();
        assert_eq!(
            answer_set(&scratch, Semantics::MinimalPartial),
            answer_set(&refreshed, Semantics::MinimalPartial)
        );
    }

    #[test]
    fn unguarded_ontology_is_rejected_at_compile_time() {
        let ontology = Ontology::parse("R(x, y), S(y, z) -> T(x, z)").unwrap();
        let query = ConjunctiveQuery::parse("q(x, z) :- T(x, z)").unwrap();
        let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
        assert!(matches!(
            QueryPlan::compile(&omq),
            Err(CoreError::NotGuarded(_))
        ));
    }

    #[test]
    fn intractable_query_compiles_but_enumeration_errors() {
        // Projected path: weakly acyclic (testing works), not
        // enumeration-tractable.
        let ontology = Ontology::new();
        let query = ConjunctiveQuery::parse("q(x, z) :- R(x, y), S(y, z)").unwrap();
        let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
        let plan = QueryPlan::compile(&omq).unwrap();
        assert!(plan.skeleton().is_err());
        let mut s = Schema::new();
        s.add_relation("R", 2).unwrap();
        s.add_relation("S", 2).unwrap();
        let db = Database::builder(s)
            .fact("R", ["a", "b"])
            .fact("S", ["b", "c"])
            .build()
            .unwrap();
        let instance = plan.execute(&db).unwrap();
        let refused = instance
            .answers(Semantics::Complete)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(refused, CoreError::NotEnumerationTractable(_)));
        // The reason is stated once, then the query.
        let reason = "enumeration with constant delay is not supported: ";
        assert_eq!(refused.to_string().matches(reason).count(), 1, "{refused}");
        // Single-testing still works.
        assert!(instance.test_complete_names(&["a", "c"]).unwrap());
        assert!(!instance.test_complete_names(&["a", "b"]).unwrap());
    }
}
