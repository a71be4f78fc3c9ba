//! The query-directed chase `ch^q_O(D)` (Section 3 of the paper).
//!
//! For every OMQ `Q = (O, S, q)` with guarded `O` and every `S`-database `D`,
//! the paper constructs in time linear in `‖D‖` a *finite* database
//! `ch^q_O(D)` that agrees with the (possibly infinite) chase `ch_O(D)` on all
//! properties relevant to answering `q`: complete answers, minimal partial
//! answers, and minimal partial answers with multi-wildcards (Lemma 3.2).
//!
//! The paper's proof device is a propositional Horn formula whose minimal
//! model encodes which "local" facts are entailed (Proposition 3.3); the
//! formula ranges over the closure `cl(Q)` and is therefore constant in the
//! data but astronomically large in `‖Q‖`.  This implementation computes the
//! same object by an equivalent, practical route that exploits guardedness
//! (Lemma A.2 locality):
//!
//! 1. **Guarded saturation** — for every guarded set `S` of the current
//!    database, chase the *bag* `D|_S` locally and copy every derived ground
//!    fact (over `S`) back into the database; iterate to a fixpoint.  By
//!    guardedness every entailed fact over database constants is derivable
//!    this way.
//! 2. **Grafting** — for every guarded set, chase its bag once more and graft
//!    the generated null trees (truncated at a configurable depth, by default
//!    `max(|var(q)|, 2)`) onto the database with fresh nulls.  Homomorphic
//!    images of connected subqueries with at most `|var(q)|` variables that
//!    touch the database part lie within that depth.
//!
//! Both phases memoise their work by the *isomorphism type of the bag*, which
//! is what makes the construction linear in `‖D‖`: the number of bag types
//! depends only on the ontology, not on the data (experiment E2 validates the
//! linearity empirically, experiment E11 ablates the memoisation).
//!
//! **Typing a bag costs O(1) in data complexity.**  `ValueSetIndex` keeps
//! the facts grouped by their sorted, deduplicated value set, in
//! first-occurrence order: the guarded sets a pass visits.  The facts of
//! `D|_S` are the groups of the subsets of `S`, collected the cheaper of two
//! exact ways, chosen from `|S|` and the value degrees alone: `2^|S| − 1`
//! subset lookups, or reading the groups of each value of `S` (at most
//! `Σ_{v∈S} deg(v)`).  [`QueryDirectedChase::bag_probes`] counts the probes,
//! so the bound is asserted in counts (`tests/paper_examples.rs`).  The
//! nullary facts are in every bag and so in every bag's signature: a bag
//! typed with `Flag()` present never answers for one typed without it.
//!
//! **Saturation rounds are semi-naive.**  The first types every group; a
//! later one types, ascending, only the groups whose bag the last round
//! changed: those whose value set contains the value set `T` of a fact it
//! added (found among the groups of `T`'s lowest-degree value; a new group
//! contains its own), or all of them after a new nullary fact, which is in
//! every bag.  A clean group's bag is one an earlier round typed and whose
//! derivations that round added, so the rounds stage exactly what full
//! passes would.  Every round but the last adds a ground fact over an input
//! guarded set, of which there are finitely many: the rounds end by
//! construction.  A round costs O(facts added + groups re-typed × their
//! probe bound); no round reads the whole fact table, so a chain n rounds
//! deep costs O(n).

use crate::arena::FactArena;
use crate::chase::{chase_in, ChaseConfig};
use crate::omq::OntologyMediatedQuery;
use crate::Result;
use omq_data::{Database, NullId, RelId, Value};
use rustc_hash::{FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, RwLock};

/// Fact budget for each individual bag chase (saturation and grafting).
const MAX_BAG_FACTS: usize = 100_000;

/// "No group" in [`ValueSetIndex`]'s hash chains, "no node" in [`AppendLists`].
const NONE: u32 = u32::MAX;

/// Configuration of the query-directed chase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QchaseConfig {
    /// Depth of the grafted null trees.  `None` uses `max(|var(q)|, 2)`.
    pub tree_depth: Option<usize>,
    /// Depth of the bag chase used during saturation.  `None` uses
    /// `max(tree_depth, 4)`.
    pub saturation_depth: Option<usize>,
    /// Memoise bag chases by bag type (the linear-time trick).  Disable only
    /// for ablation experiments.
    pub memoize: bool,
}

impl Default for QchaseConfig {
    fn default() -> Self {
        QchaseConfig {
            tree_depth: None,
            saturation_depth: None,
            memoize: true,
        }
    }
}

/// The result of the query-directed chase.
#[derive(Debug, Clone)]
pub struct QueryDirectedChase {
    /// The constructed instance `ch^q_O(D)`; it contains the original database
    /// facts, the derived ground facts and the grafted null trees.
    pub database: Database,
    /// Number of grafted trees.
    pub grafts: usize,
    /// Number of saturation rounds executed.
    pub saturation_rounds: usize,
    /// Number of bag-chase memoisation hits.
    pub memo_hits: usize,
    /// Work spent typing bags, over every pass: value-set lookups, or the
    /// degrees of the values whose groups a scan reads.  A bag over `S` costs
    /// `min(2^|S| − 1, Σ_{v∈S} deg v)`, and a saturation round after the first
    /// types only the bags the last round changed, so this count grows
    /// linearly in `|D|` whatever the value degrees and the derivation depth.
    pub bag_probes: usize,
    /// The tree depth that was used for grafting.
    pub tree_depth: usize,
}

/// A canonical, data-independent signature of a bag, flattened: for every
/// fact of the bag in sorted order, its relation id followed by the index of
/// each argument in the (sorted) bag domain.  The relation fixes the arity,
/// so the flat form is as injective as the nested one, and a probe looks it
/// up as a borrowed `&[u32]`.
type BagSignature = Box<[u32]>;

/// A grafted tree template: facts whose arguments are either an index into the
/// bag domain or a local null identifier.
#[derive(Debug, Clone)]
enum TemplateArg {
    BagConst(usize),
    LocalNull(usize),
}

/// The null trees a bag type grows.  Local nulls are numbered `0..nulls` in
/// first-occurrence order, so one graft instantiates `LocalNull(n)` as the
/// `n`-th of a block of `nulls` fresh nulls.
#[derive(Debug, Clone, Default)]
struct GraftTemplate {
    facts: Vec<(RelId, Vec<TemplateArg>)>,
    nulls: u32,
}

/// The memoised, data-independent state of a [`QchasePlan`]: the bag-type →
/// derived-facts tables discovered so far, valid for every database whose
/// extended schema matches `fingerprint`.
#[derive(Debug, Default)]
struct PlanMemo {
    /// Extended-schema layout (`(name, arity)` in [`RelId`] order) the cached
    /// tables were computed under.  Bag signatures embed `RelId`s, so the
    /// tables are only sound for databases producing the same layout.
    fingerprint: Option<Vec<(String, usize)>>,
    ground: FxHashMap<BagSignature, Vec<(RelId, Vec<usize>)>>,
    graft: FxHashMap<BagSignature, GraftTemplate>,
}

/// Append-only lists of `u32` items in append order: `lists` holds each
/// list's first and last node, `nodes` each item and the node after it.
#[derive(Debug, Default)]
struct AppendLists {
    lists: Vec<(u32, u32)>,
    nodes: Vec<(u32, u32)>,
}

impl AppendLists {
    fn clear(&mut self) {
        self.lists.clear();
        self.nodes.clear();
    }

    fn push(&mut self, list: usize, item: u32) {
        if list >= self.lists.len() {
            self.lists.resize(list + 1, (NONE, NONE));
        }
        let node = u32::try_from(self.nodes.len()).expect("value-set index overflow");
        self.nodes.push((item, NONE));
        let (first, last) = &mut self.lists[list];
        match std::mem::replace(last, node) {
            NONE => *first = node,
            prev => self.nodes[prev as usize].1 = node,
        }
    }

    fn iter(&self, list: usize) -> impl Iterator<Item = u32> + '_ {
        let mut node = self.lists.get(list).map_or(NONE, |&(first, _)| first);
        std::iter::from_fn(move || {
            let (item, next) = *self.nodes.get(node as usize)?;
            node = next;
            Some(item)
        })
    }
}

/// The facts of a database grouped by their sorted, deduplicated value set,
/// in first-occurrence order — the guarded sets a chase pass visits, and the
/// lookup table that types their bags.  Grows with the database: a pass
/// indexes only the facts appended since the last one, and reads neither
/// the whole fact table nor the database's own indexes.  Every buffer is
/// reused across passes and, through the plan's buffer pool, across chases.
#[derive(Debug, Default)]
struct ValueSetIndex {
    /// Facts `0..covered` of the database are indexed.
    covered: usize,
    /// Every group's value set, back to back: group `g` owns
    /// `values[value_starts[g]..value_starts[g + 1]]`.
    values: Vec<Value>,
    value_starts: Vec<u32>,
    /// Hash of a value set → the newest group with that hash; older groups
    /// with the same hash follow `same_hash`.
    heads: FxHashMap<u64, u32>,
    same_hash: Vec<u32>,
    /// The group of every indexed fact.
    group_of: Vec<u32>,
    /// Each group's facts, ascending.
    members: AppendLists,
    /// The groups whose value set holds a value, ascending, by dense value
    /// code.
    groups_with: AppendLists,
    /// Number of facts mentioning each value, by dense value code.
    degree: Vec<u32>,
    /// One fact's sorted values while it is being indexed.
    sorted: Vec<Value>,
}

impl ValueSetIndex {
    /// Forgets every group but keeps the buffers.
    fn clear(&mut self) {
        self.covered = 0;
        self.values.clear();
        self.value_starts.clear();
        self.heads.clear();
        self.same_hash.clear();
        self.group_of.clear();
        self.members.clear();
        self.groups_with.clear();
        self.degree.clear();
    }

    /// Indexes the facts `db` gained since the last call, in one pass over them.
    fn extend(&mut self, db: &Database) {
        if self.value_starts.is_empty() {
            self.value_starts.push(0);
        }
        self.degree.resize(db.adom().len(), 0);
        let mut sorted = std::mem::take(&mut self.sorted);
        for idx in self.covered..db.len() {
            sorted.clear();
            sorted.extend_from_slice(&db.fact(idx).args);
            sorted.sort_unstable();
            sorted.dedup();
            for &v in &sorted {
                self.degree[code(db, v)] += 1;
            }
            let group = self.find_or_insert(db, &sorted);
            self.group_of.push(group);
            self.members.push(group as usize, idx as u32);
        }
        self.sorted = sorted;
        self.covered = db.len();
    }

    fn hash(values: &[Value]) -> u64 {
        let mut hasher = FxHasher::default();
        values.hash(&mut hasher);
        hasher.finish()
    }

    /// The group of the value set `sorted`, if some fact has exactly it.
    fn find(&self, sorted: &[Value]) -> Option<u32> {
        let mut g = *self.heads.get(&Self::hash(sorted))?;
        while g != NONE {
            if self.value_set(g) == sorted {
                return Some(g);
            }
            g = self.same_hash[g as usize];
        }
        None
    }

    fn find_or_insert(&mut self, db: &Database, sorted: &[Value]) -> u32 {
        if let Some(g) = self.find(sorted) {
            return g;
        }
        let g = u32::try_from(self.groups()).expect("value-set index overflow");
        self.values.extend_from_slice(sorted);
        self.value_starts
            .push(u32::try_from(self.values.len()).expect("value-set index overflow"));
        let older = self.heads.insert(Self::hash(sorted), g);
        self.same_hash.push(older.unwrap_or(NONE));
        for &v in sorted {
            self.groups_with.push(code(db, v), g);
        }
        g
    }

    /// Number of groups (distinct guarded sets, the empty one included).
    fn groups(&self) -> usize {
        self.same_hash.len()
    }

    /// The sorted value set of group `g`.
    fn value_set(&self, g: u32) -> &[Value] {
        let g = g as usize;
        &self.values[self.value_starts[g] as usize..self.value_starts[g + 1] as usize]
    }

    /// The facts of group `g`, ascending.
    fn members(&self, g: u32) -> impl Iterator<Item = u32> + '_ {
        self.members.iter(g as usize)
    }

    /// The nullary facts.
    fn nullary_facts(&self) -> impl Iterator<Item = u32> + '_ {
        self.find(&[]).into_iter().flat_map(|g| self.members(g))
    }

    /// Number of facts mentioning `v`.
    fn degree(&self, db: &Database, v: Value) -> usize {
        self.degree[code(db, v)] as usize
    }

    /// Into `dirty`, ascending: the groups whose value set contains that of
    /// a fact `from..` (found among the groups of its lowest-degree value),
    /// or every group if one of those facts is nullary.  `marked` is
    /// scratch, all `false` between calls.
    fn changed_groups(
        &self,
        db: &Database,
        from: usize,
        marked: &mut Vec<bool>,
        dirty: &mut Vec<u32>,
    ) {
        dirty.clear();
        marked.resize(self.groups(), false);
        for &source in &self.group_of[from..] {
            let set = self.value_set(source);
            let Some(&rarest) = set.iter().min_by_key(|&&v| self.degree(db, v)) else {
                dirty.extend(0..self.groups() as u32);
                break;
            };
            for g in self.groups_with.iter(code(db, rarest)) {
                let superset = self.value_set(g);
                if !marked[g as usize] && set.iter().all(|v| superset.binary_search(v).is_ok()) {
                    marked[g as usize] = true;
                    dirty.push(g);
                }
            }
        }
        dirty.iter().for_each(|&g| marked[g as usize] = false);
        dirty.sort_unstable();
        dirty.dedup();
    }
}

/// The dense code of a value of `db`.
fn code(db: &Database, v: Value) -> usize {
    db.value_code(v).expect("an indexed value has a code") as usize
}

/// Reused buffers for typing one bag: its facts and its signature.
#[derive(Debug, Default)]
struct BagTyper {
    /// The facts of the bag `D|_S`, the nullary ones included.
    facts: Vec<u32>,
    /// The bag's [`BagSignature`], built in place.
    key: Vec<u32>,
    /// One subset of `S` while it is being looked up.
    subset: Vec<Value>,
}

impl BagTyper {
    /// Collects the facts of `D|_S` for the guarded set `set` (sorted) into
    /// `facts` and its signature into `key`, by the cheaper of the two exact
    /// methods; returns the probes spent.  The nullary facts are in every
    /// bag, so they are in its signature too; reading them is one lookup per
    /// bag, not a probe of `S`.
    fn type_bag(&mut self, db: &Database, index: &ValueSetIndex, set: &[Value]) -> usize {
        self.facts.clear();
        self.facts.extend(index.nullary_facts());
        let lookups = u32::try_from(set.len())
            .ok()
            .and_then(|n| 1usize.checked_shl(n))
            .map_or(usize::MAX, |all| all - 1);
        let reads: usize = set.iter().map(|&v| index.degree(db, v)).sum();
        let probes = if lookups <= reads {
            for mask in 1..=lookups {
                self.subset.clear();
                self.subset.extend(
                    set.iter()
                        .enumerate()
                        .filter(|(i, _)| mask >> i & 1 == 1)
                        .map(|(_, &v)| v),
                );
                if let Some(g) = index.find(&self.subset) {
                    self.facts.extend(index.members(g));
                }
            }
            lookups
        } else {
            // A group over `S` is taken at its smallest value, so once; a
            // value has at most as many groups as facts.
            for &v in set {
                for g in index.groups_with.iter(code(db, v)) {
                    let values = index.value_set(g);
                    if values[0] == v && values.iter().all(|a| set.binary_search(a).is_ok()) {
                        self.facts.extend(index.members(g));
                    }
                }
            }
            reads
        };

        let position = |v: &Value| set.binary_search(v).expect("bag value") as u32;
        self.facts.sort_unstable_by(|&a, &b| {
            let (a, b) = (db.fact(a as usize), db.fact(b as usize));
            a.rel
                .cmp(&b.rel)
                .then_with(|| a.args.iter().map(position).cmp(b.args.iter().map(position)))
        });
        self.key.clear();
        for &idx in &self.facts {
            let fact = db.fact(idx as usize);
            self.key.push(fact.rel.0);
            self.key.extend(fact.args.iter().map(position));
        }
        probes
    }
}

/// The per-execution buffers a [`QchasePlan`] pools: the round staging arena,
/// the arena every bag chase runs in, the value-set index, the typer, and a
/// saturation round's dirty groups with their scratch marks.
#[derive(Debug, Default)]
struct ChaseBuffers {
    stage: FactArena,
    bag_arena: FactArena,
    index: ValueSetIndex,
    typer: BagTyper,
    dirty: Vec<u32>,
    marked: Vec<bool>,
}

/// A compiled, reusable query-directed chase for one OMQ.
///
/// The chase's linear-time trick is memoising bag chases by the isomorphism
/// type of the bag — a table that depends only on the ontology, not on the
/// data.  `QchasePlan` makes that table *persistent across databases*: the
/// first [`QchasePlan::chase`] call pays for every bag type it encounters,
/// subsequent calls over further databases reuse the rule-trigger tables and
/// only do the linear copy work.  This is the chase half of the
/// compile-once/execute-many architecture (`omq-core`'s `QueryPlan` owns one
/// of these).
#[derive(Debug)]
pub struct QchasePlan {
    omq: OntologyMediatedQuery,
    config: QchaseConfig,
    /// Relations to add to every input database, sorted by name: ontology
    /// relations first, then query relations (precomputed once).
    relations: Vec<(String, usize)>,
    tree_depth: usize,
    saturation_depth: usize,
    /// Read-mostly: the warm path (every bag type already memoised) only ever
    /// takes the read lock, so concurrent executions of a shared plan do not
    /// serialize; the write lock is taken only to set the fingerprint on the
    /// first run and to publish newly discovered bag types.
    memo: RwLock<PlanMemo>,
    /// Recycled per-execution buffers: each [`QchasePlan::chase_many`] call
    /// checks one set out, so the staging arenas and the value-set index are
    /// allocated once per concurrent execution, not once per chase.
    buffers: Mutex<Vec<ChaseBuffers>>,
}

impl QchasePlan {
    /// Compiles the data-independent part of the query-directed chase.
    pub fn new(omq: &OntologyMediatedQuery, config: &QchaseConfig) -> Result<Self> {
        let query_vars = omq.query().body_vars().len();
        let tree_depth = config.tree_depth.unwrap_or_else(|| query_vars.max(2));
        let saturation_depth = config.saturation_depth.unwrap_or_else(|| tree_depth.max(4));
        let mut relations: Vec<(String, usize)> = omq.ontology().relations()?.into_iter().collect();
        relations.sort();
        // Also make sure the query's relations exist (they might be absent
        // from both the data and the ontology).
        let mut query_relations: Vec<(String, usize)> =
            omq.query().relations()?.into_iter().collect();
        query_relations.sort();
        relations.extend(query_relations);
        Ok(QchasePlan {
            omq: omq.clone(),
            config: *config,
            relations,
            tree_depth,
            saturation_depth,
            memo: RwLock::new(PlanMemo::default()),
            buffers: Mutex::new(Vec::new()),
        })
    }

    /// The OMQ this plan chases for.
    pub fn omq(&self) -> &OntologyMediatedQuery {
        &self.omq
    }

    /// The chase configuration the plan was compiled with.
    pub fn config(&self) -> &QchaseConfig {
        &self.config
    }

    /// Number of memoised bag types accumulated so far (both tables).
    pub fn memoized_bag_types(&self) -> usize {
        let memo = self.memo.read().expect("qchase memo poisoned");
        memo.ground.len() + memo.graft.len()
    }

    /// Computes the query-directed chase of `db`, reusing the rule-trigger
    /// tables accumulated by earlier calls whenever the extended schema
    /// matches (otherwise the run falls back to a private table).
    pub fn chase(&self, db: &Database) -> Result<QueryDirectedChase> {
        Ok(self
            .chase_many(vec![db.clone()])?
            .pop()
            .expect("one part in, one chase out"))
    }

    /// Computes the query-directed chase of every database in `parts` as one
    /// batch: a single memo snapshot (and a single publish) serves them all,
    /// and bag types discovered while chasing one part are immediately
    /// reusable by the next (intra-batch memoisation).  The parts are
    /// consumed: each is extended into its own chase in place, so a caller
    /// that built them only to chase them (the packs of a sharded
    /// execution) copies no fact twice.
    ///
    /// All parts must share one schema layout — the memo fingerprint is
    /// derived from the first part, and bag signatures embed `RelId`s.  The
    /// intended callers satisfy this by construction: the packs of one
    /// database (sharded execution, delta-chase maintenance) all clone the
    /// parent schema.  An empty batch returns no chases.
    pub fn chase_many(&self, mut parts: Vec<Database>) -> Result<Vec<QueryDirectedChase>> {
        if parts.is_empty() {
            return Ok(Vec::new());
        }
        for part in &mut parts {
            for (name, arity) in &self.relations {
                part.add_relation(name, *arity)?;
            }
        }
        let fingerprint: Vec<(String, usize)> = parts[0]
            .schema()
            .iter()
            .map(|(_, rel)| (rel.name.clone(), rel.arity))
            .collect();

        // Snapshot the shared tables instead of holding a lock across the
        // (data-linear) chase: concurrent executions of a shared plan run in
        // parallel, each on its own copy, and publish new bag types at the
        // end.  The tables are bounded by the ontology's bag types, so the
        // copies are small compared to the chase itself.
        //
        // Locking protocol (read-mostly): the fingerprint check and the
        // snapshot only take the *read* lock, so warm executions — every bag
        // type already memoised — never contend with each other.  The write
        // lock is taken in exactly two cold situations: to set the
        // fingerprint on the very first run (double-checked under the write
        // lock), and to publish bag types this run discovered beyond its
        // snapshot.
        let matches = {
            let memo = self.memo.read().expect("qchase memo poisoned");
            memo.fingerprint.as_ref().map(|f| *f == fingerprint)
        };
        let matches = match matches {
            Some(m) => m,
            None => {
                let mut memo = self.memo.write().expect("qchase memo poisoned");
                match &memo.fingerprint {
                    Some(existing) => *existing == fingerprint,
                    None => {
                        memo.fingerprint = Some(fingerprint);
                        true
                    }
                }
            }
        };
        let (shareable, mut local) = if matches && self.config.memoize {
            let memo = self.memo.read().expect("qchase memo poisoned");
            let snapshot = PlanMemo {
                fingerprint: None,
                ground: memo.ground.clone(),
                graft: memo.graft.clone(),
            };
            (true, snapshot)
        } else {
            (false, PlanMemo::default())
        };
        let snapshot_ground = local.ground.len();
        let snapshot_graft = local.graft.len();
        // One pooled set of buffers serves the whole batch.
        let mut buffers = self
            .buffers
            .lock()
            .expect("qchase buffer pool poisoned")
            .pop()
            .unwrap_or_default();
        let chased: Result<Vec<QueryDirectedChase>> = parts
            .into_iter()
            .map(|part| self.chase_prepared(part, &mut local, &mut buffers))
            .collect();
        buffers.stage.clear();
        buffers.bag_arena.clear();
        self.buffers
            .lock()
            .expect("qchase buffer pool poisoned")
            .push(buffers);
        let out = chased?;
        // Publish only on a miss: a fully warm batch leaves the tables at
        // their snapshot size and never upgrades to the write lock.
        if shareable && (local.ground.len() > snapshot_ground || local.graft.len() > snapshot_graft)
        {
            let mut memo = self.memo.write().expect("qchase memo poisoned");
            for (signature, derived) in local.ground {
                memo.ground.entry(signature).or_insert(derived);
            }
            for (signature, template) in local.graft {
                memo.graft.entry(signature).or_insert(template);
            }
        }
        Ok(out)
    }

    /// The chase proper, over a `result` database that holds exactly the
    /// input facts, under the full extended schema.
    fn chase_prepared(
        &self,
        mut result: Database,
        memo: &mut PlanMemo,
        buffers: &mut ChaseBuffers,
    ) -> Result<QueryDirectedChase> {
        let ontology = self.omq.ontology();
        let memoize = self.config.memoize;
        let ChaseBuffers {
            stage,
            bag_arena,
            index,
            typer,
            dirty,
            marked,
        } = buffers;
        index.clear();

        let mut memo_hits = 0usize;
        let mut bag_probes = 0usize;

        // -------- Phase 1: guarded saturation of the database part. --------
        let mut saturation_rounds = 0usize;
        let saturation_config = ChaseConfig {
            max_depth: self.saturation_depth,
            max_facts: MAX_BAG_FACTS,
        };
        let mut values: Vec<Value> = Vec::new();
        index.extend(&result);
        dirty.clear();
        dirty.extend(0..index.groups() as u32);
        loop {
            saturation_rounds += 1;
            stage.clear();
            for &g in dirty.iter() {
                let ordering = index.value_set(g);
                bag_probes += typer.type_bag(&result, index, ordering);
                let cached = memo.ground.get(typer.key.as_slice());
                let mut miss = None;
                let derived = match cached {
                    Some(derived) => {
                        memo_hits += 1;
                        derived
                    }
                    None => {
                        let bag = bag_database(&result, &typer.facts)?;
                        miss.insert(derive_ground(
                            &result,
                            &bag,
                            ordering,
                            ontology,
                            &saturation_config,
                            bag_arena,
                        )?)
                    }
                };
                for (rel, positions) in derived.iter() {
                    values.clear();
                    values.extend(positions.iter().map(|&i| ordering[i]));
                    if !result.contains_fact_ref(*rel, &values) {
                        stage.push_fact(*rel, &values);
                    }
                }
                if let Some(derived) = miss.filter(|_| memoize) {
                    memo.ground.insert(typer.key.as_slice().into(), derived);
                }
            }
            if stage.is_empty() {
                break;
            }
            let from = result.len();
            stage.flush_into(&mut result)?;
            index.extend(&result);
            index.changed_groups(&result, from, marked, dirty);
        }

        // -------- Phase 2: graft null trees below every guarded set. --------
        // The index is current: every saturation flush was indexed.
        let graft_config = ChaseConfig {
            max_depth: self.tree_depth,
            max_facts: MAX_BAG_FACTS,
        };
        let mut grafts = 0usize;
        stage.clear();
        for g in 0..index.groups() as u32 {
            let ordering = index.value_set(g);
            bag_probes += typer.type_bag(&result, index, ordering);
            let cached = memo.graft.get(typer.key.as_slice());
            let mut miss = None;
            let template = match cached {
                Some(template) => {
                    memo_hits += 1;
                    template
                }
                None => {
                    let bag = bag_database(&result, &typer.facts)?;
                    miss.insert(derive_template(
                        &result,
                        &bag,
                        ordering,
                        ontology,
                        &graft_config,
                        bag_arena,
                    )?)
                }
            };
            if !template.facts.is_empty() {
                grafts += 1;
                // One block of fresh nulls: local null `n` is `base + n`.
                let base = result.null_counter();
                if template.nulls > 0 {
                    result.reserve_null(NullId(base + template.nulls - 1));
                }
                for (rel, args) in &template.facts {
                    values.clear();
                    values.extend(args.iter().map(|a| match a {
                        TemplateArg::BagConst(i) => ordering[*i],
                        TemplateArg::LocalNull(n) => Value::Null(NullId(base + *n as u32)),
                    }));
                    stage.push_fact(*rel, &values);
                }
            }
            if let Some(template) = miss.filter(|_| memoize) {
                memo.graft.insert(typer.key.as_slice().into(), template);
            }
        }
        stage.flush_into(&mut result)?;

        Ok(QueryDirectedChase {
            database: result,
            grafts,
            saturation_rounds,
            memo_hits,
            bag_probes,
            tree_depth: self.tree_depth,
        })
    }
}

/// Computes the query-directed chase of `db` for `omq`.
///
/// One-shot convenience wrapper: compiles a throwaway [`QchasePlan`] and runs
/// it.  Callers evaluating one OMQ over many databases should hold on to a
/// [`QchasePlan`] (or an `omq-core` `QueryPlan`) instead, which amortises the
/// bag-type tables across runs.
pub fn query_directed_chase(
    db: &Database,
    omq: &OntologyMediatedQuery,
    config: &QchaseConfig,
) -> Result<QueryDirectedChase> {
    QchasePlan::new(omq, config)?.chase(db)
}

/// The bag `D|_S` as a database of its own: the facts the typer collected,
/// added in database order (the order its chase fires in).
fn bag_database(db: &Database, facts: &[u32]) -> Result<Database> {
    let mut ordered = facts.to_vec();
    ordered.sort_unstable();
    let mut bag = db.derived_empty();
    for idx in ordered {
        let fact = db.fact(idx as usize);
        bag.add_fact_ref(fact.rel, &fact.args)?;
    }
    Ok(bag)
}

/// Chases `bag`, the bag over `ordering`, and returns the derived ground
/// facts as positional patterns.
fn derive_ground(
    db: &Database,
    bag: &Database,
    ordering: &[Value],
    ontology: &crate::ontology::Ontology,
    config: &ChaseConfig,
    arena: &mut FactArena,
) -> Result<Vec<(RelId, Vec<usize>)>> {
    let chased = chase_in(bag, ontology, config, arena)?;
    let mut out = Vec::new();
    for fact in chased.database.facts() {
        let positions: Option<Vec<usize>> = fact
            .args
            .iter()
            .map(|a| ordering.binary_search(a).ok())
            .collect();
        // The relation ids of the bag coincide with those of `db` because
        // the bag clones its schema and `chase` only appends new relations
        // after the existing ones.
        if let Some(positions) = positions {
            if fact.is_ground() && !bag.contains_fact(fact) {
                out.push((remap_rel(&chased.database, db, fact.rel), positions));
            }
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Chases `bag`, the bag over `ordering`, and returns the facts containing
/// nulls as a graft template.
fn derive_template(
    db: &Database,
    bag: &Database,
    ordering: &[Value],
    ontology: &crate::ontology::Ontology,
    config: &ChaseConfig,
    arena: &mut FactArena,
) -> Result<GraftTemplate> {
    let chased = chase_in(bag, ontology, config, arena)?;
    let mut null_ids: FxHashMap<NullId, usize> = FxHashMap::default();
    let mut facts = Vec::new();
    for fact in chased.database.facts() {
        if !fact.has_null() {
            continue;
        }
        let args: Vec<TemplateArg> = fact
            .args
            .iter()
            .map(|a| match a {
                Value::Const(_) => {
                    TemplateArg::BagConst(ordering.binary_search(a).expect("a bag constant"))
                }
                Value::Null(n) => {
                    let next = null_ids.len();
                    TemplateArg::LocalNull(*null_ids.entry(*n).or_insert(next))
                }
            })
            .collect();
        facts.push((remap_rel(&chased.database, db, fact.rel), args));
    }
    Ok(GraftTemplate {
        facts,
        nulls: null_ids.len() as u32,
    })
}

/// Maps a relation id of the chased bag back to the corresponding id in `db`
/// (they coincide in practice because both schemas extend the same base, but
/// remapping by name keeps this robust).
fn remap_rel(from: &Database, to: &Database, rel: RelId) -> RelId {
    let name = from.schema().name(rel);
    to.schema()
        .relation_id(name)
        .expect("relation must exist in the target schema")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::Ontology;
    use omq_cq::ConjunctiveQuery;
    use omq_data::{Fact, Schema};
    use rustc_hash::FxHashSet;

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

    fn office_db() -> Database {
        let mut s = Schema::new();
        s.add_relation("Researcher", 1).unwrap();
        s.add_relation("HasOffice", 2).unwrap();
        s.add_relation("InBuilding", 2).unwrap();
        Database::builder(s)
            .fact("Researcher", ["mary"])
            .fact("Researcher", ["john"])
            .fact("Researcher", ["mike"])
            .fact("HasOffice", ["mary", "room1"])
            .fact("HasOffice", ["john", "room4"])
            .fact("InBuilding", ["room1", "main1"])
            .build()
            .unwrap()
    }

    #[test]
    fn running_example_structure() {
        let omq = office_omq();
        let db = office_db();
        let q = query_directed_chase(&db, &omq, &QchaseConfig::default()).unwrap();
        assert!(q.grafts > 0);
        let d0 = &q.database;
        // Original facts are preserved.
        for fact in db.facts() {
            let rel = d0.schema().relation_id(db.schema().name(fact.rel)).unwrap();
            let args: Vec<Value> = fact
                .args
                .iter()
                .map(|&v| match v {
                    Value::Const(c) => Value::Const(d0.const_id(db.const_name(c)).unwrap()),
                    n => n,
                })
                .collect();
            assert!(d0.contains_fact(&Fact::new(rel, args)));
        }
        // Saturation derives Office(room1) and Office(room4).
        let office = d0.schema().relation_id("Office").unwrap();
        assert!(d0.facts_of(office).len() >= 2);
        // Grafting gives mike an anonymous office: a HasOffice fact with a
        // null in the second position.
        let has_office = d0.schema().relation_id("HasOffice").unwrap();
        let mike = Value::Const(d0.const_id("mike").unwrap());
        assert!(d0
            .facts_with(has_office, 0, mike)
            .iter()
            .any(|&i| d0.fact(i).args[1].is_null()));
        // room4's anonymous building: an InBuilding fact from room4 to a null.
        let in_building = d0.schema().relation_id("InBuilding").unwrap();
        let room4 = Value::Const(d0.const_id("room4").unwrap());
        assert!(d0
            .facts_with(in_building, 0, room4)
            .iter()
            .any(|&i| d0.fact(i).args[1].is_null()));
    }

    #[test]
    fn memoization_reduces_work() {
        let omq = office_omq();
        // A database with many researchers: all bags of type Researcher(c) are
        // isomorphic, so the memo should be hit often.
        let mut db = Database::new(omq.data_schema().clone());
        for i in 0..50 {
            db.add_named_fact("Researcher", &[format!("r{i}")]).unwrap();
        }
        let with_memo = query_directed_chase(&db, &omq, &QchaseConfig::default()).unwrap();
        assert!(with_memo.memo_hits > 40);
        let without_memo = query_directed_chase(
            &db,
            &omq,
            &QchaseConfig {
                memoize: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(without_memo.memo_hits, 0);
        assert_eq!(with_memo.database.len(), without_memo.database.len());
    }

    #[test]
    fn empty_ontology_keeps_database() {
        let ontology = Ontology::new();
        let query = ConjunctiveQuery::parse("q(x) :- Researcher(x)").unwrap();
        let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
        let db = office_db();
        let q = query_directed_chase(&db, &omq, &QchaseConfig::default()).unwrap();
        assert_eq!(q.database.len(), db.len());
        assert_eq!(q.grafts, 0);
    }

    #[test]
    fn ground_saturation_through_intermediate_nulls() {
        // B(x) is only derivable via an intermediate existential:
        //   A(x) -> ∃y. R(x,y) ∧ C(y)      C(y) ∧ R(x,y) -> B(x)   (guard R)
        let ontology = Ontology::parse(
            "A(x) -> exists y. R(x, y), C(y)\n\
             R(x, y), C(y) -> B(x)",
        )
        .unwrap();
        let query = ConjunctiveQuery::parse("q(x) :- B(x)").unwrap();
        let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
        let mut db = Database::new(omq.data_schema().clone());
        db.add_named_fact("A", &["a"]).unwrap();
        let q = query_directed_chase(&db, &omq, &QchaseConfig::default()).unwrap();
        let b = q.database.schema().relation_id("B").unwrap();
        assert_eq!(q.database.facts_of(b).len(), 1);
        assert!(q.database.fact(q.database.facts_of(b)[0]).args[0].is_const());
    }

    #[test]
    fn derived_constants_stay_within_guarded_sets() {
        let omq = office_omq();
        let db = office_db();
        let q = query_directed_chase(&db, &omq, &QchaseConfig::default()).unwrap();
        // Every ground fact of D0 only uses constants that co-occur in some
        // original fact (guardedness).
        for fact in q.database.facts() {
            if fact.is_ground() && fact.args.len() > 1 {
                let names: Vec<String> = fact
                    .args
                    .iter()
                    .map(|&v| q.database.display_value(v))
                    .collect();
                let in_original = db.facts().iter().any(|f| {
                    let original: FxHashSet<String> =
                        f.args.iter().map(|&v| db.display_value(v)).collect();
                    names.iter().all(|n| original.contains(n))
                });
                assert!(in_original, "fact {names:?} spans guarded sets");
            }
        }
    }

    #[test]
    fn plan_reuses_memo_across_databases() {
        let omq = office_omq();
        let plan = QchasePlan::new(&omq, &QchaseConfig::default()).unwrap();
        let mut first_db = Database::new(omq.data_schema().clone());
        for i in 0..10 {
            first_db
                .add_named_fact("Researcher", &[format!("r{i}")])
                .unwrap();
        }
        let first = plan.chase(&first_db).unwrap();
        let types_after_first = plan.memoized_bag_types();
        assert!(types_after_first > 0);
        // A second database with the same shape: every bag type is already
        // memoised, so the run is all hits and discovers no new types.
        let mut second_db = Database::new(omq.data_schema().clone());
        for i in 0..25 {
            second_db
                .add_named_fact("Researcher", &[format!("s{i}")])
                .unwrap();
        }
        let second = plan.chase(&second_db).unwrap();
        assert_eq!(plan.memoized_bag_types(), types_after_first);
        assert!(second.memo_hits >= 25);
        // Results agree with the one-shot path.
        let fresh = query_directed_chase(&second_db, &omq, &QchaseConfig::default()).unwrap();
        assert_eq!(second.database.len(), fresh.database.len());
        assert_eq!(second.grafts, fresh.grafts);
        let _ = first;
    }

    #[test]
    fn chase_many_agrees_with_per_part_chases() {
        let omq = office_omq();
        let plan = QchasePlan::new(&omq, &QchaseConfig::default()).unwrap();
        let db = office_db();
        let parts = db.shard_by_component();
        assert!(parts.len() > 1);
        let batch = plan.chase_many(parts.clone()).unwrap();
        assert_eq!(batch.len(), parts.len());
        for (part, chased) in parts.iter().zip(&batch) {
            let solo = query_directed_chase(part, &omq, &QchaseConfig::default()).unwrap();
            assert_eq!(chased.database.len(), solo.database.len());
            assert_eq!(chased.grafts, solo.grafts);
        }
        // Intra-batch memoisation: a later part reuses bag types discovered
        // while chasing an earlier one, within a single snapshot/publish.
        assert!(batch.iter().skip(1).any(|c| c.memo_hits > 0));
        assert!(plan.chase_many(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn a_nullary_fact_keys_the_bag_type() {
        let ontology = Ontology::parse("P(x), Flag() -> Q(x)").unwrap();
        let query = ConjunctiveQuery::parse("q(x) :- Q(x)").unwrap();
        let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
        let plan = QchasePlan::new(&omq, &QchaseConfig::default()).unwrap();
        let derived = |flag: bool| {
            let mut db = Database::new(omq.data_schema().clone());
            db.add_named_fact("P", &["a"]).unwrap();
            if flag {
                db.add_named_fact::<&str>("Flag", &[]).unwrap();
            }
            let chased = plan.chase(&db).unwrap().database;
            let q = chased.schema().relation_id("Q").unwrap();
            chased.facts_of(q).len()
        };
        // Either order: the bag {P(a)} with `Flag()` and without are two
        // types, so neither run answers from the other's memo entry.
        assert_eq!((derived(true), derived(false)), (1, 0));
        assert_eq!((derived(false), derived(true)), (0, 1));
    }

    #[test]
    fn plan_handles_schema_layout_changes() {
        let omq = office_omq();
        let plan = QchasePlan::new(&omq, &QchaseConfig::default()).unwrap();
        let baseline = plan.chase(&office_db()).unwrap();
        // A database whose schema declares the relations in a different order
        // (different RelId layout) must not reuse the shared tables unsoundly.
        let mut s = Schema::new();
        s.add_relation("InBuilding", 2).unwrap();
        s.add_relation("Researcher", 1).unwrap();
        s.add_relation("HasOffice", 2).unwrap();
        let reordered = Database::builder(s)
            .fact("Researcher", ["mary"])
            .fact("Researcher", ["john"])
            .fact("Researcher", ["mike"])
            .fact("HasOffice", ["mary", "room1"])
            .fact("HasOffice", ["john", "room4"])
            .fact("InBuilding", ["room1", "main1"])
            .build()
            .unwrap();
        let via_plan = plan.chase(&reordered).unwrap();
        let fresh = query_directed_chase(&reordered, &omq, &QchaseConfig::default()).unwrap();
        assert_eq!(via_plan.database.len(), fresh.database.len());
        assert_eq!(via_plan.database.len(), baseline.database.len());
    }

    #[test]
    fn concurrent_warm_executions_share_the_memo_without_blocking() {
        // Regression test for the warm-path contention bug: the memo used to
        // sit behind a `Mutex`, so read-only memo hits of concurrent
        // executions serialized.  With the `RwLock` write-only-on-miss
        // protocol, warm runs take only the read lock; this test drives many
        // concurrent warm executions through one shared plan and checks that
        // they all complete with the correct result, all hit the memo, and
        // that none of them grows the tables (i.e. none took the publish
        // path, which is the only write-lock site after warm-up).
        let omq = office_omq();
        let plan = QchasePlan::new(&omq, &QchaseConfig::default()).unwrap();
        // Warm the memo with every bag type of the workload shape.
        let warmup = plan.chase(&office_db()).unwrap();
        let types = plan.memoized_bag_types();
        assert!(types > 0);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..8 {
                handles.push(scope.spawn(|| {
                    barrier.wait();
                    let mut results = Vec::new();
                    for _ in 0..16 {
                        results.push(plan.chase(&office_db()).unwrap());
                    }
                    results
                }));
            }
            for handle in handles {
                for chased in handle.join().unwrap() {
                    assert_eq!(chased.database.len(), warmup.database.len());
                    assert_eq!(chased.grafts, warmup.grafts);
                    // Every bag lookup was a memo hit.
                    assert!(chased.memo_hits > 0);
                }
            }
        });
        assert_eq!(plan.memoized_bag_types(), types);
    }

    #[test]
    fn concurrent_cold_executions_agree_with_sequential() {
        // Cold-start race: several threads populate the memo of a fresh plan
        // at once.  Whichever publish wins, every result must equal the
        // sequential chase.
        let omq = office_omq();
        let plan = QchasePlan::new(&omq, &QchaseConfig::default()).unwrap();
        let reference = query_directed_chase(&office_db(), &omq, &QchaseConfig::default()).unwrap();
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..4 {
                handles.push(scope.spawn(|| {
                    barrier.wait();
                    plan.chase(&office_db()).unwrap()
                }));
            }
            for handle in handles {
                let chased = handle.join().unwrap();
                assert_eq!(chased.database.len(), reference.database.len());
                assert_eq!(chased.grafts, reference.grafts);
            }
        });
        assert!(plan.memoized_bag_types() > 0);
    }

    /// Every group's facts, brute force: the facts whose distinct values
    /// are exactly the group's value set.
    fn facts_with_value_set(db: &Database, set: &[Value]) -> Vec<u32> {
        (0..db.len() as u32)
            .filter(|&i| {
                let mut values = db.fact(i as usize).args.clone();
                values.sort_unstable();
                values.dedup();
                values == set
            })
            .collect()
    }

    #[test]
    fn value_set_index_groups_facts_in_first_occurrence_order() {
        let mut db = office_db();
        let mut index = ValueSetIndex::default();
        index.extend(&db);
        // Researcher(mary), Researcher(john), Researcher(mike), then the
        // three binary facts: six distinct value sets.
        assert_eq!(index.groups(), 6);
        let mary = Value::Const(db.const_id("mary").unwrap());
        assert_eq!(index.value_set(0), &[mary]);
        assert_eq!(index.degree(&db, mary), 2);
        // A new fact over an old value set joins its group; a nullary fact
        // opens the empty one.
        db.add_relation("Flag", 0).unwrap();
        db.add_named_fact("HasOffice", &["mary", "mary"]).unwrap();
        db.add_named_fact::<&str>("Flag", &[]).unwrap();
        index.extend(&db);
        assert_eq!(index.groups(), 7);
        assert_eq!(index.members(0).collect::<Vec<_>>(), [0, 6]);
        assert_eq!(index.degree(&db, mary), 3);
        assert_eq!(index.nullary_facts().collect::<Vec<_>>(), [7]);
        for g in 0..index.groups() as u32 {
            assert_eq!(index.find(index.value_set(g)), Some(g));
            assert_eq!(
                index.members(g).collect::<Vec<_>>(),
                facts_with_value_set(&db, index.value_set(g))
            );
        }
        assert_eq!(
            index.find(&[mary, Value::Const(db.const_id("main1").unwrap())]),
            None
        );
    }

    /// The groups a brute-force pass finds changed by facts `from..`: those
    /// whose value set contains a new fact's, all of them after a nullary one.
    fn supersets_of_new_facts(db: &Database, index: &ValueSetIndex, from: usize) -> Vec<u32> {
        (0..index.groups() as u32)
            .filter(|&g| {
                let set = index.value_set(g);
                db.facts()[from..]
                    .iter()
                    .any(|fact| fact.args.iter().all(|a| set.contains(a)))
            })
            .collect()
    }

    #[test]
    fn changed_groups_are_the_supersets_of_the_new_value_sets() {
        let mut db = office_db();
        let mut index = ValueSetIndex::default();
        index.extend(&db);
        let (mut marked, mut dirty) = (Vec::new(), Vec::new());
        // Office(room1) opens {room1} and re-types {mary, room1} and
        // {room1, main1}; HasOffice(mike, room9) opens {mike, room9} only.
        db.add_relation("Office", 1).unwrap();
        let from = db.len();
        db.add_named_fact("Office", &["room1"]).unwrap();
        db.add_named_fact("HasOffice", &["mike", "room9"]).unwrap();
        index.extend(&db);
        index.changed_groups(&db, from, &mut marked, &mut dirty);
        assert_eq!(dirty, supersets_of_new_facts(&db, &index, from));
        assert_eq!(dirty.len(), 4);
        assert!(marked.iter().all(|&m| !m));
        // Nothing new, nothing dirty; a nullary fact is in every bag.
        index.changed_groups(&db, db.len(), &mut marked, &mut dirty);
        assert!(dirty.is_empty());
        db.add_relation("Flag", 0).unwrap();
        let from = db.len();
        db.add_named_fact::<&str>("Flag", &[]).unwrap();
        index.extend(&db);
        index.changed_groups(&db, from, &mut marked, &mut dirty);
        assert_eq!(dirty, (0..index.groups() as u32).collect::<Vec<_>>());
        assert!(marked.iter().all(|&m| !m));
    }

    #[test]
    fn saturation_rounds_follow_the_derivation_depth() {
        // A(x), R(x, y) -> A(y) over A(a0) and a chain of 40 R facts: one
        // round per link plus the one that finds nothing new.
        let ontology = Ontology::parse("A(x), R(x, y) -> A(y)").unwrap();
        let query = ConjunctiveQuery::parse("q(x) :- A(x)").unwrap();
        let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
        let mut db = Database::new(omq.data_schema().clone());
        db.add_named_fact("A", &["a0"]).unwrap();
        for i in 0..40 {
            db.add_named_fact("R", &[format!("a{i}"), format!("a{}", i + 1)])
                .unwrap();
        }
        let q = query_directed_chase(&db, &omq, &QchaseConfig::default()).unwrap();
        assert_eq!(q.saturation_rounds, 41);
        let a = q.database.schema().relation_id("A").unwrap();
        assert_eq!(q.database.facts_of(a).len(), 41);
    }

    #[test]
    fn bag_typing_takes_the_cheaper_exact_method() {
        // `hub` carries facts R(x_i, hub) for eight x_i and S(hub, z): its
        // guarded sets {x_i, hub} are typed by three subset lookups, the
        // isolated pair {a, b} by reading its two facts.
        let mut s = Schema::new();
        s.add_relation("R", 2).unwrap();
        s.add_relation("S", 2).unwrap();
        s.add_relation("U", 1).unwrap();
        let mut db = Database::new(s);
        for i in 0..8 {
            db.add_named_fact("R", &[format!("x{i}").as_str(), "hub"])
                .unwrap();
        }
        db.add_named_fact("S", &["hub", "z"]).unwrap();
        db.add_named_fact("U", &["hub"]).unwrap();
        db.add_named_fact("R", &["a", "b"]).unwrap();
        let mut index = ValueSetIndex::default();
        index.extend(&db);
        let mut typer = BagTyper::default();
        for g in 0..index.groups() as u32 {
            let set = index.value_set(g);
            let probes = typer.type_bag(&db, &index, set);
            let degrees: usize = set.iter().map(|&v| db.facts_mentioning(v).len()).sum();
            assert_eq!(probes, ((1usize << set.len()) - 1).min(degrees));
            // Either way the bag is exactly the facts over `set`.
            let mut collected = typer.facts.clone();
            collected.sort_unstable();
            let expected: Vec<u32> = (0..db.len() as u32)
                .filter(|&i| db.fact(i as usize).args.iter().all(|a| set.contains(a)))
                .collect();
            assert_eq!(collected, expected);
        }
        let hub = Value::Const(db.const_id("hub").unwrap());
        let x0 = Value::Const(db.const_id("x0").unwrap());
        let mut set = vec![x0, hub];
        set.sort_unstable();
        assert_eq!(typer.type_bag(&db, &index, &set), 3);
        // R(x0, hub) and U(hub), sorted by relation: R = 0, U = 2.
        let (x0_at, hub_at) = (
            set.binary_search(&x0).unwrap() as u32,
            set.binary_search(&hub).unwrap() as u32,
        );
        assert_eq!(typer.key, [0, x0_at, hub_at, 2, hub_at]);
        let a = Value::Const(db.const_id("a").unwrap());
        let b = Value::Const(db.const_id("b").unwrap());
        let mut pair = vec![a, b];
        pair.sort_unstable();
        assert_eq!(typer.type_bag(&db, &index, &pair), 2);
        assert_eq!(typer.facts.len(), 1);
    }

    #[test]
    fn tree_depth_is_respected() {
        // Recursive ontology: each null spawns a child null.
        let ontology = Ontology::parse("A(x) -> exists y. R(x, y), A(y)").unwrap();
        let query = ConjunctiveQuery::parse("q(x, y) :- R(x, y)").unwrap();
        let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
        let mut db = Database::new(omq.data_schema().clone());
        db.add_named_fact("A", &["a"]).unwrap();
        let shallow = query_directed_chase(
            &db,
            &omq,
            &QchaseConfig {
                tree_depth: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        let deep = query_directed_chase(
            &db,
            &omq,
            &QchaseConfig {
                tree_depth: Some(3),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(deep.database.len() > shallow.database.len());
        assert_eq!(shallow.tree_depth, 1);
        assert_eq!(deep.tree_depth, 3);
    }
}
