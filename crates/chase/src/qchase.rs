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

use crate::arena::FactArena;
use crate::chase::{chase_in, ChaseConfig};
use crate::omq::OntologyMediatedQuery;
use crate::Result;
use omq_data::{Database, NullId, RelId, Value};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::hash_map::Entry;
use std::sync::{Mutex, RwLock};

/// Fact budget for each individual bag chase (saturation and grafting).
const MAX_BAG_FACTS: usize = 100_000;

/// Configuration of the query-directed chase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QchaseConfig {
    /// Depth of the grafted null trees.  `None` uses `max(|var(q)|, 2)`.
    pub tree_depth: Option<usize>,
    /// Depth of the bag chase used during saturation.  `None` uses
    /// `max(tree_depth, 4)`.
    pub saturation_depth: Option<usize>,
    /// Upper bound on the number of saturation rounds (safety valve).
    pub max_saturation_rounds: usize,
    /// Memoise bag chases by bag type (the linear-time trick).  Disable only
    /// for ablation experiments.
    pub memoize: bool,
}

impl Default for QchaseConfig {
    fn default() -> Self {
        QchaseConfig {
            tree_depth: None,
            saturation_depth: None,
            max_saturation_rounds: 16,
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
    /// The active domain of the *original* database.
    pub original_adom: FxHashSet<Value>,
    /// Number of grafted trees.
    pub grafts: usize,
    /// Number of saturation rounds executed.
    pub saturation_rounds: usize,
    /// Number of bag-chase memoisation hits.
    pub memo_hits: usize,
    /// `true` if saturation reached a fixpoint within the configured bound.
    pub saturation_converged: bool,
    /// The tree depth that was used for grafting.
    pub tree_depth: usize,
}

/// A canonical, data-independent signature of a bag: facts with constants
/// replaced by their index in the (sorted) bag domain.
type BagSignature = Vec<(RelId, Vec<usize>)>;

/// A grafted tree template: facts whose arguments are either an index into the
/// bag domain or a local null identifier.
#[derive(Debug, Clone)]
enum TemplateArg {
    BagConst(usize),
    LocalNull(usize),
}

type GraftTemplate = Vec<(RelId, Vec<TemplateArg>)>;

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
    /// Recycled staging arenas: each [`QchasePlan::chase_many`] call checks
    /// out a pair (round staging + bag chases), so the per-round and per-bag
    /// staging buffers are allocated once per concurrent execution, not once
    /// per chase.
    arenas: Mutex<Vec<FactArena>>,
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
            arenas: Mutex::new(Vec::new()),
        })
    }

    /// Checks a cleared arena out of the pool (or makes a fresh one).
    fn acquire_arena(&self) -> FactArena {
        self.arenas
            .lock()
            .expect("qchase arena pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns an arena to the pool for the next `chase_many` call.
    fn release_arena(&self, mut arena: FactArena) {
        arena.clear();
        self.arenas
            .lock()
            .expect("qchase arena pool poisoned")
            .push(arena);
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
        // One pair of pooled staging arenas serves the whole batch: `stage`
        // buffers each saturation round / graft batch, `bag_arena` is threaded
        // through every bag chase.
        let mut stage = self.acquire_arena();
        let mut bag_arena = self.acquire_arena();
        let mut out = Vec::with_capacity(parts.len());
        for part in parts {
            let chased = self.chase_prepared(
                part,
                &mut local.ground,
                &mut local.graft,
                &mut stage,
                &mut bag_arena,
            );
            match chased {
                Ok(chased) => out.push(chased),
                Err(e) => {
                    self.release_arena(stage);
                    self.release_arena(bag_arena);
                    return Err(e);
                }
            }
        }
        self.release_arena(stage);
        self.release_arena(bag_arena);
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
        ground_memo: &mut FxHashMap<BagSignature, Vec<(RelId, Vec<usize>)>>,
        graft_memo: &mut FxHashMap<BagSignature, GraftTemplate>,
        stage: &mut FactArena,
        bag_arena: &mut FactArena,
    ) -> Result<QueryDirectedChase> {
        let ontology = self.omq.ontology();
        let config = &self.config;
        let original_adom: FxHashSet<Value> = result.adom().iter().copied().collect();

        let mut memo_hits = 0usize;

        // -------- Phase 1: guarded saturation of the database part. --------
        let mut saturation_rounds = 0usize;
        let mut saturation_converged = false;
        let saturation_config = ChaseConfig {
            max_depth: self.saturation_depth,
            max_facts: MAX_BAG_FACTS,
        };
        let mut scratch: Vec<Value> = Vec::new();
        while saturation_rounds < config.max_saturation_rounds {
            saturation_rounds += 1;
            stage.clear();
            let mut seen_bags: FxHashSet<Vec<Value>> = FxHashSet::default();
            let fact_count = result.len();
            for idx in 0..fact_count {
                let guard_values = sorted_values(&result.fact(idx).args);
                if !seen_bags.insert(guard_values.clone()) {
                    continue;
                }
                let (signature, ordering) = bag_signature(&result, &guard_values);
                let derived_cold;
                let derived: &[(RelId, Vec<usize>)] = if config.memoize {
                    match ground_memo.entry(signature) {
                        Entry::Occupied(cached) => {
                            memo_hits += 1;
                            cached.into_mut()
                        }
                        Entry::Vacant(slot) => slot.insert(derive_ground(
                            &result,
                            &ordering,
                            ontology,
                            &saturation_config,
                            bag_arena,
                        )?),
                    }
                } else {
                    derived_cold =
                        derive_ground(&result, &ordering, ontology, &saturation_config, bag_arena)?;
                    &derived_cold
                };
                for (rel, positions) in derived {
                    scratch.clear();
                    scratch.extend(positions.iter().map(|&i| ordering[i]));
                    if !result.contains_fact_ref(*rel, &scratch) {
                        stage.push_fact(*rel, &scratch);
                    }
                }
            }
            if stage.is_empty() {
                saturation_converged = true;
                break;
            }
            stage.flush_into(&mut result)?;
            // Adding facts can change bag types, so the memo must be kept
            // keyed by full bag signatures (it is) — no invalidation needed.
        }

        // -------- Phase 2: graft null trees below every guarded set. --------
        let graft_config = ChaseConfig {
            max_depth: self.tree_depth,
            max_facts: MAX_BAG_FACTS,
        };
        let mut grafted_sets: FxHashSet<Vec<Value>> = FxHashSet::default();
        let mut grafts = 0usize;
        let fact_count = result.len();
        stage.clear();
        for idx in 0..fact_count {
            let guard_values = sorted_values(&result.fact(idx).args);
            if !grafted_sets.insert(guard_values.clone()) {
                continue;
            }
            let (signature, ordering) = bag_signature(&result, &guard_values);
            let template_cold;
            let template: &GraftTemplate = if config.memoize {
                match graft_memo.entry(signature) {
                    Entry::Occupied(cached) => {
                        memo_hits += 1;
                        cached.into_mut()
                    }
                    Entry::Vacant(slot) => slot.insert(derive_template(
                        &result,
                        &ordering,
                        ontology,
                        &graft_config,
                        bag_arena,
                    )?),
                }
            } else {
                template_cold =
                    derive_template(&result, &ordering, ontology, &graft_config, bag_arena)?;
                &template_cold
            };
            if template.is_empty() {
                continue;
            }
            grafts += 1;
            // Instantiate the template with fresh nulls.
            let mut null_map: FxHashMap<usize, NullId> = FxHashMap::default();
            for (rel, args) in template {
                scratch.clear();
                scratch.extend(args.iter().map(|a| match a {
                    TemplateArg::BagConst(i) => ordering[*i],
                    TemplateArg::LocalNull(n) => {
                        let id = *null_map.entry(*n).or_insert_with(|| result.fresh_null());
                        Value::Null(id)
                    }
                }));
                stage.push_fact(*rel, &scratch);
            }
        }
        stage.flush_into(&mut result)?;

        Ok(QueryDirectedChase {
            database: result,
            original_adom,
            grafts,
            saturation_rounds,
            memo_hits,
            saturation_converged,
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

fn sorted_values(args: &[Value]) -> Vec<Value> {
    let mut values: Vec<Value> = args.to_vec();
    values.sort();
    values.dedup();
    values
}

/// Computes the canonical signature of the bag over `values` together with the
/// ordering of the bag domain used by the signature.
fn bag_signature(db: &Database, values: &[Value]) -> (BagSignature, Vec<Value>) {
    let ordering: Vec<Value> = values.to_vec();
    let index: FxHashMap<Value, usize> =
        ordering.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let keep: FxHashSet<Value> = ordering.iter().copied().collect();
    let mut signature: BagSignature = Vec::new();
    // Collect the facts over the bag domain via the value index of the
    // database (linear in the number of such facts).
    let mut fact_indices: FxHashSet<usize> = FxHashSet::default();
    for v in &ordering {
        for &idx in db.facts_mentioning(*v) {
            fact_indices.insert(idx);
        }
    }
    for idx in fact_indices {
        let fact = db.fact(idx);
        if fact.args.iter().all(|a| keep.contains(a)) {
            signature.push((fact.rel, fact.args.iter().map(|a| index[a]).collect()));
        }
    }
    signature.sort();
    (signature, ordering)
}

/// Chases the bag over `ordering` and returns the derived ground facts as
/// positional patterns.
fn derive_ground(
    db: &Database,
    ordering: &[Value],
    ontology: &crate::ontology::Ontology,
    config: &ChaseConfig,
    arena: &mut FactArena,
) -> Result<Vec<(RelId, Vec<usize>)>> {
    let keep: FxHashSet<Value> = ordering.iter().copied().collect();
    let bag = db.restrict_to(&keep);
    let chased = chase_in(&bag, ontology, config, arena)?;
    let index: FxHashMap<Value, usize> =
        ordering.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut out = Vec::new();
    for fact in chased.database.facts() {
        if fact.is_ground() && fact.args.iter().all(|a| index.contains_key(a)) {
            // The relation ids of the bag coincide with those of `db` because
            // `restrict_to` clones the schema and `chase` only appends new
            // relations after the existing ones.
            let positions: Vec<usize> = fact.args.iter().map(|a| index[a]).collect();
            if !bag.contains_fact(fact) {
                out.push((remap_rel(&chased.database, db, fact.rel), positions));
            }
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Chases the bag over `ordering` and returns the facts containing nulls as a
/// graft template.
fn derive_template(
    db: &Database,
    ordering: &[Value],
    ontology: &crate::ontology::Ontology,
    config: &ChaseConfig,
    arena: &mut FactArena,
) -> Result<GraftTemplate> {
    let keep: FxHashSet<Value> = ordering.iter().copied().collect();
    let bag = db.restrict_to(&keep);
    let chased = chase_in(&bag, ontology, config, arena)?;
    let index: FxHashMap<Value, usize> =
        ordering.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut null_ids: FxHashMap<NullId, usize> = FxHashMap::default();
    let mut out: GraftTemplate = Vec::new();
    for fact in chased.database.facts() {
        if !fact.has_null() {
            continue;
        }
        let args: Vec<TemplateArg> = fact
            .args
            .iter()
            .map(|a| match a {
                Value::Const(_) => TemplateArg::BagConst(index[a]),
                Value::Null(n) => {
                    let next = null_ids.len();
                    TemplateArg::LocalNull(*null_ids.entry(*n).or_insert(next))
                }
            })
            .collect();
        out.push((remap_rel(&chased.database, db, fact.rel), args));
    }
    Ok(out)
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
        assert!(q.saturation_converged);
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
