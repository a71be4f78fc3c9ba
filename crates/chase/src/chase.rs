//! The (bounded, fair, oblivious) chase.
//!
//! The chase makes the consequences of a set of TGDs explicit in an instance.
//! For guarded TGDs the chase may be infinite, so this implementation bounds
//! the *depth* of generated nulls (the number of chase steps separating a null
//! from the database constants) and reports whether the bound was hit.  The
//! bounded chase is the evaluation oracle of the brute-force baselines and of
//! the property tests; the production path of the library uses the
//! query-directed chase of [`crate::qchase`] instead.

use crate::arena::FactArena;
use crate::error::ChaseError;
use crate::ontology::Ontology;
use crate::Result;
use omq_cq::{Assignment, HomSearch, Term};
use omq_data::{Database, NullId, Value};
use rustc_hash::{FxHashMap, FxHashSet};

/// Configuration of the bounded chase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaseConfig {
    /// Maximal depth of generated nulls.  Database constants have depth 0; a
    /// null created by a trigger whose body only uses depth-`d` values has
    /// depth `d + 1`.  Triggers that would create deeper nulls are not fired.
    pub max_depth: usize,
    /// Safety budget on the total number of facts.
    pub max_facts: usize,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            max_depth: 6,
            max_facts: 1_000_000,
        }
    }
}

/// The result of a bounded chase.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    /// The chased instance (input database plus derived facts).
    pub database: Database,
    /// Depth of each generated null.
    pub null_depth: FxHashMap<NullId, usize>,
    /// `true` iff some applicable trigger was suppressed by the depth bound.
    pub truncated: bool,
    /// Number of chase steps performed.
    pub steps: usize,
}

/// Runs the bounded fair oblivious chase of `db` with `ontology`.
pub fn chase(db: &Database, ontology: &Ontology, config: &ChaseConfig) -> Result<ChaseResult> {
    let mut arena = FactArena::new();
    chase_in(db, ontology, config, &mut arena)
}

/// [`chase`] staging each round's derived facts in a caller-provided
/// [`FactArena`] instead of a throwaway `Vec<Fact>`.  The arena is cleared on
/// entry and left cleared on success, so one arena can serve many chases —
/// the query-directed chase pools arenas across its (thousands of) bag
/// chases, paying the staging allocation once per pool entry instead of once
/// per derived fact.
pub fn chase_in(
    db: &Database,
    ontology: &Ontology,
    config: &ChaseConfig,
    arena: &mut FactArena,
) -> Result<ChaseResult> {
    let mut result = db.clone();
    // Make sure every relation symbol of the ontology exists in the schema.
    let mut relations: Vec<(String, usize)> = ontology.relations()?.into_iter().collect();
    relations.sort();
    for (name, arity) in relations {
        result.add_relation(&name, arity)?;
    }

    let body_queries: Vec<_> = ontology.tgds().iter().map(|t| t.body_query()).collect();
    let mut applied: FxHashSet<(usize, Vec<(u32, Value)>)> = FxHashSet::default();
    let mut null_depth: FxHashMap<NullId, usize> = FxHashMap::default();
    let mut truncated = false;
    let mut steps = 0usize;

    let mut scratch: Vec<Value> = Vec::new();
    loop {
        arena.clear();
        let mut new_nulls: Vec<(NullId, usize)> = Vec::new();
        for (tgd_idx, tgd) in ontology.tgds().iter().enumerate() {
            let body_query = &body_queries[tgd_idx];
            // A TGD with an empty body has the single empty trigger.
            let triggers: Vec<Assignment> = if tgd.body().is_empty() {
                vec![Assignment::default()]
            } else {
                HomSearch::new(body_query, &result).find_all(&Assignment::default())
            };
            for hom in triggers {
                let mut key: Vec<(u32, Value)> = hom.iter().map(|(v, val)| (v.0, *val)).collect();
                key.sort_unstable();
                if applied.contains(&(tgd_idx, key.clone())) {
                    continue;
                }
                let trigger_depth = key
                    .iter()
                    .map(|(_, val)| match val {
                        Value::Const(_) => 0,
                        Value::Null(n) => null_depth.get(n).copied().unwrap_or(0),
                    })
                    .max()
                    .unwrap_or(0);
                if trigger_depth >= config.max_depth {
                    truncated = true;
                    continue;
                }
                applied.insert((tgd_idx, key));
                steps += 1;

                // Fresh nulls for the existential variables.
                let mut extension = hom.clone();
                for ev in tgd.existential_vars() {
                    let null = result.fresh_null();
                    new_nulls.push((null, trigger_depth + 1));
                    null_depth.insert(null, trigger_depth + 1);
                    extension.insert(ev, Value::Null(null));
                }
                for atom in tgd.head() {
                    let rel = result.schema().require(&atom.relation)?;
                    scratch.clear();
                    scratch.extend(atom.terms.iter().map(|t| match t {
                        Term::Var(v) => extension[v],
                        Term::Const(_) => unreachable!("TGDs have no constants"),
                    }));
                    arena.push_fact(rel, &scratch);
                }
            }
        }
        if arena.is_empty() {
            break;
        }
        arena.flush_into(&mut result)?;
        if result.len() > config.max_facts {
            return Err(ChaseError::ChaseBudgetExceeded {
                max_facts: config.max_facts,
            });
        }
        let _ = new_nulls;
    }
    arena.clear();

    Ok(ChaseResult {
        database: result,
        null_depth,
        truncated,
        steps,
    })
}

/// Checks whether `db` satisfies every TGD of `ontology` (every trigger's head
/// is realised by some extension).
pub fn satisfies(db: &Database, ontology: &Ontology) -> bool {
    for tgd in ontology.tgds() {
        let body_query = tgd.body_query();
        let triggers: Vec<Assignment> = if tgd.body().is_empty() {
            vec![Assignment::default()]
        } else {
            HomSearch::new(&body_query, db).find_all(&Assignment::default())
        };
        // Build the head as a query whose variables coincide with the TGD's.
        let mut head_query = omq_cq::ConjunctiveQuery::empty("head");
        for name in tgd.var_names() {
            head_query.var(name);
        }
        for atom in tgd.head() {
            head_query.push_atom(atom.clone());
        }
        let head_search = HomSearch::new(&head_query, db);
        for hom in triggers {
            // Restrict the trigger to the frontier: the head must be
            // satisfiable with the frontier fixed.
            let frontier: Assignment = tgd.frontier().into_iter().map(|v| (v, hom[&v])).collect();
            if !head_search.exists(&frontier) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_data::Schema;

    fn office_ontology() -> Ontology {
        Ontology::parse(
            "Researcher(x) -> exists y. HasOffice(x, y)\n\
             HasOffice(x, y) -> Office(y)\n\
             Office(x) -> exists y. InBuilding(x, y)",
        )
        .unwrap()
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
    fn chase_running_example() {
        let result = chase(&office_db(), &office_ontology(), &ChaseConfig::default()).unwrap();
        let db = &result.database;
        assert!(db.has_nulls());
        // Every researcher has an office in some building in every model, so
        // the chase must contain a HasOffice fact for mike with a null.
        let has_office = db.schema().relation_id("HasOffice").unwrap();
        let mike = Value::Const(db.const_id("mike").unwrap());
        let mike_offices = db.facts_with(has_office, 0, mike);
        assert_eq!(mike_offices.len(), 1);
        assert!(db.fact(mike_offices[0]).args[1].is_null());
        // Office(room1) and Office(room4) are derived.
        let office = db.schema().relation_id("Office").unwrap();
        assert!(db.facts_of(office).len() >= 2);
        assert!(!result.truncated);
        assert!(result.steps > 0);
        assert!(satisfies(db, &office_ontology()));
    }

    #[test]
    fn oblivious_chase_fires_even_if_head_satisfied() {
        // mary already has an office, yet the oblivious chase introduces an
        // additional null office for her.
        let result = chase(&office_db(), &office_ontology(), &ChaseConfig::default()).unwrap();
        let db = &result.database;
        let has_office = db.schema().relation_id("HasOffice").unwrap();
        let mary = Value::Const(db.const_id("mary").unwrap());
        assert!(db.facts_with(has_office, 0, mary).len() >= 2);
    }

    #[test]
    fn recursive_ontology_is_truncated() {
        let ontology = Ontology::parse("A(x) -> exists y. R(x, y)\nR(x, y) -> A(y)").unwrap();
        let mut s = Schema::new();
        s.add_relation("A", 1).unwrap();
        let db = Database::builder(s).fact("A", ["a"]).build().unwrap();
        let config = ChaseConfig {
            max_depth: 3,
            ..ChaseConfig::default()
        };
        let result = chase(&db, &ontology, &config).unwrap();
        assert!(result.truncated);
        // Depth bound 3: nulls at depth 1, 2, 3 exist.
        assert_eq!(result.null_depth.values().copied().max().unwrap_or(0), 3);
    }

    #[test]
    fn chase_budget_is_enforced() {
        let ontology = Ontology::parse("A(x) -> exists y. A(y)").unwrap();
        let mut s = Schema::new();
        s.add_relation("A", 1).unwrap();
        let db = Database::builder(s).fact("A", ["a"]).build().unwrap();
        let config = ChaseConfig {
            max_depth: usize::MAX,
            max_facts: 50,
        };
        assert!(matches!(
            chase(&db, &ontology, &config),
            Err(ChaseError::ChaseBudgetExceeded { .. })
        ));
    }

    #[test]
    fn empty_ontology_is_identity() {
        let db = office_db();
        let result = chase(&db, &Ontology::new(), &ChaseConfig::default()).unwrap();
        assert_eq!(result.database.len(), db.len());
        assert_eq!(result.steps, 0);
        assert!(!result.truncated);
    }

    #[test]
    fn true_body_tgd_fires_once() {
        let ontology = Ontology::parse("true -> exists x. Init(x)").unwrap();
        let mut s = Schema::new();
        s.add_relation("Seed", 1).unwrap();
        let db = Database::builder(s).fact("Seed", ["s"]).build().unwrap();
        let result = chase(&db, &ontology, &ChaseConfig::default()).unwrap();
        let init = result.database.schema().relation_id("Init").unwrap();
        assert_eq!(result.database.facts_of(init).len(), 1);
    }

    #[test]
    fn satisfies_detects_violations() {
        let ontology = office_ontology();
        let db = office_db();
        // The raw database does not satisfy the ontology (mike has no office).
        assert!(!satisfies(&db, &ontology));
    }

    #[test]
    fn frontier_propagation_keeps_constants() {
        let ontology = Ontology::parse("HasOffice(x, y) -> Office(y)").unwrap();
        let db = office_db();
        let result = chase(&db, &ontology, &ChaseConfig::default()).unwrap();
        let office = result.database.schema().relation_id("Office").unwrap();
        let room1 = Value::Const(result.database.const_id("room1").unwrap());
        assert_eq!(result.database.facts_with(office, 0, room1).len(), 1);
    }
}
