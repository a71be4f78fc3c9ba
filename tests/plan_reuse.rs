//! Property-based tests for the plan/instance split: a `QueryPlan` compiled
//! once and executed over N random databases must agree answer-for-answer
//! with a plan compiled for each database alone, on all three answer
//! semantics (complete, minimal partial, minimal partial multi-wildcard).
//!
//! This exercises exactly the reuse path the compile-once/execute-many
//! architecture adds: shared `PlanSkeleton`, shared chase rule-trigger
//! tables, and the dense columnar enumeration structures rebuilt per
//! database.

use omq::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The office OMQ of the running example: guarded, acyclic, free-connex.
fn office_omq() -> OntologyMediatedQuery {
    let ontology = Ontology::parse(
        "Researcher(x) -> exists y. HasOffice(x, y)\n\
         HasOffice(x, y) -> Office(y)\n\
         Office(x) -> exists y. InBuilding(x, y)",
    )
    .unwrap();
    let query =
        ConjunctiveQuery::parse("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)").unwrap();
    OntologyMediatedQuery::new(ontology, query).unwrap()
}

/// A random S-database over the office schema: researcher/office/building
/// constants wired together with random gaps, so every run mixes complete
/// chains, office-less researchers, and building-less offices.
#[derive(Debug, Clone)]
struct RandomOfficeDb {
    researchers: Vec<usize>,
    offices: Vec<(usize, usize)>,
    buildings: Vec<(usize, usize)>,
}

fn db_strategy() -> impl Strategy<Value = RandomOfficeDb> {
    (
        prop::collection::vec(0..6usize, 1..6),
        prop::collection::vec((0..6usize, 0..4usize), 0..6),
        prop::collection::vec((0..4usize, 0..3usize), 0..5),
    )
        .prop_map(|(researchers, offices, buildings)| RandomOfficeDb {
            researchers,
            offices,
            buildings,
        })
}

impl RandomOfficeDb {
    fn to_database(&self, schema: &Schema) -> Database {
        let mut builder = Database::builder(schema.clone());
        for &r in &self.researchers {
            builder = builder.fact("Researcher", [format!("p{r}")]);
        }
        for &(r, o) in &self.offices {
            builder = builder.fact("HasOffice", [format!("p{r}"), format!("o{o}")]);
        }
        for &(o, b) in &self.buildings {
            builder = builder.fact("InBuilding", [format!("o{o}"), format!("b{b}")]);
        }
        builder.build().unwrap()
    }
}

/// The answers of one semantics, rendered with constant names.
fn rendered(instance: &PreparedInstance, semantics: Semantics) -> BTreeSet<String> {
    instance
        .answers(semantics)
        .unwrap()
        .map(|a| instance.format_answer(&a))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One plan, N random databases: the reused plan agrees with a plan
    /// compiled per database on every semantics.
    #[test]
    fn plan_reuse_matches_fresh_engines(dbs in prop::collection::vec(db_strategy(), 1..4)) {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        for random_db in dbs {
            let db = random_db.to_database(omq.data_schema());
            let instance = plan.execute(&db).unwrap();
            let fresh = QueryPlan::compile(&omq).unwrap().execute(&db).unwrap();
            for semantics in Semantics::ALL {
                prop_assert_eq!(rendered(&instance, semantics), rendered(&fresh, semantics));
            }

            // Every answer set also round-trips through the single tester.
            for answer in instance.answers(Semantics::MinimalPartial).unwrap() {
                prop_assert!(instance.test(&answer).unwrap());
            }
        }
    }

    /// The chase memo accumulated by earlier executions never changes
    /// results: executing the same database before and after warming the
    /// memo on other databases yields identical answers.
    #[test]
    fn warm_memo_is_transparent(probe in db_strategy(), warmers in prop::collection::vec(db_strategy(), 0..3)) {
        let omq = office_omq();
        let cold_plan = QueryPlan::compile(&omq).unwrap();
        let warm_plan = QueryPlan::compile(&omq).unwrap();
        for warmer in &warmers {
            let db = warmer.to_database(omq.data_schema());
            warm_plan.execute(&db).unwrap();
        }
        let db = probe.to_database(omq.data_schema());
        let cold = cold_plan.execute(&db).unwrap();
        let warm = warm_plan.execute(&db).unwrap();
        prop_assert_eq!(
            rendered(&cold, Semantics::MinimalPartial),
            rendered(&warm, Semantics::MinimalPartial)
        );
        prop_assert_eq!(cold.stats().chased_facts, warm.stats().chased_facts);
    }
}

/// Deterministic spot check: the acceptance scenario — one compiled plan,
/// two structurally different databases, all semantics equal to a plan
/// compiled per database.
#[test]
fn two_distinct_databases_one_plan() {
    let omq = office_omq();
    let plan = QueryPlan::compile(&omq).unwrap();
    let db1 = Database::builder(omq.data_schema().clone())
        .fact("Researcher", ["mary"])
        .fact("Researcher", ["john"])
        .fact("Researcher", ["mike"])
        .fact("HasOffice", ["mary", "room1"])
        .fact("HasOffice", ["john", "room4"])
        .fact("InBuilding", ["room1", "main1"])
        .build()
        .unwrap();
    let db2 = Database::builder(omq.data_schema().clone())
        .fact("Researcher", ["ada"])
        .fact("HasOffice", ["ada", "lab1"])
        .fact("HasOffice", ["grace", "lab2"])
        .fact("InBuilding", ["lab2", "west"])
        .build()
        .unwrap();
    for db in [db1, db2] {
        let instance = plan.execute(&db).unwrap();
        let fresh = QueryPlan::compile(&omq).unwrap().execute(&db).unwrap();
        for semantics in Semantics::ALL {
            assert_eq!(rendered(&instance, semantics), rendered(&fresh, semantics));
        }
    }
}
