//! Randomised integration tests: the constant-delay engines must agree with
//! the brute-force chase-and-join baseline on every evaluation mode.

use omq::prelude::*;
use omq_bench::generators::{university, UniversityConfig};
use std::collections::BTreeSet;

fn prepare(omq: &OntologyMediatedQuery, db: &Database) -> PreparedInstance {
    QueryPlan::compile(omq).unwrap().execute(db).unwrap()
}

/// The answers of one semantics, rendered with constant names.
fn rendered(instance: &PreparedInstance, semantics: Semantics) -> BTreeSet<String> {
    instance
        .answers(semantics)
        .unwrap()
        .map(|a| instance.format_answer(&a))
        .collect()
}

fn render_partial(answers: &[PartialTuple], db: &Database) -> BTreeSet<String> {
    answers
        .iter()
        .map(|t| t.display_with(|c| db.const_name(c).to_owned()))
        .collect()
}

fn render_multi(answers: &[MultiTuple], db: &Database) -> BTreeSet<String> {
    answers
        .iter()
        .map(|t| t.display_with(|c| db.const_name(c).to_owned()))
        .collect()
}

fn render_complete(answers: &[Vec<Value>], db: &Database) -> BTreeSet<String> {
    answers
        .iter()
        .map(|a| {
            let names: Vec<&str> = a
                .iter()
                .map(|v| match v {
                    Value::Const(c) => db.const_name(*c),
                    Value::Null(_) => "<null>",
                })
                .collect();
            format!("({})", names.join(","))
        })
        .collect()
}

fn check_workload(config: &UniversityConfig) {
    let (omq, db) = university(config);
    let instance = prepare(&omq, &db);
    let brute = BruteForce::new(&omq, &db, &ChaseConfig::default()).expect("chase runs");

    assert_eq!(
        rendered(&instance, Semantics::Complete),
        render_complete(&brute.complete_answers(), &brute.chased),
        "complete answers, {config:?}"
    );
    assert_eq!(
        rendered(&instance, Semantics::MinimalPartial),
        render_partial(&brute.minimal_partial(), &brute.chased),
        "partial answers, {config:?}"
    );
    assert_eq!(
        rendered(&instance, Semantics::MinimalPartialMulti),
        render_multi(&brute.minimal_partial_multi(), &brute.chased),
        "multi answers, {config:?}"
    );

    // All-testing agrees with the enumerated complete answers, and
    // single-testing accepts the enumerated answers of every semantics
    // (a small prefix of each).
    let tester = instance.all_tester().unwrap();
    for answer in instance.answers(Semantics::Complete).unwrap().take(50) {
        let tuple = answer.as_complete().unwrap();
        let values: Vec<Value> = tuple.iter().map(|&c| Value::Const(c)).collect();
        assert!(tester.test(&values).unwrap());
    }
    for semantics in Semantics::ALL {
        for answer in instance.answers(semantics).unwrap().take(50) {
            assert!(instance.test(&answer).unwrap());
        }
    }
}

#[test]
fn small_workloads_all_modes_agree() {
    for seed in 0..4u64 {
        check_workload(&UniversityConfig {
            researchers: 30,
            office_ratio: 0.6,
            building_ratio: 0.5,
            buildings: 4,
            seed,
        });
    }
}

#[test]
fn fully_complete_data_has_no_wildcards() {
    let config = UniversityConfig {
        researchers: 40,
        office_ratio: 1.0,
        building_ratio: 1.0,
        buildings: 3,
        seed: 11,
    };
    let (omq, db) = university(&config);
    let instance = prepare(&omq, &db);
    let partial: Vec<Answer> = instance
        .answers(Semantics::MinimalPartial)
        .unwrap()
        .collect();
    assert!(partial.iter().all(Answer::is_complete));
    assert_eq!(
        partial.len(),
        instance.answers(Semantics::Complete).unwrap().count()
    );
    check_workload(&config);
}

#[test]
fn fully_incomplete_data_is_all_wildcards() {
    let config = UniversityConfig {
        researchers: 25,
        office_ratio: 0.0,
        building_ratio: 0.0,
        buildings: 2,
        seed: 3,
    };
    let (omq, db) = university(&config);
    let instance = prepare(&omq, &db);
    assert_eq!(instance.answers(Semantics::Complete).unwrap().count(), 0);
    let partial: Vec<PartialTuple> = instance
        .answers(Semantics::MinimalPartial)
        .unwrap()
        .filter_map(Answer::into_partial)
        .collect();
    // One answer per researcher, with both the office and the building
    // anonymous.
    assert_eq!(partial.len(), 25);
    assert!(partial.iter().all(|t| t.star_count() == 2));
    check_workload(&config);
}

#[test]
fn star_shaped_query_with_shared_nulls() {
    // A query with three atoms sharing the answer variable x; the OfficeMate
    // style ontology introduces shared nulls, exercising multi-wildcard
    // minimality.
    let ontology = Ontology::parse(
        "Seed(x) -> exists y. R(x, y), S(x, y)\n\
         Seed(x) -> exists z. T(x, z)",
    )
    .unwrap();
    let query = ConjunctiveQuery::parse("q(x, a, b, c) :- R(x, a), S(x, b), T(x, c)").unwrap();
    let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
    let db = Database::builder(omq.data_schema().clone())
        .fact("Seed", ["s1"])
        .fact("Seed", ["s2"])
        .fact("R", ["s2", "r"])
        .build()
        .unwrap();
    let instance = prepare(&omq, &db);
    let brute = BruteForce::new(&omq, &db, &ChaseConfig::default()).unwrap();
    assert_eq!(
        rendered(&instance, Semantics::MinimalPartialMulti),
        render_multi(&brute.minimal_partial_multi(), &brute.chased)
    );
    assert_eq!(
        rendered(&instance, Semantics::MinimalPartial),
        render_partial(&brute.minimal_partial(), &brute.chased)
    );
}
