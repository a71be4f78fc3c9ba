//! End-to-end integration tests reproducing the worked examples of the paper.

use omq::prelude::*;
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

fn set_of(answers: &[&str]) -> BTreeSet<String> {
    answers.iter().map(|s| (*s).to_owned()).collect()
}

fn office_db(omq: &OntologyMediatedQuery) -> Database {
    Database::builder(omq.data_schema().clone())
        .fact("Researcher", ["mary"])
        .fact("Researcher", ["john"])
        .fact("Researcher", ["mike"])
        .fact("HasOffice", ["mary", "room1"])
        .fact("HasOffice", ["john", "room4"])
        .fact("InBuilding", ["room1", "main1"])
        .build()
        .unwrap()
}

fn office_ontology_text() -> &'static str {
    "Researcher(x) -> exists y. HasOffice(x, y)\n\
     HasOffice(x, y) -> Office(y)\n\
     Office(x) -> exists y. InBuilding(x, y)"
}

/// Example 1.1: the minimal partial answers of the running example.
#[test]
fn example_1_1_minimal_partial_answers() {
    let ontology = Ontology::parse(office_ontology_text()).unwrap();
    let query =
        ConjunctiveQuery::parse("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)").unwrap();
    let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
    let db = office_db(&omq);
    let instance = prepare(&omq, &db);
    assert_eq!(
        rendered(&instance, Semantics::MinimalPartial),
        set_of(&["(mary,room1,main1)", "(john,room4,*)", "(mike,*,*)"])
    );
    // The traditional certain answers are a subset of the minimal partial
    // answers (Q(D) ⊆ Q(D)*).
    assert_eq!(
        rendered(&instance, Semantics::Complete),
        set_of(&["(mary,room1,main1)"])
    );
}

/// Example 2.2 (first part): the multi-wildcard answers of the running
/// example.
#[test]
fn example_2_2_multi_wildcard_answers() {
    let ontology = Ontology::parse(office_ontology_text()).unwrap();
    let query =
        ConjunctiveQuery::parse("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)").unwrap();
    let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
    let db = office_db(&omq);
    assert_eq!(
        rendered(&prepare(&omq, &db), Semantics::MinimalPartialMulti),
        set_of(&["(mary,room1,main1)", "(john,room4,*1)", "(mike,*1,*2)"])
    );
}

/// Example 2.2 (second part): the `Prof` / `LargeOffice` extension `Q'` where
/// the same anonymous office occurs twice in a minimal answer.
#[test]
fn example_2_2_prof_extension() {
    let ontology = Ontology::parse(&format!(
        "{}\nProf(x), HasOffice(x, y) -> LargeOffice(y)",
        office_ontology_text()
    ))
    .unwrap();
    let query = ConjunctiveQuery::parse(
        "q(x1, x2, x3, x4) :- HasOffice(x1, x2), LargeOffice(x2), HasOffice(x1, x3), InBuilding(x3, x4)",
    )
    .unwrap();
    let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
    let mut db = office_db(&omq);
    db.add_named_fact("Prof", &["mike"]).unwrap();
    let instance = prepare(&omq, &db);
    let rendered = rendered(&instance, Semantics::MinimalPartialMulti);
    // The paper: Q'(D')^W contains (mike, *1, *1, *2) but not the
    // non-minimal (mike, *1, *2, *3).
    assert!(
        rendered.contains("(mike,*1,*1,*2)"),
        "answers: {rendered:?}"
    );
    assert!(!rendered.contains("(mike,*1,*2,*3)"));
    // Single-testing agrees.
    let mike = MultiValue::Const(instance.resolve(&["mike"]).unwrap()[0]);
    let minimal = MultiTuple(vec![
        mike,
        MultiValue::Wild(1),
        MultiValue::Wild(1),
        MultiValue::Wild(2),
    ]);
    assert!(instance.test(&Answer::Multi(minimal)).unwrap());
    let non_minimal = MultiTuple(vec![
        mike,
        MultiValue::Wild(1),
        MultiValue::Wild(2),
        MultiValue::Wild(3),
    ]);
    assert!(!instance.test(&Answer::Multi(non_minimal)).unwrap());
}

/// Example 2.2 (third part): the `OfficeMate` extension `Q''` where two named
/// people share an anonymous office/building.
#[test]
fn example_2_2_office_mate_extension() {
    let ontology = Ontology::parse(&format!(
        "{}\nOfficeMate(x, y) -> exists z. HasOffice(x, z), HasOffice(y, z)",
        office_ontology_text()
    ))
    .unwrap();
    let query = ConjunctiveQuery::parse(
        "q(x1, x2, x3, x4) :- HasOffice(x1, x3), HasOffice(x2, x4), InBuilding(x3, w), InBuilding(x4, w)",
    )
    .unwrap();
    let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
    let mut db = office_db(&omq);
    db.add_named_fact("OfficeMate", &["mary", "mike"]).unwrap();
    let instance = prepare(&omq, &db);

    // Q'' is acyclic but not free-connex acyclic (the quantified building
    // variable connects x3 and x4), so constant-delay enumeration is not
    // available — the engine says so — but single-testing (Theorem 3.1(3))
    // still applies.
    assert!(!omq.classify().free_connex_acyclic);
    assert!(instance.answers(Semantics::MinimalPartialMulti).is_err());

    let mary = instance.resolve(&["mary"]).unwrap()[0];
    let mike = instance.resolve(&["mike"]).unwrap()[0];
    // Q''(D'')^W contains (mary, mike, *1, *1): the office mates share an
    // anonymous office and hence a building.
    let shared = MultiTuple(vec![
        MultiValue::Const(mary),
        MultiValue::Const(mike),
        MultiValue::Wild(1),
        MultiValue::Wild(1),
    ]);
    assert!(instance.test(&Answer::Multi(shared)).unwrap());
    // The brute-force oracle confirms it as well.
    let brute = BruteForce::new(&omq, &db, &ChaseConfig::default()).unwrap();
    let rendered: BTreeSet<String> = brute
        .minimal_partial_multi()
        .iter()
        .map(|t| t.display_with(|c| brute.chased.const_name(c).to_owned()))
        .collect();
    assert!(
        rendered.contains("(mary,mike,*1,*1)"),
        "answers: {rendered:?}"
    );
}

/// Example 3.5: rewriting an OMQ into an equivalent self-join-free OMQ by
/// introducing copies of the relation symbols preserves the answers.
#[test]
fn example_3_5_self_join_free_rewriting() {
    // Original: a query with a self join.
    let ontology = Ontology::parse("A(x) -> exists y. R(x, y)").unwrap();
    let query = ConjunctiveQuery::parse("q(x, y, z) :- R(x, y), R(y, z)").unwrap();
    let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
    assert!(!omq.query().is_self_join_free());

    // Rewritten: each atom gets its own fresh symbol, linked by TGDs in both
    // directions.
    let ontology2 = Ontology::parse(
        "A(x) -> exists y. R(x, y)\n\
         R(x, y) -> R1(x, y)\n\
         R1(x, y) -> R(x, y)\n\
         R(x, y) -> R2(x, y)\n\
         R2(x, y) -> R(x, y)",
    )
    .unwrap();
    let query2 = ConjunctiveQuery::parse("q(x, y, z) :- R1(x, y), R2(y, z)").unwrap();
    let omq2 =
        OntologyMediatedQuery::with_data_schema(ontology2, omq.data_schema().clone(), query2)
            .unwrap();
    assert!(omq2.query().is_self_join_free());

    let db = Database::builder(omq.data_schema().clone())
        .fact("A", ["a"])
        .fact("R", ["a", "b"])
        .fact("R", ["b", "c"])
        .build()
        .unwrap();
    let brute1 = BruteForce::new(&omq, &db, &ChaseConfig::default()).unwrap();
    let brute2 = BruteForce::new(&omq2, &db, &ChaseConfig::default()).unwrap();
    let answers1: BTreeSet<String> = brute1
        .minimal_partial()
        .iter()
        .map(|t| t.display_with(|c| brute1.chased.const_name(c).to_owned()))
        .collect();
    let answers2: BTreeSet<String> = brute2
        .minimal_partial()
        .iter()
        .map(|t| t.display_with(|c| brute2.chased.const_name(c).to_owned()))
        .collect();
    assert_eq!(answers1, answers2);
}

/// Example C.6: a non-acyclic, self-join-free OMQ from (G, CQ) that is
/// nevertheless easy because the ontology makes it equivalent to an atomic
/// query — the triangle exists below every A-element.
#[test]
fn example_c_6_guarded_triangle_is_easy() {
    let ontology = Ontology::parse("A(x) -> exists y, z. R(x, y), S(y, z), T(z, x)").unwrap();
    let query = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y, z), T(z, x)").unwrap();
    let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
    assert!(!omq.classify().acyclic);
    let db = Database::builder(omq.data_schema().clone())
        .fact("A", ["a"])
        .fact("A", ["b"])
        .build()
        .unwrap();
    // Q ≡ (∅, S, A(x)): every A-element is an answer.
    let brute = BruteForce::new(&omq, &db, &ChaseConfig::default()).unwrap();
    let answers = brute.complete_answers();
    assert_eq!(answers.len(), 2);
}

/// Disconnected queries (as used in Proposition 4.5's construction, where the
/// extra answer variables live in their own connected component) are handled
/// by the engine: the answer set is the cross product of the component
/// answers.
#[test]
fn disconnected_queries_are_supported() {
    let ontology = Ontology::parse("A1(x) -> A2(x)\nB1(x) -> B2(x)\nC1(x) -> C2(x)").unwrap();
    let query = ConjunctiveQuery::parse(
        "q(x1, y1, x2, y2, z2) :- L(x1, y1), A1(x1), A2(x2), B2(y2), C2(z2)",
    )
    .unwrap();
    let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
    let db = Database::builder(omq.data_schema().clone())
        .fact("L", ["a", "b"])
        .fact("L", ["a", "c"])
        .fact("A1", ["a"])
        .fact("B1", ["b"])
        .fact("C1", ["c"])
        .build()
        .unwrap();
    let fast = rendered(&prepare(&omq, &db), Semantics::Complete);
    let brute = BruteForce::new(&omq, &db, &ChaseConfig::default()).unwrap();
    let slow: BTreeSet<String> = brute
        .complete_answers()
        .iter()
        .map(|a| {
            let names: Vec<&str> = a
                .iter()
                .map(|v| match v {
                    Value::Const(c) => brute.chased.const_name(*c),
                    Value::Null(_) => unreachable!(),
                })
                .collect();
            format!("({})", names.join(","))
        })
        .collect();
    assert_eq!(fast, slow);
    assert!(!fast.is_empty());
}

/// Proposition 2.1: complete answers can always be produced first.
#[test]
fn proposition_2_1_complete_answers_first() {
    let ontology = Ontology::parse(office_ontology_text()).unwrap();
    let query =
        ConjunctiveQuery::parse("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)").unwrap();
    let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
    let db = office_db(&omq);
    let plan = QueryPlan::compile(&omq).unwrap();
    let sharded = plan.execute_tracked(&db).unwrap();
    // One shard per researcher's Gaifman component.
    assert_eq!(sharded.shards().len(), 3);
    for instance in [prepare(&omq, &db), sharded] {
        let ordered = instance.enumerate_minimal_partial_complete_first().unwrap();
        let first_wildcard = ordered.iter().position(|t| !t.is_complete());
        let complete_count = ordered.iter().filter(|t| t.is_complete()).count();
        assert_eq!(
            complete_count,
            instance.answers(Semantics::Complete).unwrap().count()
        );
        if let Some(cut) = first_wildcard {
            assert!(ordered[..cut].iter().all(Answer::is_complete));
            assert!(ordered[cut..].iter().all(|t| !t.is_complete()));
        }
        // Exactly Algorithm 1's answers, the complete ones stably moved to
        // the front.
        let (complete, wildcard): (Vec<Answer>, Vec<Answer>) = instance
            .answers(Semantics::MinimalPartial)
            .unwrap()
            .partition(Answer::is_complete);
        assert!(!complete.is_empty() && !wildcard.is_empty());
        assert_eq!(ordered, [complete, wildcard].concat());
    }
}

/// Lemma 2.3 / Lemma 3.2: evaluating over the query-directed chase gives the
/// same minimal partial answers as evaluating over the (bounded) full chase.
#[test]
fn lemma_3_2_query_directed_chase_preserves_answers() {
    let ontology = Ontology::parse(office_ontology_text()).unwrap();
    let query =
        ConjunctiveQuery::parse("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)").unwrap();
    let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
    let db = office_db(&omq);

    let chased = query_directed_chase(&db, &omq, &QchaseConfig::default()).unwrap();
    let over_qchase = omq_core::baseline::cq_minimal_partial(omq.query(), &chased.database);
    let brute = BruteForce::new(&omq, &db, &ChaseConfig::default()).unwrap();
    let over_full = brute.minimal_partial();

    let render = |answers: &[PartialTuple], db: &Database| -> BTreeSet<String> {
        answers
            .iter()
            .map(|t| t.display_with(|c| db.const_name(c).to_owned()))
            .collect()
    };
    assert_eq!(
        render(&over_qchase, &chased.database),
        render(&over_full, &brute.chased)
    );
}

/// Proposition 3.3: the query-directed chase is linear in `|D|` — checked in
/// counts, not on a clock.  One compiled plan over `university` at n, 2n and
/// 4n researchers: the chase output and the grafted null trees grow in
/// proportion to the input, and the memoised bag types stop growing after the
/// first database, because they depend on the ontology and the query alone —
/// which is why the chase is linear.
#[test]
fn proposition_3_3_chase_output_is_linear_in_counts() {
    use omq_bench::generators::{university, UniversityConfig};

    let (omq, _) = university(&UniversityConfig::default());
    let plan = QueryPlan::compile(&omq).unwrap();
    let mut per_size = Vec::new();
    for researchers in [500, 1_000, 2_000] {
        let (_, db) = university(&UniversityConfig {
            researchers,
            ..Default::default()
        });
        let stats = *plan.execute(&db).unwrap().stats();
        assert_eq!(stats.input_facts, db.len());
        per_size.push((stats, plan.chase_plan().memoized_bag_types()));
    }

    let (base, bag_types) = per_size[0];
    assert!(base.input_facts > 0 && base.chased_facts > base.input_facts && base.grafts > 0);
    assert!(bag_types > 0);
    for (stats, types) in &per_size[1..] {
        assert_eq!(*types, bag_types, "bag types must not depend on |D|");
        let growth = stats.input_facts as f64 / base.input_facts as f64;
        for (name, now, then) in [
            ("chased_facts", stats.chased_facts, base.chased_facts),
            ("grafts", stats.grafts, base.grafts),
        ] {
            let ratio = now as f64 / (then as f64 * growth);
            assert!(
                (0.9..=1.1).contains(&ratio),
                "{name} grew {ratio:.3}× as fast as the input ({then} → {now}, input ×{growth:.2})"
            );
        }
    }
}
