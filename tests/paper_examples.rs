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
/// 4n researchers: the chase output, the grafted null trees and the work of
/// typing bags grow in proportion to the input, and the memoised bag types
/// stop growing after the
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
            ("bag_probes", stats.bag_probes, base.bag_probes),
        ] {
            let ratio = now as f64 / (then as f64 * growth);
            assert!(
                (0.9..=1.1).contains(&ratio),
                "{name} grew {ratio:.3}× as fast as the input ({then} → {now}, input ×{growth:.2})"
            );
        }
    }
}

/// Proposition 3.3 along the degree axis: at a fixed `‖D‖` of 1 920 facts,
/// `hub` data whose join values have degree 32, 128 and 640 cost the chase
/// the same bag-typing work per input fact.  Scanning every fact of every
/// value of a guarded set instead grows with the degree (Σ deg² per pass).
#[test]
fn proposition_3_3_bag_typing_does_not_grow_with_the_degree() {
    use omq_bench::generators::hub;

    let mut per_fact = Vec::new();
    for (hubs, fan) in [(40, 32), (10, 128), (2, 640)] {
        let (omq, db) = hub(hubs, fan);
        let stats = *prepare(&omq, &db).stats();
        assert_eq!(stats.input_facts, 1_920);
        assert!(stats.bag_probes > 0);
        per_fact.push((fan, stats.bag_probes as f64 / stats.input_facts as f64));
    }
    let (_, base) = per_fact[0];
    for &(fan, now) in &per_fact[1..] {
        let ratio = now / base;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "fan {fan}: {now:.2} bag probes per fact against {base:.2} at fan 32 ({ratio:.3}×)"
        );
    }
}

/// A wide fact never costs more to type than reading the facts of its
/// values: a guarded set of 48 values has 2^48 − 1 nonempty subsets, so its
/// bag is collected from the facts mentioning its values, as before.
#[test]
fn wide_guarded_sets_cost_at_most_their_degree_scan() {
    let vars: Vec<String> = (0..48).map(|i| format!("x{i}")).collect();
    let ontology =
        Ontology::parse(&format!("W({}) -> exists y. A(x0, y)", vars.join(", "))).unwrap();
    let query = ConjunctiveQuery::parse("q(x, y) :- A(x, y)").unwrap();
    let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
    let mut db = Database::new(omq.data_schema().clone());
    for f in 0..300 {
        let args: Vec<String> = (0..48).map(|i| format!("f{f}v{i}")).collect();
        db.add_named_fact("W", &args).unwrap();
    }
    // What one pass reads when it scans `facts_mentioning` for every value
    // of every guarded set.
    let scan: usize = db
        .facts()
        .iter()
        .map(|fact| {
            fact.distinct_values()
                .into_iter()
                .map(|v| db.facts_mentioning(v).len())
                .sum::<usize>()
        })
        .sum();
    assert_eq!(scan, 300 * 48);
    let chased = query_directed_chase(&db, &omq, &QchaseConfig::default()).unwrap();
    // Saturation derives no ground fact, so both passes see the input.
    assert_eq!(chased.saturation_rounds, 1);
    assert_eq!(chased.grafts, 300);
    assert!(
        chased.bag_probes <= 2 * scan,
        "{} bag probes against {} for two scanning passes",
        chased.bag_probes,
        2 * scan
    );
}

/// `omq_bench::generators::chain`'s facts as a transaction: `A(a0)` (when
/// `range` starts at 0) and `R(ai, ai+1)` for `i` in `range`.
fn chain_txn(range: std::ops::Range<usize>) -> Txn {
    let mut txn = Txn::new();
    if range.start == 0 {
        txn = txn.insert("A", ["a0"]);
    }
    for i in range {
        txn = txn.insert("R", [format!("a{i}"), format!("a{}", i + 1)]);
    }
    txn
}

/// However deep the derivations run, the chase saturates: an `n`-fact chain
/// has its `n + 1` answers through `execute`, `execute_parallel`, a tracked
/// refresh chain committing one `R` fact at a time (every one at n = 16, the
/// last two at n = 100 000) and a `ServingEngine` store.
#[test]
fn propagation_depth_chains_are_answered_on_every_entry_point() {
    use omq_bench::generators::chain;

    let (omq, _) = chain(0);
    let plan = QueryPlan::compile(&omq).unwrap();
    let complete = |instance: &PreparedInstance| instance.count(Semantics::Complete).unwrap();
    for n in [16, 100_000] {
        let (_, db) = chain(n);
        let answers = n as u64 + 1;
        assert_eq!(
            complete(&plan.execute(&db).unwrap()),
            answers,
            "execute, n = {n}"
        );
        assert_eq!(
            complete(&plan.execute_parallel(&db, 2).unwrap()),
            answers,
            "execute_parallel, n = {n}"
        );

        let bulk = if n > 16 { n - 2 } else { 0 };
        let mut store = Store::new(omq.data_schema().clone());
        store.commit(chain_txn(0..bulk)).unwrap();
        let mut tracked = plan.execute_tracked(store.snapshot()).unwrap();
        assert_eq!(complete(&tracked), bulk as u64 + 1);
        for i in bulk..n {
            let receipt = store.commit(chain_txn(i..i + 1)).unwrap();
            tracked = tracked.refresh(store.snapshot(), &receipt).unwrap();
            assert_eq!(complete(&tracked), i as u64 + 2, "refresh, n = {n}");
        }

        let mut engine = ServingEngine::new(2);
        let id = engine.register_query("chain", &omq).unwrap();
        engine.register_data(chain_txn(0..n)).unwrap();
        let served = engine
            .count(&Request::new(id, Semantics::Complete))
            .unwrap();
        assert_eq!(served.count, answers, "ServingEngine, n = {n}");
    }
    for n in 0..=12 {
        let (_, db) = chain(n);
        let brute = BruteForce::new(&omq, &db, &ChaseConfig::default()).unwrap();
        assert!(!brute.truncated);
        let expected: BTreeSet<String> = brute
            .complete_answers()
            .iter()
            .map(|tuple| {
                let names: Vec<&str> = tuple
                    .iter()
                    .map(|v| brute.chased.const_name(v.as_const().unwrap()))
                    .collect();
                format!("({})", names.join(","))
            })
            .collect();
        assert_eq!(expected.len(), n + 1);
        let instance = plan.execute(&db).unwrap();
        assert_eq!(
            rendered(&instance, Semantics::Complete),
            expected,
            "n = {n}"
        );
    }
}

/// Proposition 3.3 along the derivation depth: chains of 1 000, 4 000 and
/// 16 000 facts whose one answer-deriving rule fires a round deeper per fact
/// cost the chase the same bag-typing work and the same memo hits per input
/// fact.  Re-typing every guarded set in every round instead grows with the
/// chain (rounds × groups).
#[test]
fn proposition_3_3_saturation_work_does_not_grow_with_the_derivation_depth() {
    use omq_bench::generators::chain;

    let plan = QueryPlan::compile(&chain(0).0).unwrap();
    let mut per_fact = Vec::new();
    for n in [1_000, 4_000, 16_000] {
        let stats = *plan.execute(&chain(n).1).unwrap().stats();
        assert_eq!(stats.input_facts, n + 1);
        let facts = stats.input_facts as f64;
        per_fact.push((
            n,
            stats.bag_probes as f64 / facts,
            stats.memo_hits as f64 / facts,
        ));
    }
    let (_, probes, hits) = per_fact[0];
    for &(n, now_probes, now_hits) in &per_fact[1..] {
        for (name, now, base) in [
            ("bag probes", now_probes, probes),
            ("memo hits", now_hits, hits),
        ] {
            let ratio = now / base;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "n = {n}: {now:.2} {name} per fact against {base:.2} at n = 1 000 ({ratio:.3}×)"
            );
        }
    }
}
