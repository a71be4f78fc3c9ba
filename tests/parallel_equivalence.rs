//! Property-based equivalence of the shared-nothing parallel pipeline:
//! `QueryPlan::execute_parallel` over random databases and thread counts
//! must produce, on all three answer semantics, the same answer *multiset*
//! as the sequential `QueryPlan::execute` — including the 1-thread
//! fall-back, the single-component case, and databases with (far) more
//! Gaifman components than threads.
//!
//! Two OMQs are exercised: the full office query (whose answers always
//! carry a constant, so shard-local minimality is global) and a
//! building-projection query whose answer can degenerate to the all-star
//! tuple `(*)` — the one case where minimality is a cross-shard property
//! and the merge filter has to drop or keep wildcard-only answers based on
//! what *other* shards produced.

use omq::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

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

/// Same ontology, but only the building is asked for: researchers without
/// any listed office/building answer with the all-star tuple `(*)`.
fn building_omq() -> OntologyMediatedQuery {
    let ontology = Ontology::parse(
        "Researcher(x) -> exists y. HasOffice(x, y)\n\
         HasOffice(x, y) -> Office(y)\n\
         Office(x) -> exists y. InBuilding(x, y)",
    )
    .unwrap();
    let query = ConjunctiveQuery::parse("q(x3) :- HasOffice(x1, x2), InBuilding(x2, x3)").unwrap();
    OntologyMediatedQuery::new(ontology, query).unwrap()
}

/// A random office database assembled from independent researcher/office/
/// building wirings; disjoint constant ranges per "island" make the
/// Gaifman component count scale with the input, so shard counts above,
/// below and equal to the component count all occur.
#[derive(Debug, Clone)]
struct RandomDb {
    researchers: Vec<usize>,
    offices: Vec<(usize, usize)>,
    buildings: Vec<(usize, usize)>,
}

fn db_strategy() -> impl Strategy<Value = RandomDb> {
    (
        prop::collection::vec(0..10usize, 1..10),
        prop::collection::vec((0..10usize, 0..6usize), 0..8),
        prop::collection::vec((0..6usize, 0..4usize), 0..6),
    )
        .prop_map(|(researchers, offices, buildings)| RandomDb {
            researchers,
            offices,
            buildings,
        })
}

impl RandomDb {
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

/// Answer multiset of every semantics, rendered with constant names so the
/// comparison is independent of internal identifiers.
fn answer_multisets(instance: &PreparedInstance) -> [BTreeMap<String, usize>; 3] {
    Semantics::ALL.map(|semantics| {
        let mut multiset: BTreeMap<String, usize> = BTreeMap::new();
        for a in instance.answers(semantics).unwrap() {
            *multiset.entry(instance.format_answer(&a)).or_default() += 1;
        }
        multiset
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Parallel execution equals sequential execution as answer multisets,
    /// on all three semantics, for both OMQ shapes and arbitrary thread
    /// counts (including 1 = fall-back and thread counts exceeding the
    /// component count).
    #[test]
    fn parallel_equals_sequential(random_db in db_strategy(), threads in 1..6usize) {
        for omq in [office_omq(), building_omq()] {
            let plan = QueryPlan::compile(&omq).unwrap();
            let db = random_db.to_database(omq.data_schema());
            let sequential = plan.execute(&db).unwrap();
            let parallel = plan.execute_parallel(&db, threads).unwrap();
            prop_assert_eq!(
                parallel.shard_count(),
                plan.execute_tracked(&db).unwrap().shard_count()
            );
            prop_assert!(parallel.shard_count() <= db.component_count().max(1));
            let seq = answer_multisets(&sequential);
            let par = answer_multisets(&parallel);
            prop_assert_eq!(&seq[0], &par[0], "complete answers diverge");
            prop_assert_eq!(&seq[1], &par[1], "minimal partial answers diverge");
            prop_assert_eq!(&seq[2], &par[2], "multi-wildcard answers diverge");
            // Sharding never changes the chase itself, only its partition.
            prop_assert_eq!(
                sequential.stats().chased_facts,
                parallel.stats().chased_facts
            );
            // Every merged partial answer round-trips through the
            // shard-aware single-tester.
            for answer in parallel.answers(Semantics::MinimalPartial).unwrap() {
                prop_assert!(parallel.test(&answer).unwrap());
            }
        }
    }

    /// Components ≫ threads: many isolated researchers force every shard to
    /// group several components, and (for the projection query) every shard
    /// produces the same wildcard-only answer, which must be deduplicated
    /// and survive only when no shard owns a better one.
    #[test]
    fn more_components_than_threads(extra in 8..40usize, threads in 2..5usize, building_flag in 0..2usize) {
        let with_building = building_flag == 1;
        let omq = building_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        let mut builder = Database::builder(omq.data_schema().clone());
        for r in 0..extra {
            builder = builder.fact("Researcher", [format!("lone{r}")]);
        }
        if with_building {
            builder = builder
                .fact("HasOffice", ["anchor", "lab"])
                .fact("InBuilding", ["lab", "west"]);
        }
        let db = builder.build().unwrap();
        prop_assert!(db.component_count() > threads);
        let sequential = plan.execute(&db).unwrap();
        let parallel = plan.execute_parallel(&db, threads).unwrap();
        prop_assert_eq!(
            parallel.shard_count(),
            plan.execute_tracked(&db).unwrap().shard_count()
        );
        let seq = answer_multisets(&sequential);
        let par = answer_multisets(&parallel);
        prop_assert_eq!(&seq[1], &par[1]);
        // The expected shape: with a real building the all-star answer is
        // dominated cross-shard; without one it is the unique answer.
        let partial_answers: Vec<String> = par[1].keys().cloned().collect();
        if with_building {
            prop_assert_eq!(partial_answers, vec!["(west)".to_owned()]);
        } else {
            prop_assert_eq!(partial_answers, vec!["(*)".to_owned()]);
        }
    }
}

/// Boolean queries: every satisfiable shard would emit the empty tuple; the
/// merged stream must emit it exactly once.
#[test]
fn boolean_query_is_deduplicated_across_shards() {
    let ontology = Ontology::parse("Researcher(x) -> exists y. HasOffice(x, y)").unwrap();
    let query = ConjunctiveQuery::parse("q() :- HasOffice(x, y)").unwrap();
    let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
    let plan = QueryPlan::compile(&omq).unwrap();
    let db = Database::builder(omq.data_schema().clone())
        .fact("Researcher", ["a"])
        .fact("Researcher", ["b"])
        .fact("Researcher", ["c"])
        .build()
        .unwrap();
    assert_eq!(db.component_count(), 3);
    let parallel = plan.execute_parallel(&db, 3).unwrap();
    assert_eq!(parallel.shard_count(), 3);
    let complete = |instance: &PreparedInstance| -> Vec<Answer> {
        instance.answers(Semantics::Complete).unwrap().collect()
    };
    assert_eq!(complete(&parallel), vec![Answer::Complete(Vec::new())]);
    let sequential = plan.execute(&db).unwrap();
    assert_eq!(complete(&sequential), complete(&parallel));
    // The unsatisfiable case yields no answer from any shard.
    let empty = Database::new(omq.data_schema().clone());
    let parallel = plan.execute_parallel(&empty, 3).unwrap();
    assert!(complete(&parallel).is_empty());
}

/// The 1-shard edge case: a single connected component must take the
/// sequential path unchanged, whatever the thread count.
#[test]
fn single_component_falls_back_to_one_shard() {
    let omq = office_omq();
    let plan = QueryPlan::compile(&omq).unwrap();
    let db = Database::builder(omq.data_schema().clone())
        .fact("HasOffice", ["mary", "room1"])
        .fact("InBuilding", ["room1", "main1"])
        .build()
        .unwrap();
    assert_eq!(db.component_count(), 1);
    let parallel = plan.execute_parallel(&db, 8).unwrap();
    assert_eq!(parallel.shard_count(), 1);
    assert_eq!(parallel.stats().shards, 1);
    // Single-shard instances keep the structure-level APIs.
    assert!(parallel.complete_structure().is_ok());
    let sequential = plan.execute(&db).unwrap();
    assert_eq!(answer_multisets(&sequential), answer_multisets(&parallel));
}

/// Regression: a guarded TGD with a *nullary* side atom (`P(x), Flag() ->
/// Q(x)`) must chase and enumerate identically on the sequential and the
/// Gaifman-sharded parallel paths.  Nullary facts touch no Gaifman node, so
/// sharding must not lose the `Flag()` trigger in any shard.
#[test]
fn nullary_side_atom_tgd_parallel_vs_sequential() {
    let ontology = Ontology::parse("P(x), Flag() -> Q(x)").unwrap();
    let query = ConjunctiveQuery::parse("q(x) :- Q(x)").unwrap();
    let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
    let plan = QueryPlan::compile(&omq).unwrap();
    let db = Database::builder(omq.data_schema().clone())
        .fact("P", ["a"])
        .fact("P", ["b"])
        .fact("Flag", Vec::<String>::new())
        .build()
        .unwrap();
    let [sequential, ..] = answer_multisets(&plan.execute(&db).unwrap());
    let [parallel, ..] = answer_multisets(&plan.execute_parallel(&db, 4).unwrap());
    assert_eq!(
        sequential.keys().cloned().collect::<Vec<_>>(),
        vec!["(a)".to_owned(), "(b)".to_owned()],
        "nullary side atom must fire for every P-fact"
    );
    assert_eq!(sequential, parallel, "parallel execution lost answers");
}
