//! Shard sizing of tracked execution, asserted in counts, not on a clock.
//!
//! [`QueryPlan::execute_tracked`] shards a database into *packs* — unions of
//! whole Gaifman components of at most 64 input facts, a larger component
//! alone — and [`PreparedInstance::refresh`] maintains them.  The contract
//! under test:
//!
//! * **bounded** — the number of shards follows the data's size, not its
//!   component count, and every shard is a union of whole components;
//! * **delta-proportional** — a refresh re-chases the dirty component and at
//!   most a pack's worth of neighbours ([`PreprocessStats::rechased_facts`]),
//!   and reuses every other shard;
//! * **packed for good** — a stream of commits that each add a component
//!   does not fragment the instance: after any number of refreshes it has at
//!   most twice the shards of a fresh execution of the same head, plus eight;
//! * **one rule, whoever asks** — [`QueryPlan::execute_parallel`] yields
//!   `execute_tracked`'s shards, order and answer sequence at every worker
//!   count, and its instances refresh incrementally like tracked ones.

use omq::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// Most input facts of a pack of several components.
const PACK_FACTS: usize = 64;

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

fn answer_set(instance: &PreparedInstance, semantics: Semantics) -> BTreeSet<String> {
    instance
        .answers(semantics)
        .unwrap()
        .map(|a| instance.format_answer(&a))
        .collect()
}

fn assert_equivalent(maintained: &PreparedInstance, scratch: &PreparedInstance) {
    for semantics in Semantics::ALL {
        assert_eq!(
            answer_set(maintained, semantics),
            answer_set(scratch, semantics),
            "{semantics:?}"
        );
    }
}

/// How many shards a fresh `execute_tracked(head)` has, from the packing rule
/// alone (no chase).
fn fresh_shard_count(head: &Database) -> usize {
    head.pack_components(&head.component_keys(), head.pack_capacity())
        .len()
        - 1
}

/// (a) 2 000 singleton components, then 500 commits that each add one more,
/// refreshed one by one: the shard count stays within twice a fresh
/// execution's plus eight, and no refresh chases more than two packs' worth.
#[test]
fn packs_stay_packed_under_a_stream_of_new_components() {
    let omq = office_omq();
    let plan = QueryPlan::compile(&omq).unwrap();
    let mut store = Store::new(omq.data_schema().clone());
    let mut load = Txn::new();
    for i in 0..2_000 {
        load = load.insert("Researcher", [format!("p{i}")]);
    }
    store.commit(load).unwrap();
    let mut maintained = plan.execute_tracked(store.snapshot()).unwrap();
    assert_eq!(maintained.stats().components, 2_000);
    assert_eq!(maintained.stats().rechased_facts, 2_000);
    assert_eq!(maintained.shard_count(), 2_000usize.div_ceil(PACK_FACTS));
    assert_eq!(
        maintained.shard_count(),
        fresh_shard_count(&store.snapshot())
    );

    for i in 0..500 {
        let receipt = store
            .commit(Txn::new().insert("Researcher", [format!("late{i}")]))
            .unwrap();
        let head = store.snapshot();
        maintained = maintained.refresh(&head, &receipt).unwrap();
        let stats = maintained.stats();
        assert_eq!(stats.components, 2_001 + i);
        assert!(stats.reused_shards > 0, "commit {i} rebuilt the instance");
        assert!(
            stats.rechased_facts <= 2 * PACK_FACTS,
            "commit {i} re-chased {} facts",
            stats.rechased_facts
        );
        let mut fresh = fresh_shard_count(&head);
        if i % 100 == 99 {
            // The rule-only count is what a fresh execution really has.
            let scratch = plan.execute_tracked(&head).unwrap();
            assert_eq!(scratch.shard_count(), fresh);
            fresh = scratch.shard_count();
        }
        assert!(
            maintained.shard_count() <= 2 * fresh + 8,
            "commit {i}: {} shards, a fresh execution has {fresh}",
            maintained.shard_count()
        );
    }
    assert_eq!(maintained.stats().input_facts, 2_500);
    let head = store.snapshot();
    assert_equivalent(&maintained, &plan.execute(&head).unwrap());
}

/// (b) A `uni`-shaped store — per cluster one ~80-fact building component,
/// fifty two-fact and fifty one-fact components, interleaved: few shards,
/// each a union of whole components, and a three-fact delta into a building
/// re-chases that component alone.
#[test]
fn shards_follow_the_size_and_a_delta_rechases_its_component() {
    const CLUSTERS: usize = 6;
    let omq = office_omq();
    let plan = QueryPlan::compile(&omq).unwrap();
    let mut store = Store::new(omq.data_schema().clone());
    let mut load = Txn::new();
    for i in 0..50 {
        for c in 0..CLUSTERS {
            load = load.insert("Researcher", [format!("c{c}lone{i}")]);
            load = load.insert("Researcher", [format!("c{c}half{i}")]).insert(
                "HasOffice",
                [format!("c{c}half{i}"), format!("c{c}room{i}")],
            );
            if i < 27 {
                load = load
                    .insert("Researcher", [format!("c{c}full{i}")])
                    .insert("HasOffice", [format!("c{c}full{i}"), format!("c{c}lab{i}")])
                    .insert("InBuilding", [format!("c{c}lab{i}"), format!("c{c}hq")]);
            }
        }
    }
    store.commit(load).unwrap();
    let head = store.snapshot();
    let facts = head.len();
    assert_eq!(facts, CLUSTERS * (50 + 100 + 81));
    assert_eq!(head.component_count(), CLUSTERS * 101);

    let base = plan.execute_tracked(&head).unwrap();
    assert_eq!(base.stats().components, CLUSTERS * 101);
    assert_eq!(base.stats().rechased_facts, facts);
    assert!(
        base.shard_count() <= facts / 32 + 8,
        "{} shards over {facts} facts",
        base.shard_count()
    );
    // Every shard is a union of whole components: no constant in two shards,
    // and between them they hold every input fact.
    let mut shard_of: HashMap<ConstId, usize> = HashMap::new();
    for (idx, shard) in base.shards().iter().enumerate() {
        for constant in shard.adom_consts() {
            assert_eq!(
                shard_of.insert(constant, idx),
                None,
                "{} lies in two shards",
                head.const_name(constant)
            );
        }
    }
    for fact in head.facts() {
        let home = shard_of[&fact.args[0].as_const().unwrap()];
        assert!(base.shards()[home].contains_fact(fact));
    }
    assert_equivalent(&base, &plan.execute(&head).unwrap());

    // A three-fact delta into cluster 0's building component.
    let hq = Value::Const(head.const_id("c0hq").unwrap());
    let component = head.component_len(head.component_root(hq).unwrap());
    assert_eq!(component, 81);
    let receipt = store
        .commit(
            Txn::new()
                .insert("Researcher", ["newcomer"])
                .insert("HasOffice", ["newcomer", "newlab"])
                .insert("InBuilding", ["newlab", "c0hq"]),
        )
        .unwrap();
    let head = store.snapshot();
    let refreshed = base.refresh(&head, &receipt).unwrap();
    let stats = refreshed.stats();
    assert!(
        stats.rechased_facts <= component + 3,
        "re-chased {} facts for a delta into {component}",
        stats.rechased_facts
    );
    assert_eq!(stats.reused_shards, refreshed.shard_count() - 1);
    assert_eq!(refreshed.shard_count(), base.shard_count());
    assert_eq!(stats.components, CLUSTERS * 101);
    assert_equivalent(&refreshed, &plan.execute(&head).unwrap());
}

/// 600 researchers, a third of them with an office, every ninth office in one
/// of four buildings: singleton, two-fact and large components, dozens of
/// packs.
fn researcher_store(omq: &OntologyMediatedQuery) -> Store {
    let mut store = Store::new(omq.data_schema().clone());
    let mut load = Txn::new();
    for i in 0..600 {
        load = load.insert("Researcher", [format!("r{i}")]);
        if i % 3 == 0 {
            load = load.insert("HasOffice", [format!("r{i}"), format!("room{i}")]);
        }
        if i % 27 == 0 {
            load = load.insert("InBuilding", [format!("room{i}"), format!("hq{}", i % 4)]);
        }
    }
    store.commit(load).unwrap();
    store
}

/// (c) An `execute_parallel` instance carries provenance: a single-fact
/// commit re-chases a pack or two, not the database.
#[test]
fn an_execute_parallel_instance_refreshes_incrementally() {
    let omq = office_omq();
    let plan = QueryPlan::compile(&omq).unwrap();
    let mut store = researcher_store(&omq);
    let base = plan.execute_parallel(store.snapshot(), 3).unwrap();
    assert!(base.shard_count() > 3);
    let receipt = store
        .commit(Txn::new().insert("HasOffice", ["r1", "room1"]))
        .unwrap();
    let head = store.snapshot();
    let refreshed = base.refresh(&head, &receipt).unwrap();
    let stats = refreshed.stats();
    assert!(stats.reused_shards > 0, "the refresh rebuilt the instance");
    assert!(
        stats.rechased_facts <= 2 * PACK_FACTS,
        "re-chased {} facts for a one-fact delta",
        stats.rechased_facts
    );
    assert_equivalent(&refreshed, &plan.execute(&head).unwrap());
}

/// (d) The worker count is not an input of the sharding rule: whatever the
/// bound, `execute_parallel` has `execute_tracked`'s shards, fact for fact and
/// in order, and therefore its answer *sequence* under every semantics.
#[test]
fn the_worker_count_changes_neither_shards_nor_answer_order() {
    let omq = office_omq();
    let plan = QueryPlan::compile(&omq).unwrap();
    let head = researcher_store(&omq).snapshot();
    let tracked = plan.execute_tracked(&head).unwrap();
    assert_eq!(tracked.shard_count(), fresh_shard_count(&head));
    let sequence = |instance: &PreparedInstance, semantics| -> Vec<String> {
        instance
            .answers(semantics)
            .unwrap()
            .map(|a| instance.format_answer(&a))
            .collect()
    };
    for threads in [1, 2, 3, 8] {
        let parallel = plan.execute_parallel(&head, threads).unwrap();
        assert_eq!(parallel.shard_count(), tracked.shard_count(), "{threads}");
        for (ours, theirs) in parallel.shards().iter().zip(tracked.shards()) {
            assert_eq!(ours.facts(), theirs.facts(), "{threads} threads");
        }
        for semantics in Semantics::ALL {
            assert_eq!(
                sequence(&parallel, semantics),
                sequence(&tracked, semantics),
                "{threads} threads, {semantics:?}"
            );
        }
    }
}
