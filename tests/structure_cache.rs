//! The per-shard structure cache, asserted in answers and in counts.
//!
//! A [`PreparedInstance`] keeps, per shard, the join structure for complete
//! answers and Algorithm 1's prepared half, each built by whoever needs it
//! first and shared by every later cursor, `count` and `exists` — of the
//! instance itself and of the refresh successors that reuse the shard.  The
//! contract under test:
//!
//! * **invisible** — a drain over warm structures yields the sequence a cold
//!   instance yields (the one `tests/engine_vs_baseline.rs` pins to its
//!   recorded digests), and cursors over one shard never see each other's
//!   pruning;
//! * **once** — every shard builds each kind at most once, whatever the
//!   number of opens, counts, threads and refreshes
//!   ([`PreparedInstance::structure_builds`]);
//! * **carried** — a refresh hands every reused shard on with its structures.

use omq::prelude::*;
use omq_bench::generators::{university, UniversityConfig};
use std::sync::{Arc, Barrier};

/// The answers of one semantics in enumeration order, rendered.
fn sequence(instance: &PreparedInstance, semantics: Semantics) -> Vec<String> {
    instance
        .answers(semantics)
        .unwrap()
        .map(|a| instance.format_answer(&a))
        .collect()
}

/// The running example with every kind of answer (complete, one wildcard,
/// two), and the Example 6.2 shape, whose chase shares nulls between atoms so
/// that merged multi-wildcards occur — several Gaifman components each.
fn workloads() -> Vec<(OntologyMediatedQuery, Database)> {
    let uni = university(&UniversityConfig {
        researchers: 150,
        office_ratio: 0.6,
        building_ratio: 0.5,
        buildings: 6,
        seed: 23,
    });
    let omq = OntologyMediatedQuery::new(
        Ontology::parse("Seed(x) -> exists y. R(x, y), T(x, y)\nSeed(x) -> exists z. S(x, z)")
            .unwrap(),
        ConjunctiveQuery::parse("q(x0, x1, x2, x3) :- R(x0, x1), S(x0, x2), T(x0, x3)").unwrap(),
    )
    .unwrap();
    let mut builder = Database::builder(omq.data_schema().clone());
    for i in 0..40 {
        builder = builder.fact("Seed", [format!("s{i}")]);
        if i % 2 == 0 {
            builder = builder.fact("R", [format!("s{i}"), format!("r{i}")]);
        }
        if i % 3 == 0 {
            builder = builder.fact("S", [format!("s{i}"), format!("t{i}")]);
        }
        if i % 4 == 0 {
            builder = builder.fact("T", [format!("s{i}"), format!("u{i}")]);
        }
    }
    vec![uni, (omq, builder.build().unwrap())]
}

/// Single-shard and packed instances of a workload, cold.
fn instances(plan: &QueryPlan, db: &Database) -> [PreparedInstance; 2] {
    let single = plan.execute(db).unwrap();
    let packed = plan.execute_tracked(db).unwrap();
    assert_eq!(single.shard_count(), 1);
    assert!(packed.shard_count() > 1, "the workload shards");
    [single, packed]
}

/// (i) The first drain (which builds), the second (which does not) and a
/// separately executed cold instance yield one sequence, in all three
/// semantics, single-shard and packed.
#[test]
fn warm_drains_repeat_the_cold_sequence() {
    for (omq, db) in workloads() {
        let plan = QueryPlan::compile(&omq).unwrap();
        let cold = instances(&plan, &db);
        for (instance, cold) in instances(&plan, &db).iter().zip(&cold) {
            assert_eq!(instance.structure_builds(), 0, "execution builds nothing");
            for semantics in Semantics::ALL {
                let first = sequence(instance, semantics);
                let built = instance.structure_builds();
                let second = sequence(instance, semantics);
                assert!(!first.is_empty());
                assert_eq!(first, second, "{semantics:?}: second drain");
                assert_eq!(instance.structure_builds(), built, "{semantics:?}: rebuilt");
            }
            // Complete answers built one kind per shard, the wildcard
            // semantics the other.
            assert_eq!(instance.structure_builds(), 2 * instance.shard_count());
            // Each semantics against an instance nothing else has touched.
            for semantics in Semantics::ALL {
                assert_eq!(
                    sequence(instance, semantics),
                    sequence(cold, semantics),
                    "{semantics:?}: warm sequence left the cold one"
                );
            }
        }
    }
}

/// (ii) Cursors over the same shards advanced in lock-step, with a third
/// abandoned in the middle of a pack, each yield the full sequence: what one
/// prunes is invisible to the others.
#[test]
fn concurrent_cursors_do_not_see_each_others_pruning() {
    for (omq, db) in workloads() {
        let plan = QueryPlan::compile(&omq).unwrap();
        for instance in instances(&plan, &db) {
            for semantics in Semantics::ALL {
                let reference: Vec<Answer> = instance.answers(semantics).unwrap().collect();
                let mut left = instance.answers(semantics).unwrap();
                let mut right = instance.answers(semantics).unwrap();
                let mut abandoned = instance.answers(semantics).unwrap();
                let (mut from_left, mut from_right) = (Vec::new(), Vec::new());
                for step in 0.. {
                    // The two advance alternately, one answer and a small
                    // batch at a time; the third stops a third of the way in
                    // and is dropped while the others are mid-stream.
                    let (a, mut b) = (left.next(), Vec::new());
                    right.next_batch(&mut b, 1 + step % 3);
                    if step == reference.len() / 3 {
                        let taken: Vec<Answer> = abandoned.by_ref().take(step).collect();
                        assert_eq!(taken, reference[..step]);
                        abandoned = instance.answers(semantics).unwrap();
                    }
                    if a.is_none() && b.is_empty() {
                        break;
                    }
                    from_left.extend(a);
                    from_right.extend(b);
                }
                assert_eq!(from_left, reference, "{semantics:?}: lock-step left");
                assert_eq!(from_right, reference, "{semantics:?}: lock-step right");
                let after: Vec<Answer> = instance.answers(semantics).unwrap().collect();
                assert_eq!(after, reference, "{semantics:?}: after an abandoned cursor");
            }
        }
    }
}

fn office_omq() -> OntologyMediatedQuery {
    university(&UniversityConfig::default()).0
}

/// A store holding `researchers` single-researcher components, a third of
/// them with an office and a building.
fn office_store(omq: &OntologyMediatedQuery, researchers: usize) -> Store {
    let mut store = Store::new(omq.data_schema().clone());
    let mut load = Txn::new();
    for i in 0..researchers {
        load = load.insert("Researcher", [format!("p{i}")]);
        if i % 3 == 0 {
            load = load
                .insert("HasOffice", [format!("p{i}"), format!("o{i}")])
                .insert("InBuilding", [format!("o{i}"), format!("b{}", i % 5)]);
        }
    }
    store.commit(load).unwrap();
    store
}

/// (iii) `count` equals the drain before any drain, after one, and on a
/// refreshed instance — it reads the same structures the cursors read.
#[test]
fn count_equals_drain_cold_warm_and_refreshed() {
    let omq = office_omq();
    let plan = QueryPlan::compile(&omq).unwrap();
    let mut store = office_store(&omq, 400);
    let check = |instance: &PreparedInstance, count_first: bool| {
        for semantics in Semantics::ALL {
            let (count, drained) = if count_first {
                let count = instance.count(semantics).unwrap();
                (count, sequence(instance, semantics).len() as u64)
            } else {
                let drained = sequence(instance, semantics).len() as u64;
                (instance.count(semantics).unwrap(), drained)
            };
            assert!(drained > 0);
            assert_eq!(count, drained, "{semantics:?}, count first: {count_first}");
            assert_eq!(instance.count(semantics).unwrap(), drained, "counted twice");
            assert!(instance.exists(semantics).unwrap());
        }
    };
    check(&plan.execute_tracked(store.snapshot()).unwrap(), true);
    check(&plan.execute(store.snapshot()).unwrap(), true);
    let base = plan.execute_tracked(store.snapshot()).unwrap();
    check(&base, false);
    let receipt = store
        .commit(Txn::new().insert("HasOffice", ["p1", "o1"]))
        .unwrap();
    let refreshed = base.refresh(store.snapshot(), &receipt).unwrap();
    assert!(refreshed.stats().reused_shards > 0);
    check(&refreshed, true);
    check(&refreshed, false);
}

/// (iv) A refresh hands every reused shard on by pointer — structures and
/// all — and the successor builds for its fresh packs only.
#[test]
fn refresh_carries_the_structures_of_reused_shards() {
    let omq = office_omq();
    let plan = QueryPlan::compile(&omq).unwrap();
    let mut store = office_store(&omq, 600);
    let base = plan.execute_tracked(store.snapshot()).unwrap();
    let base_sequences = Semantics::ALL.map(|semantics| sequence(&base, semantics));
    assert_eq!(base.structure_builds(), 2 * base.shard_count());

    let receipt = store
        .commit(
            Txn::new()
                .insert("HasOffice", ["p1", "o1"])
                .insert("Researcher", ["newcomer"]),
        )
        .unwrap();
    let refreshed = base.refresh(store.snapshot(), &receipt).unwrap();
    let reused = refreshed.stats().reused_shards;
    let fresh = refreshed.shard_count() - reused;
    assert!(reused > 0 && fresh > 0);
    // Fresh shards lead and have built nothing; every other shard is the
    // predecessor's, by pointer, with both its structures.
    for shard in &refreshed.shards()[..fresh] {
        assert_eq!(shard.structure_builds(), 0);
        assert!(!base.shards().iter().any(|old| Arc::ptr_eq(old, shard)));
    }
    for shard in &refreshed.shards()[fresh..] {
        assert_eq!(shard.structure_builds(), 2);
        assert!(base.shards().iter().any(|old| Arc::ptr_eq(old, shard)));
    }
    assert_eq!(refreshed.structure_builds(), 2 * reused);

    // Draining the successor builds for the fresh packs only ...
    let scratch = plan.execute(store.snapshot()).unwrap();
    for semantics in Semantics::ALL {
        let mut maintained = sequence(&refreshed, semantics);
        let mut expected = sequence(&scratch, semantics);
        maintained.sort();
        expected.sort();
        assert_eq!(maintained, expected, "{semantics:?}");
        assert_eq!(
            refreshed.count(semantics).unwrap(),
            expected.len() as u64,
            "{semantics:?}"
        );
    }
    assert_eq!(refreshed.structure_builds(), 2 * reused + 2 * fresh);
    // ... and leaves the predecessor as it was.
    assert_eq!(base.structure_builds(), 2 * base.shard_count());
    for (semantics, before) in Semantics::ALL.into_iter().zip(&base_sequences) {
        assert_eq!(&sequence(&base, semantics), before, "{semantics:?}");
    }
}

/// (v) Eight threads released together, each draining and counting on one
/// shared instance: every shard still builds each kind exactly once.
#[test]
fn racing_threads_build_each_structure_once() {
    let omq = office_omq();
    let plan = QueryPlan::compile(&omq).unwrap();
    let store = office_store(&omq, 600);
    let instance = plan.execute_tracked(store.snapshot()).unwrap();
    let expected = {
        let reference = plan.execute(store.snapshot()).unwrap();
        Semantics::ALL.map(|semantics| reference.count(semantics).unwrap())
    };
    let barrier = Barrier::new(8);
    std::thread::scope(|scope| {
        for thread in 0..8 {
            let (instance, barrier) = (&instance, &barrier);
            scope.spawn(move || {
                barrier.wait();
                // Start on different semantics, so both kinds are contended.
                for offset in 0..3 {
                    let i = (thread + offset) % 3;
                    let semantics = Semantics::ALL[i];
                    let drained = instance.answers(semantics).unwrap().count() as u64;
                    assert_eq!(drained, expected[i], "{semantics:?}");
                    assert_eq!(instance.count(semantics).unwrap(), expected[i]);
                }
            });
        }
    });
    assert!(instance.shard_count() > 8);
    assert_eq!(instance.structure_builds(), 2 * instance.shard_count());
    for shard in instance.shards() {
        assert_eq!(shard.structure_builds(), 2);
    }
}

/// (vi) A refusal is typed and repeats on every open — and builds nothing.
/// (That a *failed build* is cached and reported on every access is asserted
/// next to the accessor, in `omq-core`'s `shard` module: no input reachable
/// through the public API makes a build fail once the plan compiled.)
#[test]
fn a_refused_open_repeats_its_typed_error_and_builds_nothing() {
    let vars: Vec<String> = (0..10).map(|i| format!("x{i}")).collect();
    let atoms: Vec<String> = vars
        .windows(2)
        .map(|w| format!("R({}, {})", w[0], w[1]))
        .collect();
    let omq = OntologyMediatedQuery::new(
        Ontology::parse("A(x) -> exists y. R(x, y)").unwrap(),
        ConjunctiveQuery::parse(&format!("q({}) :- {}", vars.join(", "), atoms.join(", ")))
            .unwrap(),
    )
    .unwrap();
    let db = Database::builder(omq.data_schema().clone())
        .fact("R", ["a", "a"])
        .fact("A", ["a"])
        .build()
        .unwrap();
    let instance = QueryPlan::compile(&omq).unwrap().execute(&db).unwrap();
    let refused = omq::core::CoreError::MultiWildcardArityTooLarge {
        arity: 10,
        max: omq::core::MAX_MULTI_WILDCARD_ARITY,
    };
    for _ in 0..3 {
        let opened = instance.answers(Semantics::MinimalPartialMulti);
        assert_eq!(opened.map(|_| ()).unwrap_err(), refused);
        let counted = instance.count(Semantics::MinimalPartialMulti);
        assert_eq!(counted.unwrap_err(), refused);
    }
    assert_eq!(instance.structure_builds(), 0);
    // The semantics that are served build and share as usual.
    let drained = instance.answers(Semantics::MinimalPartial).unwrap().count() as u64;
    assert_eq!(instance.count(Semantics::MinimalPartial).unwrap(), drained);
    assert_eq!(instance.structure_builds(), 1);
}
