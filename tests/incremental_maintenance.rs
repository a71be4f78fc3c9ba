//! Differential harness for incremental maintenance: a chain of
//! [`PreparedInstance::refresh`] calls over a random commit workload must be
//! observationally identical to evaluating every head from scratch.
//!
//! The contract under test:
//!
//! * **equivalence** — after every commit, the maintained instance's answer
//!   multiset equals a from-scratch [`QueryPlan::execute`] *and* a
//!   from-scratch [`QueryPlan::execute_parallel`] of the new head, under all
//!   three [`Semantics`];
//! * **fallback soundness** — commits the delta-chase cannot absorb
//!   (new relations mid-stream) silently degrade to a full rebuild, and
//!   component-merging inserts re-chase the merged component, never to a
//!   wrong answer;
//! * **no-effect commits** — empty and all-duplicate transactions keep the
//!   answers unchanged (and, per the unit tests, reuse every shard);
//! * **self-healing** — refreshing with a stale or skipped receipt (or from
//!   an untracked instance) rebuilds instead of splicing garbage.
//!
//! The unit tests in `omq-core` pin down *how* each case is handled
//! (pointer reuse counts, fallback triggers); this suite only asserts the
//! end-to-end semantics, so it stays valid under any future refresh
//! strategy.
//!
//! The central property runs over two kinds of store.  A bare one of 10–30
//! facts is too small to pack: nearly every component is a shard of its own.
//! One whose initial load also carries
//! [`BALLAST`] singleton components is large enough for tracked execution to
//! pack dozens of components into a shard, and the random commits reach into
//! the ballast — so they dirty, bridge and extend *multi-component* shards.

use omq::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Researchers `p12 … p311`, one singleton component each, in the initial
/// load of the ballasted workloads.
const BALLAST: usize = 300;

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

/// One commit of the random workload.  The non-`Facts` variants target the
/// paths where the delta-chase must refuse to be incremental.
#[derive(Debug, Clone)]
enum CommitOp {
    /// A plain batch of office facts — the common, component-local case.
    Facts(Vec<(usize, usize, usize)>),
    /// Replays the initial load verbatim: every fact is a duplicate, so the
    /// commit has no effect (`new_facts == 0`).
    Duplicate,
    /// Wires offices `o{a}` and `o{b}` into one building, merging their
    /// Gaifman components when they were previously separate.
    Bridge(usize, usize),
    /// Adds a relation the query never mentions (idempotent on repeats) and
    /// a fact in it — schema growth forces a full rebuild, and on repeats
    /// the delta lands in a component that contributes no answers.
    AddRelation(usize),
    /// A transaction with no operations at all.
    Empty,
}

impl CommitOp {
    fn to_txn(&self, initial: &[(usize, usize, usize)]) -> Txn {
        match self {
            CommitOp::Facts(batch) => txn_of(batch),
            CommitOp::Duplicate => txn_of(initial),
            CommitOp::Bridge(a, b) => Txn::new()
                .insert("InBuilding", [format!("o{a}"), "bridged".to_owned()])
                .insert("InBuilding", [format!("o{b}"), "bridged".to_owned()]),
            CommitOp::AddRelation(i) => {
                let name = format!("Aux{i}");
                Txn::new()
                    .add_relation(&name, 1)
                    .insert(&name, [format!("aux{i}")])
            }
            CommitOp::Empty => Txn::new(),
        }
    }
}

#[derive(Debug, Clone)]
struct RandomWorkload {
    initial: Vec<(usize, usize, usize)>,
    /// Singleton components `Researcher(p{12 + i})` loaded with `initial`.
    ballast: usize,
    commits: Vec<CommitOp>,
}

impl RandomWorkload {
    /// The store after the initial load.
    fn load(&self, omq: &OntologyMediatedQuery) -> Store {
        let mut txn = txn_of(&self.initial);
        for i in 0..self.ballast {
            txn = txn.insert("Researcher", [format!("p{}", 12 + i)]);
        }
        let mut store = Store::new(omq.data_schema().clone());
        store.commit(txn).unwrap();
        store
    }
}

/// Random workloads whose researchers range over `p0 … p11` and the
/// `ballast` singletons behind them.
fn workload_strategy(ballast: usize) -> impl Strategy<Value = RandomWorkload> {
    let triple = move || (0..12 + ballast, 0..8usize, 0..4usize);
    // Plain fact batches listed twice: they should dominate the mix, with
    // the fallback-triggering variants sprinkled in.
    let batch = || prop::collection::vec(triple(), 1..6).prop_map(CommitOp::Facts);
    let op = prop_oneof![
        batch(),
        batch(),
        Just(CommitOp::Duplicate),
        (0..8usize, 0..8usize).prop_map(|(a, b)| CommitOp::Bridge(a, b)),
        (0..3usize).prop_map(CommitOp::AddRelation),
        Just(CommitOp::Empty),
    ];
    (
        prop::collection::vec(triple(), 1..10),
        prop::collection::vec(op, 1..6),
    )
        .prop_map(move |(initial, commits)| RandomWorkload {
            initial,
            ballast,
            commits,
        })
}

/// Same fact-dropping scheme as `tests/store_sessions.rs`, so incomplete
/// chains (wildcard answers) keep showing up in every semantics.
fn txn_of(batch: &[(usize, usize, usize)]) -> Txn {
    let mut txn = Txn::new();
    for &(r, o, b) in batch {
        txn = txn.insert("Researcher", [format!("p{r}")]);
        if r % 3 != 0 {
            txn = txn.insert("HasOffice", [format!("p{r}"), format!("o{o}")]);
        }
        if b % 2 == 0 {
            txn = txn.insert("InBuilding", [format!("o{o}"), format!("b{b}")]);
        }
    }
    txn
}

/// Renders an instance's answers as a sorted multiset of strings.
fn answer_multiset(instance: &PreparedInstance, semantics: Semantics) -> Vec<String> {
    let mut rendered: Vec<String> = instance
        .answers(semantics)
        .unwrap()
        .map(|a| instance.format_answer(&a))
        .collect();
    rendered.sort();
    rendered
}

/// The central differential property: after every commit of a random
/// workload, the incrementally maintained instance agrees with from-scratch
/// sequential *and* parallel evaluation of the head, under every semantics.
fn check_refresh_chain(workload: &RandomWorkload) -> Result<(), TestCaseError> {
    let omq = office_omq();
    let plan = QueryPlan::compile(&omq).unwrap();
    let mut store = workload.load(&omq);
    let mut maintained = plan.execute_tracked(store.snapshot()).unwrap();

    for op in &workload.commits {
        let receipt = store.commit(op.to_txn(&workload.initial)).unwrap();
        let head = store.snapshot();
        maintained = maintained.refresh(&head, &receipt).unwrap();

        let scratch = plan.execute(&head).unwrap();
        let parallel = plan.execute_parallel(&head, 3).unwrap();
        for sem in Semantics::ALL {
            let want = answer_multiset(&scratch, sem);
            prop_assert_eq!(answer_multiset(&maintained, sem), want.clone());
            prop_assert_eq!(answer_multiset(&parallel, sem), want);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// 10–30-fact stores, nearly one shard per component.
    #[test]
    fn refresh_chain_matches_from_scratch_evaluation(workload in workload_strategy(0)) {
        check_refresh_chain(&workload)?;
    }

    /// Shards of dozens of components: the same chain over a store with
    /// [`BALLAST`] singleton components that the commits reach into.
    #[test]
    fn refresh_chain_over_packed_shards_matches_from_scratch_evaluation(
        workload in workload_strategy(BALLAST),
    ) {
        let head = workload.load(&office_omq()).snapshot();
        let keys = head.component_keys();
        let shards = head.pack_components(&keys, head.pack_capacity()).len() - 1;
        prop_assert!(head.component_count() > 8 * shards, "{shards} shards");
        check_refresh_chain(&workload)?;
    }

    /// Receipts may be dropped on the floor: refreshing with only the
    /// *latest* receipt after several unseen commits must still converge to
    /// the head (by rebuilding), and the chain stays incremental afterwards.
    #[test]
    fn refresh_self_heals_across_skipped_receipts(
        workload in workload_strategy(0),
        skip in 1..4usize,
    ) {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        let mut store = workload.load(&omq);
        let mut maintained = plan.execute_tracked(store.snapshot()).unwrap();

        let mut last_receipt = None;
        for (i, op) in workload.commits.iter().enumerate() {
            let receipt = store.commit(op.to_txn(&workload.initial)).unwrap();
            // Only every `skip`-th receipt is delivered to the maintainer.
            if i % skip == 0 {
                last_receipt = Some(receipt);
            }
        }
        if let Some(receipt) = last_receipt {
            let head = store.snapshot();
            maintained = maintained.refresh(&head, &receipt).unwrap();
            let scratch = plan.execute(&head).unwrap();
            for sem in Semantics::ALL {
                prop_assert_eq!(
                    answer_multiset(&maintained, sem),
                    answer_multiset(&scratch, sem)
                );
            }
        }
    }
}

/// The named fallback cases, deterministically: a new relation mid-stream, a
/// component-merging insert, and an empty commit, refreshed in sequence over
/// one store, each checked against a from-scratch evaluation.
#[test]
fn fallback_cases_stay_equivalent() {
    let omq = office_omq();
    let plan = QueryPlan::compile(&omq).unwrap();
    let mut store = Store::new(omq.data_schema().clone());
    store
        .commit(
            Txn::new()
                .insert("Researcher", ["mary"])
                .insert("HasOffice", ["mary", "room1"])
                .insert("InBuilding", ["room1", "main1"])
                .insert("Researcher", ["john"])
                .insert("HasOffice", ["john", "room2"]),
        )
        .unwrap();
    let mut maintained = plan.execute_tracked(store.snapshot()).unwrap();

    let commits = [
        // Schema growth: the delta-chase cannot splice, must rebuild.
        Txn::new()
            .add_relation("Lab", 2)
            .insert("Lab", ["mary", "l1"]),
        // Component merge: room1's and room2's components become one.
        Txn::new().insert("InBuilding", ["room2", "main1"]),
        // No-effect: a duplicate of an existing fact.
        Txn::new().insert("Researcher", ["mary"]),
        // Empty transaction.
        Txn::new(),
        // And a plain component-local delta to show the chain recovered.
        Txn::new()
            .insert("Researcher", ["ada"])
            .insert("HasOffice", ["ada", "lab9"])
            .insert("InBuilding", ["lab9", "west"]),
    ];
    for txn in commits {
        let receipt = store.commit(txn).unwrap();
        let head = store.snapshot();
        maintained = maintained.refresh(&head, &receipt).unwrap();
        let scratch = plan.execute(&head).unwrap();
        for sem in Semantics::ALL {
            assert_eq!(
                answer_multiset(&maintained, sem),
                answer_multiset(&scratch, sem)
            );
        }
    }
    // The last delta was absorbed incrementally, not by rebuild.
    assert!(maintained.stats().reused_shards > 0);
}
