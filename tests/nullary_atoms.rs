//! Nullary atoms end to end.  A nullary fact has no value, so it lies in
//! every Gaifman component at once: a plan whose OMQ has a nullary atom runs
//! as one shard, and a bag's type lists the nullary facts present.  Two OMQs
//! whose answers hang on a nullary fact are checked against the brute-force
//! baseline on every entry point: `execute`, `execute_parallel` with one to
//! four workers, a refresh chain, one plan over two databases in either
//! order, a `ServingEngine` store and a two-worker cluster.

use omq::cluster::{ClusterConfig, WorkerSpawn};
use omq::prelude::*;
use std::collections::BTreeSet;

/// An OMQ and its database's facts in commit order; the last fact is the
/// one the answers hang on.
struct Case {
    ontology: &'static str,
    query: &'static str,
    facts: &'static [(&'static str, &'static [&'static str])],
}

const CASES: [Case; 2] = [
    // One component's fact derives `N()`, which another component's rule
    // reads.
    Case {
        ontology: "A(x) -> N()\nN(), B(x) -> C(x)",
        query: "q(x) :- C(x)",
        facts: &[("B", &["b"]), ("A", &["a"])],
    },
    // A nullary side atom: the bag {P(a)} is one type with `Flag()` present
    // and another without it.
    Case {
        ontology: "P(x), Flag() -> Q(x)",
        query: "q(x) :- Q(x)",
        facts: &[("P", &["a"]), ("Flag", &[])],
    },
];

impl Case {
    fn omq(&self) -> OntologyMediatedQuery {
        let ontology = Ontology::parse(self.ontology).unwrap();
        let query = ConjunctiveQuery::parse(self.query).unwrap();
        OntologyMediatedQuery::new(ontology, query).unwrap()
    }

    /// The database of the first `n` facts.
    fn db(&self, n: usize) -> Database {
        let mut builder = Database::builder(self.omq().data_schema().clone());
        for (relation, args) in &self.facts[..n] {
            builder = builder.fact(relation, args);
        }
        builder.build().unwrap()
    }
}

/// The answers of every semantics, in `Semantics::ALL` order, rendered with
/// constant names.
type Rendered = [BTreeSet<String>; 3];

fn render(answers: impl IntoIterator<Item = Answer>, db: &Database) -> BTreeSet<String> {
    answers
        .into_iter()
        .map(|a| a.display_with(|c| db.const_name(c).to_owned()))
        .collect()
}

fn expected(omq: &OntologyMediatedQuery, db: &Database) -> Rendered {
    let brute = BruteForce::new(omq, db, &ChaseConfig::default()).unwrap();
    Semantics::ALL.map(|semantics| {
        let answers: Vec<Answer> = match semantics {
            Semantics::Complete => brute
                .complete_answers()
                .into_iter()
                .map(|t| Answer::Complete(t.iter().map(|v| v.as_const().unwrap()).collect()))
                .collect(),
            Semantics::MinimalPartial => brute
                .minimal_partial()
                .into_iter()
                .map(Answer::Partial)
                .collect(),
            Semantics::MinimalPartialMulti => brute
                .minimal_partial_multi()
                .into_iter()
                .map(Answer::Multi)
                .collect(),
        };
        render(answers, &brute.chased)
    })
}

fn answers(instance: &PreparedInstance) -> Rendered {
    Semantics::ALL.map(|semantics| {
        let stream = instance.answers(semantics).unwrap();
        stream.map(|a| instance.format_answer(&a)).collect()
    })
}

#[test]
fn execute_and_execute_parallel_agree_with_brute_force() {
    for case in &CASES {
        let omq = case.omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        let db = case.db(case.facts.len());
        let want = expected(&omq, &db);
        assert_eq!(want[0].len(), 1, "{}", case.ontology);
        assert_eq!(
            answers(&plan.execute(&db).unwrap()),
            want,
            "{}",
            case.ontology
        );
        for workers in 1..=4 {
            let parallel = plan.execute_parallel(&db, workers).unwrap();
            assert_eq!(
                answers(&parallel),
                want,
                "{workers} workers, {}",
                case.ontology
            );
            assert_eq!(parallel.shard_count(), 1, "{}", case.ontology);
        }
    }
}

#[test]
fn a_refresh_chain_committing_the_nullary_fact_last_agrees_with_brute_force() {
    for case in &CASES {
        let omq = case.omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        let mut store = Store::new(omq.data_schema().clone());
        let mut instance: Option<PreparedInstance> = None;
        for (relation, args) in case.facts {
            let receipt = store.commit(Txn::new().insert(relation, args)).unwrap();
            let head = store.snapshot();
            let next = match &instance {
                None => plan.execute_tracked(&head).unwrap(),
                Some(previous) => previous.refresh(&head, &receipt).unwrap(),
            };
            let want = expected(&omq, head.as_ref());
            assert_eq!(answers(&next), want, "after {relation}, {}", case.ontology);
            instance = Some(next);
        }
    }
}

#[test]
fn one_plan_over_both_databases_in_either_order_agrees_with_brute_force() {
    for case in &CASES {
        let omq = case.omq();
        let with = case.db(case.facts.len());
        let without = case.db(case.facts.len() - 1);
        for order in [[&with, &without], [&without, &with]] {
            let plan = QueryPlan::compile(&omq).unwrap();
            for db in order {
                let want = expected(&omq, db);
                assert_eq!(
                    answers(&plan.execute(db).unwrap()),
                    want,
                    "{}",
                    case.ontology
                );
                let parallel = plan.execute_parallel(db, 2).unwrap();
                assert_eq!(answers(&parallel), want, "{}", case.ontology);
            }
        }
    }
}

#[test]
fn a_serving_engine_store_agrees_with_brute_force() {
    for case in &CASES {
        let omq = case.omq();
        let mut engine = ServingEngine::new(2);
        let id = engine.register_query("q", &omq).unwrap();
        for (relation, args) in case.facts {
            engine
                .register_data(Txn::new().insert(relation, args))
                .unwrap();
            let head = engine.snapshot();
            let served = Semantics::ALL.map(|semantics| {
                let response = engine.serve_stream(&Request::new(id, semantics)).unwrap();
                render(response, head.as_ref())
            });
            let want = expected(&omq, head.as_ref());
            assert_eq!(served, want, "after {relation}, {}", case.ontology);
        }
    }
}

#[test]
fn a_two_worker_cluster_agrees_with_brute_force() {
    let config = ClusterConfig {
        workers: 2,
        spawn: WorkerSpawn::InProcess,
        ..ClusterConfig::default()
    };
    for case in &CASES {
        let db = case.db(case.facts.len());
        let mut shards = Vec::new();
        let got = Semantics::ALL.map(|semantics| {
            let mut run =
                omq::cluster::execute(case.ontology, case.query, &db, semantics, &config).unwrap();
            let rendered = render(run.stream.by_ref(), &db);
            assert!(run.stream.error().is_none(), "{:?}", run.stream.error());
            shards.push(run.handle.finish().shards);
            rendered
        });
        assert_eq!(got, expected(&case.omq(), &db), "{}", case.ontology);
        assert_eq!(shards, [1; 3], "{}", case.ontology);
    }
}
