//! Differential suite for the distributed coordinator/worker path: a
//! cluster run over **real worker processes** must produce, on all three
//! answer semantics, the same answer *multiset* as the in-process parallel
//! pipeline (`QueryPlan::execute_parallel`) and the sequential engine —
//! including the 1-worker degenerate case, skewed shard sizes (one
//! component dwarfing the rest, where the work-stealing queue earns its
//! keep), and a worker killed mid-shard whose work must be reassigned
//! without changing the answers.
//!
//! The worker processes are this very test binary: the coordinator spawns
//! `current_exe() worker_process_entry --exact`, and the
//! [`worker_process_entry`] "test" sees the cluster environment variables
//! and becomes a worker instead of asserting anything.

use omq::cluster::{execute, ClusterConfig, ClusterStats, Kill, WorkerSpawn};
use omq::prelude::*;
use omq_wire::render_answer;
use std::collections::BTreeMap;
use std::time::Duration;

/// Self-spawn hook: when run normally this is an empty test; when the
/// coordinator spawns the test binary with `OMQ_CLUSTER_WORKER_ADDR` set,
/// it runs the worker loop until the coordinator says bye.
#[test]
fn worker_process_entry() {
    omq::cluster::maybe_run_worker();
}

const ONTOLOGY: &str = "Researcher(x) -> exists y. HasOffice(x, y)\n\
                        HasOffice(x, y) -> Office(y)\n\
                        Office(x) -> exists y. InBuilding(x, y)";
const QUERY: &str = "q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)";
/// Projection to the building only: answers can degenerate to the all-star
/// tuple, the one case where minimality is a cross-shard property.
const BUILDING_QUERY: &str = "q(x3) :- HasOffice(x1, x2), InBuilding(x2, x3)";

fn omq(query: &str) -> OntologyMediatedQuery {
    let ontology = Ontology::parse(ONTOLOGY).unwrap();
    let query = ConjunctiveQuery::parse(query).unwrap();
    OntologyMediatedQuery::new(ontology, query).unwrap()
}

/// `islands` disjoint researcher/office/building components; island `i`
/// carries `offices(i)` offices.  Disjoint constants keep the Gaifman
/// components independent, so the shard count tracks the island count.
fn island_db(schema: &Schema, islands: usize, offices: impl Fn(usize) -> usize) -> Database {
    let mut builder = Database::builder(schema.clone());
    for i in 0..islands {
        builder = builder.fact("Researcher", [format!("p{i}")]);
        for o in 0..offices(i) {
            builder = builder
                .fact("HasOffice", [format!("p{i}"), format!("o{i}_{o}")])
                .fact("InBuilding", [format!("o{i}_{o}"), format!("b{i}")]);
        }
    }
    builder.build().unwrap()
}

fn uniform_db(schema: &Schema) -> Database {
    island_db(schema, 6, |_| 2)
}

/// One island holds 12 of the 17 offices: the classic straggler shape the
/// largest-first queue is built for.
fn skewed_db(schema: &Schema) -> Database {
    island_db(schema, 6, |i| if i == 0 { 12 } else { 1 })
}

/// Renders a whole stream into a name-keyed multiset; fails the test if the
/// stream ended with an error.
fn drain(stream: &mut AnswerStream, db: &Database) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for answer in &mut *stream {
        *counts
            .entry(render_answer(&answer, db).join(","))
            .or_default() += 1;
    }
    assert!(
        stream.error().is_none(),
        "stream failed: {:?}",
        stream.error()
    );
    counts
}

/// Spawn workers as fresh processes of this very test binary (see
/// [`worker_process_entry`]).
fn process_spawn() -> WorkerSpawn {
    WorkerSpawn::Command {
        program: std::env::current_exe().unwrap(),
        args: vec!["worker_process_entry".into(), "--exact".into()],
    }
}

fn cluster_multiset(
    query: &str,
    db: &Database,
    semantics: Semantics,
    config: &ClusterConfig,
) -> (BTreeMap<String, usize>, ClusterStats) {
    let run = execute(ONTOLOGY, query, db, semantics, config).unwrap();
    let mut stream = run.stream;
    let counts = drain(&mut stream, db);
    (counts, run.handle.finish())
}

/// The differential matrix: three semantics × both queries × 1/2/4 workers
/// × uniform and skewed databases, distributed-over-processes versus
/// `execute_parallel` versus sequential.
#[test]
fn distributed_processes_match_in_process_parallel() {
    for query in [QUERY, BUILDING_QUERY] {
        let omq = omq(query);
        let plan = QueryPlan::compile(&omq).unwrap();
        for db in [uniform_db(omq.data_schema()), skewed_db(omq.data_schema())] {
            for semantics in [
                Semantics::Complete,
                Semantics::MinimalPartial,
                Semantics::MinimalPartialMulti,
            ] {
                let sequential = {
                    let instance = plan.execute(&db).unwrap();
                    drain(&mut instance.answers(semantics).unwrap(), &db)
                };
                for workers in [1usize, 2, 4] {
                    let parallel = {
                        let instance = plan.execute_parallel(&db, workers).unwrap();
                        drain(&mut instance.answers(semantics).unwrap(), &db)
                    };
                    assert_eq!(
                        parallel, sequential,
                        "parallel diverged ({workers} threads)"
                    );
                    let config = ClusterConfig {
                        workers,
                        worker_timeout: Duration::from_secs(20),
                        spawn: process_spawn(),
                        ..ClusterConfig::default()
                    };
                    let (distributed, stats) = cluster_multiset(query, &db, semantics, &config);
                    assert_eq!(
                        distributed, sequential,
                        "distributed diverged ({workers} workers, {semantics:?})"
                    );
                    assert_eq!(stats.workers, workers);
                    assert_eq!(stats.worker_failures, 0);
                    if workers > 1 {
                        assert!(stats.shards > 1, "expected sharding: {stats:?}");
                        // Every take beyond a worker's first is a steal, so
                        // the floor is exact whatever the interleaving.
                        assert!(
                            stats.steals >= stats.shards - stats.workers,
                            "stats: {stats:?}"
                        );
                    } else {
                        assert_eq!(stats.shards, 1);
                    }
                }
            }
        }
    }
}

/// Kill a worker process mid-shard: with one answer per page and a fault
/// that drops the connection after the first page, worker 0 dies holding an
/// uncommitted shard.  The run must reassign it to the survivor and the
/// final multiset must not change.
#[test]
fn killed_worker_process_is_reassigned_without_losing_answers() {
    let omq = omq(QUERY);
    let plan = QueryPlan::compile(&omq).unwrap();
    let db = island_db(omq.data_schema(), 8, |_| 2);
    let sequential = {
        let instance = plan.execute(&db).unwrap();
        drain(&mut instance.answers(Semantics::Complete).unwrap(), &db)
    };
    let config = ClusterConfig {
        workers: 2,
        worker_timeout: Duration::from_secs(20),
        spawn: process_spawn(),
        page_answers: Some(1),
        kill: Some(Kill {
            worker: 0,
            after_pages: 1,
        }),
    };
    let (distributed, stats) = cluster_multiset(QUERY, &db, Semantics::Complete, &config);
    assert_eq!(distributed, sequential);
    assert_eq!(stats.worker_failures, 1, "stats: {stats:?}");
    assert!(stats.reassignments >= 1, "stats: {stats:?}");
}

/// Setup failures stay on the coordinator: a query that does not parse is
/// rejected before any process is spawned, with a client-fault wire code —
/// through the facade error, like every other layer.
#[test]
fn coordinator_rejects_bad_input_with_the_shared_taxonomy() {
    let omq = omq(QUERY);
    let db = island_db(omq.data_schema(), 1, |_| 1);
    let err: omq::Error = execute(
        ONTOLOGY,
        "q(x :-",
        &db,
        Semantics::Complete,
        &ClusterConfig::default(),
    )
    .err()
    .expect("unparsable query must fail")
    .into();
    assert!(matches!(err, omq::Error::Cluster(_)));
    assert!(err.wire_code().is_client_error());
}
