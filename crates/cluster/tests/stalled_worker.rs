//! A worker that says `ready` and then stops reading must not hang the run:
//! the coordinator's writes to it time out like its reads do, the worker
//! counts as dead, and its shard goes to the other worker.
//!
//! The worker processes are this very test binary: the coordinator spawns
//! `current_exe() stalled_worker_entry --exact`, and [`stalled_worker_entry`]
//! decides by `OMQ_CLUSTER_WORKER_INDEX` which worker to be.  Worker 0
//! connects at once, announces itself and then neither reads nor exits for
//! longer than the test's deadline; worker 1 is an ordinary worker that
//! connects 300 ms later, so the run's one shard is shipped to worker 0
//! first.  The shard is one Gaifman component of about 32 MiB of rows,
//! more than loopback buffers hold, so shipping it to worker 0 blocks.

use omq_chase::{Ontology, OntologyMediatedQuery};
use omq_cluster::worker::{WORKER_ADDR_ENV, WORKER_INDEX_ENV};
use omq_cluster::{execute, ClusterConfig, WorkerFrame, WorkerSpawn};
use omq_core::{AnswerStream, QueryPlan};
use omq_cq::ConjunctiveQuery;
use omq_data::{Database, Semantics};
use omq_wire::render_answer;
use std::io::Write;
use std::time::Duration;

const ONTOLOGY: &str = "Researcher(x) -> exists y. HasOffice(x, y)\n\
                        HasOffice(x, y) -> Office(y)\n\
                        Office(x) -> exists y. InBuilding(x, y)";
const QUERY: &str = "q(x1) :- HasOffice(x1, x2), InBuilding(x2, x3)";

/// How long the whole run may take before the test fails as hung.
const DEADLINE: Duration = Duration::from_secs(20);

/// Self-spawn hook: when run normally this is an empty test; spawned by the
/// coordinator, it becomes worker 0 (stalled) or worker 1 (healthy, late).
#[test]
fn stalled_worker_entry() {
    let Ok(addr) = std::env::var(WORKER_ADDR_ENV) else {
        return;
    };
    if std::env::var(WORKER_INDEX_ENV).as_deref() == Ok("0") {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(&WorkerFrame::Ready { worker: 0 }.encode())
            .unwrap();
        std::thread::sleep(DEADLINE + Duration::from_secs(10));
    } else {
        std::thread::sleep(Duration::from_millis(300));
        omq_cluster::maybe_run_worker();
    }
}

/// Eight researchers with 16 offices each, all in one building: one
/// component of 264 facts whose office names are 128 KiB long.
fn one_large_component(omq: &OntologyMediatedQuery) -> Database {
    let mut builder = Database::builder(omq.data_schema().clone());
    for r in 0..8 {
        builder = builder.fact("Researcher", [format!("r{r}")]);
        for o in 0..16 {
            let office = format!("o{r}_{o}_{}", "x".repeat(128 * 1024));
            builder = builder
                .fact("HasOffice", [format!("r{r}"), office.clone()])
                .fact("InBuilding", [office, "b".to_owned()]);
        }
    }
    builder.build().unwrap()
}

fn rendered(stream: &mut AnswerStream, db: &Database) -> Vec<Vec<String>> {
    let mut answers: Vec<Vec<String>> = stream.by_ref().map(|a| render_answer(&a, db)).collect();
    assert!(stream.error().is_none(), "{:?}", stream.error());
    answers.sort();
    answers
}

#[test]
fn a_worker_that_stops_reading_is_timed_out() {
    let omq = OntologyMediatedQuery::new(
        Ontology::parse(ONTOLOGY).unwrap(),
        ConjunctiveQuery::parse(QUERY).unwrap(),
    )
    .unwrap();
    let db = one_large_component(&omq);
    let local = {
        let instance = QueryPlan::compile(&omq).unwrap().execute(&db).unwrap();
        rendered(&mut instance.answers(Semantics::Complete).unwrap(), &db)
    };
    let config = ClusterConfig {
        workers: 2,
        worker_timeout: Duration::from_secs(2),
        spawn: WorkerSpawn::Command {
            program: std::env::current_exe().unwrap(),
            args: vec!["stalled_worker_entry".into(), "--exact".into()],
        },
        ..ClusterConfig::default()
    };

    // The run goes on a thread of its own, so a hang fails the test at the
    // deadline instead of blocking it.  Statistics come from the handle
    // rather than `finish`, which would wait for the stalled child.
    let (sender, receiver) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut run = execute(ONTOLOGY, QUERY, &db, Semantics::Complete, &config).unwrap();
        let answers = rendered(&mut run.stream, &db);
        let _ = sender.send((answers, run.handle.stats()));
    });
    let (answers, stats) = receiver
        .recv_timeout(DEADLINE)
        .expect("the run hung on a worker that stopped reading");
    assert_eq!(answers, local);
    assert_eq!(stats.shards, 1, "stats: {stats:?}");
    assert_eq!(stats.worker_failures, 1, "stats: {stats:?}");
    assert_eq!(stats.reassignments, 1, "stats: {stats:?}");
}
