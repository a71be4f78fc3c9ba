//! Tier-1 smoke: one short test per member crate through its public
//! surface, so `cargo test -q` at the root cannot be green while a member
//! crate is red.  The crates' own suites (`cargo test --workspace`) stay the
//! thorough ones; these only prove each layer still does its job on the
//! paper's running example (Example 1.1).

use omq::prelude::*;
use std::collections::BTreeMap;

const ONTOLOGY: &str = "Researcher(x) -> exists y. HasOffice(x, y)\n\
                        HasOffice(x, y) -> Office(y)\n\
                        Office(x) -> exists y. InBuilding(x, y)";
const QUERY: &str = "q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)";

fn office_omq() -> OntologyMediatedQuery {
    let ontology = Ontology::parse(ONTOLOGY).unwrap();
    OntologyMediatedQuery::new(ontology, ConjunctiveQuery::parse(QUERY).unwrap()).unwrap()
}

fn office_txn() -> Txn {
    Txn::new()
        .insert("Researcher", ["mary"])
        .insert("Researcher", ["john"])
        .insert("Researcher", ["mike"])
        .insert("HasOffice", ["mary", "room1"])
        .insert("HasOffice", ["john", "room4"])
        .insert("InBuilding", ["room1", "main1"])
}

fn office_db() -> Database {
    let mut store = Store::new(office_omq().data_schema().clone());
    store.commit(office_txn()).unwrap();
    store.snapshot().database().clone()
}

fn office_instance(db: &Database) -> PreparedInstance {
    let plan = QueryPlan::compile(&office_omq()).unwrap();
    plan.execute(db).unwrap()
}

#[test]
fn data_commits_are_atomic_and_snapshots_isolated() {
    let mut store = Store::new(office_omq().data_schema().clone());
    let receipt = store.commit(office_txn()).unwrap();
    assert_eq!(receipt.new_facts, 6);
    let pinned = store.snapshot();
    store
        .commit(Txn::new().insert("Researcher", ["zoe"]))
        .unwrap();
    assert!(store.commit(Txn::new().insert("Nope", ["x"])).is_err());
    assert_eq!(pinned.database().len(), 6);
    assert_eq!(store.snapshot().database().len(), 7);
}

#[test]
fn cq_parses_and_classifies() {
    let full = AcyclicityReport::classify(&ConjunctiveQuery::parse(QUERY).unwrap());
    assert!(full.enumeration_tractable());
    let projected = ConjunctiveQuery::parse("q(x, z) :- R(x, y), S(y, z)").unwrap();
    let report = AcyclicityReport::classify(&projected);
    assert!(report.acyclic && !report.free_connex_acyclic);
    assert!(ConjunctiveQuery::parse("q(x :- R(x)").is_err());
}

#[test]
fn chase_builds_the_query_directed_chase_of_the_running_example() {
    let db = office_db();
    let chased = query_directed_chase(&db, &office_omq(), &QchaseConfig::default()).unwrap();
    assert!(chased.grafts > 0 && chased.database.len() > db.len());
    // Saturation derives `Office` for both named rooms; grafting adds the
    // anonymous ones.
    let office = chased.database.schema().relation_id("Office").unwrap();
    let offices = chased.database.facts().iter().filter(|f| f.rel == office);
    assert_eq!(offices.filter(|f| !f.args[0].is_null()).count(), 2);
}

#[test]
fn core_enumerates_counts_and_tests_all_three_semantics() {
    let instance = office_instance(&office_db());
    for (semantics, expected) in Semantics::ALL.into_iter().zip([1, 3, 3]) {
        let answers: Vec<Answer> = instance.answers(semantics).unwrap().collect();
        assert_eq!(answers.len(), expected, "{semantics}");
        assert_eq!(instance.count(semantics).unwrap(), expected as u64);
        assert!(answers.iter().all(|a| instance.test(a).unwrap()));
    }
    let weaker = Answer::Partial(instance.parse_partial(&["mary", "room1", "*"]).unwrap());
    assert!(!instance.test(&weaker).unwrap());
}

#[test]
fn serve_registers_commits_and_streams() {
    let mut engine = ServingEngine::new(2);
    let id = engine.register_query("offices", &office_omq()).unwrap();
    engine.register_data(office_txn()).unwrap();
    let request = Request::new(id, Semantics::MinimalPartial);
    assert_eq!(engine.serve_stream(&request).unwrap().count(), 3);
    assert_eq!(engine.count(&request).unwrap().count, 3);
}

#[test]
fn wire_frames_and_answers_round_trip() {
    use omq_wire::{frame_payload, parse_answer, render_answer, FrameDecoder};
    let mut decoder = FrameDecoder::new();
    let framed = frame_payload(b"{\"op\":\"bye\"}");
    decoder.feed(&framed[..3]); // a torn read
    assert_eq!(decoder.next_frame().unwrap(), None);
    decoder.feed(&framed[3..]);
    assert_eq!(decoder.next_frame().unwrap().unwrap(), b"{\"op\":\"bye\"}");

    let db = office_db();
    for semantics in Semantics::ALL {
        for answer in office_instance(&db).answers(semantics).unwrap() {
            let rendered = render_answer(&answer, &db);
            assert_eq!(parse_answer(&rendered, semantics, &db).unwrap(), answer);
        }
    }
}

#[test]
fn server_opens_fetches_and_closes_over_loopback() {
    let server = Server::start(ServingEngine::new(1), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = client.register_query("offices", ONTOLOGY, QUERY).unwrap();
    client
        .insert_all("HasOffice", [vec!["mary", "room1"]])
        .unwrap();
    let cursor = client
        .open_cursor(QueryTarget::Id(id), Semantics::MinimalPartial, None)
        .unwrap();
    let page = client.fetch(cursor, 8).unwrap();
    assert_eq!(page.answers, vec![vec!["mary", "room1", "*"]]);
    assert!(page.done);
    client.close_cursor(cursor).unwrap();
    client.bye().unwrap();
    server.shutdown();
}

#[test]
fn cluster_of_two_in_process_workers_matches_sequential() {
    let db = office_db();
    let config = ClusterConfig {
        workers: 2,
        spawn: WorkerSpawn::InProcess,
        ..ClusterConfig::default()
    };
    let multiset = |stream: &mut AnswerStream| {
        let mut counts: BTreeMap<Answer, usize> = BTreeMap::new();
        for answer in stream.by_ref() {
            *counts.entry(answer).or_default() += 1;
        }
        assert!(stream.error().is_none(), "{:?}", stream.error());
        counts
    };
    let instance = office_instance(&db);
    for semantics in Semantics::ALL {
        let mut run = omq::cluster::execute(ONTOLOGY, QUERY, &db, semantics, &config).unwrap();
        let mut sequential = instance.answers(semantics).unwrap();
        assert_eq!(multiset(&mut run.stream), multiset(&mut sequential));
        assert_eq!(run.handle.finish().workers, 2);
    }
}
