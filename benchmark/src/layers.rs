//! The per-layer probes of the traced run.
//!
//! Each probe calls one layer's public functions one at a time, on the
//! workload's dataset, inside a span; the numbers reported are span *self*
//! times (span minus child spans).  Nine rounds of identical work; the
//! value of a timing is the mean of the best two of the nine, the value of a
//! count is the count (it repeats exactly).
//!
//! Which end-to-end metric each of these should move, on which workload, is
//! written down in the README before anyone optimises anything.

use crate::gen::Dataset;
use crate::stats::{better_tail, median, Better};
use crate::trace::Tracer;
use crate::workload::{
    calibrate_ms, mismatch, parse_omq, think, txn_of, BenchError, BenchResult, Ops, PAGE, SEMANTICS,
};
use omq_chase::{Ontology, OntologyMediatedQuery, QchaseConfig, QchasePlan};
use omq_core::{PreparedInstance, QueryPlan};
use omq_cq::ConjunctiveQuery;
use omq_data::{Answer, Database, PartialValue, Semantics, Store, Value};
use omq_serve::{Request, ServingEngine};
use omq_server::{
    Client, ClientFrame, Connection, FrameDecoder, QueryTarget, Server, ServerConfig, ServerFrame,
    Shared,
};
use omq_wire::{answer_wire_len, render_answer};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Duration;

/// Every round commits [`DELTAS`] deltas to the served store, and the
/// counts of a round must equal those of the first: 9 × 4 deltas add at most
/// 108 answers, which leaves the number of served pages alone.
pub const ROUNDS: u32 = 9;
/// Round ids of the layer probes start here, clear of the traced
/// end-to-end rounds that share the trace file.
pub const FIRST_ROUND_ID: u32 = 100;

/// Fixed batch sizes of the probes whose single call is too short to time.
const PARSE_REPS: usize = 100;
const COMPILE_REPS: usize = 20;
const SNAPSHOT_REPS: usize = 1000;
const CODEC_REPS: usize = 16;
const DELTAS: usize = 4;
const RTT_REPS: usize = 32;
const CANDIDATES: usize = 1000;

/// `(name, unit, better)` of every per-layer metric, in print order.
/// `BENCHMARK.json` lists exactly these (a unit test holds it to that).
pub const METRICS: &[(&str, &str, Better)] = &[
    ("data.load_ms", "ms", Better::Lower),
    ("data.load_facts", "count", Better::Lower),
    ("data.columnar_build_ms", "ms", Better::Lower),
    ("data.components", "count", Better::Lower),
    ("data.shard_ms", "ms", Better::Lower),
    ("data.bulk_commit_ms", "ms", Better::Lower),
    ("data.commit_us", "us", Better::Lower),
    ("data.snapshot_ns", "ns", Better::Lower),
    ("cq.parse_us", "us", Better::Lower),
    ("chase.cold_ms", "ms", Better::Lower),
    ("chase.warm_ms", "ms", Better::Lower),
    ("chase.out_facts", "count", Better::Lower),
    ("chase.memo_bag_types", "count", Better::Lower),
    ("core.compile_us", "us", Better::Lower),
    ("core.execute_ms", "ms", Better::Lower),
    ("core.execute_tracked_ms", "ms", Better::Lower),
    ("core.shards", "count", Better::Lower),
    ("core.refresh_us", "us", Better::Lower),
    ("core.refresh_reused_shards", "count", Better::Higher),
    ("core.structure_complete_ms", "ms", Better::Lower),
    ("core.structure_partial_ms", "ms", Better::Lower),
    ("core.open_us.complete", "us", Better::Lower),
    ("core.open_us.partial", "us", Better::Lower),
    ("core.open_us.multi", "us", Better::Lower),
    ("core.answer_ns.complete", "ns", Better::Lower),
    ("core.answer_ns.partial", "ns", Better::Lower),
    ("core.answer_ns.multi", "ns", Better::Lower),
    ("core.count_ms.complete", "ms", Better::Lower),
    ("core.count_ms.partial", "ms", Better::Lower),
    ("core.test_us", "us", Better::Lower),
    ("core.all_test_ns", "ns", Better::Lower),
    ("serve.register_query_us", "us", Better::Lower),
    ("serve.register_data_us", "us", Better::Lower),
    ("serve.open_us", "us", Better::Lower),
    ("serve.page_us", "us", Better::Lower),
    ("serve.count_ms", "ms", Better::Lower),
    ("wire.render_ns", "ns", Better::Lower),
    ("wire.wire_len_ns", "ns", Better::Lower),
    ("wire.encode_page_us", "us", Better::Lower),
    ("wire.decode_page_us", "us", Better::Lower),
    ("wire.page_bytes", "bytes", Better::Lower),
    ("server.conn_open_us", "us", Better::Lower),
    ("server.conn_fetch_us", "us", Better::Lower),
    ("server.rtt_floor_us", "us", Better::Lower),
    ("server.fetch_rtt_us", "us", Better::Lower),
    ("server.poll_wait_us", "us", Better::Lower),
    ("bench.calib_ms", "ms", Better::Lower),
    ("bench.trace_overhead_pct", "%", Better::Lower),
    ("bench.alloc_calls.chase.warm", "count", Better::Lower),
    ("bench.alloc_bytes.chase.warm", "bytes", Better::Lower),
    ("bench.alloc_calls.core.execute", "count", Better::Lower),
    ("bench.alloc_bytes.core.execute", "bytes", Better::Lower),
    (
        "bench.alloc_calls.core.structure_partial",
        "count",
        Better::Lower,
    ),
    (
        "bench.alloc_bytes.core.structure_partial",
        "bytes",
        Better::Lower,
    ),
    (
        "bench.alloc_calls.core.pages.partial",
        "count",
        Better::Lower,
    ),
    (
        "bench.alloc_bytes.core.pages.partial",
        "bytes",
        Better::Lower,
    ),
    ("bench.alloc_calls.wire.encode_page", "count", Better::Lower),
    ("bench.alloc_bytes.wire.encode_page", "bytes", Better::Lower),
    (
        "bench.alloc_calls.server.conn_fetch",
        "count",
        Better::Lower,
    ),
    (
        "bench.alloc_bytes.server.conn_fetch",
        "bytes",
        Better::Lower,
    ),
];

/// The spans whose main-thread allocations are reported, with the names of
/// their two metrics.
const ALLOC_SPANS: [(&str, &str, &str); 6] = [
    (
        "chase.warm",
        "bench.alloc_calls.chase.warm",
        "bench.alloc_bytes.chase.warm",
    ),
    (
        "core.execute",
        "bench.alloc_calls.core.execute",
        "bench.alloc_bytes.core.execute",
    ),
    (
        "core.structure_partial",
        "bench.alloc_calls.core.structure_partial",
        "bench.alloc_bytes.core.structure_partial",
    ),
    (
        "core.pages.partial",
        "bench.alloc_calls.core.pages.partial",
        "bench.alloc_bytes.core.pages.partial",
    ),
    (
        "wire.encode_page",
        "bench.alloc_calls.wire.encode_page",
        "bench.alloc_bytes.wire.encode_page",
    ),
    (
        "server.conn_fetch",
        "bench.alloc_calls.server.conn_fetch",
        "bench.alloc_bytes.server.conn_fetch",
    ),
];

/// The counts a round observes; they must be the same every round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    load_facts: usize,
    components: usize,
    out_facts: usize,
    memo_bag_types: usize,
    shards: usize,
    refresh_reused_shards: usize,
    page_bytes: usize,
    /// Answers behind one `core.pages.<semantics>` span.
    steady_answers: [u64; 3],
    /// Candidates behind one `core.all_test` span.
    all_test_candidates: usize,
    /// Pages behind one round's `serve.page` / `server.conn_fetch` /
    /// `server.fetch_rtt` spans.
    pages: u64,
}

fn open_span(semantics: Semantics) -> &'static str {
    match semantics {
        Semantics::Complete => "core.open.complete",
        Semantics::MinimalPartial => "core.open.partial",
        Semantics::MinimalPartialMulti => "core.open.multi",
    }
}

fn pages_span(semantics: Semantics) -> &'static str {
    match semantics {
        Semantics::Complete => "core.pages.complete",
        Semantics::MinimalPartial => "core.pages.partial",
        Semantics::MinimalPartialMulti => "core.pages.multi",
    }
}

const QUERY_NAME: &str = "q";

/// The fixtures the serving probes share, built once before the rounds:
/// one engine holding the dataset, served by one server worker, reachable
/// socket-free through `shared` and over loopback through `client`.
struct Served {
    client: Client,
    shared: std::sync::Arc<Shared>,
    _server: Server,
    /// Next unused delta index (the store only ever grows).
    next_delta: usize,
}

impl Served {
    fn start(ds: &Dataset, omq: &OntologyMediatedQuery, ops: &mut Ops) -> BenchResult<Served> {
        let mut engine = ServingEngine::new(1);
        ops.run(
            "ServingEngine::register_query",
            engine.register_query(QUERY_NAME, omq),
        )?;
        ops.run(
            "ServingEngine::register_data",
            engine.register_data(txn_of(&ds.rows)),
        )?;
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = ops.run("Server::start", Server::start(engine, config))?;
        let client = ops.run("Client::connect", Client::connect(server.local_addr()))?;
        ops.run(
            "Client::set_timeout",
            client.set_timeout(Some(Duration::from_secs(60))),
        )?;
        Ok(Served {
            client,
            shared: server.shared_engine(),
            _server: server,
            next_delta: 0,
        })
    }
}

/// Runs the probes; returns `(name, value)` for every metric of
/// [`METRICS`] except `bench.trace_overhead_pct`, which only the caller —
/// who ran the traced and untraced end-to-end rounds — can know.
pub fn run(ds: &Dataset, tr: &mut Tracer, ops: &mut Ops) -> BenchResult<Vec<(&'static str, f64)>> {
    let omq = parse_omq(ds, ops)?;
    let plan = ops.run("QueryPlan::compile", QueryPlan::compile(&omq))?;
    let mut served = Served::start(ds, &omq, ops)?;

    let mut counts: Option<Counts> = None;
    for round in 0..ROUNDS {
        tr.set_round(FIRST_ROUND_ID + round);
        let seen = tr.span("layers", |tr| {
            one_round(ds, &omq, &plan, &mut served, tr, ops)
        })?;
        match counts {
            None => counts = Some(seen),
            Some(first) if first != seen => {
                return mismatch(format!(
                    "layer counts differ between rounds: {first:?} vs {seen:?}"
                ))
            }
            Some(_) => {}
        }
    }
    let counts = counts.expect("at least one round");
    Ok(report(tr, &counts))
}

fn one_round(
    ds: &Dataset,
    omq: &OntologyMediatedQuery,
    plan: &QueryPlan,
    served: &mut Served,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> BenchResult<Counts> {
    tr.span("bench.calib", |_| calibrate_ms());

    // --- data ---------------------------------------------------------
    let db = tr.span("data.load", |_| {
        ops.run(
            "Database::from_fact_rows",
            Database::from_fact_rows(ds.schema(), &ds.rows),
        )
    })?;
    tr.span("data.shard", |_| black_box(db.shard_by_component()));
    let mut store = Store::new(ds.schema());
    let bulk = txn_of(&ds.rows);
    tr.span("data.bulk_commit", |_| {
        ops.run("Store::commit", store.commit(bulk))
    })?;
    for k in 0..DELTAS {
        let delta = txn_of(&ds.delta(k));
        tr.span("data.commit", |_| {
            ops.run("Store::commit", store.commit(delta))
        })?;
    }
    tr.span("data.snapshot", |_| {
        for _ in 0..SNAPSHOT_REPS {
            black_box(store.snapshot());
        }
    });

    // --- cq -----------------------------------------------------------
    tr.span("cq.parse", |_| -> BenchResult<()> {
        for _ in 0..PARSE_REPS {
            black_box(ops.run("ConjunctiveQuery::parse", ConjunctiveQuery::parse(ds.query))?);
            black_box(ops.run("Ontology::parse", Ontology::parse(ds.ontology))?);
        }
        Ok(())
    })?;

    // --- chase --------------------------------------------------------
    let chase_plan = ops.run(
        "QchasePlan::new",
        QchasePlan::new(omq, &QchaseConfig::default()),
    )?;
    tr.span("chase.cold", |_| {
        ops.run("QchasePlan::chase", chase_plan.chase(&db))
    })?;
    // From here on the probes on time-to-first-answer's path run in the
    // state that path finds them in — a just-cloned input, a just-executed
    // instance, the partial cursor opened before anything else — so that
    // their sum can be held against `ttfa_ms`.
    let fresh = db.clone();
    let chased = tr.span("chase.warm", |_| {
        ops.run("QchasePlan::chase", chase_plan.chase(&fresh))
    })?;
    let out_facts = chased.database.len();
    let memo_bag_types = chase_plan.memoized_bag_types();
    drop(chased);

    // --- core ---------------------------------------------------------
    tr.span("core.compile", |_| -> BenchResult<()> {
        for _ in 0..COMPILE_REPS {
            black_box(ops.run("QueryPlan::compile", QueryPlan::compile(omq))?);
        }
        Ok(())
    })?;
    let fresh = db.clone();
    let instance = tr.span("core.execute", |_| {
        ops.run("QueryPlan::execute", plan.execute(&fresh))
    })?;
    drop(fresh);
    // The index every structure build reads: built here, by itself, on the
    // database time-to-first-answer builds it on.
    tr.span("data.columnar_build", |_| {
        black_box(instance.chased_database().columnar());
    });
    let mut steady_answers = [0u64; 3];
    for i in [1, 0, 2] {
        let semantics = SEMANTICS[i];
        let mut stream = tr.span(open_span(semantics), |_| -> BenchResult<_> {
            let mut stream = ops.run("PreparedInstance::answers", instance.answers(semantics))?;
            match stream.next() {
                Some(_) => Ok(stream),
                None => mismatch(format!("no first {semantics} answer")),
            }
        })?;
        // The rest of the first page is neither open nor steady state.
        let mut page: Vec<Answer> = Vec::with_capacity(PAGE);
        stream.next_batch(&mut page, PAGE - 1);
        steady_answers[i] = tr.span(pages_span(semantics), |_| {
            let mut answers = 0u64;
            loop {
                page.clear();
                let got = stream.next_batch(&mut page, PAGE);
                answers += got as u64;
                if got < PAGE {
                    return answers;
                }
            }
        });
        ops.run(
            "AnswerStream drain",
            stream.error().map_or(Ok(()), |e| Err(e.clone())),
        )?;
    }
    tr.span("core.structure_complete", |_| {
        ops.run("complete_structure", instance.complete_structure())
    })?;
    tr.span("core.structure_partial", |_| {
        ops.run("partial_structure", instance.partial_structure())
    })?;
    tr.span("core.count.complete", |_| {
        ops.run(
            "PreparedInstance::count",
            instance.count(Semantics::Complete),
        )
    })?;
    tr.span("core.count.partial", |_| {
        ops.run(
            "PreparedInstance::count",
            instance.count(Semantics::MinimalPartial),
        )
    })?;
    // Untimed: the answers the testing and codec probes draw from.
    let partial_answers: Vec<Answer> = ops
        .run(
            "PreparedInstance::answers",
            instance.answers(Semantics::MinimalPartial),
        )?
        .collect();
    let all_test_candidates = testing(&instance, &partial_answers, tr, ops)?;

    // Tracked execution and refresh, over the store's head.
    let head = store.snapshot();
    let mut tracked = tr.span("core.execute_tracked", |_| {
        ops.run("QueryPlan::execute_tracked", plan.execute_tracked(&head))
    })?;
    drop(head); // a pinned head would turn the next commit into a copy
    let shards = tracked.shard_count();
    for k in DELTAS..2 * DELTAS {
        let receipt = ops.run("Store::commit", store.commit(txn_of(&ds.delta(k))))?;
        let head = store.snapshot();
        tracked = tr.span("core.refresh", |_| {
            ops.run(
                "PreparedInstance::refresh",
                tracked.refresh(&head, &receipt),
            )
        })?;
    }
    let refresh_reused_shards = tracked.stats().reused_shards;

    // --- wire (the codec alone) -----------------------------------------
    let symbols = instance.chased_database();
    let first_page = &partial_answers[..PAGE];
    let rendered: Vec<Vec<String>> = tr.span("wire.render", |_| {
        let mut rendered = Vec::new();
        for _ in 0..CODEC_REPS {
            rendered = first_page
                .iter()
                .map(|a| render_answer(a, symbols))
                .collect();
        }
        rendered
    });
    tr.span("wire.wire_len", |_| {
        for _ in 0..CODEC_REPS {
            black_box(rendered.iter().map(|a| answer_wire_len(a)).sum::<usize>());
        }
    });
    let frame = ServerFrame::Page {
        cursor: 1,
        answers: rendered,
        done: false,
    };
    let encoded = tr.span("wire.encode_page", |_| {
        let mut encoded = Vec::new();
        for _ in 0..CODEC_REPS {
            encoded = frame.encode();
        }
        encoded
    });
    tr.span("wire.decode_page", |_| -> BenchResult<()> {
        for _ in 0..CODEC_REPS {
            black_box(decode_frame(&encoded, ops)?);
        }
        Ok(())
    })?;

    // --- serve (in process, through the engine lock) ---------------------
    tr.span("serve.register_query", |_| {
        let mut empty = ServingEngine::new(1);
        ops.run(
            "ServingEngine::register_query",
            empty.register_query(QUERY_NAME, omq),
        )
    })?;
    let serve_pages = {
        let mut engine = served
            .shared
            .engine
            .write()
            .map_err(|_| BenchError("engine lock poisoned".into()))?;
        let query = engine
            .query_id(QUERY_NAME)
            .ok_or_else(|| BenchError("query not catalogued".into()))?;
        for _ in 0..DELTAS {
            let delta = txn_of(&ds.delta(served.next_delta));
            served.next_delta += 1;
            tr.span("serve.register_data", |_| {
                ops.run("ServingEngine::register_data", engine.register_data(delta))
            })?;
        }
        let request = Request::new(query, Semantics::MinimalPartial);
        let mut stream = tr.span("serve.open", |_| -> BenchResult<_> {
            let mut stream =
                ops.run("ServingEngine::serve_stream", engine.serve_stream(&request))?;
            match stream.next() {
                Some(_) => Ok(stream),
                None => mismatch("no first answer at the served head"),
            }
        })?;
        let mut page: Vec<Answer> = Vec::with_capacity(PAGE);
        stream.next_batch(&mut page, PAGE - 1);
        let mut pages = 0u64;
        loop {
            page.clear();
            let got = tr.span("serve.page", |_| stream.next_batch(&mut page, PAGE));
            pages += u64::from(got > 0);
            if got < PAGE {
                break;
            }
        }
        tr.span("serve.count", |_| -> BenchResult<()> {
            for semantics in [Semantics::Complete, Semantics::MinimalPartial] {
                ops.run(
                    "ServingEngine::count",
                    engine.count(&Request::new(query, semantics)),
                )?;
            }
            Ok(())
        })?;
        pages
    };

    // --- server (socket-free state machine, then loopback TCP) -----------
    let target = || QueryTarget::Name(QUERY_NAME.to_owned());
    let mut conn = Connection::new();
    let open = ClientFrame::OpenCursor {
        query: target(),
        semantics: Semantics::MinimalPartial,
        snapshot: None,
        offset: 0,
        limit: None,
    }
    .encode();
    tr.span("server.conn_open", |_| conn.on_bytes(&open, &served.shared));
    let ServerFrame::CursorOpened { cursor, .. } = take_reply(&mut conn, ops)? else {
        return mismatch("connection did not open a cursor");
    };
    let fetch = ClientFrame::Fetch {
        cursor,
        k: PAGE as u64,
    }
    .encode();
    let mut conn_pages = 0u64;
    loop {
        tr.span("server.conn_fetch", |_| {
            conn.on_bytes(&fetch, &served.shared)
        });
        let ServerFrame::Page { answers, done, .. } = take_reply(&mut conn, ops)? else {
            return mismatch("connection did not answer a fetch with a page");
        };
        conn_pages += u64::from(!answers.is_empty());
        if done {
            break;
        }
    }
    drop(conn);

    let client = &mut served.client;
    for _ in 0..RTT_REPS {
        think();
        let pinned = tr.span("server.rtt_floor", |_| ops.run("wire pin", client.pin()))?;
        think();
        ops.run("wire release", client.release(pinned))?;
    }
    think();
    let cursor = ops.run(
        "wire open_cursor",
        client.open_cursor(target(), Semantics::MinimalPartial, None),
    )?;
    let mut tcp_pages = 0u64;
    loop {
        think();
        let page = tr.span("server.fetch_rtt", |_| {
            ops.run("wire fetch", client.fetch(cursor, PAGE as u64))
        })?;
        tcp_pages += u64::from(!page.answers.is_empty());
        if page.done {
            break;
        }
    }
    think();
    ops.run("wire close_cursor", client.close_cursor(cursor))?;
    // +1: the serve probe's first page was pulled outside its spans.
    if conn_pages != tcp_pages || serve_pages + 1 != tcp_pages {
        return mismatch(format!(
            "page counts differ: serve {serve_pages}+1, connection {conn_pages}, tcp {tcp_pages}"
        ));
    }

    Ok(Counts {
        load_facts: db.len(),
        components: db.component_count(),
        out_facts,
        memo_bag_types,
        shards,
        refresh_reused_shards,
        page_bytes: encoded.len(),
        steady_answers,
        all_test_candidates,
        // The store behind the serving probes grows by a few answers a
        // round; its page count does not change within five rounds.
        pages: tcp_pages,
    })
}

/// Decodes one length-prefixed frame, the way `Client` does.
fn decode_frame(bytes: &[u8], ops: &mut Ops) -> BenchResult<ServerFrame> {
    let mut decoder = FrameDecoder::new();
    decoder.feed(bytes);
    let payload = ops
        .run("FrameDecoder::next_frame", decoder.next_frame())?
        .ok_or_else(|| BenchError("incomplete frame".into()))?;
    ops.run("ServerFrame::decode", ServerFrame::decode(&payload))
}

/// Takes the response a socket-free connection left in `pending_out()`.
fn take_reply(conn: &mut Connection, ops: &mut Ops) -> BenchResult<ServerFrame> {
    let bytes = conn.pending_out().to_vec();
    conn.advance_out(bytes.len());
    decode_frame(&bytes, ops)
}

/// Single-testing on [`CANDIDATES`] candidates, half of them answers, and
/// all-testing on the wildcard-free ones among them (returns how many).
/// Misses are recombinations of two answers (the first component of one on
/// the rest of another) that are not answers.
fn testing(
    instance: &PreparedInstance,
    partial: &[Answer],
    tr: &mut Tracer,
    ops: &mut Ops,
) -> BenchResult<usize> {
    let half = CANDIDATES / 2;
    let n = partial.len();
    let known: HashSet<&Answer> = partial.iter().collect();
    let tuple = |a: &Answer| a.as_partial().expect("partial stream").0.clone();
    let hits: Vec<Answer> = (0..half).map(|i| partial[i * n / half].clone()).collect();
    let mut misses: Vec<Answer> = Vec::with_capacity(half);
    for i in 0..n {
        let (mut rest, donor) = (tuple(&partial[i]), tuple(&partial[(i + n / 2) % n]));
        rest[0] = donor[0];
        let candidate = Answer::Partial(omq_data::PartialTuple(rest));
        if !known.contains(&candidate) {
            misses.push(candidate);
            if misses.len() == half {
                break;
            }
        }
    }
    if misses.len() < half {
        return Err(BenchError("could not build enough non-answers".into()));
    }
    let (found_hits, found_misses) = tr.span("core.test", |_| -> BenchResult<_> {
        let mut found = (0usize, 0usize);
        for candidate in &hits {
            found.0 += usize::from(ops.run("PreparedInstance::test", instance.test(candidate))?);
        }
        for candidate in &misses {
            found.1 += usize::from(ops.run("PreparedInstance::test", instance.test(candidate))?);
        }
        Ok(found)
    })?;
    if (found_hits, found_misses) != (half, 0) {
        return mismatch(format!(
            "single-testing accepted {found_hits}/{half} answers and {found_misses}/{half} non-answers"
        ));
    }

    // All-testing decides complete answers: the wildcard-free candidates.
    let values = |a: &Answer| -> Option<Vec<Value>> {
        tuple(a)
            .iter()
            .map(|v| match v {
                PartialValue::Const(c) => Some(Value::Const(*c)),
                PartialValue::Star => None,
            })
            .collect()
    };
    let complete: Vec<(Vec<Value>, bool)> = hits
        .iter()
        .map(|a| (a, true))
        .chain(misses.iter().map(|a| (a, false)))
        .filter_map(|(a, expect)| Some((values(a)?, expect)))
        .collect();
    let tester = ops.run("PreparedInstance::all_tester", instance.all_tester())?;
    let wrong = tr.span("core.all_test", |_| -> BenchResult<_> {
        let mut wrong = 0usize;
        for (candidate, expect) in &complete {
            wrong += usize::from(ops.run("AllTester::test", tester.test(candidate))? != *expect);
        }
        Ok(wrong)
    })?;
    if wrong != 0 || complete.is_empty() {
        return mismatch(format!(
            "all-testing got {wrong} of {} candidates wrong",
            complete.len()
        ));
    }
    Ok(complete.len())
}

/// Turns the recorded spans into the metric values.
fn report(tr: &Tracer, counts: &Counts) -> Vec<(&'static str, f64)> {
    // Best-two mean over rounds of (a round's spans summed) / `per`.
    let timing = |span: &str, unit_ns: f64, per: f64| {
        let rounds: Vec<f64> = tr
            .self_ns_by_round(span)
            .iter()
            .map(|values| values.iter().sum::<f64>() / unit_ns / per)
            .collect();
        better_tail(&rounds, Better::Lower)
    };
    const NS: f64 = 1.0;
    const US: f64 = 1e3;
    const MS: f64 = 1e6;
    let deltas = DELTAS as f64;
    let codec = CODEC_REPS as f64;
    let pages = counts.pages as f64;

    let structure = [
        timing("core.structure_complete", MS, 1.0),
        timing("core.structure_partial", MS, 1.0),
        timing("core.structure_partial", MS, 1.0),
    ];
    // Cursor open beyond the structure build: `answers(sem)` + first
    // `next` builds the structure itself (there is no entry point that
    // takes a built one for all three semantics), so the directly measured
    // build is subtracted.  What is left is enumerator set-up and the
    // first answer (never negative: the two are timed by separate calls).
    let open = |i: usize| (timing(open_span(SEMANTICS[i]), US, 1.0) - structure[i] * 1e3).max(0.0);
    let answer_ns = |i: usize| {
        timing(
            pages_span(SEMANTICS[i]),
            NS,
            counts.steady_answers[i] as f64,
        )
    };

    let conn_fetch_us = timing("server.conn_fetch", US, pages);
    let decode_page_us = timing("wire.decode_page", US, codec);
    // Median fetch of each round, as `op_p50_ms` is the median pull.
    let fetch_rtt_us = better_tail(
        &tr.self_ns_by_round("server.fetch_rtt")
            .iter()
            .map(|fetches| median(fetches) / US)
            .collect::<Vec<f64>>(),
        Better::Lower,
    );
    let calib: Vec<f64> = tr
        .self_ns_by_round("bench.calib")
        .iter()
        .map(|v| v[0] / MS)
        .collect();

    let mut out: Vec<(&'static str, f64)> = vec![
        ("data.load_ms", timing("data.load", MS, 1.0)),
        ("data.load_facts", counts.load_facts as f64),
        (
            "data.columnar_build_ms",
            timing("data.columnar_build", MS, 1.0),
        ),
        ("data.components", counts.components as f64),
        ("data.shard_ms", timing("data.shard", MS, 1.0)),
        ("data.bulk_commit_ms", timing("data.bulk_commit", MS, 1.0)),
        ("data.commit_us", timing("data.commit", US, deltas)),
        (
            "data.snapshot_ns",
            timing("data.snapshot", NS, SNAPSHOT_REPS as f64),
        ),
        ("cq.parse_us", timing("cq.parse", US, PARSE_REPS as f64)),
        ("chase.cold_ms", timing("chase.cold", MS, 1.0)),
        ("chase.warm_ms", timing("chase.warm", MS, 1.0)),
        ("chase.out_facts", counts.out_facts as f64),
        ("chase.memo_bag_types", counts.memo_bag_types as f64),
        (
            "core.compile_us",
            timing("core.compile", US, COMPILE_REPS as f64),
        ),
        ("core.execute_ms", timing("core.execute", MS, 1.0)),
        (
            "core.execute_tracked_ms",
            timing("core.execute_tracked", MS, 1.0),
        ),
        ("core.shards", counts.shards as f64),
        ("core.refresh_us", timing("core.refresh", US, deltas)),
        (
            "core.refresh_reused_shards",
            counts.refresh_reused_shards as f64,
        ),
        ("core.structure_complete_ms", structure[0]),
        ("core.structure_partial_ms", structure[1]),
        ("core.open_us.complete", open(0)),
        ("core.open_us.partial", open(1)),
        ("core.open_us.multi", open(2)),
        ("core.answer_ns.complete", answer_ns(0)),
        ("core.answer_ns.partial", answer_ns(1)),
        ("core.answer_ns.multi", answer_ns(2)),
        (
            "core.count_ms.complete",
            timing("core.count.complete", MS, 1.0),
        ),
        (
            "core.count_ms.partial",
            timing("core.count.partial", MS, 1.0),
        ),
        ("core.test_us", timing("core.test", US, CANDIDATES as f64)),
        (
            "core.all_test_ns",
            timing("core.all_test", NS, counts.all_test_candidates as f64),
        ),
        (
            "serve.register_query_us",
            timing("serve.register_query", US, 1.0),
        ),
        (
            "serve.register_data_us",
            timing("serve.register_data", US, deltas),
        ),
        ("serve.open_us", timing("serve.open", US, 1.0)),
        ("serve.page_us", timing("serve.page", US, pages - 1.0)),
        ("serve.count_ms", timing("serve.count", MS, 1.0)),
        (
            "wire.render_ns",
            timing("wire.render", NS, codec * PAGE as f64),
        ),
        (
            "wire.wire_len_ns",
            timing("wire.wire_len", NS, codec * PAGE as f64),
        ),
        ("wire.encode_page_us", timing("wire.encode_page", US, codec)),
        ("wire.decode_page_us", decode_page_us),
        ("wire.page_bytes", counts.page_bytes as f64),
        ("server.conn_open_us", timing("server.conn_open", US, 1.0)),
        ("server.conn_fetch_us", conn_fetch_us),
        (
            "server.rtt_floor_us",
            timing("server.rtt_floor", US, RTT_REPS as f64),
        ),
        ("server.fetch_rtt_us", fetch_rtt_us),
        // Time in neither the engine nor the codec: the poll loop, the
        // kernel, the sockets.
        (
            "server.poll_wait_us",
            fetch_rtt_us - conn_fetch_us - decode_page_us,
        ),
        ("bench.calib_ms", median(&calib)),
    ];
    for (span, calls_metric, bytes_metric) in ALLOC_SPANS {
        let (calls, bytes) = tr.allocs_by_round(span);
        out.push((calls_metric, median(&calls)));
        out.push((bytes_metric, median(&bytes)));
    }
    out
}
