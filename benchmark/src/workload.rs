//! The four workloads: what one round does on each path, and the three
//! paths themselves (in process, over the wire, through the live store).
//!
//! A *round* is a fixed amount of work — the same calls in the same order
//! with the same batch sizes, every round of every run — and every
//! repetition inside it yields one sample of its end-to-end metric.  Nothing
//! in a round runs beside another busy thread of the benchmark's making: the
//! load comes from the main thread alone, and the live workload's writes are
//! interleaved with its reads, never concurrent with them.

use crate::gen::{Dataset, Row};
use crate::stats::percentile;
use crate::trace::Tracer;
use omq_chase::{Ontology, OntologyMediatedQuery};
use omq_core::{PreparedInstance, QueryPlan};
use omq_cq::ConjunctiveQuery;
use omq_data::{Answer, Database, Semantics, Txn};
use omq_serve::{QueryId, Request, ServingEngine};
use omq_server::{Client, ClientError, QueryTarget, Server, ServerConfig, TxnOp};
use omq_wire::render_answer;
use std::fmt;
use std::time::{Duration, Instant};

/// Page size of every pull, on every path.
pub const PAGE: usize = 128;

/// Page pulls behind one `op_p50_ms`/`op_p90_ms` sample, at least.
const MIN_PULLS: usize = 100;

/// The three notions of answer, in the order every `[_; 3]` here uses.
pub const SEMANTICS: [Semantics; 3] = [
    Semantics::Complete,
    Semantics::MinimalPartial,
    Semantics::MinimalPartialMulti,
];

/// Name the catalogued query is registered under on the serving paths.
const QUERY_NAME: &str = "q";

/// Why a run stopped: a failed operation or a wrong answer.  Either way the
/// run prints no metrics and exits non-zero.
#[derive(Debug)]
pub struct BenchError(pub String);

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

pub type BenchResult<T> = Result<T, BenchError>;

pub fn mismatch<T>(what: impl fmt::Display) -> BenchResult<T> {
    Err(BenchError(format!("correctness mismatch: {what}")))
}

/// Counts every call that returns a `Result` and every wire request.  A
/// failed or refused operation is counted as failed and ends the run: it is
/// never timed as if it had been fast.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn run<T, E: fmt::Display>(
        &mut self,
        what: &'static str,
        result: Result<T, E>,
    ) -> BenchResult<T> {
        self.attempted += 1;
        result.map_err(|e| {
            self.failed += 1;
            BenchError(format!("operation failed: {what}: {e}"))
        })
    }
}

/// Fixed think time before every wire request.
///
/// The server worker sleeps `IDLE_SLEEP` (500 µs) after a sweep that found
/// nothing to do.  A client that answers a response instantly sometimes
/// lands its next request before that sleep and sometimes inside it,
/// depending on the host's mood: the same code measured 0.15 ms and 2.0 ms
/// for one open+fetch+close in different minutes.  Spinning 200 µs first
/// makes the request always arrive inside the sleep, so the race is always
/// lost and the latency is always the poll-loop floor plus the work.
pub const THINK: Duration = Duration::from_micros(200);

pub fn think() {
    let start = Instant::now();
    while start.elapsed() < THINK {
        std::hint::spin_loop();
    }
}

/// A fixed dependent integer loop (~10 ms on this box when it is not
/// throttled), timed at the start of every round: tells a slow host from a
/// slow program.
pub fn calibrate_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..4_000_000u64 {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The fixed work of one round; the sizes are part of the workload's
/// definition and never adapt to the host.
///
/// Every drain and every count pair is a sample of its own: the work is the
/// same each time, and the shorter a sample, the likelier it lies wholly
/// inside one of the host's calm spells.  A time-to-first-answer sample is
/// the mean of a small batch where single repetitions differ by design (a
/// delta lands in a component of another size, a request wins or loses the
/// race with the server's poll loop): the batch mean is the typical case,
/// and the estimator over the samples is left to deal with the host alone.
#[derive(Debug, Clone, Copy)]
pub struct Batches {
    /// Time-to-first-answer samples per round.
    pub ttfa_samples: usize,
    /// Repetitions of the time-to-first-answer sequence behind one sample.
    pub ttfa_reps: usize,
    /// Full drains per semantics.  The `MinimalPartial` ones must add up to
    /// whole percentile samples of [`MIN_PULLS`] page pulls.
    pub drains: [usize; 3],
    /// `count(Complete)` + `count(MinimalPartial)` pairs.
    pub count_pairs: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    InProcess,
    Wire,
    Live,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// `true`: the `uni` dataset; `false`: `hub`.
    pub uni: bool,
    pub path: PathKind,
    pub batches: Batches,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "cold-eval",
        why: "uni from scratch in process: chase, index and structure builds do the work, per-answer cost almost none",
        uni: true,
        path: PathKind::InProcess,
        batches: Batches { ttfa_samples: 2, ttfa_reps: 1, drains: [4, 4, 2], count_pairs: 2 },
    },
    Spec {
        name: "dense-enum",
        why: "hub in process: answers outnumber facts 11:1, so the enumerators' per-answer constants do the work",
        uni: false,
        path: PathKind::InProcess,
        batches: Batches { ttfa_samples: 4, ttfa_reps: 1, drains: [16, 4, 1], count_pairs: 8 },
    },
    Spec {
        name: "wire-paging",
        why: "hub over loopback TCP, one closed-loop client: minus dense-enum this is omq-wire plus omq-server",
        uni: false,
        path: PathKind::Wire,
        batches: Batches { ttfa_samples: 4, ttfa_reps: 8, drains: [1, 1, 1], count_pairs: 8 },
    },
    Spec {
        name: "live-refresh",
        why: "uni in a ServingEngine store, 16 delta commits a round: store commit, warm refresh, sharded instance",
        uni: true,
        path: PathKind::Live,
        batches: Batches { ttfa_samples: 4, ttfa_reps: 4, drains: [4, 4, 2], count_pairs: 1 },
    },
];

pub fn parse_omq(ds: &Dataset, ops: &mut Ops) -> BenchResult<OntologyMediatedQuery> {
    let ontology = ops.run("Ontology::parse", Ontology::parse(ds.ontology))?;
    let query = ops.run("ConjunctiveQuery::parse", ConjunctiveQuery::parse(ds.query))?;
    ops.run(
        "OntologyMediatedQuery::new",
        OntologyMediatedQuery::new(ontology, query),
    )
}

pub fn txn_of(rows: &[Row]) -> Txn {
    rows.iter()
        .fold(Txn::new(), |txn, (rel, args)| txn.insert(rel, args))
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// What a path must be able to do for a round.  Every timed section is
/// timed inside the path, around the program's calls only.
pub trait Path {
    /// Mean milliseconds from "the data is current" to the first
    /// `MinimalPartial` answer, over `reps` repetitions.
    fn ttfa_ms(&mut self, reps: usize, tr: &mut Tracer, ops: &mut Ops) -> BenchResult<f64>;

    /// One full drain in pages of [`PAGE`], cursor open included.  Pushes
    /// the latency (ms) of every non-empty page pull onto `pulls`; renders
    /// every answer into `sink` when there is one.  Returns the answer count and
    /// the seconds spent inside the program.
    fn drain(
        &mut self,
        semantics: Semantics,
        pulls: &mut Vec<f64>,
        sink: Option<&mut dyn FnMut(Vec<String>)>,
        tr: &mut Tracer,
        ops: &mut Ops,
    ) -> BenchResult<(u64, f64)>;

    /// `count(Complete)`, `count(MinimalPartial)`, and the seconds the pair
    /// took.
    fn count_pair(&mut self, tr: &mut Tracer, ops: &mut Ops) -> BenchResult<(u64, u64, f64)>;

    /// The closed-form answer counts of the data as it is now.
    fn expected(&self) -> [u64; 3];
}

/// The samples of the seven per-repetition end-to-end metrics a run has
/// collected so far.  Every repetition inside a round is its own sample: one
/// time-to-first-answer sequence, one drain, one count pair.  A sample is a
/// few milliseconds to a few hundred, well below the seconds the host's slow
/// phases last, so most samples lie wholly inside one host state and a run
/// collects dozens to hundreds of them per metric.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub ttfa_ms: Vec<f64>,
    pub answers_per_s: [Vec<f64>; 3],
    pub count_ms: Vec<f64>,
    /// p50 and p90 of the page pulls of one `MinimalPartial` drain.
    pub op_p50_ms: Vec<f64>,
    pub op_p90_ms: Vec<f64>,
}

impl Samples {
    /// The seven series in the order the metrics are printed in.
    pub fn series(&self) -> [&[f64]; 7] {
        let [complete, partial, multi] = &self.answers_per_s;
        [
            &self.ttfa_ms,
            complete,
            partial,
            multi,
            &self.count_ms,
            &self.op_p50_ms,
            &self.op_p90_ms,
        ]
    }
}

fn drain_span(semantics: Semantics) -> &'static str {
    match semantics {
        Semantics::Complete => "e2e.drain.complete",
        Semantics::MinimalPartial => "e2e.drain.partial",
        Semantics::MinimalPartialMulti => "e2e.drain.multi",
    }
}

/// Runs one round of fixed work on `path`, adds its samples to `samples`,
/// and checks every answer count on the way: each drain against the closed
/// form, each count against the drain.
pub fn round(
    path: &mut dyn Path,
    batches: &Batches,
    samples: &mut Samples,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> BenchResult<()> {
    for _ in 0..batches.ttfa_samples {
        let ms = tr.span("e2e.ttfa", |tr| path.ttfa_ms(batches.ttfa_reps, tr, ops))?;
        samples.ttfa_ms.push(ms);
    }

    let expected = path.expected();
    // Page pulls of the `MinimalPartial` drains since the last percentile
    // sample; the other semantics' pulls are not reported.
    let mut partial_pulls: Vec<f64> = Vec::new();
    let mut other_pulls: Vec<f64> = Vec::new();
    for (i, &semantics) in SEMANTICS.iter().enumerate() {
        let partial = semantics == Semantics::MinimalPartial;
        for _ in 0..batches.drains[i] {
            other_pulls.clear();
            let pulls = if partial {
                &mut partial_pulls
            } else {
                &mut other_pulls
            };
            let (n, seconds) = tr.span(drain_span(semantics), |tr| {
                path.drain(semantics, pulls, None, tr, ops)
            })?;
            if n != expected[i] {
                return mismatch(format!(
                    "{semantics} drain gave {n}, expected {}",
                    expected[i]
                ));
            }
            samples.answers_per_s[i].push(n as f64 / seconds);
            // p90 is the highest percentile with ten samples beyond it only
            // from 100 samples on: a percentile sample is taken over the
            // pulls of as many consecutive drains as it takes to have 100
            // (one drain on `hub`, four on `uni`).
            if partial && partial_pulls.len() >= MIN_PULLS {
                samples.op_p50_ms.push(percentile(&partial_pulls, 50.0));
                samples.op_p90_ms.push(percentile(&partial_pulls, 90.0));
                partial_pulls.clear();
            }
        }
    }
    assert!(
        partial_pulls.is_empty(),
        "a round's MinimalPartial drains must add up to whole percentile samples"
    );

    for _ in 0..batches.count_pairs {
        let (complete, partial, seconds) = tr.span("e2e.count", |tr| path.count_pair(tr, ops))?;
        if [complete, partial] != [expected[0], expected[1]] {
            return mismatch(format!(
                "count gave {complete}/{partial}, drains gave {}/{}",
                expected[0], expected[1]
            ));
        }
        samples.count_ms.push(seconds * 1e3);
    }
    Ok(())
}

/// Builds the path a workload runs on, from scratch: load, parse, compile
/// or register, and for the wire the server start and the seed commit.
pub fn setup(spec: &Spec, ds: &Dataset, ops: &mut Ops) -> BenchResult<Box<dyn Path>> {
    Ok(match spec.path {
        PathKind::InProcess => Box::new(InProcess::setup(ds, ops)?),
        PathKind::Wire => Box::new(Wire::setup(ds, ops)?),
        PathKind::Live => Box::new(Live::setup(ds, ops)?),
    })
}

// ---------------------------------------------------------------------------
// In process: QueryPlan::execute + AnswerStream::next_batch.
// ---------------------------------------------------------------------------

pub struct InProcess {
    plan: QueryPlan,
    db: Database,
    /// The instance the last time-to-first-answer repetition executed (at
    /// first: the one set-up executed); drains and counts read it.
    instance: PreparedInstance,
    expected: [u64; 3],
}

impl InProcess {
    pub fn setup(ds: &Dataset, ops: &mut Ops) -> BenchResult<Self> {
        let db = ops.run(
            "Database::from_fact_rows",
            Database::from_fact_rows(ds.schema(), &ds.rows),
        )?;
        let omq = parse_omq(ds, ops)?;
        let plan = ops.run("QueryPlan::compile", QueryPlan::compile(&omq))?;
        let instance = ops.run("QueryPlan::execute", plan.execute(&db))?;
        Ok(InProcess {
            plan,
            db,
            instance,
            expected: ds.expected,
        })
    }
}

impl Path for InProcess {
    fn ttfa_ms(&mut self, reps: usize, tr: &mut Tracer, ops: &mut Ops) -> BenchResult<f64> {
        let mut seconds = 0.0;
        for _ in 0..reps {
            // A clone carries no columnar index: whatever the program
            // caches on its input, every repetition starts without it.
            let fresh = self.db.clone();
            let start = Instant::now();
            let instance = tr.span("e2e.execute", |_| {
                ops.run("QueryPlan::execute", self.plan.execute(&fresh))
            })?;
            let mut stream = tr.span("e2e.answers", |_| {
                ops.run(
                    "PreparedInstance::answers",
                    instance.answers(Semantics::MinimalPartial),
                )
            })?;
            let first = tr.span("e2e.first", |_| stream.next());
            seconds += secs(start);
            if first.is_none() {
                return mismatch("no first answer in process");
            }
            drop(stream);
            self.instance = instance;
        }
        Ok(seconds * 1e3 / reps as f64)
    }

    fn drain(
        &mut self,
        semantics: Semantics,
        pulls: &mut Vec<f64>,
        mut sink: Option<&mut dyn FnMut(Vec<String>)>,
        tr: &mut Tracer,
        ops: &mut Ops,
    ) -> BenchResult<(u64, f64)> {
        let instance = &self.instance;
        let mut page: Vec<Answer> = Vec::with_capacity(PAGE);
        let mut answers = 0u64;
        let start = Instant::now();
        let mut stream = tr.span("e2e.open", |_| {
            ops.run("PreparedInstance::answers", instance.answers(semantics))
        })?;
        loop {
            let pull = Instant::now();
            page.clear();
            let got = tr.span("e2e.page", |_| stream.next_batch(&mut page, PAGE));
            if got > 0 {
                pulls.push(secs(pull) * 1e3);
            }
            answers += got as u64;
            if let Some(sink) = sink.as_deref_mut() {
                let symbols = instance.chased_database();
                page.iter().for_each(|a| sink(render_answer(a, symbols)));
            }
            if got < PAGE {
                break;
            }
        }
        let seconds = secs(start);
        ops.run(
            "AnswerStream drain",
            stream.error().map_or(Ok(()), |e| Err(e.clone())),
        )?;
        Ok((answers, seconds))
    }

    fn count_pair(&mut self, tr: &mut Tracer, ops: &mut Ops) -> BenchResult<(u64, u64, f64)> {
        let instance = &self.instance;
        let start = Instant::now();
        let complete = tr.span("e2e.count.complete", |_| {
            ops.run(
                "PreparedInstance::count",
                instance.count(Semantics::Complete),
            )
        })?;
        let partial = tr.span("e2e.count.partial", |_| {
            ops.run(
                "PreparedInstance::count",
                instance.count(Semantics::MinimalPartial),
            )
        })?;
        Ok((complete, partial, secs(start)))
    }

    fn expected(&self) -> [u64; 3] {
        self.expected
    }
}

// ---------------------------------------------------------------------------
// Over the wire: omq_server::Server (one worker) + one blocking Client.
// ---------------------------------------------------------------------------

pub struct Wire {
    // Declared before the server so the socket closes before the server
    // shuts down.
    client: Client,
    _server: Server,
    expected: [u64; 3],
}

impl Wire {
    pub fn setup(ds: &Dataset, ops: &mut Ops) -> BenchResult<Self> {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = ops.run(
            "Server::start",
            Server::start(ServingEngine::new(1), config),
        )?;
        let mut client = ops.run("Client::connect", Client::connect(server.local_addr()))?;
        ops.run(
            "Client::set_timeout",
            client.set_timeout(Some(Duration::from_secs(60))),
        )?;
        ops.run(
            "wire register",
            client.register_query(QUERY_NAME, ds.ontology, ds.query),
        )?;
        let seed_commit: Vec<TxnOp> = ds
            .rows
            .iter()
            .map(|(relation, tuple)| TxnOp::Insert {
                relation: relation.clone(),
                tuple: tuple.clone(),
            })
            .collect();
        ops.run("wire commit", client.commit(seed_commit))?;
        Ok(Wire {
            client,
            _server: server,
            expected: ds.expected,
        })
    }

    /// One request of the closed loop: think, then time the round trip.
    fn request<T>(
        &mut self,
        name: &'static str,
        tr: &mut Tracer,
        ops: &mut Ops,
        call: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> BenchResult<(T, f64)> {
        tr.span("e2e.think", |_| think());
        let start = Instant::now();
        let result = tr.span(name, |_| call(&mut self.client));
        let seconds = secs(start);
        Ok((ops.run(name, result)?, seconds))
    }
}

fn target() -> QueryTarget {
    QueryTarget::Name(QUERY_NAME.to_owned())
}

impl Path for Wire {
    fn ttfa_ms(&mut self, reps: usize, tr: &mut Tracer, ops: &mut Ops) -> BenchResult<f64> {
        let mut seconds = 0.0;
        for _ in 0..reps {
            let (cursor, open) = self.request("e2e.rpc.open_cursor", tr, ops, |c| {
                c.open_cursor(target(), Semantics::MinimalPartial, None)
            })?;
            let (page, fetch) =
                self.request("e2e.rpc.fetch_one", tr, ops, |c| c.fetch(cursor, 1))?;
            let ((), close) =
                self.request("e2e.rpc.close_cursor", tr, ops, |c| c.close_cursor(cursor))?;
            if page.answers.len() != 1 {
                return mismatch("no first answer over the wire");
            }
            seconds += open + fetch + close;
        }
        Ok(seconds * 1e3 / reps as f64)
    }

    fn drain(
        &mut self,
        semantics: Semantics,
        pulls: &mut Vec<f64>,
        mut sink: Option<&mut dyn FnMut(Vec<String>)>,
        tr: &mut Tracer,
        ops: &mut Ops,
    ) -> BenchResult<(u64, f64)> {
        let (cursor, mut seconds) = self.request("e2e.rpc.open_cursor", tr, ops, |c| {
            c.open_cursor(target(), semantics, None)
        })?;
        let mut answers = 0u64;
        loop {
            let (page, s) =
                self.request("e2e.rpc.fetch", tr, ops, |c| c.fetch(cursor, PAGE as u64))?;
            seconds += s;
            if !page.answers.is_empty() {
                pulls.push(s * 1e3);
            }
            answers += page.answers.len() as u64;
            let done = page.done;
            if let Some(sink) = sink.as_deref_mut() {
                page.answers.into_iter().for_each(sink);
            }
            if done {
                break;
            }
        }
        // Releasing the cursor is housekeeping, not part of the drain.
        self.request("e2e.rpc.close_cursor", tr, ops, |c| c.close_cursor(cursor))?;
        Ok((answers, seconds))
    }

    fn count_pair(&mut self, tr: &mut Tracer, ops: &mut Ops) -> BenchResult<(u64, u64, f64)> {
        let (complete, a) = self.request("e2e.rpc.count", tr, ops, |c| {
            c.count(target(), Semantics::Complete, None)
        })?;
        let (partial, b) = self.request("e2e.rpc.count", tr, ops, |c| {
            c.count(target(), Semantics::MinimalPartial, None)
        })?;
        Ok((complete.count, partial.count, a + b))
    }

    fn expected(&self) -> [u64; 3] {
        self.expected
    }
}

// ---------------------------------------------------------------------------
// Live: a ServingEngine's store, delta commits interleaved with head reads.
// ---------------------------------------------------------------------------

pub struct Live {
    engine: ServingEngine,
    query: QueryId,
    ds: Dataset,
    /// Deltas committed so far.
    committed: usize,
}

impl Live {
    pub fn setup(ds: &Dataset, ops: &mut Ops) -> BenchResult<Self> {
        let omq = parse_omq(ds, ops)?;
        let mut engine = ServingEngine::new(1);
        let query = ops.run(
            "ServingEngine::register_query",
            engine.register_query(QUERY_NAME, &omq),
        )?;
        ops.run(
            "ServingEngine::register_data",
            engine.register_data(txn_of(&ds.rows)),
        )?;
        Ok(Live {
            engine,
            query,
            ds: ds.clone(),
            committed: 0,
        })
    }
}

impl Path for Live {
    fn ttfa_ms(&mut self, reps: usize, tr: &mut Tracer, ops: &mut Ops) -> BenchResult<f64> {
        let mut seconds = 0.0;
        for _ in 0..reps {
            let delta = txn_of(&self.ds.delta(self.committed));
            let request = Request::new(self.query, Semantics::MinimalPartial);
            let start = Instant::now();
            tr.span("e2e.register_data", |_| {
                ops.run(
                    "ServingEngine::register_data",
                    self.engine.register_data(delta),
                )
            })?;
            let mut stream = tr.span("e2e.serve_stream", |_| {
                ops.run(
                    "ServingEngine::serve_stream",
                    self.engine.serve_stream(&request),
                )
            })?;
            let first = tr.span("e2e.first", |_| stream.next());
            seconds += secs(start);
            if first.is_none() {
                return mismatch("no first answer at the live head");
            }
            self.committed += 1;
        }
        Ok(seconds * 1e3 / reps as f64)
    }

    fn drain(
        &mut self,
        semantics: Semantics,
        pulls: &mut Vec<f64>,
        mut sink: Option<&mut dyn FnMut(Vec<String>)>,
        tr: &mut Tracer,
        ops: &mut Ops,
    ) -> BenchResult<(u64, f64)> {
        let request = Request::new(self.query, semantics);
        let head = self.engine.snapshot(); // names the constants for `sink`
        let mut page: Vec<Answer> = Vec::with_capacity(PAGE);
        let mut answers = 0u64;
        let start = Instant::now();
        let mut stream = tr.span("e2e.serve_stream", |_| {
            ops.run(
                "ServingEngine::serve_stream",
                self.engine.serve_stream(&request),
            )
        })?;
        loop {
            let pull = Instant::now();
            page.clear();
            let got = tr.span("e2e.page", |_| stream.next_batch(&mut page, PAGE));
            if got > 0 {
                pulls.push(secs(pull) * 1e3);
            }
            answers += got as u64;
            if let Some(sink) = sink.as_deref_mut() {
                page.iter()
                    .for_each(|a| sink(render_answer(a, head.database())));
            }
            if got < PAGE {
                break;
            }
        }
        let seconds = secs(start);
        ops.run(
            "StreamedResponse drain",
            stream.error().map_or(Ok(()), |e| Err(e.clone())),
        )?;
        Ok((answers, seconds))
    }

    fn count_pair(&mut self, tr: &mut Tracer, ops: &mut Ops) -> BenchResult<(u64, u64, f64)> {
        let start = Instant::now();
        let complete = tr.span("e2e.count.complete", |_| {
            ops.run(
                "ServingEngine::count",
                self.engine
                    .count(&Request::new(self.query, Semantics::Complete)),
            )
        })?;
        let partial = tr.span("e2e.count.partial", |_| {
            ops.run(
                "ServingEngine::count",
                self.engine
                    .count(&Request::new(self.query, Semantics::MinimalPartial)),
            )
        })?;
        Ok((complete.count, partial.count, secs(start)))
    }

    fn expected(&self) -> [u64; 3] {
        let committed = self.committed as u64;
        [0, 1, 2].map(|i| self.ds.expected[i] + committed * self.ds.delta_adds[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn think_time_lasts_at_least_200_microseconds() {
        for _ in 0..20 {
            let start = Instant::now();
            think();
            assert!(start.elapsed() >= Duration::from_micros(200));
        }
    }

    #[test]
    fn a_failed_operation_is_counted_and_stops_the_run() {
        let mut ops = Ops::default();
        assert_eq!(ops.run("fine", Ok::<_, String>(3)).unwrap(), 3);
        let err = ops.run("broken", Err::<(), _>("refused")).unwrap_err();
        assert!(err.to_string().contains("broken") && err.to_string().contains("refused"));
        assert_eq!((ops.attempted, ops.failed), (2, 1));
    }
}
