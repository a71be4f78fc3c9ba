//! The coordinator: shard shipping, work-stealing placement, and the
//! distributed cross-shard reduce.
//!
//! [`execute`] turns one query over one database into a fleet-wide run:
//!
//! 1. **Shard.** The database splits into packs of whole Gaifman components
//!    (`Database::pack_components`, the rule in-process execution shards
//!    by), sized so that there are roughly four per worker and the placement
//!    below has slack to balance skew.  The soundness argument is
//!    `omq-core`'s (components never interact under a guarded chase,
//!    connected queries never join across them), and so is the gate:
//!    `QueryPlan::shard_keys` decides whether the plan may shard.  A plan
//!    that may not (a disconnected query, a nullary atom) or a database
//!    with one component or none degrades to one shard on one worker.
//! 2. **Ship.** Each shard is exported as named fact rows
//!    (`Database::export_fact_rows` — names survive re-interning, ids do
//!    not) and sent over the wire in byte-bounded `facts` batches.
//! 3. **Place by stealing.** Shards sit in one queue, handed out largest
//!    first.  Every worker's connection pump takes the next shard the
//!    moment its worker goes idle — fast workers drain the queue while a
//!    worker stuck on the big shard holds only that.  Takes beyond a
//!    worker's first are counted as steals in [`ClusterStats`].
//! 4. **Reduce.** Worker pages are parsed back into typed answers against
//!    the coordinator's interner and buffered per shard; a shard **commits**
//!    when its `done` page arrives.  The committed buffers feed
//!    [`AnswerStream::from_remote`], which chains them as shard cursors of
//!    the stream in-process execution uses, so the cross-shard
//!    wildcard-minimality merge and Boolean dedup are the same code —
//!    callers drain a perfectly ordinary [`AnswerStream`].
//!
//! # Fault handling
//!
//! Shard results are delivered **exactly once**: pages buffer until the
//! shard's `done` marker and only then commit.  If a worker's connection
//! dies (EOF, I/O error, a read or write timeout) its uncommitted shard is
//! thrown away and requeued for the surviving workers — enumeration is
//! deterministic, so the replacement run reproduces exactly the answers the
//! discarded partial buffer held.  An idle pump therefore parks instead of
//! dismissing its worker while any shard is still unfinished elsewhere: it
//! may yet have to adopt a dead peer's work.  A worker-*reported*
//! evaluation error is deterministic by contract and aborts the run instead
//! of retrying.  When the last worker dies with shards outstanding, the
//! stream ends with an error.

use crate::messages::{CoordFrame, FactRow, WorkerFrame, MAX_SHIP_BYTES};
use crate::worker::{
    run_worker, WorkerFault, WORKER_ADDR_ENV, WORKER_DIE_ENV, WORKER_INDEX_ENV, WORKER_PAGE_ENV,
};
use crate::ClusterError;
use omq_core::remote::RemoteShard;
use omq_core::{AnswerStream, CoreError, QueryPlan};
use omq_data::{Answer, Database, Semantics};
use omq_wire::readiness::{Interest, PollSet};
use omq_wire::{answer_wire_len, parse_answer, FrameDecoder, MAX_SINGLE_ANSWER_BYTES};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How the coordinator obtains its worker fleet.
#[derive(Debug, Clone)]
pub enum WorkerSpawn {
    /// Spawn `program args…` once per worker, with the coordinator address,
    /// the worker index (and any fault injection) passed through the
    /// `OMQ_CLUSTER_*` environment.  The program must enter the worker loop
    /// — the `omq-cluster-worker` binary does, and any binary calling
    /// [`crate::maybe_run_worker`] first thing in `main` can serve as its
    /// own fleet.
    Command {
        /// The executable to spawn.
        program: PathBuf,
        /// Arguments passed verbatim.
        args: Vec<String>,
    },
    /// Run each worker on a thread of this process, still over real TCP
    /// loopback connections.  Same wire, no process isolation — the default,
    /// and what unit tests use; integration tests run real processes via
    /// `Command`.
    InProcess,
}

/// Kill one worker after it has sent a number of pages — fault injection
/// for the reassignment tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kill {
    /// Index of the worker to kill.
    pub worker: usize,
    /// The worker drops its connection after sending this many pages.
    pub after_pages: u32,
}

/// Configuration for one distributed run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of workers to spawn.
    pub workers: usize,
    /// Read and write timeout on worker connections; a worker that sends
    /// nothing, or takes no bytes, for this long is treated as dead and its
    /// shard is reassigned.
    pub worker_timeout: Duration,
    /// How workers are obtained.
    pub spawn: WorkerSpawn,
    /// Optional fault injection (see [`Kill`]).
    pub kill: Option<Kill>,
    /// Override the workers' answers-per-page cap (`None`: the worker
    /// default).  Tests set `1` so shards span several pages and a killed
    /// worker dies mid-shard deterministically.
    pub page_answers: Option<usize>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 2,
            worker_timeout: Duration::from_secs(30),
            spawn: WorkerSpawn::InProcess,
            kill: None,
            page_answers: None,
        }
    }
}

/// Over-partitioning factor: a pack holds about one `workers × SHARD_FACTOR`-th
/// of the facts, so the work-stealing queue can balance uneven components.
const SHARD_FACTOR: usize = 4;

/// Counters for one distributed run, filled in as the pumps work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Number of shards the database was split into.
    pub shards: usize,
    /// Workers that connected.
    pub workers: usize,
    /// Total encoded bytes of `facts` frames shipped (including reships
    /// after a reassignment).
    pub shipped_bytes: usize,
    /// Total fact rows shipped.
    pub shipped_facts: usize,
    /// Shard assignments beyond each worker's first — queue takes by
    /// already-warm workers.
    pub steals: usize,
    /// Shards thrown away and requeued after their worker died.
    pub reassignments: usize,
    /// Worker connections that died mid-session.
    pub worker_failures: usize,
    /// Answer pages received and committed.
    pub pages: usize,
}

/// A shard waiting in the queue (or in flight on exactly one pump).
struct ShardWork {
    id: usize,
    rows: Vec<FactRow>,
}

/// Lifecycle of one shard.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ShardState {
    /// Queued or in flight; may still be reassigned.
    Pending,
    /// Its `done` page arrived; its buffer is final.
    Done,
}

/// The shared coordinator state: the work queue, per-shard committed answer
/// buffers, and the run's health.  One mutex — contention is per shard and
/// per page, not per answer.
struct Exchange {
    /// Pending shards, kept sorted ascending by size so `pop()` yields the
    /// largest remaining — longest-processing-time placement.
    queue: Vec<ShardWork>,
    states: Vec<ShardState>,
    /// Committed answers per shard (typed, coordinator interner), until the
    /// shard's source moves them out on its first read.
    buffers: Vec<Vec<Answer>>,
    /// Workers still pumping.
    live_workers: usize,
    /// Fatal run error: worker-reported evaluation failure, protocol
    /// violation, or fleet death.  Ends the answer stream.
    failed: Option<CoreError>,
    stats: ClusterStats,
}

impl Exchange {
    fn queue_push(&mut self, work: ShardWork) {
        let pos = self
            .queue
            .partition_point(|w| w.rows.len() < work.rows.len());
        self.queue.insert(pos, work);
    }

    fn unfinished(&self) -> usize {
        self.states
            .iter()
            .filter(|s| **s == ShardState::Pending)
            .count()
    }

    fn fail(&mut self, error: CoreError) {
        if self.failed.is_none() {
            self.failed = Some(error);
        }
    }

    /// Fails the run if no worker is left to finish the outstanding shards.
    fn fail_on_fleet_death(&mut self) {
        let outstanding = self.unfinished();
        if self.live_workers == 0 && outstanding > 0 {
            self.fail(CoreError::Internal(format!(
                "all cluster workers died with {outstanding} shard(s) outstanding"
            )));
        }
    }
}

struct Shared {
    mx: Mutex<Exchange>,
    cv: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Exchange> {
        self.mx.lock().expect("exchange poisoned")
    }
}

/// One shard's answers, pulled from the exchange as they commit: the
/// [`RemoteShard`] implementation behind the coordinator's answer stream.
/// A committed buffer is final and this source is its only reader, so the
/// first read moves it out of the exchange instead of copying it.
struct ShardSource {
    shard: usize,
    /// The committed buffer, once taken.
    answers: Option<std::vec::IntoIter<Answer>>,
    shared: Arc<Shared>,
}

impl RemoteShard for ShardSource {
    fn next_batch(&mut self, out: &mut Vec<Answer>, k: usize) -> Result<usize, CoreError> {
        let mut ex = self.shared.lock();
        loop {
            if let Some(e) = &ex.failed {
                return Err(e.clone());
            }
            if ex.states[self.shard] == ShardState::Done {
                let answers = self
                    .answers
                    .get_or_insert_with(|| std::mem::take(&mut ex.buffers[self.shard]).into_iter());
                let before = out.len();
                out.extend(answers.take(k));
                return Ok(out.len() - before);
            }
            ex = self.shared.cv.wait(ex).expect("exchange poisoned");
        }
    }
}

/// A handle over the run's background machinery: pump threads, spawned
/// worker processes/threads, and the shared stats.
pub struct ClusterHandle {
    shared: Arc<Shared>,
    pumps: Vec<std::thread::JoinHandle<()>>,
    children: Vec<std::process::Child>,
    worker_threads: Vec<std::thread::JoinHandle<()>>,
}

impl ClusterHandle {
    /// Waits for every pump and worker to finish and returns the run's
    /// final statistics.  Call after draining the stream — the pumps only
    /// exit once every shard is settled (or the run failed).
    pub fn finish(mut self) -> ClusterStats {
        for pump in self.pumps.drain(..) {
            let _ = pump.join();
        }
        for mut child in self.children.drain(..) {
            let _ = child.wait();
        }
        for thread in self.worker_threads.drain(..) {
            let _ = thread.join();
        }
        self.shared.lock().stats
    }

    /// A snapshot of the statistics so far (the run may still be moving).
    pub fn stats(&self) -> ClusterStats {
        self.shared.lock().stats
    }
}

/// A running distributed execution: the answer stream plus the handle to
/// join the machinery and collect [`ClusterStats`].
pub struct ClusterRun {
    /// The merged answer stream — a perfectly ordinary [`AnswerStream`];
    /// errors (including fleet death) surface through `AnswerStream::error`
    /// exactly like local enumeration failures.
    pub stream: AnswerStream,
    /// Join handle and statistics for the run's machinery.
    pub handle: ClusterHandle,
}

/// Executes `query` under `ontology` over `db` with `semantics`, distributed
/// across `config.workers` worker processes (or threads).  Returns the
/// merged answer stream and the run handle; see the [module docs](self) for
/// the execution shape.
pub fn execute(
    ontology: &str,
    query: &str,
    db: &Database,
    semantics: Semantics,
    config: &ClusterConfig,
) -> Result<ClusterRun, ClusterError> {
    // Compile locally first: validates the input on the coordinator (fail
    // fast, before any process is spawned) and supplies the arity and the
    // tractability gate for the merged stream.
    let parsed_ontology = omq_chase::Ontology::parse(ontology)?;
    let parsed_query = omq_cq::ConjunctiveQuery::parse(query)?;
    let omq = omq_chase::OntologyMediatedQuery::new(parsed_ontology, parsed_query)?;
    let plan = QueryPlan::compile(&omq)?;

    // Shard into packs of whole Gaifman components behind the plan's one
    // sharding gate, the one in-process sharded execution reads.
    let workers = config.workers.max(1);
    let shard_rows: Vec<Vec<FactRow>> = match (workers > 1).then(|| plan.shard_keys(db)).flatten() {
        Some(keys) => {
            let capacity = db.len().div_ceil(workers * SHARD_FACTOR);
            let offsets = db.pack_components(&keys, capacity);
            offsets
                .windows(2)
                .map(|pack| db.pack_database(&keys[pack[0]..pack[1]]).export_fact_rows())
                .collect::<Result<_, omq_data::DataError>>()?
        }
        None => vec![db.export_fact_rows()?],
    };
    // A row travels whole inside one `facts` frame: refuse one that cannot
    // fit before any worker is spawned (a worker's decoder would reject the
    // frame as a corrupt stream, and every worker the shard reached would
    // die of it).
    let longest = shard_rows.iter().flatten().map(row_wire_len).max();
    if let Some(bytes) = longest.filter(|&bytes| bytes > MAX_SINGLE_ANSWER_BYTES) {
        return Err(ClusterError::FactTooLarge(bytes));
    }
    let mut works: Vec<ShardWork> = shard_rows
        .into_iter()
        .enumerate()
        .map(|(id, rows)| ShardWork { id, rows })
        .collect();
    let shards = works.len();
    // Ascending by size: `pop()` hands out the largest remaining shard.
    works.sort_by_key(|w| w.rows.len());

    let relations: Vec<(String, u64)> = db
        .schema()
        .iter()
        .map(|(_, rel)| (rel.name.clone(), rel.arity as u64))
        .collect();

    let shared = Arc::new(Shared {
        mx: Mutex::new(Exchange {
            queue: works,
            states: vec![ShardState::Pending; shards],
            buffers: (0..shards).map(|_| Vec::new()).collect(),
            // Count the whole *intended* fleet up front, not per accepted
            // connection: a fast worker can connect, run and die before its
            // slower peers are even accepted, and the fleet-death check must
            // not mistake that moment for everyone being gone.  Workers that
            // never connect are reconciled after the accept deadline.
            live_workers: workers,
            failed: None,
            stats: ClusterStats {
                shards,
                ..ClusterStats::default()
            },
        }),
        cv: Condvar::new(),
    });

    // Bind first, spawn second: workers dial us.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let mut children = Vec::new();
    let mut worker_threads = Vec::new();
    for index in 0..workers {
        let fault = WorkerFault {
            die_after_pages: match config.kill {
                Some(kill) if kill.worker == index => Some(kill.after_pages),
                _ => None,
            },
            page_answers: config.page_answers,
        };
        match &config.spawn {
            WorkerSpawn::Command { program, args } => {
                let mut cmd = std::process::Command::new(program);
                cmd.args(args)
                    .env(WORKER_ADDR_ENV, &addr)
                    .env(WORKER_INDEX_ENV, index.to_string())
                    .stdout(std::process::Stdio::null())
                    .stderr(std::process::Stdio::null());
                if let Some(pages) = fault.die_after_pages {
                    cmd.env(WORKER_DIE_ENV, pages.to_string());
                }
                if let Some(n) = fault.page_answers {
                    cmd.env(WORKER_PAGE_ENV, n.to_string());
                }
                children.push(cmd.spawn()?);
            }
            WorkerSpawn::InProcess => {
                let addr = addr.clone();
                worker_threads.push(std::thread::spawn(move || {
                    let _ = run_worker(&addr, index as u64, fault);
                }));
            }
        }
    }

    // Accept the fleet (bounded wait — a worker that fails to come up must
    // not hang the run) and start one pump per connection.
    let setup = CoordFrame::Setup {
        ontology: ontology.to_owned(),
        query: query.to_owned(),
        relations,
    }
    .encode();
    let db = Arc::new(db.clone());
    let mut pumps = Vec::new();
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + config.worker_timeout;
    while pumps.len() < workers && Instant::now() < deadline {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(config.worker_timeout))?;
                stream.set_write_timeout(Some(config.worker_timeout))?;
                let pump = Pump {
                    stream,
                    decoder: FrameDecoder::new(),
                    shared: Arc::clone(&shared),
                    db: Arc::clone(&db),
                    semantics,
                    setup: setup.clone(),
                };
                pumps.push(std::thread::spawn(move || pump.run()));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Block until a worker knocks or the fleet's deadline passes.
                let mut set = PollSet::new();
                set.push(&listener, Interest::READ);
                set.wait(Some(deadline.saturating_duration_since(Instant::now())))?;
            }
            Err(e) => return Err(e.into()),
        }
    }
    if pumps.is_empty() {
        return Err(ClusterError::NoWorkers(format!(
            "no worker connected within {:?}",
            config.worker_timeout
        )));
    }
    // Reconcile no-shows: workers that never connected were counted into
    // `live_workers` up front and will never decrement it themselves.  If
    // every worker that *did* connect has also already died, that is fleet
    // death — fail the run now instead of letting the sources wait forever.
    {
        let mut ex = shared.lock();
        ex.stats.workers = pumps.len();
        ex.live_workers -= workers - pumps.len();
        ex.fail_on_fleet_death();
    }
    shared.cv.notify_all();

    // The merged stream: one remote source per shard, in shard-id order,
    // reduced by the engine's own cross-shard machinery.
    let sources: Vec<Box<dyn RemoteShard>> = (0..shards)
        .map(|shard| {
            Box::new(ShardSource {
                shard,
                answers: None,
                shared: Arc::clone(&shared),
            }) as Box<dyn RemoteShard>
        })
        .collect();
    let stream = AnswerStream::from_remote(&plan, semantics, sources)?;
    Ok(ClusterRun {
        stream,
        handle: ClusterHandle {
            shared,
            pumps,
            children,
            worker_threads,
        },
    })
}

/// Encoded bytes of a fact row, `[relation, arg…]`.
fn row_wire_len((relation, args): &FactRow) -> usize {
    answer_wire_len(std::iter::once(relation).chain(args))
}

/// One worker connection's pump: the thread that feeds its worker shards
/// and folds the answer pages back into the exchange.
struct Pump {
    stream: TcpStream,
    decoder: FrameDecoder,
    shared: Arc<Shared>,
    db: Arc<Database>,
    semantics: Semantics,
    setup: Vec<u8>,
}

/// Outcome of running one shard on the pump's worker.
enum ShardOutcome {
    /// The shard's answers are committed in the exchange.
    Committed,
    /// The connection died mid-shard; the caller requeues the work.
    ConnectionDead,
    /// The run failed fatally (worker-reported error or protocol
    /// violation); `Exchange::failed` is set.
    RunFailed,
}

impl Pump {
    fn run(mut self) {
        let died_with = self.session();
        let mut ex = self.shared.lock();
        ex.live_workers -= 1;
        if let Err(in_flight) = died_with {
            ex.stats.worker_failures += 1;
            if let Some(work) = in_flight {
                // The shard's partial pages were never committed; requeue it
                // for the survivors.  Deterministic enumeration makes the
                // replay produce exactly the discarded prefix again.
                ex.stats.reassignments += 1;
                ex.queue_push(work);
            }
            ex.fail_on_fleet_death();
        }
        drop(ex);
        self.shared.cv.notify_all();
    }

    /// Serves the whole session.  `Ok(())` is an orderly end (queue drained
    /// or run failed elsewhere); `Err(in_flight)` means the connection died,
    /// possibly holding an uncommitted shard.
    fn session(&mut self) -> Result<(), Option<ShardWork>> {
        match self.read_worker_frame() {
            Some(WorkerFrame::Ready { .. }) => {}
            _ => return Err(None),
        }
        if self.stream.write_all(&self.setup).is_err() {
            return Err(None);
        }
        let mut assignments = 0usize;
        loop {
            // Take the next shard — or park: an idle pump must outlive its
            // peers' in-flight shards, which may yet be reassigned to it.
            let work = {
                let mut ex = self.shared.lock();
                loop {
                    if ex.failed.is_some() {
                        break None;
                    }
                    if let Some(work) = ex.queue.pop() {
                        break Some(work);
                    }
                    if ex.unfinished() == 0 {
                        break None;
                    }
                    ex = self.shared.cv.wait(ex).expect("exchange poisoned");
                }
            };
            let Some(work) = work else {
                // All settled: dismiss the worker (best effort) and stop.
                let _ = self.stream.write_all(&CoordFrame::Bye.encode());
                return Ok(());
            };
            assignments += 1;
            if assignments > 1 {
                self.shared.lock().stats.steals += 1;
            }
            match self.run_shard(&work) {
                ShardOutcome::Committed => {}
                ShardOutcome::ConnectionDead => return Err(Some(work)),
                ShardOutcome::RunFailed => {
                    let _ = self.stream.write_all(&CoordFrame::Bye.encode());
                    return Ok(());
                }
            }
        }
    }

    /// Ships one shard, starts it, and folds its pages into the exchange.
    fn run_shard(&mut self, work: &ShardWork) -> ShardOutcome {
        // Ship the rows in batches of at most `MAX_SHIP_BYTES` of encoded
        // rows (commas included), each batch at least one row; `execute`
        // refused any row too long to travel alone.
        let mut shipped_bytes = 0usize;
        let mut start = 0usize;
        loop {
            let mut bytes = 0usize;
            let mut end = start;
            while end < work.rows.len() {
                bytes += row_wire_len(&work.rows[end]) + 1;
                if end > start && bytes > MAX_SHIP_BYTES {
                    break;
                }
                end += 1;
            }
            let frame = CoordFrame::Facts {
                shard: work.id as u64,
                rows: work.rows[start..end].to_vec(),
                last: end == work.rows.len(),
            }
            .encode();
            shipped_bytes += frame.len();
            if self.stream.write_all(&frame).is_err() {
                return ShardOutcome::ConnectionDead;
            }
            start = end;
            if start == work.rows.len() {
                break;
            }
        }
        {
            let mut ex = self.shared.lock();
            ex.stats.shipped_bytes += shipped_bytes;
            ex.stats.shipped_facts += work.rows.len();
        }
        let run = CoordFrame::Run {
            shard: work.id as u64,
            semantics: self.semantics,
        }
        .encode();
        if self.stream.write_all(&run).is_err() {
            return ShardOutcome::ConnectionDead;
        }

        // Collect pages until the done marker, then commit atomically.
        let mut buffer: Vec<Answer> = Vec::new();
        let mut pages = 0usize;
        loop {
            match self.read_worker_frame() {
                Some(WorkerFrame::Page {
                    shard,
                    answers,
                    done,
                }) if shard == work.id as u64 => {
                    for rendered in &answers {
                        match parse_answer(rendered, self.semantics, &self.db) {
                            Ok(answer) => buffer.push(answer),
                            Err(v) => {
                                return self.fail_run(CoreError::Internal(format!(
                                    "cluster worker page violated the protocol: {v}"
                                )));
                            }
                        }
                    }
                    pages += 1;
                    if done {
                        let mut ex = self.shared.lock();
                        ex.states[work.id] = ShardState::Done;
                        ex.buffers[work.id] = buffer;
                        ex.stats.pages += pages;
                        drop(ex);
                        self.shared.cv.notify_all();
                        return ShardOutcome::Committed;
                    }
                }
                Some(WorkerFrame::Error {
                    shard,
                    code,
                    message,
                }) => {
                    // Deterministic failure: retrying on another worker
                    // would fail identically.  Abort the run.
                    let scope = match shard {
                        Some(s) => format!("shard {s}"),
                        None => "session".to_owned(),
                    };
                    return self.fail_run(CoreError::Internal(format!(
                        "cluster worker failed ({scope}, {code}): {message}"
                    )));
                }
                Some(_) => {
                    return self.fail_run(CoreError::Internal(
                        "cluster worker broke the page protocol".to_owned(),
                    ));
                }
                None => return ShardOutcome::ConnectionDead,
            }
        }
    }

    fn fail_run(&self, error: CoreError) -> ShardOutcome {
        self.shared.lock().fail(error);
        self.shared.cv.notify_all();
        ShardOutcome::RunFailed
    }

    /// Blocks for the next worker frame; `None` folds together every way a
    /// connection can die while it is read — EOF, I/O error, read timeout,
    /// undecodable frame (a write timeout fails the write that hit it).
    fn read_worker_frame(&mut self) -> Option<WorkerFrame> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.decoder.next_frame() {
                Ok(Some(payload)) => return WorkerFrame::decode(&payload).ok(),
                Ok(None) => {}
                Err(_) => return None,
            }
            match self.stream.read(&mut buf) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.decoder.feed(&buf[..n]),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_chase::{Ontology, OntologyMediatedQuery};
    use omq_cq::ConjunctiveQuery;
    use omq_wire::{render_answer, MAX_FRAME_LEN};
    use std::collections::BTreeMap;

    const ONTOLOGY: &str = "Researcher(x) -> exists y. HasOffice(x, y)\n\
                            HasOffice(x, y) -> Office(y)\n\
                            Office(x) -> exists y. InBuilding(x, y)";
    const QUERY: &str = "q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)";
    const BUILDING_QUERY: &str = "q(x3) :- HasOffice(x1, x2), InBuilding(x2, x3)";

    /// `islands` disjoint researcher/office/building wirings, two answers
    /// each, so every Gaifman component yields work and every shard spans
    /// at least two pages when `page_answers == 1`.
    fn island_db(islands: usize) -> Database {
        let omq = omq(QUERY);
        let mut builder = Database::builder(omq.data_schema().clone());
        for i in 0..islands {
            builder = builder
                .fact("Researcher", [format!("p{i}")])
                .fact("HasOffice", [format!("p{i}"), format!("oa{i}")])
                .fact("HasOffice", [format!("p{i}"), format!("ob{i}")])
                .fact("InBuilding", [format!("oa{i}"), format!("b{i}")])
                .fact("InBuilding", [format!("ob{i}"), format!("b{i}")]);
        }
        builder.build().unwrap()
    }

    fn omq(query: &str) -> OntologyMediatedQuery {
        let ontology = Ontology::parse(ONTOLOGY).unwrap();
        let query = ConjunctiveQuery::parse(query).unwrap();
        OntologyMediatedQuery::new(ontology, query).unwrap()
    }

    /// Local (single-process) answer multiset, rendered by constant name.
    fn local_answers(query: &str, db: &Database, semantics: Semantics) -> BTreeMap<String, usize> {
        let plan = QueryPlan::compile(&omq(query)).unwrap();
        let mut stream = plan.execute(db).unwrap().answers(semantics).unwrap();
        let mut counts = BTreeMap::new();
        for answer in &mut stream {
            *counts
                .entry(render_answer(&answer, db).join(","))
                .or_default() += 1;
        }
        assert!(stream.error().is_none());
        counts
    }

    fn cluster_answers(
        query: &str,
        db: &Database,
        semantics: Semantics,
        config: &ClusterConfig,
    ) -> (BTreeMap<String, usize>, ClusterStats) {
        let run = execute(ONTOLOGY, query, db, semantics, config).unwrap();
        let mut stream = run.stream;
        let mut counts = BTreeMap::new();
        for answer in &mut stream {
            *counts
                .entry(render_answer(&answer, db).join(","))
                .or_default() += 1;
        }
        assert!(
            stream.error().is_none(),
            "stream failed: {:?}",
            stream.error()
        );
        (counts, run.handle.finish())
    }

    fn fast_config() -> ClusterConfig {
        ClusterConfig {
            worker_timeout: Duration::from_secs(5),
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn in_process_cluster_matches_local_execution() {
        let db = island_db(6);
        for semantics in [
            Semantics::Complete,
            Semantics::MinimalPartial,
            Semantics::MinimalPartialMulti,
        ] {
            for (query, workers) in [(QUERY, 2), (QUERY, 3), (BUILDING_QUERY, 2)] {
                let config = ClusterConfig {
                    workers,
                    ..fast_config()
                };
                let (got, stats) = cluster_answers(query, &db, semantics, &config);
                assert_eq!(got, local_answers(query, &db, semantics));
                assert_eq!(stats.workers, workers);
                assert!(stats.shards > 1, "expected sharding, got {stats:?}");
                assert_eq!(stats.worker_failures, 0);
                assert!(stats.shipped_facts >= db.len());
            }
        }
    }

    #[test]
    fn single_worker_and_disconnected_queries_run_unsharded() {
        let db = island_db(3);
        // One worker: no point sharding for placement, but the run must
        // still go over the wire and come back equal.
        let config = ClusterConfig {
            workers: 1,
            ..fast_config()
        };
        let (got, stats) = cluster_answers(QUERY, &db, Semantics::Complete, &config);
        assert_eq!(got, local_answers(QUERY, &db, Semantics::Complete));
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn killed_worker_shards_are_reassigned_and_answers_survive() {
        let db = island_db(8);
        let config = ClusterConfig {
            workers: 2,
            // One answer per page: worker 0 dies after its first answer,
            // mid-shard (every island yields two), forcing a reassignment.
            page_answers: Some(1),
            kill: Some(Kill {
                worker: 0,
                after_pages: 1,
            }),
            ..fast_config()
        };
        let (got, stats) = cluster_answers(QUERY, &db, Semantics::Complete, &config);
        assert_eq!(got, local_answers(QUERY, &db, Semantics::Complete));
        assert_eq!(stats.worker_failures, 1, "stats: {stats:?}");
        assert_eq!(stats.reassignments, 1, "stats: {stats:?}");
    }

    #[test]
    fn fleet_death_fails_the_stream_instead_of_hanging() {
        let db = island_db(8);
        let config = ClusterConfig {
            workers: 1,
            page_answers: Some(1),
            kill: Some(Kill {
                worker: 0,
                after_pages: 1,
            }),
            ..fast_config()
        };
        let run = execute(ONTOLOGY, QUERY, &db, Semantics::Complete, &config).unwrap();
        let mut stream = run.stream;
        let drained: Vec<Answer> = (&mut stream).collect();
        let error = stream
            .error()
            .expect("fleet death must surface as a stream error");
        assert!(error.to_string().contains("workers died"), "got: {error}");
        // At most the one committed page's worth of answers leaked out —
        // and whatever did drain parsed cleanly.
        drop(drained);
        let stats = run.handle.finish();
        assert_eq!(stats.worker_failures, 1);
    }

    /// `island_db(8)` plus one office wiring whose names are `lens` long.
    fn db_with_long_names(lens: [usize; 3]) -> Database {
        let db = island_db(8);
        let [p, o, b] = [(lens[0], "p"), (lens[1], "o"), (lens[2], "b")].map(|(n, c)| c.repeat(n));
        let mut rows = db.export_fact_rows().unwrap();
        rows.push(("HasOffice".to_owned(), vec![p, o.clone()]));
        rows.push(("InBuilding".to_owned(), vec![o, b]));
        Database::from_fact_rows(db.schema().clone(), &rows).unwrap()
    }

    #[test]
    fn a_fact_row_too_long_for_a_frame_is_refused_before_spawning() {
        let db = db_with_long_names([MAX_FRAME_LEN, 1, 1]);
        let err = execute(ONTOLOGY, QUERY, &db, Semantics::Complete, &fast_config())
            .err()
            .expect("an over-cap row must be refused");
        assert!(
            matches!(err, ClusterError::FactTooLarge(n) if n > MAX_FRAME_LEN),
            "{err}"
        );
        assert_eq!(err.wire_code(), omq_wire::ErrorCode::FrameTooLarge);
    }

    #[test]
    fn an_answer_too_long_for_a_frame_fails_its_shard_not_the_fleet() {
        // Every row fits a frame; the answer joining three names does not.
        let db = db_with_long_names([MAX_FRAME_LEN / 3; 3]);
        let run = execute(ONTOLOGY, QUERY, &db, Semantics::Complete, &fast_config()).unwrap();
        let mut stream = run.stream;
        stream.by_ref().for_each(drop);
        let error = stream.error().expect("the shard must fail");
        assert!(error.to_string().contains("frame cap"), "got: {error}");
        assert_eq!(run.handle.finish().worker_failures, 0);
    }

    #[test]
    fn bad_query_fails_on_the_coordinator_before_spawning() {
        let db = island_db(1);
        let err = execute(
            ONTOLOGY,
            "q(x :- Nope(x)",
            &db,
            Semantics::Complete,
            &fast_config(),
        )
        .err()
        .expect("an unparsable query must be rejected");
        assert!(err.wire_code().is_client_error(), "got: {err}");
    }
}
