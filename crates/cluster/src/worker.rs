//! The worker side: one process (or thread), one TCP connection, shards in,
//! answer pages out.
//!
//! A worker dials the coordinator's listener, announces itself with a
//! `ready` frame, and then serves the session: `setup` compiles the plan
//! once, each shard arrives as `facts` batches and is evaluated on `run` —
//! chase plus enumeration, exactly the in-process pipeline — with the
//! answers streamed back as byte-bounded `page` frames written straight
//! from the typed answers by [`omq_wire::PageWriter`].  The worker holds at
//! most one shard's database at a time; it is dropped as soon as the
//! shard's final page is out.
//!
//! Deterministic evaluation failures (a query that does not compile, a shard
//! that fails mid-enumeration) are *reported*, not crashes: an `error` frame
//! names the shard and classifies the failure with the shared
//! [`ErrorCode`]s, and the coordinator aborts the run — rerunning a
//! deterministic failure on another worker would fail the same.  Transport
//! loss (the process dying, the socket dropping) is the coordinator's
//! problem: it reassigns the shard elsewhere.
//!
//! # Process entry points
//!
//! [`run_worker`] is the library entry; the `omq-cluster-worker` binary and
//! [`maybe_run_worker`] wrap it for process spawning.  `maybe_run_worker`
//! checks `OMQ_CLUSTER_WORKER_ADDR` and, when set, runs the worker loop and
//! reports `true` — a test binary or benchmark harness calls it first thing
//! in `main` (or from a dedicated `#[test]` hook), so the coordinator can
//! spawn *the current executable* as its worker fleet.
//!
//! # Fault injection
//!
//! [`WorkerFault`] makes a worker drop its connection after sending a fixed
//! number of pages — the hook behind the kill-a-worker reassignment tests.
//! Process workers read it from `OMQ_CLUSTER_DIE_AFTER_PAGES` (set by the coordinator on the one child it
//! is told to kill); in-process workers get it passed directly.

use crate::messages::{CoordFrame, FactRow, WorkerFrame, MAX_PAGE_BYTES, PAGE_ANSWERS};
use crate::ClusterError;
use omq_core::{AnswerStream, QueryPlan};
use omq_data::{Database, Schema, Semantics};
use omq_wire::{ErrorCode, FrameDecoder, PageWriter, MAX_FRAME_LEN, MAX_SINGLE_ANSWER_BYTES};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Environment variable carrying the coordinator address to dial; its
/// presence turns a process into a worker (see [`maybe_run_worker`]).
pub const WORKER_ADDR_ENV: &str = "OMQ_CLUSTER_WORKER_ADDR";

/// Environment variable carrying the worker's index within the fleet.
pub const WORKER_INDEX_ENV: &str = "OMQ_CLUSTER_WORKER_INDEX";

/// Environment variable enabling fault injection: the worker drops its
/// connection after sending this many pages.
pub const WORKER_DIE_ENV: &str = "OMQ_CLUSTER_DIE_AFTER_PAGES";

/// Environment variable overriding the answers-per-page cap (tests use a
/// small value to force multi-page shards).
pub const WORKER_PAGE_ENV: &str = "OMQ_CLUSTER_PAGE_ANSWERS";

/// Fault injection for resilience tests: drop the connection cold after
/// `die_after_pages` page frames, as a crashing process would.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerFault {
    /// Drop the connection after sending this many pages (`None`: healthy).
    pub die_after_pages: Option<u32>,
    /// Override the answers-per-page cap (`None`: the environment, then the
    /// [`PAGE_ANSWERS`] default).  Tests set `1` to force one page per
    /// answer, making mid-shard deaths deterministic.
    pub page_answers: Option<usize>,
}

impl WorkerFault {
    /// Reads the fault plan a coordinator parent may have set in the
    /// environment.
    pub fn from_env() -> WorkerFault {
        WorkerFault {
            die_after_pages: std::env::var(WORKER_DIE_ENV)
                .ok()
                .and_then(|v| v.parse().ok()),
            page_answers: std::env::var(WORKER_PAGE_ENV)
                .ok()
                .and_then(|v| v.parse().ok()),
        }
    }
}

/// If this process was spawned as a cluster worker (the address environment
/// variable is set), runs the worker loop to completion and returns `true`;
/// otherwise returns `false` immediately.  Call first thing in `main` of
/// any binary a coordinator may spawn as its own worker fleet.
pub fn maybe_run_worker() -> bool {
    let Ok(addr) = std::env::var(WORKER_ADDR_ENV) else {
        return false;
    };
    let index = std::env::var(WORKER_INDEX_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    // A worker failure surfaces coordinator-side (error frame or hangup);
    // the process itself exits quietly either way.
    let _ = run_worker(&addr, index, WorkerFault::from_env());
    true
}

/// Connects to the coordinator at `addr` and serves one session: announces
/// `ready`, receives the setup and shards, streams answer pages back, and
/// returns when the coordinator says `bye` (or the connection drops, or the
/// injected `fault` trips).
pub fn run_worker(addr: &str, index: u64, fault: WorkerFault) -> Result<(), ClusterError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let page_answers = fault
        .page_answers
        .filter(|&n| n > 0)
        .unwrap_or(PAGE_ANSWERS);
    Session {
        stream,
        decoder: FrameDecoder::new(),
        plan: None,
        schema: None,
        staged: HashMap::new(),
        pages_sent: 0,
        fault,
        page_answers,
    }
    .serve(index)
}

/// One worker session: the connection, the compiled plan, and the shards
/// staged but not yet run.
struct Session {
    stream: TcpStream,
    decoder: FrameDecoder,
    plan: Option<QueryPlan>,
    schema: Option<Schema>,
    staged: HashMap<u64, Vec<FactRow>>,
    pages_sent: u32,
    fault: WorkerFault,
    page_answers: usize,
}

/// The worker's reaction to one coordinator frame.
enum Step {
    /// Keep serving.
    Continue,
    /// Session over (bye, or the injected fault tripped).
    Stop,
}

impl Session {
    fn serve(mut self, index: u64) -> Result<(), ClusterError> {
        self.send(&WorkerFrame::Ready { worker: index }.encode())?;
        loop {
            let payload = match self.read_frame()? {
                Some(p) => p,
                // Coordinator hung up: session over.
                None => return Ok(()),
            };
            let frame = match CoordFrame::decode(&payload) {
                Ok(f) => f,
                Err(v) => {
                    // A malformed coordinator is unrecoverable for the
                    // session — report and hang up.
                    self.send_error(None, ErrorCode::MalformedFrame, &v.to_string())?;
                    return Ok(());
                }
            };
            match self.handle(frame)? {
                Step::Continue => {}
                Step::Stop => return Ok(()),
            }
        }
    }

    fn handle(&mut self, frame: CoordFrame) -> Result<Step, ClusterError> {
        match frame {
            CoordFrame::Setup {
                ontology,
                query,
                relations,
            } => {
                match compile(&ontology, &query, &relations) {
                    Ok((plan, schema)) => {
                        self.plan = Some(plan);
                        self.schema = Some(schema);
                    }
                    Err((code, message)) => {
                        // Poison the session: without a plan nothing can run.
                        self.send_error(None, code, &message)?;
                    }
                }
                Ok(Step::Continue)
            }
            CoordFrame::Facts { shard, rows, last } => {
                self.staged.entry(shard).or_default().extend(rows);
                // `last` is advisory — `run` is what triggers evaluation —
                // but make sure even an empty final batch stages the shard.
                if last {
                    self.staged.entry(shard).or_default();
                }
                Ok(Step::Continue)
            }
            CoordFrame::Run { shard, semantics } => self.run_shard(shard, semantics),
            CoordFrame::Bye => Ok(Step::Stop),
        }
    }

    /// Chases and enumerates one staged shard, streaming pages back.
    fn run_shard(&mut self, shard: u64, semantics: Semantics) -> Result<Step, ClusterError> {
        let (Some(plan), Some(schema)) = (self.plan.as_ref(), self.schema.as_ref()) else {
            self.send_error(Some(shard), ErrorCode::MalformedFrame, "run before setup")?;
            return Ok(Step::Continue);
        };
        let Some(rows) = self.staged.remove(&shard) else {
            self.send_error(
                Some(shard),
                ErrorCode::MalformedFrame,
                "run of a shard with no staged facts",
            )?;
            return Ok(Step::Continue);
        };
        // Rebuild the shard database from the shipped rows (constants are
        // re-interned by name), then run the standard pipeline on it.
        let db = match Database::from_fact_rows(schema.clone(), &rows) {
            Ok(db) => db,
            Err(e) => {
                let message = e.to_string();
                self.send_error(Some(shard), ErrorCode::for_data(&e), &message)?;
                return Ok(Step::Continue);
            }
        };
        let stream = plan
            .execute(&db)
            .and_then(|instance| instance.answers(semantics));
        let mut stream: AnswerStream = match stream {
            Ok(s) => s,
            Err(e) => {
                let message = e.to_string();
                self.send_error(Some(shard), ErrorCode::for_core(&e), &message)?;
                return Ok(Step::Continue);
            }
        };
        // Page out through the page writer, bounded by answer count and by
        // the encoded bytes it reports: an answer that breaks either bound
        // is taken back out and opens the next page.  Constants are written
        // by their names in the shard database built above — the chase only
        // mints nulls, which surface as wildcards, so every constant in an
        // answer has a name the coordinator also interns.
        let mut out = Vec::new();
        let mut page = PageWriter::begin(&mut out, "shard", shard);
        let mut bytes = 0usize;
        for answer in &mut stream {
            // +1 for the comma separating answers in the array.
            let mut len = page.push_answer(answer.as_answer_ref(), &db) + 1;
            if page.answers() > 1
                && (page.answers() > self.page_answers || bytes + len > MAX_PAGE_BYTES)
            {
                page.pop();
                page.finish(false);
                if let Step::Stop = self.send_page(&out)? {
                    return Ok(Step::Stop);
                }
                out.clear();
                page = PageWriter::begin(&mut out, "shard", shard);
                bytes = 0;
                len = page.push_answer(answer.as_answer_ref(), &db) + 1;
            }
            if len > MAX_SINGLE_ANSWER_BYTES {
                // Undeliverable even alone: a deterministic failure of
                // this shard, not a frame the coordinator would choke on.
                page.abort();
                let message = format!(
                    "answer of {len} encoded bytes exceeds the {MAX_FRAME_LEN}-byte frame cap"
                );
                self.send_error(Some(shard), ErrorCode::Internal, &message)?;
                return Ok(Step::Continue);
            }
            bytes += len;
        }
        if let Some(e) = stream.error() {
            page.abort();
            let message = e.to_string();
            self.send_error(Some(shard), ErrorCode::for_core(e), &message)?;
            return Ok(Step::Continue);
        }
        page.finish(true);
        self.send_page(&out)
    }

    /// Sends one encoded page frame and counts it against the fault plan.
    fn send_page(&mut self, page: &[u8]) -> Result<Step, ClusterError> {
        self.send(page)?;
        self.pages_sent += 1;
        if let Some(limit) = self.fault.die_after_pages {
            if self.pages_sent >= limit {
                // Simulate a crash: drop the connection cold, mid-shard.
                return Ok(Step::Stop);
            }
        }
        Ok(Step::Continue)
    }

    fn send_error(
        &mut self,
        shard: Option<u64>,
        code: ErrorCode,
        message: &str,
    ) -> Result<(), ClusterError> {
        self.send(
            &WorkerFrame::Error {
                shard,
                code,
                message: message.to_owned(),
            }
            .encode(),
        )
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), ClusterError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Blocks for the next complete frame; `None` on orderly hangup.
    fn read_frame(&mut self) -> Result<Option<Vec<u8>>, ClusterError> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            if let Some(payload) = self
                .decoder
                .next_frame()
                .map_err(|e| ClusterError::Protocol(e.to_string()))?
            {
                return Ok(Some(payload));
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Ok(None);
            }
            self.decoder.feed(&buf[..n]);
        }
    }
}

/// Parses the setup and compiles the plan, classifying failures with the
/// shared wire codes.
fn compile(
    ontology: &str,
    query: &str,
    relations: &[(String, u64)],
) -> Result<(QueryPlan, Schema), (ErrorCode, String)> {
    let mut schema = Schema::new();
    for (name, arity) in relations {
        schema
            .add_relation(name, *arity as usize)
            .map_err(|e| (ErrorCode::for_data(&e), e.to_string()))?;
    }
    let ontology = omq_chase::Ontology::parse(ontology)
        .map_err(|e| (ErrorCode::for_chase(&e), e.to_string()))?;
    let query = omq_cq::ConjunctiveQuery::parse(query)
        .map_err(|e| (ErrorCode::for_cq(&e), e.to_string()))?;
    let omq = omq_chase::OntologyMediatedQuery::new(ontology, query)
        .map_err(|e| (ErrorCode::for_chase(&e), e.to_string()))?;
    let plan = QueryPlan::compile(&omq).map_err(|e| (ErrorCode::for_core(&e), e.to_string()))?;
    Ok((plan, schema))
}
