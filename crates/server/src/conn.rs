//! Per-connection state machines.
//!
//! One [`Connection`] owns everything a TCP peer has going: the frame
//! decoder reassembling its byte stream, a write buffer with partial-write
//! offset (the event loop writes as much as the socket accepts and comes
//! back later), its pinned snapshots, and its open cursors.  Cursors and
//! snapshots are **connection-scoped**: handles are meaningless on any
//! other connection, and dropping the connection releases them all.
//!
//! The request handler itself is synchronous and socket-free — it consumes
//! decoded payloads and appends encoded responses to the write buffer —
//! which is what makes it unit-testable without a socket and reusable
//! across event-loop shapes.
//!
//! # Locking discipline
//!
//! The engine sits behind one `RwLock`: commits and query registrations
//! take the write lock; opening cursors, counts and probes take the read
//! lock.  Crucially, **fetch takes no lock at all** — a cursor owns its
//! `StreamedResponse`, which owns its pinned data, so paging answers runs
//! concurrently with commits by construction (the copy-on-write store never
//! mutates a pinned snapshot).  That is the snapshot-pinning invariant on
//! the wire: the pages of a cursor opened at epoch `e` replay exactly
//! epoch `e`.

use crate::protocol::{
    ClientFrame, ErrorCode, FrameDecoder, FrameTooLarge, ServerFrame, TxnOp, MAX_FRAME_LEN,
    MAX_PAGE, MAX_PAGE_BYTES,
};
use omq_core::CoreError;
use omq_data::{Answer, AnswerRef, Database, Snapshot, Txn};
use omq_serve::{QueryId, Request, ServeError, ServingEngine, StreamedResponse};
use omq_wire::{PageWriter, MAX_SINGLE_ANSWER_BYTES};
use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::sync::RwLock;

/// Write-buffer level (bytes) above which a connection stops producing:
/// the event loop stops *reading* it, and [`Connection::pump`] stops
/// consuming frames the decoder already holds — so a burst of pipelined
/// requests cannot amplify into unbounded response memory.  The peer must
/// drain what it asked for before it gets more.
pub const HIGH_WATER: usize = 256 * 1024;

/// Answers are pulled off a cursor's stream in chunks of at most this many
/// while filling a page — keeps the batched-pull fast path of
/// `next_batch_ref` while bounding how many pulled answers can pile up in
/// [`Cursor::pending`] past the page's byte budget.
const PULL_CHUNK: usize = 1024;

/// Cap on error-frame messages.  They echo client-supplied text (unknown
/// tags, names, parse errors over submitted query text), so without a cap
/// they could themselves approach the frame limit.
const MAX_ERROR_MESSAGE_BYTES: usize = 1024;

/// Per-connection resource quotas.
///
/// Cursors and pinned snapshots are the two handle kinds a client can
/// accumulate; each pins data (a snapshot keeps its epoch's store alive,
/// a cursor additionally owns an enumeration state), so without a cap one
/// connection could pin unbounded memory with a loop of `pin`/`open`
/// requests.  Exceeding a quota is a *recoverable* client fault
/// ([`ErrorCode::QuotaExceeded`], 429): the request fails, the connection
/// stays up, and releasing any handle makes room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionQuotas {
    /// Maximum simultaneously open cursors.
    pub max_cursors: usize,
    /// Maximum simultaneously pinned snapshots (explicit `pin` handles;
    /// cursor-internal snapshots count against `max_cursors` instead).
    pub max_snapshots: usize,
}

impl Default for ConnectionQuotas {
    fn default() -> Self {
        ConnectionQuotas {
            max_cursors: 1024,
            max_snapshots: 4096,
        }
    }
}

/// The server state every connection shares: the engine behind its lock.
#[derive(Debug)]
pub struct Shared {
    /// The serving engine.  Write lock for commits/registrations, read lock
    /// for opening cursors and aggregates; never held across a fetch.
    pub engine: RwLock<ServingEngine>,
}

/// An open cursor: the answer stream plus the snapshot it is pinned to
/// (kept for writing constants out through the pinned interner).
struct Cursor<S = StreamedResponse> {
    stream: S,
    snap: Snapshot,
    /// The stream has been pulled dry (`done` also needs `pending` empty).
    exhausted: bool,
    /// The only answers ever copied out of the stream: the one a page's
    /// byte cap ([`MAX_PAGE_BYTES`]) refused, plus the rest of the chunk it
    /// was pulled in.  The next fetch serves them before pulling again.
    pending: VecDeque<Answer>,
}

/// What a cursor pages: a served stream (in tests, any answer stream).
trait Source {
    fn next_batch_ref(&mut self, k: usize, sink: impl FnMut(AnswerRef<'_>)) -> usize;
    fn error(&self) -> Option<&CoreError>;
}

impl Source for StreamedResponse {
    fn next_batch_ref(&mut self, k: usize, sink: impl FnMut(AnswerRef<'_>)) -> usize {
        StreamedResponse::next_batch_ref(self, k, sink)
    }

    fn error(&self) -> Option<&CoreError> {
        StreamedResponse::error(self)
    }
}

/// Writes one answer into a page of `bytes` encoded bytes, or takes it
/// back out and returns its size if it passes the page's byte budget (or,
/// alone on the page, the single-answer cap).
fn push(
    page: &mut PageWriter<'_>,
    bytes: &mut usize,
    answer: AnswerRef<'_>,
    db: &Database,
) -> Option<usize> {
    // +1 for the comma separating answers in the array.
    let len = page.push_answer(answer, db) + 1;
    let fits = if page.answers() == 1 {
        len <= MAX_SINGLE_ANSWER_BYTES
    } else {
        *bytes + len <= MAX_PAGE_BYTES
    };
    if fits {
        *bytes += len;
        return None;
    }
    page.pop();
    Some(len)
}

impl<S: Source> Cursor<S> {
    /// One page of at most `k` answers, written straight into `out` (the
    /// connection's write buffer): `O(k)` enumeration work, no engine lock,
    /// no rendered strings, no owned answers.  `Err` is the error frame to
    /// answer with instead (nothing was written).
    ///
    /// Pages are bounded twice over: by `k` answers and by
    /// [`MAX_PAGE_BYTES`] of encoded payload — constant names are
    /// client-supplied, so `k` alone bounds nothing.  The budget is kept on
    /// the bytes actually written: the answer that would pass it is taken
    /// back out, the page ships short with `done: false`, and the answer
    /// waits in [`Cursor::pending`] for the next fetch; no page frame can
    /// ever approach [`MAX_FRAME_LEN`].  A stream cut short by an error (a
    /// shard build or a remote source failing) never ships `done: true`:
    /// the fetch that would end it, and every retry, answers with the error.
    fn page(&mut self, out: &mut Vec<u8>, handle: u64, k: usize) -> Result<(), ServerFrame> {
        let db = self.snap.database();
        let mut page = PageWriter::begin(out, "cursor", handle);
        let (mut bytes, mut refused) = (0usize, None);
        // Leftovers a previous page's byte cap deferred go first…
        while let Some(front) = self.pending.front().filter(|_| page.answers() < k) {
            refused = push(&mut page, &mut bytes, front.as_answer_ref(), db);
            if refused.is_some() {
                break;
            }
            self.pending.pop_front();
        }
        // …then answers straight off the stream, a chunk at a time.
        while refused.is_none() && page.answers() < k && bytes < MAX_PAGE_BYTES && !self.exhausted {
            let want = (k - page.answers()).min(PULL_CHUNK);
            let produced = self.stream.next_batch_ref(want, |answer| {
                if refused.is_none() {
                    refused = push(&mut page, &mut bytes, answer, db);
                }
                // The answer the page refused, and the rest of its chunk.
                if refused.is_some() {
                    self.pending.push_back(answer.to_answer());
                }
            });
            self.exhausted = produced < want;
        }
        let done = self.exhausted && self.pending.is_empty();
        let error = match refused {
            // Undeliverable even alone.  It stays queued so every retry
            // fails identically; the client's move is to close the cursor.
            Some(len) if page.answers() == 0 => Some(ServerFrame::Error {
                code: ErrorCode::Internal,
                message: format!(
                    "answer of {len} encoded bytes exceeds the \
                     {MAX_FRAME_LEN}-byte frame cap; close the cursor"
                ),
            }),
            None if done => self.stream.error().map(|e| serve_error(&e.clone().into())),
            _ => None,
        };
        if let Some(frame) = error {
            page.abort();
            return Err(frame);
        }
        page.finish(done);
        Ok(())
    }
}

/// Why the connection must close after the write buffer drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The client said goodbye; close is graceful.
    Bye,
    /// The byte stream is unrecoverable (oversized length prefix).
    Fatal,
}

/// The state machine of one connected peer.
pub struct Connection {
    decoder: FrameDecoder,
    /// Encoded, not-yet-flushed response bytes.
    outbuf: Vec<u8>,
    /// How much of `outbuf` has already been written to the socket.
    out_start: usize,
    cursors: FxHashMap<u64, Cursor>,
    snapshots: FxHashMap<u64, Snapshot>,
    next_handle: u64,
    closing: Option<CloseReason>,
    quotas: ConnectionQuotas,
}

impl Connection {
    /// A fresh connection with empty buffers, no handles, and the default
    /// [`ConnectionQuotas`].
    pub fn new() -> Self {
        Connection::with_quotas(ConnectionQuotas::default())
    }

    /// A fresh connection with explicit resource quotas.
    pub fn with_quotas(quotas: ConnectionQuotas) -> Self {
        Connection {
            decoder: FrameDecoder::new(),
            outbuf: Vec::new(),
            out_start: 0,
            cursors: FxHashMap::default(),
            snapshots: FxHashMap::default(),
            next_handle: 1,
            closing: None,
            quotas,
        }
    }

    /// Feeds bytes read off the socket and processes complete frames up to
    /// the backpressure mark.  Responses accumulate in the write buffer.
    pub fn on_bytes(&mut self, bytes: &[u8], shared: &Shared) {
        self.decoder.feed(bytes);
        self.pump(shared);
    }

    /// Processes buffered complete frames; returns whether any frame was
    /// consumed.  Backpressure is enforced *here*, not only at the socket
    /// read: once the write buffer passes [`HIGH_WATER`] the pump stops,
    /// the decoder retains the unconsumed frames, and the worker calls
    /// `pump` again after a flush that write readiness triggered.
    pub fn pump(&mut self, shared: &Shared) -> bool {
        let mut progressed = false;
        while self.closing.is_none() && self.pending_out().len() < HIGH_WATER {
            match self.decoder.next_frame() {
                Ok(Some(payload)) => {
                    self.on_payload(&payload, shared);
                    progressed = true;
                }
                Ok(None) => break,
                Err(FrameTooLarge { declared }) => {
                    // The length prefix cannot be trusted, so there is no
                    // next frame boundary: report and hang up.
                    self.send(&ServerFrame::Error {
                        code: ErrorCode::FrameTooLarge,
                        message: FrameTooLarge { declared }.to_string(),
                    });
                    self.closing = Some(CloseReason::Fatal);
                    progressed = true;
                }
            }
        }
        progressed
    }

    fn on_payload(&mut self, payload: &[u8], shared: &Shared) {
        // A framed-but-malformed payload is the client's problem, not the
        // connection's: answer with a protocol error and keep going (the
        // length prefix kept the stream in sync).
        let frame = match ClientFrame::decode(payload) {
            Ok(frame) => frame,
            Err(violation) => {
                self.send(&ServerFrame::Error {
                    code: ErrorCode::MalformedFrame,
                    message: clip(violation.message),
                });
                return;
            }
        };
        if let Some(response) = self.handle(frame, shared) {
            self.send(&response);
        }
    }

    /// Serves one request.  `None` means the response is already in the
    /// write buffer: a page is written there directly, not returned.
    fn handle(&mut self, frame: ClientFrame, shared: &Shared) -> Option<ServerFrame> {
        Some(match frame {
            ClientFrame::Register {
                name,
                ontology,
                query,
            } => register(&name, &ontology, &query, shared),
            ClientFrame::Commit { ops } => commit(ops, shared),
            ClientFrame::Pin => {
                if self.snapshots.len() >= self.quotas.max_snapshots {
                    let max = self.quotas.max_snapshots;
                    return Some(quota_error(max, "pinned snapshots", "release"));
                }
                let snap = shared.engine.read().expect("engine lock").snapshot();
                let epoch = snap.epoch();
                let handle = self.fresh_handle();
                self.snapshots.insert(handle, snap);
                ServerFrame::Pinned {
                    snapshot: handle,
                    epoch,
                }
            }
            ClientFrame::OpenCursor {
                query,
                semantics,
                offset,
                snapshot,
                limit,
            } => {
                if self.cursors.len() >= self.quotas.max_cursors {
                    return Some(quota_error(
                        self.quotas.max_cursors,
                        "open cursors",
                        "close",
                    ));
                }
                let mut request =
                    Request::new(to_query_ref(&query), semantics).with_offset(offset as usize);
                if let Some(limit) = limit {
                    request = request.with_limit(limit as usize);
                }
                match self.read(shared, request, snapshot, ServingEngine::serve_stream) {
                    Err(response) => response,
                    Ok((snap, stream)) => {
                        let epoch = stream.epoch().unwrap_or_else(|| snap.epoch());
                        let handle = self.fresh_handle();
                        self.cursors.insert(
                            handle,
                            Cursor {
                                stream,
                                snap,
                                exhausted: false,
                                pending: VecDeque::new(),
                            },
                        );
                        ServerFrame::CursorOpened {
                            cursor: handle,
                            epoch,
                            semantics,
                        }
                    }
                }
            }
            ClientFrame::Fetch { cursor: handle, k } => {
                let Some(cursor) = self.cursors.get_mut(&handle) else {
                    return Some(unknown_cursor(handle));
                };
                let k = (k as usize).clamp(1, MAX_PAGE);
                return cursor.page(&mut self.outbuf, handle, k).err();
            }
            ClientFrame::Count {
                query,
                semantics,
                snapshot,
            } => {
                let request = Request::new(to_query_ref(&query), semantics);
                match self.read(shared, request, snapshot, ServingEngine::count) {
                    Err(response) => response,
                    Ok((snap, counted)) => ServerFrame::Counted {
                        count: counted.count,
                        exists: counted.exists,
                        epoch: snap.epoch(),
                    },
                }
            }
            ClientFrame::Exists {
                query,
                semantics,
                snapshot,
            } => {
                let request = Request::new(to_query_ref(&query), semantics);
                match self.read(shared, request, snapshot, ServingEngine::exists) {
                    Err(response) => response,
                    Ok((snap, exists)) => ServerFrame::Exists {
                        exists,
                        epoch: snap.epoch(),
                    },
                }
            }
            ClientFrame::CloseCursor { cursor } => {
                if self.cursors.remove(&cursor).is_some() {
                    ServerFrame::CursorClosed { cursor }
                } else {
                    unknown_cursor(cursor)
                }
            }
            ClientFrame::ReleaseSnapshot { snapshot } => {
                if self.snapshots.remove(&snapshot).is_some() {
                    ServerFrame::SnapshotReleased { snapshot }
                } else {
                    unknown_snapshot(snapshot)
                }
            }
            ClientFrame::Bye => {
                self.closing = Some(CloseReason::Bye);
                ServerFrame::Bye
            }
        })
    }

    /// Serves one snapshot-pinned read under the engine's read lock and
    /// returns it with the snapshot it read.  A caller-pinned snapshot
    /// (`pin`'s handle) replays its epoch via a fresh execute, stable in
    /// order wherever the head is; a head request resolves its data inside
    /// the engine, where the warm instance lives, so post-commit
    /// time-to-first-page tracks the delta, not the database.  The head
    /// snapshot is taken under the same lock as the serve — commits
    /// write-lock the engine — so it is exactly the head `serve` read.
    fn read<T>(
        &self,
        shared: &Shared,
        request: Request,
        snapshot: Option<u64>,
        serve: impl FnOnce(&ServingEngine, &Request) -> Result<T, ServeError>,
    ) -> Result<(Snapshot, T), ServerFrame> {
        let pin = |h| self.snapshots.get(&h).ok_or_else(|| unknown_snapshot(h));
        let pinned = snapshot.map(pin).transpose()?;
        let request = match pinned {
            Some(snap) => request.at(snap.clone()),
            None => request,
        };
        let engine = shared.engine.read().expect("engine lock");
        let snap = pinned.cloned().unwrap_or_else(|| engine.snapshot());
        let served = serve(&engine, &request).map_err(|e| serve_error(&e))?;
        Ok((snap, served))
    }

    fn fresh_handle(&mut self) -> u64 {
        let handle = self.next_handle;
        self.next_handle += 1;
        handle
    }

    fn send(&mut self, frame: &ServerFrame) {
        let bytes = frame.encode();
        // Last-resort guard: nothing above should produce a frame past the
        // cap (pages are byte-capped, messages clipped), but an oversized
        // response must never reach the wire — the peer would read its
        // length prefix as stream corruption.  Degrade to a bounded error.
        if bytes.len() > 4 + MAX_FRAME_LEN {
            let fallback = ServerFrame::Error {
                code: ErrorCode::Internal,
                message: format!(
                    "response frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                    bytes.len() - 4
                ),
            };
            self.outbuf.extend_from_slice(&fallback.encode());
            return;
        }
        self.outbuf.extend_from_slice(&bytes);
    }

    /// The encoded bytes still to be written to the socket.
    pub fn pending_out(&self) -> &[u8] {
        &self.outbuf[self.out_start..]
    }

    /// Records that the socket accepted `n` bytes of [`Connection::pending_out`].
    pub fn advance_out(&mut self, n: usize) {
        self.out_start += n;
        debug_assert!(self.out_start <= self.outbuf.len());
        if self.out_start == self.outbuf.len() {
            self.outbuf.clear();
            self.out_start = 0;
        } else if self.out_start >= 64 * 1024 {
            self.outbuf.drain(..self.out_start);
            self.out_start = 0;
        }
    }

    /// Whether the connection has asked to close (after its buffer drains).
    pub fn closing(&self) -> Option<CloseReason> {
        self.closing
    }

    /// Bytes received off the socket but not yet consumed as frames —
    /// non-zero when backpressure paused the pump mid-burst.
    pub fn buffered_in(&self) -> usize {
        self.decoder.pending()
    }

    /// Open cursors on this connection (for tests and introspection).
    pub fn cursor_count(&self) -> usize {
        self.cursors.len()
    }

    /// Pinned snapshots on this connection (for tests and introspection).
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }
}

impl Default for Connection {
    fn default() -> Self {
        Connection::new()
    }
}

fn to_query_ref(target: &crate::protocol::QueryTarget) -> omq_serve::QueryRef {
    match target {
        crate::protocol::QueryTarget::Id(id) => {
            omq_serve::QueryRef::Id(QueryId::from_index(*id as usize))
        }
        crate::protocol::QueryTarget::Name(name) => omq_serve::QueryRef::Name(name.clone()),
    }
}

fn quota_error(quota: usize, handles: &str, release: &str) -> ServerFrame {
    ServerFrame::Error {
        code: ErrorCode::QuotaExceeded,
        message: format!("connection quota of {quota} {handles} reached; {release} one and retry"),
    }
}

fn unknown_cursor(handle: u64) -> ServerFrame {
    ServerFrame::Error {
        code: ErrorCode::UnknownCursor,
        message: format!("no open cursor {handle} on this connection"),
    }
}

fn unknown_snapshot(handle: u64) -> ServerFrame {
    ServerFrame::Error {
        code: ErrorCode::UnknownSnapshot,
        message: format!("no pinned snapshot {handle} on this connection"),
    }
}

fn serve_error(e: &ServeError) -> ServerFrame {
    error_frame(crate::errors::wire_code_for_serve(e), e)
}

fn error_frame(code: ErrorCode, e: &dyn std::fmt::Display) -> ServerFrame {
    ServerFrame::Error {
        code,
        message: clip(e.to_string()),
    }
}

/// Bounds an error message at [`MAX_ERROR_MESSAGE_BYTES`] (messages echo
/// client-supplied text, so the error frame itself must stay small).
fn clip(message: String) -> String {
    if message.len() <= MAX_ERROR_MESSAGE_BYTES {
        return message;
    }
    let mut end = MAX_ERROR_MESSAGE_BYTES;
    while !message.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}… [truncated]", &message[..end])
}

fn register(name: &str, ontology: &str, query: &str, shared: &Shared) -> ServerFrame {
    let ontology = match omq_chase::Ontology::parse(ontology) {
        Ok(o) => o,
        Err(e) => return error_frame(ErrorCode::for_chase(&e), &e),
    };
    let cq = match omq_cq::ConjunctiveQuery::parse(query) {
        Ok(q) => q,
        Err(e) => return error_frame(ErrorCode::for_cq(&e), &e),
    };
    let omq = match omq_chase::OntologyMediatedQuery::new(ontology, cq) {
        Ok(omq) => omq,
        Err(e) => return error_frame(ErrorCode::for_chase(&e), &e),
    };
    let mut engine = shared.engine.write().expect("engine lock");
    match engine.register_query(name, &omq) {
        Ok(id) => ServerFrame::Registered {
            id: id.index() as u64,
            name: name.to_owned(),
        },
        Err(e) => serve_error(&e),
    }
}

fn commit(ops: Vec<TxnOp>, shared: &Shared) -> ServerFrame {
    let mut txn = Txn::new();
    for op in ops {
        txn = match op {
            TxnOp::Insert { relation, tuple } => txn.insert(&relation, tuple),
            TxnOp::AddRelation { relation, arity } => txn.add_relation(&relation, arity),
        };
    }
    let mut engine = shared.engine.write().expect("engine lock");
    match engine.register_data(txn) {
        Ok(receipt) => ServerFrame::Committed {
            epoch: receipt.epoch,
            new_facts: receipt.new_facts as u64,
            duplicate_facts: receipt.duplicate_facts as u64,
        },
        Err(e) => serve_error(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::answer_wire_len;
    use omq_data::Semantics;
    use std::collections::VecDeque;

    fn shared() -> Shared {
        Shared {
            engine: RwLock::new(ServingEngine::new(1)),
        }
    }

    fn drain(conn: &mut Connection) -> Vec<ServerFrame> {
        let mut decoder = FrameDecoder::new();
        decoder.feed(conn.pending_out());
        let n = conn.pending_out().len();
        conn.advance_out(n);
        let mut frames = Vec::new();
        while let Some(payload) = decoder.next_frame().unwrap() {
            frames.push(ServerFrame::decode(&payload).unwrap());
        }
        frames
    }

    #[test]
    fn full_session_over_the_state_machine_alone() {
        let shared = shared();
        let mut conn = Connection::new();
        let frames = [
            ClientFrame::Register {
                name: "q".into(),
                ontology: "Researcher(x) -> exists y. HasOffice(x, y)".into(),
                query: "q(x, y) :- HasOffice(x, y)".into(),
            },
            ClientFrame::Commit {
                ops: vec![TxnOp::Insert {
                    relation: "Researcher".into(),
                    tuple: vec!["ada".into()],
                }],
            },
            ClientFrame::OpenCursor {
                query: crate::protocol::QueryTarget::Name("q".into()),
                semantics: Semantics::MinimalPartial,
                snapshot: None,
                offset: 0,
                limit: None,
            },
        ];
        for frame in &frames {
            conn.on_bytes(&frame.encode(), &shared);
        }
        let responses = drain(&mut conn);
        assert!(matches!(
            responses[0],
            ServerFrame::Registered { id: 0, .. }
        ));
        // Registration merges the query's schema into the store (one epoch),
        // the commit is the next one.
        assert!(matches!(
            responses[1],
            ServerFrame::Committed {
                epoch: 2,
                new_facts: 1,
                ..
            }
        ));
        let ServerFrame::CursorOpened {
            cursor, epoch: 2, ..
        } = responses[2]
        else {
            panic!("expected opened cursor, got {:?}", responses[2]);
        };
        conn.on_bytes(&ClientFrame::Fetch { cursor, k: 10 }.encode(), &shared);
        let responses = drain(&mut conn);
        let ServerFrame::Page { answers, done, .. } = &responses[0] else {
            panic!("expected page, got {:?}", responses[0]);
        };
        assert_eq!(answers, &vec![vec!["ada".to_owned(), "*".to_owned()]]);
        assert!(done);
        conn.on_bytes(&ClientFrame::CloseCursor { cursor }.encode(), &shared);
        assert!(matches!(
            drain(&mut conn)[0],
            ServerFrame::CursorClosed { .. }
        ));
        assert_eq!(conn.cursor_count(), 0);
    }

    #[test]
    fn malformed_payload_answers_an_error_and_keeps_the_connection() {
        let shared = shared();
        let mut conn = Connection::new();
        conn.on_bytes(&crate::protocol::frame_payload(b"{ not json"), &shared);
        conn.on_bytes(&ClientFrame::Pin.encode(), &shared);
        let responses = drain(&mut conn);
        assert!(matches!(
            responses[0],
            ServerFrame::Error {
                code: ErrorCode::MalformedFrame,
                ..
            }
        ));
        // The next frame on the same connection still works.
        assert!(matches!(responses[1], ServerFrame::Pinned { .. }));
        assert!(conn.closing().is_none());
    }

    #[test]
    fn unknown_handles_are_client_errors() {
        let shared = shared();
        let mut conn = Connection::new();
        conn.on_bytes(&ClientFrame::Fetch { cursor: 99, k: 1 }.encode(), &shared);
        conn.on_bytes(
            &ClientFrame::OpenCursor {
                query: crate::protocol::QueryTarget::Name("nope".into()),
                semantics: Semantics::Complete,
                snapshot: Some(42),
                offset: 0,
                limit: None,
            }
            .encode(),
            &shared,
        );
        let responses = drain(&mut conn);
        assert!(matches!(
            responses[0],
            ServerFrame::Error {
                code: ErrorCode::UnknownCursor,
                ..
            }
        ));
        assert!(matches!(
            responses[1],
            ServerFrame::Error {
                code: ErrorCode::UnknownSnapshot,
                ..
            }
        ));
    }

    #[test]
    fn oversized_prefix_closes_after_reporting() {
        let shared = shared();
        let mut conn = Connection::new();
        conn.on_bytes(&(u32::MAX).to_be_bytes(), &shared);
        assert_eq!(conn.closing(), Some(CloseReason::Fatal));
        let responses = drain(&mut conn);
        assert!(matches!(
            responses[0],
            ServerFrame::Error {
                code: ErrorCode::FrameTooLarge,
                ..
            }
        ));
    }

    /// A connection with query `q(x) :- Researcher(x)` registered and the
    /// given researchers committed, plus a complete-answer cursor over them.
    fn researchers(shared: &Shared, names: impl IntoIterator<Item = String>) -> (Connection, u64) {
        let mut conn = Connection::new();
        let frames = [
            ClientFrame::Register {
                name: "q".into(),
                ontology: "Researcher(x) -> exists y. HasOffice(x, y)".into(),
                query: "q(x) :- Researcher(x)".into(),
            },
            ClientFrame::Commit {
                ops: (names.into_iter())
                    .map(|name| TxnOp::Insert {
                        relation: "Researcher".into(),
                        tuple: vec![name],
                    })
                    .collect(),
            },
            ClientFrame::OpenCursor {
                query: crate::protocol::QueryTarget::Name("q".into()),
                semantics: Semantics::Complete,
                snapshot: None,
                offset: 0,
                limit: None,
            },
        ];
        for frame in &frames {
            conn.on_bytes(&frame.encode(), shared);
        }
        let responses = drain(&mut conn);
        let ServerFrame::CursorOpened { cursor, .. } = responses[2] else {
            panic!("expected opened cursor, got {:?}", responses[2]);
        };
        (conn, cursor)
    }

    /// The answers a fresh complete-answer stream of `q` yields, rendered,
    /// in stream order.
    fn stream_sequence(shared: &Shared) -> Vec<Vec<String>> {
        let engine = shared.engine.read().unwrap();
        let request = Request::new(omq_serve::QueryRef::Name("q".into()), Semantics::Complete);
        let snap = engine.snapshot();
        let stream = engine.serve_stream(&request).unwrap();
        stream
            .map(|a| omq_wire::render_answer(&a, snap.database()))
            .collect()
    }

    /// Pages are capped by encoded bytes, not just `k`: large constant
    /// names split one fetch into several short pages, `done` stays the
    /// end-of-stream signal, and no page frame approaches the frame cap.
    /// The cap breaks inside a pulled chunk — what the page refused waits
    /// for the next fetch, which may itself stop at `k` — and the pages
    /// still concatenate to the stream's sequence: nothing lost,
    /// reordered or repeated.
    #[test]
    fn pages_split_under_the_byte_cap() {
        // 8 facts with ~300 KiB constants ≈ 2.4 MiB rendered — k = 100
        // must split into ≥ 3 pages under the 1 MiB byte cap.
        let big = |i: usize| format!("{}{i}", "x".repeat(300 * 1024));
        for (names, ks) in [
            ((0..8).map(big).collect::<Vec<_>>(), vec![100]),
            // Small and big constants interleaved, fetched with a `k` that
            // sometimes stops a page before the cap or the deferred
            // answers run out.
            (
                (0..30)
                    .map(|i| if i % 4 == 1 { big(i) } else { format!("r{i}") })
                    .collect(),
                vec![100, 2, 5, 1, 100, 3],
            ),
        ] {
            let shared = shared();
            let (mut conn, cursor) = researchers(&shared, names.clone());
            let mut pages = 0usize;
            let mut got = Vec::new();
            loop {
                let k = ks[pages % ks.len()];
                conn.on_bytes(&ClientFrame::Fetch { cursor, k }.encode(), &shared);
                let responses = drain(&mut conn);
                let ServerFrame::Page { answers, done, .. } = &responses[0] else {
                    panic!("expected page, got {:?}", responses[0]);
                };
                assert!(
                    !answers.is_empty(),
                    "every page before exhaustion makes progress"
                );
                assert!(answers.len() as u64 <= k);
                let encoded: usize = answers.iter().map(|a| answer_wire_len(a) + 1).sum();
                assert!(encoded <= MAX_PAGE_BYTES + 1, "page within the byte cap");
                got.extend(answers.clone());
                pages += 1;
                assert!(pages < 64, "no livelock");
                if *done {
                    break;
                }
            }
            assert!(
                pages >= 3,
                "the byte cap split the fetch, got {pages} pages"
            );
            assert_eq!(got.len(), names.len(), "no answer lost or duplicated");
            assert_eq!(got, stream_sequence(&shared), "pages replay the stream");
        }
    }

    /// An answer no page can carry fails the fetch that reaches it, and
    /// every retry the same way; the connection and the cursor stay up.
    #[test]
    fn an_oversized_answer_fails_identically_on_retry() {
        let shared = shared();
        let names = ["a", "b", "c"].map(str::to_owned);
        let (mut conn, cursor) = researchers(&shared, names);
        // Too long for any frame, so it cannot come in over the wire.
        let huge = "h".repeat(MAX_SINGLE_ANSWER_BYTES);
        let txn = Txn::new().insert("Researcher", vec![huge]);
        shared.engine.write().unwrap().register_data(txn).unwrap();
        conn.on_bytes(&ClientFrame::CloseCursor { cursor }.encode(), &shared);
        let open = ClientFrame::OpenCursor {
            query: crate::protocol::QueryTarget::Name("q".into()),
            semantics: Semantics::Complete,
            snapshot: None,
            offset: 0,
            limit: None,
        };
        conn.on_bytes(&open.encode(), &shared);
        let ServerFrame::CursorOpened { cursor, .. } = drain(&mut conn)[1] else {
            panic!("expected opened cursor");
        };
        let mut errors = Vec::new();
        let mut answers = 0usize;
        while errors.len() < 3 {
            conn.on_bytes(&ClientFrame::Fetch { cursor, k: 100 }.encode(), &shared);
            match drain(&mut conn).remove(0) {
                ServerFrame::Page {
                    answers: page,
                    done,
                    ..
                } => {
                    assert!(!done, "the stream cannot end past an undeliverable answer");
                    assert!(errors.is_empty(), "no page after the failure");
                    answers += page.len();
                }
                error => errors.push(error),
            }
        }
        assert!(answers < 4, "{answers} answers paged");
        let ServerFrame::Error { code, message } = &errors[0] else {
            panic!("expected an error frame, got {:?}", errors[0]);
        };
        assert_eq!(*code, ErrorCode::Internal);
        assert!(message.contains("exceeds"), "{message}");
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
        assert!(conn.closing().is_none());
        assert_eq!(conn.cursor_count(), 1);
    }

    /// Pages straight off any answer stream.
    impl Source for omq_core::AnswerStream {
        fn next_batch_ref(&mut self, k: usize, sink: impl FnMut(AnswerRef<'_>)) -> usize {
            omq_core::AnswerStream::next_batch_ref(self, k, sink)
        }

        fn error(&self) -> Option<&CoreError> {
            omq_core::AnswerStream::error(self)
        }
    }

    /// A remote source that hands out its answers while it can fill a
    /// whole pull, then fails, as a shard whose worker died would.
    struct FailingSource(VecDeque<Answer>);

    impl omq_core::RemoteShard for FailingSource {
        fn next_batch(&mut self, out: &mut Vec<Answer>, k: usize) -> Result<usize, CoreError> {
            if self.0.len() < k {
                return Err(CoreError::Internal("worker lost".to_owned()));
            }
            out.extend(self.0.drain(..k));
            Ok(k)
        }
    }

    /// A stream cut short by an error never reads as done: the fetch that
    /// reaches the end answers with the error, and so does every retry.
    #[test]
    fn a_stream_cut_short_answers_with_its_error_not_done() {
        let shared = shared();
        let names = (0..5).map(|i| format!("r{i}"));
        let (_conn, _) = researchers(&shared, names);
        let snap = shared.engine.read().unwrap().snapshot();
        let omq = omq_chase::OntologyMediatedQuery::new(
            omq_chase::Ontology::new(),
            omq_cq::ConjunctiveQuery::parse("q(x) :- Researcher(x)").unwrap(),
        )
        .unwrap();
        let plan = omq_core::QueryPlan::compile(&omq).unwrap();
        let answers = plan.execute(snap.database()).unwrap();
        let answers = answers.answers(Semantics::Complete).unwrap().collect();
        let source = Box::new(FailingSource(answers));
        let stream = omq_core::AnswerStream::from_remote(&plan, Semantics::Complete, vec![source]);
        let mut cursor = Cursor {
            stream: stream.unwrap(),
            snap,
            exhausted: false,
            pending: VecDeque::new(),
        };
        let replies: Vec<ServerFrame> = (0..4)
            .map(|_| {
                let mut out = Vec::new();
                match cursor.page(&mut out, 1, 2) {
                    Ok(()) => ServerFrame::decode(&out[4..]).unwrap(),
                    Err(error) => {
                        assert!(out.is_empty(), "an error writes no page");
                        error
                    }
                }
            })
            .collect();
        // Two full pages, then the failing pull — and its retry — answer
        // with the error instead of a last page marked done.
        for page in &replies[..2] {
            let ServerFrame::Page { answers, done, .. } = page else {
                panic!("expected a page, got {page:?}");
            };
            assert_eq!((answers.len(), *done), (2, false));
        }
        for error in &replies[2..] {
            let ServerFrame::Error { code, message } = error else {
                panic!("expected the stream's error, got {error:?}");
            };
            assert!(!code.is_client_error(), "{code:?}");
            assert!(message.contains("worker lost"), "{message}");
        }
    }

    /// A pipelined burst stops producing responses at the high-water mark;
    /// the decoder retains the rest and `pump` resumes after draining.
    #[test]
    fn pipelined_bursts_stop_at_high_water_and_resume() {
        let shared = shared();
        const N: usize = 16_384;
        // The burst pins N snapshots on purpose; lift the quota so what is
        // under test stays the backpressure, not the quota.
        let mut conn = Connection::with_quotas(ConnectionQuotas {
            max_snapshots: N,
            ..ConnectionQuotas::default()
        });
        let mut burst = Vec::new();
        for _ in 0..N {
            burst.extend_from_slice(&ClientFrame::Pin.encode());
        }
        conn.on_bytes(&burst, &shared);
        assert!(
            conn.pending_out().len() >= HIGH_WATER,
            "the pump ran up to the mark"
        );
        assert!(
            conn.pending_out().len() < HIGH_WATER + 128,
            "…but overshot by at most one response frame: {}",
            conn.pending_out().len()
        );
        assert!(conn.buffered_in() > 0, "unconsumed frames were retained");

        // Drain-and-pump sweeps serve the whole burst without new reads.
        let mut decoder = FrameDecoder::new();
        let mut responses = 0usize;
        loop {
            decoder.feed(conn.pending_out());
            let n = conn.pending_out().len();
            conn.advance_out(n);
            while let Some(payload) = decoder.next_frame().unwrap() {
                assert!(matches!(
                    ServerFrame::decode(&payload).unwrap(),
                    ServerFrame::Pinned { .. }
                ));
                responses += 1;
            }
            if !conn.pump(&shared) && conn.pending_out().is_empty() {
                break;
            }
        }
        assert_eq!(responses, N);
        assert_eq!(conn.buffered_in(), 0);
        assert_eq!(conn.snapshot_count(), N);
    }

    /// The last-resort `send` guard: an encoded frame past the cap is
    /// replaced by a bounded error frame instead of corrupting the stream.
    #[test]
    fn oversized_outgoing_frames_degrade_to_a_bounded_error() {
        let mut conn = Connection::new();
        conn.send(&ServerFrame::Error {
            code: ErrorCode::Internal,
            message: "x".repeat(crate::protocol::MAX_FRAME_LEN + 1),
        });
        let responses = drain(&mut conn);
        match &responses[0] {
            ServerFrame::Error {
                code: ErrorCode::Internal,
                message,
            } => {
                assert!(message.contains("exceeds"), "{message}");
                assert!(message.len() < 256);
            }
            other => panic!("expected bounded error frame, got {other:?}"),
        }
    }

    /// Exceeding a handle quota is a 429 that leaves the connection up;
    /// releasing any handle makes room and the retry succeeds.
    #[test]
    fn quota_exceeded_is_recoverable_by_releasing_a_handle() {
        let shared = shared();
        let mut conn = Connection::with_quotas(ConnectionQuotas {
            max_cursors: 1,
            max_snapshots: 2,
        });
        conn.on_bytes(
            &ClientFrame::Register {
                name: "q".into(),
                ontology: "Researcher(x) -> exists y. HasOffice(x, y)".into(),
                query: "q(x) :- Researcher(x)".into(),
            }
            .encode(),
            &shared,
        );
        let open = ClientFrame::OpenCursor {
            query: crate::protocol::QueryTarget::Name("q".into()),
            semantics: Semantics::Complete,
            snapshot: None,
            offset: 0,
            limit: None,
        };
        // Two pins fit, the third is over quota.
        for frame in [&ClientFrame::Pin, &ClientFrame::Pin, &ClientFrame::Pin] {
            conn.on_bytes(&frame.encode(), &shared);
        }
        // One cursor fits, the second is over quota.
        conn.on_bytes(&open.encode(), &shared);
        conn.on_bytes(&open.encode(), &shared);
        let responses = drain(&mut conn);
        assert!(matches!(
            responses[1],
            ServerFrame::Pinned { snapshot: 1, .. }
        ));
        assert!(matches!(responses[2], ServerFrame::Pinned { .. }));
        let ServerFrame::Error { code, message } = &responses[3] else {
            panic!("expected quota error, got {:?}", responses[3]);
        };
        assert_eq!(*code, ErrorCode::QuotaExceeded);
        assert!(code.is_client_error(), "quota faults are the client's");
        assert!(message.contains("snapshots"), "{message}");
        assert!(matches!(responses[4], ServerFrame::CursorOpened { .. }));
        assert!(matches!(
            responses[5],
            ServerFrame::Error {
                code: ErrorCode::QuotaExceeded,
                ..
            }
        ));
        assert!(conn.closing().is_none(), "connection survives the 429s");
        assert_eq!(conn.snapshot_count(), 2);
        assert_eq!(conn.cursor_count(), 1);

        // Release one snapshot; the retry now fits.
        conn.on_bytes(
            &ClientFrame::ReleaseSnapshot { snapshot: 1 }.encode(),
            &shared,
        );
        conn.on_bytes(&ClientFrame::Pin.encode(), &shared);
        let responses = drain(&mut conn);
        assert!(matches!(responses[0], ServerFrame::SnapshotReleased { .. }));
        assert!(matches!(responses[1], ServerFrame::Pinned { .. }));
        assert_eq!(conn.snapshot_count(), 2);
    }

    /// Error messages echoing client-supplied text are clipped so the
    /// error frame itself stays far below the frame cap.
    #[test]
    fn error_messages_echoing_client_text_are_clipped() {
        let shared = shared();
        let mut conn = Connection::new();
        let tag = "t".repeat(2 * 1024 * 1024);
        let payload = format!("{{\"t\":\"{tag}\"}}");
        conn.on_bytes(&crate::protocol::frame_payload(payload.as_bytes()), &shared);
        let responses = drain(&mut conn);
        let ServerFrame::Error {
            code: ErrorCode::MalformedFrame,
            message,
        } = &responses[0]
        else {
            panic!("expected malformed-frame error, got {:?}", responses[0]);
        };
        assert!(message.len() < 2048, "clipped to {}", message.len());
        assert!(message.ends_with("[truncated]"));
        assert!(conn.closing().is_none(), "still a recoverable error");
    }
}
