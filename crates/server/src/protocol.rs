//! The `omq` wire protocol: length-prefixed JSON frames.
//!
//! Every frame on the wire is a 4-byte big-endian length followed by that
//! many bytes of UTF-8 JSON — one object per frame, tagged by its `"t"`
//! member.  The framing substrate (encoder, [`FrameDecoder`] reassembly
//! under torn reads, the [`MAX_FRAME_LEN`] cap, [`ErrorCode`]s and the
//! frame table) lives in `omq-wire`, shared with the cluster protocol;
//! this module declares the *server* vocabulary as two tables of rows over
//! it: [`ClientFrame`] is what clients send, [`ServerFrame`] what the
//! server answers.  Each row is declared once — tag, then documented
//! members in wire order — and `omq_wire::frames!` generates its
//! `to_json`, `encode` and `decode`; a `page` is written by
//! [`PageWriter`](omq_wire::PageWriter) and read without a tree.
//!
//! # Grammar
//!
//! ```text
//! frame        := u32_be(len) payload            len = |payload| ≤ MAX_FRAME_LEN
//! payload      := JSON object with member "t"
//!
//! client  "t"  : register | commit | pin | open | fetch | count | exists
//!              | close_cursor | release | bye
//! server  "t"  : registered | committed | pinned | opened | page | counted
//!              | exists | cursor_closed | released | bye | error
//! ```
//!
//! Answers travel as arrays of strings: constants by their interned name,
//! the single wildcard as `"*"`, multi-wildcards as `"*1"`, `"*2"`, … — the
//! rendering is [`render_answer`], shared by the server, the cluster, the
//! load harness and the end-to-end tests so "byte-identical to an
//! in-process drain" is checkable by string equality.
//!
//! # Error discipline
//!
//! A syntactically intact frame whose payload is rejected (bad JSON, missing
//! field, unknown tag) is answered with an [`ServerFrame::Error`] carrying
//! [`ErrorCode::MalformedFrame`] — the connection stays up, because the
//! length prefix keeps the stream in sync.  Only a corrupt length prefix
//! (declared length above [`MAX_FRAME_LEN`]) is fatal: past that there is no
//! way to find the next frame boundary, so the connection is closed.  Error
//! codes below 500 are the client's fault ([`ErrorCode::is_client_error`]);
//! 5xx codes are server-side failures.

use crate::json::Json;
use omq_data::Semantics;
use omq_wire::table::{ill_typed, Entry, Member, Object};
use omq_wire::violation;

// The wire substrate, re-exported so `crate::protocol::{frame_payload, …}`
// keeps working for the connection layer and downstream users.
pub use omq_wire::{
    answer_wire_len, frame_payload, render_answer, ErrorCode, FrameDecoder, FrameTooLarge,
    ProtocolViolation, MAX_FRAME_LEN, MAX_WIRE_INT,
};

/// Upper bound on the `k` of one fetch — pagination is the backpressure
/// mechanism, so a single page is kept bounded.
pub const MAX_PAGE: usize = 65_536;

/// Soft cap on the encoded bytes of rendered answers inside one `page`
/// frame (1 MiB).  Constant names are client-supplied with no length
/// bound, so `k` alone does not bound a page: a fetch stops adding
/// answers once the next one would push the page past this cap and
/// defers the rest to the following fetch.  Page frames therefore stay
/// far below [`MAX_FRAME_LEN`] by construction, and `done` — not page
/// length — is the end-of-stream signal.
pub const MAX_PAGE_BYTES: usize = 1024 * 1024;

/// One transaction operation inside a [`ClientFrame::Commit`] batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOp {
    /// Insert one fact: relation name plus constant names.
    Insert {
        /// Relation symbol.
        relation: String,
        /// Constant names, one per position.
        tuple: Vec<String>,
    },
    /// Add a relation symbol to the store schema.
    AddRelation {
        /// Relation symbol.
        relation: String,
        /// Its arity.
        arity: usize,
    },
}

/// `{"op":"insert","rel":R,"tuple":[c…]}` or
/// `{"op":"add_relation","rel":R,"arity":n}`.
impl Entry for TxnOp {
    fn to_json(&self) -> Json {
        match self {
            TxnOp::Insert { relation, tuple } => Json::obj([
                ("op", Json::str("insert")),
                ("rel", Json::str(relation.clone())),
                (
                    "tuple",
                    Json::Arr(tuple.iter().map(|c| Json::str(c.clone())).collect()),
                ),
            ]),
            TxnOp::AddRelation { relation, arity } => Json::obj([
                ("op", Json::str("add_relation")),
                ("rel", Json::str(relation.clone())),
                ("arity", Json::uint(*arity as u64)),
            ]),
        }
    }

    fn from_json(op: &Json, _: &str) -> Result<Self, ProtocolViolation> {
        let string = |key| {
            let value = op.get(key).and_then(Json::as_str);
            value
                .map(str::to_owned)
                .ok_or_else(|| ill_typed(key, "a string"))
        };
        let relation = string("rel");
        match string("op")?.as_str() {
            "insert" => {
                let tuple = op.get("tuple").and_then(Json::as_arr);
                let tuple = tuple.ok_or_else(|| ill_typed("tuple", "an array"))?;
                let tuple = tuple.iter().map(|c| c.as_str().map(str::to_owned));
                let tuple = tuple.collect::<Option<_>>();
                Ok(TxnOp::Insert {
                    relation: relation?,
                    tuple: tuple.ok_or_else(|| violation("tuple entries must be strings"))?,
                })
            }
            "add_relation" => Ok(TxnOp::AddRelation {
                relation: relation?,
                arity: (op.get("arity").and_then(Json::as_u64))
                    .ok_or_else(|| ill_typed("arity", "a non-negative integer"))?
                    as usize,
            }),
            other => Err(violation(format!("unknown txn op `{other}`"))),
        }
    }
}

/// Names a registered query inside a request: by the id returned at
/// registration, or by registration name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryTarget {
    /// A query id from a previous `registered` response.
    Id(u64),
    /// The name the query was registered under.
    Name(String),
}

/// An id travels as a number, a name as a string.
impl Member for QueryTarget {
    fn put(&self, key: &'static str, members: &mut Vec<(&'static str, Json)>) {
        match self {
            QueryTarget::Id(id) => id.put(key, members),
            QueryTarget::Name(name) => name.put(key, members),
        }
    }

    fn take(object: &mut Object, key: &str) -> Result<Self, ProtocolViolation> {
        match object.get(key)? {
            Json::Str(name) => Ok(QueryTarget::Name(name.clone())),
            v => (v.as_u64().map(QueryTarget::Id))
                .ok_or_else(|| ill_typed(key, "a string or a non-negative integer")),
        }
    }
}

omq_wire::frames! {
    /// A frame sent by a client.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ClientFrame {
        /// Parse + compile an ontology-mediated query and add it to the
        /// server's catalogue.
        "register" => Register {
            /// Catalogue name for the query.
            name: String,
            /// Ontology text (TGDs, `omq_chase::Ontology::parse` syntax).
            ontology: String,
            /// Conjunctive-query text (`omq_cq::ConjunctiveQuery::parse` syntax).
            query: String,
        },
        /// Commit a transaction batch to the server's store.
        "commit" => Commit {
            /// The operations, applied atomically (commit-or-rollback).
            ops: Vec<TxnOp>,
        },
        /// Pin the store head: later commits never change what the returned
        /// snapshot handle answers.
        "pin" => Pin,
        /// Open an answer cursor.  The cursor pins its snapshot at open time —
        /// the store head, or a previously pinned handle — and every later page
        /// replays that one epoch.
        "open" => OpenCursor {
            /// Which query to enumerate.
            query: QueryTarget,
            /// Answer semantics.
            semantics: Semantics,
            /// Leading answers to skip before the first page (0 when absent).
            offset: u64 = 0,
            /// A snapshot handle from a previous `pin` (`None` = pin the head
            /// at open time).
            snapshot: Option<u64>,
            /// Total answers the cursor may yield (`None` = unbounded).
            limit: Option<u64>,
        },
        /// Pull the next page of at most `k` answers off a cursor — `O(k)` work
        /// server-side, mapped directly onto `AnswerStream::next_batch`.
        "fetch" => Fetch {
            /// Cursor handle from `opened`.
            cursor: u64,
            /// Page size (clamped to [`MAX_PAGE`]).
            k: u64,
        },
        /// Count the query's answers without materialising them.
        "count" => Count {
            /// Which query to count.
            query: QueryTarget,
            /// Answer semantics to count under.
            semantics: Semantics,
            /// Optional pinned snapshot handle (`None` = head).
            snapshot: Option<u64>,
        },
        /// Probe whether the query has any answer at all (cheaper than `count`).
        "exists" => Exists {
            /// Which query to probe.
            query: QueryTarget,
            /// Answer semantics to probe under.
            semantics: Semantics,
            /// Optional pinned snapshot handle (`None` = head).
            snapshot: Option<u64>,
        },
        /// Release a cursor without draining it.
        "close_cursor" => CloseCursor {
            /// Cursor handle to drop.
            cursor: u64,
        },
        /// Release a pinned snapshot handle.
        "release" => ReleaseSnapshot {
            /// Snapshot handle to drop.
            snapshot: u64,
        },
        /// Graceful goodbye; the server answers [`ServerFrame::Bye`] and closes.
        "bye" => Bye,
    }
}

omq_wire::frames! {
    /// A frame sent by the server.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ServerFrame {
        /// Response to [`ClientFrame::Register`].
        "registered" => Registered {
            /// Catalogue id of the new query.
            id: u64,
            /// The name it was registered under (echoed).
            name: String,
        },
        /// Response to [`ClientFrame::Commit`].
        "committed" => Committed {
            /// Store epoch after the commit.
            epoch: u64,
            /// Facts that were new to the store.
            new_facts: u64,
            /// Staged facts that were already present.
            duplicate_facts: u64,
        },
        /// Response to [`ClientFrame::Pin`].
        "pinned" => Pinned {
            /// Connection-scoped snapshot handle.
            snapshot: u64,
            /// The epoch the snapshot is pinned at.
            epoch: u64,
        },
        /// Response to [`ClientFrame::OpenCursor`].
        "opened" => CursorOpened {
            /// Connection-scoped cursor handle.
            cursor: u64,
            /// The epoch the cursor is pinned at — every page of this cursor
            /// replays this epoch, no matter what commits in the meantime.
            epoch: u64,
            /// The cursor's answer semantics (echoed).
            semantics: Semantics,
        },
        /// Response to [`ClientFrame::Fetch`]: one page of answers.
        "page" => Page {
            /// The cursor the page came off (echoed).
            cursor: u64,
            /// Rendered answers, see [`render_answer`].
            answers: Vec<Vec<String>>,
            /// `true` iff the cursor is exhausted.  A page may come up short
            /// of `k` without being the last one — pages are capped by
            /// encoded bytes ([`MAX_PAGE_BYTES`]) as well as by `k` — so this
            /// flag, not page length, signals the end of the stream.
            done: bool,
        },
        /// Response to [`ClientFrame::Count`].
        "counted" => Counted {
            /// Number of answers under the requested semantics.
            count: u64,
            /// `count > 0`.
            exists: bool,
            /// The epoch the aggregate was served at.
            epoch: u64,
        },
        /// Response to [`ClientFrame::Exists`].
        "exists" => Exists {
            /// Whether any answer exists.
            exists: bool,
            /// The epoch the probe was served at.
            epoch: u64,
        },
        /// Response to [`ClientFrame::CloseCursor`].
        "cursor_closed" => CursorClosed {
            /// The released handle (echoed).
            cursor: u64,
        },
        /// Response to [`ClientFrame::ReleaseSnapshot`].
        "released" => SnapshotReleased {
            /// The released handle (echoed).
            snapshot: u64,
        },
        /// Response to [`ClientFrame::Bye`]; the server closes after sending it.
        "bye" => Bye,
        /// Any request that could not be served.  The connection stays open
        /// (framing is intact); the code tells the client whose fault it was.
        "error" => Error {
            /// What went wrong, machine-readable.
            code: ErrorCode,
            /// Human-readable detail.
            message: String,
        },
    }
}
