//! The `omq` wire protocol: length-prefixed JSON frames.
//!
//! Every frame on the wire is a 4-byte big-endian length followed by that
//! many bytes of UTF-8 JSON — one object per frame, tagged by its `"t"`
//! member.  The framing substrate (encoder, [`FrameDecoder`] reassembly
//! under torn reads, the [`MAX_FRAME_LEN`] cap, [`ErrorCode`]s and the
//! payload field accessors) lives in `omq-wire`, shared with the cluster
//! protocol; this module defines the *server* frame grammar on top of it:
//! [`ClientFrame`] is what clients send, [`ServerFrame`] what the server
//! answers.
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
use omq_wire::{
    bool_field, decode_object, decode_page_object, field, opt_u64_field, semantics_field,
    semantics_name, str_field, u64_field, violation, PageWriter,
};

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

/// Names a registered query inside a request: by the id returned at
/// registration, or by registration name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryTarget {
    /// A query id from a previous `registered` response.
    Id(u64),
    /// The name the query was registered under.
    Name(String),
}

/// A frame sent by a client.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Parse + compile an ontology-mediated query and add it to the server's
    /// catalogue.
    Register {
        /// Catalogue name for the query.
        name: String,
        /// Ontology text (TGDs, `omq_chase::Ontology::parse` syntax).
        ontology: String,
        /// Conjunctive-query text (`omq_cq::ConjunctiveQuery::parse` syntax).
        query: String,
    },
    /// Commit a transaction batch to the server's store.
    Commit {
        /// The operations, applied atomically (commit-or-rollback).
        ops: Vec<TxnOp>,
    },
    /// Pin the store head: later commits never change what the returned
    /// snapshot handle answers.
    Pin,
    /// Open an answer cursor.  The cursor pins its snapshot at open time —
    /// the store head, or a previously pinned handle — and every later page
    /// replays that one epoch.
    OpenCursor {
        /// Which query to enumerate.
        query: QueryTarget,
        /// Answer semantics.
        semantics: Semantics,
        /// A snapshot handle from a previous `pin` (`None` = pin the head
        /// at open time).
        snapshot: Option<u64>,
        /// Leading answers to skip before the first page.
        offset: u64,
        /// Total answers the cursor may yield (`None` = unbounded).
        limit: Option<u64>,
    },
    /// Pull the next page of at most `k` answers off a cursor — `O(k)` work
    /// server-side, mapped directly onto `AnswerStream::next_batch`.
    Fetch {
        /// Cursor handle from `opened`.
        cursor: u64,
        /// Page size (clamped to [`MAX_PAGE`]).
        k: u64,
    },
    /// Count the query's answers without materialising them.
    Count {
        /// Which query to count.
        query: QueryTarget,
        /// Answer semantics to count under.
        semantics: Semantics,
        /// Optional pinned snapshot handle (`None` = head).
        snapshot: Option<u64>,
    },
    /// Probe whether the query has any answer at all (cheaper than `count`).
    Exists {
        /// Which query to probe.
        query: QueryTarget,
        /// Answer semantics to probe under.
        semantics: Semantics,
        /// Optional pinned snapshot handle (`None` = head).
        snapshot: Option<u64>,
    },
    /// Release a cursor without draining it.
    CloseCursor {
        /// Cursor handle to drop.
        cursor: u64,
    },
    /// Release a pinned snapshot handle.
    ReleaseSnapshot {
        /// Snapshot handle to drop.
        snapshot: u64,
    },
    /// Graceful goodbye; the server answers [`ServerFrame::Bye`] and closes.
    Bye,
}

/// A frame sent by the server.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// Response to [`ClientFrame::Register`].
    Registered {
        /// Catalogue id of the new query.
        id: u64,
        /// The name it was registered under (echoed).
        name: String,
    },
    /// Response to [`ClientFrame::Commit`].
    Committed {
        /// Store epoch after the commit.
        epoch: u64,
        /// Facts that were new to the store.
        new_facts: u64,
        /// Staged facts that were already present.
        duplicate_facts: u64,
    },
    /// Response to [`ClientFrame::Pin`].
    Pinned {
        /// Connection-scoped snapshot handle.
        snapshot: u64,
        /// The epoch the snapshot is pinned at.
        epoch: u64,
    },
    /// Response to [`ClientFrame::OpenCursor`].
    CursorOpened {
        /// Connection-scoped cursor handle.
        cursor: u64,
        /// The epoch the cursor is pinned at — every page of this cursor
        /// replays this epoch, no matter what commits in the meantime.
        epoch: u64,
        /// The cursor's answer semantics (echoed).
        semantics: Semantics,
    },
    /// Response to [`ClientFrame::Fetch`]: one page of answers.
    Page {
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
    Counted {
        /// Number of answers under the requested semantics.
        count: u64,
        /// `count > 0`.
        exists: bool,
        /// The epoch the aggregate was served at.
        epoch: u64,
    },
    /// Response to [`ClientFrame::Exists`].
    Exists {
        /// Whether any answer exists.
        exists: bool,
        /// The epoch the probe was served at.
        epoch: u64,
    },
    /// Response to [`ClientFrame::CloseCursor`].
    CursorClosed {
        /// The released handle (echoed).
        cursor: u64,
    },
    /// Response to [`ClientFrame::ReleaseSnapshot`].
    SnapshotReleased {
        /// The released handle (echoed).
        snapshot: u64,
    },
    /// Response to [`ClientFrame::Bye`]; the server closes after sending it.
    Bye,
    /// Any request that could not be served.  The connection stays open
    /// (framing is intact); the code tells the client whose fault it was.
    Error {
        /// What went wrong, machine-readable.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

fn query_target_json(query: &QueryTarget) -> Json {
    match query {
        QueryTarget::Id(id) => Json::uint(*id),
        QueryTarget::Name(name) => Json::str(name.clone()),
    }
}

fn query_field(obj: &Json) -> Result<QueryTarget, ProtocolViolation> {
    match field(obj, "query")? {
        Json::Str(name) => Ok(QueryTarget::Name(name.clone())),
        v => v
            .as_u64()
            .map(QueryTarget::Id)
            .ok_or_else(|| violation("field `query` must be a string or a non-negative integer")),
    }
}

impl ClientFrame {
    /// Serialises the frame payload (no length prefix).
    pub fn to_json(&self) -> Json {
        match self {
            ClientFrame::Register {
                name,
                ontology,
                query,
            } => Json::obj([
                ("t", Json::str("register")),
                ("name", Json::str(name.clone())),
                ("ontology", Json::str(ontology.clone())),
                ("query", Json::str(query.clone())),
            ]),
            ClientFrame::Commit { ops } => {
                let ops = ops
                    .iter()
                    .map(|op| match op {
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
                    })
                    .collect();
                Json::obj([("t", Json::str("commit")), ("ops", Json::Arr(ops))])
            }
            ClientFrame::Pin => Json::obj([("t", Json::str("pin"))]),
            ClientFrame::OpenCursor {
                query,
                semantics,
                snapshot,
                offset,
                limit,
            } => {
                let mut members = vec![
                    ("t", Json::str("open")),
                    ("query", query_target_json(query)),
                    ("semantics", Json::str(semantics_name(*semantics))),
                    ("offset", Json::uint(*offset)),
                ];
                if let Some(s) = snapshot {
                    members.push(("snapshot", Json::uint(*s)));
                }
                if let Some(l) = limit {
                    members.push(("limit", Json::uint(*l)));
                }
                Json::obj(members)
            }
            ClientFrame::Fetch { cursor, k } => Json::obj([
                ("t", Json::str("fetch")),
                ("cursor", Json::uint(*cursor)),
                ("k", Json::uint(*k)),
            ]),
            ClientFrame::Count {
                query,
                semantics,
                snapshot,
            }
            | ClientFrame::Exists {
                query,
                semantics,
                snapshot,
            } => {
                let tag = if matches!(self, ClientFrame::Count { .. }) {
                    "count"
                } else {
                    "exists"
                };
                let mut members = vec![
                    ("t", Json::str(tag)),
                    ("query", query_target_json(query)),
                    ("semantics", Json::str(semantics_name(*semantics))),
                ];
                if let Some(s) = snapshot {
                    members.push(("snapshot", Json::uint(*s)));
                }
                Json::obj(members)
            }
            ClientFrame::CloseCursor { cursor } => Json::obj([
                ("t", Json::str("close_cursor")),
                ("cursor", Json::uint(*cursor)),
            ]),
            ClientFrame::ReleaseSnapshot { snapshot } => Json::obj([
                ("t", Json::str("release")),
                ("snapshot", Json::uint(*snapshot)),
            ]),
            ClientFrame::Bye => Json::obj([("t", Json::str("bye"))]),
        }
    }

    /// Encodes the frame, length prefix included.
    pub fn encode(&self) -> Vec<u8> {
        frame_payload(self.to_json().to_json().as_bytes())
    }

    /// Decodes a frame payload (no length prefix).
    pub fn decode(payload: &[u8]) -> Result<ClientFrame, ProtocolViolation> {
        let doc = decode_object(payload)?;
        let tag = str_field(&doc, "t")?;
        match tag.as_str() {
            "register" => Ok(ClientFrame::Register {
                name: str_field(&doc, "name")?,
                ontology: str_field(&doc, "ontology")?,
                query: str_field(&doc, "query")?,
            }),
            "commit" => {
                let ops = field(&doc, "ops")?
                    .as_arr()
                    .ok_or_else(|| violation("field `ops` must be an array"))?;
                let ops = ops
                    .iter()
                    .map(|op| {
                        let kind = str_field(op, "op")?;
                        match kind.as_str() {
                            "insert" => {
                                let tuple = field(op, "tuple")?
                                    .as_arr()
                                    .ok_or_else(|| violation("field `tuple` must be an array"))?
                                    .iter()
                                    .map(|c| {
                                        c.as_str().map(str::to_owned).ok_or_else(|| {
                                            violation("tuple entries must be strings")
                                        })
                                    })
                                    .collect::<Result<Vec<String>, _>>()?;
                                Ok(TxnOp::Insert {
                                    relation: str_field(op, "rel")?,
                                    tuple,
                                })
                            }
                            "add_relation" => Ok(TxnOp::AddRelation {
                                relation: str_field(op, "rel")?,
                                arity: u64_field(op, "arity")? as usize,
                            }),
                            other => Err(violation(format!("unknown txn op `{other}`"))),
                        }
                    })
                    .collect::<Result<Vec<TxnOp>, _>>()?;
                Ok(ClientFrame::Commit { ops })
            }
            "pin" => Ok(ClientFrame::Pin),
            "open" => Ok(ClientFrame::OpenCursor {
                query: query_field(&doc)?,
                semantics: semantics_field(&doc)?,
                snapshot: opt_u64_field(&doc, "snapshot")?,
                offset: opt_u64_field(&doc, "offset")?.unwrap_or(0),
                limit: opt_u64_field(&doc, "limit")?,
            }),
            "fetch" => Ok(ClientFrame::Fetch {
                cursor: u64_field(&doc, "cursor")?,
                k: u64_field(&doc, "k")?,
            }),
            "count" => Ok(ClientFrame::Count {
                query: query_field(&doc)?,
                semantics: semantics_field(&doc)?,
                snapshot: opt_u64_field(&doc, "snapshot")?,
            }),
            "exists" => Ok(ClientFrame::Exists {
                query: query_field(&doc)?,
                semantics: semantics_field(&doc)?,
                snapshot: opt_u64_field(&doc, "snapshot")?,
            }),
            "close_cursor" => Ok(ClientFrame::CloseCursor {
                cursor: u64_field(&doc, "cursor")?,
            }),
            "release" => Ok(ClientFrame::ReleaseSnapshot {
                snapshot: u64_field(&doc, "snapshot")?,
            }),
            "bye" => Ok(ClientFrame::Bye),
            other => Err(violation(format!("unknown request tag `{other}`"))),
        }
    }
}

impl ServerFrame {
    /// Serialises the frame payload (no length prefix).
    pub fn to_json(&self) -> Json {
        match self {
            ServerFrame::Registered { id, name } => Json::obj([
                ("t", Json::str("registered")),
                ("id", Json::uint(*id)),
                ("name", Json::str(name.clone())),
            ]),
            ServerFrame::Committed {
                epoch,
                new_facts,
                duplicate_facts,
            } => Json::obj([
                ("t", Json::str("committed")),
                ("epoch", Json::uint(*epoch)),
                ("new_facts", Json::uint(*new_facts)),
                ("duplicate_facts", Json::uint(*duplicate_facts)),
            ]),
            ServerFrame::Pinned { snapshot, epoch } => Json::obj([
                ("t", Json::str("pinned")),
                ("snapshot", Json::uint(*snapshot)),
                ("epoch", Json::uint(*epoch)),
            ]),
            ServerFrame::CursorOpened {
                cursor,
                epoch,
                semantics,
            } => Json::obj([
                ("t", Json::str("opened")),
                ("cursor", Json::uint(*cursor)),
                ("epoch", Json::uint(*epoch)),
                ("semantics", Json::str(semantics_name(*semantics))),
            ]),
            ServerFrame::Page {
                cursor,
                answers,
                done,
            } => Json::obj([
                ("t", Json::str("page")),
                ("cursor", Json::uint(*cursor)),
                (
                    "answers",
                    Json::Arr(
                        answers
                            .iter()
                            .map(|a| Json::Arr(a.iter().map(|v| Json::str(v.clone())).collect()))
                            .collect(),
                    ),
                ),
                ("done", Json::Bool(*done)),
            ]),
            ServerFrame::Counted {
                count,
                exists,
                epoch,
            } => Json::obj([
                ("t", Json::str("counted")),
                ("count", Json::uint(*count)),
                ("exists", Json::Bool(*exists)),
                ("epoch", Json::uint(*epoch)),
            ]),
            ServerFrame::Exists { exists, epoch } => Json::obj([
                ("t", Json::str("exists")),
                ("exists", Json::Bool(*exists)),
                ("epoch", Json::uint(*epoch)),
            ]),
            ServerFrame::CursorClosed { cursor } => Json::obj([
                ("t", Json::str("cursor_closed")),
                ("cursor", Json::uint(*cursor)),
            ]),
            ServerFrame::SnapshotReleased { snapshot } => Json::obj([
                ("t", Json::str("released")),
                ("snapshot", Json::uint(*snapshot)),
            ]),
            ServerFrame::Bye => Json::obj([("t", Json::str("bye"))]),
            ServerFrame::Error { code, message } => Json::obj([
                ("t", Json::str("error")),
                ("code", Json::uint(code.as_u16() as u64)),
                ("message", Json::str(message.clone())),
            ]),
        }
    }

    /// Encodes the frame, length prefix included.  A page goes through
    /// [`PageWriter`] — the writer the connection layer streams typed
    /// answers through — which emits the bytes of [`ServerFrame::to_json`]
    /// without building the tree.
    pub fn encode(&self) -> Vec<u8> {
        if let ServerFrame::Page {
            cursor,
            answers,
            done,
        } = self
        {
            let mut out = Vec::new();
            let mut page = PageWriter::begin(&mut out, *cursor);
            for answer in answers {
                page.push_rendered(answer);
            }
            page.finish(*done);
            return out;
        }
        frame_payload(self.to_json().to_json().as_bytes())
    }

    /// Decodes a frame payload (no length prefix).  The answers of a page
    /// are pulled off the tokenizer directly, never through a tree.
    pub fn decode(payload: &[u8]) -> Result<ServerFrame, ProtocolViolation> {
        let (doc, answers) = decode_page_object(payload)?;
        let tag = str_field(&doc, "t")?;
        match tag.as_str() {
            "registered" => Ok(ServerFrame::Registered {
                id: u64_field(&doc, "id")?,
                name: str_field(&doc, "name")?,
            }),
            "committed" => Ok(ServerFrame::Committed {
                epoch: u64_field(&doc, "epoch")?,
                new_facts: u64_field(&doc, "new_facts")?,
                duplicate_facts: u64_field(&doc, "duplicate_facts")?,
            }),
            "pinned" => Ok(ServerFrame::Pinned {
                snapshot: u64_field(&doc, "snapshot")?,
                epoch: u64_field(&doc, "epoch")?,
            }),
            "opened" => Ok(ServerFrame::CursorOpened {
                cursor: u64_field(&doc, "cursor")?,
                epoch: u64_field(&doc, "epoch")?,
                semantics: semantics_field(&doc)?,
            }),
            "page" => Ok(ServerFrame::Page {
                answers: answers.ok_or_else(|| violation("missing field `answers`"))??,
                cursor: u64_field(&doc, "cursor")?,
                done: bool_field(&doc, "done")?,
            }),
            "counted" => Ok(ServerFrame::Counted {
                count: u64_field(&doc, "count")?,
                exists: bool_field(&doc, "exists")?,
                epoch: u64_field(&doc, "epoch")?,
            }),
            "exists" => Ok(ServerFrame::Exists {
                exists: bool_field(&doc, "exists")?,
                epoch: u64_field(&doc, "epoch")?,
            }),
            "cursor_closed" => Ok(ServerFrame::CursorClosed {
                cursor: u64_field(&doc, "cursor")?,
            }),
            "released" => Ok(ServerFrame::SnapshotReleased {
                snapshot: u64_field(&doc, "snapshot")?,
            }),
            "bye" => Ok(ServerFrame::Bye),
            "error" => {
                let raw = u64_field(&doc, "code")?;
                let code = u16::try_from(raw)
                    .ok()
                    .and_then(ErrorCode::from_u16)
                    .ok_or_else(|| violation(format!("unknown error code {raw}")))?;
                Ok(ServerFrame::Error {
                    code,
                    message: str_field(&doc, "message")?,
                })
            }
            other => Err(violation(format!("unknown response tag `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The codec itself (torn reads, oversized prefixes, wire-length
    /// arithmetic) is tested in `omq-wire`; what remains here is the frame
    /// *grammar* — that it decodes through the shared codec.
    #[test]
    fn frames_decode_through_the_shared_codec() {
        let frames = [
            ClientFrame::Pin.encode(),
            ClientFrame::Fetch { cursor: 7, k: 32 }.encode(),
            ClientFrame::Bye.encode(),
        ];
        let mut decoder = FrameDecoder::new();
        decoder.feed(&frames.concat());
        let mut got = Vec::new();
        while let Some(payload) = decoder.next_frame().unwrap() {
            got.push(ClientFrame::decode(&payload).unwrap());
        }
        assert_eq!(
            got,
            vec![
                ClientFrame::Pin,
                ClientFrame::Fetch { cursor: 7, k: 32 },
                ClientFrame::Bye
            ]
        );
        assert_eq!(decoder.pending(), 0);
    }

    #[test]
    fn malformed_payloads_report_but_do_not_panic() {
        for payload in [
            &b"not json"[..],
            b"[1,2,3]",
            b"{\"t\":\"nope\"}",
            b"{\"t\":\"fetch\",\"cursor\":\"x\",\"k\":1}",
            b"{\"t\":\"fetch\",\"k\":1}",
            b"{\"t\":\"open\",\"query\":true,\"semantics\":\"complete\"}",
            b"{\"t\":\"open\",\"query\":\"q\",\"semantics\":\"certain\"}",
            b"{\"t\":\"commit\",\"ops\":[{\"op\":\"upsert\"}]}",
            b"\xff\xfe",
        ] {
            assert!(ClientFrame::decode(payload).is_err());
        }
        assert!(ServerFrame::decode(b"{\"t\":\"error\",\"code\":999,\"message\":\"\"}").is_err());
    }
}
