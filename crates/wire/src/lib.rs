//! # omq-wire — the shared wire substrate of the network-facing crates
//!
//! Both network front ends of the workspace — the client-facing TCP server
//! (`omq-server`) and the coordinator/worker cluster runtime
//! (`omq-cluster`) — speak length-prefixed JSON frames.  This crate is the
//! one copy of everything those protocols share, factored out of
//! `omq-server::protocol` so the codec exists (and is property-tested)
//! exactly once:
//!
//! - [`json`] — the hand-rolled JSON value, parser and writer (the
//!   workspace is hermetic: the vendored `serde` stub has no `serde_json`);
//! - [`frame`] — the length-prefix codec: [`frame_payload`],
//!   [`FrameDecoder`] (incremental reassembly under torn reads), the
//!   [`MAX_FRAME_LEN`] cap and the fatal [`FrameTooLarge`] error;
//! - [`payload`] — shared payload plumbing: [`ProtocolViolation`] (the
//!   recoverable half of the fatal-vs-recoverable split) and
//!   [`decode_object`];
//! - [`table`] — the frame table: [`frames!`] declares a vocabulary once,
//!   one row per frame (tag, then documented members in wire order), and
//!   generates its enum, `to_json`, `encode` and `decode`; [`Member`] says
//!   how each member type travels.  The server's `ClientFrame`/
//!   `ServerFrame` and the cluster's `CoordFrame`/`WorkerFrame` are rows
//!   of it;
//! - [`answers`] — the rendered-answer convention (constants by interned
//!   name, `"*"`, `"*k"`): [`render_answer`], the byte-exact
//!   [`answer_wire_len`], and [`parse_answer`], the inverse used by the
//!   cluster coordinator to fold worker pages back into typed
//!   [`Answer`](omq_data::Answer)s;
//! - [`page`] — the one writer of `page` frames ([`PageWriter`]: length
//!   prefix and JSON appended straight to a connection's write buffer) and
//!   its reader ([`decode_page_object`], into one buffer: [`Rows`]),
//!   neither of which builds a tree.
//!   One page serves both vocabularies: the server's names its `cursor`,
//!   a cluster worker's its `shard`;
//! - [`code`] — the wire [`ErrorCode`] vocabulary, partitioned into client
//!   faults (4xx) and server failures (5xx);
//! - [`readiness`] — how a network thread waits: a poll set over `poll(2)`
//!   plus a cross-thread waker.  Unix-only, and the one module of the
//!   workspace that contains `unsafe` (the `poll` declaration and call).
//!
//! # Error discipline (shared by every consumer)
//!
//! A syntactically intact frame whose payload is rejected (bad JSON,
//! missing field, unknown tag) is a [`ProtocolViolation`] — recoverable,
//! because the length prefix keeps the byte stream in sync.  Only a corrupt
//! length prefix (declared length above [`MAX_FRAME_LEN`]) is fatal
//! ([`FrameTooLarge`]): past it there is no way to find the next frame
//! boundary, so the connection must close.

// `deny`, not `forbid`: `readiness` declares and calls `poll(2)` and is the
// one module allowed to opt out (CI fails `unsafe` anywhere else).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod classify;

pub mod answers;
pub mod code;
pub mod frame;
pub mod json;
pub mod page;
pub mod payload;
#[allow(unsafe_code)]
pub mod readiness;
pub mod table;

pub use answers::{answer_wire_len, parse_answer, render_answer};
pub use code::ErrorCode;
pub use frame::{frame_payload, FrameDecoder, FrameTooLarge, MAX_FRAME_LEN, MAX_WIRE_INT};
pub use page::{decode_page_object, PageWriter, Row, Rows, MAX_SINGLE_ANSWER_BYTES};
pub use payload::{decode_object, violation, ProtocolViolation};
pub use table::{Entry, Member};
