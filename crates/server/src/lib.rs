//! # omq-server — a network front end over the OMQ serving engine
//!
//! The paper's guarantee — constant-delay enumeration after linear
//! preprocessing (Lutz & Przybyłko, PODS 2022) — reaches remote callers
//! only if the wire preserves the cursor discipline the in-process layers
//! built: answers are *pulled*, a page of `k` answers costs `O(k)` after
//! preprocessing, and a cursor's pages replay one pinned epoch no matter
//! what commits concurrently.  This crate is that wire:
//!
//! - [`protocol`] — the server frame grammar over the shared `omq-wire`
//!   codec (length-prefixed JSON frames, hand-rolled on [`json`]; the
//!   workspace is hermetic, no crates.io), incremental reassembly under
//!   torn reads, wire [`ErrorCode`]s partitioned into client faults (4xx)
//!   and server failures (5xx);
//! - [`conn`] — per-connection state machines holding connection-scoped
//!   snapshot and cursor handles, socket-free and unit-testable;
//! - [`server`] — the event loop over nonblocking `std::net` sockets:
//!   `N` identical workers, each accepting from the shared listener and
//!   owning the connections it accepted, write-buffer backpressure ([`HIGH_WATER`]) at both the read *and*
//!   the frame pump so slow readers and pipelined bursts stall their own
//!   producers and nothing else, page frames byte-capped at
//!   [`MAX_PAGE_BYTES`] so no response can outgrow the frame limit;
//! - [`client`] — a small blocking client used by the examples, the
//!   end-to-end tests and the benchmark's `wire-paging` workload.
//!
//! The serving semantics on the wire are exactly the in-process ones: a
//! cursor maps onto `ServingEngine::serve_stream` and its pages onto
//! `AnswerStream::next_batch`; `count`/`exists` map onto the
//! non-materialising aggregate paths; commits map onto transactional
//! `register_data`.  The end-to-end tests check the strongest form of
//! that claim — the paged answer sequence of a pinned wire cursor is
//! byte-identical to an in-process drain at the pinned epoch, under a
//! concurrent commit writer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod errors;

pub mod client;
pub mod conn;
pub mod protocol;
pub mod server;

pub use omq_wire::json;

pub use client::{Client, ClientError, WireCommit, WireCount, WireCursor, WirePage, WireSnapshot};
pub use conn::{CloseReason, Connection, ConnectionQuotas, Shared};
pub use errors::wire_code_for_serve;
pub use protocol::{
    answer_wire_len, render_answer, ClientFrame, ErrorCode, FrameDecoder, QueryTarget, ServerFrame,
    TxnOp, MAX_FRAME_LEN, MAX_PAGE, MAX_PAGE_BYTES, MAX_WIRE_INT,
};
pub use server::{Server, ServerConfig, HIGH_WATER};

#[cfg(test)]
mod assertions {
    /// The shared state and the running server handle must be usable from
    /// multiple threads (workers, plus whoever holds `shared_engine`).
    #[test]
    fn shared_state_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::Shared>();
        assert_send_sync::<super::Server>();
    }
}
