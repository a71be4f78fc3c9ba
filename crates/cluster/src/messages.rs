//! The coordinator/worker frame grammar.
//!
//! Same substrate as the client/server protocol — 4-byte big-endian length
//! prefix, JSON object payload tagged by a `"t"` member, all through
//! [`omq_wire`] — with a vocabulary for shipping work instead of serving
//! queries:
//!
//! ```text
//! coordinator → worker                     worker → coordinator
//! ─────────────────────                    ─────────────────────
//! setup  ontology, query, relations       ready  worker index
//! facts  shard, rows, last                page   shard, answers, done
//! run    shard, semantics                 error  shard?, code, message
//! bye
//! ```
//!
//! A worker announces itself with `ready`, receives one `setup`, then loops:
//! the coordinator ships a shard as one or more `facts` frames (the last one
//! flagged), starts it with `run`, and the worker streams `page` frames back
//! until the one flagged `done`.  `bye` ends the session.  Fact rows and
//! answers both travel as arrays of strings — rows as `[relation, arg…]`
//! (see `Database::export_fact_rows`), answers in the rendered convention of
//! [`omq_wire::render_answer`].
//!
//! `error` carries an [`ErrorCode`] like the server's error frame; an error
//! with a `shard` is a failed evaluation of that shard, an error without one
//! (the member is omitted) poisons the whole session (e.g. the setup did not
//! parse).
//!
//! Both vocabularies are rows of `omq_wire`'s frame table
//! ([`omq_wire::frames!`]): each frame is declared once below and its codec
//! is generated.  The worker's `page` is the server's page with its id
//! member named `shard`, written by [`omq_wire::PageWriter`].

use omq_data::Semantics;
use omq_wire::ErrorCode;

/// Soft cap on the encoded bytes of the `rows` member of one `facts` frame;
/// the coordinator splits bigger shards across several frames.  Same budget
/// as the server's page cap, far under `MAX_FRAME_LEN`.
pub const MAX_SHIP_BYTES: usize = 1024 * 1024;

/// Soft cap on the encoded bytes of one `page` frame's answers, and the
/// default answer count per page.
pub const MAX_PAGE_BYTES: usize = 1024 * 1024;

/// Default number of answers per `page` frame.
pub const PAGE_ANSWERS: usize = 1024;

/// One fact as it travels: the relation name and the constant names.
pub type FactRow = (String, Vec<String>);

omq_wire::frames! {
    /// Frames the coordinator sends.
    #[derive(Debug, Clone, PartialEq)]
    pub enum CoordFrame {
        /// The session preamble: ontology and query text plus the full schema
        /// (shards only carry a subset of the relations; the plan needs all).
        "setup" => Setup {
            /// Ontology text, one TGD per line.
            ontology: String,
            /// Query text.
            query: String,
            /// `(name, arity)` for every relation of the coordinator's schema.
            relations: Vec<(String, u64)>,
        },
        /// A batch of fact rows for a shard; `last` marks the final batch.
        "facts" => Facts {
            /// Shard id the rows belong to.
            shard: u64,
            /// The rows.
            rows: Vec<FactRow>,
            /// This is the shard's final batch — it can be built and run.
            last: bool,
        },
        /// Evaluate a fully shipped shard under `semantics`.
        "run" => Run {
            /// Shard id, previously completed by a `last` facts frame.
            shard: u64,
            /// The answer semantics to enumerate.
            semantics: Semantics,
        },
        /// End of session: no more shards will be assigned.
        "bye" => Bye,
    }
}

omq_wire::frames! {
    /// Frames a worker sends.
    #[derive(Debug, Clone, PartialEq)]
    pub enum WorkerFrame {
        /// Hello: sent once, immediately after connecting.
        "ready" => Ready {
            /// The worker's index, as assigned at spawn time.
            worker: u64,
        },
        /// One page of rendered answers for a running shard.
        "page" => Page {
            /// Shard id the answers belong to.
            shard: u64,
            /// Rendered answers (see [`omq_wire::render_answer`]).
            answers: Vec<Vec<String>>,
            /// The shard is fully enumerated; its results may be committed.
            done: bool,
        },
        /// Something failed.  With a shard id: that evaluation failed (and the
        /// failure is deterministic — rerunning elsewhere would fail the same).
        /// Without: the session is poisoned (setup failure, protocol error).
        "error" => Error {
            /// The shard whose evaluation failed, if any.
            shard: Option<u64>,
            /// Coarse classification, shared with the serving protocol.
            code: ErrorCode,
            /// Human-readable description.
            message: String,
        },
    }
}
