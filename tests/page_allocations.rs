//! The server's allocation budget per page, asserted in counts, not clocks.
//!
//! A fetch writes answers into the page straight off the enumerator
//! (`AnswerStream::next_batch_ref` into `PageWriter::push_answer`), so what
//! a page allocates is the request's own decoding, not one owned answer per
//! answer.  This suite drives a [`Connection`] over a `hub`-shaped store —
//! join values each fanning out to many answers, the shape where answers
//! outnumber facts — and counts the heap allocations of the calling thread
//! while it serves each fetch of a warm drain.

use omq::data::Semantics;
use omq::serve::ServingEngine;
use omq::server::protocol::{ClientFrame, FrameDecoder, QueryTarget, ServerFrame, TxnOp};
use omq::server::{Connection, Shared};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::RwLock;

/// Counts the allocations of the calling thread, so tests running beside
/// this one do not land in its numbers.
struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `Cell` of a plain
// integer in a const-initialised thread-local (no destructor, no lazy
// initialisation), so touching it never allocates or re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// Answers per fetch, as a paging client asks for them.
const PAGE: u64 = 128;

/// The most allocations one page may cost the serving thread.
const BUDGET_PER_PAGE: u64 = 16;

/// `hubs` join values, each with `fan` R-facts into it; even hubs also have
/// `fan` S-facts out of it (`fan²` complete answers each), odd hubs none,
/// so the ontology's invented S-successor makes `fan` wildcard answers.
fn hub_facts(hubs: usize, fan: usize) -> Vec<TxnOp> {
    let fact = |relation: &str, tuple: [String; 2]| TxnOp::Insert {
        relation: relation.to_owned(),
        tuple: tuple.into(),
    };
    let mut ops = Vec::new();
    for h in 0..hubs {
        for i in 0..fan {
            ops.push(fact("R", [format!("h{h}x{i}"), format!("h{h}y")]));
            if h % 2 == 0 {
                ops.push(fact("S", [format!("h{h}y"), format!("h{h}z{i}")]));
            }
        }
    }
    ops
}

/// Serves one frame and returns the one reply.
fn exchange(conn: &mut Connection, shared: &Shared, frame: &[u8]) -> ServerFrame {
    conn.on_bytes(frame, shared);
    take_reply(conn)
}

fn take_reply(conn: &mut Connection) -> ServerFrame {
    let mut decoder = FrameDecoder::new();
    decoder.feed(conn.pending_out());
    let n = conn.pending_out().len();
    conn.advance_out(n);
    let payload = decoder.next_frame().unwrap().expect("one whole reply");
    assert_eq!(decoder.pending(), 0, "exactly one reply");
    ServerFrame::decode(&payload).unwrap()
}

/// Drains one cursor page by page; returns the answers, the pages and the
/// allocations the serving thread made inside the fetches.
fn drain(conn: &mut Connection, shared: &Shared, semantics: Semantics) -> (usize, u64, u64) {
    let open = ClientFrame::OpenCursor {
        query: QueryTarget::Name("q".into()),
        semantics,
        snapshot: None,
        offset: 0,
        limit: None,
    };
    let ServerFrame::CursorOpened { cursor, .. } = exchange(conn, shared, &open.encode()) else {
        panic!("no cursor");
    };
    let fetch = ClientFrame::Fetch { cursor, k: PAGE }.encode();
    let (mut answers, mut pages, mut allocs) = (0usize, 0u64, 0u64);
    loop {
        let before = alloc_calls();
        conn.on_bytes(&fetch, shared);
        allocs += alloc_calls() - before;
        let ServerFrame::Page {
            answers: page,
            done,
            ..
        } = take_reply(conn)
        else {
            panic!("a fetch answers with a page");
        };
        answers += page.len();
        pages += 1;
        if done {
            break;
        }
    }
    let close = ClientFrame::CloseCursor { cursor }.encode();
    assert!(matches!(
        exchange(conn, shared, &close),
        ServerFrame::CursorClosed { .. }
    ));
    (answers, pages, allocs)
}

#[test]
fn a_page_of_answers_costs_at_most_sixteen_allocations() {
    let shared = Shared {
        engine: RwLock::new(ServingEngine::new(1)),
    };
    let mut conn = Connection::new();
    let register = ClientFrame::Register {
        name: "q".into(),
        ontology: "R(x, y) -> exists z. S(y, z)".into(),
        query: "q(x, y, z) :- R(x, y), S(y, z)".into(),
    };
    assert!(matches!(
        exchange(&mut conn, &shared, &register.encode()),
        ServerFrame::Registered { .. }
    ));
    let (hubs, fan) = (40, 32);
    let commit = ClientFrame::Commit {
        ops: hub_facts(hubs, fan),
    };
    assert!(matches!(
        exchange(&mut conn, &shared, &commit.encode()),
        ServerFrame::Committed { .. }
    ));
    let complete = hubs / 2 * fan * fan;
    for (semantics, expected) in [
        (Semantics::Complete, complete),
        (Semantics::MinimalPartial, complete + hubs / 2 * fan),
    ] {
        // The first drain builds each shard's structures; the budget is
        // the warm drain's, where every page is enumeration only.
        let (cold, _, _) = drain(&mut conn, &shared, semantics);
        let (answers, pages, allocs) = drain(&mut conn, &shared, semantics);
        assert_eq!((cold, answers), (expected, expected), "{semantics}");
        assert!(
            allocs <= BUDGET_PER_PAGE * pages,
            "{semantics}: {allocs} allocations over {pages} pages of {PAGE}, \
             {:.1} per page against a budget of {BUDGET_PER_PAGE}",
            allocs as f64 / pages as f64
        );
    }
}
