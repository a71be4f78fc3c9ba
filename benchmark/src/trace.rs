//! In-memory spans around the benchmark's calls into each layer, and the
//! allocation counter behind the per-span `alloc_*` numbers.
//!
//! Spans are recorded from the benchmark's own code, never from inside the
//! program: a span's boundaries are the call and return of a `pub`
//! function.  The tracer is single-threaded by construction (it is a plain
//! `&mut` value threaded through the main thread), kept in memory, and
//! written out once when the run ends.  When the tracer is off — every
//! end-to-end run — [`Tracer::span`] is one branch around the call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

/// Counts the allocations of the *calling thread*.  Only the benchmark's
/// main thread reads the counters, and only its own allocations land in
/// them, so the per-span numbers repeat exactly from run to run; work the
/// program hands to its own threads (a sharded `count`, the server worker)
/// is not attributed.
pub struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc(bytes: usize) {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are `Cell`s of plain
// integers in const-initialised thread-locals (no destructor, no lazy
// initialisation), so touching them never allocates or re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout` (all our
        // allocations are), and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(calls, bytes)` allocated by this thread so far.
pub fn alloc_counters() -> (u64, u64) {
    (ALLOC_CALLS.with(Cell::get), ALLOC_BYTES.with(Cell::get))
}

/// One recorded call.  `parent` is the span that was open when this one
/// started; spans of one round share `round`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: u32,
    /// Allocations made by the main thread while the span was open
    /// (children included).
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span's self time: its duration minus the part of it its child spans
/// cover.  Children never overlap (one thread), so that part is the sum of
/// their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags every span recorded from now on with `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name` (a child of whichever span is
    /// open).  `f` gets the tracer back so it can open children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let (calls, bytes) = alloc_counters();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            round: self.round,
            alloc_calls: calls,
            alloc_bytes: bytes,
        });
        self.open.push(id);
        // Clock reads innermost, so a span times the call and nothing of
        // the bookkeeping above.
        self.spans[id].start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        let (calls, bytes) = alloc_counters();
        self.open.pop();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.alloc_calls = calls - span.alloc_calls;
        span.alloc_bytes = bytes - span.alloc_bytes;
        out
    }

    /// Per round, in round order, the self times (ns) of the spans named
    /// `name`.  Rounds without such a span are absent.
    pub fn self_ns_by_round(&self, name: &str) -> Vec<Vec<f64>> {
        let own = self_times_ns(&self.spans);
        self.by_round(name, |i| own[i] as f64)
    }

    /// Per round, the main-thread allocation calls and bytes of the spans
    /// named `name`, summed.
    pub fn allocs_by_round(&self, name: &str) -> (Vec<f64>, Vec<f64>) {
        let sum = |rounds: Vec<Vec<f64>>| rounds.iter().map(|r| r.iter().sum()).collect();
        (
            sum(self.by_round(name, |i| self.spans[i].alloc_calls as f64)),
            sum(self.by_round(name, |i| self.spans[i].alloc_bytes as f64)),
        )
    }

    fn by_round(&self, name: &str, value: impl Fn(usize) -> f64) -> Vec<Vec<f64>> {
        let mut rounds: Vec<(u32, Vec<f64>)> = Vec::new();
        for (i, span) in self.spans.iter().enumerate() {
            if span.name != name {
                continue;
            }
            match rounds.last_mut() {
                Some((round, values)) if *round == span.round => values.push(value(i)),
                _ => rounds.push((span.round, vec![value(i)])),
            }
        }
        rounds.into_iter().map(|(_, values)| values).collect()
    }

    /// The whole trace as one JSON document (see the README for the
    /// field meanings).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self_times_ns(&self.spans);
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"ns since trace start\",\"spans\":["
        );
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"round\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"alloc_calls\":{},\"alloc_bytes\":{}}}",
                span.name,
                span.round,
                span.start_ns,
                span.end_ns,
                own[id],
                span.alloc_calls,
                span.alloc_bytes,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            round: 0,
            alloc_calls: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 with siblings 10..30 and 40..80; the second sibling
        // has a nested child 50..60.
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 80, Some(0)),
            span(50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
        // Self times partition the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_records_parents_rounds_and_allocations() {
        let mut tr = Tracer::new(true);
        tr.set_round(3);
        let v = tr.span("outer", |tr| {
            tr.span("inner", |_| Vec::<u8>::with_capacity(4096));
            tr.span("inner", |_| ());
            7
        });
        assert_eq!(v, 7);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.round == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].alloc_calls, 1);
        assert!(spans[1].alloc_bytes >= 4096);
        assert_eq!(spans[2].alloc_calls, 0);
        assert!(spans[0].alloc_calls >= 1);
        // Two "inner" spans in one round are one round's two values.
        assert_eq!(tr.self_ns_by_round("inner").len(), 1);
        assert_eq!(tr.self_ns_by_round("inner")[0].len(), 2);
        assert_eq!(tr.allocs_by_round("inner").0, vec![1.0]);
        assert!(tr.to_json("w", 1).contains("\"parent\":0"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |tr| tr.span("y", |_| 1)), 1);
        assert!(tr.spans().is_empty());
    }
}
