//! Algorithm 1: enumeration of minimal partial answers with a single wildcard
//! (Theorem 5.2 of the paper).
//!
//! After the linear-time preprocessing ([`crate::preprocess`] and
//! [`crate::progress`]), the enumeration phase performs a pre-order traversal
//! of the join tree `T₁`.  At every atom it iterates over the progress trees
//! compatible with the bindings made so far, in *database-preferring order*
//! (answers with constants before answers with wildcards).  After each output
//! the `prune` step removes, from every `trees` list, the progress trees that
//! are strictly dominated by the pattern just output — this is what guarantees
//! that only *minimal* partial answers are produced, without repetition.
//!
//! The two phases are two types.  [`PreparedPartial`] is the result of the
//! preprocessing: immutable, built once per chased database (a
//! `PreparedInstance` keeps one per shard, built on first use) and shared
//! behind an [`Arc`] by every cursor over that database.
//! [`PartialEnumerator`] is one enumeration run over it, a **pull-based
//! cursor**: the recursive `enum` procedure of the paper is unrolled into an
//! explicit frame stack ([`PartialEnumerator`] implements [`Iterator`]), so a
//! caller can take the first `k` answers for `O(k)` cost, pause between
//! answers, or drop the enumerator mid-stream.  Everything `prune` edits —
//! the list linkage — belongs to the cursor, so opening one costs a few
//! array fills linear in the number of progress trees, not a rebuild, and
//! any number of cursors run over one prepared half without seeing each
//! other.  The callback entry point ([`PartialEnumerator::enumerate`]) is a
//! thin loop over the iterator.

use crate::preprocess::{FreeConnexStructure, PlanSkeleton};
use crate::progress::{ProgressIndex, TreeLists};
use crate::Result;
use omq_cq::{ConjunctiveQuery, VarId};
use omq_data::{Database, PartialTuple, PartialValue};
use std::sync::Arc;

/// One suspended level of the unrolled `enum` recursion: the progress-tree
/// entry currently applied at pre-order position `pos`, together with the
/// undo-stack watermarks needed to roll its bindings back.
#[derive(Debug, Clone, Copy)]
struct EnumFrame {
    /// Pre-order position of the open node this frame enumerates.
    pos: usize,
    /// The progress-tree entry currently applied at this level.
    entry: usize,
    /// `var_undo` length before this entry's pattern was merged.
    var_base: usize,
    /// `site_undo` length before this entry's sites were published.
    site_base: usize,
}

/// Where the cursor stands between two `next` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Before the first answer: the next advance descends from the root.
    Start,
    /// Positioned *at* the answer just emitted: the next advance backtracks.
    AtAnswer,
    /// Exhausted.
    Done,
}

/// The prepared half of Algorithm 1: what the linear-time preprocessing of
/// Theorem 5.2 leaves behind for one chased database.  Immutable; every
/// [`PartialEnumerator`] (and through it every `MultiEnumerator`) over the
/// database shares one behind an [`Arc`].
///
/// It keeps the progress-tree index and the query-sized layout the traversal
/// reads, and nothing of the join structure it was built from: the reduced
/// extensions are only needed to *find* the progress trees.
#[derive(Debug)]
pub struct PreparedPartial {
    index: ProgressIndex,
    /// The variables of every `q₁` node, in pre-order.
    preorder_vars: Vec<Vec<VarId>>,
    /// The node at every pre-order position.
    preorder: Vec<usize>,
    /// The answer tuple `x̄` (possibly with repeated variables).
    answer_positions: Vec<VarId>,
    /// Number of variables of the query (the width of an assignment).
    var_count: usize,
    /// No answer at all (detected during preprocessing).
    empty: bool,
    /// For Boolean queries: whether the query holds.
    boolean_satisfiable: Option<bool>,
}

impl PreparedPartial {
    /// Runs the preprocessing of a compiled skeleton over the chased
    /// instance `d0`: the join structure, then the progress trees over it.
    /// This is the one place the two are built together; the per-shard cache
    /// of a `PreparedInstance` and the "prepare, then open" constructors of
    /// the cursors all come here.
    pub fn prepare(skeleton: &PlanSkeleton, d0: &Database) -> Result<Self> {
        Self::from_structure(&FreeConnexStructure::materialize(skeleton, d0, false)?)
    }

    /// Builds the prepared half from an existing structure (which must have
    /// been built with `complete_only = false`).
    pub fn from_structure(structure: &FreeConnexStructure) -> Result<Self> {
        Ok(PreparedPartial {
            index: ProgressIndex::build(structure)?,
            preorder_vars: structure
                .preorder
                .iter()
                .map(|&node| structure.nodes[node].vars.clone())
                .collect(),
            preorder: structure.preorder.clone(),
            answer_positions: structure.answer_positions.clone(),
            var_count: structure.query.var_count(),
            empty: structure.empty,
            boolean_satisfiable: structure.boolean_satisfiable,
        })
    }

    /// `true` iff a cursor over this would yield no answer.  A non-empty
    /// join structure guarantees one (Lemma 5.4's progress invariant), so no
    /// enumeration is needed to know.
    pub fn is_empty(&self) -> bool {
        self.empty
    }
}

/// The Algorithm 1 enumerator — a lazy cursor over the minimal partial
/// answers, over a shared [`PreparedPartial`].
///
/// The enumeration phase prunes the `trees` lists as it goes, so a cursor is
/// consumed as it is iterated; what it prunes is its own linkage
/// ([`TreeLists`]), so re-enumerating is [`PartialEnumerator::open`] on the
/// same prepared half — a few array fills linear in the number of progress
/// trees — and cursors over one prepared half are independent.  A cursor
/// keeps its prepared half alive; nothing else.
///
/// The per-answer loop is hash-free: the variable assignment is a dense
/// array indexed by [`VarId`], the `trees(v, h)` list for an open node is
/// read from precomputed *continuation sites* (see
/// [`ProgressIndex::sites_of`]) instead of hashing the predecessor binding,
/// and the `prune` step locates dominated trees with one hash probe per
/// candidate weakening through a pooled probe pattern.
#[derive(Debug)]
pub struct PartialEnumerator {
    prepared: Arc<PreparedPartial>,
    /// This cursor's linkage of the `trees` lists: what `prune` edits.
    lists: TreeLists,
    /// Dense assignment, indexed by `VarId`.
    assignment: Vec<Option<PartialValue>>,
    /// Per node: the list id to enumerate when the node opens (maintained
    /// from the sites of the applied trees).
    open_list: Vec<Option<usize>>,
    /// Reusable undo stack for `open_list` updates (one frame per applied
    /// tree, delimited by the stack length at application time), so the
    /// per-answer loop performs no heap allocations.
    site_undo: Vec<(usize, Option<usize>)>,
    /// Reusable undo stack for variables bound by applied trees, with the
    /// same frame discipline as `site_undo`.
    var_undo: Vec<VarId>,
    /// The explicit stack of the unrolled `enum` recursion.
    frames: Vec<EnumFrame>,
    phase: Phase,
    /// Reused answer buffer of the batched pulls: each answer is
    /// materialised into this scratch and handed out by reference, so no
    /// per-answer `PartialTuple` vector is allocated.
    emit_scratch: PartialTuple,
    /// Pooled scratch of the `prune` step (entry removals, base pattern,
    /// weakenable positions, candidate probe pattern).  Pruning runs once
    /// per answer; keeping these as fields removes its per-answer heap
    /// allocations.
    prune_removals: Vec<usize>,
    prune_base: Vec<PartialValue>,
    prune_weakenable: Vec<usize>,
    prune_probe: Vec<PartialValue>,
}

impl PartialEnumerator {
    /// Preprocesses `query` over the chased instance `d0` and opens a cursor
    /// over the result.
    ///
    /// Requires the query to be acyclic and free-connex acyclic.
    pub fn new(query: &ConjunctiveQuery, d0: &Database) -> Result<Self> {
        Self::from_structure(FreeConnexStructure::build(query, d0, false)?)
    }

    /// Preprocesses a compiled skeleton over the chased instance `d0`
    /// ([`PreparedPartial::prepare`]) and opens a cursor over the result.
    pub fn with_skeleton(skeleton: &PlanSkeleton, d0: &Database) -> Result<Self> {
        Ok(Self::open(Arc::new(PreparedPartial::prepare(
            skeleton, d0,
        )?)))
    }

    /// Prepares from an existing structure (must have been built with
    /// `complete_only = false`) and opens a cursor over the result.
    pub fn from_structure(structure: FreeConnexStructure) -> Result<Self> {
        Ok(Self::open(Arc::new(PreparedPartial::from_structure(
            &structure,
        )?)))
    }

    /// Opens a cursor over a prepared half: fresh list linkage, empty
    /// assignment.  Linear in the number of progress trees, with a constant
    /// of a few array writes per tree.
    pub fn open(prepared: Arc<PreparedPartial>) -> Self {
        let mut open_list = vec![None; prepared.preorder.len()];
        for &(node, list) in prepared.index.root_sites() {
            open_list[node] = list;
        }
        PartialEnumerator {
            lists: prepared.index.lists(),
            assignment: vec![None; prepared.var_count],
            open_list,
            site_undo: Vec::new(),
            var_undo: Vec::new(),
            frames: Vec::new(),
            phase: Phase::Start,
            emit_scratch: PartialTuple(Vec::new()),
            prune_removals: Vec::new(),
            prune_base: Vec::new(),
            prune_weakenable: Vec::new(),
            prune_probe: Vec::new(),
            prepared,
        }
    }

    /// The prepared half this cursor runs over.
    pub fn prepared(&self) -> &Arc<PreparedPartial> {
        &self.prepared
    }

    /// Runs the enumeration to completion, invoking `output` for every
    /// minimal partial answer (exactly once each).  Thin wrapper over the
    /// [`Iterator`] implementation.
    pub fn enumerate(mut self, mut output: impl FnMut(PartialTuple)) -> Result<()> {
        for answer in &mut self {
            output(answer);
        }
        Ok(())
    }

    /// The `nextat` helper: the first pre-order position `≥ from` whose node
    /// has an unassigned variable, or `None` for "end of atoms".
    fn next_open(&self, from: usize) -> Option<usize> {
        (from..self.prepared.preorder.len()).find(|&pos| {
            self.prepared.preorder_vars[pos]
                .iter()
                .any(|v| self.assignment[v.0 as usize].is_none())
        })
    }

    /// Applies `entry` at pre-order position `pos`: merges the tree's pattern
    /// into the assignment (already-bound variables keep their value; by
    /// join-tree connectivity they are predecessor variables of the tree's
    /// root and agree with the pattern), publishes the tree's continuation
    /// sites, and pushes the frame that remembers how to undo both.
    fn apply(&mut self, pos: usize, entry: usize) {
        let index = &self.prepared.index;
        let var_base = self.var_undo.len();
        let tree = index.tree(entry);
        for (&var, &value) in tree.vars.iter().zip(tree.values) {
            let slot = &mut self.assignment[var.0 as usize];
            if slot.is_none() {
                *slot = Some(value);
                self.var_undo.push(var);
            }
        }
        let site_base = self.site_undo.len();
        for (site_node, list) in index.sites_of(entry) {
            self.site_undo.push((site_node, self.open_list[site_node]));
            self.open_list[site_node] = list;
        }
        self.frames.push(EnumFrame {
            pos,
            entry,
            var_base,
            site_base,
        });
    }

    /// Pops the deepest frame, rolls its bindings back, and moves its level
    /// to the next progress tree of the same list; exhausted levels keep
    /// popping.  Returns the pre-order position to resume the descent from,
    /// or `None` when the whole traversal is exhausted.
    fn backtrack(&mut self) -> Option<usize> {
        while let Some(frame) = self.frames.pop() {
            while self.site_undo.len() > frame.site_base {
                let (site_node, old) = self.site_undo.pop().expect("frame non-empty");
                self.open_list[site_node] = old;
            }
            while self.var_undo.len() > frame.var_base {
                let var = self.var_undo.pop().expect("frame non-empty");
                self.assignment[var.0 as usize] = None;
            }
            if let Some(next_entry) = self.lists.next_of(frame.entry) {
                self.apply(frame.pos, next_entry);
                return Some(frame.pos + 1);
            }
        }
        None
    }

    /// Advances the machine to the next complete assignment — the unrolled
    /// `enum` procedure of Algorithm 1.  `initial` selects between the very
    /// first descent (from the root) and a backtrack-first continuation.
    /// Returns `false` when the enumeration is exhausted.
    fn advance(&mut self, initial: bool) -> bool {
        let mut from = if initial {
            0
        } else {
            match self.backtrack() {
                Some(pos) => pos,
                None => return false,
            }
        };
        loop {
            let Some(pos) = self.next_open(from) else {
                // End of atoms: the assignment describes the next answer.
                return true;
            };
            let node = self.prepared.preorder[pos];
            // The list for this node under the current predecessor binding
            // was precomputed as a site of the tree that bound the
            // predecessors (or as a root site).  `None` means no progress
            // tree exists for the binding: nothing to enumerate below it
            // (Lemma 5.4 rules this out; handled defensively).
            let head = self.open_list[node].and_then(|list| self.lists.head(list));
            match head {
                Some(entry) => {
                    self.apply(pos, entry);
                    from = pos + 1;
                }
                None => match self.backtrack() {
                    Some(resume) => from = resume,
                    None => return false,
                },
            }
        }
    }

    /// Batched pull: produces up to `limit` answers, invoking `emit` for each.
    /// Returns the number produced; fewer than `limit` means the enumeration
    /// is exhausted.
    ///
    /// Thin owning wrapper over [`PartialEnumerator::fill_ref`] for callers
    /// that need `PartialTuple`s to keep.
    pub fn fill_with(&mut self, limit: usize, mut emit: impl FnMut(PartialTuple)) -> usize {
        self.fill_ref(limit, |tuple| emit(tuple.clone()))
    }

    /// [`PartialEnumerator::fill_ref`] handing out the answer as a value
    /// slice.
    pub fn fill_values(&mut self, limit: usize, mut emit: impl FnMut(&[PartialValue])) -> usize {
        self.fill_ref(limit, |tuple| emit(&tuple.0))
    }

    /// Allocation-free batched pull: produces up to `limit` answers, invoking
    /// `emit` once per answer with the answer in a scratch tuple reused
    /// across answers *and* across batches.  The only per-answer heap
    /// traffic left is whatever the caller's `emit` does with the tuple —
    /// counting and merge probing consume it in place.  Returns the number
    /// produced; fewer than `limit` means the enumeration is exhausted.  This
    /// is the enumerator's one state machine; every other pull is a call of
    /// it.
    pub fn fill_ref(&mut self, limit: usize, mut emit: impl FnMut(&PartialTuple)) -> usize {
        if limit == 0 {
            return 0;
        }
        let mut produced = 0usize;
        // Detach the scratch so the traversal below can borrow `self`
        // mutably while `emit` sees the materialised tuple.
        let mut scratch = std::mem::replace(&mut self.emit_scratch, PartialTuple(Vec::new()));
        loop {
            match self.phase {
                Phase::Done => break,
                Phase::Start => {
                    if self.prepared.empty {
                        self.phase = Phase::Done;
                        break;
                    }
                    if let Some(satisfiable) = self.prepared.boolean_satisfiable {
                        self.phase = Phase::Done;
                        if satisfiable {
                            scratch.0.clear();
                            emit(&scratch);
                            produced += 1;
                        }
                        break;
                    }
                    if self.advance(true) {
                        self.phase = Phase::AtAnswer;
                        self.materialise_into(&mut scratch.0);
                        emit(&scratch);
                        self.prune();
                        produced += 1;
                    } else {
                        self.phase = Phase::Done;
                        break;
                    }
                }
                Phase::AtAnswer => {
                    if self.advance(false) {
                        self.materialise_into(&mut scratch.0);
                        emit(&scratch);
                        self.prune();
                        produced += 1;
                    } else {
                        self.phase = Phase::Done;
                        break;
                    }
                }
            }
            if produced == limit {
                break;
            }
        }
        self.emit_scratch = scratch;
        produced
    }

    /// Copies the answer described by the current assignment into `out`.
    #[inline]
    fn materialise_into(&self, out: &mut Vec<PartialValue>) {
        out.clear();
        out.extend(
            self.prepared
                .answer_positions
                .iter()
                .map(|v| self.assignment[v.0 as usize].expect("answer variable bound")),
        );
    }

    /// The `prune` procedure: after outputting the answer described by the
    /// current assignment, remove from every `trees` list the progress trees
    /// that are strictly dominated (same nodes, strictly more wildcards
    /// compatible with the output pattern).  Each candidate weakening is one
    /// hash probe against the index's tree→entry table, through a pooled
    /// probe pattern — prune runs once per answer, and this loop is the bulk
    /// of the enumeration phase's per-answer constant.
    fn prune(&mut self) {
        let PartialEnumerator {
            prepared,
            lists,
            assignment,
            open_list,
            prune_removals: removals,
            prune_base: base,
            prune_weakenable: weakenable,
            prune_probe: probe,
            ..
        } = self;
        let index = &prepared.index;
        removals.clear();
        for (shape, (root, _, vars, pinned)) in index.shapes().enumerate() {
            // The list holding trees rooted here under the output's
            // predecessor binding is the node's active list; with no active
            // list, no tree can be dominated.
            let Some(list_id) = open_list[root] else {
                continue;
            };
            // Base pattern: the output restricted to the shape's variables.
            base.clear();
            base.extend(
                vars.iter()
                    .map(|v| assignment[v.0 as usize].expect("variable bound")),
            );
            // Progress trees carry constants on the predecessor variables of
            // their root (condition (1) of progress trees): if the output
            // assigns a wildcard there, no tree in any list can match a
            // weakening of this output, and otherwise only the other
            // constant positions may be weakened.
            if base.iter().zip(pinned).any(|(v, &p)| p && v.is_star()) {
                continue;
            }
            weakenable.clear();
            weakenable.extend((0..base.len()).filter(|&i| !pinned[i] && !base[i].is_star()));
            // All non-empty subsets of weakenable positions.
            let subset_count: u64 = 1u64 << weakenable.len().min(63);
            for mask in 1..subset_count {
                probe.clear();
                probe.extend_from_slice(base);
                for (bit, &pos) in weakenable.iter().enumerate() {
                    if mask & (1 << bit) != 0 {
                        probe[pos] = PartialValue::Star;
                    }
                }
                if let Some(entry) = index.entry_of(shape, probe) {
                    // A tree's pattern pins its predecessor binding, so a
                    // matching tree necessarily lives in the active list.
                    debug_assert!(index.find_in_list(list_id, shape, probe) == Some(entry));
                    removals.push(entry);
                }
            }
        }
        for &entry in removals.iter() {
            index.remove_entry(lists, entry);
        }
    }
}

impl Iterator for PartialEnumerator {
    type Item = PartialTuple;

    /// [`PartialEnumerator::fill_with`] at `limit = 1`.
    fn next(&mut self) -> Option<Self::Item> {
        let mut out = None;
        self.fill_with(1, |t| out = Some(t));
        out
    }
}

impl std::iter::FusedIterator for PartialEnumerator {}

/// Convenience function: enumerates the minimal partial answers of `query`
/// over the chased instance `d0`.
pub fn minimal_partial_answers(
    query: &ConjunctiveQuery,
    d0: &Database,
) -> Result<Vec<PartialTuple>> {
    Ok(PartialEnumerator::new(query, d0)?.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::error::CoreError;
    use omq_data::{Fact, Schema, Value};
    use rustc_hash::FxHashSet;

    fn check_against_oracle(query_text: &str, db: &Database) {
        let q = ConjunctiveQuery::parse(query_text).unwrap();
        let fast: Vec<PartialTuple> = minimal_partial_answers(&q, db).unwrap();
        let oracle = baseline::cq_minimal_partial(&q, db);
        let fast_set: FxHashSet<PartialTuple> = fast.iter().cloned().collect();
        let oracle_set: FxHashSet<PartialTuple> = oracle.iter().cloned().collect();
        assert_eq!(
            fast_set, oracle_set,
            "answer sets differ for {query_text}: fast={fast:?} oracle={oracle:?}"
        );
        assert_eq!(
            fast_set.len(),
            fast.len(),
            "duplicate answers for {query_text}"
        );
        // The pull cursor yields the same sequence as the callback run, and
        // every strict prefix of it is reachable by early termination.
        let via_iter: Vec<PartialTuple> = PartialEnumerator::new(&q, db).unwrap().collect();
        assert_eq!(via_iter, fast, "iterator diverges for {query_text}");
        for k in [0, 1, 2, fast.len()] {
            let prefix: Vec<PartialTuple> =
                PartialEnumerator::new(&q, db).unwrap().take(k).collect();
            assert_eq!(prefix, fast[..k.min(fast.len())], "take({k}) diverges");
        }
    }

    /// A chase-like database: constants a,b,c,d,e and a few nulls attached to
    /// them.
    fn chaselike_db() -> Database {
        let mut s = Schema::new();
        s.add_relation("R", 2).unwrap();
        s.add_relation("S", 2).unwrap();
        s.add_relation("A", 1).unwrap();
        let mut db = Database::new(s);
        db.add_named_fact("R", &["a", "b"]).unwrap();
        db.add_named_fact("R", &["d", "e"]).unwrap();
        db.add_named_fact("S", &["b", "c"]).unwrap();
        db.add_named_fact("A", &["a"]).unwrap();
        db.add_named_fact("A", &["d"]).unwrap();
        let r = db.schema().relation_id("R").unwrap();
        let s_rel = db.schema().relation_id("S").unwrap();
        let e = Value::Const(db.const_id("e").unwrap());
        db.add_named_fact("A", &["f"]).unwrap();
        // d's office chain ends in a null building: S(e, n1).
        let n1 = Value::Null(db.fresh_null());
        db.add_fact(Fact::new(s_rel, vec![e, n1])).unwrap();
        // f has an entirely anonymous chain: R(f, n2), S(n2, n3).
        let f = Value::Const(db.const_id("f").unwrap());
        let n2 = Value::Null(db.fresh_null());
        let n3 = Value::Null(db.fresh_null());
        db.add_fact(Fact::new(r, vec![f, n2])).unwrap();
        db.add_fact(Fact::new(s_rel, vec![n2, n3])).unwrap();
        db
    }

    #[test]
    fn running_shape_matches_oracle() {
        let db = chaselike_db();
        for text in [
            "q(x, y, z) :- R(x, y), S(y, z)",
            "q(x, y) :- R(x, y)",
            "q(x, y, z) :- A(x), R(x, y), S(y, z)",
            "q(x) :- R(x, y), S(y, z)",
            "q(y, z) :- R(x, y), S(y, z), A(x)",
            "q(x, z) :- A(x), S(y, z)",
            "q(x, x, y) :- R(x, y)",
        ] {
            check_against_oracle(text, &db);
        }
    }

    #[test]
    fn running_example_shape() {
        // Exactly the structure of Example 1.1 after the query-directed chase.
        let db = chaselike_db();
        let q = ConjunctiveQuery::parse("q(x, y, z) :- A(x), R(x, y), S(y, z)").unwrap();
        let answers = minimal_partial_answers(&q, &db).unwrap();
        // a: complete chain a-b-c; d: chain ending in a null; f: fully
        // anonymous chain.
        assert_eq!(answers.len(), 3);
        let mut star_counts: Vec<usize> = answers.iter().map(PartialTuple::star_count).collect();
        star_counts.sort_unstable();
        assert_eq!(star_counts, vec![0, 1, 2]);
    }

    #[test]
    fn dropping_the_cursor_mid_stream_is_sound() {
        let db = chaselike_db();
        let q = ConjunctiveQuery::parse("q(x, y, z) :- A(x), R(x, y), S(y, z)").unwrap();
        let mut cursor = PartialEnumerator::new(&q, &db).unwrap();
        let first = cursor.next();
        assert!(first.is_some());
        drop(cursor);
        // A fresh cursor re-enumerates from the start.
        assert_eq!(
            PartialEnumerator::new(&q, &db).unwrap().count(),
            minimal_partial_answers(&q, &db).unwrap().len()
        );
    }

    #[test]
    fn cursors_over_one_prepared_half_are_independent() {
        let db = chaselike_db();
        let q = ConjunctiveQuery::parse("q(x, y, z) :- A(x), R(x, y), S(y, z)").unwrap();
        let reference = minimal_partial_answers(&q, &db).unwrap();
        let mut first = PartialEnumerator::new(&q, &db).unwrap();
        let mut second = PartialEnumerator::open(Arc::clone(first.prepared()));
        // Interleaved: each prunes its own linkage only.
        let mut seen = (Vec::new(), Vec::new());
        loop {
            let (a, b) = (first.next(), second.next());
            if a.is_none() && b.is_none() {
                break;
            }
            seen.0.extend(a);
            seen.1.extend(b);
        }
        assert_eq!(seen.0, reference);
        assert_eq!(seen.1, reference);
        // An exhausted cursor has pruned; one opened afterwards starts over.
        let third = PartialEnumerator::open(Arc::clone(second.prepared()));
        assert!(Arc::ptr_eq(first.prepared(), third.prepared()));
        assert_eq!(third.collect::<Vec<_>>(), reference);
    }

    #[test]
    fn complete_answers_dominate_wildcards() {
        // If a constant continuation exists, the wildcard variant must not be
        // produced.
        let mut s = Schema::new();
        s.add_relation("R", 2).unwrap();
        let mut db = Database::new(s);
        db.add_named_fact("R", &["a", "b"]).unwrap();
        let r = db.schema().relation_id("R").unwrap();
        let a = Value::Const(db.const_id("a").unwrap());
        let n = Value::Null(db.fresh_null());
        db.add_fact(Fact::new(r, vec![a, n])).unwrap();
        let q = ConjunctiveQuery::parse("q(x, y) :- R(x, y)").unwrap();
        let answers = minimal_partial_answers(&q, &db).unwrap();
        assert_eq!(answers.len(), 1);
        assert!(answers[0].is_complete());
        check_against_oracle("q(x, y) :- R(x, y)", &db);
    }

    #[test]
    fn disconnected_query_products() {
        let db = chaselike_db();
        for text in ["q(x, y) :- A(x), R(y, w)", "q(x, u, v) :- A(x), S(u, v)"] {
            check_against_oracle(text, &db);
        }
    }

    #[test]
    fn boolean_and_empty_cases() {
        let db = chaselike_db();
        let boolean = ConjunctiveQuery::parse("q() :- R(x, y), S(y, z)").unwrap();
        let answers = minimal_partial_answers(&boolean, &db).unwrap();
        assert_eq!(answers, vec![PartialTuple(Vec::new())]);

        let unsat = ConjunctiveQuery::parse("q(x) :- Missing(x)").unwrap();
        assert!(minimal_partial_answers(&unsat, &db).unwrap().is_empty());
    }

    #[test]
    fn fill_values_matches_the_iterator() {
        let db = chaselike_db();
        let q = ConjunctiveQuery::parse("q(x, y, z) :- A(x), R(x, y), S(y, z)").unwrap();
        let via_iter: Vec<PartialTuple> = PartialEnumerator::new(&q, &db).unwrap().collect();
        let mut cursor = PartialEnumerator::new(&q, &db).unwrap();
        let mut batched: Vec<PartialTuple> = Vec::new();
        loop {
            let got = cursor.fill_values(2, |values| batched.push(PartialTuple(values.to_vec())));
            if got < 2 {
                break;
            }
        }
        assert_eq!(batched, via_iter);
        // An exhausted cursor keeps returning zero without emitting.
        assert_eq!(cursor.fill_values(4, |_| panic!("no more answers")), 0);

        // Boolean queries emit one empty slice.
        let boolean = ConjunctiveQuery::parse("q() :- R(x, y), S(y, z)").unwrap();
        let mut cursor = PartialEnumerator::new(&boolean, &db).unwrap();
        let mut empties = 0usize;
        assert_eq!(
            cursor.fill_values(8, |values| {
                assert!(values.is_empty());
                empties += 1;
            }),
            1
        );
        assert_eq!(empties, 1);
    }

    #[test]
    fn non_tractable_query_is_rejected() {
        let db = chaselike_db();
        let q = ConjunctiveQuery::parse("q(x, z) :- R(x, y), S(y, z)").unwrap();
        assert!(matches!(
            PartialEnumerator::new(&q, &db),
            Err(CoreError::NotEnumerationTractable(_))
        ));
    }

    #[test]
    fn shared_null_forces_consistent_wildcards() {
        // Example 6.2 shape: R(c, n), S(c, n) with the same null — the partial
        // answer machinery (single wildcard) reports (c, *, *) for
        // q(x, y, z) :- R(x, y), S(x, z), and the complete/partial distinction
        // is handled by the multi-wildcard layer.
        let mut s = Schema::new();
        s.add_relation("R", 2).unwrap();
        s.add_relation("S", 2).unwrap();
        let mut db = Database::new(s);
        db.add_named_fact("R", &["c", "c1"]).unwrap();
        let r = db.schema().relation_id("R").unwrap();
        let s_rel = db.schema().relation_id("S").unwrap();
        let c = Value::Const(db.const_id("c").unwrap());
        let n = Value::Null(db.fresh_null());
        db.add_fact(Fact::new(r, vec![c, n])).unwrap();
        db.add_fact(Fact::new(s_rel, vec![c, n])).unwrap();
        check_against_oracle("q(x, y, z) :- R(x, y), S(x, z)", &db);
        check_against_oracle("q(x, y) :- R(x, y), S(x, y)", &db);
    }
}
