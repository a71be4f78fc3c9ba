//! Constant-delay enumeration of the answers of an acyclic, free-connex
//! acyclic query over a preprocessed structure (Theorem 4.1(1) of the paper,
//! via the classical CQ enumeration result it reduces to).
//!
//! After the linear-time preprocessing of [`crate::preprocess`], the answers
//! are exactly the tuples of the natural join of the `q₁` node extensions.
//! Because `q₁` is full (every variable is an answer variable), acyclic, and
//! its extensions satisfy the progress condition, a pre-order traversal of the
//! join tree that extends the current partial answer never gets stuck and
//! never produces duplicates; the work per answer is bounded by the query
//! size, independent of the database.
//!
//! The per-answer loop is **hash-free and allocation-free** (beyond the
//! output tuple itself): candidates at each level are a dense CSR slice of
//! the node's [`JoinCsr`] keyed by the parent's current tuple index — by the
//! join-tree connectivity condition, any variable a node shares with an
//! earlier node occurs in its parent, so matching the predecessor variables
//! through the CSR is all the filtering the traversal needs.  Answer tuples
//! are materialised from the per-node current tuples through the
//! precompiled `answer_sources` columns.
//!
//! The traversal state lives in [`AnswerCursor`], which does **not** borrow
//! the structure: every step takes the structure as an argument, so a cursor
//! can sit next to the [`FreeConnexStructure`] it walks inside one owning
//! value (the `AnswerStream` of [`crate::stream`] does exactly that).
//! [`AnswerIter`] pairs a cursor with a borrowed structure for the common
//! local-iteration case.
//!
//! [`JoinCsr`]: crate::preprocess::JoinCsr

use crate::preprocess::{FreeConnexStructure, JoinCsr};
use omq_data::Value;

/// The resumable traversal state of one constant-delay enumeration run.
///
/// A cursor is created for one specific [`FreeConnexStructure`] and must be
/// stepped with that same structure; mixing structures is a logic error
/// (tuple indices would be interpreted against the wrong extensions).
#[derive(Debug, Clone)]
pub struct AnswerCursor {
    /// One entry per pre-order position reached so far.
    levels: Vec<Level>,
    /// Current tuple index per node (valid for nodes on the level stack).
    cur_tuple: Vec<usize>,
    /// Reused answer-materialisation buffer for [`AnswerCursor::fill_with`];
    /// lives on the cursor so batched pulls allocate it once per stream, not
    /// once per batch.
    scratch: Vec<Value>,
    state: IterState,
}

/// Candidate cursor of one pre-order level.
#[derive(Debug, Clone)]
struct Level {
    node: usize,
    /// Candidate source: either all tuples of the node, or a CSR slice of the
    /// node's parent join.
    cands: Cands,
    cursor: usize,
}

#[derive(Debug, Clone)]
enum Cands {
    /// All tuples `0..len` (root or no predecessor variables).
    All { len: usize },
    /// CSR slice `start..start + len` of the node's `parent_join.tuples`.
    Csr { start: usize, len: usize },
}

impl Cands {
    #[inline]
    fn len(&self) -> usize {
        match self {
            Cands::All { len } | Cands::Csr { len, .. } => *len,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum IterState {
    /// Boolean query: emit the empty tuple once if satisfiable.
    Boolean { emitted: bool },
    /// No answers at all.
    Empty,
    /// Regular enumeration; `started` is false before the first answer.
    Running { started: bool, done: bool },
}

impl AnswerCursor {
    /// Creates a cursor positioned before the first answer of `structure`.
    pub fn new(structure: &FreeConnexStructure) -> Self {
        let state = if let Some(satisfiable) = structure.boolean_satisfiable {
            if satisfiable {
                IterState::Boolean { emitted: false }
            } else {
                IterState::Empty
            }
        } else if structure.empty {
            IterState::Empty
        } else {
            IterState::Running {
                started: false,
                done: false,
            }
        };
        AnswerCursor {
            levels: Vec::with_capacity(structure.preorder.len()),
            cur_tuple: vec![0; structure.nodes.len()],
            scratch: Vec::with_capacity(structure.answer_sources.len()),
            state,
        }
    }

    /// Produces the next answer, or `None` once the enumeration is
    /// exhausted.  Constant work per call (in the size of the query):
    /// [`AnswerCursor::fill_with`] at `limit = 1`.
    pub fn next_answer(&mut self, structure: &FreeConnexStructure) -> Option<Vec<Value>> {
        let mut out = None;
        self.fill_with(structure, 1, |values| out = Some(values.to_vec()));
        out
    }

    /// Batched pull: produces up to `limit` answers, invoking `emit` once per
    /// answer with the answer values in a reused scratch buffer.  The state
    /// machine is entered once per batch and no per-answer `Vec<Value>` is
    /// allocated — the caller copies out of the scratch slice in whatever
    /// shape it needs.  Returns the number of answers emitted; a return
    /// `< limit` means the enumeration is exhausted.
    pub fn fill_with(
        &mut self,
        structure: &FreeConnexStructure,
        limit: usize,
        mut emit: impl FnMut(&[Value]),
    ) -> usize {
        if limit == 0 {
            return 0;
        }
        match self.state {
            IterState::Empty => 0,
            IterState::Boolean { emitted } => {
                if emitted {
                    0
                } else {
                    self.state = IterState::Boolean { emitted: true };
                    emit(&[]);
                    1
                }
            }
            IterState::Running { started, done } => {
                if done {
                    return 0;
                }
                let mut started = started;
                let mut produced = 0usize;
                // The scratch buffer is a cursor field, detached for the
                // duration of the batch so the traversal methods can borrow
                // `self` mutably while `emit` sees the materialised slice.
                let mut scratch = std::mem::take(&mut self.scratch);
                let mut exhausted = false;
                while produced < limit {
                    let stepped = if started {
                        self.advance(structure)
                    } else {
                        self.descend(structure, 0)
                    };
                    started = true;
                    if !stepped {
                        exhausted = true;
                        break;
                    }
                    scratch.clear();
                    scratch.extend(structure.answer_sources.iter().map(|&(node, col)| {
                        structure.nodes[node]
                            .extension
                            .value(self.cur_tuple[node], col)
                    }));
                    emit(&scratch);
                    produced += 1;
                }
                self.scratch = scratch;
                self.state = IterState::Running {
                    started: true,
                    done: exhausted,
                };
                produced
            }
        }
    }

    /// Computes the candidate source for the node at pre-order position
    /// `depth` under the current per-node tuple choices.
    #[inline]
    fn candidates_for(&self, structure: &FreeConnexStructure, depth: usize) -> (usize, Cands) {
        let node = structure.preorder[depth];
        let node_data = &structure.nodes[node];
        let cands = match (&node_data.parent_join, node_data.parent) {
            (Some(join), Some(parent)) => {
                let parent_tuple = self.cur_tuple[parent];
                let start = join.offsets[parent_tuple] as usize;
                let end = join.offsets[parent_tuple + 1] as usize;
                Cands::Csr {
                    start,
                    len: end - start,
                }
            }
            _ => Cands::All {
                len: node_data.extension.len(),
            },
        };
        (node, cands)
    }

    /// Records the tuple selected by the cursor of `level`.
    #[inline]
    fn bind(&mut self, structure: &FreeConnexStructure, level: usize) {
        let Level {
            node,
            ref cands,
            cursor,
        } = self.levels[level];
        let tuple_idx = match cands {
            Cands::All { .. } => cursor,
            Cands::Csr { start, .. } => {
                let join = structure.nodes[node]
                    .parent_join
                    .as_ref()
                    .expect("CSR candidates imply a parent join");
                join.tuples[start + cursor] as usize
            }
        };
        self.cur_tuple[node] = tuple_idx;
    }

    /// Descends from pre-order position `depth` to the last level, binding the
    /// first candidate at each level.  Returns `false` if some level has no
    /// candidate (which the progress condition rules out, but is handled
    /// defensively).
    fn descend(&mut self, structure: &FreeConnexStructure, mut depth: usize) -> bool {
        while depth < structure.preorder.len() {
            let (node, cands) = self.candidates_for(structure, depth);
            if cands.len() == 0 {
                return false;
            }
            self.levels.push(Level {
                node,
                cands,
                cursor: 0,
            });
            self.bind(structure, depth);
            depth += 1;
        }
        true
    }

    /// Advances to the next full assignment; returns `false` when exhausted.
    fn advance(&mut self, structure: &FreeConnexStructure) -> bool {
        loop {
            let Some(level) = self.levels.len().checked_sub(1) else {
                return false;
            };
            self.levels[level].cursor += 1;
            if self.levels[level].cursor < self.levels[level].cands.len() {
                self.bind(structure, level);
                if self.descend(structure, level + 1) {
                    return true;
                }
                // Defensive: treat a failed descent as exhaustion of this
                // candidate (should not happen when the progress condition
                // holds).
                continue;
            }
            self.levels.pop();
        }
    }
}

/// A constant-delay iterator over the answers of a preprocessed query.
///
/// Yields tuples over the query's answer positions (repeated answer variables
/// repeat their value).  Tuples contain labelled nulls iff the structure was
/// built without the `complete_only` relativisation.
pub struct AnswerIter<'a> {
    structure: &'a FreeConnexStructure,
    cursor: AnswerCursor,
}

impl<'a> AnswerIter<'a> {
    /// Creates an iterator over the answers described by `structure`.
    pub fn new(structure: &'a FreeConnexStructure) -> Self {
        AnswerIter {
            structure,
            cursor: AnswerCursor::new(structure),
        }
    }
}

impl Iterator for AnswerIter<'_> {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Self::Item> {
        self.cursor.next_answer(self.structure)
    }
}

impl std::iter::FusedIterator for AnswerIter<'_> {}

/// Convenience: collects all answers of a preprocessed structure.
pub fn collect_answers(structure: &FreeConnexStructure) -> Vec<Vec<Value>> {
    AnswerIter::new(structure).collect()
}

/// Candidate tuples of `node` under the bindings recorded in `cur_tuple`:
/// either every extension row, or the CSR slice of the node's parent join
/// keyed by the parent's current tuple.  The standalone twin of
/// [`AnswerCursor::candidates_for`], usable without cursor state.
enum NodeCands<'a> {
    All(usize),
    Csr {
        join: &'a JoinCsr,
        start: usize,
        len: usize,
    },
}

impl NodeCands<'_> {
    #[inline]
    fn len(&self) -> usize {
        match self {
            NodeCands::All(len) | NodeCands::Csr { len, .. } => *len,
        }
    }
}

#[inline]
fn node_cands<'a>(
    structure: &'a FreeConnexStructure,
    cur_tuple: &[usize],
    node: usize,
) -> NodeCands<'a> {
    let node_data = &structure.nodes[node];
    match (&node_data.parent_join, node_data.parent) {
        (Some(join), Some(parent)) => {
            let parent_tuple = cur_tuple[parent];
            let start = join.offsets[parent_tuple] as usize;
            let end = join.offsets[parent_tuple + 1] as usize;
            NodeCands::Csr {
                join,
                start,
                len: end - start,
            }
        }
        _ => NodeCands::All(node_data.extension.len()),
    }
}

/// Counts the answers of a preprocessed structure **without materialising a
/// single tuple** — the aggregate fast path behind
/// `PreparedInstance::count`.
///
/// The traversal walks the same pre-order candidate tree as
/// [`AnswerCursor`], but stops one level short: because every tuple at every
/// node extends to a full answer (the progress condition) and the full query
/// `q₁` makes assignments and answers correspond one-to-one, the number of
/// answers below a depth-`n-2` prefix is exactly the *fan-out* of the last
/// pre-order node.  That fan-out is a CSR range length, so the deepest level
/// collapses into folds over the offset arrays — `O(prefixes at depth n-2)`
/// work instead of `O(answers)`, with the leaf level never visited at all.
pub fn count_answers(structure: &FreeConnexStructure) -> u64 {
    if let Some(satisfiable) = structure.boolean_satisfiable {
        return u64::from(satisfiable);
    }
    if structure.empty {
        return 0;
    }
    let n = structure.preorder.len();
    if n == 1 {
        return structure.nodes[structure.preorder[0]].extension.len() as u64;
    }
    let mut cur_tuple = vec![0usize; structure.nodes.len()];
    count_prefixes(structure, &mut cur_tuple, 0)
}

/// Counts the answers extending the bindings of `cur_tuple` for the nodes at
/// pre-order positions `0..depth`.  Only called with `depth <= n - 2`.
fn count_prefixes(structure: &FreeConnexStructure, cur_tuple: &mut [usize], depth: usize) -> u64 {
    let n = structure.preorder.len();
    let node = structure.preorder[depth];
    if depth == n - 2 {
        let leaf = structure.preorder[n - 1];
        let leaf_data = &structure.nodes[leaf];
        // Does the leaf's candidate slice depend on *this* node's choice?
        let leaf_keyed_here = leaf_data.parent == Some(node) && leaf_data.parent_join.is_some();
        let cands = node_cands(structure, cur_tuple, node);
        if leaf_keyed_here {
            let leaf_join = leaf_data
                .parent_join
                .as_ref()
                .expect("leaf_keyed_here implies a parent join");
            match cands {
                // Dense: fan-outs over all rows telescope in O(1).
                NodeCands::All(len) => u64::from(leaf_join.offsets[len] - leaf_join.offsets[0]),
                // Sparse: sum the fan-outs of the candidate tuple ids.
                NodeCands::Csr { join, start, len } => {
                    let offsets = &leaf_join.offsets;
                    join.tuples[start..start + len]
                        .iter()
                        .map(|&k| u64::from(offsets[k as usize + 1] - offsets[k as usize]))
                        .sum()
                }
            }
        } else {
            // The leaf's candidates are keyed by an ancestor bound at a
            // shallower depth (or by nothing): its count is one constant
            // factor for every candidate of this node.
            let here = cands.len() as u64;
            here * node_cands(structure, cur_tuple, leaf).len() as u64
        }
    } else {
        let mut total = 0u64;
        match node_cands(structure, cur_tuple, node) {
            NodeCands::All(len) => {
                for t in 0..len {
                    cur_tuple[node] = t;
                    total += count_prefixes(structure, cur_tuple, depth + 1);
                }
            }
            NodeCands::Csr { join, start, len } => {
                for i in 0..len {
                    cur_tuple[node] = join.tuples[start + i] as usize;
                    total += count_prefixes(structure, cur_tuple, depth + 1);
                }
            }
        }
        total
    }
}

/// Emptiness probe: `true` iff the structure has at least one answer.
/// Constant work — one cursor descent, no materialisation beyond the first
/// tuple's indices.
pub fn has_answer(structure: &FreeConnexStructure) -> bool {
    AnswerCursor::new(structure).fill_with(structure, 1, |_| {}) == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::FreeConnexStructure;
    use omq_cq::{homomorphism, ConjunctiveQuery};
    use omq_data::{Database, Schema};
    use rustc_hash::FxHashSet;

    fn db() -> Database {
        let mut s = Schema::new();
        s.add_relation("R", 2).unwrap();
        s.add_relation("S", 2).unwrap();
        s.add_relation("T", 1).unwrap();
        Database::builder(s)
            .fact("R", ["a", "b"])
            .fact("R", ["a", "c"])
            .fact("R", ["d", "b"])
            .fact("S", ["b", "u"])
            .fact("S", ["b", "v"])
            .fact("S", ["c", "w"])
            .fact("T", ["a"])
            .fact("T", ["d"])
            .build()
            .unwrap()
    }

    fn check_against_brute_force(query_text: &str, database: &Database) {
        let q = ConjunctiveQuery::parse(query_text).unwrap();
        let structure = FreeConnexStructure::build(&q, database, false).unwrap();
        let mut fast: Vec<Vec<Value>> = collect_answers(&structure);
        let mut brute = homomorphism::evaluate(&q, database);
        fast.sort();
        brute.sort();
        assert_eq!(fast, brute, "query {query_text}");
        // No duplicates.
        let set: FxHashSet<Vec<Value>> = fast.iter().cloned().collect();
        assert_eq!(set.len(), fast.len());
    }

    #[test]
    fn matches_brute_force_on_various_queries() {
        let database = db();
        for text in [
            "q(x, y) :- R(x, y)",
            "q(x, y, z) :- R(x, y), S(y, z)",
            "q(x) :- R(x, y), T(x)",
            "q(x, y, z) :- R(x, y), S(y, z), T(x)",
            "q(x, y, u, v) :- R(x, y), S(u, v)",
            "q(x, x, y) :- R(x, y)",
            "q(y) :- R('a', y)",
        ] {
            check_against_brute_force(text, &database);
        }
    }

    #[test]
    fn boolean_queries_emit_empty_tuple() {
        let database = db();
        let q = ConjunctiveQuery::parse("q() :- R(x, y), S(y, z)").unwrap();
        let s = FreeConnexStructure::build(&q, &database, true).unwrap();
        let answers = collect_answers(&s);
        assert_eq!(answers, vec![Vec::new()]);

        let q2 = ConjunctiveQuery::parse("q() :- S(x, y), T(y)").unwrap();
        let s2 = FreeConnexStructure::build(&q2, &database, true).unwrap();
        assert!(collect_answers(&s2).is_empty());
    }

    #[test]
    fn empty_structure_yields_nothing() {
        let database = db();
        let q = ConjunctiveQuery::parse("q(x) :- Missing(x)").unwrap();
        let s = FreeConnexStructure::build(&q, &database, true).unwrap();
        assert!(collect_answers(&s).is_empty());
    }

    #[test]
    fn iterator_is_restartable_from_structure() {
        let database = db();
        let q = ConjunctiveQuery::parse("q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let s = FreeConnexStructure::build(&q, &database, true).unwrap();
        let first: Vec<_> = AnswerIter::new(&s).collect();
        let second: Vec<_> = AnswerIter::new(&s).collect();
        assert_eq!(first, second);
        // (a,b,u), (a,b,v), (a,c,w), (d,b,u), (d,b,v)
        assert_eq!(first.len(), 5);
    }

    #[test]
    fn cursor_is_pausable_and_resumable() {
        let database = db();
        let q = ConjunctiveQuery::parse("q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let s = FreeConnexStructure::build(&q, &database, true).unwrap();
        let all: Vec<_> = AnswerIter::new(&s).collect();
        // Drive the raw cursor by hand with pauses in between: the answer
        // sequence must be identical to the uninterrupted iteration.
        let mut cursor = AnswerCursor::new(&s);
        let mut resumed = Vec::new();
        while let Some(answer) = cursor.next_answer(&s) {
            resumed.push(answer);
            // A paused cursor is just a value; cloning it forks the
            // enumeration state.
            let mut fork = cursor.clone();
            if let Some(peek) = fork.next_answer(&s) {
                assert_eq!(peek, all[resumed.len()]);
            }
        }
        assert_eq!(resumed, all);
        // Stepping an exhausted cursor keeps returning `None` (fused).
        assert!(cursor.next_answer(&s).is_none());
    }

    #[test]
    fn answer_count_on_cross_product_query() {
        let database = db();
        // Disconnected: 3 R-facts × 3 S-facts = 9 answers.
        let q = ConjunctiveQuery::parse("q(x, y, u, v) :- R(x, y), S(u, v)").unwrap();
        let s = FreeConnexStructure::build(&q, &database, true).unwrap();
        assert_eq!(collect_answers(&s).len(), 9);
    }

    #[test]
    fn counting_walk_agrees_with_enumeration() {
        let database = db();
        for text in [
            "q(x, y) :- R(x, y)",
            "q(x, y, z) :- R(x, y), S(y, z)",
            "q(x) :- R(x, y), T(x)",
            "q(x, y, z) :- R(x, y), S(y, z), T(x)",
            "q(x, y, u, v) :- R(x, y), S(u, v)",
            "q(x, x, y) :- R(x, y)",
            "q(y) :- R('a', y)",
            "q(x, y, z, w) :- R(x, y), S(y, z), S(y, w)",
        ] {
            let q = ConjunctiveQuery::parse(text).unwrap();
            for complete_only in [false, true] {
                let s = FreeConnexStructure::build(&q, &database, complete_only).unwrap();
                let drained = collect_answers(&s).len() as u64;
                assert_eq!(count_answers(&s), drained, "query {text}");
                assert_eq!(has_answer(&s), drained > 0, "query {text}");
            }
        }
    }

    #[test]
    fn counting_walk_handles_boolean_and_empty() {
        let database = db();
        let sat = ConjunctiveQuery::parse("q() :- R(x, y), S(y, z)").unwrap();
        let s = FreeConnexStructure::build(&sat, &database, true).unwrap();
        assert_eq!(count_answers(&s), 1);
        assert!(has_answer(&s));

        let unsat = ConjunctiveQuery::parse("q() :- S(x, y), T(y)").unwrap();
        let s = FreeConnexStructure::build(&unsat, &database, true).unwrap();
        assert_eq!(count_answers(&s), 0);
        assert!(!has_answer(&s));

        let missing = ConjunctiveQuery::parse("q(x) :- Missing(x)").unwrap();
        let s = FreeConnexStructure::build(&missing, &database, true).unwrap();
        assert_eq!(count_answers(&s), 0);
        assert!(!has_answer(&s));
    }
}
