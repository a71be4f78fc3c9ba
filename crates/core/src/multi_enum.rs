//! Algorithm 2: enumeration of minimal partial answers with multi-wildcards
//! (Theorem 6.1 of the paper), plus the "complete answers first" ordering of
//! Proposition 2.1.
//!
//! The algorithm combines the Algorithm 1 enumerator (minimal partial answers
//! with a *single* wildcard) with a tester for (not necessarily minimal)
//! partial answers with multi-wildcards.  For every single-wildcard answer
//! `ā*` it inspects the constant-size *cone* of `ā*` (all multi-wildcard
//! refinements of all weakenings of `ā*`), collects the refinements that are
//! partial answers into a list `L`, prunes dominated tuples, outputs one
//! minimal element of the *ball* of `ā*` right away, and flushes the remainder
//! of `L` at the end (Lemma 6.3 shows this outputs exactly the minimal partial
//! answers with multi-wildcards, without repetition).
//!
//! [`MultiEnumerator`] runs the algorithm as a **pull-based cursor**: the
//! single-wildcard answers are drawn lazily from the Algorithm 1 cursor, each
//! drawn answer contributes at most one immediate output (the ball step), and
//! the `L` flush is itself iterated lazily — so `take(k)` performs `O(k)`
//! enumeration work and dropping the cursor mid-stream abandons the rest.
//!
//! # What one step costs
//!
//! The delay is constant in the RAM-model sense of Lemma 6.3, with these
//! three ingredients:
//!
//! * **Templates, once per plan.**  The cone, the ball and the set of tuples
//!   a new list member dominates depend on the query and on the star mask /
//!   shape of the tuple only; they are compiled into label templates on the
//!   plan (`multi_templates`) and applied to `ā*`'s constants — no set
//!   partition is enumerated per answer.
//! * **One interned candidate table.**  The tables `F` and `L` and the tester
//!   memo are one hash map from candidate to a dense id plus a flat slot
//!   vector.  A candidate is written into a reused scratch tuple, probed by
//!   reference and cloned only the first time it is seen.  The map is never
//!   iterated, so the output order is a function of the input alone.
//! * **A tester that runs only where the verdict is open.**  Partial answers
//!   are closed under weakening, so every cone member whose wildcards are
//!   pairwise distinct — `ā*` itself and each plain weakening of it — is a
//!   partial answer because `ā*` is one, and is never tested.  This needs the
//!   answer variables to be pairwise distinct: with a repeated variable
//!   [`single_testing::test_partial_multi`] deliberately rejects a constant
//!   and a wildcard on the same variable, so there every open verdict goes
//!   to that reference instead.  The candidates that are left — those
//!   merging wildcards, a few per distinct constant — go through a
//!   homomorphism search compiled once per cursor (resolved relations and
//!   constants, a dense assignment), which identifies the merged variables
//!   by indirection instead of cloning the query per candidate; each
//!   verdict is memoised in the candidate's slot.  Debug builds compare
//!   every verdict with the reference.
//!
//! [`MultiStats`] counts steps, probes, tester calls and interned candidates;
//! the constant-work test below holds the per-step counts flat as the data
//! grows.

use crate::enumerate::AnswerIter;
use crate::error::CoreError;
use crate::multi_templates::{apply_row, MultiTemplates};
use crate::partial_enum::PartialEnumerator;
use crate::preprocess::{FreeConnexStructure, PlanSkeleton};
use crate::shard::Shard;
use crate::single_testing;
use crate::Result;
use omq_cq::{ConjunctiveQuery, Term};
use omq_data::{Database, MultiTuple, MultiValue, PartialTuple, PartialValue, RelId, Value};
use rustc_hash::FxHashMap;
use std::sync::Arc;

pub use crate::multi_templates::MAX_MULTI_WILDCARD_ARITY;

/// Refuses a query too wide for Algorithm 2 — before any template, merge
/// pattern or enumeration structure is built for it.
pub(crate) fn check_multi_arity(arity: usize) -> Result<()> {
    if arity > MAX_MULTI_WILDCARD_ARITY {
        return Err(CoreError::MultiWildcardArityTooLarge {
            arity,
            max: MAX_MULTI_WILDCARD_ARITY,
        });
    }
    Ok(())
}

/// How the cursor reaches the chased database it tests candidates against:
/// either a caller-provided borrow, or a shared shard (which makes the
/// cursor `'static` and lets it outlive the `PreparedInstance` it came from).
#[derive(Debug)]
enum DbRef<'a> {
    Borrowed(&'a Database),
    Shard(Arc<Shard>),
}

impl DbRef<'_> {
    fn get(&self) -> &Database {
        match self {
            DbRef::Borrowed(db) => db,
            DbRef::Shard(shard) => shard,
        }
    }
}

/// Work counters of a [`MultiEnumerator`], always on (four integer adds per
/// step).  Per step, `probes` is bounded by the cone size of the answer's
/// star mask plus the dominated sets of the candidates it adds — a function
/// of the query alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiStats {
    /// Single-wildcard answers `ā*` processed.
    pub steps: u64,
    /// Lookups into the candidate table (cone members and dominated tuples).
    pub probes: u64,
    /// Homomorphism searches run; every other verdict was memoised or
    /// followed from `ā*` being an answer.
    pub tester_calls: u64,
    /// Distinct candidates interned.
    pub interned: u64,
}

/// `Slot::l_pos` of a candidate that was never appended to `L`.
const NOT_LISTED: u32 = u32::MAX;

/// What the cursor knows about one interned candidate.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Position in `L`, or [`NOT_LISTED`].
    l_pos: u32,
    /// Member of the lookup table `F`: appended to `L` at some point, or
    /// ruled out as dominated.
    in_f: bool,
    /// The memoised tester verdict.
    verdict: Option<bool>,
}

/// The tables `F` and `L` of Algorithm 2 and the tester memo, over interned
/// candidates.
#[derive(Debug, Default)]
struct CandidateTable {
    /// Candidate → dense id.  Probe-only: never iterated.
    ids: FxHashMap<MultiTuple, u32>,
    /// Indexed by id.
    slots: Vec<Slot>,
    /// The list `L` in insertion order; `None` once pruned or output.
    l_order: Vec<Option<MultiTuple>>,
}

impl CandidateTable {
    fn intern(&mut self, candidate: &MultiTuple, stats: &mut MultiStats) -> usize {
        stats.probes += 1;
        if let Some(&id) = self.ids.get(candidate) {
            return id as usize;
        }
        let id = u32::try_from(self.slots.len()).expect("fewer than 2^32 candidates fit in memory");
        self.ids.insert(candidate.clone(), id);
        self.slots.push(Slot {
            l_pos: NOT_LISTED,
            in_f: false,
            verdict: None,
        });
        stats.interned += 1;
        id as usize
    }

    /// Drops the candidate from `L` if it is (still) listed.
    fn unlist(&mut self, id: usize) {
        if let Some(listed) = self.l_order.get_mut(self.slots[id].l_pos as usize) {
            *listed = None;
        }
    }
}

/// One query atom with its relation and constants resolved against the
/// cursor's database.
#[derive(Debug)]
struct TesterAtom {
    rel: RelId,
    terms: Vec<TesterTerm>,
}

#[derive(Debug, Clone, Copy)]
enum TesterTerm {
    /// A variable, by its dense `VarId` index.
    Var(usize),
    Const(Value),
}

/// The partial-answer tester for candidates of a query whose answer
/// variables are pairwise distinct: a backtracking homomorphism search
/// compiled once per cursor.  Decides exactly what
/// [`single_testing::test_partial_multi`] decides, without building the
/// identified query `q̂` per candidate: the variables of a wildcard group
/// share one assignment cell through `repr`.
#[derive(Debug)]
struct Tester {
    atoms: Vec<TesterAtom>,
    /// Some atom names a relation or a constant the database does not have:
    /// no homomorphism exists.
    unsatisfiable: bool,
    /// The answer variable of every answer position.
    answer_vars: Vec<usize>,
    state: SearchState,
}

/// The per-call state of [`Tester`], reused across calls.
#[derive(Debug)]
struct SearchState {
    /// Per variable, the variable whose assignment cell it uses.
    repr: Vec<usize>,
    assignment: Vec<Option<Value>>,
    /// Per atom: already matched on the current search path.
    matched: Vec<bool>,
    /// Cells bound on the current search path, for undo.
    trail: Vec<usize>,
}

impl Tester {
    fn compile(query: &ConjunctiveQuery, db: &Database) -> Tester {
        let mut unsatisfiable = false;
        let mut atoms = Vec::with_capacity(query.atoms().len());
        for atom in query.atoms() {
            let Some(rel) = db.schema().relation_id(&atom.relation) else {
                unsatisfiable = true;
                break;
            };
            let terms = atom
                .terms
                .iter()
                .map(|term| match term {
                    Term::Var(v) => Some(TesterTerm::Var(v.0 as usize)),
                    Term::Const(name) => db
                        .const_id(name)
                        .map(|c| TesterTerm::Const(Value::Const(c))),
                })
                .collect::<Option<Vec<_>>>();
            match terms {
                Some(terms) => atoms.push(TesterAtom { rel, terms }),
                None => {
                    unsatisfiable = true;
                    break;
                }
            }
        }
        let vars = query.var_count();
        Tester {
            state: SearchState {
                repr: vec![0; vars],
                assignment: vec![None; vars],
                matched: vec![false; atoms.len()],
                trail: Vec::new(),
            },
            atoms,
            unsatisfiable,
            answer_vars: query.answer_vars().iter().map(|v| v.0 as usize).collect(),
        }
    }

    /// Is `candidate` a partial answer: does some homomorphism send the
    /// constant positions to their constants and all positions of one
    /// wildcard to one value?
    fn exists(&mut self, db: &Database, candidate: &MultiTuple) -> bool {
        if self.unsatisfiable {
            return false;
        }
        let state = &mut self.state;
        for (var, repr) in state.repr.iter_mut().enumerate() {
            *repr = var;
        }
        state.assignment.fill(None);
        state.matched.fill(false);
        state.trail.clear();
        // First variable of every wildcard group (labels are 1-based).
        let mut group = [usize::MAX; MAX_MULTI_WILDCARD_ARITY + 1];
        for (&var, value) in self.answer_vars.iter().zip(&candidate.0) {
            match value {
                MultiValue::Const(c) => state.assignment[var] = Some(Value::Const(*c)),
                MultiValue::Wild(k) => {
                    let first = &mut group[*k as usize];
                    if *first == usize::MAX {
                        *first = var;
                    }
                    state.repr[var] = *first;
                }
            }
        }
        search(&self.atoms, state, db, self.atoms.len())
    }
}

/// Extends the current assignment to the `left` unmatched atoms, most
/// constrained atom first.
fn search(atoms: &[TesterAtom], state: &mut SearchState, db: &Database, left: usize) -> bool {
    if left == 0 {
        return true;
    }
    let bound = |state: &SearchState, term: &TesterTerm| match *term {
        TesterTerm::Const(value) => Some(value),
        TesterTerm::Var(var) => state.assignment[state.repr[var]],
    };
    let (pick, atom) = atoms
        .iter()
        .enumerate()
        .filter(|(i, _)| !state.matched[*i])
        .max_by_key(|(_, atom)| {
            atom.terms
                .iter()
                .filter(|term| bound(state, term).is_some())
                .count()
        })
        .expect("an unmatched atom is left");
    // The shortest index list over a bound position, or the whole relation.
    let mut facts = db.facts_of(atom.rel);
    for (pos, term) in atom.terms.iter().enumerate() {
        if let Some(value) = bound(state, term) {
            let with = db.facts_with(atom.rel, pos, value);
            if with.len() < facts.len() {
                facts = with;
            }
        }
    }
    state.matched[pick] = true;
    for &fact in facts {
        let mark = state.trail.len();
        let fits = atom
            .terms
            .iter()
            .zip(&db.fact(fact).args)
            .all(|(term, &actual)| match *term {
                TesterTerm::Const(value) => value == actual,
                TesterTerm::Var(var) => {
                    let cell = state.repr[var];
                    match state.assignment[cell] {
                        Some(value) => value == actual,
                        None => {
                            state.assignment[cell] = Some(actual);
                            state.trail.push(cell);
                            true
                        }
                    }
                }
            });
        if fits && search(atoms, state, db, left - 1) {
            return true;
        }
        for cell in state.trail.drain(mark..) {
            state.assignment[cell] = None;
        }
    }
    state.matched[pick] = false;
    false
}

/// The per-answer step of Algorithm 2: everything of the cursor except the
/// Algorithm 1 enumerator feeding it.
#[derive(Debug)]
struct ConeStep {
    templates: Arc<MultiTemplates>,
    table: CandidateTable,
    /// `None` when an answer variable is repeated: every open verdict then
    /// goes to the reference tester.
    tester: Option<Tester>,
    stats: MultiStats,
    /// `ā*` as multi-values (stars as a placeholder no template keeps).
    base: Vec<MultiValue>,
    /// The cone member being probed; after a step, the step's output.
    probe: MultiTuple,
    /// The dominated tuple being marked.
    dominated: MultiTuple,
    /// The ball members that are partial answers: (cone index, id).
    ball: Vec<(usize, usize)>,
    /// Pooled tuples for choosing among several of them.
    ball_tuples: Vec<MultiTuple>,
}

impl ConeStep {
    fn new(skeleton: &PlanSkeleton, db: &Database) -> ConeStep {
        let templates = Arc::clone(skeleton.multi_templates());
        let tester = templates
            .distinct_answer_vars
            .then(|| Tester::compile(&templates.query, db));
        ConeStep {
            templates,
            table: CandidateTable::default(),
            tester,
            stats: MultiStats::default(),
            base: Vec::new(),
            probe: MultiTuple(Vec::new()),
            dominated: MultiTuple(Vec::new()),
            ball: Vec::new(),
            ball_tuples: Vec::new(),
        }
    }

    /// Processes one single-wildcard answer: cone maintenance of `L`/`F`,
    /// then the ball step.  Returns whether the ball held a partial answer;
    /// if so the chosen minimal one — the immediate output for this answer —
    /// is left in `self.probe`.
    fn step(&mut self, db: &Database, a_star: &[PartialValue]) -> Result<bool> {
        let ConeStep {
            templates,
            table,
            tester,
            stats,
            base,
            probe,
            dominated,
            ball,
            ball_tuples,
        } = self;
        stats.steps += 1;
        let mut mask = 0usize;
        base.clear();
        base.extend(a_star.iter().enumerate().map(|(i, value)| match value {
            PartialValue::Const(c) => MultiValue::Const(*c),
            PartialValue::Star => {
                mask |= 1 << i;
                MultiValue::Wild(0)
            }
        }));
        let cone = templates.cone(mask);
        ball.clear();
        for (idx, entry) in cone.iter().enumerate() {
            apply_row(&entry.row, base, probe);
            let id = table.intern(probe, stats);
            let slot = table.slots[id];
            // A ball member's verdict is needed even when F already holds it.
            if slot.in_f && !entry.in_ball {
                continue;
            }
            let verdict = match slot.verdict {
                Some(verdict) => verdict,
                None => {
                    let reference =
                        || single_testing::test_partial_multi(&templates.query, db, probe);
                    let verdict = match tester {
                        Some(tester) => {
                            let fast = entry.free || {
                                stats.tester_calls += 1;
                                tester.exists(db, probe)
                            };
                            debug_assert_eq!(Ok(fast), reference(), "verdict on {probe}");
                            fast
                        }
                        None => {
                            stats.tester_calls += 1;
                            reference()?
                        }
                    };
                    table.slots[id].verdict = Some(verdict);
                    verdict
                }
            };
            if entry.in_ball && verdict {
                ball.push((idx, id));
            }
            if slot.in_f || !verdict {
                continue;
            }
            // A partial answer not seen before: append it to L ...
            table.slots[id].in_f = true;
            table.slots[id].l_pos =
                u32::try_from(table.l_order.len()).expect("fewer than 2^32 candidates");
            table.l_order.push(Some(probe.clone()));
            // ... and prune: every tuple it strictly dominates can never be
            // a minimal answer; mark it in F and drop it from L.
            for row in templates.above(probe).iter() {
                apply_row(row, &probe.0, dominated);
                let id = table.intern(dominated, stats);
                table.slots[id].in_f = true;
                table.unlist(id);
            }
        }
        // Output one minimal element of the ball of ā* right away: the first
        // in ball order that no other partial answer of the ball improves on.
        let (idx, id) = match ball.as_slice() {
            [] => return Ok(false),
            [only] => *only,
            several => {
                if ball_tuples.len() < several.len() {
                    ball_tuples.resize_with(several.len(), || MultiTuple(Vec::new()));
                }
                let tuples = &mut ball_tuples[..several.len()];
                for (&(idx, _), tuple) in several.iter().zip(tuples.iter_mut()) {
                    apply_row(&cone[idx].row, base, tuple);
                }
                let first_minimal = tuples
                    .iter()
                    .position(|t| !tuples.iter().any(|other| other.preferred_lt(t)))
                    .expect("a finite non-empty set has a minimal element");
                several[first_minimal]
            }
        };
        table.unlist(id);
        apply_row(&cone[idx].row, base, probe);
        Ok(true)
    }
}

/// The Algorithm 2 enumerator — a lazy cursor over the minimal partial
/// answers with multi-wildcards.  See the [module docs](self) for what a step
/// costs.
///
/// The cursor draws its single-wildcard answers from a [`PartialEnumerator`]
/// and owns, besides it, the candidate table and the compiled tester
/// (query-sized).  Every constructor prepares Algorithm 1 and opens in one
/// call — for now also the one behind an `AnswerStream` or a count over a
/// shard.  Opening those over the prepared half the shard keeps is
/// `PartialEnumerator::open(shard.prepared_partial(..))` in place of
/// `PartialEnumerator::with_skeleton` and nothing else, but it has to wait
/// for the benchmark to be able to measure it (CHANGES.md, PR 22).
///
/// The only fallible step after construction is the candidate tester; a
/// tester error ends the stream and is reported by
/// [`MultiEnumerator::error`].
#[derive(Debug)]
pub struct MultiEnumerator<'a> {
    /// The Algorithm 1 cursor supplying the single-wildcard answers.
    single: PartialEnumerator,
    db: DbRef<'a>,
    cone: ConeStep,
    /// `None` while single-wildcard answers are still being consumed;
    /// `Some(i)` once the cursor is flushing `L[i..]`.
    flush_pos: Option<usize>,
    error: Option<CoreError>,
}

impl<'a> MultiEnumerator<'a> {
    /// Preprocesses `query` over the chased instance `d0` and opens a cursor
    /// over the result.
    ///
    /// Requires the query to be acyclic and free-connex acyclic, and of arity
    /// at most [`MAX_MULTI_WILDCARD_ARITY`].
    pub fn new(query: &ConjunctiveQuery, d0: &'a Database) -> Result<Self> {
        let skeleton = PlanSkeleton::compile(query)?;
        Self::with_skeleton(&skeleton, d0)
    }

    /// Preprocesses a compiled skeleton over the chased instance `d0` and
    /// opens a cursor over the result.
    pub fn with_skeleton(skeleton: &PlanSkeleton, d0: &'a Database) -> Result<Self> {
        Self::open(skeleton, DbRef::Borrowed(d0))
    }

    /// Builds a `'static` cursor over a shard (used by the owning
    /// `AnswerStream`), preparing Algorithm 1 afresh — see the type's docs.
    pub(crate) fn for_shard(
        skeleton: &PlanSkeleton,
        shard: &Arc<Shard>,
    ) -> Result<MultiEnumerator<'static>> {
        MultiEnumerator::open(skeleton, DbRef::Shard(Arc::clone(shard)))
    }

    fn open(skeleton: &PlanSkeleton, db: DbRef<'a>) -> Result<MultiEnumerator<'a>> {
        check_multi_arity(skeleton.answer_positions.len())?;
        Ok(MultiEnumerator {
            single: PartialEnumerator::with_skeleton(skeleton, db.get())?,
            cone: ConeStep::new(skeleton, db.get()),
            db,
            flush_pos: None,
            error: None,
        })
    }

    /// The error that ended the stream early, if any.  Check after the
    /// iterator returns `None` when exactness matters.
    pub fn error(&self) -> Option<&CoreError> {
        self.error.as_ref()
    }

    /// The work done so far, in counts.
    pub fn stats(&self) -> MultiStats {
        self.cone.stats
    }

    /// Batched pull of owned answers: produces up to `limit` answers,
    /// invoking `emit` for each.  Returns the number produced; fewer than
    /// `limit` means the stream ended (exhausted or failed — check
    /// [`MultiEnumerator::error`]).
    pub fn fill_with(&mut self, limit: usize, mut emit: impl FnMut(MultiTuple)) -> usize {
        self.pull(limit, |t| {
            emit(std::mem::replace(t, MultiTuple(Vec::new())))
        })
    }

    /// [`MultiEnumerator::fill_with`] handing out the answers where they
    /// already are — the step's scratch tuple, the list `L` — so a consumer
    /// that only looks (counting, merge probing) allocates nothing per
    /// answer.
    pub(crate) fn fill_ref(&mut self, limit: usize, mut emit: impl FnMut(&MultiTuple)) -> usize {
        self.pull(limit, |t| emit(t))
    }

    /// The enumerator's one state machine.  `emit` may take the tuple it is
    /// shown (leaving anything behind): the cursor never reads it again.
    fn pull(&mut self, limit: usize, mut emit: impl FnMut(&mut MultiTuple)) -> usize {
        if limit == 0 || self.error.is_some() {
            return 0;
        }
        let MultiEnumerator {
            single,
            db,
            cone,
            flush_pos,
            error,
        } = self;
        let db = db.get();
        let mut produced = 0usize;
        while flush_pos.is_none() {
            // Every ā* yields at most one immediate output, so pulling what
            // is still wanted cannot overshoot `limit` — and never draws an
            // ā* whose step (with its side effects on L/F) the emitted
            // prefix does not need.
            let want = limit - produced;
            if want == 0 {
                return produced;
            }
            let drawn = single.fill_values(want, |a_star| {
                if error.is_some() {
                    return;
                }
                match cone.step(db, a_star) {
                    Ok(true) => {
                        emit(&mut cone.probe);
                        produced += 1;
                    }
                    Ok(false) => {}
                    Err(e) => *error = Some(e),
                }
            });
            if error.is_some() {
                return produced;
            }
            if drawn < want {
                // Single-wildcard answers exhausted: flush the rest of L.
                *flush_pos = Some(0);
            }
        }
        let pos = flush_pos.as_mut().expect("set when the loop above ends");
        let l_order = &mut cone.table.l_order;
        while *pos < l_order.len() && produced < limit {
            if let Some(t) = l_order[*pos].as_mut() {
                emit(t);
                produced += 1;
            }
            *pos += 1;
        }
        produced
    }
}

impl Iterator for MultiEnumerator<'_> {
    type Item = MultiTuple;

    /// [`MultiEnumerator::fill_with`] at `limit = 1`.
    fn next(&mut self) -> Option<Self::Item> {
        let mut out = None;
        self.fill_with(1, |t| out = Some(t));
        out
    }
}

impl std::iter::FusedIterator for MultiEnumerator<'_> {}

/// Enumerates the minimal partial answers with multi-wildcards of `query`
/// over the chased instance `d0`, invoking `output` exactly once per answer.
pub fn enumerate_minimal_partial_multi(
    query: &ConjunctiveQuery,
    d0: &Database,
    output: impl FnMut(MultiTuple),
) -> Result<()> {
    let skeleton = PlanSkeleton::compile(query)?;
    enumerate_minimal_partial_multi_prepared(&skeleton, d0, output)
}

/// [`enumerate_minimal_partial_multi`] over a precompiled skeleton, reusing
/// the query-side artefacts across databases.  Thin loop over
/// [`MultiEnumerator`].
pub fn enumerate_minimal_partial_multi_prepared(
    skeleton: &PlanSkeleton,
    d0: &Database,
    mut output: impl FnMut(MultiTuple),
) -> Result<()> {
    let mut cursor = MultiEnumerator::with_skeleton(skeleton, d0)?;
    for t in &mut cursor {
        output(t);
    }
    match cursor.error() {
        Some(e) => Err(e.clone()),
        None => Ok(()),
    }
}

/// Convenience: collects the minimal partial answers with multi-wildcards.
pub fn minimal_partial_multi_answers(
    query: &ConjunctiveQuery,
    d0: &Database,
) -> Result<Vec<MultiTuple>> {
    let mut out = Vec::new();
    enumerate_minimal_partial_multi(query, d0, |t| out.push(t))?;
    Ok(out)
}

/// Proposition 2.1: enumerate minimal partial answers (single wildcard) with
/// all complete answers first.
///
/// Runs the complete-answer enumerator and the Algorithm 1 enumerator "in
/// parallel": while complete answers remain, each step outputs one of them and
/// stores any wildcard answer produced by Algorithm 1; afterwards, wildcard
/// answers are output directly and stored answers replace the complete ones
/// Algorithm 1 re-discovers.
pub fn minimal_partial_answers_complete_first(
    query: &ConjunctiveQuery,
    d0: &Database,
) -> Result<Vec<PartialTuple>> {
    Ok(complete_first(
        &FreeConnexStructure::build(query, d0, true)?,
        PartialEnumerator::new(query, d0)?,
    ))
}

/// [`minimal_partial_answers_complete_first`] over structures the caller
/// already has: the join structure for complete answers and an Algorithm 1
/// cursor, both over the same chased instance.
pub(crate) fn complete_first(
    complete_structure: &FreeConnexStructure,
    partial: PartialEnumerator,
) -> Vec<PartialTuple> {
    let mut complete_iter = AnswerIter::new(complete_structure);
    let mut output: Vec<PartialTuple> = Vec::new();
    let mut stored: Vec<PartialTuple> = Vec::new();
    let mut complete_done = false;
    for answer in partial {
        if !complete_done {
            match complete_iter.next() {
                Some(complete) => {
                    output.push(PartialTuple::from_answer(&complete));
                    if !answer.is_complete() {
                        stored.push(answer);
                    }
                    continue;
                }
                None => complete_done = true,
            }
        }
        if answer.is_complete() {
            // Replace by a stored wildcard answer (there is one for every
            // complete answer re-discovered after the switch).
            if let Some(replacement) = stored.pop() {
                output.push(replacement);
            } else {
                output.push(answer);
            }
        } else {
            output.push(answer);
        }
    }
    // Any remaining stored answers (when Algorithm 1 finished before the
    // complete enumerator did not happen — defensively flush).
    output.extend(stored);
    output
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::multi_templates::strictly_above;
    use crate::plan::{PreparedInstance, QueryPlan};
    use omq_chase::{Ontology, OntologyMediatedQuery};
    use omq_data::wildcard::{multi_wildcard_ball, multi_wildcard_cone};
    use omq_data::{ConstId, Fact, NullId, Schema, Semantics};
    use rustc_hash::FxHashSet;
    use std::collections::{BTreeMap, BTreeSet};
    use std::time::{Duration, Instant};

    fn mt(spec: &[(bool, u32)]) -> MultiTuple {
        MultiTuple(
            spec.iter()
                .map(|(is_const, i)| {
                    if *is_const {
                        MultiValue::Const(ConstId(*i))
                    } else {
                        MultiValue::Wild(*i)
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn strictly_above_generates_the_order() {
        // (a, *1) is below (*1, *2); it is not below (*1, *1) because the
        // latter identifies the two positions while (a, *1) does not.
        let t = mt(&[(true, 0), (false, 1)]);
        let above = strictly_above(&t);
        assert!(above.contains(&mt(&[(false, 1), (false, 2)])));
        assert!(!above.contains(&mt(&[(false, 1), (false, 1)])));
        assert!(!above.contains(&t));
        for candidate in &above {
            assert!(t.preferred_lt(candidate));
        }
        // (a, b): above it are (*1,b), (a,*1), (*1,*2), (*1,*1)... but (*1,*1)
        // requires equal underlying values (condition 2), which fails for a≠b.
        let ab = mt(&[(true, 0), (true, 1)]);
        let above = strictly_above(&ab);
        assert!(above.contains(&mt(&[(false, 1), (true, 1)])));
        assert!(above.contains(&mt(&[(true, 0), (false, 1)])));
        assert!(above.contains(&mt(&[(false, 1), (false, 2)])));
        assert!(!above.contains(&mt(&[(false, 1), (false, 1)])));
    }

    fn check_against_oracle(query_text: &str, db: &Database) {
        let q = ConjunctiveQuery::parse(query_text).unwrap();
        let fast = minimal_partial_multi_answers(&q, db).unwrap();
        let oracle = baseline::cq_minimal_partial_multi(&q, db);
        let fast_set: FxHashSet<MultiTuple> = fast.iter().cloned().collect();
        let oracle_set: FxHashSet<MultiTuple> = oracle.iter().cloned().collect();
        assert_eq!(
            fast_set, oracle_set,
            "answer sets differ for {query_text}: fast={fast:?} oracle={oracle:?}"
        );
        assert_eq!(fast_set.len(), fast.len(), "duplicates for {query_text}");
        // The lazy cursor yields the same sequence, and every prefix of it is
        // reachable by early termination.
        let mut cursor = MultiEnumerator::new(&q, db).unwrap();
        let via_cursor: Vec<MultiTuple> = (&mut cursor).collect();
        assert!(cursor.error().is_none());
        assert_eq!(via_cursor, fast, "cursor diverges for {query_text}");
        assert_eq!(
            via_cursor,
            reference_sequence(&q, db),
            "order differs from the per-answer reference step for {query_text}"
        );
        assert_verdicts_are_reference_verdicts(&cursor, &q, db);
        for k in [0, 1, 2, fast.len()] {
            let prefix: Vec<MultiTuple> = MultiEnumerator::new(&q, db).unwrap().take(k).collect();
            assert_eq!(prefix, fast[..k.min(fast.len())], "take({k}) diverges");
        }
    }

    /// The Example 6.2 database: A(c) spawns R(c, n1), T(c, n1), S(c, n2) and
    /// the data additionally contains R(c, c').
    fn example_6_2_db() -> Database {
        let mut schema = Schema::new();
        schema.add_relation("R", 2).unwrap();
        schema.add_relation("S", 2).unwrap();
        schema.add_relation("T", 2).unwrap();
        let mut db = Database::new(schema);
        db.add_named_fact("R", &["c", "cprime"]).unwrap();
        let r = db.schema().relation_id("R").unwrap();
        let s = db.schema().relation_id("S").unwrap();
        let t = db.schema().relation_id("T").unwrap();
        let c = Value::Const(db.const_id("c").unwrap());
        let n1 = Value::Null(db.fresh_null());
        let n2 = Value::Null(db.fresh_null());
        db.add_fact(Fact::new(r, vec![c, n1])).unwrap();
        db.add_fact(Fact::new(t, vec![c, n1])).unwrap();
        db.add_fact(Fact::new(s, vec![c, n2])).unwrap();
        db
    }

    #[test]
    fn example_6_2_cone_is_needed() {
        // q0(x0,x1,x2,x3) = R(x0,x1) ∧ S(x0,x2) ∧ T(x0,x3); the answer
        // (c, *1, *2, *1) is only found through the cone (not the ball) of the
        // single-wildcard answer (c, c', *, *).
        let db = example_6_2_db();
        let q = ConjunctiveQuery::parse("q(x0, x1, x2, x3) :- R(x0, x1), S(x0, x2), T(x0, x3)")
            .unwrap();
        let answers = minimal_partial_multi_answers(&q, &db).unwrap();
        let c = db.const_id("c").unwrap();
        let cprime = db.const_id("cprime").unwrap();
        use MultiValue::{Const, Wild};
        let through_cone = MultiTuple(vec![Const(c), Wild(1), Wild(2), Wild(1)]);
        let through_ball = MultiTuple(vec![Const(c), Const(cprime), Wild(1), Wild(2)]);
        assert!(answers.contains(&through_cone), "answers: {answers:?}");
        assert!(answers.contains(&through_ball), "answers: {answers:?}");
        check_against_oracle("q(x0, x1, x2, x3) :- R(x0, x1), S(x0, x2), T(x0, x3)", &db);
    }

    #[test]
    fn multi_wildcard_answers_match_oracle_on_chaselike_data() {
        let db = example_6_2_db();
        for text in [
            "q(x, y) :- R(x, y)",
            "q(x, y, z) :- R(x, y), S(x, z)",
            "q(x, y, z) :- R(x, y), T(x, z)",
            "q(x, y, z, w) :- R(x, y), S(x, z), T(x, w)",
        ] {
            check_against_oracle(text, &db);
        }
    }

    #[test]
    fn complete_answers_first_ordering() {
        let db = example_6_2_db();
        let q = ConjunctiveQuery::parse("q(x, y) :- R(x, y)").unwrap();
        let ordered = minimal_partial_answers_complete_first(&q, &db).unwrap();
        // Same set as Algorithm 1 ...
        let plain = crate::partial_enum::minimal_partial_answers(&q, &db).unwrap();
        let ordered_set: FxHashSet<PartialTuple> = ordered.iter().cloned().collect();
        let plain_set: FxHashSet<PartialTuple> = plain.iter().cloned().collect();
        assert_eq!(ordered_set, plain_set);
        // ... but all complete answers come first.
        let first_wildcard = ordered.iter().position(|t| !t.is_complete());
        if let Some(cut) = first_wildcard {
            assert!(ordered[cut..].iter().all(|t| !t.is_complete()));
        }
    }

    #[test]
    fn boolean_query_multi_wildcards() {
        let db = example_6_2_db();
        let q = ConjunctiveQuery::parse("q() :- R(x, y)").unwrap();
        let answers = minimal_partial_multi_answers(&q, &db).unwrap();
        assert_eq!(answers, vec![MultiTuple(Vec::new())]);
    }

    /// Algorithm 2 with the step this module had before the templates and the
    /// interned table: cone, ball and dominated set rebuilt from the
    /// generators for every answer, `F`/`L`/tester memo in ordered maps, every
    /// open verdict from the reference tester.  The order oracle: the cursor
    /// must produce this *sequence*.
    fn reference_sequence(query: &ConjunctiveQuery, db: &Database) -> Vec<MultiTuple> {
        let mut l_order: Vec<MultiTuple> = Vec::new();
        let mut l_alive: Vec<bool> = Vec::new();
        let mut l_pos: BTreeMap<MultiTuple, usize> = BTreeMap::new();
        let mut f_table: BTreeSet<MultiTuple> = BTreeSet::new();
        let mut cache: BTreeMap<MultiTuple, bool> = BTreeMap::new();
        let mut test = |candidate: &MultiTuple| {
            *cache.entry(candidate.clone()).or_insert_with(|| {
                single_testing::test_partial_multi(query, db, candidate).unwrap()
            })
        };
        let mut out = Vec::new();
        for a_star in PartialEnumerator::new(query, db).unwrap() {
            for candidate in multi_wildcard_cone(&a_star) {
                if f_table.contains(&candidate) || !test(&candidate) {
                    continue;
                }
                f_table.insert(candidate.clone());
                l_pos.insert(candidate.clone(), l_order.len());
                l_order.push(candidate.clone());
                l_alive.push(true);
                for dominated in strictly_above(&candidate) {
                    if let Some(&p) = l_pos.get(&dominated) {
                        l_alive[p] = false;
                    }
                    f_table.insert(dominated);
                }
            }
            let mut ball_answers: Vec<MultiTuple> = multi_wildcard_ball(&a_star)
                .into_iter()
                .filter(|t| test(t))
                .collect();
            ball_answers.sort();
            if let Some(chosen) = MultiTuple::minimal(&ball_answers).first() {
                if let Some(&p) = l_pos.get(chosen) {
                    l_alive[p] = false;
                }
                out.push(chosen.clone());
            }
        }
        out.extend(
            l_order
                .into_iter()
                .zip(l_alive)
                .filter_map(|(t, alive)| alive.then_some(t)),
        );
        out
    }

    /// Every verdict the cursor holds — taken for free from `ā*`, by the
    /// compiled tester or by the reference itself — is the reference verdict.
    /// (Debug builds also assert this inside the step; this holds in release.)
    fn assert_verdicts_are_reference_verdicts(
        cursor: &MultiEnumerator<'_>,
        query: &ConjunctiveQuery,
        db: &Database,
    ) {
        let table = &cursor.cone.table;
        assert_eq!(table.ids.len(), table.slots.len());
        assert_eq!(cursor.stats().interned, table.slots.len() as u64);
        for (candidate, &id) in &table.ids {
            if let Some(verdict) = table.slots[id as usize].verdict {
                assert_eq!(
                    verdict,
                    single_testing::test_partial_multi(query, db, candidate).unwrap(),
                    "verdict on {candidate} for {query}"
                );
            }
        }
    }

    /// A tiny deterministic generator (SplitMix64) for the generated cases.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// A chase-like instance over `R`, `S`, `T`: constants `c0..c4`, and a
    /// pool of three nulls in second positions, shared across relations so
    /// that merged wildcard groups occur.
    fn generated_db(seed: u64) -> Database {
        let mut rng = Rng(seed);
        let mut schema = Schema::new();
        for r in ["R", "S", "T"] {
            schema.add_relation(r, 2).unwrap();
        }
        let mut db = Database::new(schema);
        for r in ["R", "S", "T"] {
            let rel = db.schema().relation_id(r).unwrap();
            for _ in 0..rng.below(6) {
                let args = [rng.below(5), rng.below(5)].map(|c| format!("c{c}"));
                db.add_named_fact(r, &args).unwrap();
            }
            for _ in 0..rng.below(4) {
                let constant = Value::Const(db.intern_const(&format!("c{}", rng.below(5))));
                let null = Value::Null(NullId(rng.below(3) as u32));
                db.add_fact(Fact::new(rel, vec![constant, null])).unwrap();
            }
        }
        db
    }

    #[test]
    fn generated_cases_keep_the_reference_sequence_and_verdicts() {
        for text in [
            // a repeated answer variable: every verdict from the reference
            "q(x, x, y) :- R(x, y)",
            "q(x, y, x) :- R(x, y), S(x, z)",
            // a constant in the query body
            "q(x, y) :- R(x, y), S(x, 'c1')",
            "q(x, y, z) :- R(x, y), S(y, z)",
            // the Example 6.2 shape: arity 4, answers reachable through the
            // cone only
            "q(x0, x1, x2, x3) :- R(x0, x1), S(x0, x2), T(x0, x3)",
        ] {
            for seed in 0..24 {
                check_against_oracle(text, &generated_db(seed));
            }
        }
    }

    const HUB_ONTOLOGY: &str = "R(x, y) -> exists z. S(y, z)";
    const HUB_QUERY: &str = "q(x, y, z) :- R(x, y), S(y, z)";

    /// The benchmark's `hub` shape: every hub value has `fan` R-facts into
    /// it; even hubs also have `fan` S-facts out of it (`fan²` complete
    /// answers), odd hubs none (`fan` answers `(x, y, *)`).
    fn hub(hubs: impl Iterator<Item = usize>, fan: usize) -> (QueryPlan, PreparedInstance) {
        let omq = OntologyMediatedQuery::new(
            Ontology::parse(HUB_ONTOLOGY).unwrap(),
            ConjunctiveQuery::parse(HUB_QUERY).unwrap(),
        )
        .unwrap();
        let mut builder = Database::builder(omq.data_schema().clone());
        for h in hubs {
            for i in 0..fan {
                builder = builder.fact("R", [format!("h{h}x{i}"), format!("h{h}y")]);
                if h % 2 == 0 {
                    builder = builder.fact("S", [format!("h{h}y"), format!("h{h}z{i}")]);
                }
            }
        }
        let plan = QueryPlan::compile(&omq).unwrap();
        let instance = plan.execute(builder.build().unwrap()).unwrap();
        (plan, instance)
    }

    /// Drains a multi-wildcard cursor over the instance and returns its
    /// counters, the number of answers, and the number of probes the plan's
    /// templates predict: per `ā*`, the cone of its star mask, plus the
    /// dominated set of the one candidate a hub answer adds (`ā*` with its
    /// stars labelled apart — every other partial answer in its cone is a
    /// weakening of that and lands in `F` with it).
    fn hub_drain(plan: &QueryPlan, instance: &PreparedInstance) -> (MultiStats, u64, u64) {
        let skeleton = plan.skeleton().unwrap();
        let db = instance.chased_database();
        let mut cursor = MultiEnumerator::with_skeleton(skeleton, db).unwrap();
        let answers = (&mut cursor).count() as u64;
        assert!(cursor.error().is_none());
        assert_verdicts_are_reference_verdicts(&cursor, &skeleton.query, db);
        let templates = skeleton.multi_templates();
        let mut predicted = 0u64;
        for a_star in PartialEnumerator::with_skeleton(skeleton, db).unwrap() {
            let mask = a_star
                .star_positions()
                .iter()
                .fold(0usize, |mask, &i| mask | 1 << i);
            let ball = multi_wildcard_ball(&a_star);
            let labelled_apart = ball.last().expect("the ball is never empty");
            assert_eq!(
                labelled_apart.wildcard_count() as usize,
                a_star.star_count()
            );
            predicted +=
                (templates.cone(mask).len() + templates.above(labelled_apart).len()) as u64;
        }
        (cursor.stats(), answers, predicted)
    }

    /// Constant work per answer, by counts: on the hub shape at 1× and 4× the
    /// fan-out the probes per step are what the templates predict for the
    /// star masks that occur (and identical where one mask occurs), the
    /// tester calls per step shrink, and the table stays linear in the
    /// answers with a factor that depends on the arity only.
    #[test]
    fn hub_work_per_answer_is_constant_in_counts() {
        // (the hubs, probes per step where a single star mask occurs)
        let shapes: [(&[usize], Option<u64>); 3] = [
            // complete answers only: Bell(4) cone members + 7 weakenings
            (&[0, 2], Some(15 + 7)),
            // `(x, y, *)` only: 10 cone members + 3 weakenings
            (&[1, 3], Some(10 + 3)),
            (&[0, 1, 2, 3], None),
        ];
        for (hubs, per_step) in shapes {
            let [(small, small_answers, small_predicted), (large, large_answers, large_predicted)] =
                [8, 32].map(|fan| {
                    let (plan, instance) = hub(hubs.iter().copied(), fan);
                    hub_drain(&plan, &instance)
                });
            for (stats, answers, predicted) in [
                (small, small_answers, small_predicted),
                (large, large_answers, large_predicted),
            ] {
                assert_eq!(stats.steps, answers, "one answer per step on this shape");
                assert_eq!(
                    stats.probes, predicted,
                    "probes are what the templates predict"
                );
                if let Some(per_step) = per_step {
                    assert_eq!(stats.probes, per_step * stats.steps);
                }
                // Bell(arity + 1): a step interns nothing outside its cone.
                assert!(stats.interned <= 15 * answers);
            }
            assert!(large.steps >= 4 * small.steps);
            assert!(
                large.tester_calls * small.steps <= small.tester_calls * large.steps,
                "tester calls per step grew: {small:?} -> {large:?}"
            );
            // On the benchmark's mix (one merged candidate to test per
            // distinct `x`, `fan` answers per `x` on the even hubs) the
            // tester runs on under a tenth of the steps.
            if per_step.is_none() {
                assert!(large.tester_calls * 10 < large.steps, "{large:?}");
            }
        }
    }

    fn chain(arity: usize) -> (QueryPlan, PreparedInstance) {
        let vars: Vec<String> = (0..arity).map(|i| format!("x{i}")).collect();
        let atoms: Vec<String> = vars
            .windows(2)
            .map(|w| format!("R({}, {})", w[0], w[1]))
            .collect();
        let query = format!("q({}) :- {}", vars.join(", "), atoms.join(", "));
        let omq = OntologyMediatedQuery::new(
            Ontology::parse("A(x) -> exists y. R(x, y)").unwrap(),
            ConjunctiveQuery::parse(&query).unwrap(),
        )
        .unwrap();
        let db = Database::builder(omq.data_schema().clone())
            .fact("R", ["a", "a"])
            .fact("A", ["a"])
            .fact("R", ["a", "e"])
            .fact("A", ["e"])
            .build()
            .unwrap();
        let plan = QueryPlan::compile(&omq).unwrap();
        let instance = plan.execute(db).unwrap();
        (plan, instance)
    }

    #[test]
    fn a_query_wider_than_the_cap_is_refused_at_once() {
        let (plan, instance) = chain(MAX_MULTI_WILDCARD_ARITY + 1);
        let refused = CoreError::MultiWildcardArityTooLarge {
            arity: MAX_MULTI_WILDCARD_ARITY + 1,
            max: MAX_MULTI_WILDCARD_ARITY,
        };
        // Refused before a template or a merge pattern is built: the best of
        // a few attempts is far below what one cone of the arity would cost.
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let start = Instant::now();
            let answers = instance.answers(Semantics::MinimalPartialMulti).map(|_| ());
            let count = instance.count(Semantics::MinimalPartialMulti);
            best = best.min(start.elapsed());
            assert_eq!(answers, Err(refused.clone()));
            assert_eq!(count, Err(refused.clone()));
        }
        assert!(best < Duration::from_millis(1), "refusal took {best:?}");
        let skeleton = plan.skeleton().unwrap();
        let db = instance.chased_database();
        assert_eq!(
            MultiEnumerator::with_skeleton(skeleton, db).map(|_| ()),
            Err(refused.clone())
        );
        assert_eq!(
            minimal_partial_multi_answers(&skeleton.query, db),
            Err(refused)
        );
        // The other two semantics are unaffected.
        for semantics in [Semantics::Complete, Semantics::MinimalPartial] {
            let drained = instance.answers(semantics).unwrap().count() as u64;
            assert!(drained > 0);
            assert_eq!(instance.count(semantics).unwrap(), drained);
        }
    }

    #[test]
    fn a_query_at_the_cap_still_enumerates() {
        let (plan, instance) = chain(MAX_MULTI_WILDCARD_ARITY);
        let query = &plan.skeleton().unwrap().query;
        let fast: BTreeSet<MultiTuple> = instance
            .answers(Semantics::MinimalPartialMulti)
            .unwrap()
            .map(|a| a.into_multi().expect("multi semantics"))
            .collect();
        let oracle: BTreeSet<MultiTuple> =
            baseline::cq_minimal_partial_multi(query, instance.chased_database())
                .into_iter()
                .collect();
        assert_eq!(fast, oracle);
        assert!(fast.iter().any(|t| !t.is_complete()));
        assert_eq!(
            instance.count(Semantics::MinimalPartialMulti).unwrap(),
            fast.len() as u64
        );
    }
}
