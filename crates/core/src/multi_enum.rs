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

use crate::error::CoreError;
use crate::partial_enum::PartialEnumerator;
use crate::preprocess::PlanSkeleton;
use crate::single_testing;
use crate::Result;
use omq_cq::ConjunctiveQuery;
use omq_data::wildcard::{multi_wildcard_ball, multi_wildcard_cone, set_partitions};
use omq_data::{Database, MultiTuple, MultiValue, PartialTuple};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How the cursor reaches the chased database it tests candidates against:
/// either a caller-provided borrow, or a shared shard vector (which makes the
/// cursor `'static` and lets it outlive the `PreparedInstance` it came from).
#[derive(Debug)]
enum DbRef<'a> {
    Borrowed(&'a Database),
    Shard(Arc<Vec<Arc<Database>>>, usize),
}

impl DbRef<'_> {
    fn get(&self) -> &Database {
        match self {
            DbRef::Borrowed(db) => db,
            DbRef::Shard(shards, idx) => &shards[*idx],
        }
    }
}

/// The Algorithm 2 enumerator — a lazy cursor over the minimal partial
/// answers with multi-wildcards.
///
/// The side tables are ordered maps rather than hash maps, keeping the loop
/// hash-free.  Honest trade-off: `f_table`/`l_pos` accumulate candidates
/// across the whole run, so these lookups are log-bounded in the number of
/// answers seen so far (the paper's F table is a RAM-model constant-time
/// dictionary); in practice the cost is dominated by the homomorphism tester,
/// whose results are cached in `tester_cache` (playing the role of the
/// paper's preprocessed all-testing structures A₂: cones of different answers
/// overlap heavily in their constant-free candidates).
///
/// The only fallible step after construction is the candidate tester; a
/// tester error ends the stream and is reported by
/// [`MultiEnumerator::error`].
#[derive(Debug)]
pub struct MultiEnumerator<'a> {
    /// The Algorithm 1 cursor supplying the single-wildcard answers.
    single: PartialEnumerator,
    db: DbRef<'a>,
    /// The list L (insertion order) with O(1) removal via an index map.
    l_order: Vec<MultiTuple>,
    l_alive: Vec<bool>,
    l_pos: BTreeMap<MultiTuple, usize>,
    /// The lookup table F: tuples that have been added to L or ruled out.
    f_table: BTreeSet<MultiTuple>,
    tester_cache: BTreeMap<MultiTuple, bool>,
    /// `None` while single-wildcard answers are still being consumed;
    /// `Some(i)` once the cursor is flushing `l_order[i..]`.
    flush_pos: Option<usize>,
    error: Option<CoreError>,
}

impl<'a> MultiEnumerator<'a> {
    /// Preprocesses `query` over the chased instance `d0`.
    ///
    /// Requires the query to be acyclic and free-connex acyclic.
    pub fn new(query: &ConjunctiveQuery, d0: &'a Database) -> Result<Self> {
        let skeleton = PlanSkeleton::compile(query)?;
        Self::with_skeleton(&skeleton, d0)
    }

    /// Preprocesses a compiled skeleton over the chased instance `d0`.
    pub fn with_skeleton(skeleton: &PlanSkeleton, d0: &'a Database) -> Result<Self> {
        Ok(Self::from_parts(
            PartialEnumerator::with_skeleton(skeleton, d0)?,
            DbRef::Borrowed(d0),
        ))
    }

    /// Builds a `'static` cursor over one shard of a shared shard vector
    /// (used by the owning `AnswerStream`).
    pub(crate) fn for_shard(
        skeleton: &PlanSkeleton,
        shards: Arc<Vec<Arc<Database>>>,
        idx: usize,
    ) -> Result<MultiEnumerator<'static>> {
        let single = PartialEnumerator::with_skeleton(skeleton, &shards[idx])?;
        Ok(MultiEnumerator::from_parts(
            single,
            DbRef::Shard(shards, idx),
        ))
    }

    fn from_parts(single: PartialEnumerator, db: DbRef<'a>) -> MultiEnumerator<'a> {
        MultiEnumerator {
            single,
            db,
            l_order: Vec::new(),
            l_alive: Vec::new(),
            l_pos: BTreeMap::new(),
            f_table: BTreeSet::new(),
            tester_cache: BTreeMap::new(),
            flush_pos: None,
            error: None,
        }
    }

    /// The error that ended the stream early, if any.  Check after the
    /// iterator returns `None` when exactness matters.
    pub fn error(&self) -> Option<&CoreError> {
        self.error.as_ref()
    }

    /// Batched pull — the enumerator's one state machine: produces up to
    /// `limit` answers, invoking `emit` for each.  Returns the number
    /// produced; fewer than `limit` means the stream ended (exhausted or
    /// failed — check [`MultiEnumerator::error`]).
    pub fn fill_with(&mut self, limit: usize, mut emit: impl FnMut(MultiTuple)) -> usize {
        if limit == 0 || self.error.is_some() {
            return 0;
        }
        let mut produced = 0usize;
        if self.flush_pos.is_none() {
            // Interleave the single-wildcard pull with the cone and ball
            // steps, one answer at a time: `step` has side effects on `L`/`F`,
            // so pulling ahead of the emitted prefix would lose work when the
            // caller stops at `limit`.
            while produced < limit {
                let Some(a_star) = self.single.next() else {
                    // Single-wildcard answers exhausted: flush the rest of L.
                    self.flush_pos = Some(0);
                    break;
                };
                match self.step(&a_star) {
                    Ok(Some(t)) => {
                        emit(t);
                        produced += 1;
                    }
                    Ok(None) => {}
                    Err(e) => {
                        self.error = Some(e);
                        return produced;
                    }
                }
            }
        }
        if let Some(pos) = self.flush_pos.as_mut() {
            while *pos < self.l_order.len() && produced < limit {
                let i = *pos;
                *pos += 1;
                if self.l_alive[i] {
                    emit(self.l_order[i].clone());
                    produced += 1;
                }
            }
        }
        produced
    }

    /// Processes one single-wildcard answer: cone maintenance of `L`/`F`,
    /// then the ball step, whose chosen minimal element (if any) is the
    /// immediate output for this answer.
    fn step(&mut self, a_star: &PartialTuple) -> Result<Option<MultiTuple>> {
        let query = &self.single.structure().query;
        let db = self.db.get();
        // Candidates from the cone that are partial answers and not yet seen.
        for candidate in multi_wildcard_cone(a_star) {
            if self.f_table.contains(&candidate) {
                continue;
            }
            if !test_cached(&mut self.tester_cache, query, db, &candidate)? {
                continue;
            }
            self.f_table.insert(candidate.clone());
            let pos = self.l_order.len();
            self.l_order.push(candidate.clone());
            self.l_alive.push(true);
            self.l_pos.insert(candidate.clone(), pos);
            // Prune: every tuple strictly dominated by `candidate` can never
            // be a minimal answer; mark it in F and drop it from L.
            for dominated in strictly_above(&candidate) {
                self.f_table.insert(dominated.clone());
                if let Some(&p) = self.l_pos.get(&dominated) {
                    self.l_alive[p] = false;
                }
            }
        }
        // Output one minimal element of the ball of ā* right away.
        let mut ball_answers: Vec<MultiTuple> = Vec::new();
        for t in multi_wildcard_ball(a_star) {
            if test_cached(&mut self.tester_cache, query, db, &t)? {
                ball_answers.push(t);
            }
        }
        ball_answers.sort();
        let minimal = MultiTuple::minimal(&ball_answers);
        if let Some(chosen) = minimal.first() {
            if let Some(&p) = self.l_pos.get(chosen) {
                self.l_alive[p] = false;
            }
            return Ok(Some(chosen.clone()));
        }
        Ok(None)
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

/// The memoised partial-answer tester shared by the cone and ball steps.
fn test_cached(
    cache: &mut BTreeMap<MultiTuple, bool>,
    query: &ConjunctiveQuery,
    db: &Database,
    candidate: &MultiTuple,
) -> Result<bool> {
    if let Some(&cached) = cache.get(candidate) {
        return Ok(cached);
    }
    let result = single_testing::test_partial_multi(query, db, candidate)?;
    cache.insert(candidate.clone(), result);
    Ok(result)
}

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

/// All multi-wildcard tuples strictly above `tuple` in the preference order
/// `≺` (a constant-size set: weaken constant positions to wildcards and/or
/// split wildcard groups, subject to the order's conditions).
fn strictly_above(tuple: &MultiTuple) -> Vec<MultiTuple> {
    let n = tuple.len();
    let const_positions: Vec<usize> = (0..n)
        .filter(|&i| matches!(tuple.0[i], MultiValue::Const(_)))
        .collect();
    let mut result: Vec<MultiTuple> = Vec::new();
    let mut seen: BTreeSet<MultiTuple> = BTreeSet::new();
    for mask in 0u64..(1u64 << const_positions.len().min(63)) {
        // Positions that become wildcards in the candidate.
        let mut wild_positions: Vec<usize> = (0..n)
            .filter(|&i| matches!(tuple.0[i], MultiValue::Wild(_)))
            .collect();
        for (bit, &pos) in const_positions.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                wild_positions.push(pos);
            }
        }
        wild_positions.sort_unstable();
        // Partition the wildcard positions into groups; a block is admissible
        // only if all its positions carry the same value in `tuple`
        // (condition (2) of the order).
        for partition in set_partitions(&wild_positions) {
            if !partition
                .iter()
                .all(|block| block.iter().all(|&i| tuple.0[i] == tuple.0[block[0]]))
            {
                continue;
            }
            let mut values: Vec<MultiValue> = tuple.0.clone();
            for (block_idx, block) in partition.iter().enumerate() {
                for &pos in block {
                    values[pos] = MultiValue::Wild(block_idx as u32 + 1);
                }
            }
            let candidate = MultiTuple::from_values(&values);
            if &candidate != tuple
                && tuple.preferred_lt(&candidate)
                && seen.insert(candidate.clone())
            {
                result.push(candidate);
            }
        }
    }
    result
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
    let skeleton = PlanSkeleton::compile(query)?;
    minimal_partial_answers_complete_first_prepared(&skeleton, d0)
}

/// [`minimal_partial_answers_complete_first`] over a precompiled skeleton.
pub fn minimal_partial_answers_complete_first_prepared(
    skeleton: &PlanSkeleton,
    d0: &Database,
) -> Result<Vec<PartialTuple>> {
    let complete_structure =
        crate::preprocess::FreeConnexStructure::materialize(skeleton, d0, true)?;
    let mut complete_iter = crate::enumerate::AnswerIter::new(&complete_structure);
    let partial: Vec<PartialTuple> = PartialEnumerator::with_skeleton(skeleton, d0)?.collect();

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
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use omq_data::{ConstId, Fact, Schema, Value};
    use rustc_hash::FxHashSet;

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
}
