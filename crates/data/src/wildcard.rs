//! Wildcard tuples for partial answers.
//!
//! The paper introduces two refinements of answer tuples:
//!
//! * **single-wildcard tuples** over `adom(I) ∪ {*}` ([`PartialTuple`]): a `*`
//!   marks a position whose value is known to exist but whose identity is
//!   unknown (a labelled null generated by the ontology);
//! * **multi-wildcard tuples** over `adom(I) ∪ {*1, *2, …}` ([`MultiTuple`]):
//!   occurrences of the *same* wildcard denote the same null, distinct
//!   wildcards may or may not denote different nulls.
//!
//! Both come with a preference order `⪯` ("carries at least as much
//! information") whose strict part `≺` defines *minimal* partial answers.
//! This module implements the orders, minimality filters, conversion from raw
//! answer tuples with nulls, and the *ball* / *cone* constructions used by
//! Algorithm 2 of the paper.
//!
//! The ball and the cone of a tuple depend only on its arity and on which of
//! its positions are `*`; [`set_partitions`], [`multi_wildcard_ball`] and
//! [`multi_wildcard_cone`] are therefore *template generators*: `omq-core`
//! runs them once per star mask on a representative tuple, keeps per
//! position "the tuple's constant" or "`*k`", and applies that to every
//! answer of the mask.  They are also the test oracles for those templates.
//! Nothing should call them once per answer: a cone has Bell(arity + 1)
//! members, each built through a hash map.

use crate::error::DataError;
use crate::value::{ConstId, NullId, Value};
use crate::Result;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One position of a single-wildcard tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PartialValue {
    /// A database constant.
    Const(ConstId),
    /// The wildcard `*`.
    Star,
}

/// A single-wildcard tuple (a *partial answer* candidate).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PartialTuple(pub Vec<PartialValue>);

/// One position of a multi-wildcard tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MultiValue {
    /// A database constant.
    Const(ConstId),
    /// The wildcard `*_k` (1-based index).
    Wild(u32),
}

/// A multi-wildcard tuple.
///
/// Invariant (canonical numbering, as in the paper): if `*_j` with `j > 1`
/// occurs at position `i`, then `*_{j-1}` occurs at some earlier position.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MultiTuple(pub Vec<MultiValue>);

impl PartialValue {
    /// Returns `true` iff this position is the wildcard.
    pub fn is_star(self) -> bool {
        matches!(self, PartialValue::Star)
    }
}

impl MultiValue {
    /// Returns `true` iff this position is a wildcard.
    pub fn is_wild(self) -> bool {
        matches!(self, MultiValue::Wild(_))
    }
}

impl PartialTuple {
    /// Builds a single-wildcard tuple from a raw answer tuple by replacing
    /// every labelled null with `*` (the `ā*_N` operation of the paper).
    pub fn from_answer(answer: &[Value]) -> Self {
        PartialTuple(
            answer
                .iter()
                .map(|v| match v {
                    Value::Const(c) => PartialValue::Const(*c),
                    Value::Null(_) => PartialValue::Star,
                })
                .collect(),
        )
    }

    /// Tuple length.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` for the empty tuple.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Returns `true` iff the tuple contains no wildcard (i.e. it is a
    /// complete answer).
    pub fn is_complete(&self) -> bool {
        self.0.iter().all(|v| !v.is_star())
    }

    /// Number of wildcard positions.
    pub fn star_count(&self) -> usize {
        self.0.iter().filter(|v| v.is_star()).count()
    }

    /// Positions carrying the wildcard.
    pub fn star_positions(&self) -> Vec<usize> {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.is_star().then_some(i))
            .collect()
    }

    /// The preference order `⪯` of the paper: `self ⪯ other` iff `other` can
    /// be obtained from `self` by replacing constants with `*`
    /// (position-wise `other_i ∈ {self_i, *}`).
    pub fn preferred_leq(&self, other: &PartialTuple) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(a, b)| match (a, b) {
                (_, PartialValue::Star) => true,
                (PartialValue::Const(x), PartialValue::Const(y)) => x == y,
                (PartialValue::Star, PartialValue::Const(_)) => false,
            })
    }

    /// The strict preference order `≺`.
    pub fn preferred_lt(&self, other: &PartialTuple) -> bool {
        self != other && self.preferred_leq(other)
    }

    /// Keeps only the `≺`-minimal tuples of `tuples` (no duplicates).
    pub fn minimal(tuples: &[PartialTuple]) -> Vec<PartialTuple> {
        let mut result: Vec<PartialTuple> = Vec::new();
        for t in tuples {
            if result.contains(t) {
                continue;
            }
            if tuples.iter().any(|other| other.preferred_lt(t)) {
                continue;
            }
            result.push(t.clone());
        }
        result
    }

    /// Renders the tuple using a resolver for constant names.
    pub fn display_with(&self, mut resolve: impl FnMut(ConstId) -> String) -> String {
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|v| match v {
                PartialValue::Const(c) => resolve(*c),
                PartialValue::Star => "*".to_owned(),
            })
            .collect();
        format!("({})", parts.join(","))
    }
}

impl MultiTuple {
    /// Builds a multi-wildcard tuple from a raw answer tuple by consistently
    /// replacing labelled nulls with wildcards `*1, *2, …` in first-occurrence
    /// order (the `āW_N` operation of the paper).
    pub fn from_answer(answer: &[Value]) -> Self {
        let mut numbering: FxHashMap<NullId, u32> = FxHashMap::default();
        let mut next = 1u32;
        let values = answer
            .iter()
            .map(|v| match v {
                Value::Const(c) => MultiValue::Const(*c),
                Value::Null(n) => {
                    let idx = *numbering.entry(*n).or_insert_with(|| {
                        let idx = next;
                        next += 1;
                        idx
                    });
                    MultiValue::Wild(idx)
                }
            })
            .collect();
        MultiTuple(values)
    }

    /// Builds a tuple from raw positions, renumbering wildcards canonically.
    pub fn from_values(values: &[MultiValue]) -> Self {
        let mut numbering: FxHashMap<u32, u32> = FxHashMap::default();
        let mut next = 1u32;
        let values = values
            .iter()
            .map(|v| match v {
                MultiValue::Const(c) => MultiValue::Const(*c),
                MultiValue::Wild(w) => {
                    let idx = *numbering.entry(*w).or_insert_with(|| {
                        let idx = next;
                        next += 1;
                        idx
                    });
                    MultiValue::Wild(idx)
                }
            })
            .collect();
        MultiTuple(values)
    }

    /// Validates the canonical numbering invariant.
    pub fn validate(&self) -> Result<()> {
        let mut seen_max = 0u32;
        for v in &self.0 {
            if let MultiValue::Wild(w) = v {
                if *w == 0 || *w > seen_max + 1 {
                    return Err(DataError::NonCanonicalWildcards);
                }
                seen_max = seen_max.max(*w);
            }
        }
        Ok(())
    }

    /// Tuple length.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` for the empty tuple.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Returns `true` iff the tuple contains no wildcard.
    pub fn is_complete(&self) -> bool {
        self.0.iter().all(|v| !v.is_wild())
    }

    /// Number of distinct wildcards used.
    pub fn wildcard_count(&self) -> u32 {
        self.0
            .iter()
            .filter_map(|v| match v {
                MultiValue::Wild(w) => Some(*w),
                MultiValue::Const(_) => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Collapses every wildcard to `*`, yielding a single-wildcard tuple.
    pub fn star_collapse(&self) -> PartialTuple {
        PartialTuple(
            self.0
                .iter()
                .map(|v| match v {
                    MultiValue::Const(c) => PartialValue::Const(*c),
                    MultiValue::Wild(_) => PartialValue::Star,
                })
                .collect(),
        )
    }

    /// The preference order `⪯` for multi-wildcard tuples:
    ///
    /// 1. position-wise, `other_i` is a wildcard or `self_i = other_i`;
    /// 2. `other_i = other_j` implies `self_i = self_j`.
    ///
    /// This is the order of Section 2 of the paper; e.g.
    /// `(∗1, a) ≺ (∗1, ∗2)` and `(a, ∗1, ∗2, ∗1) ≺ (a, ∗1, ∗2, ∗3)`.
    pub fn preferred_leq(&self, other: &MultiTuple) -> bool {
        if self.0.len() != other.0.len() {
            return false;
        }
        for (a, b) in self.0.iter().zip(&other.0) {
            let ok = match b {
                MultiValue::Wild(_) => true,
                MultiValue::Const(_) => a == b,
            };
            if !ok {
                return false;
            }
        }
        for i in 0..self.0.len() {
            for j in (i + 1)..self.0.len() {
                if other.0[i] == other.0[j] && self.0[i] != self.0[j] {
                    return false;
                }
            }
        }
        true
    }

    /// The strict preference order `≺`.
    pub fn preferred_lt(&self, other: &MultiTuple) -> bool {
        self != other && self.preferred_leq(other)
    }

    /// Keeps only the `≺`-minimal tuples of `tuples` (no duplicates).
    pub fn minimal(tuples: &[MultiTuple]) -> Vec<MultiTuple> {
        let mut result: Vec<MultiTuple> = Vec::new();
        for t in tuples {
            if result.contains(t) {
                continue;
            }
            if tuples.iter().any(|other| other.preferred_lt(t)) {
                continue;
            }
            result.push(t.clone());
        }
        result
    }

    /// Renders the tuple using a resolver for constant names.
    pub fn display_with(&self, mut resolve: impl FnMut(ConstId) -> String) -> String {
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|v| match v {
                MultiValue::Const(c) => resolve(*c),
                MultiValue::Wild(w) => format!("*{w}"),
            })
            .collect();
        format!("({})", parts.join(","))
    }
}

impl fmt::Display for PartialTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_with(|c| format!("c{}", c.0)))
    }
}

impl fmt::Display for MultiTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_with(|c| format!("c{}", c.0)))
    }
}

/// Enumerates all set partitions of `items` (each partition is a vector of
/// blocks) — Bell(`items.len()`) of them.  Used by the multi-wildcard ball:
/// every partition of the wildcard positions induces one multi-wildcard
/// tuple.
pub fn set_partitions<T: Clone>(items: &[T]) -> Vec<Vec<Vec<T>>> {
    fn go<T: Clone>(items: &[T], current: &mut Vec<Vec<T>>, out: &mut Vec<Vec<Vec<T>>>) {
        match items.split_first() {
            None => out.push(current.clone()),
            Some((head, rest)) => {
                for i in 0..current.len() {
                    current[i].push(head.clone());
                    go(rest, current, out);
                    current[i].pop();
                }
                current.push(vec![head.clone()]);
                go(rest, current, out);
                current.pop();
            }
        }
    }
    let mut out = Vec::new();
    let mut current = Vec::new();
    go(items, &mut current, &mut out);
    out
}

/// The *multi-wildcard ball* `B_W(ā*)`: all multi-wildcard tuples whose
/// star-collapse equals `ā*`, in ascending order.
pub fn multi_wildcard_ball(tuple: &PartialTuple) -> Vec<MultiTuple> {
    let star_positions = tuple.star_positions();
    let partitions = set_partitions(&star_positions);
    let mut result = Vec::with_capacity(partitions.len());
    for partition in partitions {
        let mut values: Vec<MultiValue> = tuple
            .0
            .iter()
            .map(|v| match v {
                PartialValue::Const(c) => MultiValue::Const(*c),
                // placeholder, replaced below
                PartialValue::Star => MultiValue::Wild(u32::MAX),
            })
            .collect();
        for (block_idx, block) in partition.iter().enumerate() {
            for &pos in block {
                values[pos] = MultiValue::Wild(block_idx as u32 + 1);
            }
        }
        result.push(MultiTuple::from_values(&values));
    }
    result.sort();
    result.dedup();
    result
}

/// The *multi-wildcard cone* `cone_W(ā*) = ⋃_{ā* ⪯ b̄*} B_W(b̄*)`: balls of all
/// single-wildcard tuples obtained from `ā*` by replacing further constants
/// with `*`, in ascending order.  All members carry `ā*`'s constant or a
/// wildcard at every position and constants sort before wildcards, so the
/// order does not depend on which constants `ā*` has.
pub fn multi_wildcard_cone(tuple: &PartialTuple) -> Vec<MultiTuple> {
    let const_positions: Vec<usize> = (0..tuple.len())
        .filter(|&i| !tuple.0[i].is_star())
        .collect();
    let mut result = Vec::new();
    // Iterate over all subsets of constant positions to additionally star out.
    let n = const_positions.len();
    for mask in 0u64..(1u64 << n) {
        let mut weakened = tuple.clone();
        for (bit, &pos) in const_positions.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                weakened.0[pos] = PartialValue::Star;
            }
        }
        result.extend(multi_wildcard_ball(&weakened));
    }
    result.sort();
    result.dedup();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> ConstId {
        ConstId(i)
    }

    fn pt(spec: &[Option<u32>]) -> PartialTuple {
        PartialTuple(
            spec.iter()
                .map(|s| match s {
                    Some(i) => PartialValue::Const(c(*i)),
                    None => PartialValue::Star,
                })
                .collect(),
        )
    }

    fn mt(spec: &[(bool, u32)]) -> MultiTuple {
        // (true, i) = constant c_i; (false, k) = wildcard *_k
        MultiTuple(
            spec.iter()
                .map(|(is_const, i)| {
                    if *is_const {
                        MultiValue::Const(c(*i))
                    } else {
                        MultiValue::Wild(*i)
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn single_wildcard_order_examples_from_paper() {
        // (a,b) ≺ (a,*) and (a,*) ≺ (*,*)
        let ab = pt(&[Some(0), Some(1)]);
        let a_star = pt(&[Some(0), None]);
        let star_star = pt(&[None, None]);
        assert!(ab.preferred_lt(&a_star));
        assert!(a_star.preferred_lt(&star_star));
        assert!(ab.preferred_lt(&star_star));
        assert!(!a_star.preferred_lt(&ab));
        assert!(ab.preferred_leq(&ab));
        assert!(!ab.preferred_lt(&ab));
    }

    #[test]
    fn incomparable_partial_tuples() {
        let xa = pt(&[None, Some(0)]);
        let ax = pt(&[Some(0), None]);
        assert!(!xa.preferred_leq(&ax));
        assert!(!ax.preferred_leq(&xa));
    }

    #[test]
    fn partial_minimality_filter() {
        let tuples = vec![
            pt(&[Some(0), Some(1)]),
            pt(&[Some(0), None]),
            pt(&[None, None]),
            pt(&[Some(2), None]),
        ];
        let min = PartialTuple::minimal(&tuples);
        assert_eq!(min.len(), 2);
        assert!(min.contains(&pt(&[Some(0), Some(1)])));
        assert!(min.contains(&pt(&[Some(2), None])));
    }

    #[test]
    fn from_answer_replaces_nulls() {
        let answer = vec![
            Value::Const(c(5)),
            Value::Null(NullId(3)),
            Value::Const(c(7)),
        ];
        let t = PartialTuple::from_answer(&answer);
        assert_eq!(t, pt(&[Some(5), None, Some(7)]));
        assert_eq!(t.star_count(), 1);
        assert!(!t.is_complete());
        assert_eq!(t.star_positions(), vec![1]);
    }

    #[test]
    fn multi_from_answer_is_canonical() {
        let answer = vec![
            Value::Null(NullId(9)),
            Value::Const(c(1)),
            Value::Null(NullId(4)),
            Value::Null(NullId(9)),
        ];
        let t = MultiTuple::from_answer(&answer);
        assert_eq!(t, mt(&[(false, 1), (true, 1), (false, 2), (false, 1)]));
        t.validate().unwrap();
        assert_eq!(t.wildcard_count(), 2);
        assert_eq!(t.star_collapse(), pt(&[None, Some(1), None, None]));
    }

    #[test]
    fn validation_rejects_non_canonical() {
        let bad = mt(&[(false, 2), (false, 1)]);
        assert!(bad.validate().is_err());
        let good = mt(&[(false, 1), (false, 2)]);
        assert!(good.validate().is_ok());
        let zero = mt(&[(false, 0)]);
        assert!(zero.validate().is_err());
    }

    #[test]
    fn multi_order_examples_from_paper() {
        // (∗1, a) ≺ (∗1, ∗2)
        let w1_a = mt(&[(false, 1), (true, 0)]);
        let w1_w2 = mt(&[(false, 1), (false, 2)]);
        assert!(w1_a.preferred_lt(&w1_w2));
        // (a, ∗1, ∗2, ∗1) ≺ (a, ∗1, ∗2, ∗3)
        let lhs = mt(&[(true, 0), (false, 1), (false, 2), (false, 1)]);
        let rhs = mt(&[(true, 0), (false, 1), (false, 2), (false, 3)]);
        assert!(lhs.preferred_lt(&rhs));
        assert!(!rhs.preferred_leq(&lhs));
    }

    #[test]
    fn multi_order_condition_two() {
        // other identifies positions that self does not: not ⪯.
        let self_t = mt(&[(true, 0), (true, 1)]); // (a, b)
        let other = mt(&[(false, 1), (false, 1)]); // (∗1, ∗1)
        assert!(!self_t.preferred_leq(&other));
        let self_eq = mt(&[(true, 0), (true, 0)]); // (a, a)
        assert!(self_eq.preferred_leq(&other));
    }

    #[test]
    fn multi_minimality_filter() {
        let tuples = vec![
            mt(&[(false, 1), (false, 1)]),
            mt(&[(false, 1), (false, 2)]),
            mt(&[(true, 0), (false, 1)]),
        ];
        let min = MultiTuple::minimal(&tuples);
        // (∗1,∗1) and (a,∗1) are minimal; (∗1,∗2) is dominated by both.
        assert_eq!(min.len(), 2);
        assert!(min.contains(&mt(&[(false, 1), (false, 1)])));
        assert!(min.contains(&mt(&[(true, 0), (false, 1)])));
    }

    #[test]
    fn set_partitions_count_is_bell_number() {
        assert_eq!(set_partitions(&[1]).len(), 1);
        assert_eq!(set_partitions(&[1, 2]).len(), 2);
        assert_eq!(set_partitions(&[1, 2, 3]).len(), 5);
        assert_eq!(set_partitions(&[1, 2, 3, 4]).len(), 15);
        assert_eq!(set_partitions::<u32>(&[]).len(), 1);
    }

    #[test]
    fn ball_of_two_stars() {
        // B_W(c, c', *, *) = {(c,c',*1,*2), (c,c',*1,*1)}
        let t = pt(&[Some(0), Some(1), None, None]);
        let ball = multi_wildcard_ball(&t);
        assert_eq!(ball.len(), 2);
        assert!(ball.contains(&mt(&[(true, 0), (true, 1), (false, 1), (false, 2)])));
        assert!(ball.contains(&mt(&[(true, 0), (true, 1), (false, 1), (false, 1)])));
        for b in &ball {
            assert_eq!(b.star_collapse(), t);
        }
    }

    #[test]
    fn cone_contains_example_6_2_tuple() {
        // Example 6.2: (c, ∗1, ∗2, ∗1) ∉ B_W(c, c', *, *) but ∈ cone_W(c, c', *, *).
        let base = pt(&[Some(0), Some(1), None, None]);
        let target = mt(&[(true, 0), (false, 1), (false, 2), (false, 1)]);
        let ball = multi_wildcard_ball(&base);
        assert!(!ball.contains(&target));
        let cone = multi_wildcard_cone(&base);
        assert!(cone.contains(&target));
        // The cone contains the ball.
        for b in &ball {
            assert!(cone.contains(b));
        }
    }

    #[test]
    fn display_forms() {
        let t = pt(&[Some(0), None]);
        assert_eq!(format!("{t}"), "(c0,*)");
        let m = mt(&[(false, 1), (true, 2)]);
        assert_eq!(format!("{m}"), "(*1,c2)");
    }
}
