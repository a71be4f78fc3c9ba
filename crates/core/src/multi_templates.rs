//! Plan-time *label templates* for Algorithm 2 ([`crate::multi_enum`]).
//!
//! Everything the per-answer step of Algorithm 2 derives from a
//! single-wildcard answer `ā*` besides its constants depends on the query
//! alone:
//!
//! * `cone_W(ā*)` and `B_W(ā*)` depend only on the arity and on *which
//!   positions* of `ā*` are `*` (its **star mask**);
//! * the set of tuples strictly above a multi-wildcard tuple `t` in the
//!   preference order depends only on the **shape** of `t`: which positions
//!   carry which wildcard, and which constant positions carry equal
//!   constants.
//!
//! Each such set is compiled once into a list of [`LabelRow`]s — per position
//! "keep the source value" or "write `*k`" — by running the generators of
//! [`omq_data::wildcard`] (and [`strictly_above`]) on one representative
//! tuple.  The lists live in a [`MultiTemplates`] on the plan's
//! [`crate::PlanSkeleton`], are filled lazily per mask / per shape the first
//! time a multi-wildcard cursor or count reaches them (so the other two
//! semantics never pay, and a plan only holds what its data reaches), and are
//! shared through the plan's `Arc` by every shard cursor, by `count`, and by
//! the cross-shard `WildcardMerge`, whose pattern list is the ball of the
//! all-star tuple.

use omq_cq::ConjunctiveQuery;
use omq_data::wildcard::{multi_wildcard_cone, set_partitions};
use omq_data::{ConstId, MultiTuple, MultiValue, PartialTuple, PartialValue};
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::{Arc, OnceLock, RwLock};

/// The widest query Algorithm 2 is served for.  The cone of one answer has
/// up to Bell(arity + 1) members (21 147 at arity 8, 115 975 at 9, 4.2 M at
/// 12) and the cross-shard merge tracks Bell(arity) patterns, so beyond this
/// a single cursor would pin its thread for seconds to minutes; wider
/// queries are refused with
/// [`crate::CoreError::MultiWildcardArityTooLarge`] before any template is
/// built.
pub const MAX_MULTI_WILDCARD_ARITY: usize = 8;

/// One label template over the answer positions: `0` keeps the source value,
/// `k > 0` writes the wildcard `*k`.  Positions past the arity stay `0`.
pub(crate) type LabelRow = [u8; MAX_MULTI_WILDCARD_ARITY];

/// The template reproducing `tuple` from any source that agrees with it on
/// the constant positions.
fn row_of(tuple: &MultiTuple) -> LabelRow {
    let mut row = [0u8; MAX_MULTI_WILDCARD_ARITY];
    for (op, value) in row.iter_mut().zip(&tuple.0) {
        if let MultiValue::Wild(k) = value {
            *op = u8::try_from(*k).expect("wildcard labels are bounded by the arity");
        }
    }
    row
}

/// Writes the tuple `row` describes over `source` into `out`.
#[inline]
pub(crate) fn apply_row(row: &LabelRow, source: &[MultiValue], out: &mut MultiTuple) {
    out.0.clear();
    out.0
        .extend(source.iter().zip(row).map(|(&value, &op)| match op {
            0 => value,
            k => MultiValue::Wild(u32::from(k)),
        }));
}

/// One member of a cone, as a template over `ā*`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConeEntry {
    pub(crate) row: LabelRow,
    /// The member keeps every constant of `ā*`, i.e. it lies in `B_W(ā*)`.
    pub(crate) in_ball: bool,
    /// Every wildcard of the member occurs once: it is `ā*` itself or a
    /// plain weakening of it, hence a partial answer whenever `ā*` is one.
    pub(crate) free: bool,
}

/// `cone_W(ā*)` for every `ā*` whose star positions are the set bits of
/// `mask`, in the order [`multi_wildcard_cone`] produces it ("keep" sorts
/// before any wildcard, and all members of one cone share `ā*`'s constants).
/// The entries with [`ConeEntry::in_ball`] are `B_W(ā*)`, in
/// [`omq_data::multi_wildcard_ball`]'s order.
fn build_cone(arity: usize, mask: usize) -> Vec<ConeEntry> {
    // Pairwise distinct constants: the generator must not see two positions
    // it could take for the same value.
    let representative = PartialTuple(
        (0..arity)
            .map(|i| match mask >> i & 1 {
                1 => PartialValue::Star,
                _ => PartialValue::Const(ConstId(i as u32)),
            })
            .collect(),
    );
    let stars = mask.count_ones() as usize;
    multi_wildcard_cone(&representative)
        .iter()
        .map(|member| {
            let wild = member.0.iter().filter(|v| v.is_wild()).count();
            ConeEntry {
                row: row_of(member),
                in_ball: wild == stars,
                free: wild == member.wildcard_count() as usize,
            }
        })
        .collect()
}

/// The shape of a multi-wildcard tuple, one byte per position: the wildcard
/// label with the high bit set, or the first position carrying the same
/// constant.
fn shape_key(tuple: &MultiTuple) -> u64 {
    let mut key = [0u8; MAX_MULTI_WILDCARD_ARITY];
    for (i, value) in tuple.0.iter().enumerate() {
        key[i] = match value {
            MultiValue::Wild(k) => 0x80 | *k as u8,
            MultiValue::Const(_) => tuple.0[..i].iter().position(|v| v == value).unwrap_or(i) as u8,
        };
    }
    u64::from_le_bytes(key)
}

/// The query-only side of Algorithm 2, compiled lazily and shared by every
/// cursor of a plan.
#[derive(Debug)]
pub(crate) struct MultiTemplates {
    /// The query, for the reference tester
    /// ([`crate::single_testing::test_partial_multi`]).
    pub(crate) query: ConjunctiveQuery,
    /// No answer variable is repeated — the condition under which a
    /// [`ConeEntry::free`] member needs no test (see the `multi_enum` module
    /// docs).
    pub(crate) distinct_answer_vars: bool,
    /// One slot per star mask (bit `i` set: position `i` is `*`); empty when
    /// the arity is beyond [`MAX_MULTI_WILDCARD_ARITY`].
    cones: Vec<OnceLock<Vec<ConeEntry>>>,
    /// Strictly-above templates per tuple shape.
    shapes: RwLock<FxHashMap<u64, Arc<[LabelRow]>>>,
    /// The wildcard-only tuples of the arity: the ball of `(*, …, *)`.
    merge_patterns: OnceLock<Arc<[MultiTuple]>>,
}

impl MultiTemplates {
    pub(crate) fn new(query: &ConjunctiveQuery) -> MultiTemplates {
        let arity = query.arity();
        let cones = if arity <= MAX_MULTI_WILDCARD_ARITY {
            1usize << arity
        } else {
            0
        };
        MultiTemplates {
            query: query.clone(),
            distinct_answer_vars: query.distinct_answer_vars().len() == arity,
            cones: (0..cones).map(|_| OnceLock::new()).collect(),
            shapes: RwLock::default(),
            merge_patterns: OnceLock::new(),
        }
    }

    fn arity(&self) -> usize {
        self.query.arity()
    }

    /// The cone (and, flagged in it, the ball) templates of the
    /// single-wildcard answers whose star positions are the set bits of
    /// `mask`.
    pub(crate) fn cone(&self, mask: usize) -> &[ConeEntry] {
        self.cones[mask].get_or_init(|| build_cone(self.arity(), mask))
    }

    /// Templates of the tuples strictly above `tuple` (and above every other
    /// tuple of its shape), relative to the tuple itself.
    pub(crate) fn above(&self, tuple: &MultiTuple) -> Arc<[LabelRow]> {
        let key = shape_key(tuple);
        let poisoned = "template builders do not panic";
        if let Some(rows) = self.shapes.read().expect(poisoned).get(&key) {
            return Arc::clone(rows);
        }
        let rows: Arc<[LabelRow]> = strictly_above(tuple).iter().map(row_of).collect();
        Arc::clone(
            self.shapes
                .write()
                .expect(poisoned)
                .entry(key)
                .or_insert(rows),
        )
    }

    /// Every wildcard-only tuple of the arity — what the cross-shard merge
    /// tracks — in [`omq_data::multi_wildcard_ball`]'s order.
    pub(crate) fn merge_patterns(&self) -> Arc<[MultiTuple]> {
        Arc::clone(self.merge_patterns.get_or_init(|| {
            // All-star mask: no constant to keep, so the rows are the tuples.
            let mut tuple = MultiTuple(Vec::new());
            let source = vec![MultiValue::Wild(0); self.arity()];
            self.cone(self.cones.len() - 1)
                .iter()
                .map(|entry| {
                    apply_row(&entry.row, &source, &mut tuple);
                    tuple.clone()
                })
                .collect()
        }))
    }
}

/// All multi-wildcard tuples strictly above `tuple` in the preference order
/// `≺` (a constant-size set: weaken constant positions to wildcards and/or
/// split wildcard groups, subject to the order's conditions).  The template
/// generator behind [`MultiTemplates::above`], and its test oracle; nothing
/// calls it per answer.
pub(crate) fn strictly_above(tuple: &MultiTuple) -> Vec<MultiTuple> {
    let n = tuple.len();
    let const_positions: Vec<usize> = (0..n)
        .filter(|&i| matches!(tuple.0[i], MultiValue::Const(_)))
        .collect();
    let mut result: Vec<MultiTuple> = Vec::new();
    let mut seen: FxHashSet<MultiTuple> = FxHashSet::default();
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

#[cfg(test)]
mod tests {
    use super::*;
    use omq_data::multi_wildcard_ball;
    use std::collections::BTreeSet;

    fn templates(arity: usize) -> MultiTemplates {
        let vars: Vec<String> = (0..arity).map(|i| format!("x{i}")).collect();
        let text = format!("q({}) :- R({})", vars.join(", "), vars.join(", "));
        MultiTemplates::new(&ConjunctiveQuery::parse(&text).unwrap())
    }

    fn applied(rows: impl Iterator<Item = LabelRow>, source: &MultiTuple) -> Vec<MultiTuple> {
        rows.map(|row| {
            let mut out = MultiTuple(Vec::new());
            apply_row(&row, &source.0, &mut out);
            out
        })
        .collect()
    }

    /// For every star mask of arity ≤ 4, the cone and ball templates applied
    /// to a tuple with arbitrary (partly equal) constants are exactly what
    /// the generators produce on that tuple — element for element, in order.
    #[test]
    fn cone_and_ball_templates_equal_the_generators() {
        // Unordered and with a repeat, so neither the representative's
        // constants nor their order can leak into the templates.
        let constants = [7u32, 3, 7, 5];
        for arity in 0..=4usize {
            let shared = templates(arity);
            for mask in 0..1usize << arity {
                let a_star = PartialTuple(
                    (0..arity)
                        .map(|i| match mask >> i & 1 {
                            1 => PartialValue::Star,
                            _ => PartialValue::Const(ConstId(constants[i])),
                        })
                        .collect(),
                );
                let source = MultiTuple(
                    a_star
                        .0
                        .iter()
                        .map(|v| match v {
                            PartialValue::Const(c) => MultiValue::Const(*c),
                            PartialValue::Star => MultiValue::Wild(0),
                        })
                        .collect(),
                );
                let cone = shared.cone(mask);
                assert_eq!(
                    applied(cone.iter().map(|e| e.row), &source),
                    multi_wildcard_cone(&a_star),
                    "cone of {a_star}"
                );
                assert_eq!(
                    applied(cone.iter().filter(|e| e.in_ball).map(|e| e.row), &source),
                    multi_wildcard_ball(&a_star),
                    "ball of {a_star}"
                );
                for (entry, member) in cone.iter().zip(multi_wildcard_cone(&a_star)) {
                    let labels: Vec<u32> = member
                        .0
                        .iter()
                        .filter_map(|v| match v {
                            MultiValue::Wild(k) => Some(*k),
                            MultiValue::Const(_) => None,
                        })
                        .collect();
                    let distinct: BTreeSet<u32> = labels.iter().copied().collect();
                    assert_eq!(entry.free, distinct.len() == labels.len(), "{member}");
                }
            }
        }
    }

    /// Per shape, the strictly-above templates applied to another tuple of
    /// the shape are `strictly_above` of that tuple, as a set.
    #[test]
    fn above_templates_equal_the_generator_per_shape() {
        let shared = templates(4);
        // Every tuple of arity 4 over two constants and canonical wildcards.
        let mut tuples: Vec<Vec<MultiValue>> = vec![Vec::new()];
        for _ in 0..4 {
            tuples = tuples
                .into_iter()
                .flat_map(|prefix| {
                    let next_label = 1 + prefix
                        .iter()
                        .filter_map(|v| match v {
                            MultiValue::Wild(k) => Some(*k),
                            MultiValue::Const(_) => None,
                        })
                        .max()
                        .unwrap_or(0);
                    let choices = [1u32, 2]
                        .map(|c| MultiValue::Const(ConstId(c)))
                        .into_iter()
                        .chain((1..=next_label).map(MultiValue::Wild));
                    choices
                        .map(|v| prefix.iter().copied().chain([v]).collect())
                        .collect::<Vec<Vec<MultiValue>>>()
                })
                .collect();
        }
        for values in tuples {
            let tuple = MultiTuple(values);
            tuple.validate().unwrap();
            // Fill the shape's templates from a *different* tuple of the
            // same shape first, then read them back for this one.
            let renamed = MultiTuple(
                tuple
                    .0
                    .iter()
                    .map(|v| match v {
                        MultiValue::Const(c) => MultiValue::Const(ConstId(c.0 + 40)),
                        wild => *wild,
                    })
                    .collect(),
            );
            assert_eq!(shape_key(&renamed), shape_key(&tuple));
            shared.above(&renamed);
            let via_templates: BTreeSet<MultiTuple> =
                applied(shared.above(&tuple).iter().copied(), &tuple)
                    .into_iter()
                    .collect();
            let oracle: BTreeSet<MultiTuple> = strictly_above(&tuple).into_iter().collect();
            assert_eq!(via_templates, oracle, "above {tuple}");
        }
    }

    #[test]
    fn merge_patterns_are_the_all_star_ball() {
        for arity in 0..=4usize {
            let all_star = PartialTuple(vec![PartialValue::Star; arity]);
            assert_eq!(
                templates(arity).merge_patterns().to_vec(),
                multi_wildcard_ball(&all_star)
            );
        }
    }
}
