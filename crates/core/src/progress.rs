//! Progress trees and the `trees(v, h)` lists (Section 5 of the paper).
//!
//! A *progress tree* `(p, g)` describes an "excursion" that a homomorphism
//! from the full query `q₁` into the chased database may make into the null
//! part of the data: `p` is a connected subtree of the join tree `T₁` and `g`
//! assigns to every variable of `p` either a database constant or the
//! wildcard `*` (meaning "a labelled null").  The enumeration algorithm jumps
//! over such excursions in one step, outputting `*` for the affected answer
//! positions.
//!
//! For every node `v` and every *predecessor map* `h` (an assignment of the
//! variables shared with `v`'s parent to constants), the list `trees(v, h)`
//! holds all progress trees rooted at `v` that agree with `h`, sorted in
//! *database-preferring order*: trees with fewer nodes first, and among trees
//! with the same node set, trees with fewer wildcards first.
//!
//! # Layout
//!
//! The structure comes in two halves, the way a plan and its instances do:
//!
//! * [`ProgressIndex`] is the **immutable** half, built once per chased
//!   database and shared by every cursor over it.  It stores each tree
//!   exactly once: a tree's node set is one of the (query-many) connected
//!   subtrees of `T₁`, kept once in a shape table together with its sorted
//!   variables and its continuation-site nodes; a tree itself is four `u32`s
//!   — its shape, where its pattern values start in one flat value pool,
//!   where its site list ids start in another, and its list.  The entries of
//!   a list are contiguous and sorted in database-preferring order, so the
//!   initial linkage is implicit and [`ProgressIndex::find_in_list`] is a
//!   binary search over a range.  The tree → entry table behind
//!   [`ProgressIndex::entry_of`] is an open-addressing table of entry ids
//!   that hashes and compares against the pools, so it owns no key.
//! * [`TreeLists`] is the **per-cursor** half: the doubly-linked `prev` /
//!   `next` arrays, the list heads and the removed flags that Algorithm 1's
//!   `prune` step edits.  [`ProgressIndex::lists`] produces a fresh one in
//!   time linear in the number of trees — a few `u32` array fills — which is
//!   all a second cursor over the same database costs; two cursors never
//!   see each other's removals.

use crate::error::CoreError;
use crate::preprocess::FreeConnexStructure;
use crate::Result;
use omq_cq::VarId;
use omq_data::{PartialValue, Value};
use rustc_hash::{FxHashMap, FxHasher};
use std::cmp::Ordering;
use std::hash::Hasher;

/// "No entry" / "no list" in the `u32` index arrays.
const NONE: u32 = u32::MAX;

fn some(index: u32) -> Option<usize> {
    (index != NONE).then_some(index as usize)
}

/// A progress tree `(p, g)`, borrowed from the index's pools.
#[derive(Debug, Clone, Copy)]
pub struct ProgressTree<'a> {
    /// The root node (index into the preprocessed structure's nodes).
    pub root: usize,
    /// The included nodes, sorted ascending (always contains `root`).
    pub nodes: &'a [usize],
    /// The variables of the included nodes, sorted ascending.
    pub vars: &'a [VarId],
    /// The assignment `g`, parallel to `vars`: database constants or `*`.
    pub values: &'a [PartialValue],
}

impl ProgressTree<'_> {
    /// Number of wildcard positions of the pattern.
    pub fn star_count(&self) -> usize {
        star_count(self.values)
    }

    /// Looks up the pattern value of a variable.
    pub fn value_of(&self, var: VarId) -> Option<PartialValue> {
        self.vars.binary_search(&var).ok().map(|i| self.values[i])
    }
}

fn star_count(values: &[PartialValue]) -> usize {
    values.iter().filter(|v| v.is_star()).count()
}

/// Converts a database value into a pattern value (`null ↦ *`).
pub fn pattern_of_value(value: Value) -> PartialValue {
    match value {
        Value::Const(c) => PartialValue::Const(c),
        Value::Null(_) => PartialValue::Star,
    }
}

/// A continuation site of a progress tree: after the tree is applied, the
/// pre-order traversal will next need the `trees(node, h)` list with the
/// statically known binding `h` — `list` is its id (`None` if no tree exists
/// for that binding).  Sites are precomputed at build time so that the
/// enumeration phase never hashes a predecessor binding.
pub type Site = (usize, Option<usize>);

/// One connected subtree of `T₁`: everything about a progress tree that
/// depends on the query alone.
#[derive(Debug)]
struct Shape {
    root: usize,
    /// The included nodes, sorted ascending.
    nodes: Vec<usize>,
    /// The variables of the included nodes, sorted ascending.
    vars: Vec<VarId>,
    /// Parallel to `vars`: a predecessor variable of `root`.  Such a
    /// variable carries a constant in every tree of this shape (condition
    /// (1) of progress trees), so `prune` never weakens it.
    pinned: Vec<bool>,
    /// The nodes a tree of this shape publishes a site for: the `T₁`
    /// children of its nodes that are outside it, transitively through
    /// pass-through nodes (nodes binding no variable of their own).
    frontier: Vec<usize>,
}

/// One progress tree of the index.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Index into the shape table.
    shape: u32,
    /// Start of the pattern values in the value pool (one per shape
    /// variable).
    values: u32,
    /// Start of the site list ids in the site pool (one per frontier node).
    sites: u32,
    /// The list holding the tree.
    list: u32,
}

/// The global `trees(v, h)` data structure — the immutable half; see the
/// [module docs](self) for the layout.
#[derive(Debug)]
pub struct ProgressIndex {
    shapes: Vec<Shape>,
    entries: Vec<Entry>,
    /// Pattern values of all trees, entry after entry.
    values: Vec<PartialValue>,
    /// Site list ids of all trees ([`NONE`] for a binding without trees),
    /// entry after entry.
    site_lists: Vec<u32>,
    /// List `l` holds the entries `list_start[l]..list_start[l + 1]`, in
    /// database-preferring order.
    list_start: Vec<u32>,
    /// Per node: predecessor binding → list id.
    list_ids: Vec<FxHashMap<Vec<Value>, u32>>,
    /// Open-addressing table over `(shape, values)`: entry ids, [`NONE`] for
    /// a free slot; the length is a power of two.
    slots: Vec<u32>,
    /// Sites available before any tree is applied (the root of `T₁`).
    root_sites: Vec<Site>,
}

/// The per-cursor half of the `trees(v, h)` lists: the linkage Algorithm 1's
/// `prune` step edits.  Entries are unlinked in constant time while other
/// iterations are in flight; a removed entry keeps its `next` pointer, so an
/// iteration standing on it still finds the rest of its list.
#[derive(Debug)]
pub struct TreeLists {
    prev: Vec<u32>,
    next: Vec<u32>,
    head: Vec<u32>,
    removed: Vec<bool>,
}

impl TreeLists {
    /// The first live entry of a list.
    pub fn head(&self, list_id: usize) -> Option<usize> {
        self.skip_removed(self.head[list_id])
    }

    /// The next live entry after `entry` in its list.
    pub fn next_of(&self, entry: usize) -> Option<usize> {
        self.skip_removed(self.next[entry])
    }

    fn skip_removed(&self, mut cursor: u32) -> Option<usize> {
        while cursor != NONE && self.removed[cursor as usize] {
            cursor = self.next[cursor as usize];
        }
        some(cursor)
    }

    /// Number of live entries in a list (a walk; not for hot paths).
    pub fn live_len(&self, list_id: usize) -> usize {
        std::iter::successors(self.head(list_id), |&e| self.next_of(e)).count()
    }
}

/// A tree awaiting its place in a list: its shape and where its values sit
/// in the scratch pool.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    shape: u32,
    values: usize,
}

impl ProgressIndex {
    /// Builds the progress-tree lists for a preprocessed structure (which must
    /// have been built *without* the `complete_only` relativisation, so that
    /// labelled nulls are visible).
    pub fn build(structure: &FreeConnexStructure) -> Result<Self> {
        let node_count = structure.nodes.len();
        let mut index = ProgressIndex {
            shapes: Vec::new(),
            entries: Vec::new(),
            values: Vec::new(),
            site_lists: Vec::new(),
            list_start: vec![0],
            list_ids: vec![FxHashMap::default(); node_count],
            slots: Vec::new(),
            root_sites: Vec::new(),
        };
        if node_count == 0 {
            return Ok(index);
        }

        // ---- All connected subtrees of T₁: the shapes. ----
        // A node is *pass-through* if all its variables are predecessor
        // variables: when the traversal reaches it, everything is already
        // bound and it opens no list of its own.
        let binds_new: Vec<bool> = structure
            .nodes
            .iter()
            .map(|node| node.vars.iter().any(|v| !node.pred_vars.contains(v)))
            .collect();
        let mut shape_of: FxHashMap<Vec<usize>, u32> = FxHashMap::default();
        for root in 0..node_count {
            for nodes in connected_subtrees_rooted_at(structure, root) {
                shape_of.insert(nodes.clone(), index.shapes.len() as u32);
                index
                    .shapes
                    .push(Shape::new(structure, &binds_new, root, nodes));
            }
        }

        // ---- Number the lists: one per node and constant predecessor
        //      binding.  A tuple whose predecessor binding contains a null
        //      can only be reached as the interior of a larger progress
        //      tree, never as a root.  The structure's own predecessor index
        //      already groups the tuples by binding, so no tuple is hashed;
        //      ordering the groups by their first tuple keeps the ids
        //      independent of the hash map's iteration order. ----
        let mut lists: Vec<(usize, &[usize])> = Vec::new();
        for (node, data) in structure.nodes.iter().enumerate() {
            let mut groups: Vec<(&Vec<Value>, &Vec<usize>)> = data
                .index
                .iter()
                .filter(|(binding, _)| !binding.iter().any(|v| v.is_null()))
                .collect();
            groups.sort_unstable_by_key(|(_, tuples)| tuples[0]);
            for (binding, tuples) in groups {
                index.list_ids[node].insert(binding.clone(), lists.len() as u32);
                lists.push((node, tuples));
            }
        }

        // ---- Expand every list's tuples into its progress trees, sort
        //      them in database-preferring order, drop the repetitions (two
        //      tuples that differ in null identities only yield one tree;
        //      equal trees are adjacent after the sort) and append the list
        //      to the pools. ----
        // Per node: the column of each variable in ascending variable
        // order, and the columns shared with some child.
        let sorted_cols: Vec<Vec<usize>> = structure
            .nodes
            .iter()
            .map(|node| {
                let mut cols: Vec<usize> = (0..node.vars.len()).collect();
                cols.sort_unstable_by_key(|&c| node.extension.vars[c]);
                cols
            })
            .collect();
        let forcing_cols: Vec<Vec<usize>> = structure
            .nodes
            .iter()
            .map(|node| {
                (0..node.vars.len())
                    .filter(|&c| {
                        let var = node.extension.vars[c];
                        node.children
                            .iter()
                            .any(|&child| structure.nodes[child].pred_vars.contains(&var))
                    })
                    .collect()
            })
            .collect();
        let mut memo: ExpansionMemo = FxHashMap::default();
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut scratch: Vec<PartialValue> = Vec::new();
        for (list_id, &(node, tuples)) in lists.iter().enumerate() {
            let data = &structure.nodes[node];
            let single = shape_of[[node].as_slice()];
            candidates.clear();
            scratch.clear();
            for &tuple_idx in tuples {
                let tuple = data.extension.tuple(tuple_idx);
                let start = scratch.len();
                if forcing_cols[node].iter().all(|&c| !tuple[c].is_null()) {
                    // The common case: no null is shared with a child, so
                    // the tuple is a single-node tree — no excursion to
                    // expand, nothing to hash.
                    scratch.extend(
                        sorted_cols[node]
                            .iter()
                            .map(|&c| pattern_of_value(tuple[c])),
                    );
                    candidates.push(Candidate {
                        shape: single,
                        values: start,
                    });
                    continue;
                }
                expand(structure, node, tuple_idx, &mut memo);
                for (nodes, pattern) in &memo[&(node, tuple_idx)] {
                    candidates.push(Candidate {
                        shape: shape_of[nodes.as_slice()],
                        values: scratch.len(),
                    });
                    scratch.extend(pattern.iter().map(|&(_, value)| value));
                }
            }
            let values_of = |c: &Candidate| {
                &scratch[c.values..c.values + index.shapes[c.shape as usize].vars.len()]
            };
            candidates.sort_unstable_by(|a, b| {
                database_preferring_order(
                    &index.shapes[a.shape as usize],
                    values_of(a),
                    &index.shapes[b.shape as usize],
                    values_of(b),
                )
            });
            candidates.dedup_by(|b, a| a.shape == b.shape && values_of(a) == values_of(b));
            for candidate in &candidates {
                index.entries.push(Entry {
                    shape: candidate.shape,
                    values: index.values.len() as u32,
                    sites: 0,
                    list: list_id as u32,
                });
                let values = values_of(candidate);
                index.values.extend_from_slice(values);
            }
            index.list_start.push(index.entries.len() as u32);
        }
        // The pools and the entry table (two slots a tree) are indexed by
        // `u32`; a tree has at most one value per variable and one site per
        // node.
        let widest = structure.query.var_count().max(node_count);
        if index.entries.len() >= (NONE as usize / 2) / widest.max(1) {
            return Err(CoreError::Internal(format!(
                "{} progress trees in one shard overflow the index",
                index.entries.len()
            )));
        }

        // ---- Continuation sites: per tree, the list each frontier node of
        //      its shape opens under the tree's pattern.  All predecessor
        //      variables of a frontier node carry constants in the pattern —
        //      a labelled null would have forced the node *into* the tree —
        //      so the binding is statically known. ----
        let mut site_lists: Vec<u32> = Vec::new();
        let mut binding: Vec<Value> = Vec::new();
        for entry_id in 0..index.entries.len() {
            index.entries[entry_id].sites = site_lists.len() as u32;
            let tree = index.tree(entry_id);
            let shape = &index.shapes[index.entries[entry_id].shape as usize];
            for &v in &shape.frontier {
                binding.clear();
                for w in &structure.nodes[v].pred_vars {
                    match tree.value_of(*w) {
                        Some(PartialValue::Const(c)) => binding.push(Value::Const(c)),
                        // A wildcard predecessor would have forced `v` into
                        // the tree; defensively record a dead site.
                        _ => break,
                    }
                }
                let list = if binding.len() == structure.nodes[v].pred_vars.len() {
                    index.list_ids[v].get(binding.as_slice()).copied()
                } else {
                    None
                };
                site_lists.push(list.unwrap_or(NONE));
            }
        }
        index.site_lists = site_lists;
        if let Some(&root) = structure.preorder.first() {
            index.root_sites.push((root, index.list_for(root, &[])));
        }

        // ---- The tree → entry table. ----
        index.slots = vec![NONE; (2 * index.entries.len()).next_power_of_two()];
        for entry_id in 0..index.entries.len() {
            let entry = &index.entries[entry_id];
            let mut slot = index.slot_of(entry.shape, index.values_of(entry));
            while index.slots[slot] != NONE {
                slot = (slot + 1) & (index.slots.len() - 1);
            }
            index.slots[slot] = entry_id as u32;
        }
        Ok(index)
    }

    /// Where the probe sequence of `(shape, values)` starts in the table.
    fn slot_of(&self, shape: u32, values: &[PartialValue]) -> usize {
        let mut hasher = FxHasher::default();
        hasher.write_u32(shape);
        for value in values {
            hasher.write_u64(match value {
                PartialValue::Const(c) => u64::from(c.0),
                PartialValue::Star => u64::MAX,
            });
        }
        // The multiplicative hash mixes upwards: take the high bits.
        (hasher.finish() >> 32) as usize & (self.slots.len() - 1)
    }

    /// A fresh linkage over all trees: what a cursor edits while it prunes.
    pub fn lists(&self) -> TreeLists {
        let entries = self.entries.len();
        let mut lists = TreeLists {
            prev: Vec::with_capacity(entries),
            next: Vec::with_capacity(entries),
            head: Vec::with_capacity(self.list_start.len() - 1),
            removed: vec![false; entries],
        };
        for range in self.list_start.windows(2) {
            let (start, end) = (range[0], range[1]);
            lists.head.push(if start < end { start } else { NONE });
            for entry in start..end {
                lists
                    .prev
                    .push(if entry > start { entry - 1 } else { NONE });
                lists
                    .next
                    .push(if entry + 1 < end { entry + 1 } else { NONE });
            }
        }
        lists
    }

    /// Removes an entry from `lists` (constant-time unlink).  Returns `true`
    /// iff it was live.
    pub fn remove_entry(&self, lists: &mut TreeLists, entry_id: usize) -> bool {
        if std::mem::replace(&mut lists.removed[entry_id], true) {
            return false;
        }
        let (prev, next) = (lists.prev[entry_id], lists.next[entry_id]);
        match some(prev) {
            Some(p) => lists.next[p] = next,
            None => lists.head[self.entries[entry_id].list as usize] = next,
        }
        if let Some(n) = some(next) {
            lists.prev[n] = prev;
        }
        true
    }

    /// The continuation sites of an entry's tree.
    pub fn sites_of(&self, entry: usize) -> impl Iterator<Item = Site> + '_ {
        let Entry { shape, sites, .. } = self.entries[entry];
        let frontier = &self.shapes[shape as usize].frontier;
        let lists = &self.site_lists[sites as usize..sites as usize + frontier.len()];
        frontier
            .iter()
            .zip(lists)
            .map(|(&node, &list)| (node, some(list)))
    }

    /// The sites available before any tree is applied (the root of `T₁`).
    pub fn root_sites(&self) -> &[Site] {
        &self.root_sites
    }

    /// The progress tree stored at an entry.
    pub fn tree(&self, entry: usize) -> ProgressTree<'_> {
        let entry = &self.entries[entry];
        let shape = &self.shapes[entry.shape as usize];
        ProgressTree {
            root: shape.root,
            nodes: &shape.nodes,
            vars: &shape.vars,
            values: self.values_of(entry),
        }
    }

    /// The pattern values of an entry: one per variable of its shape.
    fn values_of(&self, entry: &Entry) -> &[PartialValue] {
        let width = self.shapes[entry.shape as usize].vars.len();
        &self.values[entry.values as usize..entry.values as usize + width]
    }

    /// Does `entry_id` hold exactly the tree of shape `shape` with `values`?
    fn holds(&self, entry_id: usize, shape: usize, values: &[PartialValue]) -> bool {
        let entry = &self.entries[entry_id];
        entry.shape as usize == shape && self.values_of(entry) == values
    }

    /// Finds the entry in `list_id` whose tree has the shape `shape` (see
    /// [`ProgressIndex::shapes`]) and exactly the given pattern values, by
    /// binary search over the list's entry range — no hashing.  Knows
    /// nothing of removals: a [`TreeLists`] may have unlinked the entry.
    pub fn find_in_list(
        &self,
        list_id: usize,
        shape: usize,
        values: &[PartialValue],
    ) -> Option<usize> {
        let start = self.list_start[list_id] as usize;
        let end = self.list_start[list_id + 1] as usize;
        let probe = &self.shapes[shape];
        let within = self.entries[start..end].partition_point(|entry| {
            let stored = &self.shapes[entry.shape as usize];
            database_preferring_order(stored, self.values_of(entry), probe, values)
                == Ordering::Less
        });
        let entry = start + within;
        (entry < end && self.holds(entry, shape, values)).then_some(entry)
    }

    /// Looks up the entry holding exactly the tree of shape `shape` with the
    /// given pattern values.  One hash probe — the prune step looks up every
    /// candidate weakening of an output this way, which beats a binary
    /// search over the list (each probe of which re-compares the pattern) by
    /// a constant factor that matters at once-per-answer frequency.
    pub fn entry_of(&self, shape: usize, values: &[PartialValue]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut slot = self.slot_of(shape as u32, values);
        loop {
            let entry = some(self.slots[slot])?;
            if self.holds(entry, shape, values) {
                return Some(entry);
            }
            slot = (slot + 1) & (self.slots.len() - 1);
        }
    }

    /// The list id for `(node, predecessor binding)`, if any tree exists.
    pub fn list_for(&self, node: usize, pred_binding: &[Value]) -> Option<usize> {
        self.list_ids[node]
            .get(pred_binding)
            .map(|&list| list as usize)
    }

    /// Total number of progress trees.
    pub fn total_trees(&self) -> usize {
        self.entries.len()
    }

    /// All connected subtrees of `T₁` — the shapes a progress tree can have —
    /// as `(root, nodes, variables, pinned)`, the position being the shape
    /// id [`ProgressIndex::entry_of`] and [`ProgressIndex::find_in_list`]
    /// take.  `pinned[i]` says that `variables[i]` is a predecessor variable
    /// of the root, which no tree of the shape maps to a wildcard.
    pub fn shapes(&self) -> impl Iterator<Item = (usize, &[usize], &[VarId], &[bool])> {
        self.shapes.iter().map(|shape| {
            (
                shape.root,
                shape.nodes.as_slice(),
                shape.vars.as_slice(),
                shape.pinned.as_slice(),
            )
        })
    }
}

impl Shape {
    fn new(
        structure: &FreeConnexStructure,
        binds_new: &[bool],
        root: usize,
        nodes: Vec<usize>,
    ) -> Shape {
        let mut vars: Vec<VarId> = nodes
            .iter()
            .flat_map(|&n| structure.nodes[n].vars.iter().copied())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let pinned = vars
            .iter()
            .map(|v| structure.nodes[root].pred_vars.contains(v))
            .collect();
        let mut frontier: Vec<usize> = Vec::new();
        let mut stack: Vec<usize> = nodes
            .iter()
            .flat_map(|&n| structure.nodes[n].children.iter().copied())
            .filter(|child| !nodes.contains(child))
            .collect();
        while let Some(v) = stack.pop() {
            frontier.push(v);
            if !binds_new[v] {
                // Pass-through: its children's predecessor variables are all
                // within `v.vars ⊆ v.pred_vars`, hence still covered by the
                // tree's pattern.
                stack.extend(&structure.nodes[v].children);
            }
        }
        Shape {
            root,
            nodes,
            vars,
            pinned,
            frontier,
        }
    }
}

/// The database-preferring order of a `trees(v, h)` list, as a total order
/// on trees: fewer nodes first, then fewer wildcards, then the patterns as
/// `(variable, value)` sequences, then the node sets.
fn database_preferring_order(
    a: &Shape,
    a_values: &[PartialValue],
    b: &Shape,
    b_values: &[PartialValue],
) -> Ordering {
    let rank = |shape: &Shape, values| (shape.nodes.len(), star_count(values));
    rank(a, a_values)
        .cmp(&rank(b, b_values))
        .then_with(|| {
            if std::ptr::eq(a, b) {
                return a_values.cmp(b_values);
            }
            let (a_pairs, b_pairs) = (a.vars.iter().zip(a_values), b.vars.iter().zip(b_values));
            a_pairs.cmp(b_pairs)
        })
        .then_with(|| a.nodes.cmp(&b.nodes))
}

/// Enumerates the node sets of all connected subtrees of `T₁` rooted at
/// `root`: `{root}` unioned with subtrees rooted at any subset of the
/// children.
fn connected_subtrees_rooted_at(structure: &FreeConnexStructure, root: usize) -> Vec<Vec<usize>> {
    let children = &structure.nodes[root].children;
    // Options per child: either exclude the child or include one of its
    // subtrees.
    let mut result: Vec<Vec<usize>> = vec![vec![root]];
    for &child in children {
        let child_subtrees = connected_subtrees_rooted_at(structure, child);
        let mut extended = Vec::new();
        for base in &result {
            extended.push(base.clone());
            for cs in &child_subtrees {
                let mut merged = base.clone();
                merged.extend_from_slice(cs);
                extended.push(merged);
            }
        }
        result = extended;
    }
    for nodes in &mut result {
        nodes.sort_unstable();
        nodes.dedup();
    }
    result
}

/// One expansion of an extension tuple: the included nodes, sorted, and the
/// pattern over their variables, sorted by variable.
type Expansion = (Vec<usize>, Vec<(VarId, PartialValue)>);

/// Memoisation table of [`expand`], keyed by `(node, tuple index)`; the
/// expansions of a tuple are distinct and sorted.
type ExpansionMemo = FxHashMap<(usize, usize), Vec<Expansion>>;

/// Expands a tuple of a node's extension into the progress trees it
/// generates — the node itself plus, recursively, every child whose shared
/// variables carry a labelled null (which forces the excursion to continue
/// into that child) — and leaves them in `memo`.
fn expand(
    structure: &FreeConnexStructure,
    node: usize,
    tuple_idx: usize,
    memo: &mut ExpansionMemo,
) {
    if memo.contains_key(&(node, tuple_idx)) {
        return;
    }
    let node_data = &structure.nodes[node];
    let tuple = node_data.extension.tuple(tuple_idx);
    let mut own_pattern: Vec<(VarId, PartialValue)> = node_data
        .extension
        .vars
        .iter()
        .zip(tuple)
        .map(|(&v, &value)| (v, pattern_of_value(value)))
        .collect();
    own_pattern.sort_unstable();
    let mut partials: Vec<Expansion> = vec![(vec![node], own_pattern)];
    let mut key: Vec<Value> = Vec::new();
    for &child in &node_data.children {
        // Children forced into the excursion: those sharing a null-valued
        // variable with this tuple.
        let child_data = &structure.nodes[child];
        key.clear();
        key.extend(child_data.pred_vars.iter().map(|v| {
            node_data
                .extension
                .value_at(tuple_idx, *v)
                .expect("shared var present in parent")
        }));
        if !key.iter().any(|v| v.is_null()) {
            continue;
        }
        // Candidate child tuples: those agreeing with this tuple on the
        // shared variables (including the concrete null identities).  With
        // none, the excursion cannot be completed through this child and
        // the tuple generates no progress tree.  (This cannot happen after
        // the bottom-up reduction, but is handled defensively.)
        let candidates: &[usize] = child_data
            .index
            .get(key.as_slice())
            .map_or(&[], Vec::as_slice);
        for &candidate in candidates {
            expand(structure, child, candidate, memo);
        }
        let mut options: Vec<&Expansion> = candidates
            .iter()
            .flat_map(|&candidate| &memo[&(child, candidate)])
            .collect();
        options.sort_unstable();
        options.dedup();
        let mut extended = Vec::with_capacity(partials.len() * options.len());
        for (nodes, pattern) in &partials {
            for (child_nodes, child_pattern) in &options {
                if let Some(merged) = merge_patterns(pattern, child_pattern) {
                    let mut merged_nodes = nodes.clone();
                    merged_nodes.extend_from_slice(child_nodes);
                    extended.push((merged_nodes, merged));
                }
            }
        }
        partials = extended;
    }
    // `partials` may legitimately be empty for dangling tuples (tuples whose
    // forced excursion cannot be completed); those simply generate no
    // progress tree.
    for (nodes, _) in &mut partials {
        nodes.sort_unstable();
    }
    partials.sort_unstable();
    partials.dedup();
    memo.insert((node, tuple_idx), partials);
}

/// The union of two patterns sorted by variable, or `None` if they disagree
/// on a shared variable.
fn merge_patterns(
    a: &[(VarId, PartialValue)],
    b: &[(VarId, PartialValue)],
) -> Option<Vec<(VarId, PartialValue)>> {
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            Ordering::Less => {
                merged.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                merged.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                if a[i].1 != b[j].1 {
                    return None;
                }
                merged.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&a[i..]);
    merged.extend_from_slice(&b[j..]);
    Some(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_cq::ConjunctiveQuery;
    use omq_data::{Database, Fact, Schema};

    /// A database over R/2, S/2 with a mix of constants and nulls, shaped like
    /// a query-directed chase: nulls only co-occur with constants of "their"
    /// fact.
    fn nullful_db() -> Database {
        let mut s = Schema::new();
        s.add_relation("R", 2).unwrap();
        s.add_relation("S", 2).unwrap();
        let mut db = Database::new(s);
        db.add_named_fact("R", &["a", "b"]).unwrap();
        db.add_named_fact("S", &["b", "c"]).unwrap();
        db.add_named_fact("R", &["d", "e"]).unwrap();
        let r = db.schema().relation_id("R").unwrap();
        let s_rel = db.schema().relation_id("S").unwrap();
        let e = Value::Const(db.const_id("e").unwrap());
        let d = Value::Const(db.const_id("d").unwrap());
        let n1 = Value::Null(db.fresh_null());
        let n2 = Value::Null(db.fresh_null());
        // d's excursion: S(e, n1)
        db.add_fact(Fact::new(s_rel, vec![e, n1])).unwrap();
        // a fully anonymous chain R(d, n2), S(n2, n1) is *not* added; instead a
        // second anonymous R successor for d:
        db.add_fact(Fact::new(r, vec![d, n2])).unwrap();
        db
    }

    /// [`nullful_db`] plus `f` with two isomorphic anonymous chains
    /// `R(f, n)`, `S(n, m)`: excursions that have to continue into a child.
    fn excursion_db() -> Database {
        let mut db = nullful_db();
        let r = db.schema().relation_id("R").unwrap();
        let s_rel = db.schema().relation_id("S").unwrap();
        let f = Value::Const(db.intern_const("f"));
        let [n3, n4, n5, n6] = [(); 4].map(|()| Value::Null(db.fresh_null()));
        db.add_fact(Fact::new(r, vec![f, n3])).unwrap();
        db.add_fact(Fact::new(s_rel, vec![n3, n4])).unwrap();
        db.add_fact(Fact::new(r, vec![f, n5])).unwrap();
        db.add_fact(Fact::new(s_rel, vec![n5, n6])).unwrap();
        db
    }

    fn structure_over(db: &Database) -> FreeConnexStructure {
        let q = ConjunctiveQuery::parse("q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        FreeConnexStructure::build(&q, db, false).unwrap()
    }

    fn structure() -> FreeConnexStructure {
        structure_over(&nullful_db())
    }

    /// The entries of a list, in list order.
    fn walk(lists: &TreeLists, list: usize) -> Vec<usize> {
        std::iter::successors(lists.head(list), |&e| lists.next_of(e)).collect()
    }

    /// The shape id of a node set.
    fn shape_of(index: &ProgressIndex, nodes: &[usize]) -> usize {
        index
            .shapes()
            .position(|(_, shape_nodes, _, _)| shape_nodes == nodes)
            .expect("a connected subtree")
    }

    #[test]
    fn builds_lists_for_every_constant_predecessor_binding() {
        let s = structure();
        let index = ProgressIndex::build(&s).unwrap();
        assert!(index.total_trees() > 0);
        // The root node has an empty predecessor binding.
        let root = s.preorder[0];
        let list = index.list_for(root, &[]).expect("root list exists");
        let lists = index.lists();
        assert!(lists.live_len(list) > 0);
        assert_eq!(index.root_sites(), &[(root, Some(list))]);
        // Lists are sorted in database-preferring order (stars increase).
        let mut last_key = (0usize, 0usize);
        for entry in walk(&lists, list) {
            let tree = index.tree(entry);
            let key = (tree.nodes.len(), tree.star_count());
            assert!(key >= last_key, "database-preferring order violated");
            last_key = key;
        }
        // A binding that does not occur has no list.
        let child = s.nodes[root].children[0];
        assert_eq!(index.list_for(child, &[]), None);
    }

    /// `R(f, n)`, `S(n, m)` make the two-node tree `(f, *, *)`, whichever of
    /// the two atoms roots `T₁`; the two isomorphic excursions of `f` make
    /// one tree, not two.
    #[test]
    fn database_preferring_order_and_lookups_on_the_pools() {
        let db = excursion_db();
        let s = structure_over(&db);
        let q = &s.query;
        let index = ProgressIndex::build(&s).unwrap();
        let lists = index.lists();
        let root = s.preorder[0];
        let root_list = index.list_for(root, &[]).unwrap();
        let in_order = walk(&lists, root_list);
        // Entry ids of a list are contiguous and in list order.
        assert_eq!(
            in_order,
            (in_order[0]..in_order[0] + in_order.len()).collect::<Vec<_>>()
        );
        // Exactly the sort the list was specified by: node count, wildcard
        // count, pattern as (variable, value) pairs, node set — strictly
        // increasing, so no tree is stored twice.
        let key = |e: usize| {
            let t = index.tree(e);
            let pattern: Vec<_> = t.vars.iter().zip(t.values).collect();
            (t.nodes.len(), t.star_count(), pattern, t.nodes)
        };
        for pair in in_order.windows(2) {
            assert!(key(pair[0]) < key(pair[1]), "{pair:?} out of order");
        }
        // Single-node trees with constants only come first, the two-node
        // excursion `(f, *, *)` last and once.
        let first = index.tree(in_order[0]);
        assert_eq!((first.nodes.len(), first.star_count()), (1, 0));
        let both: Vec<usize> = {
            let mut nodes = vec![root, s.nodes[root].children[0]];
            nodes.sort_unstable();
            nodes
        };
        let excursions: Vec<usize> = in_order
            .iter()
            .copied()
            .filter(|&e| index.tree(e).nodes == both)
            .collect();
        assert_eq!(excursions, vec![*in_order.last().unwrap()]);
        let excursion = index.tree(excursions[0]);
        assert_eq!(excursion.root, root);
        assert_eq!(excursion.star_count(), 2);
        assert_eq!(
            excursion.value_of(q.var_id("x").unwrap()),
            Some(PartialValue::Const(db.const_id("f").unwrap()))
        );
        // It covers both nodes, so it publishes no site; a single-node root
        // tree publishes the child's list under its own constants.
        assert_eq!(index.sites_of(excursions[0]).count(), 0);
        let child = s.nodes[root].children[0];
        for (site_node, list) in index.sites_of(in_order[0]) {
            assert_eq!(site_node, child);
            let list = list.expect("the reduction leaves a matching child tuple");
            assert!(lists.live_len(list) > 0);
        }

        // Every tree is found by both lookups, from its shape and values
        // alone, in every list; a pattern that is no tree by neither.
        for list in 0..index.list_start.len() - 1 {
            for entry in walk(&lists, list) {
                let tree = index.tree(entry);
                let shape = shape_of(&index, tree.nodes);
                assert_eq!(index.entry_of(shape, tree.values), Some(entry));
                assert_eq!(index.find_in_list(list, shape, tree.values), Some(entry));
                let mut weakened = tree.values.to_vec();
                weakened.fill(PartialValue::Star);
                if weakened != tree.values && index.entry_of(shape, &weakened).is_none() {
                    assert_eq!(index.find_in_list(list, shape, &weakened), None);
                }
            }
        }
        let two_node = shape_of(&index, &both);
        let no_tree = [PartialValue::Star; 3];
        assert_eq!(index.entry_of(two_node, &no_tree), None);
        assert_eq!(index.find_in_list(root_list, two_node, &no_tree), None);
    }

    #[test]
    fn shapes_cover_every_connected_subtree() {
        let s = structure();
        let index = ProgressIndex::build(&s).unwrap();
        // A path of two nodes has the shapes {root}, {root, child}, {child}.
        assert_eq!(index.shapes().count(), 3);
        for (root, nodes, vars, pinned) in index.shapes() {
            assert!(nodes.contains(&root));
            assert!(!vars.is_empty());
            assert!(vars.windows(2).all(|w| w[0] < w[1]));
            for (var, &is_pinned) in vars.iter().zip(pinned) {
                assert_eq!(is_pinned, s.nodes[root].pred_vars.contains(var));
            }
        }
    }

    #[test]
    fn removal_relinks_neighbours_in_one_cursor_only() {
        let s = structure_over(&excursion_db());
        let index = ProgressIndex::build(&s).unwrap();
        let root = s.preorder[0];
        let list = index.list_for(root, &[]).unwrap();
        let mut lists = index.lists();
        let untouched = index.lists();
        let entries = walk(&lists, list);
        assert_eq!(entries.len(), lists.live_len(list));
        assert!(entries.len() >= 3);
        // Removing the middle element relinks its neighbours, once.
        assert!(index.remove_entry(&mut lists, entries[1]));
        assert!(!index.remove_entry(&mut lists, entries[1]));
        let mut survivors = entries.clone();
        survivors.remove(1);
        assert_eq!(walk(&lists, list), survivors);
        // An iteration standing on the removed entry still finds the rest.
        assert_eq!(lists.next_of(entries[1]), Some(entries[2]));
        // Removing the head moves the head on.
        assert!(index.remove_entry(&mut lists, entries[0]));
        assert_eq!(lists.head(list), Some(entries[2]));
        // The index and any other linkage over it saw none of this.
        assert_eq!(walk(&untouched, list), entries);
        assert_eq!(walk(&index.lists(), list), entries);
        let tree = index.tree(entries[1]);
        let shape = shape_of(&index, tree.nodes);
        assert_eq!(index.entry_of(shape, tree.values), Some(entries[1]));
    }

    #[test]
    fn empty_structure_yields_empty_index() {
        let q = ConjunctiveQuery::parse("q(x) :- Missing(x)").unwrap();
        let mut schema = Schema::new();
        schema.add_relation("R", 1).unwrap();
        let db = Database::new(schema);
        let s = FreeConnexStructure::build(&q, &db, false).unwrap();
        assert!(s.empty);
        let index = ProgressIndex::build(&s).unwrap();
        assert_eq!(index.total_trees(), 0);
        assert_eq!(index.entry_of(0, &[]), None);
    }
}
