//! The shared preprocessing of the constant-delay engines: from an acyclic,
//! free-connex acyclic query `q₀` and a (possibly chased) database `D₀`,
//! construct a *full*, acyclic, self-join-free query `q₁` over reduced
//! extensions `D₁` satisfying the conditions (i)–(iv) of Section 5 of the
//! paper:
//!
//! * (i) `q₁` has no quantified variables and has a join tree `T₁`;
//! * (ii) every tuple of `D₁` stems from a fact of `D₀`;
//! * (iii) `q₀(D₀) = q₁(D₁)` (as sets of tuples, including labelled nulls),
//!   hence the minimal partial answers coincide as well;
//! * (iv) the *progress condition*: every tuple of a node has a matching tuple
//!   in each of its children, so a pre-order traversal never gets stuck.
//!
//! The construction is split into two phases, mirroring the
//! compile-once/execute-many architecture of the crate:
//!
//! 1. [`PlanSkeleton::compile`] derives every artefact that depends only on
//!    the *query*: the acyclicity classification, the join tree `T⁺` of
//!    `q⁺ = q₀ ∧ R₀(x̄)` rooted at the virtual guard atom `R₀`, the reduced
//!    `q₁` node layout (variables, parent/children, predecessor variables,
//!    pre-order), and the answer-column sources.  A skeleton is compiled once
//!    per OMQ and reused for any number of databases.  It is also the home
//!    of Algorithm 2's label templates, which depend on the query alone but
//!    are filled lazily by the cursors that need them.
//! 2. [`FreeConnexStructure::materialize`] fills a skeleton with data: it
//!    scans the atom extensions from the columnar indexes, reduces every
//!    subtree bottom-up by semijoins, projects the children of the guard onto
//!    their answer variables, and finally lays out, for every non-root node,
//!    a dense CSR *parent join* mapping each parent tuple to its matching
//!    tuples — the structure the constant-delay enumerator walks without any
//!    hashing.

use crate::error::CoreError;
use crate::extension::{Extension, Tuple};
use crate::multi_templates::MultiTemplates;
use crate::Result;
use omq_cq::acyclicity::{self, guard_node_id, AcyclicityReport};
use omq_cq::hypergraph::Hypergraph;
use omq_cq::{ConjunctiveQuery, VarId};
use omq_data::Database;
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::{Arc, OnceLock};

/// One `q₁` node of a compiled [`PlanSkeleton`]: the data-independent layout
/// of the corresponding [`NodeData`].
#[derive(Debug, Clone)]
pub struct SkeletonNode {
    /// The original `q₀` atom (child of the guard in `T⁺`) this node stems
    /// from.
    pub atom_index: usize,
    /// The node's variables (answer variables of `q₀`, in a fixed order).
    pub vars: Vec<VarId>,
    /// Parent node in `T₁` (`None` for the root).
    pub parent: Option<usize>,
    /// Children in `T₁`.
    pub children: Vec<usize>,
    /// Variables shared with the parent (empty for the root).
    pub pred_vars: Vec<VarId>,
}

/// The query-side half of the preprocessing: everything derivable from the
/// query alone, compiled once and reusable across databases.
#[derive(Debug, Clone)]
pub struct PlanSkeleton {
    /// The original query `q₀`.
    pub query: ConjunctiveQuery,
    /// Structural classification of the query.
    pub report: AcyclicityReport,
    /// The distinct answer variables, in first-occurrence order.
    pub distinct_answer_vars: Vec<VarId>,
    /// The answer tuple `x̄` (possibly with repeated variables).
    pub answer_positions: Vec<VarId>,
    /// `true` iff the query is Boolean (decided per database).
    pub boolean: bool,
    /// Bottom-up semijoin schedule over `T⁺` (guard excluded): for every
    /// atom, its children in the rooted `T⁺`.
    plus_schedule: Vec<(usize, Vec<usize>)>,
    /// The `q₁` node layout.
    pub nodes: Vec<SkeletonNode>,
    /// Node indices in pre-order (root of `T₁` first).
    pub preorder: Vec<usize>,
    /// For every answer position: the `(node, column)` of `T₁` supplying its
    /// value (the first pre-order node containing the variable).
    pub answer_sources: Vec<(usize, usize)>,
    /// Algorithm 2's cone/ball/dominated-set templates: created and filled
    /// by the multi-wildcard cursors and counts (the other semantics never
    /// touch them) and shared by all of them.
    multi: OnceLock<Arc<MultiTemplates>>,
}

impl PlanSkeleton {
    /// Compiles the query-side artefacts.  Returns an error if the query is
    /// not both acyclic and free-connex acyclic.
    pub fn compile(query: &ConjunctiveQuery) -> Result<PlanSkeleton> {
        query.validate()?;
        let report = AcyclicityReport::classify(query);
        if !report.acyclic || !report.free_connex_acyclic {
            return Err(CoreError::NotEnumerationTractable(query.to_string()));
        }

        let distinct_answer_vars = query.distinct_answer_vars();
        let answer_positions = query.answer_vars().to_vec();
        let mut skeleton = PlanSkeleton {
            query: query.clone(),
            report,
            distinct_answer_vars: distinct_answer_vars.clone(),
            answer_positions,
            boolean: query.is_boolean(),
            plus_schedule: Vec::new(),
            nodes: Vec::new(),
            preorder: Vec::new(),
            answer_sources: Vec::new(),
            multi: OnceLock::new(),
        };
        if skeleton.boolean || query.atoms().is_empty() {
            return Ok(skeleton);
        }

        // ---- Join tree of q⁺ rooted at the guard; reduction schedule. ----
        let guard = guard_node_id(query);
        let tree_plus = acyclicity::join_tree_plus(query)
            .ok_or_else(|| CoreError::NotFreeConnex(query.to_string()))?;
        let rooted = tree_plus.rooted_at(guard);
        for &node in &rooted.bottom_up() {
            if node == guard {
                continue;
            }
            skeleton
                .plus_schedule
                .push((node, rooted.children_of(node).to_vec()));
        }

        // ---- q₁ layout: children of the guard, kept iff they carry answer
        //      variables (purely quantified subtrees act as Boolean filters
        //      and are dropped after the reduction checks them). ----
        let answer_set: FxHashSet<VarId> = distinct_answer_vars.iter().copied().collect();
        struct Proto {
            atom_index: usize,
            vars: Vec<VarId>,
        }
        let mut protos: Vec<Proto> = Vec::new();
        for &child in rooted.children_of(guard) {
            let vars: Vec<VarId> = query.atoms()[child]
                .variables()
                .into_iter()
                .filter(|v| answer_set.contains(v))
                .collect();
            if vars.is_empty() {
                continue;
            }
            protos.push(Proto {
                atom_index: child,
                vars,
            });
        }
        // Every answer variable must be covered (it occurs in some atom and
        // therefore in some child of the guard).
        let covered: FxHashSet<VarId> = protos.iter().flat_map(|p| p.vars.clone()).collect();
        if !distinct_answer_vars.iter().all(|v| covered.contains(v)) {
            return Err(CoreError::Internal(
                "answer variable not covered by q1 nodes".to_owned(),
            ));
        }

        // ---- Join tree T₁ of q₁. ----
        let mut hypergraph = Hypergraph::new();
        for (i, p) in protos.iter().enumerate() {
            hypergraph.add_edge(i, p.vars.iter().copied());
        }
        let t1 = hypergraph
            .gyo()
            .ok_or_else(|| CoreError::Internal("q1 hypergraph unexpectedly cyclic".to_owned()))?;
        // Root at the node with the largest variable set (any root is valid).
        let root = (0..protos.len())
            .max_by_key(|&i| protos[i].vars.len())
            .expect("q1 has at least one node");
        let rooted1 = t1.rooted_at(root);

        for (i, p) in protos.iter().enumerate() {
            let parent = rooted1.parent_of(i);
            let pred_vars: Vec<VarId> = match parent {
                Some(parent_idx) => p
                    .vars
                    .iter()
                    .copied()
                    .filter(|v| protos[parent_idx].vars.contains(v))
                    .collect(),
                None => Vec::new(),
            };
            skeleton.nodes.push(SkeletonNode {
                atom_index: p.atom_index,
                vars: p.vars.clone(),
                parent,
                children: rooted1.children_of(i).to_vec(),
                pred_vars,
            });
        }
        skeleton.preorder = rooted1.preorder.clone();

        // ---- Answer sources: first pre-order node containing each answer
        //      position's variable. ----
        for &var in &skeleton.answer_positions {
            let source = skeleton
                .preorder
                .iter()
                .find_map(|&n| {
                    skeleton.nodes[n]
                        .vars
                        .iter()
                        .position(|&v| v == var)
                        .map(|col| (n, col))
                })
                .ok_or_else(|| {
                    CoreError::Internal("answer variable without a source node".to_owned())
                })?;
            skeleton.answer_sources.push(source);
        }
        Ok(skeleton)
    }

    /// The number of `q₁` nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The plan-wide template cache of Algorithm 2.
    pub(crate) fn multi_templates(&self) -> &Arc<MultiTemplates> {
        self.multi
            .get_or_init(|| Arc::new(MultiTemplates::new(&self.query)))
    }
}

/// Dense CSR join from parent tuples to the matching own tuples: the tuples
/// of node `v` compatible with parent tuple `t` are
/// `tuples[offsets[t]..offsets[t + 1]]`.  The enumeration phase follows these
/// slices instead of hashing predecessor bindings.
#[derive(Debug, Clone, Default)]
pub struct JoinCsr {
    /// One entry per parent tuple, plus one.
    pub offsets: Vec<u32>,
    /// Own tuple indices grouped by parent tuple.
    pub tuples: Vec<u32>,
}

impl JoinCsr {
    /// The own-tuple indices matching parent tuple `parent_idx`.
    #[inline]
    pub fn matching(&self, parent_idx: usize) -> &[u32] {
        let lo = self.offsets[parent_idx] as usize;
        let hi = self.offsets[parent_idx + 1] as usize;
        &self.tuples[lo..hi]
    }
}

/// One node of the preprocessed structure (an atom of `q₁`).
#[derive(Debug, Clone)]
pub struct NodeData {
    /// The original `q₀` atom (child of the guard in `T⁺`) this node stems
    /// from.
    pub atom_index: usize,
    /// The node's variables (answer variables of `q₀`, in a fixed order).
    pub vars: Vec<VarId>,
    /// The reduced extension over [`NodeData::vars`].
    pub extension: Extension,
    /// Parent node in `T₁` (`None` for the root).
    pub parent: Option<usize>,
    /// Children in `T₁`.
    pub children: Vec<usize>,
    /// The predecessor variables: variables shared with the parent (empty for
    /// the root).
    pub pred_vars: Vec<VarId>,
    /// Index from the projection onto [`NodeData::pred_vars`] to the matching
    /// tuple indices of [`NodeData::extension`] (used at preprocessing time;
    /// the enumeration phase uses [`NodeData::parent_join`]).
    pub index: FxHashMap<Tuple, Vec<usize>>,
    /// Dense parent-tuple → own-tuples join (`None` for nodes with no
    /// predecessor variables, whose candidates are all tuples).
    pub parent_join: Option<JoinCsr>,
}

/// The preprocessed structure shared by the constant-delay enumerators and
/// testers.
#[derive(Debug, Clone)]
pub struct FreeConnexStructure {
    /// The original query `q₀`.
    pub query: ConjunctiveQuery,
    /// The distinct answer variables, in first-occurrence order.
    pub distinct_answer_vars: Vec<VarId>,
    /// The answer tuple `x̄` (possibly with repeated variables).
    pub answer_positions: Vec<VarId>,
    /// The `q₁` nodes.
    pub nodes: Vec<NodeData>,
    /// Node indices in pre-order (roots of `T₁` first).
    pub preorder: Vec<usize>,
    /// For every answer position: the `(node, column)` supplying its value.
    pub answer_sources: Vec<(usize, usize)>,
    /// `true` iff the answer set is empty (detected during preprocessing).
    pub empty: bool,
    /// For Boolean queries: whether the query holds (`None` for non-Boolean
    /// queries).
    pub boolean_satisfiable: Option<bool>,
}

impl FreeConnexStructure {
    /// Builds the structure, compiling a throwaway [`PlanSkeleton`] first.
    /// `complete_only` drops tuples that assign a labelled null to an answer
    /// variable (the `P_db` relativisation used for complete answers); the
    /// partial-answer engines pass `false`.
    ///
    /// Returns an error if the query is not both acyclic and free-connex
    /// acyclic.  Callers evaluating one query over many databases should
    /// compile the skeleton once and call
    /// [`FreeConnexStructure::materialize`].
    pub fn build(
        query: &ConjunctiveQuery,
        db: &Database,
        complete_only: bool,
    ) -> Result<FreeConnexStructure> {
        let skeleton = PlanSkeleton::compile(query)?;
        Self::materialize(&skeleton, db, complete_only)
    }

    /// Fills a compiled skeleton with the data of `db`.
    pub fn materialize(
        skeleton: &PlanSkeleton,
        db: &Database,
        complete_only: bool,
    ) -> Result<FreeConnexStructure> {
        let query = &skeleton.query;
        let mut structure = FreeConnexStructure {
            query: query.clone(),
            distinct_answer_vars: skeleton.distinct_answer_vars.clone(),
            answer_positions: skeleton.answer_positions.clone(),
            nodes: Vec::new(),
            preorder: Vec::new(),
            answer_sources: Vec::new(),
            empty: false,
            boolean_satisfiable: None,
        };

        if skeleton.boolean {
            let holds = crate::yannakakis::boolean_holds_acyclic(query, db)?;
            structure.boolean_satisfiable = Some(holds);
            structure.empty = !holds;
            return Ok(structure);
        }
        if query.atoms().is_empty() {
            // Non-Boolean query with no atoms cannot have bound answer
            // variables; `validate` already rejected this.
            structure.empty = true;
            return Ok(structure);
        }

        // ---- Extensions of the original atoms. ----
        let drop_nulls: FxHashSet<VarId> = if complete_only {
            skeleton.distinct_answer_vars.iter().copied().collect()
        } else {
            FxHashSet::default()
        };
        let mut extensions: Vec<Extension> = query
            .atoms()
            .iter()
            .map(|a| Extension::of_atom(a, db, &drop_nulls))
            .collect();
        if extensions.iter().any(Extension::is_empty) {
            structure.empty = true;
            return Ok(structure);
        }

        // ---- Bottom-up reduction along T⁺ (precompiled schedule). ----
        for (node, children) in &skeleton.plus_schedule {
            for &child in children {
                let child_ext = extensions[child].clone();
                extensions[*node].semijoin(&child_ext);
            }
            if extensions[*node].is_empty() {
                structure.empty = true;
                return Ok(structure);
            }
        }

        // ---- q₁ extensions: project onto the skeleton's node variables. ----
        let mut q1_exts: Vec<Extension> = skeleton
            .nodes
            .iter()
            .map(|n| extensions[n.atom_index].project(&n.vars))
            .collect();

        // ---- Bottom-up semijoin reduction of q₁ (progress condition). ----
        for &node in skeleton.preorder.iter().rev() {
            for &child in &skeleton.nodes[node].children {
                let child_ext = q1_exts[child].clone();
                q1_exts[node].semijoin(&child_ext);
            }
            if q1_exts[node].is_empty() {
                structure.empty = true;
                return Ok(structure);
            }
        }

        // ---- Assemble nodes: hash index (preprocessing) + dense parent
        //      join CSR (enumeration). ----
        let mut nodes: Vec<NodeData> = Vec::with_capacity(skeleton.nodes.len());
        for (i, sk) in skeleton.nodes.iter().enumerate() {
            let index = q1_exts[i].index_on(&sk.pred_vars);
            nodes.push(NodeData {
                atom_index: sk.atom_index,
                vars: sk.vars.clone(),
                extension: q1_exts[i].clone(),
                parent: sk.parent,
                children: sk.children.clone(),
                pred_vars: sk.pred_vars.clone(),
                index,
                parent_join: None,
            });
        }
        // The CSR needs the parent's final extension, so fill it in a second
        // pass.
        for i in 0..nodes.len() {
            let Some(parent) = nodes[i].parent else {
                continue;
            };
            if nodes[i].pred_vars.is_empty() {
                continue; // all tuples match every parent tuple
            }
            let parent_positions: Vec<usize> = nodes[i]
                .pred_vars
                .iter()
                .map(|v| {
                    nodes[parent]
                        .extension
                        .position_of(*v)
                        .expect("pred var occurs in parent")
                })
                .collect();
            let parent_len = nodes[parent].extension.len();
            let mut offsets: Vec<u32> = Vec::with_capacity(parent_len + 1);
            let mut tuples: Vec<u32> = Vec::new();
            offsets.push(0);
            for t in 0..parent_len {
                let key: Tuple = parent_positions
                    .iter()
                    .map(|&p| nodes[parent].extension.value(t, p))
                    .collect();
                if let Some(matching) = nodes[i].index.get(&key) {
                    tuples.extend(matching.iter().map(|&m| m as u32));
                }
                offsets.push(tuples.len() as u32);
            }
            nodes[i].parent_join = Some(JoinCsr { offsets, tuples });
        }

        structure.nodes = nodes;
        structure.preorder = skeleton.preorder.clone();
        structure.answer_sources = skeleton.answer_sources.clone();
        Ok(structure)
    }

    /// The number of `q₁` nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the structure describes a Boolean query.
    pub fn is_boolean(&self) -> bool {
        self.boolean_satisfiable.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_data::{Schema, Value};

    fn db() -> Database {
        let mut s = Schema::new();
        s.add_relation("R", 2).unwrap();
        s.add_relation("S", 2).unwrap();
        s.add_relation("T", 2).unwrap();
        Database::builder(s)
            .fact("R", ["a", "b"])
            .fact("R", ["a", "c"])
            .fact("S", ["b", "x"])
            .fact("S", ["c", "y"])
            .fact("T", ["x", "t1"])
            .build()
            .unwrap()
    }

    #[test]
    fn full_path_query_structure() {
        let q = ConjunctiveQuery::parse("q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let s = FreeConnexStructure::build(&q, &db(), true).unwrap();
        assert!(!s.empty);
        assert_eq!(s.node_count(), 2);
        // Progress condition: every root tuple has a matching child tuple.
        let root = s.preorder[0];
        let root_node = &s.nodes[root];
        for child in &root_node.children {
            let child_node = &s.nodes[*child];
            for t in root_node.extension.rows() {
                let key: Vec<Value> = child_node
                    .pred_vars
                    .iter()
                    .map(|v| t[root_node.extension.position_of(*v).unwrap()])
                    .collect();
                assert!(child_node.index.contains_key(&key));
            }
            // The dense parent join agrees with the hash index.
            let join = child_node.parent_join.as_ref().expect("shared vars");
            for (t_idx, t) in root_node.extension.rows().enumerate() {
                let key: Vec<Value> = child_node
                    .pred_vars
                    .iter()
                    .map(|v| t[root_node.extension.position_of(*v).unwrap()])
                    .collect();
                let via_hash = &child_node.index[&key];
                let via_csr: Vec<usize> =
                    join.matching(t_idx).iter().map(|&x| x as usize).collect();
                assert_eq!(via_hash, &via_csr);
            }
        }
    }

    #[test]
    fn skeleton_is_reusable_across_databases() {
        let q = ConjunctiveQuery::parse("q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let skeleton = PlanSkeleton::compile(&q).unwrap();
        let s1 = FreeConnexStructure::materialize(&skeleton, &db(), true).unwrap();
        let mut other = db();
        other.add_named_fact("R", &["z1", "b"]).unwrap();
        let s2 = FreeConnexStructure::materialize(&skeleton, &other, true).unwrap();
        assert_eq!(s1.node_count(), s2.node_count());
        assert!(!crate::enumerate::collect_answers(&s2).is_empty());
        assert_eq!(
            crate::enumerate::collect_answers(&s1),
            crate::enumerate::collect_answers(
                &FreeConnexStructure::build(&q, &db(), true).unwrap()
            )
        );
    }

    #[test]
    fn projection_with_quantified_middle_is_rejected() {
        let q = ConjunctiveQuery::parse("q(x, z) :- R(x, y), S(y, z)").unwrap();
        assert!(matches!(
            FreeConnexStructure::build(&q, &db(), true),
            Err(CoreError::NotEnumerationTractable(_))
        ));
        assert!(matches!(
            PlanSkeleton::compile(&q),
            Err(CoreError::NotEnumerationTractable(_))
        ));
    }

    #[test]
    fn semijoin_reduction_prunes_dangling_tuples() {
        // R(a,c) has no S(c, _) continuation matching T, so with q over
        // R, S, T only the chain a-b-x-t1 survives.
        let q = ConjunctiveQuery::parse("q(x, y, z, w) :- R(x, y), S(y, z), T(z, w)").unwrap();
        let s = FreeConnexStructure::build(&q, &db(), true).unwrap();
        assert!(!s.empty);
        // The root extension is fully reduced: every root tuple extends to a
        // complete answer, and only the single chain a-b-x-t1 survives.
        let root = s.preorder[0];
        assert_eq!(s.nodes[root].extension.len(), 1);
    }

    #[test]
    fn boolean_query_shortcut() {
        let q = ConjunctiveQuery::parse("q() :- R(x, y), S(y, z)").unwrap();
        let s = FreeConnexStructure::build(&q, &db(), true).unwrap();
        assert!(s.is_boolean());
        assert_eq!(s.boolean_satisfiable, Some(true));
        let q2 = ConjunctiveQuery::parse("q() :- T(x, y), T(y, z)").unwrap();
        let s2 = FreeConnexStructure::build(&q2, &db(), true).unwrap();
        assert_eq!(s2.boolean_satisfiable, Some(false));
        assert!(s2.empty);
    }

    #[test]
    fn empty_extension_short_circuits() {
        let q = ConjunctiveQuery::parse("q(x) :- Missing(x)").unwrap();
        let s = FreeConnexStructure::build(&q, &db(), true).unwrap();
        assert!(s.empty);
    }

    #[test]
    fn quantified_only_component_acts_as_filter() {
        // The S-T part shares nothing with the answer part.
        let q = ConjunctiveQuery::parse("q(x, y) :- R(x, y), T(u, v)").unwrap();
        let s = FreeConnexStructure::build(&q, &db(), true).unwrap();
        assert!(!s.empty);
        // Only the R node carries answer variables.
        assert_eq!(s.node_count(), 1);

        // With an unsatisfiable filter the structure is empty.
        let q2 = ConjunctiveQuery::parse("q(x, y) :- R(x, y), T(u, u)").unwrap();
        let s2 = FreeConnexStructure::build(&q2, &db(), true).unwrap();
        assert!(s2.empty);
    }

    #[test]
    fn nulls_are_kept_unless_complete_only() {
        let mut s = Schema::new();
        s.add_relation("R", 2).unwrap();
        let mut database = Database::new(s);
        database.add_named_fact("R", &["a", "b"]).unwrap();
        let a = Value::Const(database.const_id("a").unwrap());
        let null = database.fresh_null();
        let rel = database.schema().relation_id("R").unwrap();
        database
            .add_fact(omq_data::Fact::new(rel, vec![a, Value::Null(null)]))
            .unwrap();
        let q = ConjunctiveQuery::parse("q(x, y) :- R(x, y)").unwrap();
        let partial = FreeConnexStructure::build(&q, &database, false).unwrap();
        assert_eq!(partial.nodes[0].extension.len(), 2);
        let complete = FreeConnexStructure::build(&q, &database, true).unwrap();
        assert_eq!(complete.nodes[0].extension.len(), 1);
    }

    #[test]
    fn repeated_answer_positions_share_their_source() {
        let q = ConjunctiveQuery::parse("q(x, x, y) :- R(x, y)").unwrap();
        let s = FreeConnexStructure::build(&q, &db(), true).unwrap();
        // Repeated answer positions share their source node and column.
        assert_eq!(s.answer_sources[0], s.answer_sources[1]);
    }
}
