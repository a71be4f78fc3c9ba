//! The conjunctive query type and structural operations on it.

use crate::atom::Atom;
use crate::error::CqError;
use crate::term::{Term, VarId};
use crate::Result;
use rustc_hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A conjunctive query `q(x̄) ← φ(x̄, ȳ)`.
///
/// * `answer_vars` is the tuple `x̄` (possibly with repetitions, as allowed by
///   the paper);
/// * `atoms` is the body `φ`, a set of relational atoms over variables and
///   constants.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConjunctiveQuery {
    /// Query name (head predicate), only used for display.
    pub name: String,
    var_names: Vec<String>,
    answer_vars: Vec<VarId>,
    atoms: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Creates an empty Boolean query with the given name.
    pub fn empty(name: impl Into<String>) -> Self {
        ConjunctiveQuery {
            name: name.into(),
            var_names: Vec::new(),
            answer_vars: Vec::new(),
            atoms: Vec::new(),
        }
    }

    /// Parses the textual syntax, e.g.
    /// `q(x1, x2) :- HasOffice(x1, x2), Researcher(x1)`.
    ///
    /// Bare identifiers denote variables; quoted identifiers (`'mary'` or
    /// `"mary"`) denote constants.
    pub fn parse(text: &str) -> Result<Self> {
        crate::parser::parse_query(text)
    }

    /// Interns a variable by name, returning its identifier.
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(idx) = self.var_names.iter().position(|n| n == name) {
            return VarId(idx as u32);
        }
        let id = VarId(self.var_names.len() as u32);
        self.var_names.push(name.to_owned());
        id
    }

    /// Looks up a variable by name without interning.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.var_names
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u32))
    }

    /// Returns the name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.0 as usize]
    }

    /// Total number of interned variables.
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// Appends an answer variable (by identifier).
    pub fn push_answer_var(&mut self, v: VarId) {
        self.answer_vars.push(v);
    }

    /// Appends an atom.
    pub fn push_atom(&mut self, atom: Atom) {
        self.atoms.push(atom);
    }

    /// The answer tuple `x̄` (possibly with repeated variables).
    pub fn answer_vars(&self) -> &[VarId] {
        &self.answer_vars
    }

    /// The distinct answer variables, in first-occurrence order.
    pub fn distinct_answer_vars(&self) -> Vec<VarId> {
        let mut seen = Vec::new();
        for &v in &self.answer_vars {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    }

    /// The arity of the query (length of the answer tuple).
    pub fn arity(&self) -> usize {
        self.answer_vars.len()
    }

    /// Returns `true` iff the query is Boolean (arity 0).
    pub fn is_boolean(&self) -> bool {
        self.answer_vars.is_empty()
    }

    /// The body atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// All variables occurring in the body, in first-occurrence order
    /// (`var(q)` in the paper).
    pub fn body_vars(&self) -> Vec<VarId> {
        let mut seen = Vec::new();
        for atom in &self.atoms {
            for v in atom.variables() {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
        }
        seen
    }

    /// The quantified variables: body variables that are not answer variables.
    pub fn quantified_vars(&self) -> Vec<VarId> {
        let answers: FxHashSet<VarId> = self.answer_vars.iter().copied().collect();
        self.body_vars()
            .into_iter()
            .filter(|v| !answers.contains(v))
            .collect()
    }

    /// Returns `true` iff `v` is an answer variable.
    pub fn is_answer_var(&self, v: VarId) -> bool {
        self.answer_vars.contains(&v)
    }

    /// All constant names occurring in the body (`con(q)`), in
    /// first-occurrence order.
    pub fn constants(&self) -> Vec<String> {
        let mut seen: Vec<String> = Vec::new();
        for atom in &self.atoms {
            for c in atom.constants() {
                if !seen.iter().any(|s| s == c) {
                    seen.push(c.to_owned());
                }
            }
        }
        seen
    }

    /// The relation symbols used, with their arities.  Returns an error if a
    /// symbol is used with two different arities.
    pub fn relations(&self) -> Result<FxHashMap<String, usize>> {
        let mut map = FxHashMap::default();
        for atom in &self.atoms {
            match map.get(&atom.relation) {
                Some(&arity) if arity != atom.arity() => {
                    return Err(CqError::ArityConflict {
                        relation: atom.relation.clone(),
                        first: arity,
                        second: atom.arity(),
                    })
                }
                Some(_) => {}
                None => {
                    map.insert(atom.relation.clone(), atom.arity());
                }
            }
        }
        Ok(map)
    }

    /// Returns `true` iff the query is *self-join free*: no relation symbol
    /// occurs in more than one atom.
    pub fn is_self_join_free(&self) -> bool {
        let mut seen = FxHashSet::default();
        self.atoms.iter().all(|a| seen.insert(&a.relation))
    }

    /// Validates the query: answer variables must occur in the body and
    /// relation symbols must have consistent arities.
    pub fn validate(&self) -> Result<()> {
        let body: FxHashSet<VarId> = self.body_vars().into_iter().collect();
        for &v in &self.answer_vars {
            if !body.contains(&v) {
                return Err(CqError::UnboundAnswerVariable(self.var_name(v).to_owned()));
            }
        }
        self.relations().map(|_| ())
    }

    /// Returns the query obtained by substituting the answer variables by the
    /// given constant names position-wise (used for single-testing).  The
    /// result is a Boolean query.
    pub fn substitute_answer_constants(&self, constants: &[String]) -> Result<ConjunctiveQuery> {
        if constants.len() != self.answer_vars.len() {
            return Err(CqError::Parse(format!(
                "expected {} constants, got {}",
                self.answer_vars.len(),
                constants.len()
            )));
        }
        let mut substitution: FxHashMap<VarId, String> = FxHashMap::default();
        for (&v, c) in self.answer_vars.iter().zip(constants) {
            if let Some(previous) = substitution.get(&v) {
                if previous != c {
                    // Repeated answer variable substituted by two different
                    // constants: the query is unsatisfiable; encode this with a
                    // fresh never-matching constant pair so callers simply get
                    // the empty answer.
                    return Ok(ConjunctiveQuery {
                        name: self.name.clone(),
                        var_names: vec![],
                        answer_vars: vec![],
                        atoms: vec![Atom::new(
                            "__unsat__",
                            vec![Term::Const("__unsat__".to_owned())],
                        )],
                    });
                }
            }
            substitution.insert(v, c.clone());
        }
        let atoms = self
            .atoms
            .iter()
            .map(|a| {
                a.map_terms(|t| match t {
                    Term::Var(v) if substitution.contains_key(v) => {
                        Term::Const(substitution[v].clone())
                    }
                    other => other.clone(),
                })
            })
            .collect();
        // Re-intern the remaining variables compactly.
        let mut q = ConjunctiveQuery::empty(self.name.clone());
        let mut remap: FxHashMap<VarId, VarId> = FxHashMap::default();
        let atoms: Vec<Atom> = atoms;
        for atom in &atoms {
            for old in atom.variables() {
                if let std::collections::hash_map::Entry::Vacant(entry) = remap.entry(old) {
                    entry.insert(q.var(self.var_name(old)));
                }
            }
        }
        for atom in atoms {
            let mapped = atom.map_terms(|t| match t {
                Term::Var(v) => Term::Var(remap[v]),
                c => c.clone(),
            });
            q.push_atom(mapped);
        }
        Ok(q)
    }

    /// Returns a copy with the given variables identified: every variable is
    /// replaced by the representative (first element) of the group containing
    /// it.  Groups must be disjoint.  Used by the multi-wildcard testing
    /// machinery (the `q̂` construction of the paper).
    pub fn identify_vars(&self, groups: &[Vec<VarId>]) -> ConjunctiveQuery {
        let mut replacement: FxHashMap<VarId, VarId> = FxHashMap::default();
        for group in groups {
            if let Some(&repr) = group.first() {
                for &v in group {
                    replacement.insert(v, repr);
                }
            }
        }
        let map = |v: VarId| *replacement.get(&v).unwrap_or(&v);
        let atoms = self
            .atoms
            .iter()
            .map(|a| {
                a.map_terms(|t| match t {
                    Term::Var(v) => Term::Var(map(*v)),
                    c => c.clone(),
                })
            })
            .collect();
        ConjunctiveQuery {
            name: self.name.clone(),
            var_names: self.var_names.clone(),
            answer_vars: self.answer_vars.iter().map(|&v| map(v)).collect(),
            atoms,
        }
    }

    /// Splits the query into its maximal connected components.  Two atoms are
    /// connected if they share a variable or a constant (connectedness "via a
    /// constant", as in the paper).  Each component keeps the answer-variable
    /// positions that fall into it; the returned vector also reports, for each
    /// component, the indices of the original answer positions it owns.
    pub fn connected_components(&self) -> Vec<(ConjunctiveQuery, Vec<usize>)> {
        if self.atoms.is_empty() {
            return vec![(self.clone(), (0..self.answer_vars.len()).collect())];
        }
        // Union-find over atoms.
        let n = self.atoms.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
            }
            parent[i]
        }
        let mut var_owner: FxHashMap<VarId, usize> = FxHashMap::default();
        let mut const_owner: FxHashMap<String, usize> = FxHashMap::default();
        for (i, atom) in self.atoms.iter().enumerate() {
            for v in atom.variables() {
                if let Some(&j) = var_owner.get(&v) {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    parent[a] = b;
                } else {
                    var_owner.insert(v, i);
                }
            }
            for c in atom.constants() {
                if let Some(&j) = const_owner.get(c) {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    parent[a] = b;
                } else {
                    const_owner.insert(c.to_owned(), i);
                }
            }
        }
        let mut groups: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        for i in 0..n {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(i);
        }
        let mut components: Vec<(ConjunctiveQuery, Vec<usize>)> = Vec::new();
        let mut group_list: Vec<Vec<usize>> = groups.into_values().collect();
        group_list.sort();
        for atom_indices in group_list {
            let mut q = ConjunctiveQuery::empty(format!("{}_cc{}", self.name, components.len()));
            let mut remap: FxHashMap<VarId, VarId> = FxHashMap::default();
            let mut component_vars: FxHashSet<VarId> = FxHashSet::default();
            for &ai in &atom_indices {
                for v in self.atoms[ai].variables() {
                    component_vars.insert(v);
                }
            }
            let mut answer_positions = Vec::new();
            for (pos, &av) in self.answer_vars.iter().enumerate() {
                if component_vars.contains(&av) {
                    answer_positions.push(pos);
                }
            }
            // Intern variables: answer variables first (in position order),
            // then the rest.
            for &pos in &answer_positions {
                let av = self.answer_vars[pos];
                let id = *remap.entry(av).or_insert_with(|| q.var(self.var_name(av)));
                q.push_answer_var(id);
            }
            for &ai in &atom_indices {
                let mapped = self.atoms[ai].map_terms(|t| match t {
                    Term::Var(v) => {
                        let id = *remap.entry(*v).or_insert_with(|| q.var(self.var_name(*v)));
                        Term::Var(id)
                    }
                    c => c.clone(),
                });
                q.push_atom(mapped);
            }
            components.push((q, answer_positions));
        }
        components
    }

    /// Returns `true` iff the query is connected (single connected component).
    pub fn is_connected(&self) -> bool {
        self.connected_components().len() <= 1
    }

    /// The variable adjacency ("Gaifman") graph of the query: an edge between
    /// two distinct variables whenever they co-occur in an atom.
    pub fn variable_graph(&self) -> FxHashMap<VarId, FxHashSet<VarId>> {
        let mut graph: FxHashMap<VarId, FxHashSet<VarId>> = FxHashMap::default();
        for v in self.body_vars() {
            graph.entry(v).or_default();
        }
        for atom in &self.atoms {
            let vars = atom.variables();
            for (i, &a) in vars.iter().enumerate() {
                for &b in &vars[i + 1..] {
                    if a != b {
                        graph.entry(a).or_default().insert(b);
                        graph.entry(b).or_default().insert(a);
                    }
                }
            }
        }
        graph
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head_args: Vec<&str> = self.answer_vars.iter().map(|&v| self.var_name(v)).collect();
        write!(f, "{}({}) :- ", self.name, head_args.join(", "))?;
        let atoms: Vec<String> = self
            .atoms
            .iter()
            .map(|a| {
                let args: Vec<String> = a
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => self.var_name(*v).to_owned(),
                        Term::Const(c) => format!("'{c}'"),
                    })
                    .collect();
                format!("{}({})", a.relation, args.join(", "))
            })
            .collect();
        write!(f, "{}", atoms.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConjunctiveQuery {
        ConjunctiveQuery::parse("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)").unwrap()
    }

    #[test]
    fn accessors() {
        let q = sample();
        assert_eq!(q.arity(), 3);
        assert!(!q.is_boolean());
        assert_eq!(q.atoms().len(), 2);
        assert_eq!(q.body_vars().len(), 3);
        assert!(q.quantified_vars().is_empty());
        assert!(q.is_self_join_free());
        assert!(q.is_connected());
        assert!(q.validate().is_ok());
        assert_eq!(
            format!("{q}"),
            "q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)"
        );
    }

    #[test]
    fn self_join_detection() {
        let q = ConjunctiveQuery::parse("q(x) :- R(x, y), R(y, z)").unwrap();
        assert!(!q.is_self_join_free());
        assert_eq!(q.quantified_vars().len(), 2);
    }

    #[test]
    fn relations_conflict() {
        // The parser rejects conflicting arities outright.
        assert!(matches!(
            ConjunctiveQuery::parse("q(x) :- R(x, y), R(x)"),
            Err(CqError::ArityConflict { .. })
        ));
        // Manually constructed queries report the conflict via `relations()`.
        let mut q = ConjunctiveQuery::empty("q");
        let x = q.var("x");
        let y = q.var("y");
        q.push_atom(Atom::new("R", vec![Term::Var(x), Term::Var(y)]));
        q.push_atom(Atom::new("R", vec![Term::Var(x)]));
        assert!(matches!(q.relations(), Err(CqError::ArityConflict { .. })));
        assert!(q.validate().is_err());
    }

    #[test]
    fn substitution_grounds_every_answer_variable() {
        let q = sample();
        let grounded = q
            .substitute_answer_constants(&[
                "mary".to_owned(),
                "room1".to_owned(),
                "main1".to_owned(),
            ])
            .unwrap();
        assert!(grounded.is_boolean());
        assert!(grounded.body_vars().is_empty());
        assert_eq!(grounded.constants().len(), 3);
    }

    #[test]
    fn substitution_with_repeated_answer_var() {
        let q = ConjunctiveQuery::parse("q(x, x) :- R(x, y)").unwrap();
        let same = q
            .substitute_answer_constants(&["a".to_owned(), "a".to_owned()])
            .unwrap();
        assert_eq!(same.constants(), vec!["a".to_owned()]);
        let diff = q
            .substitute_answer_constants(&["a".to_owned(), "b".to_owned()])
            .unwrap();
        // Unsatisfiable marker query.
        assert_eq!(diff.atoms()[0].relation, "__unsat__");
    }

    #[test]
    fn connected_components_split() {
        let q = ConjunctiveQuery::parse("q(x, z) :- R(x, y), S(z, w)").unwrap();
        assert!(!q.is_connected());
        let components = q.connected_components();
        assert_eq!(components.len(), 2);
        let (c0, pos0) = &components[0];
        let (c1, pos1) = &components[1];
        assert_eq!(c0.arity() + c1.arity(), 2);
        assert_eq!(pos0.len() + pos1.len(), 2);
    }

    #[test]
    fn connectedness_via_constant() {
        let q = ConjunctiveQuery::parse("q(x, z) :- R(x, 'a'), S(z, 'a')").unwrap();
        assert!(q.is_connected());
    }

    #[test]
    fn identify_vars() {
        let q = ConjunctiveQuery::parse("q(x, y) :- R(x, z), S(y, z)").unwrap();
        let x = q.var_id("x").unwrap();
        let y = q.var_id("y").unwrap();
        let identified = q.identify_vars(&[vec![x, y]]);
        assert_eq!(identified.answer_vars()[0], identified.answer_vars()[1]);
        assert_eq!(identified.body_vars().len(), 2);
    }

    #[test]
    fn unbound_answer_variable_rejected() {
        let err = ConjunctiveQuery::parse("q(x, u) :- R(x, y)").unwrap_err();
        assert!(matches!(err, CqError::UnboundAnswerVariable(_)));
    }

    #[test]
    fn variable_graph_edges() {
        let q = ConjunctiveQuery::parse("q() :- R(x, y), S(y, z)").unwrap();
        let g = q.variable_graph();
        let x = q.var_id("x").unwrap();
        let y = q.var_id("y").unwrap();
        let z = q.var_id("z").unwrap();
        assert!(g[&x].contains(&y));
        assert!(g[&y].contains(&z));
        assert!(!g[&x].contains(&z));
    }
}
