//! Relational atoms of conjunctive queries.

use crate::term::{Term, VarId};
use serde::{Deserialize, Serialize};

/// A relational atom `R(t₁, …, tₙ)` over terms.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Atom {
    /// Relation symbol name.
    pub relation: String,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Creates a new atom.
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Self {
        Atom {
            relation: relation.into(),
            terms,
        }
    }

    /// The arity (number of argument positions).
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// The distinct variables of this atom, in first-occurrence order.
    pub fn variables(&self) -> Vec<VarId> {
        let mut seen = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if !seen.contains(v) {
                    seen.push(*v);
                }
            }
        }
        seen
    }

    /// The distinct constant names of this atom, in first-occurrence order.
    pub fn constants(&self) -> Vec<&str> {
        let mut seen: Vec<&str> = Vec::new();
        for t in &self.terms {
            if let Term::Const(c) = t {
                if !seen.contains(&c.as_str()) {
                    seen.push(c);
                }
            }
        }
        seen
    }

    /// Returns `true` iff the atom mentions the variable `v`.
    pub fn mentions(&self, v: VarId) -> bool {
        self.terms.iter().any(|t| t.as_var() == Some(v))
    }

    /// Applies a variable renaming/substitution to the atom's terms.
    pub fn map_terms(&self, f: impl FnMut(&Term) -> Term) -> Atom {
        Atom {
            relation: self.relation.clone(),
            terms: self.terms.iter().map(f).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom() -> Atom {
        Atom::new(
            "R",
            vec![
                Term::Var(VarId(0)),
                Term::Const("a".to_owned()),
                Term::Var(VarId(1)),
                Term::Var(VarId(0)),
            ],
        )
    }

    #[test]
    fn variables_and_constants() {
        let a = atom();
        assert_eq!(a.arity(), 4);
        assert_eq!(a.variables(), vec![VarId(0), VarId(1)]);
        assert_eq!(a.constants(), vec!["a"]);
        assert!(a.mentions(VarId(0)));
        assert!(!a.mentions(VarId(7)));
    }

    #[test]
    fn map_terms_substitutes() {
        let a = atom();
        let substituted = a.map_terms(|t| match t {
            Term::Var(VarId(0)) => Term::Const("zero".to_owned()),
            other => other.clone(),
        });
        assert_eq!(substituted.variables(), vec![VarId(1)]);
        assert_eq!(substituted.constants(), vec!["zero", "a"]);
    }
}
