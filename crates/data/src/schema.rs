//! Schemas: finite sets of relation symbols with associated arities.

use crate::error::DataError;
use crate::Result;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a relation symbol within a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RelId(pub u32);

/// A relation symbol: a name together with an arity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Relation {
    /// Symbol name as written in queries / ontologies.
    pub name: String,
    /// Number of argument positions.
    pub arity: usize,
}

/// The largest arity a relation symbol may declare.  Arities can arrive from
/// the network (a commit's `add_relation`, a cluster worker's setup frame),
/// and the columnar index allocates per argument position, so an unchecked
/// arity is an allocation of the client's choosing.  No schema in the
/// workspace comes near it.
pub const MAX_ARITY: usize = 64;

/// A schema `S`: a finite set of relation symbols with arities.
///
/// Relation symbols are interned into dense [`RelId`]s so that per-relation
/// side tables can be simple vectors.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Schema {
    relations: Vec<Relation>,
    #[serde(skip)]
    by_name: FxHashMap<String, RelId>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or re-uses) a relation symbol with the given arity.
    ///
    /// Returns an error if the arity exceeds [`MAX_ARITY`] or the symbol was
    /// previously declared with a different arity.
    pub fn add_relation(&mut self, name: &str, arity: usize) -> Result<RelId> {
        if arity > MAX_ARITY {
            return Err(DataError::ArityTooLarge {
                relation: name.to_owned(),
                arity,
            });
        }
        if let Some(&id) = self.by_name.get(name) {
            let existing = &self.relations[id.0 as usize];
            if existing.arity != arity {
                return Err(DataError::ConflictingArity {
                    relation: name.to_owned(),
                    first: existing.arity,
                    second: arity,
                });
            }
            return Ok(id);
        }
        let id = RelId(u32::try_from(self.relations.len()).expect("schema overflow"));
        self.relations.push(Relation {
            name: name.to_owned(),
            arity,
        });
        self.by_name.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Looks up a relation symbol by name.
    pub fn relation_id(&self, name: &str) -> Option<RelId> {
        self.by_name.get(name).copied()
    }

    /// Looks up a relation symbol by name, returning an error if absent.
    pub fn require(&self, name: &str) -> Result<RelId> {
        self.relation_id(name)
            .ok_or_else(|| DataError::UnknownRelation(name.to_owned()))
    }

    /// Returns the metadata of a relation symbol.
    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id.0 as usize]
    }

    /// Returns the arity of a relation symbol.
    pub fn arity(&self, id: RelId) -> usize {
        self.relations[id.0 as usize].arity
    }

    /// Returns the name of a relation symbol.
    pub fn name(&self, id: RelId) -> &str {
        &self.relations[id.0 as usize].name
    }

    /// Number of relation symbols.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Returns `true` if the schema has no relation symbols.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Iterates over all relation symbols in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (RelId, &Relation)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (RelId(i as u32), r))
    }

    /// Returns `true` if `other` declares a subset of this schema's relation
    /// symbols with identical arities.
    pub fn contains_schema(&self, other: &Schema) -> bool {
        other.iter().all(|(_, rel)| {
            self.relation_id(&rel.name)
                .map(|id| self.arity(id) == rel.arity)
                .unwrap_or(false)
        })
    }

    /// Merges another schema into this one, returning an error on arity
    /// conflicts.
    pub fn merge(&mut self, other: &Schema) -> Result<()> {
        for (_, rel) in other.iter() {
            self.add_relation(&rel.name, rel.arity)?;
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (_, rel) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}/{}", rel.name, rel.arity)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut schema = Schema::new();
        let r = schema.add_relation("HasOffice", 2).unwrap();
        let a = schema.add_relation("Researcher", 1).unwrap();
        assert_ne!(r, a);
        assert_eq!(schema.relation_id("HasOffice"), Some(r));
        assert_eq!(schema.arity(r), 2);
        assert_eq!(schema.name(a), "Researcher");
        assert_eq!(schema.len(), 2);
    }

    #[test]
    fn duplicate_same_arity_is_ok() {
        let mut schema = Schema::new();
        let a = schema.add_relation("R", 2).unwrap();
        let b = schema.add_relation("R", 2).unwrap();
        assert_eq!(a, b);
        assert_eq!(schema.len(), 1);
    }

    #[test]
    fn conflicting_arity_is_error() {
        let mut schema = Schema::new();
        schema.add_relation("R", 2).unwrap();
        let err = schema.add_relation("R", 3).unwrap_err();
        assert!(matches!(err, DataError::ConflictingArity { .. }));
    }

    #[test]
    fn arity_above_the_bound_is_error() {
        let mut schema = Schema::new();
        schema.add_relation("Wide", MAX_ARITY).unwrap();
        let err = schema.add_relation("Wider", MAX_ARITY + 1).unwrap_err();
        assert!(matches!(err, DataError::ArityTooLarge { arity, .. } if arity == MAX_ARITY + 1));
        assert_eq!(schema.len(), 1);
    }

    #[test]
    fn require_unknown() {
        let schema = Schema::new();
        assert!(matches!(
            schema.require("Nope"),
            Err(DataError::UnknownRelation(_))
        ));
    }

    #[test]
    fn merge_and_contains() {
        let mut s1 = Schema::new();
        s1.add_relation("R", 2).unwrap();
        let mut s2 = Schema::new();
        s2.add_relation("R", 2).unwrap();
        s2.add_relation("A", 1).unwrap();
        assert!(!s1.contains_schema(&s2));
        s1.merge(&s2).unwrap();
        assert!(s1.contains_schema(&s2));
        assert_eq!(s1.len(), 2);
    }

    #[test]
    fn display_lists_relations() {
        let mut s = Schema::new();
        s.add_relation("R", 2).unwrap();
        s.add_relation("A", 1).unwrap();
        assert_eq!(format!("{s}"), "R/2, A/1");
    }
}
