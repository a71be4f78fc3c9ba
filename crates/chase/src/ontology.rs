//! Ontologies: finite sets of TGDs.

use crate::error::ChaseError;
use crate::tgd::Tgd;
use crate::Result;
use omq_data::Schema;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A finite set of TGDs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ontology {
    tgds: Vec<Tgd>,
}

impl Ontology {
    /// Creates an empty ontology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses an ontology from text: one TGD per line; blank lines and lines
    /// starting with `#` or `%` are ignored.
    pub fn parse(text: &str) -> Result<Self> {
        let mut tgds = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
                continue;
            }
            tgds.push(Tgd::parse(line)?);
        }
        Ok(Ontology { tgds })
    }

    /// Adds a TGD.
    pub fn push(&mut self, tgd: Tgd) {
        self.tgds.push(tgd);
    }

    /// The TGDs.
    pub fn tgds(&self) -> &[Tgd] {
        &self.tgds
    }

    /// Number of TGDs.
    pub fn len(&self) -> usize {
        self.tgds.len()
    }

    /// Returns `true` iff the ontology has no TGDs.
    pub fn is_empty(&self) -> bool {
        self.tgds.is_empty()
    }

    /// Returns `true` iff every TGD is guarded (the class `G` of the paper).
    pub fn is_guarded(&self) -> bool {
        self.tgds.iter().all(Tgd::is_guarded)
    }

    /// Returns `true` iff every TGD is an ELI TGD.
    pub fn is_eli(&self) -> bool {
        self.tgds.iter().all(Tgd::is_eli)
    }

    /// Returns the first TGD that is not guarded, if any.
    pub fn first_unguarded(&self) -> Option<&Tgd> {
        self.tgds.iter().find(|t| !t.is_guarded())
    }

    /// Relation symbols used by the ontology, with arities.
    pub fn relations(&self) -> Result<FxHashMap<String, usize>> {
        let mut map: FxHashMap<String, usize> = FxHashMap::default();
        for tgd in &self.tgds {
            for (name, arity) in tgd.relations()? {
                match map.get(&name) {
                    Some(&a) if a != arity => {
                        return Err(ChaseError::ArityConflict {
                            relation: name,
                            first: a,
                            second: arity,
                        })
                    }
                    Some(_) => {}
                    None => {
                        map.insert(name, arity);
                    }
                }
            }
        }
        Ok(map)
    }

    /// Builds a schema covering all relation symbols of the ontology.
    pub fn schema(&self) -> Result<Schema> {
        let mut schema = Schema::new();
        let mut relations: Vec<(String, usize)> = self.relations()?.into_iter().collect();
        relations.sort();
        for (name, arity) in relations {
            schema.add_relation(&name, arity)?;
        }
        Ok(schema)
    }

    /// The maximum arity of any relation symbol (0 for an empty ontology).
    pub fn max_arity(&self) -> usize {
        self.relations()
            .map(|r| r.values().copied().max().unwrap_or(0))
            .unwrap_or(0)
    }
}

impl fmt::Display for Ontology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for tgd in &self.tgds {
            writeln!(f, "{tgd}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OFFICE: &str = r#"
        # The running example (Example 1.1 of the paper).
        Researcher(x) -> exists y. HasOffice(x, y)
        HasOffice(x, y) -> Office(y)
        Office(x) -> exists y. InBuilding(x, y)
    "#;

    #[test]
    fn parse_office_ontology() {
        let o = Ontology::parse(OFFICE).unwrap();
        assert_eq!(o.len(), 3);
        assert!(o.is_guarded());
        assert!(o.is_eli());
        assert!(o.first_unguarded().is_none());
        let rels = o.relations().unwrap();
        assert_eq!(rels.len(), 4);
        assert_eq!(rels["HasOffice"], 2);
        assert_eq!(o.max_arity(), 2);
    }

    #[test]
    fn schema_contains_all_symbols() {
        let o = Ontology::parse(OFFICE).unwrap();
        let schema = o.schema().unwrap();
        for name in ["Researcher", "HasOffice", "Office", "InBuilding"] {
            assert!(schema.relation_id(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn guardedness_and_eli_classification() {
        let mixed =
            Ontology::parse("R(x, y), S(y, z) -> T(x, z)\nA(x) -> exists y. R(x, y)").unwrap();
        assert!(!mixed.is_guarded());
        assert!(!mixed.is_eli());
        assert!(mixed.first_unguarded().is_some());

        let guarded_not_eli = Ontology::parse("T(x, y, z) -> A(x)").unwrap();
        assert!(guarded_not_eli.is_guarded());
        assert!(!guarded_not_eli.is_eli());
    }

    #[test]
    fn arity_conflicts_across_tgds() {
        let err = Ontology::parse("A(x) -> R(x)\nB(x) -> exists y. R(x, y)")
            .unwrap()
            .relations()
            .unwrap_err();
        assert!(matches!(err, ChaseError::ArityConflict { .. }));
    }

    #[test]
    fn empty_ontology() {
        let o = Ontology::parse("\n# nothing\n").unwrap();
        assert!(o.is_empty());
        assert!(o.is_guarded());
        assert!(o.is_eli());
        assert_eq!(o.max_arity(), 0);
    }

    #[test]
    fn display_round_trip() {
        let o = Ontology::parse(OFFICE).unwrap();
        let rendered = format!("{o}");
        let reparsed = Ontology::parse(&rendered).unwrap();
        assert_eq!(reparsed.len(), o.len());
        assert!(reparsed.is_eli());
    }
}
