//! Scalable synthetic workload generators.
//!
//! * [`university`] — the running example of the paper (Example 1.1/2.2)
//!   scaled to arbitrary sizes, with configurable incompleteness (the fraction
//!   of researchers without a listed office and of offices without a listed
//!   building controls how many answers carry wildcards);
//! * [`hub`] — join values of configurable degree (the fan), for the
//!   degree axis of the chase's linearity (E2);
//! * [`chain`] — a derivation one saturation round deeper per fact, for the
//!   depth axis (E2);
//! * [`random_graph`] — Erdős–Rényi style graphs for the triangle reductions;
//! * [`sparse_boolean_matrix`] — sparse Boolean matrices for the BMM
//!   reductions;
//! * [`random_acyclic_database`] — small random databases over a fixed schema
//!   (used by property tests).

use omq_chase::{Ontology, OntologyMediatedQuery};
use omq_cq::ConjunctiveQuery;
use omq_data::{Database, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the university / office workload.
#[derive(Debug, Clone, Copy)]
pub struct UniversityConfig {
    /// Number of researchers.
    pub researchers: usize,
    /// Fraction of researchers with a listed office.
    pub office_ratio: f64,
    /// Fraction of listed offices with a listed building.
    pub building_ratio: f64,
    /// Number of buildings to draw from.
    pub buildings: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UniversityConfig {
    fn default() -> Self {
        UniversityConfig {
            researchers: 1000,
            office_ratio: 0.7,
            building_ratio: 0.8,
            buildings: 25,
            seed: 7,
        }
    }
}

/// Source text of the running example's ontology — exported so experiments
/// that ship the OMQ over a wire (E20) send exactly what
/// [`university_ontology`] parses.
pub const UNIVERSITY_ONTOLOGY_TEXT: &str = "Researcher(x) -> exists y. HasOffice(x, y)\n\
                                            HasOffice(x, y) -> Office(y)\n\
                                            Office(x) -> exists y. InBuilding(x, y)";

/// Source text of the running example's query (see
/// [`UNIVERSITY_ONTOLOGY_TEXT`]).
pub const UNIVERSITY_QUERY_TEXT: &str = "q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)";

/// The ontology of the running example (Example 1.1).
pub fn university_ontology() -> Ontology {
    Ontology::parse(UNIVERSITY_ONTOLOGY_TEXT).expect("static ontology parses")
}

/// The query of the running example.
pub fn university_query() -> ConjunctiveQuery {
    ConjunctiveQuery::parse(UNIVERSITY_QUERY_TEXT).expect("static query parses")
}

/// The data schema of the running example.
pub fn university_schema() -> Schema {
    let mut s = Schema::new();
    s.add_relation("Researcher", 1).expect("fresh schema");
    s.add_relation("HasOffice", 2).expect("fresh schema");
    s.add_relation("InBuilding", 2).expect("fresh schema");
    s
}

/// Generates the university OMQ and a database of the configured size.
pub fn university(config: &UniversityConfig) -> (OntologyMediatedQuery, Database) {
    let omq = OntologyMediatedQuery::new(university_ontology(), university_query())
        .expect("static OMQ is well-formed");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut db = Database::new(university_schema());
    for i in 0..config.researchers {
        let person = format!("person{i}");
        db.add_named_fact("Researcher", &[person.as_str()])
            .expect("schema fits");
        if rng.gen_bool(config.office_ratio) {
            let office = format!("office{i}");
            db.add_named_fact("HasOffice", &[person.as_str(), office.as_str()])
                .expect("schema fits");
            if rng.gen_bool(config.building_ratio) {
                let building = format!("building{}", rng.gen_range(0..config.buildings.max(1)));
                db.add_named_fact("InBuilding", &[office.as_str(), building.as_str()])
                    .expect("schema fits");
            }
        }
    }
    (omq, db)
}

/// Generates the `hub` OMQ and database: `hubs` join values `h{h}y`, each
/// with `fan` facts `R(h{h}x{i}, h{h}y)` into it; even hubs also have `fan`
/// facts `S(h{h}y, h{h}z{i})` out of it.  The database holds
/// `hubs · fan · 3/2` facts, so trading hubs for fan keeps `‖D‖` fixed while
/// the degree of every hub value grows.  `hubs` must be even.
pub fn hub(hubs: usize, fan: usize) -> (OntologyMediatedQuery, Database) {
    assert!(hubs.is_multiple_of(2), "hubs must be even");
    let omq = OntologyMediatedQuery::new(
        Ontology::parse("R(x, y) -> exists z. S(y, z)").expect("static ontology parses"),
        ConjunctiveQuery::parse("q(x, y, z) :- R(x, y), S(y, z)").expect("static query parses"),
    )
    .expect("static OMQ is well-formed");
    let mut db = Database::new(omq.data_schema().clone());
    for h in 0..hubs {
        let y = format!("h{h}y");
        for i in 0..fan {
            db.add_named_fact("R", &[format!("h{h}x{i}").as_str(), y.as_str()])
                .expect("schema fits");
            if h % 2 == 0 {
                db.add_named_fact("S", &[y.as_str(), format!("h{h}z{i}").as_str()])
                    .expect("schema fits");
            }
        }
    }
    (omq, db)
}

/// Generates the `chain` OMQ and database: the one-rule ontology
/// `A(x), R(x, y) -> A(y)` (EL's `∃R⁻.A ⊑ A`) with `q(x) :- A(x)`, over
/// `A(a0)` and the chain `R(a0, a1), …, R(a{n-1}, an)`.  The answer `ai` is
/// derived `i` saturation rounds deep, and there are `n + 1` answers.
pub fn chain(n: usize) -> (OntologyMediatedQuery, Database) {
    let omq = OntologyMediatedQuery::new(
        Ontology::parse("A(x), R(x, y) -> A(y)").expect("static ontology parses"),
        ConjunctiveQuery::parse("q(x) :- A(x)").expect("static query parses"),
    )
    .expect("static OMQ is well-formed");
    let mut db = Database::new(omq.data_schema().clone());
    db.add_named_fact("A", &["a0"]).expect("schema fits");
    for i in 0..n {
        db.add_named_fact("R", &[format!("a{i}"), format!("a{}", i + 1)])
            .expect("schema fits");
    }
    (omq, db)
}

/// An undirected graph as an edge list over vertices `0..n`.
#[derive(Debug, Clone)]
pub struct EdgeList {
    /// Number of vertices.
    pub vertices: usize,
    /// Undirected edges (u < v).
    pub edges: Vec<(u32, u32)>,
}

/// Generates a random graph with `n` vertices and (approximately) `m` distinct
/// edges.
pub fn random_graph(n: usize, m: usize, seed: u64) -> EdgeList {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = std::collections::BTreeSet::new();
    let max_edges = n * (n - 1) / 2;
    let target = m.min(max_edges);
    while edges.len() < target {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        if a == b {
            continue;
        }
        let edge = if a < b { (a, b) } else { (b, a) };
        edges.insert(edge);
    }
    EdgeList {
        vertices: n,
        edges: edges.into_iter().collect(),
    }
}

/// A triangle-free graph: a random bipartite graph.
pub fn random_bipartite_graph(n: usize, m: usize, seed: u64) -> EdgeList {
    let mut rng = StdRng::seed_from_u64(seed);
    let half = (n / 2).max(1) as u32;
    let mut edges = std::collections::BTreeSet::new();
    let max_edges = (half as usize) * (n - half as usize).max(1);
    let target = m.min(max_edges);
    let mut attempts = 0usize;
    while edges.len() < target && attempts < 50 * target.max(1) {
        attempts += 1;
        let a = rng.gen_range(0..half);
        let b = half + rng.gen_range(0..(n as u32 - half).max(1));
        edges.insert((a, b));
    }
    EdgeList {
        vertices: n,
        edges: edges.into_iter().collect(),
    }
}

/// A sparse Boolean matrix as a list of `(row, column)` pairs with value 1.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    /// Dimension (the matrix is `n × n`).
    pub n: usize,
    /// The positions carrying 1.
    pub ones: Vec<(u32, u32)>,
}

impl SparseMatrix {
    /// Multiplies two sparse Boolean matrices directly (the reference
    /// implementation the reduction experiments compare against).
    pub fn multiply(&self, other: &SparseMatrix) -> SparseMatrix {
        use rustc_hash::{FxHashMap, FxHashSet};
        let mut by_row: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for &(r, c) in &other.ones {
            by_row.entry(r).or_default().push(c);
        }
        let mut ones: FxHashSet<(u32, u32)> = FxHashSet::default();
        for &(a, c) in &self.ones {
            if let Some(columns) = by_row.get(&c) {
                for &b in columns {
                    ones.insert((a, b));
                }
            }
        }
        let mut ones: Vec<(u32, u32)> = ones.into_iter().collect();
        ones.sort_unstable();
        SparseMatrix { n: self.n, ones }
    }
}

/// Generates a random sparse Boolean matrix with the given number of ones.
pub fn sparse_boolean_matrix(n: usize, ones: usize, seed: u64) -> SparseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = std::collections::BTreeSet::new();
    let target = ones.min(n * n);
    while set.len() < target {
        set.insert((rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)));
    }
    SparseMatrix {
        n,
        ones: set.into_iter().collect(),
    }
}

/// A small random database over a schema with unary relations `A`, `B` and
/// binary relations `R`, `S` — the shape used by the property tests.
pub fn random_acyclic_database(constants: usize, facts: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schema = Schema::new();
    schema.add_relation("A", 1).expect("fresh schema");
    schema.add_relation("B", 1).expect("fresh schema");
    schema.add_relation("R", 2).expect("fresh schema");
    schema.add_relation("S", 2).expect("fresh schema");
    let mut db = Database::new(schema);
    let names: Vec<String> = (0..constants.max(1)).map(|i| format!("c{i}")).collect();
    for _ in 0..facts {
        let pick = |rng: &mut StdRng| names[rng.gen_range(0..names.len())].clone();
        match rng.gen_range(0..4) {
            0 => {
                let a = pick(&mut rng);
                db.add_named_fact("A", &[a.as_str()]).expect("schema fits");
            }
            1 => {
                let a = pick(&mut rng);
                db.add_named_fact("B", &[a.as_str()]).expect("schema fits");
            }
            2 => {
                let (a, b) = (pick(&mut rng), pick(&mut rng));
                db.add_named_fact("R", &[a.as_str(), b.as_str()])
                    .expect("schema fits");
            }
            _ => {
                let (a, b) = (pick(&mut rng), pick(&mut rng));
                db.add_named_fact("S", &[a.as_str(), b.as_str()])
                    .expect("schema fits");
            }
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn university_scales_with_config() {
        let small = university(&UniversityConfig {
            researchers: 10,
            ..Default::default()
        });
        let large = university(&UniversityConfig {
            researchers: 100,
            ..Default::default()
        });
        assert!(large.1.len() > small.1.len());
        assert!(small.0.is_eli());
    }

    #[test]
    fn incompleteness_ratios_drive_wildcards() {
        let complete = university(&UniversityConfig {
            researchers: 50,
            office_ratio: 1.0,
            building_ratio: 1.0,
            ..Default::default()
        });
        let incomplete = university(&UniversityConfig {
            researchers: 50,
            office_ratio: 0.0,
            building_ratio: 0.0,
            ..Default::default()
        });
        assert!(complete.1.len() > incomplete.1.len());
    }

    #[test]
    fn hub_keeps_its_size_as_the_fan_grows() {
        for (hubs, fan) in [(40, 32), (10, 128), (2, 640)] {
            let (omq, db) = hub(hubs, fan);
            assert_eq!(db.len(), 1920);
            assert_eq!(omq.data_schema().len(), 2);
        }
    }

    #[test]
    fn random_graph_respects_bounds() {
        let g = random_graph(50, 100, 1);
        assert_eq!(g.vertices, 50);
        assert_eq!(g.edges.len(), 100);
        for &(a, b) in &g.edges {
            assert!(a < b);
            assert!((b as usize) < g.vertices);
        }
    }

    #[test]
    fn bipartite_graph_has_no_triangle() {
        let g = random_bipartite_graph(40, 80, 3);
        // Brute-force triangle check.
        let set: std::collections::HashSet<(u32, u32)> = g.edges.iter().copied().collect();
        let has = |a: u32, b: u32| set.contains(&(a.min(b), a.max(b)));
        let mut found = false;
        for &(a, b) in &g.edges {
            for c in 0..g.vertices as u32 {
                if c != a && c != b && has(a, c) && has(b, c) {
                    found = true;
                }
            }
        }
        assert!(!found);
    }

    #[test]
    fn sparse_matrix_multiply_reference() {
        let m1 = SparseMatrix {
            n: 3,
            ones: vec![(0, 1), (1, 2)],
        };
        let m2 = SparseMatrix {
            n: 3,
            ones: vec![(1, 0), (2, 2)],
        };
        let product = m1.multiply(&m2);
        assert_eq!(product.ones, vec![(0, 0), (1, 2)]);
    }

    #[test]
    fn random_matrix_size() {
        let m = sparse_boolean_matrix(20, 50, 9);
        assert_eq!(m.ones.len(), 50);
    }

    #[test]
    fn random_database_is_reproducible() {
        let a = random_acyclic_database(10, 40, 5);
        let b = random_acyclic_database(10, 40, 5);
        assert_eq!(a.len(), b.len());
    }
}
