//! Property-based tests (proptest): the optimised engines must agree with
//! brute-force oracles on randomly generated queries and databases, and the
//! core data structures must satisfy their invariants.

use omq::prelude::*;
use omq_core::baseline;
use proptest::prelude::*;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Random conjunctive queries and databases over a fixed small schema.
// ---------------------------------------------------------------------------

const VARS: [&str; 4] = ["x", "y", "z", "w"];
const UNARY: [&str; 2] = ["A", "B"];
const BINARY: [&str; 2] = ["R", "S"];

#[derive(Debug, Clone)]
struct RandomAtom {
    relation: String,
    vars: Vec<usize>,
}

fn atom_strategy() -> impl Strategy<Value = RandomAtom> {
    prop_oneof![
        (0..UNARY.len(), 0..VARS.len()).prop_map(|(r, v)| RandomAtom {
            relation: UNARY[r].to_owned(),
            vars: vec![v],
        }),
        (0..BINARY.len(), 0..VARS.len(), 0..VARS.len()).prop_map(|(r, v1, v2)| RandomAtom {
            relation: BINARY[r].to_owned(),
            vars: vec![v1, v2],
        }),
    ]
}

#[derive(Debug, Clone)]
struct RandomQuery {
    atoms: Vec<RandomAtom>,
    answer_vars: Vec<usize>,
}

fn query_strategy() -> impl Strategy<Value = RandomQuery> {
    (
        prop::collection::vec(atom_strategy(), 1..4),
        prop::collection::vec(0..VARS.len(), 0..3),
    )
        .prop_map(|(atoms, answer_vars)| RandomQuery { atoms, answer_vars })
}

impl RandomQuery {
    /// Renders the query, keeping only answer variables that occur in the
    /// body (so that the query is well-formed).
    fn to_cq(&self) -> Option<ConjunctiveQuery> {
        let used: BTreeSet<usize> = self.atoms.iter().flat_map(|a| a.vars.clone()).collect();
        let answer: Vec<&str> = self
            .answer_vars
            .iter()
            .filter(|v| used.contains(v))
            .map(|&v| VARS[v])
            .collect();
        let body: Vec<String> = self
            .atoms
            .iter()
            .map(|a| {
                let args: Vec<&str> = a.vars.iter().map(|&v| VARS[v]).collect();
                format!("{}({})", a.relation, args.join(", "))
            })
            .collect();
        let text = format!("q({}) :- {}", answer.join(", "), body.join(", "));
        ConjunctiveQuery::parse(&text).ok()
    }
}

#[derive(Debug, Clone)]
struct RandomDb {
    unary_facts: Vec<(usize, usize)>,
    binary_facts: Vec<(usize, usize, usize)>,
    nulls: Vec<(usize, usize, usize)>,
}

fn db_strategy() -> impl Strategy<Value = RandomDb> {
    (
        prop::collection::vec((0..UNARY.len(), 0..5usize), 0..8),
        prop::collection::vec((0..BINARY.len(), 0..5usize, 0..5usize), 0..10),
        prop::collection::vec((0..BINARY.len(), 0..5usize, 0..3usize), 0..4),
    )
        .prop_map(|(unary_facts, binary_facts, nulls)| RandomDb {
            unary_facts,
            binary_facts,
            nulls,
        })
}

impl RandomDb {
    /// Builds a database with constants `c0..c4` and a few labelled nulls in
    /// the second position of binary facts (mimicking a chased instance).
    fn to_database(&self) -> Database {
        let mut schema = Schema::new();
        for r in UNARY {
            schema.add_relation(r, 1).unwrap();
        }
        for r in BINARY {
            schema.add_relation(r, 2).unwrap();
        }
        let mut db = Database::new(schema);
        for (r, c) in &self.unary_facts {
            db.add_named_fact(UNARY[*r], &[format!("c{c}")]).unwrap();
        }
        for (r, c1, c2) in &self.binary_facts {
            db.add_named_fact(BINARY[*r], &[format!("c{c1}"), format!("c{c2}")])
                .unwrap();
        }
        for (r, c, n) in &self.nulls {
            let rel = db.schema().relation_id(BINARY[*r]).unwrap();
            let constant = Value::Const(db.intern_const(&format!("c{c}")));
            // A bounded pool of nulls so that shared nulls occur.
            let null = Value::Null(NullId(*n as u32));
            db.add_fact(Fact::new(rel, vec![constant, null])).unwrap();
        }
        db
    }
}

/// The answers of `q` over `database` under `semantics`, through a plan with
/// an empty ontology: the chase adds nothing, so the enumerators run over
/// the generated instance itself, nulls included.
fn answers(q: &ConjunctiveQuery, database: &Database, semantics: Semantics) -> AnswerStream {
    let omq = OntologyMediatedQuery::new(Ontology::new(), q.clone()).unwrap();
    QueryPlan::compile(&omq)
        .unwrap()
        .execute(database)
        .unwrap()
        .answers(semantics)
        .unwrap()
}

// ---------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// GYO: whenever a query is classified acyclic, the returned join tree is
    /// a valid join tree for its atoms.
    #[test]
    fn join_trees_are_valid(query in query_strategy()) {
        let Some(q) = query.to_cq() else { return Ok(()); };
        if let Some(tree) = omq_cq::acyclicity::join_tree(&q) {
            prop_assert!(tree.is_valid_for(&omq_cq::acyclicity::atom_vertex_sets(&q)));
        }
        // Acyclicity and free-connex acyclicity each imply weak acyclicity.
        let report = AcyclicityReport::classify(&q);
        if report.acyclic || report.free_connex_acyclic {
            prop_assert!(report.weakly_acyclic);
        }
    }

    /// Constant-delay enumeration of complete answers agrees with the
    /// brute-force evaluation for every tractable random query.
    #[test]
    fn complete_enumeration_matches_brute_force(query in query_strategy(), db in db_strategy()) {
        let Some(q) = query.to_cq() else { return Ok(()); };
        let database = db.to_database();
        let report = AcyclicityReport::classify(&q);
        if !report.enumeration_tractable() {
            return Ok(());
        }
        let structure = omq_core::FreeConnexStructure::build(&q, &database, false).unwrap();
        let mut fast = omq_core::collect_answers(&structure);
        let mut slow = baseline::cq_answers(&q, &database);
        fast.sort();
        slow.sort();
        prop_assert_eq!(&fast, &slow);
        // No duplicates.
        let dedup: BTreeSet<Vec<Value>> = fast.iter().cloned().collect();
        prop_assert_eq!(dedup.len(), fast.len());
    }

    /// Algorithm 1 produces exactly the minimal partial answers, without
    /// repetition.
    #[test]
    fn algorithm_1_matches_oracle(query in query_strategy(), db in db_strategy()) {
        let Some(q) = query.to_cq() else { return Ok(()); };
        let database = db.to_database();
        if !AcyclicityReport::classify(&q).enumeration_tractable() {
            return Ok(());
        }
        let fast: Vec<PartialTuple> = answers(&q, &database, Semantics::MinimalPartial)
            .map(|a| a.into_partial().expect("partial semantics"))
            .collect();
        let oracle = baseline::cq_minimal_partial(&q, &database);
        let fast_set: BTreeSet<PartialTuple> = fast.iter().cloned().collect();
        let oracle_set: BTreeSet<PartialTuple> = oracle.iter().cloned().collect();
        prop_assert_eq!(&fast_set, &oracle_set);
        prop_assert_eq!(fast_set.len(), fast.len());
    }

    /// Algorithm 2 produces exactly the minimal partial answers with
    /// multi-wildcards, without repetition.
    #[test]
    fn algorithm_2_matches_oracle(query in query_strategy(), db in db_strategy()) {
        let Some(q) = query.to_cq() else { return Ok(()); };
        let database = db.to_database();
        if !AcyclicityReport::classify(&q).enumeration_tractable() {
            return Ok(());
        }
        let fast: Vec<MultiTuple> = answers(&q, &database, Semantics::MinimalPartialMulti)
            .map(|a| a.into_multi().expect("multi semantics"))
            .collect();
        let oracle = baseline::cq_minimal_partial_multi(&q, &database);
        let fast_set: BTreeSet<MultiTuple> = fast.iter().cloned().collect();
        let oracle_set: BTreeSet<MultiTuple> = oracle.iter().cloned().collect();
        prop_assert_eq!(&fast_set, &oracle_set);
        prop_assert_eq!(fast_set.len(), fast.len());
    }

    /// The all-tester accepts exactly the complete answers (checked against a
    /// sample of candidate tuples).
    #[test]
    fn all_tester_matches_answers(query in query_strategy(), db in db_strategy()) {
        let Some(q) = query.to_cq() else { return Ok(()); };
        if q.arity() == 0 || q.arity() > 3 {
            return Ok(());
        }
        let database = db.to_database();
        if !omq_cq::acyclicity::is_free_connex_acyclic(&q) {
            return Ok(());
        }
        let tester = AllTester::build(&q, &database, false).unwrap();
        let answers: BTreeSet<Vec<Value>> =
            baseline::cq_answers(&q, &database).into_iter().collect();
        // Sample candidates: all answers plus a grid over the active domain.
        let mut candidates: Vec<Vec<Value>> = answers.iter().cloned().collect();
        let adom: Vec<Value> = database.adom().to_vec();
        for (i, &a) in adom.iter().enumerate().take(6) {
            let tuple: Vec<Value> = (0..q.arity()).map(|k| adom[(i + k) % adom.len()]).collect();
            candidates.push(tuple);
            candidates.push(vec![a; q.arity()]);
        }
        for c in candidates {
            prop_assert_eq!(tester.test(&c).unwrap(), answers.contains(&c));
        }
    }

    /// Single-testing of minimal partial answers agrees with the oracle set.
    #[test]
    fn single_testing_matches_oracle(query in query_strategy(), db in db_strategy()) {
        let Some(q) = query.to_cq() else { return Ok(()); };
        if q.arity() == 0 || q.arity() > 2 {
            return Ok(());
        }
        let database = db.to_database();
        let oracle: BTreeSet<PartialTuple> =
            baseline::cq_minimal_partial(&q, &database).into_iter().collect();
        // Candidates: every tuple over (a sample of the constants) ∪ {*}.
        let consts: Vec<PartialValue> = database
            .adom_consts()
            .into_iter()
            .take(4)
            .map(PartialValue::Const)
            .chain(std::iter::once(PartialValue::Star))
            .collect();
        let mut candidates: Vec<PartialTuple> = vec![PartialTuple(Vec::new())];
        for _ in 0..q.arity() {
            let mut next = Vec::new();
            for t in &candidates {
                for &v in &consts {
                    let mut extended = t.clone();
                    extended.0.push(v);
                    next.push(extended);
                }
            }
            candidates = next;
        }
        for candidate in candidates {
            let tested =
                single_testing::test_minimal_partial(&q, &database, &candidate).unwrap();
            prop_assert_eq!(tested, oracle.contains(&candidate), "candidate {}", candidate);
        }
    }

    /// The single-wildcard preference order is a partial order and the
    /// minimality filter is sound and complete.
    #[test]
    fn partial_order_properties(
        tuples in prop::collection::vec(
            prop::collection::vec(prop_oneof![
                (0u32..4).prop_map(|c| PartialValue::Const(ConstId(c))),
                Just(PartialValue::Star)
            ], 3),
            1..8)
    ) {
        let tuples: Vec<PartialTuple> = tuples.into_iter().map(PartialTuple).collect();
        // Reflexivity and antisymmetry.
        for a in &tuples {
            prop_assert!(a.preferred_leq(a));
            for b in &tuples {
                if a.preferred_leq(b) && b.preferred_leq(a) {
                    prop_assert_eq!(a, b);
                }
                // Transitivity against every third element.
                for c in &tuples {
                    if a.preferred_leq(b) && b.preferred_leq(c) {
                        prop_assert!(a.preferred_leq(c));
                    }
                }
            }
        }
        // The minimality filter keeps exactly the non-dominated tuples.
        let minimal = PartialTuple::minimal(&tuples);
        for m in &minimal {
            prop_assert!(!tuples.iter().any(|other| other.preferred_lt(m)));
        }
        for t in &tuples {
            let dominated = tuples.iter().any(|other| other.preferred_lt(t));
            prop_assert_eq!(minimal.contains(t), !dominated);
        }
    }

    /// The chase produces a model of the ontology (when not truncated), and
    /// the query-directed chase only derives sound ground facts.
    #[test]
    fn chase_soundness(db in db_strategy()) {
        let ontology = Ontology::parse(
            "A(x) -> exists y. R(x, y)\n\
             R(x, y) -> B(y)\n\
             B(x) -> exists y. S(x, y)",
        ).unwrap();
        let database = {
            // Restrict to constants only (input databases contain no nulls).
            let raw = db.to_database();
            let mut clean = Database::new(raw.schema().clone());
            for fact in raw.facts() {
                if fact.is_ground() {
                    let names: Vec<String> = fact
                        .args
                        .iter()
                        .map(|v| raw.display_value(*v))
                        .collect();
                    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
                    clean
                        .add_named_fact(raw.schema().name(fact.rel), &name_refs)
                        .unwrap();
                }
            }
            clean
        };
        let result = chase(&database, &ontology, &ChaseConfig::default()).unwrap();
        if !result.truncated {
            prop_assert!(omq_chase::chase::satisfies(&result.database, &ontology));
        }
        // Every ground fact of the query-directed chase also appears in the
        // full bounded chase (soundness of the saturation).
        let query = ConjunctiveQuery::parse("q(x, y) :- R(x, y), B(y)").unwrap();
        let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
        let qchase = query_directed_chase(&database, &omq, &QchaseConfig::default()).unwrap();
        for fact in qchase.database.facts() {
            if fact.is_ground() {
                let rendered: Vec<String> = fact
                    .args
                    .iter()
                    .map(|v| qchase.database.display_value(*v))
                    .collect();
                let rel_name = qchase.database.schema().name(fact.rel);
                let found = result.database.facts().iter().any(|f| {
                    result.database.schema().name(f.rel) == rel_name
                        && f.args.len() == fact.args.len()
                        && f.args
                            .iter()
                            .map(|v| result.database.display_value(*v))
                            .collect::<Vec<_>>()
                            == rendered
                });
                prop_assert!(found, "unsound ground fact {rel_name}({rendered:?})");
            }
        }
    }
}
