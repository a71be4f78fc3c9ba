//! Randomised integration tests: the constant-delay engines must agree with
//! the brute-force chase-and-join baseline on every evaluation mode.

use omq::prelude::*;
use omq_bench::generators::{university, UniversityConfig};
use std::collections::BTreeSet;

fn prepare(omq: &OntologyMediatedQuery, db: &Database) -> PreparedInstance {
    QueryPlan::compile(omq).unwrap().execute(db).unwrap()
}

/// The answers of one semantics, rendered with constant names.
fn rendered(instance: &PreparedInstance, semantics: Semantics) -> BTreeSet<String> {
    instance
        .answers(semantics)
        .unwrap()
        .map(|a| instance.format_answer(&a))
        .collect()
}

fn render_partial(answers: &[PartialTuple], db: &Database) -> BTreeSet<String> {
    answers
        .iter()
        .map(|t| t.display_with(|c| db.const_name(c).to_owned()))
        .collect()
}

fn render_multi(answers: &[MultiTuple], db: &Database) -> BTreeSet<String> {
    answers
        .iter()
        .map(|t| t.display_with(|c| db.const_name(c).to_owned()))
        .collect()
}

fn render_complete(answers: &[Vec<Value>], db: &Database) -> BTreeSet<String> {
    answers
        .iter()
        .map(|a| {
            let names: Vec<&str> = a
                .iter()
                .map(|v| match v {
                    Value::Const(c) => db.const_name(*c),
                    Value::Null(_) => "<null>",
                })
                .collect();
            format!("({})", names.join(","))
        })
        .collect()
}

fn check_workload(config: &UniversityConfig) {
    let (omq, db) = university(config);
    let instance = prepare(&omq, &db);
    let brute = BruteForce::new(&omq, &db, &ChaseConfig::default()).expect("chase runs");

    assert_eq!(
        rendered(&instance, Semantics::Complete),
        render_complete(&brute.complete_answers(), &brute.chased),
        "complete answers, {config:?}"
    );
    assert_eq!(
        rendered(&instance, Semantics::MinimalPartial),
        render_partial(&brute.minimal_partial(), &brute.chased),
        "partial answers, {config:?}"
    );
    assert_eq!(
        rendered(&instance, Semantics::MinimalPartialMulti),
        render_multi(&brute.minimal_partial_multi(), &brute.chased),
        "multi answers, {config:?}"
    );

    // All-testing agrees with the enumerated complete answers, and
    // single-testing accepts the enumerated answers of every semantics
    // (a small prefix of each).
    let tester = instance.all_tester().unwrap();
    for answer in instance.answers(Semantics::Complete).unwrap().take(50) {
        let tuple = answer.as_complete().unwrap();
        let values: Vec<Value> = tuple.iter().map(|&c| Value::Const(c)).collect();
        assert!(tester.test(&values).unwrap());
    }
    for semantics in Semantics::ALL {
        for answer in instance.answers(semantics).unwrap().take(50) {
            assert!(instance.test(&answer).unwrap());
        }
    }
}

#[test]
fn small_workloads_all_modes_agree() {
    for seed in 0..4u64 {
        check_workload(&UniversityConfig {
            researchers: 30,
            office_ratio: 0.6,
            building_ratio: 0.5,
            buildings: 4,
            seed,
        });
    }
}

#[test]
fn fully_complete_data_has_no_wildcards() {
    let config = UniversityConfig {
        researchers: 40,
        office_ratio: 1.0,
        building_ratio: 1.0,
        buildings: 3,
        seed: 11,
    };
    let (omq, db) = university(&config);
    let instance = prepare(&omq, &db);
    let partial: Vec<Answer> = instance
        .answers(Semantics::MinimalPartial)
        .unwrap()
        .collect();
    assert!(partial.iter().all(Answer::is_complete));
    assert_eq!(
        partial.len(),
        instance.answers(Semantics::Complete).unwrap().count()
    );
    check_workload(&config);
}

#[test]
fn fully_incomplete_data_is_all_wildcards() {
    let config = UniversityConfig {
        researchers: 25,
        office_ratio: 0.0,
        building_ratio: 0.0,
        buildings: 2,
        seed: 3,
    };
    let (omq, db) = university(&config);
    let instance = prepare(&omq, &db);
    assert_eq!(instance.answers(Semantics::Complete).unwrap().count(), 0);
    let partial: Vec<PartialTuple> = instance
        .answers(Semantics::MinimalPartial)
        .unwrap()
        .filter_map(Answer::into_partial)
        .collect();
    // One answer per researcher, with both the office and the building
    // anonymous.
    assert_eq!(partial.len(), 25);
    assert!(partial.iter().all(|t| t.star_count() == 2));
    check_workload(&config);
}

#[test]
fn star_shaped_query_with_shared_nulls() {
    // A query with three atoms sharing the answer variable x; the OfficeMate
    // style ontology introduces shared nulls, exercising multi-wildcard
    // minimality.
    let ontology = Ontology::parse(
        "Seed(x) -> exists y. R(x, y), S(x, y)\n\
         Seed(x) -> exists z. T(x, z)",
    )
    .unwrap();
    let query = ConjunctiveQuery::parse("q(x, a, b, c) :- R(x, a), S(x, b), T(x, c)").unwrap();
    let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
    let db = Database::builder(omq.data_schema().clone())
        .fact("Seed", ["s1"])
        .fact("Seed", ["s2"])
        .fact("R", ["s2", "r"])
        .build()
        .unwrap();
    let instance = prepare(&omq, &db);
    let brute = BruteForce::new(&omq, &db, &ChaseConfig::default()).unwrap();
    assert_eq!(
        rendered(&instance, Semantics::MinimalPartialMulti),
        render_multi(&brute.minimal_partial_multi(), &brute.chased)
    );
    assert_eq!(
        rendered(&instance, Semantics::MinimalPartial),
        render_partial(&brute.minimal_partial(), &brute.chased)
    );
}

// ---------------------------------------------------------------------------
// Generated cases for the shapes Algorithm 2's per-answer step special-cases:
// the answer *set* against the brute-force baseline, `count` against the
// drain, and the answer *sequence* of every execution path against the
// sequence the per-answer (template-free, `BTreeMap`-tabled) step produced
// before it was rewritten — recorded as order-dependent digests.
// ---------------------------------------------------------------------------

/// SplitMix64: the generated cases must not move with any library generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// One generated shape: an OMQ, the relations to draw random facts over
/// (`(name, arity, facts per component below this)`), and the digests of the
/// multi-wildcard sequence over all seeds through `execute` and
/// `execute_tracked` (`execute_parallel(3)` must reproduce the latter).
struct Shape {
    ontology: &'static str,
    query: &'static str,
    relations: &'static [(&'static str, usize, u64)],
    /// A constant some facts mention in every component (joining them), or
    /// none: the components then stay apart and the sharded paths shard.
    shared_constant: Option<&'static str>,
    /// How some answer of some seed must end, for the shape to be the case
    /// it is here for.
    witness: &'static str,
    recorded: [u64; 2],
}

const SHAPES: &[Shape] = &[
    // A repeated answer variable: the tester rejects a constant and a
    // wildcard on the same variable, so no verdict may be taken for free.
    Shape {
        ontology: "A(x) -> exists y. R(x, y)",
        query: "q(x, x, y) :- R(x, y)",
        relations: &[("A", 1, 4), ("R", 2, 4)],
        shared_constant: None,
        witness: ",*1)",
        recorded: [0x4fde857890c1f9ca, 0xae3dfd364bdc309a],
    },
    // A constant in the query body.
    Shape {
        ontology: "R(x, y) -> exists z. S(y, z)",
        query: "q(x, y, z) :- R(x, y), S(y, z), Tag(x, 'hq')",
        relations: &[("R", 2, 4), ("S", 2, 4)],
        shared_constant: Some("hq"),
        witness: ",*1)",
        recorded: [0x027d4c2471d81081, 0x027d4c2471d81081],
    },
    // Arity 4 with chase-shared nulls (the Example 6.2 shape): merged
    // wildcard groups occur and some answers are reachable only through the
    // cone.
    Shape {
        ontology: "Seed(x) -> exists y. R(x, y), T(x, y)\nSeed(x) -> exists z. S(x, z)",
        query: "q(x0, x1, x2, x3) :- R(x0, x1), S(x0, x2), T(x0, x3)",
        relations: &[("Seed", 1, 4), ("R", 2, 4), ("S", 2, 4), ("T", 2, 4)],
        shared_constant: None,
        witness: ",*1,*2,*1)",
        recorded: [0x86807f3b66c80cf5, 0x93a9526354852925],
    },
    // Wildcard-only answers, whose minimality is decided across shards: with
    // an `R`-fact anywhere `(*1,*2)` is dominated, with none it survives.
    Shape {
        ontology: "A(x) -> exists y. R(x, y)\nR(x, y) -> exists z. S(y, z)",
        query: "q(y, z) :- R(x, y), S(y, z)",
        relations: &[("A", 1, 4), ("R", 2, 2), ("S", 2, 4)],
        shared_constant: None,
        witness: "(*1,*2)",
        recorded: [0xdf813e82026cbaee, 0x6de4e8e18bf4ac66],
    },
];

const SHAPE_SEEDS: u64 = 12;

impl Shape {
    fn omq(&self) -> OntologyMediatedQuery {
        OntologyMediatedQuery::new(
            Ontology::parse(self.ontology).unwrap(),
            ConjunctiveQuery::parse(self.query).unwrap(),
        )
        .unwrap()
    }

    /// Two to three components of up to four constants each; a relation may
    /// stay empty in a component, so wildcard answers of every kind occur.
    fn database(&self, omq: &OntologyMediatedQuery, seed: u64) -> Database {
        let mut rng = Rng(seed ^ 0x6d75_6c74_6900);
        let mut builder = Database::builder(omq.data_schema().clone());
        for component in 0..2 + rng.below(2) {
            let constant = |rng: &mut Rng| format!("k{component}c{}", rng.below(4));
            for &(relation, arity, below) in self.relations {
                for _ in 0..rng.below(below) {
                    let args: Vec<String> = (0..arity).map(|_| constant(&mut rng)).collect();
                    builder = builder.fact(relation, args);
                }
            }
            if let Some(shared) = self.shared_constant {
                if rng.below(3) > 0 {
                    builder = builder.fact("Tag", [constant(&mut rng), shared.to_owned()]);
                }
            }
        }
        builder.build().unwrap()
    }
}

/// FNV-1a over the rendered answers in order, one per line.
fn fold_sequence(digest: &mut u64, rendered: &[String]) {
    for byte in rendered.iter().flat_map(|a| a.bytes().chain([b'\n'])) {
        *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn generated_shapes_keep_set_count_and_recorded_order() {
    for shape in SHAPES {
        let omq = shape.omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        let mut digests = [0xcbf2_9ce4_8422_2325u64; 3];
        let mut sharded = 0usize;
        let mut witnessed = false;
        for seed in 0..SHAPE_SEEDS {
            let db = shape.database(&omq, seed);
            let brute = BruteForce::new(&omq, &db, &ChaseConfig::default()).unwrap();
            let expected = render_multi(&brute.minimal_partial_multi(), &brute.chased);
            let instances = [
                plan.execute(&db).unwrap(),
                plan.execute_parallel(&db, 3).unwrap(),
                plan.execute_tracked(&db).unwrap(),
            ];
            sharded += instances.iter().filter(|i| i.shard_count() > 1).count();
            for (instance, digest) in instances.iter().zip(&mut digests) {
                let sequence: Vec<String> = instance
                    .answers(Semantics::MinimalPartialMulti)
                    .unwrap()
                    .map(|a| instance.format_answer(&a))
                    .collect();
                let set: BTreeSet<String> = sequence.iter().cloned().collect();
                assert_eq!(set.len(), sequence.len(), "{}: repetition", shape.query);
                assert_eq!(set, expected, "{}, seed {seed}", shape.query);
                assert_eq!(
                    instance.count(Semantics::MinimalPartialMulti).unwrap(),
                    sequence.len() as u64,
                    "{}, seed {seed}: count != drain",
                    shape.query
                );
                witnessed |= sequence.iter().any(|a| a.ends_with(shape.witness));
                fold_sequence(digest, &sequence);
            }
        }
        // The cases are what they claim to be.
        assert!(witnessed, "{}: no answer {}", shape.query, shape.witness);
        if shape.shared_constant.is_none() {
            assert!(sharded > 0, "{}: never sharded", shape.query);
        }
        assert_eq!(
            [digests[0], digests[2]],
            shape.recorded,
            "{}: the multi-wildcard sequence changed: {digests:#x?}",
            shape.query
        );
        assert_eq!(
            digests[1], digests[2],
            "{}: execute_parallel(3) left execute_tracked's sequence",
            shape.query
        );
    }
}
