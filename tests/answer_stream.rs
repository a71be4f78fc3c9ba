//! Property tests of the unified answer cursor: laziness, prefix
//! equivalence, shard soundness, ownership, and the serving-layer window.
//!
//! The contract under test (`PreparedInstance::answers(Semantics)`):
//!
//! * **prefix property** — `answers(sem)?.take(k)` yields exactly the first
//!   `k` answers of the full enumeration, for every `k` and every semantics,
//!   on sequential *and* sharded (`execute_parallel`) instances;
//! * **batch equivalence** — `next_batch(k)` produces exactly the answers of
//!   `k` successive `next()` calls, under arbitrary mid-stream interleaving
//!   of the pull styles (`next` / `next_batch` / `fill`);
//! * **drop soundness** — a stream dropped mid-way (including before the
//!   cross-shard merge flush) has no effect on the instance or later streams;
//! * **ownership** — a stream outlives the `PreparedInstance` it came from;
//! * **serving window** — `limit`/`offset` pagination through
//!   `ServingEngine` reassembles the unbounded response exactly.

use omq::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The office OMQ of the running example: guarded, acyclic, free-connex.
fn office_omq() -> OntologyMediatedQuery {
    let ontology = Ontology::parse(
        "Researcher(x) -> exists y. HasOffice(x, y)\n\
         HasOffice(x, y) -> Office(y)\n\
         Office(x) -> exists y. InBuilding(x, y)",
    )
    .unwrap();
    let query =
        ConjunctiveQuery::parse("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)").unwrap();
    OntologyMediatedQuery::new(ontology, query).unwrap()
}

/// Same ontology, but only the building is asked for: researchers without
/// any listed office/building answer with the all-star tuple `(*)`, whose
/// minimality is a cross-shard property — the stress case for the merge
/// filter folded into the cursor.
fn building_omq() -> OntologyMediatedQuery {
    let ontology = Ontology::parse(
        "Researcher(x) -> exists y. HasOffice(x, y)\n\
         HasOffice(x, y) -> Office(y)\n\
         Office(x) -> exists y. InBuilding(x, y)",
    )
    .unwrap();
    let query = ConjunctiveQuery::parse("q(x3) :- HasOffice(x1, x2), InBuilding(x2, x3)").unwrap();
    OntologyMediatedQuery::new(ontology, query).unwrap()
}

/// A random office database assembled from independent researcher/office/
/// building wirings; disjoint constant ranges per "island" make the Gaifman
/// component count scale with the input.
#[derive(Debug, Clone)]
struct RandomDb {
    researchers: Vec<usize>,
    offices: Vec<(usize, usize)>,
    buildings: Vec<(usize, usize)>,
}

fn db_strategy() -> impl Strategy<Value = RandomDb> {
    (
        prop::collection::vec(0..10usize, 1..10),
        prop::collection::vec((0..10usize, 0..6usize), 0..8),
        prop::collection::vec((0..6usize, 0..4usize), 0..6),
    )
        .prop_map(|(researchers, offices, buildings)| RandomDb {
            researchers,
            offices,
            buildings,
        })
}

impl RandomDb {
    fn to_database(&self, schema: &Schema) -> Database {
        let mut builder = Database::builder(schema.clone());
        for &r in &self.researchers {
            builder = builder.fact("Researcher", [format!("p{r}")]);
        }
        for &(r, o) in &self.offices {
            builder = builder.fact("HasOffice", [format!("p{r}"), format!("o{o}")]);
        }
        for &(o, b) in &self.buildings {
            builder = builder.fact("InBuilding", [format!("o{o}"), format!("b{b}")]);
        }
        builder.build().unwrap()
    }
}

/// Full drain of a stream, asserting clean termination.
fn drain(instance: &PreparedInstance, semantics: Semantics) -> Vec<Answer> {
    let mut stream = instance.answers(semantics).unwrap();
    let answers: Vec<Answer> = (&mut stream).collect();
    assert!(stream.error().is_none(), "stream ended with an error");
    assert_eq!(stream.emitted(), answers.len());
    // A drained stream is fused.
    assert!(stream.next().is_none());
    answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The prefix property on all three semantics, sequential and sharded:
    /// `take(k)` equals the first k of the full enumeration.
    #[test]
    fn take_k_is_a_prefix_of_the_full_enumeration(
        random_db in db_strategy(),
        threads in 1..5usize,
        ks in prop::collection::vec(0..12usize, 3),
    ) {
        for omq in [office_omq(), building_omq()] {
            let plan = QueryPlan::compile(&omq).unwrap();
            let db = random_db.to_database(omq.data_schema());
            for instance in [plan.execute(&db).unwrap(), plan.execute_parallel(&db, threads).unwrap()] {
                for semantics in Semantics::ALL {
                    let full = drain(&instance, semantics);
                    // Every yielded answer is of the stream's variant.
                    for answer in &full {
                        prop_assert_eq!(answer.semantics(), semantics);
                    }
                    for &k in &ks {
                        let prefix: Vec<Answer> = instance
                            .answers(semantics)
                            .unwrap()
                            .take(k)
                            .collect();
                        prop_assert_eq!(
                            &prefix[..],
                            &full[..k.min(full.len())],
                            "take({}) is not a prefix ({:?}, {} shards)",
                            k, semantics, instance.shard_count()
                        );
                    }
                }
            }
        }
    }

    /// `next_batch(k)` ≡ `k × next()`: a random interleaving of `next()`,
    /// `next_batch(k)` and `fill` pulls reproduces the plain drain exactly —
    /// same answers, same order — on all three semantics, sequential and
    /// sharded, with batch boundaries landing at arbitrary offsets
    /// (mid-shard, across shard handovers, into the merge flush).
    #[test]
    fn next_batch_interleaves_with_next(
        random_db in db_strategy(),
        threads in 1..5usize,
        schedule in prop::collection::vec((0..3usize, 1..5usize), 1..24),
    ) {
        for omq in [office_omq(), building_omq()] {
            let plan = QueryPlan::compile(&omq).unwrap();
            let db = random_db.to_database(omq.data_schema());
            for instance in [plan.execute(&db).unwrap(), plan.execute_parallel(&db, threads).unwrap()] {
                for semantics in Semantics::ALL {
                    let full = drain(&instance, semantics);
                    let mut stream = instance.answers(semantics).unwrap();
                    let mut got: Vec<Answer> = Vec::new();
                    'pulls: for &(style, k) in schedule.iter().cycle().take(schedule.len() * 8) {
                        match style {
                            0 => match stream.next() {
                                Some(answer) => got.push(answer),
                                None => break 'pulls,
                            },
                            1 => {
                                // The prefix invariant holds mid-stream,
                                // not just at exhaustion.
                                prop_assert_eq!(&got[..], &full[..got.len()]);
                                if stream.next_batch(&mut got, k) == 0 {
                                    break 'pulls;
                                }
                            }
                            _ => {
                                let mut buf = vec![Answer::Complete(Vec::new()); k];
                                let n = stream.fill(&mut buf);
                                got.extend(buf.into_iter().take(n));
                                if n < k {
                                    break 'pulls;
                                }
                            }
                        }
                    }
                    // Whatever the schedule left unpulled, finish batched;
                    // the complete drains must agree answer-for-answer.
                    while stream.next_batch(&mut got, 7) > 0 {}
                    prop_assert_eq!(
                        &got[..],
                        &full[..],
                        "batched drain diverges ({:?}, {} shards)",
                        semantics,
                        instance.shard_count()
                    );
                    prop_assert_eq!(stream.emitted(), full.len());
                    prop_assert!(stream.error().is_none());
                }
            }
        }
    }

    /// Sharded streams and sequential streams agree as answer multisets —
    /// the merge and Boolean dedup folded into the cursor are sound.
    #[test]
    fn sharded_streams_agree_with_sequential(random_db in db_strategy(), threads in 2..6usize) {
        for omq in [office_omq(), building_omq()] {
            let plan = QueryPlan::compile(&omq).unwrap();
            let db = random_db.to_database(omq.data_schema());
            let sequential = plan.execute(&db).unwrap();
            let parallel = plan.execute_parallel(&db, threads).unwrap();
            for semantics in Semantics::ALL {
                let count = |instance: &PreparedInstance| -> BTreeMap<Answer, usize> {
                    let mut m = BTreeMap::new();
                    for a in drain(instance, semantics) {
                        *m.entry(a).or_default() += 1;
                    }
                    m
                };
                prop_assert_eq!(
                    count(&sequential),
                    count(&parallel),
                    "{:?} diverges across {} shards",
                    semantics,
                    parallel.shard_count()
                );
            }
        }
    }

    /// Dropping a stream mid-way (before shard boundaries, before the merge
    /// flush) never panics and leaves the instance fully usable.
    #[test]
    fn drop_mid_stream_is_sound(random_db in db_strategy(), threads in 1..5usize, cut in 0..6usize) {
        let omq = building_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        let db = random_db.to_database(omq.data_schema());
        let instance = plan.execute_parallel(&db, threads).unwrap();
        for semantics in Semantics::ALL {
            let full = drain(&instance, semantics);
            let mut stream = instance.answers(semantics).unwrap();
            for _ in 0..cut {
                if stream.next().is_none() {
                    break;
                }
            }
            drop(stream);
            // The instance is untouched: a fresh stream reproduces the
            // full sequence.
            prop_assert_eq!(drain(&instance, semantics), full);
        }
    }

    /// `for_each_answer` honours `ControlFlow::Break` and reports the number
    /// of delivered answers.
    #[test]
    fn for_each_answer_breaks_early(random_db in db_strategy(), stop_after in 1..5usize) {
        let omq = office_omq();
        let plan = QueryPlan::compile(&omq).unwrap();
        let db = random_db.to_database(omq.data_schema());
        let instance = plan.execute(&db).unwrap();
        let full = drain(&instance, Semantics::MinimalPartial);
        let mut seen: Vec<Answer> = Vec::new();
        let delivered = instance
            .for_each_answer(Semantics::MinimalPartial, |answer| {
                seen.push(answer);
                if seen.len() >= stop_after {
                    std::ops::ControlFlow::Break(())
                } else {
                    std::ops::ControlFlow::Continue(())
                }
            })
            .unwrap();
        prop_assert_eq!(delivered, seen.len());
        prop_assert!(seen.len() <= stop_after);
        prop_assert_eq!(&seen[..], &full[..seen.len()]);
    }

    /// Serving-layer pagination: stepping `offset` by `limit`-sized pages
    /// reassembles the unbounded response exactly, and `truncated` is the
    /// correct continuation signal.
    #[test]
    fn serving_pagination_reassembles(random_db in db_strategy(), page_size in 1..5usize) {
        let omq = office_omq();
        let mut engine = ServingEngine::new(2);
        let id = engine.register_query("office", &omq).unwrap();
        let db = std::sync::Arc::new(random_db.to_database(omq.data_schema()));
        let full = engine
            .serve_one(&Request::new(id, Semantics::MinimalPartial).with_database(db.clone()))
            .unwrap();
        prop_assert!(!full.truncated);
        let AnswerSet::Partial(full) = full.answers else {
            panic!("semantics mismatch");
        };
        let mut paged: Vec<PartialTuple> = Vec::new();
        let mut offset = 0usize;
        loop {
            let page = engine
                .serve_one(
                    &Request::new(id, Semantics::MinimalPartial)
                        .with_database(db.clone())
                        .with_offset(offset)
                        .with_limit(page_size),
                )
                .unwrap();
            let AnswerSet::Partial(answers) = page.answers else {
                panic!("semantics mismatch");
            };
            prop_assert!(answers.len() <= page_size);
            let done = !page.truncated;
            offset += answers.len();
            paged.extend(answers);
            if done {
                break;
            }
        }
        prop_assert_eq!(paged, full);
    }
}

/// Answer streams own their data: they survive the `PreparedInstance` they
/// came from.
#[test]
fn streams_outlive_their_instance() {
    let omq = office_omq();
    let plan = QueryPlan::compile(&omq).unwrap();
    let db = Database::builder(omq.data_schema().clone())
        .fact("Researcher", ["mary"])
        .fact("Researcher", ["john"])
        .fact("HasOffice", ["mary", "room1"])
        .fact("InBuilding", ["room1", "main1"])
        .build()
        .unwrap();

    let make_stream = |semantics: Semantics| -> AnswerStream {
        let instance = plan.execute(&db).unwrap();
        let mut stream = instance.answers(semantics).unwrap();
        // Pull one answer while the instance is alive...
        let _ = stream.next();
        // ...then drop the instance; the stream keeps going.
        drop(instance);
        stream
    };
    for semantics in Semantics::ALL {
        let instance = plan.execute(&db).unwrap();
        let expected = instance.answers(semantics).unwrap().count();
        let mut stream = make_stream(semantics);
        let rest = stream.by_ref().count();
        assert!(stream.error().is_none());
        assert_eq!(stream.emitted(), expected);
        assert_eq!(rest + 1, expected.max(1));
    }
}

/// The unified single-tester agrees with the streams it mirrors, across
/// shards.
#[test]
fn unified_test_confirms_streamed_answers() {
    let omq = building_omq();
    let plan = QueryPlan::compile(&omq).unwrap();
    let db = Database::builder(omq.data_schema().clone())
        .fact("Researcher", ["ada"]) // chase-only component
        .fact("Researcher", ["bob"])
        .fact("HasOffice", ["bob", "lab"])
        .fact("InBuilding", ["lab", "west"])
        .build()
        .unwrap();
    for instance in [
        plan.execute(&db).unwrap(),
        plan.execute_parallel(&db, 2).unwrap(),
    ] {
        for semantics in Semantics::ALL {
            for answer in instance.answers(semantics).unwrap() {
                assert!(
                    instance.test(&answer).unwrap(),
                    "{answer:?} not confirmed on {} shard(s)",
                    instance.shard_count()
                );
            }
        }
        // A non-minimal candidate is rejected.
        let starred = Answer::Partial(instance.parse_partial(&["*"]).unwrap());
        assert!(!instance.test(&starred).unwrap());
    }
}

/// Boolean queries through the cursor: the empty tuple appears exactly once,
/// on every semantics, however many satisfiable shards exist.
#[test]
fn boolean_dedup_inside_the_cursor() {
    let ontology = Ontology::parse("Researcher(x) -> exists y. HasOffice(x, y)").unwrap();
    let query = ConjunctiveQuery::parse("q() :- HasOffice(x, y)").unwrap();
    let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
    let plan = QueryPlan::compile(&omq).unwrap();
    let db = Database::builder(omq.data_schema().clone())
        .fact("Researcher", ["a"])
        .fact("Researcher", ["b"])
        .fact("Researcher", ["c"])
        .build()
        .unwrap();
    let parallel = plan.execute_parallel(&db, 3).unwrap();
    assert_eq!(parallel.shard_count(), 3);
    for semantics in Semantics::ALL {
        let answers: Vec<Answer> = parallel.answers(semantics).unwrap().collect();
        assert_eq!(answers.len(), 1, "{semantics:?}");
        assert!(answers[0].is_empty());
        // Laziness: the very first pull already yields the tuple.
        assert!(parallel.answers(semantics).unwrap().next().is_some());
    }
    // Unsatisfiable case: empty streams everywhere.
    let empty_db = Database::new(omq.data_schema().clone());
    let instance = plan.execute_parallel(&empty_db, 3).unwrap();
    for semantics in Semantics::ALL {
        assert_eq!(instance.answers(semantics).unwrap().count(), 0);
    }
}

/// Intractable queries fail at `answers()` (stream construction), not
/// mid-stream.
#[test]
fn intractable_queries_fail_at_stream_construction() {
    let ontology = Ontology::new();
    let query = ConjunctiveQuery::parse("q(x, z) :- R(x, y), S(y, z)").unwrap();
    let omq = OntologyMediatedQuery::new(ontology, query).unwrap();
    let plan = QueryPlan::compile(&omq).unwrap();
    let mut s = Schema::new();
    s.add_relation("R", 2).unwrap();
    s.add_relation("S", 2).unwrap();
    let db = Database::builder(s)
        .fact("R", ["a", "b"])
        .fact("S", ["b", "c"])
        .build()
        .unwrap();
    let instance = plan.execute(&db).unwrap();
    for semantics in Semantics::ALL {
        assert!(instance.answers(semantics).is_err(), "{semantics:?}");
    }
}
