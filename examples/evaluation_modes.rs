//! Demonstrates every evaluation mode studied in the paper on one generated
//! workload, and measures the constant-delay behaviour (maximum delay between
//! consecutive answers vs database size).
//!
//! Run with `cargo run --release --example evaluation_modes`.

use omq::prelude::*;
use std::time::Instant;

fn build_workload(researchers: usize) -> (OntologyMediatedQuery, Database) {
    let ontology = Ontology::parse(
        "Researcher(x) -> exists y. HasOffice(x, y)\n\
         HasOffice(x, y) -> Office(y)\n\
         Office(x) -> exists y. InBuilding(x, y)",
    )
    .expect("static ontology");
    let query = ConjunctiveQuery::parse("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)")
        .expect("static query");
    let omq = OntologyMediatedQuery::new(ontology, query).expect("well-formed OMQ");
    let mut db = Database::new(omq.data_schema().clone());
    for i in 0..researchers {
        let person = format!("p{i}");
        db.add_named_fact("Researcher", &[person.as_str()]).unwrap();
        if i % 3 != 0 {
            let office = format!("o{i}");
            db.add_named_fact("HasOffice", &[person.as_str(), office.as_str()])
                .unwrap();
            if i % 2 == 0 {
                let building = format!("b{}", i % 10);
                db.add_named_fact("InBuilding", &[office.as_str(), building.as_str()])
                    .unwrap();
            }
        }
    }
    (omq, db)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("size      preprocess(µs)  answers  mean delay(ns)  max delay(ns)");
    for researchers in [1_000usize, 4_000, 16_000] {
        let (omq, db) = build_workload(researchers);
        let start = Instant::now();
        let instance = QueryPlan::compile(&omq)?.execute(&db)?;
        // The cursor's own preprocessing (Algorithm 1's trees lists) also
        // counts as preprocessing; the delay is measured between `next()`s.
        let stream = instance.answers(Semantics::MinimalPartial)?;
        let preprocess = start.elapsed().as_micros();

        let mut count = 0usize;
        let mut last = Instant::now();
        let mut max_delay = 0u128;
        let mut total_delay = 0u128;
        for _answer in stream {
            let now = Instant::now();
            let delay = now.duration_since(last).as_nanos();
            last = now;
            count += 1;
            total_delay += delay;
            max_delay = max_delay.max(delay);
        }
        println!(
            "{researchers:<8}  {preprocess:<14}  {count:<7}  {:<14}  {max_delay}",
            total_delay / count.max(1) as u128
        );
    }

    // The other evaluation modes on the smallest workload.
    let (omq, db) = build_workload(1_000);
    let instance = QueryPlan::compile(&omq)?.execute(&db)?;

    // All-testing: constant time per candidate after linear preprocessing.
    let tester = instance.all_tester()?;
    let answers: Vec<Answer> = instance.answers(Semantics::Complete)?.collect();
    let first = answers[0].as_complete().expect("complete semantics");
    let hit: Vec<Value> = first.iter().map(|&c| Value::Const(c)).collect();
    println!("\nall-testing a true answer:  {}", tester.test(&hit)?);

    // Single-testing of a partial answer.
    let candidate = Answer::Partial(instance.parse_partial(&["p1", "o1", "*"])?);
    println!(
        "single-testing (p1, o1, *) as a minimal partial answer: {}",
        instance.test(&candidate)?
    );

    // Brute-force baseline agreement on a small instance.
    let (omq_small, db_small) = build_workload(100);
    let small = QueryPlan::compile(&omq_small)?.execute(&db_small)?;
    let brute = BruteForce::new(&omq_small, &db_small, &ChaseConfig::default())?;
    println!(
        "\nbaseline agreement on 100 researchers: engine={} answers, baseline={} answers",
        small.answers(Semantics::MinimalPartial)?.count(),
        brute.minimal_partial().len()
    );
    Ok(())
}
