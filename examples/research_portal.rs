//! A larger OBDA scenario: a research portal integrating an incomplete HR
//! export.  Demonstrates how the incompleteness ratio of the data shows up as
//! wildcard answers, and the "complete answers first" ordering of
//! Proposition 2.1.
//!
//! Run with `cargo run --release --example research_portal`.

use omq::prelude::*;
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ontology = Ontology::parse(
        "# Organisational knowledge.
         Researcher(x) -> exists y. MemberOf(x, y)
         MemberOf(x, y) -> Group(y)
         Group(x) -> exists y. PartOf(x, y)
         PartOf(x, y) -> Institute(y)
         # Every researcher works on some project.
         Researcher(x) -> exists y. WorksOn(x, y)
         WorksOn(x, y) -> Project(y)",
    )?;
    let query = ConjunctiveQuery::parse(
        "q(person, group, institute) :- MemberOf(person, group), PartOf(group, institute)",
    )?;
    let omq = OntologyMediatedQuery::new(ontology, query)?;

    // Synthesise an incomplete HR export: 40% of researchers have no listed
    // group, 30% of groups have no listed institute.
    let mut builder = Database::builder(omq.data_schema().clone());
    let groups = ["dbs", "kr", "ml", "sys"];
    let institutes = ["cs-institute", "ai-institute"];
    for (i, institute) in institutes.iter().enumerate() {
        // Only the first institute assignment is exported.
        if i == 0 {
            builder = builder.fact("PartOf", [groups[0], institute]);
            builder = builder.fact("PartOf", [groups[1], institute]);
        }
    }
    builder = builder.fact("PartOf", [groups[2], institutes[1]]);
    for i in 0..200usize {
        let person = format!("researcher{i}");
        builder = builder.fact("Researcher", [person.as_str()]);
        if i % 5 != 0 {
            // 80% have a listed group.
            let group = groups[i % groups.len()];
            builder = builder.fact("MemberOf", [person.as_str(), group]);
        }
    }
    let db = builder.build()?;

    let instance = QueryPlan::compile(&omq)?.execute(&db)?;
    let answers = instance.enumerate_minimal_partial_complete_first()?;

    // Summarise: how many answers are fully known, partially known, unknown?
    let mut histogram: BTreeMap<usize, usize> = BTreeMap::new();
    for answer in answers.iter().filter_map(Answer::as_partial) {
        *histogram.entry(answer.star_count()).or_insert(0) += 1;
    }
    println!("portal contains {} facts", db.len());
    println!("minimal partial answers: {}", answers.len());
    for (stars, count) in &histogram {
        println!("  answers with {stars} unknown position(s): {count}");
    }
    println!("\nfirst five answers (complete answers first, Proposition 2.1):");
    for answer in answers.iter().take(5) {
        println!("  {}", instance.format_answer(answer));
    }
    println!("\nlast three answers (most incomplete):");
    for answer in answers.iter().rev().take(3) {
        println!("  {}", instance.format_answer(answer));
    }
    Ok(())
}
