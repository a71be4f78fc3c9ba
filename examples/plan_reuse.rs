//! Plan reuse: compile an OMQ once, evaluate it over many databases.
//!
//! This is the serving pattern the plan/instance split is built for: a fixed
//! catalogue of ontology-mediated queries compiled up front (`QueryPlan`),
//! and per-request databases evaluated with `QueryPlan::execute` — the
//! query-side artefacts (acyclicity classification, join trees, reduced
//! relation layout) and the query-directed chase's bag-type memo are shared
//! across every request.
//!
//! Run with `cargo run --example plan_reuse`.

use omq::prelude::*;

fn request_database(
    schema: &Schema,
    tenant: usize,
) -> Result<Database, Box<dyn std::error::Error>> {
    // Simulate a per-request database: each "tenant" ships its own facts.
    let mut builder = Database::builder(schema.clone());
    for i in 0..(3 + tenant) {
        builder = builder.fact("Researcher", [format!("t{tenant}_person{i}")]);
    }
    builder = builder
        .fact(
            "HasOffice",
            [format!("t{tenant}_person0"), format!("t{tenant}_office")],
        )
        .fact(
            "InBuilding",
            [format!("t{tenant}_office"), format!("t{tenant}_building")],
        );
    Ok(builder.build()?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ontology = Ontology::parse(
        "Researcher(x) -> exists y. HasOffice(x, y)\n\
         HasOffice(x, y) -> Office(y)\n\
         Office(x) -> exists y. InBuilding(x, y)",
    )?;
    let query = ConjunctiveQuery::parse("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)")?;
    let omq = OntologyMediatedQuery::new(ontology, query)?;

    // Compile once: guardedness check, acyclicity classification, GYO join
    // trees, reduced-relation layout, chase rule-trigger tables.
    let plan = QueryPlan::compile(&omq)?;
    println!("compiled plan for {}", plan.omq().query());
    println!("classification: {:?}\n", plan.report());

    // Execute many: each request only pays the data-linear work, and the
    // chase's bag-type memo warms up across requests.
    for tenant in 0..4 {
        let db = request_database(omq.data_schema(), tenant)?;
        let instance = plan.execute(&db)?;
        let complete: Vec<Answer> = instance.answers(Semantics::Complete)?.collect();
        let partial: Vec<Answer> = instance.answers(Semantics::MinimalPartial)?.collect();
        println!(
            "tenant {tenant}: {} facts -> {} chased ({} memo hits), \
             {} complete / {} minimal partial answers",
            instance.stats().input_facts,
            instance.stats().chased_facts,
            instance.stats().memo_hits,
            complete.len(),
            partial.len(),
        );
        for answer in partial.iter().take(3) {
            println!("    {}", instance.format_answer(answer));
        }
    }
    println!(
        "\nbag types memoised across all requests: {}",
        plan.chase_plan().memoized_bag_types()
    );

    // One-shot evaluation is the same two calls with a throwaway plan.
    let db = request_database(omq.data_schema(), 9)?;
    let one_shot = QueryPlan::compile(&omq)?.execute(&db)?;
    assert_eq!(
        one_shot.answers(Semantics::MinimalPartial)?.count(),
        plan.execute(&db)?
            .answers(Semantics::MinimalPartial)?
            .count()
    );
    println!("a plan compiled for one database agrees with the reused plan");
    Ok(())
}
