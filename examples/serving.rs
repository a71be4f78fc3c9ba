//! Batch serving and shared-nothing parallel execution.
//!
//! The production shape this workspace grows toward: a fixed catalogue of
//! ontology-mediated queries compiled up front, batches of owned requests
//! served on a bounded number of workers (`ServingEngine`), and individual
//! large, component-rich databases additionally sharded into packs of whole
//! Gaifman connected components (`QueryPlan::execute_tracked`, or
//! `execute_parallel` to set the worker bound by hand).
//!
//! This example serves **ad-hoc, per-tenant databases** shipped with the
//! requests (`Request::with_database`); see `examples/live_store.rs` for the
//! session model where the engine owns a long-lived `Store` with
//! transactional ingestion and pinned snapshots.
//!
//! Run with `cargo run --example serving`.

use omq::prelude::*;
use std::sync::Arc;

fn tenant_database(schema: &Schema, tenant: usize) -> omq::Result<Arc<Database>> {
    // Each tenant ships several independent departments — disjoint constant
    // ranges, so every department is its own Gaifman component and the
    // database shards cleanly.
    let mut builder = Database::builder(schema.clone());
    for dept in 0..4 {
        for i in 0..(2 + (tenant + dept) % 3) {
            let person = format!("t{tenant}d{dept}_p{i}");
            builder = builder.fact("Researcher", [person.clone()]);
            if i % 2 == 0 {
                let office = format!("t{tenant}d{dept}_o{i}");
                builder = builder.fact("HasOffice", [person, office.clone()]);
                if dept % 2 == 0 {
                    builder = builder.fact("InBuilding", [office, format!("t{tenant}d{dept}_hq")]);
                }
            }
        }
    }
    Ok(Arc::new(builder.build()?))
}

fn main() -> omq::Result<()> {
    let ontology = Ontology::parse(
        "Researcher(x) -> exists y. HasOffice(x, y)\n\
         HasOffice(x, y) -> Office(y)\n\
         Office(x) -> exists y. InBuilding(x, y)",
    )?;
    let full_query =
        ConjunctiveQuery::parse("q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)")?;
    let office_query = ConjunctiveQuery::parse("q(x, y) :- HasOffice(x, y)")?;

    // The catalogue: compile every query of the workload exactly once.
    let mut engine = ServingEngine::new(4);
    let full = engine.register_query(
        "full",
        &OntologyMediatedQuery::new(ontology.clone(), full_query)?,
    )?;
    let offices = engine.register_query(
        "offices",
        &OntologyMediatedQuery::new(ontology, office_query)?,
    )?;
    // Catalogued queries are addressable by handle or by name.
    assert_eq!(engine.query_id("offices"), Some(offices));
    println!("catalogue: {} compiled plans\n", engine.len());

    // A batch of per-tenant requests, mixed across queries and semantics.
    // Requests are owned values: they name the query (by id or name) and
    // carry their data, so they can be built ahead of time and queued.
    let schema = engine.plan(full)?.omq().data_schema().clone();
    let dbs: Vec<Arc<Database>> = (0..6)
        .map(|tenant| tenant_database(&schema, tenant))
        .collect::<omq::Result<_>>()?;
    let mut requests = Vec::new();
    for (tenant, db) in dbs.iter().enumerate() {
        let request = if tenant % 2 == 0 {
            Request::new(full, Semantics::MinimalPartial)
        } else {
            Request::by_name("offices", Semantics::Complete)
        };
        // Every request is bounded: a front end never materialises an
        // unbounded answer set, and `truncated` tells it when to paginate.
        requests.push(request.with_database(db.clone()).with_limit(5));
    }

    for (tenant, response) in engine.serve_batch(&requests).iter().enumerate() {
        let response = response.as_ref().expect("request served");
        println!(
            "tenant {tenant}: {} answers{} over {} shard(s) ({} chased facts, {} memo hits)",
            response.answers.len(),
            if response.truncated {
                "+ (truncated)"
            } else {
                ""
            },
            response.stats.shards,
            response.stats.chased_facts,
            response.stats.memo_hits,
        );
    }

    // The lazy path: pull answers straight off the cursor; stopping early
    // costs O(answers pulled) beyond the preprocessing.
    let sample = dbs[0].clone();
    let mut stream = engine.serve_stream(
        &Request::new(full, Semantics::MinimalPartial).with_database(sample.clone()),
    )?;
    println!("\nstreaming tenant 0 ({} semantics):", stream.semantics());
    for answer in stream.by_ref().take(3) {
        println!(
            "    {}",
            answer.display_with(|c| sample.const_name(c).to_owned())
        );
    }
    drop(stream); // dropping mid-way abandons the rest of the enumeration

    // The same machinery, one level down: shard one database explicitly.
    let db = tenant_database(&schema, 42)?;
    println!(
        "\ntenant 42's database has {} Gaifman components",
        db.component_count()
    );
    let plan = engine.plan(full)?;
    let sequential = plan.execute(&*db)?;
    let parallel = plan.execute_parallel(&*db, 4)?;
    assert_eq!(
        sequential.answers(Semantics::MinimalPartial)?.count(),
        parallel.answers(Semantics::MinimalPartial)?.count()
    );
    println!(
        "parallel execution over {} shards agrees with the sequential path",
        parallel.shard_count()
    );
    Ok(())
}
