//! The tractability frontier: which OMQs admit constant-delay enumeration?
//!
//! The paper characterises the frontier via acyclicity and free-connex
//! acyclicity, with lower bounds through triangle detection and Boolean matrix
//! multiplication.  This example classifies a few queries, demonstrates that
//! the engine refuses intractable shapes, and runs the two reductions.
//!
//! Run with `cargo run --release --example hardness_frontier`.

use omq::prelude::*;

fn classify(text: &str) {
    let q = ConjunctiveQuery::parse(text).expect("query parses");
    let report = AcyclicityReport::classify(&q);
    println!(
        "  {:60} acyclic={:5} free-connex={:5} weakly-acyclic={:5} -> constant-delay enumeration {}",
        text,
        report.acyclic,
        report.free_connex_acyclic,
        report.weakly_acyclic,
        if report.enumeration_tractable() { "YES" } else { "NO" }
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("classification (Figure 1 of the paper):");
    classify("q(x, y, z) :- R(x, y), S(y, z)");
    classify("q(x, z) :- R(x, y), S(y, z)");
    classify("q(x, y, z) :- R(x, y), S(y, z), T(z, x)");
    classify("q() :- R(x, y), S(y, z), T(z, x)");

    // The engine refuses queries outside the frontier.
    let ontology = Ontology::parse("A(x) -> exists y. R(x, y)")?;
    let bad_query = ConjunctiveQuery::parse("q(x, z) :- R(x, y), S(y, z)")?;
    let omq = OntologyMediatedQuery::new(ontology, bad_query)?;
    let db = Database::builder(omq.data_schema().clone())
        .fact("A", ["a"])
        .build()?;
    let instance = QueryPlan::compile(&omq)?.execute(&db)?;
    match instance.answers(Semantics::MinimalPartial) {
        Err(e) => println!("\nnon-free-connex query correctly rejected: {e}"),
        Ok(_) => println!("\nunexpected: intractable query was enumerated"),
    }

    // Triangle reduction (Theorem 3.6): single-testing a minimal partial
    // answer solves triangle detection.
    use omq_bench::generators::random_graph;
    use omq_bench::reductions;
    let graph = random_graph(200, 600, 7);
    let direct = reductions::has_triangle_direct(&graph);
    let via_omq = reductions::has_triangle_via_omq(&graph);
    println!("\ntriangle reduction on a random graph (200 vertices, 600 edges):");
    println!("  direct detection:      {direct}");
    println!("  via OMQ single-testing: {via_omq}");

    // BMM reduction (Theorem 4.4): enumerating a non-free-connex query
    // computes a Boolean matrix product.
    use omq_bench::generators::sparse_boolean_matrix;
    let m1 = sparse_boolean_matrix(64, 256, 1);
    let m2 = sparse_boolean_matrix(64, 256, 2);
    let product = m1.multiply(&m2);
    let via_enum = reductions::multiply_via_enumeration(&m1, &m2);
    println!("\nBMM reduction on 64x64 sparse matrices:");
    println!(
        "  |M1·M2| = {} ones, enumeration agrees: {}",
        product.ones.len(),
        product.ones == via_enum.ones
    );
    Ok(())
}
