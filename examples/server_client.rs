//! The network front end: an in-process `omq-server` on an ephemeral
//! loopback port, driven by the blocking wire client.
//!
//! Everything the in-process serving layer guarantees survives the wire:
//! queries register over the protocol, commits are transactional and
//! advance the store epoch, cursors page answers in `O(k)` per fetch, and
//! a cursor opened at a pinned snapshot keeps replaying that epoch no
//! matter what commits after it.
//!
//! Run with `cargo run --example server_client`.

use omq::prelude::*;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // An empty engine behind a TCP listener on an ephemeral port: the OS
    // picks the port, `local_addr` reports it.
    let server = Server::start(ServingEngine::new(1), ServerConfig::default())?;
    println!("serving on {}", server.local_addr());

    let mut client = Client::connect(server.local_addr())?;

    // Register the running example's OMQ — ontology and query travel as
    // text and are parsed, classified and compiled server-side.
    let id = client.register_query(
        "offices",
        "Researcher(x) -> exists y. HasOffice(x, y)\n\
         HasOffice(x, y) -> Office(y)\n\
         Office(x) -> exists y. InBuilding(x, y)",
        "q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)",
    )?;
    println!("registered query `offices` (id {id})");

    // Commit a batch of facts.  Registration merged the query's schema
    // into the store (one epoch), so this commit lands at the next one.
    let commit = client.commit(vec![
        TxnOp::Insert {
            relation: "Researcher".into(),
            tuple: vec!["mary".into()],
        },
        TxnOp::Insert {
            relation: "Researcher".into(),
            tuple: vec!["mike".into()],
        },
        TxnOp::Insert {
            relation: "HasOffice".into(),
            tuple: vec!["mary".into(), "room1".into()],
        },
        TxnOp::Insert {
            relation: "InBuilding".into(),
            tuple: vec!["room1".into(), "main1".into()],
        },
    ])?;
    println!(
        "committed {} facts at epoch {}",
        commit.new_facts, commit.epoch
    );

    // Page the answers: each fetch costs O(k) server-side after the
    // linear preprocessing, and the aggregate paths never materialise.
    let count = client.count(QueryTarget::Id(id), Semantics::MinimalPartial, None)?;
    let cursor = client.open_cursor(
        QueryTarget::Name("offices".into()),
        Semantics::MinimalPartial,
        None,
    )?;
    println!(
        "cursor pinned at epoch {}, {} answers to page:",
        cursor.epoch, count.count
    );
    let mut pages = 0;
    loop {
        let page = client.fetch(cursor, 2)?;
        pages += 1;
        // A page arrives in one buffer; its answers are borrowed from it.
        for answer in page.answers.iter() {
            let values: Vec<&str> = answer.iter().collect();
            println!("    ({})", values.join(", "));
        }
        if page.done {
            break;
        }
    }
    println!("drained in {pages} pages of k = 2");
    client.close_cursor(cursor)?;

    // Epochs advance commit by commit, and a pinned snapshot keeps
    // answering at its epoch after later commits.
    let pinned = client.pin()?;
    let later = client.insert_all("Researcher", [vec!["erika"]])?;
    assert!(later.epoch > pinned.epoch, "commits advance the epoch");
    let frozen = client.count(
        QueryTarget::Id(id),
        Semantics::MinimalPartial,
        Some(pinned.handle),
    )?;
    let head = client.count(QueryTarget::Id(id), Semantics::MinimalPartial, None)?;
    assert_eq!(frozen.count, count.count, "the pinned view is frozen");
    assert_eq!(head.count, count.count + 1, "the head sees the new fact");
    println!(
        "epoch {} -> {}: pinned view still {} answers, head {}",
        pinned.epoch, later.epoch, frozen.count, head.count
    );
    client.release(pinned)?;

    client.bye()?;
    server.shutdown();
    Ok(())
}
