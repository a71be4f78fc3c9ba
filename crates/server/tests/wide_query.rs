//! A query too wide for the multi-wildcard semantics, over a real socket:
//! query text arrives from the network, so `open_cursor`, `count` and
//! `exists` must refuse it at once — a client fault the connection
//! survives — instead of pinning a worker on a cone of Bell(arity + 1)
//! candidates per answer.

use omq_core::MAX_MULTI_WILDCARD_ARITY;
use omq_data::Semantics;
use omq_serve::ServingEngine;
use omq_server::{Client, ClientError, ErrorCode, QueryTarget, Server, ServerConfig, TxnOp};
use std::time::Duration;

#[test]
fn multi_wildcard_cursor_on_a_too_wide_query_is_a_recoverable_client_error() {
    let server = Server::start(
        ServingEngine::new(1),
        ServerConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");

    let arity = MAX_MULTI_WILDCARD_ARITY + 1;
    let vars: Vec<String> = (0..arity).map(|i| format!("x{i}")).collect();
    let atoms: Vec<String> = vars
        .windows(2)
        .map(|w| format!("R({}, {})", w[0], w[1]))
        .collect();
    let query = format!("q({}) :- {}", vars.join(", "), atoms.join(", "));
    let target = QueryTarget::Id(
        client
            .register_query("chain", "A(x) -> exists y. R(x, y)", &query)
            .expect("register"),
    );
    client
        .commit(vec![
            TxnOp::Insert {
                relation: "R".into(),
                tuple: vec!["a".into(), "a".into()],
            },
            TxnOp::Insert {
                relation: "A".into(),
                tuple: vec!["a".into()],
            },
        ])
        .expect("commit");

    for attempt in [
        client
            .open_cursor(target.clone(), Semantics::MinimalPartialMulti, None)
            .map(|_| ()),
        client
            .count(target.clone(), Semantics::MinimalPartialMulti, None)
            .map(|_| ()),
        client
            .exists(target.clone(), Semantics::MinimalPartialMulti, None)
            .map(|_| ()),
    ] {
        match attempt.expect_err("arity beyond the cap") {
            ClientError::Server { code, message } => {
                assert_eq!(code, ErrorCode::BadQuery, "{message}");
                assert!(code.is_client_error());
                assert!(message.contains("arity"), "{message}");
            }
            other => panic!("expected server error, got {other}"),
        }
    }

    // The connection survived, and the other semantics of the same query
    // are served.
    let cursor = client
        .open_cursor(target.clone(), Semantics::MinimalPartial, None)
        .expect("single-wildcard cursor");
    let answers = client.drain_cursor(cursor, 16).expect("drain");
    assert_eq!(answers, vec![vec!["a".to_owned(); arity]]);
    assert_eq!(
        client
            .count(target, Semantics::Complete, None)
            .expect("count")
            .count,
        1
    );
    client.bye().expect("bye");
    server.shutdown();
}
