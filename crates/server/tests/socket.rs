//! End-to-end tests over real TCP sockets.
//!
//! These run the full stack — blocking [`Client`] → wire protocol → event
//! loop → per-connection state machine → `ServingEngine` — on an ephemeral
//! loopback port.  The centrepiece is the snapshot-pinning acceptance test:
//! two concurrent clients, one committing transactions while the other
//! pages a pinned cursor, with the paged sequence required to be
//! **byte-identical** to an in-process `AnswerStream` drain opened at the
//! pinned epoch.

use omq_data::Semantics;
use omq_serve::{Request, ServingEngine};
use omq_server::{
    render_answer, Client, ClientError, ErrorCode, QueryTarget, Server, ServerConfig, TxnOp,
};
use std::time::Duration;

const ONTOLOGY: &str = "Researcher(x) -> exists y. HasOffice(x, y)\n\
                        HasOffice(x, y) -> Office(y)\n\
                        Office(x) -> exists y. InBuilding(x, y)";
const QUERY: &str = "q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)";

fn start_server(workers: usize) -> Server {
    Server::start(
        ServingEngine::new(1),
        ServerConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

fn connect(server: &Server) -> Client {
    let client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    client
}

fn seed_facts(n: usize) -> Vec<TxnOp> {
    let mut ops = Vec::new();
    for i in 0..n {
        ops.push(TxnOp::Insert {
            relation: "Researcher".into(),
            tuple: vec![format!("r{i:03}")],
        });
        if i % 2 == 0 {
            ops.push(TxnOp::Insert {
                relation: "HasOffice".into(),
                tuple: vec![format!("r{i:03}"), format!("o{i:03}")],
            });
        }
        if i % 4 == 0 {
            ops.push(TxnOp::Insert {
                relation: "InBuilding".into(),
                tuple: vec![format!("o{i:03}"), format!("b{}", i / 8)],
            });
        }
    }
    ops
}

#[test]
fn full_session_over_tcp() {
    let server = start_server(2);
    let mut client = connect(&server);

    let id = client
        .register_query("offices", ONTOLOGY, QUERY)
        .expect("register");
    assert_eq!(id, 0);

    let commit = client.commit(seed_facts(8)).expect("commit");
    assert!(commit.new_facts > 0);

    // Aggregates agree with a full drain.
    let count = client
        .count(
            QueryTarget::Name("offices".into()),
            Semantics::MinimalPartial,
            None,
        )
        .expect("count");
    assert!(count.exists);
    let cursor = client
        .open_cursor(QueryTarget::Id(id), Semantics::MinimalPartial, None)
        .expect("open");
    assert_eq!(cursor.epoch, count.epoch);
    let answers = client.drain_cursor(cursor, 3).expect("drain");
    assert_eq!(answers.len() as u64, count.count);
    // Every researcher appears; unknown offices/buildings render as `*`.
    assert!(answers.iter().any(|a| a.contains(&"*".to_owned())));
    client.close_cursor(cursor).expect("close");

    // Paging with a window: offset 2, limit 3 is the same slice of the
    // unbounded drain.
    let window = client
        .open_cursor_window(
            QueryTarget::Id(id),
            Semantics::MinimalPartial,
            None,
            2,
            Some(3),
        )
        .expect("open window");
    let paged = client.drain_cursor(window, 2).expect("drain window");
    assert_eq!(paged, answers[2..5].to_vec());

    assert!(client
        .exists(QueryTarget::Id(id), Semantics::Complete, None)
        .expect("exists"));
    client.bye().expect("bye");
    server.shutdown();
}

#[test]
fn epochs_advance_and_errors_are_classified() {
    let server = start_server(1);
    let mut client = connect(&server);
    client
        .register_query("offices", ONTOLOGY, QUERY)
        .expect("register");

    // Each commit advances the epoch.
    let first = client.commit(seed_facts(2)).expect("commit 1");
    let second = client
        .commit(vec![TxnOp::Insert {
            relation: "Researcher".into(),
            tuple: vec!["zz".into()],
        }])
        .expect("commit 2");
    assert!(second.epoch > first.epoch);

    // Unknown query name → 404, a client fault.
    let err = client
        .count(QueryTarget::Name("nope".into()), Semantics::Complete, None)
        .expect_err("unknown query");
    match err {
        ClientError::Server { code, .. } => {
            assert_eq!(code, ErrorCode::UnknownQuery);
            assert!(code.is_client_error());
        }
        other => panic!("expected server error, got {other}"),
    }

    // Unknown relation in a commit → schema mismatch.
    let err = client
        .commit(vec![TxnOp::Insert {
            relation: "NoSuchRel".into(),
            tuple: vec!["x".into()],
        }])
        .expect_err("bad relation");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::SchemaMismatch),
        other => panic!("expected server error, got {other}"),
    }

    // Ill-formed query text → 411.
    let err = client
        .register_query("broken", ONTOLOGY, "q(x :- R(x)")
        .expect_err("bad query");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::BadQuery),
        other => panic!("expected server error, got {other}"),
    }

    // Duplicate registration → 409.
    let err = client
        .register_query("offices", ONTOLOGY, QUERY)
        .expect_err("duplicate");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::DuplicateQuery),
        other => panic!("expected server error, got {other}"),
    }

    // The connection survived all four errors.
    assert!(client
        .exists(
            QueryTarget::Name("offices".into()),
            Semantics::MinimalPartial,
            None
        )
        .expect("still serving"));
    client.bye().expect("bye");
}

/// A relation arity from the wire is bounded by the schema: a commit that
/// declares `Z` with arity 2^40 is refused with a 4xx error frame instead of
/// aborting the process while the warm refresh indexes it, the epoch stays,
/// and the connection keeps answering.
#[test]
fn an_oversized_arity_is_a_schema_mismatch_over_tcp() {
    let server = start_server(1);
    let mut client = connect(&server);
    client
        .register_query("offices", ONTOLOGY, QUERY)
        .expect("register");
    let seeded = client.commit(seed_facts(8)).expect("seed");
    let target = || QueryTarget::Name("offices".into());
    let before = client
        .count(target(), Semantics::MinimalPartial, None)
        .expect("count before");

    let err = client
        .commit(vec![
            TxnOp::AddRelation {
                relation: "Z".into(),
                arity: 1 << 40,
            },
            TxnOp::Insert {
                relation: "Z".into(),
                tuple: vec!["x".into()],
            },
        ])
        .expect_err("oversized arity");
    match err {
        ClientError::Server { code, .. } => {
            assert_eq!(code, ErrorCode::SchemaMismatch);
            assert!(code.is_client_error());
        }
        other => panic!("expected server error, got {other}"),
    }

    let after = client
        .count(target(), Semantics::MinimalPartial, None)
        .expect("count after");
    assert_eq!(after.epoch, seeded.epoch);
    assert_eq!(after.count, before.count);
    client.bye().expect("bye");
    server.shutdown();
}

/// The acceptance test: a cursor pinned at epoch `e` replays exactly epoch
/// `e` while another client commits concurrently — and the paged sequence
/// is byte-identical to an in-process drain opened at the same pinned
/// snapshot.
#[test]
fn pinned_cursor_is_isolated_from_concurrent_commits() {
    let server = start_server(2);
    let mut reader = connect(&server);
    reader
        .register_query("offices", ONTOLOGY, QUERY)
        .expect("register");
    reader.commit(seed_facts(24)).expect("seed");

    // Pin over the wire, then grab the same snapshot in-process and open
    // the reference stream *before* any concurrent commit.
    let pinned = reader.pin().expect("pin");
    let shared = server.shared_engine();
    let (snap, reference_stream) = {
        let engine = shared.engine.read().expect("engine lock");
        let snap = engine.snapshot();
        assert_eq!(
            snap.epoch(),
            pinned.epoch,
            "wire pin and in-process snapshot must agree before the writer starts"
        );
        let stream = engine
            .serve_stream(&Request::by_name("offices", Semantics::MinimalPartial).at(snap.clone()))
            .expect("reference stream");
        (snap, stream)
    };

    let cursor = reader
        .open_cursor(
            QueryTarget::Name("offices".into()),
            Semantics::MinimalPartial,
            Some(pinned.handle),
        )
        .expect("open pinned cursor");
    assert_eq!(cursor.epoch, pinned.epoch);

    // A second client hammers commits while the first pages.
    let addr = server.local_addr();
    let writer = std::thread::spawn(move || {
        let mut writer = Client::connect(addr).expect("writer connect");
        let mut last_epoch = 0;
        for round in 0..20 {
            let receipt = writer
                .insert_all(
                    "Researcher",
                    (0..5).map(|i| vec![format!("new{round:02}_{i}")]),
                )
                .expect("concurrent commit");
            assert!(receipt.epoch > last_epoch);
            last_epoch = receipt.epoch;
        }
        writer.bye().expect("writer bye");
        last_epoch
    });

    // Page slowly (k = 2) so plenty of commits land mid-enumeration.
    let mut wire_answers = Vec::new();
    loop {
        let page = reader.fetch(cursor, 2).expect("fetch");
        wire_answers.extend(page.answers);
        if page.done {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let final_epoch = writer.join().expect("writer thread");
    assert!(final_epoch > pinned.epoch, "commits really happened");

    // Byte-identical to the in-process drain at the pinned epoch.
    let reference: Vec<Vec<String>> = reference_stream
        .map(|answer| render_answer(&answer, snap.database()))
        .collect();
    assert_eq!(wire_answers, reference);
    assert!(!wire_answers.is_empty());

    // A fresh head cursor (same connection) sees the committed facts.
    let head_count = reader
        .count(
            QueryTarget::Name("offices".into()),
            Semantics::MinimalPartial,
            None,
        )
        .expect("head count");
    assert!(head_count.count > wire_answers.len() as u64);
    assert_eq!(head_count.epoch, final_epoch);

    reader.close_cursor(cursor).expect("close");
    reader
        .release(omq_server::WireSnapshot {
            handle: pinned.handle,
            epoch: pinned.epoch,
        })
        .expect("release");
    reader.bye().expect("bye");
    server.shutdown();
}

/// Malformed bytes on the wire get an error frame, not a hangup; an
/// oversized length prefix closes the connection after reporting.
#[test]
fn protocol_errors_over_tcp() {
    use std::io::{Read, Write};

    let server = start_server(1);

    // A framed-but-malformed payload: error response, connection survives.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let junk = b"{\"t\":\"open\",\"query\":[]}";
    raw.write_all(&(junk.len() as u32).to_be_bytes()).unwrap();
    raw.write_all(junk).unwrap();
    let mut decoder = omq_server::FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let frame = loop {
        if let Some(payload) = decoder.next_frame().unwrap() {
            break omq_server::ServerFrame::decode(&payload).unwrap();
        }
        let n = raw.read(&mut buf).unwrap();
        assert!(n > 0, "server hung up on a recoverable error");
        decoder.feed(&buf[..n]);
    };
    assert!(matches!(
        frame,
        omq_server::ServerFrame::Error {
            code: ErrorCode::MalformedFrame,
            ..
        }
    ));
    // Still alive: a well-formed request on the same socket round-trips.
    raw.write_all(&omq_server::ClientFrame::Pin.encode())
        .unwrap();
    let frame = loop {
        if let Some(payload) = decoder.next_frame().unwrap() {
            break omq_server::ServerFrame::decode(&payload).unwrap();
        }
        let n = raw.read(&mut buf).unwrap();
        assert!(n > 0, "server hung up after recovering");
        decoder.feed(&buf[..n]);
    };
    assert!(matches!(frame, omq_server::ServerFrame::Pinned { .. }));

    // An oversized length prefix: error frame, then close.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let mut decoder = omq_server::FrameDecoder::new();
    let mut saw_error = false;
    loop {
        match raw.read(&mut buf) {
            Ok(0) => break, // server closed, as specified
            Ok(n) => {
                decoder.feed(&buf[..n]);
                while let Some(payload) = decoder.next_frame().unwrap() {
                    let frame = omq_server::ServerFrame::decode(&payload).unwrap();
                    assert!(matches!(
                        frame,
                        omq_server::ServerFrame::Error {
                            code: ErrorCode::FrameTooLarge,
                            ..
                        }
                    ));
                    saw_error = true;
                }
            }
            Err(e) => panic!("read failed before close: {e}"),
        }
    }
    assert!(saw_error, "the close was reported before hanging up");
    server.shutdown();
}

/// `Client::fetch` reads a page straight into one buffer and everything
/// else as a whole frame: an error frame is still a server error, and a
/// page that is not a well-formed page is still a protocol error.
#[test]
fn fetch_tells_pages_from_error_frames_and_malformed_pages() {
    use omq_server::protocol::frame_payload;
    use omq_server::{FrameDecoder, WireCursor};
    use std::io::{Read, Write};

    let server = start_server(1);
    let mut client = connect(&server);
    client
        .register_query("offices", ONTOLOGY, QUERY)
        .expect("register");
    client.commit(seed_facts(8)).expect("commit");
    let unknown = WireCursor {
        handle: 999,
        epoch: 0,
    };
    match client.fetch(unknown, 4).expect_err("unknown cursor") {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::UnknownCursor),
        other => panic!("expected server error, got {other}"),
    }
    // The connection survived, and pages still read.
    let cursor = client
        .open_cursor(QueryTarget::Id(0), Semantics::MinimalPartial, None)
        .expect("open");
    let page = client.fetch(cursor, 2).expect("fetch");
    assert_eq!(page.answers.len(), 2);
    client.bye().expect("bye");
    server.shutdown();

    // A peer answering fetches with pages that are not quite pages.
    let replies: [&[u8]; 4] = [
        br#"{"t":"page","cursor":1,"answers":[["a",7]],"done":true}"#,
        br#"{"t":"page","cursor":1,"answers":[["a"]]}"#,
        br#"{"t":"page","cursor":1,"answers":[["a"]],"done":true"#,
        br#"{"t":"pinned","snapshot":1,"epoch":1}"#,
    ];
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().expect("accept");
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 4096];
        for reply in replies {
            while decoder.next_frame().unwrap().is_none() {
                let n = socket.read(&mut buf).unwrap();
                assert!(n > 0, "client hung up");
                decoder.feed(&buf[..n]);
            }
            socket.write_all(&frame_payload(reply)).unwrap();
        }
    });
    let mut client = Client::connect(addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let cursor = WireCursor {
        handle: 1,
        epoch: 1,
    };
    for _ in replies {
        match client.fetch(cursor, 4).expect_err("not a page") {
            ClientError::Protocol(_) => {}
            other => panic!("expected protocol error, got {other}"),
        }
    }
    peer.join().unwrap();
}

// ---------------------------------------------------------------------------
// Waiting.  The server's threads block on readiness with no timeout, so each
// way a connection can need attention *without its peer sending anything*
// has to be a wake-up of its own.  A worker that merely blocked until the
// next request arrived would fail every test below.  (The fourth such way,
// a fatal close whose error frame the peer never drains, ends at a deadline
// and needs a socket that is really full: that test lives beside the event
// loop, in `server.rs`.)
// ---------------------------------------------------------------------------

/// Blocks until the server has gone a while without waking, i.e. every
/// thread is parked in its poll set; returns the wake-up count it settled at.
fn settle(server: &Server) -> u64 {
    let mut seen = server.wakeups();
    loop {
        std::thread::sleep(Duration::from_millis(30));
        let now = server.wakeups();
        if now == seen {
            return now;
        }
        seen = now;
    }
}

/// A peer that pipelines fetches without reading fills the socket, then the
/// write buffer up to the high-water mark, and the server parks the rest —
/// asleep, not sweeping.  Once the peer reads, *write readiness* resumes
/// the parked frames: no further request arrives to do it.
#[test]
fn parked_frames_resume_when_the_peer_starts_reading() {
    use std::io::{Read, Write};

    const FETCHES: usize = 24;
    let server = start_server(1);
    let mut client = connect(&server);
    client
        .register_query("pairs", "", "q(x, y) :- Name(x), Name(y)")
        .expect("register");
    // 40 constants of 64 KiB: 1 600 answers of 128 KiB, and a fetch of 7
    // (the byte cap of a page) answers with nearly a megabyte.
    client
        .insert_all(
            "Name",
            (0..40).map(|i| vec![format!("{i:02}{}", "n".repeat(64 * 1024))]),
        )
        .expect("commit");
    let cursor = client
        .open_cursor(QueryTarget::Name("pairs".into()), Semantics::Complete, None)
        .expect("open");

    // Far more than loopback buffers hold, asked for in one burst.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let open = omq_server::ClientFrame::OpenCursor {
        query: QueryTarget::Name("pairs".into()),
        semantics: Semantics::Complete,
        snapshot: None,
        offset: 0,
        limit: None,
    };
    let mut burst = open.encode();
    for _ in 0..FETCHES {
        burst.extend(omq_server::ClientFrame::Fetch { cursor: 1, k: 7 }.encode());
    }
    raw.write_all(&burst).unwrap();

    // The server runs into the full socket and goes to sleep on it.
    // (A late window update may still let a little more through once; a
    // server that swept its connections would wake hundreds of times.)
    let parked_at = settle(&server);
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        server.wakeups() - parked_at <= 2,
        "a parked connection costs next to nothing"
    );

    // Reading is all it takes to get every answer, in order.
    let mut decoder = omq_server::FrameDecoder::new();
    let mut buf = vec![0u8; 256 * 1024];
    let mut frames = Vec::new();
    while frames.len() < 1 + FETCHES {
        let n = raw
            .read(&mut buf)
            .expect("parked frames were never resumed");
        assert!(n > 0, "server hung up on a slow reader");
        decoder.feed(&buf[..n]);
        while let Some(payload) = decoder.next_frame().unwrap() {
            frames.push(omq_server::ServerFrame::decode(&payload).unwrap());
        }
    }
    assert!(server.wakeups() > parked_at);
    assert!(matches!(
        frames[0],
        omq_server::ServerFrame::CursorOpened { cursor: 1, .. }
    ));
    let mut paged = Vec::new();
    for frame in &frames[1..] {
        let omq_server::ServerFrame::Page { answers, done, .. } = frame else {
            panic!("expected a page, got {frame:?}");
        };
        assert!(!done);
        paged.extend(answers.iter().cloned());
    }
    // The same pages a well-behaved client gets one at a time.
    let mut reference = Vec::new();
    for _ in 0..FETCHES {
        reference.extend(client.fetch(cursor, 7).expect("fetch").answers);
    }
    assert_eq!(paged.len(), 7 * FETCHES);
    assert!(paged == reference, "resumed pages differ from paced ones");
    server.shutdown();
}

/// A connection accepted while the only worker is blocked on another,
/// silent connection is served at once: the worker polls the shared
/// listener next to its connections, so the connect itself wakes it.
#[test]
fn a_connection_accepted_while_the_worker_is_blocked_is_served() {
    let server = start_server(1);
    let _silent = connect(&server);
    settle(&server);
    let mut late = Client::connect(server.local_addr()).expect("connect");
    late.set_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    let start = std::time::Instant::now();
    late.pin()
        .expect("the new connection waited for unrelated traffic");
    assert!(start.elapsed() < Duration::from_millis(500));
    server.shutdown();
}

/// An idle server is asleep, however many connections it holds open.
#[test]
fn an_idle_server_with_open_connections_never_wakes() {
    let server = start_server(2);
    let mut clients: Vec<Client> = (0..6).map(|_| connect(&server)).collect();
    for client in &mut clients {
        client.pin().expect("pin");
    }
    let idle_at = settle(&server);
    assert!(idle_at > 0, "serving the pins was counted");
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(server.wakeups(), idle_at);
    // Still there when asked.
    clients[0].pin().expect("pin");
    assert!(server.wakeups() > idle_at);
    server.shutdown();
}

/// A worker parked inside a request does not hold up new connections: a
/// connect wakes every worker that is waiting, and one of those takes it.
/// One worker of two is parked on the engine lock (held here) by a pin;
/// four fresh connections in a row are each answered by the other.
#[test]
fn new_connections_go_to_a_free_worker() {
    use std::io::{Read, Write};

    let server = start_server(2);
    let shared = server.shared_engine();
    let engine = shared.engine.write().unwrap();
    let mut parked = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    parked
        .write_all(&omq_server::ClientFrame::Pin.encode())
        .unwrap();
    settle(&server);

    let junk = b"{\"t\":\"open\",\"query\":[]}";
    let answers: Vec<std::io::Result<omq_server::ServerFrame>> = (0..4)
        .map(|_| {
            let mut raw = std::net::TcpStream::connect(server.local_addr())?;
            raw.set_read_timeout(Some(Duration::from_secs(2)))?;
            raw.write_all(&(junk.len() as u32).to_be_bytes())?;
            raw.write_all(junk)?;
            let mut decoder = omq_server::FrameDecoder::new();
            let mut buf = [0u8; 4096];
            loop {
                if let Some(payload) = decoder.next_frame().unwrap() {
                    return Ok(omq_server::ServerFrame::decode(&payload).unwrap());
                }
                match raw.read(&mut buf)? {
                    0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                    n => decoder.feed(&buf[..n]),
                }
            }
        })
        .collect();
    drop(engine);

    for (i, answer) in answers.into_iter().enumerate() {
        let frame = answer.unwrap_or_else(|e| panic!("connection {i} was not served: {e}"));
        assert!(
            matches!(
                frame,
                omq_server::ServerFrame::Error {
                    code: ErrorCode::MalformedFrame,
                    ..
                }
            ),
            "connection {i} got {frame:?}"
        );
    }
    server.shutdown();
}
