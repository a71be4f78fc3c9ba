//! Golden bytes: one exemplar of every frame of both wire vocabularies (the
//! server's client/server frames and the cluster's coordinator/worker
//! frames) as its exact payload.  Each payload must decode, and the decoded
//! frame must encode back to exactly these bytes behind its length prefix.
//! A worker `error` without a shard omits the member.

use omq::data::Semantics;
use omq_cluster::{CoordFrame, WorkerFrame};
use omq_server::{ClientFrame, QueryTarget, ServerFrame};
use omq_wire::{frame_payload, ProtocolViolation};

fn golden<F>(
    decode: fn(&[u8]) -> Result<F, ProtocolViolation>,
    encode: fn(&F) -> Vec<u8>,
    payloads: &[&str],
) {
    for payload in payloads {
        let encoded = encode(&decode(payload.as_bytes()).unwrap());
        assert_eq!(encoded, frame_payload(payload.as_bytes()), "{payload}");
    }
}

#[test]
fn client_frames_keep_their_bytes() {
    golden(
        ClientFrame::decode,
        ClientFrame::encode,
        &[
            "{\"t\":\"register\",\"name\":\"q\\\"é\u{1F600}\",\"ontology\":\"A(x) -> B(x)\\n\\t\\u0001\",\"query\":\"q(x) :- B(x)\"}",
            r#"{"t":"commit","ops":[{"op":"insert","rel":"R","tuple":["a","b\\"]},{"op":"add_relation","rel":"S","arity":2}]}"#,
            r#"{"t":"pin"}"#,
            r#"{"t":"open","query":"q","semantics":"minimal-partial","offset":5,"snapshot":3,"limit":10}"#,
            r#"{"t":"open","query":0,"semantics":"complete","offset":0}"#,
            r#"{"t":"fetch","cursor":7,"k":32}"#,
            r#"{"t":"count","query":1,"semantics":"minimal-partial-multi","snapshot":2}"#,
            r#"{"t":"exists","query":"q","semantics":"complete"}"#,
            r#"{"t":"close_cursor","cursor":7}"#,
            r#"{"t":"release","snapshot":3}"#,
            r#"{"t":"bye"}"#,
        ],
    );
    // Decode-side compatibility: an `open` without `offset` starts at 0, and
    // an explicit `null` snapshot means the head.
    let open = ClientFrame::OpenCursor {
        query: QueryTarget::Name("q".to_owned()),
        semantics: Semantics::Complete,
        snapshot: None,
        offset: 0,
        limit: None,
    };
    let payload = r#"{"t":"open","query":"q","semantics":"complete","snapshot":null}"#;
    assert_eq!(ClientFrame::decode(payload.as_bytes()), Ok(open));
}

#[test]
fn server_frames_keep_their_bytes() {
    golden(
        ServerFrame::decode,
        ServerFrame::encode,
        &[
            r#"{"t":"registered","id":1,"name":"q\"é"}"#,
            r#"{"t":"committed","epoch":2,"new_facts":3,"duplicate_facts":1}"#,
            r#"{"t":"pinned","snapshot":3,"epoch":2}"#,
            r#"{"t":"opened","cursor":7,"epoch":2,"semantics":"minimal-partial-multi"}"#,
            "{\"t\":\"page\",\"cursor\":7,\"answers\":[[\"a\\\"b\",\"*\"],[\"é\\n\u{1F600}\",\"*1\"],[]],\"done\":false}",
            r#"{"t":"counted","count":4,"exists":true,"epoch":2}"#,
            r#"{"t":"exists","exists":false,"epoch":2}"#,
            r#"{"t":"cursor_closed","cursor":7}"#,
            r#"{"t":"released","snapshot":3}"#,
            r#"{"t":"bye"}"#,
            r#"{"t":"error","code":405,"message":"no cursor 9"}"#,
        ],
    );
}

#[test]
fn cluster_frames_keep_their_bytes() {
    golden(
        CoordFrame::decode,
        CoordFrame::encode,
        &[
            r#"{"t":"setup","ontology":"R(x) -> S(x)","query":"q(x) :- S(x)","relations":[["R",1],["S",2]]}"#,
            r#"{"t":"facts","shard":3,"rows":[["R","ada"],["S","ada","lab\"1"]],"last":true}"#,
            r#"{"t":"run","shard":3,"semantics":"complete"}"#,
            r#"{"t":"bye"}"#,
        ],
    );
    golden(
        WorkerFrame::decode,
        WorkerFrame::encode,
        &[
            r#"{"t":"ready","worker":2}"#,
            r#"{"t":"page","shard":3,"answers":[["ada","*"],[]],"done":true}"#,
            r#"{"t":"error","shard":3,"code":411,"message":"not free-connex"}"#,
            r#"{"t":"error","code":500,"message":""}"#,
        ],
    );
}
