//! Property tests for the coordinator/worker frame grammar, every row of
//! both tables: round-trip through the shared codec, and corrupted or
//! malformed payloads that fail cleanly instead of panicking.

use omq_cluster::{CoordFrame, WorkerFrame};
use omq_data::Semantics;
use omq_wire::{ErrorCode, FrameDecoder, MAX_WIRE_INT};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// Escapes, control characters, multi-byte and astral UTF-8.
const CHARS: &str = "aZ0 \"\\/\n\t\u{1}é\u{1F600}";

fn arb_string(max_len: usize) -> BoxedStrategy<String> {
    let chars: Vec<char> = CHARS.chars().collect();
    prop::collection::vec(0usize..chars.len(), 0..max_len)
        .prop_map(move |picks| picks.into_iter().map(|i| chars[i]).collect())
        .boxed()
}

fn arb_bool() -> BoxedStrategy<bool> {
    prop_oneof![Just(true), Just(false)].boxed()
}

fn arb_coord_frame() -> BoxedStrategy<CoordFrame> {
    let relations = prop::collection::vec((arb_string(4), 0u64..MAX_WIRE_INT), 0..4);
    let rows = prop::collection::vec(
        (arb_string(4), prop::collection::vec(arb_string(4), 0..4)),
        0..4,
    );
    prop_oneof![
        (arb_string(12), arb_string(12), relations).prop_map(|(ontology, query, relations)| {
            CoordFrame::Setup {
                ontology,
                query,
                relations,
            }
        }),
        (0u64..MAX_WIRE_INT, rows, arb_bool()).prop_map(|(shard, rows, last)| CoordFrame::Facts {
            shard,
            rows,
            last
        }),
        (0u64..MAX_WIRE_INT, 0usize..Semantics::ALL.len()).prop_map(|(shard, i)| {
            CoordFrame::Run {
                shard,
                semantics: Semantics::ALL[i],
            }
        }),
        Just(CoordFrame::Bye),
    ]
    .boxed()
}

fn arb_worker_frame() -> BoxedStrategy<WorkerFrame> {
    let answers = prop::collection::vec(prop::collection::vec(arb_string(4), 0..4), 0..4);
    let shard = prop_oneof![Just(None), (0u64..MAX_WIRE_INT).prop_map(Some)];
    prop_oneof![
        (0u64..MAX_WIRE_INT).prop_map(|worker| WorkerFrame::Ready { worker }),
        (0u64..MAX_WIRE_INT, answers, arb_bool()).prop_map(|(shard, answers, done)| {
            WorkerFrame::Page {
                shard,
                answers,
                done,
            }
        }),
        (shard, 0usize..ErrorCode::ALL.len(), arb_string(12)).prop_map(|(shard, i, message)| {
            WorkerFrame::Error {
                shard,
                code: ErrorCode::ALL[i],
                message,
            }
        }),
    ]
    .boxed()
}

/// Frames that are well-framed but malformed: each is a protocol violation
/// to both decoders.
const MALFORMED: &[&[u8]] = &[
    b"{}",
    br#"{"t":"setup","ontology":"x"}"#,
    br#"{"t":"setup","ontology":"x","query":"q","relations":[["R"]]}"#,
    br#"{"t":"facts","shard":1,"rows":[[1]],"last":true}"#,
    br#"{"t":"facts","shard":1,"rows":[[]],"last":true}"#,
    br#"{"t":"run","shard":0,"semantics":"certain"}"#,
    br#"{"t":"page","shard":0,"answers":[["a"],3],"done":false}"#,
    br#"{"t":"error","shard":null,"code":999,"message":""}"#,
    br#"{"t":"warp"}"#,
    b"\xff\xfe",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every frame of both tables decodes back to itself through the codec.
    #[test]
    fn frames_round_trip(coord in arb_coord_frame(), worker in arb_worker_frame()) {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&[coord.encode(), worker.encode()].concat());
        let payload = decoder.next_frame().unwrap().expect("a whole frame");
        prop_assert_eq!(CoordFrame::decode(&payload).unwrap(), coord);
        let payload = decoder.next_frame().unwrap().expect("a whole frame");
        prop_assert_eq!(WorkerFrame::decode(&payload).unwrap(), worker);
        prop_assert_eq!(decoder.pending(), 0);
    }

    /// Corrupting a payload never panics either decoder (success is
    /// allowed: the flips may have made another well-formed frame), and
    /// the malformed payloads fail outright.
    #[test]
    fn corrupted_payloads_fail_cleanly(
        coord in arb_coord_frame(),
        worker in arb_worker_frame(),
        flips in prop::collection::vec((0usize..4096, 1u8..255), 1..4),
        malformed in 0usize..MALFORMED.len(),
    ) {
        for mut payload in [coord.encode().split_off(4), worker.encode().split_off(4)] {
            for &(pos, xor) in &flips {
                let idx = pos % payload.len();
                payload[idx] ^= xor;
            }
            let _ = CoordFrame::decode(&payload);
            let _ = WorkerFrame::decode(&payload);
        }
        prop_assert!(CoordFrame::decode(MALFORMED[malformed]).is_err());
        prop_assert!(WorkerFrame::decode(MALFORMED[malformed]).is_err());
    }
}
