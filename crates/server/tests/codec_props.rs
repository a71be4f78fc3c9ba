//! Property tests for the server frame *grammar*.
//!
//! The framing layer itself (torn-read reassembly, oversized prefixes,
//! payload opacity) is property-tested once in `omq-wire`; what this suite
//! checks is the grammar built on top of it:
//!
//! 1. **Round-trip**: `decode(encode(f)) == f` for every frame type, with
//!    payload strings ranging over escapes, multi-byte UTF-8 and astral
//!    characters;
//! 2. **Malformed-payload rejection**: corrupting an encoded payload never
//!    panics the decoder — it fails cleanly (or yields some valid frame, if
//!    the corruption happened to preserve well-formedness);
//! 3. **The page path ≡ the tree path**: `page` frames are written and read
//!    without a JSON tree (`omq_wire::page`).  The writer's bytes must be
//!    the tree encoder's, from rendered and from typed answers alike, and
//!    the reader must accept, reject and return exactly what a decoder over
//!    the tree does — on well-formed pages, on pages with the wrong shape,
//!    and on truncated, extended or corrupted bytes — its one-buffer
//!    `Rows` included.

use omq_cluster::WorkerFrame;
use omq_data::{Answer, Database, MultiTuple, MultiValue, PartialTuple, PartialValue, Schema};
use omq_data::{ConstId, Semantics};
use omq_server::json::Json;
use omq_server::protocol::frame_payload;
use omq_server::{ClientFrame, FrameDecoder, QueryTarget, ServerFrame, TxnOp, MAX_WIRE_INT as MAX};
use omq_wire::{decode_object, decode_page_object, PageWriter};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// Characters deliberately stressing the JSON writer/parser: ASCII,
/// escapes, control chars, multi-byte UTF-8, an astral-plane code point.
const CHARS: &[char] = &[
    'a',
    'b',
    'Z',
    '0',
    ' ',
    '_',
    '-',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{8}',
    '\u{c}',
    '\u{1}',
    'é',
    'ß',
    '→',
    '\u{1F600}',
];

fn arb_string(max_len: usize) -> BoxedStrategy<String> {
    prop::collection::vec(0usize..CHARS.len(), 0..max_len)
        .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
        .boxed()
}

fn arb_semantics() -> BoxedStrategy<Semantics> {
    prop_oneof![
        Just(Semantics::Complete),
        Just(Semantics::MinimalPartial),
        Just(Semantics::MinimalPartialMulti),
    ]
    .boxed()
}

fn arb_query_target() -> BoxedStrategy<QueryTarget> {
    prop_oneof![
        (0u64..1024).prop_map(QueryTarget::Id),
        arb_string(6).prop_map(QueryTarget::Name),
    ]
    .boxed()
}

fn arb_txn_op() -> BoxedStrategy<TxnOp> {
    prop_oneof![
        (arb_string(5), prop::collection::vec(arb_string(4), 0..4))
            .prop_map(|(relation, tuple)| TxnOp::Insert { relation, tuple }),
        (arb_string(5), 0usize..6)
            .prop_map(|(relation, arity)| TxnOp::AddRelation { relation, arity }),
    ]
    .boxed()
}

fn arb_opt_u64() -> BoxedStrategy<Option<u64>> {
    prop_oneof![Just(None), (0u64..MAX).prop_map(Some),].boxed()
}

fn arb_client_frame() -> BoxedStrategy<ClientFrame> {
    prop_oneof![
        (arb_string(6), arb_string(24), arb_string(24)).prop_map(|(name, ontology, query)| {
            ClientFrame::Register {
                name,
                ontology,
                query,
            }
        }),
        prop::collection::vec(arb_txn_op(), 0..5).prop_map(|ops| ClientFrame::Commit { ops }),
        Just(ClientFrame::Pin),
        (
            arb_query_target(),
            arb_semantics(),
            arb_opt_u64(),
            (0u64..1 << 40, arb_opt_u64()),
        )
            .prop_map(|(query, semantics, snapshot, (offset, limit))| {
                ClientFrame::OpenCursor {
                    query,
                    semantics,
                    snapshot,
                    offset,
                    limit,
                }
            }),
        (0u64..MAX, 0u64..MAX).prop_map(|(cursor, k)| ClientFrame::Fetch { cursor, k }),
        (arb_query_target(), arb_semantics(), arb_opt_u64()).prop_map(
            |(query, semantics, snapshot)| ClientFrame::Count {
                query,
                semantics,
                snapshot
            }
        ),
        (arb_query_target(), arb_semantics(), arb_opt_u64()).prop_map(
            |(query, semantics, snapshot)| ClientFrame::Exists {
                query,
                semantics,
                snapshot
            }
        ),
        (0u64..MAX).prop_map(|cursor| ClientFrame::CloseCursor { cursor }),
        (0u64..MAX).prop_map(|snapshot| ClientFrame::ReleaseSnapshot { snapshot }),
        Just(ClientFrame::Bye),
    ]
    .boxed()
}

fn arb_answer() -> BoxedStrategy<Vec<String>> {
    prop::collection::vec(arb_string(5), 0..4).boxed()
}

fn arb_page() -> BoxedStrategy<ServerFrame> {
    (
        0u64..1 << 40,
        prop::collection::vec(arb_answer(), 0..5),
        prop_oneof![Just(true), Just(false)],
    )
        .prop_map(|(cursor, answers, done)| ServerFrame::Page {
            cursor,
            answers,
            done,
        })
        .boxed()
}

/// The tree encoder: `ServerFrame::to_json` (a `Json` value) serialised and
/// framed — what `encode` was before pages got a writer of their own.
fn tree_encode(frame: &ServerFrame) -> Vec<u8> {
    frame_payload(frame.to_json().to_json().as_bytes())
}

/// The tree decoder for pages: parse the whole payload into a `Json` value,
/// then clone the answers out of it.
fn tree_decode_page(payload: &[u8]) -> Option<ServerFrame> {
    let doc = decode_object(payload).ok()?;
    if doc.get("t")?.as_str()? != "page" {
        return None;
    }
    let answers = doc
        .get("answers")?
        .as_arr()?
        .iter()
        .map(|a| {
            a.as_arr()?
                .iter()
                .map(|v| v.as_str().map(str::to_owned))
                .collect::<Option<Vec<String>>>()
        })
        .collect::<Option<Vec<Vec<String>>>>()?;
    Some(ServerFrame::Page {
        cursor: doc.get("cursor")?.as_u64()?,
        answers,
        done: doc.get("done")?.as_bool()?,
    })
}

/// Both decoders on one payload: the same page, or neither a page.  On a
/// page, the page reader's [`Rows`](omq_wire::Rows) hold the tree's
/// answers both borrowed and copied out.
fn assert_decoders_agree(payload: &[u8]) -> Result<(), TestCaseError> {
    let direct = match ServerFrame::decode(payload) {
        Ok(frame @ ServerFrame::Page { .. }) => Some(frame),
        _ => None,
    };
    let tree = tree_decode_page(payload);
    prop_assert_eq!(&direct, &tree);
    if let Some(ServerFrame::Page { answers, .. }) = tree {
        let (_, rows) = decode_page_object(payload).expect("a page is an object");
        let rows = rows
            .expect("a page has answers")
            .expect("of a page's shape");
        prop_assert_eq!(rows.len(), answers.len());
        let borrowed: Vec<Vec<&str>> = rows.iter().map(|row| row.iter().collect()).collect();
        prop_assert_eq!(&borrowed, &answers);
        prop_assert_eq!(&rows, &answers);
        prop_assert_eq!(rows.into_owned(), answers);
    }
    Ok(())
}

/// Small JSON values of every kind, for putting the wrong thing where a
/// page expects an array or a string.
fn arb_json(depth: usize) -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        Just(Json::Bool(true)),
        (0i64..1000).prop_map(Json::Int),
        Just(Json::Num(1.5)),
        arb_string(4).prop_map(Json::Str),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    prop_oneof![
        leaf,
        prop::collection::vec(arb_json(depth - 1), 0..3).prop_map(Json::Arr),
        prop::collection::vec((arb_string(3), arb_json(depth - 1)), 0..3).prop_map(Json::Obj),
    ]
    .boxed()
}

/// Mostly `usual`, sometimes anything at all.
fn mostly(usual: BoxedStrategy<Json>) -> BoxedStrategy<Json> {
    (usual, arb_json(2), 0usize..4)
        .prop_map(|(usual, other, pick)| if pick == 0 { other } else { usual })
        .boxed()
}

/// A page-tagged object whose members are arbitrary JSON: right shape,
/// wrong shape, members missing, duplicated or out of order.
fn arb_loose_page() -> BoxedStrategy<Json> {
    let entry = mostly(arb_string(4).prop_map(Json::Str).boxed());
    let answer = mostly(
        prop::collection::vec(entry, 0..4)
            .prop_map(Json::Arr)
            .boxed(),
    );
    let answers = mostly(
        prop::collection::vec(answer, 0..4)
            .prop_map(Json::Arr)
            .boxed(),
    );
    let cursor = mostly((0i64..99).prop_map(Json::Int).boxed());
    let done = mostly(Just(Json::Bool(false)).boxed());
    let tag = mostly(Just(Json::str("page")).boxed());
    // The four members a page has, in any order, between and around up to
    // three more that may repeat their keys (the first of a key counts).
    let extra = prop_oneof![
        (arb_string(3), arb_json(2)),
        (Just("answers".to_owned()), arb_json(2)),
        (Just("cursor".to_owned()), arb_json(0)),
        (Just("t".to_owned()), arb_json(0)),
    ];
    (
        (answers, cursor, done, tag),
        prop::collection::vec(extra, 0..4),
        prop::collection::vec(0usize..1000, 7..8),
    )
        .prop_map(|((answers, cursor, done, tag), extras, order)| {
            let mut members = vec![
                ("answers".to_owned(), answers),
                ("cursor".to_owned(), cursor),
                ("done".to_owned(), done),
                ("t".to_owned(), tag),
            ];
            members.extend(extras);
            let mut keyed: Vec<_> = order.into_iter().zip(members).collect();
            keyed.sort_by_key(|(at, _)| *at);
            Json::Obj(keyed.into_iter().map(|(_, member)| member).collect())
        })
        .boxed()
}

/// A database interning `names`, and typed answers of every semantics over
/// picks from them.
fn typed_page(names: &[String], picks: &[Vec<usize>]) -> (Database, Vec<Answer>) {
    let mut schema = Schema::new();
    schema.add_relation("N", 1).unwrap();
    let mut builder = Database::builder(schema);
    for name in names {
        builder = builder.fact("N", [name.as_str()]);
    }
    let db = builder.build().unwrap();
    let id = |pick: usize| -> ConstId { db.const_id(&names[pick % names.len()]).unwrap() };
    let answers = picks
        .iter()
        .enumerate()
        .map(|(i, picks)| match i % 3 {
            0 => Answer::Complete(picks.iter().map(|&p| id(p)).collect()),
            1 => Answer::Partial(PartialTuple(
                picks
                    .iter()
                    .map(|&p| match p % 4 {
                        0 => PartialValue::Star,
                        _ => PartialValue::Const(id(p)),
                    })
                    .collect(),
            )),
            _ => Answer::Multi(MultiTuple(
                picks
                    .iter()
                    .map(|&p| match p % 4 {
                        0 => MultiValue::Wild(p as u32),
                        _ => MultiValue::Const(id(p)),
                    })
                    .collect(),
            )),
        })
        .collect();
    (db, answers)
}

fn arb_server_frame() -> BoxedStrategy<ServerFrame> {
    use omq_server::ErrorCode;
    prop_oneof![
        (0u64..1024, arb_string(6)).prop_map(|(id, name)| ServerFrame::Registered { id, name }),
        (0u64..MAX, 0u64..1 << 32, 0u64..1 << 32).prop_map(
            |(epoch, new_facts, duplicate_facts)| ServerFrame::Committed {
                epoch,
                new_facts,
                duplicate_facts
            }
        ),
        (0u64..MAX, 0u64..MAX)
            .prop_map(|(snapshot, epoch)| ServerFrame::Pinned { snapshot, epoch }),
        (0u64..MAX, 0u64..MAX, arb_semantics()).prop_map(|(cursor, epoch, semantics)| {
            ServerFrame::CursorOpened {
                cursor,
                epoch,
                semantics,
            }
        }),
        arb_page(),
        (
            0u64..1 << 48,
            prop_oneof![Just(true), Just(false)],
            0u64..MAX
        )
            .prop_map(|(count, exists, epoch)| ServerFrame::Counted {
                count,
                exists,
                epoch
            }),
        (prop_oneof![Just(true), Just(false)], 0u64..MAX)
            .prop_map(|(exists, epoch)| ServerFrame::Exists { exists, epoch }),
        (0u64..MAX).prop_map(|cursor| ServerFrame::CursorClosed { cursor }),
        (0u64..MAX).prop_map(|snapshot| ServerFrame::SnapshotReleased { snapshot }),
        Just(ServerFrame::Bye),
        (0usize..ErrorCode::ALL.len(), arb_string(12)).prop_map(|(i, message)| {
            ServerFrame::Error {
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
    b"not json",
    b"[1,2,3]",
    br#"{"t":"nope"}"#,
    br#"{"t":"fetch","cursor":"x","k":1}"#,
    br#"{"t":"fetch","k":1}"#,
    br#"{"t":"open","query":true,"semantics":"complete"}"#,
    br#"{"t":"open","query":"q","semantics":"certain"}"#,
    br#"{"t":"commit","ops":[{"op":"upsert"}]}"#,
    br#"{"t":"error","code":999,"message":""}"#,
    b"\xff\xfe",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Round-trip: every client frame decodes back to itself.
    #[test]
    fn client_frames_round_trip(frame in arb_client_frame()) {
        let encoded = frame.encode();
        let mut decoder = FrameDecoder::new();
        decoder.feed(&encoded);
        let payload = decoder.next_frame().unwrap().expect("one whole frame");
        prop_assert_eq!(ClientFrame::decode(&payload).unwrap(), frame);
        prop_assert_eq!(decoder.pending(), 0);
    }

    /// Round-trip: every server frame decodes back to itself.
    #[test]
    fn server_frames_round_trip(frame in arb_server_frame()) {
        let encoded = frame.encode();
        let mut decoder = FrameDecoder::new();
        decoder.feed(&encoded);
        let payload = decoder.next_frame().unwrap().expect("one whole frame");
        prop_assert_eq!(ServerFrame::decode(&payload).unwrap(), frame);
    }

    /// Corrupting payload bytes never panics the grammar decoder; it fails
    /// cleanly or yields some other valid frame.  (That the *stream* stays
    /// framed is the codec's property, tested in `omq-wire`.)  The
    /// malformed requests fail outright.
    #[test]
    fn corrupted_payloads_fail_cleanly(
        frame in arb_client_frame(),
        flips in prop::collection::vec((0usize..4096, 1u8..255), 1..4),
        malformed in 0usize..MALFORMED.len(),
    ) {
        let mut payload = frame.to_json().to_json().into_bytes();
        for (pos, xor) in flips {
            if payload.is_empty() {
                break;
            }
            let idx = pos % payload.len();
            payload[idx] ^= xor;
        }
        // Decoding the corrupted payload must not panic; success is allowed
        // (the corruption may have produced another well-formed frame).
        let _ = ClientFrame::decode(&payload);
        let _ = ServerFrame::decode(&payload);
        prop_assert!(ClientFrame::decode(MALFORMED[malformed]).is_err());
        prop_assert!(ServerFrame::decode(MALFORMED[malformed]).is_err());
    }

    /// The page writer emits the tree encoder's bytes: empty pages, empty
    /// answers, every escape, `done` both ways — for the server's page and
    /// the cluster worker's alike.
    #[test]
    fn page_writer_matches_the_tree_encoder(frame in arb_page()) {
        prop_assert_eq!(frame.encode(), tree_encode(&frame));
        // Past `i64::MAX` the tree writes the cursor as a float (no handle
        // gets there); the writer does whatever the tree does.
        let ServerFrame::Page { cursor, answers, done } = frame else { unreachable!() };
        let frame = ServerFrame::Page { cursor: u64::MAX - cursor, answers: answers.clone(), done };
        prop_assert_eq!(frame.encode(), tree_encode(&frame));
        // The cluster's page is the same writer under a `shard` id.
        let page = WorkerFrame::Page { shard: cursor, answers, done };
        prop_assert_eq!(page.encode(), frame_payload(page.to_json().to_json().as_bytes()));
    }

    /// …and the same bytes again when it renders typed answers itself, as
    /// the connection layer has it do, with the size it reports for each
    /// answer the size `answer_wire_len` predicts.
    #[test]
    fn typed_answers_write_the_bytes_of_their_rendering(
        names in prop::collection::vec(arb_string(6), 1..5),
        picks in prop::collection::vec(prop::collection::vec(0usize..64, 0..4), 0..6),
        done in prop_oneof![Just(true), Just(false)],
    ) {
        let (db, answers) = typed_page(&names, &picks);
        let rendered: Vec<Vec<String>> =
            answers.iter().map(|a| omq_server::render_answer(a, &db)).collect();
        let mut out = Vec::new();
        let mut page = PageWriter::begin(&mut out, "cursor", 7);
        for (answer, rendered) in answers.iter().zip(&rendered) {
            prop_assert_eq!(
                page.push_answer(answer.as_answer_ref(), &db),
                omq_server::answer_wire_len(rendered)
            );
        }
        page.finish(done);
        prop_assert_eq!(out, tree_encode(&ServerFrame::Page { cursor: 7, answers: rendered, done }));
    }

    /// The tokenizer-based page decoder returns what the tree decoder
    /// returns and rejects what it rejects, whatever sits where the
    /// answers, their entries, the cursor or the flag should be.
    #[test]
    fn page_decoder_agrees_with_the_tree_decoder_on_any_shape(doc in arb_loose_page()) {
        assert_decoders_agree(doc.to_json().as_bytes())?;
    }

    /// …and on bytes that are not a document at all: truncated input,
    /// trailing garbage, flipped bytes.
    #[test]
    fn page_decoder_agrees_with_the_tree_decoder_on_damaged_bytes(
        frame in arb_page(),
        cut in 0usize..4096,
        tail in arb_string(3),
        flips in prop::collection::vec((0usize..4096, 1u8..255), 0..3),
    ) {
        let payload = frame.to_json().to_json().into_bytes();
        assert_decoders_agree(&payload)?;
        prop_assert!(tree_decode_page(&payload).is_some());
        assert_decoders_agree(&payload[..cut % payload.len()])?;
        prop_assert!(ServerFrame::decode(&payload[..cut % payload.len()]).is_err());
        let mut extended = payload.clone();
        extended.extend_from_slice(tail.as_bytes());
        assert_decoders_agree(&extended)?;
        if !tail.trim_matches([' ', '\n', '\r', '\t']).is_empty() {
            prop_assert!(ServerFrame::decode(&extended).is_err());
        }
        let mut flipped = payload;
        for (pos, xor) in flips {
            let idx = pos % flipped.len();
            flipped[idx] ^= xor;
        }
        assert_decoders_agree(&flipped)?;
    }
}
