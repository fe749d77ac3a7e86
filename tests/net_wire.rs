//! Property coverage of the wire protocol: **every** frame type
//! round-trips encode → decode bit-identically under randomly generated
//! contents, both as a raw payload and through the length-prefixed
//! stream form; malformed and truncated bytes are rejected rather than
//! mis-decoded.

use proptest::prelude::*;
use std::sync::Arc;
use uncertain_nn::core::answer::{AnswerDelta, AnswerEntry, AnswerSet};
use uncertain_nn::core::probrows::{ProbRow, ProbRowDelta, ProbRowSet, RowPerspective};
use uncertain_nn::modb::net::wire::{
    decode_payload, encode_payload, pop_frame, write_frame, Frame, WireOutput, WireRequest,
    WIRE_VERSION,
};
use uncertain_nn::modb::telemetry::{HistogramSnapshot, MetricsSnapshot, TraceEvent, TraceStage};
use uncertain_nn::modb::{ReplOp, SubscriptionInfo, SubscriptionStats};
use uncertain_nn::prelude::*;

fn arb_oid() -> impl Strategy<Value = Oid> {
    (0u64..10_000).prop_map(Oid)
}

fn arb_intervals() -> impl Strategy<Value = IntervalSet> {
    prop::collection::vec((0.0..500.0f64, 0.0..20.0f64), 1..5).prop_map(|pairs| {
        IntervalSet::from_intervals(
            pairs
                .into_iter()
                .map(|(start, len)| TimeInterval::new(start, start + len)),
        )
    })
}

/// Entries with distinct, ascending oids (the `AnswerSet` invariant).
fn arb_entries() -> impl Strategy<Value = Vec<AnswerEntry>> {
    (
        prop::collection::btree_set(0u64..10_000, 0..6),
        prop::collection::vec(arb_intervals(), 6),
    )
        .prop_map(|(oids, ivs)| {
            oids.into_iter()
                .zip(ivs)
                .map(|(oid, intervals)| AnswerEntry {
                    oid: Oid(oid),
                    intervals,
                })
                .collect()
        })
}

fn arb_window() -> impl Strategy<Value = TimeInterval> {
    (0.0..100.0f64, 0.1..600.0f64).prop_map(|(s, len)| TimeInterval::new(s, s + len))
}

fn arb_rank() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), (1usize..8).prop_map(Some),]
}

fn arb_answer_set() -> impl Strategy<Value = AnswerSet> {
    (arb_oid(), arb_window(), arb_rank(), arb_entries())
        .prop_map(|(query, window, rank, entries)| AnswerSet::new(query, window, rank, entries))
}

fn arb_delta() -> impl Strategy<Value = AnswerDelta> {
    (
        0u64..1_000_000,
        arb_entries(),
        prop::collection::btree_set(0u64..10_000, 0..5),
    )
        .prop_map(|(epoch, upserts, removed)| AnswerDelta {
            epoch,
            upserts,
            removed: removed.into_iter().map(Oid).collect(),
        })
}

fn arb_string() -> impl Strategy<Value = String> {
    // Letters, digits, and a multibyte codepoint to exercise UTF-8.
    const ALPHABET: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789µ";
    prop::collection::vec(0usize..63, 0..12).prop_map(|idxs| {
        let alphabet: Vec<char> = ALPHABET.chars().collect();
        idxs.into_iter().map(|i| alphabet[i]).collect()
    })
}

fn arb_stats() -> impl Strategy<Value = SubscriptionStats> {
    (0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000).prop_map(|(a, b, c, d)| SubscriptionStats {
        skipped: a,
        skipped_ops: a + b,
        patched: b,
        rebuilt: c,
        envelopes_carried: d,
        functions_reused: a ^ b,
        functions_built: c ^ d,
        rows_patched: a + c,
        perspectives_skipped: b ^ d,
        visited: a + b + c,
        skipped_unvisited: d + a,
        batched_commits: c + b,
    })
}

const ARB_SAMPLES: u32 = 64;

/// Rows with distinct ascending oids and strictly ascending in-range
/// sample indices (the `ProbRowSet` invariants the codec enforces).
fn arb_prob_rows() -> impl Strategy<Value = Vec<ProbRow>> {
    (
        prop::collection::btree_set(0u64..10_000, 0..5),
        prop::collection::vec(
            (
                prop::collection::btree_set(0u32..ARB_SAMPLES, 1..6),
                prop::collection::vec(0.0..1.0f64, 6),
            ),
            5,
        ),
    )
        .prop_map(|(oids, contents)| {
            oids.into_iter()
                .zip(contents)
                .map(|(oid, (idxs, probs))| ProbRow {
                    oid: Oid(oid),
                    points: idxs.into_iter().zip(probs).collect(),
                })
                .collect()
        })
}

fn arb_perspective() -> impl Strategy<Value = RowPerspective> {
    prop_oneof![Just(RowPerspective::Forward), Just(RowPerspective::Reverse),]
}

fn arb_row_set() -> impl Strategy<Value = ProbRowSet> {
    (arb_oid(), arb_window(), arb_perspective(), arb_prob_rows()).prop_map(
        |(query, window, perspective, rows)| {
            ProbRowSet::new(query, window, perspective, ARB_SAMPLES, rows)
        },
    )
}

fn arb_row_delta() -> impl Strategy<Value = ProbRowDelta> {
    (
        0u64..1_000_000,
        arb_prob_rows(),
        prop::collection::btree_set(0u64..10_000, 0..5),
    )
        .prop_map(|(epoch, upserts, removed)| ProbRowDelta {
            epoch,
            samples: ARB_SAMPLES,
            upserts,
            removed: removed.into_iter().map(Oid).collect(),
        })
}

fn arb_info() -> impl Strategy<Value = SubscriptionInfo> {
    (
        (arb_string(), arb_string(), 0u64..1_000_000),
        (
            0usize..100,
            0usize..100,
            prop_oneof![Just(None), arb_string().prop_map(Some)],
            arb_stats(),
        ),
    )
        .prop_map(
            |((name, statement, last_epoch), (entries, pending_deltas, error, stats))| {
                SubscriptionInfo {
                    name,
                    statement,
                    last_epoch,
                    entries,
                    pending_deltas,
                    error,
                    stats,
                }
            },
        )
}

fn arb_trajectory() -> impl Strategy<Value = UncertainTrajectory> {
    (
        0u64..10_000,
        prop::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 2..6),
        0.1..2.0f64,
        prop_oneof![
            Just(None),
            (0.05..0.5f64).prop_map(Some), // sigma as a fraction of r
        ],
    )
        .prop_map(|(oid, pts, radius, sigma_frac)| {
            let triples: Vec<(f64, f64, f64)> = pts
                .into_iter()
                .enumerate()
                .map(|(k, (x, y))| (x, y, k as f64 * 7.5))
                .collect();
            let tr = Trajectory::from_triples(Oid(oid), &triples).unwrap();
            match sigma_frac {
                None => UncertainTrajectory::with_uniform_pdf(tr, radius).unwrap(),
                Some(f) => UncertainTrajectory::new(
                    tr,
                    radius,
                    PdfKind::TruncatedGaussian {
                        radius,
                        sigma: f * radius,
                    },
                )
                .unwrap(),
            }
        })
}

fn arb_request() -> impl Strategy<Value = WireRequest> {
    prop_oneof![
        arb_string().prop_map(WireRequest::Statement),
        arb_trajectory().prop_map(WireRequest::Insert),
        arb_trajectory().prop_map(WireRequest::Update),
        arb_oid().prop_map(WireRequest::Remove),
        arb_string().prop_map(WireRequest::SubscriptionAnswer),
        (0u64..1_000_000).prop_map(|from_epoch| WireRequest::Follow { from_epoch }),
    ]
}

/// Snapshot contents with distinct ascending oids (the `Resync`
/// invariant the codec enforces).
fn arb_snapshot_objects() -> impl Strategy<Value = Vec<UncertainTrajectory>> {
    (
        prop::collection::btree_set(0u64..10_000, 0..4),
        prop::collection::vec((-50.0..50.0f64, -50.0..50.0f64, 0.1..2.0f64), 4),
    )
        .prop_map(|(oids, params)| {
            oids.into_iter()
                .zip(params)
                .map(|(oid, (x, y, radius))| {
                    let tr = Trajectory::from_triples(
                        Oid(oid),
                        &[(x, y, 0.0), (x + 10.0, y + 5.0, 30.0)],
                    )
                    .unwrap();
                    UncertainTrajectory::with_uniform_pdf(tr, radius).unwrap()
                })
                .collect()
        })
}

fn arb_repl_ops() -> impl Strategy<Value = Vec<ReplOp>> {
    prop::collection::vec(
        prop_oneof![
            arb_trajectory().prop_map(|tr| ReplOp::Insert(Arc::new(tr))),
            arb_oid().prop_map(ReplOp::Remove),
            Just(ReplOp::Clear),
        ],
        0..5,
    )
}

/// Sparse histogram buckets: strictly ascending in-range indices (the
/// codec invariant), with a consistent total count.
fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        prop::collection::btree_set(0u8..64, 0..6),
        prop::collection::vec(1u64..1_000, 6),
        0u64..1_000_000_000,
        0u64..1_000_000_000,
    )
        .prop_map(|(idxs, counts, sum, max)| {
            let buckets: Vec<(u8, u64)> = idxs.into_iter().zip(counts).collect();
            HistogramSnapshot {
                count: buckets.iter().map(|(_, c)| c).sum(),
                sum,
                max,
                buckets,
            }
        })
}

fn arb_metrics() -> impl Strategy<Value = MetricsSnapshot> {
    (
        prop::collection::vec((arb_string(), 0u64..1_000_000), 0..5),
        prop::collection::vec((arb_string(), 0u64..1_000_000), 0..5),
        prop::collection::vec((arb_string(), arb_histogram()), 0..4),
    )
        .prop_map(|(counters, gauges, histograms)| MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
}

/// Events with every valid stage code (the codec rejects unknown ones).
fn arb_trace_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    prop::collection::vec(
        (
            0u64..1_000_000,
            0u8..8,
            0u64..10_000,
            0u64..100_000,
            0u64..1_000_000_000,
        )
            .prop_map(|(epoch, stage, share, detail, dur_ns)| TraceEvent {
                epoch,
                stage: TraceStage::from_u8(stage).expect("0..8 are valid stage codes"),
                share,
                detail,
                dur_ns,
            }),
        0..6,
    )
}

fn arb_output() -> impl Strategy<Value = WireOutput> {
    prop_oneof![
        (0u64..2).prop_map(|b| WireOutput::Boolean(b == 1)),
        prop::collection::vec((arb_oid(), 0.0..1.0f64), 0..6).prop_map(WireOutput::Objects),
        arb_info().prop_map(WireOutput::Registered),
        arb_string().prop_map(WireOutput::Unregistered),
        prop::collection::vec(arb_info(), 0..4).prop_map(WireOutput::Subscriptions),
        (0u64..1_000_000, arb_answer_set())
            .prop_map(|(epoch, answer)| WireOutput::Answer { epoch, answer }),
        Just(WireOutput::Done),
        (0u64..1_000_000, arb_row_set())
            .prop_map(|(epoch, rows)| WireOutput::RowAnswer { epoch, rows }),
        (0u64..1_000_000).prop_map(|epoch| WireOutput::FollowOk { epoch }),
        (0u64..1_000_000, arb_snapshot_objects())
            .prop_map(|(epoch, objects)| WireOutput::Resync { epoch, objects }),
        arb_metrics().prop_map(WireOutput::Metrics),
        (0u64..1_000_000, arb_trace_events())
            .prop_map(|(epoch, events)| WireOutput::Trace { epoch, events }),
    ]
}

/// Every frame variant, with generated contents.
fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        Just(Frame::Hello {
            version: WIRE_VERSION
        }),
        (0u64..1_000_000).prop_map(|epoch| Frame::Welcome {
            version: WIRE_VERSION,
            epoch
        }),
        (0u64..1_000_000, arb_request()).prop_map(|(id, body)| Frame::Request { id, body }),
        (0u64..1_000_000, arb_output()).prop_map(|(id, out)| Frame::Response {
            id,
            result: Ok(out)
        }),
        (0u64..1_000_000, arb_string()).prop_map(|(id, msg)| Frame::Response {
            id,
            result: Err(msg)
        }),
        (arb_string(), arb_delta(), 0u64..2).prop_map(|(subscription, delta, lag)| Frame::Event {
            subscription,
            delta,
            lagged: lag == 1
        }),
        (arb_string(), arb_row_delta(), 0u64..2).prop_map(|(subscription, delta, lag)| {
            Frame::RowEvent {
                subscription,
                delta,
                lagged: lag == 1,
            }
        }),
        (0u64..1_000_000, arb_repl_ops()).prop_map(|(epoch, ops)| Frame::ReplDelta { epoch, ops }),
        (0u64..1_000_000).prop_map(|epoch| Frame::ReplLagged { epoch }),
        Just(Frame::Bye),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every frame type round-trips bit-identically, both as a bare
    /// payload and through the length-prefixed stream form.
    #[test]
    fn every_frame_round_trips(frame in arb_frame()) {
        let payload = encode_payload(&frame);
        let decoded = decode_payload(&payload).expect("valid payload decodes");
        prop_assert_eq!(&decoded, &frame);
        let mut stream = Vec::new();
        write_frame(&mut stream, &frame).expect("write succeeds");
        // Split as both ends split their streams: nothing while a byte
        // is missing, then the frame, leaving the buffer empty.
        let last = stream.pop().expect("a frame has bytes");
        prop_assert!(pop_frame(&mut stream).expect("incomplete is no error").is_none());
        stream.push(last);
        let from_stream = pop_frame(&mut stream).expect("stream decodes");
        prop_assert_eq!(from_stream.as_ref(), Some(&frame));
        prop_assert!(stream.is_empty());
    }

    /// No strict prefix of a valid payload decodes (truncation is always
    /// an error, never a silent mis-decode).
    #[test]
    fn truncated_payloads_are_rejected(frame in arb_frame()) {
        let payload = encode_payload(&frame);
        for cut in 0..payload.len() {
            prop_assert!(
                decode_payload(&payload[..cut]).is_err(),
                "prefix of {} bytes decoded",
                cut
            );
        }
    }

    /// Appending garbage after a frame body is rejected (the codec
    /// accounts for every byte).
    #[test]
    fn trailing_bytes_are_rejected(frame in arb_frame()) {
        let mut payload = encode_payload(&frame);
        payload.push(0x00);
        prop_assert!(decode_payload(&payload).is_err());
    }
}

/// The metrics decoder enforces the histogram-bucket invariants the
/// encoder relies on: indices strictly ascending and below 64.
#[test]
fn malformed_metrics_buckets_are_rejected() {
    let hist = |buckets: Vec<(u8, u64)>| MetricsSnapshot {
        counters: vec![],
        gauges: vec![],
        histograms: vec![(
            "h".to_string(),
            HistogramSnapshot {
                count: buckets.iter().map(|(_, c)| c).sum(),
                sum: 10,
                max: 4,
                buckets,
            },
        )],
    };
    let encode = |snap: MetricsSnapshot| {
        encode_payload(&Frame::Response {
            id: 1,
            result: Ok(WireOutput::Metrics(snap)),
        })
    };
    assert!(decode_payload(&encode(hist(vec![(2, 3), (5, 1)]))).is_ok());
    // Out-of-range index (>= 64 buckets).
    assert!(decode_payload(&encode(hist(vec![(64, 1)]))).is_err());
    // Non-ascending indices.
    assert!(decode_payload(&encode(hist(vec![(5, 1), (2, 3)]))).is_err());
    assert!(decode_payload(&encode(hist(vec![(3, 1), (3, 1)]))).is_err());
}

/// Both pushed-delta bodies go through one decoder, which enforces what
/// the client-side fold (`AnswerSet::apply`, `AnswerDelta::then` and
/// their row twins) assumes: upsert owners and removals strictly
/// ascending. A mis-ordered or duplicated list must fail loudly instead
/// of folding into a wrong answer.
#[test]
fn unsorted_or_duplicated_delta_lists_are_rejected() {
    let span = TimeInterval::new(0.0, 1.0);
    let event = |upserts: &[u64], removed: &[u64]| {
        encode_payload(&Frame::Event {
            subscription: "s".to_string(),
            delta: AnswerDelta {
                epoch: 3,
                upserts: upserts
                    .iter()
                    .map(|&k| AnswerEntry {
                        oid: Oid(k),
                        intervals: IntervalSet::from_intervals([span]),
                    })
                    .collect(),
                removed: removed.iter().map(|&k| Oid(k)).collect(),
            },
            lagged: false,
        })
    };
    let row_event = |upserts: &[u64], removed: &[u64]| {
        encode_payload(&Frame::RowEvent {
            subscription: "s".to_string(),
            delta: ProbRowDelta {
                epoch: 3,
                samples: 4,
                upserts: upserts
                    .iter()
                    .map(|&k| ProbRow {
                        oid: Oid(k),
                        points: vec![(0, 0.5)],
                    })
                    .collect(),
                removed: removed.iter().map(|&k| Oid(k)).collect(),
            },
            lagged: false,
        })
    };
    for encode in [&event as &dyn Fn(&[u64], &[u64]) -> Vec<u8>, &row_event] {
        assert!(decode_payload(&encode(&[2, 5], &[1, 9])).is_ok());
        for ids in [[5, 2], [5, 5]] {
            assert!(decode_payload(&encode(&ids, &[])).is_err(), "{ids:?}");
            assert!(decode_payload(&encode(&[], &ids)).is_err(), "{ids:?}");
        }
    }
}

/// An unknown trace-stage code is rejected rather than mis-decoded —
/// the enum can't represent it, so the check lives in the decoder.
#[test]
fn unknown_trace_stage_is_rejected() {
    let frame = Frame::Response {
        id: 1,
        result: Ok(WireOutput::Trace {
            epoch: 7,
            events: vec![TraceEvent {
                epoch: 7,
                stage: TraceStage::Visit,
                share: 3,
                detail: 1,
                dur_ns: 100,
            }],
        }),
    };
    let mut payload = encode_payload(&frame);
    // Layout: RESPONSE tag, id:u64, ok:u8, output tag, epoch:u64,
    // count:u32, then the event's epoch:u64 and the stage byte.
    let stage_at = 1 + 8 + 1 + 1 + 8 + 4 + 8;
    assert_eq!(payload[stage_at], TraceStage::Visit as u8);
    payload[stage_at] = 0xEE;
    assert!(decode_payload(&payload).is_err());
}

/// The constants table in `docs/WIRE.md` is normative documentation:
/// every `constant | value` row must match the code, or the spec is
/// lying about the bytes on the wire.
#[test]
fn wire_spec_constants_match_docs() {
    use uncertain_nn::modb::durability::IMAGE_MAGIC;
    use uncertain_nn::modb::net::wire::{
        MAX_FRAME_LEN, TAG_BYE, TAG_EVENT, TAG_HELLO, TAG_REPL_DELTA, TAG_REPL_LAGGED, TAG_REQUEST,
        TAG_RESPONSE, TAG_ROW_EVENT, TAG_WELCOME, WIRE_MAGIC,
    };
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/WIRE.md"))
        .expect("docs/WIRE.md exists");
    assert_eq!(
        WIRE_VERSION, 6,
        "a deliberate bump edits this literal, wire.rs::version_constants_are_sane \
         and the docs/WIRE.md constants row together"
    );
    let expected: &[(&str, u64)] = &[
        ("WIRE_MAGIC", WIRE_MAGIC as u64),
        ("WIRE_VERSION", WIRE_VERSION as u64),
        ("MAX_FRAME_LEN", MAX_FRAME_LEN as u64),
        ("TAG_HELLO", TAG_HELLO as u64),
        ("TAG_WELCOME", TAG_WELCOME as u64),
        ("TAG_REQUEST", TAG_REQUEST as u64),
        ("TAG_RESPONSE", TAG_RESPONSE as u64),
        ("TAG_EVENT", TAG_EVENT as u64),
        ("TAG_BYE", TAG_BYE as u64),
        ("TAG_ROW_EVENT", TAG_ROW_EVENT as u64),
        ("TAG_REPL_DELTA", TAG_REPL_DELTA as u64),
        ("TAG_REPL_LAGGED", TAG_REPL_LAGGED as u64),
        // Not a wire constant, but the image body is wire-encoded and
        // the spec describes it: the magic read as a little-endian u64.
        ("IMAGE_MAGIC", u64::from_le_bytes(*IMAGE_MAGIC)),
    ];
    for (name, value) in expected {
        // Rows look like: | `NAME` | `VALUE` | with VALUE decimal or 0x-hex.
        let row = spec
            .lines()
            .find_map(|line| {
                let rest = line.strip_prefix(&format!("| `{name}` | `"))?;
                rest.strip_suffix("` |")
            })
            .unwrap_or_else(|| panic!("docs/WIRE.md lacks a constants row for {name}"));
        let documented = match row.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => row.parse(),
        }
        .unwrap_or_else(|e| panic!("unparsable documented value for {name}: {row:?} ({e})"));
        assert_eq!(
            documented, *value,
            "docs/WIRE.md documents {name} = {documented}, code says {value}"
        );
    }
}

/// The `info` stats block is twelve `u64le` counters in the order
/// `docs/WIRE.md` lists them — the tail of a `Registered` response.
/// Every field is spelled out, so growing or shrinking
/// `SubscriptionStats` without revisiting the wire format fails here.
#[test]
fn info_stats_block_is_twelve_counters() {
    let stats = SubscriptionStats {
        skipped: 1,
        skipped_ops: 2,
        patched: 3,
        rebuilt: 4,
        envelopes_carried: 5,
        functions_reused: 6,
        functions_built: 7,
        rows_patched: 8,
        perspectives_skipped: 9,
        visited: 10,
        skipped_unvisited: 11,
        batched_commits: 12,
    };
    let payload = encode_payload(&Frame::Response {
        id: 1,
        result: Ok(WireOutput::Registered(SubscriptionInfo {
            name: "n".to_string(),
            statement: "s".to_string(),
            last_epoch: 0,
            entries: 0,
            pending_deltas: 0,
            error: None,
            stats,
        })),
    });
    // RESPONSE tag, id, ok flag, output tag, two 1-byte strings, three
    // u64 fields, the error presence byte.
    let fixed = 1 + 8 + 1 + 1 + (4 + 1) + (4 + 1) + 3 * 8 + 1;
    let words: Vec<u64> = payload[fixed..]
        .chunks(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("whole words")))
        .collect();
    assert_eq!(words, (1..=12).collect::<Vec<u64>>());
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/WIRE.md"))
        .expect("docs/WIRE.md exists");
    assert!(spec.contains("(twelve u64le values)"));
}
