//! Telemetry must observe, never perturb. The metrics registry, the
//! trace ring, and the global on/off switches sit on every hot path of
//! the commit → maintenance → push pipeline; these tests pin the
//! contract that the *answers* flowing through that pipeline are
//! bit-identical whether the switches are on or off — flipping
//! telemetry may change what is recorded, never what is answered.

use proptest::prelude::*;
use std::sync::Mutex;
use uncertain_nn::modb::net::wire::{encode_payload, Frame, WireOutput};
use uncertain_nn::modb::subscription::SubAnswer;
use uncertain_nn::modb::telemetry;
use uncertain_nn::prelude::*;

const WINDOW: (f64, f64) = (0.0, 60.0);
const RADIUS: f64 = 0.5;

/// The telemetry switches are process globals; every test that flips
/// them serializes on this lock and restores the defaults when done.
static FLAGS: Mutex<()> = Mutex::new(());

struct FlagGuard<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

impl Drop for FlagGuard<'_> {
    fn drop(&mut self) {
        telemetry::set_metrics(true);
        telemetry::set_trace(false);
    }
}

fn hold_flags(metrics: bool, trace: bool) -> FlagGuard<'static> {
    let guard = FLAGS.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_metrics(metrics);
    telemetry::set_trace(trace);
    FlagGuard(guard)
}

fn straight(oid: u64, y: f64) -> UncertainTrajectory {
    UncertainTrajectory::with_uniform_pdf(
        Trajectory::from_triples(Oid(oid), &[(0.0, y, WINDOW.0), (30.0, y, WINDOW.1)]).unwrap(),
        RADIUS,
    )
    .unwrap()
}

/// One step of a randomized workload.
#[derive(Debug, Clone)]
enum Op {
    Upsert(u64, f64),
    Remove(u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..6, -1.0..6.0f64).prop_map(|(oid, y)| Op::Upsert(oid, y)),
            (1u64..6, -1.0..6.0f64).prop_map(|(oid, y)| Op::Upsert(oid, y + 0.5)),
            (1u64..6, -1.0..6.0f64).prop_map(|(oid, y)| Op::Upsert(oid, y - 0.5)),
            (1u64..6).prop_map(Op::Remove),
        ],
        1..12,
    )
}

/// Runs the workload from scratch and returns the full wire-encoded
/// answer stream it produces: after every mutation, the maintained
/// standing-query answer and a fresh one-shot query, both as the exact
/// frame bytes a client would receive.
fn answer_stream(ops: &[Op]) -> Vec<Vec<u8>> {
    let server = ModServer::new();
    server
        .register_all((0..4).map(|k| straight(k, k as f64)))
        .unwrap();
    server
        .execute(
            "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
             AND PROB_NN(*, Tr0, TIME) > 0 AS s",
        )
        .unwrap();
    let mut frames = Vec::new();
    for (k, op) in ops.iter().enumerate() {
        match op {
            Op::Upsert(oid, y) => {
                server.store().update(straight(*oid, *y));
            }
            // Removing an absent oid is a workload no-op, not an error
            // the stream should diverge on.
            Op::Remove(oid) => {
                let _ = server.store().remove(Oid(*oid));
            }
        }
        let (answer, epoch) = server
            .subscription_registry()
            .answer_with_epoch("s")
            .expect("standing query lives");
        let maintained = match answer {
            SubAnswer::Intervals(a) => a,
            other => panic!("expected intervals, got {other:?}"),
        };
        frames.push(encode_payload(&Frame::Response {
            id: k as u64,
            result: Ok(WireOutput::Answer {
                epoch,
                answer: maintained,
            }),
        }));
        let one_shot = server
            .execute(
                "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0.25",
            )
            .unwrap();
        let objects = match one_shot {
            QueryOutput::Objects(objs) => objs,
            other => panic!("expected objects, got {other:?}"),
        };
        frames.push(encode_payload(&Frame::Response {
            id: k as u64,
            result: Ok(WireOutput::Objects(objects)),
        }));
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The observable answer stream is bit-identical across all three
    /// switch settings: telemetry fully off, metrics on, and metrics +
    /// tracing on.
    #[test]
    fn answer_stream_is_bit_identical_across_telemetry_settings(ops in arb_ops()) {
        let bare = {
            let _flags = hold_flags(false, false);
            answer_stream(&ops)
        };
        let metered = {
            let _flags = hold_flags(true, false);
            answer_stream(&ops)
        };
        let traced = {
            let _flags = hold_flags(true, true);
            answer_stream(&ops)
        };
        prop_assert_eq!(&bare, &metered, "metrics recording changed the answer bytes");
        prop_assert_eq!(&bare, &traced, "tracing changed the answer bytes");
    }
}

/// With metrics on, the commit path visibly moves the registry — the
/// same workload that must not change answers must change the metrics.
#[test]
fn metrics_move_while_answers_do_not() {
    let _flags = hold_flags(true, false);
    let server = ModServer::new();
    server
        .register_all((0..4).map(|k| straight(k, k as f64)))
        .unwrap();
    let before = server.metrics_snapshot(Some("commit"));
    server.store().update(straight(1, 0.25)).unwrap();
    server.store().update(straight(2, 0.75)).unwrap();
    let after = server.metrics_snapshot(Some("commit"));
    let count = |snap: &telemetry::MetricsSnapshot| {
        snap.histograms.iter().map(|(_, h)| h.count).sum::<u64>()
    };
    assert!(
        count(&after) >= count(&before) + 2,
        "two commits must land at least two commit-latency samples \
         (before {before:?}, after {after:?})"
    );
}

/// With metrics off, the same path leaves the registry untouched.
#[test]
fn disabled_metrics_record_nothing() {
    let _flags = hold_flags(false, false);
    let server = ModServer::new();
    server
        .register_all((0..4).map(|k| straight(k, k as f64)))
        .unwrap();
    // The raw registry only — `metrics_snapshot` also merges derived
    // views (the cache's entry count, delta-log stats) that legitimately
    // move with the store whatever the switch says. The engine cache's
    // hit / carry / miss counters are registry counters and obey it.
    let before = server.store().telemetry().snapshot();
    server.store().update(straight(1, 0.25)).unwrap();
    server
        .execute("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0")
        .unwrap();
    let after = server.store().telemetry().snapshot();
    let cache = server.metrics_snapshot(Some("cache_"));
    for name in [
        "cache_hits_total",
        "cache_carried_total",
        "cache_misses_total",
    ] {
        assert_eq!(cache.value(name), Some(0), "{name} recorded while off");
    }
    let totals = |snap: &telemetry::MetricsSnapshot| {
        (
            snap.counters.iter().map(|(_, v)| *v).sum::<u64>(),
            snap.histograms.iter().map(|(_, h)| h.count).sum::<u64>(),
        )
    };
    // Derived views (per-subscription stats re-expressed as gauges)
    // still move with the store; the recorded counters and histogram
    // samples must not.
    assert_eq!(
        totals(&before),
        totals(&after),
        "a disabled registry must not record"
    );
}

/// The `subs_*` totals count each share once, however many names ride
/// it: three threshold statements on one object and window are one
/// share, and one in-band insert patches it once.
#[test]
fn subs_totals_count_each_share_once() {
    let _flags = hold_flags(true, false);
    let server = ModServer::new();
    server
        .register_all((0..4).map(|k| straight(k, k as f64)))
        .unwrap();
    for (name, p) in [("a", 0.2), ("b", 0.4), ("c", 0.6)] {
        let stmt = format!(
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > {p}"
        );
        server.subscribe(name, &stmt).unwrap();
    }
    assert_eq!(server.subscription_registry().share_count(), 1);
    server.register(straight(9, 0.5)).unwrap();
    let share = server.subscription_registry().info("a").unwrap().stats;
    assert_eq!(share.visited, 1);
    assert!(share.rows_patched > 0, "{share:?}");
    let subs = server.metrics_snapshot(Some("subs_"));
    assert_eq!(subs.value("subs_visited_total"), Some(share.visited));
    assert_eq!(
        subs.value("subs_rows_patched_total"),
        Some(share.rows_patched)
    );
    assert_eq!(
        subs.value("subs_skipped_unvisited_total"),
        Some(share.skipped_unvisited)
    );
}

/// `ladder_unvisited_total` counts, per completed round, the shares the
/// guard index pruned without touching them — so it moves on far churn,
/// where by construction no share is ever visited and a tally folded in
/// at "the share's next visit" would read 0 forever.
#[test]
fn unvisited_counter_moves_on_far_churn() {
    const SHARES: u64 = 3;
    const COMMITS: u64 = 7;
    let _flags = hold_flags(true, false);
    let server = ModServer::new();
    server
        .register_all((0..4).map(|k| straight(k, k as f64)))
        .unwrap();
    for q in 0..SHARES {
        let stmt = format!(
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr{q}, TIME) > 0"
        );
        server.subscribe(&format!("s{q}"), &stmt).unwrap();
    }
    // The registry's first round also replays the base load, which hits
    // every guard; one far commit gets that visit out of the way.
    server.register(straight(100, 70_000.0)).unwrap();
    // (skipped + patched + rebuilt, unvisited)
    let ladder = || {
        let counters = server.metrics_snapshot(Some("ladder_")).counters;
        let get = |name: &str| counters.iter().find(|(n, _)| n == name).unwrap().1;
        let visits = ["skipped", "patched", "rebuilt"]
            .map(|rung| get(&format!("ladder_{rung}_total")))
            .iter()
            .sum::<u64>();
        (visits, get("ladder_unvisited_total"))
    };
    let (visits, unvisited) = ladder();
    for k in 0..COMMITS {
        server
            .register(straight(200 + k, 70_000.0 + k as f64))
            .unwrap();
    }
    assert_eq!(
        ladder(),
        (visits, unvisited + SHARES * COMMITS),
        "every far round prunes every share and visits none"
    );
}

/// The `subs_*` totals are counters: a share that leaves the registry
/// takes its live row with it, but its counts stay in the totals.
#[test]
fn subs_totals_never_fall_when_a_share_goes() {
    const TOTALS: [&str; 4] = [
        "subs_visited_total",
        "subs_skipped_unvisited_total",
        "subs_batched_commits_total",
        "subs_rows_patched_total",
    ];
    let _flags = hold_flags(true, false);
    let server = ModServer::new();
    server
        .register_all((0..4).map(|k| straight(k, k as f64)))
        .unwrap();
    for q in 0..2 {
        let stmt = format!(
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr{q}, TIME) > 0.2"
        );
        server.subscribe(&format!("s{q}"), &stmt).unwrap();
    }
    assert_eq!(server.subscription_registry().share_count(), 2);
    // One in-band commit patches both shares, one far commit prunes both.
    server.register(straight(9, 0.5)).unwrap();
    server.register(straight(100, 70_000.0)).unwrap();
    let totals = || {
        let snap = server.metrics_snapshot(Some("subs_"));
        TOTALS.map(|name| snap.value(name).unwrap())
    };
    let before = totals();
    assert!(
        before[0] > 0 && before[1] > 0 && before[3] > 0,
        "{before:?}"
    );
    server.unsubscribe("s1").unwrap();
    assert_eq!(server.subscription_registry().share_count(), 1);
    let after = totals();
    for ((name, was), now) in TOTALS.iter().zip(before).zip(after) {
        assert!(now >= was, "{name} fell from {was} to {now}");
    }
    // The retired share's counts stay in the totals as the live share's grow.
    server.register(straight(101, 70_001.0)).unwrap();
    let later = totals();
    assert_eq!(later[1], after[1] + 1, "only the live share is pruned");
}
