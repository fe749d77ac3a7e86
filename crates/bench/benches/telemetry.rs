//! Telemetry overhead: what the metrics registry and the trace ring add
//! to the instrumented commit path.
//!
//! The headline claim: observability is effectively free. The same
//! commit workload — an upsert through the full pipeline with a
//! standing query registered, so the commit, delta-log, maintenance
//! round, and guard-index instrumentation all sit on the measured
//! path — runs with both switches off (`bare`), with metrics recording
//! on (`metrics_on`), and with metrics and epoch tracing on
//! (`trace_on`). `check_bench_json` gates the checked-in
//! `BENCH_telemetry.json` at `metrics_on ≤ 1.05 × bare` and
//! `trace_on ≤ 1.15 × bare`: a few relaxed atomics and two
//! `Instant::now`s per commit must stay lost in the noise of the work
//! they measure.
//!
//! The three settings are sampled **interleaved** (round-robin, one
//! batch per setting per round, medians over all rounds) rather than
//! as three back-to-back timing blocks: the differences being gated
//! are fractions of a percent, far below the slow drift of a shared
//! machine, and interleaving makes that drift hit all three settings
//! equally instead of whichever ran last. The `exposition` group
//! prices the read side — snapshotting the registry and rendering
//! it — which runs off the hot path but inside `SHOW METRICS`.

use std::time::Instant;
use unn_modb::server::ModServer;
use unn_modb::telemetry;
use unn_traj::generator::{generate_uncertain, WorkloadConfig};
use unn_traj::trajectory::{Oid, Trajectory};
use unn_traj::uncertain::UncertainTrajectory;

const RADIUS: f64 = 0.5;
const POPULATION: usize = 200;
/// Commits per timed batch: amortizes timer overhead and smooths
/// per-commit allocator jitter below the gated percentages.
const BATCH: u64 = 8;

/// A server with a populated store and one standing query, so a commit
/// exercises the full instrumented pipeline.
fn serving_store() -> ModServer {
    let server = ModServer::new();
    server
        .register_all(generate_uncertain(
            &WorkloadConfig::with_objects(POPULATION, 7),
            RADIUS,
        ))
        .expect("populates");
    server
        .execute(
            "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
             AND PROB_NN(*, Tr0, TIME) > 0 AS bench",
        )
        .expect("registers");
    server
}

/// One instrumented commit-to-queryable step (the `ingest` and
/// `durability` benches' definition of the commit path: the upsert
/// plus the snapshot refresh a serving store performs per commit),
/// shaped for identical work every iteration: the churned
/// object is spatially far from the standing query, so the guard index
/// prunes the share and the maintenance round costs the same constant
/// amount each time (a near-victim workload re-patches an evolving
/// engine, whose drift would swamp the nanoseconds this bench exists
/// to measure).
fn commit(server: &ModServer, k: u64) {
    let shift = 0.001 * ((k % 64) as f64);
    server.store().update(
        UncertainTrajectory::with_uniform_pdf(
            Trajectory::from_triples(
                Oid(POPULATION as u64 + 1),
                &[(shift, 70_000.0, 0.0), (30.0 + shift, 70_005.0, 60.0)],
            )
            .expect("valid"),
            RADIUS,
        )
        .expect("valid"),
    );
    let _ = server.store().snapshot();
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let rounds = if smoke { 2 } else { 500 };

    let settings: &[(&str, bool, bool)] = &[
        ("bare", false, false),
        ("metrics_on", true, false),
        ("trace_on", true, true),
    ];

    let server = serving_store();
    let mut k = 0u64;
    // Warm the commit path (object map, delta log, guard index caches)
    // before any timed batch.
    for _ in 0..(BATCH * 4) {
        k += 1;
        commit(&server, k);
    }

    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); settings.len()];
    for _ in 0..rounds {
        for (s, (_, metrics, trace)) in settings.iter().enumerate() {
            telemetry::set_metrics(*metrics);
            telemetry::set_trace(*trace);
            let t0 = Instant::now();
            for _ in 0..BATCH {
                k += 1;
                commit(&server, k);
            }
            samples[s].push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
        }
    }
    telemetry::set_metrics(true);
    telemetry::set_trace(false);
    for (s, (name, ..)) in settings.iter().enumerate() {
        criterion::report_ns(
            format!("telemetry_commit/{name}/{POPULATION}"),
            median(&mut samples[s]),
        );
    }

    // Read-side cost: one merged snapshot, one text rendering.
    let reps = if smoke { 2 } else { 200 };
    let mut snap_ns = Vec::with_capacity(reps);
    let mut render_ns = Vec::with_capacity(reps);
    let rendered = server.metrics_snapshot(None);
    for _ in 0..reps {
        let t0 = Instant::now();
        let snap = server.metrics_snapshot(None);
        snap_ns.push(t0.elapsed().as_nanos() as f64);
        std::hint::black_box(snap);
        let t0 = Instant::now();
        let text = rendered.render_prometheus();
        render_ns.push(t0.elapsed().as_nanos() as f64);
        std::hint::black_box(text);
    }
    criterion::report_ns(
        format!("exposition/snapshot/{POPULATION}"),
        median(&mut snap_ns),
    );
    criterion::report_ns(
        format!("exposition/render/{POPULATION}"),
        median(&mut render_ns),
    );

    if smoke {
        println!("telemetry smoke ok");
        return;
    }
    criterion::write_report(env!("CARGO_MANIFEST_DIR"), env!("CARGO_CRATE_NAME"));
}
