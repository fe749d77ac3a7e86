//! Streaming ingest: the delta-epoch layer under a live update feed.
//!
//! The paper assumes a mostly-static MOD; this example shows what the
//! store does instead when GPS updates stream in continuously. Each
//! update is one `remove` + `insert` of the same vehicle (a revised
//! motion plan). The store logs the ops in its delta log, and the next
//! `snapshot()` *patches* the previous snapshot instead of re-copying
//! the store — while every query keeps answering exactly as a cold
//! rebuild would. Cached
//! query engines whose `4r` band is provably out of the update's reach
//! are carried across the mutation without rebuilding either.
//!
//! Run with: `cargo run --release --example streaming_ingest`

use uncertain_nn::prelude::*;

/// A vehicle of the remote depot fleet: ~5000 miles from the metro area,
/// far outside every metro engine's `4r` band.
fn depot_vehicle(oid: u64, offset: f64) -> UncertainTrajectory {
    let y = 5_000.0 + (oid % 100) as f64;
    let tr = Trajectory::from_triples(
        Oid(oid),
        &[(offset, y, 0.0), (offset + 30.0, y + 3.0, 60.0)],
    )
    .expect("valid track");
    UncertainTrajectory::with_uniform_pdf(tr, 0.5).expect("valid radius")
}

fn main() {
    let radius = 0.5;
    // The metro fleet of the paper's §5 workload, plus a remote depot
    // fleet whose vehicles will be streaming position corrections.
    let server = ModServer::new();
    server
        .register_all(generate_uncertain(
            &WorkloadConfig::with_objects(600, 9),
            radius,
        ))
        .expect("fresh ids");
    server
        .register_all((600..700).map(|oid| depot_vehicle(oid, 0.0)))
        .expect("fresh ids");

    let window = TimeInterval::new(0.0, 60.0);
    let focus = Oid(0);

    // Warm the pipeline: snapshot, one cached engine.
    let snap = server.store().snapshot();
    println!("initial build: {} objects", snap.len());
    let before = server
        .continuous_nn(focus, window)
        .expect("query runs")
        .sequence;

    // A stream of 50 GPS corrections to depot vehicles. Each one bumps
    // the store epoch — but the refresh patches the previous snapshot;
    // the focus engine is *carried* across every mutation because each
    // correction is provably beyond its envelope + 4r reach.
    for k in 0..50u64 {
        let victim = 600 + (k % 100);
        server.store().remove(Oid(victim)).expect("present");
        server
            .register(depot_vehicle(victim, 0.1 * (k + 1) as f64))
            .expect("re-registered");
        // The focus query keeps running against the fresh epoch, with
        // answers identical to a cold rebuild (asserted property-style in
        // tests/delta_consistency.rs; spot-checked here).
        let ans = server.continuous_nn(focus, window).expect("query runs");
        assert_eq!(
            ans.sequence, before,
            "depot churn must not change metro answers"
        );
    }

    let d = server.store().delta_stats();
    println!(
        "after 50 updates: epoch {}, {} delta-applied refreshes, {} full rebuilds",
        d.epoch, d.snapshots_delta_applied, d.snapshots_rebuilt
    );
    let c = server.metrics_snapshot(Some("cache_"));
    let get = |name| c.value(name).expect("a registry counter");
    let carried = get("cache_carried_total");
    println!(
        "engine cache: {} hits ({carried} carried across deltas), {} misses",
        get("cache_hits_total"),
        get("cache_misses_total")
    );
    assert!(carried > 0, "the carry fast-path should have fired");
    println!("continuous NN answer unchanged through the whole stream ✓");
}
