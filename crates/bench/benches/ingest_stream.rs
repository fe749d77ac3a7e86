//! Steady-state ingest: a stream of single-object GPS updates against a
//! populated MOD, measuring the snapshot refresh (delta-maintained vs a
//! cold snapshot of the live contents) and the update-then-query round
//! trip (delta + engine carry vs the cold pipeline).
//!
//! The headline number backs the delta-epoch layer's claim: refreshing
//! the snapshot after a one-object update is one merge pass over the
//! previous snapshot with delta maintenance, and a re-copy of every
//! object without, while answers stay bit-identical (asserted below
//! before timing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;
use unn_geom::interval::TimeInterval;
use unn_modb::plan::QueryPlanner;
use unn_modb::server::ModServer;
use unn_modb::snapshot::QuerySnapshot;
use unn_modb::store::ModStore;
use unn_traj::generator::{generate_uncertain, WorkloadConfig};
use unn_traj::trajectory::{Oid, Trajectory};
use unn_traj::uncertain::UncertainTrajectory;

const RADIUS: f64 = 0.5;
const SIZES: [usize; 2] = [200, 600];

fn window() -> TimeInterval {
    TimeInterval::new(0.0, 60.0)
}

fn store(n: usize) -> ModStore {
    let s = ModStore::new();
    s.bulk_load(generate_uncertain(
        &WorkloadConfig::with_objects(n, 7),
        RADIUS,
    ))
    .expect("workload registers");
    s
}

/// A cold snapshot of the store's live contents: every object copied,
/// nothing carried from an earlier snapshot.
fn cold_snapshot(s: &ModStore) -> QuerySnapshot {
    let live = s.oids().into_iter().filter_map(|oid| s.get(oid)).collect();
    QuerySnapshot::new(s.epoch(), live)
}

/// One GPS correction: re-registers `victim` with a slightly shifted
/// track (epoch +2).
fn update(s: &ModStore, victim: Oid, shift: f64) {
    let old = s.remove(victim).expect("present");
    let revised: Vec<(f64, f64, f64)> = old
        .trajectory()
        .samples()
        .iter()
        .map(|p| (p.position.x + shift, p.position.y, p.time))
        .collect();
    s.insert(
        UncertainTrajectory::with_uniform_pdf(
            Trajectory::from_triples(victim, &revised).expect("valid"),
            RADIUS,
        )
        .expect("valid"),
    )
    .expect("re-registered");
}

/// [`update`], then refreshes the store's snapshot.
fn update_and_refresh(s: &ModStore, victim: Oid, shift: f64) {
    update(s, victim, shift);
    let _ = s.snapshot();
}

/// The acceptance property, asserted before anything is timed: after a
/// stream of updates, the delta-maintained store answers identically to
/// an exhaustively rebuilt one.
fn assert_delta_answers_match(n: usize) {
    use unn_modb::plan::PrefilterPolicy;
    let s = store(n);
    for k in 0..10u64 {
        update_and_refresh(&s, Oid(k % n as u64), 0.01 * (k + 1) as f64);
    }
    let live = s.snapshot();
    let fresh = ModServer::with_policy(PrefilterPolicy::Exhaustive);
    fresh.register_all(live.to_vec()).expect("fresh ids");
    let w = window();
    let live_plan = QueryPlanner::default()
        .plan(live, Oid(0), w)
        .expect("plans");
    let naive = fresh.engine(Oid(0), w).expect("builds").0;
    let fast = live_plan.build_engine().expect("builds");
    assert_eq!(
        fast.uq31_all(),
        naive.uq31_all(),
        "delta-maintained answers diverged from the exhaustive rebuild"
    );
    assert_eq!(fast.continuous_nn_answer(), naive.continuous_nn_answer());
}

fn snapshot_refresh(c: &mut Criterion) {
    for n in SIZES {
        assert_delta_answers_match(n);
    }
    let mut group = c.benchmark_group("ingest");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3));
    for n in SIZES {
        // Delta-maintained: the default path.
        let s = store(n);
        update_and_refresh(&s, Oid(0), 0.001); // warm snapshot
        let mut k = 0u64;
        group.bench_with_input(BenchmarkId::new("delta_refresh", n), &n, |b, _| {
            b.iter(|| {
                k += 1;
                update_and_refresh(&s, Oid(k % n as u64), 0.001);
            })
        });
        // Ablation: every refresh is a cold snapshot that re-copies the
        // MOD.
        let s = store(n);
        update(&s, Oid(0), 0.001);
        let mut k = 0u64;
        group.bench_with_input(BenchmarkId::new("full_rebuild", n), &n, |b, _| {
            b.iter(|| {
                k += 1;
                update(&s, Oid(k % n as u64), 0.001);
                cold_snapshot(&s)
            })
        });
    }
    group.finish();
}

fn update_then_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("steady_state");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3));
    for n in SIZES {
        let w = window();
        // Far-away churn (outside every engine's band): the query after
        // each update is served by the engine-carry fast path.
        let server = ModServer::new();
        server
            .register_all(generate_uncertain(
                &WorkloadConfig::with_objects(n, 7),
                RADIUS,
            ))
            .expect("registers");
        let far = |k: u64, shift: f64| {
            let y = 50_000.0 + (k % 32) as f64;
            UncertainTrajectory::with_uniform_pdf(
                Trajectory::from_triples(
                    Oid(1_000_000 + k % 32),
                    &[(shift, y, 0.0), (shift + 30.0, y, 60.0)],
                )
                .expect("valid"),
                RADIUS,
            )
            .expect("valid")
        };
        for k in 0..32u64 {
            server.register(far(k, 0.0)).expect("registers");
        }
        let _ = server.engine(Oid(0), w).expect("warms");
        let mut k = 0u64;
        group.bench_with_input(BenchmarkId::new("update_query_carry", n), &n, |b, _| {
            b.iter(|| {
                k += 1;
                server
                    .store()
                    .remove(Oid(1_000_000 + k % 32))
                    .expect("present");
                server
                    .register(far(k, 0.01 * (k % 100) as f64))
                    .expect("ok");
                server.engine(Oid(0), w).expect("queries").0
            })
        });
        // Ablation: the same churn against a cold pipeline — a cold
        // snapshot and a fresh plan + envelope per query.
        let server = ModServer::new();
        server
            .register_all(generate_uncertain(
                &WorkloadConfig::with_objects(n, 7),
                RADIUS,
            ))
            .expect("registers");
        for k in 0..32u64 {
            server.register(far(k, 0.0)).expect("registers");
        }
        let planner = QueryPlanner::default();
        let mut k = 0u64;
        group.bench_with_input(BenchmarkId::new("update_query_cold", n), &n, |b, _| {
            b.iter(|| {
                k += 1;
                server
                    .store()
                    .remove(Oid(1_000_000 + k % 32))
                    .expect("present");
                server
                    .register(far(k, 0.01 * (k % 100) as f64))
                    .expect("ok");
                let plan = planner
                    .plan(Arc::new(cold_snapshot(server.store())), Oid(0), w)
                    .expect("plans");
                plan.build_engine().expect("builds")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, snapshot_refresh, update_then_query);
criterion_main!(benches);
