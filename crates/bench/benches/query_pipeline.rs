//! The unified query-pipeline hot path: cold engine builds vs the
//! epoch-keyed engine cache, the scan prefilter against the exhaustive
//! baseline, and the plan stage with and without a carried epoch-box
//! table, on the §5 random-waypoint workload.
//!
//! `cold` measures plan → prefilter → envelope build (no engine cache).
//! It plans against the store's one long-lived snapshot, so from the
//! second iteration on its prefilter scans that snapshot's memoised
//! epoch-box table: the box computation is not in the number. `cached`
//! measures what a client gets once the engine is warm:
//! [`ModServer::execute`] of the whole-MOD `SELECT` — parse, cache
//! lookup, and the answer cloned from the engine's memo.
//!
//! `plan/fresh` and `plan/carried` time the plan stage on a snapshot
//! derived from a base by a one-object delta, as a commit derives it.
//! Under `fresh` nobody planned on the base, so the plan builds the
//! table; under `carried` the base was planned on, so the derivation
//! carries its table and computes one row. Both include the same merge.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;
use unn_geom::interval::TimeInterval;
use unn_modb::plan::{PrefilterPolicy, QueryPlanner};
use unn_modb::server::ModServer;
use unn_modb::{NetDelta, QuerySnapshot};
use unn_traj::generator::{generate_uncertain, WorkloadConfig};
use unn_traj::trajectory::Oid;

const RADIUS: f64 = 0.5;
const SIZES: [usize; 2] = [200, 600];
const STATEMENT: &str =
    "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0";

fn window() -> TimeInterval {
    TimeInterval::new(0.0, 60.0)
}

fn server(n: usize) -> ModServer {
    let s = ModServer::new();
    s.register_all(generate_uncertain(
        &WorkloadConfig::with_objects(n, 7),
        RADIUS,
    ))
    .expect("workload registers");
    s
}

fn cold_vs_cached(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3));
    for n in SIZES {
        let s = server(n);
        let w = window();
        // Cold: plan + prefilter + difference construction + envelope,
        // bypassing the cache entirely.
        group.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
            let planner = QueryPlanner::default();
            b.iter(|| {
                let plan = planner
                    .plan(s.store().snapshot(), Oid(0), w)
                    .expect("plan builds");
                plan.build_engine().expect("engine builds")
            })
        });
        // Cached: the repeated statement, end to end.
        let _ = s.execute(STATEMENT).expect("warms the cache");
        group.bench_with_input(BenchmarkId::new("cached", n), &n, |b, _| {
            b.iter(|| s.execute(STATEMENT).expect("cached answer"))
        });
    }
    group.finish();
}

fn prefilter_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefilter");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3));
    for n in SIZES {
        let s = server(n);
        let w = window();
        for (name, policy) in [
            ("exhaustive", PrefilterPolicy::Exhaustive),
            ("scan", PrefilterPolicy::Scan { epochs: 8 }),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &policy, |b, &policy| {
                let planner = QueryPlanner::new(policy);
                b.iter(|| {
                    let plan = planner
                        .plan(s.store().snapshot(), Oid(0), w)
                        .expect("plan builds");
                    plan.build_engine().expect("engine builds")
                })
            });
        }
    }
    group.finish();
}

fn plan_stage(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3));
    let n = 600;
    let w = window();
    let objects = generate_uncertain(&WorkloadConfig::with_objects(n, 7), RADIUS);
    // A GPS correction of one object, as `near_churn` commits them.
    let moved = &objects[n / 2];
    let net = NetDelta::new(vec![moved.oid()], vec![moved.clone()]);
    let planner = QueryPlanner::default();
    for (name, planned_on) in [("fresh", false), ("carried", true)] {
        let base = QuerySnapshot::new(1, objects.clone());
        if planned_on {
            base.epoch_boxes(w, 8);
        }
        group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
            b.iter(|| {
                let next = Arc::new(QuerySnapshot::apply_delta(&base, 2, &net));
                planner.plan(next, Oid(0), w).expect("plan builds")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, cold_vs_cached, prefilter_ablation, plan_stage);
criterion_main!(benches);
