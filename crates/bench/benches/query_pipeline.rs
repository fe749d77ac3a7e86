//! The unified query-pipeline hot path: cold engine builds vs the
//! epoch-keyed engine cache, and the scan prefilter against the
//! exhaustive baseline, on the §5 random-waypoint workload.
//!
//! `cold` measures a full snapshot → plan → prefilter → envelope build
//! (no cache). `cached` measures what a client gets once the engine is
//! warm: [`ModServer::execute`] of the whole-MOD `SELECT` — parse, cache
//! lookup, and the answer cloned from the engine's memo.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use unn_geom::interval::TimeInterval;
use unn_modb::plan::{PrefilterPolicy, QueryPlanner};
use unn_modb::server::ModServer;
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

criterion_group!(benches, cold_vs_cached, prefilter_ablation);
criterion_main!(benches);
