//! Ablation benches for the §7 extension modules:
//!
//! * **shifted envelope** (heterogeneous radii) vs the plain envelope —
//!   the cost of per-object slacks on the same population;
//! * **hetero possibility retrieval** vs a dense-sampling check — the
//!   payoff of exact quartic crossings over per-instant scanning;
//! * **reverse NN**: the full engine (`N` envelopes) vs the per-candidate
//!   existential scan, and the all-pairs construction;
//! * **continuous k-NN** cost as a function of `k`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use unn_bench::{distance_functions, window, workload};
use unn_core::algorithms::lower_envelope;
use unn_core::hetero::{HeteroCandidate, HeteroEngine};
use unn_core::reverse::{all_pairs_nn, ReverseNnEngine};
use unn_core::shifted::{shifted_lower_envelope, ShiftedFunction};
use unn_core::topk::continuous_knn;
use unn_traj::distance::DistanceFunction;
use unn_traj::trajectory::Oid;

/// Alternating GPS/cell-tower radii for a population of distance
/// functions.
fn mixed_radii(fs: &[DistanceFunction]) -> Vec<f64> {
    fs.iter()
        .enumerate()
        .map(|(k, _)| if k % 2 == 0 { 0.1 } else { 1.5 })
        .collect()
}

fn bench_shifted_envelope(c: &mut Criterion) {
    let mut group = c.benchmark_group("shifted_envelope");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));
    for &n in &[200usize, 500, 1000] {
        let trs = workload(n, 42);
        let fs = distance_functions(&trs, 0);
        let radii = mixed_radii(&fs);
        let shifted: Vec<ShiftedFunction> = fs
            .iter()
            .zip(&radii)
            .map(|(f, &r)| ShiftedFunction::new(f.clone(), r + 0.1))
            .collect();
        group.bench_with_input(BenchmarkId::new("plain", n), &fs, |b, fs| {
            b.iter(|| black_box(lower_envelope(fs)))
        });
        group.bench_with_input(BenchmarkId::new("shifted", n), &shifted, |b, sf| {
            b.iter(|| black_box(shifted_lower_envelope(sf)))
        });
    }
    group.finish();
}

fn bench_hetero_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("hetero_engine");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));
    for &n in &[200usize, 500] {
        let trs = workload(n, 7);
        let fs = distance_functions(&trs, 0);
        let radii = mixed_radii(&fs);
        let cands: Vec<HeteroCandidate> = fs
            .iter()
            .zip(&radii)
            .map(|(f, &r)| HeteroCandidate {
                f: f.clone(),
                radius: r,
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("build", n), &cands, |b, cands| {
            b.iter(|| black_box(HeteroEngine::new(Oid(0), cands.clone(), 0.1)))
        });
        let engine = HeteroEngine::new(Oid(0), cands.clone(), 0.1);
        let probe_oid = cands[1].f.owner();
        group.bench_with_input(
            BenchmarkId::new("possible_intervals_exact", n),
            &engine,
            |b, e| b.iter(|| black_box(e.possible_intervals(probe_oid))),
        );
        // Dense-sampling baseline for the same retrieval.
        group.bench_with_input(
            BenchmarkId::new("possible_intervals_sampled", n),
            &cands,
            |b, cands| {
                b.iter(|| {
                    let w = window();
                    let mut inside = 0usize;
                    for k in 0..2048 {
                        let t = w.start() + (k as f64 + 0.5) * w.len() / 2048.0;
                        let d1 = cands[1].f.eval(t).unwrap();
                        let s1 = cands[1].radius + 0.1;
                        let thr = cands
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| *j != 1)
                            .map(|(_, o)| o.f.eval(t).unwrap() + o.radius + 0.1)
                            .fold(f64::INFINITY, f64::min);
                        if d1 - s1 <= thr {
                            inside += 1;
                        }
                    }
                    black_box(inside)
                })
            },
        );
    }
    group.finish();
}

fn bench_reverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("reverse_nn");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(5));
    for &n in &[50usize, 100, 200] {
        let trs = workload(n, 11);
        group.bench_with_input(BenchmarkId::new("engine_build", n), &trs, |b, trs| {
            b.iter(|| black_box(ReverseNnEngine::new(trs, Oid(0), window(), 0.5).unwrap()))
        });
        let engine = ReverseNnEngine::new(&trs, Oid(0), window(), 0.5).unwrap();
        group.bench_with_input(BenchmarkId::new("answer_set", n), &engine, |b, e| {
            b.iter(|| black_box(e.answer_set()))
        });
        group.bench_with_input(BenchmarkId::new("all_pairs", n), &trs, |b, trs| {
            b.iter(|| black_box(all_pairs_nn(trs, window(), 0.5).unwrap()))
        });
    }
    group.finish();
}

fn bench_instantaneous(c: &mut Criterion) {
    use unn_modb::instantaneous::instantaneous_nn;
    use unn_traj::uncertain::UncertainTrajectory;
    let mut group = c.benchmark_group("instantaneous_nn");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));
    for &n in &[500usize, 1_000] {
        let trs: Vec<UncertainTrajectory> = workload(n, 42)
            .into_iter()
            .map(|tr| UncertainTrajectory::with_uniform_pdf(tr, 0.5).unwrap())
            .collect();
        group.bench_with_input(BenchmarkId::new("full_scan", n), &trs, |b, trs| {
            b.iter(|| black_box(instantaneous_nn(trs, Oid(0), 30.0).unwrap()))
        });
    }
    group.finish();
}

fn bench_knn(c: &mut Criterion) {
    let mut group = c.benchmark_group("continuous_knn");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));
    let trs = workload(500, 5);
    let fs = distance_functions(&trs, 0);
    for &k in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("k", k), &k, |b, &k| {
            b.iter(|| black_box(continuous_knn(&fs, k)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_shifted_envelope,
    bench_hetero_engine,
    bench_reverse,
    bench_instantaneous,
    bench_knn
);
criterion_main!(benches);
