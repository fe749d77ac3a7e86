//! Criterion micro-benchmark behind **Figure 12**: per-query cost of the
//! existential UQ11 and quantitative UQ13 (X = 50%) variants —
//! envelope-based (preprocessed) vs naive (recompute everything).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use unn_bench::{distance_functions, workload};
use unn_core::query::{naive_queries, window_fraction, QueryEngine};

fn bench_queries(c: &mut Criterion) {
    let radius = 0.5;
    let mut group = c.benchmark_group("query_processing");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for &n in &[500usize, 2000] {
        let trs = workload(n, 42);
        let fs = distance_functions(&trs, 0);
        let engine = QueryEngine::new(trs[0].oid(), fs.clone(), radius);
        let targets: Vec<_> = fs.iter().map(|f| f.owner()).collect();
        let mut i = 0usize;

        group.bench_with_input(BenchmarkId::new("ours_uq11", n), &(), |b, _| {
            b.iter(|| {
                i = (i + 1) % targets.len();
                black_box(engine.uq11_exists(targets[i]))
            })
        });
        group.bench_with_input(BenchmarkId::new("ours_uq13", n), &(), |b, _| {
            b.iter(|| {
                i = (i + 1) % targets.len();
                black_box(
                    engine
                        .nonzero_intervals(targets[i])
                        .map(|iv| window_fraction(&iv, engine.window())),
                )
            })
        });
        if n <= 500 {
            group.bench_with_input(BenchmarkId::new("naive_uq11", n), &fs, |b, fs| {
                b.iter(|| {
                    i = (i + 1) % targets.len();
                    black_box(naive_queries::uq11_exists(fs, targets[i], radius))
                })
            });
            group.bench_with_input(BenchmarkId::new("naive_uq13", n), &fs, |b, fs| {
                b.iter(|| {
                    i = (i + 1) % targets.len();
                    black_box(naive_queries::uq13_fraction(fs, targets[i], radius))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
