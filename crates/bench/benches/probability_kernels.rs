//! Ablations for the batched probability column kernel
//! ([`unn_core::kernel::ColumnKernel`]):
//!
//! * `column_scalar/<n>` vs `column_batched/<n>` — the same window of
//!   dirty probe columns evaluated the pre-kernel way (per-column
//!   candidate collection + the generic Eq. 5 evaluator with per-sample
//!   virtual dispatch into the difference pdf) against the gather →
//!   evaluate → scatter kernel path (columns flattened into one
//!   structure-of-arrays batch over the interned profiled pdf). The
//!   window is 16 columns — the shape of a maintenance patch, not a full
//!   sweep — because the scalar baseline's cost grows cubically with the
//!   in-band candidate count and a production-density window would take
//!   minutes per iteration at the large tier.
//! * `rows_full` — a full probability-row sweep at production density
//!   (128 probes).
//!
//! Every kernel-path iteration evaluates through a fresh kernel over the
//! one profile: a kept kernel remembers the blocks of a column evaluated
//! twice (`unn_core::kernel`, "Memo") and would time the memo, not the
//! evaluator.
//!
//! Timed runs write `BENCH_probability_kernels.json` at the workspace
//! root (validated by `check_bench_json`); `-- --test` smoke-runs each
//! closure once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use unn_core::kernel::{ColumnBatch, ColumnKernel};
use unn_core::query::QueryEngine;
use unn_geom::hyperbola::Hyperbola;
use unn_geom::interval::TimeInterval;
use unn_geom::point::Vec2;
use unn_prob::nn_prob::{nn_probabilities, NnCandidate, NnConfig};
use unn_prob::profile::ProfiledPdf;
use unn_prob::uniform_diff::UniformDifferencePdf;
use unn_traj::distance::DistanceFunction;
use unn_traj::trajectory::Oid;

/// Per-object uncertainty radius — the difference pdf has support `2r`
/// and the probe band is `4r`.
const RADIUS: f64 = 0.25;

/// Probe density of the row-sweep groups (the production row default).
const SAMPLES: u32 = 128;

/// Probe columns per column-comparison iteration: a dirty-column window
/// of the size a maintenance patch touches.
const COLUMN_WINDOW: u32 = 16;

/// One candidate's distance-to-query function: a straight-line flyby
/// passing `y` at closest approach.
fn flyby(owner: u64, x0: f64, y: f64, v: f64) -> DistanceFunction {
    DistanceFunction::single(
        Oid(owner),
        TimeInterval::new(0.0, 10.0),
        Hyperbola::from_relative_motion(Vec2::new(x0, y), Vec2::new(v, 0.0), 0.0),
    )
}

/// `n` staggered flybys whose closest approaches cluster inside the
/// probe band, so most probe columns carry several candidates.
fn fleet(n: usize) -> Vec<DistanceFunction> {
    (0..n)
        .map(|k| {
            flyby(
                k as u64 + 1,
                -5.0 + 0.06 * k as f64,
                0.7 + 0.012 * k as f64,
                0.9 + 0.003 * k as f64,
            )
        })
        .collect()
}

/// The probe instant of column `k` of `density` (midpoint sampling over
/// [0, 10]).
fn probe_t(k: u32, density: u32) -> f64 {
    10.0 * (k as f64 + 0.5) / density as f64
}

/// The column's lower-envelope value: the minimum candidate distance.
fn lower_envelope(fs: &[DistanceFunction], t: f64) -> f64 {
    fs.iter()
        .filter_map(|f| f.eval(t))
        .fold(f64::INFINITY, f64::min)
}

fn bench_kernels(c: &mut Criterion) {
    let pdf = UniformDifferencePdf::new(RADIUS);
    let profile = Arc::new(ProfiledPdf::of(&pdf));
    let fresh = || ColumnKernel::from_profile(Arc::clone(&profile));
    let mut group = c.benchmark_group("probability_kernels");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    for &n in &[16usize, 32] {
        let fs = fleet(n);
        let band = fresh().band();
        // Scalar baseline: per column, collect the in-band candidates
        // and run the generic Eq. 5 evaluator against the virtual-
        // dispatch difference pdf — the pre-kernel inner loop.
        group.bench_with_input(BenchmarkId::new("column_scalar", n), &n, |b, _| {
            b.iter(|| {
                let mut acc = 0.0;
                for k in 0..COLUMN_WINDOW {
                    let t = probe_t(k, COLUMN_WINDOW);
                    let le = lower_envelope(&fs, t);
                    let cands: Vec<NnCandidate> = fs
                        .iter()
                        .filter_map(|f| f.eval(t))
                        .filter(|d| *d <= le + band)
                        .map(|d| NnCandidate {
                            center_distance: d,
                            pdf: &pdf,
                        })
                        .collect();
                    acc += nn_probabilities(&cands, NnConfig::default())
                        .iter()
                        .sum::<f64>();
                }
                black_box(acc)
            })
        });
        // Kernel path: gather every column into one flat batch, then one
        // evaluate call over the profiled pdf.
        group.bench_with_input(BenchmarkId::new("column_batched", n), &n, |b, _| {
            b.iter(|| {
                let mut batch = ColumnBatch::default();
                for k in 0..COLUMN_WINDOW {
                    let t = probe_t(k, COLUMN_WINDOW);
                    batch.gather(k, &fs, lower_envelope(&fs, t), t, band);
                }
                black_box(fresh().evaluate(&batch))
            })
        });
    }

    // A full row sweep through the engine.
    let engine = QueryEngine::new(Oid(0), fleet(64), RADIUS);
    group.bench_function("rows_full", |b| {
        b.iter(|| black_box(engine.prob_row_set_kernel(&fresh(), SAMPLES)))
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
