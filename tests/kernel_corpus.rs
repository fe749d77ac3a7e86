//! The column kernel on real columns: probability rows of four query
//! objects on the 600-object §5 workload (the corpus
//! `examples/kernel_digest.rs` hashes).
//!
//! Three things a change of arithmetic inside the kernel could break
//! without any bit-identity suite noticing, because those compare the
//! kernel with itself: a column must still be a probability distribution
//! (Eq. 5 sums to one over the in-band candidates), a row must hold a
//! value at exactly the probes where its object is inside the `4r` band —
//! membership is the band rule's business, never the kernel's — and a
//! value must stay within the stated error of the reference Eq. 5
//! (`unn_prob::reference`).

use std::collections::BTreeSet;
use std::sync::Arc;
use uncertain_nn::core::probrows::probe_time;
use uncertain_nn::prelude::*;
use uncertain_nn::prob::profile::{nn_probabilities_profiled, BlockList, ProfiledPdf};
use uncertain_nn::prob::{reference, PdfKind, RadialPdf, UniformDifferencePdf};

const RADIUS: f64 = 0.5;
const SAMPLES: u32 = 128;

fn window() -> TimeInterval {
    TimeInterval::new(0.0, 60.0)
}

/// The four query objects' engines over the 600-object workload.
fn corpus() -> Vec<(u64, QueryEngine)> {
    let fleet = generate_uncertain(&WorkloadConfig::with_objects(600, 0xEDB7_2009), RADIUS);
    let snapshot = Arc::new(QuerySnapshot::new(1, fleet));
    [0u64, 150, 300, 450]
        .into_iter()
        .map(|query| {
            let engine = QueryPlanner::default()
                .plan(Arc::clone(&snapshot), Oid(query), window())
                .unwrap()
                .build_engine()
                .unwrap();
            (query, engine)
        })
        .collect()
}

/// The column at probe `k`: each candidate inside the band, with its
/// distance — the band rule, restated from the paper: d(t) ≤ LE₁(t) + 4r.
fn band(engine: &QueryEngine, k: u32) -> Vec<(Oid, f64)> {
    let t = probe_time(window(), SAMPLES, k);
    let le = engine.envelope().eval(t).expect("probe inside the window");
    engine
        .functions()
        .iter()
        .filter_map(|f| f.eval(t).map(|d| (f.owner(), d)))
        .filter(|&(_, d)| d <= le + 4.0 * RADIUS)
        .collect()
}

#[test]
fn corpus_columns_sum_to_one_and_rows_hold_exactly_the_in_band_probes() {
    let kernel = ColumnKernel::new(&UniformDifferencePdf::new(RADIUS));
    for (query, engine) in corpus() {
        let rows = engine.prob_row_set_kernel(&kernel, SAMPLES);

        let mut sums = vec![0.0; SAMPLES as usize];
        let mut members = BTreeSet::new();
        for row in rows.rows() {
            for &(k, p) in &row.points {
                assert!((0.0..=1.0).contains(&p), "{} at probe {k}: {p}", row.oid);
                sums[k as usize] += p;
                members.insert((row.oid, k));
            }
        }
        for (k, sum) in sums.iter().enumerate() {
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "query {query}, probe {k}: Σ P^NN = {sum}"
            );
        }

        let in_band: BTreeSet<(Oid, u32)> = (0..SAMPLES)
            .flat_map(|k| band(&engine, k).into_iter().map(move |(oid, _)| (oid, k)))
            .collect();
        assert_eq!(members, in_band, "query {query}");
    }
}

/// Every `REFERENCE_STRIDE`-th probe of each query: 8 of the corpus's 512
/// columns (a debug build spends most of this test in the reference).
const REFERENCE_STRIDE: usize = 64;

/// The uniform gate: the kernel reads 8.4e-9 on these columns and
/// 3.15e-8 over the whole corpus (with 16 outer nodes on every segment,
/// 1.06e-8 and 3.12e-8; without the cuts at each `d`, 1.8e-5).
const UNIFORM_BOUND: f64 = 5e-8;

/// The truncated-Gaussian gate (σ = 0.2): the kernel reads 9.7e-8 on
/// these columns and 2.55e-7 over the whole corpus, a floor its table
/// sets, not its orders (`unn_prob::profile`, "Accuracy").
const GAUSSIAN_BOUND: f64 = 5e-7;

/// The column kernel's error against the reference Eq. 5, each pdf on its
/// own profiled table.
#[test]
fn corpus_columns_agree_with_the_reference_eq5() {
    let columns: Vec<Vec<f64>> = corpus()
        .iter()
        .flat_map(|(_, engine)| {
            (0..SAMPLES)
                .step_by(REFERENCE_STRIDE)
                .map(|k| band(engine, k).into_iter().map(|(_, d)| d).collect())
        })
        .collect();
    let gaussian = PdfKind::TruncatedGaussian {
        radius: RADIUS,
        sigma: 0.2,
    };
    let pdfs: [(&str, Box<dyn RadialPdf>, f64); 2] = [
        (
            "uniform",
            Box::new(UniformDifferencePdf::new(RADIUS)),
            UNIFORM_BOUND,
        ),
        (
            "truncated Gaussian",
            gaussian.convolve_with(&gaussian),
            GAUSSIAN_BOUND,
        ),
    ];
    for (name, pdf, bound) in pdfs {
        let profile = ProfiledPdf::of(pdf.as_ref());
        let mut worst = 0.0f64;
        for dists in &columns {
            let (mut got, mut blocks) = (Vec::new(), BlockList::default());
            nn_probabilities_profiled(
                &profile,
                dists,
                &BlockList::default(),
                &mut blocks,
                &mut got,
            );
            let want = reference::nn_probabilities(&profile, dists);
            for (got, want) in got.iter().zip(want) {
                worst = worst.max((got - want).abs());
            }
        }
        assert!(
            worst <= bound,
            "{name}: max |ΔP^NN| = {worst:e} > {bound:e}"
        );
    }
}
