//! The column kernel on real columns: probability rows of four query
//! objects on the 600-object §5 workload (the corpus
//! `examples/kernel_digest.rs` hashes).
//!
//! Two things a change of arithmetic inside the kernel could break
//! without any bit-identity suite noticing, because those compare the
//! kernel with itself: a column must still be a probability distribution
//! (Eq. 5 sums to one over the in-band candidates), and a row must hold a
//! value at exactly the probes where its object is inside the `4r` band —
//! membership is the band rule's business, never the kernel's.

use std::collections::BTreeSet;
use std::sync::Arc;
use uncertain_nn::core::probrows::probe_time;
use uncertain_nn::prelude::*;
use uncertain_nn::prob::UniformDifferencePdf;

const RADIUS: f64 = 0.5;
const SAMPLES: u32 = 128;

#[test]
fn corpus_columns_sum_to_one_and_rows_hold_exactly_the_in_band_probes() {
    let fleet = generate_uncertain(&WorkloadConfig::with_objects(600, 0xEDB7_2009), RADIUS);
    let snapshot = Arc::new(QuerySnapshot::new(1, fleet));
    let kernel = ColumnKernel::new(&UniformDifferencePdf::new(RADIUS));
    let window = TimeInterval::new(0.0, 60.0);
    for query in [0u64, 150, 300, 450] {
        let engine = QueryPlanner::default()
            .plan(Arc::clone(&snapshot), Oid(query), window)
            .unwrap()
            .build_engine()
            .unwrap();
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
                (sum - 1.0).abs() < 1e-4,
                "query {query}, probe {k}: Σ P^NN = {sum}"
            );
        }

        // The band rule, restated from the paper: d(t) ≤ LE₁(t) + 4r.
        let mut in_band = BTreeSet::new();
        for k in 0..SAMPLES {
            let t = probe_time(window, SAMPLES, k);
            let le = engine.envelope().eval(t).expect("probe inside the window");
            for f in engine.functions() {
                if f.eval(t).is_some_and(|d| d <= le + 4.0 * RADIUS) {
                    in_band.insert((f.owner(), k));
                }
            }
        }
        assert_eq!(members, in_band, "query {query}");
    }
}
