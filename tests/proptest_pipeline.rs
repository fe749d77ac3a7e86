//! Property-based tests over randomly generated trajectory
//! configurations: the envelope algorithms, the band, and the queries
//! must agree with brute-force references on arbitrary inputs, not just
//! the curated unit-test scenarios.

use proptest::prelude::*;
use uncertain_nn::core::oracle;
use uncertain_nn::core::query::QueryEngine;
use uncertain_nn::core::{lower_envelope, lower_envelope_naive};
use uncertain_nn::prelude::*;
use uncertain_nn::traj::DistanceFunction;

/// Strategy: a set of 2..=10 trajectories, each a 2-4 waypoint polyline
/// over [0, 30] inside a 50×50 region, with shared sample times (the
/// synchronized-epoch model of the paper).
fn arb_population() -> impl Strategy<Value = Vec<Trajectory>> {
    let count = 3usize..=10;
    count.prop_flat_map(move |n| {
        prop::collection::vec(
            prop::collection::vec((0.0..50.0f64, 0.0..50.0f64), 4), // 4 waypoints = 3 legs
            n,
        )
        .prop_map(|objs| {
            objs.into_iter()
                .enumerate()
                .map(|(i, wps)| {
                    let samples: Vec<(f64, f64, f64)> = wps
                        .into_iter()
                        .enumerate()
                        .map(|(k, (x, y))| (x, y, k as f64 * 10.0))
                        .collect();
                    Trajectory::from_triples(Oid(i as u64), &samples).unwrap()
                })
                .collect()
        })
    })
}

fn build_fs(trs: &[Trajectory]) -> Vec<DistanceFunction> {
    difference_distances(&trs[0], trs, &TimeInterval::new(0.0, 30.0)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn envelope_equals_pointwise_minimum(trs in arb_population()) {
        let fs = build_fs(&trs);
        let le = lower_envelope(&fs);
        for k in 0..=300 {
            let t = k as f64 * 0.1;
            let (min, _) = oracle::min_at(&fs, t).unwrap();
            let got = le.eval(t).unwrap();
            prop_assert!((got - min).abs() < 1e-7, "t={t}: {got} vs {min}");
        }
    }

    #[test]
    fn naive_and_divide_conquer_agree(trs in arb_population()) {
        let fs = build_fs(&trs);
        let a = lower_envelope(&fs);
        let b = lower_envelope_naive(&fs);
        for k in 0..=300 {
            let t = k as f64 * 0.1;
            prop_assert!(
                (a.eval(t).unwrap() - b.eval(t).unwrap()).abs() < 1e-7,
                "t={t}"
            );
        }
    }

    #[test]
    fn envelope_piece_count_within_davenport_schinzel(trs in arb_population()) {
        let fs = build_fs(&trs);
        let le = lower_envelope(&fs);
        // λ₂ bound per single-segment family, times the per-function
        // segment count (3 legs), plus slack for the epoch breakpoints.
        let n = fs.len();
        let segs = 3;
        prop_assert!(
            le.len() <= segs * (2 * n - 1) + segs,
            "{} pieces for {n} functions",
            le.len()
        );
    }

    #[test]
    fn inside_band_fraction_matches_sampling(trs in arb_population()) {
        let fs = build_fs(&trs);
        let radius = 0.5;
        let engine = QueryEngine::new(trs[0].oid(), fs.clone(), radius);
        let w = TimeInterval::new(0.0, 30.0);
        for f in fs.iter().take(3) {
            let frac = window_fraction(&engine.nonzero_intervals(f.owner()).unwrap(), engine.window());
            let sampled =
                oracle::inside_fraction(&fs, f.owner(), 4.0 * radius, w, 1500)
                    .unwrap();
            prop_assert!(
                (frac - sampled).abs() < 0.02,
                "{}: engine {frac} vs sampled {sampled}",
                f.owner()
            );
        }
    }

    #[test]
    fn uq11_iff_positive_fraction(trs in arb_population()) {
        let fs = build_fs(&trs);
        let engine = QueryEngine::new(trs[0].oid(), fs.clone(), 0.5);
        for f in &fs {
            let exists = engine.uq11_exists(f.owner()).unwrap();
            let frac = window_fraction(&engine.nonzero_intervals(f.owner()).unwrap(), engine.window());
            // exists implies measurable fraction can still be ~0 at a
            // tangency; allow the one-sided implication both ways with a
            // tolerance window.
            if frac > 1e-6 {
                prop_assert!(exists, "{} has frac {frac} but not exists", f.owner());
            }
            if !exists {
                prop_assert!(frac < 1e-6, "{} not exists but frac {frac}", f.owner());
            }
        }
    }
}
