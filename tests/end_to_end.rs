//! End-to-end pipeline tests on generated workloads: generator →
//! difference trajectories → envelopes (three algorithms) → band →
//! queries, validated against brute-force oracles.

use uncertain_nn::core::oracle;
use uncertain_nn::core::query::QueryEngine;
use uncertain_nn::core::{lower_envelope, lower_envelope_naive, lower_envelope_parallel};
use uncertain_nn::prelude::*;

fn setup(n: usize, seed: u64) -> (Vec<Trajectory>, TimeInterval) {
    let cfg = WorkloadConfig {
        num_objects: n,
        seed,
        ..WorkloadConfig::default()
    };
    (generate(&cfg), TimeInterval::new(0.0, 60.0))
}

#[test]
fn three_envelope_algorithms_agree() {
    let (trs, w) = setup(60, 11);
    let fs = difference_distances(&trs[0], &trs, &w).unwrap();
    let dc = lower_envelope(&fs);
    let naive = lower_envelope_naive(&fs);
    let par = lower_envelope_parallel(&fs, 8);
    assert_eq!(dc, par, "parallel must be bit-identical to sequential");
    for k in 0..=1200 {
        let t = k as f64 * 0.05;
        let a = dc.eval(t).unwrap();
        let b = naive.eval(t).unwrap();
        assert!((a - b).abs() < 1e-7, "t={t}: dc {a} vs naive {b}");
    }
}

#[test]
fn envelope_is_true_minimum_on_workload() {
    let (trs, w) = setup(80, 23);
    let fs = difference_distances(&trs[3], &trs, &w).unwrap();
    let le = lower_envelope(&fs);
    for k in 0..=600 {
        let t = k as f64 * 0.1;
        let (min, owner) = oracle::min_at(&fs, t).unwrap();
        let got = le.eval(t).unwrap();
        assert!((got - min).abs() < 1e-7, "t={t}: {got} vs oracle {min}");
        // At non-boundary instants the owners agree too.
        if (got - min).abs() < 1e-9 {
            let le_owner = le.owner_at(t).unwrap();
            let le_val = fs
                .iter()
                .find(|f| f.owner() == le_owner)
                .unwrap()
                .eval(t)
                .unwrap();
            assert!(
                (le_val - min).abs() < 1e-7,
                "owner {le_owner} vs {owner} at {t}"
            );
        }
    }
}

#[test]
fn envelope_answer_tiles_window_without_repeats() {
    let (trs, w) = setup(50, 31);
    let fs = difference_distances(&trs[7], &trs, &w).unwrap();
    let le = lower_envelope(&fs);
    let ans = le.answer_sequence();
    assert!((ans.first().unwrap().1.start() - w.start()).abs() < 1e-9);
    assert!((ans.last().unwrap().1.end() - w.end()).abs() < 1e-9);
    for pair in ans.windows(2) {
        assert!((pair[0].1.end() - pair[1].1.start()).abs() < 1e-9);
        assert_ne!(pair[0].0, pair[1].0, "adjacent answer entries must differ");
    }
}

#[test]
fn window_fraction_matches_oracle_on_workload() {
    let (trs, w) = setup(40, 5);
    let fs = difference_distances(&trs[0], &trs, &w).unwrap();
    let radius = 0.5;
    let engine = QueryEngine::new(trs[0].oid(), fs.clone(), radius);
    for idx in [0usize, 5, 11, 19, 33] {
        let oid = fs[idx].owner();
        let frac = window_fraction(&engine.nonzero_intervals(oid).unwrap(), engine.window());
        let sampled = oracle::inside_fraction(&fs, oid, 4.0 * radius, w, 4000).unwrap();
        assert!(
            (frac - sampled).abs() < 0.01,
            "{oid}: engine {frac} vs oracle {sampled}"
        );
    }
}

#[test]
fn rank_intervals_match_oracle_on_workload() {
    let (trs, w) = setup(30, 77);
    let fs = difference_distances(&trs[0], &trs, &w).unwrap();
    let radius = 0.5;
    let engine = QueryEngine::new(trs[0].oid(), fs.clone(), radius);
    for idx in [1usize, 8, 15] {
        let oid = fs[idx].owner();
        for k in [1usize, 2, 3] {
            let frac = window_fraction(&engine.rank_intervals(oid, k).unwrap(), engine.window());
            let sampled = oracle::rank_fraction(&fs, oid, k, 4.0 * radius, w, 3000).unwrap();
            assert!(
                (frac - sampled).abs() < 0.02,
                "{oid} k={k}: engine {frac} vs oracle {sampled}"
            );
        }
    }
}

#[test]
fn uq31_returns_exactly_the_band_entrants() {
    let (trs, w) = setup(45, 13);
    let fs = difference_distances(&trs[2], &trs, &w).unwrap();
    let radius = 0.5;
    let engine = QueryEngine::new(trs[2].oid(), fs.clone(), radius);
    let result: Vec<Oid> = engine.uq31_all().into_iter().map(|(o, _)| o).collect();
    for f in &fs {
        let sampled = oracle::inside_fraction(&fs, f.owner(), 4.0 * radius, w, 2000).unwrap();
        if sampled > 0.001 {
            assert!(
                result.contains(&f.owner()),
                "{} inside {sampled:.3} of the window but missing from UQ31",
                f.owner()
            );
        }
        if sampled == 0.0 {
            // Allow boundary-grazing objects to appear (measure-zero
            // intersections); but anything the engine returns must be
            // plausible per the clearance.
        }
    }
}

#[test]
fn server_pipeline_on_generated_workload() {
    let cfg = WorkloadConfig {
        num_objects: 120,
        seed: 99,
        ..WorkloadConfig::default()
    };
    let server = ModServer::new();
    server.register_all(generate_uncertain(&cfg, 0.5)).unwrap();
    let ans = server
        .continuous_nn(Oid(0), TimeInterval::new(0.0, 60.0))
        .unwrap();
    assert!(!ans.sequence.is_empty());
    assert_eq!(ans.stats.candidates, 119);
    assert!(ans.stats.kept <= ans.stats.candidates);
    // The answer owner at each midpoint is the true nearest object.
    let snapshot = server.store().snapshot();
    for (oid, iv) in ans.sequence.iter().take(10) {
        let t = iv.midpoint();
        let qpos = snapshot
            .iter()
            .find(|tr| tr.oid() == Oid(0))
            .unwrap()
            .expected_location(t)
            .unwrap();
        let mut best = (f64::INFINITY, Oid(u64::MAX));
        for tr in snapshot.iter() {
            if tr.oid() == Oid(0) {
                continue;
            }
            let d = tr.expected_location(t).unwrap().distance(qpos);
            if d < best.0 {
                best = (d, tr.oid());
            }
        }
        assert_eq!(*oid, best.1, "at t={t}");
    }
}
