//! Degenerate-configuration and failure-injection tests for the core
//! algorithms: exact ties, unreachable candidates, boundary-grazing
//! windows, and single-candidate MODs.

use unn_core::algorithms::{lower_envelope, lower_envelope_parallel};
use unn_core::band::{inside_band_intervals, prune_by_band};
use unn_core::ipac::{build_ipac_tree, IpacConfig};
use unn_core::naive::lower_envelope_naive;
use unn_core::query::{window_fraction, Quantifier, QueryEngine};
use unn_geom::hyperbola::Hyperbola;
use unn_geom::interval::TimeInterval;
use unn_geom::point::Vec2;
use unn_traj::distance::DistanceFunction;
use unn_traj::trajectory::Oid;

fn flyby(owner: u64, x0: f64, y: f64, v: f64, w: TimeInterval) -> DistanceFunction {
    DistanceFunction::single(
        Oid(owner),
        w,
        Hyperbola::from_relative_motion(Vec2::new(x0, y), Vec2::new(v, 0.0), 0.0),
    )
}

/// `UQ12(∀t)`: `oid`'s non-zero-probability intervals cover the window.
fn always(engine: &QueryEngine, oid: u64) -> Option<bool> {
    Some(Quantifier::Forall.holds(&engine.nonzero_intervals(Oid(oid))?, engine.window()))
}

/// `UQ13`: the fraction of the window with non-zero probability.
fn fraction(engine: &QueryEngine, oid: u64) -> Option<f64> {
    Some(window_fraction(
        &engine.nonzero_intervals(Oid(oid))?,
        engine.window(),
    ))
}

#[test]
fn identical_distance_functions_resolve_deterministically() {
    let w = TimeInterval::new(0.0, 10.0);
    // Three *identical* candidates (exact ties everywhere): the envelope
    // must pick the smallest oid and remain maximal (one piece).
    let fs = vec![
        flyby(7, -5.0, 1.0, 1.0, w),
        flyby(3, -5.0, 1.0, 1.0, w),
        flyby(5, -5.0, 1.0, 1.0, w),
    ];
    let le = lower_envelope(&fs);
    assert_eq!(le.len(), 1, "{le:?}");
    assert_eq!(le.owner_at(5.0), Some(Oid(3)));
    // Parallel and naive agree on the winner.
    assert_eq!(lower_envelope_parallel(&fs, 1), le);
    let naive = lower_envelope_naive(&fs);
    assert_eq!(naive.owner_at(5.0), Some(Oid(3)));
}

#[test]
fn all_candidates_tie_in_band() {
    let w = TimeInterval::new(0.0, 10.0);
    let fs = vec![flyby(1, -5.0, 1.0, 1.0, w), flyby(2, -5.0, 1.0, 1.0, w)];
    let engine = QueryEngine::new(Oid(0), fs, 0.5);
    // Both are always inside each other's band (distance difference 0).
    assert_eq!(always(&engine, 1), Some(true));
    assert_eq!(always(&engine, 2), Some(true));
    assert_eq!(fraction(&engine, 1), Some(1.0));
}

#[test]
fn single_candidate_is_always_the_answer() {
    let w = TimeInterval::new(0.0, 5.0);
    let fs = vec![flyby(9, 3.0, 4.0, 0.25, w)];
    let engine = QueryEngine::new(Oid(0), fs, 1.0);
    assert_eq!(engine.uq11_exists(Oid(9)), Some(true));
    assert_eq!(always(&engine, 9), Some(true));
    assert_eq!(engine.continuous_nn_answer().len(), 1);
    let tree = engine.ipac_tree(0);
    assert_eq!(tree.depth(), 1);
    assert_eq!(tree.node_count(), 1);
}

#[test]
fn distant_swarm_prunes_to_local_cluster() {
    let w = TimeInterval::new(0.0, 10.0);
    let mut fs = vec![flyby(1, -5.0, 1.0, 1.0, w), flyby(2, -3.0, 1.5, 1.0, w)];
    for k in 0..50 {
        fs.push(flyby(100 + k, 0.0, 200.0 + k as f64, 0.0, w));
    }
    let le = lower_envelope(&fs);
    let (kept, stats) = prune_by_band(&fs, &le, 0.5);
    assert_eq!(kept, vec![0, 1]);
    assert_eq!(stats.total, 52);
    assert_eq!(stats.kept, 2);
    // The IPAC tree only contains the two local objects.
    let tree = build_ipac_tree(Oid(0), &fs, &IpacConfig::unbounded(0.5));
    let (nodes, _) = tree.to_dag();
    assert!(nodes.iter().all(|n| n.owner == Oid(1) || n.owner == Oid(2)));
}

#[test]
fn window_grazing_tangency() {
    // Candidate tangent to the band boundary exactly at the window start.
    let w = TimeInterval::new(0.0, 10.0);
    let near = flyby(1, 0.0, 1.0, 0.0, w); // constant distance 1
                                           // Band with r = 0.5 -> delta = 2; boundary at distance 3.
    let tangent = flyby(2, -5.0, 3.0, 1.0, w); // dips to exactly 3 at t=5
    let fs = vec![near, tangent];
    let engine = QueryEngine::new(Oid(0), fs, 0.5);
    // The tangent candidate touches the band at one instant: UQ11 is
    // true (closed band), but the covered fraction is ~zero.
    assert_eq!(engine.uq11_exists(Oid(2)), Some(true));
    let frac = fraction(&engine, 2).unwrap();
    assert!(frac < 0.01, "tangency should cover ~no time, got {frac}");
}

#[test]
fn inside_intervals_with_zero_delta_are_envelope_ownership() {
    let w = TimeInterval::new(0.0, 10.0);
    let fs = vec![flyby(1, -5.0, 1.0, 1.0, w), flyby(2, -2.0, 2.0, 1.0, w)];
    let le = lower_envelope(&fs);
    for f in &fs {
        let inside = inside_band_intervals(f, &le, 0.0);
        // With delta = 0 the inside set is exactly where the function
        // realizes the envelope (up to tangency instants).
        for (oid, iv) in le.answer_sequence() {
            let probe = iv.midpoint();
            assert_eq!(
                inside.covers(probe),
                oid == f.owner(),
                "{} at {probe}",
                f.owner()
            );
        }
    }
}

#[test]
fn crossing_query_window_boundaries() {
    // Functions that cross exactly at the window edges must not produce
    // degenerate pieces or panics.
    let w = TimeInterval::new(0.0, 4.0);
    let a = flyby(1, -2.0, 0.5, 1.0, w); // min at t=2
    let b = flyby(2, 2.0, 0.5, 1.0, w); // moving away; equals a at t=0
    let fs = vec![a, b];
    let le = lower_envelope(&fs);
    assert!((le.span().start() - 0.0).abs() < 1e-12);
    assert!((le.span().end() - 4.0).abs() < 1e-12);
    le.validate_against(&fs, 16, 1e-9).unwrap();
}

#[test]
fn very_small_and_large_radii() {
    let w = TimeInterval::new(0.0, 10.0);
    let fs = vec![flyby(1, -5.0, 1.0, 1.0, w), flyby(2, -2.0, 8.0, 1.0, w)];
    // Tiny radius: only near-envelope objects stay.
    let tiny = QueryEngine::new(Oid(0), fs.clone(), 1e-6);
    assert_eq!(tiny.uq11_exists(Oid(2)), Some(false));
    // Huge radius: everything stays, everywhere.
    let huge = QueryEngine::new(Oid(0), fs, 1e3);
    assert_eq!(always(&huge, 2), Some(true));
}
