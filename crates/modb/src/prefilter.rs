//! Coarse index-level prefiltering for continuous NN queries.
//!
//! §2.2-I of the paper prunes objects whose closest possible distance
//! `R_min` exceeds the farthest possible distance `R_max` of the closest
//! object (Figure 4) — an *instantaneous* rule. This module lifts it to
//! *epoch* granularity using segment bounding boxes, so a MOD can discard
//! most of its population before building difference trajectories at all
//! (the role the paper's §7 assigns to U-tree-style access methods):
//!
//! * per epoch `e`, `U_e = min_i maxdist(box_i, box_q)` upper-bounds the
//!   envelope everywhere in `e` (a min of maxima dominates the max of
//!   minima);
//! * object `i` can have non-zero probability in `e` only if
//!   `mindist(box_i, box_q) ≤ U_e + 4r`;
//! * objects failing the test in *every* epoch are discarded.
//!
//! The filter is **conservative**: it never discards an object the exact
//! `4r`-band pruning would keep (asserted by the integration tests), so
//! building the envelope from the prefiltered set yields identical
//! query answers.

use crate::index::bbox::Aabb3;
use unn_geom::interval::TimeInterval;
use unn_traj::trajectory::{Oid, Trajectory};
use unn_traj::uncertain::UncertainTrajectory;

/// The spatial box of a trajectory's expected location over `[t0, t1]`.
pub(crate) fn corridor_box(tr: &Trajectory, t0: f64, t1: f64) -> Aabb3 {
    // The expected location over an interval is contained in the box of
    // the interval's endpoint positions and any interior vertices.
    let mut min = [f64::INFINITY; 3];
    let mut max = [f64::NEG_INFINITY; 3];
    let mut add = |x: f64, y: f64| {
        min[0] = min[0].min(x);
        min[1] = min[1].min(y);
        max[0] = max[0].max(x);
        max[1] = max[1].max(y);
    };
    let p0 = tr.position_clamped(t0);
    let p1 = tr.position_clamped(t1);
    add(p0.x, p0.y);
    add(p1.x, p1.y);
    for s in tr.samples() {
        if s.time > t0 && s.time < t1 {
            add(s.position.x, s.position.y);
        }
    }
    min[2] = t0;
    max[2] = t1;
    Aabb3::new(min, max)
}

/// Epoch-box prefilter: returns the object ids (query excluded) that
/// *might* have non-zero probability of being the NN of `query_oid`
/// somewhere in `window`, by the conservative min/max box distance rule.
///
/// `epochs` controls the temporal granularity (more epochs = tighter
/// filter, more box work). Objects and query must cover the window.
pub fn epoch_box_prefilter(
    trs: &[UncertainTrajectory],
    query_oid: Oid,
    window: TimeInterval,
    radius: f64,
    epochs: usize,
) -> Vec<Oid> {
    let epochs = epochs.max(1);
    let query = trs
        .iter()
        .find(|t| t.oid() == query_oid)
        .expect("query object present");
    let others: Vec<&UncertainTrajectory> = trs.iter().filter(|t| t.oid() != query_oid).collect();
    if others.is_empty() {
        return vec![];
    }
    let delta = 4.0 * radius;
    let mut keep = vec![false; others.len()];
    let step = window.len() / epochs as f64;
    for e in 0..epochs {
        let t0 = window.start() + e as f64 * step;
        let t1 = (t0 + step).min(window.end());
        let qbox = corridor_box(query.trajectory(), t0, t1);
        // Upper bound on the envelope within the epoch.
        let mut upper = f64::INFINITY;
        let boxes: Vec<Aabb3> = others
            .iter()
            .map(|o| corridor_box(o.trajectory(), t0, t1))
            .collect();
        for b in &boxes {
            upper = upper.min(b.max_dist_xy(&qbox));
        }
        for (i, b) in boxes.iter().enumerate() {
            if !keep[i] && b.min_dist_xy(&qbox) <= upper + delta {
                keep[i] = true;
            }
        }
    }
    others
        .iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(o, _)| o.oid())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_traj::generator::{generate_uncertain, WorkloadConfig};
    use unn_traj::trajectory::Trajectory;

    fn tr(oid: u64, pts: &[(f64, f64, f64)]) -> UncertainTrajectory {
        UncertainTrajectory::with_uniform_pdf(Trajectory::from_triples(Oid(oid), pts).unwrap(), 0.5)
            .unwrap()
    }

    #[test]
    fn obvious_cases() {
        let trs = vec![
            tr(0, &[(0.0, 0.0, 0.0), (10.0, 0.0, 10.0)]),
            tr(1, &[(0.0, 1.0, 0.0), (10.0, 1.0, 10.0)]), // near
            tr(2, &[(0.0, 500.0, 0.0), (10.0, 500.0, 10.0)]), // far
        ];
        let kept = epoch_box_prefilter(&trs, Oid(0), TimeInterval::new(0.0, 10.0), 0.5, 4);
        assert!(kept.contains(&Oid(1)));
        assert!(!kept.contains(&Oid(2)), "{kept:?}");
    }

    #[test]
    fn prefilter_is_conservative_wrt_exact_pruning() {
        // Everything the exact band pruning keeps must be prefiltered in.
        let trs = generate_uncertain(&WorkloadConfig::with_objects(80, 19), 0.5);
        let window = TimeInterval::new(0.0, 60.0);
        let raw: Vec<Trajectory> = trs.iter().map(|t| t.trajectory().clone()).collect();
        let fs = unn_traj::difference::difference_distances(&raw[0], &raw, &window).unwrap();
        let le = unn_core::algorithms::lower_envelope(&fs);
        let (kept_exact, _) = unn_core::band::prune_by_band(&fs, &le, 0.5);
        let exact_oids: Vec<Oid> = kept_exact.iter().map(|&i| fs[i].owner()).collect();
        for epochs in [1usize, 6, 24] {
            let pre = epoch_box_prefilter(&trs, Oid(0), window, 0.5, epochs);
            for oid in &exact_oids {
                assert!(
                    pre.contains(oid),
                    "epochs={epochs}: exact-kept {oid} missing from prefilter"
                );
            }
        }
    }

    #[test]
    fn more_epochs_filter_no_less_strictly_than_one() {
        let trs = generate_uncertain(&WorkloadConfig::with_objects(60, 5), 0.5);
        let window = TimeInterval::new(0.0, 60.0);
        let coarse = epoch_box_prefilter(&trs, Oid(0), window, 0.5, 1);
        let fine = epoch_box_prefilter(&trs, Oid(0), window, 0.5, 12);
        // Finer epochs cannot be *looser* in aggregate (they may keep a
        // few different borderline objects, but in practice the set
        // shrinks); assert the coarse filter keeps at least 90% as many.
        assert!(
            fine.len() <= coarse.len() + coarse.len() / 10 + 1,
            "fine {} vs coarse {}",
            fine.len(),
            coarse.len()
        );
    }

    #[test]
    fn empty_without_candidates() {
        let trs = vec![tr(0, &[(0.0, 0.0, 0.0), (1.0, 1.0, 10.0)])];
        let kept = epoch_box_prefilter(&trs, Oid(0), TimeInterval::new(0.0, 10.0), 0.5, 4);
        assert!(kept.is_empty());
    }
}
