//! **Instantaneous** probabilistic NN queries (§2.2 of the paper) as a
//! first-class snapshot API.
//!
//! The continuous machinery answers "who can be the NN during `[tb, te]`";
//! this module answers the §2.2 question at one instant `t`:
//!
//! 1. expected locations are materialized at `t`;
//! 2. **Figure 4's pruning rule** discards every candidate whose closest
//!    possible distance exceeds the farthest possible distance of the
//!    closest candidate (`R_min_i > R_max`), using the *convolved* support
//!    `r_i + r_q` per §3.1 — so the rule is valid for an uncertain query
//!    and for heterogeneous radii;
//! 3. the survivors' `P^NN` values are computed with the Eq. 5 evaluator
//!    over the exact disk-difference pdfs.
//!
//! [`instantaneous_nn`] scans the whole snapshot, which is also what
//! `ModServer::instantaneous_nn` serves.

use std::fmt;
use unn_geom::point::Point2;
use unn_prob::disk_diff::DiskDifferencePdf;
use unn_prob::nn_prob::{nn_probabilities, NnCandidate, NnConfig};
use unn_traj::trajectory::Oid;
use unn_traj::uncertain::UncertainTrajectory;

/// Errors raised by instantaneous queries.
#[derive(Debug, Clone, PartialEq)]
pub enum InstantError {
    /// The query object is not in the collection.
    UnknownQuery(Oid),
    /// The instant lies outside the query trajectory's time domain.
    OutsideDomain {
        /// The probed instant.
        t: f64,
    },
    /// No other object covers the instant.
    NoCandidates,
}

impl fmt::Display for InstantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstantError::UnknownQuery(oid) => write!(f, "unknown query object {oid}"),
            InstantError::OutsideDomain { t } => {
                write!(f, "instant {t} outside the query trajectory's domain")
            }
            InstantError::NoCandidates => write!(f, "no candidate covers the instant"),
        }
    }
}

impl std::error::Error for InstantError {}

/// The answer to an instantaneous probabilistic NN query.
#[derive(Debug, Clone)]
pub struct InstantRanking {
    /// The probed instant.
    pub t: f64,
    /// `(object, P^NN)` rows, descending probability; zero-probability
    /// (pruned) objects are omitted.
    pub rows: Vec<(Oid, f64)>,
    /// Candidates examined (covering the instant, query excluded).
    pub examined: usize,
    /// Candidates discarded by the Figure 4 `R_min/R_max` rule.
    pub pruned: usize,
}

impl InstantRanking {
    /// The most probable nearest neighbor, if any.
    pub fn top(&self) -> Option<(Oid, f64)> {
        self.rows.first().copied()
    }

    /// The probability of one object (zero when pruned/absent).
    pub fn probability_of(&self, oid: Oid) -> f64 {
        self.rows
            .iter()
            .find(|(o, _)| *o == oid)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    }
}

/// Evaluates the §2.2 instantaneous NN query over `trs` at instant `t` by
/// a full scan. Supports heterogeneous radii (the slack of candidate `i`
/// is `r_i + r_q`).
///
/// # Errors
///
/// Fails when `query` is absent, `t` is outside the query's domain, or no
/// candidate covers `t`.
pub fn instantaneous_nn(
    trs: &[UncertainTrajectory],
    query: Oid,
    t: f64,
) -> Result<InstantRanking, InstantError> {
    let q = trs
        .iter()
        .find(|tr| tr.oid() == query)
        .ok_or(InstantError::UnknownQuery(query))?;
    let c_q = q
        .expected_location(t)
        .ok_or(InstantError::OutsideDomain { t })?;
    let candidates: Vec<(&UncertainTrajectory, Point2)> = trs
        .iter()
        .filter(|tr| tr.oid() != query)
        .filter_map(|tr| tr.expected_location(t).map(|c| (tr, c)))
        .collect();
    rank(&candidates, c_q, q.radius(), t)
}

/// Figure 4 pruning + Eq. 5 over the survivors.
fn rank(
    candidates: &[(&UncertainTrajectory, Point2)],
    c_q: Point2,
    r_q: f64,
    t: f64,
) -> Result<InstantRanking, InstantError> {
    if candidates.is_empty() {
        return Err(InstantError::NoCandidates);
    }
    // Distances and per-candidate convolved supports.
    let dists: Vec<f64> = candidates.iter().map(|(_, c)| (*c - c_q).norm()).collect();
    let slacks: Vec<f64> = candidates.iter().map(|(tr, _)| tr.radius() + r_q).collect();
    // Figure 4: R_max = the farthest point of the closest disk; anything
    // whose closest point is beyond it can never be the NN.
    let r_max = dists
        .iter()
        .zip(&slacks)
        .map(|(d, s)| d + s)
        .fold(f64::INFINITY, f64::min);
    let survivors: Vec<usize> = (0..candidates.len())
        .filter(|&i| dists[i] - slacks[i] <= r_max)
        .collect();
    let pruned = candidates.len() - survivors.len();
    // Eq. 5 over the survivors with exact per-pair difference pdfs,
    // constructed once per distinct candidate radius (a homogeneous fleet
    // shares a single pdf).
    let mut pdf_cache: Vec<(f64, DiskDifferencePdf)> = Vec::new();
    let pdf_idx: Vec<usize> = survivors
        .iter()
        .map(|&i| {
            let r_i = candidates[i].0.radius();
            match pdf_cache.iter().position(|(r, _)| (r - r_i).abs() < 1e-12) {
                Some(k) => k,
                None => {
                    pdf_cache.push((r_i, DiskDifferencePdf::new(r_i, r_q)));
                    pdf_cache.len() - 1
                }
            }
        })
        .collect();
    let nn_cands: Vec<NnCandidate> = survivors
        .iter()
        .zip(&pdf_idx)
        .map(|(&i, &k)| NnCandidate {
            center_distance: dists[i],
            pdf: &pdf_cache[k].1,
        })
        .collect();
    let probs = nn_probabilities(&nn_cands, NnConfig::default());
    let mut rows: Vec<(Oid, f64)> = survivors
        .iter()
        .zip(&probs)
        .filter(|(_, p)| **p > 0.0)
        .map(|(&i, &p)| (candidates[i].0.oid(), p))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Ok(InstantRanking {
        t,
        rows,
        examined: candidates.len(),
        pruned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_traj::generator::{generate, WorkloadConfig};
    use unn_traj::trajectory::Trajectory;

    fn fleet(radius: f64) -> Vec<UncertainTrajectory> {
        let cfg = WorkloadConfig::with_objects(80, 99);
        generate(&cfg)
            .into_iter()
            .map(|tr| UncertainTrajectory::with_uniform_pdf(tr, radius).unwrap())
            .collect()
    }

    #[test]
    fn ranking_is_a_distribution_sorted_descending() {
        let trs = fleet(0.5);
        let ans = instantaneous_nn(&trs, Oid(0), 30.0).unwrap();
        let sum: f64 = ans.rows.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum {sum}");
        for w in ans.rows.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(ans.examined, 79);
        assert!(ans.pruned > 0, "Figure 4 should prune most of the fleet");
        assert!(ans.pruned < ans.examined);
    }

    #[test]
    fn theorem_1_ordering_for_equal_radii() {
        // Probability order == center-distance order (Theorem 1).
        let trs = fleet(0.5);
        let t = 30.0;
        let ans = instantaneous_nn(&trs, Oid(0), t).unwrap();
        let c_q = trs[0].expected_location(t).unwrap();
        let mut prev = 0.0;
        for (oid, _) in &ans.rows {
            let c = trs
                .iter()
                .find(|tr| tr.oid() == *oid)
                .unwrap()
                .expected_location(t)
                .unwrap();
            let d = (c - c_q).norm();
            assert!(d + 1e-9 >= prev, "{oid}: {d} < {prev}");
            prev = d;
        }
    }

    #[test]
    fn heterogeneous_radii_are_supported() {
        let cfg = WorkloadConfig::with_objects(30, 5);
        let trs: Vec<UncertainTrajectory> = generate(&cfg)
            .into_iter()
            .enumerate()
            .map(|(k, tr)| {
                let r = if k % 2 == 0 { 0.2 } else { 1.2 };
                UncertainTrajectory::with_uniform_pdf(tr, r).unwrap()
            })
            .collect();
        let ans = instantaneous_nn(&trs, Oid(0), 30.0).unwrap();
        let sum: f64 = ans.rows.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-2, "sum {sum}");
    }

    #[test]
    fn agrees_with_hetero_engine_instant() {
        // Cross-validation against the continuous hetero machinery.
        use unn_core::hetero::{HeteroCandidate, HeteroEngine};
        use unn_geom::interval::TimeInterval;
        use unn_traj::difference::difference_distance;
        let cfg = WorkloadConfig::with_objects(20, 11);
        let trs: Vec<UncertainTrajectory> = generate(&cfg)
            .into_iter()
            .enumerate()
            .map(|(k, tr)| {
                let r = if k % 3 == 0 { 0.3 } else { 0.9 };
                UncertainTrajectory::with_uniform_pdf(tr, r).unwrap()
            })
            .collect();
        let w = TimeInterval::new(0.0, 60.0);
        let q = &trs[0];
        let cands: Vec<HeteroCandidate> = trs
            .iter()
            .skip(1)
            .map(|tr| HeteroCandidate {
                f: difference_distance(q.trajectory(), tr.trajectory(), &w).unwrap(),
                radius: tr.radius(),
            })
            .collect();
        let engine = HeteroEngine::new(q.oid(), cands, q.radius());
        let t = 30.0;
        let snapshot = instantaneous_nn(&trs, q.oid(), t).unwrap();
        let continuous = engine.probabilities_at(t).unwrap();
        for (oid, p) in &continuous {
            let sp = snapshot.probability_of(*oid);
            assert!((sp - p).abs() < 1e-6, "{oid}: snapshot {sp} vs engine {p}");
        }
    }

    #[test]
    fn error_paths() {
        let trs = fleet(0.5);
        assert!(matches!(
            instantaneous_nn(&trs, Oid(999), 30.0),
            Err(InstantError::UnknownQuery(_))
        ));
        assert!(matches!(
            instantaneous_nn(&trs, Oid(0), 120.0),
            Err(InstantError::OutsideDomain { .. })
        ));
        let solo = vec![UncertainTrajectory::with_uniform_pdf(
            Trajectory::from_triples(Oid(7), &[(0.0, 0.0, 0.0), (1.0, 0.0, 1.0)]).unwrap(),
            0.5,
        )
        .unwrap()];
        assert!(matches!(
            instantaneous_nn(&solo, Oid(7), 0.5),
            Err(InstantError::NoCandidates)
        ));
    }
}
