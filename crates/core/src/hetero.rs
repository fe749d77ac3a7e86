//! Continuous probabilistic NN queries with **heterogeneous uncertainty
//! radii** — the last future-work item of the paper (§7):
//!
//! > "Finally, we plan to allow for different uncertainty zones of the
//! > object locations (i.e., circles with different radii), for which a
//! > promising foundation is the Voronoi diagram of moving disks."
//!
//! With a shared radius the paper's Theorem 1 makes the probability
//! ranking equal to the center-distance ranking, and a single global `4r`
//! band prunes impossible candidates. With per-object radii `r_j` (query
//! radius `r_q`) both collapse:
//!
//! * The distance between object `j` and the query is a random variable
//!   supported on `[d_j(t) − s_j, d_j(t) + s_j]` with per-object slack
//!   `s_j = r_j + r_q` (support of the disk-difference pdf, cf.
//!   [`unn_prob::disk_diff`]).
//! * Candidate `i` has non-zero probability of being the NN at `t` iff its
//!   closest possible distance beats someone else's farthest possible
//!   distance:
//!   `d_i(t) − s_i ≤ min_{j≠i} ( d_j(t) + s_j )`.
//!   The right-hand side is the lower envelope of *shifted* hyperbolas —
//!   the [`crate::shifted`] machinery (this is the moving-disk analogue of
//!   the additively weighted Voronoi diagram the paper points to).
//! * The ranking of the surviving candidates' probabilities is **not** the
//!   center-distance ranking any more (different candidates have different
//!   difference pdfs); [`HeteroEngine::probabilities_at`] evaluates the
//!   exact Eq. 5 probabilities with per-candidate
//!   [`DiskDifferencePdf`]s instead.
//!
//! With all radii equal the possibility test reduces *exactly* to the
//! paper's `4r` band (asserted by the tests), so this engine is a strict
//! generalization of [`crate::query::QueryEngine`]'s Category 1/3
//! semantics.

use crate::band::SliceFn;
use crate::shifted::{shifted_lower_envelope, ShiftedEnvelope, ShiftedFunction, ShiftedPiece};
use unn_geom::interval::{IntervalSet, TimeInterval};
use unn_prob::disk_diff::DiskDifferencePdf;
use unn_prob::nn_prob::{nn_probabilities, NnCandidate, NnConfig};
use unn_traj::distance::DistanceFunction;
use unn_traj::trajectory::Oid;

/// One candidate of a heterogeneous-radii query: a difference-trajectory
/// distance function plus the object's own uncertainty radius.
#[derive(Debug, Clone)]
pub struct HeteroCandidate {
    /// The distance function `d_i(t)` of `TR_iq`.
    pub f: DistanceFunction,
    /// The candidate's uncertainty radius `r_i > 0`.
    pub radius: f64,
}

/// Pruning statistics of a heterogeneous pass (the Figure 13 analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeteroStats {
    /// Candidates examined.
    pub total: usize,
    /// Candidates with a non-empty possibility set.
    pub kept: usize,
}

impl HeteroStats {
    /// Fraction of candidates still requiring probability integration.
    pub fn kept_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.kept as f64 / self.total as f64
        }
    }
}

/// Query engine for continuous probabilistic NN queries over candidates
/// with **different** uncertainty radii.
///
/// Construction is `O(N log N)` for the upper-bound envelope plus
/// `O(N · C)` for its owner-excluded second envelope (`C` = envelope
/// complexity); the per-object possibility queries then mirror the
/// Category 1 costs of §4.
#[derive(Debug)]
pub struct HeteroEngine {
    query: Oid,
    window: TimeInterval,
    query_radius: f64,
    cands: Vec<HeteroCandidate>,
    /// Per-candidate slack `s_i = r_i + r_q`.
    slacks: Vec<f64>,
    /// `U(t) = min_j (d_j(t) + s_j)`.
    upper: ShiftedEnvelope,
    /// `U₂(t) = min_{j ≠ owner(t)} (d_j(t) + s_j)` — `None` when there is
    /// only one candidate.
    second: Option<ShiftedEnvelope>,
    /// Cached per-candidate difference pdfs for probability evaluation.
    pdfs: Vec<DiskDifferencePdf>,
}

impl HeteroEngine {
    /// Builds the engine from per-candidate distance functions and radii.
    ///
    /// # Panics
    ///
    /// Panics when `cands` is empty, any radius is non-positive, or
    /// `query_radius` is non-positive.
    pub fn new(query: Oid, cands: Vec<HeteroCandidate>, query_radius: f64) -> Self {
        assert!(
            !cands.is_empty(),
            "hetero engine needs at least one candidate"
        );
        assert!(
            query_radius.is_finite() && query_radius > 0.0,
            "invalid query radius {query_radius}"
        );
        for c in &cands {
            assert!(
                c.radius.is_finite() && c.radius > 0.0,
                "invalid candidate radius {} for {}",
                c.radius,
                c.f.owner()
            );
        }
        let slacks: Vec<f64> = cands.iter().map(|c| c.radius + query_radius).collect();
        let shifted: Vec<ShiftedFunction> = cands
            .iter()
            .zip(&slacks)
            .map(|(c, &s)| ShiftedFunction::new(c.f.clone(), s))
            .collect();
        let upper = shifted_lower_envelope(&shifted);
        let window = upper.span();
        let second = build_second_envelope(&shifted, &upper);
        let pdfs = cands
            .iter()
            .map(|c| DiskDifferencePdf::new(c.radius, query_radius))
            .collect();
        HeteroEngine {
            query,
            window,
            query_radius,
            cands,
            slacks,
            upper,
            second,
            pdfs,
        }
    }

    /// The query trajectory's id.
    pub fn query(&self) -> Oid {
        self.query
    }

    /// The query window.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// The query object's uncertainty radius.
    pub fn query_radius(&self) -> f64 {
        self.query_radius
    }

    /// The candidates.
    pub fn candidates(&self) -> &[HeteroCandidate] {
        &self.cands
    }

    fn candidate_index(&self, oid: Oid) -> Option<usize> {
        self.cands.iter().position(|c| c.f.owner() == oid)
    }

    /// The threshold `min_{j≠i} (d_j(t) + s_j)` that candidate `i`'s lower
    /// bound must beat at `t` — `U(t)` where someone else owns the
    /// envelope, `U₂(t)` where `i` itself does. `None` when `i` is the
    /// only candidate (it is trivially the NN).
    fn exclusive_threshold_at(&self, idx: usize, t: f64) -> Option<f64> {
        let owner = self.upper.owner_at(t)?;
        if owner == self.cands[idx].f.owner() {
            self.second.as_ref().and_then(|s| s.eval(t))
        } else {
            self.upper.eval(t)
        }
    }

    /// `true` when candidate `oid` has non-zero probability of being the
    /// NN at instant `t`; `None` for unknown ids or instants outside the
    /// window.
    pub fn possible_at(&self, oid: Oid, t: f64) -> Option<bool> {
        let idx = self.candidate_index(oid)?;
        if !self.window.contains(t) {
            return Some(false);
        }
        let d = self.cands[idx].f.eval(t)?;
        match self.exclusive_threshold_at(idx, t) {
            Some(thr) => Some(d - self.slacks[idx] <= thr),
            None => Some(true), // single candidate
        }
    }

    /// The set of times at which `oid` has non-zero probability of being
    /// the NN: `{ t : d_i(t) − s_i ≤ min_{j≠i} (d_j(t) + s_j) }`.
    ///
    /// Each (candidate piece × threshold piece) cell goes through
    /// `crate::band::slices_below`: settled from distance ranges where
    /// they suffice, otherwise cut at the exact crossings of
    /// [`unn_geom::hyperbola::Hyperbola::crossings_shifted`] with slices
    /// classified at their midpoints.
    pub fn possible_intervals(&self, oid: Oid) -> Option<IntervalSet> {
        self.possible_intervals_via(oid, crate::band::slices_below)
    }

    /// [`HeteroEngine::possible_intervals`] over an explicit per-cell
    /// slicer (the tests pass the always-solve one as the oracle).
    fn possible_intervals_via(&self, oid: Oid, below: SliceFn) -> Option<IntervalSet> {
        let idx = self.candidate_index(oid)?;
        if self.cands.len() == 1 {
            return Some(IntervalSet::from_intervals(vec![self.window]));
        }
        let f = &self.cands[idx].f;
        let s_i = self.slacks[idx];
        let mut spans: Vec<TimeInterval> = Vec::new();
        for piece in self.upper.pieces() {
            if piece.owner != oid {
                collect_below(f, s_i, piece, piece.span, &mut spans, below);
            } else {
                // `i` owns the envelope here: compare against the
                // owner-excluded second envelope.
                let second = self.second.as_ref().expect("n > 1 has a second envelope");
                for sp in second.pieces() {
                    if let Some(sub) = sp.span.intersection(&piece.span) {
                        if !sub.is_degenerate() {
                            collect_below(f, s_i, sp, sub, &mut spans, below);
                        }
                    }
                }
            }
        }
        Some(IntervalSet::from_intervals(spans))
    }

    /// Hetero-`UQ31`: every candidate with a non-empty possibility set,
    /// with its set. The per-object hetero quantifiers are
    /// [`crate::query::Quantifier`]'s rules over
    /// [`HeteroEngine::possible_intervals`].
    pub fn all_possible(&self) -> Vec<(Oid, IntervalSet)> {
        self.cands
            .iter()
            .filter_map(|c| {
                let oid = c.f.owner();
                let iv = self.possible_intervals(oid)?;
                if iv.is_empty() {
                    None
                } else {
                    Some((oid, iv))
                }
            })
            .collect()
    }

    /// Pruning statistics (how many candidates survive anywhere).
    pub fn stats(&self) -> HeteroStats {
        let kept = self.all_possible().len();
        HeteroStats {
            total: self.cands.len(),
            kept,
        }
    }

    /// The exact Eq. 5 NN probabilities of every candidate at instant `t`,
    /// in candidate order, using the per-candidate disk-difference pdfs.
    /// Candidates impossible at `t` get exactly `0.0`. Returns `None`
    /// outside the window.
    ///
    /// This replaces Theorem 1 for heterogeneous radii: the returned
    /// probabilities need **not** be ordered like the center distances
    /// (see the `ranking_flip` test for a witnessed inversion).
    pub fn probabilities_at(&self, t: f64) -> Option<Vec<(Oid, f64)>> {
        if !self.window.contains(t) {
            return None;
        }
        let n = self.cands.len();
        let mut possible = vec![false; n];
        let mut dists = vec![0.0; n];
        for (i, c) in self.cands.iter().enumerate() {
            let d = c.f.eval(t)?;
            dists[i] = d;
            possible[i] = match self.exclusive_threshold_at(i, t) {
                Some(thr) => d - self.slacks[i] <= thr,
                None => true,
            };
        }
        let active: Vec<usize> = (0..n).filter(|&i| possible[i]).collect();
        let mut out: Vec<(Oid, f64)> = self.cands.iter().map(|c| (c.f.owner(), 0.0)).collect();
        if active.is_empty() {
            return Some(out);
        }
        let nn_cands: Vec<NnCandidate> = active
            .iter()
            .map(|&i| NnCandidate {
                center_distance: dists[i],
                pdf: &self.pdfs[i],
            })
            .collect();
        let probs = nn_probabilities(&nn_cands, NnConfig::default());
        for (&i, p) in active.iter().zip(&probs) {
            out[i].1 = *p;
        }
        Some(out)
    }

    /// The candidates ranked by NN probability at `t` (descending,
    /// zero-probability candidates omitted).
    pub fn ranking_at(&self, t: f64) -> Option<Vec<(Oid, f64)>> {
        let mut probs: Vec<(Oid, f64)> = self
            .probabilities_at(t)?
            .into_iter()
            .filter(|(_, p)| *p > 0.0)
            .collect();
        probs.sort_by(|a, b| b.1.total_cmp(&a.1));
        Some(probs)
    }
}

/// Builds the owner-excluded second envelope: on every answer interval of
/// `upper` (owner `o`), the shifted lower envelope of all functions except
/// `o`'s, concatenated across intervals. `None` when there is only one
/// function.
fn build_second_envelope(
    fs: &[ShiftedFunction],
    upper: &ShiftedEnvelope,
) -> Option<ShiftedEnvelope> {
    if fs.len() < 2 {
        return None;
    }
    let mut pieces: Vec<ShiftedPiece> = Vec::new();
    for (owner, iv) in upper.answer_sequence() {
        let rest: Vec<ShiftedFunction> = fs
            .iter()
            .filter(|f| f.owner() != owner)
            .filter_map(|f| {
                f.f.restrict(&iv).map(|g| ShiftedFunction {
                    f: g,
                    shift: f.shift,
                })
            })
            .collect();
        debug_assert!(!rest.is_empty(), "n ≥ 2 leaves a non-empty remainder");
        let env = shifted_lower_envelope(&rest);
        pieces.extend(env.pieces().iter().copied());
    }
    Some(ShiftedEnvelope::new(pieces).expect("second envelope tiles the window"))
}

/// Within `sub`, finds where `f(t) − s_i ≤ piece.hyperbola(t) +
/// piece.shift` and pushes the qualifying slices.
fn collect_below(
    f: &DistanceFunction,
    s_i: f64,
    piece: &ShiftedPiece,
    sub: TimeInterval,
    spans: &mut Vec<TimeInterval>,
    below: SliceFn,
) {
    let delta = piece.shift + s_i; // ≥ 0: d_i = thr ⇔ d_i = h + delta
    for fp in f.pieces() {
        let Some(seg) = fp.span.intersection(&sub) else {
            continue;
        };
        if seg.is_degenerate() {
            continue;
        }
        below(&fp.hyperbola, &piece.hyperbola, delta, seg, spans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{window_fraction, Quantifier, QueryEngine};
    use rand::Rng;
    use rand::SeedableRng;
    use unn_geom::hyperbola::Hyperbola;
    use unn_geom::point::Vec2;
    use unn_prob::monte_carlo::monte_carlo_nn_probabilities;

    fn flyby(owner: u64, x0: f64, y: f64, v: f64, w: TimeInterval) -> DistanceFunction {
        DistanceFunction::single(
            Oid(owner),
            w,
            Hyperbola::from_relative_motion(Vec2::new(x0, y), Vec2::new(v, 0.0), 0.0),
        )
    }

    fn cand(owner: u64, x0: f64, y: f64, v: f64, r: f64, w: TimeInterval) -> HeteroCandidate {
        HeteroCandidate {
            f: flyby(owner, x0, y, v, w),
            radius: r,
        }
    }

    #[test]
    fn equal_radii_reduce_to_homogeneous_band() {
        let w = TimeInterval::new(0.0, 10.0);
        let r = 0.5;
        let fs = vec![
            flyby(1, -5.0, 1.0, 1.0, w),
            flyby(2, -2.0, 2.0, 1.0, w),
            flyby(3, -8.0, 3.0, 1.0, w),
            flyby(4, 0.0, 50.0, 0.0, w),
        ];
        let hom = QueryEngine::new(Oid(0), fs.clone(), r);
        let het = HeteroEngine::new(
            Oid(0),
            fs.iter()
                .map(|f| HeteroCandidate {
                    f: f.clone(),
                    radius: r,
                })
                .collect(),
            r,
        );
        for oid in [1u64, 2, 3, 4] {
            let a = hom.nonzero_intervals(Oid(oid)).unwrap();
            let b = het.possible_intervals(Oid(oid)).unwrap();
            assert!(
                (a.total_len() - b.total_len()).abs() < 1e-6,
                "oid {oid}: {} vs {}",
                a.total_len(),
                b.total_len()
            );
            // Membership agrees away from crossing instants.
            for k in 0..200 {
                let t = w.start() + (k as f64 + 0.5) * w.len() / 200.0;
                let d = fs[oid as usize - 1].eval(t).unwrap();
                let le = hom.envelope().eval(t).unwrap();
                if (d - le - 4.0 * r).abs() > 1e-6 {
                    assert_eq!(a.covers(t), b.covers(t), "oid {oid} t {t}");
                }
            }
        }
    }

    #[test]
    fn possible_intervals_match_dense_sampling() {
        let w = TimeInterval::new(0.0, 10.0);
        let cands = vec![
            cand(1, -5.0, 1.0, 1.0, 0.3, w),
            cand(2, -2.0, 2.0, 1.0, 1.5, w),
            cand(3, -8.0, 3.0, 1.0, 0.8, w),
            cand(4, 0.0, 20.0, 0.0, 0.2, w),
        ];
        let e = HeteroEngine::new(Oid(0), cands.clone(), 0.4);
        let slack = |i: usize| cands[i].radius + 0.4;
        for (i, c) in cands.iter().enumerate() {
            let oid = c.f.owner();
            let set = e.possible_intervals(oid).unwrap();
            for k in 0..400 {
                let t = w.start() + (k as f64 + 0.5) * w.len() / 400.0;
                let d_i = c.f.eval(t).unwrap();
                let thr = cands
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(j, cj)| cj.f.eval(t).unwrap() + slack(j))
                    .fold(f64::INFINITY, f64::min);
                let expected = d_i - slack(i) <= thr;
                let margin = (d_i - slack(i) - thr).abs();
                if margin > 1e-6 {
                    assert_eq!(set.covers(t), expected, "oid {oid} t {t}");
                }
                // The instant predicate agrees with the interval set.
                if margin > 1e-6 {
                    assert_eq!(e.possible_at(oid, t), Some(expected), "oid {oid} t {t}");
                }
            }
        }
    }

    #[test]
    fn large_radius_rescues_distant_candidate() {
        let w = TimeInterval::new(0.0, 10.0);
        // Candidate 3 is far but enormously uncertain: possible. The same
        // geometry with a small radius is pruned.
        let mk = |r3: f64| {
            HeteroEngine::new(
                Oid(0),
                vec![
                    cand(1, -5.0, 1.0, 1.0, 0.3, w),
                    cand(2, -2.0, 2.0, 1.0, 0.3, w),
                    cand(3, 0.0, 12.0, 0.0, r3, w),
                ],
                0.3,
            )
        };
        let exists =
            |e: HeteroEngine| Quantifier::Exists.holds(&e.possible_intervals(Oid(3)).unwrap(), w);
        assert!(exists(mk(10.0)));
        assert!(!exists(mk(0.2)));
    }

    #[test]
    fn single_candidate_is_always_possible() {
        let w = TimeInterval::new(0.0, 4.0);
        let e = HeteroEngine::new(Oid(0), vec![cand(1, 0.0, 3.0, 0.0, 0.5, w)], 0.5);
        let iv = e.possible_intervals(Oid(1)).unwrap();
        assert!(Quantifier::Forall.holds(&iv, w));
        assert_eq!(window_fraction(&iv, w), 1.0);
        assert_eq!(e.possible_at(Oid(1), 2.0), Some(true));
        let probs = e.probabilities_at(2.0).unwrap();
        assert!((probs[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_sum_to_one_and_match_monte_carlo() {
        let w = TimeInterval::new(0.0, 10.0);
        let cands = vec![
            cand(1, -5.0, 1.0, 1.0, 0.4, w),
            cand(2, -2.0, 1.5, 1.0, 1.2, w),
            cand(3, -8.0, 2.0, 1.0, 0.7, w),
        ];
        let e = HeteroEngine::new(Oid(0), cands.clone(), 0.5);
        let t = 5.0;
        let probs = e.probabilities_at(t).unwrap();
        let sum: f64 = probs.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum {sum}");
        // Monte Carlo cross-check with the same per-candidate pdfs.
        let pdfs: Vec<DiskDifferencePdf> = cands
            .iter()
            .map(|c| DiskDifferencePdf::new(c.radius, 0.5))
            .collect();
        let dists: Vec<f64> = cands.iter().map(|c| c.f.eval(t).unwrap()).collect();
        let mc_cands: Vec<NnCandidate> = pdfs
            .iter()
            .zip(&dists)
            .map(|(p, &d)| NnCandidate {
                center_distance: d,
                pdf: p,
            })
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mc = monte_carlo_nn_probabilities(&mc_cands, 60_000, &mut rng);
        for (k, (oid, p)) in probs.iter().enumerate() {
            assert!(
                (p - mc[k]).abs() < 0.02,
                "{oid}: engine {p} vs monte carlo {}",
                mc[k]
            );
        }
    }

    #[test]
    fn theorem_1_fails_for_heterogeneous_radii() {
        // A concentrated candidate slightly farther away can have a higher
        // NN probability than a diffuse nearer one: the center-distance
        // ranking (Theorem 1) is not valid across unequal radii.
        let w = TimeInterval::new(0.0, 1.0);
        let mut flipped = false;
        'outer: for r_diffuse in [2.0, 3.0, 4.0] {
            for gap in [0.05, 0.15, 0.3] {
                let cands = vec![
                    // Nearer but very uncertain.
                    cand(1, 0.0, 3.0, 0.0, r_diffuse, w),
                    // Farther but almost crisp.
                    cand(2, 0.0, 3.0 + gap, 0.0, 0.05, w),
                ];
                let e = HeteroEngine::new(Oid(0), cands, 0.05);
                let probs = e.probabilities_at(0.5).unwrap();
                let p_diffuse = probs.iter().find(|(o, _)| *o == Oid(1)).unwrap().1;
                let p_crisp = probs.iter().find(|(o, _)| *o == Oid(2)).unwrap().1;
                if p_crisp > p_diffuse + 0.05 {
                    flipped = true;
                    break 'outer;
                }
            }
        }
        assert!(flipped, "no probability-ranking inversion found");
    }

    #[test]
    fn equal_radii_ranking_matches_center_distances() {
        // Theorem 1 baseline: with equal radii the probability ranking is
        // the center-distance ranking.
        let w = TimeInterval::new(0.0, 10.0);
        let cands = vec![
            cand(1, -5.0, 1.0, 1.0, 0.5, w),
            cand(2, -2.0, 2.0, 1.0, 0.5, w),
            cand(3, -8.0, 3.0, 1.0, 0.5, w),
        ];
        let e = HeteroEngine::new(Oid(0), cands.clone(), 0.5);
        for t in [1.0, 3.0, 5.0, 7.0, 9.0] {
            let ranking = e.ranking_at(t).unwrap();
            let mut by_dist: Vec<(Oid, f64)> = cands
                .iter()
                .map(|c| (c.f.owner(), c.f.eval(t).unwrap()))
                .collect();
            by_dist.sort_by(|a, b| a.1.total_cmp(&b.1));
            // The ranked prefix (non-zero probabilities) follows the
            // distance order.
            for (k, (oid, _)) in ranking.iter().enumerate() {
                assert_eq!(*oid, by_dist[k].0, "t {t} rank {k}");
            }
        }
    }

    #[test]
    fn all_possible_and_stats() {
        let w = TimeInterval::new(0.0, 10.0);
        let e = HeteroEngine::new(
            Oid(0),
            vec![
                cand(1, -5.0, 1.0, 1.0, 0.3, w),
                cand(2, -2.0, 2.0, 1.0, 0.3, w),
                cand(3, 0.0, 40.0, 0.0, 0.3, w),
            ],
            0.3,
        );
        let all = e.all_possible();
        let oids: Vec<Oid> = all.iter().map(|(o, _)| *o).collect();
        assert!(oids.contains(&Oid(1)) && oids.contains(&Oid(2)));
        assert!(!oids.contains(&Oid(3)));
        let stats = e.stats();
        assert_eq!(stats.total, 3);
        assert_eq!(stats.kept, 2);
        assert!((stats.kept_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn random_configurations_validate_against_oracle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        let w = TimeInterval::new(0.0, 20.0);
        for _ in 0..40 {
            let n = rng.random_range(2..7);
            let cands: Vec<HeteroCandidate> = (0..n)
                .map(|k| {
                    cand(
                        k as u64 + 1,
                        rng.random_range(-15.0..5.0),
                        rng.random_range(0.2..8.0),
                        rng.random_range(0.1..1.5),
                        rng.random_range(0.1..2.0),
                        w,
                    )
                })
                .collect();
            let rq = rng.random_range(0.1..1.0);
            let e = HeteroEngine::new(Oid(0), cands.clone(), rq);
            for c in &cands {
                let set = e.possible_intervals(c.f.owner()).unwrap();
                // The range pre-tests only skip work: solving every cell
                // gives the same spans, bit for bit.
                let solved = e
                    .possible_intervals_via(c.f.owner(), crate::band::solved_slices_below)
                    .unwrap();
                assert_eq!(set, solved, "{}", c.f.owner());
                for k in 0..100 {
                    let t = w.start() + (k as f64 + 0.5) * w.len() / 100.0;
                    let d_i = c.f.eval(t).unwrap();
                    let s_i = c.radius + rq;
                    let thr = cands
                        .iter()
                        .filter(|o| o.f.owner() != c.f.owner())
                        .map(|o| o.f.eval(t).unwrap() + o.radius + rq)
                        .fold(f64::INFINITY, f64::min);
                    let expected = d_i - s_i <= thr;
                    if (d_i - s_i - thr).abs() > 1e-6 {
                        assert_eq!(set.covers(t), expected, "{} t {t}", c.f.owner());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_non_positive_radius() {
        let w = TimeInterval::new(0.0, 1.0);
        let _ = HeteroEngine::new(Oid(0), vec![cand(1, 0.0, 1.0, 0.0, 0.0, w)], 0.5);
    }
}
