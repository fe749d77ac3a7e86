//! Continuous **k-nearest-neighbor** answers and the crisp-vs-uncertain
//! Top-k semantics comparison of the paper's future work (§7):
//!
//! > "… compare the semantics of traditional Top-k NN queries for crisp
//! > trajectories with that for uncertain trajectories".
//!
//! [`continuous_knn`] materializes the *crisp* time-parameterized k-NN
//! answer: a partition of the query window into cells, each carrying the
//! ordered list of the `k` nearest objects (by expected locations). The
//! construction is Algorithm 3's recursion ([`crate::ipac`]) without the
//! band stop, to depth `k`: each leaf's span is a cell ranked by its
//! root→leaf owners, so each cell boundary is a critical time point of
//! some ranked envelope.
//!
//! For *uncertain* trajectories the natural Top-k at an instant is the
//! ranking by `P^NN`. Theorem 1 says that with a **shared** rotationally
//! symmetric pdf the two semantics coincide at every instant; the
//! [`semantics_agreement`] probe quantifies this (and its failure under
//! heterogeneous radii, where [`crate::hetero`] takes over).

use crate::algorithms::lower_envelope;
use crate::envelope::Envelope;
use crate::ipac::{crisp_levels, preorder};
use crate::kernel::ColumnKernel;
use crate::query::QueryEngine;
use crate::threshold::column_at;
use unn_geom::interval::{IntervalSet, TimeInterval};
use unn_prob::uniform_diff::UniformDifferencePdf;
use unn_traj::distance::DistanceFunction;
use unn_traj::trajectory::Oid;

/// One cell of a continuous k-NN answer: during `span`, `ranked` lists the
/// `k` nearest objects in ascending distance order (fewer when the
/// candidate set is smaller than `k`).
#[derive(Debug, Clone, PartialEq)]
pub struct KnnCell {
    /// The validity window of this cell.
    pub span: TimeInterval,
    /// The `min(k, N)` nearest objects, nearest first.
    pub ranked: Vec<Oid>,
}

/// The crisp continuous k-NN answer: cells partitioning the query window.
#[derive(Debug, Clone)]
pub struct KnnAnswer {
    k: usize,
    window: TimeInterval,
    cells: Vec<KnnCell>,
}

impl KnnAnswer {
    /// The requested depth `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The query window.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// The cells, in time order (they tile the window, and adjacent cells
    /// carry different rankings).
    pub fn cells(&self) -> &[KnnCell] {
        &self.cells
    }

    /// The ordered k-NN list at instant `t` (`None` outside the window).
    /// Boundary instants resolve to the later cell.
    pub fn knn_at(&self, t: f64) -> Option<&[Oid]> {
        if !self.window.contains(t) {
            return None;
        }
        let idx = self
            .cells
            .partition_point(|c| c.span.start() <= t)
            .clamp(1, self.cells.len());
        Some(&self.cells[idx - 1].ranked)
    }

    /// The times during which `oid` appears at rank exactly `rank`
    /// (1-based).
    pub fn rank_intervals(&self, oid: Oid, rank: usize) -> IntervalSet {
        assert!(rank >= 1, "ranks are 1-based");
        IntervalSet::from_intervals(
            self.cells
                .iter()
                .filter(|c| c.ranked.get(rank - 1) == Some(&oid))
                .map(|c| c.span),
        )
    }

    /// The times during which `oid` appears among the k nearest (any
    /// rank).
    pub fn member_intervals(&self, oid: Oid) -> IntervalSet {
        IntervalSet::from_intervals(
            self.cells
                .iter()
                .filter(|c| c.ranked.contains(&oid))
                .map(|c| c.span),
        )
    }

    /// Validates the answer against direct distance sorting at
    /// `samples` probes (test support). Probes within `tol` of a tie are
    /// skipped.
    pub fn validate_against(
        &self,
        fs: &[DistanceFunction],
        samples: usize,
        tol: f64,
    ) -> Result<(), String> {
        for p in 0..samples {
            let t = self.window.start() + (p as f64 + 0.5) * self.window.len() / samples as f64;
            let mut dists: Vec<(Oid, f64)> = fs
                .iter()
                .filter_map(|f| f.eval(t).map(|d| (f.owner(), d)))
                .collect();
            dists.sort_by(|a, b| a.1.total_cmp(&b.1));
            // Skip probes where the k-th and (k+1)-th distances are within
            // tol (the ranking is ambiguous at crossings).
            let ambiguous = dists
                .windows(2)
                .take(self.k)
                .any(|w| (w[0].1 - w[1].1).abs() < tol);
            if ambiguous {
                continue;
            }
            let expected: Vec<Oid> = dists.iter().take(self.k).map(|(o, _)| *o).collect();
            let got = self.knn_at(t).ok_or_else(|| format!("no cell at t={t}"))?;
            if got != expected.as_slice() {
                return Err(format!("t={t}: got {got:?}, expected {expected:?}"));
            }
        }
        Ok(())
    }
}

/// Builds the crisp continuous k-NN answer over the given distance
/// functions: Algorithm 3's recursion without the band stop, to depth
/// `k`. Complexity `O(k · N log N)` per produced level region; the
/// number of cells is bounded by the combinatorial complexity of the
/// first `k` ranked envelopes, `O(kN)`.
///
/// # Panics
///
/// Panics when `fs` is empty or `k == 0`.
pub fn continuous_knn(fs: &[DistanceFunction], k: usize) -> KnnAnswer {
    assert!(!fs.is_empty(), "k-NN over an empty candidate set");
    assert!(k >= 1, "k must be at least 1");
    let window = fs
        .iter()
        .map(|f| f.span())
        .reduce(|a, b| {
            a.intersection(&b)
                .expect("distance functions share the query window")
        })
        .unwrap();
    let level1: Vec<DistanceFunction> = fs.iter().filter_map(|f| f.restrict(&window)).collect();
    if level1.is_empty() {
        return KnnAnswer {
            k,
            window,
            cells: vec![],
        };
    }
    knn_over(fs, &lower_envelope(&level1), window, k)
}

/// The crisp k-NN answer over `fs`, whose lower envelope over `window`
/// is `envelope`: each leaf of the first `k` levels is a cell ranked by
/// its root→leaf owners, and adjacent cells with equal rankings merge.
/// `k ≥ 1` (`0` would rank every candidate).
pub(crate) fn knn_over(
    fs: &[DistanceFunction],
    envelope: &Envelope,
    window: TimeInterval,
    k: usize,
) -> KnnAnswer {
    let fs: Vec<&DistanceFunction> = fs.iter().collect();
    let levels = crisp_levels(&fs, envelope, k);
    let (mut path, mut cells) = (Vec::with_capacity(k), Vec::<KnnCell>::new());
    for n in preorder(&levels) {
        path.truncate(n.level - 1);
        path.push(n.owner);
        if !n.children.is_empty() || n.span.is_degenerate() {
            continue;
        }
        match cells.last_mut() {
            Some(last) if last.ranked == path => {
                last.span = TimeInterval::new(last.span.start(), n.span.end());
            }
            _ => cells.push(KnnCell {
                span: n.span,
                ranked: path.clone(),
            }),
        }
    }
    KnnAnswer { k, window, cells }
}

/// The Top-k objects by **NN probability** at instant `t` under the
/// uncertain semantics (descending `P^NN`, zero-probability objects
/// omitted, hence possibly fewer than `k`).
pub fn probabilistic_topk_at(engine: &QueryEngine, t: f64, k: usize) -> Vec<(Oid, f64)> {
    topk_of_column(engine, &uniform_kernel(engine), t, k)
}

/// The paper's running uniform model for `engine`'s radius.
fn uniform_kernel(engine: &QueryEngine) -> ColumnKernel {
    ColumnKernel::new(&UniformDifferencePdf::new(engine.radius()))
}

/// Ranks the one canonical probe column at `t` — the column
/// [`crate::threshold::probability_at_kernel`] reads a single owner from.
fn topk_of_column(
    engine: &QueryEngine,
    kernel: &ColumnKernel,
    t: f64,
    k: usize,
) -> Vec<(Oid, f64)> {
    let mut scored = column_at(engine, kernel, t).unwrap_or_default();
    scored.retain(|(_, p)| *p > 0.0);
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    scored.truncate(k);
    scored
}

/// Probes `samples` instants and reports the fraction where the crisp
/// Top-k prefix equals the probabilistic Top-k prefix (compared up to the
/// length of the shorter list; probes where either list is empty are
/// skipped). With a shared radius Theorem 1 predicts agreement `≈ 1`.
pub fn semantics_agreement(
    engine: &QueryEngine,
    crisp: &KnnAnswer,
    k: usize,
    samples: usize,
) -> f64 {
    assert!(samples > 0, "need at least one probe");
    let window = engine.window();
    let kernel = uniform_kernel(engine);
    let mut agree = 0usize;
    let mut probes = 0usize;
    for p in 0..samples {
        let t = window.start() + (p as f64 + 0.5) * window.len() / samples as f64;
        let Some(crisp_list) = crisp.knn_at(t) else {
            continue;
        };
        let prob_list = topk_of_column(engine, &kernel, t, k);
        if crisp_list.is_empty() || prob_list.is_empty() {
            continue;
        }
        probes += 1;
        let upto = crisp_list.len().min(prob_list.len());
        if crisp_list[..upto]
            .iter()
            .zip(prob_list.iter().take(upto))
            .all(|(c, (o, _))| c == o)
        {
            agree += 1;
        }
    }
    if probes == 0 {
        return 1.0;
    }
    agree as f64 / probes as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threshold::probability_at_kernel;
    use unn_geom::hyperbola::Hyperbola;
    use unn_geom::point::Vec2;

    fn flyby(owner: u64, x0: f64, y: f64, v: f64, w: TimeInterval) -> DistanceFunction {
        DistanceFunction::single(
            Oid(owner),
            w,
            Hyperbola::from_relative_motion(Vec2::new(x0, y), Vec2::new(v, 0.0), 0.0),
        )
    }

    fn fleet(w: TimeInterval) -> Vec<DistanceFunction> {
        vec![
            flyby(1, -5.0, 1.0, 1.0, w), // dips to 1 at t=5
            flyby(2, -2.0, 2.0, 1.0, w), // dips to 2 at t=2
            flyby(3, -8.0, 3.0, 1.0, w), // dips to 3 at t=8
            flyby(4, 0.0, 12.0, 0.0, w), // constant 12
        ]
    }

    #[test]
    fn knn_cells_tile_the_window() {
        let w = TimeInterval::new(0.0, 10.0);
        let ans = continuous_knn(&fleet(w), 2);
        assert_eq!(ans.cells().first().unwrap().span.start(), 0.0);
        assert_eq!(ans.cells().last().unwrap().span.end(), 10.0);
        for pair in ans.cells().windows(2) {
            assert!((pair[0].span.end() - pair[1].span.start()).abs() < 1e-9);
            assert_ne!(pair[0].ranked, pair[1].ranked, "cells not maximal");
        }
        for c in ans.cells() {
            assert_eq!(c.ranked.len(), 2);
            // Ranks are distinct objects.
            assert_ne!(c.ranked[0], c.ranked[1]);
        }
    }

    #[test]
    fn knn_matches_distance_sorting() {
        let w = TimeInterval::new(0.0, 10.0);
        let fs = fleet(w);
        for k in 1..=4 {
            let ans = continuous_knn(&fs, k);
            ans.validate_against(&fs, 500, 1e-6).unwrap();
        }
    }

    #[test]
    fn k_larger_than_population_ranks_everyone() {
        let w = TimeInterval::new(0.0, 10.0);
        let fs = fleet(w);
        let ans = continuous_knn(&fs, 10);
        for c in ans.cells() {
            assert_eq!(c.ranked.len(), 4, "{c:?}");
        }
    }

    #[test]
    fn rank_and_member_intervals_are_consistent() {
        let w = TimeInterval::new(0.0, 10.0);
        let fs = fleet(w);
        let ans = continuous_knn(&fs, 3);
        for oid in [1u64, 2, 3, 4] {
            let member = ans.member_intervals(Oid(oid));
            let mut union_len = 0.0;
            for rank in 1..=3 {
                union_len += ans.rank_intervals(Oid(oid), rank).total_len();
            }
            // Ranks are disjoint: their lengths add up to the membership.
            assert!(
                (member.total_len() - union_len).abs() < 1e-9,
                "oid {oid}: member {} vs Σranks {union_len}",
                member.total_len()
            );
        }
        // Rank 1 of the k-NN answer equals the level-1 envelope ownership.
        let env = lower_envelope(&fs);
        for (owner, iv) in env.answer_sequence() {
            assert!(
                ans.rank_intervals(owner, 1).covers(iv.midpoint()),
                "owner {owner} at {}",
                iv.midpoint()
            );
        }
    }

    #[test]
    fn theorem_1_crisp_and_probabilistic_topk_agree() {
        let w = TimeInterval::new(0.0, 10.0);
        let fs = fleet(w);
        let engine = QueryEngine::new(Oid(0), fs.clone(), 0.5);
        let crisp = continuous_knn(&fs, 2);
        let agreement = semantics_agreement(&engine, &crisp, 2, 200);
        // Theorem 1: ranking by P^NN == ranking by center distance, so the
        // prefixes agree wherever both are defined (tolerate a few probes
        // landing on crossings).
        assert!(agreement > 0.97, "agreement {agreement}");
    }

    #[test]
    fn probabilistic_topk_is_sorted_and_bounded() {
        let w = TimeInterval::new(0.0, 10.0);
        let engine = QueryEngine::new(Oid(0), fleet(w), 0.5);
        for t in [1.0, 5.0, 9.0] {
            let top = probabilistic_topk_at(&engine, t, 3);
            assert!(top.len() <= 3);
            for pair in top.windows(2) {
                assert!(pair[0].1 >= pair[1].1);
            }
            for (_, p) in &top {
                assert!((0.0..=1.0 + 1e-9).contains(p));
            }
        }
    }

    #[test]
    fn topk_of_one_column_equals_the_per_candidate_loop() {
        // The oracle evaluates the whole column once per candidate and
        // picks that candidate's value out of it.
        let w = TimeInterval::new(0.0, 10.0);
        let engine = QueryEngine::new(Oid(0), fleet(w), 0.5);
        let kernel = uniform_kernel(&engine);
        for t in [0.5, 1.0, 3.3, 5.0, 7.5, 9.0, 10.0, 11.0] {
            let mut oracle: Vec<(Oid, f64)> = engine
                .functions()
                .iter()
                .filter_map(|f| {
                    let p = probability_at_kernel(&engine, &kernel, f.owner(), t)?;
                    (p > 0.0).then_some((f.owner(), p))
                })
                .collect();
            oracle.sort_by(|a, b| b.1.total_cmp(&a.1));
            for k in [1, 2, 4] {
                let got = probabilistic_topk_at(&engine, t, k);
                let want = &oracle[..k.min(oracle.len())];
                assert_eq!(got.len(), want.len(), "t={t} k={k}");
                for ((o, p), (wo, wp)) in got.iter().zip(want) {
                    assert_eq!(o, wo, "t={t} k={k}");
                    assert_eq!(p.to_bits(), wp.to_bits(), "t={t} k={k}");
                }
            }
        }
    }

    #[test]
    fn single_candidate_knn() {
        let w = TimeInterval::new(0.0, 5.0);
        let fs = vec![flyby(9, 0.0, 2.0, 0.0, w)];
        let ans = continuous_knn(&fs, 3);
        assert_eq!(ans.cells().len(), 1);
        assert_eq!(ans.cells()[0].ranked, vec![Oid(9)]);
        assert_eq!(ans.knn_at(2.5), Some(&[Oid(9)][..]));
        assert!(ans.knn_at(7.0).is_none());
    }

    #[test]
    #[should_panic]
    fn zero_k_rejected() {
        let w = TimeInterval::new(0.0, 1.0);
        let _ = continuous_knn(&[flyby(1, 0.0, 1.0, 0.0, w)], 0);
    }
}
