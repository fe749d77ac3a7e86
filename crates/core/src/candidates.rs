//! Shared candidate-set construction — the single entry point through
//! which every engine (forward, heterogeneous, reverse, k-NN) obtains its
//! difference-trajectory distance functions.
//!
//! Before this module existed, `QueryEngine`, `HeteroEngine`,
//! `ReverseNnEngine`, and the k-NN path each re-implemented the same
//! boilerplate: clone a snapshot of the MOD, find the query trajectory,
//! build `d_iq(t)` for every candidate, and hand the functions to the
//! engine constructor. [`CandidateSet`] centralizes that step over
//! **borrowed** trajectories (no cloning) and uses the scoped-thread
//! parallel difference construction of
//! [`unn_traj::difference::difference_distances_par`], so the
//! `O(N log N)` preprocessing of the paper's Claims 1–3 is paid on a
//! shared, zero-copy path.

use crate::hetero::{HeteroCandidate, HeteroEngine};
use crate::query::QueryEngine;
use unn_geom::interval::TimeInterval;
use unn_traj::difference::{difference_distances_par, difference_distances_refs, DifferenceError};
use unn_traj::distance::DistanceFunction;
use unn_traj::trajectory::{Oid, Trajectory};

/// The difference-trajectory distance functions of one query against a
/// set of candidates over a window, ready to feed any engine.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    query: Oid,
    window: TimeInterval,
    fs: Vec<DistanceFunction>,
}

impl CandidateSet {
    /// Builds the set sequentially from borrowed trajectories, skipping
    /// any candidate that shares the query's id.
    pub fn build<'a, I>(
        query: &Trajectory,
        others: I,
        window: &TimeInterval,
    ) -> Result<Self, DifferenceError>
    where
        I: IntoIterator<Item = &'a Trajectory>,
    {
        let fs = difference_distances_refs(query, others, window)?;
        Ok(CandidateSet {
            query: query.oid(),
            window: *window,
            fs,
        })
    }

    /// Builds the set with the chunked scoped-thread construction. The
    /// candidate order (and therefore every downstream answer) is
    /// identical to [`CandidateSet::build`].
    pub fn build_par(
        query: &Trajectory,
        others: &[&Trajectory],
        window: &TimeInterval,
    ) -> Result<Self, DifferenceError> {
        let fs = difference_distances_par(query, others, window)?;
        Ok(CandidateSet {
            query: query.oid(),
            window: *window,
            fs,
        })
    }

    /// The query trajectory's id.
    pub fn query(&self) -> Oid {
        self.query
    }

    /// The query window.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// The candidate distance functions, in input order.
    pub fn functions(&self) -> &[DistanceFunction] {
        &self.fs
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.fs.len()
    }

    /// `true` when no candidate survived construction.
    pub fn is_empty(&self) -> bool {
        self.fs.is_empty()
    }

    /// Consumes the set, yielding the raw distance functions (the k-NN
    /// path and the naive baselines want these directly).
    pub fn into_functions(self) -> Vec<DistanceFunction> {
        self.fs
    }

    /// Consumes the set into the forward engine of §4 (shared radius).
    ///
    /// # Panics
    ///
    /// Panics when the set is empty or `radius` is not positive (the
    /// [`QueryEngine::new`] contract).
    pub fn into_query_engine(self, radius: f64) -> QueryEngine {
        QueryEngine::new(self.query, self.fs, radius)
    }

    /// Consumes the set into the heterogeneous-radii engine of §7.
    /// `radii` pairs with the candidates in order.
    ///
    /// # Panics
    ///
    /// Panics when `radii.len()` differs from the candidate count or any
    /// radius is invalid (the [`HeteroEngine::new`] contract).
    pub fn into_hetero_engine(self, radii: &[f64], query_radius: f64) -> HeteroEngine {
        assert_eq!(
            radii.len(),
            self.fs.len(),
            "one radius per candidate required"
        );
        let cands: Vec<HeteroCandidate> = self
            .fs
            .into_iter()
            .zip(radii)
            .map(|(f, &radius)| HeteroCandidate { f, radius })
            .collect();
        HeteroEngine::new(self.query, cands, query_radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Quantifier;

    fn straight(oid: u64, y: f64) -> Trajectory {
        Trajectory::from_triples(Oid(oid), &[(0.0, y, 0.0), (10.0, y, 10.0)]).unwrap()
    }

    #[test]
    fn sequential_and_parallel_builds_agree() {
        let query = straight(0, 0.0);
        let others: Vec<Trajectory> = (1..200).map(|k| straight(k, k as f64)).collect();
        let refs: Vec<&Trajectory> = others.iter().collect();
        let w = TimeInterval::new(0.0, 10.0);
        let seq = CandidateSet::build(&query, others.iter(), &w).unwrap();
        let par = CandidateSet::build_par(&query, &refs, &w).unwrap();
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.functions().iter().zip(par.functions()) {
            assert_eq!(a.owner(), b.owner());
            for t in [0.0, 2.5, 7.5, 10.0] {
                assert_eq!(a.eval(t), b.eval(t));
            }
        }
    }

    #[test]
    fn skips_the_query_itself_and_feeds_engines() {
        let trs: Vec<Trajectory> = vec![straight(0, 0.0), straight(1, 1.0), straight(2, 5.0)];
        let w = TimeInterval::new(0.0, 10.0);
        let set = CandidateSet::build(&trs[0], trs.iter(), &w).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.query(), Oid(0));
        let engine = set.clone().into_query_engine(0.5);
        assert_eq!(engine.uq11_exists(Oid(1)), Some(true));
        let hetero = set.into_hetero_engine(&[0.5, 0.5], 0.5);
        assert!(Quantifier::Exists.holds(&hetero.possible_intervals(Oid(1)).unwrap(), w));
    }

    #[test]
    fn propagates_window_errors() {
        let trs = [straight(0, 0.0), straight(1, 1.0)];
        let w = TimeInterval::new(0.0, 50.0);
        assert!(CandidateSet::build(&trs[0], trs.iter(), &w).is_err());
    }
}
