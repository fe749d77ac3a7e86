//! Query planning: the middle stage of the snapshot → prefilter →
//! envelope → execute pipeline.
//!
//! A [`QueryPlanner`] resolves, **once per query**, every invariant the
//! engines relied on individually: the snapshot is taken (shared, no
//! clones), the window and query object are validated, the common
//! uncertainty radius is established (or per-object radii collected for
//! the §7 heterogeneous path), and the coarse prefilter — the epoch-box
//! scan, or none, chosen by [`PrefilterPolicy`] — reduces the candidate
//! population before any difference trajectory is built. The scan keeps a
//! provable superset of the exact `4r`-band survivors, so the resulting
//! answers are identical to the exhaustive path; only the preprocessing
//! cost changes.
//!
//! The scan computes no box: it reads the snapshot's epoch-box table for
//! the window ([`QuerySnapshot::epoch_boxes`]), which the first plan on a
//! snapshot builds and a delta-derived snapshot carries from its
//! predecessor with only the changed objects' rows recomputed. A plan
//! is then one bound pass and one test pass over cached boxes, and it
//! yields snapshot positions directly.

use crate::snapshot::QuerySnapshot;
use std::fmt;
use std::sync::Arc;
use unn_core::candidates::CandidateSet;
use unn_core::hetero::HeteroEngine;
use unn_core::query::QueryEngine;
use unn_core::reverse::ReverseNnEngine;
use unn_geom::interval::TimeInterval;
use unn_traj::difference::DifferenceError;
use unn_traj::trajectory::{Oid, Trajectory};
use unn_traj::uncertain::common_radius;

/// How the planner narrows the candidate population before envelope
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefilterPolicy {
    /// No prefilter: every non-query object becomes a candidate. Required
    /// by consumers that need the full population (crisp k-NN), useful as
    /// the identity baseline.
    Exhaustive,
    /// The analytic epoch-box scan ([`crate::prefilter::EpochBoxes`]),
    /// `O(N · epochs)` over the snapshot's carried box table.
    Scan {
        /// Temporal granularity (more epochs = tighter filter).
        epochs: usize,
    },
}

impl Default for PrefilterPolicy {
    fn default() -> Self {
        PrefilterPolicy::Scan { epochs: 8 }
    }
}

impl PrefilterPolicy {
    /// A stable discriminant used in engine-cache keys.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            PrefilterPolicy::Exhaustive => 0,
            PrefilterPolicy::Scan { .. } => 1,
        }
    }

    /// `true` when engines planned under this policy may be **carried**
    /// across a store delta (see [`crate::cache::EngineCache`]).
    ///
    /// Every prefiltering policy answers through the `4r`-band semantics,
    /// so an engine provably untouched by the delta keeps answering
    /// identically. `Exhaustive` engines are excluded: they also serve
    /// full-population consumers (crisp continuous k-NN), whose answers
    /// are *not* band-bounded — an insertion far outside the band can
    /// still enter a rank-k cell — so they must be rebuilt on any epoch
    /// change.
    pub fn allows_carry(&self) -> bool {
        !matches!(self, PrefilterPolicy::Exhaustive)
    }
}

impl fmt::Display for PrefilterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefilterPolicy::Exhaustive => write!(f, "exhaustive"),
            PrefilterPolicy::Scan { epochs } => write!(f, "scan({epochs})"),
        }
    }
}

/// Errors raised while planning a query.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The MOD holds fewer than two trajectories.
    NotEnoughObjects,
    /// The query object is not registered.
    UnknownObject(Oid),
    /// The stored trajectories do not share one uncertainty radius.
    MixedRadii,
    /// The window is degenerate or outside the query's domain.
    Window(DifferenceError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NotEnoughObjects => {
                write!(f, "the MOD needs at least two trajectories")
            }
            PlanError::UnknownObject(oid) => write!(f, "unknown object {oid}"),
            PlanError::MixedRadii => {
                write!(f, "trajectories have differing uncertainty radii")
            }
            PlanError::Window(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Resolves query invariants and prefilters candidates for the engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryPlanner {
    policy: PrefilterPolicy,
}

impl QueryPlanner {
    /// A planner using `policy` for candidate prefiltering.
    pub fn new(policy: PrefilterPolicy) -> Self {
        QueryPlanner { policy }
    }

    /// The active prefilter policy.
    pub fn policy(&self) -> PrefilterPolicy {
        self.policy
    }

    /// Plans a homogeneous-radius query (the paper's standing
    /// assumption): validates the snapshot, window, and query object,
    /// resolves the shared radius, and runs the prefilter.
    pub fn plan(
        &self,
        snapshot: Arc<QuerySnapshot>,
        query: Oid,
        window: TimeInterval,
    ) -> Result<QueryPlan, PlanError> {
        let query_idx = Self::validate(&snapshot, query, window)?;
        let radius = common_radius(&snapshot).map_err(|_| PlanError::MixedRadii)?;
        let candidates = self.prefilter(&snapshot, query_idx, window, radius);
        Ok(QueryPlan {
            snapshot,
            query_idx,
            window,
            radius,
            candidates,
        })
    }

    /// Plans a heterogeneous-radii query (§7): same validation, but radii
    /// stay per-object and the candidate set is exhaustive (the `4r` box
    /// rule does not apply under mixed radii).
    pub fn plan_heterogeneous(
        &self,
        snapshot: Arc<QuerySnapshot>,
        query: Oid,
        window: TimeInterval,
    ) -> Result<QueryPlan, PlanError> {
        let query_idx = Self::validate(&snapshot, query, window)?;
        let radius = snapshot[query_idx].radius();
        let candidates = (0..snapshot.len()).filter(|&i| i != query_idx).collect();
        Ok(QueryPlan {
            snapshot,
            query_idx,
            window,
            radius,
            candidates,
        })
    }

    fn validate(
        snapshot: &QuerySnapshot,
        query: Oid,
        window: TimeInterval,
    ) -> Result<usize, PlanError> {
        if window.is_degenerate() {
            return Err(PlanError::Window(DifferenceError::DegenerateWindow));
        }
        if snapshot.len() < 2 {
            return Err(PlanError::NotEnoughObjects);
        }
        let query_idx = snapshot
            .index_of(query)
            .ok_or(PlanError::UnknownObject(query))?;
        Ok(query_idx)
    }

    /// Runs the configured prefilter, returning candidate positions in
    /// the snapshot (query excluded): a scan of the snapshot's epoch-box
    /// table for the window. Falls back to the exhaustive set if a filter
    /// ever returns empty, so engine construction always has at least one
    /// candidate.
    fn prefilter(
        &self,
        snapshot: &QuerySnapshot,
        query_idx: usize,
        window: TimeInterval,
        radius: f64,
    ) -> Vec<usize> {
        let kept = match self.policy {
            PrefilterPolicy::Exhaustive => Vec::new(),
            PrefilterPolicy::Scan { epochs } => snapshot
                .epoch_boxes(window, epochs)
                .prefilter(query_idx, radius),
        };
        if kept.is_empty() {
            // Exhaustive, or a degenerate filter result: all candidates.
            (0..snapshot.len()).filter(|&i| i != query_idx).collect()
        } else {
            kept
        }
    }
}

/// A planned query: the shared snapshot, resolved invariants, and the
/// prefiltered candidate set, ready to build any engine.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    snapshot: Arc<QuerySnapshot>,
    query_idx: usize,
    window: TimeInterval,
    radius: f64,
    /// Candidate positions in the snapshot, query excluded, ascending.
    candidates: Vec<usize>,
}

impl QueryPlan {
    /// The snapshot this plan executes against.
    pub fn snapshot(&self) -> &Arc<QuerySnapshot> {
        &self.snapshot
    }

    /// The query trajectory's id.
    pub fn query_oid(&self) -> Oid {
        self.snapshot[self.query_idx].oid()
    }

    /// The query trajectory.
    pub fn query_trajectory(&self) -> &Trajectory {
        self.snapshot[self.query_idx].trajectory()
    }

    /// The query window.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// The shared uncertainty radius (the query's own radius for
    /// heterogeneous plans).
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Candidates examined before prefiltering (MOD size minus the
    /// query).
    pub fn examined(&self) -> usize {
        self.snapshot.len() - 1
    }

    /// Candidates surviving the prefilter.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Borrowed candidate trajectories, in snapshot (id) order.
    pub fn candidate_trajectories(&self) -> Vec<&Trajectory> {
        self.candidates
            .iter()
            .map(|&i| self.snapshot[i].trajectory())
            .collect()
    }

    /// Per-candidate uncertainty radii, aligned with
    /// [`QueryPlan::candidate_trajectories`].
    pub fn candidate_radii(&self) -> Vec<f64> {
        self.candidates
            .iter()
            .map(|&i| self.snapshot[i].radius())
            .collect()
    }

    /// Builds the forward engine of §4 over the prefiltered candidates
    /// (parallel difference construction).
    pub fn build_engine(&self) -> Result<QueryEngine, DifferenceError> {
        let cands = self.candidate_trajectories();
        let set = CandidateSet::build_par(self.query_trajectory(), &cands, &self.window)?;
        Ok(set.into_query_engine(self.radius))
    }

    /// Builds the §7 heterogeneous-radii engine over the candidates.
    pub fn build_hetero_engine(&self) -> Result<HeteroEngine, DifferenceError> {
        let cands = self.candidate_trajectories();
        let set = CandidateSet::build_par(self.query_trajectory(), &cands, &self.window)?;
        Ok(set.into_hetero_engine(&self.candidate_radii(), self.radius))
    }

    /// Builds the §7 reverse-NN engine (all perspectives, parallel).
    /// Always uses the full population: every perspective object needs
    /// its own envelope over the whole MOD.
    pub fn build_reverse_engine(&self) -> Result<ReverseNnEngine, DifferenceError> {
        let all: Vec<&Trajectory> = self.snapshot.iter().map(|t| t.trajectory()).collect();
        ReverseNnEngine::build(&all, self.query_oid(), self.window, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_core::query::Quantifier;
    use unn_traj::generator::{generate_uncertain, WorkloadConfig};
    use unn_traj::trajectory::Trajectory;
    use unn_traj::uncertain::UncertainTrajectory;

    fn snapshot_of(trs: Vec<UncertainTrajectory>) -> Arc<QuerySnapshot> {
        Arc::new(QuerySnapshot::new(1, trs))
    }

    fn fleet(n: usize, seed: u64) -> Arc<QuerySnapshot> {
        snapshot_of(generate_uncertain(
            &WorkloadConfig::with_objects(n, seed),
            0.5,
        ))
    }

    #[test]
    fn validation_errors() {
        let w = TimeInterval::new(0.0, 60.0);
        let planner = QueryPlanner::default();
        let small = snapshot_of(vec![UncertainTrajectory::with_uniform_pdf(
            Trajectory::from_triples(Oid(0), &[(0.0, 0.0, 0.0), (1.0, 1.0, 60.0)]).unwrap(),
            0.5,
        )
        .unwrap()]);
        assert_eq!(
            planner.plan(small, Oid(0), w).unwrap_err(),
            PlanError::NotEnoughObjects
        );
        let snap = fleet(5, 1);
        assert_eq!(
            planner.plan(snap, Oid(99), w).unwrap_err(),
            PlanError::UnknownObject(Oid(99))
        );
    }

    #[test]
    fn the_scan_keeps_a_superset_of_band_survivors() {
        let snap = fleet(60, 23);
        let w = TimeInterval::new(0.0, 60.0);
        let exhaustive = QueryPlanner::new(PrefilterPolicy::Exhaustive)
            .plan(Arc::clone(&snap), Oid(0), w)
            .unwrap();
        let engine = exhaustive.build_engine().unwrap();
        let survivors: Vec<Oid> = engine.uq31_all().into_iter().map(|(oid, _)| oid).collect();
        let policy = PrefilterPolicy::Scan { epochs: 6 };
        let plan = QueryPlanner::new(policy)
            .plan(Arc::clone(&snap), Oid(0), w)
            .unwrap();
        let kept: Vec<Oid> = plan
            .candidate_trajectories()
            .iter()
            .map(|t| t.oid())
            .collect();
        for oid in &survivors {
            assert!(
                kept.contains(oid),
                "{policy}: band survivor {oid} was prefiltered out"
            );
        }
        assert!(plan.candidate_count() <= plan.examined());
    }

    #[test]
    fn heterogeneous_plan_skips_radius_check() {
        let mk = |oid: u64, y: f64, r: f64| {
            UncertainTrajectory::with_uniform_pdf(
                Trajectory::from_triples(Oid(oid), &[(0.0, y, 0.0), (10.0, y, 10.0)]).unwrap(),
                r,
            )
            .unwrap()
        };
        let snap = snapshot_of(vec![mk(0, 0.0, 0.3), mk(1, 1.0, 0.2), mk(2, 9.0, 3.0)]);
        let w = TimeInterval::new(0.0, 10.0);
        let planner = QueryPlanner::default();
        assert_eq!(
            planner.plan(Arc::clone(&snap), Oid(0), w).unwrap_err(),
            PlanError::MixedRadii
        );
        let plan = planner.plan_heterogeneous(snap, Oid(0), w).unwrap();
        assert_eq!(plan.radius(), 0.3);
        assert_eq!(plan.candidate_radii(), vec![0.2, 3.0]);
        let hetero = plan.build_hetero_engine().unwrap();
        assert!(Quantifier::Exists.holds(&hetero.possible_intervals(Oid(1)).unwrap(), w));
    }
}
