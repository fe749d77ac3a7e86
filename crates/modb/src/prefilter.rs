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
//!
//! # The epoch-box table
//!
//! A box depends on one object, the window and the epoch count — not on
//! the query. [`EpochBoxes`] therefore holds **every** object's corridor
//! boxes for one `(window, epochs)` pair, one row per object, and a plan
//! is a scan of it ([`EpochBoxes::prefilter`]): one `max_dist_xy` pass
//! for the per-epoch bounds, one `min_dist_xy` pass for the test. The
//! table lives with the data: [`crate::snapshot::QuerySnapshot`] builds
//! it on the first plan that asks for it and carries it across a store
//! delta, sharing the rows of surviving objects and computing only the
//! rows of inserted or updated ones — the per-object map applied to the
//! delta only. A row stores x/y extents (the epoch index implies the
//! time range) and is `Arc`-shared by every table carried from the one
//! that computed it, so a carry allocates only the changed rows.

use std::fmt;
use std::sync::Arc;
use unn_geom::interval::TimeInterval;
use unn_traj::trajectory::Trajectory;
use unn_traj::uncertain::UncertainTrajectory;

/// A 3D axis-aligned box over `(x, y, t)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb3 {
    /// Minimum corner `(x, y, t)`.
    pub min: [f64; 3],
    /// Maximum corner `(x, y, t)`.
    pub max: [f64; 3],
}

impl Aabb3 {
    /// Creates a box from corners.
    ///
    /// # Panics
    ///
    /// Panics when any min exceeds the corresponding max or a bound is not
    /// finite.
    pub fn new(min: [f64; 3], max: [f64; 3]) -> Self {
        for d in 0..3 {
            assert!(
                min[d].is_finite() && max[d].is_finite() && min[d] <= max[d],
                "invalid box bounds on axis {d}: [{}, {}]",
                min[d],
                max[d]
            );
        }
        Aabb3 { min, max }
    }

    /// `true` when the closed boxes share a point.
    pub fn intersects(&self, other: &Aabb3) -> bool {
        (0..3).all(|d| self.min[d] <= other.max[d] && other.min[d] <= self.max[d])
    }

    /// Expands the spatial extent (x, y) by `pad` on every side.
    pub fn inflate_xy(&self, pad: f64) -> Aabb3 {
        Aabb3 {
            min: [self.min[0] - pad, self.min[1] - pad, self.min[2]],
            max: [self.max[0] + pad, self.max[1] + pad, self.max[2]],
        }
    }

    /// Smallest distance between the `(x, y)` projections of two boxes
    /// (zero when they overlap spatially).
    pub fn min_dist_xy(&self, other: &Aabb3) -> f64 {
        let dx = (self.min[0] - other.max[0])
            .max(other.min[0] - self.max[0])
            .max(0.0);
        let dy = (self.min[1] - other.max[1])
            .max(other.min[1] - self.max[1])
            .max(0.0);
        (dx * dx + dy * dy).sqrt()
    }

    /// Largest distance between the `(x, y)` projections of two boxes.
    pub fn max_dist_xy(&self, other: &Aabb3) -> f64 {
        let dx = (self.max[0] - other.min[0])
            .abs()
            .max((other.max[0] - self.min[0]).abs());
        let dy = (self.max[1] - other.min[1])
            .abs()
            .max((other.max[1] - self.min[1]).abs());
        (dx * dx + dy * dy).sqrt()
    }
}

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

/// Every object's corridor boxes over the epochs of one window: row `i`
/// holds the `epochs` boxes of the `i`-th object it was built over (module
/// docs, "The epoch-box table").
pub struct EpochBoxes {
    window: TimeInterval,
    epochs: usize,
    /// Per object, `[min x, min y, max x, max y]` per epoch.
    rows: Vec<Arc<[[f64; 4]]>>,
    /// Boxes computed rather than shared with a predecessor table.
    computed: usize,
}

impl fmt::Debug for EpochBoxes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochBoxes")
            .field("window", &self.window)
            .field("epochs", &self.epochs)
            .field("rows", &self.len())
            .field("computed", &self.computed)
            .finish()
    }
}

impl EpochBoxes {
    /// An empty table for `window` split into `epochs` (at least one)
    /// equal epochs, with room for `rows` objects.
    pub(crate) fn with_capacity(window: TimeInterval, epochs: usize, rows: usize) -> Self {
        let epochs = epochs.max(1);
        EpochBoxes {
            window,
            epochs,
            rows: Vec::with_capacity(rows),
            computed: 0,
        }
    }

    /// Builds the table over `objects`, every box computed.
    pub fn compute(objects: &[UncertainTrajectory], window: TimeInterval, epochs: usize) -> Self {
        let mut table = Self::with_capacity(window, epochs, objects.len());
        for o in objects {
            table.push_computed(o.trajectory());
        }
        table
    }

    /// Appends a row computed from `tr`.
    pub(crate) fn push_computed(&mut self, tr: &Trajectory) {
        let row = (0..self.epochs)
            .map(|e| {
                let (t0, t1) = self.epoch_span(e);
                let b = corridor_box(tr, t0, t1);
                [b.min[0], b.min[1], b.max[0], b.max[1]]
            })
            .collect();
        self.rows.push(row);
        self.computed += self.epochs;
    }

    /// Appends `from`'s row `i` (a table of the same window and epochs),
    /// shared.
    pub(crate) fn push_shared(&mut self, from: &EpochBoxes, i: usize) {
        debug_assert_eq!(self.epochs, from.epochs);
        self.rows.push(Arc::clone(&from.rows[i]));
    }

    /// The window the epochs split.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// The number of epochs per row.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// The number of rows (objects).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Boxes this table computed rather than shared with the table it
    /// was carried from (all of them for a table built cold).
    pub fn computed_boxes(&self) -> usize {
        self.computed
    }

    /// `[t0, t1]` of epoch `e`.
    fn epoch_span(&self, e: usize) -> (f64, f64) {
        let step = self.window.len() / self.epochs as f64;
        let t0 = self.window.start() + e as f64 * step;
        (t0, (t0 + step).min(self.window.end()))
    }

    /// Object `i`'s corridor box in epoch `e`.
    pub fn get(&self, i: usize, e: usize) -> Aabb3 {
        let (t0, t1) = self.epoch_span(e);
        in_epoch(&self.rows[i][e], t0, t1)
    }

    /// The epoch-box prefilter: the rows (ascending, `query` excluded)
    /// that *might* have non-zero probability of being the NN of row
    /// `query` somewhere in the window, by the conservative min/max box
    /// distance rule (module docs).
    pub fn prefilter(&self, query: usize, radius: f64) -> Vec<usize> {
        let delta = 4.0 * radius;
        let qrow: Vec<Aabb3> = (0..self.epochs).map(|e| self.get(query, e)).collect();
        // Object `i`'s boxes, each over its epoch's time range.
        let boxes = |i: usize| {
            qrow.iter()
                .zip(self.rows[i].iter())
                .map(|(q, ext)| (q, in_epoch(ext, q.min[2], q.max[2])))
        };
        let others = (0..self.len()).filter(|&i| i != query);
        // Upper bound on the envelope within each epoch.
        let mut upper = vec![f64::INFINITY; self.epochs];
        for i in others.clone() {
            for (u, (q, b)) in upper.iter_mut().zip(boxes(i)) {
                *u = u.min(b.max_dist_xy(q));
            }
        }
        others
            .filter(|&i| {
                boxes(i)
                    .zip(&upper)
                    .any(|((q, b), u)| b.min_dist_xy(q) <= u + delta)
            })
            .collect()
    }
}

/// The box of x/y extents `ext` over `[t0, t1]`.
fn in_epoch(ext: &[f64; 4], t0: f64, t1: f64) -> Aabb3 {
    Aabb3 {
        min: [ext[0], ext[1], t0],
        max: [ext[2], ext[3], t1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_traj::generator::{generate_uncertain, WorkloadConfig};
    use unn_traj::trajectory::{Oid, Trajectory};

    fn tr(oid: u64, pts: &[(f64, f64, f64)]) -> UncertainTrajectory {
        UncertainTrajectory::with_uniform_pdf(Trajectory::from_triples(Oid(oid), pts).unwrap(), 0.5)
            .unwrap()
    }

    /// The kept objects' ids for query row 0.
    fn kept(trs: &[UncertainTrajectory], window: TimeInterval, epochs: usize) -> Vec<Oid> {
        EpochBoxes::compute(trs, window, epochs)
            .prefilter(0, 0.5)
            .into_iter()
            .map(|i| trs[i].oid())
            .collect()
    }

    #[test]
    fn obvious_cases() {
        let trs = vec![
            tr(0, &[(0.0, 0.0, 0.0), (10.0, 0.0, 10.0)]),
            tr(1, &[(0.0, 1.0, 0.0), (10.0, 1.0, 10.0)]), // near
            tr(2, &[(0.0, 500.0, 0.0), (10.0, 500.0, 10.0)]), // far
        ];
        let kept = kept(&trs, TimeInterval::new(0.0, 10.0), 4);
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
            let pre = kept(&trs, window, epochs);
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
        let coarse = kept(&trs, window, 1);
        let fine = kept(&trs, window, 12);
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
        assert!(kept(&trs, TimeInterval::new(0.0, 10.0), 4).is_empty());
    }

    #[test]
    fn intersection_is_closed() {
        let a = Aabb3::new([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]);
        let b = Aabb3::new([0.5, 0.5, 0.5], [2.0, 2.0, 2.0]);
        assert!(a.intersects(&b));
        let c = Aabb3::new([3.0, 3.0, 3.0], [4.0, 4.0, 4.0]);
        assert!(!a.intersects(&c));
        // Touching boxes intersect (closed semantics).
        let d = Aabb3::new([1.0, 0.0, 0.0], [2.0, 1.0, 1.0]);
        assert!(a.intersects(&d));
    }

    #[test]
    fn inflate_only_spatial() {
        let a = Aabb3::new([0.0, 0.0, 5.0], [1.0, 1.0, 6.0]);
        let b = a.inflate_xy(0.5);
        assert_eq!(b.min, [-0.5, -0.5, 5.0]);
        assert_eq!(b.max, [1.5, 1.5, 6.0]);
    }

    #[test]
    fn xy_distances() {
        let a = Aabb3::new([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]);
        let b = Aabb3::new([4.0, 5.0, 0.0], [5.0, 6.0, 1.0]);
        // Gap of 3 in x, 4 in y -> 5 diagonally.
        assert!((a.min_dist_xy(&b) - 5.0).abs() < 1e-12);
        assert_eq!(b.min_dist_xy(&a), a.min_dist_xy(&b));
        // Farthest corners: (0,0) to (5,6).
        let expected = (25.0f64 + 36.0).sqrt();
        assert!((a.max_dist_xy(&b) - expected).abs() < 1e-12);
        // Overlapping boxes have zero min distance; time is ignored.
        let c = Aabb3::new([0.5, 0.5, 100.0], [2.0, 2.0, 200.0]);
        assert_eq!(a.min_dist_xy(&c), 0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_bounds_panic() {
        let _ = Aabb3::new([1.0, 0.0, 0.0], [0.0, 1.0, 1.0]);
    }
}
