//! Incremental **probability rows**: the diffable representation behind
//! threshold (`PROB_NN(…) > p`) and reverse (`PROB_RNN`) standing
//! queries.
//!
//! The banded [`crate::answer::AnswerSet`] algebra maintains *non-zero
//! probability* qualification intervals, but the §7 threshold semantics
//! need the actual `P^NN(t)` values and the reverse semantics need one
//! such row per *perspective* object. A [`ProbRowSet`] materializes both
//! as sampled probability rows: for every object, the `(sample index,
//! P)` pairs at the probe instants where the object's difference
//! function was inside the `4r` band — exactly the instants whose joint
//! Eq. 5 evaluation included that function. The sparse index set **is**
//! the row's provenance: the owners holding a point at column `k` are
//! precisely the difference functions that produced every `P` value of
//! that column, so a delta consumer can tell which columns a touched
//! function can have influenced without re-deriving anything.
//!
//! [`ProbRowDelta`] is the exact diff of two row sets — the
//! [`crate::keyed`] algebra instantiated for rows, as
//! [`crate::answer::AnswerDelta`] is for intervals:
//! `old.apply(&old.diff_to(&new, e)) == new` bit-for-bit, and
//! consecutive deltas compose via [`ProbRowDelta::then`]. The
//! subscription layer streams these to threshold/RNN standing-query
//! consumers the same way it streams interval deltas to forward ones.
//!
//! The sampling scheme (probes at the midpoints of `samples` equal
//! slices) is shared with [`crate::threshold`]'s single-instant probe,
//! and a one-shot threshold statement renders the same rows a standing
//! query maintains, so the two agree bit-for-bit by construction.

use crate::answer::AnswerSet;
use crate::keyed::{self, Keyed};
use unn_geom::interval::TimeInterval;
use unn_traj::trajectory::Oid;

/// The probe instant of column `k`: the midpoint of the k-th of `samples`
/// equal slices of `window`. Every row producer and every one-shot
/// threshold view places its probes here, which is what makes their
/// columns comparable bit-for-bit.
pub fn probe_time(window: TimeInterval, samples: u32, k: u32) -> f64 {
    window.start() + (k as f64 + 0.5) * window.len() / samples as f64
}

/// The inverse of [`probe_time`]: the column whose slice contains `t`
/// (instants outside the window clamp to the first / last column).
pub fn probe_column(window: TimeInterval, samples: u32, t: f64) -> u32 {
    let frac = ((t - window.start()) / window.len()).clamp(0.0, 1.0);
    ((frac * samples as f64) as u32).min(samples - 1)
}

/// Which side of the NN relation the rows describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowPerspective {
    /// Forward rows: `P^NN` of each candidate being the **query's**
    /// nearest neighbor (the threshold-query substrate).
    Forward,
    /// Reverse rows: `P^NN` of the query being each **perspective
    /// object's** nearest neighbor (the `PROB_RNN` substrate).
    Reverse,
}

/// One object's sampled probability row.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbRow {
    /// The object the row describes (forward: the candidate; reverse:
    /// the perspective object).
    pub oid: Oid,
    /// `(sample index, P)` pairs, ascending by index — present exactly
    /// at the probes where the owner's difference function was in-band
    /// (non-empty by construction).
    pub points: Vec<(u32, f64)>,
}

impl Keyed for ProbRow {
    fn key(&self) -> Oid {
        self.oid
    }
}

impl ProbRow {
    /// The row's probability at sample `k`, if the object was in-band
    /// there.
    pub fn at(&self, k: u32) -> Option<f64> {
        self.points
            .binary_search_by_key(&k, |p| p.0)
            .ok()
            .map(|i| self.points[i].1)
    }

    /// Fraction of the set's probes where the row exceeds `p`.
    fn hits_above(&self, p: f64) -> usize {
        self.points.iter().filter(|(_, prob)| *prob > p).count()
    }
}

/// A diffable set of sampled probability rows: stable object ids with
/// their `P(t)` samples, ascending by id.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbRowSet {
    query: Oid,
    window: TimeInterval,
    perspective: RowPerspective,
    samples: u32,
    rows: Vec<ProbRow>,
}

impl ProbRowSet {
    /// A row set over `rows` (any order; empty rows are dropped, the
    /// rest sorted by id).
    ///
    /// # Panics
    ///
    /// Debug-panics on duplicate ids or point indices at/above
    /// `samples`.
    pub fn new(
        query: Oid,
        window: TimeInterval,
        perspective: RowPerspective,
        samples: u32,
        rows: Vec<ProbRow>,
    ) -> Self {
        let mut rows: Vec<ProbRow> = rows.into_iter().filter(|r| !r.points.is_empty()).collect();
        rows.sort_by_key(|r| r.oid);
        debug_assert!(
            rows.windows(2).all(|w| w[0].oid < w[1].oid),
            "duplicate object id in row set"
        );
        debug_assert!(rows.iter().all(|r| {
            r.points.windows(2).all(|w| w[0].0 < w[1].0)
                && r.points.last().map(|p| p.0 < samples).unwrap_or(true)
        }));
        ProbRowSet {
            query,
            window,
            perspective,
            samples,
            rows,
        }
    }

    /// An empty row set (used when the query object leaves the MOD).
    pub fn empty(
        query: Oid,
        window: TimeInterval,
        perspective: RowPerspective,
        samples: u32,
    ) -> Self {
        ProbRowSet::new(query, window, perspective, samples, Vec::new())
    }

    /// The query trajectory's id.
    pub fn query(&self) -> Oid {
        self.query
    }

    /// The query window.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// Forward or reverse rows.
    pub fn perspective(&self) -> RowPerspective {
        self.perspective
    }

    /// Number of probe instants the window was sampled at.
    pub fn samples(&self) -> u32 {
        self.samples
    }

    /// The probe instant of sample `k` ([`probe_time`] on this set's
    /// grid).
    pub fn sample_time(&self, k: u32) -> f64 {
        probe_time(self.window, self.samples, k)
    }

    /// The rows, ascending by id.
    pub fn rows(&self) -> &[ProbRow] {
        &self.rows
    }

    /// Number of objects holding at least one sample.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no object holds a sample.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row of `oid`, if it holds any sample.
    pub fn row_of(&self, oid: Oid) -> Option<&ProbRow> {
        self.rows
            .binary_search_by_key(&oid, |r| r.oid)
            .ok()
            .map(|i| &self.rows[i])
    }

    /// Fraction of the probes where `oid`'s probability exceeds `p`
    /// (zero for absent objects).
    pub fn fraction_above(&self, oid: Oid, p: f64) -> f64 {
        self.row_of(oid)
            .map(|r| r.hits_above(p) as f64 / self.samples as f64)
            .unwrap_or(0.0)
    }

    /// Mean probability of `oid` over the probes where it was in-band.
    pub fn mean_probability(&self, oid: Oid) -> f64 {
        self.row_of(oid)
            .map(|r| r.points.iter().map(|(_, p)| p).sum::<f64>() / r.points.len().max(1) as f64)
            .unwrap_or(0.0)
    }

    /// The rows restricted to the probes inside each object's intervals
    /// in `answer` (an object it does not list keeps none): the instants
    /// where the probability rows and an interval predicate — a rank
    /// bound's [`crate::query::QueryEngine::ranked_answer_set`] — hold
    /// together.
    pub fn within(&self, answer: &AnswerSet) -> ProbRowSet {
        let rows = self
            .rows
            .iter()
            .filter_map(|r| {
                let iv = answer.intervals_of(r.oid)?;
                let points = r
                    .points
                    .iter()
                    .copied()
                    .filter(|(k, _)| iv.covers(self.sample_time(*k)))
                    .collect();
                Some(ProbRow { oid: r.oid, points })
            })
            .collect();
        ProbRowSet::new(
            self.query,
            self.window,
            self.perspective,
            self.samples,
            rows,
        )
    }

    /// `true` when the two sets describe the same standing query (same
    /// query object, window bits, perspective, and sample count) and may
    /// therefore be diffed/patched against each other.
    pub fn same_shape(&self, other: &ProbRowSet) -> bool {
        self.query == other.query
            && self.window.start().to_bits() == other.window.start().to_bits()
            && self.window.end().to_bits() == other.window.end().to_bits()
            && self.perspective == other.perspective
            && self.samples == other.samples
    }

    /// Every `(owner, probe, P bits)` — what the bit-identity tests
    /// compare (`==` on `f64` would let `-0.0` pass for `0.0`).
    #[cfg(test)]
    pub(crate) fn bits(&self) -> Vec<(Oid, u32, u64)> {
        self.rows
            .iter()
            .flat_map(|r| r.points.iter().map(move |&(k, p)| (r.oid, k, p.to_bits())))
            .collect()
    }

    /// The delta transforming `self` into `newer`, tagged with the store
    /// epoch `newer` was computed at.
    ///
    /// # Panics
    ///
    /// Panics when the sets have different shapes (debug builds).
    pub fn diff_to(&self, newer: &ProbRowSet, epoch: u64) -> ProbRowDelta {
        debug_assert!(self.same_shape(newer), "diff of unrelated row sets");
        let (upserts, removed) = keyed::diff(&self.rows, &newer.rows);
        ProbRowDelta {
            epoch,
            samples: self.samples,
            upserts,
            removed,
        }
    }

    /// Applies a delta, yielding the patched set. Upserts replace (or
    /// add) rows; removals of absent ids are ignored, so composed deltas
    /// stay applicable.
    ///
    /// # Panics
    ///
    /// Debug-panics when the delta's probe count differs from the
    /// set's.
    pub fn apply(&self, delta: &ProbRowDelta) -> ProbRowSet {
        debug_assert_eq!(self.samples, delta.samples, "delta of another density");
        let rows = keyed::apply(&self.rows, &delta.upserts, &delta.removed);
        ProbRowSet::new(
            self.query,
            self.window,
            self.perspective,
            self.samples,
            rows,
        )
    }
}

/// The difference between two row sets of one standing query: the
/// objects whose sampled rows changed (with their new content) and the
/// objects no longer holding any sample.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbRowDelta {
    /// The store epoch the rows advanced to.
    pub epoch: u64,
    /// The probe count of the row sets the delta transforms between —
    /// part of the delta's shape, so consumers (the wire codec in
    /// particular) can range-check every sample index without the full
    /// row set at hand.
    pub samples: u32,
    /// New or changed rows (their full new content), ascending by id.
    pub upserts: Vec<ProbRow>,
    /// Ids that held samples before and no longer do, ascending.
    pub removed: Vec<Oid>,
}

impl ProbRowDelta {
    /// A delta carrying no change over `samples`-probe rows.
    pub fn noop(epoch: u64, samples: u32) -> Self {
        ProbRowDelta {
            epoch,
            samples,
            upserts: Vec::new(),
            removed: Vec::new(),
        }
    }

    /// `true` when applying the delta would change nothing.
    pub fn is_empty(&self) -> bool {
        self.upserts.is_empty() && self.removed.is_empty()
    }

    /// Number of changed objects (upserts + removals).
    pub fn touched(&self) -> usize {
        self.upserts.len() + self.removed.len()
    }

    /// Composes `self` (applied first) with `next` (applied second):
    /// `s.apply(&d1).apply(&d2) == s.apply(&d1.then(&d2))`. The result
    /// carries `next`'s epoch. Bounded change feeds squash their oldest
    /// entries with this, exactly like
    /// [`crate::answer::AnswerDelta::then`].
    pub fn then(&self, next: &ProbRowDelta) -> ProbRowDelta {
        debug_assert_eq!(self.samples, next.samples, "composing across densities");
        let (upserts, removed) = keyed::then(
            (&self.upserts, &self.removed),
            (&next.upserts, &next.removed),
        );
        ProbRowDelta {
            epoch: next.epoch,
            samples: self.samples,
            upserts,
            removed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(oid: u64, points: &[(u32, f64)]) -> ProbRow {
        ProbRow {
            oid: Oid(oid),
            points: points.to_vec(),
        }
    }

    fn set(rows: Vec<ProbRow>) -> ProbRowSet {
        ProbRowSet::new(
            Oid(0),
            TimeInterval::new(0.0, 10.0),
            RowPerspective::Forward,
            8,
            rows,
        )
    }

    #[test]
    fn construction_sorts_drops_empty_and_samples_probes() {
        let s = set(vec![
            row(5, &[(0, 0.5), (3, 0.9)]),
            row(2, &[(1, 0.25)]),
            row(9, &[]),
        ]);
        let oids: Vec<u64> = s.rows().iter().map(|r| r.oid.0).collect();
        assert_eq!(oids, vec![2, 5]);
        assert!(s.row_of(Oid(9)).is_none());
        assert_eq!(s.row_of(Oid(5)).unwrap().at(3), Some(0.9));
        assert_eq!(s.row_of(Oid(5)).unwrap().at(2), None);
        // Probe instants are slice midpoints.
        assert_eq!(s.sample_time(0), 0.625);
        assert_eq!(s.sample_time(7), 9.375);
        // ... and `probe_column` maps every instant of a slice back to it.
        for k in 0..8 {
            assert_eq!(probe_column(s.window(), 8, s.sample_time(k)), k);
        }
        assert_eq!(probe_column(s.window(), 8, 1.25), 1);
        assert_eq!(probe_column(s.window(), 8, -3.0), 0);
        assert_eq!(probe_column(s.window(), 8, 10.0), 7);
        // Threshold views.
        assert_eq!(s.fraction_above(Oid(5), 0.4), 2.0 / 8.0);
        assert_eq!(s.fraction_above(Oid(5), 0.7), 1.0 / 8.0);
        assert_eq!(s.fraction_above(Oid(9), 0.0), 0.0);
        assert!((s.mean_probability(Oid(5)) - 0.7).abs() < 1e-12);
    }

    // The diff/apply/then laws are checked once, generically, in
    // `crate::keyed`; only what is specific to this representation
    // stays here.
    #[test]
    fn deltas_carry_the_newer_epoch_and_the_probe_count() {
        let s0 = set(vec![row(1, &[(0, 0.2)])]);
        let s1 = set(vec![row(1, &[(0, 0.5)])]);
        let (d1, d2) = (s0.diff_to(&s1, 41), s1.diff_to(&s0, 42));
        assert_eq!((d1.epoch, d1.samples), (41, 8));
        let squashed = d1.then(&d2);
        assert_eq!((squashed.epoch, squashed.samples), (42, 8));
        assert_eq!(s1.diff_to(&s1, 43).samples, 8);
        assert_eq!(s1.apply(&ProbRowDelta::noop(43, 8)), s1);
    }

    #[test]
    fn perspective_and_samples_are_part_of_the_shape() {
        let a = set(vec![row(1, &[(0, 0.5)])]);
        let reversed = ProbRowSet::empty(
            Oid(0),
            TimeInterval::new(0.0, 10.0),
            RowPerspective::Reverse,
            8,
        );
        let resampled = ProbRowSet::empty(
            Oid(0),
            TimeInterval::new(0.0, 10.0),
            RowPerspective::Forward,
            16,
        );
        assert!(!a.same_shape(&reversed));
        assert!(!a.same_shape(&resampled));
        assert!(a.same_shape(&a.clone()));
    }
}
