//! Diffable query answers: the common result representation every engine
//! produces and the delta algebra that lets answers be *maintained*
//! instead of recomputed.
//!
//! The §4 query variants all reduce to one underlying object: for each
//! candidate, the set of instants during which it qualifies (non-zero NN
//! probability, optionally restricted to rank `≤ k`). [`AnswerSet`]
//! materializes that as stable object ids plus per-object qualification
//! intervals, sorted by id, so two answers — from different engines,
//! epochs, or prefilter backends — can be compared structurally.
//!
//! [`AnswerDelta`] is the difference of two answer sets, an
//! instantiation of the [`crate::keyed`] algebra. It is exact (no
//! tolerance): `old.apply(&old.diff_to(&new, e)) == new` bit-for-bit,
//! and consecutive deltas compose via [`AnswerDelta::then`]. This is
//! what the MOD's subscription layer streams to standing-query
//! consumers: only the objects whose qualification intervals changed,
//! never the unchanged bulk of the answer.

use crate::keyed::{self, Keyed};
use unn_geom::interval::{IntervalSet, TimeInterval};
use unn_traj::trajectory::Oid;

/// One object's qualification intervals within an answer.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerEntry {
    /// The qualifying object.
    pub oid: Oid,
    /// Instants during which it qualifies (non-empty by construction —
    /// objects with empty interval sets are simply absent).
    pub intervals: IntervalSet,
}

impl Keyed for AnswerEntry {
    fn key(&self) -> Oid {
        self.oid
    }
}

impl AnswerEntry {
    /// Fraction of `window` during which the object qualifies.
    pub fn fraction(&self, window: TimeInterval) -> f64 {
        crate::query::window_fraction(&self.intervals, window)
    }
}

/// A diffable query answer: stable object ids with their qualification
/// intervals, ascending by id.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerSet {
    query: Oid,
    window: TimeInterval,
    rank: Option<usize>,
    entries: Vec<AnswerEntry>,
}

impl AnswerSet {
    /// An answer over `entries` (any order; empty-interval entries are
    /// dropped, the rest sorted by id).
    ///
    /// `rank` records the rank bound the intervals were computed under
    /// (`None` = plain non-zero-probability semantics); answers with
    /// different shapes never diff against each other.
    pub fn new(
        query: Oid,
        window: TimeInterval,
        rank: Option<usize>,
        entries: Vec<AnswerEntry>,
    ) -> Self {
        let mut entries: Vec<AnswerEntry> = entries
            .into_iter()
            .filter(|e| !e.intervals.is_empty())
            .collect();
        entries.sort_by_key(|e| e.oid);
        debug_assert!(
            entries.windows(2).all(|w| w[0].oid < w[1].oid),
            "duplicate object id in answer set"
        );
        AnswerSet {
            query,
            window,
            rank,
            entries,
        }
    }

    /// An empty answer (used when the query object leaves the MOD).
    pub fn empty(query: Oid, window: TimeInterval, rank: Option<usize>) -> Self {
        AnswerSet::new(query, window, rank, Vec::new())
    }

    /// The query trajectory's id.
    pub fn query(&self) -> Oid {
        self.query
    }

    /// The query window.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// The rank bound the answer was computed under.
    pub fn rank(&self) -> Option<usize> {
        self.rank
    }

    /// The qualifying objects, ascending by id.
    pub fn entries(&self) -> &[AnswerEntry] {
        &self.entries
    }

    /// Number of qualifying objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no object qualifies.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The qualification intervals of `oid`, if it qualifies at all.
    pub fn intervals_of(&self, oid: Oid) -> Option<&IntervalSet> {
        self.entries
            .binary_search_by_key(&oid, |e| e.oid)
            .ok()
            .map(|i| &self.entries[i].intervals)
    }

    /// Fraction of the window during which `oid` qualifies (zero for
    /// absent objects — a registered object outside the answer provably
    /// never qualifies).
    pub fn fraction_of(&self, oid: Oid) -> f64 {
        self.intervals_of(oid)
            .map_or(0.0, |iv| crate::query::window_fraction(iv, self.window))
    }

    /// The `(oid, intervals)` pairs, consumed (the shape the UQ3x/UQ4x
    /// engine APIs return).
    pub fn into_pairs(self) -> Vec<(Oid, IntervalSet)> {
        self.entries
            .into_iter()
            .map(|e| (e.oid, e.intervals))
            .collect()
    }

    /// `true` when the two answers describe the same standing query
    /// (same query object, window bits, and rank bound) and may therefore
    /// be diffed/patched against each other.
    pub fn same_shape(&self, other: &AnswerSet) -> bool {
        self.query == other.query
            && self.window.start().to_bits() == other.window.start().to_bits()
            && self.window.end().to_bits() == other.window.end().to_bits()
            && self.rank == other.rank
    }

    /// The delta transforming `self` into `newer`, tagged with the store
    /// epoch `newer` was computed at.
    ///
    /// # Panics
    ///
    /// Panics when the answers have different shapes (debug builds).
    pub fn diff_to(&self, newer: &AnswerSet, epoch: u64) -> AnswerDelta {
        debug_assert!(self.same_shape(newer), "diff of unrelated answers");
        let (upserts, removed) = keyed::diff(&self.entries, &newer.entries);
        AnswerDelta {
            epoch,
            upserts,
            removed,
        }
    }

    /// Applies a delta, yielding the patched answer. Upserts replace (or
    /// add) entries; removals of absent ids are ignored, so composed
    /// deltas stay applicable.
    pub fn apply(&self, delta: &AnswerDelta) -> AnswerSet {
        let entries = keyed::apply(&self.entries, &delta.upserts, &delta.removed);
        AnswerSet::new(self.query, self.window, self.rank, entries)
    }
}

/// The difference between two answers of one standing query: the objects
/// whose qualification intervals changed (with their new content) and the
/// objects that no longer qualify.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerDelta {
    /// The store epoch the answer advanced to.
    pub epoch: u64,
    /// New or changed entries (their full new intervals), ascending by id.
    pub upserts: Vec<AnswerEntry>,
    /// Ids that qualified before and no longer do, ascending.
    pub removed: Vec<Oid>,
}

impl AnswerDelta {
    /// A delta carrying no change.
    pub fn noop(epoch: u64) -> Self {
        AnswerDelta {
            epoch,
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

    /// Composes `self` (applied first) with `next` (applied second) into
    /// one delta: `a.apply(&d1).apply(&d2) == a.apply(&d1.then(&d2))`.
    /// The result carries `next`'s epoch. Used by bounded change feeds to
    /// squash their oldest entries instead of growing without limit —
    /// linear merges over the (ascending) lists, so repeated squashing
    /// against a full-answer-sized delta stays cheap.
    pub fn then(&self, next: &AnswerDelta) -> AnswerDelta {
        let (upserts, removed) = keyed::then(
            (&self.upserts, &self.removed),
            (&next.upserts, &next.removed),
        );
        AnswerDelta {
            epoch: next.epoch,
            upserts,
            removed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(spans: &[(f64, f64)]) -> IntervalSet {
        IntervalSet::from_intervals(spans.iter().map(|&(a, b)| TimeInterval::new(a, b)))
    }

    fn entry(oid: u64, spans: &[(f64, f64)]) -> AnswerEntry {
        AnswerEntry {
            oid: Oid(oid),
            intervals: iv(spans),
        }
    }

    fn answer(entries: Vec<AnswerEntry>) -> AnswerSet {
        AnswerSet::new(Oid(0), TimeInterval::new(0.0, 10.0), None, entries)
    }

    #[test]
    fn construction_sorts_and_drops_empty() {
        let a = answer(vec![
            entry(5, &[(0.0, 1.0)]),
            entry(2, &[(3.0, 4.0)]),
            entry(9, &[]),
        ]);
        let oids: Vec<u64> = a.entries().iter().map(|e| e.oid.0).collect();
        assert_eq!(oids, vec![2, 5]);
        assert!(a.intervals_of(Oid(9)).is_none());
        assert_eq!(a.fraction_of(Oid(2)), 0.1);
        assert_eq!(a.fraction_of(Oid(9)), 0.0);
    }

    // The diff/apply/then laws are checked once, generically, in
    // `crate::keyed`; only what is specific to this representation
    // stays here.
    #[test]
    fn deltas_carry_the_newer_epoch() {
        let a0 = answer(vec![entry(1, &[(0.0, 1.0)])]);
        let a1 = answer(vec![entry(1, &[(0.0, 2.0)])]);
        let (d1, d2) = (a0.diff_to(&a1, 41), a1.diff_to(&a0, 42));
        assert_eq!((d1.epoch, d2.epoch), (41, 42));
        assert_eq!(d1.then(&d2).epoch, 42);
        assert_eq!(a1.apply(&AnswerDelta::noop(43)), a1);
    }

    #[test]
    fn rank_is_part_of_the_shape() {
        let a = answer(vec![entry(1, &[(0.0, 1.0)])]);
        let ranked = AnswerSet::new(Oid(0), TimeInterval::new(0.0, 10.0), Some(2), vec![]);
        assert!(!a.same_shape(&ranked));
        assert!(a.same_shape(&a.clone()));
    }
}
