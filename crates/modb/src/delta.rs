//! The delta-epoch layer: mutation logging for incremental snapshot
//! maintenance.
//!
//! The paper's setting is a mostly-static MOD, but a production server
//! sees a steady stream of GPS updates. Re-copying and sorting the whole
//! store on each mutation costs `O(N log N)` per update; this module
//! records mutations as a bounded, epoch-tagged [`DeltaLog`] so that
//! [`crate::store::ModStore::snapshot`] can *reuse* the previous
//! [`crate::snapshot::QuerySnapshot`] and patch it in one merge pass
//! (DBSP-style incremental view maintenance, specialized to the MOD's
//! structures).
//!
//! The same log also powers the one forward carry proof,
//! [`ForwardProof`]: a forward engine built at an older epoch can keep
//! serving when every logged op since then provably cannot touch its
//! `4r` band. The subscription ladder skips a commit with it, and the
//! [`crate::cache::EngineCache`] carries a cached engine with it.

use crate::prefilter::{corridor_box, Aabb3};
use crate::snapshot::QuerySnapshot;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use unn_core::query::QueryEngine;
use unn_traj::trajectory::{Oid, Trajectory};
use unn_traj::uncertain::UncertainTrajectory;

/// One logged store mutation.
#[derive(Debug, Clone)]
pub enum DeltaOp {
    /// A trajectory was registered. The `Arc` is shared with the store's
    /// object map, so logging an insert costs a pointer, not a deep copy.
    Insert(Arc<UncertainTrajectory>),
    /// The trajectory with this id was unregistered.
    Remove(Oid),
}

/// A journaled / replicated store mutation: [`DeltaOp`] plus the
/// whole-store wipe, which the in-memory log models as history
/// invalidation ([`DeltaLog::invalidate`]) but a write-ahead log or a
/// replication stream must carry explicitly. One WAL frame / one
/// [`crate::net::wire::Frame::ReplDelta`] carries the `ReplOp`s of one
/// commit, in commit order, under one epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplOp {
    /// A trajectory was registered (also the second half of an update).
    Insert(Arc<UncertainTrajectory>),
    /// The trajectory with this id was unregistered (also the first half
    /// of an update).
    Remove(Oid),
    /// The whole store was wiped ([`crate::store::ModStore::clear`]).
    Clear,
}

impl From<&DeltaOp> for ReplOp {
    fn from(op: &DeltaOp) -> Self {
        match op {
            DeltaOp::Insert(tr) => ReplOp::Insert(Arc::clone(tr)),
            DeltaOp::Remove(oid) => ReplOp::Remove(*oid),
        }
    }
}

/// A [`DeltaOp`] tagged with the store epoch the mutation created.
#[derive(Debug, Clone)]
pub struct DeltaRecord {
    /// The epoch value *after* the mutation (each record's epoch is
    /// unique per mutation call; a bulk load shares one epoch).
    pub epoch: u64,
    /// The mutation.
    pub op: DeltaOp,
}

/// A bounded log of store mutations, complete for every epoch newer than
/// its floor.
///
/// The log never rewinds: records are appended in epoch order and the
/// oldest are discarded once `capacity` is exceeded, raising the floor.
/// Consumers ask for "every op since epoch `e`"; the answer is `None`
/// when `e` predates the floor (the history is incomplete there and the
/// consumer must fall back to a full rebuild).
///
/// ## Truncation contract
///
/// Truncation is **silent but detectable**: nothing notifies a consumer
/// when its base epoch falls off the log — the *only* safe access path is
/// [`DeltaLog::ops_since`], whose `None` answer is a hard "history
/// incomplete" signal. Every delta consumer (snapshot maintenance, the
/// engine-cache carry check, subscription answer maintenance) must treat
/// `None` as "rebuild from the live contents"; patching against a
/// truncated history would silently miss the evicted mutations and
/// diverge from the store. Eviction always drops *whole epochs*
/// (a half-evicted bulk load would be just such a silent gap), and
/// [`DeltaLog::invalidate`] models un-loggable whole-store mutations
/// (`clear`) as a truncation of everything. The regression tests in
/// `tests/delta_consistency.rs` pin this contract down for the
/// subscription layer.
#[derive(Debug)]
pub struct DeltaLog {
    records: VecDeque<DeltaRecord>,
    floor: u64,
    capacity: usize,
}

impl DeltaLog {
    /// An empty log retaining at most `capacity` records, complete from
    /// epoch 0.
    pub fn new(capacity: usize) -> Self {
        DeltaLog {
            records: VecDeque::new(),
            floor: 0,
            capacity: capacity.max(1),
        }
    }

    /// Appends a mutation performed at (post-mutation) `epoch`.
    ///
    /// # Panics
    ///
    /// Panics when `epoch` is older than the newest record:
    /// [`DeltaLog::ops_since`] binary-searches the epoch order.
    pub fn record(&mut self, epoch: u64, op: DeltaOp) {
        assert!(
            self.records.back().map_or(true, |r| r.epoch <= epoch),
            "delta log records must arrive in epoch order"
        );
        self.records.push_back(DeltaRecord { epoch, op });
        self.trim();
    }

    /// Evicts the oldest records down to the capacity, raising the floor.
    /// Every record at a dropped epoch becomes useless — the history at
    /// that epoch is no longer complete — so whole epochs go at once.
    fn trim(&mut self) {
        while self.records.len() > self.capacity {
            let dropped = self.records.pop_front().expect("len > capacity > 0");
            self.floor = self.floor.max(dropped.epoch);
        }
        while self
            .records
            .front()
            .map(|r| r.epoch <= self.floor)
            .unwrap_or(false)
        {
            self.records.pop_front();
        }
    }

    /// Forgets everything, marking history incomplete before `epoch`
    /// (used by `clear()`: an un-loggable whole-store mutation).
    pub fn invalidate(&mut self, epoch: u64) {
        self.records.clear();
        self.floor = epoch;
    }

    /// Changes the retention bound, evicting (whole epochs of) the oldest
    /// records if the log already exceeds the new capacity. Shrinking the
    /// bound is how tests force the truncation contract to fire without
    /// replaying thousands of mutations.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        self.trim();
    }

    /// Every op with epoch in `(base, now]`, oldest first, or `None` when
    /// the log is incomplete past `base`.
    pub fn ops_since(&self, base: u64) -> Option<Vec<&DeltaRecord>> {
        if base < self.floor {
            return None;
        }
        // Records are appended in epoch order: skip the absorbed prefix
        // by binary search, so a caller that is nearly current pays for
        // the ops it gets, not for the whole retained log.
        let start = self.records.partition_point(|r| r.epoch <= base);
        Some(self.records.range(start..).collect())
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The epoch at or before which history may be incomplete.
    pub fn floor(&self) -> u64 {
        self.floor
    }
}

/// The net effect of an op sequence against a base snapshot: the ids to
/// drop and the final content of new or updated objects.
///
/// A remove-then-reinsert of the same id collapses to one update; an
/// insert-then-remove collapses to nothing.
#[derive(Debug, Default)]
pub struct NetDelta {
    /// Ids present in the base snapshot that must be removed (including
    /// updated objects, which also appear in `inserted`).
    pub removed: Vec<Oid>,
    /// Final content of objects absent from (or changed since) the base
    /// snapshot, ascending by id.
    pub inserted: Vec<UncertainTrajectory>,
    /// Distinct oids touched (updates count once; cancelled
    /// insert-then-remove pairs count zero).
    touched: usize,
}

impl NetDelta {
    /// A net delta from explicit parts (`touched` = distinct ids across
    /// both lists).
    pub fn new(removed: Vec<Oid>, inserted: Vec<UncertainTrajectory>) -> NetDelta {
        let touched = removed
            .iter()
            .copied()
            .chain(inserted.iter().map(|t| t.oid()))
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        NetDelta {
            removed,
            inserted,
            touched,
        }
    }

    /// Collapses `ops` (oldest first) against `base`.
    pub fn from_ops<'a>(
        base: &QuerySnapshot,
        ops: impl IntoIterator<Item = &'a DeltaRecord>,
    ) -> NetDelta {
        // Last write per oid wins; `None` marks a final removal.
        let mut fin: BTreeMap<Oid, Option<&Arc<UncertainTrajectory>>> = BTreeMap::new();
        for rec in ops {
            match &rec.op {
                DeltaOp::Insert(tr) => fin.insert(tr.oid(), Some(tr)),
                DeltaOp::Remove(oid) => fin.insert(*oid, None),
            };
        }
        let mut net = NetDelta::default();
        for (oid, state) in fin {
            let in_base = base.contains(oid);
            if in_base {
                net.removed.push(oid);
            }
            if let Some(tr) = state {
                net.inserted.push((**tr).clone());
            }
            if in_base || state.is_some() {
                net.touched += 1;
            }
        }
        net
    }

    /// Number of distinct touched objects (the rebuild-fallback size
    /// metric): removals, insertions, and updates each count once.
    pub fn size(&self) -> usize {
        self.touched
    }

    /// `true` when the ops cancelled out entirely.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.inserted.is_empty()
    }
}

/// The spatial `(x, y)` box of a trajectory's expected location over its
/// whole domain.
pub(crate) fn full_xy_box(tr: &Trajectory) -> Aabb3 {
    let span = tr.span();
    corridor_box(tr, span.start(), span.end())
}

/// Largest value the envelope attains on its window. Each piece is a
/// convex hyperbola, so the piecewise maximum sits at piece endpoints.
fn envelope_max(engine: &QueryEngine) -> f64 {
    engine
        .envelope()
        .pieces()
        .iter()
        .map(|p| p.hyperbola.max_on(&p.span).1)
        .fold(0.0, f64::max)
}

/// The forward carry proof: the bounds a forward engine's answers
/// depend on, derived once from the engine and the query trajectory it
/// was built from, so a *burst* of far commits costs one derivation.
///
/// The derivation — candidate-id set, band-survivor set, envelope
/// maximum, query corridor box — is `O(|candidates| + |envelope|)`. A
/// commit is cleared in up to two stages:
///
/// 1. **The box stage** (`O(1)` per op): a removal is cleared by the id
///    sets, an insertion when its whole-domain expected-position box
///    stays further from the query corridor than `max_t LE₁(t) + 4r`.
///    [`ForwardProof::guard_box`] is this stage's region, and the
///    subscription index publishes it.
/// 2. **The exact stage** ([`ForwardProof::ops_unaffected_exact`]), only
///    for an insertion the box refuses: the caller builds the newcomer's
///    distance function and runs the band test a patch would run on it
///    (`QueryEngine::admits_unchanged`) — cleared iff the patch would
///    leave the newcomer out of every answer.
///
/// Which removals clear depends on what the consumer's answer reads:
///
/// * [`ForwardProof::ops_unaffected`] — box stage, removals of the
///   query or of any candidate refused. The
///   [`crate::cache::EngineCache`] carries one-shot engines with it,
///   and `RANK k` standing queries skip with it (their k-level answers
///   read candidates outside the band).
/// * [`ForwardProof::ops_unaffected_rows`] — box stage, only removals of
///   the query or of a band survivor refused. A reverse standing query
///   carries its perspectives with it.
/// * [`ForwardProof::ops_unaffected_exact`] — both stages under the
///   band-survivor removal rule: the skip rung of the banded forward
///   standing queries (`PROB_NN(…) > 0` without `RANK`, and
///   threshold rows).
///
/// The subscription layer and the [`crate::cache::EngineCache`] keep one
/// next to each engine and drop it with the engine, which is exactly
/// when any input can change.
#[derive(Debug, Clone)]
pub struct ForwardProof {
    query: Oid,
    /// Ids owning one of the engine's difference functions (removals of
    /// anything else were already prefiltered out of every answer).
    candidates: std::collections::BTreeSet<Oid>,
    /// Ids surviving the `4r`-band pruning — the only candidates that
    /// ever contribute to a banded answer or a probability column. A
    /// strict subset of `candidates` in general.
    kept: std::collections::BTreeSet<Oid>,
    /// The query trajectory's whole-domain expected-position box.
    qbox: Aabb3,
    /// `max_t LE₁(t) + 4r`: insertions staying strictly beyond this gap
    /// can neither enter the band nor lower the envelope.
    reach: f64,
}

impl ForwardProof {
    /// Derives the proof bounds from `engine` / `query_tr` (the carried
    /// engine and the query trajectory it was built against).
    pub fn derive(engine: &QueryEngine, query_tr: &Trajectory) -> ForwardProof {
        ForwardProof {
            query: engine.query(),
            candidates: engine.functions().iter().map(|f| f.owner()).collect(),
            kept: engine.kept_owners().collect(),
            qbox: full_xy_box(query_tr),
            reach: envelope_max(engine) + engine.band_delta(),
        }
    }

    /// `true` only when every op in `ops` provably cannot change any of
    /// the proved engine's answers (`false` merely forces a rebuild): a
    /// removal is safe iff it is neither the query nor a candidate (the
    /// rest were prefiltered out of every answer); an insertion iff its
    /// whole-domain expected position stays further from the query's
    /// than `max_t LE₁(t) + 4r`, so it never enters the `4r` band nor
    /// lowers the envelope.
    pub fn ops_unaffected(&self, ops: &[&DeltaRecord]) -> bool {
        self.check(ops, &self.candidates, |_| false)
    }

    /// The sharper obligation for **band-bounded** consumers (banded
    /// interval answers, the sampled probability rows of threshold/RNN
    /// standing queries, and in particular the per-perspective carry of
    /// a reverse engine, whose exhaustive build makes *every* object a
    /// candidate): a removal is additionally safe when the removed
    /// object, though a candidate, never survived the `4r`-band pruning
    /// — it never realized the envelope (an envelope owner is always in
    /// its own band) and never joined any probe column's joint
    /// evaluation, so an engine rebuilt without it produces
    /// bit-identical rows and banded answers.
    pub fn ops_unaffected_rows(&self, ops: &[&DeltaRecord]) -> bool {
        self.check(ops, &self.kept, |_| false)
    }

    /// [`ForwardProof::ops_unaffected_rows`] with the exact stage behind
    /// the box: an insertion the box refuses is cleared when
    /// `admits(tr)` holds — the caller's exact band test of the
    /// newcomer's distance function against the proved engine
    /// (`QueryEngine::admits_unchanged`). Sound exactly when `admits`
    /// holds only for a newcomer a patch would leave out of every answer
    /// and every probe column.
    pub fn ops_unaffected_exact(
        &self,
        ops: &[&DeltaRecord],
        admits: impl FnMut(&UncertainTrajectory) -> bool,
    ) -> bool {
        self.check(ops, &self.kept, admits)
    }

    /// `true` when `oid` owns one of the proved engine's difference
    /// functions.
    pub fn is_candidate(&self, oid: Oid) -> bool {
        self.candidates.contains(&oid)
    }

    /// The spatial guard region of the insertion obligation, projected
    /// onto the `(x, y)` plane (`t = 0` on both faces): the query
    /// corridor box inflated by the reach. An inserted trajectory whose
    /// equally-flattened whole-domain box does not intersect this region
    /// has a per-axis gap above the reach, hence a Euclidean gap above
    /// it too — exactly what the box stage requires of a safe
    /// insertion. The converse does not hold (a diagonal miss can still
    /// overlap the box), so an index over these boxes over-approximates
    /// the affected subscriptions: lookups are conservative, skips stay
    /// proven.
    pub fn guard_box(&self) -> Aabb3 {
        let b = self.qbox.inflate_xy(self.reach);
        Aabb3 {
            min: [b.min[0], b.min[1], 0.0],
            max: [b.max[0], b.max[1], 0.0],
        }
    }

    /// The ids whose removal the proof cannot clear, plus the query
    /// object itself: the engine's candidates under the candidate rule
    /// ([`ForwardProof::ops_unaffected`]), its band survivors when
    /// `banded` (the rule of [`ForwardProof::ops_unaffected_rows`] and
    /// [`ForwardProof::ops_unaffected_exact`]). A removal hitting none
    /// of them is safe for that consumer.
    pub fn guarded_oids(&self, banded: bool) -> impl Iterator<Item = Oid> + '_ {
        let ids = if banded { &self.kept } else { &self.candidates };
        ids.iter().copied().chain(std::iter::once(self.query))
    }

    fn check(
        &self,
        ops: &[&DeltaRecord],
        removable_guard: &std::collections::BTreeSet<Oid>,
        mut admits: impl FnMut(&UncertainTrajectory) -> bool,
    ) -> bool {
        for rec in ops {
            match &rec.op {
                DeltaOp::Remove(oid) => {
                    if *oid == self.query || removable_guard.contains(oid) {
                        return false;
                    }
                }
                DeltaOp::Insert(tr) => {
                    if tr.oid() == self.query {
                        return false;
                    }
                    let gap = self.qbox.min_dist_xy(&full_xy_box(tr.trajectory()));
                    // The uncertainty radius does not widen the reach:
                    // both the envelope and the band are defined over
                    // *expected* positions (§3), which is what the boxes
                    // bound.
                    if gap <= self.reach && !admits(tr) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_geom::interval::TimeInterval;
    use unn_traj::difference::difference_distance;
    use unn_traj::trajectory::Trajectory;

    fn tr(oid: u64, y: f64) -> UncertainTrajectory {
        UncertainTrajectory::with_uniform_pdf(
            Trajectory::from_triples(Oid(oid), &[(0.0, y, 0.0), (10.0, y, 10.0)]).unwrap(),
            0.5,
        )
        .unwrap()
    }

    /// An object parked at `(x, 0)` over the `[0, 60]` window.
    fn parked(oid: u64, x: f64) -> UncertainTrajectory {
        UncertainTrajectory::with_uniform_pdf(
            Trajectory::from_triples(Oid(oid), &[(x, 0.0, 0.0), (x, 0.0, 60.0)]).unwrap(),
            0.5,
        )
        .unwrap()
    }

    /// A query parked in the origin whose nearest neighbor stays 3 mi
    /// away: `max LE = 3` on a window whose *instants* run to 60.
    fn three_mile_proof() -> ForwardProof {
        let query = parked(0, 0.0);
        let window = TimeInterval::new(0.0, 60.0);
        let fs = [parked(1, 3.0), parked(2, 10.0)]
            .iter()
            .map(|o| difference_distance(query.trajectory(), o.trajectory(), &window).unwrap())
            .collect();
        let engine = QueryEngine::new(Oid(0), fs, 0.5);
        ForwardProof::derive(&engine, query.trajectory())
    }

    fn insert(tr: UncertainTrajectory) -> DeltaRecord {
        DeltaRecord {
            epoch: 1,
            op: DeltaOp::Insert(Arc::new(tr)),
        }
    }

    #[test]
    fn reach_is_the_envelope_maximum_plus_the_band() {
        let reach = three_mile_proof().reach;
        assert!((reach - (3.0 + 4.0 * 0.5)).abs() < 1e-9, "reach {reach}");
    }

    #[test]
    fn insertions_are_judged_against_the_true_reach() {
        let proof = three_mile_proof();
        assert!(proof.ops_unaffected(&[&insert(parked(7, 5.1))]));
        assert!(!proof.ops_unaffected(&[&insert(parked(7, 4.9))]));
    }

    #[test]
    fn log_records_and_serves_ranges() {
        let mut log = DeltaLog::new(16);
        log.record(1, DeltaOp::Insert(Arc::new(tr(1, 0.0))));
        log.record(2, DeltaOp::Remove(Oid(1)));
        log.record(3, DeltaOp::Insert(Arc::new(tr(2, 1.0))));
        assert_eq!(log.ops_since(0).unwrap().len(), 3);
        assert_eq!(log.ops_since(1).unwrap().len(), 2);
        assert_eq!(log.ops_since(3).unwrap().len(), 0);
    }

    #[test]
    fn ranges_equal_a_filter_over_the_retained_records() {
        // Multi-record epochs, skipped epochs, and a ring buffer that
        // wrapped while evicting.
        let mut log = DeltaLog::new(5);
        for e in 1..=12u64 {
            for k in 0..e % 3 {
                log.record(e, DeltaOp::Remove(Oid(k)));
            }
            for base in log.floor()..=e + 1 {
                let got: Vec<u64> = log
                    .ops_since(base)
                    .unwrap()
                    .iter()
                    .map(|r| r.epoch)
                    .collect();
                let want: Vec<u64> = log
                    .records
                    .iter()
                    .filter(|r| r.epoch > base)
                    .map(|r| r.epoch)
                    .collect();
                assert_eq!(got, want, "epoch {e}, base {base}");
            }
        }
    }

    #[test]
    fn overflow_raises_the_floor() {
        let mut log = DeltaLog::new(2);
        for e in 1..=5 {
            log.record(e, DeltaOp::Remove(Oid(e)));
        }
        assert!(log.ops_since(0).is_none(), "history incomplete from 0");
        assert!(log.ops_since(2).is_none());
        assert_eq!(log.ops_since(3).unwrap().len(), 2);
        assert!(log.len() <= 2);
    }

    #[test]
    fn eviction_drops_whole_epochs() {
        // Two records sharing epoch 1 (a bulk load): evicting one must
        // invalidate the other as well, or ops_since(0) would silently
        // return half a bulk.
        let mut log = DeltaLog::new(2);
        log.record(1, DeltaOp::Insert(Arc::new(tr(1, 0.0))));
        log.record(1, DeltaOp::Insert(Arc::new(tr(2, 0.0))));
        log.record(2, DeltaOp::Remove(Oid(1)));
        assert!(log.ops_since(0).is_none());
        assert_eq!(log.ops_since(1).unwrap().len(), 1);
    }

    #[test]
    fn shrinking_capacity_truncates_and_raises_the_floor() {
        let mut log = DeltaLog::new(16);
        for e in 1..=6 {
            log.record(e, DeltaOp::Remove(Oid(e)));
        }
        assert_eq!(log.ops_since(0).unwrap().len(), 6);
        log.set_capacity(2);
        assert!(log.len() <= 2);
        // History before the surviving records is now incomplete…
        assert!(log.ops_since(0).is_none());
        assert!(log.ops_since(3).is_none());
        // …but the retained suffix still serves.
        assert_eq!(log.ops_since(4).unwrap().len(), 2);
        assert_eq!(log.floor(), 4);
    }

    #[test]
    fn invalidate_marks_history_incomplete() {
        let mut log = DeltaLog::new(8);
        log.record(1, DeltaOp::Remove(Oid(1)));
        log.invalidate(2);
        assert!(log.is_empty());
        assert!(log.ops_since(1).is_none());
        assert_eq!(log.ops_since(2).unwrap().len(), 0);
    }

    #[test]
    fn net_delta_collapses_update_and_cancel() {
        let base = QuerySnapshot::new(1, vec![tr(1, 0.0), tr(2, 1.0)]);
        let ops = [
            DeltaRecord {
                epoch: 2,
                op: DeltaOp::Remove(Oid(1)),
            },
            DeltaRecord {
                epoch: 3,
                op: DeltaOp::Insert(Arc::new(tr(1, 5.0))),
            },
            DeltaRecord {
                epoch: 4,
                op: DeltaOp::Insert(Arc::new(tr(7, 2.0))),
            },
            DeltaRecord {
                epoch: 5,
                op: DeltaOp::Remove(Oid(7)),
            },
        ];
        let net = NetDelta::from_ops(&base, ops.iter());
        assert_eq!(net.removed, vec![Oid(1)]); // update: remove + insert
        assert_eq!(net.inserted.len(), 1);
        assert_eq!(net.inserted[0].oid(), Oid(1));
        assert_eq!(net.size(), 1);
        // Insert-then-remove of Tr7 cancelled out.
        assert!(!net.removed.contains(&Oid(7)));
    }
}
