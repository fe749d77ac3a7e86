//! The guard index: which shares a commit's ops can possibly affect
//! ([`SubscriptionIndex`]), with the grid its guard boxes live in.

use super::registry::SharedSub;
use crate::delta::{full_xy_box, DeltaOp, DeltaRecord};
use crate::prefilter::Aabb3;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Weak};
use unn_traj::trajectory::Oid;

/// One share's published guard in the [`SubscriptionIndex`].
#[derive(Debug)]
pub(super) struct GuardEntry {
    share: Weak<SharedSub>,
    /// `core.last_epoch` at publication — every op at or before it is
    /// absorbed by the share's answer, so only newer publications may
    /// replace the entry (concurrent rounds race benignly).
    valid_through: u64,
    /// The insertion guard: `ForwardProof::guard_box`, installed in the
    /// grid. `None` while the share is always-visit (reverse kinds,
    /// parked shares, no derivable proof).
    gbox: Option<Aabb3>,
    /// The removal guard: `ForwardProof::guarded_oids` (band survivors
    /// for banded shares, every candidate for `RANK` shares) and the
    /// query, linked into the inverted oid map. Empty while
    /// always-visit.
    oids: Vec<Oid>,
}

/// The installed guard boxes, bucketed by a uniform grid over the
/// `(x, y)` extent they spanned when it was built. Each cell lists the
/// boxes overlapping it. A box outside that extent clamps into the edge
/// cells, and a lookup verifies every candidate exactly, so the extent
/// decides speed, never a result.
#[derive(Debug, Default)]
struct GuardGrid {
    /// Row-major `nx × ny` cells of `(box, share id)`.
    cells: Vec<Vec<(Aabb3, u64)>>,
    nx: usize,
    ny: usize,
    x0: f64,
    y0: f64,
    cell: f64,
    /// Boxes installed by the build.
    built: usize,
    /// Boxes installed now.
    boxes: usize,
}

impl GuardGrid {
    /// A grid of about `max(boxes, 16)` cells over the boxes' extent.
    fn build(boxes: Vec<(Aabb3, u64)>) -> GuardGrid {
        let mut grid = GuardGrid {
            built: boxes.len(),
            ..GuardGrid::default()
        };
        if boxes.is_empty() {
            return grid;
        }
        let (mut lo, mut hi) = ([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]);
        for (b, _) in &boxes {
            for d in 0..2 {
                lo[d] = lo[d].min(b.min[d]);
                hi[d] = hi[d].max(b.max[d]);
            }
        }
        let w = (hi[0] - lo[0]).max(1e-9);
        let h = (hi[1] - lo[1]).max(1e-9);
        grid.cell = ((w * h) / boxes.len().max(16) as f64).sqrt().max(1e-9);
        grid.nx = (w / grid.cell).ceil() as usize + 1;
        grid.ny = (h / grid.cell).ceil() as usize + 1;
        (grid.x0, grid.y0) = (lo[0], lo[1]);
        grid.cells = vec![Vec::new(); grid.nx * grid.ny];
        for (b, id) in boxes {
            grid.insert(b, id);
        }
        grid
    }

    /// Slots of the cells `b` covers, clamped into the grid.
    fn covered(&self, b: &Aabb3) -> impl Iterator<Item = usize> {
        let at = |v: f64, lo: f64, n: usize| {
            (((v - lo) / self.cell).floor().max(0.0) as usize).min(n.saturating_sub(1))
        };
        let xs = at(b.min[0], self.x0, self.nx)..=at(b.max[0], self.x0, self.nx);
        let ys = at(b.min[1], self.y0, self.ny)..=at(b.max[1], self.y0, self.ny);
        let nx = self.nx;
        ys.flat_map(move |iy| xs.clone().map(move |ix| iy * nx + ix))
    }

    fn insert(&mut self, b: Aabb3, id: u64) {
        for slot in self.covered(&b) {
            self.cells[slot].push((b, id));
        }
        self.boxes += 1;
    }

    /// Removes share `id`'s box `b` from the cells it covers.
    fn remove(&mut self, b: &Aabb3, id: u64) {
        for slot in self.covered(b) {
            let cell = &mut self.cells[slot];
            if let Some(i) = cell.iter().position(|&(_, owner)| owner == id) {
                cell.swap_remove(i);
            }
        }
        self.boxes -= 1;
    }

    /// Adds every share whose box intersects `q` to `hits`.
    fn query(&self, q: &Aabb3, hits: &mut BTreeSet<u64>) {
        if self.cells.is_empty() {
            return;
        }
        for slot in self.covered(q) {
            let cell = self.cells[slot].iter();
            hits.extend(cell.filter(|(b, _)| b.intersects(q)).map(|&(_, id)| id));
        }
    }
}

/// The publication-style index over the registered shares — the
/// subscription side of the paper's spatio-temporal filter, inverted.
/// Each share's [`ForwardProof`] publishes a guard here: the query
/// corridor box inflated by the envelope-max reach (spatial insertion
/// guard, kept in the grid keyed by share id) and the ids whose removal
/// its skip rung refuses (removal guard, kept in an inverted oid map).
/// The box is coarse: a share it hits may still be cleared at its visit
/// by the skip rung's exact stage. A maintenance
/// round then looks up only the shares a commit's ops can possibly
/// affect — an op hitting neither a guard box nor a guarded id
/// satisfies the respective [`ForwardProof`] obligation for every
/// unlisted share, so those shares are skipped *without being
/// touched*: no lock, no proof check, `O(affected)` instead of
/// `O(registered)`.
///
/// Guarded by one mutex, last in the registry's lock hierarchy (a core
/// lock may be held while taking it, never the reverse).
///
/// [`ForwardProof`]: crate::delta::ForwardProof
#[derive(Debug, Default)]
pub(super) struct SubscriptionIndex {
    pub(super) entries: HashMap<u64, GuardEntry>,
    /// Shares visited on every round: reverse kinds (every op adds,
    /// drops, or touches a perspective), parked shares, and shares
    /// whose proof is not derivable. Kept as a set so a lookup is
    /// `O(always + hits)`, not `O(entries)`.
    always: BTreeSet<u64>,
    /// Inverted removal guard: object id → shares whose proof cannot
    /// clear a mutation of that object.
    by_oid: HashMap<Oid, BTreeSet<u64>>,
    /// The spatial grid over the installed guard boxes.
    grid: GuardGrid,
    /// Every logged op at or before this epoch is accounted for: either
    /// absorbed by its share (`valid_through` covers it) or proven safe
    /// against the share's guard when a round's visit set was decided.
    pub(super) checked_through: u64,
}

impl SubscriptionIndex {
    /// Registers a share as always-visit; its first
    /// [`SubscriptionIndex::set_guard`] publication refines it.
    pub(super) fn insert(&mut self, id: u64, share: Weak<SharedSub>) {
        self.entries.insert(
            id,
            GuardEntry {
                share,
                valid_through: 0,
                gbox: None,
                oids: Vec::new(),
            },
        );
        self.always.insert(id);
    }

    /// Publishes a visited share's guard (`None` = always-visit),
    /// stamped with the core watermark it was derived at. A no-op for
    /// unregistered ids — a sync racing an unregistration must not
    /// resurrect the entry — and for stale stamps.
    pub(super) fn set_guard(
        &mut self,
        id: u64,
        guard: Option<(Aabb3, Vec<Oid>)>,
        valid_through: u64,
    ) {
        let Some(entry) = self.entries.get_mut(&id) else {
            return;
        };
        if valid_through < entry.valid_through {
            return;
        }
        entry.valid_through = valid_through;
        let (new_box, new_oids) = match guard {
            Some((b, oids)) => (Some(b), oids),
            None => (None, Vec::new()),
        };
        let old_box = std::mem::replace(&mut entry.gbox, new_box);
        let old_oids = std::mem::replace(&mut entry.oids, new_oids);
        self.unlink(id, &old_oids);
        // Re-borrow: the new oids now live on the entry.
        let entry = &self.entries[&id];
        for oid in &entry.oids {
            self.by_oid.entry(*oid).or_default().insert(id);
        }
        if new_box.is_some() {
            self.always.remove(&id);
        } else {
            self.always.insert(id);
        }
        self.move_box(id, old_box, new_box);
    }

    /// Drops an unregistered share's entry and its grid box.
    pub(super) fn remove(&mut self, id: u64) {
        let Some(entry) = self.entries.remove(&id) else {
            return;
        };
        self.unlink(id, &entry.oids);
        self.always.remove(&id);
        self.move_box(id, entry.gbox, None);
    }

    /// Unlinks share `id` from the inverted oid map's `oids`.
    fn unlink(&mut self, id: u64, oids: &[Oid]) {
        for oid in oids {
            if let Some(set) = self.by_oid.get_mut(oid) {
                set.remove(&id);
                if set.is_empty() {
                    self.by_oid.remove(oid);
                }
            }
        }
    }

    /// Moves share `id`'s grid box from `old` to `new` in place — an
    /// identical republication touches nothing — or rebuilds the grid
    /// from `entries` (which already hold `new`) when the box count
    /// leaves `[built / 2, 2 · built]`.
    fn move_box(&mut self, id: u64, old: Option<Aabb3>, new: Option<Aabb3>) {
        if old == new {
            return;
        }
        let boxes = self.grid.boxes + usize::from(new.is_some()) - usize::from(old.is_some());
        if boxes < self.grid.built / 2 || boxes > 2 * self.grid.built {
            let installed = self
                .entries
                .iter()
                .filter_map(|(&id, e)| e.gbox.map(|b| (b, id)))
                .collect();
            self.grid = GuardGrid::build(installed);
            return;
        }
        if let Some(b) = old {
            self.grid.remove(&b, id);
        }
        if let Some(b) = new {
            self.grid.insert(b, id);
        }
    }

    /// The ids of every share `ops` can possibly affect: spatial grid
    /// hits of the inserted trajectories' (flattened) boxes, inverted
    /// oid-map hits of every touched id, plus the always-visit set.
    /// Everything else is provably safe under its published guard.
    pub(super) fn lookup(&self, ops: &[DeltaRecord]) -> BTreeSet<u64> {
        let mut hits: BTreeSet<u64> = self.always.clone();
        let mut touched: BTreeSet<Oid> = BTreeSet::new();
        for rec in ops {
            match &rec.op {
                DeltaOp::Insert(tr) => {
                    touched.insert(tr.oid());
                    let b = full_xy_box(tr.trajectory());
                    let flat = Aabb3 {
                        min: [b.min[0], b.min[1], 0.0],
                        max: [b.max[0], b.max[1], 0.0],
                    };
                    self.grid.query(&flat, &mut hits);
                }
                DeltaOp::Remove(oid) => {
                    touched.insert(*oid);
                }
            }
        }
        for oid in touched {
            if let Some(ids) = self.by_oid.get(&oid) {
                hits.extend(ids.iter().copied());
            }
        }
        hits
    }

    /// Upgrades a visit set to live shares.
    pub(super) fn resolve(&self, ids: BTreeSet<u64>) -> Vec<(u64, Arc<SharedSub>)> {
        ids.into_iter()
            .filter_map(|id| {
                self.entries
                    .get(&id)
                    .and_then(|e| e.share.upgrade())
                    .map(|share| (id, share))
            })
            .collect()
    }

    /// Every live share — the visit set of a truncated round.
    pub(super) fn all_shares(&self) -> Vec<(u64, Arc<SharedSub>)> {
        self.entries
            .iter()
            .filter_map(|(&id, e)| e.share.upgrade().map(|share| (id, share)))
            .collect()
    }
}

/// A published guard as the tests compare it: `(valid_through, box,
/// guarded ids)`.
#[cfg(test)]
pub(super) type Published = (u64, Option<Aabb3>, Vec<Oid>);

#[cfg(test)]
impl SubscriptionIndex {
    /// `checked_through` and every share's published guard by id — what
    /// two indexes fed the same commits and rounds must agree on.
    pub(super) fn published(&self) -> (u64, std::collections::BTreeMap<u64, Published>) {
        let guards = self
            .entries
            .iter()
            .map(|(&id, e)| (id, (e.valid_through, e.gbox, e.oids.clone())))
            .collect();
        (self.checked_through, guards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_traj::trajectory::Trajectory;
    use unn_traj::uncertain::UncertainTrajectory;

    /// A xorshift stream of uniform draws.
    struct Draw(u64);

    impl Draw {
        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform in `0..n`.
        fn below(&mut self, n: usize) -> usize {
            ((self.unit() * n as f64) as usize).min(n - 1)
        }

        /// A flat box whose sides are log-uniform in `[1e-3, 1e4]` mi,
        /// centred near the origin or, one time in six, up to `1e6` mi
        /// away — far outside any extent the grid was built over.
        fn flat_box(&mut self) -> Aabb3 {
            let reach = if self.below(6) == 0 { 1e6 } else { 50.0 };
            let (cx, cy) = (
                (2.0 * self.unit() - 1.0) * reach,
                (2.0 * self.unit() - 1.0) * reach,
            );
            let (w, h) = (
                10f64.powf(-3.0 + 7.0 * self.unit()),
                10f64.powf(-3.0 + 7.0 * self.unit()),
            );
            Aabb3::new(
                [cx - w / 2.0, cy - h / 2.0, 0.0],
                [cx + w / 2.0, cy + h / 2.0, 0.0],
            )
        }

        /// A few object ids out of a pool of 40.
        fn oids(&mut self) -> Vec<Oid> {
            (0..self.below(4))
                .map(|_| Oid(self.below(40) as u64))
                .collect()
        }

        /// One to three logged ops: insertions of a trajectory spanning
        /// a random box, and removals.
        fn ops(&mut self) -> Vec<DeltaRecord> {
            (0..1 + self.below(3))
                .map(|_| {
                    let oid = Oid(self.below(40) as u64);
                    let op = if self.below(3) == 0 {
                        DeltaOp::Remove(oid)
                    } else {
                        let b = self.flat_box();
                        let tr = Trajectory::from_triples(
                            oid,
                            &[(b.min[0], b.min[1], 0.0), (b.max[0], b.max[1], 1.0)],
                        )
                        .unwrap();
                        DeltaOp::Insert(Arc::new(
                            UncertainTrajectory::with_uniform_pdf(tr, 0.5).unwrap(),
                        ))
                    };
                    DeltaRecord { epoch: 1, op }
                })
                .collect()
        }
    }

    /// `lookup` by brute force over `entries`: boxless entries are
    /// always visited, the others when an inserted trajectory's flattened
    /// box meets their guard box or an op touches a guarded id.
    fn brute_force(idx: &SubscriptionIndex, ops: &[DeltaRecord]) -> BTreeSet<u64> {
        let hit = |e: &GuardEntry, rec: &DeltaRecord| match &rec.op {
            DeltaOp::Insert(tr) => {
                let b = full_xy_box(tr.trajectory());
                let flat = Aabb3::new([b.min[0], b.min[1], 0.0], [b.max[0], b.max[1], 0.0]);
                e.gbox.is_some_and(|g| g.intersects(&flat)) || e.oids.contains(&tr.oid())
            }
            DeltaOp::Remove(oid) => e.oids.contains(oid),
        };
        idx.entries
            .iter()
            .filter(|(_, e)| e.gbox.is_none() || ops.iter().any(|rec| hit(e, rec)))
            .map(|(&id, _)| id)
            .collect()
    }

    fn boxes(idx: &SubscriptionIndex) -> usize {
        idx.entries.values().filter(|e| e.gbox.is_some()).count()
    }

    /// Random interleavings of every edit, across the rebuild rule in
    /// both directions (16 → 300 → 10 boxes), with boxes far outside
    /// the built extent: after every edit, `lookup` equals a brute-force
    /// pass over the entries.
    #[test]
    fn lookups_equal_a_brute_force_pass_after_every_edit() {
        let mut draw = Draw(0x9E37_79B9_7F4A_7C15);
        let mut idx = SubscriptionIndex::default();
        assert!(idx.lookup(&draw.ops()).is_empty(), "empty index");
        let (mut next_id, mut epoch) = (0u64, 0u64);
        let (mut grew, mut shrank) = (0, 0);
        for target in [16usize, 300, 10] {
            let mut steps = 0;
            while boxes(&idx) != target {
                steps += 1;
                assert!(steps < 20_000, "stuck short of {target} boxes");
                let ids: Vec<u64> = idx.entries.keys().copied().collect();
                let pick = (!ids.is_empty()).then(|| ids[draw.below(ids.len())]);
                let growing = boxes(&idx) < target;
                epoch += 1;
                let built = idx.grid.built;
                match (draw.below(8), pick) {
                    // Register a share, always-visit until it publishes.
                    (0 | 1, _) if growing || pick.is_none() => {
                        next_id += 1;
                        idx.insert(next_id, Weak::new());
                    }
                    (0..=3, Some(id)) if growing || idx.entries[&id].gbox.is_none() => {
                        idx.set_guard(id, Some((draw.flat_box(), draw.oids())), epoch);
                    }
                    (4, Some(id)) => {
                        let entry = &idx.entries[&id];
                        let guard = entry.gbox.map(|b| (b, entry.oids.clone()));
                        if draw.below(2) == 0 {
                            // A republished, identical guard.
                            idx.set_guard(id, guard, epoch);
                        } else {
                            // A stale publication is ignored.
                            let stale = entry.valid_through.saturating_sub(1);
                            let before = (entry.gbox, entry.oids.clone());
                            idx.set_guard(id, Some((draw.flat_box(), draw.oids())), stale);
                            let entry = &idx.entries[&id];
                            if stale < entry.valid_through {
                                assert_eq!((entry.gbox, entry.oids.clone()), before);
                            }
                        }
                    }
                    (5, Some(id)) if !growing => idx.set_guard(id, None, epoch),
                    (6 | 7, Some(id)) if !growing => idx.remove(id),
                    // Edits of unregistered ids are no-ops.
                    _ => {
                        idx.set_guard(next_id + 1, Some((draw.flat_box(), vec![])), epoch);
                        idx.remove(next_id + 1);
                    }
                }
                match idx.grid.built.cmp(&built) {
                    std::cmp::Ordering::Greater => grew += 1,
                    std::cmp::Ordering::Less => shrank += 1,
                    std::cmp::Ordering::Equal => {}
                }
                assert_eq!(idx.grid.boxes, boxes(&idx));
                for _ in 0..3 {
                    let ops = draw.ops();
                    assert_eq!(idx.lookup(&ops), brute_force(&idx, &ops), "{ops:?}");
                }
            }
        }
        assert!(grew > 3 && shrank > 0, "rebuilds: {grew} up, {shrank} down");
    }
}
