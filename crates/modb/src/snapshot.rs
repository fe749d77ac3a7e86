//! Epoch-stamped, `Arc`-shared snapshots of the MOD — the first stage of
//! the snapshot → prefilter → envelope → execute query pipeline.
//!
//! A [`QuerySnapshot`] is an immutable view of the store's contents taken
//! at one mutation epoch. The store hands out the **same** `Arc` until a
//! mutation bumps the epoch, so concurrent queries share one copy of
//! every trajectory instead of deep-cloning the MOD per call (the §2.1
//! "server keeps a copy" made cheap). A snapshot is plain data: the epoch
//! and the objects, ascending by id.

use crate::delta::NetDelta;
use std::collections::BTreeSet;
use std::ops::Deref;
use unn_traj::trajectory::Oid;
use unn_traj::uncertain::UncertainTrajectory;

/// An immutable, epoch-stamped view of the MOD's trajectories (ascending
/// by id).
#[derive(Debug)]
pub struct QuerySnapshot {
    epoch: u64,
    objects: Vec<UncertainTrajectory>,
}

impl QuerySnapshot {
    /// Wraps the objects (which must be ascending by id) captured at
    /// `epoch`.
    pub fn new(epoch: u64, objects: Vec<UncertainTrajectory>) -> Self {
        debug_assert!(objects.windows(2).all(|w| w[0].oid() < w[1].oid()));
        QuerySnapshot { epoch, objects }
    }

    /// Derives the snapshot at `epoch` from `prev` by applying the net
    /// delta, instead of re-copying the store: the object list is merged
    /// in one pass, and the result equals a cold
    /// [`QuerySnapshot::new`] of the store's contents at `epoch`.
    pub fn apply_delta(prev: &QuerySnapshot, epoch: u64, net: &NetDelta) -> QuerySnapshot {
        let removed: BTreeSet<Oid> = net.removed.iter().copied().collect();
        // One merge pass: survivors of `prev` interleaved with the
        // (ascending) insertions.
        let mut objects: Vec<UncertainTrajectory> =
            Vec::with_capacity(prev.objects.len() - net.removed.len() + net.inserted.len());
        let mut ins = net.inserted.iter().peekable();
        for obj in &prev.objects {
            if removed.contains(&obj.oid()) {
                continue;
            }
            while ins.peek().map(|t| t.oid() < obj.oid()).unwrap_or(false) {
                objects.push(ins.next().unwrap().clone());
            }
            objects.push(obj.clone());
        }
        objects.extend(ins.cloned());
        QuerySnapshot::new(epoch, objects)
    }

    /// The store epoch this snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The trajectories, ascending by id.
    pub fn objects(&self) -> &[UncertainTrajectory] {
        &self.objects
    }

    /// Position of `oid` in [`QuerySnapshot::objects`].
    pub fn index_of(&self, oid: Oid) -> Option<usize> {
        self.objects.binary_search_by_key(&oid, |t| t.oid()).ok()
    }

    /// The trajectory with the given id.
    pub fn get(&self, oid: Oid) -> Option<&UncertainTrajectory> {
        self.index_of(oid).map(|i| &self.objects[i])
    }

    /// `true` when the id is present.
    pub fn contains(&self, oid: Oid) -> bool {
        self.index_of(oid).is_some()
    }

    /// Owned copies of the trajectories (persistence and tests).
    pub fn to_vec(&self) -> Vec<UncertainTrajectory> {
        self.objects.clone()
    }
}

impl Deref for QuerySnapshot {
    type Target = [UncertainTrajectory];

    fn deref(&self) -> &[UncertainTrajectory] {
        &self.objects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_traj::trajectory::Trajectory;

    fn tr(oid: u64, y: f64) -> UncertainTrajectory {
        UncertainTrajectory::with_uniform_pdf(
            Trajectory::from_triples(Oid(oid), &[(0.0, y, 0.0), (10.0, y, 10.0)]).unwrap(),
            0.5,
        )
        .unwrap()
    }

    fn snapshot() -> QuerySnapshot {
        QuerySnapshot::new(7, vec![tr(1, 0.0), tr(3, 2.0), tr(9, 5.0)])
    }

    #[test]
    fn lookup_and_deref() {
        let s = snapshot();
        assert_eq!(s.epoch(), 7);
        assert_eq!(s.len(), 3);
        assert_eq!(s.index_of(Oid(3)), Some(1));
        assert_eq!(s.get(Oid(9)).unwrap().oid(), Oid(9));
        assert!(!s.contains(Oid(2)));
        // Deref to a slice keeps the old Vec-shaped call sites working.
        let oids: Vec<u64> = s.iter().map(|t| t.oid().0).collect();
        assert_eq!(oids, vec![1, 3, 9]);
    }

    #[test]
    fn apply_delta_matches_a_fresh_snapshot() {
        let prev = snapshot();
        // Update Tr3 (moved to y = 9), remove Tr9, insert Tr5.
        let net = NetDelta::new(vec![Oid(3), Oid(9)], vec![tr(3, 9.0), tr(5, 7.0)]);
        let next = QuerySnapshot::apply_delta(&prev, 8, &net);
        let fresh = QuerySnapshot::new(8, vec![tr(1, 0.0), tr(3, 9.0), tr(5, 7.0)]);
        assert_eq!(next.epoch(), 8);
        assert_eq!(next.objects(), fresh.objects());
        // The previous snapshot is untouched.
        assert_eq!(prev.len(), 3);
        assert!(prev.contains(Oid(9)));
    }
}
