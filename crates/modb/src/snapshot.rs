//! Epoch-stamped, `Arc`-shared snapshots of the MOD — the first stage of
//! the snapshot → prefilter → envelope → execute query pipeline.
//!
//! A [`QuerySnapshot`] is an immutable view of the store's contents taken
//! at one mutation epoch. The store hands out the **same** `Arc` until a
//! mutation bumps the epoch, so concurrent queries share one copy of
//! every trajectory instead of deep-cloning the MOD per call (the §2.1
//! "server keeps a copy" made cheap). A snapshot is the epoch and the
//! objects, ascending by id, plus a memo of derived per-object data.
//!
//! # The epoch-box memo
//!
//! The planner's prefilter reads every object's corridor boxes for its
//! `(window, epochs)` ([`crate::prefilter::EpochBoxes`]). A snapshot
//! keeps one such table per key: [`QuerySnapshot::epoch_boxes`] builds it
//! on the first plan that asks — once, however many planners ask at the
//! same time — and every later plan on the snapshot scans it.
//! [`QuerySnapshot::apply_delta`] carries the tables into the derived
//! snapshot in the same merge pass as the objects: a survivor's row is
//! shared, an inserted or updated object's row is computed, so a
//! one-object delta computes `epochs` boxes per table.
//!
//! The memo is **bounded by use**: a table is carried only if it was
//! read on the snapshot it is carried from; otherwise it is dropped and
//! the next plan for its key rebuilds it. A rebuilt snapshot (cold start,
//! oversized delta, `clear`) starts with an empty memo.

use crate::delta::NetDelta;
use crate::prefilter::EpochBoxes;
use std::collections::BTreeSet;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use unn_geom::interval::TimeInterval;
use unn_traj::trajectory::Oid;
use unn_traj::uncertain::UncertainTrajectory;

/// The memo key of an epoch-box table: the window's bits and the epochs.
type BoxKey = (u64, u64, usize);

fn box_key(window: TimeInterval, epochs: usize) -> BoxKey {
    (
        window.start().to_bits(),
        window.end().to_bits(),
        epochs.max(1),
    )
}

/// One memoised epoch-box table.
#[derive(Debug)]
struct BoxSlot {
    key: BoxKey,
    /// Set by every read; only a read table is carried. `Relaxed`: the
    /// flag publishes nothing (the `OnceLock` publishes the table), and
    /// a read racing a carry only decides whether one table is rebuilt.
    read: AtomicBool,
    table: OnceLock<Arc<EpochBoxes>>,
}

impl BoxSlot {
    fn new(key: BoxKey, table: OnceLock<Arc<EpochBoxes>>) -> Arc<BoxSlot> {
        Arc::new(BoxSlot {
            key,
            read: AtomicBool::new(false),
            table,
        })
    }
}

/// An immutable, epoch-stamped view of the MOD's trajectories (ascending
/// by id).
#[derive(Debug)]
pub struct QuerySnapshot {
    epoch: u64,
    objects: Vec<UncertainTrajectory>,
    boxes: Mutex<Vec<Arc<BoxSlot>>>,
}

impl QuerySnapshot {
    /// Wraps the objects (which must be ascending by id) captured at
    /// `epoch`, with an empty memo.
    pub fn new(epoch: u64, objects: Vec<UncertainTrajectory>) -> Self {
        debug_assert!(objects.windows(2).all(|w| w[0].oid() < w[1].oid()));
        QuerySnapshot {
            epoch,
            objects,
            boxes: Mutex::default(),
        }
    }

    /// Derives the snapshot at `epoch` from `prev` by applying the net
    /// delta, instead of re-copying the store: the object list is merged
    /// in one pass, and the result equals a cold
    /// [`QuerySnapshot::new`] of the store's contents at `epoch`. The
    /// same pass carries every epoch-box table read on `prev` (module
    /// docs).
    pub fn apply_delta(prev: &QuerySnapshot, epoch: u64, net: &NetDelta) -> QuerySnapshot {
        let removed: BTreeSet<Oid> = net.removed.iter().copied().collect();
        let len = prev.objects.len() - net.removed.len() + net.inserted.len();
        let carried: Vec<(BoxKey, Arc<EpochBoxes>)> = prev
            .boxes
            .lock()
            .expect("epoch-box memo poisoned")
            .iter()
            .filter(|s| s.read.load(Ordering::Relaxed))
            .filter_map(|s| Some((s.key, Arc::clone(s.table.get()?))))
            .collect();
        let mut tables: Vec<EpochBoxes> = carried
            .iter()
            .map(|(_, t)| EpochBoxes::with_capacity(t.window(), t.epochs(), len))
            .collect();
        // One merge pass: survivors of `prev` interleaved with the
        // (ascending) insertions.
        let mut objects: Vec<UncertainTrajectory> = Vec::with_capacity(len);
        let insert = |objects: &mut Vec<UncertainTrajectory>,
                      tables: &mut [EpochBoxes],
                      t: &UncertainTrajectory| {
            for table in tables {
                table.push_computed(t.trajectory());
            }
            objects.push(t.clone());
        };
        let mut ins = net.inserted.iter().peekable();
        for (i, obj) in prev.objects.iter().enumerate() {
            if removed.contains(&obj.oid()) {
                continue;
            }
            while let Some(t) = ins.next_if(|t| t.oid() < obj.oid()) {
                insert(&mut objects, &mut tables, t);
            }
            for (table, (_, from)) in tables.iter_mut().zip(&carried) {
                table.push_shared(from, i);
            }
            objects.push(obj.clone());
        }
        for t in ins {
            insert(&mut objects, &mut tables, t);
        }
        let slots = carried
            .iter()
            .zip(tables)
            .map(|((key, _), t)| BoxSlot::new(*key, OnceLock::from(Arc::new(t))))
            .collect();
        QuerySnapshot {
            boxes: Mutex::new(slots),
            ..QuerySnapshot::new(epoch, objects)
        }
    }

    /// The epoch-box table of `window` split into `epochs`, built on the
    /// first call for the key and shared by every later one (module
    /// docs). Concurrent first callers build it once.
    pub fn epoch_boxes(&self, window: TimeInterval, epochs: usize) -> Arc<EpochBoxes> {
        let key = box_key(window, epochs);
        let slot = {
            let mut slots = self.boxes.lock().expect("epoch-box memo poisoned");
            match slots.iter().find(|s| s.key == key) {
                Some(s) => Arc::clone(s),
                None => {
                    let s = BoxSlot::new(key, OnceLock::new());
                    slots.push(Arc::clone(&s));
                    s
                }
            }
        };
        slot.read.store(true, Ordering::Relaxed);
        let table = slot
            .table
            .get_or_init(|| Arc::new(EpochBoxes::compute(&self.objects, window, epochs)));
        Arc::clone(table)
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

    /// Owned copies of the trajectories (a `Resync` frame and tests).
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
    use crate::plan::QueryPlanner;
    use crate::store::ModStore;
    use unn_traj::generator::{generate_uncertain, WorkloadConfig};
    use unn_traj::trajectory::{Trajectory, TrajectorySample};

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

    /// Every box of a table, as bits.
    fn bits(table: &EpochBoxes) -> Vec<u64> {
        let mut out = Vec::new();
        for i in 0..table.len() {
            for e in 0..table.epochs() {
                let b = table.get(i, e);
                out.extend(b.min.iter().chain(&b.max).map(|v| v.to_bits()));
            }
        }
        out
    }

    /// `tr`'s path shifted by `(dx, dy)`, as `oid`.
    fn moved(tr: &UncertainTrajectory, oid: Oid, dx: f64, dy: f64) -> UncertainTrajectory {
        let samples = tr
            .trajectory()
            .samples()
            .iter()
            .map(|s| TrajectorySample::new(s.position.x + dx, s.position.y + dy, s.time))
            .collect();
        UncertainTrajectory::with_uniform_pdf(Trajectory::new(oid, samples).unwrap(), 0.5).unwrap()
    }

    /// The oids a plan keeps.
    fn candidates(snapshot: Arc<QuerySnapshot>, query: Oid, window: TimeInterval) -> Vec<Oid> {
        QueryPlanner::default()
            .plan(snapshot, query, window)
            .unwrap()
            .candidate_trajectories()
            .iter()
            .map(|t| t.oid())
            .collect()
    }

    /// The memo's keys, without marking anything read.
    fn keys(snapshot: &QuerySnapshot) -> Vec<BoxKey> {
        snapshot
            .boxes
            .lock()
            .unwrap()
            .iter()
            .map(|s| s.key)
            .collect()
    }

    #[test]
    fn a_carried_table_is_a_cold_table_box_for_box() {
        let w = TimeInterval::new(0.0, 60.0);
        let pool = generate_uncertain(&WorkloadConfig::with_objects(400, 11), 0.5);
        let store = ModStore::new();
        store.bulk_load(pool[..120].iter().cloned()).unwrap();
        // After every commit: the table the store's snapshot carries (or
        // builds) equals a cold one over the same objects, so does every
        // plan, and it computed `fresh` boxes.
        let check = |fresh: Option<usize>| {
            let snap = store.snapshot();
            let table = snap.epoch_boxes(w, 8);
            let cold = Arc::new(QuerySnapshot::new(snap.epoch(), snap.to_vec()));
            assert_eq!(bits(&table), bits(&EpochBoxes::compute(&cold, w, 8)));
            let expected = fresh.unwrap_or(8 * snap.len());
            assert_eq!(table.computed_boxes(), expected, "epoch {}", snap.epoch());
            if snap.len() >= 2 {
                for q in [0, snap.len() / 2, snap.len() - 1] {
                    let oid = snap[q].oid();
                    assert_eq!(
                        candidates(Arc::clone(&snap), oid, w),
                        candidates(Arc::clone(&cold), oid, w),
                        "epoch {}, query {oid}",
                        snap.epoch()
                    );
                }
            }
        };
        check(None);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut fresh_oid = 1_000;
        for _ in 0..60 {
            let oids = store.oids();
            let pick = oids[draw(oids.len())];
            let like = &pool[draw(pool.len())];
            let (dx, dy) = (draw(9) as f64 - 4.0, draw(9) as f64 - 4.0);
            match draw(3) {
                0 => {
                    fresh_oid += 1;
                    store.insert(moved(like, Oid(fresh_oid), dx, dy)).unwrap();
                    check(Some(8));
                }
                1 => {
                    store.update(moved(like, pick, dx, dy));
                    check(Some(8));
                }
                _ => {
                    store.remove(pick).unwrap();
                    check(Some(0));
                }
            }
        }
        // A bulk load inside the rebuild fraction is carried …
        store.bulk_load(pool[120..130].iter().cloned()).unwrap();
        check(Some(80));
        // … one over it rebuilds, and so does a clear.
        let rebuilt = store.delta_stats().snapshots_rebuilt;
        store.bulk_load(pool[130..400].iter().cloned()).unwrap();
        check(None);
        assert_eq!(store.delta_stats().snapshots_rebuilt, rebuilt + 1);
        store.clear();
        check(None);
        store.bulk_load(pool[..10].iter().cloned()).unwrap();
        check(None);
        store.update(moved(&pool[5], pool[1].oid(), 0.5, 0.5));
        check(Some(8));
    }

    #[test]
    fn the_memo_keeps_only_tables_read_on_the_previous_snapshot() {
        let fleet = generate_uncertain(&WorkloadConfig::with_objects(40, 3), 0.5);
        let windows = [(0.0, 60.0), (0.0, 30.0), (30.0, 60.0), (10.0, 50.0)]
            .map(|(a, b)| TimeInterval::new(a, b));
        let mut snap = QuerySnapshot::new(1, fleet.clone());
        for step in 0..8 {
            // Each snapshot reads two windows; the first was also read on
            // its predecessor, the second is new.
            let read = [windows[step % 4], windows[(step + 1) % 4]];
            for w in read {
                snap.epoch_boxes(w, 8);
            }
            let k = step % fleet.len();
            let net = NetDelta::new(
                vec![fleet[k].oid()],
                vec![moved(&fleet[k], fleet[k].oid(), 0.1 * step as f64, 0.0)],
            );
            let next = QuerySnapshot::apply_delta(&snap, snap.epoch() + 1, &net);
            assert_eq!(keys(&next), read.map(|w| box_key(w, 8)).to_vec());
            for slot in next.boxes.lock().unwrap().iter() {
                assert_eq!(slot.table.get().unwrap().computed_boxes(), 8);
            }
            snap = next;
        }
        // The last snapshot was never planned on: it holds two tables and
        // carries neither.
        assert_eq!(keys(&snap).len(), 2);
        let net = NetDelta::new(vec![fleet[0].oid()], vec![fleet[0].clone()]);
        let next = QuerySnapshot::apply_delta(&snap, snap.epoch() + 1, &net);
        assert!(keys(&next).is_empty());
    }

    #[test]
    fn concurrent_first_reads_build_one_table() {
        let snap = QuerySnapshot::new(
            1,
            generate_uncertain(&WorkloadConfig::with_objects(60, 4), 0.5),
        );
        let w = TimeInterval::new(0.0, 60.0);
        let tables: Vec<Arc<EpochBoxes>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4).map(|_| s.spawn(|| snap.epoch_boxes(w, 8))).collect();
            workers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(tables.iter().all(|t| Arc::ptr_eq(t, &tables[0])));
        assert_eq!(keys(&snap).len(), 1);
    }
}
