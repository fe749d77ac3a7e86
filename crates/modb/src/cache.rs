//! The shape-keyed engine cache — the execution-side memoization of the
//! snapshot → prefilter → envelope → execute pipeline.
//!
//! The paper's whole premise (Claims 1–3) is that the `O(N log N)`
//! lower-envelope / IPAC preprocessing is paid **once** and amortized
//! across the §4 query variants. [`EngineCache`] realizes that across
//! server calls: it maps each engine's *shape* ([`EngineKey`]) to the
//! newest engine built for it, stamped with the store **epoch** it
//! answers at.
//!
//! ## Invalidation contract
//!
//! * An entry stamped `e` is a hit for lookups at epoch `e`, the store
//!   epoch the caller read before looking up.
//! * A forward engine built under a band-bounded policy
//!   (`PrefilterPolicy::allows_carry`) keeps the [`ForwardProof`] of the
//!   query trajectory it was built from, as a subscription share does.
//!   At a newer epoch, the entry is *carried* — stamped and served —
//!   when [`ForwardProof::ops_unaffected`] holds for the ops logged since
//!   its epoch; a failed proof or a truncated log rebuilds.
//! * [`EngineCache::lookup`] serves hits and carries and never builds —
//!   the network event loop answers hot reads through it;
//!   [`EngineCache::get_or_build`] is that lookup plus a build.
//! * Entries without a proof (reverse/hetero engines, exhaustive-policy
//!   forwards) never carry; a stale one is dropped at the next insert.
//! * A build never replaces a newer entry of its shape; at capacity the
//!   oldest epoch is evicted first. [`crate::store::ModStore::clear`] and
//!   [`crate::store::ModStore::restore`] clear attached caches.

use crate::delta::ForwardProof;
use crate::store::ModStore;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use unn_core::hetero::HeteroEngine;
use unn_core::query::QueryEngine;
use unn_core::reverse::ReverseNnEngine;
use unn_geom::interval::TimeInterval;
use unn_traj::trajectory::Oid;

/// Which engine family a cache entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The forward §4 engine ([`QueryEngine`]).
    Forward,
    /// The §7 reverse-NN engine.
    Reverse,
    /// The §7 heterogeneous-radii engine.
    Hetero,
}

/// An engine's shape — everything that determines it but the epoch:
/// kind + query + window bits + policy tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineKey {
    kind: EngineKind,
    query: Oid,
    window: (u64, u64),
    policy_tag: u8,
}

impl EngineKey {
    /// The shape of a `kind` engine for `query` over `window` under the
    /// prefilter policy tagged `policy_tag`.
    pub fn new(kind: EngineKind, query: Oid, window: TimeInterval, policy_tag: u8) -> Self {
        EngineKey {
            kind,
            query,
            window: (window.start().to_bits(), window.end().to_bits()),
            policy_tag,
        }
    }
}

/// A cached engine of any family.
#[derive(Debug, Clone)]
pub enum CachedEngine {
    /// A forward engine.
    Forward(Arc<QueryEngine>),
    /// A reverse-NN engine.
    Reverse(Arc<ReverseNnEngine>),
    /// A heterogeneous-radii engine.
    Hetero(Arc<HeteroEngine>),
}

/// How [`EngineCache::lookup`] or [`EngineCache::get_or_build`] served
/// a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The shape's entry was current.
    Hit,
    /// The shape's entry was older, and its proof carried it.
    Carried,
    /// The engine was built.
    Miss,
}

/// The newest engine of one shape.
#[derive(Debug)]
struct Entry {
    epoch: u64,
    engine: CachedEngine,
    /// Present exactly when the engine may be carried across epochs.
    proof: Option<Arc<ForwardProof>>,
}

/// A bounded engine cache keyed by shape, with delta carry-forward.
#[derive(Debug, Default)]
pub struct EngineCache {
    inner: Mutex<HashMap<EngineKey, Entry>>,
    capacity: usize,
}

impl EngineCache {
    /// A cache holding at most `capacity` engines (0 disables caching).
    pub fn with_capacity(capacity: usize) -> Self {
        EngineCache {
            capacity,
            ..EngineCache::default()
        }
    }

    /// The engine of `key`'s shape at `epoch` without building: the
    /// current entry ([`Lookup::Hit`]), or an older one its proof
    /// carries across the ops `store`'s delta log holds since the
    /// entry's epoch ([`Lookup::Carried`], the carried entry installed).
    /// `None` when neither holds — no entry, no proof, a failed proof, or
    /// an entry older than the log's floor. The proof walks at most the
    /// log's retained records and runs outside the cache lock.
    pub fn lookup(
        &self,
        store: &ModStore,
        key: EngineKey,
        epoch: u64,
    ) -> Option<(CachedEngine, Lookup)> {
        let (built, engine, proof) = match self.inner.lock().unwrap().get(&key) {
            Some(e) if e.epoch == epoch => return Some((e.engine.clone(), Lookup::Hit)),
            Some(e) if e.epoch < epoch => (e.epoch, e.engine.clone(), e.proof.clone()?),
            _ => return None,
        };
        let unaffected = store.with_ops_since(built, |ops| {
            ops.is_some_and(|ops| proof.ops_unaffected(ops))
        });
        if !unaffected {
            return None;
        }
        let entry = Entry {
            epoch,
            engine: engine.clone(),
            proof: Some(proof),
        };
        self.install(key, entry);
        Some((engine, Lookup::Carried))
    }

    /// The engine of `key`'s shape at `epoch`: [`EngineCache::lookup`]'s,
    /// or else the result of `build` (an engine plus, when it may carry,
    /// its proof). The build runs outside the cache lock: concurrent
    /// misses on one shape may build twice, and the first stored copy
    /// stays.
    pub fn get_or_build<E>(
        &self,
        store: &ModStore,
        key: EngineKey,
        epoch: u64,
        build: impl FnOnce() -> Result<(CachedEngine, Option<ForwardProof>), E>,
    ) -> Result<(CachedEngine, Lookup), E> {
        if let Some(found) = self.lookup(store, key, epoch) {
            return Ok(found);
        }
        let (engine, proof) = build()?;
        let entry = Entry {
            epoch,
            engine: engine.clone(),
            proof: proof.map(Arc::new),
        };
        self.install(key, entry);
        Ok((engine, Lookup::Miss))
    }

    /// Stores `entry` as its shape's newest engine, dropping every stale
    /// entry that cannot carry. A stale entry that cannot carry is not
    /// stored, nor one older than its shape's current entry.
    fn install(&self, key: EngineKey, entry: Entry) {
        if self.capacity == 0 {
            return;
        }
        let mut map = self.inner.lock().unwrap();
        let newest = map.values().map(|e| e.epoch).fold(entry.epoch, u64::max);
        map.retain(|_, e| e.epoch == newest || e.proof.is_some());
        let superseded = map.get(&key).is_some_and(|e| e.epoch >= entry.epoch);
        if superseded || (entry.epoch < newest && entry.proof.is_none()) {
            return;
        }
        if map.len() >= self.capacity && !map.contains_key(&key) {
            if let Some(victim) = map.iter().min_by_key(|(_, e)| e.epoch).map(|(k, _)| *k) {
                map.remove(&victim);
            }
        }
        map.insert(key, entry);
    }

    /// Number of entries held.
    pub fn entries(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Drops every entry.
    pub fn clear(&self) {
        self.inner.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::QueryPlanner;
    use unn_traj::trajectory::Trajectory;
    use unn_traj::uncertain::UncertainTrajectory;

    const W: (f64, f64) = (0.0, 60.0);

    /// An object parked at `(x, 0)` over the whole window.
    fn parked(oid: u64, x: f64) -> UncertainTrajectory {
        UncertainTrajectory::with_uniform_pdf(
            Trajectory::from_triples(Oid(oid), &[(x, 0.0, W.0), (x, 0.0, W.1)]).unwrap(),
            0.5,
        )
        .unwrap()
    }

    /// Tr0 at the origin, its nearest neighbor Tr1 3 mi away (reach
    /// `3 + 4r = 5`), Tr2 far outside it.
    fn store() -> ModStore {
        let store = ModStore::new();
        store
            .bulk_load([parked(0, 0.0), parked(1, 3.0), parked(2, 100.0)])
            .unwrap();
        store
    }

    fn window() -> TimeInterval {
        TimeInterval::new(W.0, W.1)
    }

    fn key(kind: EngineKind, q: u64) -> EngineKey {
        EngineKey::new(kind, Oid(q), window(), 1)
    }

    /// A forward engine for `q` at the store's current epoch, with its
    /// proof when `carries`.
    fn build(
        store: &ModStore,
        q: u64,
        carries: bool,
    ) -> Result<(CachedEngine, Option<ForwardProof>), ()> {
        let plan = QueryPlanner::default()
            .plan(store.snapshot(), Oid(q), window())
            .unwrap();
        let engine = plan.build_engine().unwrap();
        let proof = carries.then(|| ForwardProof::derive(&engine, plan.query_trajectory()));
        Ok((CachedEngine::Forward(Arc::new(engine)), proof))
    }

    fn lookup(cache: &EngineCache, store: &ModStore, k: EngineKey, carries: bool) -> Lookup {
        let q = k.query.0;
        let (_, how) = cache
            .get_or_build(store, k, store.epoch(), || build(store, q, carries))
            .unwrap();
        how
    }

    #[test]
    fn hit_after_miss_and_stale_entry_policy() {
        let (cache, store) = (EngineCache::with_capacity(8), store());
        let fwd = key(EngineKind::Forward, 0);
        assert_eq!(lookup(&cache, &store, fwd, true), Lookup::Miss);
        let (_, how) = cache
            .get_or_build::<()>(&store, fwd, store.epoch(), || panic!("must not rebuild"))
            .unwrap();
        assert_eq!(how, Lookup::Hit);
        // An entry without a proof is dropped once a newer epoch inserts;
        // the carriable one stays.
        assert_eq!(
            lookup(&cache, &store, key(EngineKind::Reverse, 1), false),
            Lookup::Miss
        );
        assert_eq!(cache.entries(), 2);
        store.insert(parked(7, 1_000.0)).unwrap();
        assert_eq!(
            lookup(&cache, &store, key(EngineKind::Forward, 1), true),
            Lookup::Miss
        );
        assert_eq!(cache.entries(), 2, "stale proofless entry evicted");
        assert_eq!(lookup(&cache, &store, fwd, true), Lookup::Carried);
    }

    #[test]
    fn stale_proofless_builds_are_not_parked() {
        let (cache, store) = (EngineCache::with_capacity(8), store());
        let fresh = key(EngineKind::Forward, 1);
        cache
            .get_or_build(&store, fresh, 5, || build(&store, 1, true))
            .unwrap();
        // A slow proofless build from epoch 2 can never be served again.
        let slow = key(EngineKind::Reverse, 0);
        cache
            .get_or_build(&store, slow, 2, || build(&store, 0, false))
            .unwrap();
        assert_eq!(cache.entries(), 1, "stale build must not be parked");
    }

    #[test]
    fn a_slow_build_never_replaces_a_newer_entry_of_its_shape() {
        let (cache, store) = (EngineCache::with_capacity(8), store());
        let k = key(EngineKind::Forward, 0);
        cache
            .get_or_build(&store, k, 5, || build(&store, 0, true))
            .unwrap();
        let (_, how) = cache
            .get_or_build(&store, k, 3, || build(&store, 0, true))
            .unwrap();
        assert_eq!(how, Lookup::Miss);
        let (_, how) = cache
            .get_or_build::<()>(&store, k, 5, || panic!("epoch 5 must still hit"))
            .unwrap();
        assert_eq!(how, Lookup::Hit);
    }

    #[test]
    fn carry_restamps_a_provably_unaffected_entry() {
        let (cache, store) = (EngineCache::with_capacity(8), store());
        let k = key(EngineKind::Forward, 0);
        let (first, _) = cache
            .get_or_build(&store, k, store.epoch(), || build(&store, 0, true))
            .unwrap();
        store.insert(parked(7, 5.1)).unwrap();
        let (served, how) = cache
            .get_or_build::<()>(&store, k, store.epoch(), || panic!("carried, not rebuilt"))
            .unwrap();
        assert_eq!(how, Lookup::Carried);
        let (CachedEngine::Forward(first), CachedEngine::Forward(served)) = (first, served) else {
            panic!("a forward key holds a forward engine");
        };
        assert!(Arc::ptr_eq(&first, &served));
        assert_eq!(cache.entries(), 1, "restamped, not duplicated");
        let (_, how) = cache
            .get_or_build::<()>(&store, k, store.epoch(), || panic!("must hit"))
            .unwrap();
        assert_eq!(how, Lookup::Hit);
    }

    #[test]
    fn carry_rejection_builds_fresh() {
        let (cache, store) = (EngineCache::with_capacity(8), store());
        let k = key(EngineKind::Forward, 0);
        assert_eq!(lookup(&cache, &store, k, true), Lookup::Miss);
        store.insert(parked(7, 4.9)).unwrap();
        assert_eq!(lookup(&cache, &store, k, true), Lookup::Miss);
        assert_eq!(cache.entries(), 1, "the rebuild replaced its shape's entry");
        // Proofless entries never carry, whatever the ops.
        let exhaustive = key(EngineKind::Forward, 1);
        assert_eq!(lookup(&cache, &store, exhaustive, false), Lookup::Miss);
        store.insert(parked(8, 1_000.0)).unwrap();
        assert_eq!(lookup(&cache, &store, exhaustive, false), Lookup::Miss);
    }

    #[test]
    fn lookup_serves_hits_and_carries_and_never_builds() {
        let (cache, store) = (EngineCache::with_capacity(8), store());
        let k = key(EngineKind::Forward, 0);
        assert!(cache.lookup(&store, k, store.epoch()).is_none());
        assert_eq!(lookup(&cache, &store, k, true), Lookup::Miss);
        let how = |cache: &EngineCache| cache.lookup(&store, k, store.epoch()).map(|(_, how)| how);
        assert_eq!(how(&cache), Some(Lookup::Hit));
        store.insert(parked(7, 1_000.0)).unwrap();
        assert_eq!(how(&cache), Some(Lookup::Carried));
        assert_eq!(how(&cache), Some(Lookup::Hit), "the carry was installed");
        // An op inside the band fails the proof: a miss, nothing built.
        store.insert(parked(8, 4.9)).unwrap();
        assert_eq!(how(&cache), None);
        assert_eq!(cache.entries(), 1);
        // A log that no longer reaches the entry's epoch is a miss too.
        assert_eq!(lookup(&cache, &store, k, true), Lookup::Miss);
        store.clear();
        assert_eq!(how(&cache), None);
    }

    #[test]
    fn distinct_windows_and_kinds_do_not_collide() {
        let (cache, store) = (EngineCache::with_capacity(8), store());
        let a = key(EngineKind::Forward, 0);
        let b = EngineKey::new(EngineKind::Forward, Oid(0), TimeInterval::new(0.0, 5.0), 1);
        let c = key(EngineKind::Hetero, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(lookup(&cache, &store, a, true), Lookup::Miss);
        assert_eq!(lookup(&cache, &store, b, true), Lookup::Miss);
        assert_eq!(cache.entries(), 2);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let (cache, store) = (EngineCache::with_capacity(0), store());
        let k = key(EngineKind::Forward, 0);
        assert_eq!(lookup(&cache, &store, k, true), Lookup::Miss);
        assert_eq!(lookup(&cache, &store, k, true), Lookup::Miss);
        assert_eq!(cache.entries(), 0);
    }

    #[test]
    fn capacity_evicts_oldest_epoch_first() {
        let (cache, store) = (EngineCache::with_capacity(2), store());
        for (q, epoch) in [(0, 1), (1, 2), (2, 3)] {
            let k = key(EngineKind::Forward, q);
            cache
                .get_or_build(&store, k, epoch, || build(&store, q, true))
                .unwrap();
        }
        assert_eq!(cache.entries(), 2);
        let (_, how) = cache
            .get_or_build::<()>(&store, key(EngineKind::Forward, 2), 3, || {
                panic!("must hit")
            })
            .unwrap();
        assert_eq!(how, Lookup::Hit);
        // The epoch-1 entry was the victim.
        let (_, how) = cache
            .get_or_build(&store, key(EngineKind::Forward, 0), 1, || {
                build(&store, 0, true)
            })
            .unwrap();
        assert_eq!(how, Lookup::Miss);
    }
}
