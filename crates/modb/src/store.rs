//! The in-memory MOD store: the server-side collection of uncertain
//! trajectories (§2.1: the server "keeps a copy ... for query
//! processing").
//!
//! The objects and the bounded [`DeltaLog`] sit together behind one
//! lock: a commit mutates both under one write lock and bumps a
//! monotonic epoch, so a reader holding the read lock sees contents,
//! epoch and log mutually consistent. [`ModStore::snapshot`] hands out
//! an `Arc`-shared, epoch-stamped [`QuerySnapshot`] that — when the
//! pending delta is small relative to the population — is derived from
//! the *previous* snapshot by [`QuerySnapshot::apply_delta`] instead of
//! re-copied and re-indexed from scratch. The epoch remains the
//! invalidation key for every derived structure; the delta log
//! additionally lets the [`EngineCache`] and the subscription ladder
//! prove, with one [`crate::delta::ForwardProof`], that a forward engine
//! survives a mutation.

use crate::cache::EngineCache;
use crate::delta::{DeltaLog, DeltaOp, DeltaRecord, NetDelta, ReplOp};
use crate::durability::{repl_frame_bytes, ReplicationHub, Wal, WalStatus};
use crate::net::wire::encode_commit_body;
use crate::snapshot::QuerySnapshot;
use crate::subscription::{Round, SubscriptionRegistry};
use crate::telemetry::{self, Telemetry, TraceEvent, TraceStage};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockWriteGuard, Weak};
use unn_prob::pdf::PdfKind;
use unn_prob::profile::ProfiledPdf;
use unn_traj::trajectory::Oid;
use unn_traj::uncertain::UncertainTrajectory;

/// Default bound on retained delta records.
const DELTA_LOG_CAPACITY: usize = 4096;

/// Default capacity of a [`crate::subscription::DeltaSink`]: a network
/// connection's outbox ([`crate::net::NetServerConfig::outbox_capacity`])
/// and a [`crate::server::ModServer`] pull sink. Past it a sink squashes
/// its oldest deltas (see the squash-oldest contract there).
pub const DEFAULT_FEED_BOUND: usize = 256;

/// Net-delta-to-population ratio beyond which a snapshot refresh
/// rebuilds from the live contents instead of patching its predecessor.
const REBUILD_FRACTION: f64 = 0.25;

/// Errors raised by [`ModStore`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An object with this id is already stored.
    DuplicateOid(Oid),
    /// No object with this id.
    NotFound(Oid),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::DuplicateOid(oid) => write!(f, "duplicate object id {oid}"),
            StoreError::NotFound(oid) => write!(f, "no object with id {oid}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Point-in-time counters of the delta-epoch machinery (the CLI's
/// `store delta-stats` view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaStats {
    /// Current store epoch.
    pub epoch: u64,
    /// Mutation records currently retained in the delta log.
    pub log_len: usize,
    /// Epoch at or before which delta history is incomplete.
    pub log_floor: u64,
    /// Ops newer than the cached snapshot (applied on its next refresh).
    pub pending_ops: usize,
    /// Snapshots refreshed by applying a delta to their predecessor.
    pub snapshots_delta_applied: u64,
    /// Snapshots rebuilt from scratch (cold starts and oversized deltas).
    pub snapshots_rebuilt: u64,
}

/// The stored objects and the delta log, behind the store's one lock.
#[derive(Debug)]
struct Table {
    /// Values are `Arc`-shared with the delta log, so mutations never
    /// deep-copy a trajectory.
    objects: BTreeMap<Oid, Arc<UncertainTrajectory>>,
    log: DeltaLog,
}

/// Where committed deltas are journaled beyond the in-memory log: the
/// durable WAL and/or replication hubs fanning frames to followers
/// (see [`crate::durability`]).
#[derive(Debug, Default)]
struct JournalSinks {
    wal: Option<Arc<Wal>>,
    hubs: Vec<Weak<ReplicationHub>>,
}

/// The profiled evaluation tables of a convolved **difference** pdf
/// (`kind ∗ kind`, §3.1) — the shared unit every probability consumer
/// works from.
///
/// Handed out by [`ModStore::difference_model`]: one-shot threshold
/// sweeps, forward row subscriptions, and every RNN perspective engine
/// evaluating under the same location-pdf kind reuse the same
/// [`ProfiledPdf`] tables (profiling is deterministic, so shared tables
/// also guarantee bit-identical probabilities across consumers).
#[derive(Debug, Clone)]
pub struct DifferenceModel {
    /// The profiled kernel tables for batched column evaluation.
    pub profile: Arc<ProfiledPdf>,
}

/// Bit-exact cache key for a [`PdfKind`] (the enum carries `f64` fields
/// and no `Eq`/`Hash`, so it is keyed by discriminant + bit patterns).
type PdfKey = (u8, u64, u64);

fn pdf_key(kind: &PdfKind) -> PdfKey {
    match *kind {
        PdfKind::Uniform { radius } => (0, radius.to_bits(), 0),
        PdfKind::TruncatedGaussian { radius, sigma } => (1, radius.to_bits(), sigma.to_bits()),
    }
}

/// The maintenance one commit owes before it counts as done: the WAL
/// checkpoint its cadence made due, and one subscription round per
/// attached registry with the round's visit set already looked up.
/// Returned by the store's `commit_*` variants, so the network server
/// can commit on its event loop and pay this elsewhere; the public
/// mutators run it in place. `Send + 'static`.
#[must_use = "a commit is maintained only once its maintenance runs"]
#[derive(Debug)]
pub(crate) struct Maintenance {
    checkpoint: Option<Arc<Wal>>,
    rounds: Vec<(Arc<SubscriptionRegistry>, Round)>,
}

impl Maintenance {
    /// `true` when running it only counts rounds: no checkpoint is due
    /// and no round visits a share, so it takes no share core lock, no
    /// snapshot and no disk write.
    pub(crate) fn is_idle(&self) -> bool {
        self.checkpoint.is_none() && self.rounds.iter().all(|(_, round)| round.is_idle())
    }

    /// Completes every round, then installs the due checkpoint (pushes
    /// do not wait for the image). Checkpoint failures are absorbed into
    /// the WAL's status counters.
    pub(crate) fn run(self, store: &ModStore) {
        for (registry, round) in self.rounds {
            registry.run(round, store);
        }
        if let Some(wal) = self.checkpoint {
            let _ = wal.checkpoint(store);
        }
    }
}

/// Thread-safe store of uncertain trajectories, keyed by [`Oid`].
///
/// Mutations bump an epoch counter and append to a bounded delta log, so
/// snapshots and caches built from an earlier epoch can be *maintained*
/// (not just invalidated) cheaply.
#[derive(Debug)]
pub struct ModStore {
    /// Contents and delta log. A commit holds the write lock across the
    /// mutation, the epoch bump, the journal append and the log record.
    table: RwLock<Table>,
    epoch: AtomicU64,
    /// The snapshot most recently built, reused while its epoch matches
    /// and patched (not discarded) when it does not.
    cached: RwLock<Option<Arc<QuerySnapshot>>>,
    snapshots_delta_applied: AtomicU64,
    snapshots_rebuilt: AtomicU64,
    /// Engine caches to drop alongside the contents on [`ModStore::clear`].
    caches: Mutex<Vec<Weak<EngineCache>>>,
    /// Subscription registries maintained after every commit (the
    /// standing-query layer; see [`crate::subscription`]).
    subscriptions: Mutex<Vec<Weak<SubscriptionRegistry>>>,
    /// Store-wide cache of convolved difference pdfs and their profiled
    /// kernel tables, keyed bit-exactly by [`PdfKind`]. Entries are pure
    /// functions of the kind (independent of the stored data), so the
    /// cache survives mutations and [`ModStore::clear`].
    pdf_cache: Mutex<HashMap<PdfKey, DifferenceModel>>,
    /// Durable/replicated journal sinks (see [`ModStore::attach_wal`]
    /// and [`ModStore::attach_replication`]).
    journal: Mutex<JournalSinks>,
    /// Fast-path flag: `true` once any journal sink is attached, so the
    /// commit hot path skips the journal lock entirely when durability
    /// and replication are off.
    journal_active: AtomicBool,
    /// The store's metrics registry + trace ring (see [`crate::telemetry`]).
    /// Shared with the attached WAL and the network layer so every
    /// pipeline stage records into one home.
    telemetry: Arc<Telemetry>,
}

impl Default for ModStore {
    fn default() -> Self {
        ModStore {
            table: RwLock::new(Table {
                objects: BTreeMap::new(),
                log: DeltaLog::new(DELTA_LOG_CAPACITY),
            }),
            epoch: AtomicU64::new(0),
            cached: RwLock::new(None),
            snapshots_delta_applied: AtomicU64::new(0),
            snapshots_rebuilt: AtomicU64::new(0),
            caches: Mutex::new(Vec::new()),
            subscriptions: Mutex::new(Vec::new()),
            pdf_cache: Mutex::new(HashMap::new()),
            journal: Mutex::new(JournalSinks::default()),
            journal_active: AtomicBool::new(false),
            telemetry: Arc::new(Telemetry::new()),
        }
    }
}

impl ModStore {
    /// An empty store.
    pub fn new() -> Self {
        ModStore::default()
    }

    /// The store's telemetry registry: counters, latency histograms, and
    /// the epoch-scoped trace ring every pipeline stage records into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The self-convolved difference pdf and its profiled kernel tables
    /// for location pdfs of `kind`, built once per kind and cached
    /// store-wide (see [`DifferenceModel`]).
    pub fn difference_model(&self, kind: &PdfKind) -> DifferenceModel {
        let key = pdf_key(kind);
        if let Some(model) = self.pdf_cache.lock().unwrap().get(&key) {
            return model.clone();
        }
        // Build outside the lock: convolution + profiling can take a few
        // milliseconds and must not block concurrent consumers of other
        // kinds. Determinism makes a racing double-build harmless (both
        // produce bit-identical tables).
        let profile = Arc::new(ProfiledPdf::of(kind.convolve_with(kind).as_ref()));
        let model = DifferenceModel { profile };
        self.pdf_cache
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(model)
            .clone()
    }

    /// Appends `ops` to the delta log under one new epoch, returning it.
    /// Takes the table the caller has already mutated, under the write
    /// lock it still holds, so snapshot builders (which hold the read
    /// lock) never see a half-committed mutation.
    ///
    /// With a journal sink attached, the commit is also encoded once
    /// (the wire body) and handed to the WAL and any replication hub
    /// under that lock, so journaled records land in strict epoch order.
    fn commit(&self, table: &mut Table, ops: impl IntoIterator<Item = DeltaOp>) -> u64 {
        let ops: Vec<DeltaOp> = ops.into_iter().collect();
        // The telemetry-off cost of this site is two relaxed loads.
        let started =
            (telemetry::metrics_on() || telemetry::trace_on()).then(std::time::Instant::now);
        if started.is_some() {
            self.telemetry
                .last_commit_start
                .store(telemetry::now_ns(), Ordering::Relaxed);
        }
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        if self.journal_active.load(Ordering::Acquire) {
            let repl: Vec<ReplOp> = ops.iter().map(ReplOp::from).collect();
            self.journal_ops(epoch, &repl);
        }
        for op in ops {
            table.log.record(epoch, op);
        }
        if let Some(t0) = started {
            let dur_ns = t0.elapsed().as_nanos() as u64;
            self.telemetry.commits.inc();
            self.telemetry.commit_ns.record(dur_ns);
            self.telemetry.trace_event(TraceEvent {
                epoch,
                stage: TraceStage::Commit,
                share: 0,
                detail: 0,
                dur_ns,
            });
        }
        epoch
    }

    /// Encodes one commit body and fans it out to the attached journal
    /// sinks. WAL append failures are absorbed into the WAL's status
    /// counters (`store wal-status`); a commit cannot fail after the
    /// in-memory mutation is already visible.
    fn journal_ops(&self, epoch: u64, ops: &[ReplOp]) {
        let journal = self.journal.lock().unwrap();
        let hubs: Vec<Arc<ReplicationHub>> = journal
            .hubs
            .iter()
            .filter_map(Weak::upgrade)
            .filter(|h| h.has_followers())
            .collect();
        if journal.wal.is_none() && hubs.is_empty() {
            return;
        }
        let mut body = Vec::new();
        encode_commit_body(&mut body, epoch, ops);
        if let Some(wal) = &journal.wal {
            wal.append_quiet(epoch, &body);
        }
        if !hubs.is_empty() {
            // `None` (an over-bound frame) marks every follower lagged;
            // they resync via snapshot instead of a gapped stream.
            let frame = repl_frame_bytes(&body);
            let bytes = frame.as_ref().map(|f| f.len() as u64).unwrap_or(0);
            for hub in &hubs {
                hub.publish(epoch, frame.as_ref());
            }
            self.telemetry.repl_frames.inc();
            self.telemetry.repl_bytes.add(bytes);
            if telemetry::metrics_on() {
                let (lag_epochs, lag_bytes) = hubs
                    .iter()
                    .map(|h| h.max_lag())
                    .fold((0, 0), |acc, lag| (acc.0.max(lag.0), acc.1.max(lag.1)));
                self.telemetry.repl_lag_epochs.set(lag_epochs);
                self.telemetry.repl_lag_bytes.set(lag_bytes);
            }
            self.telemetry.trace_event(TraceEvent {
                epoch,
                stage: TraceStage::Replicate,
                share: 0,
                detail: bytes,
                dur_ns: 0,
            });
        }
    }

    /// Inserts a trajectory; fails on duplicate ids.
    pub fn insert(&self, tr: UncertainTrajectory) -> Result<(), StoreError> {
        self.commit_insert(tr)?.run(self);
        Ok(())
    }

    /// [`ModStore::insert`] up to its commit: the maintenance the commit
    /// owes is returned, not run (see [`Maintenance`]).
    pub(crate) fn commit_insert(&self, tr: UncertainTrajectory) -> Result<Maintenance, StoreError> {
        let oid = tr.oid();
        let tr = Arc::new(tr);
        let mut table = self.table.write().unwrap();
        if table.objects.contains_key(&oid) {
            return Err(StoreError::DuplicateOid(oid));
        }
        table.objects.insert(oid, Arc::clone(&tr));
        self.commit(&mut table, [DeltaOp::Insert(tr)]);
        drop(table);
        Ok(self.maintenance())
    }

    /// Inserts many trajectories (all-or-nothing on duplicate ids).
    pub fn bulk_load<I: IntoIterator<Item = UncertainTrajectory>>(
        &self,
        trs: I,
    ) -> Result<usize, StoreError> {
        let items: Vec<Arc<UncertainTrajectory>> = trs.into_iter().map(Arc::new).collect();
        let mut table = self.table.write().unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for tr in &items {
            if table.objects.contains_key(&tr.oid()) || !seen.insert(tr.oid()) {
                return Err(StoreError::DuplicateOid(tr.oid()));
            }
        }
        let n = items.len();
        for tr in &items {
            table.objects.insert(tr.oid(), Arc::clone(tr));
        }
        self.commit(&mut table, items.into_iter().map(DeltaOp::Insert));
        drop(table);
        self.notify_subscriptions();
        Ok(n)
    }

    /// Registers or replaces a trajectory under **one** commit — the GPS
    /// correction op. Unlike a `remove` + `insert` pair, the delta is a
    /// single epoch, so every delta consumer (snapshot maintenance,
    /// engine carry, standing-query subscriptions) absorbs the update in
    /// one maintenance round instead of two. Returns the replaced
    /// trajectory, if any.
    pub fn update(&self, tr: UncertainTrajectory) -> Option<UncertainTrajectory> {
        let (old, maintenance) = self.commit_update(tr);
        maintenance.run(self);
        old.map(|a| Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()))
    }

    /// [`ModStore::update`] up to its commit: returns the replaced
    /// trajectory, if any, and the maintenance the commit owes.
    pub(crate) fn commit_update(
        &self,
        tr: UncertainTrajectory,
    ) -> (Option<Arc<UncertainTrajectory>>, Maintenance) {
        let oid = tr.oid();
        let tr = Arc::new(tr);
        let mut table = self.table.write().unwrap();
        let old = table.objects.insert(oid, Arc::clone(&tr));
        match &old {
            Some(_) => self.commit(&mut table, [DeltaOp::Remove(oid), DeltaOp::Insert(tr)]),
            None => self.commit(&mut table, [DeltaOp::Insert(tr)]),
        };
        drop(table);
        (old, self.maintenance())
    }

    /// Removes a trajectory.
    pub fn remove(&self, oid: Oid) -> Result<UncertainTrajectory, StoreError> {
        let (out, maintenance) = self.commit_remove(oid)?;
        maintenance.run(self);
        Ok(Arc::try_unwrap(out).unwrap_or_else(|a| (*a).clone()))
    }

    /// [`ModStore::remove`] up to its commit: returns the removed
    /// trajectory and the maintenance the commit owes.
    pub(crate) fn commit_remove(
        &self,
        oid: Oid,
    ) -> Result<(Arc<UncertainTrajectory>, Maintenance), StoreError> {
        let mut table = self.table.write().unwrap();
        let out = table
            .objects
            .remove(&oid)
            .ok_or(StoreError::NotFound(oid))?;
        self.commit(&mut table, [DeltaOp::Remove(oid)]);
        drop(table);
        Ok((out, self.maintenance()))
    }

    /// Clones the trajectory with the given id.
    pub fn get(&self, oid: Oid) -> Option<UncertainTrajectory> {
        let table = self.table.read().unwrap();
        table.objects.get(&oid).map(|a| (**a).clone())
    }

    /// `true` when the id is present.
    pub fn contains(&self, oid: Oid) -> bool {
        self.table.read().unwrap().objects.contains_key(&oid)
    }

    /// Number of stored trajectories.
    pub fn len(&self) -> usize {
        self.table.read().unwrap().objects.len()
    }

    /// `true` when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.table.read().unwrap().objects.is_empty()
    }

    /// All ids, ascending.
    pub fn oids(&self) -> Vec<Oid> {
        self.table.read().unwrap().objects.keys().copied().collect()
    }

    /// An `Arc`-shared, epoch-stamped snapshot of the MOD, ascending by
    /// id.
    ///
    /// The same snapshot is returned until a mutation bumps the epoch.
    /// After a mutation, the refresh is **incremental**: while the
    /// pending net delta stays within a quarter of the population, the
    /// previous snapshot's object list is patched in one merge pass
    /// instead of re-copied from the store — the result is identical to
    /// a cold rebuild. Oversized deltas, cold starts, and history gaps
    /// (log overflow, `clear`) rebuild fully.
    pub fn snapshot(&self) -> Arc<QuerySnapshot> {
        let now = self.epoch.load(Ordering::Acquire);
        if let Some(s) = self.cached.read().unwrap().as_ref() {
            if s.epoch() == now {
                return Arc::clone(s);
            }
        }
        // Under the read lock no mutation is mid-commit, so contents,
        // epoch, and delta log are mutually consistent.
        let table = self.table.read().unwrap();
        let epoch = self.epoch.load(Ordering::Acquire);
        let prev = self.cached.read().unwrap().clone();
        if let Some(p) = &prev {
            if p.epoch() == epoch {
                return Arc::clone(p);
            }
        }
        let refresh_started =
            (telemetry::metrics_on() || telemetry::trace_on()).then(std::time::Instant::now);
        let patched = prev.as_ref().and_then(|p| {
            let ops = table.log.ops_since(p.epoch())?;
            let net = NetDelta::from_ops(p, ops);
            let budget = REBUILD_FRACTION * p.len().max(1) as f64;
            if net.size() as f64 > budget {
                return None;
            }
            Some(QuerySnapshot::apply_delta(p, epoch, &net))
        });
        let snap = match patched {
            Some(s) => {
                self.snapshots_delta_applied.fetch_add(1, Ordering::Relaxed);
                if let Some(t0) = refresh_started {
                    let dur_ns = t0.elapsed().as_nanos() as u64;
                    self.telemetry.snapshot_patch_ns.record(dur_ns);
                    self.telemetry.trace_event(TraceEvent {
                        epoch,
                        stage: TraceStage::SnapshotPatch,
                        share: 0,
                        detail: 0,
                        dur_ns,
                    });
                }
                debug_assert_eq!(
                    s.len(),
                    table.objects.len(),
                    "delta-applied snapshot diverged from the live contents"
                );
                Arc::new(s)
            }
            None => {
                self.snapshots_rebuilt.fetch_add(1, Ordering::Relaxed);
                let objects = table.objects.values().map(|a| (**a).clone()).collect();
                let snap = Arc::new(QuerySnapshot::new(epoch, objects));
                if let Some(t0) = refresh_started {
                    let dur_ns = t0.elapsed().as_nanos() as u64;
                    self.telemetry.snapshot_rebuild_ns.record(dur_ns);
                    self.telemetry.trace_event(TraceEvent {
                        epoch,
                        stage: TraceStage::SnapshotRebuild,
                        share: 0,
                        detail: 0,
                        dur_ns,
                    });
                }
                snap
            }
        };
        drop(table);
        let mut cached = self.cached.write().unwrap();
        match cached.as_ref() {
            // Never replace a newer snapshot with an older rebuild.
            Some(existing) if existing.epoch() >= snap.epoch() => Arc::clone(existing),
            _ => {
                *cached = Some(Arc::clone(&snap));
                snap
            }
        }
    }

    /// Monotonic mutation counter.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Removes everything — contents, cached snapshot, delta history, and
    /// every attached engine cache — in one step, so no caller can
    /// observe a stale cached engine or snapshot against the emptied
    /// store.
    pub fn clear(&self) {
        let mut table = self.table.write().unwrap();
        table.objects.clear();
        // A whole-store wipe is not representable as per-object ops;
        // mark history incomplete so nothing delta-applies across it.
        // The journal *can* represent it ([`ReplOp::Clear`]), so the
        // WAL and followers see the wipe as a normal commit.
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        if self.journal_active.load(Ordering::Acquire) {
            self.journal_ops(epoch, &[ReplOp::Clear]);
        }
        table.log.invalidate(epoch);
        self.reset(table);
    }

    /// The tail of a whole-contents replacement ([`ModStore::clear`],
    /// [`ModStore::restore`]), given the write lock it made the
    /// replacement under: drops the cached snapshot before releasing
    /// the lock, so no refresh can patch it across the history gap, then
    /// clears every attached engine cache and runs the maintenance
    /// round that rebuilds the standing queries.
    fn reset(&self, table: RwLockWriteGuard<'_, Table>) {
        *self.cached.write().unwrap() = None;
        drop(table);
        self.caches.lock().unwrap().retain(|w| match w.upgrade() {
            Some(cache) => {
                cache.clear();
                true
            }
            None => false,
        });
        self.notify_subscriptions();
    }

    /// Ties an engine cache's lifecycle to this store: [`ModStore::clear`]
    /// will clear it in the same step as the contents.
    pub fn attach_cache(&self, cache: &Arc<EngineCache>) {
        self.caches.lock().unwrap().push(Arc::downgrade(cache));
    }

    /// Ties a subscription registry to this store: after every commit the
    /// registry's standing-query answers are maintained against the
    /// epoch's delta (see [`crate::subscription`]).
    pub fn attach_subscriptions(&self, registry: &Arc<SubscriptionRegistry>) {
        self.subscriptions
            .lock()
            .unwrap()
            .push(Arc::downgrade(registry));
    }

    /// Runs the freshly committed delta's maintenance in place. Must be
    /// called with **no store lock held**: maintenance takes snapshots
    /// and reads the delta log.
    fn notify_subscriptions(&self) {
        self.maintenance().run(self);
    }

    /// What the commit just made owes: the checkpoint its WAL cadence
    /// made due and one round per attached registry with its visit set
    /// looked up. Taken after the committer's write lock drops.
    fn maintenance(&self) -> Maintenance {
        let live: Vec<Arc<SubscriptionRegistry>> = {
            let mut subs = self.subscriptions.lock().unwrap();
            subs.retain(|w| w.strong_count() > 0);
            subs.iter().filter_map(Weak::upgrade).collect()
        };
        Maintenance {
            checkpoint: self.due_checkpoint(),
            rounds: live
                .into_iter()
                .map(|registry| {
                    let round = registry.begin(self);
                    (registry, round)
                })
                .collect(),
        }
    }

    /// Counters of the delta-epoch machinery.
    pub fn delta_stats(&self) -> DeltaStats {
        let cached_epoch = self
            .cached
            .read()
            .unwrap()
            .as_ref()
            .map(|s| s.epoch())
            .unwrap_or(0);
        let table = self.table.read().unwrap();
        let pending = table
            .log
            .ops_since(cached_epoch)
            .map(|o| o.len())
            .unwrap_or(0);
        DeltaStats {
            epoch: self.epoch(),
            log_len: table.log.len(),
            log_floor: table.log.floor(),
            pending_ops: pending,
            snapshots_delta_applied: self.snapshots_delta_applied.load(Ordering::Relaxed),
            snapshots_rebuilt: self.snapshots_rebuilt.load(Ordering::Relaxed),
        }
    }

    /// Caps the number of retained delta records (see
    /// [`DeltaLog::set_capacity`]): shrinking the bound truncates history
    /// and forces delta consumers whose base epoch fell off — snapshots,
    /// engine carries, subscriptions — onto their full-rebuild paths.
    pub fn set_delta_log_capacity(&self, capacity: usize) {
        self.table.write().unwrap().log.set_capacity(capacity);
    }

    /// Attaches a write-ahead log: every subsequent commit (including
    /// [`ModStore::clear`]) is appended durably in epoch order, and the
    /// WAL's checkpoint cadence is driven from the commit path. Attach
    /// *after* recovery ([`crate::durability::recover`]) so replayed
    /// commits are not re-journaled.
    pub fn attach_wal(&self, wal: &Arc<Wal>) {
        wal.set_telemetry(&self.telemetry);
        self.journal.lock().unwrap().wal = Some(Arc::clone(wal));
        self.journal_active.store(true, Ordering::Release);
    }

    /// Attaches a replication hub: every subsequent commit is encoded
    /// once and fanned out to the hub's follower feeds (see
    /// [`crate::durability::ReplicationHub`]). The network server
    /// attaches its hub at bind time.
    pub fn attach_replication(&self, hub: &Arc<ReplicationHub>) {
        self.journal.lock().unwrap().hubs.push(Arc::downgrade(hub));
        self.journal_active.store(true, Ordering::Release);
    }

    /// The attached WAL, if any.
    pub fn wal(&self) -> Option<Arc<Wal>> {
        self.journal.lock().unwrap().wal.clone()
    }

    /// Counters of the attached WAL (`None` when running without one) —
    /// the CLI's `store wal-status` view.
    pub fn wal_status(&self) -> Option<WalStatus> {
        self.wal().map(|w| w.status())
    }

    /// The attached WAL when the commit just made brought its checkpoint
    /// cadence due. Asked after every commit once the committer's write
    /// lock is dropped (a checkpoint takes a store snapshot).
    fn due_checkpoint(&self) -> Option<Arc<Wal>> {
        if !self.journal_active.load(Ordering::Acquire) {
            return None;
        }
        self.wal().filter(|wal| wal.take_checkpoint_due())
    }

    /// Applies one replicated (or WAL-replayed) commit verbatim and
    /// returns its epoch. Inserts are upserts and removes tolerate
    /// absence — the ops already happened on the leader, so this side
    /// mirrors rather than validates. Runs the normal commit path
    /// (delta log, subscription maintenance), so a follower's standing
    /// queries are maintained exactly like the leader's.
    pub fn apply_replicated(&self, ops: &[ReplOp]) -> u64 {
        if ops.iter().any(|op| matches!(op, ReplOp::Clear)) {
            // A wipe commit is journaled alone; mirror it through the
            // full clear path (caches, cached snapshot, log floor).
            self.clear();
            return self.epoch();
        }
        let mut table = self.table.write().unwrap();
        let mut delta_ops = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                ReplOp::Insert(tr) => {
                    table.objects.insert(tr.oid(), Arc::clone(tr));
                    delta_ops.push(DeltaOp::Insert(Arc::clone(tr)));
                }
                ReplOp::Remove(oid) => {
                    table.objects.remove(oid);
                    delta_ops.push(DeltaOp::Remove(*oid));
                }
                ReplOp::Clear => unreachable!("handled above"),
            }
        }
        let epoch = self.commit(&mut table, delta_ops);
        drop(table);
        self.notify_subscriptions();
        epoch
    }

    /// Replaces the entire contents and jumps the epoch to `epoch` in
    /// one step — the bootstrap primitive shared by crash recovery
    /// (loading a checkpoint image) and follower snapshot-resync.
    /// History is marked incomplete at the new epoch (like
    /// [`ModStore::clear`]) and attached caches are dropped, but
    /// attached subscription registries survive: their standing queries
    /// rebuild against the restored contents in the maintenance round
    /// this triggers. Not journaled — a restore re-establishes state
    /// that is already durable elsewhere.
    pub fn restore(&self, objects: Vec<Arc<UncertainTrajectory>>, epoch: u64) {
        // Built before the lock is taken. Both producers, image decode
        // and resync decode, hand the objects over ascending by id, so
        // the map is bulk-built from one sorted run.
        let mut objects: BTreeMap<Oid, Arc<UncertainTrajectory>> =
            objects.into_iter().map(|tr| (tr.oid(), tr)).collect();
        let mut table = self.table.write().unwrap();
        std::mem::swap(&mut table.objects, &mut objects);
        self.epoch.store(epoch, Ordering::Release);
        table.log.invalidate(epoch);
        self.reset(table);
    }

    /// Owned copies of the delta records newer than `base` (`None` when
    /// the log is incomplete past `base`). The clones are cheap — records
    /// share their trajectories by `Arc` — and taken under the read
    /// lock, so consumers can process them without holding it.
    pub(crate) fn ops_since_cloned(&self, base: u64) -> Option<Vec<DeltaRecord>> {
        let table = self.table.read().unwrap();
        table
            .log
            .ops_since(base)
            .map(|ops| ops.into_iter().cloned().collect())
    }

    /// Runs `f` over the delta records newer than `base` (`None` when the
    /// log is incomplete past `base`). Used by the engine-cache carry
    /// check; the closure runs under the read lock and must not call
    /// back into the store.
    pub(crate) fn with_ops_since<R>(
        &self,
        base: u64,
        f: impl FnOnce(Option<&[&DeltaRecord]>) -> R,
    ) -> R {
        f(self.table.read().unwrap().log.ops_since(base).as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_traj::trajectory::Trajectory;

    fn tr(oid: u64) -> UncertainTrajectory {
        UncertainTrajectory::with_uniform_pdf(
            Trajectory::from_triples(Oid(oid), &[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]).unwrap(),
            0.5,
        )
        .unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let s = ModStore::new();
        assert!(s.is_empty());
        s.insert(tr(1)).unwrap();
        s.insert(tr(2)).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.contains(Oid(1)));
        assert_eq!(s.get(Oid(1)).unwrap().oid(), Oid(1));
        assert_eq!(s.insert(tr(1)), Err(StoreError::DuplicateOid(Oid(1))));
        s.remove(Oid(1)).unwrap();
        assert_eq!(s.remove(Oid(1)), Err(StoreError::NotFound(Oid(1))));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn bulk_load_is_atomic() {
        let s = ModStore::new();
        s.insert(tr(3)).unwrap();
        let res = s.bulk_load(vec![tr(4), tr(3)]);
        assert_eq!(res, Err(StoreError::DuplicateOid(Oid(3))));
        // Nothing from the failed batch is visible.
        assert!(!s.contains(Oid(4)));
        assert_eq!(s.bulk_load(vec![tr(5), tr(6)]).unwrap(), 2);
        assert_eq!(s.len(), 3);
        // Duplicates *within* one batch are rejected too.
        assert_eq!(
            s.bulk_load(vec![tr(7), tr(7)]),
            Err(StoreError::DuplicateOid(Oid(7)))
        );
        assert!(!s.contains(Oid(7)));
    }

    #[test]
    fn epoch_bumps_on_mutation() {
        let s = ModStore::new();
        let e0 = s.epoch();
        s.insert(tr(1)).unwrap();
        let e1 = s.epoch();
        assert!(e1 > e0);
        let _ = s.get(Oid(1));
        assert_eq!(s.epoch(), e1); // reads do not bump
        s.clear();
        assert!(s.epoch() > e1);
        assert!(s.is_empty());
    }

    #[test]
    fn update_replaces_under_one_epoch() {
        let s = ModStore::new();
        s.insert(tr(1)).unwrap();
        s.insert(tr(2)).unwrap();
        let _ = s.snapshot();
        let before = s.epoch();
        // Replace: one epoch, old content returned.
        let old = s.update(tr(1)).expect("replaced");
        assert_eq!(old.oid(), Oid(1));
        assert_eq!(s.epoch(), before + 1);
        assert_eq!(s.len(), 2);
        // The delta collapses to a single-object update.
        assert_eq!(s.delta_stats().pending_ops, 2, "remove + insert records");
        let snap = s.snapshot();
        assert!(snap.contains(Oid(1)));
        // Upsert of an absent id inserts.
        assert!(s.update(tr(9)).is_none());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let s = ModStore::new();
        s.insert(tr(9)).unwrap();
        s.insert(tr(2)).unwrap();
        s.insert(tr(5)).unwrap();
        let snap = s.snapshot();
        let oids: Vec<u64> = snap.iter().map(|t| t.oid().0).collect();
        assert_eq!(oids, vec![2, 5, 9]);
        assert_eq!(s.oids(), vec![Oid(2), Oid(5), Oid(9)]);
    }

    #[test]
    fn snapshot_is_shared_until_mutation() {
        let s = ModStore::new();
        s.insert(tr(1)).unwrap();
        s.insert(tr(2)).unwrap();
        let a = s.snapshot();
        let b = s.snapshot();
        assert!(
            Arc::ptr_eq(&a, &b),
            "unchanged store must share the snapshot"
        );
        assert_eq!(a.epoch(), s.epoch());
        s.insert(tr(3)).unwrap();
        let c = s.snapshot();
        assert!(
            !Arc::ptr_eq(&a, &c),
            "mutation must invalidate the snapshot"
        );
        assert_eq!(c.len(), 3);
        assert_eq!(c.epoch(), s.epoch());
        // The old snapshot still reads consistently at its own epoch.
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn small_mutations_refresh_by_delta() {
        let s = ModStore::new();
        s.bulk_load((0..40).map(tr)).unwrap();
        let _ = s.snapshot();
        s.remove(Oid(7)).unwrap();
        s.insert(tr(100)).unwrap();
        let second = s.snapshot();
        let stats = s.delta_stats();
        assert!(
            stats.snapshots_delta_applied >= 1,
            "small delta must patch, not rebuild: {stats:?}"
        );
        assert!(!second.contains(Oid(7)));
        assert!(second.contains(Oid(100)));
        assert_eq!(second.len(), 40);
    }

    #[test]
    fn an_endless_stream_of_small_deltas_never_rebuilds() {
        let at = |oid: u64, y: f64| {
            UncertainTrajectory::with_uniform_pdf(
                Trajectory::from_triples(Oid(oid), &[(0.0, y, 0.0), (1.0, y, 1.0)]).unwrap(),
                0.5,
            )
            .unwrap()
        };
        const N: u64 = 200;
        let s = ModStore::new();
        s.bulk_load((0..N).map(|oid| at(oid, 0.0))).unwrap();
        let _ = s.snapshot();
        let cold = s.delta_stats().snapshots_rebuilt;
        for k in 0..2 * N {
            s.update(at((k * 7) % N, 1.0 + k as f64));
            let snap = s.snapshot();
            let live: Vec<UncertainTrajectory> =
                s.oids().into_iter().filter_map(|o| s.get(o)).collect();
            assert_eq!(
                snap.objects(),
                QuerySnapshot::new(snap.epoch(), live).objects()
            );
        }
        let stats = s.delta_stats();
        assert_eq!(stats.snapshots_rebuilt, cold, "{stats:?}");
        assert_eq!(stats.snapshots_delta_applied, 2 * N);
    }

    #[test]
    fn oversized_deltas_fall_back_to_rebuild() {
        let s = ModStore::new();
        s.bulk_load((0..10).map(tr)).unwrap();
        let _ = s.snapshot();
        let before = s.delta_stats().snapshots_rebuilt;
        // Touch well over the default fraction of the population.
        for oid in 0..8 {
            s.remove(Oid(oid)).unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(s.delta_stats().snapshots_rebuilt, before + 1);
    }

    #[test]
    fn clear_resets_delta_state_and_attached_caches() {
        let s = ModStore::new();
        let cache = Arc::new(EngineCache::with_capacity(8));
        s.attach_cache(&cache);
        s.bulk_load((0..5).map(tr)).unwrap();
        let _ = s.snapshot();
        s.clear();
        assert!(s.is_empty());
        let stats = s.delta_stats();
        assert_eq!(stats.log_len, 0);
        assert_eq!(stats.log_floor, stats.epoch);
        assert_eq!(cache.entries(), 0);
        // A snapshot after clear is a rebuild of the empty population.
        assert_eq!(s.snapshot().len(), 0);
    }

    #[test]
    fn delta_stats_report_pending_ops() {
        let s = ModStore::new();
        s.bulk_load((0..6).map(tr)).unwrap();
        let _ = s.snapshot();
        s.insert(tr(50)).unwrap();
        s.remove(Oid(2)).unwrap();
        let stats = s.delta_stats();
        assert_eq!(stats.pending_ops, 2, "{stats:?}");
        let _ = s.snapshot();
        assert_eq!(s.delta_stats().pending_ops, 0);
    }
}
