//! The registry of standing queries: names, shares, registration, and
//! the maintenance round that routes each commit to the shares its ops
//! can affect.

use super::index::SubscriptionIndex;
use super::ladder::{ShareCore, SharedOps};
use super::render::{probe_column_at, render_output, render_row_output};
use super::sink::{DeltaSink, SubscriberSlot};
use super::{SubAnswer, SubscriptionError, SubscriptionInfo, SubscriptionStats, PROB_ROW_SAMPLES};
use crate::delta::ForwardProof;
use crate::plan::PrefilterPolicy;
use crate::prefilter::Aabb3;
use crate::ql::ast::{PredicateKind, Query};
use crate::ql::parse_object_name;
use crate::server::QueryOutput;
use crate::snapshot::QuerySnapshot;
use crate::store::ModStore;
use crate::telemetry::{self, TraceEvent, TraceStage};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use unn_core::kernel::ColumnKernel;
use unn_geom::interval::TimeInterval;
use unn_traj::trajectory::Oid;

/// A share's counters as a visit found them: its stats and its
/// quiet-patch count (`ShareCore::quiet_patches`).
type Counted = (SubscriptionStats, u64);

/// Which maintenance ladder a subscription runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum SubKind {
    /// Forward `PROB_NN(…) > 0`: banded qualification intervals
    /// (optionally rank-bounded).
    Intervals {
        /// The `RANK k` bound, when given.
        rank: Option<usize>,
    },
    /// Forward `PROB_NN(…) > p` with `p > 0`: sampled probability rows
    /// over the forward engine.
    ForwardRows,
    /// `PROB_RNN(…) > p`: sampled probability rows, one per perspective
    /// object, with per-perspective envelope carry.
    ReverseRows,
}

/// The identity of one maintained computation — everything that shapes
/// the engine, the maintenance ladder, and the produced answer.
/// Subscriptions whose statements agree on every field (the statement's
/// quantifier, target and threshold `p` are *render-side* and
/// deliberately absent) share
/// one [`SharedSub`]: one engine, one skip/patch/rebuild round per
/// commit, one answer diffed once and broadcast to every subscriber
/// slot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) struct ShareKey {
    pub(super) oid: Oid,
    /// The window endpoints as `f64` bit patterns (`Eq`/`Hash` over the
    /// exact registered values).
    pub(super) window: (u64, u64),
    pub(super) kind: SubKind,
    pub(super) policy: PrefilterPolicy,
    pub(super) samples: u32,
}

/// One shared maintained computation plus its subscriber slots. The
/// registry's `shares` map owns one of these per distinct [`ShareKey`];
/// every [`SubState`] holds an `Arc` to its share.
#[derive(Debug)]
pub(super) struct SharedSub {
    /// Registry-unique id (never reused) — the share's key in the
    /// [`SubscriptionIndex`].
    id: u64,
    key: ShareKey,
    core: Mutex<ShareCore>,
    /// The *completed*-round watermark this share is reconciled with:
    /// completed rounds in `(rounds_absorbed, completed]` did not visit
    /// the share (the index pruned them), and materialize as
    /// `skipped_unvisited` lazily — folded into the core's stats at the
    /// next visit, and added on top at every info read. A round that
    /// visits this share absorbs its own number here at *finish* time,
    /// under the registry's finish lock and before the round counter
    /// advances — so a reader that observes the counter covering a
    /// round also observes the round absorbed, and a visit is never
    /// re-counted as a prune. That ordering is what makes
    /// `visited + skipped_unvisited <= commits` hold at every instant.
    /// An atomic outside the core, so finishing a round takes no core
    /// lock. Keeping the unvisited path write-free is the whole point
    /// of the index.
    rounds_absorbed: AtomicU64,
}

impl SharedSub {
    /// Folds the completed rounds the index pruned this share from into
    /// its `skipped_unvisited`. Called with the core locked, so a reader
    /// of the core sees the fold and the watermark move together.
    fn absorb_pruned(&self, core: &mut ShareCore, completed: u64) {
        let absorbed = self.rounds_absorbed.fetch_max(completed, Ordering::AcqRel);
        core.stats.skipped_unvisited += completed.saturating_sub(absorbed);
    }
}

/// One maintenance round whose visit set is decided: the index lookup
/// of [`SubscriptionRegistry::begin`], carried to the
/// [`SubscriptionRegistry::run`] that completes it on the same registry.
/// `Send + 'static`, so the network server looks a commit's round up on
/// its event loop and climbs it on a worker.
#[must_use = "a begun round claimed its commits: run it, or the visited shares miss them"]
#[derive(Debug)]
pub(crate) struct Round {
    /// The lookup's duration, when metrics or tracing are on: a round's
    /// recorded time is its lookup plus its run, not the wait between.
    lookup_ns: Option<u64>,
    now: u64,
    /// The shares to visit; `None` when there is no round at all (no
    /// share registered, or no op landed since the last lookup).
    visit: Option<Vec<(u64, Arc<SharedSub>)>>,
    registered: usize,
}

impl Round {
    /// `true` when the round visits no share: running it only counts
    /// the round.
    pub(crate) fn is_idle(&self) -> bool {
        self.visit.as_ref().map_or(true, Vec::is_empty)
    }
}

/// One registered standing query: the thin per-name record. The
/// maintained state lives in the [`SharedSub`]; the per-subscription
/// query is kept for render-side semantics (quantifier/target) and the
/// `SHOW SUBSCRIPTIONS` statement surface.
#[derive(Debug)]
struct SubState {
    name: String,
    query: Query,
    share: Arc<SharedSub>,
}

impl SubState {
    fn info(&self, rounds: u64) -> SubscriptionInfo {
        let core = self.share.core.lock().unwrap();
        self.info_from(&core, rounds)
    }

    /// The info row against an already-locked core (avoids re-locking
    /// when the caller holds it). `rounds` is the registry's completed
    /// round counter: index-pruned rounds never touch the core, so
    /// their `skipped_unvisited` tally materializes here, at read time,
    /// from the gap between the counter and the core's reconciliation
    /// watermark.
    fn info_from(&self, core: &ShareCore, rounds: u64) -> SubscriptionInfo {
        SubscriptionInfo {
            name: self.name.clone(),
            statement: self.query.to_string(),
            last_epoch: core.last_epoch,
            entries: core.answer.len(),
            pending_deltas: core
                .slot(&self.name)
                .map(SubscriberSlot::pending)
                .unwrap_or_default(),
            error: core.error.clone(),
            stats: reconciled_stats(&self.share, core, rounds),
        }
    }
}

impl SubscriptionStats {
    /// Adds `other`'s counters to these.
    fn add(&mut self, other: &SubscriptionStats) {
        self.skipped += other.skipped;
        self.skipped_ops += other.skipped_ops;
        self.patched += other.patched;
        self.rebuilt += other.rebuilt;
        self.envelopes_carried += other.envelopes_carried;
        self.functions_reused += other.functions_reused;
        self.functions_built += other.functions_built;
        self.rows_patched += other.rows_patched;
        self.perspectives_skipped += other.perspectives_skipped;
        self.visited += other.visited;
        self.skipped_unvisited += other.skipped_unvisited;
        self.batched_commits += other.batched_commits;
    }
}

/// A share's counters, with the index-pruned rounds (which never touch
/// the core) read off the gap between `rounds` and its watermark.
fn reconciled_stats(share: &SharedSub, core: &ShareCore, rounds: u64) -> SubscriptionStats {
    let mut stats = core.stats;
    stats.skipped_unvisited += rounds.saturating_sub(share.rounds_absorbed.load(Ordering::Acquire));
    stats
}

/// The registry of standing queries attached to a store. Names live in
/// one ordered map; the maintained computations live in the `shares`
/// map, deduplicated by `ShareKey` — `sync` runs **one maintenance
/// round per share**, however many subscriptions ride it. All methods
/// are thread-safe; maintenance of one share serializes on its core
/// mutex, so concurrent mutations apply their updates in commit order.
///
/// Lock hierarchy (acquire left to right, release in any order): name
/// map → `shares` map → share core → subscription index. A maintenance
/// round never takes the name map: only registration, unregistration
/// and the per-name reads do.
///
/// Registering a standing query, receiving its pushed delta through a
/// [`DeltaSink`], and folding it back onto the base answer:
///
/// ```
/// use std::sync::Arc;
/// use unn_modb::ql::parser::parse;
/// use unn_modb::store::ModStore;
/// use unn_modb::subscription::{DeltaSink, SubscriptionRegistry};
/// use unn_modb::PrefilterPolicy;
/// use unn_traj::trajectory::{Oid, Trajectory};
/// use unn_traj::uncertain::UncertainTrajectory;
///
/// fn tr(oid: u64, y: f64) -> UncertainTrajectory {
///     UncertainTrajectory::with_uniform_pdf(
///         Trajectory::from_triples(Oid(oid), &[(0.0, y, 0.0), (10.0, y, 60.0)]).unwrap(),
///         0.5,
///     )
///     .unwrap()
/// }
///
/// let store = ModStore::new();
/// store.bulk_load(vec![tr(0, 0.0), tr(1, 1.0)]).unwrap();
/// let registry = Arc::new(SubscriptionRegistry::new());
/// store.attach_subscriptions(&registry);
///
/// let query =
///     parse("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0")
///         .unwrap();
/// registry
///     .register(&store, "near0", query, PrefilterPolicy::default())
///     .unwrap();
///
/// // A network connection's outbox; here drained in-process.
/// let sink = Arc::new(DeltaSink::bounded(8));
/// assert!(registry.attach_sink("near0", &sink));
///
/// let base = registry.answer("near0").unwrap();
/// store.insert(tr(7, 0.4)).unwrap(); // maintenance runs on commit
///
/// let event = sink.try_recv().expect("delta pushed");
/// assert_eq!(event.subscription, "near0");
/// // Folding the pushed delta reproduces the maintained answer exactly.
/// assert_eq!(base.apply(&event.delta), registry.answer("near0").unwrap());
/// ```
#[derive(Debug)]
pub struct SubscriptionRegistry {
    names: Mutex<BTreeMap<String, SubState>>,
    /// The deduplicated maintained computations, keyed by share
    /// identity. A share is inserted by the first registration on its
    /// key and removed when its last subscriber unregisters.
    shares: Mutex<HashMap<ShareKey, Arc<SharedSub>>>,
    /// The counters of every share that has left `shares`, folded at
    /// removal, so registry-wide totals never fall. Locked only under
    /// the `shares` lock: a reader of both sees each share exactly once.
    retired: Mutex<SubscriptionStats>,
    row_samples: std::sync::atomic::AtomicU32,
    /// The publication-style guard index a maintenance round prunes its
    /// visit set with (see [`SubscriptionIndex`]).
    index: Mutex<SubscriptionIndex>,
    /// Indexed maintenance rounds **completed** so far — the clock
    /// `skipped_unvisited` reconciles against (see
    /// `SharedSub::rounds_absorbed`). Advanced only in
    /// [`Self::finish_round`], under [`Self::round_finish`].
    sync_rounds: AtomicU64,
    /// Serializes round completion: a finishing round must assign its
    /// round number and absorb it into every share it visited as one
    /// atomic step, or a concurrent finisher could steal the number and
    /// the stolen slot would later be mis-counted as a pruned round
    /// (an observable `visited + skipped_unvisited > commits`). Held
    /// for a few atomic writes only: it never nests a core lock, so an
    /// idle round finishes without waiting on a share.
    round_finish: Mutex<()>,
    /// Share-id mint ([`SharedSub::id`]); ids are never reused.
    next_share_id: AtomicU64,
}

impl Default for SubscriptionRegistry {
    fn default() -> Self {
        SubscriptionRegistry {
            names: Mutex::default(),
            shares: Mutex::new(HashMap::new()),
            retired: Mutex::default(),
            row_samples: std::sync::atomic::AtomicU32::new(PROB_ROW_SAMPLES),
            index: Mutex::new(SubscriptionIndex::default()),
            sync_rounds: AtomicU64::new(0),
            round_finish: Mutex::new(()),
            next_share_id: AtomicU64::new(0),
        }
    }
}

impl SubscriptionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SubscriptionRegistry::default()
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.names.lock().unwrap().len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.names.lock().unwrap().is_empty()
    }

    /// Number of distinct maintained computations (shares):
    /// `share_count() < len()` whenever subscriptions coalesced onto one
    /// engine.
    pub fn share_count(&self) -> usize {
        self.shares.lock().unwrap().len()
    }

    /// One row per live share, however many names ride it (sum these
    /// for registry-wide totals, not the per-name [`Self::list`]): its
    /// counters and, for a row share, its kept column kernel
    /// (`unn_core::kernel`, "Memo"). Taken under each share's lock. A
    /// first row, without a kernel, holds the counters of every share
    /// that has left the registry, frozen at its removal, so the totals
    /// never fall when a share goes.
    pub fn share_stats(&self) -> Vec<(SubscriptionStats, Option<ColumnKernel>)> {
        let rounds = self.sync_rounds.load(Ordering::Acquire);
        let shares = self.shares.lock().unwrap();
        let mut rows = vec![(*self.retired.lock().unwrap(), None)];
        let live: Vec<Arc<SharedSub>> = shares.values().cloned().collect();
        drop(shares);
        rows.extend(live.iter().map(|s| {
            let core = s.core.lock().unwrap();
            let kernel = core.kernel.as_ref().map(|(_, k)| k.clone());
            (reconciled_stats(s, &core, rounds), kernel)
        }));
        rows
    }

    /// Removes `share` from `shares` (the caller holds that lock, and
    /// `core` is the share's), folding its counters into the retired
    /// total.
    fn retire(
        &self,
        shares: &mut HashMap<ShareKey, Arc<SharedSub>>,
        share: &SharedSub,
        core: &ShareCore,
    ) {
        let stats = reconciled_stats(share, core, self.sync_rounds.load(Ordering::Acquire));
        self.retired.lock().unwrap().add(&stats);
        shares.remove(&share.key);
        self.index.lock().unwrap().remove(share.id);
    }

    /// The probe count newly registered row subscriptions sample their
    /// window at.
    pub fn row_samples(&self) -> u32 {
        self.row_samples.load(Ordering::Relaxed)
    }

    /// Sets the probe count for **future** row registrations (minimum
    /// 1; default [`PROB_ROW_SAMPLES`]). Existing subscriptions keep
    /// the density they were registered with — the sample count is part
    /// of their row-set shape. Denser sampling sharpens the threshold
    /// fractions; sparser sampling cuts the per-patch `P^WD` quadrature
    /// cost proportionally.
    pub fn set_row_samples(&self, samples: u32) {
        self.row_samples.store(samples.max(1), Ordering::Relaxed);
    }

    /// The registered name closest to `name` by Levenshtein distance,
    /// when one is near enough (distance ≤ max(2, |name| / 3)) to
    /// plausibly be a typo — the `UNREGISTER` / `sub drop` hint.
    pub fn nearest_name(&self, name: &str) -> Option<String> {
        let budget = (name.chars().count() / 3).max(2);
        let mut best: Option<(usize, String)> = None;
        for candidate in self.names.lock().unwrap().keys() {
            if candidate == name {
                continue;
            }
            let d = levenshtein(name, candidate);
            if d <= budget && best.as_ref().map(|(bd, _)| d < *bd).unwrap_or(true) {
                best = Some((d, candidate.clone()));
            }
        }
        best.map(|(_, n)| n)
    }

    /// Registers `query` as a standing query named `name`, evaluating it
    /// once against the store's current snapshot.
    ///
    /// Three statement shapes are maintainable: forward `PROB_NN(…) > 0`
    /// (any category, optional `RANK`) through the interval ladder, and
    /// threshold `PROB_NN(…) > p` / reverse `PROB_RNN(…)` statements
    /// through the probability-row ladder. The one remaining refusal —
    /// a `RANK` bound combined with a positive threshold — carries the
    /// offending token's span so callers can render a caret.
    pub fn register(
        &self,
        store: &ModStore,
        name: &str,
        query: Query,
        policy: PrefilterPolicy,
    ) -> Result<SubscriptionInfo, SubscriptionError> {
        self.register_with_sink(store, name, query, policy, None)
    }

    /// [`SubscriptionRegistry::register`] with a push outbox attached
    /// **atomically**: the sink is wired up under the same locks that
    /// install the subscription, so no commit can slip between
    /// registration and attachment — the first pushed delta is the first
    /// answer change after the returned info's epoch, guaranteed. (An
    /// [`SubscriptionRegistry::attach_sink`] after the fact has a window
    /// in which a delta reaches no sink.)
    ///
    /// When a share with the same `ShareKey` already exists — same
    /// query object, window, ladder kind, policy, and sampling (row
    /// statements differing only in their threshold `p` included: `p` is
    /// applied at render time) — the registration attaches a subscriber
    /// slot to it in
    /// `O(1)` instead of evaluating anything: thousands of subscriptions
    /// on one query object/window cost one engine and one maintenance
    /// round per commit. A reverse share's `O(N²)` perspective build is
    /// likewise paid once per key, not once per subscription.
    pub fn register_with_sink(
        &self,
        store: &ModStore,
        name: &str,
        query: Query,
        policy: PrefilterPolicy,
        sink: Option<&Arc<DeltaSink>>,
    ) -> Result<SubscriptionInfo, SubscriptionError> {
        let kind = match (query.predicate, query.prob_threshold > 0.0, query.rank) {
            (PredicateKind::Nn, true, Some(_)) => {
                return Err(SubscriptionError::Unsupported {
                    message: "RANK-bounded threshold standing queries are not supported \
                              (drop the RANK bound or the positive threshold; incremental \
                              rank maintenance is an open ROADMAP item)"
                        .to_string(),
                    span: Some(query.spans.rank),
                })
            }
            (PredicateKind::Nn, false, rank) => SubKind::Intervals { rank },
            (PredicateKind::Nn, true, None) => SubKind::ForwardRows,
            // The parser rejects RANK on PROB_RNN, so `rank` is None.
            (PredicateKind::Rnn, _, _) => SubKind::ReverseRows,
        };
        let oid = parse_object_name(&query.query_object).ok_or_else(|| {
            SubscriptionError::Evaluation(format!(
                "cannot resolve query object '{}'",
                query.query_object
            ))
        })?;
        let window = TimeInterval::try_new(query.window.0, query.window.1).ok_or_else(|| {
            SubscriptionError::Evaluation(format!(
                "invalid window [{}, {}]",
                query.window.0, query.window.1
            ))
        })?;
        let key = ShareKey {
            oid,
            window: (window.start().to_bits(), window.end().to_bits()),
            kind,
            policy,
            samples: self.row_samples(),
        };
        loop {
            // Racy duplicate pre-check (re-checked under the lock
            // below): fail fast before paying an evaluation.
            if self.names.lock().unwrap().contains_key(name) {
                return Err(SubscriptionError::NameTaken(name.to_string()));
            }
            // Evaluate a fresh core WITHOUT any registry lock when no
            // share exists yet: a reverse registration's O(N² · samples)
            // build must not stall maintenance (every commit's sync
            // serializes on the share cores).
            let prebuilt = if self.shares.lock().unwrap().contains_key(&key) {
                None
            } else {
                let snapshot = store.snapshot();
                let mut core = ShareCore::new(&key);
                core.last_epoch = snapshot.epoch();
                Self::evaluate_into(&mut core, store, &snapshot)
                    .map_err(SubscriptionError::Evaluation)?;
                Some(core)
            };
            let mut map = self.names.lock().unwrap();
            if map.contains_key(name) {
                return Err(SubscriptionError::NameTaken(name.to_string()));
            }
            let mut shares = self.shares.lock().unwrap();
            let (share, fresh) = match (shares.get(&key), prebuilt) {
                (Some(existing), _) => (Arc::clone(existing), false),
                (None, Some(core)) => {
                    let share = Arc::new(SharedSub {
                        id: self.next_share_id.fetch_add(1, Ordering::Relaxed) + 1,
                        key: key.clone(),
                        core: Mutex::new(core),
                        rounds_absorbed: AtomicU64::new(0),
                    });
                    shares.insert(key.clone(), Arc::clone(&share));
                    // Join the guard index as always-visit *before* any
                    // commit can decide a visit set without us; the
                    // catch-up below then publishes the real guard.
                    self.index
                        .lock()
                        .unwrap()
                        .insert(share.id, Arc::downgrade(&share));
                    (share, true)
                }
                // The share we planned to join was unregistered while we
                // took the locks: retry (and evaluate ourselves).
                (None, None) => continue,
            };
            let mut core = share.core.lock().unwrap();
            // Commits that landed during the unlocked evaluation ran
            // their maintenance without this share (and an existing
            // share may be mid-burst, or a commit's round may not have
            // run yet): catch up under the lock (a no-op
            // when already current; the ladder reconciles from the
            // delta log, rebuilding if it was truncated), so the
            // installed answer is current and every later commit's
            // delta reaches the new slot.
            let mut lazy = None;
            // Like the guard catch-up inside `publish_guard`, this
            // reconciliation is not an observable maintenance round:
            // the commits it absorbs are already booked to the rounds
            // that claimed them (as visits on this share or as the
            // pruned-round fold just below), so its ladder movement
            // stays out of the rider-visible stats.
            let saved = core.stats;
            Self::refresh(&mut core, store, &mut lazy);
            self.publish_guard(share.id, &mut core, store, &mut lazy);
            core.stats = saved;
            share.absorb_pruned(&mut core, self.sync_rounds.load(Ordering::Acquire));
            if let Some(message) = core.error.clone() {
                if core.slots.is_empty() {
                    // A share no subscriber rides must not linger.
                    self.retire(&mut shares, &share, &core);
                }
                return Err(SubscriptionError::Evaluation(message));
            }
            if fresh {
                // The bootstrap evaluation/catch-up is the base answer,
                // not maintenance work the share's riders observed.
                core.stats = SubscriptionStats::default();
            }
            // The initial answer is the subscriber's base, not a
            // change: the sink attaches under the core lock, so the
            // first pushed delta is the first answer change after the
            // returned epoch.
            core.slots.push(SubscriberSlot {
                name: name.to_string(),
                sinks: sink.into_iter().map(Arc::downgrade).collect(),
            });
            let sub = SubState {
                name: name.to_string(),
                query,
                share: Arc::clone(&share),
            };
            let info = sub.info_from(&core, self.sync_rounds.load(Ordering::Acquire));
            drop(core);
            map.insert(name.to_string(), sub);
            return Ok(info);
        }
    }

    /// Drops the named standing query. `true` when it existed. The
    /// share survives while other subscriptions ride it; the last
    /// unregistration drops the engine and its maintenance round.
    pub fn unregister(&self, name: &str) -> bool {
        let mut map = self.names.lock().unwrap();
        let Some(sub) = map.remove(name) else {
            return false;
        };
        let mut shares = self.shares.lock().unwrap();
        let mut core = sub.share.core.lock().unwrap();
        core.slots.retain(|s| s.name != name);
        if core.slots.is_empty() {
            self.retire(&mut shares, &sub.share, &core);
        }
        true
    }

    /// Drops the named standing query, or explains which registered
    /// name it was probably a typo for.
    pub fn unregister_checked(&self, name: &str) -> Result<(), SubscriptionError> {
        if self.unregister(name) {
            Ok(())
        } else {
            Err(SubscriptionError::unknown(name, self))
        }
    }

    /// Every subscription's state, ascending by name.
    pub fn list(&self) -> Vec<SubscriptionInfo> {
        let rounds = self.sync_rounds.load(Ordering::Acquire);
        let names = self.names.lock().unwrap();
        names.values().map(|sub| sub.info(rounds)).collect()
    }

    /// The named subscription's state.
    pub fn info(&self, name: &str) -> Option<SubscriptionInfo> {
        let rounds = self.sync_rounds.load(Ordering::Acquire);
        self.names
            .lock()
            .unwrap()
            .get(name)
            .map(|sub| sub.info(rounds))
    }

    /// The named subscription's current answer.
    pub fn answer(&self, name: &str) -> Option<SubAnswer> {
        self.names
            .lock()
            .unwrap()
            .get(name)
            .map(|s| s.share.core.lock().unwrap().answer.clone())
    }

    /// The named subscription's current answer together with the epoch
    /// it is current at, read atomically. Push consumers use the epoch
    /// to resync after a lagged stream: every already-buffered event
    /// with `delta.epoch <= epoch` is subsumed by this answer, and every
    /// later delta diffs from exactly this state.
    pub fn answer_with_epoch(&self, name: &str) -> Option<(SubAnswer, u64)> {
        self.names.lock().unwrap().get(name).map(|s| {
            let core = s.share.core.lock().unwrap();
            (core.answer.clone(), core.last_epoch)
        })
    }

    /// The named subscription's current answer rendered through its own
    /// quantifier/target, like a one-shot execution of the statement.
    /// Subscriptions sharing one maintained answer render through their
    /// own statements here — the per-quantifier views of one engine.
    pub fn output(&self, name: &str) -> Option<QueryOutput> {
        self.names.lock().unwrap().get(name).map(|s| {
            let core = s.share.core.lock().unwrap();
            match &core.answer {
                SubAnswer::Intervals(a) => render_output(&s.query, a),
                SubAnswer::Rows(r) => render_row_output(&s.query, r, probe_column_at(r)),
            }
        })
    }

    /// Attaches a sink to the named subscription: every future answer
    /// delta is forwarded into it, beside the name's other sinks. The
    /// registry holds only a weak reference — dropping the consumer's
    /// `Arc` detaches it. `false` for unknown names.
    pub fn attach_sink(&self, name: &str, sink: &Arc<DeltaSink>) -> bool {
        self.attach_sink_checked(name, sink).is_ok()
    }

    /// [`SubscriptionRegistry::attach_sink`] returning the
    /// subscription's info row (so the consumer knows the epoch its
    /// pushed stream starts after), or the typo-hinted unknown-name
    /// error — the `WATCH <name>` statement's registry entry point.
    /// Many connections watching one name share that slot's encode-once
    /// frame caches, so a pushed delta is serialized once for all of
    /// them.
    pub fn attach_sink_checked(
        &self,
        name: &str,
        sink: &Arc<DeltaSink>,
    ) -> Result<SubscriptionInfo, SubscriptionError> {
        let attached = {
            let map = self.names.lock().unwrap();
            map.get(name).map(|sub| {
                let mut core = sub.share.core.lock().unwrap();
                core.slot_mut(name)
                    .expect("every registered name has a slot")
                    .sinks
                    .push(Arc::downgrade(sink));
                sub.info_from(&core, self.sync_rounds.load(Ordering::Acquire))
            })
        };
        // The unknown-name hint scans every name; build it only after
        // releasing the name map's lock.
        attached.ok_or_else(|| SubscriptionError::unknown(name, self))
    }

    /// Brings every subscription up to the store's current epoch. Called
    /// by the store after each commit (the registry must be attached via
    /// [`ModStore::attach_subscriptions`]); also callable directly to
    /// re-sync a registry that was detached while mutations ran.
    ///
    /// Maintenance runs **once per share**, not per subscription: a
    /// thousand subscriptions on one query object/window are one
    /// skip/patch/rebuild round whose answer delta broadcasts to every
    /// slot. The round first consults the `SubscriptionIndex`: the
    /// commit's ops are looked up against every share's published
    /// guard, and only the hits are visited at all — everything else is
    /// `skipped_unvisited` without a lock, a proof check, or any write
    /// to its core. The store snapshot is materialized **lazily**: a
    /// commit whose delta every visited share provably skips costs only
    /// the per-share band-bound check — no snapshot refresh, no engine
    /// work, no thread spawned.
    ///
    /// One round is `begin` (the lookup) followed by `run` (everything
    /// after); the network server runs the two halves on different
    /// threads.
    pub fn sync(&self, store: &ModStore) {
        let round = self.begin(store);
        self.run(round, store);
    }

    /// Decides a round's visit set: the ops since the last accounted
    /// epoch either hit a published guard (visit) or are proven safe for
    /// every other share right here. Reads only the guard index (and the
    /// delta log under it): no share core lock, no engine work.
    pub(crate) fn begin(&self, store: &ModStore) -> Round {
        let now = store.epoch();
        let started =
            (telemetry::metrics_on() || telemetry::trace_on()).then(std::time::Instant::now);
        // Decided atomically under the index lock: `checked_through`
        // advances in the same critical section, so a concurrent round
        // and a concurrent guard publication always observe each other
        // (see `publish_guard`).
        let mut idx = self.index.lock().unwrap();
        let registered = idx.entries.len();
        let visit = if registered == 0 {
            None
        } else {
            let logged = store.ops_since_cloned(idx.checked_through);
            idx.checked_through = idx.checked_through.max(now);
            match logged {
                Some(mut ops) => {
                    ops.retain(|r| r.epoch <= now);
                    (!ops.is_empty()).then(|| idx.resolve(idx.lookup(&ops)))
                }
                // Truncated history: the log cannot prove what happened
                // since — every share reconciles (and rebuilds where its
                // own watermark is also past the log's tail).
                None => Some(idx.all_shares()),
            }
        };
        Round {
            lookup_ns: started.map(|t0| t0.elapsed().as_nanos() as u64),
            now,
            visit,
            registered,
        }
    }

    /// Completes a round [`Self::begin`] decided on this registry:
    /// settles or climbs every visited share, then finishes the round.
    /// An idle round ([`Round::is_idle`]) only counts itself: it takes no
    /// share core lock.
    pub(crate) fn run(&self, round: Round, store: &ModStore) {
        let Round {
            lookup_ns,
            now,
            visit,
            registered,
        } = round;
        let Some(visit) = visit else {
            return;
        };
        let round_started = lookup_ns.map(|ns| (std::time::Instant::now(), ns));
        // Completed-round accounting. The round counter advances only
        // when a round *completes* (see `finish_round`), so a stats
        // reader can never count an in-flight round as pruned. A
        // visited share folds the completed rounds it was pruned from
        // here; this round absorbs itself into every visited share at
        // finish time, where the finish lock makes the round-number
        // assignment and the absorption one atomic step — so this
        // round's own outcome lands in skip/patch/rebuild via the
        // ladder, never in `skipped_unvisited`.
        let completed = self.sync_rounds.load(Ordering::Acquire);
        let stats_on = round_started.is_some();
        // Phase 1 — cheap pass: settle every visited share it can,
        // sharing the ops fetch and changed-id set per watermark.
        let mut shared = SharedOps::new();
        let mut heavy: Vec<(u64, Arc<SharedSub>, Option<Counted>)> = Vec::new();
        for (id, share) in &visit {
            let mut core = share.core.lock().unwrap();
            let before = stats_on.then(|| (core.stats, core.quiet_patches));
            // Fold the completed rounds the index pruned between
            // visits. Completed rounds that visited this share already
            // absorbed themselves, so the gap is exactly the prunes.
            share.absorb_pruned(&mut core, completed);
            if Self::settle(&mut core, store, now, &mut shared) {
                self.publish_guard(*id, &mut core, store, &mut None);
                if let Some(before) = before {
                    Self::record_visit(store, *id, now, &before, &core);
                }
            } else {
                heavy.push((*id, Arc::clone(share), before));
            }
        }
        if heavy.is_empty() {
            self.finish_round(store, round_started, &visit, registered, now);
            return;
        }
        // Phase 2 — heavy pass: the affected shares climb the rest of
        // the ladder with the delta the cheap pass fetched, then
        // republish their guards. One snapshot is materialized up front
        // and shared by every worker; shares fan out across scoped
        // threads on multi-core hosts.
        let snapshot = store.snapshot();
        let climb_share = |entry: &(u64, Arc<SharedSub>, Option<Counted>)| {
            let (id, share, before) = entry;
            let mut lazy = Some(Arc::clone(&snapshot));
            let mut core = share.core.lock().unwrap();
            match shared.get(&core.last_epoch) {
                Some(delta) if store.epoch() == now => {
                    let delta = delta.as_deref();
                    Self::climb(&mut core, store, &mut lazy, now, delta);
                }
                // Commits raced past `now`, or a concurrent round moved
                // the share off every watermark this round fetched,
                // since the cheap pass let go of the core: start over.
                _ => Self::refresh(&mut core, store, &mut lazy),
            }
            self.publish_guard(*id, &mut core, store, &mut lazy);
            if let Some(before) = before {
                Self::record_visit(store, *id, now, before, &core);
            }
        };
        let cores = unn_traj::par::available_cores();
        if cores <= 1 || heavy.len() <= 1 {
            heavy.iter().for_each(climb_share);
        } else {
            // Strided hand-out: lane `l` refreshes shares l, l+lanes, …
            let lanes = cores.min(heavy.len());
            let climb_share = &climb_share;
            let heavy = &heavy;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..lanes)
                    .map(|lane| {
                        scope.spawn(move || {
                            for share in heavy.iter().skip(lane).step_by(lanes) {
                                climb_share(share);
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("subscription maintenance worker panicked");
                }
            });
        }
        self.finish_round(store, round_started, &visit, registered, now);
    }

    /// Completes one indexed maintenance round: assigns the round its
    /// number, absorbs that number into every share the round visited,
    /// and only then publishes the advanced counter — all under
    /// `round_finish`, so no concurrent finisher can take the same
    /// number. Ordering is what keeps the partition observable-safe:
    /// a reader that sees the new counter value (acquire) also sees
    /// every visited share's watermark already covering it (each
    /// watermark's `fetch_max` precedes the counter's release store), so
    /// a round this share visited is never re-counted as pruned; a
    /// reader that doesn't see the counter yet doesn't count the round
    /// at all.
    fn finish_round(
        &self,
        store: &ModStore,
        started: Option<(std::time::Instant, u64)>,
        visited: &[(u64, Arc<SharedSub>)],
        registered: usize,
        epoch: u64,
    ) {
        {
            let _finish = self.round_finish.lock().unwrap();
            let finished = self.sync_rounds.load(Ordering::Relaxed) + 1;
            for (_, share) in visited {
                share.rounds_absorbed.fetch_max(finished, Ordering::AcqRel);
            }
            self.sync_rounds.store(finished, Ordering::Release);
        }
        let visited_shares = visited.len() as u64;
        if let Some((t0, lookup_ns)) = started {
            let t = store.telemetry();
            let dur_ns = lookup_ns + t0.elapsed().as_nanos() as u64;
            t.maintenance_rounds.inc();
            t.maintenance_round_ns.record(dur_ns);
            // Counted per completed round: a pruned share is never
            // touched, and its own `skipped_unvisited` only materializes
            // at its next visit — which on far churn never comes.
            t.ladder_unvisited
                .add((registered as u64).saturating_sub(visited_shares));
            t.trace_event(TraceEvent {
                epoch,
                stage: TraceStage::Round,
                share: 0,
                detail: visited_shares,
                dur_ns,
            });
        }
    }

    /// Folds one visited share's stats movement since `before` (its
    /// stats and quiet-patch count) into the telemetry registry:
    /// per-ladder-rung counters and (when tracing) a visit event naming
    /// the share and its ladder decision.
    fn record_visit(store: &ModStore, share: u64, epoch: u64, before: &Counted, core: &ShareCore) {
        let (before, quiet_before) = before;
        let after = &core.stats;
        let t = store.telemetry();
        t.ladder_patched_quiet
            .add(core.quiet_patches.saturating_sub(*quiet_before));
        t.ladder_skipped
            .add(after.skipped.saturating_sub(before.skipped));
        t.ladder_patched
            .add(after.patched.saturating_sub(before.patched));
        t.ladder_rebuilt
            .add(after.rebuilt.saturating_sub(before.rebuilt));
        if telemetry::trace_on() {
            let detail = if after.rebuilt > before.rebuilt {
                telemetry::LADDER_REBUILT
            } else if after.patched > before.patched {
                telemetry::LADDER_PATCHED
            } else if after.skipped > before.skipped {
                telemetry::LADDER_SKIPPED
            } else {
                telemetry::LADDER_EMPTY
            };
            t.trace_event(TraceEvent {
                epoch,
                stage: TraceStage::Visit,
                share,
                detail,
                dur_ns: 0,
            });
        }
    }

    /// The guard a share's current state publishes to the index:
    /// `None` (always-visit) while parked, reverse, or proofless;
    /// otherwise the cached [`ForwardProof`]'s inflated corridor box
    /// plus the ids whose removal its skip rung refuses — the band
    /// survivors for the banded shares, every candidate for `RANK`
    /// shares — and the query object.
    fn guard_of(core: &mut ShareCore) -> Option<(Aabb3, Vec<Oid>)> {
        if core.error.is_some() || core.kind == SubKind::ReverseRows {
            return None;
        }
        if core.proof.is_none() {
            let engine = core.engine.as_ref()?;
            let query_tr = core.query_tr.as_ref()?;
            core.proof = Some(ForwardProof::derive(engine, query_tr));
        }
        let proof = core.proof.as_ref().expect("just derived");
        let banded = !matches!(core.kind, SubKind::Intervals { rank: Some(_) });
        Some((proof.guard_box(), proof.guarded_oids(banded).collect()))
    }

    /// Publishes a visited share's guard, closing the race with
    /// concurrent rounds: a round that decided its visit set after this
    /// share's previous publication proved its ops safe against the
    /// **previous** guard, so the new guard may only be installed once
    /// the core has absorbed everything up to the index's
    /// `checked_through`. The check-and-install is atomic under the
    /// index lock; when the core is behind, the lock is dropped and the
    /// core refreshed before retrying (each retry strictly advances the
    /// core's watermark to the then-current epoch, so the loop
    /// terminates as soon as rounds stop racing in).
    fn publish_guard(
        &self,
        id: u64,
        core: &mut ShareCore,
        store: &ModStore,
        lazy: &mut Option<Arc<QuerySnapshot>>,
    ) {
        loop {
            let guard = Self::guard_of(core);
            let valid_through = core.last_epoch;
            let mut idx = self.index.lock().unwrap();
            if core.last_epoch >= idx.checked_through {
                idx.set_guard(id, guard, valid_through);
                return;
            }
            drop(idx);
            // Guard-coherence catch-up, not an observable maintenance
            // round: the commits that raced past this round belong to
            // the rounds that claimed them — they surface either as
            // those rounds' own visits or as `skipped_unvisited` when
            // they pruned this share. Counting this refresh's ladder
            // movement too would double-book those commits and make
            // `visited + skipped_unvisited` overshoot the commit
            // count, so the share's stats are restored around it.
            let saved = core.stats;
            Self::refresh(core, store, lazy);
            core.stats = saved;
        }
    }
}

/// Levenshtein edit distance (two-row dynamic program) — the cheap
/// nearest-name metric behind the `UNREGISTER` typo hint.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub_cost = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub_cost.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ql::parser::parse;
    use crate::subscription::testutil::*;
    use unn_core::probrows::ProbRowSet;

    /// Two copies of one store and registry, fed one seeded op
    /// sequence: the first registry is attached and maintained through
    /// the store's commit variants (commit, then run the returned
    /// maintenance: `begin` at commit time, `run` after), the second is
    /// detached and `sync`ed after each commit. Answers, counters and
    /// guard index stay identical at every step. A third copy runs each
    /// round only after the next commit landed: its answers still equal
    /// the others'.
    #[test]
    fn begin_and_run_maintain_like_sync() {
        let queries = [
            ("star", star_query()),
            ("hot", threshold_query()),
            ("rev", rnn_query()),
        ];
        let copies: Vec<(ModStore, Arc<SubscriptionRegistry>)> = (0..3)
            .map(|_| {
                let store = populated_store();
                let reg = Arc::new(SubscriptionRegistry::new());
                for (name, query) in &queries {
                    reg.register(&store, name, query.clone(), PrefilterPolicy::default())
                        .unwrap();
                }
                (store, reg)
            })
            .collect();
        let [(split, split_reg), (synced, synced_reg), (late, late_reg)] = &copies[..] else {
            unreachable!()
        };
        split.attach_subscriptions(split_reg);
        let mut late_round: Option<Round> = None;
        let mut draw = 0x2009_0324_u64;
        let mut next = |n: u64| {
            draw ^= draw << 13;
            draw ^= draw >> 7;
            draw ^= draw << 17;
            draw % n
        };
        for step in 0..40 {
            // Oids 1..=6 move near the query object (y within 4) or far
            // (y ≈ 40 … 100); one step in five removes one of them.
            let oid = 1 + next(6);
            let y = if next(2) == 0 {
                next(80) as f64 / 20.0
            } else {
                40.0 + next(60) as f64
            };
            let remove = next(5) == 0 && split.contains(Oid(oid));
            let maintenance = if remove {
                synced.remove(Oid(oid)).unwrap();
                late.remove(Oid(oid)).unwrap();
                split.commit_remove(Oid(oid)).unwrap().1
            } else {
                synced.update(tr(oid, y));
                late.update(tr(oid, y));
                split.commit_update(tr(oid, y)).1
            };
            maintenance.run(split);
            synced_reg.sync(synced);
            if let Some(round) = late_round.replace(late_reg.begin(late)) {
                late_reg.run(round, late);
            }
            assert_eq!(split_reg.list(), synced_reg.list(), "step {step}");
            assert_eq!(
                split_reg.index.lock().unwrap().published(),
                synced_reg.index.lock().unwrap().published(),
                "step {step}"
            );
            for (name, _) in &queries {
                assert_eq!(split_reg.answer(name), synced_reg.answer(name), "{name}");
            }
        }
        late_reg.run(late_round.take().unwrap(), late);
        for (name, _) in &queries {
            assert_eq!(late_reg.answer(name), synced_reg.answer(name), "{name}");
        }
        assert_eq!(synced_reg.list()[0].last_epoch, synced.epoch());
    }

    /// Registration between a commit and its maintenance round, as the
    /// network server's event loop leaves a commit: the commit's rounds
    /// are begun (visit sets decided without the new names) but not
    /// run. "near" joins the share "old" rides, which is behind those
    /// commits; "hot" is a fresh share. Both catch up at registration;
    /// the held rounds then run, and later commits push deltas. Each
    /// name's answer, and its pushed deltas folded onto its base, equal
    /// a cold exhaustive evaluation bit for bit.
    #[test]
    fn registration_between_a_commit_and_its_round_catches_up() {
        let store = populated_store();
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        reg.register(&store, "old", star_query(), PrefilterPolicy::default())
            .unwrap();
        let held = vec![
            store.commit_update(tr(1, 0.6)).1,
            store.commit_insert(tr(7, 0.3)).unwrap(),
        ];
        let watched: Vec<(&str, SubAnswer, Arc<DeltaSink>)> =
            [("near", star_query()), ("hot", threshold_query())]
                .into_iter()
                .map(|(name, query)| {
                    let sink = Arc::new(DeltaSink::bounded(crate::store::DEFAULT_FEED_BOUND));
                    let info = reg
                        .register_with_sink(
                            &store,
                            name,
                            query,
                            PrefilterPolicy::default(),
                            Some(&sink),
                        )
                        .unwrap();
                    assert_eq!(info.last_epoch, store.epoch(), "{name}");
                    (name, reg.answer(name).unwrap(), sink)
                })
                .collect();
        for maintenance in held {
            maintenance.run(&store);
        }
        store.insert(tr(8, 1.8)).unwrap();
        store.commit_remove(Oid(1)).unwrap().1.run(&store);
        store.update(tr(7, 2.5));
        let cold = [
            SubAnswer::Intervals(fresh_intervals(&store, Oid(0))),
            SubAnswer::Rows(fresh_rows(&store, Oid(0), false)),
        ];
        for ((name, base, sink), cold) in watched.into_iter().zip(cold) {
            assert_eq!(reg.answer(name).unwrap(), cold, "{name}");
            let deltas = drain(&sink);
            assert!(!deltas.is_empty(), "{name} pushed nothing");
            let folded = deltas.iter().fold(base, |acc, d| acc.apply(d));
            assert_eq!(folded, cold, "{name}");
        }
    }

    #[test]
    fn register_evaluates_and_lists() {
        let store = populated_store();
        let reg = SubscriptionRegistry::new();
        let info = reg
            .register(&store, "near0", star_query(), PrefilterPolicy::default())
            .unwrap();
        assert!(info.entries >= 1);
        assert_eq!(info.last_epoch, store.epoch());
        assert!(info.error.is_none());
        // Duplicate names are refused.
        assert!(matches!(
            reg.register(&store, "near0", star_query(), PrefilterPolicy::default()),
            Err(SubscriptionError::NameTaken(_))
        ));
        assert_eq!(reg.list().len(), 1);
        assert!(reg.unregister("near0"));
        assert!(!reg.unregister("near0"));
        assert!(reg.is_empty());
    }

    #[test]
    fn threshold_and_reverse_statements_register() {
        let store = populated_store();
        let reg = SubscriptionRegistry::new();
        let info = reg
            .register(
                &store,
                "hot0",
                threshold_query(),
                PrefilterPolicy::default(),
            )
            .unwrap();
        assert!(info.error.is_none());
        assert!(info.entries >= 1, "{info:?}");
        let info = reg
            .register(&store, "rev0", rnn_query(), PrefilterPolicy::default())
            .unwrap();
        assert!(info.error.is_none());
        assert!(info.entries >= 1, "{info:?}");
        // The registered answers equal fresh exhaustive evaluations.
        assert_eq!(row_answer(&reg, "hot0"), fresh_rows(&store, Oid(0), false));
        assert_eq!(row_answer(&reg, "rev0"), fresh_rows(&store, Oid(0), true));
    }

    #[test]
    fn remaining_unsupported_shapes_carry_spans() {
        let store = populated_store();
        let reg = SubscriptionRegistry::new();
        let src = "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] \
                   AND PROB_NN(*, Tr0, TIME, RANK 2) > 0.5";
        let ranked_threshold = parse(src).unwrap();
        let err = reg
            .register(&store, "rt", ranked_threshold, PrefilterPolicy::default())
            .unwrap_err();
        match &err {
            SubscriptionError::Unsupported { span, .. } => {
                let span = span.expect("refusal carries the RANK span");
                assert_eq!(&src[span.offset..span.offset + 4], "RANK");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        // The render draws a caret at the offending token.
        let rendered = err.render(src);
        assert!(rendered.contains('^'), "{rendered}");
        // Last line is "  " + pad + "^": the caret sits at the token.
        let caret_offset = rendered.lines().last().unwrap().len() - 3;
        assert_eq!(caret_offset, src.find("RANK").unwrap(), "{rendered}");
        // Unknown query objects still fail evaluation.
        let unknown =
            parse("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(*, Tr99, TIME) > 0")
                .unwrap();
        assert!(matches!(
            reg.register(&store, "u", unknown, PrefilterPolicy::default()),
            Err(SubscriptionError::Evaluation(_))
        ));
    }

    #[test]
    fn unknown_names_hint_at_the_nearest_registered_one() {
        let store = populated_store();
        let reg = SubscriptionRegistry::new();
        reg.register(&store, "near0", star_query(), PrefilterPolicy::default())
            .unwrap();
        let err = reg.unregister_checked("naer0").unwrap_err();
        match &err {
            SubscriptionError::Unknown { name, nearest } => {
                assert_eq!(name, "naer0");
                assert_eq!(nearest.as_deref(), Some("near0"));
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        assert!(err.to_string().contains("did you mean 'near0'"), "{err}");
        // A wildly different name gets no hint.
        let err = reg.unregister_checked("completely-else").unwrap_err();
        assert!(matches!(
            err,
            SubscriptionError::Unknown { nearest: None, .. }
        ));
        // Dropping the real name still works.
        assert!(reg.unregister_checked("near0").is_ok());
    }

    #[test]
    fn bursts_coalesce_into_single_proof_rounds() {
        let store = populated_store();
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        reg.register(&store, "near0", star_query(), PrefilterPolicy::default())
            .unwrap();
        // A bulk load of far objects is one commit carrying many ops:
        // the whole burst must be absorbed by one skip round.
        store
            .bulk_load((200..208).map(|k| tr(k, 80_000.0 + k as f64)))
            .unwrap();
        let info = reg.info("near0").unwrap();
        assert_eq!(info.stats.skipped, 1, "{info:?}");
        assert_eq!(info.stats.skipped_ops, 8, "{info:?}");
        // That first visit published the share's guard, so per-commit
        // far churn never locks the share again: the index prunes the
        // rounds outright and they materialize lazily as
        // `skipped_unvisited`.
        for k in 0..5u64 {
            store.insert(tr(300 + k, 90_000.0)).unwrap();
        }
        let info = reg.info("near0").unwrap();
        assert_eq!(info.stats.skipped, 1, "{info:?}");
        assert_eq!(info.stats.skipped_ops, 8, "{info:?}");
        assert_eq!(info.stats.skipped_unvisited, 5, "{info:?}");
        // Every post-registration commit is accounted exactly once.
        assert_eq!(
            info.stats.visited + info.stats.skipped_unvisited,
            6,
            "{info:?}"
        );
        // A near newcomer hits the guard: the share is visited again
        // and catches up to the store in one coalesced round.
        store.insert(tr(400, 0.25)).unwrap();
        let info = reg.info("near0").unwrap();
        assert_eq!(info.last_epoch, store.epoch(), "{info:?}");
        assert_eq!(
            info.stats.visited + info.stats.skipped_unvisited,
            7,
            "{info:?}"
        );
    }

    #[test]
    fn identical_queries_coalesce_onto_one_share() {
        let store = populated_store();
        let reg = SubscriptionRegistry::new();
        for name in ["a", "b", "c"] {
            reg.register(&store, name, star_query(), PrefilterPolicy::default())
                .unwrap();
        }
        assert_eq!(reg.list().len(), 3);
        assert_eq!(reg.share_count(), 1, "identical queries share one engine");
        let reference = interval_answer(&reg, "a");
        assert_eq!(interval_answer(&reg, "b"), reference);
        assert_eq!(interval_answer(&reg, "c"), reference);
        // A different query object (or kind) is a different computation.
        reg.register(&store, "hot", threshold_query(), PrefilterPolicy::default())
            .unwrap();
        assert_eq!(reg.share_count(), 2);
        // The share survives while any member remains, and dies with
        // the last one.
        assert!(reg.unregister("a"));
        assert!(reg.unregister("b"));
        assert_eq!(reg.share_count(), 2);
        assert_eq!(interval_answer(&reg, "c"), reference);
        assert!(reg.unregister("c"));
        assert_eq!(reg.share_count(), 1);
    }

    #[test]
    fn registrations_differing_only_in_threshold_share_one_engine() {
        let store = populated_store();
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        let stmt = |pred: &str, p: f64| {
            parse(&format!(
                "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] AND {pred}(*, Tr0, TIME) > {p}"
            ))
            .unwrap()
        };
        let names = [
            ("nn3", "PROB_NN", 0.3),
            ("nn6", "PROB_NN", 0.6),
            ("rnn3", "PROB_RNN", 0.3),
            ("rnn6", "PROB_RNN", 0.6),
        ];
        let mut sinks = Vec::new();
        for (i, (name, pred, p)) in names.iter().enumerate() {
            reg.register(&store, name, stmt(pred, *p), PrefilterPolicy::default())
                .unwrap();
            sinks.push(pull_sink(&reg, name));
            assert_eq!(reg.share_count(), i / 2 + 1, "one share per predicate");
        }
        // Each name renders the shared rows under its own threshold.
        let fresh_output = |pred: &str, p: f64| {
            let fresh = fresh_rows(&store, Oid(0), pred == "PROB_RNN");
            render_row_output(&stmt(pred, p), &fresh, probe_column_at(&fresh))
        };
        for (name, pred, p) in &names {
            assert_eq!(reg.output(name).unwrap(), fresh_output(pred, *p), "{name}");
        }
        let bases: Vec<ProbRowSet> = names.iter().map(|n| row_answer(&reg, n.0)).collect();
        // A near newcomer contests Tr1: the two thresholds now cut the
        // same rows differently, and each sink folds to its own answer.
        store.insert(tr(60, 0.8)).unwrap();
        assert_ne!(reg.output("nn3"), reg.output("nn6"));
        for (((name, pred, p), base), sink) in names.iter().zip(bases).zip(&sinks) {
            assert_eq!(reg.output(name).unwrap(), fresh_output(pred, *p), "{name}");
            let folded = drain(sink)
                .iter()
                .fold(base, |acc, d| acc.apply(d.as_rows().unwrap()));
            assert_eq!(
                render_row_output(&stmt(pred, *p), &folded, probe_column_at(&folded)),
                fresh_output(pred, *p),
                "{name}"
            );
        }
    }

    #[test]
    fn levenshtein_distances_are_sane() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("near0", "naer0"), 2);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }
}
