//! The MOD server facade: registration, continuous PNN query execution,
//! SQL-ish statement evaluation, and execution statistics.

use crate::cache::{CachedEngine, EngineCache, EngineKey, EngineKind, Lookup};
use crate::delta::ForwardProof;
use crate::plan::{PlanError, PrefilterPolicy, QueryPlanner};
use crate::ql::ast::{PredicateKind, Query, Statement, Target};
use crate::ql::parser::{parse_statement, ParseError};
use crate::store::{ModStore, StoreError};
use crate::subscription::{
    render_instant, render_output, render_row_output, DeltaSink, SubAnswer, SubDelta,
    SubscriptionError, SubscriptionInfo, SubscriptionRegistry,
};
use crate::telemetry::{MetricsSnapshot, TraceEvent};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use unn_core::hetero::HeteroEngine;
use unn_core::ipac::IpacTree;
use unn_core::kernel::ColumnKernel;
use unn_core::query::QueryEngine;
use unn_core::reverse::ReverseNnEngine;
use unn_core::threshold::probability_at_kernel;
use unn_core::topk::KnnAnswer;
use unn_geom::interval::TimeInterval;
use unn_traj::difference::DifferenceError;
use unn_traj::trajectory::Oid;
use unn_traj::uncertain::{common_pdf_kind, UncertainTrajectory};

/// Errors raised by [`ModServer`] operations.
#[derive(Debug)]
pub enum ServerError {
    /// Statement failed to parse.
    Parse(ParseError),
    /// Store-level failure.
    Store(StoreError),
    /// A referenced object name is unknown.
    UnknownObject(String),
    /// The MOD holds fewer than two trajectories.
    NotEnoughObjects,
    /// The query window is invalid or outside some trajectory's domain.
    Window(DifferenceError),
    /// The stored trajectories do not share one uncertainty radius
    /// (the paper's standing assumption; per-object radii are future
    /// work, §7).
    MixedRadii,
    /// The stored trajectories do not share one location pdf (the other
    /// half of the paper's standing assumption).
    MixedPdfs,
    /// Standing-query (subscription) management failed.
    Subscription(SubscriptionError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Parse(e) => write!(f, "{e}"),
            ServerError::Store(e) => write!(f, "{e}"),
            ServerError::UnknownObject(s) => write!(f, "unknown object '{s}'"),
            ServerError::NotEnoughObjects => {
                write!(f, "the MOD needs at least two trajectories")
            }
            ServerError::Window(e) => write!(f, "{e}"),
            ServerError::MixedRadii => {
                write!(f, "trajectories have differing uncertainty radii")
            }
            ServerError::MixedPdfs => {
                write!(f, "trajectories have differing location pdfs")
            }
            ServerError::Subscription(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<ParseError> for ServerError {
    fn from(e: ParseError) -> Self {
        ServerError::Parse(e)
    }
}

impl From<StoreError> for ServerError {
    fn from(e: StoreError) -> Self {
        ServerError::Store(e)
    }
}

impl From<DifferenceError> for ServerError {
    fn from(e: DifferenceError) -> Self {
        ServerError::Window(e)
    }
}

impl From<SubscriptionError> for ServerError {
    fn from(e: SubscriptionError) -> Self {
        ServerError::Subscription(e)
    }
}

impl From<PlanError> for ServerError {
    fn from(e: PlanError) -> Self {
        match e {
            PlanError::NotEnoughObjects => ServerError::NotEnoughObjects,
            PlanError::UnknownObject(oid) => ServerError::UnknownObject(oid.to_string()),
            PlanError::MixedRadii => ServerError::MixedRadii,
            PlanError::Window(e) => ServerError::Window(e),
        }
    }
}

/// Statistics of one query execution.
#[derive(Debug, Clone, Copy)]
pub struct ExecutionStats {
    /// Number of candidate objects considered (MOD size minus the query).
    pub candidates: usize,
    /// Candidates surviving the coarse prefilter (the set handed to
    /// envelope construction; equals `candidates` on the exhaustive
    /// path).
    pub prefiltered: usize,
    /// Candidates surviving the `4r`-band pruning.
    pub kept: usize,
    /// Pieces of the level-1 lower envelope.
    pub envelope_pieces: usize,
    /// Wall-clock time of the preprocessing (planning + envelope +
    /// pruning; near zero on a cache hit).
    pub preprocess: Duration,
    /// Wall-clock time of the query proper.
    pub query_time: Duration,
    /// `true` when the engine came from the engine cache (a hit or a carry).
    pub cache_hit: bool,
}

/// Result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Category 1/2 answer for a single target.
    Boolean(bool),
    /// Category 3/4 answer: qualifying objects with the fraction of the
    /// window during which the condition holds.
    Objects(Vec<(Oid, f64)>),
    /// `REGISTER CONTINUOUS … AS name` installed the standing query.
    Registered(SubscriptionInfo),
    /// `UNREGISTER name` dropped the standing query.
    Unregistered(String),
    /// `SHOW SUBSCRIPTIONS` listing.
    Subscriptions(Vec<SubscriptionInfo>),
    /// `SHOW METRICS [PREFIX p]` — a point-in-time telemetry snapshot
    /// (the registry's counters/gauges/histograms plus the cache, store,
    /// WAL and subscription rows; see [`ModServer::metrics_snapshot`]).
    Metrics(MetricsSnapshot),
    /// `TRACE EPOCH e` — the retained pipeline trace of one epoch.
    Trace {
        /// The requested epoch.
        epoch: u64,
        /// Every retained event of that epoch, in recording order.
        events: Vec<TraceEvent>,
    },
}

/// A continuous NN answer (crisp semantics): the time-parameterized
/// owner sequence of §1 plus execution statistics.
#[derive(Debug, Clone)]
pub struct ContinuousAnswer {
    /// `[(Tr_i1, [tb, t1]), (Tr_i2, [t1, t2]), ...]`.
    pub sequence: Vec<(Oid, TimeInterval)>,
    /// Execution statistics.
    pub stats: ExecutionStats,
}

/// The MOD server: owns the trajectory store and executes continuous
/// probabilistic NN queries through the shared snapshot → prefilter →
/// envelope → execute pipeline.
///
/// Every query path goes through the [`QueryPlanner`] (which takes the
/// `Arc`-shared [`crate::snapshot::QuerySnapshot`] and runs the
/// configured [`PrefilterPolicy`]) and the shape-keyed [`EngineCache`]
/// (which reuses envelope/IPAC preprocessing while the store is
/// unchanged, and **carries** forward engines across mutations the delta
/// log proves cannot touch them). Prefiltered and cached execution is
/// the **default** and produces answers identical to the exhaustive
/// path; see the crate-level docs for the invalidation contract.
#[derive(Debug)]
pub struct ModServer {
    store: ModStore,
    planner: QueryPlanner,
    cache: Arc<EngineCache>,
    subscriptions: Arc<SubscriptionRegistry>,
    /// The sinks [`ModServer::poll_subscription`] drains, by name: one
    /// per standing query registered here without a push sink.
    pull: Mutex<HashMap<String, Arc<DeltaSink>>>,
}

impl Default for ModServer {
    fn default() -> Self {
        ModServer::with_store(ModStore::new())
    }
}

impl ModServer {
    /// A server with an empty MOD, the default prefilter policy, and an
    /// engine cache.
    pub fn new() -> Self {
        ModServer::default()
    }

    /// A server using `policy` for candidate prefiltering.
    pub fn with_policy(policy: PrefilterPolicy) -> Self {
        ModServer {
            planner: QueryPlanner::new(policy),
            ..ModServer::default()
        }
    }

    /// A server wrapping an existing store — the recovery and follower
    /// entry point ([`crate::durability::recover`] hands back a
    /// populated store; a follower applies replicated commits to one).
    pub fn with_store(store: ModStore) -> Self {
        let cache = Arc::new(EngineCache::with_capacity(128));
        // `store.clear()` wipes the engine cache in the same step.
        store.attach_cache(&cache);
        // Standing queries are maintained after every store commit.
        let subscriptions = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&subscriptions);
        ModServer {
            store,
            planner: QueryPlanner::default(),
            cache,
            subscriptions,
            pull: Mutex::default(),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &ModStore {
        &self.store
    }

    /// The active prefilter policy.
    pub fn prefilter_policy(&self) -> PrefilterPolicy {
        self.planner.policy()
    }

    /// Changes the prefilter policy (cached engines stay valid — every
    /// policy produces identical answers).
    pub fn set_prefilter_policy(&mut self, policy: PrefilterPolicy) {
        self.planner = QueryPlanner::new(policy);
    }

    /// Registers one trajectory.
    pub fn register(&self, tr: UncertainTrajectory) -> Result<(), ServerError> {
        self.store.insert(tr).map_err(ServerError::Store)
    }

    /// Registers many trajectories.
    pub fn register_all<I: IntoIterator<Item = UncertainTrajectory>>(
        &self,
        trs: I,
    ) -> Result<usize, ServerError> {
        self.store.bulk_load(trs).map_err(ServerError::Store)
    }

    /// Resolves an object name (`Tr5`, `tr5`, or plain `5`) to the id of
    /// a **registered** object.
    pub fn resolve(&self, name: &str) -> Result<Oid, ServerError> {
        match crate::ql::parse_object_name(name) {
            Some(oid) if self.store.contains(oid) => Ok(oid),
            _ => Err(ServerError::UnknownObject(name.to_string())),
        }
    }

    /// Builds (or fetches from the engine cache) the query engine
    /// for a query trajectory over a window, returning it with the
    /// statistics. Uses the server's default prefilter policy; answers
    /// are identical to the exhaustive path.
    pub fn engine(
        &self,
        query_oid: Oid,
        window: TimeInterval,
    ) -> Result<(Arc<QueryEngine>, ExecutionStats), ServerError> {
        self.engine_with_policy(query_oid, window, self.planner.policy())
    }

    /// Like [`ModServer::engine`] with an explicit prefilter policy for
    /// this call (the k-NN path uses [`PrefilterPolicy::Exhaustive`]).
    pub fn engine_with_policy(
        &self,
        query_oid: Oid,
        window: TimeInterval,
        policy: PrefilterPolicy,
    ) -> Result<(Arc<QueryEngine>, ExecutionStats), ServerError> {
        let t0 = Instant::now();
        // The cache key depends only on the store epoch, so planning
        // (snapshot, validation, prefilter) runs inside the build
        // closure: a hit or a carry reads no snapshot. A hit is sound
        // without re-validating — the same key implies the same query and
        // window that validated when the entry was built. A commit racing
        // the build leaves the entry stamped with the older epoch, which
        // only makes its next carry check more ops. Only engines whose
        // answers are band-bounded carry a proof (see
        // [`PrefilterPolicy::allows_carry`]).
        let key = EngineKey::new(EngineKind::Forward, query_oid, window, policy.tag());
        let (CachedEngine::Forward(engine), cache_hit) =
            self.cached(key, self.store.epoch(), || {
                let plan = QueryPlanner::new(policy)
                    .plan(self.store.snapshot(), query_oid, window)
                    .map_err(ServerError::from)?;
                let engine = plan.build_engine().map_err(ServerError::Window)?;
                let proof = policy
                    .allows_carry()
                    .then(|| ForwardProof::derive(&engine, plan.query_trajectory()));
                Ok((CachedEngine::Forward(Arc::new(engine)), proof))
            })?
        else {
            unreachable!("a forward key holds a forward engine")
        };
        let stats = ExecutionStats {
            candidates: self.store.len().saturating_sub(1),
            prefiltered: engine.functions().len(),
            kept: engine.stats().kept,
            envelope_pieces: engine.envelope().len(),
            preprocess: t0.elapsed(),
            query_time: Duration::ZERO,
            cache_hit,
        };
        Ok((engine, stats))
    }

    /// Serves the engine of `key`'s shape at `epoch` through the cache,
    /// counting the lookup in the store's telemetry; `true` when it was
    /// not built.
    fn cached(
        &self,
        key: EngineKey,
        epoch: u64,
        build: impl FnOnce() -> Result<(CachedEngine, Option<ForwardProof>), ServerError>,
    ) -> Result<(CachedEngine, bool), ServerError> {
        let (engine, lookup) = self.cache.get_or_build(&self.store, key, epoch, build)?;
        self.count_lookup(lookup);
        Ok((engine, lookup != Lookup::Miss))
    }

    /// Counts one engine-cache lookup in the store's telemetry.
    fn count_lookup(&self, lookup: Lookup) {
        let telemetry = self.store.telemetry();
        match lookup {
            Lookup::Hit => telemetry.cache_hits.inc(),
            Lookup::Carried => {
                telemetry.cache_hits.inc();
                telemetry.cache_carried.inc();
            }
            Lookup::Miss => telemetry.cache_misses.inc(),
        }
    }

    /// Runs the continuous (crisp) NN query of §1, returning the
    /// time-parameterized answer.
    pub fn continuous_nn(
        &self,
        query_oid: Oid,
        window: TimeInterval,
    ) -> Result<ContinuousAnswer, ServerError> {
        let (engine, mut stats) = self.engine(query_oid, window)?;
        let t0 = Instant::now();
        let sequence = engine.continuous_nn_answer();
        stats.query_time = t0.elapsed();
        Ok(ContinuousAnswer { sequence, stats })
    }

    /// Builds the IPAC-NN tree (depth `0` = unbounded).
    pub fn ipac_tree(
        &self,
        query_oid: Oid,
        window: TimeInterval,
        depth: usize,
    ) -> Result<IpacTree, ServerError> {
        let (engine, _) = self.engine(query_oid, window)?;
        Ok(engine.ipac_tree(depth))
    }

    /// Parses and executes a statement of the query language: a one-shot
    /// §4 query or one of the standing-query verbs (`REGISTER
    /// CONTINUOUS … AS name`, `UNREGISTER name`, `SHOW SUBSCRIPTIONS`).
    pub fn execute(&self, statement: &str) -> Result<QueryOutput, ServerError> {
        self.execute_statement(parse_statement(statement)?, None)
    }

    /// Executes a parsed statement, with a push outbox for `REGISTER
    /// CONTINUOUS` statements. `REGISTER CONTINUOUS` attaches `sink`
    /// **atomically** with the registration (under the registry's name
    /// lock), so no commit can emit a delta between the subscription
    /// going live and the connection starting to receive pushes. This is
    /// the entry point the network layer uses; other statements ignore
    /// the sink. Without a sink, a registration gets a pull sink that
    /// [`ModServer::poll_subscription`] drains.
    pub fn execute_statement(
        &self,
        statement: Statement,
        sink: Option<&Arc<DeltaSink>>,
    ) -> Result<QueryOutput, ServerError> {
        match statement {
            Statement::Select(query) => self.execute_parsed(&query),
            Statement::Register { name, query } => self
                .register_standing(&name, query, sink)
                .map(QueryOutput::Registered),
            Statement::Unregister { name } => self
                .unsubscribe(&name)
                .map(|()| QueryOutput::Unregistered(name)),
            Statement::Watch { name } => match sink {
                // Over a connection: wire this session's outbox into the
                // existing subscription — all watchers of one name share
                // its encode-once pushed frames.
                Some(sink) => self
                    .subscriptions
                    .attach_sink_checked(&name, sink)
                    .map(QueryOutput::Registered)
                    .map_err(ServerError::from),
                // Without a push channel (local CLI), WATCH degrades to
                // the info row — there is no stream to attach.
                None => self
                    .subscriptions
                    .info(&name)
                    .map(QueryOutput::Registered)
                    .ok_or_else(|| self.unknown_subscription(name.as_str())),
            },
            Statement::ShowSubscriptions => {
                Ok(QueryOutput::Subscriptions(self.subscriptions.list()))
            }
            Statement::ShowMetrics { prefix } => Ok(QueryOutput::Metrics(
                self.metrics_snapshot(prefix.as_deref()),
            )),
            Statement::TraceEpoch { epoch } => Ok(QueryOutput::Trace {
                epoch,
                events: self.store.telemetry().trace.events_for(epoch),
            }),
        }
    }

    /// A point-in-time snapshot of every metric the server exposes: the
    /// store's [`crate::telemetry::Telemetry`] registry (hot-path
    /// counters and latency histograms, engine-cache lookups included)
    /// plus the counters kept elsewhere, as registry rows — the engine
    /// cache's entry count, delta-log/snapshot state
    /// ([`crate::store::DeltaStats`]), WAL counters
    /// ([`crate::durability::WalStatus`], when a WAL is attached), and
    /// the subscription counters summed once per share. `prefix` filters
    /// metric names (the `SHOW METRICS PREFIX <p>` form); rows come
    /// back sorted by name.
    pub fn metrics_snapshot(&self, prefix: Option<&str>) -> MetricsSnapshot {
        let mut snap = self.store.telemetry().snapshot();
        snap.gauges
            .push(("cache_entries".into(), self.cache.entries() as u64));
        let delta = self.store.delta_stats();
        snap.gauges.push(("store_epoch".into(), delta.epoch));
        snap.gauges
            .push(("delta_log_len".into(), delta.log_len as u64));
        snap.gauges
            .push(("delta_log_floor".into(), delta.log_floor));
        snap.gauges
            .push(("snapshot_pending_ops".into(), delta.pending_ops as u64));
        snap.counters.push((
            "snapshot_patched_total".into(),
            delta.snapshots_delta_applied,
        ));
        snap.counters
            .push(("snapshot_rebuilt_total".into(), delta.snapshots_rebuilt));
        if let Some(wal) = self.store.wal_status() {
            snap.counters
                .push(("wal_appends_total".into(), wal.appended));
            snap.counters.push(("wal_fsyncs_total".into(), wal.syncs));
            snap.counters
                .push(("wal_checkpoints_total".into(), wal.checkpoints));
            snap.counters
                .push(("wal_io_errors_total".into(), wal.io_errors));
            snap.gauges
                .push(("wal_segments".into(), wal.segments as u64));
            snap.gauges.push(("wal_bytes".into(), wal.total_bytes));
            snap.gauges.push(("wal_last_epoch".into(), wal.last_epoch));
            snap.gauges
                .push(("wal_checkpoint_epoch".into(), wal.checkpoint_epoch));
        }
        let mut subs = crate::subscription::SubscriptionStats::default();
        let (mut memo_bytes, mut computed, mut copied) = (0, 0, 0);
        for (s, kernel) in self.subscriptions.share_stats() {
            subs.visited += s.visited;
            subs.skipped_unvisited += s.skipped_unvisited;
            subs.batched_commits += s.batched_commits;
            subs.rows_patched += s.rows_patched;
            if let Some(kernel) = kernel {
                let (c, p) = kernel.block_counts();
                memo_bytes += kernel.memo_bytes() as u64;
                computed += c as u64;
                copied += p as u64;
            }
        }
        snap.counters
            .push(("subs_visited_total".into(), subs.visited));
        snap.counters.push((
            "subs_skipped_unvisited_total".into(),
            subs.skipped_unvisited,
        ));
        snap.counters
            .push(("subs_batched_commits_total".into(), subs.batched_commits));
        snap.counters
            .push(("subs_rows_patched_total".into(), subs.rows_patched));
        snap.gauges
            .push(("subs_kernel_memo_bytes".into(), memo_bytes));
        snap.gauges
            .push(("subs_kernel_blocks_computed".into(), computed));
        snap.gauges
            .push(("subs_kernel_blocks_copied".into(), copied));
        snap.gauges
            .push(("subscriptions".into(), self.subscriptions.len() as u64));
        if let Some(prefix) = prefix {
            snap.retain_prefix(prefix);
        }
        snap.sort();
        snap
    }

    // ------------------------------------------------------------------
    // Standing queries (subscriptions)
    // ------------------------------------------------------------------

    /// The standing-query registry (answers maintained incrementally
    /// after every store commit; see [`crate::subscription`]).
    pub fn subscription_registry(&self) -> &Arc<SubscriptionRegistry> {
        &self.subscriptions
    }

    /// Registers `statement` (a `SELECT` query) as a standing query named
    /// `name` using the server's prefilter policy.
    pub fn subscribe(&self, name: &str, statement: &str) -> Result<SubscriptionInfo, ServerError> {
        let query = crate::ql::parser::parse(statement)?;
        self.register_standing(name, query, None)
    }

    /// Registers `query` as the standing query `name`, its deltas going
    /// to `sink` — or, without one, to a pull sink kept for
    /// [`ModServer::poll_subscription`]. Either sink attaches atomically
    /// with the registration, so its first delta is the first answer
    /// change after the returned epoch.
    fn register_standing(
        &self,
        name: &str,
        query: Query,
        sink: Option<&Arc<DeltaSink>>,
    ) -> Result<SubscriptionInfo, ServerError> {
        let pull = sink
            .is_none()
            .then(|| Arc::new(DeltaSink::bounded(crate::store::DEFAULT_FEED_BOUND)));
        let info = self.subscriptions.register_with_sink(
            &self.store,
            name,
            query,
            self.planner.policy(),
            sink.or(pull.as_ref()),
        )?;
        let mut pulls = self.pull.lock().unwrap();
        match pull {
            Some(pull) => pulls.insert(name.to_string(), pull),
            None => pulls.remove(name),
        };
        Ok(info)
    }

    /// Drops the named standing query (and its pull sink); an unknown
    /// name reports the nearest registered one as a typo hint.
    pub fn unsubscribe(&self, name: &str) -> Result<(), ServerError> {
        self.subscriptions.unregister_checked(name)?;
        self.pull.lock().unwrap().remove(name);
        Ok(())
    }

    /// Every registered standing query's state, ascending by name.
    pub fn subscriptions(&self) -> Vec<SubscriptionInfo> {
        self.subscriptions.list()
    }

    /// Drains the named subscription's pull sink: the undrained
    /// [`SubDelta`]s in epoch order (the oldest squashed into one past
    /// [`crate::store::DEFAULT_FEED_BOUND`]; see [`DeltaSink`]). A name
    /// registered with a push sink — over a connection — has no pull
    /// sink, and polling it is an error.
    pub fn poll_subscription(&self, name: &str) -> Result<Vec<SubDelta>, ServerError> {
        let pull = self.pull.lock().unwrap().get(name).cloned();
        match pull {
            Some(sink) => Ok(std::iter::from_fn(|| sink.try_recv())
                .map(|event| event.delta)
                .collect()),
            None if self.subscriptions.info(name).is_some() => {
                Err(SubscriptionError::NoPullConsumer(name.to_string()).into())
            }
            None => Err(self.unknown_subscription(name)),
        }
    }

    /// The named subscription's current maintained answer (intervals or
    /// probability rows, by statement shape).
    pub fn subscription_answer(&self, name: &str) -> Result<SubAnswer, ServerError> {
        self.subscriptions
            .answer(name)
            .ok_or_else(|| self.unknown_subscription(name))
    }

    /// The named subscription's current maintained answer together with
    /// the epoch it is current at (read atomically — the resync point a
    /// lagged push consumer recovers from; see [`crate::net`]).
    pub fn subscription_answer_with_epoch(
        &self,
        name: &str,
    ) -> Result<(SubAnswer, u64), ServerError> {
        self.subscriptions
            .answer_with_epoch(name)
            .ok_or_else(|| self.unknown_subscription(name))
    }

    /// The named subscription's answer rendered through its query's
    /// quantifier and target, like a one-shot execution.
    pub fn subscription_output(&self, name: &str) -> Result<QueryOutput, ServerError> {
        self.subscriptions
            .output(name)
            .ok_or_else(|| self.unknown_subscription(name))
    }

    /// An unknown-subscription error carrying the nearest registered
    /// name as a hint.
    fn unknown_subscription(&self, name: &str) -> ServerError {
        SubscriptionError::Unknown {
            name: name.to_string(),
            nearest: self.subscriptions.nearest_name(name),
        }
        .into()
    }

    /// Number of probability probes used when evaluating a threshold
    /// comparison (`PROB_NN(...) > p` with `p > 0`, the §7 extension).
    /// Aliases the standing-query sampling density
    /// ([`crate::subscription::PROB_ROW_SAMPLES`]), so one-shot sweeps
    /// and maintained probability rows probe identical instants.
    pub const THRESHOLD_SAMPLES: usize = crate::subscription::PROB_ROW_SAMPLES as usize;

    /// Executes an already-parsed query: computes the statement's answer
    /// value and renders it through [`render_output`] or
    /// [`render_row_output`], the quantifier × target rules a standing
    /// query's [`SubscriptionRegistry::output`] applies. The value is
    /// the engine's memoised [`unn_core::answer::AnswerSet`] for
    /// `PROB_NN(…) > 0` (its [`QueryEngine::ranked_answer_set`] under
    /// `RANK k`), the sampled probability rows at
    /// [`ModServer::THRESHOLD_SAMPLES`] for `PROB_NN(…) > p` (under
    /// `RANK k`, each row keeps only its probes inside the object's
    /// rank-`k` intervals), the reverse engine's band intervals for
    /// `PROB_RNN(…) > 0` and its reverse rows for `PROB_RNN(…) > p`. A
    /// row statement's `AT t` evaluates the probability at exactly `t`
    /// (zero outside the rank-`k` intervals); one with a named target
    /// reads nothing else, so its rows are never sampled
    /// ([`render_instant`]).
    pub fn execute_parsed(&self, query: &Query) -> Result<QueryOutput, ServerError> {
        let (q_oid, window) = self.resolve_select(query)?;
        let (threshold, samples) = (query.prob_threshold > 0.0, Self::THRESHOLD_SAMPLES as u32);
        if query.predicate == PredicateKind::Rnn {
            let rev = self.reverse_engine(q_oid, window)?;
            if !threshold {
                return Ok(render_output(query, &rev.answer_set()));
            }
            let kernel = ColumnKernel::from_profile(self.difference_model()?.profile);
            // The probability that the query is `oid`'s nearest neighbor,
            // from `oid`'s perspective engine.
            let at = |oid, t| {
                rev.perspective_engine_arc(oid)
                    .and_then(|e| probability_at_kernel(&e, &kernel, q_oid, t))
                    .unwrap_or(0.0)
            };
            if let Some(verdict) = render_instant(query, at) {
                return Ok(verdict);
            }
            let rows = rev.prob_row_set_kernel(&kernel, samples);
            return Ok(render_row_output(query, &rows, at));
        }
        let (engine, _) = self.engine(q_oid, window)?;
        let ranked = query.rank.map(|k| engine.ranked_answer_set(k));
        if !threshold {
            return Ok(render_output(
                query,
                ranked.as_ref().unwrap_or(engine.answer()),
            ));
        }
        let kernel = ColumnKernel::from_profile(self.difference_model()?.profile);
        let at = |oid, t| match &ranked {
            Some(r) if !r.intervals_of(oid).is_some_and(|iv| iv.covers(t)) => 0.0,
            _ => probability_at_kernel(&engine, &kernel, oid, t).unwrap_or(0.0),
        };
        if let Some(verdict) = render_instant(query, at) {
            return Ok(verdict);
        }
        let rows = engine.prob_row_set_kernel(&kernel, samples);
        match &ranked {
            Some(r) => Ok(render_row_output(query, &rows.within(r), at)),
            None => Ok(render_row_output(query, &rows, at)),
        }
    }

    /// Answers `query` from the engine cache alone, never building: a
    /// forward `PROB_NN` query with threshold 0 and no `RANK` whose
    /// objects resolve, whose window is valid, and whose engine is
    /// cached at the store's epoch or carries to it — counted as a hit
    /// (and a carry) exactly as [`ModServer::execute_parsed`] counts it,
    /// and rendered by the same [`render_output`] over the engine's
    /// memoised answer. `None`, with nothing counted, when the statement
    /// needs [`ModServer::execute_parsed`]: a build, another shape, or
    /// an error. It plans nothing, evaluates no kernel and reads no
    /// snapshot; a carry walks at most the delta log's retained records.
    /// The network event loop answers hot reads through it.
    pub fn execute_cached(&self, query: &Query) -> Option<QueryOutput> {
        if query.predicate != PredicateKind::Nn
            || query.prob_threshold > 0.0
            || query.rank.is_some()
        {
            return None;
        }
        let (q_oid, window) = self.resolve_select(query).ok()?;
        let key = EngineKey::new(
            EngineKind::Forward,
            q_oid,
            window,
            self.planner.policy().tag(),
        );
        let (CachedEngine::Forward(engine), lookup) =
            self.cache.lookup(&self.store, key, self.store.epoch())?
        else {
            unreachable!("a forward key holds a forward engine")
        };
        self.count_lookup(lookup);
        Some(render_output(query, engine.answer()))
    }

    /// The query object and window of a `SELECT`, validated, with its
    /// named target (if any) resolved: a target that is not registered,
    /// or is the query object itself, is [`ServerError::UnknownObject`].
    fn resolve_select(&self, query: &Query) -> Result<(Oid, TimeInterval), ServerError> {
        let q_oid = self.resolve(&query.query_object)?;
        if let Target::One(name) = &query.target {
            if self.resolve(name)? == q_oid {
                return Err(ServerError::UnknownObject(name.clone()));
            }
        }
        let window = TimeInterval::try_new(query.window.0, query.window.1)
            .ok_or(ServerError::Window(DifferenceError::DegenerateWindow))?;
        Ok((q_oid, window))
    }

    /// Builds (or fetches from the cache) the full reverse-NN engine
    /// (every candidate's perspective envelope) for `query_oid` over the
    /// window — the `O(N² log N)` structure behind the `PROB_RNN`
    /// statements. Always planned exhaustively: every perspective object
    /// needs its envelope over the whole MOD.
    pub fn reverse_engine(
        &self,
        query_oid: Oid,
        window: TimeInterval,
    ) -> Result<Arc<ReverseNnEngine>, ServerError> {
        let snapshot = self.store.snapshot();
        let key = EngineKey::new(
            EngineKind::Reverse,
            query_oid,
            window,
            PrefilterPolicy::Exhaustive.tag(),
        );
        let (CachedEngine::Reverse(engine), _) = self.cached(key, snapshot.epoch(), || {
            let plan = QueryPlanner::new(PrefilterPolicy::Exhaustive)
                .plan(Arc::clone(&snapshot), query_oid, window)
                .map_err(ServerError::from)?;
            plan.build_reverse_engine()
                .map(|e| (CachedEngine::Reverse(Arc::new(e)), None))
                .map_err(ServerError::Window)
        })?
        else {
            unreachable!("a reverse key holds a reverse engine")
        };
        Ok(engine)
    }

    /// Builds (or fetches from the cache) the heterogeneous-radii engine
    /// (the §7 "different uncertainty zones" extension) using each
    /// registered object's **own** radius — the one configuration
    /// [`ModServer::engine`] rejects with [`ServerError::MixedRadii`].
    pub fn hetero_engine(
        &self,
        query_oid: Oid,
        window: TimeInterval,
    ) -> Result<Arc<HeteroEngine>, ServerError> {
        let snapshot = self.store.snapshot();
        let key = EngineKey::new(
            EngineKind::Hetero,
            query_oid,
            window,
            PrefilterPolicy::Exhaustive.tag(),
        );
        let (CachedEngine::Hetero(engine), _) = self.cached(key, snapshot.epoch(), || {
            let plan = QueryPlanner::new(PrefilterPolicy::Exhaustive)
                .plan_heterogeneous(Arc::clone(&snapshot), query_oid, window)
                .map_err(ServerError::from)?;
            plan.build_hetero_engine()
                .map(|e| (CachedEngine::Hetero(Arc::new(e)), None))
                .map_err(ServerError::Window)
        })?
        else {
            unreachable!("a hetero key holds a hetero engine")
        };
        Ok(engine)
    }

    /// The crisp continuous k-NN answer for `query_oid` (the §7 Top-k
    /// comparison substrate): a partition of the window into cells with
    /// the ordered k nearest objects. Planned exhaustively — crisp rank
    /// `k` is not bounded by the `4r` band, so the prefilter does not
    /// apply. Level 1 is the exhaustive engine's own envelope.
    pub fn knn_answer(
        &self,
        query_oid: Oid,
        window: TimeInterval,
        k: usize,
    ) -> Result<KnnAnswer, ServerError> {
        let (engine, _) =
            self.engine_with_policy(query_oid, window, PrefilterPolicy::Exhaustive)?;
        Ok(engine.continuous_knn(k))
    }

    /// The §2.2 **instantaneous** probabilistic NN ranking at instant `t`:
    /// Figure 4's `R_min/R_max` pruning followed by the Eq. 5 evaluation
    /// over the survivors. Works with mixed radii (the per-pair convolved
    /// supports are used throughout).
    pub fn instantaneous_nn(
        &self,
        query_oid: Oid,
        t: f64,
    ) -> Result<crate::instantaneous::InstantRanking, ServerError> {
        let snapshot = self.store.snapshot();
        crate::instantaneous::instantaneous_nn(&snapshot, query_oid, t).map_err(|e| match e {
            crate::instantaneous::InstantError::UnknownQuery(oid) => {
                ServerError::UnknownObject(oid.to_string())
            }
            _ => ServerError::NotEnoughObjects,
        })
    }

    /// The convolved difference pdf of the MOD's (shared) location model —
    /// exact closed form for uniform disks, numeric radial convolution for
    /// everything else (§3.1) — together with its profiled kernel tables,
    /// from the store-wide cache (one-shot sweeps, row subscriptions, and
    /// RNN perspective engines all share the same entry).
    fn difference_model(&self) -> Result<crate::store::DifferenceModel, ServerError> {
        let snapshot = self.store.snapshot();
        let kind = common_pdf_kind(&snapshot)
            .map_err(|_| ServerError::MixedPdfs)?
            .ok_or(ServerError::NotEnoughObjects)?;
        Ok(self.store.difference_model(&kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_core::query::Quantifier;
    use unn_traj::trajectory::Trajectory;

    fn tr(oid: u64, pts: &[(f64, f64, f64)]) -> UncertainTrajectory {
        UncertainTrajectory::with_uniform_pdf(Trajectory::from_triples(Oid(oid), pts).unwrap(), 0.5)
            .unwrap()
    }

    fn server() -> ModServer {
        let s = ModServer::new();
        // Query object 0 moves along the x axis; 1 stays near; 2 dips in
        // mid-window; 3 is far away.
        s.register(tr(0, &[(0.0, 0.0, 0.0), (10.0, 0.0, 10.0)]))
            .unwrap();
        s.register(tr(1, &[(0.0, 1.0, 0.0), (10.0, 1.0, 10.0)]))
            .unwrap();
        s.register(tr(2, &[(0.0, 8.0, 0.0), (10.0, 2.0, 10.0)]))
            .unwrap();
        s.register(tr(3, &[(0.0, 30.0, 0.0), (10.0, 30.0, 10.0)]))
            .unwrap();
        s
    }

    #[test]
    fn continuous_answer_and_stats() {
        let s = server();
        let ans = s
            .continuous_nn(Oid(0), TimeInterval::new(0.0, 10.0))
            .unwrap();
        assert!(!ans.sequence.is_empty());
        // Object 1 (distance 1 throughout) is the crisp NN everywhere.
        assert!(ans.sequence.iter().all(|(o, _)| *o == Oid(1)));
        assert_eq!(ans.stats.candidates, 3);
        assert!(ans.stats.kept >= 1);
        assert!(ans.stats.envelope_pieces >= 1);
    }

    #[test]
    fn execute_category_1() {
        let s = server();
        let q = "SELECT Tr1 FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(Tr1, Tr0, TIME) > 0";
        assert_eq!(s.execute(q).unwrap(), QueryOutput::Boolean(true));
        let q3 = "SELECT Tr3 FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(Tr3, Tr0, TIME) > 0";
        assert_eq!(s.execute(q3).unwrap(), QueryOutput::Boolean(false));
        let qf = "SELECT Tr1 FROM MOD WHERE FORALL TIME IN [0, 10] AND PROB_NN(Tr1, Tr0, TIME) > 0";
        assert_eq!(s.execute(qf).unwrap(), QueryOutput::Boolean(true));
    }

    #[test]
    fn execute_category_2_rank() {
        let s = server();
        let q = "SELECT Tr2 FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(Tr2, Tr0, TIME, RANK 2) > 0";
        assert_eq!(s.execute(q).unwrap(), QueryOutput::Boolean(true));
    }

    #[test]
    fn execute_category_3_star() {
        let s = server();
        let q = "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(*, Tr0, TIME) > 0";
        match s.execute(q).unwrap() {
            QueryOutput::Objects(objs) => {
                let oids: Vec<Oid> = objs.iter().map(|(o, _)| *o).collect();
                assert!(oids.contains(&Oid(1)));
                assert!(
                    !oids.contains(&Oid(3)),
                    "far object must be pruned: {objs:?}"
                );
                for (_, frac) in objs {
                    assert!((0.0..=1.0 + 1e-9).contains(&frac));
                }
            }
            other => panic!("expected Objects, got {other:?}"),
        }
    }

    #[test]
    fn execute_atleast_percent() {
        let s = server();
        let q =
            "SELECT * FROM MOD WHERE ATLEAST 90 % OF TIME IN [0, 10] AND PROB_NN(*, Tr0, TIME) > 0";
        match s.execute(q).unwrap() {
            QueryOutput::Objects(objs) => {
                for (_, frac) in &objs {
                    assert!(*frac >= 0.9 - 1e-9);
                }
            }
            other => panic!("expected Objects, got {other:?}"),
        }
    }

    #[test]
    fn execute_fixed_time() {
        let s = server();
        let q = "SELECT Tr1 FROM MOD WHERE AT 5 TIME IN [0, 10] AND PROB_NN(Tr1, Tr0, TIME) > 0";
        assert_eq!(s.execute(q).unwrap(), QueryOutput::Boolean(true));
        let q3 = "SELECT Tr3 FROM MOD WHERE AT 5 TIME IN [0, 10] AND PROB_NN(Tr3, Tr0, TIME) > 0";
        assert_eq!(s.execute(q3).unwrap(), QueryOutput::Boolean(false));
    }

    #[test]
    fn error_paths() {
        let s = server();
        // Unknown object.
        let q = "SELECT Tr9 FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(Tr9, Tr0, TIME) > 0";
        assert!(matches!(s.execute(q), Err(ServerError::UnknownObject(_))));
        // Window outside trajectory domains.
        let q = "SELECT Tr1 FROM MOD WHERE EXISTS TIME IN [0, 100] AND PROB_NN(Tr1, Tr0, TIME) > 0";
        assert!(matches!(s.execute(q), Err(ServerError::Window(_))));
        // Parse error surfaces.
        assert!(matches!(s.execute("SELECT"), Err(ServerError::Parse(_))));
        // Not enough objects.
        let empty = ModServer::new();
        empty
            .register(tr(0, &[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]))
            .unwrap();
        assert!(matches!(
            empty.engine(Oid(0), TimeInterval::new(0.0, 1.0)),
            Err(ServerError::NotEnoughObjects)
        ));
    }

    #[test]
    fn threshold_queries_execute() {
        let s = server();
        // Tr1 stays one mile away while everything else is far: its P^NN
        // is high throughout, so a 60% threshold holds for most probes.
        let q = "SELECT Tr1 FROM MOD WHERE ATLEAST 0.6 OF TIME IN [0, 10] \
                 AND PROB_NN(Tr1, Tr0, TIME) > 0.6";
        assert_eq!(s.execute(q).unwrap(), QueryOutput::Boolean(true));
        // Nobody beats a 99% probability all of the time against live
        // competition from Tr2 late in the window... but Tr1 might; just
        // check the statement executes and returns a Boolean.
        let q2 = "SELECT Tr2 FROM MOD WHERE EXISTS TIME IN [0, 10] \
                  AND PROB_NN(Tr2, Tr0, TIME) > 0.9";
        assert!(matches!(s.execute(q2).unwrap(), QueryOutput::Boolean(_)));
        // Star form returns fractions.
        let q3 = "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] \
                  AND PROB_NN(*, Tr0, TIME) > 0.5";
        match s.execute(q3).unwrap() {
            QueryOutput::Objects(objs) => {
                assert!(objs.iter().any(|(o, _)| *o == Oid(1)), "{objs:?}");
                assert!(objs.iter().all(|(o, _)| *o != Oid(3)), "{objs:?}");
            }
            other => panic!("expected Objects, got {other:?}"),
        }
        // Fixed-time threshold.
        let q4 = "SELECT Tr1 FROM MOD WHERE AT 5 TIME IN [0, 10] \
                  AND PROB_NN(Tr1, Tr0, TIME) > 0.5";
        assert_eq!(s.execute(q4).unwrap(), QueryOutput::Boolean(true));
    }

    #[test]
    fn threshold_with_rank_composes() {
        let s = server();
        let q = "SELECT * FROM MOD WHERE ATLEAST 0.1 OF TIME IN [0, 10] \
                 AND PROB_NN(*, Tr0, TIME, RANK 1) > 0.3";
        match s.execute(q).unwrap() {
            QueryOutput::Objects(objs) => {
                // Rank-1 + threshold: only the dominant object remains.
                assert!(objs.iter().any(|(o, _)| *o == Oid(1)), "{objs:?}");
            }
            other => panic!("expected Objects, got {other:?}"),
        }
    }

    #[test]
    fn gaussian_mod_threshold_statements() {
        use unn_prob::pdf::PdfKind;
        use unn_traj::uncertain::UncertainTrajectory;
        let s = ModServer::new();
        let mk = |oid: u64, pts: &[(f64, f64, f64)]| {
            UncertainTrajectory::new(
                Trajectory::from_triples(Oid(oid), pts).unwrap(),
                0.5,
                PdfKind::TruncatedGaussian {
                    radius: 0.5,
                    sigma: 0.15,
                },
            )
            .unwrap()
        };
        s.register(mk(0, &[(0.0, 0.0, 0.0), (10.0, 0.0, 10.0)]))
            .unwrap();
        s.register(mk(1, &[(0.0, 1.0, 0.0), (10.0, 1.0, 10.0)]))
            .unwrap();
        s.register(mk(2, &[(0.0, 1.6, 0.0), (10.0, 1.6, 10.0)]))
            .unwrap();
        // The concentrated Gaussian model leaves Tr1 dominant: its P^NN
        // stays above 90% (under uniform it would be lower because Tr2's
        // diffuse mass competes more).
        let q = "SELECT Tr1 FROM MOD WHERE ATLEAST 0.9 OF TIME IN [0, 10] \
                 AND PROB_NN(Tr1, Tr0, TIME) > 0.8";
        assert_eq!(s.execute(q).unwrap(), QueryOutput::Boolean(true));
        // Mixing pdf kinds is rejected for threshold evaluation.
        s.register(
            UncertainTrajectory::with_uniform_pdf(
                Trajectory::from_triples(Oid(3), &[(0.0, 5.0, 0.0), (10.0, 5.0, 10.0)]).unwrap(),
                0.5,
            )
            .unwrap(),
        )
        .unwrap();
        assert!(matches!(s.execute(q), Err(ServerError::MixedPdfs)));
    }

    #[test]
    fn resolve_accepts_plain_numbers() {
        let s = server();
        assert_eq!(s.resolve("Tr2").unwrap(), Oid(2));
        assert_eq!(s.resolve("2").unwrap(), Oid(2));
        assert!(s.resolve("Tr99").is_err());
        assert!(s.resolve("bogus").is_err());
    }

    #[test]
    fn reverse_engine_lists_the_reverse_neighbours() {
        let s = server();
        let w = TimeInterval::new(0.0, 10.0);
        // Tr0 and Tr1 run in parallel one mile apart: each is the other's
        // NN, so Tr0 must appear in Tr1's reverse set.
        let rev: Vec<Oid> = s
            .reverse_engine(Oid(0), w)
            .unwrap()
            .answer_set()
            .entries()
            .iter()
            .map(|e| e.oid)
            .collect();
        assert!(rev.contains(&Oid(1)), "{rev:?}");
        // The far object (Tr3) has Tr2-or-closer objects as its
        // candidates; Tr0 is further than 4r below its envelope? Tr3 at
        // y=30 vs others at y<=8: its nearest is Tr2 (y from 8 to 2)...
        // just assert the call is well-formed and excludes the target.
        assert!(!rev.contains(&Oid(0)));
        assert!(matches!(
            s.reverse_engine(Oid(42), w),
            Err(ServerError::UnknownObject(_))
        ));
    }

    #[test]
    fn execute_reverse_statements() {
        let s = server();
        // Tr0 and Tr1 run in parallel one mile apart: Tr0 is a possible NN
        // of Tr1 throughout (their gap 1 < LE_1 + 4r everywhere).
        let q = "SELECT Tr1 FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_RNN(Tr1, Tr0, TIME) > 0";
        assert_eq!(s.execute(q).unwrap(), QueryOutput::Boolean(true));
        // Star form lists every object that may have Tr0 as its NN.
        let qs = "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_RNN(*, Tr0, TIME) > 0";
        match s.execute(qs).unwrap() {
            QueryOutput::Objects(objs) => {
                assert!(objs.iter().any(|(o, _)| *o == Oid(1)), "{objs:?}");
                for (_, f) in &objs {
                    assert!((0.0..=1.0 + 1e-9).contains(f));
                }
            }
            other => panic!("expected Objects, got {other:?}"),
        }
        // Fixed-time reverse.
        let qa = "SELECT Tr1 FROM MOD WHERE AT 5 TIME IN [0, 10] AND PROB_RNN(Tr1, Tr0, TIME) > 0";
        assert_eq!(s.execute(qa).unwrap(), QueryOutput::Boolean(true));
        // Reverse with a probability threshold: Tr0 is Tr1's only close
        // neighbor, so its reverse probability is high.
        let qt = "SELECT Tr1 FROM MOD WHERE ATLEAST 0.5 OF TIME IN [0, 10] \
                  AND PROB_RNN(Tr1, Tr0, TIME) > 0.5";
        assert!(matches!(s.execute(qt).unwrap(), QueryOutput::Boolean(_)));
    }

    /// A threshold share's kernel remembers a probe column from its
    /// second evaluation on: registration leaves the gauge at 0, and two
    /// patches by an in-band newcomer fill it.
    #[test]
    fn kernel_memo_gauge_grows_only_with_patches() {
        let s = server();
        s.subscription_registry().set_row_samples(16);
        let memo_bytes = |s: &ModServer| {
            let snap = s.metrics_snapshot(Some("subs_kernel_memo_bytes"));
            assert_eq!(snap.gauges.len(), 1);
            snap.gauges[0].1
        };
        let hot = "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(*, Tr0, TIME) > 0.3";
        s.subscribe("hot", hot).unwrap();
        assert_eq!(memo_bytes(&s), 0, "a share never patched remembers nothing");
        s.register(tr(7, &[(0.0, 1.5, 0.0), (10.0, 1.5, 10.0)]))
            .unwrap();
        s.store()
            .update(tr(7, &[(0.0, 1.4, 0.0), (10.0, 1.4, 10.0)]));
        assert_eq!(s.subscriptions()[0].stats.patched, 2);
        // The gauge is the bytes the kernels' lists hold: whole blocks of
        // a 24-byte key, an 8-byte offset and 2m 8-byte values (m = 4, 8
        // or 16), each a multiple of 16 bytes.
        let bytes = memo_bytes(&s);
        let held: usize = s
            .subscription_registry()
            .share_stats()
            .into_iter()
            .filter_map(|(_, kernel)| kernel)
            .map(|kernel| kernel.memo_bytes())
            .sum();
        assert!(
            bytes > 0 && bytes == held as u64 && bytes % 16 == 0,
            "{bytes}"
        );
    }

    /// The kept kernels' block counts: registration evaluates every
    /// column once through the share's kernel and copies nothing, and
    /// the second patch reads back blocks the first one left.
    #[test]
    fn kernel_block_counts_show_the_memo_hits() {
        let s = server();
        s.subscription_registry().set_row_samples(16);
        let counts = |s: &ModServer| {
            let snap = s.metrics_snapshot(Some("subs_kernel_blocks_c"));
            let [(_, computed), (_, copied)] = snap.gauges[..] else {
                panic!("{:?}", snap.gauges)
            };
            (computed, copied)
        };
        assert_eq!(counts(&s), (0, 0), "no row share, no kernel");
        let hot = "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(*, Tr0, TIME) > 0.3";
        s.subscribe("hot", hot).unwrap();
        let (registered, copied) = counts(&s);
        assert!(registered > 0 && copied == 0, "{registered}, {copied}");
        s.register(tr(7, &[(0.0, 1.5, 0.0), (10.0, 1.5, 10.0)]))
            .unwrap();
        s.store()
            .update(tr(7, &[(0.0, 1.4, 0.0), (10.0, 1.4, 10.0)]));
        assert_eq!(s.subscriptions()[0].stats.patched, 2);
        let (computed, copied) = counts(&s);
        assert!(computed > registered && copied > 0, "{computed}, {copied}");
    }

    /// A one-shot `PROB_RNN > p` reads one batched row set; the oracle
    /// here is the per-perspective, per-probe `probability_at_kernel`
    /// loop it replaced. Fractions must agree to the bit, verdicts
    /// exactly.
    #[test]
    fn reverse_threshold_rows_match_the_per_probe_loop() {
        use unn_core::kernel::ColumnKernel;
        use unn_core::threshold::probability_at_kernel;
        let s = server();
        // A fourth neighbour that contests Tr0 from Tr1's and Tr2's
        // perspectives for part of the window.
        s.register(tr(4, &[(0.0, 3.0, 0.0), (10.0, -1.0, 10.0)]))
            .unwrap();
        let q_oid = Oid(0);
        let w = TimeInterval::new(0.0, 10.0);
        let rev = s.reverse_engine(q_oid, w).unwrap();
        let kernel = ColumnKernel::from_profile(s.difference_model().unwrap().profile);
        let n = ModServer::THRESHOLD_SAMPLES;
        let full = 1.0 - 0.5 / n as f64;
        for p in [0.3, 0.6] {
            let oracle: Vec<(Oid, f64)> = rev
                .perspective_engines()
                .map(|(oid, engine)| {
                    let hits = (0..n)
                        .filter(|k| {
                            let t = w.start() + (*k as f64 + 0.5) * w.len() / n as f64;
                            probability_at_kernel(engine, &kernel, q_oid, t).unwrap_or(0.0) > p
                        })
                        .count();
                    (oid, hits as f64 / n as f64)
                })
                .collect();
            assert!(
                oracle.iter().any(|(_, f)| *f > 0.0 && *f < full),
                "fleet must contest the threshold {p}: {oracle:?}"
            );
            let keep = |quant: &str, f: f64| match quant {
                "EXISTS" => f > 0.0,
                "FORALL" => f >= full,
                _ => f + 1e-12 >= 0.4,
            };
            for quant in ["EXISTS", "FORALL", "ATLEAST 0.4 OF"] {
                let all = format!(
                    "SELECT * FROM MOD WHERE {quant} TIME IN [0, 10] \
                     AND PROB_RNN(*, Tr0, TIME) > {p}"
                );
                let QueryOutput::Objects(got) = s.execute(&all).unwrap() else {
                    panic!("expected Objects for {all}");
                };
                let bits = |objs: &[(Oid, f64)]| -> Vec<(Oid, u64)> {
                    objs.iter().map(|(o, f)| (*o, f.to_bits())).collect()
                };
                let want: Vec<(Oid, f64)> = oracle
                    .iter()
                    .copied()
                    .filter(|(_, f)| keep(quant, *f))
                    .collect();
                assert_eq!(bits(&got), bits(&want), "{all}");
                for (oid, f) in &oracle {
                    let one = format!(
                        "SELECT {oid} FROM MOD WHERE {quant} TIME IN [0, 10] \
                         AND PROB_RNN({oid}, Tr0, TIME) > {p}"
                    );
                    assert_eq!(
                        s.execute(&one).unwrap(),
                        QueryOutput::Boolean(keep(quant, *f)),
                        "{one}"
                    );
                }
            }
        }
    }

    #[test]
    fn reverse_agrees_with_candidate_scan() {
        let s = server();
        let w = TimeInterval::new(0.0, 10.0);
        // The reference: one forward engine per object, asking whether
        // the query qualifies as its NN at some instant. (Tr3 is the
        // query's exact tangency at t = 10: the closed band test admits
        // it, its interval set is empty, so neither side lists it.)
        let mut via_scan = Vec::new();
        for oid in s.store().oids() {
            let (engine, _) = s.engine(oid, w).unwrap();
            let intervals = engine.nonzero_intervals(Oid(0)).unwrap_or_default();
            if oid != Oid(0) && Quantifier::Exists.holds(&intervals, w) {
                via_scan.push(oid);
            }
        }
        let rev = s.reverse_engine(Oid(0), w).unwrap();
        let via_engine: Vec<Oid> = rev.answer_set().entries().iter().map(|e| e.oid).collect();
        for oid in &via_scan {
            assert!(via_engine.contains(oid), "{oid} missing from engine answer");
        }
        for oid in &via_engine {
            assert!(via_scan.contains(oid), "{oid} missing from scan answer");
        }
    }

    #[test]
    fn hetero_engine_accepts_mixed_radii() {
        let s = ModServer::new();
        let mk = |oid: u64, pts: &[(f64, f64, f64)], r: f64| {
            UncertainTrajectory::with_uniform_pdf(
                Trajectory::from_triples(Oid(oid), pts).unwrap(),
                r,
            )
            .unwrap()
        };
        s.register(mk(0, &[(0.0, 0.0, 0.0), (10.0, 0.0, 10.0)], 0.3))
            .unwrap();
        s.register(mk(1, &[(0.0, 1.0, 0.0), (10.0, 1.0, 10.0)], 0.2))
            .unwrap();
        s.register(mk(2, &[(0.0, 9.0, 0.0), (10.0, 9.0, 10.0)], 3.0))
            .unwrap();
        let w = TimeInterval::new(0.0, 10.0);
        // The homogeneous path refuses mixed radii…
        assert!(matches!(s.engine(Oid(0), w), Err(ServerError::MixedRadii)));
        // …the hetero engine handles them: the distant-but-diffuse Tr2 is
        // possible (gap 8 < slack 3.3 + threshold 1 + 0.5).
        let h = s.hetero_engine(Oid(0), w).unwrap();
        assert!(Quantifier::Exists.holds(&h.possible_intervals(Oid(1)).unwrap(), w));
        assert_eq!(h.query_radius(), 0.3);
        let probs = h.probabilities_at(5.0).unwrap();
        let sum: f64 = probs.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-2, "sum {sum}");
    }

    #[test]
    fn knn_answer_via_server() {
        let s = server();
        let w = TimeInterval::new(0.0, 10.0);
        let ans = s.knn_answer(Oid(0), w, 2).unwrap();
        assert_eq!(ans.k(), 2);
        // Tr1 (distance 1 throughout) is always rank 1.
        for c in ans.cells() {
            assert_eq!(c.ranked[0], Oid(1), "{c:?}");
        }
    }

    #[test]
    fn ipac_tree_via_server() {
        let s = server();
        let tree = s
            .ipac_tree(Oid(0), TimeInterval::new(0.0, 10.0), 2)
            .unwrap();
        assert!(tree.node_count() >= 1);
        assert!(tree.depth() <= 2);
    }

    const NEAR: &str =
        "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(*, Tr0, TIME) > 0";

    /// The deltas queued in `sink`, oldest first.
    fn drain(sink: &DeltaSink) -> Vec<SubDelta> {
        std::iter::from_fn(|| sink.try_recv())
            .map(|event| event.delta)
            .collect()
    }

    /// One statement registered twice in-process: without a sink (its
    /// deltas go to the server's pull sink) and with a push sink. The
    /// polled fold, the pushed fold and the maintained answer agree.
    #[test]
    fn polled_and_pushed_deltas_fold_alike() {
        let s = server();
        s.subscribe("pulled", NEAR).unwrap();
        let push = Arc::new(DeltaSink::bounded(64));
        let stmt = format!("REGISTER CONTINUOUS {NEAR} AS pushed");
        s.execute_statement(parse_statement(&stmt).unwrap(), Some(&push))
            .unwrap();
        let base = s.subscription_answer("pulled").unwrap();
        assert_eq!(s.subscription_answer("pushed").unwrap(), base);
        s.register(tr(7, &[(0.0, 1.5, 0.0), (10.0, 1.5, 10.0)]))
            .unwrap();
        s.store()
            .update(tr(7, &[(0.0, 0.5, 0.0), (10.0, 0.5, 10.0)]));
        s.store().remove(Oid(7)).unwrap();
        let polled = s.poll_subscription("pulled").unwrap();
        let pushed = drain(&push);
        assert!(!polled.is_empty());
        assert_eq!(polled, pushed);
        let fold = |deltas: &[SubDelta]| deltas.iter().fold(base.clone(), |acc, d| acc.apply(d));
        assert_eq!(fold(&polled), s.subscription_answer("pulled").unwrap());
        assert_eq!(fold(&pushed), s.subscription_answer("pushed").unwrap());
        assert_eq!(s.poll_subscription("pulled").unwrap(), vec![]);
    }

    /// A name registered with a push sink has no pull consumer: polling
    /// it errors, as does polling an unknown or unregistered name.
    #[test]
    fn polling_a_pushed_name_errors() {
        let s = server();
        let push = Arc::new(DeltaSink::bounded(8));
        let stmt = format!("REGISTER CONTINUOUS {NEAR} AS pushed");
        s.execute_statement(parse_statement(&stmt).unwrap(), Some(&push))
            .unwrap();
        let err = s.poll_subscription("pushed").unwrap_err();
        assert!(
            matches!(
                &err,
                ServerError::Subscription(SubscriptionError::NoPullConsumer(n)) if n == "pushed"
            ),
            "{err}"
        );
        assert!(err.to_string().contains("no pull consumer"), "{err}");
        let err = s.poll_subscription("pushd").unwrap_err();
        assert!(err.to_string().contains("did you mean 'pushed'"), "{err}");
        // Unregistering drops the pull sink with the name.
        s.subscribe("pulled", NEAR).unwrap();
        s.execute("UNREGISTER pulled").unwrap();
        assert!(matches!(
            s.poll_subscription("pulled"),
            Err(ServerError::Subscription(SubscriptionError::Unknown { .. }))
        ));
        assert!(s.pull.lock().unwrap().is_empty());
    }
}
