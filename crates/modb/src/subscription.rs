//! Standing queries: registered continuous queries whose answers are
//! **maintained incrementally** as the MOD mutates, instead of being
//! re-planned per request.
//!
//! The paper's queries are continuous by nature — probabilistic NN
//! predicates holding over a time window — yet a request/response server
//! re-derives every answer from a point-in-time snapshot. A
//! [`SubscriptionRegistry`] attached to the store
//! ([`crate::store::ModStore::attach_subscriptions`]) closes that gap:
//! after every commit, the epoch's delta is routed to the affected
//! subscriptions only, in the DBSP spirit of re-deriving just the changed
//! part of each answer from the input delta.
//!
//! ## Two maintained representations, one ladder
//!
//! A standing query maintains one of two diffable answers, chosen by its
//! statement shape:
//!
//! * **Qualification intervals** ([`unn_core::answer::AnswerSet`]) for
//!   forward `PROB_NN(…) > 0` statements (any quantifier, optional
//!   `RANK`) — the banded non-zero-probability semantics.
//! * **Probability rows** ([`unn_core::probrows::ProbRowSet`]) for
//!   threshold (`PROB_NN(…) > p`, `p > 0`) and reverse (`PROB_RNN`)
//!   statements — sampled `P^NN(t)` rows with per-sample provenance,
//!   whose deltas ([`unn_core::probrows::ProbRowDelta`]) stream exactly
//!   like interval deltas.
//!
//! Per subscription, per delta, one of three paths runs (cheapest
//! first):
//!
//! 1. **Skip** — the carried engine's band-bound proof
//!    ([`crate::delta::ForwardProof`]) shows no logged op can touch the
//!    answer: only the epoch watermark advances. The proof bounds
//!    (candidate set, band survivors, envelope maximum, query corridor
//!    box) are derived **once per carried engine** and cached, so a
//!    burst of `M` far commits costs one proof-bound derivation plus `M`
//!    box checks — not `M` envelope scans. Row subscriptions use the
//!    sharper [`crate::delta::ForwardProof::ops_unaffected_rows`]
//!    obligation (a removal of a candidate that never survived band
//!    pruning cannot have joined any probe column).
//! 2. **Patch** — the prefilter re-runs against the patched snapshot and
//!    the engine is rebuilt *reusing every unchanged candidate's
//!    difference function* from the carried engine. For interval answers
//!    the carried envelope recomputes only touched candidates'
//!    intervals; for probability rows only the *dirty probe columns* —
//!    those whose provenance includes a touched function, or that a
//!    fresh function's band now reaches — are jointly re-evaluated, and
//!    every clean column's `P` values are copied bit-for-bit
//!    ([`unn_core::query::QueryEngine::prob_row_set_reusing_kernel`]).
//!    Reverse subscriptions patch **per perspective**: each perspective
//!    object keeps its own carried lower envelope and [`ForwardProof`],
//!    so a far commit re-derives one new perspective and carries all
//!    untouched ones (`perspectives_skipped` counts the carries).
//! 3. **Rebuild** — the delta log was truncated past the subscription's
//!    last epoch (or the query object itself changed): patching against
//!    incomplete history would silently miss mutations, so the full
//!    plan → difference → envelope (→ sampling) pipeline runs from
//!    scratch (see the truncation contract in [`crate::delta::DeltaLog`]).
//!
//! ## Sharded maintenance
//!
//! The registry is sharded by subscription-name hash, mirroring the
//! store's oid-hashed writer shards. [`SubscriptionRegistry::sync`] runs
//! in two phases: a sequential *cheap pass* decides each visited
//! share's rung (current / skip / heavy), sharing one delta-ops fetch and
//! one changed-id set across all shares at the same watermark; then the
//! shares needing heavy work (patch or rebuild) climb the rest of the
//! ladder with the delta the cheap pass already fetched, **fanning out
//! across scoped threads** when the host has more than one core.
//!
//! ## The maintenance index: `O(affected)` rounds
//!
//! Which subscriptions does phase one even look at? In the
//! publication-style reading of the registry — standing queries are the
//! *subscriptions*, commits are the *publications* — the registry keeps
//! a spatial index over the standing queries themselves (the private
//! `SubscriptionIndex`): every share whose engine carries a
//! [`ForwardProof`] publishes a **guard box** — the query corridor
//! inflated by the proof's reach (envelope maximum plus band slack),
//! flattened in time — into a [`GridIndex`] keyed by share id, plus an
//! inverted oid → shares map for the objects whose identity the proof
//! depends on. A commit's maintenance round computes the delta region
//! of its logged ops and visits only the index hits: a share outside
//! the hit set is *provably* unaffected (its per-axis gap exceeds the
//! reach, hence so does the Euclidean gap) and is skipped **without
//! being touched** — no lock, no watermark write. The skipped rounds
//! are reconciled lazily from a round counter at the share's next visit
//! or stats read ([`SubscriptionStats::skipped_unvisited`]). Shares
//! without a usable proof (reverse rows, parked, errored) sit in an
//! always-visit set. Guards re-publish whenever a proof re-derives,
//! with a catch-up loop closing the race against rounds proven on the
//! old guard. Far churn therefore costs one index lookup — independent
//! of the registered population; the `fanout` bench's
//! `city_maintain_10k` group pins a far-churn round at 10k standing
//! queries to within 10x of the 100-subscription round.
//!
//! Commits can additionally be **coalesced**: with
//! [`crate::store::ModStore::set_maintenance_batch`] above 1, only
//! every `n`-th commit runs a round, which then reconciles the whole
//! burst from the delta log in one pass
//! ([`SubscriptionStats::batched_commits`] counts the epochs folded
//! beyond each visit's first). `tests/indexed_sync.rs` holds the
//! indexed, batched path bit-identical to a cold exhaustive evaluation
//! of the final contents across random interleavings, prefilter
//! policies, and mid-batch registrations.
//!
//! ## Engine sharing
//!
//! Registrations with the same computation shape — query object, window,
//! kind (interval / threshold rows / reverse rows), prefilter policy,
//! sample density — coalesce onto **one share**: one carried
//! engine, one skip/patch/rebuild round per commit, however many
//! subscription names ride it. Each member keeps its own identity (pull
//! feed, attached sinks, per-name `Event` frames), but the maintained
//! answer and the delta are computed once.
//! [`SubscriptionRegistry::share_count`] exposes the number of distinct
//! maintained computations.
//!
//! ## Change feeds and push sinks
//!
//! Every answer change is appended to the subscription's bounded pull
//! feed (drained by `sub poll` / [`SubscriptionRegistry::drain`]) and
//! forwarded to every attached [`DeltaSink`] — the bounded outbox a
//! network connection hangs on to receive **pushed** deltas (see
//! [`crate::net`]). Both are bounded by the store's
//! [`crate::store::ModStore::set_feed_bound`] / the sink's own capacity
//! under the same squash-oldest contract: overflowing deltas are
//! composed via [`SubDelta::then`] (never dropped), so folding a feed
//! over the subscriber's base answer stays bit-identical to the
//! maintained answer; squashed sink events are flagged `lagged` so a
//! push consumer knows to resync from a full answer. Each queued event
//! carries a [`FrameCache`], so when many connections watch the same
//! subscription name the wire frame for a delta is serialized **once**
//! and every outbox hands the same `Arc<[u8]>` to its socket (see
//! [`crate::net::server`]).
//!
//! Every path yields answers **bit-identical** to a fresh exhaustive
//! evaluation of the current contents — the patch path replans with the
//! same deterministic prefilter a cold query would use, reuses only
//! difference functions whose inputs are untouched, and recomputes
//! probe columns with the canonical joint evaluation a cold sweep runs;
//! `tests/continuous_queries.rs` asserts the equivalence property-style
//! across random mutation interleavings and both prefilter policies, for
//! interval and row subscriptions alike.

use crate::delta::{full_xy_box, DeltaOp, DeltaRecord, ForwardProof};
use crate::index::bbox::Aabb3;
use crate::index::grid::GridIndex;
use crate::plan::{PrefilterPolicy, QueryPlan, QueryPlanner};
use crate::ql::ast::{PredicateKind, Quantifier, Query, Target};
use crate::ql::{parse_object_name, SourceSpan};
use crate::server::QueryOutput;
use crate::snapshot::QuerySnapshot;
use crate::store::ModStore;
use crate::telemetry::{self, TraceEvent, TraceStage};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use unn_core::answer::{AnswerDelta, AnswerSet};
use unn_core::candidates::CandidateSet;
use unn_core::kernel::ColumnKernel;
use unn_core::probrows::{probe_column, ProbRowDelta, ProbRowSet, RowPerspective};
use unn_core::query::QueryEngine;
use unn_core::reverse::ReverseNnEngine;
use unn_geom::interval::TimeInterval;
use unn_prob::pdf::PdfKind;
use unn_traj::distance::DistanceFunction;
use unn_traj::trajectory::{Oid, Trajectory};
use unn_traj::uncertain::{common_pdf_kind, common_radius};

/// Number of name-hashed registry shards (mirrors the store's writer
/// sharding so maintenance fan-out matches ingest fan-out).
const REGISTRY_SHARDS: usize = 16;

/// Default number of probe instants a row subscription samples its
/// window at — shared with the one-shot threshold path
/// ([`crate::server::ModServer::THRESHOLD_SAMPLES`] aliases it), so a
/// maintained row set and a fresh one-shot sweep agree bit-for-bit.
/// Tunable per registry via
/// [`SubscriptionRegistry::set_row_samples`]: each probe of every
/// candidate costs a `P^WD` quadrature, so sampling density is the
/// row-maintenance cost dial (a subscription keeps the density it was
/// registered with).
pub const PROB_ROW_SAMPLES: u32 = 128;

/// Errors raised by subscription management.
#[derive(Debug, Clone, PartialEq)]
pub enum SubscriptionError {
    /// A subscription with this name already exists.
    NameTaken(String),
    /// No subscription with this name.
    Unknown {
        /// The name that failed to resolve.
        name: String,
        /// The registered name closest to it (cheap edit distance), if
        /// any is close enough to plausibly be a typo.
        nearest: Option<String>,
    },
    /// The statement cannot be registered as a standing query.
    Unsupported {
        /// Why the statement shape is not incrementally maintainable.
        message: String,
        /// The offending token in the statement, when known — lets the
        /// CLI and wire server render a caret
        /// ([`SubscriptionError::render`]).
        span: Option<SourceSpan>,
    },
    /// The initial evaluation failed (unknown query object, not enough
    /// objects, invalid window…).
    Evaluation(String),
}

impl SubscriptionError {
    /// An [`SubscriptionError::Unknown`] for `name`, with the nearest
    /// registered name as a hint.
    fn unknown(name: &str, registry: &SubscriptionRegistry) -> SubscriptionError {
        SubscriptionError::Unknown {
            name: name.to_string(),
            nearest: registry.nearest_name(name),
        }
    }

    /// Renders the error against the statement it was raised for:
    /// [`SubscriptionError::Unsupported`] errors carrying a span draw a
    /// caret at the offending token (like
    /// [`crate::ql::ParseError::render`]); everything else renders as
    /// its `Display` form.
    pub fn render(&self, src: &str) -> String {
        match self {
            SubscriptionError::Unsupported {
                span: Some(span), ..
            } => {
                let located = SourceSpan::locate(src, span.offset);
                format!(
                    "{self} (line {}, column {})\n{}",
                    located.line,
                    located.col,
                    located.render_caret(src)
                )
            }
            other => other.to_string(),
        }
    }
}

impl fmt::Display for SubscriptionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubscriptionError::NameTaken(n) => {
                write!(f, "a subscription named '{n}' already exists")
            }
            SubscriptionError::Unknown { name, nearest } => {
                write!(f, "no subscription named '{name}'")?;
                if let Some(hint) = nearest {
                    write!(f, " (did you mean '{hint}'?)")?;
                }
                Ok(())
            }
            SubscriptionError::Unsupported { message, .. } => {
                write!(f, "cannot register: {message}")
            }
            SubscriptionError::Evaluation(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for SubscriptionError {}

/// Per-subscription maintenance counters: how each routed delta was
/// absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubscriptionStats {
    /// Maintenance rounds proven unable to touch the answer (watermark
    /// bump only).
    pub skipped: u64,
    /// Logged ops absorbed by those skip rounds — `skipped_ops >
    /// skipped` means bursts were coalesced into single proof rounds.
    pub skipped_ops: u64,
    /// Deltas absorbed by the incremental re-eval (prefilter + reused
    /// difference functions + envelope).
    pub patched: u64,
    /// Full re-plans: truncated history, a mutated query object, or an
    /// evaluation error.
    pub rebuilt: u64,
    /// Patches that additionally carried the envelope (the delta provably
    /// left the lower envelope untouched, so only the touched candidates'
    /// intervals were recomputed).
    pub envelopes_carried: u64,
    /// Difference functions reused from the carried engine across all
    /// patches (the work incrementality avoided).
    pub functions_reused: u64,
    /// Difference functions built fresh across all patches.
    pub functions_built: u64,
    /// Probability rows recomputed across all row-subscription patches
    /// (forward: rows touching a dirty probe column; reverse:
    /// perspectives re-sampled). Rows outside this count were copied
    /// bit-for-bit from the carried answer.
    pub rows_patched: u64,
    /// Reverse perspectives whose engine *and* row were carried
    /// wholesale under their per-perspective proof — the work a far
    /// commit skips.
    pub perspectives_skipped: u64,
    /// Maintenance rounds that examined this share at all — each lands
    /// in exactly one of `skipped` / `patched` / `rebuilt`, so
    /// `visited` always equals their sum (the legibility counter next
    /// to `skipped_unvisited`).
    pub visited: u64,
    /// Maintenance rounds the subscription index pruned before they
    /// touched this share: no lock taken, no proof checked — the
    /// round's delta provably missed the published guard region.
    /// Distinct from `skipped`, which still pays a per-share box/id
    /// check under the core lock.
    pub skipped_unvisited: u64,
    /// Extra commits absorbed beyond the first by coalesced rounds
    /// (distinct commit epochs spanned minus one, summed over visited
    /// rounds) — what a [`crate::store::ModStore::set_maintenance_batch`]
    /// window or a raced burst folded into single ladder passes.
    pub batched_commits: u64,
}

/// A snapshot of one subscription's state (the `SHOW SUBSCRIPTIONS` row).
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriptionInfo {
    /// The subscription's unique name.
    pub name: String,
    /// The standing query, rendered back to its statement surface.
    pub statement: String,
    /// The store epoch the answer is current at.
    pub last_epoch: u64,
    /// Number of objects currently qualifying (interval subscriptions)
    /// or holding a probability row (row subscriptions).
    pub entries: usize,
    /// Undrained deltas in the change feed.
    pub pending_deltas: usize,
    /// The evaluation error the subscription is parked on, if any (e.g.
    /// its query object left the MOD; cleared when evaluation succeeds
    /// again).
    pub error: Option<String>,
    /// Maintenance counters.
    pub stats: SubscriptionStats,
}

/// A maintained standing-query answer: qualification intervals for
/// forward `> 0` statements, sampled probability rows for threshold and
/// reverse ones. The two shapes never diff against each other.
#[derive(Debug, Clone, PartialEq)]
pub enum SubAnswer {
    /// Banded qualification intervals (the [`AnswerSet`] algebra).
    Intervals(AnswerSet),
    /// Sampled probability rows (the [`ProbRowSet`] algebra).
    Rows(ProbRowSet),
}

impl SubAnswer {
    /// Number of qualifying objects / row owners.
    pub fn len(&self) -> usize {
        match self {
            SubAnswer::Intervals(a) => a.len(),
            SubAnswer::Rows(r) => r.len(),
        }
    }

    /// `true` when nothing qualifies.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The interval answer, when this is one.
    pub fn as_intervals(&self) -> Option<&AnswerSet> {
        match self {
            SubAnswer::Intervals(a) => Some(a),
            SubAnswer::Rows(_) => None,
        }
    }

    /// The row answer, when this is one.
    pub fn as_rows(&self) -> Option<&ProbRowSet> {
        match self {
            SubAnswer::Rows(r) => Some(r),
            SubAnswer::Intervals(_) => None,
        }
    }

    /// The delta transforming `self` into `newer` (same shape), tagged
    /// with `epoch`.
    ///
    /// # Panics
    ///
    /// Panics when the answers have different representations.
    pub fn diff_to(&self, newer: &SubAnswer, epoch: u64) -> SubDelta {
        match (self, newer) {
            (SubAnswer::Intervals(a), SubAnswer::Intervals(b)) => {
                SubDelta::Intervals(a.diff_to(b, epoch))
            }
            (SubAnswer::Rows(a), SubAnswer::Rows(b)) => SubDelta::Rows(a.diff_to(b, epoch)),
            _ => panic!("diff of mismatched answer representations"),
        }
    }

    /// Applies a delta of the matching representation.
    ///
    /// # Panics
    ///
    /// Panics when the delta belongs to the other representation.
    pub fn apply(&self, delta: &SubDelta) -> SubAnswer {
        match (self, delta) {
            (SubAnswer::Intervals(a), SubDelta::Intervals(d)) => SubAnswer::Intervals(a.apply(d)),
            (SubAnswer::Rows(r), SubDelta::Rows(d)) => SubAnswer::Rows(r.apply(d)),
            _ => panic!("applying a delta of the wrong representation"),
        }
    }
}

/// One maintained answer change: an interval delta or a row delta,
/// matching the subscription's [`SubAnswer`] representation.
#[derive(Debug, Clone, PartialEq)]
pub enum SubDelta {
    /// An [`AnswerDelta`] of an interval subscription.
    Intervals(AnswerDelta),
    /// A [`ProbRowDelta`] of a threshold/reverse subscription.
    Rows(ProbRowDelta),
}

impl SubDelta {
    /// The store epoch the answer advanced to.
    pub fn epoch(&self) -> u64 {
        match self {
            SubDelta::Intervals(d) => d.epoch,
            SubDelta::Rows(d) => d.epoch,
        }
    }

    /// `true` when applying the delta would change nothing.
    pub fn is_empty(&self) -> bool {
        match self {
            SubDelta::Intervals(d) => d.is_empty(),
            SubDelta::Rows(d) => d.is_empty(),
        }
    }

    /// Number of changed objects (upserts + removals).
    pub fn touched(&self) -> usize {
        match self {
            SubDelta::Intervals(d) => d.touched(),
            SubDelta::Rows(d) => d.touched(),
        }
    }

    /// The interval delta, when this is one.
    pub fn as_intervals(&self) -> Option<&AnswerDelta> {
        match self {
            SubDelta::Intervals(d) => Some(d),
            SubDelta::Rows(_) => None,
        }
    }

    /// The row delta, when this is one.
    pub fn as_rows(&self) -> Option<&ProbRowDelta> {
        match self {
            SubDelta::Rows(d) => Some(d),
            SubDelta::Intervals(_) => None,
        }
    }

    /// Composes `self` (applied first) with `next` (applied second).
    /// Bounded feeds squash their oldest entries with this; one
    /// subscription's deltas always share a representation.
    ///
    /// # Panics
    ///
    /// Panics on mismatched representations.
    pub fn then(&self, next: &SubDelta) -> SubDelta {
        match (self, next) {
            (SubDelta::Intervals(a), SubDelta::Intervals(b)) => SubDelta::Intervals(a.then(b)),
            (SubDelta::Rows(a), SubDelta::Rows(b)) => SubDelta::Rows(a.then(b)),
            _ => panic!("composing deltas of mismatched representations"),
        }
    }
}

/// A shared once-cell for the encoded wire image of one pushed delta —
/// the **encode-once broadcast** handle. Maintenance creates one cache
/// per emitted `(subscription, delta)` and hands the same handle to
/// every attached [`DeltaSink`]; the first network connection to
/// deliver the event encodes the full length-prefixed frame and
/// publishes the bytes, every other connection clones the `Arc<[u8]>`
/// (see [`crate::net::wire::encode_frame_bytes`]). The subscription
/// layer never encodes anything itself — it only provides the shared
/// cell, so the wire format stays a `net`-layer concern.
///
/// A cache is only ever shared between events carrying the *same*
/// subscription name, delta, and `lagged` flag: outbox squashing
/// replaces the survivor's cache with a fresh empty one, so a composed
/// (`lagged`) event re-encodes per connection — the rare slow-consumer
/// path.
#[derive(Clone, Default)]
pub struct FrameCache(Arc<OnceLock<Arc<[u8]>>>);

impl FrameCache {
    /// The published frame bytes, if any connection has encoded this
    /// event yet.
    pub fn get(&self) -> Option<Arc<[u8]>> {
        self.0.get().cloned()
    }

    /// Publishes the encoded frame bytes. First writer wins; a racing
    /// second encode is dropped (both encodes are bit-identical by the
    /// sharing contract above, so either is valid).
    pub fn prime(&self, bytes: Arc<[u8]>) {
        let _ = self.0.set(bytes);
    }
}

impl fmt::Debug for FrameCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.get() {
            Some(bytes) => write!(f, "FrameCache({} bytes)", bytes.len()),
            None => write!(f, "FrameCache(unencoded)"),
        }
    }
}

/// One pushed change-feed entry: the subscription it belongs to, the
/// epoch-tagged delta, and whether backpressure squashed older entries
/// into it (`lagged` — the consumer should resync from a full answer if
/// it cares about per-epoch granularity; folding stays exact either
/// way).
#[derive(Debug, Clone)]
pub struct FeedEvent {
    /// The subscription name.
    pub subscription: String,
    /// The (possibly squashed) answer delta.
    pub delta: SubDelta,
    /// `true` when this delta is the composition of entries an
    /// overflowing outbox squashed together.
    pub lagged: bool,
    /// The encode-once cell shared by every outbox this event was
    /// fanned out to (fresh and private after a squash).
    pub cache: FrameCache,
    /// [`crate::telemetry::now_ns`] at enqueue time (0 when metrics are
    /// off) — the drain side subtracts it to sample `push_drain_lag_ns`.
    /// A squash keeps the *older* timestamp, so the lag of a composed
    /// event reflects how long its oldest constituent waited.
    pub enqueued_ns: u64,
}

impl PartialEq for FeedEvent {
    /// The wire-byte cache is delivery state, not event identity.
    fn eq(&self, other: &Self) -> bool {
        self.subscription == other.subscription
            && self.delta == other.delta
            && self.lagged == other.lagged
    }
}

/// A bounded outbox for pushed [`FeedEvent`]s — the per-connection
/// backpressure buffer between subscription maintenance (the producer,
/// running on whichever thread committed the mutation) and a delivery
/// thread (the consumer, e.g. a [`crate::net::NetServer`] connection
/// pusher).
///
/// Overflow follows the squash-oldest contract documented at
/// [`crate::store::ModStore::set_feed_bound`]: the oldest two events of
/// the same subscription are composed via [`SubDelta::then`] and the
/// survivor is flagged `lagged`. Events are never dropped, so folding a
/// sink's stream remains bit-exact; if every queued event belongs to a
/// distinct subscription, the queue grows past the bound instead (a
/// sink serving `S` subscriptions needs a capacity ≥ `S` to stay
/// bounded).
///
/// A consumer can either block on [`DeltaSink::recv`] (its own delivery
/// thread) or register a [`DeltaSink::set_wake_hook`] and drain with
/// [`DeltaSink::try_recv`] — the event-loop pattern the multiplexed
/// [`crate::net::NetServer`] uses.
pub struct DeltaSink {
    state: Mutex<SinkState>,
    cv: Condvar,
    capacity: usize,
    /// Invoked (outside the queue lock) after every enqueue — the
    /// readiness-loop nudge for consumers that poll instead of block.
    wake_hook: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl fmt::Debug for DeltaSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock().unwrap();
        f.debug_struct("DeltaSink")
            .field("queued", &st.queue.len())
            .field("closed", &st.closed)
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[derive(Debug, Default)]
struct SinkState {
    queue: VecDeque<FeedEvent>,
    closed: bool,
}

impl DeltaSink {
    /// A sink retaining at most `capacity` undrained events before
    /// squashing (minimum 1).
    pub fn bounded(capacity: usize) -> DeltaSink {
        DeltaSink {
            state: Mutex::new(SinkState::default()),
            cv: Condvar::new(),
            capacity: capacity.max(1),
            wake_hook: Mutex::new(None),
        }
    }

    /// Registers (or clears) a callback invoked after every enqueue,
    /// outside the queue lock. An event-loop consumer points this at its
    /// waker so a maintenance thread's push interrupts the loop's
    /// `poll`; the hook must be cheap and must not call back into the
    /// sink.
    pub fn set_wake_hook(&self, hook: Option<Arc<dyn Fn() + Send + Sync>>) {
        *self.wake_hook.lock().unwrap() = hook;
    }

    /// Enqueues one event, squashing the oldest same-subscription pair
    /// on overflow. No-op after [`DeltaSink::close`].
    fn push(&self, subscription: &str, delta: &SubDelta, cache: &FrameCache) {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return;
        }
        if st.queue.len() >= self.capacity {
            Self::squash_oldest(&mut st.queue);
        }
        st.queue.push_back(FeedEvent {
            subscription: subscription.to_string(),
            delta: delta.clone(),
            lagged: false,
            cache: cache.clone(),
            enqueued_ns: if telemetry::metrics_on() {
                telemetry::now_ns()
            } else {
                0
            },
        });
        drop(st);
        self.cv.notify_one();
        let hook = self.wake_hook.lock().unwrap().clone();
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Composes the first two events sharing a subscription (events of
    /// one subscription are consecutive in its stream even when
    /// interleaved with other subscriptions' events, so `then` applies).
    /// The survivor's encode-once cache is replaced with a fresh private
    /// cell: the composed delta exists only in this outbox, so its frame
    /// must not alias the broadcast bytes.
    fn squash_oldest(queue: &mut VecDeque<FeedEvent>) {
        for i in 0..queue.len() {
            let name = queue[i].subscription.clone();
            if let Some(j) = (i + 1..queue.len()).find(|&j| queue[j].subscription == name) {
                let newer = queue.remove(j).expect("index in range");
                let older = &mut queue[i];
                older.delta = older.delta.then(&newer.delta);
                older.lagged = true;
                older.cache = FrameCache::default();
                return;
            }
        }
        // Every queued event belongs to a distinct subscription: nothing
        // can be squashed soundly; the queue grows past the bound.
    }

    /// Blocks until an event is available or the sink is closed *and*
    /// drained (`None`).
    pub fn recv(&self) -> Option<FeedEvent> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(ev) = st.queue.pop_front() {
                return Some(ev);
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Pops the next event without blocking.
    pub fn try_recv(&self) -> Option<FeedEvent> {
        self.state.lock().unwrap().queue.pop_front()
    }

    /// Closes the sink: producers stop enqueueing, consumers drain what
    /// remains and then see `None`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    /// `true` once closed.
    pub fn is_closed(&self) -> bool {
        self.state.lock().unwrap().closed
    }

    /// Undrained events.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }

    /// `true` when no event is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which maintenance ladder a subscription runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SubKind {
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
struct ShareKey {
    oid: Oid,
    /// The window endpoints as `f64` bit patterns (`Eq`/`Hash` over the
    /// exact registered values).
    window: (u64, u64),
    kind: SubKind,
    policy: PrefilterPolicy,
    samples: u32,
}

/// One subscriber's view of a shared computation: its private pull feed
/// and push outboxes. The maintained answer lives on the share; slots
/// receive per-delta broadcasts.
#[derive(Debug)]
struct SubscriberSlot {
    name: String,
    feed: Vec<SubDelta>,
    /// Push outboxes attached to this subscription (e.g. network
    /// connections); pruned when the consumer drops its `Arc`.
    sinks: Vec<Weak<DeltaSink>>,
}

impl SubscriberSlot {
    /// Delivers one emitted delta: one encode-once [`FrameCache`] is
    /// created per (slot, delta) and shared by every attached sink —
    /// the pushed frame embeds the subscription name, so connections
    /// watching the same name broadcast identical bytes.
    fn deliver(&mut self, delta: &SubDelta, capacity: usize) {
        let cache = FrameCache::default();
        self.sinks.retain(|w| match w.upgrade() {
            Some(sink) => {
                sink.push(&self.name, delta, &cache);
                true
            }
            None => false,
        });
        self.feed.push(delta.clone());
        // Converge to the bound even when it was lowered mid-flight
        // (`store feed-bound <n>`): squash oldest pairs until within it.
        while self.feed.len() > capacity && self.feed.len() >= 2 {
            let second = self.feed.remove(1);
            self.feed[0] = self.feed[0].then(&second);
        }
    }
}

/// One shared maintained computation plus its subscriber slots. The
/// registry's `shares` map owns one of these per distinct [`ShareKey`];
/// every [`SubState`] holds an `Arc` to its share.
#[derive(Debug)]
struct SharedSub {
    /// Registry-unique id (never reused) — the share's key in the
    /// [`SubscriptionIndex`].
    id: u64,
    key: ShareKey,
    core: Mutex<ShareCore>,
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

/// The maintained state of one shared computation — the engine, carry
/// proofs, answer, stats, and the subscriber slots the answer's deltas
/// broadcast to. Guarded by the share's mutex; maintenance of one share
/// serializes on it, so concurrent commits apply their updates in
/// commit order.
#[derive(Debug)]
struct ShareCore {
    oid: Oid,
    window: TimeInterval,
    kind: SubKind,
    policy: PrefilterPolicy,
    /// Probe count of this share's rows (fixed at registration; part of
    /// the row-set shape).
    samples: u32,
    last_epoch: u64,
    /// The forward engine the current answer was computed with — the
    /// carried preprocessing the skip/patch paths reuse. `None` while
    /// parked on an evaluation error (and always for reverse kinds).
    engine: Option<Arc<QueryEngine>>,
    /// The reverse engine (perspective envelopes) of a
    /// [`SubKind::ReverseRows`] subscription.
    rev: Option<Arc<ReverseNnEngine>>,
    /// The query trajectory's content as of `last_epoch` (any op touching
    /// it forces a rebuild, so between rebuilds this equals the live
    /// content). Cached so the skip path needs no snapshot at all.
    query_tr: Option<Trajectory>,
    /// The skip-proof bounds derived from `engine` — cached so a burst
    /// of far commits pays one derivation, invalidated whenever the
    /// engine is replaced.
    proof: Option<ForwardProof>,
    /// Per-perspective proof bounds of a reverse subscription, keyed by
    /// perspective object; an entry is dropped whenever its perspective
    /// engine is replaced (and lazily re-derived from the then-current
    /// snapshot, sound because only provably untouched perspectives are
    /// ever proven against).
    rev_proofs: HashMap<Oid, ForwardProof>,
    /// The column kernel of the MOD's shared location model, by kind
    /// (row subscriptions only). Kept across commits, so from a probe
    /// column's second evaluation on it remembers that column's
    /// quadrature blocks and re-integrates only the pairs whose inputs
    /// changed — under a carried envelope and after a rebuild alike
    /// (`unn_core::kernel`, "Memo"; at most one evaluation per probe).
    /// Rebuilt over the store-wide cached profile when the MOD's
    /// registered pdf kind changes, which forces every column dirty
    /// anyway since it requires replacing the objects.
    kernel: Option<(PdfKind, ColumnKernel)>,
    answer: SubAnswer,
    /// The subscriber views this share's deltas broadcast to (one per
    /// registered name on this key).
    slots: Vec<SubscriberSlot>,
    error: Option<String>,
    /// Maintenance counters of the *share* — the work one maintenance
    /// round does regardless of how many subscribers ride it.
    stats: SubscriptionStats,
    /// The *completed*-round watermark this share is reconciled with:
    /// completed rounds in `(rounds_absorbed, completed]` did not visit
    /// the share (the index pruned them), and materialize as
    /// `skipped_unvisited` lazily — folded into `stats` at the next
    /// visit, and added on top at every info read. A round that visits
    /// this share absorbs its own number here at *finish* time, under
    /// the registry's finish lock and before the round counter
    /// advances — so a reader that observes the counter covering a
    /// round also observes the round absorbed, and a visit is never
    /// re-counted as a prune. That ordering is what makes
    /// `visited + skipped_unvisited <= commits` hold at every instant.
    /// Keeping the unvisited path write-free is the whole point of the
    /// index.
    rounds_absorbed: u64,
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
        let mut stats = core.stats;
        stats.skipped_unvisited += rounds.saturating_sub(core.rounds_absorbed);
        SubscriptionInfo {
            name: self.name.clone(),
            statement: self.query.to_string(),
            last_epoch: core.last_epoch,
            entries: core.answer.len(),
            pending_deltas: core
                .slot(&self.name)
                .map(|s| s.feed.len())
                .unwrap_or_default(),
            error: core.error.clone(),
            stats,
        }
    }
}

impl ShareCore {
    /// A freshly registered, not-yet-evaluated core with the empty
    /// answer of its representation.
    fn new(key: &ShareKey) -> ShareCore {
        let window = TimeInterval::new(f64::from_bits(key.window.0), f64::from_bits(key.window.1));
        ShareCore {
            oid: key.oid,
            window,
            kind: key.kind,
            policy: key.policy,
            samples: key.samples,
            last_epoch: 0,
            engine: None,
            rev: None,
            query_tr: None,
            proof: None,
            rev_proofs: HashMap::new(),
            kernel: None,
            answer: empty_answer_of(key.kind, key.oid, window, key.samples),
            slots: Vec::new(),
            error: None,
            stats: SubscriptionStats::default(),
            rounds_absorbed: 0,
        }
    }

    /// The named subscriber's slot.
    fn slot(&self, name: &str) -> Option<&SubscriberSlot> {
        self.slots.iter().find(|s| s.name == name)
    }

    /// The named subscriber's slot, mutably.
    fn slot_mut(&mut self, name: &str) -> Option<&mut SubscriberSlot> {
        self.slots.iter_mut().find(|s| s.name == name)
    }

    /// The empty answer of this share's representation.
    fn empty_answer(&self) -> SubAnswer {
        empty_answer_of(self.kind, self.oid, self.window, self.samples)
    }

    /// Broadcasts an emitted delta to every subscriber slot: each slot
    /// appends it to its pull feed (squashing the oldest pair past
    /// `capacity`) and forwards it to its live push sinks under one
    /// per-slot encode-once cache.
    fn push_feed(&mut self, delta: SubDelta, capacity: usize) {
        for slot in &mut self.slots {
            slot.deliver(&delta, capacity);
        }
    }

    /// Installs a freshly evaluated answer, emitting its delta. The
    /// carried preprocessing (`engine` / `rev` / `query_tr` / proofs) is
    /// assigned by the caller beforehand.
    fn commit_answer(&mut self, answer: SubAnswer, epoch: u64, feed_capacity: usize) {
        let delta = self.answer.diff_to(&answer, epoch);
        if !delta.is_empty() {
            self.push_feed(delta, feed_capacity);
        }
        self.answer = answer;
        self.error = None;
        self.last_epoch = epoch;
    }

    /// Parks the subscription on an evaluation error: the answer empties
    /// (emitting the removals) until a later epoch evaluates again.
    fn park(&mut self, epoch: u64, message: String, feed_capacity: usize) {
        let empty = self.empty_answer();
        let delta = self.answer.diff_to(&empty, epoch);
        if !delta.is_empty() {
            self.push_feed(delta, feed_capacity);
        }
        self.answer = empty;
        self.engine = None;
        self.rev = None;
        self.query_tr = None;
        self.proof = None;
        self.rev_proofs.clear();
        self.error = Some(message);
        self.last_epoch = epoch;
    }

    /// The probability kernel row maintenance evaluates its probe
    /// columns with: the profiled difference pdf of the MOD's shared
    /// location model, served from the store-wide cache
    /// ([`ModStore::difference_model`], shared with the one-shot sweeps)
    /// and kept here by kind so a maintenance round holding a shard lock
    /// does not touch the shared cache mutex while the registered kind is
    /// unchanged. The result is a handle on the kept kernel: it shares
    /// the memo.
    fn row_kernel(
        &mut self,
        store: &ModStore,
        snapshot: &QuerySnapshot,
    ) -> Result<ColumnKernel, String> {
        let kind = common_pdf_kind(snapshot)
            .map_err(|_| "trajectories have differing location pdfs".to_string())?
            .ok_or_else(|| "the MOD needs at least two trajectories".to_string())?;
        if !matches!(&self.kernel, Some((cached, _)) if *cached == kind) {
            let profile = store.difference_model(&kind).profile;
            self.kernel = Some((kind, ColumnKernel::from_profile(profile)));
        }
        let (_, kernel) = self.kernel.as_ref().expect("memoized above");
        Ok(kernel.clone())
    }
}

/// The logged delta one ladder pass absorbs: the records in
/// `(base, now]` and the set of ids they touch.
struct LoggedDelta {
    ops: Vec<DeltaRecord>,
    changed: BTreeSet<Oid>,
}

/// One round's view of the delta log: entry `b` holds the ops in
/// `(b, now]`, fetched once for every share sitting at watermark `b`.
/// `None` when the log is truncated past `b` (only a rebuild is sound).
type SharedOps = BTreeMap<u64, Option<Arc<LoggedDelta>>>;

/// One share's published guard in the [`SubscriptionIndex`].
#[derive(Debug)]
struct GuardEntry {
    share: Weak<SharedSub>,
    /// `core.last_epoch` at publication — every op at or before it is
    /// absorbed by the share's answer, so only newer publications may
    /// replace the entry (concurrent rounds race benignly).
    valid_through: u64,
    /// The insertion guard: [`ForwardProof::guard_box`], installed in
    /// the grid. `None` while the share is always-visit (reverse kinds,
    /// parked shares, no derivable proof).
    gbox: Option<Aabb3>,
    /// The removal guard: [`ForwardProof::guarded_oids`], linked into
    /// the inverted oid map. Empty while always-visit.
    oids: Vec<Oid>,
}

/// A share's staged guard-box edits since the grid was last patched:
/// the box that sat in the grid when the first edit of the cycle
/// landed, and the box after the latest one. Canonicalizing per share
/// keeps [`GridIndex::apply_delta`]'s removed/inserted sets exact no
/// matter how many times a guard republished between lookups.
#[derive(Debug, Clone, Copy)]
struct PendingBoxes {
    old: Option<Aabb3>,
    new: Option<Aabb3>,
}

/// The publication-style index over the registered shares — the
/// subscription side of the paper's spatio-temporal filter, inverted.
/// Each share's [`ForwardProof`] publishes a guard here: the query
/// corridor box inflated by the envelope-max reach (spatial insertion
/// guard, kept in a [`GridIndex`] keyed by share id) and the
/// candidate/query ids (removal guard, kept in an inverted oid map).
/// A maintenance round then looks up only the shares a commit's ops
/// can possibly affect — an op hitting neither a guard box nor a
/// guarded id satisfies the respective [`ForwardProof`] obligation for
/// every unlisted share, so those shares are skipped *without being
/// touched*: no lock, no proof check, `O(affected)` instead of
/// `O(registered)`.
///
/// Guarded by one mutex, last in the registry's lock hierarchy (a core
/// lock may be held while taking it, never the reverse).
#[derive(Debug, Default)]
struct SubscriptionIndex {
    entries: HashMap<u64, GuardEntry>,
    /// Shares visited on every round: reverse kinds (every op adds,
    /// drops, or touches a perspective), parked shares, and shares
    /// whose proof is not derivable. Kept as a set so a lookup is
    /// `O(always + hits)`, not `O(entries)`.
    always: BTreeSet<u64>,
    /// Inverted removal guard: object id → shares whose proof cannot
    /// clear a mutation of that object.
    by_oid: HashMap<Oid, BTreeSet<u64>>,
    /// The spatial grid over the installed guard boxes, patched (or
    /// rebuilt, after bulk churn) lazily at lookup time from `pending`.
    grid: Option<GridIndex>,
    pending: HashMap<u64, PendingBoxes>,
    /// Every logged op at or before this epoch is accounted for: either
    /// absorbed by its share (`valid_through` covers it) or proven safe
    /// against the share's guard when a round's visit set was decided.
    checked_through: u64,
}

impl SubscriptionIndex {
    /// Registers a share as always-visit; its first
    /// [`SubscriptionIndex::set_guard`] publication refines it.
    fn insert(&mut self, id: u64, share: Weak<SharedSub>) {
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
    fn set_guard(&mut self, id: u64, guard: Option<(Aabb3, Vec<Oid>)>, valid_through: u64) {
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
        for oid in &old_oids {
            if let Some(set) = self.by_oid.get_mut(oid) {
                set.remove(&id);
                if set.is_empty() {
                    self.by_oid.remove(oid);
                }
            }
        }
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
        let staged = self.pending.entry(id).or_insert(PendingBoxes {
            old: old_box,
            new: None,
        });
        staged.new = new_box;
    }

    /// Drops an unregistered share's entry and staged grid removal.
    fn remove(&mut self, id: u64) {
        let Some(entry) = self.entries.remove(&id) else {
            return;
        };
        for oid in &entry.oids {
            if let Some(set) = self.by_oid.get_mut(oid) {
                set.remove(&id);
                if set.is_empty() {
                    self.by_oid.remove(oid);
                }
            }
        }
        self.always.remove(&id);
        let staged = self.pending.entry(id).or_insert(PendingBoxes {
            old: entry.gbox,
            new: None,
        });
        staged.new = None;
    }

    /// Brings the grid up to date with the staged guard edits: one
    /// [`GridIndex::apply_delta`] batch normally, a full rebuild after
    /// bulk churn (registration bursts, extent drift) or on first use.
    fn flush_grid(&mut self) {
        let patchable = match &self.grid {
            Some(g) => self.pending.len() <= g.entry_count() / 4 + 16,
            None => false,
        };
        if patchable {
            let mut inserts: Vec<(Aabb3, Oid)> = Vec::new();
            let mut removed: HashSet<Oid> = HashSet::new();
            let mut removed_boxes: Vec<(Aabb3, Oid)> = Vec::new();
            for (&id, staged) in &self.pending {
                if let Some(b) = staged.old {
                    removed.insert(Oid(id));
                    removed_boxes.push((b, Oid(id)));
                }
                if let Some(b) = staged.new {
                    inserts.push((b, Oid(id)));
                }
            }
            if !inserts.is_empty() || !removed.is_empty() {
                let g = self.grid.as_ref().expect("patchable implies a grid");
                self.grid = Some(g.apply_delta(&inserts, &removed, &removed_boxes));
            }
        } else {
            let items: Vec<(Aabb3, Oid)> = self
                .entries
                .iter()
                .filter_map(|(&id, e)| e.gbox.map(|b| (b, Oid(id))))
                .collect();
            let target = items.len().max(16);
            self.grid = Some(GridIndex::build(items, target));
        }
        self.pending.clear();
    }

    /// The ids of every share `ops` can possibly affect: spatial grid
    /// hits of the inserted trajectories' (flattened) boxes, inverted
    /// oid-map hits of every touched id, plus the always-visit set.
    /// Everything else is provably safe under its published guard.
    fn lookup(&mut self, ops: &[DeltaRecord]) -> BTreeSet<u64> {
        self.flush_grid();
        let grid = self.grid.as_ref().expect("flushed");
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
                    hits.extend(grid.query_bbox(&flat).into_iter().map(|oid| oid.0));
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
    fn resolve(&self, ids: BTreeSet<u64>) -> Vec<(u64, Arc<SharedSub>)> {
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
    fn all_shares(&self) -> Vec<(u64, Arc<SharedSub>)> {
        self.entries
            .iter()
            .filter_map(|(&id, e)| e.share.upgrade().map(|share| (id, share)))
            .collect()
    }
}

/// The registry of standing queries attached to a store. Names live in
/// name-hashed shards (cheap lookup/registration); the maintained
/// computations live in the `shares` map, deduplicated by `ShareKey`
/// — `sync` runs **one maintenance round per share**, however many
/// subscriptions ride it. All methods are thread-safe; maintenance of
/// one share serializes on its core mutex, so concurrent mutations
/// apply their updates in commit order.
///
/// Lock hierarchy (acquire left to right, release in any order): name
/// shard → `shares` map → share core → subscription index. `sync`
/// touches only the last three, so registration bursts on one shard
/// never stall maintenance.
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
    shards: Vec<Mutex<BTreeMap<String, SubState>>>,
    /// The deduplicated maintained computations, keyed by share
    /// identity. A share is inserted by the first registration on its
    /// key and removed when its last subscriber unregisters.
    shares: Mutex<HashMap<ShareKey, Arc<SharedSub>>>,
    row_samples: std::sync::atomic::AtomicU32,
    /// The publication-style guard index the sharded sync prunes its
    /// visit set with (see [`SubscriptionIndex`]).
    index: Mutex<SubscriptionIndex>,
    /// Indexed maintenance rounds **completed** so far — the clock
    /// `skipped_unvisited` reconciles against (see
    /// [`ShareCore::rounds_absorbed`]). Advanced only in
    /// [`Self::finish_round`], under [`Self::round_finish`].
    sync_rounds: AtomicU64,
    /// Serializes round completion: a finishing round must assign its
    /// round number and absorb it into every share it visited as one
    /// atomic step, or a concurrent finisher could steal the number and
    /// the stolen slot would later be mis-counted as a pruned round
    /// (an observable `visited + skipped_unvisited > commits`).
    /// Lock order: `round_finish` → `core`; never taken with a core
    /// lock held.
    round_finish: Mutex<()>,
    /// Share-id mint ([`SharedSub::id`]); ids are never reused.
    next_share_id: AtomicU64,
}

impl Default for SubscriptionRegistry {
    fn default() -> Self {
        SubscriptionRegistry {
            shards: (0..REGISTRY_SHARDS).map(|_| Mutex::default()).collect(),
            shares: Mutex::new(HashMap::new()),
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

    /// FNV-1a over the name, folded onto the shard count.
    fn shard_of(&self, name: &str) -> &Mutex<BTreeMap<String, SubState>> {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().unwrap().is_empty())
    }

    /// Number of distinct maintained computations (shares):
    /// `share_count() < len()` whenever subscriptions coalesced onto one
    /// engine.
    pub fn share_count(&self) -> usize {
        self.shares.lock().unwrap().len()
    }

    /// The row shares' kept column kernels (`unn_core::kernel`, "Memo"),
    /// one handle per live share that has one, for reading their memo
    /// size and block counts. Taken on demand under each share's lock.
    pub fn row_kernels(&self) -> Vec<ColumnKernel> {
        let shares: Vec<Arc<SharedSub>> = self.shares.lock().unwrap().values().cloned().collect();
        shares
            .iter()
            .filter_map(|s| {
                let core = s.core.lock().unwrap();
                core.kernel.as_ref().map(|(_, k)| k.clone())
            })
            .collect()
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
        for shard in &self.shards {
            for candidate in shard.lock().unwrap().keys() {
                if candidate == name {
                    continue;
                }
                let d = levenshtein(name, candidate);
                if d <= budget && best.as_ref().map(|(bd, _)| d < *bd).unwrap_or(true) {
                    best = Some((d, candidate.clone()));
                }
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
    /// in which a delta reaches only the pull feed.)
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
            if self.shard_of(name).lock().unwrap().contains_key(name) {
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
                Self::evaluate_into(&mut core, store, &snapshot, usize::MAX)
                    .map_err(SubscriptionError::Evaluation)?;
                Some(core)
            };
            let mut map = self.shard_of(name).lock().unwrap();
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
            // share may be mid-burst, or the store mid-batch under a
            // maintenance window): catch up under the lock (a no-op
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
            Self::refresh(&mut core, store, &mut lazy, store.feed_bound());
            self.publish_guard(share.id, &mut core, store, &mut lazy, store.feed_bound());
            core.stats = saved;
            let rounds = self.sync_rounds.load(Ordering::Acquire);
            core.stats.skipped_unvisited += rounds.saturating_sub(core.rounds_absorbed);
            core.rounds_absorbed = core.rounds_absorbed.max(rounds);
            if let Some(message) = core.error.clone() {
                if core.slots.is_empty() {
                    // A share no subscriber rides must not linger.
                    drop(core);
                    shares.remove(&key);
                    self.index.lock().unwrap().remove(share.id);
                }
                return Err(SubscriptionError::Evaluation(message));
            }
            if fresh {
                // The bootstrap evaluation/catch-up is the base answer,
                // not maintenance work the share's riders observed.
                core.stats = SubscriptionStats::default();
            }
            // The initial answer is the subscriber's base, not a
            // change: the slot starts with an empty feed, and the sink
            // attaches under the core lock, so the first pushed delta
            // is the first answer change after the returned epoch.
            core.slots.push(SubscriberSlot {
                name: name.to_string(),
                feed: Vec::new(),
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
        let mut map = self.shard_of(name).lock().unwrap();
        let Some(sub) = map.remove(name) else {
            return false;
        };
        let mut shares = self.shares.lock().unwrap();
        let mut core = sub.share.core.lock().unwrap();
        core.slots.retain(|s| s.name != name);
        let orphaned = core.slots.is_empty();
        drop(core);
        if orphaned {
            shares.remove(&sub.share.key);
            self.index.lock().unwrap().remove(sub.share.id);
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
        let mut out: Vec<SubscriptionInfo> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .unwrap()
                    .values()
                    .map(|sub| sub.info(rounds))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// The named subscription's state.
    pub fn info(&self, name: &str) -> Option<SubscriptionInfo> {
        let rounds = self.sync_rounds.load(Ordering::Acquire);
        self.shard_of(name)
            .lock()
            .unwrap()
            .get(name)
            .map(|sub| sub.info(rounds))
    }

    /// The named subscription's current answer.
    pub fn answer(&self, name: &str) -> Option<SubAnswer> {
        self.shard_of(name)
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
        self.shard_of(name).lock().unwrap().get(name).map(|s| {
            let core = s.share.core.lock().unwrap();
            (core.answer.clone(), core.last_epoch)
        })
    }

    /// The named subscription's current answer rendered through its own
    /// quantifier/target, like a one-shot execution of the statement.
    /// Subscriptions sharing one maintained answer render through their
    /// own statements here — the per-quantifier views of one engine.
    pub fn output(&self, name: &str) -> Option<QueryOutput> {
        self.shard_of(name).lock().unwrap().get(name).map(|s| {
            let core = s.share.core.lock().unwrap();
            match &core.answer {
                SubAnswer::Intervals(a) => render_output(&s.query, a),
                SubAnswer::Rows(r) => render_row_output(&s.query, r),
            }
        })
    }

    /// Drains the named subscription's change feed: every undrained
    /// [`SubDelta`] in epoch order. `None` for unknown names.
    pub fn drain(&self, name: &str) -> Option<Vec<SubDelta>> {
        self.shard_of(name).lock().unwrap().get(name).map(|s| {
            let mut core = s.share.core.lock().unwrap();
            core.slot_mut(name)
                .map(|slot| std::mem::take(&mut slot.feed))
                .unwrap_or_default()
        })
    }

    /// Attaches a push outbox to the named subscription: every future
    /// answer delta is forwarded into `sink` in addition to the pull
    /// feed. The registry holds only a weak reference — dropping the
    /// consumer's `Arc` detaches it. `false` for unknown names.
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
            let map = self.shard_of(name).lock().unwrap();
            map.get(name).map(|sub| {
                let mut core = sub.share.core.lock().unwrap();
                core.slot_mut(name)
                    .expect("every registered name has a slot")
                    .sinks
                    .push(Arc::downgrade(sink));
                sub.info_from(&core, self.sync_rounds.load(Ordering::Acquire))
            })
        };
        // The unknown-name hint scans every shard; build it only after
        // releasing the looked-up shard's lock.
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
    pub fn sync(&self, store: &ModStore) {
        let feed_cap = store.feed_bound();
        let now = store.epoch();
        let round_started =
            (telemetry::metrics_on() || telemetry::trace_on()).then(std::time::Instant::now);
        // Decide the visit set atomically under the index lock: the ops
        // since the last accounted epoch either hit a published guard
        // (visit) or are proven safe for every other share right here.
        // `checked_through` advances in the same critical section, so a
        // concurrent round and a concurrent guard publication always
        // observe each other (see `publish_guard`).
        let (visit, registered) = {
            let mut idx = self.index.lock().unwrap();
            if idx.entries.is_empty() {
                return;
            }
            let logged = store.ops_since_cloned(idx.checked_through);
            idx.checked_through = idx.checked_through.max(now);
            let visit = match logged {
                Some(ops) => {
                    let ops: Vec<DeltaRecord> =
                        ops.into_iter().filter(|r| r.epoch <= now).collect();
                    if ops.is_empty() {
                        return;
                    }
                    let hits = idx.lookup(&ops);
                    idx.resolve(hits)
                }
                // Truncated history: the log cannot prove what happened
                // since — every share reconciles (and rebuilds where its
                // own watermark is also past the log's tail).
                None => idx.all_shares(),
            };
            (visit, idx.entries.len())
        };
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
        let mut heavy: Vec<(u64, Arc<SharedSub>, Option<SubscriptionStats>)> = Vec::new();
        for (id, share) in &visit {
            let mut core = share.core.lock().unwrap();
            let before = stats_on.then(|| core.stats);
            // Fold the completed rounds the index pruned between
            // visits. Completed rounds that visited this share already
            // absorbed themselves, so the gap is exactly the prunes.
            core.stats.skipped_unvisited += completed.saturating_sub(core.rounds_absorbed);
            core.rounds_absorbed = core.rounds_absorbed.max(completed);
            if Self::settle(&mut core, store, now, &mut shared) {
                self.publish_guard(*id, &mut core, store, &mut None, feed_cap);
                if let Some(before) = before {
                    Self::record_visit(store, *id, now, &before, &core.stats);
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
        let climb_share = |entry: &(u64, Arc<SharedSub>, Option<SubscriptionStats>)| {
            let (id, share, before) = entry;
            let mut lazy = Some(Arc::clone(&snapshot));
            let mut core = share.core.lock().unwrap();
            match shared.get(&core.last_epoch) {
                Some(delta) if store.epoch() == now => {
                    let delta = delta.as_deref();
                    Self::climb(&mut core, store, &mut lazy, now, delta, feed_cap);
                }
                // Commits raced past `now`, or a concurrent round moved
                // the share off every watermark this round fetched,
                // since the cheap pass let go of the core: start over.
                _ => Self::refresh(&mut core, store, &mut lazy, feed_cap),
            }
            self.publish_guard(*id, &mut core, store, &mut lazy, feed_cap);
            if let Some(before) = before {
                Self::record_visit(store, *id, now, before, &core.stats);
            }
        };
        let cores = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
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
    /// every visited share's watermark already covering it (the core
    /// mutex hands over the latest write), so a round this share
    /// visited is never re-counted as pruned; a reader that doesn't
    /// see the counter yet doesn't count the round at all.
    fn finish_round(
        &self,
        store: &ModStore,
        started: Option<std::time::Instant>,
        visited: &[(u64, Arc<SharedSub>)],
        registered: usize,
        epoch: u64,
    ) {
        {
            let _finish = self.round_finish.lock().unwrap();
            let finished = self.sync_rounds.load(Ordering::Relaxed) + 1;
            for (_, share) in visited {
                let mut core = share.core.lock().unwrap();
                core.rounds_absorbed = core.rounds_absorbed.max(finished);
            }
            self.sync_rounds.store(finished, Ordering::Release);
        }
        let visited_shares = visited.len() as u64;
        if let Some(t0) = started {
            let t = store.telemetry();
            let dur_ns = t0.elapsed().as_nanos() as u64;
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

    /// Folds one visited share's stats movement into the telemetry
    /// registry: per-ladder-rung counters and (when tracing) a visit event naming the share and its ladder
    /// decision.
    fn record_visit(
        store: &ModStore,
        share: u64,
        epoch: u64,
        before: &SubscriptionStats,
        after: &SubscriptionStats,
    ) {
        let t = store.telemetry();
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
    /// plus its guarded object ids.
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
        Some((proof.guard_box(), proof.guarded_oids().collect()))
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
        feed_cap: usize,
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
            Self::refresh(core, store, lazy, feed_cap);
            core.stats = saved;
        }
    }

    /// The opening of the ladder, the one place that fetches and
    /// classifies a share's logged delta (into `shared`, so shares at
    /// one watermark do it once): `true` when the share is settled
    /// without a snapshot — already current, nothing logged, or the
    /// cached proof skipped the whole burst. On `false` the share is
    /// untouched and [`Self::climb`] takes the delta from `shared`: a
    /// visit is only counted by the call that absorbs the delta.
    fn settle(sub: &mut ShareCore, store: &ModStore, now: u64, shared: &mut SharedOps) -> bool {
        if now <= sub.last_epoch {
            return true;
        }
        let logged = shared.entry(sub.last_epoch).or_insert_with(|| {
            store.ops_since_cloned(sub.last_epoch).map(|ops| {
                let ops: Vec<DeltaRecord> = ops.into_iter().filter(|r| r.epoch <= now).collect();
                let changed = changed_ids(&ops);
                Arc::new(LoggedDelta { ops, changed })
            })
        });
        let Some(delta) = logged.clone() else {
            return false;
        };
        if delta.ops.is_empty() {
            sub.last_epoch = now;
            return true;
        }
        // Reverse kinds have no whole-subscription skip: every op adds,
        // drops, or touches a perspective, so they only carry per
        // perspective, in `patch_reverse`.
        if sub.kind == SubKind::ReverseRows || !skip_proven(sub, &delta, now) {
            return false;
        }
        // Every op is provably outside the engine's reach: the answer is
        // already current.
        sub.stats.visited += 1;
        sub.stats.batched_commits += epochs_spanned(&delta.ops).saturating_sub(1);
        true
    }

    /// Routes the delta since `sub.last_epoch` through the whole skip →
    /// patch → rebuild ladder at the store's current epoch.
    fn refresh(
        sub: &mut ShareCore,
        store: &ModStore,
        lazy: &mut Option<Arc<QuerySnapshot>>,
        feed_cap: usize,
    ) {
        let now = store.epoch();
        let mut fetched = SharedOps::new();
        if !Self::settle(sub, store, now, &mut fetched) {
            let delta = fetched.get(&sub.last_epoch).and_then(Option::as_deref);
            Self::climb(sub, store, lazy, now, delta, feed_cap);
        }
    }

    /// The heavy rungs, for a delta [`Self::settle`] could not settle:
    /// patch against it when the carried engine allows, rebuild
    /// otherwise. Either way `(sub.last_epoch, now]` is absorbed and the
    /// visit counted.
    fn climb(
        sub: &mut ShareCore,
        store: &ModStore,
        lazy: &mut Option<Arc<QuerySnapshot>>,
        now: u64,
        delta: Option<&LoggedDelta>,
        feed_cap: usize,
    ) {
        sub.stats.visited += 1;
        // Both rungs need the consistent snapshot view.
        let snapshot = Self::materialize(lazy, store);
        match delta {
            Some(delta) => {
                sub.stats.batched_commits += epochs_spanned(&delta.ops).saturating_sub(1);
                if snapshot.epoch() == now && !delta.changed.contains(&sub.oid) {
                    if sub.kind != SubKind::ReverseRows {
                        if sub.engine.is_some() {
                            return Self::patch(sub, store, &snapshot, now, delta, feed_cap);
                        }
                    } else if sub.rev.is_some() && snapshot.len() >= 2 {
                        return Self::patch_reverse(sub, store, &snapshot, now, delta, feed_cap);
                    }
                }
                // The query object itself changed, there is no engine to
                // reuse, or commits raced past `now` while we looked —
                // re-evaluate wholesale at the snapshot's epoch.
            }
            // Truncation: the log can no longer prove what happened
            // since the answer was computed — patching would silently
            // miss the evicted mutations. Epochs increment once per
            // commit, so the watermark gap bounds the commits this
            // rebuild coalesces.
            None => sub.stats.batched_commits += now.saturating_sub(sub.last_epoch + 1),
        }
        // The full re-plan: the same pipeline a cold registration runs.
        sub.stats.rebuilt += 1;
        if let Err(e) = Self::evaluate_into(sub, store, &snapshot, feed_cap) {
            sub.park(snapshot.epoch(), e, feed_cap);
        }
    }

    /// The lazily materialized snapshot, refreshed when a newer epoch
    /// exists (a cached older snapshot would silently miss ops).
    fn materialize(lazy: &mut Option<Arc<QuerySnapshot>>, store: &ModStore) -> Arc<QuerySnapshot> {
        match lazy {
            Some(s) if s.epoch() == store.epoch() => Arc::clone(s),
            _ => {
                let s = store.snapshot();
                *lazy = Some(Arc::clone(&s));
                s
            }
        }
    }

    /// The incremental re-eval of the forward kinds: re-plan (the
    /// epoch-box scan), reuse every unchanged candidate's
    /// difference function from the carried engine, build fresh
    /// functions only for candidates the delta touched, and rebuild the
    /// envelope over the merged set. The candidate set and every
    /// function value are exactly what a cold plan would produce, so the
    /// answer is bit-identical — only the per-candidate difference
    /// construction (and, with a carried envelope, the untouched
    /// intervals / clean probe columns) is skipped.
    fn patch(
        sub: &mut ShareCore,
        store: &ModStore,
        snapshot: &Arc<QuerySnapshot>,
        now: u64,
        delta: &LoggedDelta,
        feed_cap: usize,
    ) {
        let changed = &delta.changed;
        let plan =
            match QueryPlanner::new(sub.policy).plan(Arc::clone(snapshot), sub.oid, sub.window) {
                Ok(plan) => plan,
                Err(e) => {
                    // The commit was absorbed by an (empty-answer)
                    // rebuild attempt.
                    sub.stats.rebuilt += 1;
                    return sub.park(now, e.to_string(), feed_cap);
                }
            };
        let old = Arc::clone(
            sub.engine
                .as_ref()
                .expect("patch requires a carried engine"),
        );
        let old_fns: HashMap<Oid, &DistanceFunction> =
            old.functions().iter().map(|f| (f.owner(), f)).collect();
        let query_tr = plan.query_trajectory();
        let mut fs: Vec<DistanceFunction> = Vec::with_capacity(plan.candidate_count());
        let (mut reused, mut built) = (0u64, 0u64);
        for tr in plan.candidate_trajectories() {
            let oid = tr.oid();
            if !changed.contains(&oid) {
                if let Some(f) = old_fns.get(&oid) {
                    fs.push((*f).clone());
                    reused += 1;
                    continue;
                }
            }
            match CandidateSet::build(query_tr, std::iter::once(tr), &sub.window) {
                Ok(set) => {
                    debug_assert_eq!(set.len(), 1);
                    fs.extend(set.into_functions());
                    built += 1;
                }
                Err(e) => {
                    sub.stats.rebuilt += 1;
                    return sub.park(now, e.to_string(), feed_cap);
                }
            }
        }
        let query_tr = query_tr.clone();
        let kernel = match sub.kind {
            SubKind::ForwardRows => match sub.row_kernel(store, snapshot) {
                Ok(kernel) => Some(kernel),
                Err(e) => {
                    sub.stats.rebuilt += 1;
                    return sub.park(now, e, feed_cap);
                }
            },
            _ => None,
        };
        // Cheapest re-eval first: when the delta provably leaves the
        // lower envelope unchanged, carry it (no O(M log M) rebuild) and
        // recompute only the touched candidates' intervals / dirty probe
        // columns; otherwise rebuild envelope and answer over the merged
        // function set.
        let is_fresh = |oid: Oid| changed.contains(&oid);
        let (engine, answer) = match old.carry_envelope(fs, plan.radius(), &is_fresh) {
            Ok(engine) => {
                let answer = match (&sub.kind, &sub.answer) {
                    (SubKind::Intervals { rank: None }, SubAnswer::Intervals(prev)) => {
                        SubAnswer::Intervals(engine.answer_set_reusing(prev, &is_fresh))
                    }
                    // Rank intervals depend on the k-level structure of
                    // the whole function set, not just the envelope —
                    // recompute them (the carried envelope still saves
                    // the construction).
                    (SubKind::Intervals { rank: Some(k) }, _) => {
                        SubAnswer::Intervals(engine.ranked_answer_set(*k))
                    }
                    // Keep this arm: it copies clean columns, while the
                    // kept kernel's memo still pays the node loop and
                    // n(n+1)/2 block copies for an all-hit column. Sending
                    // carried patches through `prob_row_set_kernel` and
                    // the memo instead measured `near_churn` 102 → 67
                    // op/s (p50 6.7 → 13.3 ms).
                    (SubKind::ForwardRows, SubAnswer::Rows(prev)) => {
                        let (rows, touched) = engine.prob_row_set_reusing_kernel(
                            kernel.as_ref().expect("kernel built for row kinds"),
                            prev,
                            &is_fresh,
                        );
                        sub.stats.rows_patched += touched as u64;
                        SubAnswer::Rows(rows)
                    }
                    _ => unreachable!("answer representation matches kind"),
                };
                sub.stats.envelopes_carried += 1;
                (Arc::new(engine), answer)
            }
            Err(fs) => {
                let engine = Arc::new(QueryEngine::new(sub.oid, fs, plan.radius()));
                let answer = match sub.kind {
                    SubKind::Intervals { rank } => SubAnswer::Intervals(answer_of(&engine, rank)),
                    SubKind::ForwardRows => {
                        let rows = engine.prob_row_set_kernel(
                            kernel.as_ref().expect("kernel built for row kinds"),
                            sub.samples,
                        );
                        sub.stats.rows_patched += rows.len() as u64;
                        SubAnswer::Rows(rows)
                    }
                    SubKind::ReverseRows => unreachable!("reverse kinds patch per perspective"),
                };
                (engine, answer)
            }
        };
        sub.stats.patched += 1;
        sub.stats.functions_reused += reused;
        sub.stats.functions_built += built;
        sub.engine = Some(engine);
        sub.query_tr = Some(query_tr);
        sub.proof = None;
        sub.commit_answer(answer, now, feed_cap);
    }

    /// The per-perspective incremental re-eval of a reverse
    /// subscription: every perspective object untouched by the delta and
    /// provably outside its reach (its own [`ForwardProof`], under the
    /// row obligation) carries its envelope *and* its sampled row
    /// wholesale; only touched, new, or unprovable perspectives pay the
    /// per-perspective difference + envelope build and re-sampling.
    fn patch_reverse(
        sub: &mut ShareCore,
        store: &ModStore,
        snapshot: &Arc<QuerySnapshot>,
        now: u64,
        delta: &LoggedDelta,
        feed_cap: usize,
    ) {
        let (ops, changed) = (delta.ops.iter().collect::<Vec<_>>(), &delta.changed);
        let old = Arc::clone(sub.rev.as_ref().expect("patch requires a carried engine"));
        let radius = match common_radius(snapshot) {
            Ok(r) if r > 0.0 => r,
            Ok(_) | Err(_) => {
                sub.stats.rebuilt += 1;
                return sub.park(
                    now,
                    "trajectories have differing uncertainty radii".to_string(),
                    feed_cap,
                );
            }
        };
        let kernel = match sub.row_kernel(store, snapshot) {
            Ok(kernel) => kernel,
            Err(e) => {
                sub.stats.rebuilt += 1;
                return sub.park(now, e, feed_cap);
            }
        };
        // Classify the old perspectives: carried iff untouched, still
        // present, and proven unreachable by every op. Proofs are
        // derived lazily from the *current* snapshot — sound because a
        // perspective is only ever proven when the delta left both its
        // trajectory and its engine untouched.
        let mut carried: BTreeSet<Oid> = BTreeSet::new();
        for (oid, engine) in old.perspective_engines() {
            if changed.contains(&oid) || !snapshot.contains(oid) {
                sub.rev_proofs.remove(&oid);
                continue;
            }
            let proof = sub.rev_proofs.entry(oid).or_insert_with(|| {
                let tr = snapshot.get(oid).expect("presence checked above");
                ForwardProof::derive(engine, tr.trajectory())
            });
            if proof.ops_unaffected_rows(&ops) {
                carried.insert(oid);
            } else {
                sub.rev_proofs.remove(&oid);
            }
        }
        let refs: Vec<&Trajectory> = snapshot.iter().map(|t| t.trajectory()).collect();
        let rev = match ReverseNnEngine::build_reusing(&refs, sub.oid, sub.window, radius, |oid| {
            if carried.contains(&oid) {
                old.perspective_engine_arc(oid)
            } else {
                None
            }
        }) {
            Ok(rev) => rev,
            Err(e) => {
                sub.stats.rebuilt += 1;
                return sub.park(now, e.to_string(), feed_cap);
            }
        };
        let prev = match &sub.answer {
            SubAnswer::Rows(prev) => prev,
            SubAnswer::Intervals(_) => unreachable!("reverse subscriptions maintain rows"),
        };
        let (rows, recomputed) =
            rev.prob_row_set_reusing_kernel(&kernel, prev, &|oid| carried.contains(&oid));
        sub.stats.patched += 1;
        sub.stats.perspectives_skipped += carried.len() as u64;
        sub.stats.rows_patched += recomputed as u64;
        sub.rev = Some(Arc::new(rev));
        sub.commit_answer(SubAnswer::Rows(rows), now, feed_cap);
    }

    /// Evaluates `sub`'s standing query from scratch against `snapshot`
    /// and commits the result (carried engines, proofs, answer, feed
    /// delta at the snapshot's epoch).
    fn evaluate_into(
        sub: &mut ShareCore,
        store: &ModStore,
        snapshot: &Arc<QuerySnapshot>,
        feed_cap: usize,
    ) -> Result<(), String> {
        let epoch = snapshot.epoch();
        match sub.kind {
            SubKind::Intervals { rank } => {
                let (engine, query_tr, answer) =
                    evaluate(snapshot, sub.oid, sub.window, rank, sub.policy)?;
                sub.engine = Some(engine);
                sub.rev = None;
                sub.query_tr = Some(query_tr);
                sub.proof = None;
                sub.commit_answer(SubAnswer::Intervals(answer), epoch, feed_cap);
            }
            SubKind::ForwardRows => {
                let kernel = sub.row_kernel(store, snapshot)?;
                let plan: QueryPlan = QueryPlanner::new(sub.policy)
                    .plan(Arc::clone(snapshot), sub.oid, sub.window)
                    .map_err(|e| e.to_string())?;
                let query_tr = plan.query_trajectory().clone();
                let engine = Arc::new(plan.build_engine().map_err(|e| e.to_string())?);
                let rows = engine.prob_row_set_kernel(&kernel, sub.samples);
                sub.engine = Some(engine);
                sub.rev = None;
                sub.query_tr = Some(query_tr);
                sub.proof = None;
                sub.commit_answer(SubAnswer::Rows(rows), epoch, feed_cap);
            }
            SubKind::ReverseRows => {
                let kernel = sub.row_kernel(store, snapshot)?;
                // The exhaustive plan validates the snapshot, window,
                // query object, and shared radius; the reverse build
                // needs the full population regardless of policy.
                let plan: QueryPlan = QueryPlanner::new(PrefilterPolicy::Exhaustive)
                    .plan(Arc::clone(snapshot), sub.oid, sub.window)
                    .map_err(|e| e.to_string())?;
                let query_tr = plan.query_trajectory().clone();
                let rev = Arc::new(plan.build_reverse_engine().map_err(|e| e.to_string())?);
                let rows = rev.prob_row_set_kernel(&kernel, sub.samples);
                sub.engine = None;
                sub.rev = Some(rev);
                sub.query_tr = Some(query_tr);
                sub.proof = None;
                sub.rev_proofs.clear();
                sub.commit_answer(SubAnswer::Rows(rows), epoch, feed_cap);
            }
        }
        Ok(())
    }
}

/// The empty answer of a subscription shape (shared by registration and
/// the park path).
fn empty_answer_of(kind: SubKind, oid: Oid, window: TimeInterval, samples: u32) -> SubAnswer {
    match kind {
        SubKind::Intervals { rank } => SubAnswer::Intervals(AnswerSet::empty(oid, window, rank)),
        SubKind::ForwardRows => SubAnswer::Rows(ProbRowSet::empty(
            oid,
            window,
            RowPerspective::Forward,
            samples,
        )),
        SubKind::ReverseRows => SubAnswer::Rows(ProbRowSet::empty(
            oid,
            window,
            RowPerspective::Reverse,
            samples,
        )),
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

/// The number of distinct commit epochs `ops` spans (ops arrive in
/// log order, so equal epochs are adjacent). A maintenance round's
/// `batched_commits` contribution is this minus one: the first commit
/// of a burst is ordinary maintenance, the rest were coalesced into
/// the same ladder pass.
fn epochs_spanned(ops: &[DeltaRecord]) -> u64 {
    let mut n = 0u64;
    let mut last = None;
    for r in ops {
        if last != Some(r.epoch) {
            n += 1;
            last = Some(r.epoch);
        }
    }
    n
}

/// The distinct object ids a (filtered) op sequence touches.
fn changed_ids(ops: &[DeltaRecord]) -> BTreeSet<Oid> {
    ops.iter()
        .map(|r| match &r.op {
            DeltaOp::Insert(tr) => tr.oid(),
            DeltaOp::Remove(oid) => *oid,
        })
        .collect()
}

/// The skip rung: `true` iff the share's carried engine provably cannot
/// be touched by `delta` (the watermark and skip counters are then
/// advanced). The per-engine [`ForwardProof`] is derived on first use and
/// cached until the engine is replaced. Row subscriptions check the
/// sharper band-survivor obligation
/// ([`ForwardProof::ops_unaffected_rows`]).
fn skip_proven(sub: &mut ShareCore, delta: &LoggedDelta, now: u64) -> bool {
    if delta.changed.contains(&sub.oid) {
        return false;
    }
    let (Some(engine), Some(query_tr)) = (&sub.engine, &sub.query_tr) else {
        return false;
    };
    let proof = sub
        .proof
        .get_or_insert_with(|| ForwardProof::derive(engine, query_tr));
    let ops: Vec<&DeltaRecord> = delta.ops.iter().collect();
    let unaffected = if sub.kind == SubKind::ForwardRows {
        proof.ops_unaffected_rows(&ops)
    } else {
        proof.ops_unaffected(&ops)
    };
    if unaffected {
        sub.stats.skipped += 1;
        sub.stats.skipped_ops += ops.len() as u64;
        sub.last_epoch = now;
    }
    unaffected
}

/// Plans and evaluates one interval standing query from scratch.
fn evaluate(
    snapshot: &Arc<QuerySnapshot>,
    oid: Oid,
    window: TimeInterval,
    rank: Option<usize>,
    policy: PrefilterPolicy,
) -> Result<(Arc<QueryEngine>, Trajectory, AnswerSet), String> {
    let plan: QueryPlan = QueryPlanner::new(policy)
        .plan(Arc::clone(snapshot), oid, window)
        .map_err(|e| e.to_string())?;
    let query_tr = plan.query_trajectory().clone();
    let engine = Arc::new(plan.build_engine().map_err(|e| e.to_string())?);
    let answer = answer_of(&engine, rank);
    Ok((engine, query_tr, answer))
}

/// The engine's answer under the subscription's rank bound.
fn answer_of(engine: &QueryEngine, rank: Option<usize>) -> AnswerSet {
    match rank {
        Some(k) => engine.ranked_answer_set(k),
        None => engine.answer_set(),
    }
}

/// Renders an [`AnswerSet`] through a query's quantifier and target —
/// the same decision rules the one-shot execution path applies to its
/// engine, derived from the maintained qualification intervals instead.
pub fn render_output(query: &Query, answer: &AnswerSet) -> QueryOutput {
    let window = answer.window();
    let tol = 1e-7 * window.len().max(1.0);
    match &query.target {
        Target::One(name) => {
            let intervals = parse_object_name(name).and_then(|oid| answer.intervals_of(oid));
            let answer = match (&query.quantifier, intervals) {
                (Quantifier::Exists, iv) => iv.map(|iv| !iv.is_empty()).unwrap_or(false),
                (Quantifier::Forall, Some(iv)) => iv.covers_interval(window, tol),
                (Quantifier::Forall, None) => false,
                (Quantifier::AtLeast(x), iv) => {
                    let frac = iv.map(|iv| iv.total_len() / window.len()).unwrap_or(0.0);
                    frac + 1e-12 >= *x
                }
                (Quantifier::At(t), iv) => iv.map(|iv| iv.covers(*t)).unwrap_or(false),
            };
            QueryOutput::Boolean(answer)
        }
        Target::All => {
            let rows = answer
                .entries()
                .iter()
                .filter_map(|e| {
                    let frac = e.fraction(window);
                    match &query.quantifier {
                        Quantifier::Exists => Some((e.oid, frac)),
                        Quantifier::Forall => e
                            .intervals
                            .covers_interval(window, tol)
                            .then_some((e.oid, 1.0)),
                        Quantifier::AtLeast(x) => (frac + 1e-12 >= *x).then_some((e.oid, frac)),
                        Quantifier::At(t) => e.intervals.covers(*t).then_some((e.oid, frac)),
                    }
                })
                .collect();
            QueryOutput::Objects(rows)
        }
    }
}

/// Renders a [`ProbRowSet`] through a query's quantifier and target —
/// the sampled analogue of the one-shot threshold decision rules: the
/// qualifying fraction of `oid` is the fraction of probes where its
/// `P^NN` exceeds the statement's threshold, `FORALL` means every probe
/// passed, and `AT t` reads the probe column containing `t`.
///
/// The semantics are deliberately *probe-based*: a standing query's
/// maintained truth is its sampled rows, so `AT t` answers from the
/// probe column containing `t`, whereas a one-shot execution of the
/// same statement evaluates the probability at exactly `t` (and
/// one-shot `PROB_RNN(…) > 0` uses exact band intervals). Near a
/// threshold crossing between two probes the two surfaces can disagree;
/// raise the registry's sampling density to narrow the window.
pub fn render_row_output(query: &Query, rows: &ProbRowSet) -> QueryOutput {
    let p = query.prob_threshold;
    let samples = rows.samples();
    let full = 1.0 - 0.5 / samples as f64;
    let decide = |frac: f64, at_hit: bool| match &query.quantifier {
        Quantifier::Exists => frac > 0.0,
        Quantifier::Forall => frac >= full,
        Quantifier::AtLeast(x) => frac + 1e-12 >= *x,
        Quantifier::At(_) => at_hit,
    };
    let at_hit_of = |oid: Oid| match &query.quantifier {
        Quantifier::At(t) => rows
            .row_of(oid)
            .and_then(|r| r.at(probe_column(rows.window(), samples, *t)))
            .map(|prob| prob > p)
            .unwrap_or(false),
        _ => false,
    };
    match &query.target {
        Target::One(name) => {
            let answer = parse_object_name(name)
                .map(|oid| decide(rows.fraction_above(oid, p), at_hit_of(oid)))
                .unwrap_or(false);
            QueryOutput::Boolean(answer)
        }
        Target::All => {
            let out = rows
                .rows()
                .iter()
                .filter_map(|r| {
                    let frac = rows.fraction_above(r.oid, p);
                    decide(frac, at_hit_of(r.oid)).then_some((r.oid, frac))
                })
                .collect();
            QueryOutput::Objects(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ql::parser::parse;
    use unn_traj::trajectory::Trajectory;
    use unn_traj::uncertain::UncertainTrajectory;

    fn tr(oid: u64, y: f64) -> UncertainTrajectory {
        UncertainTrajectory::with_uniform_pdf(
            Trajectory::from_triples(Oid(oid), &[(0.0, y, 0.0), (10.0, y, 10.0)]).unwrap(),
            0.5,
        )
        .unwrap()
    }

    fn populated_store() -> ModStore {
        let s = ModStore::new();
        s.bulk_load(vec![tr(0, 0.0), tr(1, 1.0), tr(2, 3.0), tr(3, 40.0)])
            .unwrap();
        s
    }

    fn star_query() -> Query {
        parse("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(*, Tr0, TIME) > 0")
            .unwrap()
    }

    fn threshold_query() -> Query {
        parse("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(*, Tr0, TIME) > 0.4")
            .unwrap()
    }

    fn rnn_query() -> Query {
        parse("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_RNN(*, Tr0, TIME) > 0")
            .unwrap()
    }

    fn interval_answer(reg: &SubscriptionRegistry, name: &str) -> AnswerSet {
        match reg.answer(name).unwrap() {
            SubAnswer::Intervals(a) => a,
            other => panic!("expected intervals, got {other:?}"),
        }
    }

    fn row_answer(reg: &SubscriptionRegistry, name: &str) -> ProbRowSet {
        match reg.answer(name).unwrap() {
            SubAnswer::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    /// A fresh exhaustive row evaluation (forward or reverse) — the
    /// ground truth the maintained rows must equal bit-for-bit.
    fn fresh_rows(store: &ModStore, query: Oid, reverse: bool) -> ProbRowSet {
        let snapshot = store.snapshot();
        let kind = common_pdf_kind(&snapshot).unwrap().unwrap();
        let kernel = ColumnKernel::new(kind.convolve_with(&kind).as_ref());
        let plan = QueryPlanner::new(PrefilterPolicy::Exhaustive)
            .plan(snapshot, query, TimeInterval::new(0.0, 10.0))
            .unwrap();
        if reverse {
            let engine = plan.build_reverse_engine().unwrap();
            engine.prob_row_set_kernel(&kernel, PROB_ROW_SAMPLES)
        } else {
            let engine = plan.build_engine().unwrap();
            engine.prob_row_set_kernel(&kernel, PROB_ROW_SAMPLES)
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
    fn far_churn_is_skipped_and_near_mutations_patch() {
        let store = populated_store();
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        reg.register(&store, "near0", star_query(), PrefilterPolicy::default())
            .unwrap();
        // A far insertion cannot touch the 4r band: the skip path runs
        // and no delta is emitted.
        store.insert(tr(50, 90_000.0)).unwrap();
        let info = reg.info("near0").unwrap();
        assert_eq!(info.stats.skipped, 1, "{info:?}");
        assert_eq!(info.last_epoch, store.epoch());
        assert_eq!(reg.drain("near0").unwrap(), vec![]);
        // A nearby insertion lands in the band: the patch path reuses the
        // old candidates' functions and emits an upsert for the newcomer.
        store.insert(tr(60, 0.5)).unwrap();
        let info = reg.info("near0").unwrap();
        assert_eq!(info.stats.patched, 1, "{info:?}");
        assert!(info.stats.functions_reused >= 2, "{info:?}");
        let deltas = reg.drain("near0").unwrap();
        assert_eq!(deltas.len(), 1);
        let d = deltas[0].as_intervals().unwrap();
        assert!(d.upserts.iter().any(|e| e.oid == Oid(60)));
        assert_eq!(d.epoch, store.epoch());
        // Removing the newcomer emits the removal.
        store.remove(Oid(60)).unwrap();
        let deltas = reg.drain("near0").unwrap();
        assert_eq!(deltas.len(), 1);
        assert!(
            deltas[0].as_intervals().unwrap().removed.contains(&Oid(60)),
            "{deltas:?}"
        );
        // The maintained answer equals a fresh evaluation throughout.
        let fresh = evaluate(
            &store.snapshot(),
            Oid(0),
            TimeInterval::new(0.0, 10.0),
            None,
            PrefilterPolicy::Exhaustive,
        )
        .unwrap()
        .2;
        assert_eq!(interval_answer(&reg, "near0"), fresh);
    }

    #[test]
    fn threshold_rows_skip_patch_and_stay_bit_identical() {
        let store = populated_store();
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        reg.register(
            &store,
            "hot0",
            threshold_query(),
            PrefilterPolicy::default(),
        )
        .unwrap();
        let initial = row_answer(&reg, "hot0");
        // Far churn: the insert round's visit skips via the (sharper,
        // band-survivor) proof and publishes the guard; the remove of
        // that far object is then pruned without a visit. Nothing
        // recomputed, nothing emitted either way.
        store.insert(tr(50, 90_000.0)).unwrap();
        store.remove(Oid(50)).unwrap();
        let info = reg.info("hot0").unwrap();
        assert_eq!(info.stats.skipped, 1, "{info:?}");
        assert_eq!(info.stats.skipped_unvisited, 1, "{info:?}");
        assert_eq!(info.stats.rows_patched, 0, "{info:?}");
        assert_eq!(reg.drain("hot0").unwrap(), vec![]);
        assert_eq!(row_answer(&reg, "hot0"), initial);
        // An in-band newcomer patches: only its columns recompute, and
        // the result equals a fresh exhaustive sweep bit-for-bit.
        store.insert(tr(60, 0.5)).unwrap();
        let info = reg.info("hot0").unwrap();
        assert_eq!(info.stats.patched, 1, "{info:?}");
        assert!(info.stats.rows_patched >= 1, "{info:?}");
        assert_eq!(row_answer(&reg, "hot0"), fresh_rows(&store, Oid(0), false));
        // Folding the emitted deltas over the initial rows reproduces
        // the maintained answer.
        let folded = reg
            .drain("hot0")
            .unwrap()
            .iter()
            .fold(initial, |acc, d| acc.apply(d.as_rows().unwrap()));
        assert_eq!(folded, row_answer(&reg, "hot0"));
    }

    #[test]
    fn reverse_rows_carry_untouched_perspectives() {
        let store = populated_store();
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        reg.register(&store, "rev0", rnn_query(), PrefilterPolicy::default())
            .unwrap();
        let initial = row_answer(&reg, "rev0");
        // A far insertion becomes a new perspective, but every existing
        // perspective is provably untouched: its envelope and row carry.
        store.insert(tr(50, 90_000.0)).unwrap();
        let info = reg.info("rev0").unwrap();
        assert_eq!(info.stats.patched, 1, "{info:?}");
        assert_eq!(info.stats.perspectives_skipped, 3, "{info:?}");
        assert_eq!(info.stats.rows_patched, 1, "one new perspective: {info:?}");
        assert_eq!(row_answer(&reg, "rev0"), fresh_rows(&store, Oid(0), true));
        // Removing it again drops the perspective; the others carry.
        store.remove(Oid(50)).unwrap();
        let info = reg.info("rev0").unwrap();
        assert_eq!(info.stats.perspectives_skipped, 6, "{info:?}");
        assert_eq!(row_answer(&reg, "rev0"), fresh_rows(&store, Oid(0), true));
        // A near mutation recomputes the touched perspective (and any
        // perspective it can reach) — still bit-identical.
        store.update(tr(1, 1.2));
        assert_eq!(row_answer(&reg, "rev0"), fresh_rows(&store, Oid(0), true));
        // Folding the emitted deltas lands on the maintained rows.
        let folded = reg
            .drain("rev0")
            .unwrap()
            .iter()
            .fold(initial, |acc, d| acc.apply(d.as_rows().unwrap()));
        assert_eq!(folded, row_answer(&reg, "rev0"));
    }

    #[test]
    fn mutating_the_query_object_rebuilds() {
        let store = populated_store();
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        reg.register(&store, "near0", star_query(), PrefilterPolicy::default())
            .unwrap();
        // Moving the query object invalidates every difference function.
        store.remove(Oid(0)).unwrap();
        let info = reg.info("near0").unwrap();
        assert!(info.error.is_some(), "query object gone: {info:?}");
        assert!(reg.answer("near0").unwrap().is_empty());
        // Its answers emptied out through the feed…
        let deltas = reg.drain("near0").unwrap();
        assert!(deltas
            .iter()
            .any(|d| !d.as_intervals().unwrap().removed.is_empty()));
        // …and re-registering the object revives the subscription.
        store.insert(tr(0, 0.0)).unwrap();
        let info = reg.info("near0").unwrap();
        assert!(info.error.is_none(), "{info:?}");
        assert!(info.entries >= 1);
        assert!(info.stats.rebuilt >= 2, "{info:?}");
    }

    #[test]
    fn render_matches_one_shot_semantics() {
        let store = populated_store();
        let reg = SubscriptionRegistry::new();
        for (name, stmt) in [
            (
                "exists",
                "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(*, Tr0, TIME) > 0",
            ),
            (
                "atleast",
                "SELECT * FROM MOD WHERE ATLEAST 0.5 OF TIME IN [0, 10] \
                 AND PROB_NN(*, Tr0, TIME) > 0",
            ),
            (
                "one",
                "SELECT Tr1 FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(Tr1, Tr0, TIME) > 0",
            ),
            (
                "far",
                "SELECT Tr3 FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(Tr3, Tr0, TIME) > 0",
            ),
        ] {
            reg.register(
                &store,
                name,
                parse(stmt).unwrap(),
                PrefilterPolicy::default(),
            )
            .unwrap();
        }
        match reg.output("exists").unwrap() {
            QueryOutput::Objects(rows) => {
                let oids: Vec<Oid> = rows.iter().map(|(o, _)| *o).collect();
                assert!(oids.contains(&Oid(1)));
                assert!(!oids.contains(&Oid(3)), "far object must not qualify");
            }
            other => panic!("expected Objects, got {other:?}"),
        }
        assert_eq!(reg.output("one").unwrap(), QueryOutput::Boolean(true));
        assert_eq!(reg.output("far").unwrap(), QueryOutput::Boolean(false));
        match reg.output("atleast").unwrap() {
            QueryOutput::Objects(rows) => {
                for (_, frac) in rows {
                    assert!(frac >= 0.5 - 1e-9);
                }
            }
            other => panic!("expected Objects, got {other:?}"),
        }
    }

    #[test]
    fn row_rendering_applies_threshold_and_quantifier() {
        let store = populated_store();
        let reg = SubscriptionRegistry::new();
        // Tr1 (one mile away, everything else far) dominates: its P^NN
        // exceeds 0.4 essentially always.
        reg.register(
            &store,
            "hot",
            parse(
                "SELECT Tr1 FROM MOD WHERE ATLEAST 0.6 OF TIME IN [0, 10] \
                 AND PROB_NN(Tr1, Tr0, TIME) > 0.4",
            )
            .unwrap(),
            PrefilterPolicy::default(),
        )
        .unwrap();
        assert_eq!(reg.output("hot").unwrap(), QueryOutput::Boolean(true));
        // The far object fails any positive-threshold test.
        reg.register(
            &store,
            "cold",
            parse(
                "SELECT Tr3 FROM MOD WHERE EXISTS TIME IN [0, 10] \
                 AND PROB_NN(Tr3, Tr0, TIME) > 0.4",
            )
            .unwrap(),
            PrefilterPolicy::default(),
        )
        .unwrap();
        assert_eq!(reg.output("cold").unwrap(), QueryOutput::Boolean(false));
        // Reverse star rendering lists the perspectives with their
        // qualifying fractions.
        reg.register(&store, "rev", rnn_query(), PrefilterPolicy::default())
            .unwrap();
        match reg.output("rev").unwrap() {
            QueryOutput::Objects(rows) => {
                assert!(rows.iter().any(|(o, _)| *o == Oid(1)), "{rows:?}");
                for (_, frac) in &rows {
                    assert!((0.0..=1.0 + 1e-9).contains(frac));
                }
            }
            other => panic!("expected Objects, got {other:?}"),
        }
    }

    #[test]
    fn feed_overflow_squashes_but_folds_identically() {
        let store = populated_store();
        store.set_feed_bound(16);
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        reg.register(&store, "near0", star_query(), PrefilterPolicy::default())
            .unwrap();
        let initial = reg.answer("near0").unwrap();
        // Far more in-band churn than the feed retains.
        for k in 0..56u64 {
            let oid = 100 + (k % 7);
            if store.contains(Oid(oid)) {
                store.remove(Oid(oid)).unwrap();
            }
            store.insert(tr(oid, 0.3 + (k % 5) as f64 * 0.1)).unwrap();
        }
        let info = reg.info("near0").unwrap();
        assert!(info.pending_deltas <= 16, "{info:?}");
        let deltas = reg.drain("near0").unwrap();
        let folded = deltas.iter().fold(initial, |acc, d| acc.apply(d));
        assert_eq!(folded, reg.answer("near0").unwrap());
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
    fn sinks_receive_pushed_deltas_and_squash_on_overflow() {
        let store = populated_store();
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        reg.register(&store, "near0", star_query(), PrefilterPolicy::default())
            .unwrap();
        let sink = Arc::new(DeltaSink::bounded(2));
        assert!(reg.attach_sink("near0", &sink));
        assert!(!reg.attach_sink("bogus", &sink));
        let initial = reg.answer("near0").unwrap();
        // Three in-band commits against a capacity-2 sink: the oldest
        // pair squashes into one lagged event.
        store.insert(tr(70, 0.4)).unwrap();
        store.insert(tr(71, 0.6)).unwrap();
        store.insert(tr(72, 0.8)).unwrap();
        assert_eq!(sink.len(), 2);
        let first = sink.try_recv().unwrap();
        assert!(first.lagged, "{first:?}");
        assert_eq!(first.subscription, "near0");
        let second = sink.try_recv().unwrap();
        assert!(!second.lagged);
        // Folding the (squashed) stream still lands on the maintained
        // answer bit-for-bit.
        let folded = initial.apply(&first.delta).apply(&second.delta);
        assert_eq!(folded, reg.answer("near0").unwrap());
        // A dropped consumer is pruned; a closed sink accepts nothing.
        sink.close();
        store.insert(tr(73, 0.9)).unwrap();
        assert!(sink.is_empty());
        assert!(sink.recv().is_none(), "closed and drained");
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
        for (i, (name, pred, p)) in names.iter().enumerate() {
            reg.register(&store, name, stmt(pred, *p), PrefilterPolicy::default())
                .unwrap();
            assert_eq!(reg.share_count(), i / 2 + 1, "one share per predicate");
        }
        // Each name renders the shared rows under its own threshold.
        let fresh_output = |pred: &str, p: f64| {
            let fresh = fresh_rows(&store, Oid(0), pred == "PROB_RNN");
            render_row_output(&stmt(pred, p), &fresh)
        };
        for (name, pred, p) in &names {
            assert_eq!(reg.output(name).unwrap(), fresh_output(pred, *p), "{name}");
        }
        let bases: Vec<ProbRowSet> = names.iter().map(|n| row_answer(&reg, n.0)).collect();
        // A near newcomer contests Tr1: the two thresholds now cut the
        // same rows differently, and each feed folds to its own answer.
        store.insert(tr(60, 0.8)).unwrap();
        assert_ne!(reg.output("nn3"), reg.output("nn6"));
        for ((name, pred, p), base) in names.iter().zip(bases) {
            assert_eq!(reg.output(name).unwrap(), fresh_output(pred, *p), "{name}");
            let folded = reg
                .drain(name)
                .unwrap()
                .iter()
                .fold(base, |acc, d| acc.apply(d.as_rows().unwrap()));
            assert_eq!(
                render_row_output(&stmt(pred, *p), &folded),
                fresh_output(pred, *p),
                "{name}"
            );
        }
    }

    #[test]
    fn shared_engine_broadcasts_one_delta_to_every_member_sink() {
        let store = populated_store();
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        reg.register(&store, "a", star_query(), PrefilterPolicy::default())
            .unwrap();
        reg.register(&store, "b", star_query(), PrefilterPolicy::default())
            .unwrap();
        assert_eq!(reg.share_count(), 1);
        let sink_a = Arc::new(DeltaSink::bounded(8));
        let sink_b = Arc::new(DeltaSink::bounded(8));
        assert!(reg.attach_sink("a", &sink_a));
        assert!(reg.attach_sink("b", &sink_b));
        let initial = reg.answer("a").unwrap();
        store.insert(tr(70, 0.4)).unwrap();
        // One maintenance round fans the same delta out to both
        // members, each stamped with its own subscription name.
        let ev_a = sink_a.try_recv().unwrap();
        let ev_b = sink_b.try_recv().unwrap();
        assert_eq!(ev_a.subscription, "a");
        assert_eq!(ev_b.subscription, "b");
        assert_eq!(ev_a.delta, ev_b.delta);
        assert_eq!(initial.apply(&ev_a.delta), reg.answer("b").unwrap());
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
