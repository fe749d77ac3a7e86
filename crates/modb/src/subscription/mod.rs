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
//!    box checks — not `M` envelope scans. The banded shares (intervals
//!    without `RANK`, threshold rows) clear the removal of a candidate
//!    that never survived band pruning, and an insertion the box
//!    refuses is cleared when its distance function passes the band
//!    test the patch would run on it
//!    ([`crate::delta::ForwardProof::ops_unaffected_exact`]): an
//!    insertion is skipped exactly when a patch would leave the
//!    newcomer out of every answer and probe column. A skip
//!    that absorbs a change to a candidate records its id, and the next
//!    patch builds that candidate's function afresh instead of reusing
//!    the carried one.
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
//!    object keeps its own carried lower envelope and
//!    [`ForwardProof`](crate::delta::ForwardProof),
//!    so a far commit re-derives one new perspective and carries all
//!    untouched ones (`perspectives_skipped` counts the carries).
//! 3. **Rebuild** — the delta log was truncated past the subscription's
//!    last epoch (or the query object itself changed): patching against
//!    incomplete history would silently miss mutations, so the full
//!    plan → difference → envelope (→ sampling) pipeline runs from
//!    scratch (see the truncation contract in [`crate::delta::DeltaLog`]).
//!
//! ## Two-phase maintenance
//!
//! [`SubscriptionRegistry::sync`] runs in two phases: a sequential
//! *cheap pass* decides each visited share's rung (current / skip /
//! heavy), sharing one delta-ops fetch and one changed-id set across
//! all shares at the same watermark; then the shares needing heavy work
//! (patch or rebuild) climb the rest of the ladder with the delta the
//! cheap pass already fetched, **fanning out across scoped threads**
//! when the host has more than one core.
//!
//! ## The maintenance index: `O(affected)` rounds
//!
//! Which subscriptions does phase one even look at? In the
//! publication-style reading of the registry — standing queries are the
//! *subscriptions*, commits are the *publications* — the registry keeps
//! a spatial index over the standing queries themselves (the private
//! `SubscriptionIndex`): every share whose engine carries a
//! [`ForwardProof`](crate::delta::ForwardProof) publishes a **guard
//! box** — the query corridor inflated by the proof's reach (envelope
//! maximum plus band slack), flattened in time — into a uniform grid
//! keyed by share id, plus an inverted oid → shares map for the objects
//! whose identity the proof depends on. A publication edits the grid in
//! place; it is rebuilt, about one cell per box, only when the box
//! count leaves `[built / 2, 2 · built]`. A commit's maintenance round
//! computes the delta region of its logged ops and visits only the
//! index hits: a share outside the hit set is *provably* unaffected
//! (its per-axis gap exceeds the reach, hence so does the Euclidean
//! gap) and is skipped **without being touched** — no lock, no
//! watermark write. The skipped rounds are reconciled lazily from a
//! round counter at the share's next visit or stats read
//! ([`SubscriptionStats::skipped_unvisited`]). Shares without a usable
//! proof (reverse rows, parked, errored) sit in an always-visit set.
//! Guards re-publish whenever a proof re-derives, with a catch-up loop
//! closing the race against rounds proven on the old guard. Far churn
//! therefore costs one index lookup — independent of the registered
//! population; the `fanout` bench's `city_maintain_10k` group pins a
//! far-churn round at 10k standing queries to within 10x of the
//! 100-subscription round, a ratio `check_bench_json` enforces on the
//! tracked report.
//!
//! Every commit owes one round. A visit reconciles its share from the
//! delta log since the share's own watermark, so a visit that finds
//! several epochs pending — rounds that raced, or a registration's
//! catch-up — folds them into one ladder pass
//! ([`SubscriptionStats::batched_commits`] counts the epochs a visit
//! folds beyond its first). `tests/indexed_sync.rs` holds the indexed
//! path bit-identical to a cold exhaustive evaluation of the final
//! contents across random interleavings, prefilter policies, and
//! mid-script registrations.
//!
//! ## Engine sharing
//!
//! Registrations with the same computation shape — query object, window,
//! kind (interval / threshold rows / reverse rows), prefilter policy,
//! sample density — coalesce onto **one share**: one carried
//! engine, one skip/patch/rebuild round per commit, however many
//! subscription names ride it. Each member keeps its own identity (its
//! sinks, per-name `Event` frames), but the maintained answer and the
//! delta are computed once.
//! [`SubscriptionRegistry::share_count`] exposes the number of distinct
//! maintained computations.
//!
//! ## Delivery: sinks their consumers own
//!
//! Every answer change is forwarded to each [`DeltaSink`] attached to
//! the subscription — and only there. A sink is owned by whoever reads
//! it: a network connection's outbox receives **pushed** deltas (see
//! [`crate::net`]), and a [`crate::server::ModServer`] keeps a pull sink
//! per name registered in-process, which `sub poll` /
//! `ModServer::poll_subscription` drains. The registry holds only weak
//! references, so a consumer that goes away stops costing anything; a
//! name nobody consumes keeps its maintained answer and emits into no
//! queue. Each sink is bounded under the squash-oldest contract
//! documented on [`DeltaSink`]: overflowing deltas are composed via
//! [`SubDelta::then`] (never dropped), so folding a sink's stream over
//! the subscriber's base answer stays bit-identical to the maintained
//! answer; squashed events are flagged `lagged` so a consumer knows it
//! may resync from a full answer. Each queued event carries a
//! [`FrameCache`], so when many connections watch the same subscription
//! name the wire frame for a delta is serialized **once** and every
//! outbox hands the same `Arc<[u8]>` to its socket (see
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

mod index;
mod ladder;
mod registry;
mod render;
mod sink;

pub(crate) use registry::Round;
pub use registry::SubscriptionRegistry;
pub use render::{render_instant, render_output, render_row_output};
pub use sink::{DeltaSink, FeedEvent, FrameCache};

use crate::ql::SourceSpan;
use std::fmt;
use unn_core::answer::{AnswerDelta, AnswerSet};
use unn_core::probrows::{ProbRowDelta, ProbRowSet};

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
    /// The subscription exists but has no pull sink to poll: it was
    /// registered with a push sink (over a connection), which receives
    /// its deltas.
    NoPullConsumer(String),
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
            SubscriptionError::NoPullConsumer(n) => write!(
                f,
                "subscription '{n}' has no pull consumer: its deltas are pushed to the \
                 connection that registered it (WATCH it over a connection instead)"
            ),
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
    /// The epochs one visit folds beyond its first (distinct commit
    /// epochs spanned minus one, summed over visited rounds): commits
    /// whose rounds raced into one ladder pass.
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
    /// This name's undrained events across its live sinks (a pull
    /// sink's backlog, or the watching connections' outbox depth).
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
    /// Bounded sinks squash their oldest entries with this; one
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

/// Fixtures shared by the submodules' unit tests.
#[cfg(test)]
mod testutil {
    use super::*;
    use crate::plan::{PrefilterPolicy, QueryPlanner};
    use crate::ql::ast::Query;
    use crate::ql::parser::parse;
    use crate::store::ModStore;
    use std::sync::Arc;
    use unn_core::kernel::ColumnKernel;
    use unn_geom::interval::TimeInterval;
    use unn_traj::trajectory::{Oid, Trajectory};
    use unn_traj::uncertain::{common_pdf_kind, UncertainTrajectory};

    pub(super) fn tr(oid: u64, y: f64) -> UncertainTrajectory {
        UncertainTrajectory::with_uniform_pdf(
            Trajectory::from_triples(Oid(oid), &[(0.0, y, 0.0), (10.0, y, 10.0)]).unwrap(),
            0.5,
        )
        .unwrap()
    }

    pub(super) fn populated_store() -> ModStore {
        let s = ModStore::new();
        s.bulk_load(vec![tr(0, 0.0), tr(1, 1.0), tr(2, 3.0), tr(3, 40.0)])
            .unwrap();
        s
    }

    pub(super) fn star_query() -> Query {
        parse("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(*, Tr0, TIME) > 0")
            .unwrap()
    }

    pub(super) fn threshold_query() -> Query {
        parse("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_NN(*, Tr0, TIME) > 0.4")
            .unwrap()
    }

    pub(super) fn rnn_query() -> Query {
        parse("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] AND PROB_RNN(*, Tr0, TIME) > 0")
            .unwrap()
    }

    pub(super) fn interval_answer(reg: &SubscriptionRegistry, name: &str) -> AnswerSet {
        match reg.answer(name).unwrap() {
            SubAnswer::Intervals(a) => a,
            other => panic!("expected intervals, got {other:?}"),
        }
    }

    /// A pull sink attached to `name` (call it right after the
    /// registration): every later delta of the name queues in it.
    pub(super) fn pull_sink(reg: &SubscriptionRegistry, name: &str) -> Arc<DeltaSink> {
        let sink = Arc::new(DeltaSink::bounded(crate::store::DEFAULT_FEED_BOUND));
        assert!(reg.attach_sink(name, &sink), "{name} is registered");
        sink
    }

    /// The deltas queued in `sink`, oldest first.
    pub(super) fn drain(sink: &DeltaSink) -> Vec<SubDelta> {
        std::iter::from_fn(|| sink.try_recv())
            .map(|ev| ev.delta)
            .collect()
    }

    pub(super) fn row_answer(reg: &SubscriptionRegistry, name: &str) -> ProbRowSet {
        match reg.answer(name).unwrap() {
            SubAnswer::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    /// A fresh exhaustive interval evaluation of `PROB_NN(*, query) > 0`
    /// over [0, 10] — the ground truth a maintained interval answer must
    /// equal bit-for-bit.
    pub(super) fn fresh_intervals(store: &ModStore, query: Oid) -> AnswerSet {
        QueryPlanner::new(PrefilterPolicy::Exhaustive)
            .plan(store.snapshot(), query, TimeInterval::new(0.0, 10.0))
            .unwrap()
            .build_engine()
            .unwrap()
            .answer_set()
    }

    /// A fresh exhaustive row evaluation (forward or reverse) — the
    /// ground truth the maintained rows must equal bit-for-bit.
    pub(super) fn fresh_rows(store: &ModStore, query: Oid, reverse: bool) -> ProbRowSet {
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
}
