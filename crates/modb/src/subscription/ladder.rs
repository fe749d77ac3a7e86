//! The maintenance ladder: a share's carried state ([`ShareCore`]) and
//! the skip → patch → rebuild rungs that absorb a logged delta into it.

use super::registry::{ShareKey, SubKind, SubscriptionRegistry};
use super::sink::SubscriberSlot;
use super::{SubAnswer, SubDelta, SubscriptionStats};
use crate::delta::{DeltaOp, DeltaRecord, ForwardProof};
use crate::plan::{PrefilterPolicy, QueryPlan, QueryPlanner};
use crate::snapshot::QuerySnapshot;
use crate::store::ModStore;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use unn_core::answer::AnswerSet;
use unn_core::candidates::CandidateSet;
use unn_core::kernel::ColumnKernel;
use unn_core::probrows::{ProbRowSet, RowPerspective};
use unn_core::query::QueryEngine;
use unn_core::reverse::ReverseNnEngine;
use unn_geom::interval::TimeInterval;
use unn_prob::pdf::PdfKind;
use unn_traj::distance::DistanceFunction;
use unn_traj::trajectory::{Oid, Trajectory};
use unn_traj::uncertain::{common_pdf_kind, common_radius};

/// The maintained state of one shared computation — the engine, carry
/// proofs, answer, stats, and the subscriber slots the answer's deltas
/// broadcast to. Guarded by the share's mutex; maintenance of one share
/// serializes on it, so concurrent commits apply their updates in
/// commit order.
#[derive(Debug)]
pub(super) struct ShareCore {
    pub(super) oid: Oid,
    pub(super) window: TimeInterval,
    pub(super) kind: SubKind,
    pub(super) policy: PrefilterPolicy,
    /// Probe count of this share's rows (fixed at registration; part of
    /// the row-set shape).
    pub(super) samples: u32,
    pub(super) last_epoch: u64,
    /// The forward engine the current answer was computed with — the
    /// carried preprocessing the skip/patch paths reuse. `None` while
    /// parked on an evaluation error (and always for reverse kinds).
    pub(super) engine: Option<Arc<QueryEngine>>,
    /// The reverse engine (perspective envelopes) of a
    /// [`SubKind::ReverseRows`] subscription.
    pub(super) rev: Option<Arc<ReverseNnEngine>>,
    /// The query trajectory's content as of `last_epoch` (any op touching
    /// it forces a rebuild, so between rebuilds this equals the live
    /// content). Cached so the skip path needs no snapshot at all.
    pub(super) query_tr: Option<Trajectory>,
    /// The skip-proof bounds derived from `engine` — cached so a burst
    /// of far commits pays one derivation, invalidated whenever the
    /// engine is replaced.
    pub(super) proof: Option<ForwardProof>,
    /// Per-perspective proof bounds of a reverse subscription, keyed by
    /// perspective object; an entry is dropped whenever its perspective
    /// engine is replaced (and lazily re-derived from the then-current
    /// snapshot, sound because only provably untouched perspectives are
    /// ever proven against).
    pub(super) rev_proofs: HashMap<Oid, ForwardProof>,
    /// Candidates of `engine` whose updates or removals the skip rung
    /// absorbed since the engine was built: their functions in `engine`
    /// may be stale, so the next patch builds them afresh. Emptied by
    /// every patch and every rebuild.
    pub(super) absorbed: BTreeSet<Oid>,
    /// The column kernel of the MOD's shared location model, by kind
    /// (row subscriptions only). Kept across commits, so from a probe
    /// column's second evaluation on it remembers that column's
    /// quadrature blocks and re-integrates only the pairs whose inputs
    /// changed — under a carried envelope and after a rebuild alike
    /// (`unn_core::kernel`, "Memo"; at most one evaluation per probe).
    /// Rebuilt over the store-wide cached profile when the MOD's
    /// registered pdf kind changes, which forces every column dirty
    /// anyway since it requires replacing the objects.
    pub(super) kernel: Option<(PdfKind, ColumnKernel)>,
    pub(super) answer: SubAnswer,
    /// The subscriber views this share's deltas broadcast to (one per
    /// registered name on this key).
    pub(super) slots: Vec<SubscriberSlot>,
    pub(super) error: Option<String>,
    /// Maintenance counters of the *share* — the work one maintenance
    /// round does regardless of how many subscribers ride it.
    pub(super) stats: SubscriptionStats,
    /// Patches whose answer diff emitted no delta (not part of the wire
    /// stats block; the registry folds its movement into
    /// `subs_ladder_patched_quiet_total`).
    pub(super) quiet_patches: u64,
}

impl ShareCore {
    /// A freshly registered, not-yet-evaluated core with the empty
    /// answer of its representation.
    pub(super) fn new(key: &ShareKey) -> ShareCore {
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
            absorbed: BTreeSet::new(),
            kernel: None,
            answer: empty_answer_of(key.kind, key.oid, window, key.samples),
            slots: Vec::new(),
            error: None,
            stats: SubscriptionStats::default(),
            quiet_patches: 0,
        }
    }

    /// The named subscriber's slot.
    pub(super) fn slot(&self, name: &str) -> Option<&SubscriberSlot> {
        self.slots.iter().find(|s| s.name == name)
    }

    /// The named subscriber's slot, mutably.
    pub(super) fn slot_mut(&mut self, name: &str) -> Option<&mut SubscriberSlot> {
        self.slots.iter_mut().find(|s| s.name == name)
    }

    /// The empty answer of this share's representation.
    fn empty_answer(&self) -> SubAnswer {
        empty_answer_of(self.kind, self.oid, self.window, self.samples)
    }

    /// Broadcasts an emitted delta to every subscriber slot: each slot
    /// forwards it to its live sinks under one per-slot encode-once
    /// cache.
    fn broadcast(&mut self, delta: SubDelta) {
        for slot in &mut self.slots {
            slot.deliver(&delta);
        }
    }

    /// Installs a freshly evaluated answer, emitting its delta; `false`
    /// when the answer did not change (nothing emitted). The carried
    /// preprocessing (`engine` / `rev` / `query_tr` / proofs) is
    /// assigned by the caller beforehand.
    fn commit_answer(&mut self, answer: SubAnswer, epoch: u64) -> bool {
        let delta = self.answer.diff_to(&answer, epoch);
        let emitted = !delta.is_empty();
        if emitted {
            self.broadcast(delta);
        }
        self.answer = answer;
        self.error = None;
        self.last_epoch = epoch;
        emitted
    }

    /// [`Self::commit_answer`] for a patch: counts the patch, and counts
    /// it quiet when it emitted nothing.
    fn commit_patch(&mut self, answer: SubAnswer, epoch: u64) {
        self.stats.patched += 1;
        if !self.commit_answer(answer, epoch) {
            self.quiet_patches += 1;
        }
    }

    /// Parks the subscription on an evaluation error: the answer empties
    /// (emitting the removals) until a later epoch evaluates again.
    fn park(&mut self, epoch: u64, message: String) {
        let empty = self.empty_answer();
        let delta = self.answer.diff_to(&empty, epoch);
        if !delta.is_empty() {
            self.broadcast(delta);
        }
        self.answer = empty;
        self.engine = None;
        self.rev = None;
        self.query_tr = None;
        self.proof = None;
        self.rev_proofs.clear();
        self.absorbed.clear();
        self.error = Some(message);
        self.last_epoch = epoch;
    }

    /// The probability kernel row maintenance evaluates its probe
    /// columns with: the profiled difference pdf of the MOD's shared
    /// location model, served from the store-wide cache
    /// ([`ModStore::difference_model`], shared with the one-shot sweeps)
    /// and kept here by kind so a maintenance round holding a share lock
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
pub(super) struct LoggedDelta {
    ops: Vec<DeltaRecord>,
    changed: BTreeSet<Oid>,
}

/// One round's view of the delta log: entry `b` holds the ops in
/// `(b, now]`, fetched once for every share sitting at watermark `b`.
/// `None` when the log is truncated past `b` (only a rebuild is sound).
pub(super) type SharedOps = BTreeMap<u64, Option<Arc<LoggedDelta>>>;

impl SubscriptionRegistry {
    /// The opening of the ladder, the one place that fetches and
    /// classifies a share's logged delta (into `shared`, so shares at
    /// one watermark do it once): `true` when the share is settled
    /// without a snapshot — already current, nothing logged, or the
    /// cached proof skipped the whole burst. On `false` the share is
    /// untouched and [`Self::climb`] takes the delta from `shared`: a
    /// visit is only counted by the call that absorbs the delta.
    pub(super) fn settle(
        sub: &mut ShareCore,
        store: &ModStore,
        now: u64,
        shared: &mut SharedOps,
    ) -> bool {
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
    pub(super) fn refresh(
        sub: &mut ShareCore,
        store: &ModStore,
        lazy: &mut Option<Arc<QuerySnapshot>>,
    ) {
        let now = store.epoch();
        let mut fetched = SharedOps::new();
        if !Self::settle(sub, store, now, &mut fetched) {
            let delta = fetched.get(&sub.last_epoch).and_then(Option::as_deref);
            Self::climb(sub, store, lazy, now, delta);
        }
    }

    /// The heavy rungs, for a delta [`Self::settle`] could not settle:
    /// patch against it when the carried engine allows, rebuild
    /// otherwise. Either way `(sub.last_epoch, now]` is absorbed and the
    /// visit counted.
    pub(super) fn climb(
        sub: &mut ShareCore,
        store: &ModStore,
        lazy: &mut Option<Arc<QuerySnapshot>>,
        now: u64,
        delta: Option<&LoggedDelta>,
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
                            return Self::patch(sub, store, &snapshot, now, delta);
                        }
                    } else if sub.rev.is_some() && snapshot.len() >= 2 {
                        return Self::patch_reverse(sub, store, &snapshot, now, delta);
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
        if let Err(e) = Self::evaluate_into(sub, store, &snapshot) {
            sub.park(snapshot.epoch(), e);
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
    ) {
        // A candidate is fresh when this delta touched it, or when an
        // earlier skip absorbed a change to it: the carried engine may
        // still hold its old function either way.
        let absorbed = std::mem::take(&mut sub.absorbed);
        let is_fresh = |oid: Oid| delta.changed.contains(&oid) || absorbed.contains(&oid);
        let plan =
            match QueryPlanner::new(sub.policy).plan(Arc::clone(snapshot), sub.oid, sub.window) {
                Ok(plan) => plan,
                Err(e) => {
                    // The commit was absorbed by an (empty-answer)
                    // rebuild attempt.
                    sub.stats.rebuilt += 1;
                    return sub.park(now, e.to_string());
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
            if !is_fresh(oid) {
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
                    return sub.park(now, e.to_string());
                }
            }
        }
        let query_tr = query_tr.clone();
        let kernel = match sub.kind {
            SubKind::ForwardRows => match sub.row_kernel(store, snapshot) {
                Ok(kernel) => Some(kernel),
                Err(e) => {
                    sub.stats.rebuilt += 1;
                    return sub.park(now, e);
                }
            },
            _ => None,
        };
        // Cheapest re-eval first: when the delta provably leaves the
        // lower envelope unchanged, carry it (no O(M log M) rebuild) and
        // recompute only the touched candidates' intervals / dirty probe
        // columns; otherwise rebuild envelope and answer over the merged
        // function set.
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
        sub.stats.functions_reused += reused;
        sub.stats.functions_built += built;
        sub.engine = Some(engine);
        sub.query_tr = Some(query_tr);
        sub.proof = None;
        sub.commit_patch(answer, now);
    }

    /// The per-perspective incremental re-eval of a reverse
    /// subscription: every perspective object untouched by the delta and
    /// provably outside its reach (its own [`ForwardProof`], under the
    /// row obligation) carries its envelope *and* its sampled row
    /// wholesale; only touched, new, or unprovable perspectives pay the
    /// per-perspective difference + envelope build and re-sampling.
    /// Perspectives are carried or rebuilt whole, never from carried
    /// functions: a carried engine may hold the old function of a
    /// non-survivor whose change its proof cleared, but nothing reads
    /// it — the envelope and the band survivors are proven current, and
    /// a perspective that is not carried is built from every trajectory
    /// afresh.
    fn patch_reverse(
        sub: &mut ShareCore,
        store: &ModStore,
        snapshot: &Arc<QuerySnapshot>,
        now: u64,
        delta: &LoggedDelta,
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
                );
            }
        };
        let kernel = match sub.row_kernel(store, snapshot) {
            Ok(kernel) => kernel,
            Err(e) => {
                sub.stats.rebuilt += 1;
                return sub.park(now, e);
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
                return sub.park(now, e.to_string());
            }
        };
        let prev = match &sub.answer {
            SubAnswer::Rows(prev) => prev,
            SubAnswer::Intervals(_) => unreachable!("reverse subscriptions maintain rows"),
        };
        let (rows, recomputed) =
            rev.prob_row_set_reusing_kernel(&kernel, prev, &|oid| carried.contains(&oid));
        sub.stats.perspectives_skipped += carried.len() as u64;
        sub.stats.rows_patched += recomputed as u64;
        sub.rev = Some(Arc::new(rev));
        sub.commit_patch(SubAnswer::Rows(rows), now);
    }

    /// Evaluates `sub`'s standing query from scratch against `snapshot`
    /// and commits the result (carried engines, proofs, answer, emitted
    /// delta at the snapshot's epoch).
    pub(super) fn evaluate_into(
        sub: &mut ShareCore,
        store: &ModStore,
        snapshot: &Arc<QuerySnapshot>,
    ) -> Result<(), String> {
        let epoch = snapshot.epoch();
        sub.absorbed.clear();
        match sub.kind {
            SubKind::Intervals { rank } => {
                let (engine, query_tr, answer) =
                    evaluate(snapshot, sub.oid, sub.window, rank, sub.policy)?;
                sub.engine = Some(engine);
                sub.rev = None;
                sub.query_tr = Some(query_tr);
                sub.proof = None;
                sub.commit_answer(SubAnswer::Intervals(answer), epoch);
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
                sub.commit_answer(SubAnswer::Rows(rows), epoch);
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
                sub.commit_answer(SubAnswer::Rows(rows), epoch);
            }
        }
        Ok(())
    }
}

/// The empty answer of a subscription shape (shared by registration and
/// the park path).
fn empty_answer_of(kind: SubKind, oid: Oid, window: TimeInterval, samples: u32) -> SubAnswer {
    let rows = |perspective| SubAnswer::Rows(ProbRowSet::empty(oid, window, perspective, samples));
    match kind {
        SubKind::Intervals { rank } => SubAnswer::Intervals(AnswerSet::empty(oid, window, rank)),
        SubKind::ForwardRows => rows(RowPerspective::Forward),
        SubKind::ReverseRows => rows(RowPerspective::Reverse),
    }
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
/// cached until the engine is replaced. `RANK` shares check the
/// candidate rule ([`ForwardProof::ops_unaffected`]); the banded shares
/// — intervals without `RANK`, and threshold rows — check the
/// band-survivor rule with the exact stage behind the box
/// ([`ForwardProof::ops_unaffected_exact`]): an insertion the box
/// refuses is cleared iff its distance function passes the band test a
/// patch would run on it, so a skipped commit is one the patch would
/// have left unchanged. The candidates a skip absorbs are recorded, so
/// the next patch does not reuse their old functions.
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
    let unaffected = match (sub.kind, &sub.kernel) {
        (SubKind::Intervals { rank: Some(_) }, _) => proof.ops_unaffected(&ops),
        (SubKind::Intervals { rank: None }, _) | (SubKind::ForwardRows, Some(_)) => {
            let columns = sub.kernel.as_ref().map(|(_, k)| (sub.samples, k.band()));
            proof.ops_unaffected_exact(&ops, |tr| {
                CandidateSet::build(query_tr, std::iter::once(tr.trajectory()), &sub.window)
                    .is_ok_and(|set| {
                        set.functions()
                            .iter()
                            .all(|f| engine.admits_unchanged(f, columns))
                    })
            })
        }
        _ => proof.ops_unaffected_rows(&ops),
    };
    if unaffected {
        sub.stats.skipped += 1;
        sub.stats.skipped_ops += ops.len() as u64;
        sub.last_epoch = now;
        let absorbed = delta.changed.iter().filter(|&&oid| proof.is_candidate(oid));
        sub.absorbed.extend(absorbed);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscription::testutil::*;

    #[test]
    fn far_churn_is_skipped_and_near_mutations_patch() {
        let store = populated_store();
        let reg = Arc::new(SubscriptionRegistry::new());
        store.attach_subscriptions(&reg);
        reg.register(&store, "near0", star_query(), PrefilterPolicy::default())
            .unwrap();
        let sink = pull_sink(&reg, "near0");
        // A far insertion cannot touch the 4r band: the skip path runs
        // and no delta is emitted.
        store.insert(tr(50, 90_000.0)).unwrap();
        let info = reg.info("near0").unwrap();
        assert_eq!(info.stats.skipped, 1, "{info:?}");
        assert_eq!(info.last_epoch, store.epoch());
        assert_eq!(drain(&sink), vec![]);
        // A nearby insertion lands in the band: the patch path reuses the
        // old candidates' functions and emits an upsert for the newcomer.
        store.insert(tr(60, 0.5)).unwrap();
        let info = reg.info("near0").unwrap();
        assert_eq!(info.stats.patched, 1, "{info:?}");
        assert!(info.stats.functions_reused >= 2, "{info:?}");
        let deltas = drain(&sink);
        assert_eq!(deltas.len(), 1);
        let d = deltas[0].as_intervals().unwrap();
        assert!(d.upserts.iter().any(|e| e.oid == Oid(60)));
        assert_eq!(d.epoch, store.epoch());
        // Removing the newcomer emits the removal.
        store.remove(Oid(60)).unwrap();
        let deltas = drain(&sink);
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
        let sink = pull_sink(&reg, "hot0");
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
        assert_eq!(drain(&sink), vec![]);
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
        let folded = drain(&sink)
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
        let sink = pull_sink(&reg, "rev0");
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
        let folded = drain(&sink)
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
        let sink = pull_sink(&reg, "near0");
        // Moving the query object invalidates every difference function.
        store.remove(Oid(0)).unwrap();
        let info = reg.info("near0").unwrap();
        assert!(info.error.is_some(), "query object gone: {info:?}");
        assert!(reg.answer("near0").unwrap().is_empty());
        // Its answers emptied out through the sink…
        let deltas = drain(&sink);
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
}
