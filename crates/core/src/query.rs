//! The continuous probabilistic NN query variants of §4: Categories 1–4
//! (one trajectory or the whole MOD, with or without rank `k`) under a
//! temporal [`Quantifier`], whose rustdoc maps each paper name to the
//! answer value it decides.
//!
//! All answer values come from the lower envelope / IPAC-NN tree, with
//! the complexities of Claims 1–3. Naive baselines (recomputing the
//! envelope from scratch with the all-pairs algorithm on every query) live
//! in [`naive_queries`] and are what Figure 12 compares against.

use crate::algorithms::lower_envelope;
use crate::answer::{AnswerEntry, AnswerSet};
use crate::band::{inside_band_intervals, prune_by_band, BandStats};
use crate::envelope::Envelope;
use crate::ipac::{preorder, tree_over, IpacConfig, IpacTree};
use crate::kernel::{ColumnBatch, ColumnKernel};
use crate::probrows::{probe_time, ProbRow, ProbRowSet, RowPerspective};
use crate::topk::{knn_over, KnnAnswer};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, OnceLock};
use unn_geom::interval::{IntervalSet, TimeInterval};
use unn_traj::distance::DistanceFunction;
use unn_traj::trajectory::Oid;

/// The temporal quantifier of a §4 query, and the one place each of its
/// rules is decided.
///
/// Every variant of the paper's taxonomy is a quantifier applied to one
/// object's qualification intervals — for one named object, or for each
/// object of the whole MOD — with or without a rank bound `k`:
///
/// | paper | statement shape | answer value read |
/// |---|---|---|
/// | `UQ11(∃t)` / `UQ12(∀t)` / `UQ13(X%)` | `SELECT TrX … EXISTS` / `FORALL` / `ATLEAST x OF` `… PROB_NN(TrX, q, TIME) > 0` | [`QueryEngine::nonzero_intervals`]`(X)` |
/// | `UQ1` at `t = tf` | `SELECT TrX … AT t TIME IN …` | [`QueryEngine::nonzero_intervals`]`(X)` |
/// | `UQ21` / `UQ22` / `UQ23` and at `tf` | the same with `PROB_NN(TrX, q, TIME, RANK k)` | [`QueryEngine::rank_intervals`]`(X, k)` |
/// | `UQ31` / `UQ32` / `UQ33` and at `tf` | `SELECT * … PROB_NN(*, q, TIME) > 0` | each entry of [`QueryEngine::answer`] |
/// | `UQ41` / `UQ42` / `UQ43` and at `tf` | `SELECT * … PROB_NN(*, q, TIME, RANK k) > 0` | each entry of [`QueryEngine::ranked_answer_set`]`(k)` |
///
/// The §7 variants read the same rules: `PROB_RNN(…) > 0` decides
/// [`crate::reverse::ReverseNnEngine::rnn_intervals`] (one object) or the
/// entries of its `answer_set` (the whole MOD), per-object radii decide
/// [`crate::hetero::HeteroEngine::possible_intervals`], and a threshold
/// `> p` decides an object's sampled probability row through
/// [`Quantifier::holds_on_probes`]. An object absent from an answer
/// has the empty interval set. [`QueryEngine::uq11_exists`] answers
/// `UQ11` by an early-exit band test instead (Figure 12 times it).
#[derive(Debug, Clone, PartialEq)]
pub enum Quantifier {
    /// `EXISTS TIME IN [a, b]` — some instant (`UQx1`).
    Exists,
    /// `FORALL TIME IN [a, b]` — every instant (`UQx2`).
    Forall,
    /// `ATLEAST x OF TIME IN [a, b]` — fraction `x` of the window
    /// (`UQx3`).
    AtLeast(f64),
    /// `AT t TIME IN [a, b]` — the fixed instant `t` (the `t = tf`
    /// variant noted at the end of §4).
    At(f64),
}

impl Quantifier {
    /// Decides qualification intervals over `window`: `Exists` asks for a
    /// non-empty set, `Forall` for one covering the window (up to a
    /// slack of `1e-7` of its length, at least `1e-7`), `AtLeast(x)` for
    /// a covered fraction of at least `x`, and `At(t)` for one
    /// containing `t`.
    pub fn holds(&self, intervals: &IntervalSet, window: TimeInterval) -> bool {
        match *self {
            Quantifier::Exists => !intervals.is_empty(),
            Quantifier::Forall => intervals.covers_interval(window, 1e-7 * window.len().max(1.0)),
            Quantifier::AtLeast(x) => fraction_reaches(window_fraction(intervals, window), x),
            Quantifier::At(t) => intervals.covers(t),
        }
    }

    /// Decides a sampled probability row: `frac` is the fraction of its
    /// `samples` probes where the object's probability exceeds the
    /// statement's threshold. `Exists` asks for one such probe, `Forall`
    /// for every probe, `AtLeast(x)` for a fraction of at least `x`, and
    /// `At(t)` for `at(t)`, the caller's instant rule.
    pub fn holds_on_probes(&self, frac: f64, samples: u32, at: impl FnOnce(f64) -> bool) -> bool {
        match *self {
            Quantifier::Exists => frac > 0.0,
            Quantifier::Forall => frac >= 1.0 - 0.5 / samples as f64,
            Quantifier::AtLeast(x) => fraction_reaches(frac, x),
            Quantifier::At(t) => at(t),
        }
    }
}

/// The `X %` rule: a covered fraction `frac` qualifies for `ATLEAST x`
/// when it reaches `x` up to `1e-12` (the `UQ13` decision the Figure 12
/// baselines apply to their fractions too).
pub fn fraction_reaches(frac: f64, x: f64) -> bool {
    frac + 1e-12 >= x
}

/// The fraction of `window` that `intervals` cover (the `UQx3` value).
pub fn window_fraction(intervals: &IntervalSet, window: TimeInterval) -> f64 {
    intervals.total_len() / window.len()
}

/// Engine answering the §4 query variants for one query trajectory.
///
/// Construction performs the `O(N log N)` envelope preprocessing; each
/// Category 1 query then costs `O(N)` (Claim 1), Category 2 costs `O(kN)`
/// (Claim 2) after the first (cached) IPAC-tree build, and Category 3/4
/// iterate the per-object answers (Claim 3).
#[derive(Debug)]
pub struct QueryEngine {
    query: Oid,
    window: TimeInterval,
    radius: f64,
    fs: Vec<DistanceFunction>,
    envelope: Envelope,
    kept: Vec<usize>,
    stats: BandStats,
    /// Deepest IPAC tree built so far (depth, tree). A `Mutex` (not a
    /// `RefCell`) so built engines are `Sync` and can be shared through
    /// the epoch-keyed engine cache.
    tree_cache: Mutex<Option<(usize, IpacTree)>>,
    /// The engine's [`AnswerSet`], computed on the first
    /// [`QueryEngine::answer_set`]. It is a pure function of the fields
    /// above, so it lives and dies with the engine: a carried engine
    /// starts empty.
    answer: OnceLock<AnswerSet>,
}

impl QueryEngine {
    /// Builds the engine: computes the lower envelope (Algorithm 1) and
    /// the `4r`-band pruning pass over the given difference-trajectory
    /// distance functions (the query itself excluded).
    ///
    /// # Panics
    ///
    /// Panics when `fs` is empty or `radius` is not positive.
    pub fn new(query: Oid, fs: Vec<DistanceFunction>, radius: f64) -> Self {
        assert!(!fs.is_empty(), "query engine needs at least one candidate");
        assert!(
            radius.is_finite() && radius > 0.0,
            "invalid radius {radius}"
        );
        let envelope = lower_envelope(&fs);
        let (kept, stats) = prune_by_band(&fs, &envelope, radius);
        let window = envelope.span();
        QueryEngine {
            query,
            window,
            radius,
            fs,
            envelope,
            kept,
            stats,
            tree_cache: Mutex::new(None),
            answer: OnceLock::new(),
        }
    }

    /// The query trajectory's id.
    pub fn query(&self) -> Oid {
        self.query
    }

    /// The query window.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// The shared uncertainty radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The band half-width `4r`.
    pub fn band_delta(&self) -> f64 {
        4.0 * self.radius
    }

    /// The level-1 lower envelope.
    pub fn envelope(&self) -> &Envelope {
        &self.envelope
    }

    /// Pruning statistics (Figure 13's quantity).
    pub fn stats(&self) -> BandStats {
        self.stats
    }

    /// The candidate distance functions.
    pub fn functions(&self) -> &[DistanceFunction] {
        &self.fs
    }

    fn function_of(&self, oid: Oid) -> Option<&DistanceFunction> {
        self.fs.iter().find(|f| f.owner() == oid)
    }

    /// The continuous NN answer `A_nn(q)` (crisp semantics): the envelope
    /// owners with their intervals.
    pub fn continuous_nn_answer(&self) -> Vec<(Oid, TimeInterval)> {
        self.envelope.answer_sequence()
    }

    /// [`crate::topk::continuous_knn`] over [`QueryEngine::functions`],
    /// ranked from the engine's own envelope instead of a rebuilt one.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn continuous_knn(&self, k: usize) -> KnnAnswer {
        assert!(k >= 1, "k must be at least 1");
        knn_over(&self.fs, &self.envelope, self.window, k)
    }

    /// Attempts to build the engine for a *delta-adjacent* candidate set
    /// by **carrying this engine's envelope** instead of re-running the
    /// `O(N log N)` construction: succeeds only when the change provably
    /// leaves the lower envelope untouched —
    ///
    /// * no dropped or `fresh` owner realizes any envelope piece (its
    ///   old function contributed nothing to the pointwise minimum), and
    /// * every `fresh` function stays strictly above the envelope (it
    ///   can never become the minimum).
    ///
    /// Under those proofs the lower envelope of `fs` equals this
    /// engine's envelope, so the band structure carries over: unchanged
    /// candidates keep their kept/pruned status, and only `fresh`
    /// functions pay the band test. Returns `fs` back on failure so the
    /// caller can fall back to [`QueryEngine::new`].
    ///
    /// `fs` must share this engine's query and window, and `fresh(oid)`
    /// must hold for every function whose content differs from (or is
    /// absent in) this engine's set.
    pub fn carry_envelope(
        &self,
        fs: Vec<DistanceFunction>,
        radius: f64,
        fresh: &dyn Fn(Oid) -> bool,
    ) -> Result<QueryEngine, Vec<DistanceFunction>> {
        let envelope_owners: std::collections::BTreeSet<Oid> =
            self.envelope.pieces().iter().map(|p| p.owner).collect();
        let new_owners: std::collections::BTreeSet<Oid> = fs.iter().map(|f| f.owner()).collect();
        // Dropped or replaced functions must not have realized the
        // envelope anywhere.
        for f in &self.fs {
            let oid = f.owner();
            if (fresh(oid) || !new_owners.contains(&oid)) && envelope_owners.contains(&oid) {
                return Err(fs);
            }
        }
        let delta = 4.0 * radius;
        let old_kept: std::collections::BTreeSet<Oid> =
            self.kept.iter().map(|&i| self.fs[i].owner()).collect();
        let mut kept = Vec::new();
        for (idx, f) in fs.iter().enumerate() {
            let oid = f.owner();
            if fresh(oid) {
                // A fresh function must stay strictly above the envelope,
                // or the envelope itself would change.
                if crate::band::band_clearance(f, &self.envelope) <= 0.0 {
                    return Err(fs);
                }
                if crate::band::enters_band(f, &self.envelope, delta) {
                    kept.push(idx);
                }
            } else if old_kept.contains(&oid) {
                // Unchanged function against the unchanged envelope:
                // identical band status.
                kept.push(idx);
            }
        }
        let stats = BandStats {
            total: fs.len(),
            kept: kept.len(),
        };
        Ok(QueryEngine {
            query: self.query,
            window: self.window,
            radius,
            fs,
            envelope: self.envelope.clone(),
            kept,
            stats,
            tree_cache: Mutex::new(None),
            answer: OnceLock::new(),
        })
    }

    /// `true` when adding the candidate `f` (built against this engine's
    /// query and window, and owning none of its functions) provably
    /// changes none of its banded answers: `f` stays strictly above the
    /// envelope — [`QueryEngine::carry_envelope`]'s proof, so the envelope
    /// and every other candidate's band status carry — and never enters
    /// the `4r` band, so it would be pruned and own no interval. With
    /// `columns = Some((samples, band))` it must also stay outside the
    /// gather band `LE(t) + band` at each of the `samples` probes, so it
    /// would join no probability column either. This is the band test a
    /// patch runs on the function, without the patch.
    pub fn admits_unchanged(&self, f: &DistanceFunction, columns: Option<(u32, f64)>) -> bool {
        if crate::band::enters_band(f, &self.envelope, self.band_delta())
            || crate::band::band_clearance(f, &self.envelope) <= 0.0
        {
            return false;
        }
        let Some((samples, band)) = columns else {
            return true;
        };
        (0..samples).all(|k| {
            let t = probe_time(self.window, samples, k);
            match (self.envelope.eval(t), f.eval(t)) {
                (Some(le), Some(d)) => d > le + band,
                _ => true,
            }
        })
    }

    /// Owners of the candidates surviving the `4r`-band pruning — the
    /// only objects that can ever hold non-zero NN probability (and
    /// therefore the only possible probability-row owners).
    pub fn kept_owners(&self) -> impl Iterator<Item = Oid> + '_ {
        self.kept.iter().map(|&i| self.fs[i].owner())
    }

    /// The engine's sampled **probability rows** (the threshold-query
    /// substrate, see [`crate::probrows`]): the window is probed at
    /// [`probe_time`]'s `samples` instants and, per probe, the joint
    /// Eq. 5 `P^NN` vector over the in-band candidates is evaluated by
    /// `kernel` (gather → evaluate → scatter: all probe columns go into
    /// one flat batch, evaluated in a single pass). Each candidate's row
    /// holds its `P` value at exactly the probes where it was in-band —
    /// the row's provenance.
    ///
    /// # Panics
    ///
    /// Panics when `samples == 0`.
    pub fn prob_row_set_kernel(&self, kernel: &ColumnKernel, samples: u32) -> ProbRowSet {
        assert!(samples > 0, "need at least one probe");
        let window = self.window;
        let mut batch = ColumnBatch::default();
        for k in 0..samples {
            let t = probe_time(window, samples, k);
            if let Some(le) = self.envelope.eval(t) {
                batch.gather(k, &self.fs, le, t, kernel.band());
            }
        }
        let probs = kernel.evaluate(&batch);
        let mut points: BTreeMap<Oid, Vec<(u32, f64)>> = BTreeMap::new();
        for (k, ids, ps) in batch.columns(&probs) {
            for (oid, p) in ids.iter().zip(ps) {
                points.entry(*oid).or_default().push((k, *p));
            }
        }
        let rows = points
            .into_iter()
            .map(|(oid, points)| ProbRow { oid, points })
            .collect();
        ProbRowSet::new(self.query, window, RowPerspective::Forward, samples, rows)
    }

    /// Like [`QueryEngine::prob_row_set_kernel`], but **reusing** `prev`'s
    /// sampled values wherever the delta provably cannot have changed
    /// them: the dirty columns are gathered into one flat batch and
    /// evaluated in a single pass, clean columns are copied bit-for-bit.
    /// A probe column is *dirty* — and jointly recomputed — iff a
    /// `fresh` function is in-band there now, or a previously sampled
    /// value there was produced with a `fresh` (or since-dropped) owner
    /// among its inputs; every other column's values are pure functions
    /// of unchanged inputs and are copied bit-for-bit. Returns the set
    /// together with the number of rows that touched a dirty column
    /// (the incrementality the `rows_patched` counter observes).
    ///
    /// Sound exactly when this engine's envelope equals the one that
    /// produced `prev` (see [`QueryEngine::carry_envelope`]) and every
    /// non-fresh owner's distance function is unchanged.
    pub fn prob_row_set_reusing_kernel(
        &self,
        kernel: &ColumnKernel,
        prev: &ProbRowSet,
        fresh: &dyn Fn(Oid) -> bool,
    ) -> (ProbRowSet, usize) {
        let samples = prev.samples();
        let window = self.window;
        // Envelope values per probe, shared by the dirty-marking pass
        // and the recompute pass.
        let les: Vec<Option<f64>> = (0..samples)
            .map(|k| self.envelope.eval(probe_time(window, samples, k)))
            .collect();
        let delta = kernel.band();
        let mut dirty = vec![false; samples as usize];
        // A fresh function entering the band at a probe joins that
        // column's joint evaluation: dirty.
        for f in &self.fs {
            if !fresh(f.owner()) {
                continue;
            }
            for k in 0..samples {
                if dirty[k as usize] {
                    continue;
                }
                if let (Some(le), Some(d)) =
                    (les[k as usize], f.eval(probe_time(window, samples, k)))
                {
                    if d <= le + delta {
                        dirty[k as usize] = true;
                    }
                }
            }
        }
        // A previously sampled column whose provenance includes a fresh
        // or since-dropped owner was produced with now-invalid inputs:
        // dirty.
        let current: BTreeSet<Oid> = self.fs.iter().map(|f| f.owner()).collect();
        for r in prev.rows() {
            if fresh(r.oid) || !current.contains(&r.oid) {
                for (k, _) in &r.points {
                    dirty[*k as usize] = true;
                }
            }
        }
        let mut batch = ColumnBatch::default();
        for k in 0..samples {
            if !dirty[k as usize] {
                continue;
            }
            let Some(le) = les[k as usize] else { continue };
            let t = probe_time(window, samples, k);
            batch.gather(k, &self.fs, le, t, delta);
        }
        let probs = kernel.evaluate(&batch);
        let mut points: BTreeMap<Oid, Vec<(u32, f64)>> = BTreeMap::new();
        for (k, ids, ps) in batch.columns(&probs) {
            for (oid, p) in ids.iter().zip(ps) {
                points.entry(*oid).or_default().push((k, *p));
            }
        }
        let touched = points.len();
        // Clean columns: copy each surviving non-fresh owner's old
        // values (membership there is unchanged, so the copy is
        // complete), then merge with the recomputed dirty columns.
        for r in prev.rows() {
            if fresh(r.oid) || !current.contains(&r.oid) {
                continue;
            }
            let slot = points.entry(r.oid).or_default();
            slot.extend(r.points.iter().filter(|(k, _)| !dirty[*k as usize]));
            slot.sort_by_key(|p| p.0);
        }
        let rows = points
            .into_iter()
            .map(|(oid, points)| ProbRow { oid, points })
            .collect();
        (
            ProbRowSet::new(self.query, window, RowPerspective::Forward, samples, rows),
            touched,
        )
    }

    /// Times during which `oid` has non-zero probability of being the NN
    /// (inside the `4r` band). `None` for unknown ids.
    pub fn nonzero_intervals(&self, oid: Oid) -> Option<IntervalSet> {
        let f = self.function_of(oid)?;
        Some(inside_band_intervals(f, &self.envelope, self.band_delta()))
    }

    /// `UQ11(∃t)` as the early-exit band-entry test Figure 12 times:
    /// does `oid` enter the closed `4r` band at some time? It differs
    /// from [`Quantifier::Exists`] over the intervals only at a tangency.
    pub fn uq11_exists(&self, oid: Oid) -> Option<bool> {
        let f = self.function_of(oid)?;
        Some(crate::band::enters_band(
            f,
            &self.envelope,
            self.band_delta(),
        ))
    }

    // ------------------------------------------------------------------
    // Category 2 (rank k)
    // ------------------------------------------------------------------

    /// The IPAC tree of the given depth (`0` = unbounded), grown from
    /// the engine's own envelope and band pass.
    fn build_tree(&self, depth: usize) -> IpacTree {
        let cfg = IpacConfig::with_depth(self.radius, depth);
        let envelope = self.envelope.clone();
        tree_over(self.query, &self.fs, &self.kept, envelope, self.stats, &cfg)
    }

    /// Runs `f` against an IPAC tree of depth at least `k`, building (or
    /// deepening) the cached tree on demand.
    fn with_tree<R>(&self, k: usize, f: impl FnOnce(&IpacTree) -> R) -> R {
        let mut cache = self.tree_cache.lock().expect("tree cache poisoned");
        if cache.as_ref().map_or(true, |(depth, _)| *depth < k) {
            *cache = Some((k, self.build_tree(k)));
        }
        f(&cache.as_ref().expect("tree built above").1)
    }

    /// Times during which `oid` appears at level `<= k` of the IPAC tree
    /// **and** has non-zero probability (is inside the `4r` band): the
    /// instants where it is a possible k-th highest-probability NN —
    /// its entry in [`QueryEngine::ranked_answer_set`].
    pub fn rank_intervals(&self, oid: Oid, k: usize) -> Option<IntervalSet> {
        self.function_of(oid)?;
        let ranked = self.ranked_answer_set(k);
        Some(ranked.intervals_of(oid).cloned().unwrap_or_default())
    }

    // ------------------------------------------------------------------
    // Category 3 (whole MOD)
    // ------------------------------------------------------------------

    /// The engine's whole answer as a diffable [`AnswerSet`]: every kept
    /// object with its non-zero-probability qualification intervals,
    /// ascending by id. Category 3 queries — and the subscription layer's
    /// incremental answer maintenance — are views over this object.
    /// Computed once per engine; later calls clone the memo.
    pub fn answer_set(&self) -> AnswerSet {
        self.answer().clone()
    }

    /// [`QueryEngine::answer_set`] by reference: the memo itself,
    /// computed on the first call.
    pub fn answer(&self) -> &AnswerSet {
        self.answer.get_or_init(|| {
            let entries = self
                .kept
                .iter()
                .map(|&i| {
                    let f = &self.fs[i];
                    AnswerEntry {
                        oid: f.owner(),
                        intervals: inside_band_intervals(f, &self.envelope, self.band_delta()),
                    }
                })
                .collect();
            AnswerSet::new(self.query, self.window, None, entries)
        })
    }

    /// Like [`QueryEngine::answer_set`], but **reusing** `prev`'s
    /// interval content for every kept owner where `fresh(oid)` does not
    /// hold — only fresh owners pay the band-interval computation.
    ///
    /// Sound exactly when this engine's envelope equals the one that
    /// produced `prev` (see [`QueryEngine::carry_envelope`]) and every
    /// non-fresh owner's distance function is unchanged: the intervals
    /// are then pure functions of unchanged inputs. An owner absent from
    /// `prev` had empty intervals and stays absent.
    pub fn answer_set_reusing(&self, prev: &AnswerSet, fresh: &dyn Fn(Oid) -> bool) -> AnswerSet {
        let entries = self
            .kept
            .iter()
            .map(|&i| {
                let f = &self.fs[i];
                let oid = f.owner();
                let intervals = if fresh(oid) {
                    inside_band_intervals(f, &self.envelope, self.band_delta())
                } else {
                    prev.intervals_of(oid).cloned().unwrap_or_default()
                };
                AnswerEntry { oid, intervals }
            })
            .collect();
        AnswerSet::new(self.query, self.window, None, entries)
    }

    /// Like [`QueryEngine::answer_set`], restricted to rank `≤ k`: each
    /// object's intervals are the instants where it is a possible k-th
    /// highest-probability NN (the Category 4 substrate).
    pub fn ranked_answer_set(&self, k: usize) -> AnswerSet {
        let mut spans: BTreeMap<Oid, Vec<TimeInterval>> = BTreeMap::new();
        self.with_tree(k, |tree| {
            for n in preorder(&tree.roots).into_iter().filter(|n| n.level <= k) {
                spans.entry(n.owner).or_default().push(n.span);
            }
        });
        // A node span covers where the object is the k-th *lowest*; the
        // probabilistic semantics additionally require non-zero
        // probability at the instant, i.e. membership in the band.
        let mut entries = Vec::new();
        for e in self.answer().entries() {
            if let Some(spans) = spans.remove(&e.oid) {
                let intervals = IntervalSet::from_intervals(spans).intersect(&e.intervals);
                entries.push(AnswerEntry {
                    oid: e.oid,
                    intervals,
                });
            }
        }
        AnswerSet::new(self.query, self.window, Some(k), entries)
    }

    /// `UQ31(∃t)` as `(oid, intervals)` pairs: [`QueryEngine::answer_set`]
    /// consumed, ascending by id.
    pub fn uq31_all(&self) -> Vec<(Oid, IntervalSet)> {
        self.answer_set().into_pairs()
    }

    /// Builds (or returns the cached) IPAC tree of the given depth for
    /// external consumption. `depth == 0` means unbounded.
    pub fn ipac_tree(&self, depth: usize) -> IpacTree {
        if depth == 0 {
            self.build_tree(0)
        } else {
            self.with_tree(depth, IpacTree::clone)
        }
    }
}

/// Naive baselines for Figure 12: every query recomputes the envelope
/// from scratch with the O(N² log N) all-pairs algorithm — no shared
/// preprocessing.
pub mod naive_queries {
    use super::*;
    use crate::naive::lower_envelope_naive;

    /// Naive `UQ11`: recompute the envelope, then test the band.
    pub fn uq11_exists(fs: &[DistanceFunction], oid: Oid, radius: f64) -> Option<bool> {
        let f = fs.iter().find(|f| f.owner() == oid)?;
        let le = lower_envelope_naive(fs);
        Some(crate::band::enters_band(f, &le, 4.0 * radius))
    }

    /// Naive `UQ13`: recompute the envelope, then accumulate the inside
    /// intervals into their fraction of the window (decide it with
    /// [`fraction_reaches`]).
    pub fn uq13_fraction(fs: &[DistanceFunction], oid: Oid, radius: f64) -> Option<f64> {
        let f = fs.iter().find(|f| f.owner() == oid)?;
        let le = lower_envelope_naive(fs);
        let inside = inside_band_intervals(f, &le, 4.0 * radius);
        Some(window_fraction(&inside, le.span()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_geom::hyperbola::Hyperbola;
    use unn_geom::point::Vec2;

    fn flyby(owner: u64, x0: f64, y: f64, v: f64, w: TimeInterval) -> DistanceFunction {
        DistanceFunction::single(
            Oid(owner),
            w,
            Hyperbola::from_relative_motion(Vec2::new(x0, y), Vec2::new(v, 0.0), 0.0),
        )
    }

    fn engine() -> QueryEngine {
        let w = TimeInterval::new(0.0, 10.0);
        let fs = vec![
            flyby(1, -5.0, 1.0, 1.0, w), // dips to 1 at t=5
            flyby(2, -2.0, 2.0, 1.0, w), // dips to 2 at t=2
            flyby(3, -8.0, 3.0, 1.0, w), // dips to 3 at t=8
            flyby(4, 0.0, 50.0, 0.0, w), // unreachable
        ];
        QueryEngine::new(Oid(0), fs, 0.5)
    }

    #[test]
    fn uq11_existential() {
        let e = engine();
        assert_eq!(e.uq11_exists(Oid(1)), Some(true));
        assert_eq!(e.uq11_exists(Oid(2)), Some(true));
        assert_eq!(e.uq11_exists(Oid(4)), Some(false));
        assert_eq!(e.uq11_exists(Oid(99)), None);
    }

    /// `q` over `oid`'s non-zero-probability intervals (`UQ1x`).
    fn uq1(e: &QueryEngine, q: Quantifier, oid: u64) -> Option<bool> {
        Some(q.holds(&e.nonzero_intervals(Oid(oid))?, e.window()))
    }

    /// `oid`'s fraction of the window with non-zero probability (`UQ13`).
    fn fraction(e: &QueryEngine, oid: u64) -> Option<f64> {
        Some(window_fraction(&e.nonzero_intervals(Oid(oid))?, e.window()))
    }

    /// `q` over `oid`'s rank-`k` intervals (`UQ2x`).
    fn uq2(e: &QueryEngine, q: Quantifier, oid: u64, k: usize) -> Option<bool> {
        Some(q.holds(&e.rank_intervals(Oid(oid), k)?, e.window()))
    }

    #[test]
    fn forall_is_coverage_of_the_window() {
        let e = engine();
        // Object 4 never; the close flybys are in-band only part-time
        // (their distance grows far beyond LE + 2 near the window edges)...
        assert_eq!(uq1(&e, Quantifier::Forall, 4), Some(false));
        // Sanity: fractions in [0, 1], consistent with UQ12.
        for oid in [1, 2, 3] {
            let frac = fraction(&e, oid).unwrap();
            assert!((0.0..=1.0 + 1e-9).contains(&frac));
            let always = uq1(&e, Quantifier::Forall, oid).unwrap();
            assert_eq!(always, frac >= 1.0 - 1e-6, "oid {oid} frac {frac}");
        }
        assert_eq!(uq1(&e, Quantifier::Forall, 99), None);
    }

    #[test]
    fn fraction_matches_dense_sampling() {
        let e = engine();
        for oid in [1u64, 2, 3, 4] {
            let frac = fraction(&e, oid).unwrap();
            let f = e.function_of(Oid(oid)).unwrap();
            let mut hits = 0usize;
            let n = 2000;
            for k in 0..n {
                let t = e.window().start() + (k as f64 + 0.5) * e.window().len() / n as f64;
                if f.eval(t).unwrap() <= e.envelope().eval(t).unwrap() + e.band_delta() {
                    hits += 1;
                }
            }
            let sampled = hits as f64 / n as f64;
            assert!(
                (frac - sampled).abs() < 0.01,
                "oid {oid}: engine {frac} vs sampled {sampled}"
            );
        }
    }

    #[test]
    fn fixed_time_variant() {
        let e = engine();
        // Near t=5, object 1 realizes the envelope: inside its own band.
        assert_eq!(uq1(&e, Quantifier::At(5.0), 1), Some(true));
        assert_eq!(uq1(&e, Quantifier::At(5.0), 4), Some(false));
        assert_eq!(uq1(&e, Quantifier::At(20.0), 1), Some(false)); // outside window
    }

    #[test]
    fn rank_queries() {
        let e = engine();
        // Rank 1 at t=5 is object 1; object 2 is rank <= 2 around there.
        assert_eq!(uq2(&e, Quantifier::Exists, 1, 1), Some(true));
        assert_eq!(uq2(&e, Quantifier::Exists, 4, 3), Some(false));
        let r1 = e.rank_intervals(Oid(1), 1).unwrap();
        assert!(r1.covers(5.0));
        let r2 = e.rank_intervals(Oid(2), 2).unwrap();
        assert!(r2.covers(2.0));
        // Monotonicity: rank intervals grow with k.
        let a = e.rank_intervals(Oid(3), 1).unwrap().total_len();
        let b = e.rank_intervals(Oid(3), 2).unwrap().total_len();
        let c = e.rank_intervals(Oid(3), 3).unwrap().total_len();
        assert!(a <= b + 1e-9 && b <= c + 1e-9, "{a} {b} {c}");
    }

    #[test]
    fn rank_quantifiers_are_consistent() {
        let e = engine();
        for oid in [1u64, 2, 3] {
            for k in [1usize, 2, 3] {
                let frac = window_fraction(&e.rank_intervals(Oid(oid), k).unwrap(), e.window());
                assert!((0.0..=1.0 + 1e-9).contains(&frac));
                assert_eq!(
                    uq2(&e, Quantifier::Forall, oid, k).unwrap(),
                    frac >= 1.0 - 1e-6,
                    "oid {oid} k {k} frac {frac}"
                );
                assert_eq!(
                    uq2(&e, Quantifier::Exists, oid, k).unwrap(),
                    frac > 0.0,
                    "oid {oid} k {k}"
                );
            }
        }
    }

    /// The whole-MOD objects of `answer` that `q` admits (`UQx2`/`UQx3`).
    fn admitted(answer: &AnswerSet, q: Quantifier) -> Vec<Oid> {
        let w = answer.window();
        answer
            .entries()
            .iter()
            .filter(|e| q.holds(&e.intervals, w))
            .map(|e| e.oid)
            .collect()
    }

    #[test]
    fn category_3_retrievals() {
        let e = engine();
        let all = e.uq31_all();
        let oids: Vec<Oid> = all.iter().map(|(o, _)| *o).collect();
        assert!(oids.contains(&Oid(1)));
        assert!(oids.contains(&Oid(2)));
        assert!(oids.contains(&Oid(3)));
        assert!(!oids.contains(&Oid(4)));
        // UQ33 with x=0 returns everything UQ31 returned.
        assert_eq!(
            admitted(e.answer(), Quantifier::AtLeast(0.0)).len(),
            all.len()
        );
        // With x=1.01 nothing qualifies.
        assert!(admitted(e.answer(), Quantifier::AtLeast(1.01)).is_empty());
        // UQ32 result is a subset of UQ31 owners.
        for oid in admitted(e.answer(), Quantifier::Forall) {
            assert!(oids.contains(&oid));
        }
    }

    #[test]
    fn category_4_retrievals() {
        let e = engine();
        let k2 = e.ranked_answer_set(2);
        let k3 = e.ranked_answer_set(3);
        assert!(k2.len() <= k3.len());
        // With k = 3 every in-band object ranks somewhere.
        let oids: Vec<Oid> = k3.entries().iter().map(|e| e.oid).collect();
        assert!(oids.contains(&Oid(1)) && oids.contains(&Oid(2)) && oids.contains(&Oid(3)));
        for oid in admitted(&k3, Quantifier::AtLeast(0.5)) {
            let frac = k3.fraction_of(oid);
            assert!(frac >= 0.5, "{oid} {frac}");
        }
    }

    #[test]
    fn quantifier_rules_on_intervals_and_probes() {
        let w = TimeInterval::new(0.0, 10.0);
        let half = IntervalSet::from_intervals([TimeInterval::new(0.0, 5.0)]);
        let empty = IntervalSet::default();
        let full = IntervalSet::from_intervals([TimeInterval::new(0.0, 10.0 - 1e-7)]);
        assert!(Quantifier::Exists.holds(&half, w) && !Quantifier::Exists.holds(&empty, w));
        assert!(Quantifier::Forall.holds(&full, w) && !Quantifier::Forall.holds(&half, w));
        assert!(Quantifier::AtLeast(0.5).holds(&half, w));
        assert!(!Quantifier::AtLeast(0.5 + 1e-9).holds(&half, w));
        // ATLEAST 0 admits even the empty set: its fraction is zero.
        assert!(Quantifier::AtLeast(0.0).holds(&empty, w));
        assert!(Quantifier::At(5.0).holds(&half, w) && !Quantifier::At(5.5).holds(&half, w));
        // Rows: the fraction of probes above the threshold, 8 probes.
        let never = |_: f64| -> bool { panic!("only AT t reads the instant rule") };
        assert!(Quantifier::Exists.holds_on_probes(0.125, 8, never));
        assert!(!Quantifier::Exists.holds_on_probes(0.0, 8, never));
        assert!(Quantifier::Forall.holds_on_probes(1.0, 8, never));
        assert!(!Quantifier::Forall.holds_on_probes(0.875, 8, never));
        assert!(Quantifier::AtLeast(0.25).holds_on_probes(0.25, 8, never));
        assert!(Quantifier::At(3.0).holds_on_probes(0.0, 8, |t| t == 3.0));
    }

    #[test]
    fn carry_envelope_matches_fresh_construction() {
        let w = TimeInterval::new(0.0, 10.0);
        let base = vec![
            flyby(1, -5.0, 1.0, 1.0, w),
            flyby(2, -2.0, 2.0, 1.0, w),
            flyby(3, -8.0, 3.0, 1.0, w),
            flyby(4, 0.0, 50.0, 0.0, w),
        ];
        let old = QueryEngine::new(Oid(0), base.clone(), 0.5);
        // The answer is computed by the first call and kept.
        assert!(old.answer.get().is_none());
        let first = old.answer_set();
        assert_eq!(old.answer.get(), Some(&first));
        assert_eq!(old.answer_set(), first);
        // Nudge the far object (never an envelope owner, stays far above
        // the envelope) and add another far newcomer.
        let mut fs = base.clone();
        fs[3] = flyby(4, 0.0, 49.0, 0.0, w);
        fs.push(flyby(5, 0.0, 60.0, 0.0, w));
        let fresh = |oid: Oid| oid == Oid(4) || oid == Oid(5);
        let carried = old
            .carry_envelope(fs.clone(), 0.5, &fresh)
            .expect("far delta must carry");
        assert!(
            carried.answer.get().is_none(),
            "a carried engine starts unmemoised"
        );
        let rebuilt = QueryEngine::new(Oid(0), fs, 0.5);
        assert_eq!(carried.envelope().pieces(), old.envelope().pieces());
        assert_eq!(carried.answer_set(), rebuilt.answer_set());
        assert_eq!(
            carried.answer_set_reusing(&old.answer_set(), &fresh),
            rebuilt.answer_set()
        );
        assert_eq!(carried.stats().kept, rebuilt.stats().kept);
        // Touching an envelope owner defeats the proof…
        let mut near = base.clone();
        near[0] = flyby(1, -5.0, 0.5, 1.0, w);
        assert!(old.carry_envelope(near, 0.5, &|oid| oid == Oid(1)).is_err());
        // …and so does dropping one.
        let dropped: Vec<DistanceFunction> = base.iter().skip(1).cloned().collect();
        assert!(old.carry_envelope(dropped, 0.5, &|_| false).is_err());
        // A newcomer dipping below the envelope is refused too.
        let mut dips = base.clone();
        dips.push(flyby(9, -5.0, 0.1, 1.0, w));
        assert!(old.carry_envelope(dips, 0.5, &|oid| oid == Oid(9)).is_err());
    }

    #[test]
    fn engine_tree_is_the_tree_of_its_functions() {
        use crate::ipac::build_ipac_tree;
        let w = TimeInterval::new(0.0, 10.0);
        let base = vec![
            flyby(1, -5.0, 1.0, 1.0, w),
            flyby(2, -2.0, 2.0, 1.0, w),
            flyby(3, -8.0, 3.0, 1.0, w),
            flyby(4, 0.0, 50.0, 0.0, w),
            flyby(6, -5.0, 1.8, 1.0, w),
        ];
        let old = QueryEngine::new(Oid(0), base.clone(), 0.5);
        let mut fs = base.clone();
        fs[3] = flyby(4, 0.0, 49.0, 0.0, w);
        fs.push(flyby(5, 0.0, 60.0, 0.0, w));
        let carried = old
            .carry_envelope(fs.clone(), 0.5, &|oid| oid == Oid(4) || oid == Oid(5))
            .expect("far delta carries");
        for (engine, fs) in [(&old, &base), (&carried, &fs)] {
            // Ascending, so each call deepens the cached tree to exactly d.
            for d in 1..=3 {
                let fresh = build_ipac_tree(Oid(0), fs, &IpacConfig::with_depth(0.5, d));
                let tree = engine.ipac_tree(d);
                assert_eq!(tree.roots, fresh.roots, "depth {d}");
                assert_eq!(tree.envelope, fresh.envelope, "depth {d}");
            }
            // The per-owner formula: each kept owner's spans at levels
            // 1..=k, inside its non-zero-probability intervals.
            for k in 1..=3 {
                let tree = build_ipac_tree(Oid(0), fs, &IpacConfig::with_depth(0.5, k));
                let entries = engine
                    .kept_owners()
                    .map(|oid| {
                        let spans = (1..=k)
                            .flat_map(|level| tree.level_pieces(level))
                            .filter(|(owner, _)| *owner == oid)
                            .map(|(_, iv)| iv);
                        let inside = engine.nonzero_intervals(oid).unwrap();
                        AnswerEntry {
                            oid,
                            intervals: IntervalSet::from_intervals(spans).intersect(&inside),
                        }
                    })
                    .collect();
                let oracle = AnswerSet::new(Oid(0), w, Some(k), entries);
                assert!(!oracle.is_empty());
                assert_eq!(engine.ranked_answer_set(k), oracle, "k {k}");
            }
        }
    }

    #[test]
    fn prob_rows_reused_across_a_far_delta_are_bit_identical() {
        use unn_prob::uniform_diff::UniformDifferencePdf;
        let w = TimeInterval::new(0.0, 10.0);
        let base = vec![
            flyby(1, -5.0, 1.0, 1.0, w),
            flyby(2, -2.0, 2.0, 1.0, w),
            flyby(3, -8.0, 3.0, 1.0, w),
            flyby(4, 0.0, 50.0, 0.0, w),
            // Shadows 1 at 1.8 (in-band around t = 5), never below it.
            flyby(6, -5.0, 1.8, 1.0, w),
        ];
        // One kernel throughout, so every evaluation after the first two
        // of a column reads its remembered blocks; `cold` is a fresh
        // kernel's evaluation.
        let kernel = ColumnKernel::new(&UniformDifferencePdf::new(0.5));
        let cold = |fs: Vec<DistanceFunction>| {
            QueryEngine::new(Oid(0), fs, 0.5)
                .prob_row_set_kernel(&ColumnKernel::new(&UniformDifferencePdf::new(0.5)), 32)
        };
        let old = QueryEngine::new(Oid(0), base.clone(), 0.5);
        let prev = old.prob_row_set_kernel(&kernel, 32);
        assert!(prev.row_of(Oid(1)).is_some());
        assert!(prev.row_of(Oid(4)).is_none(), "out-of-band object rowless");
        // The far object nudged plus a far newcomer: carried, no column
        // dirty.
        let mut fs = base.clone();
        fs[3] = flyby(4, 0.0, 49.0, 0.0, w);
        fs.push(flyby(5, 0.0, 60.0, 0.0, w));
        let fresh = |oid: Oid| oid == Oid(4) || oid == Oid(5);
        let carried = old
            .carry_envelope(fs.clone(), 0.5, &fresh)
            .expect("far delta carries");
        let (reused, touched) = carried.prob_row_set_reusing_kernel(&kernel, &prev, &fresh);
        let rebuilt = QueryEngine::new(Oid(0), fs.clone(), 0.5).prob_row_set_kernel(&kernel, 32);
        assert_eq!(
            reused.bits(),
            rebuilt.bits(),
            "reused rows must be bit-identical"
        );
        assert_eq!(rebuilt.bits(), cold(fs).bits());
        assert_eq!(touched, 0, "far-only delta recomputes no row");
        // A touched in-band candidate that stays above the envelope
        // carries it and forces a joint recompute of its columns — still
        // bit-identical to a cold sweep.
        let mut shadow = base.clone();
        shadow[4] = flyby(6, -5.0, 1.9, 1.0, w);
        let carried2 = old
            .carry_envelope(shadow.clone(), 0.5, &|oid| oid == Oid(6))
            .expect("an in-band move above the envelope carries");
        let (reused2, touched2) =
            carried2.prob_row_set_reusing_kernel(&kernel, &prev, &|oid| oid == Oid(6));
        assert_eq!(reused2.bits(), cold(shadow).bits());
        assert!(touched2 >= 1, "the touched candidate's columns recompute");
        // Moving an envelope owner (3 is the nearest around t = 8), or an
        // entering object that takes an envelope piece, refuses the carry:
        // the rows of the rebuilt engine, through the same kernel, equal
        // a cold sweep bit for bit.
        let mut moved = base.clone();
        moved[2] = flyby(3, -8.0, 3.5, 1.0, w);
        let mut entered = base.clone();
        entered.push(flyby(9, -5.0, 0.1, 1.0, w));
        for (fs, touched) in [(moved, Oid(3)), (entered, Oid(9))] {
            let Err(fs) = old.carry_envelope(fs, 0.5, &|oid| oid == touched) else {
                panic!("{touched} redraws the envelope: the carry must be refused");
            };
            let rows = QueryEngine::new(Oid(0), fs.clone(), 0.5).prob_row_set_kernel(&kernel, 32);
            assert_eq!(rows.bits(), cold(fs).bits(), "{touched}");
        }
    }

    #[test]
    fn naive_queries_agree_with_engine() {
        let w = TimeInterval::new(0.0, 10.0);
        let fs = vec![
            flyby(1, -5.0, 1.0, 1.0, w),
            flyby(2, -2.0, 2.0, 1.0, w),
            flyby(3, -8.0, 3.0, 1.0, w),
            flyby(4, 0.0, 50.0, 0.0, w),
        ];
        let e = QueryEngine::new(Oid(0), fs.clone(), 0.5);
        for oid in [1u64, 2, 3, 4] {
            assert_eq!(
                naive_queries::uq11_exists(&fs, Oid(oid), 0.5),
                e.uq11_exists(Oid(oid)),
                "uq11 oid {oid}"
            );
            let nf = naive_queries::uq13_fraction(&fs, Oid(oid), 0.5).unwrap();
            let ef = fraction(&e, oid).unwrap();
            assert!((nf - ef).abs() < 1e-6, "uq13 oid {oid}: {nf} vs {ef}");
        }
    }

    #[test]
    fn continuous_answer_is_time_parameterized() {
        let e = engine();
        let ans = e.continuous_nn_answer();
        assert!(!ans.is_empty());
        // Intervals tile the window.
        assert_eq!(ans.first().unwrap().1.start(), 0.0);
        assert_eq!(ans.last().unwrap().1.end(), 10.0);
        for w in ans.windows(2) {
            assert!((w[0].1.end() - w[1].1.start()).abs() < 1e-9);
            assert_ne!(w[0].0, w[1].0);
        }
    }
}
