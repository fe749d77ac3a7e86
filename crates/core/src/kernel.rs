//! The batched probability **column kernel**: gather → evaluate → scatter.
//!
//! Every consumer of Eq. 5 columns — cold row sweeps, patched recomputes,
//! one-shot threshold views, RNN perspective rows, IPAC annotation — used
//! to evaluate one `(probe, candidate)` pair at a time through
//! `&dyn RadialPdf`, paying adaptive-quadrature and virtual-dispatch cost
//! per sample. [`ColumnKernel`] restructures the work:
//!
//! 1. **Gather** — the dirty probe columns of a maintenance round are
//!    collected into one [`ColumnBatch`]: flat `(owner, distance)` arrays
//!    plus `(sample, start, len)` column descriptors. No pdf objects, no
//!    `Arc`s — just contiguous `f64`s.
//! 2. **Evaluate** — [`ColumnKernel::evaluate`] runs the profiled Eq. 5
//!    evaluator ([`unn_prob::profile`]) over each column slice,
//!    structure-of-arrays, sharing one scratch allocation across the whole
//!    batch and one [`ProfiledPdf`] across every candidate. Per active
//!    (candidate, outer node) pair that is **one** fused `(P^WD, pdf^WD)`
//!    evaluation — 24 shared arc nodes, one radical each — at 4, 8 or
//!    16 outer nodes per segment, picked from the segment's length, the
//!    segments cut at every kink of Eq. 5's integrand (`unn_prob::profile`,
//!    "Accuracy"). That is not `unn_prob::nn_prob::NnConfig::default()`'s
//!    32 points over segments cut only at each `rmin`; there is no
//!    density knob.
//! 3. **Scatter** — callers zip the flat result back into
//!    [`crate::probrows::ProbRowSet`] columns (or pick the single owner
//!    they care about).
//!
//! The evaluator is a pure function of `(profile, distances)` built from
//! correctly-rounded IEEE operations in a source-fixed order (see
//! [`unn_prob::profile`]'s determinism section), so a column's bits do not
//! depend on which consumer, batch, process or CPU evaluated it.
//!
//! # Memo
//!
//! The evaluator works in quadrature blocks — the outer-node values of
//! one candidate distance `d` in one segment `(a, b)`, 4, 8 or 16 nodes
//! as the segment's length has it — and can copy any
//! block whose `(a, b, d)` bits a previous evaluation's
//! [`BlockList`] holds ([`unn_prob::profile`], "Memo"). A kernel keeps
//! one such list per **probe index**: evaluating column `k` reads the
//! blocks its last evaluation left and leaves its own. A kernel that
//! lives across commits — a threshold share's, in `unn-modb` — therefore
//! re-integrates only the `(segment, candidate)` pairs whose inputs
//! changed since the probe was last evaluated, whether the column is
//! patched under a carried envelope or re-evaluated in full after an
//! envelope rebuild. The result is the same bits either way.
//!
//! A column is remembered only from its **second** evaluation on: the
//! first leaves an empty list behind. One-shot sweeps, fresh-kernel
//! reference evaluations and a share that is never patched therefore
//! hold no blocks at all; a maintained share holds at most one
//! evaluation per probe — for a column of `n` in-band candidates, one
//! block per candidate and segment it is active in: at most about `3n²`
//! (up to `3n` segments, cut at each `rmin`, `d` and `S − d`), and 9.4
//! per row value on `examples/kernel_digest.rs`'s corpus, of 96, 160 or
//! 288 bytes by its width (149 on average there; [`ColumnKernel::memo_bytes`]
//! sums them). Reverse (`PROB_RNN`) rows evaluate
//! every perspective's column `k` through the same index, so their memo
//! is bounded the same way but rarely hits.
//!
//! [`ColumnKernel::block_counts`] reports how many blocks the kernel
//! computed and how many it copied from the memo, over its whole life.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use unn_prob::pdf::RadialPdf;
use unn_prob::profile::{nn_probabilities_profiled, BlockList, ProfiledPdf};
use unn_traj::distance::DistanceFunction;
use unn_traj::trajectory::Oid;

/// A batch of probe columns gathered into flat arrays.
///
/// `ids`/`dists` are index-aligned; each column descriptor names its
/// probe sample index and its `[start, start+len)` slice of the arrays.
#[derive(Debug, Default)]
pub struct ColumnBatch {
    ids: Vec<Oid>,
    dists: Vec<f64>,
    cols: Vec<(u32, u32, u32)>,
}

impl ColumnBatch {
    /// Drops all gathered columns, keeping the allocations.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.dists.clear();
        self.cols.clear();
    }

    /// Gathers the column at probe instant `t` (sample index `k`): every
    /// function inside the band `LE(t) + band` contributes one work item.
    /// Returns `true` when the column is non-empty (and was recorded).
    pub fn gather(&mut self, k: u32, fs: &[DistanceFunction], le: f64, t: f64, band: f64) -> bool {
        let start = self.ids.len();
        for f in fs {
            if let Some(d) = f.eval(t) {
                if d <= le + band {
                    self.ids.push(f.owner());
                    self.dists.push(d);
                }
            }
        }
        let len = self.ids.len() - start;
        if len == 0 {
            return false;
        }
        self.cols.push((k, start as u32, len as u32));
        true
    }

    /// Iterates the batch's columns zipped with an evaluation result:
    /// `(sample index, owners, probabilities)` per column.
    pub fn columns<'a>(
        &'a self,
        probs: &'a [f64],
    ) -> impl Iterator<Item = (u32, &'a [Oid], &'a [f64])> + 'a {
        debug_assert_eq!(probs.len(), self.ids.len());
        self.cols.iter().map(move |&(k, start, len)| {
            let (s, e) = (start as usize, (start + len) as usize);
            (k, &self.ids[s..e], &probs[s..e])
        })
    }
}

/// The shared column evaluator: one profiled difference pdf, and the
/// memo of the columns it evaluated (module docs).
///
/// Cheap to build from an already-profiled pdf
/// ([`ColumnKernel::from_profile`]); [`ColumnKernel::new`] profiles on the
/// spot for one-shot callers. A clone is a second handle on the same
/// kernel: it shares the profile and the memo.
#[derive(Clone)]
pub struct ColumnKernel {
    profile: Arc<ProfiledPdf>,
    /// Per probe index: `None` until the column's first evaluation, then
    /// the blocks of its latest one — an empty list after the first, so
    /// that only a column evaluated again is remembered. A `Mutex` (as
    /// `QueryEngine`'s IPAC cache) keeps the kernel `Sync`; it is held
    /// only to take a list out and to put one back, never while
    /// evaluating.
    memo: Arc<Mutex<Vec<Option<BlockList>>>>,
    /// Blocks evaluated since the kernel was built: `computed` ran the
    /// quadrature, `copied` were read back from the memo.
    computed: Arc<AtomicUsize>,
    copied: Arc<AtomicUsize>,
}

impl fmt::Debug for ColumnKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let memo = self.memo.lock().expect("kernel memo poisoned");
        let kept = memo.iter().flatten().filter(|list| !list.is_empty());
        f.debug_struct("ColumnKernel")
            .field("support", &self.profile.support_radius())
            .field("memo_columns", &kept.clone().count())
            .field("memo_blocks", &kept.map(BlockList::len).sum::<usize>())
            .finish()
    }
}

impl ColumnKernel {
    /// Profiles `pdf` and builds the kernel.
    pub fn new(pdf: &dyn RadialPdf) -> Self {
        Self::from_profile(Arc::new(ProfiledPdf::of(pdf)))
    }

    /// Builds the kernel around an existing profile (the store-wide cache
    /// hands these out).
    pub fn from_profile(profile: Arc<ProfiledPdf>) -> Self {
        ColumnKernel {
            profile,
            memo: Default::default(),
            computed: Default::default(),
            copied: Default::default(),
        }
    }

    /// The gather band: `2 · support` — the `4r` rule for uniform pairs.
    pub fn band(&self) -> f64 {
        2.0 * self.profile.support_radius()
    }

    /// Bytes the memo's quadrature blocks hold over all probe indices
    /// ([`BlockList::bytes`]), read under the memo's lock.
    pub fn memo_bytes(&self) -> usize {
        let memo = self.memo.lock().expect("kernel memo poisoned");
        memo.iter().flatten().map(BlockList::bytes).sum()
    }

    /// `(computed, copied)`: quadrature blocks this kernel (and every
    /// clone of it) evaluated since it was built, and blocks it read back
    /// from the memo instead.
    pub fn block_counts(&self) -> (usize, usize) {
        (
            self.computed.load(AtomicOrdering::Relaxed),
            self.copied.load(AtomicOrdering::Relaxed),
        )
    }

    /// Evaluates every column of the batch; the result is index-aligned
    /// with the batch's flat work items (see [`ColumnBatch::columns`]).
    /// Each column reads the blocks this kernel remembers for its probe
    /// index and leaves its own behind (module docs).
    pub fn evaluate(&self, batch: &ColumnBatch) -> Vec<f64> {
        let mut probs = vec![0.0; batch.ids.len()];
        let (empty, mut next, mut out) = (BlockList::default(), BlockList::default(), Vec::new());
        for &(k, start, len) in &batch.cols {
            let (s, e) = (start as usize, (start + len) as usize);
            let prev = self.take(k);
            let computed = nn_probabilities_profiled(
                &self.profile,
                &batch.dists[s..e],
                prev.as_ref().unwrap_or(&empty),
                &mut next,
                &mut out,
            );
            probs[s..e].copy_from_slice(&out);
            self.computed.fetch_add(computed, AtomicOrdering::Relaxed);
            self.copied
                .fetch_add(next.len() - computed, AtomicOrdering::Relaxed);
            // A first evaluation leaves an empty list; a later one keeps
            // its blocks, at their own size, and the list it read
            // becomes the next scratch.
            let kept = match prev {
                None => BlockList::default(),
                Some(prev) => {
                    let mut kept = std::mem::replace(&mut next, prev);
                    kept.shrink_to_fit();
                    kept
                }
            };
            self.put(k, kept);
        }
        probs
    }

    /// Takes column `k`'s list out of the memo (`None`: never evaluated,
    /// or out with a concurrent evaluation of the same index — either
    /// way the column is evaluated cold).
    fn take(&self, k: u32) -> Option<BlockList> {
        let mut memo = self.memo.lock().expect("kernel memo poisoned");
        memo.get_mut(k as usize).and_then(Option::take)
    }

    /// Puts column `k`'s list (back) into the memo.
    fn put(&self, k: u32, list: BlockList) {
        let mut memo = self.memo.lock().expect("kernel memo poisoned");
        let k = k as usize;
        if memo.len() <= k {
            memo.resize_with(k + 1, || None);
        }
        memo[k] = Some(list);
    }

    /// Gathers and evaluates a single column — the one-shot entry point
    /// (threshold probes, IPAC annotation). Returns `(owner, P^NN)` pairs
    /// in the functions' iteration order.
    pub fn column(&self, fs: &[DistanceFunction], le: f64, t: f64) -> Vec<(Oid, f64)> {
        let mut batch = ColumnBatch::default();
        if !batch.gather(0, fs, le, t, self.band()) {
            return Vec::new();
        }
        let probs = self.evaluate(&batch);
        batch.ids.into_iter().zip(probs).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateSet;
    use crate::probrows::probe_time;
    use unn_geom::hyperbola::Hyperbola;
    use unn_geom::interval::TimeInterval;
    use unn_geom::point::Vec2;
    use unn_prob::UniformDifferencePdf;
    use unn_traj::generator::{generate, WorkloadConfig};
    use unn_traj::trajectory::{Trajectory, TrajectorySample};

    fn flyby(owner: u64, x0: f64, y: f64, v: f64) -> DistanceFunction {
        DistanceFunction::single(
            Oid(owner),
            TimeInterval::new(0.0, 10.0),
            Hyperbola::from_relative_motion(Vec2::new(x0, y), Vec2::new(v, 0.0), 0.0),
        )
    }

    fn fleet() -> Vec<DistanceFunction> {
        vec![
            flyby(1, -5.0, 1.0, 1.0),
            flyby(2, -2.0, 1.4, 1.0),
            flyby(3, -6.0, 0.9, 1.0),
            flyby(4, 0.0, 50.0, 0.0),
        ]
    }

    #[test]
    fn batched_column_matches_single_column() {
        let fs = fleet();
        let kernel = ColumnKernel::new(&UniformDifferencePdf::new(0.5));
        let le = 1.5;
        let single = kernel.column(&fs, le, 5.0);
        let mut batch = ColumnBatch::default();
        assert!(batch.gather(3, &fs, le, 5.0, kernel.band()));
        assert!(batch.gather(4, &fs, le, 6.0, kernel.band()));
        let probs = kernel.evaluate(&batch);
        let (k, ids, ps) = kernel_first_column(&batch, &probs);
        assert_eq!(k, 3);
        assert_eq!(ids.len(), single.len());
        for ((oid, p), (bid, bp)) in single.iter().zip(ids.iter().zip(ps)) {
            assert_eq!(oid, bid);
            assert_eq!(p.to_bits(), bp.to_bits());
        }
    }

    fn kernel_first_column<'a>(
        batch: &'a ColumnBatch,
        probs: &'a [f64],
    ) -> (u32, &'a [Oid], &'a [f64]) {
        batch.columns(probs).next().expect("non-empty batch")
    }

    fn computed(kernel: &ColumnKernel) -> usize {
        kernel.block_counts().0
    }

    /// `(columns, blocks)` the kernel remembers.
    fn remembered(kernel: &ColumnKernel) -> (usize, usize) {
        let memo = kernel.memo.lock().unwrap();
        let kept: Vec<usize> = memo.iter().flatten().map(BlockList::len).collect();
        (kept.iter().filter(|&&n| n > 0).count(), kept.iter().sum())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_column_is_remembered_from_its_second_evaluation_on() {
        let fs = fleet();
        let kernel = ColumnKernel::new(&UniformDifferencePdf::new(0.5));
        let mut batch = ColumnBatch::default();
        assert!(batch.gather(3, &fs, 1.5, 5.0, kernel.band()));
        assert!(batch.gather(4, &fs, 1.5, 6.0, kernel.band()));
        let first = kernel.evaluate(&batch);
        let cold = computed(&kernel);
        assert!(cold > 0);
        assert_eq!(
            remembered(&kernel),
            (0, 0),
            "the first evaluation keeps nothing"
        );
        let second = kernel.evaluate(&batch);
        assert_eq!(computed(&kernel), 2 * cold, "nothing to read back yet");
        assert_eq!(remembered(&kernel), (2, cold), "the second is kept");
        let third = kernel.evaluate(&batch);
        assert_eq!(computed(&kernel), 2 * cold, "every block read back");
        assert_eq!(kernel.block_counts(), (2 * cold, cold));
        assert_eq!(bits(&first), bits(&second));
        assert_eq!(bits(&first), bits(&third));
        assert_eq!(
            format!("{kernel:?}"),
            format!("ColumnKernel {{ support: 1.0, memo_columns: 2, memo_blocks: {cold} }}")
        );
    }

    /// A list the memo keeps is sized to its own blocks: after a wide
    /// batch, a narrow one's columns are evaluated in the wide lists'
    /// scratch, and what they leave behind holds no spare room.
    #[test]
    fn kept_lists_hold_no_spare_capacity() {
        let wide: Vec<DistanceFunction> = (1..=20)
            .map(|i| flyby(i, -5.0, 1.0 + 0.05 * i as f64, 1.0))
            .collect();
        let kernel = ColumnKernel::new(&UniformDifferencePdf::new(0.5));
        let batch = |fs: &[DistanceFunction]| {
            let mut batch = ColumnBatch::default();
            assert!(batch.gather(3, fs, 1.0, 5.0, kernel.band()));
            assert!(batch.gather(4, fs, 1.0, 6.0, kernel.band()));
            batch
        };
        let (wide, narrow) = (batch(&wide), batch(&fleet()));
        kernel.evaluate(&wide);
        kernel.evaluate(&wide);
        let (_, wide_blocks) = remembered(&kernel);
        let fresh = ColumnKernel::new(&UniformDifferencePdf::new(0.5));
        let want = fresh.evaluate(&narrow);
        assert_eq!(bits(&kernel.evaluate(&narrow)), bits(&want));
        let (columns, narrow_blocks) = remembered(&kernel);
        assert_eq!(columns, 2);
        assert!(
            narrow_blocks * 4 < wide_blocks,
            "{narrow_blocks} vs {wide_blocks}"
        );
        for list in kernel.memo.lock().unwrap().iter().flatten() {
            assert!(
                list.allocated_bytes() <= list.bytes(),
                "{list:?}: {}",
                list.allocated_bytes()
            );
        }
    }

    /// The query's own path shifted by `(dx, dy)`, as `oid`.
    fn shifted(tr: &Trajectory, oid: Oid, dx: f64, dy: f64) -> Trajectory {
        let samples = tr
            .samples()
            .iter()
            .map(|s| TrajectorySample::new(s.position.x + dx, s.position.y + dy, s.time))
            .collect();
        Trajectory::new(oid, samples).unwrap()
    }

    #[test]
    fn a_kept_kernel_recomputes_a_fraction_of_the_blocks_across_a_band_entry_and_exit() {
        // The corpus of `examples/kernel_digest.rs`, and a band object on
        // each query object's own path, a constant distance off: up to
        // 1.8 mi (where `near_churn` parks its entries), inside the 4r
        // band for the whole window, and closer than the query's nearest
        // neighbour somewhere — so it redraws the envelope and the rows
        // are re-evaluated in full, as on 13 of `near_churn`'s 16 spots.
        const RADIUS: f64 = 0.5;
        const SAMPLES: u32 = 128;
        let fleet = generate(&WorkloadConfig::with_objects(600, 0xEDB7_2009));
        let window = TimeInterval::new(0.0, 60.0);
        let pdf = Arc::new(ProfiledPdf::of(&UniformDifferencePdf::new(RADIUS)));
        for q in [0usize, 150, 300, 450] {
            let query = &fleet[q];
            let engine = |extra: Option<&Trajectory>| {
                let others = fleet.iter().filter(|t| t.oid() != query.oid()).chain(extra);
                CandidateSet::build(query, others, &window)
                    .unwrap()
                    .into_query_engine(RADIUS)
            };
            let without = engine(None);
            let farthest_nn = (0..SAMPLES)
                .filter_map(|k| without.envelope().eval(probe_time(window, SAMPLES, k)))
                .fold(0.0, f64::max);
            let offset = (0.9 * farthest_nn).min(1.8);
            let band = shifted(query, Oid(600), 0.6 * offset, 0.8 * offset);
            let with = engine(Some(&band));
            assert!(
                without
                    .carry_envelope(with.functions().to_vec(), RADIUS, &|o| o == band.oid())
                    .is_err(),
                "query {q}: the band object must take an envelope piece"
            );
            let kept = ColumnKernel::from_profile(Arc::clone(&pdf));
            // Registration and a first patch: from here on every column
            // is remembered.
            for _ in 0..2 {
                without.prob_row_set_kernel(&kept, SAMPLES);
            }
            for (step, engine, bound) in [
                ("entry", &with, 0.30),
                ("exit", &without, 0.16),
                ("entry again", &with, 0.30),
            ] {
                let fresh = ColumnKernel::from_profile(Arc::clone(&pdf));
                let want = engine.prob_row_set_kernel(&fresh, SAMPLES);
                let before = computed(&kept);
                let got = engine.prob_row_set_kernel(&kept, SAMPLES);
                let share = (computed(&kept) - before) as f64 / computed(&fresh) as f64;
                assert_eq!(got.bits(), want.bits(), "query {q}, {step}");
                assert!(
                    share <= bound,
                    "query {q}, {step}: {:.1} % of the cold blocks recomputed",
                    100.0 * share
                );
            }
        }
    }
}
