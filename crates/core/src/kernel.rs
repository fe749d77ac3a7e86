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
//!    evaluation — 32 shared arc nodes, one radical each — at the fixed
//!    32-point outer order of `unn_prob::nn_prob::NnConfig::default()`;
//!    there is no density knob.
//! 3. **Scatter** — callers zip the flat result back into
//!    [`crate::probrows::ProbRowSet`] columns (or pick the single owner
//!    they care about).
//!
//! The evaluator is a pure function of `(profile, distances)` built from
//! correctly-rounded IEEE operations in a source-fixed order (see
//! [`unn_prob::profile`]'s determinism section), so a column's bits do not
//! depend on which consumer, batch, process or CPU evaluated it.

use std::sync::Arc;
use unn_prob::pdf::RadialPdf;
use unn_prob::profile::{nn_probabilities_profiled, NnScratch, ProfiledPdf};
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

/// The shared column evaluator: one profiled difference pdf.
///
/// Cheap to build from an already-profiled pdf
/// ([`ColumnKernel::from_profile`]); [`ColumnKernel::new`] profiles on the
/// spot for one-shot callers.
#[derive(Debug)]
pub struct ColumnKernel {
    profile: Arc<ProfiledPdf>,
}

impl ColumnKernel {
    /// Profiles `pdf` and builds the kernel.
    pub fn new(pdf: &dyn RadialPdf) -> Self {
        Self::from_profile(Arc::new(ProfiledPdf::of(pdf)))
    }

    /// Builds the kernel around an existing profile (the store-wide cache
    /// hands these out).
    pub fn from_profile(profile: Arc<ProfiledPdf>) -> Self {
        ColumnKernel { profile }
    }

    /// The gather band: `2 · support` — the `4r` rule for uniform pairs.
    pub fn band(&self) -> f64 {
        2.0 * self.profile.support_radius()
    }

    /// Evaluates every column of the batch; the result is index-aligned
    /// with the batch's flat work items (see [`ColumnBatch::columns`]).
    pub fn evaluate(&self, batch: &ColumnBatch) -> Vec<f64> {
        let mut probs = vec![0.0; batch.ids.len()];
        let mut scratch = NnScratch::default();
        let mut out = Vec::new();
        for &(_, start, len) in &batch.cols {
            let (s, e) = (start as usize, (start + len) as usize);
            nn_probabilities_profiled(&self.profile, &batch.dists[s..e], &mut scratch, &mut out);
            probs[s..e].copy_from_slice(&out);
        }
        probs
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
    use unn_geom::hyperbola::Hyperbola;
    use unn_geom::interval::TimeInterval;
    use unn_geom::point::Vec2;
    use unn_prob::UniformDifferencePdf;

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
}
