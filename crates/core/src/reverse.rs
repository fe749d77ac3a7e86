//! Continuous probabilistic **reverse** NN queries and **all-pairs**
//! answers — two of the paper's future-work variants (§7):
//!
//! > "we are planning to address other variants of continuous
//! > probabilistic NN queries (e.g., all pairs, reverse)".
//!
//! The *reverse* NN of the query `Tr_q` is the set of objects that have
//! `Tr_q` as a (possible) nearest neighbor: object `i` belongs to the
//! probabilistic RNN answer during the times where `Tr_q` has non-zero
//! probability of being `i`'s NN — i.e. where, **from `i`'s perspective**,
//! the distance function `d_qi(t)` enters the `4r` band over the lower
//! envelope of *all other* objects' distances to `i` (§3.2's criterion
//! with `i` in the role of the query). Since distances are symmetric
//! (`d_qi = d_iq`), the construction reuses the difference-trajectory
//! machinery verbatim with the roles swapped; the answer structure is the
//! per-object analogue of Category 1, and the full RNN retrieval is the
//! Category 3 analogue.
//!
//! The *all-pairs* answer materializes, for **every** object in the MOD,
//! its time-parameterized continuous NN answer `A_nn(·)` and its
//! possible-NN sets — `N` envelope constructions, `O(N² log N)` total,
//! which is also the cost of the RNN engine (each candidate needs its own
//! envelope; this is inherent, the reverse relation is not symmetric).

use crate::kernel::{ColumnBatch, ColumnKernel};
use crate::probrows::{probe_time, ProbRow, ProbRowSet, RowPerspective};
use crate::query::QueryEngine;
use std::sync::Arc;
use unn_geom::interval::{IntervalSet, TimeInterval};
use unn_traj::difference::{difference_distances, difference_distances_refs, DifferenceError};
use unn_traj::trajectory::{Oid, Trajectory};

/// Engine answering continuous probabilistic *reverse* NN queries: which
/// objects may have the query as their nearest neighbor, and when.
#[derive(Debug)]
pub struct ReverseNnEngine {
    query: Oid,
    window: TimeInterval,
    /// One forward engine per non-query object `i`, from `i`'s
    /// perspective (its candidate set contains the query). `Arc`-shared
    /// so incremental rebuilds ([`ReverseNnEngine::build_reusing`]) can
    /// carry untouched perspectives without cloning their envelopes.
    engines: Vec<(Oid, Arc<QueryEngine>)>,
}

impl ReverseNnEngine {
    /// Builds the engine over all `trajectories` (the query included) for
    /// the window. Each non-query object gets its own lower envelope; the
    /// total cost is `O(N² log N)`.
    ///
    /// # Errors
    ///
    /// Propagates [`DifferenceError`] when the window is degenerate or
    /// falls outside some trajectory's domain.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two trajectories are supplied, `query` is
    /// not among them, or `radius` is not positive.
    pub fn new(
        trajectories: &[Trajectory],
        query: Oid,
        window: TimeInterval,
        radius: f64,
    ) -> Result<Self, DifferenceError> {
        let refs: Vec<&Trajectory> = trajectories.iter().collect();
        ReverseNnEngine::build(&refs, query, window, radius)
    }

    /// Like [`ReverseNnEngine::new`], but over borrowed trajectories (the
    /// shared-snapshot pipeline entry point). The `N` per-perspective
    /// envelope constructions are independent, so they are chunked across
    /// scoped threads; the perspective order (and every answer) matches
    /// the sequential construction exactly.
    pub fn build(
        trajectories: &[&Trajectory],
        query: Oid,
        window: TimeInterval,
        radius: f64,
    ) -> Result<Self, DifferenceError> {
        ReverseNnEngine::build_reusing(trajectories, query, window, radius, |_| None)
    }

    /// Like [`ReverseNnEngine::build`], but **reusing** already-built
    /// perspective engines: for each perspective object, `reuse(oid)`
    /// may hand back a carried engine (an `Arc` clone, no construction)
    /// instead of paying the per-perspective difference + envelope
    /// build. The caller is responsible for the carry proof — a reused
    /// engine must answer identically to a fresh build over
    /// `trajectories` (see the per-perspective proof in the
    /// subscription layer). Perspective order (and every answer)
    /// matches the from-scratch construction exactly.
    pub fn build_reusing<F>(
        trajectories: &[&Trajectory],
        query: Oid,
        window: TimeInterval,
        radius: f64,
        reuse: F,
    ) -> Result<Self, DifferenceError>
    where
        F: Fn(Oid) -> Option<Arc<QueryEngine>> + Sync,
    {
        assert!(
            trajectories.len() >= 2,
            "reverse NN needs at least two objects"
        );
        assert!(
            radius.is_finite() && radius > 0.0,
            "invalid radius {radius}"
        );
        assert!(
            trajectories.iter().any(|t| t.oid() == query),
            "query trajectory must be in the collection"
        );
        let perspectives: Vec<&Trajectory> = trajectories
            .iter()
            .copied()
            .filter(|t| t.oid() != query)
            .collect();
        let engines = unn_traj::par::par_map(&perspectives, 8, |tr| {
            if let Some(carried) = reuse(tr.oid()) {
                return Ok((tr.oid(), carried));
            }
            let fs = difference_distances_refs(tr, trajectories.iter().copied(), &window)?;
            Ok::<_, DifferenceError>((tr.oid(), Arc::new(QueryEngine::new(tr.oid(), fs, radius))))
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        Ok(ReverseNnEngine {
            query,
            window,
            engines,
        })
    }

    /// The query trajectory's id.
    pub fn query(&self) -> Oid {
        self.query
    }

    /// The query window.
    pub fn window(&self) -> TimeInterval {
        self.window
    }

    /// The per-object forward engines (perspective object, engine). The
    /// engine of object `i` answers "who can be `i`'s NN".
    pub fn perspective_engines(&self) -> impl Iterator<Item = (Oid, &QueryEngine)> {
        self.engines.iter().map(|(oid, e)| (*oid, e.as_ref()))
    }

    /// The `Arc`-shared engine of one perspective object — what an
    /// incremental rebuild hands back through
    /// [`ReverseNnEngine::build_reusing`] for provably untouched
    /// perspectives.
    pub fn perspective_engine_arc(&self, oid: Oid) -> Option<Arc<QueryEngine>> {
        self.engines
            .iter()
            .find(|(o, _)| *o == oid)
            .map(|(_, e)| Arc::clone(e))
    }

    fn engine_of(&self, oid: Oid) -> Option<&QueryEngine> {
        self.engines
            .iter()
            .find(|(o, _)| *o == oid)
            .map(|(_, e)| e.as_ref())
    }

    /// Times during which the query has non-zero probability of being
    /// `oid`'s nearest neighbor. `None` for unknown (or the query's own)
    /// id.
    pub fn rnn_intervals(&self, oid: Oid) -> Option<IntervalSet> {
        self.engine_of(oid)?.nonzero_intervals(self.query)
    }

    /// The probabilistic RNN retrieval (the Category 3 analogue) as a
    /// diffable [`crate::answer::AnswerSet`]: every object whose
    /// qualification intervals (times during which the query may be its
    /// NN) are non-empty, with those intervals. A boundary-touching
    /// object with measure-zero qualification is absent. The reverse
    /// quantifiers are [`crate::query::Quantifier`]'s rules over these
    /// intervals.
    pub fn answer_set(&self) -> crate::answer::AnswerSet {
        let entries = self
            .engines
            .iter()
            .filter_map(|(oid, e)| {
                Some(crate::answer::AnswerEntry {
                    oid: *oid,
                    intervals: e.nonzero_intervals(self.query)?,
                })
            })
            .collect();
        crate::answer::AnswerSet::new(self.query, self.window, None, entries)
    }

    /// The engine's sampled reverse **probability rows** (the
    /// `PROB_RNN` standing-query substrate, see [`crate::probrows`]):
    /// per perspective object `i`, the window is probed at
    /// [`probe_time`]'s `samples` instants and, wherever the query's
    /// difference function is inside `i`'s band, the query's `P^NN`
    /// among `i`'s in-band candidates is evaluated by `kernel` (every
    /// perspective shares the one profiled difference pdf; each
    /// perspective's probe columns are gathered and evaluated as one
    /// batch). Row `i` therefore holds `P(query is i's NN at t)` at
    /// exactly the probes where that probability is non-zero.
    ///
    /// # Panics
    ///
    /// Panics when `samples == 0`.
    pub fn prob_row_set_kernel(&self, kernel: &ColumnKernel, samples: u32) -> ProbRowSet {
        assert!(samples > 0, "need at least one probe");
        let rows = unn_traj::par::par_map(&self.engines, 8, |(oid, engine)| {
            self.perspective_row(*oid, engine, kernel, samples)
        })
        .into_iter()
        .flatten()
        .collect();
        ProbRowSet::new(
            self.query,
            self.window,
            RowPerspective::Reverse,
            samples,
            rows,
        )
    }

    /// Like [`ReverseNnEngine::prob_row_set_kernel`], but copying `prev`'s row
    /// for every perspective where `carried(oid)` holds — including its
    /// *absence* (a perspective whose band the query never entered stays
    /// rowless without re-probing). Only non-carried perspectives pay
    /// the sampled evaluation. Returns the set together with the number
    /// of perspectives recomputed.
    ///
    /// Sound exactly when every carried perspective's engine answers
    /// identically to a fresh build — the per-perspective carry proof
    /// the subscription layer derives (untouched object, ops provably
    /// outside its envelope and band).
    pub fn prob_row_set_reusing_kernel(
        &self,
        kernel: &ColumnKernel,
        prev: &ProbRowSet,
        carried: &(dyn Fn(Oid) -> bool + Sync),
    ) -> (ProbRowSet, usize) {
        let samples = prev.samples();
        let recomputed = std::sync::atomic::AtomicUsize::new(0);
        let rows = unn_traj::par::par_map(&self.engines, 8, |(oid, engine)| {
            if carried(*oid) {
                return prev.row_of(*oid).cloned();
            }
            recomputed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.perspective_row(*oid, engine, kernel, samples)
        })
        .into_iter()
        .flatten()
        .collect();
        (
            ProbRowSet::new(
                self.query,
                self.window,
                RowPerspective::Reverse,
                samples,
                rows,
            ),
            recomputed.into_inner(),
        )
    }

    /// One perspective's sampled row: the query's `P^NN` from `oid`'s
    /// viewpoint at every probe where the query is in `oid`'s band.
    fn perspective_row(
        &self,
        oid: Oid,
        engine: &QueryEngine,
        kernel: &ColumnKernel,
        samples: u32,
    ) -> Option<ProbRow> {
        // Gather this perspective's probe columns into one batch, then
        // evaluate in a single pass and keep the query's values.
        let mut batch = ColumnBatch::default();
        for k in 0..samples {
            let t = probe_time(self.window, samples, k);
            if let Some(le) = engine.envelope().eval(t) {
                batch.gather(k, engine.functions(), le, t, kernel.band());
            }
        }
        let probs = kernel.evaluate(&batch);
        let mut points = Vec::new();
        for (k, ids, ps) in batch.columns(&probs) {
            if let Some(pos) = ids.iter().position(|o| *o == self.query) {
                points.push((k, ps[pos]));
            }
        }
        (!points.is_empty()).then_some(ProbRow { oid, points })
    }

    /// The *crisp* RNN answer: the times during which the query **is**
    /// `oid`'s nearest neighbor by expected locations (the classic
    /// reverse-NN relation of Benetis et al., obtained as the `delta = 0`
    /// degeneration of the band test).
    pub fn crisp_rnn_intervals(&self, oid: Oid) -> Option<IntervalSet> {
        let e = self.engine_of(oid)?;
        let f = e.functions().iter().find(|f| f.owner() == self.query)?;
        Some(crate::band::inside_band_intervals(f, e.envelope(), 0.0))
    }

    /// The crisp RNN retrieval: objects whose (expected-location) NN is
    /// the query at some time, with the times.
    pub fn crisp_rnn_all(&self) -> Vec<(Oid, IntervalSet)> {
        self.engines
            .iter()
            .filter_map(|(oid, _)| {
                let iv = self.crisp_rnn_intervals(*oid)?;
                if iv.is_empty() {
                    None
                } else {
                    Some((*oid, iv))
                }
            })
            .collect()
    }
}

/// The continuous NN answer of one object in an all-pairs pass.
#[derive(Debug, Clone)]
pub struct PairAnswer {
    /// The object whose neighbors are described.
    pub subject: Oid,
    /// Its crisp time-parameterized answer `A_nn(subject)` (§1).
    pub sequence: Vec<(Oid, TimeInterval)>,
    /// Its probabilistic possible-NN sets (UQ31 from its perspective).
    pub possible: Vec<(Oid, IntervalSet)>,
}

/// The **all-pairs** continuous NN answer: for every object, its crisp NN
/// sequence and its possible-NN sets. `O(N² log N)` in total.
///
/// # Errors
///
/// Propagates [`DifferenceError`] from the difference-trajectory
/// construction.
///
/// # Panics
///
/// Panics when fewer than two trajectories are supplied or `radius` is
/// not positive.
pub fn all_pairs_nn(
    trajectories: &[Trajectory],
    window: TimeInterval,
    radius: f64,
) -> Result<Vec<PairAnswer>, DifferenceError> {
    assert!(
        trajectories.len() >= 2,
        "all-pairs needs at least two objects"
    );
    assert!(
        radius.is_finite() && radius > 0.0,
        "invalid radius {radius}"
    );
    let mut out = Vec::with_capacity(trajectories.len());
    for tr in trajectories {
        let fs = difference_distances(tr, trajectories, &window)?;
        let engine = QueryEngine::new(tr.oid(), fs, radius);
        out.push(PairAnswer {
            subject: tr.oid(),
            sequence: engine.continuous_nn_answer(),
            possible: engine.uq31_all(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{window_fraction, Quantifier};

    fn straight(oid: u64, x0: f64, y0: f64, vx: f64, vy: f64) -> Trajectory {
        Trajectory::from_triples(
            Oid(oid),
            &[(x0, y0, 0.0), (x0 + vx * 10.0, y0 + vy * 10.0, 10.0)],
        )
        .unwrap()
    }

    /// q at the origin (static); a near q; b near a but farther from q.
    fn line_setup() -> Vec<Trajectory> {
        vec![
            straight(0, 0.0, 0.0, 0.0, 0.0),
            straight(1, 1.0, 0.0, 0.0, 0.0),
            straight(2, 1.9, 0.0, 0.0, 0.0),
        ]
    }

    #[test]
    fn crisp_reverse_is_asymmetric() {
        // Forward: q's NN is a (distance 1). Reverse: a's NN is b
        // (0.9 < 1), b's NN is a — so the crisp RNN of q is empty even
        // though q has a forward NN.
        let trs = line_setup();
        let w = TimeInterval::new(0.0, 10.0);
        let e = ReverseNnEngine::new(&trs, Oid(0), w, 0.01).unwrap();
        assert!(e.crisp_rnn_all().is_empty());
        // The forward answer is non-empty (sanity via all-pairs).
        let pairs = all_pairs_nn(&trs, w, 0.01).unwrap();
        let q_answer = pairs.iter().find(|p| p.subject == Oid(0)).unwrap();
        assert_eq!(q_answer.sequence, vec![(Oid(1), w)]);
    }

    #[test]
    fn probabilistic_reverse_widens_with_radius() {
        let trs = line_setup();
        let w = TimeInterval::new(0.0, 10.0);
        // With a tiny radius, q is not a possible NN of a (gap 0.1 > 4r).
        let tight = ReverseNnEngine::new(&trs, Oid(0), w, 0.02).unwrap();
        assert!(!Quantifier::Exists.holds(&tight.rnn_intervals(Oid(1)).unwrap(), w));
        // With r = 0.1 the band 4r = 0.4 exceeds the 0.1 gap: possible.
        let loose = ReverseNnEngine::new(&trs, Oid(0), w, 0.1).unwrap();
        let iv = loose.rnn_intervals(Oid(1)).unwrap();
        assert!(Quantifier::Exists.holds(&iv, w));
        assert!(Quantifier::Forall.holds(&iv, w));
        assert_eq!(window_fraction(&iv, w), 1.0);
    }

    #[test]
    fn two_objects_are_mutually_reverse_neighbors() {
        let trs = vec![
            straight(0, 0.0, 0.0, 1.0, 0.0),
            straight(7, 5.0, 3.0, -0.5, 0.1),
        ];
        let w = TimeInterval::new(0.0, 10.0);
        let e = ReverseNnEngine::new(&trs, Oid(0), w, 0.5).unwrap();
        // With a single other object, q is its only (hence certain) NN.
        assert!(Quantifier::Forall.holds(&e.rnn_intervals(Oid(7)).unwrap(), w));
        let all = e.answer_set();
        assert_eq!(all.len(), 1);
        assert_eq!(all.entries()[0].oid, Oid(7));
    }

    #[test]
    fn reverse_matches_dense_sampling_oracle() {
        // Moving configuration: validate the RNN membership against direct
        // pairwise distance computation.
        let trs = vec![
            straight(0, 0.0, 0.0, 1.0, 0.0),
            straight(1, 10.0, 1.0, -1.0, 0.0),
            straight(2, 5.0, -2.0, 0.0, 0.5),
            straight(3, -3.0, 4.0, 0.8, -0.3),
        ];
        let w = TimeInterval::new(0.0, 10.0);
        let r = 0.4;
        let e = ReverseNnEngine::new(&trs, Oid(0), w, r).unwrap();
        let pos = |oid: u64, t: f64| trs[oid as usize].position_at(t).unwrap();
        let dist = |a: u64, b: u64, t: f64| (pos(a, t) - pos(b, t)).norm();
        for &i in &[1u64, 2, 3] {
            let set = e.rnn_intervals(Oid(i)).unwrap();
            for k in 0..300 {
                let t = w.start() + (k as f64 + 0.5) * w.len() / 300.0;
                // q possible NN of i ⇔ d(q,i) ≤ min_{j≠i,q} d(j,i) + 4r …
                // with the envelope including q itself (min over all ≠ i).
                let others_min = [0u64, 1, 2, 3]
                    .iter()
                    .filter(|&&j| j != i)
                    .map(|&j| dist(j, i, t))
                    .fold(f64::INFINITY, f64::min);
                let expected = dist(0, i, t) <= others_min + 4.0 * r;
                let margin = (dist(0, i, t) - others_min - 4.0 * r).abs();
                if margin > 1e-6 {
                    assert_eq!(set.covers(t), expected, "i {i} t {t}");
                }
            }
        }
    }

    #[test]
    fn all_pairs_sequences_match_per_object_engines() {
        let trs = vec![
            straight(0, 0.0, 0.0, 1.0, 0.0),
            straight(1, 10.0, 1.0, -1.0, 0.0),
            straight(2, 5.0, -2.0, 0.0, 0.5),
        ];
        let w = TimeInterval::new(0.0, 10.0);
        let pairs = all_pairs_nn(&trs, w, 0.3).unwrap();
        assert_eq!(pairs.len(), 3);
        for p in &pairs {
            // The sequence tiles the window and never names the subject.
            assert_eq!(p.sequence.first().unwrap().1.start(), w.start());
            assert_eq!(p.sequence.last().unwrap().1.end(), w.end());
            for (oid, _) in &p.sequence {
                assert_ne!(*oid, p.subject);
            }
            for (oid, iv) in &p.possible {
                assert_ne!(*oid, p.subject);
                assert!(!iv.is_empty());
            }
        }
    }

    #[test]
    fn reverse_rows_and_per_perspective_carry_are_bit_identical() {
        use unn_prob::uniform_diff::UniformDifferencePdf;
        let trs = vec![
            straight(0, 0.0, 0.0, 1.0, 0.0),
            straight(1, 10.0, 1.0, -1.0, 0.0),
            straight(2, 5.0, -2.0, 0.0, 0.5),
            straight(3, -3.0, 4.0, 0.8, -0.3),
        ];
        let w = TimeInterval::new(0.0, 10.0);
        let r = 0.4;
        let kernel = ColumnKernel::new(&UniformDifferencePdf::new(r));
        let e = ReverseNnEngine::new(&trs, Oid(0), w, r).unwrap();
        let rows = e.prob_row_set_kernel(&kernel, 24);
        // A perspective row exists exactly where the query enters the
        // perspective's band, and each sampled P agrees with the
        // perspective engine's instantaneous evaluation.
        for (oid, engine) in e.perspective_engines() {
            let iv = e.rnn_intervals(oid).unwrap();
            match rows.row_of(oid) {
                Some(row) => {
                    for (k, p) in &row.points {
                        let t = rows.sample_time(*k);
                        let direct =
                            crate::threshold::probability_at_kernel(engine, &kernel, Oid(0), t)
                                .expect("in-band sample");
                        assert_eq!(p.to_bits(), direct.to_bits(), "oid {oid} k {k}");
                    }
                }
                None => assert!(iv.is_empty(), "rowless perspective must be out of band"),
            }
        }
        // Rebuild reusing every perspective: bit-identical, zero rebuilt.
        let refs: Vec<&Trajectory> = trs.iter().collect();
        let reused_engine = ReverseNnEngine::build_reusing(&refs, Oid(0), w, r, |oid| {
            e.perspective_engine_arc(oid)
        })
        .unwrap();
        let (reused_rows, recomputed) =
            reused_engine.prob_row_set_reusing_kernel(&kernel, &rows, &|_| true);
        assert_eq!(reused_rows, rows);
        assert_eq!(recomputed, 0);
        // Recomputing one perspective from its carried engine is also
        // bit-identical to the fresh sweep.
        let (mixed, recomputed) =
            reused_engine.prob_row_set_reusing_kernel(&kernel, &rows, &|oid| oid != Oid(2));
        assert_eq!(mixed, rows);
        assert_eq!(recomputed, 1);
    }

    #[test]
    fn unknown_ids_yield_none() {
        let trs = line_setup();
        let w = TimeInterval::new(0.0, 10.0);
        let e = ReverseNnEngine::new(&trs, Oid(0), w, 0.1).unwrap();
        assert!(e.rnn_intervals(Oid(99)).is_none());
        assert!(e.rnn_intervals(Oid(0)).is_none()); // the query itself
        assert!(e.crisp_rnn_intervals(Oid(99)).is_none());
    }

    #[test]
    fn degenerate_window_is_an_error() {
        let trs = line_setup();
        let w = TimeInterval::new(5.0, 5.0);
        assert!(ReverseNnEngine::new(&trs, Oid(0), w, 0.1).is_err());
        assert!(all_pairs_nn(&trs, w, 0.1).is_err());
    }

    #[test]
    #[should_panic]
    fn query_must_be_present() {
        let trs = line_setup();
        let w = TimeInterval::new(0.0, 10.0);
        let _ = ReverseNnEngine::new(&trs, Oid(42), w, 0.1);
    }
}
