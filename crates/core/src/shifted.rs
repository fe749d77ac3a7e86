//! Lower envelopes of *shifted* distance functions `d_j(t) + c_j`.
//!
//! The paper's envelope machinery (§3.2) works on the bare hyperbolas
//! `d_j(t)` because with a **shared** uncertainty radius every candidate
//! receives the same `4r` slack and the ranking is shift-invariant. The
//! §7 future-work item "allow for different uncertainty zones … circles
//! with different radii" breaks that symmetry: candidate `j` with radius
//! `r_j` (query radius `r_q`) has possible distances in
//! `[d_j(t) − s_j, d_j(t) + s_j]` with a **per-object** slack
//! `s_j = r_j + r_q`. Deciding who can possibly be the nearest neighbor
//! then requires the lower envelope of the *upper* distance bounds
//! `u_j(t) = d_j(t) + s_j` — hyperbolas shifted by different constants,
//! which is no longer an envelope of hyperbolas.
//!
//! This module provides that structure: [`ShiftedEnvelope`], built with
//! the same divide & conquer + `Merge_LE` scheme as Algorithm 1/2, where
//! pairwise critical points come from the quartic solver behind
//! [`Hyperbola::crossings_shifted`] (`f + a = g + b  ⇔  f = g + (b − a)`).
//! Two shifted hyperbolas still intersect in at most two points (the
//! squared difference is a quartic with at most two *verified* sign
//! changes of `f − g − δ`), so the Davenport–Schinzel bound λ₂ and the
//! `O(N log N)` construction carry over.

use crate::band::cell_crossings;
use std::fmt;
use unn_geom::hyperbola::Hyperbola;
use unn_geom::interval::TimeInterval;
use unn_geom::roots::Roots;
use unn_traj::distance::DistanceFunction;
use unn_traj::trajectory::Oid;

/// A distance function with a constant additive shift: `t ↦ f(t) + shift`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftedFunction {
    /// The underlying piecewise-hyperbola distance function.
    pub f: DistanceFunction,
    /// The additive shift (for the hetero engine: `r_j + r_q ≥ 0`).
    pub shift: f64,
}

impl ShiftedFunction {
    /// Creates a shifted function. The shift must be finite and
    /// non-negative (a negative "upper bound" slack is meaningless and the
    /// underlying quartic solver requires a non-negative offset).
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite shift.
    pub fn new(f: DistanceFunction, shift: f64) -> Self {
        assert!(shift.is_finite() && shift >= 0.0, "invalid shift {shift}");
        ShiftedFunction { f, shift }
    }

    /// The owning object.
    pub fn owner(&self) -> Oid {
        self.f.owner()
    }

    /// `f(t) + shift` (`None` outside the window).
    pub fn eval(&self, t: f64) -> Option<f64> {
        self.f.eval(t).map(|d| d + self.shift)
    }

    /// The covered window.
    pub fn span(&self) -> TimeInterval {
        self.f.span()
    }
}

/// One maximal piece of a shifted envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftedPiece {
    /// The object realizing the shifted minimum on this span.
    pub owner: Oid,
    /// The span during which `owner` realizes the envelope.
    pub span: TimeInterval,
    /// The owner's bare distance hyperbola on this span.
    pub hyperbola: Hyperbola,
    /// The owner's additive shift.
    pub shift: f64,
}

impl ShiftedPiece {
    /// Envelope value at `t`: `hyperbola(t) + shift`.
    pub fn eval(&self, t: f64) -> f64 {
        self.hyperbola.eval(t) + self.shift
    }
}

/// Error validating a [`ShiftedEnvelope`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShiftedEnvelopeError {
    /// No pieces.
    Empty,
    /// Pieces do not tile the window contiguously.
    NonContiguous {
        /// Index of the offending piece.
        at: usize,
    },
}

impl fmt::Display for ShiftedEnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShiftedEnvelopeError::Empty => write!(f, "shifted envelope has no pieces"),
            ShiftedEnvelopeError::NonContiguous { at } => {
                write!(
                    f,
                    "shifted-envelope pieces are not contiguous at index {at}"
                )
            }
        }
    }
}

impl std::error::Error for ShiftedEnvelopeError {}

/// Lower envelope of a set of shifted distance functions: contiguous
/// owner-labelled pieces covering the common window.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftedEnvelope {
    pieces: Vec<ShiftedPiece>,
}

impl ShiftedEnvelope {
    /// Builds an envelope from contiguous pieces (validated).
    pub fn new(pieces: Vec<ShiftedPiece>) -> Result<Self, ShiftedEnvelopeError> {
        if pieces.is_empty() {
            return Err(ShiftedEnvelopeError::Empty);
        }
        for (i, w) in pieces.windows(2).enumerate() {
            if (w[0].span.end() - w[1].span.start()).abs() > 1e-9 {
                return Err(ShiftedEnvelopeError::NonContiguous { at: i + 1 });
            }
        }
        Ok(ShiftedEnvelope { pieces })
    }

    /// The envelope of a single shifted function: its own pieces.
    pub fn from_function(sf: &ShiftedFunction) -> ShiftedEnvelope {
        ShiftedEnvelope {
            pieces: sf
                .f
                .pieces()
                .iter()
                .map(|p| ShiftedPiece {
                    owner: sf.owner(),
                    span: p.span,
                    hyperbola: p.hyperbola,
                    shift: sf.shift,
                })
                .collect(),
        }
    }

    /// The pieces, in time order.
    pub fn pieces(&self) -> &[ShiftedPiece] {
        &self.pieces
    }

    /// Number of pieces.
    pub fn len(&self) -> usize {
        self.pieces.len()
    }

    /// `true` when there are no pieces (never, for validated envelopes).
    pub fn is_empty(&self) -> bool {
        self.pieces.is_empty()
    }

    /// The covered window.
    pub fn span(&self) -> TimeInterval {
        TimeInterval::new(
            self.pieces.first().unwrap().span.start(),
            self.pieces.last().unwrap().span.end(),
        )
    }

    /// The piece active at `t` (the later piece at an exact boundary).
    pub fn piece_at(&self, t: f64) -> Option<&ShiftedPiece> {
        if !self.span().contains(t) {
            return None;
        }
        let idx = self
            .pieces
            .partition_point(|p| p.span.start() <= t)
            .clamp(1, self.pieces.len());
        Some(&self.pieces[idx - 1])
    }

    /// Envelope value (`min_j f_j(t) + shift_j`) at `t`.
    pub fn eval(&self, t: f64) -> Option<f64> {
        self.piece_at(t).map(|p| p.eval(t))
    }

    /// The object realizing the envelope at `t`.
    pub fn owner_at(&self, t: f64) -> Option<Oid> {
        self.piece_at(t).map(|p| p.owner)
    }

    /// Owner/interval answer sequence with adjacent same-owner pieces
    /// merged.
    pub fn answer_sequence(&self) -> Vec<(Oid, TimeInterval)> {
        let mut out: Vec<(Oid, TimeInterval)> = Vec::new();
        for p in &self.pieces {
            match out.last_mut() {
                Some((oid, iv)) if *oid == p.owner => {
                    *iv = TimeInterval::new(iv.start(), p.span.end());
                }
                _ => out.push((p.owner, p.span)),
            }
        }
        out
    }

    /// Restricts the envelope to `window`. Returns `None` when the
    /// intersection is empty or degenerate.
    pub fn restrict(&self, window: &TimeInterval) -> Option<ShiftedEnvelope> {
        let mut pieces = Vec::new();
        for p in &self.pieces {
            if let Some(iv) = p.span.intersection(window) {
                if !iv.is_degenerate() {
                    pieces.push(ShiftedPiece { span: iv, ..*p });
                }
            }
        }
        if pieces.is_empty() {
            None
        } else {
            Some(ShiftedEnvelope { pieces })
        }
    }

    /// Verifies pointwise minimality/completeness against `fs` at
    /// `samples_per_piece` probes per piece (test support).
    pub fn validate_against(
        &self,
        fs: &[ShiftedFunction],
        samples_per_piece: usize,
        tol: f64,
    ) -> Result<(), String> {
        for (k, p) in self.pieces.iter().enumerate() {
            for t in p.span.sample_points(samples_per_piece.max(1)) {
                let val = p.eval(t);
                let mut min = f64::INFINITY;
                for f in fs {
                    if let Some(d) = f.eval(t) {
                        min = min.min(d);
                    }
                }
                if (val - min).abs() > tol {
                    return Err(format!(
                        "piece {k} ({}) at t={t}: envelope {val} vs true min {min}",
                        p.owner
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Builder with the ⊎-concatenation of Algorithm 2 (adjacent pieces with
/// identical owner, hyperbola, and shift merge into one maximal piece).
#[derive(Debug, Default)]
pub struct ShiftedEnvelopeBuilder {
    pieces: Vec<ShiftedPiece>,
}

impl ShiftedEnvelopeBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ShiftedEnvelopeBuilder { pieces: Vec::new() }
    }

    /// Appends a piece, merging into the previous one when owner,
    /// hyperbola and shift all match. Degenerate spans are dropped.
    pub fn push(&mut self, piece: ShiftedPiece) {
        if piece.span.is_degenerate() {
            return;
        }
        if let Some(last) = self.pieces.last_mut() {
            if last.owner == piece.owner
                && last.hyperbola == piece.hyperbola
                && last.shift == piece.shift
            {
                last.span = TimeInterval::new(last.span.start(), piece.span.end());
                return;
            }
        }
        self.pieces.push(piece);
    }

    /// Finalizes into a [`ShiftedEnvelope`].
    pub fn build(self) -> Result<ShiftedEnvelope, ShiftedEnvelopeError> {
        ShiftedEnvelope::new(self.pieces)
    }
}

/// A labelled shifted hyperbola (one elementary input to the pairwise
/// envelope step).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelledShifted {
    /// The owning object.
    pub owner: Oid,
    /// The bare distance hyperbola.
    pub hyperbola: Hyperbola,
    /// The additive shift.
    pub shift: f64,
}

impl LabelledShifted {
    fn eval(&self, t: f64) -> f64 {
        self.hyperbola.eval(t) + self.shift
    }
}

/// Instants within `span` where `a(t) + a.shift = b(t) + b.shift`
/// (ascending). Reduces to the plain/shifted crossing solvers depending
/// on the shift difference.
pub fn shifted_crossings(a: &LabelledShifted, b: &LabelledShifted, span: &TimeInterval) -> Roots {
    let delta = b.shift - a.shift;
    if delta.abs() < 1e-15 {
        a.hyperbola.intersections(&b.hyperbola, span)
    } else if delta > 0.0 {
        // a = b + delta
        cell_crossings(&a.hyperbola, &b.hyperbola, delta, span)
    } else {
        // b = a + (−delta)
        cell_crossings(&b.hyperbola, &a.hyperbola, -delta, span)
    }
}

/// `Env2` for shifted hyperbolas: envelope of the pair over `span`,
/// appended (with ⊎) to `out`. Ties resolve to the smaller `Oid`.
pub fn env2_shifted_into(
    a: &LabelledShifted,
    b: &LabelledShifted,
    span: TimeInterval,
    out: &mut ShiftedEnvelopeBuilder,
) {
    if span.is_degenerate() {
        return;
    }
    let mut cuts = vec![span.start()];
    for t in shifted_crossings(a, b, &span) {
        if t > span.start() + 1e-12 && t < span.end() - 1e-12 {
            cuts.push(t);
        }
    }
    cuts.push(span.end());
    for w in cuts.windows(2) {
        let sub = TimeInterval::new(w[0], w[1]);
        if sub.is_degenerate() {
            continue;
        }
        let mid = sub.midpoint();
        let (va, vb) = (a.eval(mid), b.eval(mid));
        let winner = if va < vb {
            a
        } else if vb < va {
            b
        } else if a.owner <= b.owner {
            a
        } else {
            b
        };
        out.push(ShiftedPiece {
            owner: winner.owner,
            span: sub,
            hyperbola: winner.hyperbola,
            shift: winner.shift,
        });
    }
}

/// `Merge_LE` for shifted envelopes over the same window.
///
/// # Panics
///
/// Panics when the windows differ.
pub fn merge_shifted_envelopes(le1: &ShiftedEnvelope, le2: &ShiftedEnvelope) -> ShiftedEnvelope {
    let span1 = le1.span();
    let span2 = le2.span();
    assert!(
        (span1.start() - span2.start()).abs() < 1e-9 && (span1.end() - span2.end()).abs() < 1e-9,
        "merge_shifted_envelopes requires equal windows: {span1} vs {span2}"
    );
    let mut out = ShiftedEnvelopeBuilder::new();
    let p1 = le1.pieces();
    let p2 = le2.pieces();
    let (mut k, mut p) = (0usize, 0usize);
    let mut cursor = span1.start();
    while k < p1.len() && p < p2.len() {
        let e1 = p1[k].span.end();
        let e2 = p2[p].span.end();
        let upper = e1.min(e2).min(span1.end());
        if upper > cursor {
            let a = LabelledShifted {
                owner: p1[k].owner,
                hyperbola: p1[k].hyperbola,
                shift: p1[k].shift,
            };
            let b = LabelledShifted {
                owner: p2[p].owner,
                hyperbola: p2[p].hyperbola,
                shift: p2[p].shift,
            };
            env2_shifted_into(&a, &b, TimeInterval::new(cursor, upper), &mut out);
            cursor = upper;
        }
        if e1 <= upper + 1e-12 {
            k += 1;
        }
        if e2 <= upper + 1e-12 {
            p += 1;
        }
    }
    out.build()
        .expect("merged shifted envelope covers the window")
}

/// Algorithm 1 (divide & conquer) for shifted functions: the lower
/// envelope of `{ f_j(t) + shift_j }` over their common window in
/// `O(N log N)`.
///
/// # Panics
///
/// Panics when `fs` is empty.
pub fn shifted_lower_envelope(fs: &[ShiftedFunction]) -> ShiftedEnvelope {
    assert!(!fs.is_empty(), "shifted envelope of an empty set");
    fn rec(fs: &[ShiftedFunction]) -> ShiftedEnvelope {
        match fs.len() {
            1 => ShiftedEnvelope::from_function(&fs[0]),
            n => {
                let mid = n / 2;
                let left = rec(&fs[..mid]);
                let right = rec(&fs[mid..]);
                merge_shifted_envelopes(&left, &right)
            }
        }
    }
    rec(fs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_geom::point::Vec2;

    fn flyby(owner: u64, x0: f64, y: f64, v: f64, w: TimeInterval) -> DistanceFunction {
        DistanceFunction::single(
            Oid(owner),
            w,
            Hyperbola::from_relative_motion(Vec2::new(x0, y), Vec2::new(v, 0.0), 0.0),
        )
    }

    fn sf(owner: u64, x0: f64, y: f64, v: f64, shift: f64, w: TimeInterval) -> ShiftedFunction {
        ShiftedFunction::new(flyby(owner, x0, y, v, w), shift)
    }

    #[test]
    fn single_function_envelope_is_itself() {
        let w = TimeInterval::new(0.0, 10.0);
        let f = sf(1, -5.0, 1.0, 1.0, 2.5, w);
        let e = shifted_lower_envelope(std::slice::from_ref(&f));
        for t in [0.0, 3.0, 5.0, 10.0] {
            assert!((e.eval(t).unwrap() - f.eval(t).unwrap()).abs() < 1e-12);
        }
        assert_eq!(e.owner_at(5.0), Some(Oid(1)));
    }

    #[test]
    fn zero_shifts_match_plain_envelope() {
        let w = TimeInterval::new(0.0, 10.0);
        let plain = vec![
            flyby(1, -5.0, 1.0, 1.0, w),
            flyby(2, -2.0, 2.0, 1.0, w),
            flyby(3, -8.0, 0.5, 1.0, w),
        ];
        let shifted: Vec<ShiftedFunction> = plain
            .iter()
            .map(|f| ShiftedFunction::new(f.clone(), 0.0))
            .collect();
        let le = crate::algorithms::lower_envelope(&plain);
        let sle = shifted_lower_envelope(&shifted);
        for k in 0..=400 {
            let t = k as f64 * 10.0 / 400.0;
            assert!(
                (le.eval(t).unwrap() - sle.eval(t).unwrap()).abs() < 1e-9,
                "t={t}"
            );
        }
    }

    #[test]
    fn uniform_shift_translates_envelope() {
        // Equal shifts preserve the winner everywhere and translate the
        // value.
        let w = TimeInterval::new(0.0, 10.0);
        let plain = vec![flyby(1, -5.0, 1.0, 1.0, w), flyby(2, -2.0, 2.0, 1.0, w)];
        let shifted: Vec<ShiftedFunction> = plain
            .iter()
            .map(|f| ShiftedFunction::new(f.clone(), 3.0))
            .collect();
        let le = crate::algorithms::lower_envelope(&plain);
        let sle = shifted_lower_envelope(&shifted);
        for k in 0..=200 {
            let t = k as f64 * 10.0 / 200.0;
            assert!(
                (sle.eval(t).unwrap() - le.eval(t).unwrap() - 3.0).abs() < 1e-9,
                "t={t}"
            );
            assert_eq!(sle.owner_at(t), le.owner_at(t), "t={t}");
        }
    }

    #[test]
    fn unequal_shifts_change_the_winner() {
        let w = TimeInterval::new(0.0, 10.0);
        // Object 1 is nearer (distance 1) but heavily shifted; object 2 is
        // farther (distance 2) but unshifted: 1 + 5 > 2 + 0.
        let fs = vec![sf(1, 0.0, 1.0, 0.0, 5.0, w), sf(2, 0.0, 2.0, 0.0, 0.0, w)];
        let e = shifted_lower_envelope(&fs);
        assert_eq!(e.answer_sequence(), vec![(Oid(2), w)]);
        assert!((e.eval(4.0).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn envelope_is_pointwise_minimal_random_mix() {
        let w = TimeInterval::new(0.0, 60.0);
        let fs: Vec<ShiftedFunction> = (0..24)
            .map(|k| {
                let x0 = -30.0 + 2.7 * k as f64;
                let y = 0.5 + 0.37 * ((k * 7) % 11) as f64;
                let v = 0.4 + 0.13 * ((k * 3) % 5) as f64;
                let shift = 0.25 * ((k * 5) % 7) as f64;
                sf(k as u64 + 1, x0, y, v, shift, w)
            })
            .collect();
        let e = shifted_lower_envelope(&fs);
        e.validate_against(&fs, 6, 1e-7).unwrap();
        // Pieces tile the window and stay maximal.
        assert_eq!(e.span(), w);
        for p2 in e.pieces().windows(2) {
            assert!(
                p2[0].owner != p2[1].owner
                    || p2[0].hyperbola != p2[1].hyperbola
                    || p2[0].shift != p2[1].shift,
                "non-maximal adjacent pieces"
            );
        }
    }

    #[test]
    fn crossings_between_shifted_pairs_are_symmetric() {
        let w = TimeInterval::new(0.0, 10.0);
        let a = LabelledShifted {
            owner: Oid(1),
            hyperbola: Hyperbola::from_relative_motion(
                Vec2::new(-5.0, 1.0),
                Vec2::new(1.0, 0.0),
                0.0,
            ),
            shift: 1.5,
        };
        let b = LabelledShifted {
            owner: Oid(2),
            hyperbola: Hyperbola::constant(4.0),
            shift: 0.0,
        };
        let ab = shifted_crossings(&a, &b, &w);
        let ba = shifted_crossings(&b, &a, &w);
        assert_eq!(ab.len(), ba.len());
        for (x, y) in ab.iter().zip(&ba) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
        // At each crossing the shifted values agree.
        for t in ab {
            assert!((a.eval(t) - b.eval(t)).abs() < 1e-6, "t={t}");
        }
    }

    /// `shifted_crossings` with the solver on every cell (what it was
    /// before the range pre-test of [`cell_crossings`]).
    fn shifted_crossings_oracle(
        a: &LabelledShifted,
        b: &LabelledShifted,
        span: &TimeInterval,
    ) -> Roots {
        let delta = b.shift - a.shift;
        if delta.abs() < 1e-15 {
            a.hyperbola.intersections(&b.hyperbola, span)
        } else if delta > 0.0 {
            a.hyperbola.crossings_shifted(&b.hyperbola, delta, span)
        } else {
            b.hyperbola.crossings_shifted(&a.hyperbola, -delta, span)
        }
    }

    #[test]
    fn range_settled_cells_have_the_solvers_crossings() {
        let labelled: Vec<LabelledShifted> = (0..24)
            .map(|k| LabelledShifted {
                owner: Oid(k as u64 + 1),
                hyperbola: Hyperbola::from_relative_motion(
                    Vec2::new(-30.0 + 2.7 * k as f64, 0.5 + 0.37 * ((k * 7) % 11) as f64),
                    Vec2::new(0.4 + 0.13 * ((k * 3) % 5) as f64, 0.0),
                    0.0,
                ),
                shift: 0.25 * ((k * 5) % 7) as f64,
            })
            .collect();
        let spans = [(0.0, 60.0), (0.0, 7.5), (20.0, 31.0), (44.0, 60.0)];
        let (mut settled, mut cells) = (0, 0);
        for a in &labelled {
            for b in &labelled {
                for (s, e) in spans {
                    let span = TimeInterval::new(s, e);
                    let got = shifted_crossings(a, b, &span);
                    let want = shifted_crossings_oracle(a, b, &span);
                    assert_eq!(got, want, "{} vs {} on {span}", a.owner, b.owner);
                    cells += 1;
                    if got.is_empty() {
                        settled += 1;
                    }
                }
            }
        }
        // The comparison is not vacuous on either side.
        assert!(settled > cells / 10 && settled < cells, "{settled}/{cells}");
    }

    #[test]
    fn restrict_and_answer_sequence() {
        let w = TimeInterval::new(0.0, 10.0);
        let fs = vec![
            sf(1, -5.0, 1.0, 1.0, 0.0, w), // dips to 1 at t=5
            sf(2, 0.0, 2.5, 0.0, 0.0, w),  // constant 2.5
        ];
        let e = shifted_lower_envelope(&fs);
        let ans = e.answer_sequence();
        assert!(ans.len() >= 2, "{ans:?}");
        let r = e.restrict(&TimeInterval::new(4.0, 6.0)).unwrap();
        assert_eq!(r.span(), TimeInterval::new(4.0, 6.0));
        assert_eq!(r.owner_at(5.0), Some(Oid(1)));
        assert!(e.restrict(&TimeInterval::new(20.0, 30.0)).is_none());
    }

    #[test]
    fn builder_merges_identical_adjacent_pieces() {
        let h = Hyperbola::constant(1.0);
        let mut b = ShiftedEnvelopeBuilder::new();
        b.push(ShiftedPiece {
            owner: Oid(1),
            span: TimeInterval::new(0.0, 1.0),
            hyperbola: h,
            shift: 0.5,
        });
        b.push(ShiftedPiece {
            owner: Oid(1),
            span: TimeInterval::new(1.0, 2.0),
            hyperbola: h,
            shift: 0.5,
        });
        // Different shift: no merge.
        b.push(ShiftedPiece {
            owner: Oid(1),
            span: TimeInterval::new(2.0, 3.0),
            hyperbola: h,
            shift: 0.75,
        });
        let e = b.build().unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e.pieces()[0].span, TimeInterval::new(0.0, 2.0));
    }

    #[test]
    #[should_panic]
    fn negative_shift_rejected() {
        let w = TimeInterval::new(0.0, 1.0);
        let _ = ShiftedFunction::new(flyby(1, 0.0, 1.0, 0.0, w), -0.5);
    }

    #[test]
    fn validation_errors_are_descriptive() {
        assert_eq!(
            ShiftedEnvelope::new(vec![]).unwrap_err(),
            ShiftedEnvelopeError::Empty
        );
        let h = Hyperbola::constant(1.0);
        let gap = ShiftedEnvelope::new(vec![
            ShiftedPiece {
                owner: Oid(1),
                span: TimeInterval::new(0.0, 1.0),
                hyperbola: h,
                shift: 0.0,
            },
            ShiftedPiece {
                owner: Oid(2),
                span: TimeInterval::new(1.5, 2.0),
                hyperbola: h,
                shift: 0.0,
            },
        ]);
        assert_eq!(
            gap.unwrap_err(),
            ShiftedEnvelopeError::NonContiguous { at: 1 }
        );
    }
}
