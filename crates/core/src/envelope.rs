//! Lower-envelope representation.
//!
//! A lower envelope is a sequence of owner-labelled hyperbola pieces whose
//! spans tile the query window: piece `k` says "between `t_k` and
//! `t_{k+1}`, object `owner_k` realizes the minimum distance". By the
//! Davenport–Schinzel bound λ₂(N) = 2N − 1 (§3.2), the envelope of `N`
//! single-segment distance functions has O(N) pieces.

use std::fmt;
use unn_geom::hyperbola::Hyperbola;
use unn_geom::interval::TimeInterval;
use unn_traj::distance::DistanceFunction;
use unn_traj::trajectory::Oid;

/// One maximal piece of an envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopePiece {
    /// The object realizing the envelope on this span.
    pub owner: Oid,
    /// The span during which `owner` realizes the envelope.
    pub span: TimeInterval,
    /// The owner's distance hyperbola on this span.
    pub hyperbola: Hyperbola,
}

/// A lower envelope: contiguous pieces covering a window.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    pieces: Vec<EnvelopePiece>,
}

/// Error validating an [`Envelope`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EnvelopeError {
    /// No pieces.
    Empty,
    /// Pieces do not tile the window contiguously.
    NonContiguous {
        /// Index of the offending piece.
        at: usize,
    },
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::Empty => write!(f, "envelope has no pieces"),
            EnvelopeError::NonContiguous { at } => {
                write!(f, "envelope pieces are not contiguous at index {at}")
            }
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl Envelope {
    /// Builds an envelope from contiguous pieces (validated).
    pub fn new(pieces: Vec<EnvelopePiece>) -> Result<Self, EnvelopeError> {
        if pieces.is_empty() {
            return Err(EnvelopeError::Empty);
        }
        for (i, w) in pieces.windows(2).enumerate() {
            if (w[0].span.end() - w[1].span.start()).abs() > 1e-9 {
                return Err(EnvelopeError::NonContiguous { at: i + 1 });
            }
        }
        Ok(Envelope { pieces })
    }

    /// The envelope of a single distance function: its own pieces.
    pub fn from_distance_function(f: &DistanceFunction) -> Envelope {
        Envelope {
            pieces: f
                .pieces()
                .iter()
                .map(|p| EnvelopePiece {
                    owner: f.owner(),
                    span: p.span,
                    hyperbola: p.hyperbola,
                })
                .collect(),
        }
    }

    /// The pieces, in time order.
    pub fn pieces(&self) -> &[EnvelopePiece] {
        &self.pieces
    }

    /// Number of pieces (the combinatorial complexity of the envelope).
    pub fn len(&self) -> usize {
        self.pieces.len()
    }

    /// `true` when the envelope has no pieces (never, for validated
    /// envelopes).
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
    pub fn piece_at(&self, t: f64) -> Option<&EnvelopePiece> {
        if !self.span().contains(t) {
            return None;
        }
        let idx = self
            .pieces
            .partition_point(|p| p.span.start() <= t)
            .clamp(1, self.pieces.len());
        Some(&self.pieces[idx - 1])
    }

    /// Envelope value (minimum distance) at `t`.
    pub fn eval(&self, t: f64) -> Option<f64> {
        self.piece_at(t).map(|p| p.hyperbola.eval(t))
    }

    /// The object realizing the envelope at `t`.
    pub fn owner_at(&self, t: f64) -> Option<Oid> {
        self.piece_at(t).map(|p| p.owner)
    }

    /// The critical time points: piece boundaries interior to the window
    /// (where the realizing object or its hyperbola changes).
    pub fn critical_times(&self) -> Vec<f64> {
        self.pieces.windows(2).map(|w| w[1].span.start()).collect()
    }

    /// The time-parameterized answer `[(Tr_i1, [tb, t1]), ...]` of §1:
    /// owner/interval pairs with *adjacent same-owner pieces merged* (a
    /// multi-segment owner keeps one answer entry across its own
    /// breakpoints).
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
    pub fn restrict(&self, window: &TimeInterval) -> Option<Envelope> {
        let mut pieces = Vec::new();
        for p in &self.pieces {
            if let Some(iv) = p.span.intersection(window) {
                if !iv.is_degenerate() {
                    pieces.push(EnvelopePiece { span: iv, ..*p });
                }
            }
        }
        if pieces.is_empty() {
            None
        } else {
            Some(Envelope { pieces })
        }
    }

    /// Verifies that the envelope is pointwise minimal and complete with
    /// respect to `fs`: at `samples_per_piece` probes inside every piece,
    /// the piece's value equals (within `tol`) the true minimum over all
    /// functions. Intended for tests and debug assertions.
    pub fn validate_against(
        &self,
        fs: &[DistanceFunction],
        samples_per_piece: usize,
        tol: f64,
    ) -> Result<(), String> {
        for (k, p) in self.pieces.iter().enumerate() {
            for t in p.span.sample_points(samples_per_piece.max(1)) {
                let val = p.hyperbola.eval(t);
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

/// Builder that assembles envelope pieces with the ⊎-concatenation of
/// Algorithm 2: a newly appended piece is *merged* into the previous one
/// when both owner and hyperbola coincide, keeping pieces maximal.
#[derive(Debug, Default)]
pub struct EnvelopeBuilder {
    pieces: Vec<EnvelopePiece>,
}

impl EnvelopeBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        EnvelopeBuilder { pieces: Vec::new() }
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EnvelopeBuilder {
            pieces: Vec::with_capacity(cap),
        }
    }

    /// Appends a piece, merging with the previous piece when owner and
    /// hyperbola match (the ⊎ operation). Degenerate spans are dropped.
    pub fn push(&mut self, piece: EnvelopePiece) {
        if piece.span.is_degenerate() {
            return;
        }
        if let Some(last) = self.pieces.last_mut() {
            if last.owner == piece.owner && last.hyperbola == piece.hyperbola {
                last.span = TimeInterval::new(last.span.start(), piece.span.end());
                return;
            }
        }
        self.pieces.push(piece);
    }

    /// Finalizes into an [`Envelope`].
    pub fn build(self) -> Result<Envelope, EnvelopeError> {
        Envelope::new(self.pieces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_geom::point::Vec2;

    fn hyp(c: f64) -> Hyperbola {
        Hyperbola::constant(c)
    }

    fn moving(p0: (f64, f64), v: (f64, f64), t0: f64) -> Hyperbola {
        Hyperbola::from_relative_motion(Vec2::new(p0.0, p0.1), Vec2::new(v.0, v.1), t0)
    }

    #[test]
    fn construction_validates() {
        let e = Envelope::new(vec![
            EnvelopePiece {
                owner: Oid(1),
                span: TimeInterval::new(0.0, 1.0),
                hyperbola: hyp(1.0),
            },
            EnvelopePiece {
                owner: Oid(2),
                span: TimeInterval::new(1.0, 2.0),
                hyperbola: hyp(2.0),
            },
        ])
        .unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e.span(), TimeInterval::new(0.0, 2.0));
        assert_eq!(Envelope::new(vec![]).unwrap_err(), EnvelopeError::Empty);
        let gap = Envelope::new(vec![
            EnvelopePiece {
                owner: Oid(1),
                span: TimeInterval::new(0.0, 1.0),
                hyperbola: hyp(1.0),
            },
            EnvelopePiece {
                owner: Oid(2),
                span: TimeInterval::new(1.5, 2.0),
                hyperbola: hyp(2.0),
            },
        ]);
        assert_eq!(gap.unwrap_err(), EnvelopeError::NonContiguous { at: 1 });
    }

    #[test]
    fn eval_and_owner_lookup() {
        let e = Envelope::new(vec![
            EnvelopePiece {
                owner: Oid(1),
                span: TimeInterval::new(0.0, 1.0),
                hyperbola: hyp(1.0),
            },
            EnvelopePiece {
                owner: Oid(2),
                span: TimeInterval::new(1.0, 2.0),
                hyperbola: hyp(2.0),
            },
        ])
        .unwrap();
        assert_eq!(e.eval(0.5), Some(1.0));
        assert_eq!(e.owner_at(0.5), Some(Oid(1)));
        // boundary resolves to the later piece
        assert_eq!(e.owner_at(1.0), Some(Oid(2)));
        assert_eq!(e.eval(2.5), None);
        assert_eq!(e.critical_times(), vec![1.0]);
    }

    #[test]
    fn builder_merges_same_owner_same_hyperbola() {
        let mut b = EnvelopeBuilder::new();
        b.push(EnvelopePiece {
            owner: Oid(1),
            span: TimeInterval::new(0.0, 1.0),
            hyperbola: hyp(1.0),
        });
        b.push(EnvelopePiece {
            owner: Oid(1),
            span: TimeInterval::new(1.0, 2.0),
            hyperbola: hyp(1.0),
        });
        b.push(EnvelopePiece {
            owner: Oid(1),
            span: TimeInterval::new(2.0, 3.0),
            hyperbola: hyp(5.0),
        });
        let e = b.build().unwrap();
        // First two merge (same owner & function), third stays (same owner,
        // different hyperbola).
        assert_eq!(e.len(), 2);
        assert_eq!(e.pieces()[0].span, TimeInterval::new(0.0, 2.0));
    }

    #[test]
    fn builder_drops_degenerate_pieces() {
        let mut b = EnvelopeBuilder::new();
        b.push(EnvelopePiece {
            owner: Oid(1),
            span: TimeInterval::new(0.0, 0.0),
            hyperbola: hyp(1.0),
        });
        b.push(EnvelopePiece {
            owner: Oid(1),
            span: TimeInterval::new(0.0, 1.0),
            hyperbola: hyp(1.0),
        });
        let e = b.build().unwrap();
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn answer_sequence_merges_across_owner_breakpoints() {
        let e = Envelope::new(vec![
            EnvelopePiece {
                owner: Oid(1),
                span: TimeInterval::new(0.0, 1.0),
                hyperbola: hyp(1.0),
            },
            EnvelopePiece {
                owner: Oid(1),
                span: TimeInterval::new(1.0, 2.0),
                hyperbola: hyp(1.5),
            },
            EnvelopePiece {
                owner: Oid(2),
                span: TimeInterval::new(2.0, 3.0),
                hyperbola: hyp(2.0),
            },
        ])
        .unwrap();
        let ans = e.answer_sequence();
        assert_eq!(ans.len(), 2);
        assert_eq!(ans[0], (Oid(1), TimeInterval::new(0.0, 2.0)));
        assert_eq!(ans[1], (Oid(2), TimeInterval::new(2.0, 3.0)));
    }

    #[test]
    fn validate_against_detects_wrong_envelope() {
        let f1 = DistanceFunction::single(
            Oid(1),
            TimeInterval::new(0.0, 10.0),
            moving((0.0, 1.0), (0.0, 0.0), 0.0),
        );
        let f2 = DistanceFunction::single(
            Oid(2),
            TimeInterval::new(0.0, 10.0),
            moving((0.0, 5.0), (0.0, 0.0), 0.0),
        );
        let good = Envelope::new(vec![EnvelopePiece {
            owner: Oid(1),
            span: TimeInterval::new(0.0, 10.0),
            hyperbola: moving((0.0, 1.0), (0.0, 0.0), 0.0),
        }])
        .unwrap();
        assert!(good
            .validate_against(&[f1.clone(), f2.clone()], 8, 1e-9)
            .is_ok());
        let bad = Envelope::new(vec![EnvelopePiece {
            owner: Oid(2),
            span: TimeInterval::new(0.0, 10.0),
            hyperbola: moving((0.0, 5.0), (0.0, 0.0), 0.0),
        }])
        .unwrap();
        assert!(bad.validate_against(&[f1, f2], 8, 1e-9).is_err());
    }

    #[test]
    fn restrict_clips_pieces() {
        let e = Envelope::new(vec![
            EnvelopePiece {
                owner: Oid(1),
                span: TimeInterval::new(0.0, 2.0),
                hyperbola: hyp(1.0),
            },
            EnvelopePiece {
                owner: Oid(2),
                span: TimeInterval::new(2.0, 4.0),
                hyperbola: hyp(2.0),
            },
        ])
        .unwrap();
        let r = e.restrict(&TimeInterval::new(1.0, 3.0)).unwrap();
        assert_eq!(r.span(), TimeInterval::new(1.0, 3.0));
        assert_eq!(r.len(), 2);
        assert!(e.restrict(&TimeInterval::new(5.0, 6.0)).is_none());
    }
}
