//! Numerically careful quadratic polynomials and their roots.
//!
//! Squared distance between two objects in linear motion is a quadratic in
//! time (§3.2 of the paper); intersections of two distance hyperbolas
//! reduce to the roots of a quadratic. This module is the workhorse for
//! both.

use crate::interval::TimeInterval;
use crate::roots::Roots;

/// The roots of a (possibly degenerate) quadratic equation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuadraticRoots {
    /// No real solution.
    None,
    /// A single solution (double root, or degenerate linear case).
    One(f64),
    /// Two distinct solutions, in ascending order.
    Two(f64, f64),
    /// Identically zero: every value is a solution.
    All,
}

impl QuadraticRoots {
    /// The roots as a vector (empty for `None`/`All`).
    pub fn to_vec(self) -> Vec<f64> {
        match self {
            QuadraticRoots::None | QuadraticRoots::All => vec![],
            QuadraticRoots::One(r) => vec![r],
            QuadraticRoots::Two(r1, r2) => vec![r1, r2],
        }
    }
}

/// A quadratic `a t^2 + b t + c` with real coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quadratic {
    /// Coefficient of `t^2`.
    pub a: f64,
    /// Coefficient of `t`.
    pub b: f64,
    /// Constant term.
    pub c: f64,
}

impl Quadratic {
    /// Creates the quadratic `a t^2 + b t + c`.
    pub const fn new(a: f64, b: f64, c: f64) -> Self {
        Quadratic { a, b, c }
    }

    /// Evaluates the quadratic at `t`.
    #[inline]
    pub fn eval(&self, t: f64) -> f64 {
        (self.a * t + self.b) * t + self.c
    }

    /// First derivative at `t`.
    #[inline]
    pub fn deriv(&self, t: f64) -> f64 {
        2.0 * self.a * t + self.b
    }

    /// Difference of two quadratics.
    pub fn sub(&self, other: &Quadratic) -> Quadratic {
        Quadratic::new(self.a - other.a, self.b - other.b, self.c - other.c)
    }

    /// The discriminant `b^2 - 4ac`.
    pub fn discriminant(&self) -> f64 {
        self.b * self.b - 4.0 * self.a * self.c
    }

    /// The location of the extremum `-b / 2a`, when `a != 0`.
    pub fn vertex(&self) -> Option<f64> {
        if self.a != 0.0 {
            Some(-self.b / (2.0 * self.a))
        } else {
            None
        }
    }

    /// Real roots of `a t^2 + b t + c = 0`, computed with the
    /// cancellation-avoiding formulation (`q = -(b + sign(b) sqrt(D)) / 2`).
    ///
    /// Coefficients that are exactly zero degrade gracefully to the linear
    /// and constant cases.
    pub fn roots(&self) -> QuadraticRoots {
        let Quadratic { a, b, c } = *self;
        if a == 0.0 {
            if b == 0.0 {
                return if c == 0.0 {
                    QuadraticRoots::All
                } else {
                    QuadraticRoots::None
                };
            }
            return QuadraticRoots::One(-c / b);
        }
        let disc = self.discriminant();
        if disc < 0.0 {
            return QuadraticRoots::None;
        }
        if disc == 0.0 {
            return QuadraticRoots::One(-b / (2.0 * a));
        }
        let sq = disc.sqrt();
        let q = -0.5 * (b + b.signum() * sq);
        // When b == 0, signum gives 1.0 (for +0.0) which is fine.
        let (r1, r2) = if q != 0.0 {
            (q / a, c / q)
        } else {
            // b == 0 and c == 0: both roots at zero (disc > 0 excludes this
            // unless a*c < 0 with c == 0, impossible); fall back.
            (-sq / (2.0 * a), sq / (2.0 * a))
        };
        if r1 < r2 {
            QuadraticRoots::Two(r1, r2)
        } else if r2 < r1 {
            QuadraticRoots::Two(r2, r1)
        } else {
            QuadraticRoots::One(r1)
        }
    }

    /// Roots restricted to a closed interval, ascending, deduplicated.
    pub fn roots_in(&self, iv: &TimeInterval) -> Roots {
        let roots = match self.roots() {
            QuadraticRoots::None | QuadraticRoots::All => [None, None],
            QuadraticRoots::One(r) => [Some(r), None],
            QuadraticRoots::Two(r1, r2) => [Some(r1), Some(r2)],
        };
        let mut out = Roots::new();
        for r in roots.into_iter().flatten().filter(|&r| iv.contains(r)) {
            out.push(r);
        }
        out
    }

    /// Minimum value attained over a closed interval.
    pub fn min_on(&self, iv: &TimeInterval) -> f64 {
        let mut m = self.eval(iv.start()).min(self.eval(iv.end()));
        if self.a > 0.0 {
            if let Some(v) = self.vertex() {
                if iv.contains(v) {
                    m = m.min(self.eval(v));
                }
            }
        }
        m
    }

    /// Maximum value attained over a closed interval.
    pub fn max_on(&self, iv: &TimeInterval) -> f64 {
        let mut m = self.eval(iv.start()).max(self.eval(iv.end()));
        if self.a < 0.0 {
            if let Some(v) = self.vertex() {
                if iv.contains(v) {
                    m = m.max(self.eval(v));
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_roots() {
        // (t - 1)(t - 3) = t^2 - 4t + 3
        let q = Quadratic::new(1.0, -4.0, 3.0);
        assert_eq!(q.roots(), QuadraticRoots::Two(1.0, 3.0));
        assert_eq!(q.eval(1.0), 0.0);
        assert_eq!(q.eval(3.0), 0.0);
    }

    #[test]
    fn double_root() {
        let q = Quadratic::new(1.0, -2.0, 1.0);
        assert_eq!(q.roots(), QuadraticRoots::One(1.0));
    }

    #[test]
    fn no_real_roots() {
        let q = Quadratic::new(1.0, 0.0, 1.0);
        assert_eq!(q.roots(), QuadraticRoots::None);
    }

    #[test]
    fn linear_degenerate() {
        let q = Quadratic::new(0.0, 2.0, -4.0);
        assert_eq!(q.roots(), QuadraticRoots::One(2.0));
    }

    #[test]
    fn constant_degenerate() {
        assert_eq!(Quadratic::new(0.0, 0.0, 5.0).roots(), QuadraticRoots::None);
        assert_eq!(Quadratic::new(0.0, 0.0, 0.0).roots(), QuadraticRoots::All);
    }

    #[test]
    fn cancellation_prone_roots_are_accurate() {
        // Roots 1e-8 and 1e8: naive formula loses the small root.
        let (r1, r2) = (1e-8, 1e8);
        let q = Quadratic::new(1.0, -(r1 + r2), r1 * r2);
        match q.roots() {
            QuadraticRoots::Two(a, b) => {
                assert!((a - r1).abs() / r1 < 1e-10, "small root {a}");
                assert!((b - r2).abs() / r2 < 1e-10, "large root {b}");
            }
            other => panic!("expected two roots, got {other:?}"),
        }
    }

    #[test]
    fn roots_in_interval_filters() {
        let q = Quadratic::new(1.0, -4.0, 3.0); // roots 1, 3
        let iv = TimeInterval::new(0.0, 2.0);
        assert_eq!(q.roots_in(&iv)[..], [1.0]);
        let iv_all = TimeInterval::new(0.0, 5.0);
        assert_eq!(q.roots_in(&iv_all)[..], [1.0, 3.0]);
        let iv_none = TimeInterval::new(1.5, 2.5);
        assert!(q.roots_in(&iv_none).is_empty());
    }

    #[test]
    fn min_max_on_interval() {
        // t^2: vertex at 0
        let q = Quadratic::new(1.0, 0.0, 0.0);
        let iv = TimeInterval::new(-1.0, 2.0);
        assert_eq!(q.min_on(&iv), 0.0);
        assert_eq!(q.max_on(&iv), 4.0);
        // vertex outside
        let iv2 = TimeInterval::new(1.0, 2.0);
        assert_eq!(q.min_on(&iv2), 1.0);
        // concave
        let qc = Quadratic::new(-1.0, 0.0, 4.0);
        assert_eq!(qc.max_on(&iv), 4.0);
        assert_eq!(qc.min_on(&iv), 0.0);
    }

    #[test]
    fn vertex_and_derivative() {
        let q = Quadratic::new(2.0, -8.0, 1.0);
        assert_eq!(q.vertex(), Some(2.0));
        assert_eq!(q.deriv(2.0), 0.0);
        assert_eq!(Quadratic::new(0.0, 1.0, 0.0).vertex(), None);
    }
}
