//! Distance hyperbolas `d(t) = sqrt(A t^2 + B t + C)`.
//!
//! §3.2 of the paper: for two objects in linear motion, the distance
//! between their expected locations as a function of time is a hyperbola
//! (the square root of a convex quadratic). Two such hyperbolas intersect
//! in at most two points — the property behind the Davenport–Schinzel
//! bound λ₂(N) = 2N − 1 on the lower-envelope complexity.
//!
//! Pairwise intersections are a quadratic's roots; shifted crossings
//! (`f = g + δ`, the `4r` band edge) and clearance extrema square into
//! quartics, built into fixed arrays and solved by [`crate::roots`]. None
//! of the three allocates.

use crate::interval::TimeInterval;
use crate::point::Vec2;
use crate::quadratic::Quadratic;
use crate::roots::{find_roots, Roots};
use std::cmp::Ordering;

/// A distance function `d(t) = sqrt(q(t))`, where `q` is a quadratic that
/// is non-negative on all of ℝ (it is a squared distance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hyperbola {
    q: Quadratic,
}

/// Error constructing a [`Hyperbola`] from a quadratic that takes negative
/// values (hence cannot be a squared distance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NegativeQuadratic;

impl std::fmt::Display for NegativeQuadratic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "quadratic takes negative values; not a squared distance")
    }
}

impl std::error::Error for NegativeQuadratic {}

impl Hyperbola {
    /// Builds the distance hyperbola of a relative linear motion: the
    /// moving point is at `p0` at time `t_ref` and moves with constant
    /// velocity `v`; `d(t)` is its distance from the origin.
    ///
    /// This is exactly the difference-trajectory construction of §3.2,
    /// evaluated in a shifted time frame for numerical stability before
    /// expansion to global coefficients.
    pub fn from_relative_motion(p0: Vec2, v: Vec2, t_ref: f64) -> Hyperbola {
        // In local time u = t - t_ref:
        //   q(u) = |v|^2 u^2 + 2 (p0·v) u + |p0|^2
        let a = v.norm_sq();
        let b = 2.0 * p0.dot(v);
        let c = p0.norm_sq();
        // Expand to global time t = u + t_ref.
        let ag = a;
        let bg = b - 2.0 * a * t_ref;
        let cg = a * t_ref * t_ref - b * t_ref + c;
        Hyperbola {
            q: Quadratic::new(ag, bg, cg),
        }
    }

    /// Wraps an existing quadratic, verifying it is non-negative
    /// everywhere (up to a tiny tolerance for rounding).
    pub fn from_quadratic(q: Quadratic) -> Result<Hyperbola, NegativeQuadratic> {
        let scale = q.a.abs().max(q.b.abs()).max(q.c.abs()).max(1.0);
        let min = if q.a > 0.0 {
            q.eval(-q.b / (2.0 * q.a))
        } else if q.a == 0.0 && q.b == 0.0 {
            q.c
        } else {
            // a < 0, or linear with slope: unbounded below.
            f64::NEG_INFINITY
        };
        if min < -1e-9 * scale {
            Err(NegativeQuadratic)
        } else {
            Ok(Hyperbola { q })
        }
    }

    /// A constant distance function `d(t) = d0`.
    pub fn constant(d0: f64) -> Hyperbola {
        assert!(
            d0 >= 0.0 && d0.is_finite(),
            "invalid constant distance {d0}"
        );
        Hyperbola {
            q: Quadratic::new(0.0, 0.0, d0 * d0),
        }
    }

    /// The underlying squared-distance quadratic.
    pub fn quadratic(&self) -> &Quadratic {
        &self.q
    }

    /// Squared distance at `t`, clamped at zero.
    #[inline]
    pub fn eval_sq(&self, t: f64) -> f64 {
        self.q.eval(t).max(0.0)
    }

    /// Distance at `t`.
    #[inline]
    pub fn eval(&self, t: f64) -> f64 {
        self.eval_sq(t).sqrt()
    }

    /// The instant of minimum distance (`t_m = -B / 2A`), or `None` when
    /// the relative speed is zero (constant distance).
    pub fn vertex(&self) -> Option<f64> {
        self.q.vertex()
    }

    /// Minimum distance over a closed interval, with the instant where it
    /// is attained.
    pub fn min_on(&self, iv: &TimeInterval) -> (f64, f64) {
        let mut best_t = iv.start();
        let mut best = self.eval_sq(iv.start());
        let e = self.eval_sq(iv.end());
        if e < best {
            best = e;
            best_t = iv.end();
        }
        if self.q.a > 0.0 {
            if let Some(v) = self.vertex() {
                if iv.contains(v) {
                    let m = self.eval_sq(v);
                    if m < best {
                        best = m;
                        best_t = v;
                    }
                }
            }
        }
        (best_t, best.sqrt())
    }

    /// Maximum distance over a closed interval (attained at an endpoint
    /// because the squared distance is convex), with the instant.
    pub fn max_on(&self, iv: &TimeInterval) -> (f64, f64) {
        let s = self.eval_sq(iv.start());
        let e = self.eval_sq(iv.end());
        if s >= e {
            (iv.start(), s.sqrt())
        } else {
            (iv.end(), e.sqrt())
        }
    }

    /// `(min, max)` of the distance over a closed interval — the values of
    /// [`Hyperbola::min_on`] and [`Hyperbola::max_on`] from one pass over
    /// the two endpoints and the vertex.
    pub fn range_on(&self, iv: &TimeInterval) -> (f64, f64) {
        let s = self.eval_sq(iv.start());
        let e = self.eval_sq(iv.end());
        let mut lo = s.min(e);
        if self.q.a > 0.0 {
            if let Some(v) = self.vertex() {
                if iv.contains(v) {
                    lo = lo.min(self.eval_sq(v));
                }
            }
        }
        (lo.sqrt(), s.max(e).sqrt())
    }

    /// Compares the two distance values at `t` (via the squared values,
    /// avoiding square roots).
    pub fn compare_at(&self, other: &Hyperbola, t: f64) -> Ordering {
        self.q.eval(t).total_cmp(&other.q.eval(t))
    }

    /// Instants within `iv` where the two distance functions are equal
    /// (at most two — the critical time points of §3.2), ascending.
    pub fn intersections(&self, other: &Hyperbola, iv: &TimeInterval) -> Roots {
        self.q.sub(&other.q).roots_in(iv)
    }

    /// Instants within `iv` where `self(t) = other(t) + delta`
    /// (`delta >= 0`), ascending.
    ///
    /// Setting `delta = 4r` gives the crossing times of the pruning band of
    /// §3.2. The equation is squared into the quartic
    /// `(q_s − q_o − δ²)² = 4 δ² q_o`, solved by [`find_roots`], and the
    /// candidates are verified against the original (unsquared) equation to
    /// drop the spurious `self = other − δ` branch. Allocates nothing.
    pub fn crossings_shifted(&self, other: &Hyperbola, delta: f64, iv: &TimeInterval) -> Roots {
        assert!(delta >= 0.0, "negative shift {delta}");
        if delta == 0.0 {
            return self.intersections(other, iv);
        }
        let (qs, qo) = (coeffs(&self.q), coeffs(&other.q));
        let d2 = delta * delta;
        let u = [qs[0] - qo[0] - d2, qs[1] - qo[1], qs[2] - qo[2]];
        let mut quartic: [f64; 5] = product(&u, &u);
        for (c, o) in quartic.iter_mut().zip(qo) {
            *c -= o * (4.0 * d2);
        }
        let mut out = Roots::new();
        for t in find_roots(&quartic, iv.start(), iv.end()) {
            let ds = self.eval(t);
            let do_ = other.eval(t);
            let tol = 1e-6 * (1.0 + ds + do_ + delta);
            if (ds - do_ - delta).abs() <= tol && out.last().map_or(true, |&l| t - l >= 1e-10) {
                out.push(t);
            }
        }
        out
    }

    /// Minimum over `iv` of `self(t) - other(t)` (the signed clearance
    /// between two distance functions), computed by examining endpoints,
    /// interior stationary points of the difference, and both vertices.
    ///
    /// Used for the pruning decision: an object can be discarded when its
    /// clearance above the envelope exceeds `4r` everywhere. Allocates
    /// nothing.
    pub fn min_clearance_above(&self, other: &Hyperbola, iv: &TimeInterval) -> f64 {
        let g = |t: f64| self.eval(t) - other.eval(t);
        let mut best = g(iv.start()).min(g(iv.end()));
        // Stationary points of h(t) = sqrt(qs) - sqrt(qo):
        //   h'(t) = qs' / (2 sqrt(qs)) - qo' / (2 sqrt(qo)) = 0
        //   ⇔ qs' * sqrt(qo) = qo' * sqrt(qs)
        //   ⇒ qs'^2 qo = qo'^2 qs   (square, then verify sign)
        let (qs, qo) = (coeffs(&self.q), coeffs(&other.q));
        let (dqs, dqo) = ([qs[1], 2.0 * qs[2]], [qo[1], 2.0 * qo[2]]);
        let lhs: [f64; 5] = product(&product::<3>(&dqs, &dqs), &qo);
        let rhs: [f64; 5] = product(&product::<3>(&dqo, &dqo), &qs);
        let quartic: [f64; 5] = std::array::from_fn(|i| lhs[i] - rhs[i]);
        for t in find_roots(&quartic, iv.start(), iv.end()) {
            best = best.min(g(t));
        }
        // Vertices of either branch are also candidate extrema when a
        // square root is not differentiable (touches zero).
        for v in [self.vertex(), other.vertex()].into_iter().flatten() {
            if iv.contains(v) {
                best = best.min(g(v));
            }
        }
        best
    }
}

/// `q`'s coefficients, lowest degree first.
fn coeffs(q: &Quadratic) -> [f64; 3] {
    [q.c, q.b, q.a]
}

/// Coefficients of the product of two polynomials (lowest degree first),
/// in an array of the product's length `N`.
fn product<const N: usize>(p: &[f64], q: &[f64]) -> [f64; N] {
    let mut out = [0.0; N];
    for (i, &x) in p.iter().enumerate() {
        for (j, &y) in q.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn h(p0: (f64, f64), v: (f64, f64), t_ref: f64) -> Hyperbola {
        Hyperbola::from_relative_motion(Vec2::new(p0.0, p0.1), Vec2::new(v.0, v.1), t_ref)
    }

    #[test]
    fn eval_matches_direct_distance() {
        // Point at (3, 4) at t=0 moving with velocity (1, 0).
        let f = h((3.0, 4.0), (1.0, 0.0), 0.0);
        assert!((f.eval(0.0) - 5.0).abs() < 1e-12);
        // at t = 2: (5, 4) -> sqrt(41)
        assert!((f.eval(2.0) - 41.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn t_ref_shift_is_equivalent() {
        // Same motion expressed with different reference times.
        let f = h((3.0, 4.0), (1.0, -2.0), 0.0);
        // At t_ref=5 the point is at (3+5, 4-10) = (8, -6).
        let g = h((8.0, -6.0), (1.0, -2.0), 5.0);
        for t in [-2.0, 0.0, 1.5, 5.0, 9.0] {
            assert!((f.eval(t) - g.eval(t)).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn vertex_is_closest_approach() {
        // Point passes through origin at t=2 exactly.
        let f = h((-2.0, 0.0), (1.0, 0.0), 0.0);
        let v = f.vertex().unwrap();
        assert!((v - 2.0).abs() < 1e-12);
        assert!(f.eval(v) < 1e-12);
    }

    #[test]
    fn min_max_on_interval() {
        let f = h((-2.0, 1.0), (1.0, 0.0), 0.0); // closest at t=2, distance 1
        let iv = TimeInterval::new(0.0, 5.0);
        let (tm, dm) = f.min_on(&iv);
        assert!((tm - 2.0).abs() < 1e-12);
        assert!((dm - 1.0).abs() < 1e-12);
        let (tx, dx) = f.max_on(&iv);
        assert_eq!(tx, 5.0);
        assert!((dx - 10.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(f.range_on(&iv), (dm, dx));
        // interval excluding vertex
        let iv2 = TimeInterval::new(3.0, 5.0);
        let (tm2, dm2) = f.min_on(&iv2);
        assert_eq!(tm2, 3.0);
        assert!((dm2 - 2.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(f.range_on(&iv2), (dm2, f.max_on(&iv2).1));
        assert_eq!(Hyperbola::constant(3.0).range_on(&iv), (3.0, 3.0));
    }

    #[test]
    fn constant_distance() {
        let f = Hyperbola::constant(3.0);
        assert_eq!(f.eval(0.0), 3.0);
        assert_eq!(f.eval(100.0), 3.0);
        assert!(f.vertex().is_none());
    }

    #[test]
    fn intersections_two_points() {
        // f: static at distance 2; g: flyby reaching distance 1 at t=2.
        let f = Hyperbola::constant(2.0);
        let g = h((-2.0, 1.0), (1.0, 0.0), 0.0);
        let iv = TimeInterval::new(0.0, 5.0);
        let xs = g.intersections(&f, &iv);
        assert_eq!(xs.len(), 2, "{xs:?}");
        for &t in &xs {
            assert!((g.eval(t) - 2.0).abs() < 1e-9);
        }
        // Before the first crossing g is farther, between crossings closer.
        assert_eq!(g.compare_at(&f, 0.0), Ordering::Greater);
        assert_eq!(g.compare_at(&f, 2.0), Ordering::Less);
    }

    #[test]
    fn intersections_respect_interval() {
        let f = Hyperbola::constant(2.0);
        let g = h((-2.0, 1.0), (1.0, 0.0), 0.0);
        // crossings are near t ≈ 0.27 and t ≈ 3.73
        let xs = g.intersections(&f, &TimeInterval::new(1.0, 3.0));
        assert!(xs.is_empty(), "{xs:?}");
    }

    #[test]
    fn crossings_shifted_basic() {
        // g dips below f + delta and comes back.
        let f = Hyperbola::constant(1.0);
        let g = h((-5.0, 0.0), (1.0, 0.0), 0.0); // reaches 0 at t=5
        let iv = TimeInterval::new(0.0, 10.0);
        let delta = 2.0;
        // g(t) = |t - 5|; crossing where |t-5| = 1 + 2 = 3 -> t = 2, 8.
        let xs = g.crossings_shifted(&f, delta, &iv);
        assert_eq!(xs.len(), 2, "{xs:?}");
        assert!((xs[0] - 2.0).abs() < 1e-6);
        assert!((xs[1] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn crossings_shifted_rejects_wrong_branch() {
        // f below g: f = g - delta has solutions but f = g + delta must not.
        let f = Hyperbola::constant(1.0);
        let g = Hyperbola::constant(3.0);
        let iv = TimeInterval::new(0.0, 10.0);
        // f(t) = 1, g(t) + 2 = 5: never equal.
        assert!(f.crossings_shifted(&g, 2.0, &iv).is_empty());
        // g(t) = 3 = f(t) + 2 everywhere: squaring makes this the
        // degenerate all-solutions case; the quartic is identically zero
        // and root isolation returns nothing — callers treat "no crossing"
        // as "no sign change", which is correct for a constant offset.
        let xs = g.crossings_shifted(&f, 2.0, &iv);
        assert!(xs.is_empty(), "{xs:?}");
    }

    #[test]
    fn crossings_shifted_zero_delta_is_intersection() {
        let f = Hyperbola::constant(2.0);
        let g = h((-2.0, 1.0), (1.0, 0.0), 0.0);
        let iv = TimeInterval::new(0.0, 5.0);
        assert_eq!(g.crossings_shifted(&f, 0.0, &iv), g.intersections(&f, &iv));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// A flyby grazing a parked object's band edge `g + δ` at a
        /// relative depth of 1e-12 … 1e-1, on either side, at the spread
        /// of scales the system meets (spacing 1e-3 … 1e4 mi, windows of
        /// one second … three days, in minutes). Its crossings are known in
        /// closed form: those of the quadratic `q_f = (g + δ)²`. Once the
        /// depth clears the acceptance tolerance tenfold, the quartic must
        /// find exactly them — a crossing pair must not collapse into a
        /// tangency, nor a near miss turn into one.
        #[test]
        fn grazing_flybys_cross_exactly_when_they_dip(
            scale in -3.0..4.0f64,
            window in (1.0f64 / 60.0).log10()..4320f64.log10(),
            depth in -12.0..-1.0f64,
            dips in 0usize..2,
            shape in (0.3..0.7f64, 2.0..20.0f64, 0.5..10.0f64, -2.0..1.5f64),
        ) {
            let (at, pace, park, delta) = shape;
            let (scale, len) = (10f64.powf(scale), 10f64.powf(window));
            let g = Hyperbola::constant(park * scale);
            let delta = scale * 10f64.powf(delta);
            let level = g.eval(0.0) + delta;
            let sign = if dips == 1 { -1.0 } else { 1.0 };
            let y = level * (1.0 + sign * 10f64.powf(depth));
            let v = pace * level / len;
            let f = h((-v * at * len, y), (v, 0.0), 0.0);
            let iv = TimeInterval::new(0.0, len);
            let q = f.quadratic();
            let expected = Quadratic::new(q.a, q.b, q.c - level * level).roots_in(&iv);
            let got = f.crossings_shifted(&g, delta, &iv);
            let miss = (f.min_on(&iv).1 - level).abs();
            prop_assume!(miss > 1e-5 * (1.0 + 2.0 * level));
            prop_assert_eq!(got.len(), expected.len(), "{:?} vs {:?}", got, expected);
            for (a, b) in got.iter().zip(&expected) {
                prop_assert!((a - b).abs() <= 1e-6 * len, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn min_clearance_above_flat_pair() {
        let f = Hyperbola::constant(5.0);
        let g = Hyperbola::constant(1.0);
        let iv = TimeInterval::new(0.0, 1.0);
        assert!((f.min_clearance_above(&g, &iv) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn min_clearance_above_with_dip() {
        // g static 1; f dips to 2 at t=5 (from far away).
        let f = h((-5.0, 2.0), (1.0, 0.0), 0.0);
        let g = Hyperbola::constant(1.0);
        let iv = TimeInterval::new(0.0, 10.0);
        let c = f.min_clearance_above(&g, &iv);
        assert!((c - 1.0).abs() < 1e-9, "clearance {c}");
    }

    #[test]
    fn from_quadratic_validates() {
        assert!(Hyperbola::from_quadratic(Quadratic::new(1.0, 0.0, 1.0)).is_ok());
        assert!(Hyperbola::from_quadratic(Quadratic::new(1.0, 0.0, -1.0)).is_err());
        assert!(Hyperbola::from_quadratic(Quadratic::new(-1.0, 0.0, 1.0)).is_err());
        assert!(Hyperbola::from_quadratic(Quadratic::new(0.0, 1.0, 0.0)).is_err());
    }

    #[test]
    fn degenerate_same_function_intersections() {
        let f = h((1.0, 1.0), (0.5, -0.5), 0.0);
        // Identical functions: difference identically zero -> no discrete
        // intersection times reported.
        let iv = TimeInterval::new(0.0, 1.0);
        assert!(f.intersections(&f, &iv).is_empty());
    }
}
