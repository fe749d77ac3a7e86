//! Real roots of polynomials of degree ≤ 4, by derivative recursion.
//!
//! Every boundary of a candidate's `4r` band interval is a root of the
//! quartic `(q_s − q_o − δ²)² = 4δ²q_o` (see `unn-core::band`), and every
//! interior extremum of a clearance `√q_s − √q_o` one of a quartic too.
//! Such a polynomial is solved without any heap allocation: the real roots
//! of `p′` in `[lo, hi]`, found the same way, cut the interval into pieces
//! on which `p` is monotone, so a piece holds a root exactly when its end
//! values differ in sign, and then exactly one. That root is refined by
//! Newton's method kept inside the bracket, bisecting whenever a Newton
//! step would leave it or fails to halve the previous step.
//!
//! A root of even multiplicity has no sign change: it sits on a critical
//! point, where `p` is reported as zero when `|p| ≤ 1e-14 · Σ|cᵢ||t|ⁱ`,
//! about five times the rounding bound of evaluating a quartic there. Two
//! roots whose dip between them stays under that come back as one, at the
//! critical point between them. The bound is deliberately this tight: at
//! `1e-10` a grazing band excursion — a flyby dipping into `g + δ` by
//! 1e-5 of its distance — was swallowed as one tangency, in global-time
//! coefficients whose terms dwarf the values they sum to.

use std::fmt;
use std::ops::Deref;

/// Highest degree [`find_roots`] solves.
pub const MAX_DEGREE: usize = 4;

/// Relative size of `|p|` at a critical point under which it is a root:
/// ~45 ε, five times the `8ε Σ|cᵢ||t|ⁱ` error bound of a degree-4 Horner
/// evaluation.
const TANGENCY: f64 = 1e-14;

/// Newton / bisection steps after which refinement stops regardless; a
/// bisection alone narrows a 3-day window (in minutes) to 1e-12 in 52.
const MAX_STEPS: usize = 100;

/// Distinct real roots, ascending — at most [`MAX_DEGREE`] of them, held
/// inline. Dereferences to `&[f64]`.
#[derive(Clone, Copy, Default)]
pub struct Roots {
    len: usize,
    values: [f64; MAX_DEGREE],
}

impl Roots {
    /// No roots.
    pub const fn new() -> Self {
        Roots {
            len: 0,
            values: [0.0; MAX_DEGREE],
        }
    }

    /// Appends `t`. A full set ignores it: more than [`MAX_DEGREE`] roots
    /// can only be reported where `p` is within rounding of zero over a
    /// whole monotone piece, and the first four already cover it.
    pub(crate) fn push(&mut self, t: f64) {
        if self.len < MAX_DEGREE {
            self.values[self.len] = t;
            self.len += 1;
        }
    }
}

impl Deref for Roots {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.values[..self.len]
    }
}

impl PartialEq for Roots {
    fn eq(&self, other: &Roots) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Roots {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl IntoIterator for Roots {
    type Item = f64;
    type IntoIter = std::iter::Take<std::array::IntoIter<f64, MAX_DEGREE>>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.into_iter().take(self.len)
    }
}

impl<'a> IntoIterator for &'a Roots {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Distinct real roots of `c₀ + c₁t + … + c_n tⁿ` (`coeffs` lowest degree
/// first, `n ≤ 4`) within the closed interval `[lo, hi]`, ascending.
///
/// Multiplicities are collapsed, which is what the geometric callers
/// want: a tangency counts as one crossing time. Trailing zero
/// coefficients are dropped; an identically-zero polynomial has no roots
/// (every instant would be one), and neither has an empty or reversed
/// interval.
///
/// # Panics
///
/// Panics when `coeffs` has more than five entries.
pub fn find_roots(coeffs: &[f64], lo: f64, hi: f64) -> Roots {
    assert!(
        coeffs.len() <= MAX_DEGREE + 1,
        "degree {} above {MAX_DEGREE}",
        coeffs.len() - 1
    );
    let n = coeffs.iter().rposition(|&c| c != 0.0).map_or(0, |i| i + 1);
    let c = &coeffs[..n];
    let mut roots = Roots::new();
    if n < 2 || lo > hi {
        return roots;
    }
    if n == 2 {
        let r = -c[0] / c[1];
        if (lo..=hi).contains(&r) {
            roots.push(r);
        }
        return roots;
    }
    let mut slope = [0.0; MAX_DEGREE];
    let mut curvature = [0.0; MAX_DEGREE - 1];
    for i in 1..n {
        slope[i - 1] = c[i] * i as f64;
        if i > 1 {
            curvature[i - 2] = slope[i - 1] * (i - 1) as f64;
        }
    }
    // Breakpoints: `lo`, the critical points, `hi` — each flagged with
    // whether it is a critical point.
    let mut points = [(lo, false); MAX_DEGREE + 1];
    let mut m = 1;
    for t in find_roots(&slope[..n - 1], lo, hi) {
        if t == points[m - 1].0 {
            points[m - 1].1 = true;
        } else {
            points[m] = (t, true);
            m += 1;
        }
    }
    if hi != points[m - 1].0 {
        points[m] = (hi, false);
        m += 1;
    }
    let mut push = |t: f64| {
        if roots.last().map_or(true, |&last| t > last) {
            roots.push(t);
        }
    };
    let mut prev: Option<(f64, f64, bool)> = None;
    for &(t, critical) in &points[..m] {
        let v = eval(c, t);
        let zero = v == 0.0 || (critical && v.abs() <= tangency(c, &curvature[..n - 2], t));
        if let Some((a, fa, a_zero)) = prev {
            if !a_zero && !zero && (fa < 0.0) != (v < 0.0) {
                push(refine(c, a, t, fa));
            }
        }
        if zero {
            push(t);
        }
        prev = Some((t, v, zero));
    }
    roots
}

/// The one root of `c` in `(a, b)`, where `p(a) = fa` and `p(b)` have
/// opposite signs.
fn refine(c: &[f64], mut a: f64, mut b: f64, fa: f64) -> f64 {
    let negative_at_a = fa < 0.0;
    let mut t = 0.5 * (a + b);
    let mut last_step = b - a;
    for _ in 0..MAX_STEPS {
        let (v, dv) = eval_with_slope(c, t);
        if v == 0.0 {
            return t;
        }
        if (v < 0.0) == negative_at_a {
            a = t;
        } else {
            b = t;
        }
        let tol = resolution(t);
        if b - a <= tol {
            return 0.5 * (a + b);
        }
        let newton = t - v / dv;
        let next = if newton > a && newton < b && 2.0 * (newton - t).abs() <= last_step {
            newton
        } else {
            0.5 * (a + b)
        };
        last_step = (next - t).abs();
        t = next;
        if last_step <= tol {
            break;
        }
    }
    t
}

/// How far apart two instants near `t` must be for refinement to tell
/// them apart: `max(1e-12, 4ε|t|)`.
fn resolution(t: f64) -> f64 {
    (4.0 * f64::EPSILON * t.abs()).max(1e-12)
}

/// The largest `|p|` at the critical point `t` that still counts as a
/// root: `TANGENCY · Σ|cᵢ||t|ⁱ`, plus what `p` can rise over the critical
/// point's own [`resolution`] (`|p″| τ² / 2`). The second term only
/// matters within ~1e-7 of `t = 0`, where every term of `p` vanishes and
/// a double root would otherwise hide behind the refinement floor.
fn tangency(c: &[f64], curvature: &[f64], t: f64) -> f64 {
    let tau = resolution(t);
    TANGENCY * eval_abs(c, t) + 0.5 * eval(curvature, t).abs() * tau * tau
}

/// `p(t)` by Horner's scheme.
fn eval(c: &[f64], t: f64) -> f64 {
    c.iter().rev().fold(0.0, |acc, &ci| acc * t + ci)
}

/// `Σ|cᵢ||t|ⁱ`: the scale of the terms `p(t)` sums, hence of its
/// rounding error.
fn eval_abs(c: &[f64], t: f64) -> f64 {
    c.iter()
        .rev()
        .fold(0.0, |acc, &ci| acc * t.abs() + ci.abs())
}

/// `(p(t), p′(t))` in one Horner pass.
fn eval_with_slope(c: &[f64], t: f64) -> (f64, f64) {
    c.iter()
        .rev()
        .fold((0.0, 0.0), |(v, d), &ci| (v * t + ci, d * t + v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Coefficients of `scale · Π (t − rᵢ)`, padded with exact zeros to
    /// degree 4.
    fn from_roots(scale: f64, roots: &[f64]) -> [f64; 5] {
        let mut p = [0.0; 5];
        p[0] = scale;
        for (k, &r) in roots.iter().enumerate() {
            for i in (0..=k + 1).rev() {
                let lower = if i == 0 { 0.0 } else { p[i - 1] };
                p[i] = lower - r * p[i];
            }
        }
        p
    }

    fn assert_roots_close(got: &[f64], expected: &[f64], tol: f64) {
        assert_eq!(
            got.len(),
            expected.len(),
            "root count mismatch: got {got:?}, expected {expected:?}"
        );
        for (g, e) in got.iter().zip(expected) {
            assert!((g - e).abs() < tol, "root {g} vs expected {e}");
        }
    }

    /// Every reported root is within `tol` of a true one and every true
    /// one within `tol` of a reported one; reported roots ascend strictly.
    fn covers(got: &[f64], truth: &[f64], tol: f64) -> Result<(), TestCaseError> {
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "{got:?} not ascending");
        for g in got {
            prop_assert!(
                truth.iter().any(|t| (g - t).abs() <= tol),
                "spurious root {g}: truth {truth:?}"
            );
        }
        for t in truth {
            prop_assert!(
                got.iter().any(|g| (g - t).abs() <= tol),
                "missed root {t}: got {got:?}"
            );
        }
        Ok(())
    }

    #[test]
    fn linear_root() {
        let p = [-3.0, 1.5]; // 1.5x - 3
        assert_roots_close(&find_roots(&p, 0.0, 10.0), &[2.0], 1e-12);
        assert!(find_roots(&p, 3.0, 10.0).is_empty());
    }

    #[test]
    fn quadratic_roots() {
        let p = from_roots(1.0, &[1.0, 3.0]);
        assert_roots_close(&find_roots(&p, 0.0, 10.0), &[1.0, 3.0], 1e-10);
    }

    #[test]
    fn quartic_distinct_roots() {
        let expected = [-2.5, -0.5, 0.75, 4.0];
        let p = from_roots(1.0, &expected);
        assert_roots_close(&find_roots(&p, -10.0, 10.0), &expected, 1e-9);
    }

    #[test]
    fn quartic_close_roots() {
        let expected = [1.0, 1.001, 2.0, 2.0005];
        let p = from_roots(1.0, &expected);
        assert_roots_close(&find_roots(&p, 0.0, 3.0), &expected, 1e-6);
    }

    #[test]
    fn repeated_roots_collapse() {
        // (x-1)^2 (x-2): distinct roots {1, 2}
        let p = from_roots(1.0, &[1.0, 1.0, 2.0]);
        assert_roots_close(&find_roots(&p, 0.0, 3.0), &[1.0, 2.0], 1e-8);
        // Two double roots: a quartic that never changes sign.
        let p = from_roots(1.0, &[0.3, 0.3, 2.7, 2.7]);
        assert_roots_close(&find_roots(&p, 0.0, 3.0), &[0.3, 2.7], 1e-7);
    }

    #[test]
    fn no_real_roots() {
        let p = [1.0, 0.0, 1.0]; // x^2 + 1
        assert!(find_roots(&p, -10.0, 10.0).is_empty());
    }

    #[test]
    fn root_at_interval_endpoints() {
        let p = from_roots(1.0, &[0.0, 5.0]);
        let roots = find_roots(&p, 0.0, 5.0);
        assert_roots_close(&roots, &[0.0, 5.0], 1e-9);
        // A critical point on an endpoint, and a one-instant interval.
        let p = from_roots(1.0, &[1.0, 1.0, 3.0]);
        assert_eq!(find_roots(&p, 1.0, 2.0)[..], [1.0]);
        assert_eq!(find_roots(&p, 3.0, 3.0)[..], [3.0]);
        assert!(find_roots(&p, 2.0, 2.0).is_empty());
    }

    #[test]
    fn interval_filters_outside_roots() {
        let p = from_roots(1.0, &[-1.0, 2.0, 7.0]);
        assert_roots_close(&find_roots(&p, 0.0, 5.0), &[2.0], 1e-9);
        assert!(find_roots(&p, 5.0, 0.0).is_empty(), "reversed interval");
    }

    #[test]
    fn scaled_coefficients_do_not_break_isolation() {
        // Same roots but badly scaled coefficients.
        let p = from_roots(1e8, &[0.001, 0.002, 30.0]);
        let roots = find_roots(&p, 0.0, 100.0);
        assert_roots_close(&roots, &[0.001, 0.002, 30.0], 1e-6);
    }

    #[test]
    fn zero_and_constant_polys() {
        assert!(find_roots(&[], 0.0, 1.0).is_empty());
        assert!(find_roots(&[0.0; 5], 0.0, 1.0).is_empty());
        assert!(find_roots(&[3.0], 0.0, 1.0).is_empty());
        assert!(find_roots(&[3.0, 0.0, 0.0, 0.0, 0.0], 0.0, 1.0).is_empty());
    }

    #[test]
    fn exact_zero_leading_coefficients_lower_the_degree() {
        // A quadratic padded to a quartic, and a cubic.
        let p = [2.0, -3.0, 1.0, 0.0, 0.0];
        assert_roots_close(&find_roots(&p, 0.0, 5.0), &[1.0, 2.0], 1e-12);
        let p = from_roots(-2.0, &[0.5, 1.5, 2.5]);
        assert_eq!(p[4], 0.0);
        assert_roots_close(&find_roots(&p, 0.0, 5.0), &[0.5, 1.5, 2.5], 1e-10);
    }

    #[test]
    fn a_double_root_on_zero_is_found() {
        // Refinement puts the critical point within 1e-12 of 0, not on
        // it, where |p| is as large as every term of p.
        for k in 0..=64 {
            let scale = 10f64.powf(-8.0 + 0.25 * f64::from(k));
            let p = from_roots(scale, &[0.0, 21.0, 54.0, 0.0]);
            assert_roots_close(&find_roots(&p, -1.0, 61.0), &[0.0, 21.0, 54.0], 1e-9);
            let p = from_roots(scale, &[0.0, 0.0]);
            assert_eq!(find_roots(&p, -1.0, 61.0)[..], [0.0]);
        }
    }

    #[test]
    fn a_pair_closer_than_the_resolution_is_one_root() {
        let p = from_roots(1.0, &[1.0, 1.0 + 1e-9, 2.0]);
        let roots = find_roots(&p, 0.0, 3.0);
        assert_roots_close(&roots, &[1.0, 2.0], 1e-6);
    }

    #[test]
    fn three_day_windows_in_minutes() {
        let expected = [12.5, 1440.0, 2881.25, 4319.0];
        let p = from_roots(1.0, &expected);
        assert_roots_close(&find_roots(&p, 0.0, 4320.0), &expected, 1e-7);
        // The two roots of a crossing pair 2 minutes apart late in day 3.
        let p = from_roots(1.0, &[4100.0, 4102.0]);
        assert_roots_close(&find_roots(&p, 0.0, 4320.0), &[4100.0, 4102.0], 1e-8);
    }

    #[test]
    fn roots_read_as_a_slice() {
        let roots = find_roots(&from_roots(1.0, &[3.0, 1.0]), 0.0, 4.0);
        assert_eq!(roots, roots.clone());
        assert_eq!(format!("{roots:?}"), format!("{:?}", &roots[..]));
        assert_eq!(
            roots.iter().copied().collect::<Vec<_>>(),
            roots.into_iter().collect::<Vec<_>>()
        );
        assert_eq!((&roots).into_iter().count(), 2);
        assert!(Roots::new().is_empty());
    }

    /// Roots on a dyadic grid (`i · 2^e`) with a power-of-two scale: the
    /// coefficients and every Horner step are exact, so a root that is
    /// also an interval end must be reported exactly.
    fn dyadic_case() -> impl Strategy<Value = (Vec<f64>, f64, f64, f64)> {
        (
            prop::collection::btree_set(-40i32..40, 1..5),
            -6i32..7,
            -26i32..27,
            0usize..4,
        )
            .prop_map(|(grid, e, s, ends)| {
                let unit = 2f64.powi(e);
                let roots: Vec<f64> = grid.into_iter().map(|i| f64::from(i) * unit).collect();
                let (first, last) = (roots[0], roots[roots.len() - 1]);
                // Interval ends: on the extreme roots, or just outside.
                let lo = if ends & 1 == 1 {
                    first
                } else {
                    first - unit * 0.5
                };
                let hi = if ends & 2 == 2 {
                    last
                } else {
                    last + unit * 0.5
                };
                let scale = if s % 2 == 0 { 1.0 } else { -1.0 } * 2f64.powi(s);
                (roots, lo, hi, scale)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn dyadic_roots_are_found_exactly(case in dyadic_case()) {
            let (roots, lo, hi, scale) = case;
            let found = find_roots(&from_roots(scale, &roots), lo, hi);
            prop_assert_eq!(found.len(), roots.len(), "found {:?} vs {:?}", found, roots);
            for (f, e) in found.iter().zip(&roots) {
                let tol = if *e == lo || *e == hi { 0.0 } else { 1e-9 * (1.0 + e.abs()) };
                prop_assert!((f - e).abs() <= tol, "{f} vs {e} on [{lo}, {hi}]");
            }
        }

        #[test]
        fn separated_roots_at_any_scale_and_window(
            raw in prop::collection::vec(0.0..1.0f64, 1..5),
            window in 0.0..(4320f64).log10(),
            scale in -8.0..8.0f64,
            negative in 0usize..2,
        ) {
            // Roots spread over a window of 1 … 4320 minutes, at least
            // 1/40 of it apart.
            let len = 10f64.powf(window);
            let mut roots: Vec<f64> = raw.iter().map(|u| (u * 40.0).floor() / 40.0 * len).collect();
            roots.sort_by(f64::total_cmp);
            roots.dedup();
            let jitter: Vec<f64> = raw.iter().map(|u| (u * 4000.0).fract() * 0.2 / 40.0 * len).collect();
            for (r, j) in roots.iter_mut().zip(jitter) {
                *r += j;
            }
            let sign = if negative == 1 { -1.0 } else { 1.0 };
            let p = from_roots(sign * 10f64.powf(scale), &roots);
            let found = find_roots(&p, -0.5 / 40.0 * len, 1.5 * len);
            covers(&found, &roots, 1e-7 * (1.0 + len))?;
            prop_assert_eq!(found.len(), roots.len(), "found {:?} vs {:?}", found, roots);
        }

        #[test]
        fn double_roots_and_close_pairs_are_bracketed(
            raw in prop::collection::vec(0.0..1.0f64, 2..4),
            gap in prop_oneof![Just(0.0), Just(1e-9), Just(0.5)],
            scale in -8.0..8.0f64,
        ) {
            // The first root doubled (gap 0) or split into a pair `gap`
            // apart; the others at least 3 apart. A pair 1e-9 apart is
            // below the tangency resolution and comes back as one root.
            let mut roots: Vec<f64> = raw.iter().map(|u| (u * 20.0).floor() * 3.0).collect();
            roots.sort_by(f64::total_cmp);
            roots.dedup();
            let mut built = roots.clone();
            built.push(roots[0] + gap);
            let mut truth = built.clone();
            truth.sort_by(f64::total_cmp);
            let found = find_roots(&from_roots(10f64.powf(scale), &built), -1.0, 61.0);
            covers(&found, &truth, 1e-6 * 61.0)?;
            // A pair 1e-9 apart resolves only where the terms of `p` are
            // that small themselves: next to t = 0.
            let resolved = gap == 0.5 || (gap > 0.0 && roots[0] == 0.0);
            let want = if resolved { truth.len() } else { roots.len() };
            prop_assert!(
                found.len() == want || (gap > 0.0 && found.len() == truth.len()),
                "found {:?} vs {:?}", found, truth
            );
        }
    }
}
