//! The Sturm-chain root isolator that [`crate::roots::find_roots`]
//! replaced, kept as the reference the differential tests hold the
//! production solver to.
//!
//! The approach is classical: build the Sturm chain of the square-free
//! part, count real roots per interval by sign-variation differences,
//! bisect until each interval holds exactly one root, then polish with
//! bisection + Newton. [`crossings_shifted`] and [`min_clearance_above`]
//! are the [`Hyperbola`] methods as they were written over it.

use crate::hyperbola::Hyperbola;
use crate::interval::TimeInterval;
use crate::poly::Poly;
use crate::quadratic::Quadratic;

/// Absolute tolerance on a root's location.
const X_TOL: f64 = 1e-12;
/// Maximum bisection depth during isolation.
const MAX_DEPTH: u32 = 80;

/// A Sturm chain for a square-free polynomial.
#[derive(Debug, Clone)]
pub(crate) struct SturmChain {
    chain: Vec<Poly>,
}

impl SturmChain {
    /// Builds the Sturm chain of `p` (which should be square-free; use
    /// [`Poly::squarefree`] first — [`find_roots`] does this for you).
    pub(crate) fn new(p: &Poly) -> Self {
        let mut chain = Vec::new();
        if p.is_zero() {
            return SturmChain { chain };
        }
        chain.push(p.clone());
        let d = p.derivative();
        if d.is_zero() {
            return SturmChain { chain };
        }
        chain.push(d);
        loop {
            let n = chain.len();
            let (_, mut r) = chain[n - 2].div_rem(&chain[n - 1]);
            r.trim_relative(1e-12);
            if r.is_zero() {
                break;
            }
            chain.push(r.scale(-1.0));
            if chain.last().unwrap().degree() == Some(0) {
                break;
            }
        }
        SturmChain { chain }
    }

    /// Number of sign variations of the chain evaluated at `x`.
    fn variations(&self, x: f64) -> usize {
        let mut count = 0;
        let mut last_sign = 0i8;
        for p in &self.chain {
            let v = p.eval(x);
            let s: i8 = if v > 0.0 {
                1
            } else if v < 0.0 {
                -1
            } else {
                0
            };
            if s != 0 {
                if last_sign != 0 && s != last_sign {
                    count += 1;
                }
                last_sign = s;
            }
        }
        count
    }

    /// Number of distinct real roots in the half-open interval `(a, b]`.
    pub(crate) fn count_roots(&self, a: f64, b: f64) -> usize {
        if self.chain.is_empty() || a >= b {
            return 0;
        }
        self.variations(a).saturating_sub(self.variations(b))
    }
}

/// All distinct real roots of `p` within `[lo, hi]`, ascending
/// (multiplicities collapsed through the square-free part).
pub(crate) fn find_roots(p: &Poly, lo: f64, hi: f64) -> Vec<f64> {
    if p.is_zero() || lo > hi {
        return vec![];
    }
    match p.degree() {
        None | Some(0) => return vec![],
        Some(1) => {
            let c = p.coeffs();
            let r = -c[0] / c[1];
            return if (lo..=hi).contains(&r) {
                vec![r]
            } else {
                vec![]
            };
        }
        _ => {}
    }
    let sf = p.squarefree().monic();
    let chain = SturmChain::new(&sf);
    let mut roots = Vec::new();

    // Nudge the left end slightly left so a root exactly at `lo` is counted
    // by the half-open Sturm interval (a, b].
    let span = (hi - lo).abs().max(1.0);
    let a0 = lo - span * 1e-12 - 1e-300;
    let total = chain.count_roots(a0, hi);
    if total == 0 {
        return roots;
    }
    isolate(&sf, &chain, a0, hi, total, &mut roots, 0);
    roots.sort_by(f64::total_cmp);
    // Clamp roots found marginally outside [lo, hi] by the nudging.
    roots.into_iter().map(|r| r.clamp(lo, hi)).collect()
}

fn isolate(
    p: &Poly,
    chain: &SturmChain,
    a: f64,
    b: f64,
    count: usize,
    out: &mut Vec<f64>,
    depth: u32,
) {
    if count == 0 {
        return;
    }
    if count == 1 {
        out.push(refine(p, a, b));
        return;
    }
    if depth >= MAX_DEPTH || (b - a) <= X_TOL {
        // Cluster of roots tighter than the tolerance: report the midpoint
        // once. This is the honest answer at f64 resolution.
        out.push(0.5 * (a + b));
        return;
    }
    let mut mid = 0.5 * (a + b);
    // Avoid splitting exactly on a root of the chain (rare but possible).
    if p.eval(mid) == 0.0 {
        mid += (b - a) * 1e-9;
    }
    let left = chain.count_roots(a, mid);
    isolate(p, chain, a, mid, left, out, depth + 1);
    isolate(p, chain, mid, b, count - left, out, depth + 1);
}

/// Refines the single root of `p` known to lie in `(a, b]`.
fn refine(p: &Poly, a: f64, b: f64) -> f64 {
    let (mut lo, mut hi) = (a, b);
    let (mut flo, fhi) = (p.eval(lo), p.eval(hi));
    if fhi == 0.0 {
        return hi;
    }
    if flo == 0.0 {
        return lo;
    }
    if flo.signum() == fhi.signum() {
        // No sign change detected (e.g. the Sturm count came from a root
        // extremely close to an endpoint). Fall back to Newton from the
        // midpoint, guarded to stay in the bracket.
        return newton_guarded(p, 0.5 * (a + b), a, b);
    }
    // Bisection with a Newton polish at the end.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if (hi - lo) <= X_TOL {
            break;
        }
        let fm = p.eval(mid);
        if fm == 0.0 {
            return mid;
        }
        if fm.signum() == flo.signum() {
            lo = mid;
            flo = fm;
        } else {
            hi = mid;
        }
    }
    newton_guarded(p, 0.5 * (lo + hi), lo, hi)
}

fn newton_guarded(p: &Poly, x0: f64, lo: f64, hi: f64) -> f64 {
    let d = p.derivative();
    let mut x = x0;
    for _ in 0..8 {
        let fx = p.eval(x);
        let dx = d.eval(x);
        if dx == 0.0 {
            break;
        }
        let step = fx / dx;
        let nx = x - step;
        if !nx.is_finite() || nx < lo || nx > hi {
            break;
        }
        x = nx;
        if step.abs() <= X_TOL {
            break;
        }
    }
    x
}

fn poly_of(q: &Quadratic) -> Poly {
    Poly::new(vec![q.c, q.b, q.a])
}

/// [`Hyperbola::crossings_shifted`] over the Sturm isolator (`delta > 0`).
pub(crate) fn crossings_shifted(
    f: &Hyperbola,
    g: &Hyperbola,
    delta: f64,
    iv: &TimeInterval,
) -> Vec<f64> {
    let qs = poly_of(f.quadratic());
    let qo = poly_of(g.quadratic());
    let u = qs.sub(&qo).sub(&Poly::constant(delta * delta));
    let quartic = u.mul(&u).sub(&qo.scale(4.0 * delta * delta));
    let mut out = Vec::new();
    for t in find_roots(&quartic, iv.start(), iv.end()) {
        let ds = f.eval(t);
        let do_ = g.eval(t);
        let tol = 1e-6 * (1.0 + ds + do_ + delta);
        if (ds - do_ - delta).abs() <= tol {
            out.push(t);
        }
    }
    out.dedup_by(|a, b| (*a - *b).abs() < 1e-10);
    out
}

/// [`Hyperbola::min_clearance_above`] over the Sturm isolator.
pub(crate) fn min_clearance_above(f: &Hyperbola, g: &Hyperbola, iv: &TimeInterval) -> f64 {
    let h = |t: f64| f.eval(t) - g.eval(t);
    let mut best = h(iv.start()).min(h(iv.end()));
    let qs = poly_of(f.quadratic());
    let qo = poly_of(g.quadratic());
    let dqs = qs.derivative();
    let dqo = qo.derivative();
    let lhs = dqs.mul(&dqs).mul(&qo);
    let rhs = dqo.mul(&dqo).mul(&qs);
    for t in find_roots(&lhs.sub(&rhs), iv.start(), iv.end()) {
        best = best.min(h(t));
    }
    for v in [f.vertex(), g.vertex()].into_iter().flatten() {
        if iv.contains(v) {
            best = best.min(h(v));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Vec2;
    use proptest::prelude::*;

    /// One pair of distance hyperbolas, a band shift and a cell, at the
    /// scale spread of the forward-proof audit: object spacing 1e-3 to
    /// 1e4 mi, windows of one second to three days (in minutes), shifts
    /// from 1 % to 30× the spacing, parked objects and sub-window cells.
    #[derive(Debug)]
    struct Pair {
        f: Hyperbola,
        g: Hyperbola,
        delta: f64,
        cell: TimeInterval,
        /// `|f′| + |g′|` can never exceed this: the two relative speeds.
        speed: f64,
    }

    fn pair() -> impl Strategy<Value = Pair> {
        let unit = || (-1.0..1.0f64, -1.0..1.0f64);
        (
            (
                -3.0..4.0f64,
                (1.0f64 / 60.0).log10()..4320f64.log10(),
                -2.0..1.5f64,
            ),
            (unit(), unit(), unit(), unit()),
            (
                0.0..1.0f64,
                0.0..1.0f64,
                0.0..1.0f64,
                0.0..1.0f64,
                0usize..6,
            ),
        )
            .prop_map(|((s, l, d), (p1, v1, p2, v2), (r1, r2, c0, c1, mode))| {
                let (scale, len) = (10f64.powf(s), 10f64.powf(l));
                // A few spacings per window.
                let speed = 3.0 * scale / len;
                let motion = |p: (f64, f64), v: (f64, f64), parked: bool, t_ref: f64| {
                    let v = if parked { (0.0, 0.0) } else { v };
                    Hyperbola::from_relative_motion(
                        Vec2::new(10.0 * scale * p.0, 10.0 * scale * p.1),
                        Vec2::new(speed * v.0, speed * v.1),
                        t_ref,
                    )
                };
                let cell = if mode >= 4 {
                    TimeInterval::new(c0.min(c1) * len, c0.max(c1) * len)
                } else {
                    TimeInterval::new(0.0, len)
                };
                let (f, g) = (
                    motion(p1, v1, mode == 0, r1 * len),
                    motion(p2, v2, mode == 1, r2 * len),
                );
                Pair {
                    speed: f.quadratic().a.sqrt() + g.quadratic().a.sqrt(),
                    f,
                    g,
                    delta: scale * 10f64.powf(d),
                    cell,
                }
            })
    }

    /// `|d/dt (f − g)|` at `t`.
    fn slope(p: &Pair, t: f64) -> f64 {
        let d = |h: &Hyperbola| h.quadratic().deriv(t) / (2.0 * h.eval(t));
        (d(&p.f) - d(&p.g)).abs()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn crossings_match_the_sturm_reference(p in pair()) {
            let new = p.f.crossings_shifted(&p.g, p.delta, &p.cell);
            let reference = crossings_shifted(&p.f, &p.g, p.delta, &p.cell);
            let tol = |t: f64| 1e-6 * (1.0 + p.f.eval(t) + p.g.eval(t) + p.delta);
            for &t in &new {
                let residual = (p.f.eval(t) - p.g.eval(t) - p.delta).abs();
                prop_assert!(residual <= tol(t), "residual {residual:e} at {t}: {p:?}");
            }
            // Near a tangency the two solvers may legitimately resolve a
            // crossing pair differently; away from one they must agree.
            if reference.iter().all(|&t| slope(&p, t) > 1e-6 * p.speed) {
                prop_assert_eq!(new.len(), reference.len(), "{:?}: {:?} vs {:?}", p, new, reference);
                for (a, b) in new.iter().zip(&reference) {
                    prop_assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "{a} vs {b}: {p:?}");
                }
            }
        }

        /// Both clearances are values `f(t) − g(t)` at instants of the
        /// cell, so the lower one is the better one: the new solver never
        /// misses a minimum the reference finds. (The reference does
        /// miss some — about one pair in a million here.)
        #[test]
        fn clearances_reach_the_sturm_reference(p in pair()) {
            let new = p.f.min_clearance_above(&p.g, &p.cell);
            let reference = min_clearance_above(&p.f, &p.g, &p.cell);
            let scale = 1.0 + p.f.max_on(&p.cell).1 + p.g.max_on(&p.cell).1;
            prop_assert!(new <= reference + 1e-9 * scale, "{new} vs {reference}: {p:?}");
        }
    }

    fn from_roots(roots: &[f64]) -> Poly {
        let mut p = Poly::constant(1.0);
        for &r in roots {
            p = p.mul(&Poly::new(vec![-r, 1.0]));
        }
        p
    }

    #[test]
    fn sturm_count_matches() {
        let p = from_roots(&[1.0, 2.0, 3.0]).squarefree().monic();
        let chain = SturmChain::new(&p);
        assert_eq!(chain.count_roots(0.0, 4.0), 3);
        assert_eq!(chain.count_roots(1.5, 4.0), 2);
        assert_eq!(chain.count_roots(3.5, 4.0), 0);
    }

    #[test]
    fn reference_collapses_repeated_roots() {
        let found = find_roots(&from_roots(&[1.0, 1.0, 2.0]), 0.0, 3.0);
        assert_eq!(found.len(), 2, "{found:?}");
        for (f, e) in found.iter().zip([1.0, 2.0]) {
            assert!((f - e).abs() < 1e-8, "{f} vs {e}");
        }
    }
}
