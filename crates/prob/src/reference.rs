//! Reference evaluators: slow, independent oracles for the serving kernels.
//!
//! Nothing on a serving path calls this module. It exists so that the
//! kernels' error can be measured and stated, never so that a row reads a
//! value from it.
//!
//! [`nn_probabilities`] is Eq. 5 over a [`ProfiledPdf`], built to share
//! nothing with [`crate::profile`]'s cut placement or rules: it cuts the
//! radius axis only at the §2.2-III boundaries (every `rmin_j = d_j − S`
//! below `min_j (d_j + S)`), integrates each segment with composite
//! Gauss–Legendre over 64 equal sub-panels of 16 nodes each, and
//! evaluates every `(P^WD, pdf^WD)` pair as the two separate arc
//! integrals, at 128 nodes, on the same profiled table the kernel reads.
//! Its values are not clamped, so
//! `Σ P^NN − 1` shows its own error.
//!
//! Against itself with twice the panels, or with twice the panel order, it
//! moves by at most 5.5e-10 for the uniform difference pdf and 2.5e-9 for
//! the truncated-Gaussian one (r = 0.5, σ = 0.2), on every 16th column of
//! `examples/kernel_digest.rs`'s corpus.

use crate::integrate::shared_rule;
use crate::profile::ProfiledPdf;
use std::f64::consts::PI;

/// Equal sub-panels per segment of the reference's outer rule.
const PANELS: usize = 64;

/// Gauss–Legendre order inside each sub-panel of the outer rule.
const PANEL_ORDER: usize = 16;

/// Order of the reference's arc rule inside every `(P^WD, pdf^WD)` pair.
const ARC_ORDER: usize = 128;

/// A Gauss–Legendre rule pre-substituted with `s = lo + (hi−lo)·sin²u`,
/// `u ∈ [0, π/2]`: `∫_lo^hi F(s) ds = (hi−lo) · Σ_j wgt_j · F(lo +
/// (hi−lo)·frac_j)`. The substitution turns the arc integrals'
/// inverse-square-root endpoint singularities into analytic integrands.
#[derive(Debug, Clone)]
pub(crate) struct ArcRule {
    frac: Vec<f64>,
    wgt: Vec<f64>,
}

impl ArcRule {
    /// The substituted `order`-point rule.
    pub(crate) fn new(order: usize) -> Self {
        let gl = shared_rule(order);
        let (mut frac, mut wgt) = (Vec::with_capacity(order), Vec::with_capacity(order));
        for k in 0..order {
            let (x, w) = gl.node_weight(k);
            let u = 0.25 * PI * (x + 1.0);
            frac.push(u.sin() * u.sin());
            wgt.push(0.25 * PI * w * (2.0 * u).sin());
        }
        ArcRule { frac, wgt }
    }

    /// `(frac_j, wgt_j)` per node.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.frac.iter().copied().zip(self.wgt.iter().copied())
    }
}

/// `(P^WD(d, rd), pdf^WD(d, rd))` of `pdf` as two separate arc integrals
/// over `[lo, hi] = [|rd − d|, min(S, rd + d)]` under `rule`:
///
/// * `P^WD` = the full-circle mass `M(rd − d)` (for `rd > d`), plus the
///   boundary term `θ(hi)·(M(hi) − M(lo))/2π` when the support truncates
///   the arc, plus `∫ 2c′(s)/√(1−c²) · (M(s) − M(lo))/2π ds` with
///   `c(s) = (d² + s² − rd²)/(2ds)` — Eq. 3 integrated by parts;
/// * `pdf^WD` = `(2/d)·∫ f(s)·s/√(1−q²) ds`, `q(s) = (rd² + d² − s²)/(2·rd·d)`.
///
/// Each cosine is rounded and `1 − c²` is formed as `(1−c)(1+c)`, one
/// `sqrt` per integrand, sums in node order: the plain form of the two
/// integrals, with none of the kernel's fusion.
pub(crate) fn pair(pdf: &ProfiledPdf, d: f64, rd: f64, rule: &ArcRule) -> (f64, f64) {
    let s_max = pdf.support_radius();
    if rd <= 0.0 || d - s_max >= rd {
        return (0.0, 0.0);
    }
    if d + s_max <= rd {
        return (1.0, 0.0);
    }
    if d == 0.0 {
        return (pdf.mass_within(rd), pdf.density(rd) * 2.0 * PI * rd);
    }
    let lo = (rd - d).abs();
    let hi = s_max.min(rd + d);
    let mut p = if rd > d { pdf.mass_within(lo) } else { 0.0 };
    if hi <= lo {
        return (p.clamp(0.0, 1.0), 0.0);
    }
    let len = hi - lo;
    let m_lo = pdf.mass_within(lo);
    let inv_2pi = 1.0 / (2.0 * PI);
    if hi < rd + d {
        let c_hi = ((d * d + hi * hi - rd * rd) / (2.0 * d * hi)).clamp(-1.0, 1.0);
        p += 2.0 * c_hi.acos() * (pdf.mass_within(hi) - m_lo) * inv_2pi;
    }
    let (mut p_sum, mut f_sum) = (0.0, 0.0);
    for (frac, wgt) in rule.nodes() {
        let s = lo + len * frac;
        let c = (d * d + s * s - rd * rd) / (2.0 * d * s);
        let one_minus_c2 = ((1.0 - c) * (1.0 + c)).max(0.0);
        if one_minus_c2 > 0.0 {
            let cp = (s * s - d * d + rd * rd) / (2.0 * d * s * s);
            let g = (pdf.mass_within(s) - m_lo) * inv_2pi;
            p_sum += wgt * 2.0 * cp / one_minus_c2.sqrt() * g;
        }
        let q = (rd * rd + d * d - s * s) / (2.0 * rd * d);
        let one_minus_q2 = ((1.0 - q) * (1.0 + q)).max(0.0);
        if one_minus_q2 > 0.0 {
            f_sum += wgt * pdf.density(s) * s / one_minus_q2.sqrt();
        }
    }
    p += p_sum * len;
    let dens = if (rd - d).abs() >= s_max {
        0.0
    } else {
        (2.0 / d * f_sum * len).max(0.0)
    };
    (p.clamp(0.0, 1.0), dens)
}

/// Eq. 5 over `pdf` for candidates at center distances `dists`,
/// index-aligned with them (module docs). Unclamped.
pub fn nn_probabilities(pdf: &ProfiledPdf, dists: &[f64]) -> Vec<f64> {
    let n = dists.len();
    if n < 2 {
        return vec![1.0; n];
    }
    let support = pdf.support_radius();
    let rmin: Vec<f64> = dists.iter().map(|&d| (d - support).max(0.0)).collect();
    let rmax = dists
        .iter()
        .map(|&d| d + support)
        .fold(f64::INFINITY, f64::min);
    let mut cuts: Vec<f64> = rmin.iter().copied().filter(|&r| r < rmax).collect();
    cuts.push(rmax);
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();

    let (outer, arc) = (shared_rule(PANEL_ORDER), ArcRule::new(ARC_ORDER));
    let mut out = vec![0.0; n];
    let (mut pwd, mut dens, mut after) = (vec![0.0; n], vec![0.0; n], vec![0.0; n + 1]);
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let width = (b - a) / PANELS as f64;
        for panel in 0..PANELS {
            let pa = a + width * panel as f64;
            let (half, mid) = (0.5 * width, pa + 0.5 * width);
            for k in 0..PANEL_ORDER {
                let (x, wt) = outer.node_weight(k);
                let r = mid + half * x;
                for i in 0..n {
                    (pwd[i], dens[i]) = if r > rmin[i] {
                        pair(pdf, dists[i], r, &arc)
                    } else {
                        (0.0, 0.0)
                    };
                }
                // out[i] += w · pdf^WD_i · ∏_{j≠i} (1 − P^WD_j), the
                // product split into the candidates before and after i.
                after[n] = 1.0;
                for i in (0..n).rev() {
                    after[i] = after[i + 1] * (1.0 - pwd[i]);
                }
                let mut before = 1.0;
                for i in 0..n {
                    out[i] += wt * half * dens[i] * before * after[i + 1];
                    before *= 1.0 - pwd[i];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform_diff::UniformDifferencePdf;

    #[test]
    fn a_column_sums_to_one() {
        let prof = ProfiledPdf::of(&UniformDifferencePdf::new(0.5));
        for dists in [&[0.3, 0.7][..], &[1.2, 1.4, 1.9, 2.15], &[0.0, 0.05, 0.9]] {
            let total: f64 = nn_probabilities(&prof, dists).iter().sum();
            assert!((total - 1.0).abs() < 1e-6, "{dists:?}: {total}");
        }
    }

    #[test]
    fn trivial_columns() {
        let prof = ProfiledPdf::of(&UniformDifferencePdf::new(0.5));
        assert!(nn_probabilities(&prof, &[]).is_empty());
        assert_eq!(nn_probabilities(&prof, &[3.0]), vec![1.0]);
    }
}
