//! Continuous *threshold* NN queries — the first item of the paper's
//! future work (§7):
//!
//! > "identify the basic properties of the descriptors of the probability
//! > values in the IPAC-NN trees which, in turn, will enable processing of
//! > continuous threshold NN-queries (e.g., retrieve the objects that have
//! > more than 65% probability of being a nearest neighbor within 50% of
//! > the time)".
//!
//! We realize this with the machinery the reproduction already has: at
//! sampled instants the in-band candidates and their center distances are
//! read off the envelope, the exact convolved pdf
//! ([`unn_prob::uniform_diff::UniformDifferencePdf`]) turns them into an
//! instantaneous `P^NN` vector (Eq. 5), and the engine's sampled
//! probability rows ([`crate::probrows`], built by
//! [`QueryEngine::prob_row_set_kernel`]) hold those vectors per object.
//! A threshold statement is a view over the rows:
//! [`crate::probrows::ProbRowSet::fraction_above`] is the fraction of
//! probes where an object's `P^NN` exceeds `p`. This module evaluates
//! the same column at one instant.

use crate::kernel::ColumnKernel;
use crate::query::QueryEngine;
use unn_traj::trajectory::Oid;

/// The instantaneous `P^NN` of one object at time `t` (or `None` when the
/// object is unknown, the instant is outside the window, or the object is
/// out of the band — i.e. probability zero). The probe is the same
/// canonical column every row producer evaluates, so the result is
/// bit-identical to the matching [`crate::probrows`] column value.
pub fn probability_at_kernel(
    engine: &QueryEngine,
    kernel: &ColumnKernel,
    oid: Oid,
    t: f64,
) -> Option<f64> {
    column_at(engine, kernel, t)?
        .into_iter()
        .find(|(owner, _)| *owner == oid)
        .map(|(_, p)| p)
}

/// The canonical probe column at `t`: `(owner, P^NN)` of every in-band
/// function, in the functions' order (`None` outside the window).
pub(crate) fn column_at(
    engine: &QueryEngine,
    kernel: &ColumnKernel,
    t: f64,
) -> Option<Vec<(Oid, f64)>> {
    if !engine.window().contains(t) {
        return None;
    }
    let le = engine.envelope().eval(t)?;
    Some(kernel.column(engine.functions(), le, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probrows::ProbRowSet;
    use unn_geom::hyperbola::Hyperbola;
    use unn_geom::interval::TimeInterval;
    use unn_geom::point::Vec2;
    use unn_prob::uniform_diff::UniformDifferencePdf;
    use unn_traj::distance::DistanceFunction;

    fn flyby(owner: u64, x0: f64, y: f64, v: f64, w: TimeInterval) -> DistanceFunction {
        DistanceFunction::single(
            Oid(owner),
            w,
            Hyperbola::from_relative_motion(Vec2::new(x0, y), Vec2::new(v, 0.0), 0.0),
        )
    }

    fn engine() -> QueryEngine {
        let w = TimeInterval::new(0.0, 10.0);
        let fs = vec![
            flyby(1, -5.0, 1.0, 1.0, w), // dips to 1 at t=5
            flyby(2, -2.0, 2.0, 1.0, w), // dips to 2 at t=2
            flyby(3, 0.0, 50.0, 0.0, w), // unreachable
        ];
        QueryEngine::new(Oid(0), fs, 0.5)
    }

    /// The paper's running uniform model for `e`.
    fn uniform_kernel(e: &QueryEngine) -> ColumnKernel {
        ColumnKernel::new(&UniformDifferencePdf::new(e.radius()))
    }

    /// The §7 example query: objects whose `P^NN` exceeds `p` for at
    /// least fraction `x` of the window, read off the engine's sampled
    /// probability rows.
    fn at_least(rows: &ProbRowSet, p: f64, x: f64) -> Vec<Oid> {
        rows.rows()
            .iter()
            .map(|row| row.oid)
            .filter(|oid| rows.fraction_above(*oid, p) + 1e-12 >= x)
            .collect()
    }

    #[test]
    fn dominant_object_passes_high_threshold() {
        let e = engine();
        let rows = at_least(&e.prob_row_set_kernel(&uniform_kernel(&e), 64), 0.6, 0.3);
        // Object 1 dominates around its closest approach.
        assert!(rows.contains(&Oid(1)), "{rows:?}");
        // The unreachable object never appears.
        assert!(!rows.contains(&Oid(3)));
    }

    #[test]
    fn fractions_shrink_with_threshold() {
        let e = engine();
        let rows = e.prob_row_set_kernel(&uniform_kernel(&e), 64);
        for oid in [Oid(1), Oid(2)] {
            let (lo, hi) = (rows.fraction_above(oid, 0.1), rows.fraction_above(oid, 0.8));
            assert!(lo >= hi, "oid {oid}: {lo} vs {hi}");
        }
    }

    #[test]
    fn probability_at_instant_matches_ranking() {
        let e = engine();
        // At t=5 object 1 is at distance 1, object 2 at sqrt(9+4)≈3.6:
        // object 1 clearly dominates.
        let kernel = uniform_kernel(&e);
        let p1 = probability_at_kernel(&e, &kernel, Oid(1), 5.0).unwrap();
        let p2 = probability_at_kernel(&e, &kernel, Oid(2), 5.0);
        assert!(p1 > 0.9, "{p1}");
        if let Some(p2) = p2 {
            assert!(p1 > p2);
        }
        // Out-of-band object has no probability (None).
        assert!(probability_at_kernel(&e, &kernel, Oid(3), 5.0).is_none());
        // Outside the window.
        assert!(probability_at_kernel(&e, &kernel, Oid(1), 99.0).is_none());
    }

    #[test]
    fn mean_probability_bounded() {
        let e = engine();
        let rows = e.prob_row_set_kernel(&uniform_kernel(&e), 48);
        for row in rows.rows() {
            let (mean, fraction) = (
                rows.mean_probability(row.oid),
                rows.fraction_above(row.oid, 0.05),
            );
            assert!((0.0..=1.0).contains(&mean), "{row:?}");
            assert!((0.0..=1.0).contains(&fraction));
        }
    }

    #[test]
    fn gaussian_model_sharpens_the_leader() {
        // §3.1: the machinery applies to every rotationally symmetric pdf.
        // A concentrated truncated Gaussian (σ = r/4) puts nearly all mass
        // at the expected location, so the leading object's P^NN is at
        // least the uniform model's almost everywhere.
        use unn_prob::pdf::{PdfKind, RadialPdf};
        let e = engine();
        let r = e.radius();
        let uniform_pdf = UniformDifferencePdf::new(r);
        let gauss_kind = PdfKind::TruncatedGaussian {
            radius: r,
            sigma: r / 4.0,
        };
        let gauss_diff = gauss_kind.convolve_with(&gauss_kind);
        // Same support ⇒ same band ⇒ same candidate sets.
        assert!((gauss_diff.support_radius() - uniform_pdf.support_radius()).abs() < 1e-6);
        let gauss = ColumnKernel::new(gauss_diff.as_ref());
        let pu = probability_at_kernel(&e, &uniform_kernel(&e), Oid(1), 5.0).unwrap();
        let pg = probability_at_kernel(&e, &gauss, Oid(1), 5.0).unwrap();
        assert!(pg >= pu - 1e-6, "gaussian {pg} vs uniform {pu}");
        assert!(pg <= 1.0 + 1e-9);
        // Threshold sweeps run under the Gaussian model too, and the
        // leader qualifies at a high threshold.
        let rows = at_least(&e.prob_row_set_kernel(&gauss, 48), 0.6, 0.3);
        assert!(rows.contains(&Oid(1)), "{rows:?}");
    }
}
