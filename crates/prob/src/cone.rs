//! The cone pdf of the paper's Eq. 7 (Example 4).
//!
//! The paper states: "the convolution of two cylinders with heights
//! `1/(r²π)` is a cone whose base is a circle with radius `2r` and height
//! `3/(4r²π)`", and uses it as the pdf of the difference `V_i − V_q` of
//! two independent uniform locations.
//!
//! **Reproduction note.** The cone is a valid rotationally symmetric pdf
//! (it integrates to one) but it is *not* the exact convolution — the true
//! difference pdf is the disk autocorrelation implemented in
//! [`crate::uniform_diff`], with peak `1/(πr²)` (4/3 of the cone's). We
//! keep the cone for fidelity to the paper's text; every result the paper
//! derives from the convolution (rotational symmetry, support `2r`,
//! monotone decay, Lemma 1, Theorem 1) holds for both shapes.

use crate::pdf::RadialPdf;
use rand::Rng;
use rand::RngCore;
use std::f64::consts::PI;
use unn_geom::point::Vec2;

/// The cone density `(3 / (4 r² π)) · (1 − s / 2r)` on a disk of radius
/// `2r`, where `r` is the radius of the two convolved uniform disks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConePdf {
    /// Radius of the *original* uniform disks (support is `2r`).
    r: f64,
    peak: f64,
}

impl ConePdf {
    /// Creates the cone pdf for original disk radius `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r` is non-positive or not finite.
    pub fn new(r: f64) -> Self {
        assert!(
            r.is_finite() && r > 0.0,
            "cone pdf requires positive r, got {r}"
        );
        ConePdf {
            r,
            peak: 3.0 / (4.0 * r * r * PI),
        }
    }
}

impl RadialPdf for ConePdf {
    fn support_radius(&self) -> f64 {
        2.0 * self.r
    }

    fn density(&self, s: f64) -> f64 {
        if s <= 2.0 * self.r {
            self.peak * (1.0 - s / (2.0 * self.r))
        } else {
            0.0
        }
    }

    fn density_bound(&self) -> f64 {
        self.peak
    }

    fn mass_within(&self, radius: f64) -> f64 {
        // M(R) = ∫_0^R peak (1 - s/2r) 2π s ds
        //      = 2π·peak (R²/2 − R³/(6r)) = 3R²/(4r²) − R³/(4r³).
        if radius <= 0.0 {
            return 0.0;
        }
        let rr = radius.min(2.0 * self.r);
        let m = 3.0 * rr * rr / (4.0 * self.r * self.r)
            - rr * rr * rr / (4.0 * self.r * self.r * self.r);
        m.clamp(0.0, 1.0)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Vec2 {
        // Inverse transform on the radial CDF M(s) = 3s²/4r² − s³/4r³,
        // solved by bracketed Newton iteration.
        let u: f64 = rng.random_range(0.0..1.0);
        let (mut lo, mut hi) = (0.0, 2.0 * self.r);
        let mut s = self.r; // initial guess
        for _ in 0..60 {
            let m = self.mass_within(s) - u;
            if m.abs() < 1e-12 {
                break;
            }
            if m > 0.0 {
                hi = s;
            } else {
                lo = s;
            }
            let dens = self.density(s) * 2.0 * PI * s;
            let next = if dens > 1e-12 {
                s - m / dens
            } else {
                0.5 * (lo + hi)
            };
            s = if next > lo && next < hi {
                next
            } else {
                0.5 * (lo + hi)
            };
        }
        let theta: f64 = rng.random_range(0.0..(2.0 * PI));
        Vec2::new(s * theta.cos(), s * theta.sin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdf::total_mass;
    use rand::SeedableRng;

    #[test]
    fn peak_and_support_match_paper() {
        let c = ConePdf::new(1.0);
        assert_eq!(c.support_radius(), 2.0);
        assert!((c.density(0.0) - 3.0 / (4.0 * PI)).abs() < 1e-15);
        assert_eq!(c.density(2.0), 0.0);
        assert_eq!(c.density(2.1), 0.0);
        // linear decay: half the peak at s = r.
        assert!((c.density(1.0) - 0.5 * c.density(0.0)).abs() < 1e-15);
    }

    #[test]
    fn total_mass_is_one() {
        for r in [0.1, 0.5, 1.0, 2.5] {
            let c = ConePdf::new(r);
            assert!((total_mass(&c) - 1.0).abs() < 1e-12, "r={r}");
            // Closed form at full support.
            assert!((c.mass_within(2.0 * r) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mass_within_matches_numeric_integration() {
        let c = ConePdf::new(1.3);
        for frac in [0.1f64, 0.3, 0.5, 0.8, 1.0, 1.7] {
            let rr = frac * 1.3;
            let numeric = crate::integrate::adaptive_simpson(
                &|s: f64| c.density(s) * 2.0 * PI * s,
                0.0,
                rr.min(2.6),
                1e-12,
                40,
            );
            assert!(
                (c.mass_within(rr) - numeric).abs() < 1e-9,
                "frac {frac}: {} vs {numeric}",
                c.mass_within(rr)
            );
        }
    }

    #[test]
    fn sampler_matches_radial_cdf() {
        // Empirical mass within R must match the closed form.
        let c = ConePdf::new(1.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let n = 30_000;
        let mut within_1 = 0usize;
        for _ in 0..n {
            let v = c.sample(&mut rng);
            assert!(v.norm() <= 2.0 + 1e-9);
            if v.norm() <= 1.0 {
                within_1 += 1;
            }
        }
        let frac = within_1 as f64 / n as f64;
        let expected = c.mass_within(1.0); // = 3/4 - 1/4 = 0.5
        assert!((expected - 0.5).abs() < 1e-12);
        assert!((frac - expected).abs() < 0.02, "frac {frac}");
    }
}
