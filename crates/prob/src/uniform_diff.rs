//! The *exact* pdf of the difference of two independent uniform-disk
//! locations with equal radius `r`.
//!
//! Example 4 / Eq. 7 of the paper state that the convolution of two
//! uniform disk pdfs ("cylinders") is a *cone* of height `3/(4πr²)` and
//! base radius `2r`. The cone is a valid rotationally symmetric pdf (it
//! integrates to one) **but it is not the exact convolution**: the true
//! convolution of two disk indicators is the disk *autocorrelation*
//!
//! ```text
//! f(s) = lens_area(s; r, r) / (π r²)²
//!      = [ 2r² acos(s/2r) − (s/2)·√(4r² − s²) ] / (π r²)² ,   0 ≤ s ≤ 2r,
//! ```
//!
//! with peak `1/(π r²)` at `s = 0` (4/3 of the cone's peak). Our numeric
//! convolution reproduces this shape, not the cone — see the tests in
//! [`crate::convolution`]. Everything the paper *uses* about the
//! convolution (rotational symmetry, support `2r`, monotone decay, hence
//! Lemma 1 / Theorem 1) holds for both shapes, so the discrepancy does not
//! affect any algorithmic result; it only matters when computing actual
//! probability values, for which this exact pdf is the default
//! ([`crate::pdf::PdfKind::convolve_with`]).

use crate::pdf::RadialPdf;
use crate::uniform::UniformDiskPdf;
use rand::RngCore;
use std::f64::consts::PI;
use unn_geom::circle::lens_area;
use unn_geom::point::Vec2;

/// Exact pdf of `V_i − V_q` for two independent uniform disks of radius
/// `r` (the location pdf of the difference trajectories `TR_iq`).
#[derive(Debug, Clone)]
pub struct UniformDifferencePdf {
    r: f64,
    peak: f64,
    sampler: UniformDiskPdf,
    /// Precomputed radial CDF on a uniform grid over `[0, 2r]` for fast
    /// `mass_within` lookups (the Eq. 5 evaluator calls it heavily).
    cdf: Vec<f64>,
}

const CDF_GRID: usize = 2048;

impl UniformDifferencePdf {
    /// Creates the exact difference pdf for original disk radius `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r` is non-positive or not finite.
    pub fn new(r: f64) -> Self {
        assert!(
            r.is_finite() && r > 0.0,
            "difference pdf requires positive r, got {r}"
        );
        let norm = (PI * r * r) * (PI * r * r);
        let density = |s: f64| -> f64 {
            if s >= 2.0 * r {
                0.0
            } else {
                lens_area(s, r, r) / norm
            }
        };
        // Radial CDF by trapezoid accumulation of density(s)·2πs.
        let mut cdf = Vec::with_capacity(CDF_GRID + 1);
        cdf.push(0.0);
        let step = 2.0 * r / CDF_GRID as f64;
        let mut acc = 0.0;
        let mut prev = 0.0; // density(0)·2π·0
        for k in 1..=CDF_GRID {
            let s = k as f64 * step;
            let cur = density(s) * 2.0 * PI * s;
            acc += 0.5 * (prev + cur) * step;
            cdf.push(acc);
            prev = cur;
        }
        // Normalize the grid so the CDF ends exactly at 1 (absorbs the
        // trapezoid error, ~1e-7 at this resolution).
        let total = *cdf.last().unwrap();
        for v in &mut cdf {
            *v /= total;
        }
        UniformDifferencePdf {
            r,
            peak: 1.0 / (PI * r * r),
            sampler: UniformDiskPdf::new(r),
            cdf,
        }
    }
}

impl RadialPdf for UniformDifferencePdf {
    fn support_radius(&self) -> f64 {
        2.0 * self.r
    }

    fn density(&self, s: f64) -> f64 {
        if s >= 2.0 * self.r || s < 0.0 {
            0.0
        } else {
            lens_area(s, self.r, self.r) / ((PI * self.r * self.r) * (PI * self.r * self.r))
        }
    }

    fn density_bound(&self) -> f64 {
        self.peak
    }

    fn mass_within(&self, radius: f64) -> f64 {
        if radius <= 0.0 {
            return 0.0;
        }
        if radius >= 2.0 * self.r {
            return 1.0;
        }
        let x = radius / (2.0 * self.r) * CDF_GRID as f64;
        let k = (x.floor() as usize).min(CDF_GRID - 1);
        let frac = x - k as f64;
        (self.cdf[k] * (1.0 - frac) + self.cdf[k + 1] * frac).clamp(0.0, 1.0)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Vec2 {
        // Exact: the difference of two independent uniform samples has
        // precisely this distribution.
        self.sampler.sample(rng) - self.sampler.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdf::total_mass;
    use rand::SeedableRng;

    #[test]
    fn peak_is_inverse_disk_area() {
        let p = UniformDifferencePdf::new(1.0);
        assert!((p.density(0.0) - 1.0 / PI).abs() < 1e-12);
        assert_eq!(p.density(2.0), 0.0);
        assert_eq!(p.support_radius(), 2.0);
    }

    #[test]
    fn total_mass_is_one() {
        for r in [0.3, 1.0, 2.5] {
            let p = UniformDifferencePdf::new(r);
            assert!((total_mass(&p) - 1.0).abs() < 1e-6, "r={r}");
            assert!((p.mass_within(2.0 * r) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sampler_matches_cdf() {
        let p = UniformDifferencePdf::new(1.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let n = 40_000;
        for probe in [0.5, 1.0, 1.5] {
            let expected = p.mass_within(probe);
            let count = (0..n)
                .filter(|_| {
                    // fresh sample each iteration
                    p.sample(&mut rng).norm() <= probe
                })
                .count();
            let frac = count as f64 / n as f64;
            assert!(
                (frac - expected).abs() < 0.015,
                "probe {probe}: frac {frac} vs cdf {expected}"
            );
        }
    }

    #[test]
    fn differs_from_paper_cone() {
        // Document the Eq. 7 discrepancy: the exact peak is 4/3 of the
        // cone's peak.
        let exact = UniformDifferencePdf::new(1.0);
        let cone = crate::cone::ConePdf::new(1.0);
        let ratio = exact.density(0.0) / cone.density(0.0);
        assert!((ratio - 4.0 / 3.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn density_monotone_decreasing() {
        let p = UniformDifferencePdf::new(1.3);
        let mut prev = p.density(0.0);
        let mut s = 0.01;
        while s < 2.6 {
            let d = p.density(s);
            assert!(d <= prev + 1e-12, "s={s}");
            prev = d;
            s += 0.01;
        }
    }
}
