//! Rotationally symmetric location pdfs.
//!
//! §2.1/§3.1 of the paper: the location of an uncertain object at a time
//! instant is a 2D random variable supported on a disk around the expected
//! location. The paper's results (Theorem 1 in particular) hold for every
//! pdf that is *rotationally symmetric* around its center, which is
//! exactly what the [`RadialPdf`] trait models: the density depends only
//! on the distance `s` from the center.

use rand::Rng;
use std::fmt;
use unn_geom::point::Vec2;

/// A rotationally symmetric 2D probability density on a disk.
///
/// Implementations must satisfy:
/// * `density(s) == 0` for `s > support_radius()`;
/// * the total mass `∫_0^S density(s) · 2πs ds == 1`.
pub trait RadialPdf: fmt::Debug + Send + Sync {
    /// Radius of the support disk (density is zero beyond it).
    fn support_radius(&self) -> f64;

    /// The 2D density value at distance `s` from the center.
    fn density(&self, s: f64) -> f64;

    /// An upper bound on the density (used by rejection sampling).
    fn density_bound(&self) -> f64;

    /// Probability mass within distance `radius` of the center.
    ///
    /// The default implementation integrates the radial density; concrete
    /// pdfs override this with their closed forms.
    fn mass_within(&self, radius: f64) -> f64 {
        let s_max = radius.min(self.support_radius());
        if s_max <= 0.0 {
            return 0.0;
        }
        let v = crate::integrate::adaptive_simpson(
            &|s: f64| self.density(s) * 2.0 * std::f64::consts::PI * s,
            0.0,
            s_max,
            1e-10,
            40,
        );
        v.clamp(0.0, 1.0)
    }

    /// Draws a random offset from the center, distributed by this pdf.
    ///
    /// The default implementation is rejection sampling from the support
    /// disk; concrete pdfs override it with exact samplers.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> Vec2 {
        let r = self.support_radius();
        let bound = self.density_bound();
        loop {
            let x = rng.random_range(-r..=r);
            let y = rng.random_range(-r..=r);
            let s = (x * x + y * y).sqrt();
            if s > r {
                continue;
            }
            let u: f64 = rng.random_range(0.0..bound.max(f64::MIN_POSITIVE));
            if u <= self.density(s) {
                return Vec2::new(x, y);
            }
        }
    }
}

/// Declarative description of a location pdf, as stored alongside an
/// uncertain trajectory (§2.1: the `pdf` component of `Tr^u`).
///
/// The paper's examples use the uniform pdf; bounded Gaussian is mentioned
/// as the other common choice (Figure 3.c). Both are rotationally
/// symmetric, so Theorem 1 applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PdfKind {
    /// Uniform over the uncertainty disk of the given radius (Eq. 2).
    Uniform {
        /// Uncertainty-disk radius `r`.
        radius: f64,
    },
    /// Gaussian with standard deviation `sigma`, truncated and
    /// renormalized to a disk of the given radius.
    TruncatedGaussian {
        /// Truncation (support) radius.
        radius: f64,
        /// Standard deviation of the underlying Gaussian.
        sigma: f64,
    },
}

impl PdfKind {
    /// The support radius of the described pdf.
    pub fn support_radius(&self) -> f64 {
        match *self {
            PdfKind::Uniform { radius } => radius,
            PdfKind::TruncatedGaussian { radius, .. } => radius,
        }
    }

    /// Materializes the description into a pdf object.
    pub fn build(&self) -> Box<dyn RadialPdf> {
        match *self {
            PdfKind::Uniform { radius } => Box::new(crate::uniform::UniformDiskPdf::new(radius)),
            PdfKind::TruncatedGaussian { radius, sigma } => {
                Box::new(crate::gaussian::TruncatedGaussianPdf::new(radius, sigma))
            }
        }
    }

    /// The pdf of the *difference* of two independent locations with this
    /// pdf and `other` (both centered): their convolution (Eq. 6 of §3.1).
    ///
    /// Uniform ∗ uniform with equal radii has an exact closed form — the
    /// disk autocorrelation of [`crate::uniform_diff`] (note: the paper's
    /// Eq. 7 states a *cone*, which is only an approximation of this
    /// shape; see that module's documentation). All other combinations
    /// fall back to numeric radial convolution.
    pub fn convolve_with(&self, other: &PdfKind) -> Box<dyn RadialPdf> {
        match (self, other) {
            (PdfKind::Uniform { radius: r1 }, PdfKind::Uniform { radius: r2 })
                if (r1 - r2).abs() < 1e-12 =>
            {
                Box::new(crate::uniform_diff::UniformDifferencePdf::new(*r1))
            }
            // Unequal uniform radii also have an exact closed form: the
            // normalized disk cross-correlation (§7 heterogeneous radii).
            (PdfKind::Uniform { radius: r1 }, PdfKind::Uniform { radius: r2 }) => {
                Box::new(crate::disk_diff::DiskDifferencePdf::new(*r1, *r2))
            }
            _ => Box::new(crate::convolution::convolve_radial(
                self.build().as_ref(),
                other.build().as_ref(),
                512,
            )),
        }
    }
}

/// Verifies that a pdf integrates to one (within `tol`); returns the mass.
/// Useful in tests and when registering custom pdfs.
pub fn total_mass(pdf: &dyn RadialPdf) -> f64 {
    pdf.mass_within(pdf.support_radius())
}

/// Estimates the mean of a pdf's sampled radius against the analytic
/// radial mean — a sanity helper for the samplers' tests.
#[cfg(test)]
pub(crate) fn mean_sample_radius(
    pdf: &dyn RadialPdf,
    n: usize,
    rng: &mut dyn rand::RngCore,
) -> f64 {
    let mut acc = 0.0;
    for _ in 0..n {
        acc += pdf.sample(rng).norm();
    }
    acc / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn pdf_kind_support_radius() {
        assert_eq!(PdfKind::Uniform { radius: 2.0 }.support_radius(), 2.0);
        assert_eq!(
            PdfKind::TruncatedGaussian {
                radius: 3.0,
                sigma: 1.0
            }
            .support_radius(),
            3.0
        );
    }

    #[test]
    fn build_produces_normalized_pdfs() {
        for kind in [
            PdfKind::Uniform { radius: 1.5 },
            PdfKind::TruncatedGaussian {
                radius: 1.5,
                sigma: 0.5,
            },
        ] {
            let pdf = kind.build();
            let mass = total_mass(pdf.as_ref());
            assert!((mass - 1.0).abs() < 1e-6, "{kind:?}: mass {mass}");
        }
    }

    #[test]
    fn convolve_uniform_pair_is_exact_difference_pdf() {
        let kind = PdfKind::Uniform { radius: 1.0 };
        let conv = kind.convolve_with(&kind);
        // Support doubles.
        assert!((conv.support_radius() - 2.0).abs() < 1e-9);
        // Center density of the exact convolution: 1 / (π r²).
        let expected = 1.0 / std::f64::consts::PI;
        assert!((conv.density(0.0) - expected).abs() < 1e-9);
    }

    #[test]
    fn default_rejection_sampler_stays_in_support() {
        let pdf = PdfKind::Uniform { radius: 2.0 }.build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let v = pdf.sample(&mut rng);
            assert!(v.norm() <= 2.0 + 1e-12);
        }
    }
}
