//! # unn-prob
//!
//! Probability substrate for the `uncertain-nn` workspace — the Rust
//! reproduction of *"Continuous Probabilistic Nearest-Neighbor Queries for
//! Uncertain Trajectories"* (Trajcevski et al., EDBT 2009).
//!
//! Implements, from scratch:
//!
//! * [`pdf`] — the [`pdf::RadialPdf`] trait for rotationally symmetric
//!   location pdfs (the class Theorem 1 applies to) and the declarative
//!   [`pdf::PdfKind`];
//! * [`uniform`], [`gaussian`] — the paper's two location-pdf examples;
//! * [`cone`] — the closed-form convolution of two equal uniform disks
//!   (Eq. 7, Example 4);
//! * [`convolution`] — numeric radial convolution for everything else
//!   (Properties 1 & 2 of §3.1);
//! * [`integrate`] — adaptive Simpson and Gauss–Legendre quadrature;
//! * [`within_distance`] — `P^WD` (Eq. 3/4) and its density `pdf^WD`;
//! * [`nn_prob`] — the `P^NN` evaluator (Eq. 5) with the sorted-boundary
//!   decomposition of §2.2-III, plus a naive baseline;
//! * [`profile`] — [`profile::ProfiledPdf`], the dispatch-free `P^WD` /
//!   `pdf^WD` kernels (tabulated profiles + endpoint-regularized
//!   fixed-order quadrature) behind the batched row-maintenance path;
//! * [`mod@reference`] — the slow, independent Eq. 5 the profiled kernel's
//!   error is measured against;
//! * [`monte_carlo`] — a simulation oracle;
//! * [`discretized`] — the §2.2-IV exclusive/joint decomposition under
//!   discretization;
//! * [`disk_diff`] — the exact difference pdf for **unequal** disk radii
//!   (substrate for the §7 heterogeneous-radii extension);
//! * [`quadruple`] — the §3.1 naive quadruple integration for the
//!   uncertain-query case: an independent oracle for the convolution
//!   identity and the baseline of the moving-convolution ablation.

#![warn(missing_docs)]

pub mod cone;
pub mod convolution;
pub mod discretized;
pub mod disk_diff;
pub mod gaussian;
pub mod integrate;
pub mod monte_carlo;
pub mod nn_prob;
pub mod pdf;
pub mod profile;
pub mod quadruple;
pub mod reference;
pub mod uniform;
pub mod uniform_diff;
pub mod within_distance;

pub use cone::ConePdf;
pub use disk_diff::DiskDifferencePdf;
pub use gaussian::TruncatedGaussianPdf;
pub use nn_prob::{nn_probabilities, NnCandidate, NnConfig};
pub use pdf::{PdfKind, RadialPdf};
pub use profile::{nn_probabilities_profiled, BlockList, ProfiledPdf};
pub use uniform::UniformDiskPdf;
pub use uniform_diff::UniformDifferencePdf;
