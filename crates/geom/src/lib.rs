//! # unn-geom
//!
//! Geometry and numerics substrate for the `uncertain-nn` workspace — the
//! Rust reproduction of *"Continuous Probabilistic Nearest-Neighbor Queries
//! for Uncertain Trajectories"* (Trajcevski et al., EDBT 2009).
//!
//! The crate provides, from scratch (no external geometry dependencies):
//!
//! * [`point`] — 2D points and vectors;
//! * [`interval`] — closed time intervals and disjoint interval sets (the
//!   carriers of time-parameterized answers);
//! * [`disk`] — uncertainty disks with the `R_min`/`R_max` distance bounds
//!   of §2.2;
//! * [`circle`] — circle–circle intersection (lens) areas behind the
//!   uniform within-distance probability, Eq. 4;
//! * [`quadratic`] — numerically careful quadratic root finding;
//! * [`roots`] — heap-free real-root isolation for polynomials of degree
//!   ≤ 4 (derivative recursion + bracketed Newton), used for the quartic
//!   band-crossing and clearance equations;
//! * [`hyperbola`] — the `sqrt(At² + Bt + C)` distance functions of §3.2
//!   with pairwise intersections and shifted crossings.

#![warn(missing_docs)]

pub mod circle;
pub mod disk;
pub mod hyperbola;
pub mod interval;
pub mod point;
#[cfg(test)]
mod poly;
pub mod quadratic;
pub mod roots;
#[cfg(test)]
mod sturm;

pub use disk::Disk;
pub use hyperbola::Hyperbola;
pub use interval::{IntervalSet, TimeInterval};
pub use point::{Point2, Vec2};
pub use quadratic::{Quadratic, QuadraticRoots};
pub use roots::Roots;
