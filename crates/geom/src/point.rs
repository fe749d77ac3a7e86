//! 2D points and vectors.
//!
//! The paper works in a plane (2D spatial coordinates plus time). All
//! geometry in this crate is therefore two-dimensional; time is handled
//! separately by [`crate::interval`].

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A location in the 2D plane (miles in the paper's experimental setup,
/// but the library is unit-agnostic).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// A displacement (or velocity) in the 2D plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Point2 {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: Point2) -> f64 {
        (*self - other).norm()
    }

    /// Squared Euclidean distance to `other` (avoids the square root).
    #[inline]
    pub fn distance_sq(&self, other: Point2) -> f64 {
        (*self - other).norm_sq()
    }

    /// The displacement vector from the origin to this point.
    #[inline]
    pub fn to_vec(self) -> Vec2 {
        Vec2 {
            x: self.x,
            y: self.y,
        }
    }

    /// Linear interpolation between `self` (at `s = 0`) and `other`
    /// (at `s = 1`). Values of `s` outside `[0, 1]` extrapolate.
    #[inline]
    pub fn lerp(&self, other: Point2, s: f64) -> Point2 {
        Point2 {
            x: self.x + (other.x - self.x) * s,
            y: self.y + (other.y - self.y) * s,
        }
    }

    /// Returns `true` when both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2D cross product (signed area of the parallelogram).
    #[inline]
    pub fn cross(&self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(&self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Returns `true` when both components are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Unit vector with the same direction, or `None` for the zero vector.
    pub fn normalized(&self) -> Option<Vec2> {
        let n = self.norm();
        if n > 0.0 {
            Some(Vec2 {
                x: self.x / n,
                y: self.y / n,
            })
        } else {
            None
        }
    }
}

impl Sub for Point2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Point2) -> Vec2 {
        Vec2 {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
        }
    }
}

impl Add<Vec2> for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Vec2) -> Point2 {
        Point2 {
            x: self.x + rhs.x,
            y: self.y + rhs.y,
        }
    }
}

impl Sub<Vec2> for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Point2 {
        Point2 {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
        }
    }
}

impl AddAssign<Vec2> for Point2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl SubAssign<Vec2> for Point2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2 {
            x: self.x + rhs.x,
            y: self.y + rhs.y,
        }
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2 {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
        }
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2 {
            x: -self.x,
            y: -self.y,
        }
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2 {
            x: self.x * rhs,
            y: self.y * rhs,
        }
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2 {
            x: self.x / rhs,
            y: self.y / rhs,
        }
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_vector_arithmetic_roundtrips() {
        let p = Point2::new(1.0, 2.0);
        let q = Point2::new(4.0, 6.0);
        let v = q - p;
        assert_eq!(v, Vec2::new(3.0, 4.0));
        assert_eq!(p + v, q);
        assert_eq!(q - v, p);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(p.distance(q), 5.0);
        assert_eq!(p.distance_sq(q), 25.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let p = Point2::new(0.0, 0.0);
        let q = Point2::new(2.0, -4.0);
        assert_eq!(p.lerp(q, 0.0), p);
        assert_eq!(p.lerp(q, 1.0), q);
        assert_eq!(p.lerp(q, 0.5), Point2::new(1.0, -2.0));
        // extrapolation
        assert_eq!(p.lerp(q, 2.0), Point2::new(4.0, -8.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
        assert_eq!(a.dot(a), 1.0);
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Vec2::ZERO.normalized().is_none());
        let v = Vec2::new(3.0, 4.0).normalized().unwrap();
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vector_scaling() {
        let v = Vec2::new(3.0, -4.0);
        assert_eq!(v * 2.0, Vec2::new(6.0, -8.0));
        assert_eq!(v / 2.0, Vec2::new(1.5, -2.0));
        assert_eq!(-v, Vec2::new(-3.0, 4.0));
    }

    #[test]
    fn finite_checks() {
        assert!(Point2::new(1.0, 2.0).is_finite());
        assert!(!Point2::new(f64::NAN, 2.0).is_finite());
        assert!(!Vec2::new(f64::INFINITY, 0.0).is_finite());
    }
}
