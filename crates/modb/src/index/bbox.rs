//! Axis-aligned bounding boxes in (x, y, t) space.

/// A 3D axis-aligned box over `(x, y, t)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb3 {
    /// Minimum corner `(x, y, t)`.
    pub min: [f64; 3],
    /// Maximum corner `(x, y, t)`.
    pub max: [f64; 3],
}

impl Aabb3 {
    /// Creates a box from corners.
    ///
    /// # Panics
    ///
    /// Panics when any min exceeds the corresponding max or a bound is not
    /// finite.
    pub fn new(min: [f64; 3], max: [f64; 3]) -> Self {
        for d in 0..3 {
            assert!(
                min[d].is_finite() && max[d].is_finite() && min[d] <= max[d],
                "invalid box bounds on axis {d}: [{}, {}]",
                min[d],
                max[d]
            );
        }
        Aabb3 { min, max }
    }

    /// The empty-reduction identity (inverted infinite box).
    pub fn empty() -> Self {
        Aabb3 {
            min: [f64::INFINITY; 3],
            max: [f64::NEG_INFINITY; 3],
        }
    }

    /// `true` for the identity produced by [`Aabb3::empty`].
    pub fn is_empty(&self) -> bool {
        (0..3).any(|d| self.min[d] > self.max[d])
    }

    /// Smallest box containing both.
    pub fn union(&self, other: &Aabb3) -> Aabb3 {
        Aabb3 {
            min: [
                self.min[0].min(other.min[0]),
                self.min[1].min(other.min[1]),
                self.min[2].min(other.min[2]),
            ],
            max: [
                self.max[0].max(other.max[0]),
                self.max[1].max(other.max[1]),
                self.max[2].max(other.max[2]),
            ],
        }
    }

    /// `true` when the closed boxes share a point.
    pub fn intersects(&self, other: &Aabb3) -> bool {
        (0..3).all(|d| self.min[d] <= other.max[d] && other.min[d] <= self.max[d])
    }

    /// `true` when `other` lies fully inside `self`.
    pub fn contains(&self, other: &Aabb3) -> bool {
        (0..3).all(|d| self.min[d] <= other.min[d] && other.max[d] <= self.max[d])
    }

    /// Expands the spatial extent (x, y) by `pad` on every side.
    pub fn inflate_xy(&self, pad: f64) -> Aabb3 {
        Aabb3 {
            min: [self.min[0] - pad, self.min[1] - pad, self.min[2]],
            max: [self.max[0] + pad, self.max[1] + pad, self.max[2]],
        }
    }

    /// Smallest distance between the `(x, y)` projections of two boxes
    /// (zero when they overlap spatially).
    pub fn min_dist_xy(&self, other: &Aabb3) -> f64 {
        let dx = (self.min[0] - other.max[0])
            .max(other.min[0] - self.max[0])
            .max(0.0);
        let dy = (self.min[1] - other.max[1])
            .max(other.min[1] - self.max[1])
            .max(0.0);
        (dx * dx + dy * dy).sqrt()
    }

    /// Largest distance between the `(x, y)` projections of two boxes.
    pub fn max_dist_xy(&self, other: &Aabb3) -> f64 {
        let dx = (self.max[0] - other.min[0])
            .abs()
            .max((other.max[0] - self.min[0]).abs());
        let dy = (self.max[1] - other.min[1])
            .abs()
            .max((other.max[1] - self.min[1]).abs());
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_predicates() {
        let a = Aabb3::new([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]);
        let b = Aabb3::new([0.5, 0.5, 0.5], [2.0, 2.0, 2.0]);
        let u = a.union(&b);
        assert_eq!(u, Aabb3::new([0.0, 0.0, 0.0], [2.0, 2.0, 2.0]));
        assert!(a.intersects(&b));
        assert!(u.contains(&a));
        assert!(u.contains(&b));
        assert!(!a.contains(&b));
        let c = Aabb3::new([3.0, 3.0, 3.0], [4.0, 4.0, 4.0]);
        assert!(!a.intersects(&c));
        // Touching boxes intersect (closed semantics).
        let d = Aabb3::new([1.0, 0.0, 0.0], [2.0, 1.0, 1.0]);
        assert!(a.intersects(&d));
    }

    #[test]
    fn empty_identity() {
        let e = Aabb3::empty();
        assert!(e.is_empty());
        let a = Aabb3::new([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]);
        assert_eq!(e.union(&a), a);
    }

    #[test]
    fn inflate_only_spatial() {
        let a = Aabb3::new([0.0, 0.0, 5.0], [1.0, 1.0, 6.0]);
        let b = a.inflate_xy(0.5);
        assert_eq!(b.min, [-0.5, -0.5, 5.0]);
        assert_eq!(b.max, [1.5, 1.5, 6.0]);
    }

    #[test]
    fn xy_distances() {
        let a = Aabb3::new([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]);
        let b = Aabb3::new([4.0, 5.0, 0.0], [5.0, 6.0, 1.0]);
        // Gap of 3 in x, 4 in y -> 5 diagonally.
        assert!((a.min_dist_xy(&b) - 5.0).abs() < 1e-12);
        assert_eq!(b.min_dist_xy(&a), a.min_dist_xy(&b));
        // Farthest corners: (0,0) to (5,6).
        let expected = (25.0f64 + 36.0).sqrt();
        assert!((a.max_dist_xy(&b) - expected).abs() < 1e-12);
        // Overlapping boxes have zero min distance; time is ignored.
        let c = Aabb3::new([0.5, 0.5, 100.0], [2.0, 2.0, 200.0]);
        assert_eq!(a.min_dist_xy(&c), 0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_bounds_panic() {
        let _ = Aabb3::new([1.0, 0.0, 0.0], [0.0, 1.0, 1.0]);
    }
}
