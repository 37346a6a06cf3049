//! Circles and the circle–circle intersection ("lens") area.
//!
//! For a target moving in a straight line, the intersection of the
//! Detectable Regions of two non-adjacent sensing periods reduces to the
//! intersection of two equal-radius disks (see `subarea` for the proof
//! sketch); [`lens_area`] is therefore the only nontrivial area primitive
//! the paper's Eq (6) needs.

use crate::point::{Aabb, Point};

/// A circle (disk) with a center and radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center of the disk.
    pub center: Point,
    /// Radius (non-negative).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "radius must be finite and >= 0"
        );
        Circle { center, radius }
    }

    /// Disk area `π r²`.
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// Whether a point lies inside or on the circle.
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius
    }

    /// Axis-aligned bounding box of the disk.
    pub fn bounding_box(&self) -> Aabb {
        Aabb::new(
            Point::new(self.center.x - self.radius, self.center.y - self.radius),
            Point::new(self.center.x + self.radius, self.center.y + self.radius),
        )
    }

    /// Area of the intersection with another circle.
    pub fn intersection_area(&self, other: &Circle) -> f64 {
        two_circle_intersection_area(
            self.radius,
            other.radius,
            self.center.distance(other.center),
        )
    }
}

/// Area of the intersection of two disks of **equal** radius `r` whose
/// centers are `d` apart — the "lens".
///
/// This is the quantity appearing in the paper's Eq (6):
/// `lens(d) = 2 r² acos(d / 2r) − d √(r² − (d/2)²)` for `d ≤ 2r`, and `0`
/// beyond.
///
/// # Panics
///
/// Panics if `r < 0`, `d < 0`, or either is not finite.
///
/// # Example
///
/// ```
/// use gbd_geometry::circle::lens_area;
/// // Coincident circles: the full disk.
/// assert!((lens_area(1.0, 0.0) - std::f64::consts::PI).abs() < 1e-12);
/// // Tangent circles: empty intersection.
/// assert_eq!(lens_area(1.0, 2.0), 0.0);
/// ```
pub fn lens_area(r: f64, d: f64) -> f64 {
    assert!(r.is_finite() && r >= 0.0, "radius must be finite and >= 0");
    assert!(
        d.is_finite() && d >= 0.0,
        "distance must be finite and >= 0"
    );
    if d >= 2.0 * r {
        return 0.0;
    }
    let half = d / 2.0;
    2.0 * r * r * (d / (2.0 * r)).acos() - d * (r * r - half * half).sqrt()
}

/// Area of the intersection of two disks of arbitrary radii `r1`, `r2` with
/// center distance `d` (the general asymmetric lens).
///
/// Used by coverage statistics where heterogeneous ranges appear.
///
/// # Panics
///
/// Panics if any argument is negative or not finite.
pub fn two_circle_intersection_area(r1: f64, r2: f64, d: f64) -> f64 {
    assert!(r1.is_finite() && r1 >= 0.0, "r1 must be finite and >= 0");
    assert!(r2.is_finite() && r2 >= 0.0, "r2 must be finite and >= 0");
    assert!(d.is_finite() && d >= 0.0, "d must be finite and >= 0");
    if d >= r1 + r2 {
        return 0.0;
    }
    let (small, large) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
    if d + small <= large {
        // One disk entirely inside the other.
        return std::f64::consts::PI * small * small;
    }
    let d2 = d * d;
    let r1_2 = r1 * r1;
    let r2_2 = r2 * r2;
    let alpha = ((d2 + r1_2 - r2_2) / (2.0 * d * r1))
        .clamp(-1.0, 1.0)
        .acos();
    let beta = ((d2 + r2_2 - r1_2) / (2.0 * d * r2))
        .clamp(-1.0, 1.0)
        .acos();
    r1_2 * alpha + r2_2 * beta
        - 0.5
            * ((d2 + r1_2 - r2_2) / d * r1 * alpha.sin()
                + (d2 + r2_2 - r1_2) / d * r2 * beta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn circle_contains() {
        let c = Circle::new(Point::new(1.0, 1.0), 2.0);
        assert!(c.contains(Point::new(1.0, 1.0)));
        assert!(c.contains(Point::new(3.0, 1.0))); // boundary
        assert!(!c.contains(Point::new(3.1, 1.0)));
    }

    #[test]
    fn circle_area_and_bbox() {
        let c = Circle::new(Point::new(0.0, 0.0), 3.0);
        assert!((c.area() - 9.0 * PI).abs() < 1e-12);
        let b = c.bounding_box();
        assert_eq!(b.min, Point::new(-3.0, -3.0));
        assert_eq!(b.max, Point::new(3.0, 3.0));
    }

    #[test]
    fn lens_extremes() {
        assert!((lens_area(2.0, 0.0) - 4.0 * PI).abs() < 1e-12);
        assert_eq!(lens_area(2.0, 4.0), 0.0);
        assert_eq!(lens_area(2.0, 5.0), 0.0);
        assert_eq!(lens_area(0.0, 0.0), 0.0);
    }

    #[test]
    fn lens_known_value_half_radius_apart() {
        // d = r: lens = r² (2π/3 − √3/2)
        let r = 1.5;
        let expect = r * r * (2.0 * PI / 3.0 - 3f64.sqrt() / 2.0);
        assert!((lens_area(r, r) - expect).abs() < 1e-12);
    }

    #[test]
    fn lens_monotone_decreasing_in_distance() {
        let r = 1000.0;
        let mut prev = f64::INFINITY;
        for i in 0..=40 {
            let d = i as f64 * 50.0;
            let a = lens_area(r, d);
            assert!(a <= prev + 1e-9, "not monotone at d={d}");
            assert!(a >= 0.0);
            prev = a;
        }
    }

    #[test]
    fn lens_scales_quadratically() {
        // lens(kr, kd) = k² lens(r, d)
        let (r, d, k) = (1.0, 0.7, 1000.0);
        let small = lens_area(r, d);
        let big = lens_area(k * r, k * d);
        assert!((big - k * k * small).abs() / big < 1e-12);
    }

    #[test]
    fn general_intersection_matches_equal_radius_lens() {
        for &d in &[0.0, 0.3, 1.0, 1.7, 2.0, 3.0] {
            let a = two_circle_intersection_area(1.0, 1.0, d);
            let b = lens_area(1.0, d);
            assert!((a - b).abs() < 1e-12, "d={d}: {a} vs {b}");
        }
    }

    #[test]
    fn general_intersection_containment_case() {
        // Small disk fully inside the big one.
        let a = two_circle_intersection_area(1.0, 5.0, 2.0);
        assert!((a - PI).abs() < 1e-12);
    }

    #[test]
    fn circle_intersection_area_method() {
        let a = Circle::new(Point::new(0.0, 0.0), 1.0);
        let b = Circle::new(Point::new(1.0, 0.0), 1.0);
        assert!((a.intersection_area(&b) - lens_area(1.0, 1.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn negative_radius_panics() {
        lens_area(-1.0, 0.0);
    }
}
