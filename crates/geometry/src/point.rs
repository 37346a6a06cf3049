//! Points, vectors, segments and axis-aligned bounding boxes in the plane.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point in the plane (meters).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// A displacement vector in the plane (meters).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vector {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Point {
    /// Creates a point from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Euclidean distance to another point.
    pub fn distance(&self, other: Point) -> f64 {
        (*self - other).norm()
    }

    /// Squared Euclidean distance (avoids the square root in hot loops).
    pub fn distance_sq(&self, other: Point) -> f64 {
        (*self - other).norm_sq()
    }
}

impl Vector {
    /// Creates a vector from components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vector { x, y }
    }

    /// Unit vector with heading `theta` radians (0 = +x axis).
    pub fn from_heading(theta: f64) -> Self {
        Vector {
            x: theta.cos(),
            y: theta.sin(),
        }
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared norm.
    pub fn norm_sq(&self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    pub fn dot(&self, other: Vector) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the cross product (signed parallelogram area).
    pub fn cross(&self, other: Vector) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Heading angle in radians, in `(-π, π]`.
    pub fn heading(&self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Returns the vector scaled to unit length.
    ///
    /// # Panics
    ///
    /// Panics if the vector is zero.
    pub fn normalized(&self) -> Vector {
        let n = self.norm();
        assert!(n > 0.0, "cannot normalize the zero vector");
        *self / n
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    fn add(self, v: Vector) -> Point {
        Point::new(self.x + v.x, self.y + v.y)
    }
}

impl Sub for Point {
    type Output = Vector;
    fn sub(self, other: Point) -> Vector {
        Vector::new(self.x - other.x, self.y - other.y)
    }
}

impl Add for Vector {
    type Output = Vector;
    fn add(self, other: Vector) -> Vector {
        Vector::new(self.x + other.x, self.y + other.y)
    }
}

impl Sub for Vector {
    type Output = Vector;
    fn sub(self, other: Vector) -> Vector {
        Vector::new(self.x - other.x, self.y - other.y)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    fn mul(self, s: f64) -> Vector {
        Vector::new(self.x * s, self.y * s)
    }
}

impl Div<f64> for Vector {
    type Output = Vector;
    fn div(self, s: f64) -> Vector {
        Vector::new(self.x / s, self.y / s)
    }
}

impl Neg for Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        Vector::new(-self.x, -self.y)
    }
}

/// A line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment from endpoints (degenerate segments are allowed).
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Distance from a point to the segment (zero if the point lies on it).
    pub fn distance_to(&self, p: Point) -> f64 {
        self.distance_sq_to(p).sqrt()
    }

    /// Squared distance from a point to the segment.
    pub fn distance_sq_to(&self, p: Point) -> f64 {
        let ab = self.b - self.a;
        let ap = p - self.a;
        let len_sq = ab.norm_sq();
        if len_sq == 0.0 {
            return ap.norm_sq();
        }
        let t = (ap.dot(ab) / len_sq).clamp(0.0, 1.0);
        let closest = self.a + ab * t;
        p.distance_sq(closest)
    }

    /// Midpoint of the segment.
    pub fn midpoint(&self) -> Point {
        Point::new((self.a.x + self.b.x) / 2.0, (self.a.y + self.b.y) / 2.0)
    }
}

/// An axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Smallest corner.
    pub min: Point,
    /// Largest corner.
    pub max: Point,
}

impl Aabb {
    /// Creates a box from two opposite corners (in any order).
    pub fn new(a: Point, b: Point) -> Self {
        Aabb {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The box `[0, w] × [0, h]`.
    pub fn from_extent(w: f64, h: f64) -> Self {
        Aabb::new(Point::ORIGIN, Point::new(w, h))
    }

    /// Box width.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Box height.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Box area.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Whether a point lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The box grown by `r` on every side.
    pub fn inflated(&self, r: f64) -> Aabb {
        Aabb {
            min: Point::new(self.min.x - r, self.min.y - r),
            max: Point::new(self.max.x + r, self.max.y + r),
        }
    }

    /// Smallest box containing both boxes.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_vector_arithmetic() {
        let p = Point::new(1.0, 2.0);
        let q = Point::new(4.0, 6.0);
        let v = q - p;
        assert_eq!(v, Vector::new(3.0, 4.0));
        assert_eq!(v.norm(), 5.0);
        assert_eq!(p + v, q);
        assert_eq!(p.distance(q), 5.0);
    }

    #[test]
    fn vector_ops() {
        let v = Vector::new(3.0, 4.0);
        assert_eq!(v * 2.0, Vector::new(6.0, 8.0));
        assert_eq!(v / 2.0, Vector::new(1.5, 2.0));
        assert_eq!(-v, Vector::new(-3.0, -4.0));
        assert_eq!(v.dot(Vector::new(1.0, 0.0)), 3.0);
        assert_eq!(v.cross(Vector::new(1.0, 0.0)), -4.0);
        assert!((v.normalized().norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn heading_round_trip() {
        for &theta in &[0.0, 0.5, -1.2, 3.0] {
            let v = Vector::from_heading(theta);
            assert!((v.heading() - theta).abs() < 1e-12);
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn normalize_zero_panics() {
        Vector::new(0.0, 0.0).normalized();
    }

    #[test]
    fn segment_distance_interior_and_endpoints() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        // Perpendicular foot inside the segment.
        assert!((s.distance_to(Point::new(5.0, 3.0)) - 3.0).abs() < 1e-12);
        // Beyond the right endpoint: distance to the endpoint.
        assert!((s.distance_to(Point::new(13.0, 4.0)) - 5.0).abs() < 1e-12);
        // Beyond the left endpoint.
        assert!((s.distance_to(Point::new(-3.0, 4.0)) - 5.0).abs() < 1e-12);
        // On the segment.
        assert_eq!(s.distance_to(Point::new(7.0, 0.0)), 0.0);
    }

    #[test]
    fn degenerate_segment_is_a_point() {
        let s = Segment::new(Point::new(2.0, 2.0), Point::new(2.0, 2.0));
        assert_eq!(s.length(), 0.0);
        assert!((s.distance_to(Point::new(5.0, 6.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn segment_midpoint() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 6.0));
        assert_eq!(s.midpoint(), Point::new(2.0, 3.0));
    }

    #[test]
    fn aabb_basics() {
        let b = Aabb::new(Point::new(5.0, 1.0), Point::new(1.0, 3.0));
        assert_eq!(b.min, Point::new(1.0, 1.0));
        assert_eq!(b.width(), 4.0);
        assert_eq!(b.height(), 2.0);
        assert_eq!(b.area(), 8.0);
        assert!(b.contains(Point::new(3.0, 2.0)));
        assert!(b.contains(Point::new(1.0, 1.0))); // boundary
        assert!(!b.contains(Point::new(0.9, 2.0)));
    }

    #[test]
    fn aabb_inflate_union() {
        let b = Aabb::from_extent(2.0, 2.0);
        let infl = b.inflated(1.0);
        assert_eq!(infl.min, Point::new(-1.0, -1.0));
        assert_eq!(infl.max, Point::new(3.0, 3.0));
        let other = Aabb::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        let u = b.union(&other);
        assert_eq!(u.min, Point::ORIGIN);
        assert_eq!(u.max, Point::new(6.0, 6.0));
    }
}
