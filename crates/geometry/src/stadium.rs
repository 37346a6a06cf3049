//! The stadium (capsule) shape: a segment dilated by a radius.
//!
//! The **Detectable Region** (DR) of a target during one sensing period is
//! exactly a stadium: the set of points within sensing range `Rs` of the
//! segment the target traversed. Its area is `2·Rs·L + π·Rs²` where `L` is
//! the distance traveled — the `2RsVt + πRs²` of the paper's Figure 1.

use crate::point::{Aabb, Point, Segment};

/// A stadium: all points within `radius` of the segment `[a, b]`.
///
/// Degenerates to a disk when `a == b` (a stationary target).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stadium {
    segment: Segment,
    radius: f64,
}

impl Stadium {
    /// Creates the stadium around segment `[a, b]` with the given radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn new(a: Point, b: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "radius must be finite and >= 0"
        );
        Stadium {
            segment: Segment::new(a, b),
            radius,
        }
    }

    /// The core segment.
    pub fn segment(&self) -> Segment {
        self.segment
    }

    /// The dilation radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Area `2·r·L + π·r²`.
    pub fn area(&self) -> f64 {
        2.0 * self.radius * self.segment.length()
            + std::f64::consts::PI * self.radius * self.radius
    }

    /// Whether a point lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        self.segment.distance_sq_to(p) <= self.radius * self.radius
    }

    /// Distance from a point to the stadium boundary (zero inside).
    pub fn distance_to(&self, p: Point) -> f64 {
        (self.segment.distance_to(p) - self.radius).max(0.0)
    }

    /// Axis-aligned bounding box.
    pub fn bounding_box(&self) -> Aabb {
        Aabb::new(self.segment.a, self.segment.b).inflated(self.radius)
    }

    /// The x-range the stadium can occupy inside the horizontal band
    /// `lo <= y <= hi`, or `None` if the stadium misses the band entirely.
    ///
    /// Every stadium point with `y` in the band is within `radius` of a
    /// segment point whose own `y` lies in the expanded band
    /// `[lo - radius, hi + radius]`; clipping the segment's parameter
    /// range to that band and inflating its x-extent by `radius` therefore
    /// covers all such points. The range is a tight-enough superset for
    /// grid-row pruning, not the exact intersection (the cap circles round
    /// the true shape off).
    pub fn x_span_within_y_band(&self, lo: f64, hi: f64) -> Option<(f64, f64)> {
        let (a, b) = (self.segment.a, self.segment.b);
        let (band_lo, band_hi) = (lo - self.radius, hi + self.radius);
        let dy = b.y - a.y;
        let (t0, t1) = if dy == 0.0 {
            // Horizontal (or degenerate) segment: all of it or none of it.
            if a.y < band_lo || a.y > band_hi {
                return None;
            }
            (0.0, 1.0)
        } else {
            // Parameter values where the segment crosses the band edges.
            let ta = (band_lo - a.y) / dy;
            let tb = (band_hi - a.y) / dy;
            let (s0, s1) = if ta <= tb { (ta, tb) } else { (tb, ta) };
            if s1 < 0.0 || s0 > 1.0 {
                return None;
            }
            (s0.max(0.0), s1.min(1.0))
        };
        let x0 = a.x + t0 * (b.x - a.x);
        let x1 = a.x + t1 * (b.x - a.x);
        Some((x0.min(x1) - self.radius, x0.max(x1) + self.radius))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn area_formula() {
        let s = Stadium::new(Point::new(0.0, 0.0), Point::new(600.0, 0.0), 1000.0);
        let expect = 2.0 * 1000.0 * 600.0 + PI * 1e6;
        assert!((s.area() - expect).abs() < 1e-6);
    }

    #[test]
    fn degenerate_stadium_is_disk() {
        let s = Stadium::new(Point::new(3.0, 4.0), Point::new(3.0, 4.0), 2.0);
        assert!((s.area() - 4.0 * PI).abs() < 1e-12);
        assert!(s.contains(Point::new(5.0, 4.0)));
        assert!(!s.contains(Point::new(5.1, 4.0)));
    }

    #[test]
    fn containment_sides_and_caps() {
        let s = Stadium::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0), 1.0);
        assert!(s.contains(Point::new(5.0, 1.0))); // on the side wall
        assert!(!s.contains(Point::new(5.0, 1.01)));
        assert!(s.contains(Point::new(-0.7, 0.7))); // inside the left cap
        assert!(!s.contains(Point::new(-0.8, 0.8)));
        assert!(s.contains(Point::new(11.0, 0.0))); // right cap apex
    }

    #[test]
    fn distance_to_boundary() {
        let s = Stadium::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0), 1.0);
        assert_eq!(s.distance_to(Point::new(5.0, 0.5)), 0.0);
        assert!((s.distance_to(Point::new(5.0, 3.0)) - 2.0).abs() < 1e-12);
        assert!((s.distance_to(Point::new(14.0, 0.0)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn bounding_box_covers_caps() {
        let s = Stadium::new(Point::new(1.0, 2.0), Point::new(4.0, 2.0), 0.5);
        let b = s.bounding_box();
        assert_eq!(b.min, Point::new(0.5, 1.5));
        assert_eq!(b.max, Point::new(4.5, 2.5));
    }

    #[test]
    fn x_span_covers_band_points() {
        use rand::{Rng as _, SeedableRng as _};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(21);
        for _ in 0..300 {
            let a = Point::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0));
            let b = Point::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0));
            let st = Stadium::new(a, b, rng.gen_range(0.1..4.0));
            let lo = rng.gen_range(-12.0..12.0);
            let hi = lo + rng.gen_range(0.0..5.0);
            // Sample points; any stadium point inside the band must fall in
            // the reported x-span.
            let bbox = st.bounding_box();
            for _ in 0..40 {
                let p = Point::new(
                    rng.gen_range(bbox.min.x..bbox.max.x),
                    rng.gen_range(bbox.min.y..bbox.max.y),
                );
                if !st.contains(p) || p.y < lo || p.y > hi {
                    continue;
                }
                let (x0, x1) = st
                    .x_span_within_y_band(lo, hi)
                    .expect("band holds a stadium point");
                assert!(
                    (x0 - 1e-9..=x1 + 1e-9).contains(&p.x),
                    "point {p:?} outside span [{x0}, {x1}]"
                );
            }
        }
    }

    #[test]
    fn x_span_misses_disjoint_band() {
        let st = Stadium::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0), 1.0);
        assert_eq!(st.x_span_within_y_band(2.0, 3.0), None);
        assert_eq!(st.x_span_within_y_band(-5.0, -1.5), None);
        // Band touching the stadium's top edge still reports a span.
        let (x0, x1) = st.x_span_within_y_band(1.0, 2.0).expect("touching band");
        assert!(x0 <= -1.0 && x1 >= 11.0);
    }

    #[test]
    fn x_span_tracks_a_slanted_segment() {
        // Segment from (0,0) to (10,10), radius 1: the band y in [4,6]
        // clips the segment to x in [3,7], inflated by 1.
        let st = Stadium::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0), 1.0);
        let (x0, x1) = st.x_span_within_y_band(4.0, 6.0).expect("crossing band");
        assert!((x0 - 2.0).abs() < 1e-12, "x0={x0}");
        assert!((x1 - 8.0).abs() < 1e-12, "x1={x1}");
    }

    #[test]
    fn x_span_degenerate_stadium() {
        let st = Stadium::new(Point::new(3.0, 4.0), Point::new(3.0, 4.0), 2.0);
        let (x0, x1) = st.x_span_within_y_band(5.0, 9.0).expect("disk meets band");
        assert_eq!((x0, x1), (1.0, 5.0));
        assert_eq!(st.x_span_within_y_band(6.1, 9.0), None);
    }

    #[test]
    fn stadium_orientation_invariance() {
        // Same segment rotated: containment decisions follow rotation.
        let s = Stadium::new(Point::new(0.0, 0.0), Point::new(0.0, 10.0), 1.0);
        assert!(s.contains(Point::new(1.0, 5.0)));
        assert!(!s.contains(Point::new(1.01, 5.0)));
    }
}

/// Length of the part of segment `[a, b]` lying inside the disk of the
/// given center and radius — the *exposure length*: how far the target
/// travels through a sensor's sensing disk during one period.
///
/// The paper's footnote 1 assumes `Pd` is independent of this quantity
/// ("primarily for ease of analysis... revisited in future work"); the
/// exposure-dependent sensing model uses it directly.
///
/// # Panics
///
/// Panics if `radius` is negative or not finite.
///
/// # Example
///
/// ```
/// use gbd_geometry::point::Point;
/// use gbd_geometry::stadium::segment_disk_overlap;
///
/// // A 10 m segment passing straight through a unit disk at the origin.
/// let len = segment_disk_overlap(
///     Point::new(-5.0, 0.0),
///     Point::new(5.0, 0.0),
///     Point::new(0.0, 0.0),
///     1.0,
/// );
/// assert!((len - 2.0).abs() < 1e-12);
/// ```
pub fn segment_disk_overlap(a: Point, b: Point, center: Point, radius: f64) -> f64 {
    assert!(
        radius.is_finite() && radius >= 0.0,
        "radius must be finite and >= 0"
    );
    let d = b - a;
    let len_sq = d.norm_sq();
    if len_sq == 0.0 {
        return 0.0; // a point has no path length
    }
    // Solve |a + t d − c|² = r² for t.
    let f = a - center;
    let qa = len_sq;
    let qb = 2.0 * f.dot(d);
    let qc = f.norm_sq() - radius * radius;
    let disc = qb * qb - 4.0 * qa * qc;
    if disc <= 0.0 {
        return 0.0;
    }
    let sqrt_disc = disc.sqrt();
    let t0 = ((-qb - sqrt_disc) / (2.0 * qa)).clamp(0.0, 1.0);
    let t1 = ((-qb + sqrt_disc) / (2.0 * qa)).clamp(0.0, 1.0);
    (t1 - t0) * len_sq.sqrt()
}

#[cfg(test)]
mod overlap_tests {
    use super::*;

    #[test]
    fn full_diameter_crossing() {
        let len = segment_disk_overlap(
            Point::new(-10.0, 0.0),
            Point::new(10.0, 0.0),
            Point::ORIGIN,
            3.0,
        );
        assert!((len - 6.0).abs() < 1e-12);
    }

    #[test]
    fn chord_at_offset() {
        // Line y = 4 through a radius-5 disk: chord 2·sqrt(25−16) = 6.
        let len = segment_disk_overlap(
            Point::new(-10.0, 4.0),
            Point::new(10.0, 4.0),
            Point::ORIGIN,
            5.0,
        );
        assert!((len - 6.0).abs() < 1e-12);
    }

    #[test]
    fn miss_and_tangent() {
        assert_eq!(
            segment_disk_overlap(
                Point::new(-1.0, 2.0),
                Point::new(1.0, 2.0),
                Point::ORIGIN,
                1.0
            ),
            0.0
        );
        // Tangent line: zero-length intersection.
        let t = segment_disk_overlap(
            Point::new(-1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::ORIGIN,
            1.0,
        );
        assert!(t.abs() < 1e-9);
    }

    #[test]
    fn segment_ends_inside_disk() {
        // Segment starts at the center and leaves: overlap = radius.
        let len =
            segment_disk_overlap(Point::ORIGIN, Point::new(10.0, 0.0), Point::ORIGIN, 2.0);
        assert!((len - 2.0).abs() < 1e-12);
        // Fully inside: overlap = its own length.
        let len = segment_disk_overlap(
            Point::new(-0.5, 0.0),
            Point::new(0.5, 0.0),
            Point::ORIGIN,
            2.0,
        );
        assert!((len - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_segment_has_zero_exposure() {
        assert_eq!(
            segment_disk_overlap(
                Point::new(1.0, 0.0),
                Point::new(1.0, 0.0),
                Point::ORIGIN,
                5.0
            ),
            0.0
        );
    }

    #[test]
    fn overlap_bounded_by_segment_and_diameter() {
        use rand::{Rng as _, SeedableRng as _};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(8);
        for _ in 0..500 {
            let a = Point::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0));
            let b = Point::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0));
            let c = Point::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0));
            let r = rng.gen_range(0.1..5.0);
            let len = segment_disk_overlap(a, b, c, r);
            assert!(len >= 0.0);
            assert!(len <= a.distance(b) + 1e-9);
            assert!(len <= 2.0 * r + 1e-9);
        }
    }
}
