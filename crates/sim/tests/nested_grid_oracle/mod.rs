//! The pre-CSR nested-`Vec` sensor field, kept as the correctness oracle
//! for `gbd_field::field::SensorField`.
//!
//! [`NestedGridField`] is the spatial hash the simulator shipped with
//! before the flat CSR rewrite: one heap-allocated `Vec<u32>` per grid
//! cell, a 256×256 grid cap, and allocating queries that collect each of
//! the nine torus images separately. It answers every query with exactly
//! the ids (and order) the old field did, so the engine's
//! `oracle_support` trial replays whole trials and campaigns through it
//! and the bit-identity tests assert equal results against the CSR path.
//! Production code runs `SensorField` only.
//!
//! Do not optimize this type; its value is being the slow, obviously
//! correct reference.

use gbd_field::field::BoundaryPolicy;
use gbd_field::sensor::{Sensor, SensorId};
use gbd_geometry::point::{Aabb, Point};
use gbd_geometry::stadium::Stadium;

/// The nested-`Vec` spatial hash the CSR `SensorField` replaced;
/// query-for-query identical to it.
#[derive(Debug, Clone)]
pub struct NestedGridField {
    extent: Aabb,
    sensors: Vec<Sensor>,
    boundary: BoundaryPolicy,
    // Spatial hash: cells[cy * nx + cx] holds sensor indices.
    cells: Vec<Vec<u32>>,
    nx: usize,
    ny: usize,
    cell_w: f64,
    cell_h: f64,
}

impl NestedGridField {
    /// Builds a field from sensor positions.
    ///
    /// # Panics
    ///
    /// Panics if the extent has zero area or a sensor lies outside it.
    pub fn new(extent: Aabb, positions: Vec<Point>, boundary: BoundaryPolicy) -> Self {
        assert!(extent.area() > 0.0, "field extent must have positive area");
        // Aim for a handful of sensors per cell; clamp grid dimensions.
        let n = positions.len().max(1);
        let target = (n as f64).sqrt().ceil() as usize;
        let nx = target.clamp(1, 256);
        let ny = target.clamp(1, 256);
        let cell_w = extent.width() / nx as f64;
        let cell_h = extent.height() / ny as f64;
        let mut cells = vec![Vec::new(); nx * ny];
        let sensors: Vec<Sensor> = positions
            .into_iter()
            .enumerate()
            .map(|(i, pos)| {
                assert!(
                    extent.contains(pos),
                    "sensor {i} lies outside the field extent"
                );
                Sensor::new(SensorId(i), pos)
            })
            .collect();
        for s in &sensors {
            let cx = (((s.pos.x - extent.min.x) / cell_w) as usize).min(nx - 1);
            let cy = (((s.pos.y - extent.min.y) / cell_h) as usize).min(ny - 1);
            cells[cy * nx + cx].push(s.id.0 as u32);
        }
        NestedGridField {
            extent,
            sensors,
            boundary,
            cells,
            nx,
            ny,
            cell_w,
            cell_h,
        }
    }

    /// Number of deployed sensors.
    pub fn len(&self) -> usize {
        self.sensors.len()
    }

    /// All sensors, ordered by id.
    pub fn sensors(&self) -> &[Sensor] {
        &self.sensors
    }

    /// The sensor with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn sensor(&self, id: SensorId) -> Sensor {
        self.sensors[id.0]
    }

    /// Sensors within distance `radius` of `center` (inclusive).
    pub fn query_circle(&self, center: Point, radius: f64) -> Vec<SensorId> {
        // A disk is a degenerate stadium.
        self.query_stadium(&Stadium::new(center, center, radius))
    }

    /// Sensors inside the stadium, sorted by id.
    pub fn query_stadium(&self, region: &Stadium) -> Vec<SensorId> {
        let mut out = Vec::new();
        match self.boundary {
            BoundaryPolicy::Bounded => {
                self.collect_in_stadium(region, &mut out);
                out.sort_unstable();
            }
            BoundaryPolicy::Torus => {
                // A sensor image s + (dx, dy) lies in `region` iff s lies in
                // the region translated by (−dx, −dy); test the 9 translates.
                let w = self.extent.width();
                let h = self.extent.height();
                let seg = region.segment();
                for ix in -1..=1i32 {
                    for iy in -1..=1i32 {
                        let off_x = -(ix as f64) * w;
                        let off_y = -(iy as f64) * h;
                        let shifted = Stadium::new(
                            Point::new(seg.a.x + off_x, seg.a.y + off_y),
                            Point::new(seg.b.x + off_x, seg.b.y + off_y),
                            region.radius(),
                        );
                        self.collect_in_stadium(&shifted, &mut out);
                    }
                }
                out.sort_unstable();
                out.dedup();
            }
        }
        out
    }

    fn collect_in_stadium(&self, region: &Stadium, out: &mut Vec<SensorId>) {
        let bbox = region.bounding_box();
        // Intersect the query bbox with the field extent in cell space.
        if bbox.max.x < self.extent.min.x
            || bbox.min.x > self.extent.max.x
            || bbox.max.y < self.extent.min.y
            || bbox.min.y > self.extent.max.y
        {
            return;
        }
        let cx0 = self.clamp_cx(bbox.min.x);
        let cx1 = self.clamp_cx(bbox.max.x);
        let cy0 = self.clamp_cy(bbox.min.y);
        let cy1 = self.clamp_cy(bbox.max.y);
        let r_sq = region.radius() * region.radius();
        let seg = region.segment();
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                for &idx in &self.cells[cy * self.nx + cx] {
                    let s = &self.sensors[idx as usize];
                    if seg.distance_sq_to(s.pos) <= r_sq {
                        out.push(s.id);
                    }
                }
            }
        }
    }

    fn clamp_cx(&self, x: f64) -> usize {
        (((x - self.extent.min.x) / self.cell_w).floor() as i64).clamp(0, self.nx as i64 - 1)
            as usize
    }

    fn clamp_cy(&self, y: f64) -> usize {
        (((y - self.extent.min.y) / self.cell_h).floor() as i64).clamp(0, self.ny as i64 - 1)
            as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_answers_like_the_old_field() {
        let extent = Aabb::from_extent(100.0, 100.0);
        let positions = vec![
            Point::new(10.0, 10.0),
            Point::new(50.0, 50.0),
            Point::new(90.0, 90.0),
            Point::new(99.0, 50.0),
        ];
        let f = NestedGridField::new(extent, positions.clone(), BoundaryPolicy::Torus);
        assert_eq!(f.len(), 4);
        assert_eq!(
            f.query_circle(Point::new(1.0, 50.0), 3.0),
            vec![SensorId(3)]
        );
        let fb = NestedGridField::new(extent, positions, BoundaryPolicy::Bounded);
        assert!(fb.query_circle(Point::new(1.0, 50.0), 3.0).is_empty());
        assert_eq!(fb.sensor(SensorId(1)).pos, Point::new(50.0, 50.0));
    }

    #[test]
    #[should_panic(expected = "outside the field")]
    fn oracle_keeps_the_containment_panic() {
        NestedGridField::new(
            Aabb::from_extent(10.0, 10.0),
            vec![Point::new(11.0, 5.0)],
            BoundaryPolicy::Bounded,
        );
    }
}
