//! The indexed sensor field with range queries and boundary policies.
//!
//! The spatial hash is stored in CSR (compressed sparse row) form: one
//! flat `entries` array of sensor indices grouped by cell, and a
//! `starts` offset array with one slot per cell, built by a two-pass
//! counting sort with zero per-cell allocation. The grid side scales
//! with `sqrt(N)` (clamped at 4096) instead of the old hard 256×256
//! cap, so million-sensor fields keep a few sensors per cell.
//!
//! For the simulator's per-trial hot path the field additionally
//! supports a *focus*: [`SensorField::rebuild_focused`] indexes only the
//! sensors that can answer queries inside a caller-provided box (the
//! union of the trial's Detectable-Region bounding boxes). Queries whose
//! bbox lies inside the focus — all of the engine's — are answered
//! exactly from the small index; anything else falls back to a full
//! scan, so the focus is a performance hint, never a correctness trade.

use crate::sensor::{Sensor, SensorId};
use gbd_geometry::point::{Aabb, Point, Segment};
use gbd_geometry::stadium::Stadium;

/// How the field treats its borders during range queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryPolicy {
    /// The field ends at its borders; a query region reaching beyond simply
    /// finds fewer sensors there (real deployments behave this way).
    Bounded,
    /// The field wraps around (a torus): queries see periodic images of the
    /// sensors. This reproduces the analytical model's implicit assumption
    /// that the target's Aggregate Region sees full sensor density
    /// everywhere.
    Torus,
}

/// Hard cap on the grid side length; `sqrt(10^6) = 1000` sits well under
/// it, and the `starts` array stays below `4096² * 4 B = 64 MiB` even for
/// adversarially large deployments.
const MAX_GRID: usize = 4096;

/// Build pass chunk: cell ids for a chunk are computed in a tight
/// vectorizable loop, then the histogram increments run over the chunk
/// while it is still in L1.
const CHUNK: usize = 2048;

/// A set of deployed sensors indexed by a uniform spatial hash grid.
///
/// Queries return sensors whose position lies inside a disk or stadium.
/// Under [`BoundaryPolicy::Torus`], a sensor matches if **any** of its
/// periodic images does; each sensor is reported at most once per query.
///
/// # Example
///
/// ```
/// use gbd_field::field::{BoundaryPolicy, SensorField};
/// use gbd_geometry::point::{Aabb, Point};
///
/// let extent = Aabb::from_extent(100.0, 100.0);
/// let field = SensorField::new(
///     extent,
///     vec![Point::new(5.0, 5.0), Point::new(95.0, 5.0)],
///     BoundaryPolicy::Torus,
/// );
/// // Under the torus policy, the sensor at x = 95 is only 10 m away from
/// // the one at x = 5 (wrapping the border).
/// let hits = field.query_circle(Point::new(0.0, 5.0), 6.0);
/// assert_eq!(hits.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SensorField {
    extent: Aabb,
    positions: Vec<Point>,
    boundary: BoundaryPolicy,
    // CSR spatial hash: entries[starts[c] .. starts[c + 1]] holds the
    // indices of the indexed sensors in cell c = cy * nx + cx.
    starts: Vec<u32>,
    entries: Vec<u32>,
    // Build scratch (per-sensor cell ids, or the kept list when focused);
    // retained so rebuilds on a long-lived field allocate nothing.
    cell_scratch: Vec<u32>,
    nx: usize,
    ny: usize,
    inv_w: f64,
    inv_h: f64,
    focus: Option<Aabb>,
}

impl SensorField {
    /// Builds a field from sensor positions, indexing all of them.
    ///
    /// # Panics
    ///
    /// Panics if the extent has zero area or a sensor lies outside it.
    pub fn new(extent: Aabb, positions: Vec<Point>, boundary: BoundaryPolicy) -> Self {
        let mut field = SensorField {
            extent,
            positions,
            boundary,
            starts: Vec::new(),
            entries: Vec::new(),
            cell_scratch: Vec::new(),
            nx: 1,
            ny: 1,
            inv_w: 0.0,
            inv_h: 0.0,
            focus: None,
        };
        field.reindex(None);
        field
    }

    /// Clears the field, refills its position buffer through `fill`, and
    /// reindexes it around the *focus* box `fill` returns (plus an
    /// arbitrary carry value handed back to the caller): only the sensors
    /// able to answer queries inside the focus are indexed. All internal
    /// buffers are reused, so a long-lived field rebuilds without heap
    /// allocation once warm.
    ///
    /// The filter keeps every sensor lying in any boundary-policy translate
    /// image of the focus box (clipped to the extent), so a query whose
    /// bounding box fits inside the focus is answered exactly; queries
    /// reaching outside it take a correct full-scan fallback. The carry
    /// value lets the caller derive the focus from data it computes while
    /// filling (the simulator returns the trial trajectory through it).
    ///
    /// # Panics
    ///
    /// Panics if the extent has zero area or a filled position lies
    /// outside it.
    pub fn rebuild_focused<T>(
        &mut self,
        extent: Aabb,
        boundary: BoundaryPolicy,
        fill: impl FnOnce(&mut Vec<Point>) -> (Aabb, T),
    ) -> T {
        self.extent = extent;
        self.boundary = boundary;
        self.positions.clear();
        let (focus, carry) = fill(&mut self.positions);
        self.reindex(Some(focus));
        carry
    }

    /// Reindexes the existing positions around a new focus box without
    /// touching the positions themselves (same deployment, new query
    /// corridor).
    pub fn refocus(&mut self, focus: Aabb) {
        self.reindex(Some(focus));
    }

    /// Field extent.
    pub fn extent(&self) -> Aabb {
        self.extent
    }

    /// Boundary policy used by queries.
    pub fn boundary(&self) -> BoundaryPolicy {
        self.boundary
    }

    /// Number of deployed sensors (indexed or not).
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the field has no sensors.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// All sensor positions, ordered by id.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The focus box this field was last indexed around, if any.
    pub fn focus(&self) -> Option<Aabb> {
        self.focus
    }

    /// All sensors, ordered by id.
    pub fn sensors(&self) -> impl Iterator<Item = Sensor> + '_ {
        self.positions
            .iter()
            .enumerate()
            .map(|(i, &pos)| Sensor::new(SensorId(i), pos))
    }

    /// The sensor with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn sensor(&self, id: SensorId) -> Sensor {
        Sensor::new(id, self.positions[id.0])
    }

    /// Sensors within distance `radius` of `center` (inclusive).
    pub fn query_circle(&self, center: Point, radius: f64) -> Vec<SensorId> {
        // A disk is a degenerate stadium.
        self.query_stadium(&Stadium::new(center, center, radius))
    }

    /// Sensors inside the stadium (the Detectable Region query used every
    /// sensing period by the simulator), sorted by id.
    pub fn query_stadium(&self, region: &Stadium) -> Vec<SensorId> {
        let mut out = Vec::new();
        self.query_stadium_into(region, &mut out);
        out
    }

    /// Like [`SensorField::query_stadium`], but writes the hits into a
    /// caller-owned buffer (cleared first) so the steady-state query path
    /// performs no heap allocation.
    pub fn query_stadium_into(&self, region: &Stadium, out: &mut Vec<SensorId>) {
        out.clear();
        let bbox = region.bounding_box();
        if let Some(f) = &self.focus {
            if !contains_box(f, &bbox) {
                // The index only covers the focus corridor; answer from a
                // full scan instead (identical results, just slower).
                self.query_brute_force(region, out);
                return;
            }
        }
        match self.boundary {
            BoundaryPolicy::Bounded => {
                self.collect_cells(region, out);
                out.sort_unstable();
            }
            BoundaryPolicy::Torus => {
                if strictly_inside(&self.extent, &bbox) {
                    // Border-aware fast path: every off-center translate
                    // image's bbox lands strictly outside the extent, so
                    // only the center image can match and the hits are
                    // already duplicate-free.
                    self.collect_cells(region, out);
                    out.sort_unstable();
                } else {
                    // A sensor image s + (dx, dy) lies in `region` iff s
                    // lies in the region translated by (−dx, −dy); test
                    // the 9 translates.
                    for seg in self.torus_images(region) {
                        let shifted = Stadium::new(seg.a, seg.b, region.radius());
                        self.collect_cells(&shifted, out);
                    }
                    out.sort_unstable();
                    out.dedup();
                }
            }
        }
    }

    /// Number of sensors inside the stadium; equal to
    /// `query_stadium(region).len()` but allocation-free (torus duplicates
    /// are suppressed by counting each sensor only at the first translate
    /// image it matches).
    pub fn count_in_stadium(&self, region: &Stadium) -> usize {
        let bbox = region.bounding_box();
        if let Some(f) = &self.focus {
            if !contains_box(f, &bbox) {
                return self.count_brute_force(region);
            }
        }
        match self.boundary {
            BoundaryPolicy::Bounded => self.count_cells(region, &[]),
            BoundaryPolicy::Torus => {
                if strictly_inside(&self.extent, &bbox) {
                    self.count_cells(region, &[])
                } else {
                    let images = self.torus_images(region);
                    let mut count = 0;
                    for (j, seg) in images.iter().enumerate() {
                        let shifted = Stadium::new(seg.a, seg.b, region.radius());
                        count += self.count_cells(&shifted, &images[..j]);
                    }
                    count
                }
            }
        }
    }

    /// The 9 torus translate images of the query's core segment, center
    /// included, in the fixed translate order all torus paths share.
    fn torus_images(&self, region: &Stadium) -> [Segment; 9] {
        let w = self.extent.width();
        let h = self.extent.height();
        let seg = region.segment();
        let mut images = [seg; 9];
        let mut k = 0;
        for ix in -1..=1i32 {
            for iy in -1..=1i32 {
                let off_x = -(ix as f64) * w;
                let off_y = -(iy as f64) * h;
                images[k] = Segment::new(
                    Point::new(seg.a.x + off_x, seg.a.y + off_y),
                    Point::new(seg.b.x + off_x, seg.b.y + off_y),
                );
                k += 1;
            }
        }
        images
    }

    /// Collects indexed sensors inside one stadium (no wrapping), pruning
    /// each grid row to the x-interval the capsule actually crosses.
    fn collect_cells(&self, region: &Stadium, out: &mut Vec<SensorId>) {
        let r_sq = region.radius() * region.radius();
        let seg = region.segment();
        self.for_each_candidate_run(region, |entries, positions| {
            for &idx in entries {
                if seg.distance_sq_to(positions[idx as usize]) <= r_sq {
                    out.push(SensorId(idx as usize));
                }
            }
        });
    }

    /// Counts indexed sensors inside one stadium, skipping any sensor
    /// already matched by an `earlier` translate image (the torus
    /// first-match dedup rule).
    fn count_cells(&self, region: &Stadium, earlier: &[Segment]) -> usize {
        let r_sq = region.radius() * region.radius();
        let seg = region.segment();
        let mut count = 0;
        self.for_each_candidate_run(region, |entries, positions| {
            for &idx in entries {
                let p = positions[idx as usize];
                if seg.distance_sq_to(p) <= r_sq
                    && !earlier.iter().any(|e| e.distance_sq_to(p) <= r_sq)
                {
                    count += 1;
                }
            }
        });
        count
    }

    /// Walks the contiguous `entries` run of every grid row the query
    /// bbox touches, pruned per row to the x-span the capsule intersects.
    fn for_each_candidate_run(
        &self,
        region: &Stadium,
        mut visit: impl FnMut(&[u32], &[Point]),
    ) {
        let bbox = region.bounding_box();
        if bbox.max.x < self.extent.min.x
            || bbox.min.x > self.extent.max.x
            || bbox.max.y < self.extent.min.y
            || bbox.min.y > self.extent.max.y
        {
            return;
        }
        let gx_lo = self.clamp_cx(bbox.min.x);
        let gx_hi = self.clamp_cx(bbox.max.x);
        let gy0 = self.clamp_cy(bbox.min.y);
        let gy1 = self.clamp_cy(bbox.max.y);
        let cell_h = self.extent.height() / self.ny as f64;
        // Cell assignment rounds through inv_h, the band bounds through
        // cell_h; pad the band so a one-ulp disagreement between the two
        // mappings cannot drop a sensor the row actually holds.
        let pad = cell_h * 1e-9;
        for cy in gy0..=gy1 {
            let band_lo = self.extent.min.y + cy as f64 * cell_h;
            let Some((x0, x1)) =
                region.x_span_within_y_band(band_lo - pad, band_lo + cell_h + pad)
            else {
                continue;
            };
            let gx0 = self.clamp_cx(x0).max(gx_lo);
            let gx1 = self.clamp_cx(x1).min(gx_hi);
            if gx0 > gx1 {
                continue;
            }
            // Cells gx0..=gx1 of a row are one contiguous entries run.
            let row = cy * self.nx;
            let s = self.starts[row + gx0] as usize;
            let e = self.starts[row + gx1 + 1] as usize;
            visit(&self.entries[s..e], &self.positions);
        }
    }

    /// Full-scan fallback for queries outside the focus corridor: exact
    /// under both boundary policies, with the torus first-match rule
    /// producing the same sorted, duplicate-free ids the indexed path
    /// sorts into.
    fn query_brute_force(&self, region: &Stadium, out: &mut Vec<SensorId>) {
        let r_sq = region.radius() * region.radius();
        match self.boundary {
            BoundaryPolicy::Bounded => {
                let seg = region.segment();
                for (i, p) in self.positions.iter().enumerate() {
                    if seg.distance_sq_to(*p) <= r_sq {
                        out.push(SensorId(i));
                    }
                }
            }
            BoundaryPolicy::Torus => {
                let images = self.torus_images(region);
                for (i, p) in self.positions.iter().enumerate() {
                    if images.iter().any(|seg| seg.distance_sq_to(*p) <= r_sq) {
                        out.push(SensorId(i));
                    }
                }
            }
        }
    }

    /// Allocation-free counting twin of [`SensorField::query_brute_force`].
    fn count_brute_force(&self, region: &Stadium) -> usize {
        let r_sq = region.radius() * region.radius();
        match self.boundary {
            BoundaryPolicy::Bounded => {
                let seg = region.segment();
                self.positions
                    .iter()
                    .filter(|p| seg.distance_sq_to(**p) <= r_sq)
                    .count()
            }
            BoundaryPolicy::Torus => {
                let images = self.torus_images(region);
                self.positions
                    .iter()
                    .filter(|p| images.iter().any(|seg| seg.distance_sq_to(**p) <= r_sq))
                    .count()
            }
        }
    }

    fn clamp_cx(&self, x: f64) -> usize {
        ((((x - self.extent.min.x) * self.inv_w).floor() as i64).clamp(0, self.nx as i64 - 1))
            as usize
    }

    fn clamp_cy(&self, y: f64) -> usize {
        ((((y - self.extent.min.y) * self.inv_h).floor() as i64).clamp(0, self.ny as i64 - 1))
            as usize
    }

    /// Sizes the grid for `occupants` indexed sensors (about one per
    /// cell) and zeroes the offset array.
    fn set_grid(&mut self, occupants: usize) {
        let target = (occupants.max(1) as f64).sqrt().ceil() as usize;
        let side = target.clamp(1, MAX_GRID);
        self.nx = side;
        self.ny = side;
        self.inv_w = side as f64 / self.extent.width();
        self.inv_h = side as f64 / self.extent.height();
        let ncells = side * side;
        if self.starts.len() == ncells + 1 {
            self.starts.fill(0);
        } else {
            self.starts.clear();
            self.starts.resize(ncells + 1, 0);
        }
    }

    fn reindex(&mut self, focus: Option<Aabb>) {
        assert!(
            self.extent.area() > 0.0,
            "field extent must have positive area"
        );
        assert!(
            self.positions.len() <= u32::MAX as usize,
            "sensor count exceeds the index width"
        );
        self.focus = focus;
        match focus {
            None => self.index_all(),
            Some(f) => self.index_focused(&f),
        }
    }

    /// Indexes every sensor: chunked two-pass counting sort into CSR.
    fn index_all(&mut self) {
        let n = self.positions.len();
        self.set_grid(n);
        // Length adjustments only — every slot is overwritten below, so a
        // warm rebuild never pays a redundant memset of the big arrays.
        self.cell_scratch.resize(n, 0);
        self.entries.resize(n, 0);
        let extent = self.extent;
        let (inv_w, inv_h) = (self.inv_w, self.inv_h);
        let nx = self.nx as u32;
        let (nxm1, nym1) = ((self.nx - 1) as u32, (self.ny - 1) as u32);
        let ncells = self.nx * self.ny;
        let SensorField {
            positions,
            starts,
            entries,
            cell_scratch,
            ..
        } = self;
        // Pass 1: per-chunk cell ids, then histogram increments while the
        // chunk is hot.
        let mut base = 0usize;
        for (pc, ic) in positions.chunks(CHUNK).zip(cell_scratch.chunks_mut(CHUNK)) {
            for (j, (p, cid)) in pc.iter().zip(ic.iter_mut()).enumerate() {
                assert!(
                    extent.contains(*p),
                    "sensor {} lies outside the field extent",
                    base + j
                );
                let cx = (((p.x - extent.min.x) * inv_w) as u32).min(nxm1);
                let cy = (((p.y - extent.min.y) * inv_h) as u32).min(nym1);
                *cid = cy * nx + cx;
            }
            for &cid in ic.iter() {
                starts[cid as usize + 1] += 1;
            }
            base += pc.len();
        }
        // Prefix sum, scatter using the offsets as cursors, then shift the
        // cursors back into place.
        for c in 0..ncells {
            starts[c + 1] += starts[c];
        }
        for (i, &cid) in cell_scratch.iter().enumerate() {
            let slot = starts[cid as usize];
            entries[slot as usize] = i as u32;
            starts[cid as usize] = slot + 1;
        }
        for c in (1..=ncells).rev() {
            starts[c] = starts[c - 1];
        }
        starts[0] = 0;
    }

    /// Indexes only the sensors inside a translate image of the focus box:
    /// one streaming filter pass over all positions, then the counting
    /// sort over the (typically tiny) kept set.
    fn index_focused(&mut self, focus: &Aabb) {
        // A query with bbox ⊆ focus tests sensors against up to 9
        // translate images of itself, each of which lies inside the same
        // translate image of the focus; keeping every sensor in any
        // clipped focus image therefore preserves exactness.
        let mut rects = [*focus; 9];
        let mut nrects = 0;
        match self.boundary {
            BoundaryPolicy::Bounded => {
                if let Some(r) = clip(focus, &self.extent) {
                    rects[0] = r;
                    nrects = 1;
                }
            }
            BoundaryPolicy::Torus => {
                let w = self.extent.width();
                let h = self.extent.height();
                for ix in -1..=1i32 {
                    for iy in -1..=1i32 {
                        let shifted = Aabb {
                            min: Point::new(
                                focus.min.x + ix as f64 * w,
                                focus.min.y + iy as f64 * h,
                            ),
                            max: Point::new(
                                focus.max.x + ix as f64 * w,
                                focus.max.y + iy as f64 * h,
                            ),
                        };
                        if let Some(r) = clip(&shifted, &self.extent) {
                            rects[nrects] = r;
                            nrects += 1;
                        }
                    }
                }
            }
        }
        let extent = self.extent;
        self.cell_scratch.clear();
        {
            let SensorField {
                positions,
                cell_scratch,
                ..
            } = self;
            let rects = &rects[..nrects];
            // This scan touches every one of the N positions on every
            // focused rebuild, so it is the per-trial cost floor at large
            // N. Non-short-circuiting `&`/`|` keep the body straight-line
            // float compares; the containment check accumulates into a
            // flag and only the (never-taken) failure path re-scans to
            // name the offending sensor.
            let inside = |r: &Aabb, p: Point| {
                (p.x >= r.min.x) & (p.x <= r.max.x) & (p.y >= r.min.y) & (p.y <= r.max.y)
            };
            let mut all_inside = true;
            match rects {
                [r] => {
                    for (i, p) in positions.iter().enumerate() {
                        all_inside &= inside(&extent, *p);
                        if inside(r, *p) {
                            cell_scratch.push(i as u32);
                        }
                    }
                }
                _ => {
                    for (i, p) in positions.iter().enumerate() {
                        all_inside &= inside(&extent, *p);
                        if rects.iter().fold(false, |acc, r| acc | inside(r, *p)) {
                            cell_scratch.push(i as u32);
                        }
                    }
                }
            }
            if !all_inside {
                for (i, p) in positions.iter().enumerate() {
                    assert!(
                        extent.contains(*p),
                        "sensor {i} lies outside the field extent"
                    );
                }
            }
        }
        let kept = self.cell_scratch.len();
        self.set_grid(kept);
        self.entries.resize(kept, 0);
        let (inv_w, inv_h) = (self.inv_w, self.inv_h);
        let nx = self.nx as u32;
        let (nxm1, nym1) = ((self.nx - 1) as u32, (self.ny - 1) as u32);
        let ncells = self.nx * self.ny;
        let SensorField {
            positions,
            starts,
            entries,
            cell_scratch,
            ..
        } = self;
        let cell_of = |p: Point| {
            let cx = (((p.x - extent.min.x) * inv_w) as u32).min(nxm1);
            let cy = (((p.y - extent.min.y) * inv_h) as u32).min(nym1);
            (cy * nx + cx) as usize
        };
        for &i in cell_scratch.iter() {
            starts[cell_of(positions[i as usize]) + 1] += 1;
        }
        for c in 0..ncells {
            starts[c + 1] += starts[c];
        }
        for &i in cell_scratch.iter() {
            let c = cell_of(positions[i as usize]);
            entries[starts[c] as usize] = i;
            starts[c] += 1;
        }
        for c in (1..=ncells).rev() {
            starts[c] = starts[c - 1];
        }
        starts[0] = 0;
    }
}

/// Whether `outer` contains all of `inner` (boundaries included).
fn contains_box(outer: &Aabb, inner: &Aabb) -> bool {
    outer.min.x <= inner.min.x
        && outer.min.y <= inner.min.y
        && outer.max.x >= inner.max.x
        && outer.max.y >= inner.max.y
}

/// Whether `inner` lies strictly inside `outer` (no boundary contact).
fn strictly_inside(outer: &Aabb, inner: &Aabb) -> bool {
    inner.min.x > outer.min.x
        && inner.min.y > outer.min.y
        && inner.max.x < outer.max.x
        && inner.max.y < outer.max.y
}

/// `a ∩ extent`, or `None` when the intersection is empty.
fn clip(a: &Aabb, extent: &Aabb) -> Option<Aabb> {
    let min = Point::new(a.min.x.max(extent.min.x), a.min.y.max(extent.min.y));
    let max = Point::new(a.max.x.min(extent.max.x), a.max.y.min(extent.max.y));
    (min.x <= max.x && min.y <= max.y).then_some(Aabb { min, max })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_field(boundary: BoundaryPolicy) -> SensorField {
        SensorField::new(
            Aabb::from_extent(100.0, 100.0),
            vec![
                Point::new(10.0, 10.0),
                Point::new(50.0, 50.0),
                Point::new(90.0, 90.0),
                Point::new(99.0, 50.0),
            ],
            boundary,
        )
    }

    #[test]
    fn circle_query_bounded() {
        let f = small_field(BoundaryPolicy::Bounded);
        let hits = f.query_circle(Point::new(50.0, 50.0), 10.0);
        assert_eq!(hits, vec![SensorId(1)]);
        let all = f.query_circle(Point::new(50.0, 50.0), 1000.0);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn circle_query_boundary_inclusive() {
        let f = small_field(BoundaryPolicy::Bounded);
        let hits = f.query_circle(Point::new(10.0, 20.0), 10.0);
        assert_eq!(hits, vec![SensorId(0)]);
    }

    #[test]
    fn stadium_query_matches_brute_force() {
        let extent = Aabb::from_extent(100.0, 100.0);
        use rand::{Rng as _, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(11);
        let positions: Vec<Point> = (0..400)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();
        let f = SensorField::new(extent, positions.clone(), BoundaryPolicy::Bounded);
        for trial in 0..20 {
            let a = Point::new(rng.gen_range(-20.0..120.0), rng.gen_range(-20.0..120.0));
            let b = Point::new(
                a.x + rng.gen_range(-30.0..30.0),
                a.y + rng.gen_range(-30.0..30.0),
            );
            let st = Stadium::new(a, b, rng.gen_range(1.0..15.0));
            let mut expect: Vec<SensorId> = positions
                .iter()
                .enumerate()
                .filter(|(_, p)| st.contains(**p))
                .map(|(i, _)| SensorId(i))
                .collect();
            let mut got = f.query_stadium(&st);
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(got, expect, "trial {trial}");
        }
    }

    #[test]
    fn torus_query_wraps_borders() {
        let f = small_field(BoundaryPolicy::Torus);
        // Query centered just outside the left edge: sensor at x=99 is 2 m
        // away through the wrap (99 -> -1).
        let hits = f.query_circle(Point::new(1.0, 50.0), 3.0);
        assert_eq!(hits, vec![SensorId(3)]);
        // Bounded query does not see it.
        let fb = small_field(BoundaryPolicy::Bounded);
        assert!(fb.query_circle(Point::new(1.0, 50.0), 3.0).is_empty());
    }

    #[test]
    fn torus_query_does_not_duplicate() {
        let f = small_field(BoundaryPolicy::Torus);
        // A huge query region sees each sensor once.
        let hits = f.query_circle(Point::new(50.0, 50.0), 75.0);
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn torus_matches_brute_force_images() {
        use rand::{Rng as _, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(5);
        let extent = Aabb::from_extent(50.0, 50.0);
        let positions: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)))
            .collect();
        let f = SensorField::new(extent, positions.clone(), BoundaryPolicy::Torus);
        for trial in 0..20 {
            let a = Point::new(rng.gen_range(-30.0..80.0), rng.gen_range(-30.0..80.0));
            let b = Point::new(
                a.x + rng.gen_range(-20.0..20.0),
                a.y + rng.gen_range(-20.0..20.0),
            );
            let st = Stadium::new(a, b, rng.gen_range(1.0..10.0));
            let mut expect: Vec<SensorId> = positions
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    (-1..=1).any(|ix| {
                        (-1..=1).any(|iy| {
                            st.contains(Point::new(
                                p.x + ix as f64 * 50.0,
                                p.y + iy as f64 * 50.0,
                            ))
                        })
                    })
                })
                .map(|(i, _)| SensorId(i))
                .collect();
            expect.sort_unstable();
            let got = f.query_stadium(&st);
            assert_eq!(got, expect, "trial {trial}");
        }
    }

    #[test]
    fn query_outside_bounded_field_is_empty() {
        let f = small_field(BoundaryPolicy::Bounded);
        assert!(f.query_circle(Point::new(500.0, 500.0), 10.0).is_empty());
    }

    #[test]
    fn empty_field() {
        let f = SensorField::new(
            Aabb::from_extent(10.0, 10.0),
            vec![],
            BoundaryPolicy::Bounded,
        );
        assert!(f.is_empty());
        assert!(f.query_circle(Point::new(5.0, 5.0), 100.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside the field")]
    fn sensor_outside_extent_panics() {
        SensorField::new(
            Aabb::from_extent(10.0, 10.0),
            vec![Point::new(11.0, 5.0)],
            BoundaryPolicy::Bounded,
        );
    }

    #[test]
    #[should_panic(expected = "outside the field")]
    fn focused_rebuild_keeps_the_containment_panic() {
        let mut f = small_field(BoundaryPolicy::Torus);
        f.rebuild_focused(
            Aabb::from_extent(10.0, 10.0),
            BoundaryPolicy::Torus,
            |buf| {
                buf.push(Point::new(5.0, 5.0));
                buf.push(Point::new(11.0, 5.0));
                (Aabb::from_extent(10.0, 10.0), ())
            },
        );
    }

    #[test]
    fn count_matches_query_len() {
        use rand::{Rng as _, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(23);
        let extent = Aabb::from_extent(60.0, 60.0);
        let positions: Vec<Point> = (0..300)
            .map(|_| Point::new(rng.gen_range(0.0..60.0), rng.gen_range(0.0..60.0)))
            .collect();
        for boundary in [BoundaryPolicy::Bounded, BoundaryPolicy::Torus] {
            let f = SensorField::new(extent, positions.clone(), boundary);
            for trial in 0..30 {
                // Mix interior, border-straddling and degenerate regions.
                let a = Point::new(rng.gen_range(-20.0..80.0), rng.gen_range(-20.0..80.0));
                let b = if trial % 5 == 0 {
                    a // degenerate: a disk
                } else {
                    Point::new(
                        a.x + rng.gen_range(-25.0..25.0),
                        a.y + rng.gen_range(-25.0..25.0),
                    )
                };
                let st = Stadium::new(a, b, rng.gen_range(0.5..20.0));
                assert_eq!(
                    f.count_in_stadium(&st),
                    f.query_stadium(&st).len(),
                    "{boundary:?} trial {trial}"
                );
            }
        }
    }

    #[test]
    fn focused_field_answers_in_focus_queries_exactly() {
        use rand::{Rng as _, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(31);
        let extent = Aabb::from_extent(100.0, 100.0);
        let positions: Vec<Point> = (0..500)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();
        for boundary in [BoundaryPolicy::Bounded, BoundaryPolicy::Torus] {
            let full = SensorField::new(extent, positions.clone(), boundary);
            let mut focused = SensorField::new(extent, Vec::new(), boundary);
            // Focus straddling the right border to exercise the translate
            // images of the filter.
            let focus = Aabb::new(Point::new(70.0, 20.0), Point::new(115.0, 70.0));
            focused.rebuild_focused(extent, boundary, |buf| {
                buf.extend_from_slice(&positions);
                (focus, ())
            });
            assert!(focused.len() == positions.len());
            assert_eq!(focused.focus(), Some(focus));
            let mut hits = Vec::new();
            for trial in 0..40 {
                let a = Point::new(rng.gen_range(72.0..108.0), rng.gen_range(22.0..62.0));
                let b = Point::new(
                    (a.x + rng.gen_range(-4.0..4.0)).clamp(71.0, 114.0),
                    (a.y + rng.gen_range(-4.0..4.0)).clamp(21.0, 69.0),
                );
                let st = Stadium::new(a, b, rng.gen_range(0.1..1.0));
                focused.query_stadium_into(&st, &mut hits);
                assert_eq!(hits, full.query_stadium(&st), "{boundary:?} trial {trial}");
                assert_eq!(focused.count_in_stadium(&st), hits.len());
            }
        }
    }

    #[test]
    fn out_of_focus_queries_fall_back_to_a_full_scan() {
        use rand::{Rng as _, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(37);
        let extent = Aabb::from_extent(100.0, 100.0);
        let positions: Vec<Point> = (0..300)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();
        for boundary in [BoundaryPolicy::Bounded, BoundaryPolicy::Torus] {
            let full = SensorField::new(extent, positions.clone(), boundary);
            let mut focused = SensorField::new(extent, positions.clone(), boundary);
            focused.refocus(Aabb::new(Point::new(10.0, 10.0), Point::new(20.0, 20.0)));
            for trial in 0..25 {
                let a = Point::new(rng.gen_range(-20.0..120.0), rng.gen_range(-20.0..120.0));
                let b = Point::new(
                    a.x + rng.gen_range(-15.0..15.0),
                    a.y + rng.gen_range(-15.0..15.0),
                );
                let st = Stadium::new(a, b, rng.gen_range(1.0..12.0));
                assert_eq!(
                    focused.query_stadium(&st),
                    full.query_stadium(&st),
                    "{boundary:?} trial {trial}"
                );
                assert_eq!(focused.count_in_stadium(&st), full.count_in_stadium(&st));
            }
        }
    }

    #[test]
    fn rebuild_reuses_a_warm_field() {
        let mut f = small_field(BoundaryPolicy::Torus);
        f.rebuild_focused(
            Aabb::from_extent(50.0, 50.0),
            BoundaryPolicy::Bounded,
            |buf| {
                buf.push(Point::new(25.0, 25.0));
                (Aabb::from_extent(50.0, 50.0), ())
            },
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f.boundary(), BoundaryPolicy::Bounded);
        assert_eq!(
            f.query_circle(Point::new(25.0, 25.0), 1.0),
            vec![SensorId(0)]
        );
        // And back to a bigger focused field.
        let carry = f.rebuild_focused(
            Aabb::from_extent(100.0, 100.0),
            BoundaryPolicy::Torus,
            |buf| {
                for i in 0..50 {
                    buf.push(Point::new(1.0 + 1.9 * i as f64, 50.0));
                }
                (
                    Aabb::new(Point::new(0.0, 40.0), Point::new(30.0, 60.0)),
                    7u32,
                )
            },
        );
        assert_eq!(carry, 7);
        assert_eq!(f.len(), 50);
        let hits = f.query_circle(Point::new(10.0, 50.0), 2.0);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn sensors_iterate_in_id_order() {
        let f = small_field(BoundaryPolicy::Bounded);
        let ids: Vec<usize> = f.sensors().map(|s| s.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(f.sensor(SensorId(3)).pos, Point::new(99.0, 50.0));
        assert_eq!(f.positions().len(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng as _;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn torus_equals_bounded_away_from_borders(
            seed in 0u64..1000,
            cx in 30.0f64..70.0,
            cy in 30.0f64..70.0,
            r in 1.0f64..10.0,
        ) {
            // A query region well inside the field sees identical results
            // under both boundary policies — including through the
            // border-aware torus fast path and a focused index.
            use rand::Rng as _;
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
            let extent = Aabb::from_extent(100.0, 100.0);
            let positions: Vec<Point> = (0..100)
                .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            let bounded = SensorField::new(extent, positions.clone(), BoundaryPolicy::Bounded);
            let torus = SensorField::new(extent, positions.clone(), BoundaryPolicy::Torus);
            let hits_b = bounded.query_circle(Point::new(cx, cy), r);
            let hits_t = torus.query_circle(Point::new(cx, cy), r);
            prop_assert_eq!(&hits_b, &hits_t);
            let mut focused = SensorField::new(extent, positions, BoundaryPolicy::Torus);
            let probe = Stadium::new(Point::new(cx, cy), Point::new(cx, cy), r);
            focused.refocus(probe.bounding_box());
            prop_assert_eq!(&hits_b, &focused.query_circle(Point::new(cx, cy), r));
        }

        #[test]
        fn torus_query_is_translation_invariant(
            seed in 0u64..500,
            shift_x in 0.0f64..100.0,
            shift_y in 0.0f64..100.0,
        ) {
            // Shifting all sensors and the query by the same offset
            // (mod field size) leaves a torus count unchanged.
            use rand::Rng as _;
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
            let extent = Aabb::from_extent(100.0, 100.0);
            let positions: Vec<Point> = (0..60)
                .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            let shifted: Vec<Point> = positions
                .iter()
                .map(|p| Point::new((p.x + shift_x) % 100.0, (p.y + shift_y) % 100.0))
                .collect();
            let base = SensorField::new(extent, positions, BoundaryPolicy::Torus);
            let moved = SensorField::new(extent, shifted, BoundaryPolicy::Torus);
            let q = Point::new(20.0, 30.0);
            let q_shift = Point::new((20.0 + shift_x) % 100.0, (30.0 + shift_y) % 100.0);
            let r = 12.5;
            prop_assert_eq!(
                base.query_circle(q, r).len(),
                moved.query_circle(q_shift, r).len()
            );
        }

        #[test]
        fn csr_query_matches_full_scan_under_both_policies(
            seed in 0u64..1000,
            ax in -30.0f64..130.0,
            ay in -30.0f64..130.0,
            dx in -40.0f64..40.0,
            dy in -40.0f64..40.0,
            r in 0.0f64..25.0,
            degenerate_sel in 0u8..2,
        ) {
            // The CSR index (row pruning, contiguous-row runs, torus fast
            // path and all) must agree with a brute-force scan over every
            // sensor for arbitrary stadia: interior, border-straddling,
            // fully outside, and degenerate (zero-length segment / zero
            // radius).
            use rand::Rng as _;
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
            let extent = Aabb::from_extent(100.0, 100.0);
            let positions: Vec<Point> = (0..150)
                .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            let degenerate = degenerate_sel == 1;
            let a = Point::new(ax, ay);
            let b = if degenerate { a } else { Point::new(ax + dx, ay + dy) };
            let st = Stadium::new(a, b, r);
            for boundary in [BoundaryPolicy::Bounded, BoundaryPolicy::Torus] {
                let f = SensorField::new(extent, positions.clone(), boundary);
                let expect: Vec<SensorId> = positions
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| match boundary {
                        BoundaryPolicy::Bounded => st.contains(**p),
                        BoundaryPolicy::Torus => (-1..=1).any(|ix| {
                            (-1..=1).any(|iy| {
                                st.contains(Point::new(
                                    p.x + ix as f64 * 100.0,
                                    p.y + iy as f64 * 100.0,
                                ))
                            })
                        }),
                    })
                    .map(|(i, _)| SensorId(i))
                    .collect();
                let got = f.query_stadium(&st);
                prop_assert_eq!(&got, &expect);
                prop_assert_eq!(f.count_in_stadium(&st), expect.len());
            }
        }
    }
}
