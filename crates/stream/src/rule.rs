//! The velocity-feasibility rule that maps report pairs to a possible
//! target track.
//!
//! A report sequence is track-feasible if some target moving at most
//! `v_max` could have triggered every report — i.e. consecutive reports'
//! sensors are mutually reachable:
//!
//! `dist(pos_i, pos_j) <= v_max · t · (period_j − period_i + 1) + 2·Rs`
//!
//! (each sensor sees the target anywhere within `Rs` of the segment its
//! period covers, hence the `+1` period and the `2·Rs` slack).

use crate::reports::DetectionReport;

/// Feasibility rule linking two reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackRule {
    /// Maximum plausible target speed in m/s.
    pub v_max: f64,
    /// Sensing period length in seconds.
    pub period_s: f64,
    /// Sensing range in meters (adds `2·Rs` slack to the reachability test).
    pub sensing_range: f64,
    /// When set, distances wrap around a `(width, height)` torus — used to
    /// match simulations run under the toroidal boundary policy.
    pub wrap: Option<(f64, f64)>,
}

impl TrackRule {
    /// Creates a rule for a bounded field.
    ///
    /// # Panics
    ///
    /// Panics if any argument is negative or not finite.
    pub fn new(v_max: f64, period_s: f64, sensing_range: f64) -> Self {
        assert!(
            v_max.is_finite() && v_max >= 0.0,
            "v_max must be finite and >= 0"
        );
        assert!(
            period_s.is_finite() && period_s > 0.0,
            "period_s must be finite and > 0"
        );
        assert!(
            sensing_range.is_finite() && sensing_range >= 0.0,
            "sensing_range must be finite and >= 0"
        );
        TrackRule {
            v_max,
            period_s,
            sensing_range,
            wrap: None,
        }
    }

    /// Returns a copy whose distances wrap around a `width × height` torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not finite and positive.
    pub fn with_wrap(mut self, width: f64, height: f64) -> Self {
        assert!(
            width.is_finite() && width > 0.0,
            "width must be finite and > 0"
        );
        assert!(
            height.is_finite() && height > 0.0,
            "height must be finite and > 0"
        );
        self.wrap = Some((width, height));
        self
    }

    fn distance(&self, a: &DetectionReport, b: &DetectionReport) -> f64 {
        match self.wrap {
            None => a.position.distance(b.position),
            Some((w, h)) => {
                let dx = (a.position.x - b.position.x).abs() % w;
                let dy = (a.position.y - b.position.y).abs() % h;
                let dx = dx.min(w - dx);
                let dy = dy.min(h - dy);
                (dx * dx + dy * dy).sqrt()
            }
        }
    }

    /// Whether report `b` could follow report `a` on one target's track.
    /// Reports in the same period are compatible if their sensors could
    /// have seen the same one-period segment (`V·t + 2·Rs` apart at most).
    pub fn compatible(&self, a: &DetectionReport, b: &DetectionReport) -> bool {
        let dp = b.period.abs_diff(a.period) as f64;
        let reach = self.v_max * self.period_s * (dp + 1.0) + 2.0 * self.sensing_range;
        self.distance(a, b) <= reach
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reports::ReportKind;
    use gbd_field::sensor::SensorId;
    use gbd_geometry::point::Point;

    fn report(id: usize, period: usize, x: f64, y: f64) -> DetectionReport {
        DetectionReport::new(
            SensorId(id),
            period,
            Point::new(x, y),
            ReportKind::TrueDetection,
        )
    }

    fn rule() -> TrackRule {
        // Paper parameters: v_max 10 m/s, t = 60 s, Rs = 1000 m.
        TrackRule::new(10.0, 60.0, 1000.0)
    }

    #[test]
    fn same_period_reports_need_overlapping_drs() {
        // Same-period reach: V·t + 2·Rs = 600 + 2000 = 2600 m.
        let a = report(1, 1, 0.0, 0.0);
        let near = report(2, 1, 2500.0, 0.0);
        let far = report(3, 1, 2700.0, 0.0);
        assert!(rule().compatible(&a, &near));
        assert!(!rule().compatible(&a, &far));
    }

    #[test]
    fn wrapped_rule_links_across_borders() {
        let wrapped = rule().with_wrap(32_000.0, 32_000.0);
        let a = report(1, 1, 100.0, 0.0);
        let b = report(2, 1, 31_900.0, 0.0); // 200 m away through the wrap
        assert!(!rule().compatible(&a, &b));
        assert!(wrapped.compatible(&a, &b));
    }
}
