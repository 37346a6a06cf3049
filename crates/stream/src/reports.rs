//! Detection reports.

use gbd_field::sensor::SensorId;
use gbd_geometry::point::Point;

/// Why a report was generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// The sensor covered the real target and its detector fired.
    TrueDetection,
    /// Environmental noise: a node-level false alarm.
    FalseAlarm,
}

/// A node-level detection report: sensor, sensing period (1-based) and the
/// sensor's position (what the base station knows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionReport {
    /// Reporting sensor.
    pub sensor: SensorId,
    /// Sensing period in which the report was generated (1-based).
    pub period: usize,
    /// Position of the reporting sensor.
    pub position: Point,
    /// Whether the report was caused by the target or by noise.
    pub kind: ReportKind,
}

impl DetectionReport {
    /// Convenience constructor.
    pub fn new(sensor: SensorId, period: usize, position: Point, kind: ReportKind) -> Self {
        DetectionReport {
            sensor,
            period,
            position,
            kind,
        }
    }

    /// Whether the report stems from the real target.
    pub fn is_true_detection(&self) -> bool {
        self.kind == ReportKind::TrueDetection
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicate() {
        let t = DetectionReport::new(SensorId(1), 3, Point::ORIGIN, ReportKind::TrueDetection);
        let f = DetectionReport::new(SensorId(2), 3, Point::ORIGIN, ReportKind::FalseAlarm);
        assert!(t.is_true_detection());
        assert!(!f.is_true_detection());
    }
}
