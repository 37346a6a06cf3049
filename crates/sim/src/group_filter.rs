//! The concrete group-based detection algorithm: track-feasibility
//! filtering.
//!
//! The paper abstracts group detection as "a sequence of at least `k`
//! detection reports within `M` sensing periods **that can be mapped to a
//! possible target track**". [`TrackRule`] is the mapping test the base
//! station would actually run, and the longest feasible chain is found by
//! `gbd_stream`'s incremental detector — the same code that serves live
//! detection sessions. [`group_detects`] steps one trial's reports through
//! it in period order; detection fires when a chain of length `>= k` fits
//! inside an `M`-period window, and the first such chain settles the trial.
//!
//! True-target reports always form a feasible chain; scattered false alarms
//! rarely do — this is exactly the mechanism by which group detection
//! filters system-level false alarms.

use crate::reports::DetectionReport;
use gbd_stream::{StreamConfig, StreamDetector};

pub use gbd_stream::TrackRule;

/// The system-level group detection decision: does any track-feasible chain
/// of at least `k` reports fit within `m_periods`?
///
/// Steps `reports` through one [`StreamDetector`] in stable period order,
/// with the track cap set to the report count so no entry is ever evicted,
/// and returns `true` at the first report that completes a chain of `k`.
/// Stopping there is exact: the longest chain only grows. Input already in
/// period order (what the trial engine produces) is stepped without a sort
/// buffer.
///
/// # Panics
///
/// Panics if `k` or `m_periods` is zero.
pub fn group_detects(
    reports: &[DetectionReport],
    rule: &TrackRule,
    k: usize,
    m_periods: usize,
) -> bool {
    if reports.len() < k {
        return false;
    }
    let config = StreamConfig::new(*rule, k, m_periods).with_max_tracks(reports.len().max(1));
    let mut detector = StreamDetector::new(config);
    let fires = |report: &DetectionReport| detector.ingest_one(report).is_some();
    if reports.is_sorted_by_key(|r| r.period) {
        reports.iter().any(fires)
    } else {
        let mut sorted: Vec<&DetectionReport> = reports.iter().collect();
        sorted.sort_by_key(|r| r.period);
        sorted.into_iter().any(fires)
    }
}
