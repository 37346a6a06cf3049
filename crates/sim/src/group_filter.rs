//! The concrete group-based detection algorithm: track-feasibility
//! filtering.
//!
//! The paper abstracts group detection as "a sequence of at least `k`
//! detection reports within `M` sensing periods **that can be mapped to a
//! possible target track**". [`TrackRule`] is the mapping test the base
//! station would actually run, and the longest feasible chain is found by
//! `gbd_stream`'s incremental detector — the same code that serves live
//! detection sessions. [`group_detects`] replays one trial's reports
//! through it; detection fires when a chain of length `>= k` fits inside an
//! `M`-period window.
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
/// One [`StreamDetector`] pass over `reports`, with the track cap set to the
/// report count so no entry is ever evicted and the answer is the exact
/// longest chain.
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
    detector.ingest(reports);
    detector.detected()
}
