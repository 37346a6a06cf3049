//! The batch group filter, kept as the reference implementation the
//! incremental detector is tested against: given every report at once, an
//! `O(R²)` DP over the period-sorted reports finds the longest
//! track-feasible chain. Production code runs `StreamDetector` only.
//!
//! Shared by the detector's unit tests (`src/lib.rs`) and the replay tests
//! (`tests/replay.rs`); each includer brings `DetectionReport` and
//! `TrackRule` into scope in its parent module.

use super::{DetectionReport, TrackRule};

/// Length of the longest track-feasible report chain whose periods span
/// less than `m_periods`.
///
/// Chains are non-decreasing in period; all pairs in a chain must be
/// pairwise compatible with the *chain's* timing — we use the standard
/// consecutive-pair relaxation (compatibility with the previous chain
/// element), which true tracks satisfy exactly and which admits only
/// geometrically plausible false-alarm chains.
pub fn longest_feasible_chain(
    reports: &[DetectionReport],
    rule: &TrackRule,
    m_periods: usize,
) -> usize {
    let mut sorted: Vec<&DetectionReport> = reports.iter().collect();
    sorted.sort_by_key(|r| r.period);
    let n = sorted.len();
    let mut best_len = vec![1usize; n];
    // first_period[i]: earliest period of the best chain ending at i, to
    // enforce the M-period window.
    let mut first_period = vec![0usize; n];
    for i in 0..n {
        first_period[i] = sorted[i].period;
    }
    let mut best = 0;
    for i in 0..n {
        for j in 0..i {
            if sorted[j].period > sorted[i].period {
                continue;
            }
            if !rule.compatible(sorted[j], sorted[i]) {
                continue;
            }
            // Window check: extending j's chain keeps its first period.
            if sorted[i].period - first_period[j] >= m_periods {
                continue;
            }
            if best_len[j] + 1 > best_len[i] {
                best_len[i] = best_len[j] + 1;
                first_period[i] = first_period[j];
            }
        }
        best = best.max(best_len[i]);
    }
    if n == 0 {
        0
    } else {
        best
    }
}

/// The system-level group detection decision: does any track-feasible chain
/// of at least `k` reports fit within `m_periods`?
pub fn group_detects(
    reports: &[DetectionReport],
    rule: &TrackRule,
    k: usize,
    m_periods: usize,
) -> bool {
    if reports.len() < k {
        return false;
    }
    longest_feasible_chain(reports, rule, m_periods) >= k
}
