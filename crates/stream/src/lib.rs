//! Incremental online group-based detection — the one implementation of
//! the paper's group filter.
//!
//! The paper declares a detection when at least `k` reports within `M`
//! periods "can be mapped to a possible target track". [`TrackRule`] is
//! that mapping for a pair of reports; [`StreamDetector`] finds the longest
//! track-feasible chain. Reports arrive over time, the detector maintains
//! the per-report DP state incrementally, and a [`DetectionEvent`] fires
//! the moment a chain reaches length `k` — carrying the period that
//! completed it, i.e. the time-to-detection. Served sessions feed it live;
//! the simulator's false-alarm studies (`gbd_sim::group_filter`) step each
//! trial's reports through it one at a time and stop at the first event.
//!
//! # The batch DP it reproduces
//!
//! The after-the-fact formulation stably sorts reports by period and then,
//! at iteration `i`, relaxes `best_len[i]` / `first_period[i]` against
//! entries `j < i` only. Both arrays are *final* after iteration `i` —
//! later iterations never revisit them. So when reports arrive in
//! non-decreasing period order (arrival order ≡ the stable sort order),
//! processing each report once against the already-ingested entries
//! performs exactly the batch DP's iteration for that report, and the
//! running maximum of chain lengths equals the batch result on every
//! prefix. [`StreamDetector`] exploits this: same compatibility test, same
//! window check, same strict-greater relaxation, same entry order. The
//! batch DP survives as a test-only reference (`tests/batch_oracle`), and
//! the committed tests pin the equality per prefix against it.
//!
//! Two departures are possible only under explicit, counted degradation:
//! reports older than the stream frontier are dropped (they would break the
//! sort-order equivalence) and the per-session entry table is capped
//! ([`StreamConfig::max_tracks`]), evicting the oldest entry when full.
//! Expiry, by contrast, is lossless: an entry whose chain start has fallen
//! `M` periods behind the frontier fails the batch window check against
//! every future report, so removing it cannot change any later relaxation.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;

use gbd_field::sensor::SensorId;

mod reports;
mod rule;

pub use reports::{DetectionReport, ReportKind};
pub use rule::TrackRule;

#[cfg(test)]
#[path = "../tests/batch_oracle/mod.rs"]
mod batch_oracle;

/// Default cap on live DP entries per detector ([`StreamConfig::max_tracks`]).
pub const DEFAULT_MAX_TRACKS: usize = 4096;

/// Parameters of one streaming detection session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Velocity-feasibility rule linking reports (including the optional
    /// torus wrap).
    pub rule: TrackRule,
    /// Group size: a detection event fires when a feasible chain reaches
    /// this many reports.
    pub k: usize,
    /// Sliding window length in sensing periods (the paper's `M`).
    pub m_periods: usize,
    /// Cap on live DP entries; the oldest entry is evicted (and counted)
    /// when a new report would exceed it.
    pub max_tracks: usize,
}

impl StreamConfig {
    /// Creates a config with the default track cap.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `m_periods` is zero.
    pub fn new(rule: TrackRule, k: usize, m_periods: usize) -> Self {
        assert!(k > 0, "k must be > 0");
        assert!(m_periods > 0, "m_periods must be > 0");
        StreamConfig {
            rule,
            k,
            m_periods,
            max_tracks: DEFAULT_MAX_TRACKS,
        }
    }

    /// Returns a copy with a different live-entry cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_tracks` is zero.
    pub fn with_max_tracks(mut self, max_tracks: usize) -> Self {
        assert!(max_tracks > 0, "max_tracks must be > 0");
        self.max_tracks = max_tracks;
        self
    }
}

/// A group detection fired by the online filter: some track-feasible chain
/// reached `k` reports when the carried report was ingested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionEvent {
    /// Monotone per-session sequence number (deterministic event order).
    pub seq: u64,
    /// Sensing period of the report that completed the chain — the
    /// time-to-detection for the first event of a session.
    pub period: usize,
    /// Sensor whose report completed the chain.
    pub sensor: SensorId,
    /// Length of the completed chain (≥ `k`).
    pub chain_len: usize,
    /// Earliest period of the completed chain.
    pub first_period: usize,
}

/// Monotone counters describing a detector's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Reports accepted into the DP state.
    pub reports_ingested: u64,
    /// Reports dropped because their period predated the stream frontier.
    pub reports_late: u64,
    /// Detection events emitted.
    pub events_emitted: u64,
    /// Entries removed because their chain start left the M-period window
    /// (lossless — see the module docs).
    pub tracks_expired: u64,
    /// Entries evicted by the `max_tracks` cap (lossy, counted degradation).
    pub tracks_evicted: u64,
}

/// One report's DP state: the batch DP's `best_len[i]` /
/// `first_period[i]` pair, frozen once ingested.
#[derive(Debug, Clone, Copy)]
struct Entry {
    report: DetectionReport,
    best_len: usize,
    first_period: usize,
}

/// Incremental group filter over a stream of node reports.
///
/// Feed batches of reports (non-decreasing in period across batches) via
/// [`ingest`](StreamDetector::ingest), or single reports in period order
/// via [`ingest_one`](StreamDetector::ingest_one); detection events are
/// returned in deterministic ingestion order.
#[derive(Debug, Clone)]
pub struct StreamDetector {
    config: StreamConfig,
    entries: VecDeque<Entry>,
    /// Highest period ingested so far (0 before the first report).
    frontier: usize,
    /// Running maximum chain length over all ingested reports — equals the
    /// batch DP's longest chain over the accepted prefix.
    longest: usize,
    next_seq: u64,
    stats: StreamStats,
}

impl StreamDetector {
    /// Creates an empty detector.
    pub fn new(config: StreamConfig) -> Self {
        StreamDetector {
            config,
            entries: VecDeque::new(),
            frontier: 0,
            longest: 0,
            next_seq: 0,
            stats: StreamStats::default(),
        }
    }

    /// The session parameters.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Ingests a batch of reports and returns the detection events they
    /// trigger, in ingestion order.
    ///
    /// The batch is stably sorted by period first (mirroring the batch
    /// DP's sort), so within-batch order only matters between reports of
    /// the same period — where it matches the batch DP's tie-break.
    pub fn ingest(&mut self, reports: &[DetectionReport]) -> Vec<DetectionEvent> {
        let mut batch: Vec<&DetectionReport> = reports.iter().collect();
        batch.sort_by_key(|r| r.period);
        batch
            .into_iter()
            .filter_map(|report| self.ingest_one(report))
            .collect()
    }

    /// Ingests one report and returns the detection event it fires, if
    /// any: the step [`ingest`](StreamDetector::ingest) runs per report
    /// after sorting its batch.
    ///
    /// Reports must arrive in non-decreasing period order; one older than
    /// the [`frontier`](StreamDetector::frontier) is dropped and counted in
    /// [`StreamStats::reports_late`].
    pub fn ingest_one(&mut self, report: &DetectionReport) -> Option<DetectionEvent> {
        if report.period < self.frontier {
            self.stats.reports_late += 1;
            return None;
        }
        if report.period > self.frontier {
            self.frontier = report.period;
            // Entries whose chain start left the window fail the batch
            // window check against this and every later report.
            let m = self.config.m_periods;
            let before = self.entries.len();
            self.entries.retain(|e| report.period - e.first_period < m);
            self.stats.tracks_expired += (before - self.entries.len()) as u64;
        }
        // The batch DP's iteration `i` for this report: relax against every
        // earlier entry, strict-greater, keeping the predecessor's chain
        // start for the window check.
        let mut best_len = 1usize;
        let mut first_period = report.period;
        for entry in &self.entries {
            if entry.report.period > report.period {
                continue;
            }
            if !self.config.rule.compatible(&entry.report, report) {
                continue;
            }
            if report.period - entry.first_period >= self.config.m_periods {
                continue;
            }
            if entry.best_len + 1 > best_len {
                best_len = entry.best_len + 1;
                first_period = entry.first_period;
            }
        }
        self.stats.reports_ingested += 1;
        self.longest = self.longest.max(best_len);
        if self.entries.len() >= self.config.max_tracks {
            self.entries.pop_front();
            self.stats.tracks_evicted += 1;
        }
        self.entries.push_back(Entry {
            report: *report,
            best_len,
            first_period,
        });
        if best_len < self.config.k {
            return None;
        }
        let event = DetectionEvent {
            seq: self.next_seq,
            period: report.period,
            sensor: report.sensor,
            chain_len: best_len,
            first_period,
        };
        self.next_seq += 1;
        self.stats.events_emitted += 1;
        Some(event)
    }

    /// Longest feasible chain over every accepted report so far — equal to
    /// running the batch DP on the accepted prefix.
    pub fn longest_chain(&self) -> usize {
        self.longest
    }

    /// Whether a chain of ≥ `k` reports has formed (the group detection
    /// decision over the accepted prefix).
    pub fn detected(&self) -> bool {
        self.longest >= self.config.k
    }

    /// Number of live DP entries.
    pub fn live_tracks(&self) -> usize {
        self.entries.len()
    }

    /// Highest period ingested so far (0 before the first report).
    pub fn frontier(&self) -> usize {
        self.frontier
    }

    /// Lifetime counters.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch_oracle;
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

    /// One uncapped pass over `reports` (how the simulator runs the
    /// filter): the longest feasible chain the detector finds.
    pub(super) fn longest(reports: &[DetectionReport], rule: &TrackRule, m: usize) -> usize {
        let cfg = StreamConfig::new(*rule, 1, m).with_max_tracks(reports.len().max(1));
        let mut det = StreamDetector::new(cfg);
        det.ingest(reports);
        det.longest_chain()
    }

    #[test]
    fn true_track_fires_at_kth_report() {
        let mut det = StreamDetector::new(StreamConfig::new(rule(), 3, 20));
        let mut all_events = Vec::new();
        for p in 1..=6 {
            let events = det.ingest(&[report(p, p, 600.0 * p as f64, 100.0)]);
            if p < 3 {
                assert!(events.is_empty(), "no event before k reports");
            }
            all_events.extend(events);
        }
        assert_eq!(all_events[0].period, 3, "first event at the k-th period");
        assert_eq!(all_events[0].chain_len, 3);
        assert_eq!(all_events[0].first_period, 1);
        // Every subsequent report extends the chain, so it fires too.
        assert_eq!(all_events.len(), 4);
        assert_eq!(
            all_events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "deterministic monotone sequence numbers"
        );
        assert!(det.detected());
        assert_eq!(det.longest_chain(), 6);
    }

    #[test]
    fn scattered_false_alarms_do_not_fire() {
        let mut det = StreamDetector::new(StreamConfig::new(rule(), 3, 20));
        let reports = vec![
            report(1, 1, 0.0, 0.0),
            report(2, 2, 20_000.0, 0.0),
            report(3, 3, 0.0, 20_000.0),
            report(4, 4, 20_000.0, 20_000.0),
            report(5, 5, 10_000.0, 31_000.0),
        ];
        assert!(det.ingest(&reports).is_empty());
        assert!(!det.detected());
        assert_eq!(det.stats().reports_ingested, 5);
    }

    #[test]
    fn late_reports_are_dropped_and_counted() {
        let mut det = StreamDetector::new(StreamConfig::new(rule(), 2, 20));
        det.ingest(&[report(1, 5, 0.0, 0.0)]);
        let events = det.ingest(&[report(2, 3, 100.0, 0.0)]);
        assert!(events.is_empty());
        assert_eq!(det.stats().reports_late, 1);
        assert_eq!(det.stats().reports_ingested, 1);
        assert_eq!(det.live_tracks(), 1);
        // Same-period arrivals are not late.
        det.ingest(&[report(3, 5, 100.0, 0.0)]);
        assert_eq!(det.stats().reports_late, 1);
        assert!(det.detected());
    }

    #[test]
    fn window_expiry_reaps_stale_entries() {
        let mut det = StreamDetector::new(StreamConfig::new(rule(), 2, 5));
        det.ingest(&[report(1, 1, 0.0, 0.0)]);
        assert_eq!(det.live_tracks(), 1);
        // Period 6 puts the period-1 entry exactly M=5 periods behind.
        let events = det.ingest(&[report(2, 6, 100.0, 0.0)]);
        assert!(events.is_empty(), "expired entry must not chain");
        assert_eq!(det.live_tracks(), 1);
        assert_eq!(det.stats().tracks_expired, 1);
    }

    #[test]
    fn track_cap_evicts_oldest_and_counts() {
        let cfg = StreamConfig::new(rule(), 99, 20).with_max_tracks(3);
        let mut det = StreamDetector::new(cfg);
        for i in 0..5 {
            det.ingest(&[report(i, 1, 3000.0 * i as f64, 0.0)]);
        }
        assert_eq!(det.live_tracks(), 3);
        assert_eq!(det.stats().tracks_evicted, 2);
    }

    #[test]
    fn batch_ingest_sorts_by_period() {
        // Reports delivered out of order within one batch still chain.
        let mut det = StreamDetector::new(StreamConfig::new(rule(), 3, 20));
        let events = det.ingest(&[
            report(3, 3, 1800.0, 0.0),
            report(1, 1, 600.0, 0.0),
            report(2, 2, 1200.0, 0.0),
        ]);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].period, 3);
        assert_eq!(det.stats().reports_late, 0);
    }

    #[test]
    fn wrapped_rule_links_across_borders() {
        let cfg = StreamConfig::new(rule().with_wrap(32_000.0, 32_000.0), 2, 20);
        let mut det = StreamDetector::new(cfg);
        det.ingest(&[report(1, 1, 100.0, 0.0)]);
        let events = det.ingest(&[report(2, 1, 31_900.0, 0.0)]);
        assert_eq!(events.len(), 1, "200 m through the wrap must chain");
    }

    #[test]
    fn prefix_equality_with_batch_filter_on_fixed_sequence() {
        // A mixed true-track + clutter sequence, fed one report at a time:
        // after every prefix the incremental longest chain must equal the
        // batch DP on that prefix.
        let m = 6;
        let reports = vec![
            report(1, 1, 600.0, 100.0),
            report(2, 1, 25_000.0, 9_000.0),
            report(3, 2, 1200.0, 80.0),
            report(4, 3, 30_000.0, 2_000.0),
            report(5, 3, 1900.0, 150.0),
            report(6, 5, 3100.0, 60.0),
            report(7, 8, 4900.0, 120.0),
            report(8, 9, 15_000.0, 15_000.0),
            report(9, 9, 5500.0, 40.0),
        ];
        let mut det = StreamDetector::new(StreamConfig::new(rule(), 4, m));
        for prefix in 1..=reports.len() {
            det.ingest(&reports[prefix - 1..prefix]);
            let batch = batch_oracle::longest_feasible_chain(&reports[..prefix], &rule(), m);
            assert_eq!(det.longest_chain(), batch, "prefix {prefix}");
            let decision = batch_oracle::group_detects(&reports[..prefix], &rule(), 4, m);
            assert_eq!(det.detected(), decision, "prefix {prefix}");
        }
    }

    #[test]
    fn window_constraint_splits_long_sequences() {
        // 6 feasible reports but spread over 30 periods with window 5:
        // chains cannot span the window.
        let reports: Vec<_> = (0..6)
            .map(|i| report(i, 1 + i * 6, 100.0 * i as f64, 0.0))
            .collect();
        let longest = longest(&reports, &rule(), 5);
        assert!(longest <= 1, "got {longest}");
    }

    #[test]
    fn empty_and_small_inputs() {
        assert_eq!(longest(&[], &rule(), 20), 0);
        let mut det = StreamDetector::new(StreamConfig::new(rule(), 1, 20));
        assert!(det.ingest(&[]).is_empty());
        assert!(!det.detected());
        let one = [report(1, 1, 0.0, 0.0)];
        assert_eq!(longest(&one, &rule(), 20), 1);
        assert_eq!(det.ingest(&one).len(), 1);
        assert!(det.detected());
        let mut pair = StreamDetector::new(StreamConfig::new(rule(), 2, 20));
        pair.ingest(&one);
        assert!(!pair.detected());
    }

    #[test]
    fn stationary_rule_still_chains_repeat_reports() {
        // v_max = 0: only reports within 2·Rs chain (a loitering target
        // seen repeatedly by the same neighborhood).
        let r = TrackRule::new(0.0, 60.0, 1000.0);
        let reports = vec![
            report(1, 1, 0.0, 0.0),
            report(1, 2, 0.0, 0.0),
            report(2, 3, 1500.0, 0.0),
        ];
        assert_eq!(longest(&reports, &r, 20), 3);
    }

    #[test]
    fn chain_respects_period_ordering() {
        // Compatibility alone would allow hopping backwards; ordering by
        // period forbids it.
        let reports = vec![report(1, 3, 0.0, 0.0), report(2, 1, 100.0, 0.0)];
        assert_eq!(longest(&reports, &rule(), 20), 2);
        // Both orders in the input give the same answer (sorted on ingest).
        let rev = vec![reports[1], reports[0]];
        assert_eq!(longest(&rev, &rule(), 20), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::longest;
    use super::*;
    use crate::batch_oracle::longest_feasible_chain;
    use gbd_geometry::point::{Point, Vector};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For any period-sorted report sequence fed in arbitrary chunks,
        /// the incremental longest chain equals the batch DP on every
        /// chunk boundary prefix — the bit-identity the module docs claim.
        #[test]
        fn incremental_matches_batch_on_every_prefix(
            xs in proptest::collection::vec(
                (0.0f64..32_000.0, 0.0f64..32_000.0, 1usize..25), 1..30),
            chunk in 1usize..5,
            m in 2usize..10,
        ) {
            let rule = TrackRule::new(10.0, 60.0, 1000.0);
            let mut reports: Vec<DetectionReport> = xs
                .iter()
                .enumerate()
                .map(|(i, &(x, y, p))| {
                    DetectionReport::new(SensorId(i), p, Point::new(x, y), ReportKind::FalseAlarm)
                })
                .collect();
            reports.sort_by_key(|r| r.period);
            let mut det = StreamDetector::new(StreamConfig::new(rule, 3, m));
            let mut fed = 0;
            while fed < reports.len() {
                let end = (fed + chunk).min(reports.len());
                det.ingest(&reports[fed..end]);
                fed = end;
                let batch = longest_feasible_chain(&reports[..fed], &rule, m);
                prop_assert_eq!(det.longest_chain(), batch, "prefix {}", fed);
            }
            prop_assert_eq!(det.stats().reports_ingested as usize, reports.len());
            prop_assert_eq!(det.stats().reports_late, 0);
        }

        /// The public one-report step is `ingest`'s per-report work: on
        /// every prefix of a period-ordered report sequence, feeding it one
        /// report at a time through `ingest_one` and in bursts through
        /// `ingest` gives equal events, stats and longest chain, with
        /// expiry and eviction both in play.
        #[test]
        fn ingest_one_matches_ingest_on_every_prefix(
            xs in proptest::collection::vec(
                (0.0f64..32_000.0, 0.0f64..32_000.0, 1usize..25), 1..40),
            burst in 1usize..5,
            k in 1usize..5,
            m in 1usize..8,
            cap in 1usize..12,
        ) {
            let rule = TrackRule::new(10.0, 60.0, 1000.0);
            let mut reports: Vec<DetectionReport> = xs
                .iter()
                .enumerate()
                .map(|(i, &(x, y, p))| {
                    DetectionReport::new(SensorId(i), p, Point::new(x, y), ReportKind::FalseAlarm)
                })
                .collect();
            reports.sort_by_key(|r| r.period);
            let config = StreamConfig::new(rule, k, m).with_max_tracks(cap);
            let mut stepped = StreamDetector::new(config);
            let mut step_events = Vec::new();
            for fed in 1..=reports.len() {
                step_events.extend(stepped.ingest_one(&reports[fed - 1]));
                let mut batched = StreamDetector::new(config);
                let batch_events: Vec<DetectionEvent> = reports[..fed]
                    .chunks(burst)
                    .flat_map(|chunk| batched.ingest(chunk))
                    .collect();
                prop_assert_eq!(&step_events, &batch_events, "prefix {}", fed);
                prop_assert_eq!(stepped.stats(), batched.stats(), "prefix {}", fed);
                prop_assert_eq!(stepped.longest_chain(), batched.longest_chain());
            }
        }

        /// Expiry never changes the answer: a detector with expiry enabled
        /// (frontier advancing) agrees with the batch DP even when many
        /// entries are reaped along the way.
        #[test]
        fn expiry_is_lossless(
            xs in proptest::collection::vec(
                (0.0f64..32_000.0, 0.0f64..32_000.0), 1..25),
            m in 2usize..5,
        ) {
            let rule = TrackRule::new(10.0, 60.0, 1000.0);
            // Strictly increasing periods force an expiry pass per report.
            let reports: Vec<DetectionReport> = xs
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| {
                    DetectionReport::new(SensorId(i), i + 1, Point::new(x, y), ReportKind::FalseAlarm)
                })
                .collect();
            let mut det = StreamDetector::new(StreamConfig::new(rule, 2, m));
            for r in &reports {
                det.ingest(std::slice::from_ref(r));
            }
            let batch = longest_feasible_chain(&reports, &rule, m);
            prop_assert_eq!(det.longest_chain(), batch);
        }

        /// Reports generated within Rs of a straight constant-speed track
        /// always form one fully feasible chain: the filter never rejects a
        /// genuine target.
        #[test]
        fn true_track_reports_always_chain(
            heading in 0.0f64..std::f64::consts::TAU,
            speed in 1.0f64..12.0,
            offsets in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, 1usize..20), 2..25),
        ) {
            let rs = 1000.0;
            let period_s = 60.0;
            let dir = Vector::from_heading(heading);
            let reports: Vec<DetectionReport> = offsets
                .iter()
                .enumerate()
                .map(|(i, &(ox, oy, period))| {
                    // Sensor within Rs of the target's mid-period position.
                    let t = period as f64 - 0.5;
                    let on_track = Point::ORIGIN + dir * (speed * period_s * t);
                    let jitter = Vector::new(ox, oy) * (rs / 2.0_f64.sqrt() * 0.99);
                    DetectionReport::new(
                        SensorId(i),
                        period,
                        on_track + jitter,
                        ReportKind::TrueDetection,
                    )
                })
                .collect();
            let rule = TrackRule::new(speed, period_s, rs);
            prop_assert_eq!(longest(&reports, &rule, 20), reports.len(), "a true track must chain fully");
        }

        /// The longest feasible chain never exceeds the number of reports
        /// and is monotone under adding reports.
        #[test]
        fn chain_length_is_monotone_in_reports(
            xs in proptest::collection::vec((0.0f64..32_000.0, 0.0f64..32_000.0, 1usize..20), 1..20),
        ) {
            let rule = TrackRule::new(10.0, 60.0, 1000.0);
            let reports: Vec<DetectionReport> = xs
                .iter()
                .enumerate()
                .map(|(i, &(x, y, p))| {
                    DetectionReport::new(SensorId(i), p, Point::new(x, y), ReportKind::FalseAlarm)
                })
                .collect();
            let full = longest(&reports, &rule, 20);
            prop_assert!(full <= reports.len());
            let partial = longest(&reports[..reports.len() - 1], &rule, 20);
            prop_assert!(partial <= full, "removing a report grew the chain");
        }
    }
}
