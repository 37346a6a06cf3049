//! Parallel trial execution.
//!
//! Every campaign runner — [`run`], and the false-alarm runners in
//! [`crate::false_alarm`] — fans its trials out through
//! [`gbd_stats::pool::fan_out`], the process-wide pool the engine's
//! batches share, on up to [`SimConfig::threads`] participants, the calling
//! thread among them. Trial `i` always draws the stream `(seed, i)`, and
//! results come back in trial order, so no result depends on which thread
//! ran which trial.

use crate::config::SimConfig;
use crate::engine::{run_trial_in, TrialOutcome, TrialScratch};
use gbd_stats::interval::{wilson, ProportionInterval};
use gbd_stats::pool::{cores, fan_out};
use gbd_stats::summary::Summary;

/// Aggregated result of a simulation campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Number of trials executed.
    pub trials: u64,
    /// Trials in which at least `k` true reports were generated — the
    /// paper's detection criterion.
    pub detections: u64,
    /// `detections / trials`.
    pub detection_probability: f64,
    /// 95 % Wilson interval around the detection probability.
    pub confidence: ProportionInterval,
    /// Summary of the per-trial true-report counts.
    pub report_counts: Summary,
    /// Summary of the per-trial false-alarm counts (all zero when the
    /// false-alarm rate is zero).
    pub false_alarm_counts: Summary,
    /// Summary of the per-trial counts of reports suppressed by the
    /// configured [`crate::faults::FaultPlan`] (all zero without one).
    pub dropped_report_counts: Summary,
}

/// The per-trial facts the aggregation needs, detached from the heavy
/// [`TrialOutcome`](crate::engine::TrialOutcome) (its report list and
/// trajectory are dropped as soon as the trial finishes, so the
/// per-trial buffer stays a few dozen bytes per trial).
#[derive(Debug, Clone, Copy)]
struct TrialCounts {
    true_reports: usize,
    false_reports: usize,
    dropped_reports: usize,
}

/// The thread count `config.threads` asks for (0 = every core, read once
/// per process).
pub(crate) fn thread_count(config: &SimConfig) -> usize {
    if config.threads == 0 {
        cores()
    } else {
        config.threads
    }
}

/// The trial count as a fan-out length: the runners hold one result per
/// trial in memory, so it fits in a `usize`.
pub(crate) fn trial_count(config: &SimConfig) -> usize {
    usize::try_from(config.trials).expect("one result per trial fits in memory")
}

/// Runs `config.trials` independent trials, in parallel, and aggregates.
///
/// Results are a pure function of `config` without its thread count:
/// trial `i` uses the derived stream `(seed, i)` regardless of which
/// thread executes it, and the aggregation pushes every trial into one
/// summary in trial order, so the result is byte-stable across runs and
/// thread counts even though the *execution* order is work-stealing.
pub fn run(config: &SimConfig) -> SimResult {
    // One TrialScratch per participant: the field's position, index, and
    // query buffers are recycled across every trial it claims, so the
    // steady-state campaign allocates only each trial's report list.
    run_with(config, || {
        let mut scratch = TrialScratch::new();
        move |cfg: &SimConfig, trial: u64| run_trial_in(cfg, trial, &mut scratch)
    })
}

/// [`run`] with a caller-supplied trial function. `make_worker` is called
/// once per participating thread; the returned closure runs every trial
/// that thread claims, so it can own per-thread state (arenas, instrumentation,
/// an alternative engine). The aggregation is the same trial-order
/// reduction, so two workers that produce byte-identical
/// [`TrialOutcome`]s produce byte-identical [`SimResult`]s.
pub fn run_with<W, F>(config: &SimConfig, make_worker: F) -> SimResult
where
    F: Fn() -> W + Sync,
    W: FnMut(&SimConfig, u64) -> TrialOutcome,
{
    let trials = config.trials;
    let k = config.params.k();
    let counts = fan_out(trial_count(config), thread_count(config), || {
        let mut worker = make_worker();
        move |trial| {
            let out = worker(config, trial as u64);
            TrialCounts {
                true_reports: out.true_reports,
                false_reports: out.false_reports,
                dropped_reports: out.dropped_reports,
            }
        }
    });

    // Aggregation in trial order, whatever thread ran each trial.
    let mut detections = 0u64;
    let mut report_counts = Summary::new();
    let mut false_alarm_counts = Summary::new();
    let mut dropped_report_counts = Summary::new();
    for out in &counts {
        if out.true_reports >= k {
            detections += 1;
        }
        report_counts.push(out.true_reports as f64);
        false_alarm_counts.push(out.false_reports as f64);
        dropped_report_counts.push(out.dropped_reports as f64);
    }
    let confidence = wilson(detections, trials, 1.96).expect("trials > 0 by construction");
    SimResult {
        trials,
        detections,
        detection_probability: detections as f64 / trials as f64,
        confidence,
        report_counts,
        false_alarm_counts,
        dropped_report_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbd_core::params::SystemParams;

    fn small_config() -> SimConfig {
        SimConfig::new(SystemParams::paper_defaults())
            .with_trials(300)
            .with_seed(42)
    }

    #[test]
    fn result_is_thread_count_invariant() {
        let one = run(&small_config().with_threads(1));
        let four = run(&small_config().with_threads(4));
        assert_eq!(one, four);
    }

    #[test]
    fn work_stealing_schedule_does_not_leak_into_results() {
        // Repeated multi-threaded runs race differently over the shared
        // counter, but the replayed fixed-chunk reduction must make every
        // field — including the merged Welford moments — byte-stable.
        let cfg = small_config().with_threads(3);
        let a = run(&cfg);
        for _ in 0..3 {
            assert_eq!(a, run(&cfg));
        }
    }

    #[test]
    fn result_is_seed_deterministic() {
        let a = run(&small_config());
        let b = run(&small_config());
        assert_eq!(a, b);
        let c = run(&small_config().with_seed(43));
        assert_ne!(a.detections, c.detections);
    }

    #[test]
    fn probability_and_interval_consistent() {
        let r = run(&small_config());
        assert!(
            (r.detection_probability - r.detections as f64 / r.trials as f64).abs() < 1e-15
        );
        assert!(r.confidence.contains(r.detection_probability));
        assert_eq!(r.report_counts.count(), r.trials);
    }

    #[test]
    fn zero_pd_never_detects() {
        let cfg = SimConfig::new(SystemParams::paper_defaults().with_pd(0.0))
            .with_trials(50)
            .with_seed(1);
        let r = run(&cfg);
        assert_eq!(r.detections, 0);
        assert_eq!(r.report_counts.max(), 0.0);
    }

    #[test]
    fn faults_degrade_detection_and_are_counted() {
        use crate::faults::FaultPlan;
        let clean = run(&small_config());
        assert_eq!(clean.dropped_report_counts.max(), 0.0);
        let faulted = run(&small_config().with_faults(
            FaultPlan::new(13)
                .with_node_failure_rate(0.3)
                .with_report_drop_rate(0.2),
        ));
        assert!(faulted.dropped_report_counts.mean() > 0.0);
        assert!(
            faulted.detection_probability < clean.detection_probability,
            "faults must hurt: {} vs {}",
            faulted.detection_probability,
            clean.detection_probability
        );
        // Campaign-level determinism under faults.
        assert_eq!(
            faulted,
            run(&small_config().with_faults(
                FaultPlan::new(13)
                    .with_node_failure_rate(0.3)
                    .with_report_drop_rate(0.2),
            ))
        );
    }

    #[test]
    fn campaign_is_bit_identical_to_the_nested_grid_oracle() {
        use crate::engine::oracle_support::run_trial_oracle;
        // The CSR field, the focused rebuild, the per-worker arenas, and
        // the allocation-free query path must not change a single bit of
        // any SimResult: replay whole campaigns through the retained
        // pre-CSR engine and compare, at the paper's defaults and at
        // N = 10^4 sensors, across thread counts.
        let paper = SimConfig::new(SystemParams::paper_defaults())
            .with_trials(64)
            .with_seed(0x1D);
        let large = SimConfig::new(SystemParams::paper_defaults().with_n_sensors(10_000))
            .with_trials(32)
            .with_seed(0x1D);
        for cfg in [paper, large] {
            for threads in [1usize, 2, 4] {
                let cfg = cfg.clone().with_threads(threads);
                let new = run(&cfg);
                let oracle = run_with(&cfg, || run_trial_oracle);
                assert_eq!(new, oracle, "threads {threads}");
                // PartialEq on f64 fields is exact, but make byte-level
                // intent explicit: the printed representation (every bit
                // of every float) matches too.
                assert_eq!(
                    format!("{new:?}"),
                    format!("{oracle:?}"),
                    "threads {threads}"
                );
            }
        }
    }

    #[test]
    fn more_sensors_more_detections() {
        let lo = run(
            &SimConfig::new(SystemParams::paper_defaults().with_n_sensors(60))
                .with_trials(400)
                .with_seed(7),
        );
        let hi = run(
            &SimConfig::new(SystemParams::paper_defaults().with_n_sensors(240))
                .with_trials(400)
                .with_seed(7),
        );
        assert!(hi.detection_probability > lo.detection_probability);
    }
}
