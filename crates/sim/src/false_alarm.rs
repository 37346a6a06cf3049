//! False-alarm experiments.
//!
//! The paper's analysis excludes false alarms, arguing (§2) that mixing
//! them in "only increases the probability of the real target being
//! detected", and (§1) that group based detection filters system-level
//! false alarms because noise rarely lines up along a feasible track.
//! These runners make both claims measurable. Target-present and
//! no-target trials deploy through the same code and draw their noise
//! from the engine's one false-alarm sampler (geometric skip-ahead over
//! the `N × M` sensor-period grid, at `false_alarm_rate ×
//! awake_probability` per slot).

use crate::config::SimConfig;
use crate::engine::{deploy_sensors, inject_false_alarms, run_trial_in, TrialScratch};
use crate::group_filter::{group_detects, TrackRule};
use crate::runner::{thread_count, trial_count};
use gbd_geometry::point::Aabb;
use gbd_stats::interval::{wilson, ProportionInterval};
use gbd_stats::pool::fan_out;
use gbd_stats::rng::rng_stream;

/// The track rule matching a simulation config: the target's speed as
/// `v_max`, wrapping distances when the simulation runs on a torus.
fn track_rule(config: &SimConfig) -> TrackRule {
    let params = &config.params;
    let rule = TrackRule::new(params.speed(), params.period_s(), params.sensing_range());
    match config.boundary {
        crate::config::BoundaryPolicy::Torus => {
            rule.with_wrap(params.field_width(), params.field_height())
        }
        crate::config::BoundaryPolicy::Bounded => rule,
    }
}

/// Result of target-present trials evaluated with the track filter.
#[derive(Debug, Clone, PartialEq)]
pub struct FilteredSimResult {
    /// Trials executed.
    pub trials: u64,
    /// Detections counting only true reports (the analysis criterion).
    pub detections_true_only: u64,
    /// Detections by the track filter over true + false reports (what a
    /// deployed system would report).
    pub detections_filtered: u64,
    /// 95 % Wilson interval for the filtered detection probability.
    pub confidence_filtered: ProportionInterval,
}

/// Runs target-present trials with false alarms injected and the track
/// filter applied, in parallel on [`SimConfig::threads`] workers. The
/// result is a count, so it is the same at every thread count.
///
/// Demonstrates the §2 claim: `detections_filtered >=
/// detections_true_only`, because extra reports can only extend feasible
/// chains.
pub fn run_with_filter(config: &SimConfig) -> FilteredSimResult {
    let params = &config.params;
    let rule = track_rule(config);
    let (k, m) = (params.k(), params.m_periods());
    let per_trial = fan_out(trial_count(config), thread_count(config), || {
        let mut scratch = TrialScratch::new();
        move |trial| {
            let out = run_trial_in(config, trial as u64, &mut scratch);
            (out.detected(k), group_detects(&out.reports, &rule, k, m))
        }
    });
    let detections_true_only = per_trial
        .iter()
        .filter(|&&(true_only, _)| true_only)
        .count() as u64;
    let detections_filtered =
        per_trial.iter().filter(|&&(_, filtered)| filtered).count() as u64;
    FilteredSimResult {
        trials: config.trials,
        detections_true_only,
        detections_filtered,
        confidence_filtered: wilson(detections_filtered, config.trials, 1.96)
            .expect("trials > 0"),
    }
}

/// Result of no-target trials: the system-level false alarm rates.
#[derive(Debug, Clone, PartialEq)]
pub struct NoTargetResult {
    /// Trials executed.
    pub trials: u64,
    /// Trials where naive counting (any `k` reports in the window) would
    /// raise a system alarm.
    pub naive_alarms: u64,
    /// Trials where the track filter raises a system alarm (a feasible
    /// chain of `k` noise reports existed).
    pub filtered_alarms: u64,
    /// Mean number of node-level false alarms per trial.
    pub mean_false_reports: f64,
}

/// Runs trials with **no target**: all reports are noise. Compares the
/// naive count-based rule with the track filter — the measured version of
/// the paper's motivation for group based detection. Each trial deploys
/// `config.deployment` through the same code as a target-present trial,
/// then draws its noise; with no target there are no sensing queries, so
/// no spatial index is built.
pub fn run_no_target(config: &SimConfig) -> NoTargetResult {
    let params = &config.params;
    let rule = track_rule(config);
    let (k, m) = (params.k(), params.m_periods());
    let extent = Aabb::from_extent(params.field_width(), params.field_height());
    let per_trial = fan_out(trial_count(config), thread_count(config), || {
        let mut positions = Vec::new();
        let mut reports = Vec::new();
        move |trial| {
            let trial = trial as u64;
            let mut rng = rng_stream(config.seed, trial);
            positions.clear();
            deploy_sensors(config, &extent, &mut rng, &mut positions);
            reports.clear();
            let injected =
                inject_false_alarms(config, trial, &positions, &mut rng, &mut reports);
            (injected, group_detects(&reports, &rule, k, m))
        }
    });
    let naive_alarms = per_trial
        .iter()
        .filter(|&&(injected, _)| injected >= k)
        .count() as u64;
    let filtered_alarms = per_trial.iter().filter(|&&(_, filtered)| filtered).count() as u64;
    let total_false: u64 = per_trial.iter().map(|&(injected, _)| injected as u64).sum();
    NoTargetResult {
        trials: config.trials,
        naive_alarms,
        filtered_alarms,
        mean_false_reports: total_false as f64 / config.trials as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbd_core::params::SystemParams;

    #[test]
    fn false_alarms_only_help_detection() {
        let cfg = SimConfig::new(SystemParams::paper_defaults().with_n_sensors(120))
            .with_trials(120)
            .with_seed(3)
            .with_false_alarm_rate(0.002);
        let r = run_with_filter(&cfg);
        assert!(r.detections_filtered >= r.detections_true_only);
    }

    #[test]
    fn filter_passes_true_tracks_without_noise() {
        // With no false alarms, the filter must agree with plain counting:
        // true reports always form a feasible chain.
        let cfg = SimConfig::new(SystemParams::paper_defaults())
            .with_trials(100)
            .with_seed(9);
        let r = run_with_filter(&cfg);
        assert_eq!(r.detections_filtered, r.detections_true_only);
    }

    #[test]
    fn filter_suppresses_noise_alarms() {
        // High node-level false alarm rate: naive counting alarms on nearly
        // every trial; the track filter on far fewer.
        let cfg = SimConfig::new(SystemParams::paper_defaults())
            .with_trials(60)
            .with_seed(17)
            .with_false_alarm_rate(0.002);
        let r = run_no_target(&cfg);
        // 240 sensors x 20 periods x 0.002 ≈ 9.6 false reports per trial.
        assert!(r.mean_false_reports > 5.0);
        assert!(
            r.naive_alarms > r.trials * 9 / 10,
            "naive={}",
            r.naive_alarms
        );
        assert!(r.filtered_alarms < r.naive_alarms, "filter did not help");
    }

    #[test]
    fn no_target_trials_deploy_the_configured_layout() {
        use crate::config::DeploymentSpec;
        // One period and k = 2: an alarm needs two misfiring sensors whose
        // same-period reach (V·t + 2·Rs = 2.6 km) overlaps. A perfect 8 × 8
        // grid on 32 km has a 4 km pitch, so it can never alarm; uniform
        // placement leaves close pairs in most trials.
        let base = SimConfig::new(
            SystemParams::paper_defaults()
                .with_n_sensors(64)
                .with_m_periods(1)
                .with_k(2),
        )
        .with_trials(50)
        .with_seed(3)
        .with_false_alarm_rate(0.2);
        let uniform = run_no_target(&base);
        let grid = run_no_target(&base.with_deployment(DeploymentSpec::Grid { jitter: 0.0 }));
        assert!(uniform.filtered_alarms > 10, "{uniform:?}");
        assert_eq!(grid.filtered_alarms, 0, "{grid:?}");
        assert!(grid.mean_false_reports > 5.0, "{grid:?}");
    }

    #[test]
    fn filtered_and_no_target_results_do_not_depend_on_the_thread_count() {
        // Noise at N = 120 and rate 0.002: some trials detect (or alarm)
        // and some do not, so a lost, repeated or misattributed trial
        // would move a count. Repeated runs at 3 threads race differently
        // over the shared trial counter.
        let mut filtered_alarms = 0;
        for k in [3, 4, 6] {
            let base =
                SimConfig::new(SystemParams::paper_defaults().with_n_sensors(120).with_k(k))
                    .with_trials(150)
                    .with_seed(23)
                    .with_false_alarm_rate(0.002);
            let filtered = run_with_filter(&base.clone().with_threads(1));
            let quiet = run_no_target(&base.clone().with_threads(1));
            let trials = base.trials;
            assert!(
                0 < filtered.detections_filtered && filtered.detections_filtered < trials,
                "{filtered:?}"
            );
            assert!(
                0 < quiet.naive_alarms && quiet.naive_alarms < trials,
                "{quiet:?}"
            );
            filtered_alarms += quiet.filtered_alarms;
            for threads in [1, 2, 3, 3, 3, 0] {
                let cfg = base.clone().with_threads(threads);
                let (f, q) = (run_with_filter(&cfg), run_no_target(&cfg));
                assert_eq!(f, filtered, "k {k}, threads {threads}");
                assert_eq!(format!("{f:?}"), format!("{filtered:?}"));
                assert_eq!(q, quiet, "k {k}, threads {threads}");
                assert_eq!(format!("{q:?}"), format!("{quiet:?}"));
            }
        }
        assert!(filtered_alarms > 0, "no no-target trial alarmed");
    }

    #[test]
    fn no_noise_no_alarms() {
        let cfg = SimConfig::new(SystemParams::paper_defaults())
            .with_trials(20)
            .with_seed(1);
        let r = run_no_target(&cfg);
        assert_eq!(r.naive_alarms, 0);
        assert_eq!(r.filtered_alarms, 0);
        assert_eq!(r.mean_false_reports, 0.0);
    }
}
