//! The per-trial simulation engine.
//!
//! One trial reproduces the paper's §4 procedure: "we randomly generate all
//! nodes' locations and also randomly choose the starting location and
//! moving direction of the target. For each sensing period, we compute the
//! geographical region the moving target passes and compare that with the
//! locations of all sensor nodes" — each covered sensor then reports with
//! probability `Pd`.

use crate::config::{DeploymentSpec, MotionSpec, SimConfig};
use crate::reports::{DetectionReport, ReportKind};
use gbd_field::deployment::{Deployer, JitteredGrid, UniformRandom};
use gbd_field::field::{BoundaryPolicy, SensorField};
use gbd_field::sensor::SensorId;
use gbd_geometry::point::{Aabb, Point};
use gbd_motion::random_walk::RandomWalk;
use gbd_motion::straight::StraightLine;
use gbd_motion::trajectory::{MotionModel, Trajectory};
use gbd_motion::varying_speed::VaryingSpeed;
use gbd_stats::rng::{rng_stream, Rng};
use rand::Rng as _;

/// Everything observable from a single trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// All reports, true detections and false alarms, in period order.
    pub reports: Vec<DetectionReport>,
    /// Number of true-detection reports.
    pub true_reports: usize,
    /// Number of false-alarm reports.
    pub false_reports: usize,
    /// True detections suppressed by the [`crate::faults::FaultPlan`]
    /// (dead node or dropped report); always 0 without one.
    pub dropped_reports: usize,
    /// The target trajectory of this trial.
    pub trajectory: Trajectory,
}

impl TrialOutcome {
    /// The paper's detection criterion: at least `k` *true* reports within
    /// the `M`-period window (false alarms excluded, as in the analysis).
    pub fn detected(&self, k: usize) -> bool {
        self.true_reports >= k
    }

    /// The first period (1-based) by whose end `k` true reports had been
    /// generated; `None` if the window never reaches `k`. This is the
    /// simulated first-passage time validated against
    /// `gbd-core::time_to_detection`.
    pub fn first_detection_period(&self, k: usize) -> Option<usize> {
        if k == 0 {
            return Some(0);
        }
        let mut count = 0usize;
        for r in self.reports.iter().filter(|r| r.is_true_detection()) {
            count += 1;
            if count == k {
                return Some(r.period);
            }
        }
        None
    }

    /// Naive counting over all reports (true + false): what a base station
    /// without track filtering would conclude.
    pub fn detected_naive(&self, k: usize) -> bool {
        self.true_reports + self.false_reports >= k
    }
}

/// Reusable per-worker buffers for [`run_trial_in`]: the sensor field
/// (positions, CSR index, build scratch) and the query-hit buffer. A
/// warm scratch makes the whole per-trial loop allocation-free apart from
/// the outcome's report list.
#[derive(Debug, Clone)]
pub struct TrialScratch {
    field: SensorField,
    hits: Vec<SensorId>,
}

impl TrialScratch {
    /// Creates an empty (cold) scratch.
    pub fn new() -> Self {
        TrialScratch {
            field: SensorField::new(
                Aabb::from_extent(1.0, 1.0),
                Vec::new(),
                BoundaryPolicy::Bounded,
            ),
            hits: Vec::new(),
        }
    }
}

impl Default for TrialScratch {
    fn default() -> Self {
        TrialScratch::new()
    }
}

/// Runs a single trial. Deterministic in `(config.seed, trial_index)`.
pub fn run_trial(config: &SimConfig, trial_index: u64) -> TrialOutcome {
    run_trial_in(config, trial_index, &mut TrialScratch::new())
}

/// Runs a single trial inside a reusable [`TrialScratch`]. Identical in
/// every byte of output to [`run_trial`] — the scratch only recycles
/// buffers between trials.
pub fn run_trial_in(
    config: &SimConfig,
    trial_index: u64,
    scratch: &mut TrialScratch,
) -> TrialOutcome {
    let mut rng = rng_stream(config.seed, trial_index);
    let params = &config.params;
    let extent = Aabb::from_extent(params.field_width(), params.field_height());
    let TrialScratch { field, hits } = scratch;

    // Deployment and target track, drawn in the fixed stream order
    // (positions, then start, then heading, then per-period motion), then
    // indexed focused on the track corridor: the field only grids the
    // sensors inside the union of the M Detectable-Region bounding boxes,
    // which is all the sensing loop below ever queries. The index build
    // consumes no randomness, so focusing cannot shift the RNG stream.
    let rng_ref = &mut rng;
    let trajectory = field.rebuild_focused(extent, config.boundary, move |buf| {
        deploy_sensors(config, &extent, rng_ref, buf);
        let start = Point::new(
            rng_ref.gen_range(extent.min.x..extent.max.x),
            rng_ref.gen_range(extent.min.y..extent.max.y),
        );
        let heading = rng_ref.gen_range(0.0..std::f64::consts::TAU);
        let trajectory = generate_trajectory(config, start, heading, rng_ref);
        let mut focus = Aabb {
            min: start,
            max: start,
        };
        for period in 1..=params.m_periods() {
            let dr = trajectory.detectable_region(period, params.sensing_range());
            focus = focus.union(&dr.bounding_box());
        }
        (focus, trajectory)
    });

    // Sensing: per period, every covered *awake* sensor flips a Pd coin.
    // Duty cycling composes multiplicatively with Pd, which the tests
    // exploit to validate against the analysis at pd' = pd * p_awake.
    //
    // Faults are hashed from (plan seed, trial, sensor, period), never
    // drawn from `rng`, and suppress a report only *after* its coins are
    // flipped — the RNG stream stays aligned with the fault-free run, so
    // a faulted trial's reports are exactly a subset of the fault-free
    // trial's.
    let faults = config.faults.filter(|f| !f.is_inert());
    let mut reports = Vec::new();
    let mut true_reports = 0;
    let mut dropped_reports = 0;
    for period in 1..=params.m_periods() {
        let dr = trajectory.detectable_region(period, params.sensing_range());
        field.query_stadium_into(&dr, hits);
        for &id in hits.iter() {
            if config.awake_probability < 1.0 && !rng.gen_bool(config.awake_probability) {
                continue;
            }
            if rng.gen_bool(params.pd()) {
                if let Some(plan) = &faults {
                    if plan.node_failed(trial_index, id.0)
                        || plan.report_dropped(trial_index, id.0, period)
                    {
                        dropped_reports += 1;
                        continue;
                    }
                }
                reports.push(DetectionReport::new(
                    id,
                    period,
                    field.sensor(id).pos,
                    ReportKind::TrueDetection,
                ));
                true_reports += 1;
            }
        }
    }

    // Optional noise: node-level false alarms, independent per
    // sensor-period. A dead node cannot misfire either, but report drops
    // do not apply (dropping noise is indistinguishable from less noise).
    let false_reports = inject_false_alarms(
        config,
        trial_index,
        field.positions(),
        &mut rng,
        &mut reports,
    );
    if false_reports > 0 {
        reports.sort_by_key(|r| r.period);
    }

    TrialOutcome {
        reports,
        true_reports,
        false_reports,
        dropped_reports,
        trajectory,
    }
}

/// Appends the configured deployment's `N` sensor positions to `out`: the
/// one place a [`DeploymentSpec`] becomes positions, shared by target and
/// no-target trials.
pub(crate) fn deploy_sensors(
    config: &SimConfig,
    extent: &Aabb,
    rng: &mut Rng,
    out: &mut Vec<Point>,
) {
    let n = config.params.n_sensors();
    match config.deployment {
        DeploymentSpec::UniformRandom => UniformRandom.deploy_into(n, extent, rng, out),
        DeploymentSpec::Grid { jitter } => {
            JitteredGrid::new(jitter).deploy_into(n, extent, rng, out)
        }
    }
}

fn generate_trajectory(
    config: &SimConfig,
    start: Point,
    heading: f64,
    rng: &mut Rng,
) -> Trajectory {
    let params = &config.params;
    match config.motion {
        MotionSpec::Straight => StraightLine::new(params.speed()).generate(
            start,
            heading,
            params.period_s(),
            params.m_periods(),
            rng,
        ),
        MotionSpec::RandomWalk { max_turn } => RandomWalk::new(params.speed(), max_turn)
            .generate(start, heading, params.period_s(), params.m_periods(), rng),
        MotionSpec::VaryingSpeed { v_min, v_max } => VaryingSpeed::new(v_min, v_max).generate(
            start,
            heading,
            params.period_s(),
            params.m_periods(),
            rng,
        ),
    }
}

/// Adds a trial's node-level false alarms for sensors at `positions` and
/// returns how many were injected.
///
/// Every sensor-period misfires independently with probability
/// `false_alarm_rate × awake_probability` (a sleeping sensor cannot
/// misfire), so a trial's count is `Binomial(N·M, rate)` — the window
/// noise law of the §6 bound on `k`. The sampler walks the period-major
/// `N × M` grid by geometric skip-ahead: the gap to the next firing slot
/// is `floor(ln U / ln(1 − rate))`, so the cost is one draw per alarm,
/// not one per slot. A zero rate draws nothing.
///
/// A dead node's misfires are suppressed after their slot is drawn, so
/// the RNG stream is the same with and without a fault plan.
pub(crate) fn inject_false_alarms(
    config: &SimConfig,
    trial_index: u64,
    positions: &[Point],
    rng: &mut Rng,
    reports: &mut Vec<DetectionReport>,
) -> usize {
    let rate = config.false_alarm_rate * config.awake_probability;
    let n = positions.len() as u64;
    let total = config.params.m_periods() as u64 * n;
    if rate <= 0.0 || total == 0 {
        return 0;
    }
    // ln(1 - 1.0) = -inf makes every skip 0, so rate = 1 needs no special
    // case: every slot fires.
    let ln_q = (1.0 - rate).ln();
    let mut injected = 0;
    let mut idx: u64 = 0;
    loop {
        // U in (0, 1]: 1 - gen::<f64>() avoids ln(0).
        let u = 1.0 - rng.gen::<f64>();
        let skip = (u.ln() / ln_q).floor();
        // NaN-safe: an over-large or non-finite skip means no further
        // slot fires.
        if !skip.is_finite() || skip >= (total - idx) as f64 {
            break;
        }
        idx += skip as u64;
        let sensor = (idx % n) as usize;
        let dead = config
            .faults
            .as_ref()
            .is_some_and(|plan| plan.node_failed(trial_index, sensor));
        if !dead {
            reports.push(DetectionReport::new(
                SensorId(sensor),
                (idx / n) as usize + 1,
                positions[sensor],
                ReportKind::FalseAlarm,
            ));
            injected += 1;
        }
        idx += 1;
        if idx >= total {
            break;
        }
    }
    injected
}

#[cfg(test)]
pub(crate) mod oracle_support {
    //! The pre-CSR trial loop, replayed verbatim over the nested-`Vec`
    //! [`NestedGridField`] (`tests/nested_grid_oracle`) — the reference
    //! side of the engine's and the runner's bit-identity tests. Every RNG
    //! draw, query, and report push happens in exactly the order the
    //! engine shipped with before the CSR rewrite. False alarms come from
    //! the production sampler: the oracle pins the field, not the sampler.
    use super::*;
    use crate::nested_grid_oracle::NestedGridField;

    /// The engine's pre-CSR `run_trial`, byte for byte.
    pub(crate) fn run_trial_oracle(config: &SimConfig, trial_index: u64) -> TrialOutcome {
        let mut rng = rng_stream(config.seed, trial_index);
        let params = &config.params;
        let extent = Aabb::from_extent(params.field_width(), params.field_height());

        let positions = match config.deployment {
            DeploymentSpec::UniformRandom => {
                UniformRandom.deploy(params.n_sensors(), &extent, &mut rng)
            }
            DeploymentSpec::Grid { jitter } => {
                JitteredGrid::new(jitter).deploy(params.n_sensors(), &extent, &mut rng)
            }
        };
        let field = NestedGridField::new(extent, positions, config.boundary);

        let start = Point::new(
            rng.gen_range(extent.min.x..extent.max.x),
            rng.gen_range(extent.min.y..extent.max.y),
        );
        let heading = rng.gen_range(0.0..std::f64::consts::TAU);
        let trajectory = generate_trajectory(config, start, heading, &mut rng);

        let faults = config.faults.filter(|f| !f.is_inert());
        let mut reports = Vec::new();
        let mut true_reports = 0;
        let mut dropped_reports = 0;
        for period in 1..=params.m_periods() {
            let dr = trajectory.detectable_region(period, params.sensing_range());
            for id in field.query_stadium(&dr) {
                if config.awake_probability < 1.0 && !rng.gen_bool(config.awake_probability) {
                    continue;
                }
                if rng.gen_bool(params.pd()) {
                    if let Some(plan) = &faults {
                        if plan.node_failed(trial_index, id.0)
                            || plan.report_dropped(trial_index, id.0, period)
                        {
                            dropped_reports += 1;
                            continue;
                        }
                    }
                    reports.push(DetectionReport::new(
                        id,
                        period,
                        field.sensor(id).pos,
                        ReportKind::TrueDetection,
                    ));
                    true_reports += 1;
                }
            }
        }

        // Noise: the one production sampler over the oracle's positions.
        let positions: Vec<Point> = field.sensors().iter().map(|s| s.pos).collect();
        let false_reports =
            inject_false_alarms(config, trial_index, &positions, &mut rng, &mut reports);
        if false_reports > 0 {
            reports.sort_by_key(|r| r.period);
        }

        TrialOutcome {
            reports,
            true_reports,
            false_reports,
            dropped_reports,
            trajectory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbd_core::params::SystemParams;

    fn config() -> SimConfig {
        SimConfig::new(SystemParams::paper_defaults()).with_trials(10)
    }

    #[test]
    fn trial_is_deterministic() {
        let c = config();
        let a = run_trial(&c, 3);
        let b = run_trial(&c, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn different_trials_differ() {
        let c = config();
        let a = run_trial(&c, 0);
        let b = run_trial(&c, 1);
        assert_ne!(a.trajectory, b.trajectory);
    }

    #[test]
    fn reports_lie_on_track() {
        // Every true report's sensor must be within Rs of the period's
        // segment (modulo the torus wrap).
        let c = config().with_seed(11);
        for trial in 0..5 {
            let out = run_trial(&c, trial);
            let rs = c.params.sensing_range();
            let w = c.params.field_width();
            let h = c.params.field_height();
            for r in &out.reports {
                let seg = out.trajectory.segment(r.period);
                let mut min_d = f64::INFINITY;
                for ix in -1..=1i32 {
                    for iy in -1..=1i32 {
                        let img = Point::new(
                            r.position.x + ix as f64 * w,
                            r.position.y + iy as f64 * h,
                        );
                        min_d = min_d.min(seg.distance_to(img));
                    }
                }
                assert!(min_d <= rs + 1e-9, "report off-track: {min_d}");
            }
        }
    }

    #[test]
    fn pd_zero_produces_no_reports() {
        let c = SimConfig::new(SystemParams::paper_defaults().with_pd(0.0)).with_trials(1);
        let out = run_trial(&c, 0);
        assert_eq!(out.true_reports, 0);
        assert!(!out.detected(1));
    }

    #[test]
    fn counts_are_consistent() {
        let c = config().with_false_alarm_rate(0.001).with_seed(5);
        let out = run_trial(&c, 2);
        assert_eq!(out.reports.len(), out.true_reports + out.false_reports);
        let trues = out.reports.iter().filter(|r| r.is_true_detection()).count();
        assert_eq!(trues, out.true_reports);
    }

    #[test]
    fn naive_detection_includes_false_alarms() {
        let c = config().with_false_alarm_rate(0.05).with_seed(6);
        let out = run_trial(&c, 1);
        assert!(out.false_reports > 0, "expected some false alarms at 5%");
        assert!(out.detected_naive(1));
    }

    #[test]
    fn faulted_reports_are_a_subset_of_fault_free() {
        use crate::faults::FaultPlan;
        let clean = config().with_seed(12);
        let faulted = clean.clone().with_faults(
            FaultPlan::new(77)
                .with_node_failure_rate(0.2)
                .with_report_drop_rate(0.1),
        );
        let mut any_dropped = false;
        for trial in 0..10 {
            let a = run_trial(&clean, trial);
            let b = run_trial(&faulted, trial);
            // Identical trajectory: faults never touch the RNG stream.
            assert_eq!(a.trajectory, b.trajectory);
            // Surviving reports are exactly the fault-free reports minus
            // the suppressed ones.
            assert!(b.reports.iter().all(|r| a.reports.contains(r)));
            assert_eq!(
                b.true_reports + b.dropped_reports,
                a.true_reports,
                "trial {trial}"
            );
            any_dropped |= b.dropped_reports > 0;
            // And the faulted run is itself deterministic.
            assert_eq!(b, run_trial(&faulted, trial));
        }
        assert!(any_dropped, "rates this high must suppress something");
    }

    #[test]
    fn inert_fault_plan_changes_nothing() {
        let clean = config().with_seed(3);
        let inert = clean.clone().with_faults(crate::faults::FaultPlan::new(9));
        assert_eq!(inert.faults, None);
        assert_eq!(run_trial(&clean, 0), run_trial(&inert, 0));
    }

    #[test]
    fn dead_nodes_do_not_misfire() {
        use crate::faults::FaultPlan;
        let clean = config().with_seed(21).with_false_alarm_rate(0.05);
        let faulted = clean
            .clone()
            .with_faults(FaultPlan::new(5).with_node_failure_rate(0.5));
        let a = run_trial(&clean, 4);
        let b = run_trial(&faulted, 4);
        assert!(
            b.false_reports < a.false_reports,
            "{} vs {}",
            b.false_reports,
            a.false_reports
        );
        assert!(b.reports.iter().all(|r| a.reports.contains(r)));
    }

    #[test]
    fn varying_speed_trial_runs() {
        let c = config().with_motion(MotionSpec::VaryingSpeed {
            v_min: 4.0,
            v_max: 10.0,
        });
        let out = run_trial(&c, 0);
        assert_eq!(out.trajectory.periods(), 20);
        for s in out.trajectory.step_lengths() {
            assert!((240.0 - 1e-6..=600.0 + 1e-6).contains(&s));
        }
    }

    #[test]
    fn trial_matches_the_nested_grid_oracle_bit_for_bit() {
        use crate::faults::FaultPlan;
        // Every knob that touches the per-trial loop: boundary policy,
        // deployment, motion, duty cycling, noise, faults.
        let configs = [
            config(),
            config().with_boundary(crate::config::BoundaryPolicy::Bounded),
            config().with_deployment(DeploymentSpec::Grid { jitter: 0.3 }),
            config().with_paper_random_walk(),
            config().with_awake_probability(0.6),
            config().with_false_alarm_rate(0.01),
            config().with_false_alarm_rate(0.02).with_faults(
                FaultPlan::new(77)
                    .with_node_failure_rate(0.2)
                    .with_report_drop_rate(0.1),
            ),
        ];
        for (ci, c) in configs.iter().enumerate() {
            for trial in 0..5 {
                let new = run_trial(c, trial);
                let old = oracle_support::run_trial_oracle(c, trial);
                assert_eq!(new, old, "config {ci} trial {trial}");
                assert_eq!(
                    format!("{new:?}"),
                    format!("{old:?}"),
                    "config {ci} trial {trial} debug repr"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_state_between_trials() {
        let a = config().with_false_alarm_rate(0.01).with_seed(14);
        let b = a
            .clone()
            .with_boundary(crate::config::BoundaryPolicy::Bounded);
        let mut scratch = TrialScratch::new();
        // Interleave configs and trial indices through ONE scratch; each
        // outcome must equal a cold run.
        for trial in 0..6 {
            let cfg = if trial % 2 == 0 { &a } else { &b };
            assert_eq!(
                run_trial_in(cfg, trial, &mut scratch),
                run_trial(cfg, trial),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn geometric_skip_fires_every_slot_at_rate_one() {
        let c = SimConfig::new(SystemParams::paper_defaults().with_m_periods(3))
            .with_false_alarm_rate(1.0);
        let positions = [Point::new(2.0, 2.0), Point::new(8.0, 8.0)];
        let mut rng = rng_stream(1, 0);
        let mut reports = Vec::new();
        let injected = inject_false_alarms(&c, 0, &positions, &mut rng, &mut reports);
        assert_eq!(injected, 6);
        // Period-major order over the flattened grid.
        let seen: Vec<(usize, usize)> =
            reports.iter().map(|r| (r.period, r.sensor.0)).collect();
        assert_eq!(seen, vec![(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]);
        assert!(reports.iter().all(|r| r.position == positions[r.sensor.0]));
    }

    #[test]
    fn sleeping_sensors_neither_detect_nor_misfire() {
        let asleep = config()
            .with_seed(21)
            .with_false_alarm_rate(0.05)
            .with_awake_probability(0.0);
        let out = run_trial(&asleep, 4);
        assert_eq!((out.true_reports, out.false_reports), (0, 0));
        assert!(out.reports.is_empty());
        let quiet = crate::false_alarm::run_no_target(&asleep);
        assert_eq!(quiet.mean_false_reports, 0.0, "{quiet:?}");
    }

    #[test]
    fn a_zero_rate_draws_nothing() {
        // Rate 0, or every sensor asleep: the stream after the pass is the
        // stream before it.
        let positions = [Point::new(1.0, 1.0)];
        for c in [
            config(),
            config()
                .with_false_alarm_rate(0.05)
                .with_awake_probability(0.0),
        ] {
            let mut rng = rng_stream(3, 0);
            assert_eq!(
                inject_false_alarms(&c, 4, &positions, &mut rng, &mut Vec::new()),
                0
            );
            assert_eq!(rng.gen::<u64>(), rng_stream(3, 0).gen::<u64>());
        }
    }
}

#[cfg(test)]
mod deployment_tests {
    use super::*;
    use crate::config::DeploymentSpec;
    use gbd_core::params::SystemParams;

    #[test]
    fn grid_deployment_runs_and_differs_from_uniform() {
        let base = SimConfig::new(SystemParams::paper_defaults())
            .with_trials(1)
            .with_seed(4);
        let uniform = run_trial(&base, 0);
        let grid = run_trial(
            &base
                .clone()
                .with_deployment(DeploymentSpec::Grid { jitter: 0.0 }),
            0,
        );
        // Same trajectory stream position differs (grid consumes no RNG for
        // placement when jitter = 0), so just assert both produce sane
        // outcomes and different report patterns.
        assert_eq!(uniform.trajectory.periods(), 20);
        assert_eq!(grid.trajectory.periods(), 20);
        assert_ne!(uniform.reports, grid.reports);
    }

    #[test]
    fn first_detection_period_consistent_with_detection() {
        let cfg = SimConfig::new(SystemParams::paper_defaults())
            .with_trials(1)
            .with_seed(8);
        for trial in 0..30 {
            let out = run_trial(&cfg, trial);
            match out.first_detection_period(5) {
                Some(p) => {
                    assert!(out.detected(5));
                    assert!((1..=20).contains(&p));
                    // Exactly 5 reports had occurred by period p, at most 4 before.
                    let before: usize = out
                        .reports
                        .iter()
                        .filter(|r| r.is_true_detection() && r.period < p)
                        .count();
                    assert!(before < 5);
                }
                None => assert!(!out.detected(5)),
            }
        }
    }

    #[test]
    fn first_detection_period_k_zero() {
        let cfg = SimConfig::new(SystemParams::paper_defaults())
            .with_trials(1)
            .with_seed(8);
        let out = run_trial(&cfg, 0);
        assert_eq!(out.first_detection_period(0), Some(0));
    }
}
