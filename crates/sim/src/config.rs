//! Simulation configuration.

use crate::faults::FaultPlan;
use gbd_core::params::SystemParams;
use gbd_core::CoreError;

pub use gbd_field::field::BoundaryPolicy;

/// How sensors are placed (the paper assumes uniform random; the grid
/// variants exist to measure how the analysis degrades when that
/// assumption is violated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeploymentSpec {
    /// Independent uniform placement — the paper's assumption.
    UniformRandom,
    /// Near-square grid with per-sensor jitter (fraction of the pitch, in
    /// `[0, 0.5]`; `0.0` is a perfect grid).
    Grid {
        /// Jitter half-width as a fraction of the grid pitch.
        jitter: f64,
    },
}

/// Which mobility model drives the target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MotionSpec {
    /// Straight line at the configured constant speed (paper default).
    Straight,
    /// Random walk: heading perturbed uniformly within `±max_turn` each
    /// period (paper §4 uses `π/4`).
    RandomWalk {
        /// Maximum per-period heading change in radians.
        max_turn: f64,
    },
    /// Straight line with per-period speeds drawn uniformly from
    /// `[v_min, v_max]` (the §6 varying-speed case).
    VaryingSpeed {
        /// Lower speed bound in m/s.
        v_min: f64,
        /// Upper speed bound in m/s.
        v_max: f64,
    },
}

/// Full configuration of a simulation campaign.
///
/// Defaults mirror the paper's §4 setup: straight-line target, no false
/// alarms, 10 000 trials, toroidal boundary (matching the analytical
/// model's implicit assumption of full sensor density along the whole
/// track).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// System parameters (field, sensors, sensing, detection rule).
    pub params: SystemParams,
    /// Number of independent trials.
    pub trials: u64,
    /// Master seed; every result is a pure function of it.
    pub seed: u64,
    /// Border handling for sensing queries.
    pub boundary: BoundaryPolicy,
    /// Target mobility model.
    pub motion: MotionSpec,
    /// Node-level false-alarm probability per awake sensor per period.
    pub false_alarm_rate: f64,
    /// Sensor placement strategy.
    pub deployment: DeploymentSpec,
    /// Probability that a sensor is awake in a given period (duty-cycled
    /// sleep scheduling, cf. the paper's §5 related work; `1.0` = always
    /// on). A sleeping sensor neither detects nor misfires.
    pub awake_probability: f64,
    /// Number of worker threads (0 = every core) for every campaign
    /// runner: [`crate::runner::run`],
    /// [`crate::false_alarm::run_with_filter`] and
    /// [`crate::false_alarm::run_no_target`]. The core count is read once
    /// per process ([`gbd_stats::pool::cores`]). The trials run on the
    /// shared [`gbd_stats::pool`], so a count above the core count is
    /// capped to it, and a campaign started while the pool is busy (inside
    /// an engine batch, say) runs on its calling thread alone. No result
    /// depends on this count: every runner aggregates its trials in trial
    /// order.
    pub threads: usize,
    /// Deterministic fault injection (node failures, dropped reports);
    /// `None` (the default) simulates a fault-free network.
    pub faults: Option<FaultPlan>,
}

impl SimConfig {
    /// Creates the paper-default configuration for the given parameters.
    pub fn new(params: SystemParams) -> Self {
        SimConfig {
            params,
            trials: 10_000,
            seed: 0x5EED,
            boundary: BoundaryPolicy::Torus,
            motion: MotionSpec::Straight,
            false_alarm_rate: 0.0,
            deployment: DeploymentSpec::UniformRandom,
            awake_probability: 1.0,
            threads: 0,
            faults: None,
        }
    }

    /// Sets the trial count, or [`CoreError::InvalidParameter`] if
    /// `trials == 0`.
    pub fn try_with_trials(mut self, trials: u64) -> Result<Self, CoreError> {
        if trials == 0 {
            return Err(CoreError::InvalidParameter {
                name: "trials",
                constraint: "need at least one trial",
            });
        }
        self.trials = trials;
        Ok(self)
    }

    /// Sets the trial count.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`; see [`SimConfig::try_with_trials`] for the
    /// fallible form.
    pub fn with_trials(self, trials: u64) -> Self {
        self.try_with_trials(trials)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the boundary policy.
    pub fn with_boundary(mut self, boundary: BoundaryPolicy) -> Self {
        self.boundary = boundary;
        self
    }

    /// Sets the mobility model.
    pub fn with_motion(mut self, motion: MotionSpec) -> Self {
        self.motion = motion;
        self
    }

    /// Sets the node-level false-alarm rate, or
    /// [`CoreError::InvalidParameter`] if the rate is outside `[0, 1]`.
    pub fn try_with_false_alarm_rate(mut self, rate: f64) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "false_alarm_rate",
                constraint: "must be in [0, 1]",
            });
        }
        self.false_alarm_rate = rate;
        Ok(self)
    }

    /// Sets the node-level false-alarm rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is outside `[0, 1]`; see
    /// [`SimConfig::try_with_false_alarm_rate`] for the fallible form.
    pub fn with_false_alarm_rate(self, rate: f64) -> Self {
        self.try_with_false_alarm_rate(rate)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sets the per-period awake probability (duty cycling), or
    /// [`CoreError::InvalidParameter`] if it is outside `[0, 1]`.
    pub fn try_with_awake_probability(mut self, p: f64) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "awake_probability",
                constraint: "must be in [0, 1]",
            });
        }
        self.awake_probability = p;
        Ok(self)
    }

    /// Sets the per-period awake probability (duty cycling).
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]`; see
    /// [`SimConfig::try_with_awake_probability`] for the fallible form.
    pub fn with_awake_probability(self, p: f64) -> Self {
        self.try_with_awake_probability(p)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sets the deployment strategy.
    pub fn with_deployment(mut self, deployment: DeploymentSpec) -> Self {
        self.deployment = deployment;
        self
    }

    /// Sets the worker-thread count (0 = every core; see
    /// [`SimConfig::threads`] for the cap).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a [`FaultPlan`] (an inert plan is normalized to `None`).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = (!faults.is_inert()).then_some(faults);
        self
    }

    /// The paper's random-walk configuration (`±π/4` per period).
    pub fn with_paper_random_walk(self) -> Self {
        self.with_motion(MotionSpec::RandomWalk {
            max_turn: std::f64::consts::FRAC_PI_4,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::new(SystemParams::paper_defaults());
        assert_eq!(c.trials, 10_000);
        assert_eq!(c.boundary, BoundaryPolicy::Torus);
        assert_eq!(c.motion, MotionSpec::Straight);
        assert_eq!(c.false_alarm_rate, 0.0);
        assert_eq!(c.deployment, DeploymentSpec::UniformRandom);
        assert_eq!(c.awake_probability, 1.0);
    }

    #[test]
    #[should_panic(expected = "awake_probability")]
    fn bad_awake_probability_panics() {
        SimConfig::new(SystemParams::paper_defaults()).with_awake_probability(-0.2);
    }

    #[test]
    fn try_with_methods_validate() {
        let c = SimConfig::new(SystemParams::paper_defaults());
        assert_eq!(c.clone().try_with_trials(5).unwrap().trials, 5);
        assert!(c.clone().try_with_trials(0).is_err());
        assert_eq!(
            c.clone()
                .try_with_false_alarm_rate(0.25)
                .unwrap()
                .false_alarm_rate,
            0.25
        );
        assert!(c.clone().try_with_false_alarm_rate(-0.1).is_err());
        assert_eq!(
            c.clone()
                .try_with_awake_probability(0.5)
                .unwrap()
                .awake_probability,
            0.5
        );
        assert!(c.clone().try_with_awake_probability(f64::NAN).is_err());
    }

    #[test]
    fn builder_chain() {
        let c = SimConfig::new(SystemParams::paper_defaults())
            .with_trials(5)
            .with_seed(9)
            .with_boundary(BoundaryPolicy::Bounded)
            .with_false_alarm_rate(0.01)
            .with_threads(2)
            .with_paper_random_walk();
        assert_eq!(c.trials, 5);
        assert_eq!(c.seed, 9);
        assert_eq!(c.boundary, BoundaryPolicy::Bounded);
        assert_eq!(c.false_alarm_rate, 0.01);
        assert_eq!(c.threads, 2);
        assert!(matches!(c.motion, MotionSpec::RandomWalk { .. }));
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        SimConfig::new(SystemParams::paper_defaults()).with_trials(0);
    }

    #[test]
    #[should_panic(expected = "false_alarm_rate")]
    fn bad_far_panics() {
        SimConfig::new(SystemParams::paper_defaults()).with_false_alarm_rate(1.5);
    }
}
