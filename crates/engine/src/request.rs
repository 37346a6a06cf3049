//! Request and response types of the batched evaluation API.

use crate::cache::{f64_key, CacheStats};
use crate::resilience::{BackendChain, EvalError, RetryPolicy};
use gbd_core::ms_approach::MsOptions;
use gbd_core::prelude::*;
use gbd_core::s_approach::SOptions;
use gbd_sim::config::{BoundaryPolicy, DeploymentSpec, MotionSpec, SimConfig};
use gbd_sim::runner::SimResult;
use std::time::Duration;

/// Which backend evaluates a request.
///
/// The analytical variants mirror the model structs of
/// [`gbd_core::model`]; [`BackendSpec::Simulation`] routes the request
/// through the Monte Carlo simulator, so validation sweeps go through the
/// same batch front door as the analysis they validate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendSpec {
    /// Markov chain based Spatial approach (§3.4).
    Ms(MsOptions),
    /// Single-stage Spatial approach (§3.3), factorized path.
    S(SOptions),
    /// Exact reference model; the distribution is saturated at
    /// `max(saturation_cap, k)`.
    Exact {
        /// Saturation cap of the returned distribution.
        saturation_cap: usize,
    },
    /// Temporal approach (§3.2) with an explicit state budget.
    T {
        /// Truncation caps `g`/`gh`.
        opts: MsOptions,
        /// Abort when the live state set exceeds this bound.
        max_states: usize,
    },
    /// Poisson-field variant of the M-S-approach.
    Poisson,
    /// Monte Carlo simulation.
    Simulation(SimulationSpec),
}

impl BackendSpec {
    /// Paper-default M-S-approach (`g = gh = 3`).
    pub fn ms_default() -> Self {
        BackendSpec::Ms(MsOptions::default())
    }

    /// Extends this backend into a graceful-degradation
    /// [`BackendChain`]: when `self` errors or overruns its deadline, the
    /// engine answers with `fallback` instead and tags the response
    /// [`EvalResponse::degraded`]. Chainable —
    /// `S(...).with_fallback(ms).with_fallback(Poisson)` tries the three
    /// in cost order.
    #[must_use]
    pub fn with_fallback(self, fallback: BackendSpec) -> BackendChain {
        BackendChain::new(self).with_fallback(fallback)
    }

    /// Short stable identifier, matching
    /// [`gbd_core::model::DetectionModel::name`].
    pub fn name(&self) -> &'static str {
        match self {
            BackendSpec::Ms(_) => "ms",
            BackendSpec::S(_) => "s",
            BackendSpec::Exact { .. } => "exact",
            BackendSpec::T { .. } => "t",
            BackendSpec::Poisson => "poisson",
            BackendSpec::Simulation(_) => "sim",
        }
    }
}

/// Simulation campaign settings of a [`BackendSpec::Simulation`] request —
/// a [`SimConfig`] minus the [`SystemParams`] (which come from the
/// request).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationSpec {
    /// Number of independent trials.
    pub trials: u64,
    /// Master seed; the result is a pure function of it.
    pub seed: u64,
    /// Target mobility model.
    pub motion: MotionSpec,
    /// Border handling for sensing queries.
    pub boundary: BoundaryPolicy,
    /// Node-level false-alarm probability per sensor per period.
    pub false_alarm_rate: f64,
    /// Per-period awake probability (duty cycling).
    pub awake_probability: f64,
    /// Sensor placement strategy.
    pub deployment: DeploymentSpec,
    /// Worker threads *inside* the simulation (0 = every core, read once per process), capped
    /// at the core count (see [`SimConfig::threads`]). Not part of the cache identity.
    pub threads: usize,
}

impl Default for SimulationSpec {
    /// Mirrors [`SimConfig::new`]'s paper defaults.
    fn default() -> Self {
        let defaults = SimConfig::new(SystemParams::paper_defaults());
        SimulationSpec {
            trials: defaults.trials,
            seed: defaults.seed,
            motion: defaults.motion,
            boundary: defaults.boundary,
            false_alarm_rate: defaults.false_alarm_rate,
            awake_probability: defaults.awake_probability,
            deployment: defaults.deployment,
            threads: defaults.threads,
        }
    }
}

impl SimulationSpec {
    /// Combines the spec with a request's parameters into a full
    /// [`SimConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `trials == 0` or a
    /// rate/probability is outside `[0, 1]`.
    pub fn to_config(&self, params: SystemParams) -> Result<SimConfig, CoreError> {
        SimConfig::new(params)
            .with_seed(self.seed)
            .with_motion(self.motion)
            .with_boundary(self.boundary)
            .with_deployment(self.deployment)
            .with_threads(self.threads)
            .try_with_trials(self.trials)?
            .try_with_false_alarm_rate(self.false_alarm_rate)?
            .try_with_awake_probability(self.awake_probability)
    }
}

/// Per-request evaluation options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EvalOptions {
    /// Report thresholds at which to evaluate the detection probability;
    /// empty means "the request's own `params.k()`". Ignored by the
    /// simulation backend, which always counts detections at `params.k()`.
    pub k_values: Vec<usize>,
    /// Skip the cross-request cache for this request (it neither reads nor
    /// populates any layer). The result is identical either way; use this
    /// to measure cold-path cost.
    pub bypass_cache: bool,
    /// Per-request deadline. The evaluation checkpoints cooperatively (at
    /// M-S stage boundaries and every few thousand enumeration leaves);
    /// past the deadline it stops with [`EvalError::DeadlineExceeded`] and
    /// the request's fallbacks, if any, get a turn. `None` means
    /// unlimited. A deadline never changes a returned value — only
    /// whether one is returned.
    pub deadline: Option<Duration>,
    /// Bounded retry for **simulation requests** whose attempt panicked
    /// (see [`RetryPolicy`] for why analytical backends never retry).
    /// `None` means fail on the first panic.
    pub retry: Option<RetryPolicy>,
}

/// One unit of work for the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// System parameters to evaluate.
    pub params: SystemParams,
    /// Backend to evaluate them with.
    pub backend: BackendSpec,
    /// Cheaper backends tried in order when `backend` errors or misses its
    /// deadline (the graceful-degradation chain; usually built with
    /// [`BackendSpec::with_fallback`]).
    pub fallbacks: Vec<BackendSpec>,
    /// Evaluation options.
    pub options: EvalOptions,
}

impl EvalRequest {
    /// A request with default options. Accepts either a bare
    /// [`BackendSpec`] or a [`BackendChain`] with fallbacks:
    ///
    /// ```
    /// use gbd_core::params::SystemParams;
    /// use gbd_engine::{BackendSpec, EvalRequest};
    ///
    /// let p = SystemParams::paper_defaults();
    /// let plain = EvalRequest::new(p, BackendSpec::ms_default());
    /// assert!(plain.fallbacks.is_empty());
    /// let chained = EvalRequest::new(
    ///     p,
    ///     BackendSpec::ms_default().with_fallback(BackendSpec::Poisson),
    /// );
    /// assert_eq!(chained.fallbacks.len(), 1);
    /// ```
    pub fn new(params: SystemParams, backend: impl Into<BackendChain>) -> Self {
        let chain = backend.into();
        EvalRequest {
            params,
            backend: chain.primary,
            fallbacks: chain.fallbacks,
            options: EvalOptions::default(),
        }
    }

    /// The thresholds this request evaluates at.
    pub(crate) fn thresholds(&self) -> Vec<usize> {
        if self.options.k_values.is_empty() {
            vec![self.params.k()]
        } else {
            self.options.k_values.clone()
        }
    }
}

/// What a backend produced for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalOutput {
    /// An analytical report-count distribution.
    Analysis(ReportDistribution),
    /// A Monte Carlo campaign summary.
    Simulation(SimResult),
}

impl EvalOutput {
    /// Normalized `P_M[X >= k]`. The simulation variant counted detections
    /// at its configured `k` and returns that estimate for any `k` asked.
    pub fn detection_probability(&self, k: usize) -> f64 {
        match self {
            EvalOutput::Analysis(dist) => dist.detection_probability(k),
            EvalOutput::Simulation(result) => result.detection_probability,
        }
    }

    /// The analytical distribution, if this output has one.
    pub fn analysis(&self) -> Option<&ReportDistribution> {
        match self {
            EvalOutput::Analysis(dist) => Some(dist),
            EvalOutput::Simulation(_) => None,
        }
    }

    /// The simulation summary, if this output has one.
    pub fn simulation(&self) -> Option<&SimResult> {
        match self {
            EvalOutput::Analysis(_) => None,
            EvalOutput::Simulation(result) => Some(result),
        }
    }
}

/// The engine's answer to one [`EvalRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResponse {
    /// Index of the request in the submitted batch (responses are returned
    /// in batch order; the index makes that checkable).
    pub index: usize,
    /// Identifier of the *requested* backend (see [`BackendSpec::name`]).
    pub backend: &'static str,
    /// Identifier of the backend whose result this is. Equal to
    /// [`EvalResponse::backend`] unless a fallback answered (then
    /// [`EvalResponse::degraded`] is set) — or the request failed outright
    /// (then it names the primary, whose error [`EvalResponse::outcome`]
    /// carries).
    pub served_by: &'static str,
    /// Whether a fallback backend answered because the primary errored or
    /// missed its deadline.
    pub degraded: bool,
    /// The backend's output, or the error that stopped the request (the
    /// *primary* backend's error — fallback errors never mask it).
    pub outcome: Result<EvalOutput, EvalError>,
    /// `(k, P_M[X >= k])` at each requested threshold; empty on error.
    pub detection: Vec<(usize, f64)>,
    /// Wall-clock time this request spent evaluating.
    pub duration: Duration,
    /// Cache hits/misses this request's evaluation performed.
    pub cache: CacheStats,
}

impl EvalResponse {
    /// Detection probability at the first requested threshold (the
    /// request's `params.k()` unless overridden).
    pub fn detection_probability(&self) -> Option<f64> {
        self.detection.first().map(|&(_, p)| p)
    }
}

/// Hashable identity of `(params, backend)` for the assembled-result cache
/// layer. Floats enter by bit pattern, so key equality implies the cold
/// computation would be bit-identical.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ResultKey {
    pub(crate) params: [u64; 6],
    pub(crate) n_sensors: usize,
    pub(crate) m_periods: usize,
    pub(crate) k: usize,
    pub(crate) backend: BackendKey,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum BackendKey {
    Ms {
        g: usize,
        gh: usize,
        eps: u64,
    },
    S {
        cap: usize,
    },
    Exact {
        cap: usize,
    },
    T {
        g: usize,
        gh: usize,
        max_states: usize,
    },
    Poisson,
    Sim {
        trials: u64,
        seed: u64,
        motion: (u8, u64, u64),
        boundary: u8,
        false_alarm_rate: u64,
        awake_probability: u64,
        deployment: (u8, u64),
    },
}

pub(crate) fn result_key(params: &SystemParams, backend: &BackendSpec) -> ResultKey {
    let backend = match *backend {
        BackendSpec::Ms(opts) => BackendKey::Ms {
            g: opts.g,
            gh: opts.gh,
            eps: f64_key(opts.eps),
        },
        BackendSpec::S(opts) => BackendKey::S {
            cap: opts.cap_sensors,
        },
        BackendSpec::Exact { saturation_cap } => BackendKey::Exact {
            cap: saturation_cap,
        },
        BackendSpec::T { opts, max_states } => BackendKey::T {
            g: opts.g,
            gh: opts.gh,
            max_states,
        },
        BackendSpec::Poisson => BackendKey::Poisson,
        BackendSpec::Simulation(spec) => BackendKey::Sim {
            trials: spec.trials,
            seed: spec.seed,
            motion: match spec.motion {
                MotionSpec::Straight => (0, 0, 0),
                MotionSpec::RandomWalk { max_turn } => (1, f64_key(max_turn), 0),
                MotionSpec::VaryingSpeed { v_min, v_max } => {
                    (2, f64_key(v_min), f64_key(v_max))
                }
            },
            boundary: match spec.boundary {
                BoundaryPolicy::Bounded => 0,
                BoundaryPolicy::Torus => 1,
            },
            false_alarm_rate: f64_key(spec.false_alarm_rate),
            awake_probability: f64_key(spec.awake_probability),
            deployment: match spec.deployment {
                DeploymentSpec::UniformRandom => (0, 0),
                DeploymentSpec::Grid { jitter } => (1, f64_key(jitter)),
            },
        },
    };
    ResultKey {
        params: [
            f64_key(params.field_width()),
            f64_key(params.field_height()),
            f64_key(params.sensing_range()),
            f64_key(params.speed()),
            f64_key(params.period_s()),
            f64_key(params.pd()),
        ],
        n_sensors: params.n_sensors(),
        m_periods: params.m_periods(),
        k: params.k(),
        backend,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_keys_distinguish_params_and_backends() {
        let p = SystemParams::paper_defaults();
        let ms = BackendSpec::ms_default();
        assert_eq!(result_key(&p, &ms), result_key(&p, &ms));
        assert_ne!(result_key(&p, &ms), result_key(&p.with_n_sensors(60), &ms));
        assert_ne!(result_key(&p, &ms), result_key(&p, &BackendSpec::Poisson));
        assert_ne!(
            result_key(
                &p,
                &BackendSpec::Ms(MsOptions {
                    g: 3,
                    gh: 4,
                    eps: 0.0
                })
            ),
            result_key(
                &p,
                &BackendSpec::Ms(MsOptions {
                    g: 4,
                    gh: 3,
                    eps: 0.0
                })
            )
        );
        // eps changes the assembled result, so it must split the key.
        assert_ne!(
            result_key(
                &p,
                &BackendSpec::Ms(MsOptions {
                    g: 3,
                    gh: 3,
                    eps: 0.0
                })
            ),
            result_key(
                &p,
                &BackendSpec::Ms(MsOptions {
                    g: 3,
                    gh: 3,
                    eps: 1e-9
                })
            )
        );
    }

    #[test]
    fn sim_key_ignores_threads() {
        let p = SystemParams::paper_defaults();
        let a = BackendSpec::Simulation(SimulationSpec {
            threads: 1,
            ..SimulationSpec::default()
        });
        let b = BackendSpec::Simulation(SimulationSpec {
            threads: 8,
            ..SimulationSpec::default()
        });
        assert_eq!(result_key(&p, &a), result_key(&p, &b));
        let c = BackendSpec::Simulation(SimulationSpec {
            seed: 99,
            ..SimulationSpec::default()
        });
        assert_ne!(result_key(&p, &a), result_key(&p, &c));
    }

    #[test]
    fn simulation_spec_round_trips_to_config() {
        let spec = SimulationSpec {
            trials: 123,
            seed: 7,
            false_alarm_rate: 0.01,
            awake_probability: 0.9,
            threads: 2,
            ..SimulationSpec::default()
        };
        let cfg = spec.to_config(SystemParams::paper_defaults()).unwrap();
        assert_eq!(cfg.trials, 123);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.false_alarm_rate, 0.01);
        assert_eq!(cfg.awake_probability, 0.9);
        assert_eq!(cfg.threads, 2);
        assert!(SimulationSpec {
            trials: 0,
            ..SimulationSpec::default()
        }
        .to_config(SystemParams::paper_defaults())
        .is_err());
    }

    #[test]
    fn thresholds_default_to_params_k() {
        let req = EvalRequest::new(SystemParams::paper_defaults(), BackendSpec::ms_default());
        assert_eq!(req.thresholds(), vec![5]);
        let req = EvalRequest {
            options: EvalOptions {
                k_values: vec![3, 5, 7],
                ..EvalOptions::default()
            },
            ..req
        };
        assert_eq!(req.thresholds(), vec![3, 5, 7]);
    }
}
