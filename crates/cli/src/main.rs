//! `groupdet` — command-line front end for the group based detection
//! analysis and simulator.
//!
//! ```text
//! groupdet analyze  [options]          analytical detection probability
//! groupdet simulate [options]          Monte Carlo detection probability
//! groupdet sweep    [options]          analysis + simulation over N
//! groupdet caps     [options]          required g/gh/G for an accuracy target
//! groupdet design   [options]          sensors/range needed for a target probability
//! groupdet store    <action> [options] inspect/verify/compact/warm a result store
//! groupdet help                        option reference
//! ```
//!
//! Every evaluation goes through the batched engine
//! ([`gbd_engine::Engine`]), so a sweep shares geometry and per-stage work
//! across its points; `--json` switches `analyze`/`simulate`/`sweep` to
//! machine-readable output.

mod args;

use args::{render_flags, unknown_command, unknown_flag, Cursor, Flag};
use gbd_core::accuracy::required_caps;
use gbd_core::design::{required_sensing_range, required_sensors};
use gbd_core::ms_approach::MsOptions;
use gbd_core::prelude::*;
use gbd_core::s_approach::SOptions;
use gbd_engine::{
    BackendChain, BackendSpec, Engine, EvalRequest, EvalResponse, RetryPolicy, SimulationSpec,
};
use gbd_router::{Router, RouterConfig};
use gbd_serve::{Json, ServeConfig, Server};
use gbd_sim::config::MotionSpec;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// The sensing period is fixed at the paper's value; the CLI does not
/// expose it (no figure varies it).
const PERIOD_S: f64 = 60.0;

const COMMANDS: &[&str] = &[
    "analyze", "simulate", "sweep", "caps", "design", "serve", "route", "store", "help",
];

// ---------------------------------------------------------------------------
// Shared flag groups
// ---------------------------------------------------------------------------

/// The system-parameter group shared by every subcommand.
#[derive(Debug, Clone)]
struct ParamArgs {
    n: usize,
    speed: f64,
    rs: f64,
    field: f64,
    pd: f64,
    m: usize,
    k: usize,
}

impl Default for ParamArgs {
    fn default() -> Self {
        ParamArgs {
            n: 240,
            speed: 10.0,
            rs: 1000.0,
            field: 32_000.0,
            pd: 0.9,
            m: 20,
            k: 5,
        }
    }
}

impl ParamArgs {
    const FLAGS: &'static [Flag] = &[
        Flag::value("--n", "int", "sensors deployed (240)"),
        Flag::value("--speed", "m/s", "target speed (10)"),
        Flag::value("--rs", "m", "sensing range (1000)"),
        Flag::value("--field", "m", "square field side (32000)"),
        Flag::value("--pd", "p", "per-period detection probability (0.9)"),
        Flag::value("--m", "int", "window periods M (20)"),
        Flag::value("--k", "int", "report threshold k (5)"),
    ];

    fn try_set(&mut self, flag: &str, cur: &mut Cursor) -> Result<bool, String> {
        match flag {
            "--n" => self.n = cur.take_value(flag)?,
            "--speed" => self.speed = cur.take_value(flag)?,
            "--rs" => self.rs = cur.take_value(flag)?,
            "--field" => self.field = cur.take_value(flag)?,
            "--pd" => self.pd = cur.take_value(flag)?,
            "--m" => self.m = cur.take_value(flag)?,
            "--k" => self.k = cur.take_value(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Builds validated parameters through the fallible constructor.
    fn build(&self) -> Result<SystemParams, String> {
        SystemParams::new(
            self.field, self.field, self.n, self.rs, self.speed, PERIOD_S, self.pd, self.m,
            self.k,
        )
        .map_err(|e| e.to_string())
    }
}

/// Analytical-backend selection group.
#[derive(Debug, Clone)]
struct BackendArgs {
    backend: String,
    g: usize,
    gh: usize,
    cap: Option<usize>,
    max_states: usize,
    deadline_ms: Option<u64>,
    fallbacks: Vec<String>,
}

impl Default for BackendArgs {
    fn default() -> Self {
        BackendArgs {
            backend: "ms".to_string(),
            g: 3,
            gh: 3,
            cap: None,
            max_states: 4_000_000,
            deadline_ms: None,
            fallbacks: Vec::new(),
        }
    }
}

impl BackendArgs {
    const FLAGS: &'static [Flag] = &[
        Flag::value(
            "--backend",
            "name",
            "analytical backend: ms|s|exact|t|poisson (ms)",
        ),
        Flag::value("--g", "int", "M-S/T truncation cap g (3)"),
        Flag::value("--gh", "int", "M-S/T head truncation cap gh (3)"),
        Flag::value("--cap", "int", "sensor cap for s/exact backends (6/32)"),
        Flag::value(
            "--max-states",
            "int",
            "state budget for the t backend (4000000)",
        ),
        Flag::value(
            "--deadline-ms",
            "ms",
            "per-request evaluation deadline (none)",
        ),
        Flag::value(
            "--fallback",
            "name",
            "fallback backend when the primary fails; repeatable",
        ),
    ];

    fn try_set(&mut self, flag: &str, cur: &mut Cursor) -> Result<bool, String> {
        match flag {
            "--backend" => self.backend = cur.take_value(flag)?,
            "--g" => self.g = cur.take_value(flag)?,
            "--gh" => self.gh = cur.take_value(flag)?,
            "--cap" => self.cap = Some(cur.take_value(flag)?),
            "--max-states" => self.max_states = cur.take_value(flag)?,
            "--deadline-ms" => self.deadline_ms = Some(cur.take_value(flag)?),
            "--fallback" => self.fallbacks.push(cur.take_value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn build(&self) -> Result<BackendSpec, String> {
        self.spec_for(&self.backend)
    }

    /// The primary backend plus any `--fallback` degradation chain.
    fn chain(&self) -> Result<BackendChain, String> {
        let mut chain = BackendChain::new(self.build()?);
        for name in &self.fallbacks {
            chain = chain.with_fallback(self.spec_for(name)?);
        }
        Ok(chain)
    }

    fn deadline(&self) -> Option<Duration> {
        self.deadline_ms.map(Duration::from_millis)
    }

    fn spec_for(&self, name: &str) -> Result<BackendSpec, String> {
        let opts = MsOptions {
            g: self.g,
            gh: self.gh,
            eps: 0.0,
        };
        match name {
            "ms" => Ok(BackendSpec::Ms(opts)),
            "s" => Ok(BackendSpec::S(SOptions {
                cap_sensors: self.cap.unwrap_or(SOptions::default().cap_sensors),
            })),
            "exact" => Ok(BackendSpec::Exact {
                saturation_cap: self.cap.unwrap_or(32),
            }),
            "t" => Ok(BackendSpec::T {
                opts,
                max_states: self.max_states,
            }),
            "poisson" => Ok(BackendSpec::Poisson),
            other => Err(format!(
                "unknown backend `{other}` (expected ms, s, exact, t, or poisson)"
            )),
        }
    }
}

/// Simulation campaign group.
#[derive(Debug, Clone)]
struct SimArgs {
    trials: u64,
    seed: u64,
    walk: bool,
    false_alarm: f64,
    awake: f64,
    threads: usize,
    retries: u32,
}

impl Default for SimArgs {
    fn default() -> Self {
        SimArgs {
            trials: 10_000,
            seed: 2008,
            walk: false,
            false_alarm: 0.0,
            awake: 1.0,
            threads: 0,
            retries: 0,
        }
    }
}

impl SimArgs {
    const FLAGS: &'static [Flag] = &[
        Flag::value("--trials", "int", "simulation trials (10000)"),
        Flag::value("--seed", "int", "master seed (2008)"),
        Flag::switch("--walk", "random-walk target instead of straight line"),
        Flag::value("--false-alarm", "p", "per-sensor false-alarm rate (0)"),
        Flag::value("--awake", "p", "per-period awake probability (1)"),
        Flag::value(
            "--threads",
            "int",
            "simulation worker threads, 0 = all cores (0)",
        ),
        Flag::value(
            "--retries",
            "int",
            "retries for transient simulation failures (0)",
        ),
    ];

    fn try_set(&mut self, flag: &str, cur: &mut Cursor) -> Result<bool, String> {
        match flag {
            "--trials" => self.trials = cur.take_value(flag)?,
            "--seed" => self.seed = cur.take_value(flag)?,
            "--walk" => self.walk = true,
            "--false-alarm" => self.false_alarm = cur.take_value(flag)?,
            "--awake" => self.awake = cur.take_value(flag)?,
            "--threads" => self.threads = cur.take_value(flag)?,
            "--retries" => self.retries = cur.take_value(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn retry_policy(&self) -> Option<RetryPolicy> {
        (self.retries > 0).then(|| RetryPolicy::new(self.retries))
    }

    fn build(&self) -> SimulationSpec {
        SimulationSpec {
            trials: self.trials,
            seed: self.seed,
            motion: if self.walk {
                MotionSpec::RandomWalk {
                    max_turn: std::f64::consts::FRAC_PI_4,
                }
            } else {
                MotionSpec::Straight
            },
            false_alarm_rate: self.false_alarm,
            awake_probability: self.awake,
            threads: self.threads,
            ..SimulationSpec::default()
        }
    }
}

const JSON_FLAG: &[Flag] = &[Flag::switch("--json", "machine-readable output")];

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct AnalyzeCmd {
    params: ParamArgs,
    backend: BackendArgs,
    json: bool,
}

impl AnalyzeCmd {
    const GROUPS: &'static [&'static [Flag]] =
        &[ParamArgs::FLAGS, BackendArgs::FLAGS, JSON_FLAG];

    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut cmd = AnalyzeCmd::default();
        let mut cur = Cursor::new(raw);
        while let Some(flag) = cur.next() {
            if cmd.params.try_set(flag, &mut cur)? || cmd.backend.try_set(flag, &mut cur)? {
                continue;
            }
            match flag {
                "--json" => cmd.json = true,
                other => return Err(unknown_flag(other, Self::GROUPS)),
            }
        }
        Ok(cmd)
    }

    fn run(&self) -> Result<(), String> {
        let params = self.params.build()?;
        let engine = Engine::new();
        let mut request = EvalRequest::new(params, self.backend.chain()?);
        request.options.deadline = self.backend.deadline();
        let response = engine.evaluate(&request);
        let dist = match &response.outcome {
            Ok(output) => output.analysis().expect("analytical backend"),
            Err(e) => return Err(e.to_string()),
        };
        let p = dist.detection_probability(params.k());
        if self.json {
            println!(
                "{}",
                Json::obj(vec![
                    ("command".into(), "analyze".into()),
                    ("backend".into(), response.backend.into()),
                    ("served_by".into(), response.served_by.into()),
                    ("degraded".into(), response.degraded.into()),
                    ("params".into(), params_json(&params)),
                    ("detection_probability".into(), p.into()),
                    (
                        "detection_probability_unnormalized".into(),
                        dist.detection_probability_unnormalized(params.k()).into(),
                    ),
                    ("retained_mass".into(), dist.retained_mass().into()),
                    (
                        "predicted_accuracy".into(),
                        dist.predicted_accuracy().into()
                    ),
                    ("duration_ms".into(), duration_ms(&response).into()),
                    ("cache".into(), cache_json(&response)),
                ])
                .render()
            );
        } else {
            println!(
                "{:<14} P[X >= {}] = {:.4}",
                format!("{}-approach", response.served_by),
                params.k(),
                p
            );
            if response.degraded {
                eprintln!(
                    "warning: `{}` backend failed; degraded to `{}`",
                    response.backend, response.served_by
                );
            }
            println!(
                "unnormalized              = {:.4}",
                dist.detection_probability_unnormalized(params.k())
            );
            println!("retained mass             = {:.4}", dist.retained_mass());
            println!(
                "predicted accuracy        = {:.4}",
                dist.predicted_accuracy()
            );
            println!(
                "evaluated in {:.2} ms  ({} cache hits, {} misses)",
                duration_ms(&response),
                response.cache.hits,
                response.cache.misses
            );
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct SimulateCmd {
    params: ParamArgs,
    sim: SimArgs,
    json: bool,
}

impl SimulateCmd {
    const GROUPS: &'static [&'static [Flag]] = &[ParamArgs::FLAGS, SimArgs::FLAGS, JSON_FLAG];

    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut cmd = SimulateCmd::default();
        let mut cur = Cursor::new(raw);
        while let Some(flag) = cur.next() {
            if cmd.params.try_set(flag, &mut cur)? || cmd.sim.try_set(flag, &mut cur)? {
                continue;
            }
            match flag {
                "--json" => cmd.json = true,
                other => return Err(unknown_flag(other, Self::GROUPS)),
            }
        }
        Ok(cmd)
    }

    fn run(&self) -> Result<(), String> {
        let params = self.params.build()?;
        let engine = Engine::new();
        let mut request = EvalRequest::new(params, BackendSpec::Simulation(self.sim.build()));
        request.options.retry = self.sim.retry_policy();
        let response = engine.evaluate(&request);
        let result = match &response.outcome {
            Ok(output) => output.simulation().expect("simulation backend"),
            Err(e) => return Err(e.to_string()),
        };
        let wall_ms = duration_ms(&response);
        let trials_per_sec = if wall_ms > 0.0 {
            result.trials as f64 / (wall_ms / 1e3)
        } else {
            0.0
        };
        if self.json {
            println!(
                "{}",
                Json::obj(vec![
                    ("command".into(), "simulate".into()),
                    ("params".into(), params_json(&params)),
                    ("trials".into(), result.trials.into()),
                    ("seed".into(), self.sim.seed.into()),
                    ("random_walk".into(), self.sim.walk.into()),
                    (
                        "detection_probability".into(),
                        result.detection_probability.into()
                    ),
                    ("confidence_lo".into(), result.confidence.lo.into()),
                    ("confidence_hi".into(), result.confidence.hi.into()),
                    ("mean_reports".into(), result.report_counts.mean().into()),
                    (
                        "mean_false_alarms".into(),
                        result.false_alarm_counts.mean().into()
                    ),
                    ("duration_ms".into(), wall_ms.into()),
                    ("trials_per_sec".into(), trials_per_sec.into()),
                    ("cache".into(), cache_json(&response)),
                ])
                .render()
            );
        } else {
            println!(
                "simulation     P[X >= {}] = {:.4}  (95% CI [{:.4}, {:.4}], {} trials{})",
                params.k(),
                result.detection_probability,
                result.confidence.lo,
                result.confidence.hi,
                result.trials,
                if self.sim.walk { ", random walk" } else { "" }
            );
            println!(
                "mean reports per window   = {:.2}",
                result.report_counts.mean()
            );
            println!(
                "wall clock                = {:.1} ms  ({:.0} trials/sec)",
                wall_ms, trials_per_sec
            );
        }
        Ok(())
    }
}

#[derive(Debug)]
struct SweepCmd {
    params: ParamArgs,
    backend: BackendArgs,
    sim: SimArgs,
    n_start: usize,
    n_end: usize,
    n_step: usize,
    no_sim: bool,
    json: bool,
}

impl Default for SweepCmd {
    fn default() -> Self {
        SweepCmd {
            params: ParamArgs::default(),
            backend: BackendArgs::default(),
            sim: SimArgs::default(),
            n_start: 60,
            n_end: 240,
            n_step: 30,
            no_sim: false,
            json: false,
        }
    }
}

impl SweepCmd {
    const FLAGS: &'static [Flag] = &[
        Flag::value("--n-start", "int", "first sensor count of the sweep (60)"),
        Flag::value("--n-end", "int", "last sensor count of the sweep (240)"),
        Flag::value("--n-step", "int", "sweep step (30)"),
        Flag::switch("--no-sim", "analysis only, skip the simulation column"),
    ];
    const GROUPS: &'static [&'static [Flag]] = &[
        ParamArgs::FLAGS,
        BackendArgs::FLAGS,
        SimArgs::FLAGS,
        Self::FLAGS,
        JSON_FLAG,
    ];

    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut cmd = SweepCmd::default();
        let mut cur = Cursor::new(raw);
        while let Some(flag) = cur.next() {
            if cmd.params.try_set(flag, &mut cur)?
                || cmd.backend.try_set(flag, &mut cur)?
                || cmd.sim.try_set(flag, &mut cur)?
            {
                continue;
            }
            match flag {
                "--n-start" => cmd.n_start = cur.take_value(flag)?,
                "--n-end" => cmd.n_end = cur.take_value(flag)?,
                "--n-step" => cmd.n_step = cur.take_value(flag)?,
                "--no-sim" => cmd.no_sim = true,
                "--json" => cmd.json = true,
                other => return Err(unknown_flag(other, Self::GROUPS)),
            }
        }
        if cmd.n_step == 0 {
            return Err("--n-step must be positive".to_string());
        }
        if cmd.n_end < cmd.n_start {
            return Err("--n-end must be at least --n-start".to_string());
        }
        Ok(cmd)
    }

    fn sensor_counts(&self) -> Vec<usize> {
        (self.n_start..=self.n_end).step_by(self.n_step).collect()
    }

    fn run(&self) -> Result<(), String> {
        let chain = self.backend.chain()?;
        let spec = self.sim.build();
        let counts = self.sensor_counts();
        let mut requests = Vec::new();
        for &n in &counts {
            let params = ParamArgs {
                n,
                ..self.params.clone()
            }
            .build()?;
            let mut analysis = EvalRequest::new(params, chain.clone());
            analysis.options.deadline = self.backend.deadline();
            requests.push(analysis);
            if !self.no_sim {
                let mut sim = EvalRequest::new(params, BackendSpec::Simulation(spec));
                sim.options.retry = self.sim.retry_policy();
                requests.push(sim);
            }
        }
        let engine = Engine::new();
        let responses = engine.evaluate_batch(&requests);
        // A failed request never aborts the sweep: every row is reported,
        // errors go to stderr (and into the JSON rows), and the command
        // exits nonzero at the end if anything failed.
        let mut failed = 0usize;
        let per_n = if self.no_sim { 1 } else { 2 };
        let mut rows = Vec::new();
        for (i, &n) in counts.iter().enumerate() {
            let analysis = &responses[per_n * i];
            if let Err(e) = &analysis.outcome {
                failed += 1;
                eprintln!(
                    "error: analysis request (n={n}, backend {}): {e}",
                    analysis.backend
                );
            }
            let sim: Option<&EvalResponse> = (!self.no_sim).then(|| &responses[per_n * i + 1]);
            if let Some(sim) = sim {
                if let Err(e) = &sim.outcome {
                    failed += 1;
                    eprintln!("error: simulation request (n={n}): {e}");
                }
            }
            rows.push((n, analysis, sim));
        }
        let stats = engine.cache_stats();
        if self.json {
            println!(
                "{}",
                Json::obj(vec![
                    ("command".into(), "sweep".into()),
                    ("backend".into(), chain.primary.name().into()),
                    ("k".into(), self.params.k.into()),
                    (
                        "rows".into(),
                        Json::Arr(
                            rows.iter()
                                .map(|&(n, analysis, sim)| {
                                    let mut row = vec![
                                        ("n".into(), n.into()),
                                        (
                                            "analysis".into(),
                                            match &analysis.outcome {
                                                Ok(_) => analysis
                                                    .detection_probability()
                                                    .map_or(Json::Null, Json::from),
                                                Err(_) => Json::Null,
                                            },
                                        ),
                                        ("served_by".into(), analysis.served_by.into()),
                                        ("degraded".into(), analysis.degraded.into()),
                                        (
                                            "error".into(),
                                            analysis
                                                .outcome
                                                .as_ref()
                                                .err()
                                                .map_or(Json::Null, |e| {
                                                    Json::Str(e.to_string())
                                                }),
                                        ),
                                    ];
                                    if let Some(sim) = sim {
                                        row.push((
                                            "simulation".into(),
                                            sim.outcome
                                                .as_ref()
                                                .ok()
                                                .and_then(|o| o.simulation())
                                                .map_or(Json::Null, |s| {
                                                    s.detection_probability.into()
                                                }),
                                        ));
                                        row.push((
                                            "sim_error".into(),
                                            sim.outcome
                                                .as_ref()
                                                .err()
                                                .map_or(Json::Null, |e| {
                                                    Json::Str(e.to_string())
                                                }),
                                        ));
                                    } else {
                                        row.push(("simulation".into(), Json::Null));
                                        row.push(("sim_error".into(), Json::Null));
                                    }
                                    Json::obj(row)
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "cache".into(),
                        Json::obj(vec![
                            ("hits".into(), stats.hits.into()),
                            ("misses".into(), stats.misses.into()),
                            (
                                "poisoned_recoveries".into(),
                                stats.poisoned_recoveries.into()
                            ),
                        ]),
                    ),
                ])
                .render()
            );
        } else {
            println!("   N  | analysis | simulation");
            for (n, analysis, sim) in rows {
                let ana_cell = match &analysis.outcome {
                    Ok(_) => format!(
                        "{:.4}",
                        analysis.detection_probability().unwrap_or(f64::NAN)
                    ),
                    Err(_) => "error ".to_string(),
                };
                let sim_cell = match sim {
                    Some(sim) => match &sim.outcome {
                        Ok(output) => output.simulation().map_or("   -  ".to_string(), |s| {
                            format!("{:.4}", s.detection_probability)
                        }),
                        Err(_) => "error ".to_string(),
                    },
                    None => "   -  ".to_string(),
                };
                println!("  {n:3} |  {ana_cell}  |  {sim_cell}");
            }
            println!(
                "engine cache: {} hits, {} misses over {} requests",
                stats.hits,
                stats.misses,
                requests.len()
            );
        }
        if failed > 0 {
            return Err(format!("{failed} of {} requests failed", requests.len()));
        }
        Ok(())
    }
}

#[derive(Debug)]
struct CapsCmd {
    params: ParamArgs,
    eta: f64,
}

impl CapsCmd {
    const FLAGS: &'static [Flag] =
        &[Flag::value("--eta", "p", "accuracy target for caps (0.99)")];
    const GROUPS: &'static [&'static [Flag]] = &[ParamArgs::FLAGS, Self::FLAGS];

    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut cmd = CapsCmd {
            params: ParamArgs::default(),
            eta: 0.99,
        };
        let mut cur = Cursor::new(raw);
        while let Some(flag) = cur.next() {
            if cmd.params.try_set(flag, &mut cur)? {
                continue;
            }
            match flag {
                "--eta" => cmd.eta = cur.take_value(flag)?,
                other => return Err(unknown_flag(other, Self::GROUPS)),
            }
        }
        Ok(cmd)
    }

    fn run(&self) -> Result<(), String> {
        let params = self.params.build()?;
        let caps = required_caps(&params, self.eta);
        println!(
            "for {:.1}% accuracy: g = {}, gh = {}, G (S-approach) = {}",
            self.eta * 100.0,
            caps.g,
            caps.gh,
            caps.g_s_approach
        );
        Ok(())
    }
}

#[derive(Debug)]
struct DesignCmd {
    params: ParamArgs,
    target: f64,
}

impl DesignCmd {
    const FLAGS: &'static [Flag] = &[Flag::value(
        "--target",
        "p",
        "detection-probability target for design (0.95)",
    )];
    const GROUPS: &'static [&'static [Flag]] = &[ParamArgs::FLAGS, Self::FLAGS];

    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut cmd = DesignCmd {
            params: ParamArgs::default(),
            target: 0.95,
        };
        let mut cur = Cursor::new(raw);
        while let Some(flag) = cur.next() {
            if cmd.params.try_set(flag, &mut cur)? {
                continue;
            }
            match flag {
                "--target" => cmd.target = cur.take_value(flag)?,
                other => return Err(unknown_flag(other, Self::GROUPS)),
            }
        }
        Ok(cmd)
    }

    fn run(&self) -> Result<(), String> {
        let params = self.params.build()?;
        match required_sensors(&params, self.target, 10 * params.n_sensors().max(100))
            .map_err(|e| e.to_string())?
        {
            Some(pt) => println!(
                "sensors needed at Rs = {:.0} m : N = {:.0}  (P = {:.4})",
                params.sensing_range(),
                pt.value,
                pt.achieved
            ),
            None => {
                println!("target unreachable by adding sensors (within 10x the current fleet)")
            }
        }
        match required_sensing_range(&params, self.target, 10.0, 10.0 * params.sensing_range())
            .map_err(|e| e.to_string())?
        {
            Some(pt) => println!(
                "range needed at N = {}     : Rs = {:.0} m  (P = {:.4})",
                params.n_sensors(),
                pt.value,
                pt.achieved
            ),
            None => {
                println!("target unreachable by extending range (within 10x the current Rs)")
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct ServeCmd {
    addr: String,
    batch_max: usize,
    flush_us: u64,
    queue_depth: usize,
    max_inflight: usize,
    conn_limit: u64,
    max_line_bytes: usize,
    workers: usize,
    cache_cap: usize,
    store: Option<String>,
    metrics_addr: Option<String>,
    obs_window_ms: u64,
    shard_id: Option<String>,
    replicate_to: Option<String>,
    replica_listen: Option<String>,
    json: bool,
}

impl Default for ServeCmd {
    fn default() -> Self {
        let defaults = ServeConfig::default();
        ServeCmd {
            addr: "127.0.0.1:7171".to_string(),
            batch_max: defaults.batch_max,
            flush_us: defaults.flush_interval.as_micros() as u64,
            queue_depth: defaults.queue_depth,
            max_inflight: defaults.max_inflight_per_conn,
            conn_limit: defaults.max_requests_per_conn,
            max_line_bytes: defaults.max_line_bytes,
            workers: 0,
            // A long-lived server must not grow its caches without bound;
            // 64k entries per shard is a generous working set, and eviction
            // only ever causes bit-identical recomputation.
            cache_cap: 1 << 16,
            store: None,
            metrics_addr: None,
            obs_window_ms: 1000,
            shard_id: None,
            replicate_to: None,
            replica_listen: None,
            json: false,
        }
    }
}

impl ServeCmd {
    const FLAGS: &'static [Flag] = &[
        Flag::value(
            "--addr",
            "host:port",
            "listen address; port 0 picks one (127.0.0.1:7171)",
        ),
        Flag::value(
            "--batch-max",
            "int",
            "flush a coalesced batch at this many requests (32)",
        ),
        Flag::value(
            "--flush-us",
            "µs",
            "coalescer flush interval; 0 flushes as soon as the flusher is free (0)",
        ),
        Flag::value(
            "--queue-depth",
            "int",
            "admission bound; overflow is shed as `overloaded` (1024)",
        ),
        Flag::value(
            "--max-inflight",
            "int",
            "pipelined responses per connection before backpressure (64)",
        ),
        Flag::value(
            "--conn-limit",
            "int",
            "eval requests per connection, 0 = unlimited (0)",
        ),
        Flag::value(
            "--max-line-bytes",
            "bytes",
            "longest accepted request line (1048576)",
        ),
        Flag::value(
            "--workers",
            "int",
            "engine worker threads, 0 = all cores (0)",
        ),
        Flag::value(
            "--cache-cap",
            "int",
            "engine cache entries per shard, 0 = unbounded (65536)",
        ),
        Flag::value(
            "--store",
            "path",
            "persistent result store: warm-start on boot, spill on compute, snapshot on drain (none)",
        ),
        Flag::value(
            "--metrics-addr",
            "host:port",
            "Prometheus text exposition endpoint; port 0 picks one (disabled)",
        ),
        Flag::value(
            "--obs-window-ms",
            "ms",
            "windowed metric delta resolution for watch/ring (1000)",
        ),
        Flag::value(
            "--shard-id",
            "name",
            "shard identity in the cluster metrics section (listen address)",
        ),
        Flag::value(
            "--replicate-to",
            "host:port",
            "ship store appends to this standby replica listener (requires --store)",
        ),
        Flag::value(
            "--replica-listen",
            "host:port",
            "accept replicated store records here; port 0 picks one (disabled)",
        ),
    ];
    const GROUPS: &'static [&'static [Flag]] = &[Self::FLAGS, JSON_FLAG];

    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut cmd = ServeCmd::default();
        let mut cur = Cursor::new(raw);
        while let Some(flag) = cur.next() {
            match flag {
                "--addr" => cmd.addr = cur.take_value(flag)?,
                "--batch-max" => cmd.batch_max = cur.take_value(flag)?,
                "--flush-us" => cmd.flush_us = cur.take_value(flag)?,
                "--queue-depth" => cmd.queue_depth = cur.take_value(flag)?,
                "--max-inflight" => cmd.max_inflight = cur.take_value(flag)?,
                "--conn-limit" => cmd.conn_limit = cur.take_value(flag)?,
                "--max-line-bytes" => cmd.max_line_bytes = cur.take_value(flag)?,
                "--workers" => cmd.workers = cur.take_value(flag)?,
                "--cache-cap" => cmd.cache_cap = cur.take_value(flag)?,
                "--store" => cmd.store = Some(cur.take_value(flag)?),
                "--metrics-addr" => cmd.metrics_addr = Some(cur.take_value(flag)?),
                "--obs-window-ms" => cmd.obs_window_ms = cur.take_value(flag)?,
                "--shard-id" => cmd.shard_id = Some(cur.take_value(flag)?),
                "--replicate-to" => cmd.replicate_to = Some(cur.take_value(flag)?),
                "--replica-listen" => cmd.replica_listen = Some(cur.take_value(flag)?),
                "--json" => cmd.json = true,
                other => return Err(unknown_flag(other, Self::GROUPS)),
            }
        }
        Ok(cmd)
    }

    fn config(&self) -> ServeConfig {
        ServeConfig {
            addr: self.addr.clone(),
            batch_max: self.batch_max,
            flush_interval: Duration::from_micros(self.flush_us),
            queue_depth: self.queue_depth,
            max_inflight_per_conn: self.max_inflight,
            max_requests_per_conn: self.conn_limit,
            max_line_bytes: self.max_line_bytes,
            handle_signals: true,
            metrics_addr: self.metrics_addr.clone(),
            obs_window: Duration::from_millis(self.obs_window_ms.max(1)),
            shard_id: self.shard_id.clone(),
            replicate_to: self.replicate_to.clone(),
            replica_listen: self.replica_listen.clone(),
        }
    }

    fn run(&self) -> Result<(), String> {
        let mut engine = if self.workers == 0 {
            Engine::new()
        } else {
            Engine::with_workers(self.workers)
        };
        if self.cache_cap > 0 {
            engine = engine.with_cache_capacity(self.cache_cap);
        }
        if let Some(path) = &self.store {
            engine = engine
                .with_store(path)
                .map_err(|e| format!("cannot open store {path}: {e}"))?;
        }
        let server = Server::bind(self.config(), Arc::new(engine))
            .map_err(|e| format!("cannot bind {}: {e}", self.addr))?;
        let addr = server.local_addr();
        let metrics_addr = server.metrics_local_addr();
        let replica_addr = server.replica_local_addr();
        let handle = server.handle();
        if self.json {
            let mut fields = vec![
                ("event".into(), "listening".into()),
                ("addr".into(), Json::Str(addr.to_string())),
                ("batch_max".into(), self.batch_max.into()),
                ("flush_us".into(), self.flush_us.into()),
                ("queue_depth".into(), self.queue_depth.into()),
            ];
            if let Some(m) = metrics_addr {
                fields.push(("metrics_addr".into(), Json::Str(m.to_string())));
            }
            if let Some(r) = replica_addr {
                fields.push(("replica_addr".into(), Json::Str(r.to_string())));
            }
            println!("{}", Json::obj(fields).render());
        } else {
            println!(
                "listening on {addr}  (batch-max {}, flush {} µs, queue {})",
                self.batch_max, self.flush_us, self.queue_depth
            );
            if let Some(m) = metrics_addr {
                println!("metrics exposition on http://{m}/metrics");
            }
            if let Some(r) = replica_addr {
                println!("replica listener on {r}");
            }
        }
        server.run().map_err(|e| e.to_string())?;
        let metrics = handle.metrics();
        if self.json {
            println!(
                "{}",
                Json::obj(vec![
                    ("event".into(), "stopped".into()),
                    ("evaluated".into(), metrics.evaluated.get().into()),
                    (
                        "batches_flushed".into(),
                        metrics.batches_flushed.get().into()
                    ),
                    (
                        "coalescing_factor".into(),
                        metrics.coalescing_factor().into()
                    ),
                    ("shed".into(), metrics.shed.get().into()),
                    ("rejected".into(), metrics.rejected.get().into()),
                    (
                        "connections_total".into(),
                        metrics.connections_total.get().into()
                    ),
                ])
                .render()
            );
        } else {
            println!(
                "stopped: {} requests in {} batches (coalescing {:.2}x), {} shed, {} rejected, {} connections",
                metrics.evaluated.get(),
                metrics.batches_flushed.get(),
                metrics.coalescing_factor(),
                metrics.shed.get(),
                metrics.rejected.get(),
                metrics.connections_total.get(),
            );
        }
        Ok(())
    }
}

/// `groupdet route` — front a cluster of `groupdet serve` shards with a
/// consistent-hashing router (health checks, retries, breakers,
/// standby failover).
#[derive(Debug, Clone)]
struct RouteCmd {
    addr: String,
    shards: Vec<String>,
    standbys: Vec<(usize, String)>,
    vnodes: usize,
    retries: u32,
    backoff_ms: u64,
    breaker_threshold: u32,
    breaker_cooldown_ms: u64,
    heartbeat_ms: u64,
    heartbeat_misses: u32,
    upstream_timeout_ms: u64,
    json: bool,
}

impl Default for RouteCmd {
    fn default() -> Self {
        let defaults = RouterConfig::default();
        RouteCmd {
            addr: "127.0.0.1:7272".to_string(),
            shards: Vec::new(),
            standbys: Vec::new(),
            vnodes: defaults.virtual_nodes,
            retries: defaults.retries,
            backoff_ms: defaults.backoff_base.as_millis() as u64,
            breaker_threshold: defaults.breaker_threshold,
            breaker_cooldown_ms: defaults.breaker_cooldown.as_millis() as u64,
            heartbeat_ms: defaults.heartbeat_interval.as_millis() as u64,
            heartbeat_misses: defaults.heartbeat_misses,
            upstream_timeout_ms: defaults.upstream_timeout.as_millis() as u64,
            json: false,
        }
    }
}

impl RouteCmd {
    const FLAGS: &'static [Flag] = &[
        Flag::value(
            "--addr",
            "host:port",
            "listen address; port 0 picks one (127.0.0.1:7272)",
        ),
        Flag::value(
            "--shard",
            "host:port",
            "shard serving address; repeatable, slot order (required)",
        ),
        Flag::value(
            "--standby",
            "slot:host:port",
            "warm standby for a slot, e.g. 0:127.0.0.1:7080; repeatable",
        ),
        Flag::value("--vnodes", "int", "hash-ring points per shard (64)"),
        Flag::value(
            "--retries",
            "int",
            "transport retries per request after the first attempt (3)",
        ),
        Flag::value("--backoff-ms", "ms", "first retry backoff, doubling (10)"),
        Flag::value(
            "--breaker-threshold",
            "int",
            "consecutive failures that open a slot's circuit breaker (3)",
        ),
        Flag::value(
            "--breaker-cooldown-ms",
            "ms",
            "how long an open breaker sheds before half-opening (1000)",
        ),
        Flag::value("--heartbeat-ms", "ms", "shard health-check cadence (500)"),
        Flag::value(
            "--heartbeat-misses",
            "int",
            "consecutive misses that declare a shard dead (3)",
        ),
        Flag::value(
            "--upstream-timeout-ms",
            "ms",
            "bound on every upstream socket operation (10000)",
        ),
    ];
    const GROUPS: &'static [&'static [Flag]] = &[Self::FLAGS, JSON_FLAG];

    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut cmd = RouteCmd::default();
        let mut cur = Cursor::new(raw);
        while let Some(flag) = cur.next() {
            match flag {
                "--addr" => cmd.addr = cur.take_value(flag)?,
                "--shard" => cmd.shards.push(cur.take_value(flag)?),
                "--standby" => {
                    let spec: String = cur.take_value(flag)?;
                    cmd.standbys.push(Self::parse_standby(&spec)?);
                }
                "--vnodes" => cmd.vnodes = cur.take_value(flag)?,
                "--retries" => cmd.retries = cur.take_value(flag)?,
                "--backoff-ms" => cmd.backoff_ms = cur.take_value(flag)?,
                "--breaker-threshold" => cmd.breaker_threshold = cur.take_value(flag)?,
                "--breaker-cooldown-ms" => cmd.breaker_cooldown_ms = cur.take_value(flag)?,
                "--heartbeat-ms" => cmd.heartbeat_ms = cur.take_value(flag)?,
                "--heartbeat-misses" => cmd.heartbeat_misses = cur.take_value(flag)?,
                "--upstream-timeout-ms" => cmd.upstream_timeout_ms = cur.take_value(flag)?,
                "--json" => cmd.json = true,
                other => return Err(unknown_flag(other, Self::GROUPS)),
            }
        }
        if cmd.shards.is_empty() {
            return Err("route requires at least one --shard <host:port>".to_string());
        }
        for (slot, addr) in &cmd.standbys {
            if *slot >= cmd.shards.len() {
                return Err(format!(
                    "--standby {slot}:{addr} names slot {slot}, but only {} shards are configured",
                    cmd.shards.len()
                ));
            }
        }
        Ok(cmd)
    }

    /// Splits `slot:host:port` at the first colon.
    fn parse_standby(spec: &str) -> Result<(usize, String), String> {
        let (slot, addr) = spec
            .split_once(':')
            .ok_or_else(|| format!("--standby `{spec}` must be slot:host:port"))?;
        let slot: usize = slot
            .parse()
            .map_err(|_| format!("--standby `{spec}`: `{slot}` is not a slot index"))?;
        if addr.is_empty() {
            return Err(format!("--standby `{spec}` must name an address"));
        }
        Ok((slot, addr.to_string()))
    }

    fn config(&self) -> RouterConfig {
        RouterConfig {
            addr: self.addr.clone(),
            shards: self.shards.clone(),
            standbys: self.standbys.clone(),
            virtual_nodes: self.vnodes,
            retries: self.retries,
            backoff_base: Duration::from_millis(self.backoff_ms),
            breaker_threshold: self.breaker_threshold.max(1),
            breaker_cooldown: Duration::from_millis(self.breaker_cooldown_ms),
            heartbeat_interval: Duration::from_millis(self.heartbeat_ms.max(1)),
            heartbeat_misses: self.heartbeat_misses.max(1),
            upstream_timeout: Duration::from_millis(self.upstream_timeout_ms.max(1)),
            handle_signals: true,
            ..RouterConfig::default()
        }
    }

    fn run(&self) -> Result<(), String> {
        let router = Router::bind(self.config())
            .map_err(|e| format!("cannot bind {}: {e}", self.addr))?;
        let addr = router.local_addr();
        if self.json {
            println!(
                "{}",
                Json::obj(vec![
                    ("event".into(), "listening".into()),
                    ("addr".into(), Json::Str(addr.to_string())),
                    ("shards".into(), self.shards.len().into()),
                    ("standbys".into(), self.standbys.len().into()),
                ])
                .render()
            );
        } else {
            println!(
                "routing on {addr} across {} shards ({} standbys)",
                self.shards.len(),
                self.standbys.len()
            );
        }
        router.run().map_err(|e| e.to_string())?;
        if self.json {
            println!(
                "{}",
                Json::obj(vec![("event".into(), "stopped".into())]).render()
            );
        } else {
            println!("stopped");
        }
        Ok(())
    }
}

/// `groupdet store <info|verify|compact|warm>` — operate on a persistent
/// result store without starting a server.
#[derive(Debug)]
struct StoreCmd {
    action: String,
    path: String,
    params: ParamArgs,
    n_start: usize,
    n_end: usize,
    n_step: usize,
    json: bool,
}

impl StoreCmd {
    const ACTIONS: &'static [&'static str] = &["info", "verify", "compact", "warm"];
    const FLAGS: &'static [Flag] = &[
        Flag::value("--path", "file", "store file to operate on (required)"),
        Flag::value("--n-start", "int", "first sensor count warmed (60)"),
        Flag::value("--n-end", "int", "last sensor count warmed (240)"),
        Flag::value("--n-step", "int", "warm sweep step (30)"),
    ];
    const GROUPS: &'static [&'static [Flag]] = &[ParamArgs::FLAGS, Self::FLAGS, JSON_FLAG];

    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut cur = Cursor::new(raw);
        let action = match cur.next() {
            Some(a) if Self::ACTIONS.contains(&a) => a.to_string(),
            Some(other) => {
                return Err(format!(
                    "unknown store action `{other}` (expected info, verify, compact, or warm)"
                ))
            }
            None => {
                return Err(
                    "store requires an action: info, verify, compact, or warm".to_string()
                )
            }
        };
        let mut cmd = StoreCmd {
            action,
            path: String::new(),
            params: ParamArgs::default(),
            n_start: 60,
            n_end: 240,
            n_step: 30,
            json: false,
        };
        while let Some(flag) = cur.next() {
            if cmd.params.try_set(flag, &mut cur)? {
                continue;
            }
            match flag {
                "--path" => cmd.path = cur.take_value(flag)?,
                "--n-start" => cmd.n_start = cur.take_value(flag)?,
                "--n-end" => cmd.n_end = cur.take_value(flag)?,
                "--n-step" => cmd.n_step = cur.take_value(flag)?,
                "--json" => cmd.json = true,
                other => return Err(unknown_flag(other, Self::GROUPS)),
            }
        }
        if cmd.path.is_empty() {
            return Err("store requires --path <file>".to_string());
        }
        if cmd.n_step == 0 {
            return Err("--n-step must be positive".to_string());
        }
        if cmd.n_end < cmd.n_start {
            return Err("--n-end must be at least --n-start".to_string());
        }
        Ok(cmd)
    }

    fn run(&self) -> Result<(), String> {
        match self.action.as_str() {
            "info" => self.info(false),
            "verify" => self.info(true),
            "compact" => self.compact(),
            "warm" => self.warm(),
            _ => unreachable!("parse admits only known actions"),
        }
    }

    /// `info` prints the read-only inspection; `verify` additionally exits
    /// nonzero when the log carries torn or corrupt bytes past its valid
    /// prefix.
    fn info(&self, verify: bool) -> Result<(), String> {
        let report =
            gbd_store::Store::inspect(&self.path).map_err(|e| format!("{}: {e}", self.path))?;
        let intact = report.torn_bytes == 0;
        if self.json {
            println!(
                "{}",
                Json::obj(vec![
                    ("command".into(), "store".into()),
                    (
                        "action".into(),
                        if verify { "verify" } else { "info" }.into()
                    ),
                    ("path".into(), Json::Str(self.path.clone())),
                    (
                        "tag".into(),
                        Json::Str(String::from_utf8_lossy(&report.tag).into_owned()),
                    ),
                    ("records".into(), report.records.into()),
                    ("live_entries".into(), report.live_entries.into()),
                    ("valid_bytes".into(), report.valid_bytes.into()),
                    ("torn_bytes".into(), report.torn_bytes.into()),
                    ("intact".into(), intact.into()),
                ])
                .render()
            );
        } else {
            println!("store {}", self.path);
            println!("  tag          = {}", String::from_utf8_lossy(&report.tag));
            println!("  records      = {}", report.records);
            println!("  live entries = {}", report.live_entries);
            println!("  valid bytes  = {}", report.valid_bytes);
            println!("  torn bytes   = {}", report.torn_bytes);
        }
        if verify && !intact {
            return Err(format!(
                "{}: {} torn/corrupt bytes past the valid prefix (recovery will truncate them)",
                self.path, report.torn_bytes
            ));
        }
        Ok(())
    }

    /// Rewrites the log to its live entries via the engine's atomic
    /// snapshot (write temp + rename), dropping duplicate appends.
    fn compact(&self) -> Result<(), String> {
        if !std::path::Path::new(&self.path).exists() {
            return Err(format!("{}: no such store", self.path));
        }
        let engine = Engine::new()
            .with_store(&self.path)
            .map_err(|e| format!("{}: {e}", self.path))?;
        let report = engine
            .snapshot_store()
            .expect("store attached")
            .map_err(|e| e.to_string())?;
        if self.json {
            println!(
                "{}",
                Json::obj(vec![
                    ("command".into(), "store".into()),
                    ("action".into(), "compact".into()),
                    ("path".into(), Json::Str(self.path.clone())),
                    ("bytes_before".into(), report.bytes_before.into()),
                    ("bytes_after".into(), report.bytes_after.into()),
                    ("live_entries".into(), report.live_entries.into()),
                    ("records_dropped".into(), report.records_dropped.into()),
                ])
                .render()
            );
        } else {
            println!(
                "compacted {}: {} -> {} bytes ({} live entries, {} duplicate records dropped)",
                self.path,
                report.bytes_before,
                report.bytes_after,
                report.live_entries,
                report.records_dropped
            );
        }
        Ok(())
    }

    /// Runs an analytical sweep over N against the store, so a later
    /// engine or server boot warm-starts from it. Rows are printed with
    /// full float round-trip precision: two `warm` runs over the same
    /// store (or one cold, one warm) must render identical rows.
    fn warm(&self) -> Result<(), String> {
        let engine = Engine::new()
            .with_store(&self.path)
            .map_err(|e| format!("{}: {e}", self.path))?;
        let counts: Vec<usize> = (self.n_start..=self.n_end).step_by(self.n_step).collect();
        let mut requests = Vec::new();
        for &n in &counts {
            let params = ParamArgs {
                n,
                ..self.params.clone()
            }
            .build()?;
            requests.push(EvalRequest::new(params, BackendSpec::ms_default()));
        }
        let responses = engine.evaluate_batch(&requests);
        if let Some(Err(e)) = engine.sync_store() {
            return Err(format!("store sync failed: {e}"));
        }
        let mut failed = 0usize;
        let mut rows = Vec::new();
        for (&n, response) in counts.iter().zip(&responses) {
            if let Err(e) = &response.outcome {
                failed += 1;
                eprintln!("error: warm request (n={n}): {e}");
            }
            rows.push((n, response.detection_probability()));
        }
        let cache = engine.cache_stats();
        let store = engine.store_stats().expect("store attached");
        if self.json {
            println!(
                "{}",
                Json::obj(vec![
                    ("command".into(), "store".into()),
                    ("action".into(), "warm".into()),
                    ("path".into(), Json::Str(self.path.clone())),
                    ("k".into(), self.params.k.into()),
                    (
                        "rows".into(),
                        Json::Arr(
                            rows.iter()
                                .map(|&(n, p)| {
                                    Json::obj(vec![
                                        ("n".into(), n.into()),
                                        ("p".into(), p.map_or(Json::Null, Json::from)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "store".into(),
                        Json::obj(vec![
                            ("loads".into(), cache.store_loads.into()),
                            ("spills".into(), cache.store_spills.into()),
                            ("loaded_records".into(), store.loaded_records.into()),
                            (
                                "torn_bytes_discarded".into(),
                                store.torn_bytes_discarded.into(),
                            ),
                            ("appended_records".into(), store.appended_records.into()),
                            ("live_entries".into(), store.live_entries.into()),
                            ("file_bytes".into(), store.file_bytes.into()),
                        ]),
                    ),
                ])
                .render()
            );
        } else {
            println!("   N  | P[X >= {}]", self.params.k);
            for (n, p) in &rows {
                match p {
                    Some(p) => println!("  {n:3} |  {p:.6}"),
                    None => println!("  {n:3} |  error"),
                }
            }
            println!(
                "store: {} loaded, {} spilled, {} torn bytes discarded, {} live entries",
                cache.store_loads,
                cache.store_spills,
                store.torn_bytes_discarded,
                store.live_entries
            );
        }
        if failed > 0 {
            return Err(format!("{failed} of {} warm requests failed", counts.len()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Shared output helpers
// ---------------------------------------------------------------------------

fn duration_ms(response: &EvalResponse) -> f64 {
    response.duration.as_secs_f64() * 1e3
}

fn cache_json(response: &EvalResponse) -> Json {
    Json::obj(vec![
        ("hits".into(), response.cache.hits.into()),
        ("misses".into(), response.cache.misses.into()),
    ])
}

fn params_json(params: &SystemParams) -> Json {
    Json::obj(vec![
        ("n".into(), params.n_sensors().into()),
        ("speed".into(), params.speed().into()),
        ("rs".into(), params.sensing_range().into()),
        ("field".into(), params.field_width().into()),
        ("pd".into(), params.pd().into()),
        ("m".into(), params.m_periods().into()),
        ("k".into(), params.k().into()),
    ])
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!(
            "usage: groupdet <analyze|simulate|sweep|caps|design|serve|route|store|help> [options]"
        );
        return ExitCode::FAILURE;
    };
    // Report commands end quietly when their stdout closes (`| head`);
    // serve and route keep SIGPIPE ignored so a closed socket is an error.
    if !matches!(command, "serve" | "route") {
        gbd_serve::signals::default_sigpipe();
    }
    if matches!(command, "help" | "--help" | "-h") {
        print_help();
        return ExitCode::SUCCESS;
    }
    let rest = &args[1..];
    let result = match command {
        "analyze" => AnalyzeCmd::parse(rest).and_then(|cmd| cmd.run()),
        "simulate" => SimulateCmd::parse(rest).and_then(|cmd| cmd.run()),
        "sweep" => SweepCmd::parse(rest).and_then(|cmd| cmd.run()),
        "caps" => CapsCmd::parse(rest).and_then(|cmd| cmd.run()),
        "design" => DesignCmd::parse(rest).and_then(|cmd| cmd.run()),
        "serve" => ServeCmd::parse(rest).and_then(|cmd| cmd.run()),
        "route" => RouteCmd::parse(rest).and_then(|cmd| cmd.run()),
        "store" => StoreCmd::parse(rest).and_then(|cmd| cmd.run()),
        other => Err(unknown_command(other, COMMANDS)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    let mut out = String::from(
        "groupdet — group based detection for sparse sensor networks\n\
         \n\
         commands: analyze | simulate | sweep | caps | design | serve | route | store | help\n\
         \n\
         system parameters (all commands; paper defaults in parentheses):\n",
    );
    render_flags(&mut out, &[ParamArgs::FLAGS]);
    out.push_str("\nanalyze / sweep backend options:\n");
    render_flags(&mut out, &[BackendArgs::FLAGS]);
    out.push_str("\nsimulate / sweep simulation options:\n");
    render_flags(&mut out, &[SimArgs::FLAGS]);
    out.push_str("\nsweep range options:\n");
    render_flags(&mut out, &[SweepCmd::FLAGS]);
    out.push_str(
        "\nserve options (JSON-lines protocol; see docs/SERVING.md; streaming\n\
         detection sessions via stream_open/report/stream_close, see\n\
         docs/STREAMING.md):\n",
    );
    render_flags(&mut out, &[ServeCmd::FLAGS]);
    out.push_str("\nroute options (sharded cluster; see docs/CLUSTER.md):\n");
    render_flags(&mut out, &[RouteCmd::FLAGS]);
    out.push_str(
        "\nstore actions (persistent result store; see docs/STORAGE.md):\n\
         \x20 info | verify | compact | warm\n",
    );
    render_flags(&mut out, &[StoreCmd::FLAGS]);
    out.push_str("\nother options:\n");
    render_flags(&mut out, &[JSON_FLAG, CapsCmd::FLAGS, DesignCmd::FLAGS]);
    out.push_str(
        "\nexamples:\n\
         \x20 groupdet analyze --n 120 --speed 4 --json\n\
         \x20 groupdet analyze --backend exact --n 120\n\
         \x20 groupdet simulate --n 120 --trials 2000 --walk\n\
         \x20 groupdet sweep --k 5 --n-step 60 --trials 2000\n\
         \x20 groupdet caps --eta 0.995\n\
         \x20 groupdet serve --addr 127.0.0.1:0 --batch-max 64 --json\n\
         \x20 groupdet serve --store results/cache.gbdstore\n\
         \x20 groupdet serve --store s0.gbdstore --replicate-to 127.0.0.1:7080\n\
         \x20 groupdet route --shard 127.0.0.1:7171 --shard 127.0.0.1:7172 \\\n\
         \x20                --standby 0:127.0.0.1:7180\n\
         \x20 groupdet store warm --path results/cache.gbdstore --n-step 30\n\
         \x20 groupdet store verify --path results/cache.gbdstore --json",
    );
    println!("{out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn analyze_defaults_are_paper_settings() {
        let cmd = AnalyzeCmd::parse(&[]).unwrap();
        assert_eq!(cmd.params.n, 240);
        assert_eq!(cmd.params.speed, 10.0);
        assert_eq!(cmd.params.k, 5);
        assert_eq!(cmd.params.m, 20);
        assert_eq!(cmd.backend.backend, "ms");
        assert!(!cmd.json);
    }

    #[test]
    fn analyze_flags_override_defaults() {
        let cmd = AnalyzeCmd::parse(&strings(&[
            "--n",
            "60",
            "--speed",
            "4",
            "--k",
            "3",
            "--m",
            "10",
            "--g",
            "2",
            "--gh",
            "4",
            "--backend",
            "t",
            "--max-states",
            "1000",
            "--json",
        ]))
        .unwrap();
        assert_eq!(cmd.params.n, 60);
        assert_eq!(cmd.params.speed, 4.0);
        assert_eq!(cmd.params.k, 3);
        assert_eq!(cmd.params.m, 10);
        assert_eq!(cmd.backend.g, 2);
        assert_eq!(cmd.backend.gh, 4);
        assert_eq!(cmd.backend.backend, "t");
        assert_eq!(cmd.backend.max_states, 1000);
        assert!(cmd.json);
        assert!(matches!(
            cmd.backend.build().unwrap(),
            BackendSpec::T {
                max_states: 1000,
                ..
            }
        ));
    }

    #[test]
    fn simulate_flags_parse() {
        let cmd = SimulateCmd::parse(&strings(&[
            "--trials",
            "500",
            "--seed",
            "7",
            "--walk",
            "--false-alarm",
            "0.01",
            "--awake",
            "0.8",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(cmd.sim.trials, 500);
        assert_eq!(cmd.sim.seed, 7);
        assert!(cmd.sim.walk);
        assert_eq!(cmd.sim.false_alarm, 0.01);
        assert_eq!(cmd.sim.awake, 0.8);
        assert_eq!(cmd.sim.threads, 2);
        let spec = cmd.sim.build();
        assert!(matches!(spec.motion, MotionSpec::RandomWalk { .. }));
        assert_eq!(spec.trials, 500);
    }

    #[test]
    fn sweep_range_flags() {
        let cmd = SweepCmd::parse(&strings(&[
            "--n-start",
            "100",
            "--n-end",
            "200",
            "--n-step",
            "50",
        ]))
        .unwrap();
        assert_eq!(cmd.sensor_counts(), vec![100, 150, 200]);
        assert!(SweepCmd::parse(&strings(&["--n-step", "0"])).is_err());
        assert!(SweepCmd::parse(&strings(&["--n-start", "9", "--n-end", "3"])).is_err());
    }

    #[test]
    fn unknown_flag_suggests_nearest() {
        let err = AnalyzeCmd::parse(&strings(&["--sped", "4"])).unwrap_err();
        assert!(err.contains("did you mean `--speed`"), "{err}");
        let err = SimulateCmd::parse(&strings(&["--trails", "10"])).unwrap_err();
        assert!(err.contains("did you mean `--trials`"), "{err}");
        let err = SweepCmd::parse(&strings(&["--n-stop", "3"])).unwrap_err();
        assert!(err.contains("did you mean"), "{err}");
        let err = ServeCmd::parse(&strings(&["--batchmax", "8"])).unwrap_err();
        assert!(err.contains("did you mean `--batch-max`"), "{err}");
        let err = ServeCmd::parse(&strings(&["--flush-ms", "5"])).unwrap_err();
        assert!(err.contains("did you mean `--flush-us`"), "{err}");
        let err = ServeCmd::parse(&strings(&["--queue-deph", "9"])).unwrap_err();
        assert!(err.contains("did you mean `--queue-depth`"), "{err}");
    }

    #[test]
    fn serve_defaults_and_flags_parse() {
        let cmd = ServeCmd::parse(&[]).unwrap();
        assert_eq!(cmd.addr, "127.0.0.1:7171");
        assert_eq!(cmd.batch_max, 32);
        assert_eq!(cmd.flush_us, 0);
        assert_eq!(cmd.queue_depth, 1024);
        assert_eq!(cmd.conn_limit, 0);
        assert_eq!(cmd.cache_cap, 1 << 16);
        assert!(!cmd.json);
        let cmd = ServeCmd::parse(&strings(&[
            "--addr",
            "0.0.0.0:0",
            "--batch-max",
            "8",
            "--flush-us",
            "250",
            "--queue-depth",
            "16",
            "--max-inflight",
            "4",
            "--conn-limit",
            "100",
            "--max-line-bytes",
            "4096",
            "--workers",
            "2",
            "--cache-cap",
            "0",
            "--json",
        ]))
        .unwrap();
        assert_eq!(cmd.addr, "0.0.0.0:0");
        assert_eq!(cmd.batch_max, 8);
        assert_eq!(cmd.flush_us, 250);
        assert_eq!(cmd.queue_depth, 16);
        assert_eq!(cmd.max_inflight, 4);
        assert_eq!(cmd.conn_limit, 100);
        assert_eq!(cmd.max_line_bytes, 4096);
        assert_eq!(cmd.workers, 2);
        assert_eq!(cmd.cache_cap, 0);
        assert!(cmd.json);
        let config = cmd.config();
        assert_eq!(config.flush_interval, Duration::from_micros(250));
        assert!(config.handle_signals);
    }

    #[test]
    fn serve_help_defaults_match_the_code() {
        let defaults = ServeCmd::default();
        for (name, value) in [
            ("--batch-max", defaults.batch_max.to_string()),
            ("--flush-us", defaults.flush_us.to_string()),
            ("--queue-depth", defaults.queue_depth.to_string()),
            ("--max-inflight", defaults.max_inflight.to_string()),
            ("--conn-limit", defaults.conn_limit.to_string()),
            ("--max-line-bytes", defaults.max_line_bytes.to_string()),
        ] {
            let flag = ServeCmd::FLAGS.iter().find(|f| f.name == name).unwrap();
            let shown = flag
                .help
                .rsplit_once('(')
                .and_then(|(_, tail)| tail.strip_suffix(')'));
            assert_eq!(shown, Some(value.as_str()), "{name}: {}", flag.help);
        }
    }

    #[test]
    fn unknown_command_suggests_nearest() {
        let err = unknown_command("anlyze", COMMANDS);
        assert!(err.contains("did you mean `analyze`"), "{err}");
    }

    #[test]
    fn value_errors_are_reported() {
        assert!(AnalyzeCmd::parse(&strings(&["--n"])).is_err());
        assert!(AnalyzeCmd::parse(&strings(&["--n", "abc"])).is_err());
        assert!(AnalyzeCmd::parse(&strings(&["--bogus", "1"]))
            .unwrap_err()
            .contains("unknown option"));
    }

    #[test]
    fn params_build_reflects_flags() {
        let cmd =
            AnalyzeCmd::parse(&strings(&["--n", "100", "--field", "10000", "--rs", "500"]))
                .unwrap();
        let p = cmd.params.build().unwrap();
        assert_eq!(p.n_sensors(), 100);
        assert_eq!(p.field_area(), 1e8);
        assert_eq!(p.sensing_range(), 500.0);
    }

    #[test]
    fn invalid_params_rejected_via_fallible_path() {
        let cmd = AnalyzeCmd::parse(&strings(&["--pd", "1.4"])).unwrap();
        assert!(cmd.params.build().is_err());
    }

    #[test]
    fn unknown_backend_rejected() {
        let cmd = AnalyzeCmd::parse(&strings(&["--backend", "magic"])).unwrap();
        assert!(cmd.backend.build().unwrap_err().contains("unknown backend"));
    }

    #[test]
    fn resilience_flags_parse() {
        let cmd = AnalyzeCmd::parse(&strings(&[
            "--backend",
            "s",
            "--deadline-ms",
            "250",
            "--fallback",
            "ms",
            "--fallback",
            "poisson",
        ]))
        .unwrap();
        assert_eq!(cmd.backend.deadline(), Some(Duration::from_millis(250)));
        let chain = cmd.backend.chain().unwrap();
        assert_eq!(chain.primary.name(), "s");
        let names: Vec<_> = chain.fallbacks.iter().map(BackendSpec::name).collect();
        assert_eq!(names, vec!["ms", "poisson"]);
    }

    #[test]
    fn unknown_fallback_rejected() {
        let cmd = AnalyzeCmd::parse(&strings(&["--fallback", "magic"])).unwrap();
        assert!(cmd.backend.chain().unwrap_err().contains("unknown backend"));
    }

    #[test]
    fn store_actions_and_flags_parse() {
        let cmd = StoreCmd::parse(&strings(&["info", "--path", "a.gbdstore"])).unwrap();
        assert_eq!(cmd.action, "info");
        assert_eq!(cmd.path, "a.gbdstore");
        assert!(!cmd.json);
        let cmd = StoreCmd::parse(&strings(&[
            "warm",
            "--path",
            "b.gbdstore",
            "--n-start",
            "90",
            "--n-end",
            "180",
            "--n-step",
            "45",
            "--k",
            "3",
            "--json",
        ]))
        .unwrap();
        assert_eq!(cmd.action, "warm");
        assert_eq!((cmd.n_start, cmd.n_end, cmd.n_step), (90, 180, 45));
        assert_eq!(cmd.params.k, 3);
        assert!(cmd.json);
    }

    #[test]
    fn store_rejects_bad_invocations() {
        assert!(StoreCmd::parse(&[])
            .unwrap_err()
            .contains("requires an action"));
        assert!(StoreCmd::parse(&strings(&["defrag", "--path", "x"]))
            .unwrap_err()
            .contains("unknown store action"));
        assert!(StoreCmd::parse(&strings(&["info"]))
            .unwrap_err()
            .contains("--path"));
        assert!(
            StoreCmd::parse(&strings(&["warm", "--path", "x", "--n-step", "0"]))
                .unwrap_err()
                .contains("--n-step")
        );
        assert!(
            StoreCmd::parse(&strings(&["info", "--path", "x", "--pth", "y"]))
                .unwrap_err()
                .contains("did you mean `--path`")
        );
    }

    #[test]
    fn serve_store_flag_parses() {
        assert_eq!(ServeCmd::parse(&[]).unwrap().store, None);
        let cmd = ServeCmd::parse(&strings(&["--store", "cache.gbdstore", "--json"])).unwrap();
        assert_eq!(cmd.store.as_deref(), Some("cache.gbdstore"));
    }

    #[test]
    fn serve_cluster_flags_parse_into_config() {
        let cmd = ServeCmd::parse(&[]).unwrap();
        assert_eq!(cmd.shard_id, None);
        assert_eq!(cmd.replicate_to, None);
        assert_eq!(cmd.replica_listen, None);
        let cmd = ServeCmd::parse(&strings(&[
            "--shard-id",
            "shard0",
            "--store",
            "s0.gbdstore",
            "--replicate-to",
            "127.0.0.1:7080",
            "--replica-listen",
            "127.0.0.1:0",
        ]))
        .unwrap();
        let config = cmd.config();
        assert_eq!(config.shard_id.as_deref(), Some("shard0"));
        assert_eq!(config.replicate_to.as_deref(), Some("127.0.0.1:7080"));
        assert_eq!(config.replica_listen.as_deref(), Some("127.0.0.1:0"));
        let err = ServeCmd::parse(&strings(&["--replicate-too", "x"])).unwrap_err();
        assert!(err.contains("did you mean `--replicate-to`"), "{err}");
    }

    #[test]
    fn route_flags_parse_into_config() {
        assert!(RouteCmd::parse(&[])
            .unwrap_err()
            .contains("at least one --shard"));
        let cmd = RouteCmd::parse(&strings(&[
            "--addr",
            "127.0.0.1:0",
            "--shard",
            "127.0.0.1:7171",
            "--shard",
            "127.0.0.1:7172",
            "--standby",
            "0:127.0.0.1:7180",
            "--vnodes",
            "16",
            "--retries",
            "5",
            "--backoff-ms",
            "2",
            "--breaker-threshold",
            "2",
            "--breaker-cooldown-ms",
            "100",
            "--heartbeat-ms",
            "50",
            "--heartbeat-misses",
            "2",
            "--upstream-timeout-ms",
            "3000",
            "--json",
        ]))
        .unwrap();
        assert!(cmd.json);
        let config = cmd.config();
        assert_eq!(config.shards.len(), 2);
        assert_eq!(config.standbys, vec![(0, "127.0.0.1:7180".to_string())]);
        assert_eq!(config.virtual_nodes, 16);
        assert_eq!(config.retries, 5);
        assert_eq!(config.backoff_base, Duration::from_millis(2));
        assert_eq!(config.breaker_threshold, 2);
        assert_eq!(config.breaker_cooldown, Duration::from_millis(100));
        assert_eq!(config.heartbeat_interval, Duration::from_millis(50));
        assert_eq!(config.heartbeat_misses, 2);
        assert_eq!(config.upstream_timeout, Duration::from_millis(3000));
        assert!(config.handle_signals);
    }

    #[test]
    fn route_rejects_bad_standbys() {
        assert!(
            RouteCmd::parse(&strings(&["--shard", "a:1", "--standby", "oops"]))
                .unwrap_err()
                .contains("slot:host:port")
        );
        assert!(
            RouteCmd::parse(&strings(&["--shard", "a:1", "--standby", "x:127.0.0.1:1"]))
                .unwrap_err()
                .contains("not a slot index")
        );
        assert!(
            RouteCmd::parse(&strings(&["--shard", "a:1", "--standby", "3:127.0.0.1:1"]))
                .unwrap_err()
                .contains("only 1 shards"),
        );
        assert!(
            RouteCmd::parse(&strings(&["--shard", "a:1", "--standby", "0:"]))
                .unwrap_err()
                .contains("must name an address")
        );
    }

    #[test]
    fn retries_flag_builds_a_policy() {
        let cmd = SimulateCmd::parse(&strings(&["--retries", "2"])).unwrap();
        assert_eq!(cmd.sim.retry_policy(), Some(RetryPolicy::new(2)));
        assert_eq!(SimulateCmd::parse(&[]).unwrap().sim.retry_policy(), None);
    }
}
