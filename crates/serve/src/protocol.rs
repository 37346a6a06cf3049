//! The JSON-lines wire protocol: one request object per line in, one
//! response object per line out.
//!
//! Requests map 1:1 onto [`gbd_engine::EvalRequest`] — backend selection,
//! fallback chains, deadlines, and sim retries all cross the wire. Parsing
//! is strict: unknown fields, wrong types, and duplicate keys are rejected
//! with a [`ErrorCode::BadRequest`] carrying the offending detail, so a
//! client typo cannot silently evaluate the wrong operating point.
//!
//! See `docs/SERVING.md` for the full schema reference.

use crate::json::Json;
use gbd_core::ms_approach::MsOptions;
use gbd_core::params::SystemParams;
use gbd_core::s_approach::SOptions;
use gbd_engine::{
    BackendSpec, EvalError, EvalOptions, EvalRequest, EvalResponse, RetryPolicy, SimulationSpec,
};
use gbd_field::sensor::SensorId;
use gbd_geometry::point::Point;
use gbd_sim::config::{BoundaryPolicy, DeploymentSpec, MotionSpec};
use gbd_stream::{DetectionReport, ReportKind};
use std::time::Duration;

/// Paper-default system parameters a request's `params` object overrides
/// field by field (the same defaults the CLI uses).
pub mod defaults {
    /// Square field side in meters.
    pub const FIELD_M: f64 = 32_000.0;
    /// Deployed sensors.
    pub const N_SENSORS: usize = 240;
    /// Sensing range in meters.
    pub const SENSING_RANGE_M: f64 = 1_000.0;
    /// Target speed in m/s.
    pub const SPEED_MPS: f64 = 10.0;
    /// Period length in seconds.
    pub const PERIOD_S: f64 = 60.0;
    /// Per-period detection probability.
    pub const PD: f64 = 0.9;
    /// Observation periods.
    pub const M_PERIODS: usize = 20;
    /// Report threshold.
    pub const K: usize = 5;
}

/// Machine-readable error classes of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line failed to parse or validate.
    BadRequest,
    /// The request line exceeded the configured byte limit.
    LineTooLong,
    /// The admission queue was full; the request was shed unevaluated.
    Overloaded,
    /// The server is draining; no new requests are admitted.
    ShuttingDown,
    /// The connection reached its configured per-connection request limit.
    ConnLimit,
    /// The backend (and every fallback) rejected the request or failed.
    EvalFailed,
    /// The request's evaluation panicked (isolated to this request).
    WorkerPanicked,
    /// The request's deadline passed before evaluation finished.
    DeadlineExceeded,
    /// The shard this request hashes to is down and no standby could
    /// serve it; the request was shed unevaluated and is safe to retry.
    ShardUnavailable,
}

impl ErrorCode {
    /// The stable string clients match on.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::LineTooLong => "line_too_long",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::ConnLimit => "conn_limit",
            ErrorCode::EvalFailed => "eval_failed",
            ErrorCode::WorkerPanicked => "worker_panicked",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::ShardUnavailable => "shard_unavailable",
        }
    }
}

/// A selectable section of the `metrics` verb's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Server counters: admission, batching, connections, per-verb counts.
    Server,
    /// Engine cache counters.
    Cache,
    /// Persistent-store status.
    Store,
    /// Latency/queue-wait/compute and per-backend histograms.
    Histograms,
    /// Cluster membership: shard identity and store replication. Rendered
    /// only when requested explicitly, so the default payload keeps its
    /// pre-cluster shape.
    Cluster,
    /// Streaming detection sessions: open sessions, reports ingested,
    /// live/expired/evicted tracks, events emitted, report→event latency.
    /// Rendered only when requested explicitly, like [`Section::Cluster`].
    Stream,
}

impl Section {
    /// Parses a wire section name.
    pub fn from_name(name: &str) -> Option<Section> {
        match name {
            "server" => Some(Section::Server),
            "cache" => Some(Section::Cache),
            "store" => Some(Section::Store),
            "histograms" => Some(Section::Histograms),
            "cluster" => Some(Section::Cluster),
            "stream" => Some(Section::Stream),
            _ => None,
        }
    }
}

/// What a well-formed request line asks the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Verb {
    /// Evaluate one detection-probability request through the engine.
    Eval(Box<EvalRequest>),
    /// Report the versioned metrics payload (selected [`Section`]s; empty
    /// means all).
    Metrics {
        /// Requested sections; empty selects every section.
        sections: Vec<Section>,
    },
    /// Stream windowed metric deltas until cancelled or disconnected.
    Watch {
        /// Stop after this many windows; 0 streams until `unwatch` or
        /// disconnect.
        windows: u64,
        /// Replay the retained window ring before streaming live windows.
        replay: bool,
    },
    /// Cancel every `watch` stream on this connection.
    Unwatch,
    /// Liveness probe; answers immediately, bypassing the coalescer.
    Ping,
    /// Begin graceful shutdown (drain in-flight batches, then exit).
    Shutdown,
    /// Open a streaming detection session on this connection.
    StreamOpen(Box<StreamOpenSpec>),
    /// Ingest a batch of node reports into this connection's open session.
    Report {
        /// The batched reports (kind is always `TrueDetection` on the wire:
        /// a base station has no ground truth — filtering clutter is the
        /// detector's job).
        reports: Vec<DetectionReport>,
    },
    /// Close this connection's open streaming session.
    StreamClose,
}

/// Parameters of a `stream_open` request: the system parameters define the
/// velocity-feasibility rule (`speed`, `period_s`, `rs`), the group size
/// `k`, and the window `m`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOpenSpec {
    /// System parameters (same `params` object as `eval`).
    pub params: SystemParams,
    /// Whether track distances wrap around the field torus (matches the
    /// simulator's default boundary policy).
    pub torus: bool,
    /// Cap on live DP entries for the session; 0 selects the default.
    pub max_tracks: usize,
}

/// A parsed request line: client-chosen correlation id plus the verb.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Echoed verbatim on the response so clients can pipeline.
    pub id: u64,
    /// The requested operation.
    pub verb: Verb,
}

/// A request rejection, carrying whatever id could be salvaged.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// The request's `id` if it parsed far enough to extract one.
    pub id: Option<u64>,
    /// Machine-readable class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// Parses one request line into an [`Envelope`].
///
/// # Errors
///
/// Returns a [`WireError`] (always [`ErrorCode::BadRequest`] from this
/// function) naming the first malformed field; the error echoes the `id`
/// when the line parsed far enough to contain a valid one.
pub fn parse_line(line: &str) -> Result<Envelope, WireError> {
    let root = Json::parse(line).map_err(|e| WireError {
        id: None,
        code: ErrorCode::BadRequest,
        message: format!("invalid JSON: {e}"),
    })?;
    // Salvage the id before strict validation so even a rejected request
    // gets a correlatable error.
    let salvaged_id = root.get("id").and_then(Json::as_u64);
    let fail = |message: String| WireError {
        id: salvaged_id,
        code: ErrorCode::BadRequest,
        message,
    };
    if !matches!(root, Json::Obj(_)) {
        return Err(fail("request must be a JSON object".to_string()));
    }
    let id = match root.get("id") {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| fail("`id` must be a non-negative integer".to_string()))?,
        None => return Err(fail("missing `id`".to_string())),
    };
    let verb_name = match root.get("verb") {
        Some(v) => v
            .as_str()
            .ok_or_else(|| fail("`verb` must be a string".to_string()))?,
        None => return Err(fail("missing `verb`".to_string())),
    };
    let verb = match verb_name {
        "eval" => {
            check_fields(
                &root,
                &["id", "verb", "params", "backend", "fallbacks", "options"],
            )
            .map_err(&fail)?;
            let request = parse_eval(&root).map_err(&fail)?;
            Verb::Eval(Box::new(request))
        }
        "metrics" => {
            check_fields(&root, &["id", "verb", "sections"]).map_err(&fail)?;
            let sections = match root.get("sections") {
                None => Vec::new(),
                Some(list) => {
                    let items = list
                        .as_arr()
                        .ok_or_else(|| fail("`sections` must be an array".to_string()))?;
                    items
                        .iter()
                        .map(|v| {
                            v.as_str().and_then(Section::from_name).ok_or_else(|| {
                                fail(
                                    "`sections` entries must be one of: server, cache, \
                                         store, histograms, cluster, stream"
                                        .to_string(),
                                )
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?
                }
            };
            Verb::Metrics { sections }
        }
        "watch" => {
            check_fields(&root, &["id", "verb", "windows", "replay"]).map_err(&fail)?;
            Verb::Watch {
                windows: get_u64(&root, "windows", 0).map_err(&fail)?,
                replay: get_bool(&root, "replay", false).map_err(&fail)?,
            }
        }
        "stream_open" => {
            check_fields(&root, &["id", "verb", "params", "boundary", "max_tracks"])
                .map_err(&fail)?;
            let params = match root.get("params") {
                None => params_from(&Json::Obj(Vec::new())).map_err(&fail)?,
                Some(obj) => params_from(obj).map_err(&fail)?,
            };
            let torus = match root.get("boundary").map(Json::as_str) {
                None | Some(Some("torus")) => true,
                Some(Some("bounded")) => false,
                Some(_) => {
                    return Err(fail(
                        "`boundary` must be \"bounded\" or \"torus\"".to_string(),
                    ))
                }
            };
            Verb::StreamOpen(Box::new(StreamOpenSpec {
                params,
                torus,
                max_tracks: get_usize(&root, "max_tracks", 0).map_err(&fail)?,
            }))
        }
        "report" => {
            check_fields(&root, &["id", "verb", "reports"]).map_err(&fail)?;
            let items = root
                .get("reports")
                .and_then(Json::as_arr)
                .ok_or_else(|| fail("`reports` must be an array".to_string()))?;
            let reports = items
                .iter()
                .map(parse_report)
                .collect::<Result<Vec<_>, _>>()
                .map_err(&fail)?;
            Verb::Report { reports }
        }
        "ping" | "shutdown" | "unwatch" | "stream_close" => {
            check_fields(&root, &["id", "verb"]).map_err(&fail)?;
            match verb_name {
                "ping" => Verb::Ping,
                "unwatch" => Verb::Unwatch,
                "stream_close" => Verb::StreamClose,
                _ => Verb::Shutdown,
            }
        }
        other => {
            return Err(fail(format!(
                "unknown verb `{other}` (expected eval, metrics, watch, unwatch, ping, \
                 shutdown, stream_open, report, or stream_close)"
            )))
        }
    };
    Ok(Envelope { id, verb })
}

/// Parses one wire report: `{"sensor":<id>,"period":<p>,"x":<m>,"y":<m>}`.
/// All four fields are required — a report with a defaulted position or
/// period would silently corrupt the track state.
fn parse_report(obj: &Json) -> Result<DetectionReport, String> {
    check_fields(obj, &["sensor", "period", "x", "y"])?;
    let sensor = obj
        .get("sensor")
        .and_then(Json::as_usize)
        .ok_or_else(|| "report `sensor` must be a non-negative integer".to_string())?;
    let period = obj
        .get("period")
        .and_then(Json::as_usize)
        .filter(|&p| p > 0)
        .ok_or_else(|| "report `period` must be a positive integer".to_string())?;
    let coord = |key: &str| {
        obj.get(key)
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("report `{key}` must be a finite number"))
    };
    let x = coord("x")?;
    let y = coord("y")?;
    Ok(DetectionReport::new(
        SensorId(sensor),
        period,
        Point::new(x, y),
        ReportKind::TrueDetection,
    ))
}

/// Rejects any object key outside `allowed`, so client typos surface as
/// errors instead of silently evaluating defaults.
fn check_fields(obj: &Json, allowed: &[&str]) -> Result<(), String> {
    let Some(keys) = obj.keys() else {
        return Err("expected a JSON object".to_string());
    };
    for key in keys {
        if !allowed.contains(&key) {
            return Err(format!(
                "unknown field `{key}` (expected one of: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn get_f64(obj: &Json, key: &str, default: f64) -> Result<f64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("`{key}` must be a number")),
    }
}

fn get_usize(obj: &Json, key: &str, default: usize) -> Result<usize, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn get_u64(obj: &Json, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn get_bool(obj: &Json, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("`{key}` must be a boolean")),
    }
}

fn parse_eval(root: &Json) -> Result<EvalRequest, String> {
    let params = match root.get("params") {
        None => params_from(&Json::Obj(Vec::new()))?,
        Some(obj) => params_from(obj)?,
    };
    let backend = match root.get("backend") {
        None => BackendSpec::ms_default(),
        Some(spec) => backend_from(spec)?,
    };
    let fallbacks = match root.get("fallbacks") {
        None => Vec::new(),
        Some(list) => {
            let items = list
                .as_arr()
                .ok_or_else(|| "`fallbacks` must be an array".to_string())?;
            items
                .iter()
                .map(backend_from)
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    let options = match root.get("options") {
        None => EvalOptions::default(),
        Some(obj) => options_from(obj)?,
    };
    Ok(EvalRequest {
        params,
        backend,
        fallbacks,
        options,
    })
}

fn params_from(obj: &Json) -> Result<SystemParams, String> {
    check_fields(
        obj,
        &[
            "field",
            "field_width",
            "field_height",
            "n",
            "rs",
            "speed",
            "period_s",
            "pd",
            "m",
            "k",
        ],
    )?;
    let field = get_f64(obj, "field", defaults::FIELD_M)?;
    let width = get_f64(obj, "field_width", field)?;
    let height = get_f64(obj, "field_height", field)?;
    SystemParams::new(
        width,
        height,
        get_usize(obj, "n", defaults::N_SENSORS)?,
        get_f64(obj, "rs", defaults::SENSING_RANGE_M)?,
        get_f64(obj, "speed", defaults::SPEED_MPS)?,
        get_f64(obj, "period_s", defaults::PERIOD_S)?,
        get_f64(obj, "pd", defaults::PD)?,
        get_usize(obj, "m", defaults::M_PERIODS)?,
        get_usize(obj, "k", defaults::K)?,
    )
    .map_err(|e| format!("invalid params: {e}"))
}

fn backend_from(spec: &Json) -> Result<BackendSpec, String> {
    let kind = spec
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "backend needs a string `kind`".to_string())?;
    match kind {
        "ms" => {
            check_fields(spec, &["kind", "g", "gh", "eps"])?;
            let d = MsOptions::default();
            Ok(BackendSpec::Ms(MsOptions {
                g: get_usize(spec, "g", d.g)?,
                gh: get_usize(spec, "gh", d.gh)?,
                eps: get_f64(spec, "eps", d.eps)?,
            }))
        }
        "s" => {
            check_fields(spec, &["kind", "cap"])?;
            Ok(BackendSpec::S(SOptions {
                cap_sensors: get_usize(spec, "cap", SOptions::default().cap_sensors)?,
            }))
        }
        "exact" => {
            check_fields(spec, &["kind", "cap"])?;
            Ok(BackendSpec::Exact {
                saturation_cap: get_usize(spec, "cap", 0)?,
            })
        }
        "t" => {
            check_fields(spec, &["kind", "g", "gh", "max_states"])?;
            let d = MsOptions::default();
            Ok(BackendSpec::T {
                opts: MsOptions {
                    g: get_usize(spec, "g", d.g)?,
                    gh: get_usize(spec, "gh", d.gh)?,
                    eps: d.eps,
                },
                max_states: get_usize(spec, "max_states", 2_000_000)?,
            })
        }
        "poisson" => {
            check_fields(spec, &["kind"])?;
            Ok(BackendSpec::Poisson)
        }
        "sim" => {
            check_fields(
                spec,
                &[
                    "kind",
                    "trials",
                    "seed",
                    "motion",
                    "boundary",
                    "false_alarm_rate",
                    "awake_probability",
                    "deployment",
                    "threads",
                ],
            )?;
            let d = SimulationSpec::default();
            let motion = match spec.get("motion") {
                None => d.motion,
                Some(m) => motion_from(m)?,
            };
            let boundary = match spec.get("boundary").map(Json::as_str) {
                None => d.boundary,
                Some(Some("bounded")) => BoundaryPolicy::Bounded,
                Some(Some("torus")) => BoundaryPolicy::Torus,
                Some(_) => {
                    return Err("`boundary` must be \"bounded\" or \"torus\"".to_string())
                }
            };
            let deployment = match spec.get("deployment") {
                None => d.deployment,
                Some(dep) => deployment_from(dep)?,
            };
            Ok(BackendSpec::Simulation(SimulationSpec {
                trials: get_u64(spec, "trials", d.trials)?,
                seed: get_u64(spec, "seed", d.seed)?,
                motion,
                boundary,
                false_alarm_rate: get_f64(spec, "false_alarm_rate", d.false_alarm_rate)?,
                awake_probability: get_f64(spec, "awake_probability", d.awake_probability)?,
                deployment,
                threads: get_usize(spec, "threads", d.threads)?,
            }))
        }
        other => Err(format!(
            "unknown backend kind `{other}` (expected ms, s, exact, t, poisson, or sim)"
        )),
    }
}

fn motion_from(m: &Json) -> Result<MotionSpec, String> {
    let kind = m
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "motion needs a string `kind`".to_string())?;
    match kind {
        "straight" => {
            check_fields(m, &["kind"])?;
            Ok(MotionSpec::Straight)
        }
        "random_walk" => {
            check_fields(m, &["kind", "max_turn"])?;
            Ok(MotionSpec::RandomWalk {
                max_turn: get_f64(m, "max_turn", std::f64::consts::FRAC_PI_4)?,
            })
        }
        "varying_speed" => {
            check_fields(m, &["kind", "v_min", "v_max"])?;
            Ok(MotionSpec::VaryingSpeed {
                v_min: get_f64(m, "v_min", 5.0)?,
                v_max: get_f64(m, "v_max", 15.0)?,
            })
        }
        other => Err(format!(
            "unknown motion kind `{other}` (expected straight, random_walk, or varying_speed)"
        )),
    }
}

fn deployment_from(dep: &Json) -> Result<DeploymentSpec, String> {
    let kind = dep
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "deployment needs a string `kind`".to_string())?;
    match kind {
        "uniform" => {
            check_fields(dep, &["kind"])?;
            Ok(DeploymentSpec::UniformRandom)
        }
        "grid" => {
            check_fields(dep, &["kind", "jitter"])?;
            Ok(DeploymentSpec::Grid {
                jitter: get_f64(dep, "jitter", 0.0)?,
            })
        }
        other => Err(format!(
            "unknown deployment kind `{other}` (expected uniform or grid)"
        )),
    }
}

fn options_from(obj: &Json) -> Result<EvalOptions, String> {
    check_fields(obj, &["k_values", "bypass_cache", "deadline_ms", "retry"])?;
    let k_values = match obj.get("k_values") {
        None => Vec::new(),
        Some(list) => list
            .as_arr()
            .ok_or_else(|| "`k_values` must be an array".to_string())?
            .iter()
            .map(|v| {
                v.as_usize().ok_or_else(|| {
                    "`k_values` entries must be non-negative integers".to_string()
                })
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let deadline = match obj.get("deadline_ms") {
        None => None,
        Some(v) => {
            let ms = v
                .as_f64()
                .filter(|ms| ms.is_finite() && *ms >= 0.0)
                .ok_or_else(|| "`deadline_ms` must be a non-negative number".to_string())?;
            Some(Duration::from_secs_f64(ms / 1_000.0))
        }
    };
    let retry = match obj.get("retry") {
        None => None,
        Some(r) => {
            check_fields(r, &["max_retries", "backoff_ms"])?;
            let max_retries = get_usize(r, "max_retries", 0)?;
            let max_retries = u32::try_from(max_retries)
                .map_err(|_| "`max_retries` too large".to_string())?;
            let policy = RetryPolicy::new(max_retries);
            let policy = match obj.get("retry").and_then(|r| r.get("backoff_ms")) {
                None => policy,
                Some(v) => {
                    let ms = v
                        .as_f64()
                        .filter(|ms| ms.is_finite() && *ms >= 0.0)
                        .ok_or_else(|| {
                            "`backoff_ms` must be a non-negative number".to_string()
                        })?;
                    policy.with_base_backoff(Duration::from_secs_f64(ms / 1_000.0))
                }
            };
            Some(policy)
        }
    };
    Ok(EvalOptions {
        k_values,
        bypass_cache: get_bool(obj, "bypass_cache", false)?,
        deadline,
        retry,
    })
}

/// Renders an engine response as a wire response object.
///
/// Detection probabilities use Rust's shortest round-trip float formatting,
/// so the value a client parses back is bit-identical to what the engine
/// computed.
pub fn render_response(id: u64, response: &EvalResponse) -> Json {
    match &response.outcome {
        Ok(output) => {
            let mut fields = vec![
                ("id".to_string(), Json::Int(id as i64)),
                ("ok".to_string(), Json::Bool(true)),
                ("backend".to_string(), Json::from(response.backend)),
                ("served_by".to_string(), Json::from(response.served_by)),
                ("degraded".to_string(), Json::Bool(response.degraded)),
                (
                    "detection".to_string(),
                    Json::Arr(
                        response
                            .detection
                            .iter()
                            .map(|&(k, p)| Json::Arr(vec![Json::from(k), Json::Num(p)]))
                            .collect(),
                    ),
                ),
                (
                    "duration_us".to_string(),
                    Json::from(response.duration.as_micros() as u64),
                ),
                (
                    "cache".to_string(),
                    Json::obj(vec![
                        ("hits".to_string(), Json::from(response.cache.hits)),
                        ("misses".to_string(), Json::from(response.cache.misses)),
                    ]),
                ),
            ];
            if let Some(sim) = output.simulation() {
                fields.push((
                    "sim".to_string(),
                    Json::obj(vec![
                        ("trials".to_string(), Json::from(sim.trials)),
                        ("detections".to_string(), Json::from(sim.detections)),
                        ("ci_low".to_string(), Json::Num(sim.confidence.lo)),
                        ("ci_high".to_string(), Json::Num(sim.confidence.hi)),
                    ]),
                ));
            }
            Json::Obj(fields)
        }
        Err(error) => {
            let code = match error {
                EvalError::WorkerPanicked { .. } => ErrorCode::WorkerPanicked,
                EvalError::DeadlineExceeded { .. } => ErrorCode::DeadlineExceeded,
                _ => ErrorCode::EvalFailed,
            };
            error_response(Some(id), code, &error.to_string())
        }
    }
}

/// Renders a structured error response; `id` is `null` when the request
/// line was too broken to carry one.
pub fn error_response(id: Option<u64>, code: ErrorCode, message: &str) -> Json {
    Json::obj(vec![
        (
            "id".to_string(),
            id.map_or(Json::Null, |v| Json::Int(v as i64)),
        ),
        ("ok".to_string(), Json::Bool(false)),
        (
            "error".to_string(),
            Json::obj(vec![
                ("code".to_string(), Json::from(code.as_str())),
                ("message".to_string(), Json::from(message)),
            ]),
        ),
    ])
}

/// Renders the `ping` reply.
pub fn pong(id: u64) -> Json {
    Json::obj(vec![
        ("id".to_string(), Json::Int(id as i64)),
        ("ok".to_string(), Json::Bool(true)),
        ("pong".to_string(), Json::Bool(true)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_eval() {
        let env = parse_line(r#"{"id":1,"verb":"eval"}"#).unwrap();
        assert_eq!(env.id, 1);
        let Verb::Eval(req) = env.verb else {
            panic!("expected eval");
        };
        assert_eq!(req.params, SystemParams::paper_defaults());
        assert_eq!(req.backend, BackendSpec::ms_default());
        assert!(req.fallbacks.is_empty());
        assert_eq!(req.options, EvalOptions::default());
    }

    #[test]
    fn parses_full_eval() {
        let line = r#"{"id":9,"verb":"eval",
            "params":{"n":120,"k":3,"m":10,"pd":0.8,"field":16000,"rs":800,"speed":12.5},
            "backend":{"kind":"sim","trials":200,"seed":42,
                       "motion":{"kind":"random_walk","max_turn":0.5},
                       "boundary":"torus","deployment":{"kind":"grid","jitter":0.25},
                       "false_alarm_rate":0.001,"awake_probability":0.95},
            "fallbacks":[{"kind":"ms","g":4,"gh":4},{"kind":"poisson"}],
            "options":{"k_values":[1,3,5],"bypass_cache":true,"deadline_ms":250,
                       "retry":{"max_retries":2,"backoff_ms":1.5}}}"#
            .replace('\n', " ");
        let env = parse_line(&line).unwrap();
        let Verb::Eval(req) = env.verb else {
            panic!("expected eval");
        };
        assert_eq!(req.params.n_sensors(), 120);
        assert_eq!(req.params.k(), 3);
        assert_eq!(req.params.field_width(), 16_000.0);
        let BackendSpec::Simulation(spec) = req.backend else {
            panic!("expected sim backend");
        };
        assert_eq!(spec.trials, 200);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.motion, MotionSpec::RandomWalk { max_turn: 0.5 });
        assert_eq!(spec.boundary, BoundaryPolicy::Torus);
        assert_eq!(spec.deployment, DeploymentSpec::Grid { jitter: 0.25 });
        assert_eq!(req.fallbacks.len(), 2);
        assert_eq!(req.fallbacks[1], BackendSpec::Poisson);
        assert_eq!(req.options.k_values, vec![1, 3, 5]);
        assert!(req.options.bypass_cache);
        assert_eq!(req.options.deadline, Some(Duration::from_millis(250)));
        assert_eq!(
            req.options.retry,
            Some(RetryPolicy::new(2).with_base_backoff(Duration::from_micros(1500)))
        );
    }

    #[test]
    fn parses_control_verbs() {
        assert_eq!(
            parse_line(r#"{"id":3,"verb":"ping"}"#).unwrap().verb,
            Verb::Ping
        );
        assert_eq!(
            parse_line(r#"{"id":4,"verb":"shutdown"}"#).unwrap().verb,
            Verb::Shutdown
        );
        assert_eq!(
            parse_line(r#"{"id":7,"verb":"unwatch"}"#).unwrap().verb,
            Verb::Unwatch
        );
    }

    #[test]
    fn parses_metrics_sections() {
        assert_eq!(
            parse_line(r#"{"id":1,"verb":"metrics"}"#).unwrap().verb,
            Verb::Metrics {
                sections: Vec::new()
            }
        );
        assert_eq!(
            parse_line(r#"{"id":1,"verb":"metrics","sections":["store","server"]}"#)
                .unwrap()
                .verb,
            Verb::Metrics {
                sections: vec![Section::Store, Section::Server]
            }
        );
        for bad in [
            r#"{"id":1,"verb":"metrics","sections":"server"}"#,
            r#"{"id":1,"verb":"metrics","sections":["caches"]}"#,
            r#"{"id":1,"verb":"metrics","section":[]}"#,
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn parses_watch() {
        assert_eq!(
            parse_line(r#"{"id":1,"verb":"watch"}"#).unwrap().verb,
            Verb::Watch {
                windows: 0,
                replay: false
            }
        );
        assert_eq!(
            parse_line(r#"{"id":1,"verb":"watch","windows":5,"replay":true}"#)
                .unwrap()
                .verb,
            Verb::Watch {
                windows: 5,
                replay: true
            }
        );
        for bad in [
            r#"{"id":1,"verb":"watch","windows":-1}"#,
            r#"{"id":1,"verb":"watch","replay":"yes"}"#,
            r#"{"id":1,"verb":"watch","interval_ms":100}"#,
            r#"{"id":1,"verb":"unwatch","windows":1}"#,
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn parses_stream_verbs() {
        let env = parse_line(
            r#"{"id":1,"verb":"stream_open","params":{"k":3,"m":10},"boundary":"bounded","max_tracks":128}"#,
        )
        .unwrap();
        let Verb::StreamOpen(spec) = env.verb else {
            panic!("expected stream_open");
        };
        assert_eq!(spec.params.k(), 3);
        assert_eq!(spec.params.m_periods(), 10);
        assert!(!spec.torus);
        assert_eq!(spec.max_tracks, 128);

        let env = parse_line(r#"{"id":1,"verb":"stream_open"}"#).unwrap();
        let Verb::StreamOpen(spec) = env.verb else {
            panic!("expected stream_open");
        };
        assert!(spec.torus, "torus is the default boundary");
        assert_eq!(spec.max_tracks, 0, "0 selects the server default");

        let env = parse_line(
            r#"{"id":2,"verb":"report","reports":[{"sensor":7,"period":1,"x":100.5,"y":-3.0}]}"#,
        )
        .unwrap();
        let Verb::Report { reports } = env.verb else {
            panic!("expected report");
        };
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].sensor, SensorId(7));
        assert_eq!(reports[0].period, 1);
        assert_eq!(reports[0].position, Point::new(100.5, -3.0));

        assert_eq!(
            parse_line(r#"{"id":3,"verb":"stream_close"}"#)
                .unwrap()
                .verb,
            Verb::StreamClose
        );

        for bad in [
            r#"{"id":1,"verb":"stream_open","boundary":"spherical"}"#,
            r#"{"id":1,"verb":"stream_open","window":5}"#,
            r#"{"id":1,"verb":"report"}"#,
            r#"{"id":1,"verb":"report","reports":{}}"#,
            r#"{"id":1,"verb":"report","reports":[{"sensor":1,"period":0,"x":0,"y":0}]}"#,
            r#"{"id":1,"verb":"report","reports":[{"sensor":1,"period":1,"x":0}]}"#,
            r#"{"id":1,"verb":"report","reports":[{"sensor":1,"period":1,"x":0,"y":0,"kind":"t"}]}"#,
            r#"{"id":1,"verb":"stream_close","force":true}"#,
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn rejects_unknown_fields_with_salvaged_id() {
        let err = parse_line(r#"{"id":7,"verb":"eval","parms":{}}"#).unwrap_err();
        assert_eq!(err.id, Some(7));
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("parms"), "{}", err.message);

        let err = parse_line(r#"{"id":8,"verb":"eval","params":{"nn":1}}"#).unwrap_err();
        assert_eq!(err.id, Some(8));
        assert!(err.message.contains("nn"), "{}", err.message);

        let err = parse_line(r#"{"id":5,"verb":"ping","extra":true}"#).unwrap_err();
        assert_eq!(err.id, Some(5));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "not json",
            "42",
            r#"{"verb":"eval"}"#,
            r#"{"id":1}"#,
            r#"{"id":-1,"verb":"ping"}"#,
            r#"{"id":1.5,"verb":"ping"}"#,
            r#"{"id":1,"verb":"frobnicate"}"#,
            r#"{"id":1,"verb":"stats"}"#,
            r#"{"id":1,"verb":"store"}"#,
            r#"{"id":1,"verb":"eval","params":{"n":-4}}"#,
            r#"{"id":1,"verb":"eval","params":{"pd":1.5}}"#,
            r#"{"id":1,"verb":"eval","backend":{"kind":"warp"}}"#,
            r#"{"id":1,"verb":"eval","backend":"ms"}"#,
            r#"{"id":1,"verb":"eval","options":{"deadline_ms":-5}}"#,
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn error_response_shape() {
        let v = error_response(Some(3), ErrorCode::Overloaded, "queue full");
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        let e = v.get("error").unwrap();
        assert_eq!(e.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(e.get("message").and_then(Json::as_str), Some("queue full"));
        let anon = error_response(None, ErrorCode::BadRequest, "nope");
        assert!(anon.get("id").unwrap().is_null());
    }
}
