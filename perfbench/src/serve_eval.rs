//! `serve_eval`: generator → `groupdet route` → one `groupdet serve --store`
//! shard, two connections with two requests outstanding each. Nine in ten
//! requests repeat a popular design point held in the pre-built store; one
//! in ten is a first-time point the shard computes and spills.

use crate::measure::{Outcome, Phase, Setup, SetupClock, MIN_OPS};
use crate::net::{self, num, Conn, Server};
use crate::trace::Tracer;
use crate::util::{elapsed_between, elapsed_ns, median, p50_us, CpuSet, SplitMix};
use crate::Ctx;
use gbd_core::ms_approach::{analyze, MsOptions};
use gbd_core::params::SystemParams;
use gbd_engine::{BackendSpec, Engine, EvalRequest};
use gbd_serve::protocol::{parse_line, render_response};
use gbd_serve::{Json, Verb};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
/// Requests outstanding per connection. The router forwards one request
/// per connection at a time, so a window above 1 leaves it something to
/// gain from forwarding more; at 4, each host stall delays all eight
/// requests in flight and p99 measures the stalls.
const WINDOW: usize = 2;
/// The store warms N = 60, 62, …, 6000 at the run's design point.
const STORE_N: (usize, usize, usize) = (60, 6000, 2);
const POPULAR: usize = 256;
/// Share of requests that repeat a popular point.
const POPULAR_SHARE: f64 = 0.9;
const WARMUP_PER_CONN: usize = 150;
const SETUPS: usize = 5;
/// Lines per connection in each leg of the router-vs-direct replay.
const LEG_OPS: usize = 1500;
/// Lines the traced run parses, renders and analyzes in-process.
const REPLAY_LINES: usize = 2000;
/// Input pool per measured second: far above today's ~3 000 req/s.
const POOL_PER_S: f64 = 15000.0;
/// Requests answered in the measured phase when the servers' peak RSS is
/// read: about half a 20 s phase today. The shard keeps every first-time
/// point it computes, so a later reading would grow with throughput.
const RSS_AT_OPS: usize = 20_000;

/// A request's design point: a popular grid point, or the j-th first-time
/// point (odd N, so never in the store, and a shifted Pd once the odd N
/// run out, so never repeated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Point {
    Popular(usize),
    First(usize),
}

#[derive(Debug, Clone)]
pub struct Inputs {
    pub design: SystemParams,
    pub popular_n: Vec<usize>,
    pub points: Vec<Point>,
    /// Request lines, newline included; line `i` carries id `i`.
    pub lines: Vec<String>,
}

impl Inputs {
    fn params(&self, point: Point) -> SystemParams {
        match point {
            Point::Popular(i) => self.design.with_n_sensors(self.popular_n[i]),
            Point::First(j) => {
                let odd = (STORE_N.1 - STORE_N.0) / 2;
                self.design
                    .with_n_sensors(STORE_N.0 + 1 + 2 * (j % odd))
                    .with_pd(self.design.pd() - 1e-4 * (j / odd) as f64)
            }
        }
    }

    /// Share of the first `count` lines that repeat an earlier line's point.
    pub fn repeat_share(&self, count: usize) -> f64 {
        let mut seen = std::collections::HashSet::new();
        let repeats = self.points[..count]
            .iter()
            .filter(|p| !seen.insert(**p))
            .count();
        repeats as f64 / count.max(1) as f64
    }
}

fn line(id: usize, p: &SystemParams) -> String {
    let params = Json::obj(vec![
        ("n".to_string(), Json::from(p.n_sensors())),
        ("m".to_string(), Json::from(p.m_periods())),
        ("k".to_string(), Json::from(p.k())),
        ("pd".to_string(), Json::Num(p.pd())),
        ("speed".to_string(), Json::Num(p.speed())),
    ]);
    let mut text = Json::obj(vec![
        ("id".to_string(), Json::from(id)),
        ("verb".to_string(), Json::from("eval")),
        ("params".to_string(), params),
    ])
    .render();
    text.push('\n');
    text
}

pub fn inputs(seed: u64, count: usize) -> Inputs {
    let mut rng = SplitMix::stream(seed, 4);
    // One design for every seed, so the store and the cost of a first-time
    // point do not vary between runs; the seed picks the popular points and
    // the order of requests.
    let design = SystemParams::paper_defaults();
    let grid: Vec<usize> = (STORE_N.0..=STORE_N.1).step_by(STORE_N.2).collect();
    let mut popular_n = Vec::new();
    while popular_n.len() < POPULAR {
        let n = grid[rng.range_usize(0, grid.len() - 1)];
        if !popular_n.contains(&n) {
            popular_n.push(n);
        }
    }
    let mut first = 0;
    let points: Vec<Point> = (0..count)
        .map(|_| {
            if rng.unit() < POPULAR_SHARE {
                Point::Popular(rng.range_usize(0, POPULAR - 1))
            } else {
                first += 1;
                Point::First(first - 1)
            }
        })
        .collect();
    let mut inputs = Inputs {
        design,
        popular_n,
        points,
        lines: Vec::new(),
    };
    inputs.lines = (0..count)
        .map(|i| line(i, &inputs.params(inputs.points[i])))
        .collect();
    inputs
}

/// Writes the store the shard boots over: every grid point at the design,
/// computed on one worker so the file's record order, and so its bytes,
/// depend on the seed alone.
pub fn build_store(design: &SystemParams, path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let engine = Engine::with_workers(1)
        .with_store(path)
        .map_err(|e| format!("store {}: {e}", path.display()))?;
    let grid: Vec<EvalRequest> = (STORE_N.0..=STORE_N.1)
        .step_by(STORE_N.2)
        .map(|n| EvalRequest::new(design.with_n_sensors(n), BackendSpec::ms_default()))
        .collect();
    if engine
        .evaluate_batch(&grid)
        .iter()
        .any(|r| r.outcome.is_err())
    {
        return Err("store warm-up request failed".to_string());
    }
    match engine.sync_store() {
        Some(Ok(())) => Ok(()),
        Some(Err(e)) => Err(format!("store sync: {e}")),
        None => Err("store not attached".to_string()),
    }
}

/// The lines connection `c` sends, in order.
fn conn_lines(c: usize, total: usize) -> Vec<usize> {
    (c..total).step_by(CONNECTIONS).collect()
}

/// When a closed loop stops sending.
#[derive(Debug, Clone, Copy)]
struct Stop {
    deadline: Option<Instant>,
    min_ops: usize,
    max_ops: usize,
}

impl Stop {
    fn count(ops: usize) -> Stop {
        Stop {
            deadline: None,
            min_ops: ops,
            max_ops: ops,
        }
    }

    fn reached(&self, sent: usize, now: Instant) -> bool {
        sent >= self.max_ops || (sent >= self.min_ops && self.deadline.is_none_or(|d| now >= d))
    }
}

/// An answered request: its line, when the reply arrived, the latency in
/// ns, and the reply.
type Answer = (usize, Instant, u64, String);

/// What one connection's closed loop saw, and how many requests went
/// unanswered.
#[derive(Debug, Default)]
struct ClientLog {
    answered: Vec<Answer>,
    unanswered: usize,
    error: Option<String>,
}

/// Keeps `WINDOW` requests outstanding on `conn`, sending `lines[seq[..]]`
/// in order; replies come back in request order.
fn closed_loop(
    conn: &mut Conn,
    lines: &[String],
    seq: &[usize],
    stop: Stop,
    tracer: &mut Tracer,
    span: &'static str,
    progress: &AtomicUsize,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut inflight: std::collections::VecDeque<(usize, Instant)> = Default::default();
    let mut next = 0;
    let mut reply = String::new();
    loop {
        let mut pending = Vec::new();
        while inflight.len() + pending.len() < WINDOW
            && next < seq.len()
            && !stop.reached(next, Instant::now())
        {
            if let Err(e) = conn.send(lines[seq[next]].as_bytes()) {
                log.error = Some(format!("send: {e}"));
                break;
            }
            pending.push(seq[next]);
            next += 1;
        }
        if !pending.is_empty() {
            if let Err(e) = conn.flush() {
                log.error = Some(format!("flush: {e}"));
            }
            let sent_at = Instant::now();
            inflight.extend(pending.into_iter().map(|i| (i, sent_at)));
        }
        if log.error.is_some() || inflight.is_empty() {
            break;
        }
        if let Err(e) = conn.recv(&mut reply) {
            log.error = Some(format!("recv: {e}"));
            break;
        }
        let done = Instant::now();
        let Some((line, sent_at)) = inflight.pop_front() else {
            break;
        };
        tracer.record(span, line as u64, None, sent_at, done);
        let latency = u64::try_from((done - sent_at).as_nanos()).unwrap_or(u64::MAX);
        log.answered
            .push((line, done, latency, reply.trim_end().to_string()));
        progress.fetch_add(1, Ordering::Relaxed);
    }
    log.unanswered = inflight.len();
    log
}

/// Runs one closed loop per connection on its own thread; the calling
/// thread samples the servers' CPU meanwhile when given an account.
fn drive(
    conns: &mut [Conn],
    lines: &[String],
    seqs: &[Vec<usize>],
    stop: Stop,
    tracers: &mut [Tracer],
    span: &'static str,
    account: Option<(&mut net::Accounting, &[&Server])>,
) -> Vec<ClientLog> {
    let (finished, done) = mpsc::channel();
    let progress = AtomicUsize::new(0);
    let progress = &progress;
    std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .zip(seqs)
            .zip(tracers.iter_mut())
            .map(|((conn, seq), tracer)| {
                let finished = finished.clone();
                scope.spawn(move || {
                    let log = closed_loop(conn, lines, seq, stop, tracer, span, progress);
                    let _ = finished.send(());
                    log
                })
            })
            .collect();
        // Only the clients hold senders now, so a client that dies ends
        // the sampling too.
        drop(finished);
        if let Some((account, servers)) = account {
            account.sample_until(servers, &done, workers.len(), progress, RSS_AT_OPS);
        }
        workers
            .into_iter()
            .map(|w| {
                w.join().unwrap_or_else(|_| ClientLog {
                    error: Some("client thread panicked".to_string()),
                    ..ClientLog::default()
                })
            })
            .collect()
    })
}

/// A booted shard behind a router, with the generator's connections open
/// and warmed up.
struct Cluster {
    shard: Server,
    router: Server,
    conns: Vec<Conn>,
    boot_ms: f64,
}

fn boot(
    ctx: &Ctx,
    inputs: &Inputs,
    master: &Path,
    cpus: Option<CpuSet>,
) -> Result<(Cluster, Setup), String> {
    let store = ctx.out.join("serve_eval-shard.gbdstore");
    std::fs::copy(master, &store).map_err(|e| format!("copy store: {e}"))?;
    let store_arg = store.to_string_lossy().to_string();
    let clock = SetupClock::start();
    let start = clock.started();
    let shard = Server::spawn(
        &ctx.groupdet,
        &["serve", "--addr", "127.0.0.1:0", "--store", &store_arg],
        "listening on",
        cpus,
    )
    .map_err(|e| format!("spawn shard: {e}"))?;
    net::wait_ping(&shard.addr).map_err(|e| e.to_string())?;
    let boot_ms = start.elapsed().as_secs_f64() * 1e3;
    let router = Server::spawn(
        &ctx.groupdet,
        &["route", "--addr", "127.0.0.1:0", "--shard", &shard.addr],
        "routing on",
        cpus,
    )
    .map_err(|e| format!("spawn router: {e}"))?;
    net::wait_ping(&router.addr).map_err(|e| e.to_string())?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(&router.addr))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("connect router: {e}"))?;
    let seqs: Vec<Vec<usize>> = (0..CONNECTIONS)
        .map(|c| conn_lines(c, CONNECTIONS * WARMUP_PER_CONN))
        .collect();
    let mut off: Vec<Tracer> = (0..CONNECTIONS)
        .map(|_| Tracer::new(false, start))
        .collect();
    let logs = drive(
        &mut conns,
        &inputs.lines,
        &seqs,
        Stop::count(WARMUP_PER_CONN),
        &mut off,
        "warmup",
        None,
    );
    if let Some(e) = logs.iter().find_map(|l| l.error.clone()) {
        return Err(format!("warm-up: {e}"));
    }
    let setup = clock.stop();
    Ok((
        Cluster {
            shard,
            router,
            conns,
            boot_ms,
        },
        setup,
    ))
}

struct Measured {
    phase: Phase,
    setups: Vec<Setup>,
    boot_ms: Vec<f64>,
    /// When the measured phase began.
    started: Instant,
    answered: Vec<Answer>,
    unanswered: usize,
    shard_before: Json,
    shard_after: Json,
    router_before: Json,
    router_after: Json,
    cluster: Cluster,
    tracer: Tracer,
}

fn measure(
    ctx: &Ctx,
    inputs: &Inputs,
    master: &Path,
    traced: bool,
    cpus: Option<CpuSet>,
) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut boot_ms = Vec::new();
    let mut cluster = None;
    for _ in 0..SETUPS {
        drop(cluster.take());
        let (booted, s) = boot(ctx, inputs, master, cpus)?;
        setups.push(s);
        boot_ms.push(booted.boot_ms);
        cluster = Some(booted);
    }
    let mut cluster = cluster.ok_or("no set-up ran")?;
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..CONNECTIONS)
        .map(|_| Tracer::new(traced, epoch))
        .collect();
    let first = CONNECTIONS * WARMUP_PER_CONN;
    let seqs: Vec<Vec<usize>> = (0..CONNECTIONS)
        .map(|c| conn_lines(c, inputs.lines.len())[WARMUP_PER_CONN..].to_vec())
        .collect();
    let shard_before = net::metrics(&cluster.shard.addr).map_err(|e| e.to_string())?;
    let router_before = net::metrics(&cluster.router.addr).map_err(|e| e.to_string())?;
    let servers = [&cluster.shard, &cluster.router];
    let mut account = net::Accounting::start(&servers);
    let started = account.started();
    let stop = Stop {
        deadline: Some(started + Duration::from_secs_f64(ctx.seconds)),
        min_ops: (MIN_OPS as usize).div_ceil(CONNECTIONS),
        max_ops: usize::MAX,
    };
    let logs = drive(
        &mut cluster.conns,
        &inputs.lines,
        &seqs,
        stop,
        &mut tracers,
        "op",
        Some((&mut account, &servers)),
    );
    let mut phase = account.finish(&servers, CONNECTIONS, CONNECTIONS);
    let shard_after = net::metrics(&cluster.shard.addr).map_err(|e| e.to_string())?;
    let router_after = net::metrics(&cluster.router.addr).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new(traced, epoch);
    let mut answered = Vec::new();
    let mut unanswered = 0;
    for (log, t) in logs.into_iter().zip(tracers) {
        if let Some(e) = &log.error {
            eprintln!("serve_eval client: {e}");
        }
        phase.attempted += (log.answered.len() + log.unanswered) as u64;
        unanswered += log.unanswered;
        answered.extend(log.answered);
        tracer.absorb(t);
    }
    if answered.iter().map(|a| a.0).max().unwrap_or(0) + CONNECTIONS >= inputs.lines.len() {
        println!("# warning: request pool exhausted");
    }
    debug_assert!(answered.iter().all(|a| a.0 >= first));
    Ok(Measured {
        phase,
        setups,
        boot_ms,
        started,
        answered,
        unanswered,
        shard_before,
        shard_after,
        router_before,
        router_after,
        cluster,
        tracer,
    })
}

/// The rendered `detection` array of a response line.
fn detection(reply: &str) -> Option<&str> {
    let start = reply.find("\"detection\":")?;
    let end = start + reply[start..].find(",\"duration_us\"")?;
    Some(&reply[start..end])
}

/// Checks every answered line against an in-process engine on the same
/// request and folds wrong answers and store spill errors into `failed`.
fn check(inputs: &Inputs, m: &mut Measured, out: &mut Outcome) {
    let engine = Engine::new();
    let mut expected: HashMap<Point, String> = HashMap::new();
    let mut wanted: Vec<(Point, EvalRequest)> = Vec::new();
    for (line, _, _, _) in &m.answered {
        let point = inputs.points[*line];
        if expected.contains_key(&point) || wanted.iter().any(|(p, _)| *p == point) {
            continue;
        }
        match parse_line(inputs.lines[*line].trim_end()) {
            Ok(envelope) => match envelope.verb {
                Verb::Eval(request) => wanted.push((point, *request)),
                _ => out.error(format!("line {line} is not an eval")),
            },
            Err(e) => out.error(format!("line {line} does not parse: {}", e.message)),
        }
        if wanted.len() >= 512 {
            resolve(&engine, &mut wanted, &mut expected);
        }
    }
    resolve(&engine, &mut wanted, &mut expected);
    let mut wrong = 0;
    let mut answered = Vec::with_capacity(m.answered.len());
    let wall_ns = (m.phase.wall_s * 1e9) as u64;
    m.phase.ops = vec![(wall_ns, u64::MAX); m.unanswered];
    for (line, done, latency, reply) in std::mem::take(&mut m.answered) {
        let id_ok = reply.starts_with(&format!("{{\"id\":{line},\"ok\":true,"));
        let want = expected.get(&inputs.points[line]).map(String::as_str);
        let end = elapsed_between(m.started, done);
        if !id_ok || want.is_none() || detection(&reply) != want {
            wrong += 1;
            if wrong <= 5 {
                out.error(format!(
                    "serve_eval line {line}: got {reply}, want {want:?}"
                ));
            }
            m.phase.ops.push((end, u64::MAX));
            continue;
        }
        m.phase.ops.push((end, latency));
        answered.push((line, done, latency, reply));
    }
    if wrong > 5 {
        out.error(format!("serve_eval: {wrong} wrong answers in all"));
    }
    let spill_errors = num(&m.shard_after, &["metrics", "store", "spill_errors"])
        - num(&m.shard_before, &["metrics", "store", "spill_errors"]);
    m.phase.failed += (m.unanswered + wrong) as u64 + spill_errors.max(0.0) as u64;
    m.answered = answered;
}

fn resolve(
    engine: &Engine,
    wanted: &mut Vec<(Point, EvalRequest)>,
    expected: &mut HashMap<Point, String>,
) {
    let requests: Vec<EvalRequest> = wanted.iter().map(|(_, r)| r.clone()).collect();
    for ((point, _), response) in wanted.drain(..).zip(engine.evaluate_batch(&requests)) {
        let rendered = render_response(0, &response).render();
        if let Some(d) = detection(&rendered) {
            expected.insert(point, d.to_string());
        }
    }
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<crate::Measurements, String> {
    let cpus = net::place_generator().map_err(|e| format!("cpu placement: {e}"))?;
    let count = CONNECTIONS * WARMUP_PER_CONN + (POOL_PER_S * ctx.seconds) as usize;
    let inputs = inputs(ctx.seed, count);
    let master = ctx.out.join("serve_eval-master.gbdstore");
    build_store(&inputs.design, &master)?;
    println!(
        "# inputs: {count} request lines, {} popular points, store of {} bytes",
        POPULAR,
        std::fs::metadata(&master).map_or(0, |m| m.len())
    );
    let mut untraced = measure(ctx, &inputs, &master, false, cpus)?;
    check(&inputs, &mut untraced, out);
    out.add_phase(&untraced.phase);
    let sent = untraced.answered.iter().map(|a| a.0 + 1).max().unwrap_or(0);
    println!(
        "# repeat share: {:.4} of the lines sent repeat an earlier line's design point",
        inputs.repeat_share(sent)
    );
    drop(untraced.cluster);
    if !ctx.trace {
        return Ok(crate::Measurements::untraced(
            untraced.phase,
            untraced.setups,
        ));
    }
    let mut traced = measure(ctx, &inputs, &master, true, cpus)?;
    check(&inputs, &mut traced, out);
    out.add_phase(&traced.phase);
    let replay = layers(&inputs, &mut traced, out)?;
    let mut tracer = std::mem::replace(&mut traced.tracer, Tracer::new(false, Instant::now()));
    tracer.absorb(replay);
    Ok(crate::Measurements {
        untraced: (untraced.phase, untraced.setups),
        traced: Some((traced.phase, traced.setups)),
        tracer,
    })
}

fn layers(inputs: &Inputs, m: &mut Measured, out: &mut Outcome) -> Result<Tracer, String> {
    let mut tracer = Tracer::new(true, m.tracer.epoch());
    let first = CONNECTIONS * WARMUP_PER_CONN;
    let sample = &inputs.lines[first..(first + REPLAY_LINES).min(inputs.lines.len())];

    // Protocol and render, in-process, on the workload's own lines.
    let engine = Engine::new();
    let (mut parse_ns, mut render_ns, mut analyze_ns) = (Vec::new(), Vec::new(), Vec::new());
    for (i, text) in sample.iter().enumerate() {
        let op = (first + i) as u64;
        let t0 = Instant::now();
        let parsed = black_box(parse_line(text.trim_end()));
        parse_ns.push(elapsed_ns(t0));
        tracer.record("serve.parse_line", op, None, t0, Instant::now());
        let Ok(gbd_serve::Envelope {
            verb: Verb::Eval(request),
            ..
        }) = parsed
        else {
            out.error(format!("replayed line {op} does not parse as eval"));
            continue;
        };
        let response = engine.evaluate(&request);
        let t1 = Instant::now();
        black_box(render_response(op, &response).render());
        render_ns.push(elapsed_ns(t1));
        tracer.record("serve.render_response", op, None, t1, Instant::now());
        let t2 = Instant::now();
        black_box(analyze(&request.params, &MsOptions::default()).ok());
        analyze_ns.push(elapsed_ns(t2));
        tracer.record("core.analyze", op, None, t2, Instant::now());
    }

    // The same lines in the same window, once through the router and once
    // straight to the shard, both after the measured phase warmed them.
    let legs: Vec<Vec<usize>> = (0..CONNECTIONS)
        .map(|c| conn_lines(c, inputs.lines.len())[WARMUP_PER_CONN..][..LEG_OPS].to_vec())
        .collect();
    let mut leg_p50 = |addr: &str, name: &'static str| -> Result<f64, String> {
        let mut conns = (0..CONNECTIONS)
            .map(|_| Conn::connect(addr))
            .collect::<io::Result<Vec<_>>>()
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let mut leg_tracers: Vec<Tracer> = (0..CONNECTIONS)
            .map(|_| Tracer::new(true, tracer.epoch()))
            .collect();
        let logs = drive(
            &mut conns,
            &inputs.lines,
            &legs,
            Stop::count(LEG_OPS),
            &mut leg_tracers,
            name,
            None,
        );
        let mut lat: Vec<u64> = Vec::new();
        for log in logs {
            if log.error.is_some() || log.unanswered > 0 {
                return Err(format!("{name} failed: {:?}", log.error));
            }
            lat.extend(log.answered.iter().map(|a| a.2));
        }
        for t in leg_tracers {
            tracer.absorb(t);
        }
        Ok(p50_us(&mut lat))
    };
    let routed = leg_p50(&m.cluster.router.addr, "leg.routed")?;
    let direct = leg_p50(&m.cluster.shard.addr, "leg.direct")?;

    let shard = |path: &[&str]| num(&m.shard_after, path);
    let delta = |path: &[&str]| num(&m.shard_after, path) - num(&m.shard_before, path);
    let rdelta = |key: &str| {
        let path = ["router", "counters", key];
        num(&m.router_after, &path) - num(&m.router_before, &path)
    };
    let hist = |name: &str, q: &str| shard(&["metrics", "histograms", name, q]);
    let batches = delta(&["metrics", "server", "batches_flushed"]).max(1.0);
    let result_hits = m
        .answered
        .iter()
        .filter(|(_, _, _, reply)| net::field_u64(reply, "\"misses\":") == Some(0))
        .count();

    out.metric("core.analyze_us", p50_us(&mut analyze_ns));
    out.metric(
        "engine.result_hit_ratio",
        result_hits as f64 / m.answered.len().max(1) as f64,
    );
    out.metric("store.boot_ms", median(&m.boot_ms));
    out.metric("store.loads", shard(&["metrics", "store", "loads"]));
    out.metric("store.spills", delta(&["metrics", "store", "spills"]));
    out.metric("store.errors", delta(&["metrics", "store", "spill_errors"]));
    out.metric("serve.parse_us", p50_us(&mut parse_ns));
    out.metric("serve.render_us", p50_us(&mut render_ns));
    out.metric("serve.queue_wait_p50_us", hist("queue_wait_us", "p50"));
    out.metric("serve.queue_wait_p99_us", hist("queue_wait_us", "p99"));
    out.metric("serve.compute_p50_us", hist("compute_us", "p50"));
    out.metric("serve.compute_p99_us", hist("compute_us", "p99"));
    out.metric(
        "serve.coalescing_factor",
        delta(&["metrics", "server", "evaluated"]) / batches,
    );
    out.metric(
        "serve.timer_flush_share",
        delta(&["metrics", "server", "flushes_by_timer"]) / batches,
    );
    out.metric(
        "serve.shed",
        delta(&["metrics", "server", "shed"]) + delta(&["metrics", "server", "rejected"]),
    );
    out.metric("serve.transport_p50_us", direct - hist("latency_us", "p50"));
    out.metric("router.added_p50_us", routed - direct);
    out.metric("router.forwarded", rdelta("forwarded"));
    out.metric("router.retries", rdelta("retries"));
    out.metric("router.shed", rdelta("shed"));
    Ok(tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_gives_identical_request_lines() {
        assert_eq!(inputs(7, 5000).lines, inputs(7, 5000).lines);
        assert_ne!(inputs(7, 5000).lines, inputs(8, 5000).lines);
    }

    #[test]
    fn the_store_file_is_byte_identical_across_builds() {
        // The checkout's run scratch directory, which git ignores.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench")
            .join(format!("test-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let design = inputs(7, 10).design;
        let (a, b) = (dir.join("a.gbdstore"), dir.join("b.gbdstore"));
        build_store(&design, &a).unwrap();
        build_store(&design, &b).unwrap();
        let bytes = std::fs::read(&a).unwrap();
        assert!(bytes.len() > 1_000_000, "store holds the warmed grid");
        assert_eq!(bytes, std::fs::read(&b).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn first_time_points_never_repeat_and_miss_the_store() {
        let inputs = inputs(7, 50_000);
        let mut seen = std::collections::HashSet::new();
        for point in &inputs.points {
            if let Point::First(_) = point {
                let p = inputs.params(*point);
                assert!(p.n_sensors() % 2 == 1, "odd N is never warmed");
                assert!(seen.insert((p.n_sensors(), p.pd().to_bits())));
            }
        }
        let share = seen.len() as f64 / inputs.points.len() as f64;
        assert!((share - 0.1).abs() < 0.01, "first-time share {share}");
    }
}
