//! Load generator for the `gbd-serve` JSON-lines protocol.
//!
//! Drives N client threads against a running server (each with a bounded
//! pipelining window, optionally rate-limited), mixes analytical and
//! simulation requests, and reports achieved throughput plus p50/p95/p99
//! latency to stdout and CSV (or JSON with `--json`).
//!
//! ```text
//! groupdet serve --addr 127.0.0.1:0 --json &
//! cargo run --release -p gbd-bench --bin loadgen -- \
//!     --addr 127.0.0.1:<port> --clients 8 --requests 100 --sim-every 10
//! ```
//!
//! `--assert-coalescing` queries the server's `metrics` verb afterwards and
//! fails (exit 1) unless the mean coalesced batch size exceeds 1;
//! `--assert-split` queries the versioned `metrics` verb and fails unless
//! the queue-wait and compute histograms sum (within 25%) to the latency
//! histogram; `--watch-windows n` attaches a streaming `watch` client with
//! replay that reads windows (up to `n` past the ring backlog) until the
//! run's completed requests appear in them, then fails unless the windowed
//! deltas telescope to the lifetime totals and cover the whole run;
//! `--shutdown` sends the `shutdown` verb once done — together
//! they make this the smoke driver used by `scripts/check.sh`.
//!
//! `--warmstart <path>` switches to a self-contained benchmark that
//! ignores `--addr`: it boots an in-process server over a fresh store at
//! `path`, drives the request mix (cold), drains (which snapshots the
//! store), boots a second server over the same store (warm), and replays
//! the identical mix. It fails unless every warm response is bit-identical
//! to its cold counterpart and the warm boot actually loaded records.
//!
//! `--router` points `--addr` at a `gbd-router` front end instead of a
//! single shard. Clients then retry the two retryable error codes
//! (`overloaded`, `shard_unavailable`) with bounded attempts — so a shard
//! killed mid-run (the check.sh chaos stage) costs retries, not wrong
//! answers — and at the end every routed `detection` is compared against
//! an in-process single-server evaluation of the same request shape. The
//! run fails unless all requests were eventually answered bit-identically.
//!
//! `--report-stream` switches to the streaming workload: each client
//! opens a detection session (`stream_open`), replays simulator-generated
//! intruder trials as per-period report bursts — thinned by the delivery
//! ratio the committed `results/comm_burst.csv` measured for the
//! scenario's sensor count, since a sensing burst contends for the radio
//! — and reads back pushed `detection` events, measuring per-event
//! report→detection latency percentiles. `--assert-stream` then queries
//! the server's `stream` metrics section and fails unless every report
//! and event the clients counted is accounted for there, at least one
//! detection fired, and no session was left open.

use gbd_bench::Csv;
use gbd_serve::Json;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Options {
    addr: String,
    clients: usize,
    requests: usize,
    /// Outstanding requests per client connection.
    pipeline: usize,
    /// Target total request rate across all clients (req/s); 0 = unpaced.
    rate: f64,
    /// Every `sim_every`-th request uses the simulation backend (0 = none).
    sim_every: usize,
    /// Trials for simulation requests (kept small: this is a protocol
    /// load test, not a Monte Carlo campaign).
    trials: u64,
    seed: u64,
    out_dir: PathBuf,
    json: bool,
    assert_coalescing: bool,
    /// Assert queue_wait + compute ≈ latency from the `metrics` verb.
    assert_split: bool,
    /// Attach a `watch` client reading this many windowed deltas (0 = off).
    watch_windows: u64,
    shutdown: bool,
    /// Run the self-contained cold-vs-warm store benchmark against this
    /// store path instead of driving `--addr`.
    warmstart: Option<PathBuf>,
    /// Treat `--addr` as a gbd-router front end: retry retryable errors
    /// and verify routed answers bit-identically against a local engine.
    router: bool,
    /// Drive streaming detection sessions instead of eval requests:
    /// each client opens one session and replays `--requests` simulated
    /// intruder trials as per-period report bursts.
    report_stream: bool,
    /// After a `--report-stream` run, verify the server's `stream`
    /// metrics section accounts every report and event.
    assert_stream: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:7171".to_string(),
            clients: 4,
            requests: 64,
            pipeline: 8,
            rate: 0.0,
            sim_every: 0,
            trials: 50,
            seed: 2008,
            out_dir: PathBuf::from("results"),
            json: false,
            assert_coalescing: false,
            assert_split: false,
            watch_windows: 0,
            shutdown: false,
            warmstart: None,
            router: false,
            report_stream: false,
            assert_stream: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen --addr host:port [--clients n] [--requests n] [--pipeline n]\n\
         \x20              [--rate req/s] [--sim-every n] [--trials n] [--seed n]\n\
         \x20              [--out dir] [--json] [--assert-coalescing] [--assert-split]\n\
         \x20              [--watch-windows n] [--shutdown] [--warmstart store-path]\n\
         \x20              [--router] [--report-stream] [--assert-stream]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let value = |args: &[String], i: usize| -> String {
        args.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                opts.addr = value(&args, i);
                i += 2;
            }
            "--clients" => {
                opts.clients = value(&args, i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--requests" => {
                opts.requests = value(&args, i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--pipeline" => {
                opts.pipeline = value(&args, i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--rate" => {
                opts.rate = value(&args, i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--sim-every" => {
                opts.sim_every = value(&args, i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--trials" => {
                opts.trials = value(&args, i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--seed" => {
                opts.seed = value(&args, i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--out" => {
                opts.out_dir = PathBuf::from(value(&args, i));
                i += 2;
            }
            "--json" => {
                opts.json = true;
                i += 1;
            }
            "--assert-coalescing" => {
                opts.assert_coalescing = true;
                i += 1;
            }
            "--assert-split" => {
                opts.assert_split = true;
                i += 1;
            }
            "--watch-windows" => {
                opts.watch_windows = value(&args, i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--shutdown" => {
                opts.shutdown = true;
                i += 1;
            }
            "--warmstart" => {
                opts.warmstart = Some(PathBuf::from(value(&args, i)));
                i += 2;
            }
            "--router" => {
                opts.router = true;
                i += 1;
            }
            "--report-stream" => {
                opts.report_stream = true;
                i += 1;
            }
            "--assert-stream" => {
                opts.assert_stream = true;
                i += 1;
            }
            _ => usage(),
        }
    }
    opts
}

/// Builds the request line for global request number `seq`. Sensor counts
/// cycle over a small set so the engine sees a realistic mix of cache hits
/// and misses; every `sim_every`-th request goes to the simulator.
fn request_line(seq: usize, id: u64, opts: &Options) -> String {
    let n = 60 + 30 * (seq % 7);
    let params = Json::obj(vec![("n".to_string(), Json::from(n))]);
    let mut fields = vec![
        ("id".to_string(), Json::from(id)),
        ("verb".to_string(), Json::from("eval")),
        ("params".to_string(), params),
    ];
    if opts.sim_every > 0 && seq.is_multiple_of(opts.sim_every) {
        fields.push((
            "backend".to_string(),
            Json::obj(vec![
                ("kind".to_string(), Json::from("sim")),
                ("trials".to_string(), Json::from(opts.trials)),
                ("seed".to_string(), Json::from(opts.seed)),
            ]),
        ));
    }
    let mut line = Json::Obj(fields).render();
    line.push('\n');
    line
}

struct ClientResult {
    latencies_us: Vec<u64>,
    ok: u64,
    errors: u64,
    io_failure: bool,
}

/// One closed-loop client: keeps up to `pipeline` requests outstanding,
/// pacing sends to `rate / clients` when a rate is set. Responses arrive
/// in submission order (the server guarantees per-connection ordering), so
/// latency matching is a FIFO.
fn run_client(client: usize, opts: &Options) -> ClientResult {
    let mut result = ClientResult {
        latencies_us: Vec::with_capacity(opts.requests),
        ok: 0,
        errors: 0,
        io_failure: false,
    };
    let Ok(stream) = TcpStream::connect(&opts.addr) else {
        result.io_failure = true;
        return result;
    };
    let Ok(read_half) = stream.try_clone() else {
        result.io_failure = true;
        return result;
    };
    let mut writer = BufWriter::new(stream);
    let mut reader = BufReader::new(read_half);
    let per_client_rate = if opts.rate > 0.0 {
        opts.rate / opts.clients as f64
    } else {
        0.0
    };
    let start = Instant::now();
    let mut inflight: std::collections::VecDeque<Instant> = std::collections::VecDeque::new();
    let mut sent = 0usize;
    let mut received = 0usize;
    let mut line = String::new();
    while received < opts.requests {
        // Fill the window.
        while sent < opts.requests && inflight.len() < opts.pipeline.max(1) {
            if per_client_rate > 0.0 {
                let due = start + Duration::from_secs_f64(sent as f64 / per_client_rate);
                let now = Instant::now();
                if due > now {
                    // Under a rate cap, drain before sleeping so latency
                    // is not inflated by the pacing gap.
                    if !inflight.is_empty() {
                        break;
                    }
                    std::thread::sleep(due - now);
                }
            }
            let seq = client * opts.requests + sent;
            let line = request_line(seq, sent as u64, opts);
            if writer.write_all(line.as_bytes()).is_err() || writer.flush().is_err() {
                result.io_failure = true;
                return result;
            }
            inflight.push_back(Instant::now());
            sent += 1;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => {
                result.io_failure = true;
                return result;
            }
            Ok(_) => {}
        }
        let Some(sent_at) = inflight.pop_front() else {
            result.io_failure = true;
            return result;
        };
        result
            .latencies_us
            .push(u64::try_from(sent_at.elapsed().as_micros()).unwrap_or(u64::MAX));
        match Json::parse(line.trim()) {
            Ok(response) if response.get("ok").and_then(Json::as_bool) == Some(true) => {
                result.ok += 1
            }
            _ => result.errors += 1,
        }
        received += 1;
    }
    result
}

/// The two error codes a client may safely re-send on: backpressure shed
/// (`overloaded`) and a hash slot with no reachable shard mid-failover
/// (`shard_unavailable`). Everything else is a permanent answer.
fn retryable(code: Option<&str>) -> bool {
    matches!(code, Some("overloaded") | Some("shard_unavailable"))
}

/// The request shape `request_line` builds for global sequence `seq`:
/// the sensor count and whether it goes to the simulation backend. Two
/// requests with the same shape must produce bit-identical detections.
fn shape_key(seq: usize, opts: &Options) -> (usize, bool) {
    (
        60 + 30 * (seq % 7),
        opts.sim_every > 0 && seq.is_multiple_of(opts.sim_every),
    )
}

struct RouterClientResult {
    latencies_us: Vec<u64>,
    ok: u64,
    errors: u64,
    /// Re-sends (transport failures + retryable error codes).
    retries: u64,
    /// `(seq, rendered detection)` for every answered request.
    detections: Vec<(usize, String)>,
}

/// One router-mode client: strictly one request in flight, because a
/// request that fails mid-pipeline (shard killed under it) must be
/// re-sent without disturbing its neighbours. Transport failures and
/// retryable error codes re-send the same line with a short ramping
/// sleep — long enough to ride out a breaker cooldown plus failover.
fn run_router_client(client: usize, opts: &Options) -> RouterClientResult {
    const ATTEMPTS: usize = 120;
    let mut result = RouterClientResult {
        latencies_us: Vec::with_capacity(opts.requests),
        ok: 0,
        errors: 0,
        retries: 0,
        detections: Vec::with_capacity(opts.requests),
    };
    let mut conn: Option<(BufWriter<TcpStream>, BufReader<TcpStream>)> = None;
    let per_client_rate = if opts.rate > 0.0 {
        opts.rate / opts.clients as f64
    } else {
        0.0
    };
    let start = Instant::now();
    for i in 0..opts.requests {
        if per_client_rate > 0.0 {
            let due = start + Duration::from_secs_f64(i as f64 / per_client_rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let seq = client * opts.requests + i;
        let line = request_line(seq, i as u64, opts);
        let sent_at = Instant::now();
        let mut answered = false;
        for attempt in 0..ATTEMPTS {
            if attempt > 0 {
                result.retries += 1;
                std::thread::sleep(Duration::from_millis(25 * attempt.min(8) as u64));
            }
            if conn.is_none() {
                conn = TcpStream::connect(&opts.addr).ok().and_then(|stream| {
                    let read_half = stream.try_clone().ok()?;
                    Some((BufWriter::new(stream), BufReader::new(read_half)))
                });
            }
            let Some((writer, reader)) = conn.as_mut() else {
                continue;
            };
            if writer.write_all(line.as_bytes()).is_err() || writer.flush().is_err() {
                conn = None;
                continue;
            }
            let mut reply = String::new();
            match reader.read_line(&mut reply) {
                Ok(n) if n > 0 => {}
                _ => {
                    conn = None;
                    continue;
                }
            }
            let Ok(response) = Json::parse(reply.trim()) else {
                conn = None;
                continue;
            };
            if response.get("ok").and_then(Json::as_bool) == Some(true) {
                let detection = response
                    .get("detection")
                    .map_or_else(|| "missing".to_string(), Json::render);
                result.detections.push((seq, detection));
                result.ok += 1;
                answered = true;
                break;
            }
            let code = response
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str);
            if !retryable(code) {
                break;
            }
        }
        if answered {
            result
                .latencies_us
                .push(u64::try_from(sent_at.elapsed().as_micros()).unwrap_or(u64::MAX));
        } else {
            result.errors += 1;
        }
    }
    result
}

/// Evaluates one representative of every distinct request shape this run
/// will send against an in-process single-server engine — the ground
/// truth the acceptance criterion names — and returns shape → rendered
/// `detection`. Going through a real `gbd-serve` instance (rather than
/// the engine API directly) exercises the identical parse and render
/// path, so equality is bit-identity of the wire text.
fn reference_detections(
    opts: &Options,
) -> Result<std::collections::HashMap<(usize, bool), String>, String> {
    let total = opts.clients * opts.requests;
    let mut seen = std::collections::HashSet::new();
    let mut representatives: Vec<usize> = Vec::new();
    for seq in 0..total {
        if seen.insert(shape_key(seq, opts)) {
            representatives.push(seq);
        }
    }
    let config = gbd_serve::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..gbd_serve::ServeConfig::default()
    };
    let server = gbd_serve::Server::bind(config, Arc::new(gbd_engine::Engine::new()))
        .map_err(|e| format!("cannot bind reference server: {e}"))?;
    let addr = server.local_addr().to_string();
    let run = std::thread::spawn(move || server.run());
    let drive = || -> Result<std::collections::HashMap<(usize, bool), String>, String> {
        let stream =
            TcpStream::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        let mut writer = BufWriter::new(stream);
        let mut reader = BufReader::new(read_half);
        let mut expected = std::collections::HashMap::new();
        for &seq in &representatives {
            let line = request_line(seq, seq as u64, opts);
            writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.flush())
                .map_err(|e| format!("reference request {seq}: {e}"))?;
            let mut reply = String::new();
            reader
                .read_line(&mut reply)
                .map_err(|e| format!("reference response {seq}: {e}"))?;
            let response = Json::parse(reply.trim())
                .map_err(|e| format!("reference response {seq}: {e}"))?;
            let detection = response
                .get("detection")
                .filter(|_| response.get("ok").and_then(Json::as_bool) == Some(true))
                .ok_or_else(|| format!("reference request {seq} errored: {}", reply.trim()))?;
            expected.insert(shape_key(seq, opts), detection.render());
        }
        Ok(expected)
    };
    let driven = drive();
    let _ = control_round_trip(&addr, "shutdown");
    let _ = run.join();
    driven
}

/// The `--router` driver: clients with per-request retries against the
/// router address, then a bit-identity sweep of every routed answer
/// against the in-process reference, then the router's own `metrics`
/// verb for failover/breaker accounting.
fn run_router(opts: &Arc<Options>) -> ExitCode {
    let start = Instant::now();
    let workers: Vec<_> = (0..opts.clients)
        .map(|client| {
            let opts = Arc::clone(opts);
            std::thread::spawn(move || run_router_client(client, &opts))
        })
        .collect();
    let results: Vec<RouterClientResult> = workers
        .into_iter()
        .map(|w| {
            w.join().unwrap_or_else(|_| RouterClientResult {
                latencies_us: Vec::new(),
                ok: 0,
                errors: 1,
                retries: 0,
                detections: Vec::new(),
            })
        })
        .collect();
    let elapsed = start.elapsed();

    let ok: u64 = results.iter().map(|r| r.ok).sum();
    let errors: u64 = results.iter().map(|r| r.errors).sum();
    let retries: u64 = results.iter().map(|r| r.retries).sum();
    let mut latencies: Vec<u64> = results
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let throughput = ok as f64 / elapsed.as_secs_f64();
    let (p50, p95, p99) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );

    let mut failed = false;
    let expected_total = (opts.clients * opts.requests) as u64;
    if ok < expected_total || errors > 0 {
        eprintln!(
            "router: FAILED — only {ok}/{expected_total} requests answered ({errors} gave up)"
        );
        failed = true;
    }

    // Bit-identity: every routed detection must match the single-process
    // evaluation of the same request shape, byte for byte.
    let mut mismatches = 0u64;
    let mut checked = 0u64;
    match reference_detections(opts) {
        Ok(expected) => {
            for result in &results {
                for (seq, detection) in &result.detections {
                    checked += 1;
                    if expected.get(&shape_key(*seq, opts)) != Some(detection) {
                        if mismatches == 0 {
                            eprintln!(
                                "router: FAILED — request {seq} diverged from the local engine: {detection}"
                            );
                        }
                        mismatches += 1;
                    }
                }
            }
            if mismatches > 0 {
                eprintln!("router: FAILED — {mismatches}/{checked} answers not bit-identical");
                failed = true;
            }
        }
        Err(e) => {
            eprintln!("router: FAILED — reference evaluation: {e}");
            failed = true;
        }
    }
    let bit_identical = mismatches == 0 && checked > 0;

    // The router's own accounting: per-slot failover state and counters.
    let metrics = control_round_trip(&opts.addr, "metrics");
    let counter = |key: &str| {
        metrics
            .as_ref()
            .and_then(|m| m.get("router"))
            .and_then(|r| r.get("counters"))
            .and_then(|c| c.get(key))
            .and_then(Json::as_u64)
    };
    let failovers = counter("failovers");
    let router_retries = counter("retries");
    let shed = counter("shed");

    if opts.json {
        println!(
            "{}",
            Json::obj(vec![
                ("mode".to_string(), Json::from("router")),
                ("clients".to_string(), Json::from(opts.clients)),
                ("requests_per_client".to_string(), Json::from(opts.requests)),
                ("ok".to_string(), Json::from(ok)),
                ("errors".to_string(), Json::from(errors)),
                ("client_retries".to_string(), Json::from(retries)),
                ("elapsed_s".to_string(), Json::Num(elapsed.as_secs_f64())),
                ("throughput_rps".to_string(), Json::Num(throughput)),
                ("p50_us".to_string(), Json::from(p50)),
                ("p95_us".to_string(), Json::from(p95)),
                ("p99_us".to_string(), Json::from(p99)),
                (
                    "router_failovers".to_string(),
                    failovers.map_or(Json::Null, Json::from),
                ),
                (
                    "router_retries".to_string(),
                    router_retries.map_or(Json::Null, Json::from),
                ),
                (
                    "router_shed".to_string(),
                    shed.map_or(Json::Null, Json::from),
                ),
                ("bit_identical".to_string(), Json::Bool(bit_identical)),
            ])
            .render()
        );
    } else {
        println!(
            "router: {} clients x {} requests through {}",
            opts.clients, opts.requests, opts.addr
        );
        println!(
            "  answered {ok}/{expected_total} ({errors} gave up, {retries} client retries) in {:.2} s",
            elapsed.as_secs_f64()
        );
        println!("  throughput {throughput:.1} req/s");
        println!("  latency p50 {p50} µs, p95 {p95} µs, p99 {p99} µs");
        if let (Some(failovers), Some(router_retries), Some(shed)) =
            (failovers, router_retries, shed)
        {
            println!("  router: {failovers} failovers, {router_retries} retries, {shed} shed");
        }
        println!("  bit-identical to local engine: {bit_identical}");
    }

    let mut csv = Csv::create(
        &opts.out_dir,
        "loadgen_router.csv",
        &[
            "clients",
            "requests_per_client",
            "ok",
            "errors",
            "client_retries",
            "elapsed_s",
            "throughput_rps",
            "p50_us",
            "p95_us",
            "p99_us",
            "router_failovers",
            "bit_identical",
        ],
    );
    csv.row(&[
        opts.clients.to_string(),
        opts.requests.to_string(),
        ok.to_string(),
        errors.to_string(),
        retries.to_string(),
        format!("{:.3}", elapsed.as_secs_f64()),
        format!("{throughput:.1}"),
        p50.to_string(),
        p95.to_string(),
        p99.to_string(),
        failovers.map_or_else(|| "-".to_string(), |v| v.to_string()),
        bit_identical.to_string(),
    ]);
    csv.finish();

    if opts.shutdown {
        let ack = control_round_trip(&opts.addr, "shutdown");
        let acked = ack
            .as_ref()
            .and_then(|a| a.get("shutting_down"))
            .and_then(Json::as_bool)
            == Some(true);
        if acked {
            println!("shutdown: acknowledged");
        } else {
            eprintln!("shutdown: no acknowledgement");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Sends one control verb on a fresh connection and returns the reply.
fn control_round_trip(addr: &str, verb: &str) -> Option<Json> {
    control_line(addr, &format!("{{\"id\":0,\"verb\":\"{verb}\"}}"))
}

/// Sends one request line on a fresh connection and returns the reply.
fn control_line(addr: &str, line: &str) -> Option<Json> {
    let stream = TcpStream::connect(addr).ok()?;
    let read_half = stream.try_clone().ok()?;
    let mut writer = BufWriter::new(stream);
    writer.write_all(line.as_bytes()).ok()?;
    writer.write_all(b"\n").ok()?;
    writer.flush().ok()?;
    let mut reply = String::new();
    BufReader::new(read_half).read_line(&mut reply).ok()?;
    Json::parse(reply.trim()).ok()
}

/// The streaming scenario: the `results/time_to_detection.csv` operating
/// point (M = 10, N = 240, k = 3), so replayed trials carry the same
/// report streams the simulator's figures are built from.
const STREAM_N: usize = 240;
const STREAM_M: usize = 10;
const STREAM_K: usize = 3;

/// The delivery ratio `results/comm_burst.csv` measured for the sensor
/// count closest to `n` — the fraction of a sensing burst that survives
/// radio contention. Missing or malformed CSV degrades to full delivery.
fn burst_delivery_ratio(opts: &Options, n: usize) -> f64 {
    let Ok(text) = std::fs::read_to_string(opts.out_dir.join("comm_burst.csv")) else {
        return 1.0;
    };
    let mut best: Option<(usize, f64)> = None;
    for line in text.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < 2 {
            continue;
        }
        let (Ok(row_n), Ok(ratio)) = (fields[0].parse::<usize>(), fields[1].parse::<f64>())
        else {
            continue;
        };
        let distance = row_n.abs_diff(n);
        if best.is_none_or(|(b, _)| distance < b) {
            best = Some((distance, ratio));
        }
    }
    best.map_or(1.0, |(_, ratio)| ratio.clamp(0.0, 1.0))
}

/// Deterministic per-report delivery coin flip (splitmix-style hash of
/// seed/trial/index), so reruns thin the same reports.
fn delivered(seed: u64, trial: u64, index: u64, ratio: f64) -> bool {
    if ratio >= 1.0 {
        return true;
    }
    let mut x = seed
        ^ trial.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    ((x >> 11) as f64 / (1u64 << 53) as f64) < ratio
}

#[derive(Default)]
struct StreamClientResult {
    reports: u64,
    events: u64,
    trials: u64,
    trials_detected: u64,
    event_latencies_us: Vec<u64>,
}

/// One streaming client: opens a session, replays `opts.requests`
/// simulated trials as per-period report bursts (periods offset per
/// trial by more than the window M, so tracks can never chain across
/// trials), reads back pushed detection events, and closes. The close
/// ack's totals must match what the client counted.
fn drive_stream_session(
    client: usize,
    ratio: f64,
    opts: &Options,
) -> Result<StreamClientResult, String> {
    use gbd_core::params::SystemParams;
    let params = SystemParams::paper_defaults()
        .with_m_periods(STREAM_M)
        .with_n_sensors(STREAM_N)
        .with_k(STREAM_K);
    let config = gbd_sim::config::SimConfig::new(params).with_seed(opts.seed);

    let stream =
        TcpStream::connect(&opts.addr).map_err(|e| format!("client {client} connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    let mut writer = BufWriter::new(stream);
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    let recv = |reader: &mut BufReader<TcpStream>, line: &mut String| -> Result<Json, String> {
        line.clear();
        match reader.read_line(line) {
            Ok(0) => Err("session closed by server".to_string()),
            Err(e) => Err(format!("session read: {e}")),
            Ok(_) => Json::parse(line.trim()).map_err(|e| format!("session line: {e}")),
        }
    };

    let open = format!(
        "{{\"id\":1,\"verb\":\"stream_open\",\"params\":{{\"n\":{STREAM_N},\"m\":{STREAM_M},\"k\":{STREAM_K}}},\"boundary\":\"torus\"}}\n"
    );
    writer
        .write_all(open.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("stream_open: {e}"))?;
    let ack = recv(&mut reader, &mut line)?;
    if ack.get("streaming").and_then(Json::as_bool) != Some(true) {
        return Err(format!("stream_open rejected: {}", line.trim()));
    }

    let per_client_rate = if opts.rate > 0.0 {
        opts.rate / opts.clients as f64
    } else {
        0.0
    };
    let start = Instant::now();
    let mut result = StreamClientResult::default();
    // Gap between trials exceeds the window M, so a track from one trial
    // can never extend a chain into the next.
    let stride = 2 * STREAM_M;
    let mut next_id = 10u64;
    let mut bursts = 0u64;
    for i in 0..opts.requests {
        let trial = (client * opts.requests + i) as u64;
        let outcome = gbd_sim::engine::run_trial(&config, trial);
        let offset = i * stride;
        let mut trial_events = 0u64;
        let mut index = 0u64;
        let reports = &outcome.reports;
        let mut r = 0;
        while r < reports.len() {
            let period = reports[r].period;
            let mut burst = Vec::new();
            while r < reports.len() && reports[r].period == period {
                if delivered(opts.seed, trial, index, ratio) {
                    let report = &reports[r];
                    burst.push(Json::obj(vec![
                        ("sensor".to_string(), Json::from(report.sensor.0)),
                        ("period".to_string(), Json::from(report.period + offset)),
                        ("x".to_string(), Json::Num(report.position.x)),
                        ("y".to_string(), Json::Num(report.position.y)),
                    ]));
                }
                index += 1;
                r += 1;
            }
            if burst.is_empty() {
                continue;
            }
            if per_client_rate > 0.0 {
                let due = start + Duration::from_secs_f64(bursts as f64 / per_client_rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            let burst_len = burst.len() as u64;
            let request = Json::obj(vec![
                ("id".to_string(), Json::from(next_id)),
                ("verb".to_string(), Json::from("report")),
                ("reports".to_string(), Json::Arr(burst)),
            ]);
            writer
                .write_all(request.render().as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .map_err(|e| format!("report burst: {e}"))?;
            let sent_at = Instant::now();
            let ack = recv(&mut reader, &mut line)?;
            if ack.get("id").and_then(Json::as_u64) != Some(next_id)
                || ack.get("ok").and_then(Json::as_bool) != Some(true)
            {
                return Err(format!("burst {next_id} not acked: {}", line.trim()));
            }
            let ingested = ack.get("ingested").and_then(Json::as_u64).unwrap_or(0);
            if ingested != burst_len {
                return Err(format!(
                    "burst {next_id}: sent {burst_len} reports, server ingested {ingested}"
                ));
            }
            result.reports += ingested;
            let events = ack.get("events").and_then(Json::as_u64).unwrap_or(0);
            for _ in 0..events {
                let event = recv(&mut reader, &mut line)?;
                if event.get("event").is_none() {
                    return Err(format!("expected event line, got: {}", line.trim()));
                }
                result
                    .event_latencies_us
                    .push(u64::try_from(sent_at.elapsed().as_micros()).unwrap_or(u64::MAX));
                result.events += 1;
                trial_events += 1;
            }
            next_id += 1;
            bursts += 1;
        }
        result.trials += 1;
        if trial_events > 0 {
            result.trials_detected += 1;
        }
    }

    writer
        .write_all(format!("{{\"id\":{next_id},\"verb\":\"stream_close\"}}\n").as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("stream_close: {e}"))?;
    let end = recv(&mut reader, &mut line)?;
    if end.get("stream_end").and_then(Json::as_bool) != Some(true) {
        return Err(format!("stream_close not acked: {}", line.trim()));
    }
    let closed_reports = end.get("reports").and_then(Json::as_u64);
    let closed_events = end.get("events").and_then(Json::as_u64);
    if closed_reports != Some(result.reports) || closed_events != Some(result.events) {
        return Err(format!(
            "close ack counts {closed_reports:?}/{closed_events:?} disagree with client {}/{}",
            result.reports, result.events
        ));
    }
    Ok(result)
}

/// The `--report-stream` driver: one session per client, simulator-fed
/// report bursts, per-event report→detection latency percentiles, and
/// (with `--assert-stream`) reconciliation against the server's `stream`
/// metrics section.
fn run_report_stream(opts: &Arc<Options>) -> ExitCode {
    let ratio = burst_delivery_ratio(opts, STREAM_N);
    let start = Instant::now();
    let workers: Vec<_> = (0..opts.clients)
        .map(|client| {
            let opts = Arc::clone(opts);
            std::thread::spawn(move || drive_stream_session(client, ratio, &opts))
        })
        .collect();
    let mut failed = false;
    let mut total = StreamClientResult::default();
    for worker in workers {
        match worker.join() {
            Ok(Ok(result)) => {
                total.reports += result.reports;
                total.events += result.events;
                total.trials += result.trials;
                total.trials_detected += result.trials_detected;
                total.event_latencies_us.extend(result.event_latencies_us);
            }
            Ok(Err(e)) => {
                eprintln!("report-stream: FAILED — {e}");
                failed = true;
            }
            Err(_) => {
                eprintln!("report-stream: FAILED — client thread panicked");
                failed = true;
            }
        }
    }
    let elapsed = start.elapsed();
    total.event_latencies_us.sort_unstable();
    let (p50, p95, p99) = (
        percentile(&total.event_latencies_us, 0.50),
        percentile(&total.event_latencies_us, 0.95),
        percentile(&total.event_latencies_us, 0.99),
    );
    let throughput = total.reports as f64 / elapsed.as_secs_f64();

    if opts.json {
        println!(
            "{}",
            Json::obj(vec![
                ("mode".to_string(), Json::from("report-stream")),
                ("sessions".to_string(), Json::from(opts.clients)),
                ("trials_per_session".to_string(), Json::from(opts.requests)),
                ("delivery_ratio".to_string(), Json::Num(ratio)),
                ("reports".to_string(), Json::from(total.reports)),
                ("events".to_string(), Json::from(total.events)),
                ("trials".to_string(), Json::from(total.trials)),
                (
                    "trials_detected".to_string(),
                    Json::from(total.trials_detected),
                ),
                ("elapsed_s".to_string(), Json::Num(elapsed.as_secs_f64())),
                ("reports_per_s".to_string(), Json::Num(throughput)),
                ("event_p50_us".to_string(), Json::from(p50)),
                ("event_p95_us".to_string(), Json::from(p95)),
                ("event_p99_us".to_string(), Json::from(p99)),
            ])
            .render()
        );
    } else {
        println!(
            "report-stream: {} sessions x {} trials against {} (delivery ratio {ratio:.2})",
            opts.clients, opts.requests, opts.addr
        );
        println!(
            "  {} reports, {} detection events ({} of {} trials detected) in {:.2} s",
            total.reports,
            total.events,
            total.trials_detected,
            total.trials,
            elapsed.as_secs_f64()
        );
        println!("  ingest {throughput:.0} reports/s");
        println!("  report→detection latency p50 {p50} µs, p95 {p95} µs, p99 {p99} µs");
    }

    let mut csv = Csv::create(
        &opts.out_dir,
        "loadgen_stream.csv",
        &[
            "sessions",
            "trials_per_session",
            "delivery_ratio",
            "reports",
            "events",
            "trials_detected",
            "elapsed_s",
            "reports_per_s",
            "event_p50_us",
            "event_p95_us",
            "event_p99_us",
        ],
    );
    csv.row(&[
        opts.clients.to_string(),
        opts.requests.to_string(),
        format!("{ratio:.4}"),
        total.reports.to_string(),
        total.events.to_string(),
        total.trials_detected.to_string(),
        format!("{:.3}", elapsed.as_secs_f64()),
        format!("{throughput:.1}"),
        p50.to_string(),
        p95.to_string(),
        p99.to_string(),
    ]);
    csv.finish();

    if opts.assert_stream {
        let metrics = control_line(
            &opts.addr,
            "{\"id\":0,\"verb\":\"metrics\",\"sections\":[\"stream\"]}",
        );
        let field = |key: &str| {
            metrics
                .as_ref()
                .and_then(|m| m.get("metrics"))
                .and_then(|m| m.get("stream"))
                .and_then(|s| s.get(key))
                .and_then(Json::as_u64)
        };
        let check = |key: &str, expected: u64| {
            let got = field(key);
            if got != Some(expected) {
                eprintln!("assert-stream: FAILED — {key} = {got:?}, wanted {expected}");
                true
            } else {
                false
            }
        };
        let mut stream_failed = false;
        stream_failed |= check("reports", total.reports);
        stream_failed |= check("events", total.events);
        stream_failed |= check("sessions_opened", opts.clients as u64);
        stream_failed |= check("sessions_closed", opts.clients as u64);
        stream_failed |= check("open_sessions", 0);
        if total.events == 0 {
            eprintln!("assert-stream: FAILED — no detection events fired");
            stream_failed = true;
        }
        if stream_failed {
            failed = true;
        } else {
            println!(
                "assert-stream: ok ({} reports and {} events reconciled, sessions drained)",
                total.reports, total.events
            );
        }
    }
    if opts.shutdown {
        let ack = control_round_trip(&opts.addr, "shutdown");
        let acked = ack
            .as_ref()
            .and_then(|a| a.get("shutting_down"))
            .and_then(Json::as_bool)
            == Some(true);
        if acked {
            println!("shutdown: acknowledged");
        } else {
            eprintln!("shutdown: no acknowledgement");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// What a `watch` client observed: window count, the first replayed
/// sequence number, and the telescoping check inputs for `evaluated`.
struct WatchReport {
    windows: u64,
    first_seq: u64,
    evaluated_delta_sum: u64,
    evaluated_total_last: u64,
    lagged: u64,
}

/// Attaches an unbounded streaming `watch` subscription with replay and
/// reads window lines until the server's `evaluated` lifetime total
/// reaches `expected` (the requests this run completed), then sends
/// `unwatch` and consumes the terminator and ack. Because replay starts at
/// the first ring window and deltas telescope, the sum of `evaluated`
/// deltas must equal the last window's `evaluated` total. `max_live`
/// bounds how many windows past the replay ring we wait for the total to
/// catch up.
fn run_watch(addr: &str, max_live: u64, expected: u64) -> Result<WatchReport, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("read timeout: {e}"))?;
    let read_half = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut writer = BufWriter::new(stream);
    writer
        .write_all(b"{\"id\":0,\"verb\":\"watch\",\"replay\":true}\n")
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send watch: {e}"))?;
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("watch ack: {e}"))?;
    let ack = Json::parse(line.trim()).map_err(|e| format!("watch ack: {e}"))?;
    if ack.get("watching").and_then(Json::as_bool) != Some(true) {
        return Err(format!("watch not acknowledged: {}", line.trim()));
    }
    let mut report = WatchReport {
        windows: 0,
        first_seq: 0,
        evaluated_delta_sum: 0,
        evaluated_total_last: 0,
        lagged: 0,
    };
    // The replay backlog can be as deep as the ring; only windows beyond
    // that count against the live budget.
    let budget = 120 + max_live;
    while report.evaluated_total_last < expected || report.windows == 0 {
        if report.windows >= budget {
            return Err(format!(
                "evaluated total stuck at {} (wanted {expected}) after {} windows",
                report.evaluated_total_last, report.windows
            ));
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Err("stream closed mid-watch".to_string()),
            Err(e) => return Err(format!("watch stream: {e}")),
            Ok(_) => {}
        }
        let msg = Json::parse(line.trim()).map_err(|e| format!("watch line: {e}"))?;
        let window = msg
            .get("window")
            .ok_or_else(|| format!("unexpected watch line: {}", line.trim()))?;
        let seq = window
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("window without seq: {}", line.trim()))?;
        if report.windows == 0 {
            report.first_seq = seq;
        }
        if let Some(evaluated) = window.get("counters").and_then(|c| c.get("evaluated")) {
            report.evaluated_delta_sum +=
                evaluated.get("delta").and_then(Json::as_u64).unwrap_or(0);
            report.evaluated_total_last =
                evaluated.get("total").and_then(Json::as_u64).unwrap_or(0);
        }
        report.lagged += msg.get("lagged").and_then(Json::as_u64).unwrap_or(0);
        report.windows += 1;
    }
    // Cancel the stream: the server ends it with a terminator, then acks.
    writer
        .write_all(b"{\"id\":1,\"verb\":\"unwatch\"}\n")
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send unwatch: {e}"))?;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Err("stream closed before watch_end".to_string()),
            Err(e) => return Err(format!("watch drain: {e}")),
            Ok(_) => {}
        }
        let msg = Json::parse(line.trim()).map_err(|e| format!("watch line: {e}"))?;
        if msg.get("watch_end").and_then(Json::as_bool) == Some(true) {
            break;
        }
        // Windows still in flight before the cancel landed.
        if msg.get("window").is_none() {
            return Err(format!("unexpected watch line: {}", line.trim()));
        }
    }
    line.clear();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("unwatch ack: {e}"))?;
    let ack = Json::parse(line.trim()).map_err(|e| format!("unwatch ack: {e}"))?;
    if ack.get("unwatched").and_then(Json::as_u64) != Some(1) {
        return Err(format!("unwatch not acknowledged: {}", line.trim()));
    }
    Ok(report)
}

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

/// What one warm-start pass (boot + sweep) measured.
struct WarmPass {
    /// Boot (including store recovery) plus sweep, in seconds. Control
    /// verbs and drain are excluded.
    elapsed_s: f64,
    /// Rendered `detection` arrays in request order — the exact wire
    /// text, so equality is bit-identity of every probability.
    detections: Vec<String>,
    errors: u64,
    store_loads: u64,
    store_spills: u64,
}

/// Boots an in-process server over the store at `path`, drives
/// `opts.requests` requests on one connection, reads the `metrics` verb's
/// `store` section, and drains (which snapshots the store for the next
/// pass).
fn warm_pass(opts: &Options, path: &std::path::Path) -> Result<WarmPass, String> {
    let t = Instant::now();
    let engine = gbd_engine::Engine::new()
        .with_store(path)
        .map_err(|e| format!("cannot open store {}: {e}", path.display()))?;
    let config = gbd_serve::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..gbd_serve::ServeConfig::default()
    };
    let server = gbd_serve::Server::bind(config, Arc::new(engine))
        .map_err(|e| format!("cannot bind in-process server: {e}"))?;
    let addr = server.local_addr().to_string();
    let run = std::thread::spawn(move || server.run());

    let drive = || -> Result<(Vec<String>, u64), String> {
        let stream =
            TcpStream::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        let mut writer = BufWriter::new(stream);
        let mut reader = BufReader::new(read_half);
        let mut detections = Vec::with_capacity(opts.requests);
        let mut errors = 0u64;
        for seq in 0..opts.requests {
            let line = request_line(seq, seq as u64, opts);
            writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.flush())
                .map_err(|e| format!("request {seq}: {e}"))?;
            let mut reply = String::new();
            reader
                .read_line(&mut reply)
                .map_err(|e| format!("response {seq}: {e}"))?;
            let response =
                Json::parse(reply.trim()).map_err(|e| format!("response {seq}: {e}"))?;
            match response.get("detection") {
                Some(detection) if response.get("ok").and_then(Json::as_bool) == Some(true) => {
                    detections.push(detection.render());
                }
                _ => {
                    errors += 1;
                    detections.push("error".to_string());
                }
            }
        }
        Ok((detections, errors))
    };
    let driven = drive();
    let elapsed_s = t.elapsed().as_secs_f64();

    let store = control_line(&addr, r#"{"id":0,"verb":"metrics","sections":["store"]}"#);
    let store_field = |key: &str| {
        store
            .as_ref()
            .and_then(|m| m.get("metrics"))
            .and_then(|m| m.get("store"))
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
    };
    let store_loads = store_field("loads").unwrap_or(0);
    let store_spills = store_field("spills").unwrap_or(0);
    let _ = control_round_trip(&addr, "shutdown");
    let _ = run.join();
    let (detections, errors) = driven?;
    Ok(WarmPass {
        elapsed_s,
        detections,
        errors,
        store_loads,
        store_spills,
    })
}

/// The `--warmstart` benchmark: cold pass over a fresh store, warm pass
/// over the same store, bit-identity and warm-load assertions, ratio
/// report.
fn run_warmstart(opts: &Options, path: &std::path::Path) -> ExitCode {
    let _ = std::fs::remove_file(path);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() && std::fs::create_dir_all(parent).is_err() {
            eprintln!("warmstart: cannot create {}", parent.display());
            return ExitCode::FAILURE;
        }
    }
    let cold = match warm_pass(opts, path) {
        Ok(pass) => pass,
        Err(e) => {
            eprintln!("warmstart cold pass: {e}");
            return ExitCode::FAILURE;
        }
    };
    let warm = match warm_pass(opts, path) {
        Ok(pass) => pass,
        Err(e) => {
            eprintln!("warmstart warm pass: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    if cold.errors > 0 || warm.errors > 0 {
        eprintln!(
            "warmstart: FAILED — {} cold / {} warm requests errored",
            cold.errors, warm.errors
        );
        failed = true;
    }
    let identical = cold.detections == warm.detections;
    if !identical {
        let diverged = cold
            .detections
            .iter()
            .zip(&warm.detections)
            .position(|(c, w)| c != w);
        eprintln!(
            "warmstart: FAILED — warm responses not bit-identical (first divergence at request {diverged:?})"
        );
        failed = true;
    }
    if warm.store_loads == 0 {
        eprintln!("warmstart: FAILED — warm boot loaded nothing from the store");
        failed = true;
    }
    let ratio = cold.elapsed_s / warm.elapsed_s.max(1e-9);
    if opts.json {
        println!(
            "{}",
            Json::obj(vec![
                ("mode".to_string(), Json::from("warmstart")),
                ("store".to_string(), Json::from(path.display().to_string()),),
                ("requests".to_string(), Json::from(opts.requests)),
                ("cold_s".to_string(), Json::Num(cold.elapsed_s)),
                ("warm_s".to_string(), Json::Num(warm.elapsed_s)),
                ("warm_ratio".to_string(), Json::Num(ratio)),
                ("cold_spills".to_string(), Json::from(cold.store_spills)),
                ("warm_loads".to_string(), Json::from(warm.store_loads)),
                ("bit_identical".to_string(), Json::Bool(identical)),
            ])
            .render()
        );
    } else {
        println!(
            "warmstart: {} requests against {}",
            opts.requests,
            path.display()
        );
        println!(
            "  cold boot + sweep {:.3} s ({} records spilled)",
            cold.elapsed_s, cold.store_spills
        );
        println!(
            "  warm boot + sweep {:.3} s ({} records loaded)",
            warm.elapsed_s, warm.store_loads
        );
        println!("  warm ratio {ratio:.2}x, bit-identical: {identical}");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let opts = Arc::new(parse_args());
    if opts.clients == 0 || opts.requests == 0 {
        usage();
    }
    if let Some(path) = opts.warmstart.clone() {
        return run_warmstart(&opts, &path);
    }
    if opts.router {
        return run_router(&opts);
    }
    if opts.report_stream {
        return run_report_stream(&opts);
    }
    let start = Instant::now();
    let workers: Vec<_> = (0..opts.clients)
        .map(|client| {
            let opts = Arc::clone(&opts);
            std::thread::spawn(move || run_client(client, &opts))
        })
        .collect();
    let results: Vec<ClientResult> = workers
        .into_iter()
        .map(|w| {
            w.join().unwrap_or_else(|_| ClientResult {
                latencies_us: Vec::new(),
                ok: 0,
                errors: 0,
                io_failure: true,
            })
        })
        .collect();
    let elapsed = start.elapsed();

    let io_failures = results.iter().filter(|r| r.io_failure).count();
    let ok: u64 = results.iter().map(|r| r.ok).sum();
    let errors: u64 = results.iter().map(|r| r.errors).sum();
    let mut latencies: Vec<u64> = results
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let completed = latencies.len() as u64;
    let throughput = completed as f64 / elapsed.as_secs_f64();
    let (p50, p95, p99) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );

    // Server-side view: coalescing factor and shed count via `metrics`.
    let server_view = control_line(
        &opts.addr,
        r#"{"id":0,"verb":"metrics","sections":["server","histograms"]}"#,
    );
    let section = |name: &str| {
        server_view
            .as_ref()
            .and_then(|m| m.get("metrics"))
            .and_then(|m| m.get(name))
    };
    let coalescing = section("server")
        .and_then(|s| s.get("coalescing_factor"))
        .and_then(Json::as_f64);
    let shed = section("server")
        .and_then(|s| s.get("shed"))
        .and_then(Json::as_u64);
    // Server-side latency decomposition: time spent waiting in the
    // coalescer queue vs engine compute, both at p50.
    let split_p50 = |key: &str| {
        section("histograms")
            .and_then(|h| h.get(key))
            .and_then(|h| h.get("p50"))
            .and_then(Json::as_u64)
    };
    let queue_wait_p50 = split_p50("queue_wait_us");
    let compute_p50 = split_p50("compute_us");

    if opts.json {
        println!(
            "{}",
            Json::obj(vec![
                ("clients".to_string(), Json::from(opts.clients)),
                ("requests_per_client".to_string(), Json::from(opts.requests)),
                ("completed".to_string(), Json::from(completed)),
                ("ok".to_string(), Json::from(ok)),
                ("errors".to_string(), Json::from(errors)),
                ("io_failures".to_string(), Json::from(io_failures)),
                ("elapsed_s".to_string(), Json::Num(elapsed.as_secs_f64())),
                ("throughput_rps".to_string(), Json::Num(throughput)),
                ("p50_us".to_string(), Json::from(p50)),
                ("p95_us".to_string(), Json::from(p95)),
                ("p99_us".to_string(), Json::from(p99)),
                (
                    "coalescing_factor".to_string(),
                    coalescing.map_or(Json::Null, Json::Num),
                ),
                ("shed".to_string(), shed.map_or(Json::Null, Json::from)),
                (
                    "server_queue_wait_p50_us".to_string(),
                    queue_wait_p50.map_or(Json::Null, Json::from),
                ),
                (
                    "server_compute_p50_us".to_string(),
                    compute_p50.map_or(Json::Null, Json::from),
                ),
            ])
            .render()
        );
    } else {
        println!(
            "loadgen: {} clients x {} requests against {}",
            opts.clients, opts.requests, opts.addr
        );
        println!(
            "  completed {completed} ({ok} ok, {errors} errors, {io_failures} client failures) in {:.2} s",
            elapsed.as_secs_f64()
        );
        println!("  throughput {throughput:.1} req/s");
        println!("  latency p50 {p50} µs, p95 {p95} µs, p99 {p99} µs");
        if let (Some(factor), Some(shed)) = (coalescing, shed) {
            println!("  server: coalescing {factor:.2}x, shed {shed}");
        }
        if let (Some(wait), Some(compute)) = (queue_wait_p50, compute_p50) {
            let total = (wait + compute).max(1);
            println!(
                "  server p50 split: queue wait {wait} µs ({:.0}%), compute {compute} µs ({:.0}%)",
                100.0 * wait as f64 / total as f64,
                100.0 * compute as f64 / total as f64,
            );
        }
    }

    let mut csv = Csv::create(
        &opts.out_dir,
        "loadgen.csv",
        &[
            "clients",
            "requests_per_client",
            "completed",
            "ok",
            "errors",
            "elapsed_s",
            "throughput_rps",
            "p50_us",
            "p95_us",
            "p99_us",
            "coalescing_factor",
            "shed",
            "server_queue_wait_p50_us",
            "server_compute_p50_us",
        ],
    );
    csv.row(&[
        opts.clients.to_string(),
        opts.requests.to_string(),
        completed.to_string(),
        ok.to_string(),
        errors.to_string(),
        format!("{:.3}", elapsed.as_secs_f64()),
        format!("{throughput:.1}"),
        p50.to_string(),
        p95.to_string(),
        p99.to_string(),
        coalescing.map_or_else(|| "-".to_string(), |v| format!("{v:.3}")),
        shed.map_or_else(|| "-".to_string(), |v| v.to_string()),
        queue_wait_p50.map_or_else(|| "-".to_string(), |v| v.to_string()),
        compute_p50.map_or_else(|| "-".to_string(), |v| v.to_string()),
    ]);
    csv.finish();

    let mut failed = io_failures > 0;
    if opts.assert_coalescing {
        match coalescing {
            Some(factor) if factor > 1.0 => {
                println!("assert-coalescing: ok ({factor:.2}x)");
            }
            other => {
                eprintln!("assert-coalescing: FAILED (factor = {other:?})");
                failed = true;
            }
        }
    }
    if opts.assert_split {
        // Sum-level decomposition from the versioned `metrics` verb: every
        // request's latency is its queue wait plus its batch compute, so
        // the histogram sums must agree (within tolerance for timer skew).
        let metrics = control_round_trip(&opts.addr, "metrics");
        let hist_sum = |key: &str| {
            metrics
                .as_ref()
                .and_then(|m| m.get("metrics"))
                .and_then(|m| m.get("histograms"))
                .and_then(|h| h.get(key))
                .and_then(|h| h.get("sum_us"))
                .and_then(Json::as_u64)
        };
        match (
            hist_sum("latency_us"),
            hist_sum("queue_wait_us"),
            hist_sum("compute_us"),
        ) {
            (Some(latency), Some(wait), Some(compute)) if latency > 0 => {
                let gap = (wait + compute).abs_diff(latency);
                if 4 * gap <= latency {
                    println!(
                        "assert-split: ok (queue wait {wait} µs + compute {compute} µs ≈ latency {latency} µs)"
                    );
                } else {
                    eprintln!(
                        "assert-split: FAILED (queue wait {wait} + compute {compute} vs latency {latency} µs)"
                    );
                    failed = true;
                }
            }
            other => {
                eprintln!("assert-split: FAILED (histogram sums unavailable: {other:?})");
                failed = true;
            }
        }
    }
    if opts.watch_windows > 0 {
        match run_watch(&opts.addr, opts.watch_windows, ok) {
            Ok(report) => {
                let mut watch_failed = false;
                if report.first_seq != 1 {
                    eprintln!(
                        "watch: FAILED (replay started at seq {}, ring overflowed)",
                        report.first_seq
                    );
                    watch_failed = true;
                }
                if report.evaluated_delta_sum != report.evaluated_total_last {
                    eprintln!(
                        "watch: FAILED (evaluated deltas sum to {} but lifetime total is {})",
                        report.evaluated_delta_sum, report.evaluated_total_last
                    );
                    watch_failed = true;
                }
                if report.evaluated_total_last < ok {
                    eprintln!(
                        "watch: FAILED (windows show {} evaluations but the run completed {ok})",
                        report.evaluated_total_last
                    );
                    watch_failed = true;
                }
                if watch_failed {
                    failed = true;
                } else {
                    println!(
                        "watch: ok ({} windows, evaluated deltas telescope to {}, {} lagged)",
                        report.windows, report.evaluated_total_last, report.lagged
                    );
                }
            }
            Err(e) => {
                eprintln!("watch: FAILED ({e})");
                failed = true;
            }
        }
    }
    if opts.shutdown {
        let ack = control_round_trip(&opts.addr, "shutdown");
        let acked = ack
            .as_ref()
            .and_then(|a| a.get("shutting_down"))
            .and_then(Json::as_bool)
            == Some(true);
        if acked {
            println!("shutdown: acknowledged");
        } else {
            eprintln!("shutdown: no acknowledgement");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
