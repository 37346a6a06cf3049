//! Proofs against the real `groupdet` binary.
//!
//! The cluster acceptance proof: N clients drive a `groupdet route`
//! front end over two real `groupdet serve` shard processes while one
//! shard is SIGKILLed mid-batch. Every request must eventually be
//! answered, every answer must be bit-identical to a single-process
//! evaluation of the same request, and the warm standby must take over
//! the dead shard's hash slots having already applied its replicated
//! store records (`store_loads > 0` — zero recomputed stages for keys
//! the primary had answered). Every survivor then drains and exits 0.
//!
//! The topology under test:
//!
//! ```text
//! clients ──> router ──> shard0 (primary, --replicate-to standby)
//!                   ──> shard1
//!             standby (--replica-listen, --store) <── shipped records
//! ```
//!
//! The observability proof: pipelined mixed load against one
//! store-backed server must coalesce, and the `metrics` verb, a
//! replaying `watch` and the Prometheus scrape must each account for it.

use gbd_serve::Json;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gbd-cluster-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// A spawned `groupdet` process that is SIGKILLed on drop so a failing
/// test never leaks servers.
struct Proc {
    child: Child,
    /// Held open so that the process can print its `stopped` event: a
    /// server writing to a closed pipe would fail instead of exiting 0.
    _stdout: BufReader<ChildStdout>,
    /// The `addr` field of the `--json` listening event.
    addr: String,
    /// The `replica_addr` field, when the process runs a replica listener.
    replica_addr: Option<String>,
    /// The `metrics_addr` field, when the process serves `/metrics`.
    metrics_addr: Option<String>,
}

impl Proc {
    /// Waits up to 30 s for the process to exit (a hung drain fails the
    /// test instead of hanging it) and returns its status.
    fn exit_status(&mut self) -> ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().expect("poll child") {
                return status;
            }
            assert!(Instant::now() < deadline, "{} never exited", self.addr);
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `groupdet <args> --json` and blocks until its listening event
/// reports the ephemeral addresses.
fn spawn_groupdet(args: &[&str]) -> Proc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_groupdet"))
        .args(args)
        .arg("--json")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn groupdet");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listening event");
    let event = Json::parse(line.trim()).expect("parse listening event");
    assert_eq!(
        event.get("event").and_then(Json::as_str),
        Some("listening"),
        "unexpected first event: {}",
        line.trim()
    );
    let addr = event
        .get("addr")
        .and_then(Json::as_str)
        .expect("listening event has addr")
        .to_string();
    let optional_addr = |key: &str| event.get(key).and_then(Json::as_str).map(str::to_string);
    Proc {
        child,
        _stdout: stdout,
        addr,
        replica_addr: optional_addr("replica_addr"),
        metrics_addr: optional_addr("metrics_addr"),
    }
}

/// One request line, one response line, on a fresh connection.
fn round_trip(addr: &str, line: &str) -> std::io::Result<Json> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let read_half = stream.try_clone()?;
    let mut writer = stream;
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    let mut reply = String::new();
    BufReader::new(read_half).read_line(&mut reply)?;
    Json::parse(reply.trim())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// A deterministic request mix: sensor counts cycle over seven values
/// and every `sim_every`-th request goes to the (seeded, deterministic)
/// simulation backend.
struct Mix {
    sim_every: usize,
    trials: u64,
    seed: u64,
}

/// The failover proof's mix.
const ROUTED: Mix = Mix {
    sim_every: 10,
    trials: 20,
    seed: 7,
};

/// The observability proof's mix.
const MIXED: Mix = Mix {
    sim_every: 8,
    trials: 50,
    seed: 2008,
};

impl Mix {
    /// Request `seq` of the mix, with `seq` as its id.
    fn line(&self, seq: usize) -> String {
        let (n, sim) = self.shape(seq);
        let mut fields = vec![
            ("id".to_string(), Json::from(seq as u64)),
            ("verb".to_string(), Json::from("eval")),
            (
                "params".to_string(),
                Json::obj(vec![("n".to_string(), Json::from(n))]),
            ),
        ];
        if sim {
            fields.push((
                "backend".to_string(),
                Json::obj(vec![
                    ("kind".to_string(), Json::from("sim")),
                    ("trials".to_string(), Json::from(self.trials)),
                    ("seed".to_string(), Json::from(self.seed)),
                ]),
            ));
        }
        Json::Obj(fields).render()
    }

    /// The shape of request `seq`: its sensor count and whether it goes
    /// to the simulator. Equal shapes must yield bit-identical detections.
    fn shape(&self, seq: usize) -> (usize, bool) {
        (60 + 30 * (seq % 7), seq.is_multiple_of(self.sim_every))
    }
}

/// Sends `seq`'s request through the router, re-sending on transport
/// failures and the two retryable error codes until it is answered.
/// Returns the rendered `detection` — the exact wire text.
fn drive_one(router_addr: &str, seq: usize) -> Result<String, String> {
    let line = ROUTED.line(seq);
    for attempt in 0..240u64 {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(25 * attempt.min(8)));
        }
        let Ok(response) = round_trip(router_addr, &line) else {
            continue;
        };
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            return response
                .get("detection")
                .map(Json::render)
                .ok_or_else(|| format!("request {seq}: ok response without detection"));
        }
        let code = response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str);
        if !matches!(code, Some("overloaded") | Some("shard_unavailable")) {
            return Err(format!(
                "request {seq}: non-retryable error {:?}",
                code.unwrap_or("<none>")
            ));
        }
    }
    Err(format!("request {seq}: never answered"))
}

/// Drives `seqs` from `clients` threads through the router and returns
/// every `(seq, detection)` pair, failing if any request gave up.
/// `answered` counts the answers as they arrive.
fn drive_batch(
    router_addr: &str,
    seqs: Vec<usize>,
    clients: usize,
    answered: &Arc<AtomicUsize>,
) -> Vec<(usize, String)> {
    let addr = Arc::new(router_addr.to_string());
    let chunks: Vec<Vec<usize>> = (0..clients)
        .map(|c| seqs.iter().copied().skip(c).step_by(clients).collect())
        .collect();
    let workers: Vec<_> = chunks
        .into_iter()
        .map(|chunk| {
            let addr = Arc::clone(&addr);
            let answered = Arc::clone(answered);
            std::thread::spawn(move || {
                chunk
                    .into_iter()
                    .map(|seq| {
                        let result = drive_one(&addr, seq);
                        if result.is_ok() {
                            answered.fetch_add(1, Ordering::SeqCst);
                        }
                        (seq, result)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut out = Vec::new();
    for worker in workers {
        for (seq, result) in worker.join().expect("client thread panicked") {
            match result {
                Ok(detection) => out.push((seq, detection)),
                Err(e) => panic!("{e}"),
            }
        }
    }
    out
}

/// Scrapes one numeric field out of a shard's `cluster`/`cache` metrics.
fn metrics_field(addr: &str, section: &str, path: &[&str]) -> Option<u64> {
    let line = format!("{{\"id\":0,\"verb\":\"metrics\",\"sections\":[\"{section}\"]}}");
    let response = round_trip(addr, &line).ok()?;
    let mut node = response.get("metrics")?;
    for key in path {
        node = node.get(key)?;
    }
    node.as_u64()
}

/// Evaluates one representative of every shape in-process — the
/// single-process ground truth the routed answers must match byte for
/// byte. Going through a real `gbd-serve` instance exercises the same
/// parse/render path the shards use.
fn reference_detections(seqs: &[usize]) -> HashMap<(usize, bool), String> {
    let mut representatives: Vec<usize> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for &seq in seqs {
        if seen.insert(ROUTED.shape(seq)) {
            representatives.push(seq);
        }
    }
    let server = gbd_serve::Server::bind(
        gbd_serve::ServeConfig::default(),
        Arc::new(gbd_engine::Engine::new()),
    )
    .expect("bind reference server");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let mut expected = HashMap::new();
    for seq in representatives {
        let response = round_trip(&addr, &ROUTED.line(seq)).expect("reference round trip");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "reference request {seq} errored"
        );
        let detection = response.get("detection").expect("reference detection");
        expected.insert(ROUTED.shape(seq), detection.render());
    }
    handle.shutdown();
    thread
        .join()
        .expect("reference server panicked")
        .expect("reference server failed");
    expected
}

// ---------------------------------------------------------------------------
// The chaos proof
// ---------------------------------------------------------------------------

#[test]
fn killing_a_shard_mid_run_fails_over_bit_identically() {
    let standby_store = temp_path("standby.gbdstore");
    let shard0_store = temp_path("shard0.gbdstore");

    // Standby: own store, replica listener, not yet routed to.
    let mut standby = spawn_groupdet(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--store",
        standby_store.to_str().expect("utf-8 temp path"),
        "--replica-listen",
        "127.0.0.1:0",
        "--shard-id",
        "standby0",
    ]);
    let replica_addr = standby
        .replica_addr
        .clone()
        .expect("standby listening event carries replica_addr");

    // Shard 0 ships every store append to the standby; shard 1 is plain.
    let shard0 = spawn_groupdet(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--store",
        shard0_store.to_str().expect("utf-8 temp path"),
        "--shard-id",
        "shard0",
        "--replicate-to",
        &replica_addr,
    ]);
    let mut shard1 =
        spawn_groupdet(&["serve", "--addr", "127.0.0.1:0", "--shard-id", "shard1"]);

    let mut router = spawn_groupdet(&[
        "route",
        "--addr",
        "127.0.0.1:0",
        "--shard",
        &shard0.addr,
        "--shard",
        &shard1.addr,
        "--standby",
        &format!("0:{}", standby.addr),
        "--heartbeat-ms",
        "200",
    ]);

    let clients = 4;
    let total = 80usize;
    let split = 32usize;
    let expected = reference_detections(&(0..total).collect::<Vec<_>>());

    // Phase A: a clean batch before any failure. Shard 0's appends ship
    // to the standby as they happen.
    let before = drive_batch(&router.addr, (0..split).collect(), clients, &Arc::default());

    // The standby must have applied replicated records before the kill —
    // that is what makes its takeover warm rather than cold.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let applied = metrics_field(
            &standby.addr,
            "cluster",
            &["cluster", "replication", "applied_records"],
        )
        .unwrap_or(0);
        if applied > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "standby applied no replicated records"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Phase B: the same mix keeps flowing, and shard 0 is SIGKILLed once
    // phase B's first answer is back, with the rest of it in flight — no
    // drain, no snapshot, no goodbye. Every request must still be
    // answered: the router sheds, retries, trips the breaker, and
    // promotes the standby under this load.
    let answered = Arc::new(AtomicUsize::new(0));
    let phase_b = {
        let router_addr = router.addr.clone();
        let answered = Arc::clone(&answered);
        std::thread::spawn(move || {
            drive_batch(&router_addr, (split..total).collect(), clients, &answered)
        })
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    while answered.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "phase B was never answered");
        std::thread::sleep(Duration::from_millis(1));
    }
    let answered_at_kill = {
        let mut shard0 = shard0;
        shard0.child.kill().expect("SIGKILL shard0");
        let answered_at_kill = answered.load(Ordering::SeqCst);
        shard0.child.wait().expect("reap shard0");
        answered_at_kill
    };
    let after = phase_b.join().expect("phase B load thread panicked");
    assert!(
        answered_at_kill < total - split,
        "the kill landed after all of phase B was answered"
    );

    // Bit-identity: every routed answer, before and after the kill,
    // matches the single-process evaluation of its shape byte for byte.
    for (seq, detection) in before.iter().chain(&after) {
        assert_eq!(
            expected.get(&ROUTED.shape(*seq)),
            Some(detection),
            "request {seq} diverged from the single-process engine"
        );
    }
    assert_eq!(before.len() + after.len(), total, "a request went missing");

    // The standby now serves shard 0's slots from its replicated store:
    // records it applied over the wire count as store loads, and the
    // router records the failover.
    let store_loads = metrics_field(&standby.addr, "cache", &["cache", "store_loads"]);
    assert!(
        store_loads.is_some_and(|loads| loads > 0),
        "standby served without store loads: {store_loads:?}"
    );
    let router_metrics =
        round_trip(&router.addr, "{\"id\":0,\"verb\":\"metrics\"}").expect("router metrics");
    let failovers = router_metrics
        .get("router")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get("failovers"))
        .and_then(Json::as_u64);
    assert!(
        failovers.is_some_and(|n| n >= 1),
        "router recorded no failover: {failovers:?}"
    );
    let slot0_failed_over = router_metrics
        .get("router")
        .and_then(|r| r.get("slots"))
        .and_then(Json::as_arr)
        .and_then(<[Json]>::first)
        .and_then(|slot| slot.get("failed_over"))
        .and_then(Json::as_bool);
    assert_eq!(
        slot0_failed_over,
        Some(true),
        "slot 0 did not re-pin to the standby"
    );

    // Clean drain everywhere that is still alive: each survivor acks the
    // shutdown verb and exits 0.
    for survivor in [&mut router, &mut shard1, &mut standby] {
        let addr = survivor.addr.clone();
        let ack = round_trip(&addr, "{\"id\":9,\"verb\":\"shutdown\"}").expect("shutdown ack");
        assert_eq!(
            ack.get("shutting_down").and_then(Json::as_bool),
            Some(true),
            "no shutdown ack from {addr}"
        );
        let status = survivor.exit_status();
        assert!(status.success(), "{addr} exited with {status}");
    }
    let _ = std::fs::remove_file(&standby_store);
    let _ = std::fs::remove_file(&shard0_store);
}

// ---------------------------------------------------------------------------
// The observability proof
// ---------------------------------------------------------------------------

/// One pipelined client: sends `seqs` of [`MIXED`] on one connection with
/// up to `window` requests outstanding. A server answers a connection in
/// submission order, so every reply must carry the oldest outstanding id.
fn drive_pipelined(addr: &str, seqs: std::ops::Range<usize>, window: usize) {
    let stream = TcpStream::connect(addr).expect("connect client");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut outstanding = VecDeque::new();
    let mut next = seqs.start;
    let mut reply = String::new();
    while next < seqs.end || !outstanding.is_empty() {
        while next < seqs.end && outstanding.len() < window {
            writer
                .write_all(format!("{}\n", MIXED.line(next)).as_bytes())
                .expect("send request");
            outstanding.push_back(next);
            next += 1;
        }
        reply.clear();
        reader.read_line(&mut reply).expect("read reply");
        let response = Json::parse(reply.trim()).expect("reply is JSON");
        let seq = outstanding.pop_front().expect("a request is outstanding");
        assert_eq!(
            response.get("id").and_then(Json::as_u64),
            Some(seq as u64),
            "replies out of submission order"
        );
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {seq}: {}",
            reply.trim()
        );
    }
}

/// Attaches a replaying `watch` and reads windows until the `evaluated`
/// total reaches `expected`, then ends the stream with `unwatch`. The
/// replay must start at window 1, so the `evaluated` deltas must sum to
/// the last window's total.
fn watch_evaluated(addr: &str, expected: u64) {
    let stream = TcpStream::connect(addr).expect("connect watcher");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut recv = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read watch line");
        Json::parse(line.trim()).expect("watch line is JSON")
    };
    writer
        .write_all(b"{\"id\":0,\"verb\":\"watch\",\"replay\":true}\n")
        .expect("send watch");
    assert_eq!(recv().get("watching").and_then(Json::as_bool), Some(true));
    let (mut first_seq, mut delta_sum, mut total) = (None, 0, 0);
    // The replay ring holds up to 120 windows; six live windows past it
    // are enough for the total to catch up.
    for _ in 0..126 {
        let line = recv();
        let window = line.get("window").expect("a window line");
        first_seq.get_or_insert(window.get("seq").and_then(Json::as_u64));
        let evaluated = window
            .get("counters")
            .and_then(|c| c.get("evaluated"))
            .expect("the evaluated counter");
        delta_sum += evaluated
            .get("delta")
            .and_then(Json::as_u64)
            .expect("delta");
        total = evaluated
            .get("total")
            .and_then(Json::as_u64)
            .expect("total");
        if total >= expected {
            break;
        }
    }
    assert_eq!(first_seq, Some(Some(1)), "the replay ring overflowed");
    assert_eq!(delta_sum, total, "evaluated deltas do not telescope");
    assert!(
        total >= expected,
        "windows show {total} evaluations, the run completed {expected}"
    );
    writer
        .write_all(b"{\"id\":1,\"verb\":\"unwatch\"}\n")
        .expect("send unwatch");
    // Windows still in flight before the cancel landed, then the
    // terminator, then the ack.
    loop {
        let line = recv();
        if line.get("watch_end").and_then(Json::as_bool) == Some(true) {
            break;
        }
        assert!(
            line.get("window").is_some(),
            "unexpected watch line: {}",
            line.render()
        );
    }
    assert_eq!(recv().get("unwatched").and_then(Json::as_u64), Some(1));
}

/// Scrapes `GET /metrics` and returns every unlabelled sample by name.
fn scrape(metrics_addr: &str) -> HashMap<String, f64> {
    let mut stream = TcpStream::connect(metrics_addr).expect("connect scrape");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send scrape");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape");
    assert!(response.starts_with("HTTP/1.1 200"), "scrape: {response}");
    response
        .lines()
        .filter(|line| !line.starts_with('#') && !line.contains('{'))
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[test]
fn mixed_load_on_a_store_backed_server_reconciles_every_metrics_surface() {
    let store = temp_path("obs.gbdstore");
    let mut server = spawn_groupdet(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--metrics-addr",
        "127.0.0.1:0",
        "--obs-window-ms",
        "250",
        "--store",
        store.to_str().expect("utf-8 temp path"),
    ]);
    let metrics_addr = server
        .metrics_addr
        .clone()
        .expect("listening event carries metrics_addr");

    let (clients, per_client) = (4, 32);
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = server.addr.clone();
            std::thread::spawn(move || {
                drive_pipelined(&addr, c * per_client..(c + 1) * per_client, 8)
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread panicked");
    }

    // The coalescer batched, and a request's latency is its queue wait
    // plus its batch's compute, so the histogram sums agree within 25 %.
    let reply = round_trip(
        &server.addr,
        r#"{"id":0,"verb":"metrics","sections":["server","histograms"]}"#,
    )
    .expect("metrics verb");
    let metrics = reply.get("metrics").expect("metrics payload");
    let factor = metrics
        .get("server")
        .and_then(|s| s.get("coalescing_factor"))
        .and_then(Json::as_f64)
        .expect("coalescing_factor");
    assert!(factor > 1.0, "coalescing factor {factor}");
    let sum_us = |name: &str| {
        metrics
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("sum_us"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("no {name} sum"))
    };
    let (latency, wait, compute) = (
        sum_us("latency_us"),
        sum_us("queue_wait_us"),
        sum_us("compute_us"),
    );
    assert!(
        latency > 0 && 4 * (wait + compute).abs_diff(latency) <= latency,
        "queue wait {wait} + compute {compute} vs latency {latency} µs"
    );

    watch_evaluated(&server.addr, (clients * per_client) as u64);

    // The Prometheus scrape tells the same story.
    let samples = scrape(&metrics_addr);
    let sample = |name: &str| {
        samples
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("no {name} sample"))
    };
    let evaluated = sample("gbd_evaluated_total");
    assert!(evaluated > 0.0, "the load never registered");
    assert_eq!(sample("gbd_latency_us_count"), evaluated);
    assert!(
        sample("gbd_store_spills_total") > 0.0,
        "the store saw no spills"
    );
    let (latency, wait, compute) = (
        sample("gbd_latency_us_sum"),
        sample("gbd_queue_wait_us_sum"),
        sample("gbd_compute_us_sum"),
    );
    assert!(
        latency > 0.0 && (wait + compute - latency).abs() <= 0.25 * latency,
        "scraped queue wait {wait} + compute {compute} vs latency {latency} µs"
    );

    let ack = round_trip(&server.addr, r#"{"id":1,"verb":"shutdown"}"#).expect("shutdown ack");
    assert_eq!(ack.get("shutting_down").and_then(Json::as_bool), Some(true));
    let status = server.exit_status();
    assert!(status.success(), "server exited with {status}");
    let _ = std::fs::remove_file(&store);
}
