//! End-to-end tests of the `gbd-serve` network layer.
//!
//! The headline scenarios are the acceptance proofs of the serving work:
//!
//! 1. 8 concurrent clients × 16 requests each over TCP produce
//!    **bit-identical** results to the same 128 requests evaluated
//!    directly via [`Engine::evaluate_batch`], with server stats showing a
//!    mean coalesced batch size > 1 and zero shed requests.
//! 2. Overflowing the admission queue yields structured `overloaded`
//!    errors while the server keeps serving.
//!
//! Around them: protocol fuzzing (garbage bytes, truncated and huge
//! lines — connection and server survive), a property test correlating
//! ids across K clients × R pipelined requests, and chaos injection
//! proving a worker panic fails only its own request.

use gbd_core::params::SystemParams;
use gbd_engine::{BackendSpec, ChaosPlan, Engine, EvalRequest};
use gbd_serve::{Json, ServeConfig, Server, ServerHandle};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Once};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct TestServer {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start(config: ServeConfig, engine: Engine) -> TestServer {
    let server = Server::bind(config, Arc::new(engine)).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    TestServer {
        addr,
        handle,
        thread,
    }
}

impl TestServer {
    fn stop(self) {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread panicked")
            .expect("server run failed");
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        let read_half = stream.try_clone().expect("clone stream");
        Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send raw");
        self.writer.flush().expect("flush raw");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        Json::parse(line.trim()).expect("response is valid JSON")
    }
}

fn error_code(response: &Json) -> Option<&str> {
    response.get("error")?.get("code")?.as_str()
}

/// Injected panics are expected; keep their backtrace spam out of the test
/// output while leaving real panics loud.
fn silence_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|msg| msg.starts_with("chaos:"));
            if !injected {
                previous(info);
            }
        }));
    });
}

// ---------------------------------------------------------------------------
// Acceptance: micro-batching end to end
// ---------------------------------------------------------------------------

/// The deterministic request mix shared by the wire and direct paths:
/// global sequence number → parameters. Cycles seven sensor counts so the
/// batch exercises both cache hits and misses.
fn mix_params(seq: usize) -> SystemParams {
    SystemParams::paper_defaults().with_n_sensors(60 + 30 * (seq % 7))
}

#[test]
fn eight_clients_match_direct_evaluate_batch_bit_for_bit() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 16;
    // A generous flush window, so the 128 pipelined requests pile into
    // size-triggered batches rather than many timer-triggered singletons.
    let server = start(
        ServeConfig {
            batch_max: 32,
            flush_interval: Duration::from_millis(100),
            ..ServeConfig::default()
        },
        Engine::new(),
    );
    let addr = server.addr;

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                // Pipeline all 16 requests, then collect 16 in-order
                // responses.
                for i in 0..PER_CLIENT {
                    let seq = c * PER_CLIENT + i;
                    let n = mix_params(seq).n_sensors();
                    client.send(&format!(
                        r#"{{"id":{i},"verb":"eval","params":{{"n":{n}}}}}"#
                    ));
                }
                (0..PER_CLIENT)
                    .map(|i| {
                        let response = client.recv();
                        assert_eq!(
                            response.get("id").and_then(Json::as_u64),
                            Some(i as u64),
                            "response out of order"
                        );
                        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
                        let detection = response.get("detection").unwrap().as_arr().unwrap();
                        let pair = detection[0].as_arr().unwrap();
                        (pair[0].as_usize().unwrap(), pair[1].as_f64().unwrap())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let wire: Vec<Vec<(usize, f64)>> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();

    // Server-side acceptance counters: mean batch size > 1, zero shed.
    let mut control = Client::connect(addr);
    control.send(r#"{"id":0,"verb":"metrics","sections":["server"]}"#);
    let stats = control.recv();
    let stats = stats.get("metrics").and_then(|m| m.get("server")).unwrap();
    let factor = stats
        .get("coalescing_factor")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(factor > 1.0, "no coalescing happened: factor = {factor}");
    assert_eq!(stats.get("shed").and_then(Json::as_u64), Some(0));
    assert_eq!(
        stats.get("evaluated").and_then(Json::as_u64),
        Some((CLIENTS * PER_CLIENT) as u64)
    );
    server.stop();

    // The same 128 requests straight into a fresh engine's batch API.
    let requests: Vec<EvalRequest> = (0..CLIENTS * PER_CLIENT)
        .map(|seq| EvalRequest::new(mix_params(seq), BackendSpec::ms_default()))
        .collect();
    let direct = Engine::new().evaluate_batch(&requests);
    for (c, client_wire) in wire.iter().enumerate() {
        for (i, &(wire_k, wire_p)) in client_wire.iter().enumerate() {
            let seq = c * PER_CLIENT + i;
            let expect = &direct[seq].detection[0];
            assert_eq!(wire_k, expect.0);
            assert_eq!(
                wire_p.to_bits(),
                expect.1.to_bits(),
                "request {seq}: wire {} != direct {}",
                wire_p,
                expect.1
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Acceptance: admission control under overflow
// ---------------------------------------------------------------------------

#[test]
fn queue_overflow_sheds_with_structured_errors_and_keeps_serving() {
    // Tiny queue, no size trigger, and a flush interval long enough that
    // nothing drains while we overfill.
    let server = start(
        ServeConfig {
            batch_max: 1000,
            flush_interval: Duration::from_secs(30),
            queue_depth: 2,
            ..ServeConfig::default()
        },
        Engine::new(),
    );

    let mut client = Client::connect(server.addr);
    for id in 0..20 {
        client.send(&format!(
            r#"{{"id":{id},"verb":"eval","params":{{"n":60}}}}"#
        ));
    }
    // The server keeps serving while 18 requests sit shed and 2 sit
    // queued: a second connection gets an immediate pong and sees the
    // shed count in the metrics server section.
    let mut probe = Client::connect(server.addr);
    probe.send(r#"{"id":1,"verb":"ping"}"#);
    assert_eq!(probe.recv().get("pong").and_then(Json::as_bool), Some(true));
    // The 20 pipelined sends race the server's reader thread, so poll until
    // the shed count converges rather than asserting on the first scrape.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let shed = loop {
        probe.send(r#"{"id":2,"verb":"metrics","sections":["server"]}"#);
        let shed = probe
            .recv()
            .get("metrics")
            .and_then(|m| m.get("server"))
            .and_then(|s| s.get("shed"))
            .and_then(Json::as_u64);
        if shed == Some(18) || std::time::Instant::now() >= deadline {
            break shed;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(shed, Some(18));

    // Drain: the two admitted requests must still complete.
    server.handle.shutdown();
    for id in 0..20u64 {
        let response = client.recv();
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(id));
        if id < 2 {
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(true),
                "admitted request {id} failed"
            );
        } else {
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(error_code(&response), Some("overloaded"));
        }
    }
    server.thread.join().expect("join").expect("run");
}

// ---------------------------------------------------------------------------
// Protocol hygiene: garbage in, structured errors out, connection alive
// ---------------------------------------------------------------------------

#[test]
fn garbage_input_gets_structured_errors_and_never_kills_the_connection() {
    let server = start(
        ServeConfig {
            max_line_bytes: 512,
            ..ServeConfig::default()
        },
        Engine::new(),
    );
    let mut client = Client::connect(server.addr);

    // (line to send, expected error code) — one response per line.
    let cases: Vec<(Vec<u8>, &str)> = vec![
        (b"not json at all".to_vec(), "bad_request"),
        (b"{\"id\":}".to_vec(), "bad_request"),
        (b"42".to_vec(), "bad_request"),
        (b"{\"id\":1}".to_vec(), "bad_request"),
        (b"{\"id\":1,\"verb\":\"warp\"}".to_vec(), "bad_request"),
        (
            b"{\"id\":1,\"verb\":\"eval\",\"params\":{\"pd\":7}}".to_vec(),
            "bad_request",
        ),
        (
            b"{\"id\":1,\"verb\":\"eval\",\"params\":[]}".to_vec(),
            "bad_request",
        ),
        (
            b"{\"id\":1,\"verb\":\"eval\",\"params\":{\"n\":60,\"n\":70}}".to_vec(),
            "bad_request",
        ),
        // Raw binary garbage (invalid UTF-8).
        (vec![0x00, 0xff, 0xfe, 0x80, 0x9b], "bad_request"),
        // A huge line: valid JSON, but over the 512-byte cap.
        (
            format!("{{\"id\":1,\"pad\":\"{}\"}}", "x".repeat(2048)).into_bytes(),
            "line_too_long",
        ),
        // Deeply nested JSON (parser depth cap).
        (
            format!("{}1{}", "[".repeat(80), "]".repeat(80)).into_bytes(),
            "bad_request",
        ),
    ];
    for (bytes, expected_code) in &cases {
        client.send_raw(bytes);
        client.send_raw(b"\n");
        let response = client.recv();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            error_code(&response),
            Some(*expected_code),
            "for input {:?}",
            String::from_utf8_lossy(bytes)
        );
    }

    // Same connection still evaluates real work afterwards.
    client.send(r#"{"id":77,"verb":"eval","params":{"n":60}}"#);
    let response = client.recv();
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(77));
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));

    // A truncated line (no newline, then EOF) on a second connection gets
    // an error without disturbing the server.
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    stream
        .write_all(b"{\"id\":5,\"verb\":\"ev")
        .expect("send partial");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("read error line");
    let response = Json::parse(line.trim()).expect("valid JSON");
    assert_eq!(error_code(&response), Some("bad_request"));

    // And the server still accepts fresh connections.
    let mut after = Client::connect(server.addr);
    after.send(r#"{"id":9,"verb":"ping"}"#);
    assert_eq!(after.recv().get("pong").and_then(Json::as_bool), Some(true));
    server.stop();
}

#[test]
fn per_connection_request_limit_is_enforced() {
    let server = start(
        ServeConfig {
            max_requests_per_conn: 2,
            flush_interval: Duration::from_millis(1),
            ..ServeConfig::default()
        },
        Engine::new(),
    );
    let mut client = Client::connect(server.addr);
    for id in 0..3 {
        client.send(&format!(
            r#"{{"id":{id},"verb":"eval","params":{{"n":60}}}}"#
        ));
    }
    for id in 0..3u64 {
        let response = client.recv();
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(id));
        if id < 2 {
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        } else {
            assert_eq!(error_code(&response), Some("conn_limit"));
        }
    }
    // Control verbs are not counted against the eval limit.
    client.send(r#"{"id":8,"verb":"ping"}"#);
    assert_eq!(
        client.recv().get("pong").and_then(Json::as_bool),
        Some(true)
    );
    server.stop();
}

// ---------------------------------------------------------------------------
// Chaos: a worker panic fails only its own request
// ---------------------------------------------------------------------------

#[test]
fn injected_worker_panic_fails_only_the_affected_request() {
    silence_injected_panics();
    // One injected panic per flushed batch; force all 8 requests into a
    // single batch so exactly one is affected.
    let server = start(
        ServeConfig {
            batch_max: 8,
            flush_interval: Duration::from_millis(200),
            ..ServeConfig::default()
        },
        Engine::new().with_chaos(ChaosPlan::new(2008).with_worker_panics(1)),
    );
    let mut client = Client::connect(server.addr);
    for id in 0..8 {
        client.send(&format!(
            r#"{{"id":{id},"verb":"eval","params":{{"n":{}}}}}"#,
            60 + 30 * id
        ));
    }
    let mut panicked = 0;
    let mut succeeded = 0;
    for id in 0..8u64 {
        let response = client.recv();
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(id));
        match error_code(&response) {
            Some("worker_panicked") => panicked += 1,
            None => succeeded += 1,
            other => panic!("unexpected error code {other:?}"),
        }
    }
    assert_eq!(panicked, 1, "exactly one request should absorb the panic");
    assert_eq!(succeeded, 7);
    // Neither the batch, the connection, nor the server died with it.
    client.send(r#"{"id":99,"verb":"ping"}"#);
    assert_eq!(
        client.recv().get("pong").and_then(Json::as_bool),
        Some(true)
    );
    server.stop();
}

// ---------------------------------------------------------------------------
// Shutdown paths
// ---------------------------------------------------------------------------

#[test]
fn shutdown_verb_drains_and_stops_the_server() {
    let server = start(
        ServeConfig {
            flush_interval: Duration::from_millis(500),
            ..ServeConfig::default()
        },
        Engine::new(),
    );
    let mut client = Client::connect(server.addr);
    // An eval queued right before shutdown still gets its answer.
    client.send(r#"{"id":1,"verb":"eval","params":{"n":60}}"#);
    client.send(r#"{"id":2,"verb":"shutdown"}"#);
    let first = client.recv();
    assert_eq!(first.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
    let ack = client.recv();
    assert_eq!(ack.get("shutting_down").and_then(Json::as_bool), Some(true));
    server
        .thread
        .join()
        .expect("server thread")
        .expect("clean exit");
}

// ---------------------------------------------------------------------------
// Observability: metrics verb, retired aliases, watch, exposition
// ---------------------------------------------------------------------------

#[test]
fn metrics_verb_selects_sections_and_retired_aliases_are_rejected() {
    let server = start(
        ServeConfig {
            flush_interval: Duration::from_millis(1),
            ..ServeConfig::default()
        },
        Engine::new(),
    );
    let mut client = Client::connect(server.addr);
    client.send(r#"{"id":1,"verb":"eval","params":{"n":60}}"#);
    assert_eq!(client.recv().get("ok").and_then(Json::as_bool), Some(true));

    // Full payload: versioned, all four sections in canonical order.
    client.send(r#"{"id":2,"verb":"metrics"}"#);
    let full = client.recv();
    assert_eq!(full.get("schema_version").and_then(Json::as_u64), Some(1));
    assert!(full.get("deprecated").is_none());
    let body = full.get("metrics").unwrap();
    let keys: Vec<&str> = match body {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("metrics body is not an object: {other:?}"),
    };
    assert_eq!(keys, ["server", "cache", "store", "histograms"]);
    assert_eq!(
        body.get("server")
            .and_then(|s| s.get("evaluated"))
            .and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        body.get("server")
            .and_then(|s| s.get("verbs"))
            .and_then(|v| v.get("metrics"))
            .and_then(Json::as_u64),
        Some(1)
    );

    // Section selection returns exactly the asked-for sections.
    client.send(r#"{"id":3,"verb":"metrics","sections":["histograms","cache"]}"#);
    let subset = client.recv();
    let body = subset.get("metrics").unwrap();
    let keys: Vec<&str> = match body {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("metrics body is not an object: {other:?}"),
    };
    assert_eq!(
        keys,
        ["cache", "histograms"],
        "canonical order, not request order"
    );
    // The full histograms carry sums; the empty backend histograms render
    // max as null (the old renderer printed a misleading 0).
    let sim = body
        .get("histograms")
        .and_then(|h| h.get("backends"))
        .and_then(|b| b.get("sim"))
        .unwrap();
    assert_eq!(sim.get("count").and_then(Json::as_u64), Some(0));
    assert!(matches!(sim.get("max"), Some(Json::Null)));

    client.send(r#"{"id":4,"verb":"metrics","sections":["warp"]}"#);
    let bad = client.recv();
    assert_eq!(error_code(&bad), Some("bad_request"));

    // The retired `stats`/`store` aliases are unknown verbs now: the
    // connection answers with a structured error and keeps serving.
    for (id, verb) in [(5, "stats"), (6, "store")] {
        client.send(&format!(r#"{{"id":{id},"verb":"{verb}"}}"#));
        let retired = client.recv();
        assert_eq!(error_code(&retired), Some("bad_request"), "{verb}");
        assert_eq!(retired.get("id").and_then(Json::as_u64), Some(id));
    }
    client.send(r#"{"id":7,"verb":"ping"}"#);
    assert_eq!(
        client.recv().get("pong").and_then(Json::as_bool),
        Some(true)
    );
    server.stop();
}

#[test]
fn watch_streams_bounded_windows_and_unwatch_ends_open_streams() {
    let server = start(
        ServeConfig {
            flush_interval: Duration::from_millis(1),
            obs_window: Duration::from_millis(10),
            ..ServeConfig::default()
        },
        Engine::new(),
    );
    let mut client = Client::connect(server.addr);
    client.send(r#"{"id":1,"verb":"eval","params":{"n":60}}"#);
    assert_eq!(client.recv().get("ok").and_then(Json::as_bool), Some(true));

    // Bounded watch with replay: ack, exactly three windows with strictly
    // increasing seq starting at 1 (replay begins at the ring's origin),
    // then the terminator. The eval above must appear in the deltas.
    client.send(r#"{"id":2,"verb":"watch","windows":3,"replay":true}"#);
    let ack = client.recv();
    assert_eq!(ack.get("watching").and_then(Json::as_bool), Some(true));
    assert_eq!(ack.get("windows").and_then(Json::as_u64), Some(3));
    let mut evaluated_deltas = 0;
    let mut evaluated_total = 0;
    let mut last_seq = 0;
    for i in 0..3 {
        let line = client.recv();
        let window = line.get("window").expect("window line");
        let seq = window.get("seq").and_then(Json::as_u64).unwrap();
        if i == 0 {
            assert_eq!(seq, 1, "replay must start at the first ring window");
        } else {
            assert_eq!(seq, last_seq + 1);
        }
        last_seq = seq;
        let evaluated = window
            .get("counters")
            .and_then(|c| c.get("evaluated"))
            .expect("evaluated counter in window");
        evaluated_deltas += evaluated.get("delta").and_then(Json::as_u64).unwrap();
        evaluated_total = evaluated.get("total").and_then(Json::as_u64).unwrap();
    }
    // Deltas from the ring origin telescope to the lifetime total, and
    // every window here closed after the eval above completed.
    assert_eq!(evaluated_deltas, evaluated_total);
    assert_eq!(evaluated_total, 1);
    let end = client.recv();
    assert_eq!(end.get("watch_end").and_then(Json::as_bool), Some(true));
    assert_eq!(end.get("windows").and_then(Json::as_u64), Some(3));

    // Unbounded watch: read a couple of live windows, then `unwatch` from
    // the same connection must end the stream (terminator) before its ack.
    client.send(r#"{"id":3,"verb":"watch"}"#);
    let ack = client.recv();
    assert_eq!(ack.get("watching").and_then(Json::as_bool), Some(true));
    for _ in 0..2 {
        let line = client.recv();
        assert!(line.get("window").is_some(), "expected a window line");
    }
    client.send(r#"{"id":4,"verb":"unwatch"}"#);
    loop {
        let line = client.recv();
        if line.get("watch_end").and_then(Json::as_bool) == Some(true) {
            break;
        }
        assert!(line.get("window").is_some(), "expected window or watch_end");
    }
    let ack = client.recv();
    assert_eq!(ack.get("id").and_then(Json::as_u64), Some(4));
    assert_eq!(ack.get("unwatched").and_then(Json::as_u64), Some(1));

    // The connection still serves ordinary work afterwards.
    client.send(r#"{"id":5,"verb":"ping"}"#);
    assert_eq!(
        client.recv().get("pong").and_then(Json::as_bool),
        Some(true)
    );

    // A connection with an open unbounded watch must not block drain.
    let mut dangling = Client::connect(server.addr);
    dangling.send(r#"{"id":1,"verb":"watch","replay":false}"#);
    let ack = dangling.recv();
    assert_eq!(ack.get("watching").and_then(Json::as_bool), Some(true));
    server.stop();
}

#[test]
fn metrics_exposition_endpoint_serves_prometheus_text() {
    let server = Server::bind(
        ServeConfig {
            flush_interval: Duration::from_millis(1),
            metrics_addr: Some("127.0.0.1:0".to_string()),
            obs_window: Duration::from_millis(10),
            ..ServeConfig::default()
        },
        Arc::new(Engine::new()),
    )
    .expect("bind");
    let addr = server.local_addr();
    let scrape_addr = server.metrics_local_addr().expect("exposition bound");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr);
    client.send(r#"{"id":1,"verb":"eval","params":{"n":60}}"#);
    assert_eq!(client.recv().get("ok").and_then(Json::as_bool), Some(true));

    let scrape = |path: &str| -> String {
        let mut stream = TcpStream::connect(scrape_addr).expect("connect scrape");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream
            .write_all(
                format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
                    .as_bytes(),
            )
            .expect("send request");
        let mut response = String::new();
        use std::io::Read as _;
        stream.read_to_string(&mut response).expect("read response");
        response
    };

    let response = scrape("/metrics");
    assert!(response.starts_with("HTTP/1.1 200"), "got: {response}");
    assert!(response.contains("text/plain; version=0.0.4"));
    assert!(response.contains("# TYPE gbd_evaluated_total counter"));
    assert!(response.contains("gbd_evaluated_total 1"));
    assert!(response.contains("gbd_latency_us_bucket"));
    assert!(response.contains("gbd_latency_us_sum"));
    // Empty histograms export buckets but no percentile gauges.
    assert!(response.contains("gbd_backend_sim_latency_us_count 0"));
    assert!(!response.contains("gbd_backend_sim_latency_us_p50"));

    let missing = scrape("/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "got: {missing}");

    handle.shutdown();
    thread.join().expect("server thread").expect("clean exit");
}

// ---------------------------------------------------------------------------
// Property: id correlation across K clients × R pipelined requests
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn responses_reach_the_right_client_in_order(
        clients in 1usize..=4,
        requests in 1usize..=8,
        batch_max in 1usize..=16,
    ) {
        let server = start(
            ServeConfig {
                batch_max,
                flush_interval: Duration::from_millis(2),
                ..ServeConfig::default()
            },
            // The cheap closed-form backend keeps 5 cases × 32 requests
            // fast; correlation, not numerics, is under test here.
            Engine::new(),
        );
        let addr = server.addr;
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr);
                    // Ids unique per (client, request) so cross-wiring
                    // any two connections would be visible.
                    for i in 0..requests {
                        let id = (c * 1000 + i) as u64;
                        client.send(&format!(
                            r#"{{"id":{id},"verb":"eval","params":{{"n":{}}},"backend":{{"kind":"poisson"}}}}"#,
                            60 + 30 * ((c + i) % 5),
                        ));
                    }
                    (0..requests)
                        .map(|i| {
                            let response = client.recv();
                            (
                                i,
                                response.get("id").and_then(Json::as_u64),
                                response.get("ok").and_then(Json::as_bool),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (c, worker) in workers.into_iter().enumerate() {
            let got = worker.join().expect("client thread");
            for (i, id, ok) in got {
                prop_assert_eq!(id, Some((c * 1000 + i) as u64));
                prop_assert_eq!(ok, Some(true));
            }
        }
        server.stop();
    }
}
