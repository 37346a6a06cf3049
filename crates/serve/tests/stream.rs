//! End-to-end streaming detection sessions against a live server: the
//! wire protocol round trip, the in-session verb rules, the metrics
//! accounting (of one session and of concurrent ones), drain/disconnect
//! teardown, one write per report burst, and reply order behind eval and
//! watch work queued before the session.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gbd_core::params::SystemParams;
use gbd_engine::Engine;
use gbd_field::sensor::SensorId;
use gbd_geometry::point::Point;
use gbd_serve::{Json, ServeConfig, Server, ServerHandle};
use gbd_sim::config::SimConfig;
use gbd_sim::engine::run_trial;
use gbd_stream::{DetectionReport, ReportKind};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn boot() -> (String, ServerHandle, JoinHandle<std::io::Result<()>>) {
    boot_with(ServeConfig::default())
}

fn boot_with(config: ServeConfig) -> (String, ServerHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config, Arc::new(Engine::new())).expect("bind server");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    (addr, handle, thread)
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Conn {
            writer: stream,
            reader,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write newline");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        assert!(!line.is_empty(), "connection closed mid-conversation");
        Json::parse(line.trim()).expect("response is JSON")
    }
}

fn u(json: &Json, key: &str) -> u64 {
    json.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing u64 `{key}` in {}", json.render()))
}

fn error_code(json: &Json) -> String {
    json.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("not an error response: {}", json.render()))
        .to_string()
}

/// The `results/time_to_detection.csv` scenario (M = 10, N = 240, k = 3,
/// seed 2008), same as the gbd-stream replay tests.
fn scenario() -> (SystemParams, SimConfig) {
    let params = SystemParams::paper_defaults()
        .with_m_periods(10)
        .with_n_sensors(240)
        .with_k(3);
    let config = SimConfig::new(params).with_seed(2008);
    (params, config)
}

fn report_json(report: &DetectionReport) -> Json {
    Json::obj(vec![
        ("sensor".to_string(), Json::from(report.sensor.0)),
        ("period".to_string(), Json::from(report.period)),
        ("x".to_string(), Json::from(report.position.x)),
        ("y".to_string(), Json::from(report.position.y)),
    ])
}

/// Renders a `report` verb carrying one period's worth of reports.
fn report_line(id: u64, reports: &[DetectionReport]) -> String {
    Json::obj(vec![
        ("id".to_string(), Json::from(id)),
        ("verb".to_string(), Json::from("report")),
        (
            "reports".to_string(),
            Json::Arr(reports.iter().map(report_json).collect()),
        ),
    ])
    .render()
}

const OPEN_LINE: &str =
    r#"{"id":1,"verb":"stream_open","params":{"n":240,"m":10,"k":3},"boundary":"torus"}"#;

/// Three reports from one position in periods `first..first + 3`: at
/// k = 3 the third completes a group and fires an event.
fn group_burst(id: u64, first: usize) -> String {
    let reports: Vec<DetectionReport> = (first..first + 3)
        .map(|period| {
            DetectionReport::new(
                SensorId(1),
                period,
                Point::new(500.0, 500.0),
                ReportKind::TrueDetection,
            )
        })
        .collect();
    report_line(id, &reports)
}

#[test]
fn session_round_trip_replays_the_simulator() {
    let (params, config) = scenario();
    // A trial the simulator detects, so the session must emit events.
    let outcome = (0..64)
        .map(|trial| run_trial(&config, trial))
        .find(|o| o.first_detection_period(params.k()).is_some())
        .expect("scenario produces detections");
    let expected_first = outcome.first_detection_period(params.k());

    let (addr, handle, thread) = boot();
    let mut conn = Conn::connect(&addr);

    conn.send(OPEN_LINE);
    let ack = conn.recv();
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(ack.get("streaming").and_then(Json::as_bool), Some(true));
    assert_eq!(u(&ack, "k"), 3);
    assert_eq!(u(&ack, "m"), 10);

    // Control verbs answer through the session; eval/watch/reopen do not.
    conn.send(r#"{"id":2,"verb":"ping"}"#);
    let pong = conn.recv();
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(u(&pong, "id"), 2);
    conn.send(r#"{"id":3,"verb":"eval"}"#);
    assert_eq!(error_code(&conn.recv()), "bad_request");
    conn.send(r#"{"id":4,"verb":"watch"}"#);
    assert_eq!(error_code(&conn.recv()), "bad_request");
    conn.send(OPEN_LINE);
    assert_eq!(error_code(&conn.recv()), "bad_request");

    // Feed the trial period by period; collect pushed detection events.
    let mut sent = 0u64;
    let mut events: Vec<(u64, u64)> = Vec::new(); // (seq, period)
    let mut next_id = 100u64;
    let mut i = 0;
    while i < outcome.reports.len() {
        let period = outcome.reports[i].period;
        let mut j = i;
        while j < outcome.reports.len() && outcome.reports[j].period == period {
            j += 1;
        }
        conn.send(&report_line(next_id, &outcome.reports[i..j]));
        let ack = conn.recv();
        assert_eq!(u(&ack, "id"), next_id, "acks arrive in order");
        assert_eq!(u(&ack, "ingested"), (j - i) as u64);
        assert_eq!(u(&ack, "late"), 0);
        sent += (j - i) as u64;
        for _ in 0..u(&ack, "events") {
            let line = conn.recv();
            // Events are tagged with the stream_open id.
            assert_eq!(u(&line, "id"), 1);
            let event = line.get("event").expect("event body");
            events.push((u(event, "seq"), u(event, "period")));
        }
        next_id += 1;
        i = j;
    }
    assert!(!events.is_empty(), "detected trial must emit events");
    assert_eq!(
        events.first().map(|&(_, p)| p as usize),
        expected_first,
        "first streamed event must match the simulator's first-detection period"
    );
    let seqs: Vec<u64> = events.iter().map(|&(s, _)| s).collect();
    assert_eq!(
        seqs,
        (0..events.len() as u64).collect::<Vec<_>>(),
        "event sequence numbers are dense and ordered"
    );

    conn.send(r#"{"id":9,"verb":"stream_close"}"#);
    let end = conn.recv();
    assert_eq!(end.get("stream_end").and_then(Json::as_bool), Some(true));
    assert_eq!(u(&end, "reports"), sent);
    assert_eq!(u(&end, "events"), events.len() as u64);

    // The connection reverts to plain request/response after the close.
    conn.send(r#"{"id":10,"verb":"eval","params":{"n":120}}"#);
    let eval = conn.recv();
    assert_eq!(
        eval.get("ok").and_then(Json::as_bool),
        Some(true),
        "eval after stream_close: {}",
        eval.render()
    );

    // The stream metrics section accounts every report and event.
    let mut probe = Conn::connect(&addr);
    probe.send(r#"{"id":11,"verb":"metrics","sections":["stream"]}"#);
    let metrics = probe.recv();
    let stream = metrics
        .get("metrics")
        .and_then(|m| m.get("stream"))
        .expect("stream section");
    assert_eq!(u(stream, "sessions_opened"), 1);
    assert_eq!(u(stream, "sessions_closed"), 1);
    assert_eq!(u(stream, "sessions_aborted"), 0);
    assert_eq!(u(stream, "open_sessions"), 0);
    assert_eq!(u(stream, "reports"), sent);
    assert_eq!(u(stream, "events"), events.len() as u64);
    assert_eq!(u(stream, "tracks_live"), 0, "closed session frees tracks");

    handle.shutdown();
    thread.join().expect("server thread").expect("server run");
}

/// Replays `trials` of the scenario on one session and closes it. Each
/// trial's periods start 20 past the previous trial's, beyond the M = 10
/// window, so no track chains across trials. Returns the reports and
/// events the session counted, which its close ack must repeat.
fn replay_session(addr: &str, trials: std::ops::Range<u64>) -> (u64, u64) {
    let (_, config) = scenario();
    let mut conn = Conn::connect(addr);
    conn.send(OPEN_LINE);
    assert_eq!(
        conn.recv().get("streaming").and_then(Json::as_bool),
        Some(true)
    );
    let (mut reports, mut events, mut next_id) = (0u64, 0u64, 100u64);
    for (i, trial) in trials.enumerate() {
        let mut outcome = run_trial(&config, trial);
        for report in &mut outcome.reports {
            report.period += 20 * i;
        }
        for burst in outcome.reports.chunk_by(|a, b| a.period == b.period) {
            conn.send(&report_line(next_id, burst));
            let ack = conn.recv();
            assert_eq!(u(&ack, "id"), next_id, "acks arrive in order");
            assert_eq!(u(&ack, "ingested"), burst.len() as u64);
            reports += burst.len() as u64;
            for _ in 0..u(&ack, "events") {
                let line = conn.recv();
                assert!(
                    line.get("event").is_some(),
                    "not an event: {}",
                    line.render()
                );
                events += 1;
            }
            next_id += 1;
        }
    }
    conn.send(&format!(r#"{{"id":{next_id},"verb":"stream_close"}}"#));
    let end = conn.recv();
    assert_eq!(end.get("stream_end").and_then(Json::as_bool), Some(true));
    assert_eq!((u(&end, "reports"), u(&end, "events")), (reports, events));
    (reports, events)
}

#[test]
fn concurrent_sessions_reconcile_with_the_stream_section() {
    let (addr, handle, thread) = boot();
    let sessions: Vec<_> = (0..4u64)
        .map(|client| {
            let addr = addr.clone();
            std::thread::spawn(move || replay_session(&addr, 8 * client..8 * (client + 1)))
        })
        .collect();
    let (mut reports, mut events) = (0, 0);
    for session in sessions {
        let (r, e) = session.join().expect("session thread");
        reports += r;
        events += e;
    }
    assert!(events >= 1, "no detection event fired");

    let mut probe = Conn::connect(&addr);
    probe.send(r#"{"id":1,"verb":"metrics","sections":["stream"]}"#);
    let metrics = probe.recv();
    let stream = metrics
        .get("metrics")
        .and_then(|m| m.get("stream"))
        .expect("stream section");
    assert_eq!(u(stream, "sessions_opened"), 4);
    assert_eq!(u(stream, "sessions_closed"), 4);
    assert_eq!(u(stream, "open_sessions"), 0);
    assert_eq!(u(stream, "reports"), reports);
    assert_eq!(u(stream, "events"), events);

    handle.shutdown();
    thread.join().expect("server thread").expect("server run");
}

#[test]
fn disconnect_and_drain_both_account_open_sessions() {
    let (_, config) = scenario();
    let outcome = run_trial(&config, 0);
    let (addr, handle, thread) = boot();

    // Session A: ingest one batch, then vanish without stream_close.
    {
        let mut conn = Conn::connect(&addr);
        conn.send(OPEN_LINE);
        conn.recv();
        let first_period_end = outcome
            .reports
            .iter()
            .position(|r| r.period != outcome.reports[0].period)
            .unwrap_or(outcome.reports.len());
        conn.send(&report_line(50, &outcome.reports[..first_period_end]));
        conn.recv();
    } // dropped: socket closes with the session open

    let metrics = handle.metrics();
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.stream_sessions_aborted.get() < 1 {
        assert!(
            Instant::now() < deadline,
            "disconnected session never reaped"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(metrics.stream_open_sessions.load(Ordering::Relaxed), 0);
    assert_eq!(
        metrics.stream_tracks_live.load(Ordering::Relaxed),
        0,
        "aborted session must return its tracks"
    );

    // Session B: still open when the server drains; the connection's
    // reader writes the shutdown ack, then teardown aborts the session.
    let mut conn = Conn::connect(&addr);
    conn.send(OPEN_LINE);
    conn.recv();
    conn.send(r#"{"id":60,"verb":"shutdown"}"#);
    let ack = conn.recv();
    assert_eq!(ack.get("shutting_down").and_then(Json::as_bool), Some(true));
    thread.join().expect("server thread").expect("server run");

    assert_eq!(metrics.stream_sessions_opened.get(), 2);
    assert_eq!(metrics.stream_sessions_closed.get(), 0);
    assert_eq!(metrics.stream_sessions_aborted.get(), 2);
    assert_eq!(metrics.stream_open_sessions.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.stream_tracks_live.load(Ordering::Relaxed), 0);
}

/// Sends one line and answers with what a single raw `read` returns,
/// split into lines: no client-side buffer joins writes the server made
/// apart.
fn one_read(stream: &mut TcpStream, line: &str) -> Vec<Json> {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    let mut buf = vec![0u8; 1 << 16];
    let n = stream.read(&mut buf).expect("read");
    let text = std::str::from_utf8(&buf[..n]).expect("UTF-8");
    assert!(text.ends_with('\n'), "one read ended mid-line: {text:?}");
    text.lines()
        .map(|l| Json::parse(l).expect("response is JSON"))
        .collect()
}

#[test]
fn a_burst_ack_and_its_events_leave_in_one_write() {
    let (addr, handle, thread) = boot();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let open = one_read(&mut stream, OPEN_LINE);
    assert_eq!(open[0].get("streaming").and_then(Json::as_bool), Some(true));
    // Bursts start 20 periods apart, past the M = 10 window, so each one
    // fires its own group.
    for b in 0..20u64 {
        let id = 100 + b;
        let lines = one_read(&mut stream, &group_burst(id, 1 + 20 * b as usize));
        let ack = &lines[0];
        assert_eq!(u(ack, "id"), id);
        let events = u(ack, "events");
        assert!(events >= 1, "burst {b} fired no event: {}", ack.render());
        assert_eq!(
            lines.len() as u64,
            1 + events,
            "burst {b}: one read held {} of the ack and its {events} events",
            lines.len()
        );
        for event in &lines[1..] {
            assert_eq!(u(event, "id"), 1);
            assert!(
                event.get("event").is_some(),
                "not an event: {}",
                event.render()
            );
        }
    }
    handle.shutdown();
    thread.join().expect("server thread").expect("server run");
}

#[test]
fn session_replies_queue_behind_an_eval_held_in_the_coalescer() {
    // A 100 ms flush interval holds the eval in the coalescer while the
    // session opens, ingests and answers behind it.
    let (addr, handle, thread) = boot_with(ServeConfig {
        flush_interval: Duration::from_millis(100),
        ..ServeConfig::default()
    });
    let mut conn = Conn::connect(&addr);
    let pipeline = [
        r#"{"id":10,"verb":"eval","params":{"n":120}}"#.to_string(),
        OPEN_LINE.to_string(),
        group_burst(11, 1),
        r#"{"id":12,"verb":"ping"}"#.to_string(),
        r#"{"id":13,"verb":"stream_close"}"#.to_string(),
    ];
    conn.writer
        .write_all(format!("{}\n", pipeline.join("\n")).as_bytes())
        .expect("write pipeline");
    let mut replies = Vec::new();
    for (id, key) in [
        (10, "detection"),
        (1, "streaming"),
        (11, "ingested"),
        (1, "event"),
        (12, "pong"),
        (13, "stream_end"),
    ] {
        let reply = conn.recv();
        replies.push(reply.render());
        assert!(
            u(&reply, "id") == id && reply.get(key).is_some(),
            "expected id {id} with `{key}`, got in order: {replies:#?}"
        );
    }
    handle.shutdown();
    thread.join().expect("server thread").expect("server run");
}

#[test]
fn a_live_watch_ahead_of_the_session_ends_before_the_session_ack() {
    let (addr, handle, thread) = boot();
    let mut conn = Conn::connect(&addr);
    conn.send(r#"{"id":20,"verb":"watch"}"#);
    conn.send(OPEN_LINE);
    conn.send(&group_burst(21, 1));
    conn.send(r#"{"id":22,"verb":"unwatch"}"#);
    let watching = conn.recv();
    assert_eq!(u(&watching, "id"), 20);
    assert_eq!(watching.get("watching").and_then(Json::as_bool), Some(true));
    // Window lines may arrive until `unwatch` ends the stream.
    loop {
        let line = conn.recv();
        assert_eq!(
            u(&line, "id"),
            20,
            "the watch must end first: {}",
            line.render()
        );
        if line.get("watch_end").is_some() {
            break;
        }
    }
    let open = conn.recv();
    assert_eq!(open.get("streaming").and_then(Json::as_bool), Some(true));
    let ack = conn.recv();
    assert_eq!(u(&ack, "id"), 21);
    for _ in 0..u(&ack, "events") {
        let event = conn.recv();
        assert_eq!(u(&event, "id"), 1);
        assert!(
            event.get("event").is_some(),
            "not an event: {}",
            event.render()
        );
    }
    let unwatched = conn.recv();
    assert_eq!(u(&unwatched, "id"), 22);
    assert_eq!(u(&unwatched, "unwatched"), 1);
    handle.shutdown();
    thread.join().expect("server thread").expect("server run");
}
