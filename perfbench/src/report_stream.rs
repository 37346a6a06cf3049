//! `report_stream`: two detection sessions straight to one `groupdet serve`
//! shard, each with one report burst outstanding. Bursts are simulator
//! trials with node false alarms, rendered per period and laid end to end
//! with a gap longer than the window M.

use crate::measure::{Outcome, Phase, Setup, SetupClock, MIN_OPS};
use crate::net::{self, field_u64, num, Conn, Server};
use crate::trace::Tracer;
use crate::util::{elapsed_between, elapsed_ns, p50_us, CpuSet, SplitMix};
use crate::Ctx;
use gbd_core::params::SystemParams;
use gbd_sim::config::SimConfig;
use gbd_sim::engine::{run_trial_in, TrialScratch};
use gbd_sim::group_filter::TrackRule;
use gbd_sim::reports::{DetectionReport, ReportKind};
use gbd_stream::{DetectionEvent, StreamConfig, StreamDetector, StreamStats};
use std::hint::black_box;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The `results/time_to_detection.csv` scenario.
const N: usize = 240;
const M: usize = 10;
const K: usize = 3;
const FALSE_ALARM_RATE: f64 = 0.002;
const SESSIONS: usize = 2;
/// Periods between the starts of consecutive trials (gap > M).
const STRIDE: usize = 2 * M;
/// Trials per session in one lap of the burst sequence. A run that sends
/// more bursts than a lap holds replays the lap shifted past its last
/// period, so the detector sees a fresh stretch of the stream.
const LAP_TRIALS: u64 = 12_000;
/// Width of the space-padded `period` field, so a lap shift rewrites
/// digits in place.
const PERIOD_WIDTH: usize = 10;
const WARMUP_PER_SESSION: usize = 2000;
const SETUPS: usize = 5;
/// Burst lines the traced run parses in-process.
const REPLAY_LINES: usize = 5000;
/// Bursts answered in the measured phase when the shard's peak RSS is
/// read: about a third of a 20 s phase today.
const RSS_AT_OPS: usize = 400_000;

const OPEN: &str =
    r#"{"id":1,"verb":"stream_open","params":{"n":240,"m":10,"k":3},"boundary":"torus"}"#;

fn params() -> SystemParams {
    SystemParams::paper_defaults()
        .with_n_sensors(N)
        .with_m_periods(M)
        .with_k(K)
}

/// The detector configuration a session opened with [`OPEN`] runs.
fn stream_config() -> StreamConfig {
    let p = params();
    let rule = TrackRule::new(p.speed(), p.period_s(), p.sensing_range())
        .with_wrap(p.field_width(), p.field_height());
    StreamConfig::new(rule, K, M)
}

/// One pre-rendered `report` line and the reports it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Burst {
    pub reports: Vec<DetectionReport>,
    /// The line, newline included, with each period space-padded.
    pub line: Vec<u8>,
    /// Byte offset of each report's period field in `line`.
    slots: Vec<usize>,
}

impl Burst {
    fn render(id: usize, reports: Vec<DetectionReport>) -> Burst {
        let mut line = format!("{{\"id\":{id},\"verb\":\"report\",\"reports\":[").into_bytes();
        let mut slots = Vec::new();
        for (i, r) in reports.iter().enumerate() {
            if i > 0 {
                line.push(b',');
            }
            let _ = write!(line, "{{\"sensor\":{},\"period\":", r.sensor.0);
            slots.push(line.len());
            let _ = write!(line, "{:>PERIOD_WIDTH$}", r.period);
            // Shortest round-trip floats, as the wire's own renderer writes.
            let _ = write!(line, ",\"x\":{},\"y\":{}}}", r.position.x, r.position.y);
        }
        line.extend_from_slice(b"]}\n");
        Burst {
            reports,
            line,
            slots,
        }
    }

    /// Writes the line with every period shifted by `shift` into `out`.
    fn shifted_into(&self, shift: usize, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.line);
        for (slot, r) in self.slots.iter().zip(&self.reports) {
            let digits = format!("{:>PERIOD_WIDTH$}", r.period + shift);
            out[*slot..*slot + PERIOD_WIDTH].copy_from_slice(digits.as_bytes());
        }
    }

    fn shifted_reports(&self, shift: usize) -> Vec<DetectionReport> {
        self.reports
            .iter()
            .map(|r| DetectionReport {
                period: r.period + shift,
                ..*r
            })
            .collect()
    }
}

/// One session's lap of bursts.
#[derive(Debug, Clone, PartialEq)]
pub struct Lap {
    pub bursts: Vec<Burst>,
}

impl Lap {
    fn periods() -> usize {
        LAP_TRIALS as usize * STRIDE
    }

    /// The `g`-th burst a session sends: burst and period shift.
    fn at(&self, g: usize) -> (&Burst, usize) {
        let n = self.bursts.len();
        (&self.bursts[g % n], (g / n) * Self::periods())
    }
}

pub fn inputs(seed: u64) -> Vec<Lap> {
    (0..SESSIONS)
        .map(|s| {
            let config = SimConfig::new(params())
                .with_false_alarm_rate(FALSE_ALARM_RATE)
                .with_seed(SplitMix::stream(seed, 5 + s as u64).next_u64());
            let mut scratch = TrialScratch::new();
            let mut bursts = Vec::new();
            for trial in 0..LAP_TRIALS {
                let offset = trial as usize * STRIDE;
                let outcome = run_trial_in(&config, trial, &mut scratch);
                let mut reports = outcome.reports.into_iter().peekable();
                while let Some(first) = reports.next() {
                    let mut burst = vec![first];
                    while let Some(r) = reports.next_if(|r| r.period == first.period) {
                        burst.push(r);
                    }
                    for r in &mut burst {
                        r.period += offset;
                        // The wire carries no ground truth: the shard reads
                        // every report as a detection.
                        r.kind = ReportKind::TrueDetection;
                    }
                    bursts.push(Burst::render(bursts.len(), burst));
                }
            }
            Lap { bursts }
        })
        .collect()
}

/// One session's view of its bursts, warm-up included.
#[derive(Debug, Default)]
struct SessionLog {
    /// Bursts sent.
    sent: usize,
    /// Per answered burst, in order: when its last line arrived and its
    /// latency in ns, `u64::MAX` when the ack was wrong.
    ops: Vec<(Instant, u64)>,
    /// `(burst index, event fields)` per pushed event line, `None` when the
    /// line lacked a field.
    events: Vec<(usize, Option<[u64; 5]>)>,
    error: Option<String>,
}

/// Sends bursts `from..` one at a time until `stop` says so; each op ends
/// with the last event line its ack announced.
fn session_loop(
    conn: &mut Conn,
    lap: &Lap,
    from: usize,
    stop: (Option<Instant>, usize, usize),
    tracer: &mut Tracer,
    log: &mut SessionLog,
    progress: &AtomicUsize,
) {
    let (deadline, min_ops, max_ops) = stop;
    let mut buf = Vec::new();
    let mut reply = String::new();
    let mut done = 0;
    let mut g = from;
    while done < max_ops && (done < min_ops || deadline.is_some_and(|d| Instant::now() < d)) {
        let (burst, shift) = lap.at(g);
        burst.shifted_into(shift, &mut buf);
        let sent_at = Instant::now();
        if let Err(e) = conn.send(&buf).and_then(|()| conn.flush()) {
            log.error = Some(format!("send: {e}"));
            return;
        }
        log.sent = g + 1;
        if let Err(e) = conn.recv(&mut reply) {
            log.error = Some(format!("ack: {e}"));
            return;
        }
        let ok = reply.contains("\"ok\":true")
            && field_u64(&reply, "\"ingested\":") == Some(burst.reports.len() as u64);
        let events = field_u64(&reply, "\"events\":").unwrap_or(0);
        for _ in 0..events {
            if let Err(e) = conn.recv(&mut reply) {
                log.error = Some(format!("event: {e}"));
                return;
            }
            log.events.push((g, wire_fields(&reply)));
        }
        let end = Instant::now();
        tracer.record("op", g as u64, None, sent_at, end);
        let latency = elapsed_between(sent_at, end);
        log.ops.push((end, if ok { latency } else { u64::MAX }));
        progress.fetch_add(1, Ordering::Relaxed);
        done += 1;
        g += 1;
    }
}

struct Shard {
    server: Server,
    conns: Vec<Conn>,
    logs: Vec<SessionLog>,
}

fn boot(ctx: &Ctx, laps: &[Lap], cpus: Option<CpuSet>) -> Result<(Shard, Setup), String> {
    let clock = SetupClock::start();
    let start = clock.started();
    let progress = &AtomicUsize::new(0);
    let server = Server::spawn(
        &ctx.groupdet,
        &["serve", "--addr", "127.0.0.1:0"],
        "listening on",
        cpus,
    )
    .map_err(|e| format!("spawn shard: {e}"))?;
    net::wait_ping(&server.addr).map_err(|e| e.to_string())?;
    let mut conns = Vec::new();
    for _ in 0..SESSIONS {
        let mut conn = Conn::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        let ack = conn.call(OPEN).map_err(|e| format!("stream_open: {e}"))?;
        if !ack.contains("\"streaming\":true") {
            return Err(format!("stream_open refused: {ack}"));
        }
        conns.push(conn);
    }
    let mut logs: Vec<SessionLog> = (0..SESSIONS).map(|_| SessionLog::default()).collect();
    let warm = (None, WARMUP_PER_SESSION, WARMUP_PER_SESSION);
    std::thread::scope(|scope| {
        for ((conn, lap), log) in conns.iter_mut().zip(laps).zip(logs.iter_mut()) {
            scope.spawn(move || {
                let mut off = Tracer::new(false, start);
                session_loop(conn, lap, 0, warm, &mut off, log, progress)
            });
        }
    });
    if let Some(e) = logs.iter().find_map(|l| l.error.clone()) {
        return Err(format!("warm-up: {e}"));
    }
    let setup = clock.stop();
    Ok((
        Shard {
            server,
            conns,
            logs,
        },
        setup,
    ))
}

struct Measured {
    phase: Phase,
    setups: Vec<Setup>,
    /// When the measured phase began, and each session's warm-up bursts.
    started: Instant,
    warm: Vec<usize>,
    shard: Shard,
    metrics: gbd_serve::Json,
    tracer: Tracer,
}

fn measure(
    ctx: &Ctx,
    laps: &[Lap],
    traced: bool,
    cpus: Option<CpuSet>,
) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut shard = None;
    for _ in 0..SETUPS {
        drop(shard.take());
        let (booted, s) = boot(ctx, laps, cpus)?;
        setups.push(s);
        shard = Some(booted);
    }
    let mut shard = shard.ok_or("no set-up ran")?;
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..SESSIONS).map(|_| Tracer::new(traced, epoch)).collect();
    let warm: Vec<usize> = shard.logs.iter().map(|l| l.ops.len()).collect();
    let servers = [&shard.server];
    let mut account = net::Accounting::start(&servers);
    let started = account.started();
    let stop = (
        Some(started + Duration::from_secs_f64(ctx.seconds)),
        (MIN_OPS as usize).div_ceil(SESSIONS),
        usize::MAX,
    );
    let (finished, done) = mpsc::channel();
    let progress = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for (((conn, lap), log), tracer) in shard
            .conns
            .iter_mut()
            .zip(laps)
            .zip(shard.logs.iter_mut())
            .zip(tracers.iter_mut())
        {
            let finished = finished.clone();
            let progress = &progress;
            scope.spawn(move || {
                let from = log.sent;
                session_loop(conn, lap, from, stop, tracer, log, progress);
                let _ = finished.send(());
            });
        }
        // Only the clients hold senders now, so a client that dies ends
        // the sampling too.
        drop(finished);
        account.sample_until(&servers, &done, SESSIONS, &progress, RSS_AT_OPS);
    });
    let phase = account.finish(&servers, SESSIONS, SESSIONS);
    let metrics = net::metrics(&shard.server.addr).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new(traced, epoch);
    for t in tracers {
        tracer.absorb(t);
    }
    if let Some(e) = shard.logs.iter().find_map(|l| l.error.as_ref()) {
        return Err(format!("session: {e}"));
    }
    Ok(Measured {
        phase,
        setups,
        started,
        warm,
        shard,
        metrics,
        tracer,
    })
}

fn event_fields(e: &DetectionEvent) -> [u64; 5] {
    [
        e.seq,
        e.period as u64,
        e.sensor.0 as u64,
        e.chain_len as u64,
        e.first_period as u64,
    ]
}

fn wire_fields(line: &str) -> Option<[u64; 5]> {
    Some([
        field_u64(line, "\"seq\":")?,
        field_u64(line, "\"period\":")?,
        field_u64(line, "\"sensor\":")?,
        field_u64(line, "\"chain_len\":")?,
        field_u64(line, "\"first_period\":")?,
    ])
}

/// Replays every burst each session sent through an in-process detector:
/// each burst's events must equal the wire's, and the summed detector
/// counters the shard's `stream` section. Returns the per-burst ingest
/// times and the replay's counters.
fn check(
    m: &mut Measured,
    laps: &[Lap],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (Vec<u64>, StreamStats) {
    let mut ingest_ns = Vec::new();
    let mut total = StreamStats::default();
    for (s, (log, lap)) in m.shard.logs.iter_mut().zip(laps).enumerate() {
        let mut wrong = 0u64;
        let mut detector = StreamDetector::new(stream_config());
        let mut wire = log.events.iter().peekable();
        for g in 0..log.sent {
            let (burst, shift) = lap.at(g);
            let reports = burst.shifted_reports(shift);
            let t0 = Instant::now();
            let events = detector.ingest(&reports);
            ingest_ns.push(elapsed_ns(t0));
            tracer.record("stream.ingest", g as u64, None, t0, Instant::now());
            let mut got = Vec::new();
            while let Some((_, fields)) = wire.next_if(|(b, _)| *b == g) {
                got.push(*fields);
            }
            let want: Vec<Option<[u64; 5]>> =
                events.iter().map(|e| Some(event_fields(e))).collect();
            if got != want {
                wrong += 1;
                if wrong <= 5 {
                    out.error(format!(
                        "session {s} burst {g}: wire events {got:?}, replay {want:?}"
                    ));
                }
                if let Some(op) = log.ops.get_mut(g) {
                    op.1 = u64::MAX;
                }
            }
        }
        let st = detector.stats();
        total.reports_ingested += st.reports_ingested;
        total.reports_late += st.reports_late;
        total.events_emitted += st.events_emitted;
        total.tracks_expired += st.tracks_expired;
        total.tracks_evicted += st.tracks_evicted;
    }
    // The measured bursts, each session's warm-up excluded.
    for (log, &warm) in m.shard.logs.iter().zip(&m.warm) {
        for &(end, latency) in &log.ops[warm..] {
            m.phase.ops.push((elapsed_between(m.started, end), latency));
        }
    }
    m.phase.attempted = m.phase.ops.len() as u64;
    m.phase.failed = m.phase.ops.iter().filter(|o| o.1 == u64::MAX).count() as u64;
    let shard = |key: &str| num(&m.metrics, &["metrics", "stream", key]);
    let pairs = [
        ("reports", total.reports_ingested),
        ("reports_late", total.reports_late),
        ("events", total.events_emitted),
        ("tracks_expired", total.tracks_expired),
        ("tracks_evicted", total.tracks_evicted),
    ];
    for (key, replay) in pairs {
        if shard(key) != replay as f64 {
            out.error(format!(
                "shard stream.{key} = {} but replay = {replay}",
                shard(key)
            ));
        }
    }
    if total.reports_late > 0 || total.tracks_evicted > 0 {
        out.error(format!("lossy stream: {total:?}"));
    }
    (ingest_ns, total)
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<crate::Measurements, String> {
    let cpus = net::place_generator().map_err(|e| format!("cpu placement: {e}"))?;
    let generated = Instant::now();
    let laps = inputs(ctx.seed);
    println!(
        "# inputs: {} sessions x {} bursts per lap ({LAP_TRIALS} trials), generated in {:.3} s",
        laps.len(),
        laps.iter().map(|l| l.bursts.len()).min().unwrap_or(0),
        generated.elapsed().as_secs_f64()
    );
    let mut untraced = measure(ctx, &laps, false, cpus)?;
    let mut off = Tracer::new(false, Instant::now());
    check(&mut untraced, &laps, &mut off, out);
    out.add_phase(&untraced.phase);
    let laps_sent = untraced
        .shard
        .logs
        .iter()
        .zip(&laps)
        .map(|(l, lap)| l.sent as f64 / lap.bursts.len() as f64)
        .fold(0.0, f64::max);
    println!("# laps sent: {laps_sent:.3} (bursts past the first lap repeat it, shifted)");
    drop(untraced.shard);
    if !ctx.trace {
        return Ok(crate::Measurements::untraced(
            untraced.phase,
            untraced.setups,
        ));
    }
    let mut traced = measure(ctx, &laps, true, cpus)?;
    let mut replay = Tracer::new(true, traced.tracer.epoch());
    let (mut ingest_ns, stats) = check(&mut traced, &laps, &mut replay, out);
    out.add_phase(&traced.phase);

    let mut parse_ns = Vec::new();
    let mut buf = Vec::new();
    for g in 0..REPLAY_LINES.min(traced.shard.logs[0].sent) {
        let (burst, shift) = laps[0].at(g);
        burst.shifted_into(shift, &mut buf);
        let text = String::from_utf8_lossy(&buf);
        let t0 = Instant::now();
        let parsed = black_box(gbd_serve::protocol::parse_line(text.trim_end()));
        parse_ns.push(elapsed_ns(t0));
        replay.record("serve.parse_line", g as u64, None, t0, Instant::now());
        if parsed.is_err() {
            out.error(format!("burst line {g} does not parse"));
        }
    }
    let bursts = ingest_ns.len().max(1) as f64;
    let hist = |q: &str| {
        num(
            &traced.metrics,
            &["metrics", "stream", "event_latency_us", q],
        )
    };
    let mut client = traced.phase.latencies();
    out.metric("stream.ingest_us", p50_us(&mut ingest_ns));
    out.metric(
        "stream.events_per_burst",
        stats.events_emitted as f64 / bursts,
    );
    out.metric("stream.tracks_expired", stats.tracks_expired as f64);
    out.metric("stream.tracks_evicted", stats.tracks_evicted as f64);
    out.metric("stream.reports_late", stats.reports_late as f64);
    out.metric("serve.parse_us", p50_us(&mut parse_ns));
    out.metric("serve.session_event_p50_us", hist("p50"));
    out.metric("serve.session_event_p99_us", hist("p99"));
    out.metric(
        "serve.session_transport_p50_us",
        p50_us(&mut client) - hist("p50"),
    );
    let mut tracer = std::mem::replace(&mut traced.tracer, Tracer::new(false, Instant::now()));
    tracer.absorb(replay);
    Ok(crate::Measurements {
        untraced: (untraced.phase, untraced.setups),
        traced: Some((traced.phase, traced.setups)),
        tracer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_gives_identical_bursts() {
        let a = inputs(7);
        assert_eq!(a, inputs(7));
        assert_ne!(a[0].bursts[..100], inputs(8)[0].bursts[..100]);
    }

    #[test]
    fn a_lap_shift_rewrites_only_the_periods() {
        let laps = inputs(7);
        let lap = &laps[0];
        let n = lap.bursts.len();
        let (burst, shift) = lap.at(n + 3);
        assert_eq!(shift, Lap::periods());
        let mut line = Vec::new();
        burst.shifted_into(shift, &mut line);
        let text = String::from_utf8(line).unwrap();
        match gbd_serve::protocol::parse_line(text.trim_end())
            .unwrap()
            .verb
        {
            gbd_serve::Verb::Report { reports } => {
                assert_eq!(reports, burst.shifted_reports(shift));
            }
            other => panic!("not a report: {other:?}"),
        }
    }
}
