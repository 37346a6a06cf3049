//! Stateful streaming detection sessions over the JSON-lines transport.
//!
//! A `stream_open` turns the connection into a detection session: the
//! reader thread owns a [`StreamDetector`] and answers every verb through
//! the connection's [`ReplySink`] — report acks, detection events and
//! control replies. Once the writer thread has finished whatever the
//! connection queued before the session opened, the reader writes these
//! lines itself, and a report burst's ack and its events leave in one
//! write.
//!
//! **In-session verb rules.** Control verbs (`ping`, `metrics`, `unwatch`,
//! `shutdown`) are answered in order with the session's lines. `eval` and
//! `watch` are rejected until the session closes: they are the verbs the
//! writer thread must wait on (an eval for the coalescer and engine, a
//! watch until its last window or `unwatch`), and every report ack and
//! detection event after them would wait behind that work instead of
//! leaving as soon as its burst is ingested. A second `stream_open` is
//! rejected because a connection holds one detector, and its events carry
//! the one `stream_open` id.
//!
//! Backpressure is the socket's: a client that stops reading blocks the
//! reader in its socket write (or, while the writer still owes earlier
//! replies, on the writer queue bounded by `--max-inflight`), and the
//! reader stops reading reports.

use crate::conn::{control_reply, Closed, ReplySink};
use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::protocol::{self, ErrorCode, StreamOpenSpec, Verb};
use crate::server::ServerShared;
use gbd_obs::CancelToken;
use gbd_stream::{
    DetectionEvent, DetectionReport, StreamConfig, StreamDetector, TrackRule,
    DEFAULT_MAX_TRACKS,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One open streaming session, owned by the connection's reader thread.
pub(crate) struct StreamSession {
    detector: StreamDetector,
    /// The `stream_open` id — detection events are tagged with it so a
    /// pipelining client can tell pushed events from report acks.
    open_id: u64,
    reports: u64,
    events: u64,
    /// Live-track count last published to the shared gauge.
    published_tracks: u64,
}

impl StreamSession {
    /// Opens a session: builds the detector from the spec and returns the
    /// session plus its rendered `stream_open` ack. Also accounts the open
    /// on `metrics`.
    pub(crate) fn open(
        id: u64,
        spec: &StreamOpenSpec,
        metrics: &ServerMetrics,
    ) -> (StreamSession, Json) {
        let p = &spec.params;
        let mut rule = TrackRule::new(p.speed(), p.period_s(), p.sensing_range());
        if spec.torus {
            rule = rule.with_wrap(p.field_width(), p.field_height());
        }
        let max_tracks = if spec.max_tracks == 0 {
            DEFAULT_MAX_TRACKS
        } else {
            spec.max_tracks
        };
        let config = StreamConfig::new(rule, p.k(), p.m_periods()).with_max_tracks(max_tracks);
        metrics.stream_sessions_opened.inc();
        metrics.stream_open_sessions.fetch_add(1, Ordering::Relaxed);
        let ack = Json::obj(vec![
            ("id".to_string(), Json::Int(id as i64)),
            ("ok".to_string(), Json::Bool(true)),
            ("streaming".to_string(), Json::Bool(true)),
            ("k".to_string(), Json::from(p.k())),
            ("m".to_string(), Json::from(p.m_periods())),
            ("max_tracks".to_string(), Json::from(max_tracks)),
            ("torus".to_string(), Json::Bool(spec.torus)),
        ]);
        let session = StreamSession {
            detector: StreamDetector::new(config),
            open_id: id,
            reports: 0,
            events: 0,
            published_tracks: 0,
        };
        (session, ack)
    }

    /// Folds the detector's live-track count into the cross-session gauge.
    fn publish_tracks(&mut self, metrics: &ServerMetrics) {
        let now = self.detector.live_tracks() as u64;
        let prev = self.published_tracks;
        if now >= prev {
            metrics
                .stream_tracks_live
                .fetch_add(now - prev, Ordering::Relaxed);
        } else {
            metrics
                .stream_tracks_live
                .fetch_sub(prev - now, Ordering::Relaxed);
        }
        self.published_tracks = now;
    }

    fn ingest(
        &mut self,
        id: u64,
        reports: &[DetectionReport],
        metrics: &ServerMetrics,
        sink: &mut ReplySink,
    ) -> Result<(), Closed> {
        let received = Instant::now();
        let before = self.detector.stats();
        let events = self.detector.ingest(reports);
        let after = self.detector.stats();
        let ingested = after.reports_ingested - before.reports_ingested;
        let late = after.reports_late - before.reports_late;
        metrics.stream_reports.add(ingested);
        metrics.stream_reports_late.add(late);
        metrics.stream_events.add(events.len() as u64);
        metrics
            .stream_tracks_expired
            .add(after.tracks_expired - before.tracks_expired);
        metrics
            .stream_tracks_evicted
            .add(after.tracks_evicted - before.tracks_evicted);
        self.publish_tracks(metrics);
        self.reports += ingested;
        self.events += events.len() as u64;
        let ack = Json::obj(vec![
            ("id".to_string(), Json::Int(id as i64)),
            ("ok".to_string(), Json::Bool(true)),
            ("ingested".to_string(), Json::from(ingested)),
            ("late".to_string(), Json::from(late)),
            ("events".to_string(), Json::from(events.len())),
        ]);
        sink.reply(ack)?;
        for event in &events {
            sink.reply(render_event(self.open_id, event))?;
        }
        // The burst leaves in one write. Each event's latency ends when
        // that write returns, where the socket takes over.
        sink.flush()?;
        let latency = received.elapsed();
        for _ in &events {
            metrics.stream_event_latency.record(latency);
        }
        Ok(())
    }

    /// Books the session out of the open-session and live-track gauges.
    fn retire(&mut self, metrics: &ServerMetrics) {
        metrics.stream_open_sessions.fetch_sub(1, Ordering::Relaxed);
        let live = self.published_tracks;
        metrics
            .stream_tracks_live
            .fetch_sub(live, Ordering::Relaxed);
        self.published_tracks = 0;
    }

    /// Clean close: books the session out and sends the final ack.
    fn close(
        mut self,
        id: u64,
        metrics: &ServerMetrics,
        sink: &mut ReplySink,
    ) -> Result<(), Closed> {
        self.retire(metrics);
        metrics.stream_sessions_closed.inc();
        let ack = Json::obj(vec![
            ("id".to_string(), Json::Int(id as i64)),
            ("ok".to_string(), Json::Bool(true)),
            ("stream_end".to_string(), Json::Bool(true)),
            ("reports".to_string(), Json::from(self.reports)),
            ("events".to_string(), Json::from(self.events)),
        ]);
        sink.reply(ack)
    }

    /// Teardown without a `stream_close` (disconnect or server drain):
    /// account the abort so every opened session is still accounted for.
    pub(crate) fn abort(mut self, metrics: &ServerMetrics) {
        self.retire(metrics);
        metrics.stream_sessions_aborted.inc();
    }
}

fn render_event(open_id: u64, event: &DetectionEvent) -> Json {
    Json::obj(vec![
        ("id".to_string(), Json::Int(open_id as i64)),
        ("ok".to_string(), Json::Bool(true)),
        (
            "event".to_string(),
            Json::obj(vec![
                ("seq".to_string(), Json::from(event.seq)),
                ("period".to_string(), Json::from(event.period)),
                ("sensor".to_string(), Json::from(event.sensor.0)),
                ("chain_len".to_string(), Json::from(event.chain_len)),
                ("first_period".to_string(), Json::from(event.first_period)),
            ]),
        ),
    ])
}

/// Handles a verb on a connection whose session is open (see the module
/// docs for the in-session verb rules).
pub(crate) fn handle_in_session(
    id: u64,
    verb: Verb,
    session_slot: &mut Option<StreamSession>,
    shared: &Arc<ServerShared>,
    sink: &mut ReplySink,
    watch_tokens: &mut Vec<CancelToken>,
) -> Result<(), Closed> {
    let Some(session) = session_slot.as_mut() else {
        // Callers only route here with an open session.
        return Ok(());
    };
    if let Some(reply) = control_reply(id, &verb, shared, watch_tokens) {
        return sink.reply(reply);
    }
    let metrics = &shared.metrics;
    match verb {
        Verb::Report { reports } => {
            metrics.record_verb("report");
            session.ingest(id, &reports, metrics, sink)
        }
        Verb::StreamClose => {
            metrics.record_verb("stream_close");
            match session_slot.take() {
                Some(active) => active.close(id, metrics, sink),
                None => Ok(()),
            }
        }
        Verb::StreamOpen(_) => {
            metrics.record_verb("stream_open");
            metrics.rejected.inc();
            sink.reply(protocol::error_response(
                Some(id),
                ErrorCode::BadRequest,
                "a stream session is already open on this connection",
            ))
        }
        Verb::Eval(_) => {
            metrics.record_verb("eval");
            metrics.rejected.inc();
            sink.reply(protocol::error_response(
                Some(id),
                ErrorCode::BadRequest,
                "eval is not available while a stream session is open; \
                 send stream_close first",
            ))
        }
        Verb::Watch { .. } => {
            metrics.record_verb("watch");
            metrics.rejected.inc();
            sink.reply(protocol::error_response(
                Some(id),
                ErrorCode::BadRequest,
                "watch is not available while a stream session is open; \
                 send stream_close first",
            ))
        }
        // Answered by `control_reply` above.
        Verb::Ping | Verb::Metrics { .. } | Verb::Unwatch | Verb::Shutdown => Ok(()),
    }
}
