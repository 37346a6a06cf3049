//! Server-side instruments and the typed [`MetricsSnapshot`] every
//! report renders from.
//!
//! The counters and histograms live in a [`gbd_obs::Registry`], so the
//! same series back the versioned `metrics` verb, the streaming `watch`
//! windows, and the Prometheus text endpoint. Reports never read live
//! atomics mid-render: [`ServerMetrics::snapshot`] reads everything once
//! into a plain-data snapshot, and the renderers are pure functions of it.

use crate::json::Json;
use crate::protocol::Section;
use gbd_engine::{CacheStats, Engine};
use gbd_obs::{Counter, Histogram, HistogramSnapshot, Registry, WatchMsg, WatchStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Current `metrics` verb payload schema. Bump on breaking shape changes.
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// Verbs with a per-verb request counter, in registration order.
pub const VERBS: [&str; 9] = [
    "eval",
    "metrics",
    "watch",
    "unwatch",
    "ping",
    "shutdown",
    "stream_open",
    "report",
    "stream_close",
];

/// Engine backends with a per-backend serve-latency histogram.
pub const BACKENDS: [&str; 6] = ["ms", "s", "exact", "t", "poisson", "sim"];

/// All instruments the serving layer records into, registered on one
/// shared [`Registry`].
pub struct ServerMetrics {
    registry: Arc<Registry>,
    /// Connections accepted over the server's lifetime.
    pub connections_total: Arc<Counter>,
    /// Connections currently open (inc/dec — registered as a gauge, not a
    /// windowed counter).
    pub connections_active: Arc<AtomicU64>,
    /// Eval requests admitted into the coalescer queue.
    pub admitted: Arc<Counter>,
    /// Eval requests evaluated by the engine (across all batches).
    pub evaluated: Arc<Counter>,
    /// Eval requests shed by admission control (`overloaded`).
    pub shed: Arc<Counter>,
    /// Request lines rejected before admission (`bad_request`,
    /// `line_too_long`, `conn_limit`, `shutting_down`).
    pub rejected: Arc<Counter>,
    /// Batches flushed to the engine.
    pub batches_flushed: Arc<Counter>,
    /// Flushes triggered by reaching the batch-size threshold.
    pub flushes_by_size: Arc<Counter>,
    /// Flushes of fewer than `batch_max` requests: the flush interval
    /// elapsed (at the default interval of zero, every such flush) or the
    /// queue drained for shutdown.
    pub flushes_by_timer: Arc<Counter>,
    /// End-to-end latency (admission to response ready) of eval requests.
    pub latency: Arc<Histogram>,
    /// Queue-wait component: admission to the batch flush that carried the
    /// request. Under light load it is the rest of the flush in progress
    /// (plus the flush interval, when one is set); under heavy load it is
    /// backlog.
    pub queue_wait: Arc<Histogram>,
    /// Compute component: batch flush to that request's response being
    /// ready. `latency ≈ queue_wait + compute` per request.
    pub compute: Arc<Histogram>,
    /// Response lines that failed to reach the client (write or flush I/O
    /// error in the per-connection writer). Before this counter existed a
    /// failed write silently dropped the connection with no metric.
    pub write_errors: Arc<Counter>,
    /// Replicated store records applied by this process's replica
    /// listener (standby role).
    pub replica_applied: Arc<Counter>,
    /// Replicated records that failed to decode or re-append.
    pub replica_apply_errors: Arc<Counter>,
    /// Streaming detection sessions opened (`stream_open`).
    pub stream_sessions_opened: Arc<Counter>,
    /// Sessions closed cleanly by `stream_close`.
    pub stream_sessions_closed: Arc<Counter>,
    /// Sessions torn down by disconnect or server drain instead of a
    /// `stream_close`.
    pub stream_sessions_aborted: Arc<Counter>,
    /// Node reports accepted into session detectors.
    pub stream_reports: Arc<Counter>,
    /// Reports dropped because they predated their session's frontier.
    pub stream_reports_late: Arc<Counter>,
    /// Detection events emitted across all sessions.
    pub stream_events: Arc<Counter>,
    /// DP entries reaped by the sliding window (lossless).
    pub stream_tracks_expired: Arc<Counter>,
    /// DP entries evicted by the per-session track cap (counted
    /// degradation).
    pub stream_tracks_evicted: Arc<Counter>,
    /// Sessions open right now (inc/dec gauge).
    pub stream_open_sessions: Arc<AtomicU64>,
    /// Live DP entries across all open sessions (gauge).
    pub stream_tracks_live: Arc<AtomicU64>,
    /// Report receipt → detection event written to the socket.
    pub stream_event_latency: Arc<Histogram>,
    verbs: Vec<(&'static str, Arc<Counter>)>,
    backends: Vec<(&'static str, Arc<Histogram>)>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// Creates the full instrument set on a fresh registry.
    pub fn new() -> ServerMetrics {
        let registry = Arc::new(Registry::new());
        let connections_active = Arc::new(AtomicU64::new(0));
        let active_probe = Arc::clone(&connections_active);
        registry.gauge("connections_active", move || {
            active_probe.load(Ordering::Relaxed) as f64
        });
        let stream_open_sessions = Arc::new(AtomicU64::new(0));
        let open_probe = Arc::clone(&stream_open_sessions);
        registry.gauge("stream_open_sessions", move || {
            open_probe.load(Ordering::Relaxed) as f64
        });
        let stream_tracks_live = Arc::new(AtomicU64::new(0));
        let tracks_probe = Arc::clone(&stream_tracks_live);
        registry.gauge("stream_tracks_live", move || {
            tracks_probe.load(Ordering::Relaxed) as f64
        });
        ServerMetrics {
            connections_total: registry.counter("connections_total"),
            connections_active,
            admitted: registry.counter("admitted"),
            evaluated: registry.counter("evaluated"),
            shed: registry.counter("shed"),
            rejected: registry.counter("rejected"),
            batches_flushed: registry.counter("batches_flushed"),
            flushes_by_size: registry.counter("flushes_by_size"),
            flushes_by_timer: registry.counter("flushes_by_timer"),
            latency: registry.histogram("latency_us"),
            queue_wait: registry.histogram("queue_wait_us"),
            compute: registry.histogram("compute_us"),
            write_errors: registry.counter("server_write_errors"),
            replica_applied: registry.counter("replica_applied_records"),
            replica_apply_errors: registry.counter("replica_apply_errors"),
            stream_sessions_opened: registry.counter("stream_sessions_opened"),
            stream_sessions_closed: registry.counter("stream_sessions_closed"),
            stream_sessions_aborted: registry.counter("stream_sessions_aborted"),
            stream_reports: registry.counter("stream_reports"),
            stream_reports_late: registry.counter("stream_reports_late"),
            stream_events: registry.counter("stream_events"),
            stream_tracks_expired: registry.counter("stream_tracks_expired"),
            stream_tracks_evicted: registry.counter("stream_tracks_evicted"),
            stream_open_sessions,
            stream_tracks_live,
            stream_event_latency: registry.histogram("stream_event_latency_us"),
            verbs: VERBS
                .iter()
                .map(|&v| (v, registry.counter(&format!("requests_{v}"))))
                .collect(),
            backends: BACKENDS
                .iter()
                .map(|&b| (b, registry.histogram(&format!("backend_{b}_latency_us"))))
                .collect(),
            registry,
        }
    }

    /// The registry behind these instruments — the watch/ticker/exposition
    /// surface.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Bumps the per-verb request counter for `verb` (a [`VERBS`] name).
    pub fn record_verb(&self, verb: &str) {
        if let Some((_, c)) = self.verbs.iter().find(|(v, _)| *v == verb) {
            c.inc();
        }
    }

    /// The serve-latency histogram of the backend that actually served a
    /// response (`EvalResponse::served_by`).
    pub fn backend_latency(&self, served_by: &str) -> Option<&Arc<Histogram>> {
        self.backends
            .iter()
            .find(|(b, _)| *b == served_by)
            .map(|(_, h)| h)
    }

    /// Mean requests per flushed batch; 0 when nothing flushed yet.
    pub fn coalescing_factor(&self) -> f64 {
        let batches = self.batches_flushed.get();
        if batches == 0 {
            return 0.0;
        }
        self.evaluated.get() as f64 / batches as f64
    }

    /// Reads every instrument once into a [`MetricsSnapshot`].
    /// `queue_depth` is sampled by the caller (it lives behind the
    /// coalescer's lock); cache and store state come from the engine;
    /// `cluster` is this process's shard identity and replication state
    /// (None outside cluster mode).
    pub fn snapshot(
        &self,
        queue_depth: usize,
        engine: &Engine,
        cluster: Option<ClusterSnapshot>,
    ) -> MetricsSnapshot {
        let cache = engine.cache_stats();
        let digest = engine.store_digest();
        let store = engine.store_stats().map(|stats| StoreSnapshot {
            live_entries: stats.live_entries,
            loaded_records: stats.loaded_records,
            torn_bytes_discarded: stats.torn_bytes_discarded,
            appended_records: stats.appended_records,
            compactions: stats.compactions,
            file_bytes: stats.file_bytes,
            loads: cache.store_loads,
            spills: cache.store_spills,
            spill_errors: stats.append_errors + engine.store_spill_errors(),
            digest: digest.unwrap_or(0),
        });
        MetricsSnapshot {
            queue_depth,
            connections_total: self.connections_total.get(),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            admitted: self.admitted.get(),
            evaluated: self.evaluated.get(),
            shed: self.shed.get(),
            rejected: self.rejected.get(),
            batches_flushed: self.batches_flushed.get(),
            flushes_by_size: self.flushes_by_size.get(),
            flushes_by_timer: self.flushes_by_timer.get(),
            coalescing_factor: self.coalescing_factor(),
            verbs: self.verbs.iter().map(|(v, c)| (*v, c.get())).collect(),
            cache,
            store,
            latency_us: self.latency.snapshot(),
            queue_wait_us: self.queue_wait.snapshot(),
            compute_us: self.compute.snapshot(),
            backends: self
                .backends
                .iter()
                .map(|(b, h)| (*b, h.snapshot()))
                .collect(),
            watch: self.registry.watch_stats(),
            cluster,
            stream: StreamSnapshot {
                open_sessions: self.stream_open_sessions.load(Ordering::Relaxed),
                sessions_opened: self.stream_sessions_opened.get(),
                sessions_closed: self.stream_sessions_closed.get(),
                sessions_aborted: self.stream_sessions_aborted.get(),
                reports: self.stream_reports.get(),
                reports_late: self.stream_reports_late.get(),
                events: self.stream_events.get(),
                tracks_live: self.stream_tracks_live.load(Ordering::Relaxed),
                tracks_expired: self.stream_tracks_expired.get(),
                tracks_evicted: self.stream_tracks_evicted.get(),
                event_latency_us: self.stream_event_latency.snapshot(),
            },
        }
    }
}

/// Streaming-session state at snapshot time, rendered as the `stream`
/// section when a client requests it explicitly.
#[derive(Debug, Clone)]
pub struct StreamSnapshot {
    /// Sessions open at snapshot time.
    pub open_sessions: u64,
    /// Sessions opened over the server's lifetime.
    pub sessions_opened: u64,
    /// Sessions closed cleanly by `stream_close`.
    pub sessions_closed: u64,
    /// Sessions torn down by disconnect or drain.
    pub sessions_aborted: u64,
    /// Reports accepted into session detectors.
    pub reports: u64,
    /// Reports dropped as late.
    pub reports_late: u64,
    /// Detection events emitted.
    pub events: u64,
    /// Live DP entries across open sessions at snapshot time.
    pub tracks_live: u64,
    /// Entries reaped by the sliding window.
    pub tracks_expired: u64,
    /// Entries evicted by the track cap.
    pub tracks_evicted: u64,
    /// Report ingestion → event emission latency.
    pub event_latency_us: HistogramSnapshot,
}

/// Shard identity and store-replication state at snapshot time, rendered
/// as the `cluster` section when a client requests it explicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSnapshot {
    /// This process's shard identity (`--shard-id`, or the listen address
    /// when unset).
    pub shard_id: String,
    /// `"primary"` when shipping appends to a follower, `"standby"` when
    /// applying a primary's log, `"single"` otherwise.
    pub role: &'static str,
    /// Records shipped to the follower (initial sync included).
    pub shipped_records: u64,
    /// Records that could not be shipped (queue overflow or a dead
    /// follower past the reconnect budget).
    pub ship_errors: u64,
    /// Times the shipper (re)connected to the follower.
    pub ship_connects: u64,
    /// Replicated records applied by this process's replica listener.
    pub applied_records: u64,
    /// Replicated records that failed to decode or re-append.
    pub apply_errors: u64,
}

/// Persistent-store status at snapshot time (present when a store is
/// attached).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Distinct results the store currently holds.
    pub live_entries: u64,
    /// Records replayed at warm start.
    pub loaded_records: u64,
    /// Bytes of torn tail discarded at warm start.
    pub torn_bytes_discarded: u64,
    /// Records appended since open.
    pub appended_records: u64,
    /// Snapshot compactions performed.
    pub compactions: u64,
    /// Current log size in bytes.
    pub file_bytes: u64,
    /// Cache entries seeded from the store at engine construction.
    pub loads: u64,
    /// Freshly computed entries spilled to the store.
    pub spills: u64,
    /// Failed spills (store-side append errors plus engine-side failures).
    pub spill_errors: u64,
    /// CRC32 digest of the live index (order-independent XOR over entry
    /// records) — anti-entropy groundwork: a standby proves convergence by
    /// matching its primary's digest instead of inferring it from applied
    /// counts.
    pub digest: u32,
}

/// Every series the serving layer reports, read once — the single source
/// all renderers (JSON verbs and tests alike) consume.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Requests queued in the coalescer at snapshot time.
    pub queue_depth: usize,
    /// Connections accepted over the server's lifetime.
    pub connections_total: u64,
    /// Connections open at snapshot time.
    pub connections_active: u64,
    /// Eval requests admitted into the coalescer queue.
    pub admitted: u64,
    /// Eval requests evaluated by the engine.
    pub evaluated: u64,
    /// Eval requests shed by admission control.
    pub shed: u64,
    /// Request lines rejected before admission.
    pub rejected: u64,
    /// Batches flushed to the engine.
    pub batches_flushed: u64,
    /// Flushes triggered by batch size.
    pub flushes_by_size: u64,
    /// Flushes of fewer than `batch_max` requests (interval or drain).
    pub flushes_by_timer: u64,
    /// Mean requests per flushed batch.
    pub coalescing_factor: f64,
    /// Per-verb request counts, in [`VERBS`] order.
    pub verbs: Vec<(&'static str, u64)>,
    /// Engine cache counters.
    pub cache: CacheStats,
    /// Store status; `None` when the engine runs memory-only.
    pub store: Option<StoreSnapshot>,
    /// End-to-end eval latency.
    pub latency_us: HistogramSnapshot,
    /// Queue-wait component.
    pub queue_wait_us: HistogramSnapshot,
    /// Compute component.
    pub compute_us: HistogramSnapshot,
    /// Per-backend serve latency, in [`BACKENDS`] order.
    pub backends: Vec<(&'static str, HistogramSnapshot)>,
    /// Watch-subscription health.
    pub watch: WatchStats,
    /// Shard identity and replication state; `None` outside cluster mode.
    pub cluster: Option<ClusterSnapshot>,
    /// Streaming-session state.
    pub stream: StreamSnapshot,
}

/// `count`/`p50`/`p95`/`p99`/`max` summary. An empty histogram renders
/// every statistic as `null` (`max` included: a raw `0` was
/// indistinguishable from a genuine 0µs sample).
fn histogram_brief(h: &HistogramSnapshot) -> Json {
    let q = |p: f64| h.quantile_us(p).map_or(Json::Null, Json::from);
    Json::obj(vec![
        ("count".to_string(), Json::from(h.count)),
        ("p50".to_string(), q(0.50)),
        ("p95".to_string(), q(0.95)),
        ("p99".to_string(), q(0.99)),
        ("max".to_string(), h.max().map_or(Json::Null, Json::from)),
    ])
}

/// The brief shape plus `sum_us`/`mean_us`, for the `histograms` section.
fn histogram_full(h: &HistogramSnapshot) -> Json {
    let Json::Obj(mut fields) = histogram_brief(h) else {
        unreachable!("histogram_brief always renders an object");
    };
    fields.insert(1, ("sum_us".to_string(), Json::from(h.sum_us)));
    fields.insert(
        2,
        (
            "mean_us".to_string(),
            h.mean_us().map_or(Json::Null, Json::Num),
        ),
    );
    Json::Obj(fields)
}

fn store_body(store: Option<&StoreSnapshot>) -> Json {
    match store {
        None => Json::obj(vec![("attached".to_string(), Json::Bool(false))]),
        Some(s) => Json::obj(vec![
            ("attached".to_string(), Json::Bool(true)),
            ("live_entries".to_string(), Json::from(s.live_entries)),
            ("loaded_records".to_string(), Json::from(s.loaded_records)),
            (
                "torn_bytes_discarded".to_string(),
                Json::from(s.torn_bytes_discarded),
            ),
            (
                "appended_records".to_string(),
                Json::from(s.appended_records),
            ),
            ("compactions".to_string(), Json::from(s.compactions)),
            ("file_bytes".to_string(), Json::from(s.file_bytes)),
            ("loads".to_string(), Json::from(s.loads)),
            ("spills".to_string(), Json::from(s.spills)),
            ("spill_errors".to_string(), Json::from(s.spill_errors)),
            ("digest".to_string(), Json::from(u64::from(s.digest))),
        ]),
    }
}

impl MetricsSnapshot {
    /// Renders the versioned `metrics` verb. `sections` selects which
    /// sections appear (empty = all), in canonical order regardless of the
    /// request's order.
    pub fn render_metrics(&self, id: u64, sections: &[Section]) -> Json {
        let wants = |s: Section| sections.is_empty() || sections.contains(&s);
        let mut body = Vec::new();
        if wants(Section::Server) {
            body.push((
                "server".to_string(),
                Json::obj(vec![
                    ("queue_depth".to_string(), Json::from(self.queue_depth)),
                    (
                        "connections_total".to_string(),
                        Json::from(self.connections_total),
                    ),
                    (
                        "connections_active".to_string(),
                        Json::from(self.connections_active),
                    ),
                    ("admitted".to_string(), Json::from(self.admitted)),
                    ("evaluated".to_string(), Json::from(self.evaluated)),
                    ("shed".to_string(), Json::from(self.shed)),
                    ("rejected".to_string(), Json::from(self.rejected)),
                    (
                        "batches_flushed".to_string(),
                        Json::from(self.batches_flushed),
                    ),
                    (
                        "flushes_by_size".to_string(),
                        Json::from(self.flushes_by_size),
                    ),
                    (
                        "flushes_by_timer".to_string(),
                        Json::from(self.flushes_by_timer),
                    ),
                    (
                        "coalescing_factor".to_string(),
                        Json::Num(self.coalescing_factor),
                    ),
                    (
                        "verbs".to_string(),
                        Json::Obj(
                            self.verbs
                                .iter()
                                .map(|&(v, n)| (v.to_string(), Json::from(n)))
                                .collect(),
                        ),
                    ),
                    (
                        "watch".to_string(),
                        Json::obj(vec![
                            ("watchers".to_string(), Json::from(self.watch.watchers)),
                            (
                                "windows_sampled".to_string(),
                                Json::from(self.watch.windows_sampled),
                            ),
                            (
                                "windows_dropped".to_string(),
                                Json::from(self.watch.windows_dropped),
                            ),
                        ]),
                    ),
                ]),
            ));
        }
        if wants(Section::Cache) {
            body.push((
                "cache".to_string(),
                Json::obj(vec![
                    ("hits".to_string(), Json::from(self.cache.hits)),
                    ("misses".to_string(), Json::from(self.cache.misses)),
                    ("evictions".to_string(), Json::from(self.cache.evictions)),
                    (
                        "poisoned_recoveries".to_string(),
                        Json::from(self.cache.poisoned_recoveries),
                    ),
                    (
                        "store_loads".to_string(),
                        Json::from(self.cache.store_loads),
                    ),
                    (
                        "store_spills".to_string(),
                        Json::from(self.cache.store_spills),
                    ),
                    ("hit_rate".to_string(), Json::Num(self.cache.hit_rate())),
                ]),
            ));
        }
        if wants(Section::Store) {
            body.push(("store".to_string(), store_body(self.store.as_ref())));
        }
        if wants(Section::Histograms) {
            body.push((
                "histograms".to_string(),
                Json::obj(vec![
                    ("latency_us".to_string(), histogram_full(&self.latency_us)),
                    (
                        "queue_wait_us".to_string(),
                        histogram_full(&self.queue_wait_us),
                    ),
                    ("compute_us".to_string(), histogram_full(&self.compute_us)),
                    (
                        "backends".to_string(),
                        Json::Obj(
                            self.backends
                                .iter()
                                .map(|(b, h)| (b.to_string(), histogram_full(h)))
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        // The cluster section is opt-in only: an empty selector means "all
        // pre-cluster sections", so default payloads keep their shape and
        // single-process deployments never see cluster noise.
        if sections.contains(&Section::Cluster) {
            let fields = match &self.cluster {
                None => vec![("enabled".to_string(), Json::Bool(false))],
                Some(c) => vec![
                    ("enabled".to_string(), Json::Bool(true)),
                    ("shard_id".to_string(), Json::from(c.shard_id.as_str())),
                    ("role".to_string(), Json::from(c.role)),
                    (
                        "replication".to_string(),
                        Json::obj(vec![
                            ("shipped_records".to_string(), Json::from(c.shipped_records)),
                            ("ship_errors".to_string(), Json::from(c.ship_errors)),
                            ("ship_connects".to_string(), Json::from(c.ship_connects)),
                            ("applied_records".to_string(), Json::from(c.applied_records)),
                            ("apply_errors".to_string(), Json::from(c.apply_errors)),
                        ]),
                    ),
                ],
            };
            body.push(("cluster".to_string(), Json::obj(fields)));
        }
        // The stream section is opt-in only, for the same reason as
        // `cluster`: default payloads keep their shape and non-streaming
        // deployments never see session noise.
        if sections.contains(&Section::Stream) {
            let s = &self.stream;
            body.push((
                "stream".to_string(),
                Json::obj(vec![
                    ("open_sessions".to_string(), Json::from(s.open_sessions)),
                    ("sessions_opened".to_string(), Json::from(s.sessions_opened)),
                    ("sessions_closed".to_string(), Json::from(s.sessions_closed)),
                    (
                        "sessions_aborted".to_string(),
                        Json::from(s.sessions_aborted),
                    ),
                    ("reports".to_string(), Json::from(s.reports)),
                    ("reports_late".to_string(), Json::from(s.reports_late)),
                    ("events".to_string(), Json::from(s.events)),
                    ("tracks_live".to_string(), Json::from(s.tracks_live)),
                    ("tracks_expired".to_string(), Json::from(s.tracks_expired)),
                    ("tracks_evicted".to_string(), Json::from(s.tracks_evicted)),
                    (
                        "event_latency_us".to_string(),
                        histogram_full(&s.event_latency_us),
                    ),
                ]),
            ));
        }
        Json::obj(vec![
            ("id".to_string(), Json::Int(id as i64)),
            ("ok".to_string(), Json::Bool(true)),
            (
                "schema_version".to_string(),
                Json::from(METRICS_SCHEMA_VERSION),
            ),
            ("metrics".to_string(), Json::Obj(body)),
        ])
    }
}

/// Renders one `watch` stream line: the window's per-series deltas and
/// totals, plus how many windows this watcher missed right before it.
pub fn render_window(id: u64, msg: &WatchMsg) -> Json {
    let w = &msg.window;
    let counters: Vec<(String, Json)> = w
        .schema
        .counters
        .iter()
        .enumerate()
        .map(|(i, name)| {
            (
                name.clone(),
                Json::obj(vec![
                    ("delta".to_string(), Json::from(w.counter_deltas[i])),
                    ("total".to_string(), Json::from(w.counter_totals[i])),
                ]),
            )
        })
        .collect();
    let histograms: Vec<(String, Json)> = w
        .schema
        .histograms
        .iter()
        .enumerate()
        .map(|(i, name)| {
            (
                name.clone(),
                Json::obj(vec![
                    (
                        "count_delta".to_string(),
                        Json::from(w.hist_count_deltas[i]),
                    ),
                    (
                        "sum_delta_us".to_string(),
                        Json::from(w.hist_sum_deltas_us[i]),
                    ),
                    (
                        "count_total".to_string(),
                        Json::from(w.hist_count_totals[i]),
                    ),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("id".to_string(), Json::Int(id as i64)),
        ("ok".to_string(), Json::Bool(true)),
        (
            "window".to_string(),
            Json::obj(vec![
                ("seq".to_string(), Json::from(w.seq)),
                ("duration_ms".to_string(), Json::from(w.duration_ms)),
                ("counters".to_string(), Json::Obj(counters)),
                ("histograms".to_string(), Json::Obj(histograms)),
            ]),
        ),
        ("lagged".to_string(), Json::from(msg.lagged)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn snapshot(m: &ServerMetrics, queue_depth: usize) -> MetricsSnapshot {
        let engine = Engine::with_workers(1);
        m.snapshot(queue_depth, &engine, None)
    }

    #[test]
    fn coalescing_factor_is_requests_per_batch() {
        let m = ServerMetrics::new();
        assert_eq!(m.coalescing_factor(), 0.0);
        m.evaluated.add(12);
        m.batches_flushed.add(3);
        assert_eq!(m.coalescing_factor(), 4.0);
    }

    #[test]
    fn metrics_render_shape() {
        let m = ServerMetrics::new();
        m.latency.record(Duration::from_micros(100));
        let mut snap = snapshot(&m, 2);
        snap.cache = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        let v = snap.render_metrics(5, &[]);
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(5));
        let body = v.get("metrics").unwrap();
        let server = body.get("server").unwrap();
        assert_eq!(server.get("queue_depth").and_then(Json::as_usize), Some(2));
        let cache = body.get("cache").unwrap();
        assert_eq!(cache.get("hit_rate").and_then(Json::as_f64), Some(0.75));
        let histograms = body.get("histograms").unwrap();
        let lat = histograms.get("latency_us").unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(1));
        assert!(lat.get("p99").unwrap().as_u64().is_some());
        // Unrecorded histograms render null percentiles AND a null max —
        // an empty histogram is unambiguous, not a fake 0µs maximum.
        for key in ["queue_wait_us", "compute_us"] {
            let split = histograms.get(key).unwrap();
            assert_eq!(split.get("count").and_then(Json::as_u64), Some(0));
            assert_eq!(split.get("p50"), Some(&Json::Null));
            assert_eq!(split.get("max"), Some(&Json::Null));
        }
    }

    #[test]
    fn queue_wait_and_compute_sum_to_latency() {
        let m = ServerMetrics::new();
        m.latency.record(Duration::from_micros(900));
        m.queue_wait.record(Duration::from_micros(500));
        m.compute.record(Duration::from_micros(400));
        let v = snapshot(&m, 0).render_metrics(1, &[Section::Histograms]);
        let histograms = v.get("metrics").and_then(|b| b.get("histograms")).unwrap();
        let p100 = |key: &str| {
            histograms
                .get(key)
                .and_then(|h| h.get("max"))
                .and_then(Json::as_u64)
                .unwrap()
        };
        assert_eq!(
            p100("queue_wait_us") + p100("compute_us"),
            p100("latency_us")
        );
    }

    #[test]
    fn metrics_render_selects_sections() {
        let m = ServerMetrics::new();
        m.record_verb("eval");
        m.record_verb("eval");
        m.record_verb("ping");
        if let Some(h) = m.backend_latency("poisson") {
            h.record(Duration::from_micros(50));
        }
        let snap = snapshot(&m, 1);
        let all = snap.render_metrics(9, &[]);
        assert_eq!(all.get("schema_version").and_then(Json::as_u64), Some(1));
        let body = all.get("metrics").unwrap();
        for section in ["server", "cache", "store", "histograms"] {
            assert!(body.get(section).is_some(), "missing {section}");
        }
        let server = body.get("server").unwrap();
        let verbs = server.get("verbs").unwrap();
        assert_eq!(verbs.get("eval").and_then(Json::as_u64), Some(2));
        assert_eq!(verbs.get("ping").and_then(Json::as_u64), Some(1));
        let hist = body.get("histograms").unwrap();
        let poisson = hist.get("backends").and_then(|b| b.get("poisson")).unwrap();
        assert_eq!(poisson.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(poisson.get("sum_us").and_then(Json::as_u64), Some(50));
        // No store attached: the section reports that explicitly.
        let store = body.get("store").unwrap();
        assert_eq!(store.get("attached").and_then(Json::as_bool), Some(false));

        let only_cache = snap.render_metrics(9, &[Section::Cache]);
        let body = only_cache.get("metrics").unwrap();
        assert!(body.get("cache").is_some());
        assert!(body.get("server").is_none());
        assert!(body.get("histograms").is_none());
    }

    #[test]
    fn cluster_section_renders_only_when_requested() {
        let m = ServerMetrics::new();
        let mut snap = snapshot(&m, 0);
        // Empty selector means "all pre-cluster sections" — no cluster key.
        let all = snap.render_metrics(1, &[]);
        assert!(all.get("metrics").unwrap().get("cluster").is_none());
        // Explicit request outside cluster mode reports enabled: false.
        let v = snap.render_metrics(1, &[Section::Cluster]);
        let cluster = v.get("metrics").unwrap().get("cluster").unwrap();
        assert_eq!(cluster.get("enabled").and_then(Json::as_bool), Some(false));
        snap.cluster = Some(ClusterSnapshot {
            shard_id: "shard0".to_string(),
            role: "primary",
            shipped_records: 7,
            ship_errors: 1,
            ship_connects: 2,
            applied_records: 0,
            apply_errors: 0,
        });
        let v = snap.render_metrics(1, &[Section::Cluster]);
        let cluster = v.get("metrics").unwrap().get("cluster").unwrap();
        assert_eq!(cluster.get("enabled").and_then(Json::as_bool), Some(true));
        assert_eq!(
            cluster.get("shard_id").and_then(Json::as_str),
            Some("shard0")
        );
        assert_eq!(cluster.get("role").and_then(Json::as_str), Some("primary"));
        let rep = cluster.get("replication").unwrap();
        assert_eq!(rep.get("shipped_records").and_then(Json::as_u64), Some(7));
        assert_eq!(rep.get("ship_connects").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn stream_section_renders_only_when_requested() {
        let m = ServerMetrics::new();
        m.stream_sessions_opened.inc();
        m.stream_reports.add(12);
        m.stream_events.add(3);
        m.stream_open_sessions.store(1, Ordering::Relaxed);
        m.stream_tracks_live.store(12, Ordering::Relaxed);
        m.stream_event_latency.record(Duration::from_micros(40));
        let snap = snapshot(&m, 0);
        // Empty selector means "all pre-stream sections" — no stream key.
        let all = snap.render_metrics(1, &[]);
        assert!(all.get("metrics").unwrap().get("stream").is_none());
        let v = snap.render_metrics(1, &[Section::Stream]);
        let stream = v.get("metrics").unwrap().get("stream").unwrap();
        assert_eq!(stream.get("open_sessions").and_then(Json::as_u64), Some(1));
        assert_eq!(
            stream.get("sessions_opened").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(stream.get("reports").and_then(Json::as_u64), Some(12));
        assert_eq!(stream.get("events").and_then(Json::as_u64), Some(3));
        assert_eq!(stream.get("tracks_live").and_then(Json::as_u64), Some(12));
        let lat = stream.get("event_latency_us").unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(lat.get("sum_us").and_then(Json::as_u64), Some(40));
    }

    #[test]
    fn store_digest_rides_the_store_section() {
        let m = ServerMetrics::new();
        let mut snap = snapshot(&m, 0);
        snap.store = Some(StoreSnapshot {
            live_entries: 2,
            loaded_records: 0,
            torn_bytes_discarded: 0,
            appended_records: 2,
            compactions: 0,
            file_bytes: 64,
            loads: 0,
            spills: 2,
            spill_errors: 0,
            digest: 0xDEAD_BEEF,
        });
        let v = snap.render_metrics(4, &[Section::Store]);
        let store = v.get("metrics").unwrap().get("store").unwrap();
        assert_eq!(
            store.get("digest").and_then(Json::as_u64),
            Some(0xDEAD_BEEF)
        );
    }

    #[test]
    fn window_render_carries_deltas_and_lag() {
        let m = ServerMetrics::new();
        m.evaluated.add(4);
        m.latency.record(Duration::from_micros(30));
        let window = m.registry().sample_window();
        let v = render_window(3, &WatchMsg { window, lagged: 2 });
        assert_eq!(v.get("lagged").and_then(Json::as_u64), Some(2));
        let w = v.get("window").unwrap();
        assert_eq!(w.get("seq").and_then(Json::as_u64), Some(1));
        let evaluated = w.get("counters").and_then(|c| c.get("evaluated")).unwrap();
        assert_eq!(evaluated.get("delta").and_then(Json::as_u64), Some(4));
        assert_eq!(evaluated.get("total").and_then(Json::as_u64), Some(4));
        let lat = w
            .get("histograms")
            .and_then(|h| h.get("latency_us"))
            .unwrap();
        assert_eq!(lat.get("count_delta").and_then(Json::as_u64), Some(1));
        assert_eq!(lat.get("sum_delta_us").and_then(Json::as_u64), Some(30));
    }
}
