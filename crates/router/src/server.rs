//! The router process: accept loop, per-connection forwarding with
//! retries and failover, the heartbeat thread, and the router's own
//! `metrics` payload.

use crate::ring::Ring;
use crate::slots::{Route, RouterCounters, Slot};
use crate::upstream::{probe, write_line, UpstreamPool};
use gbd_engine::{BackendSpec, Engine, EvalRequest};
use gbd_serve::protocol::{self, ErrorCode, Verb};
use gbd_serve::{Json, METRICS_SCHEMA_VERSION};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything configurable about a router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to bind for clients (`:0` picks an ephemeral port,
    /// reported by [`Router::local_addr`]).
    pub addr: String,
    /// Shard serving addresses; slot `i` is pinned to `shards[i]`.
    pub shards: Vec<String>,
    /// `(slot, addr)` standby serving addresses; the slot re-pins to the
    /// standby when its primary is declared dead.
    pub standbys: Vec<(usize, String)>,
    /// Hash-ring points per slot (more points → smoother key share).
    pub virtual_nodes: usize,
    /// Transport retries per request after the first attempt.
    pub retries: u32,
    /// First retry backoff; doubles per attempt, with jitter.
    pub backoff_base: Duration,
    /// Consecutive transport failures that open a slot's breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker sheds before half-opening.
    pub breaker_cooldown: Duration,
    /// Heartbeat cadence.
    pub heartbeat_interval: Duration,
    /// Consecutive heartbeat misses that declare the active address dead.
    pub heartbeat_misses: u32,
    /// Bound on every upstream socket operation in the request path.
    pub upstream_timeout: Duration,
    /// Bound on heartbeat probe sockets (kept short so one slow shard
    /// cannot stall the sweep).
    pub probe_timeout: Duration,
    /// Longest accepted client request line in bytes.
    pub max_line_bytes: usize,
    /// Watch for SIGINT/SIGTERM and shut down gracefully when one
    /// arrives.
    pub handle_signals: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            standbys: Vec::new(),
            virtual_nodes: 64,
            retries: 3,
            backoff_base: Duration::from_millis(10),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_misses: 3,
            upstream_timeout: Duration::from_secs(10),
            probe_timeout: Duration::from_secs(1),
            max_line_bytes: 1 << 20,
            handle_signals: false,
        }
    }
}

/// State shared by the accept loop, connections, and the heartbeat.
pub(crate) struct RouterShared {
    ring: Ring,
    slots: Vec<Slot>,
    counters: RouterCounters,
    config: RouterConfig,
    shutdown: AtomicBool,
}

impl RouterShared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A handle for stopping a running router from another thread.
#[derive(Clone)]
pub struct RouterHandle {
    shared: Arc<RouterShared>,
}

impl RouterHandle {
    /// Triggers the same graceful shutdown as the `shutdown` verb.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }
}

/// A bound router, ready to [`run`](Router::run).
pub struct Router {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<RouterShared>,
    conns: Mutex<Vec<(TcpStream, JoinHandle<()>)>>,
    heartbeat: Mutex<Option<JoinHandle<()>>>,
    heartbeat_stop: Arc<AtomicBool>,
}

impl Router {
    /// Binds the listener, builds the ring, and starts the heartbeat.
    ///
    /// # Errors
    ///
    /// Bind failures propagate; an empty shard list or a standby naming a
    /// slot that does not exist is `InvalidInput`.
    pub fn bind(config: RouterConfig) -> io::Result<Router> {
        if config.shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one shard",
            ));
        }
        for (slot, addr) in &config.standbys {
            if *slot >= config.shards.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "standby {addr} names slot {slot}, but there are only {} shards",
                        config.shards.len()
                    ),
                ));
            }
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        if config.handle_signals {
            gbd_serve::signals::install();
        }
        let ring = Ring::new(config.shards.len(), config.virtual_nodes.max(1));
        let slots = config
            .shards
            .iter()
            .enumerate()
            .map(|(i, primary)| {
                let standby = config
                    .standbys
                    .iter()
                    .find(|(slot, _)| *slot == i)
                    .map(|(_, addr)| addr.clone());
                Slot::new(primary.clone(), standby)
            })
            .collect();
        let shared = Arc::new(RouterShared {
            ring,
            slots,
            counters: RouterCounters::default(),
            config,
            shutdown: AtomicBool::new(false),
        });
        let heartbeat_stop = Arc::new(AtomicBool::new(false));
        let hb_shared = Arc::clone(&shared);
        let hb_stop = Arc::clone(&heartbeat_stop);
        let heartbeat = std::thread::Builder::new()
            .name("gbd-router-heartbeat".to_string())
            .spawn(move || heartbeat_loop(&hb_shared, &hb_stop))?;
        Ok(Router {
            listener,
            local_addr,
            shared,
            conns: Mutex::new(Vec::new()),
            heartbeat: Mutex::new(Some(heartbeat)),
            heartbeat_stop,
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A clonable handle for shutting the router down from elsewhere.
    pub fn handle(&self) -> RouterHandle {
        RouterHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Accepts and serves client connections until shutdown, then drains.
    ///
    /// # Errors
    ///
    /// Propagates unexpected accept-loop I/O failures; `WouldBlock` and
    /// per-connection errors are handled internally.
    pub fn run(self) -> io::Result<()> {
        loop {
            if self.shared.shutting_down()
                || (self.shared.config.handle_signals && gbd_serve::signals::triggered())
            {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => self.spawn_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.reap_finished();
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                Err(e) => {
                    self.drain();
                    return Err(e);
                }
            }
        }
        self.drain();
        Ok(())
    }

    fn spawn_conn(&self, stream: TcpStream) {
        // Relayed responses and tunneled stream events are small
        // single-line writes; Nagle would park each behind the client's
        // delayed ACK.
        let _ = stream.set_nodelay(true);
        let Ok(track) = stream.try_clone() else {
            return;
        };
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name("gbd-router-conn".to_string())
            .spawn(move || handle_conn(stream, &shared));
        match spawned {
            Ok(handle) => self
                .conns
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .push((track, handle)),
            Err(_) => {
                let _ = track.shutdown(Shutdown::Both);
            }
        }
    }

    fn reap_finished(&self) {
        let mut conns = self
            .conns
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut live = Vec::with_capacity(conns.len());
        for (stream, handle) in conns.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                live.push((stream, handle));
            }
        }
        *conns = live;
    }

    fn drain(&self) {
        self.heartbeat_stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self
            .heartbeat
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take()
        {
            let _ = handle.join();
        }
        let mut conns = self
            .conns
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for (stream, _) in conns.iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, handle) in conns.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One client connection: parse each line just enough to route it, then
/// relay the shard's response bytes verbatim (bit-identical answers are
/// a protocol guarantee, so the router must never re-render a shard
/// response).
fn handle_conn(stream: TcpStream, shared: &Arc<RouterShared>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut pool = UpstreamPool::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let routed = if line.len() > shared.config.max_line_bytes {
            Routed::Reply(
                protocol::error_response(
                    None,
                    ErrorCode::LineTooLong,
                    &format!(
                        "request line exceeds {} bytes",
                        shared.config.max_line_bytes
                    ),
                )
                .render(),
            )
        } else {
            dispatch(line.trim_end_matches(['\n', '\r']), shared, &mut pool)
        };
        match routed {
            Routed::Reply(response) => {
                if writer.write_all(response.as_bytes()).is_err()
                    || writer.write_all(b"\n").is_err()
                    || writer.flush().is_err()
                {
                    return;
                }
            }
            Routed::OpenStream { id, slot } => {
                // The connection becomes a session tunnel for the rest of
                // its life; `tunnel_stream` consumes both halves.
                tunnel_stream(
                    id,
                    slot,
                    line.trim_end_matches(['\n', '\r']),
                    reader,
                    writer,
                    shared,
                );
                return;
            }
        }
        if shared.shutting_down() {
            return;
        }
    }
}

/// What `dispatch` decided to do with a request line.
enum Routed {
    /// A rendered response line to write back.
    Reply(String),
    /// A `stream_open`: pin `slot` and tunnel the connection to it.
    OpenStream { id: u64, slot: usize },
}

/// Routes one request line to its response line.
fn dispatch(line: &str, shared: &Arc<RouterShared>, pool: &mut UpstreamPool) -> Routed {
    let envelope = match protocol::parse_line(line) {
        Ok(envelope) => envelope,
        Err(e) => {
            return Routed::Reply(protocol::error_response(e.id, e.code, &e.message).render())
        }
    };
    let id = envelope.id;
    Routed::Reply(match envelope.verb {
        Verb::Ping => protocol::pong(id).render(),
        Verb::Shutdown => {
            let ack = Json::obj(vec![
                ("id".to_string(), Json::Int(id as i64)),
                ("ok".to_string(), Json::Bool(true)),
                ("shutting_down".to_string(), Json::Bool(true)),
            ]);
            shared.begin_shutdown();
            ack.render()
        }
        Verb::Metrics { .. } => render_router_metrics(id, shared).render(),
        Verb::Eval(request) => forward(id, line, &request, shared, pool),
        Verb::StreamOpen(spec) => {
            // Sessions are stateful, so the slot is pinned by the same
            // routing key evals use for these params: the session lands
            // where that operating point's caches are warm, and every
            // report for it follows the open down one tunnel.
            let request = EvalRequest::new(spec.params, BackendSpec::ms_default());
            let slot = shared.ring.slot_for(&Engine::routing_key(&request));
            return Routed::OpenStream { id, slot };
        }
        Verb::Report { .. } | Verb::StreamClose => protocol::error_response(
            Some(id),
            ErrorCode::BadRequest,
            "no stream session is open on this connection; send stream_open first",
        )
        .render(),
        Verb::Watch { .. } | Verb::Unwatch => protocol::error_response(
            Some(id),
            ErrorCode::BadRequest,
            "verb not supported by the router; connect to a shard directly",
        )
        .render(),
    })
}

/// Connects the upstream leg of a session tunnel. The connect itself is
/// bounded, but the socket then carries a long-lived session that may
/// idle between reports, so it gets no read timeout — teardown comes
/// from either side closing, not from a clock.
fn connect_tunnel(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    })?;
    let stream = TcpStream::connect_timeout(&resolved, timeout)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Turns the client connection into a transparent byte tunnel to the
/// pinned slot: the raw `stream_open` line is forwarded, then both
/// directions are relayed verbatim until either side closes. Failover
/// and retries apply only to establishing the tunnel — the detector
/// state lives on the shard, so a mid-session transport failure ends the
/// session (the shard's abort accounting covers it) instead of silently
/// re-routing to a shard with empty state.
fn tunnel_stream(
    id: u64,
    slot_index: usize,
    open_line: &str,
    mut reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    shared: &Arc<RouterShared>,
) {
    let Ok(client) = writer.into_inner() else {
        return;
    };
    let slot = &shared.slots[slot_index];
    let config = &shared.config;
    let attempts = config.retries.saturating_add(1);
    let mut upstream = None;
    for _ in 0..attempts {
        let addr = match slot.route(Instant::now()) {
            Route::Forward(addr) => addr,
            Route::Shed => {
                if slot.promote_standby() {
                    RouterCounters::bump(&shared.counters.failovers);
                    slot.active()
                } else {
                    break;
                }
            }
        };
        RouterCounters::bump(&shared.counters.forwarded);
        match connect_tunnel(&addr, config.upstream_timeout) {
            Ok(mut stream) => {
                if write_line(&mut stream, open_line).is_err() {
                    // Nothing session-stateful happened upstream yet (the
                    // open line never arrived), so retrying is safe.
                    let failed = slot.record_failure(
                        &addr,
                        config.breaker_threshold,
                        config.breaker_cooldown,
                    );
                    if failed && slot.promote_standby() {
                        RouterCounters::bump(&shared.counters.failovers);
                    }
                    continue;
                }
                slot.record_success(&addr);
                upstream = Some(stream);
                break;
            }
            Err(_) => {
                let failed = slot.record_failure(
                    &addr,
                    config.breaker_threshold,
                    config.breaker_cooldown,
                );
                if failed && slot.promote_standby() {
                    RouterCounters::bump(&shared.counters.failovers);
                }
            }
        }
    }
    let Some(mut shard) = upstream else {
        RouterCounters::bump(&shared.counters.shed);
        let err = protocol::error_response(
            Some(id),
            ErrorCode::ShardUnavailable,
            &format!("slot {slot_index} has no reachable shard; safe to retry"),
        );
        let mut client = client;
        let _ = write_line(&mut client, &err.render());
        return;
    };
    // Shard → client relays on a helper thread; this thread relays
    // client → shard, starting with any lines the client already
    // pipelined into the BufReader. Shutting both sockets down when
    // either direction ends unblocks the other copy.
    let Ok(shard_read) = shard.try_clone() else {
        let _ = shard.shutdown(Shutdown::Both);
        return;
    };
    let Ok(client_write) = client.try_clone() else {
        let _ = shard.shutdown(Shutdown::Both);
        return;
    };
    let downstream = std::thread::Builder::new()
        .name("gbd-router-tunnel".to_string())
        .spawn(move || {
            let mut from = shard_read;
            let mut to = client_write;
            let _ = io::copy(&mut from, &mut to);
            let _ = from.shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
        });
    let _ = io::copy(&mut reader, &mut shard);
    let _ = shard.shutdown(Shutdown::Both);
    let _ = client.shutdown(Shutdown::Both);
    if let Ok(handle) = downstream {
        let _ = handle.join();
    }
}

/// Forwards an eval line to the slot owning its routing key, with
/// bounded jittered retries, breaker checks, and standby failover. The
/// raw request line is forwarded verbatim, and the shard's response line
/// is returned verbatim.
fn forward(
    id: u64,
    line: &str,
    request: &gbd_engine::EvalRequest,
    shared: &Arc<RouterShared>,
    pool: &mut UpstreamPool,
) -> String {
    let slot_index = shared.ring.slot_for(&Engine::routing_key(request));
    let slot = &shared.slots[slot_index];
    let config = &shared.config;
    let mut rng = Xorshift::new(id ^ ((slot_index as u64) << 32) | 1);
    let attempts = config.retries.saturating_add(1);
    for attempt in 0..attempts {
        let addr = match slot.route(Instant::now()) {
            Route::Forward(addr) => addr,
            Route::Shed => {
                // The breaker is open. If a standby is still waiting, this
                // is the moment it earns its keep; otherwise shed.
                if slot.promote_standby() {
                    RouterCounters::bump(&shared.counters.failovers);
                    slot.active()
                } else {
                    break;
                }
            }
        };
        RouterCounters::bump(&shared.counters.forwarded);
        match pool.round_trip(&addr, line, config.upstream_timeout) {
            Ok(response) => {
                slot.record_success(&addr);
                return response;
            }
            Err(_) => {
                let trip_breaker = slot.record_failure(
                    &addr,
                    config.breaker_threshold,
                    config.breaker_cooldown,
                );
                if trip_breaker && slot.promote_standby() {
                    // Retry immediately against the promoted standby; its
                    // replicated store answers from a warm cache.
                    RouterCounters::bump(&shared.counters.failovers);
                    continue;
                }
                if attempt + 1 < attempts {
                    RouterCounters::bump(&shared.counters.retries);
                    std::thread::sleep(jittered_backoff(
                        config.backoff_base,
                        attempt,
                        &mut rng,
                    ));
                }
            }
        }
    }
    RouterCounters::bump(&shared.counters.shed);
    protocol::error_response(
        Some(id),
        ErrorCode::ShardUnavailable,
        &format!("slot {slot_index} has no reachable shard; safe to retry"),
    )
    .render()
}

/// Exponential backoff with multiplicative jitter in `[0.5, 1.5)`, so
/// concurrent clients retrying against the same slot do not stampede in
/// lockstep.
fn jittered_backoff(base: Duration, attempt: u32, rng: &mut Xorshift) -> Duration {
    let exp = base.saturating_mul(1 << attempt.min(10));
    let jitter = 0.5 + (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    exp.mul_f64(jitter)
}

/// A tiny xorshift64* generator — backoff jitter needs speed and no
/// coordination, not statistical quality.
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Xorshift {
        Xorshift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// The router's own `metrics` payload: the same envelope and schema
/// version as a shard's, with a `router` section describing every slot
/// (health, breaker, failover, replication lag) and the router counters.
fn render_router_metrics(id: u64, shared: &RouterShared) -> Json {
    let now = Instant::now();
    let slots: Vec<Json> = shared
        .slots
        .iter()
        .enumerate()
        .map(|(i, slot)| {
            let snap = slot.snapshot(now);
            let lag = snap.shipped_records.saturating_sub(snap.applied_records);
            Json::obj(vec![
                ("slot".to_string(), Json::from(i)),
                ("primary".to_string(), Json::from(snap.primary.as_str())),
                (
                    "standby".to_string(),
                    snap.standby.as_deref().map_or(Json::Null, Json::from),
                ),
                ("active".to_string(), Json::from(snap.active.as_str())),
                ("healthy".to_string(), Json::Bool(snap.healthy)),
                ("failed_over".to_string(), Json::Bool(snap.failed_over)),
                ("breaker_open".to_string(), Json::Bool(snap.breaker_open)),
                (
                    "heartbeat_misses".to_string(),
                    Json::from(u64::from(snap.heartbeat_misses)),
                ),
                (
                    "replication".to_string(),
                    Json::obj(vec![
                        (
                            "shipped_records".to_string(),
                            Json::from(snap.shipped_records),
                        ),
                        (
                            "applied_records".to_string(),
                            Json::from(snap.applied_records),
                        ),
                        ("lag".to_string(), Json::from(lag)),
                    ]),
                ),
            ])
        })
        .collect();
    let counters = &shared.counters;
    Json::obj(vec![
        ("id".to_string(), Json::Int(id as i64)),
        ("ok".to_string(), Json::Bool(true)),
        (
            "schema_version".to_string(),
            Json::from(METRICS_SCHEMA_VERSION),
        ),
        (
            "router".to_string(),
            Json::obj(vec![
                ("shards".to_string(), Json::from(shared.slots.len())),
                ("slots".to_string(), Json::Arr(slots)),
                (
                    "counters".to_string(),
                    Json::obj(vec![
                        (
                            "forwarded".to_string(),
                            Json::from(RouterCounters::get(&counters.forwarded)),
                        ),
                        (
                            "retries".to_string(),
                            Json::from(RouterCounters::get(&counters.retries)),
                        ),
                        (
                            "failovers".to_string(),
                            Json::from(RouterCounters::get(&counters.failovers)),
                        ),
                        (
                            "shed".to_string(),
                            Json::from(RouterCounters::get(&counters.shed)),
                        ),
                    ]),
                ),
            ]),
        ),
    ])
}

/// The heartbeat sweep: ping every slot's active address, promote the
/// standby after enough misses, and scrape replication progress from the
/// `cluster` metrics section on both ends of each replicated pair.
fn heartbeat_loop(shared: &Arc<RouterShared>, stop: &AtomicBool) {
    const PING: &str = r#"{"id":0,"verb":"ping"}"#;
    const CLUSTER: &str = r#"{"id":0,"verb":"metrics","sections":["cluster"]}"#;
    let config = &shared.config;
    while !stop.load(Ordering::SeqCst) {
        for slot in &shared.slots {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let active = slot.active();
            let alive = probe(&active, PING, config.probe_timeout)
                .ok()
                .and_then(|response| {
                    let json = Json::parse(&response).ok()?;
                    json.get("pong").and_then(Json::as_bool)
                })
                .unwrap_or(false);
            if slot.record_heartbeat(&active, alive, config.heartbeat_misses)
                && slot.promote_standby()
            {
                RouterCounters::bump(&shared.counters.failovers);
            }
            if alive {
                if let Some(shipped) =
                    scrape(&active, CLUSTER, config.probe_timeout, "shipped_records")
                {
                    slot.record_replication(Some(shipped), None);
                }
            }
            // The standby reports how much it has applied — also after
            // promotion, when it doubles as the active address.
            if let Some(standby) = slot.standby() {
                if let Some(applied) =
                    scrape(standby, CLUSTER, config.probe_timeout, "applied_records")
                {
                    slot.record_replication(None, Some(applied));
                }
            }
        }
        let mut slept = Duration::ZERO;
        while slept < config.heartbeat_interval {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let step = Duration::from_millis(50).min(config.heartbeat_interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}

/// Pulls one replication counter out of a shard's `cluster` section.
fn scrape(addr: &str, line: &str, timeout: Duration, field: &str) -> Option<u64> {
    let response = probe(addr, line, timeout).ok()?;
    let json = Json::parse(&response).ok()?;
    json.get("metrics")?
        .get("cluster")?
        .get("replication")?
        .get(field)
        .and_then(Json::as_u64)
}
