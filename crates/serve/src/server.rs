//! The TCP server: accept loop, connection lifecycle, and graceful
//! shutdown.
//!
//! Shutdown (via the `shutdown` verb, [`ServerHandle::shutdown`], or a
//! latched SIGINT/SIGTERM) proceeds in drain order: stop accepting, drain
//! the coalescer (every admitted request gets its response), close the
//! live sockets to wake blocked readers, then join the connection
//! threads.

use crate::coalescer::{Coalescer, CoalescerConfig};
use crate::conn;
use crate::metrics::{ClusterSnapshot, MetricsSnapshot, ServerMetrics};
use crate::replica::ReplicaListener;
use crate::signals;
use gbd_engine::Engine;
use gbd_obs::{TextEndpoint, Ticker};
use gbd_store::Shipper;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything configurable about a server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:7070` (`:0` picks an ephemeral
    /// port, reported by [`Server::local_addr`]).
    pub addr: String,
    /// Coalescer: flush when this many requests are queued.
    pub batch_max: usize,
    /// Coalescer: flush when the oldest queued request has waited this
    /// long; zero flushes as soon as the flusher is free.
    pub flush_interval: Duration,
    /// Admission bound: queued requests beyond this are shed with an
    /// `overloaded` error.
    pub queue_depth: usize,
    /// Per-connection pipelining bound: a connection with this many
    /// responses outstanding stops being read (TCP backpressure).
    pub max_inflight_per_conn: usize,
    /// Eval requests a single connection may submit over its lifetime
    /// (`conn_limit` errors after); 0 = unlimited.
    pub max_requests_per_conn: u64,
    /// Longest accepted request line in bytes; longer lines are discarded
    /// with a `line_too_long` error.
    pub max_line_bytes: usize,
    /// Watch for SIGINT/SIGTERM and shut down gracefully when one
    /// arrives.
    pub handle_signals: bool,
    /// Address for the plain-text Prometheus exposition endpoint
    /// (`None` disables it; `:0` picks an ephemeral port, reported by
    /// [`Server::metrics_local_addr`]).
    pub metrics_addr: Option<String>,
    /// Windowed-delta resolution: the observability ticker closes one
    /// window per interval.
    pub obs_window: Duration,
    /// Stable shard identity reported in the `metrics` verb's `cluster`
    /// section (defaults to the bound address when unset). Setting any of
    /// the three cluster fields enables the section.
    pub shard_id: Option<String>,
    /// Ship every store append to a standby's replica listener at this
    /// address (requires the engine to have a store attached).
    pub replicate_to: Option<String>,
    /// Accept replicated store records on this address and apply them to
    /// this engine (`:0` picks an ephemeral port, reported by
    /// [`Server::replica_local_addr`]).
    pub replica_listen: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let coalescer = CoalescerConfig::default();
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            batch_max: coalescer.batch_max,
            flush_interval: coalescer.flush_interval,
            queue_depth: coalescer.queue_depth,
            max_inflight_per_conn: 64,
            max_requests_per_conn: 0,
            max_line_bytes: 1 << 20,
            handle_signals: false,
            metrics_addr: None,
            obs_window: Duration::from_secs(1),
            shard_id: None,
            replicate_to: None,
            replica_listen: None,
        }
    }
}

/// Cluster-mode state a shard carries when any of the cluster config
/// fields is set: identity, role, and the outbound shipper (when this
/// shard replicates to a standby).
pub(crate) struct ClusterState {
    shard_id: String,
    role: &'static str,
    shipper: Option<Arc<Shipper>>,
}

/// State shared by the accept loop, the connections, and the coalescer.
pub(crate) struct ServerShared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) coalescer: Arc<Coalescer>,
    pub(crate) config: ServeConfig,
    cluster: Option<ClusterState>,
    shutdown: AtomicBool,
}

impl ServerShared {
    /// Flips the shutdown flag; the accept loop notices within one poll
    /// tick and runs the drain sequence.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Reads every instrument once (see [`ServerMetrics::snapshot`]).
    pub(crate) fn metrics_snapshot(&self) -> MetricsSnapshot {
        let cluster = self.cluster.as_ref().map(|state| {
            let ship = state
                .shipper
                .as_deref()
                .map(Shipper::stats)
                .unwrap_or_default();
            ClusterSnapshot {
                shard_id: state.shard_id.clone(),
                role: state.role,
                shipped_records: ship.shipped_records,
                ship_errors: ship.dropped_records,
                ship_connects: ship.connects,
                applied_records: self.metrics.replica_applied.get(),
                apply_errors: self.metrics.replica_apply_errors.get(),
            }
        });
        self.metrics
            .snapshot(self.coalescer.queue_depth(), &self.engine, cluster)
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A handle for observing and stopping a running server from another
/// thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<ServerShared>,
}

impl ServerHandle {
    /// Triggers the same graceful shutdown as the `shutdown` verb.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// The server's metrics (live).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.shared.metrics)
    }
}

/// A bound server, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    conns: Mutex<Vec<(TcpStream, JoinHandle<()>)>>,
    ticker: Mutex<Option<Ticker>>,
    exposition: Mutex<Option<TextEndpoint>>,
    metrics_addr: Option<SocketAddr>,
    replica: Mutex<Option<ReplicaListener>>,
    replica_addr: Option<SocketAddr>,
}

impl Server {
    /// Binds the listener and starts the coalescer (but accepts nothing
    /// until [`run`](Server::run)).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (`EADDRINUSE`, bad address syntax,
    /// privileged port, …).
    pub fn bind(config: ServeConfig, engine: Arc<Engine>) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        if config.handle_signals {
            signals::install();
        }
        let metrics = Arc::new(ServerMetrics::new());
        engine.register_observability(metrics.registry());
        let coalescer = Coalescer::start(
            Arc::clone(&engine),
            Arc::clone(&metrics),
            CoalescerConfig {
                batch_max: config.batch_max,
                flush_interval: config.flush_interval,
                queue_depth: config.queue_depth,
            },
        );
        let depth_probe = Arc::clone(&coalescer);
        metrics
            .registry()
            .gauge("queue_depth", move || depth_probe.queue_depth() as f64);
        let ticker = Ticker::start(Arc::clone(metrics.registry()), config.obs_window);
        let exposition = match &config.metrics_addr {
            None => None,
            Some(addr) => Some(TextEndpoint::bind(
                addr.as_str(),
                Arc::clone(metrics.registry()),
            )?),
        };
        let metrics_addr = exposition.as_ref().map(TextEndpoint::local_addr);

        let replica = match &config.replica_listen {
            None => None,
            Some(addr) => Some(ReplicaListener::bind(
                addr.as_str(),
                Arc::clone(&engine),
                Arc::clone(&metrics.replica_applied),
                Arc::clone(&metrics.replica_apply_errors),
            )?),
        };
        let replica_addr = replica.as_ref().map(ReplicaListener::local_addr);

        let shipper = match &config.replicate_to {
            None => None,
            Some(target) => {
                let Some(store) = engine.store_handle() else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "replicate-to requires the engine to have a store attached",
                    ));
                };
                let shipper = Shipper::start(Arc::clone(store), target.as_str(), 4096)?;
                // The tee catches appends from here on; the resync request
                // makes the shipper replay the live index on its next pass,
                // closing the race with appends that landed before the tee.
                let tee = Arc::clone(&shipper);
                store.set_tee(move |kind, key, value| tee.ship(kind, key, value));
                shipper.request_resync();
                let probe = Arc::clone(&shipper);
                metrics
                    .registry()
                    .polled_counter("replica_shipped_records", move || {
                        probe.stats().shipped_records
                    });
                let probe = Arc::clone(&shipper);
                metrics
                    .registry()
                    .polled_counter("replica_dropped_records", move || {
                        probe.stats().dropped_records
                    });
                let probe = Arc::clone(&shipper);
                metrics
                    .registry()
                    .polled_counter("replica_connects", move || probe.stats().connects);
                Some(shipper)
            }
        };

        let in_cluster = config.shard_id.is_some()
            || config.replicate_to.is_some()
            || config.replica_listen.is_some();
        let cluster = in_cluster.then(|| ClusterState {
            shard_id: config
                .shard_id
                .clone()
                .unwrap_or_else(|| local_addr.to_string()),
            role: if shipper.is_some() {
                "primary"
            } else if replica.is_some() {
                "standby"
            } else {
                "single"
            },
            shipper,
        });

        Ok(Server {
            listener,
            local_addr,
            shared: Arc::new(ServerShared {
                engine,
                metrics,
                coalescer,
                config,
                cluster,
                shutdown: AtomicBool::new(false),
            }),
            conns: Mutex::new(Vec::new()),
            ticker: Mutex::new(Some(ticker)),
            exposition: Mutex::new(exposition),
            metrics_addr,
            replica: Mutex::new(replica),
            replica_addr,
        })
    }

    /// The replica listener's bound address (resolves `:0`), when
    /// [`ServeConfig::replica_listen`] was set.
    pub fn replica_local_addr(&self) -> Option<SocketAddr> {
        self.replica_addr
    }

    /// The exposition endpoint's bound address (resolves `:0`), when
    /// [`ServeConfig::metrics_addr`] was set.
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A clonable handle for shutting the server down from elsewhere.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Accepts and serves connections until shutdown is requested, then
    /// drains and returns. The polling accept loop (rather than a blocking
    /// one) is what lets the shutdown flag and signal latch interrupt it
    /// without self-pipes or platform APIs.
    ///
    /// # Errors
    ///
    /// Propagates unexpected accept-loop I/O failures; `WouldBlock` and
    /// per-connection errors are handled internally.
    pub fn run(self) -> io::Result<()> {
        loop {
            if self.shared.shutting_down()
                || (self.shared.config.handle_signals && signals::triggered())
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
                // Transient per-connection accept failures (e.g. the peer
                // reset before we got to it) should not kill the server.
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
        // Responses and pushed stream events are small single-line writes;
        // Nagle would park each behind the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        let metrics = &self.shared.metrics;
        metrics.connections_total.inc();
        metrics.connections_active.fetch_add(1, Ordering::Relaxed);
        let Ok(track) = stream.try_clone() else {
            metrics.connections_active.fetch_sub(1, Ordering::Relaxed);
            return;
        };
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name("gbd-conn".to_string())
            .spawn(move || {
                conn::handle(stream, &shared);
                shared
                    .metrics
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
            });
        match spawned {
            Ok(handle) => self
                .conns
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .push((track, handle)),
            Err(_) => {
                // Could not spawn a thread for it; drop the connection.
                let _ = track.shutdown(Shutdown::Both);
                metrics.connections_active.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Frees bookkeeping for connections that already hung up.
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

    /// The drain sequence. Order matters:
    /// 1. The coalescer drains first, so every admitted request resolves
    ///    its response channel — writers finish their queued tails.
    /// 2. The persistent store (if attached) is snapshotted while the
    ///    engine is quiescent, so a restart warm-starts from a compact,
    ///    fsynced log.
    /// 3. Replication winds down: the shipper's queued tail is flushed to
    ///    the standby (bounded), the store tee detaches, and the replica
    ///    listener (if any) stops accepting.
    /// 4. The observability ticker stops after one final window (so the
    ///    last partial window's deltas are not lost), the exposition
    ///    endpoint closes, and every watch subscription is reaped — which
    ///    unblocks writers still streaming unbounded watches.
    /// 5. Sockets are then closed read-side, waking readers blocked in
    ///    `read` with EOF.
    /// 6. Connection threads join (their writers already ran dry).
    fn drain(&self) {
        self.shared.coalescer.shutdown();
        // Non-fatal on failure: every spill already hit the append log, so
        // the worst case is a warm start from an uncompacted log.
        if let Some(Err(e)) = self.shared.engine.snapshot_store() {
            eprintln!("gbd-serve: store snapshot on drain failed: {e}");
        }
        // Replication winds down after the last batch resolved: push the
        // queued tail to the standby (bounded wait — a dead standby must
        // not stall the drain), detach the tee, then stop both ends.
        if let Some(cluster) = &self.shared.cluster {
            if let Some(shipper) = &cluster.shipper {
                let _ = shipper.flush(Duration::from_secs(2));
                if let Some(store) = self.shared.engine.store_handle() {
                    store.clear_tee();
                }
                shipper.stop();
            }
        }
        if let Some(replica) = self
            .replica
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take()
        {
            replica.stop();
        }
        let registry = self.shared.metrics.registry();
        registry.sample_window();
        if let Some(mut ticker) = self
            .ticker
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take()
        {
            ticker.stop();
        }
        if let Some(mut endpoint) = self
            .exposition
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take()
        {
            endpoint.stop();
        }
        registry.reap_all();
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
