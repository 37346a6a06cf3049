//! The micro-batching coalescer: a bounded central queue that gathers
//! eval requests from every connection and flushes them to
//! [`Engine::evaluate_batch_with`] as one batch.
//!
//! A flush happens when the queue reaches the batch-size threshold
//! (`batch_max`) or when the oldest queued request has waited
//! `flush_interval` — whichever comes first. The default interval is
//! zero: the flusher hands whatever is queued to the engine as soon as it
//! is free, so batches form from what queues while the previous flush
//! runs and no request waits on a timer. Coalescing turns many
//! single-request callers into engine batches, so the worker pool and the
//! warm caches amortize across connections. A nonzero interval buys
//! larger batches at low load for up to one interval of added latency.
//!
//! Admission control is the queue bound: when `queue_depth` requests are
//! already waiting, new submissions are shed immediately with
//! [`SubmitError::Overloaded`] instead of growing an unbounded backlog.
//! Responses travel back on a per-request rendezvous channel; the engine's
//! streaming `notify` callback sends each one the moment its evaluation
//! finishes, so fast requests in a batch are not held hostage by slow
//! ones.

use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::protocol;
use gbd_engine::{Engine, EvalRequest};
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Coalescer tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CoalescerConfig {
    /// Flush as soon as this many requests are queued (min 1).
    pub batch_max: usize,
    /// Flush when the oldest queued request has waited this long; zero
    /// flushes as soon as the flusher is free.
    pub flush_interval: Duration,
    /// Admission bound: submissions beyond this many queued requests are
    /// shed (min 1).
    pub queue_depth: usize,
}

impl Default for CoalescerConfig {
    fn default() -> Self {
        CoalescerConfig {
            batch_max: 32,
            flush_interval: Duration::ZERO,
            queue_depth: 1024,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at `queue_depth`; the request was shed.
    Overloaded,
    /// The coalescer is draining for shutdown.
    ShuttingDown,
}

/// One admitted request waiting in the queue.
struct Pending {
    /// Wire correlation id, echoed on the response.
    id: u64,
    request: EvalRequest,
    /// Rendezvous back to the submitting connection's writer.
    tx: SyncSender<Json>,
    enqueued_at: Instant,
}

struct Queue {
    pending: VecDeque<Pending>,
    draining: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    config: CoalescerConfig,
    engine: Arc<Engine>,
    metrics: Arc<ServerMetrics>,
}

/// The running coalescer: submission front end plus its flusher thread.
pub struct Coalescer {
    shared: Arc<Shared>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

fn lock_queue(shared: &Shared) -> MutexGuard<'_, Queue> {
    // A panic while holding the queue lock cannot leave the protected
    // state half-updated in a way that matters (the queue is a VecDeque of
    // owned items), so recover the guard instead of propagating poison.
    shared
        .queue
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Coalescer {
    /// Starts the coalescer and its flusher thread.
    pub fn start(
        engine: Arc<Engine>,
        metrics: Arc<ServerMetrics>,
        config: CoalescerConfig,
    ) -> Arc<Coalescer> {
        let config = CoalescerConfig {
            batch_max: config.batch_max.max(1),
            queue_depth: config.queue_depth.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                pending: VecDeque::new(),
                draining: false,
            }),
            wake: Condvar::new(),
            config,
            engine,
            metrics,
        });
        let worker_shared = Arc::clone(&shared);
        // Thread spawn failing at startup leaves an empty coalescer;
        // submissions will queue and the drain on shutdown flushes
        // them inline. In practice spawn only fails under resource
        // exhaustion, where the listener would have failed first.
        let flusher = std::thread::Builder::new()
            .name("gbd-flusher".to_string())
            .spawn(move || flusher_loop(&worker_shared))
            .ok();
        Arc::new(Coalescer {
            shared,
            flusher: Mutex::new(flusher),
        })
    }

    /// Submits one eval request. On admission, returns the receiver the
    /// response JSON will arrive on once its evaluation completes.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the queue is full (the request is
    /// shed, not queued), [`SubmitError::ShuttingDown`] once draining has
    /// begun.
    pub fn submit(&self, id: u64, request: EvalRequest) -> Result<Receiver<Json>, SubmitError> {
        let mut queue = lock_queue(&self.shared);
        if queue.draining {
            return Err(SubmitError::ShuttingDown);
        }
        if queue.pending.len() >= self.shared.config.queue_depth {
            self.shared.metrics.shed.inc();
            return Err(SubmitError::Overloaded);
        }
        // Capacity 1 and exactly one send per request: the flusher's send
        // never blocks, whether or not the client is still listening.
        let (tx, rx) = mpsc::sync_channel(1);
        queue.pending.push_back(Pending {
            id,
            request,
            tx,
            enqueued_at: Instant::now(),
        });
        self.shared.metrics.admitted.inc();
        drop(queue);
        self.shared.wake.notify_one();
        Ok(rx)
    }

    /// Requests currently queued (not yet handed to the engine).
    pub fn queue_depth(&self) -> usize {
        lock_queue(&self.shared).pending.len()
    }

    /// Begins draining: rejects new submissions, flushes everything still
    /// queued, and joins the flusher thread. Every admitted request gets
    /// its response before this returns. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut queue = lock_queue(&self.shared);
            queue.draining = true;
        }
        self.shared.wake.notify_all();
        let handle = self
            .flusher
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take();
        if let Some(handle) = handle {
            // The flusher only exits by finishing the drain; a panic there
            // would already have been isolated per-request by the engine.
            let _ = handle.join();
        } else {
            // No flusher thread (spawn failed at startup): drain inline.
            drain_inline(&self.shared);
        }
    }
}

/// What triggered a flush (for the stats counters).
enum FlushCause {
    Size,
    Timer,
}

fn flusher_loop(shared: &Shared) {
    loop {
        let Some((batch, cause)) = next_batch(shared) else {
            return;
        };
        flush(shared, batch, &cause);
    }
}

/// Blocks until a flush is due and takes up to `batch_max` requests, or
/// returns `None` when draining completes with an empty queue.
fn next_batch(shared: &Shared) -> Option<(Vec<Pending>, FlushCause)> {
    let config = &shared.config;
    let mut queue = lock_queue(shared);
    loop {
        if queue.pending.len() >= config.batch_max {
            return Some((take_batch(&mut queue, config.batch_max), FlushCause::Size));
        }
        if queue.draining {
            if queue.pending.is_empty() {
                return None;
            }
            return Some((take_batch(&mut queue, config.batch_max), FlushCause::Timer));
        }
        let Some(oldest) = queue.pending.front() else {
            queue = shared
                .wake
                .wait(queue)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            continue;
        };
        let deadline = oldest.enqueued_at + config.flush_interval;
        let now = Instant::now();
        if now >= deadline {
            return Some((take_batch(&mut queue, config.batch_max), FlushCause::Timer));
        }
        queue = shared
            .wake
            .wait_timeout(queue, deadline - now)
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .0;
    }
}

fn take_batch(queue: &mut Queue, batch_max: usize) -> Vec<Pending> {
    let take = queue.pending.len().min(batch_max);
    queue.pending.drain(..take).collect()
}

/// Evaluates one batch, streaming each response back to its connection as
/// the engine finishes it.
fn flush(shared: &Shared, batch: Vec<Pending>, cause: &FlushCause) {
    let metrics = &shared.metrics;
    metrics.batches_flushed.inc();
    match cause {
        FlushCause::Size => metrics.flushes_by_size.inc(),
        FlushCause::Timer => metrics.flushes_by_timer.inc(),
    }
    metrics.evaluated.add(batch.len() as u64);
    let requests: Vec<EvalRequest> = batch.iter().map(|p| p.request.clone()).collect();
    // Split the end-to-end latency at the flush boundary: everything
    // before `flushed_at` is queue wait (admission control + coalescing
    // delay), everything after is engine compute for this batch.
    let flushed_at = Instant::now();
    // `notify` runs on engine worker threads; `response.index` is the
    // request's position in this batch, which indexes `batch` directly.
    shared.engine.evaluate_batch_with(&requests, |response| {
        let Some(pending) = batch.get(response.index) else {
            return;
        };
        metrics.latency.record(pending.enqueued_at.elapsed());
        metrics
            .queue_wait
            .record(flushed_at.saturating_duration_since(pending.enqueued_at));
        metrics.compute.record(flushed_at.elapsed());
        if let Some(backend) = metrics.backend_latency(response.served_by) {
            backend.record(flushed_at.elapsed());
        }
        let rendered = protocol::render_response(pending.id, response);
        // A send only fails when the connection died while the request was
        // in flight; the result is simply dropped.
        let _ = pending.tx.send(rendered);
    });
}

/// Fallback drain used only when the flusher thread could not be spawned.
fn drain_inline(shared: &Shared) {
    loop {
        let batch = {
            let mut queue = lock_queue(shared);
            if queue.pending.is_empty() {
                return;
            }
            take_batch(&mut queue, shared.config.batch_max)
        };
        flush(shared, batch, &FlushCause::Timer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbd_core::params::SystemParams;
    use gbd_engine::{BackendSpec, SimulationSpec};

    fn request(n: usize) -> EvalRequest {
        EvalRequest::new(
            SystemParams::paper_defaults().with_n_sensors(n),
            BackendSpec::Poisson,
        )
    }

    fn start(config: CoalescerConfig) -> (Arc<Coalescer>, Arc<ServerMetrics>) {
        let metrics = Arc::new(ServerMetrics::new());
        let engine = Arc::new(Engine::with_workers(2));
        (
            Coalescer::start(engine, Arc::clone(&metrics), config),
            metrics,
        )
    }

    #[test]
    fn coalesces_concurrent_submissions_into_one_batch() {
        let (coalescer, metrics) = start(CoalescerConfig {
            batch_max: 8,
            flush_interval: Duration::from_millis(200),
            queue_depth: 64,
        });
        // Submit 8 requests inside one flush interval: the size threshold
        // fires and they ride a single batch.
        let receivers: Vec<_> = (0..8)
            .map(|i| coalescer.submit(i as u64, request(100 + i)).unwrap())
            .collect();
        for (i, rx) in receivers.into_iter().enumerate() {
            let response = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(response.get("id").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        }
        assert_eq!(metrics.batches_flushed.get(), 1);
        assert_eq!(metrics.evaluated.get(), 8);
        assert_eq!(metrics.coalescing_factor(), 8.0);
        assert_eq!(metrics.flushes_by_size.get(), 1);
        // Every request in the batch was served by the poisson backend;
        // its per-backend histogram saw all 8.
        assert_eq!(metrics.backend_latency("poisson").unwrap().count(), 8);
        coalescer.shutdown();
    }

    #[test]
    fn timer_flushes_partial_batches() {
        let (coalescer, metrics) = start(CoalescerConfig {
            batch_max: 1000,
            flush_interval: Duration::from_millis(5),
            queue_depth: 64,
        });
        let rx = coalescer.submit(7, request(50)).unwrap();
        let response = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(metrics.flushes_by_timer.get(), 1);
        coalescer.shutdown();
    }

    #[test]
    fn sheds_when_queue_is_full() {
        let (coalescer, metrics) = start(CoalescerConfig {
            batch_max: 1000,
            // Long enough that nothing flushes while we overfill.
            flush_interval: Duration::from_secs(60),
            queue_depth: 3,
        });
        let kept: Vec<_> = (0..3)
            .map(|i| coalescer.submit(i, request(40)).unwrap())
            .collect();
        assert_eq!(
            coalescer.submit(99, request(40)).unwrap_err(),
            SubmitError::Overloaded
        );
        assert_eq!(metrics.shed.get(), 1);
        assert_eq!(coalescer.queue_depth(), 3);
        // Shutdown drains the admitted three; each still gets its answer.
        coalescer.shutdown();
        for rx in kept {
            assert!(rx.recv_timeout(Duration::from_secs(30)).is_ok());
        }
    }

    #[test]
    fn default_config_batches_what_queues_during_a_flush() {
        let (coalescer, metrics) = start(CoalescerConfig::default());
        let slow = EvalRequest::new(
            SystemParams::paper_defaults(),
            BackendSpec::Simulation(SimulationSpec {
                trials: 2_000,
                threads: 1,
                ..SimulationSpec::default()
            }),
        );
        let mut receivers = vec![(0, coalescer.submit(0, slow).unwrap())];
        // The flusher counts a batch before evaluating it: from here on it
        // is busy with the slow request, so what arrives next queues.
        let started = Instant::now();
        while metrics.batches_flushed.get() < 1 {
            assert!(started.elapsed() < Duration::from_secs(30));
            std::thread::yield_now();
        }
        for i in 1..=8 {
            receivers.push((i, coalescer.submit(i, request(100 + i as usize)).unwrap()));
        }
        assert!(
            receivers[0].1.try_recv().is_err(),
            "the slow request finished before the fast ones queued"
        );
        for (id, rx) in receivers {
            let response = rx.recv_timeout(Duration::from_secs(60)).unwrap();
            assert_eq!(response.get("id").and_then(Json::as_u64), Some(id));
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        }
        // With no timer to wait out, the eight fast requests still ride one
        // batch: the one that formed while the slow flush ran.
        assert_eq!(metrics.batches_flushed.get(), 2);
        assert_eq!(metrics.evaluated.get(), 9);
        coalescer.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_work_and_is_idempotent() {
        let (coalescer, _metrics) = start(CoalescerConfig::default());
        coalescer.shutdown();
        assert_eq!(
            coalescer.submit(1, request(40)).unwrap_err(),
            SubmitError::ShuttingDown
        );
        coalescer.shutdown();
    }
}
