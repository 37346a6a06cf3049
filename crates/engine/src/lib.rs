#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
//! Batched evaluation engine for group based detection studies.
//!
//! Every figure of the paper is a *sweep*: the same model evaluated over a
//! grid of parameter points that share most of their expensive
//! intermediates. This crate turns "call `analyze` in a loop" into a
//! request-oriented engine:
//!
//! * submit a batch of [`EvalRequest`]s (`params` × backend × options);
//! * the engine fans them out on [`gbd_stats::pool`], shared with the simulator;
//! * responses come back in request order, each with its detection
//!   probabilities, timing, and cache accounting.
//!
//! Three memoization layers persist across requests **and batches** on one
//! [`Engine`] value (sharded `RwLock` maps, see [`cache`]):
//!
//! 1. **geometry** — per-period NEDR stage inputs, keyed by
//!    `(Rs, V·t, M, caps)`; shared by every sweep point that moves `N`,
//!    `Pd` or `k` at fixed geometry;
//! 2. **stages** — per-NEDR report distributions, accuracies, and
//!    `eps`-truncation records, keyed by
//!    `(subarea sizes, S, N, Pd, cap, eps)`; within one run all Body
//!    stages share a single entry, and across runs all matching stages do;
//! 3. **results** — assembled per-request outputs, keyed by the full
//!    `(params, backend)` identity; a repeated request is a pointer clone.
//!
//! Keys compare floats by bit pattern, so a warm result is *bit-identical*
//! to the cold computation — caching changes speed, never values. Monte
//! Carlo requests ([`BackendSpec::Simulation`]) go through the same front
//! door and the result layer (simulation results are a pure function of
//! their seed, hence cacheable like any analysis).
//!
//! # Fault tolerance
//!
//! The engine treats every request as untrusted (see [`resilience`]):
//!
//! * a panicking evaluation is caught at the request boundary and becomes
//!   that request's [`EvalError::WorkerPanicked`] — the rest of the batch
//!   completes normally;
//! * [`EvalOptions::deadline`] cancels overlong evaluations cooperatively
//!   ([`EvalError::DeadlineExceeded`]); a deadline never changes a value,
//!   only whether one comes back;
//! * [`BackendSpec::with_fallback`] chains cheaper backends that answer
//!   when the primary fails; the response is tagged
//!   [`EvalResponse::degraded`] and [`EvalResponse::served_by`] names the
//!   backend that produced it;
//! * simulation requests can opt into bounded seeded retries
//!   ([`EvalOptions::retry`]) with backoff that is a pure function of the
//!   request seed, preserving determinism;
//! * a panic inside a cache shard poisons only that shard's lock, which
//!   every access recovers (and counts in
//!   [`CacheStats::poisoned_recoveries`]).
//!
//! The [`chaos`] module (cargo feature `chaos`, tests only) injects
//! deterministic worker panics and stage latency to prove all of the
//! above under fault load.
//!
//! # Example
//!
//! ```
//! use gbd_core::prelude::*;
//! use gbd_engine::{BackendSpec, Engine, EvalRequest};
//!
//! let engine = Engine::new();
//! let sweep: Vec<EvalRequest> = [60, 120, 180, 240]
//!     .iter()
//!     .map(|&n| {
//!         EvalRequest::new(
//!             SystemParams::paper_defaults().with_n_sensors(n),
//!             BackendSpec::ms_default(),
//!         )
//!     })
//!     .collect();
//! let responses = engine.evaluate_batch(&sweep);
//! assert_eq!(responses.len(), 4);
//! let p240 = responses[3].detection_probability().unwrap();
//! assert!(p240 > 0.9);
//! // The four points share geometry and body stages:
//! assert!(engine.cache_stats().hits > 0);
//! ```

pub mod cache;
pub mod chaos;
pub mod request;
pub mod resilience;

mod persist;

pub use cache::CacheStats;
#[cfg(feature = "chaos")]
pub use chaos::ChaosPlan;
/// Re-exported store types so engine callers can attach and observe a
/// persistent store without depending on `gbd-store` directly.
pub use gbd_store::{CompactionReport, StoreError, StoreStats};
pub use request::{
    BackendSpec, EvalOptions, EvalOutput, EvalRequest, EvalResponse, SimulationSpec,
};
pub use resilience::{BackendChain, EvalError, RetryPolicy};

use cache::{f64_key, f64_slice_key, RequestCounters, ShardedCache};
use chaos::BatchFaults;
use gbd_core::budget::ComputeBudget;
use gbd_core::model::{DetectionModel, ExactModel, PoissonModel, SModel, TModel};
use gbd_core::ms_approach::{self, MsOptions, StageInput};
use gbd_core::prelude::*;
use gbd_core::report_dist::{stage_accuracy_with, stage_distribution_with};
use gbd_markov::scratch::Scratch;
use gbd_stats::binomial::PmfTable;
use gbd_stats::discrete::DiscreteDist;
use gbd_store::Store;
use request::result_key;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Key of the geometry layer: everything the per-period stage inputs of a
/// constant-speed M-S run depend on. The caps enter post-`min(·, N)`, so
/// parameter points whose caps saturate identically share the entry.
/// `Ord` so batch scheduling can group requests by this key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct GeometryKey {
    sensing_range: u64,
    step: u64,
    m_periods: usize,
    g_eff: usize,
    gh_eff: usize,
}

/// The geometry-layer key of an M-S request.
fn geometry_key(params: &SystemParams, opts: &MsOptions) -> GeometryKey {
    let n = params.n_sensors();
    GeometryKey {
        sensing_range: f64_key(params.sensing_range()),
        step: f64_key(params.step()),
        m_periods: params.m_periods(),
        g_eff: opts.g.min(n),
        gh_eff: opts.gh.min(n),
    }
}

/// Key of the stage layer: everything one NEDR's report distribution,
/// accuracy, and `eps`-truncation record depend on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StageKey {
    areas: Vec<u64>,
    field_area: u64,
    n_sensors: usize,
    pd: u64,
    cap: usize,
    eps: u64,
}

/// Per-worker arena of the memoized M-S path: the stage convolution
/// ladder buffers, the placement pmf table, and the counting-chain
/// scratch. Thread-local so concurrent workers never contend, and warm
/// after the first request a worker serves.
struct StageScratch {
    qn: DiscreteDist,
    conv: Vec<f64>,
    table: PmfTable,
    chain: Scratch,
}

thread_local! {
    static STAGE_SCRATCH: RefCell<StageScratch> = RefCell::new(StageScratch {
        qn: DiscreteDist::point_mass(0),
        conv: Vec::new(),
        table: PmfTable::new(),
        chain: Scratch::new(),
    });
}

/// The batched evaluation engine. See the crate docs for the architecture.
///
/// Cheap to share: all internal state is behind sharded locks, so one
/// `Engine` can serve concurrent callers (`&self` everywhere).
#[derive(Debug)]
pub struct Engine {
    workers: usize,
    geometry: ShardedCache<GeometryKey, Vec<StageInput>>,
    stages: ShardedCache<StageKey, (DiscreteDist, f64, f64)>,
    results: ShardedCache<request::ResultKey, EvalOutput>,
    /// Optional durable tier under the caches (see [`Engine::with_store`]).
    store: Option<Arc<Store>>,
    /// Entries seeded into the caches from the store at construction.
    store_loads: AtomicU64,
    /// Freshly computed entries appended to the store.
    store_spills: AtomicU64,
    /// Spill attempts that failed with a store error (the computed value
    /// still serves the request; it is just not durable).
    store_errors: AtomicU64,
    #[cfg(feature = "chaos")]
    chaos: Option<chaos::ChaosPlan>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Engine with one worker per core: the core count
    /// ([`gbd_stats::pool::cores`]) is read once per process.
    pub fn new() -> Self {
        Self::with_workers(gbd_stats::pool::cores())
    }

    /// Engine whose batches run on `workers` threads, the calling thread
    /// among them. `0` is treated as 1, and counts above the core count
    /// are capped to it, the size of the shared pool plus the caller. At
    /// 1 the engine runs every batch on the calling thread and never
    /// starts the pool. Responses do not depend on the worker count —
    /// only latency does.
    pub fn with_workers(workers: usize) -> Self {
        Engine {
            workers: workers.clamp(1, gbd_stats::pool::cores()),
            geometry: ShardedCache::new(),
            stages: ShardedCache::new(),
            results: ShardedCache::new(),
            store: None,
            store_loads: AtomicU64::new(0),
            store_spills: AtomicU64::new(0),
            store_errors: AtomicU64::new(0),
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }

    /// Attaches a persistent [`gbd_store::Store`] at `path` and
    /// warm-starts every cache layer from it.
    ///
    /// From then on each freshly *computed* entry (geometry, stage,
    /// result) is spilled to the store as it is inserted, so the next
    /// `with_store` open — after a restart, or even after a crash
    /// mid-append — reloads everything the previous process computed.
    /// Seeded entries are the bytes the cold computation produced, so a
    /// store-warmed engine answers bit-identically to a cold one; the
    /// load and spill counts are surfaced in
    /// [`CacheStats::store_loads`]/[`CacheStats::store_spills`] via
    /// [`Engine::cache_stats`].
    ///
    /// Records that fail to decode (e.g. written by a future codec) are
    /// skipped — the entry is recomputed on demand, never served wrong.
    /// Spill failures (disk full, permissions) degrade the store to
    /// read-only accounting (`store_errors` in [`Engine::store_stats`])
    /// without failing any request.
    ///
    /// Call last in the builder chain: [`Engine::with_cache_capacity`]
    /// replaces the caches, which would drop seeded entries.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the file is unreadable, not a store, written
    /// under a different schema version, or carries a different
    /// identity tag (a foreign client's cache).
    pub fn with_store(mut self, path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let store = Store::open(path, persist::STORE_TAG)?;
        let mut loads = 0u64;
        store.for_each(|kind, key, value| {
            let seeded = match kind {
                persist::KIND_GEOMETRY => match (
                    persist::decode_geometry_key(key),
                    persist::decode_stage_inputs(value),
                ) {
                    (Some(k), Some(v)) => self.geometry.seed(k, v),
                    _ => false,
                },
                persist::KIND_STAGE => match (
                    persist::decode_stage_key(key),
                    persist::decode_stage_value(value),
                ) {
                    (Some(k), Some(v)) => self.stages.seed(k, v),
                    _ => false,
                },
                persist::KIND_RESULT => match (
                    persist::decode_result_key(key),
                    persist::decode_output(value),
                ) {
                    (Some(k), Some(v)) => self.results.seed(k, v),
                    _ => false,
                },
                _ => false,
            };
            if seeded {
                loads += 1;
            }
        });
        self.store_loads.store(loads, Ordering::Relaxed);
        self.store = Some(Arc::new(store));
        Ok(self)
    }

    /// Bounds every cache layer to `max_entries_per_shard` entries per
    /// shard (16 shards per layer; `0` = unbounded, the default).
    /// Overflow evicts via a second-chance sweep and counts in
    /// [`CacheStats::evictions`]; an evicted entry is recomputed
    /// bit-identically on its next use, so the bound changes memory and
    /// speed, never values. Long-lived servers should set this — the
    /// unbounded default grows forever under a changing workload.
    ///
    /// Call at construction time: bounding replaces the (empty) caches.
    #[must_use]
    pub fn with_cache_capacity(mut self, max_entries_per_shard: usize) -> Self {
        self.geometry = ShardedCache::with_max_entries_per_shard(max_entries_per_shard);
        self.stages = ShardedCache::with_max_entries_per_shard(max_entries_per_shard);
        self.results = ShardedCache::with_max_entries_per_shard(max_entries_per_shard);
        self
    }

    /// Attaches a [`chaos::ChaosPlan`] that deterministically injects
    /// faults into every batch this engine serves. Test-only (cargo
    /// feature `chaos`).
    #[cfg(feature = "chaos")]
    #[must_use]
    pub fn with_chaos(mut self, plan: chaos::ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Evaluates one request (equivalent to a single-element batch).
    pub fn evaluate(&self, request: &EvalRequest) -> EvalResponse {
        let faults = self.batch_faults(1);
        self.evaluate_at(0, request, &faults)
    }

    /// Evaluates a batch across the engine's workers. Responses are returned in
    /// request order, and their values are independent of the worker count
    /// and of which requests hit warm caches.
    pub fn evaluate_batch(&self, requests: &[EvalRequest]) -> Vec<EvalResponse> {
        self.evaluate_batch_with(requests, |_| {})
    }

    /// Like [`Engine::evaluate_batch`], additionally invoking `notify`
    /// with each response **as soon as it completes**, from the worker
    /// thread that computed it. This is the batch-handle surface a
    /// serving layer coalesces onto: early finishers stream back to their
    /// callers while the rest of the batch is still evaluating, instead of
    /// waiting for the slowest request.
    ///
    /// `notify` observes every response exactly once in the common case;
    /// if a panic escapes the per-request panic boundary (into the
    /// defense-in-depth recompute path of [`gbd_stats::pool::fan_out`]),
    /// a recomputed response may be notified again — consumers routing by
    /// [`EvalResponse::index`] are idempotent by construction.
    pub fn evaluate_batch_with<F>(
        &self,
        requests: &[EvalRequest],
        notify: F,
    ) -> Vec<EvalResponse>
    where
        F: Fn(&EvalResponse) + Sync,
    {
        let faults = self.batch_faults(requests.len());
        let schedule = self.schedule(requests);
        let computed = gbd_stats::pool::fan_out(requests.len(), self.workers, || {
            |slot| {
                let i = schedule[slot];
                let response = self.evaluate_at(i, &requests[i], &faults);
                notify(&response);
                response
            }
        });
        // The schedule permuted execution order only; sorting by the
        // original request index restores request order for the caller.
        let mut responses = computed;
        responses.sort_unstable_by_key(|response| response.index);
        responses
    }

    /// Execution order of a batch: request indices grouped by geometry
    /// cache key, with groups whose geometry is already warm scheduled
    /// ahead of cold groups (and non-M-S requests last, in request
    /// order). Grouping keeps same-geometry requests adjacent, so within
    /// a cold batch the first member's stage misses become its
    /// neighbours' hits instead of racing N workers over the same cold
    /// key; warm-first lets cached sweep points stream out while cold
    /// geometry is still being built. Pure scheduling: values are
    /// bit-identical for any order, and responses return in request
    /// order regardless.
    fn schedule(&self, requests: &[EvalRequest]) -> Vec<usize> {
        let mut order: Vec<(u8, Option<GeometryKey>, usize)> = requests
            .iter()
            .enumerate()
            .map(|(i, request)| match request.backend {
                BackendSpec::Ms(opts) => {
                    let key = geometry_key(&request.params, &opts);
                    let rank = u8::from(!self.geometry.contains_key(&key));
                    (rank, Some(key), i)
                }
                _ => (2, None, i),
            })
            .collect();
        order.sort_unstable();
        order.into_iter().map(|(_, _, i)| i).collect()
    }

    /// The faults to inject into a batch of `len` (none unless a chaos
    /// plan is attached under the `chaos` feature).
    #[cfg_attr(not(feature = "chaos"), allow(unused_variables))]
    fn batch_faults(&self, len: usize) -> BatchFaults {
        #[cfg(feature = "chaos")]
        if let Some(plan) = &self.chaos {
            return plan.resolve(len);
        }
        BatchFaults::none()
    }

    /// Aggregate hit/miss counters over all three cache layers, plus the
    /// store load/spill counts when a store is attached.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self
            .geometry
            .stats()
            .merged(self.stages.stats())
            .merged(self.results.stats());
        stats.store_loads = self.store_loads.load(Ordering::Relaxed);
        stats.store_spills = self.store_spills.load(Ordering::Relaxed);
        stats
    }

    /// Counters of the attached store; `None` without one. The
    /// `append_errors` field here counts store-side failures; the
    /// engine-side spill failures are in [`Engine::store_spill_errors`].
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|store| store.stats())
    }

    /// Order-independent CRC digest of the attached store's live index
    /// (see [`Store::digest`]); `None` without a store. A standby whose
    /// digest matches its primary's has provably converged.
    pub fn store_digest(&self) -> Option<u32> {
        self.store.as_ref().map(|store| store.digest())
    }

    /// The attached store handle, for layers that wire replication (log
    /// shipping tees) around the engine; `None` without a store.
    pub fn store_handle(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// The identity tag under which this engine build persists cache
    /// records (and therefore the tag its replication streams carry).
    pub fn store_identity() -> &'static [u8] {
        persist::STORE_TAG
    }

    /// The routing key of a request: the byte encoding of its
    /// result-cache key. Two requests with equal routing keys are served
    /// from the same result-cache entry, so a router that hashes this key
    /// sends repeats of a request to the shard whose cache is warm for it.
    pub fn routing_key(request: &EvalRequest) -> Vec<u8> {
        persist::encode_result_key(&result_key(&request.params, &request.backend))
    }

    /// Applies one replicated store record to this engine: decodes it
    /// with the same codec a warm start uses, seeds the matching cache
    /// layer, and re-appends it to this engine's own store (if attached)
    /// so the entry survives a restart of the standby itself.
    ///
    /// Returns `false` when the record does not decode under this build's
    /// codec — the caller counts it and moves on; a bad record can degrade
    /// the warm set, never correctness. Duplicate records return `true`
    /// without reseeding (cache seeding is first-writer-wins on identical
    /// bytes, so replays are harmless).
    pub fn apply_replicated_record(&self, kind: u8, key: &[u8], value: &[u8]) -> bool {
        let seeded = match kind {
            persist::KIND_GEOMETRY => match (
                persist::decode_geometry_key(key),
                persist::decode_stage_inputs(value),
            ) {
                (Some(k), Some(v)) => Some(self.geometry.seed(k, v)),
                _ => None,
            },
            persist::KIND_STAGE => match (
                persist::decode_stage_key(key),
                persist::decode_stage_value(value),
            ) {
                (Some(k), Some(v)) => Some(self.stages.seed(k, v)),
                _ => None,
            },
            persist::KIND_RESULT => match (
                persist::decode_result_key(key),
                persist::decode_output(value),
            ) {
                (Some(k), Some(v)) => Some(self.results.seed(k, v)),
                _ => None,
            },
            _ => None,
        };
        let Some(fresh) = seeded else {
            return false;
        };
        if fresh {
            self.store_loads.fetch_add(1, Ordering::Relaxed);
            // Persist only fresh records: a replay after reconnect would
            // otherwise grow the standby's log with duplicates.
            if let Some(store) = &self.store {
                // Failures are already counted in the store's own
                // append_errors; the seeded entry still serves requests.
                let _ = store.append(kind, key, value);
            }
        }
        true
    }

    /// Spill attempts that failed with a store error since construction
    /// (requests still succeeded; their entries are just not durable).
    pub fn store_spill_errors(&self) -> u64 {
        self.store_errors.load(Ordering::Relaxed)
    }

    /// Flushes spilled entries to stable storage; `None` without a store.
    pub fn sync_store(&self) -> Option<Result<(), StoreError>> {
        self.store.as_ref().map(|store| store.sync())
    }

    /// Compacts the attached store to its live entries via an atomic
    /// snapshot (write-temp + rename); `None` without a store. Serving
    /// layers call this on graceful drain so the next boot warm-starts
    /// from a minimal, cleanly closed log.
    pub fn snapshot_store(&self) -> Option<Result<CompactionReport, StoreError>> {
        self.store.as_ref().map(|store| store.compact())
    }

    /// Per-layer `(name, stats)` breakdown.
    pub fn layer_stats(&self) -> [(&'static str, CacheStats); 3] {
        [
            ("geometry", self.geometry.stats()),
            ("stages", self.stages.stats()),
            ("results", self.results.stats()),
        ]
    }

    /// Registers the engine's cache and store series on an observability
    /// registry as polled counters, so snapshots and windowed deltas track
    /// them alongside the serving layer's own instruments. Instrument
    /// names: `cache_hits`, `cache_misses`, `cache_evictions`,
    /// `cache_poisoned_recoveries`, `store_loads`, `store_spills`,
    /// `store_spill_errors`, plus the attached store's own series (see
    /// [`gbd_store::Store::register_observability`]).
    ///
    /// Note: [`Engine::clear_caches`] resets these counters, which breaks
    /// the monotonicity windowed deltas rely on — long-lived observed
    /// engines should not clear caches mid-flight.
    pub fn register_observability(self: &Arc<Self>, registry: &gbd_obs::Registry) {
        type StatReader = fn(&CacheStats) -> u64;
        let cache_series: [(&str, StatReader); 4] = [
            ("cache_hits", |s| s.hits),
            ("cache_misses", |s| s.misses),
            ("cache_evictions", |s| s.evictions),
            ("cache_poisoned_recoveries", |s| s.poisoned_recoveries),
        ];
        for (name, read) in cache_series {
            let engine = Arc::clone(self);
            registry.polled_counter(name, move || read(&engine.cache_stats()));
        }
        let loads = Arc::clone(self);
        registry.polled_counter("store_loads", move || {
            loads.store_loads.load(Ordering::Relaxed)
        });
        let spills = Arc::clone(self);
        registry.polled_counter("store_spills", move || {
            spills.store_spills.load(Ordering::Relaxed)
        });
        let errors = Arc::clone(self);
        registry.polled_counter("store_spill_errors", move || {
            errors.store_errors.load(Ordering::Relaxed)
        });
        if let Some(store) = &self.store {
            store.register_observability(registry);
        }
    }

    /// Drops every cached entry and resets all counters (including the
    /// store load/spill counts; the store's own contents are untouched —
    /// a later [`Engine::with_store`] open still warm-starts from them).
    pub fn clear_caches(&self) {
        self.geometry.clear();
        self.stages.clear();
        self.results.clear();
        self.store_loads.store(0, Ordering::Relaxed);
        self.store_spills.store(0, Ordering::Relaxed);
        self.store_errors.store(0, Ordering::Relaxed);
    }

    /// Appends one `(key, value)` pair to the attached store, if any.
    /// Called from compute closures, which run outside every shard lock,
    /// so spilling serializes on the store mutex only — never on a cache
    /// shard. Failures are counted, not propagated: durability is an
    /// optimization, the computed value is already correct.
    fn spill(&self, kind: u8, encode: impl FnOnce() -> (Vec<u8>, Vec<u8>)) {
        let Some(store) = &self.store else {
            return;
        };
        let (key, value) = encode();
        match store.append(kind, &key, &value) {
            Ok(()) => {
                self.store_spills.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.store_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn evaluate_at(
        &self,
        index: usize,
        request: &EvalRequest,
        faults: &BatchFaults,
    ) -> EvalResponse {
        let counters = RequestCounters::default();
        let start = Instant::now();
        let budget = match request.options.deadline {
            Some(deadline) => ComputeBudget::with_deadline(deadline),
            None => ComputeBudget::unlimited(),
        };

        let mut outcome = self.attempt_primary(index, request, &counters, &budget, faults);
        let mut served_by = request.backend.name();
        let mut degraded = false;
        if outcome.is_err() {
            for fallback in &request.fallbacks {
                // The chain shares the request's budget: no point starting
                // a fallback whose deadline has already passed.
                if budget.checkpoint().is_err() {
                    break;
                }
                if let Ok(output) =
                    self.guarded_eval(index, request, *fallback, &counters, &budget, faults, 1)
                {
                    outcome = Ok(output);
                    served_by = fallback.name();
                    degraded = true;
                    break;
                }
                // A failed fallback never masks the primary's error.
            }
        }

        let duration = start.elapsed();
        let detection = match &outcome {
            Ok(output) => request
                .thresholds()
                .iter()
                .map(|&k| (k, output.detection_probability(k)))
                .collect(),
            Err(_) => Vec::new(),
        };
        EvalResponse {
            index,
            backend: request.backend.name(),
            served_by,
            degraded,
            outcome,
            detection,
            duration,
            cache: counters.stats(),
        }
    }

    /// Runs the request's primary backend, retrying panicked simulation
    /// attempts when the request carries a [`RetryPolicy`]. Injected
    /// chaos latency is charged here (virtually — see [`chaos`]), so it
    /// can fail only the primary, leaving fallbacks their turn.
    fn attempt_primary(
        &self,
        index: usize,
        request: &EvalRequest,
        counters: &RequestCounters,
        budget: &ComputeBudget,
        faults: &BatchFaults,
    ) -> Result<EvalOutput, EvalError> {
        if let Some(latency) = faults.injected_latency(index) {
            if budget.would_exceed(latency) {
                return Err(EvalError::DeadlineExceeded {
                    elapsed: latency,
                    completed_stages: 0,
                });
            }
        }
        let (policy, seed) = match (request.backend, request.options.retry) {
            (BackendSpec::Simulation(spec), Some(policy)) => (policy, spec.seed),
            _ => (RetryPolicy::new(0), 0),
        };
        let mut attempt = 0u32;
        loop {
            let result = self.guarded_eval(
                index,
                request,
                request.backend,
                counters,
                budget,
                faults,
                attempt,
            );
            match result {
                Err(ref error) if error.is_transient() && attempt < policy.max_retries => {
                    let backoff = policy.backoff(seed, attempt);
                    if budget.would_exceed(backoff) {
                        return result;
                    }
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// One attempt at one backend, with the panic boundary around it:
    /// a panic anywhere below becomes that request's
    /// [`EvalError::WorkerPanicked`] instead of killing the worker.
    #[allow(clippy::too_many_arguments)]
    fn guarded_eval(
        &self,
        index: usize,
        request: &EvalRequest,
        backend: BackendSpec,
        counters: &RequestCounters,
        budget: &ComputeBudget,
        faults: &BatchFaults,
        attempt: u32,
    ) -> Result<EvalOutput, EvalError> {
        budget.checkpoint()?;
        let caught = catch_unwind(AssertUnwindSafe(|| -> Result<EvalOutput, CoreError> {
            // The chaos panic fires before the cache lookup so a faulted
            // request faults identically whether the caches are warm or
            // cold (attempt 0 only when the plan is transient).
            if faults.injects_panic(index, attempt) {
                panic!("chaos: injected worker panic");
            }
            if request.options.bypass_cache {
                self.compute_cold(&request.params, backend, budget)
            } else {
                let key = result_key(&request.params, &backend);
                self.results
                    .try_get_or_insert_with(key.clone(), counters, || {
                        let output =
                            self.compute(&request.params, backend, counters, budget)?;
                        self.spill(persist::KIND_RESULT, || {
                            (
                                persist::encode_result_key(&key),
                                persist::encode_output(&output),
                            )
                        });
                        Ok(output)
                    })
                    .map(|arc| (*arc).clone())
            }
        }));
        match caught {
            Ok(result) => result.map_err(EvalError::from),
            Err(payload) => Err(EvalError::WorkerPanicked {
                request_index: index,
                // `as_ref`, not `&payload`: a `&Box<dyn Any>` would unsize
                // to `&dyn Any` *as the box*, and every downcast would miss.
                payload: panic_payload(payload.as_ref()),
            }),
        }
    }

    /// The uncached evaluation path (`bypass_cache`): exactly what the
    /// backend modules compute, with no engine involvement beyond the
    /// cooperative budget.
    fn compute_cold(
        &self,
        params: &SystemParams,
        backend: BackendSpec,
        budget: &ComputeBudget,
    ) -> Result<EvalOutput, CoreError> {
        budget.checkpoint()?;
        match backend {
            BackendSpec::Ms(opts) => {
                let steps = vec![params.step(); params.m_periods()];
                ms_approach::analyze_steps_budgeted(params, &steps, &opts, budget)
                    .map(EvalOutput::Analysis)
            }
            BackendSpec::S(opts) => SModel { opts }
                .report_distribution(params)
                .map(EvalOutput::Analysis),
            BackendSpec::Exact { saturation_cap } => ExactModel { saturation_cap }
                .report_distribution(params)
                .map(EvalOutput::Analysis),
            BackendSpec::T { opts, max_states } => TModel { opts, max_states }
                .report_distribution(params)
                .map(EvalOutput::Analysis),
            BackendSpec::Poisson => PoissonModel
                .report_distribution(params)
                .map(EvalOutput::Analysis),
            BackendSpec::Simulation(spec) => Ok(EvalOutput::Simulation(gbd_sim::runner::run(
                &spec.to_config(*params)?,
            ))),
        }
    }

    /// The cached evaluation path. The M-S-approach walks the geometry and
    /// stage layers; every other backend computes whole (their
    /// intermediates are not shared across sweep points) and relies on the
    /// result layer alone.
    fn compute(
        &self,
        params: &SystemParams,
        backend: BackendSpec,
        counters: &RequestCounters,
        budget: &ComputeBudget,
    ) -> Result<EvalOutput, CoreError> {
        match backend {
            BackendSpec::Ms(opts) => self
                .compute_ms(params, &opts, counters, budget)
                .map(EvalOutput::Analysis),
            other => self.compute_cold(params, other, budget),
        }
    }

    /// The memoized M-S path: identical arithmetic to
    /// [`ms_approach::analyze`], with the geometry and per-stage results
    /// fetched through the caches and a budget checkpoint between stages.
    fn compute_ms(
        &self,
        params: &SystemParams,
        opts: &MsOptions,
        counters: &RequestCounters,
        budget: &ComputeBudget,
    ) -> Result<ReportDistribution, CoreError> {
        // Validate before touching the geometry layer: a warm entry for
        // the same `(Rs, V·t, M, caps)` must not mask an invalid `eps`.
        opts.validate()?;
        let n = params.n_sensors();
        let geo_key = geometry_key(params, opts);
        let inputs = self
            .geometry
            .try_get_or_insert_with(geo_key.clone(), counters, || {
                let steps = vec![params.step(); params.m_periods()];
                let inputs =
                    ms_approach::stage_inputs(params.sensing_range(), &steps, n, opts)?;
                self.spill(persist::KIND_GEOMETRY, || {
                    (
                        persist::encode_geometry_key(&geo_key),
                        persist::encode_stage_inputs(&inputs),
                    )
                });
                Ok::<_, CoreError>(inputs)
            })?;

        let field_area = params.field_area();
        let pd = params.pd();
        let support_cap: usize = inputs.iter().map(StageInput::support_bound).sum();
        STAGE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let stages: Vec<(DiscreteDist, f64, f64)> = inputs
                .iter()
                .map(|stage| {
                    budget.checkpoint()?;
                    let stage_key = StageKey {
                        areas: f64_slice_key(&stage.areas),
                        field_area: f64_key(field_area),
                        n_sensors: n,
                        pd: f64_key(pd),
                        cap: stage.cap,
                        eps: f64_key(opts.eps),
                    };
                    let entry =
                        self.stages
                            .get_or_insert_with(stage_key.clone(), counters, || {
                                let (dist, dropped) = stage_distribution_with(
                                    &stage.areas,
                                    field_area,
                                    n,
                                    pd,
                                    stage.cap,
                                    opts.eps,
                                    &mut scratch.qn,
                                    &mut scratch.conv,
                                );
                                let accuracy = stage_accuracy_with(
                                    stage.areas.iter().sum(),
                                    field_area,
                                    n,
                                    stage.cap,
                                    &mut scratch.table,
                                );
                                let value = (dist, accuracy, dropped);
                                self.spill(persist::KIND_STAGE, || {
                                    (
                                        persist::encode_stage_key(&stage_key),
                                        persist::encode_stage_value(&value),
                                    )
                                });
                                value
                            });
                    budget.complete_stage();
                    Ok((entry.0.clone(), entry.1, entry.2))
                })
                .collect::<Result<_, CoreError>>()?;
            Ok(ms_approach::assemble_stages_truncated(
                &stages,
                support_cap,
                &mut scratch.chain,
            ))
        })
    }
}

/// Renders a caught panic payload for [`EvalError::WorkerPanicked`].
fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// Keep `Arc` in the public-ish signature space honest: the engine is Send +
// Sync by construction; assert it so a regression fails to compile.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use gbd_core::s_approach::SOptions;

    fn paper() -> SystemParams {
        SystemParams::paper_defaults()
    }

    fn fig9a_grid() -> Vec<EvalRequest> {
        let mut requests = Vec::new();
        for &speed in &[4.0, 10.0] {
            for n in (60..=240).step_by(30) {
                requests.push(EvalRequest::new(
                    paper().with_speed(speed).with_n_sensors(n),
                    BackendSpec::ms_default(),
                ));
            }
        }
        requests
    }

    #[test]
    fn ms_through_engine_matches_direct_analyze() {
        let engine = Engine::with_workers(2);
        for response in engine.evaluate_batch(&fig9a_grid()) {
            let req = &fig9a_grid()[response.index];
            let direct = ms_approach::analyze(&req.params, &MsOptions::default()).unwrap();
            let output = response.outcome.as_ref().unwrap();
            assert_eq!(
                output.analysis().unwrap(),
                &direct,
                "index {}",
                response.index
            );
            assert_eq!(
                response.detection,
                vec![(5, direct.detection_probability(5))]
            );
        }
    }

    #[test]
    fn warm_batch_is_bit_identical_to_cold() {
        let engine = Engine::with_workers(4);
        let grid = fig9a_grid();
        let cold = engine.evaluate_batch(&grid);
        let warm = engine.evaluate_batch(&grid);
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.outcome, w.outcome);
            assert_eq!(c.detection, w.detection);
        }
        // The second pass is answered entirely from the result layer.
        let warm_hits: u64 = warm.iter().map(|r| r.cache.hits).sum();
        let warm_misses: u64 = warm.iter().map(|r| r.cache.misses).sum();
        assert_eq!(warm_misses, 0);
        assert_eq!(warm_hits, grid.len() as u64);
    }

    #[test]
    fn cold_sweep_already_shares_stages() {
        // Even the first pass over a sweep shares geometry (across N at
        // fixed speed) and body stages (within each run).
        let engine = Engine::with_workers(1);
        let responses = engine.evaluate_batch(&fig9a_grid());
        assert!(responses.iter().all(|r| r.outcome.is_ok()));
        let stats = engine.cache_stats();
        assert!(stats.hits > 0, "{stats:?}");
    }

    #[test]
    fn bypass_cache_matches_cached_result() {
        let engine = Engine::new();
        let mut request = EvalRequest::new(paper(), BackendSpec::ms_default());
        let cached = engine.evaluate(&request);
        request.options.bypass_cache = true;
        let bypassed = engine.evaluate(&request);
        assert_eq!(cached.outcome, bypassed.outcome);
        assert_eq!(bypassed.cache, CacheStats::default());
    }

    #[test]
    fn worker_count_does_not_change_responses() {
        let grid = fig9a_grid();
        let one = Engine::with_workers(1).evaluate_batch(&grid);
        let many = Engine::with_workers(8).evaluate_batch(&grid);
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.index, b.index);
        }
    }

    #[test]
    fn nested_simulation_batches_stay_on_the_pools_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        // Four simulations asking for every core, inside a two-worker
        // batch: each finds the pool busy and runs its trials on its
        // engine worker's thread instead of fanning out again.
        let batch: Vec<EvalRequest> = (0..4u64)
            .map(|seed| {
                EvalRequest::new(
                    paper().with_n_sensors(60 + 60 * seed as usize),
                    BackendSpec::Simulation(SimulationSpec {
                        trials: 200,
                        seed,
                        threads: 0,
                        ..SimulationSpec::default()
                    }),
                )
            })
            .collect();
        let ran = Mutex::new(HashSet::new());
        let two = Engine::with_workers(2).evaluate_batch_with(&batch, |_| {
            ran.lock().unwrap().insert(std::thread::current().id());
        });
        let one = Engine::with_workers(1).evaluate_batch(&batch);
        let cores = gbd_stats::pool::cores();
        assert!(ran.lock().unwrap().len() <= cores);
        assert!(gbd_stats::pool::helpers_started() < cores);
        for (a, b) in one.iter().zip(&two) {
            assert_eq!(a.index, b.index);
            assert_eq!(format!("{:?}", a.outcome), format!("{:?}", b.outcome));
        }
    }

    #[test]
    fn schedule_is_a_permutation_with_warm_geometries_first() {
        let engine = Engine::with_workers(1);
        let warm = EvalRequest::new(paper().with_n_sensors(60), BackendSpec::ms_default());
        engine.evaluate(&warm);

        // Mixed batch: cold geometry (different speed), warm geometry,
        // and a non-Ms backend. Warm Ms requests must come first, the
        // non-Ms request last, and every index must appear exactly once.
        let batch = vec![
            EvalRequest::new(
                paper().with_speed(7.0).with_n_sensors(90),
                BackendSpec::ms_default(),
            ),
            EvalRequest::new(paper().with_n_sensors(120), BackendSpec::ms_default()),
            EvalRequest::new(paper().with_n_sensors(60), BackendSpec::Poisson),
        ];
        let order = engine.schedule(&batch);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(order, vec![1, 0, 2]);

        // Scheduling is pure reordering: responses come back in request
        // order with the values the identity schedule would produce.
        let responses = engine.evaluate_batch(&batch);
        for (i, response) in responses.iter().enumerate() {
            assert_eq!(response.index, i);
            let alone = engine.evaluate(&batch[i]);
            assert_eq!(response.outcome, alone.outcome);
        }
    }

    #[test]
    fn eps_is_part_of_the_cache_identity() {
        let engine = Engine::new();
        let exact = EvalRequest::new(
            paper().with_n_sensors(60),
            BackendSpec::Ms(MsOptions::default()),
        );
        let truncated = EvalRequest::new(
            paper().with_n_sensors(60),
            BackendSpec::Ms(MsOptions {
                eps: 1e-6,
                ..MsOptions::default()
            }),
        );
        let a = engine.evaluate(&exact);
        let b = engine.evaluate(&truncated);
        let a = a.outcome.as_ref().unwrap().analysis().unwrap();
        let b = b.outcome.as_ref().unwrap().analysis().unwrap();
        assert_eq!(a.truncation_error(), 0.0);
        assert!(b.truncation_error() > 0.0);
        assert!(b.truncation_error() <= 1e-6 * paper().m_periods() as f64 + 1e-15);
        // A warm pass still returns the eps-specific entry.
        let b2 = engine.evaluate(&truncated);
        assert_eq!(b, b2.outcome.as_ref().unwrap().analysis().unwrap(),);
    }

    #[test]
    fn invalid_eps_is_rejected_even_with_warm_geometry() {
        let engine = Engine::new();
        let params = paper().with_n_sensors(60);
        engine
            .evaluate(&EvalRequest::new(params, BackendSpec::ms_default()))
            .outcome
            .unwrap();
        for bad in [f64::NAN, -0.25, 1.0] {
            let response = engine.evaluate(&EvalRequest::new(
                params,
                BackendSpec::Ms(MsOptions {
                    eps: bad,
                    ..MsOptions::default()
                }),
            ));
            assert!(response.outcome.is_err(), "eps={bad} must be rejected");
        }
    }

    #[test]
    fn all_backends_evaluate_the_paper_point() {
        let small = paper().with_m_periods(4).with_n_sensors(60).with_k(2);
        let backends = [
            BackendSpec::ms_default(),
            BackendSpec::S(SOptions::default()),
            BackendSpec::Exact { saturation_cap: 16 },
            BackendSpec::T {
                opts: MsOptions {
                    g: 2,
                    gh: 2,
                    eps: 0.0,
                },
                max_states: 1_000_000,
            },
            BackendSpec::Poisson,
            BackendSpec::Simulation(SimulationSpec {
                trials: 200,
                threads: 1,
                ..SimulationSpec::default()
            }),
        ];
        let engine = Engine::new();
        let requests: Vec<EvalRequest> = backends
            .iter()
            .map(|&b| EvalRequest::new(small, b))
            .collect();
        for response in engine.evaluate_batch(&requests) {
            let p = response
                .detection_probability()
                .unwrap_or_else(|| panic!("{} failed", response.backend));
            assert!((0.0..=1.0).contains(&p), "{}: {p}", response.backend);
        }
    }

    #[test]
    fn simulation_requests_are_cached_and_deterministic() {
        let engine = Engine::new();
        let request = EvalRequest::new(
            paper().with_n_sensors(60),
            BackendSpec::Simulation(SimulationSpec {
                trials: 300,
                seed: 42,
                threads: 2,
                ..SimulationSpec::default()
            }),
        );
        let a = engine.evaluate(&request);
        let b = engine.evaluate(&request);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(
            b.cache,
            CacheStats {
                hits: 1,
                misses: 0,
                ..CacheStats::default()
            }
        );
        let direct = gbd_sim::runner::run(
            &SimulationSpec {
                trials: 300,
                seed: 42,
                threads: 2,
                ..SimulationSpec::default()
            }
            .to_config(paper().with_n_sensors(60))
            .unwrap(),
        );
        assert_eq!(a.outcome.unwrap().simulation().unwrap(), &direct);
    }

    #[test]
    fn warm_simulation_answers_match_cold_ones_at_any_thread_count() {
        // The result key ignores `threads`, so a threads-4 request is
        // served from the entry a threads-1 request filled.
        let request = |threads| {
            EvalRequest::new(
                paper(),
                BackendSpec::Simulation(SimulationSpec {
                    trials: 1_000,
                    seed: 7,
                    threads,
                    ..SimulationSpec::default()
                }),
            )
        };
        let warm = Engine::new();
        warm.evaluate(&request(1));
        let served = warm.evaluate(&request(4));
        assert_eq!(served.cache.hits, 1);
        let cold = Engine::new().evaluate(&request(4));
        assert_eq!(served.outcome, cold.outcome);
    }

    #[test]
    fn errors_propagate_and_are_not_cached() {
        let engine = Engine::new();
        let bad = EvalRequest::new(
            paper(),
            BackendSpec::Ms(MsOptions {
                g: 0,
                gh: 3,
                eps: 0.0,
            }),
        );
        let response = engine.evaluate(&bad);
        assert!(response.outcome.is_err());
        assert!(response.detection.is_empty());
        assert_eq!(engine.results.len(), 0);
    }

    #[test]
    fn multi_threshold_options() {
        let engine = Engine::new();
        let request = EvalRequest {
            options: EvalOptions {
                k_values: vec![1, 5, 9],
                ..EvalOptions::default()
            },
            ..EvalRequest::new(paper(), BackendSpec::ms_default())
        };
        let response = engine.evaluate(&request);
        let ps: Vec<f64> = response.detection.iter().map(|&(_, p)| p).collect();
        assert_eq!(response.detection.len(), 3);
        assert!(ps[0] >= ps[1] && ps[1] >= ps[2]);
    }

    #[test]
    fn zero_deadline_cancels_with_progress_report() {
        let engine = Engine::new();
        let request = EvalRequest {
            options: EvalOptions {
                deadline: Some(std::time::Duration::ZERO),
                ..EvalOptions::default()
            },
            ..EvalRequest::new(paper(), BackendSpec::ms_default())
        };
        let response = engine.evaluate(&request);
        assert!(matches!(
            response.outcome,
            Err(EvalError::DeadlineExceeded { .. })
        ));
        assert!(!response.degraded);
        assert!(response.detection.is_empty());
        // Errors are never cached: a deadline miss must not poison a later
        // unlimited evaluation of the same point.
        let relaxed = engine.evaluate(&EvalRequest::new(paper(), BackendSpec::ms_default()));
        assert!(relaxed.outcome.is_ok());
    }

    #[test]
    fn generous_deadline_matches_unlimited_bit_for_bit() {
        let engine = Engine::new();
        let unlimited = engine.evaluate(&EvalRequest::new(paper(), BackendSpec::ms_default()));
        engine.clear_caches();
        let request = EvalRequest {
            options: EvalOptions {
                deadline: Some(std::time::Duration::from_secs(3600)),
                ..EvalOptions::default()
            },
            ..EvalRequest::new(paper(), BackendSpec::ms_default())
        };
        let bounded = engine.evaluate(&request);
        assert_eq!(unlimited.outcome, bounded.outcome);
        assert_eq!(unlimited.detection, bounded.detection);
    }

    #[test]
    fn fallback_serves_when_primary_fails() {
        let engine = Engine::new();
        // g = 0 is invalid, so the primary always errors; Poisson answers.
        let chain = BackendSpec::Ms(MsOptions {
            g: 0,
            gh: 3,
            eps: 0.0,
        })
        .with_fallback(BackendSpec::Poisson);
        let response = engine.evaluate(&EvalRequest::new(paper(), chain));
        assert!(response.degraded);
        assert_eq!(response.backend, "ms");
        assert_eq!(response.served_by, "poisson");
        let p = response.detection_probability().unwrap();
        assert!((0.0..=1.0).contains(&p));
        let direct = engine.evaluate(&EvalRequest::new(paper(), BackendSpec::Poisson));
        assert_eq!(response.outcome, direct.outcome);
    }

    #[test]
    fn failed_chain_reports_the_primary_error() {
        let engine = Engine::new();
        let chain = BackendSpec::Ms(MsOptions {
            g: 0,
            gh: 3,
            eps: 0.0,
        })
        .with_fallback(BackendSpec::Ms(MsOptions {
            g: 3,
            gh: 0,
            eps: 0.0,
        }));
        let response = engine.evaluate(&EvalRequest::new(paper(), chain));
        assert!(!response.degraded);
        assert_eq!(response.served_by, "ms");
        match response.outcome {
            Err(EvalError::Core(CoreError::InvalidParameter { name, .. })) => {
                assert_eq!(name, "g/gh");
            }
            other => panic!("expected the primary's error, got {other:?}"),
        }
    }

    #[test]
    fn undegraded_responses_name_their_own_backend() {
        let engine = Engine::new();
        let chain = BackendSpec::ms_default().with_fallback(BackendSpec::Poisson);
        let response = engine.evaluate(&EvalRequest::new(paper(), chain));
        assert!(!response.degraded);
        assert_eq!(response.served_by, "ms");
        assert_eq!(
            response.outcome,
            engine
                .evaluate(&EvalRequest::new(paper(), BackendSpec::ms_default()))
                .outcome
        );
    }

    #[test]
    fn bounded_caches_stay_bit_identical() {
        // A pathologically tiny bound (one entry per shard) forces heavy
        // eviction; every response must still equal the unbounded run.
        let grid = fig9a_grid();
        let unbounded = Engine::with_workers(1).evaluate_batch(&grid);
        let bounded_engine = Engine::with_workers(1).with_cache_capacity(1);
        let bounded = bounded_engine.evaluate_batch(&grid);
        // Two passes so evicted entries are recomputed on the warm pass.
        let rewarmed = bounded_engine.evaluate_batch(&grid);
        for ((u, b), r) in unbounded.iter().zip(&bounded).zip(&rewarmed) {
            assert_eq!(u.outcome, b.outcome);
            assert_eq!(u.outcome, r.outcome);
            assert_eq!(u.detection, b.detection);
        }
        let stats = bounded_engine.cache_stats();
        assert!(stats.evictions > 0, "{stats:?}");
    }

    #[test]
    fn evaluate_batch_with_streams_every_response_once() {
        use std::sync::Mutex;
        let engine = Engine::with_workers(2);
        let grid = fig9a_grid();
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let responses = engine.evaluate_batch_with(&grid, |r| {
            seen.lock().unwrap().push(r.index);
        });
        let mut indices = seen.into_inner().unwrap();
        indices.sort_unstable();
        assert_eq!(indices, (0..grid.len()).collect::<Vec<_>>());
        // The returned vector is the same as the plain batch API's.
        let direct = Engine::with_workers(2).evaluate_batch(&grid);
        for (a, b) in responses.iter().zip(&direct) {
            assert_eq!(a.outcome, b.outcome);
        }
    }

    fn temp_store(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gbd-engine-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn store_warm_start_is_bit_identical_with_zero_misses() {
        let path = temp_store("warm.gbdstore");
        let grid = fig9a_grid();
        let cold_engine = Engine::with_workers(2).with_store(&path).unwrap();
        let cold = cold_engine.evaluate_batch(&grid);
        let cold_stats = cold_engine.cache_stats();
        assert!(cold_stats.store_spills > 0, "{cold_stats:?}");
        assert_eq!(cold_stats.store_loads, 0);
        assert_eq!(cold_engine.store_spill_errors(), 0);
        cold_engine.sync_store().unwrap().unwrap();
        drop(cold_engine);

        let warm_engine = Engine::with_workers(2).with_store(&path).unwrap();
        let stats = warm_engine.cache_stats();
        assert!(stats.store_loads > 0, "{stats:?}");
        let warm = warm_engine.evaluate_batch(&grid);
        let mut hits = 0;
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.outcome, w.outcome);
            assert_eq!(c.detection, w.detection);
            assert_eq!(w.cache.misses, 0, "store-warmed request recomputed");
            hits += w.cache.hits;
        }
        // Every request answered straight from the seeded result layer.
        assert_eq!(hits, grid.len() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn store_round_trips_simulation_results() {
        let path = temp_store("sim.gbdstore");
        let request = EvalRequest::new(
            paper().with_n_sensors(60),
            BackendSpec::Simulation(SimulationSpec {
                trials: 200,
                seed: 11,
                threads: 1,
                ..SimulationSpec::default()
            }),
        );
        let cold = Engine::new().with_store(&path).unwrap();
        let a = cold.evaluate(&request);
        cold.sync_store().unwrap().unwrap();
        drop(cold);
        let warm = Engine::new().with_store(&path).unwrap();
        let b = warm.evaluate(&request);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(
            b.cache.hits, 1,
            "simulation must be served from the seeded result layer"
        );
        assert_eq!(b.cache.misses, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn evicted_entries_reload_from_store_bit_identically() {
        // Pathologically tiny cache bound: most entries are evicted right
        // after they are computed. Every computed entry was spilled first,
        // so a fresh engine over the same store serves the whole grid from
        // the seeded result layer, bit-identically.
        let path = temp_store("evict.gbdstore");
        let grid = fig9a_grid();
        let bounded = Engine::with_workers(1)
            .with_cache_capacity(1)
            .with_store(&path)
            .unwrap();
        let cold = bounded.evaluate_batch(&grid);
        assert!(bounded.cache_stats().evictions > 0);
        bounded.sync_store().unwrap().unwrap();
        drop(bounded);

        let reloaded = Engine::with_workers(1).with_store(&path).unwrap();
        let warm = reloaded.evaluate_batch(&grid);
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.outcome, w.outcome);
            assert_eq!(c.detection, w.detection);
            assert_eq!(w.cache.misses, 0, "evicted entry was not reloaded");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_store_compacts_and_preserves_warm_start() {
        let path = temp_store("snap.gbdstore");
        let grid = fig9a_grid();
        let engine = Engine::with_workers(1)
            .with_cache_capacity(1)
            .with_store(&path)
            .unwrap();
        // Two passes over a bounded cache: evictions force recomputation,
        // recomputation re-spills, so the log holds duplicates.
        let cold = engine.evaluate_batch(&grid);
        engine.evaluate_batch(&grid);
        let report = engine.snapshot_store().unwrap().unwrap();
        assert!(report.records_dropped > 0, "{report:?}");
        assert!(report.bytes_after < report.bytes_before);
        assert_eq!(engine.store_stats().unwrap().compactions, 1);
        drop(engine);

        let warm = Engine::with_workers(1).with_store(&path).unwrap();
        assert_eq!(warm.store_stats().unwrap().torn_bytes_discarded, 0);
        for (c, w) in cold.iter().zip(&warm.evaluate_batch(&grid)) {
            assert_eq!(c.outcome, w.outcome);
            assert_eq!(w.cache.misses, 0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replicated_records_warm_a_standby_bit_identically() {
        let primary_path = temp_store("repl-primary.gbdstore");
        let standby_path = temp_store("repl-standby.gbdstore");
        let grid = fig9a_grid();
        let primary = Engine::with_workers(1).with_store(&primary_path).unwrap();
        let cold = primary.evaluate_batch(&grid);
        // Hand every record the primary persisted to a standby engine,
        // exactly as the serve layer's replica listener does.
        let standby = Engine::with_workers(1).with_store(&standby_path).unwrap();
        primary
            .store_handle()
            .unwrap()
            .for_each(|kind, key, value| {
                assert!(standby.apply_replicated_record(kind, key, value));
            });
        assert!(standby.cache_stats().store_loads > 0);
        let warm = standby.evaluate_batch(&grid);
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.outcome, w.outcome);
            assert_eq!(c.detection, w.detection);
            assert_eq!(w.cache.misses, 0, "standby recomputed a replicated entry");
        }
        // The standby re-persisted what it applied: a restart over its own
        // store warm-starts without the primary.
        standby.sync_store().unwrap().unwrap();
        drop(standby);
        let restarted = Engine::with_workers(1).with_store(&standby_path).unwrap();
        assert!(restarted.cache_stats().store_loads > 0);
        // Undecodable records are rejected, not applied.
        assert!(!restarted.apply_replicated_record(9, b"junk", b"junk"));
        assert!(!restarted.apply_replicated_record(persist::KIND_RESULT, b"short", b""));
        std::fs::remove_file(&primary_path).unwrap();
        std::fs::remove_file(&standby_path).unwrap();
    }

    #[test]
    fn routing_keys_follow_result_cache_identity() {
        let a = EvalRequest::new(paper().with_n_sensors(60), BackendSpec::ms_default());
        let same = EvalRequest::new(paper().with_n_sensors(60), BackendSpec::ms_default());
        let other_n = EvalRequest::new(paper().with_n_sensors(90), BackendSpec::ms_default());
        let other_backend = EvalRequest::new(paper().with_n_sensors(60), BackendSpec::Poisson);
        assert_eq!(Engine::routing_key(&a), Engine::routing_key(&same));
        assert_ne!(Engine::routing_key(&a), Engine::routing_key(&other_n));
        assert_ne!(Engine::routing_key(&a), Engine::routing_key(&other_backend));
    }

    #[test]
    fn errors_are_never_spilled() {
        let path = temp_store("errors.gbdstore");
        let engine = Engine::new().with_store(&path).unwrap();
        let bad = EvalRequest::new(
            paper(),
            BackendSpec::Ms(MsOptions {
                g: 0,
                gh: 3,
                eps: 0.0,
            }),
        );
        assert!(engine.evaluate(&bad).outcome.is_err());
        assert_eq!(engine.store_stats().unwrap().appended_records, 0);
        assert_eq!(engine.cache_stats().store_spills, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn clear_caches_resets() {
        let engine = Engine::new();
        engine.evaluate(&EvalRequest::new(paper(), BackendSpec::ms_default()));
        assert!(engine.cache_stats().lookups() > 0);
        engine.clear_caches();
        assert_eq!(engine.cache_stats(), CacheStats::default());
        for (_, stats) in engine.layer_stats() {
            assert_eq!(stats, CacheStats::default());
        }
    }
}
