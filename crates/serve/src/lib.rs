//! `gbd-serve` — the network serving layer of the group-based-detection
//! stack: a std-only, thread-per-connection TCP server speaking a
//! JSON-lines protocol that maps 1:1 onto
//! [`gbd_engine`]'s [`EvalRequest`](gbd_engine::EvalRequest) /
//! [`EvalResponse`](gbd_engine::EvalResponse) pair.
//!
//! The paper's deployment story is detection-as-a-service: a base station
//! answering `P_M[X ≥ k]` queries for many operating points. This crate
//! is that base station. Its center is the micro-batching
//! [`Coalescer`]: requests from all connections are queued centrally and
//! flushed to [`Engine::evaluate_batch`](gbd_engine::Engine::evaluate_batch)
//! together, so the engine's worker pool and warm caches amortize across
//! concurrent small callers. Around it: admission control with explicit
//! load shedding, per-connection limits and backpressure, a `metrics`
//! introspection verb, and graceful drain on shutdown or SIGTERM/ctrl-c.
//!
//! The wire protocol is documented in `docs/SERVING.md`.
//!
//! ```no_run
//! use gbd_engine::Engine;
//! use gbd_serve::{ServeConfig, Server};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(Engine::new());
//! let server = Server::bind(ServeConfig::default(), engine)?;
//! println!("listening on {}", server.local_addr());
//! server.run()?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod coalescer;
pub mod conn;
pub mod json;
pub mod metrics;
pub mod protocol;
mod replica;
pub mod server;
pub mod signals;
mod stream_session;

pub use coalescer::{Coalescer, CoalescerConfig, SubmitError};
pub use json::{Json, JsonError};
pub use metrics::{
    render_window, ClusterSnapshot, MetricsSnapshot, ServerMetrics, StoreSnapshot,
    StreamSnapshot, BACKENDS, METRICS_SCHEMA_VERSION, VERBS,
};
pub use protocol::{Envelope, ErrorCode, Section, StreamOpenSpec, Verb, WireError};
pub use server::{ServeConfig, Server, ServerHandle};
