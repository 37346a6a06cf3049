#![warn(missing_docs)]
//! Numerics substrate for the `sparse-groupdet` workspace.
//!
//! This crate provides the probability and statistics building blocks used by
//! the analytical models and the Monte Carlo simulator:
//!
//! * [`gamma`] — log-gamma, log-factorial and log-binomial-coefficient
//!   special functions, needed to evaluate binomial probabilities with
//!   hundreds of trials without overflow;
//! * [`binomial`] — the [`binomial::Binomial`] distribution with numerically
//!   stable pmf/cdf/survival evaluation;
//! * [`poisson`] — the [`poisson::Poisson`] distribution, used by the
//!   density-approximation ablations;
//! * [`discrete`] — [`discrete::DiscreteDist`], a dense finitely-supported
//!   distribution over `0..=n` with convolution, saturating convolution and
//!   tail operations: the workhorse of the M-S-approach;
//! * [`interval`] — Wilson-score and normal-approximation confidence
//!   intervals for the simulated detection probabilities;
//! * [`summary`] — Welford online moments and fixed-width histograms;
//! * [`rng`] — deterministic seed derivation and ChaCha-based RNG streams so
//!   every experiment in the repository is reproducible.
//!
//! # Example
//!
//! ```
//! use gbd_stats::binomial::Binomial;
//!
//! # fn main() -> Result<(), gbd_stats::StatsError> {
//! // Probability of at least 5 detection reports out of 240 sensors when
//! // each sensor reports with probability 0.02 (the paper's M = 1 case).
//! let b = Binomial::new(240, 0.02)?;
//! let p = b.sf(4); // P[X >= 5]
//! assert!(p > 0.0 && p < 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! [`pool`] is the workspace's one fan-out: independent items over a
//! process-wide pool of parked threads, shared by the engine's batches and
//! the simulator's trials. With per-item [`rng`] streams, its results do
//! not depend on the thread count.

pub mod binomial;
pub mod chisq;
pub mod discrete;
pub mod gamma;
pub mod interval;
pub mod poisson;
pub mod pool;
pub mod rng;
pub mod summary;

mod error;

pub use error::StatsError;
