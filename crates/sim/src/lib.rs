#![warn(missing_docs)]
//! Monte Carlo validation simulator for group based detection.
//!
//! A Rust reimplementation of the Matlab simulator the paper used to
//! validate its analytical model (§4): every trial randomly deploys `N`
//! sensors, draws a random target track, computes which sensors cover the
//! target in each sensing period, flips a `Pd` coin per covered
//! sensor-period, and declares system-level detection when at least `k`
//! reports accumulate within `M` periods.
//!
//! Beyond the paper's simulator it adds:
//!
//! * seeded, parallel execution with per-trial random streams (results are
//!   a pure function of the master seed, independent of thread count);
//! * [`config::BoundaryPolicy`]-controlled border handling (torus matches
//!   the analysis; bounded quantifies the border effect);
//! * node-level false-alarm injection and the per-trial [`group_filter`]
//!   decision, which steps each trial's reports through `gbd_stream`'s
//!   velocity-feasibility detector up to the first detection — the
//!   concrete group-detection algorithm the paper abstracts, shared with
//!   the streaming sessions;
//! * a communication-deadline check ([`comm_check`]) wired to the
//!   `gbd-net` substrate;
//! * constant-velocity [`tracking`] estimation from report positions, with
//!   quality metrics against the ground-truth trajectory (what the
//!   deployed systems the paper cites do after detection);
//! * [`energy`] accounting: the detection-vs-lifetime frontier of
//!   duty-cycled sensing (the §5 related-work trade-off, computed with
//!   this paper's model);
//! * deterministic fault injection ([`faults`]): seeded per-trial node
//!   failures and dropped reports that quantify how gracefully group
//!   based detection degrades on an imperfect network;
//! * [`exposure`]-dependent sensing: the paper's footnote-1 future work,
//!   where `Pd` depends on how far the target travels through the disk.
//!
//! # Example
//!
//! ```
//! use gbd_sim::config::SimConfig;
//! use gbd_sim::runner::run;
//! use gbd_core::params::SystemParams;
//!
//! let params = SystemParams::paper_defaults().with_n_sensors(120);
//! let config = SimConfig::new(params).with_trials(200).with_seed(7);
//! let result = run(&config);
//! assert_eq!(result.trials, 200);
//! assert!(result.detection_probability > 0.0 && result.detection_probability < 1.0);
//! ```

pub mod comm_check;
pub mod config;
pub mod energy;
pub mod engine;
pub mod exposure;
pub mod false_alarm;
pub mod faults;
pub mod group_filter;
pub mod render;
pub mod reports;
pub mod runner;
pub mod tracking;

#[cfg(test)]
#[path = "../tests/nested_grid_oracle/mod.rs"]
mod nested_grid_oracle;
