#![warn(missing_docs)]
//! Analytical models of **group based detection in sparse sensor networks**
//! — the primary contribution of Zhang, Zhou, Son, Stankovic & Whitehouse,
//! *Performance Analysis of Group Based Detection for Sparse Sensor
//! Networks*, ICDCS 2008.
//!
//! A sparse sensor network declares a target detected when at least `k`
//! node-level detection reports arrive within `M` sensing periods that are
//! consistent with a target track. This crate computes the probability of
//! that event for a target crossing the field, without simulation:
//!
//! * [`single_period`] — the `M = 1` preliminary case (Eqs (1)–(2));
//! * [`ms_approach`] — the paper's headline **Markov chain based Spatial
//!   approach**: per-period NEDR report distributions assembled by a
//!   counting Markov chain (Head/Body/Tail stages, Eqs (6)–(13));
//! * [`s_approach`] — the Spatial approach over the whole Aggregate Region,
//!   including the paper-faithful exponential placement enumeration
//!   (Algorithm 1) used by the runtime comparison experiments;
//! * [`exact`] — an exact reference model (no sensor-count truncation),
//!   the `G → N` limit of the S-approach, used to quantify truncation
//!   error;
//! * [`accuracy`] — the truncation-accuracy equations (Eqs (5), (7), (9),
//!   (14)) and the required-`g`/`gh`/`G` solvers behind Figure 8;
//! * [`extension_h`] — the §4 extension: "at least `k` reports from at
//!   least `h` distinct nodes";
//! * [`varying_speed`] — the §6 future-work extension: per-period varying
//!   target speed;
//! * [`t_approach`] — the §3.2 Temporal approach the paper rejects,
//!   implemented exactly so the state explosion can be measured (its
//!   result provably equals the M-S-approach's);
//! * [`poisson_model`] — the Poisson-field variant of the analysis, under
//!   which the chain's independence assumption is exact;
//! * [`time_to_detection`] — first-passage analysis: `P[detected by
//!   period m]` and the conditional mean detection time;
//! * [`false_alarm`] — the §6 future-work "exact lower bound of `k`"
//!   under an independent node-level false-alarm model;
//! * [`design`] — the model inverted into design questions: sensors /
//!   sensing range needed for a target probability, patrol area a fleet
//!   can sustain.
//!
//! # Quickstart
//!
//! ```
//! use gbd_core::params::SystemParams;
//! use gbd_core::ms_approach::{self, MsOptions};
//!
//! # fn main() -> Result<(), gbd_core::CoreError> {
//! // The paper's evaluation settings at N = 240, V = 10 m/s.
//! let params = SystemParams::paper_defaults().with_n_sensors(240).with_speed(10.0);
//! let result = ms_approach::analyze(&params, &MsOptions::default())?;
//! let p = result.detection_probability(params.k());
//! assert!(p > 0.9 && p <= 1.0); // Figure 9(a): ~0.97 at this point
//! # Ok(())
//! # }
//! ```
//!
//! The flat kernels behind [`ms_approach`] are pinned bit for bit to the
//! seed's nested, allocating implementation, which is kept as test code
//! (`tests/baseline`) rather than shipped.

pub mod accuracy;
pub mod budget;
pub mod design;
pub mod exact;
pub mod extension_h;
pub mod false_alarm;
pub mod model;
pub mod ms_approach;
pub mod params;
pub mod poisson_model;
pub mod report_dist;
pub mod s_approach;
pub mod single_period;
pub mod t_approach;
pub mod time_to_detection;
pub mod varying_speed;

mod error;

#[cfg(test)]
#[path = "../tests/baseline/mod.rs"]
mod baseline;

pub use budget::ComputeBudget;
pub use error::CoreError;
pub use model::{DetectionModel, ReportDistribution};
pub use ms_approach::AnalysisResult;
pub use params::SystemParams;

/// The names almost every consumer of this crate needs:
/// `use gbd_core::prelude::*;`.
pub mod prelude {
    pub use crate::error::CoreError;
    pub use crate::model::{DetectionModel, ReportDistribution};
    pub use crate::ms_approach::MsOptions;
    pub use crate::params::SystemParams;
}
