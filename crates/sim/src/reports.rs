//! Detection reports, defined next to the group filter in `gbd-stream`.

pub use gbd_stream::{DetectionReport, ReportKind};
