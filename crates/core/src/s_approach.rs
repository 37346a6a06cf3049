//! The Spatial approach (S-approach) — paper §3.3.
//!
//! The whole Aggregate Region is treated as a single stage, partitioned
//! into `Region(i)` subareas by coverage count, and the report distribution
//! is computed considering at most `G` sensors inside the ARegion.
//!
//! The paper evaluates this with Algorithm 1, whose runtime explodes
//! exponentially in `G` ("we need to wait at least many days to get the
//! results"); [`analyze_enumeration`] preserves that computational behavior
//! for the §3.4.5 runtime-comparison experiments, while [`analyze`] uses
//! the factorized convolution path so the S-approach *result* can also be
//! obtained quickly for validation.

use crate::budget::ComputeBudget;
use crate::ms_approach::AnalysisResult;
use crate::params::SystemParams;
use crate::report_dist::{
    stage_accuracy, stage_distribution, stage_distribution_enumeration_budgeted,
};
use crate::CoreError;
use gbd_geometry::subarea::SubareaTable;

/// Truncation option of the S-approach: the sensor cap `G` over the whole
/// Aggregate Region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SOptions {
    /// Maximum number of sensors considered inside the ARegion (`G`).
    pub cap_sensors: usize,
}

impl Default for SOptions {
    /// `G = 6`, the order of magnitude §3.3 calls computationally
    /// infeasible for Algorithm 1 (fine for the convolution path).
    fn default() -> Self {
        SOptions { cap_sensors: 6 }
    }
}

/// The `Region(i)` sizes of the whole Aggregate Region for a constant-speed
/// target (aggregating head, body and tail contributions).
pub fn region_sizes(params: &SystemParams) -> Vec<f64> {
    let table =
        SubareaTable::constant_speed(params.sensing_range(), params.step(), params.m_periods());
    table.region_sizes()
}

/// Runs the S-approach via the fast factorized path.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `cap_sensors == 0`.
pub fn analyze(params: &SystemParams, opts: &SOptions) -> Result<AnalysisResult, CoreError> {
    let regions = region_sizes(params);
    run(params, opts, &regions, stage_distribution)
}

/// Runs the S-approach via the paper-faithful Algorithm 1 enumeration.
///
/// Runtime is exponential in `cap_sensors`; with the paper's parameters it
/// becomes impractical beyond `G ≈ 5`, which is precisely the phenomenon
/// the M-S-approach was invented to avoid. Use for fidelity tests and the
/// runtime experiments only.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `cap_sensors == 0`.
pub fn analyze_enumeration(
    params: &SystemParams,
    opts: &SOptions,
) -> Result<AnalysisResult, CoreError> {
    analyze_enumeration_budgeted(params, opts, &ComputeBudget::unlimited())
}

/// [`analyze_enumeration`] under a cooperative [`ComputeBudget`]: the
/// Algorithm 1 recursion checkpoints every few thousand enumeration
/// leaves, so a `G` chosen too ambitiously is cancelled with
/// [`CoreError::DeadlineExceeded`] instead of running "at least many days"
/// (§3.3). A run that completes is bit-identical to the unbudgeted one.
///
/// # Errors
///
/// Everything [`analyze_enumeration`] rejects, plus
/// [`CoreError::DeadlineExceeded`] when the budget's deadline trips.
pub fn analyze_enumeration_budgeted(
    params: &SystemParams,
    opts: &SOptions,
    budget: &ComputeBudget,
) -> Result<AnalysisResult, CoreError> {
    if opts.cap_sensors == 0 {
        return Err(CoreError::InvalidParameter {
            name: "cap_sensors",
            constraint: "must be at least 1",
        });
    }
    let regions = region_sizes(params);
    let dist = stage_distribution_enumeration_budgeted(
        &regions,
        params.field_area(),
        params.n_sensors(),
        params.pd(),
        opts.cap_sensors,
        budget,
    )?;
    Ok(AnalysisResult::new(dist, eta_s(params, &regions, opts)))
}

fn run(
    params: &SystemParams,
    opts: &SOptions,
    regions: &[f64],
    stage: fn(&[f64], f64, usize, f64, usize) -> gbd_stats::discrete::DiscreteDist,
) -> Result<AnalysisResult, CoreError> {
    if opts.cap_sensors == 0 {
        return Err(CoreError::InvalidParameter {
            name: "cap_sensors",
            constraint: "must be at least 1",
        });
    }
    let dist = stage(
        regions,
        params.field_area(),
        params.n_sensors(),
        params.pd(),
        opts.cap_sensors,
    );
    Ok(AnalysisResult::new(dist, eta_s(params, regions, opts)))
}

/// The S-approach accuracy bound `η_S` over the whole Aggregate Region.
fn eta_s(params: &SystemParams, regions: &[f64], opts: &SOptions) -> f64 {
    stage_accuracy(
        regions.iter().sum(),
        params.field_area(),
        params.n_sensors(),
        opts.cap_sensors,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ms_approach::{self, MsOptions};

    fn paper() -> SystemParams {
        SystemParams::paper_defaults()
    }

    #[test]
    fn region_sizes_partition_aregion() {
        let p = paper();
        let total: f64 = region_sizes(&p).iter().sum();
        assert!((total - p.aregion_area()).abs() < 1e-4);
    }

    #[test]
    fn s_approach_mass_is_eta_s() {
        let p = paper();
        let opts = SOptions { cap_sensors: 8 };
        let r = analyze(&p, &opts).unwrap();
        let eta = stage_accuracy(p.aregion_area(), p.field_area(), p.n_sensors(), 8);
        assert!((r.retained_mass() - eta).abs() < 1e-9);
        assert!((r.predicted_accuracy() - eta).abs() < 1e-12);
    }

    #[test]
    fn enumeration_matches_convolution_for_tiny_cap() {
        // Keep cap tiny: the enumeration path is exponential by design.
        let p = paper().with_n_sensors(60);
        let fast = analyze(&p, &SOptions { cap_sensors: 2 }).unwrap();
        let slow = analyze_enumeration(&p, &SOptions { cap_sensors: 2 }).unwrap();
        assert!(
            fast.raw_distribution()
                .max_abs_diff(slow.raw_distribution())
                < 1e-11
        );
    }

    #[test]
    fn s_and_ms_agree_when_truncation_is_mild() {
        // With generous caps both approaches approximate the same exact
        // distribution, so their normalized tails agree closely.
        let p = paper();
        let s = analyze(&p, &SOptions { cap_sensors: 24 }).unwrap();
        let ms = ms_approach::analyze(
            &p,
            &MsOptions {
                g: 8,
                gh: 8,
                eps: 0.0,
            },
        )
        .unwrap();
        let ds = s.detection_probability(5);
        let dms = ms.detection_probability(5);
        assert!((ds - dms).abs() < 2e-3, "S={ds} MS={dms}");
    }

    #[test]
    fn s_approach_needs_larger_cap_than_ms_for_same_accuracy() {
        // The crux of §3.4: the ARegion is much larger than any NEDR, so G
        // must exceed g for the same ξ.
        let p = paper();
        let target = 0.99f64;
        let mut g_needed = 0;
        while stage_accuracy(
            2.0 * p.sensing_range() * p.step(),
            p.field_area(),
            p.n_sensors(),
            g_needed,
        ) < target.powf(1.0 / p.m_periods() as f64)
        {
            g_needed += 1;
        }
        let mut cap_needed = 0;
        while stage_accuracy(p.aregion_area(), p.field_area(), p.n_sensors(), cap_needed)
            < target
        {
            cap_needed += 1;
        }
        assert!(cap_needed > g_needed, "G={cap_needed} g={g_needed}");
    }

    #[test]
    fn rejects_zero_cap() {
        assert!(analyze(&paper(), &SOptions { cap_sensors: 0 }).is_err());
        assert!(analyze_enumeration_budgeted(
            &paper(),
            &SOptions { cap_sensors: 0 },
            &ComputeBudget::unlimited()
        )
        .is_err());
    }

    #[test]
    fn budgeted_enumeration_cancels_an_expensive_cap() {
        use std::time::Duration;
        // G = 6 on the paper point is exactly the "many days" regime §3.3
        // warns about; a zero deadline must cancel it within the first
        // checkpoint interval instead of hanging the test suite.
        let expired = analyze_enumeration_budgeted(
            &paper(),
            &SOptions { cap_sensors: 6 },
            &ComputeBudget::with_deadline(Duration::ZERO),
        );
        assert!(matches!(
            expired,
            Err(crate::CoreError::DeadlineExceeded { .. })
        ));
    }
}
