//! Truncation-accuracy equations and required-cap solvers (Figure 8).
//!
//! Eq (5): `η_S = Σ_{i≤G} C(N,i)(A_R/S)^i(1−A_R/S)^{N−i}` over the ARegion;
//! Eq (7): `ξ_h` with the Head NEDR area `2·Rs·V·t + π·Rs²`;
//! Eq (9): `ξ` with the Body/Tail NEDR area `2·Rs·V·t`;
//! Eq (14): `η_MS = ξ_h · ξ^{M−1}`.
//!
//! Given a user accuracy requirement `η_R`, the paper sets the per-stage
//! requirement `ξ ≥ η_R^{1/M}` (taking `ξ_h = ξ` for simplicity) and solves
//! for the smallest caps; [`required_caps`] reproduces exactly that
//! procedure, which generates Figure 8.

use crate::params::SystemParams;
use crate::report_dist::{stage_accuracy, stage_accuracy_with};
use gbd_stats::binomial::PmfTable;

/// The required truncation caps for a target analysis accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequiredCaps {
    /// Body/Tail-stage cap `g` of the M-S-approach.
    pub g: usize,
    /// Head-stage cap `gh` of the M-S-approach.
    pub gh: usize,
    /// ARegion cap `G` of the S-approach.
    pub g_s_approach: usize,
}

/// Smallest cap `c` such that the stage accuracy over a region of the given
/// area reaches `target`.
///
/// # Panics
///
/// Panics if `target` is not in `(0, 1]`.
pub fn required_cap(region_area: f64, field_area: f64, n_sensors: usize, target: f64) -> usize {
    assert!(
        target > 0.0 && target <= 1.0,
        "target accuracy must be in (0, 1]"
    );
    // One pmf-table fill serves the whole cap scan; each per-cap query is
    // bit-identical to the seed's per-call `stage_accuracy` (which
    // re-evaluated the full placement pmf tail for every candidate cap —
    // the O(N²) behaviour that dominated the Figure 8 sweep).
    let mut table = PmfTable::new();
    (0..=n_sensors)
        .find(|&c| {
            stage_accuracy_with(region_area, field_area, n_sensors, c, &mut table) >= target
        })
        .unwrap_or(n_sensors)
}

/// Solves for the Figure 8 quantities: `g` and `gh` such that
/// `ξ ≥ η_R^{1/M}` per stage, and `G` such that `η_S ≥ η_R`.
///
/// # Panics
///
/// Panics if `eta_r` is not in `(0, 1]`.
///
/// # Example
///
/// ```
/// use gbd_core::accuracy::required_caps;
/// use gbd_core::params::SystemParams;
///
/// // Figure 8 at N = 240: tiny caps for the M-S-approach, a large one
/// // for the S-approach.
/// let caps = required_caps(&SystemParams::paper_defaults(), 0.99);
/// assert!(caps.g <= 4 && caps.gh <= 7);
/// assert!(caps.g_s_approach >= 10);
/// ```
pub fn required_caps(params: &SystemParams, eta_r: f64) -> RequiredCaps {
    assert!(eta_r > 0.0 && eta_r <= 1.0, "eta_r must be in (0, 1]");
    let per_stage = eta_r.powf(1.0 / params.m_periods() as f64);
    let s = params.field_area();
    let n = params.n_sensors();
    let body_area = 2.0 * params.sensing_range() * params.step();
    RequiredCaps {
        g: required_cap(body_area, s, n, per_stage),
        gh: required_cap(params.dr_area(), s, n, per_stage),
        g_s_approach: required_cap(params.aregion_area(), s, n, eta_r),
    }
}

/// The Eq (14) accuracy of an M-S run with explicit caps,
/// `η_MS = ξ_h · ξ^{M−1}`.
pub fn predicted_accuracy_ms(params: &SystemParams, g: usize, gh: usize) -> f64 {
    let s = params.field_area();
    let n = params.n_sensors();
    let xi_h = stage_accuracy(params.dr_area(), s, n, gh);
    let xi = stage_accuracy(2.0 * params.sensing_range() * params.step(), s, n, g);
    xi_h * xi.powi(params.m_periods() as i32 - 1)
}

/// The Eq (5) accuracy of an S-approach run with cap `g_s`.
pub fn predicted_accuracy_s(params: &SystemParams, g_s: usize) -> f64 {
    stage_accuracy(
        params.aregion_area(),
        params.field_area(),
        params.n_sensors(),
        g_s,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> SystemParams {
        SystemParams::paper_defaults()
    }

    #[test]
    fn figure8_shape_g_much_smaller_than_big_g() {
        // Figure 8: across N = 60..260, G is significantly greater than
        // both g and gh, and gh >= g.
        for n in (60..=260).step_by(40) {
            let caps = required_caps(&paper().with_n_sensors(n), 0.99);
            assert!(caps.g_s_approach > caps.gh, "n={n}: {caps:?}");
            assert!(caps.gh >= caps.g, "n={n}: {caps:?}");
        }
    }

    #[test]
    fn figure8_caps_grow_with_n() {
        let lo = required_caps(&paper().with_n_sensors(60), 0.99);
        let hi = required_caps(&paper().with_n_sensors(260), 0.99);
        assert!(hi.g_s_approach > lo.g_s_approach);
        assert!(hi.g >= lo.g);
        assert!(hi.gh >= lo.gh);
    }

    #[test]
    fn figure8_magnitudes_match_paper() {
        // At the paper's settings the figure shows g, gh in the low single
        // digits and G around 8–13.
        let caps = required_caps(&paper().with_n_sensors(240), 0.99);
        assert!(caps.g <= 4, "{caps:?}");
        assert!(caps.gh <= 7, "{caps:?}");
        assert!((6..=16).contains(&caps.g_s_approach), "{caps:?}");
    }

    #[test]
    fn required_cap_achieves_target() {
        let p = paper();
        let target = 0.995;
        let c = required_cap(p.dr_area(), p.field_area(), p.n_sensors(), target);
        assert!(stage_accuracy(p.dr_area(), p.field_area(), p.n_sensors(), c) >= target);
        if c > 0 {
            assert!(stage_accuracy(p.dr_area(), p.field_area(), p.n_sensors(), c - 1) < target);
        }
    }

    #[test]
    fn predicted_accuracy_ms_meets_requirement_with_required_caps() {
        let p = paper();
        let caps = required_caps(&p, 0.99);
        assert!(predicted_accuracy_ms(&p, caps.g, caps.gh) >= 0.99 - 1e-12);
        assert!(predicted_accuracy_s(&p, caps.g_s_approach) >= 0.99 - 1e-12);
    }

    #[test]
    fn trivial_target_needs_no_sensors() {
        let p = paper();
        assert_eq!(required_cap(p.dr_area(), p.field_area(), 240, 1e-9), 0);
    }

    #[test]
    #[should_panic(expected = "eta_r")]
    fn bad_target_panics() {
        required_caps(&paper(), 0.0);
    }
}
