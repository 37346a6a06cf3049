//! Seed-faithful baselines for the hot analytical path, kept as the test
//! oracle for the flat kernels.
//!
//! These functions preserve the algorithm shape the repository had before
//! the flat-kernel rewrite: uncached `ln n!` evaluation, a fresh
//! allocation per convolution, per-stage recomputation (no stage dedup),
//! and the allocating counting-chain step. The optimized path promises to
//! be *bit-identical* to this one for `eps = 0`; the property tests at the
//! bottom of this module (and the unit tests across `gbd-stats` /
//! `gbd-markov`) pin that promise down against randomized
//! [`SystemParams`].
//!
//! Included by `src/lib.rs` as a `#[cfg(test)]` module, because results
//! are built through the crate-private `AnalysisResult::new`. Nothing here
//! is compiled into the library; the engine, server, and CLI all use
//! [`crate::ms_approach`].

use crate::budget::ComputeBudget;
use crate::ms_approach::{AnalysisResult, MsOptions, StageInput};
use crate::params::SystemParams;
use crate::CoreError;
use gbd_markov::counting::CountingChain;
use gbd_stats::discrete::DiscreteDist;
use gbd_stats::gamma::ln_factorial_uncached;

/// `ln C(n, k)` evaluated without the memo table — the arithmetic is the
/// expression [`gbd_stats::gamma::ln_binomial_coef`] memoizes, so the two
/// agree bit for bit.
fn ln_binomial_coef_uncached(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial_uncached(n) - ln_factorial_uncached(k) - ln_factorial_uncached(n - k)
}

/// `Binomial::pmf` with uncached log-factorials: same branch structure,
/// same log-domain expression.
fn pmf_uncached(n: u64, p: f64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln_pmf =
        ln_binomial_coef_uncached(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
    ln_pmf.exp()
}

/// `Binomial::cdf` with uncached pmf terms: smaller-tail branch and
/// ascending summation order preserved.
fn cdf_uncached(n: u64, p: f64, k: u64) -> f64 {
    if k >= n {
        return 1.0;
    }
    let mean = n as f64 * p;
    if (k as f64) < mean {
        (0..=k).map(|i| pmf_uncached(n, p, i)).sum::<f64>().min(1.0)
    } else {
        let sf = ((k + 1)..=n)
            .map(|i| pmf_uncached(n, p, i))
            .sum::<f64>()
            .min(1.0);
        (1.0 - sf).clamp(0.0, 1.0)
    }
}

/// Seed [`stage_accuracy`](crate::report_dist::stage_accuracy): the full
/// placement tail is re-summed per call, term by term.
pub fn stage_accuracy_baseline(
    region_area: f64,
    field_area: f64,
    n_sensors: usize,
    cap_sensors: usize,
) -> f64 {
    assert!(field_area > 0.0, "field area must be positive");
    assert!(
        (0.0..=field_area).contains(&region_area),
        "region area must lie in [0, field area]"
    );
    cdf_uncached(
        n_sensors as u64,
        region_area / field_area,
        cap_sensors as u64,
    )
}

/// Seed [`per_sensor_distribution`](crate::report_dist::per_sensor_distribution)
/// with uncached pmf terms.
fn per_sensor_distribution_baseline(areas: &[f64], pd: f64) -> DiscreteDist {
    assert!((0.0..=1.0).contains(&pd), "pd must be in [0, 1]");
    assert!(
        areas.iter().all(|&a| a >= 0.0 && a.is_finite()),
        "areas must be non-negative"
    );
    let total: f64 = areas.iter().sum();
    if total <= 0.0 {
        return DiscreteDist::point_mass(0);
    }
    let max_cov = areas.len();
    let mut pmf = vec![0.0; max_cov + 1];
    for (idx, &area) in areas.iter().enumerate() {
        if area == 0.0 {
            continue;
        }
        let periods = idx + 1;
        let w = area / total;
        for (m, slot) in pmf.iter_mut().enumerate().take(periods + 1) {
            *slot += w * pmf_uncached(periods as u64, pd, m as u64);
        }
    }
    DiscreteDist::new(pmf).expect("mixture of binomials is a valid pmf")
}

/// Seed [`stage_distribution`](crate::report_dist::stage_distribution):
/// every rung of the convolution ladder allocates a fresh vector.
pub fn stage_distribution_baseline(
    areas: &[f64],
    field_area: f64,
    n_sensors: usize,
    pd: f64,
    cap_sensors: usize,
) -> DiscreteDist {
    let region_area: f64 = areas.iter().sum();
    if region_area <= 0.0 {
        return DiscreteDist::point_mass(0);
    }
    let placement_p = region_area / field_area;
    let q = per_sensor_distribution_baseline(areas, pd);
    let cap = cap_sensors.min(n_sensors);
    let mut acc = vec![0.0; cap * q.support_max() + 1];
    let mut q_n = DiscreteDist::point_mass(0); // q^{*0}
    for n in 0..=cap {
        let w = pmf_uncached(n_sensors as u64, placement_p, n as u64);
        if w > 0.0 {
            for (m, &p) in q_n.as_slice().iter().enumerate() {
                acc[m] += w * p;
            }
        }
        if n < cap {
            q_n = q_n.convolve(&q);
        }
    }
    DiscreteDist::new(acc).expect("binomial mixture of convolutions is sub-stochastic")
}

/// Seed [`analyze_steps`](crate::ms_approach::analyze_steps): one
/// allocating stage computation per period (every Body stage recomputed)
/// followed by the allocating counting-chain assembly. Ignores
/// [`MsOptions::eps`] — the seed had no tail trimming — so the result is
/// the exact assembly the optimized path's `truncation_error` bounds
/// against.
///
/// # Errors
///
/// Same validation as [`analyze_steps`](crate::ms_approach::analyze_steps).
pub fn analyze_steps_baseline(
    params: &SystemParams,
    steps: &[f64],
    opts: &MsOptions,
) -> Result<AnalysisResult, CoreError> {
    let exact = MsOptions { eps: 0.0, ..*opts };
    let inputs = crate::ms_approach::stage_inputs(
        params.sensing_range(),
        steps,
        params.n_sensors(),
        &exact,
    )?;
    if inputs.len() != params.m_periods() {
        return Err(CoreError::InvalidParameter {
            name: "steps",
            constraint: "length must equal m_periods",
        });
    }
    let field_area = params.field_area();
    let n = params.n_sensors();
    let pd = params.pd();
    let support_cap: usize = inputs.iter().map(StageInput::support_bound).sum();
    let budget = ComputeBudget::unlimited();
    let mut chain = CountingChain::new(support_cap.max(1));
    let mut predicted_accuracy = 1.0;
    for stage in &inputs {
        budget.checkpoint()?;
        let dist = stage_distribution_baseline(&stage.areas, field_area, n, pd, stage.cap);
        let accuracy =
            stage_accuracy_baseline(stage.areas.iter().sum(), field_area, n, stage.cap);
        predicted_accuracy *= accuracy;
        chain.step(&dist);
        budget.complete_stage();
    }
    Ok(AnalysisResult::new(
        chain.into_distribution(),
        predicted_accuracy,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ms_approach::analyze_steps;
    use crate::report_dist::{stage_accuracy, stage_distribution};

    fn assert_bitwise(a: &DiscreteDist, b: &DiscreteDist, what: &str) {
        assert_eq!(a.as_slice().len(), b.as_slice().len(), "{what}: support");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn baseline_stage_kernels_match_optimized_bitwise() {
        let areas = [900.0, 600.0, 300.0];
        let field = 1_000_000.0;
        for cap in [0usize, 1, 3, 5] {
            let a = stage_distribution_baseline(&areas, field, 240, 0.9, cap);
            let b = stage_distribution(&areas, field, 240, 0.9, cap);
            assert_bitwise(&a, &b, "stage dist");
            let xa = stage_accuracy_baseline(1800.0, field, 240, cap);
            let xb = stage_accuracy(1800.0, field, 240, cap);
            assert_eq!(xa.to_bits(), xb.to_bits(), "cap={cap}");
        }
    }

    #[test]
    fn baseline_full_run_matches_optimized_bitwise_at_paper_point() {
        let p = SystemParams::paper_defaults();
        let steps = vec![p.step(); p.m_periods()];
        let opts = MsOptions::default();
        let seed = analyze_steps_baseline(&p, &steps, &opts).unwrap();
        let fast = analyze_steps(&p, &steps, &opts).unwrap();
        assert_bitwise(seed.raw_distribution(), fast.raw_distribution(), "raw");
        assert_eq!(
            seed.predicted_accuracy().to_bits(),
            fast.predicted_accuracy().to_bits()
        );
        assert_eq!(fast.truncation_error(), 0.0);
    }

    #[test]
    fn baseline_ignores_eps() {
        let p = SystemParams::paper_defaults().with_m_periods(5).with_k(2);
        let steps = vec![p.step(); p.m_periods()];
        let with_eps = MsOptions {
            eps: 1e-6,
            ..MsOptions::default()
        };
        let a = analyze_steps_baseline(&p, &steps, &MsOptions::default()).unwrap();
        let b = analyze_steps_baseline(&p, &steps, &with_eps).unwrap();
        assert_bitwise(a.raw_distribution(), b.raw_distribution(), "eps ignored");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ms_approach::analyze_steps;
    use proptest::prelude::*;

    /// Randomized paper-plausible system parameters plus a per-period step
    /// profile (constant or varying) — the oracle domain for the
    /// bit-identity property.
    fn arb_case() -> impl Strategy<Value = (SystemParams, Vec<f64>, MsOptions)> {
        (
            (
                10usize..300,     // n_sensors
                1usize..12,       // m_periods
                0.0f64..=1.0,     // pd
                200.0f64..2000.0, // sensing range
            ),
            (
                1usize..5, // g
                1usize..5, // gh
                proptest::collection::vec(0.0f64..2000.0, 12..13),
                0usize..2, // constant vs varying speed profile
            ),
        )
            .prop_map(|((n, m, pd, rs), (g, gh, raw_steps, constant))| {
                let params = SystemParams::paper_defaults()
                    .with_n_sensors(n)
                    .with_m_periods(m)
                    .with_k(1)
                    .with_pd(pd)
                    .with_sensing_range(rs);
                let steps = if constant == 0 {
                    vec![params.step(); m]
                } else {
                    raw_steps[..m].to_vec()
                };
                (params, steps, MsOptions { g, gh, eps: 0.0 })
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite: the flat/scratch path is bit-identical to the seed's
        /// nested allocating implementation for `eps = 0`, across
        /// randomized parameters and step profiles.
        #[test]
        fn optimized_path_is_bit_identical_to_seed_baseline(
            (params, steps, opts) in arb_case(),
        ) {
            let seed = analyze_steps_baseline(&params, &steps, &opts).unwrap();
            let fast = analyze_steps(&params, &steps, &opts).unwrap();
            let a = seed.raw_distribution().as_slice();
            let b = fast.raw_distribution().as_slice();
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            prop_assert_eq!(
                seed.predicted_accuracy().to_bits(),
                fast.predicted_accuracy().to_bits()
            );
            prop_assert_eq!(fast.truncation_error(), 0.0);
        }

        /// Satellite: with `eps > 0`, the deviation from the exact assembly
        /// never exceeds the reported `truncation_error` (up to fp slop),
        /// and the per-run error stays within `eps` per stage application.
        #[test]
        fn eps_error_never_exceeds_reported_bound(
            (params, steps, opts) in arb_case(),
            eps in 1e-12f64..1e-4,
        ) {
            let trimmed_opts = MsOptions { eps, ..opts };
            let exact = analyze_steps_baseline(&params, &steps, &opts).unwrap();
            let trimmed = analyze_steps(&params, &steps, &trimmed_opts).unwrap();
            let err = trimmed.truncation_error();
            prop_assert!(err >= 0.0);
            // Each stage application may drop at most eps of mass.
            prop_assert!(err <= eps * steps.len() as f64 + 1e-15);
            // The dropped mass bounds the final distribution's deviation,
            // in total mass and pointwise (convolution against
            // sub-stochastic stage pmfs is an L1 contraction).
            let lost = exact.retained_mass() - trimmed.retained_mass();
            prop_assert!(lost >= -1e-12);
            prop_assert!(lost <= err + 1e-12);
            let diff = exact.raw_distribution().max_abs_diff(trimmed.raw_distribution());
            prop_assert!(diff <= err + 1e-12, "diff {} err {}", diff, err);
        }
    }
}
