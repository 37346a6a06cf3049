//! The exact reference model (no sensor-count truncation).
//!
//! Because sensors are placed independently and uniformly, the total number
//! of reports over `M` periods is the sum of `N` i.i.d. per-sensor counts,
//! where a single sensor's count is the mixture
//!
//! `q_full(m) = (1 − A/S)·δ₀(m) + Σ_i (Region(i)/S)·Binom(m; i, Pd)`
//!
//! over the whole Aggregate Region. The `N`-fold convolution of `q_full`
//! is therefore the *exact* distribution the paper's S- and M-S-approaches
//! approximate — it is the `G → N` limit of the S-approach. It exists in
//! this reproduction (the paper does not exploit the factorization) to
//! quantify the truncation and normalization errors of Figures 9(a)/9(b).

use crate::params::SystemParams;
use crate::s_approach::region_sizes;
use gbd_geometry::subarea::SubareaTable;
use gbd_stats::binomial::Binomial;
use gbd_stats::discrete::DiscreteDist;

/// The per-sensor full-field report distribution `q_full`.
pub fn per_sensor_full(params: &SystemParams) -> DiscreteDist {
    per_sensor_full_from_regions(&region_sizes(params), params.field_area(), params.pd())
}

/// `q_full` from explicit region sizes (used by the varying-speed path).
///
/// # Panics
///
/// Panics if the regions do not fit in the field or `pd` is invalid.
pub fn per_sensor_full_from_regions(regions: &[f64], field_area: f64, pd: f64) -> DiscreteDist {
    assert!(field_area > 0.0, "field area must be positive");
    assert!((0.0..=1.0).contains(&pd), "pd must be in [0, 1]");
    let total: f64 = regions.iter().sum();
    assert!(total <= field_area, "regions exceed the field");
    let mut pmf = vec![0.0; regions.len() + 1];
    pmf[0] = 1.0 - total / field_area;
    for (idx, &area) in regions.iter().enumerate() {
        if area == 0.0 {
            continue;
        }
        let periods = idx + 1;
        let b = Binomial::new(periods as u64, pd).expect("validated pd");
        for (m, slot) in pmf.iter_mut().enumerate().take(periods + 1) {
            *slot += (area / field_area) * b.pmf(m as u64);
        }
    }
    DiscreteDist::new(pmf).expect("valid mixture")
}

/// Exact distribution of the total report count, saturated at `cap`
/// (states `cap ..` merged). Choose `cap >= k` to read exact tail
/// probabilities at `k`.
pub fn report_distribution(params: &SystemParams, cap: usize) -> DiscreteDist {
    per_sensor_full(params).self_convolve_saturating(params.n_sensors(), cap)
}

/// Exact `P_M[X >= k]` for a constant-speed straight-line target.
///
/// # Example
///
/// ```
/// use gbd_core::params::SystemParams;
/// use gbd_core::exact;
///
/// let p = SystemParams::paper_defaults();
/// let exact = exact::detection_probability(&p, 5);
/// assert!(exact > 0.9 && exact < 1.0);
/// ```
pub fn detection_probability(params: &SystemParams, k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    // Long convolution chains accumulate ~1e-13 of floating error; clamp
    // so the result is always a probability.
    report_distribution(params, k).tail_sum(k).clamp(0.0, 1.0)
}

/// Exact `P_M[X >= k]` for explicit per-period step lengths.
///
/// # Panics
///
/// Panics if `steps` length differs from `params.m_periods()`.
pub fn detection_probability_steps(params: &SystemParams, steps: &[f64], k: usize) -> f64 {
    assert_eq!(
        steps.len(),
        params.m_periods(),
        "steps length must equal m_periods"
    );
    if k == 0 {
        return 1.0;
    }
    let table = SubareaTable::from_steps(params.sensing_range(), steps);
    let q =
        per_sensor_full_from_regions(&table.region_sizes(), params.field_area(), params.pd());
    q.self_convolve_saturating(params.n_sensors(), k)
        .tail_sum(k)
        .clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ms_approach::{self, MsOptions};
    use crate::s_approach::{self, SOptions};

    fn paper() -> SystemParams {
        SystemParams::paper_defaults()
    }

    #[test]
    fn per_sensor_full_is_proper() {
        let q = per_sensor_full(&paper());
        assert!((q.total_mass() - 1.0).abs() < 1e-10);
        // Sparse network: overwhelmingly no report.
        assert!(q.pmf(0) > 0.95);
    }

    #[test]
    fn exact_equals_m1_binomial_when_m_is_1() {
        let p = paper().with_m_periods(1);
        let exact = detection_probability(&p, 1);
        let analytic = crate::single_period::probability_at_least(&p, 1);
        assert!((exact - analytic).abs() < 1e-9, "{exact} vs {analytic}");
    }

    #[test]
    fn ms_approach_converges_to_exact() {
        // Raising g/gh removes the truncation error, but a small residual
        // remains: the M-S chain treats per-NEDR sensor counts as
        // independent binomials, while with a fixed N they are multinomially
        // correlated. At the paper's parameters the residual is ~1e-3 —
        // invisible at Figure 9's scale, and the same approximation the
        // paper's own chain makes.
        let p = paper();
        let exact = detection_probability(&p, 5);
        let mut prev_err = f64::INFINITY;
        for caps in [2usize, 4, 8] {
            let r = ms_approach::analyze(
                &p,
                &MsOptions {
                    g: caps,
                    gh: caps,
                    eps: 0.0,
                },
            )
            .unwrap();
            let err = (r.detection_probability(5) - exact).abs();
            assert!(err <= prev_err + 1e-9, "caps={caps}: {err} > {prev_err}");
            prev_err = err;
        }
        assert!(prev_err < 2e-3, "converged error {prev_err}");
    }

    #[test]
    fn s_approach_converges_to_exact() {
        let p = paper();
        let exact = detection_probability(&p, 5);
        let r = s_approach::analyze(&p, &SOptions { cap_sensors: 30 }).unwrap();
        assert!((r.detection_probability(5) - exact).abs() < 1e-6);
    }

    #[test]
    fn unnormalized_truncated_tail_is_a_lower_bound() {
        // Discarding placement configurations can only remove probability
        // mass from every tail: Figure 9(b) sits below the exact curve.
        let p = paper();
        let exact = detection_probability(&p, 5);
        for caps in [1usize, 2, 3, 4] {
            let r = ms_approach::analyze(
                &p,
                &MsOptions {
                    g: caps,
                    gh: caps,
                    eps: 0.0,
                },
            )
            .unwrap();
            assert!(
                r.detection_probability_unnormalized(5) <= exact + 1e-12,
                "caps={caps}"
            );
        }
    }

    #[test]
    fn constant_steps_variant_agrees() {
        let p = paper();
        let a = detection_probability(&p, 5);
        let b = detection_probability_steps(&p, &[p.step(); 20], 5);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn k_zero_is_certain() {
        assert_eq!(detection_probability(&paper(), 0), 1.0);
    }

    #[test]
    fn monotone_in_n_and_v() {
        let p60 = detection_probability(&paper().with_n_sensors(60), 5);
        let p240 = detection_probability(&paper().with_n_sensors(240), 5);
        assert!(p240 > p60);
        let slow = detection_probability(&paper().with_speed(4.0), 5);
        let fast = detection_probability(&paper().with_speed(10.0), 5);
        assert!(fast > slow);
    }
}

/// A class of identical sensors within a heterogeneous fleet.
///
/// The paper assumes all sensors share one sensing range and `Pd`; because
/// the exact model factorizes over sensors, fleets mixing several sensor
/// types (e.g. a few long-range sonars among many short-range ones) are
/// analyzable by convolving per-class contributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorClass {
    /// Number of sensors of this class.
    pub count: usize,
    /// Sensing range of this class in meters.
    pub sensing_range: f64,
    /// Per-period detection probability of this class.
    pub pd: f64,
}

/// Exact report-count distribution for a heterogeneous fleet, saturated at
/// `cap`: the independent sum of per-class contributions, each the
/// `count`-fold convolution of that class's per-sensor mixture.
///
/// The target still moves in a straight line with `params`' speed, window
/// and field; `params`' own `n_sensors`, `sensing_range` and `pd` are
/// ignored in favor of `classes`.
///
/// # Panics
///
/// Panics if `classes` is empty or a class has an invalid range or `pd`.
pub fn report_distribution_classes(
    params: &SystemParams,
    classes: &[SensorClass],
    cap: usize,
) -> DiscreteDist {
    assert!(!classes.is_empty(), "need at least one sensor class");
    let mut total = DiscreteDist::point_mass(0);
    for class in classes {
        let table = SubareaTable::constant_speed(
            class.sensing_range,
            params.step(),
            params.m_periods(),
        );
        let q =
            per_sensor_full_from_regions(&table.region_sizes(), params.field_area(), class.pd);
        let class_dist = q.self_convolve_saturating(class.count, cap);
        total = total.convolve_saturating(&class_dist, cap);
    }
    total
}

/// Exact `P_M[X >= k]` for a heterogeneous fleet.
///
/// # Example
///
/// ```
/// use gbd_core::exact::{detection_probability_classes, SensorClass};
/// use gbd_core::params::SystemParams;
///
/// let params = SystemParams::paper_defaults();
/// // 20 long-range sonars plus 200 short-range hydrophones.
/// let classes = [
///     SensorClass { count: 20, sensing_range: 3_000.0, pd: 0.9 },
///     SensorClass { count: 200, sensing_range: 500.0, pd: 0.9 },
/// ];
/// let p = detection_probability_classes(&params, &classes, 5);
/// assert!(p > 0.0 && p < 1.0);
/// ```
pub fn detection_probability_classes(
    params: &SystemParams,
    classes: &[SensorClass],
    k: usize,
) -> f64 {
    if k == 0 {
        return 1.0;
    }
    report_distribution_classes(params, classes, k)
        .tail_sum(k)
        .clamp(0.0, 1.0)
}

#[cfg(test)]
mod hetero_tests {
    use super::*;

    fn paper() -> SystemParams {
        SystemParams::paper_defaults()
    }

    #[test]
    fn single_class_matches_homogeneous_model() {
        let p = paper();
        let classes = [SensorClass {
            count: 240,
            sensing_range: 1000.0,
            pd: 0.9,
        }];
        let hetero = detection_probability_classes(&p, &classes, 5);
        let homo = detection_probability(&p, 5);
        assert!((hetero - homo).abs() < 1e-12, "{hetero} vs {homo}");
    }

    #[test]
    fn split_into_identical_classes_is_invariant() {
        let p = paper();
        let one = [SensorClass {
            count: 240,
            sensing_range: 1000.0,
            pd: 0.9,
        }];
        let two = [
            SensorClass {
                count: 100,
                sensing_range: 1000.0,
                pd: 0.9,
            },
            SensorClass {
                count: 140,
                sensing_range: 1000.0,
                pd: 0.9,
            },
        ];
        let a = detection_probability_classes(&p, &one, 5);
        let b = detection_probability_classes(&p, &two, 5);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn better_class_mix_detects_more() {
        let p = paper();
        let short_only = [SensorClass {
            count: 240,
            sensing_range: 500.0,
            pd: 0.9,
        }];
        let mixed = [
            SensorClass {
                count: 220,
                sensing_range: 500.0,
                pd: 0.9,
            },
            SensorClass {
                count: 20,
                sensing_range: 3000.0,
                pd: 0.9,
            },
        ];
        let a = detection_probability_classes(&p, &short_only, 5);
        let b = detection_probability_classes(&p, &mixed, 5);
        assert!(b > a, "{b} vs {a}");
    }

    #[test]
    fn class_order_does_not_matter() {
        let p = paper();
        let ab = [
            SensorClass {
                count: 100,
                sensing_range: 800.0,
                pd: 0.8,
            },
            SensorClass {
                count: 50,
                sensing_range: 2000.0,
                pd: 0.95,
            },
        ];
        let ba = [ab[1], ab[0]];
        let x = detection_probability_classes(&p, &ab, 5);
        let y = detection_probability_classes(&p, &ba, 5);
        assert!((x - y).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one sensor class")]
    fn empty_classes_panics() {
        report_distribution_classes(&paper(), &[], 5);
    }
}
