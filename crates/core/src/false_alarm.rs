//! Analytical false-alarm model and the lower bound of `k` — the paper's
//! first item of future work, implemented.
//!
//! §6: "we plan to study how to obtain the exact lower bound of `k` based
//! on a specified false alarm model. This exact lower bound can provide
//! statistical guarantee that no possible sequencing of false alarms
//! result in a system level false alarm."
//!
//! Under the standard node-level noise model (each sensor misfires
//! independently with probability `pf` per sensing period), the number of
//! noise reports in an `M`-period window is `Binomial(N·M, pf)`. A
//! *count-based* detector alarms when that count reaches `k`, so
//!
//! `P_fa(k) = P[Binomial(N·M, pf) >= k]`
//!
//! and the smallest `k` with `P_fa(k) <= ε` is the sought bound. Any
//! track-consistency filter only discards noise reports, so the bound is
//! conservative for the full group detector: the guarantee carries over.
//! (The simulation side of this claim is measured by
//! `gbd-sim::false_alarm` and the `false_alarm_study` experiment.)

use crate::params::SystemParams;
use crate::CoreError;
use gbd_stats::binomial::Binomial;

/// Node-level false alarm model: independent misfire probability per
/// sensor per sensing period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FalseAlarmModel {
    /// Per-sensor, per-period false alarm probability.
    pub pf: f64,
}

impl FalseAlarmModel {
    /// Creates the model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `pf` is outside `[0, 1]`.
    pub fn new(pf: f64) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&pf) || !pf.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "pf",
                constraint: "must be in [0, 1]",
            });
        }
        Ok(FalseAlarmModel { pf })
    }

    /// Distribution of noise reports in one `M`-period window:
    /// `Binomial(N·M, pf)`.
    pub fn window_noise(&self, params: &SystemParams) -> Binomial {
        Binomial::new((params.n_sensors() * params.m_periods()) as u64, self.pf)
            .expect("validated pf")
    }

    /// System-level false alarm probability of a count-based detector with
    /// threshold `k` (an upper bound for any track-filtering detector).
    pub fn system_false_alarm_probability(&self, params: &SystemParams, k: usize) -> f64 {
        if k == 0 {
            return 1.0;
        }
        self.window_noise(params).sf(k as u64 - 1)
    }

    /// Expected number of noise reports per window, `N·M·pf`.
    pub fn expected_noise_reports(&self, params: &SystemParams) -> f64 {
        (params.n_sensors() * params.m_periods()) as f64 * self.pf
    }
}

/// The paper's future-work bound: the smallest `k` whose count-based
/// system false alarm probability is at most `epsilon`.
///
/// Returns `None` if even `k = N·M + 1` (more reports than sensor-periods
/// exist — impossible) would be needed, which only happens for
/// `epsilon = 0` with `pf > 0`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `epsilon` is not in
/// `(0, 1]`.
pub fn required_k(
    params: &SystemParams,
    model: &FalseAlarmModel,
    epsilon: f64,
) -> Result<usize, CoreError> {
    if !(epsilon > 0.0 && epsilon <= 1.0) {
        return Err(CoreError::InvalidParameter {
            name: "epsilon",
            constraint: "must be in (0, 1]",
        });
    }
    let max_k = params.n_sensors() * params.m_periods() + 1;
    for k in 1..=max_k {
        if model.system_false_alarm_probability(params, k) <= epsilon {
            return Ok(k);
        }
    }
    Ok(max_k)
}

/// The detection/false-alarm operating point at a given `k`: the ROC-style
/// pair the `false_alarm_study` experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Threshold `k`.
    pub k: usize,
    /// Detection probability of a real target (M-S-approach, normalized).
    pub p_detect: f64,
    /// Count-based system false alarm probability (upper bound for the
    /// filtered detector).
    pub p_false_alarm: f64,
}

/// Sweeps `k = 1 ..= k_max` and returns the operating curve.
///
/// # Errors
///
/// Propagates analysis errors from
/// [`crate::ms_approach::analyze`].
pub fn operating_curve(
    params: &SystemParams,
    model: &FalseAlarmModel,
    k_max: usize,
    opts: &crate::ms_approach::MsOptions,
) -> Result<Vec<OperatingPoint>, CoreError> {
    let analysis = crate::ms_approach::analyze(params, opts)?;
    Ok((1..=k_max)
        .map(|k| OperatingPoint {
            k,
            p_detect: analysis.detection_probability(k),
            p_false_alarm: model.system_false_alarm_probability(params, k),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ms_approach::MsOptions;

    fn paper() -> SystemParams {
        SystemParams::paper_defaults()
    }

    #[test]
    fn model_validation() {
        assert!(FalseAlarmModel::new(-0.1).is_err());
        assert!(FalseAlarmModel::new(1.1).is_err());
        assert!(FalseAlarmModel::new(0.001).is_ok());
    }

    #[test]
    fn window_noise_mean() {
        let m = FalseAlarmModel::new(0.001).unwrap();
        // 240 sensors x 20 periods x 0.001 = 4.8 expected noise reports.
        assert!((m.expected_noise_reports(&paper()) - 4.8).abs() < 1e-12);
        assert!((m.window_noise(&paper()).mean() - 4.8).abs() < 1e-12);
    }

    #[test]
    fn false_alarm_probability_decreasing_in_k() {
        let m = FalseAlarmModel::new(0.001).unwrap();
        let p = paper();
        let mut prev = 1.0;
        for k in 1..=20 {
            let pf = m.system_false_alarm_probability(&p, k);
            assert!(pf <= prev + 1e-12);
            prev = pf;
        }
        assert_eq!(m.system_false_alarm_probability(&p, 0), 1.0);
    }

    #[test]
    fn required_k_guarantees_epsilon() {
        let p = paper();
        let m = FalseAlarmModel::new(0.001).unwrap();
        for eps in [0.1, 0.01, 0.001] {
            let k = required_k(&p, &m, eps).unwrap();
            assert!(m.system_false_alarm_probability(&p, k) <= eps);
            if k > 1 {
                assert!(m.system_false_alarm_probability(&p, k - 1) > eps);
            }
        }
    }

    #[test]
    fn paper_k5_is_justified_for_low_noise() {
        // With pf = 1e-4 (a decent sensor), the paper's k = 5 bounds the
        // count-based window false alarm rate below 1%.
        let p = paper();
        let m = FalseAlarmModel::new(1e-4).unwrap();
        let k = required_k(&p, &m, 0.01).unwrap();
        assert!(k <= 5, "k={k}");
    }

    #[test]
    fn noisier_sensors_need_larger_k() {
        let p = paper();
        let quiet = required_k(&p, &FalseAlarmModel::new(1e-4).unwrap(), 0.01).unwrap();
        let noisy = required_k(&p, &FalseAlarmModel::new(2e-3).unwrap(), 0.01).unwrap();
        assert!(noisy > quiet, "{noisy} vs {quiet}");
    }

    #[test]
    fn zero_noise_needs_k_one() {
        let p = paper();
        let m = FalseAlarmModel::new(0.0).unwrap();
        assert_eq!(required_k(&p, &m, 0.001).unwrap(), 1);
    }

    #[test]
    fn operating_curve_trades_detection_for_false_alarms() {
        let p = paper().with_n_sensors(150);
        let m = FalseAlarmModel::new(0.001).unwrap();
        let curve = operating_curve(&p, &m, 10, &MsOptions::default()).unwrap();
        assert_eq!(curve.len(), 10);
        for w in curve.windows(2) {
            assert!(w[1].p_detect <= w[0].p_detect + 1e-12);
            assert!(w[1].p_false_alarm <= w[0].p_false_alarm + 1e-12);
        }
    }

    #[test]
    fn bad_epsilon_rejected() {
        let m = FalseAlarmModel::new(0.001).unwrap();
        assert!(required_k(&paper(), &m, 0.0).is_err());
        assert!(required_k(&paper(), &m, 1.5).is_err());
    }
}
