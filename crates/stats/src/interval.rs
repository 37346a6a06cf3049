//! Confidence intervals for estimated proportions.
//!
//! The validation experiments estimate detection probabilities from 10 000
//! Monte Carlo trials; every reported point carries a Wilson score interval
//! so "analysis matches simulation" is a statistical statement, not an
//! eyeball one.

use crate::StatsError;

/// Two-sided confidence interval `[lo, hi]` for a proportion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProportionInterval {
    /// Point estimate `successes / trials`.
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl ProportionInterval {
    /// Whether a hypothesized true value lies inside the interval.
    pub fn contains(&self, p: f64) -> bool {
        self.lo <= p && p <= self.hi
    }

    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }
}

/// Wilson score interval for a binomial proportion.
///
/// More accurate than the normal approximation near 0 and 1, which matters
/// because sparse-network detection probabilities at low `N` sit near 0.3
/// but the `V = 10 m/s`, `N = 240` points sit above 0.95.
///
/// `z` is the standard-normal quantile (1.96 for 95 %).
///
/// # Errors
///
/// Returns [`StatsError::NonPositive`] if `trials == 0` or `z <= 0`, and
/// [`StatsError::InvalidProbability`] if `successes > trials`.
///
/// # Example
///
/// ```
/// use gbd_stats::interval::wilson;
///
/// # fn main() -> Result<(), gbd_stats::StatsError> {
/// let ci = wilson(9300, 10_000, 1.96)?;
/// assert!(ci.contains(0.93));
/// assert!(ci.half_width() < 0.01);
/// # Ok(())
/// # }
/// ```
pub fn wilson(successes: u64, trials: u64, z: f64) -> Result<ProportionInterval, StatsError> {
    if trials == 0 {
        return Err(StatsError::NonPositive {
            name: "trials",
            value: 0.0,
        });
    }
    if z <= 0.0 || !z.is_finite() {
        return Err(StatsError::NonPositive {
            name: "z",
            value: z,
        });
    }
    if successes > trials {
        return Err(StatsError::InvalidProbability {
            name: "successes/trials",
            value: successes as f64 / trials as f64,
        });
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let spread = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    Ok(ProportionInterval {
        estimate: p,
        lo: (center - spread).max(0.0),
        hi: (center + spread).min(1.0),
    })
}

/// Normal-approximation (Wald) interval; kept for comparison and for large
/// mid-range proportions where it coincides with Wilson.
///
/// # Errors
///
/// Same conditions as [`wilson`].
pub fn wald(successes: u64, trials: u64, z: f64) -> Result<ProportionInterval, StatsError> {
    if trials == 0 {
        return Err(StatsError::NonPositive {
            name: "trials",
            value: 0.0,
        });
    }
    if z <= 0.0 || !z.is_finite() {
        return Err(StatsError::NonPositive {
            name: "z",
            value: z,
        });
    }
    if successes > trials {
        return Err(StatsError::InvalidProbability {
            name: "successes/trials",
            value: successes as f64 / trials as f64,
        });
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let spread = z * (p * (1.0 - p) / n).sqrt();
    Ok(ProportionInterval {
        estimate: p,
        lo: (p - spread).max(0.0),
        hi: (p + spread).min(1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(wilson(0, 0, 1.96).is_err());
        assert!(wilson(5, 10, 0.0).is_err());
        assert!(wilson(11, 10, 1.96).is_err());
        assert!(wald(0, 0, 1.96).is_err());
        assert!(wald(11, 10, 1.96).is_err());
    }

    #[test]
    fn wilson_contains_estimate() {
        let ci = wilson(37, 100, 1.96).unwrap();
        assert!(ci.contains(ci.estimate));
        assert!(ci.lo < 0.37 && ci.hi > 0.37);
    }

    #[test]
    fn wilson_shrinks_with_trials() {
        let small = wilson(37, 100, 1.96).unwrap();
        let large = wilson(3700, 10_000, 1.96).unwrap();
        assert!(large.half_width() < small.half_width());
    }

    #[test]
    fn wilson_behaves_at_extremes() {
        let zero = wilson(0, 100, 1.96).unwrap();
        assert!(zero.lo < 1e-12);
        assert!(zero.hi > 0.0 && zero.hi < 0.1);
        let all = wilson(100, 100, 1.96).unwrap();
        assert!(all.hi > 1.0 - 1e-12);
        assert!(all.lo > 0.9);
    }

    #[test]
    fn wald_degenerates_at_extremes_but_wilson_does_not() {
        // The Wald interval collapses to a point at p = 0; Wilson stays open.
        let wd = wald(0, 100, 1.96).unwrap();
        assert_eq!(wd.half_width(), 0.0);
        let ws = wilson(0, 100, 1.96).unwrap();
        assert!(ws.half_width() > 0.0);
    }

    #[test]
    fn wald_and_wilson_agree_mid_range_large_n() {
        let a = wald(5000, 10_000, 1.96).unwrap();
        let b = wilson(5000, 10_000, 1.96).unwrap();
        assert!((a.lo - b.lo).abs() < 1e-3);
        assert!((a.hi - b.hi).abs() < 1e-3);
    }

    #[test]
    fn interval_bounds_clamped() {
        let ci = wilson(1, 2, 10.0).unwrap();
        assert!(ci.lo >= 0.0 && ci.hi <= 1.0);
    }
}
