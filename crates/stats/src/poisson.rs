//! The Poisson distribution.
//!
//! Used by the density-approximation ablation: for a large field the number
//! of sensors in a region of area `A` under uniform random deployment is
//! approximately `Poisson(λ)` with `λ = N·A/S`. Comparing the binomial-exact
//! and Poisson-approximate analyses quantifies when the (simpler) spatial
//! Poisson process model is adequate.

use crate::gamma::ln_factorial;
use crate::StatsError;

/// A Poisson distribution with rate `λ`.
///
/// # Example
///
/// ```
/// use gbd_stats::poisson::Poisson;
///
/// # fn main() -> Result<(), gbd_stats::StatsError> {
/// let p = Poisson::new(2.0)?;
/// assert!((p.pmf(0) - (-2.0f64).exp()).abs() < 1e-14);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with rate `lambda`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NonPositive`] if `lambda` is not finite or is
    /// negative. A rate of exactly zero is allowed (the point mass at 0).
    pub fn new(lambda: f64) -> Result<Self, StatsError> {
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(StatsError::NonPositive {
                name: "lambda",
                value: lambda,
            });
        }
        Ok(Poisson { lambda })
    }

    /// The rate parameter `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Mean of the distribution (equal to `λ`).
    pub fn mean(&self) -> f64 {
        self.lambda
    }

    /// Variance of the distribution (equal to `λ`).
    pub fn variance(&self) -> f64 {
        self.lambda
    }

    /// Probability mass `P[X = k]`.
    pub fn pmf(&self, k: u64) -> f64 {
        if self.lambda == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        (k as f64 * self.lambda.ln() - self.lambda - ln_factorial(k)).exp()
    }

    /// Cumulative distribution `P[X <= k]`.
    pub fn cdf(&self, k: u64) -> f64 {
        (0..=k).map(|i| self.pmf(i)).sum::<f64>().min(1.0)
    }

    /// Survival function `P[X > k]`.
    pub fn sf(&self, k: u64) -> f64 {
        (1.0 - self.cdf(k)).clamp(0.0, 1.0)
    }

    /// The pmf truncated to `0..=max_k` as a dense vector (not normalized;
    /// the omitted tail mass is simply missing, mirroring how the paper
    /// truncates placement counts at `g`).
    pub fn pmf_vec(&self, max_k: u64) -> Vec<f64> {
        (0..=max_k).map(|k| self.pmf(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_rate() {
        assert!(Poisson::new(-1.0).is_err());
        assert!(Poisson::new(f64::INFINITY).is_err());
        assert!(Poisson::new(f64::NAN).is_err());
    }

    #[test]
    fn zero_rate_is_point_mass() {
        let p = Poisson::new(0.0).unwrap();
        assert_eq!(p.pmf(0), 1.0);
        assert_eq!(p.pmf(3), 0.0);
        assert_eq!(p.cdf(0), 1.0);
    }

    #[test]
    fn pmf_sums_to_one() {
        let p = Poisson::new(4.2).unwrap();
        let total: f64 = p.pmf_vec(200).iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pmf_recurrence() {
        // P[k+1] = P[k] * λ / (k+1)
        let p = Poisson::new(3.7).unwrap();
        for k in 0..30u64 {
            let lhs = p.pmf(k + 1);
            let rhs = p.pmf(k) * 3.7 / (k + 1) as f64;
            assert!((lhs - rhs).abs() < 1e-14);
        }
    }

    #[test]
    fn approximates_binomial_at_low_density() {
        // B(240, A/S) with A/S small ≈ Poisson(240 A/S)
        use crate::binomial::Binomial;
        let frac = 0.004; // sparse: region is 0.4% of field
        let b = Binomial::new(240, frac).unwrap();
        let p = Poisson::new(240.0 * frac).unwrap();
        for k in 0..8u64 {
            assert!((b.pmf(k) - p.pmf(k)).abs() < 3e-3, "k={k}");
        }
    }

    #[test]
    fn cdf_sf_complement() {
        let p = Poisson::new(1.3).unwrap();
        for k in 0..20u64 {
            assert!((p.cdf(k) + p.sf(k) - 1.0).abs() < 1e-12);
        }
    }
}
