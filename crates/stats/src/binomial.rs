//! The binomial distribution `B(n, p)` with numerically stable evaluation.
//!
//! Every probability in the paper's analytical model is ultimately a binomial
//! probability: the number of sensors falling in a region of the field is
//! `B(N, area/S)` (uniform random deployment), and the number of reports a
//! sensor generates while covering the target for `i` periods is `B(i, Pd)`.

use crate::gamma::ln_binomial_coef;
use crate::StatsError;

/// A binomial distribution with `n` trials and success probability `p`.
///
/// # Example
///
/// ```
/// use gbd_stats::binomial::Binomial;
///
/// # fn main() -> Result<(), gbd_stats::StatsError> {
/// let b = Binomial::new(20, 0.9)?;
/// assert!((b.mean() - 18.0).abs() < 1e-12);
/// assert!((b.pmf(20) - 0.9f64.powi(20)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates a binomial distribution with `n` trials and success
    /// probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] if `p` is not in `[0, 1]`
    /// or not finite.
    pub fn new(n: u64, p: f64) -> Result<Self, StatsError> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(StatsError::InvalidProbability {
                name: "p",
                value: p,
            });
        }
        Ok(Binomial { n, p })
    }

    /// Number of trials.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability per trial.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Mean `n·p`.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Variance `n·p·(1−p)`.
    pub fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }

    /// Probability mass `P[X = k]`, evaluated in the log domain.
    ///
    /// Returns `0.0` for `k > n`.
    pub fn pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return 0.0;
        }
        // Exact edge cases avoid 0·ln(0) = NaN.
        if self.p == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if self.p == 1.0 {
            return if k == self.n { 1.0 } else { 0.0 };
        }
        let ln_pmf = ln_binomial_coef(self.n, k)
            + k as f64 * self.p.ln()
            + (self.n - k) as f64 * (1.0 - self.p).ln_1p_neg();
        ln_pmf.exp()
    }

    /// Cumulative distribution `P[X <= k]`.
    pub fn cdf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        // Sum the smaller tail for accuracy.
        let mean = self.mean();
        if (k as f64) < mean {
            (0..=k).map(|i| self.pmf(i)).sum::<f64>().min(1.0)
        } else {
            (1.0 - self.sf_direct(k)).clamp(0.0, 1.0)
        }
    }

    /// Survival function `P[X > k]` (equivalently `P[X >= k + 1]`).
    ///
    /// This is the form used by the paper's Eq (2):
    /// `P1[X >= k] = 1 − Σ_{i<k} P1[X = i] = sf(k − 1)`.
    pub fn sf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 0.0;
        }
        let mean = self.mean();
        if (k as f64) >= mean {
            self.sf_direct(k)
        } else {
            (1.0 - (0..=k).map(|i| self.pmf(i)).sum::<f64>()).clamp(0.0, 1.0)
        }
    }

    fn sf_direct(&self, k: u64) -> f64 {
        ((k + 1)..=self.n)
            .map(|i| self.pmf(i))
            .sum::<f64>()
            .min(1.0)
    }

    /// The full pmf as a dense vector over `0..=n`.
    pub fn pmf_vec(&self) -> Vec<f64> {
        (0..=self.n).map(|k| self.pmf(k)).collect()
    }

    /// Precomputes the dense pmf into a reusable [`PmfTable`].
    ///
    /// Every table entry is bit-identical to [`Binomial::pmf`] at the same
    /// index, and the table's [`PmfTable::cdf`]/[`PmfTable::sf`] reproduce
    /// [`Binomial::cdf`]/[`Binomial::sf`] bit for bit — the table only
    /// amortizes the log-domain work when several tail/cdf queries hit the
    /// same distribution (the Figure 8 cap scans, the per-stage accuracy
    /// of every M-S run).
    pub fn pmf_table(&self) -> PmfTable {
        let mut table = PmfTable::new();
        table.fill(self);
        table
    }
}

/// Any log-mass below this is far past the `exp` underflow-to-zero cutoff
/// (≈ −745.13), with margin for the ~1e-9 absolute error of the log-domain
/// evaluation: once a tail term's log mass falls below it, that term and
/// every later one evaluate to exactly `0.0`.
const LN_UNDERFLOW_MARGIN: f64 = -760.0;

/// A precomputed dense binomial pmf with bit-identical cdf/sf evaluation.
///
/// Built by [`Binomial::pmf_table`] (or refilled in place via
/// [`PmfTable::fill`] so sweeps reuse one allocation). The far tail —
/// where the log-domain mass has underflowed to exactly zero — is
/// zero-filled without calling `exp`, which is what makes filling the
/// table cheaper than the term-by-term tail sums it replaces.
#[derive(Debug, Clone, Default)]
pub struct PmfTable {
    n: u64,
    p: f64,
    pmf: Vec<f64>,
}

impl PmfTable {
    /// An empty table; call [`PmfTable::fill`] before querying.
    pub fn new() -> Self {
        PmfTable {
            n: 0,
            p: 0.0,
            pmf: Vec::new(),
        }
    }

    /// Fills the table for `b`, reusing the existing allocation.
    ///
    /// Entry `k` is bit-identical to `b.pmf(k)`: the hoisted `ln p` /
    /// `ln (1−p)` factors and the memoized `ln n!` lookups evaluate to the
    /// same values the per-call formula produces. Beyond the mean, once
    /// the log mass falls below the `exp` underflow cutoff the remaining
    /// entries are zero-filled directly (they would all evaluate to `0.0`;
    /// the log mass is strictly decreasing past the mean).
    pub fn fill(&mut self, b: &Binomial) {
        self.n = b.n;
        self.p = b.p;
        let len = (b.n + 1) as usize;
        self.pmf.clear();
        self.pmf.resize(len, 0.0);
        if b.p == 0.0 {
            self.pmf[0] = 1.0;
            return;
        }
        if b.p == 1.0 {
            self.pmf[len - 1] = 1.0;
            return;
        }
        let ln_p = b.p.ln();
        let ln_q = (1.0 - b.p).ln_1p_neg();
        let mean = b.mean();
        for k in 0..=b.n {
            let ln_pmf = ln_binomial_coef(b.n, k) + k as f64 * ln_p + (b.n - k) as f64 * ln_q;
            if k as f64 > mean && ln_pmf < LN_UNDERFLOW_MARGIN {
                break; // the rest of the tail underflows to exactly 0.0
            }
            self.pmf[k as usize] = ln_pmf.exp();
        }
    }

    /// Number of trials of the filled distribution.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability of the filled distribution.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Probability mass `P[X = k]`; `0.0` beyond `n`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.pmf.get(k as usize).copied().unwrap_or(0.0)
    }

    /// The dense pmf as a slice over `0..=n`.
    pub fn as_slice(&self) -> &[f64] {
        &self.pmf
    }

    /// Cumulative distribution `P[X <= k]`, bit-identical to
    /// [`Binomial::cdf`] (same smaller-tail branch, same ascending
    /// summation order).
    pub fn cdf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        let mean = self.n as f64 * self.p;
        if (k as f64) < mean {
            self.pmf[..=k as usize].iter().sum::<f64>().min(1.0)
        } else {
            (1.0 - self.sf_direct(k)).clamp(0.0, 1.0)
        }
    }

    /// Survival function `P[X > k]`, bit-identical to [`Binomial::sf`].
    pub fn sf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 0.0;
        }
        let mean = self.n as f64 * self.p;
        if (k as f64) >= mean {
            self.sf_direct(k)
        } else {
            (1.0 - self.pmf[..=k as usize].iter().sum::<f64>()).clamp(0.0, 1.0)
        }
    }

    fn sf_direct(&self, k: u64) -> f64 {
        self.pmf[(k + 1) as usize..].iter().sum::<f64>().min(1.0)
    }
}

/// Extension providing `ln(x)` spelled as a method so that the pmf formula
/// reads naturally; `v.ln_1p_neg()` is simply `ln(v)` with a debug guard.
trait LnGuard {
    fn ln_1p_neg(self) -> f64;
}

impl LnGuard for f64 {
    #[inline]
    fn ln_1p_neg(self) -> f64 {
        debug_assert!(self > 0.0);
        self.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_probability() {
        assert!(Binomial::new(10, -0.1).is_err());
        assert!(Binomial::new(10, 1.1).is_err());
        assert!(Binomial::new(10, f64::NAN).is_err());
    }

    #[test]
    fn pmf_sums_to_one() {
        for (n, p) in [(0u64, 0.3), (1, 0.5), (17, 0.9), (240, 0.0123), (500, 0.99)] {
            let b = Binomial::new(n, p).unwrap();
            let total: f64 = b.pmf_vec().iter().sum();
            assert!((total - 1.0).abs() < 1e-10, "n={n} p={p} total={total}");
        }
    }

    #[test]
    fn degenerate_endpoints() {
        let zero = Binomial::new(5, 0.0).unwrap();
        assert_eq!(zero.pmf(0), 1.0);
        assert_eq!(zero.pmf(1), 0.0);
        let one = Binomial::new(5, 1.0).unwrap();
        assert_eq!(one.pmf(5), 1.0);
        assert_eq!(one.pmf(4), 0.0);
    }

    #[test]
    fn pmf_matches_hand_computation() {
        // B(4, 0.5): pmf = [1, 4, 6, 4, 1] / 16
        let b = Binomial::new(4, 0.5).unwrap();
        let expect = [1.0, 4.0, 6.0, 4.0, 1.0].map(|x| x / 16.0);
        for (k, e) in expect.iter().enumerate() {
            assert!((b.pmf(k as u64) - e).abs() < 1e-14);
        }
    }

    #[test]
    fn cdf_and_sf_are_complementary() {
        let b = Binomial::new(60, 0.07).unwrap();
        for k in 0..=60 {
            let s = b.cdf(k) + b.sf(k);
            assert!((s - 1.0).abs() < 1e-10, "k={k} sum={s}");
        }
    }

    #[test]
    fn sf_is_monotone_decreasing() {
        let b = Binomial::new(100, 0.3).unwrap();
        let mut prev = 1.0;
        for k in 0..=100 {
            let s = b.sf(k);
            assert!(s <= prev + 1e-12);
            prev = s;
        }
    }

    #[test]
    fn paper_m1_shape_more_sensors_more_detections() {
        // Eq (1)-(2): P1[X >= k] must increase with N for fixed p_indi.
        let p_indi =
            0.9 * (2.0 * 1000.0 * 600.0 + std::f64::consts::PI * 1e6) / (32000.0 * 32000.0);
        let mut prev = 0.0;
        for n in [60u64, 120, 180, 240] {
            let b = Binomial::new(n, p_indi).unwrap();
            let p = b.sf(0); // at least 1 report
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    fn mean_variance() {
        let b = Binomial::new(240, 0.25).unwrap();
        assert!((b.mean() - 60.0).abs() < 1e-12);
        assert!((b.variance() - 45.0).abs() < 1e-12);
    }

    fn assert_table_bit_identical(n: u64, p: f64) {
        let b = Binomial::new(n, p).unwrap();
        let t = b.pmf_table();
        assert_eq!(t.n(), n);
        assert_eq!(t.p(), p);
        assert_eq!(t.as_slice().len() as u64, n + 1);
        for k in 0..=n + 2 {
            assert_eq!(
                t.pmf(k).to_bits(),
                b.pmf(k).to_bits(),
                "pmf n={n} p={p} k={k}"
            );
            assert_eq!(
                t.cdf(k).to_bits(),
                b.cdf(k).to_bits(),
                "cdf n={n} p={p} k={k}"
            );
            assert_eq!(t.sf(k).to_bits(), b.sf(k).to_bits(), "sf n={n} p={p} k={k}");
        }
    }

    #[test]
    fn pmf_table_is_bit_identical_to_direct_evaluation() {
        // Covers the degenerate endpoints, the paper's placement
        // probabilities (tiny p, n up to 260), and balanced/top-heavy
        // shapes whose far tails exercise the underflow zero-fill.
        for (n, p) in [
            (0u64, 0.3),
            (1, 0.0),
            (1, 1.0),
            (1, 0.5),
            (17, 0.9),
            (60, 0.07),
            (240, 0.0123),
            (260, 0.001),
            (240, 0.5),
            (500, 0.99),
            (1000, 0.002),
        ] {
            assert_table_bit_identical(n, p);
        }
    }

    #[test]
    fn pmf_table_refill_reuses_allocation_and_stays_identical() {
        let mut t = PmfTable::new();
        for (n, p) in [(240u64, 0.0123), (60, 0.5), (0, 0.0), (500, 0.99)] {
            let b = Binomial::new(n, p).unwrap();
            t.fill(&b);
            for k in 0..=n {
                assert_eq!(t.pmf(k).to_bits(), b.pmf(k).to_bits(), "n={n} p={p} k={k}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn pmf_table_bit_identity_holds_for_random_parameters(
            n in 0u64..400,
            p in 0.0f64..=1.0,
        ) {
            let b = Binomial::new(n, p).unwrap();
            let t = b.pmf_table();
            for k in 0..=n {
                proptest::prop_assert_eq!(t.pmf(k).to_bits(), b.pmf(k).to_bits());
                proptest::prop_assert_eq!(t.cdf(k).to_bits(), b.cdf(k).to_bits());
                proptest::prop_assert_eq!(t.sf(k).to_bits(), b.sf(k).to_bits());
            }
        }
    }
}
