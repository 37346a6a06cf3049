//! Log-gamma and related combinatorial special functions.
//!
//! The analytical models evaluate binomial coefficients such as
//! `C(240, 120)`, which overflow `f64` when computed directly. All
//! probability evaluation therefore goes through the log domain using the
//! Lanczos approximation implemented here.

/// Lanczos coefficients (g = 7, n = 9), giving ~15 significant digits.
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function `ln Γ(x)` for `x > 0`.
///
/// Uses the Lanczos approximation with reflection for `x < 0.5`.
///
/// # Panics
///
/// Panics if `x` is not finite or `x <= 0` and `x` is an integer (a pole of
/// the gamma function).
///
/// # Example
///
/// ```
/// use gbd_stats::gamma::ln_gamma;
/// // Γ(5) = 24
/// assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    assert!(
        x.is_finite(),
        "ln_gamma requires a finite argument, got {x}"
    );
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        let sin_pi_x = (std::f64::consts::PI * x).sin();
        assert!(
            sin_pi_x != 0.0,
            "ln_gamma evaluated at a pole of the gamma function: {x}"
        );
        return std::f64::consts::PI.ln() - sin_pi_x.abs().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Size of the memoized `ln n!` table: covers every sensor count the
/// paper's sweeps use (`N <= 260`) with a wide margin, while costing only
/// 32 KiB once.
const LN_FACT_CACHE_LEN: usize = 4096;

/// Memoized `ln n!` for `n < LN_FACT_CACHE_LEN`, filled on first use.
///
/// Every entry is produced by [`ln_factorial_uncached`], so a cache hit is
/// bit-identical to the direct evaluation — the table changes speed, never
/// values.
static LN_FACT_CACHE: std::sync::LazyLock<Box<[f64]>> = std::sync::LazyLock::new(|| {
    (0..LN_FACT_CACHE_LEN as u64)
        .map(ln_factorial_uncached)
        .collect()
});

/// Natural logarithm of `n!`.
///
/// Exact table lookup for `n <= 20`; for larger `n` a memoized Lanczos
/// `ln Γ(n + 1)` (bit-identical to evaluating it directly — see
/// [`ln_factorial_uncached`], which this delegates to beyond the memo
/// range). The binomial pmf evaluates three of these per mass point, so
/// the memo turns the hot analytical path's dominant cost into a table
/// read.
///
/// # Example
///
/// ```
/// use gbd_stats::gamma::ln_factorial;
/// assert!((ln_factorial(4) - 24f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_factorial(n: u64) -> f64 {
    if n < LN_FACT_CACHE_LEN as u64 {
        return LN_FACT_CACHE[n as usize];
    }
    ln_factorial_uncached(n)
}

/// [`ln_factorial`] without the memo table — the seed implementation,
/// kept callable so the cache contents (and callers pinned to the
/// original arithmetic, like `gbd-core`'s test-only seed baseline) can be
/// audited against it.
pub fn ln_factorial_uncached(n: u64) -> f64 {
    // Exact factorials representable in f64 without rounding error.
    const EXACT: [f64; 21] = [
        1.0,
        1.0,
        2.0,
        6.0,
        24.0,
        120.0,
        720.0,
        5_040.0,
        40_320.0,
        362_880.0,
        3_628_800.0,
        39_916_800.0,
        479_001_600.0,
        6_227_020_800.0,
        87_178_291_200.0,
        1_307_674_368_000.0,
        20_922_789_888_000.0,
        355_687_428_096_000.0,
        6_402_373_705_728_000.0,
        121_645_100_408_832_000.0,
        2_432_902_008_176_640_000.0,
    ];
    if n <= 20 {
        EXACT[n as usize].ln()
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// Natural logarithm of the binomial coefficient `C(n, k)`.
///
/// Returns `f64::NEG_INFINITY` when `k > n` (the coefficient is zero).
///
/// # Example
///
/// ```
/// use gbd_stats::gamma::ln_binomial_coef;
/// assert!((ln_binomial_coef(5, 2) - 10f64.ln()).abs() < 1e-12);
/// assert_eq!(ln_binomial_coef(3, 4), f64::NEG_INFINITY);
/// ```
pub fn ln_binomial_coef(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// The binomial coefficient `C(n, k)` as `f64`.
///
/// Accurate to full precision for small arguments and to ~1e-13 relative
/// error for large ones; returns `0.0` when `k > n`.
pub fn binomial_coef(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    // Small cases: exact multiplicative evaluation.
    let k = k.min(n - k);
    if k <= 32 && n <= 512 {
        let mut acc = 1.0_f64;
        for i in 0..k {
            acc = acc * (n - i) as f64 / (i + 1) as f64;
        }
        return acc;
    }
    ln_binomial_coef(n, k).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(3) = 2, Γ(6) = 120
        assert!(ln_gamma(1.0).abs() < 1e-13);
        assert!(ln_gamma(2.0).abs() < 1e-13);
        assert!((ln_gamma(3.0) - 2f64.ln()).abs() < 1e-13);
        assert!((ln_gamma(6.0) - 120f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(π)
        let expect = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - expect).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_recurrence_holds() {
        // ln Γ(x+1) = ln x + ln Γ(x)
        for &x in &[0.7, 1.3, 2.9, 11.5, 99.25, 240.0] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!((lhs - rhs).abs() < 1e-10, "recurrence failed at {x}");
        }
    }

    #[test]
    fn ln_factorial_exact_region_and_tail_agree() {
        for n in 0..=20u64 {
            assert!((ln_factorial(n) - ln_gamma(n as f64 + 1.0)).abs() < 1e-10);
        }
        assert!((ln_factorial(100) - ln_gamma(101.0)).abs() < 1e-10);
    }

    #[test]
    fn ln_factorial_cache_is_bit_identical_to_uncached() {
        // Inside the memo range, at its boundary, and beyond it.
        for n in (0..LN_FACT_CACHE_LEN as u64 + 10).step_by(37) {
            assert_eq!(
                ln_factorial(n).to_bits(),
                ln_factorial_uncached(n).to_bits(),
                "n={n}"
            );
        }
        let edge = LN_FACT_CACHE_LEN as u64;
        for n in [edge - 1, edge, edge + 1] {
            assert_eq!(
                ln_factorial(n).to_bits(),
                ln_factorial_uncached(n).to_bits()
            );
        }
    }

    #[test]
    fn binomial_coef_small_exact() {
        assert_eq!(binomial_coef(0, 0), 1.0);
        assert_eq!(binomial_coef(4, 2), 6.0);
        assert_eq!(binomial_coef(10, 3), 120.0);
        assert_eq!(binomial_coef(10, 11), 0.0);
    }

    #[test]
    fn binomial_coef_symmetry() {
        for n in [17u64, 60, 240] {
            for k in 0..=n.min(12) {
                let a = binomial_coef(n, k);
                let b = binomial_coef(n, n - k);
                assert!((a - b).abs() / a.max(1.0) < 1e-12, "symmetry n={n} k={k}");
            }
        }
    }

    #[test]
    fn binomial_coef_pascal_identity() {
        for n in [5u64, 50, 200] {
            for k in 1..=4u64 {
                let lhs = binomial_coef(n + 1, k);
                let rhs = binomial_coef(n, k) + binomial_coef(n, k - 1);
                assert!((lhs - rhs).abs() / lhs < 1e-12);
            }
        }
    }

    #[test]
    fn binomial_coef_large_matches_log_path() {
        let direct = binomial_coef(240, 120);
        let via_log = ln_binomial_coef(240, 120).exp();
        assert!((direct - via_log).abs() / via_log < 1e-10);
    }

    #[test]
    #[should_panic(expected = "pole")]
    fn ln_gamma_panics_at_pole() {
        ln_gamma(0.0);
    }
}
