//! Online summary statistics and fixed-width histograms.

/// Welford online accumulator for mean and variance.
///
/// Numerically stable for long simulation runs (tens of thousands of trials,
/// each contributing report counts, hop counts and latencies).
///
/// # Example
///
/// ```
/// use gbd_stats::summary::Summary;
///
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`); `0.0` for fewer than 1 sample.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n − 1`); `0.0` for fewer than 2 samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Minimum observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation; `−inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The accumulator's internal state `(count, mean, m2, min, max)`,
    /// for exact serialization. Round-trips bit-identically through
    /// [`Summary::from_raw_parts`].
    pub fn raw_parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuilds an accumulator from [`Summary::raw_parts`] state. The
    /// parts are trusted as-is; passing values that did not come from a
    /// real accumulator yields a statistically meaningless summary.
    pub fn from_raw_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        Summary {
            count,
            mean,
            m2,
            min,
            max,
        }
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

/// Fixed-width histogram over `[lo, hi)` with saturating outlier bins.
///
/// Values below `lo` land in the first bin, values at or above `hi` in the
/// last — counts are never dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
        }
    }

    /// Records an observation.
    pub fn record(&mut self, x: f64) {
        let nbins = self.bins.len();
        let idx = if x < self.lo {
            0
        } else if x >= self.hi {
            nbins - 1
        } else {
            (((x - self.lo) / (self.hi - self.lo) * nbins as f64) as usize).min(nbins - 1)
        };
        self.bins[idx] += 1;
    }

    /// Raw bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Total recorded observations.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// The `[lo, hi)` boundaries of bin `i`.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + i as f64 * w, self.lo + (i + 1) as f64 * w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn single_observation() {
        let mut s = Summary::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn histogram_bins_and_outliers() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(-1.0); // below -> bin 0
        h.record(0.0); // bin 0
        h.record(3.9); // bin 1
        h.record(9.99); // bin 4
        h.record(10.0); // at hi -> bin 4
        h.record(99.0); // above -> bin 4
        assert_eq!(h.bins(), &[2, 1, 0, 0, 3]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_bin_range() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.bin_range(0), (0.0, 2.0));
        assert_eq!(h.bin_range(4), (8.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        Histogram::new(0.0, 1.0, 0);
    }
}
