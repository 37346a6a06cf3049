//! Dense, finitely-supported discrete distributions over `0..=n`.
//!
//! [`DiscreteDist`] is the workhorse of the analytical models: per-stage
//! report-count distributions (`p_{h:m}`, `p_{b:m}`, `p_{tj:m}` in the
//! paper) are `DiscreteDist` values, and the Markov chain of Eq (12) is a
//! sequence of *saturating* convolutions of such distributions.
//!
//! Distributions here are allowed to be **sub-stochastic** (total mass
//! `< 1`): the paper truncates the number of sensors considered per stage at
//! `g`/`gh`/`G`, which discards tail mass. The discarded mass is exactly the
//! accuracy loss of Eqs (5), (7) and (9); [`DiscreteDist::total_mass`]
//! exposes it and [`DiscreteDist::normalized`] applies the Eq (13)
//! normalization.

use crate::StatsError;

/// Tolerance when validating that mass does not exceed 1.
const MASS_EPS: f64 = 1e-9;

/// A dense probability mass function over the support `0..=n`.
///
/// May be sub-stochastic (total mass at most 1, within floating point
/// tolerance) but never super-stochastic or negative.
///
/// # Example
///
/// ```
/// use gbd_stats::discrete::DiscreteDist;
///
/// # fn main() -> Result<(), gbd_stats::StatsError> {
/// let die = DiscreteDist::uniform(6)?; // 0..=5 with mass 1/6 each
/// let two_dice = die.convolve(&die);
/// assert_eq!(two_dice.support_max(), 10);
/// assert!((two_dice.pmf(5) - 6.0 / 36.0).abs() < 1e-12); // most likely sum
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteDist {
    pmf: Vec<f64>,
}

impl DiscreteDist {
    /// Creates a distribution from an explicit pmf vector (index = value).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidPmf`] if the vector is empty, contains
    /// negative or non-finite entries, or sums to more than 1 (beyond a
    /// small floating point tolerance).
    pub fn new(pmf: Vec<f64>) -> Result<Self, StatsError> {
        if pmf.is_empty() {
            return Err(StatsError::InvalidPmf {
                reason: "empty pmf vector",
            });
        }
        let mut total = 0.0;
        for &x in &pmf {
            if !x.is_finite() || x < 0.0 {
                return Err(StatsError::InvalidPmf {
                    reason: "pmf entries must be finite and non-negative",
                });
            }
            total += x;
        }
        if total > 1.0 + MASS_EPS {
            return Err(StatsError::InvalidPmf {
                reason: "total mass exceeds 1",
            });
        }
        Ok(DiscreteDist { pmf })
    }

    /// The distribution putting all mass on a single value `k`.
    pub fn point_mass(k: usize) -> Self {
        let mut pmf = vec![0.0; k + 1];
        pmf[k] = 1.0;
        DiscreteDist { pmf }
    }

    /// Resets `self` to the point mass at `k` in place, reusing the
    /// existing buffer — the allocation-free counterpart of
    /// [`point_mass`](Self::point_mass) for scratch distributions.
    pub fn set_point_mass(&mut self, k: usize) {
        self.pmf.clear();
        self.pmf.resize(k + 1, 0.0);
        self.pmf[k] = 1.0;
    }

    /// The uniform distribution on `0..n`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidPmf`] if `n == 0`.
    pub fn uniform(n: usize) -> Result<Self, StatsError> {
        if n == 0 {
            return Err(StatsError::InvalidPmf {
                reason: "uniform needs n >= 1",
            });
        }
        Ok(DiscreteDist {
            pmf: vec![1.0 / n as f64; n],
        })
    }

    /// Probability mass at `k` (zero outside the stored support).
    pub fn pmf(&self, k: usize) -> f64 {
        self.pmf.get(k).copied().unwrap_or(0.0)
    }

    /// The pmf as a slice (index = value).
    pub fn as_slice(&self) -> &[f64] {
        &self.pmf
    }

    /// Largest value in the stored support (`len − 1`).
    pub fn support_max(&self) -> usize {
        self.pmf.len() - 1
    }

    /// Total mass; `1.0` for a proper distribution, less for truncated ones.
    pub fn total_mass(&self) -> f64 {
        self.pmf.iter().sum()
    }

    /// Mean of the distribution (of the *retained* mass).
    pub fn mean(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(k, &p)| k as f64 * p)
            .sum()
    }

    /// Tail probability `P[X >= k]` of the retained mass.
    pub fn tail_sum(&self, k: usize) -> f64 {
        if k >= self.pmf.len() {
            return 0.0;
        }
        self.pmf[k..].iter().sum()
    }

    /// Returns a copy rescaled to total mass 1 — the Eq (13) normalization.
    ///
    /// # Panics
    ///
    /// Panics if the total mass is zero.
    pub fn normalized(&self) -> Self {
        let total = self.total_mass();
        assert!(total > 0.0, "cannot normalize a zero-mass distribution");
        DiscreteDist {
            pmf: self.pmf.iter().map(|&p| p / total).collect(),
        }
    }

    /// Plain convolution: the distribution of `X + Y` for independent `X`,
    /// `Y`. The resulting support is the sum of supports.
    pub fn convolve(&self, other: &DiscreteDist) -> Self {
        let mut out = vec![0.0; self.pmf.len() + other.pmf.len() - 1];
        for (i, &a) in self.pmf.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in other.pmf.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        DiscreteDist { pmf: out }
    }

    /// Saturating convolution: like [`convolve`](Self::convolve) but any mass
    /// that would land beyond `cap` is merged into the state `cap`.
    ///
    /// This is exactly the paper's merged Markov state: "if we are only
    /// interested in the probability of having at least `k` detection
    /// reports, we can merge the states from `k` to `MZ`".
    pub fn convolve_saturating(&self, other: &DiscreteDist, cap: usize) -> Self {
        let mut out = vec![0.0; cap + 1];
        for (i, &a) in self.pmf.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in other.pmf.iter().enumerate() {
                out[(i + j).min(cap)] += a * b;
            }
        }
        DiscreteDist { pmf: out }
    }

    /// [`convolve`](Self::convolve) into a caller-provided buffer.
    ///
    /// `out` is cleared and refilled; its allocation is reused when large
    /// enough. The accumulation order is identical to
    /// [`convolve`](Self::convolve), so the resulting values are
    /// bit-identical to the allocating version.
    pub fn convolve_into(&self, other: &DiscreteDist, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.pmf.len() + other.pmf.len() - 1, 0.0);
        for (i, &a) in self.pmf.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in other.pmf.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
    }

    /// In-place [`convolve`](Self::convolve): replaces `self` with
    /// `self * other` using `scratch` as the output buffer (the previous
    /// pmf buffer is swapped into `scratch` for reuse). Allocation-free
    /// once `scratch` has warmed up to the working support size.
    pub fn convolve_in_place(&mut self, other: &DiscreteDist, scratch: &mut Vec<f64>) {
        self.convolve_into(other, scratch);
        std::mem::swap(&mut self.pmf, scratch);
    }

    /// [`convolve_saturating`](Self::convolve_saturating) into a
    /// caller-provided buffer; same bit-identity guarantee as
    /// [`convolve_into`](Self::convolve_into).
    pub fn convolve_saturating_into(
        &self,
        other: &DiscreteDist,
        cap: usize,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(cap + 1, 0.0);
        for (i, &a) in self.pmf.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in other.pmf.iter().enumerate() {
                out[(i + j).min(cap)] += a * b;
            }
        }
    }

    /// In-place [`convolve_saturating`](Self::convolve_saturating); see
    /// [`convolve_in_place`](Self::convolve_in_place).
    pub fn convolve_saturating_in_place(
        &mut self,
        other: &DiscreteDist,
        cap: usize,
        scratch: &mut Vec<f64>,
    ) {
        self.convolve_saturating_into(other, cap, scratch);
        std::mem::swap(&mut self.pmf, scratch);
    }

    /// Drops the longest trailing run of support whose total mass is at
    /// most `eps`, returning the mass actually discarded.
    ///
    /// With `eps <= 0` this is a guaranteed no-op (nothing is trimmed, not
    /// even exact zeros) so the default configuration stays bit-identical.
    /// At least one entry is always retained.
    pub fn truncate_tail_mass(&mut self, eps: f64) -> f64 {
        if eps <= 0.0 {
            return 0.0;
        }
        let mut dropped = 0.0;
        let mut keep = self.pmf.len();
        while keep > 1 {
            let next = dropped + self.pmf[keep - 1];
            if next > eps {
                break;
            }
            dropped = next;
            keep -= 1;
        }
        self.pmf.truncate(keep);
        dropped
    }

    /// `n`-fold convolution of the distribution with itself, computed by
    /// binary exponentiation. `self_convolve(0)` is the point mass at 0.
    pub fn self_convolve(&self, n: usize) -> Self {
        let mut result = DiscreteDist::point_mass(0);
        let mut base = self.clone();
        let mut exp = n;
        while exp > 0 {
            if exp & 1 == 1 {
                result = result.convolve(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.convolve(&base);
            }
        }
        result
    }

    /// `n`-fold *saturating* convolution with cap `cap`.
    pub fn self_convolve_saturating(&self, n: usize, cap: usize) -> Self {
        let mut result = DiscreteDist::point_mass(0);
        for _ in 0..n {
            result = result.convolve_saturating(self, cap);
        }
        result
    }

    /// Mixture `Σ w_i · d_i` of component distributions.
    ///
    /// Weights must be non-negative; the result's mass is
    /// `Σ w_i · mass(d_i)` (sub-stochastic mixtures are allowed).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidPmf`] if the component list is empty or
    /// the mixture would be super-stochastic.
    pub fn mixture(components: &[(f64, DiscreteDist)]) -> Result<Self, StatsError> {
        if components.is_empty() {
            return Err(StatsError::InvalidPmf {
                reason: "empty mixture",
            });
        }
        let max_len = components.iter().map(|(_, d)| d.pmf.len()).max().unwrap();
        let mut out = vec![0.0; max_len];
        for (w, d) in components {
            if !w.is_finite() || *w < 0.0 {
                return Err(StatsError::InvalidPmf {
                    reason: "mixture weights must be finite and non-negative",
                });
            }
            for (k, &p) in d.pmf.iter().enumerate() {
                out[k] += w * p;
            }
        }
        DiscreteDist::new(out)
    }

    /// Returns a copy with the support truncated to `0..=cap`; mass beyond
    /// `cap` is *discarded* (not merged), mirroring the paper's per-stage
    /// truncation.
    pub fn truncated(&self, cap: usize) -> Self {
        let len = (cap + 1).min(self.pmf.len());
        DiscreteDist {
            pmf: self.pmf[..len].to_vec(),
        }
    }

    /// Maximum absolute pointwise difference against another distribution,
    /// comparing over the union of supports.
    pub fn max_abs_diff(&self, other: &DiscreteDist) -> f64 {
        let len = self.pmf.len().max(other.pmf.len());
        (0..len)
            .map(|k| (self.pmf(k) - other.pmf(k)).abs())
            .fold(0.0, f64::max)
    }
}

impl FromIterator<f64> for DiscreteDist {
    /// Collects raw mass values; panics on invalid pmf. Use
    /// [`DiscreteDist::new`] for fallible construction.
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        DiscreteDist::new(iter.into_iter().collect()).expect("invalid pmf")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(v: &[f64]) -> DiscreteDist {
        DiscreteDist::new(v.to_vec()).unwrap()
    }

    #[test]
    fn validation_rejects_bad_input() {
        assert!(DiscreteDist::new(vec![]).is_err());
        assert!(DiscreteDist::new(vec![-0.1, 1.1]).is_err());
        assert!(DiscreteDist::new(vec![0.6, 0.6]).is_err());
        assert!(DiscreteDist::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn substochastic_is_allowed() {
        let d = dist(&[0.5, 0.3]);
        assert!((d.total_mass() - 0.8).abs() < 1e-15);
        let n = d.normalized();
        assert!((n.total_mass() - 1.0).abs() < 1e-15);
        assert!((n.pmf(0) - 0.625).abs() < 1e-15);
    }

    #[test]
    fn point_mass_properties() {
        let d = DiscreteDist::point_mass(3);
        assert_eq!(d.pmf(3), 1.0);
        assert_eq!(d.mean(), 3.0);
        assert_eq!(d.tail_sum(3), 1.0);
        assert_eq!(d.tail_sum(4), 0.0);
    }

    #[test]
    fn set_point_mass_resets_in_place() {
        let mut d = dist(&[0.2, 0.3, 0.4, 0.1]);
        d.set_point_mass(0);
        assert_eq!(d, DiscreteDist::point_mass(0));
        d.set_point_mass(2);
        assert_eq!(d, DiscreteDist::point_mass(2));
    }

    #[test]
    fn convolution_of_point_masses_shifts() {
        let a = DiscreteDist::point_mass(2);
        let b = DiscreteDist::point_mass(5);
        let c = a.convolve(&b);
        assert_eq!(c.pmf(7), 1.0);
    }

    #[test]
    fn convolution_two_coins() {
        let coin = dist(&[0.5, 0.5]);
        let two = coin.convolve(&coin);
        assert!((two.pmf(0) - 0.25).abs() < 1e-15);
        assert!((two.pmf(1) - 0.5).abs() < 1e-15);
        assert!((two.pmf(2) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn saturating_convolution_merges_tail() {
        let coin = dist(&[0.5, 0.5]);
        let sat = coin.convolve_saturating(&coin, 1);
        assert!((sat.pmf(0) - 0.25).abs() < 1e-15);
        assert!((sat.pmf(1) - 0.75).abs() < 1e-15);
        assert_eq!(sat.support_max(), 1);
        // Tail sums above the cap agree with plain convolution.
        let plain = coin.convolve(&coin);
        assert!((sat.tail_sum(1) - plain.tail_sum(1)).abs() < 1e-15);
    }

    #[test]
    fn self_convolve_matches_repeated() {
        let d = dist(&[0.2, 0.5, 0.3]);
        let mut manual = DiscreteDist::point_mass(0);
        for _ in 0..5 {
            manual = manual.convolve(&d);
        }
        let fast = d.self_convolve(5);
        assert!(fast.max_abs_diff(&manual) < 1e-14);
    }

    #[test]
    fn self_convolve_zero_is_identity() {
        let d = dist(&[0.2, 0.8]);
        let id = d.self_convolve(0);
        assert_eq!(id.pmf(0), 1.0);
        assert!(d.convolve(&id).max_abs_diff(&d) < 1e-15);
    }

    #[test]
    fn convolution_preserves_mass_and_mean() {
        let a = dist(&[0.1, 0.2, 0.7]);
        let b = dist(&[0.4, 0.6]);
        let c = a.convolve(&b);
        assert!((c.total_mass() - 1.0).abs() < 1e-12);
        assert!((c.mean() - (a.mean() + b.mean())).abs() < 1e-12);
    }

    #[test]
    fn mixture_combines_mass() {
        let a = DiscreteDist::point_mass(0);
        let b = DiscreteDist::point_mass(2);
        let m = DiscreteDist::mixture(&[(0.25, a), (0.75, b)]).unwrap();
        assert!((m.pmf(0) - 0.25).abs() < 1e-15);
        assert!((m.pmf(2) - 0.75).abs() < 1e-15);
    }

    #[test]
    fn truncated_discards_tail() {
        let d = dist(&[0.2, 0.3, 0.4, 0.1]);
        let t = d.truncated(1);
        assert_eq!(t.support_max(), 1);
        assert!((t.total_mass() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn in_place_kernels_are_bit_identical_to_allocating() {
        let a = dist(&[0.1, 0.0, 0.2, 0.7]);
        let b = dist(&[0.4, 0.35, 0.25]);
        let mut scratch = Vec::new();

        let mut x = a.clone();
        x.convolve_in_place(&b, &mut scratch);
        let plain = a.convolve(&b);
        assert_eq!(x.as_slice().len(), plain.as_slice().len());
        for (got, want) in x.as_slice().iter().zip(plain.as_slice()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }

        let mut y = a.clone();
        y.convolve_saturating_in_place(&b, 2, &mut scratch);
        let sat = a.convolve_saturating(&b, 2);
        assert_eq!(y.as_slice().len(), sat.as_slice().len());
        for (got, want) in y.as_slice().iter().zip(sat.as_slice()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn truncate_tail_mass_zero_eps_is_a_no_op() {
        let mut d = dist(&[0.5, 0.3, 0.0, 0.0]);
        let before = d.clone();
        assert_eq!(d.truncate_tail_mass(0.0), 0.0);
        assert_eq!(d.truncate_tail_mass(-1.0), 0.0);
        assert_eq!(d, before);
        assert_eq!(d.support_max(), 3);
    }

    #[test]
    fn truncate_tail_mass_respects_bound_and_keeps_head() {
        let mut d = dist(&[0.5, 0.3, 0.1, 0.05, 0.04]);
        let dropped = d.truncate_tail_mass(0.1);
        assert!((dropped - 0.09).abs() < 1e-15);
        assert!(dropped <= 0.1);
        assert_eq!(d.support_max(), 2);

        // eps larger than everything still keeps one entry.
        let mut p = dist(&[0.2, 0.1]);
        let gone = p.truncate_tail_mass(10.0);
        assert!((gone - 0.1).abs() < 1e-15);
        assert_eq!(p.support_max(), 0);
    }

    #[test]
    fn saturating_equals_truncate_of_tail_merge() {
        // Saturating convolution == plain convolution with tail merged at cap.
        let a = dist(&[0.3, 0.3, 0.4]);
        let b = dist(&[0.5, 0.25, 0.25]);
        let cap = 2;
        let sat = a.convolve_saturating(&b, cap);
        let plain = a.convolve(&b);
        for k in 0..cap {
            assert!((sat.pmf(k) - plain.pmf(k)).abs() < 1e-15);
        }
        assert!((sat.pmf(cap) - plain.tail_sum(cap)).abs() < 1e-15);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_dist(max_len: usize) -> impl Strategy<Value = DiscreteDist> {
        proptest::collection::vec(0.0f64..1.0, 1..max_len).prop_map(|raw| {
            let total: f64 = raw.iter().sum();
            let scale = if total > 0.0 { 0.999 / total } else { 0.0 };
            let mut v: Vec<f64> = raw.iter().map(|x| x * scale).collect();
            if total == 0.0 {
                v[0] = 1.0;
            }
            DiscreteDist::new(v).unwrap()
        })
    }

    proptest! {
        #[test]
        fn convolution_commutes(a in arb_dist(8), b in arb_dist(8)) {
            let ab = a.convolve(&b);
            let ba = b.convolve(&a);
            prop_assert!(ab.max_abs_diff(&ba) < 1e-12);
        }

        #[test]
        fn convolution_associates(a in arb_dist(6), b in arb_dist(6), c in arb_dist(6)) {
            let left = a.convolve(&b).convolve(&c);
            let right = a.convolve(&b.convolve(&c));
            prop_assert!(left.max_abs_diff(&right) < 1e-12);
        }

        #[test]
        fn mass_multiplies_under_convolution(a in arb_dist(8), b in arb_dist(8)) {
            let c = a.convolve(&b);
            prop_assert!((c.total_mass() - a.total_mass() * b.total_mass()).abs() < 1e-10);
        }

        #[test]
        fn saturating_preserves_mass(a in arb_dist(8), b in arb_dist(8), cap in 0usize..12) {
            let c = a.convolve_saturating(&b, cap);
            prop_assert!((c.total_mass() - a.total_mass() * b.total_mass()).abs() < 1e-10);
        }

        #[test]
        fn saturating_tail_matches_plain(a in arb_dist(8), b in arb_dist(8), k in 0usize..6) {
            // For any threshold k <= cap, tail sums agree.
            let cap = 10usize;
            let sat = a.convolve_saturating(&b, cap);
            let plain = a.convolve(&b);
            prop_assert!((sat.tail_sum(k) - plain.tail_sum(k)).abs() < 1e-10);
        }

        #[test]
        fn normalized_has_unit_mass(a in arb_dist(10)) {
            prop_assert!((a.normalized().total_mass() - 1.0).abs() < 1e-12);
        }

        #[test]
        fn truncate_tail_mass_never_exceeds_eps(a in arb_dist(12), eps in 0.0f64..0.5) {
            let mut t = a.clone();
            let dropped = t.truncate_tail_mass(eps);
            prop_assert!(dropped <= eps);
            prop_assert!((a.total_mass() - t.total_mass() - dropped).abs() < 1e-12);
            // The trimmed distribution differs from the original by at most
            // the discarded mass, pointwise.
            prop_assert!(a.max_abs_diff(&t) <= dropped + 1e-15);
        }

        #[test]
        fn in_place_saturating_matches_allocating(
            a in arb_dist(8),
            b in arb_dist(8),
            cap in 0usize..12,
        ) {
            let mut x = a.clone();
            let mut scratch = Vec::new();
            x.convolve_saturating_in_place(&b, cap, &mut scratch);
            let want = a.convolve_saturating(&b, cap);
            prop_assert_eq!(x.as_slice().len(), want.as_slice().len());
            for (g, w) in x.as_slice().iter().zip(want.as_slice()) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }
}
