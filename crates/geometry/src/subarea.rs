//! Sizes of the coverage subareas of the paper's analytical model.
//!
//! For a target moving along a straight line, the Detectable Region of
//! period `j` is the stadium around the segment `[c_{j−1}, c_j]` traversed
//! during that period (`c_j` = cumulative distance after `j` periods). The
//! M-S-approach partitions each period's **Newly Explored Detectable
//! Region** (NEDR) into subareas by *how many periods* a sensor placed there
//! covers the target:
//!
//! * Head stage (period 1): `AreaH(i)`, Eq (6);
//! * Body stage (periods `2 ..= M − ms`): `AreaB(i)`, Eq (8);
//! * Tail stage (periods `M − ms + 1 ..= M`): `AreaT_j(i)`, Eq (10).
//!
//! Two implementations are provided and cross-checked against each other and
//! against Monte Carlo sampling of the raw stadium definitions:
//!
//! * [`area_h_eq6`], [`area_b_eq8`], [`area_t_eq10`] — the paper's
//!   constant-speed closed forms, transcribed literally;
//! * [`SubareaTable`] — a generalized computation that accepts *arbitrary
//!   per-period step lengths* (the paper's §6 "varying speeds" future work),
//!   built on the identity that for collinear motion
//!   `DR(l) ∩ DR(j) = disk(c_l) ∩ disk(c_{j−1})` for `j ≥ l + 1`
//!   (the distance-to-segment function is convex along the track, so the
//!   middle constraint is implied by the outer two).

use crate::circle::lens_area;

/// Number of sensing periods a target needs to traverse one DR diameter:
/// `ms = ceil(2·Rs / step)` where `step = V·t`.
///
/// # Panics
///
/// Panics if `rs` or `step` is not finite and strictly positive.
///
/// # Example
///
/// ```
/// use gbd_geometry::subarea::ms_periods;
/// // Paper settings: Rs = 1000 m, V = 10 m/s, t = 60 s.
/// assert_eq!(ms_periods(1000.0, 600.0), 4);
/// // V = 4 m/s: step 240 m.
/// assert_eq!(ms_periods(1000.0, 240.0), 9);
/// ```
pub fn ms_periods(rs: f64, step: f64) -> usize {
    assert!(rs.is_finite() && rs > 0.0, "rs must be finite and > 0");
    assert!(
        step.is_finite() && step > 0.0,
        "step must be finite and > 0"
    );
    (2.0 * rs / step).ceil() as usize
}

/// `AreaH(i)` for `i = 1 ..= ms + 1` — the paper's Eq (6), transcribed
/// literally (including its running-sum form).
///
/// Entry `[i − 1]` is the area within the DR of period 1 in which a sensor
/// covers the target for exactly `i` periods.
///
/// # Panics
///
/// Panics if `rs` or `step` is invalid (see [`ms_periods`]).
pub fn area_h_eq6(rs: f64, step: f64) -> Vec<f64> {
    let ms = ms_periods(rs, step);
    let vt = step;
    let mut areas = vec![0.0; ms + 1];
    for i in 1..=ms + 1 {
        areas[i - 1] = if i == 1 {
            2.0 * rs * vt
        } else if i < ms + 1 {
            let prev: f64 = areas[1..i - 1].iter().sum();
            std::f64::consts::PI * rs * rs - lens_area(rs, (i - 1) as f64 * vt) - prev
        } else {
            lens_area(rs, (i - 2) as f64 * vt)
        };
        // Guard against floating point producing tiny negatives.
        areas[i - 1] = areas[i - 1].max(0.0);
    }
    areas
}

/// `AreaB(i)` for `i = 1 ..= ms + 1` — the paper's Eq (8):
/// `AreaB(i) = AreaH(i) − AreaH(i+1)` for `i ≤ ms`, `AreaB(ms+1) = AreaH(ms+1)`.
///
/// # Panics
///
/// Panics if `area_h` is empty.
pub fn area_b_eq8(area_h: &[f64]) -> Vec<f64> {
    assert!(!area_h.is_empty(), "area_h must be non-empty");
    let n = area_h.len();
    (0..n)
        .map(|idx| {
            if idx + 1 < n {
                (area_h[idx] - area_h[idx + 1]).max(0.0)
            } else {
                area_h[idx]
            }
        })
        .collect()
}

/// `AreaT_j(i)` for `i = 1 ..= ms + 1 − j` — the paper's Eq (10):
/// `AreaT_j(i) = AreaB(i)` for `i ≤ ms − j`, and the tail sum
/// `Σ_{m = ms+1−j}^{ms+1} AreaB(m)` for `i = ms + 1 − j`.
///
/// `j` ranges over `1 ..= ms` (period `T_j` is period `M − ms + j`).
///
/// # Panics
///
/// Panics if `j` is outside `1 ..= ms` where `ms = area_b.len() − 1`.
pub fn area_t_eq10(area_b: &[f64], j: usize) -> Vec<f64> {
    let ms = area_b.len() - 1;
    assert!((1..=ms).contains(&j), "tail step j={j} must be in 1..={ms}");
    let mut out = Vec::with_capacity(ms + 1 - j);
    for i in 1..=ms + 1 - j {
        if i <= ms - j {
            out.push(area_b[i - 1]);
        } else {
            out.push(area_b[ms - j..=ms].iter().sum());
        }
    }
    out
}

/// Per-period NEDR subarea sizes for a straight-line track with arbitrary
/// per-period step lengths.
///
/// The table owns the cumulative track positions `c_0 ..= c_M` and exposes,
/// for every period `l`, the vector of subarea sizes of the period's NEDR
/// indexed by coverage count. For constant steps it reproduces Eqs (6), (8)
/// and (10) exactly; for varying steps it generalizes them.
///
/// # Example
///
/// ```
/// use gbd_geometry::subarea::SubareaTable;
///
/// let table = SubareaTable::constant_speed(1000.0, 600.0, 20);
/// // The head NEDR is the full first-period DR.
/// let total: f64 = table.subareas(1).iter().sum();
/// let dr1 = 2.0 * 1000.0 * 600.0 + std::f64::consts::PI * 1000.0f64.powi(2);
/// assert!((total - dr1).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SubareaTable {
    rs: f64,
    /// Cumulative positions `c_0 ..= c_M` along the track.
    cumulative: Vec<f64>,
}

impl SubareaTable {
    /// Builds the table for `m_periods` periods of equal step length.
    ///
    /// # Panics
    ///
    /// Panics if `rs` or `step` is not finite and positive, or if
    /// `m_periods == 0`.
    pub fn constant_speed(rs: f64, step: f64, m_periods: usize) -> Self {
        assert!(m_periods > 0, "need at least one sensing period");
        assert!(
            step.is_finite() && step > 0.0,
            "step must be finite and > 0"
        );
        Self::from_steps(rs, &vec![step; m_periods])
    }

    /// Builds the table from explicit per-period step lengths (distance
    /// traveled in each period). Steps may vary but must be non-negative;
    /// a zero step models a target that pauses for a period.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty, `rs` is invalid, or any step is negative
    /// or not finite.
    pub fn from_steps(rs: f64, steps: &[f64]) -> Self {
        assert!(rs.is_finite() && rs > 0.0, "rs must be finite and > 0");
        assert!(!steps.is_empty(), "need at least one sensing period");
        let mut cumulative = Vec::with_capacity(steps.len() + 1);
        cumulative.push(0.0);
        for &s in steps {
            assert!(s.is_finite() && s >= 0.0, "steps must be finite and >= 0");
            cumulative.push(cumulative.last().unwrap() + s);
        }
        SubareaTable { rs, cumulative }
    }

    /// Sensing range used to build the table.
    pub fn rs(&self) -> f64 {
        self.rs
    }

    /// Number of sensing periods `M`.
    pub fn m_periods(&self) -> usize {
        self.cumulative.len() - 1
    }

    /// Step length of period `l` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `l` is outside `1 ..= M`.
    pub fn step(&self, l: usize) -> f64 {
        self.check_period(l);
        self.cumulative[l] - self.cumulative[l - 1]
    }

    /// Area of the NEDR of period `l`: the full DR for `l = 1`
    /// (`2·Rs·L₁ + π·Rs²`), the crescent `2·Rs·L_l` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `l` is outside `1 ..= M`.
    pub fn nedr_area(&self, l: usize) -> f64 {
        self.check_period(l);
        if l == 1 {
            2.0 * self.rs * self.step(1) + std::f64::consts::PI * self.rs * self.rs
        } else {
            2.0 * self.rs * self.step(l)
        }
    }

    /// Total area of the Aggregate Region (union of all DRs):
    /// `2·Rs·(total distance) + π·Rs²`.
    pub fn aregion_area(&self) -> f64 {
        2.0 * self.rs * self.cumulative[self.m_periods()]
            + std::f64::consts::PI * self.rs * self.rs
    }

    /// `|NEDR(l) ∩ {covered for ≥ i periods}|` — the cumulative coverage
    /// area. `i = 1` gives the NEDR area itself.
    fn cumulative_coverage(&self, l: usize, i: usize) -> f64 {
        debug_assert!(i >= 1);
        if i == 1 {
            return self.nedr_area(l);
        }
        let m = self.m_periods();
        if l + i - 1 > m {
            return 0.0;
        }
        // Coverage for >= i periods within NEDR(l) means the point lies in
        // DR(l) and DR(l + i − 1) (convexity implies the periods between),
        // and, for l > 1, outside DR(l − 1).
        let far_left = self.cumulative[l + i - 2]; // left end of DR(l+i−1)
        let own_right = self.cumulative[l]; // right end of DR(l)
        let with_own = lens_area(self.rs, (far_left - own_right).max(0.0));
        if l == 1 {
            with_own
        } else {
            let prev_right = self.cumulative[l - 1];
            (with_own - lens_area(self.rs, (far_left - prev_right).max(0.0))).max(0.0)
        }
    }

    /// Subarea sizes of the NEDR of period `l`, indexed by coverage count:
    /// entry `[i − 1]` is the area where a sensor covers the target for
    /// exactly `i` periods *up to period M*. The vector has `M − l + 1`
    /// entries; trailing entries may be zero once the track outruns the DR.
    ///
    /// # Panics
    ///
    /// Panics if `l` is outside `1 ..= M`.
    pub fn subareas(&self, l: usize) -> Vec<f64> {
        self.check_period(l);
        let imax = self.m_periods() - l + 1;
        let mut out = Vec::with_capacity(imax);
        let mut cum_i = self.cumulative_coverage(l, 1);
        for i in 1..=imax {
            let cum_next = if i < imax {
                self.cumulative_coverage(l, i + 1)
            } else {
                0.0
            };
            out.push((cum_i - cum_next).max(0.0));
            cum_i = cum_next;
        }
        out
    }

    /// Aggregated `Region(i)` sizes over the whole ARegion (the S-approach
    /// partition): entry `[i − 1]` is the total area in which a sensor
    /// covers the target for exactly `i` of the `M` periods.
    pub fn region_sizes(&self) -> Vec<f64> {
        let m = self.m_periods();
        let mut out = vec![0.0; m];
        for l in 1..=m {
            for (idx, a) in self.subareas(l).into_iter().enumerate() {
                out[idx] += a;
            }
        }
        // Trim trailing zero regions (coverage counts never attained).
        while out.len() > 1 && *out.last().unwrap() == 0.0 {
            out.pop();
        }
        out
    }

    fn check_period(&self, l: usize) {
        assert!(
            (1..=self.m_periods()).contains(&l),
            "period {l} out of range 1..={}",
            self.m_periods()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const RS: f64 = 1000.0;

    #[test]
    fn ms_periods_examples() {
        assert_eq!(ms_periods(1000.0, 600.0), 4); // paper V=10 m/s
        assert_eq!(ms_periods(1000.0, 240.0), 9); // paper V=4 m/s
        assert_eq!(ms_periods(1000.0, 2000.0), 1); // exactly one period
        assert_eq!(ms_periods(1000.0, 2500.0), 1); // faster than 2Rs/period
    }

    #[test]
    fn area_h_partitions_dr1() {
        for step in [240.0, 600.0, 1000.0, 2500.0] {
            let h = area_h_eq6(RS, step);
            let total: f64 = h.iter().sum();
            let dr1 = 2.0 * RS * step + PI * RS * RS;
            assert!((total - dr1).abs() < 1e-6, "step={step}: {total} vs {dr1}");
            assert!(h.iter().all(|&a| a >= 0.0));
        }
    }

    #[test]
    fn area_h_first_entry_is_2rsvt() {
        let h = area_h_eq6(RS, 600.0);
        assert!((h[0] - 2.0 * RS * 600.0).abs() < 1e-9);
    }

    #[test]
    fn area_b_partitions_crescent() {
        for step in [240.0, 600.0] {
            let h = area_h_eq6(RS, step);
            let b = area_b_eq8(&h);
            let total: f64 = b.iter().sum();
            assert!((total - 2.0 * RS * step).abs() < 1e-6, "step={step}");
            assert!(b.iter().all(|&a| a >= 0.0));
        }
    }

    #[test]
    fn area_t_partitions_crescent_and_shrinks() {
        let h = area_h_eq6(RS, 600.0);
        let b = area_b_eq8(&h);
        let ms = b.len() - 1;
        for j in 1..=ms {
            let t = area_t_eq10(&b, j);
            assert_eq!(t.len(), ms + 1 - j);
            let total: f64 = t.iter().sum();
            assert!((total - 2.0 * RS * 600.0).abs() < 1e-6, "j={j}");
        }
    }

    #[test]
    fn area_t_last_step_is_whole_crescent() {
        let h = area_h_eq6(RS, 600.0);
        let b = area_b_eq8(&h);
        let ms = b.len() - 1;
        let t = area_t_eq10(&b, ms);
        assert_eq!(t.len(), 1);
        assert!((t[0] - 2.0 * RS * 600.0).abs() < 1e-6);
    }

    #[test]
    fn table_matches_eq6_head() {
        let m = 20;
        let table = SubareaTable::constant_speed(RS, 600.0, m);
        let h = area_h_eq6(RS, 600.0);
        let sub = table.subareas(1);
        for (i, &expect) in h.iter().enumerate() {
            assert!(
                (sub[i] - expect).abs() < 1e-6,
                "i={i}: {} vs {expect}",
                sub[i]
            );
        }
        // Beyond ms+1 coverage the subareas are zero.
        for &a in &sub[h.len()..] {
            assert_eq!(a, 0.0);
        }
    }

    #[test]
    fn table_matches_eq8_body() {
        let table = SubareaTable::constant_speed(RS, 600.0, 20);
        let b = area_b_eq8(&area_h_eq6(RS, 600.0));
        // Any body period (2 ..= M − ms) must equal Eq (8).
        for l in [2usize, 7, 16] {
            let sub = table.subareas(l);
            for (i, &expect) in b.iter().enumerate() {
                assert!((sub[i] - expect).abs() < 1e-6, "l={l} i={i}");
            }
        }
    }

    #[test]
    fn table_matches_eq10_tail() {
        let m = 20;
        let table = SubareaTable::constant_speed(RS, 600.0, m);
        let b = area_b_eq8(&area_h_eq6(RS, 600.0));
        let ms = b.len() - 1;
        for j in 1..=ms {
            let l = m - ms + j;
            let sub = table.subareas(l);
            let t = area_t_eq10(&b, j);
            assert_eq!(sub.len(), t.len(), "j={j}");
            for (i, &expect) in t.iter().enumerate() {
                assert!((sub[i] - expect).abs() < 1e-6, "j={j} i={i}");
            }
        }
    }

    #[test]
    fn table_slow_target_matches_eq_forms_too() {
        // V = 4 m/s: ms = 9, exercising a long overlap chain.
        let m = 20;
        let step = 240.0;
        let table = SubareaTable::constant_speed(RS, step, m);
        let h = area_h_eq6(RS, step);
        let b = area_b_eq8(&h);
        let sub1 = table.subareas(1);
        for (i, &e) in h.iter().enumerate() {
            assert!((sub1[i] - e).abs() < 1e-6, "head i={i}");
        }
        let sub5 = table.subareas(5);
        for (i, &e) in b.iter().enumerate() {
            assert!((sub5[i] - e).abs() < 1e-6, "body i={i}");
        }
    }

    #[test]
    fn region_sizes_partition_aregion() {
        let table = SubareaTable::constant_speed(RS, 600.0, 20);
        let total: f64 = table.region_sizes().iter().sum();
        assert!((total - table.aregion_area()).abs() < 1e-5);
    }

    #[test]
    fn varying_steps_still_partition() {
        let steps = [600.0, 200.0, 900.0, 0.0, 450.0, 600.0, 600.0, 120.0];
        let table = SubareaTable::from_steps(RS, &steps);
        let mut total = 0.0;
        for l in 1..=table.m_periods() {
            let s: f64 = table.subareas(l).iter().sum();
            assert!((s - table.nedr_area(l)).abs() < 1e-6, "period {l}");
            total += s;
        }
        assert!((total - table.aregion_area()).abs() < 1e-5);
    }

    #[test]
    fn pause_period_has_empty_nedr() {
        let table = SubareaTable::from_steps(RS, &[600.0, 0.0, 600.0]);
        assert_eq!(table.nedr_area(2), 0.0);
        assert!(table.subareas(2).iter().all(|&a| a == 0.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn period_zero_panics() {
        SubareaTable::constant_speed(RS, 600.0, 5).subareas(0);
    }

    #[test]
    #[should_panic(expected = "tail step")]
    fn area_t_bad_j_panics() {
        let b = area_b_eq8(&area_h_eq6(RS, 600.0));
        area_t_eq10(&b, 99);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_steps() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(0.0f64..2_500.0, 1..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn subareas_partition_every_nedr(steps in arb_steps()) {
            let rs = 1000.0;
            let table = SubareaTable::from_steps(rs, &steps);
            for l in 1..=table.m_periods() {
                let total: f64 = table.subareas(l).iter().sum();
                prop_assert!((total - table.nedr_area(l)).abs() < 1e-5,
                    "period {l}: {total} vs {}", table.nedr_area(l));
            }
        }

        #[test]
        fn region_sizes_partition_aregion_any_steps(steps in arb_steps()) {
            let rs = 800.0;
            let table = SubareaTable::from_steps(rs, &steps);
            let total: f64 = table.region_sizes().iter().sum();
            prop_assert!((total - table.aregion_area()).abs() < 1e-5);
        }

        #[test]
        fn subareas_are_nonnegative(steps in arb_steps()) {
            let table = SubareaTable::from_steps(500.0, &steps);
            for l in 1..=table.m_periods() {
                for a in table.subareas(l) {
                    prop_assert!(a >= 0.0);
                }
            }
        }

        #[test]
        fn constant_speed_matches_eq_forms(step in 150.0f64..2_500.0, m in 2usize..24) {
            // Eq (6) assumes the paper's "general case" M > ms; the table
            // handles M <= ms too (window-truncated coverage), where the
            // closed form intentionally does not apply.
            let rs = 1000.0;
            prop_assume!(m > ms_periods(rs, step));
            let table = SubareaTable::constant_speed(rs, step, m);
            let h = area_h_eq6(rs, step);
            let sub = table.subareas(1);
            for (i, &e) in h.iter().enumerate() {
                prop_assert!((sub[i] - e).abs() < 1e-5, "i={i}: {} vs {e}", sub[i]);
            }
        }

        #[test]
        fn lens_bounded_by_disk(d in 0.0f64..3_000.0) {
            let rs = 1000.0;
            let lens = crate::circle::lens_area(rs, d);
            prop_assert!(lens >= 0.0);
            prop_assert!(lens <= std::f64::consts::PI * rs * rs + 1e-9);
        }
    }
}
