//! System parameters shared by all analytical models.

use crate::CoreError;
use gbd_geometry::subarea::ms_periods;

/// The complete parameter set of the paper's system model.
///
/// | Symbol | Field | Paper default |
/// |--------|-------|---------------|
/// | `S`    | `field_width × field_height` | 32 000 m × 32 000 m |
/// | `N`    | `n_sensors` | 60–240 |
/// | `Rs`   | `sensing_range` | 1 000 m |
/// | `V`    | `speed` | 4 or 10 m/s |
/// | `t`    | `period_s` | 60 s |
/// | `Pd`   | `pd` | 0.9 |
/// | `M`    | `m_periods` | 20 |
/// | `k`    | `k` | 5 |
///
/// Construct with [`SystemParams::new`] or start from
/// [`SystemParams::paper_defaults`] and adjust with the `with_*` methods.
///
/// # Example
///
/// ```
/// use gbd_core::params::SystemParams;
///
/// let p = SystemParams::paper_defaults().with_n_sensors(120).with_speed(4.0);
/// assert_eq!(p.n_sensors(), 120);
/// assert_eq!(p.ms(), 9); // ceil(2*1000 / (4*60))
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemParams {
    field_width: f64,
    field_height: f64,
    n_sensors: usize,
    sensing_range: f64,
    speed: f64,
    period_s: f64,
    pd: f64,
    m_periods: usize,
    k: usize,
}

impl SystemParams {
    /// The evaluation settings of the paper's §4 ("suggested by researchers
    /// at the Office of Naval Research"): 32 km × 32 km field, `Rs` = 1 km,
    /// `t` = 1 min, `Pd` = 0.9, `M` = 20, `k` = 5, `V` = 10 m/s, `N` = 240.
    pub fn paper_defaults() -> Self {
        SystemParams {
            field_width: 32_000.0,
            field_height: 32_000.0,
            n_sensors: 240,
            sensing_range: 1_000.0,
            speed: 10.0,
            period_s: 60.0,
            pd: 0.9,
            m_periods: 20,
            k: 5,
        }
    }

    /// Creates a fully validated parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if any dimension, range,
    /// speed or period is not finite and positive, `pd` is outside
    /// `[0, 1]`, `m_periods == 0`, or `k == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        field_width: f64,
        field_height: f64,
        n_sensors: usize,
        sensing_range: f64,
        speed: f64,
        period_s: f64,
        pd: f64,
        m_periods: usize,
        k: usize,
    ) -> Result<Self, CoreError> {
        fn pos(name: &'static str, v: f64) -> Result<(), CoreError> {
            if !v.is_finite() || v <= 0.0 {
                return Err(CoreError::InvalidParameter {
                    name,
                    constraint: "must be finite and positive",
                });
            }
            Ok(())
        }
        pos("field_width", field_width)?;
        pos("field_height", field_height)?;
        pos("sensing_range", sensing_range)?;
        pos("speed", speed)?;
        pos("period_s", period_s)?;
        if !(0.0..=1.0).contains(&pd) || !pd.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "pd",
                constraint: "must be in [0, 1]",
            });
        }
        if m_periods == 0 {
            return Err(CoreError::InvalidParameter {
                name: "m_periods",
                constraint: "must be at least 1",
            });
        }
        if k == 0 {
            return Err(CoreError::InvalidParameter {
                name: "k",
                constraint: "must be at least 1",
            });
        }
        Ok(SystemParams {
            field_width,
            field_height,
            n_sensors,
            sensing_range,
            speed,
            period_s,
            pd,
            m_periods,
            k,
        })
    }

    /// Field width in meters.
    pub fn field_width(&self) -> f64 {
        self.field_width
    }

    /// Field height in meters.
    pub fn field_height(&self) -> f64 {
        self.field_height
    }

    /// Field area `S` in m².
    pub fn field_area(&self) -> f64 {
        self.field_width * self.field_height
    }

    /// Number of deployed sensors `N`.
    pub fn n_sensors(&self) -> usize {
        self.n_sensors
    }

    /// Sensing range `Rs` in meters.
    pub fn sensing_range(&self) -> f64 {
        self.sensing_range
    }

    /// Target speed `V` in m/s.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Sensing-period length `t` in seconds.
    pub fn period_s(&self) -> f64 {
        self.period_s
    }

    /// Per-period detection probability `Pd` of a sensor covering the
    /// target.
    pub fn pd(&self) -> f64 {
        self.pd
    }

    /// Number of sensing periods `M` in the group-detection window.
    pub fn m_periods(&self) -> usize {
        self.m_periods
    }

    /// Report threshold `k` of the group-detection rule.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Distance traveled per sensing period, `V·t`.
    pub fn step(&self) -> f64 {
        self.speed * self.period_s
    }

    /// `ms = ceil(2·Rs / (V·t))`: periods needed to traverse a DR diameter.
    pub fn ms(&self) -> usize {
        ms_periods(self.sensing_range, self.step())
    }

    /// Area of one period's Detectable Region, `2·Rs·V·t + π·Rs²`.
    pub fn dr_area(&self) -> f64 {
        2.0 * self.sensing_range * self.step()
            + std::f64::consts::PI * self.sensing_range * self.sensing_range
    }

    /// Area of the Aggregate Region over `M` periods,
    /// `2·M·Rs·V·t + π·Rs²`.
    pub fn aregion_area(&self) -> f64 {
        2.0 * self.m_periods as f64 * self.sensing_range * self.step()
            + std::f64::consts::PI * self.sensing_range * self.sensing_range
    }

    /// Returns a copy with a different sensor count.
    pub fn with_n_sensors(mut self, n: usize) -> Self {
        self.n_sensors = n;
        self
    }

    /// Fallible version of [`SystemParams::with_n_sensors`].
    ///
    /// Never fails today (every `usize` sensor count is a valid model
    /// input, including 0); exists so callers building parameters from
    /// untrusted input can treat every field uniformly.
    pub fn try_with_n_sensors(self, n: usize) -> Result<Self, CoreError> {
        Ok(self.with_n_sensors(n))
    }

    /// Returns a copy with a different target speed, or
    /// [`CoreError::InvalidParameter`] if `speed` is not finite and
    /// positive.
    pub fn try_with_speed(mut self, speed: f64) -> Result<Self, CoreError> {
        if !speed.is_finite() || speed <= 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "speed",
                constraint: "must be finite and positive",
            });
        }
        self.speed = speed;
        Ok(self)
    }

    /// Returns a copy with a different target speed.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not finite and positive; see
    /// [`SystemParams::try_with_speed`] for the fallible form.
    pub fn with_speed(self, speed: f64) -> Self {
        self.try_with_speed(speed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Returns a copy with a different report threshold `k`, or
    /// [`CoreError::InvalidParameter`] if `k == 0`.
    pub fn try_with_k(mut self, k: usize) -> Result<Self, CoreError> {
        if k == 0 {
            return Err(CoreError::InvalidParameter {
                name: "k",
                constraint: "must be at least 1",
            });
        }
        self.k = k;
        Ok(self)
    }

    /// Returns a copy with a different report threshold `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`; see [`SystemParams::try_with_k`] for the
    /// fallible form.
    pub fn with_k(self, k: usize) -> Self {
        self.try_with_k(k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Returns a copy with a different window length `M`, or
    /// [`CoreError::InvalidParameter`] if `m == 0`.
    pub fn try_with_m_periods(mut self, m: usize) -> Result<Self, CoreError> {
        if m == 0 {
            return Err(CoreError::InvalidParameter {
                name: "m_periods",
                constraint: "must be at least 1",
            });
        }
        self.m_periods = m;
        Ok(self)
    }

    /// Returns a copy with a different window length `M`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`; see [`SystemParams::try_with_m_periods`] for the
    /// fallible form.
    pub fn with_m_periods(self, m: usize) -> Self {
        self.try_with_m_periods(m).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Returns a copy with a different per-period detection probability, or
    /// [`CoreError::InvalidParameter`] if `pd` is outside `[0, 1]`.
    pub fn try_with_pd(mut self, pd: f64) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&pd) || !pd.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "pd",
                constraint: "must be in [0, 1]",
            });
        }
        self.pd = pd;
        Ok(self)
    }

    /// Returns a copy with a different per-period detection probability.
    ///
    /// # Panics
    ///
    /// Panics if `pd` is outside `[0, 1]`; see
    /// [`SystemParams::try_with_pd`] for the fallible form.
    pub fn with_pd(self, pd: f64) -> Self {
        self.try_with_pd(pd).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Returns a copy with a different sensing range, or
    /// [`CoreError::InvalidParameter`] if `rs` is not finite and positive.
    pub fn try_with_sensing_range(mut self, rs: f64) -> Result<Self, CoreError> {
        if !rs.is_finite() || rs <= 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "sensing_range",
                constraint: "must be finite and positive",
            });
        }
        self.sensing_range = rs;
        Ok(self)
    }

    /// Returns a copy with a different sensing range.
    ///
    /// # Panics
    ///
    /// Panics if `rs` is not finite and positive; see
    /// [`SystemParams::try_with_sensing_range`] for the fallible form.
    pub fn with_sensing_range(self, rs: f64) -> Self {
        self.try_with_sensing_range(rs)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

impl Default for SystemParams {
    /// Same as [`SystemParams::paper_defaults`].
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_derived_quantities() {
        let p = SystemParams::paper_defaults();
        assert_eq!(p.field_area(), 32_000.0 * 32_000.0);
        assert_eq!(p.step(), 600.0);
        assert_eq!(p.ms(), 4);
        let dr = 2.0 * 1000.0 * 600.0 + std::f64::consts::PI * 1e6;
        assert!((p.dr_area() - dr).abs() < 1e-6);
        let ar = 2.0 * 20.0 * 1000.0 * 600.0 + std::f64::consts::PI * 1e6;
        assert!((p.aregion_area() - ar).abs() < 1e-6);
    }

    #[test]
    fn slow_target_ms() {
        let p = SystemParams::paper_defaults().with_speed(4.0);
        assert_eq!(p.ms(), 9);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let ok = SystemParams::new(1.0, 1.0, 1, 1.0, 1.0, 1.0, 0.5, 1, 1);
        assert!(ok.is_ok());
        assert!(SystemParams::new(0.0, 1.0, 1, 1.0, 1.0, 1.0, 0.5, 1, 1).is_err());
        assert!(SystemParams::new(1.0, 1.0, 1, 1.0, 1.0, 1.0, 1.5, 1, 1).is_err());
        assert!(SystemParams::new(1.0, 1.0, 1, 1.0, 1.0, 1.0, 0.5, 0, 1).is_err());
        assert!(SystemParams::new(1.0, 1.0, 1, 1.0, 1.0, 1.0, 0.5, 1, 0).is_err());
        assert!(SystemParams::new(1.0, 1.0, 1, -2.0, 1.0, 1.0, 0.5, 1, 1).is_err());
    }

    #[test]
    fn with_methods_update_fields() {
        let p = SystemParams::paper_defaults()
            .with_n_sensors(60)
            .with_speed(4.0)
            .with_k(3)
            .with_m_periods(10)
            .with_pd(0.8)
            .with_sensing_range(500.0);
        assert_eq!(p.n_sensors(), 60);
        assert_eq!(p.speed(), 4.0);
        assert_eq!(p.k(), 3);
        assert_eq!(p.m_periods(), 10);
        assert_eq!(p.pd(), 0.8);
        assert_eq!(p.sensing_range(), 500.0);
    }

    #[test]
    #[should_panic(expected = "must be at least 1")]
    fn with_k_zero_panics() {
        SystemParams::paper_defaults().with_k(0);
    }

    #[test]
    fn try_with_methods_validate() {
        let p = SystemParams::paper_defaults();
        assert_eq!(p.try_with_speed(4.0).unwrap().speed(), 4.0);
        assert!(p.try_with_speed(0.0).is_err());
        assert!(p.try_with_speed(f64::NAN).is_err());
        assert_eq!(p.try_with_k(3).unwrap().k(), 3);
        assert!(p.try_with_k(0).is_err());
        assert_eq!(p.try_with_m_periods(7).unwrap().m_periods(), 7);
        assert!(p.try_with_m_periods(0).is_err());
        assert_eq!(p.try_with_pd(0.5).unwrap().pd(), 0.5);
        assert!(p.try_with_pd(1.5).is_err());
        assert_eq!(
            p.try_with_sensing_range(500.0).unwrap().sensing_range(),
            500.0
        );
        assert!(p.try_with_sensing_range(-1.0).is_err());
        assert_eq!(p.try_with_n_sensors(60).unwrap().n_sensors(), 60);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(SystemParams::default(), SystemParams::paper_defaults());
    }
}
