//! The Markov chain based Spatial approach (M-S-approach) — paper §3.4.
//!
//! The Aggregate Region is sliced into per-period NEDRs. For each period a
//! truncated report-count distribution is computed from the period's
//! coverage subareas (`gh` sensors considered in the Head stage, `g` in
//! every Body/Tail stage), and the distributions are assembled with the
//! counting Markov chain of Figures 5–7 / Eq (12). The final distribution
//! is sub-stochastic; Eq (13) normalizes it, and Eq (14) lower-bounds the
//! resulting accuracy.
//!
//! This implementation generalizes the paper's three-stage presentation to
//! arbitrary per-period step lengths (so `M <= ms` and varying speeds are
//! handled uniformly); for constant speed it reproduces the Head/Body/Tail
//! decomposition exactly, which the tests assert against the closed forms
//! of Eqs (6), (8) and (10).

use crate::budget::ComputeBudget;
use crate::params::SystemParams;
use crate::report_dist::{stage_accuracy_with, stage_distribution_with};
use crate::CoreError;
use gbd_geometry::subarea::SubareaTable;
use gbd_markov::counting::CountingChain;
use gbd_markov::scratch::Scratch;
use gbd_stats::binomial::PmfTable;
use gbd_stats::discrete::DiscreteDist;
use std::cell::RefCell;

/// Truncation options of the M-S-approach.
///
/// `gh` caps the number of sensors considered in the Head NEDR, `g` in
/// every Body and Tail NEDR. The paper's evaluation uses `g = gh = 3`
/// ("All our analysis results, when gh and g are 3, are obtained within
/// one minute").
///
/// `eps` optionally trims per-stage report distributions: after each stage
/// distribution is computed, the longest trailing support run carrying at
/// most `eps` total mass is discarded. The mass actually dropped is
/// accumulated over every stage application and surfaced as
/// [`AnalysisResult::truncation_error`], which bounds the pointwise error
/// of the raw assembled distribution. The default `eps = 0` trims nothing
/// and is bit-identical to the exact assembly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsOptions {
    /// Sensor cap per Body/Tail stage (`g`).
    pub g: usize,
    /// Sensor cap in the Head stage (`gh`).
    pub gh: usize,
    /// Per-stage tail-mass truncation budget; `0.0` (the default) disables
    /// trimming. Must lie in `[0, 1)`.
    pub eps: f64,
}

/// `MsOptions` admits `Eq`: `eps` is validated to be finite (never NaN)
/// before any analysis runs, and option values are compared for caching,
/// where bitwise-equal-or-not is exactly the question.
impl Eq for MsOptions {}

impl MsOptions {
    /// Checks the field constraints every analysis entry point enforces:
    /// caps at least 1, `eps` finite and in `[0, 1)`.
    ///
    /// Callers that cache on option values (the engine's geometry layer)
    /// must validate *before* the cache lookup — a warm entry would
    /// otherwise mask the error a cold run reports.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.g == 0 || self.gh == 0 {
            return Err(CoreError::InvalidParameter {
                name: "g/gh",
                constraint: "truncation caps must be at least 1",
            });
        }
        if !self.eps.is_finite() || !(0.0..1.0).contains(&self.eps) {
            return Err(CoreError::InvalidParameter {
                name: "eps",
                constraint: "tail-mass truncation budget must lie in [0, 1)",
            });
        }
        Ok(())
    }
}

impl Default for MsOptions {
    /// The paper's evaluation setting: `g = gh = 3`, no tail trimming.
    fn default() -> Self {
        MsOptions {
            g: 3,
            gh: 3,
            eps: 0.0,
        }
    }
}

/// The outcome of an analytical run: the (sub-stochastic) distribution of
/// total report counts over `M` periods, plus its predicted accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisResult {
    raw: DiscreteDist,
    predicted_accuracy: f64,
    truncation_error: f64,
}

impl AnalysisResult {
    pub(crate) fn new(raw: DiscreteDist, predicted_accuracy: f64) -> Self {
        AnalysisResult {
            raw,
            predicted_accuracy,
            truncation_error: 0.0,
        }
    }

    pub(crate) fn with_truncation(
        raw: DiscreteDist,
        predicted_accuracy: f64,
        truncation_error: f64,
    ) -> Self {
        AnalysisResult {
            raw,
            predicted_accuracy,
            truncation_error,
        }
    }

    /// Rebuilds a result from previously computed parts, for exact
    /// round-tripping through a persistence layer. The parts are trusted
    /// as-is (the raw distribution is already validated by construction);
    /// callers must only feed back values obtained from a real analysis.
    pub fn from_parts(
        raw: DiscreteDist,
        predicted_accuracy: f64,
        truncation_error: f64,
    ) -> Self {
        AnalysisResult {
            raw,
            predicted_accuracy,
            truncation_error,
        }
    }

    /// Accumulated `eps` tail-trimming error: the total probability mass
    /// dropped by [`MsOptions::eps`] truncation over every stage
    /// application of this run. Zero when `eps = 0` (the default). The raw
    /// distribution differs from the exact (untrimmed) assembly by at most
    /// this amount in total mass, and pointwise.
    pub fn truncation_error(&self) -> f64 {
        self.truncation_error
    }

    /// `P_M[X >= k]` with the Eq (13) normalization applied — the
    /// detection probability the paper reports in Figure 9(a).
    pub fn detection_probability(&self, k: usize) -> f64 {
        (self.raw.tail_sum(k) / self.raw.total_mass()).clamp(0.0, 1.0)
    }

    /// `P_M[X >= k]` **without** normalization — the raw truncated tail
    /// shown in Figure 9(b), which undershoots as truncation discards mass.
    pub fn detection_probability_unnormalized(&self, k: usize) -> f64 {
        self.raw.tail_sum(k)
    }

    /// The raw (sub-stochastic) report-count distribution.
    pub fn raw_distribution(&self) -> &DiscreteDist {
        &self.raw
    }

    /// The normalized report-count distribution (Eq (13)).
    pub fn normalized_distribution(&self) -> DiscreteDist {
        self.raw.normalized()
    }

    /// Total retained probability mass (`sum` in the paper's Eq (13)).
    pub fn retained_mass(&self) -> f64 {
        self.raw.total_mass()
    }

    /// The a-priori accuracy bound of Eq (14), `η = ξ_h · ξ^{M−1}`
    /// (generalized to the product of per-stage accuracies).
    ///
    /// The retained mass is exactly this product; the normalized result is
    /// typically *more* accurate than the bound suggests (§4 discusses
    /// why).
    pub fn predicted_accuracy(&self) -> f64 {
        self.predicted_accuracy
    }
}

/// Runs the M-S-approach for a constant-speed straight-line target.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if a truncation cap is zero
/// (a stage that can never see a sensor would make the analysis vacuous).
///
/// # Example
///
/// ```
/// use gbd_core::params::SystemParams;
/// use gbd_core::ms_approach::{analyze, MsOptions};
///
/// # fn main() -> Result<(), gbd_core::CoreError> {
/// let params = SystemParams::paper_defaults();
/// let result = analyze(&params, &MsOptions::default())?;
/// assert!(result.detection_probability(5) > 0.9);
/// # Ok(())
/// # }
/// ```
pub fn analyze(params: &SystemParams, opts: &MsOptions) -> Result<AnalysisResult, CoreError> {
    let steps = vec![params.step(); params.m_periods()];
    analyze_steps(params, &steps, opts)
}

/// Runs the (generalized) M-S-approach for a straight-line target with
/// explicit per-period step lengths — the §6 varying-speed extension.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `steps` is empty, its length
/// differs from `params.m_periods()`, any step is negative, or a cap is 0.
///
/// # Example
///
/// ```
/// use gbd_core::ms_approach::{analyze_steps, MsOptions};
/// use gbd_core::params::SystemParams;
///
/// # fn main() -> Result<(), gbd_core::CoreError> {
/// // A target that stops halfway through the window.
/// let params = SystemParams::paper_defaults();
/// let mut steps = vec![600.0; 20];
/// for s in steps.iter_mut().skip(10) {
///     *s = 0.0;
/// }
/// let paused = analyze_steps(&params, &steps, &MsOptions::default())?;
/// assert!(paused.detection_probability(5) < 0.978); // below the moving case
/// # Ok(())
/// # }
/// ```
pub fn analyze_steps(
    params: &SystemParams,
    steps: &[f64],
    opts: &MsOptions,
) -> Result<AnalysisResult, CoreError> {
    analyze_steps_budgeted(params, steps, opts, &ComputeBudget::unlimited())
}

/// [`analyze_steps`] under a cooperative [`ComputeBudget`]: the per-stage
/// assembly loop checkpoints between stages, so a run whose deadline passes
/// returns [`CoreError::DeadlineExceeded`] (with its stage progress)
/// instead of finishing arbitrarily late. A run that completes is
/// bit-identical to the unbudgeted one.
///
/// # Errors
///
/// Everything [`analyze_steps`] rejects, plus
/// [`CoreError::DeadlineExceeded`] when the budget's deadline trips.
pub fn analyze_steps_budgeted(
    params: &SystemParams,
    steps: &[f64],
    opts: &MsOptions,
    budget: &ComputeBudget,
) -> Result<AnalysisResult, CoreError> {
    MS_SCRATCH
        .with(|s| analyze_steps_budgeted_with(params, steps, opts, budget, &mut s.borrow_mut()))
}

thread_local! {
    /// Per-thread arena backing [`analyze_steps_budgeted`], so every
    /// caller of the plain API gets the allocation-free assembly without
    /// threading a scratch handle.
    static MS_SCRATCH: RefCell<MsScratch> = RefCell::new(MsScratch::new());
}

/// Reusable buffers for one thread's M-S assemblies.
///
/// Owns the counting-chain convolution arena, the per-stage convolution
/// ladder buffers, and the placement pmf table. After the first run of a
/// given geometry every assembly in
/// [`analyze_steps_budgeted_with`] reuses these buffers; the only
/// remaining allocations are the returned stage distributions and result.
#[derive(Debug)]
pub struct MsScratch {
    chain: Scratch,
    qn: DiscreteDist,
    conv: Vec<f64>,
    placement: PmfTable,
}

impl Default for MsScratch {
    fn default() -> Self {
        MsScratch::new()
    }
}

impl MsScratch {
    /// An empty arena; buffers warm up on first use.
    pub fn new() -> Self {
        MsScratch {
            chain: Scratch::new(),
            qn: DiscreteDist::point_mass(0),
            conv: Vec::new(),
            placement: PmfTable::new(),
        }
    }
}

/// [`analyze_steps_budgeted`] through an explicit [`MsScratch`] arena.
///
/// Bit-identical to the seed's allocating implementation for `eps = 0`
/// (the in-place kernels preserve every accumulation order), with two
/// structural speedups on top:
///
/// * **stage dedup** — stages with equal [`StageInput`]s (every Body stage
///   of a constant-speed run) are computed once and reused; recomputation
///   would be bitwise identical, so sharing is observationally free;
/// * **table-backed accuracy** — the placement pmf underlying `ξ` is
///   evaluated through a reusable [`PmfTable`].
///
/// # Errors
///
/// Same contract as [`analyze_steps_budgeted`].
pub fn analyze_steps_budgeted_with(
    params: &SystemParams,
    steps: &[f64],
    opts: &MsOptions,
    budget: &ComputeBudget,
    scratch: &mut MsScratch,
) -> Result<AnalysisResult, CoreError> {
    let inputs = stage_inputs(params.sensing_range(), steps, params.n_sensors(), opts)?;
    if inputs.len() != params.m_periods() {
        return Err(CoreError::InvalidParameter {
            name: "steps",
            constraint: "length must equal m_periods",
        });
    }
    let field_area = params.field_area();
    let n = params.n_sensors();
    let pd = params.pd();
    let support_cap: usize = inputs.iter().map(StageInput::support_bound).sum();
    // Distinct stages, plus per-input index into them. A linear scan is
    // right-sized: M is tens, and StageInput comparison is a short memcmp.
    let mut unique: Vec<(DiscreteDist, f64, f64)> = Vec::with_capacity(inputs.len());
    let mut unique_inputs: Vec<&StageInput> = Vec::with_capacity(inputs.len());
    let mut stage_of: Vec<usize> = Vec::with_capacity(inputs.len());
    for stage in &inputs {
        budget.checkpoint()?;
        let idx = match unique_inputs.iter().position(|u| *u == stage) {
            Some(idx) => idx,
            None => {
                let (dist, dropped) = stage_distribution_with(
                    &stage.areas,
                    field_area,
                    n,
                    pd,
                    stage.cap,
                    opts.eps,
                    &mut scratch.qn,
                    &mut scratch.conv,
                );
                let accuracy = stage_accuracy_with(
                    stage.areas.iter().sum(),
                    field_area,
                    n,
                    stage.cap,
                    &mut scratch.placement,
                );
                unique.push((dist, accuracy, dropped));
                unique_inputs.push(stage);
                unique.len() - 1
            }
        };
        stage_of.push(idx);
        budget.complete_stage();
    }
    let mut chain = CountingChain::new(support_cap.max(1));
    let mut predicted_accuracy = 1.0;
    let mut truncation_error = 0.0;
    for &idx in &stage_of {
        let (dist, accuracy, dropped) = &unique[idx];
        predicted_accuracy *= accuracy;
        truncation_error += dropped;
        chain.step_with(dist, &mut scratch.chain);
    }
    Ok(AnalysisResult::with_truncation(
        chain.into_distribution(),
        predicted_accuracy,
        truncation_error,
    ))
}

/// One memoizable stage of the M-S chain: an NEDR reduced to exactly the
/// inputs its report distribution depends on.
///
/// Stages with equal `areas`/`cap` have equal report distributions for the
/// same `(S, N, Pd)` — the identity `gbd-engine` exploits to share every
/// Body stage of a run, and whole stages across sweep points that only
/// differ in `N` or `Pd`.
#[derive(Debug, Clone, PartialEq)]
pub struct StageInput {
    /// Coverage subarea sizes of the stage's NEDR, trailing zero-area
    /// entries trimmed (`areas[i]` is covered by the DRs of `i + 1`
    /// periods).
    pub areas: Vec<f64>,
    /// Sensor cap for the stage: `gh` for the Head, `g` for Body/Tail
    /// stages, never above `N`.
    pub cap: usize,
}

impl StageInput {
    /// Upper bound on the stage's report count, `cap · coverage levels`.
    pub fn support_bound(&self) -> usize {
        self.cap * self.areas.len()
    }
}

/// Computes the per-stage inputs of a (generalized) M-S run: the NEDR
/// subarea decomposition for each period plus the period's sensor cap.
///
/// This is the geometric half of [`analyze_steps`], split out so callers
/// can memoize it on `(sensing_range, steps, n_sensors, opts)` — it is
/// independent of `Pd` and the field size.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `steps` is empty, any step
/// is negative or non-finite, or a cap is 0.
pub fn stage_inputs(
    sensing_range: f64,
    steps: &[f64],
    n_sensors: usize,
    opts: &MsOptions,
) -> Result<Vec<StageInput>, CoreError> {
    opts.validate()?;
    if steps.is_empty() {
        return Err(CoreError::InvalidParameter {
            name: "steps",
            constraint: "must contain at least one period",
        });
    }
    if steps.iter().any(|s| !s.is_finite() || *s < 0.0) {
        return Err(CoreError::InvalidParameter {
            name: "steps",
            constraint: "must be finite and non-negative",
        });
    }
    let table = SubareaTable::from_steps(sensing_range, steps);
    let m = table.m_periods();
    let mut inputs = Vec::with_capacity(m);
    for l in 1..=m {
        let mut areas = table.subareas(l);
        while areas.len() > 1 && *areas.last().unwrap() == 0.0 {
            areas.pop();
        }
        let cap = if l == 1 { opts.gh } else { opts.g }.min(n_sensors);
        inputs.push(StageInput { areas, cap });
    }
    Ok(inputs)
}

/// Assembles precomputed per-stage `(report distribution, accuracy)` pairs
/// into the final result — the cheap last step of [`analyze_steps`], split
/// out so callers that cache stage distributions (`gbd-engine`) can share
/// them across runs. `support_cap` is the report-count bound of the
/// counting chain; pass the sum of [`StageInput::support_bound`] to match
/// [`analyze_steps`] exactly.
pub fn assemble_stages(stages: &[(DiscreteDist, f64)], support_cap: usize) -> AnalysisResult {
    let mut chain = CountingChain::new(support_cap.max(1));
    let mut predicted_accuracy = 1.0;
    for (dist, accuracy) in stages {
        predicted_accuracy *= accuracy;
        chain.step(dist);
    }
    AnalysisResult::new(chain.into_distribution(), predicted_accuracy)
}

/// [`assemble_stages`] for stages carrying an `eps`-truncation record:
/// each element is `(distribution, accuracy, dropped_mass)` and the
/// dropped masses accumulate into [`AnalysisResult::truncation_error`].
/// The chain runs through a [`Scratch`] arena, so assembly itself does not
/// allocate beyond the returned distribution.
pub fn assemble_stages_truncated(
    stages: &[(DiscreteDist, f64, f64)],
    support_cap: usize,
    scratch: &mut Scratch,
) -> AnalysisResult {
    let mut chain = CountingChain::new(support_cap.max(1));
    let mut predicted_accuracy = 1.0;
    let mut truncation_error = 0.0;
    for (dist, accuracy, dropped) in stages {
        predicted_accuracy *= accuracy;
        truncation_error += dropped;
        chain.step_with(dist, scratch);
    }
    AnalysisResult::with_truncation(
        chain.into_distribution(),
        predicted_accuracy,
        truncation_error,
    )
}

/// The stage structure of a constant-speed run, exposed for the
/// documentation examples and the stage-level tests: the Head stage plus
/// `M − ms − 1` identical Body stages plus `ms` distinct Tail stages when
/// `M > ms`.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePlan {
    /// Subarea sizes of the Head NEDR (Eq (6)).
    pub head: Vec<f64>,
    /// Subarea sizes of a Body NEDR (Eq (8)); empty when `M <= ms + 1`.
    pub body: Vec<f64>,
    /// Subarea sizes of each Tail NEDR, `T_1 ..= T_ms` (Eq (10)).
    pub tails: Vec<Vec<f64>>,
}

/// Computes the constant-speed stage plan from the closed-form equations.
pub fn stage_plan(params: &SystemParams) -> StagePlan {
    use gbd_geometry::subarea::{area_b_eq8, area_h_eq6, area_t_eq10};
    let head = area_h_eq6(params.sensing_range(), params.step());
    let body = area_b_eq8(&head);
    let ms = params.ms();
    let tails: Vec<Vec<f64>> = (1..=ms.min(params.m_periods().saturating_sub(1)))
        .map(|j| area_t_eq10(&body, j))
        .collect();
    StagePlan { head, body, tails }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report_dist::stage_accuracy;

    fn paper() -> SystemParams {
        SystemParams::paper_defaults()
    }

    #[test]
    fn paper_point_is_in_figure_9a_range() {
        // Figure 9(a): N = 240, V = 10 m/s ⇒ detection probability ≈ 0.97.
        let r = analyze(&paper(), &MsOptions::default()).unwrap();
        let p = r.detection_probability(5);
        assert!(p > 0.90 && p < 1.0, "p={p}");
    }

    #[test]
    fn detection_monotone_in_n() {
        let mut prev = 0.0;
        for n in [60, 90, 120, 150, 180, 210, 240] {
            let r = analyze(&paper().with_n_sensors(n), &MsOptions::default()).unwrap();
            let p = r.detection_probability(5);
            assert!(p > prev, "n={n}: {p} <= {prev}");
            prev = p;
        }
    }

    #[test]
    fn faster_target_detected_more_often() {
        // §4: "when the moving target's velocity is 10 m/s the detection
        // probability is higher than that when the moving velocity is 4 m/s".
        let slow = analyze(&paper().with_speed(4.0), &MsOptions::default()).unwrap();
        let fast = analyze(&paper().with_speed(10.0), &MsOptions::default()).unwrap();
        assert!(fast.detection_probability(5) > slow.detection_probability(5));
    }

    #[test]
    fn detection_decreasing_in_k() {
        let r = analyze(&paper(), &MsOptions::default()).unwrap();
        let mut prev = 1.1;
        for k in 1..=12 {
            let p = r.detection_probability(k);
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }

    #[test]
    fn unnormalized_below_normalized() {
        let r = analyze(&paper(), &MsOptions::default()).unwrap();
        assert!(r.detection_probability_unnormalized(5) < r.detection_probability(5));
        assert!(r.retained_mass() < 1.0);
    }

    #[test]
    fn retained_mass_equals_eq14_product() {
        // The chain's leftover mass is exactly ξ_h · ξ^{M−1}.
        let p = paper();
        let opts = MsOptions::default();
        let r = analyze(&p, &opts).unwrap();
        let s = p.field_area();
        let n = p.n_sensors();
        let head_area = p.dr_area();
        let body_area = 2.0 * p.sensing_range() * p.step();
        let xi_h = stage_accuracy(head_area, s, n, opts.gh);
        let xi = stage_accuracy(body_area, s, n, opts.g);
        let eq14 = xi_h * xi.powi(p.m_periods() as i32 - 1);
        assert!((r.retained_mass() - eq14).abs() < 1e-9);
        assert!((r.predicted_accuracy() - eq14).abs() < 1e-12);
    }

    #[test]
    fn paper_accuracy_example_n240_v10() {
        // §4 quotes 95.6% accuracy at N = 240, V = 10 m/s with g = gh = 3.
        // Evaluating Eq (14) exactly as printed (Eqs (7) and (9) with the
        // head/body NEDR areas) gives 97.6% (0.976392); the small gap with
        // the quoted figure is recorded in EXPERIMENTS.md. Both values say
        // the same thing: a few percent of mass is truncated, hence Figure
        // 9(b)'s visible undershoot and Figure 9(a)'s need for
        // normalization.
        let r = analyze(
            &paper(),
            &MsOptions {
                g: 3,
                gh: 3,
                eps: 0.0,
            },
        )
        .unwrap();
        let acc = r.predicted_accuracy();
        assert!((acc - 0.976).abs() < 5e-4, "{acc}");
    }

    #[test]
    fn larger_caps_converge() {
        // Increasing g/gh must converge to a limit (the exact result).
        let p = paper();
        let small = analyze(
            &p,
            &MsOptions {
                g: 2,
                gh: 2,
                eps: 0.0,
            },
        )
        .unwrap();
        let mid = analyze(
            &p,
            &MsOptions {
                g: 4,
                gh: 4,
                eps: 0.0,
            },
        )
        .unwrap();
        let large = analyze(
            &p,
            &MsOptions {
                g: 7,
                gh: 7,
                eps: 0.0,
            },
        )
        .unwrap();
        let d_small_mid =
            (small.detection_probability(5) - large.detection_probability(5)).abs();
        let d_mid_large = (mid.detection_probability(5) - large.detection_probability(5)).abs();
        assert!(d_mid_large < d_small_mid);
        assert!(d_mid_large < 1e-3);
    }

    #[test]
    fn generalized_staging_matches_closed_forms() {
        // The per-period subareas used internally must equal Eq (6)/(8)/(10).
        let p = paper();
        let plan = stage_plan(&p);
        let table = SubareaTable::constant_speed(p.sensing_range(), p.step(), p.m_periods());
        let head = table.subareas(1);
        for (i, &e) in plan.head.iter().enumerate() {
            assert!((head[i] - e).abs() < 1e-6);
        }
        let body = table.subareas(3);
        for (i, &e) in plan.body.iter().enumerate() {
            assert!((body[i] - e).abs() < 1e-6);
        }
        for (j, tail) in plan.tails.iter().enumerate() {
            let l = p.m_periods() - p.ms() + (j + 1);
            let sub = table.subareas(l);
            for (i, &e) in tail.iter().enumerate() {
                assert!((sub[i] - e).abs() < 1e-6, "tail {j} i={i}");
            }
        }
    }

    #[test]
    fn constant_steps_equal_explicit_steps() {
        let p = paper();
        let a = analyze(&p, &MsOptions::default()).unwrap();
        let b =
            analyze_steps(&p, &vec![p.step(); p.m_periods()], &MsOptions::default()).unwrap();
        assert!(a.raw_distribution().max_abs_diff(b.raw_distribution()) < 1e-15);
    }

    #[test]
    fn short_window_m_less_than_ms_works() {
        // M = 3 < ms = 4: the generalized staging handles it.
        let p = paper().with_m_periods(3).with_k(2);
        let r = analyze(&p, &MsOptions::default()).unwrap();
        let pd = r.detection_probability(2);
        assert!(pd > 0.0 && pd < 1.0);
    }

    #[test]
    fn m_equals_one_matches_single_period_model() {
        // With M = 1 the M-S-approach must reproduce Eqs (1)–(2) (up to the
        // cap truncation; use a generous cap so truncation is negligible).
        let p = paper().with_m_periods(1).with_k(1);
        let r = analyze(
            &p,
            &MsOptions {
                g: 12,
                gh: 12,
                eps: 0.0,
            },
        )
        .unwrap();
        let analytical = crate::single_period::probability_at_least(&p, 1);
        assert!(
            (r.detection_probability(1) - analytical).abs() < 1e-6,
            "{} vs {analytical}",
            r.detection_probability(1)
        );
    }

    #[test]
    fn budgeted_run_matches_unbudgeted_and_cancels() {
        use std::time::Duration;
        let p = paper();
        let steps = vec![p.step(); p.m_periods()];
        let opts = MsOptions::default();
        let free = analyze_steps(&p, &steps, &opts).unwrap();
        let roomy = ComputeBudget::with_deadline(Duration::from_secs(3600));
        let budgeted = analyze_steps_budgeted(&p, &steps, &opts, &roomy).unwrap();
        assert_eq!(free, budgeted);
        assert_eq!(roomy.completed_stages(), p.m_periods());
        let expired = analyze_steps_budgeted(
            &p,
            &steps,
            &opts,
            &ComputeBudget::with_deadline(Duration::ZERO),
        );
        assert!(matches!(
            expired,
            Err(CoreError::DeadlineExceeded {
                completed_stages: 0,
                ..
            })
        ));
    }

    #[test]
    fn rejects_bad_options_and_steps() {
        let p = paper();
        assert!(analyze(
            &p,
            &MsOptions {
                g: 0,
                gh: 3,
                eps: 0.0
            }
        )
        .is_err());
        assert!(analyze_steps(&p, &[600.0; 3], &MsOptions::default()).is_err());
        assert!(analyze_steps(&p, &[-1.0; 20], &MsOptions::default()).is_err());
    }

    #[test]
    fn pd_one_upper_bounds_paper_pd() {
        let lo = analyze(&paper().with_pd(0.5), &MsOptions::default()).unwrap();
        let hi = analyze(&paper().with_pd(1.0), &MsOptions::default()).unwrap();
        assert!(hi.detection_probability(5) > lo.detection_probability(5));
    }
}
