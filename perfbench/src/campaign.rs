//! `campaign`: points of the false-alarm study grid, each one
//! `gbd_sim::false_alarm::run_with_filter` campaign of a fixed trial
//! count. The simulator's trial engine (deployment, corridor-focused field,
//! Bernoulli false-alarm sampler) and the batch group filter do the work.

use crate::measure::{Outcome, Phase, Setup, SetupClock};
use crate::trace::Tracer;
use crate::util::{elapsed_ns, p50_us, SplitMix};
use crate::Ctx;
use gbd_core::params::SystemParams;
use gbd_field::deployment::{Deployer, UniformRandom};
use gbd_field::field::{BoundaryPolicy, SensorField};
use gbd_geometry::point::Aabb;
use gbd_sim::config::SimConfig;
use gbd_sim::engine::{run_trial_in, TrialScratch};
use gbd_sim::false_alarm::{run_with_filter, FilteredSimResult};
use gbd_sim::group_filter::{group_detects, TrackRule};
use gbd_stats::rng::rng_stream;
use gbd_stream::{StreamConfig, StreamDetector};
use std::hint::black_box;
use std::time::Instant;

/// Trials per campaign.
pub const TRIALS: u64 = 50;
/// Node false-alarm rates of the study grid.
const RATES: [f64; 5] = [0.0, 0.0005, 0.001, 0.002, 0.005];
const WARMUP: usize = 100;
const SETUPS: usize = 5;
/// Campaigns replayed through the incremental detector in every run.
const CHECKED: usize = 6;
/// Campaigns the traced run replays layer by layer.
const REPLAY_OPS: usize = 40;
const POOL_PER_S: f64 = 1500.0;

pub fn point(rng: &mut SplitMix) -> SimConfig {
    let params = SystemParams::paper_defaults()
        .with_n_sensors(rng.range_usize(60, 240))
        .with_k(rng.range_usize(3, 6));
    SimConfig::new(params)
        .with_trials(TRIALS)
        .with_false_alarm_rate(RATES[rng.range_usize(0, RATES.len() - 1)])
        .with_seed(rng.next_u64())
}

pub fn inputs(seed: u64, count: usize) -> Vec<SimConfig> {
    let mut rng = SplitMix::stream(seed, 2);
    (0..count).map(|_| point(&mut rng)).collect()
}

/// The filter's rule for a campaign, as the simulator derives it: the
/// target speed as `v_max`, wrapping on the torus.
fn rule(config: &SimConfig) -> TrackRule {
    let p = &config.params;
    let rule = TrackRule::new(p.speed(), p.period_s(), p.sensing_range());
    match config.boundary {
        BoundaryPolicy::Torus => rule.with_wrap(p.field_width(), p.field_height()),
        BoundaryPolicy::Bounded => rule,
    }
}

struct Measured {
    phase: Phase,
    setups: Vec<Setup>,
    results: Vec<FilteredSimResult>,
    tracer: Tracer,
}

fn measure(ctx: &Ctx, pool: &[SimConfig], traced: bool) -> Measured {
    let mut tracer = Tracer::new(traced, Instant::now());
    let mut setups = Vec::new();
    for s in 0..SETUPS {
        let clock = SetupClock::start();
        for config in &pool[s * WARMUP..(s + 1) * WARMUP] {
            black_box(run_with_filter(config));
        }
        setups.push(clock.stop());
    }
    let measured = &pool[SETUPS * WARMUP..];
    // Written before the clock starts (see `in_process_phase`).
    let mut results = vec![None; measured.len()];
    let harness_bytes = std::mem::size_of_val(pool) + std::mem::size_of_val(&results[..]);
    let phase = crate::in_process_phase(ctx, measured.len(), harness_bytes, |i| {
        let t0 = Instant::now();
        let result = black_box(run_with_filter(&measured[i]));
        let t1 = Instant::now();
        let parent = tracer.record("op", i as u64, None, t0, t1);
        tracer.record("sim.run_with_filter", i as u64, parent, t0, t1);
        results[i] = Some(result);
        Some(u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX))
    });
    let results = results.into_iter().flatten().collect();
    Measured {
        phase,
        setups,
        results,
        tracer,
    }
}

/// `detections_filtered ≥ detections_true_only` everywhere, and a seeded
/// sample of campaigns replayed through `run_trial_in` + `StreamDetector`
/// reproduces `detections_filtered`; an op that fails either counts as
/// failed.
fn check(ctx: &Ctx, measured: &[SimConfig], m: &mut Measured, out: &mut Outcome) {
    let results = &m.results;
    for (op, r) in results.iter().enumerate() {
        if r.trials != TRIALS || r.detections_filtered < r.detections_true_only {
            m.phase.fail(op);
            out.error(format!("campaign op {op}: {r:?}"));
        }
    }
    let mut rng = SplitMix::stream(ctx.seed, 3);
    let mut scratch = TrialScratch::new();
    for _ in 0..CHECKED.min(results.len()) {
        let op = rng.range_usize(0, results.len() - 1);
        let config = &measured[op];
        let stream =
            StreamConfig::new(rule(config), config.params.k(), config.params.m_periods());
        let detected = (0..config.trials)
            .filter(|&trial| {
                let outcome = run_trial_in(config, trial, &mut scratch);
                !StreamDetector::new(stream)
                    .ingest(&outcome.reports)
                    .is_empty()
            })
            .count() as u64;
        if detected != results[op].detections_filtered {
            m.phase.fail(op);
            out.error(format!(
                "campaign op {op}: stream replay detects {detected}, campaign {}",
                results[op].detections_filtered
            ));
        }
    }
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> crate::Measurements {
    let pool = inputs(
        ctx.seed,
        SETUPS * WARMUP + (POOL_PER_S * ctx.seconds) as usize,
    );
    let measured = &pool[SETUPS * WARMUP..];
    let mut untraced = measure(ctx, &pool, false);
    check(ctx, measured, &mut untraced, out);
    out.add_phase(&untraced.phase);
    if !ctx.trace {
        return crate::Measurements::untraced(untraced.phase, untraced.setups);
    }
    let mut traced = measure(ctx, &pool, true);
    check(ctx, measured, &mut traced, out);
    out.add_phase(&traced.phase);
    let common = traced.results.len().min(untraced.results.len());
    if traced.results[..common] != untraced.results[..common] {
        out.error("traced campaigns differ from untraced ones".to_string());
    }
    let mut tracer = traced.tracer;
    let replay = layers(measured, traced.results.len(), tracer.epoch(), out);
    tracer.absorb(replay);
    crate::Measurements {
        untraced: (untraced.phase, untraced.setups),
        traced: Some((traced.phase, traced.setups)),
        tracer,
    }
}

/// Replays the first campaigns one layer at a time: each trial through
/// `run_trial_in` and `group_detects`, and its deployment through the
/// field's focused rebuild and Detectable-Region queries.
fn layers(measured: &[SimConfig], done: usize, epoch: Instant, out: &mut Outcome) -> Tracer {
    let mut tracer = Tracer::new(true, epoch);
    let (mut trial_ns, mut filter_ns, mut build_ns, mut query_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut reports, mut false_reports, mut hits_total) = (0usize, 0usize, 0usize);
    let mut scratch = TrialScratch::new();
    let mut field = SensorField::new(
        Aabb::from_extent(1.0, 1.0),
        Vec::new(),
        BoundaryPolicy::Torus,
    );
    let mut hits = Vec::new();
    for (op, config) in measured.iter().take(REPLAY_OPS.min(done)).enumerate() {
        let op = op as u64;
        let p = &config.params;
        let rule = rule(config);
        let extent = Aabb::from_extent(p.field_width(), p.field_height());
        for trial in 0..config.trials {
            let t0 = Instant::now();
            let outcome = run_trial_in(config, trial, &mut scratch);
            let t1 = Instant::now();
            black_box(group_detects(&outcome.reports, &rule, p.k(), p.m_periods()));
            let t2 = Instant::now();
            tracer.record("sim.run_trial_in", op, None, t0, t1);
            tracer.record("sim.group_detects", op, None, t1, t2);
            trial_ns.push(u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX));
            filter_ns.push(u64::try_from((t2 - t1).as_nanos()).unwrap_or(u64::MAX));
            reports += outcome.reports.len();
            false_reports += outcome.false_reports;

            // The same deployment (the trial stream's first draws), focused
            // on the replayed trajectory's Detectable Regions.
            let trajectory = &outcome.trajectory;
            let start = trajectory.position(0);
            let mut focus = Aabb {
                min: start,
                max: start,
            };
            for period in 1..=p.m_periods() {
                let dr = trajectory.detectable_region(period, p.sensing_range());
                focus = focus.union(&dr.bounding_box());
            }
            let mut rng = rng_stream(config.seed, trial);
            let b0 = Instant::now();
            field.rebuild_focused(extent, config.boundary, |buf| {
                UniformRandom.deploy_into(p.n_sensors(), &extent, &mut rng, buf);
                (focus, ())
            });
            build_ns.push(elapsed_ns(b0));
            tracer.record("field.rebuild_focused", op, None, b0, Instant::now());
            for period in 1..=p.m_periods() {
                let dr = trajectory.detectable_region(period, p.sensing_range());
                let q0 = Instant::now();
                field.query_stadium_into(&dr, &mut hits);
                query_ns.push(elapsed_ns(q0));
                tracer.record("field.query_stadium_into", op, None, q0, Instant::now());
                hits_total += hits.len();
                // Every true report of the period came from a covered sensor.
                let missing = outcome
                    .reports
                    .iter()
                    .filter(|r| r.period == period && r.is_true_detection())
                    .any(|r| !hits.contains(&r.sensor));
                if missing {
                    out.error(format!(
                        "field replay op {op} trial {trial}: report outside hits"
                    ));
                }
            }
        }
    }
    let trials = trial_ns.len().max(1) as f64;
    let (trial_sum, filter_sum): (u64, u64) = (trial_ns.iter().sum(), filter_ns.iter().sum());
    let queries = query_ns.len().max(1) as f64;
    out.metric("sim.trial_us", p50_us(&mut trial_ns));
    out.metric("sim.filter_us", p50_us(&mut filter_ns));
    out.metric(
        "sim.filter_share",
        filter_sum as f64 / (trial_sum + filter_sum).max(1) as f64,
    );
    out.metric("sim.reports_per_trial", reports as f64 / trials);
    out.metric("sim.false_reports_per_trial", false_reports as f64 / trials);
    out.metric("field.build_us", p50_us(&mut build_ns));
    out.metric("field.query_us", p50_us(&mut query_ns));
    out.metric("field.hits_per_query", hits_total as f64 / queries);
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_gives_identical_inputs() {
        let text = |seed| format!("{:?}", inputs(seed, 500));
        assert_eq!(text(7), text(7));
        assert_ne!(text(7), text(8));
    }
}
