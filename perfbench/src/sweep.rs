//! `sweep`: seeded cold 7-point curves through `Engine::evaluate_batch` on
//! a fresh `Engine::new()`, the way every `groupdet sweep --no-sim` and
//! figure run starts. The M-S kernels do most of the work.

use crate::measure::{Outcome, Phase, Setup, SetupClock};
use crate::trace::Tracer;
use crate::util::{elapsed_ns, p50_us, SplitMix};
use crate::Ctx;
use gbd_core::ms_approach::{analyze, MsOptions};
use gbd_core::params::SystemParams;
use gbd_engine::{BackendSpec, Engine, EvalRequest};
use std::hint::black_box;
use std::time::Instant;

/// Points per curve: N = 60, 90, …, 240.
const POINTS: usize = 7;
/// Warm-up curves per set-up, and set-ups per run.
const WARMUP: usize = 400;
const SETUPS: usize = 5;
/// Ops whose points the traced run replays through `analyze`.
const REPLAY_OPS: usize = 300;
/// Input pool per measured second: well above today's ~1 200 curves/s.
const POOL_PER_S: f64 = 4000.0;

/// One op's input: the design point its curve sweeps over N.
pub fn design(rng: &mut SplitMix) -> SystemParams {
    SystemParams::paper_defaults()
        .with_m_periods(rng.range_usize(10, 30))
        .with_speed(rng.range_f64(4.0, 10.0))
        .with_pd(rng.range_f64(0.5, 0.9))
        .with_k(rng.range_usize(3, 7))
}

pub fn inputs(seed: u64, count: usize) -> Vec<SystemParams> {
    let mut rng = SplitMix::stream(seed, 1);
    (0..count).map(|_| design(&mut rng)).collect()
}

fn curve(design: &SystemParams) -> Vec<EvalRequest> {
    (0..POINTS)
        .map(|i| {
            EvalRequest::new(
                design.with_n_sensors(60 + 30 * i),
                BackendSpec::ms_default(),
            )
        })
        .collect()
}

/// Per-op outputs, sized to the pool before the clock starts.
struct Records {
    /// `P[X ≥ k]` per point, NaN where the engine returned an error.
    detections: Vec<f64>,
    /// Σ `EvalResponse::duration` per op.
    request_ns: Vec<u64>,
    /// Geometry and stage `(hits, misses)` per op.
    layers: Vec<[u64; 4]>,
}

impl Records {
    fn new(ops: usize) -> Records {
        Records {
            detections: vec![f64::NAN; ops * POINTS],
            request_ns: vec![u64::MAX; ops],
            layers: vec![[u64::MAX; 4]; ops],
        }
    }

    fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.detections[..])
            + std::mem::size_of_val(&self.request_ns[..])
            + std::mem::size_of_val(&self.layers[..])
    }
}

/// Runs op `op` and returns its latency, `None` if any point failed.
fn run_op(
    requests: &[EvalRequest],
    op: usize,
    records: &mut Records,
    tracer: &mut Tracer,
) -> Option<u64> {
    let t0 = Instant::now();
    let engine = Engine::new();
    let t1 = Instant::now();
    let responses = black_box(engine.evaluate_batch(requests));
    let t2 = Instant::now();
    let parent = tracer.record("op", op as u64, None, t0, t2);
    tracer.record("engine.new", op as u64, parent, t0, t1);
    tracer.record("engine.evaluate_batch", op as u64, parent, t1, t2);
    let mut ok = true;
    for (slot, response) in records.detections[op * POINTS..(op + 1) * POINTS]
        .iter_mut()
        .zip(&responses)
    {
        match (&response.outcome, response.detection_probability()) {
            (Ok(_), Some(p)) => *slot = p,
            _ => ok = false,
        }
    }
    records.request_ns[op] = responses
        .iter()
        .map(|r| u64::try_from(r.duration.as_nanos()).unwrap_or(u64::MAX))
        .sum();
    let stats = engine.layer_stats();
    records.layers[op] = [
        stats[0].1.hits,
        stats[0].1.misses,
        stats[1].1.hits,
        stats[1].1.misses,
    ];
    ok.then(|| u64::try_from((t2 - t0).as_nanos()).unwrap_or(u64::MAX))
}

struct Measured {
    phase: Phase,
    setups: Vec<Setup>,
    records: Records,
    tracer: Tracer,
}

fn measure(ctx: &Ctx, pool: &[SystemParams], traced: bool) -> Measured {
    let mut tracer = Tracer::new(traced, Instant::now());
    let mut setups = Vec::new();
    let mut warm = Records::new(WARMUP);
    let mut off = Tracer::new(false, Instant::now());
    for s in 0..SETUPS {
        let designs = &pool[s * WARMUP..(s + 1) * WARMUP];
        let clock = SetupClock::start();
        for (i, design) in designs.iter().enumerate() {
            run_op(&curve(design), i, &mut warm, &mut off);
        }
        setups.push(clock.stop());
    }
    let measured = &pool[SETUPS * WARMUP..];
    let mut records = Records::new(measured.len());
    let harness_bytes = std::mem::size_of_val(pool) + warm.bytes() + records.bytes();
    let phase = crate::in_process_phase(ctx, measured.len(), harness_bytes, |i| {
        run_op(&curve(&measured[i]), i, &mut records, &mut tracer)
    });
    Measured {
        phase,
        setups,
        records,
        tracer,
    }
}

/// Every point must equal `gbd_core::ms_approach::analyze` bit for bit; an
/// op with a point that does not counts as failed.
fn check(measured: &[SystemParams], m: &mut Measured, out: &mut Outcome) {
    let ops = m.phase.attempted as usize;
    let detections = &m.records.detections[..ops * POINTS];
    let half = ops.div_ceil(2).max(1);
    let mismatches: Vec<(usize, String)> = std::thread::scope(|scope| {
        let workers: Vec<_> = detections
            .chunks(half * POINTS)
            .enumerate()
            .map(|(c, chunk)| {
                scope.spawn(move || {
                    let mut bad = Vec::new();
                    for (j, got) in chunk.chunks(POINTS).enumerate() {
                        let op = c * half + j;
                        for (request, got) in curve(&measured[op]).iter().zip(got) {
                            let want = analyze(&request.params, &MsOptions::default())
                                .map(|r| r.detection_probability(request.params.k()));
                            if !want.as_ref().is_ok_and(|w| w.to_bits() == got.to_bits()) {
                                bad.push((
                                    op,
                                    format!(
                                        "sweep op {op} N={}: engine {got} vs analyze {want:?}",
                                        request.params.n_sensors()
                                    ),
                                ));
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|_| vec![(usize::MAX, "check thread panicked".into())])
            })
            .collect()
    });
    for (op, message) in mismatches {
        m.phase.fail(op);
        out.error(message);
    }
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> crate::Measurements {
    let pool = inputs(
        ctx.seed,
        SETUPS * WARMUP + (POOL_PER_S * ctx.seconds) as usize,
    );
    let measured = &pool[SETUPS * WARMUP..];
    let mut untraced = measure(ctx, &pool, false);
    check(measured, &mut untraced, out);
    out.add_phase(&untraced.phase);
    if !ctx.trace {
        return crate::Measurements::untraced(untraced.phase, untraced.setups);
    }
    let mut traced = measure(ctx, &pool, true);
    check(measured, &mut traced, out);
    out.add_phase(&traced.phase);
    let replay = layers(measured, &traced, out);
    let mut tracer = traced.tracer;
    tracer.absorb(replay);
    crate::Measurements {
        untraced: (untraced.phase, untraced.setups),
        traced: Some((traced.phase, traced.setups)),
        tracer,
    }
}

/// The per-layer metrics; returns the replay's spans.
fn layers(measured: &[SystemParams], traced: &Measured, out: &mut Outcome) -> Tracer {
    let ops = traced.phase.attempted as usize;
    let mut tracer = Tracer::new(true, traced.tracer.epoch());
    let mut analyze_ns = Vec::new();
    for (op, design) in measured.iter().take(REPLAY_OPS.min(ops)).enumerate() {
        for request in curve(design) {
            let start = Instant::now();
            let result = black_box(analyze(&request.params, &MsOptions::default()));
            analyze_ns.push(elapsed_ns(start));
            tracer.record("core.analyze", op as u64, None, start, Instant::now());
            if result.is_err() {
                out.error(format!("analyze failed on replayed op {op}"));
            }
        }
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let mut new_ns = traced.tracer.durations("engine.new");
    let mut batch_ns = traced.tracer.durations("engine.evaluate_batch");
    let mut request_ns = traced.records.request_ns[..ops].to_vec();
    let mut overhead_ns: Vec<u64> = batch_ns
        .iter()
        .zip(&request_ns)
        .map(|(&b, &r)| b.saturating_sub((r as f64 / workers) as u64))
        .collect();
    let layers = &traced.records.layers[..ops];
    let ratio = |at: usize| {
        let hits: u64 = layers.iter().map(|l| l[at]).sum();
        let misses: u64 = layers.iter().map(|l| l[at + 1]).sum();
        hits as f64 / (hits + misses).max(1) as f64
    };
    out.metric("core.analyze_us", p50_us(&mut analyze_ns));
    out.metric("engine.new_us", p50_us(&mut new_ns));
    out.metric("engine.batch_us", p50_us(&mut batch_ns));
    out.metric("engine.request_us", p50_us(&mut request_ns));
    out.metric("engine.batch_overhead_us", p50_us(&mut overhead_ns));
    out.metric("engine.geometry_hit_ratio", ratio(0));
    out.metric("engine.stage_hit_ratio", ratio(2));
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_gives_identical_inputs() {
        let bits = |seed| -> Vec<String> {
            inputs(seed, 500).iter().map(|p| format!("{p:?}")).collect()
        };
        assert_eq!(bits(7), bits(7));
        assert_ne!(bits(7), bits(8));
    }
}
