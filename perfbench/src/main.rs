//! Benchmark of the group based detection stack: one named workload for one
//! seed, the six end-to-end metrics (or, with `--trace 1`, the per-layer
//! metrics) as the last line of standard output.
//!
//! ```text
//! perfbench --workload <sweep|campaign|serve_eval|report_stream> --seed <n>
//!           --seconds <s> --trace <0|1> --groupdet <path> --out <dir>
//! ```
//!
//! `perfbench/run.py` builds this package and `groupdet`, then runs it;
//! `perfbench/WORKLOADS.md` records why each workload exists.

mod campaign;
mod measure;
mod net;
mod report_stream;
mod serve_eval;
mod sweep;
mod trace;
mod util;

use measure::{print_diagnostics, print_overhead, E2e, Outcome, Phase, Sample, Setup};
use measure::{CPU_SAMPLE, MIN_OPS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use util::{elapsed_between, proc_cpu_s, proc_hwm_mb, reset_peak_rss};

/// The benchmark's declaration, the one list of metric names and units.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// What a run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `groupdet` release binary the served workloads spawn.
    pub groupdet: PathBuf,
    /// Scratch directory for store copies and span files.
    pub out: PathBuf,
}

/// The untraced phase, and in traced runs the traced phase and its spans,
/// each with its set-ups.
pub struct Measurements {
    pub untraced: (Phase, Vec<Setup>),
    pub traced: Option<(Phase, Vec<Setup>)>,
    pub tracer: Tracer,
}

impl Measurements {
    pub fn untraced(phase: Phase, setups: Vec<Setup>) -> Self {
        Measurements {
            untraced: (phase, setups),
            traced: None,
            tracer: Tracer::new(false, Instant::now()),
        }
    }
}

/// The `(name, unit)` of every metric the declaration lists under `key`
/// (`end_to_end` or `per_layer`).
fn declared(key: &str) -> Result<Vec<(String, String)>, String> {
    let json =
        gbd_serve::Json::parse(DECLARATION).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = json
        .get(key)
        .and_then(gbd_serve::Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(gbd_serve::Json::as_str)
                    .map(str::to_string)
            };
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("BENCHMARK.json: {key} entry without name or unit"))
        })
        .collect()
}

/// Runs an in-process op loop for `ctx.seconds` and at least `MIN_OPS`
/// ops, timing the benchmark process, which is the system under test.
/// `op(i)` runs op `i` and returns its latency in ns, `None` if it failed.
///
/// The caller's input pool and per-op records, `harness_bytes` in all,
/// are written before the clock starts, as is this loop's own
/// bookkeeping. Peak RSS is the process's `VmHWM` over the phase minus
/// those buffers, so it counts the system's memory (code, heap it keeps
/// from the set-ups, what it allocates per op) and not the harness's,
/// whose size grows with `--seconds`.
pub fn in_process_phase(
    ctx: &Ctx,
    pool: usize,
    harness_bytes: usize,
    mut op: impl FnMut(usize) -> Option<u64>,
) -> Phase {
    let pid = std::process::id();
    let cpu_now = || proc_cpu_s(pid).unwrap_or(f64::NAN);
    let mut ops = vec![(u64::MAX, u64::MAX); pool];
    let capacity = 64 * ctx.seconds.ceil() as usize + 2;
    let mut samples = vec![Sample::default(); capacity];
    samples.clear();
    let harness_mb = (harness_bytes
        + std::mem::size_of_val(&ops[..])
        + capacity * std::mem::size_of::<Sample>()) as f64
        / (1024.0 * 1024.0);
    if let Err(e) = reset_peak_rss() {
        println!("# warning: cannot reset the peak RSS: {e}");
    }
    let start = Instant::now();
    samples.push(Sample::now(start, cpu_now()));
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let mut next_sample = start + CPU_SAMPLE;
    let (mut done, mut failed) = (0, 0);
    while done < pool && (done < MIN_OPS as usize || Instant::now() < deadline) {
        let latency = op(done);
        let now = Instant::now();
        ops[done] = (elapsed_between(start, now), latency.unwrap_or(u64::MAX));
        failed += usize::from(latency.is_none());
        done += 1;
        if now >= next_sample && samples.len() + 1 < capacity {
            samples.push(Sample::now(start, cpu_now()));
            next_sample += CPU_SAMPLE;
        }
    }
    samples.push(Sample::now(start, cpu_now()));
    let end = Instant::now();
    let sut_rss_mb = proc_hwm_mb(pid).unwrap_or(f64::NAN) - harness_mb;
    if done == pool {
        println!("# warning: input pool exhausted after {done} ops");
    }
    ops.truncate(done);
    let cpu_s = samples[samples.len() - 1].cpu_s - samples[0].cpu_s;
    Phase {
        wall_s: (end - start).as_secs_f64(),
        ops,
        attempted: done as u64,
        failed: failed as u64,
        samples,
        sut_rss_mb,
        gen_cpu_s: cpu_s,
        gen_threads: 1,
        connections: 0,
    }
}

fn print_self_times(tracer: &Tracer) {
    for (name, (count, total, own)) in trace::self_times(tracer.spans()) {
        println!(
            "# span {name}: {count} spans, {:.3} ms total, {:.3} ms self, {:.3} us self per span",
            total as f64 / 1e6,
            own as f64 / 1e6,
            own as f64 / 1e3 / count.max(1) as f64
        );
    }
}

fn parse_args() -> Result<(String, Ctx), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 1,
        seconds: 10.0,
        trace: false,
        groupdet: PathBuf::new(),
        out: PathBuf::from(".perfbench"),
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        let bad = |what: &str| format!("{} {value}: {what}", args[i]);
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => ctx.seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                ctx.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(ctx.seconds > 0.0 && ctx.seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--groupdet" => ctx.groupdet = PathBuf::from(value),
            "--out" => ctx.out = PathBuf::from(value),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, ctx))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "# perfbench {workload} seed {} seconds {} trace {} ({} cores)",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut out = Outcome::default();
    let measured = match workload.as_str() {
        "sweep" => Ok(sweep::run(&ctx, &mut out)),
        "campaign" => Ok(campaign::run(&ctx, &mut out)),
        "serve_eval" => serve_eval::run(&ctx, &mut out),
        "report_stream" => report_stream::run(&ctx, &mut out),
        other => Err(format!("unknown workload {other}")),
    };
    let measured = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if out.attempted == 0 {
        eprintln!("perfbench: no op was attempted");
        return ExitCode::FAILURE;
    }
    let (e2e_declared, layers_declared) = match (declared("end_to_end"), declared("per_layer"))
    {
        (Ok(e2e), Ok(layers)) => (e2e, layers),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (phase, setups) = &measured.untraced;
    let untraced = E2e::from_phase(phase, setups);
    print_diagnostics("untraced", phase, &untraced, setups);
    for (name, value) in untraced.named() {
        println!("# untraced {name} = {value}");
    }
    let mut metrics = Vec::new();
    match &measured.traced {
        None => {
            let named = untraced.named();
            if named.len() != e2e_declared.len()
                || named
                    .iter()
                    .zip(&e2e_declared)
                    .any(|((n, _), (d, _))| n != d)
            {
                eprintln!("perfbench: end-to-end metrics differ from BENCHMARK.json");
                return ExitCode::FAILURE;
            }
            for ((name, value), (_, unit)) in named.iter().zip(&e2e_declared) {
                metrics.push((name.to_string(), *value, unit.clone()));
            }
        }
        Some((phase, setups)) => {
            let traced = E2e::from_phase(phase, setups);
            print_diagnostics("traced", phase, &traced, setups);
            if untraced.host_disturbed() || traced.host_disturbed() {
                println!(
                    "# warning: host-disturbed phase; the tracing overhead is not comparable"
                );
            }
            print_overhead(&untraced, &traced);
            print_self_times(&measured.tracer);
            let path = ctx.out.join(format!("spans-{workload}.csv"));
            match measured.tracer.write_csv(&path) {
                Ok(()) => println!(
                    "# spans: {} written to {}",
                    measured.tracer.spans().len(),
                    path.display()
                ),
                Err(e) => out.error(format!("cannot write {}: {e}", path.display())),
            }
            for (name, _) in &out.metrics {
                if !layers_declared.iter().any(|(n, _)| n == name) {
                    eprintln!("perfbench: metric {name} is not declared in BENCHMARK.json");
                    return ExitCode::FAILURE;
                }
            }
            for (name, unit) in layers_declared {
                let value = match out.metrics.iter().find(|(n, _)| *n == name) {
                    Some((_, value)) => *value,
                    None => {
                        println!("# {name} = 0: {workload} bypasses this layer");
                        0.0
                    }
                };
                metrics.push((name, value, unit));
            }
        }
    }
    println!("{}", out.render(&metrics));
    ExitCode::SUCCESS
}
