//! The measured phase, the six end-to-end metrics, and the run's result.

use crate::util::{host_ticks, median, percentile, steal_share, HostTicks};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A run holds at least this many ops, so p99 has ten samples beyond it.
pub const MIN_OPS: u64 = 1000;
/// How often a phase samples the CPU time of the system under test and
/// the host's steal counter.
pub const CPU_SAMPLE: Duration = Duration::from_millis(100);
/// A phase is cut into up to this many equal-time slices, each holding at
/// least `OPS_PER_SLICE` ops on average, so each slice's p99 has about ten
/// samples beyond it. Short slices let the median step over host stalls
/// that last a fraction of a second.
const MAX_SLICES: usize = 40;
const OPS_PER_SLICE: usize = 1100;
/// A slice, or a set-up, whose host steal share is at most this is always
/// kept: about one 10 ms steal tick in a half-second slice on two vCPUs,
/// the resolution of `/proc/stat`.
const STEAL_FLOOR: f64 = 0.01;
/// A phase whose kept slices still had a host steal share above this is
/// reported as host-disturbed: its numbers stand, with a warning beside
/// them.
pub const STEAL_MAX: f64 = 0.05;

/// One reading of a phase's clocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// When, in ns from the phase start.
    pub at_ns: u64,
    /// Cumulative CPU seconds of the system under test.
    pub cpu_s: f64,
    pub host: HostTicks,
}

impl Sample {
    pub fn now(start: Instant, cpu_s: f64) -> Sample {
        Sample {
            at_ns: crate::util::elapsed_ns(start),
            cpu_s,
            host: host_ticks(),
        }
    }
}

/// What one measured phase observed.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub wall_s: f64,
    /// `(completion, latency)` in ns per op, completion counted from the
    /// phase start; a failed op has latency `u64::MAX`.
    pub ops: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Readings every `CPU_SAMPLE` through the phase, from its start to
    /// its end.
    pub samples: Vec<Sample>,
    /// Peak RSS of the system under test, summed over its processes.
    pub sut_rss_mb: f64,
    /// CPU of the load generator over the phase (the benchmark process;
    /// for in-process workloads it is also the system under test).
    pub gen_cpu_s: f64,
    pub gen_threads: usize,
    pub connections: usize,
}

impl Phase {
    /// CPU of the system under test and the host's steal and total ticks
    /// at `t` ns, interpolated between the samples around it.
    fn clocks_at(&self, t: u64) -> [f64; 3] {
        let clocks = |s: &Sample| [s.cpu_s, s.host.steal as f64, s.host.total as f64];
        let i = self.samples.partition_point(|s| s.at_ns <= t);
        match (
            i.checked_sub(1).map(|j| &self.samples[j]),
            self.samples.get(i),
        ) {
            (Some(a), Some(b)) if b.at_ns > a.at_ns => {
                let w = (t - a.at_ns) as f64 / (b.at_ns - a.at_ns) as f64;
                let (ca, cb) = (clocks(a), clocks(b));
                [0, 1, 2].map(|k| ca[k] + (cb[k] - ca[k]) * w)
            }
            (Some(s), _) | (None, Some(s)) => clocks(s),
            (None, None) => [f64::NAN; 3],
        }
    }

    /// CPU of the system under test, and the host steal share, between
    /// two instants of the phase.
    fn between(&self, from_ns: u64, to_ns: u64) -> (f64, f64) {
        let (a, b) = (self.clocks_at(from_ns), self.clocks_at(to_ns));
        let total = b[2] - a[2];
        let steal = if total > 0.0 {
            (b[1] - a[1]) / total
        } else {
            0.0
        };
        (b[0] - a[0], steal)
    }

    /// Host steal share over the whole phase.
    pub fn steal_share(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => steal_share(a.host, b.host),
            _ => 0.0,
        }
    }

    /// Successful-op latencies in ns, ascending.
    pub fn latencies(&self) -> Vec<u64> {
        let mut lat: Vec<u64> = self
            .ops
            .iter()
            .map(|&(_, l)| l)
            .filter(|&l| l != u64::MAX)
            .collect();
        lat.sort_unstable();
        lat
    }

    /// Marks op `i` failed unless it already was.
    pub fn fail(&mut self, i: usize) {
        if let Some(op) = self.ops.get_mut(i) {
            if op.1 != u64::MAX {
                op.1 = u64::MAX;
                self.failed += 1;
            }
        }
    }
}

/// One set-up's wall time and the host steal share over it.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub seconds: f64,
    pub steal: f64,
}

/// Times one set-up, from `start` to `stop`.
pub struct SetupClock {
    start: Instant,
    host: HostTicks,
}

impl SetupClock {
    pub fn start() -> SetupClock {
        SetupClock {
            host: host_ticks(),
            start: Instant::now(),
        }
    }

    pub fn started(&self) -> Instant {
        self.start
    }

    pub fn stop(&self) -> Setup {
        let seconds = self.start.elapsed().as_secs_f64();
        Setup {
            seconds,
            steal: steal_share(self.host, host_ticks()),
        }
    }
}

/// The six end-to-end metrics, and the phase's slices they were taken
/// over.
#[derive(Debug, Clone)]
pub struct E2e {
    pub throughput_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub cpu_us_per_op: f64,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
    /// Host steal share per slice.
    pub slice_steal: Vec<f64>,
    /// Slices the metrics were taken over: the less-stolen half, or more.
    pub kept_slices: usize,
    /// The largest host steal share among the kept slices.
    pub kept_steal: f64,
}

/// Whether each of `steal` is kept: at most the median of them, so the
/// less-stolen half is always kept, or at most `STEAL_FLOOR`, so a quiet
/// phase keeps every slice.
fn less_stolen_half(steal: &[f64]) -> Vec<bool> {
    let cut = median(steal).max(STEAL_FLOOR);
    steal.iter().map(|&s| s <= cut).collect()
}

impl E2e {
    /// Throughput, latency percentiles and CPU per op are each the median
    /// over the less-stolen half of the phase's equal-time slices (every
    /// slice with at most `STEAL_FLOOR` is kept too): a host stall that
    /// covers less than half the phase does not move them, and in a phase
    /// with steal the slices the hypervisor touched least carry the
    /// figures. A failed op counts as slower than any op that completed.
    /// Set-up time is the median over the less-stolen half of the set-ups.
    pub fn from_phase(phase: &Phase, setups: &[Setup]) -> E2e {
        let wall_ns = (phase.wall_s * 1e9) as u64;
        let slices = (phase.ops.len() / OPS_PER_SLICE).clamp(1, MAX_SLICES);
        let mut ops = phase.ops.clone();
        ops.sort_unstable();
        let bounds = |i: usize| {
            (
                wall_ns * i as u64 / slices as u64,
                wall_ns * (i + 1) as u64 / slices as u64,
            )
        };
        let clocks: Vec<(f64, f64)> = (0..slices)
            .map(|i| {
                let (from, to) = bounds(i);
                phase.between(from, to)
            })
            .collect();
        let slice_steal: Vec<f64> = clocks.iter().map(|&(_, steal)| steal).collect();
        let keep = less_stolen_half(&slice_steal);
        let (mut thr, mut p50, mut p99, mut cpu) = (vec![], vec![], vec![], vec![]);
        let mut kept_steal: f64 = 0.0;
        for (i, &(cpu_s, steal)) in clocks.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            kept_steal = kept_steal.max(steal);
            let (from, to) = bounds(i);
            let first = ops.partition_point(|&(end, _)| end < from);
            let last = if i + 1 == slices {
                ops.len()
            } else {
                ops.partition_point(|&(end, _)| end < to)
            };
            let mut lat: Vec<u64> = ops[first..last].iter().map(|&(_, l)| l).collect();
            lat.sort_unstable();
            let ok = lat.iter().filter(|&&l| l != u64::MAX).count().max(1) as f64;
            let len_s = (to - from) as f64 / 1e9;
            let ms = |q: f64| match percentile(&lat, q) {
                Some(u64::MAX) | None => len_s * 1e3,
                Some(ns) => ns as f64 / 1e6,
            };
            thr.push(ok / len_s);
            p50.push(ms(0.50));
            p99.push(ms(0.99));
            cpu.push(cpu_s * 1e6 / ok);
        }
        let setup_steal: Vec<f64> = setups.iter().map(|s| s.steal).collect();
        let kept_setups: Vec<f64> = setups
            .iter()
            .zip(less_stolen_half(&setup_steal))
            .filter(|&(_, keep)| keep)
            .map(|(s, _)| s.seconds)
            .collect();
        E2e {
            throughput_per_s: median(&thr),
            p50_ms: median(&p50),
            p99_ms: median(&p99),
            cpu_us_per_op: median(&cpu),
            peak_rss_mb: phase.sut_rss_mb,
            setup_s: median(&kept_setups),
            slice_steal,
            kept_slices: thr.len(),
            kept_steal,
        }
    }

    /// Even the less-stolen half of the phase's slices had a slice with a
    /// host steal share above `STEAL_MAX`.
    pub fn host_disturbed(&self) -> bool {
        self.kept_steal > STEAL_MAX
    }

    pub fn named(&self) -> [(&'static str, f64); 6] {
        [
            ("throughput_per_s", self.throughput_per_s),
            ("p50_ms", self.p50_ms),
            ("p99_ms", self.p99_ms),
            ("cpu_us_per_op", self.cpu_us_per_op),
            ("peak_rss_mb", self.peak_rss_mb),
            ("setup_s", self.setup_s),
        ]
    }
}

/// Prints the phase diagnostics that sit beside the metrics.
pub fn print_diagnostics(label: &str, phase: &Phase, e2e: &E2e, setups: &[Setup]) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gen_cores = phase.gen_cpu_s / phase.wall_s;
    println!(
        "# {label}: {} ops attempted, {} failed, {} latency samples in {:.3} s; \
         metrics over the {} least-stolen of {} slices (host steal share <= {:.3})",
        phase.attempted,
        phase.failed,
        phase.ops.len(),
        phase.wall_s,
        e2e.kept_slices,
        e2e.slice_steal.len(),
        e2e.kept_steal,
    );
    if e2e.host_disturbed() {
        println!(
            "# warning: {label} phase host-disturbed: a kept slice had a host steal share \
             of {:.3} (> {STEAL_MAX}); its wall-clock figures read slow",
            e2e.kept_steal
        );
    }
    let steal: Vec<String> = e2e.slice_steal.iter().map(|s| format!("{s:.3}")).collect();
    println!("# {label}: host steal share per slice {}", steal.join(" "));
    println!(
        "# {label}: host steal share {:.4}; generator CPU {:.3} cores ({:.1} % of {cores}); \
         generator threads {}, connections {}",
        phase.steal_share(),
        gen_cores,
        100.0 * gen_cores / cores as f64,
        phase.gen_threads,
        phase.connections
    );
    let shown: Vec<String> = setups
        .iter()
        .map(|s| format!("{:.4} s (steal {:.3})", s.seconds, s.steal))
        .collect();
    println!("# {label}: set-ups {}", shown.join(", "));
}

/// Everything a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures (each names what was wrong).
    pub errors: Vec<String>,
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn add_phase(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
    }

    pub fn error(&mut self, message: String) {
        if self.errors.len() < 20 {
            eprintln!("check failed: {message}");
        }
        self.errors.push(message);
    }

    /// The result line, the run's last line of standard output, with the
    /// metrics `(name, value, unit)` in the order given.
    pub fn render(&self, metrics: &[(String, f64, String)]) -> String {
        let correct = self.errors.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && metrics.iter().all(|(_, v, _)| v.is_finite());
        let mut out = format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Prints the traced-minus-untraced difference of each end-to-end metric.
pub fn print_overhead(untraced: &E2e, traced: &E2e) {
    for ((name, u), (_, t)) in untraced.named().iter().zip(traced.named()) {
        let share = if *u != 0.0 { (t - u) / u * 100.0 } else { 0.0 };
        println!(
            "# tracing overhead {name}: {:+} ({share:+.2} %; untraced {u}, traced {t})",
            t - u
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_s: u64, steal: u64, total: u64) -> Sample {
        Sample {
            at_ns: at_s * 1_000_000_000,
            cpu_s: at_s as f64,
            host: HostTicks { steal, total },
        }
    }

    #[test]
    fn the_more_stolen_slices_are_dropped() {
        // Four 1 s slices of 1 100 ops each; the hypervisor steals 30 % of
        // the host in the second one, where ops also ran 10x slower, and
        // 1 %, within the tick resolution, in the fourth.
        let ops = (0..4400u64)
            .map(|i| {
                let end = i * 909_090 + 1;
                let slow = (1_000_000_000..2_000_000_000).contains(&end);
                (end, if slow { 10_000_000 } else { 1_000_000 })
            })
            .collect();
        let phase = Phase {
            wall_s: 4.0,
            ops,
            attempted: 4400,
            samples: vec![
                sample(0, 0, 0),
                sample(1, 0, 200),
                sample(2, 60, 400),
                sample(3, 60, 600),
                sample(4, 62, 800),
            ],
            ..Phase::default()
        };
        let setups = [(1.0, 0.0), (9.0, 0.3), (1.2, 0.01)]
            .map(|(seconds, steal)| Setup { seconds, steal });
        let e2e = E2e::from_phase(&phase, &setups);
        assert_eq!(e2e.slice_steal, [0.0, 0.3, 0.0, 0.01]);
        assert_eq!((e2e.kept_slices, e2e.kept_steal), (3, 0.01));
        assert!(!e2e.host_disturbed());
        assert_eq!(e2e.p99_ms, 1.0);
        assert!((e2e.setup_s - 1.1).abs() < 1e-12);
    }

    #[test]
    fn a_phase_mostly_stolen_still_reports_its_less_stolen_half() {
        let phase = Phase {
            wall_s: 3.0,
            ops: (0..3600u64).map(|i| (i * 800_000, 1000)).collect(),
            samples: vec![
                sample(0, 0, 0),
                sample(1, 40, 200),
                sample(2, 60, 400),
                sample(3, 120, 600),
            ],
            ..Phase::default()
        };
        let e2e = E2e::from_phase(&phase, &[]);
        assert_eq!(e2e.slice_steal, [0.2, 0.1, 0.3]);
        assert_eq!((e2e.kept_slices, e2e.kept_steal), (2, 0.2));
        assert!(e2e.host_disturbed());
        assert!(e2e.throughput_per_s > 0.0 && e2e.p99_ms > 0.0);
    }
}
