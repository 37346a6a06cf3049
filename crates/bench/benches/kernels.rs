//! Micro-benchmarks of the flat numeric kernels of the hot analytical
//! path, one layer at a time: the memoized placement pmf table, the
//! in-place stage convolution ladder, the counting-chain step (allocating
//! vs a reusable scratch arena), the absorbing-chain solver (allocating vs
//! flat), and the full M-S run they compose. The end-to-end figure for
//! this path is perfbench's `sweep` workload (`scripts/perf_ab.sh`). The
//! kernels are pinned bit for bit to the seed's nested implementation by
//! `gbd-core`'s test-only baseline (`crates/core/tests/baseline`).

use criterion::{criterion_group, criterion_main, Criterion};
use gbd_core::ms_approach::{self, MsOptions};
use gbd_core::params::SystemParams;
use gbd_core::report_dist::{
    per_sensor_distribution, stage_accuracy_with, stage_distribution_with,
};
use gbd_markov::absorbing::{analyze_absorbing, analyze_absorbing_with};
use gbd_markov::counting::{increment_matrix, CountingChain};
use gbd_markov::scratch::Scratch;
use gbd_stats::binomial::PmfTable;
use gbd_stats::discrete::DiscreteDist;
use std::hint::black_box;

fn paper() -> SystemParams {
    SystemParams::paper_defaults()
}

/// The body-stage input of the paper's operating point: the realistic
/// workload for the stage kernels.
fn body_stage() -> (Vec<f64>, f64, usize, f64, usize) {
    let params = paper();
    let opts = MsOptions::default();
    let inputs = ms_approach::stage_inputs(
        params.sensing_range(),
        &vec![params.step(); params.m_periods()],
        params.n_sensors(),
        &opts,
    )
    .expect("paper point is valid");
    let stage = inputs.last().expect("M >= 1");
    (
        stage.areas.clone(),
        params.field_area(),
        params.n_sensors(),
        params.pd(),
        stage.cap,
    )
}

fn bench_stage_accuracy(c: &mut Criterion) {
    let (areas, field_area, n, _pd, cap) = body_stage();
    let region: f64 = areas.iter().sum();
    let mut table = PmfTable::new();
    c.bench_function("stage_accuracy/flat_pmf_table", |b| {
        b.iter(|| stage_accuracy_with(black_box(region), field_area, n, cap, &mut table))
    });
}

fn bench_stage_distribution(c: &mut Criterion) {
    let (areas, field_area, n, pd, cap) = body_stage();
    let mut qn = DiscreteDist::point_mass(0);
    let mut conv = Vec::new();
    c.bench_function("stage_distribution/flat_in_place", |b| {
        b.iter(|| {
            stage_distribution_with(
                black_box(&areas),
                field_area,
                n,
                pd,
                cap,
                0.0,
                &mut qn,
                &mut conv,
            )
        })
    });
}

fn bench_counting_chain(c: &mut Criterion) {
    let (areas, field_area, n, pd, cap) = body_stage();
    let mut qn = DiscreteDist::point_mass(0);
    let mut conv = Vec::new();
    let (increment, _) =
        stage_distribution_with(&areas, field_area, n, pd, cap, 0.0, &mut qn, &mut conv);
    let m = paper().m_periods();
    let support_cap = m * increment.support_max();
    c.bench_function("counting_chain/step_allocating", |b| {
        b.iter(|| {
            let mut chain = CountingChain::new(support_cap);
            chain.run(black_box(&increment), m);
            chain.into_distribution()
        })
    });
    let mut scratch = Scratch::new();
    c.bench_function("counting_chain/step_with_scratch", |b| {
        b.iter(|| {
            let mut chain = CountingChain::new(support_cap);
            chain.run_with(black_box(&increment), m, &mut scratch);
            chain.into_distribution()
        })
    });
}

fn bench_absorbing_solver(c: &mut Criterion) {
    // A ~200-state counting chain: large enough that the O(n) state
    // classification and the flat elimination dominate.
    let increment = per_sensor_distribution(&[1.0, 2.0, 3.0, 4.0], 0.9);
    let t = increment_matrix(&increment, 200);
    c.bench_function("absorbing/allocating", |b| {
        b.iter(|| analyze_absorbing(black_box(&t)).expect("valid chain"))
    });
    let mut scratch = Scratch::new();
    c.bench_function("absorbing/flat_with_scratch", |b| {
        b.iter(|| analyze_absorbing_with(black_box(&t), &mut scratch).expect("valid chain"))
    });
}

fn bench_full_analysis(c: &mut Criterion) {
    let params = paper();
    let opts = MsOptions::default();
    c.bench_function("full_ms/flat", |b| {
        b.iter(|| ms_approach::analyze(black_box(&params), &opts).expect("paper point"))
    });
}

criterion_group!(
    benches,
    bench_stage_accuracy,
    bench_stage_distribution,
    bench_counting_chain,
    bench_absorbing_solver,
    bench_full_analysis
);
criterion_main!(benches);
