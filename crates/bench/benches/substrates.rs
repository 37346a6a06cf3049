//! Benchmarks of the substrate crates: geometry closed forms, spatial
//! queries on the CSR field (240 sensors, and 10^5 at paper density with
//! its focused rebuild), counting-chain steps and routing. The end-to-end
//! figure for the field is perfbench's `campaign` workload
//! (`scripts/perf_ab.sh`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gbd_field::deployment::{Deployer, UniformRandom};
use gbd_field::field::{BoundaryPolicy, SensorField};
use gbd_geometry::circle::lens_area;
use gbd_geometry::point::{Aabb, Point};
use gbd_geometry::stadium::Stadium;
use gbd_geometry::subarea::SubareaTable;
use gbd_markov::counting::CountingChain;
use gbd_net::gpsr::gpsr_route;
use gbd_net::graph::UnitDiskGraph;
use gbd_stats::discrete::DiscreteDist;
use gbd_stats::rng::rng_from_seed;
use std::hint::black_box;

fn bench_geometry(c: &mut Criterion) {
    c.bench_function("lens_area", |b| {
        b.iter(|| lens_area(black_box(1000.0), black_box(700.0)))
    });
    c.bench_function("subarea_table_m20", |b| {
        b.iter(|| {
            let t = SubareaTable::constant_speed(1000.0, 600.0, 20);
            let mut acc = 0.0;
            for l in 1..=20 {
                acc += t.subareas(l).iter().sum::<f64>();
            }
            acc
        })
    });
}

fn bench_field_queries(c: &mut Criterion) {
    let extent = Aabb::from_extent(32_000.0, 32_000.0);
    let mut rng = rng_from_seed(5);
    let positions = UniformRandom.deploy(240, &extent, &mut rng);
    let mut group = c.benchmark_group("stadium_query_240");
    for (name, policy) in [
        ("bounded", BoundaryPolicy::Bounded),
        ("torus", BoundaryPolicy::Torus),
    ] {
        let field = SensorField::new(extent, positions.clone(), policy);
        let dr = Stadium::new(
            Point::new(15_000.0, 16_000.0),
            Point::new(15_600.0, 16_000.0),
            1_000.0,
        );
        group.bench_with_input(BenchmarkId::from_parameter(name), &field, |b, f| {
            b.iter(|| f.query_stadium(black_box(&dr)))
        });
    }
    group.finish();
}

fn bench_large_field(c: &mut Criterion) {
    // The CSR grid at N = 10^5, paper density (side scales with sqrt N):
    // the allocation-free query against the allocating one.
    let n = 100_000usize;
    let side = 32_000.0 * (n as f64 / 240.0).sqrt();
    let extent = Aabb::from_extent(side, side);
    let mut rng = rng_from_seed(5);
    let positions = UniformRandom.deploy(n, &extent, &mut rng);
    let dr = Stadium::new(
        Point::new(side * 0.5, side * 0.5),
        Point::new(side * 0.5 + 600.0, side * 0.5),
        1_000.0,
    );
    let mut group = c.benchmark_group("stadium_query_100k");
    let csr = SensorField::new(extent, positions.clone(), BoundaryPolicy::Torus);
    group.bench_function("csr_alloc_free", |b| {
        let mut hits = Vec::new();
        b.iter(|| {
            csr.query_stadium_into(black_box(&dr), &mut hits);
            hits.len()
        })
    });
    group.bench_function("csr_allocating", |b| {
        b.iter(|| csr.query_stadium(black_box(&dr)))
    });
    group.finish();

    // The per-trial cost floor at large N: one focused rebuild over the
    // full position set (filter scan + counting sort of the corridor).
    let focus = dr.bounding_box().inflated(600.0);
    let mut warm = SensorField::new(extent, positions, BoundaryPolicy::Torus);
    c.bench_function("refocus_100k", |b| {
        b.iter(|| {
            warm.refocus(black_box(focus));
            warm.len()
        })
    });
}

fn bench_counting_chain(c: &mut Criterion) {
    let inc = DiscreteDist::new(vec![0.9, 0.06, 0.03, 0.01]).unwrap();
    c.bench_function("counting_chain_20_steps_cap60", |b| {
        b.iter(|| {
            let mut chain = CountingChain::new(60);
            for _ in 0..20 {
                chain.step(black_box(&inc));
            }
            chain.distribution().tail_sum(5)
        })
    });
}

fn bench_routing(c: &mut Criterion) {
    let extent = Aabb::from_extent(32_000.0, 32_000.0);
    let mut rng = rng_from_seed(9);
    let mut positions = UniformRandom.deploy(240, &extent, &mut rng);
    positions.push(Point::new(16_000.0, 16_000.0));
    let dst = positions.len() - 1;
    let graph = UnitDiskGraph::new(positions, 6_000.0);
    c.bench_function("gpsr_route_240", |b| {
        let mut src = 0usize;
        b.iter(|| {
            src = (src + 1) % dst;
            gpsr_route(black_box(&graph), src, dst, 4_000)
        })
    });
    c.bench_function("unit_disk_graph_build_240", |b| {
        let pts: Vec<Point> = (0..240)
            .map(|i| {
                Point::new(
                    (i * 131 % 320) as f64 * 100.0,
                    (i * 71 % 320) as f64 * 100.0,
                )
            })
            .collect();
        b.iter(|| UnitDiskGraph::new(black_box(pts.clone()), 6_000.0))
    });
}

criterion_group!(
    benches,
    bench_geometry,
    bench_field_queries,
    bench_large_field,
    bench_counting_chain,
    bench_routing
);
criterion_main!(benches);
