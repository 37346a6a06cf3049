//! Integration tests of the `gbd-obs` metrics subsystem.
//!
//! The headline property is **exact telescoping**: windowed deltas sampled
//! while N threads hammer the instruments must sum to the lifetime totals
//! bit-for-bit — no samples lost to races, none double-counted. Around it:
//! consecutive-window exactness as seen by a live watcher draining a
//! bounded subscription, and a property test proving the versioned
//! `metrics` verb output survives a round trip through `gbd-serve`'s
//! strict JSON parser unchanged.

use gbd_engine::Engine;
use gbd_obs::{Registry, Window};
use gbd_serve::{Json, Section, ServerMetrics};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sum of a named histogram's per-window (count, sum) deltas.
fn hist_deltas(window: &Window, name: &str) -> (u64, u64) {
    let i = window
        .schema
        .histograms
        .iter()
        .position(|n| n == name)
        .expect("histogram in schema");
    (window.hist_count_deltas[i], window.hist_sum_deltas_us[i])
}

#[test]
fn window_deltas_telescope_to_lifetime_totals_under_contention() {
    const THREADS: u64 = 8;
    const OPS: u64 = 20_000;

    let registry = Arc::new(Registry::new());
    let ops = registry.counter("ops");
    let lat = registry.histogram("lat_us");
    let done = Arc::new(AtomicBool::new(false));

    // A live watcher drains the bounded subscription while sampling is in
    // flight. Whenever it holds two consecutive windows it checks delta
    // exactness: total_i - total_{i-1} == delta_i, which holds even when
    // the recording threads race the sampler mid-window.
    let subscription = registry.subscribe(false);
    let token = subscription.token.clone();
    let watcher = std::thread::spawn(move || {
        let mut prev: Option<Arc<Window>> = None;
        let mut received = 0u64;
        while let Ok(msg) = subscription.rx.recv() {
            if let Some(p) = &prev {
                if msg.window.seq == p.seq + 1 {
                    let delta = msg.window.counter_delta("ops").unwrap();
                    let total = msg.window.counter_total("ops").unwrap();
                    let prev_total = p.counter_total("ops").unwrap();
                    assert_eq!(
                        total - prev_total,
                        delta,
                        "window {} delta disagrees with total movement",
                        msg.window.seq
                    );
                }
            }
            prev = Some(Arc::clone(&msg.window));
            received += 1;
        }
        received
    });

    // The sampler plays the ticker, keeping every window it closes so
    // nothing is lost to ring eviction or watcher lag.
    let sampler = {
        let registry = Arc::clone(&registry);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut windows = Vec::new();
            while !done.load(Ordering::SeqCst) {
                windows.push(registry.sample_window());
                std::thread::sleep(Duration::from_micros(200));
            }
            windows
        })
    };

    let hammers: Vec<_> = (0..THREADS)
        .map(|t| {
            let ops = Arc::clone(&ops);
            let lat = Arc::clone(&lat);
            std::thread::spawn(move || {
                for i in 0..OPS {
                    ops.inc();
                    lat.record_us(1 + (t * OPS + i) % 4096);
                }
            })
        })
        .collect();
    for hammer in hammers {
        hammer.join().expect("hammer thread");
    }
    done.store(true, Ordering::SeqCst);
    let mut windows = sampler.join().expect("sampler thread");
    // One final window picks up whatever landed after the last sample.
    windows.push(registry.sample_window());
    token.cancel();
    registry.reap_cancelled();
    let seen = watcher.join().expect("watcher thread");
    assert!(seen > 0, "watcher saw no windows");

    let delta_sum: u64 = windows
        .iter()
        .map(|w| w.counter_delta("ops").unwrap())
        .sum();
    assert_eq!(delta_sum, THREADS * OPS);
    assert_eq!(delta_sum, ops.get());
    let (count_sum, us_sum) = windows
        .iter()
        .map(|w| hist_deltas(w, "lat_us"))
        .fold((0u64, 0u64), |(c, s), (dc, ds)| (c + dc, s + ds));
    assert_eq!(count_sum, lat.count());
    assert_eq!(us_sum, lat.sum_us());
    let last = windows.last().unwrap();
    assert_eq!(last.counter_total("ops"), Some(THREADS * OPS));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The `metrics` verb payload — for any instrument state and any
    /// section selection — renders to a line the strict wire parser
    /// accepts, and re-rendering the parse reproduces the line exactly.
    #[test]
    fn metrics_verb_output_round_trips_through_strict_parsing(
        evaluated in 0u64..100_000,
        admitted in 0u64..100_000,
        shed in 0u64..1_000,
        batches in 0u64..10_000,
        latencies in proptest::collection::vec(1u64..10_000_000, 0..40),
        section_mask in 0usize..32,
    ) {
        let metrics = ServerMetrics::new();
        let registry = metrics.registry();
        registry.counter("evaluated").add(evaluated);
        registry.counter("admitted").add(admitted);
        registry.counter("shed").add(shed);
        registry.counter("batches_flushed").add(batches);
        let latency = registry.histogram("latency_us");
        let queue_wait = registry.histogram("queue_wait_us");
        let compute = registry.histogram("compute_us");
        for &us in &latencies {
            latency.record_us(us);
            queue_wait.record_us(us / 3);
            compute.record_us(us - us / 3);
        }
        metrics.record_verb("eval");
        metrics.record_verb("metrics");

        let all = [
            Section::Server,
            Section::Cache,
            Section::Store,
            Section::Histograms,
            Section::Cluster,
        ];
        let sections: Vec<Section> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| section_mask & (1 << i) != 0)
            .map(|(_, s)| *s)
            .collect();

        let engine = Engine::new();
        let snapshot = metrics.snapshot(3, &engine, None);
        let rendered = snapshot.render_metrics(42, &sections).render();
        let parsed = Json::parse(&rendered).expect("strict parse accepts the payload");
        prop_assert_eq!(parsed.render(), rendered);
        prop_assert_eq!(
            parsed.get("schema_version").and_then(Json::as_u64),
            Some(gbd_serve::METRICS_SCHEMA_VERSION)
        );
    }
}
