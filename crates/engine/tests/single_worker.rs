//! An engine with one worker runs its batches on the calling thread and
//! never starts the shared pool. This binary holds one test, so that no
//! other test can start the pool first.

use gbd_core::prelude::*;
use gbd_engine::{BackendSpec, Engine, EvalRequest, SimulationSpec};

#[test]
fn a_single_worker_engine_never_starts_the_pool() {
    let mut batch: Vec<EvalRequest> = [60, 120, 180, 240]
        .iter()
        .map(|&n| {
            EvalRequest::new(
                SystemParams::paper_defaults().with_n_sensors(n),
                BackendSpec::ms_default(),
            )
        })
        .collect();
    // A simulation asking for more threads would start the pool itself:
    // a one-worker batch leaves it free.
    batch.push(EvalRequest::new(
        SystemParams::paper_defaults().with_n_sensors(60),
        BackendSpec::Simulation(SimulationSpec {
            trials: 100,
            seed: 7,
            threads: 1,
            ..SimulationSpec::default()
        }),
    ));
    let caller = std::thread::current().id();
    let responses = Engine::with_workers(1).evaluate_batch_with(&batch, |_| {
        assert_eq!(std::thread::current().id(), caller);
    });
    assert!(responses.iter().all(|r| r.outcome.is_ok()));
    assert_eq!(gbd_stats::pool::helpers_started(), 0);
}
