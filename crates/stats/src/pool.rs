//! The workspace's one fan-out: a batch of independent items over a
//! process-wide pool of parked helper threads.
//!
//! [`fan_out`] runs `work(i)` for every `i in 0..len` and returns the
//! outputs in index order. Items are claimed one at a time from a shared
//! counter, so scheduling decides only *who* computes an item, never
//! *what* is computed: with per-item randomness drawn from
//! [`crate::rng::rng_stream`]`(seed, i)`, the returned vector is identical
//! for any participant count. The engine's batches and every simulator
//! campaign run through it.
//!
//! * **One pool per process.** [`cores`] reads the core count once; the
//!   pool's `cores() − 1` helper threads start on the first call that can
//!   use one and park on a condition variable between calls. A process
//!   that sees one core (a shard pinned to one CPU) never starts one.
//! * **The caller always works.** It claims items beside the helpers and
//!   returns once every helper that joined has left the call.
//! * **One job at a time.** A call that finds the pool busy — a concurrent
//!   caller, or a nested call from inside an item — runs all of its items
//!   on its own thread, so nesting can neither deadlock nor oversubscribe.
//! * **Panics stay inside.** A participant that panics loses only the item
//!   it was computing; the items it finished are kept, and the caller
//!   recomputes what is missing once every helper has left. This module is
//!   that isolation boundary for the engine, so it never unwraps.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// The cores this process may run on, read once per process. The reading
/// honours CPU affinity and cgroup quotas, and is 1 when the OS cannot
/// tell.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The helper threads this process has started: 0 until the first call
/// that can use one, then `cores() − 1` (fewer if a spawn failed).
pub fn helpers_started() -> usize {
    HELPERS.get().copied().unwrap_or(0)
}

/// Runs `make_worker()(i)` for every `i in 0..len` on up to `participants`
/// threads — the caller and at most `cores() − 1` pool helpers — and
/// returns the outputs in index order.
///
/// Each participant calls `make_worker` once per call and runs every item
/// it claims through the returned closure, so the closure can own
/// per-participant state (scratch buffers, a cache-warm arena). When a
/// participant panics, the items it had finished are kept, and the ones
/// it lost are recomputed on the caller with a fresh worker after every
/// helper has left; a panic in that recomputation propagates. With a pure
/// `work`, the result does not depend on `participants`.
pub fn fan_out<T, W, F>(len: usize, participants: usize, make_worker: F) -> Vec<T>
where
    T: Send,
    F: Fn() -> W + Sync,
    W: FnMut(usize) -> T,
{
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(len));
    let participate = || {
        let mut mine = Vec::new();
        // A panic ends this participant; `mine` lives outside the catch,
        // so only the item in flight is lost.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let mut worker = make_worker();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                mine.push((i, worker(i)));
            }
        }));
        lock(&done).append(&mut mine);
    };
    let helpers = match participants.min(len) {
        0 | 1 => 0,
        wanted => (wanted - 1).min(start_helpers()),
    };
    if helpers == 0 {
        participate();
    } else {
        POOL.run(&participate, helpers);
    }

    let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    done.sort_unstable_by_key(|&(i, _)| i);
    let mut done = done.into_iter().peekable();
    let mut fallback = None;
    (0..len)
        .map(|i| match done.next_if(|&(claimed, _)| claimed == i) {
            Some((_, value)) => value,
            None => fallback.get_or_insert_with(&make_worker)(i),
        })
        .collect()
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        busy: false,
        job: None,
        generation: 0,
        openings: 0,
        active: 0,
    }),
    wake: Condvar::new(),
    idle: Condvar::new(),
};

static HELPERS: OnceLock<usize> = OnceLock::new();

/// Starts the pool's helpers on first use; returns how many run. The
/// threads live as long as the process, so their handles are dropped.
fn start_helpers() -> usize {
    *HELPERS.get_or_init(|| {
        (1..cores())
            .filter(|i| {
                std::thread::Builder::new()
                    .name(format!("gbd-pool-{i}"))
                    .spawn(|| POOL.serve())
                    .is_ok()
            })
            .count()
    })
}

/// A participant body shared with the helpers for the length of one call.
type Job = &'static (dyn Fn() + Sync);

struct Pool {
    state: Mutex<State>,
    /// Helpers wait here for a job.
    wake: Condvar,
    /// The caller waits here for the helpers that joined its job to leave.
    idle: Condvar,
}

struct State {
    /// A call owns the pool. It stays set until the owner has seen every
    /// helper leave, so that `active` only ever counts the owner's helpers.
    busy: bool,
    /// The owning call's participant body, while helpers may still join.
    job: Option<Job>,
    /// Counts published jobs, so that no helper joins one job twice.
    generation: u64,
    /// Helpers that may still join the current job.
    openings: usize,
    /// Helpers inside the current job.
    active: usize,
}

impl Pool {
    /// Runs `job` on the calling thread and on up to `helpers` parked
    /// helpers, returning once every helper that joined has left it. When
    /// another call owns the pool, runs `job` on the calling thread alone.
    fn run(&self, job: &(dyn Fn() + Sync), helpers: usize) {
        let mut state = lock(&self.state);
        if state.busy {
            drop(state);
            job();
            return;
        }
        // SAFETY: the helpers may call `erased` only while this call is
        // still running. A helper copies it out of `state.job` and raises
        // `state.active` under one lock (`join`), and its last use of the
        // copy, the call, ends before it lowers `active` again (`Left`).
        // `_leave`, created below before the lock is released, clears
        // `state.job` and waits until `active` is 0 when it is dropped,
        // which happens when this function returns *or unwinds*; it is a
        // local that nothing can leak. So no helper can reach `job` once
        // `run` has left, and `job` outlives `run`.
        let erased: Job = unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync + '_), &'static (dyn Fn() + Sync + 'static)>(
                job,
            )
        };
        state.busy = true;
        state.job = Some(erased);
        state.generation = state.generation.wrapping_add(1);
        state.openings = helpers;
        let _leave = Leave(self);
        drop(state);
        for _ in 0..helpers {
            self.wake.notify_one();
        }
        job();
    }

    /// A helper's life: wait for a job with an opening, run it, repeat.
    fn serve(&self) {
        let mut seen = 0u64;
        loop {
            let job = self.join(&mut seen);
            // `job` catches its own panics (see `fan_out`); `left` still
            // lowers `active` if one escaped.
            let left = Left(self);
            job();
            drop(left);
        }
    }

    /// Waits for a job this helper has not joined yet and joins it.
    fn join(&self, seen: &mut u64) -> Job {
        let mut state = lock(&self.state);
        loop {
            match state.job {
                Some(job) if state.openings > 0 && state.generation != *seen => {
                    *seen = state.generation;
                    state.openings -= 1;
                    state.active += 1;
                    return job;
                }
                _ => state = wait(&self.wake, state),
            }
        }
    }
}

/// Withdraws the owning call's job and waits for its helpers to leave.
struct Leave<'a>(&'a Pool);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        let pool = self.0;
        let mut state = lock(&pool.state);
        state.job = None;
        state.openings = 0;
        while state.active > 0 {
            state = wait(&pool.idle, state);
        }
        state.busy = false;
    }
}

/// Marks a helper as out of the current job.
struct Left<'a>(&'a Pool);

impl Drop for Left<'_> {
    fn drop(&mut self) {
        let pool = self.0;
        let mut state = lock(&pool.state);
        state.active -= 1;
        // Only a withdrawn job has a caller waiting for it to empty. Notify
        // after unlocking, so that the caller does not wake into a held lock.
        let last = state.active == 0 && state.job.is_none();
        drop(state);
        if last {
            pool.idle.notify_one();
        }
    }
}

/// Every update under these locks leaves the data valid, so a poisoned
/// lock is recovered rather than propagated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`], recovering a poisoned lock as [`lock`] does.
fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// [`fan_out`] with one shared `work` for every item.
    fn run_indexed<T, F>(len: usize, workers: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        fan_out(len, workers, || &work)
    }

    #[test]
    fn preserves_order_for_any_worker_count() {
        let expected: Vec<usize> = (0..57).map(|i| i * 3).collect();
        for workers in [1, 2, 5, 16, 64] {
            assert_eq!(run_indexed(57, workers, |i| i * 3), expected);
        }
    }

    #[test]
    fn empty_batch() {
        let out: Vec<u8> = run_indexed(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn recovers_items_lost_to_a_worker_panic() {
        use std::sync::atomic::AtomicBool;
        // The first claim of item 7 kills its worker; the batch must still
        // come back complete, with item 7 recomputed on the fallback path.
        let tripped = AtomicBool::new(false);
        let out = run_indexed(16, 4, |i| {
            if i == 7 && !tripped.swap(true, Ordering::SeqCst) {
                panic!("worker killed by test");
            }
            i * 2
        });
        let expected: Vec<usize> = (0..16).map(|i| i * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn recovers_when_the_callers_own_first_claim_panics() {
        let caller = std::thread::current().id();
        let tripped = AtomicBool::new(false);
        let out = run_indexed(16, 4, |i| {
            if std::thread::current().id() == caller {
                if !tripped.swap(true, Ordering::SeqCst) {
                    panic!("caller killed by test");
                }
            } else {
                // No helper finishes an item before the caller has
                // claimed one, so the helpers cannot take them all.
                let deadline = std::time::Instant::now() + Duration::from_secs(5);
                while !tripped.load(Ordering::SeqCst) && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            i * 2
        });
        assert!(tripped.load(Ordering::SeqCst), "the caller claimed an item");
        let expected: Vec<usize> = (0..16).map(|i| i * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn a_caller_panic_waits_for_the_helpers_inside_work() {
        let caller = std::thread::current().id();
        // Another test in this binary may hold the pool for a moment; then
        // no helper joins, and the attempt is repeated.
        for _ in 0..20 {
            let (entered, helper_in) = std::sync::mpsc::channel();
            let (entered, helper_in) = (Mutex::new(entered), Mutex::new(helper_in));
            let waited = AtomicBool::new(false);
            let helper_entered = AtomicBool::new(false);
            let finished = AtomicBool::new(false);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_indexed(4, 2, |i| {
                    if std::thread::current().id() == caller {
                        // Panic once a helper is inside `work` (or none
                        // came); the recomputation panics again and unwinds.
                        if !waited.swap(true, Ordering::SeqCst) {
                            let _ = lock(&helper_in).recv_timeout(Duration::from_secs(1));
                        }
                        panic!("caller killed by test");
                    }
                    if !helper_entered.swap(true, Ordering::SeqCst) {
                        lock(&entered).send(()).unwrap();
                        std::thread::sleep(Duration::from_millis(50));
                        finished.store(true, Ordering::SeqCst);
                    }
                    i
                })
            }));
            assert!(outcome.is_err(), "the caller's panic propagates");
            if helper_entered.load(Ordering::SeqCst) {
                assert!(
                    finished.load(Ordering::SeqCst),
                    "the call unwound while a helper was still inside `work`"
                );
                return;
            }
            if cores() == 1 {
                return;
            }
        }
        panic!("no helper joined in 20 calls");
    }

    #[test]
    fn fan_out_reuses_its_threads_across_calls() {
        let ran: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        for _ in 0..200 {
            let out = run_indexed(8, 4, |i| {
                lock(&ran).insert(std::thread::current().id());
                // Long enough that a thread started for this call would
                // take part in it.
                std::thread::sleep(Duration::from_micros(50));
                i
            });
            assert_eq!(out, (0..8).collect::<Vec<_>>());
        }
        let distinct = lock(&ran).len();
        assert!(
            distinct <= cores(),
            "{distinct} threads ran items on {} cores",
            cores()
        );
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results() {
        // Callers racing for the pool: each call either owns it or runs
        // alone, and an owner waits only for its own helpers. The items
        // last long enough for helpers to join; a pool that let a new
        // owner in before the last one saw its helpers leave hung here in
        // about one run in seven.
        std::thread::scope(|scope| {
            for caller in 1..=4usize {
                scope.spawn(move || {
                    for _ in 0..500 {
                        let out = run_indexed(8, 4, |i| {
                            let start = std::time::Instant::now();
                            while start.elapsed() < Duration::from_micros(5) {}
                            i * caller
                        });
                        assert_eq!(out, (0..8).map(|i| i * caller).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn nested_calls_stay_on_the_pools_threads() {
        let ran: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let out = run_indexed(6, 4, |i| {
            let inner = run_indexed(5, 4, |j| {
                lock(&ran).insert(std::thread::current().id());
                j
            });
            assert_eq!(inner, (0..5).collect::<Vec<_>>());
            i
        });
        assert_eq!(out, (0..6).collect::<Vec<_>>());
        let distinct = lock(&ran).len();
        assert!(
            distinct <= cores(),
            "{distinct} threads ran items on {} cores",
            cores()
        );
    }

    #[test]
    fn each_participant_builds_its_worker_once() {
        let built = AtomicUsize::new(0);
        let out = fan_out(100, 4, || {
            built.fetch_add(1, Ordering::SeqCst);
            let mut claimed = 0usize;
            move |i| {
                claimed += 1;
                (i, claimed)
            }
        });
        assert!(out.iter().enumerate().all(|(i, &(j, _))| i == j));
        // A worker's own counter starts at 1 on its first claim.
        let claiming = out.iter().filter(|&&(_, claimed)| claimed == 1).count();
        let built = built.load(Ordering::SeqCst);
        assert!(
            claiming >= 1 && claiming <= built,
            "{claiming} workers claimed, {built} built"
        );
        assert!(
            built <= cores().min(4),
            "{built} workers built for {} cores",
            cores()
        );
    }
}
