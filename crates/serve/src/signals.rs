//! Minimal async-signal-safe SIGINT/SIGTERM latch, and the SIGPIPE
//! default for report commands.
//!
//! The workspace vendors no `libc`/`signal-hook`, so this goes straight to
//! the C runtime: `signal(2)` installs a handler that does the only
//! async-signal-safe thing worth doing — set an atomic flag. The server's
//! accept loop polls [`triggered`] and runs the ordinary graceful-shutdown
//! path from safe code.

use std::sync::atomic::{AtomicBool, Ordering};

static TRIGGERED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" {
    /// `signal(2)`; `handler` is a `sighandler_t`: a function pointer or
    /// `SIG_DFL` (0).
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn latch(_signum: i32) {
    // Only async-signal-safe operation here: one atomic store.
    TRIGGERED.store(true, Ordering::SeqCst);
}

/// Installs the latch for SIGINT (ctrl-c) and SIGTERM. Idempotent; safe to
/// call from any thread. No-op on non-unix targets.
pub fn install() {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` with a plain function pointer of the correct C
        // ABI is the documented libc contract; the handler touches only a
        // static atomic.
        unsafe {
            signal(SIGINT, latch as *const () as usize);
            signal(SIGTERM, latch as *const () as usize);
        }
    }
}

/// Restores SIGPIPE's default action, which the Rust runtime sets to
/// ignored. A write to a closed pipe then ends the process quietly, the
/// way other Unix filters end under `| head`, instead of failing with
/// `EPIPE` (which `println!` turns into a panic). For commands that only
/// write a report to stdout; a server keeps SIGPIPE ignored, because its
/// socket writes must see `EPIPE` rather than kill the process. No-op on
/// non-unix targets.
pub fn default_sigpipe() {
    #[cfg(unix)]
    {
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: resetting a signal to `SIG_DFL` installs no handler.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

/// Whether a latched signal has arrived since process start.
pub fn triggered() -> bool {
    TRIGGERED.load(Ordering::SeqCst)
}

/// Test hook: raises the latch as if a signal had been delivered.
#[doc(hidden)]
pub fn trigger_for_test() {
    TRIGGERED.store(true, Ordering::SeqCst);
}
