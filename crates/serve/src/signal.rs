//! Minimal SIGTERM/SIGINT hook for graceful daemon shutdown.
//!
//! The handler, installed through the workspace's one `signal(2)` binding
//! ([`mab_telemetry::signal`]), flips one process-global flag. Its body is
//! async-signal-safe (a single relaxed atomic store); all actual shutdown
//! work — draining the pool, persisting the job table — happens on the
//! main thread's poll loop in `mab-serve`.

use mab_telemetry::signal;
use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM or SIGINT has been received (or [`request`] called).
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

/// Flags shutdown as if a signal had arrived (used by tests and by the
/// daemon's own error paths).
pub fn request() {
    SHUTDOWN.store(true, Ordering::Relaxed);
}

extern "C" fn handle(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Installs the SIGTERM/SIGINT handlers (no-op on non-unix targets).
pub fn install() {
    signal::set_handler(signal::SIGINT, handle);
    signal::set_handler(signal::SIGTERM, handle);
}
