//! The workspace's one `signal(2)` binding.
//!
//! The build is dependency-free, so instead of a signal crate this module
//! declares the C library's `signal` once and wraps each use in a safe
//! function. Two callers install handlers through it: `mab-serve`'s
//! SIGTERM/SIGINT drain flag and the black box's fatal-signal crash dump.
//! On non-unix targets both functions are no-ops.

/// `SIGINT` (interactive interrupt).
pub const SIGINT: i32 = 2;
/// `SIGILL` (illegal instruction).
pub const SIGILL: i32 = 4;
/// `SIGABRT` (`abort()`).
pub const SIGABRT: i32 = 6;
/// `SIGFPE` (arithmetic fault).
pub const SIGFPE: i32 = 8;
/// `SIGBUS` (bus error).
pub const SIGBUS: i32 = 7;
/// `SIGSEGV` (invalid memory reference).
pub const SIGSEGV: i32 = 11;
/// `SIGTERM` (polite termination request).
pub const SIGTERM: i32 = 15;

#[cfg(unix)]
mod ffi {
    extern "C" {
        /// `sighandler_t signal(int, sighandler_t)`, with the handler passed
        /// as its pointer-sized value so `SIG_DFL` (0) fits the same slot.
        pub fn signal(signum: i32, handler: usize) -> usize;
    }
}

#[cfg(not(unix))]
mod ffi {
    pub unsafe fn signal(_signum: i32, _handler: usize) -> usize {
        0
    }
}

/// Routes signal `sig` to `handler`. The handler runs in signal context:
/// it must confine itself to async-signal-safe work (or, like the black
/// box's crash dump, accept the documented best-effort risk).
pub fn set_handler(sig: i32, handler: extern "C" fn(i32)) {
    // SAFETY: `handler` is a valid `extern "C" fn(i32)`, the ABI `signal(2)`
    // expects of a handler, and the signal numbers above are the values
    // Linux and macOS share. `signal` only swaps the disposition; it touches
    // no Rust-visible memory.
    unsafe { ffi::signal(sig, handler as usize) };
}

/// Restores the default disposition (`SIG_DFL`) for `sig`, so the next
/// delivery takes the kernel's default action.
pub fn reset_default(sig: i32) {
    const SIG_DFL: usize = 0;
    // SAFETY: `SIG_DFL` is a handler value `signal(2)` defines, and
    // installing it is async-signal-safe, so this may run inside a handler.
    unsafe { ffi::signal(sig, SIG_DFL) };
}

/// Human-readable name of the signals this module defines.
pub fn name(sig: i32) -> &'static str {
    match sig {
        SIGINT => "SIGINT",
        SIGILL => "SIGILL",
        SIGABRT => "SIGABRT",
        SIGBUS => "SIGBUS",
        SIGFPE => "SIGFPE",
        SIGSEGV => "SIGSEGV",
        SIGTERM => "SIGTERM",
        _ => "signal",
    }
}
