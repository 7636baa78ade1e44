//! SIGINT/SIGTERM → shutdown-flag wiring for the CLI.
//!
//! The only place in the workspace that touches a signal handler, and one
//! of the crate's three carve-outs from its `deny(unsafe_code)` (with
//! `reactor.rs` and `mmap.rs`): this one covers the `signal(2)` calls. The
//! handler does the sole thing that is async-signal-safe and useful here:
//! an atomic store into a static `AtomicBool`, which
//! [`crate::Server::run`]'s accept loop polls.
//!
//! Installed by the `serve` CLI entry point, never by library code or tests
//! — tests flip the server's handle directly.

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide shutdown request flag, set by the handler.
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

/// True once SIGINT or SIGTERM has been delivered.
pub fn shutdown_requested() -> bool {
    SHUTDOWN_REQUESTED.load(Ordering::SeqCst)
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use super::SHUTDOWN_REQUESTED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// `signal(2)`: fine here — we need no siginfo, no masks, just "run
        /// this on delivery".
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe operation: an atomic store.
        SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: the handler is a plain extern "C" fn performing a single
        // atomic store — async-signal-safe — and both signal numbers are
        // valid, catchable signals.
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

/// Installs the SIGINT/SIGTERM handlers (no-op on non-Unix platforms).
pub fn install_handlers() {
    #[cfg(unix)]
    sys::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_starts_clear() {
        // Handlers are not installed in tests; the flag must simply read
        // false until something stores it.
        assert!(!shutdown_requested());
    }
}
