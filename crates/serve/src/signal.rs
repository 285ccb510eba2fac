//! Minimal SIGINT/SIGTERM hookup without external crates.
//!
//! The handler only sets a process-global flag — the single
//! async-signal-safe thing a handler may do. The server's connection
//! handlers read it ([`signalled`]) on their 50 ms idle tick and before
//! each dequeue, and the first to see it starts the ordinary graceful
//! shutdown, which wakes the blocking acceptor. On non-Unix targets
//! installation is a no-op and shutdown relies on `/admin/shutdown` or
//! [`ServerHandle::shutdown`](crate::ServerHandle::shutdown).

use std::sync::atomic::{AtomicBool, Ordering};

/// Serializes the tests that raise the process-global flag: any server
/// running in the same test binary would see it and shut down.
#[cfg(test)]
pub(crate) static FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Flipped by the signal handler; never cleared.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Whether SIGINT or SIGTERM has arrived since
/// [`install_signal_handler`] was called.
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

#[cfg(test)]
pub(crate) fn raise_for_test() {
    SIGNALLED.store(true, Ordering::SeqCst);
}

#[cfg(test)]
pub(crate) fn clear_for_test() {
    SIGNALLED.store(false, Ordering::SeqCst);
}

/// Routes SIGINT (ctrl-c) and SIGTERM to the shutdown flag. Idempotent;
/// affects every server in the process (they all drain on signal).
#[cfg(unix)]
pub fn install_signal_handler() {
    // `signal(2)` via a direct libc binding: the vendored workspace has
    // no libc crate, but every Unix target links libc itself.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_signal` only performs an atomic store, which is
    // async-signal-safe; the handler pointer outlives the process.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

/// No-op off Unix: use `/admin/shutdown` or
/// [`ServerHandle::shutdown`](crate::ServerHandle::shutdown) instead.
#[cfg(not(unix))]
pub fn install_signal_handler() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_starts_clear_and_latches() {
        let _lock = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear_for_test();
        assert!(!signalled());
        raise_for_test();
        assert!(signalled());
        clear_for_test();
    }

    #[cfg(unix)]
    #[test]
    fn installing_the_handler_is_idempotent() {
        install_signal_handler();
        install_signal_handler();
    }
}
