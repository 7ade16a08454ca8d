//! A dependency-free SIGTERM/SIGINT shutdown flag.
//!
//! The daemon's graceful drain needs exactly one bit from the OS: "a
//! termination signal arrived". Rather than pull in a signal crate, we
//! register a minimal handler through the C `signal()` entry point
//! (async-signal-safe here: the handler only stores to an atomic) that
//! flips a process-global flag. The accept and read loops poll the flag
//! between their short timeouts; nothing blocks indefinitely, so no
//! `EINTR` plumbing is needed (glibc's `signal()` installs BSD semantics
//! with `SA_RESTART` anyway, which is why the stdio transport drains on
//! EOF rather than relying on an interrupted read).

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" {
    // `handler` is a real function pointer, not the usize-encoded
    // SIG_IGN/SIG_DFL constants, so no numeric cast is involved.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

#[cfg(unix)]
extern "C" fn on_terminate(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM/SIGINT handler. Idempotent; a no-op off Unix
/// (EOF-triggered drain still works everywhere).
pub fn install_shutdown_handler() {
    #[cfg(unix)]
    unsafe {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        signal(SIGTERM, on_terminate);
        signal(SIGINT, on_terminate);
    }
}

/// True once a termination signal arrived.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}
