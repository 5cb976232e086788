//! The `KINET_THREADS` knob.
//!
//! Every kernel in this crate runs on the calling thread. The knob sizes
//! the fleet scheduler's task workers (`kinet_fleet::schedule`), which run
//! one device's work per task; this module only resolves the count, from,
//! in priority order:
//!
//! 1. [`with_threads`] (a scoped override, used by tests, benchmarks and the
//!    scheduler's per-task pin);
//! 2. the `KINET_THREADS` environment variable (read once per process);
//! 3. [`std::thread::available_parallelism`].

use std::cell::Cell;
use std::sync::OnceLock;

/// `KINET_THREADS`, or available parallelism when unset/unparsable.
fn env_threads() -> usize {
    static ENV_THREADS: OnceLock<usize> = OnceLock::new();
    *ENV_THREADS.get_or_init(|| {
        std::env::var("KINET_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The worker count in effect on this thread.
pub fn num_threads() -> usize {
    THREAD_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(env_threads)
        .max(1)
}

/// Runs `f` with the worker count pinned to `n` on this thread, restoring
/// the previous setting afterwards (also on panic).
///
/// Used by tests and benchmarks that compare thread counts within one
/// process; production code should use the `KINET_THREADS` environment
/// variable instead.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            THREAD_OVERRIDE.with(|c| c.set(prev));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1)))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_scopes_and_restores() {
        let ambient = num_threads();
        let inner = with_threads(3, || {
            let nested = with_threads(5, num_threads);
            assert_eq!(nested, 5);
            num_threads()
        });
        assert_eq!(inner, 3);
        assert_eq!(num_threads(), ambient);
    }
}
