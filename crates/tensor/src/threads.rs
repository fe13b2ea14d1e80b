//! Host thread-count heuristic, shared by every kernel in the workspace.
//!
//! The Gram and TTM kernels (and the sweep-executor's `auto_threads`) all
//! used to call `std::thread::available_parallelism()` inline, each with its
//! own copy of the "go sequential below a work threshold" guard. The copies
//! had drifted in their thresholds and none of them could be pinned from a
//! test. This module is the single replacement:
//!
//! * [`host_threads`] — the host's worker count: the OS's answer, which
//!   `tucker_linalg::os_threads` resolves once per process (the packed GEMM
//!   reads the same value), overridable process-wide via
//!   [`set_host_threads_override`] so tests (and the serving bench) can pin a
//!   deterministic count regardless of the machine they run on;
//! * [`heuristic_threads`] — the shared guard: `1` below the caller's
//!   per-kernel work threshold, [`host_threads`] at or above it.
//!
//! Per-kernel thresholds stay with their kernels (`PAR_MIN_WORK` differs
//! between Gram and TTM on purpose — the dedup is of the parallelism lookup,
//! not of the cost models).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide override; `0` means "not set, ask the OS".
static HOST_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pin (or unpin, with `None`) the worker count reported by
/// [`host_threads`]. Process-wide and racy-by-design: intended for test
/// setup and bench harnesses, not for concurrent reconfiguration.
pub fn set_host_threads_override(threads: Option<usize>) {
    HOST_THREADS_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// The worker count heuristic kernels use when no explicit count is given:
/// the override if one is pinned, else the process's cached OS count.
pub fn host_threads() -> usize {
    match HOST_THREADS_OVERRIDE.load(Ordering::Relaxed) {
        0 => tucker_linalg::os_threads(),
        n => n,
    }
}

/// Shared sequential-below-threshold guard: `1` when `work < min_work`,
/// [`host_threads`] otherwise.
pub fn heuristic_threads(work: usize, min_work: usize) -> usize {
    if work < min_work {
        1
    } else {
        host_threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: the override is process-wide state and the
    // harness runs tests concurrently.
    #[test]
    fn override_and_threshold_guard() {
        set_host_threads_override(Some(3));
        assert_eq!(host_threads(), 3);
        assert_eq!(heuristic_threads(usize::MAX, 1), 3);
        set_host_threads_override(Some(7));
        assert_eq!(heuristic_threads(1, 1), 7);
        assert_eq!(heuristic_threads(99, 100), 1);
        assert_eq!(heuristic_threads(100, 100), 7);
        // Unpinned, it is the one value `tucker-linalg` resolved for the
        // process — not a fresh query — and the override wins over it again.
        set_host_threads_override(None);
        let os = tucker_linalg::os_threads();
        assert!(os >= 1);
        assert_eq!(host_threads(), os);
        assert_eq!(heuristic_threads(usize::MAX, 1), os);
        set_host_threads_override(Some(os + 1));
        assert_eq!(host_threads(), os + 1);
        set_host_threads_override(None);
    }
}
