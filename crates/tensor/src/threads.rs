//! Host thread-count heuristic, shared by every kernel in the workspace.
//!
//! * [`host_threads`] — the host's worker count: the OS's answer, which
//!   `tucker_linalg::os_threads` resolves once per process. It is also the
//!   width of the worker team the kernels run on (`tucker_linalg::Pool`), so
//!   a heuristic call asks for exactly one part per participant;
//! * [`heuristic_threads`] — the shared guard: `1` below the caller's
//!   per-kernel work threshold, [`host_threads`] at or above it.
//!
//! Per-kernel thresholds stay with their kernels (`PAR_MIN_WORK` differs
//! between Gram and TTM on purpose — the dedup is of the parallelism lookup,
//! not of the cost models).

/// The partition count heuristic kernels use when no explicit count is
/// given: the process's cached OS thread count, a constant of the host.
pub fn host_threads() -> usize {
    tucker_linalg::os_threads()
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

    #[test]
    fn threshold_guard() {
        let os = tucker_linalg::os_threads();
        assert!(os >= 1);
        assert_eq!(host_threads(), os);
        assert_eq!(heuristic_threads(99, 100), 1);
        assert_eq!(heuristic_threads(100, 100), os);
        assert_eq!(heuristic_threads(1, 1), os);
        assert_eq!(heuristic_threads(usize::MAX, 1), os);
    }
}
