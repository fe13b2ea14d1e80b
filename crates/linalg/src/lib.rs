//! Dense matrix kernels for the distributed Tucker decomposition workspace.
//!
//! This crate is the numerical substrate that stands in for the vendor BLAS /
//! LAPACK stack used by the paper (ESSL `dgemm`, `dsyrk`, `dsyevx`):
//!
//! * [`Matrix`] — a column-major dense `f64` matrix,
//! * [`mod@gemm`] — blocked matrix multiply, column-panel parallel on the team,
//! * [`pool`] — the one thread story of the workspace: a persistent team of
//!   parked workers ([`Pool::shared`], `os_threads()` wide) under every
//!   parallel Gram/TTM/GEMM region; a kernel's `threads` argument is its
//!   *partition count*, the team's width is how many OS threads run the parts,
//! * [`pack`] — the packed, register-tiled micro-kernel layer (panel packing
//!   into aligned reusable [`PackBuf`]s, `MR×NR` register tiles, `KC/MC/NC`
//!   cache blocking) that `gemm`/`syrk` and the tensor kernels route through
//!   once operands are large enough to amortize packing; its one source body
//!   is compiled for baseline and for AVX2 and picked per process
//!   ([`kernel_isa`]), with identical output bits,
//! * [`mod@syrk`] — symmetric rank-k update `C = A·Aᵀ` exploiting symmetry, with
//!   accumulating (`β`-aware) and raw-slice `AᵀA` entry points backing the
//!   fused Gram kernel in `tucker-tensor`,
//! * [`evd`] — symmetric eigendecomposition: [`sym_evd_leading`], the
//!   selected-eigenpair solver in the shape of `dsyevx` (tridiagonalization
//!   without forming `Q`, QL for the eigenvalues, inverse iteration and
//!   back-transformation for the `k` wanted vectors; `k = n` is the full
//!   spectrum),
//! * [`svd`] — leading left singular vectors via the Gram-matrix + EVD route
//!   used by the paper (§5); [`leading_from_gram`] runs every Gram through
//!   [`sym_evd_leading`].
//!
//! Everything is pure Rust with no BLAS dependency so the workspace builds on
//! any platform; performance is adequate for the scaled experiments and, more
//! importantly, identical across the strategies being compared.

pub mod evd;
pub mod gemm;
pub mod matrix;
pub mod pack;
pub mod pool;
pub mod svd;
pub mod syrk;

pub use evd::{sym_evd_leading, SymEvd};
pub use gemm::{gemm, gemm_into, Transpose};
pub use matrix::Matrix;
pub use pack::{
    bytes_packed, kernel_isa, kernel_mode, set_kernel_mode, KernelMode, PackBuf, PackPair,
};
pub use pool::Pool;
pub use svd::{leading_from_gram, GramSvd};
pub use syrk::{mirror_lower, syrk, syrk_aat_lower, syrk_ata_lower, syrk_into, unrolled_dot};

/// Worker threads the OS grants this process — `available_parallelism()`,
/// `1` if it cannot tell — resolved once: on Linux every call of the std
/// function re-opens and parses the cgroup quota files, and the kernels ask
/// on every call.
pub fn os_threads() -> usize {
    static OS_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *OS_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |w| w.get()))
}

#[cfg(test)]
mod tests {
    #[test]
    fn os_threads_is_the_std_answer_resolved_once() {
        let first = super::os_threads();
        assert_eq!(
            first,
            std::thread::available_parallelism().map_or(1, |w| w.get())
        );
        assert!(first >= 1);
        assert_eq!(super::os_threads(), first);
    }
}
