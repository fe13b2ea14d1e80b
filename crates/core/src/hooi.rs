//! Sequential HOOI (paper §2.2, Figure 2) driven by a TTM-tree — thin shims
//! over the [`crate::executor`] sweep loops on the strictly sequential
//! [`SeqBackend`].
//!
//! One invocation takes the input tensor and a current decomposition and
//! produces a new decomposition with the same core size and (weakly) smaller
//! error. The canonical Gram → EVD-truncation → TTM tree walk lives in
//! [`executor::hooi_sweep`] (shared with the rayon shared-memory and distsim
//! backends); this module only adapts it to the classic
//! decomposition-in/decomposition-out API.
//!
//! Kernels: every leaf Gram is the fused [`tucker_tensor::gram`] family (no
//! unfolding is ever materialized) and every TTM draws its output buffer
//! from a [`TtmWorkspace`]; intermediates are recycled as soon as their last
//! consumer finishes. With a warm workspace (see [`hooi_invocation_ws`] and
//! [`hooi_iterate`]) a steady-state invocation performs **zero tensor-sized
//! allocations** — enforced by the allocation-regression test below.

use crate::decomposition::TuckerDecomposition;
use crate::executor::{self, SeqBackend, SweepBackend, SweepStats};
use crate::meta::TuckerMeta;
use crate::plan::tree::TtmTree;
use std::time::Duration;
use tucker_tensor::norm::fro_norm_sq;
use tucker_tensor::{DenseTensor, TtmWorkspace};

/// Timing breakdown of one sequential HOOI invocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct HooiTimings {
    /// Time in TTM kernels (the TTM component of the tree + the core chain).
    pub ttm: Duration,
    /// Time in Gram + EVD (the SVD component).
    pub svd: Duration,
}

impl HooiTimings {
    fn from_stats(stats: &SweepStats) -> Self {
        HooiTimings {
            ttm: stats.ttm_compute,
            svd: stats.svd,
        }
    }
}

/// Result of one HOOI invocation.
#[derive(Clone, Debug)]
pub struct HooiOutput {
    /// The new decomposition `{G̃; F̃₁, …, F̃_N}`.
    pub decomposition: TuckerDecomposition,
    /// Relative error of the new decomposition against the input tensor
    /// (computed from the core norm; the factors are orthonormal).
    pub error: f64,
    /// Timing breakdown.
    pub timings: HooiTimings,
}

/// Run one sweep function on a [`SeqBackend`] borrowing the caller's
/// workspace, repackaging the outcome as a [`HooiOutput`].
fn seq_invocation(
    t: &DenseTensor,
    meta: &TuckerMeta,
    ws: &mut TtmWorkspace,
    sweep: impl FnOnce(&mut SeqBackend) -> executor::SweepOutcome<DenseTensor>,
) -> HooiOutput {
    assert_eq!(t.shape(), meta.input(), "tensor does not match metadata");
    let mut b = SeqBackend::from_workspace(std::mem::take(ws));
    let out = sweep(&mut b);
    *ws = b.into_workspace();
    HooiOutput {
        decomposition: TuckerDecomposition::new(out.core, out.factors),
        error: out.stats.error,
        timings: HooiTimings::from_stats(&out.stats),
    }
}

/// Run one HOOI invocation of `tree` on `t`, starting from `current`, with a
/// throwaway [`TtmWorkspace`]. Iterating callers should hold a workspace and
/// use [`hooi_invocation_ws`] so buffers carry over between invocations.
///
/// # Panics
/// Panics if shapes are inconsistent or the tree is invalid for the
/// metadata's order.
pub fn hooi_invocation(
    t: &DenseTensor,
    meta: &TuckerMeta,
    current: &TuckerDecomposition,
    tree: &TtmTree,
) -> HooiOutput {
    hooi_invocation_ws(t, meta, current, tree, &mut TtmWorkspace::new())
}

/// [`hooi_invocation`] with an explicit workspace. Every intermediate and
/// the new core draw their buffers from `ws`; once the workspace is warm
/// (after one invocation, provided the caller recycles the superseded core),
/// an invocation performs zero tensor-sized allocations.
///
/// # Panics
/// Panics if shapes are inconsistent or the tree is invalid for the
/// metadata's order.
pub fn hooi_invocation_ws(
    t: &DenseTensor,
    meta: &TuckerMeta,
    current: &TuckerDecomposition,
    tree: &TtmTree,
    ws: &mut TtmWorkspace,
) -> HooiOutput {
    assert_eq!(
        current.factors.len(),
        meta.order(),
        "decomposition order mismatch"
    );
    let input_norm_sq = fro_norm_sq(t);
    seq_invocation(t, meta, ws, |b| {
        executor::hooi_sweep(b, t, meta, tree, &current.factors, input_norm_sq)
    })
}

/// Textbook Gauss–Seidel HOOI invocation (De Lathauwer et al.): modes are
/// updated one at a time and each TTM-chain uses the **latest** factors.
///
/// This variant cannot share intermediate tensors between chains (so it
/// performs the naive `N·(N−1)` TTMs), but it inherits the classic ALS
/// guarantee: the error is non-increasing across invocations. The tree-based
/// [`hooi_invocation`] is the paper's (faster, Jacobi-style) variant; this
/// one serves as the convergence reference and as an ablation point.
pub fn hooi_invocation_gauss_seidel(
    t: &DenseTensor,
    meta: &TuckerMeta,
    current: &TuckerDecomposition,
) -> HooiOutput {
    let input_norm_sq = fro_norm_sq(t);
    seq_invocation(t, meta, &mut TtmWorkspace::new(), |b| {
        executor::gauss_seidel_sweep(b, t, meta, &current.factors, input_norm_sq)
    })
}

/// Iterate HOOI until the error improvement drops below `tol` or
/// `max_iters` invocations have run. Returns the final output and the error
/// trace (one entry per invocation).
///
/// One [`TtmWorkspace`] (inside the backend) spans all invocations, and each
/// superseded core is recycled into it, so every iteration after the first
/// is free of tensor-sized allocations. The convergence check itself lives
/// in [`executor::hooi_loop`], shared with every backend.
pub fn hooi_iterate(
    t: &DenseTensor,
    meta: &TuckerMeta,
    init: TuckerDecomposition,
    tree: &TtmTree,
    max_iters: usize,
    tol: f64,
) -> (HooiOutput, Vec<f64>) {
    assert!(max_iters >= 1, "need at least one iteration");
    assert_eq!(t.shape(), meta.input(), "tensor does not match metadata");
    let input_norm_sq = fro_norm_sq(t);
    let mut b = SeqBackend::new();
    let init_factors = init.factors;
    // The init's core is superseded by the first sweep's; hand its buffer
    // to the pool up front.
    b.recycle(init.core);
    let out = executor::hooi_loop(
        &mut b,
        t,
        meta,
        tree,
        init_factors,
        input_norm_sq,
        executor::LoopCfg {
            max_sweeps: max_iters,
            tol,
        },
    );
    let error = *out.errors.last().expect("at least one iteration ran");
    let timings = HooiTimings::from_stats(out.per_sweep.last().expect("at least one sweep"));
    (
        HooiOutput {
            decomposition: TuckerDecomposition::new(out.core, out.factors),
            error,
            timings,
        },
        out.errors,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tree::{balanced_tree, chain_tree, optimal_tree};
    use crate::sthosvd::{random_init, sthosvd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tucker_linalg::Matrix;
    use tucker_tensor::Shape;

    fn random_tensor(dims: &[usize], seed: u64) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        DenseTensor::random(Shape::new(dims.to_vec()), &dist, &mut rng)
    }

    /// Smooth, compressible but non-separable synthetic field with a small
    /// deterministic noise floor (keeps errors well above machine epsilon
    /// and Gram eigenvalues simple).
    fn smooth_tensor(dims: &[usize]) -> DenseTensor {
        DenseTensor::from_fn(Shape::new(dims.to_vec()), |c| {
            let mut s = 0.0;
            let mut h = 0x9E37_79B9_7F4A_7C15u64;
            for (i, &x) in c.iter().enumerate() {
                s += (0.9 + 0.13 * i as f64) * x as f64;
                h = (h ^ (x as u64).wrapping_mul(0xff51_afd7_ed55_8ccd))
                    .rotate_left(31)
                    .wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            }
            let noise = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            (0.21 * s).sin() + 0.5 * (0.043 * s * s).cos() + 0.05 * noise
        })
    }

    #[test]
    fn improves_on_random_init() {
        let dims = [8usize, 8, 8];
        let t = random_tensor(&dims, 1);
        let meta = TuckerMeta::new(dims.to_vec(), vec![3, 3, 3]);
        let mut rng = StdRng::seed_from_u64(10);
        let init = random_init(&t, &meta, &mut rng);
        let e0 = init.error_from_core_norm(fro_norm_sq(&t));
        let tree = chain_tree(&meta, &[0, 1, 2]);
        let out = hooi_invocation(&t, &meta, &init, &tree);
        assert!(
            out.error < e0,
            "HOOI must improve a random init: {e0} -> {}",
            out.error
        );
        assert!(out.decomposition.factors_orthonormal(1e-9));
    }

    #[test]
    fn all_trees_produce_identical_factors() {
        // Same (old) factors in, so every valid tree computes the same new
        // decomposition (commutativity + deterministic EVD).
        let dims = [6usize, 7, 5, 4];
        let t = smooth_tensor(&dims);
        let meta = TuckerMeta::new(dims.to_vec(), vec![3, 2, 2, 2]);
        let init = sthosvd(&t, &meta);
        let perm: Vec<usize> = (0..4).collect();
        let trees = [
            chain_tree(&meta, &perm),
            chain_tree(&meta, &[3, 2, 1, 0]),
            balanced_tree(&meta, &perm),
            optimal_tree(&meta).tree,
        ];
        let outs: Vec<HooiOutput> = trees
            .iter()
            .map(|tr| hooi_invocation(&t, &meta, &init, tr))
            .collect();
        for o in &outs[1..] {
            assert!((o.error - outs[0].error).abs() < 1e-10);
            for (f1, f2) in o
                .decomposition
                .factors
                .iter()
                .zip(&outs[0].decomposition.factors)
            {
                assert!(f1.max_abs_diff(f2) < 1e-7, "factor mismatch between trees");
            }
        }
    }

    #[test]
    fn gauss_seidel_error_is_monotone() {
        // The Gauss–Seidel variant carries the classic ALS guarantee.
        let dims = [8usize, 7, 6];
        let t = smooth_tensor(&dims);
        let meta = TuckerMeta::new(dims.to_vec(), vec![3, 3, 2]);
        let mut cur = sthosvd(&t, &meta);
        let mut last = cur.error_from_core_norm(fro_norm_sq(&t));
        for _ in 0..6 {
            let out = hooi_invocation_gauss_seidel(&t, &meta, &cur);
            assert!(
                out.error <= last + 1e-10,
                "Gauss–Seidel error increased: {last} -> {}",
                out.error
            );
            last = out.error;
            cur = out.decomposition;
        }
    }

    #[test]
    fn jacobi_tree_sweep_improves_a_random_init() {
        // Tree-based (Jacobi) HOOI is not guaranteed monotone near a fixed
        // point, but a single sweep from a random subspace must improve by a
        // wide margin.
        let dims = [8usize, 7, 6];
        let t = smooth_tensor(&dims);
        let meta = TuckerMeta::new(dims.to_vec(), vec![3, 3, 2]);
        let mut rng = StdRng::seed_from_u64(99);
        let init = random_init(&t, &meta, &mut rng);
        let e0 = init.error_from_core_norm(fro_norm_sq(&t));
        let tree = chain_tree(&meta, &[0, 1, 2]);
        let out = hooi_invocation(&t, &meta, &init, &tree);
        assert!(
            out.error < e0 * 0.95,
            "one sweep must improve: {e0} -> {}",
            out.error
        );
        // And a Gauss–Seidel sweep from the same init does at least as well
        // as its own theory requires (error <= init error).
        let gs = hooi_invocation_gauss_seidel(&t, &meta, &init);
        assert!(gs.error <= e0 + 1e-10);
    }

    #[test]
    fn exact_low_rank_stays_exact() {
        // If the input is exactly low-rank, STHOSVD already nails it and
        // HOOI must keep error ~0.
        let meta = TuckerMeta::new([8, 6, 7], [2, 2, 3]);
        let mut rng = StdRng::seed_from_u64(20);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        let core = DenseTensor::random(meta.core().clone(), &dist, &mut rng);
        let factors: Vec<Matrix> = (0..3)
            .map(|n| {
                tucker_linalg::orthonormal_columns(&Matrix::random(
                    meta.l(n),
                    meta.k(n),
                    &dist,
                    &mut rng,
                ))
            })
            .collect();
        let t = TuckerDecomposition::new(core, factors).reconstruct();
        let init = sthosvd(&t, &meta);
        let tree = chain_tree(&meta, &[0, 1, 2]);
        let out = hooi_invocation(&t, &meta, &init, &tree);
        assert!(out.error < 1e-8, "error {}", out.error);
    }

    #[test]
    fn iterate_respects_max_iters_and_traces() {
        let dims = [6usize, 6, 6];
        let t = smooth_tensor(&dims);
        let meta = TuckerMeta::new(dims.to_vec(), vec![2, 2, 2]);
        let init = sthosvd(&t, &meta);
        let tree = chain_tree(&meta, &[0, 1, 2]);
        let (out, trace) = hooi_iterate(&t, &meta, init, &tree, 8, 1e-12);
        assert!(!trace.is_empty() && trace.len() <= 8);
        assert_eq!(out.error, *trace.last().unwrap());
        // Every iterate is a valid decomposition.
        assert!(out.decomposition.factors_orthonormal(1e-8));
    }

    #[test]
    fn iterate_stops_early_when_converged() {
        // An exactly low-rank tensor converges immediately: the error is 0
        // after every sweep, so the |Δerror| < tol condition fires at the
        // second iteration.
        let meta = TuckerMeta::new([6, 6, 6], [2, 2, 2]);
        let mut rng = StdRng::seed_from_u64(31);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        let core = DenseTensor::random(meta.core().clone(), &dist, &mut rng);
        let factors: Vec<Matrix> = (0..3)
            .map(|n| {
                tucker_linalg::orthonormal_columns(&Matrix::random(
                    meta.l(n),
                    meta.k(n),
                    &dist,
                    &mut rng,
                ))
            })
            .collect();
        let t = TuckerDecomposition::new(core, factors).reconstruct();
        let init = sthosvd(&t, &meta);
        let tree = chain_tree(&meta, &[0, 1, 2]);
        let (_, trace) = hooi_iterate(&t, &meta, init, &tree, 50, 1e-12);
        assert!(
            trace.len() <= 3,
            "exact tensor should converge instantly: {trace:?}"
        );
    }

    /// Allocation-regression smoke: once the workspace is warm, a
    /// steady-state HOOI invocation — fused Gram leaves, workspace TTMs,
    /// recycled core — performs **zero** tensor-buffer allocations. This is
    /// the grep-proof guard that no hot path clones a tensor or
    /// materializes an unfolding (an unfold would allocate a tensor-sized
    /// matrix copy via a fresh buffer; any `DenseTensor` clone or
    /// constructor bumps the thread-local counter).
    #[test]
    fn steady_state_invocation_is_tensor_alloc_free() {
        if !cfg!(debug_assertions) {
            return; // the counter is compiled out in release builds
        }
        let dims = [8usize, 7, 6];
        let t = smooth_tensor(&dims);
        let meta = TuckerMeta::new(dims.to_vec(), vec![3, 3, 2]);
        // A balanced tree exercises shared intermediates (several children
        // per node), the harder case for buffer recycling.
        let tree = balanced_tree(&meta, &[0, 1, 2]);
        let mut ws = TtmWorkspace::new();
        let mut current = sthosvd(&t, &meta);
        for _ in 0..2 {
            let out = hooi_invocation_ws(&t, &meta, &current, &tree, &mut ws);
            let superseded = std::mem::replace(&mut current, out.decomposition);
            ws.recycle(superseded.core);
        }
        let before = tucker_tensor::tensor_buffer_allocs();
        let out = hooi_invocation_ws(&t, &meta, &current, &tree, &mut ws);
        let allocs = tucker_tensor::tensor_buffer_allocs() - before;
        // The thread's kernel pack buffers are part of the same invariant:
        // their growth bumps the same counter.
        assert_eq!(
            allocs, 0,
            "steady-state HOOI invocation allocated {allocs} tensor buffers"
        );
        // The invocation still did real work.
        assert!(out.error.is_finite() && out.decomposition.factors_orthonormal(1e-8));
    }

    #[test]
    fn timings_are_recorded() {
        let dims = [10usize, 10, 10];
        let t = random_tensor(&dims, 3);
        let meta = TuckerMeta::new(dims.to_vec(), vec![4, 4, 4]);
        let init = sthosvd(&t, &meta);
        let tree = chain_tree(&meta, &[0, 1, 2]);
        let out = hooi_invocation(&t, &meta, &init, &tree);
        assert!(out.timings.ttm > Duration::ZERO);
        assert!(out.timings.svd > Duration::ZERO);
    }
}
