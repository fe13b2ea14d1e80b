//! Differential: the **full HOOI pipeline** (ST-HOSVD init + iterated tree
//! sweeps through the sequential backend) under `KernelMode::Packed` must
//! match the same pipeline under `KernelMode::Naive` — the pre-packing
//! unrolled kernels — on randomized 5-D metadata. The packed micro-kernels
//! regroup every floating-point summation (KC-blocked k-loops, register
//! tiles), so this is the end-to-end proof that the regrouping never leaks
//! past roundoff wherever the truncations are spectrally well-posed.
//!
//! The kernel mode is **process-global** (`tucker_linalg::set_kernel_mode`),
//! so everything lives in a single `#[test]`: no other test in this binary
//! may run concurrently and observe a flipped mode.

use tucker_core::executor::{self, LoopOutcome, SeqBackend, SweepBackend};
use tucker_core::sthosvd::sthosvd;
use tucker_core::{chain_tree, LoopCfg, TuckerMeta};
use tucker_linalg::{set_kernel_mode, sym_evd_leading, KernelMode, Matrix};
use tucker_suite::fields::hash_noise;
use tucker_tensor::norm::fro_norm_sq;
use tucker_tensor::DenseTensor;

/// Structured low-rank field (same construction as the backend
/// differentials): five separable cosine components with geometrically
/// decaying weights give every mode a cleanly gapped Gram spectrum up to
/// rank ~5; a tiny noise floor breaks exact ties.
fn field(c: &[usize]) -> f64 {
    let mut v = 0.0;
    let mut w = 1.0;
    for r in 0..5 {
        let mut prod = 1.0;
        for (n, &x) in c.iter().enumerate() {
            let freq = 0.9 + 0.37 * r as f64 + 0.11 * n as f64;
            let phase = 0.3 * r as f64 + 0.05 * (n * n) as f64;
            prod *= (freq * x as f64 + phase).cos();
        }
        v += w * prod;
        w *= 0.4;
    }
    v + 1e-4 * hash_noise(c, 0xD1FF)
}

/// Every mode's truncation must sit on a clear relative eigengap, otherwise
/// the kept subspace is not a stable function of the matrix and a roundoff
/// regrouping may legitimately rotate it.
fn gapped(g: &Matrix, k: usize) -> bool {
    let evd = sym_evd_leading(g.clone(), g.nrows());
    if k >= evd.eigenvalues.len() {
        return true;
    }
    let top = evd.eigenvalues[0].max(1e-300);
    (evd.eigenvalues[k - 1] - evd.eigenvalues[k]) / top > 1e-3
}

/// Audit the input tensor's Gram spectra (the ST-HOSVD init EVDs).
fn input_well_posed(t: &DenseTensor, meta: &TuckerMeta) -> bool {
    (0..meta.order()).all(|n| gapped(&tucker_tensor::gram(t, n), meta.k(n)))
}

/// Audit the converged state: for each mode, the Gram HOOI's fixed point
/// sees — the input compressed by the final factors in every *other* mode —
/// must have a clear gap at the truncation index. Without it, the kept
/// subspace is degenerate at the fixed point itself and a roundoff
/// regrouping legitimately returns a rotated basis.
fn converged_well_posed(t: &DenseTensor, meta: &TuckerMeta, factors: &[Matrix]) -> bool {
    (0..meta.order()).all(|n| {
        let mut cur = t.clone();
        for (m, f) in factors.iter().enumerate() {
            if m != n {
                cur = tucker_tensor::ttm(&cur, m, &f.transpose());
            }
        }
        gapped(&tucker_tensor::gram(&cur, n), meta.k(n))
    })
}

/// One full pipeline run — ST-HOSVD init, then up to 4 chain-tree HOOI
/// sweeps — under the given kernel mode.
fn run_pipeline(t: &DenseTensor, meta: &TuckerMeta, mode: KernelMode) -> LoopOutcome<DenseTensor> {
    set_kernel_mode(mode);
    let init = sthosvd(t, meta);
    let tree = chain_tree(meta, &(0..meta.order()).collect::<Vec<_>>());
    let mut b = SeqBackend::new();
    b.recycle(init.core);
    let cfg = LoopCfg {
        max_sweeps: 4,
        tol: 1e-13,
    };
    let out = executor::hooi_loop(&mut b, t, meta, &tree, init.factors, fro_norm_sq(t), cfg);
    set_kernel_mode(KernelMode::Auto);
    out
}

/// Orthogonal projector `F·Fᵀ` onto a factor's column span: invariant to
/// the sign/rotation indeterminacy of eigenvectors inside a kept subspace,
/// which a floating-point regrouping may legitimately exercise.
fn projector(f: &Matrix) -> Matrix {
    tucker_linalg::gemm(
        f,
        tucker_linalg::Transpose::No,
        f,
        tucker_linalg::Transpose::Yes,
        1.0,
    )
}

/// Full HOOI (init included) via the packed kernels vs the naive unrolled
/// kernels on randomized 5-D metadata: errors within 1e-10, factor
/// subspaces and core energy within EVD-stability tolerances.
#[test]
fn hooi_packed_matches_naive_kernels_5d() {
    let mut checked = 0;
    for seed in 0u64..12 {
        // Deterministic "random" 5-D draw: mode lengths 4..=6, ranks 1..=3.
        let dims: Vec<usize> = (0..5)
            .map(|n| 4 + ((hash_noise(&[n, 11], seed).abs() * 1e6) as usize % 3))
            .collect();
        let ks: Vec<usize> = (0..5)
            .map(|n| 1 + ((hash_noise(&[n, 23], seed).abs() * 1e6) as usize % 3))
            .collect();
        let meta = TuckerMeta::new(dims, ks);
        let t = DenseTensor::from_fn(meta.input().clone(), field);
        if !input_well_posed(&t, &meta) {
            continue; // degenerate init: the property is undefined
        }

        let naive = run_pipeline(&t, &meta, KernelMode::Naive);
        if !converged_well_posed(&t, &meta, &naive.factors) {
            continue; // degenerate fixed point: basis not comparable
        }
        checked += 1;
        let packed = run_pipeline(&t, &meta, KernelMode::Packed);

        let (e_naive, e_packed) = (naive.errors.last().unwrap(), packed.errors.last().unwrap());
        assert!(
            (e_naive - e_packed).abs() < 1e-10,
            "{meta}: packed error {e_packed} vs naive {e_naive}"
        );
        // Core energy (= represented energy) is basis-invariant.
        let en = fro_norm_sq(&naive.core).sqrt();
        let ep = fro_norm_sq(&packed.core).sqrt();
        assert!(
            (en - ep).abs() < 1e-8 * en.max(1.0),
            "{meta}: core energy {ep} vs {en}"
        );
        for (fp, fn_) in packed.factors.iter().zip(&naive.factors) {
            let pd = projector(fp).max_abs_diff(&projector(fn_));
            assert!(pd < 1e-7, "{meta}: factor subspace mismatch ({pd:.3e})");
        }
    }
    assert!(checked >= 3, "only {checked} well-posed draws out of 12");
}
