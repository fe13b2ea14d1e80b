//! Integration: full sequential pipeline — tensor substrate → linalg →
//! STHOSVD → HOOI — on structured data.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tucker_core::decomposition::TuckerDecomposition;
use tucker_core::executor::{self, SeqBackend, SweepBackend};
use tucker_core::meta::TuckerMeta;
use tucker_core::plan::tree::{balanced_tree, chain_tree, optimal_tree, TtmTree};
use tucker_core::sthosvd::{random_init, sthosvd};
use tucker_linalg::{leading_from_gram, syrk, Matrix};
use tucker_suite::fields::combustion_field;
use tucker_tensor::norm::{fro_norm_sq, relative_error};
use tucker_tensor::{DenseTensor, Shape};

fn plume(dims: &[usize]) -> DenseTensor {
    let d = dims.to_vec();
    DenseTensor::from_fn(Shape::new(dims.to_vec()), move |c| combustion_field(c, &d))
}

/// One tree-based HOOI sweep of `tree` from `init`'s factors on the
/// sequential backend: the new decomposition and its error.
fn hooi(
    t: &DenseTensor,
    meta: &TuckerMeta,
    init: &TuckerDecomposition,
    tree: &TtmTree,
) -> (TuckerDecomposition, f64) {
    let out = executor::hooi_sweep(
        &mut SeqBackend::new(),
        t,
        meta,
        tree,
        &init.factors,
        fro_norm_sq(t),
    );
    let error = out.stats.error;
    (TuckerDecomposition::new(out.core, out.factors), error)
}

#[test]
fn sthosvd_then_hooi_compresses_structured_field() {
    let dims = [16usize, 16, 12, 6];
    let t = plume(&dims);
    let meta = TuckerMeta::new(dims.to_vec(), vec![5, 5, 4, 3]);
    let init = sthosvd(&t, &meta);
    let e0 = init.error_from_core_norm(fro_norm_sq(&t));
    // The plume is strongly compressible: STHOSVD alone should capture most
    // of the energy.
    assert!(e0 < 0.2, "STHOSVD error too high: {e0}");

    let (out, error) = hooi(&t, &meta, &init, &optimal_tree(&meta).tree);
    assert!(error <= e0 * 1.05, "HOOI regressed badly: {e0} -> {error}");
    assert!(out.factors_orthonormal(1e-8));

    // The core-norm error formula must agree with direct reconstruction.
    let direct = relative_error(&t, &out.reconstruct());
    assert!((direct - error).abs() < 1e-8);
}

#[test]
fn gauss_seidel_converges_monotonically_to_fixed_point() {
    let dims = [12usize, 12, 12];
    let t = plume(&dims);
    let meta = TuckerMeta::new(dims.to_vec(), vec![4, 4, 4]);
    let mut rng = StdRng::seed_from_u64(7);
    let init = random_init(&t, &meta, &mut rng);
    let norm_sq = fro_norm_sq(&t);
    let mut errors = vec![init.error_from_core_norm(norm_sq)];
    let mut factors = init.factors;
    let mut b = SeqBackend::new();
    for _ in 0..8 {
        let out = executor::gauss_seidel_sweep(&mut b, &t, &meta, &factors, norm_sq);
        errors.push(out.stats.error);
        factors = out.factors;
        b.recycle(out.core);
    }
    for w in errors.windows(2) {
        assert!(w[1] <= w[0] + 1e-10, "not monotone: {errors:?}");
    }
    // Must have essentially converged.
    let last_gap = errors[errors.len() - 2] - errors[errors.len() - 1];
    assert!(last_gap < 1e-4, "not converged: {errors:?}");
}

#[test]
fn tree_choice_does_not_change_results_only_cost() {
    let dims = [10usize, 12, 8, 6];
    let t = plume(&dims);
    let meta = TuckerMeta::new(dims.to_vec(), vec![3, 4, 3, 2]);
    let init = sthosvd(&t, &meta);
    let perm: Vec<usize> = (0..4).collect();
    let (chain, e_chain) = hooi(&t, &meta, &init, &chain_tree(&meta, &perm));
    let (_, e_bal) = hooi(&t, &meta, &init, &balanced_tree(&meta, &perm));
    let (opt, e_opt) = hooi(&t, &meta, &init, &optimal_tree(&meta).tree);
    assert!((e_chain - e_bal).abs() < 1e-9);
    assert!((e_chain - e_opt).abs() < 1e-9);
    assert!(chain.core.max_abs_diff(&opt.core) < 1e-7);
}

#[test]
fn exactly_low_rank_input_recovered_through_whole_pipeline() {
    // Build T = G x1 F1 x2 F2 x3 F3 with known rank, recover it exactly.
    let meta = TuckerMeta::new([14, 10, 9], [3, 4, 2]);
    let mut rng = StdRng::seed_from_u64(11);
    let dist = rand::distributions::Uniform::new(-1.0, 1.0);
    let core = DenseTensor::random(meta.core().clone(), &dist, &mut rng);
    let factors: Vec<Matrix> = (0..3)
        .map(|n| {
            let g = Matrix::random(meta.l(n), meta.k(n), &dist, &mut rng);
            leading_from_gram(&syrk(&g), meta.k(n)).u
        })
        .collect();
    let truth = TuckerDecomposition::new(core, factors);
    let t = truth.reconstruct();

    let init = sthosvd(&t, &meta);
    assert!(init.error_from_core_norm(fro_norm_sq(&t)) < 1e-8);
    let (out, error) = hooi(&t, &meta, &init, &optimal_tree(&meta).tree);
    assert!(error < 1e-8);
    // Reconstruction matches the original elementwise.
    let z = out.reconstruct();
    assert!(z.max_abs_diff(&t) < 1e-7 * fro_norm_sq(&t).sqrt());
}

#[test]
fn more_aggressive_cores_give_larger_error() {
    let dims = [14usize, 14, 10];
    let t = plume(&dims);
    let mut last = 0.0;
    for k in [8usize, 5, 3, 1] {
        let meta = TuckerMeta::new(dims.to_vec(), vec![k.min(10); 3]);
        let d = sthosvd(&t, &meta);
        let e = d.error_from_core_norm(fro_norm_sq(&t));
        assert!(
            e >= last - 1e-9,
            "smaller core must not reduce error: K={k} gave {e} after {last}"
        );
        last = e;
    }
}
