//! Differential tests: the rayon shared-memory backend against the strictly
//! sequential backend, through the **same** sweep-executor loop, across the
//! four-strategy lineup, on randomized 5-D and 6-D metadata. Both backends
//! compute the same math — only the Gram's fiber partition (and therefore
//! its floating-point summation grouping) differs; a TTM's bits never
//! depend on its slab partition — so errors must agree to 1e-10 wherever
//! the truncations are spectrally well-posed. That a split TTM changes no
//! bit is fenced inside `tucker-core` on the same random 5-D and 6-D shapes
//! and ST-HOSVD chains (`executor::tests::pinned_three_part_ttms_change_no_bit_*`,
//! every TTM pinned to three parts at three Gram parts and at one), so the
//! comparisons here hold for a multi-part TTM on any host.
//!
//! Also proves the steady-state tensor-alloc-free invariant through the
//! executor path (the canonical loop + `SeqBackend`).

use proptest::prelude::*;
use tucker_core::executor::{self, RayonBackend, SeqBackend, SweepBackend};
use tucker_core::plan::tree::{NodeLabel, TtmTree};
use tucker_core::plan::Planner;
use tucker_core::sthosvd::hosvd_init_factors;
use tucker_core::TuckerMeta;
use tucker_linalg::{leading_from_gram, Matrix};
use tucker_suite::fields::hash_noise;
use tucker_tensor::norm::fro_norm_sq;
use tucker_tensor::DenseTensor;

const NRANKS: usize = 4;

/// Structured low-rank field (same construction as `differential_engine`):
/// five separable cosine components with geometrically decaying weights give
/// every mode a cleanly gapped Gram spectrum up to rank ~5; a tiny noise
/// floor breaks exact ties far below the structured eigenvalues.
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

/// Eigengap test for one truncation: without a clear relative gap at index
/// `k` the kept subspace is not a stable function of the matrix, and a
/// 1e-15 regrouping perturbation may legitimately rotate it.
fn gapped(g: &Matrix, k: usize) -> bool {
    let evd = tucker_linalg::sym_evd_leading(g.clone(), g.nrows());
    if k >= evd.eigenvalues.len() {
        return true; // no truncation
    }
    let top = evd.eigenvalues[0].max(1e-300);
    (evd.eigenvalues[k - 1] - evd.eigenvalues[k]) / top > 1e-3
}

/// Audit every EVD a one-sweep HOOI of `tree` will perform, sequentially
/// mirroring the executor's tree walk.
fn hooi_plan_well_posed(
    t: &DenseTensor,
    meta: &TuckerMeta,
    init: &[Matrix],
    tree: &TtmTree,
) -> bool {
    let mut stack: Vec<(usize, std::rc::Rc<DenseTensor>)> = Vec::new();
    let root = std::rc::Rc::new(t.clone());
    for &c in tree.node(tree.root()).children.iter().rev() {
        stack.push((c, std::rc::Rc::clone(&root)));
    }
    while let Some((id, input)) = stack.pop() {
        match tree.node(id).label {
            NodeLabel::Root => unreachable!(),
            NodeLabel::Ttm(n) => {
                let out = std::rc::Rc::new(tucker_tensor::ttm(&*input, n, &init[n].transpose()));
                for &c in tree.node(id).children.iter().rev() {
                    stack.push((c, std::rc::Rc::clone(&out)));
                }
            }
            NodeLabel::Leaf(n) => {
                if !gapped(&tucker_tensor::gram(&*input, n), meta.k(n)) {
                    return false;
                }
            }
        }
    }
    true
}

/// Metadata from raw draws, with cores clamped to the mode lengths.
fn build_meta(ls: &[usize], kraw: &[usize]) -> TuckerMeta {
    let ks: Vec<usize> = ls.iter().zip(kraw).map(|(&l, &k)| k.clamp(1, l)).collect();
    TuckerMeta::new(ls.to_vec(), ks)
}

/// The planner's lineup needs valid grids for its nominal rank count.
fn viable(meta: &TuckerMeta) -> bool {
    meta.core_cardinality() >= NRANKS as f64
        && !tucker_distsim::enumerate_valid_grids(NRANKS, meta.core().dims()).is_empty()
}

/// Rayon vs seq, one HOOI sweep, every tree of the paper lineup, several
/// worker counts (including oversubscription on a 1-core host).
fn check_backends(meta: &TuckerMeta) {
    let t = DenseTensor::from_fn(meta.input().clone(), field);
    if (0..meta.order()).any(|n| !gapped(&tucker_tensor::gram(&t, n), meta.k(n))) {
        return; // spectrally degenerate init: the property is undefined
    }
    let init = hosvd_init_factors(&t, meta);
    let input_norm_sq = fro_norm_sq(&t);
    let planner = Planner::new(meta.clone(), NRANKS);
    for plan in planner.paper_lineup() {
        if !hooi_plan_well_posed(&t, meta, &init, &plan.tree) {
            continue;
        }
        let mut seq = SeqBackend::new();
        let s = executor::hooi_sweep(&mut seq, &t, meta, &plan.tree, &init, input_norm_sq);
        for threads in [0usize, 3] {
            // 0 = host default; 3 = a forced three-part Gram.
            let mut b = if threads == 0 {
                RayonBackend::new()
            } else {
                RayonBackend::with_gram_parts(threads)
            };
            let r = executor::hooi_sweep(&mut b, &t, meta, &plan.tree, &init, input_norm_sq);
            assert!(
                (r.stats.error - s.stats.error).abs() < 1e-10,
                "{meta}: {} [rayon x{}]: {} vs seq {}",
                plan.name(),
                b.threads(),
                r.stats.error,
                s.stats.error
            );
            for (fr, fs) in r.factors.iter().zip(&s.factors) {
                assert!(
                    fr.max_abs_diff(fs) < 1e-7,
                    "{meta}: {} factor mismatch",
                    plan.name()
                );
            }
            assert!(r.core.max_abs_diff(&s.core) < 1e-8, "{}", plan.name());
        }
    }
}

/// Rayon vs seq on the STHOSVD chain (ascending-K order).
fn check_backends_sthosvd(meta: &TuckerMeta) {
    let t = DenseTensor::from_fn(meta.input().clone(), field);
    let order = tucker_core::plan::order::optimal_sthosvd_order(meta);
    // Audit the chain's truncations on the sequential reference.
    {
        let mut cur = t.clone();
        for &n in &order {
            let g = tucker_tensor::gram(&cur, n);
            if !gapped(&g, meta.k(n)) {
                return;
            }
            let f = leading_from_gram(&g, meta.k(n)).u;
            cur = tucker_tensor::ttm(&cur, n, &f.transpose());
        }
    }
    let input_norm_sq = fro_norm_sq(&t);
    let mut seq = SeqBackend::new();
    let s = executor::sthosvd_sweep(&mut seq, &t, meta, &order, input_norm_sq);
    let mut par = RayonBackend::with_gram_parts(3);
    let r = executor::sthosvd_sweep(&mut par, &t, meta, &order, input_norm_sq);
    assert!(
        (r.stats.error - s.stats.error).abs() < 1e-10,
        "{meta}: sthosvd rayon {} vs seq {}",
        r.stats.error,
        s.stats.error
    );
    assert!(r.core.max_abs_diff(&s.core) < 1e-8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// 5-D: rayon backend matches the sequential backend to 1e-10.
    #[test]
    fn rayon_matches_seq_5d(
        ls in prop::collection::vec(3usize..=6, 5..=5),
        kraw in prop::collection::vec(1usize..=4, 5..=5),
    ) {
        let meta = build_meta(&ls, &kraw);
        prop_assume!(viable(&meta));
        check_backends(&meta);
    }

    /// 6-D: same, one order higher.
    #[test]
    fn rayon_matches_seq_6d(
        ls in prop::collection::vec(3usize..=5, 6..=6),
        kraw in prop::collection::vec(1usize..=4, 6..=6),
    ) {
        let meta = build_meta(&ls, &kraw);
        prop_assume!(viable(&meta));
        check_backends(&meta);
    }

    /// 5-D STHOSVD chain: rayon matches seq.
    #[test]
    fn rayon_matches_seq_sthosvd_5d(
        ls in prop::collection::vec(3usize..=6, 5..=5),
        kraw in prop::collection::vec(1usize..=4, 5..=5),
    ) {
        let meta = build_meta(&ls, &kraw);
        prop_assume!(viable(&meta));
        check_backends_sthosvd(&meta);
    }
}

/// The steady-state tensor-alloc-free invariant holds through the executor
/// path: once a `SeqBackend`'s workspace is warm and superseded cores are
/// recycled, a HOOI sweep performs **zero** tensor-buffer allocations.
#[test]
fn steady_state_executor_sweep_is_tensor_alloc_free() {
    if !cfg!(debug_assertions) {
        return; // the counter is compiled out in release builds
    }
    let meta = TuckerMeta::new([8, 7, 6, 5], [3, 3, 2, 2]);
    let t = DenseTensor::from_fn(meta.input().clone(), field);
    let input_norm_sq = fro_norm_sq(&t);
    let init = hosvd_init_factors(&t, &meta);
    assert!(
        (0..meta.order()).all(|n| gapped(&tucker_tensor::gram(&t, n), meta.k(n))),
        "degenerate fixture"
    );
    // A balanced tree exercises shared intermediates (several children per
    // node), the harder case for buffer recycling.
    let tree = tucker_core::plan::tree::balanced_tree(&meta, &[0, 1, 2, 3]);

    let mut b = SeqBackend::new();
    let mut factors = init;
    let mut core: Option<DenseTensor> = None;
    for _ in 0..2 {
        let out = executor::hooi_sweep(&mut b, &t, &meta, &tree, &factors, input_norm_sq);
        factors = out.factors;
        if let Some(old) = core.replace(out.core) {
            b.recycle(old);
        }
    }
    let before = tucker_tensor::tensor_buffer_allocs();
    let out = executor::hooi_sweep(&mut b, &t, &meta, &tree, &factors, input_norm_sq);
    let allocs = tucker_tensor::tensor_buffer_allocs() - before;
    assert_eq!(
        allocs, 0,
        "steady-state executor sweep allocated {allocs} tensor buffers"
    );
    assert!(out.stats.error.is_finite());
}

/// A 64×12×10 field of multilinear rank (16, 4, 4) over a `1e-4` noise
/// floor: sixteen mutually orthogonal rank-one terms with weights `0.9^r`,
/// term `r` the outer product of DCT basis vectors `r`, `r % 4` and `r / 4`
/// of the three modes. Every Gram a sweep forms has distinct eigenvalues and
/// a clean gap at its truncation.
fn field_rank16(c: &[usize]) -> f64 {
    const DIMS: [usize; 3] = [64, 12, 10];
    let dct = |n: usize, idx: usize| {
        (std::f64::consts::PI * (c[n] as f64 + 0.5) * idx as f64 / DIMS[n] as f64).cos()
    };
    let mut v = 0.0;
    let mut w = 1.0;
    for r in 0..16 {
        v += w * dct(0, r) * dct(1, r % 4) * dct(2, r / 4);
        w *= 0.9;
    }
    v + 1e-4 * hash_noise(c, 0xD1FF)
}

/// The randomized shapes above have modes of length ≤ 6. This fixed shape
/// has a 64 → 16 mode, so the same rayon-vs-seq comparison takes a large,
/// deeply truncated Gram through the selected-eigenpair solver (mode 0) next
/// to small ones (modes 1, 2) in one sweep.
#[test]
fn rayon_matches_seq_through_the_selected_solver() {
    let meta = TuckerMeta::new([64, 12, 10], [16, 4, 4]);
    let t = DenseTensor::from_fn(meta.input().clone(), field_rank16);
    let init: Vec<Matrix> = (0..meta.order())
        .map(|n| {
            let g = tucker_tensor::gram(&t, n);
            assert!(gapped(&g, meta.k(n)), "degenerate fixture: mode {n} init");
            leading_from_gram(&g, meta.k(n)).u
        })
        .collect();
    let input_norm_sq = fro_norm_sq(&t);
    let planner = Planner::new(meta.clone(), NRANKS);
    for plan in planner.paper_lineup() {
        assert!(
            hooi_plan_well_posed(&t, &meta, &init, &plan.tree),
            "degenerate fixture: {}",
            plan.name()
        );
        let mut seq = SeqBackend::new();
        let s = executor::hooi_sweep(&mut seq, &t, &meta, &plan.tree, &init, input_norm_sq);
        let mut par = RayonBackend::with_gram_parts(3);
        let r = executor::hooi_sweep(&mut par, &t, &meta, &plan.tree, &init, input_norm_sq);
        assert!(
            (r.stats.error - s.stats.error).abs() < 1e-10,
            "{}: rayon {} vs seq {}",
            plan.name(),
            r.stats.error,
            s.stats.error
        );
        for (fr, fs) in r.factors.iter().zip(&s.factors) {
            assert_eq!(fr.shape(), fs.shape());
            assert!(
                fr.max_abs_diff(fs) < 1e-7,
                "{} factor mismatch",
                plan.name()
            );
        }
        assert!(r.core.max_abs_diff(&s.core) < 1e-8, "{}", plan.name());
    }
}
