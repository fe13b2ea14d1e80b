//! Differential tests: the distributed engine against the sequential
//! reference implementations, across the four-strategy lineup, on randomized
//! 5-D and 6-D metadata, in **both** measured and virtual-time execution
//! modes. The distributed and sequential pipelines compute the same math, so
//! their relative errors must agree to 1e-10 — any divergence flags a
//! communication, distribution, or clock-plumbing bug.

use proptest::prelude::*;
use tucker_core::dist_sthosvd::run_distributed_sthosvd;
use tucker_core::engine::{DistRun, EngineConfig};
use tucker_core::executor::{hooi_sweep, SeqBackend};
use tucker_core::plan::order::optimal_sthosvd_order;
use tucker_core::plan::{NetCostModel, Planner, SearchBudget};
use tucker_core::sthosvd::{hosvd_init_factors, sthosvd_with_order};
use tucker_core::TuckerMeta;
use tucker_distsim::dist_gram::dist_gram_all_with_norm;
use tucker_distsim::{enumerate_valid_grids, DistTensor, NetModel, Universe, VolumeCategory};
use tucker_linalg::{leading_from_gram, Matrix};
use tucker_suite::fields::hash_noise;
use tucker_tensor::norm::fro_norm_sq;
use tucker_tensor::DenseTensor;

const NRANKS: usize = 4;

/// Structured low-rank field: five separable cosine components with
/// geometrically decaying weights give every mode a cleanly gapped Gram
/// spectrum up to rank ~5, and a tiny noise floor breaks exact ties far
/// below the structured eigenvalues. Truncation at k ≤ 4 is therefore
/// well-posed, so a 1e-15 summation-order perturbation of a Gram matrix
/// cannot rotate the kept subspace: distributed and sequential errors agree
/// to ~1e-12.
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

/// Eigengap test for one truncation: a clear relative gap at index `k`
/// makes the kept subspace a stable function of the matrix, so the 1e-15
/// summation-order differences between the distributed and sequential Gram
/// pipelines cannot rotate it. Without a gap the truncation (and hence the
/// error) is not a well-defined function of the tensor and the differential
/// property cannot be expected to hold to 1e-10.
fn gapped(g: &Matrix, k: usize) -> bool {
    let evd = tucker_linalg::sym_evd_leading(g.clone(), g.nrows());
    if k >= evd.eigenvalues.len() {
        return true; // no truncation
    }
    let top = evd.eigenvalues[0].max(1e-300);
    (evd.eigenvalues[k - 1] - evd.eigenvalues[k]) / top > 1e-3
}

/// Audit every EVD a one-sweep HOOI of `tree` will perform (init Grams plus
/// each leaf's Gram of its intermediate input), sequentially mirroring the
/// engine's tree walk. Returns `false` on any spectrally degenerate
/// truncation.
fn hooi_plan_well_posed(
    t: &DenseTensor,
    meta: &TuckerMeta,
    init: &[Matrix],
    tree: &tucker_core::plan::tree::TtmTree,
) -> bool {
    use tucker_core::plan::tree::NodeLabel;
    for n in 0..meta.order() {
        if !gapped(&tucker_tensor::gram(t, n), meta.k(n)) {
            return false;
        }
    }
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

/// Audit every EVD the STHOSVD chain will perform.
fn sthosvd_well_posed(t: &DenseTensor, meta: &TuckerMeta, order: &[usize]) -> bool {
    let mut cur = t.clone();
    for &n in order {
        let g = tucker_tensor::gram(&cur, n);
        if !gapped(&g, meta.k(n)) {
            return false;
        }
        let f = leading_from_gram(&g, meta.k(n)).u;
        cur = tucker_tensor::ttm(&cur, n, &f.transpose());
    }
    true
}

/// Metadata from raw draws, with cores clamped to the mode lengths.
fn build_meta(ls: &[usize], kraw: &[usize]) -> TuckerMeta {
    let ks: Vec<usize> = ls.iter().zip(kraw).map(|(&l, &k)| k.clamp(1, l)).collect();
    TuckerMeta::new(ls.to_vec(), ks)
}

/// The randomized meta must admit valid grids for the simulated ranks.
fn viable(meta: &TuckerMeta) -> bool {
    meta.core_cardinality() >= NRANKS as f64
        && !enumerate_valid_grids(NRANKS, meta.core().dims()).is_empty()
}

/// The error of one sequential HOOI sweep of `tree` from `init`.
fn seq_error(
    t: &DenseTensor,
    meta: &TuckerMeta,
    init: &[Matrix],
    tree: &tucker_core::plan::tree::TtmTree,
) -> f64 {
    let out = hooi_sweep(&mut SeqBackend::new(), t, meta, tree, init, fro_norm_sq(t));
    out.stats.error
}

fn modes() -> [(&'static str, EngineConfig); 2] {
    [
        ("measured", EngineConfig::default()),
        ("virtual", EngineConfig::virtual_time(NetModel::bgq())),
    ]
}

/// Distributed HOOI (all four strategies, both clocks) vs the sequential
/// invocation from the identical initialization.
fn check_hooi_lineup(meta: &TuckerMeta) {
    let t = DenseTensor::from_fn(meta.input().clone(), field);
    let init = hosvd_init_factors(&t, meta);
    let planner = Planner::new(meta.clone(), NRANKS);
    for plan in planner.paper_lineup() {
        if !hooi_plan_well_posed(&t, meta, &init, &plan.tree) {
            continue; // spectrally degenerate draw: the property is undefined
        }
        let seq = seq_error(&t, meta, &init, &plan.tree);
        for (label, cfg) in modes() {
            let dist = DistRun::of(&plan, 1).config(cfg).run(field);
            let de = dist.per_sweep[0].error;
            assert!(
                (de - seq).abs() < 1e-10,
                "{meta}: {} [{label}]: dist {de} vs seq {seq}",
                plan.name()
            );
        }
    }
}

/// Distributed STHOSVD vs the sequential chain, both clocks.
fn check_sthosvd(meta: &TuckerMeta) {
    let t = DenseTensor::from_fn(meta.input().clone(), field);
    let order = optimal_sthosvd_order(meta);
    if !sthosvd_well_posed(&t, meta, &order) {
        return; // spectrally degenerate draw: the property is undefined
    }
    let seq = sthosvd_with_order(&t, meta, &order);
    let seq_err = seq.error(&t);
    let grid = enumerate_valid_grids(NRANKS, meta.core().dims())[0].clone();
    for (label, cfg) in modes() {
        let (decomp, stats) = run_distributed_sthosvd(field, meta, &grid, &order, &cfg);
        assert!(
            (stats.error - seq_err).abs() < 1e-10,
            "{meta} [{label}]: dist {} vs seq {seq_err}",
            stats.error
        );
        // Both modes gather by default: the cores themselves must agree.
        let d = decomp.expect("default gather");
        assert!(d.core.max_abs_diff(&seq.core) < 1e-7);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// 5-D: distributed HOOI matches the sequential invocation to 1e-10.
    #[test]
    fn hooi_matches_sequential_5d(
        ls in prop::collection::vec(3usize..=6, 5..=5),
        kraw in prop::collection::vec(1usize..=4, 5..=5),
    ) {
        let meta = build_meta(&ls, &kraw);
        prop_assume!(viable(&meta));
        check_hooi_lineup(&meta);
    }

    /// 6-D: same, one order higher.
    #[test]
    fn hooi_matches_sequential_6d(
        ls in prop::collection::vec(3usize..=5, 6..=6),
        kraw in prop::collection::vec(1usize..=4, 6..=6),
    ) {
        let meta = build_meta(&ls, &kraw);
        prop_assume!(viable(&meta));
        check_hooi_lineup(&meta);
    }

    /// 5-D: distributed STHOSVD matches the sequential chain to 1e-10.
    #[test]
    fn sthosvd_matches_sequential_5d(
        ls in prop::collection::vec(3usize..=6, 5..=5),
        kraw in prop::collection::vec(1usize..=4, 5..=5),
    ) {
        let meta = build_meta(&ls, &kraw);
        prop_assume!(viable(&meta));
        check_sthosvd(&meta);
    }

    /// 6-D: same, one order higher.
    #[test]
    fn sthosvd_matches_sequential_6d(
        ls in prop::collection::vec(3usize..=5, 6..=6),
        kraw in prop::collection::vec(1usize..=4, 6..=6),
    ) {
        let meta = build_meta(&ls, &kraw);
        prop_assume!(viable(&meta));
        check_sthosvd(&meta);
    }
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
/// has a 64 → 16 mode, so every rank of the distributed run and the
/// sequential sweep take a large, deeply truncated Gram through the
/// selected-eigenpair solver (mode 0) next to small ones (modes 1, 2), under
/// both clocks.
#[test]
fn hooi_matches_sequential_through_the_selected_solver() {
    let meta = TuckerMeta::new([64, 12, 10], [16, 4, 4]);
    assert!(viable(&meta));
    let t = DenseTensor::from_fn(meta.input().clone(), field_rank16);
    for n in 0..meta.order() {
        assert!(
            gapped(&tucker_tensor::gram(&t, n), meta.k(n)),
            "degenerate fixture: mode {n} init"
        );
    }
    let init = hosvd_init_factors(&t, &meta);
    let planner = Planner::new(meta.clone(), NRANKS);
    for plan in planner.paper_lineup() {
        assert!(
            hooi_plan_well_posed(&t, &meta, &init, &plan.tree),
            "degenerate fixture: {}",
            plan.name()
        );
        let seq = seq_error(&t, &meta, &init, &plan.tree);
        for (label, cfg) in modes() {
            let dist = DistRun::of(&plan, 1).config(cfg).run(field_rank16);
            let de = dist.per_sweep[0].error;
            assert!(
                (de - seq).abs() < 1e-10,
                "{} [{label}]: dist {de} vs seq {seq}",
                plan.name()
            );
        }
    }
}

/// The worker pool is a host detail: one virtual-time run on a single worker
/// (the deterministic one-rank-at-a-time schedule), on the default pool, on
/// two workers and on a worker per rank reports the same plan, modeled
/// communication clocks and ledger, the same volumes in **every** sweep, and
/// bit-identical errors and factors. The sweeps' volumes plus the HOSVD
/// init's add up to the run's ledger.
#[test]
fn virtual_time_run_does_not_depend_on_the_worker_pool() {
    let meta = TuckerMeta::new([12, 10, 8], [6, 4, 4]);
    let cfg = EngineConfig::virtual_time(NetModel::bgq());
    let run = |workers: usize| {
        DistRun::new(&meta, NRANKS, 2)
            .config(cfg.clone())
            .workers(workers)
            .run(field)
    };
    let one = run(1);
    assert_eq!(one.workers, 1);
    assert!(one.per_sweep.iter().all(|s| !s.comm_wall.is_zero()));
    // 0 = the host's default pool; NRANKS = 4 = a worker per rank.
    for workers in [0, 2, NRANKS] {
        let pool = run(workers);
        assert_eq!(pool.plans, one.plans);
        for (a, b) in pool.per_sweep.iter().zip(&one.per_sweep) {
            assert_eq!(a.comm_wall, b.comm_wall, "{workers} workers");
            assert_eq!(a.error.to_bits(), b.error.to_bits(), "{workers} workers");
            assert_eq!(
                (a.ttm_volume, a.regrid_volume, a.gram_volume),
                (b.ttm_volume, b.regrid_volume, b.gram_volume),
                "{workers} workers"
            );
        }
        assert_eq!(pool.volume(), one.volume(), "{workers} workers");
        let (da, db) = (pool.expect_decomposition(), one.expect_decomposition());
        for (fa, fb) in da.factors.iter().zip(&db.factors) {
            assert_eq!(fa.max_abs_diff(fb), 0.0, "{workers} workers");
        }
    }

    // Sweep windows partition the run's TTM, regrid and Gram traffic; what
    // is left of the Gram ledger is the init's fused Gram all-reduce, run
    // here on its own under the plan's initial grid.
    let plan = Planner::new(meta.clone(), NRANKS).best_plan_with(
        &NetCostModel::new(NetModel::bgq(), NRANKS),
        &SearchBudget::winner_only(),
    );
    assert_eq!(one.plans, vec![plan.name()]);
    let init = Universe::run(NRANKS, |ctx| {
        let t = DistTensor::from_global_fn(ctx, meta.input(), &plan.grids.initial, field);
        let _ = dist_gram_all_with_norm(ctx, &t);
    })
    .volume;
    let total = one.volume();
    let sum = |f: fn(&tucker_core::SweepStats) -> u64| one.per_sweep.iter().map(f).sum::<u64>();
    assert_eq!(
        sum(|s| s.ttm_volume),
        total.elements(VolumeCategory::TtmReduceScatter)
    );
    assert_eq!(
        sum(|s| s.regrid_volume),
        total.elements(VolumeCategory::Regrid)
    );
    assert_eq!(
        sum(|s| s.gram_volume) + init.elements(VolumeCategory::Gram),
        total.elements(VolumeCategory::Gram)
    );
    assert!(sum(|s| s.ttm_volume) > 0 && init.elements(VolumeCategory::Gram) > 0);
}
