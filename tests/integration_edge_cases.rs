//! Edge cases and misuse across the public API surface.

use tucker_core::dist_sthosvd::run_distributed_sthosvd;
use tucker_core::engine::{run_distributed_hooi, EngineConfig};
use tucker_core::meta::TuckerMeta;
use tucker_core::plan::order::optimal_sthosvd_order;
use tucker_core::plan::{GridStrategy, Planner, TreeStrategy};
use tucker_distsim::Grid;
use tucker_suite::fields::hash_noise;

fn fill(c: &[usize]) -> f64 {
    hash_noise(c, 0xED6E)
}

#[test]
fn two_mode_problem_works_end_to_end() {
    // Degenerate "tensor is a matrix" case: HOOI reduces to alternating SVD.
    let meta = TuckerMeta::new([12, 10], [3, 4]);
    let planner = Planner::new(meta, 4);
    for plan in planner.paper_lineup() {
        let out = run_distributed_hooi(fill, &plan, 2, &EngineConfig::default());
        assert!(out.per_sweep[1].error.is_finite());
        assert!(out.expect_decomposition().factors_orthonormal(1e-8));
    }
}

#[test]
fn full_rank_core_reconstructs_exactly() {
    // K == L in every mode: zero error, valid grids limited to q <= L.
    let meta = TuckerMeta::new([6, 6, 4], [6, 6, 4]);
    let planner = Planner::new(meta, 4);
    let plan = planner.plan(TreeStrategy::Optimal, GridStrategy::StaticOptimal);
    let out = run_distributed_hooi(fill, &plan, 1, &EngineConfig::default());
    assert!(
        out.per_sweep[0].error < 1e-7,
        "error {}",
        out.per_sweep[0].error
    );
}

#[test]
fn rank_one_core_is_the_extreme_compression() {
    let meta = TuckerMeta::new([8, 8, 8], [1, 1, 1]);
    let planner = Planner::new(meta, 1);
    let plan = planner.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
    let out = run_distributed_hooi(fill, &plan, 1, &EngineConfig::default());
    assert_eq!(out.expect_decomposition().core.cardinality(), 1);
    assert!(out.per_sweep[0].error <= 1.0 + 1e-12);
}

#[test]
fn prime_rank_counts_get_valid_grids() {
    // P = 7 forces grids like <7,1,1>; the planner must cope.
    let meta = TuckerMeta::new([20, 20, 20], [10, 10, 10]);
    let planner = Planner::new(meta, 7);
    let plan = planner.plan(TreeStrategy::Balanced, GridStrategy::StaticOptimal);
    assert_eq!(plan.grids.initial.nranks(), 7);
    let out = run_distributed_hooi(fill, &plan, 1, &EngineConfig::default());
    assert!(out.per_sweep[0].error.is_finite());
}

#[test]
fn sthosvd_and_hooi_agree_on_strongly_lowrank_data() {
    // On a smooth plume both pipelines should land near the same fit.
    let meta = TuckerMeta::new([10, 10, 10], [4, 4, 4]);
    let dims: Vec<usize> = meta.input().dims().to_vec();
    let field = move |c: &[usize]| tucker_suite::fields::combustion_field(c, &dims);

    let order = optimal_sthosvd_order(&meta);
    let grid = Grid::new([2, 2, 1]);
    let (_, st_stats) =
        run_distributed_sthosvd(&field, &meta, &grid, &order, &EngineConfig::default());

    let planner = Planner::new(meta, 4);
    let plan = planner.plan(TreeStrategy::Optimal, GridStrategy::StaticOptimal);
    let hooi = run_distributed_hooi(&field, &plan, 2, &EngineConfig::default());
    let hooi_err = hooi.per_sweep.last().unwrap().error;

    assert!(
        (st_stats.error - hooi_err).abs() < 0.08,
        "STHOSVD {} vs HOOI {hooi_err}",
        st_stats.error
    );
}

#[test]
#[should_panic(expected = "need at least one sweep")]
fn zero_sweeps_rejected() {
    let meta = TuckerMeta::new([4, 4], [2, 2]);
    let planner = Planner::new(meta, 2);
    let plan = planner.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
    let _ = run_distributed_hooi(fill, &plan, 0, &EngineConfig::default());
}

#[test]
fn dot_export_is_wellformed() {
    let meta = TuckerMeta::new([20, 20, 20, 20], [4, 4, 4, 4]);
    let planner = Planner::new(meta, 8);
    let plan = planner.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
    let dot = plan.tree.to_dot(Some(&plan.grids.node_grids));
    assert!(dot.starts_with("digraph"));
    assert!(dot.ends_with("}\n"));
    // One node statement per tree node, one edge per parent-child link.
    let nodes = dot.matches("label=").count();
    assert_eq!(nodes, plan.tree.len());
    let edges = dot.matches(" -> ").count();
    assert_eq!(edges, plan.tree.len() - 1);
}
