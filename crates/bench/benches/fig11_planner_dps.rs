//! Benches for the planner algorithms behind Figure 11 (§3.3, §4.2, §4.4)
//! and the joint grid × tree × order search of the planning layer.
//!
//! * the `O(4^N)` optimal-tree search across mode counts (the paper: "the
//!   algorithm takes negligible time" for `N ≤ 10`): the joint DP of
//!   `plan::search` on one rank, behind `plan::tree::optimal_tree`,
//! * the optimal static grid search,
//! * the optimal dynamic-gridding DP,
//! * ablation: exact vs paper-literal (children-only) regrid objective,
//! * the joint DP (`plan::search::optimize`) under both cost models.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tucker_core::plan::cost::{FlopVolumeModel, NetCostModel};
use tucker_core::plan::grid::{optimal_dynamic_grids, optimal_static_grid, DynGridObjective};
use tucker_core::plan::search::{optimize, SearchBudget};
use tucker_core::plan::tree::optimal_tree;
use tucker_core::plan::{GridStrategy, Planner, TreeStrategy};
use tucker_core::TuckerMeta;
use tucker_distsim::NetModel;

/// Benchmark-suite-flavoured metadata with `n` modes.
fn meta_n(n: usize) -> TuckerMeta {
    let ls = [400usize, 100, 50, 20];
    let rs = [1.25f64, 2.0, 5.0, 10.0];
    let l: Vec<usize> = (0..n).map(|i| ls[i % 4]).collect();
    let k: Vec<usize> = l
        .iter()
        .zip(0..n)
        .map(|(&l, i)| (l as f64 / rs[i % 4]) as usize)
        .collect();
    TuckerMeta::new(l, k)
}

fn bench_tree_dp(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11cd_opt_tree_dp");
    g.sample_size(10);
    for n in [4usize, 6, 8, 10] {
        let meta = meta_n(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &meta, |b, meta| {
            b.iter(|| optimal_tree(black_box(meta)).flops)
        });
    }
    g.finish();
}

fn bench_grid_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11f_grid_optimizers");
    g.sample_size(10);
    let meta = meta_n(5);
    let tree = optimal_tree(&meta).tree;
    g.bench_function("static_search_P32", |b| {
        b.iter(|| optimal_static_grid(black_box(&tree), black_box(&meta), 32).volume)
    });
    g.bench_function("dynamic_dp_P32_exact", |b| {
        b.iter(|| {
            optimal_dynamic_grids(
                black_box(&tree),
                black_box(&meta),
                32,
                DynGridObjective::Exact,
            )
            .volume
        })
    });
    g.bench_function("dynamic_dp_P32_children_only", |b| {
        b.iter(|| {
            optimal_dynamic_grids(
                black_box(&tree),
                black_box(&meta),
                32,
                DynGridObjective::ChildrenOnly,
            )
            .volume
        })
    });
    // Larger P stresses the |grids| dimension of the DP table.
    g.bench_function("dynamic_dp_P256_exact", |b| {
        let meta = TuckerMeta::new([400, 400, 100, 100, 50], [80, 80, 50, 20, 25]);
        let tree = optimal_tree(&meta).tree;
        b.iter(|| {
            optimal_dynamic_grids(
                black_box(&tree),
                black_box(&meta),
                256,
                DynGridObjective::Exact,
            )
            .volume
        })
    });
    g.finish();
}

fn bench_whole_planner(c: &mut Criterion) {
    let mut g = c.benchmark_group("planner_end_to_end");
    g.sample_size(10);
    let meta = TuckerMeta::new([400, 100, 100, 50, 20], [80, 80, 10, 40, 10]);
    let planner = Planner::new(meta, 32);
    g.bench_function("opt_tree_dynamic_plan", |b| {
        b.iter(|| {
            planner
                .plan(TreeStrategy::Optimal, GridStrategy::Dynamic)
                .volume
        })
    });
    g.bench_function("paper_lineup_4_plans", |b| {
        b.iter(|| planner.paper_lineup().len())
    });
    g.finish();
}

fn bench_joint_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("joint_grid_tree_order_dp");
    g.sample_size(10);
    let meta = TuckerMeta::new([400, 100, 100, 50, 20], [80, 80, 10, 40, 10]);
    let budget = SearchBudget::default();
    g.bench_function("optimize_P32_flops_vol", |b| {
        b.iter(|| {
            optimize(black_box(&meta), 32, &FlopVolumeModel, &budget)
                .best()
                .cost
        })
    });
    let net = NetCostModel::new(NetModel::bgq(), 32);
    g.bench_function("optimize_P32_net", |b| {
        b.iter(|| optimize(black_box(&meta), 32, &net, &budget).best().cost)
    });
    // Paper-scale rank count on the scaling problem (small grid set).
    let scaling = tucker_suite::driver::scaling_meta();
    let net4096 = NetCostModel::new(NetModel::bgq(), 4096);
    g.bench_function("optimize_P4096_net_scaling_meta", |b| {
        b.iter(|| {
            optimize(black_box(&scaling), 4096, &net4096, &budget)
                .best()
                .cost
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tree_dp,
    bench_grid_search,
    bench_whole_planner,
    bench_joint_search
);
criterion_main!(benches);
