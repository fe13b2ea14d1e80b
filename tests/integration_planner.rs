//! Integration: planner optimality properties across the benchmark suite
//! (property-style sweeps over real generator output, not toy metadata),
//! plus the planning layer's prediction-vs-execution certification at
//! paper-scale rank counts.

use tucker_core::engine::{DistRun, EngineConfig};
use tucker_core::plan::cost::tree_flops;
use tucker_core::plan::grid::{scheme_volume, static_volume};
use tucker_core::plan::order::ModeOrdering;
use tucker_core::plan::{
    FlopVolumeModel, GridStrategy, NetCostModel, Planner, SearchBudget, TreeStrategy,
};
use tucker_distsim::{enumerate_valid_grids, NetModel};
use tucker_suite::generator::{full_enumeration, paper_sized_subsample};
use tucker_suite::real::real_tensors;

/// A small deterministic slice of the real 5-D benchmark.
fn sample_5d(n: usize) -> Vec<tucker_core::TuckerMeta> {
    paper_sized_subsample(&full_enumeration(5), n)
}

#[test]
fn optimal_tree_dominates_all_heuristics_on_benchmark_sample() {
    for meta in sample_5d(60) {
        let planner = Planner::new(meta.clone(), 32);
        let opt = planner.plan(TreeStrategy::Optimal, GridStrategy::StaticOptimal);
        for ordering in [
            ModeOrdering::Natural,
            ModeOrdering::ByCostFactor,
            ModeOrdering::ByCompression,
        ] {
            let chain = planner.plan(TreeStrategy::Chain(ordering), GridStrategy::StaticOptimal);
            assert!(opt.flops <= chain.flops * (1.0 + 1e-12), "{meta}");
        }
        let bal = planner.plan(TreeStrategy::Balanced, GridStrategy::StaticOptimal);
        assert!(opt.flops <= bal.flops * (1.0 + 1e-12), "{meta}");
    }
}

#[test]
fn dynamic_gridding_dominates_static_on_benchmark_sample() {
    for meta in sample_5d(40) {
        let planner = Planner::new(meta.clone(), 32);
        let stat = planner.plan(TreeStrategy::Optimal, GridStrategy::StaticOptimal);
        let dynamic = planner.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
        assert!(dynamic.volume <= stat.volume + 1e-6, "{meta}");
        // And the dynamic DP value must equal the evaluator's score of the
        // extracted scheme.
        let v = scheme_volume(&dynamic.tree, &meta, &dynamic.grids);
        assert!(
            (v - dynamic.volume).abs() <= dynamic.volume.max(1.0) * 1e-9,
            "{meta}"
        );
    }
}

#[test]
fn static_search_truly_minimal_on_small_cases() {
    // Re-verify the exhaustive search against a second exhaustive pass with
    // the standalone volume function.
    for meta in sample_5d(15) {
        let planner = Planner::new(meta.clone(), 16);
        let plan = planner.plan(TreeStrategy::Balanced, GridStrategy::StaticOptimal);
        for g in enumerate_valid_grids(16, meta.core().dims()) {
            assert!(
                plan.volume <= static_volume(&plan.tree, &meta, &g) + 1e-6,
                "{meta}: grid {g} beats the 'optimal' static grid"
            );
        }
    }
}

#[test]
fn real_tensor_plans_match_paper_qualitative_findings() {
    // §6.2: on HCCI/TJLR/SP, balanced beats the chains, and opt-tree with
    // dynamic grids beats everything; the opt plan becomes near
    // communication-free.
    for rt in real_tensors() {
        let planner = Planner::new(rt.meta.clone(), 32);
        let lineup = planner.paper_lineup();
        let (ck, ch, bal, opt) = (&lineup[0], &lineup[1], &lineup[2], &lineup[3]);
        assert!(
            bal.flops <= ck.flops,
            "{}: balanced should beat chain-K on load",
            rt.name
        );
        assert!(
            bal.flops <= ch.flops,
            "{}: balanced should beat chain-h on load",
            rt.name
        );
        assert!(opt.flops <= bal.flops, "{}", rt.name);
        assert!(opt.volume <= bal.volume, "{}", rt.name);
        // "Remarkably, the opt-tree algorithm becomes near communication-
        // free under all the three tensors": volume should drop by a large
        // factor vs the best static heuristic.
        let best_heuristic_volume = ck.volume.min(ch.volume).min(bal.volume);
        assert!(
            opt.volume <= best_heuristic_volume * 0.5,
            "{}: dynamic volume {} not far below heuristic volume {}",
            rt.name,
            opt.volume,
            best_heuristic_volume
        );
    }
}

#[test]
fn chain_orderings_affect_cost_in_expected_direction() {
    // On metadata with skewed cost factors, ordering by K must beat the
    // reverse ordering.
    let meta = tucker_core::TuckerMeta::new([400, 100, 50, 20, 20], [320, 20, 10, 4, 2]);
    let k_perm = ModeOrdering::ByCostFactor.permutation(&meta);
    let mut rev = k_perm.clone();
    rev.reverse();
    let fwd = tree_flops(&tucker_core::plan::tree::chain_tree(&meta, &k_perm), &meta);
    let bwd = tree_flops(&tucker_core::plan::tree::chain_tree(&meta, &rev), &meta);
    assert!(
        fwd < bwd,
        "K-ascending {fwd} should beat K-descending {bwd}"
    );
}

#[test]
fn grid_count_scales_with_rank_budget() {
    // Sanity link between Table 1 and the planner's search space.
    let meta = tucker_core::TuckerMeta::new([100; 5], [20; 5]);
    let g32 = enumerate_valid_grids(32, meta.core().dims()).len();
    let g256 = enumerate_valid_grids(256, meta.core().dims()).len();
    assert!(g32 > 0 && g256 > g32);
}

#[test]
fn net_prediction_matches_executed_virtual_clock_at_paper_scale() {
    // The tentpole invariant (DESIGN.md §6): for every plan of the scaling
    // lineup — the paper's four strategies plus the joint-DP winner — the
    // NetCostModel's predicted communication wall and every category's
    // share equal the distsim-executed virtual clocks to the nanosecond.
    // P ∈ {64, 256} here keeps the test fast; the `planner` and `scaling`
    // generators assert the same invariant up to P = 4096 and 8192.
    let meta = tucker_suite::driver::scaling_meta();
    let net = NetModel::bgq();
    let cfg = EngineConfig {
        gather_core: false,
        ..EngineConfig::virtual_time(net)
    };
    let fill = |c: &[usize]| tucker_suite::fields::hash_noise(c, 0x90DE);
    for p in [64usize, 256] {
        let planner = Planner::new(meta.clone(), p);
        let model = NetCostModel::new(net, p);
        let mut lineup = planner.paper_lineup();
        lineup.push(planner.best_plan_with(&model, &SearchBudget::default()));
        for plan in lineup {
            let pred = plan.predict_net(&model);
            let out = DistRun::of(&plan, 1).config(cfg.clone()).run(fill);
            let s = &out.per_sweep[0];
            for (predicted, executed, what) in [
                (pred.comm_wall, s.comm_wall, "comm wall"),
                (pred.ttm_comm, s.ttm_comm, "ttm"),
                (pred.regrid_comm, s.regrid_comm, "regrid"),
                (pred.gram_comm, s.gram_comm, "gram"),
            ] {
                assert_eq!(predicted, executed, "{} P={p}: {what}", plan.name());
            }
            // The engine recorded matching provenance.
            let prov = s.provenance.as_ref().expect("engine records provenance");
            assert_eq!(prov.plan, plan.name());
            assert_eq!(prov.predicted_comm, Some(pred.comm_wall));
        }
    }
}

#[test]
fn ranked_plans_cover_lineup_and_winner_executes_well() {
    // RankedPlans is threaded through the drivers: it must contain the DP
    // winner first plus the scored heuristics, and under the net model the
    // winner's *executed* virtual communication must not lose to any
    // lineup plan's executed time (the model is faithful enough to rank).
    let meta = tucker_suite::driver::scaling_meta();
    let net = NetModel::bgq();
    let p = 64usize;
    let planner = Planner::new(meta.clone(), p);
    let model = NetCostModel::new(net, p);
    let ranked = planner.ranked_plans(&model, &SearchBudget::default());
    assert_eq!(ranked.model, "net");
    assert!(ranked.plans.len() >= 5);
    assert!(ranked.by_name("(dp, joint)").is_some());
    for w in ranked.plans.windows(2) {
        assert!(w[0].cost <= w[1].cost + 1e-9);
    }

    let cfg = EngineConfig {
        gather_core: false,
        ..EngineConfig::virtual_time(net)
    };
    let fill = |c: &[usize]| tucker_suite::fields::hash_noise(c, 0x90DE);
    let exec = |plan: &tucker_core::Plan| {
        DistRun::of(plan, 1).config(cfg.clone()).run(fill).per_sweep[0].comm_wall
    };
    let best_exec = exec(&ranked.best().plan);
    for other in planner.paper_lineup() {
        assert!(
            best_exec <= exec(&other) + std::time::Duration::from_nanos(1),
            "ranked winner executed {best_exec:?} but {} beat it",
            other.name()
        );
    }

    // The classic model's winner is also available through best_plan().
    let classic = planner.best_plan();
    assert!(classic.cost(&FlopVolumeModel) <= ranked.best().plan.cost(&FlopVolumeModel) + 1e-9);
}

/// FNV-1a (64-bit) of a string: a dependency-free, platform-stable hash.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn joint_dp_plans_are_bit_identical_to_the_recorded_goldens() {
    // The joint DP's data layout and pruning may change; its output may
    // not. For six `benchmark_5d()` metas (the strided sample the
    // `plan-suite` benchmark workload plans) at P = 64 under the flat BG/Q
    // model, and the first two of them under the hierarchical cluster
    // model, the winner's full `Debug` rendering (tree, every node grid,
    // regrid flags, flops, volume) and the bits of its model cost must equal
    // the recorded values (first recorded before the search was made
    // table-driven; re-recorded once when the Gram leaf's all-gather became
    // a column-share exchange and its price fell).
    const GOLDEN: [(&str, usize, u64, u64); 8] = [
        ("bgq", 0, 0xbb4e2f5f41433d67, 0x4186a63f00000000),
        ("bgq", 1, 0x771a3810828eeab2, 0x41539e1680000000),
        ("bgq", 2, 0x5b198110e03c493a, 0x41347a8a00000000),
        ("bgq", 3, 0x11d4392984034ea7, 0x417124c8c0000000),
        ("bgq", 4, 0x741656678dc7140b, 0x417d5565e0000000),
        ("bgq", 5, 0xf8a40d70a428e142, 0x4172881300000000),
        ("cluster", 0, 0x10d1b01bd75d94b3, 0x41804249f0000000),
        ("cluster", 1, 0x1e3bf2c459ef9ca3, 0x414cf40c00000000),
    ];
    let p = 64usize;
    let all = tucker_suite::benchmark_5d();
    let stride = all.len() / 6;
    let mut got = Vec::new();
    for &(net_name, i, _, _) in &GOLDEN {
        let net = match net_name {
            "bgq" => NetModel::bgq(),
            _ => NetModel::cluster(),
        };
        let meta = &all[i * stride + 3];
        let model = NetCostModel::new(net, p);
        let ranked =
            Planner::new(meta.clone(), p).ranked_plans(&model, &SearchBudget::winner_only());
        let best = ranked.best();
        got.push((
            net_name,
            i,
            fnv1a(&format!("{:?}", best.plan)),
            best.cost.to_bits(),
        ));
    }
    assert_eq!(
        got.as_slice(),
        GOLDEN.as_slice(),
        "joint-DP plans drifted from the goldens; got:\n{}",
        got.iter()
            .map(|(n, i, h, c)| format!("        (\"{n}\", {i}, {h:#018x}, {c:#018x}),\n"))
            .collect::<String>()
    );
}
