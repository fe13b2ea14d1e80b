//! Property-based tests for the planner algorithms (core crate).
//!
//! Cases are generated deterministically from a fixed per-test seed (see
//! `vendor/proptest`): CI runs are reproducible, and `PROPTEST_SEED` /
//! `PROPTEST_CASES` explore other streams or bound the case count.

use proptest::prelude::*;
use tucker_core::plan::brute_force::exhaustive_optimal_flops;
use tucker_core::plan::cost::tree_flops;
use tucker_core::plan::grid::{
    optimal_dynamic_grids, optimal_static_grid, scheme_volume, static_volume, DynGridObjective,
};
use tucker_core::plan::order::ModeOrdering;
use tucker_core::plan::order::{optimal_sthosvd_order, sthosvd_chain_flops};
use tucker_core::plan::tree::{balanced_tree, chain_tree, greedy_reuse_tree, optimal_tree};
use tucker_core::TuckerMeta;

/// Strategy: paper-flavoured metadata with the given number of modes.
fn meta_strategy(order: usize) -> impl Strategy<Value = TuckerMeta> {
    let lengths = prop::collection::vec(prop::sample::select(vec![20usize, 50, 100, 400]), order);
    let ratios = prop::collection::vec(prop::sample::select(vec![1.25f64, 2.0, 5.0, 10.0]), order);
    (lengths, ratios).prop_map(|(ls, rs)| {
        let ks: Vec<usize> = ls
            .iter()
            .zip(&rs)
            .map(|(&l, &r)| (l as f64 / r) as usize)
            .collect();
        TuckerMeta::new(ls, ks)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The DP value always equals the cost of the tree it reconstructs.
    #[test]
    fn dp_value_matches_reconstruction(meta in meta_strategy(5)) {
        let opt = optimal_tree(&meta);
        let recomputed = tree_flops(&opt.tree, &meta);
        prop_assert!((opt.flops - recomputed).abs() <= opt.flops * 1e-12);
        prop_assert!(opt.tree.validate().is_ok());
    }

    /// The optimal tree never loses to any prior scheme.
    #[test]
    fn dp_dominates_heuristics(meta in meta_strategy(4)) {
        let opt = optimal_tree(&meta).flops;
        for ordering in [ModeOrdering::Natural, ModeOrdering::ByCostFactor, ModeOrdering::ByCompression] {
            let perm = ordering.permutation(&meta);
            prop_assert!(opt <= tree_flops(&chain_tree(&meta, &perm), &meta) * (1.0 + 1e-12));
            prop_assert!(opt <= tree_flops(&balanced_tree(&meta, &perm), &meta) * (1.0 + 1e-12));
        }
        prop_assert!(opt <= tree_flops(&greedy_reuse_tree(&meta), &meta) * (1.0 + 1e-12));
    }

    /// The DP equals full exhaustive enumeration (including non-binary
    /// trees) for N = 3 — empirical Lemma 3.1.
    #[test]
    fn dp_matches_exhaustive_n3(meta in meta_strategy(3)) {
        let dp = optimal_tree(&meta).flops;
        let brute = exhaustive_optimal_flops(&meta);
        prop_assert!((dp - brute).abs() <= brute * 1e-12, "dp {dp} brute {brute}");
    }

    /// Dynamic gridding never loses to the optimal static grid on the same
    /// tree, and its DP value matches the evaluator on its own scheme.
    #[test]
    fn dynamic_dominates_static(meta in meta_strategy(4)) {
        let tree = optimal_tree(&meta).tree;
        let p = 16usize;
        prop_assume!(meta.core_cardinality() >= p as f64);
        let stat = optimal_static_grid(&tree, &meta, p);
        let dynamic = optimal_dynamic_grids(&tree, &meta, p, DynGridObjective::Exact);
        prop_assert!(dynamic.volume <= stat.volume + 1e-6);
        let v = scheme_volume(&tree, &meta, &dynamic);
        prop_assert!((v - dynamic.volume).abs() <= dynamic.volume.max(1.0) * 1e-9);
        // And the exact objective never loses to the paper-literal one.
        let lit = optimal_dynamic_grids(&tree, &meta, p, DynGridObjective::ChildrenOnly);
        prop_assert!(dynamic.volume <= lit.volume + 1e-6);
    }

    /// The static-grid search result is indeed minimal over every valid grid.
    #[test]
    fn static_search_is_minimal(meta in meta_strategy(3)) {
        let tree = balanced_tree(&meta, &[0, 1, 2]);
        let p = 8usize;
        prop_assume!(meta.core_cardinality() >= p as f64);
        let best = optimal_static_grid(&tree, &meta, p);
        for g in tucker_distsim::enumerate_valid_grids(p, meta.core().dims()) {
            prop_assert!(best.volume <= static_volume(&tree, &meta, &g) + 1e-9);
        }
    }

    /// The closed-form STHOSVD ordering beats random permutations.
    #[test]
    fn sthosvd_order_optimal(meta in meta_strategy(5), seed in 0u64..1000) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let best = sthosvd_chain_flops(&meta, &optimal_sthosvd_order(&meta));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut perm: Vec<usize> = (0..meta.order()).collect();
        for _ in 0..5 {
            perm.shuffle(&mut rng);
            prop_assert!(best <= sthosvd_chain_flops(&meta, &perm) * (1.0 + 1e-12));
        }
    }

    /// Tree structural invariants: TTM count bounds from §3.2.
    #[test]
    fn tree_size_bounds(meta in meta_strategy(6)) {
        let n = meta.order();
        let perm: Vec<usize> = (0..n).collect();
        let chain = chain_tree(&meta, &perm);
        prop_assert_eq!(chain.num_ttms(), n * (n - 1));
        let bal = balanced_tree(&meta, &perm);
        prop_assert!(bal.num_ttms() <= n * (n - 1));
        let opt = optimal_tree(&meta).tree;
        // Lower bound: each leaf needs >= 1 dedicated TTM except via reuse;
        // any valid tree needs at least N internal nodes for N >= 2.
        prop_assert!(opt.num_ttms() >= n);
        prop_assert!(opt.num_ttms() <= n * (n - 1));
    }

    /// Scaling metadata preserves planner decisions' relative ordering of
    /// tree costs (flops scale ~uniformly).
    #[test]
    fn tree_cost_ratios_roughly_scale_invariant(meta in meta_strategy(4)) {
        prop_assume!(meta.input().dims().iter().all(|&l| l >= 50));
        let scaled = meta.scaled_down(2);
        // Only compare when scaling kept every compression factor close.
        let close = (0..meta.order()).all(|n| (meta.h(n) - scaled.h(n)).abs() < 0.05);
        prop_assume!(close);
        let perm: Vec<usize> = (0..meta.order()).collect();
        let r_full = tree_flops(&chain_tree(&meta, &perm), &meta) / optimal_tree(&meta).flops;
        let r_scaled = tree_flops(&chain_tree(&scaled, &perm), &scaled) / optimal_tree(&scaled).flops;
        // "Roughly": integer rounding of K perturbs h slightly, so allow a
        // generous relative band — the point is that ratios do not collapse
        // or explode under scaling.
        let tol = 0.2 * r_full.max(r_scaled) + 0.1;
        prop_assert!((r_full - r_scaled).abs() < tol, "ratios {r_full} vs {r_scaled}");
    }
}
