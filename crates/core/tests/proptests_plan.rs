//! Property-based certification of the joint grid × tree × order DP
//! (`plan::search::optimize`) against the independent brute-force oracle,
//! under **both** cost models, across randomized 4-D/5-D/6-D metadata and
//! P ∈ {16, 64, 256}.
//!
//! The invariant: the DP winner's [`sweep_cost`] is ≤ the cost of every
//! enumerated candidate — TTM-trees from the full enumeration for N = 4
//! (strided down to a few hundred: the complete set has ~27k members),
//! random trees plus the heuristic lineup for N ∈ {5, 6} (full enumeration
//! is infeasible there) — × grid assignments (exhaustive when the space is
//! small, deterministic sampling plus all static schemes otherwise). The
//! small-N *fully* exhaustive certification (every tree × every
//! assignment) lives in the `planner` generator of `tucker-bench`, run by
//! `experiments -- planner`, `tests/artifact_contract.rs` and CI.
//!
//! Cases are generated deterministically from a fixed per-test seed (see
//! `vendor/proptest`): CI runs are reproducible, and `PROPTEST_SEED` /
//! `PROPTEST_CASES` explore other streams or bound the case count.

use proptest::prelude::*;
use tucker_core::plan::brute_force::{enumerate_all_trees, random_tree, sampled_sweep_costs};
use tucker_core::plan::cost::{sweep_cost, CostModel, FlopVolumeModel, NetCostModel};
use tucker_core::plan::grid::{candidate_grids, scheme_volume};
use tucker_core::plan::search::{optimize, SearchBudget};
use tucker_core::plan::tree::TtmTree;
use tucker_core::plan::Planner;
use tucker_core::TuckerMeta;
use tucker_distsim::NetModel;

/// Paper-flavoured metadata with `order` modes and a core big enough for
/// the tested rank counts (K ∈ {4, 8, 16} keeps the valid-grid sets small
/// enough for the oracle).
fn meta_strategy(order: usize) -> impl Strategy<Value = TuckerMeta> {
    let lengths = prop::collection::vec(prop::sample::select(vec![16usize, 24, 40, 64]), order);
    let ks = prop::collection::vec(prop::sample::select(vec![4usize, 8, 16]), order);
    (lengths, ks).prop_map(|(ls, ks)| {
        let ks: Vec<usize> = ks.iter().zip(&ls).map(|(&k, &l)| k.min(l)).collect();
        TuckerMeta::new(ls, ks)
    })
}

/// The candidate trees the oracle scores: a strided subsample of the full
/// enumeration for N ≤ 4 (seeded offset, ≤ ~200 trees per case); the
/// heuristic lineup plus deterministic random trees for larger orders.
fn oracle_trees(meta: &TuckerMeta, seed: u64) -> Vec<TtmTree> {
    let planner = Planner::new(meta.clone(), 1);
    let mut trees: Vec<TtmTree> = [
        tucker_core::plan::TreeStrategy::chain_k(),
        tucker_core::plan::TreeStrategy::chain_h(),
        tucker_core::plan::TreeStrategy::Balanced,
        tucker_core::plan::TreeStrategy::GreedyReuse,
        tucker_core::plan::TreeStrategy::Optimal,
    ]
    .into_iter()
    .map(|ts| planner.build_tree(ts))
    .collect();
    if meta.order() <= 4 {
        let all = enumerate_all_trees(meta);
        let stride = (all.len() / 200).max(1);
        let offset = (seed as usize) % stride;
        trees.extend(all.into_iter().skip(offset).step_by(stride));
    } else {
        for i in 0..24 {
            trees.push(random_tree(meta, seed.wrapping_add(i)));
        }
    }
    trees
}

/// Certify `optimize`'s winner against the oracle candidates for one
/// (meta, P, model) triple. Returns the number of candidates scored.
fn certify(meta: &TuckerMeta, nranks: usize, model: &dyn CostModel, seed: u64) -> usize {
    let ranked = optimize(meta, nranks, model, &SearchBudget::default());
    let dp_cost = ranked.best().cost;
    let grids = candidate_grids(meta, nranks);
    let mut candidates = 0usize;
    for (ti, tree) in oracle_trees(meta, seed).into_iter().enumerate() {
        // Exhaustive when tiny, sampled (plus every static scheme)
        // otherwise. The tree set itself can be large; cap per-tree work.
        let internal = tree.internal_nodes().len();
        let space = (grids.len() as f64).powi(internal as i32 + 1);
        let costs = if space <= 5_000.0 {
            // Exhaustive via the sampling helper's static pass plus a full
            // odometer: cheaper to reuse min_sweep_cost for the minimum.
            vec![tucker_core::plan::brute_force::min_sweep_cost(
                &tree, meta, &grids, model,
            )]
        } else {
            sampled_sweep_costs(&tree, meta, &grids, model, 24, seed ^ (ti as u64) << 17)
        };
        for c in &costs {
            assert!(
                dp_cost <= c * (1.0 + 1e-9) + 1e-9,
                "{meta} P={nranks} under {}: DP {dp_cost} beaten by a candidate at {c} \
                 (tree {ti}, {internal} internal nodes)",
                model.name()
            );
        }
        candidates += costs.len();
    }
    candidates
}

/// Skip pathologically heavy cases (huge grid sets blow up both the DP's
/// G² regrid scan and the oracle): the property stream still covers every
/// (order, P) combination through the lighter draws.
fn tractable(meta: &TuckerMeta, nranks: usize) -> bool {
    if (nranks as f64) > meta.core_cardinality() {
        return false;
    }
    let g = candidate_grids(meta, nranks).len();
    let states = 3usize.pow(meta.order() as u32);
    states * g * g * meta.order() <= 30_000_000 && g <= 220
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// 4-D: the DP winner is never beaten by any enumerated tree × sampled
    /// grid assignment, under both models.
    #[test]
    fn joint_dp_certified_4d(meta in meta_strategy(4), p in prop::sample::select(vec![16usize, 64, 256]), seed in 0u64..1_000_000) {
        prop_assume!(tractable(&meta, p));
        certify(&meta, p, &FlopVolumeModel, seed);
        certify(&meta, p, &NetCostModel::new(NetModel::bgq(), p), seed);
    }

    /// 5-D: heuristic lineup + random trees as oracle fodder.
    #[test]
    fn joint_dp_certified_5d(meta in meta_strategy(5), p in prop::sample::select(vec![16usize, 64, 256]), seed in 0u64..1_000_000) {
        prop_assume!(tractable(&meta, p));
        certify(&meta, p, &FlopVolumeModel, seed);
        certify(&meta, p, &NetCostModel::new(NetModel::bgq(), p), seed);
    }

    /// 6-D: heuristic lineup + random trees as oracle fodder.
    #[test]
    fn joint_dp_certified_6d(meta in meta_strategy(6), p in prop::sample::select(vec![16usize, 64, 256]), seed in 0u64..1_000_000) {
        prop_assume!(tractable(&meta, p));
        certify(&meta, p, &FlopVolumeModel, seed);
        certify(&meta, p, &NetCostModel::new(NetModel::bgq(), p), seed);
    }

    /// The reconstructed winner is internally consistent: valid tree,
    /// scheme volume matching the evaluator, reported cost matching a
    /// recomputation, and never worse than the paper lineup.
    #[test]
    fn dp_winner_is_consistent(meta in meta_strategy(5), p in prop::sample::select(vec![16usize, 64]), ) {
        prop_assume!(tractable(&meta, p));
        let net = NetCostModel::new(NetModel::bgq(), p);
        let models: [&dyn CostModel; 2] = [&FlopVolumeModel, &net];
        for model in models {
            let ranked = optimize(&meta, p, model, &SearchBudget::default());
            for w in ranked.plans.windows(2) {
                prop_assert!(w[0].cost <= w[1].cost + 1e-9);
            }
            let best = ranked.best();
            prop_assert!(best.plan.tree.validate().is_ok());
            let recomputed = sweep_cost(model, &meta, &best.plan.tree, &best.plan.grids);
            prop_assert!((recomputed - best.cost).abs() <= best.cost.abs().max(1.0) * 1e-9);
            let vol = scheme_volume(&best.plan.tree, &meta, &best.plan.grids);
            prop_assert!((vol - best.plan.volume).abs() <= vol.max(1.0) * 1e-9);
            let planner = Planner::new(meta.clone(), p);
            for other in planner.paper_lineup() {
                let c = sweep_cost(model, &meta, &other.tree, &other.grids);
                prop_assert!(best.cost <= c * (1.0 + 1e-9));
            }
        }
    }

    /// Regrid prices are symmetric in the two grids, bit for bit, under
    /// every model in the repo (the joint DP prices each unordered grid pair
    /// once and stores the price both ways): the flop + volume model, the
    /// flat BG/Q α–β model, and the hierarchical cluster model over the
    /// candidate grids plus its node-aligned variants.
    #[test]
    fn regrid_prices_are_symmetric(
        order in 3usize..=5,
        meta in meta_strategy(5),
        p in prop::sample::select(vec![16usize, 64, 256]),
        premult in 0u32..32,
        picks in prop::collection::vec((0usize..10_000, 0usize..10_000), 8),
    ) {
        let meta = TuckerMeta::new(&meta.input().dims()[..order], &meta.core().dims()[..order]);
        prop_assume!((p as f64) <= meta.core_cardinality());
        let premult = premult & ((1 << meta.order()) - 1);
        let bgq = NetCostModel::new(NetModel::bgq(), p);
        let cluster = NetCostModel::new(NetModel::cluster(), p);
        let models: [&dyn CostModel; 3] = [&FlopVolumeModel, &bgq, &cluster];
        for model in models {
            let mut grids = candidate_grids(&meta, p);
            model.augment_grids(&meta, &mut grids);
            for &(i, j) in &picks {
                let (a, b) = (&grids[i % grids.len()], &grids[j % grids.len()]);
                prop_assert_eq!(
                    model.regrid_cost(&meta, premult, a, b).to_bits(),
                    model.regrid_cost(&meta, premult, b, a).to_bits(),
                    "{} prices {:?} -> {:?} differently from its mirror", model.name(), a, b
                );
            }
        }
    }
}
