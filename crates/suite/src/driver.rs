//! Analytic comparisons of the paper's strategies over the suite: the
//! machine-independent models (FLOP load, §3.1; communication volume,
//! §4.1/4.3) behind Figures 11c/d/f — as the paper argues (§6.2), the cause
//! of the time results — and the problem the virtual-time experiments of
//! `tucker-bench` replay at paper-scale rank counts.

use tucker_core::plan::{GridStrategy, Planner, TreeStrategy};
use tucker_core::TuckerMeta;

/// Evaluate `(opt-tree, static)` vs `(opt-tree, dynamic)` — the comparison
/// behind Figures 11e/f. Returns `(static_volume, dynamic_volume)`.
pub fn gridding_comparison(meta: &TuckerMeta, nranks: usize) -> (f64, f64) {
    let planner = Planner::new(meta.clone(), nranks);
    let stat = planner.plan(TreeStrategy::Optimal, GridStrategy::StaticOptimal);
    let dynamic = planner.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
    (stat.volume, dynamic.volume)
}

/// Evaluate the computational-load lineup — `(opt-tree, static)` against the
/// heuristics, the comparison behind Figures 11c/d. Returns
/// `(chain_k, chain_h, balanced, opt)` FLOPs.
pub fn load_comparison(meta: &TuckerMeta) -> (f64, f64, f64, f64) {
    use tucker_core::plan::cost::tree_flops;
    use tucker_core::plan::order::ModeOrdering;
    use tucker_core::plan::tree::{balanced_tree, chain_tree, optimal_tree};

    let chain_k = tree_flops(
        &chain_tree(meta, &ModeOrdering::ByCostFactor.permutation(meta)),
        meta,
    );
    let chain_h = tree_flops(
        &chain_tree(meta, &ModeOrdering::ByCompression.permutation(meta)),
        meta,
    );
    let balanced = tree_flops(
        &balanced_tree(meta, &(0..meta.order()).collect::<Vec<_>>()),
        meta,
    );
    let opt = optimal_tree(meta).flops;
    (chain_k, chain_h, balanced, opt)
}

/// Default problem of the virtual-time sweeps: a 5-D tensor whose core
/// (8×8×8×6×6 = 18432) admits valid power-of-two grids up to P = 2¹⁴,
/// small enough that a P = 8192 universe replays in seconds.
pub fn scaling_meta() -> TuckerMeta {
    TuckerMeta::new([16, 12, 12, 10, 10], [8, 8, 8, 6, 6])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TuckerMeta {
        TuckerMeta::new([100, 50, 400, 20, 20], [20, 25, 40, 4, 2])
    }

    #[test]
    fn lineup_order_and_flop_dominance() {
        let lineup = Planner::new(meta(), 32).paper_lineup();
        assert_eq!(lineup.len(), 4);
        assert_eq!(lineup[3].name(), "(opt-tree, dynamic)");
        // FLOP dominance holds over every tree; volume dominance only holds
        // within a fixed tree (see gridding_comparison).
        for plan in &lineup[..3] {
            assert!(lineup[3].flops <= plan.flops + 1e-6, "{}", plan.name());
        }
    }

    #[test]
    fn gridding_dynamic_never_worse() {
        let (s, d) = gridding_comparison(&meta(), 32);
        assert!(d <= s + 1e-6);
    }

    #[test]
    fn load_opt_never_worse() {
        let (ck, ch, b, o) = load_comparison(&meta());
        assert!(o <= ck && o <= ch && o <= b);
    }
}
