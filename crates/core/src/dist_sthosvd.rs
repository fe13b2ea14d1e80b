//! Distributed STHOSVD — the paper's suggested extension:
//! [`executor::sthosvd_sweep`] on the engine's `DistsimBackend`.
//!
//! The introduction notes that "the ideas developed in this paper can be
//! recast and used for improving STHOSVD as well". STHOSVD is a *single*
//! chain: for each mode in some order, Gram → leading eigenvectors →
//! truncate. Two of the paper's ideas transfer directly:
//!
//! * **Mode ordering**: the TTM cost of the chain is
//!   `|T| · Σᵢ K_{π(i)} · ∏_{j<i} h_{π(j)}`. An adjacent-exchange argument
//!   shows the order minimizing it sorts modes by `K_n / (1 − h_n)`
//!   (ascending; `h_n = 1` modes — no compression — go last). This is the
//!   single-chain specialization of the §3.3 tree optimization, implemented
//!   in [`optimal_sthosvd_order`](crate::plan::order::optimal_sthosvd_order)
//!   and validated against brute force over all
//!   permutations in the tests.
//! * **Gridding**: each truncation step is a distributed TTM whose
//!   reduce-scatter volume follows the same `(q_n − 1)|Out|` model, executed
//!   here under a caller-chosen static grid (a per-step dynamic extension
//!   would mirror §4.4).

use crate::decomposition::TuckerDecomposition;
use crate::engine::{mesh_cfg, DistsimBackend, EngineConfig};
use crate::executor::{self, PlanProvenance, SweepStats};
use crate::meta::TuckerMeta;
use tucker_distsim::{DistTensor, Grid, Universe};

/// Run distributed STHOSVD on `grid.nranks()` simulated ranks under a
/// static grid, with the HOOI engine's [`EngineConfig`] (clock, core
/// gather; always fail-stop). Returns `None` for the decomposition when
/// `gather_core` is off. The stats are the unified [`SweepStats`] (regrid
/// fields zero — the chain runs under one static grid), measured in the
/// default mode and α–β-modeled when [`EngineConfig::net`] is set.
///
/// # Panics
/// Panics if the grid is invalid for the core, or if a rank panics.
pub fn run_distributed_sthosvd(
    global_fn: impl Fn(&[usize]) -> f64 + Sync,
    meta: &TuckerMeta,
    grid: &Grid,
    order: &[usize],
    cfg: &EngineConfig,
) -> (Option<TuckerDecomposition>, SweepStats) {
    assert!(
        grid.is_valid_for(meta.core().dims()),
        "grid {grid} invalid for core {}",
        meta.core()
    );

    let out = Universe::run_mesh(grid.nranks(), &mesh_cfg(cfg, 0), |ctx| {
        let t = DistTensor::from_global_fn(ctx, meta.input(), grid, |c| global_fn(c));
        let input_norm_sq = t.global_norm_sq(ctx);

        let mut backend = DistsimBackend::new(&mut *ctx, None);
        let run = executor::sthosvd_sweep(&mut backend, &t, meta, order, input_norm_sq);

        let decomp = if cfg.gather_core {
            let dense_core = run.core.allgather_global(ctx);
            (ctx.rank() == 0).then(|| TuckerDecomposition::new(dense_core, run.factors))
        } else {
            None
        };
        (decomp, run.stats)
    })
    .into_results();

    let mut agg = SweepStats::default();
    let mut decomp = None;
    for (d, s) in out.results {
        agg.merge_max(&s);
        if let Some(d) = d {
            decomp = Some(d);
        }
    }
    agg.provenance = Some(PlanProvenance {
        plan: format!("(sthosvd, {grid})"),
        predicted_comm: None,
    });
    (decomp, agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::order::{optimal_sthosvd_order, sthosvd_chain_flops};
    use crate::sthosvd::sthosvd_with_order;
    use tucker_tensor::DenseTensor;

    fn plume(c: &[usize]) -> f64 {
        let mut s = 0.0;
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for (i, &x) in c.iter().enumerate() {
            s += (0.8 + 0.2 * i as f64) * x as f64;
            h = (h ^ (x as u64 + 3).wrapping_mul(0xff51_afd7_ed55_8ccd))
                .rotate_left(31)
                .wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        }
        (0.2 * s).sin()
            + 0.3 * (0.05 * s * s).cos()
            + 0.03 * ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
    }

    #[test]
    fn optimal_order_beats_all_permutations_small() {
        // Brute force over all 4! permutations.
        let metas = [
            TuckerMeta::new([20, 50, 100, 400], [16, 10, 20, 40]),
            TuckerMeta::new([100, 100, 100, 100], [80, 50, 20, 10]),
            TuckerMeta::new([50, 50, 20, 20], [25, 5, 16, 2]),
        ];
        for meta in metas {
            let best_order = optimal_sthosvd_order(&meta);
            let best = sthosvd_chain_flops(&meta, &best_order);
            let modes = [0usize, 1, 2, 3];
            let mut perms = Vec::new();
            permute(&modes, &mut vec![], &mut perms);
            for p in perms {
                let f = sthosvd_chain_flops(&meta, &p);
                assert!(
                    best <= f * (1.0 + 1e-12),
                    "{meta}: order {best_order:?} ({best}) beaten by {p:?} ({f})"
                );
            }
        }
    }

    fn permute(rest: &[usize], cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(cur.clone());
            return;
        }
        for (i, &m) in rest.iter().enumerate() {
            let mut r = rest.to_vec();
            r.remove(i);
            cur.push(m);
            permute(&r, cur, out);
            cur.pop();
        }
    }

    #[test]
    fn incompressible_modes_go_last() {
        let meta = TuckerMeta::new([16, 20, 16], [16, 2, 8]);
        let order = optimal_sthosvd_order(&meta);
        assert_eq!(*order.last().unwrap(), 0, "h=1 mode must be processed last");
    }

    #[test]
    fn distributed_matches_sequential_sthosvd() {
        let meta = TuckerMeta::new([8, 10, 6], [3, 4, 2]);
        let t = DenseTensor::from_fn(meta.input().clone(), plume);
        let order = optimal_sthosvd_order(&meta);
        let seq = sthosvd_with_order(&t, &meta, &order);

        let grid = Grid::new([2, 2, 1]);
        let (dist, stats) =
            run_distributed_sthosvd(plume, &meta, &grid, &order, &EngineConfig::default());
        let dist = dist.expect("default config gathers the core");

        let seq_err = seq.error(&t);
        assert!(
            (stats.error - seq_err).abs() < 1e-8,
            "{} vs {seq_err}",
            stats.error
        );
        for (fd, fs) in dist.factors.iter().zip(&seq.factors) {
            assert!(fd.max_abs_diff(fs) < 1e-7);
        }
        assert!(dist.core.max_abs_diff(&seq.core) < 1e-7);
    }

    #[test]
    fn single_rank_run_is_communication_free_for_ttm() {
        let meta = TuckerMeta::new([6, 6, 6], [2, 2, 2]);
        let grid = Grid::trivial(3);
        let order = [0usize, 1, 2];
        let (_, stats) =
            run_distributed_sthosvd(plume, &meta, &grid, &order, &EngineConfig::default());
        assert_eq!(stats.ttm_volume, 0);
        assert_eq!(stats.gram_volume, 0);
        assert!(stats.error.is_finite());
    }

    #[test]
    fn stats_volumes_populated_when_split() {
        let meta = TuckerMeta::new([8, 8], [4, 4]);
        let grid = Grid::new([2, 2]);
        let (_, stats) =
            run_distributed_sthosvd(plume, &meta, &grid, &[0, 1], &EngineConfig::default());
        assert!(stats.ttm_volume > 0, "split modes must reduce-scatter");
        assert!(stats.gram_volume > 0);
    }
}
