//! Quickstart: compress a dense 4-way tensor with the full pipeline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a synthetic 24×24×24×12 tensor, plans the optimal TTM-tree and
//! dynamic gridding for 8 simulated ranks, runs STHOSVD + distributed HOOI,
//! and prints the error, compression and communication statistics.

use tucker_core::engine::{run_distributed_hooi, EngineConfig};
use tucker_core::meta::TuckerMeta;
use tucker_core::plan::{FlopVolumeModel, GridStrategy, Planner, SearchBudget, TreeStrategy};
use tucker_suite::fields::combustion_field;

fn main() {
    // 1. Describe the problem: input shape, core (compressed) shape.
    let dims = [24usize, 24, 24, 12];
    let meta = TuckerMeta::new(dims.to_vec(), vec![6, 6, 6, 4]);
    println!(
        "problem: {meta}  (compression {:.0}x)",
        meta.compression_ratio()
    );

    // 2. Plan: the joint grid x tree x order search ranks the DP winner
    // against the paper's heuristic lineup under the chosen cost model.
    let planner = Planner::new(meta.clone(), 8);
    let ranked = planner.ranked_plans(&FlopVolumeModel, &SearchBudget::default());
    println!("ranked plans under the {} model:", ranked.model);
    for s in &ranked.plans {
        println!(
            "  {:>22}: cost {:.3e}  ({} TTMs, {} regrids)",
            s.plan.name(),
            s.cost,
            s.plan.tree.num_ttms(),
            s.plan.grids.regrid_count()
        );
    }
    let plan = ranked.best().plan.clone();
    println!(
        "plan {}: {} TTMs, predicted {:.2} MFLOP, predicted volume {:.0} elements, {} regrids",
        plan.name(),
        plan.tree.num_ttms(),
        plan.flops / 1e6,
        plan.volume,
        plan.grids.regrid_count(),
    );

    // Compare against the naive baseline.
    let naive = planner.plan(TreeStrategy::chain_k(), GridStrategy::StaticOptimal);
    println!(
        "baseline {}: predicted {:.2} MFLOP, volume {:.0} elements",
        naive.name(),
        naive.flops / 1e6,
        naive.volume
    );
    println!(
        "model speedups: {:.2}x load, {:.2}x volume",
        naive.flops / plan.flops,
        if plan.volume > 0.0 {
            naive.volume / plan.volume
        } else {
            f64::INFINITY
        }
    );

    // 3. Execute: distributed HOOI on the simulated 8-rank universe.
    let field = move |c: &[usize]| combustion_field(c, &dims);
    let out = run_distributed_hooi(field, &plan, 3, &EngineConfig::default());
    for (i, s) in out.per_sweep.iter().enumerate() {
        println!(
            "sweep {i}: error {:.5}  ttm {:?} (comm {:?})  svd {:?}  regrid {:?}  \
             volume ttm/regrid/gram = {}/{}/{} elems",
            s.error,
            s.ttm_compute,
            s.ttm_comm,
            s.svd,
            s.regrid_comm,
            s.ttm_volume,
            s.regrid_volume,
            s.gram_volume,
        );
    }

    let d = out.expect_decomposition();
    println!(
        "final: core {}  storage compression {:.1}x  factors orthonormal: {}",
        d.core.shape(),
        d.storage_compression_ratio(),
        d.factors_orthonormal(1e-8),
    );
}
