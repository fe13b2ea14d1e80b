//! Integration: the distributed engine against the sequential reference, and
//! the measured communication volumes against the analytic models.

use tucker_core::engine::DistRun;
use tucker_core::meta::TuckerMeta;
use tucker_core::plan::tree::NodeLabel;
use tucker_core::plan::{GridStrategy, Planner, TreeStrategy};
use tucker_suite::fields::combustion_field;

fn field_for(meta: &TuckerMeta) -> impl Fn(&[usize]) -> f64 + Sync + '_ {
    let dims = meta.input().dims().to_vec();
    move |c: &[usize]| combustion_field(c, &dims)
}

#[test]
fn all_strategies_agree_on_results_across_rank_counts() {
    let meta = TuckerMeta::new([10, 12, 8], [3, 4, 2]);
    let mut reference: Option<f64> = None;
    for nranks in [1usize, 2, 4, 8] {
        let planner = Planner::new(meta.clone(), nranks);
        for plan in planner.paper_lineup() {
            let out = DistRun::of(&plan, 1).run(field_for(&meta));
            let e = out.per_sweep[0].error;
            match reference {
                None => reference = Some(e),
                Some(r) => assert!(
                    (e - r).abs() < 1e-8,
                    "{} on {nranks} ranks: error {e} vs reference {r}",
                    plan.name()
                ),
            }
        }
    }
}

#[test]
fn measured_ttm_volume_matches_model_for_static_plans() {
    // For a static plan the tree's reduce-scatter volume is exactly
    // Σ (q_n − 1)|Out(u)|; the engine additionally runs the core chain, so
    // measured = model(tree) + model(core chain).
    let meta = TuckerMeta::new([12, 10, 8], [4, 5, 2]);
    let planner = Planner::new(meta.clone(), 8);
    let plan = planner.plan(TreeStrategy::Balanced, GridStrategy::StaticOptimal);
    let out = DistRun::of(&plan, 1).run(field_for(&meta));
    let s = &out.per_sweep[0];

    // Model for the tree part.
    let tree_model = plan.volume;
    // Model for the core chain: modes sorted by h ascending, TTMs under the
    // static grid.
    let g = &plan.grids.initial;
    let mut order: Vec<usize> = (0..meta.order()).collect();
    order.sort_by(|&a, &b| meta.h(a).partial_cmp(&meta.h(b)).unwrap());
    let mut card = meta.input_cardinality();
    let mut core_model = 0.0;
    for &n in &order {
        card *= meta.h(n);
        core_model += (g.dim(n) as f64 - 1.0) * card;
    }
    let expect = tree_model + core_model;
    assert!(
        (s.ttm_volume as f64 - expect).abs() < 1e-6,
        "measured {} vs model {expect}",
        s.ttm_volume
    );
    // Static plans never regrid.
    assert_eq!(s.regrid_volume, 0);
}

#[test]
fn measured_regrid_volume_bounded_by_model() {
    // The model charges |In(u)| per regrid; the actual all-to-all moves only
    // the elements that change owners, so measured <= model.
    let meta = TuckerMeta::new([12, 12, 12], [2, 2, 8]);
    let planner = Planner::new(meta.clone(), 8);
    let plan = planner.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
    assert!(
        plan.grids.regrid_count() > 0,
        "test needs a regridding plan"
    );

    // Model upper bound: sum of |In(u)| over regridded nodes.
    let model = plan.modeled_regrid_elements();

    let out = DistRun::of(&plan, 1).run(field_for(&meta));
    let s = &out.per_sweep[0];
    assert!(s.regrid_volume > 0);
    assert!(
        (s.regrid_volume as f64) <= model + 1e-6,
        "measured regrid {} exceeds model bound {model}",
        s.regrid_volume
    );
}

#[test]
fn dynamic_plan_moves_fewer_ttm_bytes_than_static() {
    // The point of dynamic gridding: TTM reduce-scatter volume collapses.
    let meta = TuckerMeta::new([12, 12, 12, 8], [2, 2, 6, 4]);
    let planner = Planner::new(meta.clone(), 8);
    let stat = planner.plan(TreeStrategy::Optimal, GridStrategy::StaticOptimal);
    let dynamic = planner.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
    if dynamic.volume >= stat.volume {
        // Degenerate case: dynamic == static; nothing to check.
        return;
    }
    let so = DistRun::of(&stat, 1).run(field_for(&meta));
    let dy = DistRun::of(&dynamic, 1).run(field_for(&meta));
    let s_total = so.per_sweep[0].ttm_volume + so.per_sweep[0].regrid_volume;
    let d_total = dy.per_sweep[0].ttm_volume + dy.per_sweep[0].regrid_volume;
    assert!(
        d_total < s_total,
        "dynamic should move less: {d_total} vs {s_total}"
    );
}

#[test]
fn per_sweep_stats_are_complete() {
    let meta = TuckerMeta::new([10, 10, 10], [3, 3, 3]);
    let planner = Planner::new(meta.clone(), 4);
    let plan = planner.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
    let out = DistRun::of(&plan, 2).run(field_for(&meta));
    assert_eq!(out.per_sweep.len(), 2);
    for s in &out.per_sweep {
        assert!(s.wall > std::time::Duration::ZERO);
        assert!(s.error.is_finite());
        // Gram always communicates when P > 1 (the world all-reduce).
        assert!(s.gram_volume > 0);
    }
    // The ledger total covers at least the per-sweep TTM+regrid+gram bytes.
    let ledger_elems = out.volume().total_elements();
    let sweep_elems: u64 = out
        .per_sweep
        .iter()
        .map(|s| s.ttm_volume + s.regrid_volume + s.gram_volume)
        .sum();
    assert!(
        ledger_elems >= sweep_elems / 2,
        "ledger {ledger_elems} vs sweeps {sweep_elems}"
    );
}

#[test]
fn engine_respects_the_plans_regrid_schedule() {
    let meta = TuckerMeta::new([12, 12, 12], [2, 2, 8]);
    let planner = Planner::new(meta.clone(), 8);
    let plan = planner.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
    // Validate plan internal consistency: regridded nodes change grids,
    // others inherit.
    for id in plan.tree.internal_nodes() {
        let parent = plan.tree.node(id).parent.unwrap();
        let pg = if parent == plan.tree.root() {
            &plan.grids.initial
        } else {
            &plan.grids.node_grids[parent]
        };
        if plan.grids.regrid[id] {
            assert_ne!(&plan.grids.node_grids[id], pg, "regrid to the same grid");
        } else {
            assert_eq!(
                &plan.grids.node_grids[id], pg,
                "grid changed without regrid"
            );
        }
        let NodeLabel::Ttm(n) = plan.tree.node(id).label else {
            unreachable!()
        };
        assert!(
            plan.grids.node_grids[id].dim(n) <= meta.k(n),
            "invalid grid at node {id}"
        );
    }
}
