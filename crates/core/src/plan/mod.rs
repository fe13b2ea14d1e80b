//! The planning layer (paper §3–§5): everything that decides *how* a sweep
//! executes — TTM-tree, processor grids, mode orders — behind one
//! cost-model-driven search.
//!
//! Module map (see DESIGN.md §6):
//!
//! * [`tree`] — the TTM-tree arena, the prior-work constructions (§3.2) and
//!   the `O(4^N)` optimal-tree DP (§3.3);
//! * [`order`] — every mode-ordering rule: chain orderings, the core-chain
//!   order, the optimal STHOSVD order;
//! * [`schedule`] — one sweep's operations (regrids, tree TTMs, leaf Grams,
//!   the core chain, the norm all-reduce) in the executor's issue order, and
//!   the §4.1/§4.3 per-operation volumes; every price below folds over it;
//! * [`grid`] — the §4 volume of a scheme, optimal static grids, dynamic
//!   gridding and its DP, candidate-grid utilities (symmetric-grid dedup);
//! * [`cost`] — the [`CostModel`] contract with the
//!   closed-form [`FlopVolumeModel`] and the α–β
//!   [`NetCostModel`] (whose
//!   `predict_sweep` reproduces the
//!   engine's virtual communication clock exactly);
//! * [`search`] — the joint grid × tree × order DP
//!   ([`search::optimize`]) producing [`RankedPlans`];
//! * [`cache`] — the exact LRU memo of search winners keyed by
//!   `(shape, core, P, model)` that the serving layer plans through;
//! * [`brute_force`] — the independent exhaustive/sampling certification
//!   oracle.
//!
//! This `mod.rs` owns the executable [`Plan`] (tree + grids + model
//! predictions) and the [`Planner`] facade the engines, drivers and
//! examples consume.

pub mod brute_force;
pub mod cache;
pub mod cost;
pub mod grid;
pub mod order;
pub mod schedule;
pub mod search;
pub mod tree;

pub use cache::{PlanCache, PlanCacheStats, PlanKey};
pub use cost::{CostModel, FlopVolumeModel, NetCostModel, SweepPrediction, VOLUME_FLOP_EQUIV};
use schedule::{Op, OpKind};
pub use search::{optimize, RankedPlans, ScoredPlan, SearchBudget};

use crate::meta::TuckerMeta;
use cost::tree_flops;
use grid::{optimal_dynamic_grids, optimal_static_grid, DynGridObjective, DynGridScheme};
use order::ModeOrdering;
use tree::{balanced_tree, chain_tree, greedy_reuse_tree, optimal_tree, TtmTree};

/// Which TTM-tree to build.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TreeStrategy {
    /// Naive chain tree with a mode ordering (§3.2). `Chain(ByCostFactor)`
    /// and `Chain(ByCompression)` are the paper's "(chain, K)" and
    /// "(chain, h)" heuristics.
    Chain(ModeOrdering),
    /// The Kaya–Uçar balanced tree (§3.2); ordering has little effect, the
    /// natural one is used.
    Balanced,
    /// The "always reuse when available" greedy of the §3.3 Remarks
    /// (ablation baseline; the DP can strictly beat it).
    GreedyReuse,
    /// The optimal tree from the §3.3 dynamic program.
    Optimal,
}

impl TreeStrategy {
    /// The paper's "(chain, K)" heuristic.
    pub fn chain_k() -> Self {
        TreeStrategy::Chain(ModeOrdering::ByCostFactor)
    }

    /// The paper's "(chain, h)" heuristic.
    pub fn chain_h() -> Self {
        TreeStrategy::Chain(ModeOrdering::ByCompression)
    }

    /// Short label used in experiment output (matches the paper's legends).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            TreeStrategy::Chain(ModeOrdering::Natural) => "chain",
            TreeStrategy::Chain(ModeOrdering::ByCostFactor) => "chain-K",
            TreeStrategy::Chain(ModeOrdering::ByCompression) => "chain-h",
            TreeStrategy::Balanced => "balanced",
            TreeStrategy::GreedyReuse => "greedy-reuse",
            TreeStrategy::Optimal => "opt-tree",
        }
    }
}

/// How to assign grids to tree nodes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GridStrategy {
    /// One grid for the whole tree, chosen by exhaustive search (§4.2).
    StaticOptimal,
    /// The optimal dynamic scheme from the §4.4 DP.
    Dynamic,
}

impl GridStrategy {
    /// Short label used in experiment output.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            GridStrategy::StaticOptimal => "static",
            GridStrategy::Dynamic => "dynamic",
        }
    }
}

/// An executable plan: tree + grids + model predictions.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Problem metadata the plan was built for.
    pub meta: TuckerMeta,
    /// Number of ranks.
    pub nranks: usize,
    /// The TTM-tree.
    pub tree: TtmTree,
    /// Grid per node (+ regrid flags + initial grid).
    pub grids: DynGridScheme,
    /// Model FLOP count of the TTM component (one HOOI invocation).
    pub flops: f64,
    /// Model communication volume in elements (one HOOI invocation).
    pub volume: f64,
    /// Strategy labels, e.g. `("opt-tree", "dynamic")` or `("dp", "joint")`.
    pub labels: (&'static str, &'static str),
}

impl Plan {
    /// `"(tree, grid)"` label like the paper's legends.
    pub fn name(&self) -> String {
        format!("({}, {})", self.labels.0, self.labels.1)
    }

    /// The operations of one sweep executing this plan.
    pub(crate) fn schedule(&self) -> Vec<Op<'_>> {
        schedule::sweep(&self.meta, &self.tree, &self.grids)
    }

    /// §4.1 closed-form prediction of the tree's reduce-scatter traffic in
    /// elements: `Σ_u (q_n(u) − 1)·|Out(u)|` under each node's grid. The
    /// engine's ledger matches this **exactly** (uneven chunks included —
    /// the chunks partition `K_n`, so the per-group sums telescope).
    pub(crate) fn modeled_tree_ttm_elements(&self) -> f64 {
        let tree_ttm = |op: &Op| matches!(op.kind, OpKind::Ttm { node: Some(_), .. });
        schedule::elements(&self.schedule(), tree_ttm)
    }

    /// §4.3 model of the regrid traffic in elements: `Σ |In(u)|` over the
    /// regridded nodes. This is an upper bound on the ledger (elements whose
    /// owner does not change are not transmitted).
    pub fn modeled_regrid_elements(&self) -> f64 {
        // `Sum` starts from -0.0: a plan that never regrids reads -0.0, the
        // value its artifacts record.
        let schedule = self.schedule();
        let regrids = schedule
            .iter()
            .filter(|op| matches!(op.kind, OpKind::Regrid { .. }));
        regrids.map(Op::elements).sum()
    }

    /// §4.1 prediction for the engine's core-update chain (every mode, in
    /// the schedule's chain order, under the initial grid), in elements.
    pub(crate) fn modeled_core_chain_elements(&self) -> f64 {
        let chain_ttm = |op: &Op| matches!(op.kind, OpKind::Ttm { node: None, .. });
        schedule::elements(&self.schedule(), chain_ttm)
    }

    /// Total `TtmReduceScatter` ledger prediction for one engine sweep:
    /// tree reduce-scatters plus the core-update chain. The engine's
    /// measured per-sweep `ttm_volume` equals this exactly.
    pub fn modeled_sweep_ttm_elements(&self) -> f64 {
        self.modeled_tree_ttm_elements() + self.modeled_core_chain_elements()
    }

    /// The plan's [`cost::sweep_cost`] under an arbitrary model.
    pub fn cost(&self, model: &dyn CostModel) -> f64 {
        cost::sweep_cost(model, &self.meta, &self.tree, &self.grids)
    }

    /// The exact per-rank α–β communication prediction of one engine sweep
    /// executing this plan (see `cost::NetCostModel::predict_sweep`).
    pub fn predict_net(&self, model: &NetCostModel) -> SweepPrediction {
        model.predict_sweep(&self.meta, &self.tree, &self.grids)
    }

    /// The node-aligned relabeling of this plan under a hierarchical model:
    /// same tree, same geometric grids, axes reordered per grid so the
    /// heaviest mode-reductions sit on the smallest rank strides (see
    /// [`cost::NetCostModel::node_align_scheme`]). `None` when no grid
    /// changes (flat models included).
    pub(crate) fn node_aligned(&self, model: &NetCostModel) -> Option<Plan> {
        let grids = model.node_align_scheme(&self.meta, &self.grids)?;
        Some(Plan {
            grids,
            ..self.clone()
        })
    }
}

/// Builds plans from metadata (the paper's planner; §5).
#[derive(Clone, Debug)]
pub struct Planner {
    meta: TuckerMeta,
    nranks: usize,
}

impl Planner {
    /// Create a planner for a problem on `nranks` ranks.
    ///
    /// # Panics
    /// Panics if `nranks` is zero or no valid grid exists: `nranks` is not a
    /// product `∏ q_n` with every `q_n ≤ K_n` (exceeding the core
    /// cardinality is one way).
    pub fn new(meta: TuckerMeta, nranks: usize) -> Self {
        assert!(nranks >= 1, "need at least one rank");
        assert!(
            !tucker_distsim::enumerate_valid_grids(nranks, meta.core().dims()).is_empty(),
            "no valid grid: P = {nranks} is not a product of per-mode counts q_n <= K_n for K = {:?}",
            meta.core().dims()
        );
        Planner { meta, nranks }
    }

    /// Build the tree for a strategy.
    pub fn build_tree(&self, strategy: TreeStrategy) -> TtmTree {
        match strategy {
            TreeStrategy::Chain(ordering) => {
                chain_tree(&self.meta, &ordering.permutation(&self.meta))
            }
            TreeStrategy::Balanced => {
                balanced_tree(&self.meta, &(0..self.meta.order()).collect::<Vec<_>>())
            }
            TreeStrategy::GreedyReuse => greedy_reuse_tree(&self.meta),
            TreeStrategy::Optimal => optimal_tree(&self.meta).tree,
        }
    }

    /// Produce a full plan.
    pub fn plan(&self, tree_strategy: TreeStrategy, grid_strategy: GridStrategy) -> Plan {
        let tree = self.build_tree(tree_strategy);
        let flops = tree_flops(&tree, &self.meta);
        let grids = match &grid_strategy {
            GridStrategy::StaticOptimal => {
                let choice = optimal_static_grid(&tree, &self.meta, self.nranks);
                DynGridScheme::static_scheme(&tree, &self.meta, choice.grid)
            }
            GridStrategy::Dynamic => {
                optimal_dynamic_grids(&tree, &self.meta, self.nranks, DynGridObjective::Exact)
            }
        };
        let volume = grids.volume;
        Plan {
            meta: self.meta.clone(),
            nranks: self.nranks,
            tree,
            grids,
            flops,
            volume,
            labels: (tree_strategy.label(), grid_strategy.label()),
        }
    }

    /// The four configurations compared throughout the paper's evaluation:
    /// `(chain, K)`, `(chain, h)`, `(balanced)` — all with optimal static
    /// grids — and `(opt-tree, dynamic)`.
    pub fn paper_lineup(&self) -> Vec<Plan> {
        vec![
            self.plan(TreeStrategy::chain_k(), GridStrategy::StaticOptimal),
            self.plan(TreeStrategy::chain_h(), GridStrategy::StaticOptimal),
            self.plan(TreeStrategy::Balanced, GridStrategy::StaticOptimal),
            self.plan(TreeStrategy::Optimal, GridStrategy::Dynamic),
        ]
    }

    /// Run the joint grid × tree × order search under `model` with the given
    /// budget and return the scored candidate list (DP winner plus the
    /// heuristic lineup, cheapest first). See [`search::optimize`].
    pub fn ranked_plans(&self, model: &dyn CostModel, budget: &SearchBudget) -> RankedPlans {
        search::optimize(&self.meta, self.nranks, model, budget)
    }

    /// [`Planner::best_plan`] under an explicit model and budget.
    pub fn best_plan_with(&self, model: &dyn CostModel, budget: &SearchBudget) -> Plan {
        self.ranked_plans(model, budget).best().plan.clone()
    }

    /// The minimum-cost plan of the joint DP search under the classic
    /// closed-form objective ([`FlopVolumeModel`]): guaranteed to cost no
    /// more than every enumerable (tree, grid-scheme) pair — and therefore
    /// no more than any [`Planner::paper_lineup`] entry — certified against
    /// brute-force enumeration in the property suite.
    pub fn best_plan(&self) -> Plan {
        self.best_plan_with(&FlopVolumeModel, &SearchBudget::winner_only())
    }

    /// Topology-aware plan selection under an α–β [`NetCostModel`]: build a
    /// candidate portfolio, then choose the plan minimizing the **exact**
    /// predicted communication wall of `NetCostModel::predict_sweep`.
    ///
    /// The DP's scalar objective sums per-operation critical paths — an
    /// upper bound whose argmin can differ from the engine's aggregation
    /// (max over ranks of the per-rank total) when a hierarchical topology
    /// makes different ranks critical in different operations — so the
    /// final choice is settled by the exact replay over a portfolio of:
    ///
    /// * the joint-DP candidates ranked under `model`;
    /// * for hierarchical models, the topology-blind winner (the plan a
    ///   flat planner would pick, priced on the inter-node link alone) —
    ///   its presence means the topology-aware choice can never lose to a
    ///   hierarchy-unaware planner on the exact clock;
    /// * the node-aligned relabeling of every candidate above
    ///   (`Plan::node_aligned`): same geometry, heaviest mode-reductions
    ///   on the smallest rank strides.
    pub fn best_plan_net(&self, model: &NetCostModel, budget: &SearchBudget) -> Plan {
        let ranked = self.ranked_plans(model, budget);
        let mut pool: Vec<Plan> = ranked.plans.iter().map(|s| s.plan.clone()).collect();
        if model.net().is_hierarchical() {
            let flat = NetCostModel::new(model.net().flattened(), self.nranks);
            pool.push(self.best_plan_with(&flat, &SearchBudget::winner_only()));
        }
        let aligned: Vec<Plan> = pool.iter().filter_map(|p| p.node_aligned(model)).collect();
        pool.extend(aligned);
        pool.into_iter()
            .min_by_key(|p| p.predict_net(model).comm_wall)
            .expect("candidate pool is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cost::sweep_cost;

    fn planner() -> Planner {
        Planner::new(TuckerMeta::new([40, 100, 20, 50], [8, 20, 4, 10]), 16)
    }

    #[test]
    fn optimal_plan_dominates_lineup_on_flops() {
        let p = planner();
        let lineup = p.paper_lineup();
        let opt = &lineup[3];
        for other in &lineup[..3] {
            assert!(opt.flops <= other.flops + 1e-9, "{}", other.name());
        }
        // Volume dominance is guaranteed within the same tree.
        let opt_static = p.plan(TreeStrategy::Optimal, GridStrategy::StaticOptimal);
        assert!(opt.volume <= opt_static.volume + 1e-9);
    }

    #[test]
    fn best_plan_agrees_with_brute_force_enumeration() {
        // On small metadata the selected plan must be certified by the
        // independent exhaustive searches: its classic-model cost must
        // match the minimum of sweep_cost over EVERY TTM-tree (including
        // non-binary ones) x every grid assignment — and it must cost no
        // more than any lineup alternative.
        let metas = [
            TuckerMeta::new([20, 50, 100], [4, 25, 10]),
            TuckerMeta::new([40, 40, 20], [8, 20, 4]),
            TuckerMeta::new([16, 16, 16], [4, 2, 4]),
        ];
        for meta in metas {
            let p = Planner::new(meta.clone(), 4);
            let best = p.best_plan();
            let best_cost = best.cost(&FlopVolumeModel);
            let grids = grid::candidate_grids(&meta, 4);
            let mut oracle = f64::INFINITY;
            for tree in brute_force::enumerate_all_trees(&meta) {
                oracle = oracle.min(brute_force::min_sweep_cost(
                    &tree,
                    &meta,
                    &grids,
                    &FlopVolumeModel,
                ));
            }
            assert!(
                (best_cost - oracle).abs() <= oracle * 1e-9,
                "{meta}: best_plan cost {best_cost} vs oracle {oracle}"
            );
            for other in p.paper_lineup() {
                assert!(best_cost <= other.cost(&FlopVolumeModel) + 1e-9);
            }
        }
    }

    #[test]
    fn best_plan_cost_is_consistent_with_reported_fields() {
        let p = planner();
        let best = p.best_plan();
        let recomputed = sweep_cost(&FlopVolumeModel, &p.meta, &best.tree, &best.grids);
        // Classic model: sweep_cost == flops + 16 * volume.
        let reported = best.flops + VOLUME_FLOP_EQUIV * best.volume;
        assert!((recomputed - reported).abs() <= reported * 1e-9);
        assert_eq!(recomputed, best.cost(&FlopVolumeModel));
        assert!(best.tree.validate().is_ok());
    }

    #[test]
    fn labels_match_paper() {
        let p = planner();
        let lineup = p.paper_lineup();
        assert_eq!(lineup[0].name(), "(chain-K, static)");
        assert_eq!(lineup[1].name(), "(chain-h, static)");
        assert_eq!(lineup[2].name(), "(balanced, static)");
        assert_eq!(lineup[3].name(), "(opt-tree, dynamic)");
        assert_eq!(p.best_plan().name(), "(dp, joint)");
    }

    #[test]
    fn static_plans_never_regrid() {
        let p = planner();
        let plan = p.plan(TreeStrategy::Balanced, GridStrategy::StaticOptimal);
        assert_eq!(plan.grids.regrid_count(), 0);
        for g in &plan.grids.node_grids {
            assert_eq!(g, &plan.grids.initial);
        }
    }

    #[test]
    #[should_panic(expected = "no valid grid")]
    fn too_many_ranks_rejected() {
        let _ = Planner::new(TuckerMeta::new([4, 4], [2, 2]), 32);
    }

    #[test]
    fn plan_predictions_are_consistent() {
        let p = planner();
        let plan = p.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
        let flops = cost::tree_flops(&plan.tree, &p.meta);
        assert!((plan.flops - flops).abs() < flops * 1e-12);
        let vol = grid::scheme_volume(&plan.tree, &p.meta, &plan.grids);
        assert!((plan.volume - vol).abs() <= vol.max(1.0) * 1e-9);
    }
}
