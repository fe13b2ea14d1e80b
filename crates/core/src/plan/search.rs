//! The joint plan search: one memoized dynamic program over
//! **grid × tree × order**, parameterized by a [`CostModel`].
//!
//! The paper optimizes the three planning axes separately: the §3.3 DP
//! picks the tree (FLOPs only), then the §4.4 DP picks grids for that tree
//! (volume only). [`optimize`] generalizes both into a single DP over
//! states `(P, Q, g)` — `P` the modes multiplied on the path from the root,
//! `Q` the factors still owed by this subtree, `g` the grid the subtree's
//! input currently lives on. Moves:
//!
//! * **reuse** a mode `m ∉ P ∪ Q`, either on the current grid or after a
//!   regrid to the best target grid (one shared TTM node);
//! * **split** `Q` into two non-empty halves (two children, free);
//! * **leaf** when `Q = {n}` and nothing is reusable (the mode-`n` Gram).
//!
//! Each move is priced by the model ([`CostModel::ttm_cost`],
//! [`CostModel::regrid_cost`], [`CostModel::leaf_cost`]); the root adds the
//! core-chain and per-sweep overhead prices, so the DP minimizes exactly
//! [`sweep_cost`] over every (tree, grid-scheme) pair — certified against
//! brute-force enumeration in the property suite. The table holds
//! `O(3^N · |grids|)` states; regrid transitions share a per-state
//! *continuation vector* (`ttm + solve` for every target grid) and memoize
//! the source-dependent regrid prices in dense `|grids| × |grids|` tables,
//! one per premult mask, allocated when a state with that mask first scans
//! its regrid targets (at most `2^N − 1` tables of `8 · |grids|²` bytes).
//! Regrid prices are symmetric in the two grids, so the tables are filled
//! symmetrically: each unordered grid pair is priced once, through the
//! pricer the model prepares for the candidate grids once per search
//! ([`CostModel::regrid_pricer`]; the flat α–β model's reads a per-search
//! table of per-mode block overlaps). The grid × grid scan
//! skips — without pricing it — every target whose continuation alone
//! already reaches the state's running optimum: regrid prices are
//! non-negative and the optimum only moves on a strict improvement, so the
//! skipped targets could never have been chosen and plans and costs are
//! unchanged bit for bit.
//!
//! Mirror-image initial grids (processor counts permuted within classes of
//! modes with identical `(L_n, K_n)`) are deduplicated before scoring the
//! tree search: the search value is invariant under such permutations, so
//! it runs once per orbit — on the canonical representative,
//! `crate::plan::grid::canonical_symmetric_dims` — and only the (cheap,
//! order-sensitive) core-chain price is evaluated per grid. A winning
//! non-canonical grid gets the representative's plan relabeled back onto
//! it, so the optimality guarantee holds over the *full* grid set.

use crate::meta::TuckerMeta;
use crate::plan::cost::{sweep_cost, CostModel, RegridPricer};
use crate::plan::grid::{candidate_grids, scheme_volume, DynGridScheme};
use crate::plan::tree::{NodeLabel, TtmTree};
use crate::plan::{GridStrategy, Plan, Planner, TreeStrategy};
use tucker_distsim::Grid;

/// Resource limits for [`optimize`].
#[derive(Clone, Copy, Debug)]
pub struct SearchBudget {
    /// Maximum number of ranked candidate plans to return (the DP winner is
    /// always kept; a budget of 1 skips building the heuristic lineup
    /// entirely — see [`SearchBudget::winner_only`]).
    pub max_candidates: usize,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget { max_candidates: 16 }
    }
}

impl SearchBudget {
    /// Return only the DP winner (no heuristic lineup is built or scored).
    pub fn winner_only() -> Self {
        SearchBudget { max_candidates: 1 }
    }
}

/// One candidate plan with its model score.
#[derive(Clone, Debug)]
pub struct ScoredPlan {
    /// The executable plan.
    pub plan: Plan,
    /// Its [`sweep_cost`] under the model that ranked it.
    pub cost: f64,
}

/// The output of [`optimize`]: candidate plans sorted by ascending model
/// cost (the DP winner plus the scored heuristic lineup).
#[derive(Clone, Debug)]
pub struct RankedPlans {
    /// [`CostModel::name`] of the scoring model.
    pub model: &'static str,
    /// Candidates, cheapest first.
    pub plans: Vec<ScoredPlan>,
}

impl RankedPlans {
    /// The minimum-cost plan.
    pub fn best(&self) -> &ScoredPlan {
        &self.plans[0]
    }

    /// Look a candidate up by its `"(tree, grid)"` name.
    pub fn by_name(&self, name: &str) -> Option<&ScoredPlan> {
        self.plans.iter().find(|s| s.plan.name() == name)
    }
}

/// Jointly optimize grid, tree and order for `meta` on `nranks` ranks under
/// `model`, and rank the heuristic lineup alongside the DP winner.
///
/// The returned list always starts with the minimum-cost candidate; the DP
/// winner is guaranteed to cost no more than every enumerable (tree,
/// grid-scheme) pair under the model (property-tested against brute force).
///
/// # Panics
/// Panics if no valid grid exists (`P > ∏ K_n`).
pub fn optimize(
    meta: &TuckerMeta,
    nranks: usize,
    model: &dyn CostModel,
    budget: &SearchBudget,
) -> RankedPlans {
    let mut grids = candidate_grids(meta, nranks);
    // Topology-aware models add node-aligned rank-ordering variants here;
    // the DP prices them like any other candidate.
    model.augment_grids(meta, &mut grids);

    let dp_plan = JointDp::new(meta, model, &grids).run(nranks);

    // A budget of one plan means "just the winner": the DP optimum never
    // loses to a lineup heuristic (same objective, strictly larger search
    // space), so building and scoring the lineup would be pure overhead.
    if budget.max_candidates <= 1 {
        let cost = sweep_cost(model, meta, &dp_plan.tree, &dp_plan.grids);
        return RankedPlans {
            model: model.name(),
            plans: vec![ScoredPlan {
                plan: dp_plan,
                cost,
            }],
        };
    }

    // Score the heuristic lineup under the same model.
    let planner = Planner::new(meta.clone(), nranks);
    let mut candidates = vec![dp_plan];
    for (ts, gs) in [
        (TreeStrategy::Optimal, GridStrategy::Dynamic),
        (TreeStrategy::Optimal, GridStrategy::StaticOptimal),
        (TreeStrategy::chain_k(), GridStrategy::StaticOptimal),
        (TreeStrategy::chain_h(), GridStrategy::StaticOptimal),
        (TreeStrategy::Balanced, GridStrategy::StaticOptimal),
        (TreeStrategy::GreedyReuse, GridStrategy::StaticOptimal),
    ] {
        candidates.push(planner.plan(ts, gs));
    }

    let mut plans: Vec<ScoredPlan> = candidates
        .into_iter()
        .map(|plan| {
            let cost = sweep_cost(model, meta, &plan.tree, &plan.grids);
            ScoredPlan { plan, cost }
        })
        .collect();
    // Stable sort: ties keep construction order (DP winner first).
    plans.sort_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap());
    plans.truncate(budget.max_candidates.max(1));
    RankedPlans {
        model: model.name(),
        plans,
    }
}

/// How a DP state's optimum is achieved.
#[derive(Clone, Copy, Debug, PartialEq)]
enum JChoice {
    Unset,
    /// Base case: the single remaining leaf.
    Leaf,
    /// One shared TTM along `mode`, optionally after a regrid to the grid
    /// index in `regrid_to`. The narrow fields keep the per-state table,
    /// `|states| · |grids|` of these, at 12 bytes an entry: the DP's
    /// largest allocation after the regrid price memo.
    Reuse {
        mode: u8,
        regrid_to: Option<u32>,
    },
    /// Split `Q`; payload is the `Q₁` submask.
    Split(u32),
}

struct JointDp<'a> {
    meta: &'a TuckerMeta,
    model: &'a dyn CostModel,
    grids: &'a [Grid],
    n: usize,
    full: u32,
    pow3: Vec<usize>,
    ng: usize,
    cost: Vec<f64>,
    choice: Vec<JChoice>,
    /// Per `(state, mode)`: the continuation vector
    /// `tail[g'] = ttm(P, m, g') + solve(P ∪ {m}, Q, g')`, shared by the
    /// keep-grid transition (`tail[g]`) and every regrid transition
    /// (`regrid(P, g, g') + tail[g']`).
    tails: Vec<Option<Vec<f64>>>,
    /// Memoized source-dependent regrid prices: per premult mask a dense
    /// row-major `ng × ng` table `[from · ng + to]`, NaN = not priced yet.
    /// The table is symmetric ([`CostModel::regrid_cost`]'s contract): one
    /// pricing fills `[from · ng + to]` and `[to · ng + from]`.
    /// A table is allocated when a state with its mask first scans regrid
    /// targets, so the footprint is `8 · ng²` bytes per mask that actually
    /// reuses a mode (at most `2^N − 1` of them), never `2^N · ng²` up front.
    regrid_prices: Vec<Option<Box<[f64]>>>,
    /// The model's regrid pricer for `grids`, prepared once per search
    /// ([`CostModel::regrid_pricer`]); every memo miss above prices
    /// through it.
    regrid: RegridPricer<'a>,
    /// Per `(premult, mode)` slot `premult · n + mode`: the TTM price under
    /// every candidate grid, filled the first time a tail needs it and
    /// shared by every `Q` with that premult.
    ttm_prices: Vec<Option<Box<[f64]>>>,
}

impl<'a> JointDp<'a> {
    fn new(meta: &'a TuckerMeta, model: &'a dyn CostModel, grids: &'a [Grid]) -> Self {
        let n = meta.order();
        assert!(n <= 16, "mode count {n} too large for the joint DP");
        let mut pow3 = vec![1usize; n + 1];
        for i in 1..=n {
            pow3[i] = pow3[i - 1] * 3;
        }
        let states = pow3[n];
        let ng = grids.len();
        assert!(
            u32::try_from(ng).is_ok(),
            "{ng} grids overflow a grid index"
        );
        JointDp {
            meta,
            model,
            grids,
            n,
            full: (1u32 << n) - 1,
            pow3,
            ng,
            cost: vec![f64::NAN; states * ng],
            choice: vec![JChoice::Unset; states * ng],
            tails: vec![None; states * n],
            regrid_prices: vec![None; 1 << n],
            regrid: model.regrid_pricer(meta, grids),
            ttm_prices: vec![None; (1 << n) * n],
        }
    }

    fn index3(&self, p: u32, q: u32) -> usize {
        let mut idx = 0;
        for m in 0..self.n {
            let digit = if p & (1 << m) != 0 {
                2
            } else if q & (1 << m) != 0 {
                1
            } else {
                0
            };
            idx += digit * self.pow3[m];
        }
        idx
    }

    fn solve(&mut self, p: u32, q: u32, gi: usize) -> f64 {
        debug_assert_eq!(p & q, 0, "P and Q must be disjoint");
        debug_assert!(q != 0, "Q must be non-empty");
        let state = self.index3(p, q);
        let idx = state * self.ng + gi;
        if !self.cost[idx].is_nan() {
            return self.cost[idx];
        }

        let r = self.full & !(p | q);
        if q.count_ones() == 1 && r == 0 {
            let mode = q.trailing_zeros() as usize;
            let c = self.model.leaf_cost(self.meta, p, mode, &self.grids[gi]);
            self.cost[idx] = c;
            self.choice[idx] = JChoice::Leaf;
            return c;
        }

        let mut best = f64::INFINITY;
        let mut best_choice = JChoice::Unset;

        // Reuse a mode of R, with or without a regrid first. Keeping the
        // grid is evaluated first so ties never pay a pointless regrid.
        let ng = self.ng;
        let mut rm = r;
        while rm != 0 {
            let m = rm.trailing_zeros() as usize;
            rm &= rm - 1;
            // The scan below runs on the tail vector and this mask's price
            // table moved out of `self` (pricing never re-enters `solve`),
            // so the loop body is two slice reads and, on a memo miss, one
            // model evaluation.
            let key = state * self.n + m;
            self.ensure_tail(key, p, q, m);
            let tail = self.tails[key].take().expect("tail computed");
            let mut prices = self.regrid_prices[p as usize]
                .take()
                .unwrap_or_else(|| vec![f64::NAN; ng * ng].into_boxed_slice());
            if tail[gi] < best {
                best = tail[gi];
                best_choice = JChoice::Reuse {
                    mode: m as u8,
                    regrid_to: None,
                };
            }
            for tgt in 0..ng {
                // Exact bound: regrid prices are ≥ 0 and the update below
                // is a strict `<`, so a target whose continuation alone
                // does not beat `best` cannot win — skip it unpriced.
                if tgt == gi || tail[tgt] >= best {
                    continue;
                }
                let mut price = prices[gi * ng + tgt];
                if price.is_nan() {
                    // Regrid prices are symmetric in the two grids: one
                    // pricing fills the pair's entry in both directions.
                    price = (self.regrid)(p, gi, tgt);
                    debug_assert!(price >= 0.0, "regrid prices must be non-negative");
                    prices[gi * ng + tgt] = price;
                    prices[tgt * ng + gi] = price;
                }
                let re = price + tail[tgt];
                if re < best {
                    best = re;
                    best_choice = JChoice::Reuse {
                        mode: m as u8,
                        regrid_to: Some(tgt as u32),
                    };
                }
            }
            self.tails[key] = Some(tail);
            self.regrid_prices[p as usize] = Some(prices);
        }

        // Split Q into two non-empty halves (free; fixing Q's lowest bit in
        // Q₁ enumerates each unordered partition once).
        if q.count_ones() >= 2 {
            let low = q & q.wrapping_neg();
            let rest = q & !low;
            let mut s = rest;
            loop {
                let q1 = low | s;
                if q1 != q {
                    let q2 = q & !q1;
                    let c = self.solve(p, q1, gi) + self.solve(p, q2, gi);
                    if c < best {
                        best = c;
                        best_choice = JChoice::Split(q1);
                    }
                }
                if s == 0 {
                    break;
                }
                s = (s - 1) & rest;
            }
        }

        assert!(
            best.is_finite(),
            "state (P={p:b}, Q={q:b}, g={gi}) has no feasible move"
        );
        self.cost[idx] = best;
        self.choice[idx] = best_choice;
        best
    }

    /// Compute (once) the continuation vector for reusing `m` at `(p, q)`
    /// into slot `key = index3(p, q) · n + m`:
    /// `tail[g'] = ttm(P, m, g') + solve(P ∪ {m}, Q, g')`, memoized per
    /// `(state, mode)` and shared by every current grid's transitions. The
    /// `ttm` prices themselves depend on the premult alone: they are priced
    /// once per `(P, m)` and reused for every `Q`.
    fn ensure_tail(&mut self, key: usize, p: u32, q: u32, m: usize) {
        if self.tails[key].is_some() {
            return;
        }
        let slot = p as usize * self.n + m;
        let prices = self.ttm_prices[slot].take().unwrap_or_else(|| {
            (0..self.ng)
                .map(|gi| self.model.ttm_cost(self.meta, p, m, &self.grids[gi]))
                .collect()
        });
        let tail = (0..self.ng)
            .map(|gi| prices[gi] + self.solve(p | (1 << m), q, gi))
            .collect();
        self.ttm_prices[slot] = Some(prices);
        self.tails[key] = Some(tail);
    }

    fn run(mut self, nranks: usize) -> Plan {
        let full = self.full;
        // The tree-search value `solve(0, full, g)` is invariant under
        // permuting processor counts within a symmetry class (the tree and
        // every node grid can be relabeled along; all per-node prices are
        // class-equivariant), so it is computed once per orbit — on the
        // canonical representative — instead of once per mirror image.
        // The core-chain price is NOT invariant (the chain multiplies tied
        // modes in index order on the *initial* grid), so every grid is
        // still scored with its own `chain_cost`.
        let rep = self.orbit_representatives();
        let overhead = self.model.sweep_overhead(self.meta, nranks);
        let mut best = f64::INFINITY;
        let mut best_gi = 0usize;
        for (gi, g) in self.grids.iter().enumerate() {
            let total =
                self.solve(0, full, rep[gi]) + self.model.chain_cost(self.meta, g) + overhead;
            if total < best {
                best = total;
                best_gi = gi;
            }
        }
        assert!(best.is_finite(), "joint DP found no feasible plan");

        // Reconstruct from the winner's representative, then relabel the
        // plan's modes so the initial grid is the winner itself.
        let rep_gi = rep[best_gi];
        let mut out = BuildOut {
            tree: TtmTree::new(self.n),
            node_gi: vec![rep_gi],
            regrid: vec![false],
        };
        let root = out.tree.root();
        self.build(&mut out, root, 0, full, rep_gi);
        let BuildOut {
            tree,
            node_gi,
            regrid,
        } = out;
        let node_grids: Vec<Grid> = node_gi.iter().map(|&gi| self.grids[gi].clone()).collect();
        let (tree, node_grids) = relabel_for_initial(
            self.meta,
            tree,
            node_grids,
            &self.grids[rep_gi],
            &self.grids[best_gi],
        );
        debug_assert!(tree.validate().is_ok(), "joint DP produced an invalid tree");

        let mut scheme = DynGridScheme {
            initial: self.grids[best_gi].clone(),
            node_grids,
            regrid,
            volume: f64::NAN,
        };
        scheme.volume = scheme_volume(&tree, self.meta, &scheme);
        debug_assert!(
            {
                let recomputed = sweep_cost(self.model, self.meta, &tree, &scheme);
                (recomputed - best).abs() <= best.abs().max(1.0) * 1e-9
            },
            "reconstructed plan cost disagrees with the DP value"
        );
        let flops = crate::plan::cost::tree_flops(&tree, self.meta);
        let volume = scheme.volume;
        Plan {
            meta: self.meta.clone(),
            nranks,
            tree,
            grids: scheme,
            flops,
            volume,
            labels: ("dp", "joint"),
        }
    }

    /// Map every grid index to the index of its orbit's canonical
    /// representative ([`crate::plan::grid::canonical_symmetric_dims`]).
    fn orbit_representatives(&self) -> Vec<usize> {
        // Models whose prices see the rank mapping (hierarchical networks)
        // are not class-equivariant: every grid is its own representative.
        if !self.model.grid_symmetry_invariant() {
            return (0..self.ng).collect();
        }
        let classes = crate::plan::grid::mode_symmetry_classes(self.meta);
        if classes.is_empty() {
            return (0..self.ng).collect();
        }
        let by_dims: std::collections::HashMap<Vec<usize>, usize> = self
            .grids
            .iter()
            .enumerate()
            .map(|(i, g)| (g.dims().to_vec(), i))
            .collect();
        self.grids
            .iter()
            .enumerate()
            .map(|(gi, g)| {
                let dims = crate::plan::grid::canonical_symmetric_dims(g, &classes);
                *by_dims.get(&dims).unwrap_or(&gi)
            })
            .collect()
    }

    fn build(&self, out: &mut BuildOut, attach: usize, p: u32, q: u32, gi: usize) {
        let idx = self.index3(p, q) * self.ng + gi;
        match self.choice[idx] {
            JChoice::Unset => unreachable!("state not solved"),
            JChoice::Leaf => {
                let m = q.trailing_zeros() as usize;
                out.tree.add_child(attach, NodeLabel::Leaf(m));
                out.node_gi.push(gi);
                out.regrid.push(false);
            }
            JChoice::Reuse { mode, regrid_to } => {
                let (mode, gnew) = (mode as usize, regrid_to.map_or(gi, |t| t as usize));
                let u = out.tree.add_child(attach, NodeLabel::Ttm(mode));
                out.node_gi.push(gnew);
                out.regrid.push(regrid_to.is_some());
                self.build(out, u, p | (1 << mode), q, gnew);
            }
            JChoice::Split(q1) => {
                self.build(out, attach, p, q1, gi);
                self.build(out, attach, p, q & !q1, gi);
            }
        }
    }
}

/// The reconstruction accumulator of [`JointDp::build`]: the growing tree
/// plus its per-node grid indices and regrid flags (kept in push-order
/// lockstep with `TtmTree::add_child` ids).
struct BuildOut {
    tree: TtmTree,
    node_gi: Vec<usize>,
    regrid: Vec<bool>,
}

/// Relabel a plan built for the initial grid `from` into the equal-cost
/// plan for its orbit sibling `to`: apply the symmetry-class mode
/// permutation `π` with `to[π(m)] = from[m]` to every tree label and every
/// node grid. Identity when `from == to`.
fn relabel_for_initial(
    meta: &TuckerMeta,
    tree: TtmTree,
    node_grids: Vec<Grid>,
    from: &Grid,
    to: &Grid,
) -> (TtmTree, Vec<Grid>) {
    if from == to {
        return (tree, node_grids);
    }
    // π: identity outside symmetry classes; within a class, match each
    // mode's `from` count to a distinct mode of `to` with the same count.
    let order = meta.order();
    let mut pi: Vec<usize> = (0..order).collect();
    for class in crate::plan::grid::mode_symmetry_classes(meta) {
        let mut used = vec![false; class.len()];
        for &m in &class {
            let v = from.dim(m);
            let (slot, &target) = class
                .iter()
                .enumerate()
                .find(|&(i, &mm)| !used[i] && to.dim(mm) == v)
                .expect("orbit siblings share the per-class count multiset");
            used[slot] = true;
            pi[m] = target;
        }
    }

    // Rebuild the arena id-for-id (parents precede children) with mapped
    // mode labels, and permute every grid's per-mode counts by π.
    let mut relabeled = TtmTree::new(order);
    for id in 1..tree.len() {
        let node = tree.node(id);
        let label = match node.label {
            NodeLabel::Root => unreachable!("only node 0 is the root"),
            NodeLabel::Ttm(m) => NodeLabel::Ttm(pi[m]),
            NodeLabel::Leaf(m) => NodeLabel::Leaf(pi[m]),
        };
        let new_id = relabeled.add_child(node.parent.expect("non-root"), label);
        debug_assert_eq!(new_id, id);
    }
    let grids = node_grids
        .into_iter()
        .map(|g| {
            let mut dims = vec![0usize; order];
            for m in 0..order {
                dims[pi[m]] = g.dim(m);
            }
            Grid::new(dims)
        })
        .collect();
    (relabeled, grids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::cost::{FlopVolumeModel, NetCostModel};
    use tucker_distsim::NetModel;

    fn meta() -> TuckerMeta {
        TuckerMeta::new([40, 100, 20, 50], [8, 20, 4, 10])
    }

    #[test]
    fn ranked_plans_are_sorted_and_start_with_the_winner() {
        let ranked = optimize(&meta(), 16, &FlopVolumeModel, &SearchBudget::default());
        assert!(!ranked.plans.is_empty());
        for w in ranked.plans.windows(2) {
            assert!(w[0].cost <= w[1].cost + 1e-9);
        }
        assert_eq!(ranked.model, "flops+vol");
        // The DP winner is never beaten by a lineup heuristic.
        assert_eq!(ranked.best().cost, ranked.plans[0].cost);
    }

    #[test]
    fn dp_winner_never_loses_to_the_lineup_under_both_models() {
        let meta = meta();
        for p in [4usize, 16] {
            let net = NetCostModel::new(NetModel::bgq(), p);
            let models: [&dyn CostModel; 2] = [&FlopVolumeModel, &net];
            for model in models {
                let ranked = optimize(&meta, p, model, &SearchBudget::default());
                let planner = Planner::new(meta.clone(), p);
                for other in planner.paper_lineup() {
                    let c = sweep_cost(model, &meta, &other.tree, &other.grids);
                    assert!(
                        ranked.best().cost <= c * (1.0 + 1e-9),
                        "{} beat the DP under {}: {} vs {}",
                        other.name(),
                        model.name(),
                        c,
                        ranked.best().cost
                    );
                }
            }
        }
    }

    #[test]
    fn dp_plan_is_well_formed() {
        let meta = meta();
        let ranked = optimize(&meta, 16, &FlopVolumeModel, &SearchBudget::default());
        let plan = &ranked.best().plan;
        assert!(plan.tree.validate().is_ok());
        assert_eq!(plan.grids.node_grids.len(), plan.tree.len());
        for id in plan.tree.internal_nodes() {
            let parent = plan.tree.node(id).parent.unwrap();
            if !plan.grids.regrid[id] {
                assert_eq!(plan.grids.node_grids[id], plan.grids.node_grids[parent]);
            } else {
                assert_ne!(
                    plan.grids.node_grids[id], plan.grids.node_grids[parent],
                    "regrid onto the same grid is a pointless charge"
                );
            }
            assert!(plan.grids.node_grids[id].is_valid_for(meta.core().dims()));
        }
    }

    #[test]
    fn flop_volume_dp_matches_per_axis_pipeline_on_classic_meta() {
        // Under the classic model the joint DP may only *improve* on the
        // two-stage pipeline (optimal tree for FLOPs, then optimal dynamic
        // grids for that tree).
        let meta = meta();
        let planner = Planner::new(meta.clone(), 16);
        let pipeline = planner.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
        let pipeline_cost = sweep_cost(&FlopVolumeModel, &meta, &pipeline.tree, &pipeline.grids);
        let ranked = optimize(&meta, 16, &FlopVolumeModel, &SearchBudget::default());
        assert!(ranked.best().cost <= pipeline_cost * (1.0 + 1e-12));
    }

    #[test]
    fn budget_caps_candidates() {
        let budget = SearchBudget { max_candidates: 2 };
        let ranked = optimize(&meta(), 16, &FlopVolumeModel, &budget);
        assert_eq!(ranked.plans.len(), 2);
    }

    #[test]
    fn symmetric_meta_with_uneven_class_split_is_still_optimal() {
        // Regression: on a fully symmetric meta at P=16 the optimum uses an
        // uneven split across the class (an orbit like {<4,2,2>, <2,4,2>,
        // <2,2,4>}). The core chain multiplies tied modes in index order,
        // so orbit members do NOT share a chain price: scoring only the
        // canonical representative <4,2,2> returns a ~2% suboptimal plan
        // under the net model. The orbit-representative scheme (shared tree
        // search, per-grid chain price, relabeled reconstruction) must
        // match the exhaustive oracle instead.
        // Net model only: FlopVolumeModel prices the chain at zero, so its
        // orbit members genuinely are equal-cost (covered by the generic
        // certification tests); the asymmetry only bites here.
        let meta = TuckerMeta::new([40, 40, 40], [4, 4, 4]);
        let p = 16usize;
        let grids = candidate_grids(&meta, p);
        let net = NetCostModel::new(tucker_distsim::NetModel::bgq(), p);
        let models: [&dyn CostModel; 1] = [&net];
        for model in models {
            let ranked = optimize(&meta, p, model, &SearchBudget::default());
            let mut oracle = f64::INFINITY;
            for tree in crate::plan::brute_force::enumerate_all_trees(&meta) {
                oracle = oracle.min(crate::plan::brute_force::min_sweep_cost(
                    &tree, &meta, &grids, model,
                ));
            }
            assert!(
                (ranked.best().cost - oracle).abs() <= oracle * 1e-9,
                "{}: DP {} vs oracle {oracle}",
                model.name(),
                ranked.best().cost
            );
            // The relabeled winner must be internally consistent.
            let plan = &ranked.best().plan;
            assert!(plan.tree.validate().is_ok());
            let recomputed = sweep_cost(model, &meta, &plan.tree, &plan.grids);
            assert!((recomputed - ranked.best().cost).abs() <= oracle * 1e-9);
        }
    }

    #[test]
    fn hierarchical_dp_matches_brute_force_over_augmented_grids() {
        // Under a hierarchical model the orbit dedup is off and the grid set
        // gains node-aligned variants; the DP must still equal the
        // exhaustive oracle over exactly that augmented set.
        let meta = TuckerMeta::new([40, 20, 10], [4, 2, 2]);
        let p = 8usize;
        let net = NetCostModel::new(
            NetModel::hierarchical(
                std::time::Duration::from_nanos(500),
                12.0e9,
                std::time::Duration::from_nanos(5_000),
                1.2e9,
                4,
            ),
            p,
        );
        assert!(!net.grid_symmetry_invariant());
        let mut grids = candidate_grids(&meta, p);
        let before = grids.len();
        net.augment_grids(&meta, &mut grids);
        assert!(grids.len() > before, "variants must be added");
        let ranked = optimize(&meta, p, &net, &SearchBudget::default());
        let mut oracle = f64::INFINITY;
        for tree in crate::plan::brute_force::enumerate_all_trees(&meta) {
            oracle = oracle.min(crate::plan::brute_force::min_sweep_cost(
                &tree, &meta, &grids, &net,
            ));
        }
        assert!(
            (ranked.best().cost - oracle).abs() <= oracle * 1e-9,
            "DP {} vs oracle {oracle}",
            ranked.best().cost
        );
        let plan = &ranked.best().plan;
        assert!(plan.tree.validate().is_ok());
        let recomputed = sweep_cost(&net, &meta, &plan.tree, &plan.grids);
        assert!((recomputed - ranked.best().cost).abs() <= oracle * 1e-9);
    }

    #[test]
    fn topology_aware_dp_never_loses_to_the_flat_model_plan() {
        // The flat-model winner is a feasible candidate of the hierarchical
        // search (same geometric grid set), so pricing both under the
        // hierarchical model must favor the topology-aware DP.
        let meta = meta();
        for p in [16usize, 64] {
            let hier = NetModel::cluster();
            let hier_model = NetCostModel::new(hier, p);
            let flat_model = NetCostModel::new(hier.flattened(), p);
            let topo = optimize(&meta, p, &hier_model, &SearchBudget::winner_only());
            let flat = optimize(&meta, p, &flat_model, &SearchBudget::winner_only());
            let flat_under_hier = sweep_cost(
                &hier_model,
                &meta,
                &flat.best().plan.tree,
                &flat.best().plan.grids,
            );
            assert!(
                topo.best().cost <= flat_under_hier * (1.0 + 1e-9),
                "p={p}: topo {} vs flat-plan-under-hier {flat_under_hier}",
                topo.best().cost
            );
        }
    }

    /// Forwards the prices and grid hooks the DP's states use to `inner`,
    /// and records each regrid pricing of the prepared pricer as
    /// `(premult, from, to)`. The search proper must not call
    /// `regrid_cost` itself.
    struct CountingModel<'a> {
        inner: &'a dyn CostModel,
        priced: std::cell::RefCell<Vec<(u32, Grid, Grid)>>,
    }

    impl CostModel for CountingModel<'_> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn ttm_cost(&self, meta: &TuckerMeta, premult: u32, n: usize, g: &Grid) -> f64 {
            self.inner.ttm_cost(meta, premult, n, g)
        }
        fn regrid_cost(&self, _: &TuckerMeta, _: u32, _: &Grid, _: &Grid) -> f64 {
            panic!("the search prices regrids through its prepared pricer")
        }
        fn regrid_pricer<'s>(
            &'s self,
            meta: &'s TuckerMeta,
            grids: &'s [Grid],
        ) -> RegridPricer<'s> {
            let inner = self.inner.regrid_pricer(meta, grids);
            Box::new(move |premult, a, b| {
                let (from, to) = (grids[a].clone(), grids[b].clone());
                self.priced.borrow_mut().push((premult, from, to));
                inner(premult, a, b)
            })
        }
        fn leaf_cost(&self, meta: &TuckerMeta, premult: u32, n: usize, g: &Grid) -> f64 {
            self.inner.leaf_cost(meta, premult, n, g)
        }
        fn grid_symmetry_invariant(&self) -> bool {
            self.inner.grid_symmetry_invariant()
        }
        fn augment_grids(&self, meta: &TuckerMeta, grids: &mut Vec<Grid>) {
            self.inner.augment_grids(meta, grids)
        }
    }

    #[test]
    fn the_dp_prices_each_unordered_grid_pair_once() {
        // The search proper — every root state `run` solves, before the
        // winner is reconstructed and re-scored by `sweep_cost` — never
        // prices a `(mask, {a, b})` pair twice, in either direction, on the
        // path production runs: the pricer it prepared (the flat table, and
        // the hierarchical and classic models' `regrid_cost` forwards).
        let meta = meta();
        let p = 16;
        let bgq = NetCostModel::new(NetModel::bgq(), p);
        let cluster = NetCostModel::new(NetModel::cluster(), p);
        let models: [&dyn CostModel; 3] = [&FlopVolumeModel, &bgq, &cluster];
        for inner in models {
            let model = CountingModel {
                inner,
                priced: Default::default(),
            };
            let mut grids = candidate_grids(&meta, p);
            model.augment_grids(&meta, &mut grids);
            let mut dp = JointDp::new(&meta, &model, &grids);
            for gi in dp.orbit_representatives() {
                dp.solve(0, dp.full, gi);
            }
            drop(dp);
            let priced = model.priced.into_inner();
            assert!(!priced.is_empty(), "{}: no regrid was priced", inner.name());
            let mut seen = std::collections::HashSet::new();
            for (mask, from, to) in priced {
                let mirror = (mask, to.clone(), from.clone());
                assert!(
                    !seen.contains(&mirror) && seen.insert((mask, from, to)),
                    "{}: priced mask {mask:b}, {{{:?}, {:?}}} twice",
                    inner.name(),
                    mirror.1,
                    mirror.2
                );
            }
        }
    }

    #[test]
    fn single_rank_plan_is_communication_free() {
        let meta = TuckerMeta::new([10, 10, 10], [2, 2, 2]);
        let ranked = optimize(&meta, 1, &FlopVolumeModel, &SearchBudget::default());
        let plan = &ranked.best().plan;
        assert_eq!(plan.volume, 0.0);
        assert_eq!(plan.grids.regrid_count(), 0);
    }
}
