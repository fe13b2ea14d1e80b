//! Exhaustive validators for the planner's dynamic programs — the
//! certification oracle of the planning layer.
//!
//! These are deliberately *independent* implementations used by tests,
//! ablation benches and the `experiments -- planner` certification:
//!
//! * [`enumerate_all_trees`] materializes every TTM-tree — including
//!   **non-binary** ones (splits into arbitrarily many parts) — and scores
//!   each with the §3.1 cost model. Comparing its minimum against
//!   [`crate::plan::tree::optimal_tree`] empirically validates both the
//!   joint DP of [`crate::plan::search`] on one rank (the §3.3 optimal tree)
//!   and Lemma 3.1 (an optimal binary tree exists).
//! * `brute_force_dynamic_volume` enumerates every grid assignment to the
//!   internal nodes of a tree and scores each with the §4.3 volume model,
//!   validating the §4.4 DP.
//! * [`min_sweep_cost`] / [`sampled_sweep_costs`] score grid assignments
//!   with an arbitrary [`CostModel`] via [`sweep_cost`] — the oracle the
//!   joint grid × tree × order DP of [`crate::plan::search`] is certified
//!   against (exhaustively when the space is small, by deterministic
//!   sampling otherwise).
//! * [`random_tree`] draws a uniform-ish random valid TTM-tree from the
//!   `(P, Q, R)` move space — candidate fodder for orders where full tree
//!   enumeration is infeasible (`N ≥ 6`).
//!
//! All of these are exponential (or sampling stand-ins for exponential
//! spaces) and only meant for small instances.

use crate::meta::TuckerMeta;
use crate::plan::cost::{sweep_cost, tree_flops, CostModel};
use crate::plan::grid::DynGridScheme;
use crate::plan::tree::{NodeLabel, TtmTree};
use tucker_distsim::Grid;

/// Enumerate every valid TTM-tree for `meta` (including non-binary ones) and
/// return them. Exponential: intended for `N ≤ 4`.
///
/// # Panics
/// Panics if `meta.order() > 5` (the enumeration would explode).
pub fn enumerate_all_trees(meta: &TuckerMeta) -> Vec<TtmTree> {
    let n = meta.order();
    assert!(n <= 5, "tree enumeration is exponential; use N <= 5");
    let full: u32 = (1 << n) - 1;
    let mut out = Vec::new();
    let mut tree = TtmTree::new(n);
    let root = tree.root();
    build_all(meta, &mut tree, root, 0, full, &mut out);
    out
}

/// Recursively extend `tree` at `attach` for the state `(p, q)`; every
/// completion is pushed into `out`.
fn build_all(
    meta: &TuckerMeta,
    tree: &mut TtmTree,
    attach: usize,
    p: u32,
    q: u32,
    out: &mut Vec<TtmTree>,
) {
    let n = meta.order();
    let full: u32 = (1 << n) - 1;
    let r = full & !(p | q);

    if q.count_ones() == 1 && r == 0 {
        // Base: attach the leaf, snapshot the tree if it is complete.
        let m = q.trailing_zeros() as usize;
        let node_count = tree.len();
        tree.add_child(attach, NodeLabel::Leaf(m));
        maybe_emit(tree, out);
        truncate(tree, node_count);
        return;
    }

    // Reuse any mode of R.
    let mut rm = r;
    while rm != 0 {
        let m = rm.trailing_zeros() as usize;
        rm &= rm - 1;
        let node_count = tree.len();
        let u = tree.add_child(attach, NodeLabel::Ttm(m));
        build_all(meta, tree, u, p | (1 << m), q, out);
        truncate(tree, node_count);
    }

    // Split Q into any partition with >= 2 parts. We enumerate by splitting
    // off the part containing Q's lowest bit, then recursively treating the
    // rest as one-or-more further parts; this covers every partition exactly
    // once when combined with the "rest splits again or not" recursion.
    if q.count_ones() >= 2 {
        let low = q & q.wrapping_neg();
        let rest = q & !low;
        let mut s = rest;
        loop {
            // First part = low | s, remainder = q \ (low | s) nonempty.
            let q1 = low | s;
            if q1 != q {
                let q2 = q & !q1;
                // Both parts hang off the same attach point: recursing on q1
                // then q2 at `attach` yields the multi-child (possibly
                // non-binary, via repeated splitting) structures.
                cartesian_split(meta, tree, attach, p, q1, q2, out);
            }
            if s == 0 {
                break;
            }
            s = (s - 1) & rest;
        }
    }
}

/// For a split `(q1, q2)` at `attach`: enumerate all subtrees for `q1`, and
/// for each, all subtrees for `q2`.
fn cartesian_split(
    meta: &TuckerMeta,
    tree: &mut TtmTree,
    attach: usize,
    p: u32,
    q1: u32,
    q2: u32,
    out: &mut Vec<TtmTree>,
) {
    // Enumerate q1's alternatives on clones; each completion of q1's part is
    // then extended with every alternative for q2 at the same attach point.
    let mut q1_variants: Vec<TtmTree> = Vec::new();
    enumerate_into(meta, tree.clone(), attach, p, q1, &mut q1_variants);
    for v in q1_variants {
        let mut extended = Vec::new();
        enumerate_into(meta, v, attach, p, q2, &mut extended);
        for t in extended {
            maybe_emit_owned(t, out);
        }
    }
}

/// Enumerate all ways to complete `(p, q)` under `attach` on an owned tree;
/// push every completion (complete or not overall) into `out`.
fn enumerate_into(
    meta: &TuckerMeta,
    tree: TtmTree,
    attach: usize,
    p: u32,
    q: u32,
    out: &mut Vec<TtmTree>,
) {
    let n = meta.order();
    let full: u32 = (1 << n) - 1;
    let r = full & !(p | q);

    if q.count_ones() == 1 && r == 0 {
        let m = q.trailing_zeros() as usize;
        let mut t = tree;
        t.add_child(attach, NodeLabel::Leaf(m));
        out.push(t);
        return;
    }

    let mut rm = r;
    while rm != 0 {
        let m = rm.trailing_zeros() as usize;
        rm &= rm - 1;
        let mut t = tree.clone();
        let u = t.add_child(attach, NodeLabel::Ttm(m));
        enumerate_into(meta, t, u, p | (1 << m), q, out);
    }

    if q.count_ones() >= 2 {
        let low = q & q.wrapping_neg();
        let rest = q & !low;
        let mut s = rest;
        loop {
            let q1 = low | s;
            if q1 != q {
                let q2 = q & !q1;
                let mut firsts = Vec::new();
                enumerate_into(meta, tree.clone(), attach, p, q1, &mut firsts);
                for f in firsts {
                    enumerate_into(meta, f, attach, p, q2, out);
                }
            }
            if s == 0 {
                break;
            }
            s = (s - 1) & rest;
        }
    }
}

fn maybe_emit(tree: &TtmTree, out: &mut Vec<TtmTree>) {
    if tree.validate().is_ok() {
        out.push(tree.clone());
    }
}

fn maybe_emit_owned(tree: TtmTree, out: &mut Vec<TtmTree>) {
    if tree.validate().is_ok() {
        out.push(tree);
    }
}

/// Remove nodes added after `node_count` (stack-discipline undo).
fn truncate(tree: &mut TtmTree, node_count: usize) {
    tree.truncate_nodes(node_count);
}

/// Minimum cost over every enumerated tree.
pub fn exhaustive_optimal_flops(meta: &TuckerMeta) -> f64 {
    enumerate_all_trees(meta)
        .iter()
        .map(|t| tree_flops(t, meta))
        .fold(f64::INFINITY, f64::min)
}

/// Enumerate **every** grid assignment of `tree` over `grids` — each
/// internal node's grid runs through an odometer, crossed with every
/// initial grid — and hand each materialized scheme to `score`. The one
/// enumeration loop behind both brute-force oracles.
///
/// # Panics
/// Panics if the search space exceeds `space_cap` assignments.
fn for_each_assignment(
    tree: &TtmTree,
    grids: &[Grid],
    space_cap: f64,
    mut score: impl FnMut(&DynGridScheme),
) {
    let internal = tree.internal_nodes();
    let space = (grids.len() as f64).powi(internal.len() as i32 + 1);
    assert!(space <= space_cap, "brute-force space too large: {space}");

    // Assignment vector: index into `grids` per internal node + the root.
    let mut assign = vec![0usize; internal.len()];
    loop {
        // Try every initial grid with this internal assignment.
        for init in grids {
            score(&materialize_scheme(tree, grids, &internal, &assign, init));
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == assign.len() {
                return;
            }
            assign[i] += 1;
            if assign[i] < grids.len() {
                break;
            }
            assign[i] = 0;
            i += 1;
        }
    }
}

/// Brute-force the optimal dynamic-grid volume for `tree`: every assignment
/// of a candidate grid to every internal node (regrid wherever the grid
/// differs from the parent's), scored by [`scheme_volume`](crate::plan::grid::scheme_volume).
///
/// # Panics
/// Panics if the search space exceeds ~10⁷ assignments.
#[cfg(test)]
pub(crate) fn brute_force_dynamic_volume(tree: &TtmTree, meta: &TuckerMeta, nranks: usize) -> f64 {
    let grids = tucker_distsim::enumerate_valid_grids(nranks, meta.core().dims());
    let mut best = f64::INFINITY;
    for_each_assignment(tree, &grids, 1e7, |scheme| {
        best = best.min(crate::plan::grid::scheme_volume(tree, meta, scheme));
    });
    best
}

/// Materialize the [`DynGridScheme`] of one brute-force assignment: grid
/// index per internal node plus an initial grid (regrid flags wherever the
/// grid differs from the parent's; the `volume` field is left `NaN`).
pub(crate) fn materialize_scheme(
    tree: &TtmTree,
    grids: &[Grid],
    internal: &[usize],
    assign: &[usize],
    init: &Grid,
) -> DynGridScheme {
    let mut node_grids: Vec<Grid> = vec![init.clone(); tree.len()];
    let mut regrid = vec![false; tree.len()];
    let pos: std::collections::HashMap<usize, usize> = internal
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();
    // Assign in topological order so parents resolve first.
    for id in tree.topological_order() {
        if let Some(&i) = pos.get(&id) {
            node_grids[id] = grids[assign[i]].clone();
            let parent = tree.node(id).parent.expect("internal node has parent");
            regrid[id] = node_grids[id] != node_grids[parent];
        } else if let Some(parent) = tree.node(id).parent {
            // Leaves inherit.
            if matches!(tree.node(id).label, NodeLabel::Leaf(_)) {
                node_grids[id] = node_grids[parent].clone();
            }
        }
    }
    DynGridScheme {
        initial: init.clone(),
        node_grids,
        regrid,
        volume: f64::NAN,
    }
}

/// Exhaustively score every grid assignment of `tree` over `grids` with
/// `model` and return the minimum [`sweep_cost`] — the per-tree oracle for
/// the joint DP.
///
/// # Panics
/// Panics if the search space exceeds ~10⁶ assignments (use
/// [`sampled_sweep_costs`] beyond that).
pub fn min_sweep_cost(
    tree: &TtmTree,
    meta: &TuckerMeta,
    grids: &[Grid],
    model: &dyn CostModel,
) -> f64 {
    let mut best = f64::INFINITY;
    for_each_assignment(tree, grids, 1e6, |scheme| {
        best = best.min(sweep_cost(model, meta, tree, scheme));
    });
    best
}

/// Deterministic splitmix64 step (sampling only needs decorrelation, not
/// cryptographic quality).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Score a deterministic sample of grid assignments of `tree`: every
/// all-static scheme (one per grid) plus `samples` uniformly drawn dynamic
/// assignments, seeded by `seed`. Returns the sampled [`sweep_cost`]s.
pub fn sampled_sweep_costs(
    tree: &TtmTree,
    meta: &TuckerMeta,
    grids: &[Grid],
    model: &dyn CostModel,
    samples: usize,
    seed: u64,
) -> Vec<f64> {
    let internal = tree.internal_nodes();
    let mut out = Vec::with_capacity(grids.len() + samples);
    // Static schemes: exhaustive over the (small) grid set.
    for (gi, init) in grids.iter().enumerate() {
        let assign = vec![gi; internal.len()];
        let scheme = materialize_scheme(tree, grids, &internal, &assign, init);
        out.push(sweep_cost(model, meta, tree, &scheme));
    }
    // Random dynamic assignments.
    let mut state = seed ^ 0xD00D_F00D_5EED_0001;
    for _ in 0..samples {
        let init = &grids[(splitmix(&mut state) % grids.len() as u64) as usize];
        let assign: Vec<usize> = internal
            .iter()
            .map(|_| (splitmix(&mut state) % grids.len() as u64) as usize)
            .collect();
        let scheme = materialize_scheme(tree, grids, &internal, &assign, init);
        out.push(sweep_cost(model, meta, tree, &scheme));
    }
    out
}

/// Draw a random valid TTM-tree from the `(P, Q, R)` move space: at each
/// state pick uniformly among all reuse moves and all `Q`-splits.
/// Deterministic in `seed`; used as oracle fodder for `N ≥ 6` where full
/// enumeration is infeasible.
pub fn random_tree(meta: &TuckerMeta, seed: u64) -> TtmTree {
    let n = meta.order();
    let mut tree = TtmTree::new(n);
    let root = tree.root();
    let full: u32 = (1 << n) - 1;
    let mut state = seed ^ 0x7EE5_7EE5_0000_0001;
    random_build(&mut tree, root, 0, full, full, &mut state);
    debug_assert!(tree.validate().is_ok());
    tree
}

fn random_build(tree: &mut TtmTree, attach: usize, p: u32, q: u32, full: u32, state: &mut u64) {
    let r = full & !(p | q);
    if q.count_ones() == 1 && r == 0 {
        tree.add_child(attach, NodeLabel::Leaf(q.trailing_zeros() as usize));
        return;
    }
    // Moves: one per reusable mode, plus one per unordered split of Q.
    let reuse_moves = r.count_ones() as u64;
    let split_moves = if q.count_ones() >= 2 {
        (1u64 << (q.count_ones() - 1)) - 1
    } else {
        0
    };
    let pick = splitmix(state) % (reuse_moves + split_moves);
    if pick < reuse_moves {
        // The pick-th set bit of R.
        let mut rm = r;
        for _ in 0..pick {
            rm &= rm - 1;
        }
        let m = rm.trailing_zeros() as usize;
        let u = tree.add_child(attach, NodeLabel::Ttm(m));
        random_build(tree, u, p | (1 << m), q, full, state);
    } else {
        // The (pick - reuse)-th split: Q₁ = low | submask(rest), where the
        // submask ranges over the proper subsets of `rest` (0-based; the
        // full set is excluded so Q₁ ≠ Q).
        let k = pick - reuse_moves; // 0 ..= 2^(|Q|-1) - 2
        let low = q & q.wrapping_neg();
        let rest = q & !low;
        // Spread k's bits over the set bits of `rest`.
        let mut q1 = low;
        let mut bit = 0u64;
        let mut rm = rest;
        while rm != 0 {
            let m = rm.trailing_zeros();
            rm &= rm - 1;
            if k & (1 << bit) != 0 {
                q1 |= 1 << m;
            }
            bit += 1;
        }
        debug_assert!(q1 != q && q1 != 0);
        random_build(tree, attach, p, q1, full, state);
        random_build(tree, attach, p, q & !q1, full, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::cost::FlopVolumeModel;
    use crate::plan::grid::{optimal_dynamic_grids, DynGridObjective};
    use crate::plan::schedule::{sweep_on, OpKind};
    use crate::plan::tree::{chain_tree, optimal_tree};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn dp_matches_exhaustive_enumeration_n3() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            let ls: Vec<usize> = (0..3).map(|_| [20, 50, 100][rng.gen_range(0..3)]).collect();
            let ks: Vec<usize> = ls
                .iter()
                .map(|&l| (l as f64 / [1.25, 2.0, 5.0, 10.0][rng.gen_range(0..4)]) as usize)
                .collect();
            let meta = TuckerMeta::new(ls, ks);
            let dp = optimal_tree(&meta).flops;
            let brute = exhaustive_optimal_flops(&meta);
            assert!(
                (dp - brute).abs() <= brute * 1e-12,
                "{meta}: DP {dp} vs exhaustive {brute}"
            );
        }
    }

    #[test]
    fn dp_matches_exhaustive_enumeration_n4() {
        let metas = [
            TuckerMeta::new([20, 50, 100, 20], [16, 10, 20, 2]),
            TuckerMeta::new([400, 20, 20, 400], [399, 2, 2, 40]),
            TuckerMeta::new([50, 50, 50, 50], [5, 10, 25, 40]),
        ];
        for meta in metas {
            let dp = optimal_tree(&meta).flops;
            let brute = exhaustive_optimal_flops(&meta);
            assert!(
                (dp - brute).abs() <= brute * 1e-12,
                "{meta}: DP {dp} vs exhaustive {brute}"
            );
        }
    }

    #[test]
    fn enumeration_contains_nonbinary_trees() {
        // Lemma 3.1 says binary is *sufficient*, not that all trees are
        // binary; the enumerator must produce some node with 3+ children.
        let meta = TuckerMeta::new([20, 20, 20], [2, 2, 2]);
        let trees = enumerate_all_trees(&meta);
        assert!(trees.len() > 10);
        let has_wide = trees
            .iter()
            .any(|t| (0..t.len()).any(|id| t.node(id).children.len() >= 3));
        assert!(has_wide, "expected at least one non-binary tree");
        for t in &trees {
            assert!(t.validate().is_ok());
        }
    }

    #[test]
    fn dyn_grid_dp_matches_brute_force() {
        // Small instances: N=2 chain (2 internal nodes), P=4.
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..6 {
            let ls: Vec<usize> = (0..2).map(|_| [20, 50][rng.gen_range(0..2)]).collect();
            let ks: Vec<usize> = ls
                .iter()
                .map(|&l| (l as f64 / [2.0, 5.0][rng.gen_range(0..2)]) as usize)
                .collect();
            let meta = TuckerMeta::new(ls, ks);
            let tree = chain_tree(&meta, &[0, 1]);
            let dp = optimal_dynamic_grids(&tree, &meta, 4, DynGridObjective::Exact);
            let brute = brute_force_dynamic_volume(&tree, &meta, 4);
            assert!(
                (dp.volume - brute).abs() <= brute.max(1.0) * 1e-9,
                "{meta}: DP {} vs brute {brute}",
                dp.volume
            );
        }
    }

    #[test]
    fn dyn_grid_dp_matches_brute_force_n3() {
        let meta = TuckerMeta::new([16, 16, 16], [4, 2, 4]);
        // Balanced tree on 3 modes has 4-5 internal nodes; P=4 keeps the
        // grid set tiny.
        let tree = crate::plan::tree::balanced_tree(&meta, &[0, 1, 2]);
        let dp = optimal_dynamic_grids(&tree, &meta, 4, DynGridObjective::Exact);
        let brute = brute_force_dynamic_volume(&tree, &meta, 4);
        assert!(
            (dp.volume - brute).abs() <= brute.max(1.0) * 1e-9,
            "DP {} vs brute {brute}",
            dp.volume
        );
    }

    #[test]
    fn cost_model_consistency_across_enumeration() {
        // Every enumerated tree's in/out cardinalities satisfy the local
        // recurrences (spot-check of the §3.1 bookkeeping).
        let meta = TuckerMeta::new([20, 50, 100], [4, 25, 10]);
        let g = Grid::trivial(3);
        for t in enumerate_all_trees(&meta).into_iter().take(50) {
            let mut flops = 0.0;
            for op in sweep_on(&meta, &t, &g).ops {
                if let OpKind::Ttm {
                    node: Some(_),
                    mode,
                    out,
                    ..
                } = op.kind
                {
                    let card = meta.premultiplied_cardinality(op.premult);
                    assert!((op.input - card).abs() <= card * 1e-12);
                    assert!((out - op.input * meta.h(mode)).abs() < 1e-6);
                    flops += meta.k(mode) as f64 * op.input;
                }
            }
            assert!((tree_flops(&t, &meta) - flops).abs() < 1e-6);
        }
    }

    #[test]
    fn min_sweep_cost_flop_volume_agrees_with_volume_brute_force() {
        // Under the classic model, min over assignments of sweep_cost =
        // tree flops + 16 * (min volume): the FLOP part is
        // assignment-independent.
        let meta = TuckerMeta::new([16, 16], [4, 4]);
        let tree = chain_tree(&meta, &[0, 1]);
        let grids = tucker_distsim::enumerate_valid_grids(4, meta.core().dims());
        let min_cost = min_sweep_cost(&tree, &meta, &grids, &FlopVolumeModel);
        let brute_vol = brute_force_dynamic_volume(&tree, &meta, 4);
        let expect = tree_flops(&tree, &meta) + 16.0 * brute_vol;
        assert!(
            (min_cost - expect).abs() <= expect * 1e-9,
            "min sweep cost {min_cost} vs {expect}"
        );
    }

    #[test]
    fn sampled_costs_cover_static_schemes() {
        let meta = TuckerMeta::new([16, 16], [4, 4]);
        let tree = chain_tree(&meta, &[0, 1]);
        let grids = tucker_distsim::enumerate_valid_grids(4, meta.core().dims());
        let costs = sampled_sweep_costs(&tree, &meta, &grids, &FlopVolumeModel, 10, 99);
        assert_eq!(costs.len(), grids.len() + 10);
        // Deterministic in the seed.
        let again = sampled_sweep_costs(&tree, &meta, &grids, &FlopVolumeModel, 10, 99);
        assert_eq!(costs, again);
    }

    #[test]
    fn random_trees_are_valid_and_diverse() {
        let meta = TuckerMeta::new([20; 6], [4; 6]);
        let mut ttm_counts = std::collections::HashSet::new();
        for seed in 0..40u64 {
            let t = random_tree(&meta, seed);
            assert!(t.validate().is_ok(), "seed {seed}");
            ttm_counts.insert(t.num_ttms());
        }
        assert!(
            ttm_counts.len() >= 3,
            "expected structural diversity, got {ttm_counts:?}"
        );
        // Optimal DP never loses to any random tree.
        let opt = optimal_tree(&meta).flops;
        for seed in 0..10u64 {
            let t = random_tree(&meta, seed);
            assert!(opt <= tree_flops(&t, &meta) * (1.0 + 1e-12));
        }
    }
}
