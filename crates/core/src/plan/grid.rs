//! Grid planning (paper §4): the communication volume of a scheme, optimal
//! static grids (§4.1–4.2), dynamic gridding and the optimal dynamic-grid
//! DP (§4.3–4.4), and the candidate-grid utilities shared by every search.
//!
//! Under a grid `g`, the TTM at node `u` with label `n` incurs a
//! reduce-scatter volume of `(g_n − 1) · |Out(u)|` elements
//! (`ttm_volume`); a regrid at node `u` costs `|In(u)|`
//! (`regrid_volume`). A scheme's volume sums them over the tree
//! operations of its `sweep` schedule. The optimal static grid is found
//! by exhaustive search over the *valid* grids (`q_n ≤ K_n`, Table 1); the
//! optimal dynamic scheme by a bottom-up DP over (node, parent-grid) pairs:
//!
//! ```text
//! A_u[g] = (g_n − 1)·|Out(u)| + Σ_{internal children c} dvol*(c | g)
//! dvol*(u | g_par) = min( A_u[g_par],  |In(u)| + min_g A_u[g] )
//! ```
//!
//! The paper's text (§4.4) selects the regrid target `rg*(u)` as the grid
//! minimizing only the children sum, *excluding* `u`'s own TTM term; that
//! variant is available as [`DynGridObjective::ChildrenOnly`] and compared in
//! an ablation bench. The default [`DynGridObjective::Exact`] minimizes the
//! full right-hand side (never worse).

use crate::meta::TuckerMeta;
use crate::plan::schedule::{elements, regrid_volume, sweep, sweep_on, ttm_volume, Op, OpKind};
use crate::plan::tree::{NodeLabel, TtmTree};
use tucker_distsim::{enumerate_valid_grids, Grid};

/// Communication volume (elements) of `tree` under the static grid `g`.
pub fn static_volume(tree: &TtmTree, meta: &TuckerMeta, g: &Grid) -> f64 {
    elements(&sweep_on(meta, tree, g), Op::in_tree)
}

/// Result of the optimal static grid search.
#[derive(Clone, Debug)]
pub struct StaticGridChoice {
    /// The volume-minimizing valid grid.
    pub grid: Grid,
    /// Its communication volume in elements.
    pub volume: f64,
    /// How many valid grids were scanned.
    pub candidates: usize,
}

/// Exhaustively search the valid grids for the one minimizing the tree's
/// communication volume (§4.2). Ties are broken by enumeration order, which
/// is lexicographic and therefore deterministic.
///
/// # Panics
/// Panics if no valid grid exists (i.e. `P > ∏ K_n`).
pub fn optimal_static_grid(tree: &TtmTree, meta: &TuckerMeta, nranks: usize) -> StaticGridChoice {
    let grids = candidate_grids(meta, nranks);
    let mut best: Option<(f64, &Grid)> = None;
    for g in &grids {
        let v = static_volume(tree, meta, g);
        if best.is_none_or(|(bv, _)| v < bv) {
            best = Some((v, g));
        }
    }
    let (volume, grid) = best.expect("nonempty candidate set");
    StaticGridChoice {
        grid: grid.clone(),
        volume,
        candidates: grids.len(),
    }
}

/// The valid grids for `meta` on `nranks` ranks, in deterministic
/// (lexicographic) order — the candidate set every planner search scans.
///
/// # Panics
/// Panics if no valid grid exists: `P` is not a product `∏ q_n` with every
/// `q_n ≤ K_n` (`P > ∏ K_n` is one way; P = 7 on `K = [4, 4, 4]` another).
pub fn candidate_grids(meta: &TuckerMeta, nranks: usize) -> Vec<Grid> {
    let grids = enumerate_valid_grids(nranks, meta.core().dims());
    assert!(
        !grids.is_empty(),
        "no valid grid: P = {nranks} is not a product of per-mode counts q_n <= K_n for K = {:?}",
        meta.core().dims()
    );
    grids
}

/// The partition of modes into symmetry classes: modes with identical
/// `(L_n, K_n)` are interchangeable for planning purposes (equal cost
/// factor, compression, chunking). Returned as one sorted index list per
/// class with ≥ 2 members (singleton classes carry no symmetry).
pub(crate) fn mode_symmetry_classes(meta: &TuckerMeta) -> Vec<Vec<usize>> {
    let mut classes: Vec<((usize, usize), Vec<usize>)> = Vec::new();
    for n in 0..meta.order() {
        let key = (meta.l(n), meta.k(n));
        match classes.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(n),
            None => classes.push((key, vec![n])),
        }
    }
    classes
        .into_iter()
        .filter(|(_, v)| v.len() >= 2)
        .map(|(_, v)| v)
        .collect()
}

/// The canonical arrangement of `g`'s processor counts under `classes`:
/// within each symmetry class the counts are sorted non-increasing in mode
/// order. This single definition is the orbit representative the joint
/// DP's root-loop sharing ([`crate::plan::search`]) keys on; the canonical arrangement is itself a
/// valid grid (class modes share `K`), so it always appears in
/// [`candidate_grids`]' enumeration.
pub(crate) fn canonical_symmetric_dims(g: &Grid, classes: &[Vec<usize>]) -> Vec<usize> {
    let mut dims = g.dims().to_vec();
    for class in classes {
        let mut vals: Vec<usize> = class.iter().map(|&m| g.dim(m)).collect();
        vals.sort_unstable_by(|a, b| b.cmp(a));
        for (&m, v) in class.iter().zip(vals) {
            dims[m] = v;
        }
    }
    dims
}

/// Which objective the regrid-target selection minimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DynGridObjective {
    /// Minimize TTM-at-`u` + children (the recurrence's true right-hand
    /// side). Default.
    Exact,
    /// Paper-literal §4.4: minimize only the children sum.
    ChildrenOnly,
}

/// A dynamic grid scheme for a tree.
#[derive(Clone, Debug)]
pub struct DynGridScheme {
    /// Grid of the input tensor at the root.
    pub initial: Grid,
    /// Grid `π(u)` per node id (root = `initial`; a leaf inherits its
    /// parent's grid).
    pub node_grids: Vec<Grid>,
    /// Whether node `u` regrids its input (always `false` for root/leaves).
    pub regrid: Vec<bool>,
    /// Model communication volume of the scheme, in elements.
    pub volume: f64,
}

impl DynGridScheme {
    /// A static scheme: one grid everywhere, no regrids.
    pub(crate) fn static_scheme(tree: &TtmTree, meta: &TuckerMeta, grid: Grid) -> Self {
        let volume = static_volume(tree, meta, &grid);
        DynGridScheme {
            initial: grid.clone(),
            node_grids: vec![grid; tree.len()],
            regrid: vec![false; tree.len()],
            volume,
        }
    }

    /// Number of regrid operations the scheme performs.
    pub fn regrid_count(&self) -> usize {
        self.regrid.iter().filter(|&&r| r).count()
    }
}

/// Evaluate the §4.3 volume model on an arbitrary scheme (used to verify the
/// DP and to score hand-written schemes).
///
/// # Panics
/// Panics if the scheme does not match the tree (`sweep`).
pub fn scheme_volume(tree: &TtmTree, meta: &TuckerMeta, scheme: &DynGridScheme) -> f64 {
    elements(&sweep(meta, tree, scheme), Op::in_tree)
}

/// Compute the optimal dynamic grid scheme for `tree` on `nranks` ranks.
///
/// # Panics
/// Panics if no valid grid exists (`P > ∏ K_n`).
pub fn optimal_dynamic_grids(
    tree: &TtmTree,
    meta: &TuckerMeta,
    nranks: usize,
    objective: DynGridObjective,
) -> DynGridScheme {
    let grids = candidate_grids(meta, nranks);
    let ng = grids.len();
    let len = tree.len();
    let ttm_children = |u: usize| -> Vec<usize> {
        let children = tree.node(u).children.iter().copied();
        children
            .filter(|&c| matches!(tree.node(c).label, NodeLabel::Ttm(_)))
            .collect()
    };

    // Per internal node: A_u[g] and dvol*(u | g), plus the chosen regrid
    // target and its cost.
    let mut a: Vec<Vec<f64>> = vec![Vec::new(); len];
    let mut dvol: Vec<Vec<f64>> = vec![Vec::new(); len];
    let mut regrid_target: Vec<usize> = vec![usize::MAX; len];
    let mut regrid_cost: Vec<f64> = vec![f64::INFINITY; len];

    // Bottom-up (children before parents): the tree's TTMs, last issued
    // first.
    for op in sweep_on(meta, tree, &grids[0]).iter().rev() {
        let OpKind::Ttm {
            node: Some(u),
            mode: n,
            out,
        } = op.kind
        else {
            continue;
        };
        let internal_children = ttm_children(u);

        let mut au = vec![0.0; ng];
        let mut children_only = vec![0.0; ng];
        for (gi, g) in grids.iter().enumerate() {
            let ttm = ttm_volume(g.dim(n), out);
            let kids: f64 = internal_children.iter().map(|&c| dvol[c][gi]).sum();
            au[gi] = ttm + kids;
            children_only[gi] = kids;
        }

        // Regrid target selection: the first grid minimizing the objective.
        let key = match objective {
            DynGridObjective::Exact => &au,
            DynGridObjective::ChildrenOnly => &children_only,
        };
        let mut target = 0;
        for gi in 1..ng {
            if key[gi] < key[target] {
                target = gi;
            }
        }
        let target_a = au[target];
        regrid_target[u] = target;
        regrid_cost[u] = regrid_volume(op.input) + target_a;

        let dv: Vec<f64> = au.iter().map(|&av| av.min(regrid_cost[u])).collect();
        a[u] = au;
        dvol[u] = dv;
    }

    // Root: choose the initial grid minimizing the sum over the root's
    // internal children (no regrid at the root, §4.4).
    let root_children = ttm_children(tree.root());
    let mut best_g = 0;
    let mut best_total = f64::INFINITY;
    for (gi, _) in grids.iter().enumerate() {
        let total: f64 = root_children.iter().map(|&c| dvol[c][gi]).sum();
        if total < best_total {
            best_total = total;
            best_g = gi;
        }
    }

    // Top-down extraction.
    let mut node_grids: Vec<usize> = vec![best_g; len];
    let mut regrid = vec![false; len];
    let mut stack: Vec<(usize, usize)> = root_children.iter().map(|&c| (c, best_g)).collect();
    while let Some((u, gpar)) = stack.pop() {
        // Regrid iff it is strictly cheaper (ties keep the parent grid, which
        // costs no redistribution).
        let (g_here, did) = if regrid_cost[u] < a[u][gpar] {
            (regrid_target[u], true)
        } else {
            (gpar, false)
        };
        node_grids[u] = g_here;
        regrid[u] = did;
        for &c in &tree.node(u).children {
            if matches!(tree.node(c).label, NodeLabel::Ttm(_)) {
                stack.push((c, g_here));
            } else {
                node_grids[c] = g_here;
            }
        }
    }

    let scheme = DynGridScheme {
        initial: grids[best_g].clone(),
        node_grids: node_grids.into_iter().map(|gi| grids[gi].clone()).collect(),
        regrid,
        volume: best_total,
    };
    debug_assert!(
        (scheme_volume(tree, meta, &scheme) - scheme.volume).abs() <= scheme.volume.max(1.0) * 1e-9,
        "extracted scheme volume disagrees with DP value"
    );
    scheme
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tree::{balanced_tree, chain_tree};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn meta3() -> TuckerMeta {
        TuckerMeta::new([40, 40, 40], [8, 8, 8])
    }

    /// The grids that are their orbit's representative
    /// ([`canonical_symmetric_dims`]): one per set of mirror images.
    fn dedup_symmetric_grids(grids: &[Grid], meta: &TuckerMeta) -> Vec<Grid> {
        let classes = mode_symmetry_classes(meta);
        let canonical = |g: &&Grid| g.dims() == canonical_symmetric_dims(g, &classes);
        grids.iter().filter(canonical).cloned().collect()
    }

    #[test]
    fn trivial_grid_is_communication_free() {
        let meta = meta3();
        let tree = chain_tree(&meta, &[0, 1, 2]);
        let g = Grid::trivial(3);
        assert_eq!(static_volume(&tree, &meta, &g), 0.0);
    }

    #[test]
    fn volume_formula_single_chain() {
        // Grid <q,1,1>: only TTMs along mode 0 communicate.
        let meta = meta3();
        let tree = chain_tree(&meta, &[0, 1, 2]);
        let g = Grid::new([4, 1, 1]);
        // The mode-0 TTMs head the chains of leaves 1 and 2, each with
        // |Out| = 40³ · 0.2.
        let expect = 2.0 * 3.0 * (40.0 * 40.0 * 40.0 * 0.2);
        assert_eq!(static_volume(&tree, &meta, &g), expect);
    }

    #[test]
    fn optimal_grid_beats_all_candidates() {
        let meta = TuckerMeta::new([40, 20, 100], [8, 4, 20]);
        let tree = chain_tree(&meta, &[0, 1, 2]);
        let choice = optimal_static_grid(&tree, &meta, 16);
        assert_eq!(choice.grid.nranks(), 16);
        assert!(choice.grid.is_valid_for(meta.core().dims()));
        for g in enumerate_valid_grids(16, meta.core().dims()) {
            assert!(choice.volume <= static_volume(&tree, &meta, &g) + 1e-9);
        }
    }

    #[test]
    fn asymmetric_meta_prefers_splitting_unused_heavy_mode() {
        // Mode 2 has a huge K (cheap to split: high q_2 allowed, and output
        // tensors along other modes shrink a lot) — the optimal grid should
        // concentrate processors where volume is cheapest.
        let meta = TuckerMeta::new([400, 400, 400], [2, 2, 256]);
        let tree = chain_tree(&meta, &[0, 1, 2]);
        let choice = optimal_static_grid(&tree, &meta, 64);
        // q_0 and q_1 are capped at K=2, so most processors go to mode 2.
        assert!(choice.grid.dim(2) >= 16, "grid was {}", choice.grid);
    }

    #[test]
    #[should_panic(expected = "no valid grid")]
    fn too_many_ranks_panics() {
        let meta = TuckerMeta::new([4, 4], [2, 2]);
        let tree = chain_tree(&meta, &[0, 1]);
        let _ = optimal_static_grid(&tree, &meta, 8);
    }

    #[test]
    fn symmetry_classes_group_identical_modes() {
        let meta = TuckerMeta::new([40, 20, 40, 20, 10], [8, 4, 8, 4, 2]);
        let classes = mode_symmetry_classes(&meta);
        assert_eq!(classes, vec![vec![0, 2], vec![1, 3]]);
        // No symmetry: nothing reported.
        let asym = TuckerMeta::new([40, 20], [8, 4]);
        assert!(mode_symmetry_classes(&asym).is_empty());
    }

    #[test]
    fn dedup_keeps_one_representative_per_orbit() {
        // Two identical modes: <4,1> and <1,4> are mirror images; only the
        // non-increasing one survives.
        let meta = TuckerMeta::new([16, 16], [4, 4]);
        let grids = enumerate_valid_grids(4, meta.core().dims());
        let deduped = dedup_symmetric_grids(&grids, &meta);
        assert!(deduped.len() < grids.len());
        assert!(deduped.iter().any(|g| g.dims() == [4, 1]));
        assert!(deduped.iter().any(|g| g.dims() == [2, 2]));
        assert!(!deduped.iter().any(|g| g.dims() == [1, 4]));
        // Every dropped grid has a surviving mirror image with the same
        // multiset of class counts.
        for g in &grids {
            let mut sorted: Vec<usize> = g.dims().to_vec();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            assert!(
                deduped.iter().any(|d| {
                    let mut ds: Vec<usize> = d.dims().to_vec();
                    ds.sort_unstable_by(|a, b| b.cmp(a));
                    ds == sorted
                }),
                "no representative for {g}"
            );
        }
    }

    #[test]
    fn dedup_is_identity_without_symmetry() {
        let meta = TuckerMeta::new([40, 20, 100], [8, 4, 20]);
        let grids = enumerate_valid_grids(16, meta.core().dims());
        assert_eq!(dedup_symmetric_grids(&grids, &meta).len(), grids.len());
    }

    #[test]
    fn dynamic_never_worse_than_optimal_static() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..40 {
            let n = rng.gen_range(2..=5);
            let ls: Vec<usize> = (0..n).map(|_| [20, 50, 100][rng.gen_range(0..3)]).collect();
            let ks: Vec<usize> = ls
                .iter()
                .map(|&l| (l as f64 / [1.25, 2.0, 5.0, 10.0][rng.gen_range(0..4)]) as usize)
                .collect();
            let meta = TuckerMeta::new(ls, ks);
            if meta.core_cardinality() < 16.0 {
                continue;
            }
            let tree = chain_tree(&meta, &(0..n).collect::<Vec<_>>());
            let stat = optimal_static_grid(&tree, &meta, 16);
            let dyn_scheme = optimal_dynamic_grids(&tree, &meta, 16, DynGridObjective::Exact);
            assert!(
                dyn_scheme.volume <= stat.volume + 1e-6,
                "{meta}: dynamic {} > static {}",
                dyn_scheme.volume,
                stat.volume
            );
        }
    }

    #[test]
    fn exact_never_worse_than_children_only() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..25 {
            let n = rng.gen_range(3..=5);
            let ls: Vec<usize> = (0..n).map(|_| [20, 50, 100][rng.gen_range(0..3)]).collect();
            let ks: Vec<usize> = ls
                .iter()
                .map(|&l| (l as f64 / [2.0, 5.0][rng.gen_range(0..2)]) as usize)
                .collect();
            let meta = TuckerMeta::new(ls, ks);
            let tree = balanced_tree(&meta, &(0..n).collect::<Vec<_>>());
            let exact = optimal_dynamic_grids(&tree, &meta, 8, DynGridObjective::Exact);
            let lit = optimal_dynamic_grids(&tree, &meta, 8, DynGridObjective::ChildrenOnly);
            assert!(exact.volume <= lit.volume + 1e-6);
        }
    }

    #[test]
    fn single_rank_scheme_is_free() {
        let meta = TuckerMeta::new([10, 10, 10], [2, 2, 2]);
        let tree = chain_tree(&meta, &[0, 1, 2]);
        let s = optimal_dynamic_grids(&tree, &meta, 1, DynGridObjective::Exact);
        assert_eq!(s.volume, 0.0);
        assert_eq!(s.regrid_count(), 0);
    }

    #[test]
    fn static_scheme_matches_static_volume() {
        let meta = TuckerMeta::new([20, 40, 20], [4, 8, 4]);
        let tree = chain_tree(&meta, &[0, 1, 2]);
        let g = Grid::new([2, 4, 1]);
        let s = DynGridScheme::static_scheme(&tree, &meta, g.clone());
        assert_eq!(s.volume, static_volume(&tree, &meta, &g));
        assert!((scheme_volume(&tree, &meta, &s) - s.volume).abs() < 1e-9);
    }

    #[test]
    fn dynamic_strictly_helps_on_skewed_core() {
        // One mode can hold all processors (K_3 = 64): start with everything
        // on that mode (its TTM comes last / communication-free for others)
        // then regrid — the paper's Figure 9 situation.
        let meta = TuckerMeta::new([128, 128, 128, 128], [8, 8, 8, 64]);
        let tree = chain_tree(&meta, &[0, 1, 2, 3]);
        let stat = optimal_static_grid(&tree, &meta, 64);
        let dyn_s = optimal_dynamic_grids(&tree, &meta, 64, DynGridObjective::Exact);
        assert!(
            dyn_s.volume < stat.volume * 0.7,
            "expected a large win: dynamic {} vs static {}",
            dyn_s.volume,
            stat.volume
        );
        assert!(dyn_s.regrid_count() >= 1);
    }

    #[test]
    fn scheme_volume_counts_regrid_cost() {
        let meta = TuckerMeta::new([16, 16], [4, 4]);
        let tree = chain_tree(&meta, &[0, 1]);
        // Hand-build: regrid at the first internal node of the first chain.
        let g1 = Grid::new([4, 1]);
        let g2 = Grid::new([1, 4]);
        let mut s = DynGridScheme::static_scheme(&tree, &meta, g1);
        let first_internal = tree.internal_nodes()[0];
        s.node_grids[first_internal] = g2.clone();
        s.regrid[first_internal] = true;
        // Propagate to descendants to keep the scheme consistent.
        let mut stack = vec![first_internal];
        while let Some(u) = stack.pop() {
            for &c in &tree.node(u).children {
                s.node_grids[c] = g2.clone();
                stack.push(c);
            }
        }
        let v = scheme_volume(&tree, &meta, &s);
        // Must include the |In| = 256 regrid charge.
        assert!(v >= 256.0);
    }

    #[test]
    fn grids_on_path_only_change_at_regrids() {
        let meta = TuckerMeta::new([64, 64, 64], [4, 8, 16]);
        let tree = balanced_tree(&meta, &[0, 1, 2]);
        let s = optimal_dynamic_grids(&tree, &meta, 32, DynGridObjective::Exact);
        for id in tree.internal_nodes() {
            let parent = tree.node(id).parent.unwrap();
            if !s.regrid[id] {
                assert_eq!(s.node_grids[id], s.node_grids[parent]);
            }
            assert!(s.node_grids[id].is_valid_for(meta.core().dims()));
        }
    }
}
