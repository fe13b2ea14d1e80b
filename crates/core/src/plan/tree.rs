//! TTM-trees (paper §3): the arena, the prior-work constructions (§3.2),
//! and the §3.3 minimum-FLOP tree.
//!
//! A TTM-tree encodes one way of executing the HOOI TTM component:
//! * the root is the input tensor `T`;
//! * each internal node multiplies its parent's output along one mode;
//! * each of the `N` leaves is one new factor matrix `F̃_n`, and the path
//!   from the root to leaf `F̃_n` must multiply along every mode except `n`.
//!
//! Constructions:
//! * [`chain_tree`] — the naive scheme: `N` independent chains of `N − 1`
//!   TTMs each, optionally with the mode orderings of Austin et al.
//!   ([`crate::plan::order::ModeOrdering`]);
//! * [`balanced_tree`] — the divide-and-conquer scheme of Kaya & Uçar with
//!   roughly `N log N` TTMs;
//! * [`greedy_reuse_tree`] — the "always reuse when available" strategy the
//!   paper's §3.3 Remarks warn against (ablation baseline);
//! * [`optimal_tree`] — the tree minimizing the §3.1 FLOP model over
//!   **all** TTM-trees (§3.3). Its DP is the joint grid × tree DP of
//!   [`crate::plan::search`] run on one rank, where it reduces to §3.3's
//!   recurrence (that module's docs give it).

use crate::meta::TuckerMeta;

/// Label of a TTM-tree node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeLabel {
    /// The input tensor `T`.
    Root,
    /// TTM along the given mode (`Out(u) = In(u) ×_n F_nᵀ`).
    Ttm(usize),
    /// Leaf producing the new factor matrix for the given mode.
    Leaf(usize),
}

/// A node in the arena.
#[derive(Clone, Debug)]
pub struct Node {
    /// What this node does.
    pub label: NodeLabel,
    /// Parent id (`None` for the root).
    pub parent: Option<usize>,
    /// Child ids in insertion order.
    pub children: Vec<usize>,
}

/// A TTM-tree stored as an arena; node 0 is always the root.
#[derive(Clone, Debug)]
pub struct TtmTree {
    nodes: Vec<Node>,
    order: usize,
}

impl TtmTree {
    /// Create an empty tree (just the root) over `order` modes.
    pub(crate) fn new(order: usize) -> Self {
        assert!(order >= 1);
        TtmTree {
            nodes: vec![Node {
                label: NodeLabel::Root,
                parent: None,
                children: Vec::new(),
            }],
            order,
        }
    }

    /// The root's node id (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// Number of nodes (root + internal + leaves).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Access a node.
    pub fn node(&self, id: usize) -> &Node {
        &self.nodes[id]
    }

    /// Drop every node with id `>= len` (stack-discipline undo for
    /// enumeration code). Surviving nodes' child lists are pruned.
    ///
    /// # Panics
    /// Panics if `len == 0` (the root must survive).
    pub(crate) fn truncate_nodes(&mut self, len: usize) {
        assert!(len >= 1, "cannot truncate the root away");
        self.nodes.truncate(len);
        for node in &mut self.nodes {
            node.children.retain(|&c| c < len);
        }
    }

    /// Append a child with the given label under `parent`, returning its id.
    pub(crate) fn add_child(&mut self, parent: usize, label: NodeLabel) -> usize {
        assert!(parent < self.nodes.len(), "bad parent id");
        assert!(
            !matches!(label, NodeLabel::Root),
            "only node 0 may be the root"
        );
        let id = self.nodes.len();
        self.nodes.push(Node {
            label,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// Ids of all internal (TTM) nodes, in a parent-before-child order.
    pub fn internal_nodes(&self) -> Vec<usize> {
        self.topological_order()
            .into_iter()
            .filter(|&id| matches!(self.nodes[id].label, NodeLabel::Ttm(_)))
            .collect()
    }

    /// Ids of all leaves.
    pub(crate) fn leaves(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&id| matches!(self.nodes[id].label, NodeLabel::Leaf(_)))
            .collect()
    }

    /// Number of TTM operations the tree performs.
    pub fn num_ttms(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.label, NodeLabel::Ttm(_)))
            .count()
    }

    /// All node ids in DFS pre-order from the root (parents before children).
    pub(crate) fn topological_order(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            out.push(id);
            // Push children reversed so the leftmost child is visited first.
            for &c in self.nodes[id].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Maximum number of internal nodes on any root-to-leaf path.
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        self.leaves()
            .into_iter()
            .map(|l| {
                let mut d = 0;
                let mut cur = self.nodes[l].parent;
                while let Some(c) = cur {
                    if matches!(self.nodes[c].label, NodeLabel::Ttm(_)) {
                        d += 1;
                    }
                    cur = self.nodes[c].parent;
                }
                d
            })
            .max()
            .unwrap_or(0)
    }

    /// Check the TTM-tree properties of §3.1; returns a human-readable error
    /// on violation. Property (iv) — each leaf's path multiplies exactly the
    /// `N − 1` other modes — implies the others for well-formed arenas.
    pub fn validate(&self) -> Result<(), String> {
        let leaves = self.leaves();
        if leaves.len() != self.order {
            return Err(format!(
                "expected {} leaves, found {}",
                self.order,
                leaves.len()
            ));
        }
        let mut seen = vec![false; self.order];
        for l in leaves {
            let NodeLabel::Leaf(n) = self.nodes[l].label else {
                unreachable!()
            };
            if seen[n] {
                return Err(format!("duplicate leaf for mode {n}"));
            }
            seen[n] = true;
            if !self.nodes[l].children.is_empty() {
                return Err(format!("leaf for mode {n} has children"));
            }
            // The path must contain every mode except n, each exactly once.
            let mut mask = 0u32;
            let mut count = 0;
            let mut cur = self.nodes[l].parent;
            while let Some(c) = cur {
                if let NodeLabel::Ttm(m) = self.nodes[c].label {
                    if m >= self.order {
                        return Err(format!("mode {m} out of range"));
                    }
                    if mask & (1 << m) != 0 {
                        return Err(format!("mode {m} repeated on path to leaf {n}"));
                    }
                    mask |= 1 << m;
                    count += 1;
                }
                cur = self.nodes[c].parent;
            }
            let expect: u32 = ((1u32 << self.order) - 1) & !(1 << n);
            if mask != expect || count != self.order - 1 {
                return Err(format!(
                    "path to leaf {n} multiplies mask {mask:b}, expected {expect:b}"
                ));
            }
        }
        Ok(())
    }
}

impl TtmTree {
    /// Render the tree in Graphviz DOT format, optionally annotating each
    /// node with the grid a [`crate::plan::grid::DynGridScheme`]-like
    /// assignment gives it (`grids[id]`, any `Display`able).
    pub fn to_dot<G: std::fmt::Display>(&self, grids: Option<&[G]>) -> String {
        let mut out =
            String::from("digraph ttm_tree {\n  node [shape=box, fontname=\"monospace\"];\n");
        for id in 0..self.len() {
            let base = match self.nodes[id].label {
                NodeLabel::Root => "T".to_string(),
                NodeLabel::Ttm(n) => format!("x{n} F{n}^T"),
                NodeLabel::Leaf(n) => format!("F~{n}"),
            };
            let label = match grids {
                Some(g) => format!("{base}\\n[{}]", g[id]),
                None => base,
            };
            let shape = if matches!(self.nodes[id].label, NodeLabel::Leaf(_)) {
                ", shape=ellipse"
            } else {
                ""
            };
            out.push_str(&format!("  n{id} [label=\"{label}\"{shape}];\n"));
        }
        for id in 0..self.len() {
            for &c in &self.nodes[id].children {
                out.push_str(&format!("  n{id} -> n{c};\n"));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The naive chain tree (§3.2): `N` independent chains, one per new factor.
/// For leaf `n`, the chain multiplies the other modes in the order they
/// appear in `perm`.
///
/// # Panics
/// Panics if `perm` is not a permutation of `0..N`.
pub fn chain_tree(meta: &TuckerMeta, perm: &[usize]) -> TtmTree {
    let n = meta.order();
    assert_eq!(perm.len(), n, "permutation arity mismatch");
    let mut check = vec![false; n];
    for &m in perm {
        assert!(m < n && !check[m], "not a permutation: {perm:?}");
        check[m] = true;
    }

    let mut tree = TtmTree::new(n);
    // Leaves in permutation order too: the first chain computes the factor
    // for the first mode in the ordering, etc.
    for &leaf_mode in perm {
        let mut cur = tree.root();
        for &m in perm {
            if m != leaf_mode {
                cur = tree.add_child(cur, NodeLabel::Ttm(m));
            }
        }
        tree.add_child(cur, NodeLabel::Leaf(leaf_mode));
    }
    debug_assert!(tree.validate().is_ok());
    tree
}

/// The balanced tree of Kaya & Uçar (§3.2): split the modes in two halves
/// `A, B`; under the current attach point, build a chain of all `A`-modes
/// followed by the recursive subtree computing `B`'s factors, and a chain of
/// all `B`-modes followed by the recursive subtree computing `A`'s factors.
/// Roughly `N log N` TTMs.
///
/// `perm` fixes the order in which modes are listed before splitting; the
/// paper observed ordering has little effect on balanced trees and uses the
/// natural order.
pub fn balanced_tree(meta: &TuckerMeta, perm: &[usize]) -> TtmTree {
    let n = meta.order();
    assert_eq!(perm.len(), n, "permutation arity mismatch");
    let mut tree = TtmTree::new(n);
    let root = tree.root();
    build_balanced(&mut tree, root, perm);
    debug_assert!(tree.validate().is_ok());
    tree
}

fn build_balanced(tree: &mut TtmTree, attach: usize, modes: &[usize]) {
    match modes.len() {
        0 => unreachable!("empty mode set"),
        1 => {
            tree.add_child(attach, NodeLabel::Leaf(modes[0]));
        }
        _ => {
            let m = modes.len() / 2;
            let (a, b) = modes.split_at(m);
            // Chain of A-modes, then compute B's factors beneath it.
            let mut cur = attach;
            for &x in a {
                cur = tree.add_child(cur, NodeLabel::Ttm(x));
            }
            build_balanced(tree, cur, b);
            // Chain of B-modes, then compute A's factors beneath it.
            let mut cur = attach;
            for &x in b {
                cur = tree.add_child(cur, NodeLabel::Ttm(x));
            }
            build_balanced(tree, cur, a);
        }
    }
}

/// The greedy "always reuse when available" tree of the §3.3 Remarks:
/// whenever `R ≠ ∅`, multiply along the reusable mode with the smallest cost
/// factor; once `R = ∅`, split `Q` in half. Tests show the DP strictly beats
/// it on adversarial metadata.
pub fn greedy_reuse_tree(meta: &TuckerMeta) -> TtmTree {
    let n = meta.order();
    let mut tree = TtmTree::new(n);
    let root = tree.root();
    let full: u32 = (1 << n) - 1;
    greedy_build(meta, &mut tree, root, 0, full);
    debug_assert!(tree.validate().is_ok());
    tree
}

fn greedy_build(meta: &TuckerMeta, tree: &mut TtmTree, attach: usize, p: u32, q: u32) {
    let n = meta.order();
    let full: u32 = (1 << n) - 1;
    let r = full & !(p | q);

    if q.count_ones() == 1 && r == 0 {
        tree.add_child(attach, NodeLabel::Leaf(q.trailing_zeros() as usize));
        return;
    }
    if r != 0 {
        // Reuse the cheapest mode (min K, ties by index).
        let mut best = usize::MAX;
        let mut rm = r;
        while rm != 0 {
            let m = rm.trailing_zeros() as usize;
            rm &= rm - 1;
            if best == usize::MAX || meta.k(m) < meta.k(best) {
                best = m;
            }
        }
        let u = tree.add_child(attach, NodeLabel::Ttm(best));
        greedy_build(meta, tree, u, p | (1 << best), q);
        return;
    }
    // Split Q in half (low bits first).
    let bits: Vec<usize> = (0..n).filter(|&m| q & (1 << m) != 0).collect();
    let half = bits.len() / 2;
    let q1: u32 = bits[..half.max(1)].iter().map(|&m| 1u32 << m).sum();
    let q2 = q & !q1;
    greedy_build(meta, tree, attach, p, q1);
    greedy_build(meta, tree, attach, p, q2);
}

/// Result of the optimal-tree construction.
#[derive(Clone, Debug)]
pub struct OptimalTree {
    /// The optimal TTM-tree.
    pub tree: TtmTree,
    /// Its FLOP cost: the DP's root value (equal to
    /// `plan::cost::tree_flops(&tree, meta)` up to summation order).
    pub flops: f64,
}

/// Compute the minimum-FLOP TTM-tree for `meta` (§3.3): the joint DP of
/// [`crate::plan::search`] over the one grid of a single rank under the
/// FLOP-and-volume model, where a reuse costs `K_n·|T[P]|` and nothing else
/// costs anything.
///
/// # Panics
/// Panics if `meta` has more than 13 modes: the joint DP's tables would
/// exceed their 1 GiB budget (the limit of
/// [`crate::plan::search::optimize`] too).
pub fn optimal_tree(meta: &TuckerMeta) -> OptimalTree {
    let (tree, flops) = crate::plan::search::one_rank_tree(meta);
    debug_assert!(tree.validate().is_ok(), "DP produced an invalid tree");
    OptimalTree { tree, flops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::cost::tree_flops;
    use crate::plan::order::ModeOrdering;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn meta4() -> TuckerMeta {
        TuckerMeta::new([40, 30, 20, 10], [4, 3, 2, 5])
    }

    #[test]
    fn chain_tree_shape() {
        let meta = meta4();
        let t = chain_tree(&meta, &[0, 1, 2, 3]);
        assert!(t.validate().is_ok());
        // N chains of N-1 TTMs each.
        assert_eq!(t.num_ttms(), 4 * 3);
        assert_eq!(t.leaves().len(), 4);
        assert_eq!(t.depth(), 3);
        // Root has N children (one chain head each).
        assert_eq!(t.node(t.root()).children.len(), 4);
    }

    #[test]
    fn chain_tree_respects_ordering() {
        let meta = meta4();
        let t = chain_tree(&meta, &[3, 1, 0, 2]);
        assert!(t.validate().is_ok());
        // First chain computes F̃_3 and starts multiplying mode 1.
        let first_chain_head = t.node(t.root()).children[0];
        assert_eq!(t.node(first_chain_head).label, NodeLabel::Ttm(1));
    }

    #[test]
    fn balanced_tree_shape_n4() {
        let meta = meta4();
        let t = balanced_tree(&meta, &[0, 1, 2, 3]);
        assert!(t.validate().is_ok());
        // Figure 3(c): 8 TTM nodes for N = 4.
        assert_eq!(t.num_ttms(), 8);
        assert_eq!(t.leaves().len(), 4);
    }

    #[test]
    fn balanced_tree_fewer_ttms_than_chain() {
        for n in 3..=8 {
            let meta = TuckerMeta::new(vec![10; n], vec![2; n]);
            let perm: Vec<usize> = (0..n).collect();
            let chain = chain_tree(&meta, &perm);
            let bal = balanced_tree(&meta, &perm);
            assert!(
                bal.num_ttms() < chain.num_ttms(),
                "N={n}: balanced {} !< chain {}",
                bal.num_ttms(),
                chain.num_ttms()
            );
            assert!(bal.validate().is_ok());
        }
    }

    #[test]
    fn validate_rejects_missing_leaf() {
        let mut t = TtmTree::new(2);
        let a = t.add_child(t.root(), NodeLabel::Ttm(1));
        t.add_child(a, NodeLabel::Leaf(0));
        // Missing leaf for mode 1.
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_wrong_path() {
        let mut t = TtmTree::new(2);
        // Leaf 0's path must multiply mode 1, not mode 0.
        let a = t.add_child(t.root(), NodeLabel::Ttm(0));
        t.add_child(a, NodeLabel::Leaf(0));
        let b = t.add_child(t.root(), NodeLabel::Ttm(0));
        t.add_child(b, NodeLabel::Leaf(1));
        assert!(t.validate().is_err());
    }

    #[test]
    fn topological_order_is_parent_first() {
        let meta = meta4();
        let t = balanced_tree(&meta, &[0, 1, 2, 3]);
        let topo = t.topological_order();
        let pos: std::collections::HashMap<usize, usize> =
            topo.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for id in 0..t.len() {
            if let Some(p) = t.node(id).parent {
                assert!(pos[&p] < pos[&id]);
            }
        }
    }

    #[test]
    fn two_mode_trees() {
        let meta = TuckerMeta::new([8, 6], [2, 3]);
        let c = chain_tree(&meta, &[0, 1]);
        assert_eq!(c.num_ttms(), 2);
        let b = balanced_tree(&meta, &[0, 1]);
        assert_eq!(b.num_ttms(), 2);
        assert!(b.validate().is_ok());
    }

    #[test]
    fn reconstructed_tree_cost_matches_dp_value() {
        let metas = [
            TuckerMeta::new([20, 50, 100], [4, 25, 10]),
            TuckerMeta::new([40, 40, 40, 40], [4, 8, 16, 2]),
            TuckerMeta::new([20, 50, 100, 400, 20], [16, 10, 20, 40, 2]),
        ];
        for meta in metas {
            let opt = optimal_tree(&meta);
            assert!(opt.tree.validate().is_ok());
            let recomputed = tree_flops(&opt.tree, &meta);
            assert!(
                (opt.flops - recomputed).abs() < opt.flops * 1e-12,
                "{meta}: DP {} vs tree {recomputed}",
                opt.flops
            );
        }
    }

    #[test]
    fn never_worse_than_heuristics_random_meta() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..60 {
            let n = rng.gen_range(2..=6);
            let ls: Vec<usize> = (0..n)
                .map(|_| [20, 50, 100, 400][rng.gen_range(0..4)])
                .collect();
            let ks: Vec<usize> = ls
                .iter()
                .map(|&l| {
                    let h = [1.25, 2.0, 5.0, 10.0][rng.gen_range(0..4)];
                    ((l as f64 / h) as usize).max(1)
                })
                .collect();
            let meta = TuckerMeta::new(ls, ks);
            let opt = optimal_tree(&meta).flops;
            for ordering in [
                ModeOrdering::Natural,
                ModeOrdering::ByCostFactor,
                ModeOrdering::ByCompression,
            ] {
                let perm = ordering.permutation(&meta);
                let chain = tree_flops(&chain_tree(&meta, &perm), &meta);
                let bal = tree_flops(&balanced_tree(&meta, &perm), &meta);
                assert!(
                    opt <= chain * (1.0 + 1e-12),
                    "{meta}: opt {opt} > chain {chain}"
                );
                assert!(
                    opt <= bal * (1.0 + 1e-12),
                    "{meta}: opt {opt} > balanced {bal}"
                );
            }
        }
    }

    #[test]
    fn two_modes_exact() {
        // N=2: the only trees are the two chains; each chain tree does both
        // leaves. Cost of tree with independent chains: K1|T| (for leaf 0's
        // chain multiplying mode 1) + K0|T| (for leaf 1's chain). No reuse
        // possible (R empty at root after split). The DP must return
        // (K0 + K1)|T|.
        let meta = TuckerMeta::new([10, 20], [3, 7]);
        let opt = optimal_tree(&meta).flops;
        let expect = (3.0 + 7.0) * 200.0;
        assert!((opt - expect).abs() < 1e-9, "got {opt}, want {expect}");
    }

    #[test]
    fn uniform_modes_prefer_reuse() {
        // With many uniform strongly-compressing modes the optimal tree must
        // use many fewer TTMs than the naive chain scheme.
        let meta = TuckerMeta::new(vec![100; 6], vec![5; 6]);
        let opt = optimal_tree(&meta);
        let chain = chain_tree(&meta, &(0..6).collect::<Vec<_>>());
        assert!(opt.tree.num_ttms() < chain.num_ttms());
        assert!(opt.flops < tree_flops(&chain, &meta));
    }

    #[test]
    fn paper_remark_sometimes_skips_reuse() {
        // §3.3 Remarks: the optimal tree may *not* reuse an available mode,
        // postponing an expensive mode until the tensor has shrunk. Verify
        // the DP is not a greedy always-reuse strategy: build metadata with
        // one very expensive, barely-compressing mode and check that some
        // state on the optimal tree splits while reuse was available.
        let meta = TuckerMeta::new([400, 20, 20, 400], [399, 2, 2, 40]);
        let opt = optimal_tree(&meta);
        // Greedy always-reuse from the root would multiply some mode at the
        // root level once; compare against a manually built "reuse mode 0
        // first" tree: cost must be no better than the DP's.
        let mut greedy = TtmTree::new(4);
        let root = greedy.root();
        // Reuse mode 0 at the top (shared by leaves 1,2,3), then chains.
        let top = greedy.add_child(root, NodeLabel::Ttm(0));
        for leaf in 1..4 {
            let mut cur = top;
            for m in 1..4 {
                if m != leaf {
                    cur = greedy.add_child(cur, NodeLabel::Ttm(m));
                }
            }
            greedy.add_child(cur, NodeLabel::Leaf(leaf));
        }
        {
            let mut cur = root;
            for m in 1..4 {
                cur = greedy.add_child(cur, NodeLabel::Ttm(m));
            }
            greedy.add_child(cur, NodeLabel::Leaf(0));
        }
        assert!(greedy.validate().is_ok());
        assert!(opt.flops <= tree_flops(&greedy, &meta));
        // And the optimal must strictly beat it here: premultiplying the
        // K=399 mode at full size is a blunder.
        assert!(
            opt.flops < tree_flops(&greedy, &meta) * 0.9,
            "optimal {} vs greedy-reuse {}",
            opt.flops,
            tree_flops(&greedy, &meta)
        );
    }

    #[test]
    fn single_mode_plus_one() {
        // N=1 is degenerate (leaf with empty chain).
        let meta = TuckerMeta::new([10], [2]);
        let opt = optimal_tree(&meta);
        assert_eq!(opt.flops, 0.0);
        assert_eq!(opt.tree.num_ttms(), 0);
        assert!(opt.tree.validate().is_ok());
    }

    #[test]
    fn optimal_is_binary() {
        // Lemma 3.1: there is an optimal binary tree; our construction only
        // emits nodes with <= 2 children.
        let meta = TuckerMeta::new([50, 100, 20, 400, 50, 20], [10, 20, 4, 40, 25, 2]);
        let opt = optimal_tree(&meta);
        for id in 0..opt.tree.len() {
            assert!(
                opt.tree.node(id).children.len() <= 2,
                "node {id} has >2 children"
            );
        }
    }

    #[test]
    fn greedy_reuse_is_valid_but_beatable() {
        // The §3.3 Remarks metadata: one expensive, barely-compressing mode.
        let meta = TuckerMeta::new([400, 20, 20, 400], [399, 2, 2, 40]);
        let greedy = greedy_reuse_tree(&meta);
        assert!(greedy.validate().is_ok());
        let opt = optimal_tree(&meta);
        let g = tree_flops(&greedy, &meta);
        assert!(opt.flops <= g);
        assert!(
            opt.flops < g * 0.95,
            "optimal {} should strictly beat greedy {g} here",
            opt.flops
        );
    }

    #[test]
    fn greedy_reuse_optimal_on_uniform() {
        // With identical modes, always-reuse is as good as anything.
        let meta = TuckerMeta::new([50; 4], [5; 4]);
        let greedy = greedy_reuse_tree(&meta);
        let opt = optimal_tree(&meta).flops;
        let g = tree_flops(&greedy, &meta);
        assert!((g - opt).abs() <= opt * 0.02, "greedy {g} vs opt {opt}");
    }
}
