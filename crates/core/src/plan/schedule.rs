//! One HOOI sweep's operations, listed once, in the order the executor
//! issues them: [`TtmTree::topological_order`] (DFS pre-order, the
//! executor's stack order), then the core-update chain under the initial
//! grid, then the norm all-reduce. Every price of a plan folds over this
//! list — `sweep_cost`, `NetCostModel::predict_sweep`, the §3.1 FLOPs and
//! the §4 volumes. An input cardinality `|In(u)|` is the running product of
//! the `h_n` down the operation's path: one rounding for every consumer.

use crate::meta::TuckerMeta;
use crate::plan::grid::DynGridScheme;
use crate::plan::order::core_chain_order;
use crate::plan::tree::{NodeLabel, TtmTree};
use tucker_distsim::Grid;

/// §4.1: a TTM along a mode split `q` ways reduce-scatters
/// `(q − 1)·|Out(u)|` elements.
pub fn ttm_volume(q: usize, out: f64) -> f64 {
    (q as f64 - 1.0) * out
}

/// §4.3: a regrid moves (at most) its whole input, `|In(u)|` elements.
pub fn regrid_volume(input: f64) -> f64 {
    input
}

/// One operation of a sweep, on the input `T[premult]` (the tensor with
/// the modes `premult` multiplied, `input` elements) under `grid`.
#[derive(Clone, Copy, Debug)]
pub struct Op<'g> {
    /// What the operation does.
    pub kind: OpKind<'g>,
    /// The modes multiplied into the input.
    pub premult: u32,
    /// `|In(u)|`.
    pub input: f64,
    /// The grid the operation runs on (a regrid's target).
    pub grid: &'g Grid,
}

/// What an [`Op`] does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OpKind<'g> {
    /// Redistribute tree node `node`'s input from its parent's grid `from`,
    /// ahead of its TTM.
    Regrid { node: usize, from: &'g Grid },
    /// `×_mode F_modeᵀ`, `out` output elements: tree node `Some(id)`, or a
    /// core-chain step (`None`).
    Ttm {
        node: Option<usize>,
        mode: usize,
        out: f64,
    },
    /// A leaf: the mode-`n` Gram (column-share exchange plus world
    /// all-reduce).
    Gram(usize),
    /// The all-reduce of `‖G‖²` that closes the sweep (input: the core).
    Norm,
}

impl Op<'_> {
    /// Whether the operation belongs to the tree (§4's scope): a regrid or
    /// a tree-node TTM.
    pub fn in_tree(&self) -> bool {
        matches!(
            self.kind,
            OpKind::Regrid { .. } | OpKind::Ttm { node: Some(_), .. }
        )
    }

    /// The §4 volume model's elements for the operation ([`ttm_volume`],
    /// [`regrid_volume`]; 0 for the Gram and the norm, which §4 leaves out).
    pub fn elements(&self) -> f64 {
        match self.kind {
            OpKind::Regrid { .. } => regrid_volume(self.input),
            OpKind::Ttm { mode, out, .. } => ttm_volume(self.grid.dim(mode), out),
            OpKind::Gram(_) | OpKind::Norm => 0.0,
        }
    }
}

/// The operations of one HOOI sweep of `tree` under `scheme`, in issue
/// order.
///
/// # Panics
/// Panics if the scheme's vectors do not match the tree, or a TTM node
/// that does not regrid has a grid other than its parent's.
pub fn sweep<'g>(meta: &'g TuckerMeta, tree: &TtmTree, scheme: &'g DynGridScheme) -> Vec<Op<'g>> {
    assert_eq!(scheme.node_grids.len(), tree.len());
    assert_eq!(scheme.regrid.len(), tree.len());
    let (grids, regrid) = (&scheme.node_grids, &scheme.regrid);
    build(
        meta,
        tree,
        &scheme.initial,
        |id| &grids[id],
        |id| regrid[id],
    )
}

/// [`sweep`] with every operation on `g` (no regrids).
pub fn sweep_on<'g>(meta: &'g TuckerMeta, tree: &TtmTree, g: &'g Grid) -> Vec<Op<'g>> {
    build(meta, tree, g, |_| g, |_| false)
}

fn build<'g>(
    meta: &'g TuckerMeta,
    tree: &TtmTree,
    initial: &'g Grid,
    grid_of: impl Fn(usize) -> &'g Grid,
    regrid: impl Fn(usize) -> bool,
) -> Vec<Op<'g>> {
    let mut ops = Vec::with_capacity(2 * tree.len() + meta.order() + 1);
    // Per node: the modes multiplied into its output, and its |Out|.
    let mut out = vec![(0u32, meta.input_cardinality()); tree.len()];
    for id in tree.topological_order() {
        let node = tree.node(id);
        let Some(parent) = node.parent else { continue };
        let (premult, input) = out[parent];
        let grid = grid_of(id);
        let op = |kind| Op {
            kind,
            premult,
            input,
            grid,
        };
        match node.label {
            NodeLabel::Root => unreachable!("only node 0 is the root"),
            NodeLabel::Ttm(mode) => {
                let from = grid_of(parent);
                if regrid(id) {
                    ops.push(op(OpKind::Regrid { node: id, from }));
                } else {
                    assert_eq!(grid, from, "node {id} changed grids without a regrid");
                }
                out[id] = (premult | 1 << mode, input * meta.h(mode));
                let (node, out) = (Some(id), out[id].1);
                ops.push(op(OpKind::Ttm { node, mode, out }));
            }
            NodeLabel::Leaf(mode) => ops.push(op(OpKind::Gram(mode))),
        }
    }
    ops.extend(core_chain(meta, initial));
    ops.push(Op {
        kind: OpKind::Norm,
        premult: (1 << meta.order()) - 1,
        input: meta.core_cardinality(),
        grid: initial,
    });
    ops
}

/// The [`Op::elements`] of the operations `pick` selects, summed in issue
/// order.
pub fn elements<'g>(ops: &[Op<'g>], pick: impl Fn(&Op<'g>) -> bool) -> f64 {
    let picked = ops.iter().filter(|op| pick(op));
    picked.fold(0.0, |sum, op| sum + op.elements())
}

/// The core-update chain under `g`: one [`OpKind::Ttm`] per mode, strongest
/// compression first ([`core_chain_order`]), each on the previous one's
/// output.
pub fn core_chain<'g>(meta: &'g TuckerMeta, g: &'g Grid) -> impl Iterator<Item = Op<'g>> {
    let (mut premult, mut out) = (0u32, meta.input_cardinality());
    core_chain_order(meta).into_iter().map(move |mode| {
        let (op_premult, input) = (premult, out);
        premult |= 1 << mode;
        out *= meta.h(mode);
        let kind = OpKind::Ttm {
            node: None,
            mode,
            out,
        };
        Op {
            kind,
            premult: op_premult,
            input,
            grid: g,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{hooi_sweep, SweepBackend, SweepStats};
    use crate::plan::brute_force::{materialize_scheme, random_tree};
    use crate::plan::cost::{premult_shape, tree_flops, CostModel, FlopVolumeModel};
    use crate::plan::grid::{
        candidate_grids, optimal_dynamic_grids, optimal_static_grid, scheme_volume, static_volume,
        DynGridObjective,
    };
    use crate::plan::tree::{balanced_tree, chain_tree, optimal_tree};
    use crate::plan::Plan;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;
    use tucker_distsim::exchange::MAX_ORDER;
    use tucker_linalg::Matrix;

    /// What a sweep backend was asked to do.
    #[derive(Debug, PartialEq)]
    enum Issued {
        Regrid(usize),
        Ttm(usize, Vec<usize>),
        Gram(usize),
        Norm,
    }

    /// A backend whose tensors are shapes: it logs every operation the
    /// executor issues and regrids where the scheme says so, as the
    /// distributed backend does.
    struct Recorder<'a> {
        regrid: &'a [bool],
        log: Vec<Issued>,
    }

    impl SweepBackend for Recorder<'_> {
        type Tensor = Vec<usize>;

        fn clock(&self) -> Duration {
            Duration::ZERO
        }

        fn sweep_begin(&mut self) {}

        fn sweep_end(&mut self, _: &mut SweepStats) {}

        fn gram(&mut self, t: &Vec<usize>, n: usize, _: &mut SweepStats) -> Matrix {
            self.log.push(Issued::Gram(n));
            Matrix::zeros(t[n], t[n])
        }

        fn ttm(&mut self, t: &Vec<usize>, n: usize, f: &Matrix, _: &mut SweepStats) -> Vec<usize> {
            self.log.push(Issued::Ttm(n, t.clone()));
            let mut out = t.clone();
            out[n] = f.nrows();
            out
        }

        fn regrid(
            &mut self,
            t: &Vec<usize>,
            node: usize,
            _: &mut SweepStats,
        ) -> Option<Vec<usize>> {
            self.regrid[node].then(|| {
                self.log.push(Issued::Regrid(node));
                t.clone()
            })
        }

        fn leading(&mut self, gram: &Matrix, k: usize) -> Matrix {
            Matrix::zeros(gram.nrows(), k)
        }

        fn local_norm_sq(&mut self, _: &Vec<usize>) -> f64 {
            0.0
        }

        fn allreduce(&mut self, x: f64) -> f64 {
            self.log.push(Issued::Norm);
            x
        }
    }

    #[test]
    fn premult_masks_accumulate_down_a_chain() {
        let meta = TuckerMeta::new([40, 30, 20, 10], [4, 3, 2, 5]);
        let tree = chain_tree(&meta, &[0, 1, 2, 3]);
        let g = Grid::trivial(4);
        let schedule = sweep_on(&meta, &tree, &g);
        // The first chain computes leaf 0 through modes 1, 2, 3.
        let first: Vec<(u32, Option<usize>)> = schedule[..4]
            .iter()
            .map(|op| match op.kind {
                OpKind::Ttm { mode, .. } => (op.premult, Some(mode)),
                OpKind::Gram(0) => (op.premult, None),
                _ => panic!("unexpected {op:?}"),
            })
            .collect();
        assert_eq!(
            first,
            [
                (0, Some(1)),
                (0b0010, Some(2)),
                (0b0110, Some(3)),
                (0b1110, None)
            ]
        );
        let last = schedule.last().expect("a sweep has operations");
        assert_eq!((last.kind, last.premult), (OpKind::Norm, 0b1111));
    }

    /// `hooi_sweep` issues the schedule's operations, in its order, for
    /// chain, balanced and optimal trees under static and dynamic schemes.
    #[test]
    fn the_executor_issues_exactly_the_schedule() {
        let cases = [
            (TuckerMeta::new([128, 128, 128, 128], [8, 8, 8, 64]), 64),
            (TuckerMeta::new([60, 16, 12, 40, 10], [4, 8, 8, 20, 6]), 64),
        ];
        for (meta, p) in cases {
            let perm: Vec<usize> = (0..meta.order()).collect();
            let mut regrids = 0;
            for tree in [
                chain_tree(&meta, &perm),
                balanced_tree(&meta, &perm),
                optimal_tree(&meta).tree,
            ] {
                let grid = optimal_static_grid(&tree, &meta, p).grid;
                for scheme in [
                    DynGridScheme::static_scheme(&tree, &meta, grid),
                    optimal_dynamic_grids(&tree, &meta, p, DynGridObjective::Exact),
                ] {
                    let factors: Vec<Matrix> = (0..meta.order())
                        .map(|n| Matrix::zeros(meta.l(n), meta.k(n)))
                        .collect();
                    let mut b = Recorder {
                        regrid: &scheme.regrid,
                        log: Vec::new(),
                    };
                    let root = meta.input().dims().to_vec();
                    hooi_sweep(&mut b, &root, &meta, &tree, &factors, 1.0);
                    let buf = &mut [0; MAX_ORDER];
                    let expect: Vec<Issued> = sweep(&meta, &tree, &scheme)
                        .iter()
                        .map(|op| match op.kind {
                            OpKind::Regrid { node, .. } => Issued::Regrid(node),
                            OpKind::Ttm { mode, .. } => {
                                Issued::Ttm(mode, premult_shape(&meta, op.premult, buf).to_vec())
                            }
                            OpKind::Gram(mode) => Issued::Gram(mode),
                            OpKind::Norm => Issued::Norm,
                        })
                        .collect();
                    assert_eq!(b.log, expect, "{meta}");
                    regrids += scheme.regrid_count();
                }
            }
            assert!(regrids > 0, "{meta}: no scheme regrids");
        }
    }

    /// Every §4 fold over the schedule is bit-equal to the closed form it
    /// replaced, written out below as the reference: random metas, random
    /// trees and random grid assignments (regrid wherever the grid changes).
    #[test]
    fn volume_folds_are_bit_equal_to_the_closed_forms() {
        let mut rng = StdRng::seed_from_u64(38);
        let mut cases = 0;
        while cases < 200 {
            let order = rng.gen_range(2..=5);
            let ls: Vec<usize> = (0..order).map(|_| rng.gen_range(5..=29)).collect();
            let ks: Vec<usize> = ls.iter().map(|&l| rng.gen_range(2..=9).min(l)).collect();
            let meta = TuckerMeta::new(ls, ks);
            let p = [1, 2, 4, 6, 8, 12, 16][rng.gen_range(0..7)];
            if p as f64 > meta.core_cardinality() {
                continue;
            }
            cases += 1;
            let tree = random_tree(&meta, rng.gen_range(0..u64::MAX));
            let grids = candidate_grids(&meta, p);
            let internal = tree.internal_nodes();
            let assign: Vec<usize> = internal
                .iter()
                .map(|_| rng.gen_range(0..grids.len()))
                .collect();
            let init = &grids[rng.gen_range(0..grids.len())];
            let scheme = materialize_scheme(&tree, &grids, &internal, &assign, init);

            // |In(u)| and |Out(u)|: the running product down each path.
            let (mut in_card, mut out_card) = (vec![0.0; tree.len()], vec![0.0; tree.len()]);
            for id in tree.topological_order() {
                let node = tree.node(id);
                in_card[id] = node
                    .parent
                    .map_or(meta.input_cardinality(), |p| out_card[p]);
                out_card[id] = match node.label {
                    NodeLabel::Ttm(n) => in_card[id] * meta.h(n),
                    _ => in_card[id],
                };
            }
            let mut flops_ref = 0.0;
            for &id in &internal {
                let NodeLabel::Ttm(n) = tree.node(id).label else {
                    unreachable!()
                };
                flops_ref += meta.k(n) as f64 * in_card[id];
            }
            let ttm_ref = |grids: &[Grid]| {
                let mut vol = 0.0;
                for &id in &internal {
                    let NodeLabel::Ttm(n) = tree.node(id).label else {
                        unreachable!()
                    };
                    vol += (grids[id].dim(n) as f64 - 1.0) * out_card[id];
                }
                vol
            };
            let regrid_ref: f64 = internal
                .iter()
                .filter(|&&id| scheme.regrid[id])
                .map(|&id| in_card[id])
                .sum();
            let mut scheme_ref = 0.0;
            for &id in &internal {
                let NodeLabel::Ttm(n) = tree.node(id).label else {
                    unreachable!()
                };
                if scheme.regrid[id] {
                    scheme_ref += in_card[id];
                }
                scheme_ref += (scheme.node_grids[id].dim(n) as f64 - 1.0) * out_card[id];
            }
            let (mut card, mut chain_ref) = (meta.input_cardinality(), 0.0);
            for &n in &core_chain_order(&meta) {
                card *= meta.h(n);
                chain_ref += (init.dim(n) as f64 - 1.0) * card;
            }

            let plan = Plan {
                meta: meta.clone(),
                nranks: p,
                tree: tree.clone(),
                grids: scheme.clone(),
                flops: 0.0,
                volume: 0.0,
                labels: ("random", "random"),
            };
            let bits = |x: f64| x.to_bits();
            let tree_ttm_ref = ttm_ref(&scheme.node_grids);
            assert_eq!(bits(plan.modeled_tree_ttm_elements()), bits(tree_ttm_ref));
            assert_eq!(bits(plan.modeled_regrid_elements()), bits(regrid_ref));
            assert_eq!(bits(plan.modeled_core_chain_elements()), bits(chain_ref));
            assert_eq!(bits(scheme_volume(&tree, &meta, &scheme)), bits(scheme_ref));
            assert_eq!(bits(tree_flops(&tree, &meta)), bits(flops_ref));
            assert_eq!(
                bits(static_volume(&tree, &meta, init)),
                bits(ttm_ref(&vec![init.clone(); tree.len()]))
            );

            // The flop model's TTM price keeps its historical rounding.
            for op in plan.schedule() {
                if let OpKind::Ttm { mode, .. } = op.kind {
                    let card = meta.premultiplied_cardinality(op.premult);
                    let q = op.grid.dim(mode) as f64;
                    let expect =
                        meta.k(mode) as f64 * card + 16.0 * (q - 1.0) * card * meta.h(mode);
                    let got = FlopVolumeModel.ttm_cost(&meta, op.premult, mode, op.grid);
                    assert_eq!(bits(got), bits(expect));
                }
            }
        }
    }
}
