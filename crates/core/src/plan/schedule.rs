//! A sweep's program: its operations listed once, in issue order, over
//! numbered tensor slots. The executor's one interpreter runs it
//! ([`crate::executor`]), and every price of a plan folds over it —
//! `sweep_cost`, `NetCostModel::predict_sweep`, the §3.1 FLOPs and the §4
//! volumes. Three builders write programs:
//!
//! * `sweep` / `sweep_on` — one HOOI sweep of a TTM-tree:
//!   `TtmTree::topological_order` (DFS pre-order; a regrid ahead of each
//!   TTM node that changes grids), then the core-update chain under the
//!   initial grid, then the norm all-reduce. `Program::resumed` drops
//!   what a resumed sweep's salvaged leaves make unnecessary;
//! * `sthosvd` — the ST-HOSVD chain: per mode, Gram → truncation → TTM;
//! * `gauss_seidel` — per mode, a chain over the other modes with the
//!   latest factors, Gram → truncation; then the core chain.
//!
//! Slot 0 is the sweep's input. Each regrid or TTM writes a slot that is
//! released (`OpKind::Free`) right after its last reader — except the
//! core the closing norm reads — and reused by a later write, so a program
//! holds as many slots as it has tensors live at its peak. An input
//! cardinality `|In(u)|` is the running product of the `h_n` down the
//! operation's path: one rounding for every consumer.

use crate::meta::TuckerMeta;
use crate::plan::grid::DynGridScheme;
use crate::plan::order::core_chain_order;
use crate::plan::tree::{NodeLabel, TtmTree};
use tucker_distsim::Grid;

/// §4.1: a TTM along a mode split `q` ways reduce-scatters
/// `(q − 1)·|Out(u)|` elements.
pub(crate) fn ttm_volume(q: usize, out: f64) -> f64 {
    (q as f64 - 1.0) * out
}

/// §4.3: a regrid moves (at most) its whole input, `|In(u)|` elements.
pub(crate) fn regrid_volume(input: f64) -> f64 {
    input
}

/// One operation of a sweep, on the input `T[premult]` (the tensor with
/// the modes `premult` multiplied, `input` elements) under `grid`. A
/// [`OpKind::Free`] describes the tensor it releases; a truncation, the
/// Gram's input.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Op<'g> {
    /// What the operation does.
    pub kind: OpKind<'g>,
    /// The modes multiplied into the input.
    pub premult: u32,
    /// `|In(u)|`.
    pub input: f64,
    /// The grid the operation runs on (a regrid's target).
    pub grid: &'g Grid,
    /// The slot holding the input of a regrid, TTM, Gram or norm (0: the
    /// sweep's input).
    pub src: usize,
    /// The slot a regrid or TTM writes (0 for the other kinds).
    pub dst: usize,
}

/// Which factor of its mode a TTM multiplies by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Factor {
    /// The factor the sweep started from (the tree's Jacobi TTMs).
    Previous,
    /// The factor this sweep computed if it has, else the previous one
    /// (the core chain, ST-HOSVD and Gauss–Seidel).
    Latest,
}

/// What an [`Op`] does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum OpKind<'g> {
    /// Redistribute tree node `node`'s input from its parent's grid `from`,
    /// ahead of its TTM.
    Regrid { node: usize, from: &'g Grid },
    /// `×_mode F_modeᵀ`, `out` output elements: tree node `Some(id)`, or a
    /// chain step (`None`).
    Ttm {
        node: Option<usize>,
        mode: usize,
        out: f64,
        factor: Factor,
    },
    /// A leaf: the mode-`n` Gram (column-share exchange plus world
    /// all-reduce).
    Gram(usize),
    /// Truncate the Gram just formed to its leading `K_n` eigenvectors:
    /// mode `n`'s new factor.
    Evd(usize),
    /// Release the slot's tensor: its last reader has run.
    Free(usize),
    /// The all-reduce of `‖G‖²` that closes the sweep (input: the core).
    Norm,
}

impl Op<'_> {
    /// Whether the operation belongs to the tree (§4's scope): a regrid or
    /// a tree-node TTM.
    pub(crate) fn in_tree(&self) -> bool {
        matches!(
            self.kind,
            OpKind::Regrid { .. } | OpKind::Ttm { node: Some(_), .. }
        )
    }

    /// The §4 volume model's elements for the operation ([`ttm_volume`],
    /// [`regrid_volume`]; 0 for the others, which §4 leaves out).
    pub(crate) fn elements(&self) -> f64 {
        match self.kind {
            OpKind::Regrid { .. } => regrid_volume(self.input),
            OpKind::Ttm { mode, out, .. } => ttm_volume(self.grid.dim(mode), out),
            OpKind::Gram(_) | OpKind::Evd(_) | OpKind::Free(_) | OpKind::Norm => 0.0,
        }
    }

    /// Whether the operation reads the tensor in slot `src`.
    fn reads(&self) -> bool {
        !matches!(self.kind, OpKind::Evd(_) | OpKind::Free(_))
    }
}

/// A sweep's operations in issue order.
pub(crate) struct Program<'g> {
    /// The problem: each truncation keeps `K_n` columns.
    pub meta: &'g TuckerMeta,
    /// The operations.
    pub ops: Vec<Op<'g>>,
}

impl<'g> Program<'g> {
    /// How many slots the operations use, slot 0 included.
    pub(crate) fn slots(&self) -> usize {
        self.ops.iter().map(|op| op.dst).max().unwrap_or(0) + 1
    }

    /// This program less what the modes in the bitmask `done` make
    /// unnecessary: their Grams and truncations, and every operation whose
    /// output no remaining operation reads — on a HOOI sweep, exactly the
    /// subtrees whose leaves are all done. A resumed sweep runs it with the
    /// salvaged factors spliced in.
    pub(crate) fn resumed(&self, done: u32) -> Program<'g> {
        let mut live = vec![false; self.slots()];
        let mut keep = vec![false; self.ops.len()];
        for (i, op) in self.ops.iter().enumerate().rev() {
            keep[i] = match op.kind {
                OpKind::Gram(n) | OpKind::Evd(n) => done & 1 << n == 0,
                OpKind::Regrid { .. } | OpKind::Ttm { .. } => live[op.dst],
                OpKind::Norm => true,
                OpKind::Free(_) => false,
            };
            // Earlier readers of this slot read an earlier value.
            live[op.dst] = false;
            if keep[i] && op.reads() {
                live[op.src] = true;
            }
        }
        // One slot per write again, as the builders emit them.
        let (mut name, mut ops) = (vec![0; self.slots()], Vec::new());
        for (op, _) in self.ops.iter().zip(keep).filter(|&(_, k)| k) {
            let mut op = Op {
                src: name[op.src],
                ..*op
            };
            if op.dst != 0 {
                (name[op.dst], op.dst) = (ops.len() + 1, ops.len() + 1);
            }
            ops.push(op);
        }
        with_frees(self.meta, ops)
    }
}

/// The program of one HOOI sweep of `tree` under `scheme`.
///
/// # Panics
/// Panics if the scheme's vectors do not match the tree, or a TTM node
/// that does not regrid has a grid other than its parent's.
pub(crate) fn sweep<'g>(
    meta: &'g TuckerMeta,
    tree: &TtmTree,
    scheme: &'g DynGridScheme,
) -> Program<'g> {
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
pub(crate) fn sweep_on<'g>(meta: &'g TuckerMeta, tree: &TtmTree, g: &'g Grid) -> Program<'g> {
    build(meta, tree, g, |_| g, |_| false)
}

fn build<'g>(
    meta: &'g TuckerMeta,
    tree: &TtmTree,
    initial: &'g Grid,
    grid_of: impl Fn(usize) -> &'g Grid,
    regrid: impl Fn(usize) -> bool,
) -> Program<'g> {
    let mut b = Builder::new(meta, 3 * tree.len() + 2 * meta.order() + 1);
    // Per node: its output.
    let mut out = vec![b.input(); tree.len()];
    for id in tree.topological_order() {
        let node = tree.node(id);
        let Some(parent) = node.parent else { continue };
        let (mut at, grid) = (out[parent], grid_of(id));
        match node.label {
            NodeLabel::Root => unreachable!("only node 0 is the root"),
            NodeLabel::Ttm(mode) => {
                let from = grid_of(parent);
                if regrid(id) {
                    at = b.push(OpKind::Regrid { node: id, from }, at, grid);
                } else {
                    assert_eq!(grid, from, "node {id} changed grids without a regrid");
                }
                out[id] = b.ttm(Some(id), mode, Factor::Previous, at, grid);
            }
            NodeLabel::Leaf(mode) => b.leaf(mode, at, grid),
        }
    }
    let core = b.chain(core_chain_order(meta), initial);
    b.finish(core, initial)
}

/// The ST-HOSVD chain processing modes in `order` on `g`: per mode, the
/// Gram of the current (already truncated) tensor, its truncation, and the
/// TTM by the new factor.
///
/// # Panics
/// Panics if `order` is not a permutation of the modes.
pub(crate) fn sthosvd<'g>(meta: &'g TuckerMeta, order: &[usize], g: &'g Grid) -> Program<'g> {
    let mut sorted = order.to_vec();
    sorted.sort_unstable();
    assert!(
        sorted.into_iter().eq(0..meta.order()),
        "not a permutation: {order:?}"
    );
    let mut b = Builder::new(meta, 4 * order.len() + 1);
    let mut at = b.input();
    for &mode in order {
        b.leaf(mode, at, g);
        at = b.ttm(None, mode, Factor::Latest, at, g);
    }
    b.finish(at, g)
}

/// Textbook Gauss–Seidel HOOI on `g`: per mode `n`, a chain over the other
/// modes (strongest compression first, latest factors) and the mode-`n`
/// Gram of its end, truncated; then the core chain.
pub(crate) fn gauss_seidel<'g>(meta: &'g TuckerMeta, g: &'g Grid) -> Program<'g> {
    let by_h = core_chain_order(meta);
    let mut b = Builder::new(meta, 2 * meta.order() * (meta.order() + 2) + 1);
    for n in 0..meta.order() {
        let at = b.chain(by_h.iter().copied().filter(|&m| m != n), g);
        b.leaf(n, at, g);
    }
    let core = b.chain(by_h, g);
    b.finish(core, g)
}

/// The core-update chain under `g`: one [`OpKind::Ttm`] per mode, strongest
/// compression first ([`core_chain_order`]), each on the previous one's
/// output.
pub(crate) fn core_chain<'g>(meta: &'g TuckerMeta, g: &'g Grid) -> Vec<Op<'g>> {
    let mut b = Builder::new(meta, meta.order());
    b.chain(core_chain_order(meta), g);
    b.ops
}

/// A tensor of a program being built: `(slot, premult, |T|)`.
#[derive(Clone, Copy)]
struct At(usize, u32, f64);

/// A program being built: its operations so far and its slot count.
struct Builder<'g> {
    meta: &'g TuckerMeta,
    ops: Vec<Op<'g>>,
    slots: usize,
}

impl<'g> Builder<'g> {
    fn new(meta: &'g TuckerMeta, capacity: usize) -> Self {
        let ops = Vec::with_capacity(capacity);
        Builder {
            meta,
            ops,
            slots: 1,
        }
    }

    /// The sweep's input, slot 0.
    fn input(&self) -> At {
        At(0, 0, self.meta.input_cardinality())
    }

    /// Append `kind` on `at` under `grid`; returns its output, in a fresh
    /// slot for a regrid or TTM (slot 0 for the other kinds).
    fn push(&mut self, kind: OpKind<'g>, at: At, grid: &'g Grid) -> At {
        let At(src, premult, input) = at;
        let out = match kind {
            OpKind::Regrid { .. } => At(self.slots, premult, input),
            OpKind::Ttm { mode, out, .. } => At(self.slots, premult | 1 << mode, out),
            _ => At(0, premult, input),
        };
        let dst = out.0;
        self.slots += usize::from(dst != 0);
        self.ops.push(Op {
            kind,
            premult,
            input,
            grid,
            src,
            dst,
        });
        out
    }

    /// `at ×_mode F_modeᵀ`: tree node `node`, or a chain step.
    fn ttm(&mut self, node: Option<usize>, mode: usize, factor: Factor, at: At, g: &'g Grid) -> At {
        let out = at.2 * self.meta.h(mode);
        let kind = OpKind::Ttm {
            node,
            mode,
            out,
            factor,
        };
        self.push(kind, at, g)
    }

    /// The mode-`mode` Gram of `at` and its truncation.
    fn leaf(&mut self, mode: usize, at: At, g: &'g Grid) {
        let gram = self.push(OpKind::Gram(mode), at, g);
        self.push(OpKind::Evd(mode), gram, g);
    }

    /// A TTM chain from the sweep's input over `modes`, latest factors.
    fn chain(&mut self, modes: impl IntoIterator<Item = usize>, g: &'g Grid) -> At {
        let mut at = self.input();
        for mode in modes {
            at = self.ttm(None, mode, Factor::Latest, at, g);
        }
        at
    }

    /// Close the sweep with the norm all-reduce of `core`.
    fn finish(mut self, core: At, g: &'g Grid) -> Program<'g> {
        let premult = (1 << self.meta.order()) - 1;
        let core = At(core.0, premult, self.meta.core_cardinality());
        self.push(OpKind::Norm, core, g);
        with_frees(self.meta, self.ops)
    }
}

/// `ops` (closed by the norm, one slot per write) with an
/// [`OpKind::Free`] after the last reader of every slot but the input and
/// the core the norm reads, and a freed slot reused by the next write: the
/// program holds as many slots as it has tensors live at its peak.
fn with_frees<'g>(meta: &'g TuckerMeta, ops: Vec<Op<'g>>) -> Program<'g> {
    let slots = ops.iter().map(|op| op.dst).max().unwrap_or(0) + 1;
    let mut last = vec![usize::MAX; slots];
    for (i, op) in ops.iter().enumerate().filter(|(_, op)| op.reads()) {
        last[op.src] = i;
    }
    let norm = ops.last().expect("a sweep closes with the norm");
    (last[0], last[norm.src]) = (usize::MAX, usize::MAX);
    // Where each slot lives, the released ones, and the next unused one.
    let (mut name, mut free, mut next) = (vec![0; slots], Vec::new(), 1);
    let mut program = Vec::with_capacity(ops.len() + slots);
    for (i, op) in ops.into_iter().enumerate() {
        if op.dst != 0 {
            name[op.dst] = free.pop().unwrap_or_else(|| {
                next += 1;
                next - 1
            });
        }
        let (src, dst) = (name[op.src], name[op.dst]);
        program.push(Op { src, dst, ..op });
        if op.reads() && last[op.src] == i {
            free.push(src);
            // A free describes the tensor it releases.
            let grid = match op.kind {
                OpKind::Regrid { from, .. } => from,
                _ => op.grid,
            };
            let kind = OpKind::Free(src);
            program.push(Op {
                kind,
                grid,
                src: 0,
                dst: 0,
                ..op
            });
        }
    }
    Program { meta, ops: program }
}

/// The [`Op::elements`] of the operations `pick` selects, summed in issue
/// order.
pub(crate) fn elements<'g>(ops: &[Op<'g>], pick: impl Fn(&Op<'g>) -> bool) -> f64 {
    let picked = ops.iter().filter(|op| pick(op));
    picked.fold(0.0, |sum, op| sum + op.elements())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{hooi_loop_from, LoopCfg, Resume, SeqBackend, SweepBackend, SweepStats};
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
    use tucker_tensor::norm::fro_norm_sq;
    use tucker_tensor::DenseTensor;

    /// What a sweep backend was asked to do.
    #[derive(Debug, PartialEq)]
    enum Issued {
        Regrid(usize),
        Ttm(usize, Vec<usize>),
        Gram(usize),
        Norm,
    }

    /// A backend whose tensors are shapes: it logs every operation the
    /// executor issues, regrids where the scheme says so, as the
    /// distributed backend does, and counts the tensors it handed out and
    /// got back.
    struct Recorder<'a> {
        regrid: &'a [bool],
        log: Vec<Issued>,
        live: usize,
        peak: usize,
    }

    impl<'a> Recorder<'a> {
        fn new(regrid: &'a [bool]) -> Self {
            Recorder {
                regrid,
                log: Vec::new(),
                live: 0,
                peak: 0,
            }
        }

        fn hand_out(&mut self, t: Vec<usize>) -> Vec<usize> {
            self.live += 1;
            self.peak = self.peak.max(self.live);
            t
        }
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
            self.hand_out(out)
        }

        fn regrid(
            &mut self,
            t: &Vec<usize>,
            node: usize,
            _: &mut SweepStats,
        ) -> Option<Vec<usize>> {
            self.regrid[node].then(|| {
                self.log.push(Issued::Regrid(node));
                self.hand_out(t.clone())
            })
        }

        fn recycle(&mut self, _: Vec<usize>) {
            self.live -= 1;
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

    /// What the recorder logs for `ops`: every operation but the
    /// truncations and frees.
    fn issued(meta: &TuckerMeta, ops: &[Op]) -> Vec<Issued> {
        let buf = &mut [0; MAX_ORDER];
        let issued = ops.iter().filter_map(|op| match op.kind {
            OpKind::Regrid { node, .. } => Some(Issued::Regrid(node)),
            OpKind::Ttm { mode, .. } => Some(Issued::Ttm(
                mode,
                premult_shape(meta, op.premult, buf).to_vec(),
            )),
            OpKind::Gram(mode) => Some(Issued::Gram(mode)),
            OpKind::Norm => Some(Issued::Norm),
            OpKind::Evd(_) | OpKind::Free(_) => None,
        });
        issued.collect()
    }

    /// Zero `L_n × K_n` factors (the recorder only reads shapes).
    fn zero_factors(meta: &TuckerMeta) -> Vec<Matrix> {
        let zeros = |n| Matrix::zeros(meta.l(n), meta.k(n));
        (0..meta.order()).map(zeros).collect()
    }

    /// The recording test's cases: two metas at P = 64, each with chain,
    /// balanced and optimal trees under their optimal static and dynamic
    /// schemes.
    fn recorded_cases() -> [(TuckerMeta, Vec<(TtmTree, DynGridScheme)>); 2] {
        let cases = [
            TuckerMeta::new([128, 128, 128, 128], [8, 8, 8, 64]),
            TuckerMeta::new([60, 16, 12, 40, 10], [4, 8, 8, 20, 6]),
        ];
        let runs = |meta: &TuckerMeta| {
            let perm: Vec<usize> = (0..meta.order()).collect();
            let trees = [
                chain_tree(meta, &perm),
                balanced_tree(meta, &perm),
                optimal_tree(meta).tree,
            ];
            let schemes = trees.into_iter().flat_map(|tree| {
                let grid = optimal_static_grid(&tree, meta, 64).grid;
                let fixed = DynGridScheme::static_scheme(&tree, meta, grid);
                let dynamic = optimal_dynamic_grids(&tree, meta, 64, DynGridObjective::Exact);
                [(tree.clone(), fixed), (tree, dynamic)]
            });
            schemes.collect()
        };
        cases.map(|meta| {
            let runs = runs(&meta);
            (meta, runs)
        })
    }

    /// One sweep of `program` on a recorder, the modes in `done` predone.
    fn record<'a>(
        meta: &TuckerMeta,
        program: &Program,
        regrid: &'a [bool],
        done: u32,
    ) -> Recorder<'a> {
        let factors = zero_factors(meta);
        let predone: Vec<Option<Matrix>> = (0..meta.order())
            .map(|n| (done & 1 << n != 0).then(|| factors[n].clone()))
            .collect();
        let mut b = Recorder::new(regrid);
        let root = meta.input().dims().to_vec();
        let from = Resume {
            predone: &predone,
            ..Resume::start(factors)
        };
        hooi_loop_from(
            &mut b,
            &root,
            program,
            from,
            1.0,
            LoopCfg::exactly(1),
            &mut (),
        );
        b
    }

    #[test]
    fn premult_masks_accumulate_down_a_chain() {
        let meta = TuckerMeta::new([40, 30, 20, 10], [4, 3, 2, 5]);
        let tree = chain_tree(&meta, &[0, 1, 2, 3]);
        let g = Grid::trivial(4);
        let schedule: Vec<Op> = (sweep_on(&meta, &tree, &g).ops.into_iter())
            .filter(|op| !matches!(op.kind, OpKind::Evd(_) | OpKind::Free(_)))
            .collect();
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

    /// `hooi_loop_from`, the engine's entry point, issues the schedule's
    /// operations, in its order, for chain, balanced and optimal trees
    /// under static and dynamic schemes.
    #[test]
    fn the_executor_issues_exactly_the_schedule() {
        for (meta, runs) in recorded_cases() {
            let mut regrids = 0;
            for (tree, scheme) in &runs {
                let program = sweep(&meta, tree, scheme);
                let b = record(&meta, &program, &scheme.regrid, 0);
                let expect = issued(&meta, &program.ops);
                assert_eq!(b.log, expect, "{meta}");
                regrids += scheme.regrid_count();
            }
            assert!(regrids > 0, "{meta}: no scheme regrids");
        }
    }

    /// The peak number of live slots, folded over the program, is the
    /// interpreter's high-water count of occupied slots (each holds one
    /// tensor the backend handed out and gets back at its `Free`).
    #[test]
    fn the_programs_peak_live_slots_are_the_interpreters_high_water() {
        for (meta, runs) in recorded_cases() {
            for (tree, scheme) in &runs {
                let program = sweep(&meta, tree, scheme);
                let (mut live, mut peak) = (0usize, 0);
                for op in &program.ops {
                    match op.kind {
                        OpKind::Free(_) => live -= 1,
                        _ if op.dst != 0 => live += 1,
                        _ => {}
                    }
                    peak = peak.max(live);
                }
                assert_eq!(live, 1, "only the core outlives the sweep");
                assert_eq!(program.slots(), peak + 1, "a freed slot is reused");
                let b = record(&meta, &program, &scheme.regrid, 0);
                assert_eq!((b.peak, b.live), (peak, live), "{meta}");
            }
        }
    }

    /// A resumed sweep fed the uninterrupted sweep's own factors for any
    /// proper subset of its leaves ends bit-identical to it, and issues the
    /// full program less exactly the operations of the subtrees whose
    /// leaves are all predone.
    #[test]
    fn a_resumed_sweep_skips_exactly_the_predone_subtrees() {
        let meta = TuckerMeta::new([9, 8, 7, 6], [3, 3, 2, 2]);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        let t = DenseTensor::random(meta.input().clone(), &dist, &mut StdRng::seed_from_u64(41));
        let init = crate::sthosvd::sthosvd(&t, &meta).factors;
        let g = Grid::trivial(meta.order());
        let perm: Vec<usize> = (0..meta.order()).collect();
        for tree in [
            chain_tree(&meta, &perm),
            balanced_tree(&meta, &perm),
            optimal_tree(&meta).tree,
        ] {
            // The leaf modes below each node.
            let mut below = vec![0u32; tree.len()];
            for id in tree.topological_order().into_iter().rev() {
                below[id] = match tree.node(id).label {
                    NodeLabel::Leaf(n) => 1 << n,
                    _ => tree.node(id).children.iter().fold(0, |m, &c| m | below[c]),
                };
            }
            let program = sweep_on(&meta, &tree, &g);
            let run = |predone: &[Option<Matrix>]| {
                let (b, cfg) = (&mut SeqBackend::new(), LoopCfg::exactly(1));
                let from = Resume {
                    predone,
                    ..Resume::start(&init[..])
                };
                hooi_loop_from(b, &t, &program, from, fro_norm_sq(&t), cfg, &mut ())
            };
            let full = run(&[]);
            for done in 0..(1u32 << meta.order()) - 1 {
                let predone: Vec<Option<Matrix>> = (0..meta.order())
                    .map(|n| (done & 1 << n != 0).then(|| full.factors[n].clone()))
                    .collect();
                let out = run(&predone);
                for (f, want) in out.factors.iter().zip(&full.factors) {
                    assert_eq!(f.as_slice(), want.as_slice(), "{tree:?} done {done:b}");
                }
                assert_eq!(out.core.as_slice(), full.core.as_slice());

                let pruned = |op: &Op| match op.kind {
                    OpKind::Regrid { node, .. }
                    | OpKind::Ttm {
                        node: Some(node), ..
                    } => below[node] & !done == 0,
                    OpKind::Gram(n) => done & 1 << n != 0,
                    _ => false,
                };
                let expect: Vec<Op> = program
                    .ops
                    .iter()
                    .filter(|op| !pruned(op))
                    .copied()
                    .collect();
                let log = record(&meta, &program, &[], done).log;
                assert_eq!(log, issued(&meta, &expect), "done {done:b}");
            }
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
            for op in plan.schedule().ops {
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
