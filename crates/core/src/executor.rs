//! The sweep executor: **one** canonical implementation of the
//! Gram → EVD-truncation → TTM execution loops, pluggable over execution
//! backends.
//!
//! The paper frames distributed Tucker as a single algorithm — interleaved
//! Gram/EVD/TTM sweeps — whose performance is determined by the *schedule*
//! (TTM-tree, mode order, grid). This module owns that algorithm exactly
//! once:
//!
//! * [`hooi_sweep`] — one HOOI invocation: walk the TTM-tree (sharing each
//!   node's output across its children), EVD-truncate every leaf's Gram,
//!   then chain the new core;
//! * [`sthosvd_sweep`] — the STHOSVD chain: per mode, Gram → leading
//!   eigenvectors → truncate;
//! * [`gauss_seidel_sweep`] — the textbook ALS variant (latest factors,
//!   `N·(N−1)` TTMs), kept as the convergence reference;
//! * [`hooi_loop`] — iterate [`hooi_sweep`] with the convergence check
//!   (`|Δerror| < tol`), recycling each superseded core. It is the one HOOI
//!   loop: `hooi_loop_from` is its checkpoint/restore form, the engine
//!   runs it per rank and the server per distinct request.
//!
//! What varies between sequential, shared-memory-parallel, and simulated-MPI
//! execution is captured by the [`SweepBackend`] trait: `gram`, `ttm`, an
//! optional per-node `regrid`, an `allreduce`, buffer recycling, and the
//! sweep-window hooks. Each operation adds its own time to the named phase
//! fields of the unified [`SweepStats`]. The three backends are
//!
//! * [`SeqBackend`] — strictly sequential host execution through a
//!   [`TtmWorkspace`] (zero tensor-sized allocations at steady state);
//! * [`RayonBackend`] — the same workspace discipline, but every Gram
//!   partitions its fiber range and every TTM its slab range into one part
//!   per host core (`tucker_tensor::{gram_threads, ttm_into_threads}`), run
//!   on the process's persistent worker team (`tucker_linalg::Pool`; the
//!   name predates it and is pinned by the benchmark);
//! * `DistsimBackend` (private to [`crate::engine`]) — the simulated-MPI
//!   backend over `tucker-distsim`, measured or virtual-time.
//!
//! Sequential HOOI is these functions on a [`SeqBackend`];
//! `sthosvd_with_order`, [`DistRun::run`](crate::engine::DistRun::run) and
//! `run_distributed_sthosvd` are thin shims over them. A new scenario
//! (strategy, machine model, backend) lands here and nowhere else.

use crate::meta::TuckerMeta;
use crate::plan::order::core_chain_order;
use crate::plan::tree::{NodeLabel, TtmTree};
use std::rc::Rc;
use std::time::{Duration, Instant};
use tucker_linalg::{leading_from_gram, Matrix};
use tucker_tensor::norm::{fro_norm_sq, relative_error_from_core};
use tucker_tensor::{gram_threads, DenseTensor, TtmWorkspace};

/// Provenance of the plan that drove a sweep, recorded by the engines so
/// stats consumers can key measurements back to the planner's decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanProvenance {
    /// The plan's `"(tree, grid)"` name (or a schedule description for
    /// plan-less runs like the STHOSVD chain).
    pub plan: String,
    /// The planner's α–β prediction of this sweep's communication wall
    /// (`NetCostModel::predict_sweep(..).comm_wall`); only populated for
    /// virtual-time runs, where it equals [`SweepStats::comm_wall`] to the
    /// nanosecond (asserted by the planner and scaling suites).
    pub predicted_comm: Option<Duration>,
}

/// Per-sweep measurements, reported identically by every backend (for
/// distributed backends, aggregated across ranks by
/// `SweepStats::merge_max`: times are the maximum over ranks, the way an
/// MPI experiment reports them; volumes are the sum of what each rank itself
/// sent during its sweep). Backends add each phase's time to its field;
/// communication phases stay zero on shared-memory backends.
#[derive(Clone, Debug, Default)]
pub struct SweepStats {
    /// Time inside TTM kernels minus their communication share.
    pub ttm_compute: Duration,
    /// Communication time of TTM reduce-scatters.
    pub ttm_comm: Duration,
    /// Communication time of regrid all-to-alls.
    pub regrid_comm: Duration,
    /// Local Gram + EVD time (the paper's "SVD" bar in Figure 10c).
    pub svd: Duration,
    /// Communication time of the Gram column-share exchange and all-reduce.
    pub gram_comm: Duration,
    /// End-to-end time of the sweep (max over ranks).
    pub wall: Duration,
    /// Pure communication time of the whole sweep window, **all**
    /// categories included (max over ranks) — zero on shared-memory
    /// backends. Under virtual time this is the per-rank α–β clock the
    /// planner's `NetCostModel` predicts to the nanosecond.
    pub comm_wall: Duration,
    /// Elements moved by TTM reduce-scatters.
    pub ttm_volume: u64,
    /// Elements moved by regrids.
    pub regrid_volume: u64,
    /// Elements moved by the Gram step.
    pub gram_volume: u64,
    /// Bytes staged through the packed-kernel pack buffers during the sweep
    /// window on behalf of the calling thread: its own packing plus what the
    /// worker team packed in the parallel regions it opened (see
    /// [`tucker_linalg::bytes_packed`]). Host backends fill this; distsim
    /// leaves it zero — its ranks run the same packed kernels (`dist_ttm` →
    /// `tucker_tensor::ttm_into_threads`, `dist_gram` → `ColumnShare::gram`,
    /// both dispatching on `pack::use_packed`), but on mesh worker
    /// threads whose thread-local counters the engine does not collect.
    pub kernel_bytes: u64,
    /// Relative error after this sweep.
    pub error: f64,
    /// The plan that drove this sweep (filled by the engines; `None` on the
    /// raw executor API).
    pub provenance: Option<PlanProvenance>,
}

impl SweepStats {
    /// Merge another rank's stats: times and kernel bytes max, volumes
    /// summed, error replicated.
    pub(crate) fn merge_max(&mut self, other: &SweepStats) {
        self.ttm_compute = self.ttm_compute.max(other.ttm_compute);
        self.ttm_comm = self.ttm_comm.max(other.ttm_comm);
        self.regrid_comm = self.regrid_comm.max(other.regrid_comm);
        self.svd = self.svd.max(other.svd);
        self.gram_comm = self.gram_comm.max(other.gram_comm);
        self.wall = self.wall.max(other.wall);
        self.comm_wall = self.comm_wall.max(other.comm_wall);
        // Each rank reports the elements it sent itself during the sweep;
        // the sum across ranks is the sweep's traffic, whatever order the
        // ranks ran in.
        self.ttm_volume += other.ttm_volume;
        self.regrid_volume += other.regrid_volume;
        self.gram_volume += other.gram_volume;
        self.kernel_bytes = self.kernel_bytes.max(other.kernel_bytes);
        self.error = other.error; // identical on every rank
        if self.provenance.is_none() {
            self.provenance.clone_from(&other.provenance);
        }
    }
}

/// What an execution backend provides to the sweep loops. Each operation
/// charges its own time to the right [`SweepStats`] phases (the backend
/// knows which clock and which communication category apply); the executor
/// contributes only the backend-agnostic steps (EVD truncation, error).
pub trait SweepBackend {
    /// The working tensor representation: a [`DenseTensor`] on host
    /// backends, one rank's distributed block under distsim.
    type Tensor;

    /// The backend's compute clock (monotonic within a run). Used by the
    /// executor to time the EVD-truncation step onto [`SweepStats::svd`]
    /// consistently with how the backend times its Gram.
    fn clock(&self) -> Duration;

    /// Open a sweep window (wall anchor + communication-volume snapshot).
    fn sweep_begin(&mut self);

    /// Close the window opened by [`SweepBackend::sweep_begin`]: fill
    /// `stats.wall` and the volume fields.
    fn sweep_end(&mut self, stats: &mut SweepStats);

    /// The (globally replicated) Gram matrix of the mode-`n` unfolding.
    /// Adds to [`SweepStats::svd`] and [`SweepStats::gram_comm`].
    fn gram(&mut self, t: &Self::Tensor, n: usize, stats: &mut SweepStats) -> Matrix;

    /// `t ×_n factor_t` with `factor_t` already transposed (`K × L_n`).
    /// Adds to [`SweepStats::ttm_compute`] and [`SweepStats::ttm_comm`].
    fn ttm(
        &mut self,
        t: &Self::Tensor,
        n: usize,
        factor_t: &Matrix,
        stats: &mut SweepStats,
    ) -> Self::Tensor;

    /// Optional redistribution before executing tree node `node` (the
    /// dynamic-gridding hook; `None` means "keep the current grid", which is
    /// the only answer shared-memory backends ever give). Adds to
    /// [`SweepStats::regrid_comm`].
    fn regrid(
        &mut self,
        t: &Self::Tensor,
        node: usize,
        stats: &mut SweepStats,
    ) -> Option<Self::Tensor> {
        let _ = (t, node, stats);
        None
    }

    /// Return a superseded intermediate's buffer for reuse.
    fn recycle(&mut self, t: Self::Tensor) {
        let _ = t;
    }

    /// The leading `k` eigenvectors of a leaf's Gram matrix. Every
    /// participant holds the same Gram and replicates this step; a backend
    /// that simulates many participants may compute it once for all of them.
    fn leading(&mut self, gram: &Matrix, k: usize) -> Matrix {
        leading_from_gram(gram, k).u
    }

    /// This participant's share of `‖t‖²_F` (combined by
    /// [`SweepBackend::allreduce`]).
    fn local_norm_sq(&mut self, t: &Self::Tensor) -> f64;

    /// Sum a scalar across all participants (identity on shared memory).
    fn allreduce(&mut self, x: f64) -> f64 {
        x
    }

    /// `‖t‖²_F` of the global tensor.
    fn norm_sq(&mut self, t: &Self::Tensor) -> f64 {
        let local = self.local_norm_sq(t);
        self.allreduce(local)
    }
}

/// Observer of sweep progress — the checkpoint hook of the recovery layer
/// (DESIGN.md §9). The executor calls it at the three points a resumable
/// run can be reconstructed from: sweep start, each completed leaf (the new
/// factor is replicated on every participant, so a first-write-wins
/// recorder is exact), and sweep end. All methods default to no-ops; `()`
/// is the "no observer" instance.
pub(crate) trait SweepObserver {
    /// Sweep `sweep` is about to walk the tree.
    fn sweep_started(&mut self, sweep: usize) {
        let _ = sweep;
    }

    /// The leaf of `mode` finished during `sweep`: `factor` is the new
    /// factor matrix (identical on every participant — the Gram is
    /// all-reduced and the EVD truncation is deterministic).
    fn leaf_done(&mut self, sweep: usize, mode: usize, factor: &Matrix) {
        let _ = (sweep, mode, factor);
    }

    /// Sweep `sweep` completed with `factors` and `stats`.
    fn sweep_done(&mut self, sweep: usize, factors: &[Matrix], stats: &SweepStats) {
        let _ = (sweep, factors, stats);
    }
}

impl SweepObserver for () {}

/// A node's input during a tree walk or chain: the root tensor is borrowed
/// (never cloned, never recycled); intermediates are reference-counted so a
/// node shared by several children is recycled exactly when its last
/// consumer finishes.
enum NodeInput<'a, T> {
    Root(&'a T),
    Interm(Rc<T>),
}

impl<T> NodeInput<'_, T> {
    fn tensor(&self) -> &T {
        match self {
            NodeInput::Root(t) => t,
            NodeInput::Interm(rc) => rc,
        }
    }

    /// Consume this input, returning its buffer to the backend if this was
    /// the last reference to an intermediate.
    fn release<B: SweepBackend<Tensor = T>>(self, b: &mut B) {
        if let NodeInput::Interm(rc) = self {
            if let Ok(t) = Rc::try_unwrap(rc) {
                b.recycle(t);
            }
        }
    }
}

/// Result of one sweep: the new factors (replicated on every participant),
/// the new core in the backend's representation, and the phase-keyed stats.
pub struct SweepOutcome<T> {
    /// The new factor matrices, one per mode.
    pub factors: Vec<Matrix>,
    /// The new core tensor.
    pub core: T,
    /// Phase breakdown, volumes, wall and error of this sweep.
    pub stats: SweepStats,
}

/// Transpose every factor once (`F_n → F_nᵀ`), hoisting the per-TTM
/// transpose out of tree walks and chains where each factor is used many
/// times per sweep.
pub(crate) fn transpose_all(factors: &[Matrix]) -> Vec<Matrix> {
    factors.iter().map(Matrix::transpose).collect()
}

/// Fold `root` through a TTM-chain over `modes` (pre-transposed factors),
/// ping-ponging intermediates through the backend and recycling each as
/// soon as the next step consumed it. Returns `None` when `modes` is empty
/// (the result is `root` itself — no clone, no allocation).
fn chain<B: SweepBackend>(
    b: &mut B,
    root: &B::Tensor,
    modes: &[usize],
    factors_t: &[Matrix],
    stats: &mut SweepStats,
) -> Option<B::Tensor> {
    let mut cur: Option<B::Tensor> = None;
    for &n in modes {
        let next = b.ttm(cur.as_ref().unwrap_or(root), n, &factors_t[n], stats);
        if let Some(old) = cur.replace(next) {
            b.recycle(old);
        }
    }
    cur
}

/// EVD-truncate a Gram matrix to its leading `k` eigenvectors, charging the
/// time to [`SweepStats::svd`] on the backend's compute clock.
fn truncate<B: SweepBackend>(b: &mut B, g: &Matrix, k: usize, stats: &mut SweepStats) -> Matrix {
    let t0 = b.clock();
    let f = b.leading(g, k);
    stats.svd += b.clock().saturating_sub(t0);
    f
}

/// One HOOI invocation of `tree` on `root` starting from `factors`
/// (Jacobi-style: every leaf uses the factors from the start of the
/// invocation, exactly as the paper's tree formulation requires, so
/// intermediate tensors can be shared between chains). The new core is
/// chained from the new factors at the end; the error uses the core-norm
/// identity against `input_norm_sq`.
///
/// # Panics
/// Panics if the tree is invalid for the metadata's order, or a factor
/// arity mismatches.
pub fn hooi_sweep<B: SweepBackend>(
    b: &mut B,
    root: &B::Tensor,
    meta: &TuckerMeta,
    tree: &TtmTree,
    factors: &[Matrix],
    input_norm_sq: f64,
) -> SweepOutcome<B::Tensor> {
    hooi_sweep_resumed(b, root, meta, tree, factors, input_norm_sq, 0, &[], &mut ())
}

/// [`hooi_sweep`] generalized for checkpoint/restore: `sweep` is the global
/// sweep index reported to `obs`, and `predone` carries leaf factors already
/// computed by an interrupted run of this same sweep (empty slice: none).
/// Subtrees whose leaves are all predone are pruned — their TTMs, regrids
/// and Grams are skipped entirely, which is what makes resuming from the
/// last completed leaf cheaper than re-running the sweep. Predone factors
/// are spliced into the outcome unchanged, so a resumed sweep is
/// mathematically identical to the uninterrupted one; its stats cover only
/// the work actually executed.
///
/// # Panics
/// Panics if a non-empty `predone` mismatches the mode count, or the tree
/// or factor arity is invalid.
#[allow(clippy::too_many_arguments)]
fn hooi_sweep_resumed<B: SweepBackend, O: SweepObserver>(
    b: &mut B,
    root: &B::Tensor,
    meta: &TuckerMeta,
    tree: &TtmTree,
    factors: &[Matrix],
    input_norm_sq: f64,
    sweep: usize,
    predone: &[Option<Matrix>],
    obs: &mut O,
) -> SweepOutcome<B::Tensor> {
    assert_eq!(factors.len(), meta.order(), "factor arity mismatch");
    assert!(
        predone.is_empty() || predone.len() == meta.order(),
        "predone arity mismatch"
    );
    tree.validate().expect("invalid TTM tree");
    obs.sweep_started(sweep);

    // Which nodes still need to execute: a leaf iff its factor is not
    // predone, an internal node iff any node below it is needed. Computed
    // post-order over the arena (children always have larger ids than their
    // parent, so a reverse scan is a valid post-order).
    let mut needed: Vec<bool> = vec![false; tree.len()];
    for id in (0..tree.len()).rev() {
        needed[id] = match tree.node(id).label {
            NodeLabel::Root => true,
            NodeLabel::Ttm(_) => tree.node(id).children.iter().any(|&c| needed[c]),
            NodeLabel::Leaf(n) => predone.get(n).is_none_or(|f| f.is_none()),
        };
    }

    b.sweep_begin();
    let mut stats = SweepStats::default();
    let mut new_factors: Vec<Option<Matrix>> = predone.to_vec();
    new_factors.resize(meta.order(), None);
    // Hoisted once: each F_nᵀ is reused by every tree node on mode n.
    let factors_t = transpose_all(factors);

    // Walk the tree depth-first, reusing each node's output for all its
    // children (in-order traversal bounds live intermediates by the depth).
    let mut stack: Vec<(usize, NodeInput<B::Tensor>)> = Vec::new();
    for &c in tree.node(tree.root()).children.iter().rev() {
        if needed[c] {
            stack.push((c, NodeInput::Root(root)));
        }
    }
    while let Some((id, input)) = stack.pop() {
        match tree.node(id).label {
            NodeLabel::Root => unreachable!("root is never on the stack"),
            NodeLabel::Ttm(n) => {
                // Optional regrid to this node's grid.
                let input = match b.regrid(input.tensor(), id, &mut stats) {
                    Some(regridded) => {
                        input.release(b);
                        NodeInput::Interm(Rc::new(regridded))
                    }
                    None => input,
                };
                let out = Rc::new(b.ttm(input.tensor(), n, &factors_t[n], &mut stats));
                input.release(b);
                for &c in tree.node(id).children.iter().rev() {
                    if needed[c] {
                        stack.push((c, NodeInput::Interm(Rc::clone(&out))));
                    }
                }
            }
            NodeLabel::Leaf(n) => {
                let g = b.gram(input.tensor(), n, &mut stats);
                input.release(b);
                let f = truncate(b, &g, meta.k(n), &mut stats);
                obs.leaf_done(sweep, n, &f);
                assert!(
                    new_factors[n].replace(f).is_none(),
                    "leaf for mode {n} computed twice"
                );
            }
        }
    }

    let factors: Vec<Matrix> = new_factors
        .into_iter()
        .enumerate()
        .map(|(n, f)| f.unwrap_or_else(|| panic!("no leaf computed mode {n}")))
        .collect();

    // New core: G̃ = T ×₁ F̃₁ᵀ … ×_N F̃_Nᵀ (not part of the §4 tree; runs
    // under the input's grid with no regrids).
    let new_factors_t = transpose_all(&factors);
    let core = chain(b, root, &core_chain_order(meta), &new_factors_t, &mut stats)
        .expect("at least one mode");

    let core_norm_sq = b.norm_sq(&core);
    stats.error = relative_error_from_core(input_norm_sq, core_norm_sq);
    b.sweep_end(&mut stats);
    obs.sweep_done(sweep, &factors, &stats);

    SweepOutcome {
        factors,
        core,
        stats,
    }
}

/// The STHOSVD chain on `root`, processing modes in `order`: per mode,
/// Gram of the *current* (already truncated) tensor → leading `K_n`
/// eigenvectors → truncate. Early truncations make later Grams cheap.
///
/// # Panics
/// Panics if `order` is not a permutation of the modes.
pub fn sthosvd_sweep<B: SweepBackend>(
    b: &mut B,
    root: &B::Tensor,
    meta: &TuckerMeta,
    order: &[usize],
    input_norm_sq: f64,
) -> SweepOutcome<B::Tensor> {
    let n_modes = meta.order();
    assert_eq!(order.len(), n_modes, "order arity mismatch");
    let mut seen = vec![false; n_modes];
    for &m in order {
        assert!(m < n_modes && !seen[m], "not a permutation: {order:?}");
        seen[m] = true;
    }

    b.sweep_begin();
    let mut stats = SweepStats::default();
    // `cur = None` means "still the input"; the backend ping-pongs the
    // truncated intermediates so `root` is never cloned and each replaced
    // intermediate's buffer is immediately reused.
    let mut cur: Option<B::Tensor> = None;
    let mut factors: Vec<Option<Matrix>> = vec![None; n_modes];
    for &mode in order {
        let src = cur.as_ref().unwrap_or(root);
        let g = b.gram(src, mode, &mut stats);
        let f = truncate(b, &g, meta.k(mode), &mut stats);
        let next = b.ttm(
            cur.as_ref().unwrap_or(root),
            mode,
            &f.transpose(),
            &mut stats,
        );
        if let Some(old) = cur.replace(next) {
            b.recycle(old);
        }
        factors[mode] = Some(f);
    }
    let core = cur.expect("at least one mode processed");
    let factors: Vec<Matrix> = factors
        .into_iter()
        .map(|f| f.expect("all modes processed"))
        .collect();

    let core_norm_sq = b.norm_sq(&core);
    stats.error = relative_error_from_core(input_norm_sq, core_norm_sq);
    b.sweep_end(&mut stats);

    SweepOutcome {
        factors,
        core,
        stats,
    }
}

/// Textbook Gauss–Seidel HOOI invocation (De Lathauwer et al.): modes are
/// updated one at a time and each TTM-chain uses the **latest** factors.
/// Cannot share intermediates between chains (the naive `N·(N−1)` TTMs) but
/// inherits the classic ALS guarantee: the error is non-increasing across
/// invocations. Serves as the convergence reference and an ablation point.
pub fn gauss_seidel_sweep<B: SweepBackend>(
    b: &mut B,
    root: &B::Tensor,
    meta: &TuckerMeta,
    factors: &[Matrix],
    input_norm_sq: f64,
) -> SweepOutcome<B::Tensor> {
    assert_eq!(factors.len(), meta.order(), "factor arity mismatch");
    let n_modes = meta.order();

    b.sweep_begin();
    let mut stats = SweepStats::default();
    let mut factors: Vec<Matrix> = factors.to_vec();
    // Transposed mirror of `factors`, refreshed entry-by-entry as the
    // Gauss–Seidel sweep updates each mode.
    let mut factors_t = transpose_all(&factors);
    let by_h = core_chain_order(meta);

    for n in 0..n_modes {
        // Chain over the other modes, strongest compression first.
        let order: Vec<usize> = by_h.iter().copied().filter(|&j| j != n).collect();
        let cur = chain(b, root, &order, &factors_t, &mut stats);
        let g = b.gram(cur.as_ref().unwrap_or(root), n, &mut stats);
        if let Some(done) = cur {
            b.recycle(done);
        }
        factors[n] = truncate(b, &g, meta.k(n), &mut stats);
        factors_t[n] = factors[n].transpose();
    }

    let core = chain(b, root, &by_h, &factors_t, &mut stats).expect("at least one mode");
    let core_norm_sq = b.norm_sq(&core);
    stats.error = relative_error_from_core(input_norm_sq, core_norm_sq);
    b.sweep_end(&mut stats);

    SweepOutcome {
        factors,
        core,
        stats,
    }
}

/// Result of [`hooi_loop`].
pub struct LoopOutcome<T> {
    /// Factors after the last executed sweep.
    pub factors: Vec<Matrix>,
    /// Core after the last executed sweep.
    pub core: T,
    /// Stats of every executed sweep, in order.
    pub per_sweep: Vec<SweepStats>,
    /// Error trace (one entry per sweep; equals `per_sweep[i].error`).
    pub errors: Vec<f64>,
}

/// Iteration control of [`hooi_loop`].
#[derive(Clone, Copy, Debug)]
pub struct LoopCfg {
    /// Upper bound on sweeps (at least 1).
    pub max_sweeps: usize,
    /// Convergence threshold on `|Δerror|`; `0.0` disables the check (the
    /// loop runs exactly `max_sweeps` sweeps).
    pub tol: f64,
}

impl LoopCfg {
    /// Run exactly `sweeps` sweeps, no convergence check.
    pub fn exactly(sweeps: usize) -> Self {
        LoopCfg {
            max_sweeps: sweeps,
            tol: 0.0,
        }
    }

    /// The one convergence rule of every sweep loop: the last two entries
    /// of the error trace `errors` differ by less than `tol`.
    pub(crate) fn converged(&self, errors: &[f64]) -> bool {
        matches!(errors, [.., prev, last] if (prev - last).abs() < self.tol)
    }
}

/// Iterate [`hooi_sweep`] until `LoopCfg::converged` or `cfg.max_sweeps`
/// invocations have run. Each superseded core is recycled into
/// the backend, so on workspace backends every sweep after the first is
/// free of tensor-sized allocations.
///
/// # Panics
/// Panics if `cfg.max_sweeps` is zero or the tree/factors are invalid.
pub fn hooi_loop<B: SweepBackend>(
    b: &mut B,
    root: &B::Tensor,
    meta: &TuckerMeta,
    tree: &TtmTree,
    init_factors: Vec<Matrix>,
    input_norm_sq: f64,
    cfg: LoopCfg,
) -> LoopOutcome<B::Tensor> {
    hooi_loop_from(
        b,
        root,
        meta,
        tree,
        init_factors,
        input_norm_sq,
        cfg,
        0,
        &[],
        &mut (),
    )
}

/// [`hooi_loop`] generalized for checkpoint/restore: sweeps run with global
/// indices `first_sweep .. cfg.max_sweeps` (so `cfg.max_sweeps` stays the
/// *total* sweep budget across interruptions), `predone` carries the leaf
/// factors an interrupted run of sweep `first_sweep` already completed, and
/// `obs` sees every sweep boundary and leaf. `init_factors` are the factors
/// the interrupted sweep started from (for `first_sweep == 0`, the HOSVD
/// init). The returned `per_sweep`/`errors` cover only the sweeps executed
/// here — the recovery layer splices them after the checkpointed ones.
///
/// # Panics
/// Panics if `first_sweep >= cfg.max_sweeps` or the tree/factors are
/// invalid.
#[allow(clippy::too_many_arguments)]
pub(crate) fn hooi_loop_from<B: SweepBackend, O: SweepObserver>(
    b: &mut B,
    root: &B::Tensor,
    meta: &TuckerMeta,
    tree: &TtmTree,
    init_factors: Vec<Matrix>,
    input_norm_sq: f64,
    cfg: LoopCfg,
    first_sweep: usize,
    predone: &[Option<Matrix>],
    obs: &mut O,
) -> LoopOutcome<B::Tensor> {
    assert!(cfg.max_sweeps >= 1, "need at least one sweep");
    assert!(
        first_sweep < cfg.max_sweeps,
        "first sweep {first_sweep} outside the {} sweep budget",
        cfg.max_sweeps
    );
    let mut factors = init_factors;
    let mut core: Option<B::Tensor> = None;
    let mut per_sweep: Vec<SweepStats> = Vec::with_capacity(cfg.max_sweeps - first_sweep);
    let mut errors: Vec<f64> = Vec::with_capacity(cfg.max_sweeps - first_sweep);
    for sweep in first_sweep..cfg.max_sweeps {
        let pre: &[Option<Matrix>] = if sweep == first_sweep { predone } else { &[] };
        let out = hooi_sweep_resumed(
            b,
            root,
            meta,
            tree,
            &factors,
            input_norm_sq,
            sweep,
            pre,
            obs,
        );
        factors = out.factors;
        if let Some(old) = core.replace(out.core) {
            b.recycle(old);
        }
        errors.push(out.stats.error);
        per_sweep.push(out.stats);
        if cfg.converged(&errors) {
            break;
        }
    }
    LoopOutcome {
        factors,
        core: core.expect("at least one sweep ran"),
        per_sweep,
        errors,
    }
}

// ------------------------------------------------------------ host backends

/// Shared implementation of the two host (shared-memory) backends: a
/// [`TtmWorkspace`] for grow-only buffer reuse plus a pinned partition
/// count. `PAR = false` is [`SeqBackend`] (count locked to 1, strictly
/// sequential kernels); `PAR = true` is [`RayonBackend`] (fiber/slab ranges
/// of every kernel split into the pinned number of parts, executed on the
/// shared worker team however wide that is).
pub struct HostBackend<const PAR: bool> {
    threads: usize,
    ws: TtmWorkspace,
    epoch: Instant,
    sweep_t0: Duration,
    sweep_pack0: u64,
}

/// Strictly sequential host backend (today's reference path): one worker,
/// workspace buffer reuse, zero tensor-sized allocations at steady state.
pub type SeqBackend = HostBackend<false>;

/// Shared-memory multicore host backend: Gram fiber ranges and TTM slab
/// ranges are partitioned across host cores on the persistent worker team
/// (`tucker_linalg::Pool::shared`). Same workspace discipline (and therefore
/// the same steady-state allocation behavior) as [`SeqBackend`]; results
/// agree to summation-order ulps.
pub type RayonBackend = HostBackend<true>;

impl<const PAR: bool> HostBackend<PAR> {
    fn with_thread_count(threads: usize) -> Self {
        HostBackend {
            threads: threads.max(1),
            ws: TtmWorkspace::new(),
            epoch: Instant::now(),
            sweep_t0: Duration::ZERO,
            sweep_pack0: 0,
        }
    }

    /// The partition count this backend flavor pins by construction: 1 for
    /// [`SeqBackend`], the host's thread count — a constant of the host,
    /// and the width of the worker team — for [`RayonBackend`].
    fn auto_threads() -> usize {
        if PAR {
            tucker_tensor::host_threads()
        } else {
            1
        }
    }

    /// Adopt an existing workspace (e.g. one kept warm across invocations
    /// by a caller that owns the iteration).
    pub(crate) fn from_workspace(ws: TtmWorkspace) -> Self {
        let mut b = Self::with_thread_count(Self::auto_threads());
        b.ws = ws;
        b
    }

    /// Surrender the workspace (with whatever buffers it accumulated).
    pub fn into_workspace(self) -> TtmWorkspace {
        self.ws
    }

    /// The pinned worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for SeqBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl SeqBackend {
    /// A sequential backend (worker count locked to 1).
    pub fn new() -> Self {
        Self::with_thread_count(1)
    }
}

impl Default for RayonBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl RayonBackend {
    /// A multicore backend pinned to the host's available parallelism.
    pub fn new() -> Self {
        Self::with_thread_count(Self::auto_threads())
    }

    /// A multicore backend with an explicit partition count (the Gram's
    /// summation grouping follows it; the team's width does not change).
    pub fn with_threads(threads: usize) -> Self {
        Self::with_thread_count(threads)
    }
}

impl<const PAR: bool> SweepBackend for HostBackend<PAR> {
    type Tensor = DenseTensor;

    fn clock(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sweep_begin(&mut self) {
        self.sweep_t0 = self.epoch.elapsed();
        self.sweep_pack0 = tucker_linalg::bytes_packed();
    }

    fn sweep_end(&mut self, stats: &mut SweepStats) {
        stats.wall = self.epoch.elapsed().saturating_sub(self.sweep_t0);
        // Volumes stay zero: nothing crosses a memory boundary. Kernel
        // bytes are the pack-buffer traffic of this window, the team's
        // share of this thread's regions included.
        stats.kernel_bytes = tucker_linalg::bytes_packed().saturating_sub(self.sweep_pack0);
    }

    fn gram(&mut self, t: &DenseTensor, n: usize, stats: &mut SweepStats) -> Matrix {
        let t0 = self.epoch.elapsed();
        let threads = if PAR { self.threads } else { 1 };
        let g = gram_threads(t, n, threads);
        stats.svd += self.epoch.elapsed().saturating_sub(t0);
        g
    }

    fn ttm(
        &mut self,
        t: &DenseTensor,
        n: usize,
        factor_t: &Matrix,
        stats: &mut SweepStats,
    ) -> DenseTensor {
        let t0 = self.epoch.elapsed();
        let threads = if PAR { self.threads } else { 1 };
        let out = self.ws.ttm_threads(t, n, factor_t, threads);
        stats.ttm_compute += self.epoch.elapsed().saturating_sub(t0);
        out
    }

    fn recycle(&mut self, t: DenseTensor) {
        self.ws.recycle(t);
    }

    fn local_norm_sq(&mut self, t: &DenseTensor) -> f64 {
        fro_norm_sq(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tree::{balanced_tree, chain_tree, optimal_tree};
    use crate::sthosvd::{random_init, sthosvd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tucker_tensor::Shape;

    /// Smooth, compressible but non-separable synthetic field with a small
    /// deterministic noise floor (keeps errors well above machine epsilon
    /// and Gram eigenvalues simple).
    fn smooth_tensor(dims: &[usize]) -> DenseTensor {
        DenseTensor::from_fn(Shape::new(dims.to_vec()), |c| {
            let mut s = 0.0;
            let mut h = 0x9E37_79B9_7F4A_7C15u64;
            for (i, &x) in c.iter().enumerate() {
                s += (0.9 + 0.13 * i as f64) * x as f64;
                h = (h ^ (x as u64).wrapping_mul(0xff51_afd7_ed55_8ccd))
                    .rotate_left(31)
                    .wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            }
            let noise = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            (0.21 * s).sin() + 0.5 * (0.043 * s * s).cos() + 0.05 * noise
        })
    }

    /// One HOOI sweep of `tree` from `factors` on a fresh sequential backend.
    fn seq_sweep(
        t: &DenseTensor,
        meta: &TuckerMeta,
        tree: &TtmTree,
        factors: &[Matrix],
    ) -> SweepOutcome<DenseTensor> {
        hooi_sweep(
            &mut SeqBackend::new(),
            t,
            meta,
            tree,
            factors,
            fro_norm_sq(t),
        )
    }

    /// [`hooi_loop`] on a chain tree from the STHOSVD init.
    fn seq_loop(t: &DenseTensor, meta: &TuckerMeta, cfg: LoopCfg) -> LoopOutcome<DenseTensor> {
        let init = sthosvd(t, meta);
        let tree = chain_tree(meta, &(0..meta.order()).collect::<Vec<_>>());
        let mut b = SeqBackend::new();
        b.recycle(init.core);
        hooi_loop(&mut b, t, meta, &tree, init.factors, fro_norm_sq(t), cfg)
    }

    #[test]
    fn all_trees_produce_identical_factors() {
        // Same (old) factors in, so every valid tree computes the same new
        // decomposition (commutativity + deterministic EVD).
        let dims = [6usize, 7, 5, 4];
        let t = smooth_tensor(&dims);
        let meta = TuckerMeta::new(dims.to_vec(), vec![3, 2, 2, 2]);
        let init = sthosvd(&t, &meta).factors;
        let perm: Vec<usize> = (0..4).collect();
        let trees = [
            chain_tree(&meta, &perm),
            chain_tree(&meta, &[3, 2, 1, 0]),
            balanced_tree(&meta, &perm),
            optimal_tree(&meta).tree,
        ];
        let outs: Vec<_> = trees
            .iter()
            .map(|tr| seq_sweep(&t, &meta, tr, &init))
            .collect();
        for o in &outs[1..] {
            assert!((o.stats.error - outs[0].stats.error).abs() < 1e-10);
            for (f1, f2) in o.factors.iter().zip(&outs[0].factors) {
                assert!(f1.max_abs_diff(f2) < 1e-7, "factor mismatch between trees");
            }
        }
    }

    #[test]
    fn jacobi_tree_sweep_improves_a_random_init() {
        // Tree-based (Jacobi) HOOI is not guaranteed monotone near a fixed
        // point, but a single sweep from a random subspace must improve by a
        // wide margin.
        let dims = [8usize, 7, 6];
        let t = smooth_tensor(&dims);
        let meta = TuckerMeta::new(dims.to_vec(), vec![3, 3, 2]);
        let mut rng = StdRng::seed_from_u64(99);
        let init = random_init(&t, &meta, &mut rng);
        let e0 = init.error_from_core_norm(fro_norm_sq(&t));
        let tree = chain_tree(&meta, &[0, 1, 2]);
        let out = seq_sweep(&t, &meta, &tree, &init.factors);
        assert!(
            out.stats.error < e0 * 0.95,
            "one sweep must improve: {e0} -> {}",
            out.stats.error
        );
        // And a Gauss–Seidel sweep from the same init does at least as well
        // as its own theory requires (error <= init error).
        let gs = gauss_seidel_sweep(
            &mut SeqBackend::new(),
            &t,
            &meta,
            &init.factors,
            fro_norm_sq(&t),
        );
        assert!(gs.stats.error <= e0 + 1e-10);
    }

    #[test]
    fn loop_respects_max_sweeps_and_traces() {
        let dims = [6usize, 6, 6];
        let t = smooth_tensor(&dims);
        let meta = TuckerMeta::new(dims.to_vec(), vec![2, 2, 2]);
        let cfg = LoopCfg {
            max_sweeps: 8,
            tol: 1e-12,
        };
        let out = seq_loop(&t, &meta, cfg);
        assert!(!out.errors.is_empty() && out.errors.len() <= 8);
        assert_eq!(out.errors.len(), out.per_sweep.len());
        assert_eq!(
            out.per_sweep.last().unwrap().error,
            *out.errors.last().unwrap()
        );
        // Every iterate is a valid decomposition.
        let dec = crate::TuckerDecomposition::new(out.core, out.factors);
        assert!(dec.factors_orthonormal(1e-8));
    }

    #[test]
    fn loop_stops_early_when_converged() {
        // An exactly low-rank tensor converges immediately: the error is 0
        // after every sweep, so `LoopCfg::converged` fires at the second
        // sweep.
        let meta = TuckerMeta::new([6, 6, 6], [2, 2, 2]);
        let mut rng = StdRng::seed_from_u64(31);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        let core = DenseTensor::random(meta.core().clone(), &dist, &mut rng);
        let factors: Vec<Matrix> = (0..3)
            .map(|n| {
                let g = Matrix::random(meta.l(n), meta.k(n), &dist, &mut rng);
                tucker_linalg::leading_from_gram(&tucker_linalg::syrk(&g), meta.k(n)).u
            })
            .collect();
        let t = crate::TuckerDecomposition::new(core, factors).reconstruct();
        let cfg = LoopCfg {
            max_sweeps: 50,
            tol: 1e-12,
        };
        let trace = seq_loop(&t, &meta, cfg).errors;
        assert!(
            trace.len() <= 3,
            "exact tensor should converge instantly: {trace:?}"
        );
    }

    #[test]
    fn timings_are_recorded() {
        let dims = [10usize, 10, 10];
        let t = smooth_tensor(&dims);
        let meta = TuckerMeta::new(dims.to_vec(), vec![4, 4, 4]);
        let init = sthosvd(&t, &meta);
        let out = seq_sweep(&t, &meta, &chain_tree(&meta, &[0, 1, 2]), &init.factors);
        assert!(out.stats.ttm_compute > Duration::ZERO);
        assert!(out.stats.svd > Duration::ZERO);
        assert!(out.stats.wall >= out.stats.ttm_compute + out.stats.svd);
    }

    /// `merge_max` keeps the per-rank maximum of the kernel-bytes gauge,
    /// like the clocks (the three volume fields are summed).
    #[test]
    fn merge_max_covers_kernel_bytes() {
        let mut a = SweepStats {
            kernel_bytes: 100,
            ..SweepStats::default()
        };
        let b = SweepStats {
            kernel_bytes: 250,
            ..SweepStats::default()
        };
        a.merge_max(&b);
        assert_eq!(a.kernel_bytes, 250);
        a.merge_max(&SweepStats::default());
        assert_eq!(a.kernel_bytes, 250);
    }
}
