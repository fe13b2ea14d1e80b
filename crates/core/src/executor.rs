//! The sweep executor: **one** interpreter of the Gram → EVD-truncation →
//! TTM programs, pluggable over execution backends.
//!
//! The paper frames distributed Tucker as a single algorithm — interleaved
//! Gram/EVD/TTM sweeps — whose performance is determined by the *schedule*
//! (TTM-tree, mode order, grid). A sweep is a program of
//! `plan::schedule`: its regrids, TTMs, Grams, truncations, frees and
//! closing norm, in issue order, over numbered tensor slots — the same list
//! every price of a plan folds over. One private interpreter runs any such
//! program on a backend; three builders write them:
//!
//! * [`hooi_sweep`] — one HOOI invocation: the TTM-tree program (each
//!   node's output shared across its children, every leaf's Gram
//!   truncated), then the new core's chain;
//! * [`sthosvd_sweep`] — the STHOSVD chain: per mode, Gram → leading
//!   eigenvectors → truncate;
//! * [`gauss_seidel_sweep`] — the textbook ALS variant (latest factors,
//!   `N·(N−1)` TTMs), kept as the convergence reference;
//! * [`hooi_loop`] — iterate the HOOI program with the convergence check
//!   (`|Δerror| < tol`), recycling each superseded core. It is the one HOOI
//!   loop: `hooi_loop_from` is its checkpoint/restore form (the first
//!   sweep runs the program less its salvaged leaves' subtrees), the
//!   engine runs it per rank on its plan's program and the server per
//!   distinct request.
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
//! `run_distributed_sthosvd` are thin shims over them. A new sweep variant
//! is a new program; a new machine is a new backend.

use crate::meta::TuckerMeta;
use crate::plan::schedule::{self, Factor, OpKind, Program};
use crate::plan::tree::TtmTree;
use std::borrow::Cow;
use std::time::{Duration, Instant};
use tucker_distsim::Grid;
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

    /// Redistribute `t` onto tree node `node`'s grid ahead of its TTM (the
    /// dynamic-gridding hook). Called only at a program's regrids, which
    /// must answer `Some`; the default `None` suits backends that run only
    /// one-grid programs, as every host program is. Adds to
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
/// (DESIGN.md §9). The interpreter calls it at the three points a resumable
/// run can be reconstructed from: sweep start, each truncation (the new
/// factor is replicated on every participant, so a first-write-wins
/// recorder is exact), and sweep end. All methods default to no-ops; `()`
/// is the "no observer" instance.
pub(crate) trait SweepObserver {
    /// Sweep `sweep` is about to run its program.
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
/// transpose out of a sweep where each factor is used many times.
pub(crate) fn transpose_all(factors: &[Matrix]) -> Vec<Matrix> {
    factors.iter().map(Matrix::transpose).collect()
}

/// Where a sweep starts: its global index (reported to the observer), the
/// factors its [`Factor::Previous`] TTMs read (empty for ST-HOSVD; a loop
/// owns them, so each set is dropped once superseded), and the leaf factors
/// an interrupted run of it already computed (empty: none).
pub(crate) struct Resume<'p> {
    pub sweep: usize,
    pub factors: Cow<'p, [Matrix]>,
    pub predone: &'p [Option<Matrix>],
}

impl<'p> Resume<'p> {
    /// Sweep 0 from `factors`, nothing predone.
    pub(crate) fn start(factors: impl Into<Cow<'p, [Matrix]>>) -> Self {
        Resume {
            sweep: 0,
            factors: factors.into(),
            predone: &[],
        }
    }
}

/// The interpreter: run `program` on `root` in program order, issuing each
/// operation to the backend. Slot 0 is the borrowed root; every other slot
/// holds the backend tensor its regrid or TTM wrote until its `Free`
/// returns it. `at.predone` factors are spliced in as if their truncations
/// had run; the observer sees the sweep's start, each truncation and its
/// end. The error uses the core-norm identity against `input_norm_sq`.
///
/// # Panics
/// Panics if the backend declines a scheduled regrid, or the program reads
/// a slot nobody wrote, computes a mode twice or leaves one uncomputed.
fn run<B: SweepBackend, O: SweepObserver>(
    b: &mut B,
    root: &B::Tensor,
    program: &Program<'_>,
    at: &Resume<'_>,
    input_norm_sq: f64,
    obs: &mut O,
) -> SweepOutcome<B::Tensor> {
    let meta = program.meta;
    assert!(
        at.predone.is_empty() || at.predone.len() == meta.order(),
        "predone arity mismatch"
    );
    obs.sweep_started(at.sweep);
    b.sweep_begin();
    let mut stats = SweepStats::default();
    // Each Fᵀ is transposed once and read by every TTM on its mode.
    let previous = transpose_all(&at.factors);
    // This sweep's factors, each transposed at its first read.
    let mut latest: Vec<Option<Matrix>> = (0..meta.order())
        .map(|n| at.predone.get(n).cloned().flatten())
        .collect();
    let mut latest_t: Vec<Option<Matrix>> = vec![None; meta.order()];
    let mut slots: Vec<Option<B::Tensor>> = (0..program.slots()).map(|_| None).collect();
    let (mut gram, mut core) = (None, None);
    for op in &program.ops {
        let src = match op.src {
            0 => root,
            s => slots[s].as_ref().expect("slot read before it was written"),
        };
        let written = match op.kind {
            OpKind::Regrid { node, .. } => b.regrid(src, node, &mut stats),
            OpKind::Ttm { mode, factor, .. } => {
                let f_t = match (factor, &latest[mode]) {
                    (Factor::Latest, Some(f)) => {
                        latest_t[mode].get_or_insert_with(|| f.transpose())
                    }
                    _ => &previous[mode],
                };
                Some(b.ttm(src, mode, f_t, &mut stats))
            }
            OpKind::Gram(n) => {
                let g = b.gram(src, n, &mut stats);
                assert!(gram.replace(g).is_none(), "a Gram was never truncated");
                continue;
            }
            OpKind::Evd(n) => {
                let g = gram.take().expect("a truncation follows its Gram");
                // Timed onto `svd` on the backend's compute clock.
                let t0 = b.clock();
                let f = b.leading(&g, meta.k(n));
                stats.svd += b.clock().saturating_sub(t0);
                obs.leaf_done(at.sweep, n, &f);
                let done = latest[n].replace(f);
                assert!(done.is_none(), "leaf for mode {n} computed twice");
                continue;
            }
            OpKind::Free(s) => {
                b.recycle(slots[s].take().expect("slot freed before it was written"));
                continue;
            }
            OpKind::Norm => {
                let core_norm_sq = b.norm_sq(src);
                stats.error = relative_error_from_core(input_norm_sq, core_norm_sq);
                core = slots[op.src].take();
                continue;
            }
        };
        slots[op.dst] = Some(written.expect("the backend declined a scheduled regrid"));
    }
    b.sweep_end(&mut stats);
    assert!(slots.iter().all(Option::is_none), "a slot was never freed");

    let factors: Vec<Matrix> = latest
        .into_iter()
        .enumerate()
        .map(|(n, f)| f.unwrap_or_else(|| panic!("no leaf computed mode {n}")))
        .collect();
    obs.sweep_done(at.sweep, &factors, &stats);
    SweepOutcome {
        factors,
        core: core.expect("the program closes with the norm of its core"),
        stats,
    }
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
    assert_eq!(factors.len(), meta.order(), "factor arity mismatch");
    tree.validate().expect("invalid TTM tree");
    let g = Grid::trivial(meta.order());
    let program = schedule::sweep_on(meta, tree, &g);
    let at = Resume::start(factors);
    run(b, root, &program, &at, input_norm_sq, &mut ())
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
    let g = Grid::trivial(meta.order());
    run_sthosvd(b, root, &schedule::sthosvd(meta, order, &g), input_norm_sq)
}

/// Run an ST-HOSVD `program` (`schedule::sthosvd`, on whichever grid it was
/// built for) on `root`: what [`sthosvd_sweep`] does on one rank.
pub(crate) fn run_sthosvd<B: SweepBackend>(
    b: &mut B,
    root: &B::Tensor,
    program: &Program<'_>,
    input_norm_sq: f64,
) -> SweepOutcome<B::Tensor> {
    let at = Resume::start(&[][..]);
    run(b, root, program, &at, input_norm_sq, &mut ())
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
    let g = Grid::trivial(meta.order());
    let program = schedule::gauss_seidel(meta, &g);
    let at = Resume::start(factors);
    run(b, root, &program, &at, input_norm_sq, &mut ())
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
    tree.validate().expect("invalid TTM tree");
    let g = Grid::trivial(meta.order());
    let program = schedule::sweep_on(meta, tree, &g);
    let from = Resume::start(init_factors);
    hooi_loop_from(b, root, &program, from, input_norm_sq, cfg, &mut ())
}

/// [`hooi_loop`] over a built HOOI `program` (the engine's carries its
/// plan's regrids), for checkpoint/restore: sweeps run with global indices
/// `from.sweep .. cfg.max_sweeps` (so `cfg.max_sweeps` stays the *total*
/// sweep budget across interruptions), the first from `from.factors` (for
/// sweep 0, the HOSVD init) with the salvaged `from.predone` leaves, and
/// `obs` sees every sweep boundary and leaf. The first sweep runs
/// [`Program::resumed`]: subtrees whose leaves are all predone are skipped
/// entirely — their TTMs, regrids and Grams — which is what makes resuming
/// from the last completed leaf cheaper than re-running the sweep; its
/// stats cover only the work executed. The returned `per_sweep`/`errors`
/// cover only the sweeps executed here — the recovery layer splices them
/// after the checkpointed ones.
///
/// # Panics
/// Panics if `cfg.max_sweeps` is zero, `from.sweep >= cfg.max_sweeps` or
/// the factors are invalid.
pub(crate) fn hooi_loop_from<B: SweepBackend, O: SweepObserver>(
    b: &mut B,
    root: &B::Tensor,
    program: &Program<'_>,
    from: Resume<'_>,
    input_norm_sq: f64,
    cfg: LoopCfg,
    obs: &mut O,
) -> LoopOutcome<B::Tensor> {
    assert!(cfg.max_sweeps >= 1, "need at least one sweep");
    assert!(
        from.sweep < cfg.max_sweeps,
        "first sweep {} outside the {} sweep budget",
        from.sweep,
        cfg.max_sweeps
    );
    assert_eq!(
        from.factors.len(),
        program.meta.order(),
        "factor arity mismatch"
    );
    let done = (from.predone.iter().enumerate())
        .filter(|(_, f)| f.is_some())
        .fold(0, |done, (n, _)| done | 1 << n);
    let first = (done != 0).then(|| program.resumed(done));
    let mut core: Option<B::Tensor> = None;
    // Grown as sweeps run: the budget is a bound, not a size (a tolerance
    // may stop the loop long before `usize::MAX` sweeps).
    let mut per_sweep: Vec<SweepStats> = Vec::new();
    let mut errors: Vec<f64> = Vec::new();
    let mut at = from;
    loop {
        let sweep_program = first.as_ref().filter(|_| errors.is_empty());
        let sweep_program = sweep_program.unwrap_or(program);
        let out = run(b, root, sweep_program, &at, input_norm_sq, obs);
        if let Some(old) = core.replace(out.core) {
            b.recycle(old);
        }
        errors.push(out.stats.error);
        per_sweep.push(out.stats);
        let sweep = at.sweep + 1;
        at = Resume {
            sweep,
            factors: out.factors.into(),
            predone: &[],
        };
        if sweep == cfg.max_sweeps || cfg.converged(&errors) {
            break;
        }
    }
    LoopOutcome {
        factors: at.factors.into_owned(),
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
    fn a_sweep_budget_is_a_bound_not_an_allocation() {
        // Relative errors lie in [0, 1], so a tolerance of 1 converges at
        // the second sweep; the budget of usize::MAX sweeps must not be
        // reserved up front.
        let dims = [6usize, 5, 4];
        let t = smooth_tensor(&dims);
        let meta = TuckerMeta::new(dims.to_vec(), vec![2, 2, 2]);
        let cfg = LoopCfg {
            max_sweeps: usize::MAX,
            tol: 1.0,
        };
        let out = seq_loop(&t, &meta, cfg);
        assert_eq!((out.errors.len(), out.per_sweep.len()), (2, 2));
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
