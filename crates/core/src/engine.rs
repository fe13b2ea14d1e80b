//! The distributed engine (paper §5): executes a [`Plan`] on the simulated
//! MPI universe.
//!
//! The engine is the distsim backend of the sweep executor: the canonical
//! Gram → EVD-truncation → TTM loop lives in [`crate::executor`], and this
//! module contributes `DistsimBackend` — the adapter that runs each
//! operation distributed. Tensors live as [`DistTensor`] blocks; the TTM at
//! each tree node is the distributed local-multiply + reduce-scatter of
//! `tucker-distsim`; regrids are all-to-all redistributions; the SVD step is
//! the distributed Gram + replicated sequential EVD of §5. Per-phase time
//! and per-category communication volume are recorded so the experiments can
//! reproduce the paper's breakdowns (Figures 10c, 11a/b/e).
//!
//! One value describes every distributed HOOI, and one body runs it:
//! [`DistRun::run`] — materialise block → HOSVD init → sweep loop → gather
//! core — on the fiber mesh of `tucker-distsim`, re-planned and resumed on
//! the survivors after a rank failure under [`FailurePolicy::Recover`].
//! [`DistRun::of`] executes a given [`Plan`], [`DistRun::new`] searches
//! for its own; a scripted fault, a worker pool and a durable checkpoint to
//! restart from are set on the value. Which ranks died is read from each
//! failed rank's typed [`RankFault`], never from panic text.
//!
//! Compute phases read the rank's compute clock, `RankCtx::cpu_clock`;
//! communication phases read its one communication clock, `RankCtx::comm`.
//! Whether [`EngineConfig::net`] attaches a [`NetModel`] decides what the
//! two clocks are:
//!
//! * without one they are the fiber's metered thread CPU time and measured
//!   wall time (honest runs at host-scale rank counts), and a sweep's
//!   `wall` is the host's elapsed time;
//! * with one they are the per-rank α–β–γ virtual clocks — each TTM, Gram
//!   and EVD charged its flop count at the model's rate, each message
//!   `α + β·bytes` — and a sweep's `wall` is the rank's modelled compute
//!   plus its modelled communication. No host clock is read. This replays
//!   the engine at paper-scale rank counts (P = 2⁶…2¹³) in seconds,
//!   reporting through the **same** [`SweepStats`] fields as measured runs,
//!   every one of them a function of the plan alone.

use crate::checkpoint::{RecoveryLog, SweepCheckpoint};
use crate::decomposition::TuckerDecomposition;
use crate::executor::{self, PlanProvenance, Resume, SweepBackend, SweepObserver, SweepStats};
use crate::meta::TuckerMeta;
use crate::plan::cost::NetCostModel;
use crate::plan::grid::DynGridScheme;
use crate::plan::schedule;
use crate::plan::{FlopVolumeModel, Plan, Planner, SearchBudget};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use tucker_distsim::block::rank_region;
use tucker_distsim::collectives::allreduce_sum;
use tucker_distsim::dist_gram::{dist_gram, dist_gram_all_with_norm};
use tucker_distsim::dist_ttm::dist_ttm;
use tucker_distsim::grid::largest_usable_rank_count;
use tucker_distsim::mesh::{MeshCfg, MeshOutput};
use tucker_distsim::net::NetModel;
use tucker_distsim::redistribute::{redistribute, BlockStore};
use tucker_distsim::{
    CommTimers, DistTensor, RankCtx, RankFault, Universe, VolumeCategory, VolumeReport,
};
use tucker_linalg::Matrix;
use tucker_tensor::norm::fro_norm_sq;
use tucker_tensor::subtensor::Region;
use tucker_tensor::DenseTensor;

/// Tag of the scalar (norm) all-reduce — the same tag
/// [`DistTensor::global_norm_sq`] uses, so both paths are bit-identical.
const NORM_TAG: u32 = 9001;

/// What the engine does when a rank fails mid-run (DESIGN.md §9).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Fail-stop: re-raise the root failure.
    #[default]
    Abort,
    /// Quarantine the dead rank, re-plan on the survivor count via the
    /// joint search, redistribute live blocks and resume from the last
    /// committed sweep (skipping leaves the interrupted sweep finished).
    Recover {
        /// Upper bound on recovery rounds before giving up.
        max_restarts: usize,
    },
}

impl FailurePolicy {
    /// Recover with a generous restart budget.
    pub fn recover() -> Self {
        FailurePolicy::Recover { max_restarts: 8 }
    }
}

/// Periodic durable checkpointing: every `every` committed
/// sweeps, one rank writes the bit-exact `tucker-checkpoint/v1` snapshot to
/// `path`, so a killed **process** (not just a failed rank) restarts from
/// the last spill via [`DistRun::resume`].
#[derive(Clone, Debug)]
pub struct CheckpointCfg {
    /// Spill after every `every` committed sweeps (must be ≥ 1).
    pub every: usize,
    /// Destination file (written atomically: tmp + rename).
    pub path: std::path::PathBuf,
}

/// Configuration of the distributed algorithms.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// α–β model attached to the universe. With one, runs report the
    /// virtual clock; without, measured time.
    pub net: Option<NetModel>,
    /// Gather the final core to a dense tensor on rank 0. Disable for
    /// scaling sweeps where only the stats matter — the world-wide
    /// all-gather is `O(P²)` messages and would dominate large-`P` runs.
    pub gather_core: bool,
    /// Rank-failure policy of HOOI runs (distributed ST-HOSVD is always
    /// fail-stop).
    pub on_failure: FailurePolicy,
    /// Periodic disk spill of the recovery log (HOOI runs only).
    pub checkpoint: Option<CheckpointCfg>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            net: None,
            gather_core: true,
            on_failure: FailurePolicy::Abort,
            checkpoint: None,
        }
    }
}

impl EngineConfig {
    /// Virtual-time mode: the α–β clock of `net` (the paper-scale
    /// configuration). The core is still gathered; disable `gather_core`
    /// separately for large-`P` sweeps.
    pub fn virtual_time(net: NetModel) -> Self {
        EngineConfig {
            net: Some(net),
            ..EngineConfig::default()
        }
    }

    /// Spill the recovery log to `path` after every `n` committed sweeps
    /// (see [`CheckpointCfg`]).
    ///
    /// # Panics
    /// Panics if `n` is zero.
    #[must_use]
    pub fn checkpoint_every(mut self, n: usize, path: impl Into<std::path::PathBuf>) -> Self {
        assert!(n >= 1, "checkpoint cadence must be >= 1");
        self.checkpoint = Some(CheckpointCfg {
            every: n,
            path: path.into(),
        });
        self
    }
}

/// The distsim [`SweepBackend`]: every executor operation runs distributed
/// on one simulated rank, charging its compute clock, its communication
/// clock (measured or modelled, see the module docs) and ledger volume to
/// the matching [`SweepStats`] fields.
pub(crate) struct DistsimBackend<'a, 'p> {
    ctx: &'a mut RankCtx,
    /// Dynamic-gridding scheme; `None` never regrids (static-grid chains).
    grids: Option<&'p DynGridScheme>,
    /// The open sweep window: its start and the ledger at that point.
    sweep: Option<(Snap, VolumeReport)>,
}

/// The start of a timed phase: the rank's compute clock, its
/// communication clock and, on the measured clock only, a host wall anchor.
struct Snap {
    cpu: Duration,
    comm: CommTimers,
    t0: Option<Instant>,
}

impl<'a, 'p> DistsimBackend<'a, 'p> {
    pub(crate) fn new(ctx: &'a mut RankCtx, grids: Option<&'p DynGridScheme>) -> Self {
        DistsimBackend {
            ctx,
            grids,
            sweep: None,
        }
    }

    fn snap(&self) -> Snap {
        Snap {
            cpu: self.ctx.cpu_clock(),
            comm: self.ctx.comm.clone(),
            t0: self.ctx.net().is_none().then(Instant::now),
        }
    }

    /// Compute time and communication time accrued since `snap`.
    fn since(&self, snap: &Snap) -> (Duration, CommTimers) {
        (
            self.ctx.cpu_clock().saturating_sub(snap.cpu),
            self.ctx.comm.since(&snap.comm),
        )
    }
}

impl SweepBackend for DistsimBackend<'_, '_> {
    type Tensor = DistTensor;

    /// The rank's compute clock: modelled under a [`NetModel`], else its
    /// fiber's CPU time — robust when the simulated ranks oversubscribe the
    /// host cores, as a suspended rank accrues nothing.
    fn clock(&self) -> Duration {
        self.ctx.cpu_clock()
    }

    fn sweep_begin(&mut self) {
        let vol0 = self.ctx.volume();
        self.sweep = Some((self.snap(), vol0));
    }

    /// `comm_wall` is the rank's communication clock over the window. `wall`
    /// is the host's elapsed time on the measured clock; under virtual time
    /// it is the rank's modelled compute plus its modelled communication.
    fn sweep_end(&mut self, stats: &mut SweepStats) {
        let (snap, vol0) = self.sweep.take().expect("sweep_begin not called");
        let (cpu, comm) = self.since(&snap);
        stats.comm_wall = comm.total();
        stats.wall = match snap.t0 {
            Some(t0) => t0.elapsed(),
            None => cpu + stats.comm_wall,
        };
        let vol = self.ctx.volume().since(&vol0);
        stats.ttm_volume = vol.elements(VolumeCategory::TtmReduceScatter);
        stats.regrid_volume = vol.elements(VolumeCategory::Regrid);
        stats.gram_volume = vol.elements(VolumeCategory::Gram);
    }

    fn gram(&mut self, t: &DistTensor, n: usize, stats: &mut SweepStats) -> Matrix {
        let snap = self.snap();
        let g = dist_gram(self.ctx, t, n);
        let (cpu, comm) = self.since(&snap);
        stats.gram_comm += comm.time(VolumeCategory::Gram);
        stats.svd += cpu;
        g
    }

    fn ttm(
        &mut self,
        t: &DistTensor,
        n: usize,
        factor_t: &Matrix,
        stats: &mut SweepStats,
    ) -> DistTensor {
        let snap = self.snap();
        let out = dist_ttm(self.ctx, t, n, factor_t);
        let (cpu, comm) = self.since(&snap);
        stats.ttm_comm += comm.time(VolumeCategory::TtmReduceScatter);
        stats.ttm_compute += cpu;
        out
    }

    fn regrid(
        &mut self,
        t: &DistTensor,
        node: usize,
        stats: &mut SweepStats,
    ) -> Option<DistTensor> {
        // Called at the program's regrids only: the plan's flagged nodes.
        let target = &self.grids?.node_grids[node];
        let snap = self.snap();
        let regridded = redistribute(self.ctx, t, target);
        let comm = self.ctx.comm.since(&snap.comm).time(VolumeCategory::Regrid);
        // Regrid is pure communication: in virtual time its α–β clock (its
        // pack/unpack is priced at 0 flops), else elapsed time.
        stats.regrid_comm += match snap.t0 {
            Some(t0) => t0.elapsed().max(comm),
            None => comm,
        };
        Some(regridded)
    }

    /// Once per universe, charged to every rank (see
    /// [`RankCtx::leading_from_gram`]).
    fn leading(&mut self, gram: &Matrix, k: usize) -> Matrix {
        self.ctx.leading_from_gram(gram, k)
    }

    fn local_norm_sq(&mut self, t: &DistTensor) -> f64 {
        fro_norm_sq(t.local())
    }

    fn allreduce(&mut self, x: f64) -> f64 {
        let mut buf = [x];
        allreduce_sum(self.ctx, &mut buf, NORM_TAG, VolumeCategory::Other);
        buf[0]
    }
}

// ------------------------------------------------- epoch loop + recovery

/// A scripted rank failure for recovery tests and benches: `rank` panics
/// during `sweep` after completing `after_leaves` of its leaves
/// (`0` fails at the sweep boundary, before any leaf). Fires at most once
/// per run, so the recovered epochs complete.
#[derive(Clone, Copy, Debug)]
pub struct InjectedFault {
    /// Rank that dies.
    pub rank: usize,
    /// Global sweep index it dies in.
    pub sweep: usize,
    /// Leaves it completes first.
    pub after_leaves: usize,
}

/// One quarantine/re-plan/resume round of a run.
#[derive(Clone, Debug)]
pub struct RecoveryEvent {
    /// Root-cause ranks removed from the universe (epoch-local ids).
    pub dead_ranks: Vec<usize>,
    /// Ranks the run continued on.
    pub survivors: usize,
    /// The sweep the resumed epoch started from (committed count).
    pub resumed_sweep: usize,
    /// Leaves of the interrupted sweep that were salvaged.
    pub salvaged_leaves: usize,
    /// Name of the survivor-grid plan searched after the failure.
    pub replanned: String,
    /// Elements of the new epoch's initial blocks served from live blocks
    /// of the aborted epoch instead of the input generator.
    pub reused_elements: u64,
}

/// Output of a distributed HOOI run.
#[derive(Debug)]
pub struct MeshHooiOutput {
    /// The final decomposition (rank 0 of the last epoch); `None` with
    /// `gather_core: false`.
    pub decomposition: Option<TuckerDecomposition>,
    /// Stats per sweep, cross-rank merged, provenance-stamped per epoch.
    /// Sweeps committed before a failure keep the clocks they measured
    /// under the original grid.
    pub per_sweep: Vec<SweepStats>,
    /// Volume ledger of each epoch (one entry per attempt, including
    /// aborted ones).
    pub epoch_volumes: Vec<VolumeReport>,
    /// EVD truncations the ranks ran, over all epochs: after the world
    /// all-reduce every rank holds the same Gram, so one rank computes each
    /// leaf's factor for the universe …
    pub evd_computed: u64,
    /// … and the others reuse it, charged the EVD all the same (its price
    /// under a `NetModel`, the computing rank's CPU time without one).
    pub evd_reused: u64,
    /// Every quarantine/re-plan/resume round, in order (empty: clean run).
    pub recoveries: Vec<RecoveryEvent>,
    /// Worker threads the last epoch's mesh multiplexed its ranks over.
    pub workers: usize,
    /// Plan names, one per epoch.
    pub plans: Vec<String>,
}

impl MeshHooiOutput {
    /// The gathered decomposition.
    ///
    /// # Panics
    /// Panics if the run was configured with `gather_core=false` (no core
    /// was gathered, so there is no decomposition to return).
    #[track_caller]
    pub fn expect_decomposition(&self) -> &TuckerDecomposition {
        self.decomposition
            .as_ref()
            .expect("run was configured with gather_core=false; no decomposition was gathered")
    }

    /// Volume ledger of the whole run (init included), summed over epochs.
    pub fn volume(&self) -> VolumeReport {
        self.epoch_volumes
            .iter()
            .fold(VolumeReport::default(), |acc, v| acc + *v)
    }
}

/// Observer wired into every rank: records progress into the shared
/// [`RecoveryLog`] and fires the scripted fault at its exact tree position.
struct MeshObserver<'l> {
    rank: usize,
    log: &'l RecoveryLog,
    fault: Option<InjectedFault>,
    fault_fired: &'l AtomicBool,
    leaves_this_sweep: usize,
    /// Periodic disk spill: cadence + path + the problem context the
    /// checkpoint needs, plus the highest committed count already spilled
    /// (shared so exactly one rank writes each new multiple).
    spill: Option<&'l SpillState<'l>>,
}

/// Shared state of the periodic checkpoint spill (one per run).
struct SpillState<'r> {
    cfg: &'r CheckpointCfg,
    meta: &'r TuckerMeta,
    total_sweeps: usize,
    last_spilled: AtomicUsize,
    /// The first failed spill's error. A failed write is the host's I/O, not
    /// a dead rank: the spilling rank records it and carries on, and the
    /// epoch loop ends the run with it once the epoch returns.
    failed: OnceLock<std::io::Error>,
}

impl SpillState<'_> {
    /// Spill if `log` has newly reached a cadence multiple. The committing
    /// rank (the last to report the sweep) usually wins the `fetch_max`
    /// race; any later observer sees `last_spilled` already advanced. After
    /// a failed spill nothing more is written.
    fn maybe_spill(&self, log: &RecoveryLog) {
        let committed = log.committed_count();
        if committed == 0
            || !committed.is_multiple_of(self.cfg.every)
            || self.failed.get().is_some()
        {
            return;
        }
        if self.last_spilled.fetch_max(committed, Ordering::SeqCst) < committed {
            let saved = log
                .checkpoint(self.meta, self.total_sweeps)
                .save(&self.cfg.path);
            if let Err(e) = saved {
                let _ = self.failed.set(e);
            }
        }
    }

    /// End the run if a spill failed.
    ///
    /// # Panics
    /// Panics with the destination and the I/O error of the first failed
    /// spill.
    fn check(&self) {
        if let Some(e) = self.failed.get() {
            panic!(
                "checkpoint spill to {} failed: {e}",
                self.cfg.path.display()
            );
        }
    }
}

impl MeshObserver<'_> {
    fn maybe_fail(&self, sweep: usize) {
        if let Some(f) = self.fault {
            if f.rank == self.rank
                && f.sweep == sweep
                && f.after_leaves == self.leaves_this_sweep
                && !self.fault_fired.swap(true, Ordering::SeqCst)
            {
                panic!(
                    "injected rank failure (rank {}, sweep {}, after {} leaves)",
                    f.rank, f.sweep, f.after_leaves
                );
            }
        }
    }
}

impl SweepObserver for MeshObserver<'_> {
    fn sweep_started(&mut self, sweep: usize) {
        self.leaves_this_sweep = 0;
        self.maybe_fail(sweep);
    }

    fn leaf_done(&mut self, sweep: usize, mode: usize, factor: &Matrix) {
        self.log.leaf_done(sweep, mode, factor);
        self.leaves_this_sweep += 1;
        self.maybe_fail(sweep);
    }

    fn sweep_done(&mut self, sweep: usize, factors: &[Matrix], stats: &SweepStats) {
        self.log.sweep_done(sweep, factors, stats);
        if let Some(spill) = self.spill {
            spill.maybe_spill(self.log);
        }
    }
}

/// One distributed HOOI run: truncated-HOSVD initialization followed by
/// `sweeps` HOOI invocations on simulated ranks. [`DistRun::new`] plans
/// with the joint grid × tree × order search, [`DistRun::of`] executes a
/// given [`Plan`]; the methods set the rest, and [`DistRun::run`] executes.
#[derive(Clone, Debug)]
pub struct DistRun<'a> {
    meta: &'a TuckerMeta,
    nranks: usize,
    sweeps: usize,
    /// Executed by epoch 0 instead of the joint search's winner.
    plan: Option<&'a Plan>,
    cfg: EngineConfig,
    /// Mesh worker pool; `0` = auto (see [`MeshCfg::workers`]).
    workers: usize,
    fault: Option<InjectedFault>,
    resume: Option<SweepCheckpoint>,
}

impl<'a> DistRun<'a> {
    /// `sweeps` sweeps on `nranks` ranks, planned by the joint search.
    pub fn new(meta: &'a TuckerMeta, nranks: usize, sweeps: usize) -> Self {
        DistRun {
            meta,
            nranks,
            sweeps,
            plan: None,
            cfg: EngineConfig::default(),
            workers: 0,
            fault: None,
            resume: None,
        }
    }

    /// `sweeps` sweeps executing `plan` on `plan.nranks` ranks.
    pub fn of(plan: &'a Plan, sweeps: usize) -> Self {
        DistRun {
            plan: Some(plan),
            ..DistRun::new(&plan.meta, plan.nranks, sweeps)
        }
    }

    /// Clock, core gather, failure policy and checkpoint spill.
    #[must_use]
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Mesh worker pool size (`0` = auto); nothing a run reports under the
    /// virtual clock depends on it.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Fire a scripted rank failure.
    #[must_use]
    pub fn fault(mut self, fault: InjectedFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Restart from a durable checkpoint (the crash-restart path, paired
    /// with [`EngineConfig::checkpoint_every`]): committed sweeps replay for
    /// free and execution continues from [`SweepCheckpoint::resume_sweep`],
    /// skipping the salvaged leaves of the interrupted sweep.
    #[must_use]
    pub fn resume(mut self, ckpt: SweepCheckpoint) -> Self {
        self.resume = Some(ckpt);
        self
    }

    /// Execute the run: a loop of mesh epochs, each *(re-)plan → materialise
    /// blocks → init or restore → sweep loop → gather*. The input is a
    /// closure over global coordinates, so each rank materializes only its
    /// own block.
    ///
    /// Under [`FailurePolicy::Abort`] a rank failure re-raises the root
    /// panic. Under [`FailurePolicy::Recover`] the dead ranks are
    /// quarantined and the run continues on the survivors: the joint search
    /// re-plans for the shrunk universe (a given plan drives epoch 0 only),
    /// live blocks of the aborted epoch are redistributed host-side onto the
    /// new grid (only the dead ranks' regions are re-materialized from
    /// `global_fn`), and the sweep loop resumes from the last committed
    /// sweep, skipping leaves the interrupted sweep already finished.
    /// Virtual-time epochs carry the per-epoch α–β prediction in their
    /// provenance; a *resumed* sweep's prediction is voided — only part of
    /// it executed under the new plan.
    ///
    /// # Panics
    /// Panics on invalid arguments, on a checkpoint for another problem, on
    /// a failed checkpoint spill, on a deadlock (a fault of the program, not
    /// a dead rank) under either policy, on any rank failure under `Abort`,
    /// and under `Recover` when `max_restarts` is exhausted or no survivor
    /// remains.
    pub fn run(&self, global_fn: impl Fn(&[usize]) -> f64 + Sync) -> MeshHooiOutput {
        let (meta, sweeps, cfg) = (self.meta, self.sweeps, &self.cfg);
        assert!(sweeps >= 1, "need at least one sweep");
        assert!(self.nranks >= 1, "need at least one rank");

        let log = RecoveryLog::new(meta.order());
        if let Some(ckpt) = &self.resume {
            assert_eq!(
                ckpt.meta.input().dims(),
                meta.input().dims(),
                "checkpoint is for a different problem"
            );
            assert_eq!(ckpt.meta.core().dims(), meta.core().dims());
            log.restore(ckpt);
        }
        let spill = cfg.checkpoint.as_ref().map(|c| SpillState {
            cfg: c,
            meta,
            total_sweeps: sweeps,
            last_spilled: AtomicUsize::new(log.committed_count()),
            failed: OnceLock::new(),
        });
        let fault_fired = AtomicBool::new(false);
        let recover = matches!(cfg.on_failure, FailurePolicy::Recover { .. });
        let mut survivors = self.nranks;
        let mut restarts = 0usize;
        let mut prev_blocks: Option<(BlockStore, Vec<Region>)> = None;
        let mut recoveries: Vec<RecoveryEvent> = Vec::new();
        let mut epoch_volumes: Vec<VolumeReport> = Vec::new();
        let (mut evd_computed, mut evd_reused) = (0, 0);
        let mut plans: Vec<String> = Vec::new();

        loop {
            // Epoch 0 executes the caller's plan when it brought one; otherwise
            // (and after every failure) plan at the current survivor count via
            // the joint search.
            let searched;
            let plan = match self.plan {
                Some(plan) if plans.is_empty() => plan,
                _ => {
                    let planner = Planner::new(meta.clone(), survivors);
                    let budget = SearchBudget::winner_only();
                    searched = match cfg.net {
                        Some(net) => {
                            planner.best_plan_with(&NetCostModel::new(net, survivors), &budget)
                        }
                        None => planner.best_plan_with(&FlopVolumeModel, &budget),
                    };
                    &searched
                }
            };
            plans.push(plan.name());
            if let Some(ev) = recoveries.last_mut() {
                if ev.replanned.is_empty() {
                    ev.replanned = plan.name();
                }
            }
            // Virtual-time runs carry the planner's α–β prediction the executed
            // `comm_wall` must match (the prediction-vs-execution invariant of
            // DESIGN.md §6).
            let predicted_comm = cfg.net.map(|net| {
                NetCostModel::new(net, survivors)
                    .predict_sweep(&plan.meta, &plan.tree, &plan.grids)
                    .comm_wall
            });
            log.begin_epoch(
                survivors,
                Some(PlanProvenance {
                    plan: plan.name(),
                    predicted_comm,
                }),
            );

            // Restore point: committed sweeps + salvaged leaves of the
            // interrupted sweep. (Empty on the first epoch.)
            let ckpt = log.checkpoint(meta, sweeps);
            let first_sweep = ckpt.resume_sweep();
            let basis: Option<Vec<Matrix>> =
                (first_sweep > 0 || ckpt.init_factors.is_some()).then(|| ckpt.basis_factors());

            // Every rank runs the program `predict_sweep` folds over, built
            // once per epoch.
            let program = schedule::sweep(meta, &plan.tree, &plan.grids);
            let store = BlockStore::default();
            let reused = AtomicU64::new(0);
            let out = Universe::run_mesh(survivors, &mesh_cfg(cfg, self.workers), |ctx| {
                let grid = &plan.grids.initial;
                let t = match &prev_blocks {
                    Some((live, dead_regions)) => {
                        // Redistribute live blocks of the aborted epoch onto
                        // this rank's new-grid block; only coordinates the dead
                        // rank owned are re-materialized from the generator.
                        let region = rank_region(meta.input(), grid, ctx.rank());
                        let mut local = DenseTensor::zeros(region.shape());
                        reused.fetch_add(live.fill(&region, &mut local), Ordering::Relaxed);
                        for dead in dead_regions {
                            if let Some(gap) = dead.intersect(&region) {
                                fill_region_from(&mut local, &gap, &region, &global_fn);
                            }
                        }
                        DistTensor::from_parts(
                            meta.input().clone(),
                            grid.clone(),
                            ctx.rank(),
                            local,
                        )
                    }
                    None => DistTensor::from_global_fn(ctx, meta.input(), grid, |c| global_fn(c)),
                };
                if recover {
                    store.deposit(ctx.rank(), t.region(), t.local().clone());
                }

                let (init_factors, input_norm_sq) = match &basis {
                    Some(fs) => (fs.clone(), t.global_norm_sq(ctx)),
                    None => {
                        // Truncated-HOSVD initialization: leading eigenvectors
                        // of each mode's Gram of the raw tensor (replicated
                        // results). All mode Grams and the input norm share one
                        // fused world all-reduce — collective rounds, not bytes,
                        // dominate paper-scale runs.
                        let (grams, norm) = dist_gram_all_with_norm(ctx, &t);
                        let init: Vec<Matrix> = grams
                            .iter()
                            .enumerate()
                            .map(|(n, gram)| ctx.leading_from_gram(gram, meta.k(n)))
                            .collect();
                        log.record_init(&init);
                        (init, norm)
                    }
                };

                let mut obs = MeshObserver {
                    rank: ctx.rank(),
                    log: &log,
                    fault: self.fault,
                    fault_fired: &fault_fired,
                    leaves_this_sweep: 0,
                    spill: spill.as_ref(),
                };
                let mut backend = DistsimBackend::new(&mut *ctx, Some(&plan.grids));
                let from = Resume {
                    sweep: first_sweep,
                    factors: init_factors.into(),
                    predone: ckpt.predone(),
                };
                let budget = executor::LoopCfg::exactly(sweeps);
                let run = executor::hooi_loop_from(
                    &mut backend,
                    &t,
                    &program,
                    from,
                    input_norm_sq,
                    budget,
                    &mut obs,
                );

                // Gather the core on every rank; only rank 0 keeps it.
                if cfg.gather_core {
                    let dense_core = run.core.allgather_global(ctx);
                    (ctx.rank() == 0).then(|| TuckerDecomposition::new(dense_core, run.factors))
                } else {
                    None
                }
            });
            // A failed spill ends the run under either policy: no rank died.
            if let Some(spill) = &spill {
                spill.check();
            }
            epoch_volumes.push(out.volume);
            evd_computed += out.evd_computed;
            evd_reused += out.evd_reused;
            if let Some(ev) = recoveries.last_mut() {
                if ev.reused_elements == 0 {
                    ev.reused_elements = reused.load(Ordering::Relaxed);
                }
            }

            if out.all_ok() {
                let committed = log.committed();
                assert_eq!(committed.len(), sweeps, "all sweeps must have committed");
                let mut decomposition = None;
                for o in out.results {
                    if let tucker_distsim::RankOutcome::Ok(Some(d)) = o {
                        decomposition = Some(d);
                    }
                }
                return MeshHooiOutput {
                    decomposition,
                    per_sweep: committed.into_iter().map(|c| c.stats).collect(),
                    epoch_volumes,
                    evd_computed,
                    evd_reused,
                    recoveries,
                    workers: out.workers,
                    plans,
                };
            }

            // Failure path: quarantine the ranks that died and go on, or
            // re-raise (fail-stop, and a deadlock under either policy).
            let dead = match (dead_ranks(&out), cfg.on_failure) {
                (Some(dead), FailurePolicy::Recover { max_restarts }) => {
                    restarts += 1;
                    assert!(
                        restarts <= max_restarts,
                        "rank failures exceeded max_restarts ({max_restarts})"
                    );
                    assert!(
                        dead.len() < survivors,
                        "no survivors left after {dead:?} failed"
                    );
                    dead
                }
                _ => {
                    let _ = out.into_results(); // re-raises the root payload
                    unreachable!("into_results re-raises on failure");
                }
            };
            let dead_regions: Vec<Region> = dead
                .iter()
                .map(|&r| rank_region(meta.input(), &plan.grids.initial, r))
                .collect();
            for &r in &dead {
                store.evict(r);
            }
            // A survivor count that factors badly (e.g. a prime larger
            // than every mode) admits no valid grid — shrink to the
            // largest usable subset and idle the rest.
            let usable = largest_usable_rank_count(survivors - dead.len(), meta.core().dims());
            let salvaged = ckpt_salvaged(&log, meta);
            recoveries.push(RecoveryEvent {
                dead_ranks: dead.clone(),
                survivors: usable,
                resumed_sweep: log.committed_count(),
                salvaged_leaves: salvaged,
                replanned: String::new(), // filled after the re-plan
                reused_elements: 0,       // filled after the next epoch
            });
            survivors = usable;
            prev_blocks = Some((store, dead_regions));
        }
    }
}

/// The benchmark package's entry point, kept for the frozen `benchmark/`
/// until it moves to [`DistRun`]: `DistRun::new(meta, nranks, sweeps)` with
/// `cfg`, `mesh.workers` and `fault`. `mesh.net` is not read —
/// [`EngineConfig::net`] decides the clock.
pub fn run_distributed_hooi_mesh(
    global_fn: impl Fn(&[usize]) -> f64 + Sync,
    meta: &TuckerMeta,
    nranks: usize,
    sweeps: usize,
    cfg: &EngineConfig,
    mesh: &MeshCfg,
    fault: Option<InjectedFault>,
) -> MeshHooiOutput {
    DistRun {
        fault,
        ..DistRun::new(meta, nranks, sweeps)
            .config(cfg.clone())
            .workers(mesh.workers)
    }
    .run(global_fn)
}

/// The mesh a run executes on: its worker pool and `cfg`'s clock. The one
/// place a run's [`MeshCfg::net`] is set.
pub(crate) fn mesh_cfg(cfg: &EngineConfig, workers: usize) -> MeshCfg {
    MeshCfg {
        workers,
        net: cfg.net,
    }
}

/// The ranks of a failed epoch that died of their own fault — a panic (an
/// injected fault included) or a receive from a finished sender — read from
/// their [`RankFault`] variants; ranks woken into the abort are alive.
/// `None` for a deadlock: every live rank waited on a live rank, none died.
fn dead_ranks<R>(out: &MeshOutput<R>) -> Option<Vec<usize>> {
    let mut dead = Vec::new();
    for r in out.failed_ranks() {
        match out.fault(r) {
            Some(RankFault::Deadlock { .. }) => return None,
            Some(RankFault::Panicked(_) | RankFault::SenderFinished { .. }) => dead.push(r),
            Some(RankFault::Aborted { .. }) | None => {}
        }
    }
    Some(dead)
}

/// Leaves of the interrupted sweep the log salvaged (for recovery reports).
fn ckpt_salvaged(log: &RecoveryLog, meta: &TuckerMeta) -> usize {
    log.checkpoint(meta, usize::MAX)
        .partial
        .iter()
        .filter(|f| f.is_some())
        .count()
}

/// Evaluate `global_fn` over `gap` (global coordinates) into the local
/// buffer of the block at `block` (the gap must lie inside the block).
///
/// One odometer over the gap box, mode 0 fastest, advances the global
/// coordinate in place and carries the local linear offset with it — no
/// allocation and no coordinate arithmetic per element.
fn fill_region_from(
    local: &mut DenseTensor,
    gap: &Region,
    block: &Region,
    global_fn: &(impl Fn(&[usize]) -> f64 + Sync),
) {
    if gap.cardinality() == 0 {
        return;
    }
    let strides = local.shape().strides();
    let mut off: usize = (0..gap.order())
        .map(|n| (gap.start[n] - block.start[n]) * strides[n])
        .sum();
    let mut global = gap.start.clone();
    let data = local.as_mut_slice();
    loop {
        data[off] = global_fn(&global);
        let mut n = 0;
        loop {
            if n == global.len() {
                return;
            }
            global[n] += 1;
            off += strides[n];
            if global[n] < gap.start[n] + gap.len[n] {
                break;
            }
            // Carry: rewind this mode to the gap's start.
            global[n] = gap.start[n];
            off -= gap.len[n] * strides[n];
            n += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{hooi_sweep, SeqBackend};
    use crate::meta::TuckerMeta;
    use crate::plan::{GridStrategy, TreeStrategy};

    /// Smooth but non-separable field with a deterministic noise floor, so
    /// errors are far from machine epsilon and Gram eigenvalues are simple.
    fn smooth(c: &[usize]) -> f64 {
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
    }

    #[test]
    fn fill_region_from_writes_exactly_the_gap() {
        // A 4-D block with a non-zero origin in every mode, and gaps that
        // start inside it on every mode, touch its far corner, or are a
        // single element. Inside the gap every element must be the
        // generator's value at its global coordinate (reference offsets via
        // the allocating `DenseTensor::set`); outside, the sentinel stays.
        let f = |c: &[usize]| c.iter().fold(0.5, |acc, &x| acc * 31.0 + x as f64);
        let block = Region {
            start: vec![3, 5, 2, 7],
            len: vec![4, 3, 5, 2],
        };
        for (start, len) in [
            (vec![4, 6, 3, 8], vec![2, 2, 3, 1]),
            (vec![5, 5, 4, 7], vec![2, 3, 3, 2]),
            (vec![3, 5, 2, 7], vec![4, 3, 5, 2]),
            (vec![6, 7, 6, 8], vec![1, 1, 1, 1]),
        ] {
            let gap = Region { start, len };
            let mut got = DenseTensor::from_fn(block.shape(), |_| -1.0);
            fill_region_from(&mut got, &gap, &block, &f);
            let mut want = DenseTensor::from_fn(block.shape(), |_| -1.0);
            for c in gap.shape().coords() {
                let global: Vec<usize> = c.iter().zip(&gap.start).map(|(c, s)| c + s).collect();
                let local: Vec<usize> = global
                    .iter()
                    .zip(&block.start)
                    .map(|(g, o)| g - o)
                    .collect();
                want.set(&local, f(&global));
            }
            assert_eq!(got.as_slice(), want.as_slice(), "gap {gap:?}");
        }
    }

    fn meta_small() -> TuckerMeta {
        TuckerMeta::new([8, 8, 8], [3, 3, 3])
    }

    #[test]
    fn runs_and_stays_stable() {
        let planner = Planner::new(meta_small(), 4);
        let plan = planner.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
        let out = DistRun::of(&plan, 3).run(smooth);
        assert_eq!(out.per_sweep.len(), 3);
        // Tree-based (Jacobi) HOOI is not strictly monotone; errors must
        // stay valid and in a tight band around the initial fit.
        for s in &out.per_sweep {
            assert!(s.error.is_finite() && (0.0..=1.0).contains(&s.error));
        }
        let (lo, hi) = out
            .per_sweep
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), s| {
                (lo.min(s.error), hi.max(s.error))
            });
        assert!(hi - lo < 0.25, "errors drifted wildly: {lo}..{hi}");
        assert!(out.expect_decomposition().factors_orthonormal(1e-8));
    }

    #[test]
    fn matches_sequential_hooi() {
        // Distributed and sequential HOOI from the same (HOSVD) init must
        // produce the same error sequence and factors.
        let meta = meta_small();
        let planner = Planner::new(meta.clone(), 4);
        let plan = planner.plan(TreeStrategy::chain_k(), GridStrategy::StaticOptimal);
        let dist = DistRun::of(&plan, 1).run(smooth);

        // Sequential reference: same HOSVD-style init (non-truncated Gram
        // per mode on the raw tensor).
        let t = tucker_tensor::DenseTensor::from_fn(meta.input().clone(), smooth);
        let init = crate::sthosvd::hosvd_init_factors(&t, &meta);
        let norm_sq = tucker_tensor::norm::fro_norm_sq(&t);
        let seq = hooi_sweep(
            &mut SeqBackend::new(),
            &t,
            &meta,
            &plan.tree,
            &init,
            norm_sq,
        );

        assert!(
            (dist.per_sweep[0].error - seq.stats.error).abs() < 1e-9,
            "dist {} vs seq {}",
            dist.per_sweep[0].error,
            seq.stats.error
        );
        let dist_d = dist.expect_decomposition();
        for (fd, fs) in dist_d.factors.iter().zip(&seq.factors) {
            assert!(fd.max_abs_diff(fs) < 1e-7);
        }
        assert!(dist_d.core.max_abs_diff(&seq.core) < 1e-7);
    }

    #[test]
    fn dynamic_plan_regrids_and_reports_volume() {
        // A skewed core makes the dynamic plan regrid.
        let meta = TuckerMeta::new([12, 12, 12], [2, 2, 8]);
        let planner = Planner::new(meta, 8);
        let plan = planner.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
        let out = DistRun::of(&plan, 1).run(smooth);
        let s = &out.per_sweep[0];
        if plan.grids.regrid_count() > 0 {
            assert!(s.regrid_volume > 0, "regrids must move data");
        }
        // Each aggregated comm time is a max over ranks, so each is bounded
        // by the max wall time (their *sum* need not be: different ranks can
        // dominate different categories).
        for t in [s.ttm_comm, s.regrid_comm, s.gram_comm] {
            assert!(s.wall + Duration::from_millis(1) >= t);
        }
    }

    #[test]
    fn single_rank_is_communication_free() {
        let planner = Planner::new(meta_small(), 1);
        let plan = planner.plan(TreeStrategy::Balanced, GridStrategy::StaticOptimal);
        let out = DistRun::of(&plan, 1).run(smooth);
        let s = &out.per_sweep[0];
        assert_eq!(s.ttm_volume, 0);
        assert_eq!(s.regrid_volume, 0);
        assert_eq!(s.gram_volume, 0);
    }

    #[test]
    fn error_identical_across_plans() {
        // All plans compute the same math; errors must agree.
        let planner = Planner::new(meta_small(), 4);
        let errs: Vec<f64> = planner
            .paper_lineup()
            .into_iter()
            .map(|plan| DistRun::of(&plan, 1).run(smooth).per_sweep[0].error)
            .collect();
        for e in &errs[1..] {
            assert!((e - errs[0]).abs() < 1e-9, "{errs:?}");
        }
    }

    #[test]
    fn virtual_time_matches_measured_math_exactly() {
        // Same plan, measured vs. virtual clock: identical error, identical
        // ledger volumes, decomposition present in both.
        let meta = TuckerMeta::new([10, 8, 8], [4, 3, 2]);
        let planner = Planner::new(meta, 8);
        let plan = planner.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
        let measured = DistRun::of(&plan, 2).run(smooth);
        let virt = DistRun::of(&plan, 2)
            .config(EngineConfig::virtual_time(NetModel::bgq()))
            .run(smooth);
        for (m, v) in measured.per_sweep.iter().zip(&virt.per_sweep) {
            assert_eq!(
                m.error.to_bits(),
                v.error.to_bits(),
                "math must be identical"
            );
        }
        // Per-sweep ledger windows depend on how the workers interleave the
        // ranks; the run-level ledger is deterministic and must agree
        // exactly across clocks.
        assert_eq!(measured.volume(), virt.volume());
        let md = measured.expect_decomposition();
        let vd = virt.expect_decomposition();
        assert_eq!(md.core.max_abs_diff(&vd.core), 0.0);
    }

    #[test]
    fn virtual_time_reports_modeled_comm_phases() {
        // With a split mode the TTM reduce-scatter must accrue modeled time,
        // and the modeled wall covers every modeled phase.
        let meta = TuckerMeta::new([12, 12, 12], [4, 4, 4]);
        let planner = Planner::new(meta, 8);
        let plan = planner.plan(TreeStrategy::chain_k(), GridStrategy::StaticOptimal);
        let run = DistRun::of(&plan, 1).config(EngineConfig::virtual_time(NetModel::bgq()));
        let out = run.run(smooth);
        let s = &out.per_sweep[0];
        assert!(s.ttm_comm > Duration::ZERO, "split modes must model comm");
        assert!(s.gram_comm > Duration::ZERO);
        for t in [s.ttm_comm, s.regrid_comm, s.gram_comm] {
            assert!(s.wall >= t, "virtual wall must cover each phase");
        }
        // Virtual runs are deterministic: repeat and compare the clocks.
        let again = run.run(smooth);
        assert_eq!(s.ttm_comm, again.per_sweep[0].ttm_comm);
        assert_eq!(s.gram_comm, again.per_sweep[0].gram_comm);
        assert_eq!(s.regrid_comm, again.per_sweep[0].regrid_comm);
    }

    #[test]
    fn gather_core_false_skips_decomposition() {
        let planner = Planner::new(meta_small(), 4);
        let plan = planner.plan(TreeStrategy::Balanced, GridStrategy::StaticOptimal);
        let cfg = EngineConfig {
            gather_core: false,
            ..EngineConfig::default()
        };
        let out = DistRun::of(&plan, 1).config(cfg).run(smooth);
        assert!(out.decomposition.is_none());
        assert!(out.per_sweep[0].error.is_finite());
    }

    // ------------------------------------------- planning front + recovery

    #[test]
    fn mesh_clean_run_matches_thread_universe() {
        // The "one body" fence: handing the joint-search winner to the
        // Plan-taking front is the same run as letting the planning front
        // search for it — same plan, bit-identical modeled stats, errors and
        // factors.
        let meta = meta_small();
        let cfg = EngineConfig::virtual_time(NetModel::bgq());
        let planner = Planner::new(meta.clone(), 4);
        let winner = planner.best_plan_with(
            &NetCostModel::new(NetModel::bgq(), 4),
            &SearchBudget::winner_only(),
        );
        let given = DistRun::of(&winner, 2).config(cfg.clone()).run(smooth);
        let searched = DistRun::new(&meta, 4, 2).config(cfg).run(smooth);
        assert!(searched.recoveries.is_empty());
        assert_eq!(searched.plans, vec![winner.name()]);
        assert_eq!(given.plans, searched.plans);
        assert_eq!(given.volume(), searched.volume());
        for (a, b) in given.per_sweep.iter().zip(&searched.per_sweep) {
            assert_eq!(a.error.to_bits(), b.error.to_bits());
            assert_eq!(
                (a.ttm_comm, a.gram_comm, a.comm_wall),
                (b.ttm_comm, b.gram_comm, b.comm_wall)
            );
            let predicted = |s: &SweepStats| s.provenance.as_ref().unwrap().predicted_comm;
            assert_eq!(predicted(a), predicted(b));
            assert_eq!(predicted(a), Some(a.comm_wall), "predict == execute");
        }
        let (gd, sd) = (
            given.expect_decomposition(),
            searched.expect_decomposition(),
        );
        assert_eq!(gd.core.max_abs_diff(&sd.core), 0.0);
        for (fa, fb) in gd.factors.iter().zip(&sd.factors) {
            assert_eq!(fa.max_abs_diff(fb), 0.0);
        }
    }

    #[test]
    fn failed_epochs_are_classified_by_rank_fault() {
        let mesh = MeshCfg::default();
        // An injected panic: the root died; the ranks woken into its abort
        // are alive.
        let out = Universe::run_mesh(4, &mesh, |ctx| {
            if ctx.rank() == 2 {
                panic!("injected rank failure (rank 2)");
            }
            ctx.barrier();
        });
        assert!(matches!(
            out.fault(0),
            Some(RankFault::Aborted { root: 2, .. })
        ));
        assert_eq!(dead_ranks(&out), Some(vec![2]));
        // A two-rank receive cycle while a third rank finishes: a deadlock,
        // and no rank is quarantined (the finished rank does not make it a
        // partial failure).
        let out = Universe::run_mesh(3, &mesh, |ctx| {
            if ctx.rank() < 2 {
                let _ = ctx.recv(1 - ctx.rank(), 1, VolumeCategory::Other);
            }
        });
        assert_eq!(out.failed_ranks(), vec![0, 1]);
        assert_eq!(dead_ranks(&out), None);
        // A receive from a sender that returned without sending: the
        // receiver failed of its own fault.
        let out = Universe::run_mesh(2, &mesh, |ctx| {
            if ctx.rank() == 1 {
                let _ = ctx.recv(0, 1, VolumeCategory::Other);
            }
        });
        assert_eq!(out.fault(1), Some(&RankFault::SenderFinished { src: 0 }));
        assert_eq!(dead_ranks(&out), Some(vec![1]));
    }

    #[test]
    #[should_panic(expected = "checkpoint is for a different problem")]
    fn resume_rejects_a_checkpoint_for_another_problem() {
        let other = TuckerMeta::new([6, 6, 6], [2, 2, 2]);
        let ckpt = RecoveryLog::new(3).checkpoint(&other, 1);
        let meta = meta_small();
        DistRun::new(&meta, 2, 1).resume(ckpt).run(smooth);
    }

    #[test]
    fn mesh_abort_policy_reraises_injected_failure() {
        let meta = meta_small();
        let fault = InjectedFault {
            rank: 1,
            sweep: 0,
            after_leaves: 1,
        };
        let res = std::panic::catch_unwind(|| DistRun::new(&meta, 4, 2).fault(fault).run(smooth));
        let payload = res.expect_err("abort policy must re-raise");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("injected rank failure"),
            "unexpected payload: {msg}"
        );
    }

    #[test]
    fn mesh_recovers_mid_sweep_failure_within_float_noise() {
        // Kill rank 2 one leaf into sweep 1 of 3. The run must quarantine
        // it, re-plan on 3 survivors, resume from the last committed sweep
        // and land within summation-order noise of a from-scratch 3-rank
        // run (HOOI math is grid-independent).
        let meta = meta_small();
        let cfg = EngineConfig {
            on_failure: FailurePolicy::recover(),
            ..EngineConfig::virtual_time(NetModel::bgq())
        };
        let fault = InjectedFault {
            rank: 2,
            sweep: 1,
            after_leaves: 1,
        };
        let out = DistRun::new(&meta, 4, 3)
            .config(cfg.clone())
            .fault(fault)
            .run(smooth);
        assert_eq!(out.recoveries.len(), 1);
        let ev = &out.recoveries[0];
        assert_eq!(ev.dead_ranks, vec![2]);
        assert_eq!(ev.survivors, 3);
        assert_eq!(ev.resumed_sweep, 1, "sweep 0 committed before the kill");
        assert_eq!(ev.salvaged_leaves, 1);
        assert!(!ev.replanned.is_empty());
        assert!(ev.reused_elements > 0, "live blocks must be redistributed");
        assert_eq!(out.per_sweep.len(), 3);
        assert_eq!(out.epoch_volumes.len(), 2);

        // Differential: from-scratch survivor-grid run, same sweep budget.
        let clean = DistRun::new(&meta, 3, 3).config(cfg.clone()).run(smooth);
        let e = out.per_sweep.last().unwrap().error;
        let c = clean.per_sweep.last().unwrap().error;
        assert!((e - c).abs() < 1e-10, "recovered {e} vs from-scratch {c}");

        // Pre-failure sweeps keep the virtual clocks they measured under
        // the original 4-rank grid — not re-priced under the survivor plan.
        let four = DistRun::new(&meta, 4, 1).config(cfg).run(smooth);
        assert_eq!(
            out.per_sweep[0].comm_wall, four.per_sweep[0].comm_wall,
            "pre-failure clocks must be preserved"
        );
        // The resumed sweep's prediction is voided (partial execution
        // under the new plan), later sweeps carry the survivor prediction.
        assert!(out.per_sweep[1]
            .provenance
            .as_ref()
            .unwrap()
            .predicted_comm
            .is_none());
        assert!(out.per_sweep[2]
            .provenance
            .as_ref()
            .unwrap()
            .predicted_comm
            .is_some());
    }

    #[test]
    fn failed_checkpoint_spill_ends_the_run_instead_of_killing_ranks() {
        // A spill into a directory that does not exist fails on every
        // commit. Under either policy the run must end with the I/O error
        // and its path, not quarantine the committing rank as dead.
        let meta = meta_small();
        let path = std::env::temp_dir()
            .join(format!("tucker-no-such-dir-{}", std::process::id()))
            .join("ckpt.txt");
        for on_failure in [FailurePolicy::recover(), FailurePolicy::Abort] {
            let cfg = EngineConfig {
                gather_core: false,
                on_failure,
                ..EngineConfig::virtual_time(NetModel::bgq())
            }
            .checkpoint_every(1, &path);
            let res =
                std::panic::catch_unwind(|| DistRun::new(&meta, 4, 2).config(cfg).run(smooth));
            let payload = res.expect_err("a failed spill must end the run");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            let want = format!("checkpoint spill to {} failed: ", path.display());
            assert!(msg.starts_with(&want), "{on_failure:?}: {msg}");
        }
    }

    #[test]
    fn mesh_failure_at_sweep_boundary_resumes_from_salvaged_leaves() {
        // after_leaves == 0 dies right after sweep 0's last collective —
        // before the survivors ran their (local) commit records. The commit
        // protocol is conservative: sweep 0 does not commit, but all of its
        // leaf factors were salvaged, so the resumed epoch replays sweep 0
        // with every leaf skipped (TTM chain + error only) and then runs
        // sweep 1 fresh.
        let meta = meta_small();
        let cfg = EngineConfig {
            on_failure: FailurePolicy::recover(),
            gather_core: false,
            ..EngineConfig::default()
        };
        let fault = InjectedFault {
            rank: 0,
            sweep: 1,
            after_leaves: 0,
        };
        let out = DistRun::new(&meta, 3, 2)
            .config(cfg.clone())
            .fault(fault)
            .run(smooth);
        assert_eq!(out.recoveries.len(), 1);
        assert_eq!(out.recoveries[0].salvaged_leaves, 3);
        assert_eq!(out.recoveries[0].resumed_sweep, 0);
        assert_eq!(out.per_sweep.len(), 2);
        let clean = DistRun::new(&meta, 2, 2).config(cfg).run(smooth);
        let (e, c) = (out.per_sweep[1].error, clean.per_sweep[1].error);
        assert!((e - c).abs() < 1e-10, "recovered {e} vs from-scratch {c}");
    }
}
