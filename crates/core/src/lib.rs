//! **tucker-core** — distributed Tucker decomposition for dense tensors.
//!
//! This crate implements the contributions of *"On Optimizing Distributed
//! Tucker Decomposition for Dense Tensors"* (Chakaravarthy et al., IPDPS
//! 2017) on top of the workspace substrates (`tucker-tensor`,
//! `tucker-linalg`, `tucker-distsim`):
//!
//! * [`meta`] — problem metadata: input shape `L`, core shape `K`, cost
//!   factors `K_n` and compression factors `h_n = K_n / L_n`;
//! * [`plan`] — the **planning layer** (§3–§5, DESIGN.md §6): TTM-trees
//!   and the optimal-tree DP (`plan::tree`), mode orderings
//!   (`plan::order`), the volume model, static/dynamic grid searches and
//!   symmetric-grid dedup (`plan::grid`), the pluggable
//!   [`plan::CostModel`] — closed-form flops + volume, or the α–β
//!   [`plan::NetCostModel`] priced in the engine's virtual nanoseconds —
//!   the joint grid × tree × order DP (`plan::search`), and the
//!   brute-force certification oracle (`plan::brute_force`);
//! * [`decomposition`], [`sthosvd`] — the decomposition type and the
//!   sequential STHOSVD / HOSVD initializers;
//! * [`executor`] — the **sweep executor**: the one canonical
//!   Gram → EVD-truncation → TTM loop, pluggable over execution backends
//!   ([`executor::SeqBackend`], [`executor::RayonBackend`], and the
//!   engine's distsim backend). Sequential HOOI is
//!   [`executor::hooi_sweep`] / [`executor::hooi_loop`] on a `SeqBackend`,
//!   with [`executor::gauss_seidel_sweep`] as De Lathauwer et al.'s
//!   reference variant;
//! * [`outofcore`] — the executor's loops on an input streamed in
//!   last-mode tiles ([`outofcore::TiledBackend`], any TTM-tree, a capped
//!   workspace), and the incremental sliding-window entry
//!   ([`outofcore::SlidingTucker`]);
//! * [`engine`] — the distributed *engine* (§5): executes a plan on the
//!   simulated MPI universe (the distsim backend of the executor), with
//!   per-phase time and volume accounting. One value describes every
//!   distributed HOOI, [`engine::DistRun`] — with a given plan or the joint
//!   search's — and its one `run` executes it on ranks scheduled as
//!   resumable fibers over a bounded worker pool, surviving rank failures
//!   via quarantine → survivor re-plan → resume (DESIGN.md §9);
//! * [`checkpoint`] — the durable [`checkpoint::SweepCheckpoint`]
//!   (bit-exact text format) behind that recovery path, recorded by the
//!   engine's crate-private sweep log, also usable to restart long HOOI
//!   runs;
//! * [`serve`] — the in-process decomposition **server**: a bounded job
//!   queue with admission control, same-shape batching through the sweep
//!   executor, and an exact [`plan::cache::PlanCache`] over the joint DP.
//!
//! ## Quick start
//!
//! ```
//! use tucker_core::meta::TuckerMeta;
//! use tucker_core::plan::{GridStrategy, Planner, TreeStrategy};
//!
//! // A 4-way tensor compressed 4x along every mode, on 8 ranks.
//! let meta = TuckerMeta::new([16, 16, 16, 16], [4, 4, 4, 4]);
//! let planner = Planner::new(meta, 8);
//! let plan = planner.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
//! // The optimal tree never loses on FLOPs, and for that tree the dynamic
//! // gridding scheme never loses on communication volume:
//! let naive = planner.plan(TreeStrategy::chain_k(), GridStrategy::StaticOptimal);
//! assert!(plan.flops <= naive.flops);
//! let opt_static = planner.plan(TreeStrategy::Optimal, GridStrategy::StaticOptimal);
//! assert!(plan.volume <= opt_static.volume);
//! ```

pub mod checkpoint;
pub mod decomposition;
pub mod dist_sthosvd;
pub mod engine;
pub mod executor;
pub mod meta;
pub mod outofcore;
pub mod plan;
pub mod serve;
pub mod sthosvd;

pub use decomposition::TuckerDecomposition;
pub use engine::{
    CheckpointCfg, DistRun, EngineConfig, FailurePolicy, InjectedFault, MeshHooiOutput,
    RecoveryEvent,
};
pub use executor::{
    LoopCfg, LoopOutcome, PlanProvenance, RayonBackend, SeqBackend, SweepBackend, SweepStats,
};
pub use meta::TuckerMeta;
pub use outofcore::{full_recompute, tucker_outofcore, SlidingTucker, TiledBackend};
pub use plan::order::ModeOrdering;
pub use plan::tree::{balanced_tree, chain_tree, TtmTree};
pub use plan::{
    CostModel, FlopVolumeModel, GridStrategy, NetCostModel, Plan, PlanCache, PlanCacheStats,
    Planner, RankedPlans, SearchBudget, TreeStrategy,
};
pub use serve::{
    JobError, JobKind, JobOutput, JobResult, JobSpec, ServeCfg, Server, ServerReport, SubmitError,
    Ticket,
};
