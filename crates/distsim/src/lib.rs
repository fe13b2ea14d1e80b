//! Simulated distributed-memory runtime for the Tucker workspace.
//!
//! The paper runs on an IBM BG/Q with MPI; this crate is the documented
//! substitution (DESIGN.md §2): `P` MPI ranks become `P` resumable fibers,
//! multiplexed over a few worker threads, that own disjoint blocks of each
//! tensor and exchange **real buffers** through point-to-point FIFO
//! mailboxes. On top of the mailboxes we implement the collectives the
//! paper's engine needs —
//!
//! * [`mesh`]: the rank runtime ([`Universe::run_mesh`]; [`Universe::run`]
//!   is its fail-stop front) with per-rank failure quarantine,
//! * [`comm`]: the rank handle ([`RankCtx`]) and point-to-point layer,
//! * [`collectives`]: the group all-reduce and all-gather,
//! * [`grid`]: `N`-dimensional processor grids, the `ψ(P, N)` grid count of
//!   Table 1, and grid enumeration,
//! * [`block`]: the Cartesian block distribution of §4.1,
//! * [`dist_tensor`]: a tensor block owned by one rank plus its global view,
//! * [`redistribute`]: regridding via all-to-all exchange (§4.3, §5),
//! * [`dist_ttm`]: the distributed TTM of Austin et al. — local blocked
//!   multiply + reduce-scatter along the mode's grid group (§4.1, §5),
//! * [`dist_gram`]: distributed Gram matrices for the SVD step (§5),
//! * [`exchange`]: each rank's messages in the previous three's region
//!   exchanges, which they send and the planner prices.
//!
//! Every payload byte that crosses ranks is counted by the rank that sent
//! it ([`RankCtx::volume`], by [`VolumeCategory`]; the universe's
//! [`VolumeReport`] is the sum over ranks), and every second a rank spends
//! inside a collective is tallied on its one communication clock
//! ([`RankCtx::comm`], a [`CommTimers`]), so experiments can report exactly
//! the communication-volume and communication-time splits the paper plots.
//!
//! # Virtual time (paper-scale rank counts)
//!
//! Measured times are honest only while the ranks fit the host's cores.
//! For the paper's 2⁶–2¹³-node experiments attach a [`net`] model
//! ([`MeshCfg::virtual_time`], DESIGN.md §2–§3): the α–β–γ
//! [`net::NetModel`] — with a BG/Q preset — turns [`RankCtx::comm`] into a
//! per-rank virtual clock that charges every off-rank message
//! `α + β·bytes` to both endpoints, split by [`VolumeCategory`], and
//! [`RankCtx::cpu_clock`] into one that charges every TTM, Gram share and
//! EVD its flop count at the per-core rate γ; no rank reads a host clock.
//! The same runtime executes both: a handful of worker
//! threads replays universes of thousands of ranks in seconds, and neither
//! the virtual clocks nor the volume counters — all owned by the rank —
//! depend on how many workers there are (`MeshCfg { workers: 1, .. }` is the deterministic
//! one-rank-at-a-time mode).

pub mod block;
pub mod collectives;
pub mod comm;
pub mod dist_gram;
pub mod dist_tensor;
pub mod dist_ttm;
pub mod exchange;
pub mod grid;
pub mod mesh;
pub mod net;
pub mod redistribute;

pub use block::{block_region, split_extents};
pub use comm::{CommTimers, RankCtx, Universe, VolumeCategory, VolumeReport};
pub use dist_tensor::DistTensor;
pub use grid::{
    count_grids, enumerate_grids, enumerate_valid_grids, largest_usable_rank_count, Grid,
};
pub use mesh::{
    mesh_switches, process_thread_count, MeshCfg, MeshOutput, RankFault, RankOutcome,
    MESH_STACK_BYTES, MESH_WORKER_CAP,
};
pub use net::NetModel;
