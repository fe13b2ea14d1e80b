//! The α–β (postal / LogP-style) network model for virtual-time execution.
//!
//! The honest execution mode measures real wall/CPU time, which caps rank
//! counts at roughly the host's core count. The *virtual-time* mode instead
//! charges every off-rank message a modeled cost
//!
//! ```text
//! t(m) = α + β · m        (α: per-message latency, β: seconds per byte)
//! ```
//!
//! to **both** endpoints (injection and reception are both link-limited on a
//! torus like BG/Q's). Costs accumulate per rank on its one communication
//! clock, [`RankCtx::comm`](crate::comm::RankCtx), split by
//! [`VolumeCategory`](crate::comm::VolumeCategory) exactly as measured wall
//! time would be, so engines report modeled phase breakdowns through the
//! same stats structs as measured ones.
//!
//! Because payload sizes are deterministic in an SPMD program, the per-rank
//! accounting admits closed forms. This module states them for the
//! collectives of [`crate::collectives`] and the barrier — each rank's own
//! charge, not just the critical path; property tests assert that running
//! the real collective under a virtual-time universe accumulates exactly
//! these values on every rank. The region exchanges (the TTM's
//! reduce-scatter, the Gram's column shares, the regrid's all-to-all) are
//! priced by [`NetModel::exchange_ns`], the fold over the messages the
//! transport sends, as [`crate::exchange`] enumerates them.
//!
//! Compute is priced in the same terms (the α–β–γ model of Austin, Ballard
//! and Kolda): a per-core rate γ turns each operation's flop count into
//! modelled nanoseconds on the rank's compute clock. The counts are written
//! once, below ([`ttm_flops`], [`gram_flops`], [`evd_flops`]), and both the
//! executing rank and the planner's prediction call them, so under a
//! `NetModel` no rank reads a host clock at all.
//!
//! All costs are kept in integer nanoseconds: each message's cost and each
//! operation's compute are rounded once, so closed forms reproduce the
//! accumulated sums bit-exactly.

use crate::block::chunk;
use crate::exchange::{Msg, MAX_ORDER};
use crate::grid::Grid;
use std::ops::Range;
use std::time::Duration;

/// Per-link latency/bandwidth model. See the module docs for the cost rule.
///
/// The model is a **two-level hierarchy**: ranks are packed into nodes of
/// `node_size` consecutive ranks (node id = `rank / node_size`), messages
/// between ranks on the same node pay the *intra* (α, β) pair, messages that
/// cross a node boundary pay the *inter* pair. A flat single-link network is
/// the degenerate preset `node_size == 1` with `intra == inter`, which keeps
/// every pre-existing closed form and charge bit-identical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetModel {
    /// Inter-node (and flat-model) per-message latency.
    alpha_ns: u64,
    /// Inter-node (and flat-model) inverse bandwidth.
    beta_ns_per_byte: f64,
    /// Intra-node per-message latency (== `alpha_ns` for flat models).
    intra_alpha_ns: u64,
    /// Intra-node inverse bandwidth (== `beta_ns_per_byte` for flat models).
    intra_beta_ns_per_byte: f64,
    /// Ranks per node; 1 means flat (every distinct pair is inter-node).
    node_size: usize,
    /// Per-core compute time γ, in ns per flop.
    gamma_ns_per_flop: f64,
}

/// `⌈log₂ n⌉` for `n ≥ 1`.
fn ceil_log2(n: usize) -> u32 {
    n.next_power_of_two().trailing_zeros()
}

/// Where one rank sits in the hierarchical all-reduce of a `p`-rank world
/// under node size `s` ([`NetModel::node_layout`]): every value is a closed
/// form of `(p, s, rank)`.
#[derive(Clone, Debug)]
pub(crate) struct NodeLayout {
    /// The rank's node, `rank / s`; also its leader's index among the
    /// leaders.
    pub node: usize,
    /// The node's leader, `node · s`: its lowest rank.
    pub leader: usize,
    /// The node's other ranks, `leader + 1 .. min(leader + s, p)`, in the
    /// order the leader sums them.
    pub bucket: Range<usize>,
    /// The size of the leaders group, `⌈p / s⌉`: ranks `0, s, 2s, …`.
    pub leaders: usize,
}

/// Number of messages (sends + receives) the member at group `index` moves
/// in the **single-link** allreduce [`crate::collectives::allreduce_sum`]
/// dispatches to on a group of `g`: flat gather+broadcast at or below
/// [`crate::collectives::TREE_ALLREDUCE_THRESHOLD`], binomial tree above it.
/// Every message in one allreduce carries the same payload, so a member's
/// charge is this count times the per-message cost of the link class it
/// runs on.
pub(crate) fn allreduce_msgs(g: usize, index: usize) -> u64 {
    if g <= 1 {
        return 0;
    }
    debug_assert!(index < g);
    if g <= crate::collectives::TREE_ALLREDUCE_THRESHOLD {
        // Flat gather+broadcast: the root pays 2(g−1), members 2.
        return if index == 0 { 2 * (g as u64 - 1) } else { 2 };
    }
    // Binomial tree: count this member's messages in both phases,
    // mirroring `allreduce_sum_tree` round for round.
    let mut msgs: u64 = 0;
    let mut mask = 1usize;
    while mask < g {
        if index & mask != 0 {
            msgs += 1; // send up, then drop out of the reduce phase
            break;
        } else if index + mask < g {
            msgs += 1; // receive
        }
        mask <<= 1;
    }
    let mut top = 1usize;
    while top < g {
        top <<= 1;
    }
    let mut mask = if index == 0 {
        top >> 1
    } else {
        msgs += 1; // receive from the broadcast parent
        let lowbit = index & index.wrapping_neg();
        lowbit >> 1
    };
    while mask >= 1 {
        if index + mask < g {
            msgs += 1; // forward down the broadcast tree
        }
        mask >>= 1;
    }
    msgs
}

/// `1e9 / flops_per_sec`, checked.
fn gamma(flops_per_sec: f64) -> f64 {
    assert!(flops_per_sec > 0.0, "compute rate must be positive");
    1.0e9 / flops_per_sec
}

impl NetModel {
    /// Build a model from a per-message latency, a link bandwidth and a
    /// per-core compute rate.
    ///
    /// # Panics
    /// Panics if the bandwidth or the compute rate is not positive.
    pub fn new(alpha: Duration, bytes_per_sec: f64, flops_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        let alpha_ns = alpha.as_nanos() as u64;
        let beta = 1.0e9 / bytes_per_sec;
        NetModel {
            alpha_ns,
            beta_ns_per_byte: beta,
            intra_alpha_ns: alpha_ns,
            intra_beta_ns_per_byte: beta,
            node_size: 1,
            gamma_ns_per_flop: gamma(flops_per_sec),
        }
    }

    /// Build a two-level hierarchical model: ranks are packed `node_size`
    /// per node; same-node messages use the `intra` pair, node-crossing
    /// messages the `inter` pair. Every core computes at `flops_per_sec`.
    ///
    /// # Panics
    /// Panics if a bandwidth or the compute rate is not positive or
    /// `node_size` is zero.
    pub fn hierarchical(
        intra_alpha: Duration,
        intra_bytes_per_sec: f64,
        inter_alpha: Duration,
        inter_bytes_per_sec: f64,
        node_size: usize,
        flops_per_sec: f64,
    ) -> Self {
        assert!(intra_bytes_per_sec > 0.0, "bandwidth must be positive");
        assert!(inter_bytes_per_sec > 0.0, "bandwidth must be positive");
        assert!(node_size >= 1, "node_size must be at least 1");
        NetModel {
            alpha_ns: inter_alpha.as_nanos() as u64,
            beta_ns_per_byte: 1.0e9 / inter_bytes_per_sec,
            intra_alpha_ns: intra_alpha.as_nanos() as u64,
            intra_beta_ns_per_byte: 1.0e9 / intra_bytes_per_sec,
            node_size,
            gamma_ns_per_flop: gamma(flops_per_sec),
        }
    }

    /// The paper's machine: IBM Blue Gene/Q. MPI point-to-point latency
    /// ≈ 2.5 µs; per-link torus bandwidth ≈ 1.8 GB/s; one A2 core computes
    /// 12.8 GFLOP/s (1.6 GHz × 8 flops per cycle: a 4-wide QPX fused
    /// multiply-add).
    pub fn bgq() -> Self {
        Self::new(Duration::from_nanos(2_500), 1.8e9, 12.8e9)
    }

    /// A commodity-cluster preset for the topology experiments: 16 ranks per
    /// node over shared memory (≈ 500 ns, 12 GB/s) connected by a
    /// commodity interconnect (≈ 5 µs, 1.2 GB/s); one x86 core computes
    /// 40 GFLOP/s (2.5 GHz × 16 flops per cycle: two 4-wide AVX2 FMA
    /// pipes).
    pub fn cluster() -> Self {
        Self::hierarchical(
            Duration::from_nanos(500),
            12.0e9,
            Duration::from_nanos(5_000),
            1.2e9,
            16,
            40.0e9,
        )
    }

    /// Per-message latency α of the inter-node (flat) link.
    pub fn alpha(&self) -> Duration {
        Duration::from_nanos(self.alpha_ns)
    }

    /// Inverse bandwidth β of the inter-node (flat) link, in ns per byte.
    pub fn beta_ns_per_byte(&self) -> f64 {
        self.beta_ns_per_byte
    }

    /// Per-message latency α of the intra-node link.
    pub fn intra_alpha(&self) -> Duration {
        Duration::from_nanos(self.intra_alpha_ns)
    }

    /// Inverse bandwidth β of the intra-node link, in ns per byte.
    pub fn intra_beta_ns_per_byte(&self) -> f64 {
        self.intra_beta_ns_per_byte
    }

    /// Per-core compute time γ, in ns per flop.
    pub fn gamma_ns_per_flop(&self) -> f64 {
        self.gamma_ns_per_flop
    }

    /// Modelled compute time of `flops` on one core, in nanoseconds:
    /// `γ·flops`, rounded once.
    pub fn compute_ns(&self, flops: u64) -> u64 {
        (self.gamma_ns_per_flop * flops as f64).round() as u64
    }

    /// Ranks per node (1 for flat models).
    pub fn node_size(&self) -> usize {
        self.node_size
    }

    /// Whether the model distinguishes link classes at all.
    pub fn is_hierarchical(&self) -> bool {
        self.node_size > 1
    }

    /// The flat (single-level) model with this model's *inter-node* link
    /// parameters: the topology a hierarchy-blind planner would assume for
    /// the same machine. Flat models round-trip to themselves.
    pub fn flattened(&self) -> NetModel {
        NetModel {
            alpha_ns: self.alpha_ns,
            beta_ns_per_byte: self.beta_ns_per_byte,
            intra_alpha_ns: self.alpha_ns,
            intra_beta_ns_per_byte: self.beta_ns_per_byte,
            node_size: 1,
            gamma_ns_per_flop: self.gamma_ns_per_flop,
        }
    }

    /// The node id a rank lives on.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.node_size
    }

    /// Whether two ranks share a node (always false for distinct ranks
    /// under a flat model).
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Modeled cost of one **inter-node** (or flat) message of `bytes`, in
    /// nanoseconds: `α + β·bytes`, rounded once.
    fn msg_ns(&self, bytes: u64) -> u64 {
        self.alpha_ns + (self.beta_ns_per_byte * bytes as f64).round() as u64
    }

    /// Modeled cost of one **intra-node** message of `bytes`.
    fn intra_msg_ns(&self, bytes: u64) -> u64 {
        self.intra_alpha_ns + (self.intra_beta_ns_per_byte * bytes as f64).round() as u64
    }

    /// Cost of one message between two concrete ranks: picks the link class
    /// from the endpoints' node ids.
    pub(crate) fn msg_ns_between(&self, src: usize, dst: usize, bytes: u64) -> u64 {
        if self.same_node(src, dst) {
            self.intra_msg_ns(bytes)
        } else {
            self.msg_ns(bytes)
        }
    }

    /// Cost of an inter-node (or flat) message of `len` f64 elements: under
    /// a flat model, the price of every message between distinct ranks.
    pub fn msg_elems_ns(&self, len: usize) -> u64 {
        self.msg_ns((len * 8) as u64)
    }

    /// Cost of an intra-node message of `len` f64 elements.
    fn intra_msg_elems_ns(&self, len: usize) -> u64 {
        self.intra_msg_ns((len * 8) as u64)
    }

    /// Cost of a message of `len` f64 elements between two concrete ranks.
    pub fn msg_elems_ns_between(&self, src: usize, dst: usize, len: usize) -> u64 {
        self.msg_ns_between(src, dst, (len * 8) as u64)
    }

    /// The α–β charge of one rank's messages in a region exchange
    /// ([`crate::exchange`]), each priced on its endpoint pair's link.
    pub fn exchange_ns(&self, msgs: impl IntoIterator<Item = Msg>) -> u64 {
        msgs.into_iter()
            .map(|m| self.msg_elems_ns_between(m.src, m.dst, m.elems))
            .sum()
    }

    // ------------------------------------------------ collective closed forms
    //
    // Each form is the modeled communication time one rank accumulates in
    // the matching implementation in `collectives.rs` (or `RankCtx::barrier`):
    // every off-rank send and recv charges its endpoint the message's price
    // on the link class between the two ranks.

    /// The node layout [`crate::collectives::allreduce_sum`]'s hierarchical
    /// algorithm runs on, seen from world rank `rank` of a `p`-rank world.
    /// Under a flat model every rank is its own node's leader.
    pub(crate) fn node_layout(&self, p: usize, rank: usize) -> NodeLayout {
        debug_assert!(rank < p);
        let s = self.node_size;
        let node = rank / s;
        let leader = node * s;
        NodeLayout {
            node,
            leader,
            bucket: leader + 1..(leader + s).min(p),
            leaders: p.div_ceil(s),
        }
    }

    /// The allreduce charge accumulated by world rank `index` of a `g`-rank
    /// world (not just the critical path): counts that rank's sends and
    /// receives in the exact algorithm [`crate::collectives::allreduce_sum`]
    /// dispatches to. The root (`index == 0`) carries the critical path.
    /// Used to predict per-rank virtual clocks exactly (the planner's
    /// `NetCostModel`).
    pub fn allreduce_rank_ns(&self, g: usize, index: usize, len: usize) -> u64 {
        if g <= 1 {
            return 0;
        }
        debug_assert!(index < g);
        if !self.is_hierarchical() {
            return allreduce_msgs(g, index) * self.msg_elems_ns(len);
        }
        // Hierarchical three-phase allreduce: intra-node flat gather at the
        // node leader, leader-level allreduce over the inter link (leaders
        // sit on distinct nodes by construction), intra-node broadcast.
        let at = self.node_layout(g, index);
        if index != at.leader {
            // One send up, one receive down, both intra-node.
            2 * self.intra_msg_elems_ns(len)
        } else {
            self.intra_msg_elems_ns(len) * 2 * at.bucket.len() as u64
                + allreduce_msgs(at.leaders, at.node) * self.msg_elems_ns(len)
        }
    }

    /// The direct-exchange all-gather charge of world rank `index` of a
    /// `g`-rank world, `len` elements per rank: a send to and a receive
    /// from each other rank, intra-node for the rank's node peers.
    pub fn allgather_rank_ns(&self, g: usize, index: usize, len: usize) -> u64 {
        debug_assert!(index < g);
        let peers = self.node_layout(g, index).bucket.len() as u64;
        let others = (g - 1) as u64 - peers;
        2 * (peers * self.intra_msg_elems_ns(len) + others * self.msg_elems_ns(len))
    }

    /// Dissemination barrier over `p` ranks: `⌈log₂ p⌉` latency-only rounds.
    /// Under a hierarchical model the barrier disseminates within nodes
    /// first and across node leaders second:
    /// `⌈log₂ min(node_size, p)⌉` intra rounds plus `⌈log₂ ⌈p/node_size⌉⌉`
    /// inter rounds (flat models degenerate to the single-link form).
    pub fn barrier_ns(&self, p: usize) -> u64 {
        let p = p.max(1);
        if !self.is_hierarchical() {
            return u64::from(ceil_log2(p)) * self.alpha_ns;
        }
        let intra_rounds = u64::from(ceil_log2(self.node_size.min(p)));
        let inter_rounds = u64::from(ceil_log2(p.div_ceil(self.node_size)));
        intra_rounds * self.intra_alpha_ns + inter_rounds * self.alpha_ns
    }
}

// ------------------------------------------------------------ flop counts
//
// What one rank computes in each priced operation, counted once: the rank
// that runs the operation charges its compute clock with it, and the
// planner's replay of a sweep charges the same count to the same rank.
// Regrids and the column-share pack/unpack move data and count 0 flops, and
// so do local norms (`|block|` multiply-adds, a few per cent of the TTM that
// produced the block): the paper's model counts the kernels' flops and the
// communicated volume, nothing else.

/// Flops per `L³` of one symmetric eigendecomposition with eigenvectors
/// (tridiagonal reduction plus implicit QR): Golub and Van Loan's ≈ 9.
const EVD_FLOPS_PER_CUBE: usize = 9;

/// `rank`'s block of a tensor of global `shape` under `grid`, seen along
/// mode `n`: its mode-`n` rows, its mode-`n` fibers and its coordinate in
/// mode `n`.
fn block_along(shape: &[usize], grid: &Grid, rank: usize, n: usize) -> (usize, usize, usize) {
    let order = shape.len();
    let mut coord = [0usize; MAX_ORDER];
    grid.coord_into(rank, &mut coord[..order]);
    let extent = |m: usize| chunk(shape[m], grid.dim(m), coord[m]).1;
    let fibers = (0..order).filter(|&m| m != n).map(extent).product();
    (extent(n), fibers, coord[n])
}

/// The flops `rank` spends on its local product in a distributed TTM along
/// mode `n` of a tensor of global `shape` onto `k` rows
/// ([`crate::dist_ttm::dist_ttm`]): `2·k·|block|`, a multiply-add per
/// element of the block and output row.
pub fn ttm_flops(shape: &[usize], grid: &Grid, rank: usize, n: usize, k: usize) -> u64 {
    let (rows, fibers, _) = block_along(shape, grid, rank, n);
    2 * (k * rows * fibers) as u64
}

/// The flops `rank` spends on its share of a distributed mode-`n` Gram of a
/// tensor of global `shape` ([`crate::dist_gram::dist_gram`]): the
/// lower-triangle SYRK of its column share, `L(L+1)·cols` for `L = shape[n]`
/// and the share's `cols` fibers (`chunk(fibers, q_n, c_n)` of the block's).
pub fn gram_flops(shape: &[usize], grid: &Grid, rank: usize, n: usize) -> u64 {
    let (_, fibers, c) = block_along(shape, grid, rank, n);
    let (l, cols) = (shape[n], chunk(fibers, grid.dim(n), c).1);
    (l * (l + 1) * cols) as u64
}

/// The flops of one replicated truncation of an `l × l` Gram
/// ([`crate::comm::RankCtx::leading_from_gram`]): `9·l³`.
pub fn evd_flops(l: usize) -> u64 {
    (EVD_FLOPS_PER_CUBE * l.pow(3)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_is_affine_and_rounded_once() {
        let m = NetModel::new(Duration::from_nanos(1000), 1.0e9, 1.0e9); // 1ns/byte
        assert_eq!(m.msg_ns(0), 1000);
        assert_eq!(m.msg_ns(8), 1008);
        assert_eq!(m.msg_elems_ns(4), 1032);
    }

    #[test]
    fn bgq_preset_is_sane() {
        let m = NetModel::bgq();
        assert_eq!(m.alpha(), Duration::from_nanos(2500));
        // 1.8 GB/s → ~0.556 ns/byte.
        assert!((m.beta_ns_per_byte() - 0.5555).abs() < 1e-3);
        // An 8 MB message is bandwidth-dominated: ≈ 4.66 ms.
        let t = Duration::from_nanos(m.msg_ns(8 << 20));
        assert!(t > Duration::from_millis(4) && t < Duration::from_millis(5));
        // 12.8 GFLOP/s → 0.078125 ns per flop, exactly.
        assert_eq!(m.gamma_ns_per_flop(), 0.078125);
        assert_eq!(m.compute_ns(128), 10);
        assert_eq!(m.flattened().gamma_ns_per_flop(), m.gamma_ns_per_flop());
    }

    #[test]
    fn per_rank_flops_sum_to_the_whole_tensors_count() {
        // Over every rank, the TTM's local products cost 2·K·|T| and the
        // Gram shares `L(L+1)` per fiber of the tensor: the blocks and the
        // column shares partition it.
        let shape = [7usize, 5, 6];
        let card: u64 = shape.iter().map(|&l| l as u64).product();
        for dims in [[1usize, 1, 1], [2, 1, 3], [3, 2, 2], [7, 1, 1]] {
            let g = Grid::new(dims);
            for n in 0..shape.len() {
                let l = shape[n] as u64;
                let ttm: u64 = (0..g.nranks())
                    .map(|r| ttm_flops(&shape, &g, r, n, 4))
                    .sum();
                let gram: u64 = (0..g.nranks()).map(|r| gram_flops(&shape, &g, r, n)).sum();
                assert_eq!(ttm, 2 * 4 * card, "grid {dims:?} mode {n}");
                assert_eq!(gram, (l + 1) * card, "grid {dims:?} mode {n}");
            }
        }
        assert_eq!(evd_flops(10), 9_000);
    }

    #[test]
    fn closed_forms_degenerate_to_zero_for_singletons() {
        let m = NetModel::bgq();
        assert_eq!(m.allreduce_rank_ns(1, 0, 100), 0);
        assert_eq!(m.allgather_rank_ns(1, 0, 100), 0);
        assert_eq!(m.barrier_ns(1), 0);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }

    #[test]
    fn per_rank_allreduce_root_is_critical_path() {
        let m = NetModel::bgq();
        for g in [2usize, 3, 5, 8, 9, 16, 23, 64] {
            let root = m.allreduce_rank_ns(g, 0, 17);
            for i in 1..g {
                assert!(m.allreduce_rank_ns(g, i, 17) <= root, "g={g} i={i}");
            }
        }
    }

    #[test]
    fn per_rank_allreduce_total_is_2gm1_per_endpoint_pair() {
        // Each of the 2(g−1) messages charges both endpoints once, so the
        // sum over members equals 2 · 2(g−1) · msg.
        let m = NetModel::bgq();
        for g in [4usize, 11, 16] {
            let total: u64 = (0..g).map(|i| m.allreduce_rank_ns(g, i, 5)).sum();
            assert_eq!(total, 4 * (g as u64 - 1) * m.msg_elems_ns(5), "g={g}");
        }
    }

    #[test]
    fn flat_models_are_degenerate_hierarchies() {
        let m = NetModel::bgq();
        assert!(!m.is_hierarchical());
        assert_eq!(m.node_size(), 1);
        assert_eq!(m.intra_alpha(), m.alpha());
        assert_eq!(m.intra_beta_ns_per_byte(), m.beta_ns_per_byte());
        // Every distinct pair is inter-node; self is "same node".
        assert_eq!(m.msg_ns_between(3, 7, 64), m.msg_ns(64));
        assert!(m.same_node(5, 5));
        assert!(!m.same_node(0, 1));
    }

    #[test]
    fn cluster_preset_link_classes() {
        let m = NetModel::cluster();
        assert!(m.is_hierarchical());
        assert_eq!(m.node_size(), 16);
        assert_eq!(m.node_of(15), 0);
        assert_eq!(m.node_of(16), 1);
        assert!(m.same_node(0, 15));
        assert!(!m.same_node(15, 16));
        // Intra messages are strictly cheaper at any size.
        for bytes in [0u64, 8, 1 << 10, 1 << 20] {
            assert!(m.intra_msg_ns(bytes) < m.msg_ns(bytes));
            assert_eq!(m.msg_ns_between(1, 2, bytes), m.intra_msg_ns(bytes));
            assert_eq!(m.msg_ns_between(1, 17, bytes), m.msg_ns(bytes));
        }
    }

    #[test]
    fn hierarchical_allreduce_root_is_critical_path() {
        let m = NetModel::cluster();
        for g in [2usize, 16, 17, 48, 64, 100, 256] {
            let root = m.allreduce_rank_ns(g, 0, 17);
            for i in 1..g {
                assert!(m.allreduce_rank_ns(g, i, 17) <= root, "g={g} i={i}");
            }
        }
    }

    #[test]
    fn hierarchical_allreduce_member_sum_counts_both_endpoints() {
        // 2(g−nl) intra messages (gather+bcast) and the leader-level
        // allreduce's messages, each charging both endpoints once.
        let m = NetModel::cluster();
        for g in [2usize, 16, 17, 48, 64, 256] {
            let nl = g.div_ceil(m.node_size()) as u64;
            let total: u64 = (0..g).map(|i| m.allreduce_rank_ns(g, i, 5)).sum();
            let expect =
                4 * (g as u64 - nl) * m.intra_msg_elems_ns(5) + 4 * (nl - 1) * m.msg_elems_ns(5);
            assert_eq!(total, expect, "g={g}");
        }
    }

    #[test]
    fn node_layout_matches_first_appearance_bucketing() {
        // The reference: bucket ranks 0..p by node id in first-appearance
        // order; a bucket's first rank leads it, and the leaders form a
        // group in bucket order.
        for s in [1usize, 3, 16] {
            let m = NetModel::hierarchical(
                Duration::from_nanos(500),
                12.0e9,
                Duration::from_nanos(5_000),
                1.2e9,
                s,
                1.0e9,
            );
            for p in [1usize, 2, 15, 16, 31, 64, 100] {
                let mut buckets: Vec<Vec<usize>> = Vec::new();
                for r in 0..p {
                    match buckets.iter_mut().find(|b| m.same_node(b[0], r)) {
                        Some(b) => b.push(r),
                        None => buckets.push(vec![r]),
                    }
                }
                let leaders: Vec<usize> = buckets.iter().map(|b| b[0]).collect();
                for (b, bucket) in buckets.iter().enumerate() {
                    for &r in bucket {
                        let at = m.node_layout(p, r);
                        assert_eq!(at.node, b, "s={s} p={p} r={r}");
                        assert_eq!(at.leader, bucket[0], "s={s} p={p} r={r}");
                        assert!(at.bucket.clone().eq(bucket[1..].iter().copied()));
                        assert_eq!(at.leaders, leaders.len(), "s={s} p={p} r={r}");
                        assert!((0..at.leaders).map(|i| i * s).eq(leaders.iter().copied()));
                    }
                }
            }
        }
    }

    #[test]
    fn hierarchical_barrier_splits_rounds_by_level() {
        let m = NetModel::cluster();
        // 64 ranks = 4 nodes of 16: log2(16) intra + log2(4) inter rounds.
        let expect = 4 * m.intra_alpha().as_nanos() as u64 + 2 * m.alpha().as_nanos() as u64;
        assert_eq!(m.barrier_ns(64), expect);
        // Flat models keep the single-link form.
        let f = NetModel::bgq();
        assert_eq!(f.barrier_ns(64), 6 * f.alpha().as_nanos() as u64);
    }

    #[test]
    fn tree_beats_flat_for_large_groups() {
        // The root of a flat group pays 2(g−1) messages, the root of a tree
        // 2⌈log₂ g⌉; the switch sits at the implementation's threshold.
        let m = NetModel::bgq();
        let msg = m.msg_elems_ns(10);
        assert_eq!(m.allreduce_rank_ns(8, 0, 10), 2 * 7 * msg);
        assert_eq!(m.allreduce_rank_ns(9, 0, 10), 2 * 4 * msg);
        let tree = m.allreduce_rank_ns(64, 0, 100);
        assert_eq!(tree, 2 * 6 * m.msg_elems_ns(100));
        assert!(tree < 2 * 63 * m.msg_elems_ns(100));
    }
}
