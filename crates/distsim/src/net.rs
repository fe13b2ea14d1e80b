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
//! collectives of [`crate::collectives`] and the barrier — each member's own
//! charge, not just the critical path; property tests assert that running
//! the real collective under a virtual-time universe accumulates exactly
//! these values on every rank. The region exchanges (the TTM's
//! reduce-scatter, the Gram's column shares, the regrid's all-to-all) are
//! priced by [`NetModel::exchange_ns`], the fold over the messages the
//! transport sends, as [`crate::exchange`] enumerates them.
//!
//! All costs are kept in integer nanoseconds: each message's cost is rounded
//! once, so closed forms reproduce the accumulated sums bit-exactly.

use crate::exchange::Msg;
use std::collections::HashMap;
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
}

/// `⌈log₂ n⌉` for `n ≥ 1`.
fn ceil_log2(n: usize) -> u32 {
    n.next_power_of_two().trailing_zeros()
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

impl NetModel {
    /// Build a model from a per-message latency and a link bandwidth.
    ///
    /// # Panics
    /// Panics if the bandwidth is not positive.
    pub fn new(alpha: Duration, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        let alpha_ns = alpha.as_nanos() as u64;
        let beta = 1.0e9 / bytes_per_sec;
        NetModel {
            alpha_ns,
            beta_ns_per_byte: beta,
            intra_alpha_ns: alpha_ns,
            intra_beta_ns_per_byte: beta,
            node_size: 1,
        }
    }

    /// Build a two-level hierarchical model: ranks are packed `node_size`
    /// per node; same-node messages use the `intra` pair, node-crossing
    /// messages the `inter` pair.
    ///
    /// # Panics
    /// Panics if a bandwidth is not positive or `node_size` is zero.
    pub fn hierarchical(
        intra_alpha: Duration,
        intra_bytes_per_sec: f64,
        inter_alpha: Duration,
        inter_bytes_per_sec: f64,
        node_size: usize,
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
        }
    }

    /// The paper's machine: IBM Blue Gene/Q. MPI point-to-point latency
    /// ≈ 2.5 µs; per-link torus bandwidth ≈ 1.8 GB/s.
    pub fn bgq() -> Self {
        Self::new(Duration::from_nanos(2_500), 1.8e9)
    }

    /// A commodity-cluster preset for the topology experiments: 16 ranks per
    /// node over shared memory (≈ 500 ns, 12 GB/s) connected by a
    /// commodity interconnect (≈ 5 µs, 1.2 GB/s).
    pub fn cluster() -> Self {
        Self::hierarchical(
            Duration::from_nanos(500),
            12.0e9,
            Duration::from_nanos(5_000),
            1.2e9,
            16,
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
    // Each form is the modeled communication time one member accumulates in
    // the matching implementation in `collectives.rs` (or `RankCtx::barrier`):
    // every off-rank send and recv charges its endpoint the message's price
    // on the link class between the two ranks.

    /// The allreduce charge accumulated by the member at group `index` (not
    /// just the critical path): counts that member's sends and receives in
    /// the exact algorithm [`crate::collectives::allreduce_sum`] dispatches
    /// to. For a node-contiguous group the root (`index == 0`) carries the
    /// critical path. Used to predict per-rank virtual clocks exactly (the
    /// planner's `NetCostModel`).
    ///
    /// For hierarchical models this assumes the group's member ranks are
    /// node-contiguous starting on a node boundary (true for world groups),
    /// so node membership is arithmetic: member `i` lives on bucket
    /// `i / node_size`. Arbitrary member lists are handled by
    /// [`NetModel::allreduce_members_rank_ns`].
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
        let s = self.node_size;
        let node = index / s;
        let leader = node * s;
        let bucket = s.min(g - leader);
        let nleaders = g.div_ceil(s);
        if index != leader {
            // One send up, one receive down, both intra-node.
            2 * self.intra_msg_elems_ns(len)
        } else {
            self.intra_msg_elems_ns(len) * 2 * (bucket as u64 - 1)
                + allreduce_msgs(nleaders, node) * self.msg_elems_ns(len)
        }
    }

    /// Per-member allreduce charge for an **arbitrary member list** under
    /// this model: `members` are the concrete rank ids in group order,
    /// `index` selects the charged member. Mirrors the exact dispatch of
    /// [`crate::collectives::allreduce_sum`], including the hierarchical
    /// three-phase algorithm's first-appearance node bucketing.
    pub fn allreduce_members_rank_ns(&self, members: &[usize], index: usize, len: usize) -> u64 {
        let g = members.len();
        if g <= 1 {
            return 0;
        }
        debug_assert!(index < g);
        if !self.is_hierarchical() {
            return allreduce_msgs(g, index) * self.msg_elems_ns(len);
        }
        // Bucket member indices by node id in first-appearance order,
        // exactly as the collective does.
        let buckets = self.node_buckets(members);
        let my_node = self.node_of(members[index]);
        let my_bucket = buckets
            .iter()
            .position(|b| self.node_of(members[b[0]]) == my_node)
            .expect("charged member must be bucketed");
        let bucket = &buckets[my_bucket];
        if bucket[0] != index {
            // Non-leader: one send up, one receive down, both intra-node.
            2 * self.intra_msg_elems_ns(len)
        } else {
            self.intra_msg_elems_ns(len) * 2 * (bucket.len() as u64 - 1)
                + allreduce_msgs(buckets.len(), my_bucket) * self.msg_elems_ns(len)
        }
    }

    /// Group member indices bucketed by node id in first-appearance order;
    /// the first index of each bucket is that node's leader. This is the
    /// node decomposition the hierarchical
    /// [`crate::collectives::allreduce_sum`] uses.
    pub fn node_buckets(&self, members: &[usize]) -> Vec<Vec<usize>> {
        let mut bucket_of: HashMap<usize, usize> = HashMap::new();
        let mut buckets: Vec<Vec<usize>> = Vec::new();
        for (i, &r) in members.iter().enumerate() {
            let b = *bucket_of.entry(self.node_of(r)).or_insert_with(|| {
                buckets.push(Vec::new());
                buckets.len() - 1
            });
            buckets[b].push(i);
        }
        buckets
    }

    /// Per-member charge of the direct-exchange all-gather of `len` elements.
    pub fn allgather_members_rank_ns(&self, members: &[usize], index: usize, len: usize) -> u64 {
        let g = members.len();
        debug_assert!(index < g);
        (0..g)
            .filter(|&j| j != index)
            .map(|j| 2 * self.msg_elems_ns_between(members[index], members[j], len))
            .sum()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_is_affine_and_rounded_once() {
        let m = NetModel::new(Duration::from_nanos(1000), 1.0e9); // 1ns/byte
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
    }

    #[test]
    fn closed_forms_degenerate_to_zero_for_singletons() {
        let m = NetModel::bgq();
        assert_eq!(m.allreduce_rank_ns(1, 0, 100), 0);
        assert_eq!(m.allreduce_members_rank_ns(&[3], 0, 100), 0);
        assert_eq!(m.allgather_members_rank_ns(&[3], 0, 100), 0);
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
    fn member_list_form_matches_world_form_for_contiguous_ranks() {
        let m = NetModel::cluster();
        for g in [1usize, 2, 16, 31, 64, 100] {
            let members: Vec<usize> = (0..g).collect();
            for i in 0..g {
                assert_eq!(
                    m.allreduce_members_rank_ns(&members, i, 9),
                    m.allreduce_rank_ns(g, i, 9),
                    "g={g} i={i}"
                );
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
