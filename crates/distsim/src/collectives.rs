//! Group collectives built on the point-to-point layer.
//!
//! A [`Group`] is the analogue of an MPI sub-communicator: an ordered list of
//! ranks that all enter the same collective together. Only the two
//! collectives the engine runs live here, each moving the canonical byte
//! count:
//!
//! * [`allreduce_sum`] (the Gram and norm reductions): flat gather at the
//!   root plus broadcast up to `TREE_ALLREDUCE_THRESHOLD` (8) members, a
//!   binomial tree above it (the scaling runs reach P = 8192), and a
//!   node-leader three-phase variant under a hierarchical model — `2(g−1)`
//!   messages of `len` elements in every case;
//! * [`allgather`] (the core gather): direct exchange — every member sends
//!   its buffer to each of the other `g − 1`.
//!
//! The distributed TTM's reduce-scatter ([`crate::dist_ttm`]), the Gram's
//! column-share exchange ([`crate::dist_gram`]) and the regrid's all-to-all
//! ([`crate::redistribute`]) move tensor *regions* rather than flat buffers,
//! so they live with their callers and use the same point-to-point layer
//! (and therefore the same per-rank counters and clock).
//!
//! # Failure semantics (DESIGN.md §2, §9)
//!
//! A member dying mid-collective quarantines the epoch ([`crate::mesh`]):
//! every rank blocked in (or later entering) a point-to-point op of the
//! collective panics with the typed abort payload
//! ([`crate::RankFault::Aborted`]) instead of deadlocking. No collective ever delivers a
//! *partial* result — a member either returns the full reduction (every
//! contribution arrived before the death) or unwinds. The recovery layer
//! leans on exactly this all-or-nothing property: a factor recorded by the
//! sweep log was truncated from a complete world allreduce and is therefore
//! bitwise identical on every surviving rank, so salvaged leaves can seed
//! the resumed epoch without cross-rank reconciliation.

use crate::comm::{RankCtx, VolumeCategory};

/// Member storage: the world group is a virtual `0..n` range so that
/// world-wide collectives at paper-scale rank counts do not allocate a
/// `P`-element vector on every rank (that alone dominated large-`P` runs).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Members {
    /// The contiguous world group `0..n`.
    Range(usize),
    /// An explicit ordered member list.
    List(Vec<usize>),
}

/// An ordered set of ranks acting as a sub-communicator.
///
/// All members must call each collective with identical `members` lists and
/// matching arguments (the usual SPMD contract).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    members: Members,
    my_index: usize,
}

impl Group {
    /// Build the group for `ctx`'s rank.
    ///
    /// # Panics
    /// Panics if the calling rank is not among `members` or members repeat.
    pub fn new(ctx: &RankCtx, members: Vec<usize>) -> Self {
        let my_index = members
            .iter()
            .position(|&r| r == ctx.rank())
            .expect("calling rank must belong to the group");
        let mut sorted = members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), members.len(), "duplicate ranks in group");
        Group {
            members: Members::List(members),
            my_index,
        }
    }

    /// The whole-universe group (allocation-free).
    pub fn world(ctx: &RankCtx) -> Self {
        Group {
            members: Members::Range(ctx.nranks()),
            my_index: ctx.rank(),
        }
    }

    /// Group size.
    pub fn len(&self) -> usize {
        match &self.members {
            Members::Range(n) => *n,
            Members::List(v) => v.len(),
        }
    }

    /// `true` for an empty group.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This rank's index within the group.
    pub fn my_index(&self) -> usize {
        self.my_index
    }

    /// Member ranks in group order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(|i| self.member(i))
    }

    /// The rank at group index `i`.
    pub fn member(&self, i: usize) -> usize {
        match &self.members {
            Members::Range(n) => {
                debug_assert!(i < *n);
                i
            }
            Members::List(v) => v[i],
        }
    }
}

/// Group size above which [`allreduce_sum`] switches from the flat
/// gather+broadcast to the binomial-tree algorithm. Shared with
/// [`crate::net::allreduce_msgs`] so the α–β per-rank forms dispatch
/// identically.
pub(crate) const TREE_ALLREDUCE_THRESHOLD: usize = 8;

/// Elementwise sum-all-reduce of `buf` across the group.
///
/// Small groups use a flat gather-at-root + broadcast; larger groups use a
/// binomial reduce/broadcast tree (`allreduce_sum_tree`). Both move
/// `2(g−1)·len` elements in total; the tree variant has `O(log g)` depth
/// instead of `O(g)` serialization at the root, mirroring real MPI
/// implementations.
pub fn allreduce_sum(ctx: &mut RankCtx, g: &Group, buf: &mut [f64], tag: u32, cat: VolumeCategory) {
    // Under a hierarchical network model, *always* take the topology-aware
    // three-phase algorithm (even for single-node groups) so executed
    // virtual clocks and the closed forms in `net.rs` stay in lockstep.
    if ctx.net().is_some_and(|n| n.is_hierarchical()) {
        allreduce_sum_hier(ctx, g, buf, tag, cat);
    } else if g.len() > TREE_ALLREDUCE_THRESHOLD {
        allreduce_sum_tree(ctx, g, buf, tag, cat);
    } else {
        allreduce_sum_flat(ctx, g, buf, tag, cat);
    }
}

/// Hierarchical three-phase allreduce (DESIGN.md §10): members bucket by
/// node id (first-appearance order), each node's first member acts as its
/// leader. Phase 1 flat-gathers within each node at the leader (intra-node
/// traffic), phase 2 runs the ordinary flat/tree allreduce among the
/// leaders (inter-node traffic — leaders sit on distinct nodes), phase 3
/// broadcasts the result back within each node. Total message count is
/// `2(g−1)`, the same as the single-link algorithms, so the byte ledger is
/// unchanged; only the link classes (and hence virtual time) differ.
///
/// Uses tags `tag..=tag+2` for phases 1–2 and `tag+3` for phase 3.
fn allreduce_sum_hier(
    ctx: &mut RankCtx,
    g: &Group,
    buf: &mut [f64],
    tag: u32,
    cat: VolumeCategory,
) {
    if g.len() <= 1 {
        return;
    }
    let net = *ctx
        .net()
        .expect("hierarchical allreduce requires a net model");
    let members: Vec<usize> = g.iter().collect();
    let buckets = net.node_buckets(&members);
    let me = g.my_index();
    let my_node = net.node_of(members[me]);
    let my_bucket = buckets
        .iter()
        .position(|b| net.node_of(members[b[0]]) == my_node)
        .expect("own node must be bucketed");
    let bucket = &buckets[my_bucket];
    let leader = bucket[0];

    if me != leader {
        // Phase 1: contribute to the node leader; phase 3: receive result.
        ctx.send(g.member(leader), tag, buf.to_vec(), cat);
        let summed = ctx.recv(g.member(leader), tag + 3, cat);
        assert_eq!(summed.len(), buf.len(), "allreduce length mismatch");
        buf.copy_from_slice(&summed);
        return;
    }

    // Phase 1 (leader side): accumulate the node's contributions in bucket
    // order — deterministic, so every rank sees identical reduction order.
    for &i in &bucket[1..] {
        let part = ctx.recv(g.member(i), tag, cat);
        assert_eq!(part.len(), buf.len(), "allreduce length mismatch");
        for (a, b) in buf.iter_mut().zip(&part) {
            *a += b;
        }
    }

    // Phase 2: single-link allreduce among the node leaders.
    let leaders: Vec<usize> = buckets.iter().map(|b| g.member(b[0])).collect();
    let lg = Group::new(ctx, leaders);
    if lg.len() > TREE_ALLREDUCE_THRESHOLD {
        allreduce_sum_tree(ctx, &lg, buf, tag + 1, cat);
    } else {
        allreduce_sum_flat(ctx, &lg, buf, tag + 1, cat);
    }

    // Phase 3: fan the result back out within the node.
    for &i in &bucket[1..] {
        ctx.send(g.member(i), tag + 3, buf.to_vec(), cat);
    }
}

/// Flat allreduce: gather at the group root, sum, broadcast.
pub(crate) fn allreduce_sum_flat(
    ctx: &mut RankCtx,
    g: &Group,
    buf: &mut [f64],
    tag: u32,
    cat: VolumeCategory,
) {
    if g.len() == 1 {
        return;
    }
    let root = g.member(0);
    if g.my_index() == 0 {
        for i in 1..g.len() {
            let part = ctx.recv(g.member(i), tag, cat);
            assert_eq!(part.len(), buf.len(), "allreduce length mismatch");
            for (a, b) in buf.iter_mut().zip(&part) {
                *a += b;
            }
        }
        for i in 1..g.len() {
            ctx.send(g.member(i), tag + 1, buf.to_vec(), cat);
        }
    } else {
        ctx.send(root, tag, buf.to_vec(), cat);
        let summed = ctx.recv(root, tag + 1, cat);
        buf.copy_from_slice(&summed);
    }
}

/// Binomial-tree allreduce: reduce up the tree (`⌈log₂ g⌉` rounds), then
/// broadcast down it. Deterministic round structure keeps the SPMD matching
/// trivial.
pub(crate) fn allreduce_sum_tree(
    ctx: &mut RankCtx,
    g: &Group,
    buf: &mut [f64],
    tag: u32,
    cat: VolumeCategory,
) {
    let n = g.len();
    if n == 1 {
        return;
    }
    let me = g.my_index();

    // Reduce phase: in round r (mask = 1 << r), members whose index has the
    // mask bit set send to (index - mask) and drop out; receivers accumulate.
    let mut mask = 1usize;
    while mask < n {
        if me & mask != 0 {
            // Sender: partner is me - mask (always exists).
            ctx.send(g.member(me - mask), tag, buf.to_vec(), cat);
            break; // dropped out of the reduce phase
        } else if me + mask < n {
            let part = ctx.recv(g.member(me + mask), tag, cat);
            assert_eq!(part.len(), buf.len(), "allreduce length mismatch");
            for (a, b) in buf.iter_mut().zip(&part) {
                *a += b;
            }
        }
        mask <<= 1;
    }

    // Broadcast phase: reverse of the reduce tree. Index 0 is the root;
    // member `me ≠ 0` receives from `me − lowbit(me)`, then forwards to
    // `me + m` for each `m = lowbit(me)/2, …, 1` that is in range.
    let mut top = 1usize;
    while top < n {
        top <<= 1;
    }
    let mut mask = if me == 0 {
        top >> 1
    } else {
        let lowbit = me & me.wrapping_neg();
        let data = ctx.recv(g.member(me - lowbit), tag + 1, cat);
        buf.copy_from_slice(&data);
        lowbit >> 1
    };
    while mask >= 1 {
        if me + mask < n {
            ctx.send(g.member(me + mask), tag + 1, buf.to_vec(), cat);
        }
        mask >>= 1;
    }
}

/// All-gather: every member ends with every member's buffer, in group order.
pub fn allgather(
    ctx: &mut RankCtx,
    g: &Group,
    buf: Vec<f64>,
    tag: u32,
    cat: VolumeCategory,
) -> Vec<Vec<f64>> {
    // Direct exchange: everyone sends to everyone (g-1 sends per rank).
    for i in 0..g.len() {
        if i != g.my_index() {
            ctx.send(g.member(i), tag, buf.clone(), cat);
        }
    }
    let mut out: Vec<Vec<f64>> = Vec::with_capacity(g.len());
    for i in 0..g.len() {
        if i == g.my_index() {
            out.push(buf.clone());
        } else {
            out.push(ctx.recv(g.member(i), tag, cat));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Universe;

    #[test]
    fn allreduce_sums_everything() {
        let out = Universe::run(6, |ctx| {
            let g = Group::world(ctx);
            let mut buf = vec![ctx.rank() as f64, 1.0];
            allreduce_sum(ctx, &g, &mut buf, 10, VolumeCategory::Other);
            buf
        });
        for r in out.results {
            assert_eq!(r, vec![15.0, 6.0]);
        }
    }

    #[test]
    fn allreduce_volume_is_2gm1() {
        let len = 5usize;
        let p = 4usize;
        let out = Universe::run(p, |ctx| {
            let g = Group::world(ctx);
            let mut buf = vec![1.0; len];
            allreduce_sum(ctx, &g, &mut buf, 10, VolumeCategory::Gram);
        });
        let expect = 2 * (p - 1) * len * 8;
        assert_eq!(out.volume.bytes(VolumeCategory::Gram), expect as u64);
    }

    #[test]
    fn allgather_everyone_gets_everything() {
        let out = Universe::run(3, |ctx| {
            let g = Group::world(ctx);
            allgather(
                ctx,
                &g,
                vec![ctx.rank() as f64; 2],
                40,
                VolumeCategory::Other,
            )
        });
        for r in out.results {
            assert_eq!(r.len(), 3);
            for (i, p) in r.iter().enumerate() {
                assert_eq!(p, &vec![i as f64; 2]);
            }
        }
    }

    #[test]
    fn subgroup_collective_does_not_touch_outsiders() {
        let out = Universe::run(4, |ctx| {
            if ctx.rank() < 2 {
                let g = Group::new(ctx, vec![0, 1]);
                let mut buf = vec![1.0];
                allreduce_sum(ctx, &g, &mut buf, 60, VolumeCategory::Other);
                buf[0]
            } else {
                0.0
            }
        });
        assert_eq!(out.results, vec![2.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn singleton_group_is_noop() {
        let out = Universe::run(2, |ctx| {
            let g = Group::new(ctx, vec![ctx.rank()]);
            let mut buf = vec![7.0];
            allreduce_sum(ctx, &g, &mut buf, 70, VolumeCategory::Other);
            buf[0]
        });
        assert_eq!(out.results, vec![7.0, 7.0]);
        assert_eq!(out.volume.total_bytes(), 0);
    }

    #[test]
    fn tree_allreduce_matches_flat_for_all_sizes() {
        for p in 1..=13usize {
            let out = Universe::run(p, |ctx| {
                let g = Group::world(ctx);
                let mut a = vec![ctx.rank() as f64 + 1.0, (ctx.rank() * ctx.rank()) as f64];
                let mut b = a.clone();
                allreduce_sum_flat(ctx, &g, &mut a, 100, VolumeCategory::Other);
                allreduce_sum_tree(ctx, &g, &mut b, 200, VolumeCategory::Other);
                (a, b)
            });
            for (a, b) in out.results {
                assert_eq!(a, b, "p={p}");
            }
        }
    }

    #[test]
    fn tree_allreduce_volume_is_2gm1() {
        let len = 3usize;
        let p = 11usize;
        let out = Universe::run(p, |ctx| {
            let g = Group::world(ctx);
            let mut buf = vec![1.0; len];
            allreduce_sum_tree(ctx, &g, &mut buf, 10, VolumeCategory::Gram);
            assert_eq!(buf[0], p as f64);
        });
        // Reduce: g-1 messages; broadcast: g-1 messages.
        let expect = (2 * (p - 1) * len * 8) as u64;
        assert_eq!(out.volume.bytes(VolumeCategory::Gram), expect);
    }

    #[test]
    fn dispatch_uses_tree_for_large_groups() {
        // Behavioural check via correctness at a size above the threshold.
        let p = 16usize;
        let out = Universe::run(p, |ctx| {
            let g = Group::world(ctx);
            let mut buf = vec![ctx.rank() as f64];
            allreduce_sum(ctx, &g, &mut buf, 30, VolumeCategory::Other);
            buf[0]
        });
        let expect = (p * (p - 1) / 2) as f64;
        assert!(out.results.iter().all(|&v| v == expect));
    }

    #[test]
    fn tree_allreduce_on_subgroup() {
        let out = Universe::run(6, |ctx| {
            if ctx.rank() >= 1 && ctx.rank() <= 4 {
                let g = Group::new(ctx, vec![1, 2, 3, 4]);
                let mut buf = vec![ctx.rank() as f64];
                allreduce_sum_tree(ctx, &g, &mut buf, 40, VolumeCategory::Other);
                buf[0]
            } else {
                -1.0
            }
        });
        assert_eq!(out.results, vec![-1.0, 10.0, 10.0, 10.0, 10.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "must belong to the group")]
    fn group_requires_membership() {
        Universe::run(2, |ctx| {
            if ctx.rank() == 1 {
                let _ = Group::new(ctx, vec![0]);
            }
        });
    }
}
