//! World collectives built on the point-to-point layer.
//!
//! Every collective runs on the whole universe, and every rank enters it
//! with matching arguments (the usual SPMD contract). Only the two the
//! engine runs live here, each moving the canonical byte count:
//!
//! * [`allreduce_sum`] (the Gram and norm reductions): flat gather at the
//!   root plus broadcast up to `TREE_ALLREDUCE_THRESHOLD` (8) ranks, a
//!   binomial tree above it (the scaling runs reach P = 8192), and a
//!   node-leader three-phase variant under a hierarchical model — `2(P−1)`
//!   messages of `len` elements in every case;
//! * [`allgather`] (the core gather): direct exchange — every rank sends
//!   its buffer to each of the other `P − 1`.
//!
//! Underneath, the flat and tree algorithms run on a strided rank set
//! (`Group`, crate-private): the world is stride 1, the hierarchical
//! all-reduce's node leaders are stride `node_size`. Neither holds a member
//! list, so no rank allocates anything that grows with `P`.
//!
//! The distributed TTM's reduce-scatter ([`crate::dist_ttm`]), the Gram's
//! column-share exchange ([`crate::dist_gram`]) and the regrid's all-to-all
//! ([`crate::redistribute`]) move tensor *regions* over the grid's fibres
//! rather than flat buffers over the world, so they live with their
//! callers and use the same point-to-point layer (and therefore the same
//! per-rank counters and clock).
//!
//! # Failure semantics (DESIGN.md §2, §9)
//!
//! A rank dying mid-collective quarantines the epoch ([`crate::mesh`]):
//! every rank blocked in (or later entering) a point-to-point op of the
//! collective panics with the typed abort payload
//! ([`crate::RankFault::Aborted`]) instead of deadlocking. No collective ever delivers a
//! *partial* result — a rank either returns the full reduction (every
//! contribution arrived before the death) or unwinds. The recovery layer
//! leans on exactly this all-or-nothing property: a factor recorded by the
//! sweep log was truncated from a complete world allreduce and is therefore
//! bitwise identical on every surviving rank, so salvaged leaves can seed
//! the resumed epoch without cross-rank reconciliation.

use crate::comm::{RankCtx, VolumeCategory};
use crate::net::NetModel;

/// A strided rank set: member `i` is rank `i · stride`, for `i < len`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Group {
    stride: usize,
    len: usize,
    my_index: usize,
}

impl Group {
    /// The whole universe.
    pub(crate) fn world(ctx: &RankCtx) -> Self {
        Self::strided(ctx, 1)
    }

    /// The ranks `0, stride, 2·stride, …` of `ctx`'s universe.
    ///
    /// # Panics
    /// Panics if the calling rank is not one of them.
    pub(crate) fn strided(ctx: &RankCtx, stride: usize) -> Self {
        assert!(
            ctx.rank().is_multiple_of(stride),
            "calling rank must belong to the group"
        );
        Group {
            stride,
            len: ctx.nranks().div_ceil(stride),
            my_index: ctx.rank() / stride,
        }
    }

    /// The rank at group index `i`.
    fn member(&self, i: usize) -> usize {
        debug_assert!(i < self.len);
        i * self.stride
    }
}

/// Group size above which the single-link all-reduce switches from the
/// flat gather+broadcast to the binomial-tree algorithm. Shared with
/// [`crate::net::allreduce_msgs`] so the α–β per-rank forms dispatch
/// identically.
pub(crate) const TREE_ALLREDUCE_THRESHOLD: usize = 8;

/// Elementwise sum-all-reduce of `buf` across the world.
///
/// Small worlds use a flat gather-at-root + broadcast; larger ones use a
/// binomial reduce/broadcast tree (`allreduce_sum_tree`). Both move
/// `2(P−1)·len` elements in total; the tree variant has `O(log P)` depth
/// instead of `O(P)` serialization at the root, mirroring real MPI
/// implementations.
pub fn allreduce_sum(ctx: &mut RankCtx, buf: &mut [f64], tag: u32, cat: VolumeCategory) {
    // Under a hierarchical network model, *always* take the topology-aware
    // three-phase algorithm (even for a single-node world) so executed
    // virtual clocks and the closed forms in `net.rs` stay in lockstep.
    match ctx.net().copied() {
        Some(net) if net.is_hierarchical() => allreduce_sum_hier(ctx, &net, buf, tag, cat),
        _ => {
            let world = Group::world(ctx);
            allreduce_single_link(ctx, &world, buf, tag, cat);
        }
    }
}

/// The single-link all-reduce on `g`: flat up to
/// [`TREE_ALLREDUCE_THRESHOLD`] members, the binomial tree above it.
fn allreduce_single_link(
    ctx: &mut RankCtx,
    g: &Group,
    buf: &mut [f64],
    tag: u32,
    cat: VolumeCategory,
) {
    if g.len > TREE_ALLREDUCE_THRESHOLD {
        allreduce_sum_tree(ctx, g, buf, tag, cat);
    } else {
        allreduce_sum_flat(ctx, g, buf, tag, cat);
    }
}

/// Hierarchical three-phase allreduce (DESIGN.md §10). Each node's lowest
/// rank is its leader, and [`NetModel::node_layout`] names the leader, the
/// node's other ranks and the strided leaders group in closed form. Phase 1
/// flat-gathers within each node at the leader (intra-node traffic), phase
/// 2 runs the single-link all-reduce among the leaders (inter-node traffic
/// — leaders sit on distinct nodes), phase 3 broadcasts the result back
/// within each node. Total message count is `2(P−1)`, the same as the
/// single-link algorithms, so the byte ledger is unchanged; only the link
/// classes (and hence virtual time) differ.
///
/// Uses tags `tag..=tag+2` for phases 1–2 and `tag+3` for phase 3.
fn allreduce_sum_hier(
    ctx: &mut RankCtx,
    net: &NetModel,
    buf: &mut [f64],
    tag: u32,
    cat: VolumeCategory,
) {
    let at = net.node_layout(ctx.nranks(), ctx.rank());
    if ctx.rank() != at.leader {
        // Phase 1: contribute to the node leader; phase 3: receive result.
        ctx.send(at.leader, tag, buf.to_vec(), cat);
        let summed = ctx.recv(at.leader, tag + 3, cat);
        assert_eq!(summed.len(), buf.len(), "allreduce length mismatch");
        buf.copy_from_slice(&summed);
        return;
    }

    // Phase 1 (leader side): accumulate the node's contributions in rank
    // order — deterministic, so every rank sees identical reduction order.
    for r in at.bucket.clone() {
        let part = ctx.recv(r, tag, cat);
        assert_eq!(part.len(), buf.len(), "allreduce length mismatch");
        for (a, b) in buf.iter_mut().zip(&part) {
            *a += b;
        }
    }

    // Phase 2: single-link allreduce among the node leaders.
    let leaders = Group {
        stride: net.node_size(),
        len: at.leaders,
        my_index: at.node,
    };
    allreduce_single_link(ctx, &leaders, buf, tag + 1, cat);

    // Phase 3: fan the result back out within the node.
    for r in at.bucket {
        ctx.send(r, tag + 3, buf.to_vec(), cat);
    }
}

/// Flat allreduce: gather at the group root, sum, broadcast.
fn allreduce_sum_flat(
    ctx: &mut RankCtx,
    g: &Group,
    buf: &mut [f64],
    tag: u32,
    cat: VolumeCategory,
) {
    if g.len == 1 {
        return;
    }
    let root = g.member(0);
    if g.my_index == 0 {
        for i in 1..g.len {
            let part = ctx.recv(g.member(i), tag, cat);
            assert_eq!(part.len(), buf.len(), "allreduce length mismatch");
            for (a, b) in buf.iter_mut().zip(&part) {
                *a += b;
            }
        }
        for i in 1..g.len {
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
fn allreduce_sum_tree(
    ctx: &mut RankCtx,
    g: &Group,
    buf: &mut [f64],
    tag: u32,
    cat: VolumeCategory,
) {
    let n = g.len;
    if n == 1 {
        return;
    }
    let me = g.my_index;

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

/// All-gather: every rank ends with every rank's buffer, in rank order.
pub fn allgather(ctx: &mut RankCtx, buf: Vec<f64>, tag: u32, cat: VolumeCategory) -> Vec<Vec<f64>> {
    // Direct exchange: everyone sends to everyone (P − 1 sends per rank).
    let (p, me) = (ctx.nranks(), ctx.rank());
    for r in (0..p).filter(|&r| r != me) {
        ctx.send(r, tag, buf.clone(), cat);
    }
    (0..p)
        .map(|r| {
            if r == me {
                buf.clone()
            } else {
                ctx.recv(r, tag, cat)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Universe;

    #[test]
    fn allreduce_sums_everything() {
        let out = Universe::run(6, |ctx| {
            let mut buf = vec![ctx.rank() as f64, 1.0];
            allreduce_sum(ctx, &mut buf, 10, VolumeCategory::Other);
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
            let mut buf = vec![1.0; len];
            allreduce_sum(ctx, &mut buf, 10, VolumeCategory::Gram);
        });
        let expect = 2 * (p - 1) * len * 8;
        assert_eq!(out.volume.bytes(VolumeCategory::Gram), expect as u64);
    }

    #[test]
    fn allgather_everyone_gets_everything() {
        let out = Universe::run(3, |ctx| {
            allgather(ctx, vec![ctx.rank() as f64; 2], 40, VolumeCategory::Other)
        });
        for r in out.results {
            assert_eq!(r.len(), 3);
            for (i, p) in r.iter().enumerate() {
                assert_eq!(p, &vec![i as f64; 2]);
            }
        }
    }

    /// Run `f` on the members of the stride-`stride` group of a `p`-rank
    /// universe, each starting from `[rank]`; per rank, the summed value
    /// (`-1` outside the group) and the bytes it sent.
    fn on_strided(
        p: usize,
        stride: usize,
        f: fn(&mut RankCtx, &Group, &mut [f64], u32, VolumeCategory),
    ) -> Vec<(f64, u64)> {
        let out = Universe::run(p, |ctx| {
            let mut buf = [-1.0];
            if ctx.rank().is_multiple_of(stride) {
                let g = Group::strided(ctx, stride);
                buf[0] = ctx.rank() as f64;
                f(ctx, &g, &mut buf, 60, VolumeCategory::Other);
            }
            (buf[0], ctx.volume().bytes(VolumeCategory::Other))
        });
        out.results
    }

    #[test]
    fn subgroup_collective_does_not_touch_outsiders() {
        // The leaders' shape: ranks 0, 3, 6 of 8, flat algorithm.
        let got = on_strided(8, 3, allreduce_sum_flat);
        for (r, &(v, sent)) in got.iter().enumerate() {
            if r.is_multiple_of(3) {
                assert_eq!(v, 9.0, "rank {r}");
            } else {
                assert_eq!((v, sent), (-1.0, 0), "outside rank {r} touched");
            }
        }
    }

    #[test]
    fn singleton_group_is_noop() {
        let out = Universe::run(2, |ctx| {
            let mut buf = vec![7.0];
            if ctx.rank() == 0 {
                let g = Group::strided(ctx, 2);
                allreduce_single_link(ctx, &g, &mut buf, 70, VolumeCategory::Other);
            }
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
            let mut buf = vec![ctx.rank() as f64];
            allreduce_sum(ctx, &mut buf, 30, VolumeCategory::Other);
            buf[0]
        });
        let expect = (p * (p - 1) / 2) as f64;
        assert!(out.results.iter().all(|&v| v == expect));
    }

    #[test]
    fn tree_allreduce_on_subgroup() {
        // Ten members at stride 2 (above the flat threshold): 0 + 2 + … + 18.
        let got = on_strided(20, 2, allreduce_sum_tree);
        for (r, &(v, sent)) in got.iter().enumerate() {
            if r.is_multiple_of(2) {
                assert_eq!(v, 90.0, "rank {r}");
            } else {
                assert_eq!((v, sent), (-1.0, 0), "outside rank {r} touched");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must belong to the group")]
    fn group_requires_membership() {
        Universe::run(2, |ctx| {
            if ctx.rank() == 1 {
                let _ = Group::strided(ctx, 2);
            }
        });
    }
}
