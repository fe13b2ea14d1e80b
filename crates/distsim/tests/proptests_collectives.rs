//! Property tests for the communication the engine runs: the world
//! all-reduce (both sides of the flat/tree threshold), the all-gather, the
//! barrier and `dist_ttm`'s mode-group reduce-scatter. Every collective must
//! agree with a single-rank sequential reference on random payloads and
//! rank counts — and, under a virtual-time universe, accumulate
//! on **every rank** exactly the α–β per-rank forms of
//! [`tucker_distsim::net::NetModel`] (the reduce-scatter's form is stated
//! here, message by message), and send exactly its per-rank bytes.
//! The Gram's column shares and the regrid, and the reduce-scatter on
//! random shapes and grids, are held to their message enumeration in
//! `proptests_distsim.rs`.

use proptest::prelude::*;
use std::time::Duration;
use tucker_distsim::collectives::{allgather, allreduce_sum};
use tucker_distsim::{MeshCfg, NetModel, Universe, VolumeCategory};

/// Deterministic payload for (rank, slot).
fn val(rank: usize, slot: usize, seed: u64) -> f64 {
    let h = (rank as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((slot as u64).wrapping_mul(0xff51_afd7_ed55_8ccd))
        .wrapping_add(seed.wrapping_mul(0xc4ce_b9fe_1a85_ec53));
    (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The all-reduce equals the sequential elementwise sum for any world
    /// size on either side of the flat/tree threshold and any payload
    /// length.
    #[test]
    fn allreduce_matches_reference(
        p in 1usize..=12,
        len in 1usize..=9,
        seed in 0u64..1000,
    ) {
        let expect: Vec<f64> = (0..len)
            .map(|s| (0..p).map(|r| val(r, s, seed)).sum::<f64>())
            .collect();
        let out = Universe::run(p, |ctx| {
            let mut buf: Vec<f64> = (0..len).map(|s| val(ctx.rank(), s, seed)).collect();
            allreduce_sum(ctx, &mut buf, 30, VolumeCategory::Other);
            buf
        });
        for r in out.results {
            for (got, want) in r.iter().zip(&expect) {
                prop_assert!((got - want).abs() <= 1e-12 * want.abs().max(1.0));
            }
        }
    }

    /// All-gather gives every rank every buffer in rank order.
    #[test]
    fn allgather_matches_reference(
        p in 1usize..=8,
        len in 1usize..=5,
        seed in 0u64..1000,
    ) {
        let out = Universe::run(p, |ctx| {
            let mine: Vec<f64> = (0..len).map(|s| val(ctx.rank(), s, seed)).collect();
            allgather(ctx, mine, 60, VolumeCategory::Other)
        });
        for r in out.results {
            prop_assert_eq!(r.len(), p);
            for (i, part) in r.iter().enumerate() {
                let expect: Vec<f64> = (0..len).map(|s| val(i, s, seed)).collect();
                prop_assert_eq!(part, &expect);
            }
        }
    }
}

// --------------------------------------------------- virtual-time closed forms

/// Run `f` on a virtual-time universe and return, per rank, its own sent
/// bytes and its modeled nanos in `cat`.
fn run_virtual(
    p: usize,
    net: NetModel,
    cat: VolumeCategory,
    f: impl Fn(&mut tucker_distsim::RankCtx) + Sync,
) -> Vec<(u64, u64)> {
    let out = Universe::run_mesh(p, &MeshCfg::virtual_time(net), |ctx| {
        f(ctx);
        (
            ctx.volume().bytes(cat),
            ctx.comm.time(cat).as_nanos() as u64,
        )
    });
    out.into_results().results
}

/// The sequential reference for one member's sent elements in the flat
/// (`g ≤ 8`) or binomial-tree (`g > 8`) all-reduce of `len` elements: the
/// flat root broadcasts to `g − 1` members and every other member sends its
/// contribution once; in the tree every non-root sends once up, and a
/// member forwards down to each child of the broadcast tree.
fn allreduce_sent_elems(g: usize, index: usize, len: usize) -> usize {
    if g <= 1 {
        return 0;
    }
    if g <= 8 {
        return if index == 0 { (g - 1) * len } else { len };
    }
    let up = usize::from(index != 0);
    let lowbit = if index == 0 {
        g.next_power_of_two()
    } else {
        index & index.wrapping_neg()
    };
    let down = (0..lowbit.trailing_zeros())
        .filter(|&b| index + (1 << b) < g)
        .count();
    (up + down) * len
}

#[test]
fn virtual_allreduce_matches_closed_forms() {
    // World groups on both sides of the flat/tree threshold (8 | 9).
    let net = NetModel::new(Duration::from_nanos(700), 2.0e9, 1.0e9);
    for p in [1usize, 2, 3, 5, 8, 9, 11, 16] {
        for len in [1usize, 7] {
            let got = run_virtual(p, net, VolumeCategory::Gram, |ctx| {
                let mut buf = vec![1.0; len];
                allreduce_sum(ctx, &mut buf, 1, VolumeCategory::Gram);
            });
            for (r, &(sent, ns)) in got.iter().enumerate() {
                assert_eq!(
                    ns,
                    net.allreduce_rank_ns(p, r, len),
                    "p={p} len={len} rank {r}"
                );
                let elems = allreduce_sent_elems(p, r, len);
                assert_eq!(sent, (elems * 8) as u64, "p={p} len={len} rank {r}");
            }
        }
    }
}

#[test]
fn virtual_allgather_matches_closed_form() {
    let net = NetModel::bgq();
    for p in [1usize, 2, 5, 9] {
        let len = 11usize;
        let got = run_virtual(p, net, VolumeCategory::Other, |ctx| {
            let _ = allgather(ctx, vec![1.0; len], 1, VolumeCategory::Other);
        });
        for (r, &(sent, ns)) in got.iter().enumerate() {
            let priced = net.allgather_rank_ns(p, r, len);
            assert_eq!(ns, priced, "allgather rank {r} p={p}");
            assert_eq!(sent, ((p - 1) * len * 8) as u64, "allgather rank {r} p={p}");
        }
    }
}

/// The reduce-scatter's α–β price for member `i` of a mode group whose
/// member `j` is rank `members[j]`: it sends every chunk but its own and
/// receives `q − 1` copies of its own chunk, every message priced on its
/// endpoint pair's link.
fn reduce_scatter_rank_ns(net: &NetModel, members: &[usize], i: usize, chunks: &[usize]) -> u64 {
    (0..members.len())
        .filter(|&j| j != i)
        .map(|j| {
            net.msg_elems_ns_between(members[i], members[j], chunks[j])
                + net.msg_elems_ns_between(members[j], members[i], chunks[i])
        })
        .sum()
}

#[test]
fn virtual_reduce_scatter_matches_closed_form() {
    // The distributed TTM's reduce-scatter over a mode group: grid <q, 1>,
    // K = 5 over q = 3 gives uneven chunks (2, 2, 1).
    use tucker_distsim::dist_ttm::dist_ttm;
    use tucker_distsim::{DistTensor, Grid};
    use tucker_linalg::Matrix;
    use tucker_tensor::{DenseTensor, Shape};

    let net = NetModel::bgq();
    let (l, rest, k, q) = (7usize, 6usize, 5usize, 3usize);
    let global = DenseTensor::from_fn(Shape::from([l, rest]), |c| (c[0] * 10 + c[1]) as f64);
    let f = Matrix::from_fn(k, l, |i, j| ((i + 2 * j) % 3) as f64 - 1.0);
    let grid = Grid::new([q, 1]);
    let got = run_virtual(q, net, VolumeCategory::TtmReduceScatter, |ctx| {
        let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
        let _ = dist_ttm(ctx, &dt, 0, &f);
    });
    let chunk_lens: Vec<usize> = tucker_distsim::split_extents(k, q)
        .into_iter()
        .map(|(_, len)| len * rest)
        .collect();
    // Flat model: every message between distinct ranks costs msg(len).
    let msg = |len: usize| net.msg_elems_ns_between(0, 1, len);
    for (i, &(sent, ns)) in got.iter().enumerate() {
        let others: usize = (0..q).filter(|&j| j != i).map(|j| chunk_lens[j]).sum();
        let expect: u64 = (0..q)
            .filter(|&j| j != i)
            .map(|j| msg(chunk_lens[j]))
            .sum::<u64>()
            + (q as u64 - 1) * msg(chunk_lens[i]);
        assert_eq!(ns, expect, "rank {i}");
        assert_eq!(sent, (others * 8) as u64, "rank {i}");
    }
}

#[test]
fn virtual_barrier_matches_closed_form() {
    let net = NetModel::bgq();
    for p in [1usize, 2, 6, 8] {
        let got = run_virtual(p, net, VolumeCategory::Other, |ctx| ctx.barrier());
        for &(sent, ns) in &got {
            assert_eq!(ns, net.barrier_ns(p));
            assert_eq!(sent, 0, "a barrier carries no payload");
        }
    }
}

// --------------------------------------- hierarchical virtual-time closed forms
//
// The two-level mirror of the flat suite above: the same collectives executed
// under a `NetModel::hierarchical` universe must accumulate EXACTLY the
// per-rank world closed forms — every message priced on its endpoint pair's
// link class, charged at both endpoints. `node_size == 1` degenerates to an
// all-inter flat model and is included in the sampled range on purpose.

/// A hierarchical model with deliberately very different link classes, so a
/// message billed to the wrong class cannot cancel out.
fn hier_net(node_size: usize) -> NetModel {
    NetModel::hierarchical(
        Duration::from_nanos(300),
        8.0e9,
        Duration::from_nanos(4_000),
        1.0e9,
        node_size,
        1.0e9,
    )
}

/// The hierarchical all-reduce charge of world rank `rank`, stated member
/// by member: the world's ranks bucketed by node id in first-appearance
/// order, each bucket's first rank its leader. A non-leader sends its
/// contribution to its leader and receives the result back; a leader
/// receives from and sends to each of its bucket's other ranks, and runs
/// the single-link all-reduce among the leaders, which receives as many
/// messages as it sends (`allreduce_sent_elems` at one element), every
/// leader pair on distinct nodes. Each message is priced on its endpoint
/// pair's link class.
fn hier_allreduce_member_ns(net: &NetModel, p: usize, rank: usize, len: usize) -> u64 {
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    for r in 0..p {
        match buckets
            .iter_mut()
            .find(|b| net.node_of(b[0]) == net.node_of(r))
        {
            Some(b) => b.push(r),
            None => buckets.push(vec![r]),
        }
    }
    let node = buckets.iter().position(|b| b.contains(&rank)).unwrap();
    let bucket = &buckets[node];
    let leader = bucket[0];
    if rank != leader {
        return 2 * net.msg_elems_ns_between(rank, leader, len);
    }
    for (i, a) in buckets.iter().enumerate() {
        for b in &buckets[i + 1..] {
            assert!(!net.same_node(a[0], b[0]), "leaders share a node");
        }
    }
    let intra: u64 = bucket[1..]
        .iter()
        .map(|&r| 2 * net.msg_elems_ns_between(r, leader, len))
        .sum();
    let leader_msgs = 2 * allreduce_sent_elems(buckets.len(), node, 1) as u64;
    intra + leader_msgs * net.msg_elems_ns(len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Hierarchical allreduce dispatch, any node size — including one that
    /// does not divide `p` and one above it: values still equal the
    /// sequential elementwise sum, and every rank's executed virtual clock
    /// equals the member-by-member form `hier_allreduce_member_ns` exactly
    /// — leaders and non-leaders.
    #[test]
    fn hier_allreduce_matches_reference_and_member_closed_form(
        p in 1usize..=10,
        node_size in 1usize..=5,
        len in 1usize..=9,
        seed in 0u64..1000,
    ) {
        let net = hier_net(node_size);
        let expect: Vec<f64> = (0..len)
            .map(|s| (0..p).map(|r| val(r, s, seed)).sum::<f64>())
            .collect();
        let out = Universe::run_mesh(p, &MeshCfg::virtual_time(net), |ctx| {
            let mut buf: Vec<f64> = (0..len).map(|s| val(ctx.rank(), s, seed)).collect();
            allreduce_sum(ctx, &mut buf, 7, VolumeCategory::Gram);
            (buf, ctx.comm.time(VolumeCategory::Gram).as_nanos() as u64)
        })
        .into_results();
        for (rank, (v, ns)) in out.results.iter().enumerate() {
            for (got, want) in v.iter().zip(&expect) {
                prop_assert!((got - want).abs() <= 1e-12 * want.abs().max(1.0));
            }
            prop_assert_eq!(
                *ns,
                hier_allreduce_member_ns(&net, p, rank, len),
                "rank {} node_size {}", rank, node_size
            );
        }
    }

    /// World groups are node-contiguous, so the arithmetic per-rank form
    /// `allreduce_rank_ns` applies — and the group root is the critical path.
    #[test]
    fn hier_world_allreduce_matches_rank_closed_form(
        p in 1usize..=12,
        node_size in 1usize..=5,
        len in 1usize..=8,
    ) {
        let net = hier_net(node_size);
        let got = run_virtual(p, net, VolumeCategory::Gram, |ctx| {
            let mut buf = vec![1.0; len];
            allreduce_sum(ctx, &mut buf, 1, VolumeCategory::Gram);
        });
        for (r, &(_, ns)) in got.iter().enumerate() {
            prop_assert_eq!(ns, net.allreduce_rank_ns(p, r, len), "rank {}", r);
        }
        prop_assert_eq!(got.iter().map(|r| r.1).max().unwrap(), got[0].1);
    }

    /// The all-gather keeps its direct-exchange algorithm under a
    /// hierarchical model; only per-message link classes change. Each
    /// rank's clock must equal `allgather_rank_ns` exactly.
    #[test]
    fn hier_allgather_matches_world_closed_form(
        p in 1usize..=8,
        node_size in 1usize..=4,
        len in 1usize..=7,
    ) {
        let net = hier_net(node_size);
        let ag = run_virtual(p, net, VolumeCategory::Other, |ctx| {
            let _ = allgather(ctx, vec![1.0; len], 1, VolumeCategory::Other);
        });
        for (rank, &(_, ns)) in ag.iter().enumerate() {
            prop_assert_eq!(
                ns,
                net.allgather_rank_ns(p, rank, len),
                "allgather rank {}", rank
            );
        }
    }
}

#[test]
fn hier_virtual_reduce_scatter_matches_member_closed_form() {
    // The distributed TTM's reduce-scatter over a mode group spanning nodes:
    // grid <q, 1>, K = 5 over q = 5 ranks gives uneven chunks (1, 1, 1, 1, 1)
    // only when q == k; take k = 7 for chunks (2, 2, 1, 1, 1).
    use tucker_distsim::dist_ttm::dist_ttm;
    use tucker_distsim::{DistTensor, Grid};
    use tucker_linalg::Matrix;
    use tucker_tensor::{DenseTensor, Shape};

    for node_size in [1usize, 2, 3] {
        let net = hier_net(node_size);
        let (l, rest, k, q) = (8usize, 6usize, 7usize, 5usize);
        let global = DenseTensor::from_fn(Shape::from([l, rest]), |c| (c[0] * 10 + c[1]) as f64);
        let f = Matrix::from_fn(k, l, |i, j| ((i + 2 * j) % 3) as f64 - 1.0);
        let grid = Grid::new([q, 1]);
        let got = run_virtual(q, net, VolumeCategory::TtmReduceScatter, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            let _ = dist_ttm(ctx, &dt, 0, &f);
        });
        let chunk_lens: Vec<usize> = tucker_distsim::split_extents(k, q)
            .into_iter()
            .map(|(_, len)| len * rest)
            .collect();
        let members: Vec<usize> = (0..q).collect();
        for (i, &(_, ns)) in got.iter().enumerate() {
            assert_eq!(
                ns,
                reduce_scatter_rank_ns(&net, &members, i, &chunk_lens),
                "node_size {node_size} rank {i}"
            );
        }
    }
}

#[test]
fn hier_virtual_barrier_matches_closed_form() {
    for node_size in [1usize, 2, 3, 5] {
        let net = hier_net(node_size);
        for p in [1usize, 2, 5, 8, 12] {
            let got = run_virtual(p, net, VolumeCategory::Other, |ctx| ctx.barrier());
            for &(sent, ns) in &got {
                assert_eq!(ns, net.barrier_ns(p), "node_size {node_size} p {p}");
                assert_eq!(sent, 0, "a barrier carries no payload");
            }
        }
    }
}

// ------------------------------------------------------- per-rank sent bytes
//
// Volume is counted by the sender, in the rank's own counters, so "executed
// per-rank bytes == per-rank closed form" is assertable rank by rank. Under a
// model that prices a message at exactly its byte count, the per-rank
// closed forms above read in bytes: what the rank sent plus what it
// received.

/// α = 0 and 1 ns per byte on both link classes.
fn byte_net(node_size: usize) -> NetModel {
    NetModel::hierarchical(
        Duration::ZERO,
        1.0e9,
        Duration::ZERO,
        1.0e9,
        node_size,
        1.0e9,
    )
}

/// Run `f` under `net`; per rank, its own sent bytes and its modeled
/// nanoseconds in `cat`. Checks on the way that the universe total is the
/// sum of the ranks' counters, and that every byte sent was received once
/// (the clocks charge both endpoints).
fn sent_and_priced(
    p: usize,
    net: NetModel,
    cat: VolumeCategory,
    f: impl Fn(&mut tucker_distsim::RankCtx) + Sync,
) -> Vec<(u64, u64)> {
    let out = Universe::run_mesh(p, &MeshCfg::virtual_time(net), |ctx| {
        f(ctx);
        (
            ctx.volume().bytes(cat),
            ctx.comm.time(cat).as_nanos() as u64,
        )
    })
    .into_results();
    let sent: u64 = out.results.iter().map(|r| r.0).sum();
    let priced: u64 = out.results.iter().map(|r| r.1).sum();
    assert_eq!(out.volume.bytes(cat), sent, "total != sum over ranks");
    assert_eq!(priced, 2 * sent, "a byte sent is a byte received");
    out.results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Both collectives, any node size: each rank's own sent bytes equal
    /// the collective's per-rank form, and sent plus received equal the
    /// world closed form of `net.rs`.
    #[test]
    fn per_rank_sent_bytes_match_world_closed_forms(
        p in 1usize..=10,
        node_size in 1usize..=4,
        len in 1usize..=7,
    ) {
        let net = byte_net(node_size);
        let bytes = |elems: usize| (elems * 8) as u64;

        let got = sent_and_priced(p, net, VolumeCategory::Other, |ctx| {
            let _ = allgather(ctx, vec![1.0; len], 1, VolumeCategory::Other);
        });
        for (rank, &(sent, priced)) in got.iter().enumerate() {
            prop_assert_eq!(sent, bytes((p - 1) * len), "allgather {}", rank);
            prop_assert_eq!(priced, net.allgather_rank_ns(p, rank, len));
        }

        // All-reduce, whichever algorithm the dispatch picks: 2(P − 1)·len
        // elements in total, and sent + received is the world form. Under a
        // hierarchical model a non-leader (a rank off its node's first)
        // sends its contribution up once; a leader sends its share of the
        // leader-level all-reduce and the result to each other rank of its
        // node.
        let got = sent_and_priced(p, net, VolumeCategory::Gram, |ctx| {
            let mut buf = vec![1.0; len];
            allreduce_sum(ctx, &mut buf, 1, VolumeCategory::Gram);
        });
        let sent_elems = |r: usize| {
            if !net.is_hierarchical() {
                return allreduce_sent_elems(p, r, len);
            }
            if !r.is_multiple_of(node_size) {
                return len;
            }
            let node_ranks = node_size.min(p - r);
            (node_ranks - 1) * len + allreduce_sent_elems(p.div_ceil(node_size), r / node_size, len)
        };
        prop_assert_eq!(got.iter().map(|r| r.0).sum::<u64>(), bytes(2 * (p - 1) * len));
        for (rank, &(sent, priced)) in got.iter().enumerate() {
            prop_assert_eq!(sent, bytes(sent_elems(rank)), "allreduce {}", rank);
            prop_assert_eq!(priced, net.allreduce_rank_ns(p, rank, len));
        }
    }
}

#[test]
fn reduce_scatter_sent_bytes_match_member_closed_form() {
    // The distributed TTM over a mode group: member i ships every chunk but
    // its own — K = 7 over q = 5 gives chunks (2, 2, 1, 1, 1).
    use tucker_distsim::dist_ttm::dist_ttm;
    use tucker_distsim::{DistTensor, Grid};
    use tucker_linalg::Matrix;
    use tucker_tensor::{DenseTensor, Shape};

    let (l, rest, k, q) = (8usize, 6usize, 7usize, 5usize);
    let global = DenseTensor::from_fn(Shape::from([l, rest]), |c| (c[0] * 10 + c[1]) as f64);
    let f = Matrix::from_fn(k, l, |i, j| ((i + 2 * j) % 3) as f64 - 1.0);
    let grid = Grid::new([q, 1]);
    let chunk_lens: Vec<usize> = tucker_distsim::split_extents(k, q)
        .into_iter()
        .map(|(_, len)| len * rest)
        .collect();
    let members: Vec<usize> = (0..q).collect();
    for node_size in [1usize, 2, 3] {
        let net = byte_net(node_size);
        let got = sent_and_priced(q, net, VolumeCategory::TtmReduceScatter, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            let _ = dist_ttm(ctx, &dt, 0, &f);
        });
        for (i, &(sent, priced)) in got.iter().enumerate() {
            let others: usize = (0..q).filter(|&j| j != i).map(|j| chunk_lens[j]).sum();
            assert_eq!(sent, (others * 8) as u64, "rank {i}");
            assert_eq!(
                priced,
                reduce_scatter_rank_ns(&net, &members, i, &chunk_lens),
                "node_size {node_size} rank {i}"
            );
        }
    }
}
