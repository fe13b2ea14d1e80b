//! Property tests for the collectives themselves: every collective must
//! agree with a single-rank sequential reference on random payloads, rank
//! counts, and root choices — and, under a virtual-time universe, accumulate
//! exactly the α–β closed forms of [`tucker_distsim::net::NetModel`].
//!
//! (The previous suites covered `dist_ttm`/`dist_gram`; the collectives they
//! are built on get their own direct coverage here.)

use proptest::prelude::*;
use std::time::Duration;
use tucker_distsim::collectives::{
    allgather, allreduce_sum, allreduce_sum_flat, allreduce_sum_tree, alltoallv, bcast, gather,
    Group,
};
use tucker_distsim::{MeshCfg, NetModel, Universe, VolumeCategory};

/// Deterministic payload for (rank, slot).
fn val(rank: usize, slot: usize, seed: u64) -> f64 {
    let h = (rank as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((slot as u64).wrapping_mul(0xff51_afd7_ed55_8ccd))
        .wrapping_add(seed.wrapping_mul(0xc4ce_b9fe_1a85_ec53));
    (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// Group member list: the first `g` ranks of a `p`-rank universe, rotated by
/// `rot` so that the root (group index 0) is an arbitrary member.
fn rotated_members(g: usize, rot: usize) -> Vec<usize> {
    (0..g).map(|i| (i + rot % g) % g).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// All three allreduce variants equal the sequential elementwise sum,
    /// for any subgroup size, root rotation, and payload length.
    #[test]
    fn allreduce_matches_reference(
        p in 1usize..=9,
        extra in 0usize..=2,
        rot in 0usize..8,
        len in 1usize..=9,
        seed in 0u64..1000,
    ) {
        let total = p + extra; // extra ranks sit outside the group
        let members = rotated_members(p, rot);
        let expect: Vec<f64> = (0..len)
            .map(|s| members.iter().map(|&r| val(r, s, seed)).sum::<f64>())
            .collect();
        let out = Universe::run(total, |ctx| {
            if ctx.rank() >= p {
                return None;
            }
            let g = Group::new(ctx, rotated_members(p, rot));
            let mine: Vec<f64> = (0..len).map(|s| val(ctx.rank(), s, seed)).collect();
            let mut a = mine.clone();
            let mut b = mine.clone();
            let mut c = mine;
            allreduce_sum_flat(ctx, &g, &mut a, 10, VolumeCategory::Other);
            allreduce_sum_tree(ctx, &g, &mut b, 20, VolumeCategory::Other);
            allreduce_sum(ctx, &g, &mut c, 30, VolumeCategory::Other);
            Some((a, b, c))
        });
        for r in out.results.into_iter().flatten() {
            for (got, want) in [&r.0, &r.1, &r.2].iter().flat_map(|v| v.iter().zip(&expect)) {
                prop_assert!((got - want).abs() <= 1e-12 * want.abs().max(1.0));
            }
        }
    }

    /// Broadcast delivers the root's buffer to every member, for any root.
    #[test]
    fn bcast_matches_reference(
        p in 1usize..=8,
        rot in 0usize..8,
        len in 0usize..=6,
        seed in 0u64..1000,
    ) {
        let members = rotated_members(p, rot);
        let root = members[0];
        let expect: Vec<f64> = (0..len).map(|s| val(root, s, seed)).collect();
        let out = Universe::run(p, |ctx| {
            let g = Group::new(ctx, rotated_members(p, rot));
            let mut buf: Vec<f64> = if ctx.rank() == root {
                (0..len).map(|s| val(root, s, seed)).collect()
            } else {
                Vec::new()
            };
            bcast(ctx, &g, &mut buf, 40, VolumeCategory::Other);
            buf
        });
        for r in out.results {
            prop_assert_eq!(&r, &expect);
        }
    }

    /// Gather collects member buffers at the root in group order; non-roots
    /// get `None`.
    #[test]
    fn gather_matches_reference(
        p in 1usize..=8,
        rot in 0usize..8,
        seed in 0u64..1000,
    ) {
        let members = rotated_members(p, rot);
        let root = members[0];
        let out = Universe::run(p, |ctx| {
            let g = Group::new(ctx, rotated_members(p, rot));
            // Variable-length payloads: member r contributes r+1 values.
            let mine: Vec<f64> = (0..ctx.rank() + 1).map(|s| val(ctx.rank(), s, seed)).collect();
            gather(ctx, &g, mine, 50, VolumeCategory::Other)
        });
        for (rank, r) in out.results.into_iter().enumerate() {
            if rank == root {
                let parts = r.expect("root receives the gather");
                prop_assert_eq!(parts.len(), p);
                for (i, part) in parts.iter().enumerate() {
                    let m = members[i];
                    let expect: Vec<f64> = (0..m + 1).map(|s| val(m, s, seed)).collect();
                    prop_assert_eq!(part, &expect);
                }
            } else {
                prop_assert!(r.is_none());
            }
        }
    }

    /// All-gather gives every member every buffer in group order.
    #[test]
    fn allgather_matches_reference(
        p in 1usize..=8,
        rot in 0usize..8,
        len in 1usize..=5,
        seed in 0u64..1000,
    ) {
        let members = rotated_members(p, rot);
        let out = Universe::run(p, |ctx| {
            let g = Group::new(ctx, rotated_members(p, rot));
            let mine: Vec<f64> = (0..len).map(|s| val(ctx.rank(), s, seed)).collect();
            allgather(ctx, &g, mine, 60, VolumeCategory::Other)
        });
        for r in out.results {
            prop_assert_eq!(r.len(), p);
            for (i, part) in r.iter().enumerate() {
                let expect: Vec<f64> = (0..len).map(|s| val(members[i], s, seed)).collect();
                prop_assert_eq!(part, &expect);
            }
        }
    }

    /// All-to-all-v routes buffer `i` of member `m` to member `i`, who sees
    /// it at index `m` — i.e. the received matrix is the transpose of the
    /// sent one, including empty chunks.
    #[test]
    fn alltoallv_matches_reference(
        p in 1usize..=7,
        rot in 0usize..8,
        seed in 0u64..1000,
    ) {
        let members = rotated_members(p, rot);
        // lens[src_idx][dst_idx]; some chunks empty.
        let lens: Vec<Vec<usize>> = (0..p)
            .map(|i| (0..p).map(|j| (i * 3 + j * 5 + seed as usize) % 4).collect())
            .collect();
        let payload = |src_idx: usize, dst_idx: usize| -> Vec<f64> {
            (0..lens[src_idx][dst_idx])
                .map(|s| val(members[src_idx], s + 31 * dst_idx, seed))
                .collect()
        };
        let out = Universe::run(p, |ctx| {
            let g = Group::new(ctx, rotated_members(p, rot));
            let me = g.my_index();
            let send: Vec<Vec<f64>> = (0..p).map(|j| payload(me, j)).collect();
            (me, alltoallv(ctx, &g, send, 70, VolumeCategory::Other))
        });
        for (me, recvd) in out.results {
            prop_assert_eq!(recvd.len(), p);
            for (i, part) in recvd.iter().enumerate() {
                prop_assert_eq!(part, &payload(i, me));
            }
        }
    }
}

// --------------------------------------------------- virtual-time closed forms

/// Run `f` on a virtual-time universe and return each rank's modeled nanos
/// in `cat`.
fn virtual_nanos(
    p: usize,
    net: NetModel,
    cat: VolumeCategory,
    f: impl Fn(&mut tucker_distsim::RankCtx) + Sync,
) -> Vec<u64> {
    let out = Universe::run_mesh(p, &MeshCfg::virtual_time(net), |ctx| {
        f(ctx);
        ctx.comm.time(cat).as_nanos() as u64
    });
    out.into_results().results
}

#[test]
fn virtual_allreduce_matches_closed_forms() {
    let net = NetModel::new(Duration::from_nanos(700), 2.0e9);
    for p in [1usize, 2, 3, 5, 8, 11, 16] {
        for len in [1usize, 7] {
            let flat = virtual_nanos(p, net, VolumeCategory::Gram, |ctx| {
                let g = Group::world(ctx);
                let mut buf = vec![1.0; len];
                allreduce_sum_flat(ctx, &g, &mut buf, 1, VolumeCategory::Gram);
            });
            assert_eq!(
                flat.iter().copied().max().unwrap(),
                net.allreduce_flat_ns(p, len),
                "flat p={p} len={len}"
            );
            let tree = virtual_nanos(p, net, VolumeCategory::Gram, |ctx| {
                let g = Group::world(ctx);
                let mut buf = vec![1.0; len];
                allreduce_sum_tree(ctx, &g, &mut buf, 1, VolumeCategory::Gram);
            });
            assert_eq!(
                tree.iter().copied().max().unwrap(),
                net.allreduce_tree_ns(p, len),
                "tree p={p} len={len}"
            );
            let disp = virtual_nanos(p, net, VolumeCategory::Gram, |ctx| {
                let g = Group::world(ctx);
                let mut buf = vec![1.0; len];
                allreduce_sum(ctx, &g, &mut buf, 1, VolumeCategory::Gram);
            });
            assert_eq!(
                disp.iter().copied().max().unwrap(),
                net.allreduce_ns(p, len),
                "dispatch p={p} len={len}"
            );
        }
    }
}

#[test]
fn virtual_bcast_gather_allgather_match_closed_forms() {
    let net = NetModel::bgq();
    for p in [1usize, 2, 5, 9] {
        let len = 11usize;
        let b = virtual_nanos(p, net, VolumeCategory::Other, |ctx| {
            let g = Group::world(ctx);
            let mut buf = if ctx.rank() == 0 {
                vec![2.0; len]
            } else {
                vec![]
            };
            bcast(ctx, &g, &mut buf, 1, VolumeCategory::Other);
        });
        assert_eq!(b.iter().copied().max().unwrap(), net.bcast_ns(p, len));

        let ga = virtual_nanos(p, net, VolumeCategory::Other, |ctx| {
            let g = Group::world(ctx);
            let mine = vec![1.0; ctx.rank() + 2]; // variable lengths
            let _ = gather(ctx, &g, mine, 1, VolumeCategory::Other);
        });
        let nonroot_lens: Vec<usize> = (1..p).map(|r| r + 2).collect();
        assert_eq!(ga[0], net.gather_ns(&nonroot_lens), "gather root p={p}");

        let ag = virtual_nanos(p, net, VolumeCategory::Other, |ctx| {
            let g = Group::world(ctx);
            let _ = allgather(ctx, &g, vec![1.0; len], 1, VolumeCategory::Other);
        });
        for (r, &ns) in ag.iter().enumerate() {
            assert_eq!(ns, net.allgather_ns(p, len), "allgather rank {r} p={p}");
        }
    }
}

#[test]
fn virtual_alltoallv_matches_closed_form() {
    let net = NetModel::new(Duration::from_nanos(300), 1.0e9);
    let p = 5usize;
    let lens: Vec<Vec<usize>> = (0..p)
        .map(|i| (0..p).map(|j| (i * 2 + j * 3) % 5).collect())
        .collect();
    let lens_run = lens.clone();
    let got = virtual_nanos(p, net, VolumeCategory::Regrid, move |ctx| {
        let g = Group::world(ctx);
        let me = g.my_index();
        let send: Vec<Vec<f64>> = (0..p).map(|j| vec![0.5; lens_run[me][j]]).collect();
        let _ = alltoallv(ctx, &g, send, 1, VolumeCategory::Regrid);
    });
    // Per rank: every off-rank message charged at both endpoints.
    for (i, &ns) in got.iter().enumerate() {
        let expect: u64 = (0..p)
            .filter(|&j| j != i)
            .map(|j| net.msg_elems_ns(lens[i][j]) + net.msg_elems_ns(lens[j][i]))
            .sum();
        assert_eq!(ns, expect, "rank {i}");
    }
    assert_eq!(got.iter().copied().max().unwrap(), net.alltoallv_ns(&lens));
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
    let got = virtual_nanos(q, net, VolumeCategory::TtmReduceScatter, |ctx| {
        let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
        let _ = dist_ttm(ctx, &dt, 0, &f);
    });
    let chunk_lens: Vec<usize> = tucker_distsim::split_extents(k, q)
        .into_iter()
        .map(|(_, len)| len * rest)
        .collect();
    for (i, &ns) in got.iter().enumerate() {
        let expect: u64 = (0..q)
            .filter(|&j| j != i)
            .map(|j| net.msg_elems_ns(chunk_lens[j]))
            .sum::<u64>()
            + (q as u64 - 1) * net.msg_elems_ns(chunk_lens[i]);
        assert_eq!(ns, expect, "rank {i}");
    }
    assert_eq!(
        got.iter().copied().max().unwrap(),
        net.reduce_scatter_ns(&chunk_lens)
    );
}

#[test]
fn virtual_barrier_matches_closed_form() {
    let net = NetModel::bgq();
    for p in [1usize, 2, 6, 8] {
        let got = virtual_nanos(p, net, VolumeCategory::Other, |ctx| ctx.barrier());
        for &ns in &got {
            assert_eq!(ns, net.barrier_ns(p));
        }
    }
}

// --------------------------------------- hierarchical virtual-time closed forms
//
// The two-level mirror of the flat suite above: the same collectives executed
// under a `NetModel::hierarchical` universe must accumulate EXACTLY the
// member-aware closed forms — every message priced on its endpoint pair's
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
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Hierarchical allreduce dispatch: values still equal the sequential
    /// elementwise sum, and every member's executed virtual clock equals
    /// `allreduce_members_rank_ns` exactly — leaders and non-leaders, any
    /// node size, rotated member lists, ranks outside the group untouched.
    #[test]
    fn hier_allreduce_matches_reference_and_member_closed_form(
        p in 1usize..=10,
        node_size in 1usize..=5,
        extra in 0usize..=2,
        rot in 0usize..8,
        len in 1usize..=9,
        seed in 0u64..1000,
    ) {
        let net = hier_net(node_size);
        let total = p + extra; // extra ranks sit outside the group
        let members = rotated_members(p, rot);
        let expect: Vec<f64> = (0..len)
            .map(|s| members.iter().map(|&r| val(r, s, seed)).sum::<f64>())
            .collect();
        let out = Universe::run_mesh(total, &MeshCfg::virtual_time(net), |ctx| {
            let vals = if ctx.rank() < p {
                let g = Group::new(ctx, rotated_members(p, rot));
                let mut buf: Vec<f64> = (0..len).map(|s| val(ctx.rank(), s, seed)).collect();
                allreduce_sum(ctx, &g, &mut buf, 7, VolumeCategory::Gram);
                Some(buf)
            } else {
                None
            };
            (vals, ctx.comm.time(VolumeCategory::Gram).as_nanos() as u64)
        })
        .into_results();
        for (rank, (vals, ns)) in out.results.into_iter().enumerate() {
            match vals {
                Some(v) => {
                    for (got, want) in v.iter().zip(&expect) {
                        prop_assert!((got - want).abs() <= 1e-12 * want.abs().max(1.0));
                    }
                    let index = members.iter().position(|&m| m == rank).unwrap();
                    prop_assert_eq!(
                        ns,
                        net.allreduce_members_rank_ns(&members, index, len),
                        "rank {} node_size {}", rank, node_size
                    );
                }
                None => prop_assert_eq!(ns, 0, "outside rank {} charged", rank),
            }
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
        let got = virtual_nanos(p, net, VolumeCategory::Gram, |ctx| {
            let g = Group::world(ctx);
            let mut buf = vec![1.0; len];
            allreduce_sum(ctx, &g, &mut buf, 1, VolumeCategory::Gram);
        });
        for (r, &ns) in got.iter().enumerate() {
            prop_assert_eq!(ns, net.allreduce_rank_ns(p, r, len), "rank {}", r);
        }
        prop_assert_eq!(got.iter().copied().max().unwrap(), net.allreduce_ns(p, len));
    }

    /// The direct-exchange collectives (bcast, gather, allgather, alltoallv)
    /// keep their algorithms under a hierarchical model; only per-message
    /// link classes change. Each member's clock must equal the member-aware
    /// closed form exactly.
    #[test]
    fn hier_collectives_match_member_closed_forms(
        p in 1usize..=8,
        node_size in 1usize..=4,
        rot in 0usize..8,
        len in 1usize..=7,
        seed in 0u64..500,
    ) {
        let net = hier_net(node_size);
        let members = rotated_members(p, rot);
        let index_of = |rank: usize| members.iter().position(|&m| m == rank).unwrap();

        let root = members[0];
        let b = virtual_nanos(p, net, VolumeCategory::Other, |ctx| {
            let g = Group::new(ctx, rotated_members(p, rot));
            let mut buf: Vec<f64> = if ctx.rank() == root {
                (0..len).map(|s| val(root, s, seed)).collect()
            } else {
                Vec::new()
            };
            bcast(ctx, &g, &mut buf, 1, VolumeCategory::Other);
        });
        for (rank, &ns) in b.iter().enumerate() {
            prop_assert_eq!(
                ns,
                net.bcast_members_rank_ns(&members, index_of(rank), len),
                "bcast rank {}", rank
            );
        }

        let ga = virtual_nanos(p, net, VolumeCategory::Other, |ctx| {
            let g = Group::new(ctx, rotated_members(p, rot));
            // Variable-length payloads: member with rank r contributes r+1.
            let mine: Vec<f64> = (0..ctx.rank() + 1).map(|s| val(ctx.rank(), s, seed)).collect();
            let _ = gather(ctx, &g, mine, 1, VolumeCategory::Other);
        });
        let nonroot_lens: Vec<usize> = (1..p).map(|j| members[j] + 1).collect();
        for (rank, &ns) in ga.iter().enumerate() {
            prop_assert_eq!(
                ns,
                net.gather_members_rank_ns(&members, index_of(rank), &nonroot_lens),
                "gather rank {}", rank
            );
        }

        let ag = virtual_nanos(p, net, VolumeCategory::Other, |ctx| {
            let g = Group::new(ctx, rotated_members(p, rot));
            let _ = allgather(ctx, &g, vec![1.0; len], 1, VolumeCategory::Other);
        });
        for (rank, &ns) in ag.iter().enumerate() {
            prop_assert_eq!(
                ns,
                net.allgather_members_rank_ns(&members, index_of(rank), len),
                "allgather rank {}", rank
            );
        }

        let lens: Vec<Vec<usize>> = (0..p)
            .map(|i| (0..p).map(|j| (i * 3 + j * 5 + seed as usize) % 4).collect())
            .collect();
        let lens_run = lens.clone();
        let av = virtual_nanos(p, net, VolumeCategory::Regrid, move |ctx| {
            let g = Group::new(ctx, rotated_members(p, rot));
            let me = g.my_index();
            let send: Vec<Vec<f64>> = (0..p).map(|j| vec![0.5; lens_run[me][j]]).collect();
            let _ = alltoallv(ctx, &g, send, 1, VolumeCategory::Regrid);
        });
        for (rank, &ns) in av.iter().enumerate() {
            prop_assert_eq!(
                ns,
                net.alltoallv_members_rank_ns(&members, index_of(rank), &lens),
                "alltoallv rank {}", rank
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
        let got = virtual_nanos(q, net, VolumeCategory::TtmReduceScatter, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            let _ = dist_ttm(ctx, &dt, 0, &f);
        });
        let chunk_lens: Vec<usize> = tucker_distsim::split_extents(k, q)
            .into_iter()
            .map(|(_, len)| len * rest)
            .collect();
        let members: Vec<usize> = (0..q).collect();
        for (i, &ns) in got.iter().enumerate() {
            assert_eq!(
                ns,
                net.reduce_scatter_members_rank_ns(&members, i, &chunk_lens),
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
            let got = virtual_nanos(p, net, VolumeCategory::Other, |ctx| ctx.barrier());
            for &ns in &got {
                assert_eq!(ns, net.barrier_ns(p), "node_size {node_size} p {p}");
            }
        }
    }
}

// ------------------------------------------------------- per-rank sent bytes
//
// Volume is counted by the sender, in the rank's own counters, so "executed
// per-rank bytes == per-rank closed form" is assertable rank by rank. Under a
// model that prices a message at exactly its byte count, the member-aware
// closed forms above read in bytes: what the member sent plus what it
// received.

/// α = 0 and 1 ns per byte on both link classes.
fn byte_net(node_size: usize) -> NetModel {
    NetModel::hierarchical(Duration::ZERO, 1.0e9, Duration::ZERO, 1.0e9, node_size)
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

    /// Every collective, any root rotation and node size: each member's own
    /// sent bytes equal the collective's per-member form, and sent plus
    /// received equal the member-aware closed form of `net.rs`.
    #[test]
    fn per_rank_sent_bytes_match_member_closed_forms(
        p in 1usize..=8,
        node_size in 1usize..=4,
        rot in 0usize..8,
        len in 1usize..=7,
        seed in 0u64..500,
    ) {
        let net = byte_net(node_size);
        let members = rotated_members(p, rot);
        let index_of = |rank: usize| members.iter().position(|&m| m == rank).unwrap();
        let bytes = |elems: usize| (elems * 8) as u64;

        let got = sent_and_priced(p, net, VolumeCategory::Other, |ctx| {
            let g = Group::new(ctx, rotated_members(p, rot));
            let mut buf = vec![1.0; if g.my_index() == 0 { len } else { 0 }];
            bcast(ctx, &g, &mut buf, 1, VolumeCategory::Other);
        });
        for (rank, &(sent, priced)) in got.iter().enumerate() {
            let i = index_of(rank);
            prop_assert_eq!(sent, if i == 0 { bytes((p - 1) * len) } else { 0 }, "bcast {}", rank);
            prop_assert_eq!(priced, net.bcast_members_rank_ns(&members, i, len));
        }

        // Member with rank r contributes r + 1 elements.
        let got = sent_and_priced(p, net, VolumeCategory::Other, |ctx| {
            let g = Group::new(ctx, rotated_members(p, rot));
            let _ = gather(ctx, &g, vec![1.0; ctx.rank() + 1], 1, VolumeCategory::Other);
        });
        let nonroot_lens: Vec<usize> = (1..p).map(|j| members[j] + 1).collect();
        for (rank, &(sent, priced)) in got.iter().enumerate() {
            let i = index_of(rank);
            prop_assert_eq!(sent, if i == 0 { 0 } else { bytes(rank + 1) }, "gather {}", rank);
            prop_assert_eq!(priced, net.gather_members_rank_ns(&members, i, &nonroot_lens));
        }

        let got = sent_and_priced(p, net, VolumeCategory::Other, |ctx| {
            let g = Group::new(ctx, rotated_members(p, rot));
            let _ = allgather(ctx, &g, vec![1.0; len], 1, VolumeCategory::Other);
        });
        for (rank, &(sent, priced)) in got.iter().enumerate() {
            prop_assert_eq!(sent, bytes((p - 1) * len), "allgather {}", rank);
            prop_assert_eq!(priced, net.allgather_members_rank_ns(&members, index_of(rank), len));
        }

        let lens: Vec<Vec<usize>> = (0..p)
            .map(|i| (0..p).map(|j| (i * 3 + j * 5 + seed as usize) % 4).collect())
            .collect();
        let got = sent_and_priced(p, net, VolumeCategory::Regrid, |ctx| {
            let g = Group::new(ctx, rotated_members(p, rot));
            let me = g.my_index();
            let send: Vec<Vec<f64>> = (0..p).map(|j| vec![0.5; lens[me][j]]).collect();
            let _ = alltoallv(ctx, &g, send, 1, VolumeCategory::Regrid);
        });
        for (rank, &(sent, priced)) in got.iter().enumerate() {
            let i = index_of(rank);
            let row: usize = (0..p).filter(|&j| j != i).map(|j| lens[i][j]).sum();
            prop_assert_eq!(sent, bytes(row), "alltoallv {}", rank);
            prop_assert_eq!(priced, net.alltoallv_members_rank_ns(&members, i, &lens));
        }

        // All-reduce, whichever algorithm the dispatch picks: 2(g − 1)·len
        // elements in total, a non-root member sends its contribution at
        // least once, and sent + received is the member-aware form.
        let got = sent_and_priced(p, net, VolumeCategory::Gram, |ctx| {
            let g = Group::new(ctx, rotated_members(p, rot));
            let mut buf = vec![1.0; len];
            allreduce_sum(ctx, &g, &mut buf, 1, VolumeCategory::Gram);
        });
        prop_assert_eq!(got.iter().map(|r| r.0).sum::<u64>(), bytes(2 * (p - 1) * len));
        for (rank, &(sent, priced)) in got.iter().enumerate() {
            let i = index_of(rank);
            prop_assert!(i == 0 || sent >= bytes(len), "allreduce {}", rank);
            prop_assert_eq!(priced, net.allreduce_members_rank_ns(&members, i, len));
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
                net.reduce_scatter_members_rank_ns(&members, i, &chunk_lens),
                "node_size {node_size} rank {i}"
            );
        }
    }
}
