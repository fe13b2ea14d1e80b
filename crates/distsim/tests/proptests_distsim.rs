//! Property tests for the distributed substrate: random shapes, grids and
//! regrid sequences must preserve the global tensor exactly, collective
//! results must be rank-invariant, and the region exchanges must send
//! exactly the messages `tucker_distsim::exchange` enumerates.
//!
//! Cases are generated deterministically from a fixed per-test seed (see
//! `vendor/proptest`): CI runs are reproducible, and `PROPTEST_SEED` /
//! `PROPTEST_CASES` explore other streams or bound the case count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Duration;
use tucker_distsim::block::rank_region;
use tucker_distsim::collectives::allreduce_sum;
use tucker_distsim::dist_gram::dist_gram;
use tucker_distsim::dist_ttm::dist_ttm;
use tucker_distsim::exchange::{regrid_msgs, GroupExchange, Msg};
use tucker_distsim::redistribute::redistribute;
use tucker_distsim::{
    enumerate_valid_grids, DistTensor, Grid, MeshCfg, NetModel, Universe, VolumeCategory,
};
use tucker_linalg::Matrix;
use tucker_tensor::{DenseTensor, Shape};

fn rand_tensor(dims: &[usize], seed: u64) -> DenseTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = rand::distributions::Uniform::new(-1.0, 1.0);
    DenseTensor::random(Shape::new(dims.to_vec()), &dist, &mut rng)
}

/// A hierarchical model with very different link classes, so a message
/// priced on the wrong class cannot cancel out.
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

/// Elements carried by `msgs`.
fn elems(msgs: impl Iterator<Item = Msg>) -> u64 {
    msgs.map(|m| m.elems as u64).sum()
}

/// Random small shape plus two valid grids over 4 ranks.
fn case_strategy() -> impl Strategy<Value = (Vec<usize>, usize, usize, u64)> {
    (
        prop::collection::vec(4usize..=9, 2..=3),
        0usize..64,
        0usize..64,
        0u64..10_000,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scatter → regrid → regrid back → gather is the identity, and a
    /// regrid chain through any intermediate grid preserves the tensor.
    #[test]
    fn regrid_chain_preserves_tensor((dims, gi, gj, seed) in case_strategy()) {
        let p = 4usize;
        let grids = enumerate_valid_grids(p, &dims);
        prop_assume!(!grids.is_empty());
        let g1 = grids[gi % grids.len()].clone();
        let g2 = grids[gj % grids.len()].clone();
        let global = rand_tensor(&dims, seed);

        let out = Universe::run(p, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &g1);
            let dt2 = redistribute(ctx, &dt, &g2);
            let dt3 = redistribute(ctx, &dt2, &g1);
            let roundtrip = dt3.local().max_abs_diff(dt.local());
            let gathered = dt2.allgather_global(ctx);
            (roundtrip, gathered.max_abs_diff(&global))
        });
        for (rt, gd) in out.results {
            prop_assert_eq!(rt, 0.0);
            prop_assert_eq!(gd, 0.0);
        }
    }

    /// The single-link all-reduce (flat up to eight members, a tree above)
    /// and the hierarchical three-phase one agree elementwise on every rank
    /// and move the same `2(g − 1)·len` elements, for random group sizes,
    /// node sizes and payload lengths.
    #[test]
    fn allreduce_variants_agree(
        p in 1usize..=12,
        node_size in 2usize..=5,
        len in 1usize..=17,
        seed in 0u64..1000,
    ) {
        let body = |ctx: &mut tucker_distsim::RankCtx| {
            let mut rng = StdRng::seed_from_u64(seed + ctx.rank() as u64);
            let dist = rand::distributions::Uniform::new(-1.0, 1.0);
            use rand::Rng;
            let mut buf: Vec<f64> = (0..len).map(|_| rng.sample(dist)).collect();
            allreduce_sum(ctx, &mut buf, 1, VolumeCategory::Other);
            buf
        };
        let single = Universe::run(p, body);
        let hier = Universe::run_mesh(p, &MeshCfg::virtual_time(hier_net(node_size)), body)
            .into_results();
        let reference = &single.results[0];
        for (a, b) in single.results.iter().zip(&hier.results) {
            for i in 0..len {
                prop_assert!((a[i] - reference[i]).abs() < 1e-12);
                prop_assert!((b[i] - reference[i]).abs() < 1e-12);
            }
        }
        let moved = (2 * (p - 1) * len * 8) as u64;
        prop_assert_eq!(single.volume.bytes(VolumeCategory::Other), moved);
        prop_assert_eq!(hier.volume.bytes(VolumeCategory::Other), moved);
    }

    /// Conservation (paper §4.1): the ledger's TTM reduce-scatter volume of
    /// a distributed TTM equals the closed form `(q_n − 1)·|Out(u)|`
    /// **exactly**, for random shapes, grids, modes, and output extents —
    /// uneven chunks included.
    #[test]
    fn dist_ttm_volume_is_exactly_the_closed_form(
        (dims, gi, _gj, seed) in case_strategy(),
        mode_sel in 0usize..8,
        k_sel in 0usize..8,
    ) {
        let p = 4usize;
        let grids = enumerate_valid_grids(p, &dims);
        prop_assume!(!grids.is_empty());
        let grid = grids[gi % grids.len()].clone();
        let n = mode_sel % dims.len();
        // Output extent K: any value in q_n ..= L_n keeps the grid valid.
        let qn = grid.dim(n);
        let k = qn + k_sel % (dims[n] - qn + 1);
        let global = rand_tensor(&dims, seed);
        let f = {
            let mut rng = StdRng::seed_from_u64(seed + 77);
            let dist = rand::distributions::Uniform::new(-1.0, 1.0);
            Matrix::random(k, dims[n], &dist, &mut rng)
        };
        let out = Universe::run(p, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            let _ = dist_ttm(ctx, &dt, n, &f);
        });
        let out_card: usize = dims
            .iter()
            .enumerate()
            .map(|(m, &d)| if m == n { k } else { d })
            .product();
        let expect = ((qn - 1) * out_card * 8) as u64;
        prop_assert_eq!(
            out.volume.bytes(VolumeCategory::TtmReduceScatter),
            expect,
            "dims {:?} grid {} mode {} k {}", dims, grid, n, k
        );
        // Nothing leaked into other categories.
        prop_assert_eq!(out.volume.bytes(VolumeCategory::Regrid), 0);
        prop_assert_eq!(out.volume.bytes(VolumeCategory::Gram), 0);
    }

    /// Conservation: per-category ledger volumes always sum to the universe
    /// total, on both snapshots and deltas.
    #[test]
    fn ledger_categories_sum_to_total((dims, gi, gj, seed) in case_strategy()) {
        let p = 4usize;
        let grids = enumerate_valid_grids(p, &dims);
        prop_assume!(!grids.is_empty());
        let g1 = grids[gi % grids.len()].clone();
        let g2 = grids[gj % grids.len()].clone();
        let global = rand_tensor(&dims, seed);
        let out = Universe::run(p, |ctx| {
            let before = ctx.volume();
            let dt = DistTensor::scatter_from_global(ctx, &global, &g1);
            let dt2 = redistribute(ctx, &dt, &g2);
            let _ = dt2.global_norm_sq(ctx);
            let delta = ctx.volume().since(&before);
            let sum: u64 = VolumeCategory::all().iter().map(|&c| delta.bytes(c)).sum();
            (delta.total_bytes(), sum)
        });
        for (total, sum) in out.results {
            prop_assert_eq!(total, sum);
        }
        let report = out.volume;
        let sum: u64 = VolumeCategory::all().iter().map(|&c| report.bytes(c)).sum();
        prop_assert_eq!(report.total_bytes(), sum);
    }

    /// Block regions partition the tensor for every valid grid.
    #[test]
    fn blocks_partition((dims, gi, _gj, _seed) in case_strategy()) {
        let p = 4usize;
        let grids = enumerate_valid_grids(p, &dims);
        prop_assume!(!grids.is_empty());
        let g: &Grid = &grids[gi % grids.len()];
        let shape = Shape::new(dims.clone());
        let mut counts = vec![0u8; shape.cardinality()];
        for r in 0..p {
            let region = tucker_distsim::block::rank_region(&shape, g, r);
            for c in region.shape().coords() {
                let gc: Vec<usize> = c.iter().zip(&region.start).map(|(a, b)| a + b).collect();
                counts[shape.offset(&gc)] += 1;
            }
        }
        prop_assert!(counts.iter().all(|&x| x == 1));
    }

    /// One shared enumeration, executed: under a virtual-time mesh, each
    /// rank's sent bytes and α–β clock for `dist_ttm`, `dist_gram` and
    /// `redistribute` equal its messages in `tucker_distsim::exchange` and
    /// their fold (plus `allreduce_rank_ns` for the Gram's world
    /// all-reduce), and the sent elements agree with forms that do not read
    /// the enumeration: per rank, a TTM member ships its partial minus its
    /// own chunk; over all ranks, `(q_n − 1)·|Out|` for the TTM and `|T|`
    /// minus the kept elements for a regrid. Random uneven shapes, grids
    /// with permuted axes, flat (`node_size == 0`) and hierarchical models.
    #[test]
    fn region_exchanges_send_their_enumerated_messages(
        dims in prop::collection::vec(3usize..=9, 2..=4),
        p in prop::sample::select(vec![2usize, 4, 6, 8, 12]),
        picks in (0usize..1000, 0usize..1000),
        axes_seeds in (0u64..1000, 0u64..1000),
        modes in (0usize..4, 0usize..4),
        k_sel in 0usize..8,
        node_size in 0usize..=5,
        seed in 0u64..10_000,
    ) {
        let grids = enumerate_valid_grids(p, &dims);
        prop_assume!(!grids.is_empty());
        let order = dims.len();
        let permuted = |i: usize, seed: u64| {
            let mut axes: Vec<usize> = (0..order).collect();
            axes.shuffle(&mut StdRng::seed_from_u64(seed));
            Grid::with_axes(grids[i % grids.len()].dims().to_vec(), axes)
        };
        let (from, to) = (permuted(picks.0, axes_seeds.0), permuted(picks.1, axes_seeds.1));
        let (n, gram_mode) = (modes.0 % order, modes.1 % order);
        // Output extent K: any value in q_n ..= L_n keeps the grid valid.
        let q = from.dim(n);
        let k = q + k_sel % (dims[n] - q + 1);
        let net = if node_size == 0 { NetModel::bgq() } else { hier_net(node_size) };
        let global = rand_tensor(&dims, seed);
        let f = {
            let mut rng = StdRng::seed_from_u64(seed + 77);
            let dist = rand::distributions::Uniform::new(-1.0, 1.0);
            Matrix::random(k, dims[n], &dist, &mut rng)
        };
        let gram_len = dims[gram_mode] * dims[gram_mode];
        let cats = [
            VolumeCategory::TtmReduceScatter,
            VolumeCategory::Gram,
            VolumeCategory::Regrid,
            VolumeCategory::Other,
        ];
        let out = Universe::run_mesh(p, &MeshCfg::virtual_time(net), |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &from);
            let _ = dist_ttm(ctx, &dt, n, &f);
            let _ = dist_gram(ctx, &dt, gram_mode);
            let _ = redistribute(ctx, &dt, &to);
            // The Gram's all-reduce again, alone: what it sends.
            allreduce_sum(ctx, &mut vec![0.0; gram_len], 1, VolumeCategory::Other);
            cats.map(|c| (ctx.volume().elements(c), ctx.comm.time(c).as_nanos() as u64))
        })
        .into_results();

        let out_card: usize = (0..order).map(|m| if m == n { k } else { dims[m] }).product();
        let (mut ttm_total, mut regrid_total, mut kept) = (0u64, 0u64, 0usize);
        for (r, [ttm, gram, regrid, other]) in out.results.into_iter().enumerate() {
            let rs = GroupExchange::reduce_scatter(&dims, &from, r, n, k);
            prop_assert_eq!(ttm, (elems(rs.msgs(false).map(|(_, m)| m)), net.exchange_ns(rs.messages())));
            let block = rank_region(global.shape(), &from, r);
            let own = tucker_distsim::block::chunk(k, q, rs.member()).1;
            prop_assert_eq!(ttm.0 as usize, block.cardinality() / block.len[n] * (k - own));
            ttm_total += ttm.0;

            let shares = GroupExchange::column_shares(&dims, &from, r, gram_mode);
            let reduce_ns = net.allreduce_rank_ns(p, r, gram_len);
            prop_assert_eq!(gram.0 - other.0, elems(shares.msgs(false).map(|(_, m)| m)));
            prop_assert_eq!(gram.1, net.exchange_ns(shares.messages()) + reduce_ns);
            prop_assert_eq!(other.1, reduce_ns);

            let sent = elems(regrid_msgs(&dims, &from, &to, r, false));
            let msgs = [false, true].map(|inbound| regrid_msgs(&dims, &from, &to, r, inbound));
            let priced = net.exchange_ns(msgs.into_iter().flatten());
            prop_assert_eq!(regrid, (sent, priced));
            regrid_total += regrid.0;
            let new = rank_region(global.shape(), &to, r);
            kept += block.intersect(&new).map_or(0, |o| o.cardinality());
        }
        prop_assert_eq!(ttm_total as usize, (q - 1) * out_card);
        prop_assert_eq!(regrid_total as usize, global.cardinality() - kept);
    }
}
