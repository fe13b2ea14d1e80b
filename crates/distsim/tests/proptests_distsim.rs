//! Property tests for the distributed substrate: random shapes, grids and
//! regrid sequences must preserve the global tensor exactly, and collective
//! results must be rank-invariant.
//!
//! Cases are generated deterministically from a fixed per-test seed (see
//! `vendor/proptest`): CI runs are reproducible, and `PROPTEST_SEED` /
//! `PROPTEST_CASES` explore other streams or bound the case count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tucker_distsim::collectives::{allreduce_sum, Group};
use tucker_distsim::dist_ttm::dist_ttm;
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
            let g = Group::world(ctx);
            let mut rng = StdRng::seed_from_u64(seed + ctx.rank() as u64);
            let dist = rand::distributions::Uniform::new(-1.0, 1.0);
            use rand::Rng;
            let mut buf: Vec<f64> = (0..len).map(|_| rng.sample(dist)).collect();
            allreduce_sum(ctx, &g, &mut buf, 1, VolumeCategory::Other);
            buf
        };
        let single = Universe::run(p, body);
        let net = NetModel::hierarchical(
            std::time::Duration::from_nanos(300),
            8.0e9,
            std::time::Duration::from_nanos(4_000),
            1.0e9,
            node_size,
        );
        let hier = Universe::run_mesh(p, &MeshCfg::virtual_time(net), body).into_results();
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
}
