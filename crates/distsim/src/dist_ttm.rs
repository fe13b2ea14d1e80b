//! Distributed TTM: the algorithm of Austin et al. (paper §4.1, §5).
//!
//! The factor matrix is small and replicated on every rank. A rank owning a
//! block whose mode-`n` extent covers global rows `[r₀, r₀+b_n)` computes the
//! **partial** product of its block with the corresponding column slice of
//! `Fᵀ` — a purely local blocked TTM producing the *full* `K` mode-`n`
//! extent. The partials are then summed and split across the mode-`n` grid
//! group with a reduce-scatter: group member `j` keeps output rows given by
//! chunk `j` of `K`.
//!
//! The communication volume is exactly the paper's model: each group member
//! ships its partial minus its own chunk, totalling `(q_n − 1)·|Out(u)|`
//! elements over the whole tensor. Under a [`crate::NetModel`] the local
//! product is charged [`ttm_flops`] on the rank's compute clock.

use crate::block::chunk;
use crate::comm::{RankCtx, VolumeCategory};
use crate::dist_tensor::DistTensor;
use crate::exchange::{GroupExchange, RankBlock};
use crate::net::ttm_flops;
use tucker_linalg::Matrix;
use tucker_tensor::subtensor::extract_window;
use tucker_tensor::{ttm_into_threads, DenseTensor, Dims};

/// Tag for reduce-scatter traffic.
const TTM_TAG: u32 = 0x7712;

/// Distributed `Z = T ×_n Fᵀ` where `factor_t` is the `K × L_n` matrix
/// (already transposed: it maps length-`L_n` fibers to length-`K` fibers),
/// replicated on all ranks.
///
/// Returns this rank's block of `Z`, distributed under the same grid.
///
/// # Panics
/// Panics if shapes are inconsistent or the grid is invalid for the output
/// (`q_n > K`), which the paper's *valid grid* constraint excludes.
pub fn dist_ttm(ctx: &mut RankCtx, t: &DistTensor, n: usize, factor_t: &Matrix) -> DistTensor {
    let shape = t.global_shape();
    let grid = t.grid();
    assert!(n < shape.order(), "mode {n} out of range");
    let ln = shape.dim(n);
    let k = factor_t.nrows();
    assert_eq!(factor_t.ncols(), ln, "factor must be K x L_n");
    let qn = grid.dim(n);
    assert!(qn <= k, "grid invalid for output: q_{n} = {qn} > K = {k}");

    // The rank is placed in the grid once, for its exchange and its flops.
    let block = RankBlock::new(shape.dims(), grid, ctx.rank());
    let exchange = GroupExchange::reduce_scatter(&block, n, k);
    let my_idx = exchange.member();
    let (r0, bn) = chunk(ln, qn, my_idx);

    // Local partial product: slice of Fᵀ covering this rank's fiber segment.
    let f_slice = Matrix::from_fn(k, bn, |kk, l| factor_t[(kk, r0 + l)]);
    // One partition, like `dist_gram`'s share kernel: a rank never opens a
    // parallel region from inside its fiber — the mesh workers already fill
    // the host, and the heuristic `ttm` would make them fight over the team.
    let mut partial = Vec::new();
    let partial_shape = ttm_into_threads(t.local(), n, &f_slice, &mut partial, 1);
    let partial = DenseTensor::from_vec(partial_shape, partial); // mode-n extent = K (full)
    debug_assert_eq!(partial.shape().dim(n), k);
    let flops = ttm_flops(&block, n, k);
    debug_assert_eq!(flops, 2 * (k * t.local().as_slice().len()) as u64);
    ctx.compute(flops);

    // Member `j` keeps rows `chunk(k, qn, j)` of mode n: one window of the
    // partial, moved along mode n from peer to peer.
    let mut start = Dims::filled(shape.order(), 0);
    let mut len = Dims::from(partial.shape().dims());
    for (j, msg) in exchange.msgs(false) {
        (start[n], len[n]) = chunk(k, qn, j);
        let data = extract_window(&partial, &start, &len);
        debug_assert_eq!(data.len(), msg.elems);
        ctx.send(msg.dst, TTM_TAG, data, VolumeCategory::TtmReduceScatter);
    }

    // Local output starts as my own chunk of my partial.
    (start[n], len[n]) = chunk(k, qn, my_idx);
    let mut out_data = extract_window(&partial, &start, &len);
    drop(partial); // not held across the blocking receives below

    // Sum contributions from the other group members.
    for (_, msg) in exchange.msgs(true) {
        let data = ctx.recv(msg.src, TTM_TAG, VolumeCategory::TtmReduceScatter);
        assert_eq!(data.len(), msg.elems, "reduce-scatter payload mismatch");
        for (o, v) in out_data.iter_mut().zip(&data) {
            *o += v;
        }
    }

    let local = DenseTensor::from_vec(&len[..], out_data);
    DistTensor::from_parts(shape.with_dim(n, k), grid.clone(), ctx.rank(), local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Universe;
    use crate::grid::Grid;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tucker_tensor::{ttm, Shape};

    fn rand_tensor(dims: &[usize], seed: u64) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        DenseTensor::random(Shape::new(dims.to_vec()), &dist, &mut rng)
    }

    fn rand_mat(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        Matrix::random(r, c, &dist, &mut rng)
    }

    fn check_dist_ttm(dims: &[usize], grid_dims: &[usize], n: usize, k: usize, seed: u64) {
        let global = rand_tensor(dims, seed);
        let f = rand_mat(k, dims[n], seed + 100);
        let expect = ttm(&global, n, &f);
        let grid = Grid::new(grid_dims.to_vec());
        let p = grid.nranks();
        let out = Universe::run(p, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            let z = dist_ttm(ctx, &dt, n, &f);
            z.allgather_global(ctx)
        });
        for t in out.results {
            assert!(
                t.max_abs_diff(&expect) < 1e-11,
                "dims {dims:?} grid {grid_dims:?} mode {n}"
            );
        }
    }

    #[test]
    fn matches_sequential_partitioned_mode() {
        // Partitioned along the multiplied mode: reduce-scatter engaged.
        check_dist_ttm(&[8, 6, 5], &[4, 1, 1], 0, 5, 1);
        check_dist_ttm(&[6, 8, 5], &[1, 4, 1], 1, 4, 2);
        check_dist_ttm(&[4, 5, 8], &[1, 1, 4], 2, 6, 3);
    }

    #[test]
    fn matches_sequential_unpartitioned_mode() {
        // Mode n not split: communication-free TTM.
        let global = rand_tensor(&[8, 6, 4], 4);
        let f = rand_mat(3, 6, 104);
        let expect = ttm(&global, 1, &f);
        let grid = Grid::new([2, 1, 2]);
        let out = Universe::run(4, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            let before = ctx.volume().bytes(VolumeCategory::TtmReduceScatter);
            let z = dist_ttm(ctx, &dt, 1, &f);
            let after = ctx.volume().bytes(VolumeCategory::TtmReduceScatter);
            (z.allgather_global(ctx), after - before)
        });
        for (t, vol) in out.results {
            assert!(t.max_abs_diff(&expect) < 1e-11);
            assert_eq!(vol, 0, "unsplit mode must be communication-free");
        }
    }

    #[test]
    fn matches_sequential_multi_mode_grid() {
        check_dist_ttm(&[6, 6, 6], &[2, 3, 1], 1, 3, 5);
        check_dist_ttm(&[4, 4, 4, 4], &[2, 1, 2, 2], 2, 2, 6);
    }

    #[test]
    fn uneven_blocks_and_output_chunks() {
        // L=7 over q=3 (3,2,2) and K=5 over q=3 (2,2,1).
        check_dist_ttm(&[7, 5], &[3, 1], 0, 5, 7);
    }

    #[test]
    fn volume_matches_paper_model() {
        // vol = (q_n - 1) * |Out|
        let dims = [8usize, 6];
        let k = 4usize;
        let qn = 4usize;
        let global = rand_tensor(&dims, 8);
        let f = rand_mat(k, dims[0], 108);
        let grid = Grid::new([qn, 1]);
        let out = Universe::run(qn, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            let _ = dist_ttm(ctx, &dt, 0, &f);
        });
        let out_card = k * dims[1];
        let expect = ((qn - 1) * out_card * 8) as u64;
        assert_eq!(out.volume.bytes(VolumeCategory::TtmReduceScatter), expect);
    }

    #[test]
    fn chain_of_dist_ttms() {
        let dims = [6usize, 5, 4];
        let global = rand_tensor(&dims, 9);
        let f0 = rand_mat(3, 6, 200);
        let f2 = rand_mat(2, 4, 201);
        let expect = ttm(&ttm(&global, 0, &f0), 2, &f2);
        let grid = Grid::new([2, 1, 2]);
        let out = Universe::run(4, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            let z = dist_ttm(ctx, &dt, 0, &f0);
            let z = dist_ttm(ctx, &z, 2, &f2);
            z.allgather_global(ctx)
        });
        for t in out.results {
            assert!(t.max_abs_diff(&expect) < 1e-11);
        }
    }

    #[test]
    #[should_panic(expected = "grid invalid for output")]
    fn invalid_output_grid_panics() {
        let global = rand_tensor(&[8, 4], 10);
        let f = rand_mat(2, 8, 210); // K=2 < q0=4
        let grid = Grid::new([4, 1]);
        Universe::run(4, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            let _ = dist_ttm(ctx, &dt, 0, &f);
        });
    }
}
