//! Distributed Gram matrix computation for the SVD step (paper §5).
//!
//! The HOOI leaf for mode `n` needs the leading left singular vectors of the
//! unfolding `Z(n)`. Following the paper, we compute the `L_n × L_n` Gram
//! matrix `Z(n) · Z(n)ᵀ` in a distributed fashion and hand it to a
//! sequential EVD (replicated on every rank — the matrix is small):
//!
//! 1. **column-share exchange inside the mode-`n` grid group.** The `q_n`
//!    members hold the same fibers (unfolding columns), each its own chunk of
//!    the `L_n` rows. Member `j` owns the balanced `1/q_n` column share
//!    `chunk(nf, q_n, j)` of those fibers; every other member `k` sends it
//!    only its rows `chunk(L_n, q_n, k)` of the share's fibers — about
//!    `(q_n − 1)/q_n` of a block leaves each rank, and no rank ever holds
//!    more than its block, its outgoing payloads and its share (an
//!    all-gather of whole blocks moves `q_n − 1` blocks per rank to use
//!    `1/q_n` of them). An empty share gets no message; an unsplit mode
//!    (`q_n = 1`) moves nothing and reads its block in place;
//! 2. **local Gram of the share** — [`ColumnShare::gram`], the `dsyrk` of the
//!    paper on the assembled share, bit-identical to that column range's
//!    contribution computed inside the full mode-`n` slab;
//! 3. **all-reduce** of the `L_n × L_n` contributions across all ranks.
//!
//! All traffic is charged to [`VolumeCategory::Gram`]; under a
//! [`crate::NetModel`] step 2 is charged [`gram_flops`] on the rank's
//! compute clock (the pack and place of step 1 count no flops).
//!
//! [`ColumnShare::gram`]: tucker_tensor::ColumnShare::gram

use crate::block::chunk;
use crate::collectives::allreduce_sum;
use crate::comm::{RankCtx, VolumeCategory};
use crate::dist_tensor::DistTensor;
use crate::exchange::GroupExchange;
use crate::net::gram_flops;
use tucker_linalg::Matrix;
use tucker_tensor::ColumnShare;

/// Tag for the mode-group column-share exchange.
const GRAM_SHARE_TAG: u32 = 0x6B40;
/// Tag base for the world all-reduce (uses tag and tag+1).
const GRAM_REDUCE_TAG: u32 = 0x6B42;

/// This rank's **local** (pre-all-reduce) contribution to the mode-`n` Gram:
/// the Gram of its `1/q_n` column share, assembled from the rows the other
/// mode-group members send (module docs, steps 1–2).
///
/// Always the sequential kernel: the mesh workers already fill the host, so
/// a rank never opens a parallel region of its own (`dist_ttm` pins one
/// partition for the same reason).
fn local_gram_share(ctx: &mut RankCtx, t: &DistTensor, n: usize) -> Matrix {
    ctx.compute(gram_flops(t.global_shape().dims(), t.grid(), ctx.rank(), n));
    let block = t.local();
    let q = t.grid().dim(n);
    if q == 1 {
        // The share of every fiber of a block is the block's own buffer.
        let all = ColumnShare::new(block.shape().dims(), n, 0, block.shape().num_fibers(n));
        return all.gram(block.as_slice());
    }

    let ln = t.global_shape().dim(n);
    let slab = block.shape().with_dim(n, ln);
    let nf = slab.num_fibers(n);
    // `chunk` tolerates q > nf by handing trailing members empty shares.
    let share = |j: usize| {
        let (c0, len) = chunk(nf, q, j);
        ColumnShare::new(slab.dims(), n, c0, len)
    };
    let exchange = GroupExchange::column_shares(t.global_shape().dims(), t.grid(), ctx.rank(), n);
    let me = exchange.member();
    let (r0, rows) = chunk(ln, q, me);
    let src = block.as_slice();

    for (j, msg) in exchange.msgs(false) {
        let payload = share(j).pack(src, rows);
        debug_assert_eq!(payload.len(), msg.elems);
        ctx.send(msg.dst, GRAM_SHARE_TAG, payload, VolumeCategory::Gram);
    }

    let mine = share(me);
    let mut buf = vec![0.0; mine.buf_len()];
    mine.copy_rows(&mut buf, src, r0, rows);
    for (j, msg) in exchange.msgs(true) {
        let (rj, rows_j) = chunk(ln, q, j);
        let payload = ctx.recv(msg.src, GRAM_SHARE_TAG, VolumeCategory::Gram);
        mine.place(&mut buf, &payload, rj, rows_j);
    }
    mine.gram(&buf)
}

/// Compute the global Gram matrix `Z(n) Z(n)ᵀ` of the distributed tensor.
/// Every rank returns the same (replicated) `L_n × L_n` matrix.
pub fn dist_gram(ctx: &mut RankCtx, t: &DistTensor, n: usize) -> Matrix {
    let mut g = local_gram_share(ctx, t, n);

    // Sum contributions over the whole universe.
    allreduce_sum(ctx, g.as_mut_slice(), GRAM_REDUCE_TAG, VolumeCategory::Gram);
    g
}

/// Compute **every** mode's Gram matrix plus the squared Frobenius norm of
/// the global tensor in one fused world all-reduce.
///
/// Mathematically identical to `N` [`dist_gram`] calls plus a norm
/// all-reduce (elementwise sums in the same tree order), but it costs a
/// single world collective instead of `N + 1`. At paper-scale rank counts
/// the dominant host cost is collective *rounds* (each is a wave of fiber
/// switches over all `P` ranks), not payload bytes — this is what makes a
/// P = 8192 HOSVD initialization cheap.
pub fn dist_gram_all_with_norm(ctx: &mut RankCtx, t: &DistTensor) -> (Vec<Matrix>, f64) {
    let order = t.global_shape().order();
    let mut grams: Vec<Matrix> = (0..order).map(|n| local_gram_share(ctx, t, n)).collect();
    let norm_local = tucker_tensor::norm::fro_norm_sq(t.local());

    // Pack [G₀ | G₁ | … | ‖block‖²] and all-reduce once.
    let total: usize = grams.iter().map(|g| g.as_slice().len()).sum::<usize>() + 1;
    let mut buf = Vec::with_capacity(total);
    for g in &grams {
        buf.extend_from_slice(g.as_slice());
    }
    buf.push(norm_local);
    allreduce_sum(ctx, &mut buf, GRAM_REDUCE_TAG, VolumeCategory::Gram);

    let mut off = 0;
    for g in &mut grams {
        let len = g.as_slice().len();
        g.as_mut_slice().copy_from_slice(&buf[off..off + len]);
        off += len;
    }
    (grams, buf[off])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::rank_region;
    use crate::comm::Universe;
    use crate::grid::Grid;
    use crate::net::allreduce_msgs;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tucker_tensor::subtensor::extract;
    use tucker_tensor::{gram, DenseTensor, Shape};

    fn rand_tensor(dims: &[usize], seed: u64) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        DenseTensor::random(Shape::new(dims.to_vec()), &dist, &mut rng)
    }

    fn check_gram(dims: &[usize], grid_dims: &[usize], n: usize, seed: u64) {
        let global = rand_tensor(dims, seed);
        // `gram` is itself proptested against the explicit-unfold SYRK
        // reference in tucker-tensor; here it serves as the sequential
        // reference.
        let expect = gram(&global, n);
        let grid = Grid::new(grid_dims.to_vec());
        let out = Universe::run(grid.nranks(), |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            dist_gram(ctx, &dt, n)
        });
        for g in out.results {
            assert!(
                g.max_abs_diff(&expect) < 1e-10,
                "dims {dims:?} grid {grid_dims:?} mode {n}"
            );
        }
    }

    #[test]
    fn matches_sequential_unsplit_mode() {
        check_gram(&[5, 6, 4], &[1, 2, 2], 0, 1);
    }

    #[test]
    fn unsplit_mode_sends_no_gram_bytes() {
        let global = rand_tensor(&[5, 6, 4], 7);
        let grid = Grid::new([1, 2, 2]);
        let out = Universe::run(4, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            let before = ctx.volume().bytes(VolumeCategory::Gram);
            let _ = local_gram_share(ctx, &dt, 0);
            let unsplit = ctx.volume().bytes(VolumeCategory::Gram) - before;
            let _ = local_gram_share(ctx, &dt, 1);
            (unsplit, ctx.volume().bytes(VolumeCategory::Gram) - before)
        });
        for (unsplit, split) in out.results {
            assert_eq!(unsplit, 0);
            assert!(split > 0);
        }
    }

    /// A random extent in `lo..=hi`.
    fn pick(rng: &mut StdRng, lo: usize, hi: usize) -> usize {
        rng.gen_range(lo..=hi)
    }

    /// The exchange, rank by rank: every pre-all-reduce share is bitwise the
    /// share's Gram taken out of the full mode-`n` slab of the global tensor
    /// (which `tucker_tensor` certifies equal to the in-place column walk of
    /// that slab), and every rank sends exactly its rows of every other
    /// member's share plus its part of the all-reduce.
    #[test]
    fn shares_are_bitwise_the_slab_columns_and_bytes_the_closed_form() {
        let mut rng = StdRng::seed_from_u64(0x6B40);
        let (mut empty_shares, mut mid_slab, mut uneven) = (0, 0, 0);
        let (mut first_mode, mut last_mode) = (0, 0);
        // Fixed corner cases first, then random shapes and grids.
        let mut cases: Vec<(Vec<usize>, Vec<usize>, usize)> = vec![
            (vec![7, 2, 1], vec![5, 1, 1], 0), // q > nf: three empty shares
            (vec![3, 5, 4], vec![1, 3, 1], 1), // shares cut slabs mid-way
            (vec![4, 3, 6], vec![2, 1, 4], 2), // last mode: outer = 1
        ];
        while cases.len() < 40 {
            let order = pick(&mut rng, 1, 4);
            let dims: Vec<usize> = (0..order).map(|_| pick(&mut rng, 1, 7)).collect();
            let grid: Vec<usize> = dims.iter().map(|&d| pick(&mut rng, 1, d.min(4))).collect();
            if grid.iter().product::<usize>() <= 12 {
                cases.push((dims, grid, pick(&mut rng, 0, order - 1)));
            }
        }
        for (case, (dims, grid_dims, n)) in cases.into_iter().enumerate() {
            let global = rand_tensor(&dims, case as u64);
            let grid = Grid::new(grid_dims.clone());
            let p = grid.nranks();
            let (q, ln) = (grid.dim(n), dims[n]);
            let inner: usize = dims[..n].iter().product();
            first_mode += usize::from(n == 0 && q > 1);
            last_mode += usize::from(n + 1 == dims.len() && q > 1);
            uneven += usize::from(ln % q != 0);
            let out = Universe::run(p, |ctx| {
                let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
                let before = ctx.volume().bytes(VolumeCategory::Gram);
                let share = local_gram_share(ctx, &dt, n);
                let exchanged = ctx.volume().bytes(VolumeCategory::Gram) - before;
                let _ = dist_gram(ctx, &dt, n); // the same exchange, then the all-reduce
                let total = ctx.volume().bytes(VolumeCategory::Gram) - before;
                (share, exchanged, total - 2 * exchanged)
            });
            for (rank, (share, exchanged, reduced)) in out.results.into_iter().enumerate() {
                let mut region = rank_region(global.shape(), &grid, rank);
                (region.start[n], region.len[n]) = (0, ln);
                let slab = DenseTensor::from_vec(region.shape(), extract(&global, &region));
                let nf = slab.shape().num_fibers(n);
                let me = grid.coord(rank)[n];
                let (c0, clen) = chunk(nf, q, me);
                let cols = ColumnShare::new(slab.shape().dims(), n, c0, clen);
                let want = cols.gram(&cols.pack(slab.as_slice(), ln));
                let ctx =
                    format!("case {case}: dims {dims:?} grid {grid_dims:?} mode {n} rank {rank}");
                assert_eq!(share.as_slice(), want.as_slice(), "{ctx}");

                empty_shares += usize::from(clen == 0);
                mid_slab += usize::from(inner > 1 && (c0 % inner != 0 || (c0 + clen) % inner != 0));
                let rows = chunk(ln, q, me).1;
                let sent: usize = (0..q)
                    .filter(|&i| i != me)
                    .map(|i| chunk(nf, q, i).1 * rows)
                    .sum();
                assert_eq!(exchanged, 8 * sent as u64, "{ctx}");
                let reduce = allreduce_msgs(p, rank) / 2 * (ln * ln) as u64;
                assert_eq!(reduced, 8 * reduce, "{ctx}");
            }
        }
        assert!(empty_shares > 0 && mid_slab > 0 && uneven > 0);
        assert!(first_mode > 0 && last_mode > 0);
    }

    #[test]
    fn matches_sequential_split_mode() {
        check_gram(&[8, 5, 4], &[4, 1, 1], 0, 2);
        check_gram(&[5, 8, 4], &[1, 2, 2], 1, 3);
        check_gram(&[5, 4, 6], &[2, 1, 3], 2, 4);
    }

    #[test]
    fn uneven_mode_split() {
        check_gram(&[7, 6], &[3, 2], 0, 5);
    }

    #[test]
    fn gram_is_symmetric_and_psd_diagonal() {
        let global = rand_tensor(&[6, 5], 6);
        let grid = Grid::new([2, 2]);
        let out = Universe::run(4, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            dist_gram(ctx, &dt, 0)
        });
        let g = &out.results[0];
        for i in 0..6 {
            assert!(g[(i, i)] >= 0.0, "diagonal must be non-negative");
            for j in 0..6 {
                assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn batched_grams_match_per_mode_grams() {
        let global = rand_tensor(&[6, 5, 4], 11);
        let grid = Grid::new([2, 1, 2]);
        let out = Universe::run(4, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            let singles: Vec<Matrix> = (0..3).map(|n| dist_gram(ctx, &dt, n)).collect();
            let (batched, norm) = dist_gram_all_with_norm(ctx, &dt);
            (singles, batched, norm)
        });
        let expect_norm = tucker_tensor::norm::fro_norm_sq(&global);
        for (singles, batched, norm) in out.results {
            for (s, b) in singles.iter().zip(&batched) {
                // Identical elementwise sums in the same reduction order.
                assert_eq!(s.max_abs_diff(b), 0.0);
            }
            assert!((norm - expect_norm).abs() < 1e-9 * expect_norm);
        }
    }

    #[test]
    fn traffic_charged_to_gram_category() {
        let global = rand_tensor(&[8, 4], 7);
        let grid = Grid::new([2, 2]);
        let out = Universe::run(4, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            let _ = dist_gram(ctx, &dt, 0);
        });
        assert!(out.volume.bytes(VolumeCategory::Gram) > 0);
        assert_eq!(out.volume.bytes(VolumeCategory::TtmReduceScatter), 0);
        assert_eq!(out.volume.bytes(VolumeCategory::Regrid), 0);
    }
}
