//! Distributed Gram matrix computation for the SVD step (paper §5).
//!
//! The HOOI leaf for mode `n` needs the leading left singular vectors of the
//! unfolding `Z(n)`. Following the paper, we compute the `L_n × L_n` Gram
//! matrix `Z(n) · Z(n)ᵀ` in a distributed fashion and hand it to a
//! sequential EVD (replicated on every rank — the matrix is small):
//!
//! 1. **all-gather along the mode-`n` grid group** so each rank holds
//!    complete mode-`n` fibers (its block extended to the full `L_n` extent);
//! 2. **local fused Gram** on the rank's balanced `1/q_n` column share —
//!    [`gram_cols`] reads the fibers straight out of the canonical layout,
//!    so neither an unfolding nor a scratch column copy is ever materialized
//!    (this is the `dsyrk` of the paper, fused with the column slicing);
//! 3. **all-reduce** of the `L_n × L_n` contributions across all ranks.
//!
//! All traffic is charged to [`VolumeCategory::Gram`].

use crate::block::chunk;
use crate::collectives::{allreduce_sum, Group};
use crate::comm::{RankCtx, VolumeCategory};
use crate::dist_tensor::DistTensor;
use std::borrow::Cow;
use tucker_linalg::Matrix;
use tucker_tensor::subtensor::insert_window;
use tucker_tensor::{gram_cols, DenseTensor, Dims};

/// Tag for the mode-group all-gather.
const GRAM_GATHER_TAG: u32 = 0x6B40;
/// Tag base for the world all-reduce (uses tag and tag+1).
const GRAM_REDUCE_TAG: u32 = 0x6B42;

/// This rank's **local** (pre-all-reduce) contribution to the mode-`n` Gram:
/// all-gather along the mode group, then the fused Gram kernel on this
/// rank's balanced `1/q_n` column share.
fn local_gram_share(ctx: &mut RankCtx, t: &DistTensor, n: usize) -> Matrix {
    let slab = gather_mode_fibers(ctx, t, n);
    // Local contribution via the fused Gram kernel. After the all-gather
    // every member of the mode-n group holds the SAME slab, so each member
    // contributes only its 1/q_n share of the fibers (a contiguous column
    // range of the never-materialized unfolding) — this keeps the compute
    // balanced and avoids double counting in the world all-reduce.
    // Always through the sequential `gram_cols`: the mesh workers already
    // fill the host, so a rank never opens a parallel region of its own
    // (`dist_ttm` pins one partition for the same reason).
    let qn = t.grid().dim(n);
    let nf = slab.shape().num_fibers(n);
    let (c0, clen) = if qn == 1 {
        (0, nf)
    } else {
        let (my_idx, ..) = t.grid().mode_group_span(ctx.rank(), n);
        // `chunk` tolerates q > num_fibers by handing trailing members empty
        // (zero-length) column ranges.
        chunk(nf, qn, my_idx)
    };
    gram_cols(slab.as_ref(), n, c0, clen)
}

/// Compute the global Gram matrix `Z(n) Z(n)ᵀ` of the distributed tensor.
/// Every rank returns the same (replicated) `L_n × L_n` matrix.
pub fn dist_gram(ctx: &mut RankCtx, t: &DistTensor, n: usize) -> Matrix {
    let mut g = local_gram_share(ctx, t, n);

    // Sum contributions over the whole universe.
    let world = Group::world(ctx);
    allreduce_sum(
        ctx,
        &world,
        g.as_mut_slice(),
        GRAM_REDUCE_TAG,
        VolumeCategory::Gram,
    );
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
    let world = Group::world(ctx);
    allreduce_sum(ctx, &world, &mut buf, GRAM_REDUCE_TAG, VolumeCategory::Gram);

    let mut off = 0;
    for g in &mut grams {
        let len = g.as_slice().len();
        g.as_mut_slice().copy_from_slice(&buf[off..off + len]);
        off += len;
    }
    (grams, buf[off])
}

/// All-gather within the mode-`n` grid group so that this rank's block is
/// extended to the full `L_n` extent along mode `n` (other modes keep their
/// local extents). When the mode is unsplit (`q_n = 1`) the local block is
/// already that slab and is returned borrowed, uncopied.
pub fn gather_mode_fibers<'a>(
    ctx: &mut RankCtx,
    t: &'a DistTensor,
    n: usize,
) -> Cow<'a, DenseTensor> {
    let grid = t.grid();
    let ln = t.global_shape().dim(n);
    let qn = grid.dim(n);
    if qn == 1 {
        return Cow::Borrowed(t.local());
    }

    // Target slab: local extents, but full L_n along mode n.
    let mut slab = DenseTensor::zeros(t.local().shape().with_dim(n, ln));

    // Member `j` of my mode-n group is rank `base + j · stride`.
    let (my_idx, base, stride) = grid.mode_group_span(ctx.rank(), n);

    // Direct all-gather of local blocks within the group.
    for j in (0..qn).filter(|&j| j != my_idx) {
        let block = t.local().as_slice().to_vec();
        ctx.send(
            base + j * stride,
            GRAM_GATHER_TAG,
            block,
            VolumeCategory::Gram,
        );
    }
    // Member `j`'s block is the slab's window over chunk `j` of mode n.
    let mut start = Dims::filled(slab.order(), 0);
    let mut len = Dims::from(slab.shape().dims());
    for j in 0..qn {
        (start[n], len[n]) = chunk(ln, qn, j);
        if j == my_idx {
            insert_window(&mut slab, &start, &len, t.local().as_slice());
        } else {
            let data = ctx.recv(base + j * stride, GRAM_GATHER_TAG, VolumeCategory::Gram);
            // `insert_window` checks the payload against the window.
            insert_window(&mut slab, &start, &len, &data);
        }
    }
    Cow::Owned(slab)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Universe;
    use crate::grid::Grid;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tucker_tensor::{gram, Shape};

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
    fn unsplit_mode_borrows_the_local_block() {
        let global = rand_tensor(&[5, 6, 4], 7);
        let grid = Grid::new([1, 2, 2]);
        let out = Universe::run(4, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            let unsplit = gather_mode_fibers(ctx, &dt, 0);
            let borrowed = matches!(unsplit, Cow::Borrowed(b) if std::ptr::eq(b, dt.local()));
            let split = gather_mode_fibers(ctx, &dt, 1);
            borrowed && matches!(split, Cow::Owned(_)) && split.shape().dim(1) == 6
        });
        assert!(out.results.iter().all(|&ok| ok));
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
