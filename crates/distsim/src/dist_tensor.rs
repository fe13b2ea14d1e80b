//! A tensor distributed across ranks by a Cartesian block distribution.

use crate::block::{rank_block, rank_region};
use crate::comm::{RankCtx, VolumeCategory};
use crate::grid::Grid;
use tucker_tensor::subtensor::{extract, insert, Region};
use tucker_tensor::{DenseTensor, Shape};

/// The block of a globally distributed tensor owned by one rank.
///
/// Every rank of a universe holds one `DistTensor` per logical tensor; the
/// collection of blocks partitions the global index space according to
/// [`crate::block::block_region`].
#[derive(Clone, Debug)]
pub struct DistTensor {
    /// Boxed: blocks are passed by value through the sweep loops, which run
    /// on every rank's fiber stack, and two inline shapes plus a grid would
    /// triple what each of those moves occupies there.
    layout: Box<Layout>,
    local: DenseTensor,
}

#[derive(Clone, Debug)]
struct Layout {
    global_shape: Shape,
    grid: Grid,
    rank: usize,
}

impl DistTensor {
    /// Assemble from parts (the local block must match the region implied by
    /// `grid` and `rank`).
    ///
    /// # Panics
    /// Panics if the local shape disagrees with the block region.
    pub fn from_parts(global_shape: Shape, grid: Grid, rank: usize, local: DenseTensor) -> Self {
        let block = rank_block(&global_shape, &grid, rank);
        assert_eq!(
            local.shape().dims(),
            &block.len[..],
            "local block shape mismatch for rank {rank} under {grid}"
        );
        DistTensor {
            layout: Box::new(Layout {
                global_shape,
                grid,
                rank,
            }),
            local,
        }
    }

    /// Build this rank's block by extracting its region from a replicated
    /// global tensor. (Used for test setup and experiment initialization;
    /// real data would be read in distributed form.)
    pub fn scatter_from_global(ctx: &RankCtx, global: &DenseTensor, grid: &Grid) -> Self {
        assert_eq!(
            grid.nranks(),
            ctx.nranks(),
            "grid {grid} does not match universe size {}",
            ctx.nranks()
        );
        let region = rank_region(global.shape(), grid, ctx.rank());
        let data = extract(global, &region);
        let local = DenseTensor::from_vec(region.shape(), data);
        Self::from_parts(global.shape().clone(), grid.clone(), ctx.rank(), local)
    }

    /// Generate a distributed tensor directly from a coordinate function
    /// (each rank fills only its own block — no global materialization).
    pub fn from_global_fn(
        ctx: &RankCtx,
        shape: &Shape,
        grid: &Grid,
        mut f: impl FnMut(&[usize]) -> f64,
    ) -> Self {
        assert_eq!(grid.nranks(), ctx.nranks(), "grid/universe mismatch");
        let region = rank_block(shape, grid, ctx.rank());
        // One reused global-coordinate buffer: no per-element allocation.
        let mut g = region.start.clone();
        let local = DenseTensor::from_fn(&region.len[..], |c| {
            for ((g, &c), &start) in g.iter_mut().zip(c).zip(&region.start) {
                *g = c + start;
            }
            f(&g)
        });
        Self::from_parts(shape.clone(), grid.clone(), ctx.rank(), local)
    }

    /// Global tensor shape.
    pub fn global_shape(&self) -> &Shape {
        &self.layout.global_shape
    }

    /// The distribution grid.
    pub fn grid(&self) -> &Grid {
        &self.layout.grid
    }

    /// Owning rank of this block.
    pub fn rank(&self) -> usize {
        self.layout.rank
    }

    /// The local block.
    pub fn local(&self) -> &DenseTensor {
        &self.local
    }

    /// The global region this block covers.
    pub fn region(&self) -> Region {
        rank_region(self.global_shape(), self.grid(), self.rank())
    }

    /// Sum of squared elements of the **global** tensor (all-reduced, so
    /// every rank returns the same value).
    ///
    /// The local partial uses the same compensated summation as the
    /// sequential `fro_norm_sq`: the result feeds the cancellation-prone
    /// `‖T‖² − ‖G‖²` error formula, whose noise-floor flush assumes
    /// correctly-rounded operands on both the sequential and distributed
    /// paths.
    pub fn global_norm_sq(&self, ctx: &mut RankCtx) -> f64 {
        let local = tucker_tensor::norm::fro_norm_sq(&self.local);
        let mut buf = [local];
        let g = crate::collectives::Group::world(ctx);
        crate::collectives::allreduce_sum(ctx, &g, &mut buf, 9001, VolumeCategory::Other);
        buf[0]
    }

    /// Gather the full tensor on every rank (verification helper; volume is
    /// charged to [`VolumeCategory::Other`]).
    pub fn allgather_global(&self, ctx: &mut RankCtx) -> DenseTensor {
        let g = crate::collectives::Group::world(ctx);
        let parts = crate::collectives::allgather(
            ctx,
            &g,
            self.local.as_slice().to_vec(),
            9002,
            VolumeCategory::Other,
        );
        let mut out = DenseTensor::zeros(self.global_shape().clone());
        for (r, data) in parts.into_iter().enumerate() {
            let region = rank_region(self.global_shape(), self.grid(), r);
            insert(&mut out, &region, &data);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Universe;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_tensor(dims: &[usize], seed: u64) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        DenseTensor::random(Shape::new(dims.to_vec()), &dist, &mut rng)
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let global = rand_tensor(&[6, 5, 4], 1);
        let grid = Grid::new([2, 1, 2]);
        let out = Universe::run(4, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            dt.allgather_global(ctx)
        });
        for t in out.results {
            assert_eq!(t.max_abs_diff(&global), 0.0);
        }
    }

    #[test]
    fn from_global_fn_matches_scatter() {
        // 2-D, and a 4-D case whose blocks start at non-zero offsets in
        // every mode with extents the grid does not divide. The global
        // reference is filled through the allocating `Shape::coords`
        // iterator, independently of the in-place odometer under test.
        let f = |c: &[usize]| c.iter().fold(0.5, |acc, &x| acc * 31.0 + x as f64);
        for (dims, q) in [
            (vec![5, 4], vec![2, 2]),
            (vec![5, 4, 3, 7], vec![2, 2, 1, 3]),
        ] {
            let shape = Shape::from(dims);
            let grid = Grid::new(q);
            let global =
                DenseTensor::from_vec(shape.clone(), shape.coords().map(|c| f(&c)).collect());
            let out = Universe::run(grid.nranks(), |ctx| {
                let a = DistTensor::scatter_from_global(ctx, &global, &grid);
                let b = DistTensor::from_global_fn(ctx, &shape, &grid, f);
                assert_eq!(a.local().shape(), b.local().shape());
                a.local().as_slice() == b.local().as_slice()
            });
            assert!(out.results.iter().all(|&same| same), "{shape} on {grid}");
        }
    }

    #[test]
    fn global_norm_matches_sequential() {
        let global = rand_tensor(&[4, 6], 2);
        let expect = tucker_tensor::norm::fro_norm_sq(&global);
        let grid = Grid::new([2, 3]);
        let out = Universe::run(6, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            dt.global_norm_sq(ctx)
        });
        for v in out.results {
            assert!((v - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn local_blocks_have_block_shapes() {
        let global = rand_tensor(&[7, 5], 3);
        let grid = Grid::new([3, 2]);
        let out = Universe::run(6, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &grid);
            dt.local().shape().dims().to_vec()
        });
        // mode 0: 7 -> 3,2,2 ; mode 1: 5 -> 3,2
        assert_eq!(out.results[0], vec![3, 3]);
        assert_eq!(out.results[1], vec![2, 3]);
        assert_eq!(out.results[2], vec![2, 3]);
        assert_eq!(out.results[3], vec![3, 2]);
    }
}
