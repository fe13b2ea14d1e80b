//! Regridding: move a distributed tensor from one grid to another.
//!
//! This is the paper's element-redistribution procedure implemented with
//! `MPI_Alltoallv` (§5): every rank intersects its old block with every new
//! block, packs and ships the intersections, then unpacks what lands in its
//! new block. The total communication volume is `|T|` minus the elements
//! that stay put — bounded by the `|In(u)|` the volume model charges for a
//! regrid (§4.3).

use crate::block::rank_block;
use crate::comm::{RankCtx, VolumeCategory};
use crate::dist_tensor::DistTensor;
use crate::exchange::{regrid_msgs, Msg};
use crate::grid::Grid;
use tucker_tensor::subtensor::{extract_window, insert_window, Region};
use tucker_tensor::{copy_into, DenseTensor, TensorView, TensorViewMut};

/// Tag base for regrid traffic (messages carry `tag = REGRID_TAG`).
const REGRID_TAG: u32 = 0x5E61;

/// Redistribute `t` onto `new_grid`, returning this rank's new block.
///
/// When the grids are equal the tensor is returned unchanged and no traffic
/// is generated (the planner's "do not regrid" branch).
pub fn redistribute(ctx: &mut RankCtx, t: &DistTensor, new_grid: &Grid) -> DistTensor {
    let shape = t.global_shape();
    assert_eq!(
        new_grid.nranks(),
        ctx.nranks(),
        "new grid {new_grid} does not match universe size"
    );
    if t.grid() == new_grid {
        return t.clone();
    }

    let me = ctx.rank();
    let my_old = rank_block(shape, t.grid(), me);
    let my_new = rank_block(shape, new_grid, me);
    let mut local = DenseTensor::zeros(&my_new.len[..]);
    let dims = shape.dims();

    // Send phase: only the new-grid blocks that actually intersect my old
    // block (a box of coordinates, not all P ranks). The wire pack is one
    // strided view-to-buffer copy; the block staying on this rank never
    // touches the wire at all — it is copied view-to-view below.
    for msg in listed(|| regrid_msgs(dims, t.grid(), new_grid, me, false)) {
        let window = my_old
            .intersect(&rank_block(shape, new_grid, msg.dst))
            .expect("cover is exact")
            .relative_to(&my_old.start);
        let data = extract_window(t.local(), &window.start, &window.len);
        debug_assert_eq!(data.len(), msg.elems);
        ctx.send(msg.dst, REGRID_TAG, data, VolumeCategory::Regrid);
    }

    // Self-overlap: a single strided copy from the old block's view into the
    // new block's view — no wire buffer, no scratch tensor.
    if let Some(overlap) = my_old.intersect(&my_new) {
        let from = overlap.clone().relative_to(&my_old.start);
        let to = overlap.relative_to(&my_new.start);
        copy_into(
            &TensorView::window(t.local(), &from.start, &from.len),
            &mut TensorViewMut::window(&mut local, &to.start, &to.len),
        );
    }

    // Receive phase: one message from every rank whose old block intersects
    // my new block. Every pair exchanges at most one message, so the order
    // the receives are issued in cannot mismatch them. The unpack is again
    // one strided copy.
    for msg in listed(|| regrid_msgs(dims, t.grid(), new_grid, me, true)) {
        let window = rank_block(shape, t.grid(), msg.src)
            .intersect(&my_new)
            .expect("cover is exact")
            .relative_to(&my_new.start);
        let data = ctx.recv(msg.src, REGRID_TAG, VolumeCategory::Regrid);
        assert_eq!(data.len(), msg.elems, "regrid payload mismatch");
        insert_window(&mut local, &window.start, &window.len, &data);
    }

    DistTensor::from_parts(shape.clone(), new_grid.clone(), me, local)
}

/// `msgs()` collected in a frame of its own: the walk's state then never
/// sits under a blocking receive on the rank's fiber stack, which keeps
/// every page it touches.
#[inline(never)]
fn listed<I: Iterator<Item = Msg>>(msgs: impl FnOnce() -> I) -> Vec<Msg> {
    msgs().collect()
}

/// Host-side archive of the live blocks of one mesh epoch, used by the
/// recovery layer to **redistribute live blocks** across a re-plan: each
/// rank deposits (a clone of) its initial block at epoch start; after a
/// quarantine, the dead rank's deposit is evicted and every surviving
/// epoch's rank [`BlockStore::fill`]s its new-grid block from the stored
/// intersections — the same region cover [`redistribute`] ships over the
/// wire, performed host-side because the two epochs are different
/// universes. Elements only the dead rank held are the caller's to
/// re-materialize (the engine falls back to the input generator for them).
#[derive(Default)]
pub struct BlockStore {
    blocks: std::sync::Mutex<Vec<(usize, Region, DenseTensor)>>,
}

impl BlockStore {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(usize, Region, DenseTensor)>> {
        match self.blocks.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Deposit `rank`'s block (idempotent per rank: a re-deposit replaces).
    pub fn deposit(&self, rank: usize, region: Region, local: DenseTensor) {
        assert_eq!(region.shape().dims(), local.shape().dims(), "block shape");
        let mut g = self.lock();
        g.retain(|(r, _, _)| *r != rank);
        g.push((rank, region, local));
    }

    /// Drop a dead rank's block (its data is lost with the rank).
    pub fn evict(&self, rank: usize) {
        self.lock().retain(|(r, _, _)| *r != rank);
    }

    /// Copy every stored intersection with `region` into `local` (shaped
    /// `region.shape()`), returning the number of elements reused. Stored
    /// blocks are disjoint (one per old rank), so the count is exact.
    pub fn fill(&self, region: &Region, local: &mut DenseTensor) -> u64 {
        assert_eq!(region.shape().dims(), local.shape().dims(), "fill shape");
        let mut reused = 0u64;
        for (_, src_region, src) in self.lock().iter() {
            let Some(overlap) = src_region.intersect(region) else {
                continue;
            };
            // One view-to-view strided copy per stored block — the seed's
            // extract-then-insert staged every intersection through a scratch
            // buffer, doubling the bytes moved.
            reused += overlap.cardinality() as u64;
            let sv = TensorView::region(src, &overlap.clone().relative_to(&src_region.start));
            let mut dv = TensorViewMut::region(local, &overlap.relative_to(&region.start));
            copy_into(&sv, &mut dv);
        }
        reused
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::rank_region as block_of;
    use crate::comm::Universe;
    use crate::mesh::MeshCfg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tucker_tensor::subtensor::extract;
    use tucker_tensor::Shape;

    fn rand_tensor(dims: &[usize], seed: u64) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        DenseTensor::random(Shape::new(dims.to_vec()), &dist, &mut rng)
    }

    #[test]
    fn regrid_preserves_global_tensor() {
        let global = rand_tensor(&[8, 6, 4], 1);
        let g1 = Grid::new([4, 1, 1]);
        let g2 = Grid::new([1, 2, 2]);
        let out = Universe::run(4, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &g1);
            let dt2 = redistribute(ctx, &dt, &g2);
            assert_eq!(dt2.grid(), &g2);
            dt2.allgather_global(ctx)
        });
        for t in out.results {
            assert_eq!(t.max_abs_diff(&global), 0.0);
        }
    }

    #[test]
    fn regrid_chain_roundtrip() {
        let global = rand_tensor(&[5, 7, 6], 2);
        let g1 = Grid::new([2, 3, 1]);
        let g2 = Grid::new([3, 1, 2]);
        let out = Universe::run(6, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &g1);
            let dt2 = redistribute(ctx, &dt, &g2);
            let dt3 = redistribute(ctx, &dt2, &g1);
            dt3.local().max_abs_diff(dt.local())
        });
        assert!(out.results.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn regrid_copies_each_element_once() {
        // Every element of the old block is read once (packed for the wire,
        // or copied view-to-view when it stays) and every element of the
        // new block written once (unpacked, or that same copy): a rank
        // copies `|old| + |new| − kept` elements, the elements it keeps
        // crossing no scratch buffer. Staging them through the wire like the
        // rest would copy `|old| + |new|`.
        let global = rand_tensor(&[8, 6, 4], 7);
        let g1 = Grid::new([2, 2, 1]);
        let g2 = Grid::new([1, 2, 2]);
        // `view_bytes_copied` counts per OS thread: one worker per rank, or
        // a delta taken across a suspension absorbs a neighbour's copies.
        let one_thread_per_rank = MeshCfg {
            workers: 4,
            ..MeshCfg::default()
        };
        let out = Universe::run_mesh(4, &one_thread_per_rank, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &g1);
            let before = tucker_tensor::view_bytes_copied();
            let local = redistribute(ctx, &dt, &g2).local().clone();
            (local, tucker_tensor::view_bytes_copied() - before)
        })
        .into_results();
        let (mut kept_total, mut moved) = (0usize, 0usize);
        for (r, (local, copied)) in out.results.iter().enumerate() {
            let old = block_of(global.shape(), &g1, r);
            let new = block_of(global.shape(), &g2, r);
            assert_eq!(local.as_slice(), extract(&global, &new), "rank {r}");
            let kept = old.intersect(&new).map_or(0, |o| o.cardinality());
            let once = old.cardinality() + new.cardinality() - kept;
            assert_eq!(*copied, (once * 8) as u64, "rank {r}");
            kept_total += kept;
            moved += old.cardinality() - kept;
        }
        // The grids are chosen so some rank keeps data (otherwise the test
        // would pass vacuously); what it keeps never crosses the wire.
        assert!(kept_total > 0, "test grids must produce self overlaps");
        assert_eq!(out.volume.elements(VolumeCategory::Regrid), moved as u64);
    }

    #[test]
    fn same_grid_is_free() {
        let global = rand_tensor(&[6, 6], 3);
        let g = Grid::new([2, 2]);
        let out = Universe::run(4, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &g);
            let before = ctx.volume().bytes(VolumeCategory::Regrid);
            let dt2 = redistribute(ctx, &dt, &g);
            let after = ctx.volume().bytes(VolumeCategory::Regrid);
            (dt2.local().max_abs_diff(dt.local()), after - before)
        });
        for (diff, vol) in out.results {
            assert_eq!(diff, 0.0);
            assert_eq!(vol, 0);
        }
    }

    #[test]
    fn regrid_volume_bounded_by_cardinality() {
        let global = rand_tensor(&[8, 8], 4);
        let g1 = Grid::new([4, 1]);
        let g2 = Grid::new([1, 4]);
        let out = Universe::run(4, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &g1);
            let _ = redistribute(ctx, &dt, &g2);
        });
        let moved = out.volume.elements(VolumeCategory::Regrid) as usize;
        // Transposing the grid moves everything except the diagonal overlap.
        assert!(moved <= global.cardinality());
        assert!(moved >= global.cardinality() / 2, "most elements must move");
    }

    #[test]
    fn block_store_reassembles_survivor_blocks() {
        // Four blocks on a [2,2] grid; rank 2 dies. A [3,1] survivor grid's
        // blocks must reassemble exactly, with only rank 2's region missing.
        let global = rand_tensor(&[6, 4], 6);
        let shape = global.shape().clone();
        let old = Grid::new([2, 2]);
        let store = BlockStore::default();
        for r in 0..4 {
            let region = block_of(&shape, &old, r);
            let local = DenseTensor::from_fn(region.shape(), |c| {
                let gc: Vec<usize> = c.iter().zip(&region.start).map(|(x, s)| x + s).collect();
                global.get(&gc)
            });
            store.deposit(r, region, local);
        }
        assert_eq!(store.lock().len(), 4);
        store.evict(2);
        assert_eq!(store.lock().len(), 3);

        let new = Grid::new([3, 1]);
        let dead_region = block_of(&shape, &old, 2);
        let mut total_reused = 0u64;
        for r in 0..3 {
            let region = block_of(&shape, &new, r);
            let mut local = DenseTensor::zeros(region.shape());
            total_reused += store.fill(&region, &mut local);
            for c in 0..region.cardinality() {
                // Odometer over the block, mode 0 fastest (matches layout).
                let mut rem = c;
                let gc: Vec<usize> = region
                    .len
                    .iter()
                    .zip(&region.start)
                    .map(|(&l, &s)| {
                        let x = rem % l;
                        rem /= l;
                        x + s
                    })
                    .collect();
                let got = local.as_slice()[c];
                if dead_region.contains(&gc) {
                    assert_eq!(got, 0.0, "dead data must not be resurrected");
                } else {
                    assert_eq!(got, global.get(&gc), "live data must be exact");
                }
            }
        }
        let dead = dead_region.cardinality() as u64;
        assert_eq!(total_reused, global.cardinality() as u64 - dead);
    }

    #[test]
    fn partial_overlap_stays_local() {
        // Splitting only mode 1 in both grids with identical q keeps data put.
        let global = rand_tensor(&[4, 8], 5);
        let g1 = Grid::new([1, 4]);
        let g2 = Grid::new([1, 4]);
        let out = Universe::run(4, |ctx| {
            let dt = DistTensor::scatter_from_global(ctx, &global, &g1);
            let dt2 = redistribute(ctx, &dt, &g2);
            dt2.local().max_abs_diff(dt.local())
        });
        assert!(out.results.iter().all(|&d| d == 0.0));
        assert_eq!(out.volume.bytes(VolumeCategory::Regrid), 0);
    }
}
