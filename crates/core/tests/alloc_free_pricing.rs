//! The α–β prices the joint DP evaluates hundreds of thousands of times per
//! plan must not touch the heap: a counting global allocator sees zero
//! allocations across `regrid_cost`, `ttm_cost` and `leaf_cost` calls, and
//! across the prices of the regrid pricer the DP prepares once per search
//! (preparing it may allocate), under the flat and the hierarchical preset
//! (including [`Grid::with_axes`] rank orderings).
//!
//! The counter is thread-local, so the test harness's own threads cannot
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tucker_core::plan::cost::{CostModel, NetCostModel};
use tucker_core::plan::grid::candidate_grids;
use tucker_core::TuckerMeta;
use tucker_distsim::{Grid, NetModel};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System`; the only addition is a
// thread-local counter bump that itself never allocates (const-initialized
// `Cell`, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce() -> f64) -> (u64, f64) {
    let before = ALLOCS.with(Cell::get);
    let value = std::hint::black_box(f());
    (ALLOCS.with(Cell::get) - before, value)
}

#[test]
fn net_prices_are_allocation_free() {
    let meta = TuckerMeta::new([20, 50, 50, 30], [10, 40, 5, 6]);
    let p = 64;
    let from = Grid::new([2, 8, 4, 1]);
    let to = Grid::new([4, 4, 1, 4]);
    let reordered = Grid::with_axes([4, 4, 1, 4], [3, 0, 1, 2]);
    // The counter really counts.
    assert!(allocations_during(|| *std::hint::black_box(Box::new(1.0))).0 >= 1);

    for net in [NetModel::bgq(), NetModel::cluster()] {
        let model = NetCostModel::new(net, p);
        for premult in [0u32, 0b0101, 0b1110] {
            for (a, b) in [(&from, &to), (&to, &reordered), (&reordered, &from)] {
                let (n, price) = allocations_during(|| model.regrid_cost(&meta, premult, a, b));
                // Rank 0 keeps its block when only the axis order changes.
                assert_eq!(price > 0.0, a.dims() != b.dims() || net.is_hierarchical());
                assert_eq!(n, 0, "regrid_cost allocated ({premult:#b}, {a} -> {b})");
            }
            for g in [&from, &to, &reordered] {
                for mode in 0..meta.order() {
                    let (n, price) = allocations_during(|| model.ttm_cost(&meta, premult, mode, g));
                    assert_eq!(price > 0.0, g.dim(mode) > 1);
                    assert_eq!(n, 0, "ttm_cost allocated ({premult:#b}, mode {mode}, {g})");
                    let (n, price) =
                        allocations_during(|| model.leaf_cost(&meta, premult, mode, g));
                    assert!(price > 0.0);
                    assert_eq!(n, 0, "leaf_cost allocated ({premult:#b}, mode {mode}, {g})");
                }
            }
        }
    }
}

#[test]
fn prepared_regrid_prices_are_allocation_free() {
    let meta = TuckerMeta::new([20, 50, 50, 30], [10, 40, 5, 6]);
    let p = 64;
    for net in [NetModel::bgq(), NetModel::cluster()] {
        let model = NetCostModel::new(net, p);
        // The search's grid list: the hierarchical preset adds node-aligned
        // `Grid::with_axes` variants.
        let mut grids = candidate_grids(&meta, p);
        model.augment_grids(&meta, &mut grids);
        let pricer = model.regrid_pricer(&meta, &grids);
        let picks: Vec<usize> = (0..grids.len()).step_by(grids.len() / 12 + 1).collect();
        for premult in [0u32, 0b0101, 0b1110] {
            for &a in &picks {
                for &b in &picks {
                    let (n, price) = allocations_during(|| pricer(premult, a, b));
                    assert_eq!(
                        n, 0,
                        "pricer allocated ({premult:#b}, {} -> {})",
                        grids[a], grids[b]
                    );
                    let expect = model.regrid_cost(&meta, premult, &grids[a], &grids[b]);
                    assert_eq!(price.to_bits(), expect.to_bits());
                }
            }
        }
    }
}
