//! What the distributed Gram may hold resident.
//!
//! A mode-`n` Gram on a grid that splits mode `n` over `q` ranks used to
//! all-gather every member's block, so each rank rebuilt the whole mode-`n`
//! slab — `q` blocks — to use `1/q` of its columns: at `q = P` every rank held
//! the whole tensor. The column-share exchange sends each member only its
//! rows of the other shares, so a rank holds its block, its outgoing payloads
//! and its own share. This fence counts **live** heap bytes (allocated minus
//! freed) through the HOSVD init's fused Gram on the `dist-measured` shape,
//! so it does not depend on how the C allocator maps pages.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tucker_distsim::dist_gram::dist_gram_all_with_norm;
use tucker_distsim::{DistTensor, Grid, MeshCfg, Universe};
use tucker_tensor::Shape;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct LiveBytes;

// SAFETY: defers every operation to `System`; the only additions are relaxed
// updates of two static atomics, which never allocate.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

#[test]
fn the_hosvd_gram_holds_a_few_tensors_not_one_per_rank() {
    // `dist-measured`: 64×64×64×8 (16 MiB) on P = 8 with its winner grid,
    // which splits mode 2 over all eight ranks.
    let shape = Shape::new(vec![64, 64, 64, 8]);
    let grid = Grid::new([1, 1, 8, 1]);
    let tensor_bytes = 8 * shape.cardinality();
    let mesh = MeshCfg {
        workers: 1,
        ..MeshCfg::default()
    };
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = Universe::run_mesh(grid.nranks(), &mesh, |ctx| {
        let t = DistTensor::from_global_fn(ctx, &shape, &grid, |c| {
            ((c[0] * 7 + c[1] * 5 + c[2] * 3 + c[3]) % 17) as f64 - 8.0
        });
        let (grams, norm) = dist_gram_all_with_norm(ctx, &t);
        (grams[2][(0, 0)], norm)
    })
    .into_results();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    // Every rank holds the same all-reduced numbers.
    assert!(out.results.windows(2).all(|w| w[0] == w[1]));
    // Blocks (1x), payloads in flight (7/8x) and shares (1x): 2.6x measured.
    assert!(
        peak <= 4 * tensor_bytes,
        "peak live {:.2} MiB = {:.2}x the {} MiB tensor (budget 4x; the all-gather \
         held 13.4x: eight full slabs plus the blocks in flight)",
        peak as f64 / (1 << 20) as f64,
        peak as f64 / tensor_bytes as f64,
        tensor_bytes >> 20
    );
}
