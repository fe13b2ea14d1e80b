//! A warm packed `ttm_into_threads(.., 2)` into a pre-sized `out` touches the
//! heap exactly as often as the same call at `threads = 1` — once, for the
//! `Shape` it returns — counted over **every** thread of the process: the
//! region itself allocates nothing (no chunk lists, no thread stacks), and
//! every participant stages through scratch that stayed warm from the call
//! before.
//!
//! The counter is process-wide, so this is the only test of the binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tucker_linalg::Matrix;
use tucker_tensor::{ttm_into_threads, DenseTensor, Shape};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: defers every operation to `System`; the only addition is a relaxed
// bump of a static atomic, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_parallel_packed_ttm_allocates_nothing_on_any_thread() {
    // The counter really counts.
    assert!(allocations_during(|| drop(std::hint::black_box(Box::new(1.0)))) >= 1);

    // One shape per parallel packed path: mode-0 column split, slab split,
    // small-inner slab split, last-mode row split.
    for (dims, n, k) in [
        (vec![64, 9, 80], 0, 16),
        (vec![24, 20, 18], 1, 8),
        (vec![6, 48, 40], 1, 16),
        (vec![40, 10, 30], 2, 8),
    ] {
        let t = DenseTensor::from_fn(Shape::new(dims.clone()), |c| {
            (c.iter().sum::<usize>() % 13) as f64 - 6.0
        });
        let a = Matrix::from_fn(k, dims[n], |r, c| ((r * 5 + c * 3) % 11) as f64 - 5.0);
        let mut out = Vec::with_capacity(t.cardinality() / dims[n] * k);
        let mut call = |threads: usize| {
            allocations_during(|| {
                ttm_into_threads(&t, n, &a, &mut out, threads);
            })
        };
        // Cold calls grow each participant's scratch; they may allocate.
        call(1);
        call(2);
        let seq = call(1);
        let par = call(2);
        assert!(
            seq <= 1,
            "{dims:?} mode {n}: sequential call allocated {seq}×"
        );
        assert_eq!(
            par, seq,
            "{dims:?} mode {n}: the parallel region allocated on some thread"
        );
    }
}
