//! What one hierarchical world all-reduce costs the allocator per rank.
//!
//! A rank finds its node, leader, node peers and the strided leaders group
//! in closed form (`NetModel::node_layout`), so the only heap blocks the
//! collective adds are its message payloads: `2(P − 1)` messages in all,
//! one buffer each, plus what the mailboxes grow by. Nothing may scale with
//! `P` — the same per-rank bound holds at P = 64 and at P = 1024. (Building
//! a `P`-element member list, a node-bucket map and a leaders list on every
//! rank cost ~20 blocks per rank at P = 64 and ~200 at P = 1024.)
//!
//! The allocation counter is process-wide, so this binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tucker_distsim::collectives::allreduce_sum;
use tucker_distsim::{MeshCfg, NetModel, Universe, VolumeCategory};

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

/// Heap blocks a one-worker `cluster()` universe of `p` ranks allocates,
/// each rank running `reduce` one-element world all-reduces.
fn universe_allocs(p: usize, reduce: usize) -> u64 {
    let cfg = MeshCfg {
        workers: 1,
        ..MeshCfg::virtual_time(NetModel::cluster())
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = Universe::run_mesh(p, &cfg, |ctx| {
        let mut buf = [1.0];
        for _ in 0..reduce {
            allreduce_sum(ctx, &mut buf, 1, VolumeCategory::Gram);
        }
        buf[0]
    });
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let results = out.into_results().results;
    assert!(results
        .iter()
        .all(|&v| v == if reduce == 0 { 1.0 } else { p as f64 }));
    allocs
}

#[test]
fn a_hierarchical_world_allreduce_allocates_a_constant_per_rank() {
    const PER_RANK: u64 = 4;
    universe_allocs(16, 1); // lazy process state (panic hook, thread-locals)
    for p in [64usize, 1024] {
        let added = universe_allocs(p, 1).saturating_sub(universe_allocs(p, 0));
        assert!(
            added <= PER_RANK * p as u64,
            "P = {p}: one hierarchical all-reduce added {added} allocations, {:.1} per rank \
             (bound {PER_RANK})",
            added as f64 / p as f64
        );
    }
}
