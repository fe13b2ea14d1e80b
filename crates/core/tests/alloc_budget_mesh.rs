//! What a simulated rank may cost the allocator, and how often a universe
//! runs a replicated EVD.
//!
//! A rank re-derives its block geometry — shapes, grid coordinates, block
//! intersections, strided views — for every TTM, regrid and Gram of every
//! sweep. Those index vectors live inline (`tucker_tensor::Dims`), so what is
//! left on the heap is payloads, blocks and factors: a P = 64 virtual-time
//! request allocated 225 540 times before and has to stay under 60 000 now.
//! And every rank holds the same all-reduced Gram at every leaf, so the
//! universe computes each truncation once (`RankCtx::leading_from_gram`).
//!
//! The allocation counter is process-wide (rank bodies run on mesh worker
//! threads), so the tests of this binary take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use tucker_core::engine::{DistRun, EngineConfig, MeshHooiOutput};
use tucker_core::serve::synthetic_fill;
use tucker_core::TuckerMeta;
use tucker_distsim::{MeshCfg, NetModel, Universe};
use tucker_linalg::{leading_from_gram, Matrix};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static TURN: Mutex<()> = Mutex::new(());

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

const P: usize = 64;
const SWEEPS: usize = 2;

/// One `cluster-virtual`-shaped request (`tucker_suite::driver::scaling_meta`,
/// BG/Q virtual clock, no core gather) on one worker: the deterministic
/// schedule, so the counts below repeat exactly.
fn request() -> (MeshHooiOutput, TuckerMeta) {
    let meta = TuckerMeta::new([16, 12, 12, 10, 10], [8, 8, 8, 6, 6]);
    let cfg = EngineConfig {
        gather_core: false,
        ..EngineConfig::virtual_time(NetModel::bgq())
    };
    let out = DistRun::new(&meta, P, SWEEPS)
        .config(cfg)
        .workers(1)
        .run(|c| synthetic_fill(c, 7));
    (out, meta)
}

#[test]
fn a_mesh_request_stays_inside_its_allocation_budget() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let _ = request(); // lazy process state (panic hook, thread-locals)
    let before = ALLOCS.load(Ordering::Relaxed);
    let (out, _) = request();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(out.per_sweep.len(), SWEEPS);
    assert!(
        allocs <= 60_000,
        "P = {P}, {SWEEPS} sweeps allocated {allocs} times (budget 60 000; 225 540 before index \
         vectors moved off the heap)"
    );
}

#[test]
fn a_universe_computes_each_replicated_evd_once() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (out, meta) = request();
    // One truncation per mode for the HOSVD init, one per leaf and sweep.
    let per_rank = (meta.order() + meta.order() * SWEEPS) as u64;
    assert_eq!(out.evd_computed, per_rank, "one worker: never a duplicate");
    assert_eq!(out.evd_computed + out.evd_reused, P as u64 * per_rank);
}

#[test]
fn a_differing_gram_is_computed_and_a_reused_one_is_charged() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // A 96 x 96 Gram with a decaying spectrum; rank 3's copy differs in one
    // bit of one entry.
    let (l, k, odd) = (96usize, 24usize, 3usize);
    let base = Matrix::from_fn(l, 2 * l, |i, j| {
        ((i * 37 + j * 11) % 23) as f64 / (1.0 + j as f64) - 0.4
    });
    let gram = Matrix::from_fn(l, l, |i, j| {
        (0..2 * l).map(|c| base[(i, c)] * base[(j, c)]).sum::<f64>()
    });
    let mut perturbed = gram.clone();
    perturbed[(5, 5)] = f64::from_bits(gram[(5, 5)].to_bits() + 1);
    let mesh = MeshCfg {
        workers: 1,
        ..MeshCfg::default()
    };
    let out = Universe::run_mesh(6, &mesh, |ctx| {
        let mine = if ctx.rank() == odd { &perturbed } else { &gram };
        let t0 = ctx.cpu_clock();
        let u = ctx.leading_from_gram(mine, k);
        (u, ctx.cpu_clock().saturating_sub(t0))
    });
    assert_eq!(
        out.evd_computed, 2,
        "rank 0 for the universe, rank {odd} for itself"
    );
    assert_eq!(out.evd_reused, 4);
    let results = out.into_results().results;
    let expect = leading_from_gram(&gram, k).u;
    let expect_odd = leading_from_gram(&perturbed, k).u;
    for (r, (u, _)) in results.iter().enumerate() {
        let want = if r == odd { &expect_odd } else { &expect };
        assert_eq!(u.as_slice(), want.as_slice(), "rank {r}");
    }
    // A reusing rank's CPU clock advanced by what the EVD cost rank 0 — which
    // is all but a sliver of what rank 0's own clock saw around the call.
    let computed = results[0].1;
    assert!(computed > Duration::ZERO);
    for r in [1, 2, 4, 5] {
        assert!(
            2 * results[r].1 >= computed,
            "rank {r} was charged {:?} for an EVD that cost {computed:?}",
            results[r].1
        );
    }
}
