//! Recovery integration tests (DESIGN.md §9): the mesh engine must survive
//! an injected mid-sweep rank failure — quarantine, re-plan on the
//! survivors, redistribute live blocks, resume — and land within float
//! noise of a from-scratch run on the survivor grid, while a paper-scale
//! mesh run must multiplex its ranks over a bounded worker pool instead of
//! spawning one OS thread per rank.

use std::collections::HashMap;
use std::sync::Mutex;
use tucker_core::engine::{run_distributed_hooi_mesh, EngineConfig, FailurePolicy, InjectedFault};
use tucker_core::plan::cost::NetCostModel;
use tucker_core::plan::{Planner, SearchBudget};
use tucker_core::TuckerMeta;
use tucker_distsim::block::rank_region;
use tucker_distsim::{process_thread_count, MeshCfg, NetModel};

/// Smooth deterministic field with simple Gram spectra (the engine test
/// field, restated here: integration tests build only on public APIs).
fn field(c: &[usize]) -> f64 {
    let mut s = 0.0;
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for (i, &x) in c.iter().enumerate() {
        s += (0.9 + 0.13 * i as f64) * x as f64;
        h = (h ^ (x as u64).wrapping_mul(0xff51_afd7_ed55_8ccd))
            .rotate_left(31)
            .wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    }
    let noise = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    (0.21 * s).sin() + 0.5 * (0.043 * s * s).cos() + 0.05 * noise
}

#[test]
fn recovered_run_matches_from_scratch_survivor_run() {
    // Kill rank 5 of 8 two leaves into sweep 1 (of 3). 7 survivors factor
    // badly for the [4,4,4] core (7 is prime and > 4), so recovery must
    // also shrink to the largest usable rank count before re-planning.
    let meta = TuckerMeta::new([12, 12, 12], [4, 4, 4]);
    let cfg = EngineConfig {
        on_failure: FailurePolicy::recover(),
        ..EngineConfig::virtual_time(NetModel::bgq())
    };
    let fault = InjectedFault {
        rank: 5,
        sweep: 1,
        after_leaves: 2,
    };
    let out = run_distributed_hooi_mesh(field, &meta, 8, 3, &cfg, &MeshCfg::default(), Some(fault));

    assert_eq!(out.recoveries.len(), 1, "exactly one recovery round");
    let ev = &out.recoveries[0];
    assert_eq!(ev.dead_ranks, vec![5]);
    assert_eq!(ev.survivors, 6, "7 survivors shrink to 6 (no valid 7-grid)");
    assert!(
        ev.reused_elements > 0,
        "live blocks must seed the new epoch"
    );
    assert_eq!(out.per_sweep.len(), 3);
    assert_eq!(out.epoch_volumes.len(), 2, "aborted epoch + resumed epoch");

    // Differential: a from-scratch run on the survivor count, same total
    // sweep budget. HOOI's math is grid-independent and the resume seeds
    // from bit-exact checkpointed factors, so the recovered trajectory may
    // differ from the clean one only by summation-order ulps.
    let clean = run_distributed_hooi_mesh(
        field,
        &meta,
        ev.survivors,
        3,
        &cfg,
        &MeshCfg::default(),
        None,
    );
    let recovered_err = out.per_sweep.last().unwrap().error;
    let clean_err = clean.per_sweep.last().unwrap().error;
    assert!(
        (recovered_err - clean_err).abs() < 1e-10,
        "recovered {recovered_err} vs from-scratch {clean_err}"
    );

    // Sweeps committed before the failure keep the virtual comm clocks they
    // measured under the original 8-rank grid — recovery must not re-price
    // history under the survivor plan.
    let full = run_distributed_hooi_mesh(field, &meta, 8, 1, &cfg, &MeshCfg::default(), None);
    assert_eq!(
        out.per_sweep[0].comm_wall, full.per_sweep[0].comm_wall,
        "pre-failure virtual clocks must be preserved"
    );
    assert_eq!(
        out.per_sweep[0].error.to_bits(),
        full.per_sweep[0].error.to_bits()
    );
}

#[test]
fn recovery_regenerates_exactly_the_dead_block_element_for_element() {
    // Kill the last of 8 ranks: under the 2×2×2 initial grid its block — the
    // gap the survivors must re-materialize — starts at a non-zero
    // coordinate in every mode. The generator is the witness: it counts the
    // calls per global coordinate, and the values it returns are the input.
    let meta = TuckerMeta::new([12, 10, 14], [4, 4, 4]);
    let cfg = EngineConfig {
        on_failure: FailurePolicy::recover(),
        ..EngineConfig::virtual_time(NetModel::bgq())
    };
    let dead_rank = 7;
    let plan = Planner::new(meta.clone(), 8).best_plan_with(
        &NetCostModel::new(NetModel::bgq(), 8),
        &SearchBudget::winner_only(),
    );
    let dead = rank_region(meta.input(), &plan.grids.initial, dead_rank);
    assert!(
        dead.start.iter().all(|&s| s > 0),
        "the dead block must be interior on every mode, got {dead:?}"
    );

    let calls: Mutex<HashMap<Vec<usize>, u32>> = Mutex::new(HashMap::new());
    let counted = |c: &[usize]| {
        *calls.lock().unwrap().entry(c.to_vec()).or_default() += 1;
        field(c)
    };
    let fault = InjectedFault {
        rank: dead_rank,
        sweep: 1,
        after_leaves: 1,
    };
    let out =
        run_distributed_hooi_mesh(counted, &meta, 8, 3, &cfg, &MeshCfg::default(), Some(fault));
    assert_eq!(out.recoveries.len(), 1);
    let ev = &out.recoveries[0];
    assert_eq!(ev.dead_ranks, vec![dead_rank]);

    // Element for element: every coordinate was generated once by the first
    // epoch; the recovery generated the dead block's coordinates once more —
    // all of them, nothing else, none twice — and served the rest from live
    // blocks.
    let calls = calls.into_inner().unwrap();
    let total = meta.input().cardinality();
    assert_eq!(calls.len(), total);
    for c in meta.input().coords() {
        assert_eq!(calls[&c], 1 + dead.contains(&c) as u32, "coordinate {c:?}");
    }
    assert_eq!(
        ev.reused_elements as usize,
        total - dead.cardinality(),
        "everything outside the gap comes from live blocks"
    );

    // And the regenerated values landed where they belong: the recovered
    // trajectory equals a from-scratch survivor run to summation-order ulps
    // (one misplaced element would move the error by many orders more).
    let clean = run_distributed_hooi_mesh(
        field,
        &meta,
        ev.survivors,
        3,
        &cfg,
        &MeshCfg::default(),
        None,
    );
    let recovered_err = out.per_sweep.last().unwrap().error;
    let clean_err = clean.per_sweep.last().unwrap().error;
    assert!(
        (recovered_err - clean_err).abs() < 1e-10,
        "recovered {recovered_err} vs from-scratch {clean_err}"
    );
}

#[test]
fn abort_policy_is_fail_stop() {
    let meta = TuckerMeta::new([8, 8, 8], [3, 3, 3]);
    let fault = InjectedFault {
        rank: 1,
        sweep: 0,
        after_leaves: 0,
    };
    let res = std::panic::catch_unwind(|| {
        run_distributed_hooi_mesh(
            field,
            &meta,
            4,
            1,
            &EngineConfig::default(),
            &MeshCfg::default(),
            Some(fault),
        )
    });
    assert!(res.is_err(), "Abort must re-raise the rank failure");
}

#[test]
fn paper_scale_mesh_runs_8192_ranks_without_8192_threads() {
    // P = 8192 ranks as mailboxes/fibers over min(host_cores, K) workers:
    // the process must never hold anywhere near 8192 OS threads. A watcher
    // thread samples the peak thread count while the sweep runs. The count is
    // the whole process's, so the kernels' shared team is brought into
    // existence before the baseline: a sibling test of this binary may
    // otherwise build it (`os_threads() − 1` threads) in mid-sample.
    tucker_linalg::Pool::shared();
    let baseline = process_thread_count().expect("procfs available");
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut peak = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                peak = peak.max(process_thread_count().unwrap_or(0));
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            peak
        })
    };

    let meta = TuckerMeta::new([32, 32, 16], [32, 32, 8]);
    let cfg = EngineConfig {
        gather_core: false,
        ..EngineConfig::virtual_time(NetModel::bgq())
    };
    let out = run_distributed_hooi_mesh(field, &meta, 8192, 1, &cfg, &MeshCfg::default(), None);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let peak = watcher.join().unwrap();

    assert!(out.recoveries.is_empty());
    assert_eq!(out.per_sweep.len(), 1);
    assert!(out.per_sweep[0].error.is_finite());
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        out.workers <= host,
        "worker pool ({}) must not exceed host cores ({host})",
        out.workers
    );
    // Peak threads: whatever ran before + the worker pool + this watcher
    // and a small constant of harness threads — nothing scaling with P.
    let bound = baseline + out.workers + 8;
    assert!(
        peak <= bound,
        "peak thread count {peak} exceeds bound {bound} (baseline {baseline}, workers {})",
        out.workers
    );
}
