//! A simulated rank never opens a parallel region: while a P = 8 universe on
//! two mesh workers runs `dist_ttm` over a 64×64×64×8 tensor, the process
//! holds no more threads than it had before plus the two workers — nothing
//! per rank, nothing per call — and the kernels' shared team, which exists
//! throughout, is given nothing to do.
//!
//! This is the only test of the binary on purpose: it samples the *process*
//! thread count and the team's CPU clock, which a sibling test would disturb.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use tucker_distsim::dist_ttm::dist_ttm;
use tucker_distsim::{process_thread_count, DistTensor, Grid, MeshCfg, RankOutcome, Universe};
use tucker_linalg::{Matrix, Pool};
use tucker_tensor::Shape;

/// CPU ticks (user + system) the team's worker threads have used so far.
fn team_cpu_ticks() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| {
            let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
            if !comm.starts_with("tucker-pool") {
                return None;
            }
            let stat = std::fs::read_to_string(task.path().join("stat")).ok()?;
            // Fields after the parenthesised name: state is field 3 of
            // stat(5), so utime (14) and stime (15) are at 11 and 12.
            let rest: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
            Some(rest.get(11)?.parse::<u64>().ok()? + rest.get(12)?.parse::<u64>().ok()?)
        })
        .sum()
}

#[test]
fn dist_ttm_never_fans_out_from_inside_a_rank() {
    const WORKERS: usize = 2;
    // The team exists before anything is counted.
    Pool::shared().run(Pool::shared().width(), |_| {});
    let Some(before) = process_thread_count() else {
        return; // no procfs: nothing to sample
    };
    let team_ticks = team_cpu_ticks();
    let shape = Shape::new(vec![64, 64, 64, 8]);
    let grid = Grid::new(vec![2, 2, 2, 1]);
    let factors: Vec<Matrix> = (0..shape.order())
        .map(|n| {
            let k = shape.dim(n) / 4;
            Matrix::from_fn(k, shape.dim(n), |r, c| {
                ((r * 13 + c * 7) % 31) as f64 / 31.0 - 0.5
            })
        })
        .collect();
    let mesh = MeshCfg {
        workers: WORKERS,
        ..MeshCfg::default()
    };

    let stop = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(process_thread_count().unwrap_or(0), Ordering::Relaxed);
                std::thread::yield_now();
            }
        });
        let out = Universe::run_mesh(grid.nranks(), &mesh, |ctx| {
            let t = DistTensor::from_global_fn(ctx, &shape, &grid, |c| {
                (c.iter().sum::<usize>() % 17) as f64 - 8.0
            });
            // Every mode: mode 0 is the column-split GEMM, the middle modes
            // the slab split, the last the row split — each of them a
            // parallel region when the heuristic is left to decide.
            let mut checksum = 0.0;
            for _ in 0..3 {
                for (n, f) in factors.iter().enumerate() {
                    checksum += dist_ttm(ctx, &t, n, f).local().as_slice()[0];
                }
            }
            checksum
        });
        stop.store(true, Ordering::Relaxed);
        out
    });
    assert!(out
        .results
        .iter()
        .all(|r| matches!(r, RankOutcome::Ok(c) if c.is_finite())));

    // `before` + the sampler + the mesh workers.
    let bound = before + 1 + WORKERS;
    let peak = peak.into_inner();
    assert!(
        peak <= bound,
        "peak thread count {peak} exceeds {bound}: a rank spawned threads \
         ({before} threads before, {WORKERS} mesh workers)"
    );
    // 96 rank-level TTMs, ~0.6 Gflop in all: had the ranks opened regions,
    // the team's workers would have done about half of that work.
    let team_ticks = team_cpu_ticks() - team_ticks;
    assert!(
        team_ticks <= 1,
        "the team's workers used {team_ticks} CPU ticks: a rank opened a parallel region"
    );
}
