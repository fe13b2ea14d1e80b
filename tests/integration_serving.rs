//! Integration test for the serving layer: concurrent clients against a
//! live `tucker_core::Server`, checked end-to-end — results bit-identical
//! to direct execution, every sweep stamped with plan provenance, repeated
//! shapes hitting the plan cache, and admission control surviving a burst.

use std::sync::Arc;
use tucker_core::executor::{hooi_loop, LoopCfg, SeqBackend};
use tucker_core::plan::Planner;
use tucker_core::serve::synthetic_fill;
use tucker_core::sthosvd::hosvd_init_factors;
use tucker_core::{JobOutput, JobResult, JobSpec, ServeCfg, Server, TuckerMeta};
use tucker_tensor::norm::fro_norm_sq;
use tucker_tensor::DenseTensor;

const NRANKS: usize = 8;
const SWEEPS: usize = 2;

fn compress_spec(dims: &[usize], core: &[usize], seed: u64) -> JobSpec {
    JobSpec {
        sweeps: SWEEPS,
        ..JobSpec::compress(dims.to_vec(), core.to_vec(), NRANKS, seed)
    }
}

/// Run the same job the server runs, directly on a fresh sequential
/// backend, and return the per-sweep relative errors.
fn direct_errors(dims: &[usize], core: &[usize], seed: u64) -> Vec<f64> {
    let meta = TuckerMeta::new(dims.to_vec(), core.to_vec());
    let plan = Planner::new(meta.clone(), NRANKS).best_plan();
    let t = DenseTensor::from_fn(meta.input().clone(), |c| synthetic_fill(c, seed));
    let init = hosvd_init_factors(&t, &meta);
    let mut b = SeqBackend::new();
    hooi_loop(
        &mut b,
        &t,
        &meta,
        &plan.tree,
        init,
        fro_norm_sq(&t),
        LoopCfg::exactly(SWEEPS),
    )
    .errors
}

#[test]
fn concurrent_clients_get_bit_exact_batched_answers() {
    const CLIENTS: usize = 4;
    const JOBS_PER_CLIENT: usize = 6;
    let shapes: [(&[usize], &[usize]); 3] = [
        (&[12, 10, 8], &[4, 4, 3]),
        (&[10, 10, 10], &[4, 4, 4]),
        (&[14, 8, 6], &[4, 3, 3]),
    ];

    // Paused start: all clients enqueue their first wave before the worker
    // drains anything, so at least that wave batches deterministically.
    let server = Arc::new(Server::start(ServeCfg {
        start_paused: true,
        ..ServeCfg::default()
    }));
    let handles: Vec<std::thread::JoinHandle<Vec<JobResult>>> = (0..CLIENTS)
        .map(|_| {
            let srv = Arc::clone(&server);
            std::thread::spawn(move || {
                (0..JOBS_PER_CLIENT)
                    .map(|j| {
                        let (dims, core) = shapes[j % shapes.len()];
                        let spec = compress_spec(dims, core, (j % 2) as u64);
                        srv.submit_blocking(spec)
                            .expect("accepting")
                            .wait()
                            .expect("answered")
                    })
                    .collect()
            })
        })
        .collect();
    while server.queued() < CLIENTS {
        std::thread::yield_now();
    }
    server.resume();
    let per_client: Vec<Vec<JobResult>> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let report = Arc::into_inner(server).expect("clients joined").shutdown();

    // Every client saw every answer; none were dropped or rejected.
    assert_eq!(report.jobs as usize, CLIENTS * JOBS_PER_CLIENT);
    assert_eq!(report.rejected, 0);

    // Server answers are bit-identical to running the job directly.
    let expected: Vec<Vec<f64>> = (0..JOBS_PER_CLIENT)
        .map(|j| {
            let (dims, core) = shapes[j % shapes.len()];
            direct_errors(dims, core, (j % 2) as u64)
        })
        .collect();
    for results in &per_client {
        for (j, r) in results.iter().enumerate() {
            let JobOutput::Compressed {
                errors, per_sweep, ..
            } = &r.output
            else {
                panic!("compress job answered with a non-compress output");
            };
            assert_eq!(errors.len(), SWEEPS);
            for (a, b) in errors.iter().zip(&expected[j]) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "server result must be bit-identical to direct execution"
                );
            }
            // Every sweep carries provenance naming the plan it ran under.
            for s in per_sweep {
                let prov = s.provenance.as_ref().expect("sweep must be stamped");
                assert_eq!(prov.plan, r.plan);
            }
        }
    }

    // The first paused wave is identical across clients: batching and
    // coalescing must both have happened.
    assert!(
        report.multi_job_batches >= 1,
        "paused first wave must form a multi-job batch"
    );
    assert!(
        report.coalesced_jobs >= (CLIENTS - 1) as u64,
        "identical first-wave jobs must coalesce ({} coalesced)",
        report.coalesced_jobs
    );
    assert!(
        report.executed_sweeps < report.requested_sweeps,
        "coalescing must save executed sweeps"
    );

    // Three shapes, one model: exactly three plan searches, the rest hits.
    assert_eq!(report.cache.misses, 3);
    assert_eq!(
        report.cache.hits,
        report.jobs - 3,
        "every repeated shape must hit the plan cache"
    );
    assert!(report.cache.hit_rate() > 0.5);
}

#[test]
fn burst_past_queue_depth_is_rejected_not_lost() {
    let server = Server::start(ServeCfg {
        queue_depth: 4,
        start_paused: true,
        ..ServeCfg::default()
    });
    let dims = [10usize, 8, 6];
    let core = [4usize, 3, 3];
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for seed in 0..12u64 {
        match server.submit(compress_spec(&dims, &core, seed)) {
            Ok(t) => tickets.push(t),
            Err(tucker_core::SubmitError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert_eq!(tickets.len(), 4, "queue admits exactly queue_depth jobs");
    assert_eq!(rejected, 8);
    server.resume();
    for t in tickets {
        let r = t.wait().expect("answered");
        assert!(matches!(r.output, JobOutput::Compressed { .. }));
    }
    let report = server.shutdown();
    assert_eq!(report.jobs, 4);
    assert_eq!(report.rejected, 8);
    assert_eq!(report.queue_depth_hwm, 4);
}

/// `nranks ≤ ∏ K_n` is not enough for a grid: 7 ranks on a `[4, 4, 4]` core
/// need `∏ q_n = 7` with every `q_n ≤ 4`, and 7 is a prime above 4. The job
/// is refused at submission, and the server keeps serving the next one.
#[test]
fn a_rank_count_with_no_grid_is_invalid_and_the_server_keeps_serving() {
    let server = Server::start(ServeCfg::default());
    let bad = JobSpec::compress(vec![8, 8, 8], vec![4, 4, 4], 7, 1);
    match server.submit(bad) {
        Err(tucker_core::SubmitError::Invalid(why)) => assert!(why.contains("nranks 7"), "{why}"),
        Err(e) => panic!("7 ranks on K = [4, 4, 4] must be invalid, got {e}"),
        Ok(_) => panic!("7 ranks on K = [4, 4, 4] must be invalid, got admitted"),
    }
    let good = JobSpec::compress(vec![8, 8, 8], vec![4, 4, 4], 8, 1);
    let r = server
        .submit(good)
        .expect("admitted")
        .wait()
        .expect("answered");
    assert!(matches!(r.output, JobOutput::Compressed { .. }));
    let report = server.shutdown();
    assert_eq!((report.jobs, report.worker_panics), (1, 0));
}

/// The worker's joint DP holds `3^N` states: a 14-mode job (every other
/// check passes, and the mode count is under the planner's 16) would have it
/// allocate gigabytes of tables. Its table bytes must refuse it at
/// submission, and the server keeps serving the next job.
#[test]
fn a_job_whose_plan_tables_exceed_the_budget_is_invalid_and_the_server_keeps_serving() {
    let server = Server::start(ServeCfg::default());
    let bad = JobSpec::compress(vec![2; 14], vec![1; 14], 1, 7);
    match server.submit(bad) {
        Err(tucker_core::SubmitError::Invalid(why)) => {
            assert!(why.contains("planning 14 modes"), "{why}");
        }
        Err(e) => panic!("a 14-mode job must be invalid, got {e}"),
        Ok(_) => panic!("a 14-mode job must be invalid, got admitted"),
    }
    let good = JobSpec::compress(vec![8, 8, 8], vec![4, 4, 4], 8, 1);
    let r = server
        .submit(good)
        .expect("admitted")
        .wait()
        .expect("answered");
    assert!(matches!(r.output, JobOutput::Compressed { .. }));
    let report = server.shutdown();
    assert_eq!((report.jobs, report.worker_panics), (1, 0));
}

/// The worker plans every job with the joint DP, which stops at 16 modes. A
/// 17-mode job passes every other check (shapes, size, `K ≤ L`, a grid), so
/// the mode count itself must refuse it at submission, and the server keeps
/// serving the next job.
#[test]
fn a_mode_count_above_the_planner_limit_is_invalid_and_the_server_keeps_serving() {
    let server = Server::start(ServeCfg::default());
    let bad = JobSpec::compress(vec![2; 17], vec![1; 17], 1, 7);
    match server.submit(bad) {
        Err(tucker_core::SubmitError::Invalid(why)) => assert!(why.contains("17 modes"), "{why}"),
        Err(e) => panic!("a 17-mode job must be invalid, got {e}"),
        Ok(_) => panic!("a 17-mode job must be invalid, got admitted"),
    }
    let good = JobSpec::compress(vec![8, 8, 8], vec![4, 4, 4], 8, 1);
    let r = server
        .submit(good)
        .expect("admitted")
        .wait()
        .expect("answered");
    assert!(matches!(r.output, JobOutput::Compressed { .. }));
    let report = server.shutdown();
    assert_eq!((report.jobs, report.worker_panics), (1, 0));
}
