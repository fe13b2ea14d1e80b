//! The four artifacts timed on the host's own clock: `kernels`, `backends`,
//! `serve`, `views`. Their seconds, ratios of seconds, machine width and
//! scheduler-dependent counters are `host`; shapes, byte ledgers, errors and
//! bit-equality flags are `model`; roundoff differences are `bounded`.
//!
//! A timing gate scales with the host: a single core cannot exhibit a
//! parallel or cache effect reliably (an explicit skip, never a vacuous
//! pass), two or three cores must show the direction, four or more the size.

use super::{problem_header, Opts};
use crate::artifact::{secs, Artifact, Fix, Gate, Gates, Obj, Sci};
use tucker_core::TuckerMeta;
use tucker_suite::fields::hash_noise;

fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut ts: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    ts.sort_by(f64::total_cmp);
    ts[reps / 2]
}

// ---------------------------------------------------------------- Kernels

/// One tensor shape of the kernel ablation: `(dims, rows of every factor,
/// timed repetitions per arm)`.
pub type KernelShape = ([usize; 3], usize, usize);

/// The small shape fits in L2; the large one (~35 MB) busts every cache
/// level, which is where packing pays and where the fresh-allocation chain
/// pays page faults the warm workspace avoids. The skinny shape's middle
/// mode has contiguous inner extent 6 — the 1 < inner < 16 gap served by the
/// slab-grouped small-inner packed path.
const KERNEL_SHAPES: [KernelShape; 3] = [
    ([48, 40, 36], 12, 21),
    ([192, 160, 144], 32, 5),
    ([6, 96, 80], 16, 21),
];

/// Gram orders `(L, K)` of the eigensolver table: the ones the workloads
/// produce.
const EVD_CASES: [(usize, usize); 6] = [(10, 6), (16, 8), (32, 8), (64, 16), (160, 32), (256, 32)];

pub(super) fn kernels(_: &Opts) -> (Artifact, Gate) {
    kernels_on(&KERNEL_SHAPES, &EVD_CASES)
}

/// Kernel ablation: the packed, cache-blocked micro-kernels of
/// `tucker_linalg::pack` against the unrolled naive references, per mode,
/// for GEMM (factor x unfold), SYRK (Gram of the unfold), and TTM, plus the
/// warm `TtmWorkspace` chain vs fresh allocation per shape, plus the time,
/// residual and orthogonality of the selected-eigenpair eigensolver. Both
/// arms of every packed/naive pair run the same code path except for the kernel
/// dispatch (flipped via [`tucker_linalg::set_kernel_mode`]) and the same
/// worker budget, so the speedup isolates the kernel effect (schema
/// `tucker-bench/kernels/v2`).
///
/// The gates (`kernels_packed_beats_naive`): per family, the best mode on the
/// cache-busting shape beats naive (>= 1.3x on >= 4 cores); the small-inner
/// TTM beats naive; the warm workspace chain beats fresh allocation where the
/// buffers outgrow the cache; every EVD row meets residual and orthogonality
/// `<= 1e-13`.
pub fn kernels_on(shapes: &[KernelShape], evd_cases: &[(usize, usize)]) -> (Artifact, Gate) {
    use std::hint::black_box;
    use tucker_linalg::{
        gemm, gemm_into, set_kernel_mode, sym_evd_leading, syrk, syrk_into, KernelMode, Matrix,
        Transpose, Transpose::No,
    };
    use tucker_tensor::{ttm, ttm_into_threads, unfold, DenseTensor, TtmWorkspace};

    /// Median time of `f` under each kernel mode: (naive_s, packed_s).
    fn both_modes(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
        set_kernel_mode(KernelMode::Naive);
        let naive = median_secs(reps, &mut f);
        set_kernel_mode(KernelMode::Packed);
        let packed = median_secs(reps, &mut f);
        set_kernel_mode(KernelMode::Auto);
        (naive, packed)
    }

    let host_cores = tucker_tensor::host_threads();
    let isa = tucker_linalg::kernel_isa();
    println!("== Kernels: packed vs naive ablation ({host_cores} cores, {isa} kernels) ==");
    let mut gates = Gates::default();
    let floor = if host_cores >= 4 { 1.3 } else { 1.0 };

    let mut shape_docs = Vec::new();
    let mut best_chain = 0.0f64;
    for &(dims, rank, reps) in shapes {
        // Which gates read this shape: the ones about leaving the cache, the
        // one about the small-inner TTM path.
        let busts_cache = dims.iter().product::<usize>() * 8 > 16 << 20;
        let small_inner = (2..16).contains(&dims[0]);
        let label = format!("{}x{}x{}", dims[0], dims[1], dims[2]);
        println!("-- shape {label}, rank {rank}, median of {reps} --");
        let t = DenseTensor::from_fn(dims, |c| hash_noise(c, 0xFACE));
        let factors: Vec<Matrix> = (0..3)
            .map(|n| Matrix::from_fn(rank, dims[n], |i, j| hash_noise(&[n, i, j], 0xD00D)))
            .collect();

        // Per family: (rows of the document, best speedup over the modes).
        let mut families = [
            ("gemm", Vec::new(), 0.0f64),
            ("syrk", Vec::new(), 0.0),
            ("ttm", Vec::new(), 0.0),
        ];
        for (mode, f) in factors.iter().enumerate() {
            // GEMM: the mode-n factor applied to the explicit unfold — a
            // plain K x I_n x (prod others) matrix multiply.
            let u = unfold(&t, mode);
            let mut c = Matrix::zeros(rank, u.shape().1);
            let gemm_s = both_modes(reps, || {
                gemm_into(black_box(f), No, black_box(&u), No, 1.0, 0.0, &mut c);
                black_box(&mut c);
            });
            // SYRK: Gram of the unfold (the factor-update left operand).
            let mut g = Matrix::zeros(dims[mode], dims[mode]);
            let syrk_s = both_modes(reps, || {
                syrk_into(black_box(&u), 1.0, 0.0, &mut g);
                black_box(&mut g);
            });
            // TTM: the blocked slab-wise kernel, one worker in both arms.
            let mut out = Vec::new();
            let ttm_s = both_modes(reps, || {
                ttm_into_threads(black_box(&t), mode, black_box(f), &mut out, 1);
                black_box(&mut out);
            });
            for ((name, rows, best), (naive, packed)) in
                families.iter_mut().zip([gemm_s, syrk_s, ttm_s])
            {
                println!(
                    "   {name} mode {mode}: naive {:>10.1}us  packed {:>10.1}us  speedup {:>5.2}x",
                    naive * 1e6,
                    packed * 1e6,
                    naive / packed
                );
                gates.check(naive > 0.0 && packed > 0.0, || {
                    format!("{label} {name} mode {mode}: an arm measured no time")
                });
                *best = best.max(naive / packed);
                rows.push(
                    Obj::new()
                        .model("mode", mode)
                        .host("naive_s", secs(naive))
                        .host("packed_s", secs(packed))
                        .host("speedup", Fix(naive / packed, 4)),
                );
            }
        }

        // Full 3-mode chain under the production Auto dispatch: fresh
        // allocating ttm() per step vs warm workspace.
        let ops: Vec<(usize, &Matrix)> = factors.iter().enumerate().collect();
        let fresh = median_secs(reps, || {
            let mut cur = ttm(&t, ops[0].0, ops[0].1);
            for &(n, a) in &ops[1..] {
                cur = ttm(&cur, n, a);
            }
            black_box(cur);
        });
        let mut ws = TtmWorkspace::new();
        let warm = ws.ttm_chain(&t, &ops); // warm the pool
        ws.recycle(warm);
        let pooled = median_secs(reps, || {
            let z = ws.ttm_chain(&t, &ops);
            ws.recycle(black_box(z));
        });
        let chain = fresh / pooled;
        println!(
            "   ttm-chain (3 modes): fresh {:>10.1}us  workspace {:>10.1}us  speedup {:>5.2}x",
            fresh * 1e6,
            pooled * 1e6,
            chain
        );
        best_chain = best_chain.max(chain);

        for (name, _, best) in &families {
            // Per family, its best mode: the cache-busting shape must show
            // the size of the win on a wide host, the small-inner TTM its
            // direction.
            let gated = host_cores >= 2 && (busts_cache || (small_inner && *name == "ttm"));
            let need = if busts_cache { floor } else { 1.0 };
            gates.check(!gated || (*best > 1.0 && *best >= need), || {
                format!(
                    "packed {name} only {best:.2}x over naive on {label} \
                     ({host_cores} host cores, need > 1 and >= {need:.1})"
                )
            });
        }
        // The small shape is allowed to be a wash, the large one is not.
        gates.check(!busts_cache || chain > 1.0, || {
            format!("warm workspace chain only {chain:.2}x over fresh allocation on {label}")
        });

        let [gemm_rows, syrk_rows, ttm_rows] = families.map(|(_, rows, _)| rows);
        shape_docs.push(
            Obj::new()
                .model_list("shape", dims)
                .model("rank", rank)
                .model("reps", reps)
                .rows("gemm", gemm_rows)
                .rows("syrk", syrk_rows)
                .rows("ttm", ttm_rows)
                .obj(
                    "ttm_chain",
                    Obj::new()
                        .host("fresh_s", secs(fresh))
                        .host("workspace_s", secs(pooled))
                        .host("speedup", Fix(chain, 4)),
                ),
        );
    }
    gates.check(best_chain > 1.05, || {
        format!("warm workspace chain at best {best_chain:.2}x over fresh allocation")
    });

    // EVD: the selected-eigenpair solver behind every `leading_from_gram`,
    // on the Gram orders the workloads produce. Each sample times a batch and
    // the row reports the best, so a slow phase of the host cannot count.
    const EVD_BOUND: f64 = 1e-13;
    println!("-- evd: selected (k leading pairs), best of 15 --");
    let mut evd_rows = Vec::new();
    for &(l, k) in evd_cases {
        // Gram of an l x 4l noise matrix whose columns decay geometrically.
        let b = Matrix::from_fn(l, 4 * l, |i, j| {
            hash_noise(&[i, j], 0xE7D) * 0.9f64.powi((j % l) as i32)
        });
        let g = syrk(&b);
        // Small orders finish in microseconds: time a batch per sample.
        let inner = (200_000 / (l * l * l)).max(1);
        let mut selected_s = f64::INFINITY;
        for _ in 0..15 {
            let t0 = std::time::Instant::now();
            for _ in 0..inner {
                black_box(sym_evd_leading(black_box(g.clone()), k));
            }
            selected_s = selected_s.min(t0.elapsed().as_secs_f64() / inner as f64);
        }
        let selected = sym_evd_leading(g.clone(), k);
        let u = &selected.eigenvectors;
        // max |UᵀU − I| and max |G·U − U·Λ| / ‖G‖_F of the selected pairs.
        let utu = gemm(u, Transpose::Yes, u, No, 1.0);
        let gu = gemm(&g, No, u, No, 1.0);
        let (mut orthogonality, mut residual) = (0.0f64, 0.0f64);
        for j in 0..k {
            for i in 0..k {
                let want = if i == j { 1.0 } else { 0.0 };
                orthogonality = orthogonality.max((utu[(i, j)] - want).abs());
            }
            for i in 0..l {
                residual = residual.max((gu[(i, j)] - selected.eigenvalues[j] * u[(i, j)]).abs());
            }
        }
        residual /= g.fro_norm();
        gates.check(orthogonality <= EVD_BOUND && residual <= EVD_BOUND, || {
            format!(
                "sym_evd_leading({l}, {k}): orthogonality {orthogonality:e}, residual {residual:e}"
            )
        });
        println!(
            "   L={l:>3} K={k:>2}: selected {:>9.1}us  \
             residual {residual:.1e}  orthogonality {orthogonality:.1e}",
            selected_s * 1e6
        );
        evd_rows.push(
            Obj::new()
                .model("l", l)
                .model("k", k)
                .host("selected_s", secs(selected_s))
                .bounded("residual", Sci(residual, 3), EVD_BOUND)
                .bounded("orthogonality", Sci(orthogonality, 3), EVD_BOUND),
        );
    }

    let doc = Obj::new()
        .model("schema", "tucker-bench/kernels/v2")
        .host("host_cores", host_cores)
        .host("isa", isa)
        .host("skipped_single_core", host_cores < 2)
        .rows("shapes", shape_docs)
        .rows("evd", evd_rows);
    (Artifact::Json(doc), gates.finish())
}

// --------------------------------------------------------------- Backends

/// Backend comparison on the kernel-ablation problem: the same
/// `(opt-tree, static)` HOOI schedule executed by the strictly sequential
/// host backend, the rayon shared-memory backend (host cores), and the
/// measured distsim backend. Errors are asserted identical inside the
/// driver; the gate is rayon over seq (schema `tucker-bench/backends/v1`).
pub(super) fn backends(_: &Opts) -> (Artifact, Gate) {
    const DIMS: [usize; 3] = [48, 40, 36];
    const K: usize = 12;
    const SWEEPS: usize = 2;
    const REPS: usize = 7;
    const DIST_RANKS: usize = 4;

    let meta = TuckerMeta::new(DIMS.to_vec(), vec![K; 3]);
    let host_cores = tucker_tensor::host_threads();
    println!(
        "== Backends: seq vs rayon({host_cores} cores) vs distsim(P={DIST_RANKS}) on {meta}, \
         {SWEEPS} sweeps, best of {REPS} ==",
    );
    let mut gates = Gates::default();
    let rows = tucker_suite::driver::backend_lineup(&meta, SWEEPS, REPS, DIST_RANKS);
    for r in &rows {
        println!(
            "   {:>8} (x{:<2}): wall {:>9.1}us  ttm {:>9.1}us  svd {:>9.1}us  error {:.6}",
            r.backend,
            r.threads,
            r.wall_s * 1e6,
            r.ttm_s * 1e6,
            r.svd_s * 1e6,
            r.error
        );
        gates.check(r.wall_s > 0.0 && r.threads >= 1, || {
            format!("{}: measured no time or ran on no thread", r.backend)
        });
    }
    let by_name = |name: &str| {
        let row = rows.iter().find(|r| r.backend == name);
        row.expect("backend_lineup reports seq and rayon")
    };
    let (seq, rayon) = (by_name("seq"), by_name("rayon"));
    let speedup = seq.wall_s / rayon.wall_s;
    let beats = rayon.wall_s < seq.wall_s;
    println!(
        "   rayon vs seq: {speedup:.2}x {} ({host_cores} host cores)",
        if beats { "speedup" } else { "(no gain)" }
    );
    // What the ratio is made of on a problem this small: the price of
    // opening one parallel region, read off a Gram too small to repay it.
    let (one, two) = (trivial_gram_us(1), trivial_gram_us(2));
    println!(
        "   one parallel region costs {:.1}us \
         (8x8x8 mode-1 Gram: {one:.1}us as 1 part, {two:.1}us as 2)",
        two - one
    );
    let need = if host_cores >= 4 { 1.5 } else { 1.0 };
    gates.check(host_cores < 2 || (beats && speedup >= need), || {
        format!(
            "RayonBackend must beat SeqBackend (>= {need:.1}x) on {host_cores} host cores \
             (seq {:.1}us vs rayon {:.1}us = {speedup:.2}x)",
            seq.wall_s * 1e6,
            rayon.wall_s * 1e6
        )
    });
    if host_cores < 2 {
        println!("   (single host core: rayon-vs-seq speedup gate skipped)");
    }

    let doc = problem_header("tucker-bench/backends/v1", &meta)
        .host("host_cores", host_cores)
        .model("sweeps", SWEEPS)
        .model("reps", REPS)
        .rows(
            "rows",
            rows.iter().map(|r| {
                Obj::new()
                    .model("backend", r.backend)
                    .host("threads", r.threads)
                    .host("wall_s", secs(r.wall_s))
                    .host("ttm_s", secs(r.ttm_s))
                    .host("svd_s", secs(r.svd_s))
                    .model("error", Fix(r.error, 12))
            }),
        )
        .host("rayon_speedup_vs_seq", Fix(speedup, 4))
        .host("rayon_beats_seq", beats)
        .host("skipped_single_core", host_cores < 2);
    (Artifact::Json(doc), gates.finish())
}

/// Median wall (µs) of back-to-back `gram_threads` calls on an 8×8×8 tensor
/// split into `parts` (at one part no parallel region is opened, at two
/// exactly one is).
fn trivial_gram_us(parts: usize) -> f64 {
    let t = tucker_tensor::DenseTensor::from_fn([8, 8, 8], |c| hash_noise(c, 0x6AA));
    let call = || {
        std::hint::black_box(tucker_tensor::gram_threads(&t, 1, parts));
    };
    median_secs(501, call) * 1e6
}

// ---------------------------------------------------------------- Serving

/// Serving-layer benchmark: `clients` concurrent synthetic clients each
/// burst-submit a stream of compress jobs over a small set of shapes with
/// repeated seeds, so the server exercises admission control, same-shape
/// batching, seed coalescing and the exact plan cache at once. Client-side
/// latency percentiles and the server's own counters are recorded (schema
/// `tucker-bench/serving/v1`); how the worker happened to cut the stream
/// into batches is the scheduler's, so every counter downstream of it is
/// `host`.
pub(super) fn serve(o: &Opts) -> (Artifact, Gate) {
    use std::sync::Arc;
    use tucker_core::{JobSpec, ServeCfg, Server};

    const JOBS_PER_CLIENT: usize = 8;
    const SWEEPS: usize = 2;
    const SERVE_RANKS: usize = 8;
    let clients = o.clients;
    // Three shapes cycled by every client: only three plan-cache misses
    // total, everything else is a hit; seeds repeat across clients so
    // concurrent identical jobs coalesce into shared executions.
    let shapes: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![12, 10, 8], vec![4, 4, 3]),
        (vec![10, 10, 10], vec![4, 4, 4]),
        (vec![14, 8, 6], vec![4, 3, 3]),
    ];
    let total_jobs = clients * JOBS_PER_CLIENT;
    println!(
        "== Serving: {clients} clients x {JOBS_PER_CLIENT} jobs over {} shapes, \
         {SWEEPS} sweeps, P={SERVE_RANKS} ==",
        shapes.len()
    );

    // Start paused: every client enqueues its first job before the worker
    // wakes, so the first wave — identical across clients — is guaranteed
    // to land in shared batches and coalesce.
    let server = Arc::new(Server::start(ServeCfg {
        return_decompositions: false,
        start_paused: true,
        ..ServeCfg::default()
    }));
    let t0 = std::time::Instant::now();
    let handles: Vec<std::thread::JoinHandle<Vec<f64>>> = (0..clients)
        .map(|_| {
            let srv = Arc::clone(&server);
            let shapes = shapes.clone();
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(JOBS_PER_CLIENT);
                for j in 0..JOBS_PER_CLIENT {
                    // Shape and seed depend on the step only: at any step
                    // every client issues the same request, the serving
                    // pattern batching and coalescing are built for.
                    let (dims, core) = shapes[j % shapes.len()].clone();
                    let spec = JobSpec {
                        sweeps: SWEEPS,
                        ..JobSpec::compress(dims, core, SERVE_RANKS, (j % 4) as u64)
                    };
                    let t = std::time::Instant::now();
                    let ticket = srv.submit_blocking(spec).expect("server is accepting");
                    let _ = ticket.wait().expect("worker alive");
                    latencies.push(t.elapsed().as_secs_f64());
                }
                latencies
            })
        })
        .collect();
    while server.queued() < clients {
        if t0.elapsed().as_secs() > 10 {
            break; // never deadlock the bench on a stuck client
        }
        std::thread::yield_now();
    }
    server.resume();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed = t0.elapsed().as_secs_f64();
    let report = Arc::into_inner(server)
        .expect("all clients joined")
        .shutdown();

    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p / 100.0).round() as usize];
    let (p50, p99) = (pct(50.0), pct(99.0));
    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    let throughput = report.jobs as f64 / elapsed.max(1e-12);

    let mut gates = Gates::default();
    gates.check(report.jobs as usize == total_jobs, || {
        format!(
            "{} of {total_jobs} jobs answered: no job may be dropped",
            report.jobs
        )
    });
    gates.check(report.rejected == 0, || {
        format!(
            "{} jobs rejected by admission control under a blocking submit",
            report.rejected
        )
    });
    gates.check(report.cache.hits > 0, || {
        "repeated same-shape jobs must hit the plan cache".to_string()
    });
    gates.check(report.multi_job_batches >= 1, || {
        "the paused first wave must land in a shared batch".to_string()
    });
    gates.check(report.executed_sweeps < report.requested_sweeps, || {
        format!(
            "coalescing repeated seeds must save sweeps (executed {} vs requested {})",
            report.executed_sweeps, report.requested_sweeps
        )
    });
    gates.check(p50 > 0.0 && throughput > 0.0, || {
        "the clients measured no latency".to_string()
    });

    println!(
        "   latency: p50 {:.2}ms  p99 {:.2}ms  mean {:.2}ms  ({:.1} jobs/s over {:.2}s)",
        p50 * 1e3,
        p99 * 1e3,
        mean * 1e3,
        throughput,
        elapsed
    );
    println!(
        "   batches: {} total, {} multi-job ({} jobs batched, {} coalesced); \
         sweeps executed/requested {}/{}",
        report.batches,
        report.multi_job_batches,
        report.batched_jobs,
        report.coalesced_jobs,
        report.executed_sweeps,
        report.requested_sweeps
    );
    println!(
        "   plan cache: {} hits / {} misses (hit rate {:.1}%); queue hwm {}; \
         workspace hwm {} B; rejected {}",
        report.cache.hits,
        report.cache.misses,
        report.cache.hit_rate() * 100.0,
        report.queue_depth_hwm,
        report.workspace_bytes_hwm,
        report.rejected
    );

    let doc = Obj::new()
        .model("schema", "tucker-bench/serving/v1")
        .model("clients", clients)
        .model("jobs_per_client", JOBS_PER_CLIENT)
        .model("total_jobs", report.jobs)
        .model("sweeps_per_job", SWEEPS)
        .model("nranks", SERVE_RANKS)
        .model("shapes", shapes.len())
        .obj(
            "latency_ms",
            Obj::new()
                .host("p50", Fix(p50 * 1e3, 4))
                .host("p99", Fix(p99 * 1e3, 4))
                .host("mean", Fix(mean * 1e3, 4)),
        )
        .host("throughput_jobs_per_s", Fix(throughput, 3))
        .host("elapsed_s", Fix(elapsed, 6))
        .obj(
            "cache",
            Obj::new()
                .host("hits", report.cache.hits)
                .host("misses", report.cache.misses)
                .host("hit_rate", Fix(report.cache.hit_rate(), 4)),
        )
        .obj(
            "batches",
            Obj::new()
                .host("total", report.batches)
                .host("multi_job", report.multi_job_batches)
                .host("single_job", report.batches - report.multi_job_batches)
                .host("batched_jobs", report.batched_jobs)
                .host("coalesced_jobs", report.coalesced_jobs),
        )
        .host("executed_sweeps", report.executed_sweeps)
        .model("requested_sweeps", report.requested_sweeps)
        .host("rejected", report.rejected)
        .host("queue_depth_hwm", report.queue_depth_hwm)
        .host("workspace_bytes_hwm", report.workspace_bytes_hwm);
    (Artifact::Json(doc), gates.finish())
}

// ------------------------------------------------------------------ Views

/// View-layer benchmark (DESIGN.md §11). Every kernel pair must be
/// bit-identical and no interior view kernel may lose to copy-then-compute
/// (a strided operand can always take the one counted copy instead); the
/// regrid byte ledger must show exactly one copy per block (the seed's
/// staging pass eliminated, saving precisely the self-overlap bytes); the
/// out-of-core arm must match in-core within 1e-10 on a tensor 4x its
/// workspace cap (schema `tucker-bench/views/v1`).
pub(super) fn views(_: &Opts) -> (Artifact, Gate) {
    use tucker_suite::driver::{
        pack_timing_bench, regrid_bytes_bench, view_kernel_bench, views_incremental_bench,
        views_outofcore_bench,
    };
    const OOC_BOUND: f64 = 1e-10;
    const INCREMENTAL_BOUND: f64 = 1e-8;

    let host_cores = tucker_tensor::host_threads();
    println!(
        "== Views: view-native kernels vs extract-then-compute, 64^3 input \
         ({host_cores} host cores) =="
    );
    let mut gates = Gates::default();
    let kernel_rows = view_kernel_bench();
    for r in &kernel_rows {
        println!(
            "   {:>8} {:>4} mode {}: view {:>8.1}us  extract {:>8.1}us  ({:.2}x)",
            r.region,
            r.kind,
            r.mode,
            r.view_s * 1e6,
            r.extract_s * 1e6,
            r.speedup()
        );
        gates.check(r.bitwise_equal, || {
            format!(
                "view-native {} over the {} region (mode {}) must be bit-identical \
                 to extract-then-compute",
                r.kind, r.region, r.mode
            )
        });
        let slow = host_cores >= 2 && r.region == "interior" && r.speedup() < 0.9;
        gates.check(!slow && r.view_s > 0.0 && r.extract_s > 0.0, || {
            format!(
                "view-native {} over the interior region (mode {}) runs at {:.2}x of \
                 extract-then-compute (need >= 0.9x, and both arms must measure time)",
                r.kind,
                r.mode,
                r.speedup()
            )
        });
    }

    let regrid = regrid_bytes_bench();
    println!("   regrid 2x2x1 -> 1x2x2 of 24x18x8 on P=4:");
    println!(
        "      copied bytes {} -> {} (self-overlap {}), wire bytes {}",
        regrid.copy_bytes_wire,
        regrid.copy_bytes_view,
        regrid.self_overlap_bytes,
        regrid.wire_bytes
    );
    gates.check(regrid.max_abs_diff == 0.0 && regrid.wire_bytes > 0, || {
        "view regrid must reproduce the wire regrid exactly".to_string()
    });
    let one_copy_per_block = regrid.copy_bytes_view < regrid.copy_bytes_wire
        && regrid.copy_bytes_wire - regrid.copy_bytes_view == regrid.self_overlap_bytes;
    gates.check(one_copy_per_block, || {
        format!(
            "view regrid must save exactly the self-overlap staging pass \
             ({} -> {} bytes, self-overlap {})",
            regrid.copy_bytes_wire, regrid.copy_bytes_view, regrid.self_overlap_bytes
        )
    });

    let pack = pack_timing_bench();
    gates.check(pack.equal, || {
        "both pack arms must fill identical wire bytes".to_string()
    });
    println!(
        "   interior pack of {} KiB: extract+copy {:.1}us vs one view copy {:.1}us ({:.2}x)",
        pack.bytes / 1024,
        pack.extract_pack_s * 1e6,
        pack.view_pack_s * 1e6,
        pack.speedup()
    );
    gates.check(host_cores < 4 || pack.speedup() >= 1.2, || {
        format!(
            "one-pass view pack must be >=1.2x over extract-then-pack on \
             {host_cores} host cores (got {:.2}x)",
            pack.speedup()
        )
    });
    if host_cores < 2 {
        println!("   (single host core: timing gates skipped)");
    }

    let ooc = views_outofcore_bench();
    let ooc_delta = (ooc.err_incore - ooc.err_outofcore).abs();
    println!(
        "   out-of-core {:?} -> {:?} (tile {}, cap {} KiB of {} KiB): \
         err {:.6} vs in-core {:.6} (|delta| {:.1e}), {:.1}ms vs {:.1}ms, pool {} KiB",
        ooc.dims,
        ooc.ranks,
        ooc.tile_len,
        ooc.limit_bytes / 1024,
        ooc.tensor_bytes / 1024,
        ooc.err_outofcore,
        ooc.err_incore,
        ooc_delta,
        ooc.outofcore_s * 1e3,
        ooc.incore_s * 1e3,
        ooc.pooled_bytes / 1024
    );
    gates.check(ooc.tensor_bytes >= 2 * ooc.limit_bytes, || {
        "the out-of-core tensor must exceed the workspace cap at least 2x".to_string()
    });
    gates.check(ooc_delta <= OOC_BOUND, || {
        format!("tiled sweeps must match in-core within 1e-10 (got {ooc_delta:.2e})")
    });
    gates.check(ooc.pooled_bytes <= ooc.limit_bytes, || {
        format!(
            "the tile pool must respect the byte cap ({} > {})",
            ooc.pooled_bytes, ooc.limit_bytes
        )
    });

    let inc = views_incremental_bench();
    println!(
        "   incremental {:?} window, {} pushes of {} frame(s): {:.3}s/{} sweeps \
         vs cold {:.3}s/{} sweeps ({:.2}x), max |err delta| {:.1e}",
        inc.window,
        inc.pushes,
        inc.slab_len,
        inc.inc_total_s,
        inc.inc_sweeps,
        inc.full_total_s,
        inc.full_sweeps,
        inc.full_total_s / inc.inc_total_s.max(f64::MIN_POSITIVE),
        inc.max_err_delta
    );
    gates.check(inc.max_err_delta <= INCREMENTAL_BOUND, || {
        format!(
            "incremental Tucker must track cold recompute within 1e-8 (got {:.2e})",
            inc.max_err_delta
        )
    });

    let doc = Obj::new()
        .model("schema", "tucker-bench/views/v1")
        .host("host_cores", host_cores)
        .host("skipped_single_core", host_cores < 2)
        .rows(
            "kernels",
            kernel_rows.iter().map(|r| {
                Obj::new()
                    .model("region", r.region)
                    .model("kind", r.kind)
                    .model("mode", r.mode)
                    .host("view_s", secs(r.view_s))
                    .host("extract_s", secs(r.extract_s))
                    .host("speedup", Fix(r.speedup(), 4))
                    .model("bitwise_equal", r.bitwise_equal)
            }),
        )
        .obj(
            "regrid",
            Obj::new()
                .model("copy_bytes_wire", regrid.copy_bytes_wire)
                .model("copy_bytes_view", regrid.copy_bytes_view)
                .model("self_overlap_bytes", regrid.self_overlap_bytes)
                .model("wire_bytes", regrid.wire_bytes)
                .model("max_abs_diff", Fix(regrid.max_abs_diff, 1))
                .model("one_copy_per_block", one_copy_per_block),
        )
        .obj(
            "pack",
            Obj::new()
                .model("bytes", pack.bytes)
                .host("extract_pack_s", secs(pack.extract_pack_s))
                .host("view_pack_s", secs(pack.view_pack_s))
                .host("speedup", Fix(pack.speedup(), 4))
                .model("equal", pack.equal),
        )
        .obj(
            "outofcore",
            Obj::new()
                .model_list("dims", ooc.dims)
                .model_list("ranks", ooc.ranks)
                .model("tensor_bytes", ooc.tensor_bytes)
                .model("limit_bytes", ooc.limit_bytes)
                .model("pooled_bytes", ooc.pooled_bytes)
                .model("tile_len", ooc.tile_len)
                .model("sweeps", ooc.sweeps)
                .model("err_incore", Fix(ooc.err_incore, 12))
                .model("err_outofcore", Fix(ooc.err_outofcore, 12))
                .bounded("err_delta", Sci(ooc_delta, 3), OOC_BOUND)
                .host("incore_s", secs(ooc.incore_s))
                .host("outofcore_s", secs(ooc.outofcore_s)),
        )
        .obj(
            "incremental",
            Obj::new()
                .model("pushes", inc.pushes)
                .model_list("window", inc.window)
                .model("slab_len", inc.slab_len)
                .host("inc_total_s", secs(inc.inc_total_s))
                .host("full_total_s", secs(inc.full_total_s))
                .model("inc_sweeps", inc.inc_sweeps)
                .model("full_sweeps", inc.full_sweeps)
                .bounded(
                    "max_err_delta",
                    Sci(inc.max_err_delta, 3),
                    INCREMENTAL_BOUND,
                ),
        );
    (Artifact::Json(doc), gates.finish())
}
