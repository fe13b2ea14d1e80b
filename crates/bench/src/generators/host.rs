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
use std::hint::black_box;
use std::time::{Duration, Instant};
use tucker_core::engine::DistRun;
use tucker_core::executor::{hooi_loop, LoopCfg, RayonBackend, SeqBackend, SweepStats};
use tucker_core::plan::{GridStrategy, Planner, TreeStrategy};
use tucker_core::sthosvd::hosvd_init_factors;
use tucker_core::TuckerMeta;
use tucker_linalg::Matrix;
use tucker_suite::fields::{hash_noise, video_field};
use tucker_tensor::subtensor::{extract, Region};
use tucker_tensor::{
    copy_into, gram_threads, tensor_buffer_allocs, view_bytes_copied, DenseTensor, Shape,
    TensorView, TensorViewMut, TtmWorkspace,
};

/// Median wall times of `f(true)` and `f(false)` over `reps` runs each,
/// alternating, so a slow spell of the host lands on both arms of the
/// comparison instead of on one.
fn median_pair_secs(reps: usize, mut f: impl FnMut(bool)) -> (f64, f64) {
    let mut time = |arm: bool| {
        let t0 = Instant::now();
        f(arm);
        t0.elapsed().as_secs_f64()
    };
    let (mut a, mut b): (Vec<f64>, Vec<f64>) = (0..reps).map(|_| (time(true), time(false))).unzip();
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    (a[reps / 2], b[reps / 2])
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

/// The streamed-vs-packed table's tensor: `(dims, rows of each mode's
/// factor, the modes timed, timed repetitions per arm)`.
pub type StreamShape = (&'static [usize], &'static [usize], &'static [usize], usize);

/// The `host-skinny5d` workload's full-tensor TTMs that stream: mode 0
/// (K = 8, the tensor streamed as the B side) and the last mode (K = 4,
/// streamed as the A side). Mode 1 (K = 6 > `NR`) is packed on every host
/// and has no streamed kernel to time.
const STREAM_SHAPE: StreamShape = (&[32, 24, 32, 24, 16], &[8, 6, 8, 6, 4], &[0, 4], 9);

pub(super) fn kernels(_: &Opts) -> (Artifact, Gate) {
    kernels_on(&KERNEL_SHAPES, &EVD_CASES, &STREAM_SHAPE)
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
/// `<= 1e-13`; the streamed and packed arms of every `streamed` row agree
/// bit for bit.
pub fn kernels_on(
    shapes: &[KernelShape],
    evd_cases: &[(usize, usize)],
    stream_shape: &StreamShape,
) -> (Artifact, Gate) {
    use tucker_linalg::{
        gemm, gemm_into, set_kernel_mode, sym_evd_leading, syrk, syrk_into, KernelMode, Transpose,
        Transpose::No,
    };
    use tucker_tensor::{ttm, ttm_into_threads, unfold};

    // A packed/naive pair alternates the two kernel modes rep by rep; its
    // `true` arm is naive.
    let set_mode = |naive: bool| {
        set_kernel_mode(if naive {
            KernelMode::Naive
        } else {
            KernelMode::Packed
        });
    };

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
            let gemm_s = median_pair_secs(reps, |naive| {
                set_mode(naive);
                gemm_into(black_box(f), No, black_box(&u), No, 1.0, 0.0, &mut c);
                black_box(&mut c);
            });
            // SYRK: Gram of the unfold (the factor-update left operand).
            let mut g = Matrix::zeros(dims[mode], dims[mode]);
            let syrk_s = median_pair_secs(reps, |naive| {
                set_mode(naive);
                syrk_into(black_box(&u), 1.0, 0.0, &mut g);
                black_box(&mut g);
            });
            // TTM: the blocked slab-wise kernel, one worker in both arms.
            let mut out = Vec::new();
            let ttm_s = median_pair_secs(reps, |naive| {
                set_mode(naive);
                ttm_into_threads(black_box(&t), mode, black_box(f), &mut out, 1);
                black_box(&mut out);
            });
            set_kernel_mode(KernelMode::Auto);
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
        let mut ws = TtmWorkspace::new();
        let warm = ws.ttm_chain(&t, &ops); // warm the pool
        ws.recycle(warm);
        let (fresh, pooled) = median_pair_secs(reps, |fresh_arm| {
            if fresh_arm {
                let mut cur = ttm(&t, ops[0].0, ops[0].1);
                for &(n, a) in &ops[1..] {
                    cur = ttm(&cur, n, a);
                }
                black_box(cur);
            } else {
                let z = ws.ttm_chain(&t, &ops);
                ws.recycle(black_box(z));
            }
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
            let t0 = Instant::now();
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

    let streamed = streamed_rows(stream_shape, &mut gates);

    let doc = Obj::new()
        .model("schema", "tucker-bench/kernels/v2")
        .host("host_cores", host_cores)
        .host("isa", isa)
        .host("skipped_single_core", host_cores < 2)
        .rows("shapes", shape_docs)
        .rows("evd", evd_rows)
        .obj("streamed", streamed);
    (Artifact::Json(doc), gates.finish())
}

/// Full-tensor TTMs run on `tucker_linalg::pack` directly, one thread, both
/// ways: packed (the tensor copied block by block into pack panels) and
/// streamed (only the factor packed, the tensor read where it lies). The
/// seconds of each arm are `host`. The arms' bitwise agreement and what the
/// production TTM (`ttm_into_threads`, one part) packs per call are
/// `model`.
fn streamed_rows(&(dims, core, modes, reps): &StreamShape, gates: &mut Gates) -> Obj {
    use tucker_linalg::pack::{self, PackPair};
    use tucker_tensor::ttm_into_threads;

    let t = DenseTensor::from_fn(Shape::new(dims.to_vec()), |c| hash_noise(c, 0x57EA));
    let src = t.as_slice();
    println!("-- streamed vs packed TTM, one thread, median of {reps} --");
    let mut rows = Vec::new();
    for &n in modes {
        let (k, ln) = (core[n], dims[n]);
        let inner: usize = dims[..n].iter().product();
        assert!(
            k <= if inner == 1 { pack::MR } else { pack::NR },
            "mode {n} has no streamed kernel: K = {k}"
        );
        let outer: usize = dims[n + 1..].iter().product();
        let f = Matrix::from_fn(k, ln, |i, j| hash_noise(&[n, i, j], 0xFAC7));
        let a = f.as_slice();
        let mut packs = PackPair::new();
        let mut outs = [vec![0.0; inner * k * outer], vec![0.0; inner * k * outer]];
        let (streamed_s, packed_s) = median_pair_secs(reps, |streamed| {
            let out = &mut outs[usize::from(streamed)];
            out.fill(0.0);
            if streamed {
                let len = pack::packed_factor_len(ln);
                packs.a.ensure(len);
                pack::pack_factor(packs.a.slice_mut(len), k, ln, a, 1, k);
                let fp = packs.a.slice(len);
                if inner == 1 {
                    pack::gemm_streamed_b(k, outer, ln, fp, src, ln, 1.0, out, k);
                } else {
                    for (o, dst) in out.chunks_mut(inner * k).enumerate() {
                        let slab = &src[o * inner * ln..];
                        pack::gemm_streamed_a(inner, k, ln, slab, inner, fp, 1.0, dst, inner);
                    }
                }
            } else if inner == 1 {
                pack::gemm_packed(k, outer, ln, a, 1, k, src, 1, ln, 1.0, out, k, &mut packs);
            } else {
                let len = pack::packed_b_full_len(ln, k);
                packs.b.ensure(len);
                pack::pack_b_full(packs.b.slice_mut(len), ln, k, a, k, 1);
                for (o, dst) in out.chunks_mut(inner * k).enumerate() {
                    let slab = &src[o * inner * ln..];
                    let bp = packs.b.slice(len);
                    pack::gemm_prepacked_b(
                        inner,
                        k,
                        ln,
                        slab,
                        1,
                        inner,
                        bp,
                        1.0,
                        dst,
                        inner,
                        &mut packs.a,
                    );
                }
            }
            black_box(out);
        });
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let equal = bits(&outs[0]) == bits(&outs[1]);
        gates.check(equal, || {
            format!("streamed TTM mode {n} differs from packed in some bit")
        });
        let mut prod = Vec::new();
        let before = tucker_linalg::bytes_packed();
        ttm_into_threads(&t, n, &f, &mut prod, 1);
        let bytes = tucker_linalg::bytes_packed() - before;
        println!(
            "   mode {n} K={k}: packed {:>9.1}us  streamed {:>9.1}us  speedup {:>5.2}x  \
             production packs {bytes} B of {} B",
            packed_s * 1e6,
            streamed_s * 1e6,
            packed_s / streamed_s,
            src.len() * 8
        );
        rows.push(
            Obj::new()
                .model("mode", n)
                .model("k", k)
                .host("packed_s", secs(packed_s))
                .host("streamed_s", secs(streamed_s))
                .host("speedup", Fix(packed_s / streamed_s, 4))
                .model("bitwise_equal", equal)
                .model("bytes_packed", bytes),
        );
    }
    Obj::new()
        .model_list("shape", dims.iter().copied())
        .model("input_bytes", src.len() * 8)
        .model("reps", reps)
        .rows("ttm", rows)
}

// --------------------------------------------------------------- Backends

/// `field` summed over the sweeps, seconds.
fn total(per_sweep: &[SweepStats], field: impl Fn(&SweepStats) -> Duration) -> f64 {
    per_sweep.iter().map(|s| field(s).as_secs_f64()).sum()
}

/// The sweeps of the fastest of `reps` runs by summed sweep wall —
/// min-of-reps is the standard noise-robust figure for comparing backends
/// on a timeshared host (a slow rep only ever means interference, never a
/// faster kernel).
fn fastest(reps: usize, mut run: impl FnMut() -> Vec<SweepStats>) -> Vec<SweepStats> {
    let wall = |per_sweep: &Vec<SweepStats>| total(per_sweep, |s| s.wall);
    (0..reps)
        .map(|_| run())
        .min_by(|a, b| wall(a).total_cmp(&wall(b)))
        .expect("at least one rep")
}

/// Run the three execution backends on one problem: `seq` (strictly
/// sequential host), `rayon` (host cores), and `distsim` (simulated MPI,
/// measured clock, `dist_ranks` ranks), returning `(backend, threads, sweeps)`
/// per backend. All execute the same `(opt-tree, static)` schedule from the
/// same HOSVD init; initialization is excluded on every backend. Their final
/// errors are asserted to agree within 1e-10 — the backend comparison
/// doubles as a differential test.
///
/// # Panics
/// Panics if any two backends disagree on the final error beyond 1e-10.
fn backend_lineup(
    meta: &TuckerMeta,
    sweeps: usize,
    reps: usize,
    dist_ranks: usize,
) -> [(&'static str, usize, Vec<SweepStats>); 3] {
    let fill = |c: &[usize]| hash_noise(c, 0xBAC0);
    let t = DenseTensor::from_fn(meta.input().clone(), fill);
    let input_norm_sq = tucker_tensor::norm::fro_norm_sq(&t);
    let init = hosvd_init_factors(&t, meta);
    let planner = Planner::new(meta.clone(), dist_ranks);
    let plan = planner.plan(TreeStrategy::Optimal, GridStrategy::StaticOptimal);
    let cfg = LoopCfg::exactly(sweeps);
    let error = |per_sweep: &[SweepStats]| per_sweep[per_sweep.len() - 1].error;

    let seq = fastest(reps, || {
        let mut b = SeqBackend::new();
        hooi_loop(
            &mut b,
            &t,
            meta,
            &plan.tree,
            init.clone(),
            input_norm_sq,
            cfg,
        )
        .per_sweep
    });
    let err_seq = error(&seq);

    let rayon_threads = RayonBackend::new().threads();
    let rayon = fastest(reps, || {
        let mut b = RayonBackend::new();
        hooi_loop(
            &mut b,
            &t,
            meta,
            &plan.tree,
            init.clone(),
            input_norm_sq,
            cfg,
        )
        .per_sweep
    });
    let err = error(&rayon);
    assert!(
        (err - err_seq).abs() < 1e-10,
        "rayon error {err} vs seq {err_seq}"
    );

    // Distributed row: same schedule on the measured distsim backend. One
    // run (the simulated universe timeshares the host, reps add no signal).
    let dist = DistRun::of(&plan, sweeps).run(fill).per_sweep;
    let err = error(&dist);
    assert!(
        (err - err_seq).abs() < 1e-10,
        "distsim error {err} vs seq {err_seq}"
    );
    [
        ("seq", 1, seq),
        ("rayon", rayon_threads, rayon),
        ("distsim", dist_ranks, dist),
    ]
}

/// Backend comparison on the kernel-ablation problem: the same
/// `(opt-tree, static)` HOOI schedule executed by the strictly sequential
/// host backend, the rayon shared-memory backend (host cores), and the
/// measured distsim backend. Errors are asserted identical inside
/// [`backend_lineup`]; the gate is rayon over seq (schema
/// `tucker-bench/backends/v1`).
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
    let lineup = backend_lineup(&meta, SWEEPS, REPS, DIST_RANKS);
    let mut rows = Vec::new();
    for (backend, threads, per_sweep) in &lineup {
        let wall_s = total(per_sweep, |s| s.wall);
        let ttm_s = total(per_sweep, |s| s.ttm_compute);
        let svd_s = total(per_sweep, |s| s.svd);
        let error = per_sweep[per_sweep.len() - 1].error;
        println!(
            "   {backend:>8} (x{threads:<2}): wall {:>9.1}us  ttm {:>9.1}us  svd {:>9.1}us  \
             error {error:.6}",
            wall_s * 1e6,
            ttm_s * 1e6,
            svd_s * 1e6,
        );
        gates.check(wall_s > 0.0 && *threads >= 1, || {
            format!("{backend}: measured no time or ran on no thread")
        });
        rows.push(
            Obj::new()
                .model("backend", *backend)
                .host("threads", *threads)
                .host("wall_s", secs(wall_s))
                .host("ttm_s", secs(ttm_s))
                .host("svd_s", secs(svd_s))
                .model("error", Fix(error, 12)),
        );
    }
    let [(_, _, seq), (_, _, rayon), _] = &lineup;
    let (seq_s, rayon_s) = (total(seq, |s| s.wall), total(rayon, |s| s.wall));
    let speedup = seq_s / rayon_s;
    let beats = rayon_s < seq_s;
    println!(
        "   rayon vs seq: {speedup:.2}x {} ({host_cores} host cores)",
        if beats { "speedup" } else { "(no gain)" }
    );
    // What the ratio is made of on a problem this small: the price of
    // opening one parallel region, read off a Gram too small to repay it.
    let (one, two) = trivial_gram_us();
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
            seq_s * 1e6,
            rayon_s * 1e6
        )
    });
    if host_cores < 2 {
        println!("   (single host core: rayon-vs-seq speedup gate skipped)");
    }

    let doc = problem_header("tucker-bench/backends/v1", &meta)
        .host("host_cores", host_cores)
        .model("sweeps", SWEEPS)
        .model("reps", REPS)
        .rows("rows", rows)
        .host("rayon_speedup_vs_seq", Fix(speedup, 4))
        .host("rayon_beats_seq", beats)
        .host("skipped_single_core", host_cores < 2);
    (Artifact::Json(doc), gates.finish())
}

/// Median wall (µs) of `gram_threads` on an 8×8×8 tensor split into one part
/// and into two, the two alternating call by call (at one part no parallel
/// region is opened, at two exactly one is).
fn trivial_gram_us() -> (f64, f64) {
    let t = DenseTensor::from_fn([8, 8, 8], |c| hash_noise(c, 0x6AA));
    let (one, two) = median_pair_secs(501, |one_part| {
        black_box(gram_threads(&t, 1, if one_part { 1 } else { 2 }));
    });
    (one * 1e6, two * 1e6)
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
    let t0 = Instant::now();
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
                    let t = Instant::now();
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
    let host_cores = tucker_tensor::host_threads();
    println!(
        "== Views: view-native kernels vs extract-then-compute, 64^3 input \
         ({host_cores} host cores) =="
    );
    let mut gates = Gates::default();
    let kernels = view_kernels(&mut gates);
    let regrid = regrid_bytes(&mut gates);
    let pack = pack_timing(host_cores, &mut gates);
    if host_cores < 2 {
        println!("   (single host core: timing gates skipped)");
    }
    let outofcore = outofcore(&mut gates);
    let incremental = incremental(&mut gates);

    let doc = Obj::new()
        .model("schema", "tucker-bench/views/v1")
        .host("host_cores", host_cores)
        .host("skipped_single_core", host_cores < 2)
        .rows("kernels", kernels)
        .obj("regrid", regrid)
        .obj("pack", pack)
        .obj("outofcore", outofcore)
        .obj("incremental", incremental);
    (Artifact::Json(doc), gates.finish())
}

/// View-native Gram/TTM vs extract-then-compute over a boundary (contiguous)
/// and an interior (strided in every mode) region of a 64^3 tensor, every
/// mode, both kernels, both arms single-threaded, so each pair is
/// bit-comparable and the difference isolates the copy. One row per
/// (region, kernel, mode). Both arms of an interior row are one copy plus
/// the same slab kernel, so their time ratio is a tie by construction and
/// is not gated; what is gated is the count: once warm, one view-native
/// kernel copies exactly `8·|view|` bytes of an interior view, none of a
/// contiguous one, and allocates no tensor buffer.
fn view_kernels(gates: &mut Gates) -> Vec<Obj> {
    const RANK: usize = 16;
    const REPS: usize = 9;
    let t = DenseTensor::from_fn(Shape::new(vec![64, 64, 64]), |c| hash_noise(c, 0x51DE));
    let regions: [(&'static str, Region); 2] = [
        (
            "boundary",
            Region {
                start: vec![0, 0, 0],
                len: vec![64, 64, 32],
            },
        ),
        (
            "interior",
            Region {
                start: vec![5, 7, 9],
                len: vec![48, 48, 48],
            },
        ),
    ];
    let mut ws = TtmWorkspace::new();
    let mut rows = Vec::new();
    // Bytes copied and tensor buffers allocated by one call of `kernel`,
    // and the bytes it should copy.
    let counted = |want: u64, kernel: &mut dyn FnMut()| {
        let (bytes, allocs) = (view_bytes_copied(), tensor_buffer_allocs());
        kernel();
        let allocs = tensor_buffer_allocs() - allocs;
        (view_bytes_copied() - bytes, allocs, want)
    };
    let mut row = |region: &str,
                   kind: &str,
                   mode: usize,
                   (view_s, extract_s): (f64, f64),
                   equal: bool,
                   (copied, allocs, want): (u64, u64, u64)| {
        let speedup = extract_s / view_s;
        println!(
            "   {region:>8} {kind:>4} mode {mode}: view {:>8.1}us  extract {:>8.1}us  \
             ({speedup:.2}x), copied {copied} B",
            view_s * 1e6,
            extract_s * 1e6,
        );
        gates.check(equal, || {
            format!(
                "view-native {kind} over the {region} region (mode {mode}) must be \
                 bit-identical to extract-then-compute"
            )
        });
        gates.check(copied == want && allocs == 0, || {
            format!(
                "warm view-native {kind} over the {region} region (mode {mode}) copied \
                 {copied} bytes and allocated {allocs} tensor buffers (need {want} and 0)"
            )
        });
        gates.check(view_s > 0.0 && extract_s > 0.0, || {
            format!("both arms of the {region} {kind} row (mode {mode}) must measure time")
        });
        rows.push(
            Obj::new()
                .model("region", region)
                .model("kind", kind)
                .model("mode", mode)
                .host("view_s", secs(view_s))
                .host("extract_s", secs(extract_s))
                .host("speedup", Fix(speedup, 4))
                .model("bitwise_equal", equal),
        );
    };
    for (label, r) in &regions {
        let v = TensorView::region(&t, r);
        let want = match *label {
            "interior" => 8 * r.cardinality() as u64,
            _ => 0,
        };
        for mode in 0..3 {
            // Gram of the region along `mode`.
            let gv = gram_threads(v.clone(), mode, 1);
            let sub = DenseTensor::from_vec(r.shape(), extract(&t, r));
            let ge = gram_threads(&sub, mode, 1);
            let gram_equal = gv.as_slice() == ge.as_slice();
            drop(sub);
            let gram_s = median_pair_secs(REPS, |view_arm| {
                if view_arm {
                    black_box(gram_threads(black_box(v.clone()), mode, 1));
                } else {
                    let sub = DenseTensor::from_vec(r.shape(), extract(black_box(&t), r));
                    black_box(gram_threads(&sub, mode, 1));
                }
            });
            let gram_copy = counted(want, &mut || drop(gram_threads(v.clone(), mode, 1)));
            row(label, "gram", mode, gram_s, gram_equal, gram_copy);

            // TTM of the region along `mode` by a RANK x L_mode factor.
            let a = Matrix::from_fn(RANK, r.len[mode], |i, j| hash_noise(&[mode, i, j], 0xA11E));
            let tv = ws.ttm_threads(v.clone(), mode, &a, 1);
            let sub = DenseTensor::from_vec(r.shape(), extract(&t, r));
            let te = ws.ttm_threads(&sub, mode, &a, 1);
            let ttm_equal = tv.as_slice() == te.as_slice();
            ws.recycle(tv);
            ws.recycle(te);
            drop(sub);
            let ttm_s = median_pair_secs(REPS, |view_arm| {
                let z = if view_arm {
                    ws.ttm_threads(black_box(v.clone()), mode, &a, 1)
                } else {
                    let sub = DenseTensor::from_vec(r.shape(), extract(black_box(&t), r));
                    ws.ttm_threads(&sub, mode, &a, 1)
                };
                ws.recycle(black_box(z));
            });
            let ttm_copy = counted(want, &mut || {
                let z = ws.ttm_threads(v.clone(), mode, &a, 1);
                ws.recycle(black_box(z));
            });
            row(label, "ttm", mode, ttm_s, ttm_equal, ttm_copy);
        }
    }
    rows
}

/// Byte accounting of the regrid pack/unpack: a 4-rank regrid, every
/// copied byte counted. A rank copies each element of its old block once
/// (packed for the wire, or kept) and each element of its new block once
/// (unpacked, or that same kept copy): `8·(|old| + |new| − kept)` bytes.
/// The seed idiom staged the kept block through the wire like the rest,
/// two copies of it — `8·(|old| + |new|)`, the `copy_bytes_wire` closed form.
fn regrid_bytes(gates: &mut Gates) -> Obj {
    use tucker_distsim::block::rank_region;
    use tucker_distsim::redistribute::redistribute;
    use tucker_distsim::{DistTensor, Grid, MeshCfg, Universe, VolumeCategory};

    let global = DenseTensor::from_fn(Shape::new(vec![24, 18, 8]), |c| hash_noise(c, 0x9E9D));
    let g1 = Grid::new([2, 2, 1]);
    let g2 = Grid::new([1, 2, 2]);
    // `view_bytes_copied` counts per OS thread: one worker per rank, or a
    // delta taken across a suspension absorbs a neighbour's copies.
    let one_thread_per_rank = MeshCfg {
        workers: 4,
        ..MeshCfg::default()
    };
    let view = Universe::run_mesh(4, &one_thread_per_rank, |ctx| {
        let dt = DistTensor::scatter_from_global(ctx, &global, &g1);
        let before = view_bytes_copied();
        let local = redistribute(ctx, &dt, &g2).local().clone();
        (local, view_bytes_copied() - before)
    })
    .into_results();
    // Self-overlap bytes (elements every rank keeps, × 8): the exact saving
    // the view path must realize.
    let (mut self_overlap_bytes, mut copy_bytes_wire) = (0u64, 0u64);
    // Worst per-rank difference from the new block of the global tensor
    // (must be 0).
    let mut max_abs_diff = 0.0f64;
    for (r, (local, _)) in view.results.iter().enumerate() {
        let old = rank_region(global.shape(), &g1, r);
        let new = rank_region(global.shape(), &g2, r);
        for (a, b) in local.as_slice().iter().zip(extract(&global, &new)) {
            max_abs_diff = max_abs_diff.max((a - b).abs());
        }
        let kept = old.intersect(&new).map_or(0, |o| o.cardinality());
        self_overlap_bytes += (kept * 8) as u64;
        copy_bytes_wire += ((old.cardinality() + new.cardinality()) * 8) as u64;
    }
    let copy_bytes_view: u64 = view.results.iter().map(|(_, b)| b).sum();
    // Cross-rank bytes on the simulated wire.
    let wire_bytes = view.volume.bytes(VolumeCategory::Regrid);

    println!("   regrid 2x2x1 -> 1x2x2 of 24x18x8 on P=4:");
    println!(
        "      copied bytes {copy_bytes_wire} -> {copy_bytes_view} (self-overlap \
         {self_overlap_bytes}), wire bytes {wire_bytes}"
    );
    gates.check(max_abs_diff == 0.0 && wire_bytes > 0, || {
        "view regrid must reproduce the new blocks exactly".to_string()
    });
    let one_copy_per_block = copy_bytes_view < copy_bytes_wire
        && copy_bytes_wire - copy_bytes_view == self_overlap_bytes;
    gates.check(one_copy_per_block, || {
        format!(
            "view regrid must save exactly the self-overlap staging pass \
             ({copy_bytes_wire} -> {copy_bytes_view} bytes, self-overlap {self_overlap_bytes})"
        )
    });
    Obj::new()
        .model("copy_bytes_wire", copy_bytes_wire)
        .model("copy_bytes_view", copy_bytes_view)
        .model("self_overlap_bytes", self_overlap_bytes)
        .model("wire_bytes", wire_bytes)
        .model("max_abs_diff", Fix(max_abs_diff, 1))
        .model("one_copy_per_block", one_copy_per_block)
}

/// Wall time of packing one interior (strided in every mode) block of a
/// 96 × 96 × 64 tensor into a wire buffer: the seed idiom (extract into a
/// fresh canonical buffer, then copy that into the wire buffer — two passes
/// over the data plus an allocation) against the view path (one strided
/// pass straight into the wire buffer).
fn pack_timing(host_cores: usize, gates: &mut Gates) -> Obj {
    const REPS: usize = 15;
    let t = DenseTensor::from_fn(Shape::new(vec![96, 96, 64]), |c| hash_noise(c, 0x9AC0));
    let r = Region {
        start: vec![5, 9, 7],
        len: vec![80, 72, 48],
    };
    let card = r.cardinality();
    let canonical: Vec<usize> = {
        let mut acc = 1usize;
        r.len
            .iter()
            .map(|&d| {
                let s = acc;
                acc *= d;
                s
            })
            .collect()
    };
    let mut buf = vec![0.0f64; card];

    let reference = extract(&t, &r);
    {
        let mut dst = TensorViewMut::from_parts(&mut buf, r.len.clone(), canonical.clone());
        copy_into(&TensorView::region(&t, &r), &mut dst);
    }
    let equal = reference == buf;

    let (view_pack_s, extract_pack_s) = median_pair_secs(REPS, |view_arm| {
        if view_arm {
            let mut dst = TensorViewMut::from_parts(&mut buf, r.len.clone(), canonical.clone());
            copy_into(black_box(&TensorView::region(&t, &r)), &mut dst);
        } else {
            let staged = extract(black_box(&t), &r);
            buf.copy_from_slice(black_box(&staged));
        }
    });
    let bytes = card * 8;
    let speedup = extract_pack_s / view_pack_s;

    gates.check(equal, || {
        "both pack arms must fill identical wire bytes".to_string()
    });
    println!(
        "   interior pack of {} KiB: extract+copy {:.1}us vs one view copy {:.1}us ({speedup:.2}x)",
        bytes / 1024,
        extract_pack_s * 1e6,
        view_pack_s * 1e6,
    );
    gates.check(host_cores < 4 || speedup >= 1.2, || {
        format!(
            "one-pass view pack must be >=1.2x over extract-then-pack on \
             {host_cores} host cores (got {speedup:.2}x)"
        )
    });
    Obj::new()
        .model("bytes", bytes)
        .host("extract_pack_s", secs(extract_pack_s))
        .host("view_pack_s", secs(view_pack_s))
        .host("speedup", Fix(speedup, 4))
        .model("equal", equal)
}

/// STHOSVD + a fixed number of HOOI sweeps in-core and out-of-core (tiled,
/// workspace capped at a quarter of the tensor) on the same input, a
/// tensor whose footprint exceeds the workspace cap several times over.
/// The tiled run streams the input `1 + N + S·(N+1)` times for `S` sweeps.
fn outofcore(gates: &mut Gates) -> Obj {
    use tucker_core::{full_recompute, tucker_outofcore, TiledBackend};
    const OOC_BOUND: f64 = 1e-10;
    const TILE: usize = 8;
    const SWEEPS: usize = 3;

    let dims = vec![48usize, 48, 64];
    let ranks = vec![6usize, 6, 5];
    let t = DenseTensor::from_fn(Shape::new(dims.clone()), |c| video_field(c, &[48, 48, 64]));
    let meta = TuckerMeta::new(dims.clone(), ranks.clone());
    let tensor_bytes = t.cardinality() * std::mem::size_of::<f64>();
    let limit_bytes = tensor_bytes / 4;
    let cfg = LoopCfg::exactly(SWEEPS);

    let t0 = Instant::now();
    let (_, err_incore, _) = full_recompute(&t, &meta, cfg);
    let incore_s = t0.elapsed().as_secs_f64();

    let mut ws = TtmWorkspace::with_limit(limit_bytes);
    let mut tiled = TiledBackend::new(&t, TILE, &mut ws);
    let t0 = Instant::now();
    let ooc = tucker_outofcore(&mut tiled, &meta, cfg);
    let outofcore_s = t0.elapsed().as_secs_f64();
    let err_outofcore = *ooc.errors.last().expect("at least one sweep");
    let passes = tiled.passes();
    let order = dims.len();
    let expected_passes = 1 + order + ooc.errors.len() * (order + 1);
    // The pool's high-water mark after the run (must stay under the cap).
    let pooled_bytes = ws.pooled_bytes();

    let delta = (err_incore - err_outofcore).abs();
    println!(
        "   out-of-core {dims:?} -> {ranks:?} (tile {TILE}, cap {} KiB of {} KiB): \
         err {err_outofcore:.6} vs in-core {err_incore:.6} (|delta| {delta:.1e}), \
         {:.1}ms vs {:.1}ms, pool {} KiB, {passes} passes over the input",
        limit_bytes / 1024,
        tensor_bytes / 1024,
        outofcore_s * 1e3,
        incore_s * 1e3,
        pooled_bytes / 1024
    );
    gates.check(tensor_bytes >= 2 * limit_bytes, || {
        "the out-of-core tensor must exceed the workspace cap at least 2x".to_string()
    });
    gates.check(delta <= OOC_BOUND, || {
        format!("tiled sweeps must match in-core within 1e-10 (got {delta:.2e})")
    });
    gates.check(pooled_bytes <= limit_bytes, || {
        format!("the tile pool must respect the byte cap ({pooled_bytes} > {limit_bytes})")
    });
    gates.check(passes == expected_passes, || {
        format!("the tiled run must stream the input 1 + N + S(N+1) = {expected_passes} times (got {passes})")
    });
    Obj::new()
        .model_list("dims", dims)
        .model_list("ranks", ranks)
        .model("tensor_bytes", tensor_bytes)
        .model("limit_bytes", limit_bytes)
        .model("pooled_bytes", pooled_bytes)
        .model("tile_len", TILE)
        .model("sweeps", SWEEPS)
        .model("passes", passes)
        .model("err_incore", Fix(err_incore, 12))
        .model("err_outofcore", Fix(err_outofcore, 12))
        .bounded("err_delta", Sci(delta, 3), OOC_BOUND)
        .host("incore_s", secs(incore_s))
        .host("outofcore_s", secs(outofcore_s))
}

/// Sliding-window incremental Tucker vs per-push cold recompute: slide a
/// 16-frame window over a 64-frame synthetic video one frame at a time;
/// each push re-converges incrementally (Gram downdate/update + warm-started
/// HOOI) and cold (STHOSVD + HOOI) under the same loop config.
fn incremental(gates: &mut Gates) -> Obj {
    use tucker_core::{full_recompute, SlidingTucker};
    const INCREMENTAL_BOUND: f64 = 1e-8;

    let stream_dims = [32usize, 32, 64];
    let window = vec![32usize, 32, 16];
    let slab_len = 1usize;
    let cfg = LoopCfg {
        max_sweeps: 20,
        tol: 1e-9,
    };
    let window_len = window[2];
    let w0 = DenseTensor::from_fn(Shape::new(window.clone()), |c| video_field(c, &stream_dims));
    let mut st = SlidingTucker::new(w0, vec![4, 4, 3], cfg);
    let meta = st.meta().clone();
    let (mut inc_total_s, mut full_total_s) = (0.0, 0.0);
    let (mut inc_sweeps, mut full_sweeps) = (0, 0);
    // Worst per-push |err_incremental − err_cold|.
    let mut max_err_delta = 0.0f64;
    let mut pushes = 0;
    while (pushes + 1) * slab_len + window_len <= stream_dims[2] {
        let t0 = (pushes + 1) * slab_len;
        let slab = DenseTensor::from_fn(Shape::new(vec![32, 32, slab_len]), |c| {
            video_field(
                &[c[0], c[1], c[2] + t0 + window_len - slab_len],
                &stream_dims,
            )
        });
        let tick = Instant::now();
        let e_inc = st.push_slab(&slab);
        inc_total_s += tick.elapsed().as_secs_f64();
        inc_sweeps += st.sweeps_last_push();
        let tick = Instant::now();
        let (_, e_full, cold_sweeps) = full_recompute(st.window(), &meta, cfg);
        full_total_s += tick.elapsed().as_secs_f64();
        full_sweeps += cold_sweeps;
        max_err_delta = max_err_delta.max((e_inc - e_full).abs());
        pushes += 1;
    }

    println!(
        "   incremental {window:?} window, {pushes} pushes of {slab_len} frame(s): \
         {inc_total_s:.3}s/{inc_sweeps} sweeps vs cold {full_total_s:.3}s/{full_sweeps} \
         sweeps ({:.2}x), max |err delta| {max_err_delta:.1e}",
        full_total_s / inc_total_s.max(f64::MIN_POSITIVE),
    );
    gates.check(max_err_delta <= INCREMENTAL_BOUND, || {
        format!(
            "incremental Tucker must track cold recompute within 1e-8 (got {max_err_delta:.2e})"
        )
    });
    Obj::new()
        .model("pushes", pushes)
        .model_list("window", window)
        .model("slab_len", slab_len)
        .host("inc_total_s", secs(inc_total_s))
        .host("full_total_s", secs(full_total_s))
        .model("inc_sweeps", inc_sweeps)
        .model("full_sweeps", full_sweeps)
        .bounded("max_err_delta", Sci(max_err_delta, 3), INCREMENTAL_BOUND)
}
