//! `host-dense3d` and `host-skinny5d`: one decomposition request = HOSVD
//! init + a fixed number of HOOI sweeps on [`RayonBackend`]. Only `linalg`,
//! `tensor` and `core::executor` run; planning, `distsim` and `serve` are
//! bypassed.

use super::{closed_loop, fill_tensor, note, Outcome, RunCfg, SETUP_REPS};
use crate::machine;
use crate::metrics::Layers;
use crate::pace::{self, Pacer};
use crate::stats::median;
use crate::trace::{per_request, span, Tracer};
use crate::traced::{KernelCounts, Traced};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use tucker_core::executor::{
    hooi_loop, LoopCfg, LoopOutcome, RayonBackend, SeqBackend, SweepBackend,
};
use tucker_core::meta::TuckerMeta;
use tucker_core::plan::tree::TtmTree;
use tucker_core::plan::{Planner, TreeStrategy};
use tucker_core::TuckerDecomposition;
use tucker_linalg::{gemm_into, leading_from_gram, syrk_into, Matrix, Transpose};
use tucker_tensor::norm::fro_norm_sq;
use tucker_tensor::{gram, gram_threads, DenseTensor};

pub struct HostSpec {
    pub dims: &'static [usize],
    pub core: &'static [usize],
    pub sweeps: usize,
}

/// Large modes, K = 32: GEMM-shaped TTMs and `L = 160` Grams/EVDs.
pub const DENSE3D: HostSpec = HostSpec {
    dims: &[160, 160, 160],
    core: &[32, 32, 32],
    sweeps: 3,
};

/// Many small modes, K = 4–8: bandwidth-bound TTMs with small inner
/// extents, deep tree with intermediate reuse.
pub const SKINNY5D: HostSpec = HostSpec {
    dims: &[32, 24, 32, 24, 16],
    core: &[8, 6, 8, 6, 4],
    sweeps: 3,
};

/// One decomposition's inputs.
struct Problem {
    meta: TuckerMeta,
    tree: TtmTree,
    t: DenseTensor,
    sweeps: usize,
}

/// What a traced request adds to its spans.
struct TraceExtras {
    counts: KernelCounts,
    pooled_bytes: usize,
}

/// One request. `init_threads`: `None` uses the library's own heuristic
/// (what a caller of `tucker_tensor::gram` gets), `Some(1)` pins the plain
/// single-threaded baseline.
fn decompose<B: SweepBackend<Tensor = DenseTensor>>(
    p: &Problem,
    backend: B,
    init_threads: Option<usize>,
    tracer: Option<&Tracer>,
) -> (LoopOutcome<DenseTensor>, B, KernelCounts) {
    let mut counts = KernelCounts::default();
    let (init, norm) = {
        let _s = span(tracer, "executor.init");
        let init: Vec<Matrix> = (0..p.meta.order())
            .map(|n| {
                let g = {
                    let _s = span(tracer, "tensor.gram");
                    counts.gram(p.t.shape(), n);
                    match init_threads {
                        None => gram(&p.t, n),
                        Some(threads) => gram_threads(&p.t, n, threads),
                    }
                };
                let _s = span(tracer, "linalg.evd");
                leading_from_gram(&g, p.meta.k(n)).u
            })
            .collect();
        (init, fro_norm_sq(&p.t))
    };
    let cfg = LoopCfg::exactly(p.sweeps);
    let _s = span(tracer, "executor.loop");
    match tracer {
        None => {
            let mut b = backend;
            let out = hooi_loop(&mut b, &p.t, &p.meta, &p.tree, init, norm, cfg);
            (out, b, counts)
        }
        Some(tr) => {
            let mut b = Traced::new(backend, tr);
            b.counts = counts;
            let out = hooi_loop(&mut b, &p.t, &p.meta, &p.tree, init, norm, cfg);
            let counts = b.counts;
            (out, b.into_inner(), counts)
        }
    }
}

/// GFLOP/s of `gemm_into` and `syrk_into` at the workload's dominant
/// operand shapes (mode-0 TTM: `K₀×L₀ · L₀×|T|/L₀`; mode-0 Gram:
/// `L₀×|T|/L₀`), threading left to the library, best of three.
fn kernel_probes(meta: &TuckerMeta) -> (f64, f64) {
    let (l, k) = (meta.l(0), meta.k(0));
    let cols = (meta.input().cardinality() / l).min(1 << 18);
    let fill = |r: usize, c: usize| ((r * 31 + c * 17) % 97) as f64 / 97.0 - 0.5;
    let a = Matrix::from_fn(k, l, fill);
    let b = Matrix::from_fn(l, cols, fill);
    let mut c = Matrix::zeros(k, cols);
    let mut g = Matrix::zeros(l, l);
    let best = |f: &mut dyn FnMut()| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let gemm_s = best(&mut || {
        gemm_into(&a, Transpose::No, &b, Transpose::No, 1.0, 0.0, &mut c);
        black_box(&c);
    });
    let syrk_s = best(&mut || {
        syrk_into(&b, 1.0, 0.0, &mut g);
        black_box(&g);
    });
    let gemm_flops = 2.0 * (k * l * cols) as f64;
    let syrk_flops = ((l + 1) * l * cols) as f64;
    (gemm_flops / gemm_s / 1e9, syrk_flops / syrk_s / 1e9)
}

pub fn run(spec: &HostSpec, cfg: &RunCfg) -> Outcome {
    let meta = TuckerMeta::new(spec.dims.to_vec(), spec.core.to_vec());
    let mut notes = Vec::new();

    // Set-up: input generation, the TTM-tree, one warm-up request.
    let mut setup = Vec::new();
    let mut problem = None;
    let threads = RayonBackend::new().threads();
    let pacer = Pacer::new(threads);
    let mut pace_now = pacer.sample();
    for _ in 0..SETUP_REPS {
        drop(problem.take());
        let (p, sample) = pacer.timed(&mut pace_now, || {
            let p = Problem {
                t: fill_tensor(meta.input(), cfg.seed),
                tree: Planner::new(meta.clone(), 1).build_tree(TreeStrategy::Optimal),
                meta: meta.clone(),
                sweeps: spec.sweeps,
            };
            black_box(decompose(&p, RayonBackend::new(), None, None).0);
            p
        });
        setup.push(sample);
        problem = Some(p);
    }
    let p = problem.expect("SETUP_REPS >= 1");

    // Timed region.
    let mut finals: Vec<(f64, bool)> = Vec::new();
    let mut sweep_walls: Vec<Vec<f64>> = Vec::new();
    let mut extras: BTreeMap<u64, TraceExtras> = BTreeMap::new();
    let mut last = None;
    let (packed0, copied0) = (
        tucker_linalg::bytes_packed(),
        tucker_tensor::view_bytes_copied(),
    );
    let times = closed_loop(cfg.seconds, &pacer, cfg.tracer, |tracer, seq| {
        let _r = tracer.map(|t| t.request("request", seq));
        let (out, backend, counts) = decompose(&p, RayonBackend::new(), None, tracer);
        let orthonormal = out.factors.iter().all(|f| f.has_orthonormal_columns(1e-10));
        finals.push((*out.errors.last().expect("sweeps >= 1"), orthonormal));
        if tracer.is_some() {
            extras.insert(
                seq,
                TraceExtras {
                    counts,
                    pooled_bytes: backend.into_workspace().pooled_bytes(),
                },
            );
        } else {
            sweep_walls.push(
                out.per_sweep[1..]
                    .iter()
                    .map(|s| s.wall.as_secs_f64())
                    .collect(),
            );
        }
        last = Some(out);
    });
    let sweep_s = super::within(&sweep_walls, &times.plain);
    let requests = (times.plain.len() + times.traced.len()) as f64;
    let packed_per_request = (tucker_linalg::bytes_packed() - packed0) as f64 / requests;
    let copied_per_request = (tucker_tensor::view_bytes_copied() - copied0) as f64 / requests;

    // Checks. The plain single-threaded run of the same problem is both the
    // reference answer and the parallel-efficiency baseline.
    let seq_pacer = Pacer::new(1);
    let ((seq_out, _, _), seq_decompose) = seq_pacer.timed(&mut seq_pacer.sample(), || {
        decompose(&p, SeqBackend::new(), Some(1), None)
    });
    let reference = *seq_out.errors.last().expect("sweeps >= 1");
    let mut attempted = finals.len() as u64;
    let mut failed = 0u64;
    for (i, &(err, orthonormal)) in finals.iter().enumerate() {
        if (err - reference).abs() > 1e-10 || !orthonormal {
            failed += 1;
            notes.push(format!(
                "  CHECK FAILED request {i}: error {err} vs sequential {reference}, \
                 orthonormal factors: {orthonormal}"
            ));
        }
    }
    // Once per run: the core-norm error identity against the explicitly
    // reconstructed ‖T − G×F‖/‖T‖.
    let out = last.expect("at least one request ran");
    let identity = *out.errors.last().expect("sweeps >= 1");
    let explicit = TuckerDecomposition::new(out.core, out.factors).error(&p.t);
    attempted += 1;
    if (identity - explicit).abs() > 1e-8 {
        failed += 1;
        notes.push(format!(
            "  CHECK FAILED core-norm error {identity} vs reconstructed {explicit}"
        ));
    }

    let mut layers = Layers::default();
    if let Some(tracer) = cfg.tracer {
        let by_request = per_request(&tracer.spans());
        let mut cols: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (seq, x) in &extras {
            let agg = &by_request[seq];
            let get = |name: &str| agg.get(name).copied().unwrap_or_default();
            let mut put = |name: &'static str, v: f64| cols.entry(name).or_default().push(v);
            let request = get("request");
            put("tensor.ttm.busy_s", get("tensor.ttm").self_s());
            put("tensor.gram.busy_s", get("tensor.gram").self_s());
            put("linalg.evd.busy_s", get("linalg.evd").self_s());
            put("executor.init_s", get("executor.init").total_s());
            put("executor.loop_s", get("executor.loop").total_s());
            put("executor.self_s", get("executor.loop").self_s());
            put(
                "bench.unattributed_frac",
                request.self_s() / request.total_s(),
            );
            put("tensor.ttm.calls", x.counts.ttm_calls as f64);
            put("tensor.ttm.flops", x.counts.ttm_flops);
            put("tensor.ttm.bytes_computed", x.counts.ttm_bytes);
            put("tensor.gram.calls", x.counts.gram_calls as f64);
            put("tensor.gram.flops", x.counts.gram_flops);
            put("tensor.gram.bytes_computed", x.counts.gram_bytes);
            put("tensor.workspace.pooled_bytes_hwm", x.pooled_bytes as f64);
        }
        for (&name, samples) in &cols {
            layers.set(name, median(samples));
        }
        let ratio = |num: &str, den: &str| layers.get(num) / layers.get(den);
        let ttm_gflops = ratio("tensor.ttm.flops", "tensor.ttm.busy_s") / 1e9;
        let gram_gflops = ratio("tensor.gram.flops", "tensor.gram.busy_s") / 1e9;
        let ttm_opb = ratio("tensor.ttm.flops", "tensor.ttm.bytes_computed");
        let gram_opb = ratio("tensor.gram.flops", "tensor.gram.bytes_computed");
        layers.set("tensor.ttm.gflops", ttm_gflops);
        layers.set("tensor.gram.gflops", gram_gflops);
        layers.set("tensor.ttm.ops_per_byte", ttm_opb);
        layers.set("tensor.gram.ops_per_byte", gram_opb);
        layers.set("linalg.pack.bytes_packed", packed_per_request);
        layers.set("tensor.view.bytes_copied", copied_per_request);
        layers.set("sweep_s", median(&pace::raw(&sweep_s)));
        layers.set("executor.seq_decompose_s", seq_decompose.raw_s);
        layers.set(
            "executor.par_efficiency",
            seq_decompose.norm_s() / (threads as f64 * median(&pace::norm(&times.plain))),
        );
        layers.set("bench.trace_overhead_frac", times.trace_overhead_frac());
        layers.set("bench.clock_factor", times.clock_factor());

        let (gemm_gflops, syrk_gflops) = kernel_probes(&meta);
        layers.set("linalg.pack.gemm_gflops", gemm_gflops);
        layers.set("linalg.pack.syrk_gflops", syrk_gflops);
        let roof = super::machine_layers(&mut layers, &mut notes);
        if let Some((fma, triad_gbs)) = roof {
            let frac =
                |gflops: f64, opb: f64| gflops / machine::roofline_gflops(fma, triad_gbs, opb);
            layers.set("tensor.ttm.roofline_frac", frac(ttm_gflops, ttm_opb));
            layers.set("tensor.gram.roofline_frac", frac(gram_gflops, gram_opb));
        }
        notes.push(format!(
            "  {threads} threads; spans cover {:.1} % of the request",
            100.0 * (1.0 - layers.get("bench.unattributed_frac"))
        ));
    }

    if !sweep_s.is_empty() {
        notes.push(note("sweep_s", "s", 1.0, &sweep_s));
    }
    Outcome {
        setup,
        tail_q: 0.75,
        rates: super::rates(&times.plain),
        requests: times.plain,
        attempted,
        failed,
        peak_rss_mb: times.peak_rss_mb,
        layers,
        notes,
    }
}
