//! `dist-measured` and `cluster-virtual`: one request = one
//! `run_distributed_hooi_mesh` call — joint-DP planning, block
//! materialisation, HOSVD init and the sweeps — on the fiber mesh, under
//! the measured clock (real collectives on `nproc` workers) or the α–β
//! virtual clock (paper-scale rank count; the wall is simulator replay).
//! The packed host kernels and `core::serve` are bypassed.

use super::{closed_loop, field, fill_tensor, note, within, Outcome, RunCfg, SETUP_REPS};
use crate::machine;
use crate::metrics::Layers;
use crate::pace::{self, Pacer, Sample};
use crate::stats::{mean, median};
use crate::trace::{per_request, span};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tucker_core::engine::{run_distributed_hooi_mesh, EngineConfig, MeshHooiOutput};
use tucker_core::executor::{hooi_loop, LoopCfg, SeqBackend};
use tucker_core::meta::TuckerMeta;
use tucker_core::plan::{FlopVolumeModel, NetCostModel, Plan, Planner, SearchBudget};
use tucker_distsim::dist_gram::dist_gram;
use tucker_distsim::dist_ttm::dist_ttm;
use tucker_distsim::redistribute::redistribute;
use tucker_distsim::{
    enumerate_valid_grids, mesh_switches, process_thread_count, DistTensor, MeshCfg, NetModel,
    RankOutcome, Universe, VolumeCategory,
};
use tucker_linalg::{leading_from_gram, Matrix};
use tucker_tensor::norm::fro_norm_sq;

pub struct DistSpec {
    pub meta: fn() -> TuckerMeta,
    pub nranks: usize,
    pub sweeps: usize,
    /// α–β virtual time on the BG/Q model (no core gather) instead of the
    /// measured clock.
    pub virtual_time: bool,
}

/// P = 8 ranks as fibers over `nproc` workers, measured clock.
pub const MEASURED: DistSpec = DistSpec {
    meta: || TuckerMeta::new([64, 64, 64, 8], [16, 16, 16, 4]),
    nranks: 8,
    sweeps: 4,
    virtual_time: false,
};

/// The scaling study's tensor at a paper-scale rank count, virtual time.
pub const VIRTUAL: DistSpec = DistSpec {
    meta: tucker_suite::driver::scaling_meta,
    nranks: 1024,
    sweeps: 2,
    virtual_time: true,
};

impl DistSpec {
    fn engine_cfg(&self) -> EngineConfig {
        if self.virtual_time {
            EngineConfig {
                gather_core: false,
                ..EngineConfig::virtual_time(NetModel::bgq())
            }
        } else {
            EngineConfig::default()
        }
    }

    /// The plan the engine searches for itself (same planner, same model,
    /// same budget — the search is deterministic).
    fn plan(&self, meta: &TuckerMeta) -> Plan {
        let planner = Planner::new(meta.clone(), self.nranks);
        let budget = SearchBudget::winner_only();
        match self.engine_cfg().net {
            Some(net) => planner.best_plan_with(&NetCostModel::new(net, self.nranks), &budget),
            None => planner.best_plan_with(&FlopVolumeModel, &budget),
        }
    }
}

fn request(spec: &DistSpec, meta: &TuckerMeta, seed: u64) -> MeshHooiOutput {
    let dims = meta.input().dims();
    run_distributed_hooi_mesh(
        |c| field(c, dims, seed),
        meta,
        spec.nranks,
        spec.sweeps,
        &spec.engine_cfg(),
        &MeshCfg::default(),
        None,
    )
}

/// What the checks and layer metrics keep of one request.
struct Kept {
    traced: bool,
    seq: u64,
    final_error: f64,
    /// Per-sweep means of the returned phase fields, seconds.
    phases: [f64; 7],
    /// Exact per-sweep ledger elements: TTM, regrid, Gram.
    volumes: [f64; 3],
    comm_wall_ns: u128,
    predicted_comm_ns: Option<u128>,
    sweep_walls: Vec<f64>,
    plan: String,
    workers: usize,
    switches: u64,
}

fn keep(spec: &DistSpec, out: &MeshHooiOutput, traced: bool, seq: u64, switches: u64) -> Kept {
    let per = |f: fn(&tucker_core::SweepStats) -> Duration| {
        mean(
            &out.per_sweep
                .iter()
                .map(|s| f(s).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let ledger = &out.epoch_volumes[0];
    let sweeps = spec.sweeps as f64;
    let last = out.per_sweep.last().expect("sweeps >= 1");
    Kept {
        traced,
        seq,
        final_error: last.error,
        phases: [
            per(|s| s.ttm_compute),
            per(|s| s.ttm_comm),
            per(|s| s.regrid_comm),
            per(|s| s.svd),
            per(|s| s.gram_comm),
            per(|s| s.comm_wall),
            per(|s| s.wall),
        ],
        // TTM and regrid traffic happens only inside sweeps, so the run
        // ledger over the sweep count is exact; Gram traffic also has the
        // init's share, so it is the last sweep's own window.
        volumes: [
            ledger.elements(VolumeCategory::TtmReduceScatter) as f64 / sweeps,
            ledger.elements(VolumeCategory::Regrid) as f64 / sweeps,
            last.gram_volume as f64,
        ],
        comm_wall_ns: last.comm_wall.as_nanos(),
        predicted_comm_ns: last
            .provenance
            .as_ref()
            .and_then(|p| p.predicted_comm)
            .map(|d| d.as_nanos()),
        sweep_walls: out.per_sweep[1..]
            .iter()
            .map(|s| s.wall.as_secs_f64())
            .collect(),
        plan: out.plans[0].clone(),
        workers: out.workers,
        switches,
    }
}

/// Highest OS thread count of this process while `f` runs (sampled).
fn with_thread_peak<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let stop = AtomicBool::new(false);
    let peak = AtomicUsize::new(process_thread_count().unwrap_or(0));
    let r = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                peak.fetch_max(process_thread_count().unwrap_or(0), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let r = f();
        stop.store(true, Ordering::SeqCst);
        r
    });
    // The sampler itself is one of the threads it counted.
    (r, peak.load(Ordering::Relaxed).saturating_sub(1))
}

/// Direct calls to `dist_ttm`, `dist_gram` and `redistribute` inside one
/// mesh universe at the workload's grid and block shape: the slowest
/// rank's wall of each, separating kernel + collective cost from the
/// engine around them.
fn probes(spec: &DistSpec, meta: &TuckerMeta, plan: &Plan, seed: u64) -> [f64; 3] {
    let grid = &plan.grids.initial;
    let other = enumerate_valid_grids(spec.nranks, meta.core().dims())
        .into_iter()
        .find(|g| g != grid)
        .unwrap_or_else(|| grid.clone());
    let factor_t = Matrix::from_fn(meta.k(0), meta.l(0), |r, c| {
        ((r * 13 + c * 7) % 31) as f64 / 31.0 - 0.5
    });
    let dims = meta.input().dims();
    let mesh = MeshCfg {
        net: spec.engine_cfg().net,
        ..MeshCfg::default()
    };
    let out = Universe::run_mesh(spec.nranks, &mesh, |ctx| {
        let t = DistTensor::from_global_fn(ctx, meta.input(), grid, |c| field(c, dims, seed));
        let t0 = Instant::now();
        black_box(dist_ttm(ctx, &t, 0, &factor_t));
        let ttm = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        black_box(dist_gram(ctx, &t, 0));
        let gram = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        black_box(redistribute(ctx, &t, &other));
        [ttm, gram, t0.elapsed().as_secs_f64()]
    });
    let mut worst = [0.0f64; 3];
    for r in out.results {
        let RankOutcome::Ok(times) = r else {
            panic!("probe rank failed");
        };
        for (w, t) in worst.iter_mut().zip(times) {
            *w = w.max(t);
        }
    }
    worst
}

pub fn run(spec: &DistSpec, cfg: &RunCfg) -> Outcome {
    let meta = (spec.meta)();
    let mut notes = Vec::new();

    // Set-up: the engine materialises its own inputs, so what precedes the
    // timed region is a warm-up request (mesh spin-up, lazy process state).
    let pacer = Pacer::new(machine::nproc());
    let mut pace_now = pacer.sample();
    let setup: Vec<Sample> = (0..SETUP_REPS)
        .map(|_| {
            pacer
                .timed(&mut pace_now, || black_box(request(spec, &meta, cfg.seed)))
                .1
        })
        .collect();

    let mut kept: Vec<Kept> = Vec::new();
    let copied0 = tucker_tensor::view_bytes_copied();
    let mut timed = || {
        closed_loop(cfg.seconds, &pacer, cfg.tracer, |tracer, seq| {
            let _r = tracer.map(|t| t.request("request", seq));
            let _s = span(tracer, "engine.run");
            let switches0 = mesh_switches();
            let out = request(spec, &meta, cfg.seed);
            let switches = mesh_switches() - switches0;
            kept.push(keep(spec, &out, tracer.is_some(), seq, switches));
        })
    };
    // The thread-count sampler is a thread of its own: traced runs only.
    let (times, threads_peak) = match cfg.tracer {
        Some(_) => with_thread_peak(timed),
        None => (timed(), 0),
    };
    let copied_per_request =
        (tucker_tensor::view_bytes_copied() - copied0) as f64 / kept.len() as f64;

    // Checks.
    let plan0 = Instant::now();
    let plan = spec.plan(&meta);
    let plan_s = plan0.elapsed().as_secs_f64();
    let mut failed = 0u64;
    let mut fail = |why: String| {
        failed += 1;
        notes.push(format!("  CHECK FAILED {why}"));
    };
    if spec.virtual_time {
        // As `scaling_sweep` asserts: the planner's α–β prediction equals
        // the executed virtual clock, and the ledger's TTM volume equals
        // the §4.1 closed form.
        let model = plan.modeled_sweep_ttm_elements();
        for k in &kept {
            let seq = k.seq;
            if k.predicted_comm_ns != Some(k.comm_wall_ns) {
                fail(format!(
                    "request {seq}: predicted comm {:?} ns vs executed {} ns",
                    k.predicted_comm_ns, k.comm_wall_ns
                ));
            } else if (k.volumes[0] - model).abs() > model.max(1.0) * 1e-9 || k.plan != plan.name()
            {
                fail(format!(
                    "request {seq}: ledger TTM {} vs model {model} elements (plan {} vs {})",
                    k.volumes[0],
                    k.plan,
                    plan.name()
                ));
            }
        }
    } else {
        // The same tree on the same tensor, sequentially on the host.
        let t = fill_tensor(meta.input(), cfg.seed);
        let init: Vec<Matrix> = (0..meta.order())
            .map(|n| leading_from_gram(&tucker_tensor::gram_threads(&t, n, 1), meta.k(n)).u)
            .collect();
        let reference = *hooi_loop(
            &mut SeqBackend::new(),
            &t,
            &meta,
            &plan.tree,
            init,
            fro_norm_sq(&t),
            LoopCfg::exactly(spec.sweeps),
        )
        .errors
        .last()
        .expect("sweeps >= 1");
        for k in &kept {
            let seq = k.seq;
            if (k.final_error - reference).abs() > 1e-8 {
                fail(format!(
                    "request {seq}: error {} vs sequential {reference}",
                    k.final_error
                ));
            }
        }
    }

    let plain: Vec<&Kept> = kept.iter().filter(|k| !k.traced).collect();
    let sweep_walls: Vec<Vec<f64>> = plain.iter().map(|k| k.sweep_walls.clone()).collect();
    // Per-sweep walls share their request's clock factor — unless they are
    // virtual time, which no clock touches.
    let mut sweep_s = within(&sweep_walls, &times.plain);
    if spec.virtual_time {
        sweep_s.iter_mut().for_each(|s| s.factor = 1.0);
    }
    let volume: f64 = plain[0].volumes.iter().sum();
    notes.push(note("sweep_s", "s", 1.0, &sweep_s));
    notes.push(format!(
        "  modeled_volume_elems         {volume:>14} elements  (exact, per sweep)"
    ));
    if spec.virtual_time {
        notes.push(format!(
            "  modeled_comm_us              {:>14.3} us        (exact, per sweep)",
            plain[0].comm_wall_ns as f64 / 1e3
        ));
    }

    let mut layers = Layers::default();
    if let Some(tracer) = cfg.tracer {
        let by_request = per_request(&tracer.spans());
        let mut cols: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        const PHASES: [&str; 7] = [
            "distsim.ttm_compute_s",
            "distsim.ttm_comm_s",
            "distsim.regrid_comm_s",
            "distsim.gram_svd_s",
            "distsim.gram_comm_s",
            "distsim.comm_wall_s",
            "engine.sweep_wall_s",
        ];
        for k in kept.iter().filter(|k| k.traced) {
            let mut put = |name: &'static str, v: f64| cols.entry(name).or_default().push(v);
            let run_s = by_request[&k.seq]["engine.run"].total_s();
            put("engine.run_s", run_s);
            put("engine.setup_s", run_s - k.phases[6] * spec.sweeps as f64);
            for (name, v) in PHASES.into_iter().zip(k.phases) {
                put(name, v);
            }
            put("distsim.mesh.switches", k.switches as f64);
        }
        for (&name, samples) in &cols {
            layers.set(name, median(samples));
        }
        let k = &kept[0];
        layers.set("distsim.volume.ttm_elems", k.volumes[0]);
        layers.set("distsim.volume.regrid_elems", k.volumes[1]);
        layers.set("distsim.volume.gram_elems", k.volumes[2]);
        layers.set("modeled_volume_elems", volume);
        layers.set("distsim.mesh.workers", k.workers as f64);
        layers.set("distsim.mesh.threads_peak", threads_peak as f64);
        layers.set("tensor.view.bytes_copied", copied_per_request);
        layers.set("engine.plan_s", plan_s);
        layers.set("sweep_s", median(&pace::raw(&sweep_s)));
        if spec.virtual_time {
            layers.set("modeled_comm_us", k.comm_wall_ns as f64 / 1e3);
            layers.set(
                "plan.predict_exec_abs_ns",
                k.predicted_comm_ns
                    .map_or(f64::MAX, |p| p.abs_diff(k.comm_wall_ns) as f64),
            );
        }
        let [ttm, gram, regrid] = probes(spec, &meta, &plan, cfg.seed);
        layers.set("distsim.dist_ttm.probe_s", ttm);
        layers.set("distsim.dist_gram.probe_s", gram);
        layers.set("distsim.regrid.probe_s", regrid);
        layers.set("bench.trace_overhead_frac", times.trace_overhead_frac());
        layers.set("bench.clock_factor", times.clock_factor());
    }

    Outcome {
        setup,
        tail_q: 0.75,
        rates: super::rates(&times.plain),
        requests: times.plain,
        attempted: kept.len() as u64,
        failed,
        peak_rss_mb: times.peak_rss_mb,
        layers,
        notes,
    }
}
