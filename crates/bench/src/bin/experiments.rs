//! Regenerate every table and figure of the paper's evaluation (§6).
//!
//! ```text
//! cargo run --release -p tucker-bench --bin experiments -- all
//! cargo run --release -p tucker-bench --bin experiments -- kernels
//! cargo run --release -p tucker-bench --bin experiments -- backends
//! cargo run --release -p tucker-bench --bin experiments -- planner [--max-p N]
//! cargo run --release -p tucker-bench --bin experiments -- table1
//! cargo run --release -p tucker-bench --bin experiments -- fig10a [--sample N]
//! cargo run --release -p tucker-bench --bin experiments -- scaling [--max-p N]
//! cargo run --release -p tucker-bench --bin experiments -- topology [--max-p N]
//! cargo run --release -p tucker-bench --bin experiments -- recovery [--max-p N]
//! cargo run --release -p tucker-bench --bin experiments -- serve [--clients N]
//! cargo run --release -p tucker-bench --bin experiments -- views
//! cargo run --release -p tucker-bench --bin experiments -- repro [--check]
//! ```
//!
//! `kernels` times the fused-Gram / workspace-TTM kernels against their
//! explicit-unfold baselines and persists `results/BENCH_kernels.json`.
//!
//! `backends` runs the same HOOI schedule through the three sweep-executor
//! backends (seq / rayon / distsim) on the kernel-ablation problem and
//! persists `results/BENCH_backends.json`.
//!
//! `serve` drives the in-process decomposition server with concurrent
//! synthetic clients issuing repeated same-shape compress jobs, and persists
//! client-side latency percentiles, plan-cache hit rates and batching
//! counters to `results/BENCH_serving.json`.
//!
//! `planner` certifies the planning layer both ways: predicted-vs-simulated
//! virtual time for every lineup plan at P = 64…4096 (the α–β `NetCostModel`
//! forecast against the engine's executed virtual communication clock,
//! asserted within 5%), and the joint grid × tree × order DP against full
//! brute-force enumeration under both cost models. Persists
//! `results/BENCH_planner.json`.
//!
//! `scaling` replays the strategy lineup (the paper's four plus the joint-DP
//! plan) at paper-scale rank counts (P = 64…8192) under the virtual-time
//! α–β BG/Q model, validates the ledger against the §4.1/§4.3 closed forms
//! and the virtual clocks against the planner's prediction, and persists
//! `results/BENCH_scaling.json`.
//!
//! `topology` compares topology-aware planning (the hierarchical α–β
//! `NetCostModel`, which sees intra/inter link classes and node-aligned
//! grid variants) against flat-model planning at P = 64…8192: both DP plans
//! execute on the hierarchical cluster simulator, the topology-aware plan
//! must strictly win on executed virtual communication at every P, and
//! prediction must match execution to the nanosecond under both topologies.
//! Persists `results/BENCH_topology.json`.
//!
//! `recovery` kills one rank mid-sweep at P = 64 and 1024 under the mesh
//! runtime's `Recover` policy and compares time-to-recover and wasted
//! sweeps against fail-stop (abort + from-scratch restart on the
//! survivors), asserting the 1e-10 recovered-vs-restart differential.
//! Persists `results/BENCH_recovery.json`.
//!
//! `views` exercises the zero-copy `TensorView` layer (DESIGN.md §11):
//! view-native Gram/TTM against extract-then-compute on boundary and
//! interior regions (asserted bit-identical), the one-copy regrid pack
//! byte ledger against the seed's two-copy staging, out-of-core tiled
//! sweeps on a tensor several times the workspace cap, and the
//! sliding-window incremental mode. Persists `results/BENCH_views.json`.
//!
//! `repro` regenerates every artifact currently present under `results/`;
//! with `--check` it first snapshots the committed files, diffs each
//! regenerated artifact against its snapshot under per-schema tolerances
//! (virtual-time and count fields tight, host-clock timings ignored,
//! measured percentile curves structure-only), restores the snapshot, and
//! prints one summary table — exiting non-zero on any drift.
//!
//! Analytic experiments (Table 1, Figures 11c/d/f, summary) run on the
//! full-size benchmark — load and volume are machine-independent (§6.2).
//! Measured experiments (Figures 10a/b/c, 11a/b/e) execute the simulated
//! engine on metadata scaled to fit this machine; EXPERIMENTS.md records the
//! scaling. CSV series land in `results/`.

use tucker_bench::{scale_for_measurement, write_csv, write_results};
use tucker_core::engine::{run_distributed_hooi, EngineConfig, ExecutionStats};
use tucker_core::plan::{GridStrategy, Plan, Planner, TreeStrategy};
use tucker_core::TuckerMeta;
use tucker_distsim::{count_grids, NetModel};
use tucker_suite::driver::{
    dp_certification, gridding_comparison, load_comparison, recovery_bench, scaling_meta,
    scaling_ranks, scaling_sweep, topology_sweep, RECOVERY_FAIL_AFTER_LEAVES, RECOVERY_FAIL_SWEEP,
    RECOVERY_SWEEPS,
};
use tucker_suite::fields::hash_noise;
use tucker_suite::generator::{benchmark_5d, benchmark_6d, full_enumeration};
use tucker_suite::percentile::{normalized_percentiles, PercentileCurve};
use tucker_suite::real::{real_tensors, scaled_real_tensors};

/// Ranks used by measured experiments (kept small: the host machine
/// timeshares the simulated ranks).
const MEASURE_RANKS: usize = 8;
/// Ranks used by analytic experiments (the paper uses 32 BG/Q nodes).
const ANALYTIC_RANKS: usize = 32;
/// Cardinality cap for scaled measured tensors.
const MEASURE_MAX_CARD: f64 = 2.0e6;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let sample = args
        .iter()
        .position(|a| a == "--sample")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(16usize);

    let max_p = args
        .iter()
        .position(|a| a == "--max-p")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX);

    let clients = args
        .iter()
        .position(|a| a == "--clients")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(6usize);

    match what {
        "kernels" => kernels(),
        "backends" => exit_on_failed_gate(backends()),
        "serve" => serve(clients),
        "planner" => planner(max_p),
        "scaling" => scaling(max_p),
        "topology" => topology(max_p),
        "recovery" => recovery(max_p),
        "views" => views(),
        "repro" => repro(args.iter().any(|a| a == "--check"), sample, max_p, clients),
        "table1" => table1(),
        "table2" => table2(),
        "fig10a" => fig10_overall(5, sample),
        "fig10b" => fig10_overall(6, sample),
        "fig10c" => fig10c_real(),
        "fig11a" => fig11ab_compute_time(5, sample),
        "fig11b" => fig11ab_compute_time(6, sample),
        "fig11c" => fig11cd_load(5),
        "fig11d" => fig11cd_load(6),
        "fig11e" => fig11e_comm_time(sample),
        "fig11f" => fig11f_volume(),
        "summary" => summary(),
        "all" => {
            kernels();
            let backends_gate = backends();
            serve(clients);
            planner(max_p);
            scaling(max_p);
            topology(max_p);
            recovery(max_p);
            views();
            table1();
            table2();
            fig11cd_load(5);
            fig11cd_load(6);
            fig11f_volume();
            fig10_overall(5, sample);
            fig10_overall(6, sample);
            fig11ab_compute_time(5, sample);
            fig11ab_compute_time(6, sample);
            fig11e_comm_time(sample);
            fig10c_real();
            summary();
            exit_on_failed_gate(backends_gate);
        }
        other => {
            eprintln!(
                "unknown experiment '{other}'; expected one of: all kernels backends serve \
                 planner scaling topology recovery views repro table1 table2 fig10a fig10b \
                 fig10c fig11a fig11b fig11c fig11d fig11e fig11f summary"
            );
            std::process::exit(2);
        }
    }
}

/// A bench whose perf gate failed has already written its artifact; say
/// which gate and exit non-zero.
fn exit_on_failed_gate(gate: Result<(), String>) {
    if let Err(why) = gate {
        eprintln!("GATE FAILED: {why}");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------- Planner

/// Planning-layer certification: predicted-vs-simulated virtual time for
/// every plan of the scaling lineup at P = 64…4096 (the 5% invariant is
/// asserted inside `scaling_sweep`), plus the joint-DP-vs-brute-force
/// agreement counts under both cost models. Persists
/// `results/BENCH_planner.json` (schema `tucker-bench/planner/v1`).
fn planner(max_p: usize) {
    let meta = scaling_meta();
    let net = NetModel::bgq();
    let ranks: Vec<usize> = [64usize, 256, 1024, 4096]
        .into_iter()
        .filter(|&p| p <= max_p)
        .collect();
    assert!(!ranks.is_empty(), "--max-p filtered out every rank count");
    println!(
        "== Planner: predicted vs simulated virtual time + DP certification \
         (alpha {:?}, beta {:.3} ns/B) ==",
        net.alpha(),
        net.beta_ns_per_byte()
    );
    println!("   problem {meta}, P in {ranks:?}");

    // Prediction vs execution (asserted within 5% inside the sweep).
    let rows = scaling_sweep(&meta, &ranks, net);
    let mut max_rel = 0.0f64;
    for r in &rows {
        let rel = (r.predicted_comm_s - r.comm_wall_s).abs() / r.comm_wall_s.max(1e-12);
        max_rel = max_rel.max(rel);
        println!(
            "   P={:>5} {:>20}: predicted comm {:>11.6}s  executed {:>11.6}s  rel err {:.2e}",
            r.nranks, r.strategy, r.predicted_comm_s, r.comm_wall_s, rel
        );
    }
    println!("   worst relative prediction error: {max_rel:.2e} (tolerance 5e-2)");

    // Joint-DP certification against full enumeration, both models.
    let cert = dp_certification();
    for c in &cert {
        assert!(
            c.agreed,
            "{} P={} under {}: DP {} vs oracle {}",
            c.meta, c.nranks, c.model, c.dp_cost, c.oracle_cost
        );
        println!(
            "   cert {:>24} P={:<2} [{:>9}]: DP {:.6e} == oracle {:.6e} ({} candidates)",
            c.meta, c.nranks, c.model, c.dp_cost, c.oracle_cost, c.candidates
        );
    }
    let agreed = cert.iter().filter(|c| c.agreed).count();
    println!("   DP-vs-brute-force: {agreed}/{} cases agreed", cert.len());

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let rel = (r.predicted_comm_s - r.comm_wall_s).abs() / r.comm_wall_s.max(1e-12);
            format!(
                "    {{\"p\": {}, \"strategy\": \"{}\", \"predicted_comm_s\": {:.9}, \
                 \"executed_comm_s\": {:.9}, \"rel_err\": {:.3e}, \"wall_s\": {:.9}, \
                 \"ttm_comm_s\": {:.9}, \"gram_comm_s\": {:.9}, \"regrid_comm_s\": {:.9}}}",
                r.nranks,
                r.strategy,
                r.predicted_comm_s,
                r.comm_wall_s,
                rel,
                r.wall_s,
                r.ttm_comm_s,
                r.gram_comm_s,
                r.regrid_comm_s
            )
        })
        .collect();
    let cert_rows: Vec<String> = cert
        .iter()
        .map(|c| {
            format!(
                "    {{\"meta\": \"{}\", \"p\": {}, \"model\": \"{}\", \"dp_cost\": {:.9e}, \
                 \"oracle_cost\": {:.9e}, \"candidates\": {}, \"agreed\": {}}}",
                c.meta, c.nranks, c.model, c.dp_cost, c.oracle_cost, c.candidates, c.agreed
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"tucker-bench/planner/v1\",\n  \"input\": \"{}\",\n  \
         \"core\": \"{}\",\n  \"net\": {{\"alpha_ns\": {}, \"beta_ns_per_byte\": {:.6}}},\n  \
         \"ranks\": {ranks:?},\n  \"tolerance\": 0.05,\n  \"max_rel_err\": {max_rel:.3e},\n  \
         \"rows\": [\n{}\n  ],\n  \"dp_certification\": [\n{}\n  ],\n  \
         \"dp_agreed\": {agreed},\n  \"dp_total\": {}\n}}\n",
        meta.input(),
        meta.core(),
        net.alpha().as_nanos(),
        net.beta_ns_per_byte(),
        json_rows.join(",\n"),
        cert_rows.join(",\n"),
        cert.len()
    );
    let p = write_results("BENCH_planner.json", &json);
    println!("-> {}\n", p.display());
}

// ---------------------------------------------------------------- Scaling

/// Paper-scale strong scaling (the Fig. 10a/11a analogue honest runs cannot
/// reach): the strategy lineup (the paper's four plus the joint-DP plan) at
/// P = 64…8192 simulated BG/Q nodes in virtual time. Ledger volumes are
/// validated against the §4.1/§4.3 closed forms and virtual clocks against
/// the planner's α–β prediction inside the sweep; results land in
/// `results/BENCH_scaling.json`.
fn scaling(max_p: usize) {
    let meta = scaling_meta();
    let net = NetModel::bgq();
    let ranks: Vec<usize> = scaling_ranks()
        .into_iter()
        .filter(|&p| p <= max_p)
        .collect();
    assert!(!ranks.is_empty(), "--max-p filtered out every rank count");
    println!(
        "== Scaling: four-strategy lineup, virtual time (alpha {:?}, beta {:.3} ns/B) ==",
        net.alpha(),
        net.beta_ns_per_byte()
    );
    println!("   problem {meta}, P in {ranks:?}");

    let t0 = std::time::Instant::now();
    let rows = scaling_sweep(&meta, &ranks, net);
    let elapsed = t0.elapsed();

    let mut prev_p = 0;
    for r in &rows {
        if r.nranks != prev_p {
            println!("  P = {}", r.nranks);
            prev_p = r.nranks;
        }
        println!(
            "    {:>20}: wall {:>11.6}s  ttm-comp {:>10.6}s  ttm-comm {:>10.6}s  \
             regrid {:>10.6}s  gram {:>10.6}s  vol {}/{}/{}  (host {:.1}s)",
            r.strategy,
            r.wall_s,
            r.ttm_compute_s,
            r.ttm_comm_s,
            r.regrid_comm_s,
            r.gram_comm_s,
            r.ttm_elements,
            r.regrid_elements,
            r.gram_elements,
            r.host_s,
        );
    }
    let top_p = ranks.last().copied().unwrap_or(0);
    let top_host: f64 = rows
        .iter()
        .filter(|r| r.nranks == top_p)
        .map(|r| r.host_s)
        .sum();
    println!(
        "   (swept {} configurations in {elapsed:.1?}; P = {top_p} four-strategy block \
         took {top_host:.1}s of host time)",
        rows.len()
    );

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"backend\": \"{}\", \"p\": {}, \"strategy\": \"{}\", \"wall_s\": {:.9}, \
                 \"ttm_compute_s\": {:.9}, \"ttm_comm_s\": {:.9}, \"regrid_comm_s\": {:.9}, \
                 \"gram_comm_s\": {:.9}, \"svd_s\": {:.9}, \"ttm_elements\": {}, \
                 \"regrid_elements\": {}, \"gram_elements\": {}, \
                 \"model_ttm_elements\": {:.1}, \"model_regrid_elements\": {:.1}, \
                 \"predicted_comm_s\": {:.9}, \"comm_wall_s\": {:.9}, \
                 \"error\": {:.12}, \"host_s\": {:.3}}}",
                r.backend,
                r.nranks,
                r.strategy,
                r.wall_s,
                r.ttm_compute_s,
                r.ttm_comm_s,
                r.regrid_comm_s,
                r.gram_comm_s,
                r.svd_s,
                r.ttm_elements,
                r.regrid_elements,
                r.gram_elements,
                r.model_ttm_elements,
                r.model_regrid_elements,
                r.predicted_comm_s,
                r.comm_wall_s,
                r.error,
                r.host_s
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"tucker-bench/scaling/v1\",\n  \"input\": \"{}\",\n  \
         \"core\": \"{}\",\n  \"net\": {{\"alpha_ns\": {}, \"beta_ns_per_byte\": {:.6}}},\n  \
         \"ranks\": {ranks:?},\n  \"rows\": [\n{}\n  ]\n}}\n",
        meta.input(),
        meta.core(),
        net.alpha().as_nanos(),
        net.beta_ns_per_byte(),
        json_rows.join(",\n")
    );
    let p = write_results("BENCH_scaling.json", &json);
    println!("-> {}\n", p.display());
}

// --------------------------------------------------------------- Topology

/// Topology comparison at paper-scale rank counts: the topology-aware DP
/// plan (ranked under the hierarchical cluster `NetCostModel`) against the
/// flat-model DP plan (ranked under a flat model carrying the same
/// inter-node α–β), both executed on the hierarchical simulator. The
/// nanosecond predict-vs-execute invariant per topology is asserted inside
/// `topology_sweep`; the strict topology-beats-flat win at every swept P is
/// asserted here. Persists `results/BENCH_topology.json` (schema
/// `tucker-bench/topology/v1`).
fn topology(max_p: usize) {
    let meta = scaling_meta();
    let hier = NetModel::cluster();
    let ranks: Vec<usize> = scaling_ranks()
        .into_iter()
        .filter(|&p| p <= max_p)
        .collect();
    assert!(!ranks.is_empty(), "--max-p filtered out every rank count");
    println!(
        "== Topology: topology-aware vs flat-model planning on the hierarchical \
         cluster (intra {:?}/{:.3} ns/B, inter {:?}/{:.3} ns/B, {} ranks/node) ==",
        hier.intra_alpha(),
        hier.intra_beta_ns_per_byte(),
        hier.alpha(),
        hier.beta_ns_per_byte(),
        hier.node_size()
    );
    println!("   problem {meta}, P in {ranks:?}");

    let rows = topology_sweep(&meta, &ranks, hier);
    for r in &rows {
        // The headline gate: the topology-aware plan strictly beats the
        // flat-model plan's executed virtual communication at every P.
        assert!(
            r.topo_comm_s < r.flat_comm_s,
            "P={}: topology-aware plan ({}s, grid {}) must strictly beat the \
             flat-model plan ({}s, grid {})",
            r.nranks,
            r.topo_comm_s,
            r.topo_initial_grid,
            r.flat_comm_s,
            r.flat_initial_grid
        );
        println!(
            "   P={:>5}: topo {:>11.6}s (grid {})  flat-plan {:>11.6}s (grid {})  \
             speedup {:>5.3}x  flat-sim control {:>11.6}s  (host {:.1}s)",
            r.nranks,
            r.topo_comm_s,
            r.topo_initial_grid,
            r.flat_comm_s,
            r.flat_initial_grid,
            r.comm_speedup,
            r.control_comm_s,
            r.host_s
        );
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"p\": {}, \"topo_plan\": \"{}\", \"topo_initial_grid\": \"{}\", \
                 \"flat_plan\": \"{}\", \"flat_initial_grid\": \"{}\", \
                 \"topo_comm_s\": {:.9}, \"flat_comm_s\": {:.9}, \
                 \"topo_predicted_comm_s\": {:.9}, \"flat_predicted_comm_s\": {:.9}, \
                 \"control_comm_s\": {:.9}, \"control_predicted_comm_s\": {:.9}, \
                 \"comm_speedup\": {:.4}, \"topo_wall_s\": {:.9}, \"host_s\": {:.3}}}",
                r.nranks,
                r.topo_plan,
                r.topo_initial_grid,
                r.flat_plan,
                r.flat_initial_grid,
                r.topo_comm_s,
                r.flat_comm_s,
                r.topo_predicted_comm_s,
                r.flat_predicted_comm_s,
                r.control_comm_s,
                r.control_predicted_comm_s,
                r.comm_speedup,
                r.topo_wall_s,
                r.host_s
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"tucker-bench/topology/v1\",\n  \"input\": \"{}\",\n  \
         \"core\": \"{}\",\n  \"net\": {{\"intra_alpha_ns\": {}, \
         \"intra_beta_ns_per_byte\": {:.6}, \"inter_alpha_ns\": {}, \
         \"inter_beta_ns_per_byte\": {:.6}, \"node_size\": {}}},\n  \
         \"ranks\": {ranks:?},\n  \"rows\": [\n{}\n  ]\n}}\n",
        meta.input(),
        meta.core(),
        hier.intra_alpha().as_nanos(),
        hier.intra_beta_ns_per_byte(),
        hier.alpha().as_nanos(),
        hier.beta_ns_per_byte(),
        hier.node_size(),
        json_rows.join(",\n")
    );
    let p = write_results("BENCH_topology.json", &json);
    println!("-> {}\n", p.display());
}

// --------------------------------------------------------------- Recovery

/// Failure-recovery smoke: kill one rank mid-sweep at paper-scale rank
/// counts under the mesh runtime and compare recovery (quarantine →
/// survivor re-plan → resume, DESIGN.md §9) against fail-stop (abort +
/// from-scratch restart on the survivors). The 1e-10 recovered-vs-restart
/// differential is asserted inside `recovery_bench`. Persists
/// `results/BENCH_recovery.json` (schema `tucker-bench/recovery/v1`).
fn recovery(max_p: usize) {
    let meta = scaling_meta();
    let net = NetModel::bgq();
    let ranks: Vec<usize> = [64usize, 1024]
        .into_iter()
        .filter(|&p| p <= max_p)
        .collect();
    println!(
        "== Recovery: injected mid-sweep rank failure vs fail-stop, P = {ranks:?}, \
         {RECOVERY_SWEEPS} sweeps, kill P/2 at sweep {RECOVERY_FAIL_SWEEP} \
         after {RECOVERY_FAIL_AFTER_LEAVES} leaves =="
    );
    let rows = recovery_bench(&meta, &ranks, net);
    for r in &rows {
        assert!(r.survivors < r.nranks, "survivor grid must shrink");
        assert!(r.wasted_sweeps_recover < r.wasted_sweeps_failstop + 1);
        println!(
            "   P={:<5} -> {:<5} survivors [{}]: recover {:.3}s (to-recover {:.3}s, \
             {} wasted sweeps, {} salvaged leaves, {} elements reused) vs \
             fail-stop restart {:.3}s ({} wasted sweeps); err gap {:.3e}",
            r.nranks,
            r.survivors,
            r.replanned,
            r.recover_total_s,
            r.time_to_recover_s,
            r.wasted_sweeps_recover,
            r.salvaged_leaves,
            r.reused_elements,
            r.restart_total_s,
            r.wasted_sweeps_failstop,
            (r.recovered_error - r.failstop_error).abs()
        );
    }
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"p\": {}, \"survivors\": {}, \"replanned\": \"{}\", \
                 \"fail_sweep\": {}, \"resumed_sweep\": {}, \"salvaged_leaves\": {}, \
                 \"reused_elements\": {}, \"recover_total_s\": {:.6}, \
                 \"time_to_recover_s\": {:.6}, \"restart_total_s\": {:.6}, \
                 \"wasted_sweeps_recover\": {}, \"wasted_sweeps_failstop\": {}, \
                 \"recovered_error\": {:.15}, \"failstop_error\": {:.15}, \
                 \"error_gap\": {:.3e}}}",
                r.nranks,
                r.survivors,
                r.replanned,
                r.fail_sweep,
                r.resumed_sweep,
                r.salvaged_leaves,
                r.reused_elements,
                r.recover_total_s,
                r.time_to_recover_s,
                r.restart_total_s,
                r.wasted_sweeps_recover,
                r.wasted_sweeps_failstop,
                r.recovered_error,
                r.failstop_error,
                (r.recovered_error - r.failstop_error).abs()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"tucker-bench/recovery/v1\",\n  \"input\": \"{}\",\n  \
         \"core\": \"{}\",\n  \"net\": {{\"alpha_ns\": {}, \"beta_ns_per_byte\": {:.6}}},\n  \
         \"sweeps\": {RECOVERY_SWEEPS},\n  \"fail_sweep\": {RECOVERY_FAIL_SWEEP},\n  \
         \"fail_after_leaves\": {RECOVERY_FAIL_AFTER_LEAVES},\n  \"tolerance\": 1e-10,\n  \
         \"ranks\": {ranks:?},\n  \"rows\": [\n{}\n  ]\n}}\n",
        meta.input(),
        meta.core(),
        net.alpha().as_nanos(),
        net.beta_ns_per_byte(),
        json_rows.join(",\n")
    );
    let p = write_results("BENCH_recovery.json", &json);
    println!("-> {}\n", p.display());
}

// --------------------------------------------------------------- Backends

/// Backend comparison on the kernel-ablation problem: the same
/// `(opt-tree, static)` HOOI schedule executed by the strictly sequential
/// host backend, the rayon shared-memory backend (host cores), and the
/// measured distsim backend. Errors are asserted identical inside the
/// driver; wall times land in `results/BENCH_backends.json` so future PRs
/// can track the multicore speedup. `Err` names a failed rayon-vs-seq gate.
fn backends() -> Result<(), String> {
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
    }
    let seq = rows.iter().find(|r| r.backend == "seq").unwrap();
    let rayon = rows.iter().find(|r| r.backend == "rayon").unwrap();
    let speedup = seq.wall_s / rayon.wall_s;
    let beats = rayon.wall_s < seq.wall_s;
    let skipped_single_core = host_cores < 2;
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
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"backend\": \"{}\", \"threads\": {}, \"wall_s\": {:.9}, \
                 \"ttm_s\": {:.9}, \"svd_s\": {:.9}, \"error\": {:.12}}}",
                r.backend, r.threads, r.wall_s, r.ttm_s, r.svd_s, r.error
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"tucker-bench/backends/v1\",\n  \"input\": \"{}\",\n  \
         \"core\": \"{}\",\n  \"host_cores\": {host_cores},\n  \"sweeps\": {SWEEPS},\n  \
         \"reps\": {REPS},\n  \"rows\": [\n{}\n  ],\n  \
         \"rayon_speedup_vs_seq\": {speedup:.4},\n  \"rayon_beats_seq\": {beats},\n  \
         \"skipped_single_core\": {skipped_single_core}\n}}\n",
        meta.input(),
        meta.core(),
        json_rows.join(",\n")
    );
    let p = write_results("BENCH_backends.json", &json);
    println!("-> {}\n", p.display());

    // The gate scales with the host: a single core cannot exhibit a
    // parallel speedup (an explicit skip, never a vacuous pass), a wide host
    // must show a real one. It is evaluated only after the artifact — which
    // records both numbers — is on disk, so a failed gate still leaves
    // something for `repro --check` and CI to read.
    if host_cores >= 4 && speedup < 1.5 {
        Err(format!(
            "RayonBackend must reach >=1.5x over SeqBackend on {host_cores} host cores \
             (seq {:.1}us vs rayon {:.1}us = {speedup:.2}x)",
            seq.wall_s * 1e6,
            rayon.wall_s * 1e6
        ))
    } else if host_cores >= 2 && !beats {
        Err(format!(
            "RayonBackend must beat SeqBackend on {host_cores} host cores \
             (seq {:.1}us vs rayon {:.1}us = {speedup:.2}x)",
            seq.wall_s * 1e6,
            rayon.wall_s * 1e6
        ))
    } else {
        if skipped_single_core {
            println!("   (single host core: rayon-vs-seq speedup gate skipped)");
        }
        Ok(())
    }
}

/// Median wall (µs) of back-to-back `gram_threads` calls on an 8×8×8 tensor
/// split into `parts` (at one part no parallel region is opened, at two
/// exactly one is).
fn trivial_gram_us(parts: usize) -> f64 {
    const CALLS: usize = 501;
    let t = tucker_tensor::DenseTensor::from_fn([8, 8, 8], |c| hash_noise(c, 0x6AA));
    let mut us: Vec<f64> = (0..CALLS)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(tucker_tensor::gram_threads(&t, 1, parts));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[CALLS / 2]
}

// ---------------------------------------------------------------- Serving

/// Serving-layer benchmark: `clients` concurrent synthetic clients each
/// burst-submit a stream of compress jobs over a small set of shapes with
/// repeated seeds, so the server exercises admission control, same-shape
/// batching, seed coalescing and the exact plan cache at once. Client-side
/// latency percentiles and the server's own counters are persisted to
/// `results/BENCH_serving.json` (schema `tucker-bench/serving/v1`).
fn serve(clients: usize) {
    use std::sync::Arc;
    use tucker_core::{JobSpec, ServeCfg, Server};

    const JOBS_PER_CLIENT: usize = 8;
    const SWEEPS: usize = 2;
    const SERVE_RANKS: usize = 8;
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

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p / 100.0).round() as usize];
    let p50 = pct(50.0);
    let p99 = pct(99.0);
    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    let throughput = report.jobs as f64 / elapsed.max(1e-12);
    let single_job_batches = report.batches - report.multi_job_batches;

    assert_eq!(report.jobs as usize, total_jobs, "no job may be dropped");
    assert!(
        report.cache.hits > 0,
        "repeated same-shape jobs must hit the plan cache"
    );
    assert!(
        report.executed_sweeps < report.requested_sweeps,
        "coalescing repeated seeds must save sweeps \
         (executed {} vs requested {})",
        report.executed_sweeps,
        report.requested_sweeps
    );

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

    let json = format!(
        "{{\n  \"schema\": \"tucker-bench/serving/v1\",\n  \"clients\": {clients},\n  \
         \"jobs_per_client\": {JOBS_PER_CLIENT},\n  \"total_jobs\": {},\n  \
         \"sweeps_per_job\": {SWEEPS},\n  \"nranks\": {SERVE_RANKS},\n  \
         \"shapes\": {},\n  \"latency_ms\": {{\"p50\": {:.4}, \"p99\": {:.4}, \
         \"mean\": {:.4}}},\n  \"throughput_jobs_per_s\": {:.3},\n  \
         \"elapsed_s\": {:.6},\n  \"cache\": {{\"hits\": {}, \"misses\": {}, \
         \"hit_rate\": {:.4}}},\n  \"batches\": {{\"total\": {}, \"multi_job\": {}, \
         \"single_job\": {}, \"batched_jobs\": {}, \"coalesced_jobs\": {}}},\n  \
         \"executed_sweeps\": {},\n  \"requested_sweeps\": {},\n  \
         \"rejected\": {},\n  \"queue_depth_hwm\": {},\n  \
         \"workspace_bytes_hwm\": {}\n}}\n",
        report.jobs,
        shapes.len(),
        p50 * 1e3,
        p99 * 1e3,
        mean * 1e3,
        throughput,
        elapsed,
        report.cache.hits,
        report.cache.misses,
        report.cache.hit_rate(),
        report.batches,
        report.multi_job_batches,
        single_job_batches,
        report.batched_jobs,
        report.coalesced_jobs,
        report.executed_sweeps,
        report.requested_sweeps,
        report.rejected,
        report.queue_depth_hwm,
        report.workspace_bytes_hwm
    );
    let p = write_results("BENCH_serving.json", &json);
    println!("-> {}\n", p.display());
}

// ---------------------------------------------------------------- Kernels

/// Kernel ablation: the packed, cache-blocked micro-kernels of
/// `tucker_linalg::pack` against the unrolled naive references, per mode,
/// for GEMM (factor x unfold), SYRK (Gram of the unfold), and TTM — on a
/// small cache-resident shape and a cache-busting one — plus the warm
/// `TtmWorkspace` chain vs fresh allocation per shape. Both arms of every
/// packed/naive pair run the same code path except for the kernel dispatch
/// (flipped via [`tucker_linalg::set_kernel_mode`]) and the same worker
/// budget, so the speedup isolates the kernel effect. Results persist
/// machine-readably to `results/BENCH_kernels.json` (schema
/// `tucker-bench/kernels/v2`, with the packed kernels' instruction set under
/// `"isa"` and the eigensolver table under `"evd"`) for the CI gate and the
/// README table.
fn kernels() {
    use std::hint::black_box;
    use tucker_linalg::{
        gemm_into, set_kernel_mode, syrk_into, KernelMode, Matrix, Transpose, Transpose::No,
    };
    use tucker_tensor::{ttm, ttm_into_threads, unfold, DenseTensor, TtmWorkspace};

    struct ShapeSpec {
        dims: [usize; 3],
        rank: usize,
        reps: usize,
    }
    // The small shape fits in L2; the large one (~35 MB) busts every cache
    // level, which is where packing pays and where the fresh-allocation
    // chain pays page faults the warm workspace avoids. The skinny shape's
    // middle mode has contiguous inner extent 6 — the 1 < inner < 16 gap
    // served by the slab-grouped small-inner packed path.
    const SPECS: [ShapeSpec; 3] = [
        ShapeSpec {
            dims: [48, 40, 36],
            rank: 12,
            reps: 21,
        },
        ShapeSpec {
            dims: [192, 160, 144],
            rank: 32,
            reps: 5,
        },
        ShapeSpec {
            dims: [6, 96, 80],
            rank: 16,
            reps: 21,
        },
    ];

    fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
        let mut ts: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = std::time::Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ts[reps / 2]
    }

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
    let skipped_single_core = host_cores < 2;
    let isa = tucker_linalg::kernel_isa();
    println!("== Kernels: packed vs naive ablation ({host_cores} cores, {isa} kernels) ==");

    let mut shape_blocks = Vec::new();
    for spec in &SPECS {
        let ShapeSpec { dims, rank, reps } = *spec;
        println!(
            "-- shape {}x{}x{}, rank {rank}, median of {reps} --",
            dims[0], dims[1], dims[2]
        );
        let t = DenseTensor::from_fn(dims, |c| hash_noise(c, 0xFACE));
        let factors: Vec<Matrix> = (0..3)
            .map(|n| Matrix::from_fn(rank, dims[n], |i, j| hash_noise(&[n, i, j], 0xD00D)))
            .collect();

        let mut gemm_rows = Vec::new();
        let mut syrk_rows = Vec::new();
        let mut ttm_rows = Vec::new();
        for (mode, f) in factors.iter().enumerate() {
            // GEMM: the mode-n factor applied to the explicit unfold — a
            // plain K x I_n x (prod others) matrix multiply.
            let u = unfold(&t, mode);
            let mut c = Matrix::zeros(rank, u.shape().1);
            let (gn, gp) = both_modes(reps, || {
                gemm_into(black_box(f), No, black_box(&u), No, 1.0, 0.0, &mut c);
                black_box(&mut c);
            });
            // SYRK: Gram of the unfold (the factor-update left operand).
            let mut g = Matrix::zeros(dims[mode], dims[mode]);
            let (sn, sp) = both_modes(reps, || {
                syrk_into(black_box(&u), 1.0, 0.0, &mut g);
                black_box(&mut g);
            });
            // TTM: the blocked slab-wise kernel, one worker in both arms.
            let mut out = Vec::new();
            let (tn, tp) = both_modes(reps, || {
                ttm_into_threads(black_box(&t), mode, black_box(f), &mut out, 1);
                black_box(&mut out);
            });
            for (name, naive, packed) in [("gemm", gn, gp), ("syrk", sn, sp), ("ttm", tn, tp)] {
                println!(
                    "   {name} mode {mode}: naive {:>10.1}us  packed {:>10.1}us  speedup {:>5.2}x",
                    naive * 1e6,
                    packed * 1e6,
                    naive / packed
                );
            }
            let row = |naive: f64, packed: f64| {
                format!(
                    "        {{\"mode\": {mode}, \"naive_s\": {naive:.9}, \
                     \"packed_s\": {packed:.9}, \"speedup\": {:.4}}}",
                    naive / packed
                )
            };
            gemm_rows.push(row(gn, gp));
            syrk_rows.push(row(sn, sp));
            ttm_rows.push(row(tn, tp));
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
        println!(
            "   ttm-chain (3 modes): fresh {:>10.1}us  workspace {:>10.1}us  speedup {:>5.2}x",
            fresh * 1e6,
            pooled * 1e6,
            fresh / pooled
        );

        shape_blocks.push(format!(
            "    {{\n      \"shape\": [{}, {}, {}],\n      \"rank\": {rank},\n      \
             \"reps\": {reps},\n      \"gemm\": [\n{}\n      ],\n      \
             \"syrk\": [\n{}\n      ],\n      \"ttm\": [\n{}\n      ],\n      \
             \"ttm_chain\": {{\"fresh_s\": {fresh:.9}, \"workspace_s\": {pooled:.9}, \
             \"speedup\": {:.4}}}\n    }}",
            dims[0],
            dims[1],
            dims[2],
            gemm_rows.join(",\n"),
            syrk_rows.join(",\n"),
            ttm_rows.join(",\n"),
            fresh / pooled
        ));
    }

    // EVD: the full-spectrum QL solver against the selected-eigenpair one on
    // the Gram orders the workloads produce, and which of the two
    // `leading_from_gram` hands out — the table behind its `(L, K)` rule.
    // Arms alternate inside every repetition and each reports its best, so a
    // slow phase of the host cannot favour one of them.
    const EVD_CASES: [(usize, usize); 6] =
        [(10, 6), (16, 8), (32, 8), (64, 16), (160, 32), (256, 32)];
    println!("-- evd: full (QL) vs selected (k leading pairs), best of 15 --");
    let mut evd_rows = Vec::new();
    for (l, k) in EVD_CASES {
        use tucker_linalg::{gemm, leading_from_gram, sym_evd, sym_evd_leading, syrk};
        // Gram of an l x 4l noise matrix whose columns decay geometrically.
        let b = Matrix::from_fn(l, 4 * l, |i, j| {
            hash_noise(&[i, j], 0xE7D) * 0.9f64.powi((j % l) as i32)
        });
        let g = syrk(&b);
        // Small orders finish in microseconds: time a batch per sample.
        let inner = (200_000 / (l * l * l)).max(1);
        let (mut full_s, mut selected_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..15 {
            let t0 = std::time::Instant::now();
            for _ in 0..inner {
                black_box(sym_evd(black_box(&g)));
            }
            full_s = full_s.min(t0.elapsed().as_secs_f64() / inner as f64);
            let t0 = std::time::Instant::now();
            for _ in 0..inner {
                black_box(sym_evd_leading(black_box(g.clone()), k));
            }
            selected_s = selected_s.min(t0.elapsed().as_secs_f64() / inner as f64);
        }
        let selected = sym_evd_leading(g.clone(), k);
        let u = &selected.eigenvectors;
        let front_door = leading_from_gram(&g, k).u;
        let picked = if front_door == *u {
            "selected"
        } else {
            assert!(
                front_door == sym_evd(&g).leading(k),
                "leading_from_gram({l}, {k}) returned neither solver's vectors"
            );
            "full"
        };
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
        assert!(
            orthogonality <= 1e-13 && residual <= 1e-13,
            "sym_evd_leading({l}, {k}): orthogonality {orthogonality:e}, residual {residual:e}"
        );
        println!(
            "   L={l:>3} K={k:>2}: full {:>9.1}us  selected {:>9.1}us  ({:>5.2}x)  \
             picked {picked:<8}  residual {residual:.1e}  orthogonality {orthogonality:.1e}",
            full_s * 1e6,
            selected_s * 1e6,
            full_s / selected_s
        );
        evd_rows.push(format!(
            "    {{\"l\": {l}, \"k\": {k}, \"full_s\": {full_s:.9}, \
             \"selected_s\": {selected_s:.9}, \"speedup\": {:.4}, \"picked\": \"{picked}\", \
             \"residual\": {residual:.3e}, \"orthogonality\": {orthogonality:.3e}}}",
            full_s / selected_s
        ));
    }

    let json = format!(
        "{{\n  \"schema\": \"tucker-bench/kernels/v2\",\n  \"host_cores\": {host_cores},\n  \
         \"isa\": \"{isa}\",\n  \"skipped_single_core\": {skipped_single_core},\n  \
         \"shapes\": [\n{}\n  ],\n  \"evd\": [\n{}\n  ]\n}}\n",
        shape_blocks.join(",\n"),
        evd_rows.join(",\n")
    );
    let p = write_results("BENCH_kernels.json", &json);
    println!("-> {}\n", p.display());
}

// ---------------------------------------------------------------- Table 1

/// Table 1: number of grids ψ(P, N).
fn table1() {
    println!("== Table 1: number of grids psi(P, N) ==");
    println!(
        "{:>8} {:>10} {:>12} {:>14}",
        "N", "P=2^5", "P=2^10", "P=2^20"
    );
    let mut rows = Vec::new();
    for n in 5u32..=10 {
        let a = count_grids(1 << 5, n);
        let b = count_grids(1 << 10, n);
        let c = count_grids(1 << 20, n);
        println!("{n:>8} {a:>10} {b:>12} {c:>14}");
        rows.push(format!("{n},{a},{b},{c}"));
    }
    let p = write_csv("table1_grid_counts.csv", "N,P32,P1024,P1048576", &rows);
    println!("-> {}\n", p.display());
}

// ---------------------------------------------------------------- Table 2

/// Table 2: the real tensors.
fn table2() {
    println!("== Table 2: real tensors ==");
    let mut rows = Vec::new();
    for rt in real_tensors() {
        println!(
            "{:>6}: {:<28} -> {:<28} (compression {:>7.1}x)",
            rt.name,
            rt.meta.input().to_string(),
            rt.meta.core().to_string(),
            rt.meta.compression_ratio()
        );
        rows.push(format!(
            "{},{},{},{:.2}",
            rt.name,
            rt.meta.input(),
            rt.meta.core(),
            rt.meta.compression_ratio()
        ));
    }
    let p = write_csv(
        "table2_real_tensors.csv",
        "name,input,core,compression",
        &rows,
    );
    println!("-> {}\n", p.display());
}

// ------------------------------------------------------- Figures 11c / 11d

/// Figures 11c/d: computational-load percentiles over the full benchmark
/// (analytic; exactly the paper's machine-independent metric).
fn fig11cd_load(order: usize) {
    let suite = if order == 5 {
        benchmark_5d()
    } else {
        benchmark_6d()
    };
    println!(
        "== Fig 11{} : normalized computational load ({order}D, {} tensors) ==",
        if order == 5 { 'c' } else { 'd' },
        suite.len()
    );

    let mut chain_k = Vec::new();
    let mut chain_h = Vec::new();
    let mut balanced = Vec::new();
    let mut opt = Vec::new();
    for meta in &suite {
        let (ck, ch, b, o) = load_comparison(meta);
        chain_k.push(ck);
        chain_h.push(ch);
        balanced.push(b);
        opt.push(o);
    }
    let curves = [
        ("chain-K", normalized_percentiles(&chain_k, &opt)),
        ("chain-h", normalized_percentiles(&chain_h, &opt)),
        ("balanced", normalized_percentiles(&balanced, &opt)),
    ];
    print_curves(&curves);
    let rows = curve_rows(&curves);
    let p = write_csv(
        &format!(
            "fig11{}_load_{order}d.csv",
            if order == 5 { 'c' } else { 'd' }
        ),
        "percentile,chain_K,chain_h,balanced",
        &rows,
    );
    println!("-> {}\n", p.display());
}

// ------------------------------------------------------------- Figure 11f

/// Figure 11f: communication-volume percentiles, static vs dynamic gridding
/// on the optimal tree (analytic, full benchmark, both orders).
fn fig11f_volume() {
    println!("== Fig 11f: normalized communication volume (static vs dynamic) ==");
    let mut curves = Vec::new();
    for order in [5usize, 6] {
        let suite = if order == 5 {
            benchmark_5d()
        } else {
            benchmark_6d()
        };
        let mut stat = Vec::new();
        let mut dynv = Vec::new();
        for meta in &suite {
            let (s, d) = gridding_comparison(meta, ANALYTIC_RANKS);
            stat.push(s);
            dynv.push(d);
        }
        let label: &'static str = if order == 5 { "static-5D" } else { "static-6D" };
        curves.push((label, normalized_percentiles(&stat, &dynv)));
    }
    let named: Vec<(&str, PercentileCurve)> = curves;
    print_curves(&named);
    for (name, c) in &named {
        println!(
            "   {name}: >=3x gain on {:.0}% of tensors (paper: ~90%)",
            c.fraction_at_least(3.0) * 100.0
        );
    }
    let rows = curve_rows(&named);
    let p = write_csv("fig11f_volume.csv", "percentile,static_5d,static_6d", &rows);
    println!("-> {}\n", p.display());
}

// -------------------------------------------------- measured-run machinery

/// Measured strategies of Figures 10a/b and 11a/b.
fn measured_lineup(planner: &Planner) -> Vec<Plan> {
    planner.paper_lineup()
}

/// Fill value for measured tensors ("random data", §6.1) — deterministic
/// across ranks.
fn fill(c: &[usize]) -> f64 {
    hash_noise(c, 0xBEEF)
}

/// Run one plan once and return its per-sweep stats.
fn run_once(plan: &Plan) -> ExecutionStats {
    run_distributed_hooi(fill, plan, 1, &EngineConfig::default())
        .per_sweep
        .remove(0)
}

/// Deterministic measured sample: subsample the suite, scale each tensor to
/// measurable size, skip the ones whose cores collapse below the rank count.
fn measured_sample(order: usize, n: usize) -> Vec<TuckerMeta> {
    let all = full_enumeration(order);
    let picked = tucker_suite::generator::paper_sized_subsample(&all, n.min(all.len()));
    let mut out = Vec::new();
    let mut skipped = 0;
    for meta in &picked {
        match scale_for_measurement(meta, MEASURE_MAX_CARD, MEASURE_RANKS) {
            Some(s) => out.push(s),
            None => skipped += 1,
        }
    }
    if skipped > 0 {
        println!(
            "   ({skipped} of {} sample tensors skipped: core too small after scaling)",
            picked.len()
        );
    }
    out
}

// ------------------------------------------------------- Figures 10a / 10b

/// Figures 10a/b: overall execution-time percentiles, measured on the scaled
/// sample. Normalized against (opt-tree, dynamic).
fn fig10_overall(order: usize, sample: usize) {
    println!(
        "== Fig 10{}: overall time percentiles ({order}D, measured, P={MEASURE_RANKS}) ==",
        if order == 5 { 'a' } else { 'b' }
    );
    let metas = measured_sample(order, sample);
    println!(
        "   measuring {} scaled tensors x 4 strategies ...",
        metas.len()
    );

    let mut times: [Vec<f64>; 4] = Default::default();
    for meta in &metas {
        let planner = Planner::new(meta.clone(), MEASURE_RANKS);
        for (i, plan) in measured_lineup(&planner).into_iter().enumerate() {
            let s = run_once(&plan);
            times[i].push(s.wall.as_secs_f64());
        }
    }
    let opt = times[3].clone();
    let curves = [
        ("chain-K", normalized_percentiles(&times[0], &opt)),
        ("chain-h", normalized_percentiles(&times[1], &opt)),
        ("balanced", normalized_percentiles(&times[2], &opt)),
    ];
    print_curves(&curves);
    for (name, c) in &curves {
        println!("   {name}: median {:.2}x, max {:.2}x", c.median(), c.max());
    }
    let rows = curve_rows(&curves);
    let p = write_csv(
        &format!(
            "fig10{}_overall_{order}d.csv",
            if order == 5 { 'a' } else { 'b' }
        ),
        "percentile,chain_K,chain_h,balanced",
        &rows,
    );
    println!("-> {}\n", p.display());
}

// ------------------------------------------------------- Figures 11a / 11b

/// Figures 11a/b: TTM computation-time percentiles (measured), heuristics vs
/// (opt-tree, static).
fn fig11ab_compute_time(order: usize, sample: usize) {
    println!(
        "== Fig 11{}: TTM computation time ({order}D, measured, P={MEASURE_RANKS}) ==",
        if order == 5 { 'a' } else { 'b' }
    );
    let metas = measured_sample(order, sample);
    println!(
        "   measuring {} scaled tensors x 4 strategies ...",
        metas.len()
    );

    let strategies = [
        (TreeStrategy::chain_k(), "chain-K"),
        (TreeStrategy::chain_h(), "chain-h"),
        (TreeStrategy::Balanced, "balanced"),
        (TreeStrategy::Optimal, "opt-tree"),
    ];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
    for meta in &metas {
        let planner = Planner::new(meta.clone(), MEASURE_RANKS);
        for (i, (ts, _)) in strategies.iter().enumerate() {
            let plan = planner.plan(*ts, GridStrategy::StaticOptimal);
            let s = run_once(&plan);
            times[i].push(s.ttm_compute.as_secs_f64().max(1e-9));
        }
    }
    let opt = times[3].clone();
    let curves = [
        ("chain-K", normalized_percentiles(&times[0], &opt)),
        ("chain-h", normalized_percentiles(&times[1], &opt)),
        ("balanced", normalized_percentiles(&times[2], &opt)),
    ];
    print_curves(&curves);
    for (name, c) in &curves {
        println!("   {name}: median {:.2}x, max {:.2}x", c.median(), c.max());
    }
    let rows = curve_rows(&curves);
    let p = write_csv(
        &format!(
            "fig11{}_compute_time_{order}d.csv",
            if order == 5 { 'a' } else { 'b' }
        ),
        "percentile,chain_K,chain_h,balanced",
        &rows,
    );
    println!("-> {}\n", p.display());
}

// ------------------------------------------------------------- Figure 11e

/// Figure 11e: communication-time percentiles, (opt-tree, static) vs
/// (opt-tree, dynamic), measured. Communication time = TTM reduce-scatter +
/// regrid time.
fn fig11e_comm_time(sample: usize) {
    println!("== Fig 11e: communication time (measured, P={MEASURE_RANKS}) ==");
    let mut curves = Vec::new();
    for order in [5usize, 6] {
        let metas = measured_sample(order, sample);
        println!(
            "   {order}D: measuring {} scaled tensors x 2 gridding schemes ...",
            metas.len()
        );
        let mut stat = Vec::new();
        let mut dynt = Vec::new();
        for meta in &metas {
            let planner = Planner::new(meta.clone(), MEASURE_RANKS);
            let sp = planner.plan(TreeStrategy::Optimal, GridStrategy::StaticOptimal);
            let dp = planner.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
            let ss = run_once(&sp);
            let ds = run_once(&dp);
            let s_comm = (ss.ttm_comm + ss.regrid_comm).as_secs_f64().max(1e-9);
            let d_comm = (ds.ttm_comm + ds.regrid_comm).as_secs_f64().max(1e-9);
            stat.push(s_comm);
            dynt.push(d_comm);
        }
        let label: &'static str = if order == 5 { "static-5D" } else { "static-6D" };
        curves.push((label, normalized_percentiles(&stat, &dynt)));
    }
    print_curves(&curves);
    for (name, c) in &curves {
        println!("   {name}: median {:.2}x, max {:.2}x", c.median(), c.max());
    }
    let rows = curve_rows(&curves);
    let p = write_csv(
        "fig11e_comm_time.csv",
        "percentile,static_5d,static_6d",
        &rows,
    );
    println!("-> {}\n", p.display());
}

// ------------------------------------------------------------- Figure 10c

/// Figure 10c: per-strategy time breakdown on the real tensors (measured on
/// scaled variants).
fn fig10c_real() {
    println!("== Fig 10c: real-tensor breakdown (scaled /16, measured, P={MEASURE_RANKS}) ==");
    let mut rows = Vec::new();
    for rt in scaled_real_tensors(16) {
        println!("  {} ({})", rt.name, rt.meta);
        let planner = Planner::new(rt.meta.clone(), MEASURE_RANKS);
        for plan in measured_lineup(&planner) {
            let s = run_once(&plan);
            let comm = s.ttm_comm + s.regrid_comm;
            println!(
                "    {:>20}: total {:>9.1?}  svd {:>9.1?}  ttm-comp {:>9.1?}  ttm-comm {:>9.1?}",
                plan.name(),
                s.wall,
                s.svd,
                s.ttm_compute,
                comm,
            );
            rows.push(format!(
                "{},{},{:.6},{:.6},{:.6},{:.6}",
                rt.name,
                plan.name(),
                s.wall.as_secs_f64(),
                s.svd.as_secs_f64(),
                s.ttm_compute.as_secs_f64(),
                comm.as_secs_f64()
            ));
        }
    }
    let p = write_csv(
        "fig10c_real_breakdown.csv",
        "tensor,strategy,total_s,svd_s,ttm_compute_s,ttm_comm_s",
        &rows,
    );
    println!("-> {}\n", p.display());
}

// ----------------------------------------------------------------- summary

/// §6.2 headline numbers from the analytic models on the full benchmark.
fn summary() {
    println!("== Summary: headline statistics (analytic, full benchmark, P={ANALYTIC_RANKS}) ==");
    for order in [5usize, 6] {
        let suite = if order == 5 {
            benchmark_5d()
        } else {
            benchmark_6d()
        };
        let mut best_prior_load = Vec::new();
        let mut opt_load = Vec::new();
        let mut stat_vol = Vec::new();
        let mut dyn_vol = Vec::new();
        let mut max_gain = (0.0f64, String::new());
        let mut min_gain = (f64::INFINITY, String::new());
        for meta in &suite {
            let (ck, ch, b, o) = load_comparison(meta);
            let best = ck.min(ch).min(b);
            best_prior_load.push(best);
            opt_load.push(o);
            let g = best / o;
            if g > max_gain.0 {
                max_gain = (g, meta.to_string());
            }
            if g < min_gain.0 {
                min_gain = (g, meta.to_string());
            }
            let (s, d) = gridding_comparison(meta, ANALYTIC_RANKS);
            stat_vol.push(s);
            dyn_vol.push(d);
        }
        let load_curve = normalized_percentiles(&best_prior_load, &opt_load);
        let vol_curve = normalized_percentiles(&stat_vol, &dyn_vol);
        println!("  {order}D ({} tensors):", suite.len());
        println!(
            "    load gain vs best prior tree: median {:.2}x, max {:.2}x (paper 11c/d: up to 2.8x/3.6x)",
            load_curve.median(),
            load_curve.max()
        );
        println!("      max-gain tensor: {}", max_gain.1);
        println!("      min-gain tensor: {}", min_gain.1);
        println!(
            "    volume gain dynamic vs static: median {:.2}x, max {:.2}x, >=3x on {:.0}% (paper 11f: up to 6x, >=3x on 90%)",
            vol_curve.median(),
            vol_curve.max(),
            vol_curve.fraction_at_least(3.0) * 100.0
        );
    }
    println!();
}

// ------------------------------------------------------------- formatting

fn print_curves(curves: &[(&str, PercentileCurve)]) {
    print!("{:>11}", "percentile");
    for (name, _) in curves {
        print!(" {name:>12}");
    }
    println!();
    for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
        print!("{p:>11}");
        for (_, c) in curves {
            print!(" {:>12.3}", c.at(p));
        }
        println!();
    }
}

fn curve_rows(curves: &[(&str, PercentileCurve)]) -> Vec<String> {
    (1..=100)
        .map(|p| {
            let mut row = format!("{p}");
            for (_, c) in curves {
                row.push_str(&format!(",{:.6}", c.at(p as f64)));
            }
            row
        })
        .collect()
}

// ------------------------------------------------------------------ Views

/// View-layer benchmark (DESIGN.md §11). Every kernel pair is asserted
/// bit-identical; the regrid byte ledger must show exactly one copy per
/// block (the seed's staging pass eliminated, saving precisely the
/// self-overlap bytes); the out-of-core arm must match in-core within
/// 1e-10 on a tensor 4x its workspace cap; the pack-speedup gate scales
/// with the host like the `backends` gate.
fn views() {
    use tucker_suite::driver::{
        pack_timing_bench, regrid_bytes_bench, view_kernel_bench, views_incremental_bench,
        views_outofcore_bench,
    };

    let host_cores = tucker_tensor::host_threads();
    let skipped_single_core = host_cores < 2;
    println!(
        "== Views: view-native kernels vs extract-then-compute, 64^3 input \
         ({host_cores} host cores) =="
    );
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
        assert!(
            r.bitwise_equal,
            "view-native {} over the {} region (mode {}) must be bit-identical \
             to extract-then-compute",
            r.kind, r.region, r.mode
        );
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
    assert_eq!(
        regrid.max_abs_diff, 0.0,
        "view regrid must reproduce the wire regrid exactly"
    );
    assert!(
        regrid.copy_bytes_view < regrid.copy_bytes_wire,
        "view regrid must move strictly fewer bytes than the staged wire path \
         ({} vs {})",
        regrid.copy_bytes_view,
        regrid.copy_bytes_wire
    );
    assert_eq!(
        regrid.copy_bytes_wire - regrid.copy_bytes_view,
        regrid.self_overlap_bytes,
        "the saving must be exactly the self-overlap staging pass"
    );

    let pack = pack_timing_bench();
    assert!(pack.equal, "both pack arms must fill identical wire bytes");
    println!(
        "   interior pack of {} KiB: extract+copy {:.1}us vs one view copy {:.1}us ({:.2}x)",
        pack.bytes / 1024,
        pack.extract_pack_s * 1e6,
        pack.view_pack_s * 1e6,
        pack.speedup()
    );
    // Like the `backends` gate: a wide host must show the win, a narrow
    // one reports it, a single-core host skips the timing gate outright
    // (byte/bit asserts above always hold).
    if host_cores >= 4 {
        assert!(
            pack.speedup() >= 1.2,
            "one-pass view pack must be >=1.2x over extract-then-pack on \
             {host_cores} host cores (got {:.2}x)",
            pack.speedup()
        );
    } else if host_cores >= 2 {
        println!(
            "   ({host_cores} host cores: pack speedup {:.2}x, informational)",
            pack.speedup()
        );
    } else {
        println!("   (single host core: pack speedup gate skipped)");
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
    assert!(
        ooc.tensor_bytes >= 2 * ooc.limit_bytes,
        "the out-of-core tensor must exceed the workspace cap at least 2x"
    );
    assert!(
        ooc_delta <= 1e-10,
        "tiled sweeps must match in-core within 1e-10 (got {ooc_delta:.2e})"
    );
    assert!(
        ooc.pooled_bytes <= ooc.limit_bytes,
        "the tile pool must respect the byte cap ({} > {})",
        ooc.pooled_bytes,
        ooc.limit_bytes
    );

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
    assert!(
        inc.max_err_delta <= 1e-8,
        "incremental Tucker must track cold recompute within 1e-8 \
         (got {:.2e})",
        inc.max_err_delta
    );

    let kernel_json: Vec<String> = kernel_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"region\": \"{}\", \"kind\": \"{}\", \"mode\": {}, \
                 \"view_s\": {:.9}, \"extract_s\": {:.9}, \"speedup\": {:.4}, \
                 \"bitwise_equal\": {}}}",
                r.region,
                r.kind,
                r.mode,
                r.view_s,
                r.extract_s,
                r.speedup(),
                r.bitwise_equal
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"tucker-bench/views/v1\",\n  \"host_cores\": {host_cores},\n  \
         \"skipped_single_core\": {skipped_single_core},\n  \"kernels\": [\n{}\n  ],\n  \
         \"regrid\": {{\"copy_bytes_wire\": {}, \"copy_bytes_view\": {}, \
         \"self_overlap_bytes\": {}, \"wire_bytes\": {}, \"max_abs_diff\": {:.1}, \
         \"one_copy_per_block\": true}},\n  \
         \"pack\": {{\"bytes\": {}, \"extract_pack_s\": {:.9}, \"view_pack_s\": {:.9}, \
         \"speedup\": {:.4}, \"equal\": {}}},\n  \
         \"outofcore\": {{\"dims\": {:?}, \"ranks\": {:?}, \"tensor_bytes\": {}, \
         \"limit_bytes\": {}, \"pooled_bytes\": {}, \"tile_len\": {}, \"sweeps\": {}, \
         \"err_incore\": {:.12}, \"err_outofcore\": {:.12}, \"err_delta\": {:.3e}, \
         \"incore_s\": {:.9}, \"outofcore_s\": {:.9}}},\n  \
         \"incremental\": {{\"pushes\": {}, \"window\": {:?}, \"slab_len\": {}, \
         \"inc_total_s\": {:.9}, \"full_total_s\": {:.9}, \"inc_sweeps\": {}, \
         \"full_sweeps\": {}, \"max_err_delta\": {:.3e}}}\n}}\n",
        kernel_json.join(",\n"),
        regrid.copy_bytes_wire,
        regrid.copy_bytes_view,
        regrid.self_overlap_bytes,
        regrid.wire_bytes,
        regrid.max_abs_diff,
        pack.bytes,
        pack.extract_pack_s,
        pack.view_pack_s,
        pack.speedup(),
        pack.equal,
        ooc.dims,
        ooc.ranks,
        ooc.tensor_bytes,
        ooc.limit_bytes,
        ooc.pooled_bytes,
        ooc.tile_len,
        ooc.sweeps,
        ooc.err_incore,
        ooc.err_outofcore,
        ooc_delta,
        ooc.incore_s,
        ooc.outofcore_s,
        inc.pushes,
        inc.window,
        inc.slab_len,
        inc.inc_total_s,
        inc.full_total_s,
        inc.inc_sweeps,
        inc.full_sweeps,
        inc.max_err_delta
    );
    let p = write_results("BENCH_views.json", &json);
    println!("-> {}\n", p.display());
}

// ------------------------------------------------------------------ Repro

/// Rerun the generator of one committed artifact. `None` for files no
/// experiment produces (left untouched by `repro`); `Some(Err(..))` when the
/// artifact was regenerated but the generator's own perf gate failed.
fn regenerate_artifact(
    name: &str,
    sample: usize,
    max_p: usize,
    clients: usize,
) -> Option<Result<(), String>> {
    match name {
        "BENCH_kernels.json" => kernels(),
        "BENCH_backends.json" => return Some(backends()),
        "BENCH_serving.json" => serve(clients),
        "BENCH_planner.json" => planner(max_p),
        "BENCH_scaling.json" => scaling(max_p),
        "BENCH_topology.json" => topology(max_p),
        "BENCH_recovery.json" => recovery(max_p),
        "BENCH_views.json" => views(),
        "table1_grid_counts.csv" => table1(),
        "table2_real_tensors.csv" => table2(),
        "fig10a_overall_5d.csv" => fig10_overall(5, sample),
        "fig10b_overall_6d.csv" => fig10_overall(6, sample),
        "fig10c_real_breakdown.csv" => fig10c_real(),
        "fig11a_compute_time_5d.csv" => fig11ab_compute_time(5, sample),
        "fig11b_compute_time_6d.csv" => fig11ab_compute_time(6, sample),
        "fig11c_load_5d.csv" => fig11cd_load(5),
        "fig11d_load_6d.csv" => fig11cd_load(6),
        "fig11e_comm_time.csv" => fig11e_comm_time(sample),
        "fig11f_volume.csv" => fig11f_volume(),
        _ => return None,
    }
    Some(Ok(()))
}

/// Per-schema diff policy for `repro --check`: relative tolerance plus
/// flattened-path substrings to ignore. Virtual-time artifacts (planner,
/// scaling, topology, recovery — engine clocks, ledgers, DP costs, errors)
/// are deterministic and compare tight except the wall-clock `host_s`
/// column; host-measured artifacts compare their deterministic fields
/// (counts, bytes, errors) and ignore host timings; percentile curves of
/// measured wall times are structure-only (`f64::INFINITY`).
fn repro_policy(name: &str) -> (f64, &'static [&'static str]) {
    const HOST_TIMED: &[&str] = &[
        "_s",
        "speedup",
        "host_cores",
        "threads",
        "isa",
        "skipped_single_core",
    ];
    const SERVING_TIMED: &[&str] = &[
        "latency",
        "throughput",
        "elapsed",
        "hit",
        "miss",
        "batch",
        "coalesced",
        "executed_sweeps",
        "rejected",
        "queue_depth",
        "workspace_bytes",
    ];
    match name {
        "table1_grid_counts.csv" => (0.0, &[]),
        "table2_real_tensors.csv" => (1e-6, &[]),
        "fig11c_load_5d.csv" | "fig11d_load_6d.csv" | "fig11f_volume.csv" => (1e-9, &[]),
        // Planner / recovery / scaling / topology mix deterministic model
        // outputs (bytes, counts, virtual-time costs) with measured host
        // wall-clock seconds; only the former are reproducible, so every
        // `*_s` field is excluded and the tight tolerance covers the rest.
        "BENCH_planner.json"
        | "BENCH_recovery.json"
        | "BENCH_scaling.json"
        | "BENCH_topology.json" => (1e-6, &["_s"]),
        "BENCH_kernels.json" | "BENCH_backends.json" | "BENCH_views.json" => (1e-9, HOST_TIMED),
        "BENCH_serving.json" => (1e-9, SERVING_TIMED),
        _ => (f64::INFINITY, &[]),
    }
}

/// Regenerate every artifact currently committed under `results/`; with
/// `check`, diff each fresh file against the committed snapshot under
/// [`repro_policy`], restore the snapshot, print one summary table, and
/// exit non-zero on drift.
fn repro(check: bool, sample: usize, max_p: usize, clients: usize) {
    use tucker_bench::repro::{diff_csv, diff_json};

    let dir = std::path::Path::new("results");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    if names.is_empty() {
        eprintln!(
            "results/ is empty; run `experiments -- all` and `experiments -- views` \
             once to seed the committed artifacts"
        );
        std::process::exit(2);
    }
    let snapshot: Vec<(String, String)> = names
        .iter()
        .map(|n| {
            let body = std::fs::read_to_string(dir.join(n)).expect("read committed artifact");
            (n.clone(), body)
        })
        .collect();

    println!(
        "== Repro: regenerating {} committed artifacts{} ==\n",
        names.len(),
        if check { " (check mode)" } else { "" }
    );
    let mut orphans: Vec<&str> = Vec::new();
    let mut failed_gates: Vec<String> = Vec::new();
    for n in &names {
        match regenerate_artifact(n, sample, max_p, clients) {
            None => orphans.push(n),
            Some(Err(why)) => failed_gates.push(format!("{n}: GATE FAILED: {why}")),
            Some(Ok(())) => {}
        }
    }
    for n in &orphans {
        println!("   (no generator for {n}; left untouched)");
    }
    if !check {
        for g in &failed_gates {
            eprintln!("{g}");
        }
        if !failed_gates.is_empty() {
            std::process::exit(1);
        }
        return;
    }

    let mut failures = 0usize;
    let mut table: Vec<String> = Vec::new();
    for (name, committed) in &snapshot {
        let fresh = std::fs::read_to_string(dir.join(name)).expect("read regenerated artifact");
        let (tol, ignore) = repro_policy(name);
        let d = if name.ends_with(".json") {
            diff_json(committed, &fresh, tol, ignore)
        } else {
            diff_csv(committed, &fresh, tol)
        };
        let status = if let Some(s) = &d.structural {
            failures += 1;
            format!("STRUCTURAL: {s}")
        } else if !d.mismatches.is_empty() {
            failures += 1;
            for m in d.mismatches.iter().take(5) {
                println!("   {name}: {m}");
            }
            format!("DRIFTED ({} fields)", d.mismatches.len())
        } else if tol.is_infinite() {
            "ok (structure)".to_string()
        } else {
            "ok".to_string()
        };
        table.push(format!(
            "{:<28} {:>8} {:>7}  {:>9}  {}",
            name,
            d.compared,
            d.ignored,
            if d.worst_key.is_empty() {
                "-".to_string()
            } else {
                format!("{:.1e}", d.worst_rel)
            },
            status
        ));
    }
    // Every regenerated byte is scratch: put the committed snapshot back so
    // `repro --check` never dirties the tree it certifies.
    for (name, committed) in &snapshot {
        std::fs::write(dir.join(name), committed).expect("restore committed artifact");
    }

    println!(
        "\n{:<28} {:>8} {:>7}  {:>9}  status",
        "artifact", "compared", "ignored", "worst rel"
    );
    for line in &table {
        println!("{line}");
    }
    // A generator's perf gate is its own line: the artifact above was still
    // written and compared field by field.
    for g in &failed_gates {
        println!("{g}");
    }
    if failures > 0 || !failed_gates.is_empty() {
        eprintln!(
            "\n{failures} artifact(s) failed to reproduce under tolerance, {} perf gate(s) failed",
            failed_gates.len()
        );
        std::process::exit(1);
    }
    println!(
        "\nall {} artifacts reproduced under tolerance",
        snapshot.len()
    );
}
