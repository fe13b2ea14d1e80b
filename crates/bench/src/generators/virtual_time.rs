//! The four artifacts recorded under the α–β virtual clock: `planner`,
//! `scaling`, `topology`, `recovery`. Their communication seconds, volumes,
//! plans and errors are `model`; what the host's own clock contributes —
//! replay time, per-rank CPU, and with it the modelled *wall* — is `host`.

use super::{problem_header, ranks_upto, Opts};
use crate::artifact::{secs, Artifact, Fix, Gate, Gates, Obj, Sci};
use tucker_distsim::NetModel;
use tucker_suite::driver::{
    dp_certification, recovery_bench, scaling_meta, scaling_ranks, scaling_sweep, topology_sweep,
    ScalingRow, RECOVERY_FAIL_AFTER_LEAVES, RECOVERY_FAIL_SWEEP, RECOVERY_SWEEPS,
};

/// `|predicted − executed| / executed` of a row's communication wall.
fn rel_err(r: &ScalingRow) -> f64 {
    (r.predicted_comm_s - r.comm_wall_s).abs() / r.comm_wall_s.max(1e-12)
}

fn flat_net(net: &NetModel) -> Obj {
    Obj::new()
        .model("alpha_ns", net.alpha().as_nanos())
        .model("beta_ns_per_byte", Fix(net.beta_ns_per_byte(), 6))
}

/// Planning-layer certification: predicted-vs-simulated virtual time for
/// every plan of the scaling lineup at P = 64…4096 (the 5% invariant is
/// asserted inside `scaling_sweep`), plus the joint-DP-vs-brute-force
/// agreement counts under both cost models (schema
/// `tucker-bench/planner/v1`).
pub(super) fn planner(o: &Opts) -> (Artifact, Gate) {
    let meta = scaling_meta();
    let net = NetModel::bgq();
    let ranks = ranks_upto(&[64, 256, 1024, 4096], o.max_p);
    println!(
        "== Planner: predicted vs simulated virtual time + DP certification \
         (alpha {:?}, beta {:.3} ns/B) ==",
        net.alpha(),
        net.beta_ns_per_byte()
    );
    println!("   problem {meta}, P in {ranks:?}");

    let rows = scaling_sweep(&meta, &ranks, net, &o.mesh);
    for r in &rows {
        println!(
            "   P={:>5} {:>20}: predicted comm {:>11.6}s  executed {:>11.6}s  rel err {:.2e}",
            r.nranks,
            r.strategy,
            r.predicted_comm_s,
            r.comm_wall_s,
            rel_err(r)
        );
    }
    let max_rel = rows.iter().map(rel_err).fold(0.0, f64::max);
    println!("   worst relative prediction error: {max_rel:.2e} (tolerance 5e-2)");

    let mut gates = Gates::default();
    let cert = dp_certification();
    for c in &cert {
        gates.check(c.agreed, || {
            format!(
                "{} P={} under {}: DP {} vs oracle {}",
                c.meta, c.nranks, c.model, c.dp_cost, c.oracle_cost
            )
        });
        println!(
            "   cert {:>24} P={:<2} [{:>9}]: DP {:.6e} == oracle {:.6e} ({} candidates)",
            c.meta, c.nranks, c.model, c.dp_cost, c.oracle_cost, c.candidates
        );
    }
    let agreed = cert.iter().filter(|c| c.agreed).count();
    println!("   DP-vs-brute-force: {agreed}/{} cases agreed", cert.len());

    let doc = problem_header("tucker-bench/planner/v1", &meta)
        .obj("net", flat_net(&net))
        .model_list("ranks", ranks)
        .model("tolerance", 0.05)
        .model("max_rel_err", Sci(max_rel, 3))
        .rows(
            "rows",
            rows.iter().map(|r| {
                Obj::new()
                    .model("p", r.nranks)
                    .model("strategy", r.strategy.as_str())
                    .model("predicted_comm_s", secs(r.predicted_comm_s))
                    .model("executed_comm_s", secs(r.comm_wall_s))
                    .model("rel_err", Sci(rel_err(r), 3))
                    .host("wall_s", secs(r.wall_s))
                    .model("ttm_comm_s", secs(r.ttm_comm_s))
                    .model("gram_comm_s", secs(r.gram_comm_s))
                    .host("regrid_comm_s", secs(r.regrid_comm_s))
            }),
        )
        .rows(
            "dp_certification",
            cert.iter().map(|c| {
                Obj::new()
                    .model("meta", c.meta.as_str())
                    .model("p", c.nranks)
                    .model("model", c.model)
                    .model("dp_cost", Sci(c.dp_cost, 9))
                    .model("oracle_cost", Sci(c.oracle_cost, 9))
                    .model("candidates", c.candidates)
                    .model("agreed", c.agreed)
            }),
        )
        .model("dp_agreed", agreed)
        .model("dp_total", cert.len());
    (Artifact::Json(doc), gates.finish())
}

/// Paper-scale strong scaling (the Fig. 10a/11a analogue honest runs cannot
/// reach): the strategy lineup (the paper's four plus the joint-DP plan) at
/// P = 64…8192 simulated BG/Q nodes in virtual time. Ledger volumes are
/// validated against the §4.1/§4.3 closed forms and virtual clocks against
/// the planner's α–β prediction inside the sweep (schema
/// `tucker-bench/scaling/v1`).
pub(super) fn scaling(o: &Opts) -> (Artifact, Gate) {
    let meta = scaling_meta();
    let net = NetModel::bgq();
    let ranks = ranks_upto(&scaling_ranks(), o.max_p);
    println!(
        "== Scaling: four-strategy lineup, virtual time (alpha {:?}, beta {:.3} ns/B) ==",
        net.alpha(),
        net.beta_ns_per_byte()
    );
    println!("   problem {meta}, P in {ranks:?}");

    let t0 = std::time::Instant::now();
    let rows = scaling_sweep(&meta, &ranks, net, &o.mesh);
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
    let top_p = *ranks.last().expect("ranks_upto is non-empty");
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

    let doc = problem_header("tucker-bench/scaling/v1", &meta)
        .obj("net", flat_net(&net))
        .model_list("ranks", ranks)
        .rows(
            "rows",
            rows.iter().map(|r| {
                Obj::new()
                    .model("backend", r.backend)
                    .model("p", r.nranks)
                    .model("strategy", r.strategy.as_str())
                    .host("wall_s", secs(r.wall_s))
                    .host("ttm_compute_s", secs(r.ttm_compute_s))
                    .model("ttm_comm_s", secs(r.ttm_comm_s))
                    // Virtual α–β time *plus* the measured pack/unpack CPU.
                    .host("regrid_comm_s", secs(r.regrid_comm_s))
                    .model("gram_comm_s", secs(r.gram_comm_s))
                    .host("svd_s", secs(r.svd_s))
                    .model("ttm_elements", r.ttm_elements)
                    .model("regrid_elements", r.regrid_elements)
                    .model("gram_elements", r.gram_elements)
                    .model("model_ttm_elements", Fix(r.model_ttm_elements, 1))
                    .model("model_regrid_elements", Fix(r.model_regrid_elements, 1))
                    .model("predicted_comm_s", secs(r.predicted_comm_s))
                    .model("comm_wall_s", secs(r.comm_wall_s))
                    .model("error", Fix(r.error, 12))
                    .host("host_s", Fix(r.host_s, 3))
            }),
        );
    (Artifact::Json(doc), Ok(()))
}

/// Topology comparison at paper-scale rank counts: the topology-aware DP
/// plan (ranked under the hierarchical cluster `NetCostModel`) against the
/// flat-model DP plan (ranked under a flat model carrying the same
/// inter-node α–β), both executed on the hierarchical simulator. The
/// nanosecond predict-vs-execute invariant per topology is asserted inside
/// `topology_sweep`; the strict topology-beats-flat win at every swept P is
/// this experiment's gate (schema `tucker-bench/topology/v1`).
pub(super) fn topology(o: &Opts) -> (Artifact, Gate) {
    let meta = scaling_meta();
    let hier = NetModel::cluster();
    let ranks = ranks_upto(&scaling_ranks(), o.max_p);
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

    let mut gates = Gates::default();
    let rows = topology_sweep(&meta, &ranks, hier, &o.mesh);
    for r in &rows {
        gates.check(r.topo_comm_s < r.flat_comm_s, || {
            format!(
                "P={}: topology-aware plan ({}s, grid {}) must strictly beat the \
                 flat-model plan ({}s, grid {})",
                r.nranks, r.topo_comm_s, r.topo_initial_grid, r.flat_comm_s, r.flat_initial_grid
            )
        });
        gates.check(r.topo_wall_s >= r.topo_comm_s, || {
            format!(
                "P={}: modelled wall {}s is shorter than its communication {}s",
                r.nranks, r.topo_wall_s, r.topo_comm_s
            )
        });
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

    let net = Obj::new()
        .model("intra_alpha_ns", hier.intra_alpha().as_nanos())
        .model(
            "intra_beta_ns_per_byte",
            Fix(hier.intra_beta_ns_per_byte(), 6),
        )
        .model("inter_alpha_ns", hier.alpha().as_nanos())
        .model("inter_beta_ns_per_byte", Fix(hier.beta_ns_per_byte(), 6))
        .model("node_size", hier.node_size());
    let doc = problem_header("tucker-bench/topology/v1", &meta)
        .obj("net", net)
        .model_list("ranks", ranks)
        .rows(
            "rows",
            rows.iter().map(|r| {
                Obj::new()
                    .model("p", r.nranks)
                    .model("topo_plan", r.topo_plan.as_str())
                    .model("topo_initial_grid", r.topo_initial_grid.as_str())
                    .model("flat_plan", r.flat_plan.as_str())
                    .model("flat_initial_grid", r.flat_initial_grid.as_str())
                    .model("topo_comm_s", secs(r.topo_comm_s))
                    .model("flat_comm_s", secs(r.flat_comm_s))
                    .model("topo_predicted_comm_s", secs(r.topo_predicted_comm_s))
                    .model("flat_predicted_comm_s", secs(r.flat_predicted_comm_s))
                    .model("control_comm_s", secs(r.control_comm_s))
                    .model("control_predicted_comm_s", secs(r.control_predicted_comm_s))
                    .model("comm_speedup", Fix(r.comm_speedup, 4))
                    .host("topo_wall_s", secs(r.topo_wall_s))
                    .host("host_s", Fix(r.host_s, 3))
            }),
        );
    (Artifact::Json(doc), gates.finish())
}

/// Failure-recovery smoke: kill one rank mid-sweep at paper-scale rank
/// counts under the mesh runtime and compare recovery (quarantine →
/// survivor re-plan → resume, DESIGN.md §9) against fail-stop (abort +
/// from-scratch restart on the survivors). The 1e-10 recovered-vs-restart
/// differential is asserted inside `recovery_bench` (schema
/// `tucker-bench/recovery/v1`).
pub(super) fn recovery(o: &Opts) -> (Artifact, Gate) {
    const TOLERANCE: f64 = 1e-10;
    let meta = scaling_meta();
    let net = NetModel::bgq();
    let ranks = ranks_upto(&[64, 1024], o.max_p);
    println!(
        "== Recovery: injected mid-sweep rank failure vs fail-stop, P = {ranks:?}, \
         {RECOVERY_SWEEPS} sweeps, kill P/2 at sweep {RECOVERY_FAIL_SWEEP} \
         after {RECOVERY_FAIL_AFTER_LEAVES} leaves =="
    );
    let mut gates = Gates::default();
    let rows = recovery_bench(&meta, &ranks, net, &o.mesh);
    let gap = |r: &tucker_suite::driver::RecoveryRow| (r.recovered_error - r.failstop_error).abs();
    for r in &rows {
        // Killing one rank leaves a count with no valid grid on the core
        // shape, so recovery also shrinks to the largest usable count.
        gates.check(r.survivors < r.nranks, || {
            format!("P={}: survivor grid must shrink", r.nranks)
        });
        gates.check(r.salvaged_leaves > 0 && !r.replanned.is_empty(), || {
            format!(
                "P={}: the resume must salvage leaves under a named plan",
                r.nranks
            )
        });
        gates.check(r.wasted_sweeps_recover < r.wasted_sweeps_failstop, || {
            format!(
                "P={}: recovery re-executes {} committed sweeps, fail-stop {}",
                r.nranks, r.wasted_sweeps_recover, r.wasted_sweeps_failstop
            )
        });
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
            gap(r)
        );
    }
    let doc = problem_header("tucker-bench/recovery/v1", &meta)
        .obj("net", flat_net(&net))
        .model("sweeps", RECOVERY_SWEEPS)
        .model("fail_sweep", RECOVERY_FAIL_SWEEP)
        .model("fail_after_leaves", RECOVERY_FAIL_AFTER_LEAVES)
        .model("tolerance", TOLERANCE)
        .model_list("ranks", ranks)
        .rows(
            "rows",
            rows.iter().map(|r| {
                Obj::new()
                    .model("p", r.nranks)
                    .model("survivors", r.survivors)
                    .model("replanned", r.replanned.as_str())
                    .model("fail_sweep", r.fail_sweep)
                    .model("resumed_sweep", r.resumed_sweep)
                    .model("salvaged_leaves", r.salvaged_leaves)
                    .model("reused_elements", r.reused_elements)
                    .host("recover_total_s", Fix(r.recover_total_s, 6))
                    .host("time_to_recover_s", Fix(r.time_to_recover_s, 6))
                    .host("restart_total_s", Fix(r.restart_total_s, 6))
                    .model("wasted_sweeps_recover", r.wasted_sweeps_recover)
                    .model("wasted_sweeps_failstop", r.wasted_sweeps_failstop)
                    .model("recovered_error", Fix(r.recovered_error, 15))
                    .model("failstop_error", Fix(r.failstop_error, 15))
                    .bounded("error_gap", Sci(gap(r), 3), TOLERANCE)
            }),
        );
    (Artifact::Json(doc), gates.finish())
}
