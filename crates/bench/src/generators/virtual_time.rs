//! The four artifacts recorded under the α–β virtual clock: `planner`,
//! `scaling`, `topology`, `recovery`. Each generator runs its experiment on
//! the engine and writes the library's own values — `SweepStats`,
//! `MeshHooiOutput::volume()`, `RecoveryEvent`, `Plan` — straight into its
//! document. Their communication and compute seconds, virtual walls,
//! volumes, plans and errors are `model`: under a `NetModel` every clock a
//! rank owns is priced (α–β per message, γ per flop) and none reads the
//! host. What the host's own clock contributes — replay time, recovery
//! time — is `host`.
//!
//! The invariants without which the numbers mean nothing are `assert!`s next
//! to the runs they hold for: the ledger's TTM volume equals §4.1 and its
//! regrid volume stays within §4.3, the α–β–γ prediction equals the executed
//! clocks, and a recovered run lands within 1e-10 of a from-scratch one.

use super::{problem_header, ranks_upto, Opts};
use crate::artifact::{secs, Artifact, Fix, Gate, Gates, Obj, Sci};
use std::time::{Duration, Instant};
use tucker_core::engine::{DistRun, EngineConfig, FailurePolicy, InjectedFault, MeshHooiOutput};
use tucker_core::executor::SweepStats;
use tucker_core::plan::brute_force::{enumerate_all_trees, min_sweep_cost};
use tucker_core::plan::cost::{sweep_cost, CostModel, FlopVolumeModel, NetCostModel};
use tucker_core::plan::grid::candidate_grids;
use tucker_core::plan::{Plan, Planner, SearchBudget};
use tucker_core::TuckerMeta;
use tucker_distsim::{NetModel, VolumeCategory};
use tucker_suite::driver::scaling_meta;
use tucker_suite::fields::hash_noise;

/// Rank counts of the scaling and topology sweeps (the paper's Figures
/// 10/11 ranges).
const SCALING_RANKS: [usize; 5] = [64, 256, 1024, 4096, 8192];
/// Sweep budget of the recovery runs.
const RECOVERY_SWEEPS: usize = 2;
/// Sweep the injected failure strikes.
const RECOVERY_FAIL_SWEEP: usize = 1;
/// Leaves of the failure sweep completed before the injected death.
const RECOVERY_FAIL_AFTER_LEAVES: usize = 2;

/// The tensor every virtual-time run decomposes.
fn fill(c: &[usize]) -> f64 {
    hash_noise(c, 0x5CA1E)
}

/// `net`'s virtual clock, no core gather: only the stats matter, and the
/// world all-gather is `O(P²)` messages.
fn stats_only(net: NetModel) -> EngineConfig {
    EngineConfig {
        gather_core: false,
        ..EngineConfig::virtual_time(net)
    }
}

/// The α–β forecast the engine stamped on a virtual-time sweep:
/// `NetCostModel::predict_sweep(..).comm_wall` of the plan it ran.
fn predicted(s: &SweepStats) -> Duration {
    s.provenance
        .as_ref()
        .and_then(|p| p.predicted_comm)
        .expect("a virtual-time sweep carries its forecast")
}

/// `|predicted − executed| / executed` of a sweep's communication wall.
fn rel_err(s: &SweepStats) -> f64 {
    let executed = s.comm_wall.as_secs_f64();
    (predicted(s).as_secs_f64() - executed).abs() / executed.max(1e-12)
}

/// A duration written as seconds at nanosecond resolution.
fn dsecs(d: Duration) -> Fix {
    secs(d.as_secs_f64())
}

fn flat_net(net: &NetModel) -> Obj {
    Obj::new()
        .model("alpha_ns", net.alpha().as_nanos())
        .model("beta_ns_per_byte", Fix(net.beta_ns_per_byte(), 6))
        .model("gamma_ns_per_flop", Fix(net.gamma_ns_per_flop(), 6))
}

/// One replayed configuration: the plan, the engine's one-sweep run of it,
/// and the host seconds the replay took (how fast the simulator runs, not a
/// modelled quantity).
type Replay = (Plan, MeshHooiOutput, f64);

/// Replay the paper's four-strategy lineup **plus the joint-DP plan**
/// (`(dp, joint)`, ranked under the α–β [`NetCostModel`]) at each rank
/// count under the virtual-time α–β clock (no core gather), one HOOI sweep
/// each on `workers` mesh workers (0 = the host's default pool); only the
/// host-clock values may depend on the pool.
///
/// Every run is checked against its models, on two levels:
/// * **volume**: the ledger's TTM reduce-scatter volume must equal the §4.1
///   closed form `Σ (q_n − 1)|Out(u)|` (tree + core chain) within 1e-9
///   relative, and the regrid volume must stay within the §4.3 `Σ |In(u)|`
///   bound;
/// * **virtual time**: the planner's `NetCostModel::predict_sweep`
///   communication wall, its TTM, regrid and Gram splits, the TTM compute,
///   the SVD and the sweep's wall must equal the engine-executed virtual
///   clocks to the nanosecond — the prediction-vs-execution invariant of
///   DESIGN.md §6.
///
/// # Panics
/// Panics if a measured volume or virtual clock contradicts its model.
fn lineup_replay(meta: &TuckerMeta, ranks: &[usize], net: NetModel, workers: usize) -> Vec<Replay> {
    let cfg = stats_only(net);
    let mut replays = Vec::new();
    for &p in ranks {
        let planner = Planner::new(meta.clone(), p);
        let net_model = NetCostModel::new(net, p);
        let mut lineup = planner.paper_lineup();
        lineup.push(planner.best_plan_with(&net_model, &SearchBudget::winner_only()));
        for plan in lineup {
            let host0 = Instant::now();
            let out = DistRun::of(&plan, 1)
                .config(cfg.clone())
                .workers(workers)
                .run(fill);
            let host_s = host0.elapsed().as_secs_f64();
            let s = &out.per_sweep[0];
            // Sweeps ran once, so the run-level ledger *is* the sweep ledger
            // for TTM and regrid (init generates Gram/Other traffic only) —
            // and it is exact, unlike the per-rank sweep windows.
            let volume = out.volume();
            let ttm_elements = volume.elements(VolumeCategory::TtmReduceScatter);
            let regrid_elements = volume.elements(VolumeCategory::Regrid);
            let model_ttm = plan.modeled_sweep_ttm_elements();
            let model_regrid = plan.modeled_regrid_elements();
            assert!(
                (ttm_elements as f64 - model_ttm).abs() <= model_ttm.max(1.0) * 1e-9,
                "{} P={p}: ledger TTM {ttm_elements} vs §4.1 model {model_ttm}",
                plan.name()
            );
            assert!(
                regrid_elements as f64 <= model_regrid * (1.0 + 1e-9) + 1e-9,
                "{} P={p}: ledger regrid {regrid_elements} exceeds §4.3 bound {model_regrid}",
                plan.name()
            );

            // Prediction vs execution: the planner's α–β forecast equals
            // the virtual clocks the engine accumulated.
            let pred = plan.predict_net(&net_model);
            for (predicted, executed, what) in [
                (pred.comm_wall, s.comm_wall, "comm wall"),
                (pred.ttm_comm, s.ttm_comm, "TTM comm"),
                (pred.regrid_comm, s.regrid_comm, "regrid comm"),
                (pred.gram_comm, s.gram_comm, "Gram comm"),
                (pred.ttm_compute, s.ttm_compute, "TTM compute"),
                (pred.svd, s.svd, "SVD"),
                (pred.wall, s.wall, "wall"),
            ] {
                assert_eq!(predicted, executed, "{} P={p}: {what}", plan.name());
            }
            replays.push((plan, out, host_s));
        }
    }
    replays
}

/// Planning-layer certification: predicted-vs-simulated virtual time for
/// every plan of the scaling lineup at P = 64…4096 (their equality is
/// asserted inside [`lineup_replay`]), plus the joint-DP-vs-brute-force
/// agreement under both cost models (schema `tucker-bench/planner/v1`).
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

    let replays = lineup_replay(&meta, &ranks, net, o.workers);
    for (plan, out, _) in &replays {
        let s = &out.per_sweep[0];
        println!(
            "   P={:>5} {:>20}: predicted comm {:>11.6}s  executed {:>11.6}s  rel err {:.2e}",
            plan.nranks,
            plan.name(),
            predicted(s).as_secs_f64(),
            s.comm_wall.as_secs_f64(),
            rel_err(s)
        );
    }
    let max_rel = replays
        .iter()
        .map(|(_, out, _)| rel_err(&out.per_sweep[0]))
        .fold(0.0, f64::max);
    println!("   worst relative prediction error: {max_rel:.2e} (asserted 0)");

    // Certify the joint grid × tree × order DP against full brute-force
    // enumeration (every TTM-tree, every grid assignment) under both cost
    // models. N ≤ 3 keeps the oracle truly exhaustive (every tree × every
    // assignment); larger orders are covered by the sampling proptests.
    // The 16³ case has a symmetric mode class; the fully symmetric 40³
    // case at P=16 additionally forces an *uneven* split across the class
    // (<2,2,4> orbits), pinning the orbit-representative scoring: the
    // core-chain price is class-order-sensitive, so a naive mirror-grid
    // dedup would return a ~2% suboptimal plan here under the net model.
    let cases = [
        (TuckerMeta::new([16, 16], [4, 4]), 4usize),
        (TuckerMeta::new([20, 50, 100], [4, 25, 10]), 4),
        (TuckerMeta::new([16, 16, 16], [4, 2, 4]), 4),
        (TuckerMeta::new([40, 40, 40], [4, 4, 4]), 16),
    ];
    let mut gates = Gates::default();
    let mut cert = Vec::new();
    let mut agreed = 0;
    for (case, p) in cases {
        let label = case.to_string();
        let grids = candidate_grids(&case, p);
        let trees = enumerate_all_trees(&case);
        let planner = Planner::new(case.clone(), p);
        let net_model = NetCostModel::new(NetModel::bgq(), p);
        let models: [&dyn CostModel; 2] = [&FlopVolumeModel, &net_model];
        for model in models {
            let dp = planner.best_plan_with(model, &SearchBudget::winner_only());
            let dp_cost = sweep_cost(model, &case, &dp.tree, &dp.grids);
            let mut oracle = f64::INFINITY;
            for tree in &trees {
                oracle = oracle.min(min_sweep_cost(tree, &case, &grids, model));
            }
            let candidates = trees.len() * grids.len();
            let ok = (dp_cost - oracle).abs() <= oracle.abs().max(1.0) * 1e-9;
            gates.check(ok, || {
                format!(
                    "{label} P={p} under {}: DP {dp_cost} vs oracle {oracle}",
                    model.name()
                )
            });
            println!(
                "   cert {label:>24} P={p:<2} [{:>9}]: DP {dp_cost:.6e} == oracle {oracle:.6e} \
                 ({candidates} candidates)",
                model.name()
            );
            agreed += usize::from(ok);
            cert.push(
                Obj::new()
                    .model("meta", label.as_str())
                    .model("p", p)
                    .model("model", model.name())
                    .model("dp_cost", Sci(dp_cost, 9))
                    .model("oracle_cost", Sci(oracle, 9))
                    .model("candidates", candidates)
                    .model("agreed", ok),
            );
        }
    }
    println!("   DP-vs-brute-force: {agreed}/{} cases agreed", cert.len());

    let total = cert.len();
    let doc = problem_header("tucker-bench/planner/v1", &meta)
        .obj("net", flat_net(&net))
        .model_list("ranks", ranks)
        .model("tolerance", 0.0)
        .model("max_rel_err", Sci(max_rel, 3))
        .rows(
            "rows",
            replays.iter().map(|(plan, out, _)| {
                let s = &out.per_sweep[0];
                Obj::new()
                    .model("p", plan.nranks)
                    .model("strategy", plan.name())
                    .model("predicted_comm_s", dsecs(predicted(s)))
                    .model("executed_comm_s", dsecs(s.comm_wall))
                    .model("rel_err", Sci(rel_err(s), 3))
                    .model("wall_s", dsecs(s.wall))
                    .model("ttm_comm_s", dsecs(s.ttm_comm))
                    .model("gram_comm_s", dsecs(s.gram_comm))
                    .model("regrid_comm_s", dsecs(s.regrid_comm))
            }),
        )
        .rows("dp_certification", cert)
        .model("dp_agreed", agreed)
        .model("dp_total", total);
    (Artifact::Json(doc), gates.finish())
}

/// Paper-scale strong scaling (the Fig. 10a/11a analogue honest runs cannot
/// reach): the strategy lineup (the paper's four plus the joint-DP plan) at
/// P = 64…8192 simulated BG/Q nodes in virtual time. Ledger volumes are
/// validated against the §4.1/§4.3 closed forms and virtual clocks against
/// the planner's α–β prediction inside [`lineup_replay`] (schema
/// `tucker-bench/scaling/v1`).
pub(super) fn scaling(o: &Opts) -> (Artifact, Gate) {
    let meta = scaling_meta();
    let net = NetModel::bgq();
    let ranks = ranks_upto(&SCALING_RANKS, o.max_p);
    println!(
        "== Scaling: four-strategy lineup, virtual time (alpha {:?}, beta {:.3} ns/B) ==",
        net.alpha(),
        net.beta_ns_per_byte()
    );
    println!("   problem {meta}, P in {ranks:?}");

    let t0 = Instant::now();
    let replays = lineup_replay(&meta, &ranks, net, o.workers);
    let elapsed = t0.elapsed();

    let mut prev_p = 0;
    let mut rows = Vec::new();
    for (plan, out, host_s) in &replays {
        let s = &out.per_sweep[0];
        let volume = out.volume();
        let ttm_elements = volume.elements(VolumeCategory::TtmReduceScatter);
        let regrid_elements = volume.elements(VolumeCategory::Regrid);
        if plan.nranks != prev_p {
            println!("  P = {}", plan.nranks);
            prev_p = plan.nranks;
        }
        println!(
            "    {:>20}: wall {:>11.6}s  ttm-comp {:>10.6}s  ttm-comm {:>10.6}s  \
             regrid {:>10.6}s  gram {:>10.6}s  vol {}/{}/{}  (host {:.1}s)",
            plan.name(),
            s.wall.as_secs_f64(),
            s.ttm_compute.as_secs_f64(),
            s.ttm_comm.as_secs_f64(),
            s.regrid_comm.as_secs_f64(),
            s.gram_comm.as_secs_f64(),
            ttm_elements,
            regrid_elements,
            s.gram_volume,
            host_s,
        );
        rows.push(
            Obj::new()
                .model("backend", "distsim")
                .model("p", plan.nranks)
                .model("strategy", plan.name())
                .model("wall_s", dsecs(s.wall))
                .model("ttm_compute_s", dsecs(s.ttm_compute))
                .model("ttm_comm_s", dsecs(s.ttm_comm))
                .model("regrid_comm_s", dsecs(s.regrid_comm))
                .model("gram_comm_s", dsecs(s.gram_comm))
                .model("svd_s", dsecs(s.svd))
                .model("ttm_elements", ttm_elements)
                .model("regrid_elements", regrid_elements)
                // The sweep's own window, so it pairs with `gram_comm_s`
                // (the HOSVD-init Gram traffic is excluded).
                .model("gram_elements", s.gram_volume)
                .model(
                    "model_ttm_elements",
                    Fix(plan.modeled_sweep_ttm_elements(), 1),
                )
                .model(
                    "model_regrid_elements",
                    Fix(plan.modeled_regrid_elements(), 1),
                )
                .model("predicted_comm_s", dsecs(predicted(s)))
                .model("comm_wall_s", dsecs(s.comm_wall))
                .model("error", Fix(s.error, 12))
                .host("host_s", Fix(*host_s, 3)),
        );
    }
    let top_p = *ranks.last().expect("ranks_upto is non-empty");
    let top_host: f64 = replays
        .iter()
        .filter(|(plan, ..)| plan.nranks == top_p)
        .map(|(.., host_s)| host_s)
        .sum();
    println!(
        "   (swept {} configurations in {elapsed:.1?}; P = {top_p} four-strategy block \
         took {top_host:.1}s of host time)",
        replays.len()
    );

    let doc = problem_header("tucker-bench/scaling/v1", &meta)
        .obj("net", flat_net(&net))
        .model_list("ranks", ranks)
        .rows("rows", rows);
    (Artifact::Json(doc), Ok(()))
}

/// One rank count of the topology comparison: the topology-aware plan, the
/// flat-model plan, their one-sweep runs `[topology-aware plan on the
/// hierarchical simulator, flat-model plan on it, flat-model plan on the
/// flat simulator]`, and the host seconds of the three.
type TopologyReplay = (Plan, Plan, [MeshHooiOutput; 3], f64);

/// Compare topology-aware planning against flat-model planning at each rank
/// count: plan once under the hierarchical [`NetCostModel`] (which sees link
/// classes and may pick axes-reordered, node-aligned grids) and once under a
/// flat model carrying the same inter-node α–β, then execute **both** plans
/// on the hierarchical simulator (`hier`, e.g. [`NetModel::cluster`]) for
/// one HOOI sweep, plus the flat plan on the flat simulator as a control.
///
/// Every run is checked:
/// * the predicted communication wall matches the executed one **to the
///   nanosecond** for all three runs — the §6 invariant, per topology;
/// * the topology-aware plan never loses to the flat-model plan on executed
///   communication. (The *strict* win at paper-scale rank counts is gated
///   by the `topology` experiment, not here, so small smoke sweeps where
///   both models pick the same plan stay valid.)
///
/// # Panics
/// Panics if a prediction misses its executed clock or the topology-aware
/// plan loses.
fn topology_sweep(
    meta: &TuckerMeta,
    ranks: &[usize],
    hier: NetModel,
    workers: usize,
) -> Vec<TopologyReplay> {
    assert!(
        hier.is_hierarchical(),
        "topology sweep needs a hierarchical model"
    );
    let flat = hier.flattened();
    let (hier_cfg, flat_cfg) = (stats_only(hier), stats_only(flat));
    let mut replays = Vec::new();
    for &p in ranks {
        let planner = Planner::new(meta.clone(), p);
        let hier_model = NetCostModel::new(hier, p);
        let flat_model = NetCostModel::new(flat, p);
        // The topology-aware side builds the full portfolio (hierarchical
        // DP candidates, the topology-blind winner, node-aligned
        // relabelings) and lets the exact predict_sweep replay pick; the
        // flat side is the plain DP winner (the baseline a topology-blind
        // planner would ship).
        let topo_plan = planner.best_plan_net(&hier_model, &SearchBudget::default());
        let flat_plan = planner.best_plan_with(&flat_model, &SearchBudget::winner_only());

        let host0 = Instant::now();
        let run = |plan, cfg: &EngineConfig| {
            DistRun::of(plan, 1)
                .config(cfg.clone())
                .workers(workers)
                .run(fill)
        };
        let topo_out = run(&topo_plan, &hier_cfg);
        let flat_out = run(&flat_plan, &hier_cfg);
        let ctrl_out = run(&flat_plan, &flat_cfg);
        let host_s = host0.elapsed().as_secs_f64();

        // The §6 invariant, per topology: predict_sweep replays the exact
        // per-rank α–β–γ charges, so prediction == execution to the
        // nanosecond, the communication wall and the sweep's wall alike.
        for (plan, model, out, what) in [
            (&topo_plan, &hier_model, &topo_out, "topo-plan hierarchical"),
            (&flat_plan, &hier_model, &flat_out, "flat-plan hierarchical"),
            (&flat_plan, &flat_model, &ctrl_out, "flat-plan flat"),
        ] {
            let (pred, exec) = (plan.predict_net(model), &out.per_sweep[0]);
            for (pred, exec, clock) in [
                (pred.comm_wall, exec.comm_wall, "comm wall"),
                (pred.wall, exec.wall, "wall"),
            ] {
                assert_eq!(
                    pred.as_nanos(),
                    exec.as_nanos(),
                    "P={p}: predicted {what} {clock} {pred:?} != executed {exec:?}"
                );
            }
        }

        let topo_comm_s = topo_out.per_sweep[0].comm_wall.as_secs_f64();
        let flat_comm_s = flat_out.per_sweep[0].comm_wall.as_secs_f64();
        assert!(
            topo_comm_s <= flat_comm_s * (1.0 + 1e-12),
            "P={p}: topology-aware plan executed {topo_comm_s}s, flat-model plan {flat_comm_s}s"
        );
        replays.push((topo_plan, flat_plan, [topo_out, flat_out, ctrl_out], host_s));
    }
    replays
}

/// Topology comparison at paper-scale rank counts: the topology-aware DP
/// plan (ranked under the hierarchical cluster `NetCostModel`) against the
/// flat-model DP plan (ranked under a flat model carrying the same
/// inter-node α–β), both executed on the hierarchical simulator. The
/// nanosecond predict-vs-execute invariant per topology is asserted inside
/// [`topology_sweep`]; the strict topology-beats-flat win at every swept P
/// is this experiment's gate (schema `tucker-bench/topology/v1`).
pub(super) fn topology(o: &Opts) -> (Artifact, Gate) {
    let meta = scaling_meta();
    let hier = NetModel::cluster();
    let ranks = ranks_upto(&SCALING_RANKS, o.max_p);
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
    let mut rows = Vec::new();
    for (topo_plan, flat_plan, [topo, flat, ctrl], host_s) in
        &topology_sweep(&meta, &ranks, hier, o.workers)
    {
        let p = topo_plan.nranks;
        let (topo, flat, ctrl) = (&topo.per_sweep[0], &flat.per_sweep[0], &ctrl.per_sweep[0]);
        let (topo_grid, flat_grid) = (
            topo_plan.grids.initial.to_string(),
            flat_plan.grids.initial.to_string(),
        );
        let topo_comm_s = topo.comm_wall.as_secs_f64();
        let flat_comm_s = flat.comm_wall.as_secs_f64();
        let comm_speedup = flat_comm_s / topo_comm_s.max(f64::MIN_POSITIVE);
        gates.check(topo_comm_s < flat_comm_s, || {
            format!(
                "P={p}: topology-aware plan ({topo_comm_s}s, grid {topo_grid}) must strictly \
                 beat the flat-model plan ({flat_comm_s}s, grid {flat_grid})"
            )
        });
        gates.check(topo.wall >= topo.comm_wall, || {
            format!(
                "P={p}: modelled wall {}s is shorter than its communication {topo_comm_s}s",
                topo.wall.as_secs_f64()
            )
        });
        println!(
            "   P={p:>5}: topo {topo_comm_s:>11.6}s (grid {topo_grid})  flat-plan \
             {flat_comm_s:>11.6}s (grid {flat_grid})  speedup {comm_speedup:>5.3}x  \
             flat-sim control {:>11.6}s  (host {host_s:.1}s)",
            ctrl.comm_wall.as_secs_f64()
        );
        rows.push(
            Obj::new()
                .model("p", p)
                .model("topo_plan", topo_plan.name())
                .model("topo_initial_grid", topo_grid)
                .model("flat_plan", flat_plan.name())
                .model("flat_initial_grid", flat_grid)
                .model("topo_comm_s", dsecs(topo.comm_wall))
                .model("flat_comm_s", dsecs(flat.comm_wall))
                .model("topo_predicted_comm_s", dsecs(predicted(topo)))
                .model("flat_predicted_comm_s", dsecs(predicted(flat)))
                .model("control_comm_s", dsecs(ctrl.comm_wall))
                .model("control_predicted_comm_s", dsecs(predicted(ctrl)))
                .model("comm_speedup", Fix(comm_speedup, 4))
                .model("topo_wall_s", dsecs(topo.wall))
                .host("host_s", Fix(*host_s, 3)),
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
        .model("node_size", hier.node_size())
        .model("gamma_ns_per_flop", Fix(hier.gamma_ns_per_flop(), 6));
    let doc = problem_header("tucker-bench/topology/v1", &meta)
        .obj("net", net)
        .model_list("ranks", ranks)
        .rows("rows", rows);
    (Artifact::Json(doc), gates.finish())
}

/// Failure recovery against fail-stop at paper-scale rank counts: kill rank
/// `P/2` mid-sweep (sweep [`RECOVERY_FAIL_SWEEP`], after
/// [`RECOVERY_FAIL_AFTER_LEAVES`] leaves) under [`FailurePolicy::Recover`]
/// (quarantine → survivor re-plan → resume, DESIGN.md §9), and compare the
/// recovered run against the two fail-stop halves — an
/// [`FailurePolicy::Abort`] run of the same fault (the pre-failure prefix)
/// plus a from-scratch run on the survivor count (the restart). Exactly one
/// recovery round, live blocks reused and the recovered final error within
/// 1e-10 of the from-scratch run are asserted (schema
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
    let recover_cfg = EngineConfig {
        on_failure: FailurePolicy::recover(),
        ..stats_only(net)
    };
    let abort_cfg = stats_only(net);
    let run = |p: usize, cfg: &EngineConfig| {
        DistRun::new(&meta, p, RECOVERY_SWEEPS)
            .config(cfg.clone())
            .workers(o.workers)
    };
    let mut gates = Gates::default();
    let mut rows = Vec::new();
    for &p in &ranks {
        let fault = InjectedFault {
            rank: p / 2,
            sweep: RECOVERY_FAIL_SWEEP,
            after_leaves: RECOVERY_FAIL_AFTER_LEAVES,
        };

        let host0 = Instant::now();
        let out = run(p, &recover_cfg).fault(fault).run(fill);
        let recover_total_s = host0.elapsed().as_secs_f64();
        assert_eq!(out.recoveries.len(), 1, "P={p}: exactly one recovery round");
        let ev = &out.recoveries[0];
        assert_eq!(ev.dead_ranks, vec![p / 2], "P={p}: the injected rank dies");
        assert!(
            ev.reused_elements > 0,
            "P={p}: live blocks must seed resume"
        );

        // Fail-stop prefix: the same fault under Abort, timed to the panic.
        let host1 = Instant::now();
        let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(p, &abort_cfg).fault(fault).run(fill)
        }));
        let prefix_s = host1.elapsed().as_secs_f64();
        assert!(aborted.is_err(), "P={p}: Abort must re-raise the failure");

        // Fail-stop restart: from scratch on the survivor count, full
        // budget — also the 1e-10 differential oracle for the recovery.
        let host2 = Instant::now();
        let clean = run(ev.survivors, &recover_cfg).run(fill);
        let restart_total_s = host2.elapsed().as_secs_f64();
        let recovered_error = out.per_sweep.last().unwrap().error;
        let failstop_error = clean.per_sweep.last().unwrap().error;
        assert!(
            (recovered_error - failstop_error).abs() < 1e-10,
            "P={p}: recovered {recovered_error} vs from-scratch {failstop_error}"
        );

        // Committed sweeps each policy re-executes: recovery those after
        // its resume point, fail-stop every pre-failure sweep.
        let wasted_recover = RECOVERY_FAIL_SWEEP - ev.resumed_sweep;
        let wasted_failstop = RECOVERY_FAIL_SWEEP;
        assert!(wasted_recover <= wasted_failstop);
        // Host wall from the failure to completion under recovery.
        let time_to_recover_s = (recover_total_s - prefix_s).max(0.0);
        let gap = (recovered_error - failstop_error).abs();

        // Killing one rank leaves a count with no valid grid on the core
        // shape, so recovery also shrinks to the largest usable count.
        gates.check(ev.survivors < p, || {
            format!("P={p}: survivor grid must shrink")
        });
        gates.check(ev.salvaged_leaves > 0 && !ev.replanned.is_empty(), || {
            format!("P={p}: the resume must salvage leaves under a named plan")
        });
        gates.check(wasted_recover < wasted_failstop, || {
            format!(
                "P={p}: recovery re-executes {wasted_recover} committed sweeps, \
                 fail-stop {wasted_failstop}"
            )
        });
        println!(
            "   P={p:<5} -> {:<5} survivors [{}]: recover {recover_total_s:.3}s \
             (to-recover {time_to_recover_s:.3}s, {wasted_recover} wasted sweeps, {} salvaged \
             leaves, {} elements reused) vs fail-stop restart {restart_total_s:.3}s \
             ({wasted_failstop} wasted sweeps); err gap {gap:.3e}",
            ev.survivors, ev.replanned, ev.salvaged_leaves, ev.reused_elements,
        );
        rows.push(
            Obj::new()
                .model("p", p)
                .model("survivors", ev.survivors)
                .model("replanned", ev.replanned.as_str())
                .model("fail_sweep", RECOVERY_FAIL_SWEEP)
                .model("resumed_sweep", ev.resumed_sweep)
                .model("salvaged_leaves", ev.salvaged_leaves)
                .model("reused_elements", ev.reused_elements)
                .host("recover_total_s", Fix(recover_total_s, 6))
                .host("time_to_recover_s", Fix(time_to_recover_s, 6))
                .host("restart_total_s", Fix(restart_total_s, 6))
                .model("wasted_sweeps_recover", wasted_recover)
                .model("wasted_sweeps_failstop", wasted_failstop)
                .model("recovered_error", Fix(recovered_error, 15))
                .model("failstop_error", Fix(failstop_error, 15))
                .bounded("error_gap", Sci(gap, 3), TOLERANCE),
        );
    }
    let doc = problem_header("tucker-bench/recovery/v1", &meta)
        .obj("net", flat_net(&net))
        .model("sweeps", RECOVERY_SWEEPS)
        .model("fail_sweep", RECOVERY_FAIL_SWEEP)
        .model("fail_after_leaves", RECOVERY_FAIL_AFTER_LEAVES)
        .model("tolerance", TOLERANCE)
        .model_list("ranks", ranks)
        .rows("rows", rows);
    (Artifact::Json(doc), gates.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The generators never sweep below P = 64; these run the experiments at
    // P ∈ {4, 16}, where every run's own asserts (§4.1/§4.3 ledger, predict
    // == execute, topology never loses) still hold.

    #[test]
    fn lineup_replay_is_model_consistent() {
        let replays = lineup_replay(&scaling_meta(), &[4, 16], NetModel::bgq(), 0);
        // The paper's four strategies plus `(dp, joint)`, per P.
        assert_eq!(replays.len(), 10);
        let (p4, p16) = replays.split_at(5);
        for (block, p) in [(p4, 4), (p16, 16)] {
            let names: Vec<String> = block.iter().map(|(plan, ..)| plan.name()).collect();
            assert!(block.iter().all(|(plan, ..)| plan.nranks == p));
            assert_eq!(
                names.iter().filter(|n| *n == "(dp, joint)").count(),
                1,
                "P={p}: {names:?}"
            );
            // All strategies compute the same math at a fixed P.
            let error = block[0].1.per_sweep[0].error;
            for (plan, out, _) in block {
                let s = &out.per_sweep[0];
                assert!(s.wall > Duration::ZERO, "{}: zero wall", plan.name());
                assert!(s.error.is_finite());
                assert!((s.error - error).abs() < 1e-9, "{}", plan.name());
                assert!(s.wall >= s.ttm_comm.max(s.gram_comm));
                assert_eq!(predicted(s), s.comm_wall, "{} P={p}", plan.name());
            }
        }
        // Communication volume grows with P for the same problem.
        let ttm = |block: &[Replay]| -> u64 {
            block
                .iter()
                .map(|(_, out, _)| out.volume().elements(VolumeCategory::TtmReduceScatter))
                .sum()
        };
        assert!(ttm(p16) > ttm(p4), "more ranks must move more TTM volume");
    }

    #[test]
    fn topology_sweep_is_model_consistent() {
        let replays = topology_sweep(&scaling_meta(), &[4, 16], NetModel::cluster(), 0);
        assert_eq!(replays.len(), 2);
        for (topo_plan, _, runs, _) in &replays {
            let [topo, flat, ctrl] = runs.each_ref().map(|o| &o.per_sweep[0]);
            let p = topo_plan.nranks;
            assert!(topo.comm_wall > Duration::ZERO && flat.comm_wall > Duration::ZERO);
            for s in [topo, flat, ctrl] {
                assert_eq!(predicted(s), s.comm_wall, "P={p}");
            }
            assert!(topo.comm_wall <= flat.comm_wall, "P={p}");
            assert!(topo.wall >= topo.comm_wall);
        }
    }
}
