//! The paper's own tables and figures (§6) as CSV series. Analytic ones
//! (Table 1, Table 2, Figures 11c/d/f) run on the full-size benchmark — load
//! and volume are machine-independent (§6.2) — and are `model`; measured
//! ones (Figures 10a/b/c, 11a/b/e) execute the simulated engine on metadata
//! scaled to fit this machine ([`MEASURE_MAX_CARD`], [`MEASURE_RANKS`]) and
//! are `host`.

use super::Opts;
use crate::artifact::{Artifact, Gate, Table};
use crate::scale_for_measurement;
use tucker_core::engine::{run_distributed_hooi, EngineConfig};
use tucker_core::plan::{GridStrategy, Plan, Planner, TreeStrategy};
use tucker_core::{SweepStats, TuckerMeta};
use tucker_distsim::count_grids;
use tucker_suite::driver::{gridding_comparison, load_comparison};
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

fn suite(order: usize) -> Vec<TuckerMeta> {
    if order == 5 {
        benchmark_5d()
    } else {
        benchmark_6d()
    }
}

/// `a` for the 5-D figure of a pair, `b` for the 6-D one (and `c`/`d`).
fn panel(order: usize, first: char) -> char {
    if order == 5 {
        first
    } else {
        (first as u8 + 1) as char
    }
}

/// A finished series: `host` for curves of measured wall times (shape
/// compared, cells not), otherwise `model` (compared cell by cell).
fn csv(header: &'static str, rows: Vec<String>, host: bool) -> (Artifact, Gate) {
    (Artifact::Csv(Table { header, rows, host }), Ok(()))
}

/// Table 1: number of grids ψ(P, N).
pub(super) fn table1(_: &Opts) -> (Artifact, Gate) {
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
    csv("N,P32,P1024,P1048576", rows, false)
}

/// Table 2: the real tensors.
pub(super) fn table2(_: &Opts) -> (Artifact, Gate) {
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
    csv("name,input,core,compression", rows, false)
}

/// Figures 11c/d: computational-load percentiles over the full benchmark
/// (analytic; exactly the paper's machine-independent metric).
pub(super) fn fig11cd_load(order: usize) -> (Artifact, Gate) {
    let suite = suite(order);
    println!(
        "== Fig 11{} : normalized computational load ({order}D, {} tensors) ==",
        panel(order, 'c'),
        suite.len()
    );
    let mut loads: [Vec<f64>; 4] = Default::default();
    for meta in &suite {
        let (ck, ch, b, o) = load_comparison(meta);
        for (series, v) in loads.iter_mut().zip([ck, ch, b, o]) {
            series.push(v);
        }
    }
    let rows = report_vs_last(&loads, false);
    csv("percentile,chain_K,chain_h,balanced", rows, false)
}

/// Figure 11f: communication-volume percentiles, static vs dynamic gridding
/// on the optimal tree (analytic, full benchmark, both orders).
pub(super) fn fig11f_volume(_: &Opts) -> (Artifact, Gate) {
    println!("== Fig 11f: normalized communication volume (static vs dynamic) ==");
    let curves = [5usize, 6].map(|order| {
        let (stat, dynv): (Vec<f64>, Vec<f64>) = suite(order)
            .iter()
            .map(|meta| gridding_comparison(meta, ANALYTIC_RANKS))
            .unzip();
        (static_label(order), normalized_percentiles(&stat, &dynv))
    });
    print_curves(&curves);
    for (name, c) in &curves {
        println!(
            "   {name}: >=3x gain on {:.0}% of tensors (paper: ~90%)",
            c.fraction_at_least(3.0) * 100.0
        );
    }
    csv("percentile,static_5d,static_6d", curve_rows(&curves), false)
}

// -------------------------------------------------- measured-run machinery

/// Fill value for measured tensors ("random data", §6.1) — deterministic
/// across ranks.
fn fill(c: &[usize]) -> f64 {
    hash_noise(c, 0xBEEF)
}

/// Run one plan once and return its per-sweep stats.
fn run_once(plan: &Plan) -> SweepStats {
    run_distributed_hooi(fill, plan, 1, &EngineConfig::default())
        .per_sweep
        .remove(0)
}

/// Deterministic measured sample: subsample the suite, scale each tensor to
/// measurable size, skip the ones whose cores collapse below the rank count.
fn measured_sample(order: usize, n: usize) -> Vec<TuckerMeta> {
    let all = full_enumeration(order);
    let picked = tucker_suite::generator::paper_sized_subsample(&all, n.min(all.len()));
    let out: Vec<TuckerMeta> = picked
        .iter()
        .filter_map(|meta| scale_for_measurement(meta, MEASURE_MAX_CARD, MEASURE_RANKS))
        .collect();
    if out.len() < picked.len() {
        println!(
            "   ({} of {} sample tensors skipped: core too small after scaling)",
            picked.len() - out.len(),
            picked.len()
        );
    }
    out
}

/// Print and tabulate the heuristics' series normalized against the last
/// one (the optimum of the comparison): `chain-K`, `chain-h`, `balanced`.
fn report_vs_last(series: &[Vec<f64>; 4], with_extremes: bool) -> Vec<String> {
    let curves = ["chain-K", "chain-h", "balanced"]
        .into_iter()
        .zip(series)
        .map(|(name, s)| (name, normalized_percentiles(s, &series[3])))
        .collect::<Vec<_>>();
    print_curves(&curves);
    if with_extremes {
        print_extremes(&curves);
    }
    curve_rows(&curves)
}

fn print_extremes(curves: &[(&str, PercentileCurve)]) {
    for (name, c) in curves {
        println!("   {name}: median {:.2}x, max {:.2}x", c.median(), c.max());
    }
}

fn static_label(order: usize) -> &'static str {
    if order == 5 {
        "static-5D"
    } else {
        "static-6D"
    }
}

/// Measure `metric` of one sweep of each of `plans_of(planner)` — three
/// heuristics, then the optimum they are normalized against — over the
/// scaled sample.
fn measured_vs_last(
    order: usize,
    o: &Opts,
    plans_of: impl Fn(&Planner) -> Vec<Plan>,
    metric: impl Fn(&SweepStats) -> f64,
) -> (Artifact, Gate) {
    let metas = measured_sample(order, o.sample);
    println!(
        "   measuring {} scaled tensors x 4 strategies ...",
        metas.len()
    );
    let mut times: [Vec<f64>; 4] = Default::default();
    for meta in &metas {
        let plans = plans_of(&Planner::new(meta.clone(), MEASURE_RANKS));
        for (series, plan) in times.iter_mut().zip(&plans) {
            series.push(metric(&run_once(plan)));
        }
    }
    let rows = report_vs_last(&times, true);
    csv("percentile,chain_K,chain_h,balanced", rows, true)
}

/// Figures 10a/b: overall execution-time percentiles, measured on the scaled
/// sample. Normalized against (opt-tree, dynamic).
pub(super) fn fig10_overall(order: usize, o: &Opts) -> (Artifact, Gate) {
    println!(
        "== Fig 10{}: overall time percentiles ({order}D, measured, P={MEASURE_RANKS}) ==",
        panel(order, 'a')
    );
    measured_vs_last(order, o, Planner::paper_lineup, |s| s.wall.as_secs_f64())
}

/// Figures 11a/b: TTM computation-time percentiles (measured), heuristics vs
/// (opt-tree, static).
pub(super) fn fig11ab_compute_time(order: usize, o: &Opts) -> (Artifact, Gate) {
    println!(
        "== Fig 11{}: TTM computation time ({order}D, measured, P={MEASURE_RANKS}) ==",
        panel(order, 'a')
    );
    let trees = [
        TreeStrategy::chain_k(),
        TreeStrategy::chain_h(),
        TreeStrategy::Balanced,
        TreeStrategy::Optimal,
    ];
    let static_plans = |p: &Planner| {
        trees
            .map(|t| p.plan(t, GridStrategy::StaticOptimal))
            .to_vec()
    };
    measured_vs_last(order, o, static_plans, |s| {
        s.ttm_compute.as_secs_f64().max(1e-9)
    })
}

/// Figure 11e: communication-time percentiles, (opt-tree, static) vs
/// (opt-tree, dynamic), measured. Communication time = TTM reduce-scatter +
/// regrid time.
pub(super) fn fig11e_comm_time(o: &Opts) -> (Artifact, Gate) {
    println!("== Fig 11e: communication time (measured, P={MEASURE_RANKS}) ==");
    let comm_s = |plan: &Plan| {
        let s = run_once(plan);
        (s.ttm_comm + s.regrid_comm).as_secs_f64().max(1e-9)
    };
    let curves = [5usize, 6].map(|order| {
        let metas = measured_sample(order, o.sample);
        println!(
            "   {order}D: measuring {} scaled tensors x 2 gridding schemes ...",
            metas.len()
        );
        let (stat, dynt): (Vec<f64>, Vec<f64>) = metas
            .iter()
            .map(|meta| {
                let planner = Planner::new(meta.clone(), MEASURE_RANKS);
                let sp = planner.plan(TreeStrategy::Optimal, GridStrategy::StaticOptimal);
                let dp = planner.plan(TreeStrategy::Optimal, GridStrategy::Dynamic);
                (comm_s(&sp), comm_s(&dp))
            })
            .unzip();
        (static_label(order), normalized_percentiles(&stat, &dynt))
    });
    print_curves(&curves);
    print_extremes(&curves);
    csv("percentile,static_5d,static_6d", curve_rows(&curves), true)
}

/// Figure 10c: per-strategy time breakdown on the real tensors (measured on
/// scaled variants).
pub(super) fn fig10c_real(_: &Opts) -> (Artifact, Gate) {
    println!("== Fig 10c: real-tensor breakdown (scaled /16, measured, P={MEASURE_RANKS}) ==");
    let mut rows = Vec::new();
    for rt in scaled_real_tensors(16) {
        println!("  {} ({})", rt.name, rt.meta);
        for plan in Planner::new(rt.meta.clone(), MEASURE_RANKS).paper_lineup() {
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
    let header = "tensor,strategy,total_s,svd_s,ttm_compute_s,ttm_comm_s";
    csv(header, rows, true)
}

/// §6.2 headline numbers from the analytic models on the full benchmark
/// (printed, not persisted).
pub fn summary() {
    println!("== Summary: headline statistics (analytic, full benchmark, P={ANALYTIC_RANKS}) ==");
    for order in [5usize, 6] {
        let suite = suite(order);
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
