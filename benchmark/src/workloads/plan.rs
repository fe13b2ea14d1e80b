//! `plan-suite`: cold joint-DP planning of a fixed sample of the paper's
//! 5-D benchmark metas at P = 64 under the BG/Q α–β model. Only
//! `core::plan` runs. One *request* is one `Planner::best_plan_with` call;
//! the timed region runs whole passes over the sample, and a pass's mean
//! latency is one `request_s` sample.
//!
//! The sample is the same on every seed — cold plan latency differs 10×
//! between metas, so resampling per seed would measure the draw, not the
//! planner; the seed shuffles the order the metas are planned in.

use super::{LoopTimes, Outcome, RunCfg, SETUP_REPS};
use crate::machine;
use crate::metrics::Layers;
use crate::pace::{Pacer, Sample};
use crate::stats::{geomean, mean, median, quantile};
use crate::trace::span;
use std::hint::black_box;
use std::time::Instant;
use tucker_core::meta::TuckerMeta;
use tucker_core::plan::{
    GridStrategy, NetCostModel, Plan, PlanCache, Planner, SearchBudget, TreeStrategy,
};
use tucker_distsim::NetModel;

const NRANKS: usize = 64;
/// Metas per pass, strided through `benchmark_5d()` from `OFFSET`.
const METAS: usize = 6;
const OFFSET: usize = 3;

fn model() -> NetCostModel {
    NetCostModel::new(NetModel::bgq(), NRANKS)
}

/// SplitMix64, for the seeded meta order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Sampled {
    meta: TuckerMeta,
    /// The paper's four-strategy lineup and the cheapest of their costs
    /// under the benchmark's model.
    lineup: Vec<Plan>,
    best_lineup_cost: f64,
}

/// Enumerate the suite, take the strided sample in seeded order and price
/// the paper lineup of each meta. Returns the per-meta lineup seconds too.
fn sample(seed: u64) -> (Vec<Sampled>, Vec<f64>) {
    let all = tucker_suite::benchmark_5d();
    let stride = all.len() / METAS;
    let mut picked: Vec<TuckerMeta> = (0..METAS)
        .map(|i| all[i * stride + OFFSET].clone())
        .collect();
    let mut rng = seed;
    for i in (1..picked.len()).rev() {
        picked.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
    }
    let model = model();
    let mut lineup_s = Vec::new();
    let sampled = picked
        .into_iter()
        .map(|meta| {
            let t0 = Instant::now();
            let lineup = Planner::new(meta.clone(), NRANKS).paper_lineup();
            lineup_s.push(t0.elapsed().as_secs_f64());
            let best_lineup_cost = lineup
                .iter()
                .map(|p| p.cost(&model))
                .fold(f64::INFINITY, f64::min);
            Sampled {
                meta,
                lineup,
                best_lineup_cost,
            }
        })
        .collect();
    (sampled, lineup_s)
}

fn plan_cold(meta: &TuckerMeta) -> Plan {
    Planner::new(meta.clone(), NRANKS).best_plan_with(&model(), &SearchBudget::winner_only())
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut notes = Vec::new();

    // Set-up: suite enumeration, sampling, the paper lineup per meta, and a
    // warm-up request on the sample's smallest tensor.
    let mut setup = Vec::new();
    let mut suite = None;
    let pacer = Pacer::new(1);
    let mut pace_now = pacer.sample();
    for _ in 0..SETUP_REPS {
        let (s, sample_s) = pacer.timed(&mut pace_now, || {
            let s = sample(cfg.seed);
            let card = |x: &Sampled| x.meta.input_cardinality();
            let warm = s.0.iter().min_by(|a, b| card(a).total_cmp(&card(b)));
            let warm = warm.expect("METAS >= 1");
            black_box(plan_cold(&warm.meta));
            s
        });
        setup.push(sample_s);
        suite = Some(s);
    }
    let (suite, lineup_s) = suite.expect("SETUP_REPS >= 1");

    // Timed region: whole passes; each keeps (plan, sample) per meta, with
    // a pace sample between every two plans.
    let model = model();
    let mut passes: Vec<(bool, Vec<(Plan, Sample)>)> = Vec::new();
    let mut peak_rss_mb = Vec::new();
    let t0 = Instant::now();
    loop {
        let traced = cfg.tracer.filter(|_| passes.len() % 2 == 1);
        let _r = traced.map(|t| t.request("request", passes.len() as u64));
        let pass = suite
            .iter()
            .map(|s| {
                let ((plan, peak), sample) = pacer.timed(&mut pace_now, || {
                    machine::peak_rss_of(|| {
                        let _s = span(traced, "plan.search");
                        plan_cold(&s.meta)
                    })
                });
                if traced.is_none() {
                    peak_rss_mb.push(peak);
                }
                (plan, sample)
            })
            .collect();
        passes.push((traced.is_some(), pass));
        let both = cfg.tracer.is_none() || passes.len() >= 2;
        if both && t0.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }

    // Checks: the DP never loses to the paper lineup under the same model,
    // and planning the same meta again returns the identical plan.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut ratios = vec![0.0f64; suite.len()];
    let first: Vec<String> = passes[0].1.iter().map(|(p, _)| format!("{p:?}")).collect();
    let mut check = |i: usize, plan: &Plan| {
        attempted += 1;
        let cost = plan.cost(&model);
        ratios[i] = cost / suite[i].best_lineup_cost;
        let same = format!("{plan:?}") == first[i];
        if cost > suite[i].best_lineup_cost * (1.0 + 1e-12) || !same {
            failed += 1;
            notes.push(format!(
                "  CHECK FAILED {} -> {}: DP cost {cost} vs best lineup {}, \
                 identical to the first call: {same}",
                suite[i].meta.input(),
                suite[i].meta.core(),
                suite[i].best_lineup_cost
            ));
        }
    };
    for (_, pass) in &passes {
        for (i, (plan, _)) in pass.iter().enumerate() {
            check(i, plan);
        }
    }
    if passes.len() == 1 {
        check(0, &plan_cold(&suite[0].meta));
    }

    // One `request_s` sample per pass: the mean plan latency over the sample.
    let pass_means = |traced: bool| -> Vec<Sample> {
        passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, pass)| {
                let raw_s = mean(&pass.iter().map(|(_, s)| s.raw_s).collect::<Vec<_>>());
                let norm_s = mean(&pass.iter().map(|(_, s)| s.norm_s()).collect::<Vec<_>>());
                Sample {
                    raw_s,
                    factor: norm_s / raw_s,
                }
            })
            .collect()
    };
    let times = LoopTimes {
        plain: pass_means(false),
        traced: pass_means(true),
        peak_rss_mb,
    };
    let plan_cost_ratio = geomean(&ratios);
    notes.push(format!(
        "  plan_cost_ratio              {plan_cost_ratio:>14.9} ratio     (exact; DP / best paper-lineup plan, geomean of {METAS})"
    ));

    let mut layers = Layers::default();
    if cfg.tracer.is_some() {
        let traced_plans: Vec<f64> = passes
            .iter()
            .filter(|(traced, _)| *traced)
            .flat_map(|(_, pass)| pass.iter().map(|(_, s)| s.raw_s))
            .collect();
        layers.set("plan.search_p50_s", median(&traced_plans));
        layers.set("plan.search_max_s", quantile(&traced_plans, 1.0));
        layers.set("plan.lineup_s", mean(&lineup_s));
        layers.set("plan_cost_ratio", plan_cost_ratio);
        // The paper's two claims as exact model ratios: optimal tree vs the
        // (chain, K) tree in flops, dynamic vs static gridding in volume.
        layers.set(
            "plan.flops_ratio_vs_chain",
            geomean(
                &suite
                    .iter()
                    .map(|s| s.lineup[3].flops / s.lineup[0].flops)
                    .collect::<Vec<_>>(),
            ),
        );
        layers.set(
            "plan.volume_ratio_vs_static",
            geomean(
                &suite
                    .iter()
                    .map(|s| {
                        let fixed = Planner::new(s.meta.clone(), NRANKS)
                            .plan(TreeStrategy::Optimal, GridStrategy::StaticOptimal);
                        s.lineup[3].volume / fixed.volume
                    })
                    .collect::<Vec<_>>(),
            ),
        );
        // A warm `PlanCache` lookup, primed with the cheapest meta.
        let cheapest = (0..suite.len())
            .min_by(|&a, &b| passes[0].1[a].1.raw_s.total_cmp(&passes[0].1[b].1.raw_s))
            .expect("METAS >= 1");
        let mut cache = PlanCache::new(4);
        black_box(cache.plan(&suite[cheapest].meta, NRANKS, &model));
        let hits: Vec<f64> = (0..64)
            .map(|_| {
                let t0 = Instant::now();
                black_box(cache.plan(&suite[cheapest].meta, NRANKS, &model));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        layers.set("plan.cache_hit_s", median(&hits));
        layers.set("bench.trace_overhead_frac", times.trace_overhead_frac());
        layers.set("bench.clock_factor", times.clock_factor());
    }

    Outcome {
        setup,
        rates: super::rates(&times.plain),
        requests: times.plain,
        tail_q: 0.75,
        attempted,
        failed,
        peak_rss_mb: times.peak_rss_mb,
        layers,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_permutes_a_fixed_sample() {
        let key = |s: &[Sampled]| -> Vec<String> {
            s.iter()
                .map(|x| format!("{}->{}", x.meta.input(), x.meta.core()))
                .collect()
        };
        let (a, _) = sample(1);
        let (b, _) = sample(2);
        let (a2, _) = sample(1);
        assert_eq!(key(&a), key(&a2));
        let (mut ka, mut kb) = (key(&a), key(&b));
        assert_eq!(ka.len(), METAS);
        ka.sort();
        kb.sort();
        assert_eq!(ka, kb, "every seed plans the same metas");
    }
}
