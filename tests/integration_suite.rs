//! Integration: the benchmark suite drives the planner at scale and the
//! headline claims of §6.2 hold in the models.

use tucker_core::plan::Planner;
use tucker_suite::driver::{gridding_comparison, load_comparison};
use tucker_suite::generator::{full_enumeration, paper_sized_subsample};
use tucker_suite::percentile::normalized_percentiles;
use tucker_suite::real::real_tensors;

#[test]
fn suite_wide_dominance_on_a_slice() {
    // A modest slice keeps this test fast; the bench harness runs the full
    // 1134/642 sets.
    //
    // Guarantees: the optimal tree minimizes FLOPs over *all* trees, and for
    // a fixed tree dynamic gridding minimizes volume over all schemes
    // (static included). Volume is NOT comparable across different trees —
    // a chain tree can have lower volume than the FLOP-optimal tree — so we
    // assert volume dominance within the opt tree only.
    let sample = paper_sized_subsample(&full_enumeration(5), 80);
    for meta in &sample {
        let lineup = Planner::new(meta.clone(), 32).paper_lineup();
        let opt = &lineup[3];
        for plan in &lineup[..3] {
            assert!(
                opt.flops <= plan.flops * (1.0 + 1e-12),
                "{meta}: {}",
                plan.name()
            );
        }
        let (stat, dynv) = gridding_comparison(meta, 32);
        assert!(
            dynv <= stat + 1e-6,
            "{meta}: dynamic {dynv} > static {stat}"
        );
    }
}

#[test]
fn dynamic_gridding_gains_match_paper_shape() {
    // §6.2: dynamic gridding wins on (almost) all tensors, with >= 3x volume
    // gain on ~90% of them. Check the shape on a deterministic slice.
    let sample = paper_sized_subsample(&full_enumeration(5), 120);
    let mut stat = Vec::new();
    let mut dynv = Vec::new();
    for meta in &sample {
        let (s, d) = gridding_comparison(meta, 32);
        stat.push(s);
        dynv.push(d);
    }
    // Normalize static by dynamic: ratios >= 1 everywhere.
    let curve = normalized_percentiles(&stat, &dynv);
    assert!(
        curve.min() >= 1.0 - 1e-9,
        "dynamic lost somewhere: {}",
        curve.min()
    );
    // A majority of tensors see large gains (the paper reports 3x on 90%;
    // our suite composition differs, so require a weaker 2x on 50%).
    assert!(
        curve.median() >= 2.0,
        "median dynamic gain too small: {}",
        curve.median()
    );
}

#[test]
fn load_gains_grow_with_order() {
    // §6.2: load improvements are higher for 6-D than 5-D (more reuse
    // opportunities). Compare median normalized best-heuristic load.
    let mut medians = Vec::new();
    for order in [5usize, 6] {
        let sample = paper_sized_subsample(&full_enumeration(order), 100);
        let mut best_heuristic = Vec::new();
        let mut opt = Vec::new();
        for meta in &sample {
            let (ck, ch, b, o) = load_comparison(meta);
            best_heuristic.push(ck.min(ch).min(b));
            opt.push(o);
        }
        let curve = normalized_percentiles(&best_heuristic, &opt);
        medians.push(curve.median());
    }
    assert!(
        medians[1] >= medians[0] * 0.95,
        "6-D gains should not be materially below 5-D: {medians:?}"
    );
    assert!(medians[0] > 1.0, "opt-tree must strictly win at the median");
}

#[test]
fn real_tensor_gains_are_substantial() {
    // §6.2 reports 4.1x–5.8x overall on the real tensors; the analytic
    // volume model should show the communication side of that gap.
    for rt in real_tensors() {
        let lineup = Planner::new(rt.meta.clone(), 32).paper_lineup();
        let opt = &lineup[3];
        let best_prior = lineup[..3]
            .iter()
            .map(|plan| plan.volume)
            .fold(f64::INFINITY, f64::min);
        assert!(
            opt.volume * 2.0 <= best_prior,
            "{}: volume gain below 2x ({} vs {})",
            rt.name,
            best_prior,
            opt.volume
        );
    }
}

#[test]
fn benchmark_metadata_statistics() {
    // The suite spans the intended ranges.
    let all5 = full_enumeration(5);
    let min_card = all5
        .iter()
        .map(|m| m.input_cardinality())
        .fold(f64::MAX, f64::min);
    let max_card = all5
        .iter()
        .map(|m| m.input_cardinality())
        .fold(0.0, f64::max);
    assert_eq!(min_card, 20f64.powi(5));
    assert!(max_card <= 8e9 && max_card > 1e9);
    // Compression ratios span 1.25^5 .. 10^5.
    let min_ratio = all5
        .iter()
        .map(|m| m.compression_ratio())
        .fold(f64::MAX, f64::min);
    assert!((min_ratio - 1.25f64.powi(5)).abs() < 1e-6);
}
