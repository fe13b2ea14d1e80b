//! Bench for Figure 10c: one distributed HOOI invocation on (scaled) real
//! tensors under each of the paper's four strategies.
//!
//! The absolute times are this machine's; the *ordering* — balanced beats
//! the chains, (opt-tree, dynamic) beats everything — is the paper's
//! qualitative result.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tucker_core::engine::{DistRun, EngineConfig};
use tucker_core::plan::Planner;
use tucker_suite::fields::hash_noise;
use tucker_suite::real::scaled_real_tensors;

fn bench_real(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10c_real_tensors");
    g.sample_size(10);
    let cfg = EngineConfig::default();
    // Stronger scaling than the experiments binary so criterion's repeated
    // sampling stays fast.
    for rt in scaled_real_tensors(48) {
        let planner = Planner::new(rt.meta.clone(), 4);
        for plan in planner.paper_lineup() {
            let id = BenchmarkId::new(rt.name, plan.name());
            g.bench_with_input(id, &plan, |b, plan| {
                b.iter(|| {
                    DistRun::of(plan, 1)
                        .config(cfg.clone())
                        .run(|c| hash_noise(c, 0xBEEF))
                        .per_sweep[0]
                        .error
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_real);
criterion_main!(benches);
