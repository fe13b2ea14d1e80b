//! Kernel ablations (design choices called out in DESIGN.md):
//!
//! * blocked TTM (Austin et al. §5 — no explicit unfolding) vs the naive
//!   unfold-multiply-fold kernel,
//! * fused slab-wise Gram (`gram`) vs the explicit-unfold baseline
//!   `syrk(&unfold(..))` — the only place the unfold path survives,
//! * GEMM vs SYRK for Gram matrices (SYRK exploits symmetry),
//! * the selected-eigenpair solver: `k = n/5` leading pairs, the production
//!   path, vs `k = n`, the full spectrum.
//!
//! `cargo run --release -p tucker-bench --bin experiments -- kernels`
//! re-times the TTM and Gram arms with plain medians and persists them to
//! `results/BENCH_kernels.json` for the bench trajectory.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tucker_linalg::{gemm, sym_evd_leading, syrk, Matrix, Transpose};
use tucker_tensor::{fold, gram, ttm, unfold, DenseTensor, Shape};

/// The explicit-unfold TTM baseline: `fold(A · unfold(T, n))`.
fn ttm_via_unfold(t: &DenseTensor, n: usize, a: &Matrix) -> DenseTensor {
    let z = gemm(a, Transpose::No, &unfold(t, n), Transpose::No, 1.0);
    fold(&z, n, &t.shape().with_dim(n, a.nrows()))
}

fn rand_tensor(dims: &[usize], seed: u64) -> DenseTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = rand::distributions::Uniform::new(-1.0, 1.0);
    DenseTensor::random(Shape::new(dims.to_vec()), &dist, &mut rng)
}

fn rand_mat(r: usize, cc: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = rand::distributions::Uniform::new(-1.0, 1.0);
    Matrix::random(r, cc, &dist, &mut rng)
}

fn bench_ttm_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("ttm_kernel_ablation");
    g.sample_size(10);
    let t = rand_tensor(&[48, 40, 36], 1);
    for mode in [0usize, 1, 2] {
        let f = rand_mat(12, t.shape().dim(mode), 2);
        g.bench_function(format!("blocked_mode{mode}"), |b| {
            b.iter(|| ttm(black_box(&t), mode, black_box(&f)))
        });
        g.bench_function(format!("explicit_unfold_mode{mode}"), |b| {
            b.iter(|| ttm_via_unfold(black_box(&t), mode, black_box(&f)))
        });
    }
    g.finish();
}

fn bench_fused_gram(c: &mut Criterion) {
    let mut g = c.benchmark_group("fused_gram_ablation");
    g.sample_size(10);
    let t = rand_tensor(&[48, 40, 36], 5);
    for mode in [0usize, 1, 2] {
        g.bench_function(format!("gram_fused_mode{mode}"), |b| {
            b.iter(|| gram(black_box(&t), mode))
        });
        g.bench_function(format!("gram_via_unfold_mode{mode}"), |b| {
            b.iter(|| syrk(&unfold(black_box(&t), mode)))
        });
    }
    g.finish();
}

fn bench_gram_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("gram_kernel_ablation");
    g.sample_size(10);
    let a = rand_mat(96, 800, 3);
    g.bench_function("syrk", |b| b.iter(|| syrk(black_box(&a))));
    g.bench_function("gemm_aat", |b| {
        b.iter(|| {
            gemm(
                black_box(&a),
                Transpose::No,
                black_box(&a),
                Transpose::Yes,
                1.0,
            )
        })
    });
    g.finish();
}

fn bench_evd_solvers(c: &mut Criterion) {
    let mut g = c.benchmark_group("evd_solver_ablation");
    g.sample_size(10);
    let a0 = rand_mat(72, 72, 4);
    let a = Matrix::from_fn(72, 72, |i, j| 0.5 * (a0[(i, j)] + a0[(j, i)]));
    g.bench_function("selected_k=n/5", |b| {
        b.iter(|| sym_evd_leading(black_box(a.clone()), 72 / 5).eigenvalues[0])
    });
    g.bench_function("selected_k=n", |b| {
        b.iter(|| sym_evd_leading(black_box(a.clone()), 72).eigenvalues[0])
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ttm_kernels,
    bench_fused_gram,
    bench_gram_kernels,
    bench_evd_solvers
);
criterion_main!(benches);
