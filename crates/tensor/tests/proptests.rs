//! Property-based tests for the tensor substrate.
//!
//! Cases are generated deterministically from a fixed per-test seed (see
//! `vendor/proptest`): CI runs are reproducible, and `PROPTEST_SEED` /
//! `PROPTEST_CASES` explore other streams or bound the case count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tucker_linalg::Matrix;
use tucker_tensor::norm::fro_norm_sq;
use tucker_tensor::subtensor::{extract, insert, Region};
use tucker_tensor::{
    fold, gram, ttm, ttm_chain, unfold, ColumnShare, DenseTensor, Shape, TtmWorkspace,
};

/// Strategy: a small random shape with 1..=4 modes of length 1..=6.
fn shape_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..=6, 1..=4)
}

/// Strategy: shapes whose middle mode has a contiguous inner extent in the
/// `1 < inner < 16` gap, sized so the TTM clears the packing threshold and
/// exercises the slab-grouped small-inner packed path (group boundaries
/// included: outer need not divide the group width).
fn small_inner_shape_strategy() -> impl Strategy<Value = (Vec<usize>, usize)> {
    (2usize..=15, 24usize..=48, 40usize..=96, 8usize..=16)
        .prop_map(|(inner, ln, outer, k)| (vec![inner, ln, outer], k))
}

fn tensor_from_seed(dims: &[usize], seed: u64) -> DenseTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = rand::distributions::Uniform::new(-1.0, 1.0);
    DenseTensor::random(Shape::new(dims.to_vec()), &dist, &mut rng)
}

fn mat_from_seed(r: usize, c: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = rand::distributions::Uniform::new(-1.0, 1.0);
    Matrix::random(r, c, &dist, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// offset/coord are mutually inverse for random shapes.
    #[test]
    fn offset_coord_inverse(dims in shape_strategy(), salt in 0usize..1000) {
        let s = Shape::new(dims);
        let idx = salt % s.cardinality();
        prop_assert_eq!(s.offset(&s.coord(idx)), idx);
    }

    /// fold(unfold(T, n)) == T for every mode.
    #[test]
    fn unfold_fold_roundtrip(dims in shape_strategy(), seed in 0u64..1000) {
        let t = tensor_from_seed(&dims, seed);
        for n in 0..t.order() {
            let u = unfold(&t, n);
            let back = fold(&u, n, t.shape());
            prop_assert_eq!(back.max_abs_diff(&t), 0.0);
        }
    }

    /// TTM preserves cardinality scaling: |Z| = K * |T| / L_n.
    #[test]
    fn ttm_cardinality(dims in shape_strategy(), seed in 0u64..1000, k in 1usize..5) {
        let t = tensor_from_seed(&dims, seed);
        let n = seed as usize % t.order();
        let a = mat_from_seed(k, t.shape().dim(n), seed + 7);
        let z = ttm(&t, n, &a);
        prop_assert_eq!(z.cardinality(), k * t.cardinality() / t.shape().dim(n));
    }

    /// The slab-grouped small-inner packed TTM (1 < inner < 16, above the
    /// packing threshold) agrees with the explicit-unfold reference and is
    /// bit-identical across worker counts.
    #[test]
    fn small_inner_packed_ttm_matches_unfold((dims, k) in small_inner_shape_strategy(), seed in 0u64..1000) {
        let t = tensor_from_seed(&dims, seed);
        let a = mat_from_seed(k, dims[1], seed + 11);
        let z = ttm(&t, 1, &a);
        let reference = {
            let u = unfold(&t, 1);
            let z = tucker_linalg::gemm(&a, tucker_linalg::Transpose::No, &u, tucker_linalg::Transpose::No, 1.0);
            fold(&z, 1, &t.shape().with_dim(1, k))
        };
        prop_assert!(z.max_abs_diff(&reference) < 1e-12);
        let mut buf = Vec::new();
        let s = tucker_tensor::ttm_into_threads(&t, 1, &a, &mut buf, 4);
        let par = DenseTensor::from_vec(s, buf);
        prop_assert_eq!(par.max_abs_diff(&z), 0.0);
    }

    /// TTM-chain commutativity on two random distinct modes.
    #[test]
    fn chain_commutes(dims in prop::collection::vec(2usize..=5, 2..=4), seed in 0u64..1000) {
        let t = tensor_from_seed(&dims, seed);
        let n1 = seed as usize % t.order();
        let n2 = (n1 + 1) % t.order();
        let a1 = mat_from_seed(2, t.shape().dim(n1), seed + 1);
        let a2 = mat_from_seed(3, t.shape().dim(n2), seed + 2);
        let z12 = ttm_chain(&t, &[(n1, &a1), (n2, &a2)]);
        let z21 = ttm_chain(&t, &[(n2, &a2), (n1, &a1)]);
        prop_assert!(z12.max_abs_diff(&z21) < 1e-12);
    }

    /// TTM with orthonormal rows never increases the Frobenius norm
    /// (A A^T = I implies projection in fiber space).
    #[test]
    fn orthonormal_ttm_contracts(dims in prop::collection::vec(3usize..=6, 2..=3), seed in 0u64..1000) {
        let t = tensor_from_seed(&dims, seed);
        let n = seed as usize % t.order();
        let ln = t.shape().dim(n);
        let k = 1 + (seed as usize % ln);
        // Orthonormal K x Ln: QR of random Ln x K, transposed.
        let q = tucker_linalg::orthonormal_columns(&mat_from_seed(ln, k, seed + 3));
        let a = q.transpose();
        let z = ttm(&t, n, &a);
        prop_assert!(fro_norm_sq(&z) <= fro_norm_sq(&t) * (1.0 + 1e-10));
    }

    /// The fused Gram kernel matches the explicit-unfold reference
    /// `syrk(&unfold(T, n))` elementwise on every mode.
    #[test]
    fn gram_matches_unfold_syrk(dims in shape_strategy(), seed in 0u64..1000) {
        let t = tensor_from_seed(&dims, seed);
        for n in 0..t.order() {
            let g = gram(&t, n);
            let r = tucker_linalg::syrk(&unfold(&t, n));
            prop_assert_eq!(g.shape(), r.shape());
            prop_assert!(g.max_abs_diff(&r) < 1e-12, "mode {}", n);
        }
    }

    /// Column-share Grams over a random partition of the fiber range sum to
    /// the full Gram matrix.
    #[test]
    fn gram_cols_partition_sums_to_gram(
        dims in shape_strategy(),
        seed in 0u64..1000,
        parts in 1usize..6,
    ) {
        let t = tensor_from_seed(&dims, seed);
        let n = seed as usize % t.order();
        let nf = t.shape().num_fibers(n);
        let full = gram(&t, n);
        // Balanced partition; trailing ranges may be empty when parts > nf.
        let per = nf.div_ceil(parts);
        let mut sum = Matrix::zeros(full.nrows(), full.ncols());
        let mut c0 = 0;
        for _ in 0..parts {
            let len = per.min(nf - c0);
            let share = ColumnShare::new(t.shape().dims(), n, c0, len);
            let part = share.gram(&share.pack(t.as_slice(), t.shape().dim(n)));
            for (s, p) in sum.as_mut_slice().iter_mut().zip(part.as_slice()) {
                *s += p;
            }
            c0 += len;
        }
        prop_assert!(sum.max_abs_diff(&full) < 1e-12, "mode {} / {} parts", n, parts);
    }

    /// ttm_into with a reused workspace matches fresh `ttm` across a chained
    /// multi-mode sequence (buffer recycling must never corrupt results).
    #[test]
    fn workspace_chain_matches_fresh_ttm(
        dims in prop::collection::vec(2usize..=5, 2..=4),
        seed in 0u64..1000,
    ) {
        let t = tensor_from_seed(&dims, seed);
        let mats: Vec<Matrix> = (0..t.order())
            .map(|n| mat_from_seed(1 + (seed as usize + n) % 4, t.shape().dim(n), seed + n as u64))
            .collect();
        let ops: Vec<(usize, &Matrix)> = mats.iter().enumerate().collect();
        let mut ws = TtmWorkspace::new();
        for _ in 0..2 {
            let z = ws.ttm_chain(&t, &ops);
            let mut r = t.clone();
            for &(n, a) in &ops {
                r = ttm(&r, n, a);
            }
            prop_assert_eq!(z.shape(), r.shape());
            prop_assert_eq!(z.max_abs_diff(&r), 0.0);
            ws.recycle(z);
        }
    }

    /// extract/insert roundtrip on a random sub-region.
    #[test]
    fn region_roundtrip(dims in prop::collection::vec(2usize..=6, 1..=4), seed in 0u64..1000) {
        let t = tensor_from_seed(&dims, seed);
        let mut rng = StdRng::seed_from_u64(seed + 11);
        use rand::Rng;
        let start: Vec<usize> = dims.iter().map(|&d| rng.gen_range(0..d)).collect();
        let len: Vec<usize> = dims
            .iter()
            .zip(&start)
            .map(|(&d, &s)| rng.gen_range(1..=(d - s)))
            .collect();
        let r = Region { start, len };
        let data = extract(&t, &r);
        prop_assert_eq!(data.len(), r.cardinality());
        let mut t2 = t.clone();
        insert(&mut t2, &r, &data);
        prop_assert_eq!(t2.max_abs_diff(&t), 0.0);
    }
}
