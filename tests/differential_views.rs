//! Differential: the **view-native kernels** against extract-then-compute.
//!
//! The contract of the view layer (DESIGN.md §11) is that feeding a strided
//! [`TensorView`] straight into Gram/TTM is *indistinguishable to the bit*
//! from materializing the view into a fresh canonical tensor and calling
//! the kernel on that with the same worker count — a strided TTM's
//! accumulation order depends only on the KC blocking of the contracted
//! extent, never on the operand's strides, and a strided Gram runs the slab
//! kernel on one scratch copy of the view. Randomized regions (empty, unit-length, interior,
//! full-tensor) and non-unit step strides all route through here; both arms
//! pin one worker so the pairing stays bit-comparable on any host.
//!
//! Also covered: the mutable-view aliasing guard (a layout mapping two
//! coordinates to one offset must be rejected at construction) and the
//! sliding-window incremental Tucker tracking cold recompute within 1e-8.

use proptest::prelude::*;
use tucker_core::executor::LoopCfg;
use tucker_core::{full_recompute, SlidingTucker};
use tucker_linalg::Matrix;
use tucker_suite::fields::{hash_noise, video_field};
use tucker_tensor::subtensor::{extract, Region};
use tucker_tensor::{
    gram_threads, ttm_into_threads, DenseTensor, Shape, TensorView, TensorViewMut,
};

/// Strategy: 1–4 random mode extents in 1..=6 plus a random region inside
/// them — starts and lengths folded into range so empty (`len = 0`),
/// unit-length, interior, and full-mode spans all occur.
fn dims_and_region() -> impl Strategy<Value = (Vec<usize>, Region)> {
    prop::collection::vec((1usize..=6, 0usize..=6, 0usize..=6), 1..=4).prop_map(|modes| {
        let dims: Vec<usize> = modes.iter().map(|&(d, _, _)| d).collect();
        let start: Vec<usize> = modes.iter().map(|&(d, a, _)| a % (d + 1)).collect();
        let len: Vec<usize> = modes
            .iter()
            .zip(&start)
            .map(|(&(d, _, b), &s)| b % (d - s + 1))
            .collect();
        (dims, Region { start, len })
    })
}

fn tensor_from_seed(dims: &[usize], seed: u64) -> DenseTensor {
    DenseTensor::from_fn(Shape::new(dims.to_vec()), |c| hash_noise(c, seed))
}

/// The extract arm: materialize the view into a fresh canonical tensor via
/// the same `Region` machinery `redistribute` used before the view layer.
fn materialize(t: &DenseTensor, r: &Region) -> DenseTensor {
    DenseTensor::from_vec(Shape::new(r.len.clone()), extract(t, r))
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// View-native Gram over a random region — including empty and
    /// full-tensor regions — is bit-identical to extract-then-Gram for
    /// every mode. `DenseTensor` forbids zero-length modes, so the extract
    /// arm of an empty region is its closed form: the `L_n × L_n` zero
    /// matrix (a sum over no fibers).
    #[test]
    fn gram_of_view_matches_extract_bitwise((dims, r) in dims_and_region(), seed in 0u64..1000) {
        let t = tensor_from_seed(&dims, seed);
        let v = TensorView::region(&t, &r);
        let empty = r.len.contains(&0);
        for n in 0..t.order() {
            let gv = gram_threads(v.clone(), n, 1);
            if empty {
                prop_assert_eq!(gv.nrows(), r.len[n]);
                prop_assert!(gv.as_slice().iter().all(|&x| x == 0.0));
                continue;
            }
            let sub = materialize(&t, &r);
            let ge = gram_threads(&sub, n, 1);
            prop_assert!(
                bits_eq(gv.as_slice(), ge.as_slice()),
                "gram mode {n} diverged on region {:?}+{:?} of {dims:?}",
                r.start,
                r.len
            );
        }
    }

    /// View-native Gram over a **step-strided** view (stride = 2·canonical
    /// on some modes — a layout no region can produce) is bit-identical to
    /// Gram of the materialized view.
    #[test]
    fn gram_stepped_view_matches_materialized(
        dims in prop::collection::vec(2usize..=7, 2..=3),
        steps in prop::collection::vec(1usize..=2, 3),
        seed in 0u64..1000,
    ) {
        let t = tensor_from_seed(&dims, seed);
        let mut v = TensorView::of(&t);
        for (n, &s) in steps.iter().take(dims.len()).enumerate() {
            v = v.step(n, s);
        }
        let sub = v.to_tensor();
        for n in 0..t.order() {
            let gv = gram_threads(v.clone(), n, 1);
            let ge = gram_threads(&sub, n, 1);
            prop_assert!(
                bits_eq(gv.as_slice(), ge.as_slice()),
                "stepped gram mode {n} diverged for steps {steps:?} on {dims:?}"
            );
        }
    }

    /// View-native TTM over a random non-empty region is bit-identical to
    /// extract-then-TTM, output buffer included, for every mode.
    #[test]
    fn ttm_of_view_matches_extract_bitwise((dims, r) in dims_and_region(), seed in 0u64..1000, k in 1usize..5) {
        prop_assume!(r.len.iter().all(|&l| l > 0));
        let t = tensor_from_seed(&dims, seed);
        let sub = materialize(&t, &r);
        let v = TensorView::region(&t, &r);
        for n in 0..t.order() {
            let a = Matrix::from_fn(k, r.len[n], |i, j| hash_noise(&[i, j], seed ^ 0xA1));
            let mut out_v = Vec::new();
            let mut out_e = Vec::new();
            let sh_v = ttm_into_threads(v.clone(), n, &a, &mut out_v, 1);
            let sh_e = ttm_into_threads(&sub, n, &a, &mut out_e, 1);
            prop_assert_eq!(sh_v.dims(), sh_e.dims());
            prop_assert!(
                bits_eq(&out_v, &out_e),
                "ttm mode {n} diverged on region {:?}+{:?} of {dims:?}",
                r.start,
                r.len
            );
        }
    }

    /// `copy_into` through a view round-trips any region: extract through
    /// the view layer, then insert back through a mutable region view,
    /// leaving the tensor bit-identical.
    #[test]
    fn region_copy_roundtrip((dims, r) in dims_and_region(), seed in 0u64..1000) {
        let t = tensor_from_seed(&dims, seed);
        let staged = extract(&t, &r);
        let mut back = t.clone();
        // Canonical strides computed by hand: `Shape` cannot carry the
        // zero-length modes an empty region has.
        let mut canonical = Vec::with_capacity(r.len.len());
        let mut acc = 1usize;
        for &l in &r.len {
            canonical.push(acc);
            acc *= l;
        }
        let src = TensorView::from_parts(&staged, r.len.clone(), canonical);
        let mut dst = TensorViewMut::region(&mut back, &r);
        tucker_tensor::copy_into(&src, &mut dst);
        prop_assert!(bits_eq(back.as_slice(), t.as_slice()));
    }
}

/// A zero stride maps every index of that mode to one offset: mutable
/// views must refuse the layout outright (writes through it would alias).
#[test]
#[should_panic(expected = "alias")]
fn mut_view_rejects_zero_stride() {
    let mut buf = vec![0.0f64; 12];
    let _ = TensorViewMut::from_parts(&mut buf, vec![3, 4], vec![0, 1]);
}

/// Interleaved strides (stride 1 over length 4 woven through stride 2)
/// land two coordinates on one offset; the nesting test must reject them.
#[test]
#[should_panic(expected = "alias")]
fn mut_view_rejects_interleaved_strides() {
    let mut buf = vec![0.0f64; 16];
    let _ = TensorViewMut::from_parts(&mut buf, vec![4, 2], vec![1, 2]);
}

/// Immutable views may alias freely (broadcast reads are sound): the same
/// zero-stride layout a mutable view rejects is accepted read-only.
#[test]
fn shared_view_allows_broadcast_stride() {
    let buf = vec![7.0f64; 4];
    let v = TensorView::from_parts(&buf, vec![3, 4], vec![0, 1]);
    assert_eq!(v.at(&[0, 2]), v.at(&[2, 2]));
}

/// Sliding-window incremental Tucker (Gram downdate/update + warm-started
/// re-convergence) must track per-push cold recompute within 1e-8 across a
/// full pass over the stream.
#[test]
fn incremental_tucker_tracks_cold_recompute() {
    let stream = [12usize, 12, 24];
    let window_len = 8usize;
    let cfg = LoopCfg {
        max_sweeps: 12,
        tol: 1e-10,
    };
    let w0 = DenseTensor::from_fn(Shape::new(vec![12, 12, window_len]), |c| {
        video_field(c, &stream)
    });
    let mut st = SlidingTucker::new(w0, vec![3, 3, 2], cfg);
    let meta = st.meta().clone();
    for push in 1..=(stream[2] - window_len) {
        let slab = DenseTensor::from_fn(Shape::new(vec![12, 12, 1]), |c| {
            video_field(&[c[0], c[1], c[2] + push + window_len - 1], &stream)
        });
        let e_inc = st.push_slab(&slab);
        let (_, e_cold, _) = full_recompute(st.window(), &meta, cfg);
        assert!(
            (e_inc - e_cold).abs() <= 1e-8,
            "push {push}: incremental err {e_inc} vs cold {e_cold}"
        );
    }
}
