//! Property tests for the packed micro-kernel layer (`tucker_linalg::pack`):
//! the packed GEMM/SYRK paths must match straightforward reference loops to
//! 1e-12 over random shapes, strides, ranges and scalings — including empty
//! `r0 == r1` / `c0 == c1` ranges and `k == 0` — and the SYRK paths must
//! never touch the upper triangle.
//!
//! The packed entry points are exercised **directly** (`pack::gemm_packed`,
//! `pack::syrk_packed_lower`) so coverage does not depend on the `Auto`
//! dispatch threshold, and the public `syrk_ata_lower`/`syrk_aat_lower`
//! helpers are run alongside so whichever path `Auto` picks is differential
//! against the same reference. No test flips the process-wide kernel mode:
//! the test binary runs tests concurrently and the mode is global.
//!
//! The `*_bits_*` properties are the fence around the ISA dispatch: the
//! dispatched path (AVX2 where the CPU has it), the portable instantiation of
//! the same body (`*_on(Isa::PORTABLE, ..)`) and a scalar reference that
//! spells out the per-element order of operations must agree in every bit.
//! The first equality catches an instantiation that rounds differently (a
//! fused multiply-add, a re-associated sum); the second catches a change to
//! the shared body that both instantiations would make together.
//!
//! Cases are generated deterministically from a fixed per-test seed (see
//! `vendor/proptest`): CI runs are reproducible, and `PROPTEST_SEED` /
//! `PROPTEST_CASES` explore other streams or bound the case count.

use proptest::prelude::*;
use tucker_linalg::pack::{self, Isa, PackPair, KC, MC, MR, NR};
use tucker_linalg::{syrk_aat_lower, syrk_ata_lower};

/// Deterministic hash noise in [-0.5, 0.5).
fn noise(seed: u64, i: usize) -> f64 {
    let x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

fn noise_vec(seed: u64, len: usize) -> Vec<f64> {
    (0..len).map(|i| noise(seed, i)).collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One element of `C` after a packed kernel, to the bit: per `KC` block of
/// the shared dimension a fresh partial sum from `0.0`, terms in ascending
/// order, one rounded multiply and one rounded add per term; then
/// `c += alpha · partial`.
fn ordered_update(c0: f64, alpha: f64, k: usize, term: impl Fn(usize) -> (f64, f64)) -> f64 {
    let mut c = c0;
    for pc in (0..k).step_by(KC) {
        let mut partial = 0.0;
        for l in pc..(pc + KC).min(k) {
            let (x, y) = term(l);
            partial += x * y;
        }
        c += alpha * partial;
    }
    c
}

/// Extents on both sides of every tile and block edge.
const ROW_EDGES: [usize; 8] = [1, MR - 1, MR, MR + 1, MC - 1, MC, MC + 1, 2 * MC + 3];
const COL_EDGES: [usize; 6] = [1, NR - 1, NR, NR + 1, 2 * NR + 1, 37];
const DEPTH_EDGES: [usize; 7] = [0, 1, 7, KC - 1, KC, KC + 1, 2 * KC + 5];

/// An `r×c` operand in one of the two layouts: column-major (`rs = 1`) or the
/// transposed view of a column-major `c×r` buffer (`cs = 1`).
fn operand(seed: u64, r: usize, c: usize, transposed: bool) -> (Vec<f64>, usize, usize) {
    let buf = noise_vec(seed, r * c);
    if transposed {
        (buf, c, 1)
    } else {
        (buf, 1, r)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `pack::gemm_packed` on random shapes (k = 0 included), random
    /// operand layouts (column-major or transposed view of a column-major
    /// buffer) and a padded output leading dimension matches the reference
    /// triple loop to 1e-12.
    #[test]
    fn packed_gemm_matches_reference(
        m in 1usize..=40,
        n in 1usize..=40,
        k in 0usize..=70,
        a_t in 0u8..2,
        b_t in 0u8..2,
        pad in 0usize..=3,
        seed in 0u64..10_000,
    ) {
        let alpha = 0.25 + noise(seed, 0).abs();
        // A strided view: column-major (rs=1, cs=m) or the transpose of a
        // column-major k×m buffer (rs=k, cs=1). Same for B.
        let (a_buf, a_rs, a_cs) = if a_t == 1 {
            (noise_vec(seed ^ 1, k * m), k, 1)
        } else {
            (noise_vec(seed ^ 1, m * k), 1, m)
        };
        let (b_buf, b_rs, b_cs) = if b_t == 1 {
            (noise_vec(seed ^ 2, n * k), n, 1)
        } else {
            (noise_vec(seed ^ 2, k * n), 1, k)
        };
        let ldc = m + pad;
        let mut c = noise_vec(seed ^ 3, ldc * n);
        let c0 = c.clone();

        let mut packs = PackPair::new();
        pack::gemm_packed(
            m, n, k, &a_buf, a_rs, a_cs, &b_buf, b_rs, b_cs, alpha, &mut c, ldc, &mut packs,
        );

        for j in 0..n {
            for i in 0..ldc {
                let got = c[i + j * ldc];
                if i >= m {
                    // Padding rows below the logical output are never touched.
                    prop_assert_eq!(got, c0[i + j * ldc]);
                    continue;
                }
                let dot: f64 = (0..k)
                    .map(|l| a_buf[i * a_rs + l * a_cs] * b_buf[l * b_rs + j * b_cs])
                    .sum();
                let want = c0[i + j * ldc] + alpha * dot;
                prop_assert!(close(got, want), "({i},{j}) {m}x{n}x{k}: {got} vs {want}");
            }
        }
    }

    /// `pack::syrk_packed_lower` and the public `syrk_ata_lower` (whatever
    /// path `Auto` dispatches) both match the reference lower-triangle
    /// `AᵀA` accumulate over a random row range — `r0 == r1` included — and
    /// neither writes the upper triangle.
    #[test]
    fn packed_syrk_ata_matches_reference(
        n in 1usize..=32,
        rows in 0usize..=60,
        extra in 0usize..=4,
        seed in 0u64..10_000,
    ) {
        let lda = rows + extra;
        let r0 = rows.min(extra);
        let r1 = rows;
        let a = noise_vec(seed, n * lda);

        // Reference accumulate into a noise-seeded lower triangle.
        let base = noise_vec(seed ^ 5, n * n);
        let mut want = base.clone();
        for l2 in 0..n {
            for l1 in l2..n {
                let dot: f64 = (r0..r1).map(|r| a[r + l1 * lda] * a[r + l2 * lda]).sum();
                want[l1 + l2 * n] += dot;
            }
        }

        // Direct packed call (operand Sᵀ: element (l1, l) at a[r0 + l + l1·lda]).
        let mut c_packed = base.clone();
        if r1 > r0 {
            let mut packs = PackPair::new();
            pack::syrk_packed_lower(n, r1 - r0, &a[r0..], lda, 1, 1.0, &mut c_packed, &mut packs);
        }
        // Public helper (Auto dispatch).
        let mut c_pub = base.clone();
        syrk_ata_lower(&a, lda, n, r0, r1, &mut c_pub);

        for l2 in 0..n {
            for l1 in 0..n {
                let (g_packed, g_pub) = (c_packed[l1 + l2 * n], c_pub[l1 + l2 * n]);
                if l1 < l2 {
                    // Upper triangle untouched by both.
                    prop_assert_eq!(g_packed, base[l1 + l2 * n]);
                    prop_assert_eq!(g_pub, base[l1 + l2 * n]);
                } else {
                    let w = want[l1 + l2 * n];
                    prop_assert!(close(g_packed, w), "packed ({l1},{l2}): {g_packed} vs {w}");
                    prop_assert!(close(g_pub, w), "public ({l1},{l2}): {g_pub} vs {w}");
                }
            }
        }
    }

    /// Same two-way differential for the `A·Aᵀ` column-range helper
    /// (`c0 == c1` empty ranges included).
    #[test]
    fn packed_syrk_aat_matches_reference(
        m in 1usize..=32,
        k in 0usize..=60,
        split in 0usize..=60,
        seed in 0u64..10_000,
    ) {
        let c0 = split.min(k);
        let c1 = k;
        let a = noise_vec(seed, m * k);

        let base = noise_vec(seed ^ 7, m * m);
        let mut want = base.clone();
        for j in 0..m {
            for i in j..m {
                let dot: f64 = (c0..c1).map(|l| a[i + l * m] * a[j + l * m]).sum();
                want[i + j * m] += dot;
            }
        }

        let mut c_packed = base.clone();
        if c1 > c0 {
            let mut packs = PackPair::new();
            pack::syrk_packed_lower(m, c1 - c0, &a[c0 * m..], 1, m, 1.0, &mut c_packed, &mut packs);
        }
        let mut c_pub = base.clone();
        syrk_aat_lower(&a, m, c0, c1, &mut c_pub);

        for j in 0..m {
            for i in 0..m {
                let (g_packed, g_pub) = (c_packed[i + j * m], c_pub[i + j * m]);
                if i < j {
                    prop_assert_eq!(g_packed, base[i + j * m]);
                    prop_assert_eq!(g_pub, base[i + j * m]);
                } else {
                    let w = want[i + j * m];
                    prop_assert!(close(g_packed, w), "packed ({i},{j}): {g_packed} vs {w}");
                    prop_assert!(close(g_pub, w), "public ({i},{j}): {g_pub} vs {w}");
                }
            }
        }
    }

    /// `pack::gemm_prepacked_b` (the shared-factor TTM path) is
    /// bit-identical to `pack::gemm_packed` on the same operands, for any
    /// shape and either B layout.
    #[test]
    fn prepacked_b_path_is_bit_identical(
        m in 1usize..=48,
        n in 1usize..=24,
        k in 1usize..=48,
        b_t in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let a = noise_vec(seed ^ 11, m * k);
        let (b_buf, b_rs, b_cs) = if b_t == 1 {
            (noise_vec(seed ^ 12, n * k), n, 1)
        } else {
            (noise_vec(seed ^ 12, k * n), 1, k)
        };

        let mut c_direct = vec![0.0; m * n];
        let mut packs = PackPair::new();
        pack::gemm_packed(
            m, n, k, &a, 1, m, &b_buf, b_rs, b_cs, 1.0, &mut c_direct, m, &mut packs,
        );

        let mut bpack = vec![0.0; pack::packed_b_full_len(k, n)];
        pack::pack_b_full(&mut bpack, k, n, &b_buf, b_rs, b_cs);
        let mut c_pre = vec![0.0; m * n];
        let mut apack = pack::PackBuf::new();
        pack::gemm_prepacked_b(m, n, k, &a, 1, m, &bpack, 1.0, &mut c_pre, m, &mut apack);

        prop_assert_eq!(c_direct, c_pre);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `gemm_packed` and `gemm_prepacked_b`: dispatched == portable ==
    /// ordered scalar reference in every bit, over shapes straddling every
    /// `MR`/`NR`/`KC`/`MC` edge, all four stride orientations, `alpha ≠ 1`,
    /// `k = 0` and a padded `ldc` whose padding rows stay untouched.
    #[test]
    fn gemm_bits_dispatched_portable_and_ordered_reference_agree(
        mi in 0usize..ROW_EDGES.len(),
        ni in 0usize..COL_EDGES.len(),
        ki in 0usize..DEPTH_EDGES.len(),
        a_t in 0u8..2,
        b_t in 0u8..2,
        pad in 0usize..=2,
        seed in 0u64..10_000,
    ) {
        let (m, n, k) = (ROW_EDGES[mi], COL_EDGES[ni], DEPTH_EDGES[ki]);
        let alpha = -(1.5 + noise(seed, 0));
        let (a, a_rs, a_cs) = operand(seed ^ 21, m, k, a_t == 1);
        let (b, b_rs, b_cs) = operand(seed ^ 22, k, n, b_t == 1);
        let ldc = m + pad;
        let c0 = noise_vec(seed ^ 23, ldc * n);

        let mut want = c0.clone();
        for j in 0..n {
            for i in 0..m {
                want[i + j * ldc] = ordered_update(c0[i + j * ldc], alpha, k, |l| {
                    (a[i * a_rs + l * a_cs], b[l * b_rs + j * b_cs])
                });
            }
        }

        let mut packs = PackPair::new();
        let mut dispatched = c0.clone();
        pack::gemm_packed(
            m, n, k, &a, a_rs, a_cs, &b, b_rs, b_cs, alpha, &mut dispatched, ldc, &mut packs,
        );
        let mut portable = c0.clone();
        pack::gemm_packed_on(
            Isa::PORTABLE, m, n, k, &a, a_rs, a_cs, &b, b_rs, b_cs, alpha, &mut portable, ldc,
            &mut packs,
        );
        prop_assert_eq!(bits(&dispatched), bits(&want), "gemm {m}x{n}x{k}");
        prop_assert_eq!(bits(&portable), bits(&want), "portable gemm {m}x{n}x{k}");

        let mut bpack = vec![0.0; pack::packed_b_full_len(k, n)];
        pack::pack_b_full(&mut bpack, k, n, &b, b_rs, b_cs);
        let mut apack = pack::PackBuf::new();
        let mut dispatched = c0.clone();
        pack::gemm_prepacked_b(
            m, n, k, &a, a_rs, a_cs, &bpack, alpha, &mut dispatched, ldc, &mut apack,
        );
        let mut portable = c0.clone();
        pack::gemm_prepacked_b_on(
            Isa::PORTABLE, m, n, k, &a, a_rs, a_cs, &bpack, alpha, &mut portable, ldc, &mut apack,
        );
        prop_assert_eq!(bits(&dispatched), bits(&want), "prepacked {m}x{n}x{k}");
        prop_assert_eq!(bits(&portable), bits(&want), "portable prepacked {m}x{n}x{k}");
    }

    /// `syrk_packed_lower`, both operand orientations: dispatched ==
    /// portable == ordered scalar reference in every bit on the lower
    /// triangle, and the upper triangle keeps the bits it had.
    #[test]
    fn syrk_bits_dispatched_portable_and_ordered_reference_agree(
        ni in 0usize..ROW_EDGES.len(),
        ki in 0usize..DEPTH_EDGES.len(),
        a_t in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let (n, k) = (ROW_EDGES[ni], DEPTH_EDGES[ki]);
        let alpha = 0.5 + noise(seed, 1).abs();
        let (a, rs, cs) = operand(seed ^ 31, n, k, a_t == 1);
        let c0 = noise_vec(seed ^ 32, n * n);

        // Upper-triangle entries of `want` stay at their `c0` bits.
        let mut want = c0.clone();
        for j in 0..n {
            for i in j..n {
                want[i + j * n] = ordered_update(c0[i + j * n], alpha, k, |l| {
                    (a[i * rs + l * cs], a[j * rs + l * cs])
                });
            }
        }

        let mut packs = PackPair::new();
        let mut dispatched = c0.clone();
        pack::syrk_packed_lower(n, k, &a, rs, cs, alpha, &mut dispatched, &mut packs);
        let mut portable = c0.clone();
        pack::syrk_packed_lower_on(
            Isa::PORTABLE, n, k, &a, rs, cs, alpha, &mut portable, &mut packs,
        );
        prop_assert_eq!(bits(&dispatched), bits(&want), "syrk n={n} k={k}");
        prop_assert_eq!(bits(&portable), bits(&want), "portable syrk n={n} k={k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The streamed kernels against the packed ones, in every bit: with the
    /// factor (`K ≤ MR` lanes, any depth on both sides of `KC`) on the left,
    /// `gemm_streamed_b` == `gemm_packed`; on the right (`K ≤ NR`, `A`'s
    /// columns padded apart as a slab of a larger tensor's rows are),
    /// `gemm_streamed_a` == `gemm_prepacked_b`. Both also equal their
    /// portable instantiations. The operands hold signed zeros, and `C`
    /// starts from noise so the `c += alpha·acc` store is compared too.
    #[test]
    fn streamed_kernels_equal_packed_bits(
        kf in 1usize..=MR,
        len in 1usize..=70,
        di in 0usize..DEPTH_EDGES.len(),
        pad in 0usize..=2,
        seed in 0u64..10_000,
    ) {
        let depth = DEPTH_EDGES[di].max(1);
        let alpha = 0.5 + noise(seed, 2).abs();
        let signed_zeros = |mut v: Vec<f64>| {
            for (i, x) in v.iter_mut().enumerate() {
                match i % 7 {
                    3 => *x = 0.0,
                    5 => *x = -0.0,
                    _ => {}
                }
            }
            v
        };
        // The factor: K × depth, column-major (a TTM's A).
        let f = signed_zeros(noise_vec(seed ^ 41, kf * depth));
        let mut fpack = vec![0.0; pack::packed_factor_len(depth)];
        pack::pack_factor(&mut fpack, kf, depth, &f, 1, kf);
        // The streamed operand: depth × len for B (columns contiguous),
        // len × depth for A (rows contiguous).
        let t = signed_zeros(noise_vec(seed ^ 42, len * depth));
        let mut packs = PackPair::new();

        // Left factor: C[kf × len] += alpha · F · B.
        let ldc = kf + pad;
        let c0 = noise_vec(seed ^ 43, ldc * len);
        let mut want = c0.clone();
        pack::gemm_packed(
            kf, len, depth, &f, 1, kf, &t, 1, depth, alpha, &mut want, ldc, &mut packs,
        );
        for isa in [Isa::detect(), Isa::PORTABLE] {
            let mut got = c0.clone();
            pack::gemm_streamed_b_on(isa, kf, len, depth, &fpack, &t, depth, alpha, &mut got, ldc);
            prop_assert_eq!(bits(&got), bits(&want), "B-side {:?} {kf}x{len}x{depth}", isa);
        }

        // Right factor: C[len × kf] += alpha · A · Fᵀ, A len × depth with
        // column stride len + pad.
        let kf = kf.min(NR);
        let f = &f[..kf * depth];
        let mut fpack = vec![0.0; pack::packed_factor_len(depth)];
        pack::pack_factor(&mut fpack, kf, depth, f, 1, kf);
        let a_cs = len + pad;
        let t = signed_zeros(noise_vec(seed ^ 45, a_cs * depth));
        let ldc = len + pad;
        let c0 = noise_vec(seed ^ 44, ldc * kf);
        let mut bpack = vec![0.0; pack::packed_b_full_len(depth, kf)];
        pack::pack_b_full(&mut bpack, depth, kf, f, kf, 1);
        let mut want = c0.clone();
        pack::gemm_prepacked_b(
            len, kf, depth, &t, 1, a_cs, &bpack, alpha, &mut want, ldc, &mut packs.a,
        );
        for isa in [Isa::detect(), Isa::PORTABLE] {
            let mut got = c0.clone();
            pack::gemm_streamed_a_on(isa, len, kf, depth, &t, a_cs, &fpack, alpha, &mut got, ldc);
            prop_assert_eq!(bits(&got), bits(&want), "A-side {:?} {len}x{kf}x{depth}", isa);
        }
    }
}
