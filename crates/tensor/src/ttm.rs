//! Tensor-times-matrix (TTM) products.
//!
//! `Z = T ×_n A` applies the `K × L_n` matrix `A` to every mode-`n` fiber of
//! `T`; the result has the mode-`n` length replaced by `K` (paper §2.1).
//!
//! The kernel follows the blocking strategy of Austin et al. (paper §5): the
//! canonical layout factors the tensor into `outer = ∏_{j>n} L_j` contiguous
//! slabs, each an `inner × L_n` column-major matrix with
//! `inner = ∏_{j<n} L_j`. The TTM is then a batch of plain GEMMs
//! `Out_o = In_o · Aᵀ` on those slabs — **no unfolding is ever
//! materialized**. Slabs are independent, so the batch splits into `threads`
//! contiguous slab runs executed on the shared worker team
//! (`tucker_linalg::Pool`); the last mode, which has a single slab, splits
//! that slab's rows instead. A TTM's bits do not depend on the partition.
//!
//! Above the packing threshold the slab GEMMs run on the packed
//! micro-kernels of `tucker_linalg::pack`, and this is where packing
//! amortizes best: the factor operand `Aᵀ` is **packed once per TTM call**
//! (`pack_b_full`) and the same pack is read by every outer slab and every
//! part; only the slab operand is packed per block. Mode 0
//! (`inner == 1`) collapses to a single column-partitioned GEMM
//! `Out = A · Src`. Pack buffers have one owner, the thread-local slots of
//! `tucker_linalg::pack`: a sequential call — free function or
//! [`TtmWorkspace`] method alike — stages through `pack::with_thread_packs`,
//! the parts of a parallel region through their participant's own scratch
//! (`pack::with_part_packs`, `with_stage`), which stays warm because the
//! team's threads persist. Their growth is counted by the debug allocation
//! counter exactly like tensor buffers, so steady-state sweeps stay
//! allocation-free pack buffers included. Below the threshold (or under
//! `KernelMode::Naive`) the original unrolled dot/axpy slab loops run
//! unchanged.
//!
//! A skinny factor changes which operand is worth packing. With `K ≤ MR`
//! (mode 0) a packed panel of the tensor would be read by one register
//! tile, and with `K ≤ NR` (every other mode, slab rows contiguous) a
//! packed panel of slab rows would be too. Those products **stream** the
//! tensor instead: only the factor is packed (`pack_factor`), and `gemm_streamed_b` (mode-0 fibers)
//! or `gemm_streamed_a` (slab rows) read the tensor where it lies. The
//! streamed kernels give the packed kernels' bits, so the dispatch is a rule
//! of the shape that no caller can observe, except in `bytes_packed`.
//!
//! There is one body, and it takes a view: every entry point accepts
//! `impl Into<TensorView>`, a `&DenseTensor` being its full view. A
//! contiguous view (every full tensor and last-mode slice) runs the slab
//! kernels where it lies; any other view is copied once into a grow-only
//! thread-local scratch first, exactly as the Gram does
//! (`view::with_canonical`), and runs the same body at the same `threads`.
//! The slab body's bits do not depend on the partition, so a view's TTM is
//! extract-then-TTM to the bit.
//!
//! The workhorse entry point is [`ttm_into_threads`], which writes into a
//! caller-provided grow-only buffer; [`TtmWorkspace`] pools such buffers so
//! TTM chains ping-pong between two reused buffers (trees cycle through a
//! small pool, one live buffer per depth level) and steady-state HOOI /
//! STHOSVD iterations perform **zero tensor-sized allocations**. The classic
//! allocating [`ttm`] survives as a thin wrapper over the same body.
//!
//! The explicit-unfold formulation (materialize `T(n)`, multiply, fold back)
//! is a test reference here and the baseline arm of the kernel-ablation
//! bench — the invariant that no hot path materializes an unfolding is
//! enforced by the allocation-regression smoke test in `tucker-core`.

use crate::dense::{note_buffer_alloc, DenseTensor};
use crate::shape::{Dims, Shape};
use crate::view::{with_canonical, TensorView};
use tucker_linalg::pack::{self, PackBuf};
use tucker_linalg::{Matrix, Pool};

/// Minimum total work (`inner·Lₙ·K·outer` multiply-adds) before a TTM
/// splits over the team. Timed on a 2-core x86-64 host (`ttm_into_threads`
/// in 1 part vs 2, medians of 15 batches, 16³, 32³ and 16×64×32 tensors in
/// every mode): two parts were 0.4–0.98× the speed of one at 2¹⁴–2¹⁵,
/// 0.5–1.4× at 2¹⁶, and mostly faster (up to 1.4×, 2× from 64³ on) above.
const PAR_MIN_WORK: usize = 1 << 16;

/// Smallest `inner` extent for which the packed path runs one GEMM **per
/// slab**: below this a single slab is too skinny for `MR`-row register
/// tiles, so the packed path instead gathers groups of consecutive slabs
/// into one `(g·inner) × L_n` staging matrix (see
/// [`ttm_packed_small_inner_run`]) and full tiles are restored.
const PACK_MIN_INNER: usize = 16;

/// `Z = T ×_n A` with `A` of shape `K × L_n`, for a tensor or any strided
/// [`TensorView`] (a `&DenseTensor` enters as its full view).
///
/// Thin allocating wrapper over [`ttm_into_threads`] with a heuristic
/// partition count (sequential below a total-work threshold, one part per
/// host core above it); hot loops should hold a [`TtmWorkspace`] and reuse
/// buffers instead.
///
/// # Panics
/// Panics if `n` is out of range, `A.ncols() != L_n`, or the view is empty
/// (the output shape would have a zero-length mode).
pub fn ttm<'a>(t: impl Into<TensorView<'a>>, n: usize, a: &Matrix) -> DenseTensor {
    let v = t.into();
    let mut out = Vec::new();
    let shape = ttm_into_impl(&v, n, a, &mut out, auto_threads(&v, n, a));
    DenseTensor::from_vec(shape, out)
}

/// The heuristic partition count [`ttm`] and [`TtmWorkspace::ttm`] use:
/// sequential below the threshold on the whole product's work
/// `inner·Lₙ·K·outer`, one part per host core otherwise. Counting one
/// slab's work instead would keep every mode-0 TTM (`inner = 1`)
/// sequential, whatever its size.
fn auto_threads(v: &TensorView, n: usize, a: &Matrix) -> usize {
    v.check_mode(n);
    let work = v.cardinality().saturating_mul(a.nrows());
    crate::threads::heuristic_threads(work, PAR_MIN_WORK)
}

/// `Z = T ×_n A` written into `out` with an **explicit** partition count,
/// returning `Z`'s shape.
///
/// `out` is cleared and resized to the output cardinality; its capacity is
/// grow-only, so reusing the same buffer across calls allocates only until
/// the largest output has been seen (each capacity growth is counted as one
/// tensor-buffer allocation, see
/// [`tensor_buffer_allocs`](crate::dense::tensor_buffer_allocs)).
///
/// The canonical slab kernels run with the `outer` slab range split into
/// `threads` contiguous runs (the rows of the one slab, for a packed
/// last-mode product), executed on the shared worker team however wide it
/// is; `threads == 1` runs the slab loop strictly sequentially (no parallel
/// region is opened). This is the par-ranged entry point of the
/// sweep-executor backends (`SeqBackend` pins 1; `RayonBackend` splits by
/// [`TtmWorkspace::ttm`]'s work rule, since the bits do not depend on it).
///
/// A contiguous view (every full-tensor view and last-mode slice) is read
/// where it lies. Any other view is copied once (`copy_into`, counted in
/// [`view_bytes_copied`](crate::view::view_bytes_copied)) into this
/// thread's grow-only scratch, which stays allocation-free once warm, and
/// runs the same body at the same `threads`. Per-element accumulation order
/// depends only on the `KC` blocking of the contracted extent `L_n`, never
/// on the partition, so the result is **bit-identical** to extracting the
/// view and calling the dense kernel, at any `threads`.
///
/// # Panics
/// See [`ttm`].
pub fn ttm_into_threads<'a>(
    t: impl Into<TensorView<'a>>,
    n: usize,
    a: &Matrix,
    out: &mut Vec<f64>,
    threads: usize,
) -> Shape {
    ttm_into_impl(&t.into(), n, a, out, threads)
}

/// The one TTM body behind every entry point: validate, size `out`, and
/// run the slab body on the view's canonical layout.
fn ttm_into_impl(
    v: &TensorView,
    n: usize,
    a: &Matrix,
    out: &mut Vec<f64>,
    threads: usize,
) -> Shape {
    v.check_mode(n);
    let ln = v.dim(n);
    let k = a.nrows();
    assert_eq!(
        a.ncols(),
        ln,
        "TTM mode-{n} operand must have {ln} columns, got {}",
        a.ncols()
    );
    let mut od = Dims::from(v.dims());
    od[n] = k;
    let out_shape = Shape::from(&od[..]); // rejects empty views (zero-length mode)
    if out.capacity() < out_shape.cardinality() {
        note_buffer_alloc();
    }
    out.clear();
    out.resize(out_shape.cardinality(), 0.0);
    with_canonical(v, |src| ttm_src_body(src, v.dims(), n, a, out, threads));
    out_shape
}

/// The canonical-layout TTM body on raw storage: `src`/`dims` describe a
/// tensor in canonical layout (a tensor's buffer, a contiguous view's
/// window, or a strided view's scratch copy), `out` is already zeroed to
/// the output cardinality.
fn ttm_src_body(
    src: &[f64],
    dims: &[usize],
    n: usize,
    a: &Matrix,
    out: &mut [f64],
    threads: usize,
) {
    let ln = dims[n];
    let k = a.nrows();
    let inner: usize = dims[..n].iter().product();
    let outer: usize = dims[n + 1..].iter().product();
    let a_buf = a.as_slice(); // column-major K x Ln: A[k,l] = a_buf[k + l*K]

    let in_slab = inner * ln;
    let out_slab = inner * k;

    // One-shot runtime pick for the whole call: the packed micro-kernel path
    // once total work amortizes packing. Every `inner` extent is eligible —
    // mode 0 collapses to a single GEMM, wide slabs run one GEMM each, and
    // small-inner shapes go through the slab-grouped staging path.
    if pack::use_packed(inner.saturating_mul(outer), k, ln) {
        ttm_packed(src, a_buf, inner, ln, k, outer, out, threads);
        return;
    }

    // inner == 1 (mode 0): each slab is one contiguous fiber and each output
    // element is a plain dot product against a row of A. Transpose A once
    // (Aᵀ's columns are A's rows, contiguous) so the dots run over
    // contiguous memory with the unrolled kernel.
    let a_rows: Option<Matrix> = (inner == 1).then(|| a.transpose());

    let do_slab = |(o, dst): (usize, &mut [f64])| {
        let s = &src[o * in_slab..(o + 1) * in_slab];
        if let Some(at) = &a_rows {
            // dst[kk] = <A[kk, :], fiber>; dst is freshly zeroed, write once.
            for (d, row) in dst.iter_mut().zip(at.as_slice().chunks_exact(ln)) {
                *d = tucker_linalg::unrolled_dot(row, s);
            }
        } else if inner >= 16 {
            // Out_o(:, kk) += A[kk, l] * In_o(:, l) — long axpys over `inner`.
            for l in 0..ln {
                let sl = &s[l * inner..(l + 1) * inner];
                let acol = &a_buf[l * k..(l + 1) * k];
                for (kk, &alk) in acol.iter().enumerate() {
                    let dcol = &mut dst[kk * inner..(kk + 1) * inner];
                    for (d, v) in dcol.iter_mut().zip(sl) {
                        *d += alk * v;
                    }
                }
            }
        } else {
            // Small inner (1 < inner < 16), below the packing threshold or
            // forced naive: iterate the `inner` interleaved fibers and do
            // axpys over K using A's contiguous columns.
            for i in 0..inner {
                for l in 0..ln {
                    let x = s[i + l * inner];
                    let acol = &a_buf[l * k..(l + 1) * k];
                    for (kk, &alk) in acol.iter().enumerate() {
                        dst[i + kk * inner] += alk * x;
                    }
                }
            }
        }
    };

    let workers = threads.max(1).min(outer.max(1));
    if workers > 1 {
        // Group slabs into `workers` contiguous runs: one part per run.
        let per = outer.div_ceil(workers);
        Pool::shared().chunks_mut(out, out_slab * per, |w, run| {
            for (i, dst) in run.chunks_mut(out_slab).enumerate() {
                do_slab((w * per + i, dst));
            }
        });
    } else {
        out.chunks_mut(out_slab).enumerate().for_each(do_slab);
    }
}

/// The packed-kernel TTM body: `out` is zeroed, shapes validated.
///
/// * `inner == 1` (mode 0): one GEMM `Out[k×outer] = A[k×ln] · Src[ln×outer]`,
///   column-partitioned across the parts; with `k ≤ MR` it streams `Src`
///   (`gemm_streamed_b`). Per-element accumulation order only depends on
///   the `KC` blocking of `ln`, so any partition produces bit-identical
///   results.
/// * `inner > 1`: the factor is packed **once** into `packs.b`
///   ([`SlabFactor`]) and shared (read-only) by every slab and every part;
///   each slab runs `Out_o[inner×k] = S_o[inner×ln] · Aᵀ` with its rows
///   packed per block, or streamed when `k ≤ NR`. Parts are
///   contiguous slab runs; the last mode (`outer == 1`) has one slab and
///   splits its rows instead ([`ttm_packed_last_mode_rows`]).
///
/// A sequential call stages through `packs`; the parts of a parallel region
/// stage through their participant's own scratch. Either way pack growth is
/// counted as a tensor-buffer allocation on the thread it happens on (the
/// debug counter is thread-local, so the caller sees its own share).
#[allow(clippy::too_many_arguments)]
fn ttm_packed(
    src: &[f64],
    a_buf: &[f64],
    inner: usize,
    ln: usize,
    k: usize,
    outer: usize,
    out: &mut [f64],
    threads: usize,
) {
    pack::with_thread_packs(|packs| {
        let workers = threads.max(1).min(outer.max(1));
        let per = outer.div_ceil(workers);
        if inner == 1 {
            // Mode 0: Out = A · Src with A[kk,l] = a_buf[kk + l*k] (strides 1, k)
            // and Src[l,o] = src[l + o*ln] (strides 1, ln).
            if pack::b_panel_readers(k) == 1 {
                // A packed Src panel would be read by one register tile:
                // pack A alone and stream Src's fibers where they lie.
                let fp = pack_streamed_factor(a_buf, k, ln, &mut packs.a);
                let gemm = |src: &[f64], dst: &mut [f64]| {
                    let cols = dst.len() / k;
                    pack::gemm_streamed_b(k, cols, ln, fp, src, ln, 1.0, dst, k)
                };
                if workers > 1 {
                    Pool::shared()
                        .chunks_mut(out, k * per, |w, dst| gemm(&src[w * per * ln..], dst));
                } else {
                    gemm(src, out);
                }
            } else if workers > 1 {
                Pool::shared().chunks_mut(out, k * per, |w, dst| {
                    let cols = dst.len() / k;
                    let src = &src[w * per * ln..];
                    note_growth(pack::with_part_packs(|part| {
                        pack::gemm_packed(k, cols, ln, a_buf, 1, k, src, 1, ln, 1.0, dst, k, part)
                    }));
                });
            } else {
                note_growth(pack::gemm_packed(
                    k, outer, ln, a_buf, 1, k, src, 1, ln, 1.0, out, k, packs,
                ));
            }
            return;
        }

        // General mode: pack the factor once and share it with every slab
        // GEMM `Out_o = S_o · Aᵀ`.
        let factor = SlabFactor::pack(a_buf, ln, k, &mut packs.b);
        let in_slab = inner * ln;
        let out_slab = inner * k;

        if inner < PACK_MIN_INNER {
            // Small inner: single slabs cannot fill MR-row register tiles, so
            // consecutive slabs are staged together (see the run function).
            if workers > 1 {
                Pool::shared().chunks_mut(out, out_slab * per, |w, run| {
                    let src = &src[w * per * in_slab..];
                    let slabs = run.len() / out_slab;
                    pack::with_part_packs(|part| {
                        ttm_packed_small_inner_run(
                            src,
                            factor,
                            inner,
                            ln,
                            k,
                            slabs,
                            run,
                            &mut part.a,
                        )
                    });
                });
            } else {
                ttm_packed_small_inner_run(src, factor, inner, ln, k, outer, out, &mut packs.a);
            }
            return;
        }

        let slab_run = |first: usize, run: &mut [f64], apack: &mut PackBuf| {
            let mut grew = false;
            for (i, dst) in run.chunks_mut(out_slab).enumerate() {
                let o = first + i;
                let s = &src[o * in_slab..(o + 1) * in_slab];
                grew |= factor.gemm(inner, k, ln, s, inner, dst, inner, apack);
            }
            note_growth(grew);
        };
        let row_parts = threads.max(1).min(inner.div_ceil(pack::MC));
        if workers > 1 {
            Pool::shared().chunks_mut(out, out_slab * per, |w, run| {
                pack::with_part_packs(|part| slab_run(w * per, run, &mut part.a));
            });
        } else if outer == 1 && row_parts > 1 {
            ttm_packed_last_mode_rows(src, factor, inner, ln, k, out, row_parts);
        } else {
            slab_run(0, out, &mut packs.a);
        }
    })
}

/// Pack a TTM's `K × Lₙ` factor (`a_buf`, column-major) for the streamed
/// kernels into `buf`, counting growth: one `MR`-lane panel with `A`'s rows
/// as the lanes, which is the streamed operand's partner on either side —
/// `A` of `Out = A · Src` (mode 0) and `Aᵀ` of `Out_o = S_o · Aᵀ`.
fn pack_streamed_factor<'p>(a_buf: &[f64], k: usize, ln: usize, buf: &'p mut PackBuf) -> &'p [f64] {
    let len = pack::packed_factor_len(ln);
    note_growth(buf.ensure(len));
    pack::pack_factor(buf.slice_mut(len), k, ln, a_buf, 1, k);
    buf.slice(len)
}

/// The factor of a slab TTM (`inner > 1`), packed once per call for the
/// kernel the shape takes and shared, read-only, by every slab and part.
#[derive(Clone, Copy)]
enum SlabFactor<'a> {
    /// `Aᵀ` packed by `pack_b_full`; each slab's rows are packed per block
    /// (`gemm_prepacked_b`).
    Packed(&'a [f64]),
    /// `Aᵀ` packed by `pack_factor`: `K ≤ NR`, so a packed
    /// slab panel would be read by one register tile, and the rows stream
    /// into the tile where they lie (`gemm_streamed_a`). Same bits.
    Streamed(&'a [f64]),
}

impl<'a> SlabFactor<'a> {
    /// Pack the `K × Lₙ` factor `a_buf` into `buf` (growth counted).
    fn pack(a_buf: &[f64], ln: usize, k: usize, buf: &'a mut PackBuf) -> Self {
        if k <= pack::NR {
            return SlabFactor::Streamed(pack_streamed_factor(a_buf, k, ln, buf));
        }
        // Element (l, j) of Aᵀ is A[j, l] = a_buf[j + l*k]: strides (k, 1).
        let len = pack::packed_b_full_len(ln, k);
        note_growth(buf.ensure(len));
        pack::pack_b_full(buf.slice_mut(len), ln, k, a_buf, k, 1);
        SlabFactor::Packed(buf.slice(len))
    }

    /// `C[m×k] += S · Aᵀ` for the `m × Lₙ` slab rows `s` (element `(i, l)`
    /// at `s[i + l·s_cs]`), `C` column-major with leading dimension `ldc`;
    /// returns whether `apack` grew.
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        self,
        m: usize,
        k: usize,
        ln: usize,
        s: &[f64],
        s_cs: usize,
        c: &mut [f64],
        ldc: usize,
        apack: &mut PackBuf,
    ) -> bool {
        match self {
            SlabFactor::Streamed(fp) => {
                pack::gemm_streamed_a(m, k, ln, s, s_cs, fp, 1.0, c, ldc);
                false
            }
            SlabFactor::Packed(bp) => {
                pack::gemm_prepacked_b(m, k, ln, s, 1, s_cs, bp, 1.0, c, ldc, apack)
            }
        }
    }
}

/// Count a pack or staging buffer's growth as one tensor-buffer allocation.
fn note_growth(grew: bool) {
    if grew {
        note_buffer_alloc();
    }
}

/// The packed last-mode body (`outer == 1`, `inner ≥ PACK_MIN_INNER`): the
/// single slab GEMM `Out[inner×k] = S[inner×ln] · Aᵀ` split into `parts`
/// ranges of whole `MC` row blocks, so the last mode uses the team like
/// every other one. A row range of the column-major output is not a slice,
/// so each `MC` block is computed into the participant's `mc × k` staging
/// buffer — the very block and register tiles of the unsplit kernel,
/// accumulated from the same `0.0` — and copied out column by column.
fn ttm_packed_last_mode_rows(
    src: &[f64],
    factor: SlabFactor,
    inner: usize,
    ln: usize,
    k: usize,
    out: &mut [f64],
    parts: usize,
) {
    let rows = inner.div_ceil(pack::MC).div_ceil(parts) * pack::MC;
    Pool::shared().row_blocks_mut(out, inner, rows, |_, mut block| {
        let (row0, rows) = (block.row0(), block.rows());
        pack::with_part_packs(|part| {
            with_stage(|_, stage| {
                let mut grew = stage.capacity() < pack::MC.min(rows) * k;
                for ic in (0..rows).step_by(pack::MC) {
                    let mc = pack::MC.min(rows - ic);
                    stage.clear();
                    stage.resize(mc * k, 0.0);
                    let rows = &src[row0 + ic..];
                    grew |= factor.gemm(mc, k, ln, rows, inner, stage, mc, &mut part.a);
                    for (j, col) in stage.chunks_exact(mc).enumerate() {
                        block.col_mut(j)[ic..ic + mc].copy_from_slice(col);
                    }
                }
                note_growth(grew);
            })
        });
    });
}

thread_local! {
    /// This thread's reusable gather (`in`) / scatter (`out`) staging for the
    /// packed paths that cannot hand the kernel its operand or its output in
    /// place (take-and-put-back like `with_thread_packs`, so re-entrant use
    /// sees fresh buffers instead of panicking). On a pool worker it stays
    /// warm from one region to the next; it never exceeds `MC·(Lₙ + K)`
    /// values (two slabs' worth where `inner > MC/2`).
    static STAGE: std::cell::Cell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::Cell::new((Vec::new(), Vec::new())) };
}

fn with_stage<R>(f: impl FnOnce(&mut Vec<f64>, &mut Vec<f64>) -> R) -> R {
    STAGE.with(|cell| {
        let (mut sin, mut sout) = cell.take();
        let r = f(&mut sin, &mut sout);
        cell.set((sin, sout));
        r
    })
}

/// The small-inner packed body (`1 < inner < PACK_MIN_INNER`): slabs are too
/// short for `MR`-row register tiles on their own, so groups of up to
/// `MC/inner` consecutive slabs are gathered into one `(g·inner) × ln`
/// column-major staging matrix (row `o·inner + i` is fiber `i` of slab `o` —
/// every copy is a contiguous `inner`-length run), multiplied against the
/// shared factor with full tiles, and scattered back into the interleaved
/// output layout. Gather + scatter move `O((ln + k)·g·inner)` values per
/// group against `O(ln·k·g·inner)` multiply work, so the copies amortize for
/// any nontrivial `ln`, `k`. Per-element accumulation order depends only on
/// the `KC` blocking of `ln`, so grouping and worker count never change the
/// bits.
///
/// `src`/`out_run` start at the first slab of this run; `slabs` is the run
/// length. Stages through the running thread's [`with_stage`] buffers, grown
/// up front (and counted) so the run itself stays in capacity.
#[allow(clippy::too_many_arguments)]
fn ttm_packed_small_inner_run(
    src: &[f64],
    factor: SlabFactor,
    inner: usize,
    ln: usize,
    k: usize,
    slabs: usize,
    out_run: &mut [f64],
    apack: &mut PackBuf,
) {
    let in_slab = inner * ln;
    let out_slab = inner * k;
    let g_max = (pack::MC / inner).max(2);
    let rows_max = g_max.min(slabs) * inner;
    with_stage(|stage_in, stage_out| {
        let mut grew = stage_in.capacity() < rows_max * ln || stage_out.capacity() < rows_max * k;
        // `reserve` is relative to the length, and the buffers come back
        // holding the last group of the call before.
        stage_in.clear();
        stage_out.clear();
        stage_in.reserve(rows_max * ln);
        stage_out.reserve(rows_max * k);
        let mut o = 0;
        while o < slabs {
            let g = g_max.min(slabs - o);
            let rows = g * inner;
            stage_in.clear();
            stage_in.resize(rows * ln, 0.0);
            for ol in 0..g {
                let s = &src[(o + ol) * in_slab..][..in_slab];
                for l in 0..ln {
                    stage_in[ol * inner + l * rows..][..inner]
                        .copy_from_slice(&s[l * inner..][..inner]);
                }
            }
            stage_out.clear();
            stage_out.resize(rows * k, 0.0);
            grew |= factor.gemm(rows, k, ln, stage_in, rows, stage_out, rows, apack);
            for ol in 0..g {
                let dst = &mut out_run[(o + ol) * out_slab..][..out_slab];
                for kk in 0..k {
                    dst[kk * inner..][..inner]
                        .copy_from_slice(&stage_out[ol * inner + kk * rows..][..inner]);
                }
            }
            o += g;
        }
        note_growth(grew);
    });
}

/// Grow-only buffer pool for TTM pipelines.
///
/// A chain (`T ×_{n₁} A₁ ×_{n₂} A₂ …`) ping-pongs between two pooled
/// buffers: each step acquires one, writes into it, and recycles its
/// predecessor. TTM-tree evaluation cycles through a slightly larger pool —
/// one live buffer per depth level plus siblings still awaiting their turn.
/// Either way, once the pool has seen one full iteration, subsequent
/// identical iterations acquire exact-size buffers and perform **zero
/// tensor-sized allocations**.
///
/// Buffers keep their capacity when recycled; `acquire` picks the smallest
/// buffer that fits (falling back to growing the largest) so steady-state
/// workloads with a fixed shape schedule converge to an allocation-free
/// fixed point.
///
/// The pool is grow-only **per shape schedule**, which is the right trade
/// for a batch run but leaks in a long-running server whose request shapes
/// vary: every new high-water shape parks another large buffer forever.
/// [`TtmWorkspace::with_limit`]
/// caps the bytes parked in the pool; `recycle` sheds smallest-capacity
/// buffers until the cap holds, so mixed-shape streams keep peak pooled
/// bytes bounded while the hottest (largest) buffers stay resident.
#[derive(Default)]
pub struct TtmWorkspace {
    free: Vec<Vec<f64>>,
    /// Cap on bytes parked in `free`; `None` keeps the classic grow-only
    /// behavior.
    limit_bytes: Option<usize>,
}

impl TtmWorkspace {
    /// An empty workspace (no buffers until the first recycle/growth).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty workspace whose parked pool may not exceed `limit_bytes`.
    pub fn with_limit(limit_bytes: usize) -> Self {
        Self {
            limit_bytes: Some(limit_bytes),
            ..Self::default()
        }
    }

    /// Bytes held by parked buffers (capacity, not length — capacity is what
    /// a long-running process actually pays for).
    pub fn pooled_bytes(&self) -> usize {
        self.free
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<f64>())
            .sum()
    }

    /// [`ttm`] into a pooled buffer. Allocation-free once
    /// the pool holds a buffer of sufficient capacity.
    ///
    /// # Panics
    /// Like [`ttm`].
    pub fn ttm<'a>(&mut self, t: impl Into<TensorView<'a>>, n: usize, a: &Matrix) -> DenseTensor {
        let v = t.into();
        let threads = auto_threads(&v, n, a);
        self.ttm_threads(v, n, a, threads)
    }

    /// [`ttm_into_threads`] drawing the output buffer from the pool: the
    /// pooled-buffer discipline of [`TtmWorkspace::ttm`] with the slab
    /// partition pinned instead of heuristic. Handed a view, it is the
    /// streaming entry point of the out-of-core tiled sweeps, where each
    /// tile of a larger-than-memory tensor enters the kernel as a borrowed
    /// last-mode slice and only tile-sized intermediates ever touch the pool.
    ///
    /// # Panics
    /// Like [`ttm`].
    pub fn ttm_threads<'a>(
        &mut self,
        t: impl Into<TensorView<'a>>,
        n: usize,
        a: &Matrix,
        threads: usize,
    ) -> DenseTensor {
        let v = t.into();
        v.check_mode(n);
        let out_card = v.cardinality() / v.dim(n).max(1) * a.nrows();
        let mut buf = self.acquire(out_card);
        let shape = ttm_into_impl(&v, n, a, &mut buf, threads);
        DenseTensor::from_vec(shape, buf)
    }

    /// TTM-chain over distinct modes, ping-ponging between pooled buffers
    /// (intermediates are recycled as soon as the next step consumed them).
    ///
    /// # Panics
    /// Panics if a mode repeats or any operand shape is inconsistent.
    pub fn ttm_chain(&mut self, t: &DenseTensor, ops: &[(usize, &Matrix)]) -> DenseTensor {
        validate_chain_modes(t, ops);
        let mut cur: Option<DenseTensor> = None;
        for &(n, a) in ops {
            let next = match cur.as_ref() {
                None => self.ttm(t, n, a),
                Some(z) => self.ttm(z, n, a),
            };
            if let Some(old) = cur.replace(next) {
                self.recycle(old);
            }
        }
        cur.unwrap_or_else(|| t.clone())
    }

    /// A zero tensor of `shape` in a pooled buffer, allocation-free like
    /// [`TtmWorkspace::ttm`]: the destination of a tensor assembled slab by
    /// slab.
    pub fn zeros(&mut self, shape: impl Into<Shape>) -> DenseTensor {
        let shape = shape.into();
        let mut buf = self.acquire(shape.cardinality());
        if buf.capacity() < shape.cardinality() {
            note_buffer_alloc();
        }
        buf.clear();
        buf.resize(shape.cardinality(), 0.0);
        DenseTensor::from_vec(shape, buf)
    }

    /// Return a tensor's buffer to the pool for reuse. If a pooled-bytes
    /// limit is set, smallest-capacity buffers are dropped until the pool
    /// fits (the incoming buffer competes on equal terms, so a single
    /// over-limit buffer is itself rejected).
    pub fn recycle(&mut self, t: DenseTensor) {
        self.free.push(t.into_vec());
        self.enforce_limit();
    }

    /// Shed smallest-capacity buffers until `pooled_bytes() <= limit`.
    fn enforce_limit(&mut self) {
        let Some(limit) = self.limit_bytes else {
            return;
        };
        while self.pooled_bytes() > limit {
            let smallest = self
                .free
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i)
                .expect("pooled_bytes > 0 implies a non-empty pool");
            self.free.swap_remove(smallest);
        }
    }

    /// Pop the best-fitting free buffer: the smallest whose capacity covers
    /// `len`, else the largest available (it will grow once), else a fresh
    /// empty `Vec` (growth is counted by the TTM body).
    fn acquire(&mut self, len: usize) -> Vec<f64> {
        let mut best: Option<(bool, usize, usize)> = None; // (fits, capacity, index)
        for (i, b) in self.free.iter().enumerate() {
            let cap = b.capacity();
            let fits = cap >= len;
            let better = match best {
                None => true,
                Some((bf, bc, _)) => {
                    if fits != bf {
                        fits
                    } else if fits {
                        cap < bc
                    } else {
                        cap > bc
                    }
                }
            };
            if better {
                best = Some((fits, cap, i));
            }
        }
        match best {
            Some((_, _, i)) => self.free.swap_remove(i),
            None => Vec::new(),
        }
    }
}

/// TTM-chain: multiply along several distinct modes in the order given.
///
/// `ops` pairs each mode with its matrix. By the commutativity of TTM-chains
/// (paper §2.1) any order yields the same tensor; order only affects cost.
///
/// Convenience wrapper over [`TtmWorkspace::ttm_chain`] with a throwaway
/// workspace (intermediates still ping-pong between two buffers).
///
/// # Panics
/// Panics if a mode repeats or any operand shape is inconsistent.
pub fn ttm_chain(t: &DenseTensor, ops: &[(usize, &Matrix)]) -> DenseTensor {
    TtmWorkspace::new().ttm_chain(t, ops)
}

/// Shared validation for TTM-chains: every mode in range, none repeated.
fn validate_chain_modes(t: &DenseTensor, ops: &[(usize, &Matrix)]) {
    let mut seen = vec![false; t.order()];
    for &(n, _) in ops {
        assert!(n < t.order(), "mode {n} out of range");
        assert!(!seen[n], "mode {n} repeated in TTM-chain");
        seen[n] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_tensor(dims: &[usize], seed: u64) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        DenseTensor::random(Shape::new(dims.to_vec()), &dist, &mut rng)
    }

    fn rand_mat(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        Matrix::random(r, c, &dist, &mut rng)
    }

    /// Reference TTM that materializes the unfolding: `fold(A · unfold(T, n))`.
    fn ttm_via_unfold(t: &DenseTensor, n: usize, a: &Matrix) -> DenseTensor {
        use crate::unfold::{fold, unfold};
        use tucker_linalg::{gemm, Transpose};
        let z = gemm(a, Transpose::No, &unfold(t, n), Transpose::No, 1.0);
        fold(&z, n, &t.shape().with_dim(n, a.nrows()))
    }

    /// Elementwise-definition reference: z[c with c_n = k] = Σ_l A[k,l] t[c with c_n = l].
    fn ttm_naive(t: &DenseTensor, n: usize, a: &Matrix) -> DenseTensor {
        let out_shape = t.shape().with_dim(n, a.nrows());
        DenseTensor::from_fn(out_shape, |c| {
            let mut src = c.to_vec();
            (0..t.shape().dim(n))
                .map(|l| {
                    src[n] = l;
                    a[(c[n], l)] * t.get(&src)
                })
                .sum()
        })
    }

    #[test]
    fn matches_naive_all_modes() {
        let t = rand_tensor(&[4, 5, 3, 6], 1);
        for n in 0..4 {
            let a = rand_mat(2, t.shape().dim(n), 10 + n as u64);
            let z = ttm(&t, n, &a);
            let r = ttm_naive(&t, n, &a);
            assert_eq!(z.shape(), r.shape());
            assert!(z.max_abs_diff(&r) < 1e-12, "mode {n}");
        }
    }

    #[test]
    fn matches_explicit_unfold_kernel() {
        let t = rand_tensor(&[7, 6, 5], 2);
        for n in 0..3 {
            let a = rand_mat(4, t.shape().dim(n), 20 + n as u64);
            let z1 = ttm(&t, n, &a);
            let z2 = ttm_via_unfold(&t, n, &a);
            assert!(z1.max_abs_diff(&z2) < 1e-12, "mode {n}");
        }
    }

    #[test]
    fn output_shape_replaces_mode_length() {
        let t = rand_tensor(&[3, 4, 5], 3);
        let a = rand_mat(2, 4, 30);
        let z = ttm(&t, 1, &a);
        assert_eq!(z.shape().dims(), &[3, 2, 5]);
        assert_eq!(z.cardinality(), 30);
    }

    #[test]
    fn identity_matrix_is_noop() {
        let t = rand_tensor(&[3, 4, 5], 4);
        for n in 0..3 {
            let id = Matrix::identity(t.shape().dim(n));
            let z = ttm(&t, n, &id);
            assert!(z.max_abs_diff(&t) < 1e-15, "mode {n}");
        }
    }

    #[test]
    fn chain_commutativity() {
        // (T ×_1 A) ×_2 B == (T ×_2 B) ×_1 A  (paper §2.1)
        let t = rand_tensor(&[4, 5, 6], 5);
        let a = rand_mat(2, 5, 50);
        let b = rand_mat(3, 6, 51);
        let z1 = ttm_chain(&t, &[(1, &a), (2, &b)]);
        let z2 = ttm_chain(&t, &[(2, &b), (1, &a)]);
        assert_eq!(z1.shape().dims(), &[4, 2, 3]);
        assert!(z1.max_abs_diff(&z2) < 1e-12);
    }

    #[test]
    fn full_chain_all_orders_agree() {
        let t = rand_tensor(&[3, 4, 5], 6);
        let mats: Vec<Matrix> = (0..3)
            .map(|n| rand_mat(2, t.shape().dim(n), 60 + n as u64))
            .collect();
        let orders: &[[usize; 3]] = &[
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let reference = ttm_chain(&t, &[(0, &mats[0]), (1, &mats[1]), (2, &mats[2])]);
        for ord in orders {
            let ops: Vec<(usize, &Matrix)> = ord.iter().map(|&n| (n, &mats[n])).collect();
            let z = ttm_chain(&t, &ops);
            assert!(z.max_abs_diff(&reference) < 1e-12, "order {ord:?}");
        }
    }

    #[test]
    fn empty_chain_clones_input() {
        let t = rand_tensor(&[2, 3], 7);
        let z = ttm_chain(&t, &[]);
        assert_eq!(z.max_abs_diff(&t), 0.0);
    }

    #[test]
    fn large_mode0_path() {
        // Exercises the inner==1 specialization.
        let t = rand_tensor(&[64, 9, 8], 8);
        let a = rand_mat(16, 64, 80);
        let z1 = ttm(&t, 0, &a);
        let z2 = ttm_via_unfold(&t, 0, &a);
        assert!(z1.max_abs_diff(&z2) < 1e-11);
    }

    #[test]
    fn small_inner_packed_path_matches_naive() {
        // 1 < inner < PACK_MIN_INNER with enough work to clear the packing
        // threshold: the slab-grouped gather/GEMM/scatter path must stay
        // exact across group-boundary shapes (inner dividing MC or not,
        // outer a multiple of the group width or not).
        for (dims, n, k) in [
            (vec![4, 40, 50], 1, 12),
            (vec![2, 60, 41], 1, 8),
            (vec![15, 33, 21], 1, 9),
            (vec![3, 5, 30, 24], 2, 10),
            (vec![8, 24, 96], 1, 16),
        ] {
            let t = rand_tensor(&dims, 31);
            let inner: usize = dims[..n].iter().product();
            assert!(
                inner > 1 && inner < 16,
                "shape must hit the small-inner gap"
            );
            let a = rand_mat(k, t.shape().dim(n), 310 + n as u64);
            let z = ttm(&t, n, &a);
            let r = ttm_via_unfold(&t, n, &a);
            assert!(z.max_abs_diff(&r) < 1e-12, "dims {dims:?} mode {n} k {k}");
        }
    }

    #[test]
    fn small_inner_thread_counts_are_bit_identical() {
        // Worker splits restart slab grouping at each run boundary; the
        // per-element accumulation order must not notice. The second shape
        // is a last mode (`outer == 1`): one slab, so nothing to split, over
        // two `KC` blocks.
        for (dims, k) in [(vec![6, 48, 40], 16), (vec![6, 400], 16)] {
            let t = rand_tensor(&dims, 32);
            let a = rand_mat(k, dims[1], 320);
            let mut buf = Vec::new();
            let s = ttm_into_threads(&t, 1, &a, &mut buf, 1);
            let reference = DenseTensor::from_vec(s, buf);
            for w in [2usize, 3, 7, 8, 64] {
                let mut buf = Vec::new();
                let s = ttm_into_threads(&t, 1, &a, &mut buf, w);
                let z = DenseTensor::from_vec(s, buf);
                assert_eq!(z.max_abs_diff(&reference), 0.0, "{dims:?}, {w} workers");
            }
        }
    }

    #[test]
    fn explicit_thread_counts_agree() {
        // Every mode of a small (naive-path) tensor, then last modes
        // (`outer == 1`) on each path: naive, small-inner packed, and packed
        // with the one slab's rows split — over several `MC` blocks, over two
        // `KC` blocks, and with a single row past a block boundary. A TTM's
        // bits do not depend on the partition.
        let cases = (0..3).map(|n| (vec![7, 6, 5], n, 3)).chain([
            (vec![9, 30], 1, 4),
            (vec![8, 300], 1, 12),
            (vec![40, 10, 30], 2, 8),
            (vec![200, 300], 1, 5),
            (vec![97, 40], 1, 6),
        ]);
        for (dims, n, k) in cases {
            let t = rand_tensor(&dims, 16);
            let a = rand_mat(k, dims[n], 160 + n as u64);
            let reference = ttm(&t, n, &a);
            let mut one = Vec::new();
            ttm_into_threads(&t, n, &a, &mut one, 1);
            for w in [1usize, 2, 3, 4, 7, 64] {
                let mut buf = Vec::new();
                let s = ttm_into_threads(&t, n, &a, &mut buf, w);
                assert_eq!(buf, one, "{dims:?} mode {n}, {w} workers");
                let z = DenseTensor::from_vec(s, buf);
                assert!(
                    z.max_abs_diff(&reference) < 1e-12,
                    "{dims:?} mode {n}, {w} workers"
                );
            }
        }
    }

    /// `bytes_packed` counts what the team packed for the calling thread:
    /// splitting a packed TTM over two parts never makes the count smaller
    /// (the slab and row splits pack the very same blocks; the mode-0 column
    /// split packs the factor once per part).
    #[test]
    fn bytes_packed_includes_the_parts_other_threads_ran() {
        for (dims, n, k) in [
            (vec![24, 20, 18], 1, 8),
            (vec![6, 48, 40], 1, 16),
            (vec![64, 9, 80], 0, 16),
            (vec![40, 10, 30], 2, 8),
        ] {
            let t = rand_tensor(&dims, 18);
            let a = rand_mat(k, dims[n], 180);
            let mut buf = Vec::new();
            let mut delta = |threads: usize| {
                let before = tucker_linalg::bytes_packed();
                ttm_into_threads(&t, n, &a, &mut buf, threads);
                tucker_linalg::bytes_packed() - before
            };
            let one = delta(1);
            assert!(one > 0, "{dims:?} mode {n} must take the packed path");
            let two = delta(2);
            assert!(two >= one, "{dims:?} mode {n}: {two} < {one}");
        }
    }

    #[test]
    fn view_full_tensor_ttm_is_bit_identical() {
        let t = rand_tensor(&[6, 5, 4], 40);
        let v = crate::view::TensorView::of(&t);
        for n in 0..3 {
            let a = rand_mat(3, t.shape().dim(n), 400 + n as u64);
            let z = ttm(v.clone(), n, &a);
            assert_eq!(z.max_abs_diff(&ttm(&t, n, &a)), 0.0, "mode {n}");
        }
    }

    #[test]
    fn view_region_ttm_matches_extract_bitwise() {
        use crate::subtensor::{extract, Region};
        let t = rand_tensor(&[7, 6, 5], 41);
        let r = Region {
            start: vec![1, 2, 0],
            len: vec![5, 3, 4],
        };
        let v = crate::view::TensorView::region(&t, &r);
        let c = DenseTensor::from_vec(r.shape(), extract(&t, &r));
        for n in 0..3 {
            let a = rand_mat(4, c.shape().dim(n), 410 + n as u64);
            let mut b1 = Vec::new();
            let s1 = ttm_into_threads(v.clone(), n, &a, &mut b1, 1);
            let mut b2 = Vec::new();
            let s2 = ttm_into_threads(&c, n, &a, &mut b2, 1);
            assert_eq!(s1.dims(), s2.dims(), "mode {n}");
            let z1 = DenseTensor::from_vec(s1, b1);
            let z2 = DenseTensor::from_vec(s2, b2);
            assert_eq!(z1.max_abs_diff(&z2), 0.0, "mode {n}");
        }
    }

    #[test]
    fn strided_view_ttm_packed_path_matches_bitwise() {
        // Interior region of a tensor big enough for the packed dispatch on
        // every mode (including the small-inner staging path on mode 1 of
        // the stepped view below). K = 4 streams the region's slab rows
        // with their parent's column stride (modes 1 and 2); K = 6, 8
        // pack them.
        use crate::subtensor::{extract, Region};
        let t = rand_tensor(&[24, 20, 18], 42);
        let r = Region {
            start: vec![1, 1, 1],
            len: vec![20, 18, 16],
        };
        let v = crate::view::TensorView::region(&t, &r);
        let c = DenseTensor::from_vec(r.shape(), extract(&t, &r));
        for k in [4, 6, 8] {
            for n in 0..3 {
                let a = rand_mat(k, c.shape().dim(n), 420 + n as u64);
                let mut b1 = Vec::new();
                let s1 = ttm_into_threads(v.clone(), n, &a, &mut b1, 1);
                let mut b2 = Vec::new();
                let s2 = ttm_into_threads(&c, n, &a, &mut b2, 1);
                assert_eq!(s1.dims(), s2.dims(), "mode {n}, K = {k}");
                let z1 = DenseTensor::from_vec(s1, b1);
                let z2 = DenseTensor::from_vec(s2, b2);
                assert_eq!(z1.max_abs_diff(&z2), 0.0, "mode {n}, K = {k}");
            }
        }
    }

    #[test]
    fn stepped_view_ttm_matches_copy_bitwise() {
        let t = rand_tensor(&[12, 10, 8], 43);
        let v = crate::view::TensorView::of(&t).step(0, 2).step(1, 3);
        let c = v.to_tensor();
        for n in 0..3 {
            let a = rand_mat(5, c.shape().dim(n), 430 + n as u64);
            let z1 = ttm(v.clone(), n, &a);
            let mut b2 = Vec::new();
            let s2 = ttm_into_threads(&c, n, &a, &mut b2, 1);
            let z2 = DenseTensor::from_vec(s2, b2);
            assert_eq!(z1.max_abs_diff(&z2), 0.0, "mode {n}");
        }
    }

    /// The split rule reads the whole product's work: a large mode-0 TTM
    /// (`inner = 1`, one fiber per slab) splits over the team, and a tiny
    /// TTM of any mode opens no region.
    #[test]
    fn the_split_rule_reads_the_whole_products_work() {
        let host = crate::threads::host_threads();
        let t = rand_tensor(&[160, 40, 40], 21);
        let a = rand_mat(32, 160, 22);
        let parts = auto_threads(&(&t).into(), 0, &a);
        assert_eq!(parts, host, "160x40x40 mode 0, K = 32");
        if host > 1 {
            assert!(parts > 1);
        }
        let tiny = rand_tensor(&[6, 5, 4], 23);
        for n in 0..3 {
            let a = rand_mat(3, tiny.shape().dim(n), 24);
            assert_eq!(auto_threads(&(&tiny).into(), n, &a), 1, "mode {n}");
        }
    }

    #[test]
    fn parallel_path_matches_sequential() {
        // Big enough to trigger the parallel branch.
        let t = rand_tensor(&[32, 24, 20], 9);
        let a = rand_mat(8, 24, 90);
        let z1 = ttm(&t, 1, &a);
        let z2 = ttm_naive(&t, 1, &a);
        assert!(z1.max_abs_diff(&z2) < 1e-11);
    }

    #[test]
    #[should_panic(expected = "repeated in TTM-chain")]
    fn chain_rejects_duplicate_modes() {
        let t = rand_tensor(&[3, 3], 10);
        let a = rand_mat(2, 3, 100);
        let _ = ttm_chain(&t, &[(0, &a), (0, &a)]);
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn ttm_rejects_bad_operand() {
        let t = rand_tensor(&[3, 4], 11);
        let a = rand_mat(2, 5, 110);
        let _ = ttm(&t, 0, &a);
    }

    #[test]
    fn ttm_into_reuses_buffer_without_reallocation() {
        let t = rand_tensor(&[6, 5, 4], 12);
        let a = rand_mat(3, 5, 120);
        let mut buf = Vec::new();
        let s1 = ttm_into_threads(&t, 1, &a, &mut buf, 1);
        assert_eq!(s1.dims(), &[6, 3, 4]);
        let first = DenseTensor::from_vec(s1, std::mem::take(&mut buf));
        assert!(first.max_abs_diff(&ttm(&t, 1, &a)) == 0.0);
        // Reuse for a smaller output: capacity must not shrink, result exact.
        let mut buf = first.into_vec();
        let cap = buf.capacity();
        let b = rand_mat(2, 6, 121);
        let s2 = ttm_into_threads(&t, 0, &b, &mut buf, 1);
        assert!(buf.capacity() >= cap, "grow-only buffer must keep capacity");
        let second = DenseTensor::from_vec(s2, buf);
        assert!(second.max_abs_diff(&ttm(&t, 0, &b)) < 1e-15);
    }

    #[test]
    fn workspace_chain_matches_fresh_ttm() {
        let t = rand_tensor(&[4, 5, 6], 13);
        let mats: Vec<Matrix> = (0..3)
            .map(|n| rand_mat(2 + n, t.shape().dim(n), 130 + n as u64))
            .collect();
        let ops: Vec<(usize, &Matrix)> = mats.iter().enumerate().collect();
        let mut ws = TtmWorkspace::new();
        // Repeat with the same workspace: reused buffers must stay exact.
        for _ in 0..3 {
            let z = ws.ttm_chain(&t, &ops);
            let r = ttm_chain(&t, &ops);
            assert_eq!(z.shape(), r.shape());
            assert_eq!(z.max_abs_diff(&r), 0.0);
            ws.recycle(z);
        }
        assert!(ws.pooled_bytes() > 0);
    }

    #[test]
    fn pooled_zeros_reuse_a_recycled_buffer() {
        let mut ws = TtmWorkspace::new();
        ws.recycle(rand_tensor(&[4, 5, 6], 15));
        let before = crate::dense::tensor_buffer_allocs();
        let z = ws.zeros(Shape::new(vec![3, 5, 4]));
        assert_eq!(crate::dense::tensor_buffer_allocs(), before);
        assert_eq!(ws.pooled_bytes(), 0, "the recycled buffer was taken");
        assert_eq!(z.shape().dims(), &[3, 5, 4]);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn warm_workspace_chain_is_allocation_free() {
        if !cfg!(debug_assertions) {
            return; // counter compiled out in release builds
        }
        let t = rand_tensor(&[8, 7, 6], 14);
        let mats: Vec<Matrix> = (0..3)
            .map(|n| rand_mat(3, t.shape().dim(n), 140 + n as u64))
            .collect();
        let ops: Vec<(usize, &Matrix)> = mats.iter().enumerate().collect();
        let mut ws = TtmWorkspace::new();
        let warm = ws.ttm_chain(&t, &ops);
        ws.recycle(warm);
        let before = crate::dense::tensor_buffer_allocs();
        let z = ws.ttm_chain(&t, &ops);
        assert_eq!(
            crate::dense::tensor_buffer_allocs(),
            before,
            "warm ping-pong chain must not allocate tensor buffers"
        );
        ws.recycle(z);
    }

    #[test]
    fn bounded_workspace_caps_mixed_shape_stream() {
        // A long-running-server workload: each job's output tensor is
        // recycled when the job completes, and shapes vary with rare large
        // spikes. The unbounded pool parks every new high-water buffer
        // forever; the bounded pool must stay under its cap at every step.
        let limit = 40 * 1024; // 5120 f64s
        let shapes: &[&[usize]] = &[
            &[6, 5, 4],    // 120 f64s
            &[16, 16, 16], // 4096 f64s, ~32 KB — near the cap but under it
            &[4, 3, 2],
            &[24, 20, 18], // spike: 8640 f64s, ~69 KB — over the cap alone
            &[8, 7, 6],
            &[16, 16, 16],
        ];
        let run = |ws: &mut TtmWorkspace| -> usize {
            let mut hwm = 0usize;
            for (j, dims) in shapes.iter().enumerate() {
                let t = rand_tensor(dims, 200 + j as u64);
                // Square mode-0 operand: output cardinality == input's, the
                // shape a reconstruct-style job hands back to the pool.
                let a = rand_mat(dims[0], dims[0], 210 + j as u64);
                let z = ws.ttm(&t, 0, &a);
                let r = ttm(&t, 0, &a);
                assert_eq!(z.max_abs_diff(&r), 0.0, "job {j} must stay exact");
                ws.recycle(z);
                hwm = hwm.max(ws.pooled_bytes());
            }
            hwm
        };

        let mut bounded = TtmWorkspace::with_limit(limit);
        let bounded_hwm = run(&mut bounded);
        assert!(bounded_hwm > 0, "pool must actually be exercised");
        assert!(
            bounded_hwm <= limit,
            "peak pooled bytes {bounded_hwm} exceeds cap {limit}"
        );

        // Same stream, grow-only pool: the spike buffer is parked forever —
        // the regression this test guards against.
        let mut unbounded = TtmWorkspace::new();
        let unbounded_hwm = run(&mut unbounded);
        assert!(
            unbounded_hwm > limit,
            "stream must be big enough that the cap actually binds \
             (unbounded peak was {unbounded_hwm})"
        );
        assert!(unbounded.pooled_bytes() > limit);
    }

    #[test]
    #[should_panic(expected = "repeated in TTM-chain")]
    fn workspace_chain_rejects_duplicate_modes() {
        let t = rand_tensor(&[3, 3], 15);
        let a = rand_mat(2, 3, 150);
        let _ = TtmWorkspace::new().ttm_chain(&t, &[(0, &a), (0, &a)]);
    }
}
