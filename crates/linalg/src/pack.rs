//! Packed, register-tiled micro-kernel layer: the BLAS-3 floor under
//! [`gemm`](mod@crate::gemm), [`syrk`](mod@crate::syrk), and the tensor kernels.
//!
//! The classic cache-blocked GEMM loop nest (Goto/BLIS) is implemented here
//! once and shared by every dense kernel in the workspace:
//!
//! * the innermost unit is an [`MR`]`×`[`NR`] **micro-kernel** whose
//!   accumulator tile lives entirely in registers (`[[f64; MR]; NR]` — small
//!   enough that the autovectorizer keeps it resident);
//! * operands are staged through **pack buffers** ([`PackBuf`]): `A` blocks
//!   become `MR`-row panels, `B` blocks become `NR`-column panels, both
//!   zero-padded to full tiles and 64-byte aligned, so the micro-kernel
//!   streams two contiguous panels regardless of the source strides;
//! * the macro loops block by [`KC`] (shared dimension, one packed `B` block
//!   per step), [`MC`] (rows of `A` resident in L2), and [`NC`] (columns of
//!   `B` per outermost step).
//!
//! Packing pays only when a packed panel is read more than once. A `B`
//! panel is read by every row tile, so a product with `m ≤ MR` rows reads
//! each `B` panel once ([`b_panel_readers`]). An `A` panel is read once when
//! one register tile spans all `n` columns of `C`, which holds for
//! `n ≤ NR`, the packed tile's own width. For those shapes the **streamed** kernels
//! ([`gemm_streamed_b`], [`gemm_streamed_a`]) pack only the small factor
//! ([`pack_factor`]) and feed the other operand from where it lies into an
//! exact-width register tile. They keep the `KC` split, the per-element sum
//! from `0.0` over `l` ascending and the `c += alpha·acc` store, so they
//! give every element of `C` the bits the packed kernels give it. The TTM
//! picks them by this rule (DESIGN.md §8, "Streaming what is read once").
//!
//! Because packing costs `O(mk + kn)` against `O(mnk)` compute, the packed
//! path only wins once the operands amortize it; [`use_packed`] is the
//! one-shot runtime pick (`m·n·k` against a fixed threshold), overridable
//! process-wide via [`set_kernel_mode`] so benches and differential tests can
//! pin either path. Pack buffers are reused, and every thread that packs is
//! long-lived (the caller, or a parked worker of [`crate::pool`]), so its
//! thread-locals stay warm: sequential entry points stage through
//! [`with_thread_packs`], the parts of a parallel region through
//! [`with_part_packs`] — a second slot, because the call that opened the
//! region may be holding the first one on the same thread. Those two slots
//! are the only owners of pack buffers in the workspace, so steady-state
//! sweeps stay allocation-free on every thread. [`bytes_packed`] counts the
//! bytes staged through pack buffers **on behalf of the calling thread**:
//! its own packing plus, when a region it submitted ends, what the team's
//! workers packed for it — the sweep executor snapshots it around each sweep
//! to report kernel traffic.
//!
//! Strided operands are described by `(slice, rs, cs)` with element `(i, j)`
//! at `slice[i·rs + j·cs]` — a plain column-major matrix is `(buf, 1, ld)`
//! and its transpose is `(buf, ld, 1)`, so no transposed copies are ever
//! materialized. A unit stride on either axis packs through contiguous
//! copies or fixed-size tile transposes; only a doubly strided operand pays
//! a per-element gather.
//!
//! **ISA dispatch.** The packers and macro kernels are written once, as
//! `#[inline(always)]` bodies with no intrinsics, and instantiated twice: for
//! the compilation target's baseline and, on x86-64, inside a
//! `#[target_feature(enable = "avx2")]` wrapper ([`Isa`], picked once per
//! process from `is_x86_feature_detected!`; [`kernel_isa`] names the pick).
//! Wider lanes change how many `C[i, j]` are summed at once, never the order
//! in which one `C[i, j]` sums over `k`, and `fma` is deliberately not
//! enabled, so both instantiations produce the same bits — which is what the
//! bit-identity contracts of `tucker-tensor` (view == extract, 1 thread ==
//! N threads) rest on. DESIGN.md §8 has the full argument.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Micro-kernel tile rows (rows of `C` per register tile).
pub const MR: usize = 8;
/// Micro-kernel tile columns (columns of `C` per register tile).
pub const NR: usize = 4;
/// Shared-dimension block: one packed `B` block spans `KC` of `k`.
pub const KC: usize = 256;
/// Row block: `MC × KC` of packed `A` is sized to stay L2-resident.
pub const MC: usize = 96;
/// Column block: columns of `B` per outermost loop step.
pub const NC: usize = 2048;

/// `m·n·k` below which packing costs more than it saves (measured on the
/// bench shapes; tiny operands stay on the unrolled naive paths).
const PACK_MIN_WORK: usize = 1 << 14;

/// Pack-buffer alignment in bytes (one cache line / AVX-512 vector).
const ALIGN_BYTES: usize = 64;
const ALIGN_F64: usize = ALIGN_BYTES / std::mem::size_of::<f64>();

// SYRK reads `NR`-lane `B` panels out of `MR`-lane `A` panels, and `MC` row
// blocks start on a panel boundary.
const _: () = assert!(MR.is_multiple_of(NR) && MC.is_multiple_of(MR));

/// Which kernel implementation the dense entry points select.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMode {
    /// Pick per call: packed above the work threshold, naive below.
    Auto,
    /// Force the unrolled naive paths (bench baselines, differential tests).
    Naive,
    /// Force the packed paths even for tiny operands.
    Packed,
}

/// Process-wide kernel-mode override; `0 = Auto, 1 = Naive, 2 = Packed`.
/// Like `tucker_tensor::threads`, racy-by-design: meant for test setup and
/// bench harnesses, not concurrent reconfiguration.
static KERNEL_MODE: AtomicU8 = AtomicU8::new(0);

/// The current process-wide [`KernelMode`].
pub fn kernel_mode() -> KernelMode {
    match KERNEL_MODE.load(Ordering::Relaxed) {
        1 => KernelMode::Naive,
        2 => KernelMode::Packed,
        _ => KernelMode::Auto,
    }
}

/// Set the process-wide [`KernelMode`] (see [`kernel_mode`]).
pub fn set_kernel_mode(mode: KernelMode) {
    let v = match mode {
        KernelMode::Auto => 0,
        KernelMode::Naive => 1,
        KernelMode::Packed => 2,
    };
    KERNEL_MODE.store(v, Ordering::Relaxed);
}

/// The one-shot runtime pick: should an `m×n×k` contraction take the packed
/// path? Degenerate (empty) problems always say no.
#[inline]
pub fn use_packed(m: usize, n: usize, k: usize) -> bool {
    if m == 0 || n == 0 || k == 0 {
        return false;
    }
    match kernel_mode() {
        KernelMode::Naive => false,
        KernelMode::Packed => true,
        KernelMode::Auto => m.saturating_mul(n).saturating_mul(k) >= PACK_MIN_WORK,
    }
}

thread_local! {
    /// Bytes staged through pack buffers for this thread (see [`bytes_packed`]).
    static BYTES_PACKED: Cell<u64> = const { Cell::new(0) };
}

/// Monotone per-thread count of bytes copied into pack buffers by this
/// thread and, for the parallel regions it submitted, by the workers that
/// ran their parts. The sweep executor reports the delta across a sweep as
/// `SweepStats::kernel_bytes`.
pub fn bytes_packed() -> u64 {
    BYTES_PACKED.with(|c| c.get())
}

/// Add `bytes` packed elsewhere on this thread's behalf (the pool folds a
/// region's worker-side packing into the submitter here).
pub(crate) fn credit_packed(bytes: u64) {
    BYTES_PACKED.with(|c| c.set(c.get() + bytes));
}

#[inline]
fn note_packed(f64s: usize) {
    credit_packed((f64s * std::mem::size_of::<f64>()) as u64);
}

/// A grow-only, 64-byte-aligned scratch buffer for packed operand panels.
///
/// `Vec<f64>` only guarantees 8-byte alignment, so the buffer over-allocates
/// by one alignment unit and serves slices from an aligned offset. Growth is
/// explicit: [`ensure`](PackBuf::ensure) returns whether the backing
/// allocation grew, so callers (the tensor kernels) can fold pack growth
/// into their allocation counters.
#[derive(Default)]
pub struct PackBuf {
    buf: Vec<f64>,
    off: usize,
}

impl PackBuf {
    /// An empty buffer; allocates nothing until the first [`ensure`](PackBuf::ensure).
    pub const fn new() -> Self {
        PackBuf {
            buf: Vec::new(),
            off: 0,
        }
    }

    /// Make room for `len` packed values, returning `true` if the backing
    /// allocation grew (capacity is kept otherwise — grow-only).
    pub fn ensure(&mut self, len: usize) -> bool {
        if len == 0 {
            return false;
        }
        let need = len + ALIGN_F64;
        if self.buf.len() >= need {
            return false;
        }
        self.buf.resize(need, 0.0);
        let o = self.buf.as_ptr().align_offset(ALIGN_BYTES);
        self.off = if o >= ALIGN_F64 { 0 } else { o };
        true
    }

    /// The first `len` packed values (after [`ensure`](PackBuf::ensure)).
    #[inline]
    pub fn slice(&self, len: usize) -> &[f64] {
        &self.buf[self.off..self.off + len]
    }

    /// Mutable view of the first `len` packed values.
    #[inline]
    pub fn slice_mut(&mut self, len: usize) -> &mut [f64] {
        &mut self.buf[self.off..self.off + len]
    }
}

/// The `A`/`B` pack-buffer pair one GEMM-shaped contraction needs.
#[derive(Default)]
pub struct PackPair {
    /// Panels of the left (`MR`-row-tiled) operand.
    pub a: PackBuf,
    /// Panels of the right (`NR`-column-tiled) operand.
    pub b: PackBuf,
}

impl PackPair {
    /// An empty pair; allocates nothing until first use.
    pub const fn new() -> Self {
        PackPair {
            a: PackBuf::new(),
            b: PackBuf::new(),
        }
    }
}

thread_local! {
    static TL_PACKS: Cell<PackPair> = const { Cell::new(PackPair::new()) };
    static TL_PART_PACKS: Cell<PackPair> = const { Cell::new(PackPair::new()) };
}

/// Run `f` with the [`PackPair`] in `slot`. The pair is *taken* out of the
/// slot and put back afterwards, so a re-entrant use of the same slot sees a fresh empty pair instead of a
/// `RefCell` panic; the inner pair is simply dropped when the outer call
/// restores its own.
fn with_slot<R>(
    slot: &'static std::thread::LocalKey<Cell<PackPair>>,
    f: impl FnOnce(&mut PackPair) -> R,
) -> R {
    slot.with(|cell| {
        let mut packs = cell.take();
        let r = f(&mut packs);
        cell.set(packs);
        r
    })
}

/// Run `f` with this thread's reusable [`PackPair`] for sequential kernel
/// calls.
pub fn with_thread_packs<R>(f: impl FnOnce(&mut PackPair) -> R) -> R {
    with_slot(&TL_PACKS, f)
}

/// Run `f` with this thread's reusable [`PackPair`] for the parts of a
/// parallel region. Pool workers are persistent, so the pair stays warm from
/// one region to the next; it is a slot of its own because participant 0 is
/// the thread that opened the region and may be inside
/// [`with_thread_packs`] (holding, say, the factor pack every part reads).
pub fn with_part_packs<R>(f: impl FnOnce(&mut PackPair) -> R) -> R {
    with_slot(&TL_PART_PACKS, f)
}

/// The instruction set one packed-kernel call is compiled for.
///
/// Opaque on purpose: outside this module the only values are
/// [`Isa::PORTABLE`] and whatever [`Isa::detect`] found on the running CPU,
/// so no caller can ask for instructions the CPU lacks. The `*_on` entry
/// points take it so tests can hold the dispatched path against the portable
/// instantiation of the same body; production code calls the plain entry
/// points, which always pass `Isa::detect()`.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Isa(Level);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Level {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// Baseline code for the compilation target (SSE2 on x86-64).
    pub const PORTABLE: Isa = Isa(Level::Portable);

    /// The process's pick. `is_x86_feature_detected!` caches its CPUID probe
    /// in a process-wide atomic, so this is one relaxed load per call and the
    /// answer never changes within a process.
    #[inline]
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa(Level::Avx2);
        }
        Isa::PORTABLE
    }

    /// Run `job` compiled for this instruction set. Every packer and macro
    /// kernel below is `#[inline(always)]`, so a job written as an
    /// `#[inline(always)]` closure over them is instantiated once per wrapper
    /// it is handed to: one source body, one copy per ISA.
    #[inline(always)]
    fn run<R>(self, job: impl FnOnce() -> R) -> R {
        match self.0 {
            Level::Portable => job(),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Level::Avx2` is private to this module and only
            // `Isa::detect` builds it, after `is_x86_feature_detected!`
            // reported AVX2 on the running CPU — `run_avx2`'s one requirement.
            Level::Avx2 => unsafe { run_avx2(job) },
        }
    }
}

/// `job()` with 256-bit lanes. Only `avx2` is enabled, **not** `fma`: Rust
/// never contracts `a * b + c` by itself, so the wider instantiation rounds
/// every product and every sum exactly like the portable one.
///
/// # Safety
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<R>(job: impl FnOnce() -> R) -> R {
    job()
}

/// Which instantiation of the packed kernels this process runs: `"avx2"` or
/// `"portable"`. Recorded in bench artifacts so timings from different hosts
/// are not compared blind.
pub fn kernel_isa() -> &'static str {
    match Isa::detect().0 {
        Level::Portable => "portable",
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => "avx2",
    }
}

/// Packed length of an `mb`-row block tiled into `MR`-row panels of depth `kb`.
#[inline]
pub fn packed_a_len(mb: usize, kb: usize) -> usize {
    mb.div_ceil(MR) * MR * kb
}

/// Packed length of an `nb`-column block tiled into `NR`-column panels.
#[inline]
pub fn packed_b_len(kb: usize, nb: usize) -> usize {
    nb.div_ceil(NR) * NR * kb
}

/// Depth steps one [`interleave_panel`] tile transposes at a time.
const TILE: usize = 4;

/// One `W`-lane panel of a strided operand, any strides: lane `w`, depth `l`
/// sits at `src[base + w·lane_stride + l·depth_stride]` and goes to
/// `panel[l·W + w]`; lanes `live..W` are zero padding. The per-element
/// gather — [`copy_panel`] and [`interleave_panel`] produce the same panel
/// when one of the strides is 1.
#[inline(always)]
fn gather_panel<const W: usize>(
    panel: &mut [f64],
    src: &[f64],
    base: usize,
    lane_stride: usize,
    depth_stride: usize,
    live: usize,
) {
    for (l, step) in panel.chunks_exact_mut(W).enumerate() {
        for (w, v) in step.iter_mut().enumerate() {
            *v = if w < live {
                src[base + w * lane_stride + l * depth_stride]
            } else {
                0.0
            };
        }
    }
}

/// [`gather_panel`] for `lane_stride == 1`: the `live` lanes of one depth
/// step are adjacent in `src`, so each step is one short contiguous copy.
#[inline(always)]
fn copy_panel<const W: usize>(
    panel: &mut [f64],
    src: &[f64],
    base: usize,
    depth_stride: usize,
    live: usize,
) {
    if live == W {
        // Full panel: fixed-size copies, no per-step length to dispatch on.
        for (l, step) in panel.chunks_exact_mut(W).enumerate() {
            step.copy_from_slice(&src[base + l * depth_stride..][..W]);
        }
    } else {
        for (l, step) in panel.chunks_exact_mut(W).enumerate() {
            let (head, pad) = step.split_at_mut(live);
            head.copy_from_slice(&src[base + l * depth_stride..][..live]);
            pad.fill(0.0);
        }
    }
}

/// [`gather_panel`] for `depth_stride == 1`: each lane is a contiguous run of
/// `src`, so the panel is a `W × depth` transpose, done as fixed `W × TILE`
/// tiles (loaded lane by lane into a stack tile, stored depth step by depth
/// step) whose constant trip counts the vectoriser can see.
#[inline(always)]
fn interleave_panel<const W: usize>(
    panel: &mut [f64],
    src: &[f64],
    base: usize,
    lane_stride: usize,
    live: usize,
) {
    let depth = panel.len() / W;
    let mut lanes: [&[f64]; W] = [&[]; W];
    for (w, lane) in lanes.iter_mut().enumerate().take(live) {
        *lane = &src[base + w * lane_stride..][..depth];
    }
    let mut tiles = panel.chunks_exact_mut(W * TILE);
    for (t, out) in (&mut tiles).enumerate() {
        let mut tile = [[0.0f64; TILE]; W];
        for (row, lane) in tile.iter_mut().zip(&lanes).take(live) {
            row.copy_from_slice(&lane[t * TILE..][..TILE]);
        }
        for (l, step) in out.chunks_exact_mut(W).enumerate() {
            for w in 0..W {
                step[w] = tile[w][l];
            }
        }
    }
    let done = depth - depth % TILE;
    for (l, step) in tiles.into_remainder().chunks_exact_mut(W).enumerate() {
        for (w, v) in step.iter_mut().enumerate() {
            *v = if w < live { lanes[w][done + l] } else { 0.0 };
        }
    }
}

/// Pack lanes `lane0..lane0+lanes`, depth `depth0..depth0+depth` of a strided
/// operand (lane `w`, depth `l` at `src[w·lane_stride + l·depth_stride]`)
/// into `W`-lane zero-padded panels: panel `p` holds lanes `lane0 + p·W ..`,
/// element `(w, l)` at `l·W + w`. A unit stride on either axis takes a
/// contiguous path; only a doubly strided operand pays the per-element
/// gather.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pack_panels<const W: usize>(
    dst: &mut [f64],
    src: &[f64],
    lane_stride: usize,
    depth_stride: usize,
    lane0: usize,
    lanes: usize,
    depth0: usize,
    depth: usize,
) {
    debug_assert_eq!(dst.len(), lanes.div_ceil(W) * W * depth);
    if depth == 0 {
        return;
    }
    for (p, panel) in dst.chunks_exact_mut(W * depth).enumerate() {
        let first = lane0 + p * W;
        let live = W.min(lane0 + lanes - first);
        let base = first * lane_stride + depth0 * depth_stride;
        if lane_stride == 1 {
            copy_panel::<W>(panel, src, base, depth_stride, live);
        } else if depth_stride == 1 {
            interleave_panel::<W>(panel, src, base, lane_stride, live);
        } else {
            gather_panel::<W>(panel, src, base, lane_stride, depth_stride, live);
        }
    }
    note_packed(dst.len());
}

/// Pack rows `i0..i0+mb`, depth `l0..l0+kb` of the strided operand `A`
/// (element `(i, l)` at `a[i·rs + l·cs]`) into `MR`-row zero-padded panels:
/// panel `p` holds rows `i0 + p·MR ..`, element `(i, l)` at `l·MR + i`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pack_a_block(
    dst: &mut [f64],
    a: &[f64],
    rs: usize,
    cs: usize,
    i0: usize,
    mb: usize,
    l0: usize,
    kb: usize,
) {
    pack_panels::<MR>(dst, a, rs, cs, i0, mb, l0, kb);
}

/// Pack depth `l0..l0+kb`, columns `j0..j0+nb` of the strided operand `B`
/// (element `(l, j)` at `b[l·rs + j·cs]`) into `NR`-column zero-padded
/// panels: panel `p` holds columns `j0 + p·NR ..`, element `(l, j)` at
/// `l·NR + j` — [`pack_a_block`]'s copy with columns as the lanes.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pack_b_block(
    dst: &mut [f64],
    b: &[f64],
    rs: usize,
    cs: usize,
    l0: usize,
    kb: usize,
    j0: usize,
    nb: usize,
) {
    pack_panels::<NR>(dst, b, cs, rs, j0, nb, l0, kb);
}

/// Total packed length of the full `k×n` operand `B` under the macro-loop
/// block decomposition (the layout [`pack_b_full`] produces and
/// [`gemm_prepacked_b`] consumes).
pub fn packed_b_full_len(k: usize, n: usize) -> usize {
    let mut len = 0;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            len += packed_b_len(kc, nc);
        }
    }
    len
}

/// Pack the **entire** `k×n` strided operand `B` block-by-block in macro-loop
/// order, so [`gemm_prepacked_b`] can replay the same decomposition without
/// repacking. This is how the TTM kernel packs a factor matrix once and
/// reuses it across every outer slab.
pub fn pack_b_full(dst: &mut [f64], k: usize, n: usize, b: &[f64], rs: usize, cs: usize) {
    debug_assert_eq!(dst.len(), packed_b_full_len(k, n));
    Isa::detect().run(
        #[inline(always)]
        || {
            let mut off = 0;
            for jc in (0..n).step_by(NC) {
                let nc = NC.min(n - jc);
                for pc in (0..k).step_by(KC) {
                    let kc = KC.min(k - pc);
                    let len = packed_b_len(kc, nc);
                    pack_b_block(&mut dst[off..off + len], b, rs, cs, pc, kc, jc, nc);
                    off += len;
                }
            }
        },
    )
}

/// The register-tiled inner product: `acc[j][i] = Σ_l ap[l·MR+i] · bp[l·BS+off+j]`
/// over one `A` panel and lanes `off..off+NR` of one `BS`-lane panel, both of
/// depth `kc`. GEMM reads `B` panels (`BS = NR`, `off = 0`); SYRK reads its
/// `B = Aᵀ` out of the `A` pack (`BS = MR`). Per `acc[j][i]` the sum runs over
/// `l` ascending from `0.0`, one rounded product and one rounded add per
/// step, whatever the vector width.
#[inline(always)]
fn mk_accumulate<const BS: usize>(ap: &[f64], bp: &[f64], off: usize) -> [[f64; MR]; NR] {
    // Checked once here so the loop body carries no bounds check (a panic
    // edge inside it makes the accumulators spill every step).
    assert!(off + NR <= BS);
    let mut acc = [[0.0f64; MR]; NR];
    for (a8, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(BS)) {
        let b4 = &b[off..off + NR];
        for j in 0..NR {
            let bj = b4[j];
            for i in 0..MR {
                acc[j][i] += a8[i] * bj;
            }
        }
    }
    acc
}

/// Scale-and-add an `M×N` micro-tile into `C` (`c` points at the tile
/// origin, element `(i, j)` at `c[i + j·ldc]`); edge tiles store the `mr×nr`
/// live corner only.
#[inline(always)]
fn mk_store<const M: usize, const N: usize>(
    acc: &[[f64; M]; N],
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    if mr == M && nr == N {
        for (j, aj) in acc.iter().enumerate() {
            let cj = &mut c[j * ldc..j * ldc + M];
            for i in 0..M {
                cj[i] += alpha * aj[i];
            }
        }
    } else {
        for (j, aj) in acc.iter().enumerate().take(nr) {
            for (i, &v) in aj.iter().enumerate().take(mr) {
                c[i + j * ldc] += alpha * v;
            }
        }
    }
}

/// [`mk_store`] for a tile straddling the diagonal: element `(i, j)` is
/// stored only where `ig + i ≥ jg + j` (`ig`, `jg` the tile's global origin).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn mk_store_lower(
    acc: &[[f64; MR]; NR],
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
    mr: usize,
    nr: usize,
    ig: usize,
    jg: usize,
) {
    for (j, aj) in acc.iter().enumerate().take(nr) {
        for (i, &v) in aj.iter().enumerate().take(mr) {
            if ig + i >= jg + j {
                c[i + j * ldc] += alpha * v;
            }
        }
    }
}

/// Macro-kernel over one packed `mc×kc` `A` block and `kc×nc` `B` block:
/// `C[..mc, ..nc] += alpha · A·B` with `c` at the block origin.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    mc: usize,
    nc: usize,
    kc: usize,
    apack: &[f64],
    bpack: &[f64],
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
) {
    for jr in (0..nc).step_by(NR) {
        let nr = NR.min(nc - jr);
        let bp = &bpack[jr * kc..][..NR * kc];
        for ir in (0..mc).step_by(MR) {
            let mr = MR.min(mc - ir);
            let ap = &apack[ir * kc..][..MR * kc];
            let acc = mk_accumulate::<NR>(ap, bp, 0);
            mk_store(&acc, alpha, &mut c[ir + jr * ldc..], ldc, mr, nr);
        }
    }
}

/// Ensure `packs` covers one `A` block and one `B` block of this problem,
/// returning whether either backing allocation grew.
fn ensure_packs(m: usize, n: usize, k: usize, packs: &mut PackPair) -> bool {
    let ga = packs.a.ensure(packed_a_len(m.min(MC), k.min(KC)));
    let gb = packs.b.ensure(packed_b_len(k.min(KC), n.min(NC)));
    ga || gb
}

/// Packed strided GEMM: `C[m×n] += alpha · A[m×k] · B[k×n]` where `A`/`B`
/// are strided operands (element `(i, j)` at `x[i·rs + j·cs]`) and `C` is
/// column-major with leading dimension `ldc`.
///
/// Returns `true` if a pack buffer had to grow (for allocation accounting).
/// Strictly sequential; callers split `C` by column ranges for parallelism.
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    a_rs: usize,
    a_cs: usize,
    b: &[f64],
    b_rs: usize,
    b_cs: usize,
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
    packs: &mut PackPair,
) -> bool {
    let isa = Isa::detect();
    gemm_packed_on(
        isa, m, n, k, a, a_rs, a_cs, b, b_rs, b_cs, alpha, c, ldc, packs,
    )
}

/// [`gemm_packed`] compiled for `isa` (for tests: same body, same bits).
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_on(
    isa: Isa,
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    a_rs: usize,
    a_cs: usize,
    b: &[f64],
    b_rs: usize,
    b_cs: usize,
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
    packs: &mut PackPair,
) -> bool {
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return false;
    }
    let grew = ensure_packs(m, n, k, packs);
    let (pa, pb) = (&mut packs.a, &mut packs.b);
    isa.run(
        #[inline(always)]
        || {
            for jc in (0..n).step_by(NC) {
                let nc = NC.min(n - jc);
                for pc in (0..k).step_by(KC) {
                    let kc = KC.min(k - pc);
                    let bp_len = packed_b_len(kc, nc);
                    pack_b_block(pb.slice_mut(bp_len), b, b_rs, b_cs, pc, kc, jc, nc);
                    for ic in (0..m).step_by(MC) {
                        let mc = MC.min(m - ic);
                        let ap_len = packed_a_len(mc, kc);
                        pack_a_block(pa.slice_mut(ap_len), a, a_rs, a_cs, ic, mc, pc, kc);
                        macro_kernel(
                            mc,
                            nc,
                            kc,
                            pa.slice(ap_len),
                            pb.slice(bp_len),
                            alpha,
                            &mut c[ic + jc * ldc..],
                            ldc,
                        );
                    }
                }
            }
        },
    );
    grew
}

/// [`gemm_packed`] against a `B` operand already packed by [`pack_b_full`]:
/// only `A` blocks are packed (into `apack`). This is the per-slab TTM call —
/// the factor pack is shared across all slabs and all workers.
#[allow(clippy::too_many_arguments)]
pub fn gemm_prepacked_b(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    a_rs: usize,
    a_cs: usize,
    bpack: &[f64],
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
    apack: &mut PackBuf,
) -> bool {
    let isa = Isa::detect();
    gemm_prepacked_b_on(isa, m, n, k, a, a_rs, a_cs, bpack, alpha, c, ldc, apack)
}

/// [`gemm_prepacked_b`] compiled for `isa` (for tests: same body, same bits).
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_prepacked_b_on(
    isa: Isa,
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    a_rs: usize,
    a_cs: usize,
    bpack: &[f64],
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
    apack: &mut PackBuf,
) -> bool {
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return false;
    }
    debug_assert_eq!(bpack.len(), packed_b_full_len(k, n));
    let grew = apack.ensure(packed_a_len(m.min(MC), k.min(KC)));
    isa.run(
        #[inline(always)]
        || {
            let mut boff = 0;
            for jc in (0..n).step_by(NC) {
                let nc = NC.min(n - jc);
                for pc in (0..k).step_by(KC) {
                    let kc = KC.min(k - pc);
                    let bp_len = packed_b_len(kc, nc);
                    let bp = &bpack[boff..boff + bp_len];
                    boff += bp_len;
                    for ic in (0..m).step_by(MC) {
                        let mc = MC.min(m - ic);
                        let ap_len = packed_a_len(mc, kc);
                        pack_a_block(apack.slice_mut(ap_len), a, a_rs, a_cs, ic, mc, pc, kc);
                        macro_kernel(
                            mc,
                            nc,
                            kc,
                            apack.slice(ap_len),
                            bp,
                            alpha,
                            &mut c[ic + jc * ldc..],
                            ldc,
                        );
                    }
                }
            }
        },
    );
    grew
}

/// How many register tiles read one packed `B` panel (`NR` columns, all
/// rows) of a product with `m` rows of `C`. Packing a panel pays off only
/// when more than one tile reads it: at one, [`gemm_streamed_b`] reads `B`
/// where it lies and computes the same bits.
pub fn b_panel_readers(m: usize) -> usize {
    m.div_ceil(MR)
}

/// Packed length of a factor for the streamed kernels: one `MR`-lane panel
/// spanning the whole depth, its `KC` blocks back to back.
pub fn packed_factor_len(depth: usize) -> usize {
    MR * depth
}

/// Pack the `lanes × depth` factor operand of [`gemm_streamed_b`] or
/// [`gemm_streamed_a`] (lane `w`, depth `l` at `f[w·lane_stride +
/// l·depth_stride]`, `lanes ≤ MR`) into one zero-padded `MR`-lane panel:
/// element `(w, l)` at `l·MR + w`, so depth block `pc..pc+kc` is the
/// contiguous run `pc·MR..(pc+kc)·MR`. A TTM's `K × L` factor packs with
/// its rows as the lanes (`lane_stride = 1`, `depth_stride = K`) whichever
/// side of the product it sits on.
pub fn pack_factor(
    dst: &mut [f64],
    lanes: usize,
    depth: usize,
    f: &[f64],
    lane_stride: usize,
    depth_stride: usize,
) {
    assert!(lanes <= MR, "a streamed factor has at most MR = {MR} lanes");
    debug_assert_eq!(dst.len(), packed_factor_len(depth));
    Isa::detect().run(
        #[inline(always)]
        || pack_panels::<MR>(dst, f, lane_stride, depth_stride, 0, lanes, 0, depth),
    )
}

// The streamed kernels enumerate their exact-width tiles by hand.
const _: () = assert!(MR == 8 && NR == 4);

/// The streamed-`B` register tile: `acc[j][i] = Σ_l fp[l·MR + i] · col_j[l]`
/// for `i < M`, over the depth of `fp` (an `MR`-lane factor panel) and four
/// depth-contiguous `B` columns read where they lie. Per element the sum is
/// [`mk_accumulate`]'s: `l` ascending from `0.0`, `A`-side times `B`-side.
#[inline(always)]
fn mk_stream_b<const M: usize>(fp: &[f64], cols: [&[f64]; NR]) -> [[f64; M]; NR] {
    let [c0, c1, c2, c3] = cols;
    let mut acc = [[0.0f64; M]; NR];
    for ((((f, &b0), &b1), &b2), &b3) in fp.chunks_exact(MR).zip(c0).zip(c1).zip(c2).zip(c3) {
        let b4 = [b0, b1, b2, b3];
        for j in 0..NR {
            let bj = b4[j];
            for i in 0..M {
                acc[j][i] += f[i] * bj;
            }
        }
    }
    acc
}

/// The streamed-`A` register tile: `acc[j][i] = Σ_l row(l)[i] · fp[l·MR + j]`
/// for `j < N`, where `row(l)` loads the tile's `MR` rows of `A` at depth
/// `l` where they lie. Per element the sum is [`mk_accumulate`]'s.
#[inline(always)]
fn mk_stream_a<const N: usize>(fp: &[f64], row: impl Fn(usize) -> [f64; MR]) -> [[f64; MR]; N] {
    let mut acc = [[0.0f64; MR]; N];
    for (l, f) in fp.chunks_exact(MR).enumerate() {
        let a8 = row(l);
        for j in 0..N {
            let fj = f[j];
            for i in 0..MR {
                acc[j][i] += a8[i] * fj;
            }
        }
    }
    acc
}

/// [`gemm_streamed_b`]'s loop nest for `m == M`: `NR`-column tiles, each
/// over the `KC` blocks in ascending order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stream_b_body<const M: usize>(
    n: usize,
    k: usize,
    fpack: &[f64],
    b: &[f64],
    b_cs: usize,
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
) {
    for jr in (0..n).step_by(NR) {
        let nr = NR.min(n - jr);
        // An edge tile's dead lanes re-read its last live column; their sums
        // are never stored.
        let cols: [&[f64]; NR] = std::array::from_fn(|j| &b[(jr + j.min(nr - 1)) * b_cs..][..k]);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let acc = mk_stream_b::<M>(
                &fpack[pc * MR..(pc + kc) * MR],
                cols.map(|col| &col[pc..pc + kc]),
            );
            mk_store(&acc, alpha, &mut c[jr * ldc..], ldc, M, nr);
        }
    }
}

/// [`gemm_streamed_a`]'s loop nest for `n == N`: `MR`-row tiles, each over
/// the `KC` blocks in ascending order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stream_a_body<const N: usize>(
    m: usize,
    k: usize,
    a: &[f64],
    a_cs: usize,
    fpack: &[f64],
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
) {
    for ir in (0..m).step_by(MR) {
        let mr = MR.min(m - ir);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let fp = &fpack[pc * MR..(pc + kc) * MR];
            let base = ir + pc * a_cs;
            let acc = if mr == MR {
                mk_stream_a::<N>(fp, |l| {
                    a[base + l * a_cs..][..MR]
                        .try_into()
                        .expect("an MR-row slice")
                })
            } else {
                // An edge tile's dead rows re-read its last live row; their
                // sums are never stored.
                mk_stream_a::<N>(fp, |l| {
                    std::array::from_fn(|i| a[base + l * a_cs + i.min(mr - 1)])
                })
            };
            mk_store(&acc, alpha, &mut c[ir..], ldc, mr, N);
        }
    }
}

/// Streamed GEMM with the factor on the left: `C[m×n] += alpha · F·B` for
/// `m ≤ MR`, `F` packed by [`pack_factor`] (`m` lanes, depth `k`) and `B`
/// read in place, column by column (element `(l, j)` at `b[l + j·b_cs]`).
///
/// This is the mode-0 TTM (`Out = A · Src`, `B` the tensor's fibers): with
/// `m ≤ MR` a packed `B` panel would be read by a single register tile, so
/// [`gemm_packed`] copies every byte of `B` to read it once. Here only `F`
/// is packed, and an exact-`m` tile reads `B` where it lies. Every element
/// of `C` sums the same products in the same order as [`gemm_packed`] — per
/// `KC` block from `0.0`, `l` ascending, then `c += alpha·acc` — so the two
/// agree in every bit.
#[allow(clippy::too_many_arguments)]
pub fn gemm_streamed_b(
    m: usize,
    n: usize,
    k: usize,
    fpack: &[f64],
    b: &[f64],
    b_cs: usize,
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
) {
    gemm_streamed_b_on(Isa::detect(), m, n, k, fpack, b, b_cs, alpha, c, ldc)
}

/// [`gemm_streamed_b`] compiled for `isa` (for tests: same body, same bits).
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_streamed_b_on(
    isa: Isa,
    m: usize,
    n: usize,
    k: usize,
    fpack: &[f64],
    b: &[f64],
    b_cs: usize,
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
) {
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    assert!(m <= MR, "a streamed-B product has at most MR = {MR} rows");
    debug_assert_eq!(fpack.len(), packed_factor_len(k));
    let (f, cs) = (fpack, b_cs);
    isa.run(
        #[inline(always)]
        || match m {
            1 => stream_b_body::<1>(n, k, f, b, cs, alpha, c, ldc),
            2 => stream_b_body::<2>(n, k, f, b, cs, alpha, c, ldc),
            3 => stream_b_body::<3>(n, k, f, b, cs, alpha, c, ldc),
            4 => stream_b_body::<4>(n, k, f, b, cs, alpha, c, ldc),
            5 => stream_b_body::<5>(n, k, f, b, cs, alpha, c, ldc),
            6 => stream_b_body::<6>(n, k, f, b, cs, alpha, c, ldc),
            7 => stream_b_body::<7>(n, k, f, b, cs, alpha, c, ldc),
            _ => stream_b_body::<MR>(n, k, f, b, cs, alpha, c, ldc),
        },
    )
}

/// Streamed GEMM with the factor on the right: `C[m×n] += alpha · A·F` for
/// `n ≤ NR`, `A` read in place, row tile by row tile (element `(i, l)` at
/// `a[i + l·a_cs]`), and `F` packed by [`pack_factor`] (`n` lanes, depth
/// `k`).
///
/// This is the slab TTM (`Out_o = S_o · Aᵀ`, `A` the slab's rows): with
/// `n ≤ NR` a packed `A` panel would be read by a single register tile. An
/// exact-`n` tile (`MR × n`, at most the packed kernels' `MR × NR`) reads
/// each element of `A` once, where it lies. Wider tiles were measured and
/// not kept: `n = 8` spills and ran 0.69× of the packed kernel on 768-row
/// slabs, and `n = 6` under AVX2 did not win reliably.
/// Every element of `C` carries the bits [`gemm_prepacked_b`] gives it.
#[allow(clippy::too_many_arguments)]
pub fn gemm_streamed_a(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    a_cs: usize,
    fpack: &[f64],
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
) {
    gemm_streamed_a_on(Isa::detect(), m, n, k, a, a_cs, fpack, alpha, c, ldc)
}

/// [`gemm_streamed_a`] compiled for `isa` (for tests: same body, same bits).
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_streamed_a_on(
    isa: Isa,
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    a_cs: usize,
    fpack: &[f64],
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
) {
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    assert!(
        n <= NR,
        "a streamed-A product has at most NR = {NR} columns"
    );
    debug_assert_eq!(fpack.len(), packed_factor_len(k));
    let (f, cs) = (fpack, a_cs);
    isa.run(
        #[inline(always)]
        || match n {
            1 => stream_a_body::<1>(m, k, a, cs, f, alpha, c, ldc),
            2 => stream_a_body::<2>(m, k, a, cs, f, alpha, c, ldc),
            3 => stream_a_body::<3>(m, k, a, cs, f, alpha, c, ldc),
            _ => stream_a_body::<NR>(m, k, a, cs, f, alpha, c, ldc),
        },
    )
}

/// Triangle-aware packed SYRK: `C[i, j] += alpha · Σ_l A[i, l] · A[j, l]`
/// for every `j ≤ i`, where `A` is the `n×k` strided operand and `C` is a
/// column-major `n×n` buffer of which **only the lower triangle is written**
/// (the upper triangle is never touched, matching the `syrk_*_lower`
/// contract).
///
/// The macro loop is the GEMM nest with `B = Aᵀ`, and `Aᵀ` is never packed:
/// per `KC` block all `n` rows of `A` are packed **once** into `packs.a`
/// (`⌈n/MR⌉·MR·KC` values at most; `packs.b` is not used), and since `NR`
/// divides `MR` the `B` panel of columns `j..j+NR` is the `A` panel `j / MR`
/// read with stride `MR` from lane `j % MR`. Tiles strictly above the
/// diagonal are skipped and tiles straddling it store under an `i ≥ j` mask.
/// Returns `true` if the pack buffer grew.
#[allow(clippy::too_many_arguments)]
pub fn syrk_packed_lower(
    n: usize,
    k: usize,
    a: &[f64],
    a_rs: usize,
    a_cs: usize,
    alpha: f64,
    c: &mut [f64],
    packs: &mut PackPair,
) -> bool {
    syrk_packed_lower_on(Isa::detect(), n, k, a, a_rs, a_cs, alpha, c, packs)
}

/// [`syrk_packed_lower`] compiled for `isa` (for tests: same body, same bits).
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn syrk_packed_lower_on(
    isa: Isa,
    n: usize,
    k: usize,
    a: &[f64],
    a_rs: usize,
    a_cs: usize,
    alpha: f64,
    c: &mut [f64],
    packs: &mut PackPair,
) -> bool {
    if n == 0 || k == 0 || alpha == 0.0 {
        return false;
    }
    debug_assert_eq!(c.len(), n * n);
    let pa = &mut packs.a;
    let grew = pa.ensure(packed_a_len(n, k.min(KC)));
    isa.run(
        #[inline(always)]
        || {
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let ap_len = packed_a_len(n, kc);
                pack_a_block(pa.slice_mut(ap_len), a, a_rs, a_cs, 0, n, pc, kc);
                // Row blocks of MC keep the A panels of one sweep over the
                // columns L2-resident, as in the GEMM nest.
                for ic in (0..n).step_by(MC) {
                    let mc = MC.min(n - ic);
                    macro_kernel_lower(ic, mc, kc, pa.slice(ap_len), alpha, c, n);
                }
            }
        },
    );
    grew
}

/// [`macro_kernel`] for rows `ic..ic+mc` of the lower triangle of
/// `C += alpha · A·Aᵀ`, both operands read from the one pack of all of `A`'s
/// rows (`c` is the whole column-major matrix): tiles entirely above the
/// diagonal are never visited, tiles straddling it go through
/// [`mk_store_lower`].
#[inline(always)]
fn macro_kernel_lower(
    ic: usize,
    mc: usize,
    kc: usize,
    apack: &[f64],
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
) {
    // Columns at or past the block's last row are above the diagonal.
    for jg in (0..ic + mc).step_by(NR) {
        let nr = NR.min(ic + mc - jg);
        // B = Aᵀ: columns jg..jg+NR are lanes jg % MR.. of A panel jg / MR.
        let bp = &apack[(jg / MR) * MR * kc..][..MR * kc];
        // Row panels before the one holding row jg are above the diagonal.
        for ig in (ic.max(jg / MR * MR)..ic + mc).step_by(MR) {
            let mr = MR.min(ic + mc - ig);
            let ap = &apack[ig * kc..][..MR * kc];
            let acc = mk_accumulate::<MR>(ap, bp, jg % MR);
            let tile = &mut c[ig + jg * ldc..];
            if ig >= jg + nr - 1 {
                mk_store(&acc, alpha, tile, ldc, mr, nr);
            } else {
                mk_store_lower(&acc, alpha, tile, ldc, mr, nr, ig, jg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(seed: u64, len: usize) -> Vec<f64> {
        // Cheap deterministic pseudo-noise; avoids pulling rand into the unit
        // tests of the lowest-level module.
        (0..len)
            .map(|i| {
                let x = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64)
                    .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn naive_gemm(
        m: usize,
        n: usize,
        k: usize,
        a: &[f64],
        a_rs: usize,
        a_cs: usize,
        b: &[f64],
        b_rs: usize,
        b_cs: usize,
        alpha: f64,
    ) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for j in 0..n {
            for i in 0..m {
                let mut s = 0.0;
                for l in 0..k {
                    s += a[i * a_rs + l * a_cs] * b[l * b_rs + j * b_cs];
                }
                c[i + j * m] = alpha * s;
            }
        }
        c
    }

    #[test]
    fn packed_gemm_matches_naive_over_blocking_edges() {
        // Shapes straddling MR/NR/MC/KC boundaries, both stride layouts.
        for &(m, n, k) in &[
            (1, 1, 1),
            (7, 3, 5),
            (8, 4, 16),
            (9, 5, 17),
            (97, 41, 260),
            (MC + 3, NR + 1, KC + 2),
        ] {
            let a = det(1, m * k);
            let b = det(2, k * n);
            let want = naive_gemm(m, n, k, &a, 1, m, &b, 1, k, 1.5);
            let mut c = vec![0.0; m * n];
            let mut packs = PackPair::new();
            gemm_packed(m, n, k, &a, 1, m, &b, 1, k, 1.5, &mut c, m, &mut packs);
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-12, "m={m} n={n} k={k}");
            }
            // Transposed-stride A (row-major view of the same buffer).
            let at = det(3, k * m); // k×m storage, used as m×k via strides
            let want = naive_gemm(m, n, k, &at, k, 1, &b, 1, k, 1.0);
            let mut c = vec![0.0; m * n];
            gemm_packed(m, n, k, &at, k, 1, &b, 1, k, 1.0, &mut c, m, &mut packs);
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-12, "strided m={m} n={n} k={k}");
            }
        }
    }

    #[test]
    fn prepacked_b_matches_direct() {
        let (m, n, k) = (37, 11, 300); // two KC blocks
        let a = det(4, m * k);
        let b = det(5, k * n);
        let mut direct = vec![0.0; m * n];
        let mut packs = PackPair::new();
        gemm_packed(m, n, k, &a, 1, m, &b, 1, k, 1.0, &mut direct, m, &mut packs);
        let mut bpack = vec![0.0; packed_b_full_len(k, n)];
        pack_b_full(&mut bpack, k, n, &b, 1, k);
        let mut c = vec![0.0; m * n];
        let mut apack = PackBuf::new();
        gemm_prepacked_b(m, n, k, &a, 1, m, &bpack, 1.0, &mut c, m, &mut apack);
        assert_eq!(c, direct, "prepacked B must be bit-identical");
    }

    #[test]
    fn syrk_lower_touches_only_lower_triangle() {
        let (n, k) = (23, 40);
        let a = det(6, n * k); // n×k column-major: rs=1, cs=n
        let mut c = vec![f64::NAN; n * n];
        for j in 0..n {
            for i in j..n {
                c[i + j * n] = 0.0;
            }
        }
        let mut packs = PackPair::new();
        syrk_packed_lower(n, k, &a, 1, n, 1.0, &mut c, &mut packs);
        for j in 0..n {
            for i in 0..n {
                let v = c[i + j * n];
                if i >= j {
                    let want: f64 = (0..k).map(|l| a[i + l * n] * a[j + l * n]).sum();
                    assert!((v - want).abs() < 1e-12, "({i},{j})");
                } else {
                    assert!(v.is_nan(), "upper ({i},{j}) must be untouched");
                }
            }
        }
    }

    #[test]
    fn pack_buffers_are_aligned_and_grow_only() {
        let mut p = PackBuf::new();
        assert!(!p.ensure(0));
        assert!(p.ensure(100));
        assert_eq!(p.slice(100).as_ptr() as usize % ALIGN_BYTES, 0);
        assert!(!p.ensure(50), "smaller request must not grow");
        assert!(!p.ensure(100), "equal request must not grow");
        assert!(p.ensure(10_000));
        assert_eq!(p.slice(10_000).as_ptr() as usize % ALIGN_BYTES, 0);
    }

    #[test]
    fn bytes_packed_counts_calling_thread_packing() {
        let a = det(7, 64 * 64);
        let b = det(8, 64 * 64);
        let mut c = vec![0.0; 64 * 64];
        let mut packs = PackPair::new();
        // GEMM 64×64×64: one KC block, one MC block — B packed once
        // (64·64 values) and A packed once (64·64 values), 8 bytes each.
        let before = bytes_packed();
        gemm_packed(
            64, 64, 64, &a, 1, 64, &b, 1, 64, 1.0, &mut c, 64, &mut packs,
        );
        assert_eq!(bytes_packed() - before, 2 * 64 * 64 * 8);
        // SYRK 64×64: the operand is packed once per KC block and read as
        // both A and Aᵀ — 64·64·8 = 32768 bytes, half of what the separate
        // Aᵀ pack used to make it (65536).
        let before = bytes_packed();
        syrk_packed_lower(64, 64, &a, 1, 64, 1.0, &mut c, &mut packs);
        assert_eq!(bytes_packed() - before, 64 * 64 * 8);
        // Two KC blocks of 67 rows: ⌈67/MR⌉·MR = 72 padded rows × 300 deep.
        let a = det(9, 67 * 300);
        let mut c = vec![0.0; 67 * 67];
        let before = bytes_packed();
        syrk_packed_lower(67, 300, &a, 300, 1, 1.0, &mut c, &mut packs);
        assert_eq!(bytes_packed() - before, 72 * 300 * 8);
    }

    /// Every panel packer against the per-element gather on the same
    /// operand: full and edge panels (zero padding included), depths on both
    /// sides of `TILE`, non-zero lane and depth origins, and the byte count.
    #[test]
    fn pack_fast_paths_equal_generic_gather() {
        fn check<const W: usize>() {
            let src = det(10, 4096);
            for &(lanes, depth, lane0, depth0) in &[
                (W, TILE, 0, 0),
                (W, 1, 3, 2),
                (W - 1, 7, 1, 0),
                (2 * W + 1, 2 * TILE + 3, 2, 5),
                (3 * W, 33, 0, 1),
                (1, 9, 4, 3),
                (W + 2, 0, 0, 0),
            ] {
                let len = lanes.div_ceil(W) * W * depth;
                // A buffer the packers must overwrite completely.
                let dirty = vec![f64::NAN; len];
                for &(lane_stride, depth_stride) in &[(1, 61), (53, 1), (1, 1)] {
                    let mut want = dirty.clone();
                    for (p, panel) in want.chunks_exact_mut((W * depth).max(1)).enumerate() {
                        let first = lane0 + p * W;
                        let live = W.min(lane0 + lanes - first);
                        let base = first * lane_stride + depth0 * depth_stride;
                        gather_panel::<W>(panel, &src, base, lane_stride, depth_stride, live);
                    }
                    let mut got = dirty.clone();
                    let before = bytes_packed();
                    pack_panels::<W>(
                        &mut got,
                        &src,
                        lane_stride,
                        depth_stride,
                        lane0,
                        lanes,
                        depth0,
                        depth,
                    );
                    let counted = bytes_packed() - before;
                    assert_eq!(counted, if depth == 0 { 0 } else { len as u64 * 8 });
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "W={W} lanes={lanes} depth={depth} strides=({lane_stride},{depth_stride})"
                    );
                }
            }
        }
        check::<MR>();
        check::<NR>();
    }

    /// SYRK reads `B = Aᵀ` out of its one `A` pack. The lower triangle must
    /// carry the bits of the two-pack computation — `gemm_packed` with the
    /// same slice as `A` and, strides swapped, as `B` — and the portable
    /// instantiation must carry the bits of the dispatched one.
    #[test]
    fn syrk_single_pack_equals_two_pack_gemm_bits() {
        for &(n, k, rs_major) in &[
            (1, 1, false),
            (NR + 1, 3, true),
            (MR + NR, KC + 1, false),
            (MC + MR + 3, 2 * KC + 5, true),
            (2 * MC + 1, 40, false),
        ] {
            let a = det(11, n * k);
            // rs_major: the AᵀA orientation (rs = k, cs = 1); else A·Aᵀ.
            let (rs, cs) = if rs_major { (k, 1) } else { (1, n) };
            let mut packs = PackPair::new();
            let mut two_pack = det(12, n * n);
            let mut one_pack = two_pack.clone();
            let mut portable = two_pack.clone();
            let untouched = two_pack.clone();
            gemm_packed(
                n,
                n,
                k,
                &a,
                rs,
                cs,
                &a,
                cs,
                rs,
                0.75,
                &mut two_pack,
                n,
                &mut packs,
            );
            syrk_packed_lower(n, k, &a, rs, cs, 0.75, &mut one_pack, &mut packs);
            syrk_packed_lower_on(
                Isa::PORTABLE,
                n,
                k,
                &a,
                rs,
                cs,
                0.75,
                &mut portable,
                &mut packs,
            );
            for j in 0..n {
                for i in 0..n {
                    let at = i + j * n;
                    let want = if i >= j { two_pack[at] } else { untouched[at] };
                    assert_eq!(
                        one_pack[at].to_bits(),
                        want.to_bits(),
                        "n={n} k={k} ({i},{j})"
                    );
                    assert_eq!(
                        portable[at].to_bits(),
                        want.to_bits(),
                        "n={n} k={k} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_isa_names_the_dispatched_instantiation() {
        assert!(["avx2", "portable"].contains(&kernel_isa()));
        assert_eq!(kernel_isa() == "portable", Isa::detect() == Isa::PORTABLE);
    }

    #[test]
    fn kernel_mode_roundtrip() {
        assert!(use_packed(64, 64, 64));
        assert!(!use_packed(2, 2, 2));
        assert!(!use_packed(0, 64, 64));
        set_kernel_mode(KernelMode::Naive);
        assert_eq!(kernel_mode(), KernelMode::Naive);
        assert!(!use_packed(64, 64, 64));
        set_kernel_mode(KernelMode::Packed);
        assert!(use_packed(2, 2, 2));
        assert!(!use_packed(0, 0, 0), "empty problems never pack");
        set_kernel_mode(KernelMode::Auto);
        assert_eq!(kernel_mode(), KernelMode::Auto);
    }
}
