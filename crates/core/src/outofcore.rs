//! Out-of-core tiled Tucker sweeps and an incremental sliding-window entry.
//!
//! [`TiledBackend`] runs the executor's loops ([`executor::sthosvd_sweep`],
//! [`executor::hooi_loop`], any TTM-tree) on an input read as **tiles**:
//! slabs along the last mode, each a *contiguous* [`TensorView`]. Only
//! tile-sized intermediates and core-sized results stream through the
//! (byte-capped) [`TtmWorkspace`], so a workspace limited to a fraction of
//! the tensor's footprint suffices. Its tensor is a [`Projection`], the
//! input times a list of `(mode, Fᵀ)` operands:
//!
//! - a TTM appends one operand and computes nothing;
//! - a Gram or norm streams the tiles once. Mode-`n` fibers (`n < N-1`)
//!   never cross a tile, so with no last-mode operand per-tile Grams and
//!   squared norms sum exactly. Otherwise the projection's values are
//!   computed: projected tiles are concatenated (a last-mode Gram), or each
//!   is contracted against its columns of `F_{N-1}ᵀ` and the results summed;
//! - values are computed at most once, and a TTM on computed values runs in
//!   core, so STHOSVD's last truncation and a sweep's core cost no extra pass.
//!
//! The input norm takes one pass, the STHOSVD init `N` and a HOOI sweep
//! `N + 1` whatever the tree ([`TiledBackend::passes`]). Per-tile summation
//! reorders floating-point additions, so results agree with in-core
//! execution to roundoff (≪ 1e-10 on the error), not bitwise.
//!
//! **Sliding-window Tucker** ([`SlidingTucker`]): the last mode is time;
//! advancing the window is one in-place `memmove` (drop the oldest frames)
//! plus one slab write (append the new ones). The warm state carried across
//! pushes is the set of **spatial Gram matrices**, which are additive over
//! frames and hence downdated/updated at *slab* cost; the HOOI
//! re-convergence starts from factors refreshed out of those Grams instead
//! of paying the cold start's window-sized Grams ([`full_recompute`] is the
//! cold comparator).

use crate::decomposition::TuckerDecomposition;
use crate::executor::{self, LoopCfg, LoopOutcome, SeqBackend, SweepBackend, SweepStats};
use crate::meta::TuckerMeta;
use crate::plan::tree::{chain_tree, TtmTree};
use crate::sthosvd::sthosvd;
use std::cell::OnceCell;
use std::time::{Duration, Instant};
use tucker_linalg::{leading_from_gram, Matrix};
use tucker_tensor::norm::fro_norm_sq;
use tucker_tensor::{copy_into, gram, DenseTensor, Shape, TensorView, TensorViewMut, TtmWorkspace};

/// Project `tile` by every `(mode, Fᵀ)` op, streaming through the
/// workspace: the first TTM consumes the borrowed view (contiguous tiles
/// hit the canonical kernels), later ones ping-pong pooled buffers, and
/// every intermediate is recycled as soon as its successor exists.
/// `None` when `ops` is empty (the caller keeps working on the view).
fn project_view(
    ws: &mut TtmWorkspace,
    tile: &TensorView,
    ops: &[(usize, &Matrix)],
) -> Option<DenseTensor> {
    let mut cur: Option<DenseTensor> = None;
    for &(n, a) in ops {
        let next = match cur.as_ref() {
            None => ws.ttm(tile.clone(), n, a),
            Some(z) => ws.ttm(z, n, a),
        };
        if let Some(old) = cur.replace(next) {
            ws.recycle(old);
        }
    }
    cur
}

/// Add `g`'s entries into `acc` (the per-tile Gram reduction).
fn add_gram(acc: &mut [f64], g: &Matrix) {
    for (a, &x) in acc.iter_mut().zip(g.as_slice()) {
        *a += x;
    }
}

/// Subtract `g`'s entries from `acc` (the sliding-window Gram downdate).
fn sub_gram(acc: &mut [f64], g: &Matrix) {
    for (a, &x) in acc.iter_mut().zip(g.as_slice()) {
        *a -= x;
    }
}

/// A projection `T ×_{m₁} A₁ ⋯ ×_{m_k} A_k` of a [`TiledBackend`]'s input,
/// the backend's tensor. `Projection::default()`, with no operand, is the
/// input itself (the root of every sweep), which is never copied. Its
/// values are computed at most once, when a Gram or norm first needs them.
#[derive(Default)]
pub struct Projection {
    /// `(mode, Fᵀ)` operands in application order.
    ops: Vec<(usize, Matrix)>,
    values: OnceCell<DenseTensor>,
}

impl Projection {
    /// The computed values, `None` if nothing needed them yet.
    pub(crate) fn into_values(self) -> Option<DenseTensor> {
        self.values.into_inner()
    }

    /// The operands on modes other than `last`, in order, and the one on
    /// `last` if any.
    fn split(&self, last: usize) -> (Vec<(usize, &Matrix)>, Option<&Matrix>) {
        let (spatial, on_last): (Vec<_>, Vec<_>) = self
            .ops
            .iter()
            .map(|(m, a)| (*m, a))
            .partition(|&(m, _)| m != last);
        (spatial, on_last.first().map(|&(_, a)| a))
    }
}

/// The out-of-core [`SweepBackend`]: its tensors are [`Projection`]s of an
/// input streamed in last-mode tiles of `tile_len` slices (see the module
/// docs). Pooled buffers live in the caller's workspace (cap it with
/// [`TtmWorkspace::with_limit`] to bound resident scratch).
pub struct TiledBackend<'a> {
    input: &'a DenseTensor,
    tile_len: usize,
    ws: &'a mut TtmWorkspace,
    passes: usize,
    epoch: Instant,
    sweep_t0: Duration,
    /// Time computing projection values this sweep, which `sweep_end`
    /// charges to `ttm_compute` (a norm computes a core's values).
    projecting: Duration,
}

impl<'a> TiledBackend<'a> {
    /// Stream `input` in last-mode tiles of `tile_len` slices (the last
    /// tile may be shorter), pooling intermediates in `ws`.
    ///
    /// # Panics
    /// Panics if the input's order is below 2 or `tile_len` is zero.
    pub fn new(input: &'a DenseTensor, tile_len: usize, ws: &'a mut TtmWorkspace) -> Self {
        assert!(input.order() >= 2, "out-of-core sweeps need order >= 2");
        assert!(tile_len >= 1, "tile length must be at least 1");
        TiledBackend {
            input,
            tile_len,
            ws,
            passes: 0,
            epoch: Instant::now(),
            sweep_t0: Duration::ZERO,
            projecting: Duration::ZERO,
        }
    }

    /// Streaming passes over the input so far: one per streamed Gram or
    /// norm and one per computed projection.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// One streaming pass: `each(ws, t0, z)` sees every last-mode tile
    /// starting at slice `t0`, in order, projected by `spatial` (the
    /// borrowed slab itself when `spatial` is empty). A projected tile goes
    /// back to the pool once `each` returns.
    fn stream(
        &mut self,
        spatial: &[(usize, &Matrix)],
        mut each: impl FnMut(&mut TtmWorkspace, usize, TensorView<'_>),
    ) {
        self.passes += 1;
        let last = self.input.order() - 1;
        let total = self.input.shape().dim(last);
        for t0 in (0..total).step_by(self.tile_len) {
            let tile = TensorView::of(self.input).slice(last, t0, self.tile_len.min(total - t0));
            match project_view(self.ws, &tile, spatial) {
                Some(z) => {
                    each(self.ws, t0, TensorView::of(&z));
                    self.ws.recycle(z);
                }
                None => each(self.ws, t0, tile),
            }
        }
    }

    /// `p`'s values (not the input's), computed on first use in one
    /// streaming pass.
    fn values<'p>(&mut self, p: &'p Projection) -> &'p DenseTensor {
        if let Some(v) = p.values.get() {
            return v;
        }
        let start = self.epoch.elapsed();
        let last = self.input.order() - 1;
        let total = self.input.shape().dim(last);
        let (spatial, last_op) = p.split(last);
        let mut acc: Option<DenseTensor> = None;
        match last_op {
            // Contract each projected tile against its columns of F_{N-1}ᵀ
            // (contiguous in the column-major operand: one copy) and sum.
            Some(ft) => self.stream(&spatial, |ws, t0, z| {
                let (k, len) = (ft.nrows(), z.dim(last));
                let cols = Matrix::from_vec(k, len, ft.as_slice()[t0 * k..][..len * k].to_vec());
                let w = ws.ttm(z, last, &cols);
                acc.get_or_insert_with(|| ws.zeros(w.shape().clone()))
                    .add_assign(&w);
                ws.recycle(w);
            }),
            // Concatenate the projected tiles along the last mode.
            None => self.stream(&spatial, |ws, t0, z| {
                let y = acc.get_or_insert_with(|| {
                    let mut dims = z.dims().to_vec();
                    dims[last] = total;
                    ws.zeros(Shape::new(dims))
                });
                let mut slab = TensorViewMut::of(y).slice_mut(last, t0, z.dim(last));
                copy_into(&z, &mut slab);
            }),
        }
        self.projecting += self.epoch.elapsed().saturating_sub(start);
        p.values.get_or_init(|| acc.expect("at least one tile"))
    }
}

impl SweepBackend for TiledBackend<'_> {
    type Tensor = Projection;

    fn clock(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sweep_begin(&mut self) {
        self.sweep_t0 = self.epoch.elapsed();
        self.projecting = Duration::ZERO;
    }

    fn sweep_end(&mut self, stats: &mut SweepStats) {
        stats.wall = self.epoch.elapsed().saturating_sub(self.sweep_t0);
        stats.ttm_compute += self.projecting;
    }

    fn gram(&mut self, p: &Projection, n: usize, stats: &mut SweepStats) -> Matrix {
        let (start, projecting) = (self.epoch.elapsed(), self.projecting);
        let last = self.input.order() - 1;
        let (spatial, last_op) = p.split(last);
        let g = if p.values.get().is_none() && n < last && last_op.is_none() {
            // Mode-n fibers stay inside a tile: the per-tile Grams sum.
            let mut sum: Option<Matrix> = None;
            self.stream(&spatial, |_, _, z| {
                let g = gram(z, n);
                let acc = sum.get_or_insert_with(|| Matrix::zeros(g.nrows(), g.nrows()));
                add_gram(acc.as_mut_slice(), &g);
            });
            sum.expect("at least one tile")
        } else if p.ops.is_empty() {
            // A last-mode Gram of the input itself reads it whole.
            self.passes += 1;
            gram(self.input, n)
        } else {
            gram(self.values(p), n)
        };
        let projected = self.projecting - projecting;
        stats.svd += self.epoch.elapsed().saturating_sub(start + projected);
        g
    }

    fn ttm(
        &mut self,
        p: &Projection,
        n: usize,
        factor_t: &Matrix,
        stats: &mut SweepStats,
    ) -> Projection {
        let values = OnceCell::new();
        if let Some(v) = p.values.get() {
            let start = self.epoch.elapsed();
            let _ = values.set(self.ws.ttm(v, n, factor_t));
            stats.ttm_compute += self.epoch.elapsed().saturating_sub(start);
        } else {
            assert!(p.ops.iter().all(|&(m, _)| m != n), "mode {n} repeats");
        }
        let mut ops = p.ops.clone();
        ops.push((n, factor_t.clone()));
        Projection { ops, values }
    }

    fn recycle(&mut self, p: Projection) {
        if let Some(v) = p.into_values() {
            self.ws.recycle(v);
        }
    }

    fn local_norm_sq(&mut self, p: &Projection) -> f64 {
        let (spatial, last_op) = p.split(self.input.order() - 1);
        if p.values.get().is_some() || last_op.is_some() {
            return fro_norm_sq(self.values(p));
        }
        // No last-mode operand: the per-tile squared norms sum.
        let mut sum = 0.0;
        self.stream(&spatial, |_, _, z| {
            let data = z.contiguous_data().expect("tiles are contiguous");
            sum += data.iter().map(|&x| x * x).sum::<f64>();
        });
        sum
    }
}

/// Full out-of-core Tucker on `b`'s tiles: [`executor::sthosvd_sweep`] in
/// natural mode order, then [`executor::hooi_loop`] over the natural chain
/// tree until `LoopCfg::converged`. Streams the input
/// `1 + N + S·(N+1)` times for `S` sweeps.
///
/// # Panics
/// Panics if `cfg.max_sweeps` is zero or `meta` disagrees with the input.
pub fn tucker_outofcore(
    b: &mut TiledBackend,
    meta: &TuckerMeta,
    cfg: LoopCfg,
) -> LoopOutcome<DenseTensor> {
    assert_eq!(b.input.shape(), meta.input(), "meta mismatch");
    let modes: Vec<usize> = (0..meta.order()).collect();
    let root = Projection::default();
    let input_norm_sq = b.norm_sq(&root);
    let init = executor::sthosvd_sweep(b, &root, meta, &modes, input_norm_sq);
    b.recycle(init.core);
    let tree = chain_tree(meta, &modes);
    let out = executor::hooi_loop(b, &root, meta, &tree, init.factors, input_norm_sq, cfg);
    LoopOutcome {
        factors: out.factors,
        core: out.core.into_values().expect("core computed"),
        per_sweep: out.per_sweep,
        errors: out.errors,
    }
}

/// Incremental sliding-window Tucker over a stream whose last mode is
/// time. The window tensor is updated **in place** — one `memmove` drops
/// the oldest frames, one slab write appends the new ones — and the
/// decomposition state is maintained **incrementally**: because non-time
/// fibers never cross a frame boundary, the raw Gram matrix of every
/// spatial mode is additive over frames, so each push *downdates* the
/// departing slab's Gram contribution and adds the arriving slab's (two
/// slab-sized [`fn@gram`] calls instead of a window-sized Gram — the
/// dominant init cost shrinks by `window/slab`). The refreshed factors
/// warm-start the HOOI re-convergence on a persistent [`SeqBackend`]
/// (pooled buffers survive pushes, so steady-state pushes are free of
/// tensor-sized allocations).
///
/// Why Grams and not the factors themselves: a pure previous-factor warm
/// start converges *slower* than a fresh (ST)HOSVD init whenever the
/// optimum drifts by more than the init's suboptimality — measured on the
/// video demo, it costs 1.5–2× the sweeps. The downdated Grams give
/// per-window-exact HOSVD factors at slab cost, so the loop starts as
/// close as a cold start does while skipping its full-tensor Grams.
pub struct SlidingTucker {
    meta: TuckerMeta,
    tree: TtmTree,
    cfg: LoopCfg,
    window: DenseTensor,
    backend: SeqBackend,
    factors: Vec<Matrix>,
    core: Option<DenseTensor>,
    error: f64,
    sweeps_last_push: usize,
    /// Exact raw Gram of the current window per spatial (non-time) mode,
    /// maintained across pushes by slab downdate/update (floating-point
    /// noise accumulates at roundoff scale per push).
    spatial_grams: Vec<Matrix>,
}

impl SlidingTucker {
    /// Decompose the initial window (cold start: STHOSVD init + HOOI to
    /// convergence under `cfg`).
    ///
    /// # Panics
    /// Panics if `core_dims` is invalid for the window's shape.
    pub fn new(window: DenseTensor, core_dims: impl Into<Shape>, cfg: LoopCfg) -> Self {
        assert!(cfg.max_sweeps >= 1, "need at least one sweep");
        let meta = TuckerMeta::new(window.shape().clone(), core_dims);
        let order: Vec<usize> = (0..meta.order()).collect();
        let tree = chain_tree(&meta, &order);
        let init = sthosvd(&window, &meta);
        let mut backend = SeqBackend::new();
        backend.recycle(init.core);
        let input_norm_sq = fro_norm_sq(&window);
        let out = executor::hooi_loop(
            &mut backend,
            &window,
            &meta,
            &tree,
            init.factors,
            input_norm_sq,
            cfg,
        );
        let last = meta.order() - 1;
        let spatial_grams = (0..last).map(|n| gram(&window, n)).collect();
        SlidingTucker {
            meta,
            tree,
            cfg,
            window,
            backend,
            factors: out.factors,
            error: *out.errors.last().expect("at least one sweep"),
            sweeps_last_push: out.errors.len(),
            core: Some(out.core),
            spatial_grams,
        }
    }

    /// Advance the window by `slab`'s last-mode extent `s`: frames
    /// `s..W` shift down in place, `slab` lands in the freed tail, the
    /// spatial Grams are downdated by the departing slab and updated by
    /// the arriving one (four slab-sized [`fn@gram`] calls on a 3-way
    /// window — never a window-sized Gram), and HOOI re-converges from
    /// factors refreshed out of that state. Returns the new relative
    /// error.
    ///
    /// # Panics
    /// Panics if `slab`'s frame shape differs from the window's or its
    /// extent exceeds the window length.
    pub fn push_slab(&mut self, slab: &DenseTensor) -> f64 {
        let last = self.window.order() - 1;
        assert_eq!(slab.order(), self.window.order(), "slab order mismatch");
        for n in 0..last {
            assert_eq!(
                slab.shape().dim(n),
                self.window.shape().dim(n),
                "slab frame shape mismatch in mode {n}"
            );
        }
        let w = self.window.shape().dim(last);
        let s = slab.shape().dim(last);
        assert!(s <= w, "slab longer than the window");
        // Downdate: subtract the departing frames' Gram contribution while
        // they are still resident at the head of the window.
        for n in 0..last {
            let head = TensorView::of(&self.window).slice(last, 0, s);
            sub_gram(self.spatial_grams[n].as_mut_slice(), &gram(head.clone(), n));
        }
        let frame: usize = self.window.shape().dims()[..last].iter().product();
        let data = self.window.as_mut_slice();
        data.copy_within(frame * s.., 0);
        data[frame * (w - s)..].copy_from_slice(slab.as_slice());
        // Update: add the arriving frames' contribution from the freshly
        // written tail.
        for n in 0..last {
            let tail = TensorView::of(&self.window).slice(last, w - s, s);
            add_gram(self.spatial_grams[n].as_mut_slice(), &gram(tail.clone(), n));
        }
        self.reconverge()
    }

    /// HOOI on the current window, warm-started from the maintained Gram
    /// state: spatial factors are the leading eigenvectors of the
    /// downdated Grams (per-window exact, obtained without a window-sized
    /// Gram), and the time factor comes from the Gram of the spatially
    /// projected window `Y = T ×_{n<last} F_nᵀ` — the same chain the cold
    /// STHOSVD would run *after* its full-tensor Grams.
    fn reconverge(&mut self) -> f64 {
        if let Some(core) = self.core.take() {
            self.backend.recycle(core);
        }
        let last = self.window.order() - 1;
        let mut ws = std::mem::take(&mut self.backend).into_workspace();
        let mut init: Vec<Matrix> = (0..last)
            .map(|n| leading_from_gram(&self.spatial_grams[n], self.meta.k(n)).u)
            .collect();
        let init_t = executor::transpose_all(&init);
        let ops: Vec<(usize, &Matrix)> = init_t.iter().enumerate().collect();
        let y = project_view(&mut ws, &TensorView::of(&self.window), &ops)
            .expect("order >= 2 leaves at least one spatial mode");
        init.push(leading_from_gram(&gram(&y, last), self.meta.k(last)).u);
        ws.recycle(y);
        self.backend = SeqBackend::new().with_workspace(ws);
        let input_norm_sq = fro_norm_sq(&self.window);
        let out = executor::hooi_loop(
            &mut self.backend,
            &self.window,
            &self.meta,
            &self.tree,
            init,
            input_norm_sq,
            self.cfg,
        );
        self.factors = out.factors;
        self.error = *out.errors.last().expect("at least one sweep");
        self.sweeps_last_push = out.errors.len();
        self.core = Some(out.core);
        self.error
    }

    /// Sweeps the last (re-)convergence took — the warm-start dividend.
    pub fn sweeps_last_push(&self) -> usize {
        self.sweeps_last_push
    }

    /// The current window contents (oldest frame first).
    pub fn window(&self) -> &DenseTensor {
        &self.window
    }

    /// Metadata of the decomposition (window + core shapes).
    pub fn meta(&self) -> &TuckerMeta {
        &self.meta
    }

    /// Clone out the current decomposition.
    pub fn decomposition(&self) -> TuckerDecomposition {
        let core = self.core.as_ref().expect("core present between pushes");
        TuckerDecomposition::new(core.clone(), self.factors.clone())
    }
}

/// Cold-start comparator for the sliding window: STHOSVD init plus HOOI to
/// convergence on the same window. Returns the decomposition, its error,
/// and the number of sweeps the loop took.
pub fn full_recompute(
    window: &DenseTensor,
    meta: &TuckerMeta,
    cfg: LoopCfg,
) -> (TuckerDecomposition, f64, usize) {
    let init = sthosvd(window, meta);
    let order: Vec<usize> = (0..meta.order()).collect();
    let tree = chain_tree(meta, &order);
    let mut b = SeqBackend::new();
    b.recycle(init.core);
    let out = executor::hooi_loop(
        &mut b,
        window,
        meta,
        &tree,
        init.factors,
        fro_norm_sq(window),
        cfg,
    );
    let error = *out.errors.last().expect("at least one sweep");
    let sweeps = out.errors.len();
    (
        TuckerDecomposition::new(out.core, out.factors),
        error,
        sweeps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smooth, compressible but non-separable synthetic field with a small
    /// deterministic noise floor and a phase knob (`shift`) so sliding
    /// windows see drifting but correlated content.
    fn smooth_tensor(dims: &[usize], shift: usize) -> DenseTensor {
        DenseTensor::from_fn(Shape::new(dims.to_vec()), |c| {
            let mut s = 0.0;
            let mut h = 0x9E37_79B9_7F4A_7C15u64;
            for (i, &x) in c.iter().enumerate() {
                let x = if i + 1 == c.len() { x + shift } else { x };
                s += (0.9 + 0.13 * i as f64) * x as f64;
                h = (h ^ (x as u64).wrapping_mul(0xff51_afd7_ed55_8ccd))
                    .rotate_left(31)
                    .wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            }
            let noise = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            (0.21 * s).sin() + 0.5 * (0.043 * s * s).cos() + 0.05 * noise
        })
    }

    /// `tucker_outofcore` on a fresh backend over `t` with `ws`.
    fn tucker_tiled(
        t: &DenseTensor,
        meta: &TuckerMeta,
        tile_len: usize,
        cfg: LoopCfg,
        ws: &mut TtmWorkspace,
    ) -> LoopOutcome<DenseTensor> {
        tucker_outofcore(&mut TiledBackend::new(t, tile_len, ws), meta, cfg)
    }

    #[test]
    fn outofcore_sthosvd_matches_incore() {
        let dims = [12usize, 10, 8];
        let t = smooth_tensor(&dims, 0);
        let meta = TuckerMeta::new(dims.to_vec(), vec![4, 3, 3]);
        let incore = sthosvd(&t, &meta);
        let e_in = incore.error_from_core_norm(fro_norm_sq(&t));
        let mut ws = TtmWorkspace::new();
        for tile_len in [1usize, 3, 8] {
            let mut b = TiledBackend::new(&t, tile_len, &mut ws);
            let root = Projection::default();
            let input_norm_sq = b.norm_sq(&root);
            let ooc = executor::sthosvd_sweep(&mut b, &root, &meta, &[0, 1, 2], input_norm_sq);
            let core = ooc.core.into_values().expect("the last TTM ran in core");
            assert!(TuckerDecomposition::new(core, ooc.factors).factors_orthonormal(1e-9));
            assert!(
                (e_in - ooc.stats.error).abs() < 1e-10,
                "tile_len {tile_len}: {e_in} vs {}",
                ooc.stats.error
            );
        }
    }

    #[test]
    fn outofcore_hooi_matches_incore_within_tolerance() {
        let dims = [10usize, 9, 12];
        let t = smooth_tensor(&dims, 0);
        let meta = TuckerMeta::new(dims.to_vec(), vec![3, 3, 4]);
        let cfg = LoopCfg::exactly(4);
        let (_, e_in, _) = full_recompute(&t, &meta, cfg);
        let mut ws = TtmWorkspace::new();
        let ooc = tucker_tiled(&t, &meta, 5, cfg, &mut ws);
        let e_ooc = *ooc.errors.last().unwrap();
        assert!(
            (e_in - e_ooc).abs() < 1e-10,
            "in-core {e_in} vs out-of-core {e_ooc}"
        );
        assert!(TuckerDecomposition::new(ooc.core, ooc.factors).factors_orthonormal(1e-9));
    }

    #[test]
    fn tile_length_does_not_change_the_result() {
        let dims = [8usize, 7, 10];
        let t = smooth_tensor(&dims, 0);
        let meta = TuckerMeta::new(dims.to_vec(), vec![3, 2, 3]);
        let cfg = LoopCfg::exactly(3);
        let mut ws = TtmWorkspace::new();
        // tile_len == L_last is the "everything is one tile" degenerate case.
        let whole = tucker_tiled(&t, &meta, 10, cfg, &mut ws);
        for tile_len in [1usize, 2, 3, 7] {
            let tiled = tucker_tiled(&t, &meta, tile_len, cfg, &mut ws);
            assert!(
                (whole.errors.last().unwrap() - tiled.errors.last().unwrap()).abs() < 1e-10,
                "tile_len {tile_len}"
            );
        }
    }

    #[test]
    fn outofcore_respects_workspace_limit() {
        // The workspace cap is well below the tensor footprint: the sweep
        // must still converge to the in-core answer while never parking
        // more than the cap (the "larger than memory" contract — only
        // tile-sized intermediates stream through the pool).
        let dims = [14usize, 12, 16];
        let t = smooth_tensor(&dims, 0);
        let tensor_bytes = t.cardinality() * std::mem::size_of::<f64>();
        let meta = TuckerMeta::new(dims.to_vec(), vec![4, 4, 4]);
        let cfg = LoopCfg::exactly(3);
        let limit = tensor_bytes / 2;
        let mut ws = TtmWorkspace::with_limit(limit);
        let ooc = tucker_tiled(&t, &meta, 2, cfg, &mut ws);
        assert!(
            ws.pooled_bytes() <= limit,
            "pool {} exceeds cap {limit}",
            ws.pooled_bytes()
        );
        let (_, e_in, _) = full_recompute(&t, &meta, cfg);
        assert!(
            (e_in - ooc.errors.last().unwrap()).abs() < 1e-10,
            "capped out-of-core must match in-core"
        );
    }

    /// The input is streamed once for its norm, `N` times by the STHOSVD
    /// init and `N + 1` times per HOOI sweep.
    #[test]
    fn passes_follow_the_closed_form() {
        for dims in [vec![9usize, 7], vec![8, 6, 7], vec![6, 5, 4, 7]] {
            let t = smooth_tensor(&dims, 0);
            let ranks = vec![2; dims.len()];
            let meta = TuckerMeta::new(dims.clone(), ranks);
            let n = dims.len();
            for sweeps in [1usize, 3] {
                let mut ws = TtmWorkspace::new();
                let mut b = TiledBackend::new(&t, 3, &mut ws);
                let out = tucker_outofcore(&mut b, &meta, LoopCfg::exactly(sweeps));
                assert_eq!(out.errors.len(), sweeps);
                assert_eq!(b.passes(), 1 + n + sweeps * (n + 1), "dims {dims:?}");
            }
        }
    }

    /// Any TTM-tree runs out of core: from the same init factors,
    /// `hooi_loop` on the tiles tracks `SeqBackend` sweep by sweep, for
    /// orders 2–5 (order 2's spatial leaf contracts the bare tile) and
    /// tiles of one slice, a non-divisor of `L_{N-1}` and all of it.
    #[test]
    fn every_tree_runs_out_of_core() {
        use crate::plan::tree::{balanced_tree, optimal_tree};
        let metas = [
            (vec![9usize, 7], vec![3usize, 2]),
            (vec![8, 6, 7], vec![3, 2, 3]),
            (vec![6, 5, 4, 7], vec![3, 2, 2, 3]),
            (vec![5, 4, 3, 4, 7], vec![2, 2, 2, 2, 3]),
        ];
        let cfg = LoopCfg::exactly(3);
        for (dims, ranks) in metas {
            let t = smooth_tensor(&dims, 0);
            let meta = TuckerMeta::new(dims.clone(), ranks);
            let init = sthosvd(&t, &meta).factors;
            let norm_sq = fro_norm_sq(&t);
            let perm: Vec<usize> = (0..meta.order()).collect();
            let trees = [
                ("chain", chain_tree(&meta, &perm)),
                ("balanced", balanced_tree(&meta, &perm)),
                ("optimal", optimal_tree(&meta).tree),
            ];
            let limit = t.cardinality() * std::mem::size_of::<f64>() / 2;
            for (name, tree) in &trees {
                let seq = executor::hooi_loop(
                    &mut SeqBackend::new(),
                    &t,
                    &meta,
                    tree,
                    init.clone(),
                    norm_sq,
                    cfg,
                );
                for tile_len in [1usize, 3, 7] {
                    let mut ws = TtmWorkspace::with_limit(limit);
                    let mut b = TiledBackend::new(&t, tile_len, &mut ws);
                    let root = Projection::default();
                    let ooc =
                        executor::hooi_loop(&mut b, &root, &meta, tree, init.clone(), norm_sq, cfg);
                    let at = format!("{name} tree, dims {dims:?}, tile {tile_len}");
                    assert_eq!(ooc.errors.len(), seq.errors.len(), "{at}");
                    for (s, (e_seq, e_ooc)) in seq.errors.iter().zip(&ooc.errors).enumerate() {
                        assert!(
                            (e_seq - e_ooc).abs() < 1e-10,
                            "{at}, sweep {s}: {e_seq} vs {e_ooc}"
                        );
                    }
                    let core = ooc.core.into_values().expect("the norm computed the core");
                    let dec = TuckerDecomposition::new(core, ooc.factors);
                    assert!(dec.factors_orthonormal(1e-9), "{at}");
                    assert!(ws.pooled_bytes() <= limit, "{at}: pool over its cap");
                }
            }
        }
    }

    /// One element of a drifting, essentially rank-3 stream: three smooth
    /// separable components whose time profiles evolve with the *global*
    /// frame index `t`, plus a deterministic noise floor small enough that
    /// the rank-(3,3,3) optimum is unique and sharply attained (warm and
    /// cold starts must agree on it to well below 1e-8).
    fn stream_at(i: usize, j: usize, t: usize) -> f64 {
        let (x, y, z) = (i as f64, j as f64, t as f64);
        let mut v = 0.0;
        for r in 0..3 {
            let rf = r as f64;
            let a = ((0.31 + 0.17 * rf) * x + 0.2 * rf).sin();
            let b = ((0.23 + 0.11 * rf) * y - 0.4 * rf).cos();
            let c = ((0.07 + 0.021 * rf) * z + 0.9 * rf).sin();
            v += a * b * c / (1.0 + rf);
        }
        let h = (i as u64 ^ (j as u64) << 20 ^ (t as u64) << 40)
            .wrapping_mul(0xff51_afd7_ed55_8ccd)
            .rotate_left(31)
            .wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        v + 1e-6 * ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
    }

    /// The window of `stream_at` whose oldest frame is global index `t0`.
    fn stream_window(frame: [usize; 2], window_len: usize, t0: usize) -> DenseTensor {
        DenseTensor::from_fn(Shape::new(vec![frame[0], frame[1], window_len]), |c| {
            stream_at(c[0], c[1], c[2] + t0)
        })
    }

    #[test]
    fn sliding_window_tracks_full_recompute() {
        let frame = [6usize, 5];
        let window_len = 12usize;
        let slab_len = 3usize;
        let cfg = LoopCfg {
            max_sweeps: 30,
            tol: 1e-13,
        };
        let mut st = SlidingTucker::new(stream_window(frame, window_len, 0), vec![3, 3, 3], cfg);
        let meta = st.meta().clone();
        for push in 1..=4usize {
            // The stream advances `slab_len` frames per push; the slab
            // holds the newest frames of the shifted window.
            let t0 = push * slab_len;
            let slab = DenseTensor::from_fn(Shape::new(vec![frame[0], frame[1], slab_len]), |c| {
                stream_at(c[0], c[1], c[2] + t0 + window_len - slab_len)
            });
            let e_inc = st.push_slab(&slab);
            // The window must now equal the shifted stream exactly.
            let expect = stream_window(frame, window_len, t0);
            assert_eq!(st.window().max_abs_diff(&expect), 0.0);
            let (_, e_full, _) = full_recompute(st.window(), &meta, cfg);
            assert!(
                (e_inc - e_full).abs() <= 1e-8,
                "push {push}: incremental {e_inc} vs full {e_full}"
            );
            assert!(st.decomposition().factors_orthonormal(1e-8));
        }
    }

    #[test]
    fn warm_start_skips_the_init_and_converges_fast() {
        // Gentle drift: after a push the warm start begins at the previous
        // optimum, which is near the new one — at a practical tolerance it
        // must not need more sweeps than the cold start, and on top of the
        // sweeps it skips the cold start's STHOSVD init entirely (the
        // wall-clock comparison lives in the views bench).
        let frame = [8usize, 7];
        let cfg = LoopCfg {
            max_sweeps: 30,
            tol: 1e-9,
        };
        let mut st = SlidingTucker::new(stream_window(frame, 10, 0), vec![3, 3, 3], cfg);
        let meta = st.meta().clone();
        let slab = DenseTensor::from_fn(Shape::new(vec![frame[0], frame[1], 1]), |c| {
            stream_at(c[0], c[1], c[2] + 10)
        });
        let e_inc = st.push_slab(&slab);
        let (_, e_full, cold_sweeps) = full_recompute(st.window(), &meta, cfg);
        assert!(
            st.sweeps_last_push() <= cold_sweeps,
            "warm {} vs cold {cold_sweeps}",
            st.sweeps_last_push()
        );
        assert!((e_inc - e_full).abs() <= 1e-8);
    }
}
