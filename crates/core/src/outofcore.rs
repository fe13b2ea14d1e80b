//! Out-of-core tiled Tucker sweeps and an incremental sliding-window entry.
//!
//! The in-core executor ([`crate::executor`]) assumes the input tensor and
//! every TTM-tree intermediate fit in memory. This module lifts the input
//! out of that budget: the tensor is processed as **tiles** — slabs along
//! the last mode, each a *contiguous* [`TensorView`] of the canonical
//! layout — and only tile-sized intermediates plus core-sized accumulators
//! ever stream through the (byte-capped) [`TtmWorkspace`]. Nothing
//! proportional to the full input is materialized beyond the input itself,
//! so a workspace limited to a fraction of the tensor's footprint suffices
//! (`outofcore_respects_workspace_limit` below pins this down).
//!
//! Two algorithms are provided on top of the tiling:
//!
//! - **Out-of-core STHOSVD + HOOI** ([`sthosvd_outofcore`],
//!   [`tucker_outofcore`]): per mode `n < N-1` the Gram matrix is the sum
//!   of per-tile Grams (mode-`n` fibers never cross a last-mode slab
//!   boundary, so the sum is exact); for the last mode the projected
//!   tensor `Y = T ×_{j<N-1} F_jᵀ` is core-sized in every mode but the
//!   last and is assembled slab by slab. A HOOI sweep accumulates each
//!   leaf `Y_n = T ×_{j≠n} F_jᵀ` across tiles, restricting the last-mode
//!   operand to the tile's columns of `F_{N-1}ᵀ`. Per-tile summation
//!   reorders floating-point additions relative to the in-core TTM tree,
//!   so results agree to roundoff (≪ 1e-10 on the error), not bitwise.
//!
//! - **Sliding-window Tucker** ([`SlidingTucker`]): the last mode is time;
//!   advancing the window is one in-place `memmove` (drop the oldest
//!   frames) plus one slab write (append the new ones). The warm state
//!   carried across pushes is the set of **spatial Gram matrices**, which
//!   are additive over frames and hence downdated/updated at *slab* cost;
//!   the HOOI re-convergence starts from factors refreshed out of those
//!   Grams instead of paying the cold start's window-sized Grams
//!   ([`full_recompute`] is the cold comparator).

use crate::decomposition::TuckerDecomposition;
use crate::executor::{self, LoopCfg, SeqBackend, SweepBackend};
use crate::meta::TuckerMeta;
use crate::plan::tree::{chain_tree, TtmTree};
use crate::sthosvd::sthosvd;
use tucker_linalg::{leading_from_gram, Matrix};
use tucker_tensor::norm::{fro_norm_sq, relative_error_from_core};
use tucker_tensor::{copy_into, gram, DenseTensor, Shape, TensorView, TensorViewMut, TtmWorkspace};

/// Tile extents `(start, len)` covering `0..total` along the last mode.
fn tiles(total: usize, tile_len: usize) -> Vec<(usize, usize)> {
    assert!(tile_len >= 1, "tile length must be at least 1");
    (0..total)
        .step_by(tile_len)
        .map(|t0| (t0, tile_len.min(total - t0)))
        .collect()
}

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

/// Columns `[c0, c0+len)` of a column-major matrix as an owned block —
/// the tile-restricted operand `F_{N-1}ᵀ[:, tile]` (contiguous in the
/// underlying buffer, so this is one `memcpy`).
fn cols_block(m: &Matrix, c0: usize, len: usize) -> Matrix {
    let k = m.nrows();
    Matrix::from_vec(k, len, m.as_slice()[c0 * k..(c0 + len) * k].to_vec())
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

/// Assemble `Y = T ×_{j<N-1} F_jᵀ` slab by slab. `Y` is core-sized in
/// every mode but the last (`∏_{j<N-1} K_j · L_{N-1}` elements), so it is
/// the largest in-memory object of the out-of-core sweeps. Each projected
/// tile lands in its slab of `Y` via one view-to-view copy.
fn assemble_projected(
    t: &DenseTensor,
    factors_t: &[Matrix],
    tile_len: usize,
    ws: &mut TtmWorkspace,
) -> DenseTensor {
    let last = t.order() - 1;
    assert_eq!(factors_t.len(), last, "one operand per non-last mode");
    let mut ydims: Vec<usize> = factors_t.iter().map(Matrix::nrows).collect();
    ydims.push(t.shape().dim(last));
    let mut y = DenseTensor::zeros(Shape::new(ydims));
    let ops: Vec<(usize, &Matrix)> = factors_t.iter().enumerate().collect();
    for (t0, len) in tiles(t.shape().dim(last), tile_len) {
        let tile = TensorView::of(t).slice(last, t0, len);
        let z = project_view(ws, &tile, &ops).expect("order >= 2 projects at least one mode");
        let mut slab = TensorViewMut::of(&mut y).slice_mut(last, t0, len);
        copy_into(&TensorView::of(&z), &mut slab);
        ws.recycle(z);
    }
    y
}

/// `‖T‖²` accumulated tile by tile (per-tile partial sums; never touches
/// more than one slab's worth of data at a time).
fn streamed_norm_sq(t: &DenseTensor, tile_len: usize) -> f64 {
    let last = t.order() - 1;
    tiles(t.shape().dim(last), tile_len)
        .into_iter()
        .map(|(t0, len)| {
            let tile = TensorView::of(t).slice(last, t0, len);
            let data = tile
                .contiguous_data()
                .expect("last-mode slabs are contiguous");
            data.iter().map(|&x| x * x).sum::<f64>()
        })
        .sum()
}

/// Out-of-core STHOSVD: modes in natural order; mode `n < N-1` sums
/// per-tile Grams of the partially truncated tensor, the last mode works
/// on the assembled (small) projection. Same math as
/// [`crate::sthosvd::sthosvd`], summation reordered across tiles.
///
/// # Panics
/// Panics if `meta` disagrees with the tensor, the order is below 2, or
/// `tile_len` is zero.
pub fn sthosvd_outofcore(
    t: &DenseTensor,
    meta: &TuckerMeta,
    tile_len: usize,
    ws: &mut TtmWorkspace,
) -> TuckerDecomposition {
    assert_eq!(t.shape(), meta.input(), "tensor does not match metadata");
    assert!(meta.order() >= 2, "out-of-core sweeps need order >= 2");
    let last = meta.order() - 1;
    let mut factors: Vec<Matrix> = Vec::with_capacity(meta.order());
    let mut factors_t: Vec<Matrix> = Vec::with_capacity(meta.order());
    for n in 0..last {
        let ln = meta.l(n);
        let mut acc = vec![0.0; ln * ln];
        let ops: Vec<(usize, &Matrix)> = factors_t.iter().take(n).enumerate().collect();
        for (t0, len) in tiles(meta.l(last), tile_len) {
            let tile = TensorView::of(t).slice(last, t0, len);
            match project_view(ws, &tile, &ops) {
                Some(z) => {
                    add_gram(&mut acc, &gram(&z, n));
                    ws.recycle(z);
                }
                // Mode 0 projects nothing: Gram straight off the view.
                None => add_gram(&mut acc, &gram(tile, n)),
            }
        }
        let f = leading_from_gram(&Matrix::from_vec(ln, ln, acc), meta.k(n)).u;
        factors_t.push(f.transpose());
        factors.push(f);
    }
    let y = assemble_projected(t, &factors_t, tile_len, ws);
    let f = leading_from_gram(&gram(&y, last), meta.k(last)).u;
    let core = ws.ttm(&y, last, &f.transpose());
    ws.recycle(y);
    factors.push(f);
    TuckerDecomposition::new(core, factors)
}

/// One Jacobi-style HOOI sweep computed without materializing anything
/// larger than the assembled last-mode projection: every leaf
/// `Y_n = T ×_{j≠n} F_jᵀ` is accumulated across tiles (the last-mode
/// operand restricted to the tile's columns of `F_{N-1}ᵀ`), truncated to
/// the new factor, and the new core is accumulated the same way. Returns
/// `(new_factors, core, error)` with the error from the core-norm
/// identity against `input_norm_sq`.
///
/// # Panics
/// Panics if shapes are inconsistent (see [`sthosvd_outofcore`]).
pub fn hooi_sweep_outofcore(
    t: &DenseTensor,
    meta: &TuckerMeta,
    factors: &[Matrix],
    tile_len: usize,
    ws: &mut TtmWorkspace,
    input_norm_sq: f64,
) -> (Vec<Matrix>, DenseTensor, f64) {
    assert_eq!(t.shape(), meta.input(), "tensor does not match metadata");
    assert!(meta.order() >= 2, "out-of-core sweeps need order >= 2");
    assert_eq!(factors.len(), meta.order(), "one factor per mode");
    let last = meta.order() - 1;
    let factors_t: Vec<Matrix> = factors.iter().map(Matrix::transpose).collect();

    let mut new_factors: Vec<Matrix> = Vec::with_capacity(meta.order());
    for n in 0..last {
        let ops: Vec<(usize, &Matrix)> = (0..last)
            .filter(|&j| j != n)
            .map(|j| (j, &factors_t[j]))
            .collect();
        let mut y: Option<DenseTensor> = None;
        for (t0, len) in tiles(meta.l(last), tile_len) {
            let tile = TensorView::of(t).slice(last, t0, len);
            let ft_cols = cols_block(&factors_t[last], t0, len);
            let w = match project_view(ws, &tile, &ops) {
                Some(z) => {
                    let w = ws.ttm(&z, last, &ft_cols);
                    ws.recycle(z);
                    w
                }
                // Order 2, mode 0: the tile itself is the operand.
                None => ws.ttm(tile, last, &ft_cols),
            };
            match y.as_mut() {
                None => y = Some(w),
                Some(acc) => {
                    acc.add_assign(&w);
                    ws.recycle(w);
                }
            }
        }
        let y = y.expect("at least one tile");
        new_factors.push(leading_from_gram(&gram(&y, n), meta.k(n)).u);
        ws.recycle(y);
    }
    let y = assemble_projected(t, &factors_t[..last], tile_len, ws);
    new_factors.push(leading_from_gram(&gram(&y, last), meta.k(last)).u);
    ws.recycle(y);

    // New core from the new factors, accumulated over the same tiling.
    let new_t: Vec<Matrix> = new_factors.iter().map(Matrix::transpose).collect();
    let ops: Vec<(usize, &Matrix)> = new_t[..last].iter().enumerate().collect();
    let mut core: Option<DenseTensor> = None;
    for (t0, len) in tiles(meta.l(last), tile_len) {
        let tile = TensorView::of(t).slice(last, t0, len);
        let z = project_view(ws, &tile, &ops).expect("order >= 2 projects at least one mode");
        let w = ws.ttm(&z, last, &cols_block(&new_t[last], t0, len));
        ws.recycle(z);
        match core.as_mut() {
            None => core = Some(w),
            Some(acc) => {
                acc.add_assign(&w);
                ws.recycle(w);
            }
        }
    }
    let core = core.expect("at least one tile");
    let error = relative_error_from_core(input_norm_sq, fro_norm_sq(&core));
    (new_factors, core, error)
}

/// Result of [`tucker_outofcore`].
pub struct OocOutcome {
    /// The converged decomposition.
    pub decomposition: TuckerDecomposition,
    /// Error trace, one entry per executed sweep.
    pub errors: Vec<f64>,
}

/// Full out-of-core Tucker: [`sthosvd_outofcore`] init, then
/// [`hooi_sweep_outofcore`] sweeps until [`LoopCfg::converged`], the rule
/// of [`executor::hooi_loop`]. The caller's workspace
/// carries the pooled buffers (cap it with
/// [`TtmWorkspace::set_pooled_bytes_limit`] to bound resident scratch).
///
/// # Panics
/// Panics if `cfg.max_sweeps` is zero or shapes are inconsistent.
pub fn tucker_outofcore(
    t: &DenseTensor,
    meta: &TuckerMeta,
    tile_len: usize,
    cfg: LoopCfg,
    ws: &mut TtmWorkspace,
) -> OocOutcome {
    assert!(cfg.max_sweeps >= 1, "need at least one sweep");
    let input_norm_sq = streamed_norm_sq(t, tile_len);
    let init = sthosvd_outofcore(t, meta, tile_len, ws);
    let mut factors = init.factors;
    ws.recycle(init.core);
    let mut core: Option<DenseTensor> = None;
    let mut errors = Vec::new();
    for _ in 0..cfg.max_sweeps {
        let (nf, c, e) = hooi_sweep_outofcore(t, meta, &factors, tile_len, ws, input_norm_sq);
        factors = nf;
        if let Some(old) = core.replace(c) {
            ws.recycle(old);
        }
        errors.push(e);
        if cfg.converged(&errors) {
            break;
        }
    }
    OocOutcome {
        decomposition: TuckerDecomposition::new(core.expect("max_sweeps >= 1"), factors),
        errors,
    }
}

/// Incremental sliding-window Tucker over a stream whose last mode is
/// time. The window tensor is updated **in place** — one `memmove` drops
/// the oldest frames, one slab write appends the new ones — and the
/// decomposition state is maintained **incrementally**: because non-time
/// fibers never cross a frame boundary, the raw Gram matrix of every
/// spatial mode is additive over frames, so each push *downdates* the
/// departing slab's Gram contribution and adds the arriving slab's (two
/// slab-sized [`gram`] calls instead of a window-sized Gram — the
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
    /// maintained across pushes by slab downdate/update. Floating-point
    /// noise accumulates at roundoff scale per push; `refresh_grams`
    /// rebuilds from scratch if a long-running stream ever cares.
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
    /// the arriving one (four slab-sized [`gram`] calls on a 3-way
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

    /// Rebuild the spatial Grams from the window contents, discarding the
    /// roundoff the repeated downdate/update accumulates (one window-sized
    /// Gram per spatial mode — the cost a cold start pays every push).
    pub fn refresh_grams(&mut self) {
        let last = self.window.order() - 1;
        self.spatial_grams = (0..last).map(|n| gram(&self.window, n)).collect();
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
        let mut y: Option<DenseTensor> = None;
        for (n, f) in init.iter().enumerate() {
            let ft = f.transpose();
            let next = match y.as_ref() {
                None => ws.ttm(&self.window, n, &ft),
                Some(z) => ws.ttm(z, n, &ft),
            };
            if let Some(old) = y.replace(next) {
                ws.recycle(old);
            }
        }
        let y = y.expect("order >= 2 leaves at least one spatial mode");
        init.push(leading_from_gram(&gram(&y, last), self.meta.k(last)).u);
        ws.recycle(y);
        self.backend = SeqBackend::from_workspace(ws);
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

    /// Current factors (one orthonormal `L_n × K_n` matrix per mode).
    pub fn factors(&self) -> &[Matrix] {
        &self.factors
    }

    /// Current core tensor.
    pub fn core(&self) -> &DenseTensor {
        self.core.as_ref().expect("core present between pushes")
    }

    /// Relative error of the current decomposition on the current window.
    pub fn error(&self) -> f64 {
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
        TuckerDecomposition::new(self.core().clone(), self.factors.clone())
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

    #[test]
    fn outofcore_sthosvd_matches_incore() {
        let dims = [12usize, 10, 8];
        let t = smooth_tensor(&dims, 0);
        let meta = TuckerMeta::new(dims.to_vec(), vec![4, 3, 3]);
        let incore = sthosvd(&t, &meta);
        let mut ws = TtmWorkspace::new();
        for tile_len in [1usize, 3, 8] {
            let ooc = sthosvd_outofcore(&t, &meta, tile_len, &mut ws);
            assert!(ooc.factors_orthonormal(1e-9));
            let e_in = incore.error_from_core_norm(fro_norm_sq(&t));
            let e_ooc = ooc.error_from_core_norm(fro_norm_sq(&t));
            assert!(
                (e_in - e_ooc).abs() < 1e-10,
                "tile_len {tile_len}: {e_in} vs {e_ooc}"
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
        let ooc = tucker_outofcore(&t, &meta, 5, cfg, &mut ws);
        let e_ooc = *ooc.errors.last().unwrap();
        assert!(
            (e_in - e_ooc).abs() < 1e-10,
            "in-core {e_in} vs out-of-core {e_ooc}"
        );
        assert!(ooc.decomposition.factors_orthonormal(1e-9));
    }

    #[test]
    fn tile_length_does_not_change_the_result() {
        let dims = [8usize, 7, 10];
        let t = smooth_tensor(&dims, 0);
        let meta = TuckerMeta::new(dims.to_vec(), vec![3, 2, 3]);
        let cfg = LoopCfg::exactly(3);
        let mut ws = TtmWorkspace::new();
        // tile_len == L_last is the "everything is one tile" degenerate case.
        let whole = tucker_outofcore(&t, &meta, 10, cfg, &mut ws);
        for tile_len in [1usize, 2, 3, 7] {
            let tiled = tucker_outofcore(&t, &meta, tile_len, cfg, &mut ws);
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
        let ooc = tucker_outofcore(&t, &meta, 2, cfg, &mut ws);
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
        st.push_slab(&slab);
        let (_, e_full, cold_sweeps) = full_recompute(st.window(), &meta, cfg);
        assert!(
            st.sweeps_last_push() <= cold_sweeps,
            "warm {} vs cold {cold_sweeps}",
            st.sweeps_last_push()
        );
        assert!((st.error() - e_full).abs() <= 1e-8);
    }
}
