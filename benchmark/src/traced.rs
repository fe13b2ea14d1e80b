//! `Traced<B>`: a [`SweepBackend`] decorator that records a span and the
//! operation/byte counts of every TTM and Gram the executor issues — the
//! host layers' boundary as seen from outside the libraries.

use crate::trace::Tracer;
use std::time::Duration;
use tucker_core::executor::{SweepBackend, SweepStats};
use tucker_linalg::Matrix;
use tucker_tensor::{DenseTensor, Shape};

/// Work counted from operand shapes (not from hardware counters: bytes are
/// the compulsory traffic of each operand once, so cache misses beyond that
/// are not in here).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelCounts {
    pub ttm_calls: u64,
    pub ttm_flops: f64,
    pub ttm_bytes: f64,
    pub gram_calls: u64,
    pub gram_flops: f64,
    pub gram_bytes: f64,
}

impl KernelCounts {
    /// `t ×_n A` with `A` of `k` rows: `2·k·|t|` flops; reads `t` and `A`,
    /// writes `|t|·k/L_n` elements.
    pub fn ttm(&mut self, shape: &Shape, n: usize, k: usize) {
        let card = shape.cardinality_f64();
        let l = shape.dim(n) as f64;
        self.ttm_calls += 1;
        self.ttm_flops += 2.0 * k as f64 * card;
        self.ttm_bytes += 8.0 * (card + card * k as f64 / l + k as f64 * l);
    }

    /// Mode-`n` Gram: the lower triangle of an `L × L` product over
    /// `|t|/L`-long rows, `(L + 1)·|t|` flops; reads `t`, writes `L²`.
    pub fn gram(&mut self, shape: &Shape, n: usize) {
        let card = shape.cardinality_f64();
        let l = shape.dim(n) as f64;
        self.gram_calls += 1;
        self.gram_flops += (l + 1.0) * card;
        self.gram_bytes += 8.0 * (card + l * l);
    }
}

/// The decorator. Everything is delegated; `gram` and `ttm` additionally
/// open a span under the caller's innermost open span.
pub struct Traced<'t, B> {
    inner: B,
    tracer: &'t Tracer,
    pub counts: KernelCounts,
}

impl<'t, B> Traced<'t, B> {
    pub fn new(inner: B, tracer: &'t Tracer) -> Self {
        Traced {
            inner,
            tracer,
            counts: KernelCounts::default(),
        }
    }

    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: SweepBackend<Tensor = DenseTensor>> SweepBackend for Traced<'_, B> {
    type Tensor = DenseTensor;

    fn clock(&self) -> Duration {
        self.inner.clock()
    }

    fn sweep_begin(&mut self) {
        self.inner.sweep_begin();
    }

    fn sweep_end(&mut self, stats: &mut SweepStats) {
        self.inner.sweep_end(stats);
    }

    fn gram(&mut self, t: &DenseTensor, n: usize, stats: &mut SweepStats) -> Matrix {
        self.counts.gram(t.shape(), n);
        let _s = self.tracer.span("tensor.gram");
        self.inner.gram(t, n, stats)
    }

    fn ttm(
        &mut self,
        t: &DenseTensor,
        n: usize,
        factor_t: &Matrix,
        stats: &mut SweepStats,
    ) -> DenseTensor {
        self.counts.ttm(t.shape(), n, factor_t.nrows());
        let _s = self.tracer.span("tensor.ttm");
        self.inner.ttm(t, n, factor_t, stats)
    }

    fn regrid(
        &mut self,
        t: &DenseTensor,
        node: usize,
        stats: &mut SweepStats,
    ) -> Option<DenseTensor> {
        self.inner.regrid(t, node, stats)
    }

    fn recycle(&mut self, t: DenseTensor) {
        self.inner.recycle(t);
    }

    fn local_norm_sq(&mut self, t: &DenseTensor) -> f64 {
        self.inner.local_norm_sq(t)
    }

    fn allreduce(&mut self, x: f64) -> f64 {
        self.inner.allreduce(x)
    }

    fn norm_sq(&mut self, t: &DenseTensor) -> f64 {
        self.inner.norm_sq(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_follow_the_closed_forms() {
        let mut c = KernelCounts::default();
        let shape = Shape::new(vec![10, 20, 30]);
        c.ttm(&shape, 1, 5);
        assert_eq!(c.ttm_calls, 1);
        assert_eq!(c.ttm_flops, 2.0 * 5.0 * 6000.0);
        assert_eq!(c.ttm_bytes, 8.0 * (6000.0 + 1500.0 + 100.0));
        c.gram(&shape, 2);
        assert_eq!(c.gram_flops, 31.0 * 6000.0);
        assert_eq!(c.gram_bytes, 8.0 * (6000.0 + 900.0));
    }
}
