//! Problem metadata.
//!
//! Everything the paper's planner needs is the *metadata* of a HOOI input —
//! the dimension lengths of the input tensor and of the core (§5, §6.1):
//! computational load and communication volume depend only on these, never
//! on element values.

use tucker_tensor::Shape;

/// Metadata of a Tucker decomposition problem: input shape
/// `L₁ × … × L_N` and core shape `K₁ × … × K_N`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TuckerMeta {
    input: Shape,
    core: Shape,
}

impl TuckerMeta {
    /// Create metadata.
    ///
    /// # Panics
    /// Panics unless both shapes have the same order and `K_n ≤ L_n` for
    /// every mode.
    pub fn new(input: impl Into<Shape>, core: impl Into<Shape>) -> Self {
        let input = input.into();
        let core = core.into();
        assert_eq!(input.order(), core.order(), "input/core order mismatch");
        for n in 0..input.order() {
            assert!(
                core.dim(n) <= input.dim(n),
                "core length K_{n} = {} exceeds input length L_{n} = {}",
                core.dim(n),
                input.dim(n)
            );
        }
        TuckerMeta { input, core }
    }

    /// Number of modes `N`.
    #[inline]
    pub fn order(&self) -> usize {
        self.input.order()
    }

    /// Input tensor shape.
    #[inline]
    pub fn input(&self) -> &Shape {
        &self.input
    }

    /// Core tensor shape.
    #[inline]
    pub fn core(&self) -> &Shape {
        &self.core
    }

    /// Input length `L_n`.
    #[inline]
    pub fn l(&self, n: usize) -> usize {
        self.input.dim(n)
    }

    /// Cost factor `K_n` (paper §3.1): multiplying along mode `n` costs
    /// `K_n` FLOPs per input element.
    #[inline]
    pub fn k(&self, n: usize) -> usize {
        self.core.dim(n)
    }

    /// Compression factor `h_n = K_n / L_n` (paper §3.1): multiplying along
    /// mode `n` shrinks the tensor by this factor.
    #[inline]
    pub fn h(&self, n: usize) -> f64 {
        self.core.dim(n) as f64 / self.input.dim(n) as f64
    }

    /// Input cardinality `|T|` as `f64` (paper-scale metadata can overflow
    /// `usize` arithmetic downstream).
    pub fn input_cardinality(&self) -> f64 {
        self.input.cardinality_f64()
    }

    /// Core cardinality `|G|`.
    pub fn core_cardinality(&self) -> f64 {
        self.core.cardinality_f64()
    }

    /// Overall compression ratio `|T| / |G|`.
    pub fn compression_ratio(&self) -> f64 {
        self.input_cardinality() / self.core_cardinality()
    }

    /// Cardinality of the intermediate tensor after multiplying along the
    /// modes in `premultiplied` (a bitmask over modes): `|T[P]|` in the
    /// paper's notation — `|T| · ∏_{n∈P} h_n`.
    pub(crate) fn premultiplied_cardinality(&self, premultiplied: u32) -> f64 {
        let mut card = self.input_cardinality();
        for n in 0..self.order() {
            if premultiplied & (1 << n) != 0 {
                card *= self.h(n);
            }
        }
        card
    }

    /// Uniformly scale the metadata down by `factor` along every mode
    /// (lengths are divided and clamped to at least 1, preserving
    /// `K_n ≤ L_n`). Used to shrink paper-scale tensors to measurable size
    /// while keeping the mode proportions that drive planning decisions.
    pub fn scaled_down(&self, factor: usize) -> TuckerMeta {
        assert!(factor >= 1);
        let l: Vec<usize> = self
            .input
            .dims()
            .iter()
            .map(|&d| (d / factor).max(1))
            .collect();
        let k: Vec<usize> = self
            .core
            .dims()
            .iter()
            .zip(&l)
            .map(|(&d, &lmax)| (d / factor).clamp(1, lmax))
            .collect();
        TuckerMeta::new(l, k)
    }
}

impl std::fmt::Display for TuckerMeta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -> {}", self.input, self.core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors() {
        let m = TuckerMeta::new([100, 50], [10, 25]);
        assert_eq!(m.order(), 2);
        assert_eq!(m.k(0), 10);
        assert_eq!(m.l(1), 50);
        assert!((m.h(0) - 0.1).abs() < 1e-15);
        assert!((m.h(1) - 0.5).abs() < 1e-15);
        assert_eq!(m.compression_ratio(), 20.0);
    }

    #[test]
    fn premultiplied_cardinality_shrinks() {
        let m = TuckerMeta::new([10, 10, 10], [5, 2, 10]);
        assert_eq!(m.premultiplied_cardinality(0), 1000.0);
        assert_eq!(m.premultiplied_cardinality(0b001), 500.0);
        assert_eq!(m.premultiplied_cardinality(0b011), 100.0);
        assert_eq!(m.premultiplied_cardinality(0b111), 100.0);
    }

    #[test]
    fn scaled_down_preserves_validity() {
        let m = TuckerMeta::new([672, 672, 627, 16], [279, 279, 153, 14]);
        let s = m.scaled_down(8);
        assert_eq!(s.input().dims(), &[84, 84, 78, 2]);
        for n in 0..4 {
            assert!(s.k(n) <= s.l(n));
            assert!(s.k(n) >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds input length")]
    fn oversized_core_rejected() {
        let _ = TuckerMeta::new([4, 4], [5, 2]);
    }
}
