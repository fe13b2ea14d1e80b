//! Benchmark suite for the distributed Tucker reproduction (paper §6.1).
//!
//! * [`generator`] — regenerates the paper's metadata benchmark: 5-D and 6-D
//!   tensors with mode lengths from `{20, 50, 100, 400}`, compression ratios
//!   from `{1.25, 2, 5, 10}`, and an `8·10⁹` cardinality cap, subsampled
//!   deterministically to the paper's 1134 + 642 sizes;
//! * [`real`] — the combustion-science tensors of Table 2 (HCCI, TJLR, SP)
//!   and their scaled-down variants for measured runs;
//! * [`percentile`] — the normalized percentile-curve summaries used by
//!   Figures 10 and 11;
//! * [`driver`] — the analytic load and volume comparisons behind Figures
//!   11c–f, and the problem the virtual-time experiments replay;
//! * [`fields`] — synthetic dense fields (combustion-like plumes, video
//!   frames) used to fill tensors for measured runs.

pub mod driver;
pub mod fields;
pub mod generator;
pub mod percentile;
pub mod real;

pub use generator::{benchmark_5d, benchmark_6d, full_enumeration, paper_sized_subsample};
pub use percentile::{normalized_percentiles, percentile_curve, PercentileCurve};
pub use real::{real_tensors, RealTensor};
