//! The six workloads. Each is a closed loop driven from this process with
//! at most `nproc` threads: the next request is sent when the previous one
//! returned. Every workload yields the same [`Outcome`], from which `main`
//! derives the end-to-end metrics.

pub mod dist;
pub mod host;
pub mod plan;
pub mod serve;

use crate::metrics::Layers;
use crate::pace::{self, Pacer, Sample};
use crate::stats::median;
use crate::trace::Tracer;
use std::time::Instant;
use tucker_suite::fields::{combustion_field, hash_noise};
use tucker_tensor::{DenseTensor, Shape};

/// Workload names, in the order `run`/`trace` execute them.
pub const NAMES: &[&str] = &[
    "host-dense3d",
    "host-skinny5d",
    "dist-measured",
    "cluster-virtual",
    "plan-suite",
    "serve-mix",
];

/// Times each workload sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// What the driver passes.
pub struct RunCfg<'t> {
    pub seed: u64,
    /// Length of the timed region; `0` runs one request (smoke).
    pub seconds: f64,
    /// `Some` in a traced run.
    pub tracer: Option<&'t Tracer>,
}

/// What a workload hands back. Timed intervals are [`Sample`]s: raw wall
/// plus the clock factor that held around them (see `pace`).
pub struct Outcome {
    /// Each set-up repetition.
    pub setup: Vec<Sample>,
    /// Each untraced request of the timed region.
    pub requests: Vec<Sample>,
    /// The quantile of `requests` reported as `request_tail_s`: 0.95 where
    /// a run yields hundreds of requests, the third quartile elsewhere.
    pub tail_q: f64,
    /// Requests per normalised second of each interval of the timed
    /// region (a request; a slice of `serve-mix`); `requests_per_s` is the
    /// median.
    pub rates: Vec<f64>,
    /// Operations checked, and those that failed or answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    /// Peak RSS during each interval of the timed region (see
    /// [`crate::machine::peak_rss_of`]); `peak_rss_mb` is the median.
    pub peak_rss_mb: Vec<f64>,
    /// Per-layer values (all zero in an untraced run).
    pub layers: Layers,
    /// Human-readable detail lines: the issue's workload-specific metrics
    /// with quartiles and sample counts, and each failed check.
    pub notes: Vec<String>,
}

/// The synthetic field every tensor is filled with: a smooth, compressible
/// plume plus 1 % seeded noise, so the error trace is meaningful.
pub fn field(coord: &[usize], dims: &[usize], seed: u64) -> f64 {
    combustion_field(coord, dims) + 1e-2 * hash_noise(coord, seed)
}

/// Materialise [`field`] over `shape` with up to `nproc` threads.
pub fn fill_tensor(shape: &Shape, seed: u64) -> DenseTensor {
    let n = shape.cardinality();
    let mut data = vec![0.0f64; n];
    let chunk = n.div_ceil(crate::machine::nproc()).max(1);
    let dims = shape.dims();
    std::thread::scope(|s| {
        for (i, part) in data.chunks_mut(chunk).enumerate() {
            s.spawn(move || {
                let mut coord = shape.coord(i * chunk);
                for v in part {
                    *v = field(&coord, dims, seed);
                    // Odometer step in the canonical (first mode fastest) order.
                    for (c, &d) in coord.iter_mut().zip(dims) {
                        *c += 1;
                        if *c < d {
                            break;
                        }
                        *c = 0;
                    }
                }
            });
        }
    });
    DenseTensor::from_vec(shape.clone(), data)
}

/// Measure the machine ceilings in this process and record them. Returns
/// `(fma GFLOP/s, triad GB/s)` only when the triad arrays were at least
/// four times the last-level cache — otherwise a roofline fraction would
/// compare against cache bandwidth, and callers report ops/byte alone.
pub fn machine_layers(layers: &mut Layers, notes: &mut Vec<String>) -> Option<(f64, f64)> {
    let threads = crate::machine::nproc();
    let fma = crate::machine::fma_gflops(threads);
    let triad = crate::machine::triad(threads);
    layers.set("machine.fma_gflops", fma);
    layers.set("machine.triad_gbs", triad.gbs);
    layers.set("machine.triad_array_bytes", triad.array_bytes as f64);
    layers.set("machine.llc_bytes", triad.llc_bytes as f64);
    notes.push(format!(
        "  machine: {fma:.2} GFLOP/s mul+add, {:.2} GB/s triad on {threads} threads; \
         arrays {} MiB each, LLC {} MiB{}",
        triad.gbs,
        triad.array_bytes >> 20,
        triad.llc_bytes >> 20,
        if triad.beyond_llc {
            ""
        } else {
            " — arrays < 4x LLC: roofline fractions suppressed"
        }
    ));
    triad.beyond_llc.then_some((fma, triad.gbs))
}

/// Requests of one closed loop.
pub struct LoopTimes {
    pub plain: Vec<Sample>,
    pub traced: Vec<Sample>,
    /// Peak RSS during each plain request.
    pub peak_rss_mb: Vec<f64>,
}

impl LoopTimes {
    /// `(traced − plain) / plain` of the median request; 0 without both.
    pub fn trace_overhead_frac(&self) -> f64 {
        if self.plain.is_empty() || self.traced.is_empty() {
            return 0.0;
        }
        let plain = median(&pace::norm(&self.plain));
        (median(&pace::norm(&self.traced)) - plain) / plain
    }

    /// Median clock factor over every request of the loop.
    pub fn clock_factor(&self) -> f64 {
        let all: Vec<f64> = self
            .plain
            .iter()
            .chain(&self.traced)
            .map(|s| s.factor)
            .collect();
        median(&all)
    }
}

/// Drive `request` back to back for `seconds` (at least once), a pace
/// sample between every two requests. In a traced run plain and traced
/// requests alternate, so both see the same machine state and their
/// difference is the tracing overhead. `request` gets the tracer (traced
/// requests only) and the request's sequence number.
pub fn closed_loop(
    seconds: f64,
    pacer: &Pacer,
    tracer: Option<&Tracer>,
    mut request: impl FnMut(Option<&Tracer>, u64),
) -> LoopTimes {
    let mut times = LoopTimes {
        plain: Vec::new(),
        traced: Vec::new(),
        peak_rss_mb: Vec::new(),
    };
    let t0 = Instant::now();
    let mut pace_now = pacer.sample();
    let mut seq = 0u64;
    loop {
        let traced = tracer.is_some() && seq % 2 == 1;
        let (((), peak), sample) = pacer.timed(&mut pace_now, || {
            crate::machine::peak_rss_of(|| request(tracer.filter(|_| traced), seq))
        });
        if traced {
            times.traced.push(sample);
        } else {
            times.plain.push(sample);
            times.peak_rss_mb.push(peak);
        }
        seq += 1;
        let both = tracer.is_none() || !times.traced.is_empty();
        if both && t0.elapsed().as_secs_f64() >= seconds {
            return times;
        }
    }
}

/// Intervals measured inside requests (per-sweep walls), as samples that
/// inherit the clock factor of the request they ran in.
pub fn within(inner: &[Vec<f64>], requests: &[Sample]) -> Vec<Sample> {
    inner
        .iter()
        .zip(requests)
        .flat_map(|(walls, r)| {
            walls.iter().map(|&raw_s| Sample {
                raw_s,
                factor: r.factor,
            })
        })
        .collect()
}

/// The rate of one request per sample.
pub fn rates(requests: &[Sample]) -> Vec<f64> {
    requests.iter().map(|s| 1.0 / s.norm_s()).collect()
}

/// `name  median unit [q1, q3] n=…  (raw median)` for the human-readable
/// detail lines: clock-normalised statistics, the raw median beside them.
pub fn note(name: &str, unit: &str, scale: f64, samples: &[Sample]) -> String {
    let s = crate::stats::Summary::of(&pace::norm(samples));
    format!(
        "  {name:<28} {:>14.6} {unit:<9} [q1 {:.6}, q3 {:.6}]  n={}  (raw {:.6})",
        s.median * scale,
        s.q1 * scale,
        s.q3 * scale,
        s.n,
        median(&pace::raw(samples)) * scale
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_fill_matches_from_fn() {
        let shape = Shape::new(vec![5, 3, 4, 2]);
        let dims = shape.dims().to_vec();
        let want = DenseTensor::from_fn(shape.clone(), |c| field(c, &dims, 9));
        assert_eq!(fill_tensor(&shape, 9).as_slice(), want.as_slice());
        assert_ne!(fill_tensor(&shape, 10).as_slice(), want.as_slice());
    }

    #[test]
    fn closed_loop_alternates_when_tracing() {
        let mut kinds = Vec::new();
        let t = closed_loop(0.0, &Pacer::new(1), None, |tr, seq| {
            kinds.push((tr.is_some(), seq))
        });
        assert_eq!(kinds, vec![(false, 0)]);
        assert_eq!((t.plain.len(), t.traced.len()), (1, 0));
        assert_eq!(t.trace_overhead_frac(), 0.0);
        assert_eq!(t.clock_factor(), t.plain[0].factor);

        let tracer = Tracer::default();
        let mut kinds = Vec::new();
        let t = closed_loop(0.0, &Pacer::new(1), Some(&tracer), |tr, seq| {
            kinds.push((tr.is_some(), seq))
        });
        assert_eq!(kinds, vec![(false, 0), (true, 1)]);
        assert_eq!((t.plain.len(), t.traced.len()), (1, 1));
    }
}
