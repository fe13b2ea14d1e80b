//! Clock normalisation.
//!
//! This class of host does not hold its speed: a small shared cloud VM
//! whose compute rate swings by up to 1.5x with its neighbours' load, in
//! phases of a second to minutes. Measured here: the same decomposition
//! takes 0.42 s or 0.66 s, the same single-threaded plan 1.0 s or 1.4 s,
//! and whole 12 s runs fall into one phase or the other, so no in-run
//! median averages it out (run-to-run quartile spread of raw medians:
//! 4-39 %).
//!
//! So every timed interval is bracketed by two samples of a fixed
//! compute-bound *pace kernel* run on as many threads as the workload
//! uses, and its wall is scaled to what it would have been at the nominal
//! pace: `normalised = raw × NOMINAL_S / pace`. The kernel's time tracks
//! the machine state (over four minutes of back-to-back requests the
//! spread of 10 s medians falls from 9–23 % raw to 3–5 % normalised), so
//! normalised seconds compare across runs; raw seconds are printed beside
//! them. Memory-bound time follows the core clock less than the kernel
//! does, so bandwidth-bound workloads are slightly over-corrected — the
//! price of being able to compare at all.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// Lane steps each thread of the pace kernel runs.
const STEPS: u32 = 100_000;

/// Kernel runs per sample.
const REPS: usize = 5;

/// The nominal pace: the single-threaded kernel's wall in this host's slow
/// phase (the fast phase reads 0.9 ms). A constant of the
/// benchmark: on another machine it rescales every time by one factor.
pub const NOMINAL_S: f64 = 1.4e-3;

/// 64 independent mul+add lanes, in registers.
fn lanes() {
    let mut acc = [1.0f64; 64];
    let (m, b) = (black_box(0.999_999_9f64), black_box(1e-7f64));
    for _ in 0..STEPS {
        for a in acc.iter_mut() {
            *a = *a * m + b;
        }
    }
    black_box(acc);
}

/// The pace kernel on a fixed number of threads: the caller's plus
/// `threads − 1` parked helpers. The helpers live as long as the `Pacer` —
/// spawning threads per sample would churn the allocator's per-thread
/// arenas and show up in the workload's own peak RSS.
pub struct Pacer {
    gate: Arc<Barrier>,
    stop: Arc<AtomicBool>,
    helpers: Vec<JoinHandle<()>>,
}

impl Pacer {
    /// A pacer for a workload that computes on `threads` threads — a woken
    /// second vCPU and a lone one do not run at the same speed here, so the
    /// kernel must load the machine the way the workload does.
    pub fn new(threads: usize) -> Pacer {
        let gate = Arc::new(Barrier::new(threads.max(1)));
        let stop = Arc::new(AtomicBool::new(false));
        let helpers = (1..threads)
            .map(|_| {
                let (gate, stop) = (Arc::clone(&gate), Arc::clone(&stop));
                std::thread::spawn(move || loop {
                    gate.wait();
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    lanes();
                    gate.wait();
                })
            })
            .collect();
        Pacer {
            gate,
            stop,
            helpers,
        }
    }

    /// Wall of one kernel run on all threads.
    fn kernel(&self) -> f64 {
        let t0 = Instant::now();
        self.gate.wait();
        lanes();
        self.gate.wait();
        t0.elapsed().as_secs_f64()
    }

    /// The current pace: the median of [`REPS`] kernel runs. Call it while
    /// the workload is quiescent.
    pub fn sample(&self) -> f64 {
        let runs: Vec<f64> = (0..REPS).map(|_| self.kernel()).collect();
        crate::stats::median(&runs)
    }

    /// Time `f`, bracketing it with pace samples. `pace` carries the sample
    /// taken after the previous interval in and the one taken after this
    /// interval out, so back-to-back intervals share their boundary sample.
    pub fn timed<R>(&self, pace: &mut f64, f: impl FnOnce() -> R) -> (R, Sample) {
        let t0 = Instant::now();
        let r = f();
        let raw_s = t0.elapsed().as_secs_f64();
        let after = self.sample();
        let s = Sample::new(raw_s, *pace, after);
        *pace = after;
        (r, s)
    }
}

impl Drop for Pacer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.gate.wait();
        for h in self.helpers.drain(..) {
            // A helper only runs `lanes`; it cannot have panicked.
            let _ = h.join();
        }
    }
}

/// A measured interval and the clock factor that held around it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Wall seconds as measured.
    pub raw_s: f64,
    /// `NOMINAL_S / pace`, pace being the mean of the samples taken just
    /// before and just after the interval.
    pub factor: f64,
}

impl Sample {
    pub fn new(raw_s: f64, pace_before: f64, pace_after: f64) -> Sample {
        Sample {
            raw_s,
            factor: NOMINAL_S / (0.5 * (pace_before + pace_after)),
        }
    }

    /// Seconds at the nominal pace.
    pub fn norm_s(&self) -> f64 {
        self.raw_s * self.factor
    }
}

pub fn norm(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(Sample::norm_s).collect()
}

pub fn raw(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.raw_s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_pace_leaves_time_unchanged_and_turbo_stretches_it() {
        let at_nominal = Sample::new(2.0, NOMINAL_S, NOMINAL_S);
        assert_eq!(at_nominal.norm_s(), 2.0);
        // Clock 1.5x faster than nominal: the same work would have taken
        // 1.5x as long at the nominal pace.
        let at_turbo = Sample::new(2.0, NOMINAL_S / 1.5, NOMINAL_S / 1.5);
        assert!((at_turbo.norm_s() - 3.0).abs() < 1e-12);
        let straddling = Sample::new(1.0, NOMINAL_S, NOMINAL_S / 2.0);
        assert!((straddling.factor - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn timed_chains_boundary_samples() {
        let pacer = Pacer::new(2);
        let mut pace = pacer.sample();
        assert!(pace > 0.0 && Pacer::new(1).sample() > 0.0);
        let first = pace;
        let (r, s) = pacer.timed(&mut pace, || 7);
        assert_eq!(r, 7);
        assert!(s.raw_s >= 0.0 && s.factor > 0.0);
        assert!((NOMINAL_S / s.factor - 0.5 * (first + pace)).abs() < 1e-12);
    }
}
