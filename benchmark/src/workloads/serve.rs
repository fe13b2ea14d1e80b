//! `serve-mix`: `nproc` closed-loop clients against one `core::serve`
//! server. Each client alternates between the two classes of one traffic
//! mix: *repeat* jobs cycle 3 shapes × 4 seeds (plan-cache hits, batching
//! and coalescing do the work) and *unique* jobs each have a shape and seed
//! nobody else uses (cache miss, no sharing: planner, executor and kernels
//! do the work). One request is one `submit_blocking` → `Ticket::wait`.

use super::{note, Outcome, RunCfg, SETUP_REPS};
use crate::machine;
use crate::metrics::Layers;
use crate::pace::{self, Pacer, Sample};
use crate::stats::{median, quantile};
use crate::trace::{span, Tracer};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tucker_core::serve::{JobKind, JobOutput, JobSpec, ServeCfg, Server};

const NRANKS: usize = 8;
const SWEEPS: usize = 2;
const CORE: [usize; 4] = [10, 10, 8, 3];
/// The repeat class; its last extent (5) keeps it disjoint from every
/// unique shape (last extent ≥ 6).
const REPEAT_SHAPES: [[usize; 4]; 3] = [[40, 40, 32, 5], [36, 44, 32, 5], [44, 36, 28, 5]];
const REPEAT_SEEDS: u64 = 4;
/// A server set-up takes 0.15 s and varies by a quarter from one to the
/// next, so it is repeated three times as often as the others.
const SERVE_SETUP_REPS: usize = 3 * SETUP_REPS;
/// Warm-up jobs per repeat shape (the most two clients can have queued).
const WARM_SEEDS: u64 = 2;

/// The `i`-th unique shape: same size class as the repeat shapes, never
/// the same shape twice.
fn unique_shape(i: u64) -> Vec<usize> {
    let d = |k: u64| (i / k % 9) as usize;
    vec![36 + d(1), 36 + d(9), 28 + d(81), 6 + (i / 729) as usize]
}

fn spec(dims: Vec<usize>, seed: u64) -> JobSpec {
    JobSpec {
        dims,
        core: CORE.to_vec(),
        nranks: NRANKS,
        sweeps: SWEEPS,
        seed,
        kind: JobKind::Compress,
    }
}

/// One answered (or failed) job as its client saw it.
struct Job {
    unique: bool,
    latency_s: f64,
    ok: bool,
}

/// Sweep walls of the distinct executions behind the answers (coalesced
/// jobs return clones of one execution's stats, which count once).
#[derive(Default)]
struct Executions {
    seen: HashSet<(u64, u64)>,
    busy_s: f64,
    sweep_walls: Vec<f64>,
}

/// State the clients share.
struct Shared {
    seed: u64,
    next_unique: AtomicU64,
    next_repeat: AtomicU64,
    next_job: AtomicU64,
    /// First answer per repeat `(shape, seed)`: later ones must match bit
    /// for bit.
    answers: Mutex<HashMap<(usize, u64), Vec<u64>>>,
    executions: Mutex<Executions>,
}

impl Shared {
    /// Submit, wait, check. Every failure mode is a failed job, not a panic.
    fn job(&self, server: &Server, unique: bool, tracer: Option<&Tracer>) -> Job {
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        let (dims, seed, repeat_key) = if unique {
            let i = self.next_unique.fetch_add(1, Ordering::Relaxed);
            (
                unique_shape(i),
                self.seed ^ (i + 1).wrapping_mul(0x9E37_79B9),
                None,
            )
        } else {
            // Cycle the 3 × 4 combinations, each twice in a row — two
            // clients then tend to hold the same job at once, which is what
            // coalescing is for. The seed picks where the cycle starts and
            // which tensors the four seeds denote.
            let turn = self.next_repeat.fetch_add(1, Ordering::Relaxed) / 2 + self.seed;
            let shape = (turn % REPEAT_SHAPES.len() as u64) as usize;
            let seed = self.seed.wrapping_mul(REPEAT_SEEDS)
                + turn / REPEAT_SHAPES.len() as u64 % REPEAT_SEEDS;
            (REPEAT_SHAPES[shape].to_vec(), seed, Some((shape, seed)))
        };
        let name = if unique {
            "serve.job.unique"
        } else {
            "serve.job.repeat"
        };
        let _r = tracer.map(|t| t.request(name, id));
        let t0 = Instant::now();
        let answer = {
            let _s = span(tracer, "serve.submit");
            server.submit_blocking(spec(dims, seed))
        }
        .map_err(|e| e.to_string())
        .and_then(|ticket| {
            let _s = span(tracer, "serve.wait");
            ticket.wait().map_err(|e| e.to_string())
        });
        let latency_s = t0.elapsed().as_secs_f64();
        let ok = match answer {
            Ok(result) => match result.output {
                JobOutput::Compressed {
                    errors, per_sweep, ..
                } => {
                    let mut ex = self.executions.lock().expect("client panicked");
                    if ex.seen.insert((result.batch.batch_id, seed)) {
                        for s in &per_sweep {
                            ex.busy_s += s.wall.as_secs_f64();
                            ex.sweep_walls.push(s.wall.as_secs_f64());
                        }
                    }
                    drop(ex);
                    let bits: Vec<u64> = errors.iter().map(|e| e.to_bits()).collect();
                    let sane = errors.len() == SWEEPS
                        && errors
                            .iter()
                            .all(|e| e.is_finite() && (0.0..=1.0).contains(e));
                    let identical = repeat_key.is_none_or(|key| {
                        let mut seen = self.answers.lock().expect("client panicked");
                        *seen.entry(key).or_insert_with(|| bits.clone()) == bits
                    });
                    sane && identical
                }
                _ => false,
            },
            Err(_) => false,
        };
        Job {
            unique,
            latency_s,
            ok,
        }
    }
}

/// Length of one slice of the timed region. Clients run closed-loop inside
/// a slice; between slices they are quiescent for the few milliseconds a
/// pace sample takes, so every slice is bracketed like any other interval.
const SLICE_S: f64 = 0.5;

/// One slice: `nproc` clients, each alternating the two classes back to
/// back until the slice's deadline (at least one job of each class per
/// client). Returns the jobs and the slice's wall.
fn slice(
    server: &Server,
    shared: &Shared,
    seconds: f64,
    tracer: Option<&Tracer>,
    slice_no: u64,
) -> (Vec<Job>, f64) {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let jobs = std::thread::scope(|s| {
        let clients: Vec<_> = (0..machine::nproc() as u64)
            .map(|c| {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let unique = (mine.len() as u64 + c + slice_no) % 2 == 1;
                        mine.push(shared.job(server, unique, tracer));
                        if mine.len() >= 2 && Instant::now() >= deadline {
                            return mine;
                        }
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect::<Vec<Job>>()
    });
    (jobs, t0.elapsed().as_secs_f64())
}

/// The jobs of a run of slices.
#[derive(Default)]
struct Phase {
    jobs: Vec<Job>,
    /// Clock factor of the slice each job ran in, parallel to `jobs`.
    factors: Vec<f64>,
    /// Jobs per normalised second of each slice.
    rates: Vec<f64>,
    /// Peak RSS during each slice.
    peak_rss_mb: Vec<f64>,
    raw_wall_s: f64,
}

impl Phase {
    fn latencies(&self, unique: Option<bool>) -> Vec<Sample> {
        self.jobs
            .iter()
            .zip(&self.factors)
            .filter(|(j, _)| unique.is_none_or(|u| j.unique == u))
            .map(|(j, &factor)| Sample {
                raw_s: j.latency_s,
                factor,
            })
            .collect()
    }

    fn jobs_per_s(&self) -> f64 {
        median(&self.rates)
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut notes = Vec::new();
    let shared = Shared {
        seed: cfg.seed,
        next_unique: AtomicU64::new(0),
        next_repeat: AtomicU64::new(0),
        next_job: AtomicU64::new(0),
        answers: Mutex::new(HashMap::new()),
        executions: Mutex::new(Executions::default()),
    };

    // Set-up: start the server paused, queue two jobs (distinct seeds) per
    // repeat shape and release them, so each shape runs as one two-item
    // batch: the plan cache is primed and the workspace pool has reached
    // the footprint of the largest batch two clients can cause — otherwise
    // peak RSS would depend on whether the seed's traffic happens to form
    // such a batch. The last server serves the timed region.
    let mut setup = Vec::new();
    let mut server = None;
    let mut warm_ok = true;
    let pacer = Pacer::new(1);
    let mut pace_now = pacer.sample();
    for _ in 0..SERVE_SETUP_REPS {
        drop(server.take());
        let (s, sample) = pacer.timed(&mut pace_now, || {
            let s = Server::start(ServeCfg {
                return_decompositions: false,
                start_paused: true,
                ..ServeCfg::default()
            });
            let tickets: Vec<_> = REPEAT_SHAPES
                .iter()
                .flat_map(|shape| (0..WARM_SEEDS).map(move |i| (shape, i)))
                .map(|(shape, i)| {
                    let seed = cfg.seed.wrapping_mul(REPEAT_SEEDS) + i;
                    s.submit_blocking(spec(shape.to_vec(), seed))
                })
                .collect();
            s.resume();
            for t in tickets {
                warm_ok &= t.is_ok_and(|t| t.wait().is_ok());
            }
            s
        });
        setup.push(sample);
        server = Some(s);
    }
    let server = server.expect("SERVE_SETUP_REPS >= 1");
    let warm_jobs = REPEAT_SHAPES.len() as u64 * WARM_SEEDS;

    // Timed region: half-second slices; in a traced run plain and traced
    // slices alternate.
    let mut plain = Phase::default();
    let mut traced = Phase::default();
    let t0 = Instant::now();
    let mut slice_no = 0u64;
    loop {
        let tracer = cfg.tracer.filter(|_| slice_no % 2 == 1);
        let length = SLICE_S.min(cfg.seconds);
        let (((jobs, wall), peak), sample) = pacer.timed(&mut pace_now, || {
            machine::peak_rss_of(|| slice(&server, &shared, length, tracer, slice_no))
        });
        let into = if tracer.is_some() {
            &mut traced
        } else {
            &mut plain
        };
        // The slice's own wall: `timed` also counts the scope's teardown.
        let normalised_wall = wall * sample.factor;
        into.rates.push(jobs.len() as f64 / normalised_wall);
        into.peak_rss_mb.push(peak);
        into.raw_wall_s += wall;
        into.factors
            .extend(std::iter::repeat_n(sample.factor, jobs.len()));
        into.jobs.extend(jobs);
        slice_no += 1;
        let both = cfg.tracer.is_none() || slice_no >= 2;
        if both && t0.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let report = server.shutdown();

    // Checks.
    let all_jobs = || plain.jobs.iter().chain(&traced.jobs);
    let submitted = all_jobs().count() as u64;
    let mut failed = all_jobs().filter(|j| !j.ok).count() as u64;
    if failed > 0 {
        notes.push(format!(
            "  CHECK FAILED {failed} of {submitted} jobs failed, answered wrongly, \
             or differed from their duplicate"
        ));
    }
    let clean = warm_ok
        && report.jobs == submitted + warm_jobs
        && report.rejected == 0
        && report.worker_panics == 0
        && report.worker_error.is_none();
    if !clean {
        failed += 1;
        notes.push(format!(
            "  CHECK FAILED server report: {} jobs answered vs {} submitted, {} rejected, \
             {} worker panics, worker error {:?}, warm-up ok: {warm_ok}",
            report.jobs,
            submitted + warm_jobs,
            report.rejected,
            report.worker_panics,
            report.worker_error
        ));
    }

    let requests = plain.latencies(None);
    let latencies_s = pace::norm(&requests);
    let tail = quantile(&latencies_s, 0.95);
    notes.push(format!(
        "  jobs_per_s                   {:>14.6} jobs/s    ({} clients, {} jobs in {} slices)",
        plain.jobs_per_s(),
        machine::nproc(),
        plain.jobs.len(),
        plain.rates.len()
    ));
    notes.push(note("latency_p50_ms", "ms", 1e3, &requests));
    notes.push(format!(
        "  latency_p95_ms               {:>14.6} ms        ({} samples beyond it)",
        tail * 1e3,
        latencies_s.iter().filter(|&&l| l > tail).count()
    ));

    let mut layers = Layers::default();
    if cfg.tracer.is_some() {
        let class = |unique: bool| -> Vec<f64> {
            let mut all = plain.latencies(Some(unique));
            all.extend(traced.latencies(Some(unique)));
            all.iter().map(|s| s.raw_s * 1e3).collect()
        };
        let executions = shared.executions.lock().expect("client panicked");
        let jobs = report.jobs as f64;
        let wall = plain.raw_wall_s + traced.raw_wall_s;
        layers.set("serve.lat_repeat_p50_ms", median(&class(false)));
        layers.set("serve.lat_unique_p50_ms", median(&class(true)));
        layers.set(
            "latency_p95_ms",
            quantile(&pace::raw(&requests), 0.95) * 1e3,
        );
        layers.set("serve.cache_hit_rate", report.cache.hit_rate());
        layers.set("serve.coalesced_frac", report.coalesced_jobs as f64 / jobs);
        layers.set("serve.batched_frac", report.batched_jobs as f64 / jobs);
        layers.set(
            "serve.sweeps_executed_over_requested",
            report.executed_sweeps as f64 / report.requested_sweeps as f64,
        );
        layers.set("serve.queue_depth_hwm", report.queue_depth_hwm as f64);
        layers.set("serve.rejected", report.rejected as f64);
        layers.set("serve.worker_panics", report.worker_panics as f64);
        layers.set("serve.worker_busy_frac", executions.busy_s / wall);
        layers.set(
            "tensor.workspace.pooled_bytes_hwm",
            report.workspace_bytes_hwm as f64,
        );
        layers.set("sweep_s", median(&executions.sweep_walls));
        layers.set(
            "bench.trace_overhead_frac",
            (plain.jobs_per_s() - traced.jobs_per_s()) / plain.jobs_per_s(),
        );
        layers.set("bench.clock_factor", median(&plain.factors));
    }

    Outcome {
        setup,
        requests,
        tail_q: 0.95,
        rates: plain.rates,
        attempted: submitted + 1,
        failed,
        peak_rss_mb: plain.peak_rss_mb,
        layers,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_shapes_never_repeat_or_hit_the_repeat_class() {
        let mut seen = HashSet::new();
        for i in 0..3000 {
            let s = unique_shape(i);
            assert!(s.iter().zip(CORE).all(|(l, k)| *l >= k));
            assert!(REPEAT_SHAPES.iter().all(|r| r[..] != s[..]));
            assert!(seen.insert(s), "shape {i} repeats");
        }
    }
}
