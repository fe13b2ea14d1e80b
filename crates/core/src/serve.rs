//! Tucker-as-a-service: a long-running in-process decomposition server.
//!
//! The request-lifecycle layer on top of the batch pipeline: accept
//! compress jobs (HOOI of a dense tensor under a planned tree) from many
//! clients, keep latency bounded, and reuse the expensive artifacts (plans,
//! workspace buffers) across requests. This module is that layer, built from
//! `std::sync` primitives only (no tokio — the queue is local and the
//! worker is one thread):
//!
//! * **Queue lifecycle** — [`Server::submit`] enqueues a [`JobSpec`] behind
//!   a bounded queue ([`ServeCfg::queue_depth`]); the worker thread pops the
//!   head, *batches* every queued job with the same `BatchKey` (shape,
//!   core, `P`, sweep count, kind) up to `BATCH_MAX` (8) jobs, executes
//!   the batch, and answers each job's [`Ticket`] over its own channel.
//! * **Batching rule** — same-key compress jobs share one plan and **one**
//!   [`SeqBackend`]: [`hooi_loop`] runs once per distinct seed,
//!   in seed order, each request reusing the pooled buffers the previous
//!   one recycled, so a batch of `k` same-shape requests allocates like one
//!   request. Jobs that are *identical* (same seed too) are coalesced: one
//!   execution, results cloned. Every executed sweep is stamped with
//!   [`PlanProvenance`] so the batch can be audited post-hoc.
//! * **Plan cache** — every job resolves its plan through a
//!   `PLAN_CACHE_CAPACITY`-entry (32) [`PlanCache`] under [`FlopVolumeModel`],
//!   keyed by `(shape, core, P, model)`; the joint DP is pure, so hits are
//!   exact (see [`crate::plan::cache`]).
//! * **Admission control / backpressure** — a full queue rejects
//!   [`Server::submit`] with [`SubmitError::QueueFull`] (counted in the
//!   report); [`Server::submit_blocking`] instead parks the client until the
//!   worker frees a slot.
//! * **Fail-stop** — a batch that panics answers its own jobs and every
//!   queued one [`JobError::WorkerLost`], refuses later submissions and ends
//!   the worker; [`Server::shutdown`] reports the panic instead of
//!   re-raising it.
//!
//! [`Server::shutdown`] drains the queue, joins the worker and returns a
//! [`ServerReport`] with the cache, batching, queue and workspace
//! high-water-mark counters the serving bench persists to
//! `results/BENCH_serving.json`.

use crate::decomposition::TuckerDecomposition;
use crate::executor::{
    hooi_loop, LoopCfg, LoopOutcome, PlanProvenance, SeqBackend, SweepBackend, SweepStats,
};
use crate::meta::TuckerMeta;
use crate::plan::cache::{PlanCache, PlanCacheStats};
use crate::plan::search::{table_bytes, MAX_MODES, MAX_TABLE_BYTES};
use crate::plan::{FlopVolumeModel, Plan};
use crate::sthosvd::hosvd_init_factors;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use tucker_distsim::enumerate_valid_grids;
use tucker_linalg::Matrix;
use tucker_tensor::norm::fro_norm_sq;
use tucker_tensor::{DenseTensor, Shape, TtmWorkspace};

/// Deterministic hash-based fill in `[-0.5, 0.5)` for synthetic job
/// tensors: stateless and reproducible, so a client, the server and a test
/// can all materialize the *same* tensor from `(shape, seed)` without
/// shipping it through the queue.
pub fn synthetic_fill(coord: &[usize], seed: u64) -> f64 {
    let mut h = seed ^ 0xD6E8_FEB8_6659_FD93;
    for &x in coord {
        h ^= (x as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
    }
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    ((h >> 11) ^ (h & 0x7FF)) as f64 / (1u64 << 53) as f64 - 0.5
}

/// A job's input tensor: `dims`, [`synthetic_fill`]ed from `seed`.
///
/// The buffer's *capacity* is rounded up to a power of two. Every job
/// allocates one of these and frees it when answered, and with exact sizes a
/// slightly smaller job leaves a tail of the block its predecessor used: the
/// worker's small allocations settle in that tail (some are freed by client
/// threads and stay pinned in their caches), the block can no longer be
/// merged back, and the next larger input lands on top of the heap instead —
/// whether that happens depended on the order the jobs arrived in, which made
/// the server's resident set 13 or 16 MiB from run to run on the serving
/// benchmark. Inputs of one size class reuse the block whole. Only the first
/// `cardinality` values are ever touched.
fn synthetic_root(dims: &[usize], seed: u64) -> DenseTensor {
    let shape = Shape::from(dims);
    let card = shape.cardinality();
    let mut data = Vec::with_capacity(card.next_power_of_two());
    // One coordinate buffer advanced in place, mode 0 fastest (the layout
    // order), as in `DenseTensor::from_fn`.
    let mut c = vec![0usize; dims.len()];
    for _ in 0..card {
        data.push(synthetic_fill(&c, seed));
        for (ci, &d) in c.iter_mut().zip(dims) {
            *ci += 1;
            if *ci < d {
                break;
            }
            *ci = 0;
        }
    }
    DenseTensor::from_vec(shape, data)
}

/// Maximum jobs merged into one batch.
const BATCH_MAX: usize = 8;

/// Capacity of the worker's LRU plan cache.
const PLAN_CACHE_CAPACITY: usize = 32;

/// Server configuration. The worker's TTM workspace pool is grow-only.
#[derive(Clone, Debug)]
pub struct ServeCfg {
    /// Admission-control bound on queued (not yet popped) jobs.
    pub queue_depth: usize,
    /// Whether compress results carry the full [`TuckerDecomposition`]
    /// (cloned per job); `false` returns errors/stats only, which is what
    /// the throughput bench wants.
    pub return_decompositions: bool,
    /// Start with the worker parked: jobs queue up but nothing executes
    /// until [`Server::resume`]. Deterministic batching for tests and for
    /// burst-style benches.
    pub start_paused: bool,
}

impl Default for ServeCfg {
    fn default() -> Self {
        ServeCfg {
            queue_depth: 64,
            return_decompositions: true,
            start_paused: false,
        }
    }
}

/// What a job asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Decompose the synthetic tensor `(dims, seed)` to the core shape.
    Compress,
    /// Fault injection: panic the worker when the batch executes. Drives
    /// the worker-death tests; never batches with real work (distinct
    /// batch key).
    #[cfg(test)]
    Fault,
}

/// One request.
#[derive(Clone)]
pub struct JobSpec {
    /// Input shape `L₁ … L_N`.
    pub dims: Vec<usize>,
    /// Core shape `K₁ … K_N`.
    pub core: Vec<usize>,
    /// Rank count the plan is priced for.
    pub nranks: usize,
    /// HOOI sweeps to run.
    pub sweeps: usize,
    /// Seed of the synthetic fill; jobs identical up to and including the
    /// seed are coalesced into one execution.
    pub seed: u64,
    /// What the job asks for.
    pub kind: JobKind,
}

impl JobSpec {
    /// A compress job with one sweep.
    pub fn compress(dims: Vec<usize>, core: Vec<usize>, nranks: usize, seed: u64) -> Self {
        JobSpec {
            dims,
            core,
            nranks,
            sweeps: 1,
            seed,
            kind: JobKind::Compress,
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.dims.is_empty() || self.dims.len() != self.core.len() {
            return Err(format!(
                "need matching non-empty shapes, got L={:?} K={:?}",
                self.dims, self.core
            ));
        }
        // The worker plans every job with the joint DP, which panics past
        // its mode limit and would take the server down with it.
        if self.dims.len() > MAX_MODES {
            return Err(format!(
                "{} modes exceed the planner's limit of {MAX_MODES}",
                self.dims.len()
            ));
        }
        // The capacity `synthetic_root` reserves must be allocatable: an
        // overflowing size would otherwise panic (or wrap to an empty buffer)
        // inside the worker and take every other client's job down with it.
        let fits = self
            .dims
            .iter()
            .try_fold(1usize, |card, &l| card.checked_mul(l))
            .and_then(usize::checked_next_power_of_two)
            .and_then(|cap| cap.checked_mul(std::mem::size_of::<f64>()))
            .is_some_and(|bytes| bytes <= isize::MAX as usize);
        if !fits {
            return Err(format!("input {:?} is too large to allocate", self.dims));
        }
        for (n, (&l, &k)) in self.dims.iter().zip(&self.core).enumerate() {
            if k == 0 || k > l {
                return Err(format!("mode {n}: need 1 <= K ({k}) <= L ({l})"));
            }
        }
        let core_card: f64 = self.core.iter().map(|&k| k as f64).product();
        if self.nranks == 0 || self.nranks as f64 > core_card {
            return Err(format!(
                "nranks {} outside [1, core cardinality {core_card}]",
                self.nranks
            ));
        }
        // A grid needs `∏ q_n = P` with every `q_n ≤ K_n`; `P ≤ ∏ K_n` alone
        // admits e.g. P = 7 on K = [4, 4, 4], which would panic the worker's
        // planner and shut the server down.
        let grids = enumerate_valid_grids(self.nranks, &self.core).len();
        if grids == 0 {
            return Err(format!(
                "nranks {} is not a product of per-mode counts q_n <= K_n for K = {:?}",
                self.nranks, self.core
            ));
        }
        // The worker's joint DP over those grids must fit its table budget:
        // a 14-mode DP alone would take gigabytes.
        let bytes = table_bytes(self.dims.len(), grids);
        if bytes > MAX_TABLE_BYTES {
            return Err(format!(
                "planning {} modes over {grids} grids takes {bytes} bytes, more than the \
                 planner's budget of {MAX_TABLE_BYTES}",
                self.dims.len()
            ));
        }
        if self.sweeps == 0 {
            return Err("need at least one sweep".to_string());
        }
        Ok(())
    }

    fn meta(&self) -> TuckerMeta {
        TuckerMeta::new(self.dims.clone(), self.core.clone())
    }
}

/// The batching equivalence class: jobs agreeing on everything but the seed
/// share one batch.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct BatchKey {
    dims: Vec<usize>,
    core: Vec<usize>,
    nranks: usize,
    sweeps: usize,
    kind: JobKind,
}

impl BatchKey {
    fn of(spec: &JobSpec) -> Self {
        BatchKey {
            dims: spec.dims.clone(),
            core: spec.core.clone(),
            nranks: spec.nranks,
            sweeps: spec.sweeps,
            kind: spec.kind,
        }
    }
}

/// How a job's execution was shared, for audit alongside the per-sweep
/// [`PlanProvenance`] stamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchInfo {
    /// Sequential id of the batch that served this job.
    pub batch_id: u64,
    /// Number of jobs the batch served.
    pub batch_jobs: usize,
    /// Whether this job shared its execution with an identical job
    /// (same seed) instead of running its own sweeps.
    pub coalesced: bool,
}

/// A job's answer.
#[non_exhaustive]
pub enum JobOutput {
    /// Compress: error trace and stamped per-sweep stats; the decomposition
    /// when [`ServeCfg::return_decompositions`] is set.
    Compressed {
        /// The decomposition, if requested.
        decomposition: Option<TuckerDecomposition>,
        /// Relative error after each sweep.
        errors: Vec<f64>,
        /// Stats of each sweep, provenance-stamped.
        per_sweep: Vec<SweepStats>,
    },
}

/// What a [`Ticket`] resolves to.
pub struct JobResult {
    /// Sequential id assigned at submission.
    pub job_id: u64,
    /// `"(tree, grid)"` name of the plan that drove the job.
    pub plan: String,
    /// Batch audit info.
    pub batch: BatchInfo,
    /// The payload.
    pub output: JobOutput,
}

/// Why a submission was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at [`ServeCfg::queue_depth`]; retry or use
    /// [`Server::submit_blocking`].
    QueueFull,
    /// [`Server::shutdown`] has begun.
    ShuttingDown,
    /// The spec failed validation.
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "queue full"),
            SubmitError::ShuttingDown => write!(f, "server shutting down"),
            SubmitError::Invalid(why) => write!(f, "invalid job: {why}"),
        }
    }
}

/// Why an accepted job resolved without a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The worker died (batch panic) before answering this job. In-flight
    /// jobs of the fatal batch and everything still queued are all answered
    /// with this — a ticket never hangs on a dead worker.
    WorkerLost,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::WorkerLost => write!(f, "worker lost before answering"),
        }
    }
}

impl std::error::Error for JobError {}

/// Claim on a submitted job's result.
pub struct Ticket {
    /// The job's sequential id.
    pub job_id: u64,
    rx: Receiver<Result<JobResult, JobError>>,
}

impl Ticket {
    /// Block until the job completes, or until the worker is lost —
    /// a dead worker answers [`JobError::WorkerLost`] rather than leaving
    /// the caller to panic (or hang) on a closed channel.
    pub fn wait(self) -> Result<JobResult, JobError> {
        match self.rx.recv() {
            Ok(answer) => answer,
            Err(_) => Err(JobError::WorkerLost),
        }
    }
}

struct Pending {
    job_id: u64,
    spec: JobSpec,
    tx: Sender<Result<JobResult, JobError>>,
}

struct State {
    queue: VecDeque<Pending>,
    shutting_down: bool,
    paused: bool,
    next_job_id: u64,
    rejected: u64,
    queue_depth_hwm: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Signaled when work arrives, the pause lifts, or shutdown begins.
    jobs: Condvar,
    /// Signaled when the worker frees queue slots.
    space: Condvar,
    /// The worker's report mirrored after every batch, so it survives a
    /// worker death (the join result is then an unwind payload, not a
    /// report).
    totals: Mutex<ServerReport>,
}

/// Lifetime counters of one server, returned by [`Server::shutdown`]. The
/// worker accumulates into one directly; `shutdown` adds what the queue
/// counted (`rejected`, `queue_depth_hwm`) and how the worker ended
/// (`worker_error`).
#[derive(Clone, Debug, Default)]
pub struct ServerReport {
    /// Jobs answered.
    pub jobs: u64,
    /// Batches executed.
    pub batches: u64,
    /// Batches that served more than one job.
    pub multi_job_batches: u64,
    /// Jobs served by multi-job batches.
    pub batched_jobs: u64,
    /// Jobs answered by cloning an identical job's execution.
    pub coalesced_jobs: u64,
    /// HOOI sweeps actually executed.
    pub executed_sweeps: u64,
    /// HOOI sweeps the jobs asked for (≥ `executed_sweeps`; the gap is
    /// what coalescing saved), saturating at `u64::MAX`.
    pub requested_sweeps: u64,
    /// Plan-cache counters.
    pub cache: PlanCacheStats,
    /// Submissions refused with [`SubmitError::QueueFull`].
    pub rejected: u64,
    /// Deepest the queue ever got.
    pub queue_depth_hwm: usize,
    /// Peak bytes parked in the worker's TTM workspace pool.
    pub workspace_bytes_hwm: usize,
    /// Batches that panicked (their jobs answered [`JobError::WorkerLost`]).
    pub worker_panics: u64,
    /// Panic message of a worker that died instead of returning its stats;
    /// `None` for a clean shutdown. Surfaced here instead of re-panicking
    /// out of [`Server::shutdown`]/`Drop` (a panic in `Drop` mid-unwind
    /// aborts the process).
    pub worker_error: Option<String>,
}

/// The in-process decomposition server: one worker thread over a bounded
/// local job queue. See the module docs for the lifecycle.
pub struct Server {
    shared: Arc<Shared>,
    cfg: ServeCfg,
    worker: Option<JoinHandle<ServerReport>>,
}

impl Server {
    /// Start the worker and return the handle clients submit through.
    ///
    /// # Panics
    /// Panics if `queue_depth` is zero.
    pub fn start(cfg: ServeCfg) -> Self {
        assert!(cfg.queue_depth >= 1, "need a queue");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutting_down: false,
                paused: cfg.start_paused,
                next_job_id: 0,
                rejected: 0,
                queue_depth_hwm: 0,
            }),
            jobs: Condvar::new(),
            space: Condvar::new(),
            totals: Mutex::new(ServerReport::default()),
        });
        let worker_shared = Arc::clone(&shared);
        let worker_cfg = cfg.clone();
        let worker = std::thread::Builder::new()
            .name("tucker-serve".to_string())
            .spawn(move || worker_loop(&worker_shared, &worker_cfg))
            .expect("spawn server worker");
        Server {
            shared,
            cfg,
            worker: Some(worker),
        }
    }

    /// Lift [`ServeCfg::start_paused`]: the worker begins draining the
    /// queue. Idempotent.
    pub fn resume(&self) {
        let mut st = self.shared.state.lock().unwrap();
        st.paused = false;
        drop(st);
        self.shared.jobs.notify_all();
    }

    /// Enqueue a job, refusing when the queue is full (admission control).
    pub fn submit(&self, spec: JobSpec) -> Result<Ticket, SubmitError> {
        spec.validate().map_err(SubmitError::Invalid)?;
        let mut st = self.shared.state.lock().unwrap();
        if st.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        if st.queue.len() >= self.cfg.queue_depth {
            st.rejected += 1;
            return Err(SubmitError::QueueFull);
        }
        Ok(self.enqueue(&mut st, spec))
    }

    /// Enqueue a job, parking the caller until a slot frees (backpressure).
    pub fn submit_blocking(&self, spec: JobSpec) -> Result<Ticket, SubmitError> {
        spec.validate().map_err(SubmitError::Invalid)?;
        let mut st = self.shared.state.lock().unwrap();
        while !st.shutting_down && st.queue.len() >= self.cfg.queue_depth {
            st = self.shared.space.wait(st).unwrap();
        }
        if st.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        Ok(self.enqueue(&mut st, spec))
    }

    fn enqueue(&self, st: &mut State, spec: JobSpec) -> Ticket {
        let job_id = st.next_job_id;
        st.next_job_id += 1;
        let (tx, rx) = channel();
        st.queue.push_back(Pending { job_id, spec, tx });
        st.queue_depth_hwm = st.queue_depth_hwm.max(st.queue.len());
        self.shared.jobs.notify_all();
        Ticket { job_id, rx }
    }

    /// Jobs currently queued (not yet popped into a batch).
    pub fn queued(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Stop accepting jobs, drain the queue, join the worker and report.
    ///
    /// A worker that died mid-run does **not** panic the shutdown: its
    /// last mirrored totals are reported with the panic message in
    /// [`ServerReport::worker_error`].
    pub fn shutdown(mut self) -> ServerReport {
        let mut report = self.begin_shutdown();
        let st = self.shared.state.lock().unwrap();
        report.rejected = st.rejected;
        report.queue_depth_hwm = st.queue_depth_hwm;
        report
    }

    /// Flag shutdown, wake everyone and join the worker. A join error
    /// (worker panic) is swallowed — `Drop` runs this too, and a panic
    /// while already unwinding aborts the process — and reported as the
    /// panic message in the last mirrored report.
    fn begin_shutdown(&mut self) -> ServerReport {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutting_down = true;
        }
        self.shared.jobs.notify_all();
        self.shared.space.notify_all();
        match self.worker.take() {
            Some(h) => match h.join() {
                Ok(report) => report,
                Err(payload) => {
                    let mut report = self.shared.totals.lock().unwrap().clone();
                    report.worker_error = Some(panic_message(payload.as_ref()));
                    report
                }
            },
            None => ServerReport::default(),
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.worker.is_some() {
            let _ = self.begin_shutdown();
        }
    }
}

/// The worker: pop → batch → execute → answer, until shutdown drains the
/// queue.
fn worker_loop(shared: &Shared, cfg: &ServeCfg) -> ServerReport {
    let mut cache = PlanCache::new(PLAN_CACHE_CAPACITY);
    let mut ws = TtmWorkspace::new();
    let mut report = ServerReport::default();
    let mut next_batch_id = 0u64;

    loop {
        // Pop a batch under the lock.
        let batch: Vec<Pending> = {
            let mut st = shared.state.lock().unwrap();
            loop {
                let parked = st.paused && !st.shutting_down;
                if !parked && !st.queue.is_empty() {
                    break;
                }
                if !parked && st.shutting_down {
                    report.cache = cache.stats();
                    return report;
                }
                st = shared.jobs.wait(st).unwrap();
            }
            let head = st.queue.pop_front().expect("checked non-empty");
            let key = BatchKey::of(&head.spec);
            let mut batch = vec![head];
            let mut i = 0;
            while i < st.queue.len() && batch.len() < BATCH_MAX {
                if BatchKey::of(&st.queue[i].spec) == key {
                    batch.push(st.queue.remove(i).expect("index in range"));
                } else {
                    i += 1;
                }
            }
            batch
        };
        shared.space.notify_all();

        let batch_id = next_batch_id;
        next_batch_id += 1;
        report.batches += 1;
        report.jobs += batch.len() as u64;
        if batch.len() > 1 {
            report.multi_job_batches += 1;
            report.batched_jobs += batch.len() as u64;
        }
        let info = BatchInfo {
            batch_id,
            batch_jobs: batch.len(),
            coalesced: false,
        };

        // Execute under catch_unwind so a panicking batch (a bug, or a
        // JobKind::Fault injection in the tests) can answer every in-flight
        // ticket with WorkerLost *before* the worker propagates — a ticket
        // never hangs.
        let txs: Vec<Sender<Result<JobResult, JobError>>> =
            batch.iter().map(|p| p.tx.clone()).collect();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match batch[0].spec.kind {
                JobKind::Compress => {
                    execute_compress_batch(batch, info, cfg, &mut cache, &mut ws, &mut report)
                }
                #[cfg(test)]
                JobKind::Fault => panic!("injected worker fault (batch of {})", batch.len()),
            }));
        report.workspace_bytes_hwm = report.workspace_bytes_hwm.max(ws.pooled_bytes());
        if let Err(payload) = outcome {
            report.worker_panics += 1;
            // Answer the fatal batch. Jobs answered before the panic have
            // their real result first in channel order; the extra error is
            // never read.
            for tx in txs {
                let _ = tx.send(Err(JobError::WorkerLost));
            }
            // Refuse future submissions, answer everything queued, then die.
            // Clients observe WorkerLost / ShuttingDown, never a hang.
            let drained: Vec<Pending> = {
                let mut st = shared.state.lock().unwrap();
                st.shutting_down = true;
                st.queue.drain(..).collect()
            };
            shared.jobs.notify_all();
            shared.space.notify_all();
            for p in drained {
                let _ = p.tx.send(Err(JobError::WorkerLost));
            }
            report.cache = cache.stats();
            shared.totals.lock().unwrap().clone_from(&report);
            std::panic::resume_unwind(payload);
        }
        // No allocation: `worker_error` stays `None` while serving, so the
        // mirror copies counters only.
        report.cache = cache.stats();
        shared.totals.lock().unwrap().clone_from(&report);
    }
}

fn execute_compress_batch(
    batch: Vec<Pending>,
    info: BatchInfo,
    cfg: &ServeCfg,
    cache: &mut PlanCache,
    ws: &mut TtmWorkspace,
    report: &mut ServerReport,
) {
    let meta = batch[0].spec.meta();
    // One plan lookup per job: all keys agree within a batch, so this is
    // 1 miss + (k−1) hits on a cold cache — the hit-rate signal the bench
    // asserts on.
    let plans: Vec<Plan> = batch
        .iter()
        .map(|p| cache.plan(&p.spec.meta(), p.spec.nranks, &FlopVolumeModel))
        .collect();
    let plan = &plans[0];
    report.requested_sweeps = (batch.iter()).fold(report.requested_sweeps, |total, p| {
        total.saturating_add(p.spec.sweeps as u64)
    });

    // Coalesce identical jobs: one executed item per distinct seed.
    let mut seeds: Vec<u64> = Vec::new();
    let mut item_of_job: Vec<usize> = Vec::with_capacity(batch.len());
    for p in &batch {
        let idx = match seeds.iter().position(|&s| s == p.spec.seed) {
            Some(i) => i,
            None => {
                seeds.push(p.spec.seed);
                seeds.len() - 1
            }
        };
        item_of_job.push(idx);
    }

    // Materialize every distinct tensor, then every HOSVD init, before the
    // first sweep: the inputs' heap placement sets the worker's resident set
    // (see `synthetic_root`), and building each input just before its own
    // sweeps raised the serving benchmark's peak RSS from 13.1 to 13.9 MiB
    // (medians, 2-core x86-64 host).
    let roots: Vec<DenseTensor> = seeds
        .iter()
        .map(|&seed| synthetic_root(meta.input().dims(), seed))
        .collect();
    let inits: Vec<(Vec<Matrix>, f64)> = roots
        .iter()
        .map(|t| (hosvd_init_factors(t, &meta), fro_norm_sq(t)))
        .collect();

    // Every item, in seed order, through one backend: each item's sweeps
    // reuse the pooled buffers the previous one recycled. Every executed
    // sweep is stamped with the plan.
    let sweeps = batch[0].spec.sweeps;
    let provenance = PlanProvenance {
        plan: plan.name(),
        predicted_comm: None,
    };
    let mut backend = SeqBackend::from_workspace(std::mem::take(ws));
    let outcomes: Vec<LoopOutcome<DenseTensor>> = roots
        .iter()
        .zip(inits)
        .map(|(t, (init, norm))| {
            let cfg = LoopCfg::exactly(sweeps);
            let mut o = hooi_loop(&mut backend, t, &meta, &plan.tree, init, norm, cfg);
            for s in &mut o.per_sweep {
                s.provenance = Some(provenance.clone());
            }
            o
        })
        .collect();
    report.executed_sweeps += outcomes
        .iter()
        .map(|o| o.per_sweep.len() as u64)
        .sum::<u64>();

    // Answer each job. A job is "coalesced" when it shares its executed
    // item with at least one other job in the batch; the counter charges
    // only the sharers beyond the first (jobs − distinct seeds).
    for (p, &item) in batch.iter().zip(&item_of_job) {
        let o = &outcomes[item];
        let decomposition = cfg
            .return_decompositions
            .then(|| TuckerDecomposition::new(o.core.clone(), o.factors.clone()));
        let coalesced = item_of_job.iter().filter(|&&i| i == item).count() > 1;
        let _ = p.tx.send(Ok(JobResult {
            job_id: p.job_id,
            plan: plan.name(),
            batch: BatchInfo { coalesced, ..info },
            output: JobOutput::Compressed {
                decomposition,
                errors: o.errors.clone(),
                per_sweep: o.per_sweep.clone(),
            },
        }));
    }
    report.coalesced_jobs += (batch.len() - seeds.len()) as u64;

    // Recycle the cores (results hold clones when requested) and reclaim
    // the workspace.
    for o in outcomes {
        backend.recycle(o.core);
    }
    *ws = backend.into_workspace();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::hooi_loop;
    use crate::plan::Planner;

    fn spec(dims: &[usize], core: &[usize], seed: u64) -> JobSpec {
        JobSpec {
            dims: dims.to_vec(),
            core: core.to_vec(),
            nranks: 4,
            sweeps: 2,
            seed,
            kind: JobKind::Compress,
        }
    }

    fn paused_cfg() -> ServeCfg {
        ServeCfg {
            start_paused: true,
            ..ServeCfg::default()
        }
    }

    #[test]
    fn synthetic_root_is_from_fn_in_a_size_classed_buffer() {
        for dims in [vec![5usize, 3, 4], vec![8, 8], vec![7]] {
            let t = synthetic_root(&dims, 11);
            let want = DenseTensor::from_fn(dims.clone(), |c| synthetic_fill(c, 11));
            assert_eq!(t.shape(), want.shape());
            assert_eq!(t.as_slice(), want.as_slice());
            let card = t.cardinality();
            assert!(t.into_vec().capacity() >= card.next_power_of_two());
        }
    }

    #[test]
    fn compress_matches_direct_execution_bitwise() {
        // One paused batch of three distinct seeds plus a duplicate of the
        // second: every answer must be bit-exact against its own isolated
        // `hooi_loop` on a fresh backend, whatever ran before it on the
        // server's shared one.
        let dims = [10usize, 8, 6];
        let core = [4usize, 4, 3];
        let seeds = [7u64, 8, 9, 8];
        let server = Server::start(paused_cfg());
        let tickets: Vec<Ticket> = seeds
            .iter()
            .map(|&s| server.submit(spec(&dims, &core, s)).unwrap())
            .collect();
        server.resume();
        let results: Vec<JobResult> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let report = server.shutdown();
        assert_eq!((report.jobs, report.batches), (4, 1));
        assert_eq!(report.coalesced_jobs, 1);
        assert_eq!(report.executed_sweeps, 6, "three items x two sweeps");

        for (result, &seed) in results.into_iter().zip(&seeds) {
            assert_matches_direct_run(result, &dims, &core, seed);
        }
    }

    /// Run `spec(dims, core, seed)` directly — same plan, same fill, same
    /// init, a fresh backend — and require the server's answer to match it
    /// bit for bit.
    fn assert_matches_direct_run(result: JobResult, dims: &[usize], core: &[usize], seed: u64) {
        let meta = TuckerMeta::new(dims.to_vec(), core.to_vec());
        let plan = Planner::new(meta.clone(), 4).best_plan();
        let t = DenseTensor::from_fn(meta.input().clone(), |c| synthetic_fill(c, seed));
        let init = hosvd_init_factors(&t, &meta);
        let direct = hooi_loop(
            &mut SeqBackend::new(),
            &t,
            &meta,
            &plan.tree,
            init,
            fro_norm_sq(&t),
            LoopCfg::exactly(2),
        );

        let JobOutput::Compressed {
            decomposition,
            errors,
            per_sweep,
        } = result.output;
        assert_eq!(result.plan, plan.name());
        assert_eq!(errors.len(), 2);
        for (a, b) in errors.iter().zip(&direct.errors) {
            assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}: not bit-exact");
        }
        for s in &per_sweep {
            let prov = s.provenance.as_ref().expect("every sweep stamped");
            assert_eq!(prov.plan, plan.name());
        }
        let d = decomposition.expect("requested the decomposition");
        assert_eq!(d.core.max_abs_diff(&direct.core), 0.0, "seed {seed}");
        for (f, g) in d.factors.iter().zip(&direct.factors) {
            assert_eq!(f, g, "seed {seed}: factors not bit-exact");
        }
    }

    #[test]
    fn batches_stop_at_the_batch_bound() {
        // One more same-key job than a batch holds: the first BATCH_MAX
        // share one batch, the last runs alone, and every answer is still
        // its isolated run's.
        let dims = [7usize, 6, 5];
        let core = [3usize, 3, 2];
        let seeds: Vec<u64> = (0..=BATCH_MAX as u64).collect();
        let server = Server::start(paused_cfg());
        let tickets: Vec<Ticket> = seeds
            .iter()
            .map(|&s| server.submit(spec(&dims, &core, s)).unwrap())
            .collect();
        server.resume();
        let results: Vec<JobResult> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let report = server.shutdown();
        assert_eq!(report.jobs, 9);
        assert_eq!(report.batches, 2);
        assert_eq!(report.multi_job_batches, 1);
        assert_eq!(report.batched_jobs, 8);
        assert_eq!(report.coalesced_jobs, 0);
        for (result, &seed) in results.into_iter().zip(&seeds) {
            let want_jobs = if seed < BATCH_MAX as u64 {
                BATCH_MAX
            } else {
                1
            };
            assert_eq!(result.batch.batch_jobs, want_jobs, "seed {seed}");
            assert_matches_direct_run(result, &dims, &core, seed);
        }
    }

    #[test]
    fn same_shape_jobs_batch_and_identical_jobs_coalesce() {
        let server = Server::start(paused_cfg());
        let dims = [8usize, 7, 6];
        let core = [4usize, 3, 3];
        // Four same-shape jobs, two distinct seeds: one batch, two executed
        // items, two coalesced jobs.
        let tickets: Vec<Ticket> = [11u64, 22, 11, 22]
            .iter()
            .map(|&s| server.submit(spec(&dims, &core, s)).unwrap())
            .collect();
        assert_eq!(server.queued(), 4);
        server.resume();
        let results: Vec<JobResult> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let report = server.shutdown();

        assert_eq!(report.jobs, 4);
        assert_eq!(report.batches, 1);
        assert_eq!(report.multi_job_batches, 1);
        assert_eq!(report.batched_jobs, 4);
        assert_eq!(report.coalesced_jobs, 2);
        assert_eq!(report.requested_sweeps, 8);
        assert_eq!(report.executed_sweeps, 4, "two items x two sweeps");
        assert_eq!(report.cache.misses, 1, "one key, one search");
        assert_eq!(report.cache.hits, 3);
        assert!(report.cache.hit_rate() > 0.7);
        assert_eq!(report.queue_depth_hwm, 4);
        assert!(report.workspace_bytes_hwm > 0);

        for r in &results {
            assert_eq!(r.batch.batch_jobs, 4);
            assert!(r.batch.coalesced, "every job shared its execution");
        }
        // Jobs 0 and 2 are identical: identical outputs.
        let errs = |r: &JobResult| {
            let JobOutput::Compressed { errors, .. } = &r.output;
            errors.clone()
        };
        assert_eq!(errs(&results[0]), errs(&results[2]));
        assert_eq!(errs(&results[1]), errs(&results[3]));
        assert_ne!(errs(&results[0]), errs(&results[1]));
    }

    #[test]
    fn distinct_shapes_split_batches() {
        let server = Server::start(paused_cfg());
        let t1 = server.submit(spec(&[8, 7, 6], &[4, 3, 3], 1)).unwrap();
        let t2 = server.submit(spec(&[9, 6, 5], &[3, 3, 2], 1)).unwrap();
        server.resume();
        let _ = t1.wait().unwrap();
        let _ = t2.wait().unwrap();
        let report = server.shutdown();
        assert_eq!(report.batches, 2);
        assert_eq!(report.multi_job_batches, 0);
        assert_eq!(report.cache.misses, 2);
    }

    #[test]
    fn queue_full_rejects_and_blocking_submit_waits() {
        let cfg = ServeCfg {
            queue_depth: 2,
            ..paused_cfg()
        };
        let server = Arc::new(Server::start(cfg));
        let s = spec(&[6, 5, 4], &[3, 2, 2], 1);
        let t1 = server.submit(s.clone()).unwrap();
        let t2 = server.submit(s.clone()).unwrap();
        assert!(matches!(
            server.submit(s.clone()),
            Err(SubmitError::QueueFull)
        ));
        // A blocking submit parks until the worker frees a slot.
        let srv = Arc::clone(&server);
        let s3 = s.clone();
        let blocked = std::thread::spawn(move || srv.submit_blocking(s3).unwrap().wait().unwrap());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!blocked.is_finished(), "must be parked on backpressure");
        server.resume();
        let _ = t1.wait().unwrap();
        let _ = t2.wait().unwrap();
        let r3 = blocked.join().unwrap();
        assert_eq!(r3.job_id, 2, "the parked job was admitted third");
        let report = Arc::into_inner(server).unwrap().shutdown();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.jobs, 3);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let server = Server::start(paused_cfg());
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| server.submit(spec(&[6, 5, 4], &[3, 2, 2], i)).unwrap())
            .collect();
        // Never resumed: shutdown itself must drain the queue.
        let report = server.shutdown();
        assert_eq!(report.jobs, 3);
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    #[test]
    fn submit_after_shutdown_refused() {
        let server = Server::start(ServeCfg::default());
        let shared = Arc::clone(&server.shared);
        let _ = server.shutdown();
        // The shared state outlives the server; a late client sees the flag.
        assert!(shared.state.lock().unwrap().shutting_down);
    }

    #[test]
    fn invalid_specs_rejected_at_submission() {
        let server = Server::start(ServeCfg::default());
        let bad_core = JobSpec {
            core: vec![9, 3, 3],
            ..spec(&[8, 7, 6], &[4, 3, 3], 1)
        };
        assert!(matches!(
            server.submit(bad_core),
            Err(SubmitError::Invalid(_))
        ));
        let bad_ranks = JobSpec {
            nranks: 1000,
            ..spec(&[8, 7, 6], &[4, 3, 3], 1)
        };
        assert!(matches!(
            server.submit(bad_ranks),
            Err(SubmitError::Invalid(_))
        ));
        let bad_sweeps = JobSpec {
            sweeps: 0,
            ..spec(&[8, 7, 6], &[4, 3, 3], 1)
        };
        assert!(matches!(
            server.submit(bad_sweeps),
            Err(SubmitError::Invalid(_))
        ));
        let _ = server.shutdown();
    }

    #[test]
    fn overflowing_input_size_is_invalid() {
        // 2^66 elements: the unchecked cardinality panics in a debug build
        // and wraps to an empty buffer in a release one, and either way the
        // batch would kill the fail-stop worker for every client.
        let huge = JobSpec {
            nranks: 1,
            ..spec(&[1 << 33, 1 << 33], &[1, 1], 1)
        };
        let err = huge.validate().unwrap_err();
        assert!(err.contains("too large"), "{err}");
        // The bound is the reserved capacity in bytes: 2^60 f64s overflow
        // isize, 2^59 (4 EiB, left to the allocator) do not.
        let bytes_overflow = JobSpec {
            nranks: 1,
            ..spec(&[1 << 30, 1 << 30], &[1, 1], 1)
        };
        assert!(bytes_overflow.validate().is_err());
        let fits = JobSpec {
            nranks: 1,
            ..spec(&[1 << 30, 1 << 29], &[1, 1], 1)
        };
        assert!(fits.validate().is_ok());
    }

    fn fault(dims: &[usize], core: &[usize]) -> JobSpec {
        JobSpec {
            kind: JobKind::Fault,
            ..spec(dims, core, 0)
        }
    }

    #[test]
    fn worker_death_answers_every_ticket_and_report_survives() {
        // A fatal batch: the fault job AND the job queued behind it both
        // resolve WorkerLost instead of hanging or panicking, and shutdown
        // reports the death instead of re-panicking out of join().
        let server = Server::start(paused_cfg());
        let dims = [6usize, 5, 4];
        let core = [3usize, 2, 2];
        let t_ok = server.submit(spec(&dims, &core, 1)).unwrap();
        let t_fault = server.submit(fault(&dims, &core)).unwrap();
        let t_queued = server.submit(spec(&[8, 7, 6], &[4, 3, 3], 2)).unwrap();
        server.resume();
        // The compress batch ahead of the fault still answers normally.
        assert!(t_ok.wait().is_ok());
        assert!(matches!(t_fault.wait(), Err(JobError::WorkerLost)));
        assert!(matches!(t_queued.wait(), Err(JobError::WorkerLost)));
        // The dying worker flagged shutdown: submissions now refused.
        assert!(matches!(
            server.submit(spec(&dims, &core, 9)),
            Err(SubmitError::ShuttingDown)
        ));
        let report = server.shutdown();
        assert_eq!(report.worker_panics, 1);
        let msg = report.worker_error.expect("death must be surfaced");
        assert!(msg.contains("injected worker fault"), "got: {msg}");
        // Mirrored totals survive the death: the clean batch is counted.
        assert_eq!(report.jobs, 2, "clean batch + fatal batch");
    }

    #[test]
    fn drop_after_worker_death_does_not_panic() {
        // The Drop path joins the dead worker too; swallowing the join
        // error here is what keeps a worker panic from aborting the
        // process when the server is dropped mid-unwind.
        let server = Server::start(ServeCfg::default());
        let t = server.submit(fault(&[6, 5, 4], &[3, 2, 2])).unwrap();
        assert!(matches!(t.wait(), Err(JobError::WorkerLost)));
        drop(server);
    }

    #[test]
    fn paused_shutdown_answers_or_rejects_every_job() {
        // Regression: a start_paused server shut down before resume() must
        // deterministically answer every queued job (the shutdown drain
        // un-parks the worker) and refuse anything submitted after — no
        // ticket may hang on the never-resumed pause.
        let server = Server::start(paused_cfg());
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| server.submit(spec(&[6, 5, 4], &[3, 2, 2], i)).unwrap())
            .collect();
        let shared = Arc::clone(&server.shared);
        let report = server.shutdown();
        assert_eq!(report.jobs, 4);
        assert!(report.worker_error.is_none());
        for t in tickets {
            assert!(t.wait().is_ok(), "paused shutdown must answer");
        }
        // A late client sees the flag (ShuttingDown), not a hang.
        assert!(shared.state.lock().unwrap().shutting_down);
    }

    #[test]
    fn synthetic_fill_is_deterministic_and_seed_sensitive() {
        let a = synthetic_fill(&[1, 2, 3], 9);
        assert_eq!(a, synthetic_fill(&[1, 2, 3], 9));
        assert_ne!(a, synthetic_fill(&[1, 2, 3], 10));
        assert_ne!(a, synthetic_fill(&[3, 2, 1], 9));
        assert!((-0.5..0.5).contains(&a));
    }
}
