//! The rank handle and point-to-point messaging layer.
//!
//! [`Universe::run`] plays the role of `mpirun`: it runs the same SPMD
//! closure on `P` simulated ranks, hands each a [`RankCtx`] (its "MPI
//! rank"), and collects the per-rank results in rank order. The ranks are
//! scheduled by the fiber mesh ([`Universe::run_mesh`] in [`crate::mesh`],
//! the one rank runtime); `run` is its fail-stop front. Ranks communicate
//! through per-destination mailboxes (one arrival-order FIFO of
//! `(source, message)` per rank), so sends never block, memory is
//! `O(P + queued messages)` rather than `O(P²)`, and deterministic SPMD
//! programs match sends to receives by (source, program order) exactly as
//! MPI does with a single tag.
//!
//! Every ledger is owned by the rank, so nothing a rank reports depends on
//! how the workers interleave its neighbours:
//! * [`RankCtx::volume`] counts every payload byte **this rank sent** to
//!   another rank, split by [`VolumeCategory`]; the universe total
//!   ([`crate::mesh::MeshOutput::volume`]) is the sum over ranks, collected
//!   as each rank exits (failed ranks included);
//! * [`RankCtx::comm`] is the rank's one communication clock, split by
//!   category. When a [`NetModel`] is attached it is the α–β virtual clock:
//!   every off-rank message charges `α + β·bytes` to both endpoints (see
//!   [`crate::net`]) and no host clock is read. Without one it accumulates
//!   the wall time spent inside communication calls (including waiting), the
//!   same accounting an MPI profiler would produce;
//! * [`RankCtx::cpu_clock`] is the rank's compute clock. Under a
//!   [`NetModel`] it is modelled: the TTM, Gram and EVD a rank runs charge
//!   their flop counts at the model's rate γ, and again no host clock is
//!   read. Without one it is the fiber's metered thread CPU time.
//!
//! A send touches the destination's mailbox and nothing else that ranks
//! share unless the destination is waiting on it (then it also takes the
//! scheduler lock to wake it), and a step every rank replicates on an
//! all-reduced input runs once per universe
//! ([`RankCtx::leading_from_gram`]).

use crate::mesh::{MeshCfg, MeshSched};
use crate::net::{evd_flops, NetModel};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};
use tucker_linalg::Matrix;

/// CPU time consumed by the calling thread.
///
/// Wall-clock phase timing is unreliable when simulated ranks oversubscribe
/// the host's cores (a rank's "elapsed" includes time spent descheduled
/// while other ranks compute). Thread CPU time is robust: blocked channel
/// receives park the thread and accrue nothing, so a delta across a compute
/// phase measures exactly the work this rank performed.
///
/// The `clock_gettime` result is checked: if the per-thread CPU clock is
/// unavailable (some sandboxes and exotic kernels), the function falls back
/// to a process-wide monotonic clock instead of returning garbage — phase
/// splits degrade gracefully rather than corrupting the stats.
///
/// Many ranks share one mesh worker thread, so the raw per-thread clock
/// would charge a rank for its neighbors' compute. When the caller is a mesh
/// fiber this returns the fiber's own CPU meter (accumulated across
/// suspensions) instead; a virtual-time universe does not run the meter, so
/// there it stands still.
pub(crate) fn thread_cpu_time() -> Duration {
    if let Some(d) = crate::mesh::current_fiber_cpu() {
        return d;
    }
    raw_thread_cpu_time()
}

/// The raw per-OS-thread CPU clock, ignoring fiber multiplexing. The mesh
/// scheduler uses this to meter fiber slices.
pub(crate) fn raw_thread_cpu_time() -> Duration {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: ts is a valid out-pointer; the clock id is a constant.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    } else {
        // Checked fallback: deltas stay monotone (an `Instant` anchored at
        // first use), so downstream `saturating_sub` phase math stays valid.
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed()
    }
}

/// What a transfer was for; used to split volume/time the way the paper's
/// plots do (TTM reduce-scatter vs. regridding vs. Gram/SVD support traffic).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VolumeCategory {
    /// Reduce-scatter inside a distributed TTM (paper: `(q_n − 1)|Out(u)|`).
    TtmReduceScatter,
    /// All-to-all regridding traffic (paper: `|In(u)|`).
    Regrid,
    /// Column-share exchange + all-reduce supporting the Gram/SVD step.
    Gram,
    /// Everything else (setup, gathers for verification, …).
    Other,
}

const CATEGORY_COUNT: usize = 4;

impl VolumeCategory {
    #[inline]
    fn idx(self) -> usize {
        match self {
            VolumeCategory::TtmReduceScatter => 0,
            VolumeCategory::Regrid => 1,
            VolumeCategory::Gram => 2,
            VolumeCategory::Other => 3,
        }
    }

    /// All categories in index order.
    pub fn all() -> [VolumeCategory; CATEGORY_COUNT] {
        [
            VolumeCategory::TtmReduceScatter,
            VolumeCategory::Regrid,
            VolumeCategory::Gram,
            VolumeCategory::Other,
        ]
    }
}

/// Payload bytes sent between distinct ranks, by category: one rank's own
/// counters ([`RankCtx::volume`]) or a sum of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VolumeReport {
    bytes: [u64; CATEGORY_COUNT],
}

impl VolumeReport {
    fn add(&mut self, cat: VolumeCategory, bytes: u64) {
        self.bytes[cat.idx()] += bytes;
    }

    /// Bytes transferred for one category.
    pub fn bytes(&self, cat: VolumeCategory) -> u64 {
        self.bytes[cat.idx()]
    }

    /// Total bytes across categories.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Elements (f64) transferred for one category.
    pub fn elements(&self, cat: VolumeCategory) -> u64 {
        self.bytes(cat) / 8
    }

    /// Total elements across categories.
    pub fn total_elements(&self) -> u64 {
        self.total_bytes() / 8
    }

    /// Difference of two snapshots (self − earlier).
    pub fn since(&self, earlier: &VolumeReport) -> VolumeReport {
        let mut bytes = [0u64; CATEGORY_COUNT];
        for (o, (a, b)) in bytes.iter_mut().zip(self.bytes.iter().zip(&earlier.bytes)) {
            *o = a - b;
        }
        VolumeReport { bytes }
    }
}

/// Category-wise sum, for totals over ranks or over several runs.
impl std::ops::Add for VolumeReport {
    type Output = VolumeReport;

    fn add(mut self, rhs: VolumeReport) -> VolumeReport {
        for (a, b) in self.bytes.iter_mut().zip(rhs.bytes) {
            *a += b;
        }
        self
    }
}

/// Per-rank time spent inside communication calls, by category: the
/// nanoseconds of [`RankCtx::comm`], modeled α–β time under a [`NetModel`],
/// measured wall time without one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommTimers {
    nanos: [u64; CATEGORY_COUNT],
}

impl CommTimers {
    fn add(&mut self, cat: VolumeCategory, ns: u64) {
        self.nanos[cat.idx()] += ns;
    }

    /// Time spent in one category.
    pub fn time(&self, cat: VolumeCategory) -> Duration {
        Duration::from_nanos(self.nanos[cat.idx()])
    }

    /// Total communication time.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    /// Difference of two snapshots (`self − earlier`), used to attribute
    /// communication time to an enclosing phase.
    pub fn since(&self, earlier: &CommTimers) -> CommTimers {
        let mut nanos = [0u64; CATEGORY_COUNT];
        for (o, (a, b)) in nanos.iter_mut().zip(self.nanos.iter().zip(&earlier.nanos)) {
            *o = a.saturating_sub(*b);
        }
        CommTimers { nanos }
    }
}

/// A message: an operation tag for sanity checking plus the payload.
#[derive(Debug)]
pub(crate) struct Msg {
    pub(crate) tag: u32,
    pub(crate) payload: Vec<f64>,
}

/// One rank's inbox: every message queued for it, in arrival order and
/// tagged with its source, plus the source its owner is waiting on, if any.
/// A receive takes the oldest entry from its source, so matching is by
/// (source, program order) while a universe costs `O(P + queued messages)`
/// memory and no per-pair queue is ever created.
///
/// The wait registration is what keeps the scheduler lock off the message
/// path: a send takes only this lock unless [`Mailbox::push`] finds the
/// owner registered on the sender, and a receive whose message is queued
/// takes only this lock too (see [`crate::mesh`], "Wake protocol").
#[derive(Default)]
pub(crate) struct Mailbox {
    inbox: Mutex<Inbox>,
}

#[derive(Default)]
struct Inbox {
    pending: VecDeque<(usize, Msg)>,
    /// The source the owner missed on and no push has reported since.
    waiting_on: Option<usize>,
}

impl Mailbox {
    /// Queue `msg` from `src`. Returns `true` iff the owner was registered
    /// as waiting on `src`; the registration is consumed, so exactly one
    /// push reports it.
    pub(crate) fn push(&self, src: usize, msg: Msg) -> bool {
        let mut inbox = lock_ignore_poison(&self.inbox);
        inbox.pending.push_back((src, msg));
        let awaited = inbox.waiting_on == Some(src);
        if awaited {
            inbox.waiting_on = None;
        }
        awaited
    }

    /// Take the oldest message from `src`, or register that the owner now
    /// waits on `src` and return `None`.
    pub(crate) fn pop_or_wait(&self, src: usize) -> Option<Msg> {
        let mut inbox = lock_ignore_poison(&self.inbox);
        match inbox.pending.iter().position(|&(s, _)| s == src) {
            Some(i) => inbox.pending.remove(i).map(|(_, m)| m),
            None => {
                inbox.waiting_on = Some(src);
                None
            }
        }
    }
}

/// Ignore mutex poisoning: a rank that panics while holding a lock must not
/// turn its peers' diagnostics into `PoisonError`s — the mesh's abort
/// message carries the failure instead.
pub(crate) fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// What the ranks of a universe add up to: each rank folds its own counters
/// in once, when its [`RankCtx`] drops.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RunTotals {
    pub(crate) volume: VolumeReport,
    pub(crate) evd_computed: u64,
    pub(crate) evd_reused: u64,
}

/// One replicated truncation, as the first rank to reach it computed it.
struct SharedEvd {
    gram: Matrix,
    k: usize,
    u: Matrix,
    /// CPU time the computing rank measured for it (zero under a
    /// [`NetModel`], which prices it instead).
    cpu: Duration,
}

/// Shared state of one universe.
pub(crate) struct Shared {
    mail: Vec<Mailbox>,
    pub(crate) totals: Mutex<RunTotals>,
    /// The universe's replicated truncations, indexed by each rank's call
    /// count (see [`RankCtx::leading_from_gram`]); first write wins.
    evds: Mutex<Vec<Arc<SharedEvd>>>,
    net: Option<NetModel>,
    /// The scheduler that owns all blocking (see [`crate::mesh`]).
    pub(crate) mesh: MeshSched,
}

impl Shared {
    pub(crate) fn new(nranks: usize, mesh: MeshSched, net: Option<NetModel>) -> Shared {
        Shared {
            mail: (0..nranks).map(|_| Mailbox::default()).collect(),
            totals: Mutex::default(),
            evds: Mutex::default(),
            net,
            mesh,
        }
    }
}

/// Handle to one simulated MPI rank. Created by [`Universe::run_mesh`]; all
/// communication goes through methods on this type.
pub struct RankCtx {
    rank: usize,
    nranks: usize,
    shared: Arc<Shared>,
    /// This rank's communication clock: α–β time under the universe's
    /// [`NetModel`], measured wall time without one.
    pub comm: CommTimers,
    /// This rank's modelled compute clock under a [`NetModel`]: the
    /// nanoseconds of every flop charged so far (see [`RankCtx::cpu_clock`]).
    compute_ns: u64,
    /// Payload bytes this rank sent to other ranks.
    sent: VolumeReport,
    /// Calls to [`RankCtx::leading_from_gram`] so far, split by outcome.
    evd_computed: u64,
    evd_reused: u64,
}

impl Drop for RankCtx {
    /// The rank's exit — return, panic or abort alike: fold its counters
    /// into the universe's totals.
    fn drop(&mut self) {
        let mut t = lock_ignore_poison(&self.shared.totals);
        t.volume = t.volume + self.sent;
        t.evd_computed += self.evd_computed;
        t.evd_reused += self.evd_reused;
    }
}

impl RankCtx {
    pub(crate) fn new(rank: usize, nranks: usize, shared: Arc<Shared>) -> RankCtx {
        RankCtx {
            rank,
            nranks,
            shared,
            comm: CommTimers::default(),
            compute_ns: 0,
            sent: VolumeReport::default(),
            evd_computed: 0,
            evd_reused: 0,
        }
    }

    /// This rank's id in `0..nranks`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    #[inline]
    pub(crate) fn nranks(&self) -> usize {
        self.nranks
    }

    /// The attached network model, if the universe runs in virtual time.
    pub fn net(&self) -> Option<&NetModel> {
        self.shared.net.as_ref()
    }

    /// Payload bytes **this rank** has sent to other ranks so far. A delta
    /// of two snapshots is the rank's own traffic in between, whatever its
    /// neighbours did meanwhile; the universe total is the sum over ranks
    /// ([`crate::mesh::MeshOutput::volume`]).
    pub fn volume(&self) -> VolumeReport {
        self.sent
    }

    /// The rank's compute clock, which phase timers bracket: under a
    /// [`NetModel`] the modelled nanoseconds of the flops its TTMs, Grams
    /// and EVDs charged (γ per flop, [`crate::net`]); without one the
    /// fiber's metered CPU time.
    pub fn cpu_clock(&self) -> Duration {
        match self.shared.net {
            Some(_) => Duration::from_nanos(self.compute_ns),
            None => thread_cpu_time(),
        }
    }

    /// Charge `flops` of this rank's work to its modelled compute clock (a
    /// no-op on the measured clock, where the fiber meter sees the work).
    pub(crate) fn compute(&mut self, flops: u64) {
        if let Some(net) = &self.shared.net {
            self.compute_ns += net.compute_ns(flops);
        }
    }

    /// `leading_from_gram(gram, k).u`, computed once per universe.
    ///
    /// After a world all-reduce every rank holds the same Gram and would run
    /// the same deterministic EVD (the paper's replicated sequential step,
    /// §5). The universe keeps the first result per call index — ranks run
    /// one SPMD program, so the `i`-th call is the same leaf on every rank —
    /// and a later rank whose Gram compares bit-equal takes a copy. A rank
    /// whose Gram differs computes its own; nobody ever waits for another
    /// rank (workers that reach a leaf together each compute it).
    ///
    /// Either way every rank is charged the EVD, so every phase timer that
    /// brackets the call reads what it would have read: under a
    /// [`NetModel`] its price [`evd_flops`] on [`RankCtx::cpu_clock`]; on the
    /// measured clock the **computing rank's measured CPU time**, credited
    /// to a reusing rank's fiber meter.
    pub fn leading_from_gram(&mut self, gram: &Matrix, k: usize) -> Matrix {
        self.compute(evd_flops(gram.nrows()));
        let metered = self.shared.net.is_none();
        let call = (self.evd_computed + self.evd_reused) as usize;
        let known = lock_ignore_poison(&self.shared.evds).get(call).cloned();
        if let Some(e) = known.filter(|e| e.k == k && same_bits(&e.gram, gram)) {
            self.evd_reused += 1;
            if metered {
                crate::mesh::credit_fiber_cpu(e.cpu);
            }
            return e.u.clone();
        }
        let t0 = metered.then(thread_cpu_time);
        let u = tucker_linalg::leading_from_gram(gram, k).u;
        let cpu = t0.map_or(Duration::ZERO, |t0| thread_cpu_time().saturating_sub(t0));
        self.evd_computed += 1;
        let mut evds = lock_ignore_poison(&self.shared.evds);
        // Ranks reach call `i` only after call `i − 1`, so the table grows
        // by exactly one entry at a time.
        if evds.len() == call {
            evds.push(Arc::new(SharedEvd {
                gram: gram.clone(),
                k,
                u: u.clone(),
                cpu,
            }));
        }
        u
    }

    /// Start timing a communication call: a wall anchor on the measured
    /// clock, nothing under a [`NetModel`] (the α–β clock reads no host
    /// time).
    fn start(&self) -> Option<Instant> {
        self.shared.net.is_none().then(Instant::now)
    }

    /// Charge one communication call to [`RankCtx::comm`]: `priced`'s α–β
    /// nanoseconds under a [`NetModel`], else the wall time since `t0`.
    fn charge(
        &mut self,
        cat: VolumeCategory,
        t0: Option<Instant>,
        priced: impl FnOnce(&NetModel) -> u64,
    ) {
        let ns = match &self.shared.net {
            Some(net) => priced(net),
            None => t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64),
        };
        self.comm.add(cat, ns);
    }

    /// Block until every rank reaches the barrier.
    pub fn barrier(&mut self) {
        let t0 = self.start();
        self.shared.mesh.precheck();
        self.shared.mesh.barrier(self.rank);
        let p = self.nranks;
        self.charge(VolumeCategory::Other, t0, |net| net.barrier_ns(p));
    }

    /// Send `payload` to `dst`. Never blocks (queues are unbounded).
    /// Self-sends are delivered but cost neither volume nor modeled time.
    pub fn send(&mut self, dst: usize, tag: u32, payload: Vec<f64>, cat: VolumeCategory) {
        debug_assert!(dst < self.nranks, "bad destination {dst}");
        let me = self.rank;
        self.shared.mesh.precheck();
        let bytes = (payload.len() * 8) as u64;
        if dst != me {
            self.sent.add(cat, bytes);
        }
        let t0 = self.start();
        if self.shared.mail[dst].push(me, Msg { tag, payload }) {
            self.shared.mesh.wake_receiver(dst, me);
        }
        self.charge(cat, t0, |net| {
            if dst == me {
                0
            } else {
                net.msg_ns_between(me, dst, bytes)
            }
        });
    }

    /// Receive the next message from `src`, asserting the expected tag.
    ///
    /// # Panics
    /// Panics if the sender returned without sending (the
    /// [`RankFault::SenderFinished`](crate::RankFault::SenderFinished) of a
    /// mismatched SPMD program), if the epoch aborted (a failed sender
    /// aborts it), or if the tag does not match.
    pub fn recv(&mut self, src: usize, tag: u32, cat: VolumeCategory) -> Vec<f64> {
        debug_assert!(src < self.nranks, "bad source {src}");
        let me = self.rank;
        let t0 = self.start();
        let mesh = &self.shared.mesh;
        mesh.precheck();
        let mail = &self.shared.mail[me];
        let msg = mesh.recv_wait(me, src, || mail.pop_or_wait(src));
        let bytes = (msg.payload.len() * 8) as u64;
        self.charge(cat, t0, |net| {
            if src == me {
                0
            } else {
                net.msg_ns_between(src, me, bytes)
            }
        });
        assert_eq!(
            msg.tag, tag,
            "rank {}: tag mismatch receiving from {src} (got {}, want {tag})",
            self.rank, msg.tag
        );
        msg.payload
    }
}

/// Bit-for-bit equality (a `NaN` equals itself, `0.0` differs from `-0.0`).
fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Factory for SPMD runs.
pub struct Universe;

/// Everything a fail-stop run produces: per-rank results (in rank order)
/// plus the volume ledger snapshot.
pub struct RunOutput<R> {
    /// Closure results, indexed by rank.
    pub results: Vec<R>,
    /// Bytes moved between distinct ranks during the run.
    pub volume: VolumeReport,
}

impl Universe {
    /// Run `f` on `nranks` simulated ranks (measured clock, no network
    /// model) and wait for all of them: the fail-stop front of
    /// [`Universe::run_mesh`] under the default [`MeshCfg`].
    ///
    /// The closure is the SPMD program: it receives this rank's [`RankCtx`]
    /// and may communicate with peers through it. Every rank body runs on a
    /// guard-paged fiber stack of [`crate::mesh::MESH_STACK_BYTES`] — keep
    /// bulk data on the heap; an overflow faults on the guard page. A panic
    /// on any rank aborts the epoch and is re-raised here with the root
    /// rank's original payload.
    ///
    /// # Panics
    /// Panics if `nranks == 0` or if any rank panics.
    pub fn run<R, F>(nranks: usize, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        Self::run_mesh(nranks, &MeshCfg::default(), f).into_results()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let out = Universe::run(1, |ctx| ctx.rank() * 10);
        assert_eq!(out.results, vec![0]);
        assert_eq!(out.volume.total_bytes(), 0);
    }

    #[test]
    fn results_in_rank_order() {
        let out = Universe::run(8, |ctx| ctx.rank());
        assert_eq!(out.results, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn ring_send_recv() {
        let p = 5;
        let out = Universe::run(p, |ctx| {
            let next = (ctx.rank() + 1) % p;
            let prev = (ctx.rank() + p - 1) % p;
            ctx.send(next, 7, vec![ctx.rank() as f64], VolumeCategory::Other);
            let got = ctx.recv(prev, 7, VolumeCategory::Other);
            got[0] as usize
        });
        for (r, &got) in out.results.iter().enumerate() {
            assert_eq!(got, (r + p - 1) % p);
        }
        // p messages of 1 f64 each, none self-sends.
        assert_eq!(out.volume.total_bytes(), (p * 8) as u64);
    }

    #[test]
    fn self_send_costs_nothing() {
        let out = Universe::run(2, |ctx| {
            let me = ctx.rank();
            ctx.send(me, 1, vec![1.0, 2.0], VolumeCategory::Other);
            ctx.recv(me, 1, VolumeCategory::Other)
        });
        assert_eq!(out.results[0], vec![1.0, 2.0]);
        assert_eq!(out.volume.total_bytes(), 0);
    }

    #[test]
    fn volume_categories_are_separate() {
        let out = Universe::run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![0.0; 4], VolumeCategory::Regrid);
                ctx.send(1, 2, vec![0.0; 2], VolumeCategory::TtmReduceScatter);
            } else {
                ctx.recv(0, 1, VolumeCategory::Regrid);
                ctx.recv(0, 2, VolumeCategory::TtmReduceScatter);
            }
        });
        assert_eq!(out.volume.bytes(VolumeCategory::Regrid), 32);
        assert_eq!(out.volume.bytes(VolumeCategory::TtmReduceScatter), 16);
        assert_eq!(out.volume.bytes(VolumeCategory::Gram), 0);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        Universe::run(4, |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // After the barrier every increment must be visible.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn fifo_order_per_pair() {
        let out = Universe::run(2, |ctx| {
            if ctx.rank() == 0 {
                for i in 0..10 {
                    ctx.send(1, i, vec![i as f64], VolumeCategory::Other);
                }
                vec![]
            } else {
                (0..10)
                    .map(|i| ctx.recv(0, i, VolumeCategory::Other)[0])
                    .collect::<Vec<f64>>()
            }
        });
        assert_eq!(
            out.results[1],
            (0..10).map(|i| i as f64).collect::<Vec<_>>()
        );
    }

    impl Mailbox {
        fn is_empty(&self) -> bool {
            let inbox = lock_ignore_poison(&self.inbox);
            inbox.pending.is_empty() && inbox.waiting_on.is_none()
        }
    }

    #[test]
    fn fifo_per_pair_survives_interleaved_sources() {
        // The mailbox itself: three sources pushed out of rank order and
        // interleaved into the one FIFO; each source pops in its own push
        // order, and no push reports a wait nobody registered.
        let mb = Mailbox::default();
        let msg = |tag: u32, src: usize| Msg {
            tag,
            payload: vec![src as f64],
        };
        for i in 0..4u32 {
            for src in [5usize, 1, 3] {
                assert!(!mb.push(src, msg(i, src)));
            }
        }
        for i in 0..4u32 {
            for src in [3usize, 5, 1] {
                let m = mb.pop_or_wait(src).expect("queued");
                assert_eq!((m.tag, m.payload[0]), (i, src as f64));
            }
        }
        assert!(mb.is_empty());

        // A miss registers the wait; only a push from the awaited source
        // reports it, exactly once, and the registration is then gone.
        assert!(mb.pop_or_wait(2).is_none());
        assert!(!mb.is_empty(), "a miss registers the wait");
        assert!(!mb.push(4, msg(0, 4)), "another source's push");
        assert!(mb.push(2, msg(1, 2)), "the awaited source's push");
        assert!(!mb.push(2, msg(2, 2)), "reported once");
        assert_eq!(mb.pop_or_wait(2).map(|m| m.tag), Some(1));
        assert_eq!(mb.pop_or_wait(2).map(|m| m.tag), Some(2));
        assert_eq!(mb.pop_or_wait(4).map(|m| m.tag), Some(0));
        assert!(mb.is_empty());

        // And through the ranks: 1, 2 and 3 each stream numbered messages at
        // rank 0, which drains them round-robin; afterwards no mailbox holds
        // a message or a registration.
        for workers in [1, 2, 4] {
            let cfg = MeshCfg {
                workers,
                ..MeshCfg::default()
            };
            let out = Universe::run_mesh(4, &cfg, |ctx| {
                let shared = Arc::clone(&ctx.shared);
                if ctx.rank() > 0 {
                    for i in 0..10 {
                        let v = (ctx.rank() * 100 + i) as f64;
                        ctx.send(0, i as u32, vec![v], VolumeCategory::Other);
                    }
                    return (true, shared);
                }
                let ok = (0..10).all(|i| {
                    (1..4).all(|src| {
                        ctx.recv(src, i as u32, VolumeCategory::Other)[0] == (src * 100 + i) as f64
                    })
                });
                (ok, shared)
            })
            .into_results();
            assert!(out.results.iter().all(|(ok, _)| *ok));
            assert!(out.results[0].1.mail.iter().all(Mailbox::is_empty));
        }
    }

    #[test]
    fn volume_is_counted_by_the_sender_and_summed_at_exit() {
        // Rank 0 sends 3 elements, rank 1 sends 5 back, rank 2 only listens:
        // each rank reads its own bytes, whatever the others did meanwhile.
        let out = Universe::run(3, |ctx| {
            match ctx.rank() {
                0 => {
                    ctx.send(1, 1, vec![0.0; 3], VolumeCategory::Gram);
                    ctx.recv(1, 2, VolumeCategory::Gram);
                }
                1 => {
                    ctx.recv(0, 1, VolumeCategory::Gram);
                    ctx.send(0, 2, vec![0.0; 5], VolumeCategory::Gram);
                }
                _ => {}
            }
            ctx.barrier();
            ctx.volume().bytes(VolumeCategory::Gram)
        });
        assert_eq!(out.results, vec![24, 40, 0]);
        assert_eq!(out.volume.bytes(VolumeCategory::Gram), 64);
    }

    #[test]
    fn report_since_subtracts() {
        let a = VolumeReport {
            bytes: [10, 20, 30, 40],
        };
        let b = VolumeReport {
            bytes: [15, 20, 31, 40],
        };
        let d = b.since(&a);
        assert_eq!(d.bytes(VolumeCategory::TtmReduceScatter), 5);
        assert_eq!(d.bytes(VolumeCategory::Gram), 1);
        assert_eq!(d.total_bytes(), 6);
    }

    // --------------------------------------------------------- virtual time

    #[test]
    fn virtual_clock_charges_both_endpoints() {
        let net = NetModel::new(Duration::from_nanos(100), 1.0e9, 1.0e9); // 1 ns/byte
        let out = Universe::run_mesh(2, &MeshCfg::virtual_time(net), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![0.0; 4], VolumeCategory::Regrid);
            } else {
                ctx.recv(0, 1, VolumeCategory::Regrid);
            }
            ctx.comm.clone()
        })
        .into_results();
        let expect = net.msg_ns_between(0, 1, 32);
        assert_eq!(
            out.results[0].time(VolumeCategory::Regrid).as_nanos() as u64,
            expect
        );
        assert_eq!(
            out.results[1].time(VolumeCategory::Regrid).as_nanos() as u64,
            expect
        );
        assert_eq!(out.results[0].time(VolumeCategory::Gram), Duration::ZERO);
    }

    #[test]
    fn virtual_clock_ignores_self_sends() {
        let out = Universe::run_mesh(1, &MeshCfg::virtual_time(NetModel::bgq()), |ctx| {
            ctx.send(0, 1, vec![1.0; 64], VolumeCategory::Other);
            let _ = ctx.recv(0, 1, VolumeCategory::Other);
            ctx.comm.total()
        })
        .into_results();
        assert_eq!(out.results[0], Duration::ZERO);
    }
}
