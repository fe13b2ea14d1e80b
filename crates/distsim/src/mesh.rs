//! The rank runtime: ranks as resumable fibers multiplexed over a small
//! worker pool, with per-rank failure quarantine.
//!
//! [`Universe::run_mesh`] is the one function that schedules simulated
//! ranks ([`Universe::run`] is its fail-stop front). Every rank becomes a
//! *stackful fiber* — a guard-paged, lazily-committed heap stack plus a
//! saved register context — and `min(host_cores, cap)` worker threads
//! resume runnable fibers until they block (receive on an empty queue,
//! barrier) or finish. A `P = 8192` universe therefore costs 8192 mailboxes
//! and 8192 mostly-untouched stacks, **not** 8192 OS threads.
//!
//! Each actor is pinned to one worker: worker `w` of `W` owns the
//! contiguous block of ranks `r` with `r·W/P = w` (block sizes differ by at
//! most one), so tree partners and mode-group peers, which are neighbouring
//! ranks, mostly share a worker. Pinning keeps the fiber's thread-local
//! state (panic bookkeeping, any TLS the guest code touches,
//! compiler-cached TLS base registers) valid across suspensions: a fiber
//! only ever runs on one OS thread. Peers on other workers wake it by
//! pushing it onto its owner's run queue, never by resuming it directly.
//! `workers: 1` is the deterministic mode (one rank at a time, fixed
//! round-robin order); `workers: nranks` gives every rank an OS thread of
//! its own, so per-thread counters read inside a rank body are per-rank.
//! The communication clock ([`RankCtx::comm`]), the compute clock
//! ([`RankCtx::cpu_clock`]) and the volume counters are owned by the rank,
//! so under a [`NetModel`] they do not depend on the pool size.
//!
//! On the measured clock each fiber meters its own CPU time: a resume
//! anchors the worker's thread CPU clock and a suspend adds the slice. Under
//! a [`NetModel`] the meter does not run — compute is priced per flop on
//! the rank's compute clock — so a fiber switch reads no host clock.
//!
//! # Wake protocol
//!
//! A message takes one lock, its destination's mailbox, unless its
//! receiver is waiting on it. A receive that misses registers "waiting on
//! `src`" inside its own mailbox lock; a send pushes under that lock and
//! takes the scheduler lock (`MeshState`) only when the push finds its
//! receiver registered on it. The receiver, after its miss, takes the
//! scheduler lock to block — unless that push already came, which the
//! push records in the receiver's `woken` flag when it finds the receiver
//! not yet blocked; the receiver reads the flag under the scheduler lock
//! and retries instead of suspending, so no wake-up is lost. No path holds
//! a mailbox lock and the scheduler lock at once. The scheduler lock is
//! left with blocking, waking, barriers, failure and deadlock detection,
//! and a worker's condvar is signalled only while the worker is parked.
//!
//! # Failure semantics
//!
//! A rank panic does **not** poison the universe. The mesh *quarantines*
//! the failed rank — records its [`RankFault`], keeps its mailbox — then
//! aborts the epoch: every surviving rank is woken into a
//! [`RankFault::Aborted`] panic at its next communication call, each caught
//! at the fiber boundary, so all stacks unwind cleanly and
//! [`Universe::run_mesh`] returns a per-rank [`RankOutcome`] table instead
//! of propagating. A fault the mesh raises itself (an abort, a receive from
//! a finished sender, a deadlock) travels as its typed panic payload, so the
//! table says *why* each rank failed without reading panic text; any other
//! panic is the rank's own ([`RankFault::Panicked`]). The engine's recovery
//! loop (`tucker-core`) matches on the variants to re-plan on the surviving
//! ranks and resume from its last checkpoint. Callers that want the old
//! fail-stop behavior call [`MeshOutput::into_results`], which re-raises
//! the root panic payload. A failure is injected the way it happens: a rank
//! body panics (the engine's scripted `InjectedFault` panics at a chosen
//! leaf of a sweep).

use crate::comm::{lock_ignore_poison as lock, RankCtx, RunOutput, Shared, Universe, VolumeReport};
use crate::net::NetModel;
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once};
use std::time::Duration;

/// Process-wide count of fiber context switches (diagnostic: user-space
/// register swaps — no futex, no kernel).
static MESH_SWITCHES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide fiber-switch counter.
pub fn mesh_switches() -> u64 {
    MESH_SWITCHES.load(Ordering::Relaxed)
}

/// Upper bound on the auto-sized worker pool: beyond a handful of workers
/// the mesh is mailbox-bound, not CPU-bound, and determinism debugging gets
/// harder; `min(host_cores, MESH_WORKER_CAP)` is the `min(host_cores, K)`
/// of the design.
pub const MESH_WORKER_CAP: usize = 8;

/// Usable fiber stack, the budget every rank body runs on: the engine's
/// rank bodies keep bulk data on the heap, so a small
/// stack keeps a P = 8192 universe cheap. The page below it is a guard page
/// — an overflow faults there, it never corrupts a neighbouring stack.
pub const MESH_STACK_BYTES: usize = 192 * 1024;

/// Number of OS threads the current process has, from `/proc/self/status`
/// (`None` off Linux). The acceptance tests use this to assert that a
/// `P = 8192` mesh run really multiplexes instead of spawning `P` threads.
pub fn process_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

fn payload_msg(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "rank panicked (non-string payload)".to_string()
    }
}

// ------------------------------------------------------------------- fibers
//
// A fiber is a heap stack plus a saved context. The context switch is a
// ~20-instruction user-space register swap (`fib::switch`) written in x86_64
// assembly, the one target this runtime is built and tested on.

#[cfg(not(target_arch = "x86_64"))]
compile_error!(
    "the mesh rank runtime switches fibers with x86_64 assembly (`fib::switch`); \
     no other target has a fiber switch, and none is built or tested"
);

mod fib {
    use std::any::Any;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    pub type Outcome = Result<(), Box<dyn Any + Send>>;

    /// Switch stacks: save the callee-saved register frame and stack pointer
    /// of the caller into `*save`, then restore the frame saved in
    /// `*restore` and return on that stack. SysV x86_64: rbp/rbx/r12–r15
    /// plus the MXCSR and x87 control words are callee-saved.
    #[unsafe(naked)]
    unsafe extern "C" fn switch(save: *mut usize, restore: *const usize) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "sub rsp, 8",
            "stmxcsr dword ptr [rsp]",
            "fnstcw word ptr [rsp + 4]",
            "mov qword ptr [rdi], rsp",
            "mov rsp, qword ptr [rsi]",
            "ldmxcsr dword ptr [rsp]",
            "fldcw word ptr [rsp + 4]",
            "add rsp, 8",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// Bytes saved below the crafted return address: 6 GP registers plus the
    /// 8-byte MXCSR/x87 control slot.
    const FRAME_BYTES: usize = 6 * 8 + 8;
    const MXCSR_DEFAULT: u32 = 0x1F80;
    const FPUCW_DEFAULT: u16 = 0x037F;
    const PAGE: usize = 4096;

    /// Guard-paged anonymous mapping used as a fiber stack; falls back to a
    /// plain heap allocation (no guard) if `mmap` is unavailable.
    enum StackMem {
        Mmap { base: *mut u8, len: usize },
        Heap(Box<[u8]>),
    }

    pub struct Stack {
        mem: StackMem,
    }

    impl Stack {
        pub fn new(usable: usize) -> Stack {
            let usable = usable.max(4 * PAGE).next_multiple_of(PAGE);
            let len = usable + PAGE;
            // SAFETY: anonymous private mapping, no fd; checked against
            // MAP_FAILED before use.
            let base = unsafe {
                libc::mmap(
                    std::ptr::null_mut(),
                    len,
                    libc::PROT_READ | libc::PROT_WRITE,
                    libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if base != libc::MAP_FAILED {
                // SAFETY: base is page-aligned and owned by this mapping;
                // revoking access to the lowest page turns stack overflow
                // into a deterministic fault instead of silent heap
                // corruption.
                unsafe { libc::mprotect(base, PAGE, libc::PROT_NONE) };
                Stack {
                    mem: StackMem::Mmap {
                        base: base.cast(),
                        len,
                    },
                }
            } else {
                Stack {
                    mem: StackMem::Heap(vec![0u8; len].into_boxed_slice()),
                }
            }
        }

        fn top(&mut self) -> *mut u8 {
            // SAFETY (both arms): one-past-the-end of the allocation this
            // `Stack` owns — in bounds for `add`, never dereferenced here.
            match &mut self.mem {
                StackMem::Mmap { base, len } => unsafe { base.add(*len) },
                StackMem::Heap(b) => {
                    let len = b.len();
                    unsafe { b.as_mut_ptr().add(len) }
                }
            }
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            if let StackMem::Mmap { base, len } = self.mem {
                // SAFETY: exactly the mapping created in `new`.
                unsafe { libc::munmap(base.cast(), len) };
            }
        }
    }

    // SAFETY: the raw pointers are uniquely owned by the Stack.
    unsafe impl Send for Stack {}

    pub struct Fiber {
        #[allow(dead_code)]
        stack: Stack,
        /// Saved stack pointer while suspended; valid whenever the fiber is
        /// not running.
        sp: usize,
        entry: Option<Box<dyn FnOnce() + Send + 'static>>,
        outcome: Option<Outcome>,
        /// Per-fiber CPU meter: accumulated across suspensions …
        cpu_acc_ns: u64,
        /// … anchored at the worker's raw CPU clock on each resume.
        resume_cpu0_ns: u64,
        /// Whether the meter runs: only on the measured clock. Under a
        /// `NetModel` compute is priced, so a switch reads no clock.
        metered: bool,
    }

    thread_local! {
        /// Fiber currently executing on this worker thread (null outside).
        static CURRENT: Cell<*mut Fiber> = const { Cell::new(std::ptr::null_mut()) };
        /// Where the active `resume` call saved the worker's own context.
        static WORKER_SP: Cell<*mut usize> = const { Cell::new(std::ptr::null_mut()) };
    }

    fn raw_cpu_ns() -> u64 {
        crate::comm::raw_thread_cpu_time().as_nanos() as u64
    }

    /// The bottom-most frame of every fiber: runs the entry closure under
    /// `catch_unwind` so no unwind ever crosses the assembly boundary, then
    /// parks the dead fiber forever (the scheduler never resumes a finished
    /// fiber).
    extern "C" fn trampoline() -> ! {
        let f = CURRENT.with(Cell::get);
        debug_assert!(!f.is_null(), "fiber trampoline outside resume");
        // SAFETY: `resume` set CURRENT to the fiber it is switching into,
        // and the owning worker is the only thread touching it.
        unsafe {
            let entry = (*f).entry.take().expect("fiber entered twice");
            let res = catch_unwind(AssertUnwindSafe(entry));
            (*f).outcome = Some(res.map(|_| ()));
        }
        loop {
            suspend();
        }
    }

    impl Fiber {
        pub fn new(
            stack_bytes: usize,
            entry: Box<dyn FnOnce() + Send + 'static>,
            metered: bool,
        ) -> Fiber {
            let mut stack = Stack::new(stack_bytes);
            // Craft an initial frame so the first `switch` "returns" into
            // the trampoline: a 16-aligned top, the trampoline address where
            // the return address would be (leaving rsp ≡ 8 mod 16 at entry,
            // as the SysV call convention requires), zeroed registers and
            // default MXCSR/x87 control words below it.
            let top = (stack.top() as usize) & !15;
            let sp = top - 16 - FRAME_BYTES;
            // SAFETY: `Stack::new` maps at least four usable pages, so the
            // 72 bytes below the aligned top lie inside the writable part of
            // the stack this fiber owns; nothing else references it yet.
            unsafe {
                std::ptr::write(sp as *mut u32, MXCSR_DEFAULT);
                std::ptr::write((sp + 4) as *mut u16, FPUCW_DEFAULT);
                for i in 0..6 {
                    std::ptr::write((sp + 8 + i * 8) as *mut u64, 0);
                }
                std::ptr::write((top - 16) as *mut usize, trampoline as *const () as usize);
            }
            Fiber {
                stack,
                sp,
                entry: Some(entry),
                outcome: None,
                cpu_acc_ns: 0,
                resume_cpu0_ns: 0,
                metered,
            }
        }

        /// Run the fiber until it suspends or finishes; `true` iff finished.
        /// Must only be called from the fiber's owning worker thread.
        pub fn resume(&mut self) -> bool {
            super::MESH_SWITCHES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let mut worker_sp: usize = 0;
            CURRENT.with(|c| c.set(self as *mut Fiber));
            WORKER_SP.with(|c| c.set(&mut worker_sp));
            if self.metered {
                self.resume_cpu0_ns = raw_cpu_ns();
            }
            // SAFETY: `self.sp` holds a context previously saved by
            // `switch` (or the crafted initial frame); the worker context is
            // saved into this frame's local, which stays alive until the
            // switch back.
            unsafe { switch(&mut worker_sp, &self.sp) };
            CURRENT.with(|c| c.set(std::ptr::null_mut()));
            self.outcome.is_some()
        }

        pub fn take_outcome(&mut self) -> Outcome {
            self.outcome.take().expect("fiber not finished")
        }
    }

    /// Suspend the current fiber and return control to its worker's
    /// scheduler loop. Returns when the scheduler resumes the fiber.
    pub fn suspend() {
        let f = CURRENT.with(Cell::get);
        assert!(!f.is_null(), "mesh suspend outside a fiber");
        let wsp = WORKER_SP.with(Cell::get);
        // SAFETY: f/wsp were installed by the active `resume` frame on this
        // worker; saving into the fiber's sp slot and restoring the worker
        // context unwinds the control transfer that `resume` began.
        unsafe {
            if (*f).metered {
                (*f).cpu_acc_ns += raw_cpu_ns().saturating_sub((*f).resume_cpu0_ns);
            }
            switch(&mut (*f).sp, wsp);
        }
    }

    /// CPU time consumed by the current fiber across all its scheduled
    /// slices, or `None` when the caller is not a fiber. Lets
    /// `comm::thread_cpu_time` stay meaningful for multiplexed ranks. An
    /// unmetered fiber's meter stands still.
    pub fn current_cpu() -> Option<std::time::Duration> {
        let f = CURRENT.with(Cell::get);
        if f.is_null() {
            return None;
        }
        // SAFETY: only the owning worker reads these fields while the fiber
        // is current.
        let ns = unsafe {
            let slice = if (*f).metered {
                raw_cpu_ns().saturating_sub((*f).resume_cpu0_ns)
            } else {
                0
            };
            (*f).cpu_acc_ns + slice
        };
        Some(std::time::Duration::from_nanos(ns))
    }

    /// Add `d` to the current fiber's CPU clock (no-op outside a fiber).
    pub fn credit_cpu(d: std::time::Duration) {
        let f = CURRENT.with(Cell::get);
        if !f.is_null() {
            // SAFETY: as in `current_cpu` — the fiber is current on this
            // worker, which is the only thread that touches the field.
            unsafe { (*f).cpu_acc_ns += d.as_nanos() as u64 };
        }
    }
}

pub(crate) use fib::suspend as fiber_suspend;

/// CPU time of the current mesh fiber, if the caller is one (see
/// [`crate::comm::thread_cpu_time`]).
pub(crate) fn current_fiber_cpu() -> Option<Duration> {
    fib::current_cpu()
}

/// Charge the current fiber `d` of CPU time it did not spend: its share of a
/// replicated step another rank computed for the whole universe (see
/// [`RankCtx::leading_from_gram`]).
pub(crate) fn credit_fiber_cpu(d: Duration) {
    fib::credit_cpu(d);
}

// ---------------------------------------------------------------- scheduler

/// What an actor is doing, from the scheduler's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ActorState {
    /// Eligible to run (possibly queued on its owner's run queue).
    Runnable,
    /// Executing on its owner worker right now.
    Running,
    /// Suspended on a receive from the given source rank.
    BlockedRecv(usize),
    /// Suspended at a barrier.
    BlockedBarrier,
    /// Finished normally.
    Done,
    /// Panicked; quarantined.
    Failed,
}

struct MeshState {
    states: Vec<ActorState>,
    /// Per-rank "a sender already woke you": set when a push finds the rank
    /// registered in its mailbox but not yet suspended, consumed by the
    /// rank's [`MeshSched::recv_wait`] before it would block.
    woken: Vec<bool>,
    /// Per-worker run queues (actor `r` is owned by worker [`owner`]).
    ready: Vec<VecDeque<usize>>,
    /// Per-worker "parked on its condvar", so a wake-up signals only a
    /// worker that is waiting for one.
    parked: Vec<bool>,
    /// Actors currently in `Running`.
    running: usize,
    /// Actors not yet `Done`/`Failed`.
    live: usize,
    barrier_waiting: usize,
    /// The fault every woken rank raises, set on the first failure
    /// ([`RankFault::Aborted`]) or deadlock ([`RankFault::Deadlock`]).
    abort: Option<RankFault>,
    /// Root-cause rank of the abort, if a rank failure (not a deadlock).
    root: Option<usize>,
    /// The root failure's original panic payload, for fail-stop re-raise.
    root_payload: Option<Box<dyn Any + Send>>,
    /// Fault per failed rank.
    faults: Vec<Option<RankFault>>,
}

/// The worker that owns rank `rank`: workers own contiguous blocks of
/// ranks whose sizes differ by at most one, so tree partners and
/// mode-group peers (neighbouring ranks) mostly share a worker.
fn owner(rank: usize, nranks: usize, workers: usize) -> usize {
    rank * workers / nranks
}

pub(crate) struct MeshSched {
    state: Mutex<MeshState>,
    /// One condvar per worker, signalled only while that worker is parked.
    work: Vec<Condvar>,
    /// Fast-path abort flag so per-op prechecks skip the state mutex.
    aborted: AtomicBool,
    nranks: usize,
    workers: usize,
}

impl MeshSched {
    fn new(nranks: usize, workers: usize) -> MeshSched {
        let mut ready = vec![VecDeque::new(); workers];
        for r in 0..nranks {
            ready[owner(r, nranks, workers)].push_back(r);
        }
        MeshSched {
            state: Mutex::new(MeshState {
                states: vec![ActorState::Runnable; nranks],
                woken: vec![false; nranks],
                ready,
                parked: vec![false; workers],
                running: 0,
                live: nranks,
                barrier_waiting: 0,
                abort: None,
                root: None,
                root_payload: None,
                faults: vec![None; nranks],
            }),
            work: (0..workers).map(|_| Condvar::new()).collect(),
            aborted: AtomicBool::new(false),
            nranks,
            workers,
        }
    }

    /// Queue `rank` on its owner's run queue and signal the owner if it is
    /// parked.
    fn make_runnable(&self, g: &mut MeshState, rank: usize) {
        g.states[rank] = ActorState::Runnable;
        let w = owner(rank, self.nranks, self.workers);
        g.ready[w].push_back(rank);
        if g.parked[w] {
            self.work[w].notify_one();
        }
    }

    /// Unwind the calling rank with the epoch's abort fault.
    fn raise_abort(&self) -> ! {
        let fault = lock(&self.state).abort.clone();
        std::panic::panic_any(fault.expect("raised only after an abort"))
    }

    /// Per-communication-op entry check, called from `RankCtx`: dies if the
    /// epoch aborted.
    pub(crate) fn precheck(&self) {
        if self.aborted.load(Ordering::Acquire) {
            self.raise_abort();
        }
    }

    /// Blocking receive of rank `me` from `src`. `pop_or_wait` runs under
    /// `me`'s mailbox lock alone: it takes the message, or registers the
    /// wait on `src` there and misses. Only a miss takes the scheduler lock
    /// ([`MeshSched::block_recv`]), after the mailbox lock is released: no
    /// path holds both.
    pub(crate) fn recv_wait<T>(
        &self,
        me: usize,
        src: usize,
        mut pop_or_wait: impl FnMut() -> Option<T>,
    ) -> T {
        loop {
            if let Some(m) = pop_or_wait() {
                return m;
            }
            if self.block_recv(me, src) {
                fiber_suspend();
                self.precheck();
            }
        }
    }

    /// After `me` missed on `src` and registered the wait: mark `me`
    /// blocked on `src` and return `true` (the caller suspends), or return
    /// `false` when a push answered the registration in between (the
    /// `woken` flag; the caller retries its mailbox). Checked before the
    /// sender's state, so [`RankFault::SenderFinished`] fires only when
    /// nothing from `src` is queued: a finished sender's last push either
    /// preceded the miss or found the registration. A *failed* sender has
    /// already set the abort (`actor_done`, under this lock), so the sender
    /// reached here returned normally.
    fn block_recv(&self, me: usize, src: usize) -> bool {
        let mut g = lock(&self.state);
        if g.abort.is_some() {
            drop(g);
            self.raise_abort();
        }
        if std::mem::take(&mut g.woken[me]) {
            return false;
        }
        if g.states[src] == ActorState::Done {
            drop(g);
            std::panic::panic_any(RankFault::SenderFinished { src });
        }
        g.states[me] = ActorState::BlockedRecv(src);
        g.running -= 1;
        // The worker this fiber yields to runs `next_actor` next, which
        // sees `running` and detects idle or deadlock itself.
        true
    }

    /// Wake `dst`, whose mailbox push from `src` found it registered as
    /// waiting on `src`: mark it runnable if it has blocked, else tell it
    /// not to block (it is between its miss and its suspension).
    pub(crate) fn wake_receiver(&self, dst: usize, src: usize) {
        let mut g = lock(&self.state);
        if g.states[dst] == ActorState::BlockedRecv(src) {
            self.make_runnable(&mut g, dst);
        } else {
            g.woken[dst] = true;
        }
    }

    /// Barrier across all live actors. The last arrival releases everyone
    /// and keeps running; the rest suspend.
    pub(crate) fn barrier(&self, me: usize) {
        let must_suspend = {
            let mut g = lock(&self.state);
            if g.abort.is_some() {
                drop(g);
                self.raise_abort();
            }
            g.barrier_waiting += 1;
            if g.barrier_waiting >= g.live {
                self.release_barrier(&mut g);
                false
            } else {
                g.states[me] = ActorState::BlockedBarrier;
                g.running -= 1;
                true
            }
        };
        if must_suspend {
            fiber_suspend();
            self.precheck();
        }
    }

    fn release_barrier(&self, g: &mut MeshState) {
        g.barrier_waiting = 0;
        for r in 0..g.states.len() {
            if g.states[r] == ActorState::BlockedBarrier {
                self.make_runnable(g, r);
            }
        }
    }

    /// Abort the epoch: record the fault every survivor raises and wake
    /// every blocked actor so it unwinds through [`MeshSched::raise_abort`].
    fn abort(&self, g: &mut MeshState, fault: RankFault) {
        if g.abort.is_some() {
            return;
        }
        g.abort = Some(fault);
        self.aborted.store(true, Ordering::Release);
        g.barrier_waiting = 0;
        for r in 0..g.states.len() {
            if matches!(
                g.states[r],
                ActorState::BlockedRecv(_) | ActorState::BlockedBarrier
            ) {
                self.make_runnable(g, r);
            }
        }
    }

    /// Worker `w`'s scheduling loop body: next runnable owned actor, or
    /// `None` when the universe has drained. Detects the all-blocked cases
    /// (dead-sender revival, genuine deadlock) once every running actor has
    /// yielded.
    fn next_actor(&self, w: usize) -> Option<usize> {
        let mut g = lock(&self.state);
        loop {
            if g.live == 0 {
                return None;
            }
            if let Some(a) = g.ready[w].pop_front() {
                if g.states[a] != ActorState::Runnable {
                    continue; // stale entry (lazy deletion)
                }
                g.states[a] = ActorState::Running;
                g.running += 1;
                return Some(a);
            }
            if g.running == 0 && g.ready.iter().all(VecDeque::is_empty) {
                // Nothing runnable anywhere: receivers blocked on finished
                // senders must be resumed so they can fail loudly (a failed
                // sender's abort has woken its receivers already) …
                let mut revived = false;
                for r in 0..g.states.len() {
                    if let ActorState::BlockedRecv(src) = g.states[r] {
                        if g.states[src] == ActorState::Done {
                            self.make_runnable(&mut g, r);
                            revived = true;
                        }
                    }
                }
                if revived {
                    continue;
                }
                // … otherwise every live rank waits on a live rank.
                let live = g.live;
                self.abort(&mut g, RankFault::Deadlock { live });
                continue;
            }
            g.parked[w] = true;
            g = self.work[w].wait(g).unwrap_or_else(|e| e.into_inner());
            g.parked[w] = false;
        }
    }

    /// Called by the owning worker once a fiber finishes (normally or by
    /// panic).
    fn actor_done(&self, rank: usize, outcome: fib::Outcome) {
        let mut g = lock(&self.state);
        g.running -= 1;
        g.live -= 1;
        match outcome {
            Ok(()) => {
                g.states[rank] = ActorState::Done;
                if g.live > 0 && g.barrier_waiting > 0 && g.barrier_waiting >= g.live {
                    self.release_barrier(&mut g);
                }
            }
            Err(payload) => {
                g.states[rank] = ActorState::Failed;
                // A fault the mesh raised arrives as its typed payload; any
                // other panic is the rank's own.
                let (fault, payload) = match payload.downcast::<RankFault>() {
                    Ok(fault) => (*fault, None),
                    Err(payload) => (
                        RankFault::Panicked(payload_msg(payload.as_ref())),
                        Some(payload),
                    ),
                };
                if g.abort.is_none() {
                    // The root failure. A fault the mesh raised is re-raised
                    // fail-stop as its text, like any other panic message.
                    let cause = fault.to_string();
                    g.root = Some(rank);
                    g.root_payload = Some(payload.unwrap_or_else(|| Box::new(cause.clone())));
                    self.abort(&mut g, RankFault::Aborted { root: rank, cause });
                }
                g.faults[rank] = Some(fault);
            }
        }
        if g.live == 0 {
            // The universe drained: every parked worker leaves its loop.
            for (w, _) in g.parked.iter().enumerate().filter(|(_, &p)| p) {
                self.work[w].notify_one();
            }
        }
    }
}

// ----------------------------------------------------------------- universe

/// Execution configuration for a mesh universe.
#[derive(Clone, Debug, Default)]
pub struct MeshCfg {
    /// Worker pool size; `0` = `min(host_cores, MESH_WORKER_CAP)`, clamped
    /// to `1..=nranks`. `1` is the deterministic one-rank-at-a-time mode;
    /// `nranks` gives each rank its own OS thread (see the module docs).
    pub workers: usize,
    /// Attach an α–β–γ model: [`RankCtx::comm`] becomes the virtual clock,
    /// every off-rank message charged at both endpoints, and
    /// [`RankCtx::cpu_clock`] the modelled compute clock; the fibers' CPU
    /// meter stays off.
    pub net: Option<NetModel>,
}

impl MeshCfg {
    /// Virtual-time mesh configuration.
    pub fn virtual_time(net: NetModel) -> MeshCfg {
        MeshCfg {
            net: Some(net),
            ..MeshCfg::default()
        }
    }

    fn effective_workers(&self, nranks: usize) -> usize {
        let auto = tucker_tensor::threads::host_threads().min(MESH_WORKER_CAP);
        let w = if self.workers == 0 {
            auto
        } else {
            self.workers
        };
        w.clamp(1, nranks.max(1))
    }
}

/// Why a rank failed: its own panic, or a fault the mesh raised in it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RankFault {
    /// The rank's own panic (an injected fault included), with its message.
    Panicked(String),
    /// Woken into the abort of the epoch rank `root`'s fault (`cause`, as
    /// text) ended.
    Aborted { root: usize, cause: String },
    /// A receive from rank `src`, which returned without sending.
    SenderFinished { src: usize },
    /// Each of the `live` ranks still running waited on a live rank.
    Deadlock { live: usize },
}

impl fmt::Display for RankFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankFault::Panicked(msg) => f.write_str(msg),
            RankFault::Aborted { root, cause } => {
                write!(f, "epoch aborted: rank {root} failed: {cause}")
            }
            RankFault::SenderFinished { src } => {
                write!(f, "receive from rank {src}, which finished without sending")
            }
            RankFault::Deadlock { live } => write!(
                f,
                "deadlock in mesh scheduler: all {live} live ranks are blocked"
            ),
        }
    }
}

/// How one rank's epoch ended.
#[derive(Debug)]
pub enum RankOutcome<R> {
    /// The rank's closure returned.
    Ok(R),
    /// The rank failed (root cause or cascade); quarantined with its fault.
    Failed(RankFault),
}

impl<R> RankOutcome<R> {
    /// `true` iff the rank completed.
    pub(crate) fn is_ok(&self) -> bool {
        matches!(self, RankOutcome::Ok(_))
    }
}

/// Everything a mesh run produces. Failures are data, not panics.
pub struct MeshOutput<R> {
    /// Per-rank outcomes, indexed by rank.
    pub results: Vec<RankOutcome<R>>,
    /// Bytes moved between distinct ranks during the run: the sum of every
    /// rank's own sent bytes, failed ranks included.
    pub volume: VolumeReport,
    /// [`RankCtx::leading_from_gram`] calls that ran the EVD …
    pub evd_computed: u64,
    /// … and calls answered from another rank's bit-identical result.
    pub evd_reused: u64,
    /// Root-cause rank of the abort, if a rank failure aborted the epoch.
    pub first_failure: Option<usize>,
    /// Worker threads the scheduler multiplexed the ranks over.
    pub workers: usize,
    root_payload: Option<Box<dyn Any + Send>>,
}

impl<R> MeshOutput<R> {
    /// `true` iff every rank completed.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(RankOutcome::is_ok)
    }

    /// Ranks that did not complete, in rank order.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.results
            .iter()
            .enumerate()
            .filter(|(_, o)| !o.is_ok())
            .map(|(r, _)| r)
            .collect()
    }

    /// The fault of a failed rank.
    pub fn fault(&self, rank: usize) -> Option<&RankFault> {
        match &self.results[rank] {
            RankOutcome::Failed(fault) => Some(fault),
            RankOutcome::Ok(_) => None,
        }
    }

    /// Fail-stop adapter: per-rank results if every rank completed,
    /// otherwise re-raises the root failure's original panic payload —
    /// what [`Universe::run`] returns.
    pub fn into_results(self) -> RunOutput<R> {
        let mut out = Vec::with_capacity(self.results.len());
        let mut payload = self.root_payload;
        for (r, o) in self.results.into_iter().enumerate() {
            match o {
                RankOutcome::Ok(v) => out.push(v),
                RankOutcome::Failed(fault) => match payload.take() {
                    Some(p) => std::panic::resume_unwind(p),
                    None => panic!("rank {r} failed: {fault}"),
                },
            }
        }
        RunOutput {
            results: out,
            volume: self.volume,
        }
    }
}

thread_local! {
    /// Suppresses the default panic-hook output for panics that the mesh
    /// catches at the fiber boundary (a quarantined P = 1024 epoch must not
    /// print a thousand cascade backtraces).
    static QUIET_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(std::cell::Cell::get) {
                prev(info);
            }
        }));
    });
}

impl Universe {
    /// Run `f` on `nranks` simulated ranks as mesh actors: fibers
    /// multiplexed over `min(host_cores, K)` workers, failures quarantined
    /// per rank instead of poisoning the universe.
    ///
    /// # Panics
    /// Panics if `nranks == 0`. Rank panics do **not** propagate — they come
    /// back as [`RankOutcome::Failed`].
    pub fn run_mesh<R, F>(nranks: usize, cfg: &MeshCfg, f: F) -> MeshOutput<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        assert!(nranks > 0, "need at least one rank");
        install_quiet_hook();
        let workers = cfg.effective_workers(nranks);
        let shared = Arc::new(Shared::new(
            nranks,
            MeshSched::new(nranks, workers),
            cfg.net,
        ));

        let results: Vec<Mutex<Option<R>>> = (0..nranks).map(|_| Mutex::new(None)).collect();

        // Fiber entries borrow `f`, `results` and the Arc'd shared state.
        // The scheduler guarantees every fiber finishes (failures abort the
        // epoch and unwind every survivor) before the worker scope ends, so
        // erasing the borrow lifetimes to 'static never lets a fiber touch
        // freed memory.
        struct FiberSlot(std::cell::UnsafeCell<fib::Fiber>);
        // SAFETY: each slot is touched by exactly one worker (actor → owner
        // pinning) between the spawn and join fences of the thread scope.
        unsafe impl Sync for FiberSlot {}

        let fibers: Vec<FiberSlot> = (0..nranks)
            .map(|rank| {
                let shared = Arc::clone(&shared);
                let f = &f;
                let results = &results;
                let entry: Box<dyn FnOnce() + Send> = Box::new(move || {
                    let mut ctx = RankCtx::new(rank, nranks, shared);
                    let r = f(&mut ctx);
                    *lock(&results[rank]) = Some(r);
                });
                // SAFETY: lifetime erasure justified above.
                let entry: Box<dyn FnOnce() + Send + 'static> =
                    unsafe { std::mem::transmute(entry) };
                FiberSlot(std::cell::UnsafeCell::new(fib::Fiber::new(
                    MESH_STACK_BYTES,
                    entry,
                    cfg.net.is_none(),
                )))
            })
            .collect();

        let mesh = &shared.mesh;
        std::thread::scope(|s| {
            for w in 0..workers {
                let fibers = &fibers;
                std::thread::Builder::new()
                    .name(format!("mesh-worker{w}"))
                    .spawn_scoped(s, move || {
                        QUIET_PANICS.with(|q| q.set(true));
                        while let Some(a) = mesh.next_actor(w) {
                            // SAFETY: actor `a` is owned by this worker and
                            // marked Running, so no other thread touches its
                            // fiber until it yields.
                            let fiber = unsafe { &mut *fibers[a].0.get() };
                            if fiber.resume() {
                                mesh.actor_done(a, fiber.take_outcome());
                            }
                        }
                        QUIET_PANICS.with(|q| q.set(false));
                    })
                    .expect("spawn mesh worker");
            }
        });

        let (faults, root, root_payload) = {
            let mut g = lock(&mesh.state);
            debug_assert_eq!(g.live, 0, "mesh drained");
            (std::mem::take(&mut g.faults), g.root, g.root_payload.take())
        };
        let out_results = results
            .into_iter()
            .zip(faults)
            .map(|(res, fault)| match res.into_inner().unwrap_or(None) {
                Some(v) => RankOutcome::Ok(v),
                None => RankOutcome::Failed(fault.expect("a rank without a result failed")),
            })
            .collect();
        // Every fiber has finished, so every `RankCtx` has dropped and folded
        // its counters in.
        let totals = *lock(&shared.totals);
        MeshOutput {
            results: out_results,
            volume: totals.volume,
            evd_computed: totals.evd_computed,
            evd_reused: totals.evd_reused,
            first_failure: root,
            workers,
            root_payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::VolumeCategory;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn mesh_ring_matches_threaded() {
        let p = 7;
        let out = Universe::run_mesh(p, &MeshCfg::default(), |ctx| {
            let next = (ctx.rank() + 1) % p;
            let prev = (ctx.rank() + p - 1) % p;
            ctx.send(next, 7, vec![ctx.rank() as f64], VolumeCategory::Other);
            let got = ctx.recv(prev, 7, VolumeCategory::Other);
            got[0] as usize
        });
        assert!(out.all_ok());
        let results = out.into_results();
        for (r, &got) in results.results.iter().enumerate() {
            assert_eq!(got, (r + p - 1) % p);
        }
        assert_eq!(results.volume.total_bytes(), (p * 8) as u64);
    }

    #[test]
    fn mesh_multi_worker_is_deterministic() {
        let cfg = MeshCfg {
            workers: 4,
            ..MeshCfg::default()
        };
        let run = || {
            Universe::run_mesh(9, &cfg, |ctx| {
                let me = ctx.rank();
                let peer = (me * 5 + 3) % 9;
                ctx.send(peer, 1, vec![me as f64; me % 3 + 1], VolumeCategory::Other);
                let mut sum = 0.0;
                for src in 0..9 {
                    if (src * 5 + 3) % 9 == me {
                        sum += ctx.recv(src, 1, VolumeCategory::Other).iter().sum::<f64>();
                    }
                }
                sum
            })
            .into_results()
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.volume, b.volume);
    }

    #[test]
    fn mesh_barrier_and_self_send() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let out = Universe::run_mesh(6, &MeshCfg::default(), |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            assert_eq!(counter.load(Ordering::SeqCst), 6);
            let me = ctx.rank();
            ctx.send(me, 1, vec![me as f64], VolumeCategory::Other);
            ctx.recv(me, 1, VolumeCategory::Other)[0] as usize
        });
        let results = out.into_results();
        assert_eq!(results.results, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(results.volume.total_bytes(), 0); // self-sends are free
    }

    #[test]
    fn virtual_clock_and_ledger_do_not_depend_on_the_worker_pool() {
        let net = NetModel::bgq();
        let p = 5;
        let program = |ctx: &mut RankCtx| {
            let next = (ctx.rank() + 1) % p;
            let prev = (ctx.rank() + p - 1) % p;
            ctx.send(next, 3, vec![1.0; 16], VolumeCategory::Regrid);
            let _ = ctx.recv(prev, 3, VolumeCategory::Regrid);
            ctx.barrier();
            ctx.comm.clone()
        };
        let run = |workers: usize| {
            let cfg = MeshCfg {
                workers,
                ..MeshCfg::virtual_time(net)
            };
            let out = Universe::run_mesh(p, &cfg, program);
            assert_eq!(out.workers, workers);
            out.into_results()
        };
        let one = run(1);
        assert!(one.results.iter().all(|t| t.total() > Duration::ZERO));
        for workers in [2, 4, p] {
            let many = run(workers);
            assert_eq!(
                many.results, one.results,
                "per-rank virtual clocks must not depend on the pool ({workers} workers)"
            );
            assert_eq!(many.volume, one.volume);
        }
    }

    #[test]
    fn mesh_quarantines_a_failed_rank() {
        let p = 6;
        let out = Universe::run_mesh(p, &MeshCfg::default(), |ctx| {
            ctx.barrier();
            if ctx.rank() == 3 {
                panic!("deliberate mesh failure");
            }
            // Survivors block on the dead rank and must be aborted, not hung.
            let _ = ctx.recv(3, 9, VolumeCategory::Other);
            ctx.rank()
        });
        assert!(!out.all_ok());
        assert_eq!(out.first_failure, Some(3));
        assert_eq!(
            out.fault(3),
            Some(&RankFault::Panicked("deliberate mesh failure".into()))
        );
        for r in (0..p).filter(|&r| r != 3) {
            let fault = out.fault(r).expect("survivor aborted");
            assert!(
                matches!(fault, RankFault::Aborted { root: 3, .. }),
                "rank {r}: {fault:?}"
            );
        }
        let text = out.fault(0).unwrap().to_string();
        assert_eq!(
            text,
            "epoch aborted: rank 3 failed: deliberate mesh failure"
        );
    }

    #[test]
    fn a_failed_ranks_traffic_still_counts() {
        let out = Universe::run_mesh(2, &MeshCfg::default(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![0.0; 4], VolumeCategory::Regrid);
                panic!("deliberate mesh failure");
            }
            ctx.recv(0, 1, VolumeCategory::Regrid).len()
        });
        assert_eq!(out.first_failure, Some(0));
        assert_eq!(out.volume.bytes(VolumeCategory::Regrid), 32);
    }

    #[test]
    #[should_panic(expected = "deliberate mesh failure")]
    fn mesh_failstop_adapter_reraises_root_payload() {
        let out = Universe::run_mesh(4, &MeshCfg::default(), |ctx| {
            ctx.barrier();
            if ctx.rank() == 1 {
                panic!("deliberate mesh failure");
            }
            ctx.barrier();
        });
        let _ = out.into_results();
    }

    #[test]
    fn mesh_detects_deadlock_without_hanging() {
        let out = Universe::run_mesh(2, &MeshCfg::default(), |ctx| {
            let peer = 1 - ctx.rank();
            let _ = ctx.recv(peer, 1, VolumeCategory::Other);
        });
        assert!(!out.all_ok());
        assert_eq!(out.first_failure, None);
        for r in 0..2 {
            assert_eq!(out.fault(r), Some(&RankFault::Deadlock { live: 2 }));
        }
        let text = out.fault(0).unwrap().to_string();
        assert_eq!(
            text,
            "deadlock in mesh scheduler: all 2 live ranks are blocked"
        );
    }

    #[test]
    fn a_mesh_raised_root_fault_reraises_as_its_text() {
        // The fail-stop adapter re-raises a String payload whether the root
        // panicked itself or the mesh raised its fault.
        let out = Universe::run_mesh(2, &MeshCfg::default(), |ctx| {
            if ctx.rank() == 1 {
                let _ = ctx.recv(0, 1, VolumeCategory::Other);
            }
        });
        assert_eq!(out.first_failure, Some(1));
        let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| out.into_results())) else {
            panic!("a failed run re-raises");
        };
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("receive from rank 0, which finished without sending")
        );
    }

    #[test]
    fn fiber_cpu_clock_is_monotone_across_suspension() {
        let out = Universe::run_mesh(2, &MeshCfg::default(), |ctx| {
            let t0 = crate::comm::thread_cpu_time();
            if ctx.rank() == 0 {
                // Block (suspending the fiber) until rank 1 sends.
                let _ = ctx.recv(1, 5, VolumeCategory::Other);
            } else {
                let mut acc = 0u64;
                for i in 0..200_000u64 {
                    acc = acc.wrapping_add(std::hint::black_box(i));
                }
                std::hint::black_box(acc);
                ctx.send(0, 5, vec![1.0], VolumeCategory::Other);
            }
            let t1 = crate::comm::thread_cpu_time();
            assert!(t1 >= t0, "fiber CPU clock went backwards");
            (t1 - t0).as_nanos() as u64
        });
        assert!(out.all_ok());
    }

    #[test]
    fn a_rank_that_burns_host_cpu_in_virtual_time_advances_no_clock() {
        // Each rank spins for 3 ms of host time on either side of a
        // suspension (rank 0 waits on rank 1's message). On the measured
        // clock the rank's compute clock sees the work; under a `NetModel`
        // the fiber meter is off and nothing is priced, so every clock the
        // rank owns reads what it read before.
        let burn = || {
            let t0 = std::time::Instant::now();
            let mut acc = 0u64;
            while t0.elapsed() < Duration::from_millis(3) {
                for i in 0..10_000u64 {
                    acc = acc.wrapping_add(std::hint::black_box(i));
                }
            }
            std::hint::black_box(acc);
        };
        let body = |ctx: &mut RankCtx| {
            let clocks = |ctx: &RankCtx| (ctx.cpu_clock(), crate::comm::thread_cpu_time());
            let before = clocks(ctx);
            burn();
            if ctx.rank() == 0 {
                let _ = ctx.recv(1, 5, VolumeCategory::Other);
            } else {
                ctx.send(0, 5, vec![], VolumeCategory::Other);
            }
            burn();
            (before, clocks(ctx))
        };
        let measured = Universe::run_mesh(2, &MeshCfg::default(), body).into_results();
        for ((cpu0, _), (cpu1, _)) in measured.results {
            assert!(cpu1 > cpu0, "the measured compute clock meters the work");
        }
        for workers in [1, 2] {
            let cfg = MeshCfg {
                workers,
                ..MeshCfg::virtual_time(NetModel::bgq())
            };
            let out = Universe::run_mesh(2, &cfg, |ctx| {
                let (before, after) = body(ctx);
                (before, after, ctx.comm.total())
            })
            .into_results();
            for (r, (before, after, comm)) in out.results.into_iter().enumerate() {
                assert_eq!(before, (Duration::ZERO, Duration::ZERO), "rank {r}");
                assert_eq!(after, before, "rank {r}, {workers} workers");
                // An empty message costs α at each endpoint, nothing more.
                assert_eq!(comm, NetModel::bgq().alpha(), "rank {r}");
            }
        }
    }

    #[test]
    fn a_push_inside_the_receivers_window_is_not_lost() {
        use crate::comm::{Mailbox, Msg};
        let msg = |tag| Msg {
            tag,
            payload: vec![],
        };
        // Rank 0 receives from rank 1; each runs on a worker of its own.
        // The push comes after rank 0's miss and before it blocks, and
        // rank 1 finishes in that window too: the flag makes rank 0 retry,
        // it gets the message, and only then does `SenderFinished` fire.
        let sched = MeshSched::new(2, 2);
        let mail = Mailbox::default();
        assert_eq!(
            (sched.next_actor(0), sched.next_actor(1)),
            (Some(0), Some(1))
        );
        assert!(mail.pop_or_wait(1).is_none());
        assert!(mail.push(1, msg(7)));
        sched.wake_receiver(0, 1);
        sched.actor_done(1, Ok(()));
        assert!(!sched.block_recv(0, 1), "woken: retry, do not block");
        assert_eq!(mail.pop_or_wait(1).map(|m| m.tag), Some(7));
        assert!(mail.pop_or_wait(1).is_none());
        let dropped = std::panic::catch_unwind(AssertUnwindSafe(|| sched.block_recv(0, 1)));
        let payload = dropped.expect_err("nothing queued from a finished sender");
        assert_eq!(
            payload.downcast_ref::<RankFault>(),
            Some(&RankFault::SenderFinished { src: 1 })
        );

        // The other order: rank 0 blocks first, and the push makes it
        // runnable on its own worker's queue.
        let sched = MeshSched::new(2, 2);
        let mail = Mailbox::default();
        assert_eq!(
            (sched.next_actor(0), sched.next_actor(1)),
            (Some(0), Some(1))
        );
        assert!(mail.pop_or_wait(1).is_none());
        assert!(sched.block_recv(0, 1));
        assert!(mail.push(1, msg(8)));
        sched.wake_receiver(0, 1);
        assert_eq!(sched.next_actor(0), Some(0));
        assert_eq!(mail.pop_or_wait(1).map(|m| m.tag), Some(8));
    }

    /// splitmix64: the stress tests' seeded stream.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// One stress round's traffic: `sends[r]` lists `(dst, count)` in the
    /// order rank `r` sends, `recvs[r]` lists `(src, count)` in the order
    /// rank `r` receives — a seeded shuffle, not the arrival order.
    struct Round {
        sends: Vec<Vec<(usize, usize)>>,
        recvs: Vec<Vec<(usize, usize)>>,
    }

    fn stress_rounds(p: usize, rounds: usize, seed: u64) -> Vec<Round> {
        (0..rounds)
            .map(|k| {
                let mut sends = vec![Vec::new(); p];
                let mut recvs = vec![Vec::new(); p];
                for (r, out) in sends.iter_mut().enumerate() {
                    let h = mix(seed ^ mix((k * p + r) as u64));
                    for j in 0..(h % 5) as usize {
                        let hj = mix(h ^ j as u64);
                        let dst = (hj % p as u64) as usize;
                        if out.iter().all(|&(d, _)| d != dst) {
                            let count = 1 + (hj >> 32) as usize % 3;
                            out.push((dst, count));
                            recvs[dst].push((r, count));
                        }
                    }
                }
                for (r, inc) in recvs.iter_mut().enumerate() {
                    let h = mix(seed ^ mix((k * p + r) as u64) ^ 0x5EED);
                    inc.sort_by_key(|&(src, _)| mix(h ^ src as u64));
                }
                Round { sends, recvs }
            })
            .collect()
    }

    /// The payload of the `i`-th message `src` sends `dst` in round `k`.
    fn stress_payload(k: usize, src: usize, dst: usize, i: usize) -> Vec<f64> {
        let h = mix(((k as u64) << 40) ^ ((src as u64) << 20) ^ ((dst as u64) << 2) ^ i as u64);
        (0..1 + h % 7).map(|e| (h ^ e) as f64).collect()
    }

    #[test]
    fn seeded_random_traffic_matches_the_one_worker_run() {
        // Every rank sends seeded payloads to a seeded peer set (itself
        // included at times) and receives them source by source in a
        // shuffled order, with a barrier every fourth round: every received
        // payload, clock and sent byte must equal the one-worker run, on
        // any pool, and no run may deadlock or lose a wake-up.
        let net = NetModel::bgq();
        for (p, rounds) in [(37, 48), (1023, 6)] {
            let plan = stress_rounds(p, rounds, 0x00C0_FFEE ^ p as u64);
            let program = |ctx: &mut RankCtx| {
                let me = ctx.rank();
                let mut digest = 0u64;
                for (k, round) in plan.iter().enumerate() {
                    for &(dst, count) in &round.sends[me] {
                        for i in 0..count {
                            let payload = stress_payload(k, me, dst, i);
                            ctx.send(dst, k as u32, payload, VolumeCategory::Other);
                        }
                    }
                    for &(src, count) in &round.recvs[me] {
                        for i in 0..count {
                            let got = ctx.recv(src, k as u32, VolumeCategory::Other);
                            assert_eq!(got, stress_payload(k, src, me, i), "round {k}");
                            digest = mix(digest ^ got.len() as u64 ^ ((src as u64) << 32));
                        }
                    }
                    if k % 4 == 3 {
                        ctx.barrier();
                    }
                }
                (digest, ctx.comm.clone(), ctx.volume())
            };
            let run = |workers: usize| {
                let cfg = MeshCfg {
                    workers,
                    ..MeshCfg::virtual_time(net)
                };
                let out = Universe::run_mesh(p, &cfg, program);
                assert_eq!(out.workers, workers);
                assert!(out.all_ok(), "P = {p}, {workers} workers");
                out.into_results()
            };
            let one = run(1);
            for workers in [2, 3, 4, p] {
                let many = run(workers);
                assert!(
                    many.results == one.results,
                    "P = {p}: {workers} workers differ from one"
                );
                assert_eq!(many.volume, one.volume);
            }
        }
    }

    #[test]
    fn a_message_sent_just_before_its_sender_finishes_is_received() {
        // Each sender sends `K` messages and returns at once; its receiver
        // must get all `K`, whether it was already waiting or not, and a
        // further receive from the finished sender fails `SenderFinished`
        // (or, once one receiver has failed, `Aborted`).
        const K: usize = 3;
        // One thread per rank makes the receivers contend for the scheduler
        // lock, which widens the window between a miss and the block.
        for (p, iters) in [(2, 300), (64, 20), (256, 20)] {
            for workers in [1, 2, 3, p] {
                for it in 0..iters {
                    // Alternate which side of each pair has the lower rank,
                    // so both the sender and the receiver get to run first.
                    let sender = |r: usize| r % 2 == it % 2;
                    let received = std::sync::atomic::AtomicUsize::new(0);
                    let cfg = MeshCfg {
                        workers,
                        ..MeshCfg::default()
                    };
                    let out = Universe::run_mesh(p, &cfg, |ctx| {
                        let peer = ctx.rank() ^ 1;
                        if sender(ctx.rank()) {
                            for i in 0..K {
                                ctx.send(peer, i as u32, vec![i as f64], VolumeCategory::Other);
                            }
                            return;
                        }
                        for i in 0..K {
                            let got = ctx.recv(peer, i as u32, VolumeCategory::Other);
                            assert_eq!(got, vec![i as f64]);
                            received.fetch_add(1, Ordering::SeqCst);
                        }
                        ctx.barrier();
                        let _ = ctx.recv(peer, 9, VolumeCategory::Other);
                    });
                    assert_eq!(
                        received.into_inner(),
                        K * p / 2,
                        "P = {p}, {workers} workers"
                    );
                    let root = out.first_failure.expect("the extra receive fails");
                    assert!(!sender(root));
                    assert_eq!(
                        out.fault(root),
                        Some(&RankFault::SenderFinished { src: root ^ 1 })
                    );
                    for r in 0..p {
                        match out.fault(r) {
                            None => assert!(sender(r), "rank {r}"),
                            Some(f) => assert!(
                                !sender(r)
                                    && match f {
                                        RankFault::SenderFinished { src } => *src == r ^ 1,
                                        RankFault::Aborted { root: a, .. } => *a == root,
                                        _ => false,
                                    },
                                "rank {r}: {f:?}"
                            ),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn workers_own_contiguous_rank_blocks_of_balanced_size() {
        for nranks in [1, 2, 7, 37, 64, 1023, 1024] {
            for workers in (1..=nranks.min(9)).chain([nranks / 2, nranks]) {
                if workers == 0 {
                    continue;
                }
                let owners: Vec<usize> = (0..nranks).map(|r| owner(r, nranks, workers)).collect();
                assert_eq!(owners[0], 0);
                assert_eq!(owners[nranks - 1], workers - 1);
                assert!(owners.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1));
                let mut sizes = vec![0usize; workers];
                for &o in &owners {
                    sizes[o] += 1;
                }
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(
                    *lo >= 1 && hi - lo <= 1,
                    "P = {nranks}, W = {workers}: {sizes:?}"
                );
            }
        }
        // `workers: nranks` still runs every rank on a thread of its own,
        // before and after a suspension.
        let p = 12;
        let cfg = MeshCfg {
            workers: p,
            ..MeshCfg::default()
        };
        let out = Universe::run_mesh(p, &cfg, |ctx| {
            let before = std::thread::current().id();
            ctx.send((ctx.rank() + 1) % p, 1, vec![0.0], VolumeCategory::Other);
            let _ = ctx.recv((ctx.rank() + p - 1) % p, 1, VolumeCategory::Other);
            assert_eq!(std::thread::current().id(), before);
            before
        })
        .into_results();
        let threads: std::collections::HashSet<_> = out.results.into_iter().collect();
        assert_eq!(threads.len(), p);
    }

    #[test]
    fn mesh_scales_to_thousands_of_ranks_on_few_threads() {
        // P fibers must not mean P threads. Count the OS threads this
        // mesh's rank bodies actually run on (before and after a blocking
        // receive) — not the process-wide thread count, which sibling tests'
        // worker pools inflate at will.
        let p = 4096;
        let carriers = Mutex::new(std::collections::HashSet::new());
        let here = || {
            lock(&carriers).insert(std::thread::current().id());
        };
        let out = Universe::run_mesh(p, &MeshCfg::default(), |ctx| {
            let next = (ctx.rank() + 1) % p;
            let prev = (ctx.rank() + p - 1) % p;
            here();
            ctx.send(next, 9, vec![ctx.rank() as f64], VolumeCategory::Other);
            let got = ctx.recv(prev, 9, VolumeCategory::Other)[0] as usize;
            here();
            assert_eq!(got, (ctx.rank() + p - 1) % p);
        });
        assert!(out.all_ok());
        assert!(out.workers <= MESH_WORKER_CAP);
        let carriers = lock(&carriers).len();
        assert!(
            (1..=out.workers).contains(&carriers),
            "{p} ranks ran on {carriers} threads with {} workers",
            out.workers
        );
    }
}
