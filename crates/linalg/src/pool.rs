//! The host kernels' thread team: a fixed set of parked worker threads that
//! every parallel Gram/TTM/GEMM region runs on.
//!
//! The paper's per-rank kernels are BLAS calls whose thread team outlives the
//! call; this module is that team. A [`Pool`] owns `width − 1` worker threads
//! that sleep between regions, and exposes one scoped primitive,
//! [`Pool::run`]: `run(parts, body)` calls `body(part)` exactly once for
//! every `part` in `0..parts` and returns when all of them have finished.
//!
//! * **Partition vs width.** `parts` is the *numerical* partition the kernel
//!   asked for (a Gram sums per part, so its bits depend on it); the pool's
//!   width is how many OS threads execute those parts. Parts map to
//!   participants in static contiguous runs — 3 parts on a 2-wide team is
//!   parts `0, 1` on the caller and part `2` on the worker, never three
//!   threads — and the calling thread is always participant 0.
//! * **Busy or nested → inline.** One region runs on a team at a time. A
//!   `run` that finds the team taken — by another thread's region, or by the
//!   region it is itself a part of — executes its parts on the calling
//!   thread in ascending order: it never blocks and never spawns, and since
//!   the partition is unchanged, neither are the bits.
//! * **Hand-off.** A worker waiting for work, and the caller waiting for the
//!   workers, poll for at most [`SPIN`] — yielding the core between polls,
//!   so a waiter never holds off the thread it waits for — and then
//!   [`park`](thread::park); whoever publishes the awaited state unparks the
//!   waiter afterwards. A region allocates nothing: the job is one slot in
//!   the pool, written before the ticket that announces it.
//! * **Panics.** A participant stops at its first panicking part; the others
//!   finish their runs, then the payload (the caller's own first, else the
//!   first worker's) is re-raised on the caller. The workers catch the
//!   unwind, so the team stays usable.
//! * **Pack bytes.** Each worker's [`pack::bytes_packed`] delta over its
//!   parts is folded into the submitting thread's counter when the region
//!   ends, so that counter means "bytes packed on behalf of this thread".
//!
//! [`Pool::shared`] — `os_threads()` wide, built on first use, never torn
//! down — is the team every kernel in the workspace uses; [`Pool::new`]
//! exists for tests of the pool itself.

use crate::pack;
use std::any::Any;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How long a waiter polls before it parks: long enough to catch the next
/// region of a back-to-back kernel sequence without a futex round trip,
/// short enough that an idle team costs nothing measurable.
const SPIN: Duration = Duration::from_micros(50);

/// Low bits of a ticket: the number of participants of the region (caller
/// included); the high bits count regions. 48 counter bits outlast any
/// process (2⁴⁸ regions at 1 µs each is nine years).
const TEAM_BITS: u32 = 16;
const TEAM_MASK: u64 = (1 << TEAM_BITS) - 1;
/// The ticket that tells the workers of an owned pool to exit.
const SHUTDOWN: u64 = u64::MAX;

type Body<'a> = dyn Fn(usize) + Sync + 'a;
type Payload = Box<dyn Any + Send>;

/// The region on offer: written by the thread that owns `busy`, read by the
/// workers of that region's team.
struct Job {
    body: *const Body<'static>,
    parts: usize,
    /// Who to unpark when the last worker finishes.
    caller: Thread,
}

struct Shared {
    /// Ownership of the team (and of `job`, `ticket`'s next value, `packed`).
    busy: AtomicBool,
    /// `(region counter << TEAM_BITS) | team size`, or [`SHUTDOWN`]. Stored
    /// with `Release` after `job` is written; a worker that `Acquire`-loads a
    /// new value and finds its index below the team size may read `job`.
    ticket: AtomicU64,
    job: UnsafeCell<Option<Job>>,
    /// Workers of the current region that have not finished yet.
    pending: AtomicUsize,
    /// First worker panic of the current region.
    panic: Mutex<Option<Payload>>,
    /// Bytes the workers packed during the current region.
    packed: AtomicU64,
}

// SAFETY: every field but `job` is an atomic or a mutex. `job` is written
// only by the thread that holds `busy`, strictly before the `Release` store
// of the ticket that announces it, and read only by workers that
// `Acquire`-loaded that ticket and are counted in `pending`; the owner does
// not write it again (nor release `busy`) until `pending` is back to zero.
// What it holds crosses threads soundly: `body` points at a `Sync` closure
// that `Pool::run` keeps alive until every reader is done, `Thread` is
// `Send + Sync`.
unsafe impl Sync for Shared {}
// SAFETY: as above — nothing in `Shared` is tied to the thread that built it.
unsafe impl Send for Shared {}

/// A team of `width() − 1` parked worker threads plus whichever thread calls
/// [`run`](Pool::run). Dropping an owned pool stops and joins its workers.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// Poll `ready()` for at most [`SPIN`], then park between polls. Each poll
/// of the spin phase gives the core away ([`yield_now`](thread::yield_now),
/// not a pause loop): on a host whose scheduler has put the awaited thread on
/// this very core — a one-core quota, an oversubscribed VM — a pause loop
/// would hold that thread off for the whole spin, every region. The thread
/// that makes `ready` true must unpark this one afterwards; a token left
/// over from an earlier wake-up costs one extra check, never a missed one.
fn wait_until(mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + SPIN;
    while !ready() {
        if Instant::now() < deadline {
            thread::yield_now();
        } else {
            thread::park();
        }
    }
}

/// The contiguous run of `0..parts` that participant `p` of `team` executes:
/// `parts / team` each, the first `parts % team` participants one more.
fn share(parts: usize, team: usize, p: usize) -> Range<usize> {
    let (base, extra) = (parts / team, parts % team);
    let start = p * base + p.min(extra);
    start..start + base + usize::from(p < extra)
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // The slot is a plain `Option` assignment: valid at every step.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen = 0;
    loop {
        let mut ticket = seen;
        wait_until(|| {
            ticket = shared.ticket.load(Ordering::Acquire);
            ticket != seen
        });
        if ticket == SHUTDOWN {
            return;
        }
        seen = ticket;
        let team = (ticket & TEAM_MASK) as usize;
        if index >= team {
            continue;
        }
        // SAFETY: this worker is on the team of the region `ticket`
        // announced, so the job was written before the ticket it just
        // acquired and stays untouched until it decrements `pending` below
        // (see `unsafe impl Sync for Shared`). The closure behind `body` is
        // alive for the same span: `Pool::run` returns only after `pending`
        // reached zero.
        let (body, parts, caller) = unsafe {
            let job = (*shared.job.get()).as_ref().expect("ticket without a job");
            (&*job.body, job.parts, job.caller.clone())
        };
        let packed0 = pack::bytes_packed();
        let run = catch_unwind(AssertUnwindSafe(|| {
            share(parts, team, index).for_each(body)
        }));
        if let Err(payload) = run {
            lock_ignore_poison(&shared.panic).get_or_insert(payload);
        }
        shared
            .packed
            .fetch_add(pack::bytes_packed() - packed0, Ordering::Relaxed);
        // `Release` publishes this worker's writes (its parts' output, the
        // two slots above) to the caller's `Acquire` load of zero.
        if shared.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }
}

impl Pool {
    /// A team of `threads` participants: `threads − 1` workers are spawned
    /// now and parked (`threads ≤ 1`, or a host that refuses the spawn, gives
    /// a narrower team whose `run` still executes every part).
    pub fn new(threads: usize) -> Pool {
        let shared = Arc::new(Shared {
            busy: AtomicBool::new(false),
            ticket: AtomicU64::new(0),
            job: UnsafeCell::new(None),
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            packed: AtomicU64::new(0),
        });
        let workers = (1..threads.min(TEAM_MASK as usize))
            .map_while(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("tucker-pool-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .ok()
            })
            .collect();
        Pool { shared, workers }
    }

    /// The process's team, `os_threads()` wide, built on first use. Every
    /// parallel kernel region in the workspace runs here.
    pub fn shared() -> &'static Pool {
        static SHARED: OnceLock<Pool> = OnceLock::new();
        SHARED.get_or_init(|| Pool::new(crate::os_threads()))
    }

    /// Participants of a full-width region: the workers plus the caller.
    pub fn width(&self) -> usize {
        self.workers.len() + 1
    }

    /// Call `body(part)` exactly once for every `part` in `0..parts`, on up
    /// to [`width`](Pool::width) threads, and return when all are done. The
    /// caller runs the first contiguous share itself; if the team is busy
    /// (or this *is* one of its parts) it runs all of them, in ascending
    /// order. A panic in any part is re-raised here once every other
    /// participant has finished.
    pub fn run<F: Fn(usize) + Sync>(&self, parts: usize, body: F) {
        let shared = &*self.shared;
        let team = parts.min(self.width());
        let took_team = team > 1
            && shared
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok();
        if !took_team {
            (0..parts).for_each(body);
            return;
        }

        let erased: &Body<'_> = &body;
        // SAFETY (lifetime erase): the workers dereference this pointer only
        // between the ticket store below and their decrement of `pending`,
        // and this function does not return — not even by unwinding: the
        // caller's own share runs under `catch_unwind` — before the
        // wait-for-all below has seen `pending == 0`. `body`, and everything
        // it borrows from the caller's stack, outlives that span.
        let erased: *const Body<'static> = unsafe { std::mem::transmute(erased) };
        // SAFETY: `busy` is ours and the previous region's workers are all
        // done (its owner waited for them before releasing `busy`), so no
        // one else is reading or writing the slot.
        unsafe {
            *shared.job.get() = Some(Job {
                body: erased,
                parts,
                caller: thread::current(),
            });
        }
        shared.pending.store(team - 1, Ordering::Relaxed);
        let region = (shared.ticket.load(Ordering::Relaxed) >> TEAM_BITS) + 1;
        shared
            .ticket
            .store(region << TEAM_BITS | team as u64, Ordering::Release);
        for worker in &self.workers[..team - 1] {
            worker.thread().unpark();
        }

        let own = catch_unwind(AssertUnwindSafe(|| share(parts, team, 0).for_each(&body)));
        wait_until(|| shared.pending.load(Ordering::Acquire) == 0);

        pack::credit_packed(shared.packed.swap(0, Ordering::Relaxed));
        let theirs = lock_ignore_poison(&shared.panic).take();
        shared.busy.store(false, Ordering::Release);
        if let Some(payload) = own.err().or(theirs) {
            resume_unwind(payload);
        }
    }

    /// [`run`](Pool::run) over the `chunk`-sized pieces of a slice (the last
    /// one may be shorter): `body(i, piece)` with `piece` starting at
    /// `data[i · chunk]`.
    ///
    /// # Panics
    /// Panics if `chunk` is zero.
    pub fn chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        chunk: usize,
        body: impl Fn(usize, &mut [T]) + Sync,
    ) {
        assert!(chunk > 0, "chunk size must be non-zero");
        let len = data.len();
        let base = SharedMut::new(data);
        self.run(len.div_ceil(chunk), |i| {
            let start = i * chunk;
            // SAFETY: `run` hands out every index once, so the pieces
            // `[i·chunk, min((i+1)·chunk, len))` are pairwise disjoint,
            // in-bounds sub-slices of `data`, which stays exclusively
            // borrowed until `run` — hence every part — has returned.
            let piece = unsafe { base.slice(start, chunk.min(len - start)) };
            body(i, piece);
        });
    }

    /// [`run`](Pool::run) over blocks of `rows` consecutive rows of a
    /// column-major matrix with leading dimension `ld` (`data.len()` a
    /// multiple of `ld`; the last block may be shorter): `body(i, block)`
    /// with `block` covering rows `i · rows ..` of every column. The blocks'
    /// memory ranges interleave, so a block hands out one column segment at
    /// a time instead of one slice.
    ///
    /// # Panics
    /// Panics if `rows` is zero or `data.len()` is not a multiple of `ld`.
    pub fn row_blocks_mut<T: Send>(
        &self,
        data: &mut [T],
        ld: usize,
        rows: usize,
        body: impl Fn(usize, RowBlockMut<'_, T>) + Sync,
    ) {
        assert!(rows > 0, "row block must be non-empty");
        assert!(
            ld > 0 && data.len().is_multiple_of(ld),
            "matrix storage must be whole columns of length {ld}"
        );
        let cols = data.len() / ld;
        let base = SharedMut::new(data);
        self.run(ld.div_ceil(rows), |i| {
            let row0 = i * rows;
            body(
                i,
                RowBlockMut {
                    base: &base,
                    ld,
                    row0,
                    rows: rows.min(ld - row0),
                    cols,
                },
            );
        });
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // `&mut self`: no region is in flight, every worker is waiting.
        self.shared.ticket.store(SHUTDOWN, Ordering::Release);
        for worker in self.workers.drain(..) {
            worker.thread().unpark();
            // A worker catches every unwind of a part, so there is no
            // payload to lose here.
            let _ = worker.join();
        }
    }
}

/// The base pointer of an exclusively borrowed slice, shareable with the
/// parts of one region so each can carve out its own disjoint piece.
struct SharedMut<'a, T> {
    ptr: *mut T,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: the pointer is only ever turned into `&mut [T]` pieces that are
// pairwise disjoint (`slice`'s contract), each used by one thread — the
// same thing `chunks_mut` + scoped threads do — which needs `T: Send`.
unsafe impl<T: Send> Sync for SharedMut<'_, T> {}

impl<'a, T> SharedMut<'a, T> {
    fn new(data: &'a mut [T]) -> Self {
        SharedMut {
            ptr: data.as_mut_ptr(),
            _borrow: PhantomData,
        }
    }

    /// # Safety
    /// `start .. start + len` must lie inside the borrowed slice and must
    /// not overlap any other piece alive at the same time.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice(&self, start: usize, len: usize) -> &mut [T] {
        // SAFETY: in bounds and unaliased by the caller's contract; the
        // `'a` borrow in `_borrow` keeps the storage alive and exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

/// Rows `row0 .. row0 + rows` of every column of a column-major matrix: one
/// part's exclusive share under [`Pool::row_blocks_mut`].
pub struct RowBlockMut<'a, T> {
    base: &'a SharedMut<'a, T>,
    ld: usize,
    row0: usize,
    rows: usize,
    cols: usize,
}

impl<T> RowBlockMut<'_, T> {
    /// First row of the block in the matrix.
    pub fn row0(&self) -> usize {
        self.row0
    }

    /// Rows in the block.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The block's segment of column `j`.
    ///
    /// # Panics
    /// Panics if `j` is not a column of the matrix.
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        assert!(j < self.cols, "column {j} out of {}", self.cols);
        // SAFETY: `j·ld + row0 .. + rows` is inside the matrix (`j < cols`,
        // `row0 + rows ≤ ld`); blocks of one `row_blocks_mut` call own
        // disjoint row ranges, so segments of different blocks never
        // overlap, and `&mut self` keeps this block's own segments from
        // coexisting.
        unsafe { self.base.slice(j * self.ld + self.row0, self.rows) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::{mpsc, Barrier};

    /// `run` on `pool` and return how often each part ran.
    fn cover(pool: &Pool, parts: usize) -> Vec<u32> {
        let hits: Vec<AtomicU32> = (0..parts).map(|_| AtomicU32::new(0)).collect();
        pool.run(parts, |p| {
            hits[p].fetch_add(1, Ordering::Relaxed);
        });
        hits.into_iter().map(AtomicU32::into_inner).collect()
    }

    #[test]
    fn every_part_runs_exactly_once() {
        for width in [1, 2, 3, 5] {
            let pool = Pool::new(width);
            assert_eq!(pool.width(), width);
            for parts in [0, 1, width, width + 1, 1000] {
                assert_eq!(cover(&pool, parts), vec![1; parts], "{width} wide");
            }
        }
    }

    #[test]
    fn shares_are_contiguous_balanced_and_caller_first() {
        for (parts, team) in [(3, 2), (7, 7), (1000, 3), (5, 4)] {
            let runs: Vec<_> = (0..team).map(|p| share(parts, team, p)).collect();
            assert_eq!(runs[0].start, 0);
            assert_eq!(runs[team - 1].end, parts);
            for w in runs.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert!(w[0].len() >= w[1].len() && w[0].len() <= w[1].len() + 1);
            }
        }
        // 3 parts on a 2-wide team: two runs, not three threads.
        assert_eq!((share(3, 2, 0), share(3, 2, 1)), (0..2, 2..3));
    }

    /// Parts really run on the team: with as many parts as participants,
    /// every part can wait for all the others to have started.
    #[test]
    fn a_full_team_runs_its_parts_concurrently() {
        let pool = Pool::new(3);
        let all_started = Barrier::new(3);
        let main = thread::current().id();
        let on_caller = AtomicU32::new(0);
        pool.run(3, |p| {
            all_started.wait();
            if thread::current().id() == main {
                assert_eq!(p, 0, "the caller is participant 0");
                on_caller.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(on_caller.into_inner(), 1);
    }

    #[test]
    fn enumerated_chunks_cover_slice_once() {
        let mut v = vec![0u64; 1003];
        Pool::shared().chunks_mut(&mut v, 10, |i, chunk| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = (i * 10 + j) as u64; // global index: each element set once
            }
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn plain_for_each_matches_sequential() {
        let mut par = [1.0f64; 256];
        let mut seq = [1.0f64; 256];
        Pool::new(4).chunks_mut(&mut par, 16, |_, c| c.iter_mut().for_each(|x| *x *= 2.0));
        seq.chunks_mut(16)
            .for_each(|c| c.iter_mut().for_each(|x| *x *= 2.0));
        assert_eq!(par, seq);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let mut v = [0u8; 64];
        Pool::new(2).chunks_mut(&mut v, 1, |i, _| {
            if i == 33 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn row_blocks_cover_a_column_major_matrix_once() {
        let (ld, cols) = (23, 5);
        let mut m = vec![0u32; ld * cols];
        Pool::new(3).row_blocks_mut(&mut m, ld, 4, |i, mut block| {
            let row0 = block.row0();
            assert_eq!(row0, i * 4);
            assert_eq!(block.rows(), 4.min(ld - row0));
            for j in 0..cols {
                for (r, x) in block.col_mut(j).iter_mut().enumerate() {
                    *x += (row0 + r + j * ld) as u32 + 1;
                }
            }
        });
        assert!(m.iter().enumerate().all(|(at, &x)| x == at as u32 + 1));
    }

    /// A panic in a worker's part and in the caller's part: the payload
    /// reaches the caller, the other participant's parts still ran, and the
    /// same pool runs the next region.
    #[test]
    fn a_panicking_part_is_reraised_and_the_team_stays_usable() {
        let pool = Pool::new(2);
        // Six parts on two participants: 0..3 on the caller, 3..6 on the
        // worker. A participant stops at its failed part, the other one
        // finishes its three.
        for (bad, beside) in [(0usize, 3), (5, 5)] {
            let ran = AtomicU32::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.run(6, |p| {
                    if p == bad {
                        panic!("part {p} failed");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("part {bad} failed").as_str())
            );
            assert_eq!(ran.into_inner(), beside, "parts run beside part {bad}");
            assert_eq!(cover(&pool, 6), vec![1; 6]);
        }
    }

    #[test]
    fn nested_run_executes_inline_in_ascending_order() {
        let pool = Pool::new(2);
        let both_in = Barrier::new(2);
        pool.run(2, |_| {
            both_in.wait(); // the team is provably busy: both parts are in
            let me = thread::current().id();
            let order = Mutex::new(Vec::new());
            pool.run(5, |q| {
                assert_eq!(thread::current().id(), me, "nested parts run inline");
                order.lock().unwrap().push(q);
            });
            assert_eq!(order.into_inner().unwrap(), [0, 1, 2, 3, 4]);
        });
    }

    /// Four threads submit to one 2-wide pool while a fifth holds it busy:
    /// nobody blocks on the team, everybody gets exact results.
    #[test]
    fn submitters_to_a_busy_team_run_inline_and_terminate() {
        let pool = Pool::new(2);
        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        thread::scope(|s| {
            s.spawn(|| {
                pool.run(2, |p| {
                    if p == 0 {
                        held_tx.send(()).unwrap();
                        // Part 0 keeps the region open until the four are done.
                        release_rx.lock().unwrap().recv().unwrap();
                    }
                })
            });
            held_rx.recv().unwrap();
            let submitters: Vec<_> = (0..4u64)
                .map(|t| {
                    let pool = &pool;
                    s.spawn(move || {
                        let me = thread::current().id();
                        let mut v = vec![0u64; 300];
                        pool.chunks_mut(&mut v, 7, |i, c| {
                            assert_eq!(thread::current().id(), me);
                            c.iter_mut()
                                .enumerate()
                                .for_each(|(j, x)| *x = t * 1000 + (i * 7 + j) as u64);
                        });
                        assert!(v.iter().enumerate().all(|(i, &x)| x == t * 1000 + i as u64));
                    })
                })
                .collect();
            for h in submitters {
                h.join().unwrap();
            }
            release_tx.send(()).unwrap();
        });
        assert_eq!(cover(&pool, 4), vec![1; 4], "the team is free again");
    }

    #[test]
    fn dropping_an_owned_pool_joins_its_workers() {
        let pool = Pool::new(4);
        assert_eq!(cover(&pool, 4), vec![1; 4]);
        // Each worker thread owns one clone of `shared` until it exits.
        let shared = Arc::downgrade(&pool.shared);
        assert_eq!(shared.strong_count(), 4);
        drop(pool);
        assert_eq!(
            shared.strong_count(),
            0,
            "Drop must have joined the workers"
        );
    }

    #[test]
    fn width_one_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.width(), 1);
        let me = thread::current().id();
        let order = Mutex::new(Vec::new());
        pool.run(4, |p| {
            assert_eq!(thread::current().id(), me);
            order.lock().unwrap().push(p);
        });
        assert_eq!(order.into_inner().unwrap(), [0, 1, 2, 3]);
        assert_eq!(Pool::new(0).width(), 1);
    }

    /// Worker-side packing lands in the submitter's counter: the same two
    /// GEMMs count the same bytes whether one thread runs both or each
    /// participant runs one.
    #[test]
    fn worker_pack_bytes_are_folded_into_the_submitter() {
        let a = vec![1.0; 64 * 64];
        let gemm = |_: usize| {
            let mut c = vec![0.0; 64 * 64];
            let mut packs = pack::PackPair::new();
            pack::gemm_packed(
                64, 64, 64, &a, 1, 64, &a, 1, 64, 1.0, &mut c, 64, &mut packs,
            );
        };
        let delta = |pool: &Pool| {
            let before = pack::bytes_packed();
            pool.run(2, gemm);
            pack::bytes_packed() - before
        };
        assert_eq!(delta(&Pool::new(2)), delta(&Pool::new(1)));
        assert_eq!(delta(&Pool::new(1)), 2 * 2 * 64 * 64 * 8);
    }
}
