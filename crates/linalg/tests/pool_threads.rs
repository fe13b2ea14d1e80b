//! The pool's threads, counted from outside: an owned pool holds exactly
//! `width − 1` OS threads and gives them back when dropped; the shared team
//! holds `os_threads() − 1` for the life of the process, and parked workers
//! accrue no CPU time.
//!
//! One test per binary on purpose: it reads the *process* thread count.

use std::time::{Duration, Instant};
use tucker_linalg::{os_threads, Pool};

/// `(threads, user + system CPU ticks)` of this process, from procfs.
fn threads_and_cpu_ticks() -> Option<(usize, u64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    // state is field 3 of stat(5): rest[0]. utime 14, stime 15, num_threads 20.
    let field = |n: usize| rest.get(n - 3)?.parse::<u64>().ok();
    Some((field(20)? as usize, field(14)? + field(15)?))
}

#[test]
fn owned_pools_return_their_threads_and_parked_workers_are_idle() {
    let Some((before, _)) = threads_and_cpu_ticks() else {
        return; // no procfs
    };
    let sum = |pool: &Pool| {
        let mut v = vec![1u64; 4096];
        pool.chunks_mut(&mut v, 64, |i, c| c.iter_mut().for_each(|x| *x += i as u64));
        v.iter().sum::<u64>()
    };
    let expect = 4096 + 64 * (0..64u64).sum::<u64>();

    let pool = Pool::new(4);
    assert_eq!(sum(&pool), expect);
    assert_eq!(threads_and_cpu_ticks().unwrap().0, before + 3);
    drop(pool);
    // `join` returns when the exiting thread clears its tid; the kernel takes
    // it out of `num_threads` a moment later, so give the count a bounded
    // while to settle (the join itself is proven without procfs by
    // `pool::tests::dropping_an_owned_pool_joins_its_workers`).
    let deadline = Instant::now() + Duration::from_millis(100);
    while threads_and_cpu_ticks().unwrap().0 != before && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(threads_and_cpu_ticks().unwrap().0, before, "Drop joins");

    assert_eq!(sum(Pool::shared()), expect);
    assert_eq!(Pool::shared().width(), os_threads());
    let (threads, _) = threads_and_cpu_ticks().unwrap();
    assert_eq!(threads, before + os_threads() - 1);

    // Let the workers' bounded spin run out, then watch an idle interval:
    // everybody is parked (this thread sleeps), so the process's CPU clock
    // may not advance by more than a tick of bookkeeping.
    std::thread::sleep(Duration::from_millis(20));
    let (_, ticks0) = threads_and_cpu_ticks().unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let (threads, ticks1) = threads_and_cpu_ticks().unwrap();
    assert_eq!(threads, before + os_threads() - 1, "the team is persistent");
    assert!(
        ticks1 - ticks0 <= 2,
        "idle team burned {} CPU ticks in 300 ms",
        ticks1 - ticks0
    );
}
