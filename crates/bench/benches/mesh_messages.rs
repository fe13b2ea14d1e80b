//! Wall time per message of the rank runtime's message path.
//!
//! A P = 1024 universe (BG/Q virtual clock, so no host clock is read per
//! call) runs `ROUNDS` one-element world all-reduces — `2(P − 1)` small
//! messages each, the binomial tree the Gram and norm reductions use — and
//! the window from the first rank leaving a barrier to the last rank
//! finishing its reductions, divided by the messages sent, is one sample.
//! Universe construction and teardown are outside the window. Printed per
//! worker count: median, min and max over `SAMPLES` universes.
//!
//! `cargo bench --offline -p tucker-bench --bench mesh_messages`

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};
use tucker_distsim::collectives::allreduce_sum;
use tucker_distsim::{MeshCfg, NetModel, Universe, VolumeCategory};

const P: usize = 1024;
const ROUNDS: usize = 20;
const SAMPLES: usize = 15;

/// Nanoseconds of wall per message for one universe.
fn sample(workers: usize) -> f64 {
    let start: OnceLock<Instant> = OnceLock::new();
    let end: Mutex<Option<Instant>> = Mutex::new(None);
    let cfg = MeshCfg {
        workers,
        ..MeshCfg::virtual_time(NetModel::bgq())
    };
    let out = Universe::run_mesh(P, &cfg, |ctx| {
        ctx.barrier();
        start.get_or_init(Instant::now);
        let mut buf = [1.0];
        for round in 0..ROUNDS {
            allreduce_sum(ctx, &mut buf, round as u32, VolumeCategory::Gram);
        }
        let now = Instant::now();
        let mut end = end.lock().unwrap();
        *end = Some(end.map_or(now, |e| e.max(now)));
    });
    assert!(out.all_ok());
    let window = end.into_inner().unwrap().unwrap() - *start.get().unwrap();
    window.as_nanos() as f64 / (ROUNDS * 2 * (P - 1)) as f64
}

fn main() {
    for workers in [1, 2] {
        sample(workers); // warm-up
        let mut ns: Vec<f64> = (0..SAMPLES).map(|_| sample(workers)).collect();
        ns.sort_by(f64::total_cmp);
        let dur = |x: f64| Duration::from_nanos(x as u64);
        println!(
            "mesh_messages/allreduce_P{P}_workers{workers:<2} per message: median {:?}  (min {:?} .. max {:?}, n={SAMPLES})",
            dur(ns[SAMPLES / 2]),
            dur(ns[0]),
            dur(ns[SAMPLES - 1]),
        );
    }
}
