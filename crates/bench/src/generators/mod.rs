//! Every artifact the `experiments` binary can produce: one generator per
//! file under `results/`, each returning the file's content *with its
//! declaration* ([`Artifact`]) and its own verdict on the numbers ([`Gate`]).
//! [`ARTIFACTS`] is the only list of them; the binary's dispatch, `all`,
//! `repro` and the usage line are loops over it.

mod host;
mod paper;
mod virtual_time;

use crate::artifact::{Artifact, Gate, Obj};
use tucker_core::TuckerMeta;

pub use host::{kernels_on, KernelShape};
pub use paper::summary;

/// What the command line can set, plus the mesh worker pool the simulated
/// ranks run on (the default everywhere except the tests that show `model`
/// leaves do not depend on it).
#[derive(Clone, Debug)]
pub struct Opts {
    /// Suite tensors sampled by the measured figures (`--sample`).
    pub sample: usize,
    /// Largest rank count of the virtual-time sweeps (`--max-p`).
    pub max_p: usize,
    /// Concurrent clients of the serving bench (`--clients`).
    pub clients: usize,
    /// Mesh worker pool under every simulated universe (0 = the host's
    /// default pool).
    pub workers: usize,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            sample: 16,
            max_p: usize::MAX,
            clients: 6,
            workers: 0,
        }
    }
}

/// One row of [`ARTIFACTS`].
pub struct Entry {
    /// Subcommand of the `experiments` binary.
    pub cmd: &'static str,
    /// File name under `results/`.
    pub file: &'static str,
    /// Runs the experiment; prints its human-readable report on the way.
    pub generate: fn(&Opts) -> (Artifact, Gate),
}

/// Every artifact, in the order `experiments -- all` runs them.
pub const ARTIFACTS: &[Entry] = &[
    entry("kernels", "BENCH_kernels.json", host::kernels),
    entry("backends", "BENCH_backends.json", host::backends),
    entry("serve", "BENCH_serving.json", host::serve),
    entry("planner", "BENCH_planner.json", virtual_time::planner),
    entry("scaling", "BENCH_scaling.json", virtual_time::scaling),
    entry("topology", "BENCH_topology.json", virtual_time::topology),
    entry("recovery", "BENCH_recovery.json", virtual_time::recovery),
    entry("views", "BENCH_views.json", host::views),
    entry("table1", "table1_grid_counts.csv", paper::table1),
    entry("table2", "table2_real_tensors.csv", paper::table2),
    entry("fig11c", "fig11c_load_5d.csv", |_| paper::fig11cd_load(5)),
    entry("fig11d", "fig11d_load_6d.csv", |_| paper::fig11cd_load(6)),
    entry("fig11f", "fig11f_volume.csv", paper::fig11f_volume),
    entry("fig10a", "fig10a_overall_5d.csv", |o| {
        paper::fig10_overall(5, o)
    }),
    entry("fig10b", "fig10b_overall_6d.csv", |o| {
        paper::fig10_overall(6, o)
    }),
    entry("fig11a", "fig11a_compute_time_5d.csv", |o| {
        paper::fig11ab_compute_time(5, o)
    }),
    entry("fig11b", "fig11b_compute_time_6d.csv", |o| {
        paper::fig11ab_compute_time(6, o)
    }),
    entry("fig11e", "fig11e_comm_time.csv", paper::fig11e_comm_time),
    entry("fig10c", "fig10c_real_breakdown.csv", paper::fig10c_real),
];

const fn entry(
    cmd: &'static str,
    file: &'static str,
    generate: fn(&Opts) -> (Artifact, Gate),
) -> Entry {
    Entry {
        cmd,
        file,
        generate,
    }
}

/// `ranks` capped at `--max-p`.
///
/// # Panics
/// Panics if the cap leaves nothing to sweep.
fn ranks_upto(ranks: &[usize], max_p: usize) -> Vec<usize> {
    let kept: Vec<usize> = ranks.iter().copied().filter(|&p| p <= max_p).collect();
    assert!(!kept.is_empty(), "--max-p filtered out every rank count");
    kept
}

/// The members every problem-keyed `BENCH_*` document opens with.
fn problem_header(schema: &str, meta: &TuckerMeta) -> Obj {
    Obj::new()
        .model("schema", schema)
        .model("input", meta.input().to_string())
        .model("core", meta.core().to_string())
}
