//! Checkpoint/restore of HOOI sweep state (DESIGN.md §9).
//!
//! Two layers:
//!
//! * `RecoveryLog` — the crate-private, thread-safe in-flight recorder the
//!   engine shares with every rank's
//!   `SweepObserver`.
//!   Leaf factors are recorded first-write-wins (they are replicated: the
//!   Gram is all-reduced and the EVD truncation deterministic, so every
//!   rank computes the bit-identical matrix); a sweep **commits** once all
//!   live ranks have reported it done, with per-rank stats merged the same
//!   `merge_max` way the engine aggregates them. On a mid-sweep failure the
//!   log therefore holds exactly the resumable state: every committed
//!   sweep, plus the leaves the interrupted sweep already finished.
//! * [`SweepCheckpoint`] — the durable snapshot of a log
//!   (`RecoveryLog::checkpoint`): factors, stats and tree position, with
//!   a text serialization (`tucker-checkpoint/v1`) whose floats round-trip
//!   exactly (hex `f64::to_bits`), so a restart resumes the identical run.
//!
//! The engine's recovery loop ([`DistRun::run`](crate::engine::DistRun::run)) drives
//! both: record during an epoch, checkpoint on failure, restore into
//! `hooi_loop_from` on the re-planned
//! survivor grid.

use crate::executor::{PlanProvenance, SweepStats};
use crate::meta::TuckerMeta;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;
use tucker_linalg::Matrix;

/// A fully committed sweep: the factors it produced (replicated), its
/// cross-rank merged stats, and the error.
#[derive(Clone, Debug)]
pub(crate) struct CommittedSweep {
    /// Factors after this sweep, one per mode.
    pub factors: Vec<Matrix>,
    /// Stats merged across ranks (`merge_max`), provenance-stamped.
    pub stats: SweepStats,
}

/// In-flight state of one not-yet-committed sweep.
#[derive(Default)]
struct PartialSweep {
    /// First-write-wins leaf factors (replicated across ranks).
    leaves: Vec<Option<Matrix>>,
    /// Factors + merged stats from ranks that finished the whole sweep.
    done: Option<(Vec<Matrix>, SweepStats)>,
    /// How many live ranks reported `sweep_done`.
    ranks_done: usize,
}

struct LogInner {
    order: usize,
    /// Ranks that must report a sweep for it to commit (set per epoch).
    live: usize,
    /// Provenance stamped onto sweeps committed during the current epoch.
    provenance: Option<PlanProvenance>,
    /// The sweep the current epoch resumed with predone leaves (its
    /// α–β prediction is voided: only part of it executed this epoch).
    resumed_sweep: Option<usize>,
    init_factors: Option<Vec<Matrix>>,
    committed: Vec<CommittedSweep>,
    partial: BTreeMap<usize, PartialSweep>,
}

/// Thread-safe recorder of sweep progress across the ranks of an epoch.
/// See the module docs for the commit rule.
pub(crate) struct RecoveryLog {
    inner: Mutex<LogInner>,
}

impl RecoveryLog {
    /// An empty log for an `order`-mode problem.
    pub(crate) fn new(order: usize) -> Self {
        RecoveryLog {
            inner: Mutex::new(LogInner {
                order,
                live: 0,
                provenance: None,
                resumed_sweep: None,
                init_factors: None,
                committed: Vec::new(),
                partial: BTreeMap::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LogInner> {
        // A poisoned log is still structurally sound: the recorder only
        // ever appends complete entries under the lock.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Open an epoch: `live` ranks will drive sweeps under `provenance`.
    /// Stale per-rank completion counts and unmerged stats from the
    /// previous (aborted) epoch are discarded; committed sweeps and
    /// first-wins leaves survive — they are the checkpoint.
    pub(crate) fn begin_epoch(&self, live: usize, provenance: Option<PlanProvenance>) {
        let mut g = self.lock();
        g.live = live;
        g.provenance = provenance;
        for p in g.partial.values_mut() {
            p.ranks_done = 0;
            p.done = None;
        }
        let resume = g.committed.len();
        g.resumed_sweep = g
            .partial
            .get(&resume)
            .is_some_and(|p| p.leaves.iter().any(Option::is_some))
            .then_some(resume);
    }

    /// Record the HOSVD initialization factors (first writer wins — they
    /// are replicated on every rank).
    pub(crate) fn record_init(&self, factors: &[Matrix]) {
        let mut g = self.lock();
        if g.init_factors.is_none() {
            g.init_factors = Some(factors.to_vec());
        }
    }

    /// Observer hook: mode `n`'s leaf of `sweep` finished with `factor`.
    pub(crate) fn leaf_done(&self, sweep: usize, mode: usize, factor: &Matrix) {
        let mut g = self.lock();
        if sweep < g.committed.len() {
            return; // already committed (late reporter)
        }
        let order = g.order;
        let p = g.partial.entry(sweep).or_default();
        if p.leaves.is_empty() {
            p.leaves = vec![None; order];
        }
        if p.leaves[mode].is_none() {
            p.leaves[mode] = Some(factor.clone());
        }
    }

    /// Observer hook: one rank finished `sweep`. Commits the sweep once
    /// all `live` ranks have reported it (in order — a sweep can only
    /// commit after its predecessor).
    pub(crate) fn sweep_done(&self, sweep: usize, factors: &[Matrix], stats: &SweepStats) {
        let mut g = self.lock();
        if sweep < g.committed.len() {
            return;
        }
        let p = g.partial.entry(sweep).or_default();
        p.ranks_done += 1;
        match &mut p.done {
            Some((_, merged)) => merged.merge_max(stats),
            None => p.done = Some((factors.to_vec(), stats.clone())),
        }
        // Commit every leading sweep all live ranks completed.
        loop {
            let next = g.committed.len();
            let ready = g
                .partial
                .get(&next)
                .is_some_and(|p| p.done.is_some() && p.ranks_done >= g.live && g.live > 0);
            if !ready {
                break;
            }
            let p = g.partial.remove(&next).expect("checked present");
            let (factors, mut stats) = p.done.expect("checked done");
            let mut prov = g.provenance.clone();
            if g.resumed_sweep == Some(next) {
                // Only part of this sweep executed under the current plan;
                // its per-sweep α–β prediction does not apply.
                if let Some(pr) = &mut prov {
                    pr.predicted_comm = None;
                }
            }
            stats.provenance = prov;
            g.committed.push(CommittedSweep { factors, stats });
        }
    }

    /// Number of fully committed sweeps (the resume point).
    pub(crate) fn committed_count(&self) -> usize {
        self.lock().committed.len()
    }

    /// Clone of the committed sweeps, in order.
    pub(crate) fn committed(&self) -> Vec<CommittedSweep> {
        self.lock().committed.clone()
    }

    /// Snapshot the resumable state: committed sweeps, the interrupted
    /// sweep's first-wins leaves, and the factors the next executed sweep
    /// must start from.
    pub(crate) fn checkpoint(&self, meta: &TuckerMeta, total_sweeps: usize) -> SweepCheckpoint {
        let g = self.lock();
        let resume = g.committed.len();
        let partial = g
            .partial
            .get(&resume)
            .map(|p| p.leaves.clone())
            .filter(|l| !l.is_empty())
            .unwrap_or_else(|| vec![None; g.order]);
        SweepCheckpoint {
            meta: meta.clone(),
            total_sweeps,
            init_factors: g.init_factors.clone(),
            committed: g.committed.clone(),
            partial,
        }
    }

    /// Restore a checkpoint into an empty log (the restart path: committed
    /// sweeps and partial leaves become the new baseline).
    pub(crate) fn restore(&self, ckpt: &SweepCheckpoint) {
        let mut g = self.lock();
        assert!(
            g.committed.is_empty() && g.partial.is_empty(),
            "restore into a used log"
        );
        g.order = ckpt.meta.order();
        g.init_factors.clone_from(&ckpt.init_factors);
        g.committed = ckpt.committed.clone();
        if ckpt.partial.iter().any(Option::is_some) {
            let resume = g.committed.len();
            g.partial.insert(
                resume,
                PartialSweep {
                    leaves: ckpt.partial.clone(),
                    done: None,
                    ranks_done: 0,
                },
            );
        }
    }
}

/// Durable snapshot of a HOOI run in progress: enough to resume from the
/// last committed sweep plus any leaves the interrupted sweep finished.
#[derive(Clone, Debug)]
pub struct SweepCheckpoint {
    /// Problem metadata (shape sanity check on restore).
    pub meta: TuckerMeta,
    /// The run's total sweep budget.
    pub total_sweeps: usize,
    /// HOSVD initialization factors (`None` if no rank got that far).
    pub init_factors: Option<Vec<Matrix>>,
    /// Fully committed sweeps, in order.
    pub(crate) committed: Vec<CommittedSweep>,
    /// First-wins leaf factors of sweep `committed.len()` (all `None` when
    /// the failure fell exactly on a sweep boundary).
    pub partial: Vec<Option<Matrix>>,
}

impl SweepCheckpoint {
    /// The next sweep to execute.
    pub fn resume_sweep(&self) -> usize {
        self.committed.len()
    }

    /// The factors the resumed sweep starts from: the last committed
    /// sweep's output, else the HOSVD init.
    ///
    /// # Panics
    /// Panics if nothing was recorded (no init, no committed sweep).
    pub(crate) fn basis_factors(&self) -> Vec<Matrix> {
        match self.committed.last() {
            Some(c) => c.factors.clone(),
            None => self
                .init_factors
                .clone()
                .expect("checkpoint holds neither init factors nor a committed sweep"),
        }
    }

    /// Leaves of the interrupted sweep already done (empty slice when none
    /// are — the executor treats both the same).
    pub(crate) fn predone(&self) -> &[Option<Matrix>] {
        if self.partial.iter().any(Option::is_some) {
            &self.partial
        } else {
            &[]
        }
    }

    /// Serialize to the `tucker-checkpoint/v1` text format. Floats are hex
    /// `f64::to_bits` words, so every factor entry and error round-trips
    /// bit-exactly.
    pub(crate) fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("tucker-checkpoint/v1\n");
        push_usizes(&mut s, "dims", self.meta.input().dims());
        push_usizes(&mut s, "core", self.meta.core().dims());
        s.push_str(&format!("total_sweeps {}\n", self.total_sweeps));
        match &self.init_factors {
            Some(fs) => {
                s.push_str(&format!("init {}\n", fs.len()));
                for f in fs {
                    push_matrix(&mut s, f);
                }
            }
            None => s.push_str("init -\n"),
        }
        s.push_str(&format!("committed {}\n", self.committed.len()));
        for c in &self.committed {
            push_stats(&mut s, &c.stats);
            s.push_str(&format!("factors {}\n", c.factors.len()));
            for f in &c.factors {
                push_matrix(&mut s, f);
            }
        }
        s.push_str(&format!("partial {}\n", self.partial.len()));
        for (n, f) in self.partial.iter().enumerate() {
            match f {
                Some(f) => {
                    s.push_str(&format!("mode {n} +\n"));
                    push_matrix(&mut s, f);
                }
                None => s.push_str(&format!("mode {n} -\n")),
            }
        }
        s
    }

    /// Parse the `tucker-checkpoint/v1` text format.
    ///
    /// Malformed input is an `Err`, never a panic: the shapes are checked
    /// before [`TuckerMeta`] asserts them, every factor must be `L_n × K_n`
    /// with one per mode, and counts read from the text only bound loops —
    /// nothing is pre-allocated from them.
    pub(crate) fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty checkpoint")?;
        if header != "tucker-checkpoint/v1" {
            return Err(format!("unknown checkpoint format {header:?}"));
        }
        let dims = parse_usizes(lines.next(), "dims")?;
        let core = parse_usizes(lines.next(), "core")?;
        let meta = checked_meta(dims, core)?;
        let total_sweeps = parse_count(lines.next(), "total_sweeps")?;
        let init_line = lines.next().ok_or("missing init line")?;
        let init_factors = match init_line.strip_prefix("init ") {
            Some("-") => None,
            Some(n) => {
                let n: usize = n.parse().map_err(|e| format!("init count: {e}"))?;
                Some(parse_factors(&mut lines, &meta, n, "init")?)
            }
            None => return Err(format!("expected init line, got {init_line:?}")),
        };
        let n_committed = parse_count(lines.next(), "committed")?;
        let mut committed = Vec::new();
        for _ in 0..n_committed {
            let stats = parse_stats(&mut lines)?;
            let nf = parse_count(lines.next(), "factors")?;
            let factors = parse_factors(&mut lines, &meta, nf, "factors")?;
            committed.push(CommittedSweep { factors, stats });
        }
        let n_partial = parse_count(lines.next(), "partial")?;
        if n_partial != meta.order() {
            return Err(format!(
                "partial: {n_partial} modes for an order-{} problem",
                meta.order()
            ));
        }
        let mut partial = Vec::with_capacity(meta.order());
        for n in 0..n_partial {
            let line = lines.next().ok_or("missing mode line")?;
            let rest = line
                .strip_prefix("mode ")
                .ok_or_else(|| format!("expected mode line, got {line:?}"))?;
            let (mode, flag) = rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed mode line {line:?}"))?;
            if mode.parse() != Ok(n) {
                return Err(format!("expected mode {n}, got {line:?}"));
            }
            match flag {
                "+" => partial.push(Some(parse_factor(&mut lines, &meta, n)?)),
                "-" => partial.push(None),
                other => return Err(format!("bad mode flag {other:?}")),
            }
        }
        Ok(SweepCheckpoint {
            meta,
            total_sweeps,
            init_factors,
            committed,
            partial,
        })
    }

    /// Write the checkpoint to `path` (atomic enough for a restart test:
    /// write then rename within the same directory).
    pub(crate) fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_text().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Load a checkpoint previously written by `SweepCheckpoint::save`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        Self::from_text(&text)
    }
}

// ------------------------------------------------- text format primitives

fn push_usizes(s: &mut String, key: &str, xs: &[usize]) {
    s.push_str(key);
    for x in xs {
        s.push_str(&format!(" {x}"));
    }
    s.push('\n');
}

fn parse_usizes(line: Option<&str>, key: &str) -> Result<Vec<usize>, String> {
    let line = line.ok_or_else(|| format!("missing {key} line"))?;
    let rest = line
        .strip_prefix(key)
        .ok_or_else(|| format!("expected {key} line, got {line:?}"))?;
    rest.split_whitespace()
        .map(|t| t.parse().map_err(|e| format!("{key}: {e}")))
        .collect()
}

fn parse_count(line: Option<&str>, key: &str) -> Result<usize, String> {
    let v = parse_usizes(line, key)?;
    match v.as_slice() {
        [n] => Ok(*n),
        _ => Err(format!("{key}: expected one count, got {v:?}")),
    }
}

fn push_matrix(s: &mut String, m: &Matrix) {
    s.push_str(&format!("matrix {} {}\n", m.nrows(), m.ncols()));
    for (i, x) in m.as_slice().iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(&format!("{:016x}", x.to_bits()));
    }
    s.push('\n');
}

fn parse_matrix<'a>(lines: &mut impl Iterator<Item = &'a str>) -> Result<Matrix, String> {
    let dims = parse_usizes(lines.next(), "matrix")?;
    let [nrows, ncols] = dims.as_slice() else {
        return Err(format!("matrix header needs 2 dims, got {dims:?}"));
    };
    let data_line = lines.next().ok_or("missing matrix data")?;
    let data: Vec<f64> = data_line
        .split_whitespace()
        .map(|t| {
            u64::from_str_radix(t, 16)
                .map(f64::from_bits)
                .map_err(|e| format!("matrix word {t:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let words = nrows
        .checked_mul(*ncols)
        .ok_or_else(|| format!("matrix {nrows}x{ncols} overflows"))?;
    if data.len() != words {
        return Err(format!(
            "matrix {nrows}x{ncols} needs {words} words, got {}",
            data.len()
        ));
    }
    Ok(Matrix::from_vec(*nrows, *ncols, data))
}

/// [`TuckerMeta::new`] after checking what it asserts: one nonzero order
/// shared by both shapes and `1 ≤ K_n ≤ L_n` in every mode.
fn checked_meta(dims: Vec<usize>, core: Vec<usize>) -> Result<TuckerMeta, String> {
    if dims.is_empty() || dims.len() != core.len() {
        return Err(format!(
            "dims {dims:?} and core {core:?} need one nonzero order"
        ));
    }
    if let Some(n) = (0..dims.len()).find(|&n| core[n] == 0 || core[n] > dims[n]) {
        return Err(format!(
            "core length K_{n} = {} is not in 1..=L_{n} = {}",
            core[n], dims[n]
        ));
    }
    Ok(TuckerMeta::new(dims, core))
}

/// Mode `n`'s factor: a matrix that must be `L_n × K_n`.
fn parse_factor<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    meta: &TuckerMeta,
    n: usize,
) -> Result<Matrix, String> {
    let f = parse_matrix(lines)?;
    if (f.nrows(), f.ncols()) != (meta.l(n), meta.k(n)) {
        return Err(format!(
            "mode-{n} factor is {}x{}, expected {}x{}",
            f.nrows(),
            f.ncols(),
            meta.l(n),
            meta.k(n)
        ));
    }
    Ok(f)
}

/// A full factor list under `key`: `count` must be the order `N`.
fn parse_factors<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    meta: &TuckerMeta,
    count: usize,
    key: &str,
) -> Result<Vec<Matrix>, String> {
    if count != meta.order() {
        return Err(format!(
            "{key}: {count} factors for an order-{} problem",
            meta.order()
        ));
    }
    (0..count).map(|n| parse_factor(lines, meta, n)).collect()
}

fn push_stats(s: &mut String, st: &SweepStats) {
    s.push_str(&format!(
        "stats {} {} {} {} {} {} {} {} {} {} {} {:016x}\n",
        st.ttm_compute.as_nanos(),
        st.ttm_comm.as_nanos(),
        st.regrid_comm.as_nanos(),
        st.svd.as_nanos(),
        st.gram_comm.as_nanos(),
        st.wall.as_nanos(),
        st.comm_wall.as_nanos(),
        st.ttm_volume,
        st.regrid_volume,
        st.gram_volume,
        st.kernel_bytes,
        st.error.to_bits(),
    ));
    match &st.provenance {
        Some(p) => {
            match p.predicted_comm {
                Some(d) => s.push_str(&format!("predicted {}\n", d.as_nanos())),
                None => s.push_str("predicted -\n"),
            }
            s.push_str(&format!("plan {}\n", p.plan));
        }
        None => s.push_str("plan -\n"),
    }
}

fn parse_stats<'a>(lines: &mut impl Iterator<Item = &'a str>) -> Result<SweepStats, String> {
    let line = lines.next().ok_or("missing stats line")?;
    let rest = line
        .strip_prefix("stats ")
        .ok_or_else(|| format!("expected stats line, got {line:?}"))?;
    let toks: Vec<&str> = rest.split_whitespace().collect();
    if toks.len() != 12 {
        return Err(format!("stats needs 12 fields, got {}", toks.len()));
    }
    let ns = |i: usize| -> Result<Duration, String> {
        toks[i]
            .parse::<u64>()
            .map(Duration::from_nanos)
            .map_err(|e| format!("stats field {i}: {e}"))
    };
    let int = |i: usize| -> Result<u64, String> {
        toks[i]
            .parse::<u64>()
            .map_err(|e| format!("stats field {i}: {e}"))
    };
    let mut st = SweepStats {
        ttm_compute: ns(0)?,
        ttm_comm: ns(1)?,
        regrid_comm: ns(2)?,
        svd: ns(3)?,
        gram_comm: ns(4)?,
        wall: ns(5)?,
        comm_wall: ns(6)?,
        ttm_volume: int(7)?,
        regrid_volume: int(8)?,
        gram_volume: int(9)?,
        kernel_bytes: int(10)?,
        error: f64::from_bits(
            u64::from_str_radix(toks[11], 16).map_err(|e| format!("error bits: {e}"))?,
        ),
        provenance: None,
    };
    let mut line = lines.next().ok_or("missing plan line")?;
    let predicted_comm = match line.strip_prefix("predicted ") {
        Some("-") => {
            line = lines.next().ok_or("missing plan line")?;
            None
        }
        Some(n) => {
            let d = n
                .parse::<u64>()
                .map(Duration::from_nanos)
                .map_err(|e| format!("predicted: {e}"))?;
            line = lines.next().ok_or("missing plan line")?;
            Some(d)
        }
        None => None,
    };
    let plan = line
        .strip_prefix("plan ")
        .ok_or_else(|| format!("expected plan line, got {line:?}"))?;
    if plan != "-" {
        st.provenance = Some(PlanProvenance {
            plan: plan.to_string(),
            predicted_comm,
        });
    } else if predicted_comm.is_some() {
        return Err("predicted comm without a plan".to_string());
    }
    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(seed: u64, r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |i, j| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((i * 31 + j) as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
    }

    fn sample() -> SweepCheckpoint {
        let meta = TuckerMeta::new([8, 7, 6], [3, 3, 2]);
        let stats = SweepStats {
            ttm_compute: Duration::from_nanos(123),
            ttm_comm: Duration::from_nanos(45),
            wall: Duration::from_nanos(999),
            comm_wall: Duration::from_nanos(77),
            ttm_volume: 1024,
            error: 0.123_456_789_123_456_78,
            provenance: Some(PlanProvenance {
                plan: "(opt-tree, dynamic)".to_string(),
                predicted_comm: Some(Duration::from_nanos(76)),
            }),
            ..SweepStats::default()
        };
        SweepCheckpoint {
            meta,
            total_sweeps: 4,
            init_factors: Some(vec![mat(1, 8, 3), mat(2, 7, 3), mat(3, 6, 2)]),
            committed: vec![CommittedSweep {
                factors: vec![mat(4, 8, 3), mat(5, 7, 3), mat(6, 6, 2)],
                stats,
            }],
            partial: vec![Some(mat(7, 8, 3)), None, None],
        }
    }

    #[test]
    fn text_round_trip_is_bit_exact() {
        let ck = sample();
        let back = SweepCheckpoint::from_text(&ck.to_text()).unwrap();
        assert_eq!(back.meta.input().dims(), ck.meta.input().dims());
        assert_eq!(back.total_sweeps, 4);
        assert_eq!(back.resume_sweep(), 1);
        for (a, b) in back
            .init_factors
            .as_ref()
            .unwrap()
            .iter()
            .zip(ck.init_factors.as_ref().unwrap())
        {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
        let (a, b) = (&back.committed[0], &ck.committed[0]);
        assert_eq!(a.stats.error.to_bits(), b.stats.error.to_bits());
        assert_eq!(a.stats.ttm_compute, b.stats.ttm_compute);
        assert_eq!(a.stats.provenance, b.stats.provenance);
        for (x, y) in a.factors.iter().zip(&b.factors) {
            assert_eq!(x.max_abs_diff(y), 0.0);
        }
        assert_eq!(
            back.partial[0]
                .as_ref()
                .unwrap()
                .max_abs_diff(ck.partial[0].as_ref().unwrap()),
            0.0
        );
        assert!(back.partial[1].is_none());
        // `predone` sees the partial leaf; basis factors are the committed
        // sweep's output.
        assert_eq!(back.predone().len(), 3);
        assert_eq!(
            back.basis_factors()[0].max_abs_diff(&ck.committed[0].factors[0]),
            0.0
        );
    }

    #[test]
    fn save_load_survives_a_restart() {
        let ck = sample();
        let path =
            std::env::temp_dir().join(format!("tucker-ckpt-test-{}.txt", std::process::id()));
        ck.save(&path).unwrap();
        // A "restarted process" only has the path.
        let back = SweepCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.resume_sweep(), 1);
        assert_eq!(
            back.committed[0].stats.error.to_bits(),
            ck.committed[0].stats.error.to_bits()
        );
        assert_eq!(back.to_text(), ck.to_text());
    }

    /// `sample()`'s text with `from` replaced by `to` (which must occur).
    fn edited(from: &str, to: &str) -> String {
        let text = sample().to_text();
        assert!(text.contains(from), "{from:?} not in the sample text");
        text.replacen(from, to, 1)
    }

    #[test]
    fn malformed_meta_is_an_error() {
        for (from, to) in [
            ("core 3 3 2", "core 9 3 2"),
            ("core 3 3 2", "core 3 3"),
            ("core 3 3 2", "core 3 0 2"),
            ("dims 8 7 6\ncore 3 3 2", "dims\ncore"),
        ] {
            let err = SweepCheckpoint::from_text(&edited(from, to)).unwrap_err();
            assert!(
                err.contains("core") || err.contains("dims"),
                "{to:?}: {err}"
            );
        }
    }

    #[test]
    fn huge_counts_are_an_error_not_an_allocation() {
        for (from, to) in [
            ("init 3\n", "init 18446744073709551615\n"),
            ("committed 1\n", "committed 18446744073709551615\n"),
            ("factors 3\n", "factors 18446744073709551615\n"),
            ("partial 3\n", "partial 18446744073709551615\n"),
        ] {
            assert!(
                SweepCheckpoint::from_text(&edited(from, to)).is_err(),
                "{to:?}"
            );
        }
    }

    #[test]
    fn overflowing_matrix_header_is_an_error() {
        let text = edited(
            "init 3\nmatrix 8 3\n",
            "init 3\nmatrix 4294967296 4294967297\n",
        );
        let err = SweepCheckpoint::from_text(&text).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn factors_must_be_l_by_k_one_per_mode() {
        // Same 24 words, transposed header: a 3x8 where an 8x3 belongs.
        let err =
            SweepCheckpoint::from_text(&edited("init 3\nmatrix 8 3\n", "init 3\nmatrix 3 8\n"))
                .unwrap_err();
        assert!(err.contains("expected 8x3"), "{err}");
    }

    #[test]
    fn partial_list_must_have_one_entry_per_mode() {
        let short = edited("partial 3\n", "partial 2\n").replacen("mode 2 -\n", "", 1);
        let err = SweepCheckpoint::from_text(&short).unwrap_err();
        assert!(err.contains("partial"), "{err}");
        let long = edited("partial 3\n", "partial 4\n") + "mode 3 -\n";
        assert!(SweepCheckpoint::from_text(&long).is_err());
    }

    #[test]
    fn log_commits_only_when_all_live_ranks_report() {
        let log = RecoveryLog::new(2);
        log.begin_epoch(
            3,
            Some(PlanProvenance {
                plan: "p".into(),
                predicted_comm: Some(Duration::from_nanos(5)),
            }),
        );
        log.record_init(&[mat(1, 4, 2), mat(2, 4, 2)]);
        log.record_init(&[mat(9, 4, 2), mat(9, 4, 2)]); // loses: first wins
        let init = log
            .checkpoint(&TuckerMeta::new([4, 4], [2, 2]), 1)
            .init_factors;
        assert_eq!(init.unwrap()[0].max_abs_diff(&mat(1, 4, 2)), 0.0);

        let fs = [mat(3, 4, 2), mat(4, 4, 2)];
        let stats = SweepStats {
            error: 0.5,
            ..SweepStats::default()
        };
        log.leaf_done(0, 0, &fs[0]);
        log.sweep_done(0, &fs, &stats);
        log.sweep_done(0, &fs, &stats);
        assert_eq!(log.committed_count(), 0, "two of three ranks reported");
        log.sweep_done(0, &fs, &stats);
        assert_eq!(log.committed_count(), 1);
        let c = log.committed();
        assert_eq!(
            c[0].stats.provenance.as_ref().unwrap().plan,
            "p",
            "committed sweeps carry the epoch provenance"
        );
        // Late reporters of a committed sweep are ignored.
        log.sweep_done(0, &fs, &stats);
        assert_eq!(log.committed_count(), 1);
    }

    #[test]
    fn restore_then_resumed_commit_voids_the_prediction() {
        let meta = TuckerMeta::new([4, 4], [2, 2]);
        let log = RecoveryLog::new(2);
        log.begin_epoch(
            2,
            Some(PlanProvenance {
                plan: "p64".into(),
                predicted_comm: Some(Duration::from_nanos(5)),
            }),
        );
        log.record_init(&[mat(1, 4, 2), mat(2, 4, 2)]);
        // Sweep 0 is interrupted after one leaf on one rank.
        log.leaf_done(0, 1, &mat(3, 4, 2));
        let ck = log.checkpoint(&meta, 3);
        assert_eq!(ck.resume_sweep(), 0);
        assert!(ck.partial[1].is_some() && ck.partial[0].is_none());
        assert_eq!(ck.basis_factors()[0].max_abs_diff(&mat(1, 4, 2)), 0.0);

        // Restart: restore into a fresh log, resume with one survivor.
        let log2 = RecoveryLog::new(2);
        log2.restore(&ck);
        log2.begin_epoch(
            1,
            Some(PlanProvenance {
                plan: "p63".into(),
                predicted_comm: Some(Duration::from_nanos(4)),
            }),
        );
        let fs = [mat(5, 4, 2), mat(6, 4, 2)];
        log2.sweep_done(0, &fs, &SweepStats::default());
        assert_eq!(log2.committed_count(), 1);
        let c = log2.committed();
        let prov = c[0].stats.provenance.as_ref().unwrap();
        assert_eq!(prov.plan, "p63");
        assert_eq!(
            prov.predicted_comm, None,
            "a resumed sweep only partially ran under the new plan"
        );
        // The next (full) sweep keeps its prediction.
        log2.sweep_done(1, &fs, &SweepStats::default());
        let c = log2.committed();
        assert_eq!(
            c[1].stats.provenance.as_ref().unwrap().predicted_comm,
            Some(Duration::from_nanos(4))
        );
    }
}
