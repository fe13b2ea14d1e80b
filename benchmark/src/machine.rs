//! What the host can do, measured in the same process as the kernel
//! probes: multiply-add throughput, sustainable memory bandwidth, and the
//! process's own memory and cache facts read from procfs/sysfs.

use std::hint::black_box;
use std::time::Instant;

/// Harness thread budget: every load generator, backend and mesh resolves
/// to this (`RayonBackend::new()`, `MeshCfg { workers: 0 }`, client count).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(field))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set of this process, MiB (`VmHWM`): since the last
/// [`peak_rss_of`] began, or since the process started.
fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Run `f` and return the peak resident set the process reached during it:
/// the kernel's high-water mark is reset first (`5` to
/// `/proc/self/clear_refs`). A rare interleaving that needs 100 MiB more
/// then marks one request instead of the whole run. Where the reset is not
/// permitted the mark stays the process-lifetime one.
pub fn peak_rss_of<R>(f: impl FnOnce() -> R) -> (R, f64) {
    // Best effort: without the reset the reading is merely coarser.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let r = f();
    (r, peak_rss_mb())
}

/// Bytes this process may still claim: `MemAvailable`, capped by the
/// cgroup limit where one is set.
fn mem_available_bytes() -> Option<u64> {
    let info = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = info.lines().find_map(|l| l.strip_prefix("MemAvailable:"))?;
    let kb: u64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    let cgroup = std::fs::read_to_string("/sys/fs/cgroup/memory.max")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok());
    Some((kb * 1024).min(cgroup.unwrap_or(u64::MAX)))
}

fn parse_cache_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Sum of the distinct last-level caches visible to this process, from
/// sysfs (`None` where sysfs does not describe caches).
pub fn llc_bytes() -> Option<u64> {
    // (level, CPUs sharing it, bytes) of every distinct data/unified cache.
    let mut caches: Vec<(u32, String, u64)> = Vec::new();
    for cpu in std::fs::read_dir("/sys/devices/system/cpu").ok()?.flatten() {
        let name = cpu.file_name().to_string_lossy().into_owned();
        if !name.starts_with("cpu") || !name[3..].chars().all(|c| c.is_ascii_digit()) {
            continue;
        }
        let Ok(indices) = std::fs::read_dir(cpu.path().join("cache")) else {
            continue;
        };
        for idx in indices.flatten() {
            let read = |f: &str| std::fs::read_to_string(idx.path().join(f)).ok();
            let (Some(level), Some(size), Some(kind), Some(shared)) = (
                read("level").and_then(|l| l.trim().parse::<u32>().ok()),
                read("size").and_then(|s| parse_cache_size(&s)),
                read("type"),
                read("shared_cpu_list"),
            ) else {
                continue;
            };
            let shared = shared.trim().to_string();
            let known = caches.iter().any(|(l, s, _)| *l == level && *s == shared);
            if kind.trim() != "Instruction" && !known {
                caches.push((level, shared, size));
            }
        }
    }
    let last_level = caches.iter().map(|(l, _, _)| *l).max()?;
    let total: u64 = caches
        .iter()
        .filter(|(l, _, _)| *l == last_level)
        .map(|(_, _, s)| s)
        .sum();
    (total > 0).then_some(total)
}

/// Multiply-add throughput of `threads` threads, GFLOP/s: independent
/// accumulator lanes the compiler vectorises with the same target features
/// the kernels are built with (a mul and an add per lane step, 2 flops),
/// so this is the ceiling of *this build*, not of the silicon.
pub fn fma_gflops(threads: usize) -> f64 {
    const LANES: usize = 64;
    const STEPS: u64 = 8_000_000;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut acc = [0.0f64; LANES];
                for (i, a) in acc.iter_mut().enumerate() {
                    *a = 1.0 + (i + t) as f64 * 1e-3;
                }
                let (m, b) = (black_box(0.999_999_9f64), black_box(1e-7f64));
                for _ in 0..STEPS {
                    for a in acc.iter_mut() {
                        *a = *a * m + b;
                    }
                }
                black_box(acc);
            });
        }
    });
    let flops = 2.0 * LANES as f64 * STEPS as f64 * threads as f64;
    flops / t0.elapsed().as_secs_f64() / 1e9
}

/// Result of the bandwidth probe.
#[derive(Clone, Copy, Debug)]
pub struct Triad {
    /// Sustained `a = b + s·c` bandwidth over all threads, GB/s (three
    /// 8-byte streams per element: two reads and a write).
    pub gbs: f64,
    /// Bytes of each of the three arrays.
    pub array_bytes: u64,
    /// Detected last-level cache bytes (0: unknown).
    pub llc_bytes: u64,
    /// Whether each array is at least four times the last-level cache, the
    /// condition under which `gbs` is a memory (not cache) bandwidth and a
    /// roofline fraction may be reported.
    pub beyond_llc: bool,
}

/// Stream triad over `threads` threads. Each array is `4 × LLC` when three
/// of them fit in a quarter of the available memory; otherwise the probe
/// falls back to 64 MiB arrays and says so through `beyond_llc == false`.
pub fn triad(threads: usize) -> Triad {
    const FALLBACK_BYTES: u64 = 64 << 20;
    let llc = llc_bytes().unwrap_or(0);
    let budget = mem_available_bytes().unwrap_or(0) / 4;
    let want = 4 * llc;
    let beyond_llc = llc > 0 && 3 * want <= budget;
    let array_bytes = if beyond_llc { want } else { FALLBACK_BYTES };
    let n = (array_bytes / 8) as usize;

    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let chunk = n.div_ceil(threads);
    let mut best = f64::INFINITY;
    // First pass faults `a` in; the faster of the next two is reported.
    for pass in 0..3 {
        let s = black_box(3.0 + pass as f64);
        let t0 = Instant::now();
        std::thread::scope(|sc| {
            for ((ac, bc), cc) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                sc.spawn(move || {
                    for ((x, y), z) in ac.iter_mut().zip(bc).zip(cc) {
                        *x = y + s * z;
                    }
                });
            }
        });
        if pass > 0 {
            best = best.min(t0.elapsed().as_secs_f64());
        }
    }
    black_box(&a);
    Triad {
        gbs: 3.0 * array_bytes as f64 / best / 1e9,
        array_bytes,
        llc_bytes: llc,
        beyond_llc,
    }
}

/// Attainable GFLOP/s of a kernel with `ops_per_byte` arithmetic intensity.
pub fn roofline_gflops(fma_gflops: f64, triad_gbs: f64, ops_per_byte: f64) -> f64 {
    fma_gflops.min(triad_gbs * ops_per_byte)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("4096K\n"), Some(4 << 20));
        assert_eq!(parse_cache_size("260M"), Some(260 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("big"), None);
    }

    #[test]
    fn roofline_is_the_lower_ceiling() {
        assert_eq!(roofline_gflops(10.0, 4.0, 0.5), 2.0);
        assert_eq!(roofline_gflops(10.0, 4.0, 8.0), 10.0);
    }
}
