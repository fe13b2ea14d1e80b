//! The experiment harness behind the `experiments` binary: the artifact
//! contract ([`artifact`]), one generator per file under `results/`
//! ([`generators`]), and the diff `repro --check` runs over them ([`repro`]).

use tucker_core::TuckerMeta;

pub mod artifact;
pub mod generators;
pub mod repro;

/// Scale metadata down by the smallest integer factor that brings the input
/// cardinality under `max_card`, preserving mode proportions. Returns `None`
/// if the scaled core becomes too small to host `nranks` (no valid grid) —
/// such tensors are skipped by the measured experiments and the skip is
/// reported.
pub fn scale_for_measurement(
    meta: &TuckerMeta,
    max_card: f64,
    nranks: usize,
) -> Option<TuckerMeta> {
    let mut factor = 1usize;
    loop {
        let scaled = meta.scaled_down(factor);
        if scaled.input_cardinality() <= max_card {
            if scaled.core_cardinality() >= nranks as f64
                && !tucker_distsim::enumerate_valid_grids(nranks, scaled.core().dims()).is_empty()
            {
                return Some(scaled);
            }
            return None;
        }
        factor += 1;
        if factor > 4096 {
            return None;
        }
    }
}

/// Write a rendered artifact under `results/`, creating the directory if
/// needed. Returns the path written.
pub fn write_results(name: &str, body: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, body).expect("write results file");
    path
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let s: f64 = values.iter().map(|v| v.ln()).sum();
    (s / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_respects_cap_and_ranks() {
        let meta = TuckerMeta::new([400, 400, 100, 50, 20], [320, 80, 20, 10, 2]);
        let scaled = scale_for_measurement(&meta, 2e5, 8).expect("scalable");
        assert!(scaled.input_cardinality() <= 2e5);
        assert!(scaled.core_cardinality() >= 8.0);
        for n in 0..5 {
            assert!(scaled.k(n) <= scaled.l(n));
        }
    }

    #[test]
    fn scaling_returns_none_when_core_collapses() {
        // Extreme compression: core shrinks to 1 per mode long before the
        // input fits; 8 ranks are impossible.
        let meta = TuckerMeta::new([400, 400, 400, 400, 400], [40, 40, 40, 40, 40]);
        let s = scale_for_measurement(&meta, 100.0, 8);
        assert!(s.is_none());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }
}
