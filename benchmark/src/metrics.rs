//! The benchmark's metric registry — the single list `BENCHMARK.json`
//! mirrors (a unit test holds the two together) — and the result line the
//! driver reads.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees; every workload reports every one.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A metric of one layer, reported by the traced run.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read only by the test that holds `BENCHMARK.json` to this list.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "request_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "request_tail_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "requests_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[Layer] = &[
    // The issue's workload-specific headline quantities. The driver's
    // contract wants every end-to-end metric from every workload, so the
    // ones only some workloads have live here (exact ones are also guarded
    // by the correctness checks).
    layer("sweep_s", "s", Lower),
    layer("plan_cost_ratio", "ratio", Lower),
    layer("modeled_comm_us", "us", Lower),
    layer("modeled_volume_elems", "elements", Lower),
    layer("latency_p95_ms", "ms", Lower),
    // tensor
    layer("tensor.ttm.busy_s", "s", Lower),
    layer("tensor.ttm.calls", "count", Lower),
    layer("tensor.ttm.flops", "flop", Lower),
    layer("tensor.ttm.gflops", "GFLOP/s", Higher),
    layer("tensor.ttm.bytes_computed", "bytes", Lower),
    layer("tensor.ttm.ops_per_byte", "flop/byte", Higher),
    layer("tensor.ttm.roofline_frac", "fraction", Higher),
    layer("tensor.gram.busy_s", "s", Lower),
    layer("tensor.gram.calls", "count", Lower),
    layer("tensor.gram.flops", "flop", Lower),
    layer("tensor.gram.gflops", "GFLOP/s", Higher),
    layer("tensor.gram.bytes_computed", "bytes", Lower),
    layer("tensor.gram.ops_per_byte", "flop/byte", Higher),
    layer("tensor.gram.roofline_frac", "fraction", Higher),
    layer("tensor.workspace.pooled_bytes_hwm", "bytes", Lower),
    layer("tensor.view.bytes_copied", "bytes", Lower),
    // linalg
    layer("linalg.evd.busy_s", "s", Lower),
    layer("linalg.pack.bytes_packed", "bytes", Lower),
    layer("linalg.pack.gemm_gflops", "GFLOP/s", Higher),
    layer("linalg.pack.syrk_gflops", "GFLOP/s", Higher),
    // machine ceilings
    layer("machine.fma_gflops", "GFLOP/s", Higher),
    layer("machine.triad_gbs", "GB/s", Higher),
    layer("machine.triad_array_bytes", "bytes", Higher),
    layer("machine.llc_bytes", "bytes", Higher),
    // core::executor
    layer("executor.loop_s", "s", Lower),
    layer("executor.init_s", "s", Lower),
    layer("executor.self_s", "s", Lower),
    layer("executor.seq_decompose_s", "s", Lower),
    layer("executor.par_efficiency", "fraction", Higher),
    // core::engine
    layer("engine.run_s", "s", Lower),
    layer("engine.sweep_wall_s", "s", Lower),
    layer("engine.setup_s", "s", Lower),
    layer("engine.plan_s", "s", Lower),
    // distsim
    layer("distsim.ttm_compute_s", "s", Lower),
    layer("distsim.ttm_comm_s", "s", Lower),
    layer("distsim.regrid_comm_s", "s", Lower),
    layer("distsim.gram_svd_s", "s", Lower),
    layer("distsim.gram_comm_s", "s", Lower),
    layer("distsim.comm_wall_s", "s", Lower),
    layer("distsim.volume.ttm_elems", "elements", Lower),
    layer("distsim.volume.regrid_elems", "elements", Lower),
    layer("distsim.volume.gram_elems", "elements", Lower),
    layer("distsim.mesh.switches", "count", Lower),
    layer("distsim.mesh.workers", "count", Higher),
    layer("distsim.mesh.threads_peak", "count", Lower),
    layer("distsim.dist_ttm.probe_s", "s", Lower),
    layer("distsim.dist_gram.probe_s", "s", Lower),
    layer("distsim.regrid.probe_s", "s", Lower),
    // core::plan
    layer("plan.search_p50_s", "s", Lower),
    layer("plan.search_max_s", "s", Lower),
    layer("plan.lineup_s", "s", Lower),
    layer("plan.cache_hit_s", "s", Lower),
    layer("plan.flops_ratio_vs_chain", "ratio", Lower),
    layer("plan.volume_ratio_vs_static", "ratio", Lower),
    layer("plan.predict_exec_abs_ns", "ns", Lower),
    // core::serve
    layer("serve.lat_repeat_p50_ms", "ms", Lower),
    layer("serve.lat_unique_p50_ms", "ms", Lower),
    layer("serve.cache_hit_rate", "fraction", Higher),
    layer("serve.coalesced_frac", "fraction", Higher),
    layer("serve.batched_frac", "fraction", Higher),
    layer("serve.sweeps_executed_over_requested", "ratio", Lower),
    layer("serve.queue_depth_hwm", "count", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.worker_panics", "count", Lower),
    layer("serve.worker_busy_frac", "fraction", Higher),
    // the harness itself
    layer("bench.trace_overhead_frac", "fraction", Lower),
    layer("bench.unattributed_frac", "fraction", Lower),
    layer("bench.clock_factor", "ratio", Higher),
];

/// Per-layer values of one traced run. A layer a workload bypasses keeps
/// its zeros: no calls, no busy time.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// # Panics
    /// Panics on a name missing from [`PER_LAYER`] (a typo in the harness)
    /// or a non-finite value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|l| l.name == name),
            "unregistered layer metric {name}"
        );
        assert!(value.is_finite(), "layer metric {name} is {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The line the driver reads: one JSON object, last on standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repo root declares exactly this registry.
    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares a metric the registry lacks"
        );
        for w in crate::workloads::NAMES {
            assert!(text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
        assert_eq!(
            text.matches("\"why\"").count(),
            crate::workloads::NAMES.len()
        );
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            12,
            0,
            &[("request_s", 0.5312, "s"), ("peak_rss_mb", 90.25, "MiB")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"request_s\": {\"value\": 0.5312, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 90.25, \"unit\": \"MiB\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "unregistered layer metric")]
    fn unknown_layer_names_are_rejected() {
        Layers::default().set("tensor.ttm.bsy_s", 1.0);
    }
}
