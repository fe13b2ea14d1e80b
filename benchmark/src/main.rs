//! The tucker workspace benchmark. See `README.md` for the metric and
//! workload glossary and `../BENCHMARK.json` for the driver's contract.
//!
//! ```text
//! tucker-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tucker-benchmark run         [--seed <n>] [--seconds <s>]
//! tucker-benchmark trace       [--seed <n>] [--seconds <s>]
//! tucker-benchmark check-noise [--seed <n>] [--seconds <s>]
//! tucker-benchmark smoke
//! ```
//!
//! The first form is what the driver runs: one workload in this process,
//! human-readable detail first, the result object as the last line. The
//! others run every workload, each in a child process of its own.

mod machine;
mod metrics;
mod pace;
mod stats;
mod trace;
mod traced;
mod workloads;

use metrics::{result_line, Better, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode, Stdio};
use workloads::{dist, host, plan, serve, Outcome, RunCfg};

/// `BENCHMARK.json`'s `run_seconds`, the default length of a run.
const RUN_SECONDS: f64 = 12.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: tucker-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         tucker-benchmark <run|trace|check-noise> [--seed <n>] [--seconds <s>]\n       \
         tucker-benchmark smoke",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

/// `--key value` pairs after the optional subcommand.
fn flag<T: std::str::FromStr>(args: &[String], key: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == key) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{key} needs a value")),
    }
}

fn run_workload(name: &str, cfg: &RunCfg) -> Option<Outcome> {
    Some(match name {
        "host-dense3d" => host::run(&host::DENSE3D, cfg),
        "host-skinny5d" => host::run(&host::SKINNY5D, cfg),
        "dist-measured" => dist::run(&dist::MEASURED, cfg),
        "cluster-virtual" => dist::run(&dist::VIRTUAL, cfg),
        "plan-suite" => plan::run(cfg),
        "serve-mix" => serve::run(cfg),
        _ => return None,
    })
}

/// Driver mode: one workload, in this process.
fn single(name: &str, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let tracer = traced.then(trace::Tracer::default);
    let cfg = RunCfg {
        seed,
        seconds,
        tracer: tracer.as_ref(),
    };
    let Some(out) = run_workload(name, &cfg) else {
        return usage();
    };
    println!(
        "{name}  seed {seed}  {} run, {} threads; times at the nominal clock (raw beside)",
        if traced { "traced" } else { "untraced" },
        machine::nproc()
    );
    println!("{}", workloads::note("request_s", "s", 1.0, &out.requests));
    println!("{}", workloads::note("setup_s", "s", 1.0, &out.setup));
    for line in &out.notes {
        println!("{line}");
    }

    let metrics: Vec<(&'static str, f64, &'static str)> = if let Some(tracer) = &tracer {
        // Relative to the working directory, which the driver sets to the
        // checkout root: the run writes nowhere else.
        let dir = "benchmark/out";
        let path = format!("{dir}/trace-{name}.json");
        let spans = tracer.spans();
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_trace_json(&spans)))
        {
            Ok(()) => println!("  {} spans written to {path}", spans.len()),
            Err(e) => println!("  could not write {path}: {e}"),
        }
        PER_LAYER
            .iter()
            .map(|m| (m.name, out.layers.get(m.name), m.unit))
            .collect()
    } else {
        let requests = pace::norm(&out.requests);
        let value = |name: &str| match name {
            "request_s" => stats::median(&requests),
            "request_tail_s" => stats::quantile(&requests, out.tail_q),
            "requests_per_s" => stats::median(&out.rates),
            "peak_rss_mb" => stats::median(&out.peak_rss_mb),
            "setup_s" => stats::median(&pace::norm(&out.setup)),
            other => unreachable!("end-to-end metric {other} has no source"),
        };
        END_TO_END
            .iter()
            .map(|m| (m.name, value(m.name), m.unit))
            .collect()
    };
    for (name, value, unit) in metrics.iter().filter(|m| m.1 != 0.0) {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    println!(
        "  fail_frac                            {:>16.6} fraction ({} of {} operations)",
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    );
    let correct = out.failed == 0;
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child's parsed result line.
struct Child {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Pull `"name": {"value": v, …}` pairs out of a result line written by
/// [`result_line`] (no general JSON parser needed for our own output).
fn parse_result(line: &str) -> Option<Child> {
    let correct = line.contains("\"correct\": true");
    let body = line.split_once("\"metrics\": {")?.1;
    let metrics = body
        .split("\"unit\"")
        .filter_map(|chunk| {
            let (head, value) = chunk.rsplit_once("{\"value\": ")?;
            let name = head.rsplit('"').nth(1)?;
            let value = value.trim_end_matches([',', ' ']).parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect();
    Some(Child { correct, metrics })
}

/// Run one workload in a child process, echoing its detail lines unless
/// `quiet`.
fn child(name: &str, seed: u64, seconds: f64, traced: bool, quiet: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    if !quiet {
        for l in &lines {
            println!("{l}");
        }
    }
    let parsed = parse_result(last).ok_or(format!("{name}: no result line"))?;
    if !out.status.success() || !parsed.correct {
        for l in lines.iter().filter(|l| l.contains("CHECK FAILED")) {
            eprintln!("{l}");
        }
        return Err(format!("{name}: incorrect ({})", out.status));
    }
    Ok(parsed)
}

/// Every workload once; `Err` names the first that failed.
fn set(seed: u64, seconds: f64, traced: bool, quiet: bool) -> Result<Vec<Child>, String> {
    workloads::NAMES
        .iter()
        .map(|w| child(w, seed, seconds, traced, quiet))
        .collect()
}

/// Two untraced sets back to back; every end-to-end pair must agree within
/// the metric's bound.
fn check_noise(seed: u64, seconds: f64) -> Result<(), String> {
    let first = set(seed, seconds, false, true)?;
    let second = set(seed, seconds, false, true)?;
    let mut worst = Vec::new();
    for ((w, a), b) in workloads::NAMES.iter().zip(&first).zip(&second) {
        for m in END_TO_END {
            let get = |c: &Child| c.metrics.iter().find(|x| x.0 == m.name).map(|x| x.1);
            let (Some(x), Some(y)) = (get(a), get(b)) else {
                return Err(format!("{w}: {} missing", m.name));
            };
            let worsened = match m.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            println!(
                "{w:<16} {:<16} {x:>14.6} {y:>14.6} {:<5} {:+7.2} % (bound {:.0} %)",
                m.name,
                m.unit,
                100.0 * worsened,
                100.0 * m.bound
            );
            if worsened.abs() > m.bound {
                worst.push(format!(
                    "{} on {w} differs by {:.1} % between two sets of the same code (bound {:.0} %)",
                    m.name,
                    100.0 * worsened.abs(),
                    100.0 * m.bound
                ));
            }
        }
    }
    if worst.is_empty() {
        Ok(())
    } else {
        Err(worst.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = (|| {
        Ok::<_, String>((
            flag::<String>(&args, "--workload")?,
            flag::<u64>(&args, "--seed")?.unwrap_or(1),
            flag::<f64>(&args, "--seconds")?,
            flag::<u8>(&args, "--trace")?.unwrap_or(0) != 0,
        ))
    })();
    let (workload, seed, seconds, traced) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let seconds_or_default = seconds.unwrap_or(RUN_SECONDS);
    if let Some(name) = workload {
        return single(&name, seed, seconds_or_default, traced);
    }
    let outcome = match args.first().map(String::as_str) {
        Some("run") => set(seed, seconds_or_default, false, false).map(|_| ()),
        Some("trace") => set(seed, seconds_or_default, true, false).map(|_| ()),
        Some("check-noise") => check_noise(seed, seconds_or_default),
        // One request per workload: correctness and schema, no numbers.
        Some("smoke") => set(seed, 0.0, false, true).and_then(|children| {
            for (w, c) in workloads::NAMES.iter().zip(&children) {
                if c.metrics.len() != END_TO_END.len() || c.metrics.iter().any(|m| m.1 <= 0.0) {
                    return Err(format!("{w}: malformed result line"));
                }
                println!("{w}: ok");
            }
            Ok(())
        }),
        _ => return usage(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip() {
        let line = result_line(
            true,
            9,
            0,
            &[("request_s", 0.25, "s"), ("requests_per_s", 4.0, "1/s")],
        );
        let c = parse_result(&line).unwrap();
        assert!(c.correct);
        assert_eq!(
            c.metrics,
            vec![
                ("request_s".to_string(), 0.25),
                ("requests_per_s".to_string(), 4.0)
            ]
        );
        assert!(
            !parse_result(&result_line(false, 9, 1, &[]))
                .unwrap()
                .correct
        );
        assert!(parse_result("no result here").is_none());
    }

    #[test]
    fn flags_parse_or_complain() {
        let args: Vec<String> = ["run", "--seed", "7", "--seconds"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag::<u64>(&args, "--seed"), Ok(Some(7)));
        assert_eq!(flag::<u64>(&args, "--trace"), Ok(None));
        assert!(flag::<f64>(&args, "--seconds").is_err());
    }
}
