//! Regenerate every table and figure of the paper's evaluation (§6) and
//! every `BENCH_*.json` the repository tracks.
//!
//! ```text
//! cargo run --release -p tucker-bench --bin experiments -- all
//! cargo run --release -p tucker-bench --bin experiments -- <experiment> [--sample N] [--max-p N] [--clients N]
//! cargo run --release -p tucker-bench --bin experiments -- repro [--check]
//! ```
//!
//! An `<experiment>` is a row of [`tucker_bench::generators::ARTIFACTS`]
//! (each generator documents its own numbers and gates) or `summary`. Every
//! experiment prints a report, writes its artifact under `results/`, and
//! then exits 1 with a `GATE FAILED:` line if its own numbers contradict
//! what it is there to show. `--sample` sizes the measured figures, `--max-p`
//! caps the virtual-time sweeps, `--clients` sizes the serving bench.
//!
//! `repro` regenerates every artifact currently present under `results/`;
//! with `--check` it first snapshots the committed files, diffs each
//! regenerated artifact against its snapshot under the kinds the generator
//! declared leaf by leaf (DESIGN.md, "Artifact contract": `model` tight,
//! `host` structure only, `bounded` under its bound), restores the snapshot,
//! and prints one summary table — exiting non-zero on any drift or failed
//! gate.

use tucker_bench::artifact::{Artifact, Gate};
use tucker_bench::generators::{summary, Entry, Opts, ARTIFACTS};
use tucker_bench::write_results;

fn usage() -> ! {
    let names: Vec<&str> = ARTIFACTS.iter().map(|e| e.cmd).collect();
    eprintln!(
        "usage: experiments [<experiment>] [--sample N] [--max-p N] [--clients N] [--check]\n\
         experiments: all repro summary {}",
        names.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut what: Option<String> = None;
    let mut opts = Opts::default();
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--sample" => &mut opts.sample,
            "--max-p" => &mut opts.max_p,
            "--clients" => &mut opts.clients,
            "--check" => {
                check = true;
                continue;
            }
            name if !name.starts_with('-') && what.is_none() => {
                what = Some(arg);
                continue;
            }
            other => {
                eprintln!("unexpected argument '{other}'");
                usage();
            }
        };
        match args.next().and_then(|v| v.parse().ok()) {
            Some(n) => *slot = n,
            None => {
                eprintln!("{arg} needs a non-negative integer");
                usage();
            }
        }
    }

    let failed: Vec<String> = match what.as_deref().unwrap_or("all") {
        "summary" => {
            summary();
            Vec::new()
        }
        "repro" => repro(check, &opts),
        "all" => {
            let failed = ARTIFACTS
                .iter()
                .filter_map(|e| run(e, &opts).1.err())
                .collect();
            summary();
            failed
        }
        name => match ARTIFACTS.iter().find(|e| e.cmd == name) {
            Some(e) => run(e, &opts).1.err().into_iter().collect(),
            None => {
                eprintln!("unknown experiment '{name}'");
                usage();
            }
        },
    };
    // Every artifact is on disk by now: a failed gate never costs the file
    // that records the numbers it failed on.
    for why in &failed {
        eprintln!("{why}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}

/// Run one generator, persist what it produced, and hand back the artifact
/// (for `repro` to diff under its declaration) with the generator's verdict,
/// as the line to print if it failed.
fn run(e: &Entry, opts: &Opts) -> (Artifact, Gate) {
    let (artifact, gate) = (e.generate)(opts);
    let path = write_results(e.file, &artifact.render());
    println!("-> {}\n", path.display());
    let gate = gate.map_err(|why| format!("GATE FAILED: {}: {why}", e.file));
    (artifact, gate)
}

/// Regenerate every artifact currently committed under `results/`; with
/// `check`, diff each fresh file against the committed snapshot under the
/// artifact's own declaration, restore the snapshot and print one summary
/// table. Returns one line per failure: drifted artifacts and generators' own
/// gates.
fn repro(check: bool, opts: &Opts) -> Vec<String> {
    let dir = std::path::Path::new("results");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    if names.is_empty() {
        eprintln!("results/ is empty; run `experiments -- all` once to seed the artifacts");
        std::process::exit(2);
    }
    println!(
        "== Repro: regenerating {} committed artifacts{} ==\n",
        names.len(),
        if check { " (check mode)" } else { "" }
    );

    let mut failed: Vec<String> = Vec::new();
    let mut table: Vec<String> = Vec::new();
    let mut drifted = 0;
    for name in &names {
        let Some(entry) = ARTIFACTS.iter().find(|e| e.file == name) else {
            println!("   (no generator for {name}; left untouched)");
            continue;
        };
        let committed = std::fs::read_to_string(dir.join(name)).expect("read committed artifact");
        let (artifact, gate) = run(entry, opts);
        failed.extend(gate.err());
        if !check {
            continue;
        }
        let d = artifact.diff(&committed);
        // Every regenerated byte is scratch: put the committed file back so
        // `repro --check` never dirties the tree it certifies.
        write_results(name, &committed);
        let status = if let Some(s) = &d.structural {
            format!("STRUCTURAL: {s}")
        } else if !d.mismatches.is_empty() {
            for m in d.mismatches.iter().take(5) {
                println!("   {name}: {m}");
            }
            format!("DRIFTED ({} fields)", d.mismatches.len())
        } else if d.compared == 0 {
            "ok (structure)".to_string()
        } else {
            "ok".to_string()
        };
        if !d.ok() {
            drifted += 1;
            failed.push(format!("NOT REPRODUCED: {name}: {status}"));
        }
        let worst_rel = if d.worst_key.is_empty() {
            "-".to_string()
        } else {
            format!("{:.1e}", d.worst_rel)
        };
        let worst_bounded = d.worst_bounded.map_or(String::new(), |(key, v, bound)| {
            format!("; nearest its bound: {key} = {v:.1e} of {bound:.0e}")
        });
        table.push(format!(
            "{name:<28} {:>8} {:>7}  {worst_rel:>9}  {status}{worst_bounded}",
            d.compared, d.ignored,
        ));
    }
    if check {
        println!(
            "\n{:<28} {:>8} {:>7}  {:>9}  status",
            "artifact", "compared", "host", "worst rel"
        );
        for line in &table {
            println!("{line}");
        }
        println!(
            "\n{} of {} artifacts reproduced, {} failed gate(s)",
            table.len() - drifted,
            table.len(),
            failed.len() - drifted
        );
    }
    failed
}
