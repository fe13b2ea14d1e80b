//! The artifact contract, held against the files the repository commits:
//! what a generator declares `model` is compared by `repro --check` and does
//! not move with the host's worker pool, what it declares `host` is not
//! compared, what it declares `bounded` is held to its bound.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use tucker_bench::artifact::{kind_of, Artifact, Doc, Kind, Kinds};
use tucker_bench::generators::{kernels_on, Opts, StreamShape, ARTIFACTS};
use tucker_bench::repro::diff_json;

/// Build the document of one `BENCH_*` generator (its gates are not the
/// subject here) at the smallest size, on `workers` mesh workers (0 = the
/// host's default pool).
fn doc_of(cmd: &str, workers: usize) -> Doc {
    let opts = Opts {
        max_p: 64,
        workers,
        ..Opts::default()
    };
    let entry = ARTIFACTS
        .iter()
        .find(|e| e.cmd == cmd)
        .expect("a generator");
    json((entry.generate)(&opts).0)
}

fn json(a: Artifact) -> Doc {
    match a {
        Artifact::Json(doc) => doc,
        Artifact::Csv(_) => panic!("not a JSON artifact"),
    }
}

fn committed(file: &str) -> String {
    let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Generators whose documents must not depend on the mesh (`views` runs no
/// mesh; its second run is what licenses the sweep counts of the
/// incremental arm as `model`).
const TWICE: [&str; 5] = ["scaling", "topology", "planner", "recovery", "views"];

/// Every `BENCH_*` document, built once for every test (`planner` alone
/// spends a minute certifying the DP against brute force): all of them on
/// the default pool, the [`TWICE`] ones again on one mesh worker, the two
/// sets side by side.
struct Docs {
    /// `(file, document)` on the default pool.
    pool: Vec<(&'static str, Doc)>,
    /// `(cmd, document)` on one mesh worker, in [`TWICE`] order.
    one: Vec<(&'static str, Doc)>,
}

fn docs() -> &'static Docs {
    static DOCS: OnceLock<Docs> = OnceLock::new();
    DOCS.get_or_init(|| {
        std::thread::scope(|s| {
            let one = s.spawn(|| TWICE.map(|cmd| (cmd, doc_of(cmd, 1))).to_vec());
            // The committed kernels artifact times 35 and 75 MB tensors;
            // its declaration is the same on toy ones.
            let toy = [([6, 5, 4], 2, 1)];
            let toy_streamed: StreamShape = (&[6, 5, 4], &[2, 3, 2], &[0, 2], 1);
            let pool = ARTIFACTS.iter().filter(|e| e.file.ends_with(".json"));
            let pool = pool.map(|e| match e.cmd {
                "kernels" => (e.file, json(kernels_on(&toy, &[(4, 2)], &toy_streamed).0)),
                cmd => (e.file, doc_of(cmd, 0)),
            });
            Docs {
                pool: pool.collect(),
                one: one.join().expect("the one-worker builds"),
            }
        })
    })
}

/// The text of `doc` with the first scalar written under `"key": ` replaced
/// by `f(scalar)`.
fn mutate_first(doc: &str, key: &str, f: impl Fn(&str) -> String) -> Option<String> {
    let needle = format!("\"{key}\": ");
    let mut from = 0;
    while let Some(at) = doc[from..].find(&needle) {
        let start = from + at + needle.len();
        let rest = &doc[start..];
        let len = if let Some(body) = rest.strip_prefix('"') {
            body.find('"')? + 2
        } else {
            rest.find([',', '}', ']', '\n'])?
        };
        if !rest.starts_with(['[', '{']) {
            return Some(format!(
                "{}{}{}",
                &doc[..start],
                f(&rest[..len]),
                &rest[len..]
            ));
        }
        from = start;
    }
    None
}

/// A different scalar of the same JSON type, `rel` away if it is a number.
fn nudge(lit: &str, rel: f64) -> String {
    match lit {
        "true" => "false".into(),
        "false" => "true".into(),
        s if s.starts_with('"') => format!("\"x{}", &s[1..]),
        n => {
            let x: f64 = n.parse().expect("a JSON number");
            let moved = if x.fract() == 0.0 {
                x + 1.0
            } else {
                x * (1.0 + rel)
            };
            format!("{moved:?}")
        }
    }
}

#[test]
fn every_declared_leaf_of_every_committed_artifact_is_treated_as_declared() {
    let decls: Vec<(&str, Kinds)> = docs().pool.iter().map(|(f, d)| (*f, d.kinds())).collect();
    assert_eq!(decls.len(), 8);
    for (file, kinds) in &decls {
        let text = committed(file);
        let clean = diff_json(&text, &text, kinds);
        assert!(
            clean.ok(),
            "{file}: {:?} {:?}",
            clean.structural,
            clean.mismatches
        );

        // One kind per field name within a file, so a textual mutation of
        // the first `"name": value` is a mutation of a leaf of that kind.
        let mut by_name: BTreeMap<&str, Kind> = BTreeMap::new();
        for (path, &kind) in kinds {
            let name = path.rsplit(['.', ']']).next().expect("a field name");
            if name.is_empty() {
                continue; // an element of a scalar array: `ranks[]`
            }
            if let Some(prev) = by_name.insert(name, kind) {
                assert_eq!(prev, kind, "{file}: `{name}` is declared with two kinds");
            }
        }
        for (name, kind) in by_name {
            let diff_after = |f: &dyn Fn(&str) -> String| {
                let mutated = mutate_first(&text, name, f)
                    .unwrap_or_else(|| panic!("{file}: no scalar `{name}`"));
                diff_json(&text, &mutated, kinds)
            };
            match kind {
                Kind::Model => {
                    // One part in a million: far inside the parent's 1e-6
                    // policy for these files, far outside this one's.
                    let d = diff_after(&|lit| nudge(lit, 1e-6));
                    assert_eq!(d.mismatches.len(), 1, "{file}: model `{name}` moved unseen");
                    assert!(d.mismatches[0].contains(name), "{}", d.mismatches[0]);
                    assert_eq!(d.compared, clean.compared);
                }
                Kind::Host => {
                    let d = diff_after(&|lit| nudge(lit, 1.0));
                    assert!(d.ok(), "{file}: host `{name}`: {:?}", d.mismatches);
                    assert_eq!(d.ignored, clean.ignored);
                }
                Kind::Bounded(bound) => {
                    let under = diff_after(&|_| format!("{:e}", bound / 2.0));
                    assert!(
                        under.ok(),
                        "{file}: `{name}` under its bound: {:?}",
                        under.mismatches
                    );
                    let over = diff_after(&|_| format!("{:e}", bound * 2.0));
                    assert_eq!(over.mismatches.len(), 1, "{file}: `{name}` over its bound");
                    assert!(
                        over.mismatches[0].contains("bound"),
                        "{}",
                        over.mismatches[0]
                    );
                }
            }
        }
    }

    // The leaves the substring policy hid, by name, and the ones it was
    // right to hide.
    let kind_of = |file: &str, path: &str| {
        let (_, kinds) = decls.iter().find(|(f, _)| *f == file).expect("declared");
        kind_of(kinds, path).unwrap_or_else(|| panic!("{file}: no {path}"))
    };
    for path in [
        "net.node_size",
        "rows[].topo_comm_s",
        "rows[].flat_comm_s",
        "rows[].topo_predicted_comm_s",
        "rows[].flat_predicted_comm_s",
        "rows[].control_comm_s",
        "rows[].control_predicted_comm_s",
        "rows[].comm_speedup",
    ] {
        assert_eq!(kind_of("BENCH_topology.json", path), Kind::Model, "{path}");
    }
    for path in [
        "predicted_comm_s",
        "executed_comm_s",
        "wall_s",
        "ttm_comm_s",
        "gram_comm_s",
        "regrid_comm_s",
    ] {
        let path = format!("rows[].{path}");
        assert_eq!(kind_of("BENCH_planner.json", &path), Kind::Model, "{path}");
    }
    // Under a `NetModel` compute is priced per flop, so the virtual wall and
    // its compute phases are model leaves like the communication.
    assert_eq!(
        kind_of("BENCH_topology.json", "rows[].topo_wall_s"),
        Kind::Model
    );
    for path in [
        "predicted_comm_s",
        "comm_wall_s",
        "wall_s",
        "ttm_compute_s",
        "svd_s",
        "ttm_comm_s",
        "gram_comm_s",
        "regrid_comm_s",
    ] {
        let path = format!("rows[].{path}");
        assert_eq!(kind_of("BENCH_scaling.json", &path), Kind::Model, "{path}");
    }
    for path in [
        "fail_sweep",
        "rows[].fail_sweep",
        "rows[].resumed_sweep",
        "rows[].wasted_sweeps_recover",
        "rows[].wasted_sweeps_failstop",
    ] {
        assert_eq!(kind_of("BENCH_recovery.json", path), Kind::Model, "{path}");
    }
    for (file, path) in [
        ("BENCH_scaling.json", "rows[].host_s"),
        ("BENCH_topology.json", "rows[].host_s"),
        ("BENCH_recovery.json", "rows[].recover_total_s"),
    ] {
        assert_eq!(kind_of(file, path), Kind::Host, "{file}: {path}");
    }
    assert_eq!(
        kind_of("BENCH_recovery.json", "rows[].error_gap"),
        Kind::Bounded(1e-10)
    );
}

/// The leaves of `doc` whose path ends in `.{field}`, as JSON text, in
/// document order.
fn column<'a>(doc: &'a Doc, field: &str) -> Vec<&'a str> {
    let suffix = format!(".{field}");
    let leaves = doc.leaves().into_iter();
    leaves
        .filter(|(path, ..)| path.ends_with(&suffix) || path == field)
        .map(|(_, text, _)| text)
        .collect()
}

/// The pooled build of the artifact `file`.
fn pooled(file: &str) -> &'static Doc {
    let (_, doc) = docs().pool.iter().find(|(f, _)| *f == file).expect("built");
    doc
}

#[test]
fn planner_document_certifies_the_dp_against_the_oracle() {
    // The joint DP agrees with the exhaustive oracle on every case: four
    // metas under both cost models, each over a non-empty candidate set.
    let planner = pooled("BENCH_planner.json");
    assert_eq!(column(planner, "dp_agreed"), ["8"]);
    assert_eq!(column(planner, "dp_total"), ["8"]);
    assert_eq!(column(planner, "agreed"), ["true"; 8]);
    for candidates in column(planner, "candidates") {
        assert!(candidates.parse::<usize>().expect("a count") > 0);
    }
}

#[test]
fn backends_document_holds_one_row_per_backend() {
    // One row per backend, in lineup order, each timed, each on a thread,
    // each with a relative error (the cross-backend 1e-10 agreement is
    // asserted where the lineup runs).
    let backends = pooled("BENCH_backends.json");
    assert_eq!(
        column(backends, "backend"),
        ["\"seq\"", "\"rayon\"", "\"distsim\""]
    );
    let num = |text: &str| text.parse::<f64>().expect("a number");
    for wall in column(backends, "wall_s") {
        assert!(num(wall) > 0.0, "zero wall");
    }
    for threads in column(backends, "threads") {
        assert!(num(threads) >= 1.0);
    }
    for error in column(backends, "error") {
        assert!((0.0..=1.0).contains(&num(error)), "error {error}");
    }
}

#[test]
fn model_leaves_do_not_depend_on_the_worker_pool_or_the_run() {
    for (cmd, one) in &docs().one {
        let file = ARTIFACTS
            .iter()
            .find(|e| e.cmd == *cmd)
            .expect("listed")
            .file;
        let pool = pooled(file);
        let (a, b) = (one.leaves(), pool.leaves());
        assert_eq!(a.len(), b.len(), "{cmd}");
        let mut model = 0;
        for ((path, x, kind), (path_b, y, kind_b)) in a.iter().zip(&b) {
            assert_eq!((path, kind), (path_b, kind_b), "{cmd}");
            if *kind == Kind::Model {
                assert_eq!(x, y, "{cmd}: model leaf {path} moved between two runs");
                model += 1;
            }
        }
        assert!(model > 0, "{cmd}: nothing declared model");
    }
}
