//! The artifact contract (DESIGN.md §12): every leaf of a `results/` file is
//! written by a call that also states what kind of number it is, so the
//! writer and `repro --check` read one declaration.
//!
//! A JSON artifact is an [`Obj`] tree built with [`Obj::model`],
//! [`Obj::host`], [`Obj::bounded`]; a CSV artifact is a [`Table`] whose cells
//! share one kind. [`Obj::render`] is the only JSON writer in the workspace.

use crate::repro::{diff_csv, diff_json, FileDiff};
use std::collections::BTreeMap;

/// How `repro --check` treats a leaf.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Deterministic given the code — counts, bytes, plan and grid names,
    /// errors, virtual-clock seconds. Compared tight.
    Model,
    /// Host-clock seconds and what derives from them, the machine's width,
    /// scheduler-dependent counters. Only its presence is compared.
    Host,
    /// A roundoff difference its bench gates on a bound: `|value| <= bound`
    /// must hold on both sides, which are never compared with each other.
    Bounded(f64),
}

/// A scalar a leaf can be written from, as JSON text. Integers, strings and
/// bools render as themselves, a bare `f64` shortest-round-trip; [`Fix`] and
/// [`Sci`] pin the digits, which makes the precision a field is written at
/// part of its declaration.
pub trait Value {
    /// The JSON literal.
    fn json(&self) -> String;
}

macro_rules! value_as {
    ($fmt:literal: $($t:ty),*) => {$(
        impl Value for $t {
            fn json(&self) -> String {
                format!($fmt, self)
            }
        }
    )*};
}
value_as!("{}": usize, u32, u64, u128, bool);
value_as!("{:?}": f64);

impl Value for &str {
    fn json(&self) -> String {
        let mut out = String::from('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }
}

impl Value for String {
    fn json(&self) -> String {
        self.as_str().json()
    }
}

/// `Fix(x, d)`: `x` with `d` digits after the point (`{:.d}`).
pub struct Fix(pub f64, pub usize);
/// `Sci(x, d)`: `x` in scientific notation with `d` mantissa digits (`{:.de}`).
pub struct Sci(pub f64, pub usize);

impl Value for Fix {
    fn json(&self) -> String {
        format!("{:.*}", self.1, self.0)
    }
}

impl Value for Sci {
    fn json(&self) -> String {
        format!("{:.*e}", self.1, self.0)
    }
}

/// Seconds at nanosecond resolution — what every clock field is written at.
pub fn secs(s: f64) -> Fix {
    Fix(s, 9)
}

#[derive(Clone, Debug)]
enum Node {
    /// A scalar (as JSON text) and its declared kind.
    Leaf(String, Kind),
    Arr(Vec<Node>),
    Obj(Obj),
}

/// A JSON object under construction: keys in insertion order, every leaf
/// carrying its [`Kind`]. The root `Obj` of an artifact is its document.
#[derive(Clone, Debug, Default)]
pub struct Obj(Vec<(String, Node)>);

/// The root object of a JSON artifact.
pub type Doc = Obj;

/// Declared [`Kind`] per leaf path with array indices erased
/// (`rows[].wall_s`): all a diff needs, and independent of how many rows a
/// run produced. Look a flattened path up with [`kind_of`].
pub type Kinds = BTreeMap<String, Kind>;

/// `rows[3].wall_s` → `rows[].wall_s`.
fn erase_indices(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    let mut in_index = false;
    for c in path.chars() {
        match c {
            '[' => in_index = true,
            ']' => in_index = false,
            _ if in_index => continue,
            _ => {}
        }
        out.push(c);
    }
    out
}

/// The kind `kinds` declares for a flattened leaf path (`rows[3].wall_s`).
pub fn kind_of(kinds: &Kinds, path: &str) -> Option<Kind> {
    kinds.get(&erase_indices(path)).copied()
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    #[must_use]
    fn put(mut self, key: &str, node: Node) -> Obj {
        self.0.push((key.to_string(), node));
        self
    }

    /// A [`Kind::Model`] leaf.
    #[must_use]
    pub fn model(self, key: &str, v: impl Value) -> Obj {
        self.put(key, Node::Leaf(v.json(), Kind::Model))
    }

    /// A [`Kind::Host`] leaf.
    #[must_use]
    pub fn host(self, key: &str, v: impl Value) -> Obj {
        self.put(key, Node::Leaf(v.json(), Kind::Host))
    }

    /// A [`Kind::Bounded`] leaf: `v` is a roundoff difference gated at `bound`.
    #[must_use]
    pub fn bounded(self, key: &str, v: impl Value, bound: f64) -> Obj {
        self.put(key, Node::Leaf(v.json(), Kind::Bounded(bound)))
    }

    /// An array of [`Kind::Model`] scalars (shapes, rank lists).
    #[must_use]
    pub fn model_list<V: Value>(self, key: &str, vs: impl IntoIterator<Item = V>) -> Obj {
        let leaves = vs.into_iter().map(|v| Node::Leaf(v.json(), Kind::Model));
        self.put(key, Node::Arr(leaves.collect()))
    }

    /// A nested object.
    #[must_use]
    pub fn obj(self, key: &str, o: Obj) -> Obj {
        self.put(key, Node::Obj(o))
    }

    /// An array of objects, one per row.
    #[must_use]
    pub fn rows(self, key: &str, rows: impl IntoIterator<Item = Obj>) -> Obj {
        self.put(key, Node::Arr(rows.into_iter().map(Node::Obj).collect()))
    }

    /// The document as written to disk.
    pub fn render(&self) -> String {
        let mut out = String::new();
        write_obj(self, 0, &mut out);
        out.push('\n');
        out
    }

    /// Every leaf as `(flattened path, JSON text, kind)`, in document order —
    /// paths as [`crate::repro::flatten_json`] spells them.
    pub fn leaves(&self) -> Vec<(String, &str, Kind)> {
        fn walk<'a>(n: &'a Node, path: String, out: &mut Vec<(String, &'a str, Kind)>) {
            match n {
                Node::Leaf(text, kind) => out.push((path, text, *kind)),
                Node::Arr(items) => {
                    for (i, item) in items.iter().enumerate() {
                        walk(item, format!("{path}[{i}]"), out);
                    }
                }
                Node::Obj(o) => {
                    for (k, child) in &o.0 {
                        walk(child, format!("{path}.{k}"), out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        for (k, child) in &self.0 {
            walk(child, k.clone(), &mut out);
        }
        out
    }

    /// The declaration alone.
    ///
    /// # Panics
    /// Panics if two rows declare one field with two kinds.
    pub fn kinds(&self) -> Kinds {
        let mut kinds = Kinds::new();
        for (path, _, kind) in self.leaves() {
            if let Some(prev) = kinds.insert(erase_indices(&path), kind) {
                assert_eq!(prev, kind, "{path} is declared with two kinds");
            }
        }
        kinds
    }
}

fn is_scalar_or_scalars(n: &Node) -> bool {
    match n {
        Node::Leaf(..) => true,
        Node::Arr(items) => items.iter().all(|i| matches!(i, Node::Leaf(..))),
        Node::Obj(_) => false,
    }
}

fn write_node(n: &Node, indent: usize, out: &mut String) {
    match n {
        Node::Leaf(text, _) => out.push_str(text),
        Node::Arr(items) => {
            let members = items.iter().map(|i| (None, i));
            write_members(['[', ']'], members, is_scalar_or_scalars(n), indent, out);
        }
        Node::Obj(o) => write_obj(o, indent, out),
    }
}

fn write_obj(o: &Obj, indent: usize, out: &mut String) {
    let flat = o.0.iter().all(|(_, c)| is_scalar_or_scalars(c));
    let members = o.0.iter().map(|(k, c)| (Some(k.as_str()), c));
    write_members(['{', '}'], members, flat, indent, out);
}

/// One container: inline when nothing below it holds a container of
/// containers, otherwise one member per line at `indent + 2`.
fn write_members<'a>(
    [open, close]: [char; 2],
    members: impl Iterator<Item = (Option<&'a str>, &'a Node)>,
    inline: bool,
    indent: usize,
    out: &mut String,
) {
    out.push(open);
    let mut empty = true;
    for (key, child) in members {
        if inline {
            out.push_str(if empty { "" } else { ", " });
        } else {
            out.push_str(if empty { "\n" } else { ",\n" });
            out.push_str(&" ".repeat(indent + 2));
        }
        empty = false;
        if let Some(k) = key {
            out.push_str(&k.json());
            out.push_str(": ");
        }
        write_node(child, indent + 2, out);
    }
    if !inline && !empty {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
    }
    out.push(close);
}

/// A CSV artifact: one header line, pre-formatted rows, one kind for every
/// cell — `host: false` for the analytic paper tables (`model`, compared cell
/// by cell), `true` for percentile curves of measured wall times (shape only).
#[derive(Clone, Debug)]
pub struct Table {
    /// The header line.
    pub header: &'static str,
    /// The data lines.
    pub rows: Vec<String>,
    /// Whether the cells are host-clock measurements.
    pub host: bool,
}

/// What a generator hands back: the file's content with its declaration.
#[derive(Clone, Debug)]
pub enum Artifact {
    /// A `BENCH_*.json` document.
    Json(Doc),
    /// A paper table or figure series.
    Csv(Table),
}

impl Artifact {
    /// The bytes written under `results/`.
    pub fn render(&self) -> String {
        match self {
            Artifact::Json(doc) => doc.render(),
            Artifact::Csv(t) => {
                let lines = std::iter::once(t.header).chain(t.rows.iter().map(String::as_str));
                lines.flat_map(|l| [l, "\n"]).collect()
            }
        }
    }

    /// Diff this (regenerated) artifact against the committed file, under
    /// its own declaration.
    pub fn diff(&self, committed: &str) -> FileDiff {
        match self {
            Artifact::Json(doc) => diff_json(committed, &doc.render(), &doc.kinds()),
            Artifact::Csv(t) => diff_csv(committed, &self.render(), t.host),
        }
    }
}

/// A generator's verdict on its own numbers: `Err` names every failed gate.
pub type Gate = Result<(), String>;

/// Collects failed gates while a generator runs, so the artifact is always
/// produced and every failure is named.
#[derive(Debug, Default)]
pub struct Gates(Vec<String>);

impl Gates {
    /// Record `why()` as a failed gate unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.0.push(why());
        }
    }

    /// `Ok` iff every check held.
    pub fn finish(self) -> Gate {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(self.0.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repro::{flatten_json, Atom};

    #[test]
    fn render_round_trips_through_the_flattener() {
        let escaped = "a \"quoted\" back\\slash\nnew\tline \u{1} é";
        let doc = Obj::new()
            .model("schema", "t/v1")
            .model("neg_zero", -0.0)
            .model("tiny", 1e-10)
            .host("fixed", Fix(-0.04, 1))
            .bounded("gap", Sci(2.2204e-16, 3), 1e-10)
            .model("escaped", escaped)
            .model_list("empty", Vec::<usize>::new())
            .model_list("dims", [48usize, 40, 36])
            .rows("no_rows", [])
            .obj("p50s", Obj::new().model("flag", true).host("n", 7u64))
            .rows(
                "rows",
                [
                    Obj::new().model("p", 64usize).obj("deep", Obj::new()),
                    Obj::new()
                        .model("p", 256usize)
                        .model_list("grid", [2u32, 4]),
                ],
            );
        let text = doc.render();
        let flat = flatten_json(&text).expect("the renderer writes JSON");
        let num = Atom::Num;
        let want = [
            ("schema", Atom::Str("t/v1".into())),
            ("neg_zero", num(-0.0)),
            ("tiny", num(1e-10)),
            ("fixed", num(-0.0)),
            ("gap", num(2.220e-16)),
            ("escaped", Atom::Str(escaped.into())),
            ("dims[0]", num(48.0)),
            ("dims[1]", num(40.0)),
            ("dims[2]", num(36.0)),
            ("p50s.flag", Atom::Bool(true)),
            ("p50s.n", num(7.0)),
            ("rows[0].p", num(64.0)),
            ("rows[1].p", num(256.0)),
            ("rows[1].grid[0]", num(2.0)),
            ("rows[1].grid[1]", num(4.0)),
        ];
        // Exactly the document's leaves, under the flattener's own paths.
        let paths: Vec<String> = doc.leaves().into_iter().map(|(p, ..)| p).collect();
        assert_eq!(paths, want.iter().map(|(p, _)| *p).collect::<Vec<_>>());
        assert_eq!(flat.len(), want.len(), "{text}");
        for (path, atom) in &want {
            match (atom, &flat[*path]) {
                // Bit-exact, so that -0.0 does not pass as 0.0.
                (Atom::Num(a), Atom::Num(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{path}"),
                (a, b) => assert_eq!(a, b, "{path}"),
            }
        }
        assert!(text.contains("\"empty\": []") && text.contains("\"deep\": {}"));
        // The declaration survives index erasure (and only indices are erased).
        let kinds = doc.kinds();
        assert_eq!(kind_of(&kinds, "rows[17].p"), Some(Kind::Model));
        assert_eq!(kind_of(&kinds, "rows[0].grid[3]"), Some(Kind::Model));
        assert_eq!(kind_of(&kinds, "p50s.n"), Some(Kind::Host));
        assert_eq!(kind_of(&kinds, "gap"), Some(Kind::Bounded(1e-10)));
        assert_eq!(kind_of(&kinds, "rows[0].q"), None);
    }

    #[test]
    fn layout_inlines_flat_containers_and_breaks_nested_ones() {
        let doc = Obj::new()
            .model("schema", "t/v1")
            .obj("net", Obj::new().model("alpha_ns", 2500u64))
            .model_list("ranks", [64usize, 256])
            .rows(
                "rows",
                [Obj::new().model("p", 64usize).host("s", secs(0.5))],
            );
        assert_eq!(
            doc.render(),
            "{\n  \"schema\": \"t/v1\",\n  \"net\": {\"alpha_ns\": 2500},\n  \
             \"ranks\": [64, 256],\n  \"rows\": [\n    {\"p\": 64, \"s\": 0.500000000}\n  ]\n}\n"
        );
    }

    #[test]
    #[should_panic(expected = "two kinds")]
    fn one_field_cannot_be_declared_with_two_kinds() {
        let rows = [Obj::new().model("x", 1usize), Obj::new().host("x", 2usize)];
        let _ = Obj::new().rows("rows", rows).kinds();
    }
}
