//! Artifact diffing for `experiments -- repro --check`. Every `BENCH_*.json`
//! is flattened to `(path, atom)` pairs (`rows[3].wall_s` → `Num(0.0016)`);
//! the two key sets must be identical, and each leaf is treated as the
//! artifact's own declaration says ([`Kinds`], read off the document the
//! generator built): `model` leaves compare tight, `host` leaves are counted
//! and skipped, `bounded` leaves must sit under their bound on both sides.
//! CSVs compare cell-wise under the `model` rule, or shape-only when the
//! table is declared `host`.

use crate::artifact::{kind_of, Kind, Kinds};
use std::collections::BTreeMap;

/// Relative tolerance of a non-integral `model` number: room for the last
/// printed digit of an error norm to move between instruction sets, none
/// for a nanosecond of virtual time.
pub const MODEL_REL_TOL: f64 = 1e-9;

/// A JSON leaf value.
#[derive(Clone, Debug, PartialEq)]
pub enum Atom {
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string literal.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// Outcome of diffing one artifact against its committed snapshot.
#[derive(Clone, Debug, Default)]
pub struct FileDiff {
    /// `model` and `bounded` leaves checked.
    pub compared: usize,
    /// `host` leaves (present on both sides, values not compared).
    pub ignored: usize,
    /// Worst relative deviation among compared `model` numbers.
    pub worst_rel: f64,
    /// Flattened path of the worst deviation.
    pub worst_key: String,
    /// The `bounded` leaf closest to its bound, either side:
    /// `(path, |value|, bound)`.
    pub worst_bounded: Option<(String, f64, f64)>,
    /// Human-readable mismatches (tolerance violations, type flips,
    /// string/bool changes). Empty ⇒ the artifact reproduced.
    pub mismatches: Vec<String>,
    /// Set when the two files do not even share a structure (parse error,
    /// key-set or row/column drift); value explains the drift.
    pub structural: Option<String>,
}

/// Relative deviation `|a − b| / max(|a|, |b|)`, 0 for exact equality
/// (including `−0` vs `0` and NaN vs NaN).
fn rel_dev(a: f64, b: f64) -> f64 {
    if a == b || (a.is_nan() && b.is_nan()) {
        return 0.0;
    }
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

impl FileDiff {
    /// The artifact reproduced under its declaration.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty() && self.structural.is_none()
    }

    /// Compare two `model` numbers at `key`: counts (both integral) must be
    /// equal, anything else within [`MODEL_REL_TOL`].
    fn model_num(&mut self, key: &str, x: f64, y: f64) {
        let dev = rel_dev(x, y);
        if dev > self.worst_rel {
            self.worst_rel = dev;
            self.worst_key = key.to_string();
        }
        let counts = x.fract() == 0.0 && y.fract() == 0.0;
        if dev > 0.0 && (counts || dev > MODEL_REL_TOL) {
            self.mismatches
                .push(format!("{key}: {x:e} -> {y:e} (rel {dev:.2e})"));
        }
    }
}

// ------------------------------------------------------------------ JSON

/// Flatten a JSON document to sorted `(path, atom)` pairs. Object keys
/// join with `.`, array elements index as `[i]`. Rejects trailing junk.
pub fn flatten_json(src: &str) -> Result<BTreeMap<String, Atom>, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let mut out = BTreeMap::new();
    parse_value(bytes, &mut pos, String::new(), &mut out)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(out)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(
    b: &[u8],
    pos: &mut usize,
    path: String,
    out: &mut BTreeMap<String, Atom>,
) -> Result<(), String> {
    const WORDS: [(&str, Atom); 3] = [
        ("true", Atom::Bool(true)),
        ("false", Atom::Bool(false)),
        ("null", Atom::Null),
    ];
    skip_ws(b, pos);
    let atom = match b.get(*pos) {
        // A container: members up to the closing bracket, an object's each
        // behind its `"key":`.
        Some(&open @ (b'{' | b'[')) => {
            let close = if open == b'{' { b'}' } else { b']' };
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&close) {
                *pos += 1;
                return Ok(());
            }
            let mut i = 0usize;
            loop {
                let child = if open == b'[' {
                    format!("{path}[{i}]")
                } else {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b':') {
                        return Err(format!("expected ':' at offset {pos}"));
                    }
                    *pos += 1;
                    let sep = if path.is_empty() { "" } else { "." };
                    format!("{path}{sep}{key}")
                };
                parse_value(b, pos, child, out)?;
                i += 1;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(c) if *c == close => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or closing bracket at offset {pos}")),
                }
            }
        }
        Some(b'"') => Atom::Str(parse_string(b, pos)?),
        Some(_) => {
            let rest = &b[*pos..];
            if let Some((w, atom)) = WORDS.iter().find(|(w, _)| rest.starts_with(w.as_bytes())) {
                *pos += w.len();
                atom.clone()
            } else {
                let digits = |c: &u8| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E');
                let len = rest.iter().take_while(|c| digits(c)).count();
                let lit = std::str::from_utf8(&rest[..len]).map_err(|e| e.to_string())?;
                let n = lit
                    .parse()
                    .map_err(|_| format!("bad number '{lit}' at offset {pos}"))?;
                *pos += len;
                Atom::Num(n)
            }
        }
        None => return Err("unexpected end of input".into()),
    };
    out.insert(path, atom);
    Ok(())
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at offset {pos}"));
    }
    *pos += 1;
    // Raw bytes of the input are UTF-8 already; escapes append to them.
    let mut s: Vec<u8> = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return String::from_utf8(s).map_err(|e| e.to_string()),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' | b'\\' | b'/' => s.push(esc),
                    b'n' => s.push(b'\n'),
                    b't' => s.push(b'\t'),
                    b'r' => s.push(b'\r'),
                    b'u' => {
                        let hex = std::str::from_utf8(b.get(*pos..*pos + 4).ok_or("short \\u")?)
                            .map_err(|e| e.to_string())?;
                        *pos += 4;
                        let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        let ch = char::from_u32(cp).ok_or("bad \\u codepoint")?;
                        s.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                    }
                    other => return Err(format!("unsupported escape '\\{}'", other as char)),
                }
            }
            _ => s.push(c),
        }
    }
    Err("unterminated string".into())
}

/// Diff two JSON documents under the declared `kinds`. Key-set drift and a
/// leaf nobody declared are structural.
pub fn diff_json(committed: &str, fresh: &str, kinds: &Kinds) -> FileDiff {
    let mut d = FileDiff::default();
    let parse = |side: &str, text: &str| {
        flatten_json(text).map_err(|e| format!("{side} file does not parse: {e}"))
    };
    let (a, b) = match (parse("committed", committed), parse("regenerated", fresh)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            d.structural = Some(e);
            return d;
        }
    };
    let only_a: Vec<&String> = a.keys().filter(|k| !b.contains_key(*k)).collect();
    let only_b: Vec<&String> = b.keys().filter(|k| !a.contains_key(*k)).collect();
    if !only_a.is_empty() || !only_b.is_empty() {
        d.structural = Some(format!(
            "key sets drifted ({} only committed, {} only regenerated; e.g. {})",
            only_a.len(),
            only_b.len(),
            only_a.first().or(only_b.first()).expect("nonempty drift")
        ));
        return d;
    }
    for (k, va) in &a {
        let vb = &b[k];
        let Some(kind) = kind_of(kinds, k) else {
            d.structural = Some(format!("{k} has no declared kind"));
            return d;
        };
        if kind == Kind::Host {
            d.ignored += 1;
            continue;
        }
        d.compared += 1;
        match (kind, va, vb) {
            (Kind::Bounded(bound), Atom::Num(x), Atom::Num(y)) => {
                for (side, v) in [("committed", x.abs()), ("regenerated", y.abs())] {
                    if v.is_nan() || v > bound {
                        d.mismatches
                            .push(format!("{k}: {side} {v:e} exceeds its bound {bound:e}"));
                    }
                    let nearest = d.worst_bounded.as_ref();
                    if nearest.is_none_or(|w| v / bound > w.1 / w.2) {
                        d.worst_bounded = Some((k.clone(), v, bound));
                    }
                }
            }
            (Kind::Model, Atom::Num(x), Atom::Num(y)) => d.model_num(k, *x, *y),
            (Kind::Model, _, _) if va == vb => {}
            _ => d.mismatches.push(format!("{k}: {va:?} -> {vb:?}")),
        }
    }
    d
}

// ------------------------------------------------------------------- CSV

/// Diff two CSVs: identical header line and row/column counts; unless the
/// table is declared `host`, numeric cells under the `model` rule and other
/// cells byte-equal.
pub fn diff_csv(committed: &str, fresh: &str, host: bool) -> FileDiff {
    let mut d = FileDiff::default();
    let a: Vec<&str> = committed.lines().collect();
    let b: Vec<&str> = fresh.lines().collect();
    if a.len() != b.len() {
        d.structural = Some(format!("row count drifted: {} -> {}", a.len(), b.len()));
        return d;
    }
    if a.first() != b.first() {
        d.structural = Some("header drifted".into());
        return d;
    }
    for (li, (ra, rb)) in a.iter().zip(&b).enumerate().skip(1) {
        let ca: Vec<&str> = ra.split(',').collect();
        let cb: Vec<&str> = rb.split(',').collect();
        if ca.len() != cb.len() {
            d.structural = Some(format!("column count drifted on line {}", li + 1));
            return d;
        }
        if host {
            d.ignored += ca.len();
            continue;
        }
        for (ci, (xa, xb)) in ca.iter().zip(&cb).enumerate() {
            d.compared += 1;
            let cell = format!("line {} col {}", li + 1, ci + 1);
            match (xa.parse::<f64>(), xb.parse::<f64>()) {
                (Ok(x), Ok(y)) => d.model_num(&cell, x, y),
                _ if xa == xb => {}
                _ => d.mismatches.push(format!("{cell}: '{xa}' -> '{xb}'")),
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_walks_nesting_arrays_and_exponent_numbers() {
        let m = flatten_json(
            "{\"a\": {\"b\": [1, 2.5e-3, -0.0]}, \"s\": \"x\", \"t\": true, \"n\": null}",
        )
        .unwrap();
        assert_eq!(m["a.b[0]"], Atom::Num(1.0));
        assert_eq!(m["a.b[1]"], Atom::Num(2.5e-3));
        assert_eq!(m["a.b[2]"], Atom::Num(-0.0));
        assert_eq!(m["s"], Atom::Str("x".into()));
        assert_eq!(m["t"], Atom::Bool(true));
        assert_eq!(m["n"], Atom::Null);
    }

    #[test]
    fn json_diff_tolerates_within_and_flags_beyond() {
        use crate::artifact::{Fix, Obj};
        const N: u64 = 1_000_000_000_000;
        let doc = |x: f64, n: u64, wall: f64| {
            let o = Obj::new().model("x", x).model("n", n);
            o.host("wall_s", Fix(wall, 1))
        };
        let a = doc(1.0, N, 5.0);
        let diff = |b: Obj| diff_json(&a.render(), &b.render(), &a.kinds());
        let within = diff(doc(1.0 + 1e-10, N, 9.0));
        assert!(within.ok(), "{:?}", within.mismatches);
        assert_eq!((within.compared, within.ignored), (2, 1));
        assert_eq!(diff(doc(1.0 + 1e-8, N, 9.0)).mismatches.len(), 1);
        // Counts are exact however large: one in 1e12 is 1e-12 relative.
        assert_eq!(diff(doc(1.0, N + 1, 5.0)).mismatches.len(), 1);
    }

    #[test]
    fn json_diff_reports_key_drift_as_structural() {
        use crate::artifact::Obj;
        let kinds = Obj::new().model("x", 1usize).kinds();
        let d = diff_json("{\"x\": 1}", "{\"y\": 1}", &kinds);
        assert!(d.structural.is_some());
        // Same keys on both sides, but nobody declared them.
        let d = diff_json("{\"y\": 1}", "{\"y\": 1}", &kinds);
        assert!(d.structural.is_some());
    }

    #[test]
    fn csv_diff_checks_cells_and_structure() {
        let a = "p,v\n1,2.0\n2,3.0\n";
        let ok = diff_csv(a, "p,v\n1,2.0\n2,3.0000000001\n", false);
        assert!(ok.ok());
        let bad = diff_csv(a, "p,v\n1,2.0\n2,4.0\n", false);
        assert_eq!(bad.mismatches.len(), 1);
        let drift = diff_csv(a, "p,v\n1,2.0\n", false);
        assert!(drift.structural.is_some());
        let host = diff_csv(a, "p,v\n1,9.0\n2,4.0\n", true);
        assert!(host.ok());
        assert_eq!((host.compared, host.ignored), (0, 4));
        assert!(diff_csv(a, "p,v\n1,9.0\n", true).structural.is_some());
    }
}
