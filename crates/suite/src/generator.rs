//! The metadata benchmark generator (paper §6.1).
//!
//! Recipe from the paper: for each mode, a length `L_n ∈ {20, 50, 100, 400}`
//! and a compression ratio `L_n/K_n ∈ {1.25, 2, 5, 10}` (all sixteen
//! `(L, K)` combinations are integral); tensors with cardinality above
//! `8·10⁹` are discarded. HOOI cost is invariant under mode permutation, so
//! tensors are enumerated as **multisets** of per-mode `(L, ratio)` pairs.
//!
//! The paper reports 1134 five-dimensional and 642 six-dimensional tensors;
//! its exact de-duplication convention is not specified and no convention we
//! tried reproduces those counts (our full multiset enumerations have 10312
//! and 7710 members, pinned by `enumeration_counts_are_stable` below).
//! [`paper_sized_subsample`]
//! deterministically thins the full enumeration to exactly the paper's
//! sizes, preserving the parameter-space coverage.

use tucker_core::TuckerMeta;

/// The mode lengths of §6.1.
pub(crate) const LENGTHS: [usize; 4] = [20, 50, 100, 400];

/// The compression ratios `L/K` of §6.1 (paired `K` values are integral for
/// every length).
pub(crate) const RATIOS: [f64; 4] = [1.25, 2.0, 5.0, 10.0];

/// The cardinality cap of §6.1.
pub(crate) const CARDINALITY_CAP: f64 = 8e9;

/// One per-mode choice: `(L, K)`.
fn pair_choices() -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(16);
    for &l in &LENGTHS {
        for &r in &RATIOS {
            let k = (l as f64 / r).round() as usize;
            debug_assert!(
                (l as f64 / r).fract() == 0.0,
                "non-integral K for L={l}, r={r}"
            );
            out.push((l, k));
        }
    }
    out
}

/// Enumerate the full benchmark for `order`-dimensional tensors: all
/// multisets of `(L, K)` pairs of the given size whose input cardinality is
/// at most `CARDINALITY_CAP`. Deterministic (lexicographic) order.
pub fn full_enumeration(order: usize) -> Vec<TuckerMeta> {
    assert!(order >= 1, "order must be positive");
    let choices = pair_choices();
    let mut out = Vec::new();
    let mut stack: Vec<usize> = Vec::with_capacity(order);
    enumerate_multisets(&choices, order, 0, 1.0, &mut stack, &mut out);
    out
}

fn enumerate_multisets(
    choices: &[(usize, usize)],
    order: usize,
    min_idx: usize,
    card: f64,
    stack: &mut Vec<usize>,
    out: &mut Vec<TuckerMeta>,
) {
    if stack.len() == order {
        let ls: Vec<usize> = stack.iter().map(|&i| choices[i].0).collect();
        let ks: Vec<usize> = stack.iter().map(|&i| choices[i].1).collect();
        out.push(TuckerMeta::new(ls, ks));
        return;
    }
    for i in min_idx..choices.len() {
        let next_card = card * choices[i].0 as f64;
        // Prune: remaining modes have length >= 20, the minimum; even the
        // smallest completion must fit under the cap.
        let remaining = (order - stack.len() - 1) as i32;
        if next_card * 20f64.powi(remaining) > CARDINALITY_CAP {
            continue;
        }
        stack.push(i);
        enumerate_multisets(choices, order, i, next_card, stack, out);
        stack.pop();
    }
}

/// Deterministically thin `all` to exactly `target` members by taking evenly
/// spaced elements of the canonical enumeration order.
///
/// # Panics
/// Panics if `target` exceeds the enumeration size.
pub fn paper_sized_subsample(all: &[TuckerMeta], target: usize) -> Vec<TuckerMeta> {
    assert!(
        target <= all.len(),
        "cannot subsample {target} from {}",
        all.len()
    );
    if target == all.len() {
        return all.to_vec();
    }
    (0..target)
        .map(|i| {
            // Evenly spaced indices covering the full range.
            let idx = i * all.len() / target;
            all[idx].clone()
        })
        .collect()
}

/// The 5-D benchmark at the paper's size (1134 tensors).
pub fn benchmark_5d() -> Vec<TuckerMeta> {
    paper_sized_subsample(&full_enumeration(5), 1134)
}

/// The 6-D benchmark at the paper's size (642 tensors).
pub fn benchmark_6d() -> Vec<TuckerMeta> {
    paper_sized_subsample(&full_enumeration(6), 642)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_pairs_are_integral() {
        let choices = pair_choices();
        assert_eq!(choices.len(), 16);
        for &(l, k) in &choices {
            assert!(k >= 1 && k <= l);
            // K*r == L exactly for one of the ratios.
            assert!(RATIOS
                .iter()
                .any(|&r| (l as f64 / r - k as f64).abs() < 1e-9));
        }
    }

    #[test]
    fn enumeration_respects_cap() {
        for order in [5usize, 6] {
            let all = full_enumeration(order);
            for m in &all {
                assert!(m.input_cardinality() <= CARDINALITY_CAP, "{m}");
                assert_eq!(m.order(), order);
            }
        }
    }

    #[test]
    fn enumeration_counts_are_stable() {
        // A change here silently changes every percentile figure (and the
        // committed fig11c/d/f CSVs), so pin the counts.
        assert_eq!(full_enumeration(5).len(), 10312);
        assert_eq!(full_enumeration(6).len(), 7710);
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        let all = full_enumeration(5);
        let set: std::collections::HashSet<String> = all.iter().map(|m| m.to_string()).collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn multisets_are_canonical() {
        // Each member's (L, K) pairs appear in non-decreasing choice order,
        // so permuted duplicates cannot occur.
        let all = full_enumeration(5);
        // Spot-check: no tensor is a mode permutation of another.
        let canon = |m: &TuckerMeta| {
            let mut pairs: Vec<(usize, usize)> = (0..m.order()).map(|n| (m.l(n), m.k(n))).collect();
            pairs.sort_unstable();
            pairs
        };
        let set: std::collections::HashSet<Vec<(usize, usize)>> = all.iter().map(canon).collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn paper_sized_counts() {
        assert_eq!(benchmark_5d().len(), 1134);
        assert_eq!(benchmark_6d().len(), 642);
    }

    #[test]
    fn subsample_is_deterministic_and_spread() {
        let all = full_enumeration(5);
        let s1 = paper_sized_subsample(&all, 100);
        let s2 = paper_sized_subsample(&all, 100);
        assert_eq!(s1.len(), 100);
        for (a, b) in s1.iter().zip(&s2) {
            assert_eq!(a, b);
        }
        // First and (near-)last elements of the enumeration are covered.
        assert_eq!(&s1[0], &all[0]);
        assert!(all.iter().position(|m| m == s1.last().unwrap()).unwrap() > all.len() * 9 / 10);
    }

    #[test]
    fn max_tensor_is_large_but_capped() {
        let all = full_enumeration(5);
        let max = all
            .iter()
            .map(|m| m.input_cardinality())
            .fold(0.0, f64::max);
        assert!(
            max > 1e9,
            "benchmark should contain billion-element tensors"
        );
        assert!(max <= CARDINALITY_CAP);
    }
}
