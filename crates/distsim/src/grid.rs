//! `N`-dimensional processor grids (paper §4).
//!
//! A grid `g = q₁ × … × q_N` with `∏ q_n = P` partitions a tensor into `P`
//! blocks (one per rank). The number of grids — valid or not — is
//! `ψ(P, N) = ∏_i C(e_i + N − 1, N − 1)` over the prime factorization
//! `P = ∏ p_i^{e_i}` (paper §4.2, Table 1). A grid is *valid* for a core
//! shape `K` when `q_n ≤ K_n` for every mode, which rules out empty blocks on
//! the intermediate tensors (§4.1).

use std::fmt;
use tucker_tensor::Dims;

/// A processor grid: the per-mode processor counts `(q₀, …, q_{N−1})`, plus
/// the **axis significance order** of the rank ↔ coordinate mixed radix.
///
/// By default (`Grid::new`) the convention is mode-0-fastest, matching the
/// tensor layout. A grid built with [`Grid::with_axes`] keeps the same block
/// decomposition but maps blocks to ranks in a different digit order:
/// `axes[0]` is the fastest-varying mode (stride 1), `axes[1]` the next,
/// and so on. Under a hierarchical network model this is the planner's
/// rank-ordering lever — giving a mode a small stride keeps its mode groups
/// inside node-aligned windows of consecutive ranks, turning that mode's
/// reduce-scatter into intra-node traffic.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Grid {
    q: Dims,
    axes: Dims,
}

impl Grid {
    /// Create a grid from per-mode counts (mode-0-fastest rank order).
    ///
    /// # Panics
    /// Panics if empty or any count is zero.
    pub fn new(q: impl Into<Vec<usize>>) -> Self {
        let q = q.into();
        assert!(!q.is_empty(), "grid must have at least one mode");
        assert!(q.iter().all(|&v| v > 0), "zero processor count in {q:?}");
        Grid {
            q: q[..].into(),
            axes: (0..q.len()).collect(),
        }
    }

    /// Create a grid with an explicit axis significance order: `axes[0]`
    /// varies fastest in the rank numbering.
    ///
    /// # Panics
    /// Panics on the [`Grid::new`] conditions or if `axes` is not a
    /// permutation of `0..q.len()`.
    pub fn with_axes(q: impl Into<Vec<usize>>, axes: impl Into<Vec<usize>>) -> Self {
        let mut g = Grid::new(q);
        let axes = axes.into();
        let mut seen = vec![false; g.q.len()];
        assert_eq!(axes.len(), g.q.len(), "axes arity mismatch");
        for &ax in &axes {
            assert!(ax < g.q.len() && !seen[ax], "axes must permute 0..order");
            seen[ax] = true;
        }
        g.axes = axes[..].into();
        g
    }

    /// The trivial `1 × 1 × … × 1` grid (single rank).
    pub fn trivial(order: usize) -> Self {
        Grid::new(vec![1; order])
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.q.len()
    }

    /// Processor count along mode `n`.
    #[inline]
    pub fn dim(&self, n: usize) -> usize {
        self.q[n]
    }

    /// All per-mode counts.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.q
    }

    /// `true` when the rank numbering is the default mode-0-fastest order.
    pub fn has_identity_axes(&self) -> bool {
        self.axes.iter().enumerate().all(|(i, &ax)| i == ax)
    }

    /// Total processors `P = ∏ q_n`.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.q.iter().product()
    }

    /// `true` iff `q_n ≤ k_n` for all modes (no empty blocks; paper §4.1).
    pub fn is_valid_for(&self, dims: &[usize]) -> bool {
        assert_eq!(dims.len(), self.order(), "dimension arity mismatch");
        self.q.iter().zip(dims).all(|(&q, &k)| q <= k)
    }

    /// Grid coordinate of `rank` (mixed radix in axis significance order;
    /// mode-0-fastest for default grids).
    #[cfg(test)]
    pub(crate) fn coord(&self, rank: usize) -> Vec<usize> {
        let mut c = vec![0usize; self.order()];
        self.coord_into(rank, &mut c);
        c
    }

    /// Grid coordinate of `rank`, written into a caller-provided buffer of
    /// length `order` (mixed radix in axis significance order;
    /// mode-0-fastest for default grids) — no allocation, for per-rank
    /// pricing loops.
    pub fn coord_into(&self, mut rank: usize, out: &mut [usize]) {
        debug_assert!(rank < self.nranks());
        debug_assert_eq!(out.len(), self.order());
        for &ax in &self.axes {
            out[ax] = rank % self.q[ax];
            rank /= self.q[ax];
        }
    }

    /// The rank stride of every mode, written into a caller-provided buffer
    /// of length `order`: `rank(c) = Σ c[n] · out[n]`, so stepping one
    /// coordinate along mode `n` moves the rank by `out[n]`.
    pub(crate) fn strides_into(&self, out: &mut [usize]) {
        debug_assert_eq!(out.len(), self.order());
        let mut stride = 1;
        for &ax in &self.axes {
            out[ax] = stride;
            stride *= self.q[ax];
        }
    }

    /// Inverse of [`Grid::coord`].
    #[cfg(test)]
    pub(crate) fn rank(&self, coord: &[usize]) -> usize {
        debug_assert_eq!(coord.len(), self.order());
        let mut r = 0;
        let mut stride = 1;
        for &ax in &self.axes {
            debug_assert!(coord[ax] < self.q[ax]);
            r += coord[ax] * stride;
            stride *= self.q[ax];
        }
        r
    }
}

impl fmt::Debug for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Grid<")?;
        for (i, q) in self.q.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{q}")?;
        }
        if !self.has_identity_axes() {
            write!(f, ";axes=")?;
            for (i, ax) in self.axes.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{ax}")?;
            }
        }
        write!(f, ">")
    }
}

impl fmt::Display for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, q) in self.q.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{q}")?;
        }
        if !self.has_identity_axes() {
            write!(f, "[a=")?;
            for (i, ax) in self.axes.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{ax}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// Prime factorization of `p` as `(prime, exponent)` pairs.
pub(crate) fn factorize(mut p: u64) -> Vec<(u64, u32)> {
    assert!(p > 0, "cannot factorize zero");
    let mut out = Vec::new();
    let mut d = 2u64;
    while d * d <= p {
        if p.is_multiple_of(d) {
            let mut e = 0;
            while p.is_multiple_of(d) {
                p /= d;
                e += 1;
            }
            out.push((d, e));
        }
        d += 1;
    }
    if p > 1 {
        out.push((p, 1));
    }
    out
}

/// Binomial coefficient `C(n, k)` in `u64` (panics on overflow).
///
/// The running division is exact: after multiplying by `n − i` the partial
/// product is `n·(n−1)…(n−i)`, which `(i + 1)!` divides.
fn binomial(n: u64, k: u64) -> u64 {
    let k = k.min(n.saturating_sub(k));
    let mut acc: u64 = 1;
    for i in 0..k {
        acc = acc.checked_mul(n - i).expect("binomial overflow") / (i + 1);
    }
    acc
}

/// `ψ(P, N)`: the number of ways to write `P` as an **ordered** product of
/// `N` factors (paper §4.2). This counts all grids, valid or not.
pub fn count_grids(p: u64, n: u32) -> u64 {
    assert!(n >= 1);
    factorize(p)
        .into_iter()
        .map(|(_, e)| binomial(e as u64 + n as u64 - 1, n as u64 - 1))
        .product()
}

/// Enumerate every grid of order `n` with `∏ q = p`, in lexicographic order.
pub fn enumerate_grids(p: usize, n: usize) -> Vec<Grid> {
    assert!(n >= 1 && p >= 1);
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(n);
    enumerate_rec(p, n, &mut cur, &mut out);
    out
}

fn enumerate_rec(p: usize, remaining: usize, cur: &mut Vec<usize>, out: &mut Vec<Grid>) {
    if remaining == 1 {
        cur.push(p);
        out.push(Grid::new(cur.clone()));
        cur.pop();
        return;
    }
    for d in divisors(p) {
        cur.push(d);
        enumerate_rec(p / d, remaining - 1, cur, out);
        cur.pop();
    }
}

/// Sorted divisors of `p`.
pub(crate) fn divisors(p: usize) -> Vec<usize> {
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1;
    while d * d <= p {
        if p.is_multiple_of(d) {
            small.push(d);
            if d != p / d {
                large.push(p / d);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

/// Enumerate only the grids valid for `dims` (i.e. `q_n ≤ dims[n]`).
///
/// `dims` should be the core shape `K` when optimizing the HOOI TTM
/// component (§4.1: validity on every intermediate tensor).
pub fn enumerate_valid_grids(p: usize, dims: &[usize]) -> Vec<Grid> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(dims.len());
    enumerate_valid_rec(p, dims, &mut cur, &mut out);
    out
}

fn enumerate_valid_rec(p: usize, dims: &[usize], cur: &mut Vec<usize>, out: &mut Vec<Grid>) {
    let n = cur.len();
    if n == dims.len() - 1 {
        if p <= dims[n] {
            cur.push(p);
            out.push(Grid::new(cur.clone()));
            cur.pop();
        }
        return;
    }
    for d in divisors(p) {
        if d > dims[n] {
            break;
        }
        cur.push(d);
        enumerate_valid_rec(p / d, dims, cur, out);
        cur.pop();
    }
}

/// Largest rank count `p' ≤ p` that admits at least one grid valid for
/// `dims`. Used by the mesh engine's failure recovery: after quarantining
/// dead ranks the survivor count may factor badly (e.g. 7 survivors on a
/// `[4,4,4]` tensor admit no valid grid), in which case the re-plan runs on
/// the largest usable subset and idles the rest.
///
/// Always ≥ 1 (the trivial grid is valid for every non-empty `dims`).
pub fn largest_usable_rank_count(p: usize, dims: &[usize]) -> usize {
    assert!(p >= 1, "need at least one rank");
    assert!(!dims.is_empty(), "need at least one mode");
    (1..=p)
        .rev()
        .find(|&q| !enumerate_valid_grids(q, dims).is_empty())
        .expect("p = 1 always admits the trivial grid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorize_basics() {
        assert_eq!(factorize(1), vec![]);
        assert_eq!(factorize(12), vec![(2, 2), (3, 1)]);
        assert_eq!(factorize(1024), vec![(2, 10)]);
        assert_eq!(factorize(97), vec![(97, 1)]);
    }

    #[test]
    fn psi_matches_paper_table1() {
        // Table 1 of the paper (P = 2^5, 2^10, 2^20; N = 5..10).
        let expect_p32: [u64; 6] = [126, 252, 462, 792, 1287, 2002];
        let expect_p1k: [u64; 6] = [1001, 3003, 8008, 19448, 43758, 92378];
        for (i, n) in (5u32..=10).enumerate() {
            assert_eq!(count_grids(1 << 5, n), expect_p32[i], "P=2^5 N={n}");
            assert_eq!(count_grids(1 << 10, n), expect_p1k[i], "P=2^10 N={n}");
        }
        // Spot values for P = 2^20 (paper rounds: 10626, 53130, 230K, 880K, 3.1M, 10M).
        assert_eq!(count_grids(1 << 20, 5), 10626);
        assert_eq!(count_grids(1 << 20, 6), 53130);
        assert_eq!(count_grids(1 << 20, 7), 230230);
        assert_eq!(count_grids(1 << 20, 10), 10015005);
    }

    #[test]
    fn enumeration_count_matches_psi() {
        for (p, n) in [(12usize, 3usize), (32, 5), (64, 4), (60, 3), (1, 4)] {
            let grids = enumerate_grids(p, n);
            assert_eq!(
                grids.len() as u64,
                count_grids(p as u64, n as u32),
                "p={p} n={n}"
            );
            for g in &grids {
                assert_eq!(g.nranks(), p);
            }
            // No duplicates.
            let set: std::collections::HashSet<Vec<usize>> =
                grids.iter().map(|g| g.dims().to_vec()).collect();
            assert_eq!(set.len(), grids.len());
        }
    }

    #[test]
    fn valid_grids_filtered() {
        let all = enumerate_grids(8, 3);
        let dims = [2usize, 4, 8];
        let valid = enumerate_valid_grids(8, &dims);
        let expect: Vec<&Grid> = all.iter().filter(|g| g.is_valid_for(&dims)).collect();
        assert_eq!(valid.len(), expect.len());
        for (a, b) in valid.iter().zip(expect) {
            assert_eq!(a.dims(), b.dims());
        }
        // e.g. <8,1,1> is invalid since 8 > 2.
        assert!(valid.iter().all(|g| g.dim(0) <= 2));
    }

    #[test]
    fn rank_coord_roundtrip() {
        let g = Grid::new([2, 3, 4]);
        assert_eq!(g.nranks(), 24);
        for r in 0..24 {
            assert_eq!(g.rank(&g.coord(r)), r);
        }
        // Mode-0 fastest.
        assert_eq!(g.coord(1), vec![1, 0, 0]);
        assert_eq!(g.coord(2), vec![0, 1, 0]);
    }

    #[test]
    fn axes_reorder_rank_numbering() {
        // Mode 2 fastest: rank 1 should be coord [0,0,1].
        let g = Grid::with_axes([2, 3, 4], [2, 0, 1]);
        assert!(!g.has_identity_axes());
        assert_eq!(g.coord(1), vec![0, 0, 1]);
        assert_eq!(g.coord(4), vec![1, 0, 0]);
        for r in 0..24 {
            assert_eq!(g.rank(&g.coord(r)), r);
        }
        // The fastest axis's mode group is a window of consecutive ranks.
        assert_eq!(mode_group(&g, 0, 2), vec![0, 1, 2, 3]);
        // The buffer-filling variants agree with the allocating ones.
        let (mut c, mut strides) = ([0usize; 3], [0usize; 3]);
        g.strides_into(&mut strides);
        assert_eq!(strides, [4, 8, 1]);
        for r in 0..24 {
            g.coord_into(r, &mut c);
            assert_eq!(c.to_vec(), g.coord(r));
            assert_eq!(c.iter().zip(&strides).map(|(a, b)| a * b).sum::<usize>(), r);
        }
        // Identity axes compare equal to the default construction.
        assert_eq!(Grid::with_axes([2, 3], [0, 1]), Grid::new([2, 3]));
        assert_ne!(Grid::with_axes([2, 3], [1, 0]), Grid::new([2, 3]));
        assert_eq!(format!("{}", Grid::with_axes([2, 3], [1, 0])), "2x3[a=1,0]");
    }

    /// The ranks whose grid coordinates agree with `rank`'s everywhere but
    /// mode `n` (the group a mode-`n` exchange runs in), ordered by their
    /// mode-`n` coordinate.
    fn mode_group(g: &Grid, rank: usize, n: usize) -> Vec<usize> {
        let (mut c, mut stride) = (g.coord(rank), vec![0; g.order()]);
        g.strides_into(&mut stride);
        let base = rank - c[n] * stride[n];
        (0..g.dim(n))
            .map(|j| {
                c[n] = j;
                assert_eq!(
                    g.rank(&c),
                    base + j * stride[n],
                    "strides agree with `rank`"
                );
                g.rank(&c)
            })
            .collect()
    }

    #[test]
    fn mode_groups_partition_ranks_with_axes() {
        let g = Grid::with_axes([2, 3, 2], [1, 2, 0]);
        for n in 0..3 {
            let mut seen = [false; 12];
            for r in 0..12 {
                let grp = mode_group(&g, r, n);
                assert_eq!(grp.len(), g.dim(n));
                assert!(grp.contains(&r));
                if grp[0] == r {
                    for &m in &grp {
                        assert!(!seen[m]);
                        seen[m] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "groups must cover all ranks");
        }
    }

    #[test]
    fn mode_groups_partition_ranks() {
        let g = Grid::new([2, 3, 2]);
        for n in 0..3 {
            let mut seen = [false; 12];
            for r in 0..12 {
                let grp = mode_group(&g, r, n);
                assert_eq!(grp.len(), g.dim(n));
                assert!(grp.contains(&r));
                // Group is consistent: every member computes the same group.
                for &m in &grp {
                    assert_eq!(mode_group(&g, m, n), grp);
                }
                if grp[0] == r {
                    for &m in &grp {
                        assert!(!seen[m]);
                        seen[m] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "groups must cover all ranks");
        }
    }

    #[test]
    fn group_ordered_by_mode_coordinate() {
        let g = Grid::new([4, 2]);
        let grp = mode_group(&g, 5, 0); // rank 5 = coord [1,1]
        let coords: Vec<usize> = grp.iter().map(|&r| g.coord(r)[0]).collect();
        assert_eq!(coords, vec![0, 1, 2, 3]);
    }

    #[test]
    fn divisors_sorted_complete() {
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(7), vec![1, 7]);
    }

    #[test]
    fn trivial_grid() {
        let g = Grid::trivial(4);
        assert_eq!(g.nranks(), 1);
        assert_eq!(g.coord(0), vec![0, 0, 0, 0]);
    }

    #[test]
    fn largest_usable_rank_count_shrinks_to_a_valid_factorization() {
        // 7 survivors on [4,4,4]: 7 is prime and > 4, so no valid grid;
        // 6 = 2·3 fits.
        assert_eq!(largest_usable_rank_count(7, &[4, 4, 4]), 6);
        // Any p ≤ Π dims with smooth factors is usable as-is.
        assert_eq!(largest_usable_rank_count(8, &[4, 4, 4]), 8);
        assert_eq!(largest_usable_rank_count(1, &[2]), 1);
        // Single mode: the count must divide into one factor ≤ dims[0].
        assert_eq!(largest_usable_rank_count(9, &[8]), 8);
    }
}
