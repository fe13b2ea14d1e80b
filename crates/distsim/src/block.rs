//! Cartesian block distribution (paper §4.1).
//!
//! Imposing a grid `g` on a tensor of shape `L` splits mode `n` into `q_n`
//! contiguous chunks. Chunks are as even as possible: with `L = a·q + r`,
//! the first `r` chunks have length `a + 1` and the rest have length `a`.
//! The rank with grid coordinate `c` owns the box formed by chunk `c_n` of
//! every mode.

use crate::grid::Grid;
use tucker_tensor::subtensor::{Block, Region};
use tucker_tensor::{Dims, Shape};

/// Split a length-`l` mode among `q` processors: `(start, len)` per chunk.
///
/// # Panics
/// Panics if `q == 0` or `q > l` (which would create empty blocks — exactly
/// the situation the paper's *valid grid* constraint forbids).
pub fn split_extents(l: usize, q: usize) -> Vec<(usize, usize)> {
    assert!(q > 0, "cannot split among zero processors");
    assert!(
        q <= l,
        "invalid split: {q} processors for length {l} (empty blocks)"
    );
    let base = l / q;
    let rem = l % q;
    let mut out = Vec::with_capacity(q);
    let mut start = 0;
    for i in 0..q {
        let len = base + usize::from(i < rem);
        out.push((start, len));
        start += len;
    }
    out
}

/// The chunk `(start, len)` of mode length `l` owned by coordinate `i` of `q`.
pub fn chunk(l: usize, q: usize, i: usize) -> (usize, usize) {
    debug_assert!(i < q);
    let base = l / q;
    let rem = l % q;
    if i < rem {
        ((base + 1) * i, base + 1)
    } else {
        (base * i + rem, base)
    }
}

/// Inverse of [`chunk`]: the coordinate owning global index `x` of a length-
/// `l` mode split among `q` processors.
///
/// # Panics
/// Panics (via debug assertions) on `x ≥ l` or an invalid split.
pub(crate) fn chunk_index(l: usize, q: usize, x: usize) -> usize {
    debug_assert!(x < l && q >= 1 && q <= l);
    let base = l / q;
    let rem = l % q;
    let boundary = (base + 1) * rem; // first index owned by the `base`-chunks
    if x < boundary {
        x / (base + 1)
    } else {
        rem + (x - boundary) / base
    }
}

/// The half-open range `[lo, hi)` of mode-`n` coordinates whose chunks of a
/// length-`l` mode split among `q` intersect `[start, start + len)`.
/// Chunks are contiguous and ordered, so the overlap set is an interval.
pub fn chunk_cover(l: usize, q: usize, start: usize, len: usize) -> (usize, usize) {
    debug_assert!(len >= 1 && start + len <= l);
    (
        chunk_index(l, q, start),
        chunk_index(l, q, start + len - 1) + 1,
    )
}

/// The global region owned by the rank at grid coordinate `coord`.
///
/// # Panics
/// Panics if the grid is invalid for `shape` (some `q_n > L_n`).
pub fn block_region(shape: &Shape, grid: &Grid, coord: &[usize]) -> Region {
    block_at(shape, grid, coord).region()
}

/// The global region owned by `rank` under `grid`.
pub fn rank_region(shape: &Shape, grid: &Grid, rank: usize) -> Region {
    rank_block(shape, grid, rank).region()
}

/// [`rank_region`] without the heap: what every rank computes for itself
/// and for each peer it exchanges data with.
pub(crate) fn rank_block(shape: &Shape, grid: &Grid, rank: usize) -> Block {
    let mut coord = Dims::filled(grid.order(), 0);
    grid.coord_into(rank, &mut coord);
    block_at(shape, grid, &coord)
}

fn block_at(shape: &Shape, grid: &Grid, coord: &[usize]) -> Block {
    assert_eq!(shape.order(), grid.order(), "shape/grid order mismatch");
    assert_eq!(coord.len(), grid.order(), "coordinate arity mismatch");
    let mut block = Block {
        start: Dims::filled(shape.order(), 0),
        len: Dims::filled(shape.order(), 0),
    };
    for (n, &c) in coord.iter().enumerate() {
        (block.start[n], block.len[n]) = chunk(shape.dim(n), grid.dim(n), c);
        assert!(
            block.len[n] > 0,
            "empty block in mode {n}: grid {grid} invalid for {shape}"
        );
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        assert_eq!(split_extents(8, 4), vec![(0, 2), (2, 2), (4, 2), (6, 2)]);
    }

    #[test]
    fn uneven_split_front_loaded() {
        assert_eq!(split_extents(10, 4), vec![(0, 3), (3, 3), (6, 2), (8, 2)]);
        assert_eq!(split_extents(7, 3), vec![(0, 3), (3, 2), (5, 2)]);
    }

    #[test]
    fn split_covers_exactly() {
        for l in 1..40 {
            for q in 1..=l {
                let parts = split_extents(l, q);
                assert_eq!(parts.len(), q);
                let mut next = 0;
                for &(s, ln) in &parts {
                    assert_eq!(s, next, "gap/overlap at l={l} q={q}");
                    assert!(ln > 0);
                    next = s + ln;
                }
                assert_eq!(next, l);
                // Sizes differ by at most 1.
                let min = parts.iter().map(|p| p.1).min().unwrap();
                let max = parts.iter().map(|p| p.1).max().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn chunk_agrees_with_split() {
        for l in [5usize, 12, 17] {
            for q in 1..=l.min(6) {
                let parts = split_extents(l, q);
                for (i, &p) in parts.iter().enumerate() {
                    assert_eq!(chunk(l, q, i), p);
                }
            }
        }
    }

    #[test]
    fn regions_partition_tensor() {
        let shape = Shape::from([5, 7, 4]);
        let grid = Grid::new([2, 3, 2]);
        let mut owned = vec![0u32; shape.cardinality()];
        for r in 0..grid.nranks() {
            let reg = rank_region(&shape, &grid, r);
            for c in reg.shape().coords() {
                let g: Vec<usize> = c.iter().zip(&reg.start).map(|(a, b)| a + b).collect();
                owned[shape.offset(&g)] += 1;
            }
        }
        assert!(
            owned.iter().all(|&x| x == 1),
            "every element owned exactly once"
        );
    }

    #[test]
    fn trivial_grid_owns_everything() {
        let shape = Shape::from([3, 4]);
        let grid = Grid::trivial(2);
        let reg = rank_region(&shape, &grid, 0);
        assert_eq!(reg, Region::full(&shape));
    }

    #[test]
    #[should_panic(expected = "invalid split")]
    fn oversplit_panics() {
        let _ = split_extents(3, 4);
    }

    #[test]
    fn chunk_index_inverts_chunk() {
        for l in 1..40 {
            for q in 1..=l {
                for (i, &(s, ln)) in split_extents(l, q).iter().enumerate() {
                    for x in s..s + ln {
                        assert_eq!(chunk_index(l, q, x), i, "l={l} q={q} x={x}");
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_cover_is_exact() {
        for l in [7usize, 12, 17] {
            for q in 1..=l.min(6) {
                let parts = split_extents(l, q);
                for start in 0..l {
                    for len in 1..=(l - start) {
                        let (lo, hi) = chunk_cover(l, q, start, len);
                        for (i, &(s, ln)) in parts.iter().enumerate() {
                            let overlaps = s < start + len && start < s + ln;
                            assert_eq!(
                                (lo..hi).contains(&i),
                                overlaps,
                                "l={l} q={q} start={start} len={len} i={i}"
                            );
                        }
                    }
                }
            }
        }
    }
}
