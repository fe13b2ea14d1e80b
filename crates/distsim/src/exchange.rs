//! The message patterns of the three region exchanges (paper §4.1, §4.3,
//! §5), each written once: for one rank, its sends and then its receives,
//! in the order the transport ([`crate::dist_ttm`], [`crate::dist_gram`],
//! [`crate::redistribute`]) issues them. Their α–β price is the fold
//! [`crate::NetModel::exchange_ns`], what the rank's virtual clock
//! accumulates. No enumeration touches the heap: the planner prices them
//! hundreds of thousands of times per plan.

use crate::block::{chunk, chunk_cover};
use crate::grid::Grid;

/// The most modes an enumeration handles: the size of its stack buffers
/// (a longer shape panics on the buffer slice).
pub const MAX_ORDER: usize = 16;

/// One point-to-point message: `elems` f64 elements from rank `src` to rank
/// `dst`. No enumeration yields a self-message or an empty one.
#[derive(Clone, Copy, Debug)]
pub struct Msg {
    pub src: usize,
    pub dst: usize,
    pub elems: usize,
}

/// What member `i` of a mode group sends member `j`.
#[derive(Clone, Copy, Debug)]
enum Payload {
    /// Reduce-scatter onto `k` output rows: member `j` keeps rows
    /// `chunk(k, q, j)`, so every member sends it those rows of its partial.
    ReduceScatter { k: usize },
    /// Column shares of an `ln`-row slab: member `j` owns the fibers
    /// `chunk(nf, q, j)`, and member `i` sends it its rows `chunk(ln, q, i)`
    /// of them.
    ColumnShares { ln: usize },
}

/// One rank's messages in an exchange inside its mode-`n` grid group (the
/// `q` ranks whose coordinates differ only in mode `n`, holding the same
/// fibers): to and from every other member in ascending member order,
/// skipping a pair with nothing to move.
#[derive(Clone, Copy, Debug)]
pub struct GroupExchange {
    payload: Payload,
    rank: usize,
    q: usize,
    /// `(member, base, stride)`: the rank is member `member`, and member
    /// `i` is rank `base + i · stride`.
    span: (usize, usize, usize),
    /// Mode-`n` fibers of the rank's block (the same for every member).
    fibers: usize,
}

impl GroupExchange {
    /// The reduce-scatter of a distributed TTM along mode `n` of a tensor of
    /// global `shape` (the input) onto `k` output rows; panics if `q > k`.
    pub fn reduce_scatter(shape: &[usize], grid: &Grid, rank: usize, n: usize, k: usize) -> Self {
        let q = grid.dim(n);
        assert!(q <= k, "invalid split: {q} processors for length {k}");
        Self::new(shape, grid, rank, n, Payload::ReduceScatter { k })
    }

    /// The column-share exchange of a distributed Gram of mode `n` of a
    /// tensor of global `shape`.
    pub fn column_shares(shape: &[usize], grid: &Grid, rank: usize, n: usize) -> Self {
        let ln = shape[n];
        Self::new(shape, grid, rank, n, Payload::ColumnShares { ln })
    }

    fn new(shape: &[usize], grid: &Grid, rank: usize, n: usize, payload: Payload) -> Self {
        let (q, order) = (grid.dim(n), shape.len());
        let (mut coord, mut stride, mut fibers) = ([0usize; MAX_ORDER], [0usize; MAX_ORDER], 0);
        // An unsplit mode moves nothing; the planner prices many of them.
        if q > 1 {
            grid.coord_into(rank, &mut coord[..order]);
            grid.strides_into(&mut stride[..order]);
            fibers = (0..order)
                .filter(|&m| m != n)
                .map(|m| chunk(shape[m], grid.dim(m), coord[m]).1)
                .product();
        }
        let span = (coord[n], rank - coord[n] * stride[n], stride[n]);
        GroupExchange {
            payload,
            rank,
            q,
            span,
            fibers,
        }
    }

    /// This rank's index in its mode group (its mode-`n` coordinate).
    pub fn member(&self) -> usize {
        self.span.0
    }

    /// The rank's sends (`inbound == false`) or receives, in issue order,
    /// each with the other member's index.
    pub fn msgs(self, inbound: bool) -> impl Iterator<Item = (usize, Msg)> {
        let (me, base, stride) = self.span;
        (0..self.q).filter_map(move |i| {
            if i == me {
                return None;
            }
            let peer = base + i * stride;
            let ((from, to), (src, dst)) = if inbound {
                ((i, me), (peer, self.rank))
            } else {
                ((me, i), (self.rank, peer))
            };
            let elems = match self.payload {
                Payload::ReduceScatter { k } => self.fibers * chunk(k, self.q, to).1,
                Payload::ColumnShares { ln } => {
                    chunk(ln, self.q, from).1 * chunk(self.fibers, self.q, to).1
                }
            };
            (elems > 0).then_some((i, Msg { src, dst, elems }))
        })
    }

    /// Every message of the rank: its sends, then its receives.
    pub fn messages(self) -> impl Iterator<Item = Msg> {
        self.msgs(false).chain(self.msgs(true)).map(|(_, m)| m)
    }
}

/// A rank's messages in a regrid `from → to` (the all-to-all of paper §5),
/// each carrying a block overlap; what the rank keeps never crosses the
/// wire. Its sends (`inbound == false`) go to the other ranks whose block
/// under `to` overlaps its block under `from`; its receives come from the
/// other ranks whose block under `from` overlaps its block under `to`.
///
/// An odometer walks the box of overlapping coordinates, mode 0 fastest,
/// keeping the peer rank as a running sum and `vol[m]`, the overlap volume
/// of modes `≥ m`, so that a step that carries into mode `m` recomputes
/// only the entries `≤ m` (amortized one chunk lookup per message). The
/// per-mode state is `u32` (extents and ranks stay far below 2³²): the walk
/// sits on the fiber stack of every rank that runs it.
pub fn regrid_msgs<'a>(
    shape: &'a [usize],
    from: &'a Grid,
    to: &'a Grid,
    rank: usize,
    inbound: bool,
) -> impl Iterator<Item = Msg> + 'a {
    let (mine, theirs) = if inbound { (to, from) } else { (from, to) };
    let order = shape.len();
    let (mut my_coord, mut strides) = ([0; MAX_ORDER], [0; MAX_ORDER]);
    mine.coord_into(rank, &mut my_coord[..order]);
    theirs.strides_into(&mut strides[..order]);
    // Per mode: my extent `[start, end)`, the `[lo, hi)` interval of
    // `theirs` coordinates whose chunks meet it, the cursor and the stride.
    let (mut extent, mut cover) = ([(0u32, 0u32); MAX_ORDER], [(0u32, 0u32); MAX_ORDER]);
    let (mut coord, mut stride) = ([0u32; MAX_ORDER], [0u32; MAX_ORDER]);
    for m in 0..order {
        let (start, len) = chunk(shape[m], mine.dim(m), my_coord[m]);
        let (lo, hi) = chunk_cover(shape[m], theirs.dim(m), start, len);
        (extent[m], cover[m]) = ((start as u32, (start + len) as u32), (lo as u32, hi as u32));
        (coord[m], stride[m]) = (lo as u32, strides[m] as u32);
    }
    let mut peer: usize = (0..order).map(|m| coord[m] as usize * strides[m]).sum();
    let mut vol = [1usize; MAX_ORDER + 1];
    // Entries `< stale` of `vol` are out of date; beyond the last mode, the
    // walk is over.
    let mut stale = order;
    std::iter::from_fn(move || {
        while stale <= order {
            for m in (0..stale).rev() {
                let (ts, tl) = chunk(shape[m], theirs.dim(m), coord[m] as usize);
                let (start, end) = (extent[m].0 as usize, extent[m].1 as usize);
                vol[m] = vol[m + 1] * (end.min(ts + tl) - start.max(ts));
            }
            let (other, elems) = (peer, vol[0]);
            // Advance the odometer; a carry out of the last mode ends it.
            let mut m = 0;
            while m < order && coord[m] + 1 == cover[m].1 {
                peer -= (coord[m] - cover[m].0) as usize * stride[m] as usize;
                coord[m] = cover[m].0;
                m += 1;
            }
            if m < order {
                coord[m] += 1;
                peer += stride[m] as usize;
            }
            stale = m + 1;
            if other != rank {
                let (src, dst) = if inbound {
                    (other, rank)
                } else {
                    (rank, other)
                };
                return Some(Msg { src, dst, elems });
            }
        }
        None
    })
}
