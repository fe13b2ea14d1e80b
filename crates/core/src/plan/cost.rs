//! Cost models for plans: the §3.1 FLOP model, the classic flops + volume
//! objective, and the α–β network-priced [`NetCostModel`] whose objective is
//! the same virtual nanoseconds each rank's communication clock accumulates
//! when the engine runs under a [`NetModel`].
//!
//! Everything the planner optimizes goes through one [`CostModel`] trait:
//! per-operation prices (TTM, regrid, leaf Gram, core chain, per-sweep
//! overhead) that sum, over the operations of one sweep
//! (`schedule::sweep`), to [`sweep_cost`] — the additive functional the joint
//! DP in [`crate::plan::search`] minimizes and the brute-force oracle in
//! [`crate::plan::brute_force`] certifies against. Two implementations:
//!
//! * [`FlopVolumeModel`] — the paper's closed forms: TTM FLOPs (§3.1) plus
//!   the communication volume (§4.1/§4.3) weighted by
//!   [`VOLUME_FLOP_EQUIV`]. Machine-independent.
//! * [`NetCostModel`] — every operation priced through the α–β
//!   [`NetModel`] as modeled communication nanoseconds. Under a flat model
//!   a price is what **rank 0 accumulates**: rank 0 owns the largest block
//!   under every grid and roots every collective, so its charge is the
//!   critical path for TTM reduce-scatters, Gram share exchanges and
//!   all-reduces. Under a hierarchical model rank 0 is no longer critical:
//!   `ttm_cost` and `leaf_cost` take the max over all ranks, `regrid_cost`
//!   the max over a bounded set of representative ranks (DESIGN.md §10).
//!   On top of the additive objective it offers
//!   `NetCostModel::predict_sweep`: an exact per-rank replay of the
//!   schedule that reproduces the engine's virtual clocks — communication,
//!   and the compute the model's rate γ prices per flop, hence the sweep's
//!   wall — **to the nanosecond**; the planner and scaling suites assert
//!   equality with the executed clocks. The objective itself stays
//!   communication only.
//!
//! The joint DP prices regrids through a `RegridPricer` it prepares once
//! per search ([`CostModel::regrid_pricer`]), bit-identical to
//! [`CostModel::regrid_cost`]. The flat α–β model's pricer reads rank 0's
//! per-mode block overlaps from a table filled once for the search's
//! candidate grids, so the search does no chunk arithmetic; the per-rank
//! walk of `NetCostModel::predict_sweep` computes the same per-mode
//! overlaps with the same function.
//!
//! Costs are model-specific scalars (FLOP-equivalents vs. nanoseconds);
//! only comparisons within one model are meaningful.

use crate::meta::TuckerMeta;
use crate::plan::grid::DynGridScheme;
use crate::plan::schedule::{self, core_chain, regrid_volume, ttm_volume, OpKind};
use crate::plan::tree::TtmTree;
use std::time::Duration;
use tucker_distsim::block::{chunk, chunk_cover};
use tucker_distsim::exchange::{regrid_msgs, GroupExchange, MAX_ORDER};
use tucker_distsim::net::{evd_flops, gram_flops, ttm_flops};
use tucker_distsim::{Grid, NetModel};

/// The §3.1 FLOP cost model of `tree`: a TTM node `u` with label `n` costs
/// `K_n · |In(u)|` multiply-adds (the tree TTMs of its schedule).
///
/// # Panics
/// Panics if the tree refers to modes outside `meta`.
pub fn tree_flops(tree: &TtmTree, meta: &TuckerMeta) -> f64 {
    let g = Grid::trivial(meta.order());
    schedule::sweep_on(meta, tree, &g)
        .ops
        .iter()
        .fold(0.0, |total, op| match op.kind {
            OpKind::Ttm {
                node: Some(_),
                mode,
                ..
            } => total + meta.k(mode) as f64 * op.input,
            _ => total,
        })
}

/// Machine-balance constant of [`FlopVolumeModel`]: how many FLOPs one
/// communicated element is worth. Derived from the paper's BG/Q target:
/// moving an 8-byte element at 1.8 GB/s takes ~4.4 ns, in which a node
/// sustaining a few GFLOP/s retires on the order of 16 multiply-adds. The
/// exact value only matters for plans that trade load against volume; the
/// lineup's optimal plan dominates on both, so plan selection is
/// insensitive to it (verified against brute-force enumeration in tests).
pub const VOLUME_FLOP_EQUIV: f64 = 16.0;

/// The global tensor shape after multiplying the modes in `premult` (a
/// bitmask): `L_n` for untouched modes, `K_n` for multiplied ones, written
/// into a stack buffer; returns the filled prefix.
pub(crate) fn premult_shape<'b>(
    meta: &TuckerMeta,
    premult: u32,
    buf: &'b mut [usize; MAX_ORDER],
) -> &'b [usize] {
    let order = meta.order();
    assert!(order <= MAX_ORDER, "mode count {order} exceeds {MAX_ORDER}");
    for (n, slot) in buf[..order].iter_mut().enumerate() {
        *slot = if premult & (1 << n) != 0 {
            meta.k(n)
        } else {
            meta.l(n)
        };
    }
    &buf[..order]
}

/// A regrid price by premult mask and two indices into one search's
/// candidate grids ([`CostModel::regrid_pricer`]).
pub(crate) type RegridPricer<'s> = Box<dyn Fn(u32, usize, usize) -> f64 + 's>;

/// The pluggable objective of the planning layer. All prices are per
/// *operation of one HOOI sweep* (an `OpKind`) and additive:
/// [`sweep_cost`] sums them over the schedule of a concrete
/// `(tree, grid scheme)` and is exactly the functional the
/// [`crate::plan::search`] DP minimizes.
pub trait CostModel {
    /// Short label for reports (`"flops+vol"`, `"net"`).
    fn name(&self) -> &'static str;

    /// Identity of this model **instance** for memoization (the `model`
    /// component of a [`crate::plan::cache::PlanKey`]). Two models with the
    /// same cache key must assign identical costs to every plan; models
    /// with internal parameters (rank count, network constants) must fold
    /// them in — `name()` alone would alias every `NetCostModel` onto one
    /// entry. Parameter-free models can keep the default.
    fn cache_key(&self) -> String {
        self.name().to_string()
    }

    /// Price of the TTM at a node whose input is `T[premult]` (the global
    /// tensor with the `premult` modes already multiplied), along mode `n`,
    /// under grid `g`.
    fn ttm_cost(&self, meta: &TuckerMeta, premult: u32, n: usize, g: &Grid) -> f64;

    /// Price of regridding `T[premult]` from `from` onto `to`. The classic
    /// model charges the §4.3 `|In(u)|` regardless of the grids; the α–β
    /// model charges rank 0's exact share of the all-to-all (the message
    /// pattern — and therefore the α term — depends heavily on how the two
    /// grids overlap). Must be non-negative: the search skips regrid targets
    /// whose continuation alone cannot beat the running optimum. Must be
    /// symmetric, `regrid_cost(p, a, b) == regrid_cost(p, b, a)` bit for bit:
    /// the search prices each unordered grid pair once and stores the price
    /// for both directions. The search itself prices through
    /// [`CostModel::regrid_pricer`], which must agree with this bit for bit;
    /// [`sweep_cost`] and the brute-force oracle call this directly.
    fn regrid_cost(&self, meta: &TuckerMeta, premult: u32, from: &Grid, to: &Grid) -> f64;

    /// A pricer of the regrids between one search's candidate `grids`:
    /// `pricer(premult, a, b)` equals
    /// `regrid_cost(meta, premult, &grids[a], &grids[b])` bit for bit. The
    /// joint DP prepares one per search and prices every regrid through it,
    /// so a model can tabulate once what the candidate grids share.
    /// Preparing may allocate; a price must not. The default prices through
    /// `regrid_cost`.
    fn regrid_pricer<'s>(&'s self, meta: &'s TuckerMeta, grids: &'s [Grid]) -> RegridPricer<'s> {
        Box::new(move |premult, a, b| self.regrid_cost(meta, premult, &grids[a], &grids[b]))
    }

    /// Price of the leaf for mode `n`: the distributed Gram of `T[premult]`
    /// (mode-group column-share exchange + world all-reduce of the
    /// `L_n × L_n` Gram)
    /// under grid `g`.
    fn leaf_cost(&self, meta: &TuckerMeta, premult: u32, n: usize, g: &Grid) -> f64;

    /// Price of the engine's core-update chain (`core_chain`) under the
    /// initial grid. The default sums its TTM prices.
    fn chain_cost(&self, meta: &TuckerMeta, g: &Grid) -> f64 {
        core_chain(meta, g)
            .iter()
            .fold(0.0, |total, op| match op.kind {
                OpKind::Ttm { mode, .. } => total + self.ttm_cost(meta, op.premult, mode, g),
                _ => unreachable!("the core chain is TTMs"),
            })
    }

    /// Fixed per-sweep overhead (the scalar norm all-reduce) on `nranks`.
    fn sweep_overhead(&self, meta: &TuckerMeta, nranks: usize) -> f64 {
        let _ = (meta, nranks);
        0.0
    }

    /// Whether this model's prices are invariant under relabeling the grid
    /// axes of symmetric modes (identical `(L_n, K_n)`). The search uses
    /// this to dedup symmetric grid candidates to orbit representatives;
    /// topology-aware models must answer `false` — under a hierarchical
    /// network, `⟨2,4⟩` and `⟨4,2⟩` put different mode groups inside nodes
    /// even when the modes are symmetric.
    fn grid_symmetry_invariant(&self) -> bool {
        true
    }

    /// Let the model extend the candidate grid list with variants of its
    /// own (e.g. node-aligned rank orderings). Called once by the search
    /// after the geometric enumeration; the default adds nothing.
    fn augment_grids(&self, meta: &TuckerMeta, grids: &mut Vec<Grid>) {
        let _ = (meta, grids);
    }
}

/// The additive model cost of one HOOI sweep executing `tree` under
/// `scheme`: each tree operation of its `schedule::sweep` (regrid, TTM,
/// leaf Gram) at its price, in issue order, then the core-update chain as
/// one subtotal ([`CostModel::chain_cost`]) and the per-sweep overhead (the
/// norm). The joint DP minimizes exactly this; the brute-force oracle
/// scores candidates with exactly this.
///
/// # Panics
/// Panics if the scheme does not match the tree (`schedule::sweep`).
pub fn sweep_cost(
    model: &dyn CostModel,
    meta: &TuckerMeta,
    tree: &TtmTree,
    scheme: &DynGridScheme,
) -> f64 {
    let mut total = 0.0;
    for op in schedule::sweep(meta, tree, scheme).ops {
        let (premult, grid) = (op.premult, op.grid);
        total += match op.kind {
            OpKind::Regrid { from, .. } => model.regrid_cost(meta, premult, from, grid),
            OpKind::Ttm {
                node: Some(_),
                mode,
                ..
            } => model.ttm_cost(meta, premult, mode, grid),
            OpKind::Gram(mode) => model.leaf_cost(meta, premult, mode, grid),
            OpKind::Ttm { node: None, .. } | OpKind::Evd(_) | OpKind::Free(_) | OpKind::Norm => {
                continue
            }
        };
    }
    total += model.chain_cost(meta, &scheme.initial);
    total + model.sweep_overhead(meta, scheme.initial.nranks())
}

/// The classic closed-form objective: §3.1 TTM FLOPs plus the §4.1/§4.3
/// communication volume weighted by [`VOLUME_FLOP_EQUIV`] (the leaf Gram,
/// core chain and norm all-reduce are identical across plans of the §4
/// model and are not priced). Machine-independent.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlopVolumeModel;

impl CostModel for FlopVolumeModel {
    fn name(&self) -> &'static str {
        "flops+vol"
    }

    fn ttm_cost(&self, meta: &TuckerMeta, premult: u32, n: usize, g: &Grid) -> f64 {
        let card = meta.premultiplied_cardinality(premult);
        // The §4.1 volume `(q − 1)·|Out|` with `|Out| = |In|·h` applied
        // last, as it always was (×16 is exact, so `16·((q − 1)·|In|)`
        // equals `(16·(q − 1))·|In|` bit for bit).
        meta.k(n) as f64 * card + VOLUME_FLOP_EQUIV * ttm_volume(g.dim(n), card) * meta.h(n)
    }

    fn regrid_cost(&self, meta: &TuckerMeta, premult: u32, _from: &Grid, _to: &Grid) -> f64 {
        VOLUME_FLOP_EQUIV * regrid_volume(meta.premultiplied_cardinality(premult))
    }

    fn leaf_cost(&self, _meta: &TuckerMeta, _premult: u32, _n: usize, _g: &Grid) -> f64 {
        0.0
    }

    /// The §4 objective scores the tree only; the core chain is common
    /// bookkeeping outside it (kept for continuity with the paper's
    /// figures).
    fn chain_cost(&self, _meta: &TuckerMeta, _g: &Grid) -> f64 {
        0.0
    }
}

// ---------------------------------------------------------- α–β cost model

/// Exact per-rank prediction of one HOOI sweep's virtual clocks (see
/// `NetCostModel::predict_sweep`). Every field mirrors the engine's
/// aggregation: the maximum over ranks of that rank's accumulated modeled
/// nanoseconds in the sweep window, each equal to the `SweepStats` field
/// of the same name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepPrediction {
    /// Modelled compute of the TTMs' local products (max over ranks).
    pub ttm_compute: Duration,
    /// Modelled compute of the Gram shares and the EVDs (max over ranks).
    pub svd: Duration,
    /// TTM reduce-scatter time (max over ranks).
    pub ttm_comm: Duration,
    /// Regrid all-to-all time (max over ranks).
    pub regrid_comm: Duration,
    /// Gram share exchange + all-reduce time (max over ranks).
    pub gram_comm: Duration,
    /// Scalar norm all-reduce time (max over ranks).
    pub other_comm: Duration,
    /// Total modeled communication of the sweep — the maximum over ranks of
    /// the per-rank sum across all categories. This is exactly what the
    /// engine's `SweepStats::comm_wall` reports under a
    /// [`NetModel`].
    pub comm_wall: Duration,
    /// The sweep's virtual wall: the maximum over ranks of the rank's
    /// modelled compute plus its modelled communication.
    pub wall: Duration,
}

/// The α–β network cost model: plans are priced in modeled communication
/// nanoseconds — rank 0's charge under a flat model, the max over ranks
/// (all of them for TTMs and Grams, representative ones for regrids) under
/// a hierarchical one; see the module docs and DESIGN.md §10. A region
/// exchange (TTM reduce-scatter, Gram column shares, regrid) is priced as
/// the α–β fold over the messages `tucker_distsim::exchange` enumerates for
/// the rank — the messages `dist_ttm`, `dist_gram` and `redistribute` send —
/// and the all-reduces by the per-rank forms of `tucker_distsim::net`.
#[derive(Clone, Copy, Debug)]
pub struct NetCostModel {
    net: NetModel,
    nranks: usize,
}

/// Accumulator indices of [`NetCostModel::predict_sweep`]: the four
/// communication categories, then the two compute phases.
const TTM: usize = 0;
const REGRID: usize = 1;
const GRAM: usize = 2;
const OTHER: usize = 3;
const TTM_COMPUTE: usize = 4;
const SVD: usize = 5;
const CLOCKS: usize = 6;

/// Add each rank's `rank_ns(rank)` to its `cat` accumulator.
fn charge(acc: &mut [[u64; CLOCKS]], cat: usize, rank_ns: impl Fn(usize) -> u64) {
    for (r, a) in acc.iter_mut().enumerate() {
        a[cat] += rank_ns(r);
    }
}

/// One mode of a flat regrid direction, seen from one rank: how its chunk
/// under the grid it sends from overlaps the chunks covering it under the
/// grid it sends to.
#[derive(Clone, Copy, Debug)]
struct ModeOverlaps {
    /// The distinct `(overlap, count)` pairs; a zero count marks an unused
    /// slot.
    groups: [(usize, u64); 4],
    /// The overlap with the chunk of the rank's own coordinate under the
    /// target grid; `None` when the cover misses it.
    self_overlap: Option<usize>,
}

impl ModeOverlaps {
    const EMPTY: Self = ModeOverlaps {
        groups: [(0, 0); 4],
        self_overlap: None,
    };
}

/// The chunk geometry of one mode of a regrid (paper §4.1): a length-
/// `extent` mode split `q_mine` ways, where the rank holds chunk `mine`,
/// against the same mode split `q_theirs` ways, where the rank holds chunk
/// `theirs`. The covering chunks overlap `mine` in at most four distinct
/// lengths — a partial first chunk, the `⌈L/q⌉` and `⌊L/q⌋` full chunks and
/// a partial last chunk — so the cover is listed as `(overlap, count)`
/// pairs: `cover` chunk lookups per mode instead of one per message.
fn mode_overlaps(
    extent: usize,
    q_mine: usize,
    q_theirs: usize,
    mine: usize,
    theirs: usize,
) -> ModeOverlaps {
    let (start, len) = chunk(extent, q_mine, mine);
    let (lo, hi) = chunk_cover(extent, q_theirs, start, len);
    let mut out = ModeOverlaps::EMPTY;
    for c in lo..hi {
        let (ts, tl) = chunk(extent, q_theirs, c);
        let overlap = (start + len).min(ts + tl) - start.max(ts);
        if c == theirs {
            out.self_overlap = Some(overlap);
        }
        let slot = out
            .groups
            .iter_mut()
            .find(|slot| slot.1 == 0 || slot.0 == overlap)
            .expect("at most four distinct overlaps per mode");
        *slot = (overlap, slot.1 + 1);
    }
    out
}

/// Rank 0's [`mode_overlaps`] for every pair of one search's candidate
/// grids under a flat model. Rank 0 holds chunk 0 under every grid, so a
/// mode's list depends only on `(extent, q_from, q_to)`: the extent is `L_m`
/// or `K_m` by the premult bit, and both counts range over the `d_m`
/// distinct counts the grids give mode `m` — divisors of P, so `d_m` is at
/// most P's divisor count. The table holds `Σ_m 2 · d_m²` lists (at most
/// 490, 38 KiB, for five modes at P = 64), and a price reads `2 · order` of
/// them.
struct FlatRegridTable {
    order: usize,
    /// Per grid, per mode (`[grid · order + m]`): the index of the grid's
    /// count among the mode's distinct counts.
    count_idx: Vec<usize>,
    /// Per mode: the first list of its block and its distinct-count number
    /// `d_m`.
    blocks: [(usize, usize); MAX_ORDER],
    /// Per mode, the `2 × d_m × d_m` block `[premult bit][i][j]`: rank 0's
    /// overlaps from count `i` to count `j`.
    lists: Vec<ModeOverlaps>,
}

impl FlatRegridTable {
    fn new(meta: &TuckerMeta, grids: &[Grid]) -> Self {
        let order = meta.order();
        assert!(order <= MAX_ORDER, "mode count {order} exceeds {MAX_ORDER}");
        let mut count_idx = vec![0; grids.len() * order];
        let mut blocks = [(0, 0); MAX_ORDER];
        let mut lists = Vec::new();
        for (m, block) in blocks[..order].iter_mut().enumerate() {
            let mut counts: Vec<usize> = grids.iter().map(|g| g.dim(m)).collect();
            counts.sort_unstable();
            counts.dedup();
            for (gi, g) in grids.iter().enumerate() {
                count_idx[gi * order + m] = counts.binary_search(&g.dim(m)).expect("listed");
            }
            *block = (lists.len(), counts.len());
            for extent in [meta.l(m), meta.k(m)] {
                for &qf in &counts {
                    lists.extend(counts.iter().map(|&qt| mode_overlaps(extent, qf, qt, 0, 0)));
                }
            }
        }
        FlatRegridTable {
            order,
            count_idx,
            blocks,
            lists,
        }
    }

    /// `model.regrid_cost(meta, premult, &grids[a], &grids[b])`, bit for
    /// bit, from the table.
    fn price(&self, model: &NetCostModel, premult: u32, a: usize, b: usize) -> f64 {
        let order = self.order;
        let (ia, ib) = (&self.count_idx[a * order..], &self.count_idx[b * order..]);
        let (mut there, mut back) = (
            [ModeOverlaps::EMPTY; MAX_ORDER],
            [ModeOverlaps::EMPTY; MAX_ORDER],
        );
        for m in 0..order {
            let (first, d) = self.blocks[m];
            let block = first + (premult >> m & 1) as usize * d * d;
            there[m] = self.lists[block + ia[m] * d + ib[m]];
            back[m] = self.lists[block + ib[m] * d + ia[m]];
        }
        (model.direction_ns(&there[..order]) + model.direction_ns(&back[..order])) as f64
    }
}

impl NetCostModel {
    /// Price plans for `nranks` ranks under `net`.
    pub fn new(net: NetModel, nranks: usize) -> Self {
        assert!(nranks >= 1, "need at least one rank");
        NetCostModel { net, nranks }
    }

    /// The α–β model in use.
    pub(crate) fn net(&self) -> &NetModel {
        &self.net
    }

    /// The reduce-scatter charge of one distributed TTM as accumulated by
    /// `rank`: the α–β fold over its messages.
    fn ttm_rank_ns(&self, shape: &[usize], n: usize, k: usize, g: &Grid, rank: usize) -> u64 {
        let exchange = GroupExchange::reduce_scatter(shape, g, rank, n, k);
        self.net.exchange_ns(exchange.messages())
    }

    /// The column-share exchange of one distributed Gram as accumulated by
    /// `rank`: the α–β fold over its messages.
    fn gram_exchange_rank_ns(&self, shape: &[usize], n: usize, g: &Grid, rank: usize) -> u64 {
        let exchange = GroupExchange::column_shares(shape, g, rank, n);
        self.net.exchange_ns(exchange.messages())
    }

    /// The node-aligned axis-order variant of `g`: modes sorted by
    /// descending rank-0 TTM reduce-scatter price, so the heaviest
    /// mode-reductions get the smallest rank strides — and with them the
    /// best chance of keeping their groups inside one node. Returns `None`
    /// when the reordering would not change the rank mapping (e.g. flat
    /// models, or grids whose split modes are already heaviest-first).
    pub(crate) fn node_aligned_variant(&self, meta: &TuckerMeta, g: &Grid) -> Option<Grid> {
        if !self.net.is_hierarchical() || !g.has_identity_axes() {
            return None;
        }
        let weights: Vec<f64> = (0..g.order())
            .map(|n| {
                if g.dim(n) <= 1 {
                    0.0
                } else {
                    self.ttm_cost(meta, 0, n, g)
                }
            })
            .collect();
        let mut modes: Vec<usize> = (0..g.order()).collect();
        modes.sort_by(|&a, &b| {
            weights[b]
                .partial_cmp(&weights[a])
                .expect("finite weights")
                .then(a.cmp(&b))
        });
        // Identical mapping iff the split (q > 1) modes keep their relative
        // order: singleton axes contribute nothing to the mixed radix.
        let split: Vec<usize> = modes.iter().copied().filter(|&ax| g.dim(ax) > 1).collect();
        if split.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        Some(Grid::with_axes(g.dims().to_vec(), modes))
    }

    /// The critical path of one operation, from each rank's charge
    /// `rank_ns`. Flat models: rank 0's — it holds the largest block of
    /// every mode (chunks are front-loaded), the largest output chunk and
    /// column share, and roots every collective, so no rank pays more.
    /// Hierarchical models: the max over `ranks` — a node-aligned grid
    /// makes rank 0's groups intra-node (cheap) while node-crossing groups
    /// elsewhere pay inter-node prices (DESIGN.md §10).
    fn critical_ns(
        &self,
        ranks: impl Iterator<Item = usize>,
        rank_ns: impl Fn(usize) -> u64,
    ) -> f64 {
        if !self.net.is_hierarchical() {
            return rank_ns(0) as f64;
        }
        ranks.map(rank_ns).max().unwrap_or(0) as f64
    }

    /// A bounded set of structurally distinct ranks for hierarchical
    /// pricing: the first and last rank of the first node, the first rank
    /// of the second node, the middle of the machine and the last node's
    /// boundary ranks. Under the block rank → node packing these cover the
    /// qualitatively different positions a rank can occupy (node leader,
    /// node tail, interior, machine edge) without an `O(P)` scan. Yields
    /// each in-range rank once.
    fn representative_ranks(&self) -> impl Iterator<Item = usize> {
        let p = self.nranks;
        let s = self.net.node_size().max(1);
        let reps = [0, s - 1, s, 2 * s - 1, p / 2, p.saturating_sub(s), p - 1];
        (0..reps.len())
            .filter(move |&i| reps[i] < p && !reps[..i].contains(&reps[i]))
            .map(move |i| reps[i])
    }

    /// The node-aligned relabeling of a whole grid scheme: every grid is
    /// replaced by its [`NetCostModel::node_aligned_variant`] where one
    /// exists. The transform is a deterministic function of each grid, so
    /// equal grids stay equal and the scheme's regrid flags remain faithful;
    /// the geometric volume is unchanged (only the rank → coordinate mapping
    /// moves). Returns `None` when no grid changes.
    pub(crate) fn node_align_scheme<'s>(
        &self,
        meta: &TuckerMeta,
        scheme: &'s DynGridScheme,
    ) -> Option<DynGridScheme> {
        let mut changed = false;
        // A scheme repeats few distinct grids over many nodes: work out each
        // one's variant once.
        let mut seen: Vec<(&Grid, Option<Grid>)> = Vec::new();
        let mut align = |g: &'s Grid| {
            let variant = match seen.iter().find(|(s, _)| *s == g) {
                Some((_, v)) => v.clone(),
                None => {
                    let v = self.node_aligned_variant(meta, g);
                    seen.push((g, v.clone()));
                    v
                }
            };
            match variant {
                Some(v) => {
                    changed = true;
                    v
                }
                None => g.clone(),
            }
        };
        let initial = align(&scheme.initial);
        let node_grids: Vec<Grid> = scheme.node_grids.iter().map(&mut align).collect();
        changed.then_some(DynGridScheme {
            initial,
            node_grids,
            regrid: scheme.regrid.clone(),
            volume: scheme.volume,
        })
    }

    /// The all-to-all charge of one regrid (`from → to`) as accumulated by
    /// `rank`: the α–β fold over its messages. Under a flat model a
    /// message's price depends only on its element count, so the fold is
    /// summed grouped by volume instead ([`NetCostModel::direction_ns`] over
    /// [`mode_overlaps`], once per direction).
    fn regrid_rank_ns(&self, shape: &[usize], from: &Grid, to: &Grid, rank: usize) -> u64 {
        if self.net.is_hierarchical() {
            let sends = regrid_msgs(shape, from, to, rank, false);
            return self
                .net
                .exchange_ns(sends.chain(regrid_msgs(shape, from, to, rank, true)));
        }
        let order = shape.len();
        let (mut from_coord, mut to_coord) = ([0usize; MAX_ORDER], [0usize; MAX_ORDER]);
        from.coord_into(rank, &mut from_coord[..order]);
        to.coord_into(rank, &mut to_coord[..order]);
        let (mut there, mut back) = (
            [ModeOverlaps::EMPTY; MAX_ORDER],
            [ModeOverlaps::EMPTY; MAX_ORDER],
        );
        for m in 0..order {
            let (qf, qt, cf, ct) = (from.dim(m), to.dim(m), from_coord[m], to_coord[m]);
            there[m] = mode_overlaps(shape[m], qf, qt, cf, ct);
            back[m] = mode_overlaps(shape[m], qt, qf, ct, cf);
        }
        self.direction_ns(&there[..order]) + self.direction_ns(&back[..order])
    }

    /// The flat-model charge of a rank's messages between its block under
    /// one grid and the overlapping blocks under another, given each mode's
    /// [`mode_overlaps`]: the sends of a regrid, or with the grids swapped
    /// its receives (the overlap volumes are symmetric). A message's volume
    /// is the product of its per-mode overlaps, so the box sums as
    /// `count · price(volume)` over the product of the per-mode
    /// `(overlap, count)` lists, less the free self-message when every mode
    /// covers the rank's own coordinate: the same integer nanoseconds as the
    /// fold over the messages.
    fn direction_ns(&self, modes: &[ModeOverlaps]) -> u64 {
        let self_vol = modes
            .iter()
            .try_fold(1usize, |v, m| m.self_overlap.map(|o| v * o));
        self.grouped_ns(modes, 1, 1) - self_vol.map_or(0, |v| self.net.msg_elems_ns(v))
    }

    /// `Σ count · price(volume)` over one `(overlap, count)` pick per mode
    /// of `modes`, each pick's volume and count multiplied onto `vol` and
    /// `count`.
    fn grouped_ns(&self, modes: &[ModeOverlaps], vol: usize, count: u64) -> u64 {
        let Some((first, rest)) = modes.split_first() else {
            return count * self.net.msg_elems_ns(vol);
        };
        first
            .groups
            .iter()
            .take_while(|&&(_, c)| c > 0)
            .map(|&(o, c)| self.grouped_ns(rest, vol * o, count * c))
            .sum()
    }

    /// Exact replay of one HOOI sweep under this model: charge every
    /// operation of the plan's [`schedule::sweep`] to every rank — its
    /// communication (regrids, tree and core-chain TTMs, leaf Grams as share
    /// exchange plus world all-reduce, the norm all-reduce as
    /// `VolumeCategory::Other`) and its compute (each TTM's, Gram share's and
    /// EVD's flops from `tucker_distsim::net` at the model's rate γ) — then
    /// take the engine's maxima. The result equals the virtual clocks the
    /// engine accumulates for the same plan to the nanosecond, wall
    /// included (asserted by the planner and scaling suites, see DESIGN.md
    /// §6).
    ///
    /// # Panics
    /// Panics if the scheme does not match the tree or the initial grid's
    /// rank count differs from this model's.
    pub(crate) fn predict_sweep(
        &self,
        meta: &TuckerMeta,
        tree: &TtmTree,
        scheme: &DynGridScheme,
    ) -> SweepPrediction {
        let p = self.nranks;
        assert_eq!(
            scheme.initial.nranks(),
            p,
            "scheme is for {} ranks, model prices {p}",
            scheme.initial.nranks()
        );
        let mut acc = vec![[0u64; CLOCKS]; p];
        let mut buf = [0; MAX_ORDER];
        let net = &self.net;
        for op in schedule::sweep(meta, tree, scheme).ops {
            let (shape, g) = (premult_shape(meta, op.premult, &mut buf), op.grid);
            match op.kind {
                OpKind::Regrid { from, .. } => {
                    charge(&mut acc, REGRID, |r| self.regrid_rank_ns(shape, from, g, r));
                }
                OpKind::Ttm { mode, .. } => {
                    let k = meta.k(mode);
                    charge(&mut acc, TTM, |r| self.ttm_rank_ns(shape, mode, k, g, r));
                    charge(&mut acc, TTM_COMPUTE, |r| {
                        net.compute_ns(ttm_flops(shape, g, r, mode, k))
                    });
                }
                OpKind::Gram(n) => {
                    let len = shape[n] * shape[n];
                    charge(&mut acc, GRAM, |r| {
                        self.gram_exchange_rank_ns(shape, n, g, r)
                            + net.allreduce_rank_ns(p, r, len)
                    });
                    charge(&mut acc, SVD, |r| {
                        net.compute_ns(gram_flops(shape, g, r, n))
                    });
                }
                OpKind::Evd(n) => {
                    // Every rank is charged the replicated EVD.
                    let ns = net.compute_ns(evd_flops(shape[n]));
                    charge(&mut acc, SVD, |_| ns);
                }
                OpKind::Norm => charge(&mut acc, OTHER, |r| net.allreduce_rank_ns(p, r, 1)),
                OpKind::Free(_) => {}
            }
        }

        let max_of = |f: &dyn Fn(&[u64; CLOCKS]) -> u64| {
            Duration::from_nanos(acc.iter().map(f).max().unwrap_or(0))
        };
        SweepPrediction {
            ttm_compute: max_of(&|a| a[TTM_COMPUTE]),
            svd: max_of(&|a| a[SVD]),
            ttm_comm: max_of(&|a| a[TTM]),
            regrid_comm: max_of(&|a| a[REGRID]),
            gram_comm: max_of(&|a| a[GRAM]),
            other_comm: max_of(&|a| a[OTHER]),
            comm_wall: max_of(&|a| a[..TTM_COMPUTE].iter().sum()),
            wall: max_of(&|a| a.iter().sum()),
        }
    }
}

impl CostModel for NetCostModel {
    fn name(&self) -> &'static str {
        "net"
    }

    /// Fold the pricing parameters in: two α–β models differing in rank
    /// count or network constants price plans differently and must not
    /// share cache entries.
    fn cache_key(&self) -> String {
        format!(
            "net:p={}:alpha_ns={}:beta_ns_per_byte={}:intra_alpha_ns={}:intra_beta_ns_per_byte={}:node_size={}",
            self.nranks,
            self.net.alpha().as_nanos(),
            self.net.beta_ns_per_byte(),
            self.net.intra_alpha().as_nanos(),
            self.net.intra_beta_ns_per_byte(),
            self.net.node_size()
        )
    }

    /// The reduce-scatter critical path of one distributed TTM, over every
    /// rank (see the module docs).
    fn ttm_cost(&self, meta: &TuckerMeta, premult: u32, n: usize, g: &Grid) -> f64 {
        let mut buf = [0; MAX_ORDER];
        let shape = premult_shape(meta, premult, &mut buf);
        self.critical_ns(0..self.nranks, |r| {
            self.ttm_rank_ns(shape, n, meta.k(n), g, r)
        })
    }

    /// The all-to-all charge of one regrid (`from → to`), message pattern
    /// and payloads from the real chunk geometry. At paper-scale α
    /// dominates regrids, and the message count — the number of
    /// overlapping blocks — depends on *both* grids, which is why this
    /// price is source-aware. It is symmetric — every rank's charge sums
    /// both directions of the exchange — so the search memoizes it per
    /// premult mask and unordered grid pair.
    ///
    /// A hierarchical model takes the critical path over the
    /// representative ranks only: the full max would cost `O(P · blocks)`
    /// per memoized `(premult, {from, to})` pair, which the joint DP
    /// cannot afford at paper-scale P, while rank 0 alone underprices
    /// regrids whose node-crossing traffic lands elsewhere.
    fn regrid_cost(&self, meta: &TuckerMeta, premult: u32, from: &Grid, to: &Grid) -> f64 {
        let mut buf = [0; MAX_ORDER];
        let shape = premult_shape(meta, premult, &mut buf);
        self.critical_ns(self.representative_ranks(), |r| {
            self.regrid_rank_ns(shape, from, to, r)
        })
    }

    /// Flat models: a `FlatRegridTable` of rank 0's per-mode overlaps,
    /// filled once per search, so a price is `2 · order` table reads and
    /// the grouped α–β sum — no chunk, cover or coordinate arithmetic.
    /// Hierarchical models price through `regrid_cost`.
    fn regrid_pricer<'s>(&'s self, meta: &'s TuckerMeta, grids: &'s [Grid]) -> RegridPricer<'s> {
        if self.net.is_hierarchical() {
            return Box::new(move |premult, a, b| {
                self.regrid_cost(meta, premult, &grids[a], &grids[b])
            });
        }
        let table = FlatRegridTable::new(meta, grids);
        Box::new(move |premult, a, b| table.price(self, premult, a, b))
    }

    /// The Gram critical path over every rank: mode-group column-share
    /// exchange plus the rank's share of the world all-reduce of the
    /// `L_n × L_n` Gram — one charge, since both phases accumulate on the
    /// same clock.
    fn leaf_cost(&self, meta: &TuckerMeta, premult: u32, n: usize, g: &Grid) -> f64 {
        let mut buf = [0; MAX_ORDER];
        let shape = premult_shape(meta, premult, &mut buf);
        let len = shape[n] * shape[n];
        self.critical_ns(0..self.nranks, |r| {
            self.gram_exchange_rank_ns(shape, n, g, r)
                + self.net.allreduce_rank_ns(self.nranks, r, len)
        })
    }

    fn sweep_overhead(&self, _meta: &TuckerMeta, nranks: usize) -> f64 {
        self.net.allreduce_rank_ns(nranks, 0, 1) as f64
    }

    /// Hierarchical pricing sees the axis order, so symmetric-mode
    /// relabeling changes costs and the orbit dedup must stay off.
    fn grid_symmetry_invariant(&self) -> bool {
        !self.net.is_hierarchical()
    }

    /// Under a hierarchical network, offer one node-aligned rank-ordering
    /// variant per geometric candidate (heaviest mode-reduction fastest) —
    /// the DP then picks whichever mapping prices lower.
    fn augment_grids(&self, meta: &TuckerMeta, grids: &mut Vec<Grid>) {
        if !self.net.is_hierarchical() {
            return;
        }
        let variants: Vec<Grid> = grids
            .iter()
            .filter_map(|g| self.node_aligned_variant(meta, g))
            .collect();
        grids.extend(variants);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::grid::{optimal_dynamic_grids, DynGridObjective};
    use crate::plan::schedule::Factor;
    use crate::plan::tree::{balanced_tree, chain_tree, optimal_tree};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Grouped flat regrid pricing equals the α–β fold over the shared
        /// message enumeration bit for bit, for both regrid directions and
        /// every rank of the grid: random shapes whose extents the grid
        /// counts rarely divide, premult masks, and random pairs of the
        /// candidate grids.
        #[test]
        fn grouped_flat_regrid_price_matches_the_walk(
            order in 2usize..=5,
            ls in prop::collection::vec(5usize..=29, 5),
            ks in prop::collection::vec(2usize..=9, 5),
            premult in 0u32..32,
            p in prop::sample::select(vec![4usize, 6, 8, 12, 16, 30, 36, 64]),
            picks in (0usize..10_000, 0usize..10_000),
        ) {
            let ks: Vec<usize> = (0..order).map(|n| ks[n].min(ls[n])).collect();
            let meta = TuckerMeta::new(ls[..order].to_vec(), ks);
            // The set `candidate_grids` returns (it panics when empty).
            let grids = tucker_distsim::enumerate_valid_grids(p, meta.core().dims());
            prop_assume!(!grids.is_empty());
            let (a, b) = (&grids[picks.0 % grids.len()], &grids[picks.1 % grids.len()]);
            let buf = &mut [0; MAX_ORDER];
            let shape = premult_shape(&meta, premult & ((1 << order) - 1), buf);
            for net in [NetModel::bgq(), NetModel::cluster().flattened()] {
                let model = NetCostModel::new(net, p);
                for r in 0..p {
                    for (from, to) in [(a, b), (b, a)] {
                        let msgs = [false, true].map(|inb| regrid_msgs(shape, from, to, r, inb));
                        prop_assert_eq!(
                            model.regrid_rank_ns(shape, from, to, r),
                            net.exchange_ns(msgs.into_iter().flatten())
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chain_cost_closed_form() {
        // For a chain computing leaf n with ordering m1, m2, ..., the cost is
        // |T| * (K_{m1} + K_{m2} h_{m1} + K_{m3} h_{m1} h_{m2} + ...).
        let meta = TuckerMeta::new([10, 20, 30], [2, 4, 3]);
        let tree = chain_tree(&meta, &[0, 1, 2]);
        let t = meta.input_cardinality();
        let (k, h): (Vec<f64>, Vec<f64>) = (0..3).map(|n| (meta.k(n) as f64, meta.h(n))).unzip();
        // Chain for leaf 0: modes 1,2 ; leaf 1: modes 0,2 ; leaf 2: modes 0,1.
        let expect = t * ((k[1] + k[2] * h[1]) + (k[0] + k[2] * h[0]) + (k[0] + k[1] * h[0]));
        let got = tree_flops(&tree, &meta);
        assert!(
            (got - expect).abs() < expect * 1e-12,
            "got {got}, expect {expect}"
        );
    }

    #[test]
    fn cardinalities_track_compression() {
        let meta = TuckerMeta::new([10, 10], [5, 2]);
        let tree = chain_tree(&meta, &[0, 1]);
        let g = Grid::trivial(2);
        // Root out = 100; chain head for leaf 0 multiplies mode 1 (h=0.2).
        let c1 = tree.node(tree.root()).children[0];
        let head = schedule::sweep_on(&meta, &tree, &g).ops[0];
        let kind = OpKind::Ttm {
            node: Some(c1),
            mode: 1,
            out: 20.0,
            factor: Factor::Previous,
        };
        assert_eq!((head.kind, head.input), (kind, 100.0));
        // K_1 · 100 for that TTM, K_0 · 100 for the other chain's.
        assert_eq!(tree_flops(&tree, &meta), 2.0 * 100.0 + 5.0 * 100.0);
    }

    #[test]
    fn balanced_at_most_chain_for_uniform() {
        // With uniform strong compression, reuse (balanced) must win.
        let meta = TuckerMeta::new(vec![50; 6], vec![5; 6]);
        let perm: Vec<usize> = (0..6).collect();
        let chain = chain_tree(&meta, &perm);
        let bal = balanced_tree(&meta, &perm);
        assert!(tree_flops(&bal, &meta) < tree_flops(&chain, &meta));
    }

    #[test]
    fn ordering_changes_chain_cost() {
        // With N = 3 each chain has two TTMs whose order matters: putting
        // the strongly-compressing mode first shrinks the second TTM.
        // (For N = 2 every chain is a single TTM and ordering is moot.)
        let meta = TuckerMeta::new([100, 100, 100], [1, 99, 50]);
        let cheap_first = chain_tree(&meta, &[0, 1, 2]);
        let costly_first = chain_tree(&meta, &[1, 2, 0]);
        let c1 = tree_flops(&cheap_first, &meta);
        let c2 = tree_flops(&costly_first, &meta);
        assert!(
            c1 < c2,
            "compressing mode 0 first must be cheaper: {c1} vs {c2}"
        );
    }

    #[test]
    fn leaf_and_root_cost_zero() {
        // One TTM per chain, `K · |T|` = 2 · 36 each: the root and the
        // leaves add no flops.
        let meta = TuckerMeta::new([6, 6], [2, 2]);
        let tree = chain_tree(&meta, &[0, 1]);
        assert_eq!(tree_flops(&tree, &meta), 2.0 * 2.0 * 36.0);
    }

    #[test]
    fn flop_volume_sweep_cost_matches_closed_forms() {
        // sweep_cost under the classic model == tree flops + 16 * scheme
        // volume.
        let meta = TuckerMeta::new([40, 100, 20, 50], [8, 20, 4, 10]);
        let tree = optimal_tree(&meta).tree;
        let scheme = optimal_dynamic_grids(&tree, &meta, 16, DynGridObjective::Exact);
        let expect = tree_flops(&tree, &meta) + VOLUME_FLOP_EQUIV * scheme.volume;
        let got = sweep_cost(&FlopVolumeModel, &meta, &tree, &scheme);
        assert!(
            (got - expect).abs() <= expect * 1e-12,
            "sweep_cost {got} vs closed form {expect}"
        );
    }

    #[test]
    fn premult_shape_tracks_mask() {
        let meta = TuckerMeta::new([10, 20, 30], [2, 4, 3]);
        let buf = &mut [0; MAX_ORDER];
        assert_eq!(premult_shape(&meta, 0, buf), [10, 20, 30]);
        assert_eq!(premult_shape(&meta, 0b101, buf), [2, 20, 3]);
        assert_eq!(premult_shape(&meta, 0b111, buf), [2, 4, 3]);
    }

    #[test]
    fn net_ttm_cost_matches_reduce_scatter_closed_form_even_split() {
        // One split mode, everything even: rank 0's charge equals the
        // critical path 2(q−1)·msg(chunk) of the balanced reduce-scatter.
        let meta = TuckerMeta::new([16, 8], [8, 8]);
        let g = Grid::new([4, 1]);
        let model = NetCostModel::new(NetModel::bgq(), 4);
        let got = model.ttm_cost(&meta, 0, 0, &g);
        // partial: 8 local rows of mode 1, K=8 split in chunks of 2:
        // each message is 2*8 = 16 elements.
        let expect = (2 * 3 * model.net().msg_elems_ns_between(0, 1, 16)) as f64;
        assert_eq!(got, expect);
    }

    #[test]
    fn net_costs_are_zero_on_one_rank() {
        let meta = TuckerMeta::new([8, 8], [4, 4]);
        let g = Grid::trivial(2);
        let model = NetCostModel::new(NetModel::bgq(), 1);
        assert_eq!(model.ttm_cost(&meta, 0, 0, &g), 0.0);
        assert_eq!(model.leaf_cost(&meta, 0b10, 0, &g), 0.0);
        assert_eq!(model.sweep_overhead(&meta, 1), 0.0);
        let tree = chain_tree(&meta, &[0, 1]);
        let scheme = DynGridScheme::static_scheme(&tree, &meta, g);
        let pred = model.predict_sweep(&meta, &tree, &scheme);
        assert_eq!(pred.comm_wall, Duration::ZERO);
        // One rank still computes: the wall is its compute alone.
        assert!(pred.ttm_compute > Duration::ZERO && pred.svd > Duration::ZERO);
        assert_eq!(pred.wall, pred.ttm_compute + pred.svd);
    }

    #[test]
    fn predict_sweep_rank0_dominates_categories() {
        // Rank 0 is the critical path for TTM and Gram; the per-category
        // maxima must be at least the rank-0 additive prices.
        let meta = TuckerMeta::new([12, 10, 8], [4, 4, 4]);
        let tree = chain_tree(&meta, &[0, 1, 2]);
        let model = NetCostModel::new(NetModel::bgq(), 8);
        let g = Grid::new([2, 2, 2]);
        let scheme = DynGridScheme::static_scheme(&tree, &meta, g.clone());
        let pred = model.predict_sweep(&meta, &tree, &scheme);
        assert!(pred.ttm_comm > Duration::ZERO);
        assert!(pred.gram_comm > Duration::ZERO);
        assert_eq!(pred.regrid_comm, Duration::ZERO);
        // comm_wall covers every category but never exceeds their sum.
        let sum = pred.ttm_comm + pred.regrid_comm + pred.gram_comm + pred.other_comm;
        assert!(pred.comm_wall <= sum);
        assert!(pred.comm_wall >= pred.ttm_comm.max(pred.gram_comm));
        // The additive rank-0 objective is bounded by the per-rank maxima
        // replay (same charges, rank 0's row).
        let additive = sweep_cost(&model, &meta, &tree, &scheme);
        assert!(additive <= sum.as_nanos() as f64 + 1.0);
    }

    #[test]
    fn net_regrid_cost_tracks_block_size_and_grid_overlap() {
        let meta = TuckerMeta::new([64, 64], [8, 8]);
        let model = NetCostModel::new(NetModel::bgq(), 8);
        let from = Grid::new([1, 8]);
        let to = Grid::new([8, 1]);
        let full = model.regrid_cost(&meta, 0, &from, &to);
        let shrunk = model.regrid_cost(&meta, 0b01, &from, &to);
        assert!(full > shrunk, "bigger inputs must cost more to regrid");
        assert!(shrunk > 0.0);
        // Regridding onto the same grid moves nothing.
        assert_eq!(model.regrid_cost(&meta, 0, &to, &to), 0.0);
        // An orthogonal regrid costs more than a near-aligned one: going
        // <8,1> -> <4,2> keeps most elements in place for rank 0, while
        // <8,1> -> <1,8> scatters its whole block.
        let near = model.regrid_cost(&meta, 0, &to, &Grid::new([4, 2]));
        let orth = model.regrid_cost(&meta, 0, &to, &from);
        assert!(orth > near, "orthogonal {orth} should beat aligned {near}");
    }
}
