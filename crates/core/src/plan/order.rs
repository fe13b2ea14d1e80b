//! Mode-order planning: chain orderings (§3.2), the engine's canonical
//! core-chain order, and the optimal STHOSVD chain order.
//!
//! Every piece of "which mode goes first" logic in the workspace lives
//! here:
//!
//! * [`ModeOrdering`] — the orderings of Austin et al. used by the paper's
//!   chain-tree heuristics ("(chain, K)" and "(chain, h)");
//! * `core_chain_order` — the order the executor chains the new core in
//!   (strongest compression first; mathematically any order is equal, this
//!   one minimizes cost and the cost models mirror it exactly);
//! * [`optimal_sthosvd_order`] — the single-chain specialization of the
//!   §3.3 tree optimization: an adjacent-exchange argument shows the
//!   FLOP-minimizing STHOSVD order sorts modes by `K_n / (1 − h_n)`
//!   ascending, incompressible (`h_n = 1`) modes last.

use crate::meta::TuckerMeta;

/// Mode orderings for chain trees (Austin et al., §3.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModeOrdering {
    /// The input order `0, 1, …, N−1`.
    Natural,
    /// Increasing cost factor `K_n` ("K-ordering"): cheap modes first, so the
    /// large tensors near the top of the tree incur low per-element cost.
    ByCostFactor,
    /// Increasing compression factor `h_n` ("h-ordering"): strongest
    /// compression first, so the tensor shrinks as early as possible.
    ByCompression,
}

impl ModeOrdering {
    /// The permutation of modes this ordering induces for `meta`.
    ///
    /// Ties are broken by mode index, making the permutation deterministic.
    pub fn permutation(self, meta: &TuckerMeta) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..meta.order()).collect();
        match self {
            ModeOrdering::Natural => {}
            ModeOrdering::ByCostFactor => {
                perm.sort_by(|&a, &b| meta.k(a).cmp(&meta.k(b)).then(a.cmp(&b)));
            }
            ModeOrdering::ByCompression => {
                perm.sort_by(|&a, &b| meta.h(a).partial_cmp(&meta.h(b)).unwrap().then(a.cmp(&b)));
            }
        }
        perm
    }
}

/// The executor's canonical core-update chain order: all modes, strongest
/// compression first (ties keep mode order — the sort is stable). Any order
/// is mathematically equal; this one shrinks the tensor fastest. The §4.1
/// volume model and the α–β cost model both walk the chain in exactly this
/// order, so predictions match the executed chain node for node.
pub(crate) fn core_chain_order(meta: &TuckerMeta) -> Vec<usize> {
    let mut order: Vec<usize> = (0..meta.order()).collect();
    order.sort_by(|&a, &b| meta.h(a).partial_cmp(&meta.h(b)).unwrap());
    order
}

/// The mode order minimizing the STHOSVD chain's TTM FLOPs: ascending
/// `K_n / (1 − h_n)`, with incompressible (`h_n = 1`) modes last (they never
/// shrink the tensor, so multiplying them early only wastes work). Validated
/// against brute force over all permutations in the `dist_sthosvd` tests.
pub fn optimal_sthosvd_order(meta: &TuckerMeta) -> Vec<usize> {
    let mut order: Vec<usize> = (0..meta.order()).collect();
    let key = |n: usize| {
        let h = meta.h(n);
        if h >= 1.0 {
            f64::INFINITY
        } else {
            meta.k(n) as f64 / (1.0 - h)
        }
    };
    order.sort_by(|&a, &b| key(a).partial_cmp(&key(b)).unwrap().then(a.cmp(&b)));
    order
}

/// TTM FLOPs of an STHOSVD chain processed in `order` (truncation multiplies
/// only; the Gram cost is reported separately by the stats).
pub fn sthosvd_chain_flops(meta: &TuckerMeta, order: &[usize]) -> f64 {
    let mut card = meta.input_cardinality();
    let mut flops = 0.0;
    for &n in order {
        flops += meta.k(n) as f64 * card;
        card *= meta.h(n);
    }
    flops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orderings() {
        // K = [4,3,2,5], h = [0.1, 0.1, 0.1, 0.5]
        let meta = TuckerMeta::new([40, 30, 20, 10], [4, 3, 2, 5]);
        assert_eq!(ModeOrdering::Natural.permutation(&meta), vec![0, 1, 2, 3]);
        assert_eq!(
            ModeOrdering::ByCostFactor.permutation(&meta),
            vec![2, 1, 0, 3]
        );
        // h: 4/40=0.1, 3/30=0.1, 2/20=0.1, 5/10=0.5 -> ties by index.
        assert_eq!(
            ModeOrdering::ByCompression.permutation(&meta),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn core_chain_orders_by_compression() {
        let meta = TuckerMeta::new([10, 100, 20], [5, 10, 2]);
        // h = [0.5, 0.1, 0.1]; stable sort keeps mode 1 before 2.
        assert_eq!(core_chain_order(&meta), vec![1, 2, 0]);
    }

    #[test]
    fn sthosvd_chain_flops_closed_form() {
        let meta = TuckerMeta::new([10, 20], [2, 4]);
        // Order [0, 1]: K0*|T| + K1*h0*|T| = 2*200 + 4*0.2*200.
        let f = sthosvd_chain_flops(&meta, &[0, 1]);
        assert!((f - (2.0 * 200.0 + 4.0 * 40.0)).abs() < 1e-9);
    }
}
