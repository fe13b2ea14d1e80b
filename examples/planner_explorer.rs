//! Planner explorer: inspect trees, grids and model predictions for any
//! metadata — the paper's planner (§5) as an interactive tool.
//!
//! ```text
//! cargo run --release --example planner_explorer [-- L1,L2,... K1,K2,... P]
//! # e.g.
//! cargo run --release --example planner_explorer -- 400,100,100,50,20 80,80,10,40,10 32
//! ```
//!
//! Defaults to the paper's maximum-gain 5-D tensor (§6.2) on 32 ranks.

use tucker_core::meta::TuckerMeta;
use tucker_core::plan::tree::{NodeLabel, TtmTree};
use tucker_core::plan::{GridStrategy, Planner, TreeStrategy};

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',')
        .map(|x| x.trim().parse().expect("bad integer list"))
        .collect()
}

/// Render a tree as an indented outline.
fn render(tree: &TtmTree) -> String {
    let mut out = String::new();
    let mut stack = vec![(tree.root(), 0usize)];
    while let Some((id, depth)) = stack.pop() {
        let pad = "  ".repeat(depth);
        let label = match tree.node(id).label {
            NodeLabel::Root => "T (input)".to_string(),
            NodeLabel::Ttm(n) => format!("x_{n} F{n}^T"),
            NodeLabel::Leaf(n) => format!("=> new factor F~{n}"),
        };
        out.push_str(&format!("{pad}{label}\n"));
        for &c in tree.node(id).children.iter().rev() {
            stack.push((c, depth + 1));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (l, k, p) = if args.len() >= 3 {
        (
            parse_list(&args[0]),
            parse_list(&args[1]),
            args[2].parse().expect("bad P"),
        )
    } else {
        // The tensor with the paper's maximum reported gain (7x overall):
        // 400x100x100x50x20 compressed to 80x80x10x40x10.
        (
            vec![400, 100, 100, 50, 20],
            vec![80, 80, 10, 40, 10],
            32usize,
        )
    };
    let meta = TuckerMeta::new(l, k);
    println!("metadata: {meta},  P = {p}\n");

    let planner = Planner::new(meta.clone(), p);

    for (ts, gs) in [
        (TreeStrategy::chain_k(), GridStrategy::StaticOptimal),
        (TreeStrategy::chain_h(), GridStrategy::StaticOptimal),
        (TreeStrategy::Balanced, GridStrategy::StaticOptimal),
        (TreeStrategy::Optimal, GridStrategy::StaticOptimal),
        (TreeStrategy::Optimal, GridStrategy::Dynamic),
    ] {
        let plan = planner.plan(ts, gs.clone());
        println!("--- {} ---", plan.name());
        println!(
            "TTMs: {}   model load: {:.3} GFLOP   model volume: {:.3} Melems   regrids: {}",
            plan.tree.num_ttms(),
            plan.flops / 1e9,
            plan.volume / 1e6,
            plan.grids.regrid_count(),
        );
        println!("initial grid: {}", plan.grids.initial);
        if plan.grids.regrid_count() > 0 {
            for id in plan.tree.internal_nodes() {
                if plan.grids.regrid[id] {
                    let NodeLabel::Ttm(n) = plan.tree.node(id).label else {
                        unreachable!()
                    };
                    println!(
                        "  regrid before TTM along mode {n}: -> {}",
                        plan.grids.node_grids[id]
                    );
                }
            }
        }
        if matches!(ts, TreeStrategy::Optimal) && gs == GridStrategy::Dynamic {
            println!("\noptimal tree:\n{}", render(&plan.tree));
        }
        println!();
    }

    let lineup = planner.paper_lineup();
    let best = &lineup[3];
    println!("model improvement of (opt-tree, dynamic) over prior heuristics:");
    for other in &lineup[..3] {
        println!(
            "  vs {:>18}: load {:.2}x, volume {:.2}x",
            other.name(),
            other.flops / best.flops,
            if best.volume > 0.0 {
                other.volume / best.volume
            } else {
                f64::INFINITY
            },
        );
    }
}
