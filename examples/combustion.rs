//! Combustion-science compression: the paper's motivating workload.
//!
//! ```text
//! cargo run --release --example combustion
//! ```
//!
//! Runs the full four-strategy lineup of the paper's evaluation on
//! scaled-down versions of the Table 2 combustion tensors (HCCI, TJLR, SP),
//! filled with a synthetic plume field, and prints a Figure 10c-style
//! breakdown (SVD / TTM computation / TTM communication) per strategy.

use tucker_core::engine::DistRun;
use tucker_core::plan::Planner;
use tucker_suite::fields::combustion_field;
use tucker_suite::real::scaled_real_tensors;

fn main() {
    let nranks = 8;
    // Divide spatial axes by 32 so each run takes seconds, not hours; the
    // mode proportions (which drive all planning decisions) are preserved.
    let tensors = scaled_real_tensors(32);

    for rt in &tensors {
        println!("=== {} ({}) on {nranks} ranks ===", rt.name, rt.meta);
        let planner = Planner::new(rt.meta.clone(), nranks);
        let dims: Vec<usize> = rt.meta.input().dims().to_vec();

        for plan in planner.paper_lineup() {
            let field = |c: &[usize]| combustion_field(c, &dims);
            let out = DistRun::of(&plan, 1).run(field);
            let s = &out.per_sweep[0];
            println!(
                "{:>22}: total {:>9.1?}  svd {:>9.1?}  ttm-comp {:>9.1?}  \
                 ttm-comm {:>9.1?}  regrid {:>9.1?}  err {:.4}",
                plan.name(),
                s.wall,
                s.svd,
                s.ttm_compute,
                s.ttm_comm,
                s.regrid_comm,
                s.error,
            );
        }
        println!();
    }

    println!(
        "Note: per the paper (§6.2), execution cost depends only on metadata; \
         the synthetic plume field only affects the reported error values."
    );
}
