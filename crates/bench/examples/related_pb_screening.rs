//! Related work (paper §5): Plackett–Burman screening (Yi et al.,
//! HPCA 2005) estimates the significance of the nine parameters in a
//! handful of simulations — but "these designs cannot quantify all the
//! interactions between processor parameters, which we observe are
//! significant."
//!
//! This harness runs a foldover PB-12 screening (24 simulations) per
//! benchmark, reports the estimated main effects, and compares the
//! significance ranking against the regression tree's split ranking
//! from the full sample.

use ppm_core::builder::RbfModelBuilder;
use ppm_core::response::eval_batch;
use ppm_core::space::DesignSpace;
use ppm_core::study::{pb_screening, significant_splits};
use ppm_experiments::{fmt, Report, Scale};
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();
    let space = DesignSpace::paper_table1();

    let mut report = Report::new(
        "related_pb_screening",
        "Related work: Plackett-Burman (foldover, 24 runs) main effects",
        &[
            "benchmark",
            "rank",
            "parameter",
            "effect_cpi",
            "tree_rank_of_param",
        ],
    );

    for bench in [Benchmark::Mcf, Benchmark::Vortex] {
        let response = scale.response(bench);
        let builder = RbfModelBuilder::new(space.clone(), scale.build_config(scale.final_sample));
        let threads = builder.config().threads;
        let effects = pb_screening(&space, &response, 12, threads).expect("supported PB design");

        // Tree ranking from a proper LHS sample for comparison.
        let (design, _) = builder.select_sample().expect("valid sweep config");
        let responses = eval_batch(&response, &design, threads).expect("clean batch");
        let splits = significant_splits(&space, &design, &responses, 1, usize::MAX).expect("valid");
        let tree_rank = |param: &str| -> String {
            splits
                .iter()
                .position(|s| s.param == param)
                .map(|r| (r + 1).to_string())
                .unwrap_or_else(|| "-".into())
        };

        for (rank, e) in effects.iter().take(5).enumerate() {
            report.row(vec![
                bench.to_string(),
                (rank + 1).to_string(),
                e.param.to_string(),
                fmt(e.effect, 3),
                tree_rank(e.param),
            ]);
        }
        let agree = effects
            .iter()
            .take(3)
            .filter(|e| splits.iter().take(8).any(|s| s.param == e.param))
            .count();
        println!("{bench}: {agree}/3 of PB's top factors appear in the tree's top-8 splits");
    }
    report.emit();
    println!(
        "(PB screens main effects in 24 runs but models nothing — no interactions, \
         no predictions; the paper's procedure needs ~4x the runs and yields a full \
         predictive surface)"
    );
}
