//! Ablation: adaptive sampling (the paper's future-work suggestion)
//! versus a one-shot latin hypercube at the same simulation budget.

use ppm_core::adaptive::{build_adaptive, AdaptiveConfig};
use ppm_core::builder::RbfModelBuilder;
use ppm_core::response::eval_batch;
use ppm_core::space::DesignSpace;
use ppm_experiments::{fmt, Report, Scale};
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();
    let space = DesignSpace::paper_table1();
    let test_space = DesignSpace::paper_table2();
    let bench = Benchmark::Twolf;
    let response = scale.response(bench);
    let budget = scale.final_sample;

    let builder = RbfModelBuilder::new(space.clone(), scale.build_config(budget));
    let test = builder.test_points(&test_space, scale.test_points);
    let actual = eval_batch(&response, &test, builder.config().threads).expect("clean batch");

    let mut report = Report::new(
        "ablation_adaptive",
        &format!("Ablation: adaptive sampling vs one-shot LHS ({bench}, budget={budget})"),
        &["strategy", "points", "mean_err_pct", "max_err_pct"],
    );

    // One-shot LHS at the full budget.
    let one_shot = builder.build(&response).expect("finite CPI responses");
    let s1 = one_shot.evaluate(&test, &actual);
    report.row(vec![
        "one-shot LHS (paper)".into(),
        one_shot.design.len().to_string(),
        fmt(s1.mean_pct, 2),
        fmt(s1.max_pct, 2),
    ]);

    // Adaptive: a third of the budget up front, the rest in batches.
    let config = AdaptiveConfig {
        initial_size: (budget / 3).max(10),
        batch_size: (budget / 6).max(5),
        budget,
        candidate_pool: 256,
        build: scale.build_config(budget),
    };
    let adaptive = build_adaptive(&space, &response, &config).expect("finite CPI responses");
    let s2 = adaptive.evaluate(&test, &actual);
    report.row(vec![
        "adaptive refinement".into(),
        adaptive.design.len().to_string(),
        fmt(s2.mean_pct, 2),
        fmt(s2.max_pct, 2),
    ]);
    report.emit();
    println!(
        "adaptive vs one-shot at equal budget: {:.2}% vs {:.2}% mean error",
        s2.mean_pct, s1.mean_pct
    );
}
