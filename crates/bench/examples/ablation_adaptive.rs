//! Ablation: adaptive sampling (the paper's future-work suggestion)
//! versus a one-shot latin hypercube at the same simulation budget.

use ppm_experiments::{fmt, Report, Scale};
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();
    let bench = Benchmark::Twolf;
    let response = scale.response(bench);
    let budget = scale.final_sample;

    let holdout = scale.holdout(&response);

    let mut report = Report::new(
        "ablation_adaptive",
        &format!("Ablation: adaptive sampling vs one-shot LHS ({bench}, budget={budget})"),
        &["strategy", "points", "mean_err_pct", "max_err_pct"],
    );

    // One-shot LHS at the full budget.
    let one_shot = scale.build(&response, budget);
    let s1 = holdout.score(|p| one_shot.predict(p));
    report.row(vec![
        "one-shot LHS (paper)".into(),
        one_shot.design.len().to_string(),
        fmt(s1.mean_pct, 2),
        fmt(s1.max_pct, 2),
    ]);

    // Adaptive: a third of the budget up front, the rest in batches.
    let adaptive = scale
        .builder(budget)
        .build_adaptive(&response)
        .expect("finite CPI responses");
    let s2 = holdout.score(|p| adaptive.predict(p));
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
