//! Linear vs non-linear models (paper §4.2): fit both to the *same*
//! simulated sample and score them on the same held-out test points.
//!
//! Run with `cargo run --release --example compare_models`.

use ppm::model::builder::{BuildConfig, RbfModelBuilder};
use ppm::model::response::SimulatorResponse;
use ppm::model::space::DesignSpace;
use ppm::model::study::fit_linear_baseline;
use ppm::workload::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = DesignSpace::paper_table1();

    println!(
        "{:<12} {:>12} {:>12} {:>8}",
        "benchmark", "rbf mean%", "linear mean%", "ratio"
    );
    for bench in [Benchmark::Mcf, Benchmark::Equake] {
        let response = SimulatorResponse::new(bench, 100_000);
        let builder =
            RbfModelBuilder::new(space.clone(), BuildConfig::default().with_sample_size(90));
        let built = builder.build(&response)?;

        // Same sample, linear model with main effects + interactions
        // and AIC backward elimination.
        let linear = fit_linear_baseline(&built.design, &built.responses)?;

        // Same test set for both.
        let holdout = builder.holdout(&response, 30, None)?;
        let rbf_stats = holdout.score(|p| built.predict(p));
        let lin_stats = holdout.score(|p| linear.predict(p));

        println!(
            "{:<12} {:>12.2} {:>12.2} {:>8.1}x",
            bench.to_string(),
            rbf_stats.mean_pct,
            lin_stats.mean_pct,
            lin_stats.mean_pct / rbf_stats.mean_pct
        );
    }
    println!("\n(the paper reports 2.1% vs 6.5% for mcf at n=200 — the RBF advantage)");
    Ok(())
}
