//! Figure 4: mean error, standard deviation, and maximum error of the
//! RBF predictive model for *mcf* and *twolf* at different sample
//! sizes.
//!
//! The paper's claims to reproduce: model error decreases with sample
//! size, and the decrease tapers at higher sizes (knee around the
//! L2-star discrepancy knee).

use ppm_core::builder::RbfModelBuilder;
use ppm_core::response::eval_batch;
use ppm_core::space::DesignSpace;
use ppm_experiments::{fmt, Report, Scale};
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();
    let space = DesignSpace::paper_table1();
    let test_space = DesignSpace::paper_table2();

    let mut report = Report::new(
        "fig4_error_vs_samples",
        "Figure 4: RBF model error vs sample size (mcf, twolf)",
        &["benchmark", "sample_size", "mean_pct", "std_pct", "max_pct"],
    );

    for bench in [Benchmark::Mcf, Benchmark::Twolf] {
        let response = scale.response(bench);
        // One fixed test set per benchmark, shared across sample sizes.
        let probe = RbfModelBuilder::new(space.clone(), scale.build_config(30));
        let test = probe.test_points(&test_space, scale.test_points);
        let actual = eval_batch(&response, &test, probe.config().threads).expect("clean batch");

        let mut means = Vec::new();
        for &n in &scale.sample_sizes {
            let builder = RbfModelBuilder::new(space.clone(), scale.build_config(n));
            let built = builder.build(&response).expect("finite CPI responses");
            let stats = built.evaluate(&test, &actual);
            report.row(vec![
                bench.to_string(),
                n.to_string(),
                fmt(stats.mean_pct, 2),
                fmt(stats.std_pct, 2),
                fmt(stats.max_pct, 2),
            ]);
            means.push(stats.mean_pct);
        }
        let first = means[0];
        let last = *means.last().expect("nonempty");
        println!(
            "{bench}: mean error {first:.2}% at n={} -> {last:.2}% at n={} ({})",
            scale.sample_sizes[0],
            scale.sample_sizes.last().unwrap(),
            if last < first {
                "decreasing, as in the paper"
            } else {
                "NOT decreasing (unexpected)"
            }
        );
    }
    report.emit();
}
