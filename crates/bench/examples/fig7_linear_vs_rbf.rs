//! Figure 7: comparison of the predictive accuracies of linear
//! regression models (main effects + two-factor interactions, AIC
//! variable selection) and RBF network models, across sample sizes, for
//! three benchmarks.
//!
//! The paper's claims to reproduce: the non-linear models are
//! consistently more accurate at every sample size; for mcf the linear
//! model's error stays several times higher even at the largest sample
//! (paper: 6.5% vs 2.1% at n=200).

use ppm_core::study::fit_linear_baseline;
use ppm_experiments::{fmt, Report, Scale};
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();

    let mut report = Report::new(
        "fig7_linear_vs_rbf",
        "Figure 7: linear vs RBF model accuracy across sample sizes",
        &[
            "benchmark",
            "sample_size",
            "rbf_mean_pct",
            "linear_mean_pct",
            "linear_terms",
            "rbf_wins",
        ],
    );

    let mut rbf_wins = 0usize;
    let mut comparisons = 0usize;
    for bench in [Benchmark::Mcf, Benchmark::Vortex, Benchmark::Twolf] {
        let response = scale.response(bench);
        let holdout = scale.holdout(&response);

        for &n in &scale.sample_sizes {
            let built = scale.build(&response, n);
            let rbf_stats = holdout.score(|p| built.predict(p));

            let (lin_mean, lin_terms) = match fit_linear_baseline(&built.design, &built.responses) {
                Ok(lin) => (holdout.score(|p| lin.predict(p)).mean_pct, lin.num_terms()),
                Err(e) => {
                    println!("{bench} n={n}: linear model failed: {e}");
                    (f64::NAN, 0)
                }
            };

            comparisons += 1;
            let wins = rbf_stats.mean_pct < lin_mean;
            if wins {
                rbf_wins += 1;
            }
            report.row(vec![
                bench.to_string(),
                n.to_string(),
                fmt(rbf_stats.mean_pct, 2),
                fmt(lin_mean, 2),
                lin_terms.to_string(),
                wins.to_string(),
            ]);
        }
    }
    report.emit();
    println!(
        "RBF more accurate in {rbf_wins}/{comparisons} (benchmark, sample) cells \
         (paper: consistently better at every size)"
    );
}
