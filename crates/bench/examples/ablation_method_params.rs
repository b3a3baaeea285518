//! Ablation: sensitivity of model accuracy to the method parameters
//! `p_min` and α away from the grid-searched optimum (paper §2.6 finds
//! the best by AICc; Table 4 reports the winners).

use ppm_experiments::{fmt, Report, Scale};
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();
    let bench = Benchmark::Mcf;
    let response = scale.response(bench);
    let n = scale.final_sample;

    let (design, responses) = scale.sample(&response, n);
    let data = ppm_regtree::Dataset::new(design, responses).expect("finite CPI responses");
    let holdout = scale.holdout(&response);

    let p_mins: &[usize] = &[1, 2, 4];
    let alphas: &[f64] = if scale.full {
        &[1.0, 2.0, 4.0, 7.0, 10.0, 14.0, 20.0]
    } else {
        &[1.0, 4.0, 7.0, 14.0]
    };

    let mut report = Report::new(
        "ablation_method_params",
        &format!("Ablation: (p_min, alpha) sensitivity ({bench}, n={n})"),
        &["p_min", "alpha", "aicc", "centers", "mean_err_pct"],
    );

    let mut best_by_aicc: Option<(f64, f64)> = None; // (aicc, mean_err)
    let mut best_err = f64::INFINITY;
    for &p_min in p_mins {
        for &alpha in alphas {
            let fitted = scale.trainer().fit_fixed(&data, p_min, alpha);
            let stats = holdout.score(|p| fitted.network.predict(p));
            report.row(vec![
                p_min.to_string(),
                fmt(alpha, 0),
                fmt(fitted.score, 1),
                fitted.network.num_centers().to_string(),
                fmt(stats.mean_pct, 2),
            ]);
            if best_by_aicc.as_ref().is_none_or(|(a, _)| fitted.score < *a) {
                best_by_aicc = Some((fitted.score, stats.mean_pct));
            }
            best_err = best_err.min(stats.mean_pct);
        }
    }
    report.emit();
    let (_, aicc_err) = best_by_aicc.expect("grid evaluated");
    println!(
        "AICc-chosen combination test error {:.2}% vs oracle-best {:.2}% \
         (AICc should track the oracle without seeing test data)",
        aicc_err, best_err
    );
}
