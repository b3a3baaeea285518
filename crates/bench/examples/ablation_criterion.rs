//! Ablation: the model-selection criterion. The paper modified Orr's
//! software to use AICc; this ablation compares AICc against BIC and
//! GCV on the same samples.

use ppm_experiments::{fmt, Report, Scale};
use ppm_rbf::{Criterion, RbfTrainer};
use ppm_regtree::Dataset;
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();
    let bench = Benchmark::Mcf;
    let response = scale.response(bench);
    let n = scale.final_sample;

    // One shared sample so only the criterion varies.
    let (design, responses) = scale.sample(&response, n);
    let data = Dataset::new(design, responses).expect("finite CPI responses");
    let holdout = scale.holdout(&response);

    let mut report = Report::new(
        "ablation_criterion",
        &format!("Ablation: selection criterion ({bench}, n={n})"),
        &[
            "criterion",
            "mean_err_pct",
            "max_err_pct",
            "centers",
            "p_min",
            "alpha",
        ],
    );

    for criterion in [Criterion::Aicc, Criterion::Bic, Criterion::Gcv] {
        let trainer = RbfTrainer {
            criterion,
            ..scale.trainer()
        };
        let model = trainer.fit(&data).expect("usable training grid");
        let stats = holdout.score(|p| model.network.predict(p));
        report.row(vec![
            format!("{criterion:?}"),
            fmt(stats.mean_pct, 2),
            fmt(stats.max_pct, 2),
            model.network.num_centers().to_string(),
            model.p_min.to_string(),
            fmt(model.alpha, 0),
        ]);
    }
    report.emit();
    println!("(the paper uses AICc; all three should be in the same accuracy band, with BIC usually selecting fewer centers)");
}
