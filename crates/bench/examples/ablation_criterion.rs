//! Ablation: the model-selection criterion. The paper modified Orr's
//! software to use AICc; this ablation compares AICc against BIC and
//! GCV on the same samples.

use ppm_core::builder::RbfModelBuilder;
use ppm_core::response::eval_batch;
use ppm_core::space::DesignSpace;
use ppm_experiments::{fmt, Report, Scale};
use ppm_rbf::Criterion;
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();
    let space = DesignSpace::paper_table1();
    let test_space = DesignSpace::paper_table2();
    let bench = Benchmark::Mcf;
    let response = scale.response(bench);
    let n = scale.final_sample;

    // One shared sample so only the criterion varies.
    let base_builder = RbfModelBuilder::new(space.clone(), scale.build_config(n));
    let (design, disc) = base_builder.select_sample().expect("valid sweep config");
    let responses =
        eval_batch(&response, &design, base_builder.config().threads).expect("clean batch");
    let test = base_builder.test_points(&test_space, scale.test_points);
    let actual = eval_batch(&response, &test, base_builder.config().threads).expect("clean batch");

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
        let mut config = scale.build_config(n);
        config.trainer.criterion = criterion;
        let builder = RbfModelBuilder::new(space.clone(), config);
        let built = builder
            .fit(design.clone(), responses.clone(), disc)
            .expect("finite CPI responses");
        let stats = built.evaluate(&test, &actual);
        report.row(vec![
            format!("{criterion:?}"),
            fmt(stats.mean_pct, 2),
            fmt(stats.max_pct, 2),
            built.model.network.num_centers().to_string(),
            built.model.p_min.to_string(),
            fmt(built.model.alpha, 0),
        ]);
    }
    report.emit();
    println!("(the paper uses AICc; all three should be in the same accuracy band, with BIC usually selecting fewer centers)");
}
