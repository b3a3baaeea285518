//! Ablation: does the paper's discrepancy-optimized latin hypercube
//! sampling actually beat plain LHS and uniform random sampling?
//!
//! Compares model accuracy (same trainer, same test set) when the
//! training sample is (a) the best-of-N LHS by L2-star discrepancy, (b)
//! a single LHS draw, (c) uniform random points.

use ppm_core::builder::RbfModelBuilder;
use ppm_core::response::eval_batch;
use ppm_core::space::DesignSpace;
use ppm_experiments::{fmt, Report, Scale};
use ppm_rng::Rng;
use ppm_sampling::discrepancy::l2_star;
use ppm_sampling::halton::halton_design;
use ppm_sampling::lhs::LatinHypercube;
use ppm_sampling::random::random_design;
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();
    let space = DesignSpace::paper_table1();
    let test_space = DesignSpace::paper_table2();
    let bench = Benchmark::Twolf;
    let response = scale.response(bench);
    let n = scale.final_sample;

    let builder = RbfModelBuilder::new(space.clone(), scale.build_config(n));
    let test = builder.test_points(&test_space, scale.test_points);
    let actual = eval_batch(&response, &test, builder.config().threads).expect("clean batch");

    let mut report = Report::new(
        "ablation_sampling",
        &format!("Ablation: sampling strategy ({bench}, n={n}, averaged over 3 seeds)"),
        &[
            "strategy",
            "mean_discrepancy",
            "mean_err_pct",
            "max_err_pct",
        ],
    );

    let seeds = [11u64, 22, 33];
    let strategies = [
        "best-of-N LHS (paper)",
        "single LHS",
        "uniform random",
        "halton sequence",
    ];
    let make = |strategy: &str, seed: u64| {
        let mut rng = Rng::seed_from_u64(seed);
        let lhs = LatinHypercube::new(space.params(), n);
        match strategy {
            "best-of-N LHS (paper)" => lhs
                .best_of(scale.lhs_candidates, &mut rng)
                .expect("non-zero candidates"),
            "single LHS" => lhs.generate(&mut rng),
            "uniform random" => random_design(space.params(), n, &mut rng),
            "halton sequence" => halton_design(space.params(), n, 20 + seed),
            other => unreachable!("no design for strategy {other}"),
        }
    };

    let mut means = Vec::new();
    for name in strategies {
        let mut err_sum = 0.0;
        let mut max_sum = 0.0;
        let mut disc_sum = 0.0;
        for &seed in &seeds {
            let design = make(name, seed);
            disc_sum += l2_star(&design);
            let responses =
                eval_batch(&response, &design, builder.config().threads).expect("clean batch");
            let built = builder
                .fit(design, responses, f64::NAN)
                .expect("finite CPI responses");
            let stats = built.evaluate(&test, &actual);
            err_sum += stats.mean_pct;
            max_sum += stats.max_pct;
        }
        let k = seeds.len() as f64;
        report.row(vec![
            name.to_string(),
            fmt(disc_sum / k, 5),
            fmt(err_sum / k, 2),
            fmt(max_sum / k, 2),
        ]);
        means.push(err_sum / k);
    }
    report.emit();
    println!(
        "best-of-N LHS vs random: {:.2}% vs {:.2}% mean error ({})",
        means[0],
        means[2],
        if means[0] <= means[2] {
            "LHS no worse, as expected"
        } else {
            "random won here (small-sample noise)"
        }
    );
}
