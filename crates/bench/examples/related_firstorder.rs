//! Related work (paper §5): first-order analytical models
//! (Karkhanis & Smith, Noonburg & Shen) "are useful to evaluate and
//! compare the performance of closely related designs, but they have
//! not been demonstrated to be accurate across the entire feasible
//! design space."
//!
//! This harness measures exactly that: the first-order model's CPI
//! error across random points of the full Table 2 space, against the
//! RBF surrogate built from the same simulation budget that the
//! profiling pass costs (~1 trace pass ≈ 1 simulation; we grant the
//! RBF its usual sample).

use ppm_experiments::{fmt, Report, Scale};
use ppm_firstorder::{FirstOrderModel, ProgramStats};
use ppm_sim::SimConfig;
use ppm_workload::{Benchmark, TraceGenerator};

fn main() {
    let scale = Scale::from_env();
    let space = scale.space();

    let mut report = Report::new(
        "related_firstorder",
        "Related work: first-order analytical model vs RBF surrogate",
        &[
            "benchmark",
            "firstorder_mean_pct",
            "firstorder_max_pct",
            "rbf_mean_pct",
            "rbf_max_pct",
        ],
    );

    for bench in [Benchmark::Mcf, Benchmark::Crafty, Benchmark::Equake] {
        let response = scale.response(bench);
        let holdout = scale.holdout(&response);

        // First-order: one profiling pass, then analytic evaluation.
        let fo = FirstOrderModel::new(ProgramStats::collect(
            TraceGenerator::new(bench, 1).take(scale.trace_len),
            &SimConfig::default(),
        ));
        let fo_stats = holdout.score(|p| fo.predict(&space.to_config(p)));

        // RBF surrogate.
        let built = scale.build(&response, scale.final_sample);
        let rbf_stats = holdout.score(|p| built.predict(p));

        report.row(vec![
            bench.to_string(),
            fmt(fo_stats.mean_pct, 1),
            fmt(fo_stats.max_pct, 1),
            fmt(rbf_stats.mean_pct, 2),
            fmt(rbf_stats.max_pct, 2),
        ]);
    }
    report.emit();
    println!(
        "(expected: the first-order model gets trends right but its absolute error \
         across the space is an order of magnitude above the RBF surrogate's — \
         the paper's §5 argument)"
    );
}
