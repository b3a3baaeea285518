//! End-to-end integration: the full BuildRBFmodel pipeline over the
//! real simulator, exercised through the `ppm` facade exactly as a
//! downstream user would.

use ppm::model::builder::{BuildConfig, RbfModelBuilder};
use ppm::model::response::SimulatorResponse;
use ppm::model::space::DesignSpace;
use ppm::model::study::fit_linear_baseline;
use ppm::workload::Benchmark;

/// Small but real: 40 training simulations of 40k instructions.
fn quick_build(bench: Benchmark) -> (RbfModelBuilder, SimulatorResponse, ppm::model::BuiltModel) {
    let space = DesignSpace::paper_table1();
    let response = SimulatorResponse::new(bench, 40_000);
    let builder = RbfModelBuilder::new(space, BuildConfig::quick(40));
    let built = builder.build(&response).expect("finite CPI responses");
    (builder, response, built)
}

#[test]
fn pipeline_builds_an_accurate_model_of_the_simulator() {
    let (builder, response, built) = quick_build(Benchmark::Crafty);
    let holdout = builder.holdout(&response, 12, None).expect("clean batch");
    let stats = holdout.score(|p| built.predict(p));
    // Reduced-scale accuracy band: the paper reaches ~3% at n=200; with
    // n=40 and short traces we accept anything clearly informative.
    assert!(
        stats.mean_pct < 8.0,
        "mean error {stats} too high for a working pipeline"
    );
    assert!(stats.max_pct < 30.0, "max error {stats}");
}

#[test]
fn rbf_beats_the_linear_baseline_on_the_same_sample() {
    let (builder, response, built) = quick_build(Benchmark::Mcf);
    let linear = fit_linear_baseline(&built.design, &built.responses).expect("fits");
    let holdout = builder.holdout(&response, 12, None).expect("clean batch");
    let rbf = holdout.score(|p| built.predict(p));
    let lin = holdout.score(|p| linear.predict(p));
    assert!(
        rbf.mean_pct < lin.mean_pct,
        "rbf ({rbf}) should beat linear ({lin}) — the paper's Figure 7 claim"
    );
}

#[test]
fn model_tracks_a_first_order_trend_of_the_simulator() {
    // The model must know that mcf gets slower when the L2 latency
    // grows (unit coordinate 5 moving to 0).
    let (_, _, built) = quick_build(Benchmark::Mcf);
    let mut slow = [0.5; 9];
    slow[5] = 0.05;
    let mut fast = [0.5; 9];
    fast[5] = 0.95;
    assert!(
        built.predict(&slow) > built.predict(&fast),
        "model misses the L2-latency trend"
    );
}

#[test]
fn facade_reexports_compose() {
    // Touch every re-exported crate through the facade in one flow.
    let mut rng = ppm::rng::Rng::seed_from_u64(1);
    let space = DesignSpace::paper_table1();
    let design = ppm::sampling::lhs::LatinHypercube::new(space.params(), 16).generate(&mut rng);
    let y: Vec<f64> = design.iter().map(|p| 1.0 + p[0]).collect();
    let data = ppm::regtree::Dataset::new(design, y).expect("valid");
    let tree = ppm::regtree::RegressionTree::fit(&data, 2);
    let result =
        ppm::rbf::select_centers(&tree, &data, &ppm::rbf::SelectionConfig::with_alpha(6.0));
    assert!(result.network.num_centers() >= 1);
    let m = ppm::linalg::Matrix::identity(3);
    assert_eq!(m.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
}
