//! Ablation: the center-selection strategy. The paper uses Orr's
//! tree-ordered selection; this compares it against plain greedy
//! forward selection over all tree nodes and against using every leaf
//! as a center (no selection).

use ppm_experiments::{fmt, Report, Scale};
use ppm_rbf::{
    select_all_leaves, select_centers, select_centers_forward, SelectionConfig, SelectionResult,
};
use ppm_regtree::{Dataset, RegressionTree};
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();
    let bench = Benchmark::Vortex;
    let response = scale.response(bench);
    let n = scale.final_sample;

    let (design, responses) = scale.sample(&response, n);
    let holdout = scale.holdout(&response);

    let data = Dataset::new(design, responses).expect("finite CPI responses");
    let tree = RegressionTree::fit(&data, 1);
    let config = SelectionConfig::with_alpha(7.0);

    type Select = fn(&RegressionTree, &Dataset, &SelectionConfig) -> SelectionResult;
    let strategies: [(&str, Select); 3] = [
        ("tree-ordered (Orr, paper)", select_centers),
        ("greedy forward", select_centers_forward),
        ("all leaves (no selection)", select_all_leaves),
    ];

    let mut report = Report::new(
        "ablation_selection",
        &format!("Ablation: center-selection strategy ({bench}, n={n}, alpha=7, p_min=1)"),
        &[
            "strategy",
            "centers",
            "train_sse",
            "mean_err_pct",
            "max_err_pct",
        ],
    );

    for (name, select) in strategies {
        let t0 = std::time::Instant::now();
        let result = select(&tree, &data, &config);
        let elapsed = t0.elapsed().as_secs_f64();
        let stats = holdout.score(|p| result.network.predict(p));
        // Wall time varies run to run, so it goes to stdout, not the CSV.
        println!("{name}: selected in {elapsed:.2}s");
        report.row(vec![
            name.to_string(),
            result.network.num_centers().to_string(),
            fmt(result.sse, 4),
            fmt(stats.mean_pct, 2),
            fmt(stats.max_pct, 2),
        ]);
    }
    report.emit();
    println!("(expected: all-leaves overfits — low train SSE, worse test error; tree-ordered matches forward at lower cost)");
}
