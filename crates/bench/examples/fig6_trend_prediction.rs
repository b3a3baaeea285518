//! Figure 6: using the RBF network to predict the variation in *vortex*
//! performance across instruction-cache sizes and L2 latencies, against
//! fresh detailed simulation.
//!
//! The paper's claim to reproduce: the model's predicted curves closely
//! mirror the simulated trends for the il1 × L2-latency interaction
//! (with the largest deviations at small caches and high latencies).

use ppm_core::study::interaction_grid;
use ppm_experiments::{fmt, Report, Scale};
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();
    let response = scale.response(Benchmark::Vortex);
    let built = scale.build(&response, scale.final_sample);

    // Simulate the whole il1 x L2-latency grid as one batch; the report
    // keeps every third L2-latency level at paper scale, every fifth
    // otherwise.
    let (il1_vals, l2_vals, points) = interaction_grid(&scale.space(), 6, 5, &[0.5; 9], 16);
    let simulated = scale.simulate(&response, &points);
    let predicted: Vec<f64> = points.iter().map(|x| built.predict(x)).collect();
    let sim_grid: Vec<&[f64]> = simulated.chunks(l2_vals.len()).collect();
    let model_grid: Vec<&[f64]> = predicted.chunks(l2_vals.len()).collect();

    let mut report = Report::new(
        "fig6_trend_prediction",
        "Figure 6: simulated vs model-predicted vortex CPI over (il1, L2 lat)",
        &[
            "il1_size_kb",
            "L2_lat",
            "simulated_cpi",
            "predicted_cpi",
            "err_pct",
        ],
    );
    let mut worst: f64 = 0.0;
    let mut mean = 0.0;
    let mut count = 0;
    let stride = if scale.full { 3 } else { 5 };
    for (i, &il1) in il1_vals.iter().enumerate() {
        for (j, &lat) in l2_vals.iter().enumerate().step_by(stride) {
            let s = sim_grid[i][j];
            let m = model_grid[i][j];
            let err = 100.0 * ((m - s) / s).abs();
            worst = worst.max(err);
            mean += err;
            count += 1;
            report.row(vec![
                fmt(il1, 0),
                fmt(lat, 0),
                fmt(s, 3),
                fmt(m, 3),
                fmt(err, 2),
            ]);
        }
    }
    report.emit();
    println!(
        "trend tracking: mean err {:.2}%, worst err {:.2}% across the interaction grid \
         (paper: predictions closely mirror simulation)",
        mean / count as f64,
        worst
    );

    // Direction agreement: does the model rank il1=8KB slower than 64KB
    // at the highest latency, as simulation does?
    let sim_says = sim_grid[0][0] > sim_grid[il1_vals.len() - 1][0];
    let model_says = model_grid[0][0] > model_grid[il1_vals.len() - 1][0];
    println!(
        "interaction direction agreement: {}",
        if sim_says == model_says { "yes" } else { "NO" }
    );
}
