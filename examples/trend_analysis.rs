//! Trend analysis (paper §4.1): use the model to predict how two
//! parameters interact — here, vortex's instruction-cache size versus
//! L2 latency (the paper's Figure 6) — and check the predicted curves
//! against a few detailed simulations.
//!
//! Run with `cargo run --release --example trend_analysis`.

use ppm::model::builder::{BuildConfig, RbfModelBuilder};
use ppm::model::response::{Response, SimulatorResponse};
use ppm::model::space::DesignSpace;
use ppm::model::study::interaction_grid;
use ppm::workload::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = DesignSpace::paper_table1();
    let response = SimulatorResponse::new(Benchmark::Vortex, 100_000);

    println!("training the surrogate (90 simulations)...");
    let built = RbfModelBuilder::new(space.clone(), BuildConfig::default().with_sample_size(90))
        .build(&response)?;

    // Model-predicted CPI over the il1 x L2-latency grid, everything
    // else mid-range.
    let base = [0.5; 9];
    let (il1_vals, lat_vals, points) = interaction_grid(&space, 6, 5, &base, 16);
    let predicted: Vec<f64> = points.iter().map(|x| built.predict(x)).collect();
    let grid: Vec<&[f64]> = predicted.chunks(lat_vals.len()).collect();

    println!("\npredicted CPI (rows: il1 size, cols: L2 latency):");
    print!("{:>10}", "il1\\lat");
    for lat in lat_vals.iter().step_by(3) {
        print!("{:>8.0}", lat);
    }
    println!();
    for (i, il1) in il1_vals.iter().enumerate() {
        print!("{:>8.0}KB", il1);
        for j in (0..lat_vals.len()).step_by(3) {
            print!("{:>8.3}", grid[i][j]);
        }
        println!();
    }

    // Verify the extreme rows with real simulation.
    println!("\nchecking the corners against detailed simulation:");
    for (i, j) in [(0, 0), (0, lat_vals.len() - 1), (il1_vals.len() - 1, 0)] {
        let mut x = base;
        x[6] = i as f64 / (il1_vals.len() - 1) as f64;
        x[5] = j as f64 / (lat_vals.len() - 1) as f64;
        let sim = response.eval(&x);
        println!(
            "  il1={:>2.0}KB lat={:>2.0}: predicted {:.3}, simulated {:.3} ({:+.2}%)",
            il1_vals[i],
            lat_vals[j],
            grid[i][j],
            sim,
            100.0 * (grid[i][j] - sim) / sim
        );
    }

    let swing_small = grid[0][0] - grid[0][lat_vals.len() - 1];
    let swing_big = grid[il1_vals.len() - 1][0] - grid[il1_vals.len() - 1][lat_vals.len() - 1];
    println!(
        "\nL2-latency swing: {swing_small:.3} CPI at il1=8KB vs {swing_big:.3} at il1=64KB — \
         the interaction the paper's Figure 1 motivates"
    );
    Ok(())
}
