//! Figure 1: the CPI response surface of *vortex* as a function of the
//! L1 instruction cache size and L2 latency, all other parameters fixed
//! at mid-range — the motivating example for non-linear modeling.
//!
//! The paper's claim to reproduce: higher L2 latencies hurt more when
//! the instruction cache is small (curvature / interaction), with sharp
//! changes at low cache sizes.

use ppm_core::builder::BuildConfig;
use ppm_core::response::eval_batch;
use ppm_core::space::DesignSpace;
use ppm_core::study::interaction_grid;
use ppm_experiments::{fmt, Report, Scale};
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();
    let space = DesignSpace::paper_table1();
    let response = scale.response(Benchmark::Vortex);

    // Sweep il1_size (param 6, 4 levels) x L2_lat (param 5, 16 levels),
    // simulated as one batch.
    let (il1_vals, l2lat_vals, points) =
        interaction_grid(&space, 6, 5, &[0.5; 9], scale.final_sample);
    let cpi = eval_batch(&response, &points, BuildConfig::default().threads).expect("clean batch");
    let grid: Vec<&[f64]> = cpi.chunks(l2lat_vals.len()).collect();

    let mut columns = vec!["il1_size_kb".to_string()];
    columns.extend(l2lat_vals.iter().map(|v| format!("L2_lat={v:.0}")));
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut report = Report::new(
        "fig1_response_surface",
        "Figure 1: vortex CPI surface over (il1 size, L2 latency)",
        &col_refs,
    );
    for (i, &il1) in il1_vals.iter().enumerate() {
        let mut row = vec![fmt(il1, 0)];
        row.extend(grid[i].iter().map(|&c| fmt(c, 3)));
        report.row(row);
    }
    report.emit();

    // Shape checks mirroring the paper's qualitative claims.
    let small_il1_worst = grid[0][0]; // 8 KB, L2_lat=20
    let small_il1_best = grid[0][l2lat_vals.len() - 1]; // 8 KB, L2_lat=5
    let big_il1_worst = grid[il1_vals.len() - 1][0];
    let big_il1_best = grid[il1_vals.len() - 1][l2lat_vals.len() - 1];
    let slope_small = small_il1_worst - small_il1_best;
    let slope_big = big_il1_worst - big_il1_best;
    println!(
        "L2-latency CPI swing: {:.3} at il1=8KB vs {:.3} at il1=64KB (paper: larger at small il1)",
        slope_small, slope_big
    );
    println!(
        "interaction present: {}",
        if slope_small > slope_big {
            "yes"
        } else {
            "NO (unexpected)"
        }
    );
}
