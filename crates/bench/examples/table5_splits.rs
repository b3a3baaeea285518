//! Table 5: the most significant splitting points during regression
//! tree construction, for *mcf* and *vortex*.
//!
//! The paper's claims to reproduce: for mcf the most significant splits
//! are on memory-system parameters (L2 latency, L1 data latency, L2
//! size); for vortex they involve the L1 data latency, the instruction
//! cache and window parameters. The most significant splits occur at
//! shallow depths.

use ppm_core::study::significant_splits;
use ppm_experiments::{fmt, Report, Scale};
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();
    let space = scale.space();

    let mut report = Report::new(
        "table5_splits",
        "Table 5: most significant regression-tree splits (rank 1..8)",
        &[
            "benchmark",
            "rank",
            "parameter",
            "value",
            "depth",
            "sse_reduction",
        ],
    );

    for bench in [Benchmark::Mcf, Benchmark::Vortex] {
        let built = scale.build(&scale.response(bench), scale.final_sample);
        let splits = significant_splits(&space, &built.design, &built.responses, 1, 8)
            .expect("valid sample");
        let mut top_params = Vec::new();
        for (rank, s) in splits.iter().enumerate() {
            report.row(vec![
                bench.to_string(),
                (rank + 1).to_string(),
                s.param.to_string(),
                fmt(s.value, 2),
                s.depth.to_string(),
                fmt(s.sse_reduction, 3),
            ]);
            if rank < 3 {
                top_params.push(s.param);
            }
        }
        println!("{bench}: top-3 split parameters: {top_params:?}");
        if bench == Benchmark::Mcf {
            let memory_params = ["L2_lat", "L2_size", "dl1_lat", "dl1_size"];
            let hits = top_params
                .iter()
                .filter(|p| memory_params.contains(p))
                .count();
            println!(
                "  mcf splits dominated by memory parameters: {}/3 (paper: 3/3)",
                hits
            );
        }
    }
    report.emit();
    println!("paper reference — mcf: L2_lat(11.5,d1), dl1_lat(2.5,d2), L2_size(370KB,d2); vortex: dl1_lat(2.5,d1), il1_size(12KB,d2), IQ_size(0.34,d2)");
}
