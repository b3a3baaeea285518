//! Extension (paper §3 remark): "the relative significance of
//! microarchitectural parameters is input dependent. For instance, the
//! memory subsystem parameters would have a higher influence on
//! performance if the SPEC reference inputs were used."
//!
//! This harness measures parameter significance (regression-tree split
//! ranking) for twolf under MinneSPEC-scale and reference-scale inputs
//! and reports how the memory parameters move up the ranking.

use ppm_core::builder::RbfModelBuilder;
use ppm_core::response::{eval_batch, FnResponse};
use ppm_core::space::DesignSpace;
use ppm_core::study::significant_splits;
use ppm_experiments::{fmt, Report, Scale};
use ppm_sim::BatchProcessor;
use ppm_workload::{Benchmark, InputSet, TraceGenerator};

fn main() {
    let scale = Scale::from_env();
    let space = DesignSpace::paper_table1();
    let bench = Benchmark::Twolf;

    let mut report = Report::new(
        "extension_input_sets",
        "Extension: parameter significance under lgred vs reference inputs (twolf)",
        &["input_set", "rank", "parameter", "value", "sse_reduction"],
    );

    for (name, input) in [("lgred", InputSet::MinneLgred), ("reference", InputSet::Reference)] {
        let space_for_response = space.clone();
        let trace_len = scale.trace_len;
        let response = FnResponse::new(9, move |unit: &[f64]| {
            let config = space_for_response.to_config(unit);
            let trace = TraceGenerator::with_input(bench, input, 1).take(trace_len);
            BatchProcessor::new(vec![config]).expect("valid configuration").run(trace)[0].cpi()
        })
        .expect("non-zero dimension");
        let builder =
            RbfModelBuilder::new(space.clone(), scale.build_config(scale.final_sample));
        let (design, _) = builder.select_sample().expect("valid sweep config");
        let responses = eval_batch(&response, &design, 1).expect("clean batch");
        let splits = significant_splits(&space, &design, &responses, 1, 6).expect("valid");
        for (rank, s) in splits.iter().enumerate() {
            report.row(vec![
                name.to_string(),
                (rank + 1).to_string(),
                s.param.to_string(),
                fmt(s.value, 2),
                fmt(s.sse_reduction, 3),
            ]);
        }
        let memory = ["L2_lat", "L2_size", "dl1_lat", "dl1_size"];
        let mem_weight: f64 = splits
            .iter()
            .filter(|s| memory.contains(&s.param))
            .map(|s| s.sse_reduction)
            .sum();
        let total: f64 = splits.iter().map(|s| s.sse_reduction).sum();
        println!(
            "{name}: memory-parameter split significance {:.2} CPI^2              ({:.0}% of the top-6 total)",
            mem_weight,
            100.0 * mem_weight / total
        );
    }
    report.emit();
    println!(
        "(expected: the memory parameters' absolute significance grows under          reference inputs — the paper's §3 remark. In our substrate the window's          significance grows alongside it, since more misses also mean more          latency to tolerate.)"
    );
}
