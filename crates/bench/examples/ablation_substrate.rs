//! Ablation: robustness of the modeling methodology to the fixed
//! machine. The paper's procedure should work for *any* deterministic
//! simulator — here we swap the fixed-machine details (branch
//! predictor scheme, cache replacement, instruction prefetch) and check
//! that model accuracy is unaffected.

use ppm_core::builder::RbfModelBuilder;
use ppm_core::response::{eval_batch, FnResponse};
use ppm_core::space::DesignSpace;
use ppm_experiments::{fmt, Report, Scale};
use ppm_sim::{BatchProcessor, FixedMachine, PredictorKind, ReplacementPolicy, SimConfig};
use ppm_workload::{Benchmark, TraceGenerator};

fn machine(name: &str) -> FixedMachine {
    let mut f = FixedMachine::default();
    match name {
        "default (bimodal, LRU)" => {}
        "tournament + prefetch" => {
            f.predictor = PredictorKind::Tournament;
            f.gshare_history = 10;
            f.next_line_prefetch = true;
        }
        "random replacement" => {
            f.replacement = ReplacementPolicy::Random;
        }
        other => panic!("unknown machine {other}"),
    }
    f
}

fn main() {
    let scale = Scale::from_env();
    let space = DesignSpace::paper_table1();
    let test_space = DesignSpace::paper_table2();
    let bench = Benchmark::Vortex;

    let mut report = Report::new(
        "ablation_substrate",
        &format!(
            "Ablation: fixed-machine variants ({bench}, n={})",
            scale.final_sample
        ),
        &[
            "machine",
            "mid_cpi",
            "mean_err_pct",
            "max_err_pct",
            "centers",
        ],
    );

    for name in [
        "default (bimodal, LRU)",
        "tournament + prefetch",
        "random replacement",
    ] {
        let fixed = machine(name);
        let space_for_response = space.clone();
        let trace_len = scale.trace_len;
        let fixed_for_response = fixed.clone();
        let response = FnResponse::new(9, move |unit: &[f64]| {
            let config = SimConfig {
                fixed: fixed_for_response.clone(),
                ..space_for_response.to_config(unit)
            };
            let trace = TraceGenerator::new(bench, 1).take(trace_len);
            BatchProcessor::new(vec![config])
                .expect("valid configuration")
                .run(trace)[0]
                .cpi()
        })
        .expect("non-zero dimension");

        let builder = RbfModelBuilder::new(space.clone(), scale.build_config(scale.final_sample));
        let built = builder.build(&response).expect("finite CPI responses");
        let test = builder.test_points(&test_space, scale.test_points);
        let actual = eval_batch(&response, &test, builder.config().threads).expect("clean batch");
        let stats = built.evaluate(&test, &actual);
        let mid = ppm_core::response::Response::eval(&response, &[0.5; 9]);
        report.row(vec![
            name.to_string(),
            fmt(mid, 3),
            fmt(stats.mean_pct, 2),
            fmt(stats.max_pct, 2),
            built.model.network.num_centers().to_string(),
        ]);
    }
    report.emit();
    println!("(expected: absolute CPI shifts with the machine, model accuracy does not — the methodology is substrate-agnostic)");
}
