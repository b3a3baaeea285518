//! Ablation: robustness of the modeling methodology to the fixed
//! machine. The paper's procedure should work for *any* deterministic
//! simulator — here we swap the fixed-machine details (branch
//! predictor scheme, cache replacement, instruction prefetch) and check
//! that model accuracy is unaffected.

use ppm_core::response::{FnResponse, Response};
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
        let space = scale.space();
        let trace_len = scale.trace_len;
        let fixed_for_response = fixed.clone();
        let response = FnResponse::new(9, move |unit: &[f64]| {
            let config = SimConfig {
                fixed: fixed_for_response.clone(),
                ..space.to_config(unit)
            };
            let trace = TraceGenerator::new(bench, 1).take(trace_len);
            BatchProcessor::new(vec![config])
                .expect("valid configuration")
                .run(trace)[0]
                .cpi()
        })
        .expect("non-zero dimension");

        let built = scale.build(&response, scale.final_sample);
        let stats = scale.holdout(&response).score(|p| built.predict(p));
        let mid = response.eval(&[0.5; 9]);
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
