//! Figure 5: the distribution of parameter values at which regression
//! tree splitting occurs, for *mcf*.
//!
//! The paper's claim to reproduce: the parameters that drive mcf's
//! performance (memory-system parameters) are split most often, and
//! splits concentrate where the response changes fastest.

use std::collections::BTreeMap;

use ppm_core::study::significant_splits;
use ppm_experiments::{fmt, Report, Scale};
use ppm_sim::KNOBS;
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();
    let space = scale.space();
    let built = scale.build(&scale.response(Benchmark::Mcf), scale.final_sample);
    // All splits (large k), p_min = 1 as the paper typically selects.
    let splits = significant_splits(&space, &built.design, &built.responses, 1, usize::MAX)
        .expect("valid sample");

    // Per-parameter split counts and value histograms.
    let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
    let mut values: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in &splits {
        *counts.entry(s.param_index).or_default() += 1;
        values.entry(s.param_index).or_default().push(s.value);
    }

    let mut report = Report::new(
        "fig5_split_distribution",
        "Figure 5: distribution of tree-split values per parameter (mcf)",
        &[
            "parameter",
            "splits",
            "min_value",
            "median_value",
            "max_value",
        ],
    );
    for (idx, name) in KNOBS.iter().map(|knob| knob.name).enumerate() {
        let n = counts.get(&idx).copied().unwrap_or(0);
        let (lo, med, hi) = match values.get(&idx) {
            Some(v) => {
                let mut v = v.clone();
                v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                (v[0], v[v.len() / 2], v[v.len() - 1])
            }
            None => (f64::NAN, f64::NAN, f64::NAN),
        };
        report.row(vec![
            name.to_string(),
            n.to_string(),
            if n > 0 { fmt(lo, 2) } else { "-".into() },
            if n > 0 { fmt(med, 2) } else { "-".into() },
            if n > 0 { fmt(hi, 2) } else { "-".into() },
        ]);
    }
    report.emit();

    let mem_splits: usize = [4usize, 5, 7, 8]
        .iter()
        .map(|i| counts.get(i).copied().unwrap_or(0))
        .sum();
    let total: usize = counts.values().sum();
    println!(
        "memory-system parameters account for {mem_splits}/{total} splits \
         (paper: mcf splits concentrate on memory parameters)"
    );
}
