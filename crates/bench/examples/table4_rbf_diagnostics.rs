//! Table 4: diagnostics of the RBF model for *mcf* — the best
//! `p_min` and α found by the grid search, and the number of RBF
//! centers chosen, at each sample size.
//!
//! The paper's claims to reproduce: the best `p_min` is typically 1,
//! the best α lies in roughly 5–12, and the number of centers stays
//! well below half the number of sample points while growing with the
//! sample.

use ppm_experiments::{fmt, Report, Scale};
use ppm_workload::Benchmark;

fn main() {
    let scale = Scale::from_env();
    let response = scale.response(Benchmark::Mcf);
    let paper: &[(usize, usize, f64, usize)] = &[
        (30, 1, 5.0, 15),
        (50, 2, 8.0, 16),
        (70, 1, 10.0, 22),
        (90, 1, 12.0, 27),
        (110, 1, 6.0, 40),
        (200, 1, 7.0, 76),
    ];

    let mut report = Report::new(
        "table4_rbf_diagnostics",
        "Table 4: diagnostics of the RBF model for mcf",
        &[
            "sample_size",
            "p_min",
            "alpha",
            "num_centers",
            "centers_frac",
            "paper_p_min",
            "paper_alpha",
            "paper_centers",
        ],
    );

    let mut all_below_half = true;
    let mut centers_grow = Vec::new();
    for &n in &scale.sample_sizes {
        let built = scale.build(&response, n);
        let centers = built.model.network.num_centers();
        let frac = centers as f64 / n as f64;
        if frac >= 0.5 {
            all_below_half = false;
        }
        centers_grow.push(centers);
        let paper_row = paper.iter().find(|(pn, ..)| *pn == n);
        report.row(vec![
            n.to_string(),
            built.model.p_min.to_string(),
            fmt(built.model.alpha, 0),
            centers.to_string(),
            fmt(frac, 2),
            paper_row
                .map(|r| r.1.to_string())
                .unwrap_or_else(|| "-".into()),
            paper_row.map(|r| fmt(r.2, 0)).unwrap_or_else(|| "-".into()),
            paper_row
                .map(|r| r.3.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    report.emit();
    println!(
        "centers much less than half the sample: {}",
        if all_below_half {
            "yes (as in the paper)"
        } else {
            "NO"
        }
    );
    println!(
        "centers grow with sample size: {}",
        if centers_grow.windows(2).all(|w| w[1] >= w[0]) {
            "yes"
        } else {
            "mostly"
        }
    );
}
