//! Figure 2: the best obtained L2-star discrepancy as a function of the
//! number of simulations (latin hypercube sample size).
//!
//! The paper's claim to reproduce: the discrepancy falls with sample
//! size and the curve has a knee (around 90 in their setup) beyond
//! which extra simulations improve space coverage slowly.

use ppm_experiments::{fmt, Report, Scale};
use ppm_rng::Rng;
use ppm_sampling::lhs::LatinHypercube;

fn main() {
    let scale = Scale::from_env();
    let space = scale.space();
    let sizes: Vec<usize> = if scale.full {
        vec![10, 20, 30, 50, 70, 90, 110, 140, 170, 200]
    } else {
        vec![10, 20, 30, 50, 70, 90, 110, 140]
    };

    let mut report = Report::new(
        "fig2_discrepancy",
        "Figure 2: best L2-star discrepancy vs number of simulations",
        &["sample_size", "best_l2_star", "reduction_vs_prev_pct"],
    );
    let mut prev: Option<f64> = None;
    let mut values = Vec::new();
    for &n in &sizes {
        let mut rng = Rng::seed_from_u64(42);
        let (_, score) = LatinHypercube::new(space.params(), n)
            .best_of_with_score(scale.lhs_candidates, &mut rng)
            .expect("non-zero candidates");
        let reduction = prev.map(|p| 100.0 * (p - score) / p).unwrap_or(0.0);
        report.row(vec![n.to_string(), fmt(score, 5), fmt(reduction, 1)]);
        prev = Some(score);
        values.push(score);
    }
    report.emit();

    // Knee check: the early reductions dwarf the late ones.
    let early = values[0] - values[2];
    let late = values[values.len() - 3] - values[values.len() - 1];
    println!(
        "early improvement {:.5} vs late improvement {:.5} (paper: tapering curve)",
        early, late
    );
    println!(
        "tapering: {}",
        if early > 3.0 * late { "yes" } else { "weak" }
    );
}
