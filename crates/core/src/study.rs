//! Higher-level analyses built on the fitted models: the linear
//! baseline, trend (interaction) grids, split significance reports, and
//! model-guided design-space search.

use ppm_linreg::{LinearModel, LinearTrainer, LinregError};
use ppm_regtree::{Dataset, DatasetError, RegressionTree};
use ppm_rng::{derive_seed, Rng};
use ppm_sampling::pb::PlackettBurman;

use crate::builder::BuildError;
use crate::response::{eval_batch, Response};
use crate::space::{DesignSpace, PARAM_NAMES};

/// The estimated main effect of one parameter from a screening design.
#[derive(Debug, Clone, PartialEq)]
pub struct MainEffect {
    /// Parameter name.
    pub param: &'static str,
    /// Parameter index.
    pub param_index: usize,
    /// Estimated effect: mean(response at high) - mean(response at low).
    pub effect: f64,
}

/// Runs a foldover Plackett-Burman screening experiment (Yi et al.,
/// HPCA 2005 — the paper's §5 related work): simulates the design's
/// runs and estimates each parameter's main effect.
///
/// Returns the effects sorted by decreasing magnitude. The simulation
/// cost is `2 x runs` (the foldover doubles the design to de-alias
/// main effects from two-factor interactions).
///
/// # Errors
///
/// Returns [`BuildError::InvalidConfig`] if no PB design exists for
/// `runs` and the space's dimension, and propagates batch failures
/// from [`eval_batch`].
pub fn pb_screening<R: Response>(
    space: &DesignSpace,
    response: &R,
    runs: usize,
    threads: usize,
) -> Result<Vec<MainEffect>, BuildError> {
    let _span = ppm_telemetry::span("study.pb_screening");
    let design = PlackettBurman::new(runs, space.dim())
        .ok_or_else(|| {
            BuildError::InvalidConfig(format!(
                "no PB design with {runs} runs for {} factors",
                space.dim()
            ))
        })?
        .foldover();
    let points = design.unit_points();
    let y = eval_batch(response, &points, threads)?;
    let signed = design.signed_points();
    let n = signed.len() as f64;
    let mut effects: Vec<MainEffect> = (0..space.dim())
        .map(|k| {
            let effect = signed
                .iter()
                .zip(&y)
                .map(|(row, &yi)| row[k] * yi)
                .sum::<f64>()
                * 2.0
                / n;
            MainEffect {
                param: PARAM_NAMES[k],
                param_index: k,
                effect,
            }
        })
        .collect();
    effects.sort_by(|a, b| b.effect.abs().total_cmp(&a.effect.abs()));
    Ok(effects)
}

/// Fits the paper's §4.2 linear baseline (main effects + all two-factor
/// interactions, AIC backward elimination) to a simulated sample.
///
/// # Errors
///
/// Returns the underlying [`LinregError`] when the sample cannot
/// identify the model, or a dataset error mapped into it.
///
/// # Panics
///
/// Panics if `design` and `responses` are empty or inconsistent in a way
/// that [`Dataset::new`] reports as a length/dimension error.
pub fn fit_linear_baseline(
    design: &[Vec<f64>],
    responses: &[f64],
) -> Result<LinearModel, LinregError> {
    let data = Dataset::new(design.to_vec(), responses.to_vec())
        // Documented `# Panics` contract above. lint:allow(panic-path)
        .unwrap_or_else(|e: DatasetError| panic!("invalid sample: {e}"));
    LinearTrainer::default().fit(&data)
}

/// The points of a two-parameter sweep over the level grids of the
/// chosen parameters, all other coordinates held at `base`: the shape of
/// the paper's Figures 1 and 6. Callers simulate the points as one batch
/// ([`eval_batch`]) or score a model on them.
///
/// Returns `(a_values, b_values, points)`: the levels in engineering
/// units, and the unit-cube points in row-major order, so that
/// `points[i * b_values.len() + j]` has `a` at its `i`-th level and `b`
/// at its `j`-th.
///
/// # Panics
///
/// Panics if the parameter indices are out of range or equal, or if
/// `base.len()` differs from the space dimension.
pub fn interaction_grid(
    space: &DesignSpace,
    param_a: usize,
    param_b: usize,
    base: &[f64],
    sample_size_for_levels: usize,
) -> (Vec<f64>, Vec<f64>, Vec<Vec<f64>>) {
    assert!(
        param_a < space.dim() && param_b < space.dim(),
        "parameter out of range"
    );
    assert_ne!(param_a, param_b, "need two distinct parameters");
    assert_eq!(base.len(), space.dim(), "base point dimension mismatch");
    let pa = &space.params().params()[param_a];
    let pb = &space.params().params()[param_b];
    let a_units = pa.unit_grid(sample_size_for_levels);
    let b_units = pb.unit_grid(sample_size_for_levels);
    let mut points = Vec::with_capacity(a_units.len() * b_units.len());
    for &ua in &a_units {
        for &ub in &b_units {
            let mut x = base.to_vec();
            x[param_a] = ua;
            x[param_b] = ub;
            points.push(x);
        }
    }
    let a_values = a_units.iter().map(|&t| pa.to_actual(t)).collect();
    let b_values = b_units.iter().map(|&t| pb.to_actual(t)).collect();
    (a_values, b_values, points)
}

/// One row of the paper's Table 5: a significant regression-tree split.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitInfo {
    /// Parameter name (Table 1 terminology).
    pub param: &'static str,
    /// Parameter index.
    pub param_index: usize,
    /// Split boundary in engineering units.
    pub value: f64,
    /// Split depth (root split = 1, as in the paper).
    pub depth: usize,
    /// Sum-of-squares reduction achieved (significance measure).
    pub sse_reduction: f64,
}

/// Fits a regression tree to a sample and reports the `k` most
/// significant splits with boundaries converted to engineering units
/// (the paper's Table 5), plus the full split list for Figure 5.
///
/// # Errors
///
/// Returns a [`DatasetError`] if the sample is inconsistent.
pub fn significant_splits(
    space: &DesignSpace,
    design: &[Vec<f64>],
    responses: &[f64],
    p_min: usize,
    k: usize,
) -> Result<Vec<SplitInfo>, DatasetError> {
    let data = Dataset::new(design.to_vec(), responses.to_vec())?;
    let tree = RegressionTree::fit(&data, p_min);
    Ok(tree
        .splits()
        .iter()
        .take(k)
        .map(|s| {
            let p = &space.params().params()[s.param];
            SplitInfo {
                param: PARAM_NAMES[s.param],
                param_index: s.param,
                value: p.to_actual(s.value),
                depth: s.depth,
                sse_reduction: s.sse_reduction,
            }
        })
        .collect())
}

/// The outcome of a model-guided search over the design space.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The best unit design point found.
    pub unit: Vec<f64>,
    /// Its engineering values.
    pub actual: Vec<f64>,
    /// The predicted response there.
    pub predicted: f64,
}

/// Searches the design space for the point minimizing a predicted
/// response, subject to a feasibility constraint on the engineering
/// values — the "search for optimal design points" use case the paper
/// motivates. Uses random multi-start with local coordinate refinement,
/// evaluating only the (cheap) model, never the simulator.
///
/// Returns `None` if no sampled point satisfies the constraint.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn search_optimum(
    space: &DesignSpace,
    predict: impl Fn(&[f64]) -> f64,
    feasible: impl Fn(&[f64]) -> bool,
    samples: usize,
    seed: u64,
) -> Option<SearchResult> {
    assert!(samples > 0, "need at least one sample");
    let _span = ppm_telemetry::span("study.search_optimum");
    let mut rng = Rng::seed_from_u64(derive_seed(seed, 300));
    let dim = space.dim();
    let mut best: Option<(Vec<f64>, f64)> = None;
    for _ in 0..samples {
        let unit: Vec<f64> = (0..dim).map(|_| rng.unit_f64()).collect();
        if !feasible(&space.to_actual(&unit)) {
            continue;
        }
        let y = predict(&unit);
        if best.as_ref().is_none_or(|(_, b)| y < *b) {
            best = Some((unit, y));
        }
    }
    let (mut unit, mut value) = best?;
    // Coordinate descent refinement on the level grids.
    let grids: Vec<Vec<f64>> = space
        .params()
        .params()
        .iter()
        .map(|p| p.unit_grid(64))
        .collect();
    let mut improved = true;
    while improved {
        improved = false;
        for (k, grid) in grids.iter().enumerate() {
            for &g in grid {
                let mut cand = unit.clone();
                cand[k] = g;
                if !feasible(&space.to_actual(&cand)) {
                    continue;
                }
                let y = predict(&cand);
                if y < value - 1e-12 {
                    unit = cand;
                    value = y;
                    improved = true;
                }
            }
        }
    }
    let actual = space.to_actual(&unit);
    Some(SearchResult {
        unit,
        actual,
        predicted: value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::FnResponse;
    use ppm_rng::Rng;

    #[test]
    fn pb_screening_ranks_the_dominant_main_effect_first() {
        let space = DesignSpace::paper_table1();
        // Response dominated by L2 latency (param 5), with smaller ROB
        // (param 1) and dl1_lat (param 8) effects.
        let response = FnResponse::new(9, |x| 2.0 + 3.0 * x[5] + 1.0 * x[1] + 0.4 * x[8]).unwrap();
        let effects = pb_screening(&space, &response, 12, 1).unwrap();
        assert_eq!(effects.len(), 9);
        assert_eq!(effects[0].param, "L2_lat");
        assert_eq!(effects[1].param, "ROB_size");
        // Effect magnitude should approximate the coefficient.
        assert!(
            (effects[0].effect.abs() - 3.0).abs() < 0.2,
            "{:?}",
            effects[0]
        );
    }

    #[test]
    fn pb_screening_misattributes_pure_interactions() {
        // The known weakness (paper §5): a pure two-factor interaction
        // with no main effects is invisible to the foldover design.
        let space = DesignSpace::paper_table1();
        let response = FnResponse::new(9, |x| {
            // Centered product: zero main effects in +/- coding.
            1.0 + 4.0 * (x[0] - 0.5) * (x[1] - 0.5)
        })
        .unwrap();
        let effects = pb_screening(&space, &response, 12, 1).unwrap();
        for e in &effects {
            assert!(
                e.effect.abs() < 0.5,
                "interaction leaked into main effect {e:?}"
            );
        }
    }

    #[test]
    fn unsupported_pb_runs_are_a_typed_error() {
        let space = DesignSpace::paper_table1();
        let response = FnResponse::new(9, |x| x[0]).unwrap();
        let err = pb_screening(&space, &response, 13, 1).unwrap_err();
        assert!(matches!(err, BuildError::InvalidConfig(_)));
        assert!(err.to_string().contains("no PB design"));
    }

    fn sample(n: usize, f: impl Fn(&[f64]) -> f64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = Rng::seed_from_u64(8);
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..9).map(|_| rng.unit_f64()).collect())
            .collect();
        let ys = pts.iter().map(|p| f(p)).collect();
        (pts, ys)
    }

    #[test]
    fn linear_baseline_recovers_linear_truth() {
        let (pts, ys) = sample(120, |x| 1.0 + 2.0 * x[0] - x[8]);
        let model = fit_linear_baseline(&pts, &ys).unwrap();
        let pred = model.predict(&[0.5; 9]);
        assert!((pred - (1.0 + 1.0 - 0.5)).abs() < 1e-6);
    }

    #[test]
    fn interaction_grid_shape_and_values() {
        let space = DesignSpace::paper_table1();
        let (a_vals, b_vals, points) = interaction_grid(&space, 6, 5, &[0.5; 9], 200);
        assert_eq!(a_vals.len(), 4); // il1 has 4 levels
        assert_eq!(b_vals.len(), 16); // L2 lat has 16 levels
        assert_eq!(points.len(), 64);
        // il1 axis engineering values are 8..64 KB.
        assert!((a_vals[0] - 8.0).abs() < 1e-9);
        assert!((a_vals[3] - 64.0).abs() < 1e-9);
        // Score = il1 unit coordinate (param 6) + 2 * L2 latency coord.
        let scores: Vec<f64> = points.iter().map(|x| x[6] + 2.0 * x[5]).collect();
        let grid: Vec<&[f64]> = scores.chunks(b_vals.len()).collect();
        assert_eq!(grid.len(), 4);
        // Rows increase along both axes of the (unit) predictor.
        assert!(grid[3][0] > grid[0][0]);
        assert!(grid[0][15] > grid[0][0]);
        // Every other coordinate stays at the base point.
        assert!(points.iter().all(|x| x[0] == 0.5 && x[8] == 0.5));
    }

    #[test]
    fn significant_splits_find_the_dominant_parameter() {
        let space = DesignSpace::paper_table1();
        // L2 latency (param 5) dominates with a step at its midpoint.
        let (pts, ys) = sample(150, |x| if x[5] < 0.5 { 3.0 } else { 1.0 } + 0.05 * x[0]);
        let splits = significant_splits(&space, &pts, &ys, 2, 8).unwrap();
        assert!(!splits.is_empty());
        assert_eq!(splits[0].param, "L2_lat");
        assert_eq!(splits[0].depth, 1);
        // Boundary in engineering units: near the middle of 20..5.
        assert!(
            (splits[0].value - 12.5).abs() < 2.0,
            "split at {}",
            splits[0].value
        );
    }

    #[test]
    fn search_optimum_finds_constrained_minimum() {
        let space = DesignSpace::paper_table1();
        // Response decreases with ROB (param 1, unit coordinate), so the
        // unconstrained optimum is rob=128; constrain rob <= 96.
        let predict = |x: &[f64]| 5.0 - 3.0 * x[1];
        let feasible = |actual: &[f64]| actual[1] <= 96.0;
        let result = search_optimum(&space, predict, feasible, 200, 7).unwrap();
        assert!(result.actual[1] <= 96.0);
        // Refinement should push close to the constraint boundary.
        assert!(
            result.actual[1] > 88.0,
            "rob {} far from the boundary",
            result.actual[1]
        );
    }

    #[test]
    fn search_returns_none_when_infeasible() {
        let space = DesignSpace::paper_table1();
        let result = search_optimum(&space, |_| 1.0, |_| false, 50, 1);
        assert!(result.is_none());
    }

    #[test]
    fn fn_response_consistency_with_grid() {
        // The grid's points simulated as one batch.
        let space = DesignSpace::paper_table1();
        let r = FnResponse::new(9, |x: &[f64]| x[4] + x[6]).unwrap();
        let (_, b_vals, points) = interaction_grid(&space, 4, 6, &[0.0; 9], 100);
        let values = eval_batch(&r, &points, 2).unwrap();
        let grid: Vec<&[f64]> = values.chunks(b_vals.len()).collect();
        assert_eq!(grid.len(), 6);
        assert!((grid[5][3] - 2.0).abs() < 1e-9);
    }
}
