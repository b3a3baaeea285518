//! Grid search over the method parameters `p_min` and α (paper §2.6).

use std::error::Error;
use std::fmt;

use ppm_exec::Executor;
use ppm_regtree::{Dataset, RegressionTree};

use crate::{select_centers, Criterion, RbfNetwork, SelectionConfig};

/// Errors from training an RBF network.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TrainError {
    /// A candidate grid was empty; the field names which one
    /// (`"p_min"` or `"alpha"`).
    EmptyGrid(&'static str),
    /// The trainer was configured with zero worker threads.
    NoThreads,
    /// A grid candidate or option the search cannot use: `name` is
    /// `"p_min"` (must be at least 1), `"alpha"` (must be positive and
    /// finite) or `"max_centers"` (must be at least 1), and `value` is
    /// the offending value as written.
    InvalidParameter {
        /// Which parameter.
        name: &'static str,
        /// The rejected value.
        value: String,
    },
    /// The sample has fewer than two points, too few to fit any center.
    TooFewPoints(usize),
    /// The best model's residual sum of squares is not finite: the
    /// responses are too large for their squares to be summed.
    NonFiniteSse,
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::EmptyGrid(which) => {
                write!(f, "no {which} candidates: the training grid is empty")
            }
            TrainError::NoThreads => write!(f, "trainer needs at least one worker thread"),
            TrainError::InvalidParameter { name, value } => {
                let rule = if *name == "alpha" {
                    "positive and finite"
                } else {
                    "at least 1"
                };
                write!(f, "invalid {name} {value}: it must be {rule}")
            }
            TrainError::TooFewPoints(n) => {
                write!(f, "cannot train on {n} point(s): at least 2 are needed")
            }
            TrainError::NonFiniteSse => write!(
                f,
                "the residual sum of squares overflows: responses are too large to fit"
            ),
        }
    }
}

impl Error for TrainError {}

/// Trains an RBF network by grid-searching the regression-tree leaf size
/// `p_min` and the radius scale α, keeping the combination with the
/// lowest model-selection criterion — exactly the procedure of §2.6.
///
/// The grid cells are independent, so the search fans out over
/// [`RbfTrainer::threads`] workers: one regression tree is fitted per
/// `p_min`, the α cells share it, and the winner is reduced by an
/// order-independent argmin (ties break toward the lower grid index).
/// The fitted model is byte-identical for every thread count.
///
/// # Examples
///
/// ```
/// use ppm_regtree::Dataset;
/// use ppm_rbf::RbfTrainer;
///
/// let pts: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
/// let y: Vec<f64> = pts.iter().map(|p| p[0] * p[0]).collect();
/// let data = Dataset::new(pts, y)?;
/// let trainer = RbfTrainer::default();
/// let fitted = trainer.fit(&data)?;
/// assert!(fitted.alpha > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RbfTrainer {
    /// Candidate regression-tree leaf sizes. The paper finds 1–2 best.
    pub p_min_candidates: Vec<usize>,
    /// Candidate radius scales. The paper finds 5–12 best.
    pub alpha_candidates: Vec<f64>,
    /// Selection criterion (the paper uses AICc).
    pub criterion: Criterion,
    /// Optional cap on the number of centers.
    pub max_centers: Option<usize>,
    /// Worker threads for the grid search (results are identical for
    /// any value ≥ 1).
    pub threads: usize,
}

impl Default for RbfTrainer {
    fn default() -> Self {
        RbfTrainer {
            p_min_candidates: vec![1, 2, 3],
            alpha_candidates: vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0],
            criterion: Criterion::Aicc,
            max_centers: None,
            threads: ppm_exec::default_threads(),
        }
    }
}

/// A trained model with the method parameters that produced it
/// (the diagnostics of the paper's Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct FittedRbf {
    /// The winning network.
    pub network: RbfNetwork,
    /// The winning tree leaf size.
    pub p_min: usize,
    /// The winning radius scale.
    pub alpha: f64,
    /// The winning criterion value.
    pub score: f64,
    /// Residual sum of squares on the training sample.
    pub sse: f64,
    /// Number of nodes in the winning regression tree.
    pub tree_nodes: usize,
    /// Number of leaves in the winning regression tree.
    pub tree_leaves: usize,
}

impl RbfTrainer {
    /// A trainer with a reduced grid, for fast tests and CI.
    pub fn quick() -> Self {
        RbfTrainer {
            p_min_candidates: vec![1, 2],
            alpha_candidates: vec![4.0, 7.0, 10.0],
            ..RbfTrainer::default()
        }
    }

    /// Sets the worker-thread count for the grid search.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Fits the model, returning the best (p_min, α) combination by the
    /// selection criterion. Cells are searched in parallel over
    /// [`RbfTrainer::threads`] workers; the result is byte-identical
    /// for every thread count.
    ///
    /// # Errors
    ///
    /// * [`TrainError::EmptyGrid`] if either candidate list is empty.
    /// * [`TrainError::InvalidParameter`] if a `p_min` candidate or
    ///   `max_centers` is 0, or an α candidate is not positive and finite.
    /// * [`TrainError::TooFewPoints`] if `data` has a single point.
    /// * [`TrainError::NoThreads`] if `threads == 0`.
    /// * [`TrainError::NonFiniteSse`] if even the best model's residual
    ///   sum of squares overflows.
    pub fn fit(&self, data: &Dataset) -> Result<FittedRbf, TrainError> {
        self.validate(data)?;
        let exec = Executor::new(self.threads).map_err(|_| TrainError::NoThreads)?;
        let _span = ppm_telemetry::span("stage.rbf_train");

        // One regression tree per p_min, shared by that row's α cells.
        let trees: Vec<RegressionTree> = self
            .p_min_candidates
            .iter()
            .map(|&p_min| RegressionTree::fit(data, p_min))
            .collect();

        // Fan the (p_min, α) cells out: cell index = row-major grid
        // position, so the argmin tie-break reproduces the serial
        // loop's first-wins order.
        let n_alpha = self.alpha_candidates.len();
        let cells = self.p_min_candidates.len() * n_alpha;
        let results = exec.map("rbf_grid", cells, |idx| {
            let (pi, ai) = (idx / n_alpha, idx % n_alpha);
            let p_min = self.p_min_candidates[pi];
            let alpha = self.alpha_candidates[ai];
            let config = SelectionConfig {
                criterion: self.criterion,
                alpha,
                max_centers: self.max_centers,
            };
            let result = select_centers(&trees[pi], data, &config);
            ppm_telemetry::counter("rbf.grid_cells").inc();
            ppm_telemetry::event(
                "rbf.cell",
                &[
                    ("p_min", p_min.into()),
                    ("alpha", alpha.into()),
                    ("score", result.score.into()),
                    ("centers", result.network.num_centers().into()),
                ],
            );
            result
        });

        let Some(win) = ppm_exec::argmin(results.iter().map(|r| r.score)) else {
            unreachable!("both grids checked non-empty, so cells >= 1");
        };
        let (pi, ai) = (win / n_alpha, win % n_alpha);
        let mut results = results;
        let result = results.swap_remove(win);
        if !result.sse.is_finite() {
            return Err(TrainError::NonFiniteSse);
        }
        let best = FittedRbf {
            network: result.network,
            p_min: self.p_min_candidates[pi],
            alpha: self.alpha_candidates[ai],
            score: result.score,
            sse: result.sse,
            tree_nodes: trees[pi].nodes().len(),
            tree_leaves: trees[pi].num_leaves(),
        };
        ppm_telemetry::gauge("rbf.selected_aicc").set(best.score);
        ppm_telemetry::gauge("rbf.selected_centers").set(best.network.num_centers() as f64);
        ppm_telemetry::event(
            "rbf.selected",
            &[
                ("p_min", best.p_min.into()),
                ("alpha", best.alpha.into()),
                ("aicc", best.score.into()),
                ("centers", best.network.num_centers().into()),
                ("sse", best.sse.into()),
            ],
        );
        Ok(best)
    }

    /// Checks everything the grid search would otherwise assert on a
    /// worker thread.
    fn validate(&self, data: &Dataset) -> Result<(), TrainError> {
        if self.p_min_candidates.is_empty() {
            return Err(TrainError::EmptyGrid("p_min"));
        }
        if self.alpha_candidates.is_empty() {
            return Err(TrainError::EmptyGrid("alpha"));
        }
        let invalid = |name, value: String| Err(TrainError::InvalidParameter { name, value });
        if let Some(p_min) = self.p_min_candidates.iter().find(|&&p| p == 0) {
            return invalid("p_min", p_min.to_string());
        }
        if let Some(alpha) = self
            .alpha_candidates
            .iter()
            .find(|a| !(a.is_finite() && **a > 0.0))
        {
            return invalid("alpha", alpha.to_string());
        }
        if self.max_centers == Some(0) {
            return invalid("max_centers", "0".to_string());
        }
        if data.len() < 2 {
            return Err(TrainError::TooFewPoints(data.len()));
        }
        Ok(())
    }

    /// Fits with a single fixed `(p_min, α)` pair, bypassing the grid
    /// search (used by the method-parameter sensitivity ablation).
    ///
    /// # Panics
    ///
    /// Panics if `p_min` is 0 or `alpha` is not positive and finite.
    pub fn fit_fixed(&self, data: &Dataset, p_min: usize, alpha: f64) -> FittedRbf {
        let tree = RegressionTree::fit(data, p_min);
        let config = SelectionConfig {
            criterion: self.criterion,
            alpha,
            max_centers: self.max_centers,
        };
        let result = select_centers(&tree, data, &config);
        FittedRbf {
            network: result.network,
            p_min,
            alpha,
            score: result.score,
            sse: result.sse,
            tree_nodes: tree.nodes().len(),
            tree_leaves: tree.num_leaves(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_rng::Rng;

    fn dataset(n: usize) -> Dataset {
        let mut rng = Rng::seed_from_u64(77);
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.unit_f64(), rng.unit_f64()])
            .collect();
        let y: Vec<f64> = pts
            .iter()
            .map(|p| 1.0 + p[0] * 2.0 + (-3.0 * p[1]).exp())
            .collect();
        Dataset::new(pts, y).unwrap()
    }

    #[test]
    fn grid_search_beats_or_matches_any_single_combo() {
        let data = dataset(50);
        let trainer = RbfTrainer::quick();
        let best = trainer.fit(&data).unwrap();
        for &p_min in &trainer.p_min_candidates {
            for &alpha in &trainer.alpha_candidates {
                let single = trainer.fit_fixed(&data, p_min, alpha);
                assert!(
                    best.score <= single.score + 1e-9,
                    "grid missed a better combo ({p_min}, {alpha})"
                );
            }
        }
    }

    #[test]
    fn winning_parameters_come_from_grid() {
        let data = dataset(40);
        let trainer = RbfTrainer::quick();
        let best = trainer.fit(&data).unwrap();
        assert!(trainer.p_min_candidates.contains(&best.p_min));
        assert!(trainer.alpha_candidates.contains(&best.alpha));
        assert!(best.tree_nodes >= best.tree_leaves);
    }

    #[test]
    fn fitted_model_predicts_training_points_well() {
        let data = dataset(60);
        let fitted = RbfTrainer::quick().fit(&data).unwrap();
        let mean = data.mean_response();
        let var: f64 = data.y().iter().map(|v| (v - mean) * (v - mean)).sum();
        assert!(fitted.sse < 0.1 * var, "sse {} vs var {var}", fitted.sse);
    }

    #[test]
    fn empty_p_min_grid_is_a_typed_error() {
        let trainer = RbfTrainer {
            p_min_candidates: vec![],
            ..RbfTrainer::default()
        };
        let err = trainer.fit(&dataset(10)).unwrap_err();
        assert_eq!(err, TrainError::EmptyGrid("p_min"));
        assert!(err.to_string().contains("p_min"));
    }

    #[test]
    fn empty_alpha_grid_is_a_typed_error() {
        let trainer = RbfTrainer {
            alpha_candidates: vec![],
            ..RbfTrainer::default()
        };
        let err = trainer.fit(&dataset(10)).unwrap_err();
        assert_eq!(err, TrainError::EmptyGrid("alpha"));
    }

    #[test]
    fn unusable_grid_values_are_typed_errors() {
        let data = dataset(20);
        for alpha in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let trainer = RbfTrainer {
                alpha_candidates: vec![4.0, alpha],
                ..RbfTrainer::quick()
            };
            let err = trainer.fit(&data).unwrap_err();
            assert_eq!(
                err,
                TrainError::InvalidParameter {
                    name: "alpha",
                    value: alpha.to_string()
                }
            );
            assert!(err.to_string().contains("positive and finite"), "{err}");
        }
        let trainer = RbfTrainer {
            p_min_candidates: vec![1, 0],
            ..RbfTrainer::quick()
        };
        let err = trainer.fit(&data).unwrap_err();
        assert_eq!(
            err,
            TrainError::InvalidParameter {
                name: "p_min",
                value: "0".into()
            }
        );
        assert_eq!(err.to_string(), "invalid p_min 0: it must be at least 1");
        let trainer = RbfTrainer {
            max_centers: Some(0),
            ..RbfTrainer::quick()
        };
        assert!(matches!(
            trainer.fit(&data),
            Err(TrainError::InvalidParameter {
                name: "max_centers",
                ..
            })
        ));
        let single = Dataset::new(vec![vec![0.5, 0.5]], vec![1.0]).unwrap();
        assert_eq!(
            RbfTrainer::quick().fit(&single).unwrap_err(),
            TrainError::TooFewPoints(1)
        );
    }

    /// Responses whose squares overflow make every cell's SSE infinite:
    /// each scores +∞ and the fit reports a typed error instead of
    /// panicking inside the criterion.
    #[test]
    fn overflowing_residual_is_a_typed_error() {
        let pts: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let y: Vec<f64> = pts.iter().map(|p| 1e200 * (1.0 + p[0])).collect();
        let data = Dataset::new(pts, y).unwrap();
        for threads in [1, 2] {
            let err = RbfTrainer::quick()
                .with_threads(threads)
                .fit(&data)
                .unwrap_err();
            assert_eq!(err, TrainError::NonFiniteSse);
        }
        let fixed = RbfTrainer::quick().fit_fixed(&data, 1, 4.0);
        assert_eq!(fixed.score, f64::INFINITY);
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        let trainer = RbfTrainer::quick().with_threads(0);
        assert_eq!(
            trainer.fit(&dataset(10)).unwrap_err(),
            TrainError::NoThreads
        );
    }

    #[test]
    fn fit_is_identical_across_thread_counts() {
        let data = dataset(50);
        let reference = RbfTrainer::quick().with_threads(1).fit(&data).unwrap();
        for threads in [2, 8] {
            let fitted = RbfTrainer::quick()
                .with_threads(threads)
                .fit(&data)
                .unwrap();
            assert_eq!(reference, fitted, "threads={threads}");
        }
    }
}
