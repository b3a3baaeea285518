//! The `BuildRBFmodel` procedure (paper §1, steps 1–6).

use std::error::Error;
use std::fmt;

use ppm_rbf::{FittedRbf, RbfTrainer, TrainError};
use ppm_regtree::{Dataset, DatasetError, RegressionTree};
use ppm_rng::{derive_seed, Rng};
use ppm_sampling::lhs::{LatinHypercube, SampleError};
use ppm_sampling::random::random_design;

use crate::checkpoint::Checkpoint;
use crate::metrics::ErrorStats;
use crate::response::Response;
use crate::space::DesignSpace;
use crate::supervise::{eval_journaled, Quarantine, SupervisorPolicy};
use crate::FileError;

/// Errors from model building.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BuildError {
    /// The simulated responses could not form a dataset (e.g. non-finite
    /// CPI values).
    BadData(DatasetError),
    /// The accuracy target was not reached at the largest sample size.
    TargetNotReached {
        /// The best mean error achieved (percent).
        best_mean_pct: f64,
        /// The target (percent).
        target_pct: f64,
    },
    /// A caller-supplied parameter was unusable (zero dimension, zero
    /// threads, empty budget, ...).
    InvalidConfig(String),
    /// Too many design points were quarantined for the model to be
    /// trustworthy (the graceful-degradation threshold was exceeded).
    ExcessiveFaults {
        /// Number of quarantined points.
        quarantined: usize,
        /// Batch size.
        total: usize,
        /// Evidence from the first quarantined point.
        detail: String,
    },
    /// The checkpoint journal could not be read or written; the message
    /// carries the rendered [`FileError`].
    Checkpoint(String),
    /// RBF training failed (empty parameter grid, zero threads).
    Train(TrainError),
    /// Sample selection failed (zero candidates, zero threads).
    Sample(SampleError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::BadData(e) => write!(f, "invalid sample data: {e}"),
            BuildError::TargetNotReached {
                best_mean_pct,
                target_pct,
            } => write!(
                f,
                "accuracy target {target_pct}% not reached (best {best_mean_pct:.2}%)"
            ),
            BuildError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            BuildError::ExcessiveFaults {
                quarantined,
                total,
                detail,
            } => write!(
                f,
                "{quarantined} of {total} design points quarantined ({detail})"
            ),
            BuildError::Checkpoint(msg) => write!(f, "checkpoint failure: {msg}"),
            BuildError::Train(e) => write!(f, "training failed: {e}"),
            BuildError::Sample(e) => write!(f, "sample selection failed: {e}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::BadData(e) => Some(e),
            BuildError::Train(e) => Some(e),
            BuildError::Sample(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TrainError> for BuildError {
    fn from(e: TrainError) -> Self {
        BuildError::Train(e)
    }
}

impl From<SampleError> for BuildError {
    fn from(e: SampleError) -> Self {
        BuildError::Sample(e)
    }
}

impl From<DatasetError> for BuildError {
    fn from(e: DatasetError) -> Self {
        BuildError::BadData(e)
    }
}

impl From<FileError> for BuildError {
    fn from(e: FileError) -> Self {
        BuildError::Checkpoint(e.to_string())
    }
}

/// Configuration of the model-building procedure.
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Number of design points to simulate (paper: 30–200).
    pub sample_size: usize,
    /// Number of candidate latin hypercubes generated; the one with the
    /// lowest L2-star discrepancy is kept (paper §2.2).
    pub lhs_candidates: usize,
    /// The RBF training grid (p_min and α candidates, criterion).
    pub trainer: RbfTrainer,
    /// Seed for sampling decisions.
    pub seed: u64,
    /// Worker threads for simulation: lane groups of the batched
    /// simulator (and per-point evaluations of responses without one)
    /// run on this many `ppm-exec` workers. Defaults to `PPM_THREADS`,
    /// else the available parallelism. Values are byte-identical for
    /// any value ≥ 1.
    pub threads: usize,
    /// Worker threads for the training-side hot paths (LHS candidate
    /// sweep and the RBF grid search). The built model is byte-identical
    /// for any value ≥ 1.
    pub train_threads: usize,
    /// Fault-tolerance policy for the simulation batches: retry budget
    /// and the quarantine threshold for graceful degradation.
    pub supervisor: SupervisorPolicy,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            sample_size: 90,
            lhs_candidates: 200,
            trainer: RbfTrainer::default(),
            seed: 1,
            threads: ppm_exec::default_threads(),
            train_threads: ppm_exec::default_threads(),
            supervisor: SupervisorPolicy::default(),
        }
    }
}

impl BuildConfig {
    /// A reduced configuration for fast tests: small candidate pool and
    /// training grid.
    pub fn quick(sample_size: usize) -> Self {
        BuildConfig {
            sample_size,
            lhs_candidates: 16,
            trainer: RbfTrainer::quick(),
            ..BuildConfig::default()
        }
    }

    /// Sets the sample size.
    pub fn with_sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }

    /// Sets the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fault-tolerance policy.
    pub fn with_supervisor(mut self, policy: SupervisorPolicy) -> Self {
        self.supervisor = policy;
        self
    }

    /// Sets the worker-thread count for the training-side hot paths.
    pub fn with_train_threads(mut self, threads: usize) -> Self {
        self.train_threads = threads;
        self
    }

    /// Sets the latin-hypercube candidate pool size.
    pub fn with_lhs_candidates(mut self, candidates: usize) -> Self {
        self.lhs_candidates = candidates;
        self
    }
}

/// The outcome of one model build: the fitted network plus the sample it
/// was trained on.
#[derive(Debug, Clone)]
pub struct BuiltModel {
    /// The fitted RBF network with its method parameters.
    pub model: FittedRbf,
    /// The training design (unit coordinates) — survivors only.
    pub design: Vec<Vec<f64>>,
    /// The simulated responses, aligned with `design`.
    pub responses: Vec<f64>,
    /// The L2-star discrepancy of the chosen sample.
    pub discrepancy: f64,
    /// Design points dropped by the supervisor (empty for a clean
    /// build). The model was trained without them.
    pub quarantined: Vec<Quarantine>,
}

/// Training-residual summary for one leaf region of the regression-tree
/// partition behind the fitted model (the paper's §2.4 cells). Regions
/// with systematically large residuals localize where the surrogate is
/// weakest in design space.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionResidual {
    /// Arena index of the leaf in the refitted tree (stable for a fixed
    /// sample and `p_min`).
    pub leaf: usize,
    /// Number of training points in the region.
    pub count: usize,
    /// Mean |prediction − actual| / |actual| over the region, percent.
    pub mean_abs_pct: f64,
    /// Largest single relative residual in the region, percent.
    pub max_abs_pct: f64,
}

/// Model-quality diagnostics for one build, as recorded in the run
/// ledger: held-out accuracy, per-region training residuals, and the
/// winning model-selection parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDiagnostics {
    /// Error statistics of the modelled metric (CPI, EPI or EDP) on a
    /// held-out test set, when one was evaluated.
    pub holdout: Option<ErrorStats>,
    /// Training residuals grouped by regression-tree region, ordered by
    /// leaf index.
    pub regions: Vec<RegionResidual>,
    /// Number of selected RBF centers.
    pub centers: usize,
    /// The winning leaf-size parameter.
    pub p_min: usize,
    /// The winning width scale.
    pub alpha: f64,
    /// The winning model-selection score (AICc by default).
    pub aicc: f64,
    /// Training sum of squared errors of the winning model.
    pub train_sse: f64,
    /// L2-star discrepancy of the training sample.
    pub discrepancy: f64,
    /// Number of design points quarantined by the supervisor.
    pub quarantined: usize,
}

impl BuiltModel {
    /// Predicts the response at a unit design point.
    pub fn predict(&self, unit: &[f64]) -> f64 {
        self.model.network.predict(unit)
    }

    /// Evaluates the model on a test set.
    pub fn evaluate(&self, test_points: &[Vec<f64>], test_actual: &[f64]) -> ErrorStats {
        let predicted: Vec<f64> = test_points.iter().map(|p| self.predict(p)).collect();
        ErrorStats::from_predictions(&predicted, test_actual)
    }

    /// Training residuals grouped by the leaf regions of the tree
    /// partition that produced the model's centers: the tree is refitted
    /// with the winning `p_min` (deterministic for a fixed sample), and
    /// each training point's relative residual is attributed to its
    /// containing leaf. Ordered by leaf index.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::BadData`] if the stored sample cannot form
    /// a dataset (cannot happen for a model built by this crate).
    pub fn region_residuals(&self) -> Result<Vec<RegionResidual>, BuildError> {
        let data = Dataset::new(self.design.clone(), self.responses.clone())?;
        let tree = RegressionTree::fit(&data, self.model.p_min);
        // leaf arena index -> (count, sum of |rel|, max |rel|)
        let mut by_leaf: std::collections::BTreeMap<usize, (usize, f64, f64)> =
            std::collections::BTreeMap::new();
        for (x, &y) in self.design.iter().zip(&self.responses) {
            let rel_pct = if y.abs() > 1e-12 {
                (self.predict(x) - y).abs() / y.abs() * 100.0
            } else {
                0.0
            };
            let entry = by_leaf.entry(tree.leaf_index(x)).or_insert((0, 0.0, 0.0));
            entry.0 += 1;
            entry.1 += rel_pct;
            entry.2 = entry.2.max(rel_pct);
        }
        Ok(by_leaf
            .into_iter()
            .map(|(leaf, (count, sum, max))| RegionResidual {
                leaf,
                count,
                mean_abs_pct: sum / count as f64,
                max_abs_pct: max,
            })
            .collect())
    }

    /// Assembles the full diagnostics record for this build, attaching
    /// `holdout` statistics when a held-out evaluation was run.
    ///
    /// # Errors
    ///
    /// As [`BuiltModel::region_residuals`].
    pub fn diagnostics(&self, holdout: Option<ErrorStats>) -> Result<ModelDiagnostics, BuildError> {
        Ok(ModelDiagnostics {
            holdout,
            regions: self.region_residuals()?,
            centers: self.model.network.num_centers(),
            p_min: self.model.p_min,
            alpha: self.model.alpha,
            aicc: self.model.score,
            train_sse: self.model.sse,
            discrepancy: self.discrepancy,
            quarantined: self.quarantined.len(),
        })
    }
}

/// Builds RBF network models of a response over a design space,
/// following the paper's procedure.
///
/// # Examples
///
/// ```
/// use ppm_core::builder::{BuildConfig, BuildError, RbfModelBuilder};
/// use ppm_core::response::FnResponse;
/// use ppm_core::space::DesignSpace;
///
/// let builder = RbfModelBuilder::new(DesignSpace::paper_table1(), BuildConfig::quick(30));
/// let response = FnResponse::new(9, |x| 2.0 + x[0] * x[5])?;
/// let built = builder.build(&response)?;
/// let pred = built.predict(&[0.5; 9]);
/// assert!(pred.is_finite());
/// # Ok::<(), BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RbfModelBuilder {
    space: DesignSpace,
    config: BuildConfig,
}

impl RbfModelBuilder {
    /// Creates a builder over a space with the given configuration.
    pub fn new(space: DesignSpace, config: BuildConfig) -> Self {
        RbfModelBuilder { space, config }
    }

    /// The design space.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The configuration.
    pub fn config(&self) -> &BuildConfig {
        &self.config
    }

    /// Selects the training sample: the best of many latin hypercubes by
    /// L2-star discrepancy (paper steps 1–2). Returns the design and its
    /// discrepancy. Candidates are scored over
    /// [`BuildConfig::train_threads`] workers; the chosen design does
    /// not depend on the thread count.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Sample`] if `lhs_candidates` or
    /// `train_threads` is zero.
    pub fn select_sample(&self) -> Result<(Vec<Vec<f64>>, f64), BuildError> {
        let mut rng = Rng::seed_from_u64(derive_seed(self.config.seed, 100));
        let lhs = LatinHypercube::new(self.space.params(), self.config.sample_size)
            .with_threads(self.config.train_threads);
        Ok(lhs.best_of_with_score(self.config.lhs_candidates, &mut rng)?)
    }

    /// Runs the full procedure: sample, simulate under supervision, fit
    /// (paper steps 1–4). Faulty points within the policy's quarantine
    /// threshold are dropped and reported in
    /// [`BuiltModel::quarantined`]; the model trains on the survivors.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::ExcessiveFaults`] if too many points were
    /// quarantined, or [`BuildError::BadData`] if the surviving sample
    /// cannot form a dataset.
    pub fn build<R: Response>(&self, response: &R) -> Result<BuiltModel, BuildError> {
        self.build_checkpointed(response, None)
    }

    /// Like [`RbfModelBuilder::build`], journaling every completed
    /// simulation into `checkpoint`, if given, so an interrupted run can
    /// resume: the sample runs through [`eval_journaled`], which serves
    /// journaled points without re-simulation and flushes new ones
    /// after every lane group, also when the batch then fails the
    /// quarantine threshold.
    ///
    /// Because sampling is deterministic in the seed, a resumed build
    /// produces a model bit-identical to an uninterrupted one.
    ///
    /// # Errors
    ///
    /// As [`RbfModelBuilder::build`], plus [`BuildError::Checkpoint`]
    /// if the journal cannot be flushed.
    pub fn build_checkpointed<R: Response>(
        &self,
        response: &R,
        checkpoint: Option<&mut Checkpoint>,
    ) -> Result<BuiltModel, BuildError> {
        let (design, discrepancy) = self.select_sample()?;
        let outcome = eval_journaled(
            response,
            &design,
            self.config.threads,
            &self.config.supervisor,
            checkpoint,
        )?;
        let (survivors, responses) = outcome.survivors(&design);
        let mut built = self.fit(survivors, responses, discrepancy)?;
        built.quarantined = outcome.quarantined;
        Ok(built)
    }

    /// Fits a model to an existing simulated sample (useful when the
    /// responses were computed elsewhere or cached).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::BadData`] if the data are inconsistent, or
    /// [`BuildError::Train`] if the training grid is unusable.
    pub fn fit(
        &self,
        design: Vec<Vec<f64>>,
        responses: Vec<f64>,
        discrepancy: f64,
    ) -> Result<BuiltModel, BuildError> {
        let data = Dataset::new(design.clone(), responses.clone())?;
        let trainer = self
            .config
            .trainer
            .clone()
            .with_threads(self.config.train_threads);
        let model = trainer.fit(&data)?;
        Ok(BuiltModel {
            model,
            design,
            responses,
            discrepancy,
            quarantined: Vec::new(),
        })
    }

    /// Generates the independent random test set of the paper's §3:
    /// `count` points in the (narrower) test space, expressed in the
    /// *training* space's unit coordinates.
    pub fn test_points(&self, test_space: &DesignSpace, count: usize) -> Vec<Vec<f64>> {
        let mut rng = Rng::seed_from_u64(derive_seed(self.config.seed, 200));
        random_design(test_space.params(), count, &mut rng)
            .into_iter()
            .map(|unit| {
                let actual = test_space.to_actual(&unit);
                self.space.params().to_unit(&actual)
            })
            .collect()
    }

    /// The iterative procedure of step 6: build models at increasing
    /// sample sizes until the mean test error falls below
    /// `target_mean_pct`.
    ///
    /// Returns the first model meeting the target together with its
    /// error statistics.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidConfig`] if `sample_sizes` is
    /// empty, [`BuildError::TargetNotReached`] if even the largest
    /// sample size misses the target, or [`BuildError::BadData`] on
    /// invalid responses.
    pub fn build_to_accuracy<R: Response>(
        &self,
        response: &R,
        sample_sizes: &[usize],
        target_mean_pct: f64,
        test_points: &[Vec<f64>],
        test_actual: &[f64],
    ) -> Result<(BuiltModel, ErrorStats), BuildError> {
        if sample_sizes.is_empty() {
            return Err(BuildError::InvalidConfig(
                "no sample sizes given".to_string(),
            ));
        }
        let mut best: Option<(BuiltModel, ErrorStats)> = None;
        for &n in sample_sizes {
            ppm_telemetry::counter("build.escalations").inc();
            ppm_telemetry::event("build.sample_size", &[("points", n.into())]);
            let mut builder = self.clone();
            builder.config.sample_size = n;
            let built = builder.build(response)?;
            let stats = built.evaluate(test_points, test_actual);
            ppm_telemetry::event(
                "build.evaluated",
                &[("points", n.into()), ("mean_pct", stats.mean_pct.into())],
            );
            if stats.mean_pct <= target_mean_pct {
                return Ok((built, stats));
            }
            if best
                .as_ref()
                .is_none_or(|(_, s)| stats.mean_pct < s.mean_pct)
            {
                best = Some((built, stats));
            }
        }
        let best_mean = best.map(|(_, s)| s.mean_pct).unwrap_or(f64::INFINITY);
        Err(BuildError::TargetNotReached {
            best_mean_pct: best_mean,
            target_pct: target_mean_pct,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::FnResponse;

    fn smooth_response() -> FnResponse<impl Fn(&[f64]) -> f64 + Sync> {
        FnResponse::new(9, |x| {
            2.0 + 1.5 * x[0] + (2.0 * x[4]).exp() * 0.2 + x[5] * x[5] - 0.5 * x[5] * x[6]
        })
        .unwrap()
    }

    #[test]
    fn build_produces_accurate_model_on_smooth_response() {
        let builder = RbfModelBuilder::new(DesignSpace::paper_table1(), BuildConfig::quick(80));
        let built = builder.build(&smooth_response()).unwrap();
        assert!(built.quarantined.is_empty());
        let test = builder.test_points(&DesignSpace::paper_table2(), 40);
        let actual: Vec<f64> = test.iter().map(|p| smooth_response().eval(p)).collect();
        let stats = built.evaluate(&test, &actual);
        assert!(stats.mean_pct < 5.0, "mean error {stats}");
    }

    #[test]
    fn sample_selection_is_deterministic_and_snapped() {
        let builder = RbfModelBuilder::new(DesignSpace::paper_table1(), BuildConfig::quick(30));
        let (a, da) = builder.select_sample().unwrap();
        let (b, db) = builder.select_sample().unwrap();
        assert_eq!(a, b);
        assert_eq!(da, db);
        assert_eq!(a.len(), 30);
        // L2 size has 6 levels: unit coordinates are multiples of 1/5.
        for p in &a {
            let scaled = p[4] * 5.0;
            assert!((scaled - scaled.round()).abs() < 1e-9);
        }
    }

    #[test]
    fn different_seeds_give_different_samples() {
        let b1 = RbfModelBuilder::new(
            DesignSpace::paper_table1(),
            BuildConfig::quick(30).with_seed(1),
        );
        let b2 = RbfModelBuilder::new(
            DesignSpace::paper_table1(),
            BuildConfig::quick(30).with_seed(2),
        );
        assert_ne!(b1.select_sample().unwrap().0, b2.select_sample().unwrap().0);
    }

    #[test]
    fn test_points_lie_in_the_restricted_region() {
        let builder = RbfModelBuilder::new(DesignSpace::paper_table1(), BuildConfig::quick(30));
        let test = builder.test_points(&DesignSpace::paper_table2(), 50);
        assert_eq!(test.len(), 50);
        for p in &test {
            // In training-space unit coordinates the pipe-depth axis is
            // confined to Table 2's [2/17, 15/17] window.
            assert!(p[0] >= 2.0 / 17.0 - 1e-6 && p[0] <= 15.0 / 17.0 + 1e-6);
            // ROB confined to [0.125, 0.875].
            assert!(p[1] >= 0.124 && p[1] <= 0.876);
            for &v in p.iter() {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn region_residuals_cover_every_training_point() {
        let builder = RbfModelBuilder::new(DesignSpace::paper_table1(), BuildConfig::quick(50));
        let built = builder.build(&smooth_response()).unwrap();
        let regions = built.region_residuals().unwrap();
        assert!(!regions.is_empty());
        let covered: usize = regions.iter().map(|r| r.count).sum();
        assert_eq!(covered, built.design.len());
        for r in &regions {
            assert!(r.mean_abs_pct.is_finite() && r.mean_abs_pct >= 0.0);
            assert!(r.max_abs_pct >= r.mean_abs_pct - 1e-12);
        }
        // Leaf order and values are deterministic.
        assert_eq!(regions, built.region_residuals().unwrap());
    }

    #[test]
    fn diagnostics_reflect_the_winning_model() {
        let builder = RbfModelBuilder::new(DesignSpace::paper_table1(), BuildConfig::quick(50));
        let built = builder.build(&smooth_response()).unwrap();
        let test = builder.test_points(&DesignSpace::paper_table2(), 20);
        let actual: Vec<f64> = test.iter().map(|p| smooth_response().eval(p)).collect();
        let holdout = built.evaluate(&test, &actual);
        let diag = built.diagnostics(Some(holdout)).unwrap();
        assert_eq!(diag.holdout, Some(holdout));
        assert_eq!(diag.centers, built.model.network.num_centers());
        assert_eq!(diag.p_min, built.model.p_min);
        assert_eq!(diag.aicc, built.model.score);
        assert_eq!(diag.quarantined, 0);
        assert!(diag.discrepancy > 0.0);
    }

    #[test]
    fn build_degrades_gracefully_on_sparse_faults() {
        // One specific point region yields NaN; everything else is fine.
        let response = FnResponse::new(9, |x: &[f64]| {
            if x[0] > 0.97 {
                f64::NAN
            } else {
                2.0 + 1.5 * x[0] + x[5]
            }
        })
        .unwrap();
        let config = BuildConfig::quick(60)
            .with_supervisor(SupervisorPolicy::default().with_max_quarantined_frac(0.2));
        let builder = RbfModelBuilder::new(DesignSpace::paper_table1(), config);
        let built = builder.build(&response).unwrap();
        // An LHS of 60 points covers the faulty stratum at least once.
        assert!(!built.quarantined.is_empty(), "fault region never sampled");
        assert_eq!(built.design.len() + built.quarantined.len(), 60);
        assert!(built.predict(&[0.5; 9]).is_finite());
    }

    #[test]
    fn build_fails_typed_when_faults_exceed_threshold() {
        let response = FnResponse::new(9, |_: &[f64]| f64::NAN).unwrap();
        let builder = RbfModelBuilder::new(DesignSpace::paper_table1(), BuildConfig::quick(20));
        let err = builder.build(&response).unwrap_err();
        assert!(matches!(err, BuildError::ExcessiveFaults { .. }), "{err:?}");
    }

    #[test]
    fn build_to_accuracy_stops_at_first_adequate_size() {
        let builder = RbfModelBuilder::new(DesignSpace::paper_table1(), BuildConfig::quick(30));
        let response = smooth_response();
        let test = builder.test_points(&DesignSpace::paper_table2(), 30);
        let actual: Vec<f64> = test.iter().map(|p| response.eval(p)).collect();
        let (built, stats) = builder
            .build_to_accuracy(&response, &[30, 60, 90], 8.0, &test, &actual)
            .unwrap();
        assert!(stats.mean_pct <= 8.0);
        assert!(built.design.len() <= 90);
    }

    #[test]
    fn build_to_accuracy_reports_unreachable_target() {
        let builder = RbfModelBuilder::new(DesignSpace::paper_table1(), BuildConfig::quick(20));
        // A response too rough to model with 20 points.
        let response = FnResponse::new(9, |x| {
            1.0 + (37.0 * x[0]).sin() + (53.0 * x[1]).cos() * (29.0 * x[2]).sin()
        })
        .unwrap();
        let test = builder.test_points(&DesignSpace::paper_table2(), 30);
        let actual: Vec<f64> = test.iter().map(|p| response.eval(p)).collect();
        let err = builder
            .build_to_accuracy(&response, &[20], 0.01, &test, &actual)
            .unwrap_err();
        assert!(matches!(err, BuildError::TargetNotReached { .. }));
        assert!(err.to_string().contains("not reached"));
    }

    #[test]
    fn build_to_accuracy_rejects_empty_budget() {
        let builder = RbfModelBuilder::new(DesignSpace::paper_table1(), BuildConfig::quick(20));
        let err = builder
            .build_to_accuracy(&smooth_response(), &[], 5.0, &[], &[])
            .unwrap_err();
        assert!(matches!(err, BuildError::InvalidConfig(_)));
    }
}
