//! Processor responses: what the model-building procedure measures at a
//! design point.

use ppm_sim::{estimate_energy, BatchProcessor, EnergyParams, SimConfig, SimStats};
use ppm_workload::{Benchmark, TraceGenerator};

use crate::builder::BuildError;
use crate::space::DesignSpace;
use crate::supervise::{eval_batch_supervised, SupervisorPolicy};

/// Which scalar a [`SimulatorResponse`] reports per design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Metric {
    /// Cycles per instruction — the paper's response.
    #[default]
    Cpi,
    /// Energy per instruction, from the activity-based energy model
    /// (the extension suggested in the paper's conclusion).
    Epi,
    /// Energy–delay product per instruction.
    Edp,
}

/// A deterministic scalar response over the unit design space.
///
/// The paper's response is the CPI reported by detailed simulation
/// ([`SimulatorResponse`]); analytic responses ([`FnResponse`]) are
/// useful for fast tests of the modeling machinery.
///
/// Implementations must be deterministic: the same point always yields
/// the same value. `Sync` is required so batches can be evaluated in
/// parallel.
///
/// A faulty evaluation may panic or return a non-finite value; the
/// supervised executor ([`crate::supervise`]) isolates both instead of
/// letting them tear down the batch.
pub trait Response: Sync {
    /// The dimensionality of the input space.
    fn dim(&self) -> usize;

    /// Evaluates the response at a unit design point.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `unit.len() != self.dim()`.
    fn eval(&self, unit: &[f64]) -> f64;

    /// Evaluates many points in one pass, when the implementation has a
    /// cheaper-than-serial batched path.
    ///
    /// Returns `None` when no batched path applies (the default); the
    /// caller then falls back to per-point [`Response::eval`] calls. A
    /// `Some` result must contain exactly `points.len()` values, each
    /// equal to what `eval` would have returned for the same point —
    /// batching is an execution strategy, never a semantic change.
    /// Non-finite values are returned as-is so the supervised executor
    /// can quarantine those points individually.
    fn eval_many(&self, points: &[Vec<f64>]) -> Option<Vec<f64>> {
        let _ = points;
        None
    }
}

/// A response computed by running the cycle-level simulator on a
/// benchmark trace (the paper's step 3).
///
/// [`Response::eval`] is a 1-lane [`BatchProcessor`] run and
/// [`Response::eval_many`] one lane per point, on one shared path.
///
/// Simulator failures (invalid derived config, degenerate CPI) surface
/// as NaN from [`Response::eval`], which the supervised executor
/// quarantines as [`crate::supervise::Fault::NonFinite`].
///
/// # Examples
///
/// ```no_run
/// use ppm_core::response::{Response, SimulatorResponse};
/// use ppm_workload::Benchmark;
///
/// let r = SimulatorResponse::new(Benchmark::Mcf, 200_000);
/// let cpi = r.eval(&[0.5; 9]);
/// assert!(cpi > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimulatorResponse {
    benchmark: Benchmark,
    trace_len: usize,
    seed: u64,
    space: DesignSpace,
    metric: Metric,
}

impl SimulatorResponse {
    /// Creates a response for a benchmark, simulating `trace_len`
    /// instructions per design point, over the Table 1 space.
    ///
    /// # Panics
    ///
    /// Panics if `trace_len == 0`.
    pub fn new(benchmark: Benchmark, trace_len: usize) -> Self {
        Self::with_space(benchmark, trace_len, DesignSpace::paper_table1())
    }

    /// Like [`SimulatorResponse::new`] with an explicit design space.
    ///
    /// # Panics
    ///
    /// Panics if `trace_len == 0`.
    pub fn with_space(benchmark: Benchmark, trace_len: usize, space: DesignSpace) -> Self {
        assert!(trace_len > 0, "empty trace");
        SimulatorResponse {
            benchmark,
            trace_len,
            seed: 1,
            space,
            metric: Metric::Cpi,
        }
    }

    /// Overrides the workload seed (default 1).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the reported metric (default CPI).
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// The reported metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The benchmark being modeled.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The design space used to interpret unit points.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }
}

impl Response for SimulatorResponse {
    fn dim(&self) -> usize {
        self.space.dim()
    }

    fn eval(&self, unit: &[f64]) -> f64 {
        self.simulate(std::iter::once(unit))
            .and_then(|values| values.first().copied())
            .unwrap_or(f64::NAN)
    }

    /// Simulates all points in one trace pass. Declines (`None`) only
    /// for an invalid derived configuration, which the per-point path
    /// then isolates.
    fn eval_many(&self, points: &[Vec<f64>]) -> Option<Vec<f64>> {
        self.simulate(points.iter().map(Vec::as_slice))
    }
}

impl SimulatorResponse {
    /// Runs the points as the lanes of one [`BatchProcessor`] and
    /// reduces each lane to the metric; `None` for an invalid config.
    fn simulate<'a>(&self, units: impl Iterator<Item = &'a [f64]>) -> Option<Vec<f64>> {
        let configs: Vec<SimConfig> = units.map(|u| self.space.to_config(u)).collect();
        let batch = BatchProcessor::new(configs.clone()).ok()?;
        let trace = TraceGenerator::new(self.benchmark, self.seed).take(self.trace_len);
        let all = batch.run(trace);
        Some(
            all.iter()
                .zip(&configs)
                .map(|(stats, config)| self.report(stats, config))
                .collect(),
        )
    }

    /// Reduces simulation statistics to the configured scalar metric.
    fn report(&self, stats: &SimStats, config: &SimConfig) -> f64 {
        match self.metric {
            // A degenerate CPI becomes NaN so the supervisor can
            // quarantine the point instead of feeding it to the fit.
            Metric::Cpi => stats.checked_cpi().unwrap_or(f64::NAN),
            Metric::Epi => estimate_energy(stats, config, &EnergyParams::default()).epi(),
            Metric::Edp => estimate_energy(stats, config, &EnergyParams::default()).edp(),
        }
    }
}

/// An analytic response defined by a closure.
pub struct FnResponse<F> {
    dim: usize,
    f: F,
}

impl<F: Fn(&[f64]) -> f64 + Sync> FnResponse<F> {
    /// Wraps a closure as a response over a `dim`-dimensional unit cube.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidConfig`] if `dim == 0`.
    pub fn new(dim: usize, f: F) -> Result<Self, BuildError> {
        if dim == 0 {
            return Err(BuildError::InvalidConfig(
                "response needs at least one dimension".to_string(),
            ));
        }
        Ok(FnResponse { dim, f })
    }
}

impl<F: Fn(&[f64]) -> f64 + Sync> Response for FnResponse<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn eval(&self, unit: &[f64]) -> f64 {
        (self.f)(unit)
    }
}

/// Evaluates a response at many points, in parallel when `threads > 1`.
///
/// Results are returned in input order regardless of thread count, and
/// the computation is deterministic. This is the strict façade over the
/// supervised executor: any panic or non-finite value fails the whole
/// batch as a typed error. Use
/// [`eval_batch_supervised`](crate::supervise::eval_batch_supervised)
/// directly for retries, quarantine, and checkpoint reuse.
///
/// # Errors
///
/// * [`BuildError::InvalidConfig`] if `threads == 0`.
/// * [`BuildError::ExcessiveFaults`] if any evaluation panicked or
///   returned a non-finite value.
pub fn eval_batch<R: Response>(
    response: &R,
    points: &[Vec<f64>],
    threads: usize,
) -> Result<Vec<f64>, BuildError> {
    eval_batch_supervised(response, points, threads, &SupervisorPolicy::strict(), &[])
        .and_then(|outcome| outcome.into_values(points.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_response_evaluates() {
        let r = FnResponse::new(2, |x| x[0] + 2.0 * x[1]).unwrap();
        assert_eq!(r.dim(), 2);
        assert_eq!(r.eval(&[0.5, 0.25]), 1.0);
    }

    #[test]
    fn zero_dim_response_is_invalid_config() {
        let Err(err) = FnResponse::new(0, |_: &[f64]| 0.0) else {
            panic!("zero-dimension response must be rejected");
        };
        assert!(matches!(err, BuildError::InvalidConfig(_)));
    }

    #[test]
    fn eval_batch_matches_serial_and_is_ordered() {
        let r = FnResponse::new(3, |x| x[0] * 100.0 + x[1] * 10.0 + x[2]).unwrap();
        let points: Vec<Vec<f64>> = (0..37).map(|i| vec![i as f64 / 37.0, 0.5, 0.25]).collect();
        let serial = eval_batch(&r, &points, 1).unwrap();
        let parallel = eval_batch(&r, &points, 8).unwrap();
        assert_eq!(serial, parallel);
        assert!(serial[0] < serial[36]);
    }

    #[test]
    fn eval_batch_fails_on_faulty_point() {
        let r = FnResponse::new(1, |x: &[f64]| if x[0] > 0.5 { f64::NAN } else { x[0] }).unwrap();
        let err = eval_batch(&r, &[vec![0.2], vec![0.9]], 1).unwrap_err();
        assert!(matches!(err, BuildError::ExcessiveFaults { .. }), "{err:?}");
    }

    #[test]
    fn simulator_response_is_deterministic_and_sensible() {
        let r = SimulatorResponse::new(ppm_workload::Benchmark::Crafty, 30_000);
        let a = r.eval(&[0.5; 9]);
        let b = r.eval(&[0.5; 9]);
        assert_eq!(a, b);
        assert!(a > 0.2 && a < 20.0, "implausible CPI {a}");
        // The best corner beats the worst corner.
        let worst = r.eval(&[0.0; 9]);
        let best = r.eval(&[1.0; 9]);
        assert!(
            worst > best,
            "low-performance corner ({worst}) should be slower than high ({best})"
        );
    }

    #[test]
    fn metrics_differ_and_relate() {
        let base = SimulatorResponse::new(ppm_workload::Benchmark::Ammp, 20_000);
        let x = [0.5; 9];
        let cpi = base.clone().with_metric(Metric::Cpi).eval(&x);
        let epi = base.clone().with_metric(Metric::Epi).eval(&x);
        let edp = base.clone().with_metric(Metric::Edp).eval(&x);
        assert!(cpi > 0.0 && epi > 0.0);
        // EDP = EPI x CPI by construction.
        assert!(
            (edp - epi * cpi).abs() / edp < 1e-9,
            "{edp} vs {}",
            epi * cpi
        );
    }

    #[test]
    fn batch_of_simulations_in_parallel() {
        let r = SimulatorResponse::new(ppm_workload::Benchmark::Ammp, 20_000);
        let points: Vec<Vec<f64>> = vec![vec![0.2; 9], vec![0.8; 9], vec![0.5; 9]];
        let serial = eval_batch(&r, &points, 1).unwrap();
        let parallel = eval_batch(&r, &points, 3).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        let r = FnResponse::new(1, |x: &[f64]| x[0]).unwrap();
        let err = eval_batch(&r, &[vec![0.0]], 0).unwrap_err();
        assert!(matches!(err, BuildError::InvalidConfig(_)));
    }
}
