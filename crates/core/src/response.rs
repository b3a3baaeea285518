//! Processor responses: what the model-building procedure measures at a
//! design point.

use std::iter::Take;

use ppm_sim::{
    estimate_energy, BatchError, BatchProcessor, EnergyParams, FixedMachine, SimConfig, SimStats,
};
use ppm_telemetry::fnv1a64;
use ppm_workload::{Benchmark, Profile, TraceGenerator};

use crate::builder::BuildError;
use crate::envelope::floats;
use crate::space::DesignSpace;
use crate::supervise::{eval_batch_supervised, SupervisorPolicy};

/// The version of the simulator, the trace generator and the metric
/// reduction, in every [`SimulatorResponse`] key: a change that moves a
/// simulated value bumps it, or a result store serves the old value.
pub const SIM_VERSION: u32 = 1;

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

    /// The key a [`ResultStore`](crate::store::ResultStore) keeps the
    /// value at `unit` under: equal keys mean equal values, in any run.
    /// The default hashes the point's 17-digit text and nothing else, so
    /// two responses on the default key (a closure over a machine or a
    /// trace, say) must not share a store: they would serve each other's
    /// values.
    fn key(&self, unit: &[f64]) -> u64 {
        fnv1a64(floats(unit).as_bytes())
    }
}

/// A response computed by running the cycle-level simulator on a
/// workload trace (the paper's step 3): the one place a machine meets a
/// trace. It holds the workload [`Profile`], the [`FixedMachine`], the
/// trace seed and length and the metric; [`SimulatorResponse::run`]
/// runs configurations as the lanes of one [`BatchProcessor`] over the
/// trace, and [`Response::eval`] (one lane) and [`Response::eval_many`]
/// (one lane per point) reduce its output to the metric.
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
    profile: Profile,
    machine: FixedMachine,
    trace_len: usize,
    seed: u64,
    space: DesignSpace,
    metric: Metric,
}

impl SimulatorResponse {
    /// Creates a response for a benchmark's `lgred` profile, simulating
    /// `trace_len` instructions per design point over the Table 1 space.
    ///
    /// # Panics
    ///
    /// Panics if `trace_len == 0`.
    pub fn new(benchmark: Benchmark, trace_len: usize) -> Self {
        Self::from_profile(benchmark.profile(), trace_len)
    }

    /// Creates a response for any workload profile (another input set,
    /// a custom workload), on the default [`FixedMachine`].
    ///
    /// # Panics
    ///
    /// Panics if `trace_len == 0` or the profile fails
    /// [`Profile::validate`].
    pub fn from_profile(profile: Profile, trace_len: usize) -> Self {
        assert!(trace_len > 0, "empty trace");
        profile.validate();
        SimulatorResponse {
            profile,
            machine: FixedMachine::default(),
            trace_len,
            seed: 1,
            space: DesignSpace::paper_table1(),
            metric: Metric::Cpi,
        }
    }

    /// Runs every design point on `machine` (default
    /// [`FixedMachine::default`]).
    pub fn with_machine(mut self, machine: FixedMachine) -> Self {
        self.machine = machine;
        self
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

    /// The design space used to interpret unit points.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The instruction stream every configuration runs: the profile's
    /// first `trace_len` instructions at the seed.
    pub fn trace(&self) -> Take<TraceGenerator> {
        TraceGenerator::from_profile(&self.profile, self.seed).take(self.trace_len)
    }

    /// Runs `configs` as the lanes of one [`BatchProcessor`] over
    /// [`SimulatorResponse::trace`], in order, each on its own `fixed`
    /// machine ([`SimulatorResponse::with_machine`] sets the machine of
    /// the unit points [`Response::eval_many`] runs).
    ///
    /// # Errors
    ///
    /// See [`BatchError`]: no configuration, an invalid one, or lanes on
    /// different fixed machines.
    pub fn run(&self, configs: &[SimConfig]) -> Result<Vec<SimStats>, BatchError> {
        Ok(BatchProcessor::new(configs.to_vec())?.run(self.trace()))
    }

    /// The configuration `unit` maps to, on this response's machine.
    fn config(&self, unit: &[f64]) -> SimConfig {
        SimConfig {
            fixed: self.machine.clone(),
            ..self.space.to_config(unit)
        }
    }
}

impl Response for SimulatorResponse {
    fn dim(&self) -> usize {
        self.space.dim()
    }

    fn eval(&self, unit: &[f64]) -> f64 {
        self.eval_many(&[unit.to_vec()])
            .and_then(|values| values.first().copied())
            .unwrap_or(f64::NAN)
    }

    /// Simulates all points in one trace pass. Declines (`None`) only
    /// for an invalid derived configuration, which the per-point path
    /// then isolates.
    fn eval_many(&self, points: &[Vec<f64>]) -> Option<Vec<f64>> {
        let configs: Vec<SimConfig> = points.iter().map(|u| self.config(u)).collect();
        let energy = |s: &SimStats, c: &SimConfig| estimate_energy(s, c, &EnergyParams::default());
        let reduce = |(stats, config): (&SimStats, &SimConfig)| match self.metric {
            // A degenerate CPI becomes NaN so the supervisor can
            // quarantine the point instead of feeding it to the fit.
            Metric::Cpi => stats.checked_cpi().unwrap_or(f64::NAN),
            Metric::Epi => energy(stats, config).epi(),
            Metric::Edp => energy(stats, config).edp(),
        };
        let all = self.run(&configs).ok()?;
        Some(all.iter().zip(&configs).map(reduce).collect())
    }

    /// Hashes what determines the simulation: [`SIM_VERSION`], the
    /// profile's `Debug` text, the trace seed and length, the metric and
    /// the configuration `unit` maps to on this machine, so runs that
    /// differ only in their sample share keys.
    fn key(&self, unit: &[f64]) -> u64 {
        let (profile, seed, len, metric) = (&self.profile, self.seed, self.trace_len, self.metric);
        let config = self.config(unit).canonical();
        fnv1a64(format!("{SIM_VERSION} {profile:?} {seed} {len} {metric:?} {config}").as_bytes())
    }
}

/// An analytic response defined by a closure. Its store key is the
/// default (the point alone), so it names nothing the closure captures.
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
/// batch as a typed error. Use [`eval_batch_supervised`] directly for
/// retries and quarantine, or
/// [`eval_journaled`](crate::supervise::eval_journaled) to reuse a
/// result store.
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
    fn simulator_key_covers_what_determines_the_value() {
        let base = SimulatorResponse::new(Benchmark::Mcf, 10_000);
        let x = [0.5; 9];
        let key = base.key(&x);
        let mcf = Benchmark::Mcf.profile();
        assert_eq!(
            SimulatorResponse::from_profile(mcf.clone(), 10_000).key(&x),
            key
        );
        let others = [
            SimulatorResponse::new(Benchmark::Ammp, 10_000),
            SimulatorResponse::new(Benchmark::Mcf, 10_001),
            base.clone().with_seed(2),
            base.clone().with_metric(Metric::Epi),
            base.clone().with_machine(FixedMachine {
                replacement: ppm_sim::ReplacementPolicy::Random,
                ..FixedMachine::default()
            }),
            SimulatorResponse::from_profile(
                Benchmark::Mcf.profile_with(ppm_workload::InputSet::Reference),
                10_000,
            ),
            // Same name, one field apart: the whole profile is keyed.
            SimulatorResponse::from_profile(Profile { dep_p: 0.5, ..mcf }, 10_000),
        ];
        for other in &others {
            assert_ne!(other.key(&x), key, "{other:?}");
        }
        let mut moved = x;
        moved[1] = 0.9;
        assert_ne!(base.key(&moved), key);
        // A point that snaps to the same machine is the same simulation.
        moved[1] = 0.5 + 1e-9;
        assert_eq!(base.space().to_config(&moved), base.space().to_config(&x));
        assert_eq!(base.key(&moved), key);
        // The default key is the point itself.
        let f = FnResponse::new(9, |_| 0.0).unwrap();
        assert_ne!(f.key(&moved), f.key(&x));
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
