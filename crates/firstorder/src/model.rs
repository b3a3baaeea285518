//! The analytical CPI composition.

use ppm_sim::{ConfigError, SimConfig};

use crate::ProgramStats;

/// A first-order analytical CPI model: ideal throughput plus
/// independent penalty terms (see the crate docs for the equation).
///
/// # Examples
///
/// ```
/// use ppm_firstorder::{FirstOrderModel, ProgramStats};
/// use ppm_sim::{Instr, Op, SimConfig};
///
/// let trace: Vec<Instr> = (0..10_000)
///     .map(|i| Instr::alu(Op::IntAlu, 0x1000 + (i % 64) * 4, 2, 0))
///     .collect();
/// let model = FirstOrderModel::new(ProgramStats::collect(
///     trace.iter().copied(),
///     &SimConfig::default(),
/// ));
/// // A slower L2 can only raise the predicted CPI.
/// let base = model.predict(&SimConfig::default());
/// let slow = model.predict(&SimConfig::builder().l2_lat(20).build().unwrap());
/// assert!(slow >= base);
/// ```
#[derive(Debug, Clone)]
pub struct FirstOrderModel {
    stats: ProgramStats,
}

impl FirstOrderModel {
    /// Wraps profiled statistics into a model.
    pub fn new(stats: ProgramStats) -> Self {
        FirstOrderModel { stats }
    }

    /// The underlying program statistics.
    pub fn stats(&self) -> &ProgramStats {
        &self.stats
    }

    /// Predicts CPI for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn predict(&self, config: &SimConfig) -> f64 {
        // Documented `# Panics` contract above. lint:allow(panic-path)
        config.validate().expect("valid configuration");
        self.predict_valid(config)
    }

    /// Predicts CPI for a configuration, returning the validation error
    /// instead of panicking — the form a serving layer wants, where an
    /// invalid request must become a 400, never a worker death.
    ///
    /// # Errors
    ///
    /// The [`ConfigError`] from [`SimConfig::validate`].
    pub fn try_predict(&self, config: &SimConfig) -> Result<f64, ConfigError> {
        config.validate()?;
        Ok(self.predict_valid(config))
    }

    fn predict_valid(&self, config: &SimConfig) -> f64 {
        ppm_telemetry::counter("firstorder.predictions").inc();
        let s = &self.stats;

        // Base: dataflow ILP limited by the window and machine width.
        // The effective window is the smaller of the ROB and the
        // issue-queue capacity amplified by its draining rate.
        let effective_window = (config.rob_size as f64)
            .min(config.iq_size() as f64 * 2.0)
            .max(4.0);
        let ipc_window = s.ilp_at(effective_window.round() as usize);
        let ipc_base = ipc_window.min(config.fixed.width as f64);
        let cpi_base = 1.0 / ipc_base;

        // Branches: refill penalty scales with the front-end depth; a
        // constant accounts for resolution (dispatch→execute).
        let resolve = 3.0;
        let cpi_branch =
            s.branch_frac * s.mispredict_rate * (config.front_depth() as f64 + resolve);

        // Instruction fetch: il1 misses served by the L2 (instruction
        // working sets fit every L2 of the space). Partially hidden by
        // the fetch queue: charge a visibility factor.
        let il1_mpi = ProgramStats::nearest(&s.il1_mpi, config.il1_size_kb);
        let cpi_ifetch = 0.7 * il1_mpi * (config.fixed.il1_lat + config.l2_lat) as f64;

        // Data side. L1 misses that hit in the L2 pay the L2 latency,
        // partially overlapped (factor from chaining). Loads escaping
        // the L2 pay DRAM latency divided by the achievable MLP.
        let dl1_mpi = ProgramStats::nearest(&s.dl1_mpi, config.dl1_size_kb);
        let l2_mpi = ProgramStats::nearest(&s.l2_mpi, config.l2_size_kb);
        let l2_hit_mpi = (dl1_mpi - l2_mpi).max(0.0);
        let serial = 0.3 + 0.7 * s.chained_load_frac;
        let cpi_l2 = l2_hit_mpi * config.l2_lat as f64 * serial;

        let mem_lat =
            (config.fixed.mem_lat + config.fixed.bus_per_line) as f64 + config.l2_lat as f64;
        // MLP: limited by the LSQ, the MSHRs, and chain serialization.
        let mlp_structural = (config.lsq_size() as f64 / 4.0)
            .min(config.fixed.mshrs as f64)
            .max(1.0);
        let mlp = 1.0 + (mlp_structural - 1.0) * (1.0 - s.chained_load_frac);
        let cpi_dram = l2_mpi * mem_lat / mlp;

        // Every load pays its L1 latency on the critical path in
        // proportion to chaining.
        let cpi_l1d = s.load_frac * (config.dl1_lat as f64 - 1.0) * s.chained_load_frac;

        cpi_base + cpi_branch + cpi_ifetch + cpi_l2 + cpi_dram + cpi_l1d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_sim::{BatchProcessor, SimConfig};
    use ppm_workload::{Benchmark, TraceGenerator};

    fn model(bench: Benchmark) -> FirstOrderModel {
        FirstOrderModel::new(ProgramStats::collect(
            TraceGenerator::new(bench, 1).take(120_000),
            &SimConfig::default(),
        ))
    }

    fn simulate(bench: Benchmark, config: &SimConfig) -> f64 {
        BatchProcessor::new(vec![config.clone()])
            .unwrap()
            .run(TraceGenerator::new(bench, 1).take(120_000))[0]
            .cpi()
    }

    #[test]
    fn predictions_are_in_the_simulator_ballpark_at_midrange() {
        for bench in [Benchmark::Crafty, Benchmark::Mcf, Benchmark::Equake] {
            let m = model(bench);
            let config = SimConfig::default();
            let predicted = m.predict(&config);
            let simulated = simulate(bench, &config);
            let ratio = predicted / simulated;
            // First-order models systematically underpredict (no
            // queueing, no cold-start, no window-drain effects); the
            // paper's point is exactly this looseness.
            assert!(
                (0.3..2.5).contains(&ratio),
                "{bench}: first-order {predicted:.2} vs simulated {simulated:.2}"
            );
        }
    }

    #[test]
    fn trends_have_the_right_direction() {
        let m = model(Benchmark::Mcf);
        let base = m.predict(&SimConfig::default());
        let slow_l2 = m.predict(&SimConfig::builder().l2_lat(20).build().unwrap());
        let small_l2 = m.predict(&SimConfig::builder().l2_size_kb(256).build().unwrap());
        let deep = m.predict(&SimConfig::builder().pipe_depth(24).build().unwrap());
        assert!(slow_l2 > base);
        assert!(small_l2 >= base);
        assert!(deep > base);
    }

    #[test]
    fn memory_bound_program_predicted_slower_than_compute_bound() {
        let config = SimConfig::default();
        let mcf = model(Benchmark::Mcf).predict(&config);
        let crafty = model(Benchmark::Crafty).predict(&config);
        assert!(mcf > crafty, "mcf {mcf} should exceed crafty {crafty}");
    }

    #[test]
    fn prediction_is_fast_and_deterministic() {
        let m = model(Benchmark::Twolf);
        let config = SimConfig::default();
        let a = m.predict(&config);
        let b = m.predict(&config);
        assert_eq!(a, b);
    }

    #[test]
    fn try_predict_matches_predict_and_rejects_invalid_configs() {
        let m = model(Benchmark::Twolf);
        let config = SimConfig::default();
        assert_eq!(m.try_predict(&config).unwrap(), m.predict(&config));
        let bad = SimConfig {
            rob_size: 1,
            ..SimConfig::default()
        };
        assert!(m.try_predict(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "valid configuration")]
    fn invalid_config_panics() {
        let m = model(Benchmark::Twolf);
        let config = SimConfig {
            rob_size: 1,
            ..SimConfig::default()
        };
        m.predict(&config);
    }
}
