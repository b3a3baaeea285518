//! A first-order energy model over the simulator's event counts.
//!
//! The paper's conclusion notes that "similar models can be developed
//! for other metrics such as power consumption". This module provides
//! that metric: an activity-based energy estimate in the spirit of
//! Wattch/CACTI-class models — per-event dynamic energies whose cache
//! costs scale with capacity and associativity, plus leakage
//! proportional to the sizes of the provisioned structures.
//!
//! Energy is computed *post hoc* from a run's [`SimStats`] and its
//! [`SimConfig`]; the timing model is untouched. Units are arbitrary
//! (pJ-like); only relative comparisons across configurations are
//! meaningful, which is all the surrogate-modeling methodology needs.

use crate::{SimConfig, SimStats};

/// Per-event energy coefficients (arbitrary pJ-like units).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyParams {
    /// Integer ALU operation.
    pub int_alu: f64,
    /// Integer multiply.
    pub int_mul: f64,
    /// FP add.
    pub fp_alu: f64,
    /// FP multiply.
    pub fp_mul: f64,
    /// Branch (predictor access + resolution).
    pub branch: f64,
    /// Base cost of an access to a 16 KiB, 2-way cache; real cost
    /// scales with `sqrt(size × assoc / 32 KiB)` (CACTI-like growth).
    pub cache_access_base: f64,
    /// Extra energy per cache miss (fill + replacement bookkeeping).
    pub cache_miss: f64,
    /// One DRAM access (activate + transfer).
    pub dram_access: f64,
    /// Per-dispatch window bookkeeping (ROB/IQ/LSQ write), at 64
    /// entries; scales with `sqrt(entries / 64)`.
    pub window_per_instr: f64,
    /// Leakage per cycle per KiB of cache.
    pub leak_per_kb_cycle: f64,
    /// Leakage per cycle per window entry.
    pub leak_per_entry_cycle: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            int_alu: 1.0,
            int_mul: 3.0,
            fp_alu: 2.5,
            fp_mul: 4.0,
            branch: 1.5,
            cache_access_base: 2.0,
            cache_miss: 4.0,
            dram_access: 60.0,
            window_per_instr: 1.2,
            leak_per_kb_cycle: 0.002,
            leak_per_entry_cycle: 0.004,
        }
    }
}

impl EnergyParams {
    /// Dynamic energy of one access to a cache of the given geometry.
    pub fn cache_access(&self, size_kb: u32, assoc: u32) -> f64 {
        self.cache_access_base * ((size_kb * assoc) as f64 / 32.0).sqrt()
    }
}

/// An energy estimate broken down by component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Functional units and the instruction window.
    pub core: f64,
    /// L1I + L1D + L2 dynamic energy.
    pub caches: f64,
    /// DRAM dynamic energy.
    pub dram: f64,
    /// Leakage over the run.
    pub leakage: f64,
    /// Committed instructions (for per-instruction metrics).
    pub instructions: u64,
    /// Elapsed cycles (for delay metrics).
    pub cycles: u64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.core + self.caches + self.dram + self.leakage
    }

    /// Energy per committed instruction.
    ///
    /// # Panics
    ///
    /// Panics if no instructions were committed.
    pub fn epi(&self) -> f64 {
        assert!(self.instructions > 0, "no instructions committed");
        self.total() / self.instructions as f64
    }

    /// Energy–delay product per instruction: `EPI × CPI` (lower is
    /// better; balances performance against power).
    ///
    /// # Panics
    ///
    /// Panics if no instructions were committed.
    pub fn edp(&self) -> f64 {
        self.epi() * self.cycles as f64 / self.instructions as f64
    }
}

/// Estimates the energy of a finished run.
///
/// # Examples
///
/// ```
/// use ppm_sim::{estimate_energy, BatchProcessor, EnergyParams, Instr, Op, SimConfig};
///
/// let config = SimConfig::default();
/// let trace = (0..20_000).map(|i| Instr::alu(Op::IntAlu, 0x1000 + (i % 256) * 4, 0, 0));
/// let stats = BatchProcessor::new(vec![config.clone()]).unwrap().run(trace).remove(0);
/// let energy = estimate_energy(&stats, &config, &EnergyParams::default());
/// assert!(energy.total() > 0.0);
/// assert!(energy.epi() > 0.0);
/// ```
pub fn estimate_energy(
    stats: &SimStats,
    config: &SimConfig,
    params: &EnergyParams,
) -> EnergyBreakdown {
    let f = &config.fixed;
    // Functional-unit work by committed class; window bookkeeping per
    // committed instruction (wrong-path work is not simulated, so
    // committed counts are exact activity counts).
    let window_entries = (config.rob_size + config.iq_size() + config.lsq_size()) as f64;
    let core = stats.int_ops as f64 * params.int_alu
        + stats.mul_ops as f64 * params.int_mul
        + stats.fp_ops as f64 * params.fp_alu
        + stats.fp_mul_ops as f64 * params.fp_mul
        + stats.branches as f64 * params.branch
        + stats.instructions as f64 * params.window_per_instr * (window_entries / 192.0).sqrt();

    let caches = stats.il1.accesses as f64 * params.cache_access(config.il1_size_kb, f.il1_assoc)
        + stats.dl1.accesses as f64 * params.cache_access(config.dl1_size_kb, f.dl1_assoc)
        + stats.l2.accesses as f64 * params.cache_access(config.l2_size_kb, f.l2_assoc)
        + (stats.il1.misses + stats.dl1.misses + stats.l2.misses) as f64 * params.cache_miss;

    let dram = stats.dram_accesses as f64 * params.dram_access;

    let total_cache_kb = (config.il1_size_kb + config.dl1_size_kb + config.l2_size_kb) as f64;
    let leakage = stats.cycles as f64
        * (total_cache_kb * params.leak_per_kb_cycle
            + window_entries * params.leak_per_entry_cycle);

    EnergyBreakdown {
        core,
        caches,
        dram,
        leakage,
        instructions: stats.instructions,
        cycles: stats.cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchProcessor, Instr, Op, TraceSource};

    fn loop_pc(i: u64) -> u64 {
        0x1000 + (i % 256) * 4
    }

    fn simulate(config: &SimConfig, trace: impl TraceSource) -> SimStats {
        BatchProcessor::new(vec![config.clone()])
            .unwrap()
            .run(trace)
            .remove(0)
    }

    fn run(config: SimConfig) -> (SimStats, SimConfig) {
        let trace = (0..30_000u64).map(|i| {
            if i % 4 == 0 {
                Instr::load(loop_pc(i), 0x8000 + (i % 512) * 8, 1, 0)
            } else {
                Instr::alu(Op::IntAlu, loop_pc(i), 1, 0)
            }
        });
        (simulate(&config, trace), config)
    }

    #[test]
    fn breakdown_components_are_positive_and_sum() {
        let (stats, config) = run(SimConfig::default());
        let e = estimate_energy(&stats, &config, &EnergyParams::default());
        assert!(e.core > 0.0 && e.caches > 0.0 && e.leakage > 0.0);
        assert!((e.total() - (e.core + e.caches + e.dram + e.leakage)).abs() < 1e-9);
    }

    #[test]
    fn bigger_caches_cost_more_energy_on_a_cache_friendly_trace() {
        let small = run(SimConfig {
            l2_size_kb: 256,
            ..SimConfig::default()
        });
        let big = run(SimConfig {
            l2_size_kb: 8192,
            ..SimConfig::default()
        });
        let params = EnergyParams::default();
        let e_small = estimate_energy(&small.0, &small.1, &params);
        let e_big = estimate_energy(&big.0, &big.1, &params);
        // The trace fits in L1, so the big L2 buys nothing and leaks more.
        assert!(
            e_big.epi() > e_small.epi(),
            "8MB L2 epi {} should exceed 256KB epi {}",
            e_big.epi(),
            e_small.epi()
        );
    }

    #[test]
    fn cache_access_energy_scales_with_geometry() {
        let p = EnergyParams::default();
        assert!(p.cache_access(64, 2) > p.cache_access(8, 2));
        assert!(p.cache_access(32, 8) > p.cache_access(32, 2));
        // Reference point: 16 KiB, 2-way == base.
        assert!((p.cache_access(16, 2) - p.cache_access_base).abs() < 1e-12);
    }

    #[test]
    fn edp_combines_energy_and_delay() {
        let (stats, config) = run(SimConfig::default());
        let e = estimate_energy(&stats, &config, &EnergyParams::default());
        let cpi = stats.cpi();
        assert!((e.edp() - e.epi() * cpi).abs() < 1e-9);
    }

    #[test]
    fn fp_work_is_accounted() {
        let trace = (0..10_000u64).map(|i| Instr::alu(Op::FpMul, loop_pc(i), 0, 0));
        let config = SimConfig::default();
        let stats = simulate(&config, trace);
        assert_eq!(stats.fp_mul_ops, 10_000);
        let e = estimate_energy(&stats, &config, &EnergyParams::default());
        let trace2 = (0..10_000u64).map(|i| Instr::alu(Op::IntAlu, loop_pc(i), 0, 0));
        let stats2 = simulate(&config, trace2);
        let e2 = estimate_energy(&stats2, &config, &EnergyParams::default());
        assert!(
            e.core > e2.core,
            "FP multiplies should cost more than ALU ops"
        );
    }

    #[test]
    #[should_panic(expected = "no instructions")]
    fn epi_without_instructions_panics() {
        let e = EnergyBreakdown {
            core: 1.0,
            caches: 1.0,
            dram: 0.0,
            leakage: 0.0,
            instructions: 0,
            cycles: 10,
        };
        e.epi();
    }
}
