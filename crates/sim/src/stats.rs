//! Summary statistics of a simulation run.

use std::error::Error;
use std::fmt;

use crate::CacheStats;

/// Why a run's CPI is unusable as a modeling response.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CpiError {
    /// No instructions were committed, so CPI is undefined.
    NoInstructions,
    /// The computed CPI is NaN or infinite.
    NonFinite(f64),
    /// The computed CPI is zero or negative — impossible for a real
    /// run, so it signals a corrupted statistics block.
    NonPositive(f64),
}

impl fmt::Display for CpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpiError::NoInstructions => write!(f, "no instructions committed"),
            CpiError::NonFinite(v) => write!(f, "non-finite CPI {v}"),
            CpiError::NonPositive(v) => write!(f, "non-positive CPI {v}"),
        }
    }
}

impl Error for CpiError {}

/// Validates a CPI value at the source: finite and strictly positive.
///
/// # Errors
///
/// [`CpiError::NonFinite`] for NaN/±∞, [`CpiError::NonPositive`] for
/// values ≤ 0.
pub fn validate_cpi(cpi: f64) -> Result<f64, CpiError> {
    if !cpi.is_finite() {
        return Err(CpiError::NonFinite(cpi));
    }
    if cpi <= 0.0 {
        return Err(CpiError::NonPositive(cpi));
    }
    Ok(cpi)
}

/// Statistics collected over a simulation run.
///
/// The headline metric is [`SimStats::cpi`]; the component statistics
/// (cache miss rates, branch misprediction rate, structure occupancy)
/// are the summary statistics the paper validates against `alphasim`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Committed instructions.
    pub instructions: u64,
    /// Elapsed cycles.
    pub cycles: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed branches.
    pub branches: u64,
    /// Committed single-cycle integer ALU operations.
    pub int_ops: u64,
    /// Committed integer multiplies.
    pub mul_ops: u64,
    /// Committed FP adds.
    pub fp_ops: u64,
    /// Committed FP multiplies.
    pub fp_mul_ops: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// L1 instruction cache statistics.
    pub il1: CacheStats,
    /// L1 data cache statistics.
    pub dl1: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
    /// Accesses that reached DRAM.
    pub dram_accesses: u64,
    /// Cycles lost waiting for a free MSHR.
    pub mshr_wait_cycles: u64,
    /// Loads satisfied by store-to-load forwarding.
    pub forwarded_loads: u64,
    /// Cycles dispatch stalled because the ROB was full.
    pub rob_full_cycles: u64,
    /// Cycles dispatch stalled because the issue queue was full.
    pub iq_full_cycles: u64,
    /// Cycles dispatch stalled because the LSQ was full.
    pub lsq_full_cycles: u64,
    /// Sum of ROB occupancy sampled each cycle (for average occupancy).
    pub rob_occupancy_sum: u64,
}

impl SimStats {
    /// Cycles per committed instruction.
    ///
    /// # Panics
    ///
    /// Panics if no instructions were committed.
    pub fn cpi(&self) -> f64 {
        assert!(self.instructions > 0, "no instructions committed");
        self.cycles as f64 / self.instructions as f64
    }

    /// Cycles per committed instruction, validated: errors instead of
    /// panicking on an empty run, and rejects non-finite or
    /// non-positive values instead of silently returning them.
    ///
    /// # Errors
    ///
    /// See [`CpiError`].
    pub fn checked_cpi(&self) -> Result<f64, CpiError> {
        if self.instructions == 0 {
            return Err(CpiError::NoInstructions);
        }
        validate_cpi(self.cycles as f64 / self.instructions as f64)
    }

    /// Instructions per cycle.
    ///
    /// # Panics
    ///
    /// Panics if no cycles elapsed.
    pub fn ipc(&self) -> f64 {
        assert!(self.cycles > 0, "no cycles simulated");
        self.instructions as f64 / self.cycles as f64
    }

    /// Branch misprediction ratio.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpi_and_ipc_are_reciprocal() {
        let s = SimStats {
            instructions: 100,
            cycles: 250,
            ..SimStats::default()
        };
        assert!((s.cpi() - 2.5).abs() < 1e-12);
        assert!((s.ipc() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn rates_handle_zero_denominators() {
        let s = SimStats::default();
        assert_eq!(s.mispredict_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "no instructions")]
    fn cpi_without_instructions_panics() {
        SimStats::default().cpi();
    }

    #[test]
    fn checked_cpi_accepts_a_normal_run() {
        let s = SimStats {
            instructions: 100,
            cycles: 250,
            ..SimStats::default()
        };
        assert_eq!(s.checked_cpi(), Ok(2.5));
    }

    #[test]
    fn checked_cpi_rejects_empty_run() {
        assert_eq!(
            SimStats::default().checked_cpi(),
            Err(CpiError::NoInstructions)
        );
    }

    #[test]
    fn checked_cpi_rejects_zero_cycles() {
        // Instructions without cycles would yield CPI 0 — corrupted.
        let s = SimStats {
            instructions: 100,
            cycles: 0,
            ..SimStats::default()
        };
        assert_eq!(s.checked_cpi(), Err(CpiError::NonPositive(0.0)));
    }

    #[test]
    fn validate_cpi_rejects_nan() {
        assert!(matches!(
            validate_cpi(f64::NAN),
            Err(CpiError::NonFinite(_))
        ));
    }

    #[test]
    fn validate_cpi_rejects_infinity() {
        assert!(matches!(
            validate_cpi(f64::INFINITY),
            Err(CpiError::NonFinite(_))
        ));
    }

    #[test]
    fn validate_cpi_rejects_negative() {
        assert_eq!(validate_cpi(-1.0), Err(CpiError::NonPositive(-1.0)));
    }

    #[test]
    fn validate_cpi_accepts_positive_finite() {
        assert_eq!(validate_cpi(0.75), Ok(0.75));
    }
}
