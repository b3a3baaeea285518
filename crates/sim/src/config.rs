//! Processor configuration: the nine design parameters plus the fixed
//! machine description.

use std::error::Error;
use std::fmt;

use crate::{PredictorKind, ReplacementPolicy};

/// Errors raised when validating a [`SimConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A parameter is outside its physically meaningful range.
    OutOfRange {
        /// Parameter name.
        param: &'static str,
        /// Human-readable constraint.
        constraint: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::OutOfRange { param, constraint } => {
                write!(f, "parameter {param} violates: {constraint}")
            }
        }
    }
}

impl Error for ConfigError {}

/// The parts of the machine held fixed across the paper's design space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedMachine {
    /// Fetch/decode/rename/issue/commit width.
    pub width: u32,
    /// Pipeline stages counted as "back end" (execute→commit); the
    /// front-end depth is `pipe_depth - backend_stages`.
    pub backend_stages: u32,
    /// Cache line size in bytes (all levels).
    pub line_size: u32,
    /// L1 instruction cache: associativity and hit latency.
    pub il1_assoc: u32,
    /// L1 instruction cache hit latency in cycles.
    pub il1_lat: u32,
    /// L1 data cache associativity.
    pub dl1_assoc: u32,
    /// L2 associativity.
    pub l2_assoc: u32,
    /// DRAM device access latency in cycles.
    pub mem_lat: u32,
    /// Number of DRAM banks.
    pub mem_banks: u32,
    /// Cycles a bank stays busy per access (precharge + activate).
    pub bank_busy: u32,
    /// Memory bus occupancy per cache-line transfer, in cycles.
    pub bus_per_line: u32,
    /// Miss status holding registers: maximum outstanding L2→memory misses.
    pub mshrs: u32,
    /// Next-line instruction prefetch: an L1I miss also brings in the
    /// following line (idealized arrival timing).
    pub next_line_prefetch: bool,
    /// Replacement policy used by all caches.
    pub replacement: ReplacementPolicy,
    /// Direction-prediction scheme.
    pub predictor: PredictorKind,
    /// gshare pattern history table entries (power of two).
    pub gshare_entries: u32,
    /// gshare global history bits.
    pub gshare_history: u32,
    /// Branch target buffer entries (power of two).
    pub btb_entries: u32,
    /// Integer ALUs.
    pub int_alus: u32,
    /// Integer multiplier units.
    pub int_muls: u32,
    /// FP adders.
    pub fp_alus: u32,
    /// FP multipliers.
    pub fp_muls: u32,
    /// Cache ports for loads/stores issued per cycle.
    pub mem_ports: u32,
    /// Integer multiply latency.
    pub int_mul_lat: u32,
    /// FP add latency.
    pub fp_alu_lat: u32,
    /// FP multiply latency.
    pub fp_mul_lat: u32,
}

impl Default for FixedMachine {
    fn default() -> Self {
        FixedMachine {
            width: 4,
            backend_stages: 4,
            line_size: 64,
            il1_assoc: 2,
            il1_lat: 1,
            dl1_assoc: 2,
            l2_assoc: 8,
            mem_lat: 120,
            mem_banks: 8,
            bank_busy: 30,
            bus_per_line: 8,
            mshrs: 16,
            next_line_prefetch: false,
            replacement: ReplacementPolicy::Lru,
            predictor: PredictorKind::Bimodal,
            gshare_entries: 4096,
            gshare_history: 0,
            btb_entries: 4096,
            int_alus: 4,
            int_muls: 1,
            fp_alus: 2,
            fp_muls: 1,
            mem_ports: 2,
            int_mul_lat: 3,
            fp_alu_lat: 2,
            fp_mul_lat: 4,
        }
    }
}

/// A complete processor configuration: the paper's nine design
/// parameters (Table 1) plus the fixed machine.
///
/// # Examples
///
/// ```
/// use ppm_sim::SimConfig;
///
/// let config = SimConfig::builder()
///     .pipe_depth(14)
///     .rob_size(64)
///     .iq_frac(0.5)
///     .lsq_frac(0.5)
///     .l2_size_kb(1024)
///     .l2_lat(12)
///     .il1_size_kb(32)
///     .dl1_size_kb(32)
///     .dl1_lat(2)
///     .build()?;
/// assert_eq!(config.iq_size(), 32);
/// # Ok::<(), ppm_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Total pipeline depth in stages (paper range 7–24).
    pub pipe_depth: u32,
    /// Reorder buffer entries (paper range 24–128).
    pub rob_size: u32,
    /// Issue queue size as a fraction of the ROB (paper range 0.25–0.75).
    pub iq_frac: f64,
    /// Load/store queue size as a fraction of the ROB (0.25–0.75).
    pub lsq_frac: f64,
    /// Unified L2 capacity in KiB (paper range 256–8192, log-spaced).
    pub l2_size_kb: u32,
    /// L2 hit latency in cycles (paper range 5–20).
    pub l2_lat: u32,
    /// L1 instruction cache capacity in KiB (8–64, log-spaced).
    pub il1_size_kb: u32,
    /// L1 data cache capacity in KiB (8–64, log-spaced).
    pub dl1_size_kb: u32,
    /// L1 data cache hit latency in cycles (1–4).
    pub dl1_lat: u32,
    /// Everything held constant in the paper's study.
    pub fixed: FixedMachine,
}

impl Default for SimConfig {
    /// A mid-range configuration near the center of the paper's space.
    fn default() -> Self {
        SimConfig {
            pipe_depth: 14,
            rob_size: 76,
            iq_frac: 0.5,
            lsq_frac: 0.5,
            l2_size_kb: 1024,
            l2_lat: 12,
            il1_size_kb: 32,
            dl1_size_kb: 32,
            dl1_lat: 2,
            fixed: FixedMachine::default(),
        }
    }
}

impl SimConfig {
    /// Starts building a configuration from the default machine.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig::default(),
        }
    }

    /// The issue queue size in entries: `round(iq_frac × rob_size)`,
    /// at least 4.
    pub fn iq_size(&self) -> u32 {
        ((self.iq_frac * self.rob_size as f64).round() as u32).max(4)
    }

    /// The load/store queue size in entries: `round(lsq_frac × rob_size)`,
    /// at least 4.
    pub fn lsq_size(&self) -> u32 {
        ((self.lsq_frac * self.rob_size as f64).round() as u32).max(4)
    }

    /// Front-end depth (fetch→rename stages): sets the misprediction
    /// refill penalty. At least 2.
    pub fn front_depth(&self) -> u32 {
        self.pipe_depth
            .saturating_sub(self.fixed.backend_stages)
            .max(2)
    }

    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfRange`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn check(
            ok: bool,
            param: &'static str,
            constraint: &'static str,
        ) -> Result<(), ConfigError> {
            if ok {
                Ok(())
            } else {
                Err(ConfigError::OutOfRange { param, constraint })
            }
        }
        check(
            (5..=40).contains(&self.pipe_depth),
            "pipe_depth",
            "5 <= pipe_depth <= 40",
        )?;
        check(
            (8..=512).contains(&self.rob_size),
            "rob_size",
            "8 <= rob_size <= 512",
        )?;
        check(
            (0.05..=1.0).contains(&self.iq_frac),
            "iq_frac",
            "0.05 <= iq_frac <= 1.0",
        )?;
        check(
            (0.05..=1.0).contains(&self.lsq_frac),
            "lsq_frac",
            "0.05 <= lsq_frac <= 1.0",
        )?;
        check(
            (64..=65536).contains(&self.l2_size_kb) && self.l2_size_kb.is_power_of_two(),
            "l2_size_kb",
            "power of two in [64, 65536]",
        )?;
        check(
            (2..=64).contains(&self.l2_lat),
            "l2_lat",
            "2 <= l2_lat <= 64",
        )?;
        check(
            (4..=512).contains(&self.il1_size_kb) && self.il1_size_kb.is_power_of_two(),
            "il1_size_kb",
            "power of two in [4, 512]",
        )?;
        check(
            (4..=512).contains(&self.dl1_size_kb) && self.dl1_size_kb.is_power_of_two(),
            "dl1_size_kb",
            "power of two in [4, 512]",
        )?;
        check(
            (1..=8).contains(&self.dl1_lat),
            "dl1_lat",
            "1 <= dl1_lat <= 8",
        )?;
        check(self.dl1_lat < self.l2_lat, "dl1_lat", "dl1_lat < l2_lat")?;
        check(
            self.fixed.width >= 1 && self.fixed.width <= 16,
            "width",
            "1 <= width <= 16",
        )?;
        check(
            self.fixed.line_size.is_power_of_two() && self.fixed.line_size >= 16,
            "line_size",
            "power of two >= 16",
        )?;
        check(
            self.fixed.gshare_entries.is_power_of_two(),
            "gshare_entries",
            "power of two",
        )?;
        check(
            self.fixed.btb_entries.is_power_of_two(),
            "btb_entries",
            "power of two",
        )?;
        check(
            self.fixed.mem_banks.is_power_of_two(),
            "mem_banks",
            "power of two",
        )?;
        check(self.fixed.mshrs >= 1, "mshrs", "at least 1")?;
        check(
            self.fixed.gshare_history <= 32,
            "gshare_history",
            "at most 32 bits",
        )?;
        check(
            self.fixed.predictor == PredictorKind::Bimodal || self.fixed.gshare_history >= 1,
            "gshare_history",
            "at least 1 bit for history-based predictors",
        )?;
        let f = &self.fixed;
        for (units, param) in [
            (f.int_alus, "int_alus"),
            (f.int_muls, "int_muls"),
            (f.fp_alus, "fp_alus"),
            (f.fp_muls, "fp_muls"),
            (f.mem_ports, "mem_ports"),
        ] {
            // An op class with no unit never issues, so a run never ends.
            check(units >= 1, param, "at least 1 unit")?;
        }
        for (cycles, param) in [
            (f.il1_lat, "il1_lat"),
            (f.int_mul_lat, "int_mul_lat"),
            (f.fp_alu_lat, "fp_alu_lat"),
            (f.fp_mul_lat, "fp_mul_lat"),
            (f.mem_lat, "mem_lat"),
            (f.bank_busy, "bank_busy"),
            (f.bus_per_line, "bus_per_line"),
        ] {
            // Every result arrives at least one cycle after its issue;
            // the batch engine's completion wheel relies on it.
            check(cycles >= 1, param, "at least 1 cycle")?;
        }
        for (size_kb, assoc, param) in [
            (self.il1_size_kb, f.il1_assoc, "il1_assoc"),
            (self.dl1_size_kb, f.dl1_assoc, "dl1_assoc"),
            (self.l2_size_kb, f.l2_assoc, "l2_assoc"),
        ] {
            check(
                has_power_of_two_sets(u64::from(size_kb) * 1024, f.line_size, assoc),
                param,
                "size / line_size / assoc sets, a power of two >= 1",
            )?;
        }
        Ok(())
    }
}

/// Whether a cache of `size_bytes` with `line_size`-byte lines and
/// `assoc` ways has a whole, nonzero power-of-two number of sets — the
/// shape [`Cache`](crate::Cache) indexes by mask. A 48 KiB 3-way cache
/// (256 sets of 64-byte lines) qualifies; a 32 KiB 3-way one does not.
fn has_power_of_two_sets(size_bytes: u64, line_size: u32, assoc: u32) -> bool {
    let set_bytes = u64::from(line_size) * u64::from(assoc);
    set_bytes != 0
        && size_bytes.is_multiple_of(set_bytes)
        && (size_bytes / set_bytes).is_power_of_two()
}

/// Builder for [`SimConfig`] (terminal method: [`SimConfigBuilder::build`]).
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the total pipeline depth.
    pub fn pipe_depth(mut self, v: u32) -> Self {
        self.config.pipe_depth = v;
        self
    }

    /// Sets the reorder buffer size.
    pub fn rob_size(mut self, v: u32) -> Self {
        self.config.rob_size = v;
        self
    }

    /// Sets the issue queue size as a fraction of the ROB.
    pub fn iq_frac(mut self, v: f64) -> Self {
        self.config.iq_frac = v;
        self
    }

    /// Sets the LSQ size as a fraction of the ROB.
    pub fn lsq_frac(mut self, v: f64) -> Self {
        self.config.lsq_frac = v;
        self
    }

    /// Sets the L2 capacity in KiB.
    pub fn l2_size_kb(mut self, v: u32) -> Self {
        self.config.l2_size_kb = v;
        self
    }

    /// Sets the L2 hit latency.
    pub fn l2_lat(mut self, v: u32) -> Self {
        self.config.l2_lat = v;
        self
    }

    /// Sets the L1 instruction cache capacity in KiB.
    pub fn il1_size_kb(mut self, v: u32) -> Self {
        self.config.il1_size_kb = v;
        self
    }

    /// Sets the L1 data cache capacity in KiB.
    pub fn dl1_size_kb(mut self, v: u32) -> Self {
        self.config.dl1_size_kb = v;
        self
    }

    /// Sets the L1 data cache hit latency.
    pub fn dl1_lat(mut self, v: u32) -> Self {
        self.config.dl1_lat = v;
        self
    }

    /// Replaces the fixed machine description.
    pub fn fixed(mut self, v: FixedMachine) -> Self {
        self.config.fixed = v;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any parameter is out of range.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(SimConfig::default().validate().is_ok());
    }

    #[test]
    fn derived_sizes() {
        let c = SimConfig {
            rob_size: 100,
            iq_frac: 0.31,
            lsq_frac: 0.69,
            ..SimConfig::default()
        };
        assert_eq!(c.iq_size(), 31);
        assert_eq!(c.lsq_size(), 69);
    }

    #[test]
    fn front_depth_tracks_pipe_depth() {
        let mut c = SimConfig {
            pipe_depth: 24,
            ..SimConfig::default()
        };
        assert_eq!(c.front_depth(), 20);
        c.pipe_depth = 7;
        assert_eq!(c.front_depth(), 3);
        c.pipe_depth = 5;
        assert_eq!(c.front_depth(), 2); // clamped
    }

    #[test]
    fn builder_round_trip() {
        let c = SimConfig::builder()
            .pipe_depth(20)
            .rob_size(128)
            .l2_size_kb(8192)
            .build()
            .unwrap();
        assert_eq!(c.pipe_depth, 20);
        assert_eq!(c.rob_size, 128);
        assert_eq!(c.l2_size_kb, 8192);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SimConfig::builder().pipe_depth(2).build().is_err());
        assert!(SimConfig::builder().rob_size(4).build().is_err());
        assert!(SimConfig::builder().l2_size_kb(300).build().is_err()); // not pow2
        assert!(SimConfig::builder().dl1_lat(30).build().is_err());
        let err = SimConfig::builder().iq_frac(0.0).build().unwrap_err();
        assert!(err.to_string().contains("iq_frac"));
    }

    #[test]
    fn dl1_lat_must_be_below_l2_lat() {
        assert!(SimConfig::builder().dl1_lat(6).l2_lat(5).build().is_err());
    }

    #[test]
    fn gshare_history_bounds_are_validated() {
        // Bimodal never consults the history register, so zero bits is
        // fine there — the default machine relies on it.
        let bimodal = FixedMachine {
            predictor: PredictorKind::Bimodal,
            gshare_history: 0,
            ..FixedMachine::default()
        };
        assert!(SimConfig::builder().fixed(bimodal).build().is_ok());
        // History-based predictors need at least one bit: a zero-history
        // gshare silently degenerates to bimodal, which is exactly the
        // misconfiguration validate exists to reject.
        for kind in [PredictorKind::Gshare, PredictorKind::Tournament] {
            let zero = FixedMachine {
                predictor: kind,
                gshare_history: 0,
                ..FixedMachine::default()
            };
            let err = SimConfig::builder().fixed(zero).build().unwrap_err();
            assert!(err.to_string().contains("gshare_history"), "{err}");
            let one = FixedMachine {
                predictor: kind,
                gshare_history: 1,
                ..FixedMachine::default()
            };
            assert!(SimConfig::builder().fixed(one).build().is_ok());
        }
        // The history register is 64-bit but capped at 32 bits of use.
        let oversized = FixedMachine {
            predictor: PredictorKind::Gshare,
            gshare_history: 33,
            ..FixedMachine::default()
        };
        assert!(SimConfig::builder().fixed(oversized).build().is_err());
    }

    /// `validate` names `param`, and the batch engine refuses the machine
    /// up front instead of panicking or spinning on it.
    fn assert_rejected(fixed: FixedMachine, param: &str) {
        let config = SimConfig {
            fixed,
            ..SimConfig::default()
        };
        match config.validate() {
            Err(ConfigError::OutOfRange { param: named, .. }) => assert_eq!(named, param),
            Ok(()) => panic!("{param}: accepted"),
        }
        assert!(
            matches!(
                crate::BatchProcessor::new(vec![config]),
                Err(crate::BatchError::InvalidConfig { index: 0, .. })
            ),
            "{param}"
        );
    }

    type Edit = fn(&mut FixedMachine);

    #[test]
    fn zero_functional_unit_counts_are_rejected() {
        let cases: [(&str, Edit); 5] = [
            ("int_alus", |f| f.int_alus = 0),
            ("int_muls", |f| f.int_muls = 0),
            ("fp_alus", |f| f.fp_alus = 0),
            ("fp_muls", |f| f.fp_muls = 0),
            ("mem_ports", |f| f.mem_ports = 0),
        ];
        for (param, edit) in cases {
            let mut fixed = FixedMachine::default();
            edit(&mut fixed);
            assert_rejected(fixed, param);
        }
    }

    #[test]
    fn zero_latencies_are_rejected() {
        let cases: [(&str, Edit); 7] = [
            ("il1_lat", |f| f.il1_lat = 0),
            ("int_mul_lat", |f| f.int_mul_lat = 0),
            ("fp_alu_lat", |f| f.fp_alu_lat = 0),
            ("fp_mul_lat", |f| f.fp_mul_lat = 0),
            ("mem_lat", |f| f.mem_lat = 0),
            ("bank_busy", |f| f.bank_busy = 0),
            ("bus_per_line", |f| f.bus_per_line = 0),
        ];
        for (param, edit) in cases {
            let mut fixed = FixedMachine::default();
            edit(&mut fixed);
            assert_rejected(fixed, param);
        }
    }

    #[test]
    fn cache_shapes_need_a_power_of_two_set_count() {
        // Default caches: 32 KiB L1s and a 1 MiB L2 with 64-byte lines.
        let cases: [(&str, Edit); 5] = [
            ("il1_assoc", |f| f.il1_assoc = 0),
            ("dl1_assoc", |f| f.dl1_assoc = 3),    // 170.7 sets
            ("dl1_assoc", |f| f.dl1_assoc = 1024), // half a set
            ("l2_assoc", |f| f.l2_assoc = 3),
            ("il1_assoc", |f| f.line_size = 1 << 15), // one line, 2 ways
        ];
        for (param, edit) in cases {
            let mut fixed = FixedMachine::default();
            edit(&mut fixed);
            assert_rejected(fixed, param);
        }
        // The set count decides, not the associativity.
        assert!(has_power_of_two_sets(48 * 1024, 64, 3));
        assert!(!has_power_of_two_sets(32 * 1024, 64, 3));
        let fully_associative = FixedMachine {
            dl1_assoc: 512,
            ..FixedMachine::default()
        };
        let config = SimConfig::builder()
            .fixed(fully_associative)
            .build()
            .unwrap();
        let trace = (0..2_000).map(|i| crate::Instr::load(0x1000 + (i % 64) * 4, i * 72, 1, 0));
        let stats = crate::BatchProcessor::new(vec![config]).unwrap().run(trace);
        assert_eq!(stats[0].instructions, 2_000);
    }

    #[test]
    fn paper_extremes_are_valid() {
        // The corners of the paper's Table 1 space.
        for (depth, rob, frac) in [(24u32, 24u32, 0.25f64), (7, 128, 0.75)] {
            let c = SimConfig::builder()
                .pipe_depth(depth)
                .rob_size(rob)
                .iq_frac(frac)
                .lsq_frac(frac)
                .l2_size_kb(256)
                .l2_lat(20)
                .il1_size_kb(8)
                .dl1_size_kb(8)
                .dl1_lat(4)
                .build();
            assert!(c.is_ok(), "corner ({depth},{rob},{frac}) rejected");
        }
    }
}
