//! Processor configuration: the nine design parameters, described once
//! in the [`KNOBS`] table, plus the fixed machine description.

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

/// How a sampled Table 1 value becomes one the simulator can build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Snap {
    /// Kept as sampled: the queue fractions.
    None,
    /// Rounded to the nearest integer: depths, entries, latencies.
    Round,
    /// Rounded to the nearest power of two in log space: cache sizes.
    PowerOfTwo,
}

impl Snap {
    /// The realizable value nearest to `v` under this rule.
    pub fn apply(self, v: f64) -> f64 {
        match self {
            Snap::None => v,
            Snap::Round => v.round(),
            Snap::PowerOfTwo => f64::from(1u32 << (v.max(1.0).log2().round() as u32)),
        }
    }
}

/// One Table 1 design parameter: a row of [`KNOBS`].
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The paper's name (its Table 5 terminology), e.g. `ROB_size`.
    pub name: &'static str,
    /// The `ppm --<flag>` and `/predict` query key, e.g. `rob`.
    pub flag: &'static str,
    /// The [`SimConfig`] field, as [`SimConfig::validate`] names it.
    pub field: &'static str,
    /// Table 1's low and high values, in performance order: unit
    /// coordinate 0 is the low-performance end, so the first value may
    /// be the larger (pipeline depth 24 → 7).
    pub range: (f64, f64),
    /// A fixed level count, or `None` for one level per sample point
    /// (Table 1's "S").
    pub levels: Option<usize>,
    /// Whether levels are spaced geometrically (the cache sizes) rather
    /// than linearly.
    pub log: bool,
    /// How a sampled value is made realizable.
    pub snap: Snap,
    /// Table 2's test region, as unit bounds within `range`.
    pub test: (f64, f64),
    /// The smallest and largest value [`SimConfig::validate`] accepts;
    /// a [`Snap::PowerOfTwo`] knob must also be a power of two.
    pub valid: (f64, f64),
    /// The constraint [`SimConfig::validate`] reports for a value
    /// outside `valid`.
    pub constraint: &'static str,
    /// Reads the field.
    pub get: fn(&SimConfig) -> f64,
    /// Writes the field (truncated to an integer unless the knob is a
    /// [`Snap::None`] fraction).
    pub set: fn(&mut SimConfig, f64),
}

/// The paper's nine design parameters, one row each, in Table 1 (and
/// [`SimConfig`] field) order. Every list of the knobs in the workspace
/// reads this table: the design spaces of Tables 1 and 2, their
/// conversion to and from a [`SimConfig`], the `ppm` flags and
/// `/predict` query keys ([`SimConfig::from_knobs`]), and
/// [`SimConfig::validate`]'s range checks.
pub const KNOBS: [Knob; 9] = [
    Knob {
        name: "pipe_depth",
        flag: "depth",
        field: "pipe_depth",
        range: (24.0, 7.0),
        levels: Some(18),
        log: false,
        snap: Snap::Round,
        test: ((24.0 - 22.0) / 17.0, (24.0 - 9.0) / 17.0), // 22..9
        valid: (5.0, 40.0),
        constraint: "5 <= pipe_depth <= 40",
        get: |c| f64::from(c.pipe_depth),
        set: |c, v| c.pipe_depth = v as u32,
    },
    Knob {
        name: "ROB_size",
        flag: "rob",
        field: "rob_size",
        range: (24.0, 128.0),
        levels: None,
        log: false,
        snap: Snap::Round,
        test: ((37.0 - 24.0) / 104.0, (115.0 - 24.0) / 104.0), // 37..115
        valid: (8.0, 512.0),
        constraint: "8 <= rob_size <= 512",
        get: |c| f64::from(c.rob_size),
        set: |c, v| c.rob_size = v as u32,
    },
    Knob {
        name: "IQ_size",
        flag: "iq",
        field: "iq_frac",
        range: (0.25, 0.75),
        levels: None,
        log: false,
        snap: Snap::None,
        test: (0.12, 0.88), // 0.31..0.69
        valid: (0.05, 1.0),
        constraint: "0.05 <= iq_frac <= 1.0",
        get: |c| c.iq_frac,
        set: |c, v| c.iq_frac = v,
    },
    Knob {
        name: "LSQ_size",
        flag: "lsq",
        field: "lsq_frac",
        range: (0.25, 0.75),
        levels: None,
        log: false,
        snap: Snap::None,
        test: (0.12, 0.88), // 0.31..0.69
        valid: (0.05, 1.0),
        constraint: "0.05 <= lsq_frac <= 1.0",
        get: |c| c.lsq_frac,
        set: |c, v| c.lsq_frac = v,
    },
    Knob {
        name: "L2_size",
        flag: "l2-kb",
        field: "l2_size_kb",
        range: (256.0, 8192.0),
        levels: Some(6),
        log: true,
        snap: Snap::PowerOfTwo,
        test: (0.0, 1.0),
        valid: (64.0, 65536.0),
        constraint: "power of two in [64, 65536]",
        get: |c| f64::from(c.l2_size_kb),
        set: |c, v| c.l2_size_kb = v as u32,
    },
    Knob {
        name: "L2_lat",
        flag: "l2-lat",
        field: "l2_lat",
        range: (20.0, 5.0),
        levels: Some(16),
        log: false,
        snap: Snap::Round,
        test: ((20.0 - 18.0) / 15.0, (20.0 - 7.0) / 15.0), // 18..7
        valid: (2.0, 64.0),
        constraint: "2 <= l2_lat <= 64",
        get: |c| f64::from(c.l2_lat),
        set: |c, v| c.l2_lat = v as u32,
    },
    Knob {
        name: "il1_size",
        flag: "il1-kb",
        field: "il1_size_kb",
        range: (8.0, 64.0),
        levels: Some(4),
        log: true,
        snap: Snap::PowerOfTwo,
        test: (0.0, 1.0),
        valid: (4.0, 512.0),
        constraint: "power of two in [4, 512]",
        get: |c| f64::from(c.il1_size_kb),
        set: |c, v| c.il1_size_kb = v as u32,
    },
    Knob {
        name: "dl1_size",
        flag: "dl1-kb",
        field: "dl1_size_kb",
        range: (8.0, 64.0),
        levels: Some(4),
        log: true,
        snap: Snap::PowerOfTwo,
        test: (0.0, 1.0),
        valid: (4.0, 512.0),
        constraint: "power of two in [4, 512]",
        get: |c| f64::from(c.dl1_size_kb),
        set: |c, v| c.dl1_size_kb = v as u32,
    },
    Knob {
        name: "dl1_lat",
        flag: "dl1-lat",
        field: "dl1_lat",
        range: (4.0, 1.0),
        levels: Some(4),
        log: false,
        snap: Snap::Round,
        test: (0.0, 1.0),
        valid: (1.0, 8.0),
        constraint: "1 <= dl1_lat <= 8",
        get: |c| f64::from(c.dl1_lat),
        set: |c, v| c.dl1_lat = v as u32,
    },
];

impl Knob {
    /// The row of [`KNOBS`] whose flag is `flag`.
    pub fn by_flag(flag: &str) -> Option<&'static Knob> {
        KNOBS.iter().find(|k| k.flag == flag)
    }
}

/// Errors raised by [`SimConfig::from_knobs`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KnobError {
    /// A flag outside [`KNOBS`] or a value that does not parse.
    Parse(String),
    /// The knobs parsed but the configuration is invalid.
    Config(ConfigError),
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnobError::Parse(m) => f.write_str(m),
            KnobError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl Error for KnobError {}

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
/// parameters (Table 1) plus the fixed machine. Each knob's Table 1
/// range, levels, snapping and valid range are its row of [`KNOBS`].
///
/// # Examples
///
/// ```
/// use ppm_sim::SimConfig;
///
/// let config = SimConfig {
///     rob_size: 64,
///     iq_frac: 0.5,
///     ..SimConfig::default()
/// };
/// config.validate()?;
/// assert_eq!(config.iq_size(), 32);
/// // The same machine by `ppm` flag names, as `/predict` takes them.
/// assert_eq!(SimConfig::from_knobs([("rob", "64")]), Ok(config));
/// # Ok::<(), ppm_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Total pipeline depth in stages.
    pub pipe_depth: u32,
    /// Reorder buffer entries.
    pub rob_size: u32,
    /// Issue queue size as a fraction of the ROB.
    pub iq_frac: f64,
    /// Load/store queue size as a fraction of the ROB.
    pub lsq_frac: f64,
    /// Unified L2 capacity in KiB.
    pub l2_size_kb: u32,
    /// L2 hit latency in cycles.
    pub l2_lat: u32,
    /// L1 instruction cache capacity in KiB.
    pub il1_size_kb: u32,
    /// L1 data cache capacity in KiB.
    pub dl1_size_kb: u32,
    /// L1 data cache hit latency in cycles.
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
    /// Builds a configuration from `(flag, value)` text pairs, keeping
    /// the default for every knob not named; a later pair for the same
    /// knob wins. A [`Snap::None`] knob takes a number, every other
    /// knob an integer.
    ///
    /// # Errors
    ///
    /// [`KnobError`] for a flag outside [`KNOBS`], a value that does not
    /// parse, or an invalid resulting configuration.
    pub fn from_knobs<'a>(
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<SimConfig, KnobError> {
        let mut config = SimConfig::default();
        for (flag, value) in pairs {
            let knob = Knob::by_flag(flag)
                .ok_or_else(|| KnobError::Parse(format!("unknown parameter {flag:?}")))?;
            let bad =
                |expected| KnobError::Parse(format!("{flag} wants {expected}, got {value:?}"));
            let v = match knob.snap {
                Snap::None => value.parse::<f64>().map_err(|_| bad("a number"))?,
                _ => f64::from(value.parse::<u32>().map_err(|_| bad("an integer"))?),
            };
            (knob.set)(&mut config, v);
        }
        config.validate().map_err(KnobError::Config)?;
        Ok(config)
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
        for knob in &KNOBS {
            let v = (knob.get)(self);
            let ok = (knob.valid.0..=knob.valid.1).contains(&v)
                && (knob.snap != Snap::PowerOfTwo || (v as u32).is_power_of_two());
            check(ok, knob.field, knob.constraint)?;
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(SimConfig::default().validate().is_ok());
    }

    #[test]
    fn every_knob_sets_its_field() {
        let values = ["20", "100", "0.25", "0.75", "4096", "7", "8", "64", "3"];
        let flags = KNOBS.iter().map(|knob| knob.flag);
        let config = SimConfig::from_knobs(flags.zip(values)).unwrap();
        let expected = SimConfig {
            pipe_depth: 20,
            rob_size: 100,
            iq_frac: 0.25,
            lsq_frac: 0.75,
            l2_size_kb: 4096,
            l2_lat: 7,
            il1_size_kb: 8,
            dl1_size_kb: 64,
            dl1_lat: 3,
            fixed: FixedMachine::default(),
        };
        assert_eq!(config, expected);
        let default = SimConfig::default();
        assert_eq!(SimConfig::from_knobs([]), Ok(default.clone()));
        // Each row's flag sets its own field and no other: Table 1's
        // high-performance end differs from every default.
        for knob in &KNOBS {
            let value = knob.range.1;
            let config = SimConfig::from_knobs([(knob.flag, value.to_string().as_str())]).unwrap();
            assert_eq!((knob.get)(&config), value, "--{}", knob.flag);
            let mut back = config.clone();
            (knob.set)(&mut back, (knob.get)(&default));
            assert_eq!(
                back, default,
                "--{} sets more than {}",
                knob.flag, knob.field
            );
        }
        // A later pair for the same knob wins.
        let config = SimConfig::from_knobs([("rob", "32"), ("rob", "64")]).unwrap();
        assert_eq!(config.rob_size, 64);
    }

    #[test]
    fn knob_errors_name_the_problem() {
        let err = SimConfig::from_knobs([("robb", "32")]).unwrap_err();
        assert_eq!(err.to_string(), "unknown parameter \"robb\"");
        let err = SimConfig::from_knobs([("rob", "lots")]).unwrap_err();
        assert_eq!(err.to_string(), "rob wants an integer, got \"lots\"");
        let err = SimConfig::from_knobs([("iq", "half")]).unwrap_err();
        assert_eq!(err.to_string(), "iq wants a number, got \"half\"");
        let err = SimConfig::from_knobs([("depth", "3")]).unwrap_err();
        assert!(matches!(err, KnobError::Config(_)), "{err:?}");
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
    fn invalid_configs_are_rejected() {
        let with = |edit: fn(&mut SimConfig)| {
            let mut c = SimConfig::default();
            edit(&mut c);
            c.validate()
        };
        assert!(with(|c| c.pipe_depth = 2).is_err());
        assert!(with(|c| c.rob_size = 4).is_err());
        assert!(with(|c| c.l2_size_kb = 300).is_err()); // not pow2
        assert!(with(|c| c.dl1_lat = 30).is_err());
        let err = with(|c| c.iq_frac = 0.0).unwrap_err();
        assert!(err.to_string().contains("iq_frac"));
        // Past either end of its valid range, each knob is reported by
        // its field name with its row's constraint.
        for knob in &KNOBS {
            for v in [knob.valid.0 / 2.0, knob.valid.1 * 2.0] {
                let mut c = SimConfig::default();
                (knob.set)(&mut c, v);
                let err = c.validate().unwrap_err();
                assert_eq!(
                    err,
                    ConfigError::OutOfRange {
                        param: knob.field,
                        constraint: knob.constraint
                    },
                    "{} = {v}",
                    knob.field
                );
            }
        }
    }

    #[test]
    fn dl1_lat_must_be_below_l2_lat() {
        let c = SimConfig {
            dl1_lat: 6,
            l2_lat: 5,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn gshare_history_bounds_are_validated() {
        let with_fixed = |fixed| SimConfig {
            fixed,
            ..SimConfig::default()
        };
        // Bimodal never consults the history register, so zero bits is
        // fine there — the default machine relies on it.
        let bimodal = FixedMachine {
            predictor: PredictorKind::Bimodal,
            gshare_history: 0,
            ..FixedMachine::default()
        };
        assert!(with_fixed(bimodal).validate().is_ok());
        // History-based predictors need at least one bit: a zero-history
        // gshare silently degenerates to bimodal, which is exactly the
        // misconfiguration validate exists to reject.
        for kind in [PredictorKind::Gshare, PredictorKind::Tournament] {
            let zero = FixedMachine {
                predictor: kind,
                gshare_history: 0,
                ..FixedMachine::default()
            };
            let err = with_fixed(zero).validate().unwrap_err();
            assert!(err.to_string().contains("gshare_history"), "{err}");
            let one = FixedMachine {
                predictor: kind,
                gshare_history: 1,
                ..FixedMachine::default()
            };
            assert!(with_fixed(one).validate().is_ok());
        }
        // The history register is 64-bit but capped at 32 bits of use.
        let oversized = FixedMachine {
            predictor: PredictorKind::Gshare,
            gshare_history: 33,
            ..FixedMachine::default()
        };
        assert!(with_fixed(oversized).validate().is_err());
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
        let config = SimConfig {
            fixed: fully_associative,
            ..SimConfig::default()
        };
        config.validate().unwrap();
        let trace = (0..2_000).map(|i| crate::Instr::load(0x1000 + (i % 64) * 4, i * 72, 1, 0));
        let stats = crate::BatchProcessor::new(vec![config]).unwrap().run(trace);
        assert_eq!(stats[0].instructions, 2_000);
    }

    #[test]
    fn paper_extremes_are_valid() {
        // The corners of the paper's Table 1 space.
        for (depth, rob, frac) in [(24u32, 24u32, 0.25f64), (7, 128, 0.75)] {
            let c = SimConfig {
                pipe_depth: depth,
                rob_size: rob,
                iq_frac: frac,
                lsq_frac: frac,
                l2_size_kb: 256,
                l2_lat: 20,
                il1_size_kb: 8,
                dl1_size_kb: 8,
                dl1_lat: 4,
                ..SimConfig::default()
            }
            .validate();
            assert!(c.is_ok(), "corner ({depth},{rob},{frac}) rejected");
        }
    }
}
