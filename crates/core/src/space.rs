//! The microarchitectural design space of the paper's Tables 1 and 2.

use ppm_sampling::space::{Levels, ParamDef, ParamSpace, Transform};
use ppm_sim::SimConfig;

/// Index of each parameter in a design point, in the paper's Table 1
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Param {
    /// Total pipeline depth (stages).
    PipeDepth = 0,
    /// Reorder buffer entries.
    RobSize = 1,
    /// Issue queue size as a fraction of the ROB.
    IqFrac = 2,
    /// Load/store queue size as a fraction of the ROB.
    LsqFrac = 3,
    /// L2 capacity in KiB.
    L2SizeKb = 4,
    /// L2 hit latency in cycles.
    L2Lat = 5,
    /// L1 instruction cache capacity in KiB.
    Il1SizeKb = 6,
    /// L1 data cache capacity in KiB.
    Dl1SizeKb = 7,
    /// L1 data cache hit latency in cycles.
    Dl1Lat = 8,
}

/// Short names of the nine parameters, in Table 1 order (matching the
/// paper's Table 5 terminology).
pub const PARAM_NAMES: [&str; 9] = [
    "pipe_depth",
    "ROB_size",
    "IQ_size",
    "LSQ_size",
    "L2_size",
    "L2_lat",
    "il1_size",
    "dl1_size",
    "dl1_lat",
];

/// The 9-dimensional processor design space.
///
/// Wraps a [`ParamSpace`] and adds the conversion from unit design
/// points to concrete [`SimConfig`]s (with snapping of cache sizes to
/// powers of two and rounding of integer parameters).
///
/// # Examples
///
/// ```
/// use ppm_core::space::DesignSpace;
///
/// let space = DesignSpace::paper_table1();
/// assert_eq!(space.dim(), 9);
/// // Unit 0 is the "low-performance" corner of Table 1.
/// let config = space.to_config(&[0.0; 9]);
/// assert_eq!(config.pipe_depth, 24);
/// assert_eq!(config.rob_size, 24);
/// assert_eq!(config.l2_size_kb, 256);
/// assert_eq!(config.l2_lat, 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    params: ParamSpace,
}

impl DesignSpace {
    /// The training design space of the paper's Table 1.
    ///
    /// Ranges are given in (low performance → high performance) order;
    /// levels and transforms follow the table: cache sizes are
    /// log-spaced with fixed level counts, ROB/IQ/LSQ take
    /// sample-size-dependent levels ("S"), the rest are linear with
    /// fixed counts.
    pub fn paper_table1() -> Self {
        DesignSpace {
            params: ParamSpace::new(vec![
                ParamDef::new(
                    PARAM_NAMES[0],
                    24.0,
                    7.0,
                    Levels::Fixed(18),
                    Transform::Linear,
                ),
                ParamDef::new(
                    PARAM_NAMES[1],
                    24.0,
                    128.0,
                    Levels::SampleSize,
                    Transform::Linear,
                ),
                ParamDef::new(
                    PARAM_NAMES[2],
                    0.25,
                    0.75,
                    Levels::SampleSize,
                    Transform::Linear,
                ),
                ParamDef::new(
                    PARAM_NAMES[3],
                    0.25,
                    0.75,
                    Levels::SampleSize,
                    Transform::Linear,
                ),
                ParamDef::new(
                    PARAM_NAMES[4],
                    256.0,
                    8192.0,
                    Levels::Fixed(6),
                    Transform::Log,
                ),
                ParamDef::new(
                    PARAM_NAMES[5],
                    20.0,
                    5.0,
                    Levels::Fixed(16),
                    Transform::Linear,
                ),
                ParamDef::new(PARAM_NAMES[6], 8.0, 64.0, Levels::Fixed(4), Transform::Log),
                ParamDef::new(PARAM_NAMES[7], 8.0, 64.0, Levels::Fixed(4), Transform::Log),
                ParamDef::new(
                    PARAM_NAMES[8],
                    4.0,
                    1.0,
                    Levels::Fixed(4),
                    Transform::Linear,
                ),
            ]),
        }
    }

    /// The narrower test-point space of the paper's Table 2, expressed
    /// as a restriction of [`DesignSpace::paper_table1`].
    pub fn paper_table2() -> Self {
        let t1 = DesignSpace::paper_table1();
        // Table 2 vs Table 1 endpoints, converted to unit bounds.
        let bounds = [
            ((24.0 - 22.0) / 17.0, (24.0 - 9.0) / 17.0), // pipe 22..9
            ((37.0 - 24.0) / 104.0, (115.0 - 24.0) / 104.0), // rob 37..115
            (0.12, 0.88),                                // iq 0.31..0.69
            (0.12, 0.88),                                // lsq 0.31..0.69
            (0.0, 1.0),                                  // L2 size full
            ((20.0 - 18.0) / 15.0, (20.0 - 7.0) / 15.0), // L2 lat 18..7
            (0.0, 1.0),                                  // il1 full
            (0.0, 1.0),                                  // dl1 full
            (0.0, 1.0),                                  // dl1 lat full
        ];
        DesignSpace {
            params: t1.params.restricted(&bounds),
        }
    }

    /// Builds a design space from an arbitrary parameter space.
    ///
    /// # Panics
    ///
    /// Panics unless the space has exactly the nine Table 1 parameters
    /// (matched by name and order).
    pub fn from_params(params: ParamSpace) -> Self {
        assert_eq!(params.dim(), 9, "the processor space has 9 dimensions");
        for (p, name) in params.params().iter().zip(PARAM_NAMES) {
            assert_eq!(p.name(), name, "unexpected parameter order");
        }
        DesignSpace { params }
    }

    /// The underlying parameter space.
    pub fn params(&self) -> &ParamSpace {
        &self.params
    }

    /// Number of dimensions (always 9).
    pub fn dim(&self) -> usize {
        self.params.dim()
    }

    /// Converts a unit design point into engineering values
    /// (Table 1 units: stages, entries, fractions, KiB, cycles).
    pub fn to_actual(&self, unit: &[f64]) -> Vec<f64> {
        self.params.to_actual(unit)
    }

    /// Converts a unit design point into a validated simulator
    /// configuration.
    ///
    /// Integer parameters are rounded and cache sizes snapped to the
    /// nearest power of two, so any point in the unit cube maps to a
    /// realizable configuration.
    ///
    /// # Panics
    ///
    /// Panics if `unit.len() != 9`.
    pub fn to_config(&self, unit: &[f64]) -> SimConfig {
        let v = self.to_actual(unit);
        let pow2 = |x: f64| -> u32 {
            let kb = x.max(1.0);
            let exp = kb.log2().round() as u32;
            1u32 << exp
        };
        let config = SimConfig {
            pipe_depth: v[0].round() as u32,
            rob_size: v[1].round() as u32,
            iq_frac: v[2],
            lsq_frac: v[3],
            l2_size_kb: pow2(v[4]),
            l2_lat: v[5].round() as u32,
            il1_size_kb: pow2(v[6]),
            dl1_size_kb: pow2(v[7]),
            dl1_lat: v[8].round() as u32,
            ..SimConfig::default()
        };
        debug_assert!(
            config.validate().is_ok(),
            "unit point maps to invalid config"
        );
        config
    }

    /// Converts a simulator configuration back into its unit design
    /// point, in Table 1 parameter order — the inverse of
    /// [`DesignSpace::to_config`] on every configuration it produces.
    pub fn to_unit(&self, config: &SimConfig) -> Vec<f64> {
        self.params.to_unit(&[
            f64::from(config.pipe_depth),
            f64::from(config.rob_size),
            config.iq_frac,
            config.lsq_frac,
            f64::from(config.l2_size_kb),
            f64::from(config.l2_lat),
            f64::from(config.il1_size_kb),
            f64::from(config.dl1_size_kb),
            f64::from(config.dl1_lat),
        ])
    }

    /// Snaps a unit point to the parameter level grids for a given
    /// sample size.
    pub fn snap(&self, unit: &[f64], sample_size: usize) -> Vec<f64> {
        self.params.snap(unit, sample_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_rng::Rng;

    #[test]
    fn table1_corners_are_the_paper_values() {
        let s = DesignSpace::paper_table1();
        let lo = s.to_config(&[0.0; 9]);
        assert_eq!(
            (lo.pipe_depth, lo.rob_size, lo.l2_size_kb, lo.l2_lat),
            (24, 24, 256, 20)
        );
        assert_eq!((lo.il1_size_kb, lo.dl1_size_kb, lo.dl1_lat), (8, 8, 4));
        assert!((lo.iq_frac - 0.25).abs() < 1e-12);
        let hi = s.to_config(&[1.0; 9]);
        assert_eq!(
            (hi.pipe_depth, hi.rob_size, hi.l2_size_kb, hi.l2_lat),
            (7, 128, 8192, 5)
        );
        assert_eq!((hi.il1_size_kb, hi.dl1_size_kb, hi.dl1_lat), (64, 64, 1));
        assert!((hi.lsq_frac - 0.75).abs() < 1e-12);
    }

    #[test]
    fn table2_is_a_strict_subspace() {
        let t2 = DesignSpace::paper_table2();
        let lo = t2.to_config(&[0.0; 9]);
        let hi = t2.to_config(&[1.0; 9]);
        assert_eq!((lo.pipe_depth, hi.pipe_depth), (22, 9));
        assert_eq!((lo.rob_size, hi.rob_size), (37, 115));
        assert_eq!((lo.l2_lat, hi.l2_lat), (18, 7));
        assert!((lo.iq_frac - 0.31).abs() < 1e-9, "{}", lo.iq_frac);
        assert!((hi.iq_frac - 0.69).abs() < 1e-9);
        // Cache size axes remain the full range.
        assert_eq!((lo.l2_size_kb, hi.l2_size_kb), (256, 8192));
        assert_eq!((lo.dl1_lat, hi.dl1_lat), (4, 1));
    }

    #[test]
    fn every_random_point_yields_valid_config() {
        let s = DesignSpace::paper_table1();
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..500 {
            let unit: Vec<f64> = (0..9).map(|_| rng.unit_f64()).collect();
            let config = s.to_config(&unit);
            assert!(config.validate().is_ok(), "invalid config from {unit:?}");
        }
    }

    #[test]
    fn to_unit_inverts_to_config_over_an_lhs_sample() {
        use ppm_sampling::lhs::LatinHypercube;
        for s in [DesignSpace::paper_table1(), DesignSpace::paper_table2()] {
            let mut rng = Rng::seed_from_u64(11);
            let design = LatinHypercube::new(s.params(), 64).generate(&mut rng);
            for unit in &design {
                let config = s.to_config(unit);
                assert_eq!(s.to_config(&s.to_unit(&config)), config, "from {unit:?}");
            }
        }
    }

    #[test]
    fn cache_sizes_snap_to_powers_of_two() {
        let s = DesignSpace::paper_table1();
        let mut rng = Rng::seed_from_u64(6);
        for _ in 0..100 {
            let unit: Vec<f64> = (0..9).map(|_| rng.unit_f64()).collect();
            let c = s.to_config(&unit);
            assert!(c.l2_size_kb.is_power_of_two());
            assert!(c.il1_size_kb.is_power_of_two());
            assert!(c.dl1_size_kb.is_power_of_two());
        }
    }

    #[test]
    fn l2_levels_are_the_six_paper_sizes() {
        let s = DesignSpace::paper_table1();
        let values = s.params().params()[4].level_values(200);
        let expected = [256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0];
        assert_eq!(values.len(), 6);
        for (v, e) in values.iter().zip(expected) {
            assert!((v - e).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "9 dimensions")]
    fn from_params_requires_nine() {
        use ppm_sampling::space::ParamDef;
        DesignSpace::from_params(ParamSpace::new(vec![ParamDef::continuous("a", 0.0, 1.0)]));
    }
}
