//! The microarchitectural design space of the paper's Tables 1 and 2.

use ppm_sampling::space::{Levels, ParamDef, ParamSpace, Transform};
use ppm_sim::{SimConfig, KNOBS};

/// The 9-dimensional processor design space.
///
/// Wraps a [`ParamSpace`] read from the [`KNOBS`] table and converts
/// between unit design points and concrete [`SimConfig`]s, snapping
/// each value by its knob's rule.
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
    /// The training design space of the paper's Table 1: one
    /// dimension per row of [`KNOBS`], with its range (in low → high
    /// performance order), levels and spacing.
    pub fn paper_table1() -> Self {
        let params = KNOBS.iter().map(|knob| {
            let levels = knob.levels.map_or(Levels::SampleSize, Levels::Fixed);
            let transform = if knob.log {
                Transform::Log
            } else {
                Transform::Linear
            };
            ParamDef::new(knob.name, knob.range.0, knob.range.1, levels, transform)
        });
        DesignSpace {
            params: ParamSpace::new(params.collect()),
        }
    }

    /// The narrower test-point space of the paper's Table 2, expressed
    /// as a restriction of [`DesignSpace::paper_table1`] to each knob's
    /// unit `test` bounds.
    pub fn paper_table2() -> Self {
        let bounds = KNOBS.map(|knob| knob.test);
        DesignSpace {
            params: DesignSpace::paper_table1().params.restricted(&bounds),
        }
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
    /// Each value is snapped by its knob's rule (integers rounded,
    /// cache sizes snapped to the nearest power of two), so any point
    /// in the unit cube maps to a realizable configuration.
    ///
    /// # Panics
    ///
    /// Panics if `unit.len() != 9`.
    pub fn to_config(&self, unit: &[f64]) -> SimConfig {
        let mut config = SimConfig::default();
        for (knob, v) in KNOBS.iter().zip(self.to_actual(unit)) {
            (knob.set)(&mut config, knob.snap.apply(v));
        }
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
        self.params.to_unit(&KNOBS.map(|knob| (knob.get)(config)))
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
    use ppm_sim::Snap;

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
        let caches: Vec<_> = KNOBS
            .iter()
            .filter(|knob| knob.snap == Snap::PowerOfTwo)
            .collect();
        assert_eq!(caches.len(), 3, "L2, L1I and L1D sizes");
        let s = DesignSpace::paper_table1();
        let mut rng = Rng::seed_from_u64(6);
        for _ in 0..100 {
            let unit: Vec<f64> = (0..9).map(|_| rng.unit_f64()).collect();
            let c = s.to_config(&unit);
            for knob in &caches {
                let kb = (knob.get)(&c) as u32;
                assert!(kb.is_power_of_two(), "{} = {kb}", knob.field);
            }
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
}
