//! Parameter-space descriptions: ranges, levels and transforms.

use std::fmt;

/// The coordinate transform along which a parameter's range is traversed.
///
/// A `Log` transform spaces levels geometrically (used for cache sizes in
/// the paper's Table 1), a `Linear` transform spaces them arithmetically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Transform {
    /// Arithmetic spacing between the endpoints.
    #[default]
    Linear,
    /// Geometric spacing between the endpoints (both must be positive).
    Log,
}

impl Transform {
    /// Maps a unit coordinate `t ∈ [0, 1]` to an actual value between
    /// `lo` and `hi` along this transform.
    pub fn warp(self, t: f64, lo: f64, hi: f64) -> f64 {
        match self {
            Transform::Linear => lo + t * (hi - lo),
            Transform::Log => {
                debug_assert!(lo > 0.0 && hi > 0.0, "log transform needs positive bounds");
                (lo.ln() + t * (hi.ln() - lo.ln())).exp()
            }
        }
    }

    /// Maps an actual value back to the unit coordinate (inverse of
    /// [`Transform::warp`]).
    pub fn unwarp(self, v: f64, lo: f64, hi: f64) -> f64 {
        match self {
            Transform::Linear => {
                if hi == lo {
                    0.5
                } else {
                    (v - lo) / (hi - lo)
                }
            }
            Transform::Log => {
                let (l, h) = (lo.ln(), hi.ln());
                if h == l {
                    0.5
                } else {
                    (v.ln() - l) / (h - l)
                }
            }
        }
    }
}

/// How many discrete settings a parameter takes in a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Levels {
    /// As many levels as there are points in the sample (the paper's "S"
    /// entries in Table 1) — effectively continuous.
    #[default]
    SampleSize,
    /// A fixed number of levels (e.g. 6 power-of-two L2 cache sizes).
    Fixed(usize),
}

/// One dimension of a design space.
///
/// `lo` and `hi` are the paper's "Low Value" and "High Value" — the
/// endpoints of the range in *performance* order, so `lo` may be
/// numerically larger than `hi` (e.g. pipeline depth 24 → 7). Unit
/// coordinate 0 always corresponds to `lo`.
///
/// # Examples
///
/// ```
/// use ppm_sampling::space::{ParamDef, Transform};
///
/// let p = ParamDef::leveled("L2_size", 256.0, 8192.0, 6, Transform::Log);
/// let vals = p.level_values(200);
/// assert_eq!(vals.len(), 6);
/// assert!((vals[1] - 512.0).abs() < 1e-6); // powers of two
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDef {
    name: String,
    lo: f64,
    hi: f64,
    levels: Levels,
    transform: Transform,
}

impl ParamDef {
    /// Creates a parameter with the given levels and transform.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite, if `lo == hi`, if a log
    /// transform is combined with non-positive bounds, or if a fixed
    /// level count is less than 2.
    pub fn new(
        name: impl Into<String>,
        lo: f64,
        hi: f64,
        levels: Levels,
        transform: Transform,
    ) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo != hi, "degenerate range [{lo}, {hi}]");
        if transform == Transform::Log {
            assert!(lo > 0.0 && hi > 0.0, "log transform needs positive bounds");
        }
        if let Levels::Fixed(k) = levels {
            assert!(k >= 2, "a parameter needs at least 2 levels, got {k}");
        }
        ParamDef {
            name: name.into(),
            lo,
            hi,
            levels,
            transform,
        }
    }

    /// A continuous (sample-size-leveled) linear parameter.
    pub fn continuous(name: impl Into<String>, lo: f64, hi: f64) -> Self {
        ParamDef::new(name, lo, hi, Levels::SampleSize, Transform::Linear)
    }

    /// A parameter with a fixed number of levels along a transform.
    pub fn leveled(
        name: impl Into<String>,
        lo: f64,
        hi: f64,
        levels: usize,
        transform: Transform,
    ) -> Self {
        ParamDef::new(name, lo, hi, Levels::Fixed(levels), transform)
    }

    /// The parameter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The low ("worst") endpoint.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// The high ("best") endpoint.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// The transform along which levels are spaced.
    pub fn transform(&self) -> Transform {
        self.transform
    }

    /// The level specification.
    pub fn levels(&self) -> Levels {
        self.levels
    }

    /// The concrete number of levels for a given sample size.
    pub fn level_count(&self, sample_size: usize) -> usize {
        match self.levels {
            Levels::SampleSize => sample_size.max(2),
            Levels::Fixed(k) => k,
        }
    }

    /// The unit coordinates of the levels: an even grid including both
    /// endpoints.
    pub fn unit_grid(&self, sample_size: usize) -> Vec<f64> {
        let k = self.level_count(sample_size);
        (0..k).map(|i| i as f64 / (k - 1) as f64).collect()
    }

    /// The actual (engineering) values of the levels.
    pub fn level_values(&self, sample_size: usize) -> Vec<f64> {
        self.unit_grid(sample_size)
            .into_iter()
            .map(|t| self.transform.warp(t, self.lo, self.hi))
            .collect()
    }

    /// Maps a unit coordinate to the actual value (not snapped to levels).
    pub fn to_actual(&self, t: f64) -> f64 {
        self.transform.warp(t.clamp(0.0, 1.0), self.lo, self.hi)
    }

    /// Maps an actual value back to a unit coordinate.
    pub fn to_unit(&self, v: f64) -> f64 {
        self.transform.unwarp(v, self.lo, self.hi).clamp(0.0, 1.0)
    }

    /// Snaps a unit coordinate to the nearest level's unit coordinate.
    pub fn snap(&self, t: f64, sample_size: usize) -> f64 {
        let k = self.level_count(sample_size);
        let idx = (t.clamp(0.0, 1.0) * (k - 1) as f64).round() as usize;
        idx as f64 / (k - 1) as f64
    }
}

impl fmt::Display for ParamDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} .. {}] ({:?}, {:?})",
            self.name, self.lo, self.hi, self.levels, self.transform
        )
    }
}

/// An ordered collection of parameters defining a design space.
///
/// # Examples
///
/// ```
/// use ppm_sampling::space::{ParamDef, ParamSpace};
///
/// let space = ParamSpace::new(vec![
///     ParamDef::continuous("a", 0.0, 10.0),
///     ParamDef::continuous("b", -1.0, 1.0),
/// ]);
/// assert_eq!(space.dim(), 2);
/// let actual = space.to_actual(&[0.5, 0.0]);
/// assert_eq!(actual, vec![5.0, -1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpace {
    params: Vec<ParamDef>,
}

impl ParamSpace {
    /// Creates a space from an ordered list of parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty or two parameters share a name.
    pub fn new(params: Vec<ParamDef>) -> Self {
        assert!(!params.is_empty(), "a design space needs parameters");
        for i in 0..params.len() {
            for j in (i + 1)..params.len() {
                assert_ne!(
                    params[i].name(),
                    params[j].name(),
                    "duplicate parameter name {:?}",
                    params[i].name()
                );
            }
        }
        ParamSpace { params }
    }

    /// The number of dimensions.
    pub fn dim(&self) -> usize {
        self.params.len()
    }

    /// The parameters, in order.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// Converts a unit point to actual values.
    ///
    /// # Panics
    ///
    /// Panics if `unit.len() != self.dim()`.
    pub fn to_actual(&self, unit: &[f64]) -> Vec<f64> {
        assert_eq!(unit.len(), self.dim(), "dimension mismatch");
        unit.iter()
            .zip(&self.params)
            .map(|(&t, p)| p.to_actual(t))
            .collect()
    }

    /// Converts actual values to a unit point.
    ///
    /// # Panics
    ///
    /// Panics if `actual.len() != self.dim()`.
    pub fn to_unit(&self, actual: &[f64]) -> Vec<f64> {
        assert_eq!(actual.len(), self.dim(), "dimension mismatch");
        actual
            .iter()
            .zip(&self.params)
            .map(|(&v, p)| p.to_unit(v))
            .collect()
    }

    /// Snaps every coordinate of a unit point to its nearest level.
    pub fn snap(&self, unit: &[f64], sample_size: usize) -> Vec<f64> {
        assert_eq!(unit.len(), self.dim(), "dimension mismatch");
        unit.iter()
            .zip(&self.params)
            .map(|(&t, p)| p.snap(t, sample_size))
            .collect()
    }

    /// Returns a sub-space restricted to narrower unit bounds per
    /// dimension, expressed in this space's unit coordinates.
    ///
    /// Used to express the paper's Table 2 (the test-point region is a
    /// shrunken version of the Table 1 training region).
    ///
    /// # Panics
    ///
    /// Panics if `bounds.len() != self.dim()` or any interval is empty or
    /// outside `[0, 1]`.
    pub fn restricted(&self, bounds: &[(f64, f64)]) -> ParamSpace {
        assert_eq!(bounds.len(), self.dim(), "dimension mismatch");
        let params = self
            .params
            .iter()
            .zip(bounds)
            .map(|(p, &(a, b))| {
                assert!((0.0..=1.0).contains(&a) && (0.0..=1.0).contains(&b) && a < b);
                ParamDef::new(
                    p.name(),
                    p.to_actual(a),
                    p.to_actual(b),
                    p.levels(),
                    p.transform(),
                )
            })
            .collect();
        ParamSpace::new(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_rng::Rng;

    #[test]
    fn linear_warp_endpoints() {
        let t = Transform::Linear;
        assert_eq!(t.warp(0.0, 24.0, 7.0), 24.0);
        assert_eq!(t.warp(1.0, 24.0, 7.0), 7.0);
        assert_eq!(t.warp(0.5, 0.0, 10.0), 5.0);
    }

    #[test]
    fn log_warp_is_geometric() {
        let t = Transform::Log;
        let mid = t.warp(0.5, 256.0, 8192.0 * 1024.0 / 1024.0);
        // sqrt(256 * 8192) = sqrt(2_097_152) = 1448.15...
        assert!((mid - (256.0f64 * 8192.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn warp_unwarp_roundtrip() {
        for tr in [Transform::Linear, Transform::Log] {
            for i in 0..=10 {
                let t = i as f64 / 10.0;
                let v = tr.warp(t, 8.0, 64.0);
                assert!((tr.unwarp(v, 8.0, 64.0) - t).abs() < 1e-12, "{tr:?} t={t}");
            }
        }
    }

    #[test]
    fn leveled_param_produces_grid() {
        let p = ParamDef::leveled("l2", 256.0, 8192.0, 6, Transform::Log);
        let vals = p.level_values(100);
        let expected = [256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0];
        for (v, e) in vals.iter().zip(expected) {
            assert!((v - e).abs() < 1e-6, "{v} vs {e}");
        }
    }

    #[test]
    fn reversed_range_maps_unit_zero_to_lo() {
        let p = ParamDef::continuous("pipe_depth", 24.0, 7.0);
        assert_eq!(p.to_actual(0.0), 24.0);
        assert_eq!(p.to_actual(1.0), 7.0);
        assert!((p.to_unit(7.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn snap_hits_nearest_level() {
        let p = ParamDef::leveled("x", 0.0, 10.0, 5, Transform::Linear);
        // Unit grid: 0, 0.25, 0.5, 0.75, 1.
        assert_eq!(p.snap(0.25, 100), 0.25);
        assert_eq!(p.snap(0.3, 100), 0.25);
        assert_eq!(p.snap(0.4, 100), 0.5);
        assert_eq!(p.snap(1.2, 100), 1.0);
    }

    #[test]
    fn space_roundtrip() {
        let space = ParamSpace::new(vec![
            ParamDef::continuous("a", 24.0, 128.0),
            ParamDef::leveled("b", 8.0, 64.0, 4, Transform::Log),
        ]);
        let unit = vec![0.3, 0.7];
        let back = space.to_unit(&space.to_actual(&unit));
        for (u, b) in unit.iter().zip(&back) {
            assert!((u - b).abs() < 1e-12);
        }
    }

    #[test]
    fn restricted_space_shrinks_ranges() {
        let space = ParamSpace::new(vec![ParamDef::continuous("a", 0.0, 100.0)]);
        let sub = space.restricted(&[(0.1, 0.9)]);
        assert_eq!(sub.params()[0].lo(), 10.0);
        assert_eq!(sub.params()[0].hi(), 90.0);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_panic() {
        ParamSpace::new(vec![
            ParamDef::continuous("a", 0.0, 1.0),
            ParamDef::continuous("a", 0.0, 2.0),
        ]);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_range_panics() {
        ParamDef::continuous("a", 1.0, 1.0);
    }

    #[test]
    fn random_to_actual_within_range() {
        let mut rng = Rng::seed_from_u64(31);
        let p = ParamDef::leveled("x", 8.0, 64.0, 4, Transform::Log);
        for i in 0..=128 {
            let t = if i <= 1 { i as f64 } else { rng.unit_f64() };
            let v = p.to_actual(t);
            assert!((8.0 - 1e-9..=64.0 + 1e-9).contains(&v), "t {t} gave {v}");
        }
    }

    #[test]
    fn random_snap_idempotent() {
        let mut rng = Rng::seed_from_u64(32);
        for _ in 0..128 {
            let t = rng.unit_f64();
            let k = 2 + rng.below(18) as usize;
            let p = ParamDef::leveled("x", 0.0, 1.0, k, Transform::Linear);
            let s = p.snap(t, 50);
            assert_eq!(p.snap(s, 50), s, "t {t} k {k}");
        }
    }
}
