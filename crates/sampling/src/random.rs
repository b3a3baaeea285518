//! Plain uniform random designs.
//!
//! Used for the independently generated *test* sets the paper validates
//! against (§3, Table 2), and as the baseline in the sampling ablation
//! (random vs latin hypercube).

use ppm_rng::Rng;

use crate::space::ParamSpace;
use crate::Design;

/// Generates `size` points uniformly at random in the unit hypercube,
/// snapped to each parameter's level grid.
///
/// Snapping uses a nominal sample size of `size` for parameters whose
/// level count is sample-size dependent.
///
/// # Panics
///
/// Panics if `size == 0`.
///
/// # Examples
///
/// ```
/// use ppm_rng::Rng;
/// use ppm_sampling::random::random_design;
/// use ppm_sampling::space::{ParamDef, ParamSpace};
///
/// let space = ParamSpace::new(vec![ParamDef::continuous("a", 0.0, 1.0)]);
/// let mut rng = Rng::seed_from_u64(0);
/// let pts = random_design(&space, 50, &mut rng);
/// assert_eq!(pts.len(), 50);
/// ```
pub fn random_design(space: &ParamSpace, size: usize, rng: &mut Rng) -> Design {
    assert!(size > 0, "empty design requested");
    (0..size)
        .map(|_| {
            let raw: Vec<f64> = (0..space.dim()).map(|_| rng.unit_f64()).collect();
            space.snap(&raw, size.max(2))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{ParamDef, Transform};

    #[test]
    fn random_design_respects_levels() {
        let space = ParamSpace::new(vec![ParamDef::leveled("b", 8.0, 64.0, 4, Transform::Log)]);
        let mut rng = Rng::seed_from_u64(2);
        let pts = random_design(&space, 100, &mut rng);
        for p in &pts {
            let scaled = p[0] * 3.0;
            assert!(
                (scaled - scaled.round()).abs() < 1e-9,
                "unsnapped point {p:?}"
            );
        }
    }

    fn continuous_space(dim: usize) -> ParamSpace {
        ParamSpace::new(
            (0..dim)
                .map(|d| ParamDef::continuous(format!("x{d}"), 0.0, 1.0))
                .collect(),
        )
    }

    #[test]
    fn continuous_design_fills_cube() {
        let mut rng = Rng::seed_from_u64(4);
        let pts = random_design(&continuous_space(3), 200, &mut rng);
        assert_eq!(pts.len(), 200);
        assert!(pts.iter().flatten().all(|v| (0.0..=1.0).contains(v)));
        let mean: f64 = pts.iter().map(|p| p[0]).sum::<f64>() / 200.0;
        assert!((mean - 0.5).abs() < 0.1);
    }

    #[test]
    fn deterministic_given_seed() {
        let space = continuous_space(2);
        let a = random_design(&space, 10, &mut Rng::seed_from_u64(3));
        let b = random_design(&space, 10, &mut Rng::seed_from_u64(3));
        assert_eq!(a, b);
    }
}
