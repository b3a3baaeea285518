//! Small distribution helpers built on top of [`Rng`].
//!
//! Each distribution computes its constants once, in `new`. A draw
//! consumes the same random numbers and returns the same value, bit for
//! bit, as the straightforward per-draw formula, so the streams never
//! move (see the crate docs' stream-stability promise).

use crate::Rng;

/// A geometric distribution over `1, 2, 3, ...` with success probability `p`.
///
/// Used throughout the workload models for register dependency distances and
/// reuse distances, which empirically decay geometrically.
///
/// # Examples
///
/// ```
/// use ppm_rng::{Geometric, Rng};
///
/// let dist = Geometric::new(0.5);
/// let mut rng = Rng::seed_from_u64(2);
/// let d = dist.sample(&mut rng);
/// assert!(d >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
    /// `ln(1 - p)`, the inverse CDF's denominator (`-inf` at `p = 1`).
    ln_q: f64,
}

impl Geometric {
    /// Creates a geometric distribution with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1`.
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "geometric p must be in (0, 1], got {p}"
        );
        Geometric {
            p,
            ln_q: (1.0 - p).ln(),
        }
    }

    /// The success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The distribution mean, `1 / p`.
    pub fn mean(&self) -> f64 {
        1.0 / self.p
    }

    /// Draws one sample (support starts at 1).
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        let u = 1.0 - rng.unit_f64(); // in (0, 1]
        self.invert(u)
    }

    /// The inverse CDF, `ceil(ln(u) / ln(1 - p))`, at `u` in `(0, 1]`.
    fn invert(&self, u: f64) -> u64 {
        let x = (u.ln() / self.ln_q).ceil();
        // Clamp pathological float results into the support.
        if x < 1.0 {
            1
        } else if x > u64::MAX as f64 {
            u64::MAX
        } else {
            x as u64
        }
    }
}

/// Relative half-width of the band around each threshold of a
/// [`CappedGeometric`] inside which a draw falls back to the exact
/// inverse-CDF formula.
const BAND: f64 = 1e-9;

/// A [`Geometric`] distribution capped at `max`: each draw equals
/// `Geometric::sample(rng).min(max)` bit for bit, and consumes the same
/// random numbers, but is decided by comparisons instead of two
/// logarithms.
///
/// # Thresholds instead of logarithms
///
/// With `q = 1 - p` and `u` uniform in `(0, 1]`, the inverse CDF
/// `X = ceil(ln(u) / ln(q))` satisfies `X <= d` exactly when
/// `u >= q^d`. So `min(X, max)` is the smallest `d` in `1..max` whose
/// threshold `q^d` lies at or below `u`, or `max` if there is none, and
/// `new` computes the thresholds once as `exp(d * ln(q))` with the same
/// `ln(q)` the formula divides by.
///
/// The formula is evaluated in floating point, so right at a threshold
/// its answer may differ from the exact one. The sampler therefore
/// decides by threshold only when `u` lies outside a relative band of
/// `1e-9` around every threshold, and evaluates the formula itself
/// inside the band. Outside it the two cannot disagree:
///
/// * The formula's quotient `ln(u) / ln(q)` carries two roundings, the
///   `ln` (within a few ULP for any libm) and the division (half an
///   ULP): a relative error of about `6e-16`. Near threshold `d` the
///   quotient is about `d <= 48`, so its error is about
///   `48 * 6e-16 = 3e-14`.
/// * Moving `u` by a relative `1e-9` moves the quotient by
///   `1e-9 / |ln(q)|`. Since `p < 1` here, `q >= 2^-53` and
///   `|ln(q)| < 37`, so that is more than `2.7e-11`, about 900 times
///   the formula's error: outside the band the rounded quotient lies on
///   the same side of `d` as the exact one.
/// * A computed threshold `exp(d * ln(q))` is off by a relative
///   `|d ln(q)| + 1` ULP, below `48 * 37` ULP `< 4e-13`, far inside the
///   band.
///
/// So every draw equals the formula's: by threshold outside the band,
/// and by the formula itself inside it. The `p = 1` case returns 1
/// without a draw, as [`Geometric::sample`] does, and a `p` so small
/// that `1 - p` rounds to 1 sends every draw to the formula.
///
/// # Examples
///
/// ```
/// use ppm_rng::{CappedGeometric, Geometric, Rng};
///
/// let capped = CappedGeometric::new(0.3, 48);
/// let (mut a, mut b) = (Rng::seed_from_u64(5), Rng::seed_from_u64(5));
/// for _ in 0..1000 {
///     assert_eq!(capped.sample(&mut a), Geometric::new(0.3).sample(&mut b).min(48));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CappedGeometric {
    dist: Geometric,
    max: u64,
    /// `(lo, hi)` = `q^d * (1 -/+ BAND)` for `d` in `1..max`.
    bands: Vec<(f64, f64)>,
}

impl CappedGeometric {
    /// Creates the distribution of `Geometric::new(p)` capped at `max`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1` and `max >= 1`.
    pub fn new(p: f64, max: u64) -> Self {
        assert!(max >= 1, "cap must be at least 1, got {max}");
        let dist = Geometric::new(p);
        let bands = if dist.ln_q < 0.0 {
            (1..max)
                .map(|d| {
                    let threshold = (d as f64 * dist.ln_q).exp();
                    (threshold * (1.0 - BAND), threshold * (1.0 + BAND))
                })
                .collect()
        } else {
            // `1 - p` rounds to 1 and `ln(q)` to 0: the formula's answer
            // does not follow the thresholds, so one band covering every
            // `u` sends each draw to it.
            vec![(0.0, f64::INFINITY)]
        };
        CappedGeometric { dist, max, bands }
    }

    /// Draws one sample in `1..=max`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.dist.p >= 1.0 {
            return 1;
        }
        let u = 1.0 - rng.unit_f64(); // in (0, 1]
        self.decide(u)
    }

    /// `min(X, max)` for the inverse-CDF draw at `u`.
    fn decide(&self, u: f64) -> u64 {
        // Every earlier band lies wholly above `u`.
        for (d, &(lo, hi)) in (1..).zip(&self.bands) {
            if u >= lo {
                return if u >= hi {
                    d
                } else {
                    self.dist.invert(u).min(self.max)
                };
            }
        }
        self.max
    }
}

/// Draws indices in proportion to a fixed slice of non-negative
/// weights. The weights are validated and summed once, in `new`; each
/// draw takes one [`Rng::unit_f64`], scales it by the total and
/// subtracts the weights in turn, returning the first index whose
/// weight exceeds the remainder. [`Rng::weighted_index`] delegates
/// here, so the two produce the same stream.
///
/// # Examples
///
/// ```
/// use ppm_rng::{Rng, WeightedIndex};
///
/// let weights = [1.0, 0.0, 3.0];
/// let pick = WeightedIndex::new(&weights);
/// let (mut a, mut b) = (Rng::seed_from_u64(3), Rng::seed_from_u64(3));
/// for _ in 0..100 {
///     assert_eq!(pick.sample(&mut a), b.weighted_index(&weights));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedIndex {
    weights: Vec<f64>,
    total: f64,
}

impl WeightedIndex {
    /// Validates and sums the weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        WeightedIndex {
            weights: weights.to_vec(),
            total: Self::total(weights),
        }
    }

    /// Draws one index into the weights.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        Self::locate(&self.weights, rng.unit_f64() * self.total)
    }

    /// The sum of `weights`, after checking each one.
    pub(crate) fn total(weights: &[f64]) -> f64 {
        assert!(!weights.is_empty(), "no weights given");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w.is_finite() && w >= 0.0, "weight {w} is invalid");
                w
            })
            .sum();
        assert!(total > 0.0, "weights sum to zero");
        total
    }

    /// The index of the first weight `w` with `x < w` on the chain
    /// `x -= w`, or the last index if there is none.
    ///
    /// This runs the chain's subtractions without its early exit, and
    /// counts the remainders that stay non-negative instead: a rounded
    /// difference `x - w` has the sign of the exact one, so it is
    /// negative exactly when `x < w`, and once negative it stays
    /// negative. The count is therefore the first such index, with no
    /// data-dependent branch to mispredict.
    pub(crate) fn locate(weights: &[f64], mut x: f64) -> usize {
        let mut index = 0;
        for &w in &weights[..weights.len() - 1] {
            x -= w;
            index += usize::from(x >= 0.0);
        }
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn sample_mean_tracks_parameter() {
        for &p in &[0.9, 0.5, 0.1] {
            let dist = Geometric::new(p);
            let mut rng = Rng::seed_from_u64(1234);
            let n = 100_000;
            let total: u64 = (0..n).map(|_| dist.sample(&mut rng)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - dist.mean()).abs() / dist.mean() < 0.05,
                "p={p}: empirical mean {mean} vs {}",
                dist.mean()
            );
        }
    }

    #[test]
    fn degenerate_p_one_is_constant() {
        let dist = Geometric::new(1.0);
        let mut rng = Rng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(dist.sample(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "geometric p")]
    fn zero_p_panics() {
        Geometric::new(0.0);
    }

    /// The per-draw inverse CDF every sampler here must reproduce,
    /// kept verbatim from before the constants were hoisted.
    fn formula(p: f64, u: f64) -> u64 {
        let x = (u.ln() / (1.0 - p).ln()).ceil();
        if x < 1.0 {
            1
        } else if x > u64::MAX as f64 {
            u64::MAX
        } else {
            x as u64
        }
    }

    /// `Rng::weighted_index` as it was before [`WeightedIndex`]
    /// existed: validate, sum and walk on every call.
    fn weighted_index_per_call(rng: &mut Rng, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "no weights given");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w.is_finite() && w >= 0.0, "weight {w} is invalid");
                w
            })
            .sum();
        assert!(total > 0.0, "weights sum to zero");
        let mut x = rng.unit_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Success probabilities covering the workload profiles, both
    /// extremes of the dependence-distance range, the largest `p` below
    /// 1 (the smallest `q`) and a `1 - p` that rounds to 1.
    const PS: [f64; 14] = [
        0.01,
        0.1,
        0.25,
        0.28,
        0.35,
        0.4,
        0.45,
        0.5,
        0.55,
        0.9,
        0.99,
        1.0 - f64::EPSILON / 2.0,
        1e-7,
        1e-17,
    ];

    #[test]
    fn geometric_stream_matches_the_per_draw_formula() {
        let mut meta = Rng::seed_from_u64(77);
        let ps = PS
            .iter()
            .copied()
            .chain((0..32).map(|_| meta.unit_f64().max(1e-3)));
        for (seed, p) in ps.enumerate() {
            let dist = Geometric::new(p);
            let (mut a, mut b) = (
                Rng::seed_from_u64(seed as u64),
                Rng::seed_from_u64(seed as u64),
            );
            for _ in 0..2_000 {
                let u = 1.0 - b.unit_f64();
                assert_eq!(dist.sample(&mut a), formula(p, u), "p {p} u {u:e}");
            }
        }
    }

    #[test]
    fn capped_stream_matches_the_capped_formula() {
        let mut meta = Rng::seed_from_u64(78);
        let ps = PS
            .iter()
            .copied()
            .chain([1.0])
            .chain((0..32).map(|_| meta.unit_f64().max(1e-3)));
        for (seed, p) in ps.enumerate() {
            for max in [1, 2, 48] {
                let capped = CappedGeometric::new(p, max);
                let dist = Geometric::new(p);
                let (mut a, mut b) = (
                    Rng::seed_from_u64(seed as u64),
                    Rng::seed_from_u64(seed as u64),
                );
                for _ in 0..2_000 {
                    assert_eq!(capped.sample(&mut a), dist.sample(&mut b).min(max), "p {p}");
                }
                assert_eq!(a, b, "p {p}: the two consumed different draws");
            }
        }
    }

    /// `x` moved by `k` units in the last place (`x` positive).
    fn ulps(x: f64, k: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + k) as u64)
    }

    #[test]
    fn capped_decisions_match_the_formula_at_every_threshold() {
        let max = 48;
        for p in PS {
            let capped = CappedGeometric::new(p, max);
            let ln_q = (1.0 - p).ln();
            for d in 1..max {
                let threshold = (d as f64 * ln_q).exp();
                let mut us = vec![
                    threshold,
                    threshold * (1.0 - BAND),
                    threshold * (1.0 + BAND),
                ];
                // Both band edges and one ULP to either side of each.
                for edge in [us[1], us[2]] {
                    us.extend([ulps(edge, -1), ulps(edge, 1)]);
                }
                // Deep inside the band: the fallback path.
                for k in 1..=1000 {
                    us.extend([ulps(threshold, -k), ulps(threshold, k)]);
                }
                for u in us.into_iter().filter(|u| *u > 0.0 && *u <= 1.0) {
                    assert_eq!(
                        capped.decide(u),
                        formula(p, u).min(max),
                        "p {p} d {d} u {u:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn weighted_sampler_reproduces_the_per_call_stream() {
        let mut meta = Rng::seed_from_u64(79);
        for seed in 0..200u64 {
            let n = 1 + meta.below(9) as usize;
            let mut weights: Vec<f64> = (0..n)
                .map(|_| {
                    if meta.chance(0.2) {
                        0.0
                    } else {
                        meta.unit_f64() * 10.0
                    }
                })
                .collect();
            if weights.iter().all(|&w| w == 0.0) {
                weights[0] = 1.0;
            }
            let pick = WeightedIndex::new(&weights);
            let mut a = Rng::seed_from_u64(seed);
            let mut b = Rng::seed_from_u64(seed);
            let mut c = Rng::seed_from_u64(seed);
            for _ in 0..500 {
                let expected = weighted_index_per_call(&mut c, &weights);
                assert_eq!(pick.sample(&mut a), expected, "weights {weights:?}");
                assert_eq!(b.weighted_index(&weights), expected, "weights {weights:?}");
            }
        }
    }

    #[test]
    fn weighted_sampler_matches_the_chain_on_every_boundary() {
        let chain = |weights: &[f64], mut x: f64| {
            for (i, &w) in weights.iter().enumerate() {
                if x < w {
                    return i;
                }
                x -= w;
            }
            weights.len() - 1
        };
        let sets: [&[f64]; 6] = [
            &[1.0, 1.0],
            &[0.0, 1.0],
            &[1.0, 0.0, 0.0],
            &[0.5, 0.0, 0.25, 0.25],
            &[0.1, 0.2, 0.3, 0.15, 0.05, 0.2],
            &[3.0, 0.0, 0.0, 1e-300, 2.0],
        ];
        for weights in sets {
            // Every prefix sum, exactly and a few ULP to either side.
            let mut prefix = 0.0;
            for &w in weights {
                prefix += w;
                for k in -3i64..=3 {
                    // Nothing below +0.0: it is not a scaled draw.
                    let Ok(bits) = u64::try_from(prefix.to_bits() as i64 + k) else {
                        continue;
                    };
                    let x = f64::from_bits(bits);
                    assert_eq!(
                        WeightedIndex::locate(weights, x),
                        chain(weights, x),
                        "weights {weights:?} x {x:e}"
                    );
                }
            }
            assert_eq!(WeightedIndex::locate(weights, 0.0), chain(weights, 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "weights sum to zero")]
    fn all_zero_weights_panic_at_construction() {
        WeightedIndex::new(&[0.0, 0.0]);
    }

    #[test]
    fn support_starts_at_one() {
        let mut meta = Rng::seed_from_u64(2024);
        for seed in 0..64u64 {
            let p = 0.01 + 0.98 * meta.unit_f64();
            let dist = Geometric::new(p);
            let mut rng = Rng::seed_from_u64(seed);
            for _ in 0..50 {
                assert!(dist.sample(&mut rng) >= 1, "seed {seed} p {p}");
            }
        }
    }
}
