//! Space-filling quality measures for designs in the unit hypercube.
//!
//! The paper selects, among many candidate latin hypercube samples, the
//! one with the lowest **L2-star discrepancy** — the L2 norm of the
//! deviation between the sample's empirical distribution and the uniform
//! distribution over anchored boxes `[0, x)`. Warnock's closed form makes
//! this an `O(p² n)` computation.

/// Computes the L2-star discrepancy of a design (Warnock's formula).
///
/// Lower is better (more uniform). The value is `sqrt` of
///
/// ```text
/// (1/3)^n - (2/p) Σᵢ Πₖ (1 - xᵢₖ²)/2 + (1/p²) ΣᵢΣⱼ Πₖ (1 - max(xᵢₖ, xⱼₖ))
/// ```
///
/// # Panics
///
/// Panics if the design is empty, points have inconsistent dimensions, or
/// any coordinate lies outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// // A single centered point in 1-D has discrepancy sqrt(1/12).
/// let d = ppm_sampling::discrepancy::l2_star(&[vec![0.5]]);
/// assert!((d - (1.0f64 / 12.0).sqrt()).abs() < 1e-12);
/// ```
pub fn l2_star(points: &[Vec<f64>]) -> f64 {
    let (p, n) = validate(points);
    ppm_telemetry::counter("sampling.discrepancy_evals").inc();
    let term1 = (1.0f64 / 3.0).powi(n as i32);

    // Flatten once into a contiguous *column-major* buffer of the
    // complements (1 - x): `cols[k * p + j]` is dimension k of point j.
    // `1 - max(a, b)` becomes `min(1-a, 1-b)` over the precomputed
    // complements (bit-identical: max picks one of a, b, and its
    // complement is computed the same way either route), and the
    // column-major layout makes the j-values of one dimension
    // contiguous, so the pair loop below can process a block of j's
    // with independent (vectorizable) product accumulators.
    let mut cols = vec![0.0f64; p * n];
    let mut row_term2 = Vec::with_capacity(p);
    for (j, x) in points.iter().enumerate() {
        let mut prod = 1.0;
        for (k, &xi) in x.iter().enumerate() {
            cols[k * p + j] = 1.0 - xi;
            prod *= (1.0 - xi * xi) / 2.0;
        }
        row_term2.push(prod);
    }
    let term2 = pairwise_sum(&row_term2);

    // term3 row i: the diagonal product Πₖ(1-xᵢₖ) plus twice the
    // symmetric i<j products. Row totals feed a pairwise sum, which is
    // both more accurate than a running fold and keeps a fixed
    // association order regardless of the row loop's internals.
    const LANES: usize = 8;
    let mut ri = vec![0.0f64; n];
    let mut row_term3 = Vec::with_capacity(p);
    for i in 0..p {
        for (k, r) in ri.iter_mut().enumerate() {
            *r = cols[k * p + i];
        }
        let mut diag = 1.0;
        for &v in &ri {
            diag *= v;
        }
        let mut off = 0.0;
        let mut j = i + 1;
        // Blocked: LANES independent running products over contiguous
        // j's — no cross-lane dependency, so the chain of n multiplies
        // overlaps across the block (and vectorizes).
        while j + LANES <= p {
            let mut prod = [1.0f64; LANES];
            for (k, &m) in ri.iter().enumerate() {
                let c = &cols[k * p + j..k * p + j + LANES];
                for (pr, &v) in prod.iter_mut().zip(c) {
                    *pr *= m.min(v);
                }
            }
            off += ((prod[0] + prod[1]) + (prod[2] + prod[3]))
                + ((prod[4] + prod[5]) + (prod[6] + prod[7]));
            j += LANES;
        }
        while j < p {
            let mut prod = 1.0;
            for (k, &m) in ri.iter().enumerate() {
                prod *= m.min(cols[k * p + j]);
            }
            off += prod;
            j += 1;
        }
        row_term3.push(diag + 2.0 * off);
    }
    let term3 = pairwise_sum(&row_term3);

    let pf = p as f64;
    let d2 = term1 - 2.0 / pf * term2 + term3 / (pf * pf);
    d2.max(0.0).sqrt()
}

/// Deterministic chunked pairwise summation: O(log) rounding error
/// growth instead of O(n), and a fixed association order (midpoint
/// splits down to 32-element base chunks) regardless of caller context.
fn pairwise_sum(xs: &[f64]) -> f64 {
    const BASE: usize = 32;
    if xs.len() <= BASE {
        let mut s = 0.0;
        for &v in xs {
            s += v;
        }
        return s;
    }
    let mid = xs.len() / 2;
    pairwise_sum(&xs[..mid]) + pairwise_sum(&xs[mid..])
}

fn validate(points: &[Vec<f64>]) -> (usize, usize) {
    assert!(!points.is_empty(), "discrepancy of an empty design");
    let n = points[0].len();
    assert!(n > 0, "points must have at least one dimension");
    for (i, x) in points.iter().enumerate() {
        assert_eq!(x.len(), n, "point {i} has inconsistent dimension");
        for (k, &v) in x.iter().enumerate() {
            assert!(
                (0.0..=1.0).contains(&v),
                "point {i} coordinate {k} = {v} outside [0, 1]"
            );
        }
    }
    (points.len(), n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_rng::Rng;

    /// 1-D analytic check: D²(x) = 1/3 + x² - x for a single point.
    #[test]
    fn single_point_1d_matches_analytic() {
        for &x in &[0.0, 0.25, 0.5, 0.9, 1.0] {
            let expected = (1.0f64 / 3.0 + x * x - x).max(0.0).sqrt();
            let got = l2_star(&[vec![x]]);
            assert!((got - expected).abs() < 1e-12, "x={x}: {got} vs {expected}");
        }
    }

    #[test]
    fn centered_point_minimizes_1d_star() {
        let center = l2_star(&[vec![0.5]]);
        for &x in &[0.0, 0.2, 0.8, 1.0] {
            assert!(l2_star(&[vec![x]]) >= center - 1e-12);
        }
    }

    #[test]
    fn even_grid_beats_clustered_points() {
        let grid: Vec<Vec<f64>> = (0..10).map(|i| vec![(i as f64 + 0.5) / 10.0]).collect();
        let clustered: Vec<Vec<f64>> = (0..10).map(|i| vec![0.4 + i as f64 * 0.01]).collect();
        assert!(l2_star(&grid) < l2_star(&clustered));
    }

    #[test]
    fn discrepancy_decreases_with_more_uniform_points() {
        let mut rng = Rng::seed_from_u64(17);
        let sizes = [8usize, 32, 128];
        let mut last = f64::INFINITY;
        for &p in &sizes {
            // Average over several random designs to smooth out noise.
            let mut acc = 0.0;
            for _ in 0..5 {
                let pts: Vec<Vec<f64>> = (0..p)
                    .map(|_| (0..3).map(|_| rng.unit_f64()).collect())
                    .collect();
                acc += l2_star(&pts);
            }
            let avg = acc / 5.0;
            assert!(avg < last, "discrepancy did not shrink at p={p}");
            last = avg;
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_point_panics() {
        l2_star(&[vec![1.5]]);
    }

    #[test]
    #[should_panic(expected = "empty design")]
    fn empty_design_panics() {
        l2_star(&[]);
    }

    #[test]
    fn random_discrepancies_nonnegative_and_finite() {
        for seed in 0..64u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let p = 1 + rng.below(19) as usize;
            let n = 1 + rng.below(4) as usize;
            let pts: Vec<Vec<f64>> = (0..p)
                .map(|_| (0..n).map(|_| rng.unit_f64()).collect())
                .collect();
            let star = l2_star(&pts);
            assert!(star.is_finite() && star >= 0.0, "seed {seed}");
        }
    }

    /// The flat-buffer fast path must agree with a naive transcription
    /// of Warnock's formula to rounding error.
    #[test]
    fn random_l2_star_matches_naive_formula() {
        fn naive(points: &[Vec<f64>]) -> f64 {
            let p = points.len() as f64;
            let n = points[0].len() as i32;
            let term1 = (1.0f64 / 3.0).powi(n);
            let term2: f64 = points
                .iter()
                .map(|x| x.iter().map(|&v| (1.0 - v * v) / 2.0).product::<f64>())
                .sum();
            let mut term3 = 0.0;
            for xi in points {
                for xj in points {
                    let mut prod = 1.0;
                    for (&a, &b) in xi.iter().zip(xj) {
                        prod *= 1.0 - a.max(b);
                    }
                    term3 += prod;
                }
            }
            (term1 - 2.0 / p * term2 + term3 / (p * p)).max(0.0).sqrt()
        }
        for seed in 0..32u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let p = 1 + rng.below(40) as usize;
            let n = 1 + rng.below(6) as usize;
            let pts: Vec<Vec<f64>> = (0..p)
                .map(|_| (0..n).map(|_| rng.unit_f64()).collect())
                .collect();
            let (fast, slow) = (l2_star(&pts), naive(&pts));
            assert!((fast - slow).abs() < 1e-12, "seed {seed}: {fast} vs {slow}");
        }
    }

    #[test]
    fn pairwise_sum_matches_sequential_sum() {
        for len in [0usize, 1, 31, 32, 33, 100, 257] {
            let xs: Vec<f64> = (0..len).map(|i| (i as f64).sin()).collect();
            let seq: f64 = xs.iter().sum();
            assert!((pairwise_sum(&xs) - seq).abs() < 1e-9, "len {len}");
        }
    }

    #[test]
    fn random_permutation_invariant() {
        for seed in 0..32u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut pts: Vec<Vec<f64>> = (0..12)
                .map(|_| (0..4).map(|_| rng.unit_f64()).collect())
                .collect();
            let before = l2_star(&pts);
            rng.shuffle(&mut pts);
            assert!((l2_star(&pts) - before).abs() < 1e-12, "seed {seed}");
        }
    }
}
