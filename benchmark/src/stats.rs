//! Order statistics over raw samples: exact nearest-rank quantiles, the
//! rule for the highest percentile a sample supports, and the quartile
//! definition the acceptance check uses.

/// Percentiles the benchmark reports, in hundredths of a percent,
/// lowest first.
pub const PERCENTILES_BP: [u64; 5] = [5000, 9000, 9900, 9990, 9999];

/// The nearest-rank quantile of an ascending sample: the smallest value
/// with at least `bp` hundredths of a percent of the sample at or below
/// it. Integer rank arithmetic, so `bp = 9990` over 1000 samples is rank
/// 999 exactly. `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], bp: u64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len() as u64;
    let rank = (bp * n).div_ceil(10_000).clamp(1, n);
    Some(sorted[(rank - 1) as usize])
}

/// The highest of [`PERCENTILES_BP`] that leaves at least `min_beyond`
/// samples strictly above its rank in a sample of `n`, or `None` when
/// not even the median does.
pub fn tail_percentile_bp(n: usize, min_beyond: usize) -> Option<u64> {
    let n = n as u64;
    PERCENTILES_BP
        .iter()
        .rev()
        .copied()
        .find(|&bp| n.saturating_sub((bp * n).div_ceil(10_000)) >= min_beyond as u64)
}

/// Sorts a sample ascending (NaNs last, so they never become a
/// quantile of a finite sample).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// The median as Python's `statistics.median` gives it: the middle
/// value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default "exclusive" method), so the spreads
/// printed here are the ones the acceptance check computes. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// The distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 5000), Some(500.0));
        assert_eq!(nearest_rank(&s, 9000), Some(900.0));
        assert_eq!(nearest_rank(&s, 9900), Some(990.0));
        assert_eq!(nearest_rank(&s, 9990), Some(999.0));
        // Three builds: the p90 rank rounds up to the slowest one.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 9000), Some(3.0));
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 5000), Some(2.0));
        assert_eq!(nearest_rank(&[7.0], 9999), Some(7.0));
        assert_eq!(nearest_rank(&[], 5000), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves 10 beyond, p99.9 leaves only 1.
        assert_eq!(tail_percentile_bp(1000, 10), Some(9900));
        assert_eq!(tail_percentile_bp(999, 10), Some(9000));
        // 10 000 samples support p99.9 (10 beyond) but not p99.99.
        assert_eq!(tail_percentile_bp(10_000, 10), Some(9990));
        assert_eq!(tail_percentile_bp(100_000, 10), Some(9999));
        assert_eq!(tail_percentile_bp(20, 10), Some(5000));
        assert_eq!(tail_percentile_bp(19, 10), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }
}
