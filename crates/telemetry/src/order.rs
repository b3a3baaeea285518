//! Exact order statistics over raw samples.

/// The nearest-rank quantile of an ascending sample: the value at rank
/// ⌈`bp`·n / 10 000⌉, clamped to 1..=n, where `bp` is the quantile in
/// hundredths of a percent (`9900` is p99). Integer rank arithmetic, so
/// no rounding moves a rank. `None` for an empty sample.
pub fn nearest_rank<T: Copy>(sorted: &[T], bp: u64) -> Option<T> {
    let n = sorted.len() as u64;
    let rank = (bp * n).div_ceil(10_000).clamp(1, n.max(1));
    sorted.get(rank as usize - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let s: Vec<u64> = (1..=300).collect();
        assert_eq!(nearest_rank(&s, 5000), Some(150));
        assert_eq!(nearest_rank(&s, 9500), Some(285));
        assert_eq!(nearest_rank(&s, 9900), Some(297));
        assert_eq!(nearest_rank(&s, 10_000), Some(300));
        assert_eq!(nearest_rank(&s, 0), Some(1), "rank clamps to 1");
    }

    #[test]
    fn one_sample_is_every_quantile_and_none_has_none() {
        for bp in [0, 5000, 9900, 10_000] {
            assert_eq!(nearest_rank(&[7.5], bp), Some(7.5));
            assert_eq!(nearest_rank::<u64>(&[], bp), None);
        }
    }
}
