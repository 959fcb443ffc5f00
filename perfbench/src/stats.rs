//! Exact statistics over the benchmark's own per-request samples.
//!
//! Percentiles are nearest-rank values of the sorted samples, never bucket
//! estimates.  A percentile is reported only when at least ten samples lie
//! beyond it, so a p99 needs at least 1000 samples.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `pct`-th percentile of `sorted` (ascending), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], pct: u32) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || pct == 0 || pct > 100 {
        return None;
    }
    // 1-based rank ceil(pct * n / 100), in integers so 99% of 1000 is 990.
    let rank = (pct as usize * n).div_ceil(100);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The smallest sample count for which [`percentile`] reports `pct`.
pub fn samples_needed(pct: u32) -> usize {
    (1..).find(|&n| n - (pct as usize * n).div_ceil(100) >= MIN_BEYOND).unwrap_or(usize::MAX)
}

/// Arithmetic mean (`0` for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median of unsorted values (`0` for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the middle half of unsorted values: the lowest and highest
/// quarter are dropped (`0` for none).  Unlike the median it moves
/// smoothly when the values fall into two clusters, and unlike the mean a
/// single stall does not move it.
pub fn middle_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    mean(&v[cut..v.len() - cut])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(99), 1000);
        assert_eq!(percentile(&ramp(999), 99), None);
        // Rank 990 of 1000: exactly ten samples (991..=1000) lie beyond.
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
        assert_eq!(percentile(&ramp(2000), 99), Some(1980.0));
    }

    #[test]
    fn p50_is_the_nearest_rank_median() {
        assert_eq!(samples_needed(50), 20);
        assert_eq!(percentile(&ramp(19), 50), None);
        assert_eq!(percentile(&ramp(20), 50), Some(10.0));
        assert_eq!(percentile(&ramp(101), 50), Some(51.0));
    }

    #[test]
    fn degenerate_inputs_report_nothing() {
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&ramp(100), 0), None);
        assert_eq!(percentile(&ramp(100), 101), None);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(middle_mean(&[]), 0.0);
        assert_eq!(middle_mean(&[5.0]), 5.0);
        // The lowest and highest two of eight are dropped.
        assert_eq!(middle_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]), 3.5);
    }
}
