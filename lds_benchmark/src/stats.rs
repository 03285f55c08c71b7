//! Percentiles of latency samples.

/// Nearest-rank percentile of ascending `sorted` samples (`p` in `0..=100`).
/// Returns `None` for no samples.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`percentile`] of nanosecond samples, in microseconds; NaN for none.
pub fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    percentile(sorted_ns, p).map_or(f64::NAN, |ns| ns as f64 / 1e3)
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The highest of p50 / p90 / p99 / p99.9 / p99.99 that still has at least
/// ten samples beyond it, or `None` below twenty samples. A percentile with
/// fewer samples beyond it is decided by a handful of outliers.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50));
        assert_eq!(percentile(&samples, 99.0), Some(99));
        assert_eq!(percentile(&samples, 100.0), Some(100));
        assert_eq!(percentile(&samples, 0.0), Some(1));
        assert_eq!(percentile(&[42], 99.0), Some(42));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), Some(2));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn medians() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
