//! Order statistics for timing samples.

/// Samples that must lie strictly beyond a reported tail percentile: with
/// fewer, the percentile is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p <= 1) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Median of `samples` (nearest rank from below for even counts is biased,
/// so the two middle values are averaged); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// The tail percentile `p` of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples_beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    percentile(samples, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 999 samples: ceil(0.99 * 999) = 990, so 9 lie beyond p99.
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(samples_beyond(short.len(), 0.99), 9);
        assert_eq!(tail_percentile(&short, 0.99), None);
        // 1000 samples: exactly 10 beyond.
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(samples_beyond(enough.len(), 0.99), 10);
        assert_eq!(tail_percentile(&enough, 0.99), Some(989.0));
        // The serving workload's ~3840 batches leave 38 beyond p99.
        assert_eq!(samples_beyond(3840, 0.99), 38);
        // The median always qualifies once there are 20 samples.
        assert!(tail_percentile(&enough[..20], 0.5).is_some());
        assert!(tail_percentile(&enough[..19], 0.5).is_none());
    }
}
