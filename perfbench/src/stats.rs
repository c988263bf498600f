//! Order statistics for the benchmark's timings and latencies.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`): the smallest sample with
/// at least `p`% of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice, a NaN sample, or `p` outside `(0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let s = sorted(xs);
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.max(1) - 1]
}

/// The highest percentile that still has at least `min_beyond` samples
/// beyond it, as `(level in percent, value)`; `None` when there are too
/// few samples for any such percentile.
pub fn tail(xs: &[f64], min_beyond: usize) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= min_beyond {
        return None;
    }
    let s = sorted(xs);
    let k = n - min_beyond;
    Some((100.0 * k as f64 / n as f64, s[k - 1]))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "order statistic of no samples");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_of_a_thousand_leaves_exactly_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > 990.0).count(), 10);
        assert_eq!(percentile(&xs, 50.0), 500.0);
        // One sample fewer leaves only nine beyond p99, so the tail rule
        // falls below p99.
        assert!(tail(&xs[1..], 10).unwrap().0 < 99.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&xs, 10), Some((99.0, 990.0)));
        // 2000 samples: p99.5, again exactly ten samples above it.
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        let (level, value) = tail(&xs, 10).unwrap();
        assert_eq!((level, value), (99.5, 1990.0));
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), 10);
        // The tail agrees with the nearest-rank percentile at its level.
        assert_eq!(percentile(&xs, level), value);
    }

    #[test]
    fn tail_needs_more_samples_than_the_margin() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), None);
        assert_eq!(tail(&[1.0; 11], 10), Some((100.0 / 11.0, 1.0)));
    }
}
