//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-quantile of `n`
//! sorted samples is the sample at 1-based rank `ceil(p * n)`. It always
//! returns a measured value (never an interpolation between two), so a
//! percentile sits inside one mode of a multi-modal distribution instead
//! of between two.

/// Nearest-rank `p`-quantile (`0 < p <= 1`) of `samples`; `None` when
/// empty. `samples` need not be sorted.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Smallest sample; `None` when empty.
pub fn min(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::min)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// How many samples lie strictly above the `p`-quantile — the
/// benchmark reports a percentile only with its tail sample count.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    match percentile(samples, p) {
        Some(q) => samples.iter().filter(|&&x| x > q).count(),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_small_sets() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
        assert_eq!(percentile(&xs, 0.9), Some(5.0));
        assert_eq!(percentile(&xs, 0.2), Some(1.0));
        assert_eq!(percentile(&xs, 0.21), Some(2.0));
        assert_eq!(percentile(&xs, 1.0), Some(5.0));
        // Even count: the lower middle sample, never an average.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn p90_of_a_hundred_is_the_ninetieth_sample() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(beyond(&xs, 0.9), 10);
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(beyond(&xs, 0.5), 50);
    }

    #[test]
    fn percentile_stays_inside_a_mode() {
        // Two modes, half the samples each: the median is a sample of
        // the lower mode, not a value between the modes.
        let mut xs = vec![1.0; 50];
        xs.extend(vec![10.0; 50]);
        assert_eq!(median(&xs), Some(1.0));
        assert_eq!(percentile(&xs, 0.51), Some(10.0));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0], 0.0), None);
        assert_eq!(percentile(&[1.0], 1.5), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(min(&[]), None);
        assert_eq!(min(&[2.0, 0.5, 3.0]), Some(0.5));
        assert_eq!(beyond(&[], 0.9), 0);
    }
}
