//! Order statistics: nearest-rank percentiles of one lifetime's
//! samples, and medians across lifetimes.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of an ascending
/// slice: the smallest sample with at least `p` percent of the samples
/// at or below it. `None` on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input is sorted");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Number of samples strictly beyond the `p`-th percentile's rank — the
/// README's rule is to report only percentiles with at least ten.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// The median of unsorted floats (mean of the two middle values for an
/// even count). `None` on an empty slice.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank median of unsorted integers.
pub fn median_u64(values: &[u64]) -> Option<u64> {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile(&v, 50.0)
}

/// The mean, `0.0` on an empty slice.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), Some(5));
        assert_eq!(percentile(&v, 90.0), Some(9));
        assert_eq!(percentile(&v, 91.0), Some(10));
        assert_eq!(percentile(&v, 100.0), Some(10));
        assert_eq!(percentile(&v, 0.001), Some(1));
        assert_eq!(percentile(&[7], 50.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_of_a_seven_class_mix_sits_inside_a_class() {
        // Seven equally frequent request classes (the query-cold mix):
        // the median is the middle of the fourth class and p90 lies
        // inside the slowest, so neither sits on a class boundary.
        let mut v = Vec::new();
        for class in 1..=7u64 {
            for jitter in 0..100u64 {
                v.push(class * 1000 + jitter);
            }
        }
        v.sort_unstable();
        assert_eq!(percentile(&v, 50.0), Some(4049));
        assert_eq!(percentile(&v, 90.0), Some(7029));
    }

    #[test]
    fn beyond_counts() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(0, 90.0), 0);
        assert_eq!(samples_beyond(5, 100.0), 0);
    }

    #[test]
    fn median_of_boots_outvotes_a_stalled_one() {
        // Four boots agree, the host stalled one: the mean moves by a
        // fifth of the stall, the median not at all.
        let boots = [0.199, 0.201, 0.200, 0.340, 0.2005];
        assert_eq!(median_f64(&boots), Some(0.2005));
    }

    #[test]
    fn medians_and_mean() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_f64(&[]), None);
        assert_eq!(median_u64(&[9, 1, 5]), Some(5));
        assert_eq!(mean(&[1, 2, 3]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
