//! Lock-free log2-bucketed latency histograms.
//!
//! A [`LatencyHistogram`] has 64 fixed buckets: a nanosecond value `v`
//! lands in the bucket of its bit length (`v = 0` → bucket 0, otherwise
//! bucket `⌊log2 v⌋ + 1`), so bucket `i ≥ 1` covers `[2^(i-1), 2^i)`.
//! Recording is a handful of relaxed atomic adds — safe to leave enabled
//! on the hot path — and percentile estimates are read from a snapshot
//! without blocking writers.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per possible bit length of a `u64`, plus zero.
pub const BUCKETS: usize = 65;

/// Bucket index of a nanosecond value: its bit length.
fn bucket_of(ns: u64) -> usize {
    (u64::BITS - ns.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket, in nanoseconds.
fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= 64 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// A concurrent latency histogram with log2 buckets.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// A point-in-time, plain-data view of a [`LatencyHistogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples, in nanoseconds.
    pub sum_ns: u64,
    /// Largest recorded sample, in nanoseconds.
    pub max_ns: u64,
    /// Estimated median (upper bound of the median's bucket).
    pub p50_ns: u64,
    /// Estimated 95th percentile.
    pub p95_ns: u64,
    /// Estimated 99th percentile.
    pub p99_ns: u64,
}

impl HistogramSnapshot {
    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Resets every bucket and counter to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot (relaxed reads; exact once
    /// writers quiesce) and derives the percentile estimates.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let count: u64 = buckets.iter().sum();
        let max_ns = self.max_ns.load(Ordering::Relaxed);
        let percentile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Rank of the q-quantile sample, 1-based, rounded up.
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_upper_bound(i).min(max_ns);
                }
            }
            max_ns
        };
        HistogramSnapshot {
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns,
            p50_ns: percentile(0.50),
            p95_ns: percentile(0.95),
            p99_ns: percentile(0.99),
        }
    }
}

/// Formats a nanosecond duration compactly (`999ns`, `12.3µs`, `4.5ms`,
/// `1.2s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Every value falls inside its bucket's range.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 123_456, u64::MAX] {
            let b = bucket_of(v);
            assert!(v <= bucket_upper_bound(b), "{v} in bucket {b}");
            if b > 0 {
                assert!(v > bucket_upper_bound(b - 1), "{v} above bucket {}", b - 1);
            }
        }
    }

    #[test]
    fn snapshot_counts_and_sum() {
        let h = LatencyHistogram::new();
        for ns in [10u64, 20, 30, 40] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_ns, 100);
        assert_eq!(s.max_ns, 40);
        assert_eq!(s.mean_ns(), 25);
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds() {
        let h = LatencyHistogram::new();
        // 90 fast samples at ~1µs, 10 slow at ~1ms.
        for _ in 0..90 {
            h.record_ns(1_000);
        }
        for _ in 0..10 {
            h.record_ns(1_000_000);
        }
        let s = h.snapshot();
        // p50 must come from the fast bucket (bit length 10 → < 2µs)…
        assert!(s.p50_ns >= 1_000 && s.p50_ns < 2_048, "p50 {}", s.p50_ns);
        // …and p95/p99 from the slow one, capped by the observed max.
        assert_eq!(s.p95_ns, 1_000_000);
        assert_eq!(s.p99_ns, 1_000_000);
    }

    #[test]
    fn percentiles_never_exceed_max() {
        let h = LatencyHistogram::new();
        h.record_ns(5);
        let s = h.snapshot();
        assert_eq!(s.p50_ns, 5);
        assert_eq!(s.p99_ns, 5);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert_eq!(s.mean_ns(), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let h = LatencyHistogram::new();
        h.record_ns(123);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = LatencyHistogram::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1_000u64 {
                        h.record_ns(i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4_000);
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }
}
