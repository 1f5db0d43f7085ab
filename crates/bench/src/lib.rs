//! Shared fixtures and timing helpers for the benchmarks and the
//! experiments harness.

#![warn(missing_docs)]

pub mod metrics;

use lotusx::{CorpusSource, LotusX};
use lotusx_datagen::Dataset;
use lotusx_index::IndexedDocument;
use std::time::{Duration, Instant};

/// The seed every experiment uses, for reproducibility.
pub const SEED: u64 = 2012;

/// Builds the indexed document for a dataset at a scale, through the
/// unified [`LotusX::open`] corpus entry point.
pub fn fixture(dataset: Dataset, scale: u32) -> IndexedDocument {
    LotusX::open(&CorpusSource::Spec {
        dataset,
        scale,
        seed: SEED,
    })
    .expect("generated corpora always open")
    .into_index()
}

/// Times `f` once, returning (elapsed, result).
pub fn time_once<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Median wall time of `reps` runs of `f` (result of the last run kept).
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    assert!(reps > 0);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (t, out) = time_once(&mut f);
        times.push(t);
        last = Some(out);
    }
    times.sort();
    (times[times.len() / 2], last.expect("reps > 0"))
}

/// Formats a duration compactly for tables (µs below 1 ms, ms otherwise).
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.1}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1000.0)
    } else {
        format!("{:.2}s", us / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build_for_all_datasets() {
        for ds in Dataset::ALL {
            let idx = fixture(ds, 1);
            assert!(idx.stats().element_count > 1000, "{ds}");
        }
    }

    #[test]
    fn median_time_is_monotone_sane() {
        let (t, v) = median_time(3, || 21 * 2);
        assert_eq!(v, 42);
        assert!(t < Duration::from_secs(1));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500.0µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }
}
