//! Shared fixtures and timing helpers for the benchmarks and the
//! experiments harness.

#![warn(missing_docs)]

pub mod metrics;

use lotusx::{CorpusSource, LotusX};
use lotusx_autocomplete::TagCandidate;
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

/// Ablation baseline (E3, E8): global tag completion by a linear scan over
/// every tag name instead of the tag trie. Same candidates as
/// `CompletionEngine::complete_tag_global`, a different cost curve.
pub fn complete_tag_scan(idx: &IndexedDocument, prefix: &str, k: usize) -> Vec<TagCandidate> {
    let frequency = |sym| idx.columns().view(sym).len() as u64;
    let mut out: Vec<TagCandidate> = idx
        .document()
        .symbols()
        .iter()
        .filter(|&(sym, name)| name.starts_with(prefix) && frequency(sym) > 0)
        .map(|(sym, name)| TagCandidate {
            name: name.to_string(),
            count: frequency(sym),
        })
        .collect();
    out.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.name.cmp(&b.name)));
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotusx_autocomplete::CompletionEngine;

    #[test]
    fn scan_and_trie_baselines_agree() {
        let idx = IndexedDocument::from_str(
            "<bib>\
               <book><title>data web</title><author>lu</author><publisher>mk</publisher></book>\
               <book><title>xml handbook</title><author>goldfarb</author><publisher>ph</publisher></book>\
               <article><title>twigstack paper</title><author>bruno</author><journal>tods</journal></article>\
             </bib>",
        )
        .unwrap();
        let e = CompletionEngine::new(&idx);
        for prefix in ["", "a", "t", "z", "pub"] {
            assert_eq!(
                e.complete_tag_global(prefix, 50),
                complete_tag_scan(&idx, prefix, 50),
                "prefix {prefix}"
            );
        }
    }

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
