//! Parallel == serial, end to end.
//!
//! What still forks — the partitioned index build, the value-trie
//! precompute behind completion, and `query_batch` over the concurrent
//! caches — must be *observationally identical* to the serial code path.
//! The build is checked at thread counts 1, 2 and 8 over the three
//! synthetic dataset families (on a single-core host the chunked executor
//! degenerates to a plain loop); the engine-level cases run at the host's
//! `default_threads()`. Queries themselves run on the calling thread.

use lotusx::{LotusX, QueryRequest, QueryResponse};
use lotusx_datagen::{generate, Dataset};
use lotusx_index::{BuildOptions, IndexedDocument};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

const QUERIES: [&str; 6] = [
    "//title",
    "//book/title",
    "//*[title][author]",
    "//book[year >= 2000]/title",
    "ordered //book[title][author]",
    "//nosuchtag/title",
];

/// A comparable projection of one query response: everything a caller
/// can observe, with scores compared bit-for-bit.
fn response_key(response: &QueryResponse) -> (usize, Vec<(u64, Vec<u32>, String)>) {
    (
        response.total_matches,
        response
            .matches
            .iter()
            .map(|r| {
                (
                    r.score.to_bits(),
                    r.bindings.iter().map(|n| n.index() as u32).collect(),
                    r.snippet.clone(),
                )
            })
            .collect(),
    )
}

#[test]
fn parallel_index_build_is_identical_across_thread_counts() {
    for dataset in Dataset::ALL {
        let doc = generate(dataset, 1, 42);
        let serial = IndexedDocument::build_with(doc.clone(), &BuildOptions { threads: 1 });
        for threads in THREAD_COUNTS {
            let parallel = IndexedDocument::build_with(doc.clone(), &BuildOptions { threads });
            assert_eq!(
                serial.all_elements(),
                parallel.all_elements(),
                "{dataset}: element stream at {threads} threads"
            );
            assert_eq!(
                serial.tags().total_entries(),
                parallel.tags().total_entries(),
                "{dataset}: total tag entries at {threads} threads"
            );
            let df = |idx: &IndexedDocument| {
                let mut terms: Vec<(String, usize)> = idx
                    .values()
                    .terms()
                    .map(|(t, df)| (t.to_string(), df))
                    .collect();
                terms.sort();
                terms
            };
            assert_eq!(
                df(&serial),
                df(&parallel),
                "{dataset}: term document frequencies at {threads} threads"
            );
            for (sym, _) in serial.document().symbols().iter() {
                assert_eq!(
                    serial.tags().stream(sym),
                    parallel.tags().stream(sym),
                    "{dataset}: tag stream of symbol {sym:?} at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn completions_are_identical_across_thread_counts() {
    let doc = generate(Dataset::DblpLike, 1, 11);
    let reference = LotusX::load_document(doc.clone());
    let ref_engine = reference.completion_engine();
    for _ in THREAD_COUNTS {
        let system = LotusX::load_document(doc.clone());
        let engine = system.completion_engine();
        for prefix in ["", "a", "t", "b"] {
            let a: Vec<_> = ref_engine
                .complete_tag_global(prefix, 10)
                .into_iter()
                .map(|c| (c.name, c.count))
                .collect();
            let b: Vec<_> = engine
                .complete_tag_global(prefix, 10)
                .into_iter()
                .map(|c| (c.name, c.count))
                .collect();
            assert_eq!(a, b, "tag completions for {prefix:?}");
        }
        for (tag, prefix) in [("title", ""), ("title", "a"), ("author", "b")] {
            let a: Vec<_> = ref_engine
                .complete_value(tag, prefix, 10)
                .into_iter()
                .map(|c| (c.term, c.count))
                .collect();
            let b: Vec<_> = engine
                .complete_value(tag, prefix, 10)
                .into_iter()
                .map(|c| (c.term, c.count))
                .collect();
            assert_eq!(a, b, "value completions for {tag}/{prefix:?}");
        }
    }
}

#[test]
fn batch_search_is_identical_to_sequential_searches() {
    let system = LotusX::load_document(generate(Dataset::XmarkLike, 1, 3));
    let requests: Vec<QueryRequest> = QUERIES.iter().map(|q| QueryRequest::twig(*q)).collect();
    let batch = system.query_batch(&requests);
    for (q, got) in QUERIES.iter().zip(&batch) {
        let got = got.as_ref().unwrap();
        let expect = system.query(&QueryRequest::twig(*q)).unwrap();
        assert_eq!(response_key(got), response_key(&expect), "{q}");
    }
}
