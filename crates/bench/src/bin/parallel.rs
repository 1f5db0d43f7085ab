//! Serial vs parallel boot benchmark.
//!
//! Compares the serial (1-thread) and parallel (4-thread) code paths of
//! the two boot-time stages that still fork — index build and completion
//! precompute — on XMark-like data at two scales, verifies the outputs
//! are identical, and writes the measurements to `BENCH_parallel.json` in
//! the current directory. (Queries run on the calling thread; the
//! per-query fork was measured and removed — EXPERIMENTS.md E12.)
//!
//! ```sh
//! cargo run --release -p lotusx-bench --bin parallel
//! ```
//!
//! Speedups are *measured on the current host* — `host_cpus` is recorded
//! in the output so a single-core container (where every ratio is ≈ 1.0
//! by construction) is distinguishable from a genuine multi-core run.

use lotusx::{LotusX, QueryRequest};
use lotusx_autocomplete::ValueTrieCache;
use lotusx_bench::{median_time, SEED};
use lotusx_datagen::{generate, Dataset};
use lotusx_index::{BuildOptions, IndexedDocument};
use std::time::Duration;

const REPS: usize = 5;
const PARALLEL_THREADS: usize = 4;
const HOT_TAGS: usize = 16;
const SCALES: [u32; 2] = [8, 64];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(serial: Duration, parallel: Duration) -> f64 {
    if parallel > Duration::ZERO {
        serial.as_secs_f64() / parallel.as_secs_f64()
    } else {
        0.0
    }
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("dataset: xmark-like scales {SCALES:?}, host_cpus {host_cpus}");

    let mut equivalent = true;
    let mut sections = Vec::new();
    for scale in SCALES {
        let doc = generate(Dataset::XmarkLike, scale, SEED);

        // --- Index build: serial vs partitioned. ----------------------
        let build = |threads| {
            median_time(REPS, || {
                IndexedDocument::build_with(doc.clone(), &BuildOptions { threads })
            })
        };
        let (t_build_1, idx1) = build(1);
        let (t_build_n, idxn) = build(PARALLEL_THREADS);
        let elements = idx1.stats().element_count;
        equivalent &= idx1.all_elements() == idxn.all_elements();
        eprintln!(
            "scale {scale} index build ({elements} elements): serial {:.1}ms, {PARALLEL_THREADS}t {:.1}ms",
            ms(t_build_1),
            ms(t_build_n)
        );

        // --- Completion precompute: serial vs parallel trie builds. ---
        let precompute = |threads| {
            median_time(REPS, || {
                ValueTrieCache::new().precompute_hottest(&idx1, HOT_TAGS, threads)
            })
        };
        let (t_prec_1, built_1) = precompute(1);
        let (t_prec_n, built_n) = precompute(PARALLEL_THREADS);
        equivalent &= built_1 == built_n;
        eprintln!(
            "scale {scale} completion precompute ({built_1} tries): serial {:.1}ms, {PARALLEL_THREADS}t {:.1}ms",
            ms(t_prec_1),
            ms(t_prec_n)
        );

        sections.push(format!(
            "    {{\n      \"scale\": {scale},\n      \"elements\": {elements},\n      \"index_build\": {{\n        \"serial_ms\": {:.3},\n        \"parallel_ms\": {:.3},\n        \"speedup\": {:.3}\n      }},\n      \"completion_precompute\": {{\n        \"tries\": {built_n},\n        \"serial_ms\": {:.3},\n        \"parallel_ms\": {:.3},\n        \"speedup\": {:.3}\n      }}\n    }}",
            ms(t_build_1),
            ms(t_build_n),
            ratio(t_build_1, t_build_n),
            ms(t_prec_1),
            ms(t_prec_n),
            ratio(t_prec_1, t_prec_n),
        ));
    }

    // --- Query-result cache: uncached pipeline vs warm repeat. --------
    let system = LotusX::load_document(generate(Dataset::XmarkLike, SCALES[0], SEED));
    let hot_query = "//person[name]//emailaddress";
    let hot_pattern = lotusx_twig::parse_query(hot_query).unwrap();
    // `search_pattern` bypasses the cache: the full execute + rank cost.
    let (t_uncached, _) = median_time(REPS, || system.search_pattern(&hot_pattern).total_matches);
    let _ = system.query(&QueryRequest::twig(hot_query)); // populate the cache
    let (t_warm, _) = median_time(REPS, || {
        system
            .query(&QueryRequest::twig(hot_query))
            .unwrap()
            .total_matches
    });
    let cache_stats = system.query_cache_stats();
    eprintln!(
        "query cache (scale {}): uncached {:.3}ms, cached {:.3}ms ({} hits / {} misses)",
        SCALES[0],
        ms(t_uncached),
        ms(t_warm),
        cache_stats.hits,
        cache_stats.misses
    );

    let json = format!(
        "{{\n  \"experiment\": \"serial vs parallel boot stages\",\n  \"dataset\": \"xmark-like\",\n  \"seed\": {SEED},\n  \"reps\": {REPS},\n  \"host_cpus\": {host_cpus},\n  \"parallel_threads\": {PARALLEL_THREADS},\n  \"scales\": [\n{}\n  ],\n  \"query_cache\": {{\n    \"scale\": {},\n    \"uncached_ms\": {:.4},\n    \"cached_ms\": {:.4},\n    \"cache_speedup\": {:.1}\n  }},\n  \"equivalent_outputs\": {equivalent}\n}}\n",
        sections.join(",\n"),
        SCALES[0],
        ms(t_uncached),
        ms(t_warm),
        ratio(t_uncached, t_warm),
    );
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("{json}");
    eprintln!("wrote BENCH_parallel.json");
}
