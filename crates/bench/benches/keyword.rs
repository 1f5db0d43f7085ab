//! E10: keyword search — indexed SLCA vs the full-tree bitmask pass.
//! (Snapshot save/load is measured by `snapshot-bench`.)
//!
//! Gated behind the non-default `criterion` feature so the workspace builds
//! offline; enabling it requires restoring the criterion dev-dependency
//! (see crates/bench/Cargo.toml).

#[cfg(feature = "criterion")]
mod bench {
    use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
    use lotusx_bench::fixture;
    use lotusx_datagen::Dataset;
    use lotusx_keyword::KeywordEngine;

    const QUERIES: [&[&str]; 3] = [&["data", "query"], &["xml", "search", "index"], &["smith"]];

    fn bench_keyword(c: &mut Criterion) {
        for scale in [1u32, 4] {
            let idx = fixture(Dataset::DblpLike, scale);
            let engine = KeywordEngine::new(&idx);
            let mut group = c.benchmark_group(format!("E10-keyword-scale{scale}"));
            group.measurement_time(std::time::Duration::from_secs(1));
            group.warm_up_time(std::time::Duration::from_millis(300));
            group.sample_size(10);
            for (i, q) in QUERIES.iter().enumerate() {
                group.bench_with_input(BenchmarkId::new("indexed", i), q, |b, q| {
                    b.iter(|| engine.slca(q))
                });
                group.bench_with_input(BenchmarkId::new("bitmask", i), q, |b, q| {
                    b.iter(|| engine.slca_bitmask(q))
                });
            }
            group.finish();
        }
    }

    criterion_group! {
        name = benches;
        config = Criterion::default().without_plots();
        targets = bench_keyword
    }
}

#[cfg(feature = "criterion")]
fn main() {
    bench::benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}

#[cfg(not(feature = "criterion"))]
fn main() {
    eprintln!(
        "criterion benchmarks are disabled in the offline build; \
         run the experiments harness instead: cargo run --release -p lotusx-bench --bin experiments"
    );
}
