//! E8: scalability — query and completion time vs document size
//! (Figure 7). Trie completion should stay flat while query time and the
//! linear-scan baseline grow with the document.
//!
//! Gated behind the non-default `criterion` feature so the workspace builds
//! offline; enabling it requires restoring the criterion dev-dependency
//! (see crates/bench/Cargo.toml).

#[cfg(feature = "criterion")]
mod bench {
    use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
    use lotusx_autocomplete::{CompletionEngine, PositionContext};
    use lotusx_bench::fixture;
    use lotusx_datagen::Dataset;
    use lotusx_twig::exec::{execute, Algorithm};
    use lotusx_twig::xpath::parse_query;
    use lotusx_twig::Axis;

    fn bench_scalability(c: &mut Criterion) {
        let pattern = parse_query("//article[author][title]/year").unwrap();
        let mut group = c.benchmark_group("E8-scalability");
        group.measurement_time(std::time::Duration::from_secs(1));
        group.warm_up_time(std::time::Duration::from_millis(300));
        group.sample_size(10);
        for scale in [1u32, 2, 4, 8] {
            let idx = fixture(Dataset::DblpLike, scale);
            group.bench_with_input(
                BenchmarkId::new("structural-join-D2", scale),
                &idx,
                |b, idx| b.iter(|| execute(idx, &pattern, Algorithm::StructuralJoin)),
            );
            group.bench_with_input(BenchmarkId::new("naive-D2", scale), &idx, |b, idx| {
                b.iter(|| execute(idx, &pattern, Algorithm::Naive))
            });
            let engine = CompletionEngine::new(&idx);
            let ctx = PositionContext::from_tag_path(&["dblp", "article"], Axis::Child);
            group.bench_with_input(BenchmarkId::new("completion-aware", scale), &(), |b, _| {
                b.iter(|| engine.complete_tag(&ctx, "a", 10))
            });
            group.bench_with_input(BenchmarkId::new("completion-trie", scale), &(), |b, _| {
                b.iter(|| engine.complete_tag_global("a", 10))
            });
            group.bench_with_input(BenchmarkId::new("completion-scan", scale), &(), |b, _| {
                b.iter(|| engine.complete_tag_scan("a", 10))
            });
        }
        group.finish();
    }

    criterion_group! {
        name = benches;
        config = Criterion::default().without_plots();
        targets = bench_scalability
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
