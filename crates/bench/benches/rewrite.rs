//! E6/E9b: query-rewriting latency, with and without DataGuide
//! satisfiability pruning (Figure 5 and the pruning ablation).
//!
//! Gated behind the non-default `criterion` feature so the workspace builds
//! offline; enabling it requires restoring the criterion dev-dependency
//! (see crates/bench/Cargo.toml).

#[cfg(feature = "criterion")]
mod bench {
    use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
    use lotusx_bench::fixture;
    use lotusx_datagen::{queries, Dataset};
    use lotusx_guard::QueryGuard;
    use lotusx_rewrite::{Rewriter, RewriterConfig, SynonymTable};
    use lotusx_twig::xpath::parse_query;

    fn bench_rewriting(c: &mut Criterion) {
        for dataset in Dataset::ALL {
            let idx = fixture(dataset, 1);
            let pruned = Rewriter::new(&idx);
            let unpruned = Rewriter::with(
                &idx,
                SynonymTable::default_table(),
                RewriterConfig {
                    guide_pruning: false,
                    ..RewriterConfig::default()
                },
            );
            let mut group = c.benchmark_group(format!("E6-{}", dataset.name()));
            group.measurement_time(std::time::Duration::from_secs(1));
            group.warm_up_time(std::time::Duration::from_millis(300));
            group.sample_size(10);
            for q in queries::broken_queries(dataset) {
                let pattern = parse_query(q.text).expect("broken queries still parse");
                group.bench_with_input(BenchmarkId::new(q.id, "pruned"), &pattern, |b, p| {
                    b.iter(|| pruned.rewrite(p, None, &QueryGuard::unlimited()))
                });
                group.bench_with_input(BenchmarkId::new(q.id, "unpruned"), &pattern, |b, p| {
                    b.iter(|| unpruned.rewrite(p, None, &QueryGuard::unlimited()))
                });
            }
            group.finish();
        }
    }

    criterion_group! {
        name = benches;
        config = Criterion::default().without_plots();
        targets = bench_rewriting
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
