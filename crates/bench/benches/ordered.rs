//! E7: order-sensitive query overhead vs unordered semantics (Figure 6).
//!
//! Gated behind the non-default `criterion` feature so the workspace builds
//! offline; enabling it requires restoring the criterion dev-dependency
//! (see crates/bench/Cargo.toml).

#[cfg(feature = "criterion")]
mod bench {
    use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
    use lotusx_bench::fixture;
    use lotusx_datagen::{queries, Dataset};
    use lotusx_twig::exec::{execute, Algorithm};
    use lotusx_twig::xpath::parse_query;

    fn bench_ordered(c: &mut Criterion) {
        for dataset in Dataset::ALL {
            let idx = fixture(dataset, 2);
            let mut group = c.benchmark_group(format!("E7-{}", dataset.name()));
            group.measurement_time(std::time::Duration::from_secs(1));
            group.warm_up_time(std::time::Duration::from_millis(300));
            group.sample_size(10);
            // The branching queries are the interesting ones (paths have no
            // sibling order to enforce).
            for q in queries::queries(dataset) {
                let unordered = parse_query(q.text).unwrap();
                if unordered.is_path() {
                    continue;
                }
                let mut ordered = unordered.clone();
                ordered.set_ordered(true);
                group.bench_with_input(BenchmarkId::new(q.id, "unordered"), &unordered, |b, p| {
                    b.iter(|| execute(&idx, p, Algorithm::Auto))
                });
                group.bench_with_input(BenchmarkId::new(q.id, "ordered"), &ordered, |b, p| {
                    b.iter(|| execute(&idx, p, Algorithm::Auto))
                });
            }
            group.finish();
        }
    }

    criterion_group! {
        name = benches;
        config = Criterion::default().without_plots();
        targets = bench_ordered
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
