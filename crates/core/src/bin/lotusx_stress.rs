//! Randomized robustness stress for the LotusX engine.
//!
//! Usage: `lotusx-stress [queries] [seed]` (defaults: 200 queries, seed 1).
//!
//! Fires seeded random twig and keyword queries — random join algorithms,
//! random (often starvation-level) budgets, deliberately explosive
//! wildcard twigs — at synthetic corpora of every dataset family, each
//! query wrapped in `catch_unwind`. The run fails (exit 1) if any panic
//! escapes the engine; truncated responses are expected and counted.

use lotusx::{Algorithm, Budget, CorpusSource, LotusX, QueryRequest};
use lotusx_datagen::{queries::queries, rng::XorShiftRng, Dataset};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

fn tag_pool(dataset: Dataset) -> &'static [&'static str] {
    match dataset {
        Dataset::DblpLike => &[
            "article",
            "author",
            "title",
            "year",
            "book",
            "publisher",
            "*",
        ],
        Dataset::XmarkLike => &["item", "person", "name", "description", "keyword", "*"],
        Dataset::TreebankLike => &["s", "np", "vp", "pp", "nn", "dt", "*"],
    }
}

fn pick<'a>(rng: &mut XorShiftRng, pool: &[&'a str]) -> &'a str {
    pool[(rng.next_u64() % pool.len() as u64) as usize]
}

/// A random twig: 1–4 steps of random tags and axes, with an occasional
/// branch predicate.
fn random_twig(rng: &mut XorShiftRng, dataset: Dataset) -> String {
    let pool = tag_pool(dataset);
    let steps = 1 + rng.next_u64() % 4;
    let mut text = String::new();
    for _ in 0..steps {
        text.push_str(if rng.gen_bool(0.6) { "//" } else { "/" });
        text.push_str(pick(rng, pool));
        if rng.gen_bool(0.25) {
            text.push('[');
            text.push_str(pick(rng, pool));
            text.push(']');
        }
    }
    text
}

/// A deliberately explosive all-wildcard descendant chain.
fn explosive_twig(rng: &mut XorShiftRng) -> String {
    "//*".repeat(2 + (rng.next_u64() % 4) as usize)
}

/// A budget that frequently starves the query mid-flight.
fn random_budget(rng: &mut XorShiftRng) -> Budget {
    let mut budget = Budget::default();
    if rng.gen_bool(0.5) {
        budget = budget.with_deadline(Duration::from_micros(rng.next_u64() % 2_000));
    }
    if rng.gen_bool(0.5) {
        budget = budget.with_node_quota(rng.next_u64() % 5_000);
    }
    if rng.gen_bool(0.25) {
        budget = budget.with_candidate_quota(rng.next_u64() % 500);
    }
    budget
}

fn random_request(rng: &mut XorShiftRng, dataset: Dataset) -> QueryRequest {
    let mut request = match rng.next_u64() % 8 {
        0 => {
            let words = ["data", "query", "xml", "the", "time", "name"];
            let terms = format!("{} {}", pick(rng, &words), pick(rng, &words));
            QueryRequest::keyword(terms)
        }
        1 | 2 => {
            let canned = queries(dataset);
            let q = &canned[(rng.next_u64() % canned.len() as u64) as usize];
            QueryRequest::twig(q.text)
        }
        3 => QueryRequest::twig(explosive_twig(rng)),
        _ => QueryRequest::twig(random_twig(rng, dataset)),
    };
    request = request.budget(random_budget(rng));
    if rng.gen_bool(0.5) {
        let algo = Algorithm::ALL[(rng.next_u64() % Algorithm::ALL.len() as u64) as usize];
        request = request.algorithm(algo);
    }
    if rng.gen_bool(0.3) {
        request = request.top_k(1 + (rng.next_u64() % 20) as usize);
    }
    request
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1);

    let mut rng = XorShiftRng::seed_from_u64(seed);
    let systems: Vec<(Dataset, LotusX)> = Dataset::ALL
        .into_iter()
        .map(|ds| {
            let source = CorpusSource::Spec {
                dataset: ds,
                scale: 1,
                seed,
            };
            (
                ds,
                LotusX::open(&source).expect("generated corpora always open"),
            )
        })
        .collect();

    let (mut complete, mut truncated, mut errors, mut panics) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..n {
        let (dataset, system) = &systems[(rng.next_u64() % systems.len() as u64) as usize];
        let request = random_request(&mut rng, *dataset);
        let text = request.text.clone();
        match catch_unwind(AssertUnwindSafe(|| system.query(&request))) {
            Ok(Ok(response)) => {
                if response.completeness.is_complete() {
                    complete += 1;
                } else {
                    truncated += 1;
                }
            }
            Ok(Err(_)) => errors += 1,
            Err(_) => {
                panics += 1;
                eprintln!("query {i} PANICKED on {dataset}: {text}");
            }
        }
    }

    println!(
        "{n} queries (seed {seed}): {complete} complete, {truncated} truncated, \
         {errors} errors, {panics} escaping panics"
    );
    if panics > 0 {
        std::process::exit(1);
    }
}
