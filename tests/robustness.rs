//! Budget semantics end to end.
//!
//! The robustness contract: a budgeted query may stop early, but whatever
//! it returns is valid — every match is a true answer an unbudgeted run
//! would also find, truncation is always marked, generous budgets change
//! nothing bit-for-bit, and truncated outcomes never poison the query
//! cache.

use lotusx::{Budget, CancelToken, LotusX, QueryRequest, TruncationReason};
use lotusx_datagen::{generate, queries, Dataset};
use lotusx_obs::Stage;
use lotusx_serve::wire::encode_response;
use std::collections::HashSet;
use std::time::{Duration, Instant};

fn binding_keys(response: &lotusx::QueryResponse) -> Vec<Vec<u32>> {
    response
        .matches
        .iter()
        .map(|r| r.bindings.iter().map(|n| n.index() as u32).collect())
        .collect()
}

#[test]
fn exhausted_budgets_truncate_immediately_on_every_dataset() {
    for dataset in Dataset::ALL {
        let system = LotusX::load_document(generate(dataset, 1, 42));
        let starved = system
            .query(&QueryRequest::twig("//*").budget(Budget::default().with_node_quota(0)))
            .unwrap();
        assert_eq!(
            starved.completeness.truncation_reason(),
            Some(TruncationReason::NodeQuotaExceeded),
            "{dataset}"
        );
        assert!(starved.matches.is_empty(), "{dataset}");

        let token = CancelToken::new();
        token.cancel();
        let cancelled = system
            .query(&QueryRequest::twig("//*").budget(Budget::default().with_cancel(token)))
            .unwrap();
        assert_eq!(
            cancelled.completeness.truncation_reason(),
            Some(TruncationReason::Cancelled),
            "{dataset}"
        );

        let expired = system
            .query(&QueryRequest::twig("//*").deadline_ms(0))
            .unwrap();
        assert_eq!(
            expired.completeness.truncation_reason(),
            Some(TruncationReason::DeadlineExceeded),
            "{dataset}"
        );
    }
}

#[test]
fn node_quota_partials_are_valid_subsets_of_the_full_answer() {
    let doc = generate(Dataset::DblpLike, 1, 7);
    let full_system = LotusX::load_document(doc.clone());
    let full = full_system
        .query(&QueryRequest::twig("//*//*//*").top_k(1_000_000))
        .unwrap();
    assert!(full.completeness.is_complete());
    assert!(full.total_matches > 100, "query must be non-trivial");
    let full_set: HashSet<Vec<u32>> = binding_keys(&full).into_iter().collect();

    for quota in [1u64, 100, 10_000, 10_000_000] {
        let system = LotusX::load_document(doc.clone());
        let budget = Budget::default().with_node_quota(quota);
        let response = system
            .query(
                &QueryRequest::twig("//*//*//*")
                    .top_k(1_000_000)
                    .budget(budget),
            )
            .unwrap();
        for bindings in binding_keys(&response) {
            assert!(
                full_set.contains(&bindings),
                "quota {quota}: partial result {bindings:?} is not a true answer"
            );
        }
        if response.completeness.is_complete() {
            assert_eq!(
                response.total_matches, full.total_matches,
                "quota {quota}: a complete response must be the whole answer"
            );
        } else {
            assert_eq!(
                response.completeness.truncation_reason(),
                Some(TruncationReason::NodeQuotaExceeded),
                "quota {quota}"
            );
        }
    }
}

/// A candidate is a match row that came into existence: `candidates: 5`
/// stops the enumeration within one ticker stride of the fifth row, the
/// answer is marked, valid and never cached — and a quota that is not
/// reached changes nothing.
#[test]
fn candidate_quotas_are_charged_per_row() {
    let system = LotusX::load_str(&generate(Dataset::XmarkLike, 1, 3).to_xml()).unwrap();
    let full = system
        .query(&QueryRequest::twig("//item/name").top_k(1_000_000))
        .unwrap();
    assert!(full.completeness.is_complete());
    assert!(full.total_matches > 100);
    let full_set: HashSet<Vec<u32>> = binding_keys(&full).into_iter().collect();

    let fresh = LotusX::load_str(&generate(Dataset::XmarkLike, 1, 3).to_xml()).unwrap();
    for algorithm in [lotusx::Algorithm::StructuralJoin, lotusx::Algorithm::Naive] {
        let starved = fresh
            .query(
                &QueryRequest::twig("//item/name")
                    .algorithm(algorithm)
                    .budget(Budget::default().with_candidate_quota(5)),
            )
            .unwrap();
        assert_eq!(
            starved.completeness.truncation_reason(),
            Some(TruncationReason::CandidateQuotaExceeded),
            "{algorithm}"
        );
        // The rows that existed before the trip are ranked; navigation
        // trips inside the join, and a tripped guard ranks nothing.
        assert!(starved.matches.len() < 10, "{algorithm}");
        assert_eq!(
            starved.matches.is_empty(),
            algorithm == lotusx::Algorithm::Naive
        );
        for bindings in binding_keys(&starved) {
            assert!(full_set.contains(&bindings), "{algorithm}: {bindings:?}");
        }
        assert_eq!(fresh.query_cache_stats().entries, 0, "never cached");
    }
    // Every `//person/name` row scores the same, so ranking stops the
    // enumerator at the tenth of them: 50 candidates are never reached.
    let twig = || {
        QueryRequest::twig("//person/name")
            .algorithm(lotusx::Algorithm::StructuralJoin)
            .top_k(10)
    };
    let plain = fresh.query(&twig()).unwrap();
    assert!(plain.total_matches > 50);
    let roomy = LotusX::load_str(&generate(Dataset::XmarkLike, 1, 3).to_xml())
        .unwrap()
        .query(&twig().budget(Budget::default().with_candidate_quota(50)))
        .unwrap();
    assert!(roomy.completeness.is_complete());
    assert_eq!(encode_response(&roomy), encode_response(&plain));
}

#[test]
fn generous_budgets_change_nothing() {
    let generous = || {
        Budget::default()
            .with_deadline(Duration::from_secs(600))
            .with_node_quota(1 << 40)
            .with_candidate_quota(1 << 40)
            .with_cancel(CancelToken::new())
    };
    for dataset in Dataset::ALL {
        let doc = generate(dataset, 1, 11);
        let plain_system = LotusX::load_document(doc.clone());
        let budgeted_system = LotusX::load_document(doc);
        for q in ["//*", "//title", "//*[*]"] {
            let plain = plain_system.query(&QueryRequest::twig(q)).unwrap();
            let budgeted = budgeted_system
                .query(&QueryRequest::twig(q).budget(generous()))
                .unwrap();
            assert!(budgeted.completeness.is_complete(), "{dataset}: {q}");
            assert_eq!(
                plain.total_matches, budgeted.total_matches,
                "{dataset}: {q}"
            );
            assert_eq!(
                binding_keys(&plain),
                binding_keys(&budgeted),
                "{dataset}: {q}"
            );
            for (a, b) in plain.matches.iter().zip(budgeted.matches.iter()) {
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "{dataset}: {q}");
                assert_eq!(a.snippet, b.snippet, "{dataset}: {q}");
            }
        }
    }
}

#[test]
fn one_ms_deadline_on_a_large_corpus_returns_partial_results_in_bounded_time() {
    // The acceptance scenario: an explosive all-wildcard twig over the
    // largest synthetic corpus, capped at 1 ms. Unbudgeted this would
    // enumerate millions of chains; budgeted it must come back promptly
    // with valid, marked-partial results.
    let system = LotusX::load_document(generate(Dataset::TreebankLike, 4, 42));
    let t0 = Instant::now();
    let response = system
        .query(
            &QueryRequest::twig("//*//*//*//*//*")
                .top_k(50)
                .deadline_ms(1),
        )
        .unwrap();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "budgeted query took {elapsed:?}"
    );
    assert_eq!(
        response.completeness.truncation_reason(),
        Some(TruncationReason::DeadlineExceeded)
    );
    for m in response.matches.iter() {
        assert_eq!(m.bindings.len(), 5, "every partial hit binds all 5 steps");
        assert!(!m.snippet.is_empty());
    }
}

#[test]
fn truncated_outcomes_never_poison_the_query_cache() {
    let system = LotusX::load_document(generate(Dataset::XmarkLike, 1, 3));
    let starved = Budget::default().with_node_quota(1);
    let first = system
        .query(&QueryRequest::twig("//item/name").budget(starved))
        .unwrap();
    assert!(!first.completeness.is_complete());

    let full = system.query(&QueryRequest::twig("//item/name")).unwrap();
    assert!(full.completeness.is_complete());
    assert!(
        full.total_matches > 0,
        "the truncated run must not be reused"
    );

    // A starved rerun is now served the cached complete answer.
    let starved = Budget::default().with_node_quota(1);
    let again = system
        .query(&QueryRequest::twig("//item/name").budget(starved))
        .unwrap();
    assert!(again.completeness.is_complete());
    assert_eq!(again.total_matches, full.total_matches);
}

/// The empty-result rewriter runs under the request's budget: a node
/// quota that trips inside the rewrite search stops it, the response is
/// marked truncated and applies no rewrite, nothing is cached — and a
/// budget that never trips changes no byte of the answer.
#[test]
fn budgets_bound_the_rewrite_search() {
    let (mut stopped_in_rewrite, mut recovered) = (0, 0);
    for dataset in Dataset::ALL {
        let doc = generate(dataset, 1, 42);
        let reference = LotusX::load_document(doc.clone());
        for q in queries::broken_queries(dataset) {
            let full = reference.query(&QueryRequest::twig(q.text)).unwrap();
            assert!(full.completeness.is_complete(), "{dataset} {}", q.id);
            let Some(applied) = &full.rewrite else {
                continue;
            };
            recovered += 1;
            // Rising quotas on a fresh engine: truncated until one
            // suffices, and that answer is the unbudgeted one.
            let system = LotusX::load_document(doc.clone());
            let mut completed = false;
            for quota in (0..40).map(|shift| 1u64 << shift) {
                let budget = Budget::default().with_node_quota(quota);
                let request = QueryRequest::twig(q.text).budget(budget).profiled(true);
                let mut got = system.query(&request).unwrap();
                let stages = got.profile.take().expect("profiled").stages;
                if got.completeness.is_complete() {
                    assert_eq!(
                        encode_response(&got),
                        encode_response(&full),
                        "{dataset} {} at quota {quota}",
                        q.id
                    );
                    completed = true;
                    break;
                }
                assert_eq!(
                    got.completeness.truncation_reason(),
                    Some(TruncationReason::NodeQuotaExceeded)
                );
                assert_eq!(system.query_cache_stats().entries, 0, "never cached");
                // Only a rewrite whose search ran to completion is ever
                // applied, so it is the one the unbudgeted run found.
                match &got.rewrite {
                    Some(info) => assert_eq!(info.pattern, applied.pattern, "{dataset} {}", q.id),
                    None => assert!(got.matches.is_empty(), "{dataset} {}", q.id),
                }
                let ran = |stage: Stage| stages.iter().filter(|(s, _)| *s == stage).count();
                if ran(Stage::Rewrite) == 1 && got.rewrite.is_none() {
                    assert_eq!(
                        ran(Stage::Match),
                        1,
                        "a cut-short search re-executes nothing"
                    );
                    stopped_in_rewrite += 1;
                }
            }
            assert!(completed, "{dataset} {}: 2^39 visits suffice", q.id);
        }
    }
    assert!(recovered >= 6, "broken queries must rewrite: {recovered}");
    assert!(
        stopped_in_rewrite >= recovered,
        "quotas must trip inside the search: {stopped_in_rewrite} of {recovered}"
    );
}

#[test]
fn keyword_queries_respect_budgets() {
    let system = LotusX::load_document(generate(Dataset::DblpLike, 1, 5));
    let expired = system
        .query(&QueryRequest::keyword("the data").deadline_ms(0))
        .unwrap();
    assert!(!expired.completeness.is_complete());
    assert!(expired.matches.is_empty());

    let plain = system.query(&QueryRequest::keyword("the data")).unwrap();
    assert!(plain.completeness.is_complete());
}
