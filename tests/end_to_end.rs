//! Cross-crate integration tests: the full pipeline (generate → parse →
//! index → complete → query → rank → rewrite) on every dataset family.

use lotusx::{Algorithm, Axis, LotusX, PositionContext, QueryRequest, QueryResponse, Session};
use lotusx_datagen::{generate, queries, Dataset};
use lotusx_twig::matcher::match_is_valid;
use lotusx_twig::xpath::parse_query;

fn system(ds: Dataset) -> LotusX {
    LotusX::load_document(generate(ds, 1, 4242))
}

fn run(sys: &LotusX, q: &str) -> QueryResponse {
    sys.query(&QueryRequest::twig(q)).expect("query parses")
}

#[test]
fn canonical_queries_return_valid_ranked_results() {
    for ds in Dataset::ALL {
        let sys = system(ds);
        for q in queries::queries(ds) {
            let response = run(&sys, q.text);
            let pattern = parse_query(q.text).unwrap();
            // Every reported result is a genuine match.
            for r in response.matches.iter() {
                assert!(
                    match_is_valid(sys.index(), &pattern, r.bindings),
                    "{} {}",
                    ds,
                    q.id
                );
                assert!(!r.snippet.is_empty());
            }
            // Scores are non-increasing.
            let scores: Vec<f64> = response.matches.iter().map(|r| r.score).collect();
            assert!(scores.windows(2).all(|w| w[0] >= w[1]), "{} {}", ds, q.id);
        }
    }
}

#[test]
fn every_algorithm_returns_identical_counts_end_to_end() {
    for ds in Dataset::ALL {
        let sys = system(ds);
        for q in queries::queries(ds) {
            let mut counts = Vec::new();
            for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
                let request = QueryRequest::twig(q.text).algorithm(algo);
                counts.push(sys.query(&request).unwrap().total_matches);
            }
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "{} {}: {:?}",
                ds,
                q.id,
                counts
            );
        }
    }
}

#[test]
fn broken_queries_recover_through_rewriting() {
    // The demo's promise: damaged queries come back with results. Not
    // every damage is recoverable within budget, but most must be.
    let mut recovered = 0usize;
    let mut total = 0usize;
    for ds in Dataset::ALL {
        let sys = system(ds);
        for q in queries::broken_queries(ds) {
            total += 1;
            let response = run(&sys, q.text);
            if response.total_matches > 0 {
                recovered += 1;
                assert!(
                    response.rewrite.is_some(),
                    "{} {}: results without a rewrite?",
                    ds,
                    q.id
                );
            }
        }
    }
    assert!(
        recovered * 10 >= total * 8,
        "only {recovered}/{total} broken queries recovered"
    );
}

#[test]
fn completion_traces_offer_the_intended_tag() {
    for ds in Dataset::ALL {
        let sys = system(ds);
        let engine = sys.completion_engine();
        for trace in queries::completion_traces(ds) {
            let ctx = PositionContext::from_tag_path(trace.context_path, Axis::Child);
            let candidates = engine.complete_tag(&ctx, "", 100);
            assert!(
                candidates.iter().any(|c| c.name == trace.intended),
                "{}: {:?} not offered at /{}",
                ds,
                trace.intended,
                trace.context_path.join("/")
            );
        }
    }
}

#[test]
fn position_aware_never_offers_more_than_global() {
    for ds in Dataset::ALL {
        let sys = system(ds);
        let engine = sys.completion_engine();
        for trace in queries::completion_traces(ds) {
            if trace.context_path.is_empty() {
                continue;
            }
            let ctx = PositionContext::from_tag_path(trace.context_path, Axis::Child);
            for prefix in ["", &trace.intended[..1]] {
                let aware = engine.complete_tag(&ctx, prefix, usize::MAX);
                let global = engine.complete_tag_global(prefix, usize::MAX);
                assert!(
                    aware.len() <= global.len(),
                    "{}: position-aware ({}) > global ({}) at /{} prefix {:?}",
                    ds,
                    aware.len(),
                    global.len(),
                    trace.context_path.join("/"),
                    prefix
                );
            }
        }
    }
}

#[test]
fn offered_candidates_are_reachable_by_query() {
    // Soundness of completion: every offered candidate, put into the
    // query at that position, yields at least one match.
    let sys = system(Dataset::XmarkLike);
    let engine = sys.completion_engine();
    for trace in queries::completion_traces(Dataset::XmarkLike) {
        let ctx = PositionContext::from_tag_path(trace.context_path, Axis::Child);
        for cand in engine.complete_tag(&ctx, "", 5) {
            let mut query = String::new();
            for step in trace.context_path {
                query.push('/');
                query.push_str(step);
            }
            query.push('/');
            query.push_str(&cand.name);
            let response = run(&sys, &query);
            assert!(
                response.total_matches > 0,
                "candidate {} at /{} is a dead end",
                cand.name,
                trace.context_path.join("/")
            );
            assert_eq!(
                response.total_matches as u64, cand.count,
                "candidate count mismatch for {query}"
            );
        }
    }
}

#[test]
fn session_walkthrough_on_generated_data() {
    let sys = system(Dataset::DblpLike);
    let mut session = Session::new(&sys);
    let root = session.canvas_mut().add_root().unwrap();
    session.focus(root).unwrap();
    // Type "dblp" and accept.
    for ch in "dblp".chars() {
        session.keystroke(ch).unwrap();
    }
    session.accept_top().unwrap();
    assert_eq!(session.canvas().tag(root).unwrap(), Some("dblp"));

    let pub_node = session.canvas_mut().add_node(root, Axis::Child).unwrap();
    let candidates = session.focus(pub_node).unwrap();
    assert!(candidates.iter().any(|c| c.name == "article"));
    session.canvas_mut().set_tag(pub_node, "article").unwrap();

    let outcome = session.run().unwrap();
    assert!(outcome.total_matches > 0);
}

#[test]
fn index_size_reporting_is_monotone_in_scale() {
    let small = LotusX::load_document(generate(Dataset::DblpLike, 1, 1));
    let large = LotusX::load_document(generate(Dataset::DblpLike, 3, 1));
    assert!(large.index().index_size_bytes() > small.index().index_size_bytes());
    assert!(large.index().stats().element_count > 2 * small.index().stats().element_count);
}

#[test]
fn keyword_search_end_to_end() {
    for ds in Dataset::ALL {
        let sys = system(ds);
        let idx = sys.index();
        let engine = lotusx_keyword::KeywordEngine::new(idx);
        // Pick two terms that co-occur: take any text-carrying element's
        // first two distinct terms.
        let doc = idx.document();
        let mut terms: Vec<String> = Vec::new();
        for n in doc.all_nodes() {
            let text = doc.direct_text(n);
            for t in lotusx_index::tokenize(&text) {
                if !terms.contains(&t) {
                    terms.push(t);
                }
                if terms.len() == 2 {
                    break;
                }
            }
            if terms.len() == 2 {
                break;
            }
        }
        let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
        let mut indexed = engine.slca(&refs);
        let mut bitmask = engine.slca_bitmask(&refs);
        indexed.sort();
        bitmask.sort();
        assert_eq!(indexed, bitmask, "{ds}");
        // Through the engine facade: ranked, scored, non-empty.
        let hits = sys
            .query(&QueryRequest::keyword(terms.join(" ")))
            .unwrap()
            .matches;
        assert!(!hits.is_empty(), "{ds}: {terms:?}");
        let scores: Vec<f64> = hits.iter().map(|h| h.score).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }
}

#[test]
fn snapshot_roundtrip_preserves_query_results() {
    let sys = system(Dataset::XmarkLike);
    let dir = std::env::temp_dir().join("lotusx-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("xmark.ltsx");
    sys.save_snapshot(&path).unwrap();
    let reopened = lotusx::LotusX::load_file(&path).unwrap();
    for q in queries::queries(Dataset::XmarkLike) {
        assert_eq!(
            run(&reopened, q.text).total_matches,
            run(&sys, q.text).total_matches,
            "{}",
            q.id
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn auto_algorithm_selection_is_safe_on_canonical_workloads() {
    for ds in Dataset::ALL {
        let sys = system(ds);
        for q in queries::queries(ds) {
            let auto = run(&sys, q.text);
            assert_ne!(auto.algorithm, Some(Algorithm::Auto), "resolved per query");
            // The navigational oracle, pinned per request, agrees.
            let naive = QueryRequest::twig(q.text).algorithm(Algorithm::Naive);
            let naive = sys.query(&naive).unwrap();
            assert_eq!(naive.total_matches, auto.total_matches, "{} {}", ds, q.id);
        }
    }
}

#[test]
fn attribute_queries_end_to_end() {
    let sys = system(Dataset::XmarkLike);
    // Every person has an id attribute.
    let with = run(&sys, "//person[@id]").total_matches;
    let all = run(&sys, "//person").total_matches;
    assert_eq!(with, all);
    // Exact attribute lookup.
    let one = run(&sys, r#"//item[@id = "item0"]"#);
    assert_eq!(one.total_matches, 1);
}

#[test]
fn ordered_queries_are_consistent_across_algorithms() {
    let sys = system(Dataset::XmarkLike);
    let q = "ordered //bidder[time][increase]";
    let mut counts = Vec::new();
    for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
        let request = QueryRequest::twig(q).algorithm(algo);
        counts.push(sys.query(&request).unwrap().total_matches);
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    assert!(counts[0] > 0, "bidders always list time before increase");
}
