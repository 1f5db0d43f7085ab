//! `rank_top_k`, fed row by row from the join's enumerator and allowed to
//! stop it early, is `rank()` — the full sort, kept as the oracle — cut
//! at `k`: bindings and score bits, on seeded random documents × random
//! twigs (the differential generator of `lotusx-twig`'s tests) for the
//! boundary `k`s, and on the two corpora built to catch a wrong stop.

#[path = "../../twig/tests/random_inputs/mod.rs"]
mod random_inputs;

use lotusx_datagen::rng::XorShiftRng;
use lotusx_guard::QueryGuard;
use lotusx_index::IndexedDocument;
use lotusx_obs::Span;
use lotusx_rank::{Ranker, ScoredMatch};
use lotusx_twig::exec::{execute, execute_budgeted, Algorithm};
use lotusx_twig::xpath::parse_query;

fn bits(ranked: &[ScoredMatch]) -> Vec<(u64, &[lotusx_xml::NodeId])> {
    let matches = ranked.iter();
    matches
        .map(|m| (m.score.to_bits(), &m.bindings[..]))
        .collect()
}

/// Rows the enumerator offered the collector, from the ranking's span.
fn offered(span: Span, k: usize) -> usize {
    let rank = span.finish();
    let select = rank.child("score-select").expect("recorded");
    assert_eq!(select.note("k"), Some(k.to_string().as_str()));
    select.note("candidates").unwrap().parse().unwrap()
}

#[test]
fn top_k_equals_the_full_ranking_truncated() {
    let mut rng = XorShiftRng::seed_from_u64(0x70BC);
    let guard = QueryGuard::unlimited();
    let (mut ranked_rows, mut tied_cases, mut early_stops) = (0, 0, 0);
    for case in 0..192 {
        let (idx, pattern) = random_inputs::random_case(&mut rng);
        let matches = execute(&idx, &pattern, Algorithm::Naive);
        let n = matches.len();
        let ranker = Ranker::new(&idx);
        let full = ranker.rank(&pattern, &matches);
        assert_eq!(full.len(), n, "case {case}");
        ranked_rows += n;
        tied_cases += usize::from(full.windows(2).any(|w| w[0].score == w[1].score));
        for algo in Algorithm::ALL {
            let result = execute_budgeted(&idx, &pattern, algo, None, &guard);
            assert_eq!(result.count(), n, "case {case}: {algo}");
            for k in [0, 1, 2, 3, 5, n, n + 1] {
                let span = Span::new("rank");
                let got = ranker.rank_top_k(&pattern, &result, k, Some(&span));
                assert_eq!(
                    bits(&got),
                    bits(&full[..k.min(n)]),
                    "case {case}: {pattern} via {algo}, k={k}"
                );
                let offered = offered(span, k);
                assert!(offered == n || k == 0 || result.reduced_in_row_order().is_some());
                early_stops += usize::from(k > 0 && offered < n);
            }
        }
    }
    assert!(
        ranked_rows > 1000,
        "the cases must produce matches: {ranked_rows}"
    );
    assert!(
        tied_cases > 20,
        "score ties exercise the tie-break: {tied_cases}"
    );
    assert!(
        early_stops > 40,
        "the bound must stop some enumerations: {early_stops}"
    );
}

/// Runs `query` with `k` under a span and returns the ranking with the
/// number of rows the enumerator offered the collector.
fn ranked_and_offered(idx: &IndexedDocument, query: &str, k: usize) -> (Vec<ScoredMatch>, usize) {
    let pattern = parse_query(query).unwrap();
    let guard = QueryGuard::unlimited();
    let result = execute_budgeted(idx, &pattern, Algorithm::StructuralJoin, None, &guard);
    let span = Span::new("rank");
    let ranked = Ranker::new(idx).rank_top_k(&pattern, &result, k, Some(&span));
    (ranked, offered(span, k))
}

/// When every row ties, the answer is the first `k` in document order
/// and the enumerator is stopped right there.
#[test]
fn ties_stop_the_enumerator_after_k_rows() {
    let xml = format!("<r>{}</r>", "<item><a/><b/></item>".repeat(10_000));
    let idx = IndexedDocument::from_str(&xml).unwrap();
    let (ranked, offered) = ranked_and_offered(&idx, "//item[a]/b", 10);
    assert!(offered <= 11, "offered {offered} of 10 000 rows");
    let pattern = parse_query("//item[a]/b").unwrap();
    let all = execute(&idx, &pattern, Algorithm::Naive);
    let full = Ranker::new(&idx).rank(&pattern, &all);
    assert_eq!(bits(&ranked), bits(&full[..10]));
    // Nothing to drop, nothing to bound: every row is offered.
    assert_eq!(ranked_and_offered(&idx, "//item[a]/b", 10_000).1, 10_000);
}

/// The best row last in document order: the bound is the score only that
/// row reaches, so nothing stops before it has been seen.
#[test]
fn the_best_score_is_found_wherever_it_sits() {
    let xml = format!("<r>{}<x><b/></x></r>", "<x><m><b/></m></x>".repeat(500));
    let idx = IndexedDocument::from_str(&xml).unwrap();
    let (ranked, offered) = ranked_and_offered(&idx, "//x//b", 3);
    assert_eq!(offered, 501);
    let best = &ranked[0];
    assert!(best.score > ranked[1].score);
    assert_eq!(
        idx.document().parent(best.bindings[1]),
        Some(best.bindings[0])
    );
    assert_eq!(ranked[1].score.to_bits(), ranked[2].score.to_bits());
    assert!(
        ranked[1].bindings < ranked[2].bindings,
        "ties in document order"
    );
}
