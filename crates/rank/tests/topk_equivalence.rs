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
use lotusx_rank::{Bound, RankStats, Ranker, ScoredMatch};
use lotusx_twig::exec::{execute, execute_budgeted, Algorithm};
use lotusx_twig::xpath::parse_query;

fn bits(ranked: &[ScoredMatch]) -> Vec<(u64, &[lotusx_xml::NodeId])> {
    let matches = ranked.iter();
    matches
        .map(|m| (m.score.to_bits(), &m.bindings[..]))
        .collect()
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
            let result = execute_budgeted(&idx, &pattern, algo, &guard);
            assert_eq!(result.count(), n, "case {case}: {algo}");
            for k in [0, 1, 2, 3, 5, n, n + 1] {
                let (got, stats) = ranker.rank_top_k(&pattern, &result, k);
                assert_eq!(
                    bits(&got),
                    bits(&full[..k.min(n)]),
                    "case {case}: {pattern} via {algo}, k={k}"
                );
                let offered = stats.offered;
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

/// Runs `query` with `k` and returns the ranking with the number of rows
/// the enumerator offered the collector.
fn ranked_and_offered(idx: &IndexedDocument, query: &str, k: usize) -> (Vec<ScoredMatch>, usize) {
    let pattern = parse_query(query).unwrap();
    let guard = QueryGuard::unlimited();
    let result = execute_budgeted(idx, &pattern, Algorithm::StructuralJoin, &guard);
    let (ranked, stats) = Ranker::new(idx).rank_top_k(&pattern, &result, k);
    (ranked, stats.offered)
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

/// The random sweep again, counting the walks that take the guide bound
/// over several classes of root paths and still stop before the last
/// row: the stop rules between and inside classes, not only the one-class
/// case, have to hold the answer to the full ranking.
#[test]
fn multi_class_walks_stop_early_and_agree_with_the_full_ranking() {
    let mut rng = XorShiftRng::seed_from_u64(0xC1A5);
    let guard = QueryGuard::unlimited();
    let (mut multi_class, mut multi_class_stops) = (0, 0);
    for case in 0..2048 {
        let (idx, pattern) = random_inputs::random_case(&mut rng);
        let ranker = Ranker::new(&idx);
        let full = ranker.rank(&pattern, &execute(&idx, &pattern, Algorithm::Naive));
        let n = full.len();
        let result = execute_budgeted(&idx, &pattern, Algorithm::StructuralJoin, &guard);
        for k in [1, 2, 3, 5, 8] {
            let (got, stats) = ranker.rank_top_k(&pattern, &result, k);
            assert_eq!(
                bits(&got),
                bits(&full[..k.min(n)]),
                "case {case}: {pattern}, k={k}"
            );
            let RankStats {
                offered,
                bound,
                walked,
                classes: total,
            } = stats;
            assert!(walked <= total, "case {case}: {walked}/{total}");
            if bound == Bound::Guide && total > 1 {
                multi_class += 1;
                multi_class_stops += usize::from(offered < n);
            }
        }
    }
    assert!(
        multi_class > 40,
        "the sweep must walk several classes: {multi_class}"
    );
    assert!(
        multi_class_stops > 20,
        "multi-class walks must stop early: {multi_class_stops}"
    );
}

/// A row kept from a better class tied by an earlier row of the next
/// one: on the class's entry the collector's worst row scores exactly the
/// class bound, so stopping there (`worst >= bound`) would keep it; the
/// next class's rows precede it in document order and win the tie.
#[test]
fn a_tie_with_an_earlier_row_of_the_next_class_is_walked_into() {
    // `r/x/b` holds the best bound: one `c` right under a `b` (slack 0).
    // Its other `b` binds two `c`s one level lower (slack 1), as every
    // `b` of `r/y/b` does; both `b` paths and both deep `c` paths hold
    // two elements, so those four rows score alike — and the class of
    // `r/y/b` is bounded by exactly that score. The `w` rows (slack 2)
    // form a worse third class, never walked; they give the walk rows
    // to drop, enough to be worth a bound.
    let worse = "<b><m><m><c/></m></m></b>".repeat(40);
    let xml = format!(
        "<r><y><b><m><c/></m></b><b><m><c/></m></b></y>\
         <x><b><c/></b><b><m><c/></m><m><c/></m></b></x><w>{worse}</w></r>"
    );
    let idx = IndexedDocument::from_str(&xml).unwrap();
    let pattern = parse_query("//b[//c]").unwrap();
    let guard = QueryGuard::unlimited();
    let result = execute_budgeted(&idx, &pattern, Algorithm::StructuralJoin, &guard);
    let (ranked, stats) = Ranker::new(&idx).rank_top_k(&pattern, &result, 3);
    let walk = (stats.bound, (stats.walked, stats.classes));
    assert_eq!(walk, (Bound::Guide, (2, 3)));
    let full = Ranker::new(&idx).rank(&pattern, &execute(&idx, &pattern, Algorithm::Naive));
    assert_eq!(full.len(), 45);
    assert_eq!(bits(&ranked), bits(&full[..3]));
    // The two rows after the best come from `r/y`, ahead of `r/x`'s tie.
    let doc = idx.document();
    let under = |m: &ScoredMatch| doc.tag(doc.parent(m.bindings[0]).unwrap()).unwrap();
    let y = doc.symbols().get("y").unwrap();
    assert_eq!((under(&ranked[1]), under(&ranked[2])), (y, y));
    assert_eq!(ranked[1].score.to_bits(), full[4].score.to_bits());
}

/// X4's shape: items under several region paths of different sizes, each
/// region a class of its own. The rarest region's rows rank first; the
/// walk crosses classes best first and stops within one row of `k`.
#[test]
fn items_under_regions_of_different_sizes_stop_within_one_row_of_k() {
    let mut xml = String::from("<site><regions>");
    for (region, items) in [
        ("asia", 3),
        ("africa", 7),
        ("europe", 40),
        ("namerica", 400),
    ] {
        xml.push_str(&format!("<{region}>"));
        xml.push_str(&"<item><description><keyword/></description><name/></item>".repeat(items));
        xml.push_str(&format!("</{region}>"));
    }
    xml.push_str("</regions></site>");
    let idx = IndexedDocument::from_str(&xml).unwrap();
    let query = "//item[description//keyword]/name";
    let pattern = parse_query(query).unwrap();
    let full = Ranker::new(&idx).rank(&pattern, &execute(&idx, &pattern, Algorithm::Naive));
    let guard = QueryGuard::unlimited();
    let result = execute_budgeted(&idx, &pattern, Algorithm::StructuralJoin, &guard);
    // Rows per class, best class first, summed.
    let rows_by = [3, 10, 50, 450];
    for k in [1, 3, 5, 10, 17, 50, 73] {
        let (ranked, stats) = Ranker::new(&idx).rank_top_k(&pattern, &result, k);
        assert_eq!(bits(&ranked), bits(&full[..k]), "k={k}");
        let RankStats {
            offered,
            bound,
            walked,
            classes: total,
        } = stats;
        assert_eq!((bound, total), (Bound::Guide, 4), "k={k}");
        assert!(offered <= k + 1, "k={k}: offered {offered} of 450 rows");
        let needed = 1 + rows_by.iter().take_while(|&&rows| rows < k).count();
        assert_eq!(walked, needed, "k={k}: classes walked");
    }
}

/// A value predicate the guide does not see: every `a` holds a shallow
/// `b` that fails `. = "x"` and a deeper one that passes. The guide
/// bound takes both `b` paths under `r/a`, so its least slack is 0,
/// which no row reaches (every match binds the deep `b`, slack 1): the
/// whole result is walked, where a bound over the live elements alone
/// would stop within one row of `k`.
#[test]
fn a_path_the_predicate_rules_out_still_loosens_the_guide_bound() {
    let xml = format!("<r>{}</r>", "<a><b>y</b><m><b>x</b></m></a>".repeat(200));
    let idx = IndexedDocument::from_str(&xml).unwrap();
    let query = r#"//a//b[. = "x"]"#;
    let pattern = parse_query(query).unwrap();
    let full = Ranker::new(&idx).rank(&pattern, &execute(&idx, &pattern, Algorithm::Naive));
    assert_eq!(full.len(), 200);
    let guard = QueryGuard::unlimited();
    let result = execute_budgeted(&idx, &pattern, Algorithm::StructuralJoin, &guard);
    for k in [1, 10, 73] {
        let (ranked, stats) = Ranker::new(&idx).rank_top_k(&pattern, &result, k);
        assert_eq!(bits(&ranked), bits(&full[..k]), "k={k}");
        let walk = (stats.bound, (stats.walked, stats.classes));
        assert_eq!(walk, (Bound::Guide, (1, 1)), "k={k}");
        assert_eq!(stats.offered, 200, "k={k}: every row is walked");
    }
}

/// Tags of the deep documents: enough that almost every element sits on
/// a root path of its own.
const DEEP_TAGS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// Words of the deep documents' leaves, the `contains` needles.
const DEEP_WORDS: [&str; 4] = ["w0", "w1", "w2", "w3"];

fn deep_element(rng: &mut XorShiftRng, depth: u32, budget: &mut u32, xml: &mut String) {
    let tag = DEEP_TAGS[rng.gen_range(0..DEEP_TAGS.len())];
    xml.push_str(&format!("<{tag}>"));
    if depth == 0 || *budget == 0 || rng.gen_bool(0.15) {
        for _ in 0..rng.gen_range(1..4usize) {
            xml.push_str(DEEP_WORDS[rng.gen_range(0..DEEP_WORDS.len())]);
            xml.push(' ');
        }
    } else {
        for _ in 0..rng.gen_range(1..4usize) {
            if *budget == 0 {
                break;
            }
            *budget -= 1;
            deep_element(rng, depth - 1, budget, xml);
        }
    }
    xml.push_str(&format!("</{tag}>"));
}

/// A seeded deep document of 150–400 elements over six tags, nested up
/// to 16 levels: its DataGuide holds about a node per element, more than
/// the guide bound can pay for against the rows of a twig.
fn deep_document(rng: &mut XorShiftRng) -> IndexedDocument {
    let mut xml = String::from("<r>");
    let mut budget = rng.gen_range(150..400u32);
    while budget > 0 {
        budget -= 1;
        deep_element(rng, 16, &mut budget, &mut xml);
    }
    xml.push_str("</r>");
    IndexedDocument::from_str(&xml).unwrap()
}

/// A random twig of 2–4 tag nodes whose first edge below the root is a
/// `//` edge, the rest of either axis, with a `contains` word on one node
/// when `contains` is set.
fn deep_twig(rng: &mut XorShiftRng, contains: bool) -> lotusx_twig::pattern::TwigPattern {
    use lotusx_twig::pattern::{Axis, NodeTest, TwigPattern, ValuePredicate};
    let mut tag = || NodeTest::Tag(DEEP_TAGS[rng.gen_range(0..DEEP_TAGS.len())].to_string());
    let mut pattern = TwigPattern::new(tag(), Axis::Descendant);
    let mut ids = vec![pattern.root()];
    ids.push(pattern.add_child(ids[0], Axis::Descendant, tag()));
    for _ in 0..rng.gen_range(0..3usize) {
        let parent = ids[rng.gen_range(0..ids.len())];
        let axis = if rng.gen_bool(0.6) {
            Axis::Descendant
        } else {
            Axis::Child
        };
        let test = NodeTest::Tag(DEEP_TAGS[rng.gen_range(0..DEEP_TAGS.len())].to_string());
        ids.push(pattern.add_child(parent, axis, test));
    }
    if contains {
        let word = DEEP_WORDS[rng.gen_range(0..DEEP_WORDS.len())].to_string();
        let q = ids[rng.gen_range(0..ids.len())];
        pattern.set_predicate(q, Some(ValuePredicate::Contains(word)));
    }
    pattern
}

/// On deep documents the guide costs more to read than the rows it could
/// drop, and the walk takes the structural bound: the tight rows first,
/// the rest only while it can still win. Whatever the twig — `//` and
/// `/` edges, with and without `contains` terms — the answer is the full
/// ranking cut at `k`, bit for bit, at the boundary `k`s; and the
/// structural walk has to be taken, and to stop early, often enough to
/// be what the sweep tests.
#[test]
fn structural_walks_on_deep_documents_agree_with_the_full_ranking() {
    let mut rng = XorShiftRng::seed_from_u64(0x5714C7);
    let guard = QueryGuard::unlimited();
    let (mut structural, mut with_terms, mut stops, mut rest_walked) = (0, 0, 0, 0);
    for case in 0..240 {
        let idx = deep_document(&mut rng);
        let pattern = deep_twig(&mut rng, case % 3 == 0);
        let ranker = Ranker::new(&idx);
        let full = ranker.rank(&pattern, &execute(&idx, &pattern, Algorithm::Naive));
        let n = full.len();
        let result = execute_budgeted(&idx, &pattern, Algorithm::StructuralJoin, &guard);
        let mut ks = vec![1, 2, 3, n.saturating_sub(1), n, n + 1];
        ks.retain(|&k| k > 0);
        ks.dedup();
        for k in ks {
            let (got, stats) = ranker.rank_top_k(&pattern, &result, k);
            assert_eq!(
                bits(&got),
                bits(&full[..k.min(n)]),
                "case {case}: {pattern}, k={k}"
            );
            let RankStats {
                offered,
                bound,
                walked,
                classes: total,
            } = stats;
            if bound == Bound::Structure {
                assert_eq!(total, 2, "case {case}: {pattern}, k={k}");
                structural += 1;
                with_terms += usize::from(case % 3 == 0);
                stops += usize::from(offered < n);
                rest_walked += usize::from(walked == 2);
            }
        }
    }
    assert!(
        structural > 160,
        "the sweep must take the structural bound: {structural}"
    );
    assert!(
        with_terms > 30,
        "structural walks with `contains` terms: {with_terms}"
    );
    assert!(stops > 80, "structural walks must stop early: {stops}");
    assert!(
        rest_walked > 80,
        "the rest must be walked where the tight rows leave room: {rest_walked}"
    );
}

/// A candidate quota that trips inside a structural walk — in the tight
/// class or in the rest — leaves an exact top-k of true rows: every row a
/// match with its own score, best first, none twice.
#[test]
fn a_budget_trip_in_a_structural_walk_keeps_an_exact_top_k_of_true_rows() {
    use lotusx_guard::Budget;
    use std::collections::HashMap;
    let mut rng = XorShiftRng::seed_from_u64(0xB0D6E7);
    let (mut tripped, mut tripped_with_rows) = (0, 0);
    for case in 0..240 {
        let idx = deep_document(&mut rng);
        let pattern = deep_twig(&mut rng, case % 3 == 0);
        let ranker = Ranker::new(&idx);
        let full = ranker.rank(&pattern, &execute(&idx, &pattern, Algorithm::Naive));
        let n = full.len();
        if n < 8 {
            continue;
        }
        let score_of: HashMap<&[lotusx_xml::NodeId], u64> = (full.iter())
            .map(|m| (&m.bindings[..], m.score.to_bits()))
            .collect();
        let k = rng.gen_range(1..n / 2);
        let quota = rng.gen_range(1..n as u64);
        let guard = QueryGuard::new(&Budget::unlimited().with_candidate_quota(quota));
        let result = execute_budgeted(&idx, &pattern, Algorithm::StructuralJoin, &guard);
        let (got, stats) = ranker.rank_top_k(&pattern, &result, k);
        if stats.bound != Bound::Structure || !guard.is_tripped() {
            continue;
        }
        tripped += 1;
        tripped_with_rows += usize::from(!got.is_empty());
        assert!(got.len() <= k, "case {case}: {pattern}");
        for m in &got {
            let score = score_of.get(&m.bindings[..]);
            assert_eq!(score, Some(&m.score.to_bits()), "case {case}: {pattern}");
        }
        for w in got.windows(2) {
            let order = (w[1].score, &w[0].bindings).partial_cmp(&(w[0].score, &w[1].bindings));
            assert_eq!(
                order,
                Some(std::cmp::Ordering::Less),
                "case {case}: {pattern}"
            );
        }
    }
    assert!(
        tripped > 20,
        "the quota must trip structural walks: {tripped}"
    );
    assert!(
        tripped_with_rows > 10,
        "tripped walks must keep rows: {tripped_with_rows}"
    );
}
