//! The crown-jewel invariant: every twig algorithm and the `Auto`
//! policy produce identical match sets, on random documents × random
//! patterns (seeded loops, ordered and unordered) and on the canonical
//! datasets × canonical query workloads — counted without being built,
//! enumerated row by row or materialized — and a starved budget only
//! ever yields a valid subset.

mod random_inputs;

use lotusx_datagen::rng::XorShiftRng;
use lotusx_datagen::{queries, Dataset};
use lotusx_guard::{Budget, QueryGuard};
use lotusx_index::IndexedDocument;
use lotusx_twig::exec::{execute, execute_budgeted, Algorithm};
use lotusx_twig::matcher::{match_is_valid, MatchSet};
use lotusx_twig::ordered::match_is_ordered;
use lotusx_twig::pattern::Axis;
use lotusx_twig::xpath::parse_query;

// ---------------------------------------------------------------------
// Canonical workloads
// ---------------------------------------------------------------------

#[test]
fn algorithms_agree_on_canonical_workloads() {
    for ds in Dataset::ALL {
        let doc = lotusx_datagen::generate(ds, 1, 99);
        let idx = IndexedDocument::build(doc);
        for q in queries::queries(ds) {
            let pattern = parse_query(q.text).unwrap();
            let reference = execute(&idx, &pattern, Algorithm::Naive);
            for m in reference.rows() {
                assert!(match_is_valid(&idx, &pattern, m), "{} {}", ds, q.id);
            }
            for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
                let got = execute(&idx, &pattern, algo);
                assert_eq!(
                    got.len(),
                    reference.len(),
                    "{} {} via {}: {} vs {} matches",
                    ds,
                    q.id,
                    algo,
                    got.len(),
                    reference.len()
                );
                assert_eq!(got, reference, "{} {} via {}", ds, q.id, algo);
            }
        }
    }
}

#[test]
fn ordered_variants_are_subsets_on_canonical_workloads() {
    for ds in Dataset::ALL {
        let doc = lotusx_datagen::generate(ds, 1, 77);
        let idx = IndexedDocument::build(doc);
        for q in queries::queries(ds) {
            let mut pattern = parse_query(q.text).unwrap();
            let unordered = execute(&idx, &pattern, Algorithm::StructuralJoin);
            pattern.set_ordered(true);
            let ordered = execute(&idx, &pattern, Algorithm::StructuralJoin);
            assert!(ordered.len() <= unordered.len(), "{} {}", ds, q.id);
            for m in ordered.rows() {
                assert!(unordered.contains(m), "{} {}", ds, q.id);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Random documents × random patterns
// ---------------------------------------------------------------------

/// Predicates and rooted twigs thin the matches out, so it takes this
/// many cases to see each filter path succeed a few dozen times.
const CASES: usize = 256;

/// The rows `algo`'s result hands a sink, as a set in emission order,
/// with the count it announced before any row existed.
fn enumerate(
    idx: &IndexedDocument,
    pattern: &lotusx_twig::TwigPattern,
    algo: Algorithm,
    guard: &QueryGuard,
) -> (usize, MatchSet) {
    let result = execute_budgeted(idx, pattern, algo, guard);
    let mut rows = MatchSet::new(pattern.len());
    let exhausted = result.for_each_row(|row| {
        rows.push(row);
        true
    });
    assert!(
        exhausted || guard.is_tripped(),
        "only a trip stops this sink"
    );
    (result.count(), rows)
}

#[test]
fn all_algorithms_agree_on_random_inputs() {
    let mut rng = XorShiftRng::seed_from_u64(0x7716);
    let (mut ordered_cases, mut truncated_cases, mut reference_rows) = (0, 0, 0);
    // Cases with matches whose streams the join had to filter: by a value
    // predicate, by the level-1 test of a child-axis root.
    let (mut predicate_hits, mut child_root_hits) = (0, 0);
    // Cases with matches the enumerator cannot hand over in row order —
    // a pattern drawn so that its preorder is not its id order: early
    // stopping must switch itself off — and those it can.
    let (mut preorder_differs, mut in_row_order) = (0, 0);
    // Quotas that tripped, and those that still left rows to return.
    let (mut swept, mut partial_answers) = (0, 0);
    for case in 0..CASES {
        let (idx, pattern) = random_inputs::random_case(&mut rng);
        ordered_cases += usize::from(pattern.is_ordered());

        let reference = execute(&idx, &pattern, Algorithm::Naive);
        reference_rows += reference.len();
        let child_root = pattern.node(pattern.root()).axis == Axis::Child;
        predicate_hits += usize::from(pattern.has_predicates() && !reference.is_empty());
        child_root_hits += usize::from(child_root && !reference.is_empty());
        for m in reference.rows() {
            assert!(match_is_valid(&idx, &pattern, m), "case {case}");
            assert!(
                !pattern.is_ordered() || match_is_ordered(&pattern, m),
                "case {case}"
            );
        }
        for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
            let got = execute(&idx, &pattern, algo);
            assert_eq!(
                got, reference,
                "case {case}: algorithm {algo} on pattern {pattern}"
            );
            // Counted first, then enumerated: the count is exact and the
            // rows are the reference's.
            let (count, mut rows) = enumerate(&idx, &pattern, algo, &QueryGuard::unlimited());
            assert_eq!(count, reference.len(), "case {case}: {algo} {pattern}");
            rows.sort_dedup();
            assert_eq!(rows, reference, "case {case}: {algo} {pattern}");
            // Starved: whatever survives is a true match of the full answer.
            let quota = rng.gen_range(0..12u64);
            let guard = QueryGuard::new(&Budget::unlimited().with_node_quota(quota));
            let partial = execute_budgeted(&idx, &pattern, algo, &guard).into_match_set();
            truncated_cases += usize::from(guard.is_tripped());
            assert!(
                guard.is_tripped() || partial == reference,
                "case {case}: {algo} lost rows without tripping"
            );
            for m in partial.rows() {
                assert!(match_is_valid(&idx, &pattern, m), "case {case}: {algo}");
                assert!(
                    reference.contains(m),
                    "case {case}: {algo} invented a row under budget"
                );
            }
        }

        // The structural join, closer: what order its rows come in, and
        // node quotas from nothing (every one of the first 48, where the
        // merges trip, then doubling) up to the first that suffices.
        let order: Vec<usize> = pattern.preorder().iter().map(|q| q.index()).collect();
        let preorder_is_id_order = order.iter().copied().eq(0..pattern.len());
        let unlimited = QueryGuard::unlimited();
        let result = execute_budgeted(&idx, &pattern, Algorithm::StructuralJoin, &unlimited);
        let row_order = result.reduced_in_row_order().is_some();
        assert_eq!(
            row_order,
            preorder_is_id_order && !pattern.is_ordered(),
            "case {case}: {pattern}"
        );
        if !reference.is_empty() {
            preorder_differs += usize::from(!preorder_is_id_order);
            in_row_order += usize::from(row_order);
        }
        if row_order {
            let (_, rows) = enumerate(&idx, &pattern, Algorithm::StructuralJoin, &unlimited);
            assert_eq!(rows, reference, "case {case}: emitted out of row order");
        }
        for quota in (0..48).chain((6..).map(|doublings| 1u64 << doublings)) {
            let guard = QueryGuard::new(&Budget::unlimited().with_node_quota(quota));
            let (count, rows) = enumerate(&idx, &pattern, Algorithm::StructuralJoin, &guard);
            if !guard.is_tripped() {
                assert_eq!(count, reference.len(), "case {case}: quota {quota}");
                break;
            }
            swept += 1;
            partial_answers += usize::from(!rows.is_empty());
            assert!(count <= reference.len(), "case {case}: quota {quota}");
            for m in rows.rows() {
                assert!(
                    reference.contains(m),
                    "case {case}: quota {quota} invented a row"
                );
            }
        }
    }
    assert!(reference_rows > 2000, "cases must match: {reference_rows}");
    assert!(
        predicate_hits > 40,
        "predicates must match: {predicate_hits}"
    );
    assert!(
        child_root_hits > 10,
        "rooted twigs must match: {child_root_hits}"
    );
    assert!(
        ordered_cases > CASES / 4 && ordered_cases < 3 * CASES / 4,
        "{ordered_cases}"
    );
    assert!(
        truncated_cases > CASES,
        "budgets must actually trip: {truncated_cases}"
    );
    assert!(
        swept > 16 * CASES && partial_answers > CASES,
        "quota sweeps must trip, some of them late: {swept} {partial_answers}"
    );
    assert!(
        preorder_differs > 4 && in_row_order > 20,
        "row order must be tested both ways: {preorder_differs} {in_row_order}"
    );
}

// ---------------------------------------------------------------------
// Inputs on which the value index once disagreed with the oracle
// ---------------------------------------------------------------------

/// Row counts of `query` through every algorithm and `auto`, after
/// checking they all return the oracle's rows.
fn agreed_count(idx: &IndexedDocument, query: &str) -> usize {
    let pattern = parse_query(query).unwrap();
    let reference = execute(idx, &pattern, Algorithm::Naive);
    for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
        assert_eq!(
            execute(idx, &pattern, algo),
            reference,
            "{query} via {algo}"
        );
    }
    reference.len()
}

/// `"NaN".parse::<f64>()` succeeds, and one NaN among the sorted numbers
/// broke the order the range lookup's binary search relies on: `>= 4`
/// returned 16 of these 17 items through the index, 8 through the direct
/// test. NaN is in no range; the infinities are in theirs.
#[test]
fn nan_texts_do_not_break_numeric_ranges() {
    let texts = "1 NaN 5 7 nan 3 inf 9 NaN 2 8 -inf 4 6 NaN 10 0";
    let items: String = texts
        .split(' ')
        .map(|t| format!("<i><a>{t}</a></i>"))
        .collect();
    let idx = IndexedDocument::from_str(&format!("<r>{items}</r>")).unwrap();
    assert_eq!(agreed_count(&idx, "//i[a >= 4]"), 8);
    assert_eq!(agreed_count(&idx, "//i[a <= 4]"), 6);
    assert_eq!(agreed_count(&idx, "//i[a >= 100]"), 1);
    assert_eq!(agreed_count(&idx, "//i[a <= -100]"), 1);
}

/// `=` folded case with `to_lowercase()` in the index and ASCII-only in
/// the direct test, and `@attr =` ASCII-only everywhere: one fold now,
/// Unicode lowercase, for text and attributes, `=` and `~` alike.
#[test]
fn equality_folds_case_the_same_way_everywhere() {
    let idx = IndexedDocument::from_str("<r><i><a>Éclair</a></i><i><a>éclair</a></i></r>").unwrap();
    assert_eq!(agreed_count(&idx, r#"//i[a = "éclair"]"#), 2);
    assert_eq!(agreed_count(&idx, r#"//i[a = "ÉCLAIR"]"#), 2);
    assert_eq!(agreed_count(&idx, r#"//i[a = "eclair"]"#), 0);
    let idx =
        IndexedDocument::from_str(r#"<r><i a="éclair">éclair</i><i a="Éclair">Éclair</i></r>"#)
            .unwrap();
    assert_eq!(agreed_count(&idx, r#"//i[. = "ÉCLAIR"]"#), 2);
    assert_eq!(agreed_count(&idx, r#"//i[@a ~ "ÉCLAIR"]"#), 2);
    assert_eq!(agreed_count(&idx, r#"//i[@a = "ÉCLAIR"]"#), 2);
    assert_eq!(agreed_count(&idx, r#"//i[@a = " éclair "]"#), 2);
    assert_eq!(agreed_count(&idx, r#"//i[@a = "eclair"]"#), 0);
}
