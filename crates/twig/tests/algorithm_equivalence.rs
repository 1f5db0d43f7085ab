//! The crown-jewel invariant: every twig algorithm and the `Auto`
//! chooser produce identical match sets, on random documents × random
//! patterns (seeded loops, ordered and unordered) and on the canonical
//! datasets × canonical query workloads — and a starved budget only ever
//! yields a valid subset.

mod random_inputs;

use lotusx_datagen::rng::XorShiftRng;
use lotusx_datagen::{queries, Dataset};
use lotusx_guard::{Budget, QueryGuard};
use lotusx_index::IndexedDocument;
use lotusx_twig::exec::{execute, execute_budgeted, Algorithm};
use lotusx_twig::matcher::match_is_valid;
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

#[test]
fn all_algorithms_agree_on_random_inputs() {
    let mut rng = XorShiftRng::seed_from_u64(0x7716);
    let (mut ordered_cases, mut truncated_cases, mut reference_rows) = (0, 0, 0);
    // Cases with matches whose streams the join had to filter: by a value
    // predicate, by the level-1 test of a child-axis root.
    let (mut predicate_hits, mut child_root_hits) = (0, 0);
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
                !pattern.is_ordered() || match_is_ordered(&idx, &pattern, m),
                "case {case}"
            );
        }
        for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
            let got = execute(&idx, &pattern, algo);
            assert_eq!(
                got, reference,
                "case {case}: algorithm {algo} on pattern {pattern}"
            );
            // Starved: whatever survives is a true match of the full answer.
            let quota = rng.gen_range(0..12u64);
            let guard = QueryGuard::new(&Budget::unlimited().with_node_quota(quota));
            let partial = execute_budgeted(&idx, &pattern, algo, None, &guard);
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
}
