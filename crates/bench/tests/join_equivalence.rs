//! Bit-identity guarantees for the join engine: every algorithm
//! (including `auto`) returns exactly the same `MatchSet`
//! as the navigational oracle on the canonical corpora and under
//! generous budgets — and a starved budget only ever shrinks the result
//! to a valid subset, never corrupts it.

use lotusx_bench::fixture;
use lotusx_datagen::{queries::queries, Dataset};
use lotusx_guard::{Budget, QueryGuard};
use lotusx_twig::matcher::match_is_valid;
use lotusx_twig::xpath::parse_query;
use lotusx_twig::{execute, execute_budgeted, Algorithm};

const SCALES: [u32; 2] = [1, 2];

/// Every concrete algorithm and the auto policy produce bit-identical
/// (not merely equal-length) match sets on every canonical dataset ×
/// query × scale.
#[test]
fn all_algorithms_are_bit_identical_on_canonical_corpora() {
    for ds in Dataset::ALL {
        for scale in SCALES {
            let idx = fixture(ds, scale);
            for q in queries(ds) {
                let pattern = parse_query(q.text).unwrap();
                let reference = execute(&idx, &pattern, Algorithm::Naive);
                for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
                    let got = execute(&idx, &pattern, algo);
                    assert_eq!(got, reference, "{ds} s{scale} {} via {algo}", q.id);
                }
            }
        }
    }
}

/// A budget generous enough to never trip must not change a single byte
/// of the result, for every algorithm.
#[test]
fn generous_budget_is_bit_identical_to_unbudgeted() {
    for ds in Dataset::ALL {
        let idx = fixture(ds, 1);
        let budget = Budget::unlimited().with_node_quota(u64::MAX / 2);
        for q in queries(ds) {
            let pattern = parse_query(q.text).unwrap();
            let reference = execute(&idx, &pattern, Algorithm::Naive);
            for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
                let guard = QueryGuard::new(&budget);
                let got = execute_budgeted(&idx, &pattern, algo, None, &guard).into_match_set();
                assert_eq!(got, reference, "{ds} {} via {algo}", q.id);
                assert!(!guard.is_tripped(), "{ds} {} via {algo} tripped", q.id);
            }
        }
    }
}

/// A starved budget may truncate, but whatever comes back is a subset
/// of the full answer and every emitted match is individually valid.
#[test]
fn starved_budget_returns_a_valid_subset() {
    for ds in Dataset::ALL {
        let idx = fixture(ds, 1);
        for q in queries(ds) {
            let pattern = parse_query(q.text).unwrap();
            let reference = execute(&idx, &pattern, Algorithm::Naive);
            for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
                for quota in [1u64, 16, 256] {
                    let guard = QueryGuard::new(&Budget::unlimited().with_node_quota(quota));
                    let got = execute_budgeted(&idx, &pattern, algo, None, &guard).into_match_set();
                    assert!(
                        got.len() <= reference.len(),
                        "{ds} {} via {algo} quota {quota}",
                        q.id
                    );
                    for m in got.rows() {
                        assert!(
                            reference.contains(m),
                            "{ds} {} via {algo} quota {quota}: spurious match",
                            q.id
                        );
                        assert!(
                            match_is_valid(&idx, &pattern, m),
                            "{ds} {} via {algo} quota {quota}: invalid match",
                            q.id
                        );
                    }
                }
            }
        }
    }
}
