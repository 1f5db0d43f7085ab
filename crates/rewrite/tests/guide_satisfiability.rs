//! The rewriter's DataGuide check answers what the naive join answers on
//! the guide materialised as a document — the copy the check replaced,
//! kept here as its oracle — on seeded random documents × random twigs
//! (the differential generator of `lotusx-twig`'s tests) and on every
//! dataset query and its one-step relaxations. The check is charged to
//! the request's budget, and pruning with it changes no rewrite, only how
//! many candidates run against the data (experiment E9b as an assertion).

#[path = "../../twig/tests/random_inputs/mod.rs"]
mod random_inputs;

use lotusx_datagen::rng::XorShiftRng;
use lotusx_datagen::{generate, queries, Dataset};
use lotusx_guard::{Budget, QueryGuard};
use lotusx_index::{GuideNodeId, IndexedDocument};
use lotusx_rewrite::{apply, RankedRewrite, RewriteOp, Rewriter, RewriterConfig};
use lotusx_twig::exec::{execute, Algorithm};
use lotusx_twig::pattern::TwigPattern;
use lotusx_twig::xpath::parse_query;
use lotusx_xml::{Document, NodeId};

/// The DataGuide of `idx` as an indexed document: one element per guide
/// node.
fn guide_document(idx: &IndexedDocument) -> IndexedDocument {
    let guide = idx.guide();
    let symbols = idx.document().symbols();
    let mut doc = Document::new();
    let mut map = vec![NodeId::DOCUMENT; guide.node_count()];
    // Guide nodes are stored parent before child, so a forward sweep
    // attaches each node to its already-materialised parent.
    for i in 1..guide.node_count() {
        let g = GuideNodeId::from_index(i);
        let tag = guide.tag(g).expect("non-root guide nodes have tags");
        let parent = map[guide.parent(g).expect("non-root").index()];
        map[i] = doc.append_element(parent, symbols.resolve(tag));
    }
    IndexedDocument::build(doc)
}

/// The oracle: does the pattern, predicates dropped and order ignored,
/// match the guide document?
fn matches_guide(guide: &IndexedDocument, pattern: &TwigPattern) -> bool {
    let mut stripped = pattern.clone();
    for q in stripped.node_ids() {
        stripped.set_predicate(q, None);
    }
    stripped.set_ordered(false);
    !execute(guide, &stripped, Algorithm::Naive).is_empty()
}

fn satisfiable(idx: &IndexedDocument, pattern: &TwigPattern) -> bool {
    Rewriter::new(idx, RewriterConfig::default()).is_satisfiable(pattern, &QueryGuard::unlimited())
}

/// `pattern` and every pattern one structural relaxation away from it.
fn with_relaxations(pattern: TwigPattern) -> Vec<TwigPattern> {
    let mut out: Vec<TwigPattern> = pattern
        .node_ids()
        .flat_map(|q| {
            [
                RewriteOp::GeneralizeEdge(q),
                RewriteOp::DeleteLeaf(q),
                RewriteOp::PromoteNode(q),
            ]
        })
        .filter_map(|op| apply(&pattern, &op))
        .collect();
    out.push(pattern);
    out
}

#[test]
fn the_guide_check_answers_like_naive_over_the_materialised_guide() {
    let mut rng = XorShiftRng::seed_from_u64(0x6D1D);
    let (mut yes, mut no) = (0, 0);
    for case in 0..300 {
        let (idx, pattern) = random_inputs::random_case(&mut rng);
        let guide = guide_document(&idx);
        for p in with_relaxations(pattern) {
            let got = satisfiable(&idx, &p);
            assert_eq!(got, matches_guide(&guide, &p), "case {case}: {p}");
            // Sound: a pattern with an answer in the data is satisfiable.
            assert!(
                got || execute(&idx, &p, Algorithm::Naive).is_empty(),
                "case {case}: {p}"
            );
            yes += usize::from(got);
            no += usize::from(!got);
        }
    }
    assert!(
        yes > 500 && no > 50,
        "both answers are exercised: {yes} / {no}"
    );

    for ds in Dataset::ALL {
        let idx = IndexedDocument::build(generate(ds, 1, 2012));
        let guide = guide_document(&idx);
        let texts = queries::queries(ds).iter().map(|q| q.text);
        let broken = queries::broken_queries(ds).iter().map(|q| q.text);
        for text in texts.chain(broken) {
            for p in with_relaxations(parse_query(text).unwrap()) {
                assert_eq!(
                    satisfiable(&idx, &p),
                    matches_guide(&guide, &p),
                    "{ds}: {p}"
                );
            }
        }
    }
}

#[test]
fn every_starved_node_quota_trips_the_guard() {
    let mut rng = XorShiftRng::seed_from_u64(0x0B0D);
    let mut starved = 0;
    for case in 0..60 {
        let (idx, pattern) = random_inputs::random_case(&mut rng);
        let r = Rewriter::new(&idx, RewriterConfig::default());
        let generous = QueryGuard::new(&Budget::unlimited().with_node_quota(1 << 40));
        let answer = r.is_satisfiable(&pattern, &generous);
        assert_eq!(answer, satisfiable(&idx, &pattern), "case {case}");
        let visits = generous.nodes_visited();
        if visits == 0 {
            // A tag the document never interned: answered before any read.
            assert!(!answer, "case {case}");
            continue;
        }
        // Exactly enough is enough; anything less trips.
        let exact = QueryGuard::new(&Budget::unlimited().with_node_quota(visits));
        assert_eq!(r.is_satisfiable(&pattern, &exact), answer, "case {case}");
        assert!(!exact.is_tripped(), "case {case}");
        for quota in 0..visits {
            let guard = QueryGuard::new(&Budget::unlimited().with_node_quota(quota));
            r.is_satisfiable(&pattern, &guard);
            assert!(guard.is_tripped(), "case {case}: quota {quota} of {visits}");
            starved += 1;
        }
    }
    assert!(starved > 1000, "quotas below the cost: {starved}");
}

#[test]
fn pruning_changes_no_rewrite_only_the_executions() {
    let describe = |rewrites: &[RankedRewrite]| -> Vec<(String, u64, Vec<String>, usize)> {
        let row = |rw: &RankedRewrite| {
            let pattern = rw.pattern.to_string();
            (pattern, rw.cost.to_bits(), rw.ops.clone(), rw.match_count)
        };
        rewrites.iter().map(row).collect()
    };
    let guard = QueryGuard::unlimited();
    let mut pruned_anywhere = 0;
    for ds in Dataset::ALL {
        let idx = IndexedDocument::build(generate(ds, 1, 2012));
        let pruned = Rewriter::new(&idx, RewriterConfig::default());
        let unpruned = Rewriter::new(
            &idx,
            RewriterConfig {
                guide_pruning: false,
            },
        );
        for q in queries::broken_queries(ds) {
            let pattern = parse_query(q.text).unwrap();
            let (with, ws) = pruned.rewrite(&pattern, None, &guard);
            let (without, us) = unpruned.rewrite(&pattern, None, &guard);
            assert_eq!(describe(&with), describe(&without), "{ds} {}", q.id);
            assert_eq!(ws.expansions, us.expansions, "{ds} {}", q.id);
            assert!(ws.executions <= us.executions, "{ds} {}", q.id);
            assert_eq!(us.pruned_unsatisfiable, 0, "{ds} {}", q.id);
            pruned_anywhere += ws.pruned_unsatisfiable;
        }
    }
    assert!(pruned_anywhere > 0, "the guide prunes some candidate");
}
