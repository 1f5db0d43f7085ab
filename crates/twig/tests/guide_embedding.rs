//! The guide embedding binds each query node to exactly the guide nodes
//! the naive join binds it to on the DataGuide materialised as a
//! document, predicates dropped and order ignored: on seeded random
//! documents × random twigs and their one-step relaxations, and on every
//! dataset query (broken ones included) and theirs.

mod random_inputs;

use lotusx_datagen::rng::XorShiftRng;
use lotusx_datagen::{generate, queries, Dataset};
use lotusx_guard::QueryGuard;
use lotusx_index::{GuideNodeId, IndexedDocument};
use lotusx_twig::exec::{execute, Algorithm};
use lotusx_twig::guide::embed;
use lotusx_twig::pattern::{Axis, NodeTest, QNodeId, TwigPattern};
use lotusx_twig::xpath::parse_query;

/// `pattern` without its predicates, its order and, if given, `drop`
/// (a leaf).
fn structure(pattern: &TwigPattern, drop: Option<QNodeId>) -> TwigPattern {
    let root = pattern.node(pattern.root());
    let mut out = TwigPattern::new(root.test.clone(), root.axis);
    let mut map = vec![out.root(); pattern.len()];
    for q in pattern.preorder().into_iter().skip(1) {
        if Some(q) == drop {
            continue;
        }
        let node = pattern.node(q);
        let parent = map[node.parent.expect("non-root").index()];
        map[q.index()] = out.add_child(parent, node.axis, node.test.clone());
    }
    out
}

/// `pattern` (structure only) and every pattern one relaxation away: an
/// edge made `//`, a test made `*`, a leaf deleted.
fn with_relaxations(pattern: &TwigPattern) -> Vec<TwigPattern> {
    let base = structure(pattern, None);
    let mut out = vec![base.clone()];
    for q in base.node_ids() {
        let node = base.node(q);
        if node.axis == Axis::Child {
            let mut p = base.clone();
            p.set_axis(q, Axis::Descendant);
            out.push(p);
        }
        if node.test != NodeTest::Wildcard {
            let mut p = base.clone();
            p.set_test(q, NodeTest::Wildcard);
            out.push(p);
        }
        if q != base.root() && node.children.is_empty() {
            out.push(structure(&base, Some(q)));
        }
    }
    out
}

/// Per query node, the guide nodes naive binds it to on the guide
/// document (`guide_of` names each element's guide node).
fn naive_sets(
    (guide, guide_of): &(IndexedDocument, Vec<GuideNodeId>),
    pattern: &TwigPattern,
) -> Vec<Vec<GuideNodeId>> {
    let mut sets = vec![Vec::new(); pattern.len()];
    for row in execute(guide, pattern, Algorithm::Naive).rows() {
        for (set, node) in sets.iter_mut().zip(row) {
            set.push(guide_of[node.index()]);
        }
    }
    for set in &mut sets {
        set.sort_unstable();
        set.dedup();
    }
    sets
}

fn embedded(idx: &IndexedDocument, pattern: &TwigPattern) -> Vec<Vec<GuideNodeId>> {
    embed(idx, pattern, &mut QueryGuard::unlimited().ticker()).expect("unlimited")
}

#[test]
fn every_query_node_binds_where_naive_binds_it_on_the_guide() {
    let mut rng = XorShiftRng::seed_from_u64(0xE3BED);
    let (mut embeds, mut not) = (0, 0);
    for case in 0..300 {
        let (idx, pattern) = random_inputs::random_case(&mut rng);
        let guide = random_inputs::guide_document(&idx);
        for p in with_relaxations(&pattern) {
            let got = embedded(&idx, &p);
            assert_eq!(got, naive_sets(&guide, &p), "case {case}: {p}");
            embeds += usize::from(!got[0].is_empty());
            not += usize::from(got[0].is_empty());
        }
    }
    assert!(
        embeds > 1000 && not > 100,
        "both outcomes are exercised: {embeds} / {not}"
    );

    for ds in Dataset::ALL {
        let idx = IndexedDocument::build(generate(ds, 1, 2012));
        let guide = random_inputs::guide_document(&idx);
        let texts = queries::queries(ds).iter().map(|q| q.text);
        let broken = queries::broken_queries(ds).iter().map(|q| q.text);
        for text in texts.chain(broken) {
            for p in with_relaxations(&parse_query(text).unwrap()) {
                assert_eq!(embedded(&idx, &p), naive_sets(&guide, &p), "{ds}: {p}");
            }
        }
    }
}
