//! Seeded random documents and twig patterns, shared by the differential
//! tests here and the ranker's top-k equivalence test (`lotusx-rank`
//! includes this file by path).

use lotusx_datagen::rng::XorShiftRng;
use lotusx_index::IndexedDocument;
use lotusx_twig::pattern::{Axis, NodeTest, TwigPattern};
use lotusx_xml::{Document, NodeId};

const TAGS: [&str; 3] = ["a", "b", "c"];

#[derive(Clone, Debug)]
struct GenTree {
    tag: usize,
    children: Vec<GenTree>,
}

fn random_tree(rng: &mut XorShiftRng, depth: u32, budget: &mut u32) -> GenTree {
    let tag = rng.gen_range(0..TAGS.len());
    if depth == 0 || *budget == 0 || rng.gen_bool(0.2) {
        return GenTree {
            tag,
            children: vec![],
        };
    }
    let n = rng.gen_range(1..5usize);
    let mut children = Vec::with_capacity(n);
    for _ in 0..n {
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        children.push(random_tree(rng, depth - 1, budget));
    }
    GenTree { tag, children }
}

fn build(doc: &mut Document, parent: NodeId, t: &GenTree) {
    let e = doc.append_element(parent, TAGS[t.tag]);
    for c in &t.children {
        build(doc, e, c);
    }
}

/// A small random pattern: a root plus up to 4 more nodes attached to
/// random earlier nodes with random axes/tests.
#[derive(Clone, Debug)]
struct GenPattern {
    root_tag: usize,
    // (parent index among already-created nodes, axis-is-child, tag, wild)
    extra: Vec<(usize, bool, usize, bool)>,
    ordered: bool,
}

fn random_pattern(rng: &mut XorShiftRng) -> GenPattern {
    GenPattern {
        // Wildcard roots multiply matches combinatorially and slow the
        // naive oracle to a crawl; interior wildcards cover the case.
        root_tag: rng.gen_range(0..TAGS.len()),
        extra: (0..rng.gen_range(0..4usize))
            .map(|_| {
                (
                    rng.gen_range(0..5usize),
                    rng.gen_bool(0.5),
                    rng.gen_range(0..TAGS.len()),
                    rng.gen_bool(0.2),
                )
            })
            .collect(),
        ordered: rng.gen_bool(0.5),
    }
}

fn materialize(gp: &GenPattern) -> TwigPattern {
    let test = NodeTest::Tag(TAGS[gp.root_tag].to_string());
    let mut pattern = TwigPattern::new(test, Axis::Descendant);
    let mut ids = vec![pattern.root()];
    for (parent, is_child, tag, wild) in &gp.extra {
        let axis = if *is_child {
            Axis::Child
        } else {
            Axis::Descendant
        };
        let test = if *wild {
            NodeTest::Wildcard
        } else {
            NodeTest::Tag(TAGS[*tag].to_string())
        };
        let id = pattern.add_child(ids[parent % ids.len()], axis, test);
        ids.push(id);
    }
    pattern.set_ordered(gp.ordered);
    pattern
}

/// One random case: a document of 20 to ~60 elements over three tags
/// (few tags and deep nesting make matches — and same-tag recursion —
/// common), indexed, and a pattern of 1–4 nodes that is ordered half the
/// time.
pub fn random_case(rng: &mut XorShiftRng) -> (IndexedDocument, TwigPattern) {
    let doc = loop {
        let mut budget = 60u32;
        let root = random_tree(rng, 6, &mut budget);
        let mut doc = Document::new();
        build(&mut doc, NodeId::DOCUMENT, &root);
        if doc.node_count() > 20 {
            break doc;
        }
    };
    let pattern = materialize(&random_pattern(rng));
    (IndexedDocument::build(doc), pattern)
}
