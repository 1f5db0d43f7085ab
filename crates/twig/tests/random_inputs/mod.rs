//! Seeded random documents and twig patterns, shared by the differential
//! tests here and the ranker's top-k equivalence test (`lotusx-rank`
//! includes this file by path).

use lotusx_datagen::rng::XorShiftRng;
use lotusx_index::IndexedDocument;
use lotusx_twig::pattern::{Axis, NodeTest, TwigPattern, ValuePredicate};
use lotusx_xml::{Document, NodeId};
use std::collections::VecDeque;

const TAGS: [&str; 3] = ["a", "b", "c"];

/// Leaf texts and `year` attribute values are drawn from `0..VALUES`, so
/// a random predicate over the same range selects a fair share of them.
const VALUES: u32 = 4;

/// Leaf texts that are not small integers, one leaf in six: the numbers
/// that do not order (`NaN` parses as `f64` and compares false with
/// everything; the infinities parse too, and do order) and a word whose
/// case folds outside ASCII.
const ODD_TEXTS: [&str; 5] = ["NaN", "inf", "-inf", "Éclair", "éclair"];

#[derive(Clone, Debug)]
struct GenTree {
    tag: usize,
    /// The `year` attribute, on about half the elements.
    year: Option<u32>,
    /// Text, on leaves only: a small integer or one of [`ODD_TEXTS`].
    text: Option<String>,
    children: Vec<GenTree>,
}

fn random_text(rng: &mut XorShiftRng) -> String {
    if rng.gen_bool(1.0 / 6.0) {
        ODD_TEXTS[rng.gen_range(0..ODD_TEXTS.len())].to_string()
    } else {
        rng.gen_range(0..VALUES).to_string()
    }
}

fn random_tree(rng: &mut XorShiftRng, depth: u32, budget: &mut u32) -> GenTree {
    let tag = rng.gen_range(0..TAGS.len());
    let year = rng.gen_bool(0.5).then(|| rng.gen_range(0..VALUES));
    if depth == 0 || *budget == 0 || rng.gen_bool(0.2) {
        return GenTree {
            tag,
            year,
            text: Some(random_text(rng)),
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
    GenTree {
        tag,
        year,
        text: None,
        children,
    }
}

/// Appends `t`'s element (not its children) under `parent`.
fn append(doc: &mut Document, parent: NodeId, t: &GenTree) -> NodeId {
    let e = doc.append_element(parent, TAGS[t.tag]);
    if let Some(year) = t.year {
        doc.set_attribute(e, "year", year.to_string());
    }
    if let Some(text) = &t.text {
        doc.append_text(e, text.clone());
    }
    e
}

/// Builds the tree in preorder: node ids ascend with document order, as
/// in every parsed document.
fn build(doc: &mut Document, parent: NodeId, t: &GenTree) {
    let e = append(doc, parent, t);
    for c in &t.children {
        build(doc, e, c);
    }
}

/// Builds the tree level by level: the same document, but a node's id
/// says nothing about its position — what an arena assembled through the
/// tree API (the xmark generator, an editor) can look like.
fn build_breadth_first(doc: &mut Document, root: &GenTree) {
    let mut pending = VecDeque::from([(NodeId::DOCUMENT, root)]);
    while let Some((parent, t)) = pending.pop_front() {
        let e = append(doc, parent, t);
        pending.extend(t.children.iter().map(|c| (e, c)));
    }
}

/// A value predicate on about a third of pattern nodes, spread over every
/// branch of the stream filter: `Equals`/`Range` resolve through the value
/// index, `Contains` through the term postings (which hold attribute
/// values too), and the attribute forms scan the tag stream.
fn random_predicate(rng: &mut XorShiftRng) -> Option<ValuePredicate> {
    if !rng.gen_bool(1.0 / 3.0) {
        return None;
    }
    let value = rng.gen_range(0..VALUES);
    let (low, high) = (f64::from(value), f64::from(value + 1));
    let name = "year".to_string();
    Some(match rng.gen_range(0..9u32) {
        0 => ValuePredicate::Equals(value.to_string()),
        1 => ValuePredicate::Contains(value.to_string()),
        2 => ValuePredicate::Range { low, high },
        // Open ranges reach the infinities (and must not reach `NaN`);
        // the folded word must match both of its spellings.
        7 if rng.gen_bool(0.5) => ValuePredicate::Range {
            low,
            high: f64::INFINITY,
        },
        7 => ValuePredicate::Range {
            low: f64::NEG_INFINITY,
            high,
        },
        8 => ValuePredicate::Equals("ÉCLAIR".to_string()),
        3 => ValuePredicate::AttrEquals {
            name,
            value: value.to_string(),
        },
        4 => ValuePredicate::AttrContains {
            name,
            value: value.to_string(),
        },
        5 => ValuePredicate::AttrRange { name, low, high },
        _ => ValuePredicate::AttrExists { name },
    })
}

/// A small random pattern: a root plus up to 4 more nodes attached to
/// random earlier nodes with random axes/tests. About a fifth of roots
/// hang off the document by the child axis (binding the root element
/// only); the rest float.
fn random_pattern(rng: &mut XorShiftRng, root_tag: usize) -> TwigPattern {
    // Wildcard roots multiply matches combinatorially and slow the naive
    // oracle to a crawl; interior wildcards cover the case. A child-axis
    // root takes the document root's tag: any other matches nothing.
    let (test, axis) = if rng.gen_bool(0.2) {
        (TAGS[root_tag], Axis::Child)
    } else {
        (TAGS[rng.gen_range(0..TAGS.len())], Axis::Descendant)
    };
    let mut pattern = TwigPattern::new(NodeTest::Tag(test.to_string()), axis);
    pattern.set_predicate(pattern.root(), random_predicate(rng));
    let mut ids = vec![pattern.root()];
    for _ in 0..rng.gen_range(0..4usize) {
        let parent = ids[rng.gen_range(0..5usize) % ids.len()];
        let axis = if rng.gen_bool(0.5) {
            Axis::Child
        } else {
            Axis::Descendant
        };
        let tag = rng.gen_range(0..TAGS.len());
        let test = if rng.gen_bool(0.2) {
            NodeTest::Wildcard
        } else {
            NodeTest::Tag(TAGS[tag].to_string())
        };
        let id = pattern.add_child(parent, axis, test);
        pattern.set_predicate(id, random_predicate(rng));
        ids.push(id);
    }
    pattern.set_ordered(rng.gen_bool(0.5));
    pattern
}

/// One random case: a document of 20 to ~60 elements over three tags
/// (few tags and deep nesting make matches — and same-tag recursion —
/// common) whose leaves carry small integer text (one in six an odd one)
/// and half of whose elements a `year` attribute, indexed — one arena in
/// four numbered out of document order; and a pattern of 1–4 nodes that
/// is ordered half the time and carries predicates on a third of them.
pub fn random_case(rng: &mut XorShiftRng) -> (IndexedDocument, TwigPattern) {
    let (doc, root_tag) = loop {
        let mut budget = 60u32;
        let root = random_tree(rng, 6, &mut budget);
        let mut doc = Document::new();
        if rng.gen_bool(0.25) {
            build_breadth_first(&mut doc, &root);
        } else {
            build(&mut doc, NodeId::DOCUMENT, &root);
        }
        if doc.element_count() > 20 {
            break (doc, root.tag);
        }
    };
    let pattern = random_pattern(rng, root_tag);
    (IndexedDocument::build(doc), pattern)
}
