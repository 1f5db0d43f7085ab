//! Preorder is the position (seeded, deterministic): node ids are the
//! document order, an element's region is arithmetic on its id, its
//! subtree end and its level, and the index gathers the all-elements
//! stream that `*` query nodes scan only when one first asks.
//!
//! - On random documents appended in preorder, parsed, and loaded from a
//!   snapshot, every element's region equals what
//!   `DocumentLabels::compute` assigns it,
//!   and the gathered all-elements stream is every element in document
//!   order with its subtree end and level.
//! - Every random twig with a `*` node answers like the naive oracle,
//!   built and loaded.
//! - The six dblp benchmark twigs never gather the all-elements stream;
//!   the first `*` query gathers it once, also when two threads race.

#[path = "../crates/twig/tests/random_inputs/mod.rs"]
mod random_inputs;

use lotusx::{CorpusSource, LotusX, QueryRequest};
use lotusx_datagen::rng::XorShiftRng;
use lotusx_datagen::{queries, Dataset};
use lotusx_index::snapshot::{decode_sections, encode_sections};
use lotusx_index::{DocumentLabels, IndexedDocument};
use lotusx_twig::pattern::NodeTest;
use lotusx_twig::{execute, Algorithm};
use lotusx_xml::NodeId;

/// Every element of `idx` against the labeling oracle: its arithmetic
/// region, start and level are the ones computed by the enter/exit walk;
/// the all-elements stream lists the elements in document order with
/// their subtree ends and levels.
fn assert_regions_match_the_labeling(idx: &IndexedDocument, what: &str) {
    let doc = idx.document();
    let labels = DocumentLabels::compute(doc);
    let mut in_order: Vec<NodeId> = Vec::new();
    for node in doc.all_nodes().filter(|&n| doc.is_element(n)) {
        let region = labels.region(node);
        assert_eq!(idx.region(node), region, "{what}: {node:?}");
        assert_eq!(idx.start(node), region.start, "{what}: {node:?}");
        assert_eq!(idx.level(node), region.level, "{what}: {node:?}");
        in_order.push(node);
    }
    let all = idx.columns().all_elements();
    assert_eq!(all.nodes(), in_order, "{what}");
    for (i, &node) in in_order.iter().enumerate() {
        let (_, end, level) = all.element(i);
        assert_eq!(end, doc.subtree_end(node), "{what}: {node:?}");
        assert_eq!(level, labels.region(node).level, "{what}: {node:?}");
    }
}

#[test]
fn every_element_reads_the_region_the_labeling_assigns() {
    let mut rng = XorShiftRng::seed_from_u64(0x9051);
    for case in 0..150 {
        let (built, _) = random_inputs::random_case(&mut rng);
        assert_regions_match_the_labeling(&built, &format!("case {case}, built"));
        // Appending in preorder numbers the nodes as parsing the
        // serialized tree does.
        let parsed = IndexedDocument::from_str(&built.document().to_xml()).unwrap();
        let (doc, reparsed) = (built.document(), parsed.document());
        assert_eq!(doc.node_count(), reparsed.node_count(), "case {case}");
        for node in doc.all_nodes() {
            assert_eq!(doc.tag_name(node), reparsed.tag_name(node), "case {case}");
            assert_eq!(doc.parent(node), reparsed.parent(node), "case {case}");
        }
        assert_regions_match_the_labeling(&parsed, &format!("case {case}, parsed"));
        let loaded = decode_sections(encode_sections(&built)).unwrap();
        assert_regions_match_the_labeling(&loaded, &format!("case {case}, loaded"));
    }
}

#[test]
fn every_random_wildcard_twig_answers_like_naive_built_and_loaded() {
    let mut rng = XorShiftRng::seed_from_u64(0x2A57);
    let (mut wildcard_cases, mut rows) = (0, 0);
    while wildcard_cases < 150 {
        let (built, pattern) = random_inputs::random_case(&mut rng);
        let wildcard = pattern
            .node_ids()
            .any(|q| matches!(pattern.node(q).test, NodeTest::Wildcard));
        if !wildcard {
            continue;
        }
        wildcard_cases += 1;
        let loaded = decode_sections(encode_sections(&built)).unwrap();
        for (idx, what) in [(&built, "built"), (&loaded, "loaded")] {
            let reference = execute(idx, &pattern, Algorithm::Naive);
            let got = execute(idx, &pattern, Algorithm::StructuralJoin);
            assert_eq!(got, reference, "{what}: {pattern}");
            rows += reference.len();
        }
    }
    assert!(rows > 1000, "wildcard twigs must match: {rows}");
}

#[test]
fn only_a_wildcard_query_gathers_the_all_elements_stream_and_only_once() {
    let system = LotusX::open(&"@dblp:2:2012".parse::<CorpusSource>().unwrap()).unwrap();
    let columns = system.index().columns();
    for q in queries::queries(Dataset::DblpLike) {
        let response = system.query(&QueryRequest::twig(q.text)).unwrap();
        assert!(response.total_matches > 0, "{}", q.id);
        assert!(!columns.all_elements_gathered(), "{} gathered it", q.id);
    }
    let before = columns.size_bytes();
    let barrier = std::sync::Barrier::new(2);
    let seen: Vec<usize> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let response = system.query(&QueryRequest::twig("//article/*")).unwrap();
                    assert!(response.total_matches > 0);
                    columns.all_elements().nodes().as_ptr() as usize
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(seen[0], seen[1], "both racers read one gathered copy");
    assert!(columns.all_elements_gathered());
    let elements = system.index().stats().element_count;
    assert_eq!(columns.all_elements().len(), elements);
    assert_eq!(columns.all_elements().nodes().as_ptr() as usize, seen[0]);
    // A node id, a subtree end and a level per element.
    assert_eq!(columns.size_bytes(), before + 10 * elements);
}
