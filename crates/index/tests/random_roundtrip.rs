//! Randomized tests (seeded, deterministic) of the snapshot section
//! codecs, the `DOCUMENT` section first of all: index → sections → index
//! is the identity on random mixed-content trees and on the generated
//! benchmark corpora, a load derives the same tag streams, DataGuide and
//! statistics a fresh build holds, and random corruption of a framed
//! snapshot never panics.

use lotusx_datagen::rng::XorShiftRng;
use lotusx_index::snapshot::{decode_sections, encode_sections};
use lotusx_index::{GuideNodeId, IndexedDocument, Stats};
use lotusx_storage::{read_snapshot, write_snapshot};
use lotusx_xml::{Document, NodeId, NodeKind, Symbol};

const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];
const ATTRS: [&str; 3] = ["k", "id", "year"];
const TEXT_CHARS: [char; 15] = [
    'a', 'z', 'q', 'm', '0', '5', '9', ' ', '<', '>', '&', '"', '\'', 'x', '3',
];

#[derive(Clone, Debug)]
enum GenNode {
    Element {
        tag: usize,
        attrs: Vec<(usize, String)>,
        children: Vec<GenNode>,
    },
    Text(String),
}

fn random_text(rng: &mut XorShiftRng) -> String {
    loop {
        let len = rng.gen_range(1..16usize);
        let s: String = (0..len)
            .map(|_| TEXT_CHARS[rng.gen_range(0..TEXT_CHARS.len())])
            .collect();
        if !s.trim().is_empty() {
            return s;
        }
    }
}

fn random_node(rng: &mut XorShiftRng, depth: u32) -> GenNode {
    if depth == 0 || rng.gen_bool(0.35) {
        if rng.gen_bool(0.5) {
            return GenNode::Text(random_text(rng));
        }
        return GenNode::Element {
            tag: rng.gen_range(0..TAGS.len()),
            attrs: vec![],
            children: vec![],
        };
    }
    let mut seen = std::collections::HashSet::new();
    let attrs = (0..rng.gen_range(0..2usize))
        .map(|_| (rng.gen_range(0..ATTRS.len()), random_text(rng)))
        .filter(|(k, _)| seen.insert(*k))
        .collect();
    let children = (0..rng.gen_range(0..4usize))
        .map(|_| random_node(rng, depth - 1))
        .collect();
    GenNode::Element {
        tag: rng.gen_range(0..TAGS.len()),
        attrs,
        children,
    }
}

fn build(doc: &mut Document, parent: NodeId, node: &GenNode) {
    match node {
        GenNode::Element {
            tag,
            attrs,
            children,
        } => {
            let e = doc.append_element(parent, TAGS[*tag]);
            for (k, v) in attrs {
                doc.set_attribute(e, ATTRS[*k], v.clone());
            }
            for c in children {
                build(doc, e, c);
            }
        }
        GenNode::Text(t) => {
            doc.append_text(parent, t.clone());
        }
    }
}

/// The statistics by their definitions, node by node: depth by walking
/// the parent links, fan-out by counting element children.
fn recount(doc: &Document) -> Stats {
    let mut stats = Stats {
        distinct_tags: doc.symbols().len(),
        ..Stats::default()
    };
    let (mut fanout_sum, mut internal) = (0, 0);
    for node in doc.all_nodes().skip(1) {
        match doc.kind(node) {
            NodeKind::Element { attributes, .. } => {
                stats.element_count += 1;
                stats.attribute_count += attributes.len();
                let depth = doc.depth(node);
                stats.max_depth = stats.max_depth.max(depth);
                let depth = depth as usize;
                if stats.depth_histogram.len() <= depth {
                    stats.depth_histogram.resize(depth + 1, 0);
                }
                stats.depth_histogram[depth] += 1;
                let kids = doc.element_children(node).count();
                fanout_sum += kids;
                internal += usize::from(kids > 0);
            }
            NodeKind::Text(_) => stats.text_count += 1,
            _ => {}
        }
    }
    if internal > 0 {
        stats.avg_fanout = fanout_sum as f64 / internal as f64;
    }
    stats
}

fn assert_stats_eq(got: &Stats, want: &Stats, case: &str) {
    assert_eq!(got.element_count, want.element_count, "{case}");
    assert_eq!(got.text_count, want.text_count, "{case}");
    assert_eq!(got.attribute_count, want.attribute_count, "{case}");
    assert_eq!(got.distinct_tags, want.distinct_tags, "{case}");
    assert_eq!(got.max_depth, want.max_depth, "{case}");
    assert_eq!(got.depth_histogram, want.depth_histogram, "{case}");
    assert_eq!(
        got.avg_fanout.to_bits(),
        want.avg_fanout.to_bits(),
        "{case}"
    );
}

/// Guide nodes as `(tag, parent)` in the order a depth-first walk over
/// `(element, guide node)` pairs creates them: the children of the
/// element popped last-pushed-first, in document order.
fn dfs_numbering(doc: &Document) -> Vec<(Option<Symbol>, Option<usize>)> {
    let mut nodes = vec![(None, None)];
    let mut children: Vec<Vec<(Symbol, usize)>> = vec![Vec::new()];
    let mut stack = vec![(NodeId::DOCUMENT, 0)];
    while let Some((node, g)) = stack.pop() {
        for child in doc.element_children(node) {
            let tag = doc.tag(child).unwrap();
            let found = children[g].iter().find(|(t, _)| *t == tag);
            let gc = match found {
                Some(&(_, gc)) => gc,
                None => {
                    nodes.push((Some(tag), Some(g)));
                    children.push(Vec::new());
                    children[g].push((tag, nodes.len() - 1));
                    nodes.len() - 1
                }
            };
            stack.push((child, gc));
        }
    }
    nodes
}

/// A load derives what the fresh build of its source holds, node for
/// node — both trees are in preorder, so ids carry over unchanged: every
/// tag stream (nodes, subtree ends, levels, parent slots, arena offset),
/// the DataGuide with its numbering, each node's guide node and the
/// statistics. The loaded index also equals a fresh build over the
/// loaded tree, and its guide and statistics match their definitions.
fn assert_derived_alike(fresh: &IndexedDocument, case: &str) {
    let loaded = decode_sections(encode_sections(fresh)).expect("own sections decode");
    let (doc, back) = (fresh.document(), loaded.document());
    assert_eq!(back.node_count(), doc.node_count(), "{case}");
    let (cols, back_cols) = (fresh.columns(), loaded.columns());
    for (sym, name) in doc.symbols().iter() {
        let (a, b) = (cols.view(sym), back_cols.view(sym));
        assert_eq!(a.nodes(), b.nodes(), "{case}: <{name}> nodes");
        assert_eq!(a.ends(), b.ends(), "{case}: <{name}> ends");
        assert_eq!(a.levels(), b.levels(), "{case}: <{name}> levels");
        assert_eq!(a.parent_slots(), b.parent_slots(), "{case}: <{name}>");
        assert_eq!(a.arena_offset(), b.arena_offset(), "{case}: <{name}>");
    }
    for node in doc.all_nodes() {
        assert_eq!(doc.parent(node), back.parent(node), "{case}: {node:?}");
        assert_eq!(doc.subtree_end(node), back.subtree_end(node), "{case}");
        assert_eq!(fresh.guide_node(node), loaded.guide_node(node), "{case}");
    }
    let rebuilt = IndexedDocument::build(back.clone());
    assert!(back_cols == rebuilt.columns(), "{case}: columns");

    let (guide, back_guide) = (fresh.guide(), loaded.guide());
    assert_eq!(guide.node_count(), back_guide.node_count(), "{case}");
    for i in 0..guide.node_count() {
        let g = GuideNodeId::from_index(i);
        assert_eq!(guide.tag(g), back_guide.tag(g), "{case}: guide {i}");
        assert_eq!(guide.parent(g), back_guide.parent(g), "{case}: guide {i}");
        assert_eq!(guide.count(g), back_guide.count(g), "{case}: guide {i}");
        assert_eq!(guide.depth(g), back_guide.depth(g), "{case}: guide {i}");
        assert_eq!(guide.children(g), back_guide.children(g), "{case}");
        let (a, b) = (guide.specificity(g), back_guide.specificity(g));
        assert_eq!(a.to_bits(), b.to_bits(), "{case}: guide {i}");
    }
    // Its numbering is the depth-first walk's that built guides before
    // they were derived at load.
    let numbered = dfs_numbering(back);
    assert_eq!(numbered.len(), back_guide.node_count(), "{case}");
    for (i, &(tag, parent)) in numbered.iter().enumerate() {
        let g = GuideNodeId::from_index(i);
        assert_eq!(back_guide.tag(g), tag, "{case}: guide {i}");
        let got = back_guide.parent(g).map(GuideNodeId::index);
        assert_eq!(got, parent, "{case}: guide {i}");
    }
    // The guide by its definition: one node per distinct tag path,
    // counting the elements on it.
    let mut per_path = std::collections::HashMap::new();
    for node in back.all_nodes().filter(|&n| back.is_element(n)) {
        let g = back_guide.lookup_path(&back.tag_path(node));
        assert_eq!(g, Some(loaded.guide_node(node)), "{case}: {node:?}");
        *per_path.entry(g).or_insert(0u64) += 1;
    }
    assert_eq!(per_path.len() + 1, back_guide.node_count(), "{case}");
    for (g, count) in per_path {
        assert_eq!(back_guide.count(g.unwrap()), count, "{case}");
    }

    assert_stats_eq(loaded.stats(), fresh.stats(), case);
    assert_stats_eq(loaded.stats(), &recount(back), case);
}

#[test]
fn a_load_derives_what_a_fresh_build_holds() {
    let mut rng = XorShiftRng::seed_from_u64(0x2012);
    for case in 0..128 {
        let root = GenNode::Element {
            tag: rng.gen_range(0..TAGS.len()),
            attrs: vec![],
            children: (0..rng.gen_range(1..6usize))
                .map(|_| random_node(&mut rng, 5))
                .collect(),
        };
        let mut doc = Document::new();
        build(&mut doc, NodeId::DOCUMENT, &root);
        let fresh = IndexedDocument::build(doc);
        assert_derived_alike(&fresh, &format!("case {case}"));
    }
    for ds in lotusx_datagen::Dataset::ALL {
        assert_derived_alike(
            &IndexedDocument::build(lotusx_datagen::generate(ds, 1, 7)),
            ds.name(),
        );
    }
}

/// Encodes `doc`'s index set, decodes it again, and checks the decoded
/// side against the source: the same tree, and columns equal to a fresh
/// build over it.
fn assert_roundtrips(doc: Document, case: &str) {
    let idx = IndexedDocument::build(doc);
    let back = decode_sections(encode_sections(&idx)).expect("own sections decode");
    let (doc, back_doc) = (idx.document(), back.document());
    assert_eq!(back_doc.to_xml(), doc.to_xml(), "{case}");
    assert_eq!(back_doc.node_count(), doc.node_count(), "{case}");
    let rebuilt = IndexedDocument::build(back_doc.clone());
    assert!(back.columns() == rebuilt.columns(), "{case}: columns");
}

#[test]
fn encode_decode_is_identity() {
    let mut rng = XorShiftRng::seed_from_u64(0x5707);
    for case in 0..128 {
        let mut doc = Document::new();
        let root = doc.append_element(NodeId::DOCUMENT, TAGS[rng.gen_range(0..TAGS.len())]);
        for _ in 0..rng.gen_range(0..5usize) {
            let node = random_node(&mut rng, 4);
            build(&mut doc, root, &node);
        }
        assert_roundtrips(doc, &format!("case {case}"));
    }
}

#[test]
fn corrupted_bytes_error_but_never_panic() {
    let idx = IndexedDocument::from_str(
        "<bib><book year=\"1999\"><title>data</title><author>lu</author></book></bib>",
    )
    .unwrap();
    let mut clean = Vec::new();
    write_snapshot(&mut clean, &encode_sections(&idx)).unwrap();
    let mut rng = XorShiftRng::seed_from_u64(0xC0FF);
    for _ in 0..256 {
        let mut buf = clean.clone();
        let i = rng.gen_range(0..buf.len());
        buf[i] ^= rng.gen_range(1..256u32) as u8;
        // The section checksum catches nearly every flip; either way the
        // outcome is a typed error, never a panic.
        if let Ok(sections) = read_snapshot(&buf[..]) {
            let _ = decode_sections(sections);
        }
    }
    // Past the checksum (a crafted file): flips inside the DOCUMENT
    // payload itself reach the decoder.
    let sections = encode_sections(&idx);
    for _ in 0..256 {
        let mut tampered = sections.clone();
        let bytes = &mut tampered[0].bytes;
        let i = rng.gen_range(0..bytes.len());
        bytes[i] ^= rng.gen_range(1..256u32) as u8;
        let _ = decode_sections(tampered);
    }
}

#[test]
fn benchmark_corpora_roundtrip() {
    for ds in lotusx_datagen::Dataset::ALL {
        assert_roundtrips(lotusx_datagen::generate(ds, 1, 7), ds.name());
    }
}
