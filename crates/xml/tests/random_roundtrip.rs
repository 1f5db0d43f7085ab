//! Randomized tests (seeded, deterministic): serialize → parse is the
//! identity on document structure, parsing never panics, and escaping
//! round-trips. Ported from proptest to plain seeded loops so the
//! workspace builds offline.

use lotusx_datagen::rng::XorShiftRng;
use lotusx_xml::{Document, DocumentBuilder, NodeId, NodeKind};

const TAGS: [&str; 8] = ["a", "b", "book", "title", "author", "item", "x-y", "ns:tag"];
const ATTR_NAMES: [&str; 3] = ["k", "id", "year"];
// Includes characters that require escaping and multi-byte UTF-8.
const TEXT_CHARS: [char; 10] = ['a', 'b', ' ', '&', '<', '>', '"', '\'', 'é', '中'];

/// A lightweight random tree we materialize into a `Document`.
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
        let len = rng.gen_range(1..12usize);
        let s: String = (0..len)
            .map(|_| TEXT_CHARS[rng.gen_range(0..TEXT_CHARS.len())])
            .collect();
        if !s.chars().all(|c| c.is_ascii_whitespace()) {
            return s;
        }
    }
}

fn random_attrs(rng: &mut XorShiftRng, max: usize) -> Vec<(usize, String)> {
    let n = rng.gen_range(0..max + 1);
    let mut seen = std::collections::HashSet::new();
    (0..n)
        .map(|_| (rng.gen_range(0..ATTR_NAMES.len()), random_text(rng)))
        .filter(|(k, _)| seen.insert(*k))
        .collect()
}

fn random_node(rng: &mut XorShiftRng, depth: u32) -> GenNode {
    if depth == 0 || rng.gen_bool(0.35) {
        if rng.gen_bool(0.5) {
            return GenNode::Text(random_text(rng));
        }
        return GenNode::Element {
            tag: rng.gen_range(0..TAGS.len()),
            attrs: random_attrs(rng, 2),
            children: vec![],
        };
    }
    let children = (0..rng.gen_range(0..4usize))
        .map(|_| random_node(rng, depth - 1))
        .collect();
    GenNode::Element {
        tag: rng.gen_range(0..TAGS.len()),
        attrs: random_attrs(rng, 3),
        children: merge_adjacent_text(children),
    }
}

/// Adjacent generated text nodes would be merged by any parser; merge them
/// up front so the comparison is well-defined.
fn merge_adjacent_text(children: Vec<GenNode>) -> Vec<GenNode> {
    let mut out: Vec<GenNode> = Vec::new();
    for c in children {
        match (out.last_mut(), c) {
            (Some(GenNode::Text(prev)), GenNode::Text(t)) => prev.push_str(&t),
            (_, c) => out.push(c),
        }
    }
    out
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
                doc.set_attribute(e, ATTR_NAMES[*k], v.clone());
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

fn structure(doc: &Document, id: NodeId) -> String {
    // Canonical structural fingerprint.
    match doc.kind(id) {
        NodeKind::Document => doc
            .children(id)
            .map(|c| structure(doc, c))
            .collect::<Vec<_>>()
            .join(""),
        NodeKind::Element { .. } => {
            let mut attrs = doc.attributes(id);
            attrs.sort();
            format!(
                "E({};{:?};[{}])",
                doc.tag_name(id).unwrap(),
                attrs,
                doc.children(id)
                    .map(|c| structure(doc, c))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        }
        NodeKind::Text(t) => format!("T({t:?})"),
        NodeKind::Comment(t) => format!("C({t:?})"),
        NodeKind::Pi { target, data } => format!("P({target:?},{data:?})"),
    }
}

#[test]
fn serialize_then_parse_preserves_structure() {
    let mut rng = XorShiftRng::seed_from_u64(0xD0C);
    for case in 0..128 {
        let mut doc = Document::new();
        let root = doc.append_element(NodeId::DOCUMENT, TAGS[rng.gen_range(0..TAGS.len())]);
        let children = (0..rng.gen_range(0..5usize))
            .map(|_| random_node(&mut rng, 4))
            .collect();
        for c in merge_adjacent_text(children) {
            build(&mut doc, root, &c);
        }
        let xml = doc.to_xml();
        let parsed = Document::parse_with_options(
            &xml,
            lotusx_xml::ParseOptions {
                trim_whitespace_text: false,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| {
            panic!("case {case}: serialized output must be well-formed: {e}\n{xml}")
        });
        assert_eq!(
            structure(&doc, NodeId::DOCUMENT),
            structure(&parsed, NodeId::DOCUMENT),
            "case {case}: {xml}"
        );
    }
}

#[test]
fn parse_never_panics_on_arbitrary_input() {
    const POOL: [char; 20] = [
        '<', '>', '&', '"', '\'', '=', '/', '?', '!', '-', 'a', 'b', ' ', '\t', 'é', '中', ';',
        '#', 'x', '0',
    ];
    let mut rng = XorShiftRng::seed_from_u64(0xBAD);
    for _ in 0..512 {
        let len = rng.gen_range(0..200usize);
        let input: String = (0..len)
            .map(|_| POOL[rng.gen_range(0..POOL.len())])
            .collect();
        let _ = Document::parse_str(&input);
    }
}

#[test]
fn escape_unescape_roundtrip() {
    let mut rng = XorShiftRng::seed_from_u64(0xE5C);
    for _ in 0..256 {
        let len = rng.gen_range(0..80usize);
        let text: String = (0..len)
            .map(|_| TEXT_CHARS[rng.gen_range(0..TEXT_CHARS.len())])
            .collect();
        let escaped = lotusx_xml::escape::escape_text(&text);
        let back = lotusx_xml::escape::unescape(&escaped, &escaped, 0).unwrap();
        assert_eq!(back, text);
    }
}

// ----------------------------------------------------------------------
// Tree-API documents: comments, PIs, ids that do not ascend with
// document order, attribute replacement, text coalescing, and the
// parse → serialize → parse fixpoint. Every serialized byte these tests
// produce is folded into one FNV-1a, recorded on the commit before the
// document became struct-of-arrays columns with a byte arena.
// ----------------------------------------------------------------------

const COMMENT_CHARS: [char; 6] = ['c', ' ', '<', '&', 'é', '中'];
const PI_TARGETS: [&str; 3] = ["render", "pi-x", "t"];
const PI_CHARS: [char; 6] = ['d', '=', '"', ' ', '<', 'é'];

/// A random tree that also holds comments and PIs.
#[derive(Clone, Debug)]
enum RichNode {
    Element {
        tag: usize,
        attrs: Vec<(usize, String)>,
        children: Vec<RichNode>,
    },
    Text(String),
    Comment(String),
    Pi(&'static str, String),
}

fn random_from(rng: &mut XorShiftRng, pool: &[char], min: usize) -> String {
    let len = rng.gen_range(min..10usize);
    (0..len)
        .map(|_| pool[rng.gen_range(0..pool.len())])
        .collect()
}

fn random_rich(rng: &mut XorShiftRng, depth: u32) -> RichNode {
    match rng.gen_range(0..10u32) {
        0 => return RichNode::Comment(random_from(rng, &COMMENT_CHARS, 1)),
        1 => {
            let target = PI_TARGETS[rng.gen_range(0..PI_TARGETS.len())];
            // Data never starts with whitespace: the tokenizer trims it.
            let data = random_from(rng, &PI_CHARS, 0);
            let data = data.trim_start().to_string();
            return RichNode::Pi(target, data);
        }
        2..=4 => return RichNode::Text(random_text(rng)),
        _ => {}
    }
    let children = if depth == 0 {
        Vec::new()
    } else {
        (0..rng.gen_range(0..5usize))
            .map(|_| random_rich(rng, depth - 1))
            .collect()
    };
    RichNode::Element {
        tag: rng.gen_range(0..TAGS.len()),
        attrs: random_attrs(rng, 3),
        children: merge_rich_text(children),
    }
}

fn merge_rich_text(children: Vec<RichNode>) -> Vec<RichNode> {
    let mut out: Vec<RichNode> = Vec::new();
    for c in children {
        match (out.last_mut(), c) {
            (Some(RichNode::Text(prev)), RichNode::Text(t)) => prev.push_str(&t),
            (_, c) => out.push(c),
        }
    }
    out
}

/// Materializes `node` bottom-up: every child exists before its parent,
/// so ids descend against document order. The first half of each
/// element's attributes is set to a placeholder here and replaced by
/// [`set_real_attributes`] once the whole tree stands.
fn build_bottom_up(doc: &mut DocumentBuilder, node: &RichNode) -> NodeId {
    match node {
        RichNode::Element {
            tag,
            attrs,
            children,
        } => {
            let kids: Vec<NodeId> = children.iter().map(|c| build_bottom_up(doc, c)).collect();
            let e = doc.new_element(TAGS[*tag]);
            for (k, _) in &attrs[..attrs.len() / 2] {
                doc.set_attribute(e, ATTR_NAMES[*k], "placeholder");
            }
            for k in kids {
                doc.append_child(e, k);
            }
            e
        }
        RichNode::Text(t) => doc.new_text(t.clone()),
        RichNode::Comment(t) => doc.new_comment(t.clone()),
        RichNode::Pi(target, data) => doc.new_pi(*target, data.clone()),
    }
}

/// Sets every element's real attribute values, last element first:
/// the placeholders are replaced in place, the rest appended.
fn set_real_attributes(doc: &mut DocumentBuilder, id: NodeId, node: &RichNode) {
    if let RichNode::Element {
        attrs, children, ..
    } = node
    {
        let kids: Vec<NodeId> = doc.children(id).collect();
        for (kid, child) in kids.iter().zip(children).rev() {
            set_real_attributes(doc, *kid, child);
        }
        for (k, v) in attrs {
            doc.set_attribute(id, ATTR_NAMES[*k], v.clone());
        }
    }
}

/// A document with an optional top-level comment and PI around a random
/// root element, assembled in a builder with descending ids.
fn random_tree_api_document(rng: &mut XorShiftRng) -> (DocumentBuilder, RichNode) {
    let root = loop {
        let node = random_rich(rng, 4);
        if matches!(node, RichNode::Element { .. }) {
            break node;
        }
    };
    let mut doc = DocumentBuilder::new();
    let before = rng
        .gen_bool(0.3)
        .then(|| RichNode::Comment(random_from(rng, &COMMENT_CHARS, 1)));
    let after = rng.gen_bool(0.3).then(|| RichNode::Pi("t", "end".into()));
    let root_id = build_bottom_up(&mut doc, &root);
    let before_id = before.as_ref().map(|b| build_bottom_up(&mut doc, b));
    let after_id = after.as_ref().map(|a| build_bottom_up(&mut doc, a));
    for id in before_id.into_iter().chain([root_id]).chain(after_id) {
        doc.append_child(NodeId::DOCUMENT, id);
    }
    set_real_attributes(&mut doc, root_id, &root);
    (doc, root)
}

fn keep_everything() -> lotusx_xml::ParseOptions {
    lotusx_xml::ParseOptions {
        trim_whitespace_text: false,
        keep_comments: true,
        keep_pis: true,
        ..Default::default()
    }
}

/// FNV-1a 64, folded over several inputs.
fn fnv_fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of every compact and pretty serialization below, recorded
/// before the columnar document landed.
const TREE_API_BYTES: u64 = 0x58a6_3741_5dd7_5dc7;

#[test]
fn tree_api_documents_serialize_byte_identically_and_reparse() {
    let mut rng = XorShiftRng::seed_from_u64(0x7AEE);
    let mut hash = FNV_BASIS;
    let mut renumbered = 0;
    for case in 0..128 {
        let (built, root) = random_tree_api_document(&mut rng);
        let built_root = built.element_children(NodeId::DOCUMENT).next().unwrap();
        // Bottom-up construction: the root was created after its subtree.
        if let Some(child) = built.first_child(built_root) {
            assert!(child < built_root, "case {case}");
            renumbered += 1;
        }
        let (doc, ids) = built.clone().finish_renumbered();
        assert_the_renumbering_keeps_the_tree(&built, &doc, &ids, case);
        let first = doc.root_element().expect("has a root");
        // Replacement kept the first-set attributes in place.
        if let RichNode::Element { attrs, .. } = &root {
            let names: Vec<&str> = doc.attributes(first).iter().map(|(n, _)| *n).collect();
            let mut want: Vec<&str> = attrs[..attrs.len() / 2]
                .iter()
                .map(|(k, _)| ATTR_NAMES[*k])
                .collect();
            want.extend(attrs[attrs.len() / 2..].iter().map(|(k, _)| ATTR_NAMES[*k]));
            assert_eq!(names, want, "case {case}");
            for (k, v) in attrs {
                assert_eq!(doc.attribute(first, ATTR_NAMES[*k]), Some(v.as_str()));
            }
        }
        let xml = doc.to_xml();
        hash = fnv_fold(hash, xml.as_bytes());
        hash = fnv_fold(hash, doc.to_xml_pretty().as_bytes());
        let parsed = Document::parse_with_options(&xml, keep_everything())
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{xml}"));
        assert_eq!(
            structure(&doc, NodeId::DOCUMENT),
            structure(&parsed, NodeId::DOCUMENT),
            "case {case}: {xml}"
        );
        assert_eq!(parsed.to_xml(), xml, "case {case}");
    }
    assert_eq!(
        hash, TREE_API_BYTES,
        "serialized bytes moved: 0x{hash:016x}"
    );
    assert!(renumbered > 64, "builder ids out of preorder: {renumbered}");
}

/// The frozen document is the builder's tree, node for node through the
/// renumbering: every node keeps its parent, first child, next sibling,
/// children, subtree, direct text, kind and attributes, and its new id
/// is its place in the builder's preorder.
fn assert_the_renumbering_keeps_the_tree(
    built: &DocumentBuilder,
    doc: &Document,
    ids: &[Option<NodeId>],
    case: usize,
) {
    let map = |n: NodeId| ids[n.index()].expect("attached under the root");
    let preorder: Vec<NodeId> = built.descendants_or_self(NodeId::DOCUMENT).collect();
    assert_eq!(preorder.len(), doc.node_count(), "case {case}");
    for (at, &old) in preorder.iter().enumerate() {
        let new = map(old);
        assert_eq!(new.index(), at, "case {case}: {old:?}");
        assert_eq!(built.parent(old).map(map), doc.parent(new), "case {case}");
        assert_eq!(
            built.first_child(old).map(map),
            doc.first_child(new),
            "case {case}"
        );
        assert_eq!(
            built.next_sibling(old).map(map),
            doc.next_sibling(new),
            "case {case}"
        );
        assert!(
            built.children(old).map(map).eq(doc.children(new)),
            "case {case}: children of {old:?}"
        );
        assert!(
            built
                .descendants_or_self(old)
                .map(map)
                .eq(doc.descendants_or_self(new)),
            "case {case}: subtree of {old:?}"
        );
        assert_eq!(built.direct_text(old), doc.direct_text(new), "case {case}");
        assert_eq!(built.kind(old), doc.kind(new), "case {case}");
    }
}

/// Splits every text of `node` into one to three adjacent text nodes.
fn build_split_text(doc: &mut Document, parent: NodeId, node: &GenNode, rng: &mut XorShiftRng) {
    match node {
        GenNode::Element {
            tag,
            attrs,
            children,
        } => {
            let e = doc.append_element(parent, TAGS[*tag]);
            for (k, v) in attrs {
                doc.set_attribute(e, ATTR_NAMES[*k], v.clone());
            }
            for c in children {
                build_split_text(doc, e, c, rng);
            }
        }
        GenNode::Text(t) => {
            let chars: Vec<char> = t.chars().collect();
            let mut cut = 0;
            while cut < chars.len() {
                let next = (cut + rng.gen_range(1..chars.len() + 1)).min(chars.len());
                let piece: String = chars[cut..next].iter().collect();
                doc.append_text(parent, piece);
                cut = next;
            }
        }
    }
}

#[test]
fn coalesced_text_serializes_like_text_built_whole() {
    let mut rng = XorShiftRng::seed_from_u64(0xC0A1);
    let mut hash = FNV_BASIS;
    for case in 0..128 {
        let root = loop {
            let node = random_node(&mut rng, 4);
            if matches!(node, GenNode::Element { .. }) {
                break node;
            }
        };
        let mut whole = Document::new();
        build(&mut whole, NodeId::DOCUMENT, &root);
        let mut split = Document::new();
        build_split_text(&mut split, NodeId::DOCUMENT, &root, &mut rng);
        let pieces = split.node_count() - whole.node_count();
        assert_eq!(lotusx_xml::parser::coalesce_text(&mut split), pieces);
        // Emptied text nodes stay in the tree but serialize to nothing.
        assert_eq!(split.node_count(), whole.node_count() + pieces);
        assert_eq!(split.to_xml(), whole.to_xml(), "case {case}");
        assert_eq!(split.to_xml_pretty(), whole.to_xml_pretty(), "case {case}");
        let elements =
            |d: &Document| -> Vec<NodeId> { d.all_nodes().filter(|&n| d.is_element(n)).collect() };
        for (a, b) in elements(&split).into_iter().zip(elements(&whole)) {
            assert_eq!(split.direct_text(a), whole.direct_text(b), "case {case}");
        }
        hash = fnv_fold(hash, split.to_xml().as_bytes());
        // A second pass re-merges the emptied nodes into their run's
        // head, which changes no byte.
        lotusx_xml::parser::coalesce_text(&mut split);
        assert_eq!(split.to_xml(), whole.to_xml(), "case {case}");
    }
    assert_eq!(
        hash, COALESCED_BYTES,
        "serialized bytes moved: 0x{hash:016x}"
    );
}

/// FNV-1a of every coalesced serialization above.
const COALESCED_BYTES: u64 = 0x874a_c908_20dd_eaf3;

#[test]
fn parse_serialize_parse_is_a_fixpoint() {
    let mut rng = XorShiftRng::seed_from_u64(0xF1C5);
    for case in 0..128 {
        let doc = random_tree_api_document(&mut rng).0.finish();
        // Pretty output adds whitespace text; with it kept, the second
        // round must reproduce the first byte for byte.
        for xml in [doc.to_xml(), doc.to_xml_pretty()] {
            for options in [keep_everything(), lotusx_xml::ParseOptions::default()] {
                let once = Document::parse_with_options(&xml, options)
                    .unwrap_or_else(|e| panic!("case {case}: {e}\n{xml}"));
                let text = once.to_xml();
                let twice = Document::parse_with_options(&text, options).expect("reparses");
                assert_eq!(twice.to_xml(), text, "case {case}");
                // Dropping a comment between two texts leaves them
                // adjacent, which the next parse reads as one node: the
                // structure is a fixpoint only when nothing is dropped.
                if options.keep_comments {
                    assert_eq!(
                        structure(&once, NodeId::DOCUMENT),
                        structure(&twice, NodeId::DOCUMENT),
                        "case {case}"
                    );
                }
            }
        }
    }
}
