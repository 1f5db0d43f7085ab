//! Randomized tests (seeded, deterministic): serialize → parse is the
//! identity on document structure, parsing never panics, and escaping
//! round-trips. Ported from proptest to plain seeded loops so the
//! workspace builds offline.

use lotusx_datagen::rng::XorShiftRng;
use lotusx_xml::escape::{escape_attr_into, escape_text_into};
use lotusx_xml::{Document, NodeId, NodeKind};

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
        // No generated text is whitespace only, so parsing drops none.
        let parsed = Document::parse_str(&xml).unwrap_or_else(|e| {
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
// Tree-API documents: elements, text and attributes appended in preorder
// and checked node for node against the model they were built from,
// with attribute replacement; XML text around them that also holds
// comments and PIs, which parsing skips; text coalescing; and the
// parse → serialize → parse fixpoint. Every compact serialization these
// tests produce is folded into one FNV-1a.
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

/// The top-level nodes of a random document: an optional comment and PI
/// around a random root element.
fn random_tree_api_nodes(rng: &mut XorShiftRng) -> Vec<RichNode> {
    let root = loop {
        let node = random_rich(rng, 4);
        if matches!(node, RichNode::Element { .. }) {
            break node;
        }
    };
    let before = rng
        .gen_bool(0.3)
        .then(|| RichNode::Comment(random_from(rng, &COMMENT_CHARS, 1)));
    let after = rng.gen_bool(0.3).then(|| RichNode::Pi("t", "end".into()));
    before.into_iter().chain([root]).chain(after).collect()
}

/// `nodes` as XML text, comments and PIs included.
fn rich_xml(nodes: &[RichNode]) -> String {
    fn write(node: &RichNode, out: &mut String) {
        match node {
            RichNode::Element {
                tag,
                attrs,
                children,
            } => {
                out.push('<');
                out.push_str(TAGS[*tag]);
                for (k, v) in attrs {
                    out.push(' ');
                    out.push_str(ATTR_NAMES[*k]);
                    out.push_str("=\"");
                    escape_attr_into(v, out);
                    out.push('"');
                }
                if children.is_empty() {
                    out.push_str("/>");
                    return;
                }
                out.push('>');
                for c in children {
                    write(c, out);
                }
                out.push_str("</");
                out.push_str(TAGS[*tag]);
                out.push('>');
            }
            RichNode::Text(t) => escape_text_into(t, out),
            RichNode::Comment(t) => {
                out.push_str("<!--");
                out.push_str(t);
                out.push_str("-->");
            }
            RichNode::Pi(target, data) => {
                out.push_str("<?");
                out.push_str(target);
                if !data.is_empty() {
                    out.push(' ');
                    out.push_str(data);
                }
                out.push_str("?>");
            }
        }
    }
    let mut out = String::new();
    for node in nodes {
        write(node, &mut out);
    }
    out
}

/// A node of the model as a document must hold it, at its preorder id:
/// comments and PIs are left out, so texts they separated stay two.
#[derive(Debug)]
struct Expected {
    parent: Option<usize>,
    children: Vec<usize>,
    /// The id of the last descendant.
    end: usize,
    kind: Kind,
}

#[derive(Debug)]
enum Kind {
    Document,
    Element(&'static str, Vec<(&'static str, String)>),
    Text(String),
}

fn expected_tree(nodes: &[RichNode]) -> Vec<Expected> {
    fn flatten(node: &RichNode, parent: usize, out: &mut Vec<Expected>) {
        let kind = match node {
            RichNode::Element { tag, attrs, .. } => Kind::Element(
                TAGS[*tag],
                attrs
                    .iter()
                    .map(|(k, v)| (ATTR_NAMES[*k], v.clone()))
                    .collect(),
            ),
            RichNode::Text(t) => Kind::Text(t.clone()),
            RichNode::Comment(_) | RichNode::Pi(..) => return,
        };
        let id = out.len();
        out[parent].children.push(id);
        out.push(Expected {
            parent: Some(parent),
            children: Vec::new(),
            end: id,
            kind,
        });
        if let RichNode::Element { children, .. } = node {
            for c in children {
                flatten(c, id, out);
            }
        }
        out[id].end = out.len() - 1;
    }
    let mut out = vec![Expected {
        parent: None,
        children: Vec::new(),
        end: 0,
        kind: Kind::Document,
    }];
    for node in nodes {
        flatten(node, 0, &mut out);
    }
    out[0].end = out.len() - 1;
    out
}

/// Appends `nodes` in preorder, leaving comments and PIs out. The first
/// half of each element's attributes is first set to a placeholder;
/// once the whole tree stands, every element's real values are set,
/// last element first: the placeholders are replaced in place, the rest
/// appended, and the runs of elements revisited move.
fn build_tree_api_document(nodes: &[RichNode], model: &[Expected]) -> Document {
    fn append(doc: &mut Document, parent: NodeId, node: &RichNode) {
        match node {
            RichNode::Element {
                tag,
                attrs,
                children,
            } => {
                let e = doc.append_element(parent, TAGS[*tag]);
                for (k, _) in &attrs[..attrs.len() / 2] {
                    doc.set_attribute(e, ATTR_NAMES[*k], "placeholder");
                }
                for c in children {
                    append(doc, e, c);
                }
            }
            RichNode::Text(t) => {
                doc.append_text(parent, t);
            }
            RichNode::Comment(_) | RichNode::Pi(..) => {}
        }
    }
    let mut doc = Document::new();
    for node in nodes {
        append(&mut doc, NodeId::DOCUMENT, node);
    }
    for (id, expected) in model.iter().enumerate().rev() {
        if let Kind::Element(_, attrs) = &expected.kind {
            for (name, value) in attrs {
                doc.set_attribute(NodeId::from_index(id), name, value);
            }
        }
    }
    doc
}

/// `doc` is the model node for node: every node has its parent, first
/// child, next sibling, children, subtree, direct text, kind and
/// attributes.
fn assert_holds(doc: &Document, model: &[Expected], what: &str) {
    let id = NodeId::from_index;
    assert_eq!(doc.node_count(), model.len(), "{what}");
    for (i, want) in model.iter().enumerate() {
        let node = id(i);
        assert_eq!(doc.parent(node), want.parent.map(id), "{what}: {i}");
        let first = want.children.first().map(|&c| id(c));
        assert_eq!(doc.first_child(node), first, "{what}: {i}");
        let next = want.parent.and_then(|p| {
            let siblings = &model[p].children;
            let at = siblings.iter().position(|&c| c == i).expect("a child");
            siblings.get(at + 1).map(|&c| id(c))
        });
        assert_eq!(doc.next_sibling(node), next, "{what}: {i}");
        assert!(
            doc.children(node).eq(want.children.iter().map(|&c| id(c))),
            "{what}: children of {i}"
        );
        assert!(
            doc.descendants_or_self(node).eq((i..=want.end).map(id)),
            "{what}: subtree of {i}"
        );
        let text: String = (want.children.iter())
            .filter_map(|&c| match &model[c].kind {
                Kind::Text(t) => Some(t.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(doc.direct_text(node), text, "{what}: {i}");
        match (&want.kind, doc.kind(node)) {
            (Kind::Document, NodeKind::Document) => {}
            (Kind::Element(tag, attrs), NodeKind::Element { name, attributes }) => {
                assert_eq!(doc.symbols().resolve(name), *tag, "{what}: {i}");
                let want: Vec<(&str, &str)> = attrs.iter().map(|(n, v)| (*n, v.as_str())).collect();
                let got: Vec<(&str, &str)> = (attributes.iter())
                    .map(|(n, v)| (doc.symbols().resolve(n), v))
                    .collect();
                assert_eq!(got, want, "{what}: {i}");
                assert_eq!(doc.attributes(node), want, "{what}: {i}");
            }
            (Kind::Text(t), NodeKind::Text(got)) => assert_eq!(got, t, "{what}: {i}"),
            (want, got) => panic!("{what}: {i} is {got:?}, not {want:?}"),
        }
    }
}

/// FNV-1a 64, folded over several inputs.
fn fnv_fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of every compact serialization below, recorded by running
/// this generator against the document that still held comments and PIs.
const TREE_API_BYTES: u64 = 0x947e_f9af_acfd_110e;

#[test]
fn tree_api_documents_hold_their_model_and_parse_to_it_without_comments() {
    let mut rng = XorShiftRng::seed_from_u64(0x7AEE);
    let mut hash = FNV_BASIS;
    let (mut comments, mut pis) = (0, 0);
    for case in 0..128 {
        let nodes = random_tree_api_nodes(&mut rng);
        let model = expected_tree(&nodes);
        let doc = build_tree_api_document(&nodes, &model);
        assert_holds(&doc, &model, &format!("case {case}, built"));
        let text = rich_xml(&nodes);
        comments += text.matches("<!--").count();
        pis += text.matches("<?").count();
        let parsed =
            Document::parse_str(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_holds(&parsed, &model, &format!("case {case}, parsed"));
        let xml = doc.to_xml();
        assert_eq!(parsed.to_xml(), xml, "case {case}");
        hash = fnv_fold(hash, xml.as_bytes());
    }
    assert_eq!(
        hash, TREE_API_BYTES,
        "serialized bytes moved: 0x{hash:016x}"
    );
    assert!(
        comments > 64 && pis > 64,
        "the texts hold comments and PIs: {comments} / {pis}"
    );
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
        let nodes = random_tree_api_nodes(&mut rng);
        let doc = build_tree_api_document(&nodes, &expected_tree(&nodes));
        // A comment skipped between two texts leaves them adjacent, which
        // the next parse reads as one node: from the first serialization
        // on, the bytes are a fixpoint.
        for xml in [rich_xml(&nodes), doc.to_xml()] {
            let once =
                Document::parse_str(&xml).unwrap_or_else(|e| panic!("case {case}: {e}\n{xml}"));
            let text = once.to_xml();
            let twice = Document::parse_str(&text).expect("reparses");
            assert_eq!(twice.to_xml(), text, "case {case}");
        }
    }
}
