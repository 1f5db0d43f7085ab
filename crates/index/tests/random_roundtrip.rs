//! Randomized tests (seeded, deterministic) of the snapshot section
//! codecs, the `DOCUMENT` section first of all: index → sections → index
//! is the identity on random mixed-content trees and on the generated
//! benchmark corpora, and random corruption of a framed snapshot never
//! panics.

use lotusx_datagen::rng::XorShiftRng;
use lotusx_index::snapshot::{decode_sections, encode_sections};
use lotusx_index::IndexedDocument;
use lotusx_storage::{read_snapshot, write_snapshot};
use lotusx_xml::{Document, NodeId};

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

/// Encodes `doc`'s index set, decodes it again, and checks the decoded
/// side against the source. Source node ids need not be preorder-dense
/// (`append_text` coalesces adjacent text nodes; the generators allocate
/// in construction order), so the columns must come back renumbered to
/// the decoded tree — equal to a fresh build over it.
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
