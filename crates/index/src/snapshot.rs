//! Full-index snapshot codecs: the section payloads of the `LTSX`
//! container.
//!
//! A snapshot stores only what the document tree cannot give back.
//! [`encode_sections`] writes three sections: the document tree, the
//! value index and the per-tag term counts. [`decode_sections`] is the
//! inverse: bulk reads straight into the arena layouts plus validation,
//! with **no re-parsing**. It takes the sections by value and frees each
//! payload as soon as its section is decoded, so a load never holds the
//! whole file beside the whole index. Only then does it derive the tag
//! streams, the DataGuide, the node → guide-node map and the statistics
//! from the decoded tree, through `IndexedDocument::assemble`, where a
//! fresh build ends too. What is derived is recomputed, not stored: a
//! stored derivation must be validated against its source or it can lie,
//! and validating it costs what recomputing it costs. The same holds
//! inside the stored sections: the document-frequency list and the count
//! lists' block maxima are derived from `VALUES` and `TAG_TERMS`.
//!
//! ## Node-id canonicalization
//!
//! `VALUES` embeds [`NodeId`]s. The document section decoder assigns ids
//! in strict preorder, but the *source* document's ids need not be
//! preorder-dense (e.g. after text coalescing). Encoding therefore
//! remaps every stored node id through the canonical preorder numbering
//! of the document walk, so decoded sections always agree with the
//! decoded tree. For documents built by the parser the map is the
//! identity.
//!
//! ## Determinism
//!
//! Every hash-map-backed structure is emitted under a sorted key order,
//! so encoding the same index twice yields byte-identical sections — and a loaded snapshot
//! answers every query and completion bit-identically to
//! the fresh build it was saved from.

use crate::builder::IndexedDocument;
use crate::term_counts::TermCounts;
use crate::value_index::ValueIndex;
use crate::wire::{corrupt, get_str, put_string, put_u32_slice};
use crate::wire::{put_varint, rd_len, StorageError};
use lotusx_storage::snapshot::{section, Section};
use lotusx_xml::{Document, NodeId, NodeKind, Symbol};

/// Serializes the entire index set into snapshot sections.
pub fn encode_sections(idx: &IndexedDocument) -> Vec<Section> {
    let doc = idx.document();
    // The canonical node order: preorder from the document root, the
    // order the document-section decoder re-creates nodes in.
    let order: Vec<NodeId> = doc.all_nodes().collect();
    let mut node_map = vec![u32::MAX; doc.node_count()];
    for (new_id, old) in order.iter().enumerate() {
        node_map[old.index()] = new_id as u32;
    }

    let mut document = Vec::new();
    encode_document(doc, &order, &node_map, &mut document);
    let mut values = Vec::new();
    idx.values().encode(&node_map, &mut values);
    let mut tag_terms = Vec::new();
    idx.term_counts().encode(&mut tag_terms);

    vec![
        Section {
            id: section::DOCUMENT,
            bytes: document,
        },
        Section {
            id: section::VALUES,
            bytes: values,
        },
        Section {
            id: section::TAG_TERMS,
            bytes: tag_terms,
        },
    ]
}

/// The sections [`decode_sections`] reads, in decode order.
const DECODED: [u64; 3] = [section::DOCUMENT, section::VALUES, section::TAG_TERMS];

/// Reassembles an [`IndexedDocument`] from snapshot sections. Every
/// section must be present exactly once; every embedded id is
/// bounds-checked so a crafted payload yields a typed error, never a
/// panic. Each payload is freed once its section is decoded, before the
/// structure is derived from the document.
pub fn decode_sections(sections: Vec<Section>) -> Result<IndexedDocument, StorageError> {
    let mut payloads: [Option<Vec<u8>>; DECODED.len()] = Default::default();
    for s in sections {
        if let Some(slot) = DECODED.iter().position(|&id| id == s.id) {
            if payloads[slot].replace(s.bytes).is_some() {
                return Err(corrupt("duplicate snapshot section"));
            }
        }
    }
    let [Some(doc_bytes), Some(value_bytes), Some(term_bytes)] = payloads else {
        return Err(corrupt("missing snapshot section"));
    };

    let doc = decode_document(&doc_bytes)?;
    drop(doc_bytes);

    let mut pos = 0;
    let values = ValueIndex::decode(&value_bytes, &mut pos, doc.node_count())?;
    ensure_consumed(&value_bytes, pos, "values")?;
    drop(value_bytes);

    let mut pos = 0;
    let tag_count = doc.symbols().len();
    let term_counts = TermCounts::decode(&term_bytes, &mut pos, tag_count, &values)?;
    ensure_consumed(&term_bytes, pos, "tag terms")?;
    drop(term_bytes);

    Ok(IndexedDocument::assemble(doc, values, term_counts))
}

fn ensure_consumed(bytes: &[u8], pos: usize, _what: &'static str) -> Result<(), StorageError> {
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes in snapshot section"));
    }
    Ok(())
}

/// `DOCUMENT`: the symbol table in exact insertion order, then a kind
/// column, a parent column, and the per-node payload stream — all in
/// canonical preorder. Symbols load with their original dense indexes
/// (which every other section's symbol references rely on), never
/// re-interned per node; sibling links are rebuilt in one forward pass
/// and every string payload is appended to the document's arena.
fn encode_document(doc: &Document, order: &[NodeId], node_map: &[u32], out: &mut Vec<u8>) {
    let symbols = doc.symbols();
    put_varint(out, symbols.len() as u64);
    for (_, name) in symbols.iter() {
        put_string(out, name);
    }
    put_varint(out, order.len() as u64);
    for &old in order {
        out.push(match doc.kind(old) {
            NodeKind::Document => 0,
            NodeKind::Element { .. } => 1,
            NodeKind::Text(_) => 2,
            NodeKind::Comment(_) => 3,
            NodeKind::Pi { .. } => 4,
        });
    }
    // The parent column as raw u32s (0 = no parent, the root alone; else
    // new preorder id + 1) — a bulk read on load.
    let parents: Vec<u32> = order
        .iter()
        .map(|&old| {
            doc.parent(old)
                .map(|p| node_map[p.index()] + 1)
                .unwrap_or(0)
        })
        .collect();
    put_u32_slice(out, &parents);
    for &old in order {
        match doc.kind(old) {
            NodeKind::Document => {}
            NodeKind::Element { name, attributes } => {
                put_varint(out, name.index() as u64);
                put_varint(out, attributes.len() as u64);
                for (sym, value) in attributes {
                    put_varint(out, sym.index() as u64);
                    put_string(out, value);
                }
            }
            NodeKind::Text(t) | NodeKind::Comment(t) => put_string(out, t),
            NodeKind::Pi { target, data } => {
                put_string(out, target);
                put_string(out, data);
            }
        }
    }
}

fn decode_document(bytes: &[u8]) -> Result<Document, StorageError> {
    let pos = &mut 0;
    let sym_count = rd_len(bytes, pos, "symbol count")?;
    if sym_count > bytes.len() {
        return Err(corrupt("symbol count"));
    }
    let mut names = Vec::with_capacity(sym_count);
    for _ in 0..sym_count {
        names.push(get_str(bytes, pos).ok_or(corrupt("symbol name"))?);
    }
    let n = rd_len(bytes, pos, "node count")?;
    if n == 0 || n > bytes.len() {
        return Err(corrupt("node count"));
    }
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= bytes.len())
        .ok_or(corrupt("kind column"))?;
    let kinds = &bytes[*pos..end];
    *pos = end;
    if kinds[0] != 0 {
        return Err(corrupt("first node must be the document root"));
    }
    let end = n
        .checked_mul(4)
        .and_then(|len| pos.checked_add(len))
        .filter(|&e| e <= bytes.len())
        .ok_or(corrupt("parent column"))?;
    let parents = bytes[*pos..end]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")));
    *pos = end;

    // Every string payload is a slice of what is left of this section,
    // so its length bounds the arena.
    let mut doc = Document::with_capacity(n, bytes.len() - *pos);
    for name in names {
        doc.symbols_mut().intern(name);
    }
    if doc.symbols().len() != sym_count {
        return Err(corrupt("duplicate symbol in table"));
    }
    let rd_sym = |bytes: &[u8], pos: &mut usize, what| -> Result<Symbol, StorageError> {
        let v = rd_len(bytes, pos, what)?;
        if v >= sym_count {
            return Err(corrupt(what));
        }
        Ok(Symbol::from_index(v))
    };
    let rd_str = |bytes, pos: &mut usize, what| get_str(bytes, pos).ok_or(corrupt(what));
    // The document and the elements entered and not yet left, outermost
    // first. Each node's parent must be on it: then the ids are the
    // preorder, only the document and elements hold children (what the
    // derivations walk), and its length is the level an element gets.
    let mut open = vec![0u32];
    for (i, (&kind, parent)) in kinds.iter().zip(parents).enumerate() {
        if i == 0 {
            if parent != 0 {
                return Err(corrupt("document root with a parent"));
            }
            continue;
        }
        // The parent column holds preorder id + 1: every parent precedes
        // its children, so a single forward pass rebuilds the sibling
        // links acyclically.
        if parent == 0 || parent as usize > i {
            return Err(corrupt("parent id out of preorder range"));
        }
        let parent = parent - 1;
        while open.last().is_some_and(|&o| o != parent) {
            open.pop();
        }
        if open.is_empty() {
            return Err(corrupt("parent not open in preorder"));
        }
        if kind == 1 {
            if open.len() > usize::from(u16::MAX) {
                return Err(corrupt("elements nested past u16 levels"));
            }
            open.push(i as u32);
        }
        let id = match kind {
            1 => {
                let name = rd_sym(bytes, pos, "element tag symbol")?;
                let attr_count = rd_len(bytes, pos, "attribute count")?;
                if attr_count > bytes.len() {
                    return Err(corrupt("attribute count"));
                }
                let id = doc.new_element_interned(name);
                for _ in 0..attr_count {
                    let sym = rd_sym(bytes, pos, "attribute name symbol")?;
                    doc.append_attribute(id, sym, rd_str(bytes, pos, "attribute value")?);
                }
                id
            }
            2 => doc.new_text(rd_str(bytes, pos, "text payload")?),
            3 => doc.new_comment(rd_str(bytes, pos, "comment payload")?),
            4 => {
                let target = rd_str(bytes, pos, "pi target")?;
                doc.new_pi(target, rd_str(bytes, pos, "pi data")?)
            }
            _ => return Err(corrupt("unknown node kind")),
        };
        debug_assert_eq!(id.index(), i);
        doc.append_child(NodeId::from_index(parent as usize), id);
    }
    ensure_consumed(bytes, *pos, "document")?;
    doc.shrink_to_fit();
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataguide::GuideNodeId;

    fn sample() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book year=\"1999\"><title>Data on the Web</title><author>Abiteboul</author></book>\
               <book year=\"2003\"><title>XML Handbook</title><author>Goldfarb</author></book>\
               <article><title>TwigStack</title><info><title>deep</title></info></article>\
             </bib>",
        )
        .unwrap()
    }

    #[test]
    fn sections_roundtrip_every_structure() {
        let idx = sample();
        let back = decode_sections(encode_sections(&idx)).unwrap();

        assert_eq!(back.document().to_xml(), idx.document().to_xml());
        let doc = idx.document();
        for node in doc.all_nodes() {
            if doc.is_element(node) {
                assert_eq!(back.region(node), idx.region(node));
                assert_eq!(back.guide_node(node), idx.guide_node(node));
            }
        }
        // Arenas, ranges and the derived id-order flag.
        assert_eq!(back.columns(), idx.columns());
        for (term, df) in idx.values().terms() {
            assert_eq!(back.values().df(term), df);
            assert_eq!(back.values().postings(term), idx.values().postings(term));
        }
        assert_eq!(
            back.values().exact_matches("twigstack"),
            idx.values().exact_matches("twigstack")
        );
        assert_eq!(
            back.values().range_matches(1990.0, 2005.0),
            idx.values().range_matches(1990.0, 2005.0)
        );
        assert_eq!(
            back.values().content_element_count(),
            idx.values().content_element_count()
        );
        assert_eq!(back.term_counts(), idx.term_counts());
        assert_eq!(back.guide().node_count(), idx.guide().node_count());
        for i in 0..idx.guide().node_count() {
            let id = GuideNodeId::from_index(i);
            assert_eq!(back.guide().tag(id), idx.guide().tag(id));
            assert_eq!(back.guide().parent(id), idx.guide().parent(id));
            assert_eq!(back.guide().count(id), idx.guide().count(id));
            assert_eq!(back.guide().depth(id), idx.guide().depth(id));
            assert_eq!(back.guide().children(id), idx.guide().children(id));
        }
        assert_eq!(back.stats().element_count, idx.stats().element_count);
        assert_eq!(back.stats().depth_histogram, idx.stats().depth_histogram);
        assert_eq!(
            back.stats().avg_fanout.to_bits(),
            idx.stats().avg_fanout.to_bits()
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        let idx = sample();
        assert_eq!(encode_sections(&idx), encode_sections(&idx));
        // And stable across decode: re-encoding the decoded index is a
        // fixpoint (hash maps rebuilt in a different order must not leak).
        let back = decode_sections(encode_sections(&idx)).unwrap();
        assert_eq!(encode_sections(&back), encode_sections(&idx));
    }

    #[test]
    fn missing_and_duplicate_sections_are_typed_errors() {
        let idx = sample();
        let mut sections = encode_sections(&idx);
        let stats = sections.pop().unwrap();
        assert!(matches!(
            decode_sections(sections.clone()),
            Err(StorageError::Corrupt(_))
        ));
        sections.push(stats.clone());
        sections.push(stats);
        assert!(matches!(
            decode_sections(sections),
            Err(StorageError::Corrupt(_))
        ));
    }

    /// Replaces the first (or last) occurrence of `from` in the payload of
    /// section `id` with `to`, a key of the same length.
    fn rewrite(sections: &mut [Section], id: u64, from: &[u8], to: &[u8], last: bool) {
        let bytes = &mut sections.iter_mut().find(|s| s.id == id).unwrap().bytes;
        let mut hits = bytes
            .windows(from.len())
            .enumerate()
            .filter(|(_, w)| *w == from);
        let at = if last { hits.next_back() } else { hits.next() }.unwrap().0;
        bytes[at..at + to.len()].copy_from_slice(to);
    }

    fn decode_error(sections: Vec<Section>) -> &'static str {
        match decode_sections(sections) {
            Err(StorageError::Corrupt(what)) => what,
            other => panic!("expected a Corrupt error, got {:?}", other.map(|_| ())),
        }
    }

    /// Both dictionaries of `VALUES` must be sorted.
    #[test]
    fn unsorted_keys_are_typed_errors() {
        let sections = encode_sections(&sample());
        // Term keys "1999" < "2003": make the second equal the first.
        let mut terms = sections.clone();
        rewrite(&mut terms, section::VALUES, b"2003", b"1999", false);
        assert_eq!(decode_error(terms), "value-index term keys not increasing");
        // Exact keys …, "data on the web", "deep": the last "deep" is the
        // exact key (the term came first); "abit" sorts before "data".
        let mut exact = sections.clone();
        rewrite(&mut exact, section::VALUES, b"deep", b"abit", true);
        assert_eq!(decode_error(exact), "value-index exact keys not increasing");
    }

    /// The derivations walk elements under elements in preorder, so the
    /// document decoder admits nothing else: a node whose parent is a
    /// text node, or a node whose parent was already left in preorder,
    /// is a typed error.
    #[test]
    fn a_document_out_of_preorder_or_under_text_is_a_typed_error() {
        let idx = IndexedDocument::from_str("<a><b>t</b><c/><d/></a>").unwrap();
        // Nodes 0 document, 1 <a>, 2 <b>, 3 "t", 4 <c>, 5 <d>; the
        // parent column holds each parent's id + 1.
        fn column(ids: &[u32]) -> Vec<u8> {
            ids.iter().flat_map(|p| p.to_le_bytes()).collect()
        }
        let stored = column(&[0, 1, 2, 3, 2, 2]);
        let parent_of_d = |parent: u32| {
            let mut sections = encode_sections(&idx);
            let doc = &mut sections[0].bytes;
            let at = doc.windows(stored.len()).position(|w| w == stored).unwrap();
            doc[at + 20..at + 24].copy_from_slice(&(parent + 1).to_le_bytes());
            sections
        };
        assert!(decode_sections(parent_of_d(4)).is_ok(), "<d> under <c>");
        for (parent, what) in [(3, "the text"), (2, "<b>, already left")] {
            let error = decode_error(parent_of_d(parent));
            assert_eq!(error, "parent not open in preorder", "<d> under {what}");
        }
    }

    /// A `TAG_TERMS` payload of one list per `(tag, [(rank gap, count)])`.
    fn tag_terms<const N: usize>(lists: &[(u64, [(u64, u64); N])]) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, (lists.len() * N) as u64);
        put_varint(&mut out, lists.len() as u64);
        for (tag, list) in lists {
            put_varint(&mut out, *tag);
            put_varint(&mut out, N as u64);
            for &(gap, count) in list {
                put_varint(&mut out, gap);
                put_varint(&mut out, count);
            }
        }
        out
    }

    /// Every invariant of `TAG_TERMS` is a typed error naming it.
    #[test]
    fn malformed_tag_terms_are_typed_errors() {
        let idx = sample();
        let tags = idx.document().symbols().len() as u64;
        let terms = idx.values().term_count() as u64;
        let with = |payload: Vec<u8>| {
            let mut sections = encode_sections(&idx);
            let s = sections.iter_mut().find(|s| s.id == section::TAG_TERMS);
            s.unwrap().bytes = payload;
            sections
        };
        assert!(decode_sections(with(tag_terms(&[(1, [(0, 1), (3, 2)])]))).is_ok());
        for (payload, error) in [
            (tag_terms(&[(tags, [(0, 1)])]), "tag-terms tag out of range"),
            (
                tag_terms(&[(2, [(0, 1)]), (1, [(0, 1)])]),
                "tag-terms tag out of range",
            ),
            (
                tag_terms(&[(1, [(2, 1), (0, 1)])]),
                "tag-terms ranks not increasing",
            ),
            (
                tag_terms(&[(1, [(terms, 1)])]),
                "tag-terms rank out of range",
            ),
            (
                tag_terms(&[(1, [(1, 1), (terms - 1, 1)])]),
                "tag-terms rank out of range",
            ),
            (tag_terms(&[(1, [(0, 0)])]), "tag-terms count out of range"),
            (
                [tag_terms(&[(1, [(0, 1)])]), vec![0]].concat(),
                "trailing bytes in snapshot section",
            ),
        ] {
            assert_eq!(decode_error(with(payload)), error);
        }
    }

    /// Flip one byte of every section in turn: decoding must fail with a
    /// typed error (or succeed only if the flip hit redundant slack, which
    /// these payloads do not have) — and must never panic.
    #[test]
    fn payload_tampering_never_panics() {
        let idx = sample();
        let sections = encode_sections(&idx);
        for (si, s) in sections.iter().enumerate() {
            let step = (s.bytes.len() / 23).max(1);
            for offset in (0..s.bytes.len()).step_by(step) {
                let mut tampered: Vec<Section> = sections.clone();
                tampered[si].bytes[offset] ^= 0x01;
                // Any outcome but a panic is acceptable; most flips must
                // surface as typed errors, a few land in value bytes
                // (counts, weights) that decode to different-but-valid data.
                let _ = decode_sections(tampered);
            }
        }
    }

    #[test]
    fn truncated_sections_are_typed_errors() {
        let idx = sample();
        let sections = encode_sections(&idx);
        for si in 0..sections.len() {
            let mut truncated: Vec<Section> = sections.clone();
            let len = truncated[si].bytes.len();
            truncated[si].bytes.truncate(len / 2);
            assert!(
                matches!(
                    decode_sections(truncated),
                    Err(StorageError::Corrupt(_)) | Err(StorageError::Io(_))
                ),
                "truncating section {} must fail decoding",
                sections[si].id
            );
        }
    }
}
