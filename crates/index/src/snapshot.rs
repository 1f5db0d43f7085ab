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
//! lists' block maxima are derived from `VALUES` and `TAG_TERMS`, and the
//! numeric index from the exact keys, most of which are read in the
//! document's own text.
//!
//! ## Node ids
//!
//! `VALUES` embeds [`NodeId`]s. A document's ids are its preorder, and
//! the document section decoder appends the nodes in that order, so the
//! ids a snapshot stores are the ids the loaded tree has.
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
use crate::wire::{corrupt, get_str, put_string};
use crate::wire::{put_varint, rd_len, StorageError};
use lotusx_storage::snapshot::{section, Section};
use lotusx_xml::{Document, NodeId, NodeKind, Symbol};

/// Serializes the entire index set into snapshot sections.
pub fn encode_sections(idx: &IndexedDocument) -> Vec<Section> {
    let mut document = Vec::new();
    encode_document(idx.document(), &mut document);
    let mut values = Vec::new();
    idx.values().encode(&mut values);
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
    let values = ValueIndex::decode(&value_bytes, &mut pos, &doc)?;
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

/// `DOCUMENT`: the symbol table in exact insertion order, then the node
/// count, a kind column, and per node after the document root its
/// *close count* — how many open elements end before it, a depth delta,
/// one varint byte below 128 — followed by its payload, all in
/// preorder. Preorder and the close counts determine the tree: a node's
/// parent is the innermost element still open once its close count is
/// taken. Symbols load with their original dense indexes (which every
/// other section's symbol references rely on), never re-interned per
/// node, and every string payload is appended to the document's arena.
fn encode_document(doc: &Document, out: &mut Vec<u8>) {
    let symbols = doc.symbols();
    put_varint(out, symbols.len() as u64);
    for (_, name) in symbols.iter() {
        put_string(out, name);
    }
    put_varint(out, doc.node_count() as u64);
    for node in doc.all_nodes() {
        out.push(match doc.kind(node) {
            NodeKind::Document => 0,
            NodeKind::Element { .. } => 1,
            NodeKind::Text(_) => 2,
        });
    }
    // The subtree ends of the open elements, outermost first.
    let mut open: Vec<NodeId> = Vec::new();
    for node in doc.all_nodes().skip(1) {
        let still_open = open.iter().take_while(|&&end| end >= node).count();
        put_varint(out, (open.len() - still_open) as u64);
        open.truncate(still_open);
        match doc.kind(node) {
            NodeKind::Document => {}
            NodeKind::Element { name, attributes } => {
                open.push(doc.subtree_end(node));
                put_varint(out, name.index() as u64);
                put_varint(out, attributes.len() as u64);
                for (sym, value) in attributes {
                    put_varint(out, sym.index() as u64);
                    put_string(out, value);
                }
            }
            NodeKind::Text(t) => put_string(out, t),
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
    // The document and the open elements, outermost first: a node's
    // parent is the last once its close count is taken, so only the
    // document and elements hold children, and an element's level is
    // the stack's length when it is pushed.
    let mut open = vec![NodeId::DOCUMENT];
    for &kind in &kinds[1..] {
        let closes = rd_len(bytes, pos, "close count")?;
        if closes >= open.len() {
            return Err(corrupt("parent not open in preorder"));
        }
        open.truncate(open.len() - closes);
        let parent = *open.last().expect("the document stays open");
        match kind {
            1 => {
                if open.len() > usize::from(u16::MAX) {
                    return Err(corrupt("elements nested past u16 levels"));
                }
                let name = rd_sym(bytes, pos, "element tag symbol")?;
                let attr_count = rd_len(bytes, pos, "attribute count")?;
                if attr_count > bytes.len() {
                    return Err(corrupt("attribute count"));
                }
                let id = doc.append_element_interned(parent, name);
                for _ in 0..attr_count {
                    let sym = rd_sym(bytes, pos, "attribute name symbol")?;
                    doc.append_attribute(id, sym, rd_str(bytes, pos, "attribute value")?);
                }
                open.push(id);
            }
            2 => {
                doc.append_text(parent, rd_str(bytes, pos, "text payload")?);
            }
            _ => return Err(corrupt("unknown node kind")),
        }
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
            back.values().exact_matches(back.document(), "twigstack"),
            idx.values().exact_matches(doc, "twigstack")
        );
        assert!(back
            .values()
            .range_matches(1990.0, 2005.0)
            .eq(idx.values().range_matches(1990.0, 2005.0)));
        assert_eq!(back.values(), idx.values());
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
        // Exact keys …, "deep", "goldfarb", …: the last "goldfarb" is the
        // exact key, stored because folding changed the text (the term
        // came first); "abiteboul" sorts before "deep".
        let mut exact = sections.clone();
        rewrite(&mut exact, section::VALUES, b"goldfarb", b"abiteboa", true);
        assert_eq!(decode_error(exact), "value-index exact keys not increasing");
    }

    /// A node's parent is the innermost element still open once its
    /// close count is taken, so the document decoder admits nothing the
    /// derivations cannot walk: a close count past the open elements
    /// (the document included) is a typed error, and a text never holds
    /// children, whatever the counts say.
    #[test]
    fn close_counts_past_the_open_elements_are_typed_errors() {
        let idx = IndexedDocument::from_str("<a><b>t</b><c/><d/></a>").unwrap();
        // Nodes 0 document, 1 <a>, 2 <b>, 3 "t", 4 <c>, 5 <d>; the
        // section ends with the close count, tag symbol and attribute
        // count of <c>, then of <d>.
        let with_closes = |c: u8, d: u8| {
            let mut sections = encode_sections(&idx);
            let doc = &mut sections[0].bytes;
            let n = doc.len();
            assert_eq!(doc[n - 6..], [1, 2, 0, 1, 3, 0]);
            (doc[n - 6], doc[n - 3]) = (c, d);
            sections
        };
        let parent_of = |sections: Vec<Section>, node: usize| {
            let back = decode_sections(sections).unwrap();
            let parent = back.document().parent(NodeId::from_index(node));
            parent.unwrap().index()
        };
        assert_eq!(parent_of(with_closes(1, 1), 5), 1, "<d> under <a>");
        assert_eq!(parent_of(with_closes(1, 0), 5), 4, "<d> under <c>");
        assert_eq!(
            parent_of(with_closes(0, 1), 4),
            2,
            "<c> under <b>, not its text"
        );
        for (c, d) in [(3, 0), (1, 3)] {
            assert_eq!(
                decode_error(with_closes(c, d)),
                "parent not open in preorder",
                "close counts {c}, {d}"
            );
        }
    }

    /// Levels are `u16`: a chain of elements one deeper than that is a
    /// typed error.
    #[test]
    fn elements_nested_past_u16_levels_are_a_typed_error() {
        let chain = |depth: usize| {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, 1);
            put_string(&mut bytes, "a");
            put_varint(&mut bytes, depth as u64 + 1);
            bytes.push(0);
            bytes.extend(std::iter::repeat_n(1, depth));
            // Per element: no close, tag symbol 0, no attributes.
            bytes.extend(std::iter::repeat_n([0, 0, 0], depth).flatten());
            decode_document(&bytes)
        };
        let deepest = usize::from(u16::MAX);
        assert_eq!(chain(deepest).unwrap().node_count(), deepest + 1);
        assert!(matches!(
            chain(deepest + 1),
            Err(StorageError::Corrupt("elements nested past u16 levels"))
        ));
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
