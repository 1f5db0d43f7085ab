//! Full-index snapshot codecs: the section payloads of the `LTSX`
//! container.
//!
//! [`encode_sections`] serializes every structure of an
//! [`IndexedDocument`] — the document tree, the region labels, the
//! columnar arenas, the value index, both completion tries, the
//! DataGuide and the statistics tables — into the sections that
//! `lotusx-storage` frames and checksums. [`decode_sections`] is the
//! inverse: bulk reads straight into the arena layouts plus validation,
//! with **no re-parsing, no re-labeling and no stats re-walks**. It takes
//! the sections by value and frees each payload as soon as its section
//! is decoded, so a load never holds the whole file beside the whole
//! index. What is *derived* from another section's bytes — today whether
//! the columns' node ids ascend, and the columns' parent slots — is
//! recomputed, not stored: a stored derivation must be validated against
//! its source or it can lie, and validating it costs what recomputing it
//! costs.
//!
//! ## Node-id canonicalization
//!
//! Sections embed [`NodeId`]s (columns, value postings). The document
//! section decoder assigns ids in strict preorder, but the *source*
//! document's ids need not be preorder-dense (e.g. after text
//! coalescing). Encoding therefore remaps every stored node id through
//! the canonical preorder numbering of the document walk, so decoded
//! sections always agree with the decoded tree. For documents built by
//! the parser or the generators the map is the identity.
//!
//! ## Determinism
//!
//! Every hash-map-backed structure is emitted under a sorted key order
//! and the tries are serialized structurally, so encoding the same
//! index twice yields byte-identical sections — and a loaded snapshot
//! answers every query and completion bit-identically to
//! the fresh build it was saved from.

use crate::builder::IndexedDocument;
use crate::columns::TagColumns;
use crate::dataguide::{DataGuide, GuideNodeId};
use crate::stats::Stats;
use crate::trie::Trie;
use crate::value_index::ValueIndex;
use crate::wire::{corrupt, get_str, get_string, put_string, put_varint, rd_len, StorageError};
use crate::wire::{get_u16_slice, get_u32_slice, put_u16_slice, put_u32_slice};
use lotusx_labeling::{DocumentLabels, RegionLabel};
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
    let mut labels = Vec::new();
    encode_labels(idx, &order, &mut labels);
    let mut columns = Vec::new();
    idx.columns().encode(&node_map, &mut columns);
    let mut values = Vec::new();
    idx.values().encode(&node_map, &mut values);
    let mut tries = Vec::new();
    encode_tries(idx, &mut tries);
    let mut guide = Vec::new();
    encode_guide(idx, &order, &mut guide);
    let mut stats = Vec::new();
    idx.stats().encode(&mut stats);

    vec![
        Section {
            id: section::DOCUMENT,
            bytes: document,
        },
        Section {
            id: section::LABELS,
            bytes: labels,
        },
        Section {
            id: section::COLUMNS,
            bytes: columns,
        },
        Section {
            id: section::VALUES,
            bytes: values,
        },
        Section {
            id: section::TRIES,
            bytes: tries,
        },
        Section {
            id: section::GUIDE,
            bytes: guide,
        },
        Section {
            id: section::STATS,
            bytes: stats,
        },
    ]
}

/// The sections [`decode_sections`] reads, in decode order: `GUIDE`
/// before `COLUMNS`, whose tag streams take their tags from it.
const DECODED: [u64; 7] = [
    section::DOCUMENT,
    section::LABELS,
    section::GUIDE,
    section::COLUMNS,
    section::VALUES,
    section::TRIES,
    section::STATS,
];

/// Reassembles an [`IndexedDocument`] from snapshot sections. Every
/// section must be present exactly once (sections it does not read, such
/// as `VALUE_TRIES`, are dropped); every embedded id is bounds-checked so
/// a crafted payload yields a typed error, never a panic. Each payload
/// is freed once its section is decoded.
pub fn decode_sections(sections: Vec<Section>) -> Result<IndexedDocument, StorageError> {
    let mut payloads: [Option<Vec<u8>>; DECODED.len()] = Default::default();
    for s in sections {
        if let Some(slot) = DECODED.iter().position(|&id| id == s.id) {
            if payloads[slot].replace(s.bytes).is_some() {
                return Err(corrupt("duplicate snapshot section"));
            }
        }
    }
    if payloads.iter().any(Option::is_none) {
        return Err(corrupt("missing snapshot section"));
    }
    let mut payloads = payloads.into_iter().flatten();
    let mut next = || payloads.next().expect("every section present");

    let doc = decode_document(&next())?;
    let n = doc.node_count();
    let tag_count = doc.symbols().len();

    let labels = decode_labels(&next(), n)?;

    let (guide, guide_of) = decode_guide(&next(), n, tag_count)?;

    // The columns take each element's tag from its guide node: the
    // guide-of map is 4 B per node, and on dblp:128 reading tags from
    // the document's node records made the parent-slot pass 6.3 ms
    // rather than 1.5 (E21).
    let bytes = next();
    let mut pos = 0;
    let columns = TagColumns::decode(&bytes, &mut pos, n, |node| {
        guide.tag(guide_of[node.index()])
    })?;
    ensure_consumed(&bytes, pos, "columns")?;
    drop(bytes);

    let bytes = next();
    let mut pos = 0;
    let values = ValueIndex::decode(&bytes, &mut pos, n)?;
    ensure_consumed(&bytes, pos, "values")?;
    drop(bytes);

    let (terms, tag_trie, term_trie) = decode_tries(&next(), tag_count)?;

    let bytes = next();
    let mut pos = 0;
    let stats = Stats::decode(&bytes, &mut pos)?;
    ensure_consumed(&bytes, pos, "stats")?;

    Ok(IndexedDocument {
        doc,
        labels,
        columns,
        values,
        tag_trie,
        term_trie,
        terms,
        guide,
        guide_of,
        stats,
    })
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
        doc.append_child(NodeId::from_index(parent as usize - 1), id);
    }
    ensure_consumed(bytes, *pos, "document")?;
    doc.shrink_to_fit();
    Ok(doc)
}

/// `LABELS`: the region label of every node in canonical order, as three
/// raw columns.
fn encode_labels(idx: &IndexedDocument, order: &[NodeId], out: &mut Vec<u8>) {
    let labels = idx.labels();
    let n = order.len();
    put_varint(out, n as u64);
    let mut starts = Vec::with_capacity(n);
    let mut ends = Vec::with_capacity(n);
    let mut levels = Vec::with_capacity(n);
    for &old in order {
        let r = labels.region(old);
        starts.push(r.start);
        ends.push(r.end);
        levels.push(r.level);
    }
    put_u32_slice(out, &starts);
    put_u32_slice(out, &ends);
    put_u16_slice(out, &levels);
}

fn decode_labels(bytes: &[u8], node_count: usize) -> Result<DocumentLabels, StorageError> {
    let pos = &mut 0;
    let n = rd_len(bytes, pos, "labels length")?;
    if n != node_count {
        return Err(corrupt("labels length mismatch with document"));
    }
    let starts = get_u32_slice(bytes, pos, n, "region starts")?;
    let ends = get_u32_slice(bytes, pos, n, "region ends")?;
    let levels = get_u16_slice(bytes, pos, n, "region levels")?;
    let mut region = Vec::with_capacity(n);
    for i in 0..n {
        if starts[i] >= ends[i] {
            return Err(corrupt("region label with start >= end"));
        }
        region.push(RegionLabel::new(starts[i], ends[i], levels[i]));
    }
    ensure_consumed(bytes, *pos, "labels")?;
    Ok(DocumentLabels::from_parts(region))
}

/// `TRIES`: the sorted term table, then both tries structurally.
fn encode_tries(idx: &IndexedDocument, out: &mut Vec<u8>) {
    let term_count = idx.term_trie().len() as u64;
    // The term table is exactly the sorted distinct-term list; its length
    // equals the term-trie key count by construction.
    put_varint(out, term_count);
    for i in 0..term_count {
        put_string(out, idx.term(i as u32));
    }
    idx.tag_trie().encode(out);
    idx.term_trie().encode(out);
}

fn decode_tries(bytes: &[u8], tag_count: usize) -> Result<(Vec<String>, Trie, Trie), StorageError> {
    let pos = &mut 0;
    let term_count = rd_len(bytes, pos, "term table length")?;
    if term_count > bytes.len() {
        return Err(corrupt("term table length"));
    }
    let mut terms = Vec::with_capacity(term_count);
    for _ in 0..term_count {
        terms.push(get_string(bytes, pos).ok_or(corrupt("term table entry"))?);
    }
    let tag_trie = Trie::decode(bytes, pos, tag_count as u32)?;
    let term_trie = Trie::decode(bytes, pos, terms.len() as u32)?;
    ensure_consumed(bytes, *pos, "tries")?;
    Ok((terms, tag_trie, term_trie))
}

/// `GUIDE`: the guide nodes, then the node → guide-node map in canonical
/// node order.
fn encode_guide(idx: &IndexedDocument, order: &[NodeId], out: &mut Vec<u8>) {
    idx.guide().encode(out);
    // The node → guide-node map as one raw u32 column (bulk read on load).
    let guide_of: Vec<u32> = order
        .iter()
        .map(|&old| idx.guide_node(old).index() as u32)
        .collect();
    put_u32_slice(out, &guide_of);
}

fn decode_guide(
    bytes: &[u8],
    node_count: usize,
    tag_count: usize,
) -> Result<(DataGuide, Vec<GuideNodeId>), StorageError> {
    let pos = &mut 0;
    let guide = DataGuide::decode(bytes, pos, tag_count)?;
    let raw = get_u32_slice(bytes, pos, node_count, "guide-of entries")?;
    let mut guide_of = Vec::with_capacity(node_count);
    for g in raw {
        if g as usize >= guide.node_count() {
            return Err(corrupt("guide-of entry out of range"));
        }
        guide_of.push(GuideNodeId::from_index(g as usize));
    }
    ensure_consumed(bytes, *pos, "guide")?;
    Ok((guide, guide_of))
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(back.labels().region(node), idx.labels().region(node));
            if doc.is_element(node) {
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
        assert_eq!(
            back.tag_trie().complete("", 100),
            idx.tag_trie().complete("", 100)
        );
        assert_eq!(
            back.term_trie().complete("", 1000),
            idx.term_trie().complete("", 1000)
        );
        for c in back.term_trie().complete("", 1000) {
            assert_eq!(back.term(c.payload), idx.term(c.payload));
        }
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
