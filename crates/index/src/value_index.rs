//! Content indexes: tokenized term postings, exact values, and numbers.
//!
//! Terms and exact values are attributed to the element that *directly*
//! contains the text (or carries the attribute): that is the node a value
//! predicate in a twig query attaches to.

use crate::wire::{
    corrupt, get_string, put_string, put_varint, rd_f64, rd_len, rd_varint, StorageError,
};
use lotusx_xml::NodeId;
use std::collections::HashMap;

/// Splits text into lowercase alphanumeric terms.
///
/// ```
/// use lotusx_index::tokenize;
/// assert_eq!(tokenize("Holistic Twig-Joins, 2002!"), vec!["holistic", "twig", "joins", "2002"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut terms = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            // A `push` loop, not `extend`: whether the generic `extend`
            // gets inlined here has swung this function by 20 % between
            // builds that did not touch it.
            for lower in ch.to_lowercase() {
                current.push(lower);
            }
        } else if !current.is_empty() {
            terms.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        terms.push(current);
    }
    terms
}

/// The one case fold of exact-value matching (`=`): surrounding whitespace
/// off, then Unicode lowercase — the fold [`tokenize`] applies to terms.
/// The value index keys on it and the direct predicate test compares by
/// it, so the two cannot disagree on non-ASCII text.
pub fn fold_value(text: &str) -> String {
    text.trim().to_lowercase()
}

/// One posting: an element and the term's frequency within it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Posting {
    /// The element directly containing the term.
    pub node: NodeId,
    /// Occurrences of the term in that element's direct content.
    pub tf: u32,
}

/// Content index over a document.
#[derive(Clone, Debug, Default)]
pub struct ValueIndex {
    terms: HashMap<String, Vec<Posting>>,
    exact: HashMap<String, Vec<NodeId>>,
    numeric: Vec<(f64, NodeId)>,
    /// Number of elements carrying any content (the "document count" for IDF).
    content_elements: usize,
}

impl ValueIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes the direct content of `node`: its text plus attribute values.
    pub fn index_element(&mut self, node: NodeId, direct_text: &str, attr_values: &[&str]) {
        let mut any = false;
        let mut tf: HashMap<String, u32> = HashMap::new();
        for source in std::iter::once(direct_text).chain(attr_values.iter().copied()) {
            for term in tokenize(source) {
                *tf.entry(term).or_insert(0) += 1;
                any = true;
            }
        }
        for (term, count) in tf {
            self.terms
                .entry(term)
                .or_default()
                .push(Posting { node, tf: count });
        }
        let trimmed = direct_text.trim();
        if !trimmed.is_empty() {
            self.exact
                .entry(fold_value(trimmed))
                .or_default()
                .push(node);
            // "NaN" parses, compares false with every bound and has no
            // place in a sorted list: it is never a range match.
            if let Some(n) = trimmed.parse::<f64>().ok().filter(|n| !n.is_nan()) {
                self.numeric.push((n, node));
            }
            any = true;
        }
        if any {
            self.content_elements += 1;
        }
    }

    /// Finishes construction: sorts the numeric index by value (stable,
    /// so equal values stay in document order).
    pub fn finish(&mut self) {
        self.numeric.sort_by(|a, b| a.0.total_cmp(&b.0));
    }

    /// Elements whose content contains `term` (case-insensitive).
    pub fn postings(&self, term: &str) -> &[Posting] {
        self.terms
            .get(&term.to_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Document frequency of `term`.
    pub fn df(&self, term: &str) -> usize {
        self.postings(term).len()
    }

    /// Elements whose direct text equals `value` under [`fold_value`].
    pub fn exact_matches(&self, value: &str) -> &[NodeId] {
        self.exact
            .get(&fold_value(value))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The `(value, element)` entries whose numeric value lies in
    /// `[low, high]`, in value order — a slice of the sorted index.
    pub fn range_matches(&self, low: f64, high: f64) -> &[(f64, NodeId)] {
        let from = self.numeric.partition_point(|(v, _)| *v < low);
        let len = self.numeric[from..].partition_point(|(v, _)| *v <= high);
        &self.numeric[from..from + len]
    }

    /// Number of elements carrying any content.
    pub fn content_element_count(&self) -> usize {
        self.content_elements
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Iterates over `(term, document frequency)` pairs (arbitrary order).
    pub fn terms(&self) -> impl Iterator<Item = (&str, usize)> {
        self.terms.iter().map(|(t, p)| (t.as_str(), p.len()))
    }

    /// Serializes the content index for the snapshot `VALUES` section.
    /// Term and exact-value maps are emitted with sorted keys so the
    /// encoding is deterministic regardless of hash-map order; node ids
    /// are written through `node_map` (old id → canonical preorder id).
    pub(crate) fn encode(&self, node_map: &[u32], out: &mut Vec<u8>) {
        let mut term_keys: Vec<&String> = self.terms.keys().collect();
        term_keys.sort();
        put_varint(out, term_keys.len() as u64);
        for key in term_keys {
            put_string(out, key);
            let postings = &self.terms[key];
            put_varint(out, postings.len() as u64);
            for p in postings {
                put_varint(out, u64::from(node_map[p.node.index()]));
                put_varint(out, u64::from(p.tf));
            }
        }
        let mut exact_keys: Vec<&String> = self.exact.keys().collect();
        exact_keys.sort();
        put_varint(out, exact_keys.len() as u64);
        for key in exact_keys {
            put_string(out, key);
            let nodes = &self.exact[key];
            put_varint(out, nodes.len() as u64);
            for n in nodes {
                put_varint(out, u64::from(node_map[n.index()]));
            }
        }
        put_varint(out, self.numeric.len() as u64);
        for (value, node) in &self.numeric {
            out.extend_from_slice(&value.to_bits().to_le_bytes());
            put_varint(out, u64::from(node_map[node.index()]));
        }
        put_varint(out, self.content_elements as u64);
    }

    /// Deserializes a content index written by [`encode`](Self::encode),
    /// bounds-checking every node id against `node_count`.
    pub(crate) fn decode(
        data: &[u8],
        pos: &mut usize,
        node_count: usize,
    ) -> Result<ValueIndex, StorageError> {
        let rd_node = |data: &[u8], pos: &mut usize| -> Result<NodeId, StorageError> {
            let id = rd_len(data, pos, "value-index node id")?;
            if id >= node_count {
                return Err(corrupt("value-index node id out of range"));
            }
            Ok(NodeId::from_index(id))
        };
        let term_count = rd_len(data, pos, "value-index term count")?;
        if term_count > data.len() {
            return Err(corrupt("value-index term count"));
        }
        let mut terms = HashMap::with_capacity(term_count);
        for _ in 0..term_count {
            let key = get_string(data, pos).ok_or(corrupt("value-index term key"))?;
            let posting_count = rd_len(data, pos, "value-index posting count")?;
            if posting_count > data.len() {
                return Err(corrupt("value-index posting count"));
            }
            let mut postings = Vec::with_capacity(posting_count);
            for _ in 0..posting_count {
                let node = rd_node(data, pos)?;
                let tf = u32::try_from(rd_varint(data, pos, "value-index tf")?)
                    .map_err(|_| corrupt("value-index tf"))?;
                postings.push(Posting { node, tf });
            }
            terms.insert(key, postings);
        }
        let exact_count = rd_len(data, pos, "value-index exact count")?;
        if exact_count > data.len() {
            return Err(corrupt("value-index exact count"));
        }
        let mut exact = HashMap::with_capacity(exact_count);
        for _ in 0..exact_count {
            let key = get_string(data, pos).ok_or(corrupt("value-index exact key"))?;
            let node_len = rd_len(data, pos, "value-index exact node count")?;
            if node_len > data.len() {
                return Err(corrupt("value-index exact node count"));
            }
            let mut nodes = Vec::with_capacity(node_len);
            for _ in 0..node_len {
                nodes.push(rd_node(data, pos)?);
            }
            exact.insert(key, nodes);
        }
        let numeric_count = rd_len(data, pos, "value-index numeric count")?;
        if numeric_count > data.len() {
            return Err(corrupt("value-index numeric count"));
        }
        let mut numeric = Vec::with_capacity(numeric_count);
        for _ in 0..numeric_count {
            let value = rd_f64(data, pos, "value-index numeric value")?;
            let node = rd_node(data, pos)?;
            numeric.push((value, node));
        }
        // Files written before NaN stopped being indexed may hold NaN
        // entries, and the sort that placed them may have left their
        // neighbours out of order: drop them and restore the order.
        let stored = numeric.len();
        numeric.retain(|(v, _)| !v.is_nan());
        if numeric.len() != stored {
            numeric.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        let content_elements = rd_len(data, pos, "value-index content elements")?;
        Ok(ValueIndex {
            terms,
            exact,
            numeric,
            content_elements,
        })
    }

    /// Approximate heap size in bytes.
    pub fn size_bytes(&self) -> usize {
        let terms: usize = self
            .terms
            .iter()
            .map(|(k, v)| k.capacity() + v.capacity() * std::mem::size_of::<Posting>())
            .sum();
        let exact: usize = self
            .exact
            .iter()
            .map(|(k, v)| k.capacity() + v.capacity() * std::mem::size_of::<NodeId>())
            .sum();
        terms + exact + self.numeric.capacity() * std::mem::size_of::<(f64, NodeId)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn tokenize_splits_and_lowercases() {
        assert_eq!(tokenize("Hello, World"), vec!["hello", "world"]);
        assert_eq!(tokenize("  "), Vec::<String>::new());
        assert_eq!(tokenize("a1-b2"), vec!["a1", "b2"]);
        assert_eq!(tokenize("Éclair"), vec!["éclair"]);
    }

    #[test]
    fn term_postings_with_tf() {
        let mut idx = ValueIndex::new();
        idx.index_element(node(1), "xml twig xml", &[]);
        idx.index_element(node(2), "twig", &[]);
        idx.finish();
        let xml = idx.postings("XML");
        assert_eq!(xml.len(), 1);
        assert_eq!(xml[0].tf, 2);
        assert_eq!(idx.df("twig"), 2);
        assert_eq!(idx.df("missing"), 0);
    }

    #[test]
    fn attribute_values_are_indexed_as_terms() {
        let mut idx = ValueIndex::new();
        idx.index_element(node(1), "", &["Morgan Kaufmann"]);
        idx.finish();
        assert_eq!(idx.df("kaufmann"), 1);
        // But attributes do not create exact text values.
        assert!(idx.exact_matches("Morgan Kaufmann").is_empty());
    }

    #[test]
    fn exact_match_is_trimmed_case_insensitive() {
        let mut idx = ValueIndex::new();
        idx.index_element(node(3), "  Jiaheng Lu ", &[]);
        idx.finish();
        assert_eq!(idx.exact_matches("jiaheng lu"), &[node(3)]);
        assert_eq!(idx.exact_matches("JIAHENG LU  "), &[node(3)]);
        assert!(idx.exact_matches("jiaheng").is_empty());
    }

    #[test]
    fn numeric_range_queries() {
        let mut idx = ValueIndex::new();
        idx.index_element(node(1), "1999", &[]);
        idx.index_element(node(2), "2003", &[]);
        idx.index_element(node(3), "2010", &[]);
        idx.index_element(node(4), "not a number", &[]);
        idx.finish();
        assert_eq!(
            idx.range_matches(2000.0, 2010.0),
            [(2003.0, node(2)), (2010.0, node(3))]
        );
        assert_eq!(idx.range_matches(1999.0, 1999.0), [(1999.0, node(1))]);
        assert!(idx.range_matches(2011.0, 3000.0).is_empty());
    }

    #[test]
    fn nan_is_not_a_number_to_the_range_index_and_infinities_are() {
        let mut idx = ValueIndex::new();
        let texts = ["1", "NaN", "5", "nan", "inf", "-inf", "3"];
        for (i, text) in texts.iter().enumerate() {
            idx.index_element(node(i), text, &[]);
        }
        idx.finish();
        let nodes = |low: f64, high: f64| -> Vec<NodeId> {
            idx.range_matches(low, high).iter().map(|e| e.1).collect()
        };
        assert_eq!(nodes(2.0, f64::INFINITY), [node(6), node(2), node(4)]);
        assert_eq!(nodes(f64::NEG_INFINITY, 1.0), [node(5), node(0)]);
        assert_eq!(nodes(f64::NEG_INFINITY, f64::INFINITY).len(), 5);
        // NaN is still an exact value.
        assert_eq!(idx.exact_matches("nan"), [node(1), node(3)]);

        // A file written while NaN was still indexed: decoding drops the
        // entries and re-sorts what their comparisons left out of order.
        idx.numeric = vec![
            (1.0, node(0)),
            (f64::NAN, node(1)),
            (5.0, node(2)),
            (3.0, node(6)),
        ];
        let identity: Vec<u32> = (0..8).collect();
        let mut bytes = Vec::new();
        idx.encode(&identity, &mut bytes);
        let back = ValueIndex::decode(&bytes, &mut 0, 8).unwrap();
        assert_eq!(
            back.range_matches(f64::NEG_INFINITY, f64::INFINITY),
            [(1.0, node(0)), (3.0, node(6)), (5.0, node(2))]
        );
    }

    #[test]
    fn exact_match_folds_non_ascii_case() {
        let mut idx = ValueIndex::new();
        idx.index_element(node(1), "Éclair", &[]);
        idx.index_element(node(2), "éclair", &[]);
        idx.finish();
        assert_eq!(idx.exact_matches("ÉCLAIR"), [node(1), node(2)]);
        assert_eq!(fold_value("  Éclair "), "éclair");
    }

    #[test]
    fn content_element_count_counts_elements_not_terms() {
        let mut idx = ValueIndex::new();
        idx.index_element(node(1), "a b c", &[]);
        idx.index_element(node(2), "", &[]);
        idx.index_element(node(3), "d", &[]);
        idx.finish();
        assert_eq!(idx.content_element_count(), 2);
        assert_eq!(idx.term_count(), 4);
    }
}
