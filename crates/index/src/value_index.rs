//! Content indexes: tokenized term postings, exact values, and numbers.
//!
//! Terms and exact values are attributed to the element that *directly*
//! contains the text (or carries the attribute): that is the node a value
//! predicate in a twig query attaches to.
//!
//! Both string-keyed indexes are sorted dictionaries: every key in one
//! byte arena, every list in one array, and a pair of offset columns
//! between them (compressed sparse rows). A lookup is a binary search over
//! the keys, and a key's rank is a stable id: the completion counts of
//! [`TermCounts`] are keyed by it, and a prefix is a range of ranks. The
//! whole index is a dozen allocations, whatever the number of distinct
//! terms and values.

use crate::term_counts::TermCounts;
use crate::wire::{corrupt, get_str, put_string, put_varint, rd_f64, rd_len, StorageError};
use lotusx_xml::{NodeId, Symbol};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;

/// Appends the case fold of one term character: its Unicode lowercase,
/// decided by the character alone.
fn push_folded(ch: char, out: &mut String) {
    // A `push` loop, not `extend`: whether the generic `extend` gets
    // inlined here has swung tokenizing by 20 % between builds that did
    // not touch it.
    for lower in ch.to_lowercase() {
        out.push(lower);
    }
}

/// Calls `visit` with each term of `text` in order, folded by
/// [`push_folded`] into the reused `buf`: tokenizing allocates nothing
/// but `buf`'s growth. An ASCII character takes the ASCII tests, which
/// agree with the Unicode ones on it and skip their table lookups.
fn visit_terms(text: &str, buf: &mut String, mut visit: impl FnMut(&str)) {
    buf.clear();
    for ch in text.chars() {
        if ch.is_ascii_alphanumeric() {
            buf.push(ch.to_ascii_lowercase());
        } else if !ch.is_ascii() && ch.is_alphanumeric() {
            push_folded(ch, buf);
        } else if !buf.is_empty() {
            visit(buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        visit(buf);
    }
}

/// Splits text into lowercase alphanumeric terms.
///
/// ```
/// use lotusx_index::tokenize;
/// assert_eq!(tokenize("Holistic Twig-Joins, 2002!"), vec!["holistic", "twig", "joins", "2002"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut terms = Vec::new();
    visit_terms(text, &mut String::new(), |term| {
        terms.push(term.to_string())
    });
    terms
}

/// `term` under [`tokenize`]'s fold, borrowed when it is folded already.
/// Lookups fold by this, not by `str::to_lowercase`, whose word-final
/// sigma rule would turn the indexed `οδοσ` into `οδος`.
fn fold_term(term: &str) -> Cow<'_, str> {
    let folded = |ch: char| {
        let mut lower = ch.to_lowercase();
        lower.next() == Some(ch) && lower.next().is_none()
    };
    if term.chars().all(folded) {
        return Cow::Borrowed(term);
    }
    let mut out = String::with_capacity(term.len());
    term.chars().for_each(|ch| push_folded(ch, &mut out));
    Cow::Owned(out)
}

/// The one case fold of exact-value matching (`=`): surrounding whitespace
/// off, then `str::to_lowercase`. That is [`tokenize`]'s per-character
/// fold except for a capital sigma, which becomes `ς` at the end of a
/// word. The value index keys on this fold and the direct predicate test
/// compares by it, so the two cannot disagree on non-ASCII text.
pub fn fold_value(text: &str) -> String {
    let mut out = String::new();
    fold_value_into(text, &mut out);
    out
}

/// [`fold_value`] into a reused buffer. ASCII text, most of it, takes
/// the ASCII lowercase, which is the same function there.
fn fold_value_into(text: &str, out: &mut String) {
    out.clear();
    let text = text.trim();
    if text.is_ascii() {
        out.push_str(text);
        out.make_ascii_lowercase();
    } else if text.contains('Σ') {
        // Only the sigma's fold depends on its neighbours.
        out.push_str(&text.to_lowercase());
    } else {
        text.chars().for_each(|ch| push_folded(ch, out));
    }
}

/// One posting: an element and the term's frequency within it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Posting {
    /// The element directly containing the term.
    pub node: NodeId,
    /// Occurrences of the term in that element's direct content.
    pub tf: u32,
}

/// A sorted string dictionary over compressed sparse rows: key `i` is
/// `keys[key_offsets[i]..key_offsets[i + 1]]` and its list
/// `entries[entry_offsets[i]..entry_offsets[i + 1]]`. Keys strictly
/// increase in byte order.
#[derive(Clone, Debug, PartialEq)]
struct Dictionary<T> {
    keys: String,
    key_offsets: Vec<u32>,
    entry_offsets: Vec<u32>,
    entries: Vec<T>,
}

/// The error names of one dictionary of the `VALUES` section.
struct Fields {
    count: &'static str,
    key: &'static str,
    order: &'static str,
    entries: &'static str,
}

fn span(offsets: &[u32], i: usize) -> Range<usize> {
    offsets[i] as usize..offsets[i + 1] as usize
}

/// `len` as a `u32` offset: an index holds fewer than 2³² key bytes,
/// keys and list entries.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a value index under 4 GiB")
}

impl<T: Copy> Dictionary<T> {
    fn len(&self) -> usize {
        self.key_offsets.len() - 1
    }

    fn key(&self, i: usize) -> &str {
        &self.keys[span(&self.key_offsets, i)]
    }

    fn entries_of(&self, i: usize) -> &[T] {
        &self.entries[span(&self.entry_offsets, i)]
    }

    /// The first rank whose key fails `pred`, which must hold for a
    /// prefix of the keys.
    fn partition_point(&self, pred: impl Fn(&str) -> bool) -> usize {
        let (mut low, mut high) = (0, self.len());
        while low < high {
            let mid = low + (high - low) / 2;
            if pred(self.key(mid)) {
                low = mid + 1;
            } else {
                high = mid;
            }
        }
        low
    }

    /// The list of `key`, empty if the key is absent.
    fn get(&self, key: &str) -> &[T] {
        let at = self.partition_point(|k| k < key);
        match at < self.len() && self.key(at) == key {
            true => self.entries_of(at),
            false => &[],
        }
    }

    fn iter(&self) -> impl Iterator<Item = (&str, &[T])> {
        (0..self.len()).map(|i| (self.key(i), self.entries_of(i)))
    }

    fn size_bytes(&self) -> usize {
        self.keys.capacity()
            + (self.key_offsets.capacity() + self.entry_offsets.capacity()) * 4
            + self.entries.capacity() * std::mem::size_of::<T>()
    }

    /// Lays the keys of `interned` out in byte order (`rank` is
    /// [`Interner::ranks`]) and gathers each one's items, kept in arrival
    /// order, with one counting pass: every array is sized once.
    fn gather(interned: &Interner, rank: &[u32], items: &[(u32, T)]) -> Self {
        let n = interned.len();
        let mut order = vec![0u32; n];
        for (id, &r) in rank.iter().enumerate() {
            order[r as usize] = id as u32;
        }
        let mut keys = String::with_capacity(interned.arena.len());
        let mut key_offsets = Vec::with_capacity(n + 1);
        key_offsets.push(0);
        for &id in &order {
            keys.push_str(interned.key(id));
            key_offsets.push(offset(keys.len()));
        }
        drop(order);
        let mut entry_offsets = vec![0u32; n + 1];
        for &(id, _) in items {
            entry_offsets[rank[id as usize] as usize + 1] += 1;
        }
        for i in 0..n {
            entry_offsets[i + 1] += entry_offsets[i];
        }
        // Per interned id, its next write position.
        let mut slot: Vec<u32> = rank.iter().map(|&r| entry_offsets[r as usize]).collect();
        let mut entries = items
            .first()
            .map_or(Vec::new(), |&(_, t)| vec![t; items.len()]);
        for &(id, item) in items {
            let at = &mut slot[id as usize];
            entries[*at as usize] = item;
            *at += 1;
        }
        Dictionary {
            keys,
            key_offsets,
            entry_offsets,
            entries,
        }
    }

    fn encode(&self, out: &mut Vec<u8>, mut entry: impl FnMut(&mut Vec<u8>, &T)) {
        put_varint(out, self.len() as u64);
        for (key, entries) in self.iter() {
            put_string(out, key);
            put_varint(out, entries.len() as u64);
            entries.iter().for_each(|e| entry(out, e));
        }
    }

    /// Reads a dictionary [`encode`](Self::encode) wrote, whose entries
    /// are `varints` varints each. A counting pass over the bytes sizes
    /// every array; the second pass reads into them.
    fn decode(
        data: &[u8],
        pos: &mut usize,
        fields: &Fields,
        varints: usize,
        mut entry: impl FnMut(&[u8], &mut usize) -> Result<T, StorageError>,
    ) -> Result<Self, StorageError> {
        let count = rd_len(data, pos, fields.count)?;
        if count > data.len() {
            return Err(corrupt(fields.count));
        }
        let start = *pos;
        let (mut key_bytes, mut entry_count) = (0usize, 0usize);
        for _ in 0..count {
            let len = rd_len(data, pos, fields.key)?;
            *pos = pos
                .checked_add(len)
                .filter(|&end| end <= data.len())
                .ok_or(corrupt(fields.key))?;
            key_bytes += len;
            let n = rd_len(data, pos, fields.entries)?;
            if n > data.len() {
                return Err(corrupt(fields.entries));
            }
            entry_count += n;
            // A varint ends at its first byte below 0x80.
            let mut left = n * varints;
            while left > 0 {
                let byte = *data.get(*pos).ok_or(corrupt(fields.entries))?;
                *pos += 1;
                left -= usize::from(byte < 0x80);
            }
        }
        if u32::try_from(key_bytes.max(entry_count)).is_err() {
            return Err(corrupt(fields.count));
        }

        *pos = start;
        let mut dict = Dictionary {
            keys: String::with_capacity(key_bytes),
            key_offsets: Vec::with_capacity(count + 1),
            entry_offsets: Vec::with_capacity(count + 1),
            entries: Vec::with_capacity(entry_count),
        };
        dict.key_offsets.push(0);
        dict.entry_offsets.push(0);
        for i in 0..count {
            let key = get_str(data, pos).ok_or(corrupt(fields.key))?;
            if i > 0 && dict.key(i - 1) >= key {
                return Err(corrupt(fields.order));
            }
            dict.keys.push_str(key);
            dict.key_offsets.push(dict.keys.len() as u32);
            let n = rd_len(data, pos, fields.entries)?;
            for _ in 0..n {
                dict.entries.push(entry(data, pos)?);
            }
            dict.entry_offsets.push(dict.entries.len() as u32);
        }
        Ok(dict)
    }
}

/// Distinct keys in first-seen order in one arena, found through an
/// open-addressing table of ids: interning allocates nothing per key.
#[derive(Default)]
struct Interner {
    arena: String,
    /// Per id, the end of its key in `arena`.
    ends: Vec<u32>,
    /// `id + 1` per slot, 0 when empty; a power of two long, at most half
    /// full.
    slots: Vec<u32>,
}

impl Interner {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn key(&self, id: u32) -> &str {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.arena[start as usize..self.ends[id] as usize]
    }

    /// Each id's rank in the byte order of the keys.
    fn ranks(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..offset(self.len())).collect();
        order.sort_unstable_by(|&a, &b| self.key(a).cmp(self.key(b)));
        let mut rank = vec![0u32; self.len()];
        for (r, &id) in order.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        rank
    }

    fn home(key: &str, mask: usize) -> usize {
        // FNV-1a, with the high bits of a multiply choosing the slot.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key.as_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask
    }

    /// The id of `key`, a new one if it was not seen before.
    fn intern(&mut self, key: &str) -> u32 {
        if (self.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut slot = Self::home(key, mask);
        loop {
            match self.slots[slot] {
                0 => {
                    let id = offset(self.len());
                    self.arena.push_str(key);
                    self.ends.push(offset(self.arena.len()));
                    self.slots[slot] = id + 1;
                    return id;
                }
                taken if self.key(taken - 1) == key => return taken - 1,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(64);
        let mut slots = vec![0u32; size];
        for id in 0..offset(self.len()) {
            let mut slot = Self::home(self.key(id), size - 1);
            while slots[slot] != 0 {
                slot = (slot + 1) & (size - 1);
            }
            slots[slot] = id + 1;
        }
        self.slots = slots;
    }
}

/// Collects a [`ValueIndex`] element by element, in document order.
#[derive(Default)]
pub(crate) struct ValueIndexBuilder {
    terms: Interner,
    /// Per term id, where its latest posting sits in `postings`.
    last: Vec<usize>,
    /// `(term id, posting)` in arrival order.
    postings: Vec<(u32, Posting)>,
    /// Occurrences per `tag << 32 | term id` in direct text.
    tag_terms: HashMap<u64, u32>,
    values: Interner,
    /// `(value id, element)` in arrival order.
    exact: Vec<(u32, NodeId)>,
    numeric: Vec<(f64, NodeId)>,
    content_elements: usize,
    scratch: String,
}

impl ValueIndexBuilder {
    /// Indexes the direct content of `node`, a `tag` element: its text
    /// plus attribute values.
    pub(crate) fn add_element<'t>(
        &mut self,
        node: NodeId,
        tag: Symbol,
        direct_text: &str,
        attr_values: impl IntoIterator<Item = &'t str>,
    ) {
        let mut any = self.add_terms(node, Some(tag), direct_text);
        for value in attr_values {
            any |= self.add_terms(node, None, value);
        }
        let trimmed = direct_text.trim();
        if !trimmed.is_empty() {
            fold_value_into(trimmed, &mut self.scratch);
            self.exact.push((self.values.intern(&self.scratch), node));
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

    /// Counts the terms of `source` into `node`'s postings, and into
    /// `tag`'s term counts when it is direct text; true if it had any.
    /// Elements arrive in document order, so a term's postings do too,
    /// and a term seen before in this element finds the element's
    /// posting last in the term's list.
    fn add_terms(&mut self, node: NodeId, tag: Option<Symbol>, source: &str) -> bool {
        let mut any = false;
        let (terms, last, postings) = (&mut self.terms, &mut self.last, &mut self.postings);
        let tag_terms = &mut self.tag_terms;
        visit_terms(source, &mut self.scratch, |term| {
            any = true;
            let id = terms.intern(term);
            if let Some(tag) = tag {
                *tag_terms
                    .entry((tag.index() as u64) << 32 | u64::from(id))
                    .or_insert(0) += 1;
            }
            if let Some(&at) = last.get(id as usize) {
                if postings[at].1.node == node {
                    postings[at].1.tf += 1;
                    return;
                }
                last[id as usize] = postings.len();
            } else {
                last.push(postings.len());
            }
            postings.push((id, Posting { node, tf: 1 }));
        });
        any
    }

    /// Sorts both dictionaries and the numeric index (stably by value,
    /// so equal values stay in document order), and lays out the term
    /// counts of a document with `tag_count` tag symbols.
    pub(crate) fn finish(self, tag_count: usize) -> (ValueIndex, TermCounts) {
        let mut numeric = self.numeric;
        numeric.sort_by(|a, b| a.0.total_cmp(&b.0));
        numeric.shrink_to_fit();
        let term_rank = self.terms.ranks();
        let values = ValueIndex {
            terms: Dictionary::gather(&self.terms, &term_rank, &self.postings),
            exact: Dictionary::gather(&self.values, &self.values.ranks(), &self.exact),
            numeric,
            content_elements: self.content_elements,
        };
        drop(self.postings);
        let mut triples: Vec<(u32, u32, u32)> = self
            .tag_terms
            .into_iter()
            .map(|(pair, count)| ((pair >> 32) as u32, term_rank[pair as u32 as usize], count))
            .collect();
        triples.sort_unstable();
        let counts = TermCounts::from_sorted(tag_count, &triples, &values);
        (values, counts)
    }
}

/// Content index over a document.
#[derive(Clone, Debug, PartialEq)]
pub struct ValueIndex {
    /// Term → its postings, in document order.
    terms: Dictionary<Posting>,
    /// [`fold_value`] of a direct text → its elements, in document order.
    exact: Dictionary<NodeId>,
    numeric: Vec<(f64, NodeId)>,
    /// Number of elements carrying any content (the "document count" for IDF).
    content_elements: usize,
}

impl ValueIndex {
    /// Elements whose content contains `term` (case-insensitive, under
    /// [`tokenize`]'s fold).
    pub fn postings(&self, term: &str) -> &[Posting] {
        self.terms.get(&fold_term(term))
    }

    /// Document frequency of `term`.
    pub fn df(&self, term: &str) -> usize {
        self.postings(term).len()
    }

    /// Elements whose direct text equals `value` under [`fold_value`].
    pub fn exact_matches(&self, value: &str) -> &[NodeId] {
        self.exact.get(&fold_value(value))
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

    /// The ranks of the terms that start with `prefix`, byte for byte:
    /// the keys are folded, so a prefix that is not matches nothing.
    pub fn prefix_range(&self, prefix: &str) -> Range<usize> {
        let from = self.terms.partition_point(|k| k < prefix);
        let to = self
            .terms
            .partition_point(|k| k < prefix || k.starts_with(prefix));
        from..to
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// The term of rank `id` in byte order, `id < term_count()`.
    pub fn term(&self, id: usize) -> &str {
        self.terms.key(id)
    }

    /// Iterates over `(term, document frequency)` pairs in byte order of
    /// the terms: the `n`-th pair's term is [`term(n)`](Self::term).
    pub fn terms(&self) -> impl Iterator<Item = (&str, usize)> {
        self.terms.iter().map(|(t, p)| (t, p.len()))
    }

    /// Serializes the content index for the snapshot `VALUES` section:
    /// both dictionaries in key order, then the numeric index.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let id = |n: &NodeId| n.index() as u64;
        self.terms.encode(out, |out, p| {
            put_varint(out, id(&p.node));
            put_varint(out, u64::from(p.tf));
        });
        self.exact.encode(out, |out, n| put_varint(out, id(n)));
        put_varint(out, self.numeric.len() as u64);
        for (value, node) in &self.numeric {
            out.extend_from_slice(&value.to_bits().to_le_bytes());
            put_varint(out, id(node));
        }
        put_varint(out, self.content_elements as u64);
    }

    /// Deserializes a content index written by [`encode`](Self::encode),
    /// bounds-checking every node id against `node_count` and requiring
    /// both dictionaries' keys to strictly increase.
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
        let term_fields = Fields {
            count: "value-index term count",
            key: "value-index term key",
            order: "value-index term keys not increasing",
            entries: "value-index postings",
        };
        let terms = Dictionary::decode(data, pos, &term_fields, 2, |data, pos| {
            let node = rd_node(data, pos)?;
            let tf = u32::try_from(rd_len(data, pos, "value-index tf")?)
                .map_err(|_| corrupt("value-index tf"))?;
            Ok(Posting { node, tf })
        })?;
        let exact_fields = Fields {
            count: "value-index exact count",
            key: "value-index exact key",
            order: "value-index exact keys not increasing",
            entries: "value-index exact nodes",
        };
        let exact = Dictionary::decode(data, pos, &exact_fields, 1, rd_node)?;
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

    /// Heap bytes held, by capacity.
    pub fn size_bytes(&self) -> usize {
        self.terms.size_bytes()
            + self.exact.size_bytes()
            + self.numeric.capacity() * std::mem::size_of::<(f64, NodeId)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// An index over `(element, direct text, attribute values)` rows.
    fn index(rows: &[(usize, &str, &[&str])]) -> ValueIndex {
        let mut builder = ValueIndexBuilder::default();
        for &(i, text, attrs) in rows {
            builder.add_element(node(i), Symbol::from_index(0), text, attrs.iter().copied());
        }
        builder.finish(1).0
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
        let idx = index(&[(1, "xml twig xml", &[]), (2, "twig", &[])]);
        let xml = idx.postings("XML");
        assert_eq!(xml.len(), 1);
        assert_eq!(xml[0].tf, 2);
        assert_eq!(idx.df("twig"), 2);
        assert_eq!(idx.df("missing"), 0);
    }

    #[test]
    fn a_term_in_text_and_attributes_is_one_posting() {
        let idx = index(&[(1, "xml", &["XML data", "xml"]), (2, "data", &[])]);
        assert_eq!(
            idx.postings("xml"),
            [Posting {
                node: node(1),
                tf: 3
            }]
        );
        assert_eq!(
            idx.postings("data"),
            [
                Posting {
                    node: node(1),
                    tf: 1
                },
                Posting {
                    node: node(2),
                    tf: 1
                }
            ]
        );
    }

    #[test]
    fn attribute_values_are_indexed_as_terms() {
        let idx = index(&[(1, "", &["Morgan Kaufmann"])]);
        assert_eq!(idx.df("kaufmann"), 1);
        // But attributes do not create exact text values.
        assert!(idx.exact_matches("Morgan Kaufmann").is_empty());
    }

    #[test]
    fn exact_match_is_trimmed_case_insensitive() {
        let idx = index(&[(3, "  Jiaheng Lu ", &[])]);
        assert_eq!(idx.exact_matches("jiaheng lu"), &[node(3)]);
        assert_eq!(idx.exact_matches("JIAHENG LU  "), &[node(3)]);
        assert!(idx.exact_matches("jiaheng").is_empty());
    }

    #[test]
    fn numeric_range_queries() {
        let idx = index(&[
            (1, "1999", &[]),
            (2, "2003", &[]),
            (3, "2010", &[]),
            (4, "not a number", &[]),
        ]);
        assert_eq!(
            idx.range_matches(2000.0, 2010.0),
            [(2003.0, node(2)), (2010.0, node(3))]
        );
        assert_eq!(idx.range_matches(1999.0, 1999.0), [(1999.0, node(1))]);
        assert!(idx.range_matches(2011.0, 3000.0).is_empty());
    }

    #[test]
    fn nan_is_not_a_number_to_the_range_index_and_infinities_are() {
        let texts = ["1", "NaN", "5", "nan", "inf", "-inf", "3"];
        let rows: Vec<(usize, &str, &[&str])> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| (i, *t, &[][..]))
            .collect();
        let mut idx = index(&rows);
        let nodes = |idx: &ValueIndex, low: f64, high: f64| -> Vec<NodeId> {
            idx.range_matches(low, high).iter().map(|e| e.1).collect()
        };
        assert_eq!(nodes(&idx, 2.0, f64::INFINITY), [node(6), node(2), node(4)]);
        assert_eq!(nodes(&idx, f64::NEG_INFINITY, 1.0), [node(5), node(0)]);
        assert_eq!(nodes(&idx, f64::NEG_INFINITY, f64::INFINITY).len(), 5);
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
        let mut bytes = Vec::new();
        idx.encode(&mut bytes);
        let back = ValueIndex::decode(&bytes, &mut 0, 8).unwrap();
        assert_eq!(
            back.range_matches(f64::NEG_INFINITY, f64::INFINITY),
            [(1.0, node(0)), (3.0, node(6)), (5.0, node(2))]
        );
    }

    #[test]
    fn exact_match_folds_non_ascii_case() {
        let idx = index(&[(1, "Éclair", &[]), (2, "éclair", &[])]);
        assert_eq!(idx.exact_matches("ÉCLAIR"), [node(1), node(2)]);
        assert_eq!(fold_value("  Éclair "), "éclair");
    }

    /// A word-final capital sigma: terms fold it per character (`σ`),
    /// exact values by `str::to_lowercase` (`ς`), and each lookup must
    /// fold as its keys were folded.
    #[test]
    fn a_word_final_sigma_finds_what_was_indexed() {
        let idx = index(&[(1, "ΟΔΟΣ", &[])]);
        assert_eq!(tokenize("ΟΔΟΣ"), ["οδοσ"]);
        assert_eq!(idx.df("ΟΔΟΣ"), 1);
        assert_eq!(idx.postings("ΟΔΟΣ"), idx.postings("οδοσ"));
        assert_eq!(idx.exact_matches("ΟΔΟΣ"), [node(1)]);
        assert_eq!(idx.exact_matches("οδος"), [node(1)]);
    }

    /// The per-character fold the builder uses equals `str::to_lowercase`
    /// on every value without a capital sigma, alone and between letters.
    #[test]
    fn value_fold_equals_to_lowercase() {
        let mut out = String::new();
        let chars = (0..0x3_0000u32).filter_map(char::from_u32);
        for ch in chars {
            for text in [format!("{ch}"), format!("A{ch}b"), format!(" {ch}{ch} ")] {
                fold_value_into(&text, &mut out);
                assert_eq!(out, text.trim().to_lowercase(), "{:?}", ch);
            }
        }
    }

    #[test]
    fn content_element_count_counts_elements_not_terms() {
        let idx = index(&[(1, "a b c", &[]), (2, "", &[]), (3, "d", &[])]);
        assert_eq!(idx.content_element_count(), 2);
        assert_eq!(idx.term_count(), 4);
        let terms: Vec<&str> = (0..4).map(|i| idx.term(i)).collect();
        assert_eq!(terms, ["a", "b", "c", "d"]);
    }

    #[test]
    fn keys_must_strictly_increase() {
        let idx = index(&[(0, "b", &[]), (1, "a", &[])]);
        let mut bytes = Vec::new();
        idx.encode(&mut bytes);
        assert!(ValueIndex::decode(&bytes, &mut 0, 2).is_ok());
        // Term keys: "a", "b" → "b", "b"; then exact keys likewise.
        let mut terms_swapped = bytes.clone();
        let first_key = bytes.iter().position(|&b| b == b'a').unwrap();
        terms_swapped[first_key] = b'b';
        assert!(matches!(
            ValueIndex::decode(&terms_swapped, &mut 0, 2),
            Err(StorageError::Corrupt(
                "value-index term keys not increasing"
            ))
        ));
        let mut exact_swapped = bytes.clone();
        let exact_key = bytes.iter().rposition(|&b| b == b'a').unwrap();
        exact_swapped[exact_key] = b'b';
        assert!(matches!(
            ValueIndex::decode(&exact_swapped, &mut 0, 2),
            Err(StorageError::Corrupt(
                "value-index exact keys not increasing"
            ))
        ));
    }
}
