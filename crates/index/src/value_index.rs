//! Content indexes: tokenized term postings, exact values, and numbers.
//!
//! Terms and exact values are attributed to the element that *directly*
//! contains the text (or carries the attribute): that is the node a value
//! predicate in a twig query attaches to.
//!
//! Both string-keyed indexes are sorted dictionaries: every list in one
//! array with an offset column into it (compressed sparse rows), keys in
//! byte order. A lookup is a binary search over the keys, and a key's
//! rank is a stable id: the completion counts of [`TermCounts`] are
//! keyed by it, and a prefix is a range of ranks. The whole index is a
//! dozen allocations, whatever the number of distinct terms and values.
//!
//! Each fact is held once. A posting is a bare node id; the frequencies
//! above 1 — a seventh of the postings on dblp — sit in a sparse column
//! beside them. An exact key is the trimmed direct text of its first
//! element, read in the document's character arena, unless folding
//! changed it (or the text is joined from several text nodes): only
//! those keys keep their own bytes. The numeric index is derived from the
//! exact keys, one `(number, key rank)` entry per distinct key that
//! parses. On disk a list is its length and the gaps between its ids,
//! and only the frequencies above 1 are written.

use crate::term_counts::TermCounts;
use crate::wire::{corrupt, get_str, put_string, put_varint, rd_len, StorageError};
use lotusx_xml::{Document, NodeId, NodeKind, Symbol};
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

/// True if `text`, trimmed already, is its own [`fold_value`]: for ASCII
/// text, when it holds no capital letter.
fn is_folded(text: &str, scratch: &mut String) -> bool {
    if text.is_ascii() {
        return !text.bytes().any(|b| b.is_ascii_uppercase());
    }
    fold_value_into(text, scratch);
    scratch == text
}

/// One term's postings: the elements whose direct content holds it, in
/// document order, and its frequency in each. The frequencies are a
/// sparse column beside the node ids: only a posting whose tf is above 1
/// has an entry, and every other one reads 1.
#[derive(Clone, Copy, Debug)]
pub struct Postings<'a> {
    nodes: &'a [NodeId],
    /// Where `nodes` starts in the index's array of postings: the
    /// positions in `tfs` count from the start of that array.
    base: usize,
    /// `(position, tf)` of the postings whose tf is above 1, by position.
    tfs: &'a [(u32, u32)],
}

impl<'a> Postings<'a> {
    const EMPTY: Postings<'static> = Postings {
        nodes: &[],
        base: 0,
        tfs: &[],
    };

    /// The elements, in document order.
    pub fn nodes(&self) -> &'a [NodeId] {
        self.nodes
    }

    /// Number of postings: the term's document frequency.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the term occurs nowhere.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The term's occurrences in the elements at `range` of
    /// [`nodes`](Self::nodes): one per element, plus what each of their
    /// frequencies above 1 adds. Ranges that only move forward, as
    /// answers in document order do, share a `cursor` — 0 before the
    /// first range, and again after a range that starts before the last
    /// one — which walks the frequencies above 1 once instead of
    /// searching them per range.
    pub fn tf_sum(&self, range: Range<usize>, cursor: &mut usize) -> u32 {
        let (from, to) = (self.base + range.start, self.base + range.end);
        let before = self.tfs[*cursor..]
            .iter()
            .take_while(|&&(at, _)| (at as usize) < from);
        *cursor += before.count();
        let extra: u32 = self.tfs[*cursor..]
            .iter()
            .take_while(|&&(at, _)| (at as usize) < to)
            .map(|&(_, tf)| tf - 1)
            .sum();
        offset(range.len()) + extra
    }

    /// The term's frequency in element `i` of [`nodes`](Self::nodes).
    pub fn tf(&self, i: usize) -> u32 {
        let at = self.base + i;
        let mut cursor = self.tfs.partition_point(|&(p, _)| (p as usize) < at);
        self.tf_sum(i..i + 1, &mut cursor)
    }

    /// `(element, tf)` pairs in document order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u32)> + 'a {
        let Postings { nodes, base, tfs } = *self;
        let mut tfs = tfs.iter().peekable();
        nodes.iter().enumerate().map(move |(i, &node)| {
            let tf = tfs.next_if(|&&(at, _)| at as usize == base + i);
            (node, tf.map_or(1, |&(_, tf)| tf))
        })
    }
}

/// Two lists are equal when their `(element, tf)` pairs are, wherever
/// they sit in their indexes.
impl PartialEq for Postings<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

fn span(offsets: &[u32], i: usize) -> Range<usize> {
    offsets[i] as usize..offsets[i + 1] as usize
}

/// `len` as a `u32` offset: an index holds fewer than 2³² key bytes,
/// keys and list entries.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a value index under 4 GiB")
}

/// The first index below `len` at which `pred` fails; `pred` must hold
/// for a prefix of `0..len`.
fn partition_point(len: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut low, mut high) = (0, len);
    while low < high {
        let mid = low + (high - low) / 2;
        if pred(mid) {
            low = mid + 1;
        } else {
            high = mid;
        }
    }
    low
}

/// Strings back to back in one arena: string `i` is
/// `bytes[offsets[i]..offsets[i + 1]]`.
#[derive(Clone, Debug, PartialEq)]
struct Arena {
    bytes: String,
    offsets: Vec<u32>,
}

impl Arena {
    fn with_capacity(count: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(count + 1);
        offsets.push(0);
        Arena {
            bytes: String::with_capacity(bytes),
            offsets,
        }
    }

    /// The keys of `interned` in `order`.
    fn of(interned: &Interner, order: &[u32]) -> Self {
        let mut arena = Arena::with_capacity(order.len(), interned.arena.len());
        order.iter().for_each(|&id| arena.push(interned.key(id)));
        arena
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn get(&self, i: usize) -> &str {
        &self.bytes[span(&self.offsets, i)]
    }

    fn push(&mut self, s: &str) {
        self.bytes.push_str(s);
        self.offsets.push(offset(self.bytes.len()));
    }

    fn size_bytes(&self) -> usize {
        self.bytes.capacity() + self.offsets.capacity() * 4
    }
}

/// Node-id lists over compressed sparse rows: list `i` is
/// `entries[offsets[i]..offsets[i + 1]]`, its ids strictly increasing.
#[derive(Clone, Debug, PartialEq)]
struct Lists {
    offsets: Vec<u32>,
    entries: Vec<NodeId>,
}

impl Lists {
    fn with_capacity(count: usize, entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(count + 1);
        offsets.push(0);
        Lists {
            offsets,
            entries: Vec::with_capacity(entries),
        }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn span(&self, i: usize) -> Range<usize> {
        span(&self.offsets, i)
    }

    fn get(&self, i: usize) -> &[NodeId] {
        &self.entries[self.span(i)]
    }

    fn size_bytes(&self) -> usize {
        (self.offsets.capacity() + self.entries.capacity()) * 4
    }

    /// Gathers `items`, `(interned id, element)` in arrival order, into
    /// one list per key rank (`rank[id]`), each in arrival order, with
    /// one counting pass: every array is sized once. `placed(i, at)`
    /// learns where item `i` went.
    fn gather(rank: &[u32], items: &[(u32, NodeId)], mut placed: impl FnMut(usize, u32)) -> Self {
        let n = rank.len();
        let mut offsets = vec![0u32; n + 1];
        for &(id, _) in items {
            offsets[rank[id as usize] as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Per interned id, its next write position.
        let mut slot: Vec<u32> = rank.iter().map(|&r| offsets[r as usize]).collect();
        let mut entries = vec![NodeId::DOCUMENT; items.len()];
        for (i, &(id, node)) in items.iter().enumerate() {
            let at = &mut slot[id as usize];
            entries[*at as usize] = node;
            placed(i, *at);
            *at += 1;
        }
        Lists { offsets, entries }
    }

    /// Writes list `i`: its length, then each id as its gap from the one
    /// before (the first from 0, the document node no list holds).
    fn encode_list(&self, i: usize, out: &mut Vec<u8>) {
        let list = self.get(i);
        put_varint(out, list.len() as u64);
        let mut prev = 0;
        for node in list {
            put_varint(out, (node.index() - prev) as u64);
            prev = node.index();
        }
    }

    /// Appends a list [`encode_list`](Self::encode_list) wrote. A list is
    /// never empty, a gap never 0 — ids strictly increase — and every id
    /// lies below `node_count`.
    fn decode_list(
        &mut self,
        data: &[u8],
        pos: &mut usize,
        node_count: usize,
    ) -> Result<(), StorageError> {
        let n = rd_len(data, pos, "value-index list length")?;
        if n == 0 {
            return Err(corrupt("value-index empty list"));
        }
        let mut prev = 0usize;
        for _ in 0..n {
            let gap = rd_len(data, pos, "value-index id gap")?;
            if gap == 0 {
                return Err(corrupt("value-index id gap is zero"));
            }
            prev = prev
                .checked_add(gap)
                .filter(|&id| id < node_count)
                .ok_or(corrupt("value-index node id out of range"))?;
            self.entries.push(NodeId::from_index(prev));
        }
        self.offsets.push(offset(self.entries.len()));
        Ok(())
    }
}

/// Skips a length-prefixed string, returning its length.
fn skip_str(data: &[u8], pos: &mut usize, what: &'static str) -> Result<usize, StorageError> {
    let len = rd_len(data, pos, what)?;
    *pos = pos
        .checked_add(len)
        .filter(|&end| end <= data.len())
        .ok_or(corrupt(what))?;
    Ok(len)
}

/// Skips a count followed by `width` varints per counted item,
/// returning the count.
fn skip_run(
    data: &[u8],
    pos: &mut usize,
    width: usize,
    what: &'static str,
) -> Result<usize, StorageError> {
    let n = rd_len(data, pos, what)?;
    if n > data.len() {
        return Err(corrupt(what));
    }
    // A varint ends at its first byte below 0x80.
    let mut left = n * width;
    while left > 0 {
        let byte = *data.get(*pos).ok_or(corrupt(what))?;
        *pos += 1;
        left -= usize::from(byte < 0x80);
    }
    Ok(n)
}

/// Reads a dictionary's key count, which cannot exceed the bytes left.
fn rd_count(data: &[u8], pos: &mut usize, what: &'static str) -> Result<usize, StorageError> {
    let count = rd_len(data, pos, what)?;
    if count > data.len() {
        return Err(corrupt(what));
    }
    Ok(count)
}

/// The direct text of element `node`, trimmed, when it is one span of
/// the document's character arena: at most one of its text children is
/// non-empty. An exact key equal to it is not stored but read there.
fn arena_text(doc: &Document, node: NodeId) -> Option<&str> {
    let mut texts = doc
        .children(node)
        .filter(|&c| doc.is_text(c))
        .filter_map(|c| match doc.kind(c) {
            NodeKind::Text(t) if !t.is_empty() => Some(t),
            _ => None,
        });
    let text = texts.next().unwrap_or_default();
    texts.next().is_none().then(|| text.trim())
}

/// The number an exact key denotes, if any. "NaN" parses, compares
/// false with every bound and has no place in a sorted list: it is
/// never a range match. The keys are folded, and folding changes no
/// number: `f64` parsing ignores the case of `e`, `inf` and
/// `infinity`, and no non-ASCII text folds into a number.
fn number(key: &str) -> Option<f64> {
    // A number starts with a digit, a sign, a point or an infinity;
    // only those keys are parsed.
    let first = *key.as_bytes().first()?;
    if !matches!(first, b'0'..=b'9' | b'+' | b'-' | b'.' | b'i' | b'I') {
        return None;
    }
    key.parse::<f64>().ok().filter(|n| !n.is_nan())
}

/// Orders the `(number, key rank)` pairs by number, then rank.
fn sort_numbers(numeric: &mut Vec<(f64, u32)>) {
    numeric.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    numeric.shrink_to_fit();
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

    /// The ids in the byte order of their keys.
    fn order(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..offset(self.len())).collect();
        order.sort_unstable_by(|&a, &b| self.key(a).cmp(self.key(b)));
        order
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

/// Each id's rank, from the ids in rank order.
fn ranks(order: &[u32]) -> Vec<u32> {
    let mut rank = vec![0u32; order.len()];
    for (r, &id) in order.iter().enumerate() {
        rank[id as usize] = r as u32;
    }
    rank
}

/// Collects a [`ValueIndex`] element by element, in document order.
#[derive(Default)]
pub(crate) struct ValueIndexBuilder {
    terms: Interner,
    /// `(term id, element)` in arrival order, one per term and element.
    postings: Vec<(u32, NodeId)>,
    /// `(index in postings, tf)` of the postings whose tf is above 1.
    tfs: Vec<(u32, u32)>,
    /// The term ids of the element being added, one per occurrence.
    occurrences: Vec<u32>,
    /// Occurrences per `tag << 32 | term id` in direct text.
    tag_terms: HashMap<u64, u32>,
    values: Interner,
    /// Per value id: true if its key is not its first element's text as
    /// one span of the document's arena, so the index keeps its bytes.
    own: Vec<bool>,
    /// `(value id, element)` in arrival order.
    exact: Vec<(u32, NodeId)>,
    content_elements: usize,
    scratch: String,
}

impl ValueIndexBuilder {
    /// Indexes the direct content of `node`, a `tag` element: its text —
    /// borrowed when it is one span of the document's arena — plus
    /// attribute values.
    pub(crate) fn add_element<'t>(
        &mut self,
        node: NodeId,
        tag: Symbol,
        direct_text: Cow<'_, str>,
        attr_values: impl IntoIterator<Item = &'t str>,
    ) {
        self.occurrences.clear();
        self.add_terms(Some(tag), &direct_text);
        for value in attr_values {
            self.add_terms(None, value);
        }
        // Elements arrive in document order, so each term's postings do
        // too: one per distinct term of this element, its tf the
        // length of the term's run.
        self.occurrences.sort_unstable();
        for run in self.occurrences.chunk_by(|a, b| a == b) {
            self.postings.push((run[0], node));
            if run.len() > 1 {
                let at = offset(self.postings.len() - 1);
                self.tfs.push((at, offset(run.len())));
            }
        }
        let trimmed = direct_text.trim();
        if !trimmed.is_empty() {
            fold_value_into(trimmed, &mut self.scratch);
            let known = self.values.len();
            let id = self.values.intern(&self.scratch);
            if id as usize == known {
                let in_arena = matches!(direct_text, Cow::Borrowed(_));
                self.own.push(!in_arena || self.scratch != trimmed);
            }
            self.exact.push((id, node));
        }
        if !self.occurrences.is_empty() || !trimmed.is_empty() {
            self.content_elements += 1;
        }
    }

    /// Records the terms of `source` as occurrences of the element being
    /// added, and counts them into `tag`'s term counts when it is direct
    /// text.
    fn add_terms(&mut self, tag: Option<Symbol>, source: &str) {
        let (terms, occurrences) = (&mut self.terms, &mut self.occurrences);
        let tag_terms = &mut self.tag_terms;
        visit_terms(source, &mut self.scratch, |term| {
            let id = terms.intern(term);
            occurrences.push(id);
            if let Some(tag) = tag {
                *tag_terms
                    .entry((tag.index() as u64) << 32 | u64::from(id))
                    .or_insert(0) += 1;
            }
        });
    }

    /// Sorts both dictionaries, derives the numeric index from the exact
    /// keys, and lays out the term counts of a document with `tag_count`
    /// tag symbols.
    pub(crate) fn finish(self, tag_count: usize) -> (ValueIndex, TermCounts) {
        let term_order = self.terms.order();
        let term_rank = ranks(&term_order);
        let (mut pending, mut tfs) = (self.tfs.into_iter().peekable(), Vec::new());
        let postings = Lists::gather(&term_rank, &self.postings, |i, at| {
            if let Some((_, tf)) = pending.next_if(|&(j, _)| j as usize == i) {
                tfs.push((at, tf));
            }
        });
        drop(self.postings);
        tfs.sort_unstable();

        let value_order = self.values.order();
        let exact = Lists::gather(&ranks(&value_order), &self.exact, |_, _| {});
        let (own_count, own_bytes) = value_order
            .iter()
            .filter(|&&id| self.own[id as usize])
            .fold((0, 0), |(n, b), &id| (n + 1, b + self.values.key(id).len()));
        let mut own_ranks = Vec::with_capacity(own_count);
        let mut own_keys = Arena::with_capacity(own_count, own_bytes);
        let mut numeric = Vec::new();
        for (rank, &id) in value_order.iter().enumerate() {
            let key = self.values.key(id);
            if self.own[id as usize] {
                own_ranks.push(rank as u32);
                own_keys.push(key);
            }
            numeric.extend(number(key).map(|n| (n, rank as u32)));
        }
        sort_numbers(&mut numeric);

        let values = ValueIndex {
            terms: Arena::of(&self.terms, &term_order),
            postings,
            tfs,
            exact,
            own_ranks,
            own_keys,
            numeric,
            content_elements: self.content_elements,
        };
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

/// Content index over a document. Each fact is held once: a posting is
/// a bare node id, with a term's frequency above 1 in a sparse column
/// beside them; an exact key is its first element's text in the
/// document's arena unless folding changed it; and the numeric index is
/// derived from the exact keys, one entry per distinct number.
#[derive(Clone, Debug, PartialEq)]
pub struct ValueIndex {
    /// The terms in byte order; term `r`'s postings are `postings`' list `r`.
    terms: Arena,
    postings: Lists,
    /// `(index into postings' entries, tf)` of every posting whose tf is
    /// above 1, by index.
    tfs: Vec<(u32, u32)>,
    /// Per exact key in byte order — a [`fold_value`] of a direct text —
    /// its elements.
    exact: Lists,
    /// The ranks of the exact keys that are not their first element's
    /// text, ascending, and those keys.
    own_ranks: Vec<u32>,
    own_keys: Arena,
    /// `(number, exact key rank)` per key that denotes a number, by
    /// number.
    numeric: Vec<(f64, u32)>,
    /// Number of elements carrying any content (the "document count" for IDF).
    content_elements: usize,
}

impl ValueIndex {
    /// Elements whose content contains `term` (case-insensitive, under
    /// [`tokenize`]'s fold).
    pub fn postings(&self, term: &str) -> Postings<'_> {
        let term = fold_term(term);
        let rank = partition_point(self.terms.len(), |r| self.terms.get(r) < &*term);
        match rank < self.terms.len() && self.terms.get(rank) == term {
            true => self.postings_of(rank),
            false => Postings::EMPTY,
        }
    }

    fn postings_of(&self, rank: usize) -> Postings<'_> {
        let span = self.postings.span(rank);
        let first = self
            .tfs
            .partition_point(|&(at, _)| (at as usize) < span.start);
        let len = self.tfs[first..].partition_point(|&(at, _)| (at as usize) < span.end);
        Postings {
            nodes: &self.postings.entries[span.clone()],
            base: span.start,
            tfs: &self.tfs[first..first + len],
        }
    }

    /// Document frequency of `term`.
    pub fn df(&self, term: &str) -> usize {
        self.postings(term).len()
    }

    /// Elements of `doc` — the document this index was built over —
    /// whose direct text equals `value` under [`fold_value`].
    pub fn exact_matches(&self, doc: &Document, value: &str) -> &[NodeId] {
        let value = fold_value(value);
        let len = self.exact.len();
        let rank = partition_point(len, |r| self.exact_key(doc, r) < value.as_str());
        match rank < len && self.exact_key(doc, rank) == value {
            true => self.exact.get(rank),
            false => &[],
        }
    }

    /// Exact key `rank`: its own bytes, or its first element's text.
    fn exact_key<'s>(&'s self, doc: &'s Document, rank: usize) -> &'s str {
        match self.own_ranks.binary_search(&offset(rank)) {
            Ok(i) => self.own_keys.get(i),
            Err(_) => arena_text(doc, self.exact.get(rank)[0]).unwrap_or_default(),
        }
    }

    /// The elements whose direct text is a number in `[low, high]`: the
    /// lists of the exact keys in range, the keys in number order.
    pub fn range_matches(&self, low: f64, high: f64) -> impl Iterator<Item = NodeId> + '_ {
        let from = self.numeric.partition_point(|(v, _)| *v < low);
        let len = self.numeric[from..].partition_point(|(v, _)| *v <= high);
        self.numeric[from..from + len]
            .iter()
            .flat_map(|&(_, rank)| self.exact.get(rank as usize))
            .copied()
    }

    /// Number of elements carrying any content.
    pub fn content_element_count(&self) -> usize {
        self.content_elements
    }

    /// The ranks of the terms that start with `prefix`, byte for byte:
    /// the keys are folded, so a prefix that is not matches nothing.
    pub fn prefix_range(&self, prefix: &str) -> Range<usize> {
        let len = self.terms.len();
        let from = partition_point(len, |r| self.terms.get(r) < prefix);
        let to = partition_point(len, |r| {
            let k = self.terms.get(r);
            k < prefix || k.starts_with(prefix)
        });
        from..to
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// The term of rank `id` in byte order, `id < term_count()`.
    pub fn term(&self, id: usize) -> &str {
        self.terms.get(id)
    }

    /// Iterates over `(term, document frequency)` pairs in byte order of
    /// the terms: the `n`-th pair's term is [`term(n)`](Self::term).
    pub fn terms(&self) -> impl Iterator<Item = (&str, usize)> {
        (0..self.terms.len()).map(|r| (self.terms.get(r), self.postings.span(r).len()))
    }

    /// Serializes the content index for the snapshot `VALUES` section.
    /// Per term in key order: the key, its gap-coded list, and its
    /// frequencies above 1 as `(position, tf)` pairs. Per exact key in
    /// key order: the key — empty when it is its first element's text —
    /// and its gap-coded list. Then the content element count. The
    /// numeric index is derived from the exact keys.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.terms.len() as u64);
        for rank in 0..self.terms.len() {
            put_string(out, self.terms.get(rank));
            self.postings.encode_list(rank, out);
            let postings = self.postings_of(rank);
            put_varint(out, postings.tfs.len() as u64);
            for &(at, tf) in postings.tfs {
                put_varint(out, (at as usize - postings.base) as u64);
                put_varint(out, u64::from(tf));
            }
        }
        put_varint(out, self.exact.len() as u64);
        let mut own = self.own_ranks.iter().zip(0..).peekable();
        for rank in 0..self.exact.len() {
            let key = own.next_if(|&(&r, _)| r as usize == rank);
            put_string(out, key.map_or("", |(_, i)| self.own_keys.get(i)));
            self.exact.encode_list(rank, out);
        }
        put_varint(out, self.content_elements as u64);
    }

    /// Deserializes a content index written by [`encode`](Self::encode)
    /// over `doc`, the decoded document. Every list must be non-empty
    /// with ids strictly increasing below the node count; every
    /// frequency position must increase within its list and every
    /// stored frequency exceed 1; both dictionaries' keys must strictly
    /// increase; and an exact key is stored exactly when it is not its
    /// first element's text, which must then be its own fold. A counting
    /// pass over the bytes sizes every array; the second pass reads into
    /// them.
    pub(crate) fn decode(
        data: &[u8],
        pos: &mut usize,
        doc: &Document,
    ) -> Result<ValueIndex, StorageError> {
        let node_count = doc.node_count();
        let count = rd_count(data, pos, "value-index term count")?;
        let start = *pos;
        let (mut key_bytes, mut entries, mut tf_count) = (0usize, 0usize, 0usize);
        for _ in 0..count {
            key_bytes += skip_str(data, pos, "value-index term key")?;
            entries += skip_run(data, pos, 1, "value-index postings")?;
            tf_count += skip_run(data, pos, 2, "value-index tf count")?;
        }
        if u32::try_from(key_bytes.max(entries)).is_err() {
            return Err(corrupt("value-index term count"));
        }
        *pos = start;
        let mut terms = Arena::with_capacity(count, key_bytes);
        let mut postings = Lists::with_capacity(count, entries);
        let mut tfs = Vec::with_capacity(tf_count);
        for rank in 0..count {
            let key = get_str(data, pos).ok_or(corrupt("value-index term key"))?;
            if rank > 0 && terms.get(rank - 1) >= key {
                return Err(corrupt("value-index term keys not increasing"));
            }
            terms.push(key);
            postings.decode_list(data, pos, node_count)?;
            let list = postings.span(rank);
            let mut next = 0;
            for _ in 0..rd_len(data, pos, "value-index tf count")? {
                let at = rd_len(data, pos, "value-index tf position")?;
                if at < next {
                    return Err(corrupt("value-index tf positions not increasing"));
                }
                if at >= list.len() {
                    return Err(corrupt("value-index tf position past its list"));
                }
                let tf = rd_len(data, pos, "value-index tf")?;
                let tf = u32::try_from(tf)
                    .ok()
                    .filter(|&tf| tf >= 2)
                    .ok_or(corrupt("value-index tf below 2"))?;
                tfs.push((offset(list.start + at), tf));
                next = at + 1;
            }
        }

        let count = rd_count(data, pos, "value-index exact count")?;
        let start = *pos;
        let (mut own_count, mut own_bytes, mut entries) = (0usize, 0usize, 0usize);
        for _ in 0..count {
            let len = skip_str(data, pos, "value-index exact key")?;
            own_count += usize::from(len > 0);
            own_bytes += len;
            entries += skip_run(data, pos, 1, "value-index exact nodes")?;
        }
        if u32::try_from(own_bytes.max(entries)).is_err() {
            return Err(corrupt("value-index exact count"));
        }
        *pos = start;
        let mut exact = Lists::with_capacity(count, entries);
        let mut own_ranks = Vec::with_capacity(own_count);
        let mut own_keys = Arena::with_capacity(own_count, own_bytes);
        // Keys and lists in rank order; an empty key is its first
        // element's text, read next.
        let mut keys: Vec<&str> = Vec::with_capacity(count);
        for rank in 0..count {
            let stored = get_str(data, pos).ok_or(corrupt("value-index exact key"))?;
            exact.decode_list(data, pos, node_count)?;
            if !stored.is_empty() {
                if arena_text(doc, exact.get(rank)[0]) == Some(stored) {
                    return Err(corrupt("value-index exact key stored beside its text"));
                }
                own_ranks.push(offset(rank));
                own_keys.push(stored);
            }
            keys.push(stored);
        }
        // The texts in document order: the first elements sorted by id
        // walk the document's columns and arena forward, where rank
        // order would jump through them.
        let mut firsts: Vec<(NodeId, u32)> = (0..count)
            .filter(|&rank| keys[rank].is_empty())
            .map(|rank| (exact.get(rank)[0], offset(rank)))
            .collect();
        firsts.sort_unstable();
        let mut folded = String::new();
        for (node, rank) in firsts {
            let text = arena_text(doc, node)
                .filter(|t| !t.is_empty())
                .ok_or(corrupt("value-index exact key is no element text"))?;
            if !is_folded(text, &mut folded) {
                return Err(corrupt("value-index exact key not folded"));
            }
            keys[rank as usize] = text;
        }
        let mut numeric = Vec::new();
        for (rank, &key) in keys.iter().enumerate() {
            if rank > 0 && keys[rank - 1] >= key {
                return Err(corrupt("value-index exact keys not increasing"));
            }
            numeric.extend(number(key).map(|n| (n, offset(rank))));
        }
        sort_numbers(&mut numeric);
        let content_elements = rd_len(data, pos, "value-index content elements")?;
        Ok(ValueIndex {
            terms,
            postings,
            tfs,
            exact,
            own_ranks,
            own_keys,
            numeric,
            content_elements,
        })
    }

    /// Heap bytes held, by capacity.
    pub fn size_bytes(&self) -> usize {
        self.terms.size_bytes()
            + self.postings.size_bytes()
            + self.tfs.capacity() * 8
            + self.exact.size_bytes()
            + self.own_ranks.capacity() * 4
            + self.own_keys.size_bytes()
            + self.numeric.capacity() * std::mem::size_of::<(f64, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexedDocument;

    /// An index over one `e` element per `(direct text, attribute values)`
    /// row under a root, and the rows' elements.
    fn index(rows: &[(&str, &[&str])]) -> (IndexedDocument, Vec<NodeId>) {
        let mut doc = Document::new();
        let root = doc.append_element(NodeId::DOCUMENT, "r");
        let mut elements = Vec::new();
        for &(text, attrs) in rows {
            let e = doc.append_element(root, "e");
            for (i, value) in attrs.iter().enumerate() {
                doc.set_attribute(e, &format!("a{i}"), value);
            }
            if !text.is_empty() {
                doc.append_text(e, text);
            }
            elements.push(e);
        }
        (IndexedDocument::build(doc), elements)
    }

    fn round_trip(idx: &IndexedDocument) -> ValueIndex {
        let mut bytes = Vec::new();
        idx.values().encode(&mut bytes);
        let mut pos = 0;
        let back = ValueIndex::decode(&bytes, &mut pos, idx.document()).unwrap();
        assert_eq!(pos, bytes.len());
        back
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
        let (idx, e) = index(&[("xml twig xml", &[]), ("twig", &[])]);
        let xml = idx.values().postings("XML");
        assert_eq!(xml.nodes(), [e[0]]);
        assert_eq!(xml.tf(0), 2);
        assert_eq!(idx.values().df("twig"), 2);
        assert_eq!(idx.values().df("missing"), 0);
    }

    #[test]
    fn a_term_in_text_and_attributes_is_one_posting() {
        let (idx, e) = index(&[("xml", &["XML data", "xml"]), ("data", &[])]);
        let values = idx.values();
        assert_eq!(
            values.postings("xml").iter().collect::<Vec<_>>(),
            [(e[0], 3)]
        );
        let data: Vec<_> = values.postings("data").iter().collect();
        assert_eq!(data, [(e[0], 1), (e[1], 1)]);
    }

    /// Only a frequency above 1 is held, and the sums over a run of
    /// postings add the others as 1 each.
    #[test]
    fn frequencies_above_one_are_the_only_ones_held() {
        let (idx, e) = index(&[("a a a b", &[]), ("a", &[]), ("b a b", &["a"]), ("a", &[])]);
        let values = idx.values();
        assert_eq!(values.tfs.len(), 3, "{:?}", values.tfs);
        let a = values.postings("a");
        assert_eq!(a.nodes(), e);
        assert_eq!(a.iter().map(|(_, tf)| tf).collect::<Vec<_>>(), [3, 1, 2, 1]);
        let mut cursor = 0;
        assert_eq!(a.tf_sum(0..4, &mut cursor), 7);
        assert_eq!(a.tf_sum(1..3, &mut cursor), 3);
        assert_eq!(a.tf_sum(2..2, &mut cursor), 0);
        assert_eq!(a.tf_sum(3..4, &mut cursor), 1);
        assert_eq!(a.tf_sum(0..3, &mut 0), 6);
        assert_eq!(
            values.postings("b").iter().collect::<Vec<_>>(),
            [(e[0], 1), (e[2], 2)]
        );
        assert_eq!(round_trip(&idx), *values);
    }

    #[test]
    fn attribute_values_are_indexed_as_terms() {
        let (idx, _) = index(&[("", &["Morgan Kaufmann"])]);
        assert_eq!(idx.values().df("kaufmann"), 1);
        // But attributes do not create exact text values.
        assert!(idx
            .values()
            .exact_matches(idx.document(), "Morgan Kaufmann")
            .is_empty());
    }

    #[test]
    fn exact_match_is_trimmed_case_insensitive() {
        let (idx, e) = index(&[("  Jiaheng Lu ", &[])]);
        let exact = |v| idx.values().exact_matches(idx.document(), v);
        assert_eq!(exact("jiaheng lu"), &[e[0]]);
        assert_eq!(exact("JIAHENG LU  "), &[e[0]]);
        assert!(exact("jiaheng").is_empty());
    }

    /// A key keeps its own bytes only where it is not its first
    /// element's text: folded, padded, or joined from two text nodes.
    #[test]
    fn a_key_is_stored_only_where_folding_or_joining_changed_the_text() {
        let (mut idx, e) = index(&[
            ("plain", &[]),
            ("Mixed", &[]),
            (" padded ", &[]),
            ("plain", &[]),
            ("mixed", &[]),
        ]);
        let own: Vec<&str> = (0..idx.values().own_keys.len())
            .map(|i| idx.values().own_keys.get(i))
            .collect();
        // A padded text is its key once trimmed: a span of the arena.
        assert_eq!(own, ["mixed"]);
        let exact =
            |idx: &IndexedDocument, v| idx.values().exact_matches(idx.document(), v).to_vec();
        assert_eq!(exact(&idx, "PLAIN"), [e[0], e[3]]);
        assert_eq!(exact(&idx, "mixed"), [e[1], e[4]]);
        assert_eq!(exact(&idx, "padded"), [e[2]]);

        // Two text nodes joined are not one span of the arena: what the
        // parser makes of `<x>two <!--c-->texts</x>`.
        let mut doc = Document::new();
        let root = doc.append_element(NodeId::DOCUMENT, "r");
        let x = doc.append_element(root, "x");
        doc.append_text(x, "two ");
        doc.append_text(x, "texts");
        idx = IndexedDocument::build(doc);
        assert_eq!(idx.values().own_keys.get(0), "two texts");
        assert_eq!(exact(&idx, "two texts"), [x]);
        assert_eq!(round_trip(&idx), *idx.values());
    }

    #[test]
    fn numeric_range_queries() {
        let (idx, e) = index(&[
            ("1999", &[]),
            ("2003", &[]),
            ("2010", &[]),
            ("not a number", &[]),
            ("2003", &[]),
        ]);
        let range = |low, high| idx.values().range_matches(low, high).collect::<Vec<_>>();
        assert_eq!(range(2000.0, 2010.0), [e[1], e[4], e[2]]);
        assert_eq!(range(1999.0, 1999.0), [e[0]]);
        assert!(range(2011.0, 3000.0).is_empty());
        // One entry per distinct number.
        assert_eq!(idx.values().numeric.len(), 3);
    }

    #[test]
    fn nan_is_not_a_number_to_the_range_index_and_infinities_are() {
        let texts = [
            "1", "NaN", "5", "nan", "inf", "-inf", "3", "1E3", "Infinity",
        ];
        let rows: Vec<(&str, &[&str])> = texts.iter().map(|t| (*t, &[][..])).collect();
        let (idx, e) = index(&rows);
        let nodes = |low: f64, high: f64| -> Vec<NodeId> {
            let mut found: Vec<NodeId> = idx.values().range_matches(low, high).collect();
            found.sort();
            found
        };
        assert_eq!(nodes(2.0, f64::INFINITY), [e[2], e[4], e[6], e[7], e[8]]);
        assert_eq!(nodes(f64::NEG_INFINITY, 1.0), [e[0], e[5]]);
        assert_eq!(nodes(1000.0, 1000.0), [e[7]]);
        assert_eq!(nodes(f64::NEG_INFINITY, f64::INFINITY).len(), 7);
        // NaN is still an exact value.
        assert_eq!(
            idx.values().exact_matches(idx.document(), "nan"),
            [e[1], e[3]]
        );
    }

    #[test]
    fn exact_match_folds_non_ascii_case() {
        let (idx, e) = index(&[("Éclair", &[]), ("éclair", &[])]);
        assert_eq!(
            idx.values().exact_matches(idx.document(), "ÉCLAIR"),
            [e[0], e[1]]
        );
        assert_eq!(fold_value("  Éclair "), "éclair");
    }

    /// A word-final capital sigma: terms fold it per character (`σ`),
    /// exact values by `str::to_lowercase` (`ς`), and each lookup must
    /// fold as its keys were folded.
    #[test]
    fn a_word_final_sigma_finds_what_was_indexed() {
        let (idx, e) = index(&[("ΟΔΟΣ", &[])]);
        let values = idx.values();
        assert_eq!(tokenize("ΟΔΟΣ"), ["οδοσ"]);
        assert_eq!(values.df("ΟΔΟΣ"), 1);
        assert_eq!(values.postings("ΟΔΟΣ"), values.postings("οδοσ"));
        assert_eq!(values.exact_matches(idx.document(), "ΟΔΟΣ"), [e[0]]);
        assert_eq!(values.exact_matches(idx.document(), "οδος"), [e[0]]);
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
        let (idx, _) = index(&[("a b c", &[]), ("", &[]), ("d", &[])]);
        let values = idx.values();
        assert_eq!(values.content_element_count(), 2);
        assert_eq!(values.term_count(), 4);
        let terms: Vec<&str> = (0..4).map(|i| values.term(i)).collect();
        assert_eq!(terms, ["a", "b", "c", "d"]);
    }

    fn decode_error(bytes: &[u8], doc: &Document) -> &'static str {
        match ValueIndex::decode(bytes, &mut 0, doc) {
            Err(StorageError::Corrupt(what)) => what,
            other => panic!("expected a Corrupt error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn keys_must_strictly_increase() {
        let (idx, _) = index(&[("B", &[]), ("A", &[])]);
        let doc = idx.document();
        let mut bytes = Vec::new();
        idx.values().encode(&mut bytes);
        assert!(ValueIndex::decode(&bytes, &mut 0, doc).is_ok());
        // Term keys: "a", "b" → "b", "b"; then the exact keys, stored
        // because folding changed them, likewise.
        let mut terms_swapped = bytes.clone();
        let first_key = bytes.iter().position(|&b| b == b'a').unwrap();
        terms_swapped[first_key] = b'b';
        assert_eq!(
            decode_error(&terms_swapped, doc),
            "value-index term keys not increasing"
        );
        let mut exact_swapped = bytes.clone();
        let exact_key = bytes.iter().rposition(|&b| b == b'a').unwrap();
        exact_swapped[exact_key] = b'b';
        assert_eq!(
            decode_error(&exact_swapped, doc),
            "value-index exact keys not increasing"
        );
    }
}
