//! Struct-of-arrays region-label columns: the one stream representation.
//!
//! A join touches one field of a region label at a time — a skip loop
//! compares only `start`s, a containment check only `end`s — so an array
//! of `(node, start, end, level)` records drags the unused fields through
//! the cache with every probe. [`TagColumns`] therefore holds every tag's
//! document-ordered element stream as four contiguous per-tag arrays
//! (`starts`, `ends`, `levels`, `nodes`), packed back-to-back in one arena
//! per column so a stream scan is a pure sequential read at memory
//! bandwidth. Nothing else in the index stores a per-tag stream.
//!
//! One skip primitive rides on top: `starts` is strictly increasing within
//! a stream (document order), so "first element starting at or after X"
//! is a gallop — exponential probe then binary search, O(log distance).
//! `ends` is **not** monotonic (recursive elements nest: a child's end
//! precedes its parent's even though its start follows), so the structural
//! join never searches it: on a descendant edge it walks parents linearly
//! and keeps the open ones on a stack.
//!
//! A child edge needs no search at all. Every tag-stream element carries
//! one derived `u32`, its *parent slot*: its parent's position in the
//! parent's own tag stream. The join gathers a child's parent through
//! it. The column is derived at build and at load from one
//! document-order pass and never stored in a snapshot. It costs 4 B per
//! element. The all-elements stream has no such column: a `*` endpoint
//! would need a second one.

use crate::wire::{
    corrupt, get_u16_slice, get_u32_slice, put_u16_slice, put_u32_slice, put_varint, rd_len,
    StorageError,
};
use lotusx_labeling::{DocumentLabels, RegionLabel};
use lotusx_xml::{Document, NodeId, Symbol};

/// Per-stream extent of one tag inside the column arenas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct StreamRange {
    /// Offset into the `starts`/`ends`/`levels`/`nodes` arenas.
    offset: u32,
    /// Number of elements.
    len: u32,
}

impl StreamRange {
    /// This stream's part of `arena`.
    fn of<T>(self, arena: &[T]) -> &[T] {
        &arena[self.offset as usize..(self.offset + self.len) as usize]
    }
}

/// The parent slot of the document's root element, whose parent is no
/// element; also what a filtered stream's kept map holds for a dropped
/// position. Larger than any stream position.
pub const NO_SLOT: u32 = u32::MAX;

/// Every tag's element stream in columnar (struct-of-arrays) form, plus
/// one extra pseudo-stream covering all elements in document order (what
/// wildcard query nodes scan). Immutable once built.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TagColumns {
    starts: Vec<u32>,
    ends: Vec<u32>,
    levels: Vec<u16>,
    nodes: Vec<NodeId>,
    /// Per tag-stream slot (the arenas' first half; the all-elements
    /// stream has none): the element's parent's position in the parent's
    /// own tag stream, or [`NO_SLOT`]. Derived, never serialized.
    parent_slots: Vec<u32>,
    /// Per-tag extents; index = symbol index.
    ranges: Vec<StreamRange>,
    /// Extent of the all-elements pseudo-stream.
    all_range: StreamRange,
    /// Derived from `nodes`: node ids ascend along every stream.
    ids_ascend: bool,
}

impl TagColumns {
    /// Builds the columns of `doc`. `elements` — every element, in
    /// document order — is counting-sorted by tag straight into the
    /// arenas (the sort is stable, so each stream stays in document
    /// order): the tag streams in symbol order, then the all-elements
    /// pseudo-stream.
    pub fn build(doc: &Document, labels: &DocumentLabels, elements: &[NodeId]) -> Self {
        let tag_of = |node: NodeId| doc.tag(node).expect("element").index();
        let mut lens = vec![0u32; doc.symbols().len()];
        for &node in elements {
            lens[tag_of(node)] += 1;
        }
        lens.push(elements.len() as u32);
        let total = 2 * elements.len();
        let mut cols = TagColumns {
            starts: vec![0; total],
            ends: vec![0; total],
            levels: vec![0; total],
            nodes: vec![NodeId::DOCUMENT; total],
            ..TagColumns::default()
        };
        cols.lay_out(&lens);
        // `next[t]` is the arena slot of tag `t`'s next element.
        let mut next: Vec<u32> = cols.ranges.iter().map(|r| r.offset).collect();
        let all = cols.all_range.offset as usize;
        for (i, &node) in elements.iter().enumerate() {
            let region = labels.region(node);
            let slot = &mut next[tag_of(node)];
            for at in [*slot as usize, all + i] {
                cols.starts[at] = region.start;
                cols.ends[at] = region.end;
                cols.levels[at] = region.level;
                cols.nodes[at] = node;
            }
            *slot += 1;
        }
        cols.derive_parent_slots(|node| doc.tag(node))
            .expect("streams built from the document agree with it");
        cols.derive_id_order();
        cols
    }

    /// Derives `parent_slots` from the filled arenas — the last-but-one
    /// step of both a fresh build and a snapshot load — in one pass over
    /// the all-elements stream, which is in document order. An element's
    /// parent is the last element seen one level up, so a stack holding
    /// per open level that element's tag-stream position names every
    /// parent. `tag_of` names each element's stream, which is walked
    /// alongside, and each step checks that both streams hold the same
    /// element: a snapshot whose streams disagree with its tags is
    /// corrupt.
    fn derive_parent_slots(
        &mut self,
        tag_of: impl Fn(NodeId) -> Option<Symbol>,
    ) -> Result<(), StorageError> {
        let all = self.all_range;
        self.parent_slots = vec![NO_SLOT; all.offset as usize];
        // `next[t]`: how many of tag `t`'s elements the pass has met.
        let mut next = vec![0u32; self.ranges.len()];
        // `open[l]`: the tag-stream position of the open element at level
        // `l`; level 0 is the document, which no stream holds.
        let mut open = vec![NO_SLOT];
        for (&node, &level) in all.of(&self.nodes).iter().zip(all.of(&self.levels)) {
            let level = usize::from(level);
            if level == 0 || level > open.len() {
                return Err(corrupt("column element without a parent level"));
            }
            open.truncate(level);
            let tag = tag_of(node).map(Symbol::index);
            let (Some(range), Some(pos)) = (
                tag.and_then(|t| self.ranges.get(t)),
                tag.and_then(|t| next.get_mut(t)),
            ) else {
                return Err(corrupt("column element without a tag stream"));
            };
            let slot = (range.offset + *pos) as usize;
            if *pos >= range.len || self.nodes[slot] != node {
                return Err(corrupt("tag stream disagrees with the all-elements stream"));
            }
            self.parent_slots[slot] = open[level - 1];
            open.push(*pos);
            *pos += 1;
        }
        if next.iter().zip(&self.ranges).any(|(&met, r)| met != r.len) {
            return Err(corrupt("tag stream disagrees with the all-elements stream"));
        }
        Ok(())
    }

    /// Sets the stream extents from `lens` — one length per tag, then the
    /// all-elements stream's — laid back to back from arena offset 0.
    fn lay_out(&mut self, lens: &[u32]) {
        let mut offset = 0u32;
        self.ranges = lens
            .iter()
            .map(|&len| {
                let range = StreamRange { offset, len };
                offset += len;
                range
            })
            .collect();
        self.all_range = self.ranges.pop().expect("lens ends with the all stream");
    }

    /// Sets `ids_ascend` from the filled `nodes` arena — the last step of
    /// both a fresh build and a snapshot load. The all-elements stream
    /// holds every element in document order, so it decides for all.
    fn derive_id_order(&mut self) {
        let all = self.all_elements().nodes();
        self.ids_ascend = all.windows(2).all(|w| w[0] < w[1]);
    }

    /// True when node ids ascend with document order, so that a stream
    /// scanned front to back yields ascending ids. Holds for every parsed
    /// or snapshot-loaded document (ids are assigned in preorder); a
    /// document assembled through the tree API may append a child to an
    /// element that already has a following sibling, and then it does not.
    pub fn ids_ascend(&self) -> bool {
        self.ids_ascend
    }

    /// The columns of one tag's stream, parent slots included (empty view
    /// for unseen symbols).
    pub fn view(&self, tag: Symbol) -> ColumnView<'_> {
        match self.ranges.get(tag.index()) {
            Some(&range) => ColumnView {
                parent_slots: range.of(&self.parent_slots),
                ..self.slice(range)
            },
            None => ColumnView::empty(),
        }
    }

    /// The columns of the all-elements pseudo-stream (no parent slots).
    pub fn all_elements(&self) -> ColumnView<'_> {
        self.slice(self.all_range)
    }

    fn slice(&self, r: StreamRange) -> ColumnView<'_> {
        ColumnView {
            starts: r.of(&self.starts),
            ends: r.of(&self.ends),
            levels: r.of(&self.levels),
            nodes: r.of(&self.nodes),
            parent_slots: &[],
        }
    }

    /// Approximate heap size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.starts.capacity() * 4
            + self.ends.capacity() * 4
            + self.levels.capacity() * 2
            + self.nodes.capacity() * std::mem::size_of::<NodeId>()
            + self.parent_slots.capacity() * 4
            + self.ranges.capacity() * std::mem::size_of::<StreamRange>()
    }

    /// Serializes the arenas and stream lengths for the snapshot
    /// `COLUMNS` section. Node ids are written through `node_map` (old id
    /// → canonical preorder id) so the decoded columns reference the
    /// decoded document's ids.
    pub(crate) fn encode(&self, node_map: &[u32], out: &mut Vec<u8>) {
        put_varint(out, self.starts.len() as u64);
        put_u32_slice(out, &self.starts);
        put_u32_slice(out, &self.ends);
        put_u16_slice(out, &self.levels);
        out.reserve(self.nodes.len() * 4);
        for &n in &self.nodes {
            out.extend_from_slice(&node_map[n.index()].to_le_bytes());
        }
        put_varint(out, self.ranges.len() as u64);
        for r in self.ranges.iter().chain([&self.all_range]) {
            put_varint(out, r.len as u64);
        }
    }

    /// Deserializes arenas written by [`encode`](Self::encode) — a bulk
    /// read straight into the struct-of-arrays layout. Validates every
    /// invariant the join loops rely on: node
    /// ids within the document, stream lengths that tile the arenas
    /// exactly, per-element `start < end`, strictly increasing `starts`
    /// within each stream (document order), and tag streams that hold
    /// exactly the elements `tag_of` gives their tag — which the parent
    /// slots, derived here, rely on. `tag_of` is called only with ids
    /// below `node_count`.
    pub(crate) fn decode(
        data: &[u8],
        pos: &mut usize,
        node_count: usize,
        tag_of: impl Fn(NodeId) -> Option<Symbol>,
    ) -> Result<TagColumns, StorageError> {
        let n = rd_len(data, pos, "columns length")?;
        if n > u32::MAX as usize {
            return Err(corrupt("columns length exceeds u32"));
        }
        let starts = get_u32_slice(data, pos, n, "columns starts")?;
        let ends = get_u32_slice(data, pos, n, "columns ends")?;
        let levels = get_u16_slice(data, pos, n, "columns levels")?;
        let raw_nodes = get_u32_slice(data, pos, n, "columns nodes")?;
        let mut nodes = Vec::with_capacity(n);
        for v in raw_nodes {
            if v as usize >= node_count {
                return Err(corrupt("columns node id out of range"));
            }
            nodes.push(NodeId::from_index(v as usize));
        }
        let range_count = rd_len(data, pos, "columns range count")?;
        if range_count > data.len() {
            return Err(corrupt("columns range count"));
        }
        let mut lens = Vec::with_capacity(range_count + 1);
        let mut a = 0usize;
        for _ in 0..range_count + 1 {
            let len = rd_len(data, pos, "range length")?;
            let b = a
                .checked_add(len)
                .filter(|&b| b <= n)
                .ok_or(corrupt("range exceeds column arenas"))?;
            for i in a..b {
                if starts[i] >= ends[i] {
                    return Err(corrupt("column element with start >= end"));
                }
                if i > a && starts[i - 1] >= starts[i] {
                    return Err(corrupt("column stream not in document order"));
                }
            }
            lens.push(len as u32);
            a = b;
        }
        if a != n {
            return Err(corrupt("column arenas longer than their streams"));
        }
        let mut cols = TagColumns {
            starts,
            ends,
            levels,
            nodes,
            ..TagColumns::default()
        };
        cols.lay_out(&lens);
        cols.derive_parent_slots(tag_of)?;
        cols.derive_id_order();
        Ok(cols)
    }
}

/// Owned columnar form of an ad-hoc stream (a predicate-filtered stream the
/// index does not hold). Same layout as one [`TagColumns`] range.
#[derive(Clone, Debug, Default)]
pub struct OwnedColumns {
    starts: Vec<u32>,
    ends: Vec<u32>,
    levels: Vec<u16>,
    nodes: Vec<NodeId>,
    /// The kept elements' parent slots, when the base stream has them.
    parent_slots: Vec<u32>,
    /// Per base-stream position: its position here, or [`NO_SLOT`] when
    /// the filter dropped it. Empty unless the base is a tag stream.
    kept: Vec<u32>,
}

impl OwnedColumns {
    /// The columns of `elements`, which must come in document order, with
    /// no parent slots. An iterator that knows its length costs one
    /// allocation per column.
    pub fn from_elements(elements: impl IntoIterator<Item = (NodeId, RegionLabel)>) -> Self {
        let elements = elements.into_iter();
        let mut cols = OwnedColumns::with_capacity(elements.size_hint().0);
        elements.for_each(|element| cols.push(element));
        cols
    }

    fn with_capacity(n: usize) -> Self {
        OwnedColumns {
            starts: Vec::with_capacity(n),
            ends: Vec::with_capacity(n),
            levels: Vec::with_capacity(n),
            nodes: Vec::with_capacity(n),
            ..OwnedColumns::default()
        }
    }

    fn push(&mut self, (node, region): (NodeId, RegionLabel)) {
        debug_assert!(
            self.starts.last().is_none_or(|&s| s < region.start),
            "columns must be built in document order"
        );
        self.starts.push(region.start);
        self.ends.push(region.end);
        self.levels.push(region.level);
        self.nodes.push(node);
    }

    /// The elements of `base` at the positions `keep` accepts (asked once
    /// each, in order). From a tag stream the result carries the kept
    /// elements' parent slots and the map from base positions to kept
    /// ones, so a child edge gathers into or out of it as it would with
    /// the base. The map comes first and is sized once, so that every
    /// column is then allocated once, at its final size.
    pub fn filter(base: ColumnView<'_>, mut keep: impl FnMut(usize) -> bool) -> Self {
        let mut kept = vec![NO_SLOT; base.len()];
        let mut len = 0;
        for (i, k) in kept.iter_mut().enumerate() {
            if keep(i) {
                *k = len;
                len += 1;
            }
        }
        let mut cols = OwnedColumns::with_capacity(len as usize);
        let from_tag = !base.parent_slots.is_empty();
        if from_tag {
            cols.parent_slots.reserve_exact(len as usize);
        }
        for (i, _) in kept.iter().enumerate().filter(|(_, &k)| k != NO_SLOT) {
            cols.push(base.element(i));
            if from_tag {
                cols.parent_slots.push(base.parent_slots[i]);
            }
        }
        if from_tag {
            cols.kept = kept;
        }
        cols
    }

    /// A borrowed view of the columns.
    pub fn view(&self) -> ColumnView<'_> {
        ColumnView {
            starts: &self.starts,
            ends: &self.ends,
            levels: &self.levels,
            nodes: &self.nodes,
            parent_slots: &self.parent_slots,
        }
    }

    /// Per position of the tag stream this was filtered from: the position
    /// here, or [`NO_SLOT`]. Empty when the base was not a tag stream.
    pub fn kept(&self) -> &[u32] {
        &self.kept
    }
}

/// Borrowed column slices of one stream — the unit the join algorithms
/// scan. Copy-cheap (five fat pointers).
#[derive(Clone, Copy, Debug)]
pub struct ColumnView<'a> {
    starts: &'a [u32],
    ends: &'a [u32],
    levels: &'a [u16],
    nodes: &'a [NodeId],
    parent_slots: &'a [u32],
}

impl<'a> ColumnView<'a> {
    /// The empty stream.
    pub fn empty() -> Self {
        ColumnView {
            starts: &[],
            ends: &[],
            levels: &[],
            nodes: &[],
            parent_slots: &[],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when the stream has no elements.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Region starts column.
    pub fn starts(&self) -> &'a [u32] {
        self.starts
    }

    /// Region ends column.
    pub fn ends(&self) -> &'a [u32] {
        self.ends
    }

    /// Region levels column.
    pub fn levels(&self) -> &'a [u16] {
        self.levels
    }

    /// Node ids column.
    pub fn nodes(&self) -> &'a [NodeId] {
        self.nodes
    }

    /// Parent slots column: per element, its parent's position in the
    /// parent's own tag stream ([`NO_SLOT`] for the root element). Empty
    /// for the all-elements stream and the streams filtered from it.
    pub fn parent_slots(&self) -> &'a [u32] {
        self.parent_slots
    }

    /// The `i`-th element: its node and region label.
    pub fn element(&self, i: usize) -> (NodeId, RegionLabel) {
        let region = RegionLabel::new(self.starts[i], self.ends[i], self.levels[i]);
        (self.nodes[i], region)
    }

    /// First position `>= from` with `starts[pos] >= start` (the stream's
    /// length when there is none), galloping: O(log distance).
    pub fn first_start_at_least(&self, from: usize, start: u32) -> usize {
        gallop(self.starts, from, start)
    }
}

/// First index `>= from` with `column[index] >= target`, by exponential
/// probe then binary search within the bracketed window. `column` must be
/// non-decreasing from `from` onward. O(log distance) — a skip over a few
/// elements costs a couple of probes, a skip over a million costs ~40.
fn gallop(column: &[u32], from: usize, target: u32) -> usize {
    let n = column.len();
    if from >= n || column[from] >= target {
        return from.min(n);
    }
    let mut step = 1usize;
    let mut lo = from; // greatest index known to hold a value < target
    while let Some(&v) = column.get(from + step) {
        if v >= target {
            break;
        }
        lo = from + step;
        step *= 2;
    }
    let hi = (from + step + 1).min(n);
    lo + 1 + column[lo + 1..hi].partition_point(|&v| v < target)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn element(node: u32, start: u32, end: u32, level: u16) -> (NodeId, RegionLabel) {
        (
            NodeId::from_index(node as usize),
            RegionLabel::new(start, end, level),
        )
    }

    /// A recursive-nesting shape: ends are NOT monotonic.
    fn nested() -> Vec<(NodeId, RegionLabel)> {
        vec![
            element(0, 1, 100, 1),
            element(1, 2, 40, 2),
            element(2, 3, 10, 3),
            element(3, 12, 30, 3),
            element(4, 50, 60, 2),
            element(5, 70, 71, 2),
        ]
    }

    #[test]
    fn owned_columns_round_trip_elements() {
        let elements = nested();
        let cols = OwnedColumns::from_elements(elements.iter().copied());
        let view = cols.view();
        assert_eq!(view.len(), elements.len());
        for (i, e) in elements.iter().enumerate() {
            assert_eq!(view.element(i), *e);
        }
    }

    /// A filtered tag stream keeps its elements' parent slots and maps
    /// every base position to its kept one; one filtered from the
    /// all-elements stream has neither.
    #[test]
    fn filtered_streams_carry_parent_slots_and_the_kept_map() {
        let idx = crate::IndexedDocument::from_str("<r><s><s/><s><s/></s></s><s/></r>").unwrap();
        let s = idx.document().symbols().get("s").unwrap();
        let base = idx.columns().view(s);
        assert_eq!(base.parent_slots(), [0, 0, 0, 2, 0]);
        let odd = OwnedColumns::filter(base, |i| i % 2 == 1);
        assert_eq!(odd.view().nodes(), [base.nodes()[1], base.nodes()[3]]);
        assert_eq!(odd.view().parent_slots(), [0, 2]);
        assert_eq!(odd.kept(), [NO_SLOT, 0, NO_SLOT, 1, NO_SLOT]);
        let all = OwnedColumns::filter(idx.columns().all_elements(), |i| i > 0);
        assert_eq!(all.view().len(), 5);
        assert!(all.view().parent_slots().is_empty() && all.kept().is_empty());
    }

    /// Columns built from a document equal a per-tag scan of that
    /// document, and equal themselves — arenas, ranges and the derived
    /// id-order flag — after a snapshot round trip.
    #[test]
    fn tag_columns_equal_a_document_scan_and_survive_the_codec() {
        let idx = crate::IndexedDocument::from_str(
            "<s><s><t/><s k=\"1\"><t>x</t></s></s><t/><u>y<t/></u><s/></s>",
        )
        .unwrap();
        let (doc, labels, cols) = (idx.document(), idx.labels(), idx.columns());
        let scan = |keep: &dyn Fn(NodeId) -> bool| -> Vec<(NodeId, RegionLabel)> {
            doc.all_nodes()
                .filter(|&n| doc.is_element(n) && keep(n))
                .map(|n| (n, labels.region(n)))
                .collect()
        };
        let elements = |view: ColumnView<'_>| -> Vec<(NodeId, RegionLabel)> {
            (0..view.len()).map(|i| view.element(i)).collect()
        };
        for (sym, name) in doc.symbols().iter() {
            let expect = scan(&|n| doc.tag(n) == Some(sym));
            assert_eq!(elements(cols.view(sym)), expect, "tag {name}");
        }
        // `k` is an attribute name: a symbol no element carries.
        assert!(cols.view(doc.symbols().get("k").unwrap()).is_empty());
        assert!(cols.view(Symbol::from_index(99)).is_empty());
        assert_eq!(elements(cols.all_elements()), scan(&|_| true));
        assert!(cols.size_bytes() > 0);
        assert!(cols.ids_ascend(), "a parsed document numbers in preorder");
        assert_parent_slots_name_parents(&idx);

        let identity: Vec<u32> = (0..doc.node_count() as u32).collect();
        let mut bytes = Vec::new();
        cols.encode(&identity, &mut bytes);
        let mut pos = 0;
        let back = TagColumns::decode(&bytes, &mut pos, doc.node_count(), |n| doc.tag(n)).unwrap();
        assert_eq!(pos, bytes.len());
        assert_eq!(&back, cols);
    }

    /// Every tag-stream element's parent slot names its parent's position
    /// in the parent's tag stream, looked up the slow way; the
    /// all-elements stream has no slots.
    fn assert_parent_slots_name_parents(idx: &crate::IndexedDocument) {
        let (doc, cols) = (idx.document(), idx.columns());
        let position = |node: NodeId| {
            let stream = cols.view(doc.tag(node)?).nodes();
            Some(
                stream
                    .iter()
                    .position(|&n| n == node)
                    .expect("in its stream") as u32,
            )
        };
        for (sym, name) in doc.symbols().iter() {
            let view = cols.view(sym);
            assert_eq!(view.parent_slots().len(), view.len(), "<{name}>");
            for (&node, &slot) in view.nodes().iter().zip(view.parent_slots()) {
                let parent = doc.parent(node).expect("elements have parents");
                assert_eq!(slot, position(parent).unwrap_or(NO_SLOT), "<{name}>");
            }
        }
        assert!(cols.all_elements().parent_slots().is_empty());
    }

    /// A tree assembled out of document order (a child appended to an
    /// element that already has a following sibling) has streams whose
    /// ids do not ascend, and the flag says so; the parent slots still
    /// follow document order.
    #[test]
    fn id_order_flag_sees_out_of_order_construction() {
        let mut doc = Document::new();
        let root = doc.append_element(NodeId::DOCUMENT, "r");
        let first = doc.append_element(root, "a");
        let second = doc.append_element(root, "a");
        doc.append_element(first, "b");
        doc.append_element(second, "a");
        let idx = crate::IndexedDocument::build(doc);
        assert!(!idx.columns().ids_ascend());
        assert_parent_slots_name_parents(&idx);
        // Document order: r, a(first) [b], a(second) [a]. The nested `a`
        // is a child of the `a` stream's second element.
        let a = idx.document().symbols().get("a").unwrap();
        assert_eq!(idx.columns().view(a).parent_slots(), [0, 0, 1]);
    }

    /// Columns decoded against tags that disagree with their streams are
    /// corrupt: the parent slots would name wrong elements.
    #[test]
    fn decode_rejects_streams_that_disagree_with_their_tags() {
        let idx = crate::IndexedDocument::from_str("<a><b/><b/></a>").unwrap();
        let identity: Vec<u32> = (0..idx.document().node_count() as u32).collect();
        let mut bytes = Vec::new();
        idx.columns().encode(&identity, &mut bytes);
        let other = Document::parse_str("<a><c/><b/></a>").unwrap();
        let got = TagColumns::decode(&bytes, &mut 0, other.node_count(), |n| other.tag(n));
        assert!(matches!(got, Err(StorageError::Corrupt(_))));
    }

    /// A payload whose stream lengths do not tile the arenas exactly is
    /// corrupt, whichever way it is off.
    #[test]
    fn decode_rejects_stream_lengths_that_do_not_tile_the_arenas() {
        let idx = crate::IndexedDocument::from_str("<a><b/><b/></a>").unwrap();
        let identity: Vec<u32> = (0..idx.document().node_count() as u32).collect();
        let mut good = Vec::new();
        idx.columns().encode(&identity, &mut good);
        // The payload ends with the all-elements stream's length (3).
        assert_eq!(good.last(), Some(&3));
        for last in [2u8, 4] {
            let mut bad = good.clone();
            *bad.last_mut().unwrap() = last;
            let doc = idx.document();
            let got = TagColumns::decode(&bad, &mut 0, doc.node_count(), |n| doc.tag(n));
            assert!(matches!(got, Err(StorageError::Corrupt(_))), "{last}");
        }
    }

    #[test]
    fn gallop_matches_linear_scan() {
        let column: Vec<u32> = vec![1, 3, 3, 7, 9, 9, 9, 20, 21, 40];
        for from in 0..=column.len() {
            for target in 0..45 {
                let expect = (from..column.len())
                    .find(|&i| column[i] >= target)
                    .unwrap_or(column.len());
                assert_eq!(
                    gallop(&column, from, target),
                    expect,
                    "from={from} target={target}"
                );
            }
        }
    }

    #[test]
    fn start_seeks_and_the_empty_view() {
        let cols = OwnedColumns::from_elements(nested());
        let view = cols.view();
        assert_eq!(view.first_start_at_least(0, 49), 4);
        assert_eq!(view.first_start_at_least(4, 49), 4);
        assert_eq!(view.first_start_at_least(0, u32::MAX), view.len());
        let empty = ColumnView::empty();
        assert!(empty.is_empty());
        assert_eq!(empty.first_start_at_least(0, 5), 0);
    }
}
