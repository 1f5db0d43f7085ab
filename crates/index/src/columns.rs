//! Struct-of-arrays region-label columns: the one stream representation,
//! and the one place an element's region is stored.
//!
//! A join touches one field of a region label at a time — a skip loop
//! compares only `start`s, a containment check only `end`s — so an array
//! of `(node, start, end, level)` records drags the unused fields through
//! the cache with every probe. [`TagColumns`] therefore holds every tag's
//! document-ordered element stream as four contiguous per-tag arrays
//! (`starts`, `ends`, `levels`, `nodes`), packed back-to-back in one arena
//! per column so a stream scan is a pure sequential read at memory
//! bandwidth. Nothing else in the index stores a per-tag stream or a
//! region: a node's region is read through its *position*, its slot in
//! the arenas, which a per-node map derived at build and at load holds
//! ([`NO_SLOT`] for non-elements).
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
//! one derived `u32`, its *parent slot*: its parent's arena slot, the
//! number [`TagColumns::position`] gives the parent. The streams lie back
//! to back in the arenas, so a parent slot inside stream `P`'s extent
//! says the parent has tag `P`, and its distance from the extent's start
//! is the parent's place in that stream: one subtraction and one compare
//! ([`ColumnView::arena_offset`]). The join gathers a child's parent
//! through it. The column is derived at build and at load in the same
//! document-order pass as the position map and never stored in a
//! snapshot. It costs 4 B per element.
//!
//! The all-elements stream that `*` query nodes scan is not held beside
//! the tag streams: [`TagColumns::all_elements`] gathers it from them
//! through the position map the first time a query asks, and keeps it.

use crate::wire::{corrupt, get_u16_slice, get_u32_slice, put_u16_slice, put_u32_slice};
use crate::wire::{put_varint, rd_len, StorageError};
use lotusx_labeling::RegionLabel;
use lotusx_xml::{Document, NodeId, Symbol};
use std::sync::OnceLock;

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

    fn contains(self, slot: u32) -> bool {
        slot.wrapping_sub(self.offset) < self.len
    }
}

/// The position of a node that is no element, the parent slot of the
/// document's root element, whose parent is no element, and the arena
/// offset of a stream the arenas do not hold. Past every arena slot, so
/// no stream's extent contains it.
pub const NO_SLOT: u32 = u32::MAX;

/// Every tag's element stream in columnar (struct-of-arrays) form, with
/// the per-node position map into it. Immutable once built, but for the
/// all-elements stream, built on first use.
#[derive(Clone, Debug, Default)]
pub struct TagColumns {
    starts: Vec<u32>,
    ends: Vec<u32>,
    levels: Vec<u16>,
    nodes: Vec<NodeId>,
    /// Per arena slot: the arena slot of the element's parent, or
    /// [`NO_SLOT`] for the root element. Derived, never serialized.
    parent_slots: Vec<u32>,
    /// Per node, by id: its arena slot, or [`NO_SLOT`] for a node that is
    /// no element. Derived, never serialized.
    positions: Vec<u32>,
    /// Per-tag extents; index = symbol index.
    ranges: Vec<StreamRange>,
    /// Derived: node ids ascend with document order.
    ids_ascend: bool,
    /// Every element in document order, gathered on the first call to
    /// [`all_elements`](Self::all_elements).
    all: OnceLock<OwnedColumns>,
}

/// Equal streams, positions and derived columns; whether either side has
/// gathered its all-elements stream yet does not count.
impl PartialEq for TagColumns {
    fn eq(&self, other: &Self) -> bool {
        self.starts == other.starts
            && self.ends == other.ends
            && self.levels == other.levels
            && self.nodes == other.nodes
            && self.parent_slots == other.parent_slots
            && self.positions == other.positions
            && self.ranges == other.ranges
            && self.ids_ascend == other.ids_ascend
    }
}

impl Eq for TagColumns {}

impl TagColumns {
    /// Builds the columns of `doc`, whose elements number `lens[t]` for
    /// each tag symbol `t`, in one enter/exit walk in document order. The
    /// walk numbers every node's enter and exit, text included, as
    /// `DocumentLabels` does, and writes each element's region, node,
    /// position and parent slot straight into its tag's next arena slot,
    /// so every stream comes out in document order.
    pub fn build(doc: &Document, lens: &[u32]) -> Self {
        let total: usize = lens.iter().map(|&len| len as usize).sum();
        let mut cols = TagColumns {
            starts: vec![0; total],
            ends: vec![0; total],
            levels: vec![0; total],
            nodes: vec![NodeId::DOCUMENT; total],
            parent_slots: vec![NO_SLOT; total],
            positions: vec![NO_SLOT; doc.node_count()],
            ids_ascend: true,
            ..TagColumns::default()
        };
        cols.lay_out(lens);
        // `next[t]` is the arena slot of tag `t`'s next element.
        let mut next: Vec<u32> = cols.ranges.iter().map(|r| r.offset).collect();
        // The nodes entered and not yet exited, the document first, each
        // with its arena slot ([`NO_SLOT`] for nodes that are no element).
        let mut open = vec![(NodeId::DOCUMENT, NO_SLOT)];
        let mut last_element = None;
        // The document's enter is number 1.
        let mut counter = 1u32;
        let mut cursor = doc.first_child(NodeId::DOCUMENT);
        loop {
            let Some(node) = cursor else {
                // The innermost open node has no more children: exit it.
                let (node, slot) = open.pop().expect("the document is open");
                if node == NodeId::DOCUMENT {
                    break;
                }
                counter += 1;
                if slot != NO_SLOT {
                    cols.ends[slot as usize] = counter;
                }
                cursor = doc.next_sibling(node);
                continue;
            };
            counter += 1;
            let slot = match doc.tag(node) {
                Some(tag) => {
                    let t = tag.index();
                    let slot = next[t];
                    next[t] += 1;
                    let at = slot as usize;
                    cols.starts[at] = counter;
                    cols.levels[at] = open.len() as u16;
                    cols.nodes[at] = node;
                    cols.parent_slots[at] = open.last().expect("the document is open").1;
                    cols.positions[node.index()] = slot;
                    cols.ids_ascend &= last_element < Some(node);
                    last_element = Some(node);
                    slot
                }
                None => NO_SLOT,
            };
            open.push((node, slot));
            cursor = doc.first_child(node);
        }
        cols
    }

    /// Sets the stream extents from `lens`, one length per tag, laid back
    /// to back from arena offset 0.
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
    }

    /// True when node ids ascend with document order, so that a stream
    /// scanned front to back yields ascending ids. Holds for every parsed
    /// or snapshot-loaded document (ids are assigned in preorder); a
    /// document assembled through the tree API may append a child to an
    /// element that already has a following sibling, and then it does not.
    pub fn ids_ascend(&self) -> bool {
        self.ids_ascend
    }

    /// The arena position of `node`: its slot in its tag stream's columns,
    /// or [`NO_SLOT`] when it is no element.
    pub fn position(&self, node: NodeId) -> u32 {
        self.positions[node.index()]
    }

    /// The region label of element `node`, read from its tag stream.
    /// Panics when `node` is no element.
    pub fn region(&self, node: NodeId) -> RegionLabel {
        self.region_at(self.positions[node.index()] as usize)
    }

    fn region_at(&self, at: usize) -> RegionLabel {
        RegionLabel::new(self.starts[at], self.ends[at], self.levels[at])
    }

    /// The region start of element `node`, its document-order key.
    /// Panics when `node` is no element.
    pub fn start(&self, node: NodeId) -> u32 {
        self.starts[self.positions[node.index()] as usize]
    }

    /// The level of element `node` (the root element's is 1). Panics when
    /// `node` is no element.
    pub fn level(&self, node: NodeId) -> u16 {
        self.levels[self.positions[node.index()] as usize]
    }

    /// The columns of one tag's stream, parent slots included (empty view
    /// for unseen symbols).
    pub fn view(&self, tag: Symbol) -> ColumnView<'_> {
        match self.ranges.get(tag.index()) {
            Some(&r) => ColumnView {
                starts: r.of(&self.starts),
                ends: r.of(&self.ends),
                levels: r.of(&self.levels),
                nodes: r.of(&self.nodes),
                parent_slots: r.of(&self.parent_slots),
                offset: r.offset,
            },
            None => ColumnView::empty(),
        }
    }

    /// The columns of every element in document order (no parent slots),
    /// what `*` query nodes scan. Gathered from the tag streams through
    /// the position map on the first call; later calls, from any thread,
    /// share that one copy.
    pub fn all_elements(&self) -> ColumnView<'_> {
        self.all.get_or_init(|| self.gather_all()).view()
    }

    /// True once [`all_elements`](Self::all_elements) has gathered its
    /// stream.
    pub fn all_elements_gathered(&self) -> bool {
        self.all.get().is_some()
    }

    /// Every element in document order: by node id when ids ascend with
    /// it, by region start otherwise.
    fn gather_all(&self) -> OwnedColumns {
        let mut slots: Vec<u32> = self
            .positions
            .iter()
            .copied()
            .filter(|&slot| slot != NO_SLOT)
            .collect();
        if !self.ids_ascend {
            slots.sort_unstable_by_key(|&slot| self.starts[slot as usize]);
        }
        OwnedColumns::from_elements(slots.into_iter().map(|slot| {
            let at = slot as usize;
            (self.nodes[at], self.region_at(at))
        }))
    }

    /// Approximate heap size in bytes, the all-elements stream included
    /// once it is gathered.
    pub fn size_bytes(&self) -> usize {
        self.starts.capacity() * 4
            + self.ends.capacity() * 4
            + self.levels.capacity() * 2
            + self.nodes.capacity() * std::mem::size_of::<NodeId>()
            + self.parent_slots.capacity() * 4
            + self.positions.capacity() * 4
            + self.ranges.capacity() * std::mem::size_of::<StreamRange>()
            + self.all.get().map_or(0, OwnedColumns::size_bytes)
    }

    /// Serializes the tag streams' arenas and lengths for the snapshot
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
        for r in &self.ranges {
            put_varint(out, r.len as u64);
        }
    }

    /// Deserializes arenas written by [`encode`](Self::encode) — a bulk
    /// read straight into the struct-of-arrays layout — and proves them
    /// against `doc`, which the snapshot decoder numbers in preorder: the
    /// streams are the only copy of the regions, so nothing else could.
    /// Every element of `doc` must sit in exactly one stream, its tag's,
    /// at the place document order gives it there, with the region its
    /// preorder id implies: `start = 2·id − level + 1` and
    /// `end = start + 2·size − 1`, where `size` counts its subtree's
    /// nodes. One forward pass over `doc` with a stack of open nodes
    /// checks all of it and derives the position map and the parent slots
    /// on the way. The pass hands each node but the document, with its
    /// parent, to `visit`, so that what else is keyed by node can be
    /// checked in the same walk; its error stops the decode.
    pub(crate) fn decode(
        data: &[u8],
        pos: &mut usize,
        doc: &Document,
        visit: impl FnMut(NodeId, NodeId) -> Result<(), StorageError>,
    ) -> Result<TagColumns, StorageError> {
        let node_count = doc.node_count();
        let n = rd_len(data, pos, "columns length")?;
        if n > u32::MAX as usize {
            return Err(corrupt("columns length exceeds u32"));
        }
        let starts = get_u32_slice(data, pos, n, "columns starts")?;
        let ends = get_u32_slice(data, pos, n, "columns ends")?;
        let levels = get_u16_slice(data, pos, n, "columns levels")?;
        let nodes = get_node_ids(data, pos, n, node_count)?;
        let range_count = rd_len(data, pos, "columns range count")?;
        if range_count > data.len() {
            return Err(corrupt("columns range count"));
        }
        let mut lens = Vec::with_capacity(range_count);
        let mut total = 0usize;
        for _ in 0..range_count {
            let len = rd_len(data, pos, "range length")?;
            total = total
                .checked_add(len)
                .filter(|&t| t <= n)
                .ok_or(corrupt("range exceeds column arenas"))?;
            lens.push(len as u32);
        }
        if total != n {
            return Err(corrupt("column arenas longer than their streams"));
        }
        let mut cols = TagColumns {
            starts,
            ends,
            levels,
            parent_slots: vec![NO_SLOT; n],
            positions: vec![NO_SLOT; node_count],
            ids_ascend: true,
            ..TagColumns::default()
        };
        cols.lay_out(&lens);
        // Every stream element claims its slot in the position map.
        for (slot, &node) in nodes.iter().enumerate() {
            let at = &mut cols.positions[node.index()];
            if *at != NO_SLOT {
                return Err(corrupt("element in two tag streams"));
            }
            *at = slot as u32;
        }
        cols.nodes = nodes;
        cols.check_against(doc, visit)?;
        Ok(cols)
    }

    /// The forward pass of [`decode`](Self::decode), once the position
    /// map holds every stream element's slot.
    fn check_against(
        &mut self,
        doc: &Document,
        mut visit: impl FnMut(NodeId, NodeId) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let mismatch = || corrupt("column region disagrees with the document");
        // `next[t]`: the arena slot tag `t`'s next element must hold.
        let mut next: Vec<u32> = self.ranges.iter().map(|r| r.offset).collect();
        // The nodes entered and not yet exited, from the document down,
        // each with its arena slot (or [`NO_SLOT`]).
        let mut open = vec![(0usize, NO_SLOT)];
        // Whether an open node, exited as node `id` is entered, ends
        // where its subtree — the ids in between — says it does.
        let ends_right = |cols: &Self, (node, slot): (usize, u32), id: usize| {
            let (at, size) = (slot as usize, (id - node) as u64);
            slot == NO_SLOT || u64::from(cols.ends[at]) == u64::from(cols.starts[at]) + 2 * size - 1
        };
        if self.positions[0] != NO_SLOT {
            return Err(corrupt("tag stream holds a node that is no element"));
        }
        for id in 1..doc.node_count() {
            let node = NodeId::from_index(id);
            let parent = doc.parent(node).map_or(0, NodeId::index);
            while open.last().expect("the document is open").0 != parent {
                if open.len() == 1 {
                    return Err(corrupt("document not in preorder"));
                }
                if !ends_right(self, open.pop().expect("checked"), id) {
                    return Err(mismatch());
                }
            }
            visit(node, NodeId::from_index(parent))?;
            let slot = self.positions[id];
            let Some(tag) = doc.tag(node) else {
                if slot != NO_SLOT {
                    return Err(corrupt("tag stream holds a node that is no element"));
                }
                open.push((id, NO_SLOT));
                continue;
            };
            if slot == NO_SLOT {
                return Err(corrupt("element in no tag stream"));
            }
            let range = self.ranges.get(tag.index()).copied().unwrap_or_default();
            if !range.contains(slot) {
                return Err(corrupt("tag stream element of the wrong tag"));
            }
            let expected = &mut next[tag.index()];
            if slot != *expected {
                return Err(corrupt("tag stream not in document order"));
            }
            *expected += 1;
            let at = slot as usize;
            let level = open.len();
            if usize::from(self.levels[at]) != level
                || u64::from(self.starts[at]) != 2 * id as u64 - level as u64 + 1
            {
                return Err(mismatch());
            }
            self.parent_slots[at] = open.last().expect("the document is open").1;
            open.push((id, slot));
        }
        while open.len() > 1 {
            if !ends_right(self, open.pop().expect("checked"), doc.node_count()) {
                return Err(mismatch());
            }
        }
        Ok(())
    }
}

/// Reads `len` raw little-endian node ids, each below `node_count`,
/// straight into their column.
fn get_node_ids(
    data: &[u8],
    pos: &mut usize,
    len: usize,
    node_count: usize,
) -> Result<Vec<NodeId>, StorageError> {
    let end = len
        .checked_mul(4)
        .and_then(|bytes| pos.checked_add(bytes))
        .filter(|&e| e <= data.len())
        .ok_or(corrupt("columns nodes"))?;
    let mut nodes = Vec::with_capacity(len);
    for c in data[*pos..end].chunks_exact(4) {
        let v = u32::from_le_bytes(c.try_into().expect("4 bytes")) as usize;
        if v >= node_count {
            return Err(corrupt("columns node id out of range"));
        }
        nodes.push(NodeId::from_index(v));
    }
    *pos = end;
    Ok(nodes)
}

/// Owned columnar form of a stream the tag arenas do not hold as one
/// range: the all-elements stream, gathered on first use. Same layout as
/// one [`TagColumns`] range, without parent slots.
#[derive(Clone, Debug, Default)]
pub struct OwnedColumns {
    starts: Vec<u32>,
    ends: Vec<u32>,
    levels: Vec<u16>,
    nodes: Vec<NodeId>,
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

    /// Approximate heap size in bytes.
    fn size_bytes(&self) -> usize {
        (self.starts.capacity() + self.ends.capacity()) * 4
            + self.levels.capacity() * 2
            + self.nodes.capacity() * std::mem::size_of::<NodeId>()
    }

    /// A borrowed view of the columns.
    pub fn view(&self) -> ColumnView<'_> {
        ColumnView {
            starts: &self.starts,
            ends: &self.ends,
            levels: &self.levels,
            nodes: &self.nodes,
            parent_slots: &[],
            offset: NO_SLOT,
        }
    }
}

/// Borrowed column slices of one stream — the unit the join algorithms
/// scan — and where the stream begins in the arenas. Copy-cheap (five
/// fat pointers and an offset).
#[derive(Clone, Copy, Debug)]
pub struct ColumnView<'a> {
    starts: &'a [u32],
    ends: &'a [u32],
    levels: &'a [u16],
    nodes: &'a [NodeId],
    parent_slots: &'a [u32],
    offset: u32,
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
            offset: NO_SLOT,
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

    /// Parent slots column: per element, its parent's arena slot
    /// ([`NO_SLOT`] for the root element). Empty for the all-elements
    /// stream.
    pub fn parent_slots(&self) -> &'a [u32] {
        self.parent_slots
    }

    /// The arena slot of this stream's first element, [`NO_SLOT`] for a
    /// stream the arenas do not hold (the all-elements stream, the empty
    /// view). For a tag stream, a parent slot `s` names an element of
    /// this stream iff `s.wrapping_sub(offset) < len`, and the difference
    /// is that element's position here.
    pub fn arena_offset(&self) -> u32 {
        self.offset
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

    /// Columns built from a document equal a per-tag scan of that
    /// document, and equal themselves — arenas, ranges and the derived
    /// id-order flag — after a snapshot round trip.
    #[test]
    fn tag_columns_equal_a_document_scan_and_survive_the_codec() {
        let idx = crate::IndexedDocument::from_str(
            "<s><s><t/><s k=\"1\"><t>x</t></s></s><t/><u>y<t/></u><s/></s>",
        )
        .unwrap();
        let (doc, cols) = (idx.document(), idx.columns());
        let labels = lotusx_labeling::DocumentLabels::compute(doc);
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
        assert!(!cols.all_elements_gathered());
        assert_eq!(elements(cols.all_elements()), scan(&|_| true));
        assert!(cols.all_elements_gathered());
        assert!(cols.size_bytes() > 0);
        assert!(cols.ids_ascend(), "a parsed document numbers in preorder");
        assert_parent_slots_name_parents(&idx);

        let identity: Vec<u32> = (0..doc.node_count() as u32).collect();
        let mut bytes = Vec::new();
        cols.encode(&identity, &mut bytes);
        let mut pos = 0;
        let mut visited = Vec::new();
        let back = TagColumns::decode(&bytes, &mut pos, doc, |node, parent| {
            visited.push((node, parent));
            Ok(())
        })
        .unwrap();
        assert_eq!(pos, bytes.len());
        assert_eq!(&back, cols);
        // The pass visits every node but the document, with its parent.
        let nodes = doc.all_nodes().skip(1);
        let expect: Vec<_> = nodes.map(|n| (n, doc.parent(n).unwrap())).collect();
        assert_eq!(visited, expect);
    }

    /// Every tag-stream element's parent slot is its parent's arena slot
    /// ([`NO_SLOT`] under the document), and the parent's stream reads
    /// the parent back at that slot less its arena offset; the
    /// all-elements stream has no slots and no offset.
    fn assert_parent_slots_name_parents(idx: &crate::IndexedDocument) {
        let (doc, cols) = (idx.document(), idx.columns());
        for (sym, name) in doc.symbols().iter() {
            let view = cols.view(sym);
            assert_eq!(view.parent_slots().len(), view.len(), "<{name}>");
            for (&node, &slot) in view.nodes().iter().zip(view.parent_slots()) {
                let parent = doc.parent(node).expect("elements have parents");
                assert_eq!(slot, cols.position(parent), "<{name}>");
                let Some(tag) = doc.tag(parent) else {
                    assert_eq!(slot, NO_SLOT, "<{name}> under the document");
                    continue;
                };
                let stream = cols.view(tag);
                let at = slot.wrapping_sub(stream.arena_offset()) as usize;
                assert_eq!(stream.nodes()[at], parent, "<{name}>");
            }
        }
        assert!(cols.all_elements().parent_slots().is_empty());
        assert_eq!(cols.all_elements().arena_offset(), NO_SLOT);
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
        // Document order: r, a(first) [b], a(second) [a]. The arenas
        // hold `r` at slot 0 and the `a` stream from slot 1, so the
        // nested `a`'s parent, the stream's second element, is slot 2.
        let a = idx.document().symbols().get("a").unwrap();
        assert_eq!(idx.columns().view(a).arena_offset(), 1);
        assert_eq!(idx.columns().view(a).parent_slots(), [0, 0, 2]);
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
        let got = TagColumns::decode(&bytes, &mut 0, &other, |_, _| Ok(()));
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
        // The payload ends with the `b` stream's length (2).
        assert_eq!(good.last(), Some(&2));
        for last in [1u8, 3] {
            let mut bad = good.clone();
            *bad.last_mut().unwrap() = last;
            let doc = idx.document();
            let got = TagColumns::decode(&bad, &mut 0, doc, |_, _| Ok(()));
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
