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
//! through it. It costs 4 B per element.
//!
//! Every column here is a function of the document tree, so none is
//! stored in a snapshot: [`TagColumns::build`] runs at build and at load
//! alike, one document-order pass for arenas, position map and parent
//! slots.
//!
//! The all-elements stream that `*` query nodes scan is not held beside
//! the tag streams: [`TagColumns::all_elements`] gathers it from them
//! through the position map the first time a query asks, and keeps it.

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
    /// [`NO_SLOT`] for the root element.
    parent_slots: Vec<u32>,
    /// Per node, by id: its arena slot, or [`NO_SLOT`] for a node that is
    /// no element.
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
    /// document.
    #[test]
    fn tag_columns_equal_a_document_scan() {
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
