//! Struct-of-arrays element streams: the one stream representation,
//! and the one place an element's place in a stream is stored.
//!
//! A join touches one field of an element at a time — a skip loop
//! compares only node ids, a containment check only subtree ends — so
//! an array of `(node, end, level)` records drags the unused fields
//! through the cache with every probe. [`TagColumns`] therefore holds
//! every tag's document-ordered element stream as three contiguous
//! per-tag arrays (`nodes`, `ends`, `levels`), packed back-to-back in
//! one arena per column so a stream scan is a pure sequential read at
//! memory bandwidth.
//!
//! Node ids are the preorder, so an element's id is its document-order
//! key and its subtree is the ids up to its subtree end (the id of its
//! last descendant): `p` contains `c` iff `p < c ≤ end(p)`. No region
//! start is stored anywhere; the region label the ranker and keyword
//! scoring read is arithmetic on the id, the subtree end and the level
//! ([`IndexedDocument::region`](crate::IndexedDocument::region)).
//!
//! One skip primitive rides on top: `nodes` is strictly increasing
//! within a stream, so "first element after X" is a gallop — exponential
//! probe then binary search, O(log distance). `ends` is **not**
//! monotonic (recursive elements nest: a child's end precedes its
//! parent's even though its id follows), so the structural join never
//! searches it: on a descendant edge it walks parents linearly and keeps
//! the open ones on a stack.
//!
//! A child edge needs no search at all. Every tag-stream element carries
//! one derived `u32`, its *parent slot*: its parent's arena slot. The
//! streams lie back to back in the arenas, so a parent slot inside
//! stream `P`'s extent says the parent has tag `P`, and its distance
//! from the extent's start is the parent's place in that stream: one
//! subtraction and one compare ([`ColumnView::arena_offset`]). The join
//! gathers a child's parent through it. It costs 4 B per element.
//!
//! Every column here is a function of the document tree, so none is
//! stored in a snapshot: [`TagColumns::build`] runs at build and at load
//! alike, one pass over the node ids.
//!
//! The all-elements stream that `*` query nodes scan is not held beside
//! the tag streams: [`TagColumns::all_elements`] gathers it from them
//! the first time a query asks, and keeps it.

use lotusx_xml::{Document, NodeId, Symbol};
use std::sync::OnceLock;

/// Per-stream extent of one tag inside the column arenas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct StreamRange {
    /// Offset into the `nodes`/`ends`/`levels` arenas.
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
/// element, and the arena offset of a stream the arenas do not hold.
/// Past every arena slot, so no stream's extent contains it.
pub const NO_SLOT: u32 = u32::MAX;

/// Every tag's element stream in columnar (struct-of-arrays) form.
/// Immutable once built, but for the all-elements stream, built on
/// first use.
#[derive(Clone, Debug, Default)]
pub struct TagColumns {
    nodes: Vec<NodeId>,
    /// Per arena slot: the element's subtree end, its last descendant.
    ends: Vec<NodeId>,
    levels: Vec<u16>,
    /// Per arena slot: the arena slot of the element's parent, or
    /// [`NO_SLOT`] for the root element.
    parent_slots: Vec<u32>,
    /// Per-tag extents; index = symbol index.
    ranges: Vec<StreamRange>,
    /// Every element in document order, gathered on the first call to
    /// [`all_elements`](Self::all_elements).
    all: OnceLock<OwnedColumns>,
}

/// Equal streams and derived columns; whether either side has gathered
/// its all-elements stream yet does not count.
impl PartialEq for TagColumns {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.ends == other.ends
            && self.levels == other.levels
            && self.parent_slots == other.parent_slots
            && self.ranges == other.ranges
    }
}

impl Eq for TagColumns {}

impl TagColumns {
    /// Builds the columns of `doc`, whose elements number `lens[t]` for
    /// each tag symbol `t`, in one pass over the node ids — the
    /// preorder — that writes each element's node, subtree end, level
    /// and parent slot straight into its tag's next arena slot, so every
    /// stream comes out in document order. Text and other leaves are
    /// told by their kind byte and skipped.
    pub fn build(doc: &Document, lens: &[u32]) -> Self {
        let total: usize = lens.iter().map(|&len| len as usize).sum();
        let mut cols = TagColumns {
            nodes: vec![NodeId::DOCUMENT; total],
            ends: vec![NodeId::DOCUMENT; total],
            levels: vec![0; total],
            parent_slots: vec![NO_SLOT; total],
            ..TagColumns::default()
        };
        cols.lay_out(lens);
        // `next[t]` is the arena slot of tag `t`'s next element.
        let mut next: Vec<u32> = cols.ranges.iter().map(|r| r.offset).collect();
        // The elements whose subtree the walk is in, outermost first,
        // each with its subtree end and arena slot: their count is the
        // next element's level less one, the last one its parent.
        let mut open: Vec<(NodeId, u32)> = Vec::new();
        for node in doc.all_nodes() {
            let Some(tag) = doc.tag(node) else { continue };
            while open.last().is_some_and(|&(end, _)| end < node) {
                open.pop();
            }
            let t = tag.index();
            let slot = next[t];
            next[t] += 1;
            let (at, end) = (slot as usize, doc.subtree_end(node));
            cols.nodes[at] = node;
            cols.ends[at] = end;
            cols.levels[at] = u16::try_from(open.len() + 1).expect("levels fit u16");
            cols.parent_slots[at] = open.last().map_or(NO_SLOT, |&(_, slot)| slot);
            open.push((end, slot));
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

    /// The columns of one tag's stream, parent slots included (empty view
    /// for unseen symbols).
    pub fn view(&self, tag: Symbol) -> ColumnView<'_> {
        match self.ranges.get(tag.index()) {
            Some(&r) => ColumnView {
                nodes: r.of(&self.nodes),
                ends: r.of(&self.ends),
                levels: r.of(&self.levels),
                parent_slots: r.of(&self.parent_slots),
                offset: r.offset,
            },
            None => ColumnView::empty(),
        }
    }

    /// The columns of every element in document order (no parent slots),
    /// what `*` query nodes scan. Gathered from the tag streams on the
    /// first call; later calls, from any thread, share that one copy.
    pub fn all_elements(&self) -> ColumnView<'_> {
        self.all.get_or_init(|| self.gather_all()).view()
    }

    /// True once [`all_elements`](Self::all_elements) has gathered its
    /// stream.
    pub fn all_elements_gathered(&self) -> bool {
        self.all.get().is_some()
    }

    /// Every element in document order: every arena slot, sorted by
    /// node id.
    fn gather_all(&self) -> OwnedColumns {
        let mut slots: Vec<u32> = (0..self.nodes.len() as u32).collect();
        slots.sort_unstable_by_key(|&slot| self.nodes[slot as usize]);
        OwnedColumns::from_elements(slots.into_iter().map(|slot| {
            let at = slot as usize;
            (self.nodes[at], self.ends[at], self.levels[at])
        }))
    }

    /// Approximate heap size in bytes, the all-elements stream included
    /// once it is gathered.
    pub fn size_bytes(&self) -> usize {
        (self.nodes.capacity() + self.ends.capacity()) * std::mem::size_of::<NodeId>()
            + self.levels.capacity() * 2
            + self.parent_slots.capacity() * 4
            + self.ranges.capacity() * std::mem::size_of::<StreamRange>()
            + self.all.get().map_or(0, OwnedColumns::size_bytes)
    }
}

/// One element of a stream: its node, its subtree end and its level.
pub type StreamElement = (NodeId, NodeId, u16);

/// Owned columnar form of a stream the tag arenas do not hold as one
/// range: the all-elements stream, gathered on first use. Same layout as
/// one [`TagColumns`] range, without parent slots.
#[derive(Clone, Debug, Default)]
pub struct OwnedColumns {
    nodes: Vec<NodeId>,
    ends: Vec<NodeId>,
    levels: Vec<u16>,
}

impl OwnedColumns {
    /// The columns of `elements`, which must come in document order, with
    /// no parent slots. An iterator that knows its length costs one
    /// allocation per column.
    pub fn from_elements(elements: impl IntoIterator<Item = StreamElement>) -> Self {
        let elements = elements.into_iter();
        let mut cols = OwnedColumns::with_capacity(elements.size_hint().0);
        elements.for_each(|element| cols.push(element));
        cols
    }

    fn with_capacity(n: usize) -> Self {
        OwnedColumns {
            nodes: Vec::with_capacity(n),
            ends: Vec::with_capacity(n),
            levels: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, (node, end, level): StreamElement) {
        debug_assert!(
            self.nodes.last().is_none_or(|&last| last < node),
            "columns must be built in document order"
        );
        self.nodes.push(node);
        self.ends.push(end);
        self.levels.push(level);
    }

    /// Approximate heap size in bytes.
    fn size_bytes(&self) -> usize {
        (self.nodes.capacity() + self.ends.capacity()) * std::mem::size_of::<NodeId>()
            + self.levels.capacity() * 2
    }

    /// A borrowed view of the columns.
    pub fn view(&self) -> ColumnView<'_> {
        ColumnView {
            nodes: &self.nodes,
            ends: &self.ends,
            levels: &self.levels,
            parent_slots: &[],
            offset: NO_SLOT,
        }
    }
}

/// Borrowed column slices of one stream — the unit the join algorithms
/// scan — and where the stream begins in the arenas. Copy-cheap (four
/// fat pointers and an offset).
#[derive(Clone, Copy, Debug)]
pub struct ColumnView<'a> {
    nodes: &'a [NodeId],
    ends: &'a [NodeId],
    levels: &'a [u16],
    parent_slots: &'a [u32],
    offset: u32,
}

impl<'a> ColumnView<'a> {
    /// The empty stream.
    pub fn empty() -> Self {
        ColumnView {
            nodes: &[],
            ends: &[],
            levels: &[],
            parent_slots: &[],
            offset: NO_SLOT,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the stream has no elements.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node ids column: ascending, the document order.
    pub fn nodes(&self) -> &'a [NodeId] {
        self.nodes
    }

    /// Subtree ends column: per element, its last descendant's id.
    pub fn ends(&self) -> &'a [NodeId] {
        self.ends
    }

    /// Levels column (the root element's is 1).
    pub fn levels(&self) -> &'a [u16] {
        self.levels
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

    /// The `i`-th element: its node, subtree end and level.
    pub fn element(&self, i: usize) -> StreamElement {
        (self.nodes[i], self.ends[i], self.levels[i])
    }

    /// First position `>= from` whose node comes after `node` in document
    /// order (the stream's length when there is none), galloping:
    /// O(log distance).
    pub fn first_after(&self, from: usize, node: NodeId) -> usize {
        gallop(self.nodes, from, node)
    }
}

/// First index `>= from` with `column[index] > target`, by exponential
/// probe then binary search within the bracketed window. `column` must be
/// non-decreasing from `from` onward. O(log distance) — a skip over a few
/// elements costs a couple of probes, a skip over a million costs ~40.
fn gallop<T: Ord>(column: &[T], from: usize, target: T) -> usize {
    let n = column.len();
    if from >= n || column[from] > target {
        return from.min(n);
    }
    let mut step = 1usize;
    let mut lo = from; // greatest index known to hold a value <= target
    while let Some(v) = column.get(from + step) {
        if *v > target {
            break;
        }
        lo = from + step;
        step *= 2;
    }
    let hi = (from + step + 1).min(n);
    lo + 1 + column[lo + 1..hi].partition_point(|v| *v <= target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotusx_labeling::DocumentLabels;

    fn element(node: u32, end: u32, level: u16) -> StreamElement {
        let id = |i: u32| NodeId::from_index(i as usize);
        (id(node), id(end), level)
    }

    /// A recursive-nesting shape: ends are NOT monotonic.
    fn nested() -> Vec<StreamElement> {
        vec![
            element(1, 50, 1),
            element(2, 20, 2),
            element(3, 5, 3),
            element(6, 15, 3),
            element(25, 30, 2),
            element(35, 35, 2),
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
    /// document: each element with its subtree end and its labeled level.
    #[test]
    fn tag_columns_equal_a_document_scan() {
        let idx = crate::IndexedDocument::from_str(
            "<s><s><t/><s k=\"1\"><t>x</t></s></s><t/><u>y<t/></u><s/></s>",
        )
        .unwrap();
        let (doc, cols) = (idx.document(), idx.columns());
        let labels = DocumentLabels::compute(doc);
        let scan = |keep: &dyn Fn(NodeId) -> bool| -> Vec<StreamElement> {
            doc.all_nodes()
                .filter(|&n| doc.is_element(n) && keep(n))
                .map(|n| (n, doc.subtree_end(n), labels.region(n).level))
                .collect()
        };
        let elements = |view: ColumnView<'_>| -> Vec<StreamElement> {
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
                let Some(tag) = doc.tag(parent) else {
                    assert_eq!(slot, NO_SLOT, "<{name}> under the document");
                    continue;
                };
                let stream = cols.view(tag);
                let at = stream.nodes().binary_search(&parent).unwrap();
                assert_eq!(slot, stream.arena_offset() + at as u32, "<{name}>");
            }
        }
        assert!(cols.all_elements().parent_slots().is_empty());
        assert_eq!(cols.all_elements().arena_offset(), NO_SLOT);
    }

    /// A tree appended in preorder — `r, a[b], a[a]` — has ascending
    /// streams and parent slots that follow document order, like a
    /// parsed tree's.
    #[test]
    fn parent_slots_of_a_tree_appended_in_preorder() {
        let mut doc = Document::new();
        let root = doc.append_element(NodeId::DOCUMENT, "r");
        let first = doc.append_element(root, "a");
        doc.append_element(first, "b");
        let second = doc.append_element(root, "a");
        doc.append_element(second, "a");
        let idx = crate::IndexedDocument::build(doc);
        assert_parent_slots_name_parents(&idx);
        // The arenas hold `r` at slot 0 and the `a` stream from slot 1,
        // so the nested `a`'s parent, the stream's second element, is
        // slot 2.
        let a = idx.document().symbols().get("a").unwrap();
        let view = idx.columns().view(a);
        assert_eq!(view.arena_offset(), 1);
        assert_eq!(view.parent_slots(), [0, 0, 2]);
        assert!(view.nodes().windows(2).all(|w| w[0] < w[1]));
        let reparsed = crate::IndexedDocument::from_str(&idx.document().to_xml()).unwrap();
        assert_eq!(idx.columns(), reparsed.columns());
    }

    #[test]
    fn gallop_matches_linear_scan() {
        let column: Vec<u32> = vec![1, 3, 3, 7, 9, 9, 9, 20, 21, 40];
        for from in 0..=column.len() {
            for target in 0..45 {
                let expect = (from..column.len())
                    .find(|&i| column[i] > target)
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
    fn seeks_and_the_empty_view() {
        let cols = OwnedColumns::from_elements(nested());
        let view = cols.view();
        let id = |i: usize| NodeId::from_index(i);
        assert_eq!(view.first_after(0, id(24)), 4);
        assert_eq!(view.first_after(0, id(25)), 5);
        assert_eq!(view.first_after(4, id(24)), 4);
        assert_eq!(view.first_after(0, id(u32::MAX as usize)), view.len());
        let empty = ColumnView::empty();
        assert!(empty.is_empty());
        assert_eq!(empty.first_after(0, id(5)), 0);
    }
}
