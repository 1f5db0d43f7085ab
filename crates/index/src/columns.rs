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
//! Two skip primitives ride on top:
//!
//! * `starts` is strictly increasing within a stream (document order), so
//!   "first element starting at or after X" is a gallop — exponential
//!   probe then binary search, O(log distance).
//! * `ends` is **not** monotonic (recursive elements nest: a child's end
//!   precedes its parent's even though its start follows), so "first
//!   element at or after the cursor whose subtree reaches past X" cannot
//!   be binary-searched directly. Each stream therefore carries a flat
//!   max-segment-tree over its `ends`: a leftmost-leaf-at-least descent
//!   answers the query in O(log n) from *any* cursor position. A plain
//!   prefix-maximum would not do — the maximum may come from an element
//!   the cursor has already consumed, and the query must ignore it.
//!
//! These two seeks are what turn the structural join's element-by-element
//! skip loops into logarithmic jumps.
//!
//! The end trees are *derived* from `ends`, so the snapshot does not
//! store them: [`TagColumns::decode`] rebuilds them with the builder the
//! fresh build uses. A stored tree would have to be validated against
//! `ends` to be trusted — which costs what rebuilding it costs.

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
    /// Offset into the `end_tree` arena.
    tree_offset: u32,
    /// Padded leaf count of this stream's segment tree (power of two).
    tree_leaves: u32,
}

/// Every tag's element stream in columnar (struct-of-arrays) form, plus
/// one extra pseudo-stream covering all elements in document order (what
/// wildcard query nodes scan). Immutable once built.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TagColumns {
    starts: Vec<u32>,
    ends: Vec<u32>,
    levels: Vec<u16>,
    nodes: Vec<NodeId>,
    /// Concatenated per-stream max-segment-trees over `ends`.
    end_tree: Vec<u32>,
    /// Per-tag extents; index = symbol index.
    ranges: Vec<StreamRange>,
    /// Extent of the all-elements pseudo-stream.
    all_range: StreamRange,
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
        cols.build_end_trees();
        cols
    }

    /// Sets the stream extents from `lens` — one length per tag, then the
    /// all-elements stream's — laid back to back from arena offset 0.
    fn lay_out(&mut self, lens: &[u32]) {
        let mut offset = 0u32;
        self.ranges = lens
            .iter()
            .map(|&len| {
                let range = StreamRange {
                    offset,
                    len,
                    ..StreamRange::default()
                };
                offset += len;
                range
            })
            .collect();
        self.all_range = self.ranges.pop().expect("lens ends with the all stream");
    }

    /// Builds every stream's max-segment-tree over the filled `ends`
    /// arena — the last step of both a fresh build and a snapshot load.
    fn build_end_trees(&mut self) {
        let ranges = self.ranges.iter().chain([&self.all_range]);
        let slots = ranges.map(|r| 2 * tree_leaves(r.len as usize)).sum();
        self.end_tree = Vec::with_capacity(slots);
        for range in self.ranges.iter_mut().chain([&mut self.all_range]) {
            let (a, b) = (range.offset as usize, (range.offset + range.len) as usize);
            range.tree_offset = self.end_tree.len() as u32;
            range.tree_leaves = build_max_tree(&self.ends[a..b], &mut self.end_tree);
        }
    }

    /// The columns of one tag's stream (empty view for unseen symbols).
    pub fn view(&self, tag: Symbol) -> ColumnView<'_> {
        match self.ranges.get(tag.index()) {
            Some(&range) => self.slice(range),
            None => ColumnView::empty(),
        }
    }

    /// The columns of the all-elements pseudo-stream.
    pub fn all_elements(&self) -> ColumnView<'_> {
        self.slice(self.all_range)
    }

    fn slice(&self, r: StreamRange) -> ColumnView<'_> {
        let (a, b) = (r.offset as usize, (r.offset + r.len) as usize);
        let (ta, tb) = (
            r.tree_offset as usize,
            r.tree_offset as usize + 2 * r.tree_leaves as usize,
        );
        ColumnView {
            starts: &self.starts[a..b],
            ends: &self.ends[a..b],
            levels: &self.levels[a..b],
            nodes: &self.nodes[a..b],
            end_tree: &self.end_tree[ta..tb],
        }
    }

    /// Approximate heap size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.starts.capacity() * 4
            + self.ends.capacity() * 4
            + self.levels.capacity() * 2
            + self.nodes.capacity() * std::mem::size_of::<NodeId>()
            + self.end_tree.capacity() * 4
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
    /// read straight into the struct-of-arrays layout — and rebuilds the
    /// end trees. Validates every invariant the join loops rely on: node
    /// ids within the document, stream lengths that tile the arenas
    /// exactly, per-element `start < end`, and strictly increasing
    /// `starts` within each stream (document order).
    pub(crate) fn decode(
        data: &[u8],
        pos: &mut usize,
        node_count: usize,
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
        cols.build_end_trees();
        Ok(cols)
    }
}

/// Appends the max-segment-tree of `ends` onto `arena` and returns the
/// padded leaf count. Layout: 1-indexed implicit binary tree of size
/// `2 * leaves` (slot 0 unused), leaves at `leaves..2 * leaves`, padding
/// leaves hold 0 (the neutral element for max).
fn build_max_tree(ends: &[u32], arena: &mut Vec<u32>) -> u32 {
    let leaves = tree_leaves(ends.len());
    let base = arena.len();
    arena.resize(base + 2 * leaves, 0);
    arena[base + leaves..base + leaves + ends.len()].copy_from_slice(ends);
    for i in (1..leaves).rev() {
        arena[base + i] = arena[base + 2 * i].max(arena[base + 2 * i + 1]);
    }
    leaves as u32
}

/// Padded leaf count of the max-segment-tree over `len` ends: the next
/// power of two, and no tree at all over an empty stream.
fn tree_leaves(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.next_power_of_two()
    }
}

/// Leftmost leaf `>= from` with `value >= target` in a tree built by
/// [`build_max_tree`]; `usize::MAX` when none exists. O(log leaves).
fn tree_first_at_least(tree: &[u32], from: usize, target: u32) -> usize {
    let leaves = tree.len() / 2;
    if from >= leaves {
        return usize::MAX;
    }
    // Walk right from the `from` leaf over maximal aligned subtrees until
    // one's max reaches the target, then descend to its leftmost
    // qualifying leaf. Padding leaves hold 0 < target (target >= 1 here),
    // so the descent never lands in padding.
    let mut i = from + leaves;
    loop {
        if tree[i] >= target {
            while i < leaves {
                i <<= 1;
                if tree[i] < target {
                    i += 1;
                }
            }
            return i - leaves;
        }
        i += 1;
        if i.is_power_of_two() {
            // Walked off the right edge of the tree.
            return usize::MAX;
        }
        while i & 1 == 0 {
            i >>= 1;
        }
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
    end_tree: Vec<u32>,
}

impl OwnedColumns {
    /// The columns of `elements`, which must come in document order,
    /// including the end max-segment-tree (needed by `seek_end_at_least`).
    /// An iterator that knows its length costs one allocation per column.
    pub fn from_elements(elements: impl IntoIterator<Item = (NodeId, RegionLabel)>) -> Self {
        let elements = elements.into_iter();
        let n = elements.size_hint().0;
        let mut cols = OwnedColumns {
            starts: Vec::with_capacity(n),
            ends: Vec::with_capacity(n),
            levels: Vec::with_capacity(n),
            nodes: Vec::with_capacity(n),
            end_tree: Vec::new(),
        };
        for (node, region) in elements {
            debug_assert!(
                cols.starts.last().is_none_or(|&s| s < region.start),
                "columns must be built in document order"
            );
            cols.starts.push(region.start);
            cols.ends.push(region.end);
            cols.levels.push(region.level);
            cols.nodes.push(node);
        }
        build_max_tree(&cols.ends, &mut cols.end_tree);
        cols
    }

    /// A borrowed view of the columns.
    pub fn view(&self) -> ColumnView<'_> {
        ColumnView {
            starts: &self.starts,
            ends: &self.ends,
            levels: &self.levels,
            nodes: &self.nodes,
            end_tree: &self.end_tree,
        }
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
    end_tree: &'a [u32],
}

impl<'a> ColumnView<'a> {
    /// The empty stream.
    pub fn empty() -> Self {
        ColumnView {
            starts: &[],
            ends: &[],
            levels: &[],
            nodes: &[],
            end_tree: &[],
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

    /// The `i`-th element: its node and region label.
    pub fn element(&self, i: usize) -> (NodeId, RegionLabel) {
        let region = RegionLabel::new(self.starts[i], self.ends[i], self.levels[i]);
        (self.nodes[i], region)
    }

    /// A cursor positioned at the first element.
    pub fn cursor(self) -> ColumnCursor<'a> {
        ColumnCursor { view: self, pos: 0 }
    }

    /// First position `>= from` with `starts[pos] >= start`, galloping.
    fn first_start_at_least(&self, from: usize, start: u32) -> usize {
        gallop(self.starts, from, start)
    }

    /// First position `>= from` with `ends[pos] >= end`, by segment-tree
    /// descent (see module docs for why `ends` cannot be galloped).
    fn first_end_at_least(&self, from: usize, end: u32) -> usize {
        if end == 0 {
            return from.min(self.len());
        }
        match tree_first_at_least(self.end_tree, from, end) {
            usize::MAX => self.len(),
            pos => pos,
        }
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

/// Forward-only cursor over a [`ColumnView`]: head, advance, and the two
/// logarithmic seeks.
#[derive(Clone, Copy, Debug)]
pub struct ColumnCursor<'a> {
    view: ColumnView<'a>,
    pos: usize,
}

impl<'a> ColumnCursor<'a> {
    /// True when the stream is exhausted.
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.view.len()
    }

    /// Region start of the head, or `u32::MAX` once exhausted — the
    /// sentinel the structural join's merge loop compares against.
    pub fn head_start(&self) -> u32 {
        self.view.starts.get(self.pos).copied().unwrap_or(u32::MAX)
    }

    /// Region end of the head, or `u32::MAX` once exhausted.
    pub fn head_end(&self) -> u32 {
        self.view.ends.get(self.pos).copied().unwrap_or(u32::MAX)
    }

    /// Advances past the head.
    pub fn advance(&mut self) {
        self.pos += 1;
    }

    /// Seeks to the first element with `start >= start`; returns how many
    /// elements were skipped (so callers can charge their budget).
    pub fn seek_start_at_least(&mut self, start: u32) -> usize {
        let to = self
            .view
            .first_start_at_least(self.pos.min(self.view.len()), start);
        let skipped = to.saturating_sub(self.pos);
        self.pos = to;
        skipped
    }

    /// Seeks to the first element at or after the cursor whose region end
    /// is `>= end`; returns how many elements were skipped.
    pub fn seek_end_at_least(&mut self, end: u32) -> usize {
        let to = self
            .view
            .first_end_at_least(self.pos.min(self.view.len()), end);
        let skipped = to.saturating_sub(self.pos);
        self.pos = to;
        skipped
    }

    /// The cursor position (index of the head within the stream).
    pub fn position(&self) -> usize {
        self.pos
    }
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
    /// document, and equal themselves — arenas, ranges and rebuilt end
    /// trees — after a snapshot round trip.
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

        let identity: Vec<u32> = (0..doc.node_count() as u32).collect();
        let mut bytes = Vec::new();
        cols.encode(&identity, &mut bytes);
        let mut pos = 0;
        let back = TagColumns::decode(&bytes, &mut pos, doc.node_count()).unwrap();
        assert_eq!(pos, bytes.len());
        assert_eq!(&back, cols);
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
            let got = TagColumns::decode(&bad, &mut 0, idx.document().node_count());
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
    fn end_tree_finds_leftmost_from_any_position() {
        // Non-monotonic ends, including the trap a prefix-maximum falls
        // into: the early large end (100) must be ignored once passed.
        let ends: Vec<u32> = vec![100, 40, 10, 30, 60, 71];
        let mut arena = Vec::new();
        build_max_tree(&ends, &mut arena);
        for from in 0..=ends.len() {
            for target in 1..=110u32 {
                let expect = (from..ends.len())
                    .find(|&i| ends[i] >= target)
                    .map(|i| i as isize)
                    .unwrap_or(-1);
                let got = match tree_first_at_least(&arena, from, target) {
                    usize::MAX => -1,
                    i => i as isize,
                };
                assert_eq!(got, expect, "from={from} target={target}");
            }
        }
    }

    #[test]
    fn end_tree_handles_non_power_of_two_and_singleton() {
        for ends in [vec![5u32], vec![9, 2, 7], vec![3, 3, 3, 3, 3, 8, 1]] {
            let mut arena = Vec::new();
            build_max_tree(&ends, &mut arena);
            for from in 0..=ends.len() {
                for target in 1..=10u32 {
                    let expect = (from..ends.len())
                        .find(|&i| ends[i] >= target)
                        .unwrap_or(usize::MAX);
                    assert_eq!(
                        tree_first_at_least(&arena, from, target),
                        expect,
                        "ends={ends:?} from={from} target={target}"
                    );
                }
            }
        }
    }

    #[test]
    fn seek_end_agrees_with_element_by_element_skip() {
        // Equivalence with the scalar loop `while head.end < X { advance }`
        // on a nesting-heavy stream, from every position and threshold.
        let cols = OwnedColumns::from_elements(nested());
        for from in 0..=cols.view().len() {
            for target in 0..110u32 {
                let mut cur = cols.view().cursor();
                for _ in 0..from {
                    cur.advance();
                }
                let mut scalar = cur;
                while !scalar.is_exhausted() && scalar.head_end() < target {
                    scalar.advance();
                }
                let mut seek = cur;
                seek.seek_end_at_least(target);
                assert_eq!(
                    seek.position(),
                    scalar.position(),
                    "from={from} target={target}"
                );
            }
        }
    }

    #[test]
    fn cursor_heads_and_sentinels() {
        let cols = OwnedColumns::from_elements(nested());
        let mut cur = cols.view().cursor();
        assert_eq!(cur.head_start(), 1);
        assert_eq!(cur.seek_start_at_least(49), 4);
        assert_eq!((cur.head_start(), cur.head_end()), (50, 60));
        cur.seek_start_at_least(u32::MAX);
        assert!(cur.is_exhausted());
        assert_eq!(cur.head_start(), u32::MAX);
        assert_eq!(cur.head_end(), u32::MAX);
    }

    #[test]
    fn empty_view_is_safe() {
        let view = ColumnView::empty();
        assert!(view.is_empty());
        let mut cur = view.cursor();
        assert!(cur.is_exhausted());
        assert_eq!(cur.seek_start_at_least(5), 0);
        assert_eq!(cur.seek_end_at_least(5), 0);
    }
}
