//! Struct-of-arrays region-label columns for the join engine.
//!
//! The [`TagIndex`] streams store `ElementEntry` records (node id + region
//! label) as an array of structs. The hot join loops, however, touch one
//! field at a time — a skip loop compares only `start`s, a containment
//! check only `end`s — so an AoS walk drags the unused fields through the
//! cache with every probe. [`TagColumns`] transposes every tag stream once
//! at build time into four contiguous per-tag arrays (`starts`, `ends`,
//! `levels`, `nodes`), packed back-to-back in one arena per column so a
//! stream scan is a pure sequential read at memory bandwidth.
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
//! These two seeks are what turn the holistic joins' element-by-element
//! skip loops into logarithmic jumps.

use crate::tag_index::{ElementEntry, TagIndex};
use crate::wire::{
    corrupt, get_u16_slice, get_u32_slice, put_u16_slice, put_u32_slice, put_varint, rd_len,
    StorageError,
};
use lotusx_labeling::RegionLabel;
use lotusx_xml::{NodeId, Symbol};

/// Per-stream extent of one tag inside the column arenas.
#[derive(Clone, Copy, Debug, Default)]
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

/// Columnar (struct-of-arrays) mirror of every tag stream, plus one extra
/// pseudo-stream covering all elements in document order (what wildcard
/// query nodes scan). Built once alongside the [`TagIndex`]; immutable.
#[derive(Clone, Debug, Default)]
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
    /// Transposes `tags` (and the document-ordered `all_elements` stream)
    /// into columnar arenas.
    pub fn build(tags: &TagIndex, all_elements: &[ElementEntry], tag_count: usize) -> Self {
        let total: usize = tags.total_entries() + all_elements.len();
        let mut cols = TagColumns {
            starts: Vec::with_capacity(total),
            ends: Vec::with_capacity(total),
            levels: Vec::with_capacity(total),
            nodes: Vec::with_capacity(total),
            end_tree: Vec::new(),
            ranges: Vec::with_capacity(tag_count),
            all_range: StreamRange::default(),
        };
        for t in 0..tag_count {
            let stream = tags.stream(Symbol::from_index(t));
            let range = cols.append_stream(stream);
            cols.ranges.push(range);
        }
        cols.all_range = cols.append_stream(all_elements);
        cols
    }

    fn append_stream(&mut self, stream: &[ElementEntry]) -> StreamRange {
        let offset = self.starts.len() as u32;
        for e in stream {
            self.starts.push(e.region.start);
            self.ends.push(e.region.end);
            self.levels.push(e.region.level);
            self.nodes.push(e.node);
        }
        let tree_offset = self.end_tree.len() as u32;
        let ends = &self.ends[offset as usize..];
        let tree_leaves = build_max_tree(ends, &mut self.end_tree);
        StreamRange {
            offset,
            len: stream.len() as u32,
            tree_offset,
            tree_leaves,
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

    /// Serializes the arenas for the snapshot `COLUMNS` section. Node ids
    /// are written through `node_map` (old id → canonical preorder id) so
    /// the decoded columns reference the decoded document's ids.
    pub(crate) fn encode(&self, node_map: &[u32], out: &mut Vec<u8>) {
        put_varint(out, self.starts.len() as u64);
        put_u32_slice(out, &self.starts);
        put_u32_slice(out, &self.ends);
        put_u16_slice(out, &self.levels);
        out.reserve(self.nodes.len() * 4);
        for &n in &self.nodes {
            out.extend_from_slice(&node_map[n.index()].to_le_bytes());
        }
        put_varint(out, self.end_tree.len() as u64);
        put_u32_slice(out, &self.end_tree);
        put_varint(out, self.ranges.len() as u64);
        for r in self.ranges.iter().chain(std::iter::once(&self.all_range)) {
            put_varint(out, r.offset as u64);
            put_varint(out, r.len as u64);
            put_varint(out, r.tree_offset as u64);
            put_varint(out, r.tree_leaves as u64);
        }
    }

    /// Deserializes arenas written by [`encode`](Self::encode) — a bulk
    /// read straight into the struct-of-arrays layout. Validates every
    /// invariant the join loops rely on: node ids within the document,
    /// range extents within the arenas, per-element `start < end`, and
    /// strictly increasing `starts` within each stream (document order).
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
        let tree_len = rd_len(data, pos, "columns end-tree length")?;
        if tree_len > u32::MAX as usize {
            return Err(corrupt("end-tree length exceeds u32"));
        }
        let end_tree = get_u32_slice(data, pos, tree_len, "columns end tree")?;
        let range_count = rd_len(data, pos, "columns range count")?;
        let mut ranges = Vec::new();
        for _ in 0..range_count + 1 {
            let offset = rd_len(data, pos, "range offset")? as u64;
            let len = rd_len(data, pos, "range length")? as u64;
            let tree_offset = rd_len(data, pos, "range tree offset")? as u64;
            let tree_leaves = rd_len(data, pos, "range tree leaves")? as u64;
            let end = offset.checked_add(len).ok_or(corrupt("range overflow"))?;
            if end > n as u64 {
                return Err(corrupt("range exceeds column arenas"));
            }
            let tree_end = tree_offset
                .checked_add(2 * tree_leaves)
                .ok_or(corrupt("range tree overflow"))?;
            if tree_end > tree_len as u64 {
                return Err(corrupt("range exceeds end-tree arena"));
            }
            let (a, b) = (offset as usize, end as usize);
            for i in a..b {
                if starts[i] >= ends[i] {
                    return Err(corrupt("column element with start >= end"));
                }
                if i > a && starts[i - 1] >= starts[i] {
                    return Err(corrupt("column stream not in document order"));
                }
            }
            ranges.push(StreamRange {
                offset: offset as u32,
                len: len as u32,
                tree_offset: tree_offset as u32,
                tree_leaves: tree_leaves as u32,
            });
        }
        let all_range = ranges.pop().expect("range_count + 1 ranges were read");
        Ok(TagColumns {
            starts,
            ends,
            levels,
            nodes,
            end_tree,
            ranges,
            all_range,
        })
    }
}

/// Appends the max-segment-tree of `ends` onto `arena` and returns the
/// padded leaf count. Layout: 1-indexed implicit binary tree of size
/// `2 * leaves` (slot 0 unused), leaves at `leaves..2 * leaves`, padding
/// leaves hold 0 (the neutral element for max).
fn build_max_tree(ends: &[u32], arena: &mut Vec<u32>) -> u32 {
    if ends.is_empty() {
        return 0;
    }
    let leaves = ends.len().next_power_of_two();
    let base = arena.len();
    arena.resize(base + 2 * leaves, 0);
    arena[base + leaves..base + leaves + ends.len()].copy_from_slice(ends);
    for i in (1..leaves).rev() {
        arena[base + i] = arena[base + 2 * i].max(arena[base + 2 * i + 1]);
    }
    leaves as u32
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
    /// Transposes a document-ordered entry slice, including the end
    /// max-segment-tree (needed by `seek_end_at_least`).
    pub fn from_entries(entries: &[ElementEntry]) -> Self {
        let mut cols = OwnedColumns {
            starts: Vec::with_capacity(entries.len()),
            ends: Vec::with_capacity(entries.len()),
            levels: Vec::with_capacity(entries.len()),
            nodes: Vec::with_capacity(entries.len()),
            end_tree: Vec::new(),
        };
        for e in entries {
            debug_assert!(
                cols.starts
                    .last()
                    .map(|&s| s < e.region.start)
                    .unwrap_or(true),
                "columns must be built in document order"
            );
            cols.starts.push(e.region.start);
            cols.ends.push(e.region.end);
            cols.levels.push(e.region.level);
            cols.nodes.push(e.node);
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

    /// Reassembles the `i`-th element as an [`ElementEntry`].
    pub fn entry(&self, i: usize) -> ElementEntry {
        ElementEntry {
            node: self.nodes[i],
            region: RegionLabel::new(self.starts[i], self.ends[i], self.levels[i]),
        }
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

/// Forward-only cursor over a [`ColumnView`], mirroring the `TagStream`
/// head/advance contract and adding the galloping seeks.
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
    /// sentinel the holistic merge loops compare against.
    pub fn head_start(&self) -> u32 {
        self.view.starts.get(self.pos).copied().unwrap_or(u32::MAX)
    }

    /// Region end of the head, or `u32::MAX` once exhausted.
    pub fn head_end(&self) -> u32 {
        self.view.ends.get(self.pos).copied().unwrap_or(u32::MAX)
    }

    /// The head element, if any.
    pub fn head(&self) -> Option<ElementEntry> {
        if self.is_exhausted() {
            None
        } else {
            Some(self.view.entry(self.pos))
        }
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

    fn entry(node: u32, start: u32, end: u32, level: u16) -> ElementEntry {
        ElementEntry {
            node: NodeId::from_index(node as usize),
            region: RegionLabel::new(start, end, level),
        }
    }

    /// A recursive-nesting shape: ends are NOT monotonic.
    fn nested() -> Vec<ElementEntry> {
        vec![
            entry(0, 1, 100, 1),
            entry(1, 2, 40, 2),
            entry(2, 3, 10, 3),
            entry(3, 12, 30, 3),
            entry(4, 50, 60, 2),
            entry(5, 70, 71, 2),
        ]
    }

    #[test]
    fn owned_columns_round_trip_entries() {
        let entries = nested();
        let cols = OwnedColumns::from_entries(&entries);
        let view = cols.view();
        assert_eq!(view.len(), entries.len());
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(view.entry(i), *e);
        }
    }

    #[test]
    fn tag_columns_mirror_tag_index() {
        let a = Symbol::from_index(0);
        let b = Symbol::from_index(1);
        let mut tags = TagIndex::with_tag_count(2);
        let all: Vec<ElementEntry> = nested();
        tags.push(a, all[0]);
        tags.push(a, all[2]);
        tags.push(b, all[1]);
        tags.push(b, all[4]);
        let cols = TagColumns::build(&tags, &all, 2);
        for (sym, stream) in [(a, tags.stream(a)), (b, tags.stream(b))] {
            let view = cols.view(sym);
            assert_eq!(view.len(), stream.len());
            for (i, e) in stream.iter().enumerate() {
                assert_eq!(view.entry(i), *e, "tag {sym:?} entry {i}");
            }
        }
        assert_eq!(cols.view(Symbol::from_index(9)).len(), 0);
        assert_eq!(cols.all_elements().len(), all.len());
        assert!(cols.size_bytes() > 0);
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
        let entries = nested();
        let cols = OwnedColumns::from_entries(&entries);
        for from in 0..=entries.len() {
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
        let cols = OwnedColumns::from_entries(&nested());
        let mut cur = cols.view().cursor();
        assert_eq!(cur.head_start(), 1);
        assert_eq!(cur.seek_start_at_least(49), 4);
        assert_eq!(cur.head().unwrap().region.start, 50);
        cur.seek_start_at_least(u32::MAX);
        assert!(cur.is_exhausted());
        assert_eq!(cur.head_start(), u32::MAX);
        assert_eq!(cur.head_end(), u32::MAX);
        assert_eq!(cur.head(), None);
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
