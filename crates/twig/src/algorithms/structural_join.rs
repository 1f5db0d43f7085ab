//! Binary structural join: reduce, count, enumerate.
//!
//! The pre-holistic decomposition — one stack-tree merge (Al-Khalifa et
//! al., ICDE 2002) per query edge over the two nodes' sorted streams —
//! without its characteristic cost: no `(ancestor, descendant)` pair is
//! ever written down. The join is a semi-join reduction that carries
//! counts, in three steps:
//!
//! * **Reduce** ([`reduce`]): bottom-up over the pattern, one pass per
//!   edge. Per parent position it records a range of child-stream
//!   positions holding every related child and the number of sub-twig
//!   matches under it — the sum of its related children's own counts —
//!   and multiplies that into the parent's count. One integer per stream
//!   element, whatever the nesting.
//! * **Count** ([`ReducedTwig::count`]): the sum of the root counts is
//!   the exact number of matches; no row has been built.
//! * **Enumerate** ([`ReducedTwig::for_each_row`]): a preorder walk over
//!   the stored ranges, one cursor per query node, hands the rows to a
//!   sink one at a time — in ascending row order when the pattern's
//!   preorder is its id order and the document's node ids ascend, which
//!   is what lets a ranker stop as soon as its k-th score is unbeatable.
//!
//! A child (`/`) edge between two tag streams is a *gather*: a child's
//! parent is a function of the element, which the index stores as a
//! parent slot, so one sequential pass over the children adds each
//! one's weight to its parent's sum, and one pass over the parents
//! multiplies the sums in. Every other edge — descendant (`//`), or one
//! with a `*` end, whose all-elements stream has no parent slots — is a
//! stack merge that walks both streams once. Children no open parent
//! contains are skipped in one galloping seek; parents are walked
//! linearly and the open ones — a nested chain — sit on a stack.

use crate::matcher::{node_columns, MatchSet, NodeColumns};
use crate::pattern::{Axis, QNodeId, TwigPattern};
use lotusx_guard::{QueryGuard, Ticker};
use lotusx_index::{ColumnView, IndexedDocument};
use lotusx_xml::NodeId;
use std::ops::Range;

/// Evaluates `pattern` in full: [`reduce`], then every row enumerated
/// into a canonical [`MatchSet`]. On a budget trip the set holds the rows
/// enumerated by then — every one a true match.
pub fn evaluate(idx: &IndexedDocument, pattern: &TwigPattern, guard: &QueryGuard) -> MatchSet {
    reduce(idx, pattern, guard).into_match_set(guard)
}

/// A twig reduced against a document: per query node its stream and, per
/// stream position, how many matches of the node's sub-twig bind it there;
/// per edge, where each parent's candidate children lie in the child
/// stream. Enough to count the matches exactly and to enumerate them
/// lazily, in document order.
pub struct ReducedTwig<'a> {
    columns: Vec<NodeColumns<'a>>,
    /// `(node, parent)` columns in preorder; the root is its own parent.
    order: Vec<(usize, usize)>,
    /// Per node: its edge to the parent is a child (`/`) edge, so a
    /// candidate in the parent's range must also sit one level below it.
    child_edge: Vec<bool>,
    /// Per node and stream position: the matches of the node's sub-twig
    /// rooted at that element, saturating. Zero also marks an element
    /// that relates to no element of the parent's stream.
    weights: Vec<Vec<u64>>,
    /// Per non-root node and *parent* stream position: node stream
    /// positions holding every element related to the parent — on a
    /// merged edge those starting inside its region, on a gathered one
    /// its first related child to its last.
    ranges: Vec<Vec<Range<u32>>>,
    rows_ascend: bool,
}

/// Reduces `pattern` against `idx` under a budget: one gather or merge
/// per edge, children before parents. Each charges one node visit per
/// stream element consumed or skipped. On a trip the edge under way
/// keeps the partial — and still true — sums it has, and an edge that
/// never ran empties the result: what remains enumerable is a subset of
/// the answer.
pub fn reduce<'a>(
    idx: &'a IndexedDocument,
    pattern: &TwigPattern,
    guard: &QueryGuard,
) -> ReducedTwig<'a> {
    let order: Vec<(usize, usize)> = pattern
        .preorder()
        .into_iter()
        .map(|q| (q.index(), pattern.node(q).parent.unwrap_or(q).index()))
        .collect();
    // Rows compare column by column in id order and bind in preorder:
    // the walk emits them ascending iff the two orders are one and each
    // stream's ids ascend.
    let rows_ascend =
        idx.columns().ids_ascend() && order.iter().enumerate().all(|(k, &(q, _))| k == q);
    let mut twig = ReducedTwig {
        columns: Vec::with_capacity(pattern.len()),
        order,
        child_edge: pattern
            .node_ids()
            .map(|q| pattern.node(q).axis == Axis::Child)
            .collect(),
        weights: vec![Vec::new(); pattern.len()],
        ranges: vec![Vec::new(); pattern.len()],
        rows_ascend,
    };
    for q in pattern.node_ids() {
        let columns = node_columns(idx, pattern, q);
        if columns.view().is_empty() {
            // One empty stream empties the answer: no merge can change
            // that, and no later stream needs filtering.
            twig.columns.clear();
            return twig;
        }
        twig.columns.push(columns);
    }
    for (weights, columns) in twig.weights.iter_mut().zip(&twig.columns) {
        *weights = vec![1; columns.view().len()];
    }
    let mut ticker = guard.ticker();
    // Children carry larger ids than their parent, so descending ids meet
    // every edge below a node before the edge above it: a child's weights
    // are final when its edge merges.
    for q in pattern.node_ids().rev() {
        let node = pattern.node(q);
        let Some(parent) = node.parent else { continue };
        if ticker.stopped() {
            // The parents of an edge that never merged would go on
            // counting matches nobody verified. The last edge in this
            // order hangs off the root, so emptying the root covers them.
            twig.weights[pattern.root().index()].fill(0);
            break;
        }
        let (above, below) = twig.weights.split_at_mut(q.index());
        twig.ranges[q.index()] = reduce_edge(
            &twig.columns[parent.index()],
            twig.columns[q.index()].view(),
            node.axis,
            &mut above[parent.index()],
            &mut below[0],
            &mut ticker,
        );
    }
    twig
}

/// One edge's reduce pass: a [`gather_edge`] for a child edge between two
/// tag streams (filtered or not: those are the streams with parent
/// slots), a [`merge_edge`] for any other.
fn reduce_edge(
    parents: &NodeColumns<'_>,
    children: ColumnView<'_>,
    axis: Axis,
    parent_weights: &mut [u64],
    child_weights: &mut [u64],
    ticker: &mut Ticker,
) -> Vec<Range<u32>> {
    let gather = axis == Axis::Child
        && !children.parent_slots().is_empty()
        && !parents.view().parent_slots().is_empty();
    match parents {
        NodeColumns::Borrowed(view) if gather => gather_edge(
            *view,
            children,
            |slot| slot as usize,
            parent_weights,
            child_weights,
            ticker,
        ),
        NodeColumns::Owned(cols) if gather => {
            let kept = cols.kept();
            gather_edge(
                cols.view(),
                children,
                |slot| kept.get(slot as usize).map_or(usize::MAX, |&k| k as usize),
                parent_weights,
                child_weights,
                ticker,
            )
        }
        _ => merge_edge(
            parents.view(),
            children,
            axis,
            parent_weights,
            child_weights,
            ticker,
        ),
    }
}

/// Children a gather pass handles between two budget ticks.
const GATHER_STRIDE: usize = 16;

/// One child edge's reduce pass, by gather: `position` maps a child's
/// parent slot to a parent-stream position (one past the stream, or
/// further, when the parent is not in it). A child is related iff the
/// parent there sits one level up and contains it — which also rejects
/// the slot of a parent with another tag. Its weight goes to that
/// parent's sum and widens the parent's range to it; any other child's
/// weight becomes zero. A second pass multiplies the sums into the
/// parents' weights.
///
/// Charges one node visit per child, in strides, and one per parent.
/// After a budget trip the children not reached get weight zero and the
/// parent pass still runs: the sums it multiplies in are true ones, over
/// the children seen. Sums saturate.
fn gather_edge(
    parents: ColumnView<'_>,
    children: ColumnView<'_>,
    position: impl Fn(u32) -> usize,
    parent_weights: &mut [u64],
    child_weights: &mut [u64],
    ticker: &mut Ticker,
) -> Vec<Range<u32>> {
    let (p_starts, p_ends, p_levels) = (parents.starts(), parents.ends(), parents.levels());
    let (c_starts, c_levels) = (children.starts(), children.levels());
    let c_slots = children.parent_slots();
    let mut ranges = vec![0..0; parents.len()];
    let mut sums = vec![0u64; parents.len()];
    let mut ci = 0;
    while ci < c_starts.len() {
        let to = (ci + GATHER_STRIDE).min(c_starts.len());
        if ticker.tick((to - ci) as u64) {
            break;
        }
        for c in ci..to {
            let (weight, pi, start) = (child_weights[c], position(c_slots[c]), c_starts[c]);
            let related = pi < p_starts.len()
                && u32::from(p_levels[pi]) + 1 == u32::from(c_levels[c])
                && p_starts[pi] < start
                && start < p_ends[pi];
            if weight == 0 || !related {
                child_weights[c] = 0;
                continue;
            }
            sums[pi] = sums[pi].saturating_add(weight);
            let range = &mut ranges[pi];
            if range.end == 0 {
                // The parent's first related child.
                range.start = c as u32;
            }
            range.end = c as u32 + 1;
        }
        ci = to;
    }
    child_weights[ci..].fill(0);
    ticker.tick(parents.len() as u64);
    for (weight, sum) in parent_weights.iter_mut().zip(sums) {
        *weight = weight.saturating_mul(sum);
    }
    ranges
}

/// A parent whose region the merge is inside of.
struct Open {
    /// Position in the parent stream.
    parent: usize,
    /// Child axis: the weights of the children found so far. Descendant
    /// axis: the running total when the parent opened.
    acc: u128,
}

/// The parent side of one edge's merge: what is open, and what closing
/// it writes down.
struct OpenParents<'m> {
    axis: Axis,
    ends: &'m [u32],
    weights: &'m mut [u64],
    ranges: Vec<Range<u32>>,
    /// The open parents — a nested chain, innermost last.
    open: Vec<Open>,
    /// Descendant axis: the weights of all related children so far.
    total: u128,
}

impl OpenParents<'_> {
    /// Opens parent `pi`; `ci` is the first child position that can lie
    /// inside it.
    fn open(&mut self, pi: usize, ci: usize) {
        self.ranges[pi].start = ci as u32;
        let acc = match self.axis {
            Axis::Child => 0,
            Axis::Descendant => self.total,
        };
        self.open.push(Open { parent: pi, acc });
    }

    /// Closes every open parent that ends before `start`; `ci` is the
    /// first child position no longer inside them.
    fn close_ended(&mut self, start: u32, ci: usize) {
        while let Some(top) = self.open.pop_if(|top| self.ends[top.parent] < start) {
            let sum = match self.axis {
                Axis::Child => top.acc,
                Axis::Descendant => self.total - top.acc,
            };
            let sum = u64::try_from(sum).unwrap_or(u64::MAX);
            self.ranges[top.parent].end = ci as u32;
            self.weights[top.parent] = self.weights[top.parent].saturating_mul(sum);
        }
    }
}

/// One edge's reduce pass: a stack merge over the two streams that, per
/// parent, records the child positions starting inside its region and
/// multiplies the summed weights of its related children into the
/// parent's weight; children related to no parent get weight zero.
///
/// *Related* on the descendant axis is every child under the parent. All
/// open parents contain the current child, so instead of adding its
/// weight to each of them the merge keeps one running total and a parent
/// takes the growth between its opening and its closing: a child costs
/// O(1) however deep the parents nest. On the child axis the only
/// candidate is the innermost open parent — the element's parent is its
/// deepest ancestor — and it qualifies iff it sits exactly one level up.
///
/// Sums are `u128` (2^32 children of weight 2^64 cannot overflow it) and
/// saturate into the `u64` weights.
fn merge_edge(
    parents: ColumnView<'_>,
    children: ColumnView<'_>,
    axis: Axis,
    parent_weights: &mut [u64],
    child_weights: &mut [u64],
    ticker: &mut Ticker,
) -> Vec<Range<u32>> {
    let (p_starts, p_levels) = (parents.starts(), parents.levels());
    let (c_starts, c_levels) = (children.starts(), children.levels());
    let mut up = OpenParents {
        axis,
        ends: parents.ends(),
        weights: parent_weights,
        ranges: vec![0..0; parents.len()],
        open: Vec::new(),
        total: 0,
    };
    let (mut pi, mut ci) = (0, 0);
    while ci < c_starts.len() {
        let c_start = c_starts[ci];
        // Open every parent that starts before this child does. (The
        // same element in both streams starts *with* it and is not its
        // own ancestor: the child goes first.)
        let mut visited = 1;
        while pi < p_starts.len() && p_starts[pi] < c_start {
            up.close_ended(p_starts[pi], ci);
            up.open(pi, ci);
            pi += 1;
            visited += 1;
        }
        up.close_ended(c_start, ci);
        match up.open.last_mut() {
            None => {
                // Nothing contains this child — nor any other that starts
                // before the next parent does. One seek disposes of the
                // gap (at least the child itself).
                let to = match p_starts.get(pi) {
                    Some(&next) => children.first_start_at_least(ci, next.saturating_add(1)),
                    None => c_starts.len(),
                };
                child_weights[ci..to].fill(0);
                visited += to - ci - 1;
                ci = to;
            }
            Some(innermost) => {
                let weight = u128::from(child_weights[ci]);
                let one_below =
                    || u32::from(p_levels[innermost.parent]) + 1 == u32::from(c_levels[ci]);
                match axis {
                    Axis::Descendant => up.total += weight,
                    Axis::Child if one_below() => innermost.acc += weight,
                    Axis::Child => child_weights[ci] = 0,
                }
                ci += 1;
            }
        }
        if ticker.tick(visited as u64) {
            break;
        }
    }
    // Out of children, or of budget: no later child starts inside what is
    // still open (a budget trip leaves sums over the children seen — true
    // ones, just not all, and the children not seen relate to nothing),
    // and a parent never opened has none.
    up.close_ended(u32::MAX, ci);
    up.weights[pi..].fill(0);
    child_weights[ci..].fill(0);
    up.ranges
}

impl ReducedTwig<'_> {
    /// The exact number of matches (saturating), from the root counts
    /// alone. After a budget trip during [`reduce`]: of the matches still
    /// enumerable.
    pub fn count(&self) -> u64 {
        let root = self.order[0].0;
        self.weights[root]
            .iter()
            .fold(0u64, |sum, &w| sum.saturating_add(w))
    }

    /// True when [`Self::for_each_row`] emits rows in ascending order —
    /// the canonical [`MatchSet`] order and the ranker's tie-break.
    pub fn rows_ascend(&self) -> bool {
        self.rows_ascend
    }

    /// The total length of the query nodes' streams: what one pass over
    /// every [`Self::stream`] reads.
    pub fn stream_elements(&self) -> usize {
        self.weights.iter().map(Vec::len).sum()
    }

    /// The stream of query node `q` — node, level, and whether the
    /// element is *live*: able to bind `q` in some match. Live is exact
    /// or slightly generous, never stingy: it holds for every element
    /// whose own sub-twig matches and that relates to *some* element of
    /// the parent's stream, whether or not that parent ends up in a match
    /// itself.
    pub fn stream(&self, q: QNodeId) -> impl Iterator<Item = (NodeId, u16, bool)> + '_ {
        let view = self
            .columns
            .get(q.index())
            .map_or(ColumnView::empty(), NodeColumns::view);
        (view.nodes().iter().zip(view.levels()))
            .zip(&self.weights[q.index()])
            .map(|((&node, &level), &weight)| (node, level, weight != 0))
    }

    /// Hands every match to `sink`, one row at a time
    /// (`row[q.index()]` is the element bound to `q`), until the sink
    /// returns `false` or the budget trips; returns whether the
    /// enumeration ran to its end.
    ///
    /// One preorder walk with a cursor per query node: a node's cursor
    /// scans the range stored for its parent's current binding and stops
    /// at elements of non-zero weight (on a child edge: one level below
    /// the parent). A bound parent has non-zero weight, so every range
    /// the walk opens holds such an element and every partial assignment
    /// completes — the work is the root stream, the rows, and on child
    /// edges the deeper descendants the level test passes over (on a
    /// gathered edge only those between the parent's first child and its
    /// last).
    ///
    /// Charges one node visit per cursor step and one candidate per row.
    pub fn for_each_row(
        &self,
        ticker: &mut Ticker,
        mut sink: impl FnMut(&[NodeId]) -> bool,
    ) -> bool {
        if self.columns.is_empty() {
            return true;
        }
        let views: Vec<ColumnView<'_>> = self.columns.iter().map(NodeColumns::view).collect();
        let depth = self.order.len();
        // `cursors[k]` is the unvisited rest of the range level `k` scans
        // (level 0: the root stream), `at[q]` the position bound to `q`.
        let mut cursors = vec![0..0; depth];
        let mut at = vec![0usize; depth];
        let mut row = vec![NodeId::DOCUMENT; depth];
        cursors[0] = 0..views[self.order[0].0].len() as u32;
        let mut k = 0;
        loop {
            // Advance level `k` to its next qualifying element.
            let (q, parent) = self.order[k];
            let parent_level = views[parent].levels()[at[parent]];
            let found = loop {
                let Some(pos) = cursors[k].next() else {
                    break None;
                };
                if ticker.tick(1) {
                    return false;
                }
                let pos = pos as usize;
                let level_fits = k == 0
                    || !self.child_edge[q]
                    || u32::from(views[q].levels()[pos]) == u32::from(parent_level) + 1;
                if self.weights[q][pos] != 0 && level_fits {
                    break Some(pos);
                }
            };
            let Some(pos) = found else {
                if k == 0 {
                    return true;
                }
                k -= 1;
                continue;
            };
            at[q] = pos;
            row[q] = views[q].nodes()[pos];
            if k + 1 < depth {
                // Descend: open the next node's range under its parent.
                k += 1;
                let (q, parent) = self.order[k];
                cursors[k] = self.ranges[q][at[parent]].clone();
            } else if ticker.tick_candidates(1) || !sink(&row) {
                return false;
            }
        }
    }

    /// Every row, as a canonical [`MatchSet`] (sorted only if the walk
    /// did not already emit them ascending).
    pub fn into_match_set(self, guard: &QueryGuard) -> MatchSet {
        let mut out = MatchSet::new(self.order.len());
        self.for_each_row(&mut guard.ticker(), |row| {
            out.push(row);
            true
        });
        if !self.rows_ascend {
            out.sort_dedup();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive;
    use crate::xpath::parse_query;
    use lotusx_index::OwnedColumns;
    use lotusx_labeling::RegionLabel;

    fn evaluate(idx: &IndexedDocument, pattern: &TwigPattern) -> MatchSet {
        super::evaluate(idx, pattern, &QueryGuard::unlimited())
    }

    fn naive_evaluate(idx: &IndexedDocument, pattern: &TwigPattern) -> MatchSet {
        naive::evaluate(idx, pattern, &QueryGuard::unlimited())
    }

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book><title>Data on the Web</title><author>Abiteboul</author>\
                     <author>Buneman</author><year>1999</year></book>\
               <book><title>XML Handbook</title><author>Goldfarb</author><year>2003</year></book>\
               <article><title>TwigStack</title><author>Bruno</author></article>\
             </bib>",
        )
        .unwrap()
    }

    type Element = (NodeId, RegionLabel);

    fn element(node: u32, start: u32, end: u32, level: u16) -> Element {
        (
            NodeId::from_index(node as usize),
            RegionLabel::new(start, end, level),
        )
    }

    /// What one merge leaves behind: per parent its child range and
    /// weight, and the child weights.
    type Merged = (Vec<Range<u32>>, Vec<u64>, Vec<u64>);

    /// The merge under test over hand-built streams; child `j` enters
    /// with weight `j + 1`, so sums tell the children apart.
    fn merge(parents: &[Element], children: &[Element], axis: Axis) -> Merged {
        let p = OwnedColumns::from_elements(parents.iter().copied());
        let c = OwnedColumns::from_elements(children.iter().copied());
        let mut parent_weights = vec![1; parents.len()];
        let mut child_weights: Vec<u64> = (1..=children.len() as u64).collect();
        let ranges = merge_edge(
            p.view(),
            c.view(),
            axis,
            &mut parent_weights,
            &mut child_weights,
            &mut QueryGuard::unlimited().ticker(),
        );
        (ranges, parent_weights, child_weights)
    }

    /// The same by definition, pair by pair.
    fn merge_by_definition(parents: &[Element], children: &[Element], axis: Axis) -> Merged {
        let related = |p: &RegionLabel, c: &RegionLabel| {
            p.is_ancestor_of(c) && (axis == Axis::Descendant || p.level + 1 == c.level)
        };
        let inside = |p: &RegionLabel, c: &RegionLabel| p.start < c.start && c.start < p.end;
        let mut ranges = Vec::new();
        let mut parent_weights = Vec::new();
        for (_, p) in parents {
            let lo = children.iter().take_while(|(_, c)| c.start <= p.start);
            let lo = lo.count();
            let len = children[lo..].iter().take_while(|(_, c)| inside(p, c));
            ranges.push(lo as u32..(lo + len.count()) as u32);
            let sum = (children.iter().enumerate())
                .filter(|(_, (_, c))| related(p, c))
                .map(|(j, _)| j as u64 + 1);
            parent_weights.push(sum.sum());
        }
        let child_weights = (children.iter().enumerate())
            .map(|(j, (_, c))| {
                let kept = parents.iter().any(|(_, p)| related(p, c));
                (j as u64 + 1) * u64::from(kept)
            })
            .collect();
        (ranges, parent_weights, child_weights)
    }

    #[test]
    fn merge_sums_descendants_under_every_nested_parent() {
        // a1(1,10) contains d1(2,3), a2(4,9) inside a1 contains d2(5,6).
        let parents = vec![element(1, 1, 10, 1), element(2, 4, 9, 2)];
        let children = vec![element(3, 2, 3, 2), element(4, 5, 6, 3)];
        let (ranges, parent_weights, child_weights) = merge(&parents, &children, Axis::Descendant);
        assert_eq!(ranges, [0..2, 1..2]);
        assert_eq!(parent_weights, [1 + 2, 2], "(a1,d1), (a1,d2), (a2,d2)");
        assert_eq!(child_weights, [1, 2]);
    }

    #[test]
    fn merge_on_the_child_axis_counts_only_the_level_below() {
        let parents = vec![element(1, 1, 10, 1), element(2, 4, 9, 2)];
        let children = vec![element(3, 2, 3, 2), element(4, 5, 6, 3)];
        let (ranges, parent_weights, _) = merge(&parents, &children, Axis::Child);
        // a1's range still spans d2 — the enumerator's level test skips it.
        assert_eq!(ranges, [0..2, 1..2]);
        assert_eq!(parent_weights, [1, 2], "(a1,d1) and (a2,d2) only");
    }

    #[test]
    fn merge_of_disjoint_streams_zeroes_both_sides() {
        let parents = vec![element(1, 1, 2, 1)];
        let children = vec![element(2, 3, 4, 1)];
        let (ranges, parent_weights, child_weights) = merge(&parents, &children, Axis::Descendant);
        assert!(ranges[0].is_empty());
        assert_eq!((parent_weights, child_weights), (vec![0], vec![0]));
    }

    #[test]
    fn merge_matches_the_definition_on_self_join_and_gaps() {
        // A shape exercising every path: parents that close childless
        // (early siblings), child gaps (runs no parent contains), and a
        // self-join (identical streams) where starts collide.
        let stream = vec![
            element(1, 1, 4, 1),
            element(2, 2, 3, 2),
            element(3, 5, 6, 1),
            element(4, 7, 20, 1),
            element(5, 8, 15, 2),
            element(6, 9, 10, 3),
            element(7, 16, 17, 2),
            element(8, 21, 22, 1),
        ];
        let sparse = vec![element(9, 9, 10, 3), element(10, 21, 22, 1)];
        for axis in [Axis::Descendant, Axis::Child] {
            for (p, c) in [(&stream, &stream), (&stream, &sparse), (&sparse, &stream)] {
                let (ranges, parent_weights, child_weights) = merge(p, c, axis);
                let expect = merge_by_definition(p, c, axis);
                // Only non-empty ranges are ever opened: compare those.
                for (i, range) in ranges.iter().enumerate() {
                    assert!(
                        *range == expect.0[i] || (range.is_empty() && expect.0[i].is_empty()),
                        "axis {axis:?} parent {i}: {range:?} vs {:?}",
                        expect.0[i]
                    );
                }
                assert_eq!(parent_weights, expect.1, "axis {axis:?}");
                assert_eq!(child_weights, expect.2, "axis {axis:?}");
            }
        }
    }

    fn view<'a>(idx: &'a IndexedDocument, tag: &str) -> ColumnView<'a> {
        idx.columns()
            .view(idx.document().symbols().get(tag).unwrap())
    }

    fn elements(view: ColumnView<'_>) -> Vec<Element> {
        (0..view.len()).map(|i| view.element(i)).collect()
    }

    /// One edge through [`reduce_edge`] — the gather on a child edge
    /// between tag streams — under `guard`; child `j` enters with weight
    /// `j + 1`.
    fn reduce_one(
        parents: &NodeColumns<'_>,
        children: ColumnView<'_>,
        axis: Axis,
        guard: &QueryGuard,
    ) -> Merged {
        let mut parent_weights = vec![1; parents.view().len()];
        let mut child_weights: Vec<u64> = (1..=children.len() as u64).collect();
        let ranges = reduce_edge(
            parents,
            children,
            axis,
            &mut parent_weights,
            &mut child_weights,
            &mut guard.ticker(),
        );
        (ranges, parent_weights, child_weights)
    }

    /// Parent and child streams over `idx`'s `s`, `t` and `u` streams:
    /// the self-join `//s/s` over recursive nesting, `t` under parents of
    /// three tags, and filtered parents and children (every other element
    /// kept, both ways round).
    fn edge_cases(idx: &IndexedDocument) -> Vec<(String, NodeColumns<'_>, NodeColumns<'_>)> {
        let borrowed = |tag| NodeColumns::Borrowed(view(idx, tag));
        let filtered = |tag, parity| {
            NodeColumns::Owned(OwnedColumns::filter(view(idx, tag), |i| i % 2 == parity))
        };
        let mut cases = Vec::new();
        for (p, c) in [("s", "s"), ("s", "t"), ("u", "t"), ("r", "s"), ("t", "s")] {
            cases.push((format!("//{p}/{c}"), borrowed(p), borrowed(c)));
            for parity in [0, 1] {
                let odd = ["even", "odd"][parity];
                cases.push((format!("{odd} {p} / {c}"), filtered(p, parity), borrowed(c)));
                cases.push((format!("{p} / {odd} {c}"), borrowed(p), filtered(c, parity)));
                cases.push((
                    format!("{odd} {p} / {odd} {c}"),
                    filtered(p, parity),
                    filtered(c, parity),
                ));
            }
        }
        cases
    }

    fn recursive_idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<r><s><s/></s><s/><s><s><s/><t/></s><s/><u><t/><s/></u><t/></s>\
             <t/><s><t/><t/><s><t/><s><t/></s></s></s></r>",
        )
        .unwrap()
    }

    #[test]
    fn gather_matches_the_definition_and_the_merge() {
        let idx = recursive_idx();
        for (case, parents, children) in edge_cases(&idx) {
            let children = children.view();
            assert!(!children.parent_slots().is_empty(), "{case}: a tag stream");
            let (p, c) = (elements(parents.view()), elements(children));
            let (ranges, parent_weights, child_weights) =
                reduce_one(&parents, children, Axis::Child, &QueryGuard::unlimited());
            let expect = merge_by_definition(&p, &c, Axis::Child);
            assert_eq!(parent_weights, expect.1, "{case}");
            assert_eq!(child_weights, expect.2, "{case}");
            let merged = merge(&p, &c, Axis::Child);
            assert_eq!((&merged.1, &merged.2), (&expect.1, &expect.2), "{case}");
            // A gathered range runs from the parent's first related child
            // to its last.
            for (i, (_, parent)) in p.iter().enumerate() {
                let related: Vec<u32> = (c.iter().enumerate())
                    .filter(|(_, (_, child))| parent.is_parent_of(child))
                    .map(|(j, _)| j as u32)
                    .collect();
                let tight = match (related.first(), related.last()) {
                    (Some(&first), Some(&last)) => first..last + 1,
                    _ => 0..0,
                };
                assert_eq!(ranges[i], tight, "{case} parent {i}");
            }
            // The descendant axis of the same streams still merges.
            let descendants = reduce_one(
                &parents,
                children,
                Axis::Descendant,
                &QueryGuard::unlimited(),
            );
            let expect = merge_by_definition(&p, &c, Axis::Descendant);
            assert_eq!(
                (descendants.1, descendants.2),
                (expect.1, expect.2),
                "{case}"
            );
        }
    }

    #[test]
    fn a_budget_trip_leaves_true_partial_sums_and_unreached_children_dead() {
        let mut xml = String::from("<r>");
        for _ in 0..20 {
            xml.push_str("<s><t/><s><t/></s></s>");
        }
        xml.push_str("<u><t/></u></r>");
        let idx = IndexedDocument::from_str(&xml).unwrap();
        let mut partial = 0;
        for (case, parents, children) in edge_cases(&idx) {
            for axis in [Axis::Child, Axis::Descendant] {
                let children = children.view();
                let full = reduce_one(&parents, children, axis, &QueryGuard::unlimited());
                for quota in 0..48 {
                    let budget = lotusx_guard::Budget::unlimited().with_node_quota(quota);
                    let (_, sums, weights) =
                        reduce_one(&parents, children, axis, &QueryGuard::new(&budget));
                    let at = format!("{case} {axis:?} quota {quota}");
                    assert!(sums.iter().zip(&full.1).all(|(s, f)| s <= f), "{at}");
                    let reached = weights.iter().zip(&full.2).take_while(|(w, f)| w == f);
                    let reached = reached.count();
                    assert!(weights[reached..].iter().all(|&w| w == 0), "{at}");
                    partial += usize::from(sums.iter().any(|&s| s != 0) && sums != full.1);
                }
            }
        }
        assert!(
            partial > 0,
            "some trip lands between the first child and the last"
        );
    }

    #[test]
    fn sums_saturate_instead_of_wrapping() {
        let parents = vec![element(1, 1, 10, 1)];
        let children = vec![element(2, 2, 3, 2), element(3, 4, 5, 2)];
        let p = OwnedColumns::from_elements(parents);
        let c = OwnedColumns::from_elements(children);
        for axis in [Axis::Descendant, Axis::Child] {
            let mut parent_weights = vec![3];
            let mut child_weights = vec![u64::MAX, u64::MAX];
            merge_edge(
                p.view(),
                c.view(),
                axis,
                &mut parent_weights,
                &mut child_weights,
                &mut QueryGuard::unlimited().ticker(),
            );
            assert_eq!(parent_weights, [u64::MAX], "{axis:?}");
        }
        // The gather, too.
        let idx = IndexedDocument::from_str("<r><s><t/><t/></s></r>").unwrap();
        let mut parent_weights = vec![3];
        let mut child_weights = vec![u64::MAX, u64::MAX];
        reduce_edge(
            &NodeColumns::Borrowed(view(&idx, "s")),
            view(&idx, "t"),
            Axis::Child,
            &mut parent_weights,
            &mut child_weights,
            &mut QueryGuard::unlimited().ticker(),
        );
        assert_eq!(parent_weights, [u64::MAX]);
    }

    #[test]
    fn count_and_rows_agree_without_building_rows_to_count() {
        let idx = idx();
        let pattern = parse_query("//book[title][author]/year").unwrap();
        let guard = QueryGuard::unlimited();
        let twig = reduce(&idx, &pattern, &guard);
        assert_eq!(twig.count(), 3);
        assert!(twig.rows_ascend());
        let mut rows = 0;
        let exhausted = twig.for_each_row(&mut guard.ticker(), |row| {
            assert_eq!(row.len(), 4);
            rows += 1;
            rows < 2
        });
        assert!(!exhausted, "the sink stopped the walk");
        assert_eq!(rows, 2);
        // The article's title and author relate to no book.
        let live = |q: usize| {
            let stream = twig.stream(QNodeId::from_index(q));
            stream.filter(|&(_, _, live)| live).count()
        };
        assert_eq!((live(0), live(1), live(2), live(3)), (2, 2, 3, 2));
    }

    #[test]
    fn an_empty_stream_empties_the_answer_before_any_merge() {
        let idx = idx();
        let guard = QueryGuard::new(&lotusx_guard::Budget::unlimited().with_node_quota(1 << 40));
        for q in ["//book[year >= 2024]/author", "//book/nosuch"] {
            let twig = reduce(&idx, &parse_query(q).unwrap(), &guard);
            assert_eq!(twig.count(), 0, "{q}");
            assert!(twig.for_each_row(&mut guard.ticker(), |_| panic!("no rows")));
            assert!(twig.into_match_set(&guard).is_empty());
        }
        assert_eq!(guard.nodes_visited(), 0, "no merge ran");
    }

    #[test]
    fn agrees_with_naive_on_paths_and_twigs() {
        let idx = idx();
        for q in [
            "//author",
            "//book/title",
            "//bib//author",
            "//book[title][author]/year",
            "//book[year >= 2000]/title",
            "//*[title][author]",
            "/bib/book/author",
        ] {
            let pattern = parse_query(q).unwrap();
            let a = naive_evaluate(&idx, &pattern);
            let b = evaluate(&idx, &pattern);
            assert_eq!(a, b, "query {q}");
        }
    }

    #[test]
    fn agrees_with_naive_on_recursive_structure() {
        let idx = IndexedDocument::from_str("<s><s><t/><s><t/></s></s><t/></s>").unwrap();
        for q in ["//s//t", "//s/t", "//s[s]/t", "//s//s//t"] {
            let pattern = parse_query(q).unwrap();
            assert_eq!(
                naive_evaluate(&idx, &pattern),
                evaluate(&idx, &pattern),
                "query {q}"
            );
        }
    }
}
