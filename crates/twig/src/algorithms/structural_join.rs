//! Binary structural-join baseline.
//!
//! The pre-holistic decomposition: every query edge becomes one stack-tree
//! structural join (Al-Khalifa et al., ICDE 2002) over the two nodes'
//! sorted streams, producing an explicit `(ancestor, descendant)` pair list
//! per edge. Full matches are then stitched together along the twig. The
//! per-edge pair lists are the characteristic cost of this approach — they
//! can dwarf the final result, which is precisely what holistic joins
//! avoid.
//!
//! The merge scans the index's struct-of-arrays region columns and skips
//! with galloping binary search on both sides: descendants that start
//! before any live ancestor jump forward in one seek, and ancestors whose
//! subtrees end before the current descendant (dead — they can never
//! contain a later descendant either) jump via the per-stream end-maxima
//! tree. Emitted pairs are identical to the element-by-element merge.
//!
//! Pairs are stream *positions*, not node ids, so the stitch needs only
//! arrays: each edge's pairs are counting-sorted into a CSR adjacency over
//! the parent stream ([`EdgeLists`]), bottom-up, dropping descendants whose
//! own subtree cannot complete. The stitch then walks the twig in preorder
//! with one cursor per query node; every partial assignment it touches
//! extends to a match, so its work is proportional to the output.

use crate::matcher::{node_columns, MatchSet, NodeColumns};
use crate::pattern::{Axis, TwigPattern};
use lotusx_guard::{QueryGuard, Ticker};
use lotusx_index::{ColumnView, IndexedDocument};
use lotusx_xml::NodeId;

/// Evaluates `pattern` with one binary structural join per edge, under a
/// budget. The explicit per-edge pair lists are this algorithm's blow-up
/// site, so the join charges one node visit per pair emitted (and one per
/// element skipped); on trip later edges get incomplete (possibly empty)
/// pair lists and the stitch stops early — every stitched match still
/// satisfies all its edges, so partial output is valid.
pub fn evaluate(idx: &IndexedDocument, pattern: &TwigPattern, guard: &QueryGuard) -> MatchSet {
    // Columnar streams per query node.
    let columns: Vec<NodeColumns<'_>> = pattern
        .node_ids()
        .map(|q| node_columns(idx, pattern, q))
        .collect();
    let views: Vec<ColumnView<'_>> = columns.iter().map(|c| c.view()).collect();
    let mut ticker = guard.ticker();

    // One pair list per non-root query node (its edge to the parent).
    let mut edge_pairs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); pattern.len()];
    for q in pattern.node_ids() {
        let node = pattern.node(q);
        let Some(parent) = node.parent else { continue };
        if ticker.stopped() {
            // A missing pair list only removes matches, never invents
            // them: the stitch treats it as "no descendants".
            break;
        }
        edge_pairs[q.index()] = stack_tree_join_columns(
            views[parent.index()],
            views[q.index()],
            node.axis,
            &mut ticker,
        );
    }

    // Bottom-up (children carry larger ids than their parent): a stream
    // position is alive iff every child edge still lists a descendant
    // under it, and an edge keeps only pairs whose descendant is alive.
    let mut lists = vec![EdgeLists::default(); pattern.len()];
    let mut alive_roots: Option<Vec<bool>> = None;
    for q in pattern.node_ids().rev() {
        let node = pattern.node(q);
        let alive = (!node.children.is_empty()).then(|| {
            (0..views[q.index()].len())
                .map(|i| node.children.iter().all(|c| lists[c.index()].any_under(i)))
                .collect::<Vec<bool>>()
        });
        match node.parent {
            Some(parent) => {
                let pairs = std::mem::take(&mut edge_pairs[q.index()]);
                lists[q.index()] =
                    EdgeLists::build(&pairs, views[parent.index()].len(), alive.as_deref());
            }
            None => alive_roots = alive,
        }
    }

    // Stitch: a preorder walk with one cursor per query node. Level 0 is
    // the root stream; level `k` iterates the edge list of `order[k]`
    // under its parent's current binding (`cursors[k]` is the unvisited
    // rest of that list, `at[q]` the stream position bound to node `q`).
    let order: Vec<(usize, usize)> = pattern
        .preorder()
        .into_iter()
        .map(|q| (q.index(), pattern.node(q).parent.unwrap_or(q).index()))
        .collect();
    let mut out = MatchSet::new(pattern.len());
    let mut cursors = vec![(0usize, 0usize); order.len()];
    let mut at = vec![0u32; pattern.len()];
    let mut row = vec![NodeId::DOCUMENT; pattern.len()];
    let bind = |q: usize, pos: u32, at: &mut [u32], row: &mut [NodeId]| {
        at[q] = pos;
        row[q] = views[q].nodes()[pos as usize];
    };
    for root in 0..views[pattern.root().index()].len() {
        if ticker.tick(1) {
            break;
        }
        if alive_roots.as_ref().is_some_and(|alive| !alive[root]) {
            continue;
        }
        bind(order[0].0, root as u32, &mut at, &mut row);
        let mut k = 1;
        loop {
            if k == order.len() {
                out.push(&row);
                k -= 1;
            } else {
                // Just descended to level k: open its list.
                let (q, parent) = order[k];
                cursors[k] = lists[q].range(at[parent] as usize);
            }
            // Advance the deepest level that has something left.
            while k > 0 && cursors[k].0 == cursors[k].1 {
                k -= 1;
            }
            if k == 0 {
                break;
            }
            let q = order[k].0;
            bind(q, lists[q].targets[cursors[k].0], &mut at, &mut row);
            cursors[k].0 += 1;
            k += 1;
        }
    }
    out.sort_dedup();
    out
}

/// One edge's surviving pairs as a CSR adjacency: for every position in
/// the parent stream, the positions in the child stream it pairs with, in
/// document order.
#[derive(Clone, Default)]
struct EdgeLists {
    /// `ends[a]` is the end of `a`'s run in `targets`; it starts where
    /// `a - 1`'s ends.
    ends: Vec<u32>,
    targets: Vec<u32>,
}

impl EdgeLists {
    /// Counting-sorts `pairs` (in descendant order, as the join emits
    /// them) by ancestor position, keeping only descendants marked alive.
    fn build(pairs: &[(u32, u32)], parent_len: usize, alive: Option<&[bool]>) -> Self {
        let kept = || {
            pairs
                .iter()
                .filter(|&&(_, d)| alive.is_none_or(|alive| alive[d as usize]))
        };
        let mut ends = vec![0u32; parent_len];
        for &(a, _) in kept() {
            ends[a as usize] += 1;
        }
        let mut total = 0u32;
        for slot in &mut ends {
            total += std::mem::replace(slot, total);
        }
        // Each `ends[a]` now holds the start of a's run and advances to
        // its end as the run fills.
        let mut targets = vec![0u32; total as usize];
        for &(a, d) in kept() {
            targets[ends[a as usize] as usize] = d;
            ends[a as usize] += 1;
        }
        EdgeLists { ends, targets }
    }

    /// The `targets` range paired with parent position `a`.
    fn range(&self, a: usize) -> (usize, usize) {
        let start = a.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        (start as usize, self.ends[a] as usize)
    }

    fn any_under(&self, a: usize) -> bool {
        let (start, end) = self.range(a);
        start < end
    }
}

/// The stack-tree structural join: all `(a, d)` with `a` from `ancestors`,
/// `d` from `descendants`, and `a` an ancestor (or parent, per `axis`) of
/// `d`. Both inputs are in document order; output cost is
/// `O(|A| + |D| + |result|)` — with the galloping skips, the `|A| + |D|`
/// term drops to the number of elements that actually participate.
///
/// Charges one node visit per descendant consumed or skipped and per pair
/// emitted; on trip the output is a truncated (but real) pair list. Pairs
/// are `(ancestor, descendant)` positions in the two streams, grouped by
/// descendant in document order.
fn stack_tree_join_columns(
    ancestors: ColumnView<'_>,
    descendants: ColumnView<'_>,
    axis: Axis,
    ticker: &mut Ticker,
) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let (a_starts, a_ends) = (ancestors.starts(), ancestors.ends());
    let a_levels = ancestors.levels();
    let (d_starts, d_ends) = (descendants.starts(), descendants.ends());
    let d_levels = descendants.levels();
    // Stack of indices into the ancestor columns (a nested chain).
    let mut stack: Vec<u32> = Vec::new();
    let mut acur = ancestors.cursor();
    let mut dcur = descendants.cursor();
    while !dcur.is_exhausted() {
        let di = dcur.position();
        let dstart = d_starts[di];
        // Push every ancestor that starts before d does. Ancestors whose
        // subtree ends before d starts are dead — they cannot contain
        // this or any later descendant — so the cursor seeks straight to
        // the next one whose end reaches d.
        while !acur.is_exhausted() && acur.head_start() < dstart {
            if acur.head_end() < dstart {
                let skipped = acur.seek_end_at_least(dstart);
                let _ = ticker.tick(skipped as u64);
                continue;
            }
            let ai = acur.position();
            // Pop finished ancestors first.
            while let Some(&top) = stack.last() {
                if a_ends[top as usize] < a_starts[ai] {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push(ai as u32);
            acur.advance();
        }
        // Pop ancestors that ended before d starts.
        while let Some(&top) = stack.last() {
            if a_ends[top as usize] < dstart {
                stack.pop();
            } else {
                break;
            }
        }
        if stack.is_empty() {
            // Nothing contains this descendant — nor any other that
            // starts before the next ancestor does. One seek disposes of
            // the whole gap (at least d itself).
            if acur.is_exhausted() {
                break;
            }
            let next_a = acur.head_start();
            let skipped = dcur.seek_start_at_least(next_a.saturating_add(1));
            if ticker.tick(skipped.max(1) as u64) {
                break;
            }
            continue;
        }
        if ticker.tick(1) {
            break;
        }
        // Every remaining stack entry contains d.
        let (dend, dlevel) = (d_ends[di], d_levels[di]);
        for &a in &stack {
            let ai = a as usize;
            let contains = a_starts[ai] < dstart && dend < a_ends[ai];
            if contains && (axis == Axis::Descendant || a_levels[ai] + 1 == dlevel) {
                out.push((a, di as u32));
                if ticker.tick(1) {
                    return out;
                }
            }
        }
        dcur.advance();
    }
    out
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

    /// The join under test, over hand-built streams, as node pairs.
    fn stack_tree_join(
        ancestors: &[Element],
        descendants: &[Element],
        axis: Axis,
    ) -> Vec<(NodeId, NodeId)> {
        let anc = OwnedColumns::from_elements(ancestors.iter().copied());
        let desc = OwnedColumns::from_elements(descendants.iter().copied());
        let mut ticker = QueryGuard::unlimited().ticker();
        stack_tree_join_columns(anc.view(), desc.view(), axis, &mut ticker)
            .into_iter()
            .map(|(a, d)| (ancestors[a as usize].0, descendants[d as usize].0))
            .collect()
    }

    /// The element-by-element merge, kept as the oracle the galloping
    /// join is checked against.
    fn stack_tree_join_scalar(
        ancestors: &[Element],
        descendants: &[Element],
        axis: Axis,
    ) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        let mut stack: Vec<Element> = Vec::new();
        let mut ai = 0usize;
        for &(d_node, d) in descendants {
            while ai < ancestors.len() && ancestors[ai].1.start < d.start {
                let a = ancestors[ai];
                while stack.last().is_some_and(|top| top.1.end < a.1.start) {
                    stack.pop();
                }
                stack.push(a);
                ai += 1;
            }
            while stack.last().is_some_and(|top| top.1.end < d.start) {
                stack.pop();
            }
            for (a_node, a) in &stack {
                if a.is_ancestor_of(&d) && (axis == Axis::Descendant || a.level + 1 == d.level) {
                    out.push((*a_node, d_node));
                }
            }
        }
        out
    }

    #[test]
    fn stack_tree_join_ad_pairs() {
        // a1(1,10) contains d1(2,3), a2(4,9) inside a1 contains d2(5,6).
        let ancestors = vec![element(1, 1, 10, 1), element(2, 4, 9, 2)];
        let descendants = vec![element(3, 2, 3, 2), element(4, 5, 6, 3)];
        let pairs = stack_tree_join(&ancestors, &descendants, Axis::Descendant);
        assert_eq!(pairs.len(), 3); // (a1,d1), (a1,d2), (a2,d2)
    }

    #[test]
    fn stack_tree_join_pc_filters_levels() {
        let ancestors = vec![element(1, 1, 10, 1), element(2, 4, 9, 2)];
        let descendants = vec![element(3, 2, 3, 2), element(4, 5, 6, 3)];
        let pairs = stack_tree_join(&ancestors, &descendants, Axis::Child);
        assert_eq!(
            pairs,
            vec![
                (NodeId::from_index(1), NodeId::from_index(3)),
                (NodeId::from_index(2), NodeId::from_index(4)),
            ]
        );
    }

    #[test]
    fn stack_tree_join_disjoint_inputs() {
        let ancestors = vec![element(1, 1, 2, 1)];
        let descendants = vec![element(2, 3, 4, 1)];
        assert!(stack_tree_join(&ancestors, &descendants, Axis::Descendant).is_empty());
    }

    #[test]
    fn galloping_join_matches_scalar_join_on_self_join_and_gaps() {
        // A shape exercising every skip path: dead ancestors (early
        // siblings), descendant gaps (runs with no live ancestor), and a
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
            for (a, d) in [(&stream, &stream), (&stream, &sparse), (&sparse, &stream)] {
                let mut expect = stack_tree_join_scalar(a, d, axis);
                let mut got = stack_tree_join(a, d, axis);
                expect.sort();
                got.sort();
                assert_eq!(got, expect, "axis {axis:?}");
            }
        }
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
