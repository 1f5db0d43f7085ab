//! TwigStack (Bruno, Koudas & Srivastava, SIGMOD 2002): the holistic twig
//! join.
//!
//! `get_next` only lets an element onto the stacks when it (recursively)
//! has matching descendants for the whole query subtree, which makes the
//! algorithm worst-case optimal for ancestor-descendant-only twigs. Path
//! solutions are emitted per leaf and merged into full matches at the end.
//! Parent-child edges are processed under ancestor-descendant semantics
//! and verified during path-solution expansion, the standard (correct but
//! sub-optimal) treatment.
//!
//! Two engineering additions over the paper's pseudo-code:
//!
//! * a query subtree whose leaf streams are all exhausted is marked *dead*
//!   and skipped by `get_next`. Dead subtrees can never contribute new
//!   path solutions (a future element cannot be the ancestor of an
//!   already-consumed one), and skipping them prevents the stall the
//!   textbook pseudo-code hits when one branch drains before the others;
//! * the streams are the index's struct-of-arrays region columns
//!   ([`lotusx_index::TagColumns`]), and `get_next`'s skip loop — "advance
//!   q until its head's subtree reaches the furthest child head" — is a
//!   single O(log n) seek over the per-stream end-maxima tree instead of
//!   an element-by-element walk. On low-selectivity streams this skips
//!   millions of elements per probe. [`evaluate_entrywise_guarded`] keeps
//!   the pre-columnar walk alive as the reference the benchmarks compare
//!   against.

use super::holistic_common::{clean_stack, expand_solutions, StackEntry};
use crate::matcher::{
    filtered_stream, merge_path_solutions_guarded, node_columns, MatchSet, NodeColumns,
};
use crate::pattern::{QNodeId, TwigPattern};
use lotusx_guard::{QueryGuard, Ticker};
use lotusx_index::{
    ColumnCursor, ColumnView, ElementEntry, IndexedDocument, OwnedColumns, TagStream,
};

/// Evaluates any twig pattern holistically.
pub fn evaluate(idx: &IndexedDocument, pattern: &TwigPattern) -> MatchSet {
    evaluate_guarded(idx, pattern, &QueryGuard::unlimited())
}

/// [`evaluate`] under a budget.
pub fn evaluate_guarded(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    guard: &QueryGuard,
) -> MatchSet {
    let columns: Vec<NodeColumns<'_>> = pattern
        .node_ids()
        .map(|q| node_columns(idx, pattern, q, false))
        .collect();
    let views: Vec<ColumnView<'_>> = columns.iter().map(|c| c.view()).collect();
    run_guarded(pattern, views.iter().map(|v| v.cursor()).collect(), guard)
}

/// Evaluates with caller-provided per-node streams (document-ordered) —
/// the guided variant prunes streams first. The main loop charges one
/// node visit per element processed and the `getNext` skip seek charges
/// one per element skipped, so truncation economics match the
/// element-by-element walk; on trip the scan stops and the path solutions
/// found so far are merged (each emitted solution is a verified
/// root-to-leaf chain, so partial output stays valid).
pub fn evaluate_with_streams_guarded(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    stream_data: Vec<Vec<ElementEntry>>,
    guard: &QueryGuard,
) -> MatchSet {
    let _ = idx;
    let owned: Vec<OwnedColumns> = stream_data
        .iter()
        .map(|s| OwnedColumns::from_entries_without_end_tree(s))
        .collect();
    let views: Vec<ColumnView<'_>> = owned.iter().map(|o| o.view()).collect();
    run_guarded(pattern, views.iter().map(|v| v.cursor()).collect(), guard)
}

/// What TwigStack needs from a document-ordered element stream. The
/// columnar cursor skips with one seek over its end-maxima tree; the
/// array-of-structs [`TagStream`] walks element by element.
trait Stream {
    fn head(&self) -> Option<ElementEntry>;
    /// Region start of the head (`u32::MAX` once exhausted).
    fn head_start(&self) -> u32;
    fn is_exhausted(&self) -> bool;
    fn advance(&mut self);
    /// Skips the elements that end before `end`, charging one node visit
    /// per element skipped so a tripped query stops within the same work
    /// envelope either way.
    fn skip_ending_before(&mut self, end: u32, ticker: &mut Ticker);
}

impl Stream for ColumnCursor<'_> {
    fn head(&self) -> Option<ElementEntry> {
        ColumnCursor::head(self)
    }
    fn head_start(&self) -> u32 {
        ColumnCursor::head_start(self)
    }
    fn is_exhausted(&self) -> bool {
        ColumnCursor::is_exhausted(self)
    }
    fn advance(&mut self) {
        ColumnCursor::advance(self)
    }
    fn skip_ending_before(&mut self, end: u32, ticker: &mut Ticker) {
        let skipped = self.seek_end_at_least(end);
        if skipped > 0 {
            ticker.tick(skipped as u64);
        }
    }
}

impl Stream for TagStream<'_> {
    fn head(&self) -> Option<ElementEntry> {
        TagStream::head(self)
    }
    fn head_start(&self) -> u32 {
        TagStream::head(self).map_or(u32::MAX, |e| e.region.start)
    }
    fn is_exhausted(&self) -> bool {
        TagStream::is_exhausted(self)
    }
    fn advance(&mut self) {
        TagStream::advance(self)
    }
    fn skip_ending_before(&mut self, end: u32, ticker: &mut Ticker) {
        while TagStream::head(self).is_some_and(|e| e.region.end < end) {
            TagStream::advance(self);
            if ticker.tick(1) {
                break;
            }
        }
    }
}

fn run_guarded<S: Stream>(pattern: &TwigPattern, cursors: Vec<S>, guard: &QueryGuard) -> MatchSet {
    let mut state = State {
        pattern,
        cursors,
        stacks: vec![Vec::new(); pattern.len()],
        solutions: LeafSolutions::new(pattern),
        ticker: guard.ticker(),
    };

    while state.subtree_alive(pattern.root()) {
        if state.ticker.tick(1) {
            break;
        }
        let qact = state.get_next(pattern.root());
        let entry = match state.cursors[qact.index()].head() {
            Some(e) => e,
            // Defensive: an alive node always has a head; bail if not.
            None => break,
        };
        let parent = pattern.node(qact).parent;
        if let Some(p) = parent {
            clean_stack(&mut state.stacks[p.index()], entry.region.start);
        }
        let parent_ok = match parent {
            None => true,
            Some(p) => !state.stacks[p.index()].is_empty(),
        };
        if parent_ok {
            clean_stack(&mut state.stacks[qact.index()], entry.region.start);
            let parent_top = parent.map(|p| state.stacks[p.index()].len()).unwrap_or(0);
            state.stacks[qact.index()].push(StackEntry { entry, parent_top });
            if pattern.node(qact).children.is_empty() {
                state
                    .solutions
                    .expand(pattern, &state.stacks, qact, entry, parent_top);
                state.stacks[qact.index()].pop();
            }
        }
        state.cursors[qact.index()].advance();
    }

    let LeafSolutions {
        paths, per_path, ..
    } = state.solutions;
    merge_path_solutions_guarded(pattern, &paths, &per_path, guard)
}

/// The emitted path solutions of one TwigStack run: one row set per
/// root-to-leaf path, filled as leaf elements are pushed.
struct LeafSolutions {
    paths: Vec<Vec<QNodeId>>,
    /// `per_path[i]` holds the solutions of `paths[i]`, path-aligned.
    per_path: Vec<MatchSet>,
    /// Query-node index → index of the path ending at that leaf.
    path_of_leaf: Vec<usize>,
    /// Scratch row reused by every expansion.
    row: Vec<lotusx_xml::NodeId>,
}

impl LeafSolutions {
    fn new(pattern: &TwigPattern) -> Self {
        let paths = pattern.root_to_leaf_paths();
        let mut path_of_leaf = vec![usize::MAX; pattern.len()];
        for (i, path) in paths.iter().enumerate() {
            path_of_leaf[path.last().expect("non-empty").index()] = i;
        }
        LeafSolutions {
            per_path: paths.iter().map(|p| MatchSet::new(p.len())).collect(),
            paths,
            path_of_leaf,
            row: vec![lotusx_xml::NodeId::DOCUMENT; pattern.len()],
        }
    }

    /// Records every path solution ending at the just-pushed `leaf` entry.
    fn expand(
        &mut self,
        pattern: &TwigPattern,
        stacks: &[Vec<StackEntry>],
        leaf: QNodeId,
        entry: ElementEntry,
        parent_top: usize,
    ) {
        let i = self.path_of_leaf[leaf.index()];
        let qpath = &self.paths[i];
        let row = &mut self.row[..qpath.len()];
        row[qpath.len() - 1] = entry.node;
        expand_solutions(
            pattern,
            qpath,
            stacks,
            qpath.len() - 1,
            entry,
            parent_top,
            row,
            &mut self.per_path[i],
        );
    }
}

struct State<'p, S> {
    pattern: &'p TwigPattern,
    cursors: Vec<S>,
    stacks: Vec<Vec<StackEntry>>,
    solutions: LeafSolutions,
    /// Budget checkpoint shared by the main loop and the skip seek.
    ticker: Ticker,
}

impl<S: Stream> State<'_, S> {
    /// Next start of a node's stream (`u32::MAX` once exhausted).
    fn next_l(&self, q: QNodeId) -> u32 {
        self.cursors[q.index()].head_start()
    }

    /// True while the subtree below `q` can still emit path solutions:
    /// at least one of its leaf streams has elements left.
    fn subtree_alive(&self, q: QNodeId) -> bool {
        let node = self.pattern.node(q);
        if node.children.is_empty() {
            return !self.cursors[q.index()].is_exhausted();
        }
        node.children.iter().any(|c| self.subtree_alive(*c))
    }

    /// The paper's `getNext`, restricted to alive subtrees.
    fn get_next(&mut self, q: QNodeId) -> QNodeId {
        // Borrowed from the pattern, not from `self`, so the recursion
        // below needs no copy of the child list.
        let children: &[QNodeId] = &self.pattern.node(q).children;
        for &qi in children {
            if self.subtree_alive(qi) {
                let ni = self.get_next(qi);
                if ni != qi {
                    return ni;
                }
            }
        }
        let alive = || children.iter().copied().filter(|c| self.subtree_alive(*c));
        let Some(nmin) = alive().min_by_key(|c| self.next_l(*c)) else {
            // Leaf, or an interior node whose branches are all dead —
            // behaves like a leaf.
            return q;
        };
        let nmax_l = alive().map(|c| self.next_l(c)).max().expect("non-empty");
        // Skip q-elements that end before the furthest child element
        // starts: they cannot contain a full set of child matches.
        self.cursors[q.index()].skip_ending_before(nmax_l, &mut self.ticker);
        if self.next_l(q) < self.next_l(nmin) {
            q
        } else {
            nmin
        }
    }
}

/// The pre-columnar TwigStack: identical logic over the array-of-structs
/// [`TagStream`]s, advancing element by element in the skip loop. Kept as
/// the measured baseline for the columnar engine (`join_bench` reports it
/// as `twigstack-entrywise`) and as an equivalence oracle in tests; not
/// reachable through [`crate::exec::Algorithm`].
pub fn evaluate_entrywise_guarded(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    guard: &QueryGuard,
) -> MatchSet {
    let stream_data: Vec<Vec<ElementEntry>> = pattern
        .node_ids()
        .map(|q| filtered_stream(idx, pattern, q))
        .collect();
    let streams = stream_data.iter().map(|s| TagStream::new(s)).collect();
    run_guarded(pattern, streams, guard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive;
    use crate::xpath::parse_query;

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book><title>Data on the Web</title><author>Abiteboul</author>\
                     <author>Buneman</author><year>1999</year></book>\
               <book><title>XML Handbook</title><author>Goldfarb</author><year>2003</year></book>\
               <article><title>TwigStack</title><author>Bruno</author><year>2002</year></article>\
             </bib>",
        )
        .unwrap()
    }

    fn check(idx: &IndexedDocument, q: &str) {
        let pattern = parse_query(q).unwrap();
        let reference = naive::evaluate(idx, &pattern);
        assert_eq!(reference, evaluate(idx, &pattern), "query {q}");
        assert_eq!(
            reference,
            evaluate_entrywise_guarded(idx, &pattern, &QueryGuard::unlimited()),
            "entrywise reference, query {q}"
        );
    }

    #[test]
    fn agrees_with_naive_on_twigs() {
        let idx = idx();
        for q in [
            "//book",
            "//book[title][author]",
            "//book[title][author]/year",
            "//bib[book][article]",
            "//book[year >= 2000]/title",
            "//*[title][author]",
            "//bib//book[author][title][year]",
            "/bib/book[author]",
        ] {
            check(&idx, q);
        }
    }

    #[test]
    fn agrees_with_naive_on_recursive_documents() {
        let idx = IndexedDocument::from_str(
            "<s><s><t>1</t><u>a</u><s><t>2</t></s></s><t>3</t><u>b</u></s>",
        )
        .unwrap();
        for q in [
            "//s[t][u]",
            "//s[s/t]//u",
            "//s[s][t]",
            "//s//s[t]",
            "//s[t]/s[t]",
        ] {
            check(&idx, q);
        }
    }

    #[test]
    fn drained_branch_does_not_stall_or_lose_solutions() {
        // x occurs once, early; b elements keep coming afterwards. The
        // a//x branch dies, yet //r[a//x][b] must still pair the old x
        // solution with the later b's.
        let idx =
            IndexedDocument::from_str("<r><a><x>1</x></a><b>1</b><b>2</b><b>3</b></r>").unwrap();
        check(&idx, "//r[a//x][b]");
        let pattern = parse_query("//r[a//x][b]").unwrap();
        assert_eq!(evaluate(&idx, &pattern).len(), 3);
    }

    #[test]
    fn cross_product_branches() {
        let idx = IndexedDocument::from_str(
            "<r><p><c1>1</c1><c1>2</c1><c2>x</c2><c2>y</c2><c2>z</c2></p></r>",
        )
        .unwrap();
        let pattern = parse_query("//p[c1][c2]").unwrap();
        assert_eq!(evaluate(&idx, &pattern).len(), 6);
        check(&idx, "//p[c1][c2]");
    }

    #[test]
    fn empty_streams_give_empty_results() {
        let idx = idx();
        let pattern = parse_query("//book[nosuch][author]").unwrap();
        assert!(evaluate(&idx, &pattern).is_empty());
    }

    #[test]
    fn single_node_pattern() {
        let idx = idx();
        let pattern = parse_query("//author").unwrap();
        assert_eq!(evaluate(&idx, &pattern).len(), 4);
    }

    #[test]
    fn columnar_and_entrywise_agree_on_deep_recursion() {
        // Heavily nested same-tag regions exercise the end-maxima seek
        // against the scalar skip walk.
        let mut xml = String::new();
        for _ in 0..30 {
            xml.push_str("<s><t>x</t>");
        }
        xml.push_str("<u>y</u>");
        for _ in 0..30 {
            xml.push_str("</s>");
        }
        let idx = IndexedDocument::from_str(&xml).unwrap();
        for q in ["//s[t][u]", "//s[s/t]//u", "//s//s[t]", "//s[t]/s[t]"] {
            let pattern = parse_query(q).unwrap();
            assert_eq!(
                evaluate(&idx, &pattern),
                evaluate_entrywise_guarded(&idx, &pattern, &QueryGuard::unlimited()),
                "query {q}"
            );
        }
    }
}
