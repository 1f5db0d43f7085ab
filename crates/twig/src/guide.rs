//! A twig pattern's embedding in the DataGuide, the one structural answer
//! position-aware completion and the rewriter's satisfiability check both
//! read: holistic evaluation on the strong DataGuide, in three passes.
//! Its [`spreads`] per root candidate are what the ranker bounds the
//! scores of each root path's rows with.

use crate::pattern::{Axis, QNodeId, TwigPattern};
use lotusx_guard::Ticker;
use lotusx_index::{DataGuide, GuideNodeId, IndexedDocument};
use lotusx_xml::Symbol;

/// Per query node (by [`QNodeId::index`](crate::QNodeId::index)), the
/// guide nodes it binds to in some full embedding of `pattern` into the
/// guide tree of `idx`, ascending; all empty if there is none, and before
/// any read if a tag is not in the document. A `/` root binds only
/// children of [`GuideNodeId::ROOT`]. Every guide node read is charged to
/// `ticker`, flushed before returning; `None` means it stopped. A `/` edge
/// reads children lists and candidates, a `//` edge one sweep over the
/// guide, so a `/`-only pattern costs nothing proportional to the guide.
pub fn embed(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    ticker: &mut Ticker,
) -> Option<Vec<Vec<GuideNodeId>>> {
    bind(idx, pattern, ticker).filter(|_| !ticker.flush())
}

fn bind(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    ticker: &mut Ticker,
) -> Option<Vec<Vec<GuideNodeId>>> {
    let nothing = || Some(vec![Vec::new(); pattern.len()]);
    let symbols = idx.document().symbols();
    // `None` tests nothing (a wildcard), `Some(None)` a tag the document
    // never interned, which labels no guide node.
    let tests: Vec<Option<Option<Symbol>>> = pattern
        .node_ids()
        .map(|q| pattern.node(q).test.tag_name().map(|t| symbols.get(t)))
        .collect();
    if tests.contains(&Some(None)) {
        return nothing();
    }
    let test = |q: QNodeId| tests[q.index()].flatten();
    let guide = idx.guide();
    let mut sets = vec![Vec::new(); pattern.len()];
    // `add_child` numbers a node after its parent, so id order is top down.
    // 1. Top down: what each query node reaches from its parent's
    // candidates (the root's parent is the guide root).
    for q in pattern.node_ids() {
        let node = pattern.node(q);
        let from = node
            .parent
            .map_or(&[GuideNodeId::ROOT][..], |p| &sets[p.index()]);
        sets[q.index()] = reach(guide, from, node.axis, test(q), ticker)?;
        if sets[q.index()].is_empty() {
            return nothing();
        }
    }
    // 2. Bottom up: keep a candidate only if every query child has a
    // surviving candidate below it.
    let mut shrank = vec![false; pattern.len()];
    for q in pattern.node_ids().rev() {
        for &c in &pattern.node(q).children {
            let (head, tail) = sets.split_at_mut(c.index());
            let (here, kids) = (&mut head[q.index()], &tail[0]);
            shrank[q.index()] |= keep_above(guide, here, kids, pattern.node(c).axis, ticker)?;
            if here.is_empty() {
                return nothing();
            }
        }
    }
    // 3. Top down again: keep what the surviving parent candidates reach.
    // A parent that lost nothing reaches every candidate already.
    for q in pattern.node_ids().skip(1) {
        let node = pattern.node(q);
        let p = node.parent.expect("only the root has no parent").index();
        if shrank[p] {
            // Both ascending: one merge.
            let mut below = reach(guide, &sets[p], node.axis, test(q), ticker)?.into_iter();
            let mut next = below.next();
            let before = sets[q.index()].len();
            sets[q.index()].retain(|&g| {
                while next.is_some_and(|b| b < g) {
                    next = below.next();
                }
                next == Some(g)
            });
            shrank[q.index()] |= sets[q.index()].len() < before;
        }
    }
    Some(sets)
}

/// What the candidates of one query node under one root candidate span
/// in the guide: the best specificity and the shallowest and deepest
/// depth among them. Nothing under the root candidate reads
/// `(0.0, u16::MAX, 0)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The highest [`DataGuide::specificity`] of a candidate.
    pub specificity: f64,
    /// The least [`DataGuide::depth`] of a candidate.
    pub shallowest: u16,
    /// The greatest [`DataGuide::depth`] of a candidate.
    pub deepest: u16,
}

impl Spread {
    const EMPTY: Spread = Spread {
        specificity: 0.0,
        shallowest: u16::MAX,
        deepest: 0,
    };

    /// The spread of one guide node.
    fn of(guide: &DataGuide, g: GuideNodeId) -> Spread {
        Spread {
            specificity: guide.specificity(g),
            shallowest: guide.depth(g),
            deepest: guide.depth(g),
        }
    }

    fn add(&mut self, other: Spread) {
        self.specificity = self.specificity.max(other.specificity);
        self.shallowest = self.shallowest.min(other.shallowest);
        self.deepest = self.deepest.max(other.deepest);
    }
}

/// Per root candidate `sets[root][i]` of an [`embed`]ding and per query
/// node `q`, the [`Spread`] of `q`'s candidates inside the root
/// candidate's guide subtree, at `i * pattern.len() + q.index()`. The
/// root's own entry is the root candidate alone; any other node's counts
/// only candidates strictly below it, since a match binds every other
/// node below its root.
///
/// One forward sweep from the first root candidate finds each guide
/// node's nearest root candidate at or above it; every candidate adds to
/// the root candidate nearest above it, and root candidates nested in
/// one another hand their totals up, innermost first. The sweep's guide
/// nodes are charged to `ticker`; `None` means it stopped.
pub fn spreads(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    sets: &[Vec<GuideNodeId>],
    ticker: &mut Ticker,
) -> Option<Vec<Spread>> {
    let guide = idx.guide();
    let width = pattern.len();
    let root = pattern.root().index();
    let roots = &sets[root];
    let mut out = vec![Spread::EMPTY; roots.len() * width];
    let Some(first) = roots.first() else {
        return Some(out);
    };
    let start = first.index();
    charge(ticker, guide.node_count() - start)?;
    // `nearest[g - start]`: the index in `roots` of the nearest root
    // candidate at or above `g`, or `NO_ROOT`. Parents come before
    // children.
    let mut nearest = vec![NO_ROOT; guide.node_count() - start];
    let mut anchors = roots.iter().enumerate().peekable();
    for g in (start..guide.node_count()).map(GuideNodeId::from_index) {
        nearest[g.index() - start] = match anchors.next_if(|&(_, &r)| r == g) {
            Some((i, _)) => i as u32,
            None => above(guide, &nearest, start, g),
        };
    }
    for q in (0..width).filter(|&q| q != root) {
        for &g in &sets[q] {
            let owner = above(guide, &nearest, start, g);
            if owner != NO_ROOT {
                out[owner as usize * width + q].add(Spread::of(guide, g));
            }
        }
    }
    for (i, &g) in roots.iter().enumerate().rev() {
        out[i * width + root] = Spread::of(guide, g);
        let owner = above(guide, &nearest, start, g);
        if owner != NO_ROOT {
            for q in (0..width).filter(|&q| q != root) {
                let inner = out[i * width + q];
                out[owner as usize * width + q].add(inner);
            }
        }
    }
    Some(out)
}

/// No root candidate, in [`spreads`]' sweep table.
const NO_ROOT: u32 = u32::MAX;

/// The nearest root candidate strictly above `g`, from [`spreads`]'
/// sweep table `nearest`.
fn above(guide: &DataGuide, nearest: &[u32], start: usize, g: GuideNodeId) -> u32 {
    guide
        .parent(g)
        .and_then(|p| p.index().checked_sub(start))
        .map_or(NO_ROOT, |p| nearest[p])
}

/// Charges `reads` guide nodes; `None` once the ticker stops.
fn charge(ticker: &mut Ticker, reads: usize) -> Option<()> {
    (!ticker.tick(reads as u64)).then_some(())
}

/// The children (`/`) or proper descendants (`//`) of the `from` nodes
/// (ascending) that pass `test`, ascending.
fn reach(
    guide: &DataGuide,
    from: &[GuideNodeId],
    axis: Axis,
    test: Option<Symbol>,
    ticker: &mut Ticker,
) -> Option<Vec<GuideNodeId>> {
    let passes = |g: &GuideNodeId| test.is_none_or(|t| guide.tag(*g) == Some(t));
    let n = guide.node_count();
    match axis {
        Axis::Child => {
            let mut out = Vec::with_capacity(from.iter().map(|&g| guide.children(g).len()).sum());
            for &g in from {
                let children = guide.children(g);
                charge(ticker, children.len())?;
                out.extend(children.iter().map(|&(_, c)| c).filter(passes));
            }
            out.sort_unstable();
            Some(out)
        }
        Axis::Descendant if from == [GuideNodeId::ROOT] => {
            charge(ticker, n - 1)?;
            Some((1..n).map(GuideNodeId::from_index).filter(passes).collect())
        }
        Axis::Descendant => {
            // Nodes are stored parent before child, so one forward sweep
            // settles a node's parent before the node.
            let start = from.first().map_or(n, |g| g.index());
            charge(ticker, n - start)?;
            let mut marked = vec![false; n];
            let mut anchors = from.iter().peekable();
            let mut out = Vec::new();
            for g in (start..n).map(GuideNodeId::from_index) {
                let under = guide.parent(g).is_some_and(|p| marked[p.index()]);
                let anchor = anchors.next_if_eq(&&g).is_some();
                marked[g.index()] = under || anchor;
                if under && passes(&g) {
                    out.push(g);
                }
            }
            Some(out)
        }
    }
}

/// Keeps the members of `set` that are parents (`/`) or proper
/// ancestors (`//`) of a `kids` node (both ascending); returns whether
/// any went.
fn keep_above(
    guide: &DataGuide,
    set: &mut Vec<GuideNodeId>,
    kids: &[GuideNodeId],
    axis: Axis,
    ticker: &mut Ticker,
) -> Option<bool> {
    let before = set.len();
    match axis {
        Axis::Child => {
            charge(ticker, set.iter().map(|&g| guide.children(g).len()).sum())?;
            let children = |g: &GuideNodeId| guide.children(*g).iter();
            set.retain(|g| children(g).any(|(_, c)| kids.binary_search(c).is_ok()));
        }
        Axis::Descendant => {
            // A reverse sweep settles a node before it marks its parent:
            // mark 1 is a kid, mark 2 a proper ancestor of one.
            let end = kids.last().map_or(0, |g| g.index() + 1);
            charge(ticker, end)?;
            let mut marks = vec![0u8; end];
            kids.iter().for_each(|g| marks[g.index()] = 1);
            for g in (1..end).rev() {
                if marks[g] != 0 {
                    let parent = guide.parent(GuideNodeId::from_index(g)).expect("non-root");
                    marks[parent.index()] |= 2;
                }
            }
            set.retain(|g| marks.get(g.index()).is_some_and(|m| m & 2 != 0));
        }
    }
    Some(set.len() < before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xpath::parse_query;
    use lotusx_guard::{Budget, QueryGuard};

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book><title/><author/></book>\
               <article><title/><journal/></article>\
               <book><chapter><title/></chapter></book>\
             </bib>",
        )
        .unwrap()
    }

    /// The tag paths each query node binds to.
    fn paths(idx: &IndexedDocument, query: &str) -> Vec<Vec<String>> {
        let pattern = parse_query(query).unwrap();
        let sets = embed(idx, &pattern, &mut QueryGuard::unlimited().ticker()).unwrap();
        let guide = idx.guide();
        let symbols = idx.document().symbols();
        let path = |mut g: GuideNodeId| {
            let mut tags = Vec::new();
            while let Some(tag) = guide.tag(g) {
                tags.push(symbols.resolve(tag));
                g = guide.parent(g).unwrap();
            }
            tags.reverse();
            tags.join("/")
        };
        let sorted = |set: Vec<GuideNodeId>| {
            let mut paths: Vec<String> = set.into_iter().map(path).collect();
            paths.sort();
            paths
        };
        sets.into_iter().map(sorted).collect()
    }

    #[test]
    fn each_query_node_binds_only_where_the_whole_pattern_embeds() {
        let idx = idx();
        // Without the journal, every element with a title below binds
        // the wildcard, and every title the title node.
        assert_eq!(
            paths(&idx, "//*[journal]//title"),
            vec![
                vec!["bib/article"],
                vec!["bib/article/journal"],
                vec!["bib/article/title"]
            ]
        );
        assert_eq!(
            paths(&idx, "/bib/*[journal]/title"),
            vec![
                vec!["bib"],
                vec!["bib/article"],
                vec!["bib/article/journal"],
                vec!["bib/article/title"]
            ]
        );
        assert_eq!(
            paths(&idx, "//*//title"),
            vec![
                vec!["bib", "bib/article", "bib/book", "bib/book/chapter"],
                vec![
                    "bib/article/title",
                    "bib/book/chapter/title",
                    "bib/book/title"
                ]
            ]
        );
    }

    #[test]
    fn a_pattern_that_does_not_embed_binds_nothing() {
        let idx = idx();
        for query in [
            "/book",
            "//article/author",
            "//chapter//journal",
            "//nosuch",
        ] {
            let sets = paths(&idx, query);
            assert!(sets.iter().all(Vec::is_empty), "{query}: {sets:?}");
        }
    }

    #[test]
    fn an_unknown_tag_reads_no_guide_node_and_a_child_chain_reads_no_sweep() {
        let idx = idx();
        let guard = QueryGuard::new(&Budget::unlimited().with_node_quota(1 << 40));
        let pattern = parse_query("//book/nosuch").unwrap();
        let sets = embed(&idx, &pattern, &mut guard.ticker()).unwrap();
        assert!(sets.iter().all(Vec::is_empty));
        assert_eq!(guard.nodes_visited(), 0);

        // The children lists of the guide root, bib and article on the
        // way down (1 + 2 + 2), then those of article and bib on the way
        // up (2 + 2).
        let pattern = parse_query("/bib/article/title").unwrap();
        embed(&idx, &pattern, &mut guard.ticker()).unwrap();
        assert_eq!(guard.nodes_visited(), 1 + 2 + 2 + 2 + 2);
    }

    /// Every root candidate's spread, against its definition: per query
    /// node, over its candidates strictly below the root candidate —
    /// root candidates nested in one another included.
    #[test]
    fn spreads_cover_each_root_candidates_subtree_nested_ones_too() {
        let idx = IndexedDocument::from_str(
            "<r><b><c/><b><d><c/></d></b></b><x><b><d><d><c/></d></d></b></x></r>",
        )
        .unwrap();
        let guide = idx.guide();
        let below = |mut g: GuideNodeId, root: GuideNodeId| loop {
            match guide.parent(g) {
                Some(p) if p == root => return true,
                Some(p) => g = p,
                None => return false,
            }
        };
        for query in ["//b//c", "//b[d]//c", "//b/c", "//*//c"] {
            let pattern = parse_query(query).unwrap();
            let unlimited = QueryGuard::unlimited();
            let sets = embed(&idx, &pattern, &mut unlimited.ticker()).unwrap();
            let got = spreads(&idx, &pattern, &sets, &mut unlimited.ticker()).unwrap();
            let width = pattern.len();
            assert_eq!(got.len(), sets[0].len() * width, "{query}");
            for (i, &root) in sets[0].iter().enumerate() {
                for (q, set) in sets.iter().enumerate() {
                    let mut want = Spread::EMPTY;
                    let members =
                        set.iter()
                            .filter(|&&g| if q == 0 { g == root } else { below(g, root) });
                    for &g in members {
                        want.add(Spread::of(guide, g));
                    }
                    assert_eq!(got[i * width + q], want, "{query}: root {i}, node {q}");
                }
            }
        }
    }

    #[test]
    fn a_starved_ticker_gives_no_answer() {
        let idx = idx();
        let pattern = parse_query("//book//title").unwrap();
        let guard = QueryGuard::new(&Budget::unlimited().with_node_quota(3));
        assert_eq!(embed(&idx, &pattern, &mut guard.ticker()), None);
        assert!(guard.is_tripped());
    }
}
