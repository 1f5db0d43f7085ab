//! Guided TwigStack: position-aware stream pruning.
//!
//! LotusX's position-awareness applied to execution: before the holistic
//! join runs, every query node's stream is intersected with the set of
//! DataGuide positions that can *structurally* participate in a match.
//! An `author` stream for `//article/author` then no longer contains the
//! authors of books and inproceedings — they are discarded by one O(1)
//! guide-id test per entry instead of surviving into the join.
//!
//! Admissible guide positions are computed in `O(|Q| · |G|)` by two
//! sweeps over the guide (children are created after their parents, so a
//! reverse index order is a bottom-up traversal):
//!
//! 1. **bottom-up satisfiability** — `sat[q][g]`: the subtree of the
//!    pattern rooted at `q` can be embedded at guide position `g`;
//! 2. **top-down admissibility** — `adm[q][g]`: additionally, `g` is
//!    reachable from an admissible position of `q`'s parent via the
//!    connecting axis.

use super::twigstack;
use crate::matcher::{filtered_stream, MatchSet};
use crate::pattern::{Axis, NodeTest, QNodeId, TwigPattern};
use lotusx_guard::QueryGuard;
use lotusx_index::{DataGuide, ElementEntry, GuideNodeId, IndexedDocument};

/// Per-query-node admissible DataGuide positions.
pub struct GuideAdmissibility {
    /// `adm[q.index()][g.index()]`.
    adm: Vec<Vec<bool>>,
}

impl GuideAdmissibility {
    /// True if query node `q` may bind elements at guide position `g`.
    pub fn admits(&self, q: QNodeId, g: GuideNodeId) -> bool {
        self.adm[q.index()][g.index()]
    }

    /// Number of admissible positions for `q`.
    pub fn admissible_count(&self, q: QNodeId) -> usize {
        self.adm[q.index()].iter().filter(|b| **b).count()
    }
}

/// Computes the admissible guide positions for every query node.
pub fn admissibility(idx: &IndexedDocument, pattern: &TwigPattern) -> GuideAdmissibility {
    let guide = idx.guide();
    let symbols = idx.document().symbols();
    let n = guide.node_count();
    let nq = pattern.len();

    // Resolve node tests to symbols once; an unknown tag admits nothing.
    let tests: Vec<Option<Option<lotusx_xml::Symbol>>> = pattern
        .node_ids()
        .map(|q| match &pattern.node(q).test {
            NodeTest::Wildcard => Some(None),
            NodeTest::Tag(name) => symbols.get(name).map(Some),
        })
        .collect();

    // ---- bottom-up: sat[q][g] -------------------------------------
    let mut sat = vec![vec![false; n]; nq];
    // Query nodes are created parent-before-child, so reverse order is
    // bottom-up over the pattern.
    for q in pattern.node_ids().rev() {
        let node = pattern.node(q);
        let Some(test) = &tests[q.index()] else {
            continue; // unknown tag: sat stays all-false
        };
        // Helper arrays per child: does g have a satisfying child /
        // descendant for that child query node?
        let mut child_ok: Vec<Vec<bool>> = Vec::with_capacity(node.children.len());
        for &qc in &node.children {
            let ok = match pattern.node(qc).axis {
                Axis::Child => has_satisfying_child(guide, &sat[qc.index()]),
                Axis::Descendant => has_satisfying_descendant(guide, &sat[qc.index()]),
            };
            child_ok.push(ok);
        }
        for g_idx in 1..n {
            let g = guide_id(g_idx);
            let tag_ok = match test {
                None => true,
                Some(sym) => guide.tag(g) == Some(*sym),
            };
            sat[q.index()][g_idx] = tag_ok && child_ok.iter().all(|ok| ok[g_idx]);
        }
    }

    // ---- top-down: adm[q][g] ---------------------------------------
    let mut adm = vec![vec![false; n]; nq];
    let root = pattern.root();
    let root_axis = pattern.node(root).axis;
    for g_idx in 1..n {
        let g = guide_id(g_idx);
        let axis_ok = match root_axis {
            Axis::Child => guide.depth(g) == 1,
            Axis::Descendant => true,
        };
        adm[root.index()][g_idx] = axis_ok && sat[root.index()][g_idx];
    }
    for q in pattern.node_ids() {
        let node = pattern.node(q);
        let Some(parent) = node.parent else { continue };
        // Reachability from the parent's admissible set.
        let reachable = match node.axis {
            Axis::Child => parent_marked(guide, &adm[parent.index()]),
            Axis::Descendant => ancestor_marked(guide, &adm[parent.index()]),
        };
        for g_idx in 1..n {
            adm[q.index()][g_idx] = sat[q.index()][g_idx] && reachable[g_idx];
        }
    }

    GuideAdmissibility { adm }
}

fn guide_id(index: usize) -> GuideNodeId {
    GuideNodeId::from_index(index)
}

/// `out[g] = ∃ child c of g with set[c]`.
fn has_satisfying_child(guide: &DataGuide, set: &[bool]) -> Vec<bool> {
    let mut out = vec![false; set.len()];
    for (g_idx, slot) in out.iter_mut().enumerate() {
        let g = guide_id(g_idx);
        *slot = guide.children(g).iter().any(|(_, c)| set[c.index()]);
    }
    out
}

/// `out[g] = ∃ proper descendant d of g with set[d]` — one reverse sweep
/// (children have larger indexes than their parents).
fn has_satisfying_descendant(guide: &DataGuide, set: &[bool]) -> Vec<bool> {
    let mut out = vec![false; set.len()];
    for g_idx in (1..set.len()).rev() {
        let g = guide_id(g_idx);
        if let Some(parent) = guide.parent(g) {
            if set[g_idx] || out[g_idx] {
                out[parent.index()] = true;
            }
        }
    }
    out
}

/// `out[g] = parent of g is marked`.
fn parent_marked(guide: &DataGuide, marked: &[bool]) -> Vec<bool> {
    let mut out = vec![false; marked.len()];
    for (g_idx, slot) in out.iter_mut().enumerate().skip(1) {
        let g = guide_id(g_idx);
        if let Some(p) = guide.parent(g) {
            *slot = marked[p.index()];
        }
    }
    out
}

/// `out[g] = some proper ancestor of g is marked` — one forward sweep
/// (parents have smaller indexes).
fn ancestor_marked(guide: &DataGuide, marked: &[bool]) -> Vec<bool> {
    let mut out = vec![false; marked.len()];
    for g_idx in 1..marked.len() {
        let g = guide_id(g_idx);
        if let Some(p) = guide.parent(g) {
            out[g_idx] = marked[p.index()] || out[p.index()];
        }
    }
    out
}

/// The guide-pruned stream for one query node.
pub fn pruned_stream(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    q: QNodeId,
    adm: &GuideAdmissibility,
) -> Vec<ElementEntry> {
    filtered_stream(idx, pattern, q)
        .into_iter()
        .filter(|e| adm.admits(q, idx.guide_node(e.node)))
        .collect()
}

/// Evaluates the pattern with TwigStack over guide-pruned streams.
pub fn evaluate(idx: &IndexedDocument, pattern: &TwigPattern) -> MatchSet {
    evaluate_guarded(idx, pattern, &QueryGuard::unlimited())
}

/// [`evaluate`] under a budget: the admissibility sweeps charge their
/// `O(|Q| · |G|)` cost up front, then the pruned join runs under the
/// same guard (see [`twigstack::evaluate_with_streams_guarded`]).
pub fn evaluate_guarded(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    guard: &QueryGuard,
) -> MatchSet {
    let mut ticker = guard.ticker();
    let sweep_cost = (idx.guide().node_count() * pattern.len()) as u64;
    if ticker.tick(sweep_cost) {
        return MatchSet::new(pattern.len());
    }
    let adm = admissibility(idx, pattern);
    // Fast reject: a query node with no admissible position cannot match.
    if pattern.node_ids().any(|q| adm.admissible_count(q) == 0) {
        return MatchSet::new(pattern.len());
    }
    let streams: Vec<Vec<ElementEntry>> = pattern
        .node_ids()
        .map(|q| pruned_stream(idx, pattern, q, &adm))
        .collect();
    twigstack::evaluate_with_streams_guarded(idx, pattern, streams, guard)
}

/// Total stream entries before and after pruning (reported by E9d).
pub fn pruning_stats(idx: &IndexedDocument, pattern: &TwigPattern) -> (usize, usize) {
    let adm = admissibility(idx, pattern);
    let mut before = 0usize;
    let mut after = 0usize;
    for q in pattern.node_ids() {
        let full = filtered_stream(idx, pattern, q);
        before += full.len();
        after += full
            .iter()
            .filter(|e| adm.admits(q, idx.guide_node(e.node)))
            .count();
    }
    (before, after)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive;
    use crate::xpath::parse_query;

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<dblp>\
               <article><author>a1</author><title>t1</title></article>\
               <article><author>a2</author><title>t2</title></article>\
               <book><author>a3</author><publisher>p1</publisher></book>\
               <inproceedings><author>a4</author><booktitle>b1</booktitle></inproceedings>\
             </dblp>",
        )
        .unwrap()
    }

    #[test]
    fn pruning_removes_impossible_context_entries() {
        let idx = idx();
        let pattern = parse_query("//article/author").unwrap();
        let (before, after) = pruning_stats(&idx, &pattern);
        // author stream has 4 entries; only 2 sit under articles.
        assert_eq!(before, 2 + 4);
        assert_eq!(after, 2 + 2);
    }

    #[test]
    fn agrees_with_naive_on_twigs() {
        let idx = idx();
        for q in [
            "//article/author",
            "//dblp//author",
            "//article[author][title]",
            "//book[publisher]/author",
            "//*[author]",
            "/dblp/article/title",
            "//article/publisher",
        ] {
            let pattern = parse_query(q).unwrap();
            assert_eq!(
                evaluate(&idx, &pattern),
                naive::evaluate(&idx, &pattern),
                "query {q}"
            );
        }
    }

    #[test]
    fn unknown_tags_short_circuit() {
        let idx = idx();
        let pattern = parse_query("//nosuch[author]").unwrap();
        assert!(evaluate(&idx, &pattern).is_empty());
    }

    #[test]
    fn agrees_on_recursive_structures() {
        let idx = IndexedDocument::from_str(
            "<s><s><t>1</t><u>a</u><s><t>2</t></s></s><t>3</t><u>b</u></s>",
        )
        .unwrap();
        for q in ["//s[t][u]", "//s//s[t]", "//s/s/t", "//s[s/t]//u"] {
            let pattern = parse_query(q).unwrap();
            assert_eq!(
                evaluate(&idx, &pattern),
                naive::evaluate(&idx, &pattern),
                "query {q}"
            );
        }
    }

    #[test]
    fn admissibility_counts_are_sane() {
        let idx = idx();
        let pattern = parse_query("//article/author").unwrap();
        let adm = admissibility(&idx, &pattern);
        // article can only sit at one guide position; its author likewise.
        assert_eq!(adm.admissible_count(pattern.root()), 1);
        let author = pattern.node(pattern.root()).children[0];
        assert_eq!(adm.admissible_count(author), 1);
    }
}
