//! Indexed SLCA over document-ordered keyword lists (XKSearch's indexed
//! lookup, Xu & Papakonstantinou, SIGMOD 2005).
//!
//! Rather than touching the whole tree, the algorithm scans only the
//! posting list of the rarest keyword. For each of its occurrences `v`
//! and every other keyword list `S`, the deepest ancestor of `v` whose
//! subtree contains an `S`-occurrence is `max(lca(v, pred_S(v)),
//! lca(v, succ_S(v)))` — the closest occurrences in document order are
//! found by binary search on the document-ordered list. Folding this over
//! all lists yields, per `v`, the deepest node containing `v` plus every
//! keyword; dropping candidates that are proper ancestors of other
//! candidates leaves exactly the SLCA set.
//!
//! Cost: `O(|S_min| · Σ_i (log|S_i| + depth))` — independent of document
//! size, unlike the bitmask oracle's `O(n)` pass.

use lotusx_index::IndexedDocument;
use lotusx_xml::{Document, NodeId};

/// One keyword's occurrence list in document order: node ids, which are
/// the preorder, so a binary search over them finds document-order
/// neighbours. It is the value index's own list, borrowed.
struct KeywordList<'a> {
    nodes: &'a [NodeId],
}

impl<'a> KeywordList<'a> {
    fn build(idx: &'a IndexedDocument, keyword: &str) -> Self {
        // Value-index postings are built in one preorder pass, so they are
        // already in document order; assert in debug builds.
        let nodes = idx.values().postings(keyword).nodes();
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        KeywordList { nodes }
    }

    /// Closest occurrence at or before `node` in document order, and the
    /// closest strictly after.
    fn neighbours(&self, node: NodeId) -> (Option<NodeId>, Option<NodeId>) {
        let pos = self.nodes.partition_point(|&n| n <= node);
        let pred = pos.checked_sub(1).map(|i| self.nodes[i]);
        let succ = self.nodes.get(pos).copied();
        (pred, succ)
    }
}

/// Lowest common ancestor of two elements, each given with its level,
/// by parent-walking (O(depth)); returned with its level, which the walk
/// counts down to, so the fold below reads a level only for each list
/// neighbour it meets.
fn lca(doc: &Document, (a, da): (NodeId, u16), (b, db): (NodeId, u16)) -> Option<(NodeId, u16)> {
    let (mut x, mut dx) = (a, da);
    let (mut y, mut dy) = (b, db);
    while dx > dy {
        x = doc.parent(x)?;
        dx -= 1;
    }
    while dy > dx {
        y = doc.parent(y)?;
        dy -= 1;
    }
    while x != y {
        x = doc.parent(x)?;
        y = doc.parent(y)?;
        dx -= 1;
    }
    (x != NodeId::DOCUMENT).then_some((x, dx))
}

/// SLCA via indexed lookup on the keyword posting lists.
///
/// Agrees with [`crate::bitmask::slca`] on every input (property-tested).
pub fn slca_indexed(idx: &IndexedDocument, keywords: &[&str]) -> Vec<NodeId> {
    if keywords.is_empty() {
        return Vec::new();
    }
    let mut lists: Vec<KeywordList> = keywords
        .iter()
        .map(|kw| KeywordList::build(idx, kw))
        .collect();
    if lists.iter().any(|l| l.nodes.is_empty()) {
        return Vec::new();
    }
    // Scan the rarest list.
    let min_idx = (0..lists.len())
        .min_by_key(|&i| lists[i].nodes.len())
        .expect("non-empty keyword set");
    let scan = lists.swap_remove(min_idx);

    let doc = idx.document();
    let with_level = |n: NodeId| (n, idx.level(n));
    let mut candidates: Vec<NodeId> = Vec::new();
    'occurrences: for &v in scan.nodes {
        // Fold: the deepest ancestor of v whose subtree has a hit from
        // every remaining list.
        let mut current = with_level(v);
        for list in &lists {
            let (pred, succ) = list.neighbours(current.0);
            let lca_pred = pred.and_then(|p| lca(doc, current, with_level(p)));
            let lca_succ = succ.and_then(|s| lca(doc, current, with_level(s)));
            current = match (lca_pred, lca_succ) {
                (Some(a), Some(b)) => {
                    if a.1 >= b.1 {
                        a
                    } else {
                        b
                    }
                }
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => continue 'occurrences,
            };
        }
        candidates.push(current.0);
    }

    // Sort in document order, dedup, and drop proper ancestors of other
    // candidates: in document order an ancestor sorts before all its
    // descendants, so a stack-less sweep against the last kept entry
    // suffices.
    candidates.sort();
    candidates.dedup();
    let mut kept: Vec<NodeId> = Vec::new();
    for c in candidates {
        while let Some(&last) = kept.last() {
            if c <= doc.subtree_end(last) {
                kept.pop();
            } else {
                break;
            }
        }
        kept.push(c);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmask;

    fn check(xml: &str, keywords: &[&str]) {
        let idx = IndexedDocument::from_str(xml).unwrap();
        let mut truth = bitmask::slca(&idx, keywords);
        truth.sort();
        let got = slca_indexed(&idx, keywords);
        assert_eq!(got, truth, "keywords {keywords:?} on {xml}");
    }

    #[test]
    fn agrees_with_bitmask_on_hand_cases() {
        let xml = "<r><a><x>alpha</x><y>beta</y></a><b><x>alpha</x></b><c>alpha beta</c></r>";
        check(xml, &["alpha", "beta"]);
        check(xml, &["alpha"]);
        check(xml, &["beta"]);
        check(xml, &["alpha", "beta", "missing"]);
    }

    #[test]
    fn nested_containers() {
        let xml = "<r><a>k1<b>k1 k2<c>k1</c></b></a></r>";
        check(xml, &["k1", "k2"]);
        check(xml, &["k1"]);
    }

    #[test]
    fn witnesses_split_across_siblings() {
        let xml = "<r><p><l>k1</l><m><n>k2</n></m></p><q>k1</q></r>";
        check(xml, &["k1", "k2"]);
    }

    #[test]
    fn three_keywords() {
        let xml = "<r><a>x y<b>z</b></a><c>x<d>y z</d></c><e>x y z</e></r>";
        check(xml, &["x", "y", "z"]);
        check(xml, &["x", "z"]);
        check(xml, &["y", "z"]);
    }

    #[test]
    fn root_level_answers() {
        let xml = "<r><a>k1</a><b>k2</b></r>";
        let idx = IndexedDocument::from_str(xml).unwrap();
        let hits = slca_indexed(&idx, &["k1", "k2"]);
        assert_eq!(hits.len(), 1);
        assert_eq!(idx.document().tag_name(hits[0]), Some("r"));
    }

    #[test]
    fn empty_inputs() {
        let idx = IndexedDocument::from_str("<r><a>k</a></r>").unwrap();
        assert!(slca_indexed(&idx, &[]).is_empty());
        assert!(slca_indexed(&idx, &["missing"]).is_empty());
    }
}
