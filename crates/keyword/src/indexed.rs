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
use lotusx_labeling::DocumentLabels;
use lotusx_xml::{Document, NodeId};

/// One keyword's occurrence list in document order, with region starts
/// for binary search.
struct KeywordList {
    starts: Vec<u32>,
    nodes: Vec<NodeId>,
}

impl KeywordList {
    fn build(idx: &IndexedDocument, keyword: &str) -> Self {
        let labels = idx.labels();
        // Value-index postings are built in one preorder pass, so they are
        // already in document order; assert in debug builds.
        let postings = idx.values().postings(keyword);
        let starts: Vec<u32> = postings
            .iter()
            .map(|p| labels.region(p.node).start)
            .collect();
        debug_assert!(starts.windows(2).all(|w| w[0] < w[1]));
        KeywordList {
            starts,
            nodes: postings.iter().map(|p| p.node).collect(),
        }
    }

    /// Closest occurrence at or before `start` in document order, and the
    /// closest strictly after.
    fn neighbours(&self, start: u32) -> (Option<NodeId>, Option<NodeId>) {
        let pos = self.starts.partition_point(|&s| s <= start);
        let pred = pos.checked_sub(1).map(|i| self.nodes[i]);
        let succ = self.nodes.get(pos).copied();
        (pred, succ)
    }
}

/// Lowest common ancestor of two elements by parent-walking (O(depth)).
fn lca(doc: &Document, labels: &DocumentLabels, a: NodeId, b: NodeId) -> Option<NodeId> {
    let mut x = a;
    let mut y = b;
    let mut dx = labels.region(x).level;
    let mut dy = labels.region(y).level;
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
    }
    if x == NodeId::DOCUMENT {
        None
    } else {
        Some(x)
    }
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
    let labels = idx.labels();
    let mut candidates: Vec<NodeId> = Vec::new();
    'occurrences: for &v in &scan.nodes {
        // Fold: the deepest ancestor of v whose subtree has a hit from
        // every remaining list.
        let mut current = v;
        for list in &lists {
            let start = labels.region(current).start;
            let (pred, succ) = list.neighbours(start);
            let lca_pred = pred.and_then(|p| lca(doc, labels, current, p));
            let lca_succ = succ.and_then(|s| lca(doc, labels, current, s));
            current = match (lca_pred, lca_succ) {
                (Some(a), Some(b)) => {
                    if labels.region(a).level >= labels.region(b).level {
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
        candidates.push(current);
    }

    // Sort in document order, dedup, and drop proper ancestors of other
    // candidates: in document order an ancestor sorts before all its
    // descendants, so a stack-less sweep against the last kept entry
    // suffices.
    candidates.sort_by_key(|&n| labels.region(n).start);
    candidates.dedup();
    let mut kept: Vec<NodeId> = Vec::new();
    for c in candidates {
        while let Some(&last) = kept.last() {
            if labels.is_ancestor(last, c) {
                kept.pop();
            } else {
                break;
            }
        }
        kept.push(c);
    }
    kept.sort();
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
