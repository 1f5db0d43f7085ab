//! Ground-truth SLCA/ELCA via bottom-up containment bitmasks.
//!
//! One post-order pass computes, per node, which keywords occur in its
//! subtree (a bitmask, so up to 64 keywords per word); SLCA and ELCA fall
//! out of the masks directly. Linear in document size and independent of
//! keyword selectivity — the baseline the indexed algorithm is measured
//! against, and the oracle the property tests trust.

use lotusx_index::IndexedDocument;
use lotusx_xml::NodeId;

/// Maximum number of keywords the bitmask representation supports.
pub const MAX_KEYWORDS: usize = 64;

/// Per-node keyword containment masks for one query.
pub struct ContainmentMasks {
    /// `masks[node]` has bit i set iff keyword i occurs in the subtree.
    masks: Vec<u64>,
    /// Bits for keywords occurring *directly* at the node.
    direct: Vec<u64>,
    full: u64,
}

impl ContainmentMasks {
    /// Computes the masks for `keywords` (lowercased terms).
    ///
    /// # Panics
    /// Panics if more than [`MAX_KEYWORDS`] keywords are given.
    pub fn compute(idx: &IndexedDocument, keywords: &[&str]) -> Self {
        assert!(
            keywords.len() <= MAX_KEYWORDS,
            "at most {MAX_KEYWORDS} keywords"
        );
        let n = idx.document().node_count();
        let mut direct = vec![0u64; n];
        for (i, kw) in keywords.iter().enumerate() {
            for node in idx.values().postings(kw).nodes() {
                direct[node.index()] |= 1 << i;
            }
        }
        // Propagate to ancestors. Node ids are assigned in document
        // (pre-)order by the parser and the generators, so a reverse sweep
        // visits children before parents; we don't rely on that though —
        // an explicit post-order accumulation via the parent pointer is
        // correct for any id assignment.
        let mut masks = direct.clone();
        let doc = idx.document();
        // Collect nodes in preorder once, then fold backwards.
        let order: Vec<NodeId> = doc.all_nodes().collect();
        for &node in order.iter().rev() {
            if node == NodeId::DOCUMENT {
                continue;
            }
            let m = masks[node.index()];
            if m != 0 {
                if let Some(parent) = doc.parent(node) {
                    masks[parent.index()] |= m;
                }
            }
        }
        let full = if keywords.is_empty() {
            0
        } else {
            u64::MAX >> (64 - keywords.len() as u32)
        };
        ContainmentMasks {
            masks,
            direct,
            full,
        }
    }

    /// True if the subtree of `node` contains every keyword.
    pub fn is_full(&self, node: NodeId) -> bool {
        self.full != 0 && self.masks[node.index()] & self.full == self.full
    }

    /// The subtree mask of `node`.
    pub fn mask(&self, node: NodeId) -> u64 {
        self.masks[node.index()]
    }

    /// The direct-occurrence mask of `node`.
    pub fn direct_mask(&self, node: NodeId) -> u64 {
        self.direct[node.index()]
    }

    /// The all-keywords mask.
    pub fn full_mask(&self) -> u64 {
        self.full
    }
}

/// SLCA by masks: elements whose subtree is full while no element child's
/// subtree is.
pub fn slca(idx: &IndexedDocument, keywords: &[&str]) -> Vec<NodeId> {
    let masks = ContainmentMasks::compute(idx, keywords);
    if masks.full_mask() == 0 {
        return Vec::new();
    }
    let doc = idx.document();
    doc.all_nodes()
        .filter(|&n| n != NodeId::DOCUMENT && doc.is_element(n))
        .filter(|&n| masks.is_full(n))
        .filter(|&n| !doc.children(n).any(|c| masks.is_full(c)))
        .collect()
}

/// ELCA by masks: elements that remain full after carving out the
/// subtrees of their full descendants.
pub fn elca(idx: &IndexedDocument, keywords: &[&str]) -> Vec<NodeId> {
    let masks = ContainmentMasks::compute(idx, keywords);
    if masks.full_mask() == 0 {
        return Vec::new();
    }
    let doc = idx.document();
    let n = doc.node_count();
    // excl[node] = keywords witnessed in subtree(node) excluding the
    // subtrees of *full* children (recursively: a full child contributes
    // nothing; a non-full child contributes its own exclusive mask, which
    // for non-full nodes equals its subtree mask since a deeper full node
    // would have made it full too... not true for masks — a non-full
    // child can still contain a full grandchild ONLY if the child were
    // full as well (containment is monotone up the tree). So: exclusive
    // mask = direct | OR over non-full children of their subtree masks.
    let mut exclusive = vec![0u64; n];
    let order: Vec<NodeId> = doc.all_nodes().collect();
    for &node in order.iter().rev() {
        if node == NodeId::DOCUMENT {
            continue;
        }
        let mut m = masks.direct_mask(node);
        for c in doc.children(node) {
            if !masks.is_full(c) {
                m |= masks.mask(c);
            }
        }
        exclusive[node.index()] = m;
    }
    doc.all_nodes()
        .filter(|&node| node != NodeId::DOCUMENT && doc.is_element(node))
        .filter(|&node| exclusive[node.index()] & masks.full_mask() == masks.full_mask())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<r>\
               <a><x>alpha</x><y>beta</y></a>\
               <b><x>alpha</x></b>\
               <c>alpha beta</c>\
             </r>",
        )
        .unwrap()
    }

    fn names(idx: &IndexedDocument, nodes: &[NodeId]) -> Vec<String> {
        let mut out: Vec<String> = nodes
            .iter()
            .map(|&n| idx.document().tag_name(n).unwrap().to_string())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn slca_finds_smallest_containers() {
        let idx = idx();
        // alpha+beta: contained in a (via x,y) and c (directly); r also
        // contains both but has full descendants → not smallest.
        let hits = slca(&idx, &["alpha", "beta"]);
        assert_eq!(names(&idx, &hits), vec!["a", "c"]);
    }

    #[test]
    fn single_keyword_slca_is_the_occurrence_elements() {
        let idx = idx();
        let hits = slca(&idx, &["alpha"]);
        assert_eq!(names(&idx, &hits), vec!["c", "x", "x"]);
    }

    #[test]
    fn missing_keyword_gives_no_hits() {
        let idx = idx();
        assert!(slca(&idx, &["alpha", "nonexistent"]).is_empty());
        assert!(slca(&idx, &[]).is_empty());
        assert!(elca(&idx, &[]).is_empty());
    }

    #[test]
    fn elca_is_a_superset_of_slca() {
        let idx = idx();
        let s = slca(&idx, &["alpha", "beta"]);
        let e = elca(&idx, &["alpha", "beta"]);
        for n in &s {
            assert!(e.contains(n));
        }
        // r contains alpha in b/x and beta nowhere outside full subtrees
        // (its only beta witnesses are inside a and c, both full) → r is
        // NOT an ELCA here.
        assert_eq!(names(&idx, &e), vec!["a", "c"]);
    }

    #[test]
    fn elca_keeps_outer_answers_with_own_witnesses() {
        // r has its own alpha (under b) and its own beta (direct child
        // text of d), so it is an ELCA even though a is one too.
        let idx = IndexedDocument::from_str(
            "<r><a><x>alpha</x><y>beta</y></a><b>alpha</b><d>beta</d></r>",
        )
        .unwrap();
        let e = elca(&idx, &["alpha", "beta"]);
        assert_eq!(names(&idx, &e), vec!["a", "r"]);
        let s = slca(&idx, &["alpha", "beta"]);
        assert_eq!(names(&idx, &s), vec!["a"]);
    }

    #[test]
    fn case_insensitive_matching_via_value_index() {
        let idx = IndexedDocument::from_str("<r><a>Alpha BETA</a></r>").unwrap();
        let hits = slca(&idx, &["alpha", "beta"]);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn attribute_values_count_as_occurrences() {
        let idx = IndexedDocument::from_str(r#"<r><a key="alpha"><x>beta</x></a></r>"#).unwrap();
        let hits = slca(&idx, &["alpha", "beta"]);
        assert_eq!(names(&idx, &hits), vec!["a"]);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_keywords_panics() {
        let idx = idx();
        let kws: Vec<String> = (0..65).map(|i| format!("k{i}")).collect();
        let refs: Vec<&str> = kws.iter().map(String::as_str).collect();
        slca(&idx, &refs);
    }
}
