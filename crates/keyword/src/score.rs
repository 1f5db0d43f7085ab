//! Scoring of keyword hits: smaller, term-rich subtrees first.

use lotusx_index::IndexedDocument;
use lotusx_labeling::RegionLabel;
use lotusx_xml::NodeId;

/// Scores one SLCA/ELCA answer subtree for ranking.
///
/// Combines (a) keyword weight — the TF-IDF mass of the query keywords
/// inside the answer subtree — and (b) compactness — smaller answers are
/// more specific and rank higher (the intuition behind preferring SLCAs
/// over arbitrary LCAs in the first place).
pub fn score_hit(idx: &IndexedDocument, node: NodeId, keywords: &[&str]) -> f64 {
    let values = idx.values();
    let n = values.content_element_count().max(1) as f64;

    let region = idx.region(node);
    let mut weight = 0.0;
    for kw in keywords {
        let postings = values.postings(kw);
        if postings.is_empty() {
            continue;
        }
        let idf = (1.0 + n / postings.len() as f64).ln();
        // Occurrences inside the answer subtree: postings are in document
        // order, so the subtree's are the contiguous run whose region
        // starts fall inside the answer's region.
        let from = postings.partition_point(|p| idx.start(p.node) < region.start);
        let tf: u32 = postings[from..]
            .iter()
            .take_while(|p| idx.start(p.node) < region.end)
            .map(|p| p.tf)
            .sum();
        if tf > 0 {
            weight += (1.0 + f64::from(tf).ln_1p()) * idf;
        }
    }

    let subtree_size = f64::from(subtree_size(region));
    let compactness = 1.0 / (1.0 + subtree_size.ln_1p());
    weight * compactness
}

/// Nodes in the subtree `region` labels, the node itself included:
/// every node's enter and exit are numbered, so the exit of a subtree of
/// `k` nodes comes `2k - 1` numbers after its enter.
pub fn subtree_size(region: RegionLabel) -> u32 {
    (region.end - region.start) / 2 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_subtrees_with_same_terms_score_higher() {
        let idx = IndexedDocument::from_str(
            "<r><small>alpha beta</small>\
             <big>alpha beta<p1>x</p1><p2>y</p2><p3>z</p3><p4>w</p4></big></r>",
        )
        .unwrap();
        let doc = idx.document();
        let small = doc
            .all_nodes()
            .find(|&n| doc.tag_name(n) == Some("small"))
            .unwrap();
        let big = doc
            .all_nodes()
            .find(|&n| doc.tag_name(n) == Some("big"))
            .unwrap();
        let kws = ["alpha", "beta"];
        assert!(score_hit(&idx, small, &kws) > score_hit(&idx, big, &kws));
    }

    #[test]
    fn more_keyword_mass_scores_higher_at_same_size() {
        let idx = IndexedDocument::from_str(
            "<r><one>alpha beta</one><two>alpha alpha alpha beta</two></r>",
        )
        .unwrap();
        let doc = idx.document();
        let one = doc
            .all_nodes()
            .find(|&n| doc.tag_name(n) == Some("one"))
            .unwrap();
        let two = doc
            .all_nodes()
            .find(|&n| doc.tag_name(n) == Some("two"))
            .unwrap();
        let kws = ["alpha", "beta"];
        assert!(score_hit(&idx, two, &kws) > score_hit(&idx, one, &kws));
    }

    #[test]
    fn missing_keywords_contribute_nothing() {
        let idx = IndexedDocument::from_str("<r><a>alpha</a></r>").unwrap();
        let doc = idx.document();
        let a = doc
            .all_nodes()
            .find(|&n| doc.tag_name(n) == Some("a"))
            .unwrap();
        assert_eq!(score_hit(&idx, a, &["missing"]), 0.0);
        assert!(score_hit(&idx, a, &["alpha", "missing"]) > 0.0);
    }
}
