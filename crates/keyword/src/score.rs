//! Scoring of keyword hits: smaller, term-rich subtrees first.

use lotusx_index::value_index::Postings;
use lotusx_index::IndexedDocument;
use lotusx_xml::{Document, NodeId};

/// Scores one SLCA/ELCA answer subtree for ranking.
///
/// Combines (a) keyword weight — the TF-IDF mass of the query keywords
/// inside the answer subtree — and (b) compactness — smaller answers are
/// more specific and rank higher (the intuition behind preferring SLCAs
/// over arbitrary LCAs in the first place). To score many answers of
/// one query, use a [`HitScorer`].
pub fn score_hit(idx: &IndexedDocument, node: NodeId, keywords: &[&str]) -> f64 {
    HitScorer::new(idx, keywords).score(node)
}

/// The scorer of one query's answers: each keyword's postings and IDF
/// resolved once, and per keyword a cursor that moves forward through
/// the postings as answers arrive in document order.
pub struct HitScorer<'a> {
    idx: &'a IndexedDocument,
    /// Per keyword with postings, in query order.
    terms: Vec<TermCursor<'a>>,
    /// The last answer scored.
    last: NodeId,
}

struct TermCursor<'a> {
    postings: Postings<'a>,
    idf: f64,
    /// The first posting at or after `last` in document order.
    from: usize,
    /// The frequency cursor of [`Postings::tf_sum`] at `from`.
    tf_from: usize,
}

impl<'a> HitScorer<'a> {
    /// Resolves `keywords` against `idx`'s postings.
    pub fn new(idx: &'a IndexedDocument, keywords: &[&str]) -> Self {
        let values = idx.values();
        let n = values.content_element_count().max(1) as f64;
        let terms = keywords
            .iter()
            .map(|kw| values.postings(kw))
            .filter(|postings| !postings.is_empty())
            .map(|postings| TermCursor {
                postings,
                idf: (1.0 + n / postings.len() as f64).ln(),
                from: 0,
                tf_from: 0,
            })
            .collect();
        HitScorer {
            idx,
            terms,
            last: NodeId::DOCUMENT,
        }
    }

    /// The score of the answer rooted at element `node`. Answers in
    /// document order move each cursor forward only; one that comes
    /// before the last rewinds them.
    pub fn score(&mut self, node: NodeId) -> f64 {
        let doc = self.idx.document();
        let end = doc.subtree_end(node);
        if node < self.last {
            self.terms
                .iter_mut()
                .for_each(|t| (t.from, t.tf_from) = (0, 0));
        }
        self.last = node;
        let mut weight = 0.0;
        for t in &mut self.terms {
            // Occurrences inside the answer subtree: postings are in
            // document order — node ids are the preorder — so the
            // subtree's are the contiguous run from the answer to its
            // subtree end.
            let nodes = t.postings.nodes();
            t.from += nodes[t.from..].partition_point(|&p| p < node);
            let inside = nodes[t.from..].iter().take_while(|&&p| p <= end);
            let to = t.from + inside.count();
            let tf = t.postings.tf_sum(t.from..to, &mut t.tf_from);
            if tf > 0 {
                weight += (1.0 + f64::from(tf).ln_1p()) * t.idf;
            }
        }

        let subtree_size = f64::from(subtree_size(doc, node));
        let compactness = 1.0 / (1.0 + subtree_size.ln_1p());
        weight * compactness
    }
}

/// Nodes in the subtree of `node`, the node itself included: the ids
/// from it to its subtree end.
pub fn subtree_size(doc: &Document, node: NodeId) -> u32 {
    (doc.subtree_end(node).index() - node.index() + 1) as u32
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
