//! The keyword-search facade.

use crate::{bitmask, indexed, score};
use lotusx_index::IndexedDocument;
use lotusx_xml::NodeId;

/// One ranked keyword-search answer.
#[derive(Clone, Debug)]
pub struct KeywordHit {
    /// The answer subtree's root element.
    pub node: NodeId,
    /// Its score (higher = better).
    pub score: f64,
}

/// Keyword search over one indexed document.
pub struct KeywordEngine<'a> {
    idx: &'a IndexedDocument,
}

impl<'a> KeywordEngine<'a> {
    /// Creates an engine over `idx`.
    pub fn new(idx: &'a IndexedDocument) -> Self {
        KeywordEngine { idx }
    }

    /// SLCA answers via the indexed-lookup algorithm, unranked, in
    /// document order.
    pub fn slca(&self, keywords: &[&str]) -> Vec<NodeId> {
        indexed::slca_indexed(self.idx, keywords)
    }

    /// SLCA answers via the full-tree bitmask pass (the baseline the
    /// scalability experiment compares against).
    pub fn slca_bitmask(&self, keywords: &[&str]) -> Vec<NodeId> {
        bitmask::slca(self.idx, keywords)
    }

    /// ELCA answers (bitmask pass), in document order.
    pub fn elca(&self, keywords: &[&str]) -> Vec<NodeId> {
        bitmask::elca(self.idx, keywords)
    }

    /// Parses a free-text query into lowercase terms and returns ranked
    /// SLCA answers.
    pub fn search(&self, query: &str) -> Vec<KeywordHit> {
        let terms = lotusx_index::tokenize(query);
        let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
        if refs.is_empty() {
            return Vec::new();
        }
        // The answers come in document order, so one scorer's cursors
        // only move forward.
        let mut scorer = score::HitScorer::new(self.idx, &refs);
        let mut hits: Vec<KeywordHit> = self
            .slca(&refs)
            .into_iter()
            .map(|node| KeywordHit {
                node,
                score: scorer.score(node),
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.node.cmp(&b.node))
        });
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book><title>xml twig search</title><author>lu ling</author></book>\
               <book><title>relational databases</title><author>codd</author></book>\
               <article><title>xml keyword search</title><author>xu</author></article>\
             </bib>",
        )
        .unwrap()
    }

    #[test]
    fn search_ranks_compact_relevant_answers_first() {
        let idx = idx();
        let engine = KeywordEngine::new(&idx);
        let hits = engine.search("xml search");
        assert_eq!(
            hits.len(),
            2,
            "both xml publications' titles cover the terms"
        );
        for h in &hits {
            assert_eq!(idx.document().tag_name(h.node), Some("title"));
            assert!(h.score > 0.0);
        }
    }

    #[test]
    fn search_crossing_element_boundaries() {
        let idx = idx();
        let engine = KeywordEngine::new(&idx);
        // "twig" is in a title, "lu" in the sibling author → SLCA = book.
        let hits = engine.search("twig lu");
        assert_eq!(hits.len(), 1);
        assert_eq!(idx.document().tag_name(hits[0].node), Some("book"));
    }

    #[test]
    fn empty_and_unknown_queries() {
        let idx = idx();
        let engine = KeywordEngine::new(&idx);
        assert!(engine.search("").is_empty());
        assert!(engine.search("zzz qqq").is_empty());
    }

    #[test]
    fn indexed_and_bitmask_slca_agree_here() {
        let idx = idx();
        let engine = KeywordEngine::new(&idx);
        for q in [
            vec!["xml"],
            vec!["xml", "search"],
            vec!["lu", "twig"],
            vec!["codd"],
        ] {
            let mut a = engine.slca(&q);
            let mut b = engine.slca_bitmask(&q);
            a.sort();
            b.sort();
            assert_eq!(a, b, "{q:?}");
        }
    }

    #[test]
    fn elca_superset_relation() {
        let idx = idx();
        let engine = KeywordEngine::new(&idx);
        let s = engine.slca(&["xml", "search"]);
        let e = engine.elca(&["xml", "search"]);
        for n in &s {
            assert!(e.contains(n));
        }
    }
}
