//! Match scoring: the reconstructed LotusScore.

use crate::topk::{rank_cmp, OrderedTopK};
use lotusx_guard::Ticker;
use lotusx_index::value_index::Posting;
use lotusx_index::IndexedDocument;
use lotusx_twig::algorithms::structural_join::ReducedTwig;
use lotusx_twig::exec::JoinResult;
use lotusx_twig::matcher::MatchSet;
use lotusx_twig::pattern::{Axis, QNodeId, TwigPattern, ValuePredicate};
use lotusx_xml::NodeId;

/// Weights of the three score components. Defaults follow the intuition of
/// the demo: structure first, content second, specificity as a tiebreak.
#[derive(Clone, Copy, Debug)]
pub struct RankWeights {
    /// Weight of structural tightness.
    pub structure: f64,
    /// Weight of content (TF-IDF) relevance.
    pub content: f64,
    /// Weight of position specificity.
    pub specificity: f64,
}

impl Default for RankWeights {
    fn default() -> Self {
        RankWeights {
            structure: 0.5,
            content: 0.35,
            specificity: 0.15,
        }
    }
}

/// A match together with its score.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoredMatch {
    /// The match: `bindings[q.index()]` is the element bound to `q`.
    pub bindings: Vec<NodeId>,
    /// Its LotusScore (higher is better).
    pub score: f64,
}

/// Scores matches of one pattern over one document.
pub struct Ranker<'a> {
    idx: &'a IndexedDocument,
    weights: RankWeights,
}

/// Everything about one pattern the per-row score needs, resolved once
/// per ranking call so scoring a row touches only arrays.
struct PatternScorer<'a> {
    idx: &'a IndexedDocument,
    weights: RankWeights,
    /// Query nodes in the pattern: columns in a row.
    width: usize,
    /// `(child, parent)` column pairs of the ancestor-descendant edges.
    ad_edges: Vec<(usize, usize)>,
    /// One entry per `contains` term with postings, in (query node, term)
    /// order: the bound column, the term's postings and its IDF.
    terms: Vec<(usize, &'a [Posting], f64)>,
}

impl<'a> PatternScorer<'a> {
    fn new(idx: &'a IndexedDocument, weights: RankWeights, pattern: &TwigPattern) -> Self {
        let values = idx.values();
        let n = values.content_element_count().max(1) as f64;
        let mut ad_edges = Vec::new();
        let mut terms = Vec::new();
        for q in pattern.node_ids() {
            let node = pattern.node(q);
            if let (Some(parent), Axis::Descendant) = (node.parent, node.axis) {
                ad_edges.push((q.index(), parent.index()));
            }
            let text = match &node.predicate {
                Some(ValuePredicate::Contains(text)) => text,
                Some(ValuePredicate::AttrContains { value, .. }) => value,
                _ => continue,
            };
            for term in lotusx_index::tokenize(text) {
                let postings = values.postings(&term);
                if !postings.is_empty() {
                    let idf = (1.0 + n / postings.len() as f64).ln();
                    terms.push((q.index(), postings, idf));
                }
            }
        }
        PatternScorer {
            idx,
            weights,
            width: pattern.len(),
            ad_edges,
            terms,
        }
    }

    fn score(&self, row: &[NodeId]) -> f64 {
        self.combine(
            self.structure(row),
            self.content(row),
            self.specificity(row),
        )
    }

    /// The weighted sum of the three components — the one expression
    /// both a row's score and the bound on unseen rows go through.
    fn combine(&self, structure: f64, content: f64, specificity: f64) -> f64 {
        let w = self.weights;
        w.structure * structure + w.content * content + w.specificity * specificity
    }

    fn structure(&self, row: &[NodeId]) -> f64 {
        // The region label's level is the element's depth.
        let labels = self.idx.labels();
        let level = |col: usize| u32::from(labels.region(row[col]).level);
        let slack: u32 = self
            .ad_edges
            .iter()
            .map(|&(child, parent)| level(child).saturating_sub(level(parent) + 1))
            .sum();
        tightness(slack)
    }

    fn content(&self, row: &[NodeId]) -> f64 {
        let labels = self.idx.labels();
        let mut sum = 0.0;
        for &(col, postings, idf) in &self.terms {
            // Postings are in document order, which region starts index.
            let start = labels.region(row[col]).start;
            let at = postings.partition_point(|p| labels.region(p.node).start < start);
            if let Some(p) = postings.get(at).filter(|p| p.node == row[col]) {
                sum += (1.0 + f64::from(p.tf).ln_1p()) * idf;
            }
        }
        squash(sum)
    }

    fn specificity(&self, row: &[NodeId]) -> f64 {
        let guide = self.idx.guide();
        mean(
            row.iter()
                .map(|&n| guide.specificity(self.idx.guide_node(n))),
        )
    }

    /// An upper bound on [`Self::score`] over every row `twig` can
    /// enumerate, from one pass over its live elements — or `None` when
    /// the budget trips during the pass. Each component is bounded by
    /// itself: per query node the best specificity any live element has,
    /// per `//` edge the least slack the live levels allow (shallowest
    /// child under deepest parent), full content relevance if the pattern
    /// has `contains` terms at all.
    ///
    /// The bound is *reached*, bit for bit, whenever every row scores the
    /// same — one DataGuide path per query node, the common case on
    /// data-centric documents — because it goes through the very
    /// floating-point expressions a row's score does, in the same order,
    /// and each of those is monotone in its inputs (IEEE rounding keeps
    /// `a ≤ b ⇒ a ⊕ c ≤ b ⊕ c`; the weights are checked non-negative).
    fn upper_bound(&self, twig: &ReducedTwig<'_>, ticker: &mut Ticker) -> Option<f64> {
        let w = self.weights;
        if ![w.structure, w.content, w.specificity]
            .iter()
            .all(|w| w.is_finite() && *w >= 0.0)
        {
            return None;
        }
        let guide = self.idx.guide();
        let mut best_specificity = Vec::with_capacity(self.width);
        // Per query node: the shallowest and the deepest live level.
        let mut levels = Vec::with_capacity(self.width);
        // The DataGuide paths already accounted for. Only the first live
        // element on a path has anything to add — a path fixes its
        // specificity and its level. Dead elements are sent to a spare
        // slot that always reads "accounted for", so the loop's one
        // branch is almost never taken, however live and dead elements
        // interleave in the stream.
        let spare = guide.node_count();
        let mut on_path = vec![false; spare + 1];
        on_path[spare] = true;
        let mut marked = Vec::new();
        for q in 0..self.width {
            let (mut shallowest, mut deepest, mut best) = (u16::MAX, 0u16, 0.0f64);
            let mut seen = 0u64;
            for (node, level, live) in twig.stream(QNodeId::from_index(q)) {
                seen += 1;
                let path = self.idx.guide_node(node);
                let slot = if live { path.index() } else { spare };
                if !on_path[slot] {
                    on_path[slot] = true;
                    marked.push(slot);
                    shallowest = shallowest.min(level);
                    deepest = deepest.max(level);
                    best = best.max(guide.specificity(path));
                }
            }
            if ticker.tick(seen) {
                return None;
            }
            for slot in marked.drain(..) {
                on_path[slot] = false;
            }
            best_specificity.push(best);
            levels.push((u32::from(shallowest), u32::from(deepest)));
        }
        let least_slack: u32 = self
            .ad_edges
            .iter()
            .map(|&(child, parent)| levels[child].0.saturating_sub(levels[parent].1 + 1))
            .sum();
        let content = if self.terms.is_empty() {
            squash(0.0)
        } else {
            1.0
        };
        Some(self.combine(
            tightness(least_slack),
            content,
            mean(best_specificity.into_iter()),
        ))
    }
}

/// What scoring and enumerating one row costs, in stream elements of the
/// bound pass (measured: ≈58 ns a row on xmark X4, ≈1.8 ns an element).
const ELEMENTS_PER_ROW: usize = 32;

/// Structural tightness of a total depth slack.
fn tightness(slack: u32) -> f64 {
    1.0 / (1.0 + slack as f64)
}

/// Squashes a non-negative TF-IDF sum into `[0, 1)`.
fn squash(sum: f64) -> f64 {
    sum / (1.0 + sum)
}

/// The mean, summed front to back.
fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len();
    let mut sum = 0.0;
    for v in values {
        sum += v;
    }
    sum / n as f64
}

impl<'a> Ranker<'a> {
    /// Creates a ranker with default weights.
    pub fn new(idx: &'a IndexedDocument) -> Self {
        Self::with_weights(idx, RankWeights::default())
    }

    /// Creates a ranker with explicit weights.
    pub fn with_weights(idx: &'a IndexedDocument, weights: RankWeights) -> Self {
        Ranker { idx, weights }
    }

    fn scorer(&self, pattern: &TwigPattern) -> PatternScorer<'a> {
        PatternScorer::new(self.idx, self.weights, pattern)
    }

    /// The full LotusScore of one match row.
    pub fn score(&self, pattern: &TwigPattern, row: &[NodeId]) -> f64 {
        self.scorer(pattern).score(row)
    }

    /// Structural tightness in `(0, 1]`: 1 when every A-D edge binds at
    /// minimal distance, decaying with the total extra depth (slack).
    pub fn structure_score(&self, pattern: &TwigPattern, row: &[NodeId]) -> f64 {
        self.scorer(pattern).structure(row)
    }

    /// TF-IDF sum over the `contains` terms of every predicate, squashed
    /// into `[0, 1)`. Matches without content predicates score 0 here.
    pub fn content_score(&self, pattern: &TwigPattern, row: &[NodeId]) -> f64 {
        self.scorer(pattern).content(row)
    }

    /// Position specificity in `(0, 1]`: the rarer the bindings' DataGuide
    /// paths, the higher. Averaged over all bound query nodes.
    pub fn specificity_score(&self, pattern: &TwigPattern, row: &[NodeId]) -> f64 {
        self.scorer(pattern).specificity(row)
    }

    /// Scores and sorts matches, best first; ties broken by document order
    /// of the bindings (stable, deterministic output).
    pub fn rank(&self, pattern: &TwigPattern, matches: &MatchSet) -> Vec<ScoredMatch> {
        let scorer = self.scorer(pattern);
        let mut scored: Vec<(f64, &[NodeId])> =
            matches.rows().map(|row| (scorer.score(row), row)).collect();
        scored.sort_by(|a, b| rank_cmp(*a, *b));
        scored
            .into_iter()
            .map(|(score, row)| ScoredMatch {
                bindings: row.to_vec(),
                score,
            })
            .collect()
    }

    /// Scores the matches of `result` as its enumerator hands them over
    /// and returns the best `k`: exactly `self.rank(pattern, rows)`
    /// truncated to `k` — the (score descending, bindings ascending)
    /// tie-break is a total order, so the bounded [`OrderedTopK`]
    /// collector retains the global top-k, copying only rows it keeps.
    ///
    /// When many more than `k` rows exist and they arrive in tie-break
    /// order ([`JoinResult::reduced_in_row_order`]), one pass over the
    /// reduced twig's live elements bounds the score of any row, and the
    /// enumeration stops as soon as the collector is full and its worst
    /// score reaches the bound: a later row can at best tie, and then
    /// loses the tie-break. The answer is the same, bit for bit, and
    /// complete — the rows not enumerated were never candidates.
    ///
    /// Runs under the result's budget (a trip leaves an exact top-k of
    /// the rows scored by then, every one a true hit) and records the
    /// score/select and sort phases as timed children of `span` when one
    /// is supplied; the span never changes the ranking.
    pub fn rank_top_k(
        &self,
        pattern: &TwigPattern,
        result: &JoinResult<'_>,
        k: usize,
        span: Option<&lotusx_obs::Span>,
    ) -> Vec<ScoredMatch> {
        let select = span.map(|p| p.child("score-select"));
        let scorer = self.scorer(pattern);
        let mut collector = OrderedTopK::new(k);
        let mut offered = 0usize;
        if k > 0 {
            // The bound costs a pass over every stream element and can
            // save the rows past the k-th: not worth computing for a
            // handful of rows out of long streams.
            let droppable = result.count().saturating_sub(k);
            let bound = result
                .reduced_in_row_order()
                .filter(|twig| twig.stream_elements() / ELEMENTS_PER_ROW < droppable)
                .and_then(|twig| scorer.upper_bound(twig, &mut result.guard().ticker()));
            result.for_each_row(|row| {
                offered += 1;
                collector.offer(scorer.score(row), row);
                !bound.is_some_and(|bound| collector.score_to_beat() >= Some(bound))
            });
        }
        if let Some(select) = select {
            select.annotate("candidates", offered);
            select.annotate("k", k);
        }
        let _sort = span.map(|p| p.child("sort"));
        collector.into_sorted()
    }
}

/// Baseline: document order (the first match in the document first) —
/// the canonical order every `execute*` result already has.
pub fn rank_by_document_order(matches: &MatchSet) -> Vec<&[NodeId]> {
    let mut m: Vec<&[NodeId]> = matches.rows().collect();
    m.sort();
    m
}

/// Baseline: frequency-only — matches whose root binding sits on a COMMON
/// DataGuide path first (what a naive popularity ranking would do).
pub fn rank_by_frequency<'m>(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    matches: &'m MatchSet,
) -> Vec<&'m [NodeId]> {
    let mut m: Vec<&[NodeId]> = matches.rows().collect();
    m.sort_by_key(|x| {
        let g = idx.guide_node(x[pattern.root().index()]);
        std::cmp::Reverse(idx.guide().count(g))
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotusx_twig::exec::{execute, Algorithm};
    use lotusx_twig::xpath::parse_query;

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book><title>xml twig joins</title><info><author>lu</author></info></book>\
               <book><title>relational systems</title><author>codd</author></book>\
             </bib>",
        )
        .unwrap()
    }

    #[test]
    fn tighter_structure_scores_higher() {
        let idx = idx();
        let pattern = parse_query("//book//author").unwrap();
        let matches = execute(&idx, &pattern, Algorithm::StructuralJoin);
        assert_eq!(matches.len(), 2);
        let ranker = Ranker::new(&idx);
        let ranked = ranker.rank(&pattern, &matches);
        // codd is a direct child (slack 0); lu sits under info (slack 1).
        let top_author = ranked[0].bindings[1];
        assert_eq!(idx.document().direct_text(top_author), "codd");
        assert!(ranked[0].score > ranked[1].score);
    }

    #[test]
    fn content_relevance_boosts_term_matches() {
        let idx = idx();
        let pattern = parse_query(r#"//book[title ~ "twig"]"#).unwrap();
        let matches = execute(&idx, &pattern, Algorithm::StructuralJoin);
        assert_eq!(matches.len(), 1);
        let ranker = Ranker::new(&idx);
        let with_term = ranker.content_score(&pattern, matches.row(0));
        assert!(with_term > 0.0);

        // A pattern without content predicates has zero content score.
        let plain = parse_query("//book").unwrap();
        let m = execute(&idx, &plain, Algorithm::StructuralJoin);
        assert_eq!(ranker.content_score(&plain, m.row(0)), 0.0);
    }

    #[test]
    fn scores_are_in_unit_range() {
        let idx = idx();
        let ranker = Ranker::new(&idx);
        for q in [
            "//book//author",
            "//book/title",
            r#"//book[title ~ "xml twig"]"#,
        ] {
            let pattern = parse_query(q).unwrap();
            for sm in ranker.rank(
                &pattern,
                &execute(&idx, &pattern, Algorithm::StructuralJoin),
            ) {
                assert!(sm.score > 0.0 && sm.score <= 1.0, "{q}: {}", sm.score);
            }
        }
    }

    #[test]
    fn specificity_prefers_rare_paths() {
        let idx = IndexedDocument::from_str("<r><common/><common/><common/><common/><rare/></r>")
            .unwrap();
        let ranker = Ranker::new(&idx);
        let p_common = parse_query("//common").unwrap();
        let p_rare = parse_query("//rare").unwrap();
        let m_common = execute(&idx, &p_common, Algorithm::Naive);
        let m_rare = execute(&idx, &p_rare, Algorithm::Naive);
        assert!(
            ranker.specificity_score(&p_rare, m_rare.row(0))
                > ranker.specificity_score(&p_common, m_common.row(0))
        );
    }

    #[test]
    fn ranking_is_deterministic() {
        let idx = idx();
        let pattern = parse_query("//book//author").unwrap();
        let matches = execute(&idx, &pattern, Algorithm::StructuralJoin);
        let ranker = Ranker::new(&idx);
        let a: Vec<f64> = ranker
            .rank(&pattern, &matches)
            .iter()
            .map(|s| s.score)
            .collect();
        let b: Vec<f64> = ranker
            .rank(&pattern, &matches)
            .iter()
            .map(|s| s.score)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn baselines_order_matches() {
        let idx = idx();
        let pattern = parse_query("//book//author").unwrap();
        let matches = execute(&idx, &pattern, Algorithm::StructuralJoin);
        let doc_order = rank_by_document_order(&matches);
        assert!(doc_order[0] <= doc_order[1]);
        let by_freq = rank_by_frequency(&idx, &pattern, &matches);
        assert_eq!(by_freq.len(), 2);
    }
}
