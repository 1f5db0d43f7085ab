//! Match scoring: the reconstructed LotusScore.

use crate::topk::{rank_cmp, OrderedTopK};
use lotusx_guard::Ticker;
use lotusx_index::value_index::Postings;
use lotusx_index::IndexedDocument;
use lotusx_twig::algorithms::structural_join::ReducedTwig;
use lotusx_twig::exec::JoinResult;
use lotusx_twig::guide::{self, Spread};
use lotusx_twig::matcher::MatchSet;
use lotusx_twig::pattern::{Axis, TwigPattern, ValuePredicate};
use lotusx_xml::NodeId;
use std::ops::Range;

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

/// The bound a top-k ranking walked its rows under (see
/// [`Ranker::rank_top_k`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// No bound: every row offered, in one class.
    None,
    /// One bound per group of root paths, read off the DataGuide.
    Guide,
    /// The tight rows first, then the rest.
    Structure,
}

impl Bound {
    /// Stable lower-case name (`none`, `guide`, `structure`).
    pub fn name(self) -> &'static str {
        match self {
            Bound::None => "none",
            Bound::Guide => "guide",
            Bound::Structure => "structure",
        }
    }
}

/// How one [`Ranker::rank_top_k`] call walked the rows: what a profile
/// reports as the plan behind the rank stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankStats {
    /// Rows the enumerator offered the collector.
    pub offered: usize,
    /// The bound the rows were walked under.
    pub bound: Bound,
    /// Classes of rows walked (0 when `k` is 0).
    pub walked: usize,
    /// Classes in the walk (1 without a bound).
    pub classes: usize,
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
    terms: Vec<(usize, Postings<'a>, f64)>,
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
        self.score_at_slack(row, self.slack(row))
    }

    /// [`Self::score`] of a row whose total slack is already known.
    fn score_at_slack(&self, row: &[NodeId], slack: u32) -> f64 {
        self.combine(tightness(slack), self.content(row), self.specificity(row))
    }

    /// The weighted sum of the three components — the one expression
    /// both a row's score and the bound on unseen rows go through.
    fn combine(&self, structure: f64, content: f64, specificity: f64) -> f64 {
        let w = self.weights;
        w.structure * structure + w.content * content + w.specificity * specificity
    }

    /// The levels the `//` edges of `row` bind below one step down, summed.
    fn slack(&self, row: &[NodeId]) -> u32 {
        // The region label's level is the element's depth.
        let level = |col: usize| u32::from(self.idx.level(row[col]));
        (self.ad_edges.iter())
            .map(|&(child, parent)| level(child).saturating_sub(level(parent) + 1))
            .sum()
    }

    fn content(&self, row: &[NodeId]) -> f64 {
        let mut sum = 0.0;
        for &(col, postings, idf) in &self.terms {
            // Postings are in document order: node id order.
            let (node, nodes) = (row[col], postings.nodes());
            let at = nodes.partition_point(|&p| p < node);
            if nodes.get(at) == Some(&node) {
                sum += (1.0 + f64::from(postings.tf(at)).ln_1p()) * idf;
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

    /// How to walk the rows of `twig` so that the enumeration can stop
    /// early: classes of rows, each with an upper bound on the scores of
    /// its rows, best bound first — or `None` when no bound is worth its
    /// cost against the `droppable` rows past the k-th, or the budget
    /// trips while computing it.
    ///
    /// The guide bound embeds the pattern in the DataGuide and bounds the
    /// rows of each root path — the guide node the root binds on — from
    /// the [`Spread`]s of its candidates; root paths of equal bound form
    /// one class, and one counting pass over the root stream partitions
    /// it into their runs. The embedding ignores value predicates: a
    /// candidate path none of whose elements passes one still loosens
    /// its root path's bound. Deep, irregular documents, whose guide
    /// outgrows the rows, get the structural bound instead
    /// ([`Self::structural_walk`]).
    fn walk(
        &self,
        pattern: &TwigPattern,
        twig: &ReducedTwig<'_>,
        droppable: usize,
        ticker: &mut Ticker,
    ) -> Option<Walk> {
        let w = self.weights;
        if ![w.structure, w.content, w.specificity]
            .iter()
            .all(|w| w.is_finite() && *w >= 0.0)
        {
            return None;
        }
        // The embedding sweeps the guide about once per `//` edge, the
        // spreads once more; the partition then reads the root stream.
        let sweeps = 1
            + (pattern.node_ids())
                .filter(|&q| pattern.node(q).axis == Axis::Descendant)
                .count();
        let reads = self.idx.guide().node_count() * sweeps + twig.root_run().len();
        if reads / READS_PER_ROW >= droppable {
            return self.structural_walk(twig, droppable);
        }
        let sets = guide::embed(self.idx, pattern, ticker)?;
        let spreads = guide::spreads(self.idx, pattern, &sets, ticker)?;
        let root = pattern.root();
        let roots = &sets[root.index()];
        let bounds: Vec<f64> = spreads.chunks(self.width).map(|s| self.bound(s)).collect();
        let mut best_first = bounds.clone();
        best_first.sort_unstable_by(|a, b| b.total_cmp(a));
        best_first.dedup();
        if best_first.len() <= 1 {
            return Some(Walk {
                bound: Bound::Guide,
                classes: vec![Class::every_row(*best_first.first()?, 1)],
                runs: vec![twig.root_run()],
            });
        }
        // Per guide node from the first root path to the last, its class
        // (`NONE`: not a root path).
        const NONE: u32 = u32::MAX;
        let first = roots.first()?.index();
        let mut class_of = vec![NONE; roots.last()?.index() + 1 - first];
        for (g, b) in roots.iter().zip(&bounds) {
            class_of[g.index() - first] = best_first.partition_point(|c| c > b) as u32;
        }
        // A run is a maximal stretch of the root stream whose live
        // elements share a class; the dead ones ride along with the run
        // before them. One pass finds where runs start and counts them
        // per class (each element's root path is one read of the guide
        // map); the runs are then placed class by class.
        let root_len = twig.root_run().end;
        if ticker.tick(u64::from(root_len)) {
            return None;
        }
        let mut starts: Vec<(u32, u32)> = Vec::with_capacity(root_len as usize);
        let mut ends = vec![0usize; best_first.len()];
        for (pos, (node, live)) in (0..).zip(twig.stream(root)) {
            if live {
                let path = self.idx.guide_node(node).index().wrapping_sub(first);
                let class = class_of.get(path).copied().unwrap_or(NONE);
                // A live root off every root path would be a bug in the
                // embedding; it gets no bound.
                debug_assert_ne!(class, NONE, "a live root off every root path");
                if class == NONE {
                    return None;
                }
                if starts.last().is_none_or(|&(_, c)| c != class) {
                    starts.push((pos, class));
                    ends[class as usize] += 1;
                }
            }
        }
        let mut next = Vec::with_capacity(ends.len());
        let mut total = 0;
        for end in &mut ends {
            next.push(total);
            total += *end;
            *end = total;
        }
        let mut runs = vec![0..0; total];
        let run_ends = starts.iter().skip(1).map(|&(pos, _)| pos);
        for (&(start, class), end) in starts.iter().zip(run_ends.chain([root_len])) {
            runs[next[class as usize]] = start..end;
            next[class as usize] += 1;
        }
        Some(Walk {
            bound: Bound::Guide,
            classes: (best_first.into_iter().zip(ends))
                .map(|(bound, end)| Class::every_row(bound, end))
                .collect(),
            runs,
        })
    }

    /// The structural bound, which reads nothing but the rows: first the
    /// tight rows — every `//` edge bound one level down, total slack 0
    /// — then the rest, whose slack of at least one bounds their
    /// structure by `tightness(1)`, skipping the tight ones. The other
    /// two components are bounded at their best, as [`Self::bound`]
    /// does. Without `contains` terms a tight row outscores every other
    /// (by default at least 0.5 against at most 0.4), so `k` tight rows
    /// end the walk.
    ///
    /// The tight walk reads the root stream once more than one walk of
    /// every row does, so it is taken only for a pattern with a `//`
    /// edge to be tight on and enough rows past the k-th to pay for that
    /// read — and only when the two bounds differ, since the stop after
    /// the tight class relies on it.
    fn structural_walk(&self, twig: &ReducedTwig<'_>, droppable: usize) -> Option<Walk> {
        let root_len = twig.root_run().len();
        if self.ad_edges.is_empty() || droppable.saturating_mul(ROOT_STEPS_PER_ROW) < root_len {
            return None;
        }
        let bound = |slack| self.combine(tightness(slack), self.content_bound(), 1.0);
        let (tight, loose) = (bound(0), bound(1));
        (tight > loose).then(|| Walk {
            bound: Bound::Structure,
            classes: vec![
                Class {
                    bound: tight,
                    end: 1,
                    rows: Rows::Tight,
                },
                Class {
                    bound: loose,
                    end: 2,
                    rows: Rows::Loose,
                },
            ],
            runs: vec![twig.root_run(); 2],
        })
    }

    /// An upper bound on [`Self::score`] over the rows whose query nodes
    /// bind within `spreads` (one per query node). Each component is
    /// bounded by itself: per query node the best specificity, per `//`
    /// edge the least slack the depths allow (shallowest child under
    /// deepest parent), full content relevance if the pattern has
    /// `contains` terms at all.
    ///
    /// The bound is *reached*, bit for bit, whenever every row it covers
    /// scores the same — one DataGuide path per query node, the common
    /// case on data-centric documents — because it goes through the very
    /// floating-point expressions a row's score does, in the same order,
    /// and each of those is monotone in its inputs (IEEE rounding keeps
    /// `a ≤ b ⇒ a ⊕ c ≤ b ⊕ c`; [`Self::walk`] checks the weights
    /// non-negative). Depths and region levels differ by a constant at
    /// most, which a slack cancels.
    fn bound(&self, spreads: &[Spread]) -> f64 {
        let least_slack: u32 = (self.ad_edges.iter())
            .map(|&(child, parent)| {
                let deepest_parent = u32::from(spreads[parent].deepest);
                u32::from(spreads[child].shallowest).saturating_sub(deepest_parent + 1)
            })
            .sum();
        self.combine(
            tightness(least_slack),
            self.content_bound(),
            mean(spreads.iter().map(|s| s.specificity)),
        )
    }

    /// The best content relevance a row can have: full if the pattern
    /// has `contains` terms at all, none otherwise.
    fn content_bound(&self) -> f64 {
        if self.terms.is_empty() {
            squash(0.0)
        } else {
            1.0
        }
    }
}

/// The order in which [`Ranker::rank_top_k`] walks the rows: classes of
/// rows, each with the bound on their scores, the best bound first.
struct Walk {
    /// `Guide` or `Structure`.
    bound: Bound,
    /// Best bound first.
    classes: Vec<Class>,
    runs: Vec<Range<u32>>,
}

/// The rows of some root-stream runs that one filter lets through, and
/// the bound on their scores.
struct Class {
    bound: f64,
    /// The end of its runs in [`Walk::runs`] (the previous class's end
    /// is where they start).
    end: usize,
    rows: Rows,
}

impl Class {
    fn every_row(bound: f64, end: usize) -> Self {
        let rows = Rows::All;
        Class { bound, end, rows }
    }
}

/// Which rows of its runs a [`Class`] holds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rows {
    /// Every one.
    All,
    /// Those of total slack 0.
    Tight,
    /// Those of total slack 1 or more.
    Loose,
}

/// What enumerating and scoring one row costs, in reads of the bound:
/// ≈58 ns a row on xmark X4 against 6.4–9.8 ns a guide node read by the
/// embedding and its spreads (xmark:64 and treebank:16) and ≈6 ns a root
/// element read by the partition.
const READS_PER_ROW: usize = 8;

/// What enumerating and scoring one row costs, in steps of a walk along
/// the root stream: ≈60–130 ns a row against ≈2 ns a step on treebank:16.
const ROOT_STEPS_PER_ROW: usize = 32;

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
    /// When many more than `k` rows exist and the enumerator hands them
    /// over in tie-break order ([`JoinResult::reduced_in_row_order`]),
    /// the rows are walked in classes, each bounded above, best bound
    /// first, each in row order: one class per group of root paths of
    /// equal bound on the DataGuide or, where the guide costs more to
    /// read than the rows it could drop, the tight rows (no `//` edge
    /// bound below one step down) and then the rest. The walk
    /// stops inside a class once the collector is full and its worst row
    /// beats the class bound, or ties it and precedes the row just
    /// offered — a later row of the class can at best tie, and then
    /// loses the tie-break; and before a class once the worst row beats
    /// the class bound outright (an earlier row of that class could tie
    /// it and win). The answer is the same, bit for bit, and complete —
    /// the rows not enumerated were never candidates.
    ///
    /// Runs under the result's budget (a trip leaves an exact top-k of
    /// the rows scored by then, every one a true hit). Returns the
    /// ranking with the walk that found it: the rows offered, the bound
    /// walked under and the classes walked out of all — counters the walk
    /// keeps anyway.
    pub fn rank_top_k(
        &self,
        pattern: &TwigPattern,
        result: &JoinResult<'_>,
        k: usize,
    ) -> (Vec<ScoredMatch>, RankStats) {
        let scorer = self.scorer(pattern);
        let mut collector = OrderedTopK::new(k);
        let mut offered = 0usize;
        let (mut bound, mut walked, mut classes) = (Bound::None, 0, 1);
        let mut ticker = result.guard().ticker();
        let droppable = result.count().saturating_sub(k);
        let walk = (result.reduced_in_row_order())
            .filter(|_| k > 0)
            .and_then(|twig| Some((twig, scorer.walk(pattern, twig, droppable, &mut ticker)?)));
        if let Some((twig, walk)) = walk {
            (bound, classes) = (walk.bound, walk.classes.len());
            let mut start = 0;
            for class in &walk.classes {
                if collector.score_to_beat() > Some(class.bound) {
                    break;
                }
                walked += 1;
                let runs = &walk.runs[start..class.end];
                let tight = class.rows == Rows::Tight;
                let finished = twig.for_each_row(&mut ticker, runs, tight, |row| {
                    let slack = scorer.slack(row);
                    if slack == 0 && class.rows == Rows::Loose {
                        // The tight class's: offered, or out of reach.
                        return true;
                    }
                    offered += 1;
                    collector.offer(scorer.score_at_slack(row, slack), row);
                    !collector.settled(class.bound, row)
                });
                if !finished {
                    break;
                }
                start = class.end;
            }
        } else if k > 0 {
            walked = 1;
            result.for_each_row(|row| {
                offered += 1;
                collector.offer(scorer.score(row), row);
                true
            });
        }
        let stats = RankStats {
            offered,
            bound,
            walked,
            classes,
        };
        (collector.into_sorted(), stats)
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

    /// The ranking reports the bound it walked under and the classes it
    /// walked out of all.
    #[test]
    fn rank_stats_name_the_bound_and_the_classes_walked() {
        let walk = |xml: &str, query: &str, k: usize| {
            let idx = IndexedDocument::from_str(xml).unwrap();
            let pattern = parse_query(query).unwrap();
            let guard = lotusx_guard::QueryGuard::unlimited();
            let result =
                lotusx_twig::execute_budgeted(&idx, &pattern, Algorithm::StructuralJoin, &guard);
            let (_, stats) = Ranker::new(&idx).rank_top_k(&pattern, &result, k);
            (stats.bound, (stats.walked, stats.classes))
        };
        // Two root paths of different sizes: two classes, the rarer one
        // walked alone.
        let two_paths = format!(
            "<r><p>{}</p><q>{}</q></r>",
            "<b/>".repeat(50),
            "<b/>".repeat(200)
        );
        assert_eq!(walk(&two_paths, "//b", 5), (Bound::Guide, (1, 2)));
        // The same rows beside a thousand paths of other tags: the guide
        // costs more to read than the rows it could drop.
        let paths: String = (0..1000).map(|i| format!("<t{i}/>")).collect();
        let wide = two_paths.replace("</r>", &format!("{paths}</r>"));
        assert_eq!(walk(&wide, "//b", 5), (Bound::None, (1, 1)));
        // A `//` edge beside the same paths: the structural bound. A
        // hundred tight rows settle k = 5 in the first class; k = 150
        // walks the rest too.
        let (tight, loose) = ("<b/>".repeat(100), "<m><b/></m>".repeat(100));
        let deep = format!("<r><q>{tight}{loose}</q>{paths}</r>");
        assert_eq!(walk(&deep, "//q//b", 5), (Bound::Structure, (1, 2)));
        assert_eq!(walk(&deep, "//q//b", 150), (Bound::Structure, (2, 2)));
        // Nothing to drop, nothing to bound; nothing asked, nothing walked.
        assert_eq!(walk(&two_paths, "//b", 250), (Bound::None, (1, 1)));
        assert_eq!(walk(&two_paths, "//b", 0), (Bound::None, (0, 1)));
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
