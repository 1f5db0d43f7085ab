//! Best-first search over the rewrite space.

use crate::ops::{apply, RewriteOp};
use crate::synonyms::{spelling_candidates, SynonymTable};
use lotusx_guard::QueryGuard;
use lotusx_index::IndexedDocument;
use lotusx_obs::Span;
use lotusx_twig::exec::{execute_budgeted, Algorithm};
use lotusx_twig::pattern::{NodeTest, TwigPattern};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Search budget and output size configuration.
#[derive(Clone, Copy, Debug)]
pub struct RewriterConfig {
    /// Stop after this many non-empty rewrites.
    pub max_rewrites: usize,
    /// Stop after expanding this many candidates.
    pub max_expansions: usize,
    /// Never explore rewrites costlier than this.
    pub max_cost: f64,
    /// Maximum edit distance for spelling-corrected tag substitution.
    pub spell_distance: usize,
    /// Enable DataGuide satisfiability pruning (disabled by the E9
    /// ablation to measure its value).
    pub guide_pruning: bool,
}

impl Default for RewriterConfig {
    fn default() -> Self {
        RewriterConfig {
            max_rewrites: 5,
            max_expansions: 300,
            max_cost: 6.0,
            spell_distance: 2,
            guide_pruning: true,
        }
    }
}

/// A rewrite that produced results, with its accumulated penalty.
#[derive(Clone, Debug)]
pub struct RankedRewrite {
    /// The rewritten pattern.
    pub pattern: TwigPattern,
    /// Total penalty of the applied operators (lower = closer to the
    /// original query).
    pub cost: f64,
    /// Human-readable descriptions of the applied operators.
    pub ops: Vec<String>,
    /// Number of matches the rewrite produced.
    pub match_count: usize,
}

/// Statistics of one rewrite search (reported by experiment E6).
#[derive(Clone, Copy, Debug, Default)]
pub struct RewriteStats {
    /// Candidates popped from the frontier.
    pub expansions: usize,
    /// Candidates discarded by DataGuide satisfiability pruning.
    pub pruned_unsatisfiable: usize,
    /// Candidates actually executed against the data.
    pub executions: usize,
}

/// What a rewriter prepares per document rather than per query: the
/// DataGuide materialized and indexed as a tiny document (the
/// satisfiability oracle) and the synonym table. Build it once and share
/// it across rewrites with [`Rewriter::over`].
#[derive(Clone)]
pub struct RewriteSetup {
    guide_idx: IndexedDocument,
    synonyms: SynonymTable,
}

impl RewriteSetup {
    /// Indexes the DataGuide of `idx`.
    pub fn new(idx: &IndexedDocument, synonyms: SynonymTable) -> Self {
        let guide_doc = idx.guide().to_document(idx.document().symbols());
        RewriteSetup {
            guide_idx: IndexedDocument::build(guide_doc),
            synonyms,
        }
    }
}

/// The rewriter. Given its [`RewriteSetup`], rewriting is independent of
/// document size except for candidate execution.
pub struct Rewriter<'a> {
    idx: &'a IndexedDocument,
    setup: Cow<'a, RewriteSetup>,
    config: RewriterConfig,
}

impl<'a> Rewriter<'a> {
    /// Creates a rewriter with the default synonym table and config.
    pub fn new(idx: &'a IndexedDocument) -> Self {
        Self::with(
            idx,
            SynonymTable::default_table(),
            RewriterConfig::default(),
        )
    }

    /// Creates a rewriter with explicit synonym table and config,
    /// building a private [`RewriteSetup`].
    pub fn with(idx: &'a IndexedDocument, synonyms: SynonymTable, config: RewriterConfig) -> Self {
        Rewriter {
            idx,
            setup: Cow::Owned(RewriteSetup::new(idx, synonyms)),
            config,
        }
    }

    /// Creates a rewriter over a `setup` prepared earlier for the same
    /// `idx` — no per-rewriter indexing at all.
    pub fn over(idx: &'a IndexedDocument, setup: &'a RewriteSetup, config: RewriterConfig) -> Self {
        Rewriter {
            idx,
            setup: Cow::Borrowed(setup),
            config,
        }
    }

    /// Structure-only satisfiability: does the pattern (ignoring value
    /// predicates) match the DataGuide? Sound and complete for the tag
    /// paths present in the document, and runs on the tiny guide tree —
    /// under `guard`, so an answer is only meaningful while it has not
    /// tripped.
    pub fn is_satisfiable(&self, pattern: &TwigPattern, guard: &QueryGuard) -> bool {
        let mut stripped = pattern.clone();
        for q in stripped.node_ids() {
            stripped.set_predicate(q, None);
        }
        stripped.set_ordered(false);
        let guide = &self.setup.guide_idx;
        !execute_budgeted(guide, &stripped, Algorithm::Naive, None, guard).is_empty()
    }

    /// Rewrites a (typically empty-result) query: returns up to
    /// `max_rewrites` non-empty rewrites, gentlest first, with the search
    /// statistics — frontier expansions, candidates pruned as
    /// unsatisfiable by the DataGuide, and candidates executed against
    /// the data — which also annotate `span` when one is supplied (the
    /// span never changes the search).
    ///
    /// The search runs under the request's `guard`: every expansion
    /// charges one node visit, candidates execute budgeted, and the
    /// search stops as soon as the guard trips. A candidate whose
    /// satisfiability check or execution was cut short is never reported,
    /// so every returned rewrite is verified; callers learn from the guard
    /// that the list may be incomplete.
    pub fn rewrite(
        &self,
        original: &TwigPattern,
        span: Option<&Span>,
        guard: &QueryGuard,
    ) -> (Vec<RankedRewrite>, RewriteStats) {
        let mut stats = RewriteStats::default();
        let mut results: Vec<RankedRewrite> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        let mut frontier: BinaryHeap<Candidate> = BinaryHeap::new();
        frontier.push(Candidate {
            cost: 0.0,
            seq: 0,
            pattern: original.clone(),
            ops: Vec::new(),
        });
        seen.insert(original.to_string());
        let mut seq = 1u64;

        while let Some(candidate) = frontier.pop() {
            if results.len() >= self.config.max_rewrites
                || stats.expansions >= self.config.max_expansions
                || guard.charge_nodes(1)
            {
                break;
            }
            stats.expansions += 1;

            // Evaluate (skip the cost-0 original: the caller already knows
            // it is empty).
            if candidate.cost > 0.0 {
                let satisfiable =
                    !self.config.guide_pruning || self.is_satisfiable(&candidate.pattern, guard);
                if guard.is_tripped() {
                    break;
                }
                if !satisfiable {
                    stats.pruned_unsatisfiable += 1;
                } else {
                    stats.executions += 1;
                    // Only the count matters here — no row is built for
                    // it — and every algorithm counts the same: run what
                    // `auto` resolves to.
                    let match_count = execute_budgeted(
                        self.idx,
                        &candidate.pattern,
                        Algorithm::Auto,
                        None,
                        guard,
                    )
                    .count();
                    if guard.is_tripped() {
                        break;
                    }
                    if match_count > 0 {
                        results.push(RankedRewrite {
                            pattern: candidate.pattern.clone(),
                            cost: candidate.cost,
                            ops: candidate.ops.clone(),
                            match_count,
                        });
                        // A hit is a good stopping point for this branch;
                        // still expand others for diversity.
                        continue;
                    }
                }
            }

            // Expand.
            for (op, extra_cost) in self.applicable_ops(&candidate.pattern) {
                let cost = candidate.cost + extra_cost;
                if cost > self.config.max_cost {
                    continue;
                }
                let Some(next) = apply(&candidate.pattern, &op) else {
                    continue;
                };
                let key = next.to_string();
                if !seen.insert(key) {
                    continue;
                }
                let mut ops = candidate.ops.clone();
                ops.push(op.to_string());
                frontier.push(Candidate {
                    cost,
                    seq,
                    pattern: next,
                    ops,
                });
                seq += 1;
            }
        }
        results.sort_by(|a, b| {
            a.cost
                .partial_cmp(&b.cost)
                .unwrap_or(Ordering::Equal)
                .then_with(|| b.match_count.cmp(&a.match_count))
        });
        if let Some(span) = span {
            span.annotate("expansions", stats.expansions);
            span.annotate("pruned-unsatisfiable", stats.pruned_unsatisfiable);
            span.annotate("executions", stats.executions);
            span.annotate("rewrites", results.len());
        }
        (results, stats)
    }

    /// All operators applicable to any node of `pattern`, with their costs.
    fn applicable_ops(&self, pattern: &TwigPattern) -> Vec<(RewriteOp, f64)> {
        let mut out = Vec::new();
        let symbols = self.idx.document().symbols();
        for q in pattern.node_ids() {
            let node = pattern.node(q);
            out.push((
                RewriteOp::GeneralizeEdge(q),
                RewriteOp::GeneralizeEdge(q).base_cost(),
            ));
            out.push((
                RewriteOp::SoftenPredicate(q),
                RewriteOp::SoftenPredicate(q).base_cost(),
            ));
            out.push((
                RewriteOp::DropPredicate(q),
                RewriteOp::DropPredicate(q).base_cost(),
            ));
            out.push((
                RewriteOp::DeleteLeaf(q),
                RewriteOp::DeleteLeaf(q).base_cost(),
            ));
            out.push((
                RewriteOp::PromoteNode(q),
                RewriteOp::PromoteNode(q).base_cost(),
            ));
            if let NodeTest::Tag(tag) = &node.test {
                // Synonyms that actually occur in the document.
                for syn in self.setup.synonyms.synonyms(tag) {
                    if symbols.get(syn).is_some() {
                        let op = RewriteOp::SubstituteTag(q, syn.clone());
                        let cost = op.base_cost();
                        out.push((op, cost));
                    }
                }
                // Spelling corrections against document tags, unless the
                // tag already exists (then a typo fix is not the problem).
                if symbols.get(tag).is_none() {
                    let doc_tags = symbols
                        .iter()
                        .map(|(sym, name)| (name, self.idx.columns().view(sym).len()))
                        .filter(|(_, f)| *f > 0);
                    for (fixed, distance) in
                        spelling_candidates(tag, doc_tags, self.config.spell_distance)
                            .into_iter()
                            .take(3)
                    {
                        let op = RewriteOp::SubstituteTag(q, fixed);
                        out.push((op, 1.0 + distance as f64));
                    }
                }
            }
        }
        out
    }
}

struct Candidate {
    cost: f64,
    seq: u64,
    pattern: TwigPattern,
    ops: Vec<String>,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.seq == other.seq
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost (BinaryHeap is a max-heap), FIFO on ties.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotusx_twig::xpath::parse_query;

    fn rewrite(r: &Rewriter<'_>, pattern: &TwigPattern) -> (Vec<RankedRewrite>, RewriteStats) {
        r.rewrite(pattern, None, &QueryGuard::unlimited())
    }

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<dblp>\
               <article><author>lu</author><title>twig joins</title><year>2005</year></article>\
               <article><author>bruno</author><title>holistic</title><year>2002</year></article>\
               <book><author>codd</author><title>relational</title><publisher>mk</publisher></book>\
             </dblp>",
        )
        .unwrap()
    }

    #[test]
    fn satisfiability_matches_data_presence() {
        let idx = idx();
        let r = Rewriter::new(&idx);
        let satisfiable =
            |q: &str| r.is_satisfiable(&parse_query(q).unwrap(), &QueryGuard::unlimited());
        assert!(satisfiable("//article/author"));
        assert!(satisfiable("//dblp//title"));
        assert!(!satisfiable("//article/publisher"));
        assert!(!satisfiable("//nosuchtag"));
    }

    #[test]
    fn synonym_substitution_recovers_results() {
        let idx = idx();
        let r = Rewriter::new(&idx);
        let broken = parse_query("//article/writer").unwrap();
        let (rewrites, _) = rewrite(&r, &broken);
        assert!(!rewrites.is_empty());
        let best = &rewrites[0];
        assert!(
            best.pattern.to_string().contains("author"),
            "{}",
            best.pattern
        );
        assert_eq!(best.match_count, 2);
    }

    #[test]
    fn typo_correction_recovers_results() {
        let idx = idx();
        let r = Rewriter::new(&idx);
        let broken = parse_query("//artcle/title").unwrap();
        let (rewrites, _) = rewrite(&r, &broken);
        assert!(!rewrites.is_empty());
        assert!(rewrites[0].pattern.to_string().contains("article"));
    }

    #[test]
    fn axis_generalization_recovers_results() {
        let idx = IndexedDocument::from_str("<r><a><m><b>x</b></m></a></r>").unwrap();
        let r = Rewriter::new(&idx);
        let broken = parse_query("//a/b").unwrap();
        let (rewrites, _) = rewrite(&r, &broken);
        assert!(!rewrites.is_empty());
        let best = &rewrites[0];
        assert_eq!(best.pattern.to_string(), "//a[//b!]");
        assert!((best.cost - 1.0).abs() < 1e-9, "one edge generalization");
    }

    #[test]
    fn results_are_cost_ordered_and_nonempty() {
        let idx = idx();
        let r = Rewriter::new(&idx);
        let broken = parse_query("//book/journal").unwrap();
        let (rewrites, _) = rewrite(&r, &broken);
        assert!(!rewrites.is_empty());
        for w in rewrites.windows(2) {
            assert!(w[0].cost <= w[1].cost);
        }
        for rw in &rewrites {
            assert!(rw.match_count > 0);
        }
    }

    #[test]
    fn pruning_reduces_executions() {
        let idx = idx();
        let pruned = Rewriter::new(&idx);
        let unpruned = Rewriter::with(
            &idx,
            SynonymTable::default_table(),
            RewriterConfig {
                guide_pruning: false,
                ..RewriterConfig::default()
            },
        );
        let broken = parse_query("//artcle[writer]/journal").unwrap();
        let (_, s1) = rewrite(&pruned, &broken);
        let (_, s2) = rewrite(&unpruned, &broken);
        assert!(
            s1.executions < s2.executions,
            "pruned {} vs unpruned {}",
            s1.executions,
            s2.executions
        );
        assert!(s1.pruned_unsatisfiable > 0);
    }

    #[test]
    fn satisfiable_original_with_empty_results_still_rewrites() {
        let idx = idx();
        let r = Rewriter::new(&idx);
        // Structurally fine but the predicate matches nothing.
        let broken = parse_query(r#"//article[title = "nonexistent words"]"#).unwrap();
        let (rewrites, _) = rewrite(&r, &broken);
        assert!(!rewrites.is_empty());
        // The gentlest fix softens or drops the predicate.
        assert!(rewrites[0].ops.iter().any(|o| o.contains("predicate")));
    }

    #[test]
    fn budget_limits_exploration() {
        let idx = idx();
        let tight = Rewriter::with(
            &idx,
            SynonymTable::default_table(),
            RewriterConfig {
                max_expansions: 2,
                ..RewriterConfig::default()
            },
        );
        let broken = parse_query("//nosuchtag1/nosuchtag2").unwrap();
        let (_, stats) = rewrite(&tight, &broken);
        assert!(stats.expansions <= 2);
    }

    #[test]
    fn tripped_guards_stop_the_search_and_report_only_verified_rewrites() {
        use lotusx_guard::Budget;
        let idx = idx();
        let r = Rewriter::new(&idx);
        let broken = parse_query("//article[publisher]/title").unwrap();
        let (full, full_stats) = rewrite(&r, &broken);
        assert!(full.len() > 1 && full_stats.expansions > 4);
        let describe = |rewrites: &[RankedRewrite]| -> Vec<(String, usize)> {
            let key = |rw: &RankedRewrite| (rw.pattern.to_string(), rw.match_count);
            rewrites.iter().map(key).collect()
        };
        // A generous budget changes nothing.
        let generous = QueryGuard::new(&Budget::unlimited().with_node_quota(1 << 40));
        let (same, same_stats) = r.rewrite(&broken, None, &generous);
        assert!(!generous.is_tripped());
        assert_eq!(describe(&same), describe(&full));
        assert_eq!(same_stats.expansions, full_stats.expansions);
        // Starved budgets stop early.
        let mut tripped = 0;
        for quota in 0..full_stats.expansions as u64 {
            let guard = QueryGuard::new(&Budget::unlimited().with_node_quota(quota));
            let (got, stats) = r.rewrite(&broken, None, &guard);
            assert!(guard.is_tripped(), "quota {quota}");
            assert!(stats.expansions as u64 <= quota, "one visit per expansion");
            tripped += usize::from(got.len() < full.len());
            // Whatever comes back ran to completion: same pattern, same
            // match count as in the unbudgeted search.
            for verified in describe(&got) {
                assert!(describe(&full).contains(&verified), "quota {quota}");
            }
        }
        assert!(tripped > 2, "small quotas must lose rewrites: {tripped}");
    }
}
