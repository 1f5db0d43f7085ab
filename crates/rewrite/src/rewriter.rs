//! Best-first search over the rewrite space.

use crate::ops::{apply, RewriteOp};
use crate::synonyms::{spelling_candidates, synonyms};
use lotusx_guard::{QueryGuard, Ticker};
use lotusx_index::{DataGuide, GuideNodeId, IndexedDocument};
use lotusx_obs::Span;
use lotusx_twig::exec::{execute_budgeted, Algorithm};
use lotusx_twig::pattern::{Axis, NodeTest, TwigPattern};
use lotusx_xml::Symbol;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Stop after this many non-empty rewrites.
const MAX_REWRITES: usize = 5;
/// Stop after expanding this many candidates.
const MAX_EXPANSIONS: usize = 300;
/// Never explore rewrites costlier than this.
const MAX_COST: f64 = 6.0;
/// Maximum edit distance for spelling-corrected tag substitution.
const SPELL_DISTANCE: usize = 2;

/// The rewriter's one option.
#[derive(Clone, Copy, Debug)]
pub struct RewriterConfig {
    /// Enable DataGuide satisfiability pruning (disabled by the E9
    /// ablation to measure its value).
    pub guide_pruning: bool,
}

impl Default for RewriterConfig {
    fn default() -> Self {
        RewriterConfig {
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

/// The rewriter. It holds nothing but the index: the satisfiability
/// check reads the index's DataGuide in place, so a rewriter costs
/// nothing to create and rewriting is independent of document size
/// except for candidate execution.
pub struct Rewriter<'a> {
    idx: &'a IndexedDocument,
    config: RewriterConfig,
}

impl<'a> Rewriter<'a> {
    /// Creates a rewriter over `idx`.
    pub fn new(idx: &'a IndexedDocument, config: RewriterConfig) -> Self {
        Rewriter { idx, config }
    }

    /// Structure-only satisfiability: does the pattern, with its value
    /// predicates dropped and its order ignored, embed in the DataGuide
    /// tree? Sound and complete for the tag paths present in the
    /// document. Every guide node examined charges one visit to `guard`,
    /// so an answer is only meaningful while it has not tripped.
    pub fn is_satisfiable(&self, pattern: &TwigPattern, guard: &QueryGuard) -> bool {
        let mut ticker = guard.ticker();
        let embeds = embeds_in_guide(self.idx, pattern, &mut ticker);
        ticker.flush();
        embeds
    }

    /// Rewrites a (typically empty-result) query: returns up to
    /// five non-empty rewrites, gentlest first, with the search
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
            if results.len() >= MAX_REWRITES
                || stats.expansions >= MAX_EXPANSIONS
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
                if cost > MAX_COST {
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
                for syn in synonyms(tag) {
                    if symbols.get(syn).is_some() {
                        let op = RewriteOp::SubstituteTag(q, syn.to_string());
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
                    for (fixed, distance) in spelling_candidates(tag, doc_tags, SPELL_DISTANCE)
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

/// Whether `pattern` embeds in the guide tree of `idx`, predicates and
/// order ignored. Query nodes are settled children first: guide node `g`
/// satisfies query node `q` when its tag passes `q`'s test and, for every
/// child `c` of `q`, a guide child (`/`) or a proper guide descendant
/// (`//`) of `g` satisfies `c`. Returns false as soon as the ticker stops.
fn embeds_in_guide(idx: &IndexedDocument, pattern: &TwigPattern, ticker: &mut Ticker) -> bool {
    let symbols = idx.document().symbols();
    // A tag the document never interned labels no guide node.
    let tests: Option<Vec<Option<Symbol>>> = pattern
        .node_ids()
        .map(|q| match &pattern.node(q).test {
            NodeTest::Tag(name) => symbols.get(name).map(Some),
            NodeTest::Wildcard => Some(None),
        })
        .collect();
    let Some(tests) = tests else {
        return false;
    };
    let guide = idx.guide();
    let mut satisfied: Vec<Vec<bool>> = vec![Vec::new(); pattern.len()];
    for q in pattern.preorder().into_iter().rev() {
        let below: Option<Vec<Vec<bool>>> = pattern
            .node(q)
            .children
            .iter()
            .map(|&c| marked_below(guide, &satisfied[c.index()], pattern.node(c).axis, ticker))
            .collect();
        let Some(below) = below else {
            return false;
        };
        let mut here = vec![false; guide.node_count()];
        // The virtual root binds no query node.
        for (g, sat) in here.iter_mut().enumerate().skip(1) {
            if ticker.tick(1) {
                return false;
            }
            let tag = guide.tag(GuideNodeId::from_index(g));
            *sat = tests[q.index()].is_none_or(|t| tag == Some(t)) && below.iter().all(|b| b[g]);
        }
        // A query node nothing satisfies sinks the whole pattern.
        if !here.contains(&true) {
            return false;
        }
        satisfied[q.index()] = here;
    }
    let root = &satisfied[pattern.root().index()];
    match pattern.node(pattern.root()).axis {
        Axis::Child => guide
            .children(GuideNodeId::ROOT)
            .iter()
            .any(|&(_, g)| root[g.index()]),
        // Non-empty, or the loop above would have returned.
        Axis::Descendant => true,
    }
}

/// Per guide node, whether a child (`/`) or a proper descendant (`//`) of
/// it is marked in `marked`; `None` once the ticker stops. Guide nodes are
/// stored parent before child, so a reverse sweep has settled a node
/// before it passes its mark up to its parent.
fn marked_below(
    guide: &DataGuide,
    marked: &[bool],
    axis: Axis,
    ticker: &mut Ticker,
) -> Option<Vec<bool>> {
    let mut below = vec![false; marked.len()];
    for g in (1..marked.len()).rev() {
        if ticker.tick(1) {
            return None;
        }
        if marked[g] || (axis == Axis::Descendant && below[g]) {
            let parent = guide.parent(GuideNodeId::from_index(g)).expect("non-root");
            below[parent.index()] = true;
        }
    }
    Some(below)
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
    use lotusx_guard::Budget;
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
        let r = Rewriter::new(&idx, RewriterConfig::default());
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
        let r = Rewriter::new(&idx, RewriterConfig::default());
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
        let r = Rewriter::new(&idx, RewriterConfig::default());
        let broken = parse_query("//artcle/title").unwrap();
        let (rewrites, _) = rewrite(&r, &broken);
        assert!(!rewrites.is_empty());
        assert!(rewrites[0].pattern.to_string().contains("article"));
    }

    #[test]
    fn axis_generalization_recovers_results() {
        let idx = IndexedDocument::from_str("<r><a><m><b>x</b></m></a></r>").unwrap();
        let r = Rewriter::new(&idx, RewriterConfig::default());
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
        let r = Rewriter::new(&idx, RewriterConfig::default());
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
        let pruned = Rewriter::new(&idx, RewriterConfig::default());
        let unpruned = Rewriter::new(
            &idx,
            RewriterConfig {
                guide_pruning: false,
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
        let r = Rewriter::new(&idx, RewriterConfig::default());
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
        let r = Rewriter::new(&idx, RewriterConfig::default());
        let broken = parse_query("//nosuchtag1/nosuchtag2").unwrap();
        let guard = QueryGuard::new(&Budget::unlimited().with_node_quota(2));
        let (_, stats) = r.rewrite(&broken, None, &guard);
        assert!(guard.is_tripped());
        assert!(stats.expansions <= 2);
    }

    #[test]
    fn tripped_guards_stop_the_search_and_report_only_verified_rewrites() {
        let idx = idx();
        let r = Rewriter::new(&idx, RewriterConfig::default());
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
