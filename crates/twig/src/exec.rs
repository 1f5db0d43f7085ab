//! Algorithm selection facade.

use crate::algorithms::naive;
use crate::algorithms::structural_join::{self, ReducedTwig};
use crate::matcher::MatchSet;
use crate::ordered::filter_ordered;
use crate::pattern::{Axis, TwigPattern, ValuePredicate};
use lotusx_guard::QueryGuard;
use lotusx_index::IndexedDocument;
use lotusx_obs::Span;
use lotusx_xml::NodeId;

/// The available twig evaluation algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Navigational top-down matching (baseline).
    Naive,
    /// Binary structural joins per edge.
    StructuralJoin,
    /// Per-query cost-model selection (see [`choose_algorithm`]): resolved
    /// to one of the concrete algorithms before the join runs. Not listed
    /// in [`Algorithm::ALL`] — it is a policy, not a third join.
    Auto,
}

impl Algorithm {
    /// All algorithms, in the order the experiments report them.
    pub const ALL: [Algorithm; 2] = [Algorithm::Naive, Algorithm::StructuralJoin];

    /// A short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Naive => "naive",
            Algorithm::StructuralJoin => "structural-join",
            Algorithm::Auto => "auto",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One resolved per-query algorithm decision together with the cost-model
/// estimates that produced it — what `explain` and the chooser trace event
/// report. Costs are in abstract units calibrated so one unit ≈ one
/// nanosecond of release-build work on the reference host (`BENCH_join.json`
/// records the calibration sweep); only their relative order matters.
#[derive(Clone, Copy, Debug)]
pub struct Choice {
    /// The algorithm to run (never [`Algorithm::Auto`]).
    pub algorithm: Algorithm,
    /// Estimated cost of the navigational baseline (child-fanout and
    /// subtree-weight scans).
    pub nav_cost: u64,
    /// Estimated cost of the binary structural join (one counting gather
    /// or merge per edge + the walk that enumerates every row).
    pub binary_cost: u64,
}

/// Per element visited by a navigational child or subtree scan.
const SCAN_COST: u64 = 14;
/// Per element of both streams consumed by one edge's reduce merge — a
/// descendant edge, or an edge with a `*` end. A related pair costs
/// nothing of its own: the merge counts, it does not write pairs down.
const MERGE_COST: u64 = 7;
/// Per child-stream element of a child edge between two tag streams,
/// which reduces by gather: one parent lookup per child, and then one
/// pass over the parents at about one unit each (`choice_debug`'s
/// `fit_child_edge_cost`: 2.8 ns per child + 0.9 ns per parent).
const GATHER_COST: u64 = 3;
/// Per root-stream element the binary join's enumerating walk steps over.
const WALK_COST: u64 = 7;
/// Per match row the walk binds and writes.
const ROW_COST: u64 = 22;
/// Per emitted match row of the navigational baseline.
const NAIVE_MATCH_COST: u64 = 20;
/// Per stream element of a value predicate that has to read the element
/// (`contains` and the attribute tests), paid by the binary join, which
/// materializes filtered streams up front.
const PRED_STREAM_COST: u64 = 270;
/// Per stream element of a predicate the value index resolves (`=` and
/// numeric ranges): marking the candidates and one bit probe.
const PRED_INDEX_COST: u64 = 7;
/// Per candidate value-predicate evaluation paid lazily by the
/// navigational baseline (only structural survivors are tested, but each
/// test reads the element).
const PRED_NAV_COST: u64 = 270;
/// Fixed per-query setup of the binary join (column slicing, a weight
/// vector per node and a range vector per edge) before any element
/// moves; the navigational baseline starts from the root stream alone
/// and pays none. Decides only micro-queries.
const JOIN_SETUP_COST: u64 = 800;

/// The stats-driven cost model behind [`Algorithm::Auto`]: prices the
/// navigational and the binary-join plan for `pattern` from
/// [`lotusx_index::JoinStats`] and returns the cheaper with the two
/// estimates that decided it (navigation wins ties).
///
/// The model charges each plan for the work it actually does:
///
/// * **navigational** — one child-fanout scan per P-C edge and one
///   subtree rescan per A-D edge, taken from the exact per-tag
///   [`children_total`](lotusx_index::JoinStats::children_total) and
///   [`subtree_weight`](lotusx_index::JoinStats::subtree_weight)
///   aggregates (recursion multiplies the latter, which is exactly when
///   navigation loses); value predicates are tested lazily on survivors;
/// * **binary join** — one counting pass per edge: a gather over the
///   children and a pass over the parents on a child edge between tags,
///   a merge over both streams otherwise (pairs are never written, so
///   recursion multiplies nothing here), a
///   walk over the root stream and one row write per match — full
///   materialization, which is what [`execute`] does; a caller that asks
///   only for the count and the top `k` pays less, never more;
///   predicates are evaluated while materializing full streams.
pub fn choose_algorithm(idx: &IndexedDocument, pattern: &TwigPattern) -> Choice {
    let js = idx.join_stats();
    let symbols = idx.document().symbols();
    let sym_of = |q: crate::pattern::QNodeId| {
        pattern
            .node(q)
            .test
            .tag_name()
            .map(|name| symbols.get(name))
    };
    let stream_len: Vec<u64> = pattern
        .node_ids()
        .map(|q| match sym_of(q) {
            // A named tag: its stream is exactly the tag's frequency
            // (0 when the document never saw the name).
            Some(sym) => sym.map(|s| js.tag_frequency(s)).unwrap_or(0),
            // A wildcard scans every element.
            None => js.element_count(),
        })
        .collect();
    let s_root = stream_len[pattern.root().index()];

    let mut edge_count = 0u64;
    // Independence estimate of the final match count: start from the root
    // stream and multiply by each edge's per-parent pair yield. Fits the
    // measured outputs of the benchmark suite within a small factor for
    // both chains (where multiplicity >1 inflates) and branching twigs
    // (where each extra branch thins the root survivors).
    let mut match_est = s_root as f64;
    let mut nav_cost = SCAN_COST.saturating_mul(s_root);
    let mut binary_cost = JOIN_SETUP_COST.saturating_add(WALK_COST.saturating_mul(s_root));
    let mut pred_stream_cost = 0u64;
    // Fraction of each query node's tag instances the navigational walk
    // actually reaches: the root stream is visited in full, but a deeper
    // node is only expanded under parents that themselves survived, so
    // its fan-out scan scales down accordingly.
    let mut reached_frac = vec![1.0f64; pattern.len()];
    for q in pattern.node_ids() {
        let node = pattern.node(q);
        if let Some(predicate) = &node.predicate {
            let per_element = match predicate {
                ValuePredicate::Equals(_) | ValuePredicate::Range { .. } => PRED_INDEX_COST,
                _ => PRED_STREAM_COST,
            };
            pred_stream_cost =
                pred_stream_cost.saturating_add(per_element.saturating_mul(stream_len[q.index()]));
        }
        let Some(parent) = node.parent else { continue };
        let s_q = stream_len[q.index()];
        let s_p = stream_len[parent.index()];
        // `pairs` counts distinct descendants that survive the edge;
        // `pairs_emitted` counts every (ancestor, descendant) containment
        // pair with multiplicity — under recursion one element pairs with
        // several nested ancestors, and each such pair is a row (or a
        // factor of rows) of the answer.
        let (pairs, pairs_emitted) = match (sym_of(parent), sym_of(q)) {
            (Some(Some(a)), Some(Some(d))) => {
                if node.axis == Axis::Child {
                    let p = js.child_pairs(a, d);
                    (p, p)
                } else {
                    (
                        js.descendant_pairs(a, d),
                        js.descendant_pair_multiplicity(a, d),
                    )
                }
            }
            // Wildcards give the guide nothing to prune on.
            _ => (s_q, s_q),
        };
        let surviving = pairs.min(s_q);
        edge_count += 1;
        if s_p > 0 {
            match_est *= pairs_emitted as f64 / s_p as f64;
        } else {
            match_est = 0.0;
        }

        // Navigational: a child edge scans every direct child under the
        // parent tag's instances; a descendant edge rescans their whole
        // subtrees (with nesting multiplicity). Wildcard parents scan the
        // document. Both aggregates cover *every* instance of the parent
        // tag, so scale by the fraction the walk actually reaches.
        let frac_p = reached_frac[parent.index()];
        let nav_visits = match sym_of(parent) {
            Some(Some(p)) if node.axis == Axis::Child => js.children_total(p),
            Some(Some(p)) => js.subtree_weight(p),
            // Unknown parent tag: nothing to navigate from.
            Some(None) => 0,
            None if node.axis == Axis::Child => js.element_count(),
            None => js.element_count().saturating_mul(4),
        };
        let nav_visits = (nav_visits as f64 * frac_p) as u64;
        nav_cost = nav_cost.saturating_add(SCAN_COST.saturating_mul(nav_visits));
        if node.predicate.is_some() {
            nav_cost = nav_cost.saturating_add(PRED_NAV_COST.saturating_mul(surviving));
        }
        reached_frac[q.index()] = if s_q == 0 {
            0.0
        } else {
            (surviving as f64 * frac_p / s_q as f64).min(1.0)
        };

        // Binary join: a gather step per child and a pass over the
        // parents on a child edge between tags, else one merge over both
        // streams, whatever relates.
        let is_tag = |n| pattern.node(n).test.tag_name().is_some();
        let edge_cost = if node.axis == Axis::Child && is_tag(parent) && is_tag(q) {
            GATHER_COST.saturating_mul(s_q).saturating_add(s_p)
        } else {
            MERGE_COST.saturating_mul(s_p.saturating_add(s_q))
        };
        binary_cost = binary_cost.saturating_add(edge_cost);
    }
    let est_matches = if edge_count == 0 {
        // Edgeless (single-node) pattern: both plans just copy the
        // stream, so don't charge output handling to either.
        0
    } else {
        match_est.min(u64::MAX as f64) as u64
    };
    nav_cost = nav_cost.saturating_add(NAIVE_MATCH_COST.saturating_mul(est_matches));
    binary_cost = binary_cost
        .saturating_add(ROW_COST.saturating_mul(est_matches))
        .saturating_add(pred_stream_cost);
    let algorithm = if binary_cost < nav_cost {
        Algorithm::StructuralJoin
    } else {
        Algorithm::Naive
    };
    Choice {
        algorithm,
        nav_cost,
        binary_cost,
    }
}

/// True when some query node's stream is provably empty — a tag the
/// document never contains — making the whole join empty without running
/// any algorithm. `O(|pattern|)` symbol-table probes.
fn provably_empty(idx: &IndexedDocument, pattern: &TwigPattern) -> bool {
    pattern
        .node_ids()
        .any(|q| match pattern.node(q).test.tag_name() {
            Some(name) => {
                idx.document()
                    .symbols()
                    .get(name)
                    .map(|sym| idx.columns().view(sym).len())
                    .unwrap_or(0)
                    == 0
            }
            None => idx.stats().element_count == 0,
        })
}

/// What a join returns: the matches of one pattern, countable without
/// being built and enumerable one row at a time, still under the budget
/// the join ran under.
///
/// The binary structural join stops at its reduced twig ([`ReducedTwig`])
/// — the count is a sum and rows exist only while a sink looks at them.
/// The navigational walk and ordered patterns (whose sibling-order filter
/// needs whole rows) hold a materialized [`MatchSet`] behind the same
/// three calls.
pub struct JoinResult<'a> {
    guard: QueryGuard,
    matches: Matches<'a>,
    count: usize,
}

enum Matches<'a> {
    Reduced(ReducedTwig<'a>),
    Rows(MatchSet),
}

impl<'a> JoinResult<'a> {
    fn new(guard: &QueryGuard, matches: Matches<'a>) -> Self {
        let count = match &matches {
            Matches::Reduced(twig) => usize::try_from(twig.count()).unwrap_or(usize::MAX),
            Matches::Rows(rows) => rows.len(),
        };
        JoinResult {
            guard: guard.clone(),
            matches,
            count,
        }
    }

    /// The number of matches (saturating at `usize::MAX`) — exact unless
    /// the budget tripped inside the join, and then the number of valid
    /// matches it still holds.
    pub fn count(&self) -> usize {
        self.count
    }

    /// True when there is no match.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Hands the matches to `sink` one row at a time
    /// (`row[q.index()]` is the element bound to `q`) until it returns
    /// `false` or the budget trips; returns whether every row was handed
    /// over. One node visit is charged per row at least; a row that comes
    /// into existence here — enumerated, not read back from a set the
    /// join already materialized and paid for — is charged as a candidate.
    pub fn for_each_row(&self, mut sink: impl FnMut(&[NodeId]) -> bool) -> bool {
        let mut ticker = self.guard.ticker();
        match &self.matches {
            Matches::Reduced(twig) => twig.for_each_row(&mut ticker, sink),
            Matches::Rows(rows) => rows.rows().all(|row| !ticker.tick(1) && sink(row)),
        }
    }

    /// The reduced twig behind this result, when there is one and it
    /// enumerates rows in ascending order — the canonical [`MatchSet`]
    /// order, which is also the ranker's tie-break. What a ranker needs
    /// to bound the scores of the rows it has not seen and stop early.
    pub fn reduced_in_row_order(&self) -> Option<&ReducedTwig<'a>> {
        match &self.matches {
            Matches::Reduced(twig) if twig.rows_ascend() => Some(twig),
            _ => None,
        }
    }

    /// The budget this result was computed, and is enumerated, under.
    pub fn guard(&self) -> &QueryGuard {
        &self.guard
    }

    /// Every match, as a canonical [`MatchSet`].
    pub fn into_match_set(self) -> MatchSet {
        match self.matches {
            Matches::Reduced(twig) => twig.into_match_set(&self.guard),
            Matches::Rows(rows) => rows,
        }
    }
}

/// The raw join: runs the (already resolved) algorithm on the calling
/// thread.
fn join<'a>(
    idx: &'a IndexedDocument,
    pattern: &TwigPattern,
    algorithm: Algorithm,
    guard: &QueryGuard,
) -> Matches<'a> {
    // A query node over a tag the document never saw has an empty stream,
    // so every algorithm would grind to an empty answer; return it now.
    if provably_empty(idx, pattern) {
        return Matches::Rows(MatchSet::new(pattern.len()));
    }
    match algorithm {
        Algorithm::Naive => Matches::Rows(naive::evaluate(idx, pattern, guard)),
        Algorithm::StructuralJoin => Matches::Reduced(structural_join::reduce(idx, pattern, guard)),
        Algorithm::Auto => unreachable!("Auto is resolved before dispatch"),
    }
}

/// Evaluates `pattern` over `idx` with the chosen algorithm, applying the
/// order-sensitivity filter if the pattern requests it, and materializes
/// every match.
pub fn execute(idx: &IndexedDocument, pattern: &TwigPattern, algorithm: Algorithm) -> MatchSet {
    execute_budgeted(idx, pattern, algorithm, None, &QueryGuard::unlimited()).into_match_set()
}

/// Like [`execute`], under a budget, recording the join and the ordered
/// filter as timed children of `span` when one is supplied (the span
/// never changes what is computed) — and stopping short of the rows: the
/// [`JoinResult`] counts them and enumerates them on demand. The join
/// stops cooperatively once `guard` trips, keeping only matches proven
/// valid by then. Callers inspect the guard afterwards to learn whether
/// the result is complete.
pub fn execute_budgeted<'a>(
    idx: &'a IndexedDocument,
    pattern: &TwigPattern,
    algorithm: Algorithm,
    span: Option<&Span>,
    guard: &QueryGuard,
) -> JoinResult<'a> {
    // Resolve the auto policy up front so spans report the algorithm
    // that actually runs.
    let algorithm = match algorithm {
        Algorithm::Auto => choose_algorithm(idx, pattern).algorithm,
        pinned => pinned,
    };
    let join_span = span.map(|parent| parent.child(format!("join/{algorithm}")));
    let result = JoinResult::new(guard, join(idx, pattern, algorithm, guard));
    if let Some(join_span) = join_span {
        join_span.annotate("matches", result.count());
    }
    if !pattern.is_ordered() {
        return result;
    }
    // Sibling order is a property of whole rows: build them, filter them.
    let filter_span = span.map(|parent| parent.child("ordered-filter"));
    let rows = result.into_match_set();
    let rows_in = rows.len();
    let kept = filter_ordered(idx, pattern, rows);
    if let Some(filter_span) = filter_span {
        filter_span.annotate("in", rows_in);
        filter_span.annotate("kept", kept.len());
    }
    JoinResult::new(guard, Matches::Rows(kept))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xpath::parse_query;

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book><title>A</title><author>X</author><year>1999</year></book>\
               <book><author>Y</author><title>B</title><year>2003</year></book>\
             </bib>",
        )
        .unwrap()
    }

    #[test]
    fn all_algorithms_agree() {
        let idx = idx();
        for q in [
            "//book/title",
            "//book[title][author]",
            "//book[year >= 2000]/title",
            "//bib//author",
        ] {
            let pattern = parse_query(q).unwrap();
            let reference = execute(&idx, &pattern, Algorithm::Naive);
            for algo in Algorithm::ALL {
                assert_eq!(
                    execute(&idx, &pattern, algo),
                    reference,
                    "algorithm {algo} on {q}"
                );
            }
        }
    }

    #[test]
    fn ordered_patterns_are_filtered_for_every_algorithm() {
        let idx = idx();
        let pattern = parse_query("ordered //book[title][author]").unwrap();
        for algo in Algorithm::ALL {
            let m = execute(&idx, &pattern, algo);
            assert_eq!(m.len(), 1, "algorithm {algo}");
        }
    }

    #[test]
    fn selector_routes_by_shape_and_selectivity() {
        let idx = idx();
        // On a tiny document only the fixed setup costs differ, and the
        // navigational baseline has none.
        let p = parse_query("//bib/book/title").unwrap();
        assert_eq!(choose_algorithm(&idx, &p).algorithm, Algorithm::Naive);
        let p = parse_query("//book[title][author]").unwrap();
        assert_eq!(choose_algorithm(&idx, &p).algorithm, Algorithm::Naive);
        // Twig over an unknown tag → empty stream → Naive (trivial).
        let p = parse_query("//nosuch[title][author]").unwrap();
        assert_eq!(choose_algorithm(&idx, &p).algorithm, Algorithm::Naive);
        // The selected algorithm always returns the reference answer.
        for q in ["//bib/book/title", "//book[title][author]"] {
            let pattern = parse_query(q).unwrap();
            let selected = choose_algorithm(&idx, &pattern).algorithm;
            assert_eq!(
                execute(&idx, &pattern, selected),
                execute(&idx, &pattern, Algorithm::Naive),
                "{q}"
            );
        }
    }

    #[test]
    fn chooser_avoids_navigation_on_recursive_data() {
        // Deep recursion makes subtree rescans quadratic (subtree_weight
        // counts every element once per enclosing instance). The binary
        // join's merge costs a nested pair nothing, and its walk a row
        // write each (measured 36 µs against navigation's 153 µs on
        // exactly this document).
        let mut xml = String::new();
        for _ in 0..80 {
            xml.push_str("<s><t>x</t>");
        }
        xml.push_str(&"</s>".repeat(80));
        let idx = IndexedDocument::from_str(&xml).unwrap();
        let choice = choose_algorithm(&idx, &parse_query("//s//t").unwrap());
        assert_eq!(choice.algorithm, Algorithm::StructuralJoin, "{choice:?}");
        assert!(choice.nav_cost > 2 * choice.binary_cost);
    }

    #[test]
    fn chooser_avoids_navigation_under_wide_fanout() {
        // A root with a huge child fanout punishes navigational child
        // scans; selective streams keep the binary join's merges and pair
        // counts small, so it must beat navigation.
        let mut xml = String::from("<dblp>");
        for _ in 0..2000 {
            xml.push_str("<misc/>");
        }
        for i in 0..50 {
            xml.push_str(&format!("<book><publisher>P{i}</publisher></book>"));
        }
        xml.push_str("</dblp>");
        let idx = IndexedDocument::from_str(&xml).unwrap();
        let choice = choose_algorithm(&idx, &parse_query("//dblp/book/publisher").unwrap());
        assert_eq!(choice.algorithm, Algorithm::StructuralJoin, "{choice:?}");
        assert!(choice.nav_cost > choice.binary_cost);
    }

    #[test]
    fn chooser_prices_predicates_by_how_they_are_evaluated() {
        // 400 flat items. An index-resolved range predicate costs the
        // binary join one bit probe per element, so it keeps its
        // edge; a `contains` predicate has to read every element of the
        // stream up front, while navigation reads only the structural
        // survivors — here the items' own children, half the `a` stream.
        let mut xml = String::from("<r>");
        for i in 0..400 {
            xml.push_str(&format!(
                "<item><a>w{i}</a><b>{i}</b></item><x><a>v</a></x>"
            ));
        }
        xml.push_str("</r>");
        let idx = IndexedDocument::from_str(&xml).unwrap();
        let ranged = choose_algorithm(&idx, &parse_query("//item[b >= 100]/a").unwrap());
        assert_eq!(ranged.algorithm, Algorithm::StructuralJoin, "{ranged:?}");
        let scanned = choose_algorithm(&idx, &parse_query(r#"//item[a ~ "w7"]/b"#).unwrap());
        assert_eq!(scanned.algorithm, Algorithm::Naive, "{scanned:?}");
        assert!(scanned.binary_cost > scanned.nav_cost);
    }

    #[test]
    fn chooser_reports_cost_factors() {
        let idx = idx();
        for q in ["//bib/book/title", "//book[title][author]"] {
            let choice = choose_algorithm(&idx, &parse_query(q).unwrap());
            assert_ne!(choice.algorithm, Algorithm::Auto, "always resolved");
            // Both plans are priced, and the cheaper one is the pick.
            assert!(choice.nav_cost > 0 && choice.binary_cost > 0, "{q}");
            assert_eq!(
                choice.algorithm == Algorithm::StructuralJoin,
                choice.binary_cost < choice.nav_cost,
                "{q}"
            );
        }
    }

    #[test]
    fn auto_executes_like_every_pinned_algorithm() {
        let idx = idx();
        for q in [
            "//book/title",
            "//book[title][author]",
            "//book[year >= 2000]/title",
            "//bib//author",
            "ordered //book[title][author]",
        ] {
            let pattern = parse_query(q).unwrap();
            let reference = execute(&idx, &pattern, Algorithm::Naive);
            assert_eq!(execute(&idx, &pattern, Algorithm::Auto), reference, "{q}");
        }
    }

    #[test]
    fn unknown_tags_short_circuit_every_algorithm() {
        let idx = idx();
        for q in [
            "//nosuch",
            "//nosuch[title][author]",
            "//book[nosuch]/title",
            "//book/nosuch",
        ] {
            let pattern = parse_query(q).unwrap();
            for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
                assert!(
                    execute(&idx, &pattern, algo).is_empty(),
                    "{q} via {algo} must be empty"
                );
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Algorithm::StructuralJoin.to_string(), "structural-join");
        assert_eq!(Algorithm::Auto.to_string(), "auto");
        assert_eq!(Algorithm::ALL.len(), 2);
        assert!(
            !Algorithm::ALL.contains(&Algorithm::Auto),
            "Auto is a policy, not a third join"
        );
    }

    #[test]
    fn spans_observe_without_changing_results() {
        let idx = idx();
        let pattern = parse_query("ordered //book[title][author]").unwrap();
        let plain = execute(&idx, &pattern, Algorithm::StructuralJoin);
        let span = Span::new("query");
        let unlimited = QueryGuard::unlimited();
        let spanned = execute_budgeted(
            &idx,
            &pattern,
            Algorithm::StructuralJoin,
            Some(&span),
            &unlimited,
        );
        assert_eq!(spanned.count(), plain.len());
        assert_eq!(plain, spanned.into_match_set());
        let rec = span.finish();
        let join = rec
            .child("join/structural-join")
            .expect("join child recorded");
        assert_eq!(join.note("matches"), Some("2"));
        let filter = rec.child("ordered-filter").expect("filter child");
        assert_eq!(filter.note("in"), Some("2"));
        assert_eq!(filter.note("kept"), Some("1"));
    }
}
