//! Algorithm selection facade.

use crate::algorithms::{guided, naive, pathstack, structural_join, tjfast, twigstack};
use crate::matcher::MatchSet;
use crate::ordered::filter_ordered;
use crate::pattern::{Axis, TwigPattern, ValuePredicate};
use lotusx_guard::QueryGuard;
use lotusx_index::IndexedDocument;
use lotusx_obs::Span;

/// The available twig evaluation algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Navigational top-down matching (baseline).
    Naive,
    /// Binary structural joins per edge (baseline).
    StructuralJoin,
    /// Holistic PathStack; twigs are routed to TwigStack.
    PathStack,
    /// Holistic TwigStack.
    TwigStack,
    /// TJFast over extended Dewey leaf streams.
    TJFast,
    /// TwigStack over DataGuide-pruned streams (position-aware execution).
    TwigStackGuided,
    /// Per-query cost-model selection (see [`choose_algorithm`]): resolved
    /// to one of the concrete algorithms before the join runs. Not listed
    /// in [`Algorithm::ALL`] — it is a policy, not a seventh join.
    Auto,
}

impl Algorithm {
    /// All algorithms, in the order the experiments report them.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Naive,
        Algorithm::StructuralJoin,
        Algorithm::PathStack,
        Algorithm::TwigStack,
        Algorithm::TJFast,
        Algorithm::TwigStackGuided,
    ];

    /// A short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Naive => "naive",
            Algorithm::StructuralJoin => "structural-join",
            Algorithm::PathStack => "pathstack",
            Algorithm::TwigStack => "twigstack",
            Algorithm::TJFast => "tjfast",
            Algorithm::TwigStackGuided => "twigstack-guided",
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
    /// Whether the pattern is a pure path.
    pub is_path: bool,
    /// Length of the shortest per-node stream (0 = provably empty join).
    pub min_stream: u64,
    /// Sum of all per-node stream lengths.
    pub total_stream: u64,
    /// Estimated elements surviving their structural edge, summed over
    /// non-root nodes — exact for tag/tag edges (from the DataGuide), an
    /// upper bound when a wildcard is involved.
    pub est_survivors: u64,
    /// Estimated cost of the navigational baseline (child-fanout and
    /// subtree-weight scans).
    pub nav_cost: u64,
    /// Estimated cost of the binary structural join (merges + pair
    /// materialization + stitch).
    pub binary_cost: u64,
    /// Estimated cost of PathStack (`u64::MAX` for non-path patterns).
    pub path_cost: u64,
    /// Estimated cost of holistic TwigStack.
    pub holistic_cost: u64,
}

/// Per element visited by a navigational child or subtree scan.
const SCAN_COST: u64 = 14;
/// Per element consumed by a binary-join merge pass.
const MERGE_COST: u64 = 5;
/// Per surviving pair the binary join emits and counting-sorts into its
/// edge adjacency.
const PAIR_COST: u64 = 8;
/// Per root-stream element during the binary join's stitch phase.
const STITCH_COST: u64 = 10;
/// Per match row the binary join's stitch writes.
const STITCH_OUT_COST: u64 = 9;
/// Per stream element pushed through PathStack's chain stacks.
const PATH_COST: u64 = 26;
/// Per path solution PathStack emits and merges. Leaf-ordered output
/// needs a real sort under nesting (65–130 ns per match, ~12 on flat
/// data); priced near the nested end, where PathStack competes.
const PATH_OUT_COST: u64 = 80;
/// Per emitted match row of the navigational baseline.
const NAIVE_MATCH_COST: u64 = 20;
/// Per stream element per query node in TwigStack's `getNext` scans.
const TWIG_COST: u64 = 15;
/// Per emitted match per query node in TwigStack's path-solution merge.
const TWIG_OUT_COST: u64 = 27;
/// Per stream element of a value predicate that has to read the element
/// (`contains` and the attribute tests), paid by every algorithm that
/// materializes filtered streams up front.
const PRED_STREAM_COST: u64 = 270;
/// Per stream element of a predicate the value index resolves (`=` and
/// numeric ranges): one binary search in the candidate list.
const PRED_INDEX_COST: u64 = 20;
/// Per candidate value-predicate evaluation paid lazily by the
/// navigational baseline (only structural survivors are tested, but each
/// test reads the element).
const PRED_NAV_COST: u64 = 270;
/// Fixed per-query setup of the binary join (column slicing, one
/// adjacency per edge) before any element moves; the navigational
/// baseline starts from the root stream alone and pays none. Decides
/// only micro-queries.
const JOIN_SETUP_COST: u64 = 600;
/// PathStack's analogue of [`JOIN_SETUP_COST`].
const PATH_SETUP_COST: u64 = 700;
/// TwigStack's analogue of [`JOIN_SETUP_COST`].
const TWIG_SETUP_COST: u64 = 900;

/// The stats-driven cost model behind [`Algorithm::Auto`]: prices the
/// navigational, binary-join, PathStack, and TwigStack strategies for
/// `pattern` from [`lotusx_index::JoinStats`] and returns the cheapest
/// with the estimates that decided it.
///
/// The model charges each strategy for the work it actually does:
///
/// * **navigational** — one child-fanout scan per P-C edge and one
///   subtree rescan per A-D edge, taken from the exact per-tag
///   [`children_total`](lotusx_index::JoinStats::children_total) and
///   [`subtree_weight`](lotusx_index::JoinStats::subtree_weight)
///   aggregates (recursion multiplies the latter, which is exactly when
///   navigation loses); value predicates are tested lazily on survivors;
/// * **binary join** — a galloping merge over both streams per edge, plus
///   [`PAIR_COST`] per surviving pair (exact from the DataGuide), a
///   stitch pass over the root stream and one row write per match;
///   predicates are evaluated while materializing full streams;
/// * **PathStack** (paths only) — one pass over all streams plus the
///   emitted path solutions;
/// * **TwigStack** — `getNext` work proportional to total stream length
///   times the pattern width, plus the path-solution merge per match.
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
    let min_stream = stream_len.iter().copied().min().unwrap_or(0);
    let total_stream: u64 = stream_len.iter().sum();
    let is_path = pattern.is_path();
    let nodes = pattern.len() as u64;
    let s_root = stream_len[pattern.root().index()];

    let mut est_survivors = 0u64;
    let mut min_edge_survivors = u64::MAX;
    let mut edge_count = 0u64;
    // Independence estimate of the final match count: start from the root
    // stream and multiply by each edge's per-parent pair yield. Fits the
    // measured outputs of the benchmark suite within a small factor for
    // both chains (where multiplicity >1 inflates) and branching twigs
    // (where each extra branch thins the root survivors).
    let mut match_est = s_root as f64;
    let mut nav_cost = SCAN_COST.saturating_mul(s_root);
    let mut binary_cost = JOIN_SETUP_COST.saturating_add(STITCH_COST.saturating_mul(s_root));
    let mut pred_stream_cost = 0u64; // shared by all stream-materializing joins
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
        // several nested ancestors, so this is what the binary stack-tree
        // join actually materializes.
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
        est_survivors += surviving;
        min_edge_survivors = min_edge_survivors.min(surviving);
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

        // Binary join: merge both streams, materialize every related pair —
        // the stack-tree join emits pairs with multiplicity, so recursion
        // charges the uncapped count.
        binary_cost = binary_cost
            .saturating_add(MERGE_COST.saturating_mul(s_p.saturating_add(s_q)))
            .saturating_add(PAIR_COST.saturating_mul(pairs_emitted));
    }
    let est_matches = if edge_count == 0 {
        // Edgeless (single-node) pattern: every algorithm just copies the
        // stream, so don't charge output handling to any of them.
        0
    } else {
        match_est.min(u64::MAX as f64) as u64
    };
    nav_cost = nav_cost.saturating_add(NAIVE_MATCH_COST.saturating_mul(est_matches));
    binary_cost = binary_cost
        .saturating_add(STITCH_OUT_COST.saturating_mul(est_matches))
        .saturating_add(pred_stream_cost);
    let path_cost = if is_path {
        PATH_SETUP_COST
            .saturating_add(PATH_COST.saturating_mul(total_stream))
            .saturating_add(PATH_OUT_COST.saturating_mul(est_matches))
            .saturating_add(pred_stream_cost)
    } else {
        u64::MAX
    };
    let holistic_cost = TWIG_SETUP_COST
        .saturating_add(TWIG_COST.saturating_mul(total_stream).saturating_mul(nodes))
        .saturating_add(
            TWIG_OUT_COST
                .saturating_mul(est_matches)
                .saturating_mul(nodes),
        )
        .saturating_add(pred_stream_cost);

    let algorithm = [
        (nav_cost, Algorithm::Naive),
        (binary_cost, Algorithm::StructuralJoin),
        (path_cost, Algorithm::PathStack),
        (holistic_cost, Algorithm::TwigStack),
    ]
    .into_iter()
    .min_by_key(|(cost, _)| *cost)
    .map(|(_, algorithm)| algorithm)
    .expect("four candidates");
    Choice {
        algorithm,
        is_path,
        min_stream,
        total_stream,
        est_survivors,
        nav_cost,
        binary_cost,
        path_cost,
        holistic_cost,
    }
}

/// Picks an algorithm for `pattern` — the [`choose_algorithm`] cost model
/// without the factors.
pub fn select_algorithm(idx: &IndexedDocument, pattern: &TwigPattern) -> Algorithm {
    choose_algorithm(idx, pattern).algorithm
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
                    .map(|sym| idx.tags().frequency(sym))
                    .unwrap_or(0)
                    == 0
            }
            None => idx.stats().element_count == 0,
        })
}

/// The raw join: runs the chosen algorithm, partitioning across
/// `threads` workers where the algorithm permits (see
/// [`execute_parallel`] for why only the navigational baseline splits).
fn join(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    algorithm: Algorithm,
    threads: usize,
    guard: &QueryGuard,
) -> MatchSet {
    // A query node over a tag the document never saw has an empty stream,
    // so every algorithm would grind to an empty answer; return it now.
    if provably_empty(idx, pattern) {
        return MatchSet::new(pattern.len());
    }
    match algorithm {
        Algorithm::Naive => naive::evaluate_guarded(idx, pattern, threads, guard),
        Algorithm::StructuralJoin => structural_join::evaluate_guarded(idx, pattern, guard),
        Algorithm::PathStack => {
            if pattern.is_path() {
                pathstack::evaluate_guarded(idx, pattern, guard)
            } else {
                twigstack::evaluate_guarded(idx, pattern, guard)
            }
        }
        Algorithm::TwigStack => twigstack::evaluate_guarded(idx, pattern, guard),
        Algorithm::TJFast => tjfast::evaluate_guarded(idx, pattern, guard),
        Algorithm::TwigStackGuided => guided::evaluate_guarded(idx, pattern, guard),
        Algorithm::Auto => unreachable!("Auto is resolved before dispatch"),
    }
}

/// Evaluates `pattern` over `idx` with the chosen algorithm, applying the
/// order-sensitivity filter if the pattern requests it.
pub fn execute(idx: &IndexedDocument, pattern: &TwigPattern, algorithm: Algorithm) -> MatchSet {
    execute_parallel(idx, pattern, algorithm, 1)
}

/// Like [`execute`], but partitions match enumeration across `threads`
/// workers where the algorithm permits. Output is identical to
/// [`execute`] for every thread count.
///
/// Only the navigational algorithm partitions today: each of its root
/// candidates expands independently, so the root stream splits into
/// contiguous chunks with no shared state. The stack-based holistic joins
/// (PathStack/TwigStack/TJFast/guided) thread one global stack state
/// through the whole leaf stream — partitioning them would need
/// cross-chunk repair for ancestor chains spanning a chunk boundary — and
/// the binary structural join is a sequence of full-stream merges; they
/// all run serially.
pub fn execute_parallel(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    algorithm: Algorithm,
    threads: usize,
) -> MatchSet {
    let unlimited = QueryGuard::unlimited();
    execute_budgeted(idx, pattern, algorithm, threads, None, &unlimited)
}

/// Like [`execute_parallel`], under a budget and recording the join and
/// the ordered filter as timed children of `span` when one is supplied
/// (the span never changes what is computed). The join runs its guarded
/// variant and stops cooperatively once `guard` trips, returning only
/// matches proven valid by then. Callers inspect the guard afterwards
/// to learn whether the result is complete.
pub fn execute_budgeted(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    algorithm: Algorithm,
    threads: usize,
    span: Option<&Span>,
    guard: &QueryGuard,
) -> MatchSet {
    // Resolve the auto policy up front so spans and thread annotations
    // report the algorithm that actually runs.
    let algorithm = match algorithm {
        Algorithm::Auto => choose_algorithm(idx, pattern).algorithm,
        pinned => pinned,
    };
    let matches = match span {
        None => join(idx, pattern, algorithm, threads, guard),
        Some(parent) => {
            let span_guard = parent.child(format!("join/{algorithm}"));
            let effective = if algorithm == Algorithm::Naive {
                threads.max(1)
            } else {
                1
            };
            span_guard.annotate("threads", effective);
            let m = join(idx, pattern, algorithm, threads, guard);
            span_guard.annotate("matches", m.len());
            m
        }
    };
    if !pattern.is_ordered() {
        return matches;
    }
    match span {
        None => filter_ordered(idx, pattern, matches),
        Some(parent) => {
            let span_guard = parent.child("ordered-filter");
            span_guard.annotate("in", matches.len());
            let out = filter_ordered(idx, pattern, matches);
            span_guard.annotate("kept", out.len());
            out
        }
    }
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
    fn pathstack_routes_twigs_to_twigstack() {
        let idx = idx();
        let pattern = parse_query("//book[title][author]").unwrap();
        // Must not panic despite branching.
        let m = execute(&idx, &pattern, Algorithm::PathStack);
        assert_eq!(m.len(), 2);
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
        assert_eq!(select_algorithm(&idx, &p), Algorithm::Naive);
        let p = parse_query("//book[title][author]").unwrap();
        assert_eq!(select_algorithm(&idx, &p), Algorithm::Naive);
        // Twig over an unknown tag → empty stream → Naive (trivial).
        let p = parse_query("//nosuch[title][author]").unwrap();
        let choice = choose_algorithm(&idx, &p);
        assert_eq!(choice.algorithm, Algorithm::Naive);
        assert_eq!(choice.min_stream, 0, "unknown tag is an empty stream");
        // The selected algorithm always returns the reference answer.
        for q in ["//bib/book/title", "//book[title][author]"] {
            let pattern = parse_query(q).unwrap();
            let selected = select_algorithm(&idx, &pattern);
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
        // join pays for every nested pair too, but only a few nanoseconds
        // each (measured 49 µs against navigation's 146 µs and
        // PathStack's 210 µs on exactly this document).
        let mut xml = String::new();
        for _ in 0..80 {
            xml.push_str("<s><t>x</t>");
        }
        xml.push_str(&"</s>".repeat(80));
        let idx = IndexedDocument::from_str(&xml).unwrap();
        let choice = choose_algorithm(&idx, &parse_query("//s//t").unwrap());
        assert_eq!(choice.algorithm, Algorithm::StructuralJoin, "{choice:?}");
        assert!(choice.nav_cost > 2 * choice.binary_cost);
        assert!(choice.path_cost > choice.binary_cost);
        assert!(choice.holistic_cost > choice.binary_cost);
    }

    #[test]
    fn chooser_avoids_navigation_under_wide_fanout() {
        // A root with a huge child fanout punishes navigational child
        // scans; selective streams keep the stream-based joins' merges
        // and pair counts small, so either of them must beat navigation.
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
        assert!(
            matches!(
                choice.algorithm,
                Algorithm::StructuralJoin | Algorithm::PathStack
            ),
            "wide fanout must route to a stream join, got {choice:?}"
        );
        assert!(choice.nav_cost > choice.binary_cost);
        assert!(choice.nav_cost > choice.path_cost);
    }

    #[test]
    fn chooser_prices_predicates_by_how_they_are_evaluated() {
        // 400 flat items. An index-resolved range predicate costs the
        // stream joins one binary search per element, so the binary join
        // keeps its edge; a `contains` predicate has to read every element
        // of the stream up front, while navigation reads only the
        // structural survivors — here the items' own children, half the
        // `a` stream.
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
        assert!(scanned.holistic_cost > scanned.nav_cost);
    }

    #[test]
    fn chooser_reports_cost_factors() {
        let idx = idx();
        let p = parse_query("//bib/book/title").unwrap();
        let choice = choose_algorithm(&idx, &p);
        assert!(choice.is_path);
        assert_ne!(choice.algorithm, Algorithm::Auto, "always resolved");
        assert_eq!(choice.min_stream, 1, "one bib element");
        // bib(1) + book(2) + title(2).
        assert_eq!(choice.total_stream, 5);
        // Exact survivors from the guide: 2 books under bib, 2 titles
        // under book.
        assert_eq!(choice.est_survivors, 4);
        // Every strategy is priced; paths have a PathStack estimate.
        assert!(choice.nav_cost > 0);
        assert!(choice.binary_cost > 0);
        assert!(choice.holistic_cost > 0);
        assert!(choice.path_cost < u64::MAX);
        // Twigs have no PathStack estimate.
        let twig = choose_algorithm(&idx, &parse_query("//book[title][author]").unwrap());
        assert!(!twig.is_path);
        assert_eq!(twig.path_cost, u64::MAX);
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
            for threads in [1, 4] {
                assert_eq!(
                    execute_parallel(&idx, &pattern, Algorithm::Auto, threads),
                    reference,
                    "{q} at {threads} threads"
                );
            }
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
    fn parallel_execution_is_identical_to_serial() {
        let idx = idx();
        for q in [
            "//book/title",
            "//book[title][author]",
            "//book[year >= 2000]/title",
            "ordered //book[title][author]",
            "//bib//author",
        ] {
            let pattern = parse_query(q).unwrap();
            for algo in Algorithm::ALL {
                let serial = execute(&idx, &pattern, algo);
                for threads in [1, 2, 8] {
                    assert_eq!(
                        execute_parallel(&idx, &pattern, algo, threads),
                        serial,
                        "{q} via {algo} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Algorithm::TwigStack.to_string(), "twigstack");
        assert_eq!(Algorithm::Auto.to_string(), "auto");
        assert_eq!(Algorithm::ALL.len(), 6);
        assert!(
            !Algorithm::ALL.contains(&Algorithm::Auto),
            "Auto is a policy, not a seventh join"
        );
    }

    #[test]
    fn spans_observe_without_changing_results() {
        let idx = idx();
        let pattern = parse_query("ordered //book[title][author]").unwrap();
        let plain = execute_parallel(&idx, &pattern, Algorithm::TwigStack, 2);
        let span = Span::new("query");
        let unlimited = QueryGuard::unlimited();
        let spanned = execute_budgeted(
            &idx,
            &pattern,
            Algorithm::TwigStack,
            2,
            Some(&span),
            &unlimited,
        );
        assert_eq!(plain, spanned);
        let rec = span.finish();
        let join = rec.child("join/twigstack").expect("join child recorded");
        assert_eq!(join.note("matches"), Some("2"));
        assert_eq!(
            join.note("threads"),
            Some("1"),
            "holistic joins run serially"
        );
        let filter = rec.child("ordered-filter").expect("filter child");
        assert_eq!(filter.note("in"), Some("2"));
        assert_eq!(filter.note("kept"), Some("1"));
    }
}
