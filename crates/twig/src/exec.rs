//! The execution facade: one join, one oracle, and the rule that picks
//! the join.

use crate::algorithms::naive;
use crate::algorithms::structural_join::{self, ReducedTwig};
use crate::matcher::MatchSet;
use crate::ordered::filter_ordered;
use crate::pattern::TwigPattern;
use lotusx_guard::QueryGuard;
use lotusx_index::IndexedDocument;
use lotusx_xml::NodeId;

/// The available twig evaluation algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Navigational top-down matching: the oracle every other path is
    /// tested against.
    Naive,
    /// Binary structural joins per edge.
    StructuralJoin,
    /// Whatever [`choose_algorithm`] picks: resolved to a concrete
    /// algorithm before the join runs. Not listed in [`Algorithm::ALL`] —
    /// it is a policy, not a third join.
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

    /// This algorithm, or for [`Algorithm::Auto`] the one
    /// [`choose_algorithm`] picks for `pattern` over `idx`.
    pub fn resolve(self, idx: &IndexedDocument, pattern: &TwigPattern) -> Algorithm {
        match self {
            Algorithm::Auto => choose_algorithm(idx, pattern),
            pinned => pinned,
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The rule behind [`Algorithm::Auto`]: the binary structural join, for
/// every twig. `=`, ranges and `contains` resolve through the value index
/// before the join runs, so no stream is read element by element for a
/// term test, and the join is within noise of the navigational walk or
/// ahead of it on every `BENCH_join` cell.
pub fn choose_algorithm(_idx: &IndexedDocument, _pattern: &TwigPattern) -> Algorithm {
    Algorithm::StructuralJoin
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
            Matches::Reduced(twig) => {
                twig.for_each_row(&mut ticker, &[twig.root_run()], false, sink)
            }
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
    execute_budgeted(idx, pattern, algorithm, &QueryGuard::unlimited()).into_match_set()
}

/// Like [`execute`], under a budget — and stopping short of the rows:
/// the [`JoinResult`] counts them and enumerates them on demand. The
/// join stops cooperatively once `guard` trips, keeping only matches
/// proven valid by then. Callers inspect the guard afterwards to learn
/// whether the result is complete.
pub fn execute_budgeted<'a>(
    idx: &'a IndexedDocument,
    pattern: &TwigPattern,
    algorithm: Algorithm,
    guard: &QueryGuard,
) -> JoinResult<'a> {
    let algorithm = algorithm.resolve(idx, pattern);
    let result = JoinResult::new(guard, join(idx, pattern, algorithm, guard));
    if !pattern.is_ordered() {
        return result;
    }
    // Sibling order is a property of whole rows: build them, filter them.
    let kept = filter_ordered(pattern, result.into_match_set());
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
}
