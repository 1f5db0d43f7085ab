//! PathStack (Bruno, Koudas & Srivastava, SIGMOD 2002): the holistic
//! algorithm for *path* queries.
//!
//! One chained stack per query node; the element with the smallest region
//! start across all streams is processed next; path solutions are emitted
//! whenever a leaf element is pushed. Worst-case I/O and CPU linear in
//! input + output for ancestor-descendant paths.

use super::holistic_common::{clean_stack, expand_solutions, StackEntry};
use crate::matcher::{merge_path_solutions_guarded, node_columns, MatchSet, NodeColumns};
use crate::pattern::TwigPattern;
use lotusx_guard::QueryGuard;
use lotusx_index::{ColumnCursor, IndexedDocument};

/// Evaluates a **path** pattern holistically.
///
/// # Panics
/// Panics if `pattern` branches; callers route twigs to TwigStack (the
/// [`crate::exec`] facade does this automatically).
pub fn evaluate(idx: &IndexedDocument, pattern: &TwigPattern) -> MatchSet {
    evaluate_guarded(idx, pattern, &QueryGuard::unlimited())
}

/// [`evaluate`] under a budget: one node visit per element processed;
/// on trip the scan stops and the solutions emitted so far are merged.
///
/// # Panics
/// Panics if `pattern` branches (see [`evaluate`]).
pub fn evaluate_guarded(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    guard: &QueryGuard,
) -> MatchSet {
    assert!(
        pattern.is_path(),
        "PathStack evaluates path queries; use TwigStack for twigs"
    );
    let qpath = pattern
        .root_to_leaf_paths()
        .into_iter()
        .next()
        .expect("a pattern always has one leaf");
    let leaf = *qpath.last().expect("non-empty path");

    // Columnar per-node streams: index-resident borrows where possible,
    // owned transposes of the filtered streams otherwise.
    let columns: Vec<NodeColumns<'_>> = pattern
        .node_ids()
        .map(|q| node_columns(idx, pattern, q, false))
        .collect();
    let mut streams: Vec<ColumnCursor<'_>> = columns.iter().map(|c| c.view().cursor()).collect();
    let mut stacks: Vec<Vec<StackEntry>> = vec![Vec::new(); pattern.len()];
    let mut solutions = MatchSet::new(qpath.len());
    let mut row = vec![lotusx_xml::NodeId::DOCUMENT; qpath.len()];
    let mut ticker = guard.ticker();

    // Process elements in global document order until the leaf stream ends:
    // once it does, no further solutions can be emitted.
    while !streams[leaf.index()].is_exhausted() {
        if ticker.tick(1) {
            break;
        }
        // qmin: the non-exhausted stream with the smallest next start
        // (exhausted cursors report u32::MAX and lose the comparison).
        let qmin = qpath
            .iter()
            .copied()
            .min_by_key(|q| streams[q.index()].head_start())
            .expect("leaf stream is non-exhausted");
        let entry = streams[qmin.index()].head().expect("non-exhausted");

        // Clean every stack against the element about to be processed.
        for q in &qpath {
            clean_stack(&mut stacks[q.index()], entry.region.start);
        }

        let pos = qpath.iter().position(|q| *q == qmin).expect("on path");
        let parent_nonempty = pos == 0 || !stacks[qpath[pos - 1].index()].is_empty();
        if parent_nonempty {
            let parent_top = if pos == 0 {
                0
            } else {
                stacks[qpath[pos - 1].index()].len()
            };
            stacks[qmin.index()].push(StackEntry { entry, parent_top });
            if qmin == leaf {
                row[pos] = entry.node;
                expand_solutions(
                    pattern,
                    &qpath,
                    &stacks,
                    pos,
                    entry,
                    parent_top,
                    &mut row,
                    &mut solutions,
                );
                stacks[qmin.index()].pop();
            }
        }
        streams[qmin.index()].advance();
    }

    merge_path_solutions_guarded(pattern, &[qpath], &[solutions], guard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive;
    use crate::xpath::parse_query;

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book><title>Data on the Web</title><author><name>Serge</name></author>\
                     <year>1999</year></book>\
               <book><title>XML Handbook</title><author><name>Charles</name></author>\
                     <year>2003</year></book>\
             </bib>",
        )
        .unwrap()
    }

    #[test]
    fn agrees_with_naive_on_path_queries() {
        let idx = idx();
        for q in [
            "//book",
            "//book/title",
            "//bib//name",
            "//book/author/name",
            "//book//name",
            "/bib/book/year",
            "//book[. ~ \"\"]/title",
        ] {
            let pattern = parse_query(q).unwrap();
            assert_eq!(
                naive::evaluate(&idx, &pattern),
                evaluate(&idx, &pattern),
                "query {q}"
            );
        }
    }

    #[test]
    fn agrees_with_naive_on_recursive_documents() {
        let idx =
            IndexedDocument::from_str("<s><s><t>1</t><s><t>2</t></s></s><t>3</t></s>").unwrap();
        for q in ["//s//t", "//s/t", "//s/s/t", "//s//s//t", "//s/s//t"] {
            let pattern = parse_query(q).unwrap();
            assert_eq!(
                naive::evaluate(&idx, &pattern),
                evaluate(&idx, &pattern),
                "query {q}"
            );
        }
    }

    #[test]
    fn empty_result_when_tag_absent() {
        let idx = idx();
        let pattern = parse_query("//book/publisher").unwrap();
        assert!(evaluate(&idx, &pattern).is_empty());
    }

    #[test]
    #[should_panic(expected = "PathStack evaluates path queries")]
    fn rejects_branching_patterns() {
        let idx = idx();
        let pattern = parse_query("//book[title][year]").unwrap();
        evaluate(&idx, &pattern);
    }

    #[test]
    fn predicates_flow_through_streams() {
        let idx = idx();
        let pattern = parse_query("//book[year >= 2000]").unwrap();
        // This is a twig (book + year); use a pure path with predicate:
        let pattern2 = parse_query(r#"//book/title[. ~ "xml"]"#).unwrap();
        assert_eq!(evaluate(&idx, &pattern2).len(), 1);
        let _ = pattern;
    }
}
