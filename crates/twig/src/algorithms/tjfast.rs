//! TJFast (Lu, Ling, Chan & Chen, VLDB 2005): twig matching from *leaf
//! streams only*, using extended Dewey labels.
//!
//! For every leaf query node, the algorithm scans just that node's element
//! stream. Each element's extended Dewey label decodes (via the tag FST)
//! into its full root-to-node tag path, so every internal query node of the
//! root-to-leaf query path can be matched against label *prefixes* without
//! ever opening the internal nodes' streams — the defining advantage over
//! TwigStack, which scans a stream per query node. Per-leaf path solutions
//! are merged exactly as in TwigStack.
//!
//! Internal-node value predicates (which a pure label scan cannot see) are
//! verified on the merged matches as a final filter.

use crate::matcher::{match_is_valid, merge_path_solutions_guarded, node_columns, MatchSet};
use crate::pattern::{Axis, NodeTest, QNodeId, TwigPattern};
use lotusx_guard::QueryGuard;
use lotusx_index::IndexedDocument;
use lotusx_xml::{NodeId, Symbol};

/// Evaluates any twig pattern scanning only its leaf streams.
pub fn evaluate(idx: &IndexedDocument, pattern: &TwigPattern) -> MatchSet {
    evaluate_guarded(idx, pattern, &QueryGuard::unlimited())
}

/// [`evaluate`] under a budget: one node visit per leaf-stream element
/// decoded; on trip the remaining stream suffixes are skipped and the
/// solutions found so far are merged (and post-verified as usual, so
/// partial output is valid).
pub fn evaluate_guarded(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    guard: &QueryGuard,
) -> MatchSet {
    let paths = pattern.root_to_leaf_paths();
    let mut ticker = guard.ticker();
    let mut per_leaf: Vec<MatchSet> = Vec::with_capacity(paths.len());
    let mut chain: Vec<NodeId> = Vec::new();
    for qpath in &paths {
        let leaf = *qpath.last().expect("non-empty path");
        let mut solutions = MatchSet::new(qpath.len());
        // Only the node-id column is touched: the label decode supplies
        // everything else, so the region columns stay cold in cache.
        let columns = node_columns(idx, pattern, leaf, false);
        for &node in columns.view().nodes() {
            if ticker.tick(1) {
                break;
            }
            match_leaf_element(idx, pattern, qpath, node, &mut chain, &mut solutions);
        }
        per_leaf.push(solutions);
    }
    let mut merged = merge_path_solutions_guarded(pattern, &paths, &per_leaf, guard);
    // Internal predicates were invisible to the label scan; verify now.
    let needs_verify = pattern
        .node_ids()
        .any(|q| !pattern.node(q).children.is_empty() && pattern.node(q).predicate.is_some());
    if needs_verify {
        merged.retain(|m| match_is_valid(idx, pattern, m));
    }
    merged
}

/// Appends to `out` all assignments of the query path onto the ancestor
/// chain of one leaf element, derived from its decoded tag path. `chain`
/// is scratch reused across elements.
fn match_leaf_element(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    qpath: &[QNodeId],
    leaf_element: NodeId,
    chain: &mut Vec<NodeId>,
    out: &mut MatchSet,
) {
    let labels = idx.labels();
    let tag_path: Vec<Symbol> = labels
        .extended(leaf_element)
        .tag_path(labels.fst())
        .expect("labels derived from this document");
    // Ancestor chain by depth: chain[d] is the element at depth d+1.
    chain.clear();
    chain.extend(idx.document().ancestors(leaf_element));
    chain.reverse();
    chain.push(leaf_element);
    debug_assert_eq!(chain.len(), tag_path.len());
    if tag_path.len() < qpath.len() {
        return;
    }

    // qpath[i] can be assigned to depth d (index d in `chain`) iff the
    // node test matches tag_path[d] and the axis from qpath[i-1] is
    // satisfied by the assignment of the prefix.
    let symbols = idx.document().symbols();
    let test_matches = |q: QNodeId, depth_idx: usize| -> bool {
        match &pattern.node(q).test {
            NodeTest::Wildcard => true,
            NodeTest::Tag(name) => symbols
                .get(name)
                .map(|sym| tag_path[depth_idx] == sym)
                .unwrap_or(false),
        }
    };
    // Backtracking enumeration (paths are short).
    let mut row = vec![NodeId::DOCUMENT; qpath.len()];
    enumerate(pattern, qpath, &test_matches, chain, 0, 0, &mut row, out);
}

/// Assigns `qpath[pos]` to every admissible depth at or below `from`,
/// emitting a row once the whole path is placed. The leaf query node must
/// land on the element itself — the last depth of `chain`.
#[allow(clippy::too_many_arguments)]
fn enumerate(
    pattern: &TwigPattern,
    qpath: &[QNodeId],
    test_matches: &dyn Fn(QNodeId, usize) -> bool,
    chain: &[NodeId],
    pos: usize,
    from: usize,
    row: &mut [NodeId],
    out: &mut MatchSet,
) {
    let (k, n) = (qpath.len(), chain.len());
    if pos == k {
        out.push(row);
        return;
    }
    let q = qpath[pos];
    let depths = match pattern.node(q).axis {
        Axis::Child => from..(from + 1).min(n),
        Axis::Descendant => from..n,
    };
    for d in depths {
        // Remaining query nodes must fit below depth d, the last of them
        // exactly on the leaf.
        let below = n - 1 - d;
        let fits = if pos == k - 1 {
            below == 0
        } else {
            below >= k - 1 - pos
        };
        if !fits || !test_matches(q, d) {
            continue;
        }
        row[pos] = chain[d];
        enumerate(
            pattern,
            qpath,
            test_matches,
            chain,
            pos + 1,
            d + 1,
            row,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive;
    use crate::xpath::parse_query;

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book><title>Data on the Web</title><author>Abiteboul</author>\
                     <author>Buneman</author><year>1999</year></book>\
               <book><title>XML Handbook</title><author>Goldfarb</author><year>2003</year></book>\
               <article><title>TwigStack</title><author>Bruno</author><year>2002</year></article>\
             </bib>",
        )
        .unwrap()
    }

    fn check(idx: &IndexedDocument, q: &str) {
        let pattern = parse_query(q).unwrap();
        assert_eq!(
            naive::evaluate(idx, &pattern),
            evaluate(idx, &pattern),
            "query {q}"
        );
    }

    #[test]
    fn agrees_with_naive_on_paths_and_twigs() {
        let idx = idx();
        for q in [
            "//author",
            "//book/title",
            "//bib//author",
            "//book[title][author]/year",
            "//book[year >= 2000]/title",
            "//*[title][author]",
            "/bib/book/author",
            "//bib/*/title",
        ] {
            check(&idx, q);
        }
    }

    #[test]
    fn agrees_with_naive_on_recursive_documents() {
        let idx = IndexedDocument::from_str(
            "<s><s><t>1</t><u>a</u><s><t>2</t></s></s><t>3</t><u>b</u></s>",
        )
        .unwrap();
        for q in [
            "//s//t",
            "//s/t",
            "//s[t][u]",
            "//s//s[t]",
            "//s[s/t]//u",
            "//s/s//t",
        ] {
            check(&idx, q);
        }
    }

    #[test]
    fn internal_predicate_is_verified() {
        // The branch node `book` carries its own value predicate — invisible
        // to a leaf-only scan, so the post-verification must handle it.
        let idx = IndexedDocument::from_str(
            "<bib><book>keyword<title>X</title></book><book><title>Y</title></book></bib>",
        )
        .unwrap();
        let pattern = parse_query(r#"//book[. ~ "keyword"]/title"#).unwrap();
        assert_eq!(evaluate(&idx, &pattern).len(), 1);
        check(&idx, r#"//book[. ~ "keyword"]/title"#);
    }

    #[test]
    fn wildcard_leaf_scans_all_elements() {
        let idx = idx();
        check(&idx, "//book/*");
    }

    #[test]
    fn absent_tags_yield_empty() {
        let idx = idx();
        let pattern = parse_query("//book/publisher").unwrap();
        assert!(evaluate(&idx, &pattern).is_empty());
    }
}
