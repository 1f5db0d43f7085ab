//! Order-sensitive twig semantics.
//!
//! LotusX supports "complex twig queries (including order sensitive
//! queries)": when a pattern is marked ordered, sibling query nodes must
//! bind to elements that occur in the same left-to-right order in the
//! document, and must be distinct. (Unordered twig semantics place no
//! constraint between siblings — two sibling query nodes may even bind the
//! same element.)

use crate::matcher::MatchSet;
use crate::pattern::{QNodeId, TwigPattern};
use lotusx_index::IndexedDocument;
use lotusx_xml::NodeId;

/// True if `m` satisfies the order constraint: for every query node, the
/// bindings of its children occur in strictly increasing document order.
pub fn match_is_ordered(idx: &IndexedDocument, pattern: &TwigPattern, row: &[NodeId]) -> bool {
    let labels = idx.labels();
    for q in pattern.node_ids() {
        let children: &[QNodeId] = &pattern.node(q).children;
        for pair in children.windows(2) {
            let a = row[pair[0].index()];
            let b = row[pair[1].index()];
            // Strict document order; equal bindings violate ordering.
            if !labels.doc_order_before(a, b) {
                return false;
            }
        }
    }
    true
}

/// Retains only the order-satisfying matches (in place, order kept).
pub fn filter_ordered(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    mut matches: MatchSet,
) -> MatchSet {
    matches.retain(|row| match_is_ordered(idx, pattern, row));
    matches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, Algorithm};
    use crate::xpath::parse_query;

    fn idx() -> IndexedDocument {
        // Two sections: one has title before para, the other after.
        IndexedDocument::from_str(
            "<doc>\
               <section><title>T1</title><para>P1</para></section>\
               <section><para>P2</para><title>T2</title></section>\
             </doc>",
        )
        .unwrap()
    }

    #[test]
    fn ordered_filter_keeps_in_order_siblings_only() {
        let idx = idx();
        let unordered = parse_query("//section[title][para]").unwrap();
        let all = execute(&idx, &unordered, Algorithm::Naive);
        assert_eq!(all.len(), 2);

        let ordered = parse_query("ordered //section[title][para]").unwrap();
        let kept = filter_ordered(&idx, &ordered, all.clone());
        assert_eq!(kept.len(), 1, "only the title-before-para section");

        // Reversing the sibling order in the query flips the result.
        let reversed = parse_query("ordered //section[para][title]").unwrap();
        let all_rev = execute(
            &idx,
            &parse_query("//section[para][title]").unwrap(),
            Algorithm::Naive,
        );
        let kept_rev = filter_ordered(&idx, &reversed, all_rev);
        assert_eq!(kept_rev.len(), 1);
    }

    #[test]
    fn duplicate_bindings_violate_order() {
        let idx = IndexedDocument::from_str("<r><x>1</x></r>").unwrap();
        // //r[x][x] unordered: the single x binds both siblings.
        let q = parse_query("//r[x][x]").unwrap();
        let all = execute(&idx, &q, Algorithm::Naive);
        assert_eq!(all.len(), 1);
        let kept = filter_ordered(&idx, &q, all);
        assert!(
            kept.is_empty(),
            "same element cannot satisfy ordered siblings"
        );
    }

    #[test]
    fn order_checked_at_every_level() {
        let idx =
            IndexedDocument::from_str("<r><g><a>1</a><b>1</b></g><g><b>2</b><a>2</a></g></r>")
                .unwrap();
        let q = parse_query("//r/g[a][b]").unwrap();
        let all = execute(&idx, &q, Algorithm::Naive);
        assert_eq!(all.len(), 2);
        let kept = filter_ordered(&idx, &q, all);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn paths_are_never_filtered() {
        let idx = idx();
        let q = parse_query("//section/title").unwrap();
        let all = execute(&idx, &q, Algorithm::Naive);
        let kept = filter_ordered(&idx, &q, all.clone());
        assert_eq!(all, kept);
    }
}
