//! Navigational baseline: top-down recursive matching over the tree.
//!
//! For every candidate binding of the query root, recursively enumerate
//! bindings of each child query node among the element's children (child
//! axis) or descendants (descendant axis), taking the cross product of the
//! per-child binding sets. Exponential in the worst case — exactly the
//! baseline the structural/holistic join literature improves on.

use crate::matcher::{node_columns, predicate_matches, MatchSet};
use crate::pattern::{Axis, NodeTest, QNodeId, TwigPattern};
use lotusx_guard::{QueryGuard, Ticker};
use lotusx_index::IndexedDocument;
use lotusx_xml::NodeId;

/// Evaluates `pattern` navigationally under a budget, returning all full
/// matches found before `guard` trips.
///
/// The walk charges one node visit per candidate binding it examines
/// and one candidate per row it pushes (amortized through a [`Ticker`]);
/// on trip it finishes its in-flight recursion step and stops expanding
/// new root candidates. Only fully bound assignments are ever emitted, so
/// partial output is valid.
pub fn evaluate(idx: &IndexedDocument, pattern: &TwigPattern, guard: &QueryGuard) -> MatchSet {
    let roots = node_columns(idx, pattern, pattern.root());
    // Preorder binds each node after its parent and its whole subtree
    // before the next sibling: one nest of loops, no intermediate sets.
    let order = pattern.preorder();
    let mut out = MatchSet::new(pattern.len());
    let mut bindings = vec![NodeId::DOCUMENT; pattern.len()];
    let mut ticker = guard.ticker();
    for &root in roots.view().nodes() {
        if ticker.tick(1) {
            break;
        }
        bindings[pattern.root().index()] = root;
        bind(
            idx,
            pattern,
            &order[1..],
            &mut bindings,
            &mut out,
            &mut ticker,
        );
    }
    out.sort_dedup();
    out
}

/// Binds the query nodes of `rest` (preorder, parents already bound) in
/// every possible way, appending one row per completed assignment.
fn bind(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    rest: &[QNodeId],
    bindings: &mut [NodeId],
    out: &mut MatchSet,
    ticker: &mut Ticker,
) {
    let Some((&q, rest)) = rest.split_first() else {
        out.push(bindings);
        let _ = ticker.tick_candidates(1);
        return;
    };
    let parent = pattern.node(q).parent.expect("only the root has no parent");
    for candidate in candidates(idx, pattern, q, bindings[parent.index()]) {
        // Budget checkpoint: one visit per candidate binding examined.
        if ticker.tick(1) {
            return;
        }
        bindings[q.index()] = candidate;
        bind(idx, pattern, rest, bindings, out, ticker);
    }
}

/// Document elements that can bind query node `q` under the already-bound
/// `parent_element`, in document order.
fn candidates<'a>(
    idx: &'a IndexedDocument,
    pattern: &'a TwigPattern,
    q: QNodeId,
    parent_element: NodeId,
) -> impl Iterator<Item = NodeId> + 'a {
    let doc = idx.document();
    let node = pattern.node(q);
    // One of the two axis walks is empty, so the chain is whichever the
    // edge asks for — without boxing or collecting either.
    let children = (node.axis == Axis::Child)
        .then(|| doc.element_children(parent_element))
        .into_iter()
        .flatten();
    let descendants = (node.axis == Axis::Descendant)
        .then(|| doc.descendants_or_self(parent_element).skip(1))
        .into_iter()
        .flatten()
        .filter(move |&n| doc.is_element(n));
    children
        .chain(descendants)
        .filter(move |&n| match &node.test {
            NodeTest::Tag(name) => doc.tag_name(n) == Some(name.as_str()),
            NodeTest::Wildcard => true,
        })
        .filter(move |&n| {
            node.predicate
                .as_ref()
                .map(|p| predicate_matches(idx, n, p))
                .unwrap_or(true)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{TwigBuilder, ValuePredicate};
    use crate::xpath::parse_query;

    fn evaluate(idx: &IndexedDocument, pattern: &TwigPattern) -> MatchSet {
        super::evaluate(idx, pattern, &QueryGuard::unlimited())
    }

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book><title>Data on the Web</title><author>Abiteboul</author>\
                     <author>Buneman</author><year>1999</year></book>\
               <book><title>XML Handbook</title><author>Goldfarb</author><year>2003</year></book>\
               <article><title>TwigStack</title><author>Bruno</author></article>\
             </bib>",
        )
        .unwrap()
    }

    #[test]
    fn single_node_query_matches_all_occurrences() {
        let idx = idx();
        let q = parse_query("//author").unwrap();
        assert_eq!(evaluate(&idx, &q).len(), 4);
    }

    #[test]
    fn path_query_respects_axes() {
        let idx = idx();
        assert_eq!(
            evaluate(&idx, &parse_query("//book/title").unwrap()).len(),
            2
        );
        assert_eq!(
            evaluate(&idx, &parse_query("//bib//title").unwrap()).len(),
            3
        );
        assert_eq!(
            evaluate(&idx, &parse_query("/bib/book/title").unwrap()).len(),
            2
        );
        assert_eq!(
            evaluate(&idx, &parse_query("/book").unwrap()).len(),
            0,
            "book is not the root"
        );
    }

    #[test]
    fn branching_twig_takes_cross_products() {
        let idx = idx();
        // First book has 2 authors × 1 title → 2 matches; second book 1.
        let q = parse_query("//book[title][author]").unwrap();
        assert_eq!(evaluate(&idx, &q).len(), 3);
    }

    #[test]
    fn predicates_filter_matches() {
        let idx = idx();
        let q = parse_query("//book[year >= 2000]/title").unwrap();
        let matches = evaluate(&idx, &q);
        assert_eq!(matches.len(), 1);
        let q = parse_query(r#"//book[author = "Goldfarb"]"#).unwrap();
        assert_eq!(evaluate(&idx, &q).len(), 1);
        let q = parse_query(r#"//book[author ~ "nosuchperson"]"#).unwrap();
        assert_eq!(evaluate(&idx, &q).len(), 0);
    }

    #[test]
    fn wildcard_nodes() {
        let idx = idx();
        let q = parse_query("//*[title][author]").unwrap();
        // book, book, article all have title+author children.
        assert_eq!(
            evaluate(&idx, &q)
                .rows()
                .map(|m| m[q.root().index()])
                .collect::<std::collections::HashSet<_>>()
                .len(),
            3
        );
    }

    #[test]
    fn deep_descendant_axis() {
        let idx = IndexedDocument::from_str("<a><b><c><b><c>x</c></b></c></b></a>").unwrap();
        let q = parse_query("//b//c").unwrap();
        // b1 pairs with c1, c2; b2 pairs with c2 → 3.
        assert_eq!(evaluate(&idx, &q).len(), 3);
    }

    #[test]
    fn recursive_same_tag_nesting() {
        let idx = IndexedDocument::from_str("<s><s><s/></s></s>").unwrap();
        let q = parse_query("//s//s").unwrap();
        assert_eq!(evaluate(&idx, &q).len(), 3);
        let q = parse_query("//s/s").unwrap();
        assert_eq!(evaluate(&idx, &q).len(), 2);
    }

    #[test]
    fn builder_and_parser_agree() {
        let idx = idx();
        let mut b = TwigBuilder::root("book");
        let root = b.root_id();
        let year = b.child(root, "year");
        b.predicate(
            year,
            ValuePredicate::Range {
                low: 2000.0,
                high: f64::INFINITY,
            },
        );
        let built = b.build();
        let parsed = parse_query("//book[year >= 2000]").unwrap();
        assert_eq!(evaluate(&idx, &built), evaluate(&idx, &parsed));
    }
}
