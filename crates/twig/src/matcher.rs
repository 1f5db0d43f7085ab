//! Shared evaluation plumbing: query-node streams and their initial
//! weights, predicate checks and the match representation.

use crate::pattern::{Axis, NodeTest, QNode, TwigPattern, ValuePredicate};
use lotusx_index::{ColumnView, IndexedDocument};
use lotusx_xml::{NodeId, NodeKind};

/// A set of fixed-width binding rows in one flat, row-major buffer — the
/// only match representation from join output through ranking. Row `i`
/// occupies `data[i * width..][..width]`, and `row[q.index()]` is the
/// element bound to query node `q`. Every `execute*` result is canonical:
/// rows sorted lexicographically and distinct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchSet {
    width: usize,
    data: Vec<NodeId>,
}

impl MatchSet {
    /// An empty set of `width`-column rows.
    ///
    /// # Panics
    /// Panics if `width` is zero (a pattern always has a root).
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "a match row binds at least the root");
        MatchSet {
            width,
            data: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.width
    }

    /// True when the set holds no row.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[NodeId] {
        &self.data[i * self.width..][..self.width]
    }

    /// All rows, in stored order.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, NodeId> {
        self.data.chunks_exact(self.width)
    }

    /// True if some row equals `row` (a linear scan).
    pub fn contains(&self, row: &[NodeId]) -> bool {
        self.rows().any(|r| r == row)
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if `row` is not `width` long.
    pub fn push(&mut self, row: &[NodeId]) {
        assert_eq!(row.len(), self.width, "row width");
        self.data.extend_from_slice(row);
    }

    /// Keeps the first `rows` rows.
    pub fn truncate(&mut self, rows: usize) {
        self.data.truncate(rows * self.width);
    }

    /// Keeps the rows `keep` accepts, in order, compacting in place.
    pub fn retain(&mut self, mut keep: impl FnMut(&[NodeId]) -> bool) {
        let (w, mut kept) = (self.width, 0);
        for i in 0..self.len() {
            if keep(&self.data[i * w..][..w]) {
                self.data.copy_within(i * w..(i + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.truncate(kept);
    }

    /// Sorts rows lexicographically and drops duplicates. Join output is
    /// usually already in that order (streams are document-ordered), which
    /// one linear check detects; otherwise rows are gathered through a
    /// sorted permutation — two allocations, whatever the row count.
    pub fn sort_dedup(&mut self) {
        let n = self.len();
        if (1..n).all(|i| self.row(i - 1) < self.row(i)) {
            return;
        }
        let mut order: Vec<u32> = (0..row_index(n)).collect();
        order.sort_unstable_by(|&a, &b| self.row(a as usize).cmp(self.row(b as usize)));
        order.dedup_by(|a, b| self.row(*a as usize) == self.row(*b as usize));
        let mut data = Vec::with_capacity(order.len() * self.width);
        for &i in &order {
            data.extend_from_slice(self.row(i as usize));
        }
        self.data = data;
    }
}

/// Row counts as `u32` permutation entries (half the sort's footprint).
fn row_index(rows: usize) -> u32 {
    u32::try_from(rows).expect("fewer than 2^32 rows: 16 GiB per column")
}

/// Evaluates a value predicate directly against an element's content.
pub fn predicate_matches(idx: &IndexedDocument, node: NodeId, pred: &ValuePredicate) -> bool {
    let doc = idx.document();
    match pred {
        ValuePredicate::Equals(v) => {
            lotusx_index::fold_value(&doc.direct_text(node)) == lotusx_index::fold_value(v)
        }
        ValuePredicate::Contains(v) => {
            let needles = lotusx_index::tokenize(v);
            if needles.is_empty() {
                return true;
            }
            let mut content = doc.direct_text(node).into_owned();
            if let NodeKind::Element { attributes, .. } = doc.kind(node) {
                for (_, value) in attributes {
                    content.push(' ');
                    content.push_str(value);
                }
            }
            let haystack = lotusx_index::tokenize(&content);
            needles.iter().all(|t| haystack.contains(t))
        }
        ValuePredicate::Range { low, high } => doc
            .direct_text(node)
            .trim()
            .parse::<f64>()
            .map(|n| *low <= n && n <= *high)
            .unwrap_or(false),
        ValuePredicate::AttrEquals { name, value } => doc
            .attribute(node, name)
            .map(|v| lotusx_index::fold_value(v) == lotusx_index::fold_value(value))
            .unwrap_or(false),
        ValuePredicate::AttrContains { name, value } => doc
            .attribute(node, name)
            .map(|v| {
                let haystack = lotusx_index::tokenize(v);
                lotusx_index::tokenize(value)
                    .iter()
                    .all(|t| haystack.contains(t))
            })
            .unwrap_or(false),
        ValuePredicate::AttrRange { name, low, high } => doc
            .attribute(node, name)
            .and_then(|v| v.trim().parse::<f64>().ok())
            .map(|n| *low <= n && n <= *high)
            .unwrap_or(false),
        ValuePredicate::AttrExists { name } => doc.attribute(node, name).is_some(),
    }
}

/// The document-ordered stream of the elements that pass query node
/// `node`'s test, borrowed from the index: its tag's columns, or every
/// element for `*`. What the predicate and the root edge leave of it is
/// said by [`initial_weights`], not by a copy.
pub fn node_stream<'a>(idx: &'a IndexedDocument, node: &QNode) -> ColumnView<'a> {
    match &node.test {
        NodeTest::Tag(name) => match idx.document().symbols().get(name) {
            Some(sym) => idx.columns().view(sym),
            None => ColumnView::empty(),
        },
        NodeTest::Wildcard => idx.columns().all_elements(),
    }
}

/// Per element of `stream` (the node's [`node_stream`]): 1 if it passes
/// `node`'s predicate and root edge, 0 if not — the node's weights before
/// the join multiplies in its sub-twig's counts, where 0 binds nothing.
///
/// A child-axis query root passes only the document's root element.
/// Value predicates are pushed into the index: `Equals` and `Range`
/// resolve to candidate sets from the value index, and `Contains` to the
/// postings of each of its terms, ANDed. The candidates are marked in a
/// bitmap over node ids, and one bit probe per stream element writes its
/// weight. The postings index exactly what [`predicate_matches`] reads —
/// direct text plus attribute values, through `tokenize` — so both give
/// the same answer. Attribute predicates have no candidate index; they
/// read each element.
pub fn initial_weights(idx: &IndexedDocument, node: &QNode, stream: ColumnView<'_>) -> Vec<u64> {
    let nodes = stream.nodes();
    let weigh = |passes: &dyn Fn(usize) -> bool| -> Vec<u64> {
        (0..nodes.len()).map(|i| u64::from(passes(i))).collect()
    };
    if node.parent.is_none() && node.axis == Axis::Child {
        return weigh(&|i| {
            stream.levels()[i] == 1
                && node
                    .predicate
                    .as_ref()
                    .is_none_or(|pred| predicate_matches(idx, nodes[i], pred))
        });
    }
    let words = idx.document().node_count() / 64 + 1;
    let mark = |candidates: &mut dyn Iterator<Item = NodeId>| {
        let mut marked = vec![0u64; words];
        for n in candidates {
            marked[n.index() / 64] |= 1 << (n.index() % 64);
        }
        marked
    };
    let among = |marked: &[u64]| {
        weigh(&|i| marked[nodes[i].index() / 64] >> (nodes[i].index() % 64) & 1 == 1)
    };
    let values = idx.values();
    let postings = |term: &str| values.postings(term).nodes().iter().copied();
    match &node.predicate {
        None => vec![1; nodes.len()],
        Some(ValuePredicate::Equals(v)) => {
            let exact = values.exact_matches(idx.document(), v);
            among(&mark(&mut exact.iter().copied()))
        }
        Some(ValuePredicate::Range { low, high }) => {
            among(&mark(&mut values.range_matches(*low, *high)))
        }
        Some(ValuePredicate::Contains(v)) => {
            let mut terms = lotusx_index::tokenize(v).into_iter();
            // A needle with no terms is contained in everything.
            let Some(first) = terms.next() else {
                return vec![1; nodes.len()];
            };
            let mut marked = mark(&mut postings(&first));
            for term in terms {
                let next = mark(&mut postings(&term));
                marked.iter_mut().zip(next).for_each(|(m, n)| *m &= n);
            }
            among(&marked)
        }
        Some(
            pred @ (ValuePredicate::AttrEquals { .. }
            | ValuePredicate::AttrContains { .. }
            | ValuePredicate::AttrRange { .. }
            | ValuePredicate::AttrExists { .. }),
        ) => weigh(&|i| predicate_matches(idx, nodes[i], pred)),
    }
}

/// Checks the structural edge between a bound parent and child element.
pub fn edge_satisfied(idx: &IndexedDocument, axis: Axis, parent: NodeId, child: NodeId) -> bool {
    let doc = idx.document();
    match axis {
        Axis::Child => doc.parent(child) == Some(parent),
        // Ids are the preorder: the subtree of `parent` is the ids after
        // it up to its subtree end.
        Axis::Descendant => parent < child && child <= doc.subtree_end(parent),
    }
}

/// Verifies a full match against every edge, test and predicate — the
/// ground-truth validity check used by tests and post-filters.
pub fn match_is_valid(idx: &IndexedDocument, pattern: &TwigPattern, row: &[NodeId]) -> bool {
    let doc = idx.document();
    for q in pattern.node_ids() {
        let node = pattern.node(q);
        let bound = row[q.index()];
        if !doc.is_element(bound) {
            return false;
        }
        if let NodeTest::Tag(name) = &node.test {
            if doc.tag_name(bound) != Some(name.as_str()) {
                return false;
            }
        }
        if let Some(pred) = &node.predicate {
            if !predicate_matches(idx, bound, pred) {
                return false;
            }
        }
        match node.parent {
            Some(p) => {
                if !edge_satisfied(idx, node.axis, row[p.index()], bound) {
                    return false;
                }
            }
            None => {
                // Root edge: Child means the query root binds the document
                // root element; Descendant allows any element.
                if node.axis == Axis::Child && doc.parent(bound) != Some(NodeId::DOCUMENT) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::TwigBuilder;
    use lotusx_index::IndexedDocument;

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book><title>Data on the Web</title><year>1999</year></book>\
               <book><title>XML Handbook</title><year>2003</year></book>\
             </bib>",
        )
        .unwrap()
    }

    fn nth_element(idx: &IndexedDocument, tag: &str, n: usize) -> NodeId {
        let sym = idx.document().symbols().get(tag).unwrap();
        idx.columns().view(sym).nodes()[n]
    }

    /// The root's stream elements its initial weights leave live.
    fn root_stream(idx: &IndexedDocument, p: &TwigPattern) -> Vec<NodeId> {
        let root = p.node(p.root());
        let stream = node_stream(idx, root);
        let weights = initial_weights(idx, root, stream);
        assert!(weights.iter().all(|&w| w <= 1), "weights are 0 or 1");
        (stream.nodes().iter().zip(weights))
            .filter(|&(_, w)| w == 1)
            .map(|(&n, _)| n)
            .collect()
    }

    #[test]
    fn stream_by_tag() {
        let idx = idx();
        let b = TwigBuilder::root("book");
        let p = b.build();
        assert_eq!(root_stream(&idx, &p).len(), 2);
    }

    #[test]
    fn stream_of_unknown_tag_is_empty() {
        let idx = idx();
        let b = TwigBuilder::root("nosuchtag");
        let p = b.build();
        assert!(root_stream(&idx, &p).is_empty());
    }

    #[test]
    fn wildcard_stream_sees_everything() {
        let idx = idx();
        let b = TwigBuilder::wildcard_root();
        let p = b.build();
        assert_eq!(root_stream(&idx, &p).len(), idx.stats().element_count);
    }

    #[test]
    fn child_axis_root_binds_only_the_document_root() {
        let idx = idx();
        let root = |tag: &str| {
            let p = TwigPattern::new(NodeTest::Tag(tag.to_string()), Axis::Child);
            root_stream(&idx, &p)
        };
        assert_eq!(root("bib"), [nth_element(&idx, "bib", 0)]);
        assert!(root("book").is_empty());
    }

    #[test]
    fn stream_applies_predicates() {
        let idx = idx();
        let mut b = TwigBuilder::root("year");
        b.predicate(
            b.root_id(),
            ValuePredicate::Range {
                low: 2000.0,
                high: f64::INFINITY,
            },
        );
        let p = b.build();
        assert_eq!(root_stream(&idx, &p), [nth_element(&idx, "year", 1)]);

        let mut b = TwigBuilder::root("title");
        b.predicate(b.root_id(), ValuePredicate::Contains("xml".into()));
        let p = b.build();
        assert_eq!(root_stream(&idx, &p).len(), 1);

        let mut b = TwigBuilder::root("title");
        b.predicate(
            b.root_id(),
            ValuePredicate::Equals("data on the web".into()),
        );
        let p = b.build();
        assert_eq!(root_stream(&idx, &p).len(), 1);
    }

    #[test]
    fn predicate_matches_semantics() {
        let idx = idx();
        let title0 = nth_element(&idx, "title", 0);
        assert!(predicate_matches(
            &idx,
            title0,
            &ValuePredicate::Equals("Data on the Web".into())
        ));
        assert!(predicate_matches(
            &idx,
            title0,
            &ValuePredicate::Contains("web data".into())
        ));
        assert!(!predicate_matches(
            &idx,
            title0,
            &ValuePredicate::Contains("xml".into())
        ));
        let year0 = nth_element(&idx, "year", 0);
        assert!(predicate_matches(
            &idx,
            year0,
            &ValuePredicate::Range {
                low: 1999.0,
                high: 1999.0
            }
        ));
        assert!(!predicate_matches(
            &idx,
            year0,
            &ValuePredicate::Range {
                low: 2000.0,
                high: 2400.0
            }
        ));
    }

    #[test]
    fn attribute_predicates_match_attributes() {
        let idx = IndexedDocument::from_str(
            r#"<bib><book year="1999" lang="en"/><book year="2003"/></bib>"#,
        )
        .unwrap();
        let book0 = nth_element(&idx, "book", 0);
        let book1 = nth_element(&idx, "book", 1);
        assert!(predicate_matches(
            &idx,
            book0,
            &ValuePredicate::AttrEquals {
                name: "lang".into(),
                value: "EN".into()
            }
        ));
        assert!(!predicate_matches(
            &idx,
            book1,
            &ValuePredicate::AttrExists {
                name: "lang".into()
            }
        ));
        assert!(predicate_matches(
            &idx,
            book1,
            &ValuePredicate::AttrRange {
                name: "year".into(),
                low: 2000.0,
                high: 2400.0
            }
        ));
        assert!(!predicate_matches(
            &idx,
            book0,
            &ValuePredicate::AttrRange {
                name: "year".into(),
                low: 2000.0,
                high: 2400.0
            }
        ));
        assert!(predicate_matches(
            &idx,
            book0,
            &ValuePredicate::AttrContains {
                name: "lang".into(),
                value: "en".into()
            }
        ));

        // Through the initial weights:
        let mut b = TwigBuilder::root("book");
        b.predicate(
            b.root_id(),
            ValuePredicate::AttrRange {
                name: "year".into(),
                low: 2000.0,
                high: f64::INFINITY,
            },
        );
        let p = b.build();
        assert_eq!(root_stream(&idx, &p), [book1]);
    }

    #[test]
    fn match_set_sorts_dedups_and_compacts_in_place() {
        let n = NodeId::from_index;
        let mut set = MatchSet::new(2);
        for r in [[3, 1], [1, 2], [3, 1], [1, 1]] {
            set.push(&[n(r[0]), n(r[1])]);
        }
        set.sort_dedup();
        let got: Vec<&[NodeId]> = set.rows().collect();
        assert_eq!(got, [[n(1), n(1)], [n(1), n(2)], [n(3), n(1)]]);
        set.retain(|r| r[1] == n(1));
        assert_eq!(set.len(), 2);
        assert_eq!(set.row(1), [n(3), n(1)]);
    }

    #[test]
    fn match_is_valid_checks_everything() {
        let idx = idx();
        let mut b = TwigBuilder::root("book");
        let root = b.root_id();
        b.child(root, "title");
        let p = b.build();
        let book0 = nth_element(&idx, "book", 0);
        let t0 = nth_element(&idx, "title", 0);
        let t1 = nth_element(&idx, "title", 1);
        assert!(match_is_valid(&idx, &p, &[book0, t0]));
        // Title of the other book fails the child edge.
        assert!(!match_is_valid(&idx, &p, &[book0, t1]));
    }
}
