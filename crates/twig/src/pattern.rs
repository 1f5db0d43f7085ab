//! The twig pattern model.
//!
//! A twig pattern is a small tree: every node carries a node test (tag or
//! wildcard) and optionally a value predicate; every edge is either
//! parent-child (`/`) or ancestor-descendant (`//`). One or more nodes are
//! marked as *output* nodes (the GUI's highlighted nodes); the pattern may
//! additionally be *order-sensitive*, in which case sibling query nodes
//! must bind to elements in document order.

use std::fmt;

/// Index of a query node within its [`TwigPattern`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QNodeId(u32);

impl QNodeId {
    /// Dense index of this query node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a query-node id from a raw index.
    pub fn from_index(index: usize) -> Self {
        QNodeId(index as u32)
    }
}

/// The node test of a query node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// Match elements with this tag name.
    Tag(String),
    /// Match any element (`*`).
    Wildcard,
}

impl NodeTest {
    /// The tag name, if this is a tag test.
    pub fn tag_name(&self) -> Option<&str> {
        match self {
            NodeTest::Tag(t) => Some(t),
            NodeTest::Wildcard => None,
        }
    }
}

/// The axis of an edge between two query nodes (or between the document
/// root and the query root).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Parent-child (`/`).
    Child,
    /// Ancestor-descendant (`//`).
    Descendant,
}

/// A value predicate attached to a query node.
///
/// The first three variants interpret the element's direct content (text
/// plus attribute values); the `Attr*` variants target one named
/// attribute (`@year >= 2000` in the textual syntax).
#[derive(Clone, Debug, PartialEq)]
pub enum ValuePredicate {
    /// Trimmed direct text equals the string (case-insensitive).
    Equals(String),
    /// All tokenized terms of the string occur in the element's content.
    Contains(String),
    /// The element's numeric value lies in `[low, high]` (either bound may
    /// be infinite).
    Range {
        /// Inclusive lower bound.
        low: f64,
        /// Inclusive upper bound.
        high: f64,
    },
    /// The named attribute exists and its trimmed value equals the string
    /// (case-insensitive).
    AttrEquals {
        /// Attribute name.
        name: String,
        /// Expected value.
        value: String,
    },
    /// The named attribute exists and contains all tokenized terms.
    AttrContains {
        /// Attribute name.
        name: String,
        /// Terms to find.
        value: String,
    },
    /// The named attribute exists and parses to a number in `[low, high]`.
    AttrRange {
        /// Attribute name.
        name: String,
        /// Inclusive lower bound.
        low: f64,
        /// Inclusive upper bound.
        high: f64,
    },
    /// The named attribute exists (any value).
    AttrExists {
        /// Attribute name.
        name: String,
    },
}

/// One node of a twig pattern.
#[derive(Clone, Debug, PartialEq)]
pub struct QNode {
    /// The node test.
    pub test: NodeTest,
    /// Optional value predicate.
    pub predicate: Option<ValuePredicate>,
    /// Whether this node's binding is part of the query result.
    pub output: bool,
    /// The axis connecting this node to its parent (for the root: to the
    /// document root).
    pub axis: Axis,
    /// Parent query node.
    pub parent: Option<QNodeId>,
    /// Child query nodes, in the user's (GUI) order — significant when the
    /// pattern is order-sensitive.
    pub children: Vec<QNodeId>,
}

/// A twig pattern.
#[derive(Clone, Debug, PartialEq)]
pub struct TwigPattern {
    nodes: Vec<QNode>,
    ordered: bool,
}

impl TwigPattern {
    /// Creates a pattern containing only a root node.
    pub fn new(root_test: NodeTest, root_axis: Axis) -> Self {
        TwigPattern {
            nodes: vec![QNode {
                test: root_test,
                predicate: None,
                output: false,
                axis: root_axis,
                parent: None,
                children: Vec::new(),
            }],
            ordered: false,
        }
    }

    /// The root query node.
    pub fn root(&self) -> QNodeId {
        QNodeId(0)
    }

    /// Adds a child node under `parent`, returning its id.
    pub fn add_child(&mut self, parent: QNodeId, axis: Axis, test: NodeTest) -> QNodeId {
        let id = QNodeId(self.nodes.len() as u32);
        self.nodes.push(QNode {
            test,
            predicate: None,
            output: false,
            axis,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Sets the value predicate of a node.
    pub fn set_predicate(&mut self, id: QNodeId, predicate: Option<ValuePredicate>) {
        self.nodes[id.index()].predicate = predicate;
    }

    /// Marks (or unmarks) a node as an output node.
    pub fn set_output(&mut self, id: QNodeId, output: bool) {
        self.nodes[id.index()].output = output;
    }

    /// Replaces the node test of a node (used by rewriting).
    pub fn set_test(&mut self, id: QNodeId, test: NodeTest) {
        self.nodes[id.index()].test = test;
    }

    /// Replaces the axis of a node's incoming edge (used by rewriting).
    pub fn set_axis(&mut self, id: QNodeId, axis: Axis) {
        self.nodes[id.index()].axis = axis;
    }

    /// Makes the pattern order-sensitive (or not).
    pub fn set_ordered(&mut self, ordered: bool) {
        self.ordered = ordered;
    }

    /// Whether the pattern is order-sensitive.
    pub fn is_ordered(&self) -> bool {
        self.ordered
    }

    /// Access a node.
    pub fn node(&self, id: QNodeId) -> &QNode {
        &self.nodes[id.index()]
    }

    /// Number of query nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A pattern always has at least a root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over all node ids in creation (preorder-compatible) order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = QNodeId> + ExactSizeIterator {
        (0..self.nodes.len()).map(|i| QNodeId(i as u32))
    }

    /// Leaf query nodes.
    pub fn leaves(&self) -> Vec<QNodeId> {
        self.node_ids()
            .filter(|id| self.node(*id).children.is_empty())
            .collect()
    }

    /// True if the pattern is a linear path (no branching).
    pub fn is_path(&self) -> bool {
        self.node_ids().all(|id| self.node(id).children.len() <= 1)
    }

    /// All node ids in depth-first preorder: every node after its parent,
    /// a node's whole subtree before its next sibling. Binding query nodes
    /// in this order enumerates matches as one nest of loops.
    pub fn preorder(&self) -> Vec<QNodeId> {
        let mut order = Vec::with_capacity(self.len());
        let mut pending = vec![self.root()];
        while let Some(q) = pending.pop() {
            order.push(q);
            pending.extend(self.node(q).children.iter().rev());
        }
        order
    }

    /// The output nodes; if none was marked, the root is the default
    /// output (what the GUI highlights when the user marks nothing).
    pub fn output_nodes(&self) -> Vec<QNodeId> {
        let marked: Vec<QNodeId> = self.node_ids().filter(|id| self.node(*id).output).collect();
        if marked.is_empty() {
            vec![self.root()]
        } else {
            marked
        }
    }

    /// The root-to-node path of query node `id` (inclusive).
    pub fn path_to(&self, id: QNodeId) -> Vec<QNodeId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.node(cur).parent {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Depth of a query node (root = 1).
    pub fn depth(&self, id: QNodeId) -> usize {
        self.path_to(id).len()
    }

    /// True if any node carries a value predicate.
    pub fn has_predicates(&self) -> bool {
        self.nodes.iter().any(|n| n.predicate.is_some())
    }

    /// Number of edges with [`Axis::Child`] (excluding the root edge).
    pub fn parent_child_edge_count(&self) -> usize {
        self.nodes
            .iter()
            .skip(1)
            .filter(|n| n.axis == Axis::Child)
            .count()
    }
}

fn write_range(f: &mut fmt::Formatter<'_>, target: &str, low: f64, high: f64) -> fmt::Result {
    if high.is_infinite() {
        write!(f, "[{target} >= {low}]")
    } else if low.is_infinite() {
        write!(f, "[{target} <= {high}]")
    } else {
        write!(f, "[{target} in {low}..{high}]")
    }
}

impl fmt::Display for TwigPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write_node(pat: &TwigPattern, id: QNodeId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let node = pat.node(id);
            write!(f, "{}", if node.axis == Axis::Child { "/" } else { "//" })?;
            match &node.test {
                NodeTest::Tag(t) => write!(f, "{t}")?,
                NodeTest::Wildcard => write!(f, "*")?,
            }
            if node.output {
                write!(f, "!")?;
            }
            match &node.predicate {
                Some(ValuePredicate::Equals(v)) => write!(f, "[. = \"{v}\"]")?,
                Some(ValuePredicate::Contains(v)) => write!(f, "[. ~ \"{v}\"]")?,
                Some(ValuePredicate::Range { low, high }) => write_range(f, ".", *low, *high)?,
                Some(ValuePredicate::AttrEquals { name, value }) => {
                    write!(f, "[@{name} = \"{value}\"]")?
                }
                Some(ValuePredicate::AttrContains { name, value }) => {
                    write!(f, "[@{name} ~ \"{value}\"]")?
                }
                Some(ValuePredicate::AttrRange { name, low, high }) => {
                    let target = format!("@{name}");
                    write_range(f, &target, *low, *high)?
                }
                Some(ValuePredicate::AttrExists { name }) => write!(f, "[@{name}]")?,
                None => {}
            }
            for &child in &node.children {
                write!(f, "[")?;
                write_node(pat, child, f)?;
                write!(f, "]")?;
            }
            Ok(())
        }
        if self.ordered {
            write!(f, "ordered ")?;
        }
        write_node(self, self.root(), f)
    }
}

/// Convenience builder used by tests and the canvas.
#[derive(Clone, Debug)]
pub struct TwigBuilder {
    pattern: TwigPattern,
}

impl TwigBuilder {
    /// Starts a pattern with a descendant-axis root (`//tag`).
    pub fn root(tag: &str) -> Self {
        TwigBuilder {
            pattern: TwigPattern::new(NodeTest::Tag(tag.to_string()), Axis::Descendant),
        }
    }

    /// Starts a pattern with a wildcard root.
    pub fn wildcard_root() -> Self {
        TwigBuilder {
            pattern: TwigPattern::new(NodeTest::Wildcard, Axis::Descendant),
        }
    }

    /// Adds a child-axis child under `parent`.
    pub fn child(&mut self, parent: QNodeId, tag: &str) -> QNodeId {
        self.pattern
            .add_child(parent, Axis::Child, NodeTest::Tag(tag.to_string()))
    }

    /// Adds a descendant-axis child under `parent`.
    pub fn descendant(&mut self, parent: QNodeId, tag: &str) -> QNodeId {
        self.pattern
            .add_child(parent, Axis::Descendant, NodeTest::Tag(tag.to_string()))
    }

    /// The root node id.
    pub fn root_id(&self) -> QNodeId {
        self.pattern.root()
    }

    /// Sets a predicate.
    pub fn predicate(&mut self, id: QNodeId, p: ValuePredicate) -> &mut Self {
        self.pattern.set_predicate(id, Some(p));
        self
    }

    /// Marks an output node.
    pub fn output(&mut self, id: QNodeId) -> &mut Self {
        self.pattern.set_output(id, true);
        self
    }

    /// Makes the pattern order-sensitive.
    pub fn ordered(&mut self) -> &mut Self {
        self.pattern.set_ordered(true);
        self
    }

    /// Finishes the pattern.
    pub fn build(self) -> TwigPattern {
        self.pattern
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book_twig() -> TwigPattern {
        // //book[/title][//author]
        let mut b = TwigBuilder::root("book");
        let root = b.root_id();
        let title = b.child(root, "title");
        b.descendant(root, "author");
        b.output(title);
        b.build()
    }

    #[test]
    fn structure_accessors() {
        let p = book_twig();
        assert_eq!(p.len(), 3);
        assert!(!p.is_path());
        assert_eq!(p.leaves().len(), 2);
        assert_eq!(p.depth(p.root()), 1);
        let title = QNodeId::from_index(1);
        assert_eq!(p.depth(title), 2);
        assert_eq!(p.node(title).axis, Axis::Child);
        assert_eq!(p.path_to(title), vec![p.root(), title]);
    }

    #[test]
    fn output_defaults_to_root() {
        let b = TwigBuilder::root("a");
        let p = b.build();
        assert_eq!(p.output_nodes(), vec![p.root()]);
        let p2 = book_twig();
        assert_eq!(p2.output_nodes(), vec![QNodeId::from_index(1)]);
    }

    #[test]
    fn path_detection() {
        let mut b = TwigBuilder::root("a");
        let r = b.root_id();
        let x = b.child(r, "b");
        b.descendant(x, "c");
        let p = b.build();
        assert!(p.is_path());
    }

    #[test]
    fn display_roundtrips_structure() {
        let p = book_twig();
        assert_eq!(p.to_string(), "//book[/title!][//author]");
        let mut b = TwigBuilder::root("year");
        b.predicate(
            b.root_id(),
            ValuePredicate::Range {
                low: 2000.0,
                high: f64::INFINITY,
            },
        );
        assert_eq!(b.build().to_string(), "//year[. >= 2000]");
    }

    #[test]
    fn ordered_flag() {
        let mut b = TwigBuilder::root("a");
        b.ordered();
        let p = b.build();
        assert!(p.is_ordered());
        assert!(p.to_string().starts_with("ordered "));
    }

    #[test]
    fn pc_edge_count() {
        let p = book_twig();
        assert_eq!(p.parent_child_edge_count(), 1);
    }

    #[test]
    fn predicates_flag() {
        let mut p = book_twig();
        assert!(!p.has_predicates());
        p.set_predicate(
            QNodeId::from_index(1),
            Some(ValuePredicate::Equals("XML".into())),
        );
        assert!(p.has_predicates());
    }
}
