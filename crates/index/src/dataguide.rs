//! Strong DataGuide structural summary (Goldman & Widom, VLDB 1997).
//!
//! Every distinct root-to-node *tag path* of the document becomes exactly
//! one guide node, annotated with the number of document elements sharing
//! that path. The guide is typically minuscule compared to the document
//! (hundreds of nodes for millions of elements), which makes it the perfect
//! oracle for LotusX's two position-aware questions:
//!
//! 1. *auto-completion*: "which tags can occur at this position of the
//!    partial twig?";
//! 2. *rewriting*: "can this twig match anything at all?".
//!
//! Both are answered by one embedding of a twig pattern into the guide
//! tree (`lotusx_twig::guide::embed`: per query node, the guide nodes it
//! binds to). Completion reads the set of a wildcard focus and sums its
//! counts per tag; the rewriter reads whether the root's set is empty.
//! Nodes are stored parent before child, which lets that embedding cross
//! a `//` edge in one sweep over the nodes.

use lotusx_xml::Symbol;

/// Index of a node within a [`DataGuide`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GuideNodeId(u32);

impl GuideNodeId {
    /// The virtual guide root (corresponding to the document node).
    pub const ROOT: GuideNodeId = GuideNodeId(0);

    /// Dense index of this guide node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from an index previously obtained via
    /// [`GuideNodeId::index`] on the same guide.
    pub fn from_index(index: usize) -> Self {
        GuideNodeId(index as u32)
    }
}

#[derive(Clone, Debug)]
struct GuideNode {
    tag: Option<Symbol>,
    parent: Option<GuideNodeId>,
    count: u64,
    depth: u16,
}

/// The structural summary.
#[derive(Clone, Debug)]
pub struct DataGuide {
    nodes: Vec<GuideNode>,
    /// Every node's children back to back, each node's in the order they
    /// were created: node `i`'s are `children[child_starts[i]..child_starts[i + 1]]`.
    children: Vec<(Symbol, GuideNodeId)>,
    child_starts: Vec<u32>,
    /// Per node, `1 / (1 + ln(1 + count))` — the ranker's position
    /// specificity term, derived from the counts.
    specificity: Vec<f64>,
}

/// A DataGuide under construction: each node's children in a list of
/// their own, so that a child is found or appended while the document is
/// walked. [`IndexedDocument`](crate::IndexedDocument) calls
/// [`count_child`](Self::count_child) once per element;
/// [`finish`](Self::finish) lays the lists out in one array.
pub(crate) struct GuideBuilder {
    nodes: Vec<GuideNode>,
    children: Vec<Vec<(Symbol, GuideNodeId)>>,
}

impl GuideBuilder {
    /// The guide of a document with no elements: the root alone, counting
    /// the document node.
    pub(crate) fn new() -> Self {
        GuideBuilder {
            nodes: vec![GuideNode {
                tag: None,
                parent: None,
                count: 1,
                depth: 0,
            }],
            children: vec![Vec::new()],
        }
    }

    /// Counts one more element labelled `tag` under guide node `parent`,
    /// and returns its guide node, appended if it is the first.
    pub(crate) fn count_child(&mut self, parent: GuideNodeId, tag: Symbol) -> GuideNodeId {
        let found = self.children[parent.index()]
            .iter()
            .find(|(t, _)| *t == tag);
        let child = match found {
            Some(&(_, child)) => child,
            None => {
                let child = GuideNodeId(self.nodes.len() as u32);
                let depth = self.nodes[parent.index()].depth + 1;
                self.nodes.push(GuideNode {
                    tag: Some(tag),
                    parent: Some(parent),
                    count: 0,
                    depth,
                });
                self.children.push(Vec::new());
                self.children[parent.index()].push((tag, child));
                child
            }
        };
        self.nodes[child.index()].count += 1;
        child
    }

    /// The guide: its child lists laid out back to back, and each node's
    /// position specificity derived from its final count.
    pub(crate) fn finish(self) -> DataGuide {
        let mut nodes = self.nodes;
        nodes.shrink_to_fit();
        let mut children = Vec::with_capacity(nodes.len() - 1);
        let mut child_starts = Vec::with_capacity(nodes.len() + 1);
        child_starts.push(0);
        for list in &self.children {
            children.extend_from_slice(list);
            child_starts.push(children.len() as u32);
        }
        let specificity = nodes
            .iter()
            .map(|n| 1.0 / (1.0 + (n.count as f64).ln_1p()))
            .collect();
        DataGuide {
            nodes,
            children,
            child_starts,
            specificity,
        }
    }
}

impl DataGuide {
    /// The guide child of `parent` labelled `tag`.
    pub fn child_by_tag(&self, parent: GuideNodeId, tag: Symbol) -> Option<GuideNodeId> {
        self.children(parent)
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, id)| *id)
    }

    /// The tag of a guide node (`None` for the root).
    pub fn tag(&self, id: GuideNodeId) -> Option<Symbol> {
        self.nodes[id.index()].tag
    }

    /// The parent of a guide node.
    pub fn parent(&self, id: GuideNodeId) -> Option<GuideNodeId> {
        self.nodes[id.index()].parent
    }

    /// Number of document elements sharing this guide node's path.
    pub fn count(&self, id: GuideNodeId) -> u64 {
        self.nodes[id.index()].count
    }

    /// Position specificity of this guide node in `(0, 1]`: the fewer
    /// elements share its path, the closer to 1.
    pub fn specificity(&self, id: GuideNodeId) -> f64 {
        self.specificity[id.index()]
    }

    /// Depth of the guide node (root = 0, root element = 1).
    pub fn depth(&self, id: GuideNodeId) -> u16 {
        self.nodes[id.index()].depth
    }

    /// Child guide nodes of `id` with their tags.
    pub fn children(&self, id: GuideNodeId) -> &[(Symbol, GuideNodeId)] {
        let i = id.index();
        &self.children[self.child_starts[i] as usize..self.child_starts[i + 1] as usize]
    }

    /// The guide node for an exact root-to-node tag path, if present.
    pub fn lookup_path(&self, path: &[Symbol]) -> Option<GuideNodeId> {
        let mut cur = GuideNodeId::ROOT;
        for &tag in path {
            cur = self.child_by_tag(cur, tag)?;
        }
        Some(cur)
    }

    /// Number of guide nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate heap size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<GuideNode>()
            + self.children.capacity() * std::mem::size_of::<(Symbol, GuideNodeId)>()
            + self.child_starts.capacity() * 4
            + self.specificity.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::IndexedDocument;
    use lotusx_xml::Document;

    fn doc() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book><title>a</title><author>x</author><author>y</author></book>\
               <book><title>b</title></book>\
               <article><title>c</title><author>z</author></article>\
             </bib>",
        )
        .unwrap()
    }

    fn sym(d: &Document, t: &str) -> Symbol {
        d.symbols().get(t).unwrap()
    }

    #[test]
    fn one_guide_node_per_distinct_path() {
        let g = doc().guide().clone();
        // Paths: root, bib, bib/book, bib/book/title, bib/book/author,
        //        bib/article, bib/article/title, bib/article/author
        assert_eq!(g.node_count(), 8);
    }

    /// Nodes are numbered as a depth-first walk meets them: the children
    /// of one element in document order, the last element pushed walked
    /// first. Completion and ranking read this order, so a loaded index
    /// must number as a fresh one does.
    #[test]
    fn nodes_are_numbered_depth_first_last_pushed_first() {
        let idx = doc();
        let (d, g) = (idx.document(), idx.guide());
        let paths: Vec<Vec<&str>> = (1..g.node_count())
            .map(|i| {
                let mut path = Vec::new();
                let mut cur = Some(GuideNodeId::from_index(i));
                while let Some(tag) = cur.and_then(|n| g.tag(n)) {
                    path.push(d.symbols().resolve(tag));
                    cur = g.parent(cur.unwrap());
                }
                path.reverse();
                path
            })
            .collect();
        assert_eq!(
            paths,
            [
                vec!["bib"],
                vec!["bib", "book"],
                vec!["bib", "article"],
                vec!["bib", "article", "title"],
                vec!["bib", "article", "author"],
                vec!["bib", "book", "title"],
                vec!["bib", "book", "author"],
            ]
        );
    }

    #[test]
    fn counts_aggregate_elements_per_path() {
        let idx = doc();
        let (d, g) = (idx.document(), idx.guide());
        let book_path = g.lookup_path(&[sym(d, "bib"), sym(d, "book")]).unwrap();
        assert_eq!(g.count(book_path), 2);
        let book_author = g
            .lookup_path(&[sym(d, "bib"), sym(d, "book"), sym(d, "author")])
            .unwrap();
        assert_eq!(g.count(book_author), 2);
        let art_author = g
            .lookup_path(&[sym(d, "bib"), sym(d, "article"), sym(d, "author")])
            .unwrap();
        assert_eq!(g.count(art_author), 1);
    }

    #[test]
    fn lookup_of_absent_path_fails() {
        let idx = doc();
        let (d, g) = (idx.document(), idx.guide());
        assert!(g.lookup_path(&[sym(d, "bib"), sym(d, "author")]).is_none());
    }

    #[test]
    fn guide_is_small_relative_to_repetitive_documents() {
        let mut xml = String::from("<bib>");
        for i in 0..500 {
            xml.push_str(&format!("<book><title>t{i}</title></book>"));
        }
        xml.push_str("</bib>");
        let idx = IndexedDocument::from_str(&xml).unwrap();
        let (d, g) = (idx.document(), idx.guide());
        assert_eq!(g.node_count(), 4); // root, bib, book, title
        assert_eq!(
            g.count(g.lookup_path(&[sym(d, "bib"), sym(d, "book")]).unwrap()),
            500
        );
    }
}
