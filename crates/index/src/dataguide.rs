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

use crate::wire::{corrupt, put_varint, rd_len, rd_varint, StorageError};
use lotusx_xml::{Document, NodeId, Symbol};

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
    children: Vec<(Symbol, GuideNodeId)>,
    count: u64,
    depth: u16,
}

/// The structural summary.
#[derive(Clone, Debug)]
pub struct DataGuide {
    nodes: Vec<GuideNode>,
    /// Per node, `1 / (1 + ln(1 + count))` — the ranker's position
    /// specificity term. Derived from the counts whenever a guide is
    /// built or decoded; never serialized.
    specificity: Vec<f64>,
}

impl DataGuide {
    /// Builds the DataGuide of `doc` in one traversal.
    pub fn from_document(doc: &Document) -> Self {
        let mut guide = DataGuide {
            nodes: vec![GuideNode {
                tag: None,
                parent: None,
                children: Vec::new(),
                count: 1,
                depth: 0,
            }],
            specificity: Vec::new(),
        };
        // DFS over (document node, guide node) pairs.
        let mut stack: Vec<(NodeId, GuideNodeId)> = vec![(NodeId::DOCUMENT, GuideNodeId::ROOT)];
        while let Some((node, gnode)) = stack.pop() {
            for child in doc.element_children(node) {
                let tag = doc.tag(child).expect("element");
                let gchild = guide.child_or_insert(gnode, tag);
                guide.nodes[gchild.index()].count += 1;
                stack.push((child, gchild));
            }
        }
        // Construction initializes counts to 0 via child_or_insert; the
        // root was seeded with 1 representing the single document node.
        guide.derive_specificity();
        guide
    }

    fn derive_specificity(&mut self) {
        self.specificity = self
            .nodes
            .iter()
            .map(|n| 1.0 / (1.0 + (n.count as f64).ln_1p()))
            .collect();
    }

    fn child_or_insert(&mut self, parent: GuideNodeId, tag: Symbol) -> GuideNodeId {
        if let Some(existing) = self.child_by_tag(parent, tag) {
            return existing;
        }
        let id = GuideNodeId(self.nodes.len() as u32);
        let depth = self.nodes[parent.index()].depth + 1;
        self.nodes.push(GuideNode {
            tag: Some(tag),
            parent: Some(parent),
            children: Vec::new(),
            count: 0,
            depth,
        });
        self.nodes[parent.index()].children.push((tag, id));
        id
    }

    /// The guide child of `parent` labelled `tag`.
    pub fn child_by_tag(&self, parent: GuideNodeId, tag: Symbol) -> Option<GuideNodeId> {
        self.nodes[parent.index()]
            .children
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
        &self.nodes[id.index()].children
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
        self.nodes.len() * (std::mem::size_of::<GuideNode>() + std::mem::size_of::<f64>())
            + self
                .nodes
                .iter()
                .map(|n| n.children.capacity() * std::mem::size_of::<(Symbol, GuideNodeId)>())
                .sum::<usize>()
    }

    /// Serializes the guide for the snapshot `GUIDE` section. Nodes and
    /// children are written in their stored order — the guide embedding's
    /// parent-before-child sweeps and the completion ranking depend on it
    /// being preserved exactly.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.nodes.len() as u64);
        for node in &self.nodes {
            // 0 encodes None; symbols/ids are shifted by one.
            put_varint(out, node.tag.map(|t| t.index() as u64 + 1).unwrap_or(0));
            put_varint(out, node.parent.map(|p| p.index() as u64 + 1).unwrap_or(0));
            put_varint(out, node.children.len() as u64);
            for &(tag, child) in &node.children {
                put_varint(out, tag.index() as u64);
                put_varint(out, child.index() as u64);
            }
            put_varint(out, node.count);
            put_varint(out, u64::from(node.depth));
        }
    }

    /// Deserializes a guide written by [`encode`](Self::encode), checking
    /// the invariants consumers rely on: nodes are stored
    /// parent-before-child (children have larger indexes than their
    /// parent), the root has neither tag nor parent and depth 0, every
    /// other node has both and sits one level below its parent, all
    /// symbols fall below `tag_count`, and the child lists are the
    /// parent links read the other way: each non-root node is listed
    /// once, under its parent, with its tag, and no two children of one
    /// node share a tag. The counts are checked against the document by
    /// a [`GuideMapCheck`].
    pub(crate) fn decode(
        data: &[u8],
        pos: &mut usize,
        tag_count: usize,
    ) -> Result<DataGuide, StorageError> {
        let node_count = rd_len(data, pos, "guide node count")?;
        if node_count == 0 || node_count > data.len() {
            return Err(corrupt("guide node count"));
        }
        let rd_tag = |v: usize, what| -> Result<Symbol, StorageError> {
            if v >= tag_count {
                return Err(corrupt(what));
            }
            Ok(Symbol::from_index(v))
        };
        let mut nodes: Vec<GuideNode> = Vec::with_capacity(node_count);
        for i in 0..node_count {
            let tag = match rd_len(data, pos, "guide tag")? {
                0 if i == 0 => None,
                0 => return Err(corrupt("non-root guide node without tag")),
                v => Some(rd_tag(v - 1, "guide tag out of range")?),
            };
            let parent = match rd_len(data, pos, "guide parent")? {
                0 if i == 0 => None,
                0 => return Err(corrupt("non-root guide node without parent")),
                v if v - 1 < i => Some(GuideNodeId::from_index(v - 1)),
                _ => return Err(corrupt("guide parent not before child")),
            };
            let child_count = rd_len(data, pos, "guide child count")?;
            if child_count > data.len() {
                return Err(corrupt("guide child count"));
            }
            let mut children = Vec::with_capacity(child_count);
            for _ in 0..child_count {
                let tag = rd_tag(
                    rd_len(data, pos, "guide child tag")?,
                    "guide child tag out of range",
                )?;
                let child = rd_len(data, pos, "guide child id")?;
                if child <= i || child >= node_count {
                    return Err(corrupt("guide child id out of range"));
                }
                children.push((tag, GuideNodeId::from_index(child)));
            }
            let count = rd_varint(data, pos, "guide count")?;
            let depth = u16::try_from(rd_varint(data, pos, "guide depth")?)
                .map_err(|_| corrupt("guide depth"))?;
            let parent_depth = parent.map(|p| u32::from(nodes[p.index()].depth));
            if u32::from(depth) != parent_depth.map_or(0, |d| d + 1) {
                return Err(corrupt("guide depth disagrees with its parent's"));
            }
            nodes.push(GuideNode {
                tag,
                parent,
                children,
                count,
                depth,
            });
        }
        check_children(&nodes, tag_count)?;
        let mut guide = DataGuide {
            nodes,
            specificity: Vec::new(),
        };
        guide.derive_specificity();
        Ok(guide)
    }
}

/// Whether the child lists of decoded `nodes` are their parent links read
/// the other way, with one child per tag under each node.
fn check_children(nodes: &[GuideNode], tag_count: usize) -> Result<(), StorageError> {
    let mut listed = vec![false; nodes.len()];
    // Per tag: the last node that listed a child of it, plus one.
    let mut tag_seen_under = vec![0usize; tag_count];
    for (i, node) in nodes.iter().enumerate() {
        for &(tag, child) in &node.children {
            let entry = &nodes[child.index()];
            if entry.tag != Some(tag) || entry.parent != Some(GuideNodeId::from_index(i)) {
                return Err(corrupt("guide child entry disagrees with its node"));
            }
            if std::mem::replace(&mut listed[child.index()], true) {
                return Err(corrupt("guide node listed twice under its parent"));
            }
            if std::mem::replace(&mut tag_seen_under[tag.index()], i + 1) == i + 1 {
                return Err(corrupt("two guide children of one tag"));
            }
        }
    }
    if listed.iter().skip(1).any(|&l| !l) {
        return Err(corrupt("guide node missing from its parent's children"));
    }
    Ok(())
}

/// Checks a decoded node → guide-node map against its document, one node
/// at a time in preorder (each node after its parent), so that it rides
/// the pass that checks the tag streams. A node that is no element maps
/// to the root; an element maps to a guide node of its tag whose parent
/// is its parent's guide node — so, inductively, to the one guide node of
/// its tag path. [`finish`](Self::finish) then compares the elements
/// counted per guide node with the stored counts, which the ranker's
/// position specificity is read from.
pub(crate) struct GuideMapCheck<'a> {
    guide: &'a DataGuide,
    guide_of: &'a [GuideNodeId],
    doc: &'a Document,
    /// Per guide node: the nodes mapped to it so far; the root counts the
    /// document.
    counts: Vec<u64>,
}

impl<'a> GuideMapCheck<'a> {
    /// A check of `guide_of`, one entry per node of `doc`, against
    /// `guide`.
    pub(crate) fn new(
        guide: &'a DataGuide,
        guide_of: &'a [GuideNodeId],
        doc: &'a Document,
    ) -> Self {
        let mut counts = vec![0u64; guide.node_count()];
        counts[GuideNodeId::ROOT.index()] = 1;
        GuideMapCheck {
            guide,
            guide_of,
            doc,
            counts,
        }
    }

    /// Checks `node`'s entry, `parent`'s having been checked.
    pub(crate) fn node(&mut self, node: NodeId, parent: NodeId) -> Result<(), StorageError> {
        let g = self.guide_of[node.index()];
        let Some(tag) = self.doc.tag(node) else {
            if g != GuideNodeId::ROOT {
                return Err(corrupt("guide node of a node that is no element"));
            }
            return Ok(());
        };
        if self.guide.tag(g) != Some(tag) {
            return Err(corrupt("guide node of another tag than its element"));
        }
        if self.guide.parent(g) != Some(self.guide_of[parent.index()]) {
            return Err(corrupt(
                "guide node under another parent than its element's",
            ));
        }
        self.counts[g.index()] += 1;
        Ok(())
    }

    /// Once every node but the document has been checked: the document's
    /// entry, and the counts.
    pub(crate) fn finish(self) -> Result<(), StorageError> {
        if self.guide_of[NodeId::DOCUMENT.index()] != GuideNodeId::ROOT {
            return Err(corrupt("guide node of a node that is no element"));
        }
        let stored = self.guide.nodes.iter().map(|n| n.count);
        if !stored.eq(self.counts) {
            return Err(corrupt("guide count disagrees with its elements"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::parse_str(
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
        let d = doc();
        let g = DataGuide::from_document(&d);
        // Paths: root, bib, bib/book, bib/book/title, bib/book/author,
        //        bib/article, bib/article/title, bib/article/author
        assert_eq!(g.node_count(), 8);
    }

    #[test]
    fn counts_aggregate_elements_per_path() {
        let d = doc();
        let g = DataGuide::from_document(&d);
        let book_path = g.lookup_path(&[sym(&d, "bib"), sym(&d, "book")]).unwrap();
        assert_eq!(g.count(book_path), 2);
        let book_author = g
            .lookup_path(&[sym(&d, "bib"), sym(&d, "book"), sym(&d, "author")])
            .unwrap();
        assert_eq!(g.count(book_author), 2);
        let art_author = g
            .lookup_path(&[sym(&d, "bib"), sym(&d, "article"), sym(&d, "author")])
            .unwrap();
        assert_eq!(g.count(art_author), 1);
    }

    #[test]
    fn lookup_of_absent_path_fails() {
        let d = doc();
        let g = DataGuide::from_document(&d);
        assert!(g
            .lookup_path(&[sym(&d, "bib"), sym(&d, "author")])
            .is_none());
    }

    #[test]
    fn guide_is_small_relative_to_repetitive_documents() {
        let mut xml = String::from("<bib>");
        for i in 0..500 {
            xml.push_str(&format!("<book><title>t{i}</title></book>"));
        }
        xml.push_str("</bib>");
        let d = Document::parse_str(&xml).unwrap();
        let g = DataGuide::from_document(&d);
        assert_eq!(g.node_count(), 4); // root, bib, book, title
        assert_eq!(
            g.count(g.lookup_path(&[sym(&d, "bib"), sym(&d, "book")]).unwrap()),
            500
        );
    }
}
