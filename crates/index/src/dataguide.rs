//! Strong DataGuide structural summary (Goldman & Widom, VLDB 1997).
//!
//! Every distinct root-to-node *tag path* of the document becomes exactly
//! one guide node, annotated with the number of document elements sharing
//! that path. The guide is typically minuscule compared to the document
//! (hundreds of nodes for millions of elements), which makes it the perfect
//! oracle for LotusX's two position-aware questions:
//!
//! 1. *auto-completion*: "which tags can occur at this position of the
//!    partial twig?" — answered by walking the guide instead of the data;
//! 2. *rewriting*: "can this twig match anything at all?" — a twig is
//!    structurally satisfiable iff it matches the guide tree.

use crate::wire::{corrupt, put_varint, rd_len, rd_varint, StorageError};
use lotusx_xml::{Document, NodeId, Symbol};
use std::collections::HashMap;

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

    /// All guide nodes in the subtree of `id`, including `id`.
    pub fn descendants_or_self(&self, id: GuideNodeId) -> Vec<GuideNodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            for &(_, c) in self.children(n) {
                stack.push(c);
            }
        }
        out
    }

    /// The guide node for an exact root-to-node tag path, if present.
    pub fn lookup_path(&self, path: &[Symbol]) -> Option<GuideNodeId> {
        let mut cur = GuideNodeId::ROOT;
        for &tag in path {
            cur = self.child_by_tag(cur, tag)?;
        }
        Some(cur)
    }

    /// Distinct tags of children of `id` together with how many document
    /// elements each corresponds to (sorted by count descending).
    pub fn child_tag_counts(&self, id: GuideNodeId) -> Vec<(Symbol, u64)> {
        let mut out: Vec<(Symbol, u64)> = self
            .children(id)
            .iter()
            .map(|&(tag, c)| (tag, self.count(c)))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Distinct tags occurring anywhere strictly below `id`, with their
    /// total element counts (sorted by count descending).
    pub fn descendant_tag_counts(&self, id: GuideNodeId) -> Vec<(Symbol, u64)> {
        let mut acc: HashMap<Symbol, u64> = HashMap::new();
        for n in self.descendants_or_self(id) {
            if n == id {
                continue;
            }
            if let Some(tag) = self.tag(n) {
                *acc.entry(tag).or_insert(0) += self.count(n);
            }
        }
        let mut out: Vec<(Symbol, u64)> = acc.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
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
    /// children are written in their stored order — the rewriter's
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
    /// parent), the root has neither tag nor parent, every other node has
    /// both, and all symbols fall below `tag_count`.
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
        let mut nodes = Vec::with_capacity(node_count);
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
            nodes.push(GuideNode {
                tag,
                parent,
                children,
                count,
                depth,
            });
        }
        let mut guide = DataGuide {
            nodes,
            specificity: Vec::new(),
        };
        guide.derive_specificity();
        Ok(guide)
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
    fn child_tags_sorted_by_count() {
        let d = doc();
        let g = DataGuide::from_document(&d);
        let bib = g.lookup_path(&[sym(&d, "bib")]).unwrap();
        let children = g.child_tag_counts(bib);
        let names: Vec<(&str, u64)> = children
            .iter()
            .map(|(s, c)| (d.symbols().resolve(*s), *c))
            .collect();
        assert_eq!(names, vec![("book", 2), ("article", 1)]);
    }

    #[test]
    fn descendant_tags_aggregate_across_paths() {
        let d = doc();
        let g = DataGuide::from_document(&d);
        let bib = g.lookup_path(&[sym(&d, "bib")]).unwrap();
        let descendants = g.descendant_tag_counts(bib);
        let map: std::collections::HashMap<&str, u64> = descendants
            .iter()
            .map(|(s, c)| (d.symbols().resolve(*s), *c))
            .collect();
        assert_eq!(map["title"], 3);
        assert_eq!(map["author"], 3);
        assert_eq!(map["book"], 2);
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
