//! One-pass assignment of region labels over a document.

use crate::region::RegionLabel;
use lotusx_xml::{Document, NodeId};

/// The region label of every node of one document, indexed by [`NodeId`].
///
/// ```
/// use lotusx_xml::Document;
/// use lotusx_labeling::DocumentLabels;
///
/// let doc = Document::parse_str("<a><b/><c/></a>").unwrap();
/// let labels = DocumentLabels::compute(&doc);
/// let a = doc.root_element().unwrap();
/// let b = doc.element_children(a).next().unwrap();
/// assert!(labels.region(a).is_parent_of(&labels.region(b)));
/// ```
#[derive(Clone, Debug)]
pub struct DocumentLabels {
    region: Vec<RegionLabel>,
}

impl DocumentLabels {
    /// Computes the region label of every node of `doc` — non-element
    /// nodes included, which matters for ordered semantics over mixed
    /// content — in one enter/exit DFS.
    pub fn compute(doc: &Document) -> Self {
        let mut region = vec![RegionLabel::new(0, 1, 0); doc.node_count()];
        let mut counter: u32 = 0;
        #[derive(Clone, Copy)]
        enum Step {
            Enter(NodeId, u16),
            Exit(NodeId),
        }
        let mut stack = vec![Step::Enter(NodeId::DOCUMENT, 0)];
        while let Some(step) = stack.pop() {
            counter += 1;
            match step {
                Step::Enter(node, level) => {
                    // The end is a placeholder until the matching exit.
                    region[node.index()] = RegionLabel::new(counter, counter + 1, level);
                    stack.push(Step::Exit(node));
                    // Reversed, so children pop in document order.
                    let first_child = stack.len();
                    stack.extend(doc.children(node).map(|c| Step::Enter(c, level + 1)));
                    stack[first_child..].reverse();
                }
                Step::Exit(node) => region[node.index()].end = counter,
            }
        }
        DocumentLabels { region }
    }

    /// The region label of `id`.
    pub fn region(&self, id: NodeId) -> RegionLabel {
        self.region[id.index()]
    }

    /// True if `a` is a proper ancestor of `d`.
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        self.region(a).is_ancestor_of(&self.region(d))
    }

    /// True if `a` is the parent of `d`.
    pub fn is_parent(&self, a: NodeId, d: NodeId) -> bool {
        self.region(a).is_parent_of(&self.region(d))
    }

    /// True if `a` occurs strictly before `b` in document order.
    pub fn doc_order_before(&self, a: NodeId, b: NodeId) -> bool {
        self.region(a).doc_order_before(&self.region(b))
    }

    /// Approximate heap size of the label store in bytes (for Table 1).
    pub fn size_bytes(&self) -> usize {
        self.region.len() * std::mem::size_of::<RegionLabel>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotusx_xml::Document;

    fn doc() -> Document {
        Document::parse_str(
            "<bib><book><title>t</title><author>x</author></book><book><title>u</title></book></bib>",
        )
        .unwrap()
    }

    fn elements(doc: &Document) -> Vec<NodeId> {
        doc.all_nodes().filter(|&n| doc.is_element(n)).collect()
    }

    #[test]
    fn region_labels_agree_with_tree_relationships() {
        let d = doc();
        let labels = DocumentLabels::compute(&d);
        let elems = elements(&d);
        for &a in &elems {
            for &b in &elems {
                if a == b {
                    continue;
                }
                let tree_anc = d.ancestors(b).any(|x| x == a);
                assert_eq!(
                    labels.is_ancestor(a, b),
                    tree_anc,
                    "region ancestor mismatch {a:?} {b:?}"
                );
                let tree_parent = d.parent(b) == Some(a);
                assert_eq!(labels.is_parent(a, b), tree_parent);
            }
        }
    }

    #[test]
    fn document_order_matches_preorder_ids() {
        let d = doc();
        let labels = DocumentLabels::compute(&d);
        let elems = elements(&d);
        for w in elems.windows(2) {
            assert!(labels.doc_order_before(w[0], w[1]));
        }
    }

    #[test]
    fn levels_match_depths() {
        let d = doc();
        let labels = DocumentLabels::compute(&d);
        for n in elements(&d) {
            assert_eq!(labels.region(n).level as u32, d.depth(n));
        }
    }

    #[test]
    fn size_accounting_is_positive() {
        let d = doc();
        let labels = DocumentLabels::compute(&d);
        assert!(labels.size_bytes() > 0);
    }

    #[test]
    fn text_nodes_get_region_labels_inside_their_parent() {
        let d = doc();
        let labels = DocumentLabels::compute(&d);
        let bib = d.root_element().unwrap();
        let book = d.element_children(bib).next().unwrap();
        let title = d.element_children(book).next().unwrap();
        let text = d.first_child(title).unwrap();
        assert!(labels.region(title).is_parent_of(&labels.region(text)));
    }
}
