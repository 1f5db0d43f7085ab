//! One-pass construction of every index over a document.

use crate::columns::TagColumns;
use crate::dataguide::{DataGuide, GuideBuilder, GuideNodeId};
use crate::stats::Stats;
use crate::term_counts::TermCounts;
use crate::value_index::{ValueIndex, ValueIndexBuilder};
use lotusx_labeling::RegionLabel;
use lotusx_xml::{Document, NodeId, NodeKind, Symbol};

/// A document together with all its indexes — the unit LotusX loads and
/// queries. Each fact is held once: node ids are the preorder, so an
/// element's region label is arithmetic on its id, its subtree end (the
/// document's) and its level (its guide node's depth), and stored
/// nowhere ([`region`](Self::region)).
///
/// ```
/// use lotusx_index::IndexedDocument;
///
/// let idx = IndexedDocument::from_str("<bib><book><title>XML</title></book></bib>").unwrap();
/// let title = idx.document().symbols().get("title").unwrap();
/// assert_eq!(idx.columns().view(title).len(), 1);
/// assert_eq!(idx.values().df("xml"), 1);
/// ```
#[derive(Clone, Debug)]
pub struct IndexedDocument {
    pub(crate) doc: Document,
    pub(crate) columns: TagColumns,
    pub(crate) values: ValueIndex,
    pub(crate) term_counts: TermCounts,
    pub(crate) guide: DataGuide,
    pub(crate) guide_of: Vec<GuideNodeId>,
    pub(crate) stats: Stats,
}

impl IndexedDocument {
    /// Parses `xml` and builds all indexes.
    ///
    /// Named like (but deliberately not implementing) `FromStr`: the
    /// error type is crate-specific and callers always use it directly.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(xml: &str) -> lotusx_xml::Result<Self> {
        Ok(Self::build(Document::parse_str(xml)?))
    }

    /// Builds all indexes over an already-parsed document, on the
    /// calling thread: one preorder walk for the value postings and the
    /// term counts, then the derivation a snapshot load ends in too —
    /// the DataGuide, the statistics and the tag streams.
    pub fn build(doc: Document) -> Self {
        let mut values = ValueIndexBuilder::default();
        // The kind byte first: `kind` would slice a text node's
        // characters only for the walk to discard them.
        for node in doc.all_nodes().filter(|&n| doc.is_element(n)) {
            let NodeKind::Element { name, attributes } = doc.kind(node) else {
                continue;
            };
            let attrs = attributes.into_iter().map(|(_, v)| v);
            values.add_element(node, name, doc.direct_text(node), attrs);
        }
        let (values, term_counts) = values.finish(doc.symbols().len());
        Self::assemble(doc, values, term_counts)
    }

    /// Completes an index from its document and content indexes by
    /// deriving everything the tree alone determines: the DataGuide,
    /// each node's guide node, the statistics and the tag streams. A
    /// fresh build and a snapshot load both end here, so the two boot
    /// paths hold the same structure by construction.
    ///
    /// One depth-first walk over the elements builds the guide, the
    /// node → guide-node map, the per-tag element counts and the
    /// statistics (the depth histogram is read off the guide: an
    /// element's depth is its guide node's); then one pass over the node
    /// ids writes every element straight into its tag stream
    /// ([`TagColumns::build`]).
    pub(crate) fn assemble(doc: Document, values: ValueIndex, term_counts: TermCounts) -> Self {
        let mut guide = GuideBuilder::new();
        let mut guide_of = vec![GuideNodeId::ROOT; doc.node_count()];
        let mut lens = vec![0u32; doc.symbols().len()];
        let mut stats = Stats {
            distinct_tags: doc.symbols().len(),
            ..Stats::default()
        };
        let (mut fanout_sum, mut internal) = (0usize, 0usize);
        // Children are numbered in document order under the node popped
        // last-pushed-first: the guide's numbering, which its
        // parent-before-child sweeps and the completion ranking read.
        let mut stack = vec![(NodeId::DOCUMENT, GuideNodeId::ROOT)];
        while let Some((node, g)) = stack.pop() {
            let mut kids = 0usize;
            let mut cursor = doc.first_child(node);
            while let Some(child) = cursor {
                // A text node is told by its kind byte alone: its
                // characters stay unread.
                if doc.is_text(child) {
                    stats.text_count += 1;
                } else if let NodeKind::Element { name, attributes } = doc.kind(child) {
                    let gc = guide.count_child(g, name);
                    guide_of[child.index()] = gc;
                    lens[name.index()] += 1;
                    stats.attribute_count += attributes.len();
                    kids += 1;
                    stack.push((child, gc));
                }
                cursor = doc.next_sibling(child);
            }
            if node != NodeId::DOCUMENT && kids > 0 {
                fanout_sum += kids;
                internal += 1;
            }
        }
        let guide = guide.finish();
        // An element's depth is its guide node's.
        for g in (1..guide.node_count()).map(GuideNodeId::from_index) {
            let depth = usize::from(guide.depth(g));
            if stats.depth_histogram.len() <= depth {
                stats.depth_histogram.resize(depth + 1, 0);
            }
            stats.depth_histogram[depth] += guide.count(g) as usize;
        }
        stats.element_count = lens.iter().map(|&len| len as usize).sum();
        stats.max_depth = stats.depth_histogram.len().saturating_sub(1) as u32;
        stats.avg_fanout = if internal > 0 {
            fanout_sum as f64 / internal as f64
        } else {
            0.0
        };

        let columns = TagColumns::build(&doc, &lens);

        IndexedDocument {
            doc,
            columns,
            values,
            term_counts,
            guide,
            guide_of,
            stats,
        }
    }

    /// The underlying document.
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The region label of element `node`: the enter/exit numbering
    /// `DocumentLabels` assigns, as arithmetic. Before an element's
    /// enter come the enters of the `id` nodes before it and the exits
    /// of all of those but its `level` ancestors (the document
    /// included); before its exit come the enters up to its subtree end
    /// `e` and the exits of everything up to `e` that is not its proper
    /// ancestor. So `start = 2·id − level + 1` and
    /// `end = 2·e − level + 2`. Meaningful for elements only.
    pub fn region(&self, node: NodeId) -> RegionLabel {
        let level = self.level(node);
        let end = 2 * self.doc.subtree_end(node).index() as u32 - u32::from(level) + 2;
        RegionLabel::new(self.start(node), end, level)
    }

    /// The region start of element `node`: `2·id − level + 1`.
    pub fn start(&self, node: NodeId) -> u32 {
        2 * node.index() as u32 - u32::from(self.level(node)) + 1
    }

    /// The level (depth) of element `node`: its guide node's depth, the
    /// root element's 1. Meaningful for elements only.
    pub fn level(&self, node: NodeId) -> u16 {
        self.guide.depth(self.guide_of[node.index()])
    }

    /// The per-tag element streams, in columnar (struct-of-arrays) form.
    pub fn columns(&self) -> &TagColumns {
        &self.columns
    }

    /// The content index.
    pub fn values(&self) -> &ValueIndex {
        &self.values
    }

    /// The per-tag and document-wide term counts value completion reads.
    pub fn term_counts(&self) -> &TermCounts {
        &self.term_counts
    }

    /// The DataGuide structural summary.
    pub fn guide(&self) -> &DataGuide {
        &self.guide
    }

    /// The guide node of a document element.
    pub fn guide_node(&self, id: NodeId) -> GuideNodeId {
        self.guide_of[id.index()]
    }

    /// Corpus statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Resolves a tag symbol to its name.
    pub fn tag_name(&self, sym: Symbol) -> &str {
        self.doc.symbols().resolve(sym)
    }

    /// Approximate total index size in bytes, excluding the document
    /// tree itself. Reported by experiment E1.
    pub fn index_size_bytes(&self) -> usize {
        self.columns.size_bytes()
            + self.values.size_bytes()
            + self.term_counts.size_bytes()
            + self.guide.size_bytes()
            + self.guide_of.len() * std::mem::size_of::<GuideNodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book year=\"1999\"><title>Data on the Web</title><author>Abiteboul</author></book>\
               <book year=\"2003\"><title>XML Handbook</title><author>Goldfarb</author></book>\
               <article><title>TwigStack</title></article>\
             </bib>",
        )
        .unwrap()
    }

    #[test]
    fn tag_streams_are_document_ordered() {
        let idx = idx();
        let title = idx.document().symbols().get("title").unwrap();
        let nodes = idx.columns().view(title).nodes();
        assert_eq!(nodes.len(), 3);
        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
    }

    /// The arithmetic regions equal the enter/exit numbering.
    #[test]
    fn regions_are_the_labeling() {
        let idx = idx();
        let labels = lotusx_labeling::DocumentLabels::compute(idx.document());
        for node in idx.document().all_nodes() {
            if idx.document().is_element(node) {
                assert_eq!(idx.region(node), labels.region(node), "{node:?}");
                assert_eq!(idx.start(node), labels.region(node).start);
            }
        }
    }

    #[test]
    fn value_index_sees_text_and_attributes() {
        let idx = idx();
        assert_eq!(idx.values().df("xml"), 1);
        assert_eq!(idx.values().df("1999"), 1, "attribute value indexed");
        assert_eq!(
            idx.values()
                .exact_matches(idx.document(), "twigstack")
                .len(),
            1
        );
    }

    #[test]
    fn guide_node_mapping_matches_paths() {
        let idx = idx();
        let doc = idx.document();
        for node in doc.all_nodes() {
            if !doc.is_element(node) {
                continue;
            }
            let gnode = idx.guide_node(node);
            let expected = idx.guide().lookup_path(&doc.tag_path(node)).unwrap();
            assert_eq!(gnode, expected);
        }
    }

    #[test]
    fn stats_and_sizes_are_consistent() {
        let idx = idx();
        let symbols = idx.document().symbols();
        let streamed: usize = symbols
            .iter()
            .map(|(s, _)| idx.columns().view(s).len())
            .sum();
        assert_eq!(idx.stats().element_count, streamed);
        assert!(idx.index_size_bytes() > 0);
    }
}
