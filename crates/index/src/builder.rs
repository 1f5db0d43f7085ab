//! One-pass construction of every index over a document.

use crate::columns::TagColumns;
use crate::dataguide::{DataGuide, GuideNodeId};
use crate::stats::Stats;
use crate::trie::Trie;
use crate::value_index::ValueIndex;
use lotusx_labeling::DocumentLabels;
use lotusx_xml::{Document, NodeId, NodeKind, Symbol};

/// A document together with its labels and all indexes — the unit LotusX
/// loads and queries. Each fact is held once: positions as region labels
/// (by node in `labels`, by tag stream in `columns`), nothing else.
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
    pub(crate) labels: DocumentLabels,
    pub(crate) columns: TagColumns,
    pub(crate) values: ValueIndex,
    pub(crate) tag_trie: Trie,
    pub(crate) term_trie: Trie,
    pub(crate) terms: Vec<String>,
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
    /// calling thread: whole-document passes for labels, DataGuide and
    /// statistics; one preorder walk for the element list and the
    /// element→guide-node map; the value postings and the tag columns
    /// from that list; then the two completion tries.
    pub fn build(doc: Document) -> Self {
        let labels = DocumentLabels::compute(&doc);
        let guide = DataGuide::from_document(&doc);
        let stats = Stats::compute(&doc);

        // Each guide-of entry depends on its parent's, which preorder
        // has already filled in.
        let mut guide_of = vec![GuideNodeId::ROOT; doc.node_count()];
        let mut elements = Vec::with_capacity(stats.element_count);
        let mut values = ValueIndex::new();
        for node in doc.all_nodes() {
            let NodeKind::Element { name, attributes } = doc.kind(node) else {
                continue;
            };
            let parent_guide = doc
                .parent(node)
                .map(|p| guide_of[p.index()])
                .unwrap_or(GuideNodeId::ROOT);
            guide_of[node.index()] = guide
                .child_by_tag(parent_guide, name)
                .expect("guide derived from the same document");
            elements.push(node);
            let attrs: Vec<&str> = attributes.into_iter().map(|(_, v)| v).collect();
            values.index_element(node, &doc.direct_text(node), &attrs);
        }
        values.finish();

        let columns = TagColumns::build(&doc, &labels, &elements);

        // Tag trie: element tags only, weighted by occurrence count.
        let mut tag_trie = Trie::new();
        for (sym, name) in doc.symbols().iter() {
            let freq = columns.view(sym).len();
            if freq > 0 {
                tag_trie.insert(name, sym.index() as u32, freq as u64);
            }
        }
        // Term trie: payload is an id into `terms`, weighted by document
        // frequency.
        let mut terms: Vec<String> = values.terms().map(|(t, _)| t.to_string()).collect();
        terms.sort();
        let mut term_trie = Trie::new();
        for (i, term) in terms.iter().enumerate() {
            term_trie.insert(term, i as u32, values.df(term) as u64);
        }

        IndexedDocument {
            doc,
            labels,
            columns,
            values,
            tag_trie,
            term_trie,
            terms,
            guide,
            guide_of,
            stats,
        }
    }

    /// The underlying document.
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The region label of every node.
    pub fn labels(&self) -> &DocumentLabels {
        &self.labels
    }

    /// The per-tag element streams, in columnar (struct-of-arrays) form.
    pub fn columns(&self) -> &TagColumns {
        &self.columns
    }

    /// The content index.
    pub fn values(&self) -> &ValueIndex {
        &self.values
    }

    /// The tag-name completion trie (payload = `Symbol` index).
    pub fn tag_trie(&self) -> &Trie {
        &self.tag_trie
    }

    /// The content-term completion trie (payload = index into [`Self::term`]).
    pub fn term_trie(&self) -> &Trie {
        &self.term_trie
    }

    /// Resolves a term-trie payload to the term string.
    pub fn term(&self, id: u32) -> &str {
        &self.terms[id as usize]
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

    /// Approximate total index size in bytes (labels + all indexes),
    /// excluding the document tree itself. Reported by experiment E1.
    pub fn index_size_bytes(&self) -> usize {
        self.labels.size_bytes()
            + self.columns.size_bytes()
            + self.values.size_bytes()
            + self.tag_trie.size_bytes()
            + self.term_trie.size_bytes()
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
        let starts = idx.columns().view(title).starts();
        assert_eq!(starts.len(), 3);
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn value_index_sees_text_and_attributes() {
        let idx = idx();
        assert_eq!(idx.values().df("xml"), 1);
        assert_eq!(idx.values().df("1999"), 1, "attribute value indexed");
        assert_eq!(idx.values().exact_matches("twigstack").len(), 1);
    }

    #[test]
    fn tag_trie_completes_by_frequency() {
        let idx = idx();
        let completions = idx.tag_trie().complete("", 10);
        // book and title appear; heaviest first.
        assert_eq!(completions[0].weight, 3); // title ×3
        let keys: Vec<&str> = completions.iter().map(|c| c.key.as_str()).collect();
        assert!(keys.contains(&"book"));
        assert!(keys.contains(&"article"));
        assert!(!keys.contains(&"year"), "attribute names are not tags");
    }

    #[test]
    fn term_trie_payloads_resolve() {
        let idx = idx();
        let completions = idx.term_trie().complete("twig", 5);
        assert_eq!(completions.len(), 1);
        assert_eq!(idx.term(completions[0].payload), "twigstack");
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
        assert_eq!(
            idx.stats().element_count,
            idx.columns().all_elements().len()
        );
        assert!(idx.index_size_bytes() > 0);
    }
}
