//! Corpus statistics used by ranking and the experiment harness.

/// Aggregate statistics about one document, derived with its DataGuide
/// (`IndexedDocument::stats`) at build and at load alike.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Number of element nodes.
    pub element_count: usize,
    /// Number of text nodes.
    pub text_count: usize,
    /// Number of attributes across all elements.
    pub attribute_count: usize,
    /// Number of distinct tags.
    pub distinct_tags: usize,
    /// Maximum element depth (root element = 1).
    pub max_depth: u32,
    /// Histogram of element depths; index = depth.
    pub depth_histogram: Vec<usize>,
    /// Average number of element children per non-leaf element.
    pub avg_fanout: f64,
}

#[cfg(test)]
mod tests {
    use crate::IndexedDocument;

    #[test]
    fn computes_counts_depths_and_fanout() {
        let idx =
            IndexedDocument::from_str("<a x=\"1\"><b><c>t</c><c>u</c></b><d>v</d></a>").unwrap();
        let s = idx.stats();
        assert_eq!(s.element_count, 5);
        assert_eq!(s.text_count, 3);
        assert_eq!(s.attribute_count, 1);
        assert_eq!(s.max_depth, 3);
        assert_eq!(s.depth_histogram[1], 1);
        assert_eq!(s.depth_histogram[2], 2);
        assert_eq!(s.depth_histogram[3], 2);
        // Internal nodes: a (2 children), b (2 children) → avg 2.
        assert!((s.avg_fanout - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_element_document() {
        let idx = IndexedDocument::from_str("<only/>").unwrap();
        let s = idx.stats();
        assert_eq!(s.element_count, 1);
        assert_eq!(s.max_depth, 1);
        assert_eq!(s.avg_fanout, 0.0);
    }
}
