//! Corpus statistics used by ranking and the experiment harness.

use crate::wire::{corrupt, put_varint, rd_f64, rd_len, rd_varint, StorageError};
use lotusx_xml::{Document, NodeId, NodeKind};

/// Aggregate statistics about one document.
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

impl Stats {
    /// Computes statistics for `doc`.
    pub fn compute(doc: &Document) -> Self {
        let mut stats = Stats::default();
        let mut fanout_sum = 0usize;
        let mut internal = 0usize;
        for node in doc.all_nodes() {
            if node == NodeId::DOCUMENT {
                continue;
            }
            match doc.kind(node) {
                NodeKind::Element { attributes, .. } => {
                    stats.element_count += 1;
                    stats.attribute_count += attributes.len();
                    let depth = doc.depth(node);
                    stats.max_depth = stats.max_depth.max(depth);
                    if stats.depth_histogram.len() <= depth as usize {
                        stats.depth_histogram.resize(depth as usize + 1, 0);
                    }
                    stats.depth_histogram[depth as usize] += 1;
                    let kids = doc.element_children(node).count();
                    if kids > 0 {
                        fanout_sum += kids;
                        internal += 1;
                    }
                }
                NodeKind::Text(_) => stats.text_count += 1,
                _ => {}
            }
        }
        stats.distinct_tags = doc.symbols().len();
        stats.avg_fanout = if internal > 0 {
            fanout_sum as f64 / internal as f64
        } else {
            0.0
        };
        stats
    }

    /// Serializes the statistics for the snapshot `STATS` section.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.element_count as u64);
        put_varint(out, self.text_count as u64);
        put_varint(out, self.attribute_count as u64);
        put_varint(out, self.distinct_tags as u64);
        put_varint(out, u64::from(self.max_depth));
        put_varint(out, self.depth_histogram.len() as u64);
        for &d in &self.depth_histogram {
            put_varint(out, d as u64);
        }
        // f64 as raw bits: bit-exact round-trip, no text formatting drift.
        out.extend_from_slice(&self.avg_fanout.to_bits().to_le_bytes());
    }

    /// Deserializes statistics written by [`encode`](Self::encode).
    pub(crate) fn decode(data: &[u8], pos: &mut usize) -> Result<Stats, StorageError> {
        let element_count = rd_len(data, pos, "stats element count")?;
        let text_count = rd_len(data, pos, "stats text count")?;
        let attribute_count = rd_len(data, pos, "stats attribute count")?;
        let distinct_tags = rd_len(data, pos, "stats distinct tags")?;
        let max_depth = u32::try_from(rd_varint(data, pos, "stats max depth")?)
            .map_err(|_| corrupt("stats max depth"))?;
        let hist_len = rd_len(data, pos, "stats histogram length")?;
        if hist_len > data.len() {
            return Err(corrupt("stats histogram length"));
        }
        let mut depth_histogram = Vec::with_capacity(hist_len);
        for _ in 0..hist_len {
            depth_histogram.push(rd_len(data, pos, "stats histogram bucket")?);
        }
        let avg_fanout = rd_f64(data, pos, "stats avg fanout")?;
        Ok(Stats {
            element_count,
            text_count,
            attribute_count,
            distinct_tags,
            max_depth,
            depth_histogram,
            avg_fanout,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_counts_depths_and_fanout() {
        let doc = Document::parse_str("<a x=\"1\"><b><c>t</c><c>u</c></b><d>v</d></a>").unwrap();
        let s = Stats::compute(&doc);
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
        let doc = Document::parse_str("<only/>").unwrap();
        let s = Stats::compute(&doc);
        assert_eq!(s.element_count, 1);
        assert_eq!(s.max_depth, 1);
        assert_eq!(s.avg_fanout, 0.0);
    }
}
