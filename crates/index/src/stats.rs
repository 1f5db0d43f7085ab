//! Corpus statistics used by ranking, the experiment harness, and the
//! adaptive join-algorithm chooser.

use crate::columns::TagColumns;
use crate::dataguide::{DataGuide, GuideNodeId};
use crate::wire::{corrupt, put_varint, rd_f64, rd_len, rd_varint, StorageError};
use lotusx_xml::{Document, NodeId, Symbol};
use std::collections::HashMap;

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
                lotusx_xml::NodeKind::Element { attributes, .. } => {
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
                lotusx_xml::NodeKind::Text(_) => stats.text_count += 1,
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

/// Selectivity statistics the adaptive algorithm chooser prices join
/// plans with: per-tag stream frequencies plus ancestor/descendant pair
/// estimates derived from the strong DataGuide.
///
/// The DataGuide collapses every distinct root-to-node tag path into one
/// summary node carrying an exact occurrence count, so "how many `d`
/// elements sit below an `a` ancestor" is answerable by summing the
/// counts of `d`-tagged guide nodes whose summary ancestor chain contains
/// an `a` — exact for structure-only edges (value predicates are invisible
/// here), and O(guide depth) per probed guide node, independent of
/// document size.
#[derive(Clone, Debug, Default)]
pub struct JoinStats {
    /// Per-tag element stream length; index = symbol index.
    tag_freq: Vec<u64>,
    /// Total number of element nodes.
    element_count: u64,
    /// Per-tag total number of direct element children under elements of
    /// the tag (the cost of one child-axis scan from every instance).
    children_total: Vec<u64>,
    /// Per-tag total subtree size under elements of the tag, counting an
    /// element once per enclosing instance (the cost of one
    /// descendant-axis rescan from every instance; recursion multiplies).
    subtree_weight: Vec<u64>,
    /// Precomputed `(anc, desc)` pair aggregates, built in one guide walk
    /// so chooser probes are O(1) instead of re-walking ancestor chains.
    pair_table: HashMap<(Symbol, Symbol), PairCounts>,
}

/// Aggregated containment counts for one `(anc, desc)` tag pair.
#[derive(Clone, Copy, Debug, Default)]
struct PairCounts {
    /// Descendants whose direct parent carries the ancestor tag.
    child: u64,
    /// Distinct descendants with at least one such ancestor.
    descendant: u64,
    /// Containment pairs with multiplicity (one per enclosing ancestor).
    multiplicity: u64,
}

impl JoinStats {
    /// Derives join statistics from the tag columns and DataGuide.
    pub fn compute(columns: &TagColumns, guide: &DataGuide, tag_count: usize) -> Self {
        let mut stats = JoinStats {
            tag_freq: (0..tag_count)
                .map(|t| columns.view(Symbol::from_index(t)).len() as u64)
                .collect(),
            element_count: columns.all_elements().len() as u64,
            children_total: vec![0; tag_count],
            subtree_weight: vec![0; tag_count],
            pair_table: HashMap::new(),
        };
        let n = guide.node_count();
        let mut parent = Vec::with_capacity(n);
        let mut tag = Vec::with_capacity(n);
        let mut count = Vec::with_capacity(n);
        for i in 0..n {
            let id = GuideNodeId::from_index(i);
            parent.push(guide.parent(id));
            tag.push(guide.tag(id));
            count.push(guide.count(id));
        }
        // One walk up every guide node's summary-ancestor chain feeds all
        // aggregates: children_total / subtree_weight for navigation
        // costs, and the (anc, desc) pair table for join selectivities.
        // Doing this once at build time keeps per-query chooser probes
        // O(1); re-walking chains per probe costs tens of microseconds on
        // deep recursive guides, which would dwarf the joins it prices.
        let mut seen: Vec<Symbol> = Vec::new();
        for g in 0..n {
            let Some(d) = tag[g] else { continue };
            let c = count[g];
            if let Some(p) = parent[g] {
                if let Some(t) = tag[p.index()] {
                    stats.children_total[t.index()] += c;
                    stats.pair_table.entry((t, d)).or_default().child += c;
                }
            }
            seen.clear();
            let mut cur = parent[g];
            while let Some(a) = cur {
                if let Some(t) = tag[a.index()] {
                    stats.subtree_weight[t.index()] += c;
                    let entry = stats.pair_table.entry((t, d)).or_default();
                    entry.multiplicity += c;
                    if !seen.contains(&t) {
                        seen.push(t);
                        entry.descendant += c;
                    }
                }
                cur = parent[a.index()];
            }
        }
        stats
    }

    /// Serializes the join statistics for the snapshot `STATS` section.
    /// The pair table is emitted sorted by `(anc, desc)` symbol index so
    /// the encoding is deterministic regardless of hash-map order.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.tag_freq.len() as u64);
        for &f in &self.tag_freq {
            put_varint(out, f);
        }
        put_varint(out, self.element_count);
        for &c in &self.children_total {
            put_varint(out, c);
        }
        for &w in &self.subtree_weight {
            put_varint(out, w);
        }
        let mut pairs: Vec<(&(Symbol, Symbol), &PairCounts)> = self.pair_table.iter().collect();
        pairs.sort_by_key(|((a, d), _)| (a.index(), d.index()));
        put_varint(out, pairs.len() as u64);
        for ((anc, desc), counts) in pairs {
            put_varint(out, anc.index() as u64);
            put_varint(out, desc.index() as u64);
            put_varint(out, counts.child);
            put_varint(out, counts.descendant);
            put_varint(out, counts.multiplicity);
        }
    }

    /// Deserializes join statistics written by [`encode`](Self::encode).
    /// `tag_count` is the document's symbol count; the per-tag vectors
    /// must match it and every pair symbol must fall inside it.
    pub(crate) fn decode(
        data: &[u8],
        pos: &mut usize,
        tag_count: usize,
    ) -> Result<JoinStats, StorageError> {
        let n = rd_len(data, pos, "join-stats tag count")?;
        if n != tag_count {
            return Err(corrupt("join-stats tag count mismatch"));
        }
        let read_per_tag = |pos: &mut usize, what| -> Result<Vec<u64>, StorageError> {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(rd_varint(data, pos, what)?);
            }
            Ok(v)
        };
        let tag_freq = read_per_tag(pos, "join-stats tag frequency")?;
        let element_count = rd_varint(data, pos, "join-stats element count")?;
        let children_total = read_per_tag(pos, "join-stats children total")?;
        let subtree_weight = read_per_tag(pos, "join-stats subtree weight")?;
        let pair_count = rd_len(data, pos, "join-stats pair count")?;
        if pair_count > data.len() {
            return Err(corrupt("join-stats pair count"));
        }
        let mut pair_table = HashMap::with_capacity(pair_count);
        for _ in 0..pair_count {
            let anc = rd_len(data, pos, "join-stats pair ancestor")?;
            let desc = rd_len(data, pos, "join-stats pair descendant")?;
            if anc >= tag_count || desc >= tag_count {
                return Err(corrupt("join-stats pair symbol out of range"));
            }
            let child = rd_varint(data, pos, "join-stats pair child count")?;
            let descendant = rd_varint(data, pos, "join-stats pair descendant count")?;
            let multiplicity = rd_varint(data, pos, "join-stats pair multiplicity")?;
            pair_table.insert(
                (Symbol::from_index(anc), Symbol::from_index(desc)),
                PairCounts {
                    child,
                    descendant,
                    multiplicity,
                },
            );
        }
        Ok(JoinStats {
            tag_freq,
            element_count,
            children_total,
            subtree_weight,
            pair_table,
        })
    }

    /// Stream length of `tag` (0 for unseen symbols).
    pub fn tag_frequency(&self, tag: Symbol) -> u64 {
        self.tag_freq.get(tag.index()).copied().unwrap_or(0)
    }

    /// Total number of element nodes (the wildcard "stream" length).
    pub fn element_count(&self) -> u64 {
        self.element_count
    }

    /// Total direct element children under all elements of `tag` — what a
    /// navigational child-axis step from every instance scans.
    pub fn children_total(&self, tag: Symbol) -> u64 {
        self.children_total.get(tag.index()).copied().unwrap_or(0)
    }

    /// Total subtree size under all elements of `tag`, counting elements
    /// once per enclosing instance — what a navigational descendant-axis
    /// rescan from every instance visits (recursion multiplies).
    pub fn subtree_weight(&self, tag: Symbol) -> u64 {
        self.subtree_weight.get(tag.index()).copied().unwrap_or(0)
    }

    /// Exact number of `desc`-tagged elements with an `anc`-tagged proper
    /// ancestor (the output size of the A-D structural join's descendant
    /// side, ignoring value predicates).
    pub fn descendant_pairs(&self, anc: Symbol, desc: Symbol) -> u64 {
        self.pair(anc, desc).descendant
    }

    /// Exact number of `child`-tagged elements whose parent is tagged
    /// `parent` (the P-C analogue of [`Self::descendant_pairs`]).
    pub fn child_pairs(&self, parent: Symbol, child: Symbol) -> u64 {
        self.pair(parent, child).child
    }

    /// Exact number of `(anc, desc)` containment pairs counting
    /// multiplicity: a descendant nested under `k` `anc`-tagged ancestors
    /// contributes `k`. This is the true output cardinality of the binary
    /// stack-tree join, which exceeds [`Self::descendant_pairs`] on
    /// recursive data.
    pub fn descendant_pair_multiplicity(&self, anc: Symbol, desc: Symbol) -> u64 {
        self.pair(anc, desc).multiplicity
    }

    fn pair(&self, anc: Symbol, desc: Symbol) -> PairCounts {
        self.pair_table
            .get(&(anc, desc))
            .copied()
            .unwrap_or_default()
    }

    /// Fraction of the `desc` stream that survives the `anc//desc` (or
    /// `anc/desc` when `direct` is set) edge — in `[0, 1]`, and `0.0`
    /// when `desc` never occurs.
    pub fn edge_selectivity(&self, anc: Symbol, desc: Symbol, direct: bool) -> f64 {
        let freq = self.tag_frequency(desc);
        if freq == 0 {
            return 0.0;
        }
        let pairs = if direct {
            self.child_pairs(anc, desc)
        } else {
            self.descendant_pairs(anc, desc)
        };
        pairs as f64 / freq as f64
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

    #[test]
    fn join_stats_pair_estimates_are_exact() {
        let idx = crate::IndexedDocument::from_str(
            "<bib>\
               <book><title>a</title><author>x</author></book>\
               <book><title>b</title></book>\
               <article><title>c</title><info><title>d</title></info></article>\
             </bib>",
        )
        .unwrap();
        let sym = |name: &str| idx.document().symbols().get(name).unwrap();
        let js = idx.join_stats();
        assert_eq!(js.tag_frequency(sym("book")), 2);
        assert_eq!(js.tag_frequency(sym("title")), 4);
        assert_eq!(js.element_count(), idx.stats().element_count as u64);
        // Titles below book (2), article (2 — one nested under info), bib (4).
        assert_eq!(js.descendant_pairs(sym("book"), sym("title")), 2);
        assert_eq!(js.descendant_pairs(sym("article"), sym("title")), 2);
        assert_eq!(js.descendant_pairs(sym("bib"), sym("title")), 4);
        // Direct children only: the nested title is not article/title.
        assert_eq!(js.child_pairs(sym("article"), sym("title")), 1);
        assert_eq!(js.child_pairs(sym("book"), sym("title")), 2);
        // Selectivities follow the counts.
        assert!((js.edge_selectivity(sym("book"), sym("title"), false) - 0.5).abs() < 1e-9);
        // Symbols the document never saw have empty streams.
        let unseen = Symbol::from_index(999);
        assert_eq!(js.tag_frequency(unseen), 0);
        assert_eq!(js.edge_selectivity(sym("book"), unseen, false), 0.0);
    }

    #[test]
    fn join_stats_handle_recursive_tags() {
        let idx = crate::IndexedDocument::from_str("<s><s><t>1</t><s><t>2</t></s></s><t>3</t></s>")
            .unwrap();
        let sym = |name: &str| idx.document().symbols().get(name).unwrap();
        let js = idx.join_stats();
        // Every t has an s ancestor; two s's have an s ancestor.
        assert_eq!(js.descendant_pairs(sym("s"), sym("t")), 3);
        assert_eq!(js.descendant_pairs(sym("s"), sym("s")), 2);
        assert_eq!(js.child_pairs(sym("s"), sym("t")), 3);
    }

    #[test]
    fn navigation_cost_aggregates_count_multiplicity() {
        let idx = crate::IndexedDocument::from_str(
            "<bib>\
               <book><title>a</title><author>x</author></book>\
               <book><title>b</title></book>\
             </bib>",
        )
        .unwrap();
        let sym = |name: &str| idx.document().symbols().get(name).unwrap();
        let js = idx.join_stats();
        // bib has 2 direct children; the 2 books have 3 children total.
        assert_eq!(js.children_total(sym("bib")), 2);
        assert_eq!(js.children_total(sym("book")), 3);
        assert_eq!(js.children_total(sym("title")), 0);
        // Subtree under bib = all 5 non-root elements; under books = 3.
        assert_eq!(js.subtree_weight(sym("bib")), 5);
        assert_eq!(js.subtree_weight(sym("book")), 3);
        // Unseen tags navigate nothing.
        assert_eq!(js.children_total(Symbol::from_index(999)), 0);
        assert_eq!(js.subtree_weight(Symbol::from_index(999)), 0);

        // Recursive nesting counts once per enclosing instance: the
        // innermost t sits under three s ancestors.
        let idx = crate::IndexedDocument::from_str("<s><s><s><t>x</t></s></s></s>").unwrap();
        let sym = |name: &str| idx.document().symbols().get(name).unwrap();
        let js = idx.join_stats();
        // Subtrees: outer s → {s, s, t}=3, middle → {s, t}=2, inner → {t}=1.
        assert_eq!(js.subtree_weight(sym("s")), 6);
        assert_eq!(js.children_total(sym("s")), 3);
    }
}
