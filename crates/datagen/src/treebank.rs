//! TreeBank-like generator: deep recursive parse trees.
//!
//! Mimics the Penn TreeBank XML conversion used in the twig-join papers:
//! sentences are deeply nested grammatical constituents (S, NP, VP, PP, …)
//! with heavy same-tag recursion — the workload where navigational
//! matching degrades and ancestor-descendant twigs produce many nested
//! matches.

use crate::rng::XorShiftRng;
use crate::words::{Zipf, WORDS};
use lotusx_xml::{Document, NodeId};

/// Sentences generated per unit of scale.
pub const SENTENCES_PER_SCALE: u32 = 220;

/// Maximum constituent nesting depth below a sentence.
pub const MAX_DEPTH: u32 = 11;

const PHRASES: [&str; 6] = ["np", "vp", "pp", "sbar", "adjp", "advp"];
const TERMINALS: [&str; 8] = ["nn", "vb", "dt", "jj", "in", "prp", "rb", "cd"];

/// Generates a TreeBank-like document.
pub fn generate(scale: u32, seed: u64) -> Document {
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let word_zipf = Zipf::new(WORDS.len(), 1.0);
    let mut doc = Document::new();
    let corpus = doc.append_element(NodeId::DOCUMENT, "treebank");
    exemplar_sentence(&mut doc, corpus);
    for _ in 0..scale * SENTENCES_PER_SCALE {
        let s = doc.append_element(corpus, "s");
        grow(&mut doc, s, 1, &mut rng, &word_zipf);
    }
    doc
}

/// One deterministic textbook sentence per document, so the canonical
/// constituent paths (s/np/nn, s/vp/vb, s/pp/in, …) exist at every seed.
/// Real treebanks guarantee these; a purely random grammar does not.
fn exemplar_sentence(doc: &mut Document, corpus: NodeId) {
    let s = doc.append_element(corpus, "s");
    let np = doc.append_element(s, "np");
    for (tag, word) in [("dt", "the"), ("jj", "old"), ("nn", "parser")] {
        let t = doc.append_element(np, tag);
        doc.append_text(t, word);
    }
    let vp = doc.append_element(s, "vp");
    let vb = doc.append_element(vp, "vb");
    doc.append_text(vb, "matches");
    let obj = doc.append_element(vp, "np");
    let nn = doc.append_element(obj, "nn");
    doc.append_text(nn, "twigs");
    let pp = doc.append_element(s, "pp");
    let prep = doc.append_element(pp, "in");
    doc.append_text(prep, "in");
    let pobj = doc.append_element(pp, "np");
    let pnn = doc.append_element(pobj, "nn");
    doc.append_text(pnn, "order");
}

fn grow(doc: &mut Document, parent: NodeId, depth: u32, rng: &mut XorShiftRng, zipf: &Zipf) {
    let kids = rng.gen_range(1..4);
    for _ in 0..kids {
        // Recurse deeper with probability decaying in depth; at the depth
        // cap, always emit a terminal.
        let go_deeper = depth < MAX_DEPTH && rng.gen_bool((0.75 - 0.05 * depth as f64).max(0.1));
        if go_deeper {
            // Occasionally nest a full sentence (same-tag recursion).
            let tag = if rng.gen_bool(0.08) {
                "s"
            } else {
                PHRASES[rng.gen_range(0..PHRASES.len())]
            };
            let child = doc.append_element(parent, tag);
            grow(doc, child, depth + 1, rng, zipf);
        } else {
            let tag = TERMINALS[rng.gen_range(0..TERMINALS.len())];
            let terminal = doc.append_element(parent, tag);
            let word = WORDS[zipf.sample(rng) % WORDS.len()];
            doc.append_text(terminal, word);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_is_deep_and_recursive() {
        let doc = generate(1, 31);
        let stats = lotusx_index::Stats::compute(&doc);
        assert!(stats.max_depth >= 8, "depth was {}", stats.max_depth);
        assert!(stats.element_count > 2000);
    }

    #[test]
    fn same_tag_nesting_occurs() {
        let doc = generate(1, 31);
        // Find at least one s strictly inside another s.
        let mut nested = false;
        for n in doc.all_nodes() {
            if doc.tag_name(n) == Some("s")
                && doc.ancestors(n).any(|a| doc.tag_name(a) == Some("s"))
            {
                nested = true;
                break;
            }
        }
        assert!(nested, "expected nested sentences");
    }

    #[test]
    fn terminals_carry_text() {
        let doc = generate(1, 2);
        for n in doc.all_nodes() {
            if doc.tag_name(n) == Some("nn") {
                assert!(!doc.direct_text(n).is_empty());
            }
        }
    }
}
