//! Randomized tests (seeded, deterministic): the indexed SLCA algorithm
//! agrees with the bitmask ground truth on random documents and keyword
//! sets, and the classic set relations (SLCA ⊆ ELCA, anti-chain property)
//! always hold; hit scoring over posting-list slices equals the full
//! posting scan it replaced. Ported from proptest to plain seeded loops
//! so the workspace builds offline.

use lotusx_datagen::rng::XorShiftRng;
use lotusx_index::IndexedDocument;
use lotusx_keyword::score::{score_hit, subtree_size};
use lotusx_keyword::{bitmask, indexed};
use lotusx_xml::{Document, NodeId};

const TAGS: [&str; 4] = ["a", "b", "c", "d"];
const WORDS: [&str; 5] = ["k1", "k2", "k3", "k4", "k5"];

#[derive(Clone, Debug)]
struct GenTree {
    tag: usize,
    words: Vec<usize>,
    children: Vec<GenTree>,
}

fn random_tree(rng: &mut XorShiftRng, depth: u32, budget: &mut u32) -> GenTree {
    let tag = rng.gen_range(0..TAGS.len());
    if depth == 0 || *budget == 0 || rng.gen_bool(0.3) {
        let words = (0..rng.gen_range(0..3usize))
            .map(|_| rng.gen_range(0..WORDS.len()))
            .collect();
        return GenTree {
            tag,
            words,
            children: vec![],
        };
    }
    let words = (0..rng.gen_range(0..2usize))
        .map(|_| rng.gen_range(0..WORDS.len()))
        .collect();
    let n = rng.gen_range(0..4usize);
    let mut children = Vec::with_capacity(n);
    for _ in 0..n {
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        children.push(random_tree(rng, depth - 1, budget));
    }
    GenTree {
        tag,
        words,
        children,
    }
}

fn build(doc: &mut Document, parent: NodeId, t: &GenTree) {
    let e = doc.append_element(parent, TAGS[t.tag]);
    if !t.words.is_empty() {
        let text: Vec<&str> = t.words.iter().map(|&w| WORDS[w]).collect();
        doc.append_text(e, text.join(" "));
    }
    for c in &t.children {
        build(doc, e, c);
    }
}

fn random_case(rng: &mut XorShiftRng) -> (IndexedDocument, Vec<&'static str>) {
    let mut budget = 60u32;
    let root = random_tree(rng, 5, &mut budget);
    let mut doc = Document::new();
    build(&mut doc, NodeId::DOCUMENT, &root);
    let idx = IndexedDocument::build(doc);
    let kw_mask = rng.gen_range(1..(1usize << WORDS.len()));
    let keywords: Vec<&str> = WORDS
        .iter()
        .enumerate()
        .filter(|(i, _)| kw_mask & (1 << i) != 0)
        .map(|(_, w)| *w)
        .collect();
    (idx, keywords)
}

#[test]
fn indexed_slca_matches_bitmask() {
    let mut rng = XorShiftRng::seed_from_u64(0x51CA);
    for case in 0..128 {
        let (idx, keywords) = random_case(&mut rng);
        let mut truth = bitmask::slca(&idx, &keywords);
        truth.sort();
        let got = indexed::slca_indexed(&idx, &keywords);
        assert_eq!(got, truth, "case {case}: keywords {keywords:?}");
    }
}

#[test]
fn slca_answers_form_an_antichain_and_subset_elca() {
    let mut rng = XorShiftRng::seed_from_u64(0xE1CA);
    for case in 0..128 {
        let (idx, keywords) = random_case(&mut rng);
        let slca = bitmask::slca(&idx, &keywords);
        let elca = bitmask::elca(&idx, &keywords);
        let labels = idx.labels();
        // No SLCA answer is an ancestor of another.
        for &x in &slca {
            for &y in &slca {
                if x != y {
                    assert!(
                        !labels.is_ancestor(x, y),
                        "case {case}: {x:?} contains {y:?}"
                    );
                }
            }
            // Every SLCA is an ELCA.
            assert!(elca.contains(&x), "case {case}");
            // Every answer actually contains all keywords.
            let text = idx.document().full_text(x).to_lowercase();
            let attrs: String = idx
                .document()
                .descendants_or_self(x)
                .flat_map(|n| idx.document().attributes(n))
                .map(|(_, v)| format!(" {v}"))
                .collect();
            for kw in &keywords {
                assert!(
                    text.contains(kw) || attrs.to_lowercase().contains(kw),
                    "case {case}: answer lacks {kw}"
                );
            }
        }
    }
}

/// The scoring `score_hit` replaced: every keyword's whole posting list
/// filtered by subtree membership, per hit.
fn score_hit_by_scan(idx: &IndexedDocument, node: NodeId, keywords: &[&str]) -> f64 {
    let (values, labels) = (idx.values(), idx.labels());
    let n = values.content_element_count().max(1) as f64;
    let region = labels.region(node);
    let mut weight = 0.0;
    for kw in keywords {
        let postings = values.postings(kw);
        let tf: u32 = postings
            .iter()
            .filter(|p| p.node == node || region.is_ancestor_of(&labels.region(p.node)))
            .map(|p| p.tf)
            .sum();
        if tf > 0 {
            let idf = (1.0 + n / postings.len() as f64).ln();
            weight += (1.0 + f64::from(tf).ln_1p()) * idf;
        }
    }
    let subtree_size = idx.document().descendants_or_self(node).count() as f64;
    weight * (1.0 / (1.0 + subtree_size.ln_1p()))
}

#[test]
fn slice_scoring_equals_the_posting_scan_bit_for_bit() {
    let mut rng = XorShiftRng::seed_from_u64(0x5C02);
    let mut scored = 0;
    for case in 0..128 {
        let (idx, keywords) = random_case(&mut rng);
        // Every element, not just answers: subtrees with no, some and all
        // of the keywords.
        for &node in idx.columns().all_elements().nodes() {
            let got = score_hit(&idx, node, &keywords);
            let want = score_hit_by_scan(&idx, node, &keywords);
            assert_eq!(got.to_bits(), want.to_bits(), "case {case}: {node:?}");
            scored += usize::from(got > 0.0);
        }
    }
    assert!(
        scored > 300,
        "the cases must exercise non-zero scores: {scored}"
    );
}

/// [`build`] with every keyword a text node of its own, so adjacent text
/// runs exist for `coalesce_text` to merge.
fn build_split(doc: &mut Document, parent: NodeId, t: &GenTree) {
    let e = doc.append_element(parent, TAGS[t.tag]);
    for &w in &t.words {
        doc.append_text(e, format!("{} ", WORDS[w]));
    }
    for c in &t.children {
        build_split(doc, e, c);
    }
}

/// `score_hit` sizes an answer from its region label: every node's enter
/// and exit are numbered, so the subtree walk it replaced counts exactly
/// `(end - start + 1) / 2` nodes — text nodes included, and so are the
/// ones `coalesce_text` empties.
#[test]
fn region_labels_count_every_node_of_a_subtree() {
    let mut rng = XorShiftRng::seed_from_u64(0x517E);
    let mut merged = 0;
    for case in 0..128 {
        let mut budget = 60u32;
        let root = random_tree(&mut rng, 5, &mut budget);
        let mut doc = Document::new();
        build_split(&mut doc, NodeId::DOCUMENT, &root);
        merged += lotusx_xml::parser::coalesce_text(&mut doc);
        let idx = IndexedDocument::build(doc);
        let doc = idx.document();
        for node in doc.all_nodes() {
            assert_eq!(
                subtree_size(idx.labels().region(node)) as usize,
                doc.descendants_or_self(node).count(),
                "case {case}: {node:?}"
            );
        }
    }
    assert!(
        merged > 50,
        "the cases must hold emptied text nodes: {merged}"
    );
}
