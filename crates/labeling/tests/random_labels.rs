//! Randomized tests (seeded, deterministic): region labels agree with the
//! tree's ground truth on every node pair of random documents.
//! Ported from proptest to plain seeded loops so the workspace builds offline.

use lotusx_datagen::rng::XorShiftRng;
use lotusx_labeling::DocumentLabels;
use lotusx_xml::{Document, NodeId};

const TAGS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// Shape of a random element subtree: a tag pick and children.
#[derive(Clone, Debug)]
struct GenTree {
    tag: usize,
    children: Vec<GenTree>,
}

fn random_tree(rng: &mut XorShiftRng, depth: u32, budget: &mut u32) -> GenTree {
    let tag = rng.gen_range(0..TAGS.len());
    if depth == 0 || *budget == 0 || rng.gen_bool(0.3) {
        return GenTree {
            tag,
            children: vec![],
        };
    }
    let n = rng.gen_range(0..5usize);
    let mut children = Vec::with_capacity(n);
    for _ in 0..n {
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        children.push(random_tree(rng, depth - 1, budget));
    }
    GenTree { tag, children }
}

fn build(doc: &mut Document, parent: NodeId, t: &GenTree) {
    let e = doc.append_element(parent, TAGS[t.tag]);
    for c in &t.children {
        build(doc, e, c);
    }
}

fn make_doc(root: &GenTree) -> Document {
    let mut doc = Document::new();
    build(&mut doc, NodeId::DOCUMENT, root);
    doc
}

#[test]
fn region_labels_agree_with_tree() {
    let mut rng = XorShiftRng::seed_from_u64(0x1ABE1);
    for case in 0..64 {
        let mut budget = 40u32;
        let root = random_tree(&mut rng, 5, &mut budget);
        let doc = make_doc(&root);
        let labels = DocumentLabels::compute(&doc);
        let elems: Vec<NodeId> = doc.all_nodes().filter(|&n| doc.is_element(n)).collect();

        for (i, &a) in elems.iter().enumerate() {
            assert_eq!(
                u32::from(labels.region(a).level),
                doc.depth(a),
                "case {case}"
            );
            for &b in &elems {
                if a == b {
                    continue;
                }
                let truth_anc = doc.ancestors(b).any(|x| x == a);
                let truth_parent = doc.parent(b) == Some(a);
                assert_eq!(labels.is_ancestor(a, b), truth_anc, "case {case}");
                assert_eq!(labels.is_parent(a, b), truth_parent, "case {case}");
            }
            // Document order: elems was collected in preorder.
            for &b in &elems[i + 1..] {
                assert!(labels.doc_order_before(a, b), "case {case}");
            }
        }
    }
}
