//! Global tag and every value completion against a naive recount
//! (seeded, deterministic), on documents freshly built and loaded from a
//! snapshot: per tag, each term's occurrences in its elements' direct
//! text; document-wide, the number of elements whose text or attributes
//! hold it; per tag name, its elements. Candidates order by count
//! descending, then by name or term.

use lotusx_autocomplete::{CompletionEngine, ValueCandidate};
use lotusx_datagen::rng::XorShiftRng;
use lotusx_index::snapshot::{decode_sections, encode_sections};
use lotusx_index::{tokenize, IndexedDocument};
use lotusx_xml::NodeKind;
use std::collections::{BTreeMap, BTreeSet};

const TAGS: [&str; 5] = ["a", "ab", "b", "item", "ítem"];
/// Fixed words: a term that prefixes two others, case variants,
/// non-ASCII letters, digits.
const WORDS: &str = "twig twigs twigstack XML xml Éclair éclair 日本 naïve 2002 a1 x";

/// A word, skewed towards the fixed ones and small numbers, so counts
/// tie and differ and every tag's list spans several 64-entry blocks.
fn word(rng: &mut XorShiftRng) -> String {
    let spread = rng.gen_range(1..400u32);
    match rng.gen_range(0..3u32) {
        0 => WORDS
            .split(' ')
            .nth(rng.gen_range(0..12))
            .unwrap()
            .to_string(),
        _ => format!("w{}", rng.gen_range(0..spread)),
    }
}

fn text(rng: &mut XorShiftRng) -> String {
    (0..rng.gen_range(0..4usize))
        .map(|_| word(rng))
        .collect::<Vec<_>>()
        .join([" ", "-", ", "][rng.gen_range(0..3usize)])
}

fn element(rng: &mut XorShiftRng, depth: u32, out: &mut String) {
    let tag = TAGS[rng.gen_range(0..TAGS.len())];
    out.push_str(&format!("<{tag}"));
    if rng.gen_bool(0.3) {
        out.push_str(&format!(" k=\"{}\"", text(rng)));
    }
    out.push('>');
    // Text between children: direct text in several runs.
    for _ in 0..rng.gen_range(0..4usize) {
        out.push_str(&text(rng));
        out.push(' ');
        if depth < 4 && rng.gen_bool(0.6) {
            element(rng, depth + 1, out);
        }
    }
    out.push_str(&format!("</{tag}>"));
}

fn random_index(seed: u64) -> IndexedDocument {
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let mut xml = String::from("<root>");
    for _ in 0..300 {
        element(&mut rng, 0, &mut xml);
    }
    xml.push_str("</root>");
    IndexedDocument::from_str(&xml).expect("well-formed")
}

/// The counts recounted from the document alone.
#[derive(Default)]
struct Recount {
    /// Tag name → term → occurrences in direct text.
    tagged: BTreeMap<String, BTreeMap<String, u64>>,
    /// Term → elements holding it in text or attributes.
    df: BTreeMap<String, u64>,
    /// Tag name → elements.
    tags: BTreeMap<String, u64>,
}

impl Recount {
    fn of(idx: &IndexedDocument) -> Self {
        let doc = idx.document();
        let mut recount = Recount::default();
        for node in doc.all_nodes() {
            let NodeKind::Element { name, attributes } = doc.kind(node) else {
                continue;
            };
            let name = doc.symbols().resolve(name).to_string();
            *recount.tags.entry(name.clone()).or_default() += 1;
            let direct = tokenize(&doc.direct_text(node));
            let mut held: BTreeSet<String> = direct.iter().cloned().collect();
            let counts = recount.tagged.entry(name).or_default();
            for term in direct {
                *counts.entry(term).or_default() += 1;
            }
            for (_, value) in attributes {
                held.extend(tokenize(value));
            }
            for term in held {
                *recount.df.entry(term).or_default() += 1;
            }
        }
        recount
    }
}

/// The `k` keys starting with `prefix`, by count descending, then key.
fn top(counts: Option<&BTreeMap<String, u64>>, prefix: &str, k: usize) -> Vec<(String, u64)> {
    let mut found: Vec<(String, u64)> = counts
        .into_iter()
        .flatten()
        .filter(|(key, _)| key.starts_with(prefix))
        .map(|(key, &count)| (key.clone(), count))
        .collect();
    found.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    found.truncate(k);
    found
}

/// Every prefix shape: empty, the first one and two characters of each
/// term, a term that prefixes others, a non-ASCII term, an uppercase
/// prefix (keys are folded, so it matches nothing) and one past the last
/// term.
fn prefixes(recount: &Recount) -> BTreeSet<String> {
    let mut out: BTreeSet<String> = ["", "twig", "éclair", "日本", "X", "Tw", "\u{10ffff}"]
        .map(String::from)
        .into();
    for term in recount.df.keys() {
        out.extend(term.chars().take(2).scan(String::new(), |p, c| {
            p.push(c);
            Some(p.clone())
        }));
    }
    out
}

fn check(idx: &IndexedDocument, recount: &Recount, what: &str) -> usize {
    let engine = CompletionEngine::new(idx);
    let values = |found: Vec<ValueCandidate>| -> Vec<(String, u64)> {
        found.into_iter().map(|c| (c.term, c.count)).collect()
    };
    let mut compared = 0;
    for prefix in prefixes(recount) {
        for k in [0, 1, 10, usize::MAX] {
            for tag in TAGS.iter().copied().chain(["root", "nosuch"]) {
                let got = values(engine.complete_value(tag, &prefix, k));
                let want = top(recount.tagged.get(tag), &prefix, k);
                assert_eq!(got, want, "{what}: <{tag}> {prefix:?} k={k}");
                compared += got.len();
            }
            let got = values(engine.complete_value_global(&prefix, k));
            assert_eq!(
                got,
                top(Some(&recount.df), &prefix, k),
                "{what}: {prefix:?}"
            );
            let got: Vec<(String, u64)> = engine
                .complete_tag_global(&prefix, k)
                .into_iter()
                .map(|c| (c.name, c.count))
                .collect();
            assert_eq!(got, top(Some(&recount.tags), &prefix, k), "{what}: tags");
            compared += got.len();
        }
    }
    compared
}

#[test]
fn completions_equal_a_naive_recount_built_and_loaded() {
    let mut compared = 0;
    for seed in 0..8u64 {
        let idx = random_index(seed);
        let recount = Recount::of(&idx);
        let longest = recount.tagged.values().map(BTreeMap::len).max();
        assert!(longest > Some(128), "{longest:?} terms");
        for prefix in ["X", "Tw", "\u{10ffff}"] {
            assert!(top(Some(&recount.df), prefix, usize::MAX).is_empty());
        }
        compared += check(&idx, &recount, &format!("seed {seed}, built"));
        let loaded = decode_sections(encode_sections(&idx)).expect("decodes");
        compared += check(&loaded, &recount, &format!("seed {seed}, loaded"));
    }
    assert!(compared > 50_000, "{compared} candidates compared");
}
