//! The compact value index against a naive model (seeded, deterministic).
//!
//! The model is the layout the sorted dictionaries replaced — hash maps
//! from each term and each exact value to their lists — built here from
//! the public `tokenize` and `fold_value` alone. On random documents with
//! non-ASCII text, attributes, terms repeated within one element,
//! whitespace-only text, padded and mixed-case texts (whose exact keys
//! keep their own bytes) and number-like values, every lookup of the index
//! must equal the model's, before and after a snapshot round trip.

use lotusx_datagen::rng::XorShiftRng;
use lotusx_index::snapshot::{decode_sections, encode_sections};
use lotusx_index::{fold_value, tokenize, IndexedDocument, ValueIndex};
use lotusx_xml::{Document, NodeId, NodeKind};
use std::collections::{BTreeMap, HashMap};

const TAGS: [&str; 4] = ["a", "b", "c", "d"];
const ATTRS: [&str; 2] = ["k", "year"];
/// Words drawn into texts: repeats, case variants, non-ASCII letters
/// (a capital sigma among them) and digits.
const WORDS: [&str; 16] = [
    "xml",
    "XML",
    "Twig",
    "twig",
    "Éclair",
    "éclair",
    "ΟΔΟΣ",
    "οδοσ",
    "straße",
    "İstanbul",
    "日本",
    "a1",
    "2002",
    "x",
    "Kaufmann",
    "naïve",
];
/// Whole texts that are numbers, or nearly.
const NUMBERS: [&str; 8] = ["NaN", "inf", "-0", "1e3", " 42 ", "42", "-inf", "3.5"];
const SEPARATORS: [&str; 5] = [" ", "-", ", ", "  ", "\n"];

fn random_text(rng: &mut XorShiftRng) -> String {
    let text = unpadded_text(rng);
    match rng.gen_range(0..4u32) {
        0 => format!(
            "{}{text}{}",
            PADDING[rng.gen_range(0..3usize)],
            PADDING[rng.gen_range(0..3usize)]
        ),
        _ => text,
    }
}

/// Whitespace around a text: its exact key is the text trimmed.
const PADDING: [&str; 3] = [" ", "\n\t", "  "];

fn unpadded_text(rng: &mut XorShiftRng) -> String {
    match rng.gen_range(0..6u32) {
        0 => NUMBERS[rng.gen_range(0..NUMBERS.len())].to_string(),
        1 => [" ", "\n  \t", ""][rng.gen_range(0..3usize)].to_string(),
        _ => {
            let mut text = String::new();
            for i in 0..rng.gen_range(1..5usize) {
                if i > 0 {
                    text.push_str(SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
                }
                text.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
            }
            text
        }
    }
}

fn random_children(rng: &mut XorShiftRng, doc: &mut Document, parent: NodeId, depth: u32) {
    for _ in 0..rng.gen_range(0..4usize) {
        if depth == 0 || rng.gen_bool(0.3) {
            doc.append_text(parent, random_text(rng));
            continue;
        }
        let e = doc.append_element(parent, TAGS[rng.gen_range(0..TAGS.len())]);
        for attr in ATTRS {
            if rng.gen_bool(0.3) {
                doc.set_attribute(e, attr, random_text(rng));
            }
        }
        random_children(rng, doc, e, depth - 1);
    }
}

fn random_index(seed: u64) -> IndexedDocument {
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let mut doc = Document::new();
    let root = doc.append_element(NodeId::DOCUMENT, "r");
    for _ in 0..16 {
        random_children(&mut rng, &mut doc, root, 4);
    }
    IndexedDocument::build(doc)
}

/// A text's number: its parse, NaN excluded.
fn number(trimmed: &str) -> Option<f64> {
    trimmed.parse::<f64>().ok().filter(|n| !n.is_nan())
}

fn sorted(nodes: impl Iterator<Item = NodeId>) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = nodes.collect();
    nodes.sort();
    nodes
}

/// The elements of `numeric`, `(number, element)` pairs, in `[low, high]`.
fn model_range(numeric: &[(f64, NodeId)], low: f64, high: f64) -> Vec<NodeId> {
    let found = numeric.iter().filter(|&&(v, _)| low <= v && v <= high);
    sorted(found.map(|&(_, node)| node))
}

/// The naive model: what each lookup must return.
#[derive(Default)]
struct Model {
    terms: HashMap<String, Vec<(NodeId, u32)>>,
    exact: HashMap<String, Vec<NodeId>>,
    numeric: Vec<(f64, NodeId)>,
    content_elements: usize,
}

impl Model {
    fn of(doc: &Document) -> Model {
        let mut model = Model::default();
        for node in doc.all_nodes() {
            let NodeKind::Element { attributes, .. } = doc.kind(node) else {
                continue;
            };
            let text = doc.direct_text(node);
            let mut tf: BTreeMap<String, u32> = BTreeMap::new();
            let sources = std::iter::once(&*text).chain(attributes.into_iter().map(|(_, v)| v));
            for term in sources.flat_map(tokenize) {
                *tf.entry(term).or_default() += 1;
            }
            let mut any = !tf.is_empty();
            for (term, tf) in tf {
                model.terms.entry(term).or_default().push((node, tf));
            }
            let trimmed = text.trim();
            if !trimmed.is_empty() {
                any = true;
                model
                    .exact
                    .entry(fold_value(trimmed))
                    .or_default()
                    .push(node);
                model.numeric.extend(number(trimmed).map(|n| (n, node)));
            }
            model.content_elements += usize::from(any);
        }
        model
    }

    fn check(&self, values: &ValueIndex, doc: &Document, what: &str) {
        let mut keys: Vec<(&str, usize)> = self
            .terms
            .iter()
            .map(|(t, p)| (t.as_str(), p.len()))
            .collect();
        keys.sort();
        assert_eq!(values.terms().collect::<Vec<_>>(), keys, "{what}: terms()");
        assert_eq!(values.term_count(), keys.len(), "{what}");
        for (term, postings) in &self.terms {
            let found: Vec<(NodeId, u32)> = values.postings(term).iter().collect();
            assert_eq!(found, *postings, "{what}: {term}");
            assert_eq!(values.df(term), postings.len(), "{what}: {term}");
        }
        for absent in ["", "zz", "xml twig", "ΟΔΟΣ ΟΔΟΣ", "οδος"] {
            assert!(values.postings(absent).is_empty(), "{what}: {absent}");
        }
        for (value, nodes) in &self.exact {
            let found = values.exact_matches(doc, value);
            assert_eq!(found, &nodes[..], "{what}: {value}");
        }
        // Every direct text finds its own element.
        for node in doc.all_nodes().filter(|&n| doc.is_element(n)) {
            let text = doc.direct_text(node);
            let expected = self.exact.get(&fold_value(&text));
            let found = values.exact_matches(doc, &text);
            assert_eq!(
                found,
                expected.map_or(&[][..], |v| &v[..]),
                "{what}: {text:?}"
            );
        }
        assert!(values.exact_matches(doc, "no such value").is_empty());
        for (low, high) in [
            (f64::NEG_INFINITY, f64::INFINITY),
            (0.0, 0.0),
            (-0.0, 42.0),
            (3.5, 1000.0),
            (43.0, 999.0),
            (f64::INFINITY, f64::INFINITY),
        ] {
            assert_eq!(
                sorted(values.range_matches(low, high)),
                model_range(&self.numeric, low, high),
                "{what}: [{low}, {high}]"
            );
        }
        assert_eq!(
            values.content_element_count(),
            self.content_elements,
            "{what}"
        );
    }
}

#[test]
fn compact_index_equals_the_naive_model_before_and_after_a_round_trip() {
    let (mut sigma_seen, mut postings, mut numbers) = (false, 0, 0);
    let (mut repeated, mut folded, mut padded) = (0, 0, 0);
    for seed in 0..60u64 {
        let idx = random_index(seed);
        let doc = idx.document();
        let model = Model::of(doc);
        repeated += model.terms.values().flatten().filter(|p| p.1 > 1).count();
        for node in doc.all_nodes().filter(|&n| doc.is_element(n)) {
            let text = doc.direct_text(node);
            let trimmed = text.trim();
            if !trimmed.is_empty() {
                // Keys folding changes keep their own bytes; padded ones
                // are the element's text trimmed.
                folded += usize::from(fold_value(trimmed) != trimmed);
                padded += usize::from(trimmed != text && fold_value(trimmed) == trimmed);
            }
        }
        sigma_seen |=
            model.terms.contains_key("οδοσ") && model.exact.keys().any(|k| k.contains('ς'));
        postings += model.terms.values().map(Vec::len).sum::<usize>();
        numbers += model.numeric.len();
        model.check(idx.values(), idx.document(), &format!("seed {seed}, built"));
        // A term's prefix range starts at its own rank.
        for (rank, (term, _)) in idx.values().terms().enumerate() {
            assert_eq!(idx.values().prefix_range(term).start, rank);
        }
        let back = decode_sections(encode_sections(&idx)).expect("decodes");
        model.check(
            back.values(),
            back.document(),
            &format!("seed {seed}, loaded"),
        );
        assert_eq!(back.values(), idx.values(), "seed {seed}");
        assert_eq!(back.term_counts(), idx.term_counts(), "seed {seed}");
    }
    assert!(sigma_seen, "the corpus exercises both sigma folds");
    assert!(
        postings > 3_000 && numbers > 100,
        "{postings} postings, {numbers} numbers"
    );
    assert!(
        repeated > 100 && folded > 300 && padded > 100,
        "{repeated} tf > 1, {folded} keys folded, {padded} padded"
    );
}

/// Range matches, as node sets, equal the per-element
/// `trim(text).parse::<f64>()` with NaN excluded — though the index
/// parses its folded keys, one per distinct key — on seeded number-like
/// strings and on the spellings folding could disturb: capital
/// exponents and infinities, a signed zero, a bare half, an overflow to
/// infinity, padding, NaN and the Kelvin sign, which folds to ASCII `k`.
/// Built and loaded alike, and the loaded index equals the built one.
#[test]
fn range_matches_equal_the_per_element_parse() {
    const SPECIAL: [&str; 9] = [
        "1E3", "INF", "Infinity", "-0", "+.5", "1e400", " 7 ", "NaN", "\u{212A}",
    ];
    const DIGITS: &[u8] = b"0123456789";
    const OTHER: &[u8] = b".eE+- iInNfFaA";
    let mut rng = XorShiftRng::seed_from_u64(0x4E55);
    let mut texts: Vec<String> = SPECIAL.iter().map(|s| s.to_string()).collect();
    for _ in 0..400 {
        let text: Vec<u8> = (0..rng.gen_range(1..7usize))
            .map(|_| match rng.gen_range(0..4u32) {
                0 => OTHER[rng.gen_range(0..OTHER.len())],
                _ => DIGITS[rng.gen_range(0..DIGITS.len())],
            })
            .collect();
        texts.push(String::from_utf8(text).unwrap());
    }
    let mut doc = Document::new();
    let root = doc.append_element(NodeId::DOCUMENT, "r");
    let mut numeric = Vec::new();
    for text in &texts {
        let e = doc.append_element(root, "n");
        doc.append_text(e, text);
        numeric.extend(number(text.trim()).map(|n| (n, e)));
    }
    let idx = IndexedDocument::build(doc);
    let back = decode_sections(encode_sections(&idx)).expect("decodes");
    assert_eq!(back.values(), idx.values());

    let mut bounds = vec![
        (f64::NEG_INFINITY, f64::INFINITY),
        (0.0, 0.0),
        (-0.0, -0.0),
        (1000.0, 1000.0),
        (0.5, 7.0),
        (f64::INFINITY, f64::INFINITY),
        (f64::NEG_INFINITY, -1.0),
    ];
    for _ in 0..200 {
        let (a, b) = (
            numeric[rng.gen_range(0..numeric.len())].0,
            numeric[rng.gen_range(0..numeric.len())].0,
        );
        bounds.push((a.min(b), a.max(b)));
    }
    for (what, system) in [("built", &idx), ("loaded", &back)] {
        for &(low, high) in &bounds {
            assert_eq!(
                sorted(system.values().range_matches(low, high)),
                model_range(&numeric, low, high),
                "{what}: [{low}, {high}]"
            );
        }
    }
    assert!(numeric.len() > 200, "{} numbers", numeric.len());
}

/// `tokenize` with no fast path: each character tested by
/// `is_alphanumeric` and folded by `to_lowercase`, one at a time.
fn tokenize_by_char(text: &str) -> Vec<String> {
    let mut terms = vec![String::new()];
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            terms.last_mut().unwrap().extend(ch.to_lowercase());
        } else if !terms.last().unwrap().is_empty() {
            terms.push(String::new());
        }
    }
    terms.retain(|t| !t.is_empty());
    terms
}

/// The ASCII fast path of `tokenize` splits and folds exactly like the
/// per-character Unicode rule, on strings that interleave ASCII letters,
/// digits and punctuation with both sigmas, a dotted capital I and CJK.
#[test]
fn tokenize_equals_the_per_character_unicode_rule() {
    const CHARS: [char; 16] = [
        'a', 'Z', 'q', '7', '0', ' ', '-', ',', '.', '_', 'Σ', 'ς', 'İ', '日', '本', 'É',
    ];
    let mut non_ascii_terms = 0;
    for seed in 0..200u64 {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let len = rng.gen_range(0..40usize);
        let text: String = (0..len)
            .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
            .collect();
        let expect = tokenize_by_char(&text);
        non_ascii_terms += expect.iter().filter(|t| !t.is_ascii()).count();
        assert_eq!(tokenize(&text), expect, "{text:?}");
    }
    assert!(non_ascii_terms > 100, "{non_ascii_terms} non-ASCII terms");
}

/// `fold_value` with no fast path: trimmed, then each character folded by
/// `to_lowercase` — except that text holding a capital sigma takes
/// `str::to_lowercase`, whose sigma fold depends on the neighbours.
fn fold_value_by_char(text: &str) -> String {
    let text = text.trim();
    if text.contains('Σ') {
        return text.to_lowercase();
    }
    text.chars().flat_map(char::to_lowercase).collect()
}

/// The ASCII fast path of `fold_value` folds exactly like the
/// per-character rule, on all-ASCII strings and on strings that mix in
/// both sigmas, a dotted capital I, CJK and non-ASCII whitespace.
#[test]
fn fold_value_equals_the_per_character_unicode_rule() {
    const ASCII: [char; 10] = ['a', 'Z', 'Q', '7', ' ', '-', '\t', '\n', '.', '_'];
    const OTHER: [char; 7] = ['Σ', 'ς', 'İ', '日', 'É', 'ß', '\u{a0}'];
    let (mut ascii, mut sigma) = (0, 0);
    for seed in 0..400u64 {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let mixed = seed % 2 == 1;
        let len = rng.gen_range(0..30usize);
        let text: String = (0..len)
            .map(|_| match rng.gen_range(0..4u32) {
                0 if mixed => OTHER[rng.gen_range(0..OTHER.len())],
                _ => ASCII[rng.gen_range(0..ASCII.len())],
            })
            .collect();
        ascii += usize::from(text.is_ascii());
        sigma += usize::from(text.contains('Σ'));
        assert_eq!(fold_value(&text), fold_value_by_char(&text), "{text:?}");
    }
    assert!(
        ascii > 200 && sigma > 50,
        "{ascii} ASCII, {sigma} with a sigma"
    );
}
