//! Seeded property test for the one JSON reader (`lotusx_obs::json`):
//! random documents written with `json_string` parse to the structure
//! they were generated from through both trees the reader builds, every
//! offset of the tagged tree points at the first byte of its value or
//! key, and every proper prefix and random byte flip of a document is an
//! `Ok` or an `Err` — never a panic, never a stack overflow.

use lotusx_datagen::rng::XorShiftRng;
use lotusx_obs::{json_string, parse_json, parse_json_as, JsonNode, JsonValue, SpannedJson};

// Quotes, backslashes, control characters and multi-byte UTF-8.
const CHARS: [char; 10] = ['a', 'Z', ' ', '"', '\\', '\n', '\u{1}', '/', 'é', '中'];

fn random_string(rng: &mut XorShiftRng) -> String {
    (0..rng.gen_range(0..8usize))
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

fn random_ws(rng: &mut XorShiftRng, out: &mut String) {
    for _ in 0..rng.gen_range(0..3usize) {
        out.push([' ', '\n', '\t', '\r'][rng.gen_range(0..4usize)]);
    }
}

/// Appends a random value to `out` and returns what it must parse to.
/// `depth` levels of containers may still open below it; `scalars` is
/// false for the top level, so a document is always an array or object
/// and each of its proper prefixes is malformed.
fn random_value(rng: &mut XorShiftRng, depth: usize, scalars: bool, out: &mut String) -> JsonValue {
    let lo = if scalars { 0 } else { 4 };
    let hi = if depth == 0 { 4 } else { 6 };
    let kind = rng.gen_range(lo..hi);
    let (text, value) = match kind {
        0 => ("null".to_string(), JsonValue::Null),
        1 => {
            let b = rng.gen_bool(0.5);
            (b.to_string(), JsonValue::Bool(b))
        }
        2 => {
            let n = rng.gen_range(-4000..4000) as f64 / 8.0;
            (n.to_string(), JsonValue::Num(n))
        }
        3 => {
            let s = random_string(rng);
            (json_string(&s), JsonValue::Str(s))
        }
        _ => {
            out.push(if kind == 4 { '[' } else { '{' });
            let (mut items, mut members) = (Vec::new(), Vec::new());
            for i in 0..rng.gen_range(0..4usize) {
                out.push_str(if i > 0 { "," } else { "" });
                random_ws(rng, out);
                if kind == 5 {
                    let key = random_string(rng);
                    out.push_str(&json_string(&key));
                    random_ws(rng, out);
                    out.push(':');
                    random_ws(rng, out);
                    members.push((key, random_value(rng, depth - 1, true, out)));
                } else {
                    items.push(random_value(rng, depth - 1, true, out));
                }
                random_ws(rng, out);
            }
            match kind {
                4 => ("]".to_string(), JsonValue::Arr(items)),
                _ => ("}".to_string(), JsonValue::Obj(members)),
            }
        }
    };
    out.push_str(&text);
    value
}

/// Strips the tags, checking each against the source text on the way.
fn untag(text: &str, node: &SpannedJson) -> JsonValue {
    let first = |off: usize| text.as_bytes()[off] as char;
    let (leads, plain) = match &node.val {
        JsonNode::Null => ("n", JsonValue::Null),
        JsonNode::Bool(b) => (if *b { "t" } else { "f" }, JsonValue::Bool(*b)),
        JsonNode::Num(n) => ("-0123456789", JsonValue::Num(*n)),
        JsonNode::Str(s) => ("\"", JsonValue::Str(s.clone())),
        JsonNode::Arr(items) => {
            let items = items.iter().map(|item| untag(text, item));
            ("[", JsonValue::Arr(items.collect()))
        }
        JsonNode::Obj(members) => {
            let members = members.iter().map(|(key_off, key, value)| {
                assert_eq!(first(*key_off), '"', "key offset {key_off} in {text:?}");
                (key.clone(), untag(text, value))
            });
            ("{", JsonValue::Obj(members.collect()))
        }
    };
    let off = node.off;
    assert!(leads.contains(first(off)), "value offset {off} in {text:?}");
    plain
}

#[test]
fn random_documents_roundtrip_and_damaged_ones_never_panic() {
    for seed in 0..200 {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let mut text = String::new();
        let want = random_value(&mut rng, 4, false, &mut text);
        let tagged = |input: &str| parse_json_as::<SpannedJson>(input);
        assert_eq!(parse_json(&text).as_ref(), Ok(&want), "seed {seed}");
        let tree = tagged(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(untag(&text, &tree), want, "seed {seed}");

        // One grammar: damaged input fails both trees with one error.
        for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            let e = parse_json(&text[..cut]).expect_err("a proper prefix is malformed");
            assert_eq!(
                tagged(&text[..cut]).err(),
                Some(e),
                "seed {seed}, cut {cut}"
            );
        }
        for _ in 0..256 {
            let mut bytes = text.clone().into_bytes();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.next_u64() as u8;
            let damaged = String::from_utf8_lossy(&bytes);
            let (plain, tree) = (parse_json(&damaged), tagged(&damaged));
            assert_eq!(plain.err(), tree.err(), "seed {seed}: {damaged:?}");
        }
    }
}
