//! Seeded property tests for the one JSON reader and writer
//! (`lotusx_obs::json`): random documents written with `json_string`
//! parse to the structure they were generated from through both trees
//! the reader builds, every offset of the tagged tree points at the first
//! byte of its value or key, and every proper prefix and random byte flip
//! of a document is an `Ok` or an `Err` — never a panic, never a stack
//! overflow. The writer's escaper, float writer and tied-score reuse
//! write exactly the bytes of the per-string, per-row `format!` encoders
//! they replaced, which are kept here as the reference.

use lotusx_datagen::rng::XorShiftRng;
use lotusx_obs::{
    json_string, parse_json, parse_json_as, push_f64, push_f64_run, push_json_str, JsonNode,
    JsonValue, SpannedJson,
};

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

/// The escaper the run-copying writer replaced: one `char` at a time.
fn reference_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The float writer the wire used per row: shortest `Display`, `0` for
/// what JSON cannot spell.
fn reference_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[test]
fn the_escaper_writes_the_char_loop_bytes_and_roundtrips() {
    // Every C0 control, the two escapes, DEL, multibyte and astral
    // characters, and plain runs between them.
    let alphabet: Vec<char> = (0..0x20u8)
        .map(char::from)
        .chain([
            '"',
            '\\',
            '\u{7f}',
            'a',
            ' ',
            '/',
            'é',
            '中',
            '\u{1f600}',
            '\u{20000}',
        ])
        .collect();
    for seed in 0..500 {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let s: String = (0..rng.gen_range(0..24usize))
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect();
        let mut out = String::from("prefix");
        push_json_str(&mut out, &s);
        assert_eq!(out["prefix".len()..], reference_escape(&s), "{s:?}");
        assert_eq!(json_string(&s), reference_escape(&s), "{s:?}");
        assert_eq!(parse_json(&json_string(&s)), Ok(JsonValue::Str(s)));
    }
}

#[test]
fn the_float_writer_is_shortest_display() {
    let mut rng = XorShiftRng::seed_from_u64(2012);
    let random = (0..20_000).map(|_| f64::from_bits(rng.next_u64()));
    let edges = [
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE / 3.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1e21,
        1e-7,
        0.1 + 0.2,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for v in random.chain(edges) {
        let mut out = String::new();
        push_f64(&mut out, v);
        assert_eq!(out, reference_f64(v), "{:#x}", v.to_bits());
        if v.is_finite() {
            assert_eq!(out.parse::<f64>().map(f64::to_bits), Ok(v.to_bits()));
        }
    }
}

#[test]
fn tied_score_runs_write_per_row_bytes() {
    // Few distinct values, so columns tie, alternate and break; -0 and 0
    // differ in bits and in bytes, NaN and infinity share the bytes `0`.
    let pool = [
        0.5,
        0.5,
        1.0 / 3.0,
        0.0,
        -0.0,
        1e21,
        f64::NAN,
        f64::INFINITY,
    ];
    for seed in 0..300 {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let column: Vec<f64> = (0..rng.gen_range(0..40usize))
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        let (mut got, mut run) = (String::new(), Default::default());
        for &v in &column {
            push_f64_run(&mut got, v, &mut run);
            got.push(',');
        }
        let want: String = column.iter().map(|&v| reference_f64(v) + ",").collect();
        assert_eq!(got, want, "seed {seed}: {column:?}");
    }
}
