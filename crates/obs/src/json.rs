//! A tiny hand-rolled JSON writer *and* reader (this workspace has no
//! serde).
//!
//! The writer is free functions that append to a caller's `String`
//! ([`push_json_str`], [`push_u64`], [`push_f64`]): the JSON a server
//! writes per request — wire responses, error bodies, `/stats`,
//! access-log lines — is written in place, one buffer per body, with no
//! `format!` or intermediate `String` per member. The reader is the only
//! JSON grammar in the tree: wire bodies, route configs and `/stats`
//! scrapes all go through [`parse_json_as`], which bounds nesting at
//! [`MAX_JSON_DEPTH`] and builds either a plain [`JsonValue`] or an
//! offset-tagged [`SpannedJson`].

use crate::histogram::HistogramSnapshot;
use crate::registry::{MetricsSnapshot, ProcessCounters};
use std::fmt;

/// The bytes a JSON string must escape: C0 controls, `"` and `\`. All
/// are ASCII, so the runs between them are whole UTF-8 sequences.
const ESCAPED: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = true;
        b += 1;
    }
    table[b'"' as usize] = true;
    table[b'\\' as usize] = true;
    table
};

/// Appends `s` as a JSON string, quotes included. Each run of bytes that
/// needs no escape is copied with one `push_str`; `"` `\\` `\n` `\r` `\t`
/// get their short escapes and every other control `\u00xx`.
pub fn push_json_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !ESCAPED[b as usize] {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Escapes a string for inclusion in a JSON document (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::new();
    push_json_str(&mut out, s);
    out
}

/// `n` in decimal, right-aligned in `buf`: the digit loop behind
/// [`push_u64`], for writers that append to bytes rather than a `String`.
pub fn u64_decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[start..]).expect("ASCII digits")
}

/// Appends `n` in decimal.
pub fn push_u64(out: &mut String, n: u64) {
    out.push_str(u64_decimal(n, &mut [0; 20]));
}

/// Appends `v` as a JSON number: Rust's shortest-roundtrip `Display`
/// (never an exponent), or `0` for a NaN or an infinity, which JSON
/// cannot spell.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `Display` writes in pieces; room for a 17-digit fraction up
        // front saves an empty buffer its growth steps. Writing into a
        // `String` cannot fail.
        out.reserve(24);
        let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
    } else {
        out.push('0');
    }
}

/// Appends `v` as [`push_f64`] does, but formats it only when its bits
/// differ from the previous call's: `run` keeps the last value's bits
/// and bytes, so a run of tied scores costs one `Display`. Start from
/// `Default::default()`.
pub fn push_f64_run(out: &mut String, v: f64, run: &mut (Option<u64>, String)) {
    if run.0 != Some(v.to_bits()) {
        run.0 = Some(v.to_bits());
        run.1.clear();
        push_f64(&mut run.1, v);
    }
    out.push_str(&run.1);
}

/// Appends `"key":value` members, comma-separated, keys verbatim (they
/// are identifiers, never escaped).
pub fn push_u64_members<'a>(out: &mut String, members: impl IntoIterator<Item = (&'a str, u64)>) {
    for (i, (key, value)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(key);
        out.push_str("\":");
        push_u64(out, value);
    }
}

fn push_histogram(out: &mut String, h: &HistogramSnapshot) {
    out.push('{');
    push_u64_members(
        out,
        [
            ("count", h.count),
            ("sum_ns", h.sum_ns),
            ("mean_ns", h.mean_ns()),
            ("max_ns", h.max_ns),
            ("p50_ns", h.p50_ns),
            ("p95_ns", h.p95_ns),
            ("p99_ns", h.p99_ns),
        ],
    );
    out.push('}');
}

impl MetricsSnapshot {
    /// Renders the snapshot as a pretty-printed JSON object with
    /// `stages` and `counters` sections.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"stages\": {\n");
        for (i, (name, h)) in self.stages.iter().enumerate() {
            out.push_str("    ");
            push_json_str(&mut out, name);
            out.push_str(": ");
            push_histogram(&mut out, h);
            out.push_str(if i + 1 == self.stages.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  },\n  \"counters\": {");
        let rows = ProcessCounters::ROWS;
        for (i, (row, v)) in rows.iter().zip(self.counters.values()).enumerate() {
            out.push_str("\n    ");
            push_json_str(&mut out, row.name);
            out.push_str(": ");
            push_u64(&mut out, v);
            out.push_str(if i + 1 == rows.len() { "\n  " } else { "," });
        }
        out.push_str("}\n}\n");
        out
    }
}

/// A parsed JSON value (the reader half of this module).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as insertion-ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// One parsed production with its children already built: what the
/// reader hands a [`JsonTree`] to wrap, and the payload of a
/// [`SpannedJson`].
pub enum JsonNode<T: JsonTree> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<T>),
    /// An object, as insertion-ordered members.
    Obj(Vec<T::Member>),
}

/// A tree the reader can build, bottom-up.
pub trait JsonTree: Sized {
    /// One object member, as the tree stores it.
    type Member;
    /// The value whose first byte is at `off`.
    fn value(off: usize, node: JsonNode<Self>) -> Self;
    /// The member whose key's opening quote is at `key_off`.
    fn member(key_off: usize, key: String, value: Self) -> Self::Member;
}

impl JsonTree for JsonValue {
    type Member = (String, JsonValue);
    fn value(_: usize, node: JsonNode<Self>) -> Self {
        match node {
            JsonNode::Null => JsonValue::Null,
            JsonNode::Bool(b) => JsonValue::Bool(b),
            JsonNode::Num(n) => JsonValue::Num(n),
            JsonNode::Str(s) => JsonValue::Str(s),
            JsonNode::Arr(items) => JsonValue::Arr(items),
            JsonNode::Obj(members) => JsonValue::Obj(members),
        }
    }
    fn member(_: usize, key: String, value: Self) -> Self::Member {
        (key, value)
    }
}

/// A JSON value tagged with the byte offset of its first byte in the
/// source text — what config decoders read, so a schema error can point
/// at the offending construct. Object members are
/// `(key offset, key, value)` triples.
pub struct SpannedJson {
    /// Offset of the value's first byte.
    pub off: usize,
    /// The value.
    pub val: JsonNode<SpannedJson>,
}

impl JsonTree for SpannedJson {
    type Member = (usize, String, SpannedJson);
    fn value(off: usize, val: JsonNode<Self>) -> Self {
        SpannedJson { off, val }
    }
    fn member(key_off: usize, key: String, value: Self) -> Self::Member {
        (key_off, key, value)
    }
}

/// How deeply arrays and objects may nest. The reader recurses once per
/// level, so this is what keeps a body of `[[[[…` — well inside any body
/// cap — from overflowing the stack of the thread that parses it.
/// `/stats` nests 5 deep, the wire bodies 3.
pub const MAX_JSON_DEPTH: usize = 64;

const UNEXPECTED_END: &str = "unexpected end of input";
const UNTERMINATED_STRING: &str = "unterminated string";
const INVALID_UTF8: &str = "invalid UTF-8";

/// Why a text is not a JSON document the reader accepts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending construct (of the string's opening
    /// quote for string-level errors, of the opener that went one level
    /// too deep for the nesting cap).
    pub offset: usize,
    /// What was wrong there.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    /// `<message> at byte <offset>` — these texts go out in `400` bodies.
    /// The three end-of-input and string-level messages have always gone
    /// out bare, and still do.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message)?;
        match self.message {
            UNEXPECTED_END | UNTERMINATED_STRING | INVALID_UTF8 => Ok(()),
            _ => write!(f, " at byte {}", self.offset),
        }
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed) into a
/// plain [`JsonValue`].
pub fn parse_json(input: &str) -> Result<JsonValue, JsonError> {
    parse_json_as(input)
}

/// Parses a complete JSON document into whichever [`JsonTree`] the
/// caller decodes from.
pub fn parse_json_as<T: JsonTree>(input: &str) -> Result<T, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return err(pos, "trailing data");
    }
    Ok(value)
}

fn err<T>(offset: usize, message: &'static str) -> Result<T, JsonError> {
    Err(JsonError { offset, message })
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value; `depth` is the number of arrays and objects it
/// already sits inside.
fn parse_value<T: JsonTree>(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<T, JsonError> {
    skip_ws(bytes, pos);
    let off = *pos;
    match bytes.get(off) {
        None => err(off, UNEXPECTED_END),
        Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => err(off, "nesting too deep"),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(JsonNode::Str),
        Some(b't') => parse_literal(bytes, pos, "true", JsonNode::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonNode::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonNode::Null),
        Some(_) => parse_number(bytes, pos).map(JsonNode::Num),
    }
    .map(|node| T::value(off, node))
}

fn parse_literal<N>(bytes: &[u8], pos: &mut usize, lit: &str, node: N) -> Result<N, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(node)
    } else {
        err(*pos, "invalid literal")
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map_or(err(start, "invalid number"), Ok)
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    let start = *pos;
    if bytes.get(start) != Some(&b'"') {
        return err(start, "expected '\"'");
    }
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return err(start, UNTERMINATED_STRING),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).or(err(start, INVALID_UTF8));
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let c = parse_u_escape(bytes, pos)?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    _ => return err(*pos, "bad escape"),
                }
                *pos += 1;
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

/// Exactly four hex digits at `at` — no sign, no short form.
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    let digits = bytes.get(at..at + 4)?;
    digits
        .iter()
        .try_fold(0, |acc, &b| Some(acc * 16 + char::from(b).to_digit(16)?))
}

/// Decodes the `\u` escape whose `u` is at `*pos`, leaving `*pos` on its
/// last hex digit. A high surrogate followed by `\u` and a low surrogate
/// is one astral scalar (how `JSON.stringify` and Python's `json.dumps`
/// spell one); an unpaired surrogate of either half decodes to U+FFFD.
fn parse_u_escape(bytes: &[u8], pos: &mut usize) -> Result<char, JsonError> {
    let unit = hex4(bytes, *pos + 1).map_or(err(*pos, "bad \\u escape"), Ok)?;
    *pos += 4;
    if (0xd800..0xdc00).contains(&unit) && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u") {
        if let Some(low @ 0xdc00..=0xdfff) = hex4(bytes, *pos + 3) {
            *pos += 6;
            let scalar = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
            return Ok(char::from_u32(scalar).expect("a paired surrogate is a scalar"));
        }
    }
    Ok(char::from_u32(unit).unwrap_or('\u{fffd}'))
}

fn parse_array<T: JsonTree>(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
) -> Result<JsonNode<T>, JsonError> {
    *pos += 1; // the '[' parse_value saw
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonNode::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonNode::Arr(items));
            }
            _ => return err(*pos, "expected ',' or ']'"),
        }
    }
}

fn parse_object<T: JsonTree>(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
) -> Result<JsonNode<T>, JsonError> {
    *pos += 1; // the '{' parse_value saw
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonNode::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key_off = *pos;
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return err(*pos, "expected ':'");
        }
        *pos += 1;
        members.push(T::member(key_off, key, parse_value(bytes, pos, depth)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonNode::Obj(members));
            }
            _ => return err(*pos, "expected ',' or '}'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Metrics, Stage};
    use std::sync::atomic::Ordering;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak\t"), "\"line\\nbreak\\t\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn snapshot_renders_valid_looking_json() {
        let m = Metrics::new();
        m.record_stage(Stage::Total, 1_000);
        m.counters.queries.fetch_add(2, Ordering::Relaxed);
        m.record_stage(Stage::DeadlineOvershoot, 7_000);
        let json = m.snapshot().to_json();
        assert!(json.contains("\"total\": {\"count\":1"));
        assert!(json.contains("\"queries\": 2"));
        assert!(json.contains("\"deadline_overshoot\": {\"count\":1"));
        // Balanced braces/brackets — a cheap structural sanity check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_snapshot_still_renders() {
        let json = Metrics::new().snapshot().to_json();
        assert!(json.contains("\"counters\": {\n    \"cache_hit\": 0,"));
    }

    #[test]
    fn parser_handles_scalars_arrays_objects() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("-12.5e2").unwrap(), JsonValue::Num(-1250.0));
        assert_eq!(
            parse_json("\"a\\n\\\"b\\u0041\"").unwrap(),
            JsonValue::Str("a\n\"bA".to_string())
        );
        let v = parse_json("{\"xs\":[1,2,3],\"ok\":false}").unwrap();
        let xs = v.get("xs").unwrap().as_arr().unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].as_f64(), Some(3.0));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert!(v.get("missing").is_none());
        assert_eq!(v.as_obj().unwrap().len(), 2);
    }

    #[test]
    fn error_texts_are_the_ones_400_bodies_have_always_carried() {
        for (input, text) in [
            ("", "unexpected end of input"),
            ("\"open", "unterminated string"),
            ("{} x", "trailing data at byte 3"),
            ("{\"a\":1", "expected ',' or '}' at byte 6"),
            ("[1 2]", "expected ',' or ']' at byte 3"),
            ("{a:1}", "expected '\"' at byte 1"),
            ("{\"a\" 1}", "expected ':' at byte 5"),
            ("[1,2,]", "invalid number at byte 5"),
            ("nul", "invalid literal at byte 0"),
            ("\"\\x\"", "bad escape at byte 2"),
            ("\"\\u12\"", "bad \\u escape at byte 2"),
        ] {
            assert_eq!(parse_json(input).unwrap_err().to_string(), text);
        }
    }

    #[test]
    fn u_escapes_take_four_hex_digits_and_pair_surrogates() {
        for (input, want) in [
            (r#""\u00e9\u4E2D""#, "\u{e9}\u{4e2d}"),
            (r#""\ud83d\ude00""#, "\u{1f600}"),
            (r#""\uD840\uDC00x""#, "\u{20000}x"),
            // Unpaired halves stay U+FFFD, and what follows is kept.
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""\ud83dA""#, "\u{fffd}A"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
        ] {
            assert_eq!(
                parse_json(input),
                Ok(JsonValue::Str(want.into())),
                "{input}"
            );
        }
        for input in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\ud83d\u+c00""#,
        ] {
            let e = parse_json(input).unwrap_err();
            assert_eq!(e.message, "bad \\u escape", "{input}");
        }
    }

    #[test]
    fn writer_appends_escapes_digits_and_shortest_floats() {
        let mut out = String::from("[");
        push_json_str(&mut out, "a\u{7f}\u{1f}é\"");
        out.push(',');
        push_u64(&mut out, u64::MAX);
        out.push(',');
        push_u64(&mut out, 0);
        for v in [0.5, -0.0, 1e21, 1e-7, f64::NAN, f64::NEG_INFINITY] {
            out.push(',');
            push_f64(&mut out, v);
        }
        out.push(']');
        assert_eq!(
            out,
            "[\"a\u{7f}\\u001fé\\\"\",18446744073709551615,0,\
             0.5,-0,1000000000000000000000,0.0000001,0,0]"
        );
    }

    #[test]
    fn nesting_is_capped_at_the_same_opener_for_both_trees() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let nest = |n: usize| format!("{}1{}", open.repeat(n), close.repeat(n));
            let at_cap = nest(MAX_JSON_DEPTH);
            assert!(parse_json(&at_cap).is_ok());
            assert!(parse_json_as::<SpannedJson>(&at_cap).is_ok());
            let over = nest(MAX_JSON_DEPTH + 1);
            let want = JsonError {
                offset: MAX_JSON_DEPTH * open.len(),
                message: "nesting too deep",
            };
            assert_eq!(parse_json(&over), Err(want.clone()));
            assert_eq!(parse_json_as::<SpannedJson>(&over).err(), Some(want));
        }
        // What used to overflow the stack: openers only, far past the cap.
        let bomb = "[".repeat(100_000);
        assert_eq!(parse_json(&bomb).unwrap_err().offset, MAX_JSON_DEPTH);
    }

    #[test]
    fn snapshot_json_roundtrips_through_the_parser() {
        let m = Metrics::new();
        m.record_stage(Stage::Total, 2_000_000);
        m.counters.queries.fetch_add(1, Ordering::Relaxed);
        let doc = parse_json(&m.snapshot().to_json()).expect("self-emitted JSON parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["stages", "counters"]);
        let total = doc.get("stages").and_then(|s| s.get("total")).unwrap();
        assert_eq!(total.get("sum_ns").and_then(|v| v.as_f64()), Some(2e6));
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("queries"))
                .and_then(|v| v.as_f64()),
            Some(1.0)
        );
    }
}
