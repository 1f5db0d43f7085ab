//! The JSON wire format: decoding request bodies into engine types and
//! encoding engine responses back out.
//!
//! Encoding is **deterministic**: the same [`QueryResponse`] always
//! serializes to the same bytes (floats use Rust's shortest-roundtrip
//! formatting, keys are emitted in a fixed order, no timestamps). The
//! end-to-end test suite leans on this — a response served over a socket
//! must be byte-identical to the same request encoded in-process.

use lotusx::{
    Algorithm, Axis, Budget, ContextStep, NodeId, PositionContext, QueryRequest, QueryResponse,
    TagCandidate, ValueCandidate,
};
use lotusx_obs::{push_f64, push_f64_run, push_json_str, push_u64, JsonValue};
use std::fmt::Write;

/// Upper bound on `k`/`top_k` accepted over the wire, so one request
/// cannot ask the serializer to materialize an absurd result set.
pub const MAX_WIRE_TOP_K: usize = 10_000;

fn field_usize(v: &JsonValue, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(n) => {
            let f = n
                .as_f64()
                .ok_or_else(|| format!("{key} must be a number"))?;
            if !f.is_finite() || f < 0.0 || f.fract() != 0.0 {
                return Err(format!("{key} must be a non-negative integer"));
            }
            Ok(Some(f as usize))
        }
    }
}

fn field_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    Ok(field_usize(v, key)?.map(|n| n as u64))
}

fn field_str<'a>(v: &'a JsonValue, key: &str) -> Result<Option<&'a str>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(s) => s
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("{key} must be a string")),
    }
}

fn parse_axis(name: &str) -> Result<Axis, String> {
    match name {
        "child" => Ok(Axis::Child),
        "descendant" => Ok(Axis::Descendant),
        other => Err(format!("unknown axis {other:?} (child|descendant)")),
    }
}

/// Resolves an algorithm name (`naive`, `structural-join`, `auto`) from the
/// wire. `auto` (what an absent field means) runs the structural join.
pub fn parse_algorithm(name: &str) -> Result<Algorithm, String> {
    Algorithm::ALL
        .into_iter()
        .chain([Algorithm::Auto])
        .find(|a| a.name() == name)
        .ok_or_else(|| {
            let known: Vec<&str> = Algorithm::ALL
                .iter()
                .map(|a| a.name())
                .chain(["auto"])
                .collect();
            format!("unknown algorithm {name:?} (one of {})", known.join(", "))
        })
}

/// Decodes a `POST /query` body into a [`QueryRequest`].
///
/// Accepted fields: `text` (required), `kind` (`"twig"`|`"keyword"`,
/// default twig), `top_k`, `algorithm`, `deadline_ms`, `profile`, and
/// `budget` — an object with optional `nodes` / `candidates` quotas.
pub fn decode_query(v: &JsonValue) -> Result<QueryRequest, String> {
    if v.as_obj().is_none() {
        return Err("request body must be a JSON object".to_string());
    }
    let text = field_str(v, "text")?.ok_or("missing required field `text`")?;
    let mut request = match field_str(v, "kind")? {
        None | Some("twig") => QueryRequest::twig(text),
        Some("keyword") => QueryRequest::keyword(text),
        Some(other) => return Err(format!("unknown kind {other:?} (twig|keyword)")),
    };
    if let Some(k) = field_usize(v, "top_k")? {
        if k > MAX_WIRE_TOP_K {
            return Err(format!("top_k above the wire cap of {MAX_WIRE_TOP_K}"));
        }
        request = request.top_k(k);
    }
    if let Some(name) = field_str(v, "algorithm")? {
        request = request.algorithm(parse_algorithm(name)?);
    }
    let mut budget = Budget::unlimited();
    if let Some(spec) = v.get("budget") {
        if !matches!(spec, JsonValue::Null) {
            if spec.as_obj().is_none() {
                return Err("budget must be an object".to_string());
            }
            if let Some(n) = field_u64(spec, "nodes")? {
                budget = budget.with_node_quota(n);
            }
            if let Some(n) = field_u64(spec, "candidates")? {
                budget = budget.with_candidate_quota(n);
            }
        }
    }
    if let Some(ms) = field_u64(v, "deadline_ms")? {
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
    }
    request = request.budget(budget);
    if let Some(p) = v.get("profile") {
        request = request.profiled(
            p.as_bool()
                .ok_or_else(|| "profile must be a boolean".to_string())?,
        );
    }
    Ok(request)
}

/// Encodes a [`QueryResponse`] as one compact JSON line, appended row by
/// row into one buffer sized for the answer up front; a run of tied
/// scores is formatted once ([`push_f64_run`]).
pub fn encode_response(response: &QueryResponse) -> String {
    let row_bytes: usize = (response.matches.iter())
        .map(|m| 80 + m.snippet.len() + 11 * (m.bindings.len() + m.output.len()))
        .sum();
    let mut out = String::with_capacity(256 + row_bytes);
    out.push_str("{\"total_matches\":");
    push_u64(&mut out, response.total_matches as u64);
    out.push_str(if response.completeness.is_complete() {
        ",\"completeness\":\"complete\",\"truncation_reason\":"
    } else {
        ",\"completeness\":\"truncated\",\"truncation_reason\":"
    });
    match response.completeness.truncation_reason() {
        Some(reason) => push_json_str(&mut out, reason.name()),
        None => out.push_str("null"),
    }
    match &response.rewrite {
        Some(info) => {
            // The pattern exists only as `Display`; writing into a
            // `String` cannot fail.
            let mut pattern = String::new();
            let _ = write!(pattern, "{}", info.pattern);
            out.push_str(",\"rewrite\":{\"pattern\":");
            push_json_str(&mut out, &pattern);
            out.push_str(",\"cost\":");
            push_f64(&mut out, info.cost);
            out.push_str(",\"ops\":[");
            for (i, op) in info.ops.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, op);
            }
            out.push_str("]},");
        }
        None => out.push_str(",\"rewrite\":null,"),
    }
    out.push_str("\"matches\":[");
    let mut score_run = Default::default();
    for (i, m) in response.matches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"score\":");
        push_f64_run(&mut out, m.score, &mut score_run);
        out.push_str(",\"bindings\":[");
        push_node_ids(&mut out, m.bindings);
        out.push_str("],\"output\":[");
        push_node_ids(&mut out, m.output);
        out.push_str("],\"snippet\":");
        push_json_str(&mut out, m.snippet);
        out.push('}');
    }
    out.push_str("],\"profile\":");
    match &response.profile {
        Some(profile) => push_json_str(&mut out, &profile.render()),
        None => out.push_str("null"),
    }
    out.push_str("}\n");
    out
}

/// Appends node ids as comma-separated decimal indexes.
fn push_node_ids(out: &mut String, nodes: &[NodeId]) {
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, n.index() as u64);
    }
}

/// A decoded `POST /complete` body.
#[derive(Clone, Debug)]
pub enum CompleteRequest {
    /// Position-aware tag completion at a structural context.
    Tag {
        /// Where the focused node sits (unconstrained when omitted).
        context: PositionContext,
        /// The typed prefix.
        prefix: String,
        /// Maximum candidates to return.
        k: usize,
    },
    /// Value completion under one tag.
    Value {
        /// The tag whose text values are completed.
        tag: String,
        /// The typed prefix.
        prefix: String,
        /// Maximum candidates to return.
        k: usize,
    },
}

/// Decodes a `POST /complete` body.
///
/// Accepted fields: `kind` (`"tag"`|`"value"`, default tag), `prefix`
/// (default empty), `k` (default 10), `tag` (required for value
/// completion), and for tag completion an optional `context`:
/// `{"steps":[{"tag":"book"|null,"axis":"child"|"descendant"},…],
///   "axis":"child"|"descendant"}`.
pub fn decode_complete(v: &JsonValue) -> Result<CompleteRequest, String> {
    if v.as_obj().is_none() {
        return Err("request body must be a JSON object".to_string());
    }
    let prefix = field_str(v, "prefix")?.unwrap_or_default().to_string();
    let k = match field_usize(v, "k")? {
        Some(k) if k > MAX_WIRE_TOP_K => {
            return Err(format!("k above the wire cap of {MAX_WIRE_TOP_K}"))
        }
        Some(k) => k,
        None => 10,
    };
    match field_str(v, "kind")? {
        None | Some("tag") => {
            let context = match v.get("context") {
                None | Some(JsonValue::Null) => PositionContext::unconstrained(),
                Some(ctx) => decode_context(ctx)?,
            };
            Ok(CompleteRequest::Tag { context, prefix, k })
        }
        Some("value") => {
            let tag = field_str(v, "tag")?
                .ok_or("value completion requires a `tag` field")?
                .to_string();
            Ok(CompleteRequest::Value { tag, prefix, k })
        }
        Some(other) => Err(format!("unknown kind {other:?} (tag|value)")),
    }
}

fn decode_context(v: &JsonValue) -> Result<PositionContext, String> {
    if v.as_obj().is_none() {
        return Err("context must be an object".to_string());
    }
    let mut steps = Vec::new();
    if let Some(raw) = v.get("steps") {
        let items = raw
            .as_arr()
            .ok_or_else(|| "context.steps must be an array".to_string())?;
        for step in items {
            if step.as_obj().is_none() {
                return Err("each context step must be an object".to_string());
            }
            steps.push(ContextStep {
                tag: field_str(step, "tag")?.map(str::to_string),
                axis: match field_str(step, "axis")? {
                    Some(name) => parse_axis(name)?,
                    None => Axis::Child,
                },
            });
        }
    }
    let axis_to_focus = match field_str(v, "axis")? {
        Some(name) => parse_axis(name)?,
        None => Axis::Descendant,
    };
    Ok(PositionContext {
        steps,
        axis_to_focus,
    })
}

/// Encodes tag-completion candidates.
pub fn encode_tag_candidates(candidates: &[TagCandidate]) -> String {
    encode_candidates(candidates.iter().map(|c| (c.name.as_str(), c.count)))
}

/// Encodes value-completion candidates.
pub fn encode_value_candidates(candidates: &[ValueCandidate]) -> String {
    encode_candidates(candidates.iter().map(|c| (c.term.as_str(), c.count)))
}

fn encode_candidates<'a>(items: impl Iterator<Item = (&'a str, u64)> + Clone) -> String {
    let bytes: usize = items.clone().map(|(term, _)| 48 + term.len()).sum();
    let mut out = String::with_capacity(16 + bytes);
    out.push_str("{\"candidates\":[");
    for (i, (term, count)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"term\":");
        push_json_str(&mut out, term);
        out.push_str(",\"count\":");
        push_u64(&mut out, count);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotusx_obs::parse_json;

    #[test]
    fn decode_query_minimal_and_full() {
        let v = parse_json(r#"{"text":"//book/title"}"#).unwrap();
        let req = decode_query(&v).unwrap();
        assert_eq!(req.text, "//book/title");
        assert!(matches!(req.kind, lotusx::QueryKind::Twig));
        assert!(req.budget.is_unlimited());

        let v = parse_json(
            r#"{"text":"xml data","kind":"keyword","top_k":5,"deadline_ms":20,
                "budget":{"nodes":1000,"candidates":50},"profile":true}"#,
        )
        .unwrap();
        let req = decode_query(&v).unwrap();
        assert!(matches!(req.kind, lotusx::QueryKind::Keyword));
        assert_eq!(req.top_k, Some(5));
        assert_eq!(req.budget.node_quota, Some(1000));
        assert_eq!(req.budget.candidate_quota, Some(50));
        assert!(req.budget.deadline.is_some());
        assert!(req.profile);
    }

    #[test]
    fn decode_query_rejects_bad_fields() {
        for body in [
            r#"[1,2]"#,
            r#"{"kind":"twig"}"#,
            r#"{"text":"//a","kind":"sql"}"#,
            r#"{"text":"//a","top_k":-1}"#,
            r#"{"text":"//a","top_k":1.5}"#,
            r#"{"text":"//a","algorithm":"quantum"}"#,
            r#"{"text":"//a","budget":3}"#,
            r#"{"text":"//a","profile":"yes"}"#,
            r#"{"text":"//a","top_k":100000}"#,
        ] {
            let v = parse_json(body).unwrap();
            assert!(decode_query(&v).is_err(), "{body}");
        }
    }

    #[test]
    fn decode_complete_variants() {
        let v = parse_json(r#"{"prefix":"ti","k":3}"#).unwrap();
        match decode_complete(&v).unwrap() {
            CompleteRequest::Tag { context, prefix, k } => {
                assert!(context.is_unconstrained());
                assert_eq!(prefix, "ti");
                assert_eq!(k, 3);
            }
            other => panic!("expected tag completion, got {other:?}"),
        }

        let v = parse_json(
            r#"{"kind":"tag","prefix":"t",
                "context":{"steps":[{"tag":"book","axis":"child"},{"tag":null}],"axis":"child"}}"#,
        )
        .unwrap();
        match decode_complete(&v).unwrap() {
            CompleteRequest::Tag { context, .. } => {
                assert_eq!(context.steps.len(), 2);
                assert_eq!(context.steps[0].tag.as_deref(), Some("book"));
                assert_eq!(context.steps[1].tag, None);
                assert_eq!(context.axis_to_focus, Axis::Child);
            }
            other => panic!("expected tag completion, got {other:?}"),
        }

        let v = parse_json(r#"{"kind":"value","tag":"title","prefix":"x"}"#).unwrap();
        assert!(matches!(
            decode_complete(&v).unwrap(),
            CompleteRequest::Value { .. }
        ));
        let v = parse_json(r#"{"kind":"value","prefix":"x"}"#).unwrap();
        assert!(decode_complete(&v).is_err(), "value needs a tag");
    }

    #[test]
    fn encoded_response_is_valid_json() {
        let system = lotusx::LotusX::load_str(
            "<bib><book><title>Data</title></book><book><title>XML</title></book></bib>",
        )
        .unwrap();
        let response = system.query(&QueryRequest::twig("//book/title")).unwrap();
        let encoded = encode_response(&response);
        let doc = parse_json(&encoded).expect("self-emitted JSON parses");
        assert_eq!(doc.get("total_matches").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(
            doc.get("completeness").and_then(|v| v.as_str()),
            Some("complete")
        );
        assert_eq!(
            doc.get("matches").and_then(|v| v.as_arr()).unwrap().len(),
            2
        );
        // Encoding is deterministic: same response, same bytes.
        assert_eq!(encoded, encode_response(&response));
    }
}
