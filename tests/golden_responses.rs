//! Golden `/query` responses: FNV-1a of the wire-encoded answer to every
//! canonical and broken query of `lotusx-datagen` at scale 2. The hashes
//! were recorded on the commit before the flat `MatchSet` pipeline
//! landed, so a pass proves answers, scores, snippets and rewrites are
//! byte-identical across that change — and across any later one.
//!
//! Two rows, `xmark-like/X4` and `xmark-like/R4`, were re-recorded when
//! documents became preorder-only: the xmark generator creates its
//! regions lazily, out of document order, and its tree has since been
//! numbered in preorder (first renumbered, now appended in preorder once
//! every item is drawn), so the item ids these two answers bind moved.
//! Their new hashes are the ones the commit before gave for the same
//! queries over the parsed corpus, whose ids were already the preorder.
//!
//! `EDGES` pins what `GOLDEN` does not reach, recorded on the commit
//! before the append-only JSON writer replaced the `format!` encoders:
//! `/complete` tag and value candidates, truncated answers, `top_k` at
//! both ends of the wire range, and an error body that needs escaping.
//!
//! `KEYWORDS` pins keyword answers — SLCA set, order and `HitScorer`
//! scores — on the same corpora, a single term and a pair per dataset,
//! recorded when the table was added.
//!
//! On a deliberate answer change, the failure message prints the whole
//! table in source form; paste it over `GOLDEN` (or `EDGES`, `KEYWORDS`).

use lotusx::{Algorithm, Axis, Budget, LotusX, PositionContext, QueryRequest};
use lotusx_datagen::{generate, queries, Dataset};
use lotusx_serve::http::encode_error;
use lotusx_serve::wire::{
    encode_response, encode_tag_candidates, encode_value_candidates, MAX_WIRE_TOP_K,
};
use lotusx_storage::codec::fnv1a;

const SCALE: u32 = 2;
const SEED: u64 = 2012;

const GOLDEN: &[(&str, u64)] = &[
    ("dblp-like/D1", 0x2927dadec7b0e6fa),
    ("dblp-like/D2", 0xb67ec06d9992a0d2),
    ("dblp-like/D3", 0x067498cb84799efd),
    ("dblp-like/D4", 0xbc46a4c41c2575b9),
    ("dblp-like/D5", 0x2467a0b21293dcd6),
    ("dblp-like/D6", 0x31acf604f36351cd),
    ("dblp-like/R1", 0x542492df585f575e),
    ("dblp-like/R2", 0xbc9d27b9d5a6e8f3),
    ("dblp-like/R3", 0x7cd6f7f7c5abcdf8),
    ("dblp-like/R4", 0x71c06ca31d398d66),
    ("dblp-like/R5", 0x6b900b792976f380),
    ("xmark-like/X1", 0x144675add6b4af1f),
    ("xmark-like/X2", 0x2ee8c863de41f713),
    ("xmark-like/X3", 0xe56a5ae8211858a0),
    ("xmark-like/X4", 0xb4e6b915c685de29),
    ("xmark-like/X5", 0x3e186698d345547e),
    ("xmark-like/X6", 0x3cf6780ffe2ff925),
    ("xmark-like/R1", 0xc3867edab6789959),
    ("xmark-like/R2", 0x7d11d37ad759d4e2),
    ("xmark-like/R3", 0x12f4634e905f51b5),
    ("xmark-like/R4", 0x69cef979fc9c4d65),
    ("xmark-like/R5", 0x575ca7de9abda8db),
    ("treebank-like/T1", 0x7b4d9b4134ae5690),
    ("treebank-like/T2", 0xe6b8e81599c7a541),
    ("treebank-like/T3", 0x2a2f79ad509f5988),
    ("treebank-like/T4", 0x3ab054986d8f9227),
    ("treebank-like/T5", 0xfc4240770e34d64c),
    ("treebank-like/T6", 0x9884a648170506d7),
    ("treebank-like/R1", 0x052763da19009627),
    ("treebank-like/R2", 0x4748c99695058873),
    ("treebank-like/R3", 0x1ae41b1ba3a2729a),
    ("treebank-like/R4", 0xf8d4971161ac3a2b),
    ("treebank-like/R5", 0x12a2b81baad4f136),
];

#[test]
fn wire_responses_match_the_recorded_hashes() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for ds in Dataset::ALL {
        let sys = LotusX::load_document(generate(ds, SCALE, SEED));
        let canonical = queries::queries(ds).iter().map(|q| (q.id, q.text));
        let broken = queries::broken_queries(ds).iter().map(|q| (q.id, q.text));
        for (id, text) in canonical.chain(broken) {
            let auto = sys
                .query(&QueryRequest::twig(text).algorithm(Algorithm::Auto))
                .expect("datagen queries parse");
            let body = encode_response(&auto);
            // The pinned default and the chooser answer identically, so
            // one hash covers both.
            let pinned = sys.query(&QueryRequest::twig(text)).expect("parses");
            assert_eq!(encode_response(&pinned), body, "{ds} {id}: auto != pinned");
            got.push((format!("{ds}/{id}"), fnv1a(body.as_bytes())));
        }
    }
    check("GOLDEN", &got, GOLDEN);
}

const EDGES: &[(&str, u64)] = &[
    ("dblp-like/tags", 0xb47776131f394baa),
    ("dblp-like/values", 0x26eb1c37ab2d399d),
    ("dblp-like/nodes-0", 0x91160ded3959fae4),
    ("dblp-like/candidates-5", 0xe548a348c3a1cc36),
    ("dblp-like/top_k-0", 0xc328a50967d6aca8),
    ("dblp-like/top_k-max", 0x85725ac7602cf799),
    ("xmark-like/tags", 0x25ff53eb1f86df91),
    ("xmark-like/values", 0x6f89f59659c9e038),
    ("xmark-like/nodes-0", 0x91160ded3959fae4),
    ("xmark-like/candidates-5", 0xa342fe4621da4715),
    ("xmark-like/top_k-0", 0xc565cb7d130d74b3),
    ("xmark-like/top_k-max", 0x759bcd7e04e52c0d),
    ("treebank-like/tags", 0xea57a8a8bc0f1434),
    ("treebank-like/values", 0x0aa6a0498c1d842d),
    ("treebank-like/nodes-0", 0x91160ded3959fae4),
    ("treebank-like/candidates-5", 0x503224ee4cb6fe68),
    ("treebank-like/top_k-0", 0x835ecc6cac0e3cb4),
    ("treebank-like/top_k-max", 0x7bc8ead6fadd9c3a),
    ("error-escapes", 0xbd9e86afe0437509),
];

#[test]
fn completions_truncations_and_errors_match_the_recorded_hashes() {
    let mut got: Vec<(String, u64)> = Vec::new();
    let mut record = |id: String, body: &[u8]| got.push((id, fnv1a(body)));
    for ds in Dataset::ALL {
        let sys = LotusX::load_document(generate(ds, SCALE, SEED));
        let completion = sys.completion_engine();
        let (mut tags, mut values) = (String::new(), String::new());
        for trace in queries::completion_traces(ds) {
            let ctx = PositionContext::from_tag_path(trace.context_path, Axis::Child);
            for prefix in ["", &trace.intended[..1]] {
                tags.push_str(&encode_tag_candidates(
                    &completion.complete_tag(&ctx, prefix, 10),
                ));
                values.push_str(&encode_value_candidates(&completion.complete_value(
                    trace.intended,
                    prefix,
                    10,
                )));
            }
        }
        record(format!("{ds}/tags"), tags.as_bytes());
        record(format!("{ds}/values"), values.as_bytes());

        let text = queries::queries(ds)[0].text;
        let run = |request: QueryRequest| sys.query(&request).expect("parses");
        let budget = Budget::unlimited();
        let starved = run(QueryRequest::twig(text).budget(budget.clone().with_node_quota(0)));
        assert!(!starved.completeness.is_complete(), "{ds}: node quota 0");
        let partial = run(QueryRequest::twig(text).budget(budget.with_candidate_quota(5)));
        assert!(
            !partial.completeness.is_complete() && !partial.matches.is_empty(),
            "{ds}: candidate quota 5 leaves a partial answer"
        );
        for (id, response) in [
            ("nodes-0", starved),
            ("candidates-5", partial),
            ("top_k-0", run(QueryRequest::twig(text).top_k(0))),
            (
                "top_k-max",
                run(QueryRequest::twig(text).top_k(MAX_WIRE_TOP_K)),
            ),
        ] {
            record(format!("{ds}/{id}"), encode_response(&response).as_bytes());
        }
    }
    record(
        "error-escapes".to_string(),
        &encode_error(400, "bad \"x\" at C:\\dir\u{1}\u{1f}\t\n end"),
    );
    check("EDGES", &got, EDGES);
}

/// The keyword requests `KEYWORDS` pins, per dataset.
fn keyword_texts(ds: Dataset) -> [&'static str; 2] {
    match ds {
        Dataset::DblpLike => ["graph data", "xml"],
        Dataset::XmarkLike => ["query index", "data"],
        Dataset::TreebankLike => ["twig join", "tree"],
    }
}

const KEYWORDS: &[(&str, u64)] = &[
    ("dblp-like/graph data", 0x79eb461cc552322f),
    ("dblp-like/xml", 0x5e14a09bc7ff80fe),
    ("xmark-like/query index", 0x585584222e19c3ae),
    ("xmark-like/data", 0x9c79c6a55c905071),
    ("treebank-like/twig join", 0xf246bc0d007cd9cc),
    ("treebank-like/tree", 0xbe29bc44fb8f5d35),
];

#[test]
fn keyword_responses_match_the_recorded_hashes() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for ds in Dataset::ALL {
        let sys = LotusX::load_document(generate(ds, SCALE, SEED));
        for text in keyword_texts(ds) {
            let response = sys.query(&QueryRequest::keyword(text)).expect("parses");
            assert!(!response.matches.is_empty(), "{ds} {text:?}: no hit");
            let body = encode_response(&response);
            got.push((format!("{ds}/{text}"), fnv1a(body.as_bytes())));
        }
    }
    check("KEYWORDS", &got, KEYWORDS);
}

/// Panics with the computed table in source form unless `got` is `want`.
fn check(name: &str, got: &[(String, u64)], want: &[(&str, u64)]) {
    let matches = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((id, h), (gid, gh))| id == gid && h == gh);
    if !matches {
        let table: String = got
            .iter()
            .map(|(id, h)| format!("    (\"{id}\", 0x{h:016x}),\n"))
            .collect();
        panic!(
            "wire responses moved; computed table:\nconst {name}: &[(&str, u64)] = &[\n{table}];"
        );
    }
}
