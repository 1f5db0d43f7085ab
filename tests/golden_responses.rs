//! Golden `/query` responses: FNV-1a of the wire-encoded answer to every
//! canonical and broken query of `lotusx-datagen` at scale 2. The hashes
//! were recorded on the commit before the flat `MatchSet` pipeline
//! landed, so a pass proves answers, scores, snippets and rewrites are
//! byte-identical across that change — and across any later one.
//!
//! On a deliberate answer change, the failure message prints the whole
//! table in source form; paste it over `GOLDEN`.

use lotusx::{Algorithm, LotusX, QueryRequest};
use lotusx_datagen::{generate, queries, Dataset};
use lotusx_serve::wire::encode_response;
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
    ("xmark-like/X4", 0xa50725e4ec17f752),
    ("xmark-like/X5", 0x3e186698d345547e),
    ("xmark-like/X6", 0x3cf6780ffe2ff925),
    ("xmark-like/R1", 0xc3867edab6789959),
    ("xmark-like/R2", 0x7d11d37ad759d4e2),
    ("xmark-like/R3", 0x12f4634e905f51b5),
    ("xmark-like/R4", 0x5ddcbfae3f8034d0),
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
    let matches = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|((id, h), (gid, gh))| id == gid && h == gh);
    if !matches {
        let table: String = got
            .iter()
            .map(|(id, h)| format!("    (\"{id}\", 0x{h:016x}),\n"))
            .collect();
        panic!(
            "wire responses moved; computed table:\nconst GOLDEN: &[(&str, u64)] = &[\n{table}];"
        );
    }
}
