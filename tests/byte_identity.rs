//! Byte-identity oracles for the document tree: FNV-1a of what the
//! benchmark's corpora and snapshots are made of, for every dataset at
//! scale 2. The hashes were recorded on the commit before the document
//! became struct-of-arrays columns with a byte arena, so a pass proves
//! that change (and any later one) serializes the same XML and writes
//! the same snapshot bytes:
//!
//! - `<dataset>/xml`: `generate(d, 2, seed).to_xml()`, the corpus file
//!   every XML-booted workload parses;
//! - `<dataset>/generated/<section>`: every `encode_sections` payload of
//!   the generator's own tree (ids need not ascend with document order,
//!   so the encoder's preorder remap is exercised);
//! - `<dataset>/parsed/ltsx`: the whole `.ltsx` file saved from the
//!   parsed text, value-trie section included — the file a snapshot boot
//!   opens and `snapshot_bytes_per_node` divides.
//!
//! On a deliberate format change, the failure message prints the whole
//! table in source form; paste it over `RECORDED`.

use lotusx::LotusX;
use lotusx_datagen::{generate, Dataset};
use lotusx_index::snapshot::encode_sections;
use lotusx_index::IndexedDocument;
use lotusx_storage::codec::fnv1a;

const SCALE: u32 = 2;
const SEED: u64 = 2012;

const RECORDED: &[(&str, u64)] = &[
    ("dblp-like/xml", 0x2af8c3d8bc47c652),
    ("dblp-like/generated/document", 0xaa9983e2aee0ee27),
    ("dblp-like/generated/labels", 0xf42d33e7552c75c2),
    ("dblp-like/generated/columns", 0x5eb5e5fd28e866f9),
    ("dblp-like/generated/values", 0x7043ef899f977fbf),
    ("dblp-like/generated/tries", 0x9b01d0f736402eec),
    ("dblp-like/generated/guide", 0x26a2b9a6cd91ab4b),
    ("dblp-like/generated/stats", 0xe1f5051d621438d2),
    ("dblp-like/parsed/ltsx", 0xc6c33872c9911441),
    ("xmark-like/xml", 0x7390d636741da3c1),
    ("xmark-like/generated/document", 0xbc8538d6b93ee2b9),
    ("xmark-like/generated/labels", 0x706baa193a01ffb1),
    ("xmark-like/generated/columns", 0xcf76ffbef3e290da),
    ("xmark-like/generated/values", 0x0e018935e98569f5),
    ("xmark-like/generated/tries", 0xaf2d12df64163ec5),
    ("xmark-like/generated/guide", 0x8500af68f1d12d6e),
    ("xmark-like/generated/stats", 0x480b0601346d8f1d),
    ("xmark-like/parsed/ltsx", 0xd70361fea81155ba),
    ("treebank-like/xml", 0x47cf283d30198078),
    ("treebank-like/generated/document", 0xdbbc15e5f05bb069),
    ("treebank-like/generated/labels", 0x2b1433aeaf9f1569),
    ("treebank-like/generated/columns", 0x74a88594dc6fc9b7),
    ("treebank-like/generated/values", 0xbde447300cb0ea2b),
    ("treebank-like/generated/tries", 0xe3fb6909b0b5b542),
    ("treebank-like/generated/guide", 0xba2dcc208a15c309),
    ("treebank-like/generated/stats", 0x9db234db892b1849),
    ("treebank-like/parsed/ltsx", 0x5606ba1ad3664592),
];

fn section_name(id: u64) -> &'static str {
    use lotusx_storage::snapshot::section;
    match id {
        section::DOCUMENT => "document",
        section::LABELS => "labels",
        section::COLUMNS => "columns",
        section::VALUES => "values",
        section::TRIES => "tries",
        section::GUIDE => "guide",
        section::STATS => "stats",
        section::VALUE_TRIES => "value_tries",
        _ => "unknown",
    }
}

#[test]
fn corpora_and_snapshots_match_the_recorded_hashes() {
    let mut got: Vec<(String, u64)> = Vec::new();
    let dir = std::env::temp_dir().join(format!("lotusx-byte-identity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for ds in Dataset::ALL {
        let xml = generate(ds, SCALE, SEED).to_xml();
        got.push((format!("{ds}/xml"), fnv1a(xml.as_bytes())));

        let built = IndexedDocument::build(generate(ds, SCALE, SEED));
        for s in encode_sections(&built) {
            let name = section_name(s.id);
            got.push((format!("{ds}/generated/{name}"), fnv1a(&s.bytes)));
        }
        drop(built);

        let path = dir.join(format!("{ds}.ltsx"));
        LotusX::load_str(&xml)
            .expect("generated XML parses")
            .save_snapshot(&path)
            .expect("snapshot saves");
        let file = std::fs::read(&path).unwrap();
        got.push((format!("{ds}/parsed/ltsx"), fnv1a(&file)));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let matches = got.len() == RECORDED.len()
        && got
            .iter()
            .zip(RECORDED)
            .all(|((id, h), (rid, rh))| id == rid && h == rh);
    if !matches {
        let table: String = got
            .iter()
            .map(|(id, h)| format!("    (\"{id}\", 0x{h:016x}),\n"))
            .collect();
        panic!(
            "document bytes moved; computed table:\nconst RECORDED: &[(&str, u64)] = &[\n{table}];"
        );
    }
}
