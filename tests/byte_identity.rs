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
//!   the generator's own tree (the xmark generator draws every item
//!   before it appends them in preorder, grouped under their regions);
//! - `<dataset>/parsed/ltsx`: the whole `.ltsx` file saved from the
//!   parsed text — the file a snapshot boot opens and
//!   `snapshot_bytes_per_node` divides.
//!
//! The three `ltsx` rows were re-recorded when format version 7 stopped
//! storing the tag streams, DataGuide and statistics; every `xml` and
//! section row kept its hash, so the sections still stored did not move.
//! The three `document` rows and the three `ltsx` rows were re-recorded
//! when format version 8 replaced `DOCUMENT`'s `u32` parent column with
//! a close count per node; every `xml`, `values` and `tag_terms` row
//! kept its hash, so the tree, the value index and the term counts did
//! not move — the generators' trees included, the xmark one renumbered
//! into preorder. The three `values` rows and the three `ltsx` rows were
//! re-recorded when format version 9 gap-coded the value lists, kept only
//! the frequencies above 1, pointed exact keys at their elements' text
//! and stopped storing the numeric index; every `xml`, `document` and
//! `tag_terms` row kept its hash. Every row kept its hash when the xmark
//! generator stopped renumbering a tree assembled out of order and
//! appended it in preorder instead.
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
    ("dblp-like/generated/document", 0x6fb829123f809b79),
    ("dblp-like/generated/values", 0xd0ce5eb8915a5418),
    ("dblp-like/generated/tag_terms", 0xd1d79684d8cc036a),
    ("dblp-like/parsed/ltsx", 0xd892323a7f1f8d09),
    ("xmark-like/xml", 0x7390d636741da3c1),
    ("xmark-like/generated/document", 0x4c9119cc5d160eac),
    ("xmark-like/generated/values", 0x2a812fed7b12a5ab),
    ("xmark-like/generated/tag_terms", 0x6a13fab6c1241350),
    ("xmark-like/parsed/ltsx", 0xf21d73070bb96eb0),
    ("treebank-like/xml", 0x47cf283d30198078),
    ("treebank-like/generated/document", 0xd6f2d8c7681b683b),
    ("treebank-like/generated/values", 0xffdf6f17fb89a544),
    ("treebank-like/generated/tag_terms", 0x97a7d6985ceea8b9),
    ("treebank-like/parsed/ltsx", 0xc1c4647910f0d191),
];

fn section_name(id: u64) -> &'static str {
    use lotusx_storage::snapshot::section;
    match id {
        section::DOCUMENT => "document",
        section::VALUES => "values",
        section::TAG_TERMS => "tag_terms",
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
