//! Snapshot persistence integration tests: a system restored from a
//! `.ltsx` snapshot must be observationally identical to a freshly built
//! one — query responses under every algorithm and `auto`, and
//! completions — and corrupted files or files of a retired format version
//! must surface typed errors, never panics.

use lotusx::{Algorithm, CorpusSource, LotusError, LotusX, QueryRequest, QueryResponse};
use lotusx_datagen::{queries, Dataset};
use lotusx_storage::StorageError;
use lotusx_twig::{execute, parse_query};
use std::path::PathBuf;

/// A scratch path under the OS temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join("lotusx-snapshot-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir.join(format!("{}-{name}", std::process::id())))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Canonical byte-stable rendering of a response (scores as raw bits) so
/// "bit-identical" is literal string equality.
fn canonical(r: &QueryResponse) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = write!(
        s,
        "total={};alg={:?};comp={:?};",
        r.total_matches, r.algorithm, r.completeness
    );
    for m in r.matches.iter() {
        let _ = write!(s, "[{:016x}", m.score.to_bits());
        for b in m.bindings {
            let _ = write!(s, ",b{}", b.index());
        }
        for o in m.output {
            let _ = write!(s, ",o{}", o.index());
        }
        let _ = write!(s, ",{:?}]", m.snippet);
    }
    s
}

/// Every observable probe of a system: per-algorithm and auto query
/// responses, and tag/value completion sweeps.
fn probes(system: &LotusX, ds: Dataset) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for q in queries::queries(ds) {
        for algo in Algorithm::ALL {
            let request = QueryRequest::twig(q.text).algorithm(algo);
            let rendered = match system.query(&request) {
                Ok(r) => canonical(&r),
                Err(e) => format!("error:{e}"),
            };
            out.push((format!("{}:{algo}", q.id), rendered));
        }
        let rendered = match system.query(&QueryRequest::twig(q.text)) {
            Ok(r) => canonical(&r),
            Err(e) => format!("error:{e}"),
        };
        out.push((format!("{}:auto", q.id), rendered));
    }
    let completion = system.completion_engine();
    for prefix in ["", "a", "t"] {
        let tags: Vec<String> = completion
            .complete_tag_global(prefix, 25)
            .into_iter()
            .map(|c| format!("{}={}", c.name, c.count))
            .collect();
        out.push((format!("tags:{prefix:?}"), tags.join(",")));
        let values: Vec<String> = completion
            .complete_value_global(prefix, 25)
            .into_iter()
            .map(|c| format!("{}={}", c.term, c.count))
            .collect();
        out.push((format!("values:{prefix:?}"), values.join(",")));
    }
    out
}

fn assert_equivalent(fresh: &LotusX, loaded: &LotusX, ds: Dataset) {
    let a = probes(fresh, ds);
    let b = probes(loaded, ds);
    assert_eq!(a.len(), b.len());
    for ((label, fresh_r), (_, loaded_r)) in a.iter().zip(b.iter()) {
        assert_eq!(fresh_r, loaded_r, "probe {label} diverged after reload");
    }
}

#[test]
fn loaded_snapshot_answers_bit_identically_on_every_dataset() {
    for ds in Dataset::ALL {
        // Start from an XML file (the cold-boot scenario the snapshot
        // replaces) so fresh build and snapshot load share the parser's
        // preorder node numbering; generator-built trees are free to
        // allocate ids in construction order, which the snapshot
        // canonicalizes away.
        let doc = lotusx_datagen::generate(ds, 1, 4242);
        let xml = Scratch::new(&format!("{ds}.xml"));
        std::fs::write(&xml.0, doc.to_xml()).unwrap();
        let fresh = LotusX::open(&CorpusSource::XmlFile(xml.0.clone())).unwrap();
        let path = Scratch::new(&format!("{ds}.ltsx"));
        fresh.save_snapshot(&path.0).unwrap();

        // Both open paths must agree: the explicit one and CorpusSource.
        let loaded = LotusX::open_snapshot(&path.0).unwrap();
        assert!(
            loaded.index().columns() == fresh.index().columns(),
            "{ds}: loaded columns (arenas, ranges, id-order flag) differ from the build's"
        );
        assert_equivalent(&fresh, &loaded, ds);
        let via_source = LotusX::open(&CorpusSource::Snapshot(path.0.clone())).unwrap();
        assert_equivalent(&fresh, &via_source, ds);
    }
}

#[test]
fn mixed_content_document_survives_the_roundtrip() {
    // Attributes and mixed text ride through the DOCUMENT section
    // byte-exactly. The parser skips the comment and the processing
    // instruction, so neither tree holds one.
    let xml = "<?xml version=\"1.0\"?><lib owner=\"t&amp;t\"><!-- a comment -->\
               <?render fast?><book id=\"b1\">intro <title lang=\"en\">Xml &lt;in&gt; practice</title>\
               tail</book><book id=\"b2\"><title>Graphs</title><empty/></book></lib>";
    let fresh = LotusX::load_str(xml).unwrap();
    let path = Scratch::new("mixed.ltsx");
    fresh.save_snapshot(&path.0).unwrap();
    let loaded = LotusX::open_snapshot(&path.0).unwrap();

    assert_eq!(
        fresh.index().document().to_xml(),
        loaded.index().document().to_xml(),
        "serialized document must be byte-identical"
    );
    let doc = loaded.index().document();
    assert_eq!(
        doc.to_xml(),
        "<lib owner=\"t&amp;t\"><book id=\"b1\">intro <title lang=\"en\">Xml &lt;in&gt; \
         practice</title>tail</book><book id=\"b2\"><title>Graphs</title><empty/></book></lib>"
    );
    // The root, six elements and four texts.
    assert_eq!(doc.node_count(), 11, "no comment or PI node");
    let q = QueryRequest::twig("//book/title");
    assert_eq!(
        canonical(&fresh.query(&q).unwrap()),
        canonical(&loaded.query(&q).unwrap())
    );
}

/// `contains` resolves through the term postings on the join path and
/// reads each element on the naive one: on a fresh build and on a loaded
/// snapshot alike, both give every needle shape the same answer.
#[test]
fn contains_through_the_postings_answers_like_naive_built_and_loaded() {
    let xml = r#"<lib>
        <book lang="Français"><title>Éclair recipes</title><note>foo<br/>bar</note></book>
        <book kind="rare gem"><title>XML Handbook</title><note>the xml handbook</note></book>
        <book><title>Data on the Web</title><note>intro <br/> tail words</note></book>
    </lib>"#;
    // Every predicate sits below the query root: naive binds its root
    // from the same stream and initial weights the join reads, and tests
    // any other node element by element.
    let cases = [
        // Multi-term needles: every term, in any order.
        (r#"//book[title ~ "handbook XML"]"#, 1),
        (r#"//book[note ~ "xml the"]/title"#, 1),
        // A term the index never saw, alone and beside a present one.
        (r#"//book[title ~ "nosuchterm"]"#, 0),
        (r#"//book[title ~ "xml nosuchterm"]"#, 0),
        // No terms: contained in everything.
        (r#"//book[title ~ "!!"]"#, 3),
        // Terms present only in attribute values.
        (r#"//lib[book ~ "gem"]"#, 1),
        (r#"//lib[book ~ "rare xml"]"#, 0),
        // Non-ASCII case folds, in text and in an attribute.
        (r#"//book[title ~ "ÉCLAIR"]"#, 1),
        (r#"//lib[book ~ "FRANÇAIS"]"#, 1),
        // Several text children: their direct text runs together.
        (r#"//book[note ~ "foobar"]"#, 1),
        (r#"//book[note ~ "foo"]"#, 0),
        (r#"//book[note ~ "tail intro"]"#, 1),
    ];
    let fresh = LotusX::load_str(xml).unwrap();
    let path = Scratch::new("contains.ltsx");
    fresh.save_snapshot(&path.0).unwrap();
    let loaded = LotusX::open_snapshot(&path.0).unwrap();
    for (q, want) in cases {
        let pattern = parse_query(q).unwrap();
        let oracle = execute(fresh.index(), &pattern, Algorithm::Naive);
        assert_eq!(oracle.len(), want, "{q}: naive count");
        for system in [&fresh, &loaded] {
            for algorithm in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
                let got = execute(system.index(), &pattern, algorithm);
                assert_eq!(got, oracle, "{q} via {algorithm}");
            }
        }
    }
}

#[test]
fn corrupted_snapshots_yield_typed_errors_not_panics() {
    let fresh = LotusX::open(&"@dblp:1:4242".parse::<CorpusSource>().unwrap()).unwrap();
    let path = Scratch::new("corrupt.ltsx");
    fresh.save_snapshot(&path.0).unwrap();
    let good = std::fs::read(&path.0).unwrap();
    assert!(good.len() > 64);

    // Flip one bit at a spread of offsets covering the header, every
    // section header region and payload interiors; each tampered file
    // must fail to open with a typed storage error.
    let step = (good.len() / 97).max(1);
    let tampered = Scratch::new("tampered.ltsx");
    for offset in (0..good.len()).step_by(step) {
        let mut bad = good.clone();
        bad[offset] ^= 0x10;
        std::fs::write(&tampered.0, &bad).unwrap();
        match LotusX::open_snapshot(&tampered.0) {
            Err(LotusError::Storage(_)) => {}
            Err(other) => panic!("offset {offset}: wrong error kind: {other}"),
            Ok(_) => panic!("offset {offset}: tampered snapshot opened"),
        }
    }

    // Truncations at every eighth of the file, plus an empty file.
    for i in 0..8 {
        let cut = good.len() * i / 8;
        std::fs::write(&tampered.0, &good[..cut]).unwrap();
        assert!(
            matches!(
                LotusX::open_snapshot(&tampered.0),
                Err(LotusError::Storage(_))
            ),
            "truncation at {cut} must fail with a storage error"
        );
    }

    // The retired layouts are refused at the version byte, before any
    // section is parsed: the good file relabelled (every byte after the
    // version would parse) and a bare header followed by garbage fail
    // alike, naming the version they claimed.
    for version in [1u8, 2, 3, 4, 5, 6, 7, 8] {
        let mut relabelled = good.clone();
        relabelled[4] = version;
        let bare = [&b"LTSX"[..], &[version, 0xff, 0xff, 0xff]].concat();
        for bytes in [relabelled, bare] {
            std::fs::write(&tampered.0, &bytes).unwrap();
            match LotusX::open_snapshot(&tampered.0) {
                Err(LotusError::Storage(StorageError::UnsupportedVersion(v))) => {
                    assert_eq!(v, version)
                }
                Err(other) => panic!("version {version}: wrong error kind: {other}"),
                Ok(_) => panic!("version {version}: retired layout opened"),
            }
        }
    }
}

/// A snapshot holds only `DOCUMENT`, `VALUES` and `TAG_TERMS`: a file
/// that also carries one of the sections version 6 stored beside them —
/// the tag streams (3), the DataGuide (6), the statistics (7) — is a
/// typed error naming the id, never read past.
#[test]
fn a_file_carrying_a_retired_section_is_a_typed_error() {
    let fresh = LotusX::open(&"@dblp:1:4242".parse::<CorpusSource>().unwrap()).unwrap();
    let path = Scratch::new("retired.ltsx");
    fresh.save_snapshot(&path.0).unwrap();
    let sections = lotusx_storage::read_snapshot_file(&path.0).unwrap();
    let ids: Vec<u64> = sections.iter().map(|s| s.id).collect();
    assert_eq!(ids, lotusx_storage::snapshot::section::KNOWN);
    let tampered = Scratch::new("retired-tampered.ltsx");
    for id in [3u64, 6, 7] {
        let mut bad = sections.clone();
        bad.push(lotusx_storage::Section { id, bytes: vec![0] });
        lotusx_storage::write_snapshot_file(&tampered.0, &bad).unwrap();
        match LotusX::open_snapshot(&tampered.0) {
            Err(LotusError::Storage(StorageError::UnknownSection(got))) => assert_eq!(got, id),
            Err(other) => panic!("section {id}: wrong error kind: {other}"),
            Ok(_) => panic!("section {id}: the snapshot opened"),
        }
    }
}

/// `VALUES` of `<r><a>x y x</a><b>x</b></r>` (elements 2 and 4, their
/// texts 3 and 5), every number one varint byte: the terms "x" (the gaps
/// 2, 2 to elements 2 and 4; one frequency above 1, 2 at position 0)
/// and "y" (element 2), then the exact keys "x" and "x y x", each empty
/// because it is its element's text (elements 4 and 2), then 2 content
/// elements. `forge` edits a copy before it is written.
fn forged_values(forge: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut bytes = vec![
        2, 1, b'x', 2, 2, 2, 1, 0, 2, // "x": [2, 4], tf 2 at position 0
        1, b'y', 1, 2, 0, // "y": [2]
        2, 0, 1, 4, // "x" → [4]
        0, 1, 2, // "x y x" → [2]
        2,
    ];
    forge(&mut bytes);
    bytes
}

/// A crafted `VALUES` that holds a fact out of its one canonical form —
/// a list not strictly increasing, a frequency out of order, past its
/// list or not above 1, a key stored beside the text it equals — is a
/// typed error, written with fresh checksums so the decoder, not the
/// framing, must refuse it.
#[test]
fn a_forged_value_index_is_a_typed_error() {
    let fresh = LotusX::load_str("<r><a>x y x</a><b>x</b></r>").unwrap();
    let path = Scratch::new("forged.ltsx");
    fresh.save_snapshot(&path.0).unwrap();
    let sections = lotusx_storage::read_snapshot_file(&path.0).unwrap();
    let values = |s: &lotusx_storage::Section| s.id == lotusx_storage::snapshot::section::VALUES;
    let at = sections.iter().position(values).unwrap();
    assert_eq!(
        sections[at].bytes,
        forged_values(|_| {}),
        "the layout above"
    );

    type Forge = fn(&mut Vec<u8>);
    let cases: &[(Forge, &str)] = &[
        // "x": gaps 2, 0 — element 2 twice.
        (|b| b[5] = 0, "value-index id gap is zero"),
        // "x": two frequencies, at positions 1 then 0.
        (
            |b| {
                b.splice(6..9, [2, 1, 2, 0, 2]);
            },
            "value-index tf positions not increasing",
        ),
        (|b| b[7] = 2, "value-index tf position past its list"),
        (|b| b[8] = 1, "value-index tf below 2"),
        // The key "x" written out although it is element 4's text.
        (
            |b| {
                b.splice(15..16, [1, b'x']);
            },
            "value-index exact key stored beside its text",
        ),
    ];
    let tampered = Scratch::new("forged-tampered.ltsx");
    for (forge, want) in cases {
        let mut bad = sections.clone();
        bad[at].bytes = forged_values(forge);
        lotusx_storage::write_snapshot_file(&tampered.0, &bad).unwrap();
        match LotusX::open_snapshot(&tampered.0) {
            Err(LotusError::Storage(StorageError::Corrupt(what))) => assert_eq!(what, *want),
            Err(other) => panic!("{want}: wrong error kind: {other}"),
            Ok(_) => panic!("{want}: the forged snapshot opened"),
        }
    }
}

/// `DOCUMENT` of `<r><a>x</a></r>`, every number one varint byte: the
/// symbols "r" and "a", four nodes of kinds document, element, element
/// and text, then per node its close count (0) and payload: `r` (symbol
/// 0, no attributes), `a` (symbol 1), the text "x". `forge` edits a copy
/// before it is written.
fn forged_document(forge: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut bytes = vec![
        2, 1, b'r', 1, b'a', // symbols
        4, 0, 1, 1, 2, // kinds
        0, 0, 0, // r
        0, 1, 0, // a
        0, 1, b'x', // "x"
    ];
    forge(&mut bytes);
    bytes
}

/// A document holds elements, attributes and text only: a crafted
/// `DOCUMENT` whose text is a node of kind 3 (once a comment, with its
/// text payload) or 4 (once a processing instruction, with a target and
/// data) is a typed error, written with fresh checksums so the decoder,
/// not the framing, must refuse it.
#[test]
fn a_forged_comment_or_pi_node_is_a_typed_error() {
    let fresh = LotusX::load_str("<r><a>x</a></r>").unwrap();
    let path = Scratch::new("forged-kind.ltsx");
    fresh.save_snapshot(&path.0).unwrap();
    let sections = lotusx_storage::read_snapshot_file(&path.0).unwrap();
    let document =
        |s: &lotusx_storage::Section| s.id == lotusx_storage::snapshot::section::DOCUMENT;
    let at = sections.iter().position(document).unwrap();
    assert_eq!(
        sections[at].bytes,
        forged_document(|_| {}),
        "the layout above"
    );

    type Forge = fn(&mut Vec<u8>);
    let cases: &[Forge] = &[
        |b| b[9] = 3,
        |b| {
            b[9] = 4;
            b.splice(17.., [1, b't', 1, b'd']);
        },
    ];
    let tampered = Scratch::new("forged-kind-tampered.ltsx");
    for (case, forge) in cases.iter().enumerate() {
        let mut bad = sections.clone();
        bad[at].bytes = forged_document(forge);
        lotusx_storage::write_snapshot_file(&tampered.0, &bad).unwrap();
        match LotusX::open_snapshot(&tampered.0) {
            Err(LotusError::Storage(StorageError::Corrupt(what))) => {
                assert_eq!(what, "unknown node kind", "case {case}")
            }
            Err(other) => panic!("case {case}: wrong error kind: {other}"),
            Ok(_) => panic!("case {case}: the forged snapshot opened"),
        }
    }
}

/// The statistics are derived from the loaded tree, so no stored count
/// can disagree with it: `//*` on a five-element corpus answers 5 and
/// `//bib//*` 4, fresh and loaded alike.
#[test]
fn a_loaded_wildcard_counts_every_element() {
    let fresh =
        LotusX::load_str("<bib><book><title>a</title><author>b</author></book><article/></bib>")
            .unwrap();
    let path = Scratch::new("wildcard.ltsx");
    fresh.save_snapshot(&path.0).unwrap();
    let loaded = LotusX::open_snapshot(&path.0).unwrap();
    for system in [&fresh, &loaded] {
        assert_eq!(system.index().stats().element_count, 5);
        for (q, want) in [("//*", 5), ("//bib//*", 4)] {
            let response = system.query(&QueryRequest::twig(q)).unwrap();
            assert_eq!(response.total_matches, want, "{q}");
        }
    }
}

#[test]
fn save_is_atomic_and_leaves_no_temp_files() {
    let dir = std::env::temp_dir().join(format!(
        "lotusx-snapshot-roundtrip-atomic-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("atomic.ltsx");

    let fresh = LotusX::open(&"@dblp:1:4242".parse::<CorpusSource>().unwrap()).unwrap();
    fresh.save_snapshot(&path).unwrap();
    // Overwrite in place: the rename must replace the old file whole.
    fresh.save_snapshot(&path).unwrap();
    assert!(LotusX::open_snapshot(&path).is_ok());

    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
