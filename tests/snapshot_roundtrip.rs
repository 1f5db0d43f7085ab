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
    // Comments, processing instructions, attributes and mixed text all
    // ride through the DOCUMENT section byte-exactly.
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
    for version in [1u8, 2, 3, 4, 5] {
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

/// The `COLUMNS` arenas of a saved snapshot, located: `n` elements,
/// then per tag stream its arena offset and length.
struct Columns {
    bytes: Vec<u8>,
    n: usize,
    /// Where the `starts` column begins (after the length varint).
    at: usize,
    streams: Vec<(usize, usize)>,
}

impl Columns {
    fn of(sections: &[lotusx_storage::Section]) -> Self {
        use lotusx_storage::codec::get_varint;
        let id = lotusx_storage::snapshot::section::COLUMNS;
        let bytes = sections.iter().find(|s| s.id == id).unwrap().bytes.clone();
        let mut pos = 0;
        let n = get_varint(&bytes, &mut pos).unwrap() as usize;
        let at = pos;
        pos += 14 * n;
        let count = get_varint(&bytes, &mut pos).unwrap();
        let mut offset = 0;
        let streams = (0..count)
            .map(|_| {
                let len = get_varint(&bytes, &mut pos).unwrap() as usize;
                offset += len;
                (offset - len, len)
            })
            .collect();
        Columns {
            bytes,
            n,
            at,
            streams,
        }
    }

    /// Byte offset of entry `i` of the column that begins `column · n`
    /// bytes into the arenas (starts 0, ends 4, levels 8, nodes 10), its
    /// entries `width` bytes wide.
    fn field(&self, column: usize, width: usize, i: usize) -> usize {
        self.at + column * self.n + width * i
    }

    fn u32_at(&self, at: usize) -> u32 {
        u32::from_le_bytes(self.bytes[at..at + 4].try_into().unwrap())
    }

    fn add(&mut self, at: usize, delta: u8) {
        self.bytes[at] = self.bytes[at].wrapping_add(delta);
    }

    fn swap_u32(&mut self, a: usize, b: usize) {
        for k in 0..4 {
            self.bytes.swap(a + k, b + k);
        }
    }
}

/// `COLUMNS` is the only stored copy of the regions, so a load proves it
/// against the document: a snapshot re-framed with fresh checksums
/// around one changed start, end or level, one region moved whole, two
/// swapped nodes of one stream, or an element held twice, opens to a
/// typed error naming what disagrees — never a panic.
#[test]
fn a_region_store_that_disagrees_with_the_document_is_a_typed_error() {
    let fresh = LotusX::open(&"@dblp:1:4242".parse::<CorpusSource>().unwrap()).unwrap();
    let path = Scratch::new("regions.ltsx");
    fresh.save_snapshot(&path.0).unwrap();
    let sections = lotusx_storage::read_snapshot_file(&path.0).unwrap();
    let columns = Columns::of(&sections);
    // A stream of several elements, and an element of another stream.
    let &(first, len) = columns.streams.iter().find(|(_, len)| *len > 2).unwrap();
    let other = columns
        .streams
        .iter()
        .find(|(o, l)| *l > 0 && *o != first)
        .unwrap()
        .0;
    let i = first + len / 2;
    type Tamper = Box<dyn Fn(&mut Columns)>;
    let cases: Vec<(&str, Tamper, &str)> = vec![
        (
            "one start",
            Box::new(move |c| c.add(c.field(0, 4, i), 2)),
            "column region disagrees with the document",
        ),
        (
            "one end",
            Box::new(move |c| c.add(c.field(4, 4, i), 2)),
            "column region disagrees with the document",
        ),
        (
            "one region shifted, its size kept",
            Box::new(move |c| {
                c.add(c.field(0, 4, i), 2);
                c.add(c.field(4, 4, i), 2);
            }),
            "column region disagrees with the document",
        ),
        (
            "one level",
            Box::new(move |c| c.add(c.field(8, 2, i), 1)),
            "column region disagrees with the document",
        ),
        (
            "two nodes of one stream swapped",
            Box::new(move |c| c.swap_u32(c.field(10, 4, i), c.field(10, 4, i + 1))),
            "tag stream not in document order",
        ),
        (
            "an element in two streams",
            Box::new(move |c| {
                let node = c.u32_at(c.field(10, 4, other));
                let at = c.field(10, 4, i);
                c.bytes[at..at + 4].copy_from_slice(&node.to_le_bytes());
            }),
            "element in two tag streams",
        ),
    ];
    let tampered = Scratch::new("regions-tampered.ltsx");
    for (name, tamper, error) in cases {
        let mut c = Columns::of(&sections);
        tamper(&mut c);
        let mut bad = sections.clone();
        let id = lotusx_storage::snapshot::section::COLUMNS;
        bad.iter_mut().find(|s| s.id == id).unwrap().bytes = c.bytes;
        lotusx_storage::write_snapshot_file(&tampered.0, &bad).unwrap();
        match LotusX::open_snapshot(&tampered.0) {
            Err(LotusError::Storage(StorageError::Corrupt(what))) => {
                assert_eq!(what, error, "{name}")
            }
            Err(other) => panic!("{name}: wrong error kind: {other}"),
            Ok(_) => panic!("{name}: the tampered snapshot opened"),
        }
    }
}

/// The `GUIDE` section of a saved snapshot, parsed: per guide node its
/// stored fields (tag and parent shifted by one, as written), then the
/// node → guide-node map in canonical node order.
struct Guide {
    nodes: Vec<GuideEntry>,
    map: Vec<u32>,
}

struct GuideEntry {
    tag: u64,
    parent: u64,
    children: Vec<(u64, u64)>,
    count: u64,
    depth: u64,
}

impl Guide {
    fn of(sections: &[lotusx_storage::Section]) -> Self {
        use lotusx_storage::codec::get_varint;
        let id = lotusx_storage::snapshot::section::GUIDE;
        let bytes = &sections.iter().find(|s| s.id == id).unwrap().bytes;
        let pos = &mut 0;
        let mut varint = || get_varint(bytes, pos).unwrap();
        let nodes = (0..varint())
            .map(|_| {
                let (tag, parent) = (varint(), varint());
                let children = (0..varint()).map(|_| (varint(), varint())).collect();
                let (count, depth) = (varint(), varint());
                GuideEntry {
                    tag,
                    parent,
                    children,
                    count,
                    depth,
                }
            })
            .collect();
        let map = bytes[*pos..]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Guide { nodes, map }
    }

    fn bytes(&self) -> Vec<u8> {
        use lotusx_storage::codec::put_varint;
        let mut out = Vec::new();
        put_varint(&mut out, self.nodes.len() as u64);
        for n in &self.nodes {
            put_varint(&mut out, n.tag);
            put_varint(&mut out, n.parent);
            put_varint(&mut out, n.children.len() as u64);
            for &(tag, child) in &n.children {
                put_varint(&mut out, tag);
                put_varint(&mut out, child);
            }
            put_varint(&mut out, n.count);
            put_varint(&mut out, n.depth);
        }
        for &g in &self.map {
            out.extend_from_slice(&g.to_le_bytes());
        }
        out
    }
}

/// The DataGuide and the node → guide-node map are stored, so a load
/// proves them against the document: a snapshot re-framed with fresh
/// checksums around `<article><title>` mapped to the `book/title` guide
/// node (same tag, other path — it would rank `//title` by the wrong
/// path's specificity), one changed count, one changed depth, or one
/// child entry pointed at another node, opens to a typed error naming
/// what disagrees.
#[test]
fn a_guide_that_disagrees_with_the_document_is_a_typed_error() {
    let fresh = LotusX::load_str(
        "<bib><book><title>a</title></book><book><title>b</title></book>\
         <article><title>c</title></article></bib>",
    )
    .unwrap();
    let path = Scratch::new("guide.ltsx");
    fresh.save_snapshot(&path.0).unwrap();
    let sections = lotusx_storage::read_snapshot_file(&path.0).unwrap();
    let (doc, guide) = (fresh.index().document(), fresh.index().guide());
    let sym = |name: &str| doc.symbols().get(name).unwrap();
    let path_of = |tags: &[&str]| {
        let tags: Vec<_> = tags.iter().map(|&t| sym(t)).collect();
        guide.lookup_path(&tags).unwrap().index()
    };
    let book_title = path_of(&["bib", "book", "title"]);
    let article = path_of(&["bib", "article"]);
    let bib = path_of(&["bib"]);
    // `<article><title>` in canonical (preorder) node order.
    let article_title = doc
        .all_nodes()
        .position(|n| {
            doc.tag(n) == Some(sym("title"))
                && doc.parent(n).and_then(|p| doc.tag(p)) == Some(sym("article"))
        })
        .unwrap();
    type Tamper = Box<dyn Fn(&mut Guide)>;
    let cases: Vec<(&str, Tamper, &str)> = vec![
        (
            "a map entry on another path of the same tag",
            Box::new(move |g| g.map[article_title] = book_title as u32),
            "guide node under another parent than its element's",
        ),
        (
            "one count",
            Box::new(move |g| g.nodes[article].count += 1),
            "guide count disagrees with its elements",
        ),
        (
            "one depth",
            Box::new(move |g| g.nodes[article].depth += 1),
            "guide depth disagrees with its parent's",
        ),
        (
            "one child entry pointed at another node",
            Box::new(move |g| {
                let entry = (g.nodes[bib].children.iter_mut())
                    .find(|(_, child)| *child == article as u64)
                    .unwrap();
                entry.1 = book_title as u64;
            }),
            "guide child entry disagrees with its node",
        ),
    ];
    let tampered = Scratch::new("guide-tampered.ltsx");
    for (name, tamper, error) in cases {
        let mut g = Guide::of(&sections);
        tamper(&mut g);
        let mut bad = sections.clone();
        let id = lotusx_storage::snapshot::section::GUIDE;
        bad.iter_mut().find(|s| s.id == id).unwrap().bytes = g.bytes();
        lotusx_storage::write_snapshot_file(&tampered.0, &bad).unwrap();
        match LotusX::open_snapshot(&tampered.0) {
            Err(LotusError::Storage(StorageError::Corrupt(what))) => {
                assert_eq!(what, error, "{name}")
            }
            Err(other) => panic!("{name}: wrong error kind: {other}"),
            Ok(_) => panic!("{name}: the tampered snapshot opened"),
        }
    }
    // The parse and re-encode alone change nothing.
    let mut same = sections.clone();
    let id = lotusx_storage::snapshot::section::GUIDE;
    same.iter_mut().find(|s| s.id == id).unwrap().bytes = Guide::of(&sections).bytes();
    assert_eq!(same, sections);
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
