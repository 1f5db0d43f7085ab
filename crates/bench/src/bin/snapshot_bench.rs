//! Cold-start benchmark: fresh XML build vs full-index snapshot load.
//!
//! For every (dataset, scale) cell it writes the generated corpus to an
//! XML file, times `LotusX::open` on that file (parse + index — the
//! fresh-build cold boot), saves a full-index `.ltsx` snapshot, and
//! times `LotusX::open` on the snapshot (bulk reads of the stored
//! sections, then the tag streams, DataGuide and statistics derived
//! from the loaded tree as a build derives them; no parsing). Both
//! timings are the minimum over rounds of one build and one load each,
//! interleaved so that a slow phase of a shared host hits both alike
//! rather than only the side it happened to run during. It then proves
//! the loaded engine is *bit-identical* to the fresh one: every
//! canonical query under every concrete join algorithm plus `auto`, and
//! tag/value completions over a prefix sweep, must render to byte-equal
//! canonical strings. Each cell also records where the
//! snapshot's bytes go — bytes per element, section by section, for the
//! three sections a snapshot stores — and
//! what the document tree holds resident once loaded: its columns and
//! arenas per node (`Document::size_bytes`), and what the index holds
//! per element to place it: the tag-stream columns and their parent
//! slots (`TagColumns::size_bytes`).
//!
//! ```sh
//! cargo run --release -p lotusx-bench --bin snapshot-bench            # full sweep, writes BENCH_snapshot.json
//! cargo run --release -p lotusx-bench --bin snapshot-bench -- --quick # @dblp:2 only, for CI smoke
//! ```
//!
//! Exit codes: 2 = equivalence mismatch, 1 = cold-boot speedup below the
//! `--gate` factor (default 3x) at a dataset's largest measured scale,
//! 3 = a built or loaded document holding more than
//! [`DOCUMENT_BYTES_PER_NODE`] per node plus its own character data (the
//! tripwire for a tree that allocates per node again), 4 = a built or
//! loaded value index holding more than [`VALUE_INDEX_BYTES_PER_ELEMENT`]
//! (the tripwire for an index that allocates per term again), 5 = a
//! loaded index holding more than [`POSITIONS_BYTES_PER_ELEMENT`] of
//! positions (the tripwire for a second resident copy of the regions),
//! 6 = a saved snapshot holding any section but [`SECTIONS`] (the
//! tripwire for a stored derivation: what the document determines is
//! derived at load, never written).
//! The gate is a build/load *ratio*: it exists to catch a load that has
//! turned back into a rebuild (ratio → 1), and it falls whenever the
//! build gets cheaper or the load derives more — E14 cut the label pass
//! tenfold and the ratio read 3.4–6.3 across six runs on a host where
//! the unchanged parent read 4.1–7.0 — so it is set below that spread,
//! not at its top.

use lotusx::{CorpusSource, LotusX, QueryRequest, QueryResponse};
use lotusx_bench::{fmt_duration, time_once, SEED};
use lotusx_datagen::{queries, Dataset};
use lotusx_storage::snapshot::section;
use lotusx_twig::Algorithm;
use lotusx_xml::{Document, NodeKind};
use std::time::Duration;

/// Resident bytes a document may spend per node beyond its character
/// data: 17 for the node columns (kind, parent, subtree end, payload),
/// the rest for attribute entries. The preorder-only document reads
/// 17.0 on treebank, 18.5 on dblp and 20.9 on xmark (E36); the 25-byte
/// columns with sibling links it replaced read 25–29.
const DOCUMENT_BYTES_PER_NODE: usize = 22;

/// Resident bytes the value index may hold per element: its key arenas,
/// lists and offset columns, its frequencies above 1 and the numeric
/// index, by capacity. Bare node-id postings, exact keys read in the
/// document's text and numbers derived per key read 16–19 B on dblp and
/// xmark and 4 on treebank (E37); postings carrying a tf each, every key
/// copied and a number per element read 30–37 and 6–7 (E29), and the
/// hash-map layout before them about 1.7x that.
const VALUE_INDEX_BYTES_PER_ELEMENT: f64 = 20.0;

/// Resident bytes the loaded tag-stream columns and parent slots may
/// hold per element: node, subtree end, level and parent slot read 14.0
/// on every dataset (E36). Region starts and a per-node position map
/// beside them read ≈ 25 on dblp, a per-node label store ≈ 54.
const POSITIONS_BYTES_PER_ELEMENT: f64 = 16.0;

/// The corpus's own character data: every text byte and every attribute
/// value byte.
fn character_bytes(doc: &Document) -> usize {
    doc.all_nodes()
        .map(|n| match doc.kind(n) {
            NodeKind::Document => 0,
            NodeKind::Element { attributes, .. } => attributes.iter().map(|(_, v)| v.len()).sum(),
            NodeKind::Text(t) => t.len(),
        })
        .sum()
}

/// The budget a document's `size_bytes` must stay within.
fn document_budget(doc: &Document) -> usize {
    DOCUMENT_BYTES_PER_NODE * doc.node_count() + character_bytes(doc)
}

struct Config {
    quick: bool,
    gate: f64,
    out: String,
    cells: Vec<(Dataset, u32)>,
    reps: usize,
}

fn parse_args() -> Config {
    let mut quick = false;
    let mut gate = 3.0f64;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--gate" => {
                gate = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--gate needs a number");
            }
            "--out" => out = Some(args.next().expect("--out needs a path")),
            other => panic!("unknown flag {other} (try --quick, --gate, --out)"),
        }
    }
    let (cells, reps, default_out) = if quick {
        (
            vec![(Dataset::DblpLike, 2u32)],
            15usize,
            "target/BENCH_snapshot_quick.json",
        )
    } else {
        (
            vec![
                (Dataset::DblpLike, 1),
                (Dataset::DblpLike, 4),
                (Dataset::XmarkLike, 1),
                (Dataset::XmarkLike, 4),
                (Dataset::TreebankLike, 1),
                (Dataset::TreebankLike, 4),
            ],
            11usize,
            "BENCH_snapshot.json",
        )
    };
    Config {
        quick,
        gate,
        out: out.unwrap_or_else(|| default_out.to_string()),
        cells,
        reps,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Canonical byte-stable rendering of a query response: scores as raw
/// f64 bits, every binding and output node id, the snippet, the
/// completeness marker, the reported algorithm and the rewrite
/// provenance. Two engines answering bit-identically render byte-equal
/// strings.
fn canonical_response(r: &QueryResponse) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = write!(
        s,
        "total={};alg={:?};comp={:?};",
        r.total_matches, r.algorithm, r.completeness
    );
    match &r.rewrite {
        Some(info) => {
            let _ = write!(
                s,
                "rewrite(cost={:016x},ops={:?});",
                info.cost.to_bits(),
                info.ops
            );
        }
        None => s.push_str("rewrite=none;"),
    }
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

/// Every probe the equivalence check compares, as (label, canonical
/// string) pairs: per-query responses under each algorithm and `auto`,
/// and tag/value completions over a prefix sweep.
fn probes(system: &LotusX, ds: Dataset) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for q in queries::queries(ds) {
        for algo in Algorithm::ALL {
            let request = QueryRequest::twig(q.text).algorithm(algo);
            let rendered = match system.query(&request) {
                Ok(r) => canonical_response(&r),
                Err(e) => format!("error:{e}"),
            };
            out.push((format!("{}:{algo}", q.id), rendered));
        }
        let rendered = match system.query(&QueryRequest::twig(q.text)) {
            Ok(r) => canonical_response(&r),
            Err(e) => format!("error:{e}"),
        };
        out.push((format!("{}:auto", q.id), rendered));
    }
    let completion = system.completion_engine();
    for prefix in ["", "a", "b", "s", "t"] {
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

/// The sections a snapshot stores, in file order, by the names the
/// artifact uses: what the document tree cannot give back.
const SECTIONS: [(u64, &str); 3] = [
    (section::DOCUMENT, "document"),
    (section::VALUES, "values"),
    (section::TAG_TERMS, "tag_terms"),
];

struct Row {
    dataset: Dataset,
    scale: u32,
    elements: usize,
    xml_bytes: u64,
    snapshot_bytes: u64,
    /// Payload bytes per element of each of [`SECTIONS`] (framing — 5
    /// header bytes and ~12 per section — is in `snapshot_bytes` only).
    section_bytes_per_element: Vec<f64>,
    /// Ids of the saved sections that are not [`SECTIONS`].
    extra_sections: Vec<u64>,
    /// The loaded document's columns and arenas per node (text nodes
    /// included).
    document_bytes_per_node: f64,
    /// Its character data per node: the part of the above no layout
    /// can shrink.
    character_bytes_per_node: f64,
    /// Whether the built and the loaded document both stayed within
    /// [`document_budget`].
    document_within_budget: bool,
    /// The loaded value index's resident bytes per element.
    value_index_bytes_per_element: f64,
    /// Whether the built and the loaded value index both stayed within
    /// [`VALUE_INDEX_BYTES_PER_ELEMENT`].
    value_index_within_budget: bool,
    /// The loaded tag-stream columns and parent slots per element,
    /// before any `*` query gathers the all-elements stream.
    positions_bytes_per_element: f64,
    build_ms: f64,
    save_ms: f64,
    load_ms: f64,
    speedup: f64,
    probes_compared: usize,
    equivalent: bool,
}

fn main() {
    let cfg = parse_args();
    let mode = if cfg.quick { "quick" } else { "full" };
    eprintln!(
        "snapshot-bench ({mode}): cells {:?}, reps {}, gate {:.1}x",
        cfg.cells, cfg.reps, cfg.gate
    );

    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let mut rows: Vec<Row> = Vec::new();

    for &(ds, scale) in &cfg.cells {
        let xml_path = tmp.join(format!("lotusx_snapbench_{pid}_{ds}_{scale}.xml"));
        let ltsx_path = tmp.join(format!("lotusx_snapbench_{pid}_{ds}_{scale}.ltsx"));
        let doc = lotusx_datagen::generate(ds, scale, SEED);
        std::fs::write(&xml_path, doc.to_xml()).expect("write corpus XML");
        drop(doc);
        let xml_source = CorpusSource::XmlFile(xml_path.clone());
        let snap_source = CorpusSource::Snapshot(ltsx_path.clone());

        let fresh = LotusX::open(&xml_source).expect("corpus XML opens");
        let elements = fresh.index().stats().element_count;
        let (save_t, ()) = time_once(|| fresh.save_snapshot(&ltsx_path).expect("snapshot saves"));

        // Rounds of one fresh-build cold boot (read + parse + index +
        // stats) and one snapshot cold boot (bulk section reads, then the
        // structure derived from the loaded tree; no parsing).
        let (mut build_ms, mut load_ms) = (f64::INFINITY, f64::INFINITY);
        let mut loaded = None;
        for _ in 0..cfg.reps {
            let (t, _) = time_once(|| LotusX::open(&xml_source).expect("corpus XML opens"));
            build_ms = build_ms.min(ms(t));
            let (t, system) = time_once(|| LotusX::open(&snap_source).expect("snapshot opens"));
            load_ms = load_ms.min(ms(t));
            loaded = Some(system);
        }
        let loaded = loaded.expect("at least one round");
        // Read before the probes run `*` queries, the first of which
        // gathers the all-elements stream.
        let positions_bytes_per_element =
            loaded.index().columns().size_bytes() as f64 / elements as f64;

        // Bit-identical behavior: every probe must render byte-equal.
        let fresh_probes = probes(&fresh, ds);
        let loaded_probes = probes(&loaded, ds);
        let mut equivalent = fresh_probes.len() == loaded_probes.len();
        for (f, l) in fresh_probes.iter().zip(&loaded_probes) {
            if f != l {
                equivalent = false;
                eprintln!("  MISMATCH {}: fresh {:?} != loaded {:?}", f.0, f.1, l.1);
            }
        }

        let stored = lotusx_storage::read_snapshot_file(&ltsx_path).expect("snapshot reads");
        let extra_sections: Vec<u64> = stored
            .iter()
            .map(|s| s.id)
            .filter(|id| SECTIONS.iter().all(|&(known, _)| known != *id))
            .collect();
        let section_bytes_per_element = SECTIONS
            .iter()
            .map(|&(id, _)| {
                let bytes: usize = stored
                    .iter()
                    .filter(|s| s.id == id)
                    .map(|s| s.bytes.len())
                    .sum();
                bytes as f64 / elements as f64
            })
            .collect();
        drop(stored);
        let (built_doc, loaded_doc) = (fresh.index().document(), loaded.index().document());
        let nodes = loaded_doc.node_count() as f64;
        let document_bytes_per_node = loaded_doc.size_bytes() as f64 / nodes;
        let character_bytes_per_node = character_bytes(loaded_doc) as f64 / nodes;
        let document_within_budget = [built_doc, loaded_doc]
            .iter()
            .all(|d| d.size_bytes() <= document_budget(d));
        let value_index_bytes =
            |system: &LotusX| system.index().values().size_bytes() as f64 / elements as f64;
        let value_index_bytes_per_element = value_index_bytes(&loaded);
        let value_index_within_budget = [&fresh, &loaded]
            .iter()
            .all(|s| value_index_bytes(s) <= VALUE_INDEX_BYTES_PER_ELEMENT);
        let xml_bytes = std::fs::metadata(&xml_path).map(|m| m.len()).unwrap_or(0);
        let snapshot_bytes = std::fs::metadata(&ltsx_path).map(|m| m.len()).unwrap_or(0);
        let speedup = build_ms / load_ms.max(1e-9);
        eprintln!(
            "  {ds} scale {scale}: {elements} elements, build {} -> load {} ({speedup:.1}x), \
             snapshot {snapshot_bytes} bytes, document {document_bytes_per_node:.1} B/node \
             ({character_bytes_per_node:.1} of them text), value index \
             {value_index_bytes_per_element:.1} B/element, positions \
             {positions_bytes_per_element:.1} B/element, {} probes {}",
            fmt_duration(Duration::from_secs_f64(build_ms / 1e3)),
            fmt_duration(Duration::from_secs_f64(load_ms / 1e3)),
            fresh_probes.len(),
            if equivalent {
                "identical"
            } else {
                "MISMATCHED"
            },
        );

        rows.push(Row {
            dataset: ds,
            scale,
            elements,
            xml_bytes,
            snapshot_bytes,
            section_bytes_per_element,
            extra_sections,
            document_bytes_per_node,
            character_bytes_per_node,
            document_within_budget,
            value_index_bytes_per_element,
            value_index_within_budget,
            positions_bytes_per_element,
            build_ms,
            save_ms: ms(save_t),
            load_ms,
            speedup,
            probes_compared: fresh_probes.len(),
            equivalent,
        });
        let _ = std::fs::remove_file(&xml_path);
        let _ = std::fs::remove_file(&ltsx_path);
    }

    // Gate: at every dataset's largest measured scale the snapshot boot
    // must be at least `gate` times faster than the fresh build.
    let mut gate_failures = Vec::new();
    for &(ds, _) in &cfg.cells {
        let largest = rows
            .iter()
            .filter(|r| r.dataset == ds)
            .max_by_key(|r| r.scale)
            .expect("dataset has rows");
        if largest.scale != 0 && largest.speedup < cfg.gate {
            let tag = format!("{ds}:{}", largest.scale);
            if !gate_failures.contains(&tag) {
                gate_failures.push(tag);
            }
        }
    }
    let nonequivalent = rows.iter().filter(|r| !r.equivalent).count();
    let over_budget: Vec<String> = rows
        .iter()
        .filter(|r| !r.document_within_budget)
        .map(|r| format!("{}:{}", r.dataset, r.scale))
        .collect();
    let index_over_budget: Vec<String> = rows
        .iter()
        .filter(|r| !r.value_index_within_budget)
        .map(|r| format!("{}:{}", r.dataset, r.scale))
        .collect();
    let positions_over_budget: Vec<String> = rows
        .iter()
        .filter(|r| r.positions_bytes_per_element > POSITIONS_BYTES_PER_ELEMENT)
        .map(|r| format!("{}:{}", r.dataset, r.scale))
        .collect();
    let stored_derivations: Vec<String> = rows
        .iter()
        .filter(|r| !r.extra_sections.is_empty())
        .map(|r| format!("{}:{} {:?}", r.dataset, r.scale, r.extra_sections))
        .collect();
    let min_speedup = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    let max_speedup = rows.iter().map(|r| r.speedup).fold(0.0f64, f64::max);
    eprintln!(
        "\nsummary: {} cells, speedup {min_speedup:.1}x..{max_speedup:.1}x, {nonequivalent} mismatched",
        rows.len()
    );

    // ---- JSON artifact --------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"experiment\": \"full-index snapshot cold boot\",\n");
    json.push_str(&format!("  \"mode\": {},\n", json_str(mode)));
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"reps\": {},\n", cfg.reps));
    json.push_str("  \"timing\": \"min-of-interleaved-rounds\",\n");
    json.push_str(&format!("  \"gate\": {:.1},\n", cfg.gate));
    json.push_str("  \"cells\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!(
            "      \"dataset\": {},\n",
            json_str(r.dataset.name())
        ));
        json.push_str(&format!("      \"scale\": {},\n", r.scale));
        json.push_str(&format!("      \"elements\": {},\n", r.elements));
        json.push_str(&format!("      \"xml_bytes\": {},\n", r.xml_bytes));
        json.push_str(&format!(
            "      \"snapshot_bytes\": {},\n",
            r.snapshot_bytes
        ));
        let per_section: Vec<String> = SECTIONS
            .iter()
            .zip(&r.section_bytes_per_element)
            .map(|((_, name), bytes)| format!("{}: {bytes:.2}", json_str(name)))
            .collect();
        json.push_str(&format!(
            "      \"bytes_per_element\": {{ {} }},\n",
            per_section.join(", ")
        ));
        json.push_str(&format!(
            "      \"document_bytes_per_node\": {:.2},\n",
            r.document_bytes_per_node
        ));
        json.push_str(&format!(
            "      \"character_bytes_per_node\": {:.2},\n",
            r.character_bytes_per_node
        ));
        json.push_str(&format!(
            "      \"value_index_bytes_per_element\": {:.2},\n",
            r.value_index_bytes_per_element
        ));
        json.push_str(&format!(
            "      \"positions_bytes_per_element\": {:.2},\n",
            r.positions_bytes_per_element
        ));
        json.push_str(&format!("      \"build_ms\": {:.3},\n", r.build_ms));
        json.push_str(&format!("      \"save_ms\": {:.3},\n", r.save_ms));
        json.push_str(&format!("      \"load_ms\": {:.3},\n", r.load_ms));
        json.push_str(&format!("      \"speedup\": {:.2},\n", r.speedup));
        json.push_str(&format!(
            "      \"probes_compared\": {},\n",
            r.probes_compared
        ));
        json.push_str(&format!("      \"equivalent\": {}\n", r.equivalent));
        json.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"summary\": {\n");
    json.push_str(&format!("    \"min_speedup\": {min_speedup:.2},\n"));
    json.push_str(&format!("    \"max_speedup\": {max_speedup:.2},\n"));
    json.push_str(&format!("    \"nonequivalent\": {nonequivalent},\n"));
    json.push_str(&format!(
        "    \"documents_over_budget\": {},\n",
        over_budget.len()
    ));
    json.push_str(&format!(
        "    \"value_indexes_over_budget\": {},\n",
        index_over_budget.len()
    ));
    json.push_str(&format!(
        "    \"positions_over_budget\": {},\n",
        positions_over_budget.len()
    ));
    json.push_str(&format!(
        "    \"snapshots_with_extra_sections\": {},\n",
        stored_derivations.len()
    ));
    json.push_str(&format!(
        "    \"gate_pass\": {}\n",
        gate_failures.is_empty()
            && nonequivalent == 0
            && stored_derivations.is_empty()
            && over_budget.is_empty()
            && index_over_budget.is_empty()
            && positions_over_budget.is_empty()
    ));
    json.push_str("  }\n");
    json.push_str("}\n");

    if let Some(parent) = std::path::Path::new(&cfg.out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&cfg.out, &json).expect("write benchmark artifact");
    eprintln!("wrote {}", cfg.out);

    if nonequivalent > 0 {
        eprintln!("FAIL: {nonequivalent} cells answered differently after snapshot reload");
        std::process::exit(2);
    }
    if !over_budget.is_empty() {
        eprintln!(
            "FAIL: documents above {DOCUMENT_BYTES_PER_NODE} B/node plus their character data: {}",
            over_budget.join(", ")
        );
        std::process::exit(3);
    }
    if !index_over_budget.is_empty() {
        eprintln!(
            "FAIL: value indexes above {VALUE_INDEX_BYTES_PER_ELEMENT} B/element: {}",
            index_over_budget.join(", ")
        );
        std::process::exit(4);
    }
    if !positions_over_budget.is_empty() {
        eprintln!(
            "FAIL: positions above {POSITIONS_BYTES_PER_ELEMENT} B/element: {}",
            positions_over_budget.join(", ")
        );
        std::process::exit(5);
    }
    if !stored_derivations.is_empty() {
        eprintln!(
            "FAIL: snapshots storing sections beyond document, values and tag terms: {}",
            stored_derivations.join(", ")
        );
        std::process::exit(6);
    }
    if !gate_failures.is_empty() {
        eprintln!(
            "FAIL: cold-boot speedup below {:.1}x at largest scale: {}",
            cfg.gate,
            gate_failures.join(", ")
        );
        std::process::exit(1);
    }
    eprintln!(
        "PASS: snapshot boot >= {:.1}x faster than fresh build, all responses bit-identical, \
         documents within {DOCUMENT_BYTES_PER_NODE} B/node plus their character data, \
         value indexes within {VALUE_INDEX_BYTES_PER_ELEMENT} B/element, \
         positions within {POSITIONS_BYTES_PER_ELEMENT} B/element, \
         only document, values and tag terms stored",
        cfg.gate
    );
}
