//! Cold-start benchmark: fresh XML build vs full-index snapshot load.
//!
//! For every (dataset, scale) cell it writes the generated corpus to an
//! XML file, times `LotusX::open` on that file (parse + label + index +
//! stats — the fresh-build cold boot), saves a full-index `.ltsx`
//! snapshot, and times `LotusX::open` on the snapshot (bulk section
//! reads, no rebuild). Both timings are minimum-of-reps. It then proves
//! the loaded engine is *bit-identical* to the fresh one: every
//! canonical query under every concrete join algorithm plus `auto`, and
//! tag/value completions over a prefix sweep, must render to byte-equal
//! canonical strings. Each cell also records where the
//! snapshot's bytes go — bytes per element, section by section — and
//! what the document tree holds resident once loaded: its columns and
//! arenas per node (`Document::size_bytes`).
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
//! tripwire for a tree that allocates per node again).
//! The gate is a build/load *ratio*: it exists to catch a load that has
//! turned back into a rebuild (ratio → 1), and it falls whenever the
//! build gets cheaper — E14 cut the label pass tenfold and the ratio
//! read 3.4–6.3 across six runs on a host where the unchanged parent
//! read 4.1–7.0 — so it is set below that spread, not at its top.

use lotusx::{CorpusSource, LotusX, QueryRequest, QueryResponse};
use lotusx_bench::{fmt_duration, time_once, SEED};
use lotusx_datagen::{queries, Dataset};
use lotusx_storage::snapshot::section;
use lotusx_twig::Algorithm;
use lotusx_xml::{Document, NodeKind};
use std::time::Duration;

/// Resident bytes a document may spend per node beyond its character
/// data: 25 for the node columns, the rest for attribute entries.
const DOCUMENT_BYTES_PER_NODE: usize = 32;

/// The corpus's own character data: every text, comment and PI byte and
/// every attribute value byte.
fn character_bytes(doc: &Document) -> usize {
    doc.all_nodes()
        .map(|n| match doc.kind(n) {
            NodeKind::Document => 0,
            NodeKind::Element { attributes, .. } => attributes.iter().map(|(_, v)| v.len()).sum(),
            NodeKind::Text(t) | NodeKind::Comment(t) => t.len(),
            NodeKind::Pi { target, data } => target.len() + data.len(),
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
            5usize,
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
            9usize,
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

/// Snapshot sections in file order, by the names the artifact uses.
const SECTIONS: [(u64, &str); 8] = [
    (section::DOCUMENT, "document"),
    (section::LABELS, "labels"),
    (section::COLUMNS, "columns"),
    (section::VALUES, "values"),
    (section::TRIES, "tries"),
    (section::GUIDE, "guide"),
    (section::STATS, "stats"),
    (section::VALUE_TRIES, "value_tries"),
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
    /// The loaded document's columns and arenas per node (text nodes
    /// included).
    document_bytes_per_node: f64,
    /// Its character data per node: the part of the above no layout
    /// can shrink.
    character_bytes_per_node: f64,
    /// Whether the built and the loaded document both stayed within
    /// [`document_budget`].
    document_within_budget: bool,
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

        // Fresh-build cold boot: read + parse + label + index + stats.
        let mut build_ms = f64::INFINITY;
        let mut fresh = None;
        for _ in 0..cfg.reps {
            let (t, system) = time_once(|| LotusX::open(&xml_source).expect("corpus XML opens"));
            build_ms = build_ms.min(ms(t));
            fresh = Some(system);
        }
        let fresh = fresh.expect("at least one rep");
        let elements = fresh.index().stats().element_count;

        let (save_t, ()) = time_once(|| fresh.save_snapshot(&ltsx_path).expect("snapshot saves"));

        // Snapshot cold boot: bulk section reads, no rebuild.
        let mut load_ms = f64::INFINITY;
        let mut loaded = None;
        for _ in 0..cfg.reps {
            let (t, system) = time_once(|| LotusX::open(&snap_source).expect("snapshot opens"));
            load_ms = load_ms.min(ms(t));
            loaded = Some(system);
        }
        let loaded = loaded.expect("at least one rep");

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
        let xml_bytes = std::fs::metadata(&xml_path).map(|m| m.len()).unwrap_or(0);
        let snapshot_bytes = std::fs::metadata(&ltsx_path).map(|m| m.len()).unwrap_or(0);
        let speedup = build_ms / load_ms.max(1e-9);
        eprintln!(
            "  {ds} scale {scale}: {elements} elements, build {} -> load {} ({speedup:.1}x), \
             snapshot {snapshot_bytes} bytes, document {document_bytes_per_node:.1} B/node \
             ({character_bytes_per_node:.1} of them text), {} probes {}",
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
            document_bytes_per_node,
            character_bytes_per_node,
            document_within_budget,
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
    json.push_str("  \"timing\": \"min-of-reps\",\n");
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
        "    \"gate_pass\": {}\n",
        gate_failures.is_empty() && nonequivalent == 0 && over_budget.is_empty()
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
         documents within {DOCUMENT_BYTES_PER_NODE} B/node plus their character data",
        cfg.gate
    );
}
