//! Allocation budget of the match pipeline: join + `rank_top_k` on a
//! twig with thousands of matches allocates a constant number of buffers
//! — the structural join the *same* number whatever the match count, each
//! buffer sized once from a stream length; navigation, which materializes
//! its rows, plus their `O(log n)` doubling steps — never something per
//! match, pair or partial. A per-match `Vec` (or a hash map keyed per
//! binding) anywhere between join output and the ranked top-k multiplies
//! the count by the match total and fails this test deterministically.
//! A value predicate is a 0/1 weight per stream element: it allocates its
//! candidate bitmap and the weights every node has, never a copy of the
//! stream it thins, which the bytes it asks for show.
//!
//! And of the cache-hit path: a hit hands out the answer the miss built,
//! so it allocates the same number of blocks whatever the answer holds —
//! and the wire encoders then write it into one growing buffer. Routing,
//! which every served request goes through, allocates only the path it
//! rewrites. Rendering the `/stats` metrics section allocates its
//! snapshot and its text, and nothing sized by anything else.
//!
//! The counters (blocks, and the bytes they asked for) are per thread, so the harness and other tests cannot
//! disturb it.

use lotusx::PositionContext;
use lotusx_guard::QueryGuard;
use lotusx_index::IndexedDocument;
use lotusx_rank::{Bound, Ranker};
use lotusx_serve::wire::{encode_response, encode_tag_candidates};
use lotusx_twig::exec::{execute_budgeted, Algorithm};
use lotusx_twig::xpath::parse_query;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to `System` unchanged; the only addition
// is a thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `items` flat records: every query of the table matches once per
/// record.
fn corpus(items: usize) -> IndexedDocument {
    let mut xml = String::from("<r>");
    for i in 0..items {
        xml.push_str(&format!("<item><a>{i}</a><b>x</b></item>"));
    }
    xml.push_str("</r>");
    IndexedDocument::from_str(&xml).expect("well-formed")
}

/// Allocations (and reallocations) made by join + rank of `query`.
fn pipeline_allocations(idx: &IndexedDocument, query: &str, algorithm: Algorithm) -> usize {
    pipeline_spend(idx, query, algorithm).0
}

/// Allocations (and reallocations) made by join + rank of `query`, and
/// the bytes they asked for.
fn pipeline_spend(idx: &IndexedDocument, query: &str, algorithm: Algorithm) -> (usize, usize) {
    let pattern = parse_query(query).expect("parses");
    let guard = QueryGuard::unlimited();
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let matches = execute_budgeted(idx, &pattern, algorithm, &guard);
    let (top, _) = Ranker::new(idx).rank_top_k(&pattern, &matches, 10);
    let spent = (
        ALLOCATIONS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    );
    assert_eq!(matches.count(), idx.stats().element_count / 3, "{query}");
    assert_eq!(top.len(), 10);
    spent
}

#[test]
fn join_and_rank_allocate_per_buffer_not_per_match() {
    const SMALL: usize = 6_000;
    const GROWTH: usize = 8;
    let (small, large) = (corpus(SMALL), corpus(SMALL * GROWTH));
    for (query, algorithm) in [
        ("//item[a][b]", Algorithm::StructuralJoin),
        ("//item[a][b]", Algorithm::Naive),
        // Predicates: candidates from the value index, and from a term's
        // postings, weighed over the tag stream.
        ("//item[a >= 0][b]", Algorithm::StructuralJoin),
        (r#"//item[a][b ~ "x"]"#, Algorithm::StructuralJoin),
    ] {
        let at_small = pipeline_allocations(&small, query, algorithm);
        let at_large = pipeline_allocations(&large, query, algorithm);
        // A few dozen buffers and their doubling steps, whatever the
        // match count …
        assert!(
            at_small < 128,
            "{algorithm} on {query}: {at_small} allocations for {SMALL} matches"
        );
        // … and 8x the matches may only add doubling steps: 3 per buffer
        // that grows with the output. The structural join has no such
        // buffer, predicates or not — weights and ranges are sized from
        // the stream lengths, a candidate bitmap from the node count, the
        // ranker keeps 10 rows.
        let doubling_steps = if algorithm == Algorithm::StructuralJoin {
            0
        } else {
            24
        };
        assert!(
            at_large <= at_small + doubling_steps,
            "{algorithm} on {query}: {at_small} allocations at {SMALL} matches, \
             {at_large} at {}",
            SMALL * GROWTH
        );
    }
}

/// A value predicate is a 0 in its query node's initial weights, not a
/// copy of the stream it thins: join + rank of a predicated twig asks for
/// the bytes of the unpredicated one plus the candidate bitmap (a bit per
/// node, in whole words) and a small constant, at any stream length.
#[test]
fn a_predicate_allocates_its_candidate_bitmap_not_a_stream_copy() {
    const SLACK: usize = 512;
    for items in [6_000, 48_000] {
        let idx = corpus(items);
        let bitmap = idx.document().node_count().div_ceil(64) * 8;
        let (_, plain) = pipeline_spend(&idx, "//item[a][b]", Algorithm::StructuralJoin);
        for query in ["//item[a >= 0][b]", r#"//item[a][b ~ "x"]"#] {
            let (_, bytes) = pipeline_spend(&idx, query, Algorithm::StructuralJoin);
            assert!(
                bytes <= plain + bitmap + SLACK,
                "{query} over {items} items: {bytes} B, against {plain} B unpredicated \
                 and a {bitmap} B candidate bitmap"
            );
        }
    }
}

/// `items` flat records under three region paths of different sizes
/// (an eighth, three eighths, half): three root paths, three classes of
/// the rank bound, three runs of the root stream.
fn regions(items: usize) -> IndexedDocument {
    let mut xml = String::from("<r>");
    for (region, share) in [
        ("asia", items / 8),
        ("africa", items * 3 / 8),
        ("europe", items / 2),
    ] {
        xml.push_str(&format!("<{region}>"));
        for i in 0..share {
            xml.push_str(&format!("<item><a>{i}</a><b>x</b></item>"));
        }
        xml.push_str(&format!("</{region}>"));
    }
    xml.push_str("</r>");
    IndexedDocument::from_str(&xml).expect("well-formed")
}

/// A ranking bounded per root path partitions the root stream into runs
/// of a class each: the runs and their counts are sized from one
/// counting pass, so the rows of several root paths allocate what those
/// of one path do — per class and per buffer, not per match — under the
/// same limits as the rows above, with no doubling step at 8x the rows.
#[test]
fn ranking_over_several_root_paths_allocates_per_class_not_per_match() {
    const SMALL: usize = 6_000;
    const GROWTH: usize = 8;
    let query = "//item[a][b]";
    let pattern = parse_query(query).expect("parses");
    let spent = |idx: &IndexedDocument| {
        let guard = QueryGuard::unlimited();
        let before = ALLOCATIONS.with(Cell::get);
        let matches = execute_budgeted(idx, &pattern, Algorithm::StructuralJoin, &guard);
        let (top, stats) = Ranker::new(idx).rank_top_k(&pattern, &matches, 10);
        let spent = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(top.len(), 10);
        // The walk took the guide bound, one class of three.
        assert_eq!(stats.bound, Bound::Guide);
        assert_eq!((stats.walked, stats.classes), (1, 3));
        spent
    };
    let (at_small, at_large) = (spent(&regions(SMALL)), spent(&regions(SMALL * GROWTH)));
    assert!(
        at_small < 128,
        "{query}: {at_small} allocations for {SMALL} matches"
    );
    assert!(
        at_large <= at_small,
        "{query}: {at_small} allocations at {SMALL} matches, {at_large} at {}",
        SMALL * GROWTH
    );
}

/// A cache hit is a pointer copy of the cached answer: the same blocks
/// (the parsed pattern, the key) at 10 results and at 100. One block per
/// result anywhere on the hit path shows up as a difference of 90 or more.
#[test]
fn a_cache_hit_allocates_the_same_at_any_top_k() {
    let system = lotusx::LotusX::from_indexed(corpus(200));
    let hit_allocations = |k: usize| {
        let request = lotusx::QueryRequest::twig("//item[a][b]").top_k(k);
        let miss = system.query(&request).expect("parses");
        let before = ALLOCATIONS.with(Cell::get);
        let hit = system.query(&request).expect("parses");
        let spent = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!((miss.matches.len(), hit.matches.len()), (k, k));
        spent
    };
    assert_eq!(hit_allocations(10), hit_allocations(100));
    assert_eq!(system.query_cache_stats().hits, 2);
}

/// Blocks `f` allocates, with what it returns dropped afterwards.
fn allocations_of<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let spent = ALLOCATIONS.with(Cell::get) - before;
    drop(out);
    spent
}

/// Whatever a wire body holds, it allocates its buffer and that
/// buffer's growth steps: at most this many blocks …
const BODY_BLOCKS: usize = 16;
/// … of which 10x the rows may add only doubling steps.
const TENFOLD_STEPS: usize = 4;

/// Asserts the budget above for a body of `few` and of 10x more rows.
fn assert_per_body(what: &str, (few, many): (usize, usize)) {
    assert!(
        few <= many && many <= BODY_BLOCKS && many - few <= TENFOLD_STEPS,
        "{what}: {few} blocks, {many} for 10x the rows"
    );
}

/// `encode_response` appends every row to one output `String`. A
/// `format!` or a `to_string` per row shows up as hundreds of blocks at
/// 100 rows.
#[test]
fn encoding_an_answer_allocates_per_body_not_per_row() {
    let system = lotusx::LotusX::from_indexed(corpus(200));
    let body_allocations = |k: usize| {
        let request = lotusx::QueryRequest::twig("//item[a][b]").top_k(k);
        let response = system.query(&request).expect("parses");
        assert_eq!(response.matches.len(), k);
        allocations_of(|| encode_response(&response))
    };
    assert_per_body(
        "encode_response at 10 rows",
        (body_allocations(10), body_allocations(100)),
    );
}

/// The same for the completion encoders, at one candidate and at ten.
#[test]
fn encoding_candidates_allocates_per_body_not_per_candidate() {
    let tags: String = (0..12).map(|i| format!("<t{i}/>")).collect();
    let system = lotusx::LotusX::load_str(&format!("<r>{tags}</r>")).expect("well-formed");
    let completion = system.completion_engine();
    let candidate_allocations = |k: usize| {
        let found = completion.complete_tag(&PositionContext::unconstrained(), "t", k);
        assert_eq!(found.len(), k);
        allocations_of(|| encode_tag_candidates(&found))
    };
    assert_per_body(
        "encode_tag_candidates at k 1",
        (candidate_allocations(1), candidate_allocations(10)),
    );
}

/// `items` flat records of two text nodes each, as XML text.
fn text_corpus(items: usize) -> String {
    let mut xml = String::from("<r>");
    for _ in 0..items {
        xml.push_str("<item><a>x</a><b>y</b></item>");
    }
    xml.push_str("</r>");
    xml
}

/// A document is node columns plus character-data arenas: parsing one,
/// or decoding one from a snapshot, allocates per column and its growth
/// steps, not per text node. (The node-per-allocation tree this replaced
/// took 4 027 blocks to parse 2 000 records and 32 030 for 16 000, and
/// 4 074 / 32 077 to decode them — one block per text node.)
#[test]
fn parsing_and_snapshot_decoding_allocate_per_document_not_per_text_node() {
    const SMALL: usize = 2_000;
    const GROWTH: usize = 8;
    let parse = |items: usize| {
        let xml = text_corpus(items);
        allocations_of(|| lotusx_xml::Document::parse_str(&xml).expect("well-formed"))
    };
    let decode = |items: usize| {
        let idx = IndexedDocument::from_str(&text_corpus(items)).expect("well-formed");
        let sections = lotusx_index::snapshot::encode_sections(&idx);
        allocations_of(|| lotusx_index::snapshot::decode_sections(sections).expect("decodes"))
    };
    for (what, small, large) in [
        ("parse", parse(SMALL), parse(SMALL * GROWTH)),
        ("decode", decode(SMALL), decode(SMALL * GROWTH)),
    ] {
        eprintln!("{what}: {small} blocks for {SMALL} records, {large} for 8x");
        // The columns, the arenas and the index structures …
        assert!(small < 160, "{what}: {small} blocks for {SMALL} records");
        // … of which 8x the records may add only doubling steps.
        assert!(
            large <= small + 32,
            "{what}: {small} blocks for {SMALL} records, {large} for 8x"
        );
    }
}

/// `items` records of distinct words and distinct values, as XML text.
fn distinct_corpus(items: usize) -> String {
    let mut xml = String::from("<r>");
    for i in 0..items {
        xml.push_str(&format!(
            "<item id=\"k{i}\"><a>w{i}</a><b>v{i} Word{i} w{i}</b></item>"
        ));
    }
    xml.push_str("</r>");
    xml
}

/// The value index is sorted dictionaries over flat arrays: building it,
/// or decoding it from a snapshot, allocates per structure and its growth
/// steps, not per distinct term or value. (The hash-map layout this
/// replaced, with a key and a list per distinct term and value, took
/// 83 204 blocks to build 2 000 records and 680 019 for 16 000.)
#[test]
fn building_and_decoding_the_index_allocate_per_structure_not_per_distinct_term() {
    const SMALL: usize = 2_000;
    const GROWTH: usize = 8;
    let document = |items: usize| {
        lotusx_xml::Document::parse_str(&distinct_corpus(items)).expect("well-formed")
    };
    let build = |items: usize| {
        let doc = document(items);
        allocations_of(|| IndexedDocument::build(doc))
    };
    let decode = |items: usize| {
        let idx = IndexedDocument::build(document(items));
        assert_eq!(idx.values().term_count(), 4 * items);
        let sections = lotusx_index::snapshot::encode_sections(&idx);
        allocations_of(|| lotusx_index::snapshot::decode_sections(sections).expect("decodes"))
    };
    for (what, small, large) in [
        ("build", build(SMALL), build(SMALL * GROWTH)),
        ("decode", decode(SMALL), decode(SMALL * GROWTH)),
    ] {
        eprintln!("{what}: {small} blocks for {SMALL} records, {large} for 8x");
        assert!(small < 256, "{what}: {small} blocks for {SMALL} records");
        assert!(
            large <= small + 48,
            "{what}: {small} blocks for {SMALL} records, {large} for 8x"
        );
    }
}

/// Every served request is routed, so routing borrows: the tenant name
/// from the rule or the request, the path from the request. A catch-all
/// or `from_header` rule resolves in 0 blocks; `/t/<name>` allocates the
/// one thing it returns, the rewritten path.
#[test]
fn routing_allocates_only_the_rewritten_path() {
    let engine = || lotusx::LotusX::load_str("<r/>").expect("well-formed");
    let unlimited = lotusx::TenantLimits::unlimited;
    let rules = lotusx::parse_rules(
        r#"[{"when": {"path_prefix": "/t/"}, "tenant": {"from_path": true}},
            {"when": {"header_prefix": {"name": "x-tenant", "value": ""}},
             "tenant": {"from_header": "x-tenant"}},
            {"when": {"always": true}, "tenant": "alpha"}]"#,
        &["alpha", "beta"],
    )
    .expect("rules parse");
    let parts = ["alpha", "beta"].map(|name| (name.to_string(), engine(), unlimited()));
    let registry =
        lotusx::EngineRegistry::from_parts(parts.into(), rules).expect("registry builds");
    let header = [("X-Tenant".to_string(), "beta".to_string())];
    let routed = |registry: &lotusx::EngineRegistry, path, headers| {
        let before = ALLOCATIONS.with(Cell::get);
        let routed = registry.route(path, headers);
        (routed, ALLOCATIONS.with(Cell::get) - before)
    };
    assert_eq!(routed(&registry, "/query", &[]), (Some((0, None)), 0));
    let by_header = Some((1, None));
    assert_eq!(routed(&registry, "/complete", &header), (by_header, 0));
    let stripped = Some((1, Some("/query".to_string())));
    assert_eq!(routed(&registry, "/t/beta/query", &[]), (stripped, 1));
}

/// The `/stats` metrics section is a snapshot of the stage histograms and
/// the counter table, rendered into one `String`. The first render of the
/// process (which also brings the registry up) stays under 64 KiB; a
/// buffer sized by anything but the stage and counter tables shows up as
/// a larger total.
#[test]
fn rendering_the_stats_metrics_allocates_its_snapshot_and_text() {
    let before = BYTES.with(Cell::get);
    let json = lotusx_obs::metrics().snapshot().to_json();
    let spent = BYTES.with(Cell::get) - before;
    assert!(json.contains("\"counters\""));
    assert!(spent < 64 << 10, "{spent} bytes for the first render");
}
