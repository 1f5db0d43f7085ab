//! Schema check for `stats json`: the snapshot the CLI prints must parse
//! with the in-repo JSON reader and carry exactly the documented
//! sections — stage histograms, counters and trace-ring accounting —
//! with every number finite.
//!
//! Also home to the Prometheus exposition conformance tests for
//! `/metrics`: every rendered line must satisfy the text-format v0.0.4
//! grammar, label values must escape correctly, and counters must be
//! monotonic across scrapes.
//!
//! And to the counter-table invariants: the three `counters!`
//! declarations (process, server, tenant) are checked row by row, and
//! against what a live server's `/stats` and `/metrics` actually carry.
//!
//! Only `stats_json_has_the_documented_schema` writes the process-wide
//! obs registry and flags (this file runs as its own process, isolated
//! from the other integration tests); the exposition tests run against
//! local `Metrics`/`ServerStats` instances so they can share the
//! process safely, and the table test's server only reads the registry.

use lotusx::{LotusX, QueryRequest};
use lotusx_datagen::{generate, Dataset};
use lotusx_obs::{parse_json, JsonValue, Stage};
use std::sync::atomic::Ordering;

/// The member names of a JSON object, in served order.
fn keys(v: Option<&JsonValue>) -> Vec<String> {
    let members = v.and_then(JsonValue::as_obj).expect("an object");
    members.iter().map(|(k, _)| k.clone()).collect()
}

fn num(v: &JsonValue, key: &str) -> f64 {
    let n = v
        .get(key)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
        .as_f64()
        .unwrap_or_else(|| panic!("key {key:?} is not a number"));
    assert!(n.is_finite(), "key {key:?} is not finite");
    n
}

#[test]
fn stats_json_has_the_documented_schema() {
    let sys = LotusX::load_document(generate(Dataset::DblpLike, 1, 5));

    lotusx_obs::set_enabled(true);
    sys.query(&QueryRequest::twig("//article/title")).unwrap();
    sys.query(&QueryRequest::twig("//article/title")).unwrap(); // cache hit
    sys.query(&QueryRequest::twig("//book[author]")).unwrap();
    sys.query(&QueryRequest::keyword("xml data")).unwrap();
    lotusx_obs::set_enabled(false);

    let json = lotusx_obs::metrics().snapshot().to_json();
    let doc = parse_json(&json).expect("stats json must parse");
    assert_eq!(keys(Some(&doc)), ["stages", "counters", "trace"]);

    // --- counters: queries ran and the cache was exercised. ------------
    let counters = doc.get("counters").expect("counters section");
    assert!(num(counters, "queries") >= 4.0);
    assert!(num(counters, "cache_hit") >= 1.0);
    assert!(num(counters, "cache_miss") >= 2.0);

    // --- stages: every stage histogram has finite, coherent numbers. ---
    assert_eq!(keys(doc.get("stages")), Stage::ALL.map(|s| s.name()));
    let stages = doc.get("stages").and_then(JsonValue::as_obj).unwrap();
    let mut total_count = 0.0;
    for (name, h) in stages {
        let count = num(h, "count");
        for key in ["sum_ns", "mean_ns", "max_ns", "p50_ns", "p95_ns", "p99_ns"] {
            let v = num(h, key);
            assert!(v >= 0.0, "stage {name} {key} negative");
        }
        assert!(
            num(h, "p50_ns") <= num(h, "p99_ns") || count == 0.0,
            "stage {name}: p50 above p99"
        );
        total_count += count;
    }
    assert!(total_count > 0.0, "some stage recorded samples");

    // --- trace: ring accounting is present and consistent. -------------
    let trace = doc.get("trace").expect("trace section");
    let produced = num(trace, "produced");
    let dropped = num(trace, "dropped");
    let exported = num(trace, "exported");
    assert!(produced >= exported + dropped - 0.5, "accounting holds");
}

// --- Prometheus text exposition (v0.0.4) conformance ------------------

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_set(labels: &str) -> Result<(), String> {
    // name="value",... — values may contain anything except a raw `"`,
    // `\` or newline, which must appear as \", \\ and \n.
    let mut rest = labels;
    loop {
        let eq = rest
            .find("=\"")
            .ok_or_else(|| format!("label without =\" in {labels:?}"))?;
        let name = &rest[..eq];
        if !valid_metric_name(name) {
            return Err(format!("bad label name {name:?}"));
        }
        let mut value_end = None;
        let bytes = &rest.as_bytes()[eq + 2..];
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => {
                    match bytes.get(i + 1) {
                        Some(b'\\' | b'"' | b'n') => {}
                        other => return Err(format!("bad escape \\{other:?} in {labels:?}")),
                    }
                    i += 2;
                }
                b'"' => {
                    value_end = Some(eq + 2 + i);
                    break;
                }
                b'\n' => return Err(format!("raw newline in label value of {labels:?}")),
                _ => i += 1,
            }
        }
        let end = value_end.ok_or_else(|| format!("unterminated label value in {labels:?}"))?;
        rest = &rest[end + 1..];
        match rest.strip_prefix(',') {
            Some(after) => rest = after,
            None if rest.is_empty() => return Ok(()),
            None => return Err(format!("junk after label value: {rest:?}")),
        }
    }
}

/// Asserts `body` satisfies the exposition grammar: every line is a
/// comment or `name[{labels}] value`, names use the legal alphabet,
/// label sets parse with only legal escapes, values are floats (or
/// NaN/+Inf/-Inf), and no metric family declares its TYPE twice.
fn assert_conformant(body: &str) {
    let mut seen_types = std::collections::HashSet::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            if let Some(decl) = comment.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let family = parts.next().expect("TYPE without family");
                assert!(valid_metric_name(family), "bad family name {family:?}");
                assert!(
                    matches!(
                        parts.next(),
                        Some("counter" | "gauge" | "summary" | "histogram" | "untyped")
                    ),
                    "bad TYPE kind in {line:?}"
                );
                assert!(
                    seen_types.insert(family.to_string()),
                    "family {family} declared TYPE twice"
                );
            }
            continue;
        }
        assert!(!line.starts_with('#'), "malformed comment {line:?}");
        // Sample line. Labels may contain spaces, so split on the label
        // braces first, then on whitespace.
        let (name, value) = if let Some(open) = line.find('{') {
            let close = line
                .rfind('}')
                .unwrap_or_else(|| panic!("unclosed {{ in {line:?}"));
            valid_label_set(&line[open + 1..close]).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            (&line[..open], line[close + 1..].trim())
        } else {
            let mut it = line.split_whitespace();
            let name = it.next().expect("empty sample line");
            let value = it.next().unwrap_or_else(|| panic!("no value in {line:?}"));
            assert!(it.next().is_none(), "trailing tokens in {line:?}");
            (name, value)
        };
        assert!(
            valid_metric_name(name),
            "bad metric name {name:?} in {line:?}"
        );
        assert!(
            value.parse::<f64>().is_ok() || matches!(value, "NaN" | "+Inf" | "-Inf"),
            "bad value {value:?} in {line:?}"
        );
    }
}

#[test]
fn prometheus_exposition_conforms_and_escapes_labels() {
    // A local registry — deliberately not the global one, so this test
    // never races the schema test over the process-wide flags.
    let metrics = lotusx_obs::Metrics::new();
    metrics.record_stage(Stage::Parse, 1_500);
    metrics.record_stage(Stage::HttpQueueWait, 900);
    metrics.record_stage(Stage::HttpFlush, 12_000);
    metrics.counters.queries.fetch_add(3, Ordering::Relaxed);
    metrics.counters.cache_hit.fetch_add(1, Ordering::Relaxed);

    let body = metrics.snapshot().to_prometheus();
    assert_conformant(&body);
    // A label value that needs all three escapes.
    let mut w = lotusx_obs::PromWriter::new();
    w.sample("lotusx_x", &[("series", "evil\"name\\with\nnewline")], 1.0);
    let escaped = w.finish();
    assert_conformant(&escaped);
    assert!(
        escaped.contains("series=\"evil\\\"name\\\\with\\nnewline\""),
        "label value must escape quote, backslash and newline:\n{escaped}"
    );
    // Stage histograms render as summaries in seconds.
    assert!(body.contains("# TYPE lotusx_stage_seconds summary"));
    assert!(body.contains("lotusx_stage_seconds_count{stage=\"http_queue_wait\"} 1"));

    // The server-side counters conform too, gauges and counters alike.
    let stats = lotusx_serve::ServerStats::default();
    stats.requests.fetch_add(7, Ordering::Relaxed);
    stats.connections_open.fetch_add(2, Ordering::Relaxed);
    let body = stats.snapshot().to_prometheus();
    assert_conformant(&body);
    assert!(body.contains("# TYPE lotusx_server_requests_total counter"));
    assert!(body.contains("# TYPE lotusx_server_connections_open gauge"));

    // The fast-path work counters ride the same one field list: counters
    // for answers and fallbacks, a gauge for the deadline wheel — in the
    // exposition and in the `/stats` JSON alike.
    stats.inline_answers.fetch_add(5, Ordering::Relaxed);
    stats.inline_fallbacks.fetch_add(2, Ordering::Relaxed);
    stats.timer_entries.store(1, Ordering::Relaxed);
    let snapshot = stats.snapshot();
    let body = snapshot.to_prometheus();
    assert_conformant(&body);
    for line in [
        "# TYPE lotusx_server_inline_answers_total counter",
        "lotusx_server_inline_answers_total 5",
        "# TYPE lotusx_server_inline_fallbacks_total counter",
        "lotusx_server_inline_fallbacks_total 2",
        "# TYPE lotusx_server_timer_entries gauge",
        "lotusx_server_timer_entries 1",
    ] {
        assert!(body.lines().any(|l| l == line), "missing {line:?}:\n{body}");
    }
    let json = lotusx_obs::parse_json(&snapshot.to_json()).expect("server section is JSON");
    for (key, want) in [
        ("inline_answers", 5.0),
        ("inline_fallbacks", 2.0),
        ("timer_entries", 1.0),
    ] {
        assert_eq!(json.get(key).and_then(|v| v.as_f64()), Some(want), "{key}");
    }
}

#[test]
fn prometheus_counters_are_monotonic_across_scrapes() {
    let stats = lotusx_serve::ServerStats::default();
    let value = |body: &str, name: &str| -> f64 {
        body.lines()
            .filter(|l| !l.starts_with('#'))
            .find_map(|l| {
                let mut it = l.split_whitespace();
                (it.next() == Some(name)).then(|| it.next().unwrap().parse().unwrap())
            })
            .unwrap_or_else(|| panic!("metric {name} missing"))
    };

    stats.requests.fetch_add(3, Ordering::Relaxed);
    stats.queries.fetch_add(2, Ordering::Relaxed);
    let first = stats.snapshot().to_prometheus();
    stats.requests.fetch_add(4, Ordering::Relaxed);
    stats.queries.fetch_add(1, Ordering::Relaxed);
    let second = stats.snapshot().to_prometheus();

    for (name, a, b) in [
        ("lotusx_server_requests_total", 3.0, 7.0),
        ("lotusx_server_queries_total", 2.0, 3.0),
    ] {
        assert_eq!(value(&first, name), a);
        assert_eq!(value(&second, name), b);
        assert!(
            value(&second, name) > value(&first, name),
            "{name} regressed"
        );
    }
}

// --- The counter table, by enumeration ---------------------------------

#[test]
fn counter_tables_are_well_formed_and_are_exactly_what_is_served() {
    use lotusx_obs::{CounterKind, CounterRow, ProcessCounters};
    use lotusx_serve::{client, ServeConfig, Server, ServerStats, TenantStats};
    let scopes: [(&str, &[CounterRow]); 3] = [
        ("lotusx_", ProcessCounters::ROWS),
        ("lotusx_server_", ServerStats::ROWS),
        ("lotusx_tenant_", TenantStats::ROWS),
    ];
    for (prefix, rows) in scopes {
        let unique: std::collections::HashSet<_> = rows.iter().map(|r| r.name).collect();
        assert_eq!(unique.len(), rows.len(), "{prefix}: a wire name repeats");
        for row in rows {
            let (family, kind) = row.family(prefix);
            assert!(valid_metric_name(&family), "{family}");
            // A sentence of its own, not the old "Server counter `name`.".
            assert!(
                row.help.contains(' ') && !row.help.contains(&format!("`{}`", row.name)),
                "{family}: help {:?} must describe, not restate",
                row.help
            );
            let want = match row.kind {
                CounterKind::Counter => (true, "counter"),
                CounterKind::Gauge => (false, "gauge"),
            };
            assert_eq!((family.ends_with("_total"), kind), want, "{family}");
        }
    }
    // The names other programs (loadgen gates and per-layer lookups,
    // soak, probes, CI) read out of `/stats` are rows.
    let read_by_name = [
        (
            ProcessCounters::ROWS,
            "cache_hit cache_miss queries degraded_responses queries_deadline_exceeded",
        ),
        (
            ServerStats::ROWS,
            "requests rejected panics connections_accepted connections_open keepalive_reuses \
             loop_wakeups ready_events inline_answers inline_fallbacks timer_entries \
             access_log_dropped queue_depth max_queue_depth",
        ),
    ];
    for (rows, names) in read_by_name {
        for name in names.split(' ') {
            assert!(rows.iter().any(|r| r.name == name), "no row {name}");
        }
    }

    // What a live server renders from them.
    let engine = LotusX::load_str("<a><b>x</b></a>").unwrap();
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let (addr, handle) = (server.local_addr(), server.handle());
    let (stats, scrape) = std::thread::scope(|scope| {
        scope.spawn(|| server.run(&lotusx::EngineRegistry::single_tenant(engine)));
        let bodies = ["/stats", "/metrics"].map(|p| client::get(addr, p).map(|r| r.body_text()));
        handle.shutdown();
        bodies.map(|b| b.expect("served")).into()
    });
    let doc = parse_json(&stats).expect("/stats parses");
    let names = |rows: &[CounterRow]| -> Vec<&str> { rows.iter().map(|r| r.name).collect() };
    assert_eq!(keys(doc.get("server")), names(ServerStats::ROWS));
    let tenants = doc.get("tenants").and_then(JsonValue::as_obj).unwrap();
    assert_eq!(tenants.len(), 1, "the implicit default tenant");
    for (_, tenant) in tenants {
        assert_eq!(keys(Some(tenant)), names(TenantStats::ROWS));
    }
    let metrics = doc.get("metrics");
    assert_eq!(keys(metrics), ["stages", "counters", "trace"]);
    let member = |key| metrics.and_then(|m| m.get(key));
    assert_eq!(keys(member("stages")), Stage::ALL.map(|s| s.name()));
    assert_eq!(keys(member("counters")), names(ProcessCounters::ROWS));

    // Family ↔ row, both ways, for the two prefixes rows own outright;
    // every scope's `# HELP` is the row's help.
    for (prefix, rows) in scopes {
        let declared: Vec<String> = rows.iter().map(|r| r.family(prefix).0).collect();
        for (row, family) in rows.iter().zip(&declared) {
            let header = format!("# HELP {family} {}\n# TYPE {family} ", row.help);
            assert_eq!(scrape.matches(&header).count(), 1, "{header}");
        }
        if prefix != "lotusx_" {
            let served: Vec<&str> = scrape
                .lines()
                .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
                .filter(|f| f.starts_with(prefix))
                .collect();
            assert_eq!(
                served, declared,
                "{prefix}* families are the rows, in order"
            );
        }
    }
}
