//! The `--trace 1` pass: per-layer metrics and the latency budget.
//!
//! Three sources, none of which touches a layer's code:
//!
//! 1. a *plain* and an *access-logged* server lifetime — client
//!    latency, the `http_*` stage sums and loop counters of `/stats`
//!    scraped around the measured pass, the access log's `parse_ns`,
//!    and the throughput the logging costs;
//! 2. an in-process *boot replay*: the calls the server's start-up
//!    makes into `xml`, `labeling`, `index`, `autocomplete`, `storage`,
//!    each under a span;
//! 3. an in-process *request replay* on the freshly booted copy: every
//!    request of the workload's sequence through the worker's steps
//!    (frame, route, decode, engine call, encode), one span per step.
//!
//! What happens inside an engine call — `twig` parse and join,
//! `rewrite`, `rank`, `keyword`, `autocomplete` — is not taken apart
//! here: the server times those stages itself and `/stats` has them.
//!
//! End-to-end metrics are never taken from this pass.

use crate::generator::Oracle;
use crate::replica::Replica;
use crate::spans::Spans;
use crate::workload::{Class, Workload};
use crate::{procfs, run_lifetime, stats, Args, Lifetime, Metric};
use std::path::Path;
use std::time::{Duration, Instant};

/// Bounds on the request replay: enough calls for stable medians, few
/// enough that the span file stays loadable.
const REPLAY_BUDGET: Duration = Duration::from_secs(3);
const REPLAY_MAX_OPS: usize = 4000;

/// The join algorithms `Algorithm::Auto` can pick, by the suffix of
/// their `algo_chosen_*` counter, with the metric that reports the share.
const AUTO_PICKS: [(&str, &str, &str); 6] = [
    ("naive", "twig.auto_pick.naive", "ratio"),
    ("structural_join", "twig.auto_pick.structural_join", "ratio"),
    ("pathstack", "twig.auto_pick.pathstack", "ratio"),
    ("twigstack", "twig.auto_pick.twigstack", "ratio"),
    ("tjfast", "twig.auto_pick.tjfast", "ratio"),
    (
        "twigstack_guided",
        "twig.auto_pick.twigstack_guided",
        "ratio",
    ),
];

fn median_us(ns: &[u64]) -> f64 {
    stats::median_u64(ns).map_or(0.0, |v| v as f64 / 1e3)
}

fn sum_ms(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Samples and nanoseconds a `/stats` stage gained over the measured pass.
fn stage_delta(l: &Lifetime, stage: &str) -> (u64, u64) {
    let (c0, s0) = l.before.stage(stage);
    let (c1, s1) = l.after.stage(stage);
    (c1 - c0, s1 - s0)
}

/// Mean of a `/stats` stage over the measured pass, in µs per sample.
fn stage_mean_us(l: &Lifetime, stage: &str) -> f64 {
    let (count, sum_ns) = stage_delta(l, stage);
    ratio(sum_ns as f64 / 1e3, count as f64)
}

/// Mean `parse_ns` of the access log's query and completion lines, µs.
fn access_log_parse_us(path: &Path) -> Result<(f64, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (mut sum, mut lines) = (0.0, 0u64);
    for line in text.lines() {
        let doc = lotusx_obs::parse_json(line).map_err(|e| format!("access log line: {e}"))?;
        let path = doc.get("path").and_then(|v| v.as_str()).unwrap_or("");
        if path.ends_with("/query") || path.ends_with("/complete") {
            sum += doc.get("parse_ns").and_then(|v| v.as_f64()).unwrap_or(0.0);
            lines += 1;
        }
    }
    Ok((ratio(sum / 1e3, lines as f64), lines))
}

/// Replays the workload's sequence on `replica` the way a lifetime
/// runs it: the first `warm_ops` operations untimed (they fill the
/// caches the server's untimed pass fills), the following ones under
/// spans.
fn replay_requests(
    replica: &Replica,
    workload: &Workload,
    warm_ops: usize,
    spans: &mut Spans,
) -> Result<(), String> {
    let mut sequence = workload.ops.iter().cycle();
    let mut untimed = Spans::new(false);
    for op in sequence.by_ref().take(warm_ops) {
        for &request in op {
            replica.answer(&workload.requests[request as usize].bytes, &mut untimed)?;
        }
    }
    let started = Instant::now();
    let mut request_id = 0;
    for op in sequence.take(REPLAY_MAX_OPS) {
        if started.elapsed() > REPLAY_BUDGET {
            break;
        }
        for &request in op {
            spans.set_request(request_id);
            request_id += 1;
            replica.answer(&workload.requests[request as usize].bytes, spans)?;
        }
    }
    Ok(())
}

pub fn run(
    args: &Args,
    replica: &Replica,
    workload: &Workload,
    oracle: &mut Oracle<'_>,
    measure: Duration,
) -> Result<(u64, u64, Vec<Metric>), String> {
    let name = workload.spec.name;
    let access_log = args.out.join(format!("{name}.access.jsonl"));
    let plain = run_lifetime(args, replica, workload, oracle, measure, None)?;
    let logged = run_lifetime(args, replica, workload, oracle, measure, Some(&access_log))?;
    let (parse_us, log_lines) = access_log_parse_us(&access_log)?;

    let mut spans = Spans::new(true);
    let fresh = replica.replay_boot(&mut spans)?;
    replay_requests(&fresh, workload, logged.warm.ops.len(), &mut spans)?;
    let span_file = args.out.join(format!("{name}.trace.json"));
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(&span_file).map_err(|e| format!("{}: {e}", span_file.display()))?,
    );
    spans
        .write_chrome_trace(&mut out)
        .and_then(|_| std::io::Write::flush(&mut out))
        .map_err(|e| format!("writing {}: {e}", span_file.display()))?;
    eprintln!(
        "{} spans written to {}",
        spans.all().len(),
        span_file.display()
    );

    // --- boot path -------------------------------------------------------
    let labeling_ms = sum_ms(&spans.durations("labeling.compute"));
    let read_ms = sum_ms(&spans.durations("storage.snapshot_read"));
    let mut metrics: Vec<Metric> = vec![
        ("xml.parse_ms", "ms", sum_ms(&spans.durations("xml.parse"))),
        ("labeling.compute_ms", "ms", labeling_ms),
        (
            "index.build_ms",
            "ms",
            (sum_ms(&spans.durations("index.build")) - labeling_ms).max(0.0),
        ),
        (
            "autocomplete.precompute_ms",
            "ms",
            sum_ms(&spans.durations("autocomplete.precompute")),
        ),
        ("storage.snapshot_read_ms", "ms", read_ms),
        (
            "index.snapshot_decode_ms",
            "ms",
            (sum_ms(&spans.durations("core.open_snapshot")) - read_ms).max(0.0),
        ),
        (
            "storage.snapshot_bytes",
            "B",
            replica.hosted().iter().map(|h| h.ltsx_bytes).sum::<u64>() as f64,
        ),
        (
            "index.size_bytes",
            "B",
            (0..replica.hosted().len())
                .map(|t| replica.engine(t).index().index_size_bytes())
                .sum::<usize>() as f64,
        ),
    ];

    // --- request decode/encode from the replay, engine from /stats ---------
    let layer = |span: &str| median_us(&spans.durations(span));
    let stage = |name: &str| stage_mean_us(&logged, name);
    // What a query costs the engine beyond the stages it times itself:
    // cache lookup and insert, snippets, the clone of a cached answer.
    let (queries, total_ns) = stage_delta(&logged, "total");
    let staged_ns: u64 = ["parse", "match", "rewrite", "rank", "keyword"]
        .iter()
        .map(|s| stage_delta(&logged, s).1)
        .sum();
    let query_self_us = ratio(
        total_ns.saturating_sub(staged_ns) as f64 / 1e3,
        queries as f64,
    );
    let requests = logged.measured.requests() as f64;
    let request_bytes: usize = logged
        .measured
        .seen
        .iter()
        .map(|s| workload.requests[s.request as usize].bytes.len())
        .sum();
    let response_bytes: u64 = logged
        .measured
        .seen
        .iter()
        .map(|s| u64::from(s.digest.len))
        .sum();
    let counter = |name: &str| logged.counter_delta(name) as f64;
    let server = |name: &str| logged.server_delta(name) as f64;
    let hits = counter("cache_hit");
    let misses = counter("cache_miss");
    metrics.extend([
        ("serve.http.parse_us", "us", layer("serve.http.parse")),
        ("serve.wire.decode_us", "us", layer("serve.wire.decode")),
        ("serve.wire.encode_us", "us", layer("serve.wire.encode")),
        ("serve.http.encode_us", "us", layer("serve.http.encode")),
        (
            "serve.request_bytes",
            "B",
            ratio(request_bytes as f64, requests),
        ),
        (
            "serve.response_bytes",
            "B",
            ratio(response_bytes as f64, requests),
        ),
        (
            "core.routing.resolve_us",
            "us",
            layer("core.routing.resolve"),
        ),
        ("core.query_hit_us", "us", layer("core.query_hit")),
        ("core.query_miss_us", "us", layer("core.query_miss")),
        ("core.query_self_us", "us", query_self_us),
        (
            "core.cache_hit_ratio",
            "ratio",
            // -1: the workload sends no cacheable query.
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                -1.0
            },
        ),
        ("twig.parse_us", "us", stage("parse")),
        ("twig.choose_us", "us", layer("twig.choose")),
        ("twig.execute_us", "us", stage("match")),
        (
            "twig.matches_per_query",
            "count",
            stats::median_u64(&spans.counts("twig.matches")).unwrap_or(0) as f64,
        ),
        ("rank.top_k_us", "us", stage("rank")),
        ("rewrite.rewrite_us", "us", stage("rewrite")),
        ("keyword.search_us", "us", stage("keyword")),
        ("autocomplete.tag_us", "us", stage("complete_tag")),
        ("autocomplete.value_us", "us", stage("complete_value")),
    ]);
    let picked: f64 = AUTO_PICKS
        .iter()
        .map(|(suffix, _, _)| counter(&format!("algo_chosen_{suffix}")))
        .sum();
    for (suffix, metric, unit) in AUTO_PICKS {
        let n = counter(&format!("algo_chosen_{suffix}"));
        metrics.push((metric, unit, ratio(n, picked)));
    }

    // --- event loop, from the access-logged lifetime -----------------------
    let ops = logged.measured.attempted() as f64;
    let per_op = requests / ops;
    let queue_us = stage_mean_us(&logged, "http_queue_wait");
    let compute_us = stage_mean_us(&logged, "http_compute");
    let flush_us = stage_mean_us(&logged, "http_flush");
    let client_mean_us = stats::mean(&logged.measured.op_latencies()) / 1e3;
    let accounted_us = (parse_us + queue_us + compute_us + flush_us) * per_op;
    let unaccounted_us = client_mean_us - accounted_us;
    let wakeups = server("loop_wakeups");
    metrics.extend([
        ("serve.loop.queue_wait_us", "us", queue_us),
        ("serve.worker.compute_us", "us", compute_us),
        ("serve.loop.flush_us", "us", flush_us),
        (
            "serve.loop.lag_us",
            "us",
            stage_mean_us(&logged, "http_loop_lag"),
        ),
        ("serve.loop.wakeups_per_op", "count", ratio(wakeups, ops)),
        (
            "serve.loop.ready_events_per_wakeup",
            "count",
            ratio(server("ready_events"), wakeups),
        ),
        (
            "serve.conn.accepts_per_op",
            "count",
            ratio(server("connections_accepted"), ops),
        ),
        (
            "serve.conn.keepalive_reuse_share",
            "ratio",
            // Both deltas include the closing `/stats` scrape.
            ratio(server("keepalive_reuses"), server("requests")),
        ),
        ("serve.unaccounted_us", "us", unaccounted_us),
        (
            "serve.unaccounted_share",
            "ratio",
            ratio(unaccounted_us, client_mean_us),
        ),
    ]);

    // --- generator and tracing --------------------------------------------
    let plain_ops = plain.measured.ok() as f64;
    let mut plain_sorted = plain.measured.op_latencies();
    plain_sorted.sort_unstable();
    let throughput = |l: &Lifetime| l.measured.ok() as f64 / l.measured.elapsed.as_secs_f64();
    let class_p50 = |class| median_us(&plain.measured.request_latencies(workload, class));
    metrics.extend([
        (
            "client.cpu_us_per_op",
            "us",
            ratio(plain.client_ticks as f64 * procfs::tick_us(), plain_ops),
        ),
        (
            "client.latency_p90_us",
            "us",
            stats::percentile(&plain_sorted, 90.0).unwrap_or(0) as f64 / 1e3,
        ),
        (
            "client.latency_p99_us",
            "us",
            stats::percentile(&plain_sorted, 99.0).unwrap_or(0) as f64 / 1e3,
        ),
        (
            "client.latency_max_us",
            "us",
            plain_sorted.last().copied().unwrap_or(0) as f64 / 1e3,
        ),
        (
            "client.connect_us",
            "us",
            median_us(&plain.measured.connect_ns),
        ),
        ("client.complete_p50_us", "us", class_p50(Class::Complete)),
        ("client.query_p50_us", "us", class_p50(Class::Query)),
        (
            "obs.trace_overhead_pct",
            "%",
            100.0 * (1.0 - ratio(throughput(&logged), throughput(&plain))),
        ),
    ]);

    // --- the latency budget ------------------------------------------------
    // The engine's share is the server's own: every query is one sample
    // of `total`, every completion one of `complete_*`.
    let engine_ns: u64 = ["total", "complete_tag", "complete_value"]
        .iter()
        .map(|s| stage_delta(&logged, s).1)
        .sum();
    let replayed = spans.durations("request").len() as f64;
    let mean_of = |span: &str| {
        ratio(
            spans.durations(span).iter().sum::<u64>() as f64 / 1e3,
            replayed,
        )
    };
    let in_library = [
        ("serve.wire.decode (replay)", mean_of("serve.wire.decode")),
        ("engine (/stats)", ratio(engine_ns as f64 / 1e3, requests)),
        ("serve.wire.encode (replay)", mean_of("serve.wire.encode")),
        ("serve.http.encode (replay)", mean_of("serve.http.encode")),
    ];
    let library_us: f64 = in_library.iter().map(|(_, v)| v).sum();
    eprintln!("latency budget of {name}, µs per operation ({per_op:.0} request(s) each; access log: {log_lines} lines, {} dropped):",
        logged.after.server("access_log_dropped"));
    let row = |label: &str, v: f64| eprintln!("  {label:<44} {v:>12.2}");
    row("client-observed mean (access-logged run)", client_mean_us);
    row("= serve.http.parse (access log)", parse_us * per_op);
    row("+ serve.loop.queue_wait", queue_us * per_op);
    row("+ serve.worker.compute", compute_us * per_op);
    for (label, v) in in_library {
        row(&format!("    of which {label}"), v * per_op);
    }
    row(
        "    of which worker, outside the library",
        (compute_us - library_us) * per_op,
    );
    row("+ serve.loop.flush", flush_us * per_op);
    row(
        "+ serve.unaccounted (kernel, wake-ups, client)",
        unaccounted_us,
    );
    row("sum", accounted_us + unaccounted_us);

    let both = [&plain, &logged];
    let attempted = both
        .iter()
        .map(|l| l.warm.attempted() + l.measured.attempted())
        .sum();
    let failed = both.iter().map(|l| l.warm.failed + l.measured.failed).sum();
    Ok((attempted, failed, metrics))
}
