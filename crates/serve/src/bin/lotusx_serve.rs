//! The `lotusx-serve` binary: serve a generated corpus over HTTP.
//!
//! ```text
//! lotusx-serve [--addr HOST:PORT] [--threads N] [--max-inflight N]
//!              [--corpus SOURCE] [--read-timeout-ms MS]
//!              [--write-timeout-ms MS] [--idle-timeout-ms MS]
//!              [--backend auto|poll|epoll] [--access-log PATH]
//! lotusx-serve --routes FILE             # multi-tenant registry server
//! lotusx-serve --corpus SOURCE --snapshot save:PATH   # build, save, exit
//! lotusx-serve --snapshot load:PATH                   # serve from snapshot
//! lotusx-serve --probe HOST:PORT         # healthz + one query, exit 0/1
//! lotusx-serve --metrics-probe HOST:PORT # keep-alive traffic + two
//!                                        # /metrics scrapes, exit 0/1
//! lotusx-serve --stop HOST:PORT          # graceful remote shutdown
//! ```
//!
//! `SOURCE` is any corpus source: `@dataset[:scale[:seed]]`, an XML
//! file, or a `.ltsx` snapshot.
//!
//! `--routes FILE` starts a multi-tenant server: the JSON config names
//! each tenant (with its own corpus source, admission quota, and
//! default budgets) and the routing rules that map requests onto them
//! (`/t/<name>` prefixes, headers, predicate trees). The rule list can
//! be hot-reloaded at runtime with `POST /admin/routes`. `--corpus` and
//! `--snapshot` do not combine with `--routes` — corpora come from the
//! config file.
//!
//! `--access-log PATH` writes one JSONL line per response (method,
//! path, status, bytes, connection id, close disposition, and the
//! parse/queue/compute/flush timing breakdown). Setting the
//! `LOTUSX_TRACE=PATH` environment variable turns structured event
//! tracing on for the server's lifetime and writes a Chrome/Perfetto
//! trace (with per-connection lifecycle lanes) to `PATH` on shutdown.
//!
//! The server prints `listening on <ADDR>` once bound (scripts wait for
//! that line), then serves until it reads `quit` on stdin, receives
//! `POST /shutdown`, or the process is killed. EOF on stdin ends the
//! reader — backgrounding with `</dev/null` does not stop the server.

use lotusx::{CorpusSource, EngineRegistry, LotusX, RegistryConfig};
use lotusx_serve::{client, ServeConfig, Server, ServerHandle, ServerStats};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::Serve(config, corpus, snapshot)) => serve(config, &corpus, snapshot),
        Ok(Mode::ServeRoutes(config, routes)) => serve_routes(config, &routes),
        Ok(Mode::Probe(addr)) => probe(addr),
        Ok(Mode::MetricsProbe(addr)) => metrics_probe(addr),
        Ok(Mode::Stop(addr)) => stop(addr),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lotusx-serve [--addr HOST:PORT] [--threads N] [--max-inflight N] \
                 [--corpus SOURCE] [--snapshot save:PATH|load:PATH] [--routes FILE] \
                 [--read-timeout-ms MS] [--write-timeout-ms MS] [--idle-timeout-ms MS] \
                 [--backend auto|poll|epoll] [--access-log PATH]\n\
                 \x20      lotusx-serve --probe HOST:PORT | --metrics-probe HOST:PORT \
                 | --stop HOST:PORT\n\
                 SOURCE: @dataset[:scale[:seed]] | file.xml | file.ltsx"
            );
            ExitCode::FAILURE
        }
    }
}

enum SnapshotAction {
    /// Build the corpus, write the snapshot, exit without serving.
    Save(PathBuf),
    /// Serve from a snapshot instead of the `--corpus` source.
    Load(PathBuf),
}

enum Mode {
    Serve(ServeConfig, String, Option<SnapshotAction>),
    /// Multi-tenant registry server from a `--routes` config file.
    ServeRoutes(ServeConfig, PathBuf),
    Probe(SocketAddr),
    MetricsProbe(SocketAddr),
    Stop(SocketAddr),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut config = ServeConfig {
        addr: "127.0.0.1:8080".to_string(),
        ..ServeConfig::default()
    };
    let mut corpus = "@dblp:1".to_string();
    let mut corpus_set = false;
    let mut snapshot = None;
    let mut routes: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--threads" => {
                config.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be a positive integer".to_string())?
            }
            "--max-inflight" => {
                config.max_inflight = value("--max-inflight")?
                    .parse()
                    .map_err(|_| "--max-inflight must be a positive integer".to_string())?
            }
            "--read-timeout-ms" => {
                let ms: u64 = value("--read-timeout-ms")?
                    .parse()
                    .map_err(|_| "--read-timeout-ms must be an integer".to_string())?;
                config.read_timeout = Duration::from_millis(ms);
            }
            "--write-timeout-ms" => {
                let ms: u64 = value("--write-timeout-ms")?
                    .parse()
                    .map_err(|_| "--write-timeout-ms must be an integer".to_string())?;
                config.write_timeout = Duration::from_millis(ms);
            }
            "--idle-timeout-ms" => {
                let ms: u64 = value("--idle-timeout-ms")?
                    .parse()
                    .map_err(|_| "--idle-timeout-ms must be an integer".to_string())?;
                config.idle_timeout = Duration::from_millis(ms);
            }
            "--backend" => config.backend = lotusx_serve::Backend::parse(&value("--backend")?)?,
            "--access-log" => config.access_log = Some(PathBuf::from(value("--access-log")?)),
            "--corpus" => {
                corpus = value("--corpus")?;
                corpus_set = true;
            }
            "--routes" => routes = Some(PathBuf::from(value("--routes")?)),
            "--snapshot" => {
                let action = value("--snapshot")?;
                snapshot = Some(match action.split_once(':') {
                    Some(("save", path)) if !path.is_empty() => {
                        SnapshotAction::Save(PathBuf::from(path))
                    }
                    Some(("load", path)) if !path.is_empty() => {
                        SnapshotAction::Load(PathBuf::from(path))
                    }
                    _ => {
                        return Err(format!(
                            "--snapshot takes save:PATH or load:PATH, got {action:?}"
                        ))
                    }
                });
            }
            "--probe" => return Ok(Mode::Probe(parse_addr(&value("--probe")?)?)),
            "--metrics-probe" => {
                return Ok(Mode::MetricsProbe(parse_addr(&value("--metrics-probe")?)?))
            }
            "--stop" => return Ok(Mode::Stop(parse_addr(&value("--stop")?)?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(routes) = routes {
        if corpus_set || snapshot.is_some() {
            return Err("--routes does not combine with --corpus/--snapshot \
                        (tenant corpora come from the config file)"
                .to_string());
        }
        return Ok(Mode::ServeRoutes(config, routes));
    }
    Ok(Mode::Serve(config, corpus, snapshot))
}

fn parse_addr(s: &str) -> Result<SocketAddr, String> {
    s.parse().map_err(|_| format!("bad address {s:?}"))
}

fn serve(config: ServeConfig, corpus: &str, snapshot: Option<SnapshotAction>) -> ExitCode {
    let source = if let Some(SnapshotAction::Load(path)) = &snapshot {
        CorpusSource::Snapshot(path.clone())
    } else {
        match corpus.parse::<CorpusSource>() {
            Ok(source) => source,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    lotusx_obs::set_enabled(true);
    let trace_path = std::env::var_os("LOTUSX_TRACE").map(PathBuf::from);
    if trace_path.is_some() {
        lotusx_obs::set_tracing(true);
    }
    eprintln!("opening corpus {source} ...");
    let engine = match LotusX::open(&source) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("error: opening corpus {source} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(SnapshotAction::Save(path)) = &snapshot {
        if let Err(e) = engine.save_snapshot(path) {
            eprintln!("error: saving snapshot failed: {e}");
            return ExitCode::FAILURE;
        }
        println!("snapshot saved to {}", path.display());
        return ExitCode::SUCCESS;
    }
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = server.handle();
    // The wait-for line: scripts poll for this exact prefix.
    println!("listening on {}", server.local_addr());

    spawn_stdin_control(&handle);
    server.run(&engine);
    finish(trace_path, &handle)
}

/// Serves a multi-tenant registry from a `--routes` config file.
fn serve_routes(config: ServeConfig, routes: &std::path::Path) -> ExitCode {
    let text = match std::fs::read_to_string(routes) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: reading {} failed: {e}", routes.display());
            return ExitCode::FAILURE;
        }
    };
    let registry_config = match RegistryConfig::parse(&text) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {}: {e}", routes.display());
            return ExitCode::FAILURE;
        }
    };
    lotusx_obs::set_enabled(true);
    let trace_path = std::env::var_os("LOTUSX_TRACE").map(PathBuf::from);
    if trace_path.is_some() {
        lotusx_obs::set_tracing(true);
    }
    for tenant in &registry_config.tenants {
        eprintln!("opening tenant {} ({}) ...", tenant.name, tenant.source);
    }
    let registry = match EngineRegistry::open(&registry_config) {
        Ok(registry) => registry,
        Err(e) => {
            eprintln!("error: opening registry failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = server.handle();
    eprintln!(
        "serving {} tenants, {} routing rules",
        registry.tenants().len(),
        registry.routes().rules().len()
    );
    // The wait-for line: scripts poll for this exact prefix.
    println!("listening on {}", server.local_addr());
    spawn_stdin_control(&handle);
    server.run_registry(&registry);
    for (name, tenant) in handle.tenant_stats() {
        eprintln!(
            "tenant {name}: {} requests ({} queries, {} rejected, {} quota rejects)",
            tenant.requests, tenant.queries, tenant.rejected, tenant.quota_rejects
        );
    }
    finish(trace_path, &handle)
}

/// stdin control: a `quit` line triggers graceful shutdown; EOF ends the
/// reader and leaves the server up, so `</dev/null &` backgrounding
/// works. The thread is detached, never joined: `read_line` on an open,
/// silent stdin does not return, and a scoped reader kept the process
/// alive after `/shutdown` for as long as the pipe's writer lived.
fn spawn_stdin_control(handle: &ServerHandle) {
    let handle = handle.clone();
    std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::stdin().read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) if line.trim() == "quit" => return handle.shutdown(),
                Ok(_) => {}
            }
        }
    });
}

/// Post-run trace dump and final stats line, shared by both modes.
fn finish(trace_path: Option<PathBuf>, handle: &ServerHandle) -> ExitCode {
    if let Some(path) = trace_path {
        let events = lotusx_obs::drain_events();
        let json = lotusx_obs::chrome_trace_json_with(&events, Some(lotusx_obs::trace_counters()));
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!(
                "trace: {} events written to {}",
                events.len(),
                path.display()
            ),
            Err(e) => eprintln!("trace: writing {} failed: {e}", path.display()),
        }
    }
    let stats = handle.stats();
    eprintln!(
        "stopped: {} requests ({} rejected, {} panics)",
        stats.requests, stats.rejected, stats.panics
    );
    ExitCode::SUCCESS
}

/// Liveness + one end-to-end query against a running server.
fn probe(addr: SocketAddr) -> ExitCode {
    let health = match client::get(addr, "/healthz") {
        Ok(r) if r.status == 200 => r,
        Ok(r) => {
            eprintln!("probe: /healthz answered {}", r.status);
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("probe: /healthz failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if health.body_text().trim() != "ok" {
        eprintln!("probe: unexpected health body {:?}", health.body_text());
        return ExitCode::FAILURE;
    }
    // A keyword query works on any corpus (twig probes would need to
    // know the schema); an empty result set is still a valid probe.
    let query = "{\"text\":\"author\",\"kind\":\"keyword\",\"top_k\":1}";
    match client::post(addr, "/query", query) {
        Ok(r) if r.status == 200 && r.body_text().contains("\"total_matches\":") => {
            if let Err(e) = check_work_counters(addr) {
                eprintln!("probe: {e}");
                return ExitCode::FAILURE;
            }
            println!("probe ok: {}", r.body_text().trim_end());
            ExitCode::SUCCESS
        }
        Ok(r) => {
            eprintln!("probe: /query answered {}: {}", r.status, r.body_text());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("probe: /query failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The deterministic tripwire both probes end with: after their traffic
/// `/stats` must show the loop-thread fast path at work
/// (`inline_answers` > 0 — `/healthz` and `/metrics` are answered
/// there), no isolated panic, and a deadline wheel holding at most one
/// entry per open connection. Returns the `/stats` document it checked.
fn check_work_counters(addr: SocketAddr) -> Result<lotusx_obs::JsonValue, String> {
    let r = client::get(addr, "/stats").map_err(|e| format!("/stats failed: {e}"))?;
    if r.status != 200 {
        return Err(format!("/stats answered {}", r.status));
    }
    let doc = lotusx_obs::parse_json(&r.body_text()).map_err(|e| format!("/stats body: {e}"))?;
    let server = |key: &str| server_counter(&doc, key);
    let (inline, panics) = (server("inline_answers")?, server("panics")?);
    let (entries, open) = (server("timer_entries")?, server("connections_open")?);
    if inline == 0 {
        return Err("inline_answers is 0: the loop-thread fast path answered nothing".into());
    }
    if panics != 0 {
        return Err(format!("{panics} handler panic(s)"));
    }
    if entries > open + 1 {
        return Err(format!(
            "{entries} timer entries for {open} open connection(s): the wheel grows with requests"
        ));
    }
    Ok(doc)
}

/// One counter of the `server` section of a `/stats` document.
fn server_counter(stats: &lotusx_obs::JsonValue, key: &str) -> Result<u64, String> {
    stats
        .get("server")
        .and_then(|s| s.get(key))
        .and_then(|v| v.as_f64())
        .map(|v| v as u64)
        .ok_or_else(|| format!("/stats has no server.{key}"))
}

/// The tripwire that says `/metrics` and `/stats` are two renderings of
/// one counter table: no family of the deleted `http_*` mirror, no
/// `# HELP` that is the old name-restating placeholder, and every server
/// `counter` row at least as large in `stats` (taken later) as in
/// `scrape` (taken earlier).
fn check_one_table(scrape: &str, stats: &lotusx_obs::JsonValue) -> Result<(), String> {
    if let Some(line) = scrape.lines().find(|l| l.contains("lotusx_http_")) {
        return Err(format!("a mirrored http_* family is back: {line:?}"));
    }
    let placeholder =
        |l: &&str| l.starts_with("# HELP") && (l.contains(" counter `") || l.contains(" gauge `"));
    if let Some(line) = scrape.lines().find(placeholder) {
        return Err(format!("placeholder help text: {line:?}"));
    }
    let counters = ServerStats::ROWS
        .iter()
        .filter(|row| row.kind == lotusx_obs::CounterKind::Counter);
    for row in counters {
        let (family, _) = row.family("lotusx_server_");
        let before = metric_value(scrape, &family).ok_or(format!("scrape lacks {family}"))?;
        let after = server_counter(stats, row.name)? as f64;
        if after < before {
            return Err(format!(
                "{family} read {before}, then /stats {after}: one row, two counts"
            ));
        }
    }
    Ok(())
}

/// The value of a single-sample Prometheus family in an exposition
/// body (a line `name VALUE`, no labels).
fn metric_value(body: &str, name: &str) -> Option<f64> {
    body.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse::<f64>().ok()
    })
}

/// Structural check of one exposition document: every non-comment line
/// is `name[{labels}] value`, and no `# TYPE` family repeats.
fn check_exposition(body: &str) -> Result<(), String> {
    let mut families = std::collections::HashSet::new();
    for (i, line) in body.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let family = rest.split(' ').next().unwrap_or("");
            if !families.insert(family.to_string()) {
                return Err(format!("family {family} has more than one # TYPE line"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", i + 1))?;
        let name = name_part.split('{').next().unwrap_or("");
        let name_ok = !name.is_empty()
            && name.chars().enumerate().all(|(j, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (j > 0 && c.is_ascii_digit())
            });
        if !name_ok {
            return Err(format!("line {}: bad metric name: {line:?}", i + 1));
        }
        let value_ok =
            value_part.parse::<f64>().is_ok() || matches!(value_part, "NaN" | "+Inf" | "-Inf");
        if !value_ok {
            return Err(format!("line {}: bad value: {line:?}", i + 1));
        }
    }
    Ok(())
}

/// Drives a keep-alive connection (pipelined queries), then scrapes
/// `/metrics` twice on the same socket and checks exposition format and
/// counter monotonicity. Exit 0/1.
fn metrics_probe(addr: SocketAddr) -> ExitCode {
    let fail = |msg: String| {
        eprintln!("metrics-probe: {msg}");
        ExitCode::FAILURE
    };
    let mut conn = match client::Conn::connect(addr) {
        Ok(conn) => conn,
        Err(e) => return fail(format!("connect failed: {e}")),
    };
    // Pipelined keep-alive traffic so the scrape has something to show.
    let query = b"{\"text\":\"author\",\"kind\":\"keyword\",\"top_k\":1}";
    for _ in 0..3 {
        if let Err(e) = conn.send("POST", "/query", Some(query)) {
            return fail(format!("pipelined send failed: {e}"));
        }
    }
    for i in 0..3 {
        match conn.read_one() {
            Ok(r) if r.status == 200 => {}
            Ok(r) => return fail(format!("query {i} answered {}", r.status)),
            Err(e) => return fail(format!("query {i} read failed: {e}")),
        }
    }
    let mut scrape = |label: &str| -> Result<String, String> {
        conn.send("GET", "/metrics", None)
            .map_err(|e| format!("{label}: send failed: {e}"))?;
        let r = conn
            .read_one()
            .map_err(|e| format!("{label}: read failed: {e}"))?;
        if r.status != 200 {
            return Err(format!("{label}: answered {}", r.status));
        }
        let content_type = r.header("content-type").unwrap_or("").to_string();
        if !content_type.starts_with("text/plain") || !content_type.contains("version=0.0.4") {
            return Err(format!("{label}: bad content type {content_type:?}"));
        }
        Ok(r.body_text())
    };
    let first = match scrape("first scrape") {
        Ok(body) => body,
        Err(e) => return fail(e),
    };
    let second = match scrape("second scrape") {
        Ok(body) => body,
        Err(e) => return fail(e),
    };
    for (label, body) in [("first scrape", &first), ("second scrape", &second)] {
        if let Err(e) = check_exposition(body) {
            return fail(format!("{label}: {e}"));
        }
    }
    for required in [
        "# TYPE lotusx_server_requests_total counter",
        "# TYPE lotusx_server_connections_open gauge",
        "# TYPE lotusx_stage_seconds summary",
        "lotusx_trace_events_total{outcome=\"produced\"}",
    ] {
        if !first.contains(required) {
            return fail(format!("first scrape is missing {required:?}"));
        }
    }
    // Counters are monotonic between scrapes, and each scrape counts
    // itself: the second sees strictly more requests than the first.
    for counter in [
        "lotusx_server_requests_total",
        "lotusx_server_metrics_requests_total",
    ] {
        let (Some(a), Some(b)) = (
            metric_value(&first, counter),
            metric_value(&second, counter),
        ) else {
            return fail(format!("{counter} missing from a scrape"));
        };
        if b <= a {
            return fail(format!("{counter} did not advance: {a} → {b}"));
        }
    }
    if let Err(e) = check_work_counters(addr).and_then(|stats| check_one_table(&second, &stats)) {
        return fail(e);
    }
    println!(
        "metrics-probe ok: requests {} → {}",
        metric_value(&first, "lotusx_server_requests_total").unwrap_or(0.0),
        metric_value(&second, "lotusx_server_requests_total").unwrap_or(0.0),
    );
    ExitCode::SUCCESS
}

fn stop(addr: SocketAddr) -> ExitCode {
    match client::post(addr, "/shutdown", "{}") {
        Ok(r) if r.status == 200 => {
            println!("stopping");
            ExitCode::SUCCESS
        }
        Ok(r) => {
            eprintln!("stop: answered {}", r.status);
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("stop: {e}");
            ExitCode::FAILURE
        }
    }
}
