//! The `lotusx-serve` binary: serve corpora over HTTP.
//!
//! ```text
//! lotusx-serve [--addr HOST:PORT] [--threads N] [--max-inflight N]
//!              [--corpus SOURCE | --snapshot load:PATH | --routes FILE]
//!              [--read-timeout-ms MS] [--write-timeout-ms MS]
//!              [--idle-timeout-ms MS] [--backend auto|poll|epoll]
//!              [--access-log PATH]
//! lotusx-serve --corpus SOURCE --snapshot save:PATH   # build, save, exit
//! lotusx-serve --probe HOST:PORT         # healthz + one query, exit 0/1
//! lotusx-serve --metrics-probe HOST:PORT # keep-alive traffic + two
//!                                        # /metrics scrapes, exit 0/1
//! lotusx-serve --stop HOST:PORT          # graceful remote shutdown
//! ```
//!
//! `SOURCE` is any corpus source: `@dataset[:scale[:seed]]`, an XML
//! file, or a `.ltsx` snapshot (default `@dblp:1`).
//!
//! Every server hosts an engine registry. `--corpus` and `--snapshot
//! load:` serve one corpus as the one-tenant registry: tenant `default`,
//! no quota, one catch-all rule. `--routes FILE` reads a JSON config that
//! names each tenant (with its own corpus source, admission quota, and
//! default budgets) and the routing rules that map requests onto them
//! (`/t/<name>` prefixes, headers, predicate trees); it does not combine
//! with `--corpus`/`--snapshot`. On either kind of server `POST
//! /admin/routes` hot-reloads the rule list.
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
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Mode::Serve(config, boot)) => serve(config, &boot),
        Ok(Mode::Save(source, path)) => save(&source, &path),
        Ok(Mode::Probe(addr)) => Ok(probe(addr)),
        Ok(Mode::MetricsProbe(addr)) => Ok(metrics_probe(addr)),
        Ok(Mode::Stop(addr)) => Ok(stop(addr)),
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
            return ExitCode::FAILURE;
        }
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// Where the served registry comes from.
enum Boot {
    /// One corpus (`--corpus`, `--snapshot load:`): the one-tenant
    /// registry.
    Corpus(CorpusSource),
    /// A `--routes` config: its tenants and rules.
    Routes(PathBuf),
}

enum Mode {
    Serve(ServeConfig, Boot),
    /// `--snapshot save:PATH`: build the corpus, write the snapshot,
    /// exit without serving.
    Save(CorpusSource, PathBuf),
    Probe(SocketAddr),
    MetricsProbe(SocketAddr),
    Stop(SocketAddr),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut config = ServeConfig {
        addr: "127.0.0.1:8080".to_string(),
        ..ServeConfig::default()
    };
    let mut corpus: Option<String> = None;
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
            "--addr" => config.addr = value(flag)?,
            "--threads" => config.threads = integer(flag, value(flag)?)?,
            "--max-inflight" => config.max_inflight = integer(flag, value(flag)?)?,
            "--read-timeout-ms" => config.read_timeout = millis(flag, value(flag)?)?,
            "--write-timeout-ms" => config.write_timeout = millis(flag, value(flag)?)?,
            "--idle-timeout-ms" => config.idle_timeout = millis(flag, value(flag)?)?,
            "--backend" => config.backend = lotusx_serve::Backend::parse(&value(flag)?)?,
            "--access-log" => config.access_log = Some(PathBuf::from(value(flag)?)),
            "--corpus" => corpus = Some(value(flag)?),
            "--routes" => routes = Some(PathBuf::from(value(flag)?)),
            "--snapshot" => {
                let action = value(flag)?;
                snapshot = match action.split_once(':') {
                    Some((verb @ ("save" | "load"), path)) if !path.is_empty() => {
                        Some((verb == "save", PathBuf::from(path)))
                    }
                    _ => {
                        return Err(format!(
                            "--snapshot takes save:PATH or load:PATH, got {action:?}"
                        ))
                    }
                };
            }
            "--probe" => return Ok(Mode::Probe(parse_addr(&value(flag)?)?)),
            "--metrics-probe" => return Ok(Mode::MetricsProbe(parse_addr(&value(flag)?)?)),
            "--stop" => return Ok(Mode::Stop(parse_addr(&value(flag)?)?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(routes) = routes {
        if corpus.is_some() || snapshot.is_some() {
            return Err("--routes does not combine with --corpus/--snapshot \
                        (tenant corpora come from the config file)"
                .to_string());
        }
        return Ok(Mode::Serve(config, Boot::Routes(routes)));
    }
    let corpus = || {
        let text = corpus.as_deref().unwrap_or("@dblp:1");
        text.parse::<CorpusSource>().map_err(|e| e.to_string())
    };
    Ok(match snapshot {
        Some((true, path)) => Mode::Save(corpus()?, path),
        Some((false, path)) => Mode::Serve(config, Boot::Corpus(CorpusSource::Snapshot(path))),
        None => Mode::Serve(config, Boot::Corpus(corpus()?)),
    })
}

fn integer<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a non-negative integer, got {value:?}"))
}

fn millis(flag: &str, value: String) -> Result<Duration, String> {
    integer(flag, value).map(Duration::from_millis)
}

fn parse_addr(s: &str) -> Result<SocketAddr, String> {
    s.parse().map_err(|_| format!("bad address {s:?}"))
}

/// Opens the registry `boot` names: a corpus as the one-tenant
/// registry, or every tenant of a `--routes` config.
fn open_registry(boot: &Boot) -> Result<EngineRegistry, String> {
    match boot {
        Boot::Corpus(source) => Ok(EngineRegistry::single_tenant(open_corpus(source)?)),
        Boot::Routes(routes) => {
            let text = std::fs::read_to_string(routes)
                .map_err(|e| format!("reading {} failed: {e}", routes.display()))?;
            let config =
                RegistryConfig::parse(&text).map_err(|e| format!("{}: {e}", routes.display()))?;
            for tenant in &config.tenants {
                eprintln!("opening tenant {} ({}) ...", tenant.name, tenant.source);
            }
            EngineRegistry::open(&config).map_err(|e| format!("opening registry failed: {e}"))
        }
    }
}

fn open_corpus(source: &CorpusSource) -> Result<LotusX, String> {
    eprintln!("opening corpus {source} ...");
    LotusX::open(source).map_err(|e| format!("opening corpus {source} failed: {e}"))
}

fn save(source: &CorpusSource, path: &Path) -> Result<ExitCode, String> {
    open_corpus(source)?
        .save_snapshot(path)
        .map_err(|e| format!("saving snapshot failed: {e}"))?;
    println!("snapshot saved to {}", path.display());
    Ok(ExitCode::SUCCESS)
}

fn serve(config: ServeConfig, boot: &Boot) -> Result<ExitCode, String> {
    lotusx_obs::set_enabled(true);
    let trace_path = std::env::var_os("LOTUSX_TRACE").map(PathBuf::from);
    if trace_path.is_some() {
        lotusx_obs::set_tracing(true);
    }
    let registry = open_registry(boot)?;
    let server = Server::bind(config).map_err(|e| format!("bind failed: {e}"))?;
    let handle = server.handle();
    eprintln!(
        "serving {} tenants, {} routing rules",
        registry.tenants().len(),
        registry.routes().rules().len()
    );
    // The wait-for line: scripts poll for this exact prefix.
    println!("listening on {}", server.local_addr());
    spawn_stdin_control(&handle);
    server.run(&registry);
    for (name, tenant) in handle.tenant_stats() {
        eprintln!(
            "tenant {name}: {} requests ({} queries, {} rejected, {} quota rejects)",
            tenant.requests, tenant.queries, tenant.rejected, tenant.quota_rejects
        );
    }
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
    Ok(ExitCode::SUCCESS)
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
            let checked =
                check_work_counters(addr).and_then(|stats| check_one_tenant(addr, &stats));
            if let Err(e) = checked {
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

/// The single-corpus server is the one-tenant registry: `/stats` lists
/// exactly the `default` tenant, and `/admin/routes` takes a catch-all
/// rule to it (the table it booted with, so the probe changes nothing).
fn check_one_tenant(addr: SocketAddr, stats: &lotusx_obs::JsonValue) -> Result<(), String> {
    let tenants = stats.get("tenants").and_then(lotusx_obs::JsonValue::as_obj);
    let names: Vec<&str> = tenants
        .into_iter()
        .flatten()
        .map(|(name, _)| name.as_str())
        .collect();
    if names != ["default"] {
        return Err(format!(
            "/stats tenants are {names:?}, not exactly [\"default\"]"
        ));
    }
    let rules = r#"[{"when": {"always": true}, "tenant": "default"}]"#;
    let r = client::post(addr, "/admin/routes", rules)
        .map_err(|e| format!("/admin/routes failed: {e}"))?;
    if (r.status, r.body_text().as_str()) != (200, "{\"rules\":1}\n") {
        return Err(format!(
            "/admin/routes answered {}: {}",
            r.status,
            r.body_text()
        ));
    }
    Ok(())
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
