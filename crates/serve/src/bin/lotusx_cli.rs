//! LotusX command-line demo — the textual stand-in for the original web
//! GUI at `datasearch.ruc.edu.cn:8080/LotusX`.
//!
//! Run with `cargo run -p lotusx-serve --bin lotusx-cli [file.xml]` and
//! type `help` for the command list. Everything the GUI demonstrates is
//! reachable: incremental canvas construction with per-keystroke
//! position-aware candidates, one-shot textual queries, algorithm
//! switching, ranked results, automatic rewriting of empty queries, the
//! and the observability surface (`profile`, `explain`, `stats`). To
//! serve a corpus over HTTP, run `lotusx-serve --corpus SOURCE`.

use lotusx::{Algorithm, Axis, Budget, CanvasNodeId, CorpusSource, LotusX, QueryRequest, Session};
use std::io::{BufRead, Write};
use std::time::Duration;

const SAMPLE: &str = r#"<bib>
  <book year="1999"><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author><publisher>Morgan Kaufmann</publisher></book>
  <book year="2003"><title>XML Handbook</title><author>Goldfarb</author><publisher>Prentice Hall</publisher></book>
  <article year="2002"><title>Holistic Twig Joins</title><author>Bruno</author><journal>SIGMOD</journal></article>
  <article year="2005"><title>TJFast Extended Labels</title><author>Lu</author><journal>VLDB</journal></article>
</bib>"#;

fn main() {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();

    let arg = std::env::args().nth(1);
    let system = match &arg {
        // Any corpus source works: `@dataset[:scale[:seed]]` for a seeded
        // synthetic corpus (e.g. `@treebank:2:7`), a `.ltsx` snapshot for
        // a millisecond cold boot, or an XML file.
        Some(text) => {
            let source = match text.parse::<CorpusSource>() {
                Ok(source) => source,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            };
            match LotusX::open(&source) {
                Ok(s) => {
                    println!(
                        "opened {source} ({} elements)",
                        s.index().stats().element_count
                    );
                    s
                }
                Err(e) => {
                    eprintln!("failed to open {source}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            println!("no file given; loaded the built-in sample bibliography");
            LotusX::load_str(SAMPLE).expect("sample is well-formed")
        }
    };

    let mut session = Session::new(&system);
    let mut nodes: Vec<CanvasNodeId> = Vec::new();
    // The join algorithm each query request names ("algo <name>").
    let mut algorithm = Algorithm::Auto;
    // Per-request budget knobs ("timeout <ms>", "budget <nodes>"; 0 = off).
    let mut timeout_ms: Option<u64> = None;
    let mut node_budget: Option<u64> = None;

    println!("LotusX demo CLI — type 'help' for commands");
    loop {
        print!("lotusx> ");
        let _ = out.flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
        match cmd {
            "" => {}
            "help" => print_help(),
            "quit" | "exit" => break,
            "stats" => {
                if rest == "json" {
                    println!("{}", lotusx_obs::metrics().snapshot().to_json());
                } else {
                    print_stats(&system);
                }
            }
            "profile" => match rest {
                "on" => {
                    lotusx_obs::set_enabled(true);
                    println!("profiling on: global metrics recorded, queries print their profile");
                }
                "off" => {
                    lotusx_obs::set_enabled(false);
                    println!("profiling off");
                }
                _ => println!(
                    "usage: profile on|off (currently {})",
                    if lotusx_obs::enabled() { "on" } else { "off" }
                ),
            },
            "explain" => {
                // Honor the session's `algo` (the profile names the
                // join that ran).
                let mut request = QueryRequest::twig(rest).profiled(true);
                request.algorithm = Some(algorithm);
                match system.query(&request) {
                    Ok(response) => {
                        let profile = response.profile.expect("profiled request");
                        print!("{}", profile.render());
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            "save" | "snapshot" => match system.save_snapshot(rest) {
                Ok(()) => {
                    let size = std::fs::metadata(rest).map(|m| m.len()).unwrap_or(0);
                    println!("full-index snapshot written to {rest} ({size} bytes)");
                }
                Err(e) => println!("error: {e}"),
            },
            "keyword" => {
                let request = QueryRequest::keyword(rest)
                    .budget(build_budget(timeout_ms, node_budget))
                    .profiled(lotusx_obs::enabled());
                match system.query(&request) {
                    Ok(response) => {
                        if let Some(reason) = response.completeness.truncation_reason() {
                            println!("(truncated: {reason} — partial results)");
                        }
                        println!("{} answers", response.total_matches);
                        print_top(&response.matches);
                        if let Some(profile) = &response.profile {
                            print!("{}", profile.render());
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            "query" => {
                let mut request = QueryRequest::twig(rest)
                    .budget(build_budget(timeout_ms, node_budget))
                    .profiled(lotusx_obs::enabled());
                request.algorithm = Some(algorithm);
                match system.query(&request) {
                    Ok(response) => {
                        if let Some(reason) = response.completeness.truncation_reason() {
                            println!("(truncated: {reason} — partial results)");
                        }
                        if let Some(rw) = &response.rewrite {
                            println!(
                                "(no results for the original query — rewritten to {} [penalty {:.1}])",
                                rw.pattern, rw.cost
                            );
                        }
                        println!("{} matches", response.total_matches);
                        print_top(&response.matches);
                        if let Some(profile) = &response.profile {
                            print!("{}", profile.render());
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            "timeout" => match rest.parse::<u64>() {
                Ok(0) => {
                    timeout_ms = None;
                    println!("query timeout off");
                }
                Ok(ms) => {
                    timeout_ms = Some(ms);
                    println!("queries now time out after {ms} ms (partial results are marked)");
                }
                Err(_) => println!(
                    "usage: timeout <ms> (0 = off; currently {})",
                    timeout_ms.map_or("off".to_string(), |ms| format!("{ms} ms"))
                ),
            },
            "budget" => match rest.parse::<u64>() {
                Ok(0) => {
                    node_budget = None;
                    println!("node budget off");
                }
                Ok(n) => {
                    node_budget = Some(n);
                    println!("queries now stop after visiting ~{n} nodes");
                }
                Err(_) => println!(
                    "usage: budget <nodes> (0 = off; currently {})",
                    node_budget.map_or("off".to_string(), |n| format!("{n} nodes"))
                ),
            },
            "algo" => match lotusx_serve::wire::parse_algorithm(rest) {
                Ok(a) => {
                    algorithm = a;
                    if a == Algorithm::Auto {
                        println!("queries now run with auto (the structural join)");
                    } else {
                        println!("queries now run with {a}");
                    }
                }
                Err(reason) => println!("{reason} (current: {algorithm})"),
            },
            "root" => match session.canvas_mut().add_root() {
                Ok(id) => {
                    nodes.push(id);
                    println!("node {} added as root (untyped)", nodes.len() - 1);
                }
                Err(e) => println!("error: {e}"),
            },
            "node" => {
                let mut parts = rest.split_whitespace();
                let parent: Option<usize> = parts.next().and_then(|p| p.parse().ok());
                let axis = match parts.next() {
                    Some("/") | None => Axis::Child,
                    _ => Axis::Descendant,
                };
                match parent.and_then(|p| nodes.get(p).copied()) {
                    Some(p) => match session.canvas_mut().add_node(p, axis) {
                        Ok(id) => {
                            nodes.push(id);
                            println!("node {} added", nodes.len() - 1);
                        }
                        Err(e) => println!("error: {e}"),
                    },
                    None => println!("usage: node <parent-index> [/ or //]"),
                }
            }
            "focus" => match rest
                .parse::<usize>()
                .ok()
                .and_then(|i| nodes.get(i).copied())
            {
                Some(id) => match session.focus(id) {
                    Ok(cands) => print_candidates(&cands),
                    Err(e) => println!("error: {e}"),
                },
                None => println!("usage: focus <node-index>"),
            },
            "type" => {
                for ch in rest.chars() {
                    match session.keystroke(ch) {
                        Ok(cands) => {
                            println!("typed {:?}:", session.typed());
                            print_candidates(&cands);
                        }
                        Err(e) => {
                            println!("error: {e}");
                            break;
                        }
                    }
                }
            }
            "accept" => match session.accept_top() {
                Ok(()) => {
                    if let Some(id) = session.focused() {
                        if let Ok(Some(tag)) = session.canvas().tag(id) {
                            println!("accepted {tag}");
                        }
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            "tag" => {
                let mut parts = rest.split_whitespace();
                let idx: Option<usize> = parts.next().and_then(|p| p.parse().ok());
                let tag = parts.next().unwrap_or("");
                match idx.and_then(|i| nodes.get(i).copied()) {
                    Some(id) if !tag.is_empty() => match session.canvas_mut().set_tag(id, tag) {
                        Ok(()) => println!("node tagged {tag}"),
                        Err(e) => println!("error: {e}"),
                    },
                    _ => println!("usage: tag <node-index> <name>"),
                }
            }
            "values" => match session.value_suggestions(rest) {
                Ok(suggestions) => {
                    for v in suggestions {
                        println!("  {} ({})", v.term, v.count);
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            "show" => match session.canvas().to_pattern() {
                Ok(p) => println!("{p}"),
                Err(e) => println!("error: {e}"),
            },
            "run" => match session.run() {
                Ok(response) => {
                    println!("{} matches", response.total_matches);
                    print_top(&response.matches);
                }
                Err(e) => println!("error: {e}"),
            },
            other => println!("unknown command {other:?} — type 'help'"),
        }
    }
}

fn build_budget(timeout_ms: Option<u64>, node_budget: Option<u64>) -> Budget {
    let mut budget = Budget::default();
    if let Some(ms) = timeout_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(nodes) = node_budget {
        budget = budget.with_node_quota(nodes);
    }
    budget
}

fn print_stats(system: &LotusX) {
    let s = system.index().stats();
    let doc = system.index().document();
    println!(
        "elements: {}  distinct tags: {}  max depth: {}  index bytes: {}  document bytes: {} ({:.1}/node)",
        s.element_count,
        s.distinct_tags,
        s.max_depth,
        system.index().index_size_bytes(),
        doc.size_bytes(),
        doc.size_bytes() as f64 / doc.node_count() as f64
    );
    let qc = system.query_cache_stats();
    println!(
        "query cache: {} hits, {} misses, {}/{} entries",
        qc.hits, qc.misses, qc.entries, qc.capacity
    );
    if !lotusx_obs::enabled() {
        println!("profiling off — `profile on` to record stage latencies ('stats json' for the raw snapshot)");
        return;
    }
    let snapshot = lotusx_obs::metrics().snapshot();
    println!("stage latencies (count / p50 / p95 / p99 / max):");
    for (name, h) in &snapshot.stages {
        if h.count == 0 {
            continue;
        }
        println!(
            "  {:<14} {:>6}  {:>9}  {:>9}  {:>9}  {:>9}",
            name,
            h.count,
            lotusx_obs::fmt_ns(h.p50_ns),
            lotusx_obs::fmt_ns(h.p95_ns),
            lotusx_obs::fmt_ns(h.p99_ns),
            lotusx_obs::fmt_ns(h.max_ns),
        );
    }
    let counters = snapshot.counters;
    let rendered: Vec<String> = lotusx_obs::ProcessCounters::ROWS
        .iter()
        .zip(counters.values())
        .filter(|(_, v)| *v > 0)
        .map(|(row, v)| format!("{}={v}", row.name))
        .collect();
    if !rendered.is_empty() {
        println!("counters: {}", rendered.join("  "));
    }
    let (queries, degraded) = (counters.queries, counters.degraded_responses);
    if queries > 0 && degraded > 0 {
        println!(
            "degradation: {degraded}/{queries} responses truncated ({:.1}%), \
             {} past deadline",
            100.0 * degraded as f64 / queries as f64,
            counters.queries_deadline_exceeded,
        );
        let (_, h) = &snapshot.stages[lotusx_obs::Stage::DeadlineOvershoot as usize];
        if h.count > 0 {
            println!(
                "deadline overshoot: p50 {}  p99 {}  max {}",
                lotusx_obs::fmt_ns(h.p50_ns),
                lotusx_obs::fmt_ns(h.p99_ns),
                lotusx_obs::fmt_ns(h.max_ns),
            );
        }
    }
}

/// The ten best results, one line each.
fn print_top(matches: &lotusx::Answer) {
    for (i, r) in matches.iter().take(10).enumerate() {
        println!(
            "  {:>2}. [{:.3}] {}",
            i + 1,
            r.score,
            truncate(r.snippet, 90)
        );
    }
}

fn print_candidates(cands: &[lotusx::TagCandidate]) {
    if cands.is_empty() {
        println!("  (no candidates at this position)");
    }
    for c in cands {
        println!("  {} ({})", c.name, c.count);
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        let mut end = n;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

fn print_help() {
    println!(
        "\
one-shot queries:
  query <xpath>      run a query, e.g.  query //book[@year >= 2000]/title
  keyword <terms>    keyword search (ranked smallest covering subtrees)
  snapshot <p.ltsx>  write a full-index snapshot; reopening it (lotusx-cli
                     <p.ltsx>) cold-boots in milliseconds without parsing XML
                     ('save' is an alias)
observability:
  profile on|off     toggle metrics recording + per-query profiles
  explain <xpath>    run one query and print its stage timings and plan
  stats              document, cache, executor and latency statistics
  stats json         the metrics snapshot as JSON (metrics.json format)
canvas (the GUI surrogate):
  root               drop the root node
  node <i> [/ | //]  add a node under node i
  focus <i>          focus node i (shows position-aware candidates)
  type <text>        type into the focused node, one keystroke at a time
  accept             accept the typed text as the tag
  tag <i> <name>     set a node's tag directly
  values <prefix>    value suggestions for the focused node's tag
  show               print the canvas as a query
  run                execute the canvas through the same path as 'query'
                     (untyped nodes are wildcards; a repeat is a cache hit)
other:
  algo [name|auto]   join algorithm for later queries: 'structural-join',
                     'naive' (the oracle), or 'auto' (the default = the
                     structural join)
  timeout <ms>       wall-clock budget per query, 0 = off (partial results are marked)
  budget <nodes>     node-visit budget per query, 0 = off
  help, quit

start with '@dblp', '@xmark' or '@treebank[:scale[:seed]]' instead of a
file to load a seeded synthetic corpus; 'lotusx-serve --corpus <source>'
serves the same corpus over HTTP."
    );
}
