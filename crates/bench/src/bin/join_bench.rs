//! Head-to-head join benchmark: the structural join (the plan every
//! query runs) against the navigational oracle, across all dataset
//! shapes and scales.
//!
//! For every (dataset, scale, query) cell it measures the minimum wall
//! time of each contender materializing every match (`execute`), verifies
//! both return bit-identical match sets, and checks the join lands within
//! `--gate` (default 1.25×) plus `--slack-ms` of naive. A cell where naive
//! beats the join by more fails the run with a nonzero exit, so CI can use
//! this binary as a regression gate for the one plan. One more column,
//! `count_top10`, times what a query actually asks of the join: the
//! count and the ten best rows through the ranker, no row built that the
//! ranker does not look at.
//!
//! The corpora are generated, serialized and parsed, like any document a
//! server loads: node ids ascend with document order (the xmark
//! generator's own arena appends items to regions out of order).
//!
//! ```sh
//! cargo run --release -p lotusx-bench --bin join-bench            # full sweep, writes BENCH_join.json
//! cargo run --release -p lotusx-bench --bin join-bench -- --quick # small sweep for CI smoke
//! ```
//!
//! Flags: `--quick` (scale 1, fewer reps, default output under
//! `target/`), `--gate <factor>`, `--slack-ms <ms>` (absolute noise floor
//! added to the gate for micro-second queries), `--out <path>`.

use lotusx_bench::{fmt_duration, time_once, SEED};
use lotusx_datagen::{queries, Dataset};
use lotusx_guard::QueryGuard;
use lotusx_index::IndexedDocument;
use lotusx_rank::Ranker;
use lotusx_twig::xpath::parse_query;
use lotusx_twig::{execute, execute_budgeted, Algorithm};
use std::time::Duration;

struct Config {
    quick: bool,
    gate: f64,
    slack_ms: f64,
    out: String,
    scales: Vec<u32>,
    reps: usize,
}

fn parse_args() -> Config {
    let mut quick = false;
    let mut gate = 1.25f64;
    let mut slack_ms = 0.05f64;
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
            "--slack-ms" => {
                slack_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--slack-ms needs a number");
            }
            "--out" => out = Some(args.next().expect("--out needs a path")),
            other => panic!("unknown flag {other} (try --quick, --gate, --slack-ms, --out)"),
        }
    }
    // Reps are minimums per contender, taken over fully interleaved
    // rounds; on a busy 1-CPU host near-tied contenders need several
    // rounds before each one has seen a quiet slice of the machine.
    let (scales, reps, default_out) = if quick {
        (vec![1u32], 3usize, "target/BENCH_join_quick.json")
    } else {
        (vec![2u32, 8], 9usize, "BENCH_join.json")
    };
    Config {
        quick,
        gate,
        slack_ms,
        out: out.unwrap_or_else(|| default_out.to_string()),
        scales,
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

struct QueryRow {
    id: &'static str,
    text: &'static str,
    matches: usize,
    /// (contender name, min ms) in [`Algorithm::ALL`] order.
    times: Vec<(&'static str, f64)>,
    /// Join time over naive time.
    join_factor: f64,
    gate_pass: bool,
    equivalent: bool,
    /// Count + top-10 through the ranker, as a query runs them.
    count_top10_ms: f64,
}

fn main() {
    let cfg = parse_args();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mode = if cfg.quick { "quick" } else { "full" };
    eprintln!(
        "join-bench ({mode}): scales {:?}, reps {}, gate {:.2}x + {:.2}ms, host_cpus {host_cpus}",
        cfg.scales, cfg.reps, cfg.gate, cfg.slack_ms
    );

    let mut sections = Vec::new();
    let mut all_rows: Vec<QueryRow> = Vec::new();

    for ds in Dataset::ALL {
        for &scale in &cfg.scales {
            let xml = lotusx_datagen::generate(ds, scale, SEED).to_xml();
            let idx = IndexedDocument::from_str(&xml).expect("generated corpora parse");
            let elements = idx.stats().element_count;
            eprintln!("\n=== {ds} scale {scale} ({elements} elements) ===");
            let mut rows = Vec::new();
            for q in queries::queries(ds) {
                let pattern = parse_query(q.text).expect("canonical queries parse");

                // Reference answer from the navigational baseline.
                let reference = execute(&idx, &pattern, Algorithm::Naive);
                let mut equivalent = true;

                // Interleaved timing: one run of every contender per round,
                // minimum per contender over the rounds. Interleaving makes
                // slow phases of a shared host hit all contenders alike
                // instead of biasing whichever one happened to run during
                // the noise, and the minimum discards the interference that
                // remains. Equivalence is checked on the first round.
                let mut mins = [f64::INFINITY; Algorithm::ALL.len()];
                let mut count_top10_ms = f64::INFINITY;
                let guard = QueryGuard::unlimited();
                for rep in 0..cfg.reps {
                    for (slot, algo) in Algorithm::ALL.into_iter().enumerate() {
                        let (t, m) = time_once(|| execute(&idx, &pattern, algo));
                        mins[slot] = mins[slot].min(ms(t));
                        if rep == 0 && m != reference {
                            equivalent = false;
                            eprintln!("  MISMATCH: {} on {} {}", algo, ds, q.id);
                        }
                    }
                    let (t, (count, top)) = time_once(|| {
                        let result =
                            execute_budgeted(&idx, &pattern, Algorithm::Auto, None, &guard);
                        let top = Ranker::new(&idx).rank_top_k(&pattern, &result, 10, None);
                        (result.count(), top)
                    });
                    count_top10_ms = count_top10_ms.min(ms(t));
                    if rep == 0 && (count, top.len()) != (reference.len(), reference.len().min(10))
                    {
                        equivalent = false;
                        eprintln!("  MISMATCH: count + top-10 on {} {}", ds, q.id);
                    }
                }
                let times: Vec<(&'static str, f64)> = Algorithm::ALL
                    .iter()
                    .zip(&mins)
                    .map(|(algo, &t)| (algo.name(), t))
                    .collect();
                // `Algorithm::ALL` order.
                let [naive_ms, join_ms] = mins;
                let join_factor = join_ms / naive_ms.max(1e-9);
                let gate_pass = join_ms <= cfg.gate * naive_ms + cfg.slack_ms;
                let show = |t: f64| fmt_duration(Duration::from_secs_f64(t / 1e3));

                eprintln!(
                    "  {:3} {:-44} {:7} m  naive {:>9}  join {:>9} {:.2}x{}  top-10 {:>9}",
                    q.id,
                    q.text,
                    reference.len(),
                    show(naive_ms),
                    show(join_ms),
                    join_factor,
                    if gate_pass { "" } else { " GATE-FAIL" },
                    show(count_top10_ms),
                );

                rows.push(QueryRow {
                    id: q.id,
                    text: q.text,
                    matches: reference.len(),
                    times,
                    join_factor,
                    gate_pass,
                    equivalent,
                    count_top10_ms,
                });
            }
            sections.push((ds, scale, elements, rows.len()));
            all_rows.extend(rows);
        }
    }

    // ---- Summary --------------------------------------------------------
    let total = all_rows.len();
    let gate_failures = all_rows.iter().filter(|r| !r.gate_pass).count();
    let nonequivalent = all_rows.iter().filter(|r| !r.equivalent).count();
    let max_factor = all_rows
        .iter()
        .map(|r| r.join_factor)
        .fold(0.0f64, f64::max);
    eprintln!(
        "\nsummary: {total} queries, {gate_failures} over the gate (max join/naive {max_factor:.2}x)"
    );

    // ---- JSON artifact --------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"experiment\": \"join head-to-head: naive vs structural-join\",\n");
    json.push_str(&format!("  \"mode\": {},\n", json_str(mode)));
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"reps\": {},\n", cfg.reps));
    json.push_str("  \"timing\": \"min-of-reps\",\n");
    json.push_str("  \"corpus\": \"generated, serialized, parsed\",\n");
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"gate\": {:.3},\n", cfg.gate));
    json.push_str(&format!("  \"slack_ms\": {:.3},\n", cfg.slack_ms));
    json.push_str(&format!(
        "  \"scales\": [{}],\n",
        cfg.scales
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"sections\": [\n");
    let mut row_iter = all_rows.iter();
    for (si, (ds, scale, elements, nrows)) in sections.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"dataset\": {},\n", json_str(ds.name())));
        json.push_str(&format!("      \"scale\": {scale},\n"));
        json.push_str(&format!("      \"elements\": {elements},\n"));
        json.push_str("      \"queries\": [\n");
        for qi in 0..*nrows {
            let r = row_iter.next().expect("row per section count");
            json.push_str("        {\n");
            json.push_str(&format!("          \"id\": {},\n", json_str(r.id)));
            json.push_str(&format!("          \"query\": {},\n", json_str(r.text)));
            json.push_str(&format!("          \"matches\": {},\n", r.matches));
            json.push_str("          \"ms\": {");
            json.push_str(
                &r.times
                    .iter()
                    .map(|(name, t)| format!("{}: {t:.4}", json_str(name)))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
            json.push_str("},\n");
            json.push_str(&format!(
                "          \"count_top10_ms\": {:.4},\n",
                r.count_top10_ms
            ));
            json.push_str(&format!(
                "          \"join_factor\": {:.3},\n",
                r.join_factor
            ));
            json.push_str(&format!("          \"gate_pass\": {},\n", r.gate_pass));
            json.push_str(&format!("          \"equivalent\": {}\n", r.equivalent));
            json.push_str(if qi + 1 == *nrows {
                "        }\n"
            } else {
                "        },\n"
            });
        }
        json.push_str("      ]\n");
        json.push_str(if si + 1 == sections.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"summary\": {\n");
    json.push_str(&format!("    \"queries\": {total},\n"));
    json.push_str(&format!("    \"gate_failures\": {gate_failures},\n"));
    json.push_str(&format!("    \"max_join_factor\": {max_factor:.3},\n"));
    json.push_str(&format!("    \"nonequivalent\": {nonequivalent},\n"));
    json.push_str(&format!(
        "    \"gate_pass\": {}\n",
        gate_failures == 0 && nonequivalent == 0
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
        eprintln!("FAIL: {nonequivalent} queries returned non-identical matches");
        std::process::exit(2);
    }
    if gate_failures > 0 {
        eprintln!(
            "FAIL: naive beat the join by more than {:.2}x + {:.2}ms on {gate_failures} queries",
            cfg.gate, cfg.slack_ms
        );
        std::process::exit(1);
    }
    eprintln!(
        "PASS: the join within {:.2}x + {:.2}ms of naive everywhere",
        cfg.gate, cfg.slack_ms
    );
}
