//! Validates an exported Chrome trace-event JSON file.
//!
//! ```sh
//! trace-check <trace.json> [--require-trip] [--require-conns]
//! ```
//!
//! Checks, in order: the file parses as JSON with the obs crate's own
//! reader, `traceEvents` is an array, every `B` query slice has a
//! matching `E` (at least one complete query span), at least one stage
//! slice is nested inside a query span, and timestamps are finite and
//! non-decreasing per lane. Connection lanes (tids at or above
//! `CONN_LANE_BASE`) are always structurally validated when present:
//! every `conn#N` end has a matching begin, phase slices
//! (`cat:"conn_phase"`) balance per lane and never nest deeper than
//! one, a connection never closes with a phase still open, and a
//! `trace_accounting` metadata record must reconcile exactly
//! (`produced == exported + dropped`). `--require-trip` additionally
//! demands a budget-trip instant or a truncated query end (the
//! robustness story); `--require-conns` demands at least one complete
//! connection span with phase slices, a stage slice nested inside a
//! phase, and the accounting record. Exits non-zero with a message on
//! the first violated check — this is the `telemetry-smoke` /
//! `metrics-smoke` CI gate.

use lotusx_obs::{parse_json, JsonValue, CONN_LANE_BASE};
use std::collections::HashMap;

fn fail(msg: &str) -> ! {
    eprintln!("trace-check: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut path = None;
    let mut require_trip = false;
    let mut require_conns = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--require-trip" => require_trip = true,
            "--require-conns" => require_conns = true,
            other if path.is_none() => path = Some(other.to_string()),
            other => fail(&format!("unexpected argument {other:?}")),
        }
    }
    let Some(path) = path else {
        fail("usage: trace-check <trace.json> [--require-trip] [--require-conns]");
    };

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc = parse_json(&text).unwrap_or_else(|e| fail(&format!("invalid JSON: {e}")));
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| fail("missing traceEvents array"));

    let mut complete_queries = 0usize;
    let mut open_queries: HashMap<String, u64> = HashMap::new();
    let mut stages_in_query = 0usize;
    let mut trips = 0usize;
    let mut truncated_queries = 0usize;
    let mut complete_conns = 0usize;
    let mut open_conns: HashMap<String, u64> = HashMap::new();
    let mut phase_depth: HashMap<u64, usize> = HashMap::new();
    let mut phase_slices = 0usize;
    let mut stages_in_phase = 0usize;
    let mut accounting: Option<(u64, u64, u64)> = None;
    let mut last_ts_per_lane: HashMap<u64, f64> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| fail(&format!("event {i} has no name")));
        let ph = e
            .get("ph")
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| fail(&format!("event {i} has no ph")));
        if ph == "M" {
            if name == "trace_accounting" {
                let counter = |field: &str| {
                    e.get("args")
                        .and_then(|a| a.get(field))
                        .and_then(JsonValue::as_f64)
                        .unwrap_or_else(|| fail(&format!("trace_accounting without {field}")))
                        as u64
                };
                accounting = Some((counter("produced"), counter("dropped"), counter("exported")));
            }
            continue;
        }
        let ts = e
            .get("ts")
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| fail(&format!("event {i} ({name}) has no ts")));
        if !ts.is_finite() || ts < 0.0 {
            fail(&format!("event {i} ({name}) has bad ts {ts}"));
        }
        let lane = e.get("tid").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
        let prev = last_ts_per_lane.entry(lane).or_insert(0.0);
        if ts < *prev {
            fail(&format!(
                "event {i} ({name}) goes back in time on lane {lane}: {ts} < {prev}"
            ));
        }
        *prev = ts;

        let cat = e.get("cat").and_then(JsonValue::as_str).unwrap_or("");
        if name.starts_with("query#") {
            match ph {
                "B" => {
                    open_queries.insert(name.to_string(), lane);
                }
                "E" => {
                    if open_queries.remove(name).is_none() {
                        fail(&format!("query end without begin: {name}"));
                    }
                    complete_queries += 1;
                    let truncated = e
                        .get("args")
                        .and_then(|a| a.get("truncated"))
                        .and_then(JsonValue::as_bool)
                        .unwrap_or(false);
                    if truncated {
                        truncated_queries += 1;
                    }
                }
                other => fail(&format!("query slice with odd phase {other:?}")),
            }
        } else if name.starts_with("conn#") {
            match ph {
                "B" => {
                    open_conns.insert(name.to_string(), lane);
                }
                "E" => {
                    if open_conns.remove(name).is_none() {
                        fail(&format!("connection end without begin: {name}"));
                    }
                    if phase_depth.get(&lane).copied().unwrap_or(0) != 0 {
                        fail(&format!("{name} closed with a phase slice still open"));
                    }
                    complete_conns += 1;
                }
                other => fail(&format!("connection slice with odd phase {other:?}")),
            }
        } else if cat == "conn_phase" {
            // READING/PENDING/FLUSH/IDLE are back-to-back, never nested.
            let depth = phase_depth.entry(lane).or_insert(0);
            match ph {
                "B" => {
                    *depth += 1;
                    if *depth > 1 {
                        fail(&format!(
                            "phase slices nest on lane {lane} (event {i}, {name})"
                        ));
                    }
                    phase_slices += 1;
                }
                "E" => {
                    if *depth == 0 {
                        fail(&format!("phase end without begin on lane {lane} ({name})"));
                    }
                    *depth -= 1;
                }
                other => fail(&format!("phase slice with odd phase {other:?}")),
            }
        } else if ph == "B" {
            // A stage slice opened while a query slice is open: nesting.
            if !open_queries.is_empty() {
                stages_in_query += 1;
            }
            // A stage slice on a connection lane inside an open phase:
            // the serving layer's nesting (stage work inside PENDING).
            if lane >= u64::from(CONN_LANE_BASE) && phase_depth.get(&lane).copied().unwrap_or(0) > 0
            {
                stages_in_phase += 1;
            }
        }
        if name.starts_with("budget_trip:") {
            trips += 1;
        }
    }

    if complete_queries == 0 {
        fail("no complete query span (matching B/E pair named query#N)");
    }
    if stages_in_query == 0 {
        fail("no stage slice nested inside a query span");
    }
    if require_trip && trips == 0 && truncated_queries == 0 {
        fail("no budget trip or truncated query in the trace (--require-trip)");
    }
    if let Some((produced, dropped, exported)) = accounting {
        if produced != exported + dropped {
            fail(&format!(
                "trace accounting mismatch: produced {produced} != \
                 exported {exported} + dropped {dropped}"
            ));
        }
    }
    if require_conns {
        if complete_conns == 0 {
            fail("no complete connection span (matching conn#N pair, --require-conns)");
        }
        if phase_slices == 0 {
            fail("no connection phase slices (--require-conns)");
        }
        if stages_in_phase == 0 {
            fail("no stage slice nested inside a connection phase (--require-conns)");
        }
        if accounting.is_none() {
            fail("no trace_accounting metadata record (--require-conns)");
        }
    }
    println!(
        "trace-check: OK: {} events, {complete_queries} complete queries \
         ({truncated_queries} truncated), {stages_in_query} nested stage slices, \
         {trips} budget trips, \
         {complete_conns} connection spans ({phase_slices} phase slices, \
         {stages_in_phase} stages in phase)",
        events.len()
    );
}
