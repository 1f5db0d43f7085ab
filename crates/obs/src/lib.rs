//! # lotusx-obs
//!
//! The observability substrate of the LotusX query pipeline, on `std`
//! only and with no workspace dependency. Every measurement is recorded
//! once, where a reader looks for it:
//!
//! * **Global metrics** — one process-wide [`Metrics`] registry behind an
//!   [`enabled`] flag: a lifetime log2 [`LatencyHistogram`] per [`Stage`]
//!   and the [`counters!`](macro@counters) table, rendered as the
//!   `/stats` JSON and the `/metrics` exposition. Instrumented code
//!   guards every recording with `obs::enabled()`, so the *entire* cost
//!   of the subsystem while disabled is a few relaxed atomic loads. Rates
//!   and windowed means are the scraper's arithmetic over two readings
//!   (Δcounter/Δt, Δ`sum_ns`/Δ`count`).
//! * **Per-request profiles** live in the engine (`lotusx::QueryProfile`),
//!   which holds the ranker's and the rewriter's typed statistics; a
//!   profile names its stages with [`Stage`] and renders their times with
//!   [`fmt_ns`]. Nothing here is per request.
//!
//! ```
//! use lotusx_obs::{fmt_ns, Metrics, Stage};
//! use std::sync::atomic::Ordering;
//!
//! let m = Metrics::new();
//! m.record_stage(Stage::Parse, 12_300);
//! m.counters.queries.fetch_add(1, Ordering::Relaxed);
//! let snapshot = m.snapshot();
//! assert_eq!(snapshot.counters.queries, 1);
//! assert!(snapshot.to_json().contains("\"parse\""));
//! assert_eq!(fmt_ns(12_300), "12.3µs");
//! ```

#![warn(missing_docs)]

pub mod counters;
pub mod histogram;
pub mod json;
pub mod prom;
pub mod registry;

pub use counters::{counter_members, CounterKind, CounterRow};
pub use histogram::{fmt_ns, HistogramSnapshot, LatencyHistogram};
pub use json::{
    json_string, parse_json, parse_json_as, push_f64, push_f64_run, push_json_str, push_u64,
    push_u64_members, u64_decimal, JsonError, JsonNode, JsonTree, JsonValue, SpannedJson,
    MAX_JSON_DEPTH,
};
pub use prom::{escape_label_value, sanitize_metric_name, PromWriter};
pub use registry::{
    enabled, metrics, set_enabled, time_stage, Metrics, MetricsSnapshot, ProcessCounters,
    ProcessSnapshot, Stage,
};
