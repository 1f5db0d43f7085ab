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
//! * **Per-query profiles** — a [`Span`] tree threaded through the
//!   pipeline only when one request opts in (`QueryRequest::profile`),
//!   finished into a [`QueryProfile`] the caller can inspect or render
//!   as the CLI `explain` tree.
//!
//! Beside them, the **trace ring**: typed [`TraceEvent`]s pushed into a
//! lock-free bounded [`EventRing`] behind the [`tracing`] flag,
//! exportable as Chrome trace-event JSON ([`chrome_trace_json`], loadable
//! in Perfetto with one lane per worker thread).
//!
//! ```
//! use lotusx_obs::{Span, QueryProfile};
//!
//! let root = Span::new("query");
//! root.time("parse", |_| { /* … */ });
//! root.time("match", |s| s.annotate("algorithm", "structural-join"));
//! let profile = QueryProfile {
//!     query: "//book/title".into(),
//!     span: root.finish(),
//!     ..Default::default()
//! };
//! assert!(profile.stages_ns() <= profile.total_ns());
//! assert!(profile.render().contains("├─ parse"));
//! ```

#![warn(missing_docs)]

pub mod counters;
pub mod event;
pub mod export;
pub mod histogram;
pub mod json;
pub mod profile;
pub mod prom;
pub mod registry;
pub mod ring;
pub mod span;

pub use counters::{counter_members, CounterKind, CounterRow};
pub use event::{
    conn_lane, drain_events, emit, emit_on_lane, next_query_id, set_tracing, trace_counters,
    tracing, CloseReason, ConnPhase, DeadlineKind, EventKind, QueryId, TraceEvent, CONN_LANE_BASE,
};
pub use export::{chrome_trace_json, chrome_trace_json_with};
pub use histogram::{fmt_ns, HistogramSnapshot, LatencyHistogram};
pub use json::{
    json_string, parse_json, parse_json_as, push_f64, push_f64_run, push_json_str, push_u64,
    push_u64_members, u64_decimal, JsonError, JsonNode, JsonTree, JsonValue, SpannedJson,
    MAX_JSON_DEPTH,
};
pub use profile::QueryProfile;
pub use prom::{escape_label_value, sanitize_metric_name, PromWriter};
pub use registry::{
    enabled, metrics, set_enabled, time_stage, Metrics, MetricsSnapshot, ProcessCounters,
    ProcessSnapshot, Stage,
};
pub use ring::{EventRing, RingCounters};
pub use span::{Span, SpanGuard, SpanRecord};
