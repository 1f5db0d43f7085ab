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
pub mod histogram;
pub mod json;
pub mod profile;
pub mod prom;
pub mod registry;
pub mod span;

pub use counters::{counter_members, CounterKind, CounterRow};
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
pub use span::{Span, SpanGuard, SpanRecord};
