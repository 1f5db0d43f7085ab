//! Dependency-free Prometheus text-exposition (v0.0.4) rendering.
//!
//! [`PromWriter`] is a tiny line builder that gets the format details
//! right once — metric-name sanitization, label-value escaping, `# HELP`
//! / `# TYPE` comment lines — and [`MetricsSnapshot::to_prometheus`]
//! renders the full obs snapshot with it: stage histograms as summaries
//! (precomputed p50/p95/p99 as `quantile` labels plus `_sum` and
//! `_count`), the process counter table as `_total` counters, and the
//! trace ring's exact accounting. Every counter scope renders through
//! [`PromWriter::counter_rows`], straight from its declaration.
//! Durations are exported in seconds, per Prometheus convention.
//!
//! The serving layer prepends its own `lotusx_server_*` section (see
//! `lotusx-serve`) and serves the result as
//! `text/plain; version=0.0.4` from `GET /metrics`.

use crate::counters::CounterRow;
use crate::histogram::HistogramSnapshot;
use crate::registry::{MetricsSnapshot, ProcessCounters};

/// Maps `name` into the Prometheus metric-name alphabet
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): invalid characters become `_`, and a
/// leading digit gets a `_` prefix.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a `# HELP` text: `\` → `\\`, newline → `\n`.
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a float the exposition format accepts (integers stay
/// integral; NaN/inf are spelled Prometheus-style).
fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// A text-exposition document builder (see the module docs).
#[derive(Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty document.
    pub fn new() -> PromWriter {
        PromWriter::default()
    }

    /// Writes the `# HELP` and `# TYPE` comment lines for a metric
    /// family. `kind` is one of `counter`, `gauge`, `summary`,
    /// `histogram`, `untyped`.
    pub fn header(&mut self, name: &str, help: &str, kind: &str) {
        let name = sanitize_metric_name(name);
        self.out
            .push_str(&format!("# HELP {name} {}\n", escape_help(help)));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// Writes one sample line: `name{labels} value`.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(&sanitize_metric_name(name));
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(&sanitize_metric_name(k));
                self.out.push_str("=\"");
                self.out.push_str(&escape_label_value(v));
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(&format_value(value));
        self.out.push('\n');
    }

    /// [`PromWriter::sample`] for integer-valued series.
    pub fn sample_u64(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.sample(name, labels, value as f64);
    }

    /// Writes one family per declared row — name and `# TYPE` from
    /// [`CounterRow::family`] under `prefix`, the row's help as `# HELP`
    /// — and lets `samples(self, family, row index)` write the family's
    /// sample lines (one, or one per label set).
    pub fn counter_rows(
        &mut self,
        prefix: &str,
        rows: &[CounterRow],
        mut samples: impl FnMut(&mut PromWriter, &str, usize),
    ) {
        for (i, row) in rows.iter().enumerate() {
            let (family, kind) = row.family(prefix);
            self.header(&family, row.help, kind);
            samples(self, &family, i);
        }
    }

    /// Writes a histogram snapshot as a summary family: one
    /// `quantile`-labelled line per precomputed percentile plus `_sum`
    /// and `_count`, all in seconds. `labels` is prepended to every
    /// line (the `quantile` label comes last, as convention has it).
    pub fn summary(&mut self, name: &str, labels: &[(&str, &str)], h: &HistogramSnapshot) {
        const NS: f64 = 1e-9;
        for (q, ns) in [("0.5", h.p50_ns), ("0.95", h.p95_ns), ("0.99", h.p99_ns)] {
            let mut all: Vec<(&str, &str)> = labels.to_vec();
            all.push(("quantile", q));
            self.sample(name, &all, ns as f64 * NS);
        }
        self.sample(&format!("{name}_sum"), labels, h.sum_ns as f64 * NS);
        self.sample_u64(&format!("{name}_count"), labels, h.count);
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot as a Prometheus text-exposition (v0.0.4)
    /// document: every `lotusx_*` family the obs registry knows about.
    pub fn to_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        w.header(
            "lotusx_stage_seconds",
            "Per-stage latency (lifetime histogram percentiles).",
            "summary",
        );
        for (stage, h) in &self.stages {
            w.summary("lotusx_stage_seconds", &[("stage", stage)], h);
        }
        let values = self.counters.values();
        w.counter_rows("lotusx_", ProcessCounters::ROWS, |w, family, i| {
            w.sample_u64(family, &[], values[i])
        });
        w.header(
            "lotusx_trace_events_total",
            "Trace-ring accounting (produced == exported + dropped).",
            "counter",
        );
        for (outcome, value) in [
            ("produced", self.trace.produced),
            ("dropped", self.trace.dropped),
            ("exported", self.trace.exported),
        ] {
            w.sample_u64("lotusx_trace_events_total", &[("outcome", outcome)], value);
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sanitized_and_labels_escaped() {
        assert_eq!(sanitize_metric_name("queue_depth"), "queue_depth");
        assert_eq!(sanitize_metric_name("a.b-c"), "a_b_c");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn writer_emits_help_type_and_samples() {
        let mut w = PromWriter::new();
        w.header("lotusx_demo_total", "A demo\ncounter.", "counter");
        w.sample_u64("lotusx_demo_total", &[("kind", "weird \"x\"")], 3);
        let out = w.finish();
        assert!(out.contains("# HELP lotusx_demo_total A demo\\ncounter.\n"));
        assert!(out.contains("# TYPE lotusx_demo_total counter\n"));
        assert!(out.contains("lotusx_demo_total{kind=\"weird \\\"x\\\"\"} 3\n"));
    }

    #[test]
    fn tenant_label_values_escape_conformance() {
        // Tenant names flow into `tenant` label values on every
        // per-tenant family. Route loading refuses names outside
        // [A-Za-z0-9_-] (see the routing tests), but the renderer must
        // stay correct on its own: each exposition-significant
        // character escapes exactly as text format v0.0.4 requires, and
        // no raw newline or quote ever reaches the label value.
        let cases: &[(&str, &str)] = &[
            ("evil\ntenant", "evil\\ntenant"),
            ("evil\"tenant", "evil\\\"tenant"),
            ("evil\\tenant", "evil\\\\tenant"),
            ("\n\"\\", "\\n\\\"\\\\"),
            ("a\\nb", "a\\\\nb"), // a literal backslash-n is NOT a newline
        ];
        for (raw, escaped) in cases {
            let mut w = PromWriter::new();
            w.sample_u64("lotusx_tenant_requests_total", &[("tenant", raw)], 1);
            let out = w.finish();
            assert_eq!(
                out,
                format!("lotusx_tenant_requests_total{{tenant=\"{escaped}\"}} 1\n"),
                "raw value {raw:?}"
            );
            // One sample line, terminated by the only newline.
            assert_eq!(out.matches('\n').count(), 1, "raw value {raw:?}");
            // The value between the quotes contains no unescaped quote:
            // stripping the escape pairs must leave none behind.
            let inner = &out[out.find('"').unwrap() + 1..out.rfind('"').unwrap()];
            assert!(
                !inner.replace("\\\\", "").replace("\\\"", "").contains('"'),
                "unescaped quote leaked for {raw:?}: {out}"
            );
        }
    }

    #[test]
    fn summary_renders_quantiles_sum_and_count() {
        let mut w = PromWriter::new();
        let h = HistogramSnapshot {
            count: 4,
            sum_ns: 2_000_000_000,
            max_ns: 1_000_000_000,
            p50_ns: 500_000_000,
            p95_ns: 900_000_000,
            p99_ns: 1_000_000_000,
        };
        w.summary("lotusx_stage_seconds", &[("stage", "parse")], &h);
        let out = w.finish();
        assert!(out.contains("lotusx_stage_seconds{stage=\"parse\",quantile=\"0.5\"} 0.5\n"));
        assert!(out.contains("lotusx_stage_seconds_sum{stage=\"parse\"} 2\n"));
        assert!(out.contains("lotusx_stage_seconds_count{stage=\"parse\"} 4\n"));
    }

    #[test]
    fn snapshot_renders_every_family() {
        use crate::registry::{Metrics, Stage};
        let m = Metrics::new();
        m.record_stage(Stage::HttpQuery, 1_500_000);
        m.counters
            .query_errors
            .fetch_add(2, std::sync::atomic::Ordering::Relaxed);
        let out = m.snapshot().to_prometheus();
        assert!(out.contains("# TYPE lotusx_stage_seconds summary"));
        assert!(out.contains("lotusx_stage_seconds_count{stage=\"http_query\"} 1"));
        assert!(
            out.contains("# HELP lotusx_query_errors_total Query texts that failed to parse.\n")
        );
        assert!(
            out.contains("# TYPE lotusx_query_errors_total counter\nlotusx_query_errors_total 2\n")
        );
        assert!(
            out.contains("lotusx_keyword_queries_total 0\n"),
            "zero rows render"
        );
        assert!(out.contains("lotusx_trace_events_total{outcome=\"produced\"}"));
        // Exactly one HELP/TYPE pair per family.
        assert_eq!(
            out.matches("# TYPE lotusx_stage_seconds").count(),
            1,
            "headers written once per family"
        );
    }
}
