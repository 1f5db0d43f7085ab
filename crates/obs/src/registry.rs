//! The global metrics registry: one lifetime histogram per [`Stage`]
//! and the process-scope counter table, behind one process-wide enable
//! flag.
//!
//! Everything here is designed around the *overhead-when-disabled*
//! budget: a disabled pipeline pays exactly one relaxed atomic load per
//! potential recording site ([`enabled`]) and nothing else. When enabled,
//! a recording is a handful of relaxed atomic adds, made once: rates and
//! windowed means are the reader's to derive (Δcounter/Δt,
//! Δ`sum_ns`/Δ`count` between two scrapes).

use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

crate::counters! {
    /// The process-scope counter rows: engine events, counted while
    /// recording is [`enabled`]. `/stats` lists them under
    /// `metrics.counters`, `/metrics` as `lotusx_<name>_total`.
    pub struct ProcessCounters => ProcessSnapshot {
        counter cache_hit: "Query-cache lookups answered from the cache.",
        counter cache_miss: "Query-cache lookups that went on to compute.",
        counter degraded_responses: "Answers marked truncated by a budget.",
        counter keyword_queries: "Keyword (SLCA) searches answered.",
        counter queries: "Queries answered, twig and keyword.",
        counter queries_deadline_exceeded: "Truncated answers whose tripped limit was a deadline.",
        counter query_errors: "Query texts that failed to parse.",
    }
}

/// Pipeline stages with a dedicated (array-indexed, hash-free) histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Query-text parsing.
    Parse,
    /// Empty-result rewriting.
    Rewrite,
    /// Twig matching (stream scans + joins).
    Match,
    /// Scoring and top-k selection.
    Rank,
    /// Snippet serialization.
    Serialize,
    /// Whole-query wall time.
    Total,
    /// Keyword (SLCA) search.
    Keyword,
    /// Per-keystroke tag completion.
    CompleteTag,
    /// Per-keystroke value completion.
    CompleteValue,
    /// End-to-end handling of one served `POST /query` request.
    HttpQuery,
    /// End-to-end handling of one served `POST /complete` request.
    HttpComplete,
    /// End-to-end handling of one served `GET /stats` request.
    HttpStats,
    /// Rendering one `GET /metrics` exposition (on the event-loop
    /// thread).
    HttpMetrics,
    /// Parse-done → worker-pickup wait of one served request.
    HttpQueueWait,
    /// Worker compute (route + encode) of one served request.
    HttpCompute,
    /// Response enqueue → fully flushed to the kernel (includes any
    /// write-stall time).
    HttpFlush,
    /// Worker completion push → event-loop pickup (loop wakeup→dispatch
    /// lag).
    HttpLoopLag,
    /// How far past its deadline a deadline-truncated query ran.
    DeadlineOvershoot,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; 18] = [
        Stage::Parse,
        Stage::Rewrite,
        Stage::Match,
        Stage::Rank,
        Stage::Serialize,
        Stage::Total,
        Stage::Keyword,
        Stage::CompleteTag,
        Stage::CompleteValue,
        Stage::HttpQuery,
        Stage::HttpComplete,
        Stage::HttpStats,
        Stage::HttpMetrics,
        Stage::HttpQueueWait,
        Stage::HttpCompute,
        Stage::HttpFlush,
        Stage::HttpLoopLag,
        Stage::DeadlineOvershoot,
    ];

    /// Stable snake-case name (used as the JSON key).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Rewrite => "rewrite",
            Stage::Match => "match",
            Stage::Rank => "rank",
            Stage::Serialize => "serialize",
            Stage::Total => "total",
            Stage::Keyword => "keyword",
            Stage::CompleteTag => "complete_tag",
            Stage::CompleteValue => "complete_value",
            Stage::HttpQuery => "http_query",
            Stage::HttpComplete => "http_complete",
            Stage::HttpStats => "http_stats",
            Stage::HttpMetrics => "http_metrics",
            Stage::HttpQueueWait => "http_queue_wait",
            Stage::HttpCompute => "http_compute",
            Stage::HttpFlush => "http_flush",
            Stage::HttpLoopLag => "http_loop_lag",
            Stage::DeadlineOvershoot => "deadline_overshoot",
        }
    }
}

/// The metrics registry: per-stage histograms and the process counter
/// table.
#[derive(Default)]
pub struct Metrics {
    stages: [LatencyHistogram; Stage::ALL.len()],
    /// The process-scope counters; sites bump a field directly
    /// (`counters.query_errors.fetch_add(..)`).
    pub counters: ProcessCounters,
}

impl Metrics {
    /// Creates an empty registry (the process-wide one is [`metrics`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The histogram of one pipeline stage.
    pub fn stage(&self, stage: Stage) -> &LatencyHistogram {
        &self.stages[stage as usize]
    }

    /// Records one stage sample (no-op shorthand guarded by the caller).
    pub fn record_stage(&self, stage: Stage, ns: u64) {
        self.stage(stage).record_ns(ns);
    }

    /// Zeroes every histogram and counter.
    pub fn reset(&self) {
        for h in &self.stages {
            h.reset();
        }
        for c in self.counters.cells() {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// A plain-data snapshot of everything in the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            stages: Stage::ALL
                .iter()
                .map(|&s| (s.name(), self.stage(s).snapshot()))
                .collect(),
            counters: self.counters.snapshot(),
            trace: crate::event::trace_counters(),
        }
    }
}

/// A point-in-time view of a [`Metrics`] registry (see
/// [`MetricsSnapshot::to_json`] for the `metrics.json` rendering).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Per-stage histogram snapshots, in [`Stage::ALL`] order.
    pub stages: Vec<(&'static str, HistogramSnapshot)>,
    /// The process counter table, zeros included.
    pub counters: ProcessSnapshot,
    /// Trace-ring accounting (produced / dropped / exported events).
    pub trace: crate::ring::RingCounters,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static METRICS: OnceLock<Metrics> = OnceLock::new();

/// Is global metrics recording on? One relaxed load — the whole cost of
/// the observability subsystem when profiling is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns global metrics recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide metrics registry.
pub fn metrics() -> &'static Metrics {
    METRICS.get_or_init(Metrics::new)
}

/// Runs `f`, recording its wall time into the global histogram of
/// `stage` when recording is [`enabled`]. When disabled this is exactly
/// one atomic load plus the call.
pub fn time_stage<T>(stage: Stage, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = std::time::Instant::now();
    let out = f();
    metrics().record_stage(stage, start.elapsed().as_nanos() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_have_independent_histograms() {
        let m = Metrics::new();
        m.record_stage(Stage::Parse, 100);
        m.record_stage(Stage::Parse, 200);
        m.record_stage(Stage::Rank, 999);
        assert_eq!(m.stage(Stage::Parse).count(), 2);
        assert_eq!(m.stage(Stage::Rank).count(), 1);
        assert_eq!(m.stage(Stage::Match).count(), 0);
    }

    #[test]
    fn every_recording_is_visible_in_the_snapshot_exactly_once() {
        let m = Metrics::new();
        m.record_stage(Stage::Total, 50_000);
        m.counters.queries.fetch_add(1, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.stages.len(), Stage::ALL.len());
        let samples: u64 = s.stages.iter().map(|(_, h)| h.count).sum();
        assert_eq!(samples, 1, "one stage sample, one histogram");
        let total = s.stages.iter().find(|(n, _)| *n == "total").unwrap();
        assert_eq!((total.1.count, total.1.sum_ns), (1, 50_000));
        assert_eq!(s.counters.queries, 1);
        assert_eq!(s.counters.values().iter().sum::<u64>(), 1, "one row moved");
        m.reset();
        let s = m.snapshot();
        assert_eq!(s.counters, ProcessSnapshot::default());
        assert!(s.stages.iter().all(|(_, h)| h.count == 0));
    }

    #[test]
    fn global_flag_gates_time_stage() {
        assert!(!enabled());
        let before = metrics().stage(Stage::CompleteValue).count();
        assert_eq!(time_stage(Stage::CompleteValue, || 7), 7);
        assert_eq!(
            metrics().stage(Stage::CompleteValue).count(),
            before,
            "disabled: nothing recorded"
        );
        set_enabled(true);
        assert!(enabled());
        assert_eq!(time_stage(Stage::CompleteValue, || 8), 8);
        assert_eq!(metrics().stage(Stage::CompleteValue).count(), before + 1);
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(Stage::Match.name(), "match");
        assert_eq!(Stage::CompleteTag.name(), "complete_tag");
        let names: std::collections::HashSet<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Stage::ALL.len(), "names are unique");
    }
}
