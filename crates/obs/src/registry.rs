//! The global metrics registry: stage histograms, the process-scope
//! counter table and the slow-query log, behind one process-wide enable
//! flag.
//!
//! Everything here is designed around the *overhead-when-disabled*
//! budget: a disabled pipeline pays exactly one relaxed atomic load per
//! potential recording site ([`enabled`]) and nothing else. When enabled,
//! recordings are relaxed atomic adds (histograms, counters) or one short
//! mutex push (slow-query log — taken only for queries over the
//! threshold).

use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use crate::sampler::{Exemplar, ExemplarStore};
use crate::window::{WindowCounter, WindowSnapshot, WindowedStats};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

crate::counters! {
    /// The process-scope counter rows: engine events, counted while
    /// recording is [`enabled`]. `/stats` lists them under
    /// `metrics.counters`, `/metrics` as `lotusx_<name>_total`.
    pub struct ProcessCounters => ProcessSnapshot {
        counter algo_chosen_naive: "Chooser decisions for the navigational plan.",
        counter algo_chosen_structural_join: "Chooser decisions for the binary structural join.",
        counter cache_hit: "Query-cache lookups answered from the cache (also windowed).",
        counter cache_miss: "Query-cache lookups that went on to compute (also windowed).",
        counter degraded_responses: "Answers marked truncated by a budget (also windowed).",
        counter keyword_queries: "Keyword (SLCA) searches answered.",
        counter queries: "Queries answered, twig and keyword (also windowed).",
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
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; 17] = [
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
        }
    }
}

/// One slow query, as retained by the bounded slow-query log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowQuery {
    /// The query text.
    pub query: String,
    /// Its total wall time.
    pub total_ns: u64,
    /// Monotonic admission number (higher = more recent).
    pub seq: u64,
}

/// A bounded log of the most recent queries over a latency threshold.
pub struct SlowQueryLog {
    entries: Mutex<VecDeque<SlowQuery>>,
    capacity: usize,
    threshold_ns: AtomicU64,
    seq: AtomicU64,
}

/// Default slow-query threshold: 10ms.
const DEFAULT_SLOW_THRESHOLD_NS: u64 = 10_000_000;

/// Default slow-query log capacity.
const DEFAULT_SLOW_CAPACITY: usize = 32;

impl SlowQueryLog {
    fn new(capacity: usize, threshold_ns: u64) -> Self {
        SlowQueryLog {
            entries: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            threshold_ns: AtomicU64::new(threshold_ns),
            seq: AtomicU64::new(0),
        }
    }

    /// The current threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Sets the threshold.
    pub fn set_threshold_ns(&self, ns: u64) {
        self.threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Admits `query` if it is slow enough, evicting the oldest entry
    /// when full. Returns whether it was admitted.
    pub fn record(&self, query: &str, total_ns: u64) -> bool {
        if total_ns < self.threshold_ns() {
            return false;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().expect("slow log poisoned");
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(SlowQuery {
            query: query.to_string(),
            total_ns,
            seq,
        });
        true
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQuery> {
        self.entries
            .lock()
            .expect("slow log poisoned")
            .iter()
            .cloned()
            .collect()
    }

    fn reset(&self) {
        self.entries.lock().expect("slow log poisoned").clear();
        self.seq.store(0, Ordering::Relaxed);
    }
}

/// The metrics registry: per-stage histograms, the process counter
/// table, named (dynamically registered) histograms, and the slow-query
/// log.
pub struct Metrics {
    stages: [LatencyHistogram; Stage::ALL.len()],
    /// The process-scope counters; sites bump a field directly
    /// (`counters.query_errors.fetch_add(..)`), except the four rows
    /// behind [`Metrics::count_windowed`].
    pub counters: ProcessCounters,
    named: RwLock<HashMap<&'static str, LatencyHistogram>>,
    slow: SlowQueryLog,
    windows: WindowedStats,
    exemplars: ExemplarStore,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Creates an empty registry (the process-wide one is [`metrics`]).
    pub fn new() -> Self {
        Metrics {
            stages: Default::default(),
            counters: ProcessCounters::default(),
            named: RwLock::default(),
            slow: SlowQueryLog::new(DEFAULT_SLOW_CAPACITY, DEFAULT_SLOW_THRESHOLD_NS),
            windows: WindowedStats::new(),
            exemplars: ExemplarStore::new(),
        }
    }

    /// The histogram of one pipeline stage.
    pub fn stage(&self, stage: Stage) -> &LatencyHistogram {
        &self.stages[stage as usize]
    }

    /// Records one stage sample (no-op shorthand guarded by the caller).
    /// Every sample also lands in the current one-second telemetry slot,
    /// so lifetime histograms and live windows stay in lockstep.
    pub fn record_stage(&self, stage: Stage, ns: u64) {
        self.stage(stage).record_ns(ns);
        self.windows.record_stage(stage, ns);
    }

    /// Adds `n` to one of the four rows the live dashboard derives its
    /// rates from — the lifetime counter and the current telemetry
    /// window move together.
    pub fn count_windowed(&self, counter: WindowCounter, n: u64) {
        let row = match counter {
            WindowCounter::Queries => &self.counters.queries,
            WindowCounter::CacheHits => &self.counters.cache_hit,
            WindowCounter::CacheMisses => &self.counters.cache_miss,
            WindowCounter::Truncated => &self.counters.degraded_responses,
        };
        row.fetch_add(n, Ordering::Relaxed);
        self.windows.incr(counter, n);
    }

    /// Records one sample into the named histogram, creating it first.
    ///
    /// Unlike [`Metrics::record_stage`], names are registered on first
    /// use — this is the home for low-frequency series (e.g. deadline
    /// overshoot on truncated queries) that do not merit a [`Stage`].
    pub fn record_named(&self, name: &'static str, ns: u64) {
        if let Some(h) = self.named.read().expect("named poisoned").get(name) {
            return h.record_ns(ns);
        }
        let mut named = self.named.write().expect("named poisoned");
        named.entry(name).or_default().record_ns(ns);
    }

    /// A snapshot of a named histogram, or `None` if never recorded.
    pub fn named_histogram(&self, name: &'static str) -> Option<HistogramSnapshot> {
        let named = self.named.read().expect("named poisoned");
        named.get(name).map(|h| h.snapshot())
    }

    /// The slow-query log.
    pub fn slow_queries(&self) -> &SlowQueryLog {
        &self.slow
    }

    /// The rolling 1s/10s/60s telemetry windows.
    pub fn windows(&self) -> &WindowedStats {
        &self.windows
    }

    /// The worst-K sampled-profile exemplar store.
    pub fn exemplars(&self) -> &ExemplarStore {
        &self.exemplars
    }

    /// Zeroes every histogram and counter and empties the slow log.
    pub fn reset(&self) {
        for h in &self.stages {
            h.reset();
        }
        for c in self.counters.cells() {
            c.store(0, Ordering::Relaxed);
        }
        for h in self.named.read().expect("named poisoned").values() {
            h.reset();
        }
        self.slow.reset();
        self.windows.reset();
        self.exemplars.reset();
    }

    /// A plain-data snapshot of everything in the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .named
            .read()
            .expect("named poisoned")
            .iter()
            .map(|(name, h)| (name.to_string(), h.snapshot()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            stages: Stage::ALL
                .iter()
                .map(|&s| (s.name(), self.stage(s).snapshot()))
                .collect(),
            counters: self.counters.snapshot(),
            histograms,
            slow_queries: self.slow.entries(),
            windows: self.windows.aggregate_all(),
            exemplars: self.exemplars.snapshot(),
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
    /// Named histogram snapshots, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Slow-query log entries, oldest first.
    pub slow_queries: Vec<SlowQuery>,
    /// Rolling 1s/10s/60s window aggregates, shortest window first.
    pub windows: Vec<WindowSnapshot>,
    /// Worst-K sampled-profile exemplars, grouped by dominant stage.
    pub exemplars: Vec<Exemplar>,
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
    fn windowed_rows_move_the_counter_and_the_window_together() {
        let m = Metrics::new();
        m.count_windowed(WindowCounter::Queries, 1);
        m.count_windowed(WindowCounter::Queries, 2);
        m.count_windowed(WindowCounter::CacheMisses, 1);
        m.count_windowed(WindowCounter::Truncated, 1);
        let counters = m.snapshot().counters;
        assert_eq!((counters.queries, counters.cache_hit), (3, 0));
        assert_eq!((counters.cache_miss, counters.degraded_responses), (1, 1));
        let minute = m.windows().aggregate(60);
        assert_eq!((minute.queries, minute.cache_misses), (3, 1));
        assert_eq!(minute.truncated, 1);
    }

    #[test]
    fn slow_log_is_bounded_and_thresholded() {
        let log = SlowQueryLog::new(2, 1_000);
        assert!(!log.record("fast", 999));
        assert!(log.record("a", 1_000));
        assert!(log.record("b", 5_000));
        assert!(log.record("c", 9_000));
        let entries = log.entries();
        assert_eq!(entries.len(), 2, "capacity evicts the oldest");
        assert_eq!(entries[0].query, "b");
        assert_eq!(entries[1].query, "c");
        assert!(entries[1].seq > entries[0].seq);
        log.set_threshold_ns(10_000);
        assert!(!log.record("d", 9_999));
    }

    #[test]
    fn named_histograms_register_on_first_record() {
        let m = Metrics::new();
        assert!(m.named_histogram("deadline_overshoot").is_none());
        m.record_named("deadline_overshoot", 1_000);
        m.record_named("deadline_overshoot", 3_000);
        m.record_named("queue_wait", 42);
        let h = m.named_histogram("deadline_overshoot").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max_ns, 3_000);
        let s = m.snapshot();
        let names: Vec<_> = s.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["deadline_overshoot", "queue_wait"], "sorted");
        m.reset();
        assert_eq!(m.named_histogram("queue_wait").unwrap().count, 0);
    }

    #[test]
    fn snapshot_collects_everything() {
        let m = Metrics::new();
        m.record_stage(Stage::Total, 50_000);
        m.counters.cache_hit.fetch_add(4, Ordering::Relaxed);
        m.slow_queries().set_threshold_ns(1);
        m.slow_queries().record("//slow", 77);
        let s = m.snapshot();
        assert_eq!(s.stages.len(), Stage::ALL.len());
        let total = s.stages.iter().find(|(n, _)| *n == "total").unwrap();
        assert_eq!(total.1.count, 1);
        assert_eq!(s.counters.cache_hit, 4);
        assert_eq!(s.slow_queries.len(), 1);
        m.reset();
        let s = m.snapshot();
        assert_eq!(s.counters, ProcessSnapshot::default());
        assert!(s.slow_queries.is_empty());
        assert_eq!(s.stages[0].1.count, 0);
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
