//! Timed spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! request it belongs to. Spans are kept in memory while the replay
//! runs and written as Chrome trace-event JSON when it ends. The spans
//! under a request are leaves (each layer is entered once, from the
//! replay), so a layer's duration is its self time.

use std::io::{self, Write};
use std::time::Instant;

/// "No parent" / "no request".
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Index of the request in the replayed sequence, or [`NONE`].
    pub request: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. A disabled recorder (the oracle's) turns
/// every call into a no-op, so one code path serves both uses.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Counts taken where the work happens (matches of a join, …).
    counts: Vec<(&'static str, u64)>,
    /// Innermost open span.
    current: u32,
    last_closed: u32,
    request: u32,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            counts: Vec::new(),
            current: NONE,
            last_closed: NONE,
            request: NONE,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one observation of the count called `name`.
    pub fn count(&mut self, name: &'static str, value: u64) {
        if self.enabled {
            self.counts.push((name, value));
        }
    }

    /// Every observation of the count called `name`.
    pub fn counts(&self, name: &str) -> Vec<u64> {
        let named = self.counts.iter().filter(|(n, _)| *n == name);
        named.map(|(_, v)| *v).collect()
    }

    /// Spans opened from now on belong to request `id`.
    pub fn set_request(&mut self, id: u32) {
        self.request = id;
    }

    /// Runs `f` inside a span called `name`, nested in whichever span
    /// is open.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = std::mem::replace(&mut self.current, id);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request: self.request,
        });
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id as usize];
        span.start_ns = start;
        span.end_ns = end;
        self.current = parent;
        self.last_closed = id;
        out
    }

    /// Renames the span that closed last — for a span whose kind (cache
    /// hit or miss) is only known from counters read after the call,
    /// which must not be timed with it.
    pub fn rename_last_closed(&mut self, name: &'static str) {
        if let Some(span) = self.spans.get_mut(self.last_closed as usize) {
            span.name = name;
        }
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Writes the spans as Chrome trace-event JSON (complete events,
    /// microsecond timestamps; `chrome://tracing` and Perfetto open it).
    pub fn write_chrome_trace(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            let request = if s.request == NONE {
                -1
            } else {
                i64::from(s.request)
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{request}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            )?;
        }
        out.write_all(b"]}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn nesting_and_parents() {
        let mut spans = Spans::new(true);
        spans.set_request(7);
        spans.time("outer", |s| {
            spin(200_000);
            s.time("inner", |_| spin(300_000));
            s.time("inner", |_| spin(100_000));
        });
        let all = spans.all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].parent, NONE);
        assert_eq!(all[1].parent, 0);
        assert_eq!(all[2].parent, 0);
        assert!(all.iter().all(|s| s.request == 7));
        let outer = spans.durations("outer")[0];
        let inner: u64 = spans.durations("inner").iter().sum();
        assert!(inner >= 400_000);
        assert!(outer >= inner + 200_000, "a span covers its children");
    }

    #[test]
    fn disabled_recorder_records_nothing_but_runs_the_call() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.time("x", |_| 41 + 1), 42);
        spans.count("n", 3);
        assert!(spans.all().is_empty() && spans.counts("n").is_empty());
        let mut on = Spans::new(true);
        on.count("n", 3);
        on.count("m", 1);
        on.count("n", 5);
        assert_eq!(on.counts("n"), [3, 5]);
    }

    #[test]
    fn rename_targets_the_span_that_closed_last() {
        let mut spans = Spans::new(true);
        spans.time("request", |s| {
            s.time("core.query_miss", |s| s.time("child", |_| ()));
            s.rename_last_closed("core.query_hit");
            s.time("encode", |_| ());
        });
        let names: Vec<&str> = spans.all().iter().map(|s| s.name).collect();
        assert_eq!(names, ["request", "core.query_hit", "child", "encode"]);
        Spans::new(false).rename_last_closed("nothing to rename");
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut spans = Spans::new(true);
        spans.time("a", |s| s.time("b", |_| ()));
        let mut out = Vec::new();
        spans.write_chrome_trace(&mut out).unwrap();
        let doc = lotusx_obs::parse_json(std::str::from_utf8(&out).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(|v| v.as_str()), Some("b"));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|v| v.as_f64()), Some(0.0));
    }
}
