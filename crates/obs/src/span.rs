//! Nestable, thread-safe timing spans.
//!
//! A [`Span`] measures one region of work on a monotonic clock. Child
//! spans are opened with [`Span::child`] (RAII: the child records itself
//! into its parent when the guard drops) and the finished tree is a plain
//! [`SpanRecord`] value that can be rendered, summed, or attached to a
//! `QueryProfile`. Spans are `Sync`: parallel workers may annotate one
//! span or open children concurrently — records are pushed under a
//! mutex, never read on the hot path.

use std::sync::Mutex;
use std::time::Instant;

/// A finished span: name, wall time, annotations and finished children.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// What the span measured (e.g. `parse`, `match/structural-join`).
    pub name: String,
    /// Wall time between the span's start and finish.
    pub duration_ns: u64,
    /// Key/value notes attached while the span ran.
    pub notes: Vec<(String, String)>,
    /// Finished child spans, in completion order.
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    /// The first top-level child with `name`, if any.
    pub fn child(&self, name: &str) -> Option<&SpanRecord> {
        self.children.iter().find(|c| c.name == name)
    }

    /// The duration of the first top-level child with `name` (0 if absent).
    pub fn child_ns(&self, name: &str) -> u64 {
        self.child(name).map_or(0, |c| c.duration_ns)
    }

    /// Sum of all top-level child durations.
    pub fn children_ns(&self) -> u64 {
        self.children.iter().map(|c| c.duration_ns).sum()
    }

    /// The value of a note, if present.
    pub fn note(&self, key: &str) -> Option<&str> {
        self.notes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Renders the span tree with box-drawing branches, durations and
    /// notes — the body of the CLI `explain` output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, "", true, true);
        out
    }

    fn render_into(&self, out: &mut String, prefix: &str, is_last: bool, is_root: bool) {
        let (branch, child_prefix) = if is_root {
            (String::new(), String::new())
        } else if is_last {
            (format!("{prefix}└─ "), format!("{prefix}   "))
        } else {
            (format!("{prefix}├─ "), format!("{prefix}│  "))
        };
        out.push_str(&branch);
        out.push_str(&self.name);
        out.push(' ');
        out.push_str(&crate::histogram::fmt_ns(self.duration_ns));
        for (k, v) in &self.notes {
            out.push_str(&format!("  {k}={v}"));
        }
        out.push('\n');
        let n = self.children.len();
        for (i, c) in self.children.iter().enumerate() {
            c.render_into(out, &child_prefix, i + 1 == n, false);
        }
    }
}

/// A live timing span (see the module docs).
pub struct Span {
    name: String,
    started: Instant,
    notes: Mutex<Vec<(String, String)>>,
    children: Mutex<Vec<SpanRecord>>,
}

impl Span {
    /// Starts a root span.
    pub fn new(name: impl Into<String>) -> Self {
        Span {
            name: name.into(),
            started: Instant::now(),
            notes: Mutex::new(Vec::new()),
            children: Mutex::new(Vec::new()),
        }
    }

    /// The span's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Nanoseconds elapsed since the span started.
    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Attaches a key/value note.
    pub fn annotate(&self, key: impl Into<String>, value: impl ToString) {
        self.notes
            .lock()
            .expect("span notes poisoned")
            .push((key.into(), value.to_string()));
    }

    /// Opens a child span; it records itself into `self` when the
    /// returned guard drops.
    pub fn child(&self, name: impl Into<String>) -> SpanGuard<'_> {
        SpanGuard {
            parent: self,
            span: Some(Span::new(name)),
        }
    }

    /// Times `f` under a child span and returns its result.
    pub fn time<T>(&self, name: impl Into<String>, f: impl FnOnce(&Span) -> T) -> T {
        let guard = self.child(name);
        f(&guard)
    }

    /// Adds an already-finished record as a child (for durations measured
    /// elsewhere).
    pub fn record_child(&self, record: SpanRecord) {
        self.children
            .lock()
            .expect("span children poisoned")
            .push(record);
    }

    /// Stops the clock and returns the finished record.
    pub fn finish(self) -> SpanRecord {
        let duration_ns = self.elapsed_ns();
        SpanRecord {
            name: self.name,
            duration_ns,
            notes: self.notes.into_inner().expect("span notes poisoned"),
            children: self.children.into_inner().expect("span children poisoned"),
        }
    }
}

/// RAII guard for a child span: derefs to [`Span`] (so children nest) and
/// records itself into the parent on drop.
pub struct SpanGuard<'a> {
    parent: &'a Span,
    span: Option<Span>,
}

impl std::ops::Deref for SpanGuard<'_> {
    type Target = Span;
    fn deref(&self) -> &Span {
        self.span.as_ref().expect("span taken")
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(span) = self.span.take() {
            self.parent.record_child(span.finish());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_finish_into_a_tree() {
        let root = Span::new("query");
        {
            let parse = root.child("parse");
            parse.annotate("bytes", 12);
        }
        {
            let exec = root.child("match");
            {
                let inner = exec.child("structural-join");
                inner.annotate("matches", 3);
            }
        }
        let rec = root.finish();
        assert_eq!(rec.name, "query");
        assert_eq!(rec.children.len(), 2);
        assert_eq!(rec.children[0].name, "parse");
        assert_eq!(rec.children[0].note("bytes"), Some("12"));
        let exec = rec.child("match").unwrap();
        assert_eq!(exec.children[0].name, "structural-join");
        assert_eq!(exec.children[0].note("matches"), Some("3"));
        assert!(rec.child("nosuch").is_none());
        assert_eq!(rec.child_ns("nosuch"), 0);
    }

    #[test]
    fn child_durations_are_bounded_by_the_parent() {
        let root = Span::new("total");
        {
            let a = root.child("a");
            std::thread::sleep(std::time::Duration::from_millis(2));
            drop(a);
        }
        {
            let _b = root.child("b");
        }
        let rec = root.finish();
        assert!(rec.duration_ns >= rec.children_ns());
        assert!(rec.child_ns("a") >= 2_000_000);
    }

    #[test]
    fn spans_accept_concurrent_children() {
        let root = Span::new("parallel");
        std::thread::scope(|s| {
            for i in 0..4 {
                let root = &root;
                s.spawn(move || {
                    let c = root.child(format!("worker-{i}"));
                    c.annotate("i", i);
                });
            }
        });
        let rec = root.finish();
        assert_eq!(rec.children.len(), 4);
    }

    #[test]
    fn time_returns_the_closure_result() {
        let root = Span::new("r");
        let v = root.time("step", |s| {
            s.annotate("k", "v");
            41 + 1
        });
        assert_eq!(v, 42);
        let rec = root.finish();
        assert_eq!(rec.children[0].note("k"), Some("v"));
    }

    #[test]
    fn render_draws_a_tree() {
        let mut rec = SpanRecord {
            name: "query".into(),
            duration_ns: 70_000,
            notes: vec![("cache".into(), "miss".into())],
            children: vec![
                SpanRecord {
                    name: "parse".into(),
                    duration_ns: 12_300,
                    ..Default::default()
                },
                SpanRecord {
                    name: "match".into(),
                    duration_ns: 45_600,
                    notes: vec![("algorithm".into(), "structural-join".into())],
                    children: vec![SpanRecord {
                        name: "ordered-filter".into(),
                        duration_ns: 1_000,
                        ..Default::default()
                    }],
                },
            ],
        };
        let text = rec.render();
        assert!(text.contains("query 70.0µs  cache=miss"));
        assert!(text.contains("├─ parse 12.3µs"));
        assert!(text.contains("└─ match 45.6µs  algorithm=structural-join"));
        assert!(text.contains("   └─ ordered-filter 1.0µs"));
        // The last child flips from ├─ to └─.
        rec.children.pop();
        assert!(rec.render().contains("└─ parse"));
    }
}
