//! Per-query profiles: where one query's milliseconds went.

use crate::histogram::fmt_ns;
use crate::span::SpanRecord;

/// The profile of one executed query, assembled by the engine when a
/// request asks for profiling (or by the CLI `explain` command).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// The query text as submitted.
    pub query: String,
    /// The executed (possibly rewritten) pattern, as text.
    pub executed: String,
    /// The join algorithm that ran (`None` for keyword searches and
    /// cache hits, which never reach the join).
    pub algorithm: Option<String>,
    /// Whether the outcome came from the query-result cache.
    pub cache_hit: bool,
    /// Matches produced before top-k truncation.
    pub candidates: usize,
    /// Results returned after truncation.
    pub results: usize,
    /// If an automatic rewrite produced the outcome: the rewritten query.
    pub rewritten: Option<String>,
    /// The timed span tree (root = whole query).
    pub span: SpanRecord,
}

impl QueryProfile {
    /// Total wall time of the query.
    pub fn total_ns(&self) -> u64 {
        self.span.duration_ns
    }

    /// Wall time of one top-level stage (0 when the stage did not run).
    pub fn stage_ns(&self, stage: &str) -> u64 {
        self.span.child_ns(stage)
    }

    /// Sum of all top-level stage times (≤ [`Self::total_ns`]).
    pub fn stages_ns(&self) -> u64 {
        self.span.children_ns()
    }

    /// Renders the profile as the `explain` tree: header lines (query,
    /// algorithm, rewrite, counts), then the stage-timing tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("query: {}\n", self.query));
        if let Some(rw) = &self.rewritten {
            out.push_str(&format!("rewritten to: {rw}\n"));
        } else if self.executed != self.query {
            out.push_str(&format!("executed as: {}\n", self.executed));
        }
        match (&self.algorithm, self.cache_hit) {
            (_, true) => out.push_str("algorithm: (cache hit)\n"),
            (Some(a), false) => out.push_str(&format!("algorithm: {a}\n")),
            (None, false) => {}
        }
        out.push_str(&format!(
            "candidates: {}  results: {}  cache: {}\n",
            self.candidates,
            self.results,
            if self.cache_hit { "hit" } else { "miss" }
        ));
        out.push_str(&self.span.render());
        out.push_str(&format!("total: {}\n", fmt_ns(self.total_ns())));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryProfile {
        QueryProfile {
            query: "//book/title".into(),
            executed: "//book/title".into(),
            algorithm: Some("structural-join".into()),
            cache_hit: false,
            candidates: 123,
            results: 10,
            rewritten: None,
            span: SpanRecord {
                name: "query".into(),
                duration_ns: 70_000,
                notes: vec![],
                children: vec![
                    SpanRecord {
                        name: "parse".into(),
                        duration_ns: 10_000,
                        ..Default::default()
                    },
                    SpanRecord {
                        name: "match".into(),
                        duration_ns: 50_000,
                        ..Default::default()
                    },
                ],
            },
        }
    }

    #[test]
    fn stage_accessors_sum_correctly() {
        let p = sample();
        assert_eq!(p.total_ns(), 70_000);
        assert_eq!(p.stage_ns("parse"), 10_000);
        assert_eq!(p.stage_ns("rank"), 0);
        assert_eq!(p.stages_ns(), 60_000);
        assert!(p.stages_ns() <= p.total_ns());
    }

    #[test]
    fn render_mentions_the_essentials() {
        let text = sample().render();
        assert!(text.contains("query: //book/title"));
        assert!(text.contains("algorithm: structural-join"));
        assert!(text.contains("candidates: 123"));
        assert!(text.contains("cache: miss"));
        assert!(text.contains("├─ parse"));
        assert!(text.contains("└─ match"));
        assert!(text.contains("total: 70.0µs"));
        assert!(!text.contains("rewritten"));
    }

    #[test]
    fn render_shows_rewrites_and_cache_hits() {
        let mut p = sample();
        p.rewritten = Some("//book/author".into());
        p.cache_hit = true;
        let text = p.render();
        assert!(text.contains("rewritten to: //book/author"));
        assert!(text.contains("algorithm: (cache hit)"));
        assert!(text.contains("cache: hit"));
    }
}
