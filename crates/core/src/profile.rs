//! Per-request profiles: where one query's time went, and the plan
//! behind it.

use lotusx_guard::TruncationReason;
use lotusx_obs::{fmt_ns, Stage};
use lotusx_rank::RankStats;
use lotusx_rewrite::RewriteStats;

/// The profile of one query, recorded by the engine when the request
/// asks for one ([`QueryRequest::profile`](crate::QueryRequest::profile))
/// and rendered by the CLI `explain` command.
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
    /// The limit that cut the answer short, if one did.
    pub truncated: Option<TruncationReason>,
    /// Every stage that ran and its wall time, in the order they ran (a
    /// rewritten query runs `match` twice).
    pub stages: Vec<(Stage, u64)>,
    /// The engine's time on the request — the cache probe plus the
    /// compute, never a wait between them: what the `total` stage
    /// histogram records.
    pub total_ns: u64,
    /// How the rank stage walked the rows, when it ran.
    pub rank: Option<RankStats>,
    /// The rewrite search's statistics, when one ran.
    pub rewrite: Option<RewriteStats>,
    /// Non-empty rewrites that search found.
    pub rewrites: usize,
}

impl QueryProfile {
    /// Wall time of `stage`, summed over its runs (0 when it did not
    /// run).
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        (self.stages.iter())
            .filter(|(s, _)| *s == stage)
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Sum of all stage times (≤ [`Self::total_ns`]).
    pub fn stages_ns(&self) -> u64 {
        self.stages.iter().map(|(_, ns)| ns).sum()
    }

    /// Renders the profile as the `explain` text: header lines (query,
    /// rewrite, algorithm, counts, truncation), one line per stage with
    /// the rank walk and the rewrite search on their stage's line, then
    /// `total:`.
    pub fn render(&self) -> String {
        let mut out = format!("query: {}\n", self.query);
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
        if let Some(reason) = self.truncated {
            out.push_str(&format!("truncated: {reason}\n"));
        }
        for &(stage, ns) in &self.stages {
            out.push_str(&format!("  {:<9} {:>7}", stage.name(), fmt_ns(ns)));
            match (stage, self.rank, self.rewrite) {
                (Stage::Rank, Some(r), _) => out.push_str(&format!(
                    "  offered={} bound={} classes={}/{}",
                    r.offered,
                    r.bound.name(),
                    r.walked,
                    r.classes
                )),
                (Stage::Rewrite, _, Some(s)) => out.push_str(&format!(
                    "  expansions={} pruned-unsatisfiable={} executions={} rewrites={}",
                    s.expansions, s.pruned_unsatisfiable, s.executions, self.rewrites
                )),
                _ => {}
            }
            out.push('\n');
        }
        out.push_str(&format!("total: {}\n", fmt_ns(self.total_ns)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotusx_rank::Bound;

    fn sample() -> QueryProfile {
        QueryProfile {
            query: "//book/title".into(),
            executed: "//book/title".into(),
            algorithm: Some("structural-join".into()),
            candidates: 123,
            results: 10,
            stages: vec![
                (Stage::Parse, 10_000),
                (Stage::Match, 50_000),
                (Stage::Rank, 5_000),
            ],
            total_ns: 70_000,
            rank: Some(RankStats {
                offered: 11,
                bound: Bound::Guide,
                walked: 1,
                classes: 2,
            }),
            ..Default::default()
        }
    }

    #[test]
    fn stage_accessors_sum_correctly() {
        let mut p = sample();
        assert_eq!(p.stage_ns(Stage::Parse), 10_000);
        assert_eq!(p.stage_ns(Stage::Rewrite), 0);
        assert_eq!(p.stages_ns(), 65_000);
        p.stages.push((Stage::Match, 1_000));
        assert_eq!(p.stage_ns(Stage::Match), 51_000, "every run counts");
        assert!(p.stages_ns() <= p.total_ns);
    }

    #[test]
    fn render_mentions_the_essentials() {
        let text = sample().render();
        assert!(text.contains("query: //book/title"));
        assert!(text.contains("algorithm: structural-join"));
        assert!(text.contains("candidates: 123"));
        assert!(text.contains("cache: miss"));
        assert!(text.contains("\n  parse      10.0µs\n"), "{text}");
        assert!(text.contains("\n  match      50.0µs\n"), "{text}");
        assert!(text.contains("rank        5.0µs  offered=11 bound=guide classes=1/2"));
        assert!(text.ends_with("total: 70.0µs\n"));
        assert!(!text.contains("rewritten"));
        assert!(!text.contains("truncated"));
    }

    #[test]
    fn render_shows_rewrites_truncation_and_cache_hits() {
        let mut p = sample();
        p.rewritten = Some("//book/author".into());
        p.cache_hit = true;
        p.truncated = Some(TruncationReason::NodeQuotaExceeded);
        p.stages.insert(1, (Stage::Rewrite, 2_000));
        p.rewrite = Some(RewriteStats {
            expansions: 4,
            pruned_unsatisfiable: 2,
            executions: 1,
        });
        p.rewrites = 1;
        let text = p.render();
        assert!(text.contains("rewritten to: //book/author"));
        assert!(text.contains("algorithm: (cache hit)"));
        assert!(text.contains("cache: hit"));
        assert!(text.contains("truncated: node_quota_exceeded"));
        assert!(text.contains(
            "rewrite     2.0µs  expansions=4 pruned-unsatisfiable=2 executions=1 rewrites=1"
        ));
    }
}
