//! The LotusX engine: load or open a corpus, then run requests against
//! it — probe the cache, match, rewrite an empty answer, rank, serialize.
//!
//! Every caller comes in through [`LotusX::query`] (the request/response
//! vocabulary lives in [`crate::request`]); there are no engine-wide
//! settings, only the request's own `top_k` / `algorithm` / `budget` /
//! `profile`.
//!
//! Budgeted queries degrade gracefully: when a deadline or quota trips
//! mid-query the engine stops at the next cooperative checkpoint and
//! returns the best results found so far, marked
//! [`Completeness::Truncated`](lotusx_guard::Completeness) — never an
//! error, and never silently passed off as a complete answer. Truncated
//! responses are not cached.

use crate::lru::{CacheStats, ConcurrentLru};
use crate::profile::QueryProfile;
use crate::request::{
    Answer, LotusError, PendingQuery, QueryKind, QueryProbe, QueryRequest, QueryResponse,
    RewriteInfo,
};
use lotusx_autocomplete::CompletionEngine;
use lotusx_guard::{QueryGuard, TruncationReason};
use lotusx_index::IndexedDocument;
use lotusx_obs::Stage;
use lotusx_rank::Ranker;
use lotusx_rewrite::{Rewriter, RewriterConfig};
use lotusx_twig::exec::{execute_budgeted, Algorithm};
use lotusx_twig::pattern::TwigPattern;
use lotusx_twig::xpath::parse_query;
use lotusx_xml::Document;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Capacity of the query-result LRU cache.
const QUERY_CACHE_CAPACITY: usize = 128;

/// How many ranked results a request without a `top_k` gets.
const DEFAULT_TOP_K: usize = 100;

/// What one request carries from its begin to its end, so no stage
/// threads it by hand: whether metrics record, the profile being
/// recorded and the budget guard.
pub(crate) struct RequestCtx {
    recording: bool,
    /// The profile when this request is profiled: stages and plan facts
    /// as they run, the rest filled in by [`Self::end`].
    profile: Option<Box<QueryProfile>>,
    /// Unlimited until [`LotusX::query_compute`] starts the request's
    /// budget clock: nothing before it can tick a guard.
    guard: QueryGuard,
    /// Engine time spent on this request so far (the `total` stage).
    spent_ns: u64,
}

impl RequestCtx {
    /// The one begin of every request, twig or keyword: the recording
    /// flag and the profile.
    fn begin(request: &QueryRequest) -> Self {
        RequestCtx {
            recording: lotusx_obs::enabled(),
            profile: request.profile.then(Box::default),
            guard: QueryGuard::unlimited(),
            spent_ns: 0,
        }
    }

    /// Runs one pipeline stage under the request's guard. When metrics
    /// record or the request is profiled, one clock reading times it for
    /// both the stage histogram and the profile; with both off this is
    /// the bare call.
    fn stage<T>(&mut self, stage: Stage, f: impl FnOnce(&QueryGuard) -> T) -> T {
        if !self.recording && self.profile.is_none() {
            return f(&self.guard);
        }
        let started = Instant::now();
        let out = f(&self.guard);
        let ns = started.elapsed().as_nanos() as u64;
        if self.recording {
            lotusx_obs::metrics().record_stage(stage, ns);
        }
        if let Some(profile) = &mut self.profile {
            profile.stages.push((stage, ns));
        }
        out
    }

    /// Counts one cache lookup — the hit from the probe, the miss from
    /// the compute, so each twig request moves the counters exactly once
    /// wherever its halves ran.
    fn note_cache_access(&self, hit: bool) {
        if self.recording {
            let counters = &lotusx_obs::metrics().counters;
            let lookup = if hit {
                &counters.cache_hit
            } else {
                &counters.cache_miss
            };
            lookup.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The one end of every successfully parsed request: the `queries`
    /// counter and `total` stage, degradation metrics for a truncated
    /// answer, the profile, the response.
    /// `pattern` is what a twig request parsed to.
    fn end(
        self,
        request: &QueryRequest,
        pattern: Option<&TwigPattern>,
        mut response: QueryResponse,
        hit: bool,
    ) -> QueryResponse {
        let truncation = response.completeness.truncation_reason();
        if self.recording {
            let m = lotusx_obs::metrics();
            m.counters.queries.fetch_add(1, Ordering::Relaxed);
            m.record_stage(Stage::Total, self.spent_ns);
            if truncation.is_some() {
                m.counters
                    .degraded_responses
                    .fetch_add(1, Ordering::Relaxed);
            }
            if truncation == Some(TruncationReason::DeadlineExceeded) {
                m.counters
                    .queries_deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(overshoot) = self.guard.deadline_overshoot() {
                    m.record_stage(Stage::DeadlineOvershoot, overshoot.as_nanos() as u64);
                }
            }
        }
        if let Some(mut profile) = self.profile {
            profile.query = request.text.clone();
            profile.executed = pattern.map_or_else(|| request.text.clone(), |p| p.to_string());
            // A cache hit never reaches the join.
            profile.algorithm = (response.algorithm)
                .filter(|_| !hit)
                .map(|a| a.name().to_string());
            profile.cache_hit = hit;
            profile.candidates = response.total_matches;
            profile.results = response.matches.len();
            profile.rewritten = response.rewrite.as_ref().map(|i| i.pattern.to_string());
            profile.truncated = truncation;
            profile.total_ns = self.spent_ns;
            response.profile = Some(profile);
        }
        response
    }
}

/// The LotusX system over one loaded document.
///
/// `LotusX` is `Send + Sync`: searches and completions take `&self` and
/// may run concurrently from many threads. The query-result cache is
/// thread-safe and shared across all callers.
pub struct LotusX {
    idx: IndexedDocument,
    /// Complete twig responses (profile-less) keyed by effective limit +
    /// resolved algorithm + normalized pattern. A hit clones the entry:
    /// a pointer copy of its [`Answer`].
    query_cache: ConcurrentLru<String, QueryResponse>,
}

impl LotusX {
    /// Parses and indexes an XML string.
    pub fn load_str(xml: &str) -> Result<Self, LotusError> {
        Ok(Self::load_document(Document::parse_str(xml)?))
    }

    /// Reads, parses and indexes an XML file. Files with the `.ltsx`
    /// extension are opened as LotusX binary snapshots instead.
    ///
    /// This is a thin shim over [`Self::open`] with
    /// [`CorpusSource::from_path`](crate::source::CorpusSource::from_path).
    pub fn load_file(path: impl AsRef<std::path::Path>) -> Result<Self, LotusError> {
        Self::open(&crate::source::CorpusSource::from_path(path.as_ref()))
    }

    /// Opens any corpus source — XML file, `.ltsx` snapshot, generated
    /// dataset spec or inline XML — through one entry point. See
    /// [`CorpusSource`](crate::source::CorpusSource) for the accepted
    /// forms.
    pub fn open(source: &crate::source::CorpusSource) -> Result<Self, LotusError> {
        use crate::source::CorpusSource;
        match source {
            CorpusSource::XmlFile(path) => {
                let xml = std::fs::read_to_string(path)?;
                let doc = Document::parse_str(&xml)?;
                // The text is dead once parsed: free it before indexing.
                drop(xml);
                Ok(Self::load_document(doc))
            }
            CorpusSource::Snapshot(path) => Self::open_snapshot(path),
            CorpusSource::Spec {
                dataset,
                scale,
                seed,
            } => Ok(Self::load_document(lotusx_datagen::generate(
                *dataset, *scale, *seed,
            ))),
            CorpusSource::Inline(xml) => Self::load_str(xml),
        }
    }

    /// Saves what the index cannot derive from its document — the
    /// document tree, the value index and the per-tag term counts — as a
    /// sectioned, checksummed binary snapshot that [`Self::open_snapshot`]
    /// reopens with bulk reads instead of a parse. The write is atomic:
    /// the snapshot is staged in a temp file beside the target, fsynced
    /// and renamed into place, so a crash never leaves a torn file.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<(), LotusError> {
        let sections = lotusx_index::snapshot::encode_sections(&self.idx);
        lotusx_storage::write_snapshot_file(path, &sections)?;
        Ok(())
    }

    /// Opens a binary snapshot written by [`Self::save_snapshot`]: the
    /// stored structures deserialize directly into place (no re-parsing),
    /// then the tag streams, DataGuide and statistics are derived from the
    /// tree as a build derives them. A file of any other format version
    /// is a typed [`LotusError::Storage`], never parsed.
    pub fn open_snapshot(path: impl AsRef<std::path::Path>) -> Result<Self, LotusError> {
        // Every checksum is verified here, before anything decodes; the
        // decoder frees each payload once its section is decoded.
        let sections = lotusx_storage::read_snapshot_file(path)?;
        Ok(Self::from_indexed(lotusx_index::snapshot::decode_sections(
            sections,
        )?))
    }

    /// Wraps an already-indexed document in a fresh engine (an empty
    /// query cache).
    pub fn from_indexed(idx: IndexedDocument) -> Self {
        LotusX {
            idx,
            query_cache: ConcurrentLru::new(QUERY_CACHE_CAPACITY),
        }
    }

    /// Consumes the engine, returning the indexed document.
    pub fn into_index(self) -> IndexedDocument {
        self.idx
    }

    /// Indexes an already-parsed document.
    pub fn load_document(doc: Document) -> Self {
        Self::from_indexed(IndexedDocument::build(doc))
    }

    /// The underlying indexed document.
    pub fn index(&self) -> &IndexedDocument {
        &self.idx
    }

    /// Aggregate hit/miss statistics of the query-result cache.
    pub fn query_cache_stats(&self) -> CacheStats {
        self.query_cache.stats()
    }

    /// Runs one [`QueryRequest`].
    ///
    /// Complete twig responses are memoized in a thread-safe LRU keyed by
    /// the request's effective limit, the algorithm it resolves to and the
    /// normalized pattern text, so repeating a query (even spelled
    /// differently, e.g. with extra whitespace, or with [`Algorithm::Auto`]
    /// spelled out or pinned to what it resolves to) is a cache hit.
    /// Keyword searches are not cached. Profiling
    /// ([`QueryRequest::profile`]) never changes the matches — responses
    /// are identical with it on or off.
    ///
    /// This is [`Self::query_probe`] followed, on a miss, by
    /// [`Self::query_compute`] — one pipeline with a seam in it, for
    /// callers that run the two halves on different threads.
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResponse, LotusError> {
        match self.query_probe(request)? {
            QueryProbe::Hit(response) => Ok(response),
            QueryProbe::Miss(pending) => Ok(self.query_compute(request, pending)),
        }
    }

    /// The first half of [`Self::query`]: begins the request, parses a
    /// twig's text, derives the cache key and looks it up. Everything
    /// here is bounded by the size of the request and of the cached
    /// answer — never by the corpus — and nothing here can tick a
    /// [`QueryGuard`]. A hit is counted and answered on the spot; a miss
    /// hands back the parsed state for [`Self::query_compute`] (keyword
    /// searches are never cached, so they always miss).
    pub fn query_probe(&self, request: &QueryRequest) -> Result<QueryProbe, LotusError> {
        let started = Instant::now();
        let mut ctx = RequestCtx::begin(request);
        let limit = request.top_k.unwrap_or(DEFAULT_TOP_K);
        let mut twig = None;
        if request.kind == QueryKind::Twig {
            let pattern = match ctx.stage(Stage::Parse, |_| parse_query(&request.text)) {
                Ok(p) => p,
                Err(e) => {
                    if ctx.recording {
                        let counters = &lotusx_obs::metrics().counters;
                        counters.query_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(e.into());
                }
            };
            // Keyed on the algorithm that runs: an absent `algorithm`, a
            // spelled-out `auto` and the pin `auto` resolves to are one
            // entry.
            let algorithm = request
                .algorithm
                .unwrap_or(Algorithm::Auto)
                .resolve(&self.idx, &pattern);
            let key = format!("k{limit}|a{}|{pattern}", algorithm.name());
            // Cache hits are always complete answers (truncated ones are
            // never inserted), so they satisfy any budget as-is.
            if let Some(cached) = self.query_cache.get(&key) {
                ctx.note_cache_access(true);
                ctx.spent_ns = started.elapsed().as_nanos() as u64;
                let response = QueryResponse::clone(&cached);
                let response = ctx.end(request, Some(&pattern), response, true);
                return Ok(QueryProbe::Hit(response));
            }
            twig = Some((pattern, key, algorithm));
        }
        ctx.spent_ns = started.elapsed().as_nanos() as u64;
        Ok(QueryProbe::Miss(PendingQuery { ctx, limit, twig }))
    }

    /// The second half of [`Self::query`]: counts the miss, starts the
    /// request's budget clock and does everything that can tick a
    /// [`QueryGuard`] — execute, rewrite, rank, serialize, or the keyword
    /// search — then caches a complete twig response. `request` must be
    /// the one `pending` was probed from. Time between the two halves (a
    /// queue, another thread) is not charged to the query's `total` stage.
    pub fn query_compute(&self, request: &QueryRequest, pending: PendingQuery) -> QueryResponse {
        let started = Instant::now();
        let (mut ctx, limit) = (pending.ctx, pending.limit);
        let (pattern, plan) = pending.twig.map(|(p, key, algo)| (p, (key, algo))).unzip();
        ctx.guard = QueryGuard::new(&request.budget);
        if pattern.is_some() {
            ctx.note_cache_access(false);
        } else if ctx.recording {
            let counters = &lotusx_obs::metrics().counters;
            counters.keyword_queries.fetch_add(1, Ordering::Relaxed);
        }
        let response = if ctx.guard.checkpoint() {
            // Exhausted before any work ran (zero budget, pre-cancelled
            // token, or the deadline already passed): nothing but the
            // truncation marker.
            QueryResponse {
                matches: Arc::default(),
                total_matches: 0,
                rewrite: None,
                completeness: ctx.guard.completeness(),
                algorithm: None,
                profile: None,
            }
        } else if let (Some(pattern), Some((key, algorithm))) = (&pattern, plan) {
            let response = self.run_twig(&mut ctx, pattern, limit, algorithm);
            if response.completeness.is_complete() {
                self.query_cache.insert(key, response.clone());
            }
            response
        } else {
            self.run_keyword(&mut ctx, &request.text, limit)
        };
        ctx.spent_ns += started.elapsed().as_nanos() as u64;
        ctx.end(request, pattern.as_ref(), response, false)
    }

    /// Profiles one twig query: shorthand for a profiled [`Self::query`],
    /// returning just the [`QueryProfile`] the CLI renders as `explain`.
    pub fn explain(&self, query: &str) -> Result<QueryProfile, LotusError> {
        let request = QueryRequest::twig(query).profiled(true);
        let response = self.query(&request)?;
        Ok(*response
            .profile
            .expect("profiled requests always carry a profile"))
    }

    /// The keyword body. SLCA search runs to completion once started, so
    /// the budget gates only whether it starts at all: the caller answers
    /// an exhausted budget itself, anything else is a complete answer.
    fn run_keyword(&self, ctx: &mut RequestCtx, text: &str, limit: usize) -> QueryResponse {
        ctx.stage(Stage::Keyword, |guard| {
            let hits = lotusx_keyword::KeywordEngine::new(&self.idx).search(text);
            let doc = self.idx.document();
            let mut answer = Answer::with_capacity(hits.len().min(limit), 1, 1);
            for hit in hits.iter().take(limit) {
                let snippet = doc.serialize(hit.node);
                answer.push(hit.score, &[hit.node], [hit.node], &snippet);
            }
            QueryResponse {
                matches: answer.finish(),
                total_matches: hits.len(),
                rewrite: None,
                completeness: guard.completeness(),
                algorithm: None,
                profile: None,
            }
        })
    }

    /// The twig body: execute → (rewrite if empty) → rank → serialize,
    /// with `algorithm` (already resolved) for the query and its rewrite.
    fn run_twig(
        &self,
        ctx: &mut RequestCtx,
        pattern: &TwigPattern,
        limit: usize,
        algorithm: Algorithm,
    ) -> QueryResponse {
        // The match stage reduces and counts; rows exist only in the rank
        // stage, and only as many as the ranker asks for.
        let mut matches = ctx.stage(Stage::Match, |guard| {
            execute_budgeted(&self.idx, pattern, algorithm, guard)
        });
        let mut rewrite = None;
        // An empty complete answer is rewritten, under the same budget. A
        // tripped guard suppresses it: a truncated empty run says nothing
        // about whether the query is truly empty, and the budget is spent
        // anyway.
        if matches.is_empty() && !ctx.guard.is_tripped() {
            let (rewrites, stats) = ctx.stage(Stage::Rewrite, |guard| {
                Rewriter::new(&self.idx, RewriterConfig::default()).rewrite(pattern, guard)
            });
            if let Some(profile) = &mut ctx.profile {
                (profile.rewrite, profile.rewrites) = (Some(stats), rewrites.len());
            }
            // A search the guard cut short applies nothing — the
            // re-execution could not run anyway — and the response
            // reports the truncation.
            let tripped = ctx.guard.is_tripped();
            if let Some(best) = rewrites.into_iter().next().filter(|_| !tripped) {
                matches = ctx.stage(Stage::Match, |guard| {
                    execute_budgeted(&self.idx, &best.pattern, algorithm, guard)
                });
                rewrite = Some(RewriteInfo {
                    pattern: best.pattern,
                    cost: best.cost,
                    ops: best.ops,
                });
            }
        }
        let executed = rewrite.as_ref().map_or(pattern, |info| &info.pattern);
        let (ranked, stats) = ctx.stage(Stage::Rank, |_| {
            Ranker::new(&self.idx).rank_top_k(executed, &matches, limit)
        });
        if let Some(profile) = &mut ctx.profile {
            profile.rank = Some(stats);
        }
        let answer = ctx.stage(Stage::Serialize, |_| {
            let doc = self.idx.document();
            let outputs = executed.output_nodes();
            let mut answer = Answer::with_capacity(ranked.len(), executed.len(), outputs.len());
            for sm in &ranked {
                let output = outputs.iter().map(|q| sm.bindings[q.index()]);
                // The snippet shows the first output node (`output_nodes`
                // falls back to the root, so there always is one).
                let shown = sm.bindings[outputs[0].index()];
                let snippet = doc.serialize(shown);
                answer.push(sm.score, &sm.bindings, output, &snippet);
            }
            answer.finish()
        });
        QueryResponse {
            matches: answer,
            total_matches: matches.count(),
            rewrite,
            completeness: ctx.guard.completeness(),
            algorithm: Some(algorithm),
            profile: None,
        }
    }

    /// A position-aware completion engine over this document.
    pub fn completion_engine(&self) -> CompletionEngine<'_> {
        CompletionEngine::new(&self.idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotusx_guard::Completeness;
    use lotusx_xml::NodeId;

    const BIB: &str = "<bib>\
        <book><title>Data on the Web</title><author>Abiteboul</author><year>1999</year></book>\
        <book><title>XML Handbook</title><author>Goldfarb</author><year>2003</year></book>\
        <article><title>TwigStack</title><author>Bruno</author><year>2002</year></article>\
    </bib>";

    fn twig(text: &str) -> QueryRequest {
        QueryRequest::twig(text)
    }

    #[test]
    fn query_returns_ranked_results_with_snippets() {
        let system = LotusX::load_str(BIB).unwrap();
        let response = system.query(&twig("//book/title")).unwrap();
        assert_eq!(response.total_matches, 2);
        assert_eq!(response.matches.len(), 2);
        assert!(response.rewrite.is_none());
        assert!(response.profile.is_none(), "not requested");
        assert!(response
            .matches
            .first()
            .unwrap()
            .snippet
            .starts_with("<title>"));
        assert!(response.matches.first().unwrap().score >= response.matches.get(1).unwrap().score);
    }

    #[test]
    fn empty_query_triggers_auto_rewrite() {
        let system = LotusX::load_str(BIB).unwrap();
        // "writer" is a synonym of "author".
        let response = system.query(&twig("//book/writer")).unwrap();
        assert!(response.total_matches > 0);
        let info = response.rewrite.expect("rewrite applied");
        assert!(info.pattern.to_string().contains("author"));
        assert!(info.cost > 0.0);
        assert!(!info.ops.is_empty());
    }

    #[test]
    fn per_request_top_k_overrides_the_limit() {
        let system = LotusX::load_str(BIB).unwrap();
        let all = system.query(&twig("//author")).unwrap();
        assert_eq!(all.matches.len(), 3);
        let one = system.query(&twig("//author").top_k(1)).unwrap();
        assert_eq!(one.matches.len(), 1);
        assert_eq!(one.total_matches, 3);
        assert_eq!(
            one.matches.first().unwrap().bindings,
            all.matches.first().unwrap().bindings
        );
        // Different top_k values key the cache separately: asking for all
        // again is not poisoned by the k=1 entry.
        assert_eq!(system.query(&twig("//author")).unwrap().matches.len(), 3);
    }

    #[test]
    fn algorithms_are_switchable_per_request() {
        let system = LotusX::load_str(BIB).unwrap();
        let reference = system
            .query(&twig("//book[author]/title"))
            .unwrap()
            .total_matches;
        for algo in Algorithm::ALL {
            let response = system
                .query(&twig("//book[author]/title").algorithm(algo))
                .unwrap();
            assert_eq!(response.total_matches, reference, "{algo}");
        }
    }

    #[test]
    fn bad_inputs_surface_errors() {
        assert!(matches!(
            LotusX::load_str("<a><b></a>"),
            Err(LotusError::Xml(_))
        ));
        let system = LotusX::load_str(BIB).unwrap();
        let err = system.query(&twig("//book[")).unwrap_err();
        assert!(matches!(err, LotusError::Query(_)));
        let rendered = err.to_string();
        assert!(
            rendered.contains('^'),
            "caret snippet in context: {rendered}"
        );
        assert!(matches!(
            LotusX::load_file("/nonexistent/path.xml"),
            Err(LotusError::Io(_))
        ));
    }

    #[test]
    fn output_marker_projects_results() {
        let system = LotusX::load_str(BIB).unwrap();
        let response = system.query(&twig("//book[author!]/title")).unwrap();
        assert!(response
            .matches
            .first()
            .unwrap()
            .snippet
            .starts_with("<author>"));
    }

    #[test]
    fn responses_report_the_executed_algorithm() {
        let system = LotusX::load_str(BIB).unwrap();
        // Auto — absent or spelled out — resolves to a concrete algorithm.
        let auto = system.query(&twig("//book[title][author]")).unwrap();
        let resolved = auto.algorithm.expect("a join ran");
        assert_ne!(resolved, Algorithm::Auto, "always resolved");
        let spelled = system
            .query(&twig("//book/title").algorithm(Algorithm::Auto))
            .unwrap();
        assert!(spelled.algorithm.is_some());
        assert_ne!(spelled.algorithm, Some(Algorithm::Auto));
        // A pinned request reports the pin.
        let pinned = twig("//book[title][author]").algorithm(Algorithm::StructuralJoin);
        let response = system.query(&pinned).unwrap();
        assert_eq!(response.algorithm, Some(Algorithm::StructuralJoin));
        // Cache hits report the algorithm of the original execution.
        let hit = system.query(&pinned).unwrap();
        assert_eq!(hit.algorithm, Some(Algorithm::StructuralJoin));
        // Keyword searches never run a join.
        let keyword = system.query(&QueryRequest::keyword("handbook")).unwrap();
        assert!(keyword.algorithm.is_none());
    }

    /// An absent `algorithm` and a spelled-out `auto` both mean the
    /// chooser: one cache entry, not two.
    #[test]
    fn absent_and_spelled_out_auto_share_one_cache_entry() {
        let system = LotusX::load_str(BIB).unwrap();
        system.query(&twig("//book/title")).unwrap();
        let spelled = twig("//book/title").algorithm(Algorithm::Auto);
        system.query(&spelled).unwrap();
        let stats = system.query_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    /// The cache keys on the algorithm that runs, not the name asked for:
    /// `auto` and the structural join it resolves to are one entry.
    #[test]
    fn auto_and_structural_join_share_one_cache_entry() {
        let system = LotusX::load_str(BIB).unwrap();
        let auto = system.query(&twig("//book/title")).unwrap();
        let pinned = twig("//book/title").algorithm(Algorithm::StructuralJoin);
        let hit = system.query(&pinned).unwrap();
        let stats = system.query_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(hit.algorithm, auto.algorithm);
        // The oracle stays a plan of its own.
        system
            .query(&twig("//book/title").algorithm(Algorithm::Naive))
            .unwrap();
        assert_eq!(system.query_cache_stats().entries, 2);
    }

    #[test]
    fn snapshot_save_and_reopen() {
        let system = LotusX::load_str(BIB).unwrap();
        let dir = std::env::temp_dir().join("lotusx-engine-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bib.ltsx");
        system.save_snapshot(&path).unwrap();
        let reopened = LotusX::load_file(&path).unwrap();
        assert_eq!(
            reopened.query(&twig("//book/title")).unwrap().total_matches,
            system.query(&twig("//book/title")).unwrap().total_matches
        );
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            LotusX::open_snapshot("/nonexistent.ltsx"),
            Err(LotusError::Storage(_))
        ));
    }

    #[test]
    fn keyword_search_through_query() {
        let system = LotusX::load_str(BIB).unwrap();
        let response = system
            .query(&QueryRequest::keyword("twigstack bruno"))
            .unwrap();
        assert_eq!(response.matches.len(), 1);
        assert!(response
            .matches
            .first()
            .unwrap()
            .snippet
            .starts_with("<article>"));
        assert!(response.rewrite.is_none());
        let empty = system.query(&QueryRequest::keyword("")).unwrap();
        assert!(empty.matches.is_empty());
        // Per-request top_k applies; total is kept.
        let limited = system
            .query(&QueryRequest::keyword("title").top_k(1))
            .unwrap();
        assert!(limited.matches.len() <= 1);
        assert!(limited.total_matches >= limited.matches.len());
    }

    #[test]
    fn ordered_query_through_engine() {
        let system = LotusX::load_str(BIB).unwrap();
        let unordered = system.query(&twig("//book[title][year]")).unwrap();
        let ordered = system.query(&twig("ordered //book[title][year]")).unwrap();
        assert!(ordered.total_matches <= unordered.total_matches);
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LotusX>();
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let system = LotusX::load_str(BIB).unwrap();
        let first = system.query(&twig("//book/title")).unwrap();
        assert_eq!(system.query_cache_stats().hits, 0);
        // Same pattern, different spelling: still one normalized key.
        let second = system.query(&twig("  //book/title ")).unwrap();
        let stats = system.query_cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(second.total_matches, first.total_matches);
        assert_eq!(second.matches.len(), first.matches.len());
    }

    #[test]
    fn cache_hits_answer_exactly_like_the_miss_that_filled_them() {
        let system = LotusX::load_str(BIB).unwrap();
        // Multi-node bindings, a marked output node, a rewritten query and
        // an empty answer: everything the packed cache entry has to carry.
        for q in [
            "//book[title]/author!",
            "//book/writer",
            "//author",
            "//nosuch/alsonot",
        ] {
            let (miss, hit) = (
                system.query(&twig(q)).unwrap(),
                system.query(&twig(q)).unwrap(),
            );
            let rows = |r: &QueryResponse| -> Vec<(u64, Vec<NodeId>, Vec<NodeId>, String)> {
                r.matches
                    .iter()
                    .map(|m| {
                        (
                            m.score.to_bits(),
                            m.bindings.to_vec(),
                            m.output.to_vec(),
                            m.snippet.to_string(),
                        )
                    })
                    .collect()
            };
            assert_eq!(rows(&hit), rows(&miss), "{q}");
            assert_eq!(hit.total_matches, miss.total_matches, "{q}");
            assert_eq!(hit.algorithm, miss.algorithm, "{q}");
            assert_eq!(hit.completeness, miss.completeness, "{q}");
            let rewritten = |r: &QueryResponse| {
                r.rewrite
                    .as_ref()
                    .map(|i| (i.pattern.to_string(), i.ops.clone()))
            };
            assert_eq!(rewritten(&hit), rewritten(&miss), "{q}");
        }
        assert_eq!(system.query_cache_stats().hits, 4);
    }

    #[test]
    fn probe_and_compute_are_the_two_halves_of_query() {
        fn assert_send<T: Send>() {}
        assert_send::<PendingQuery>();
        let system = LotusX::load_str(BIB).unwrap();
        let request = twig("//book/title");
        // A miss probes without answering; the compute half may run on
        // another thread and fills the cache exactly once.
        let QueryProbe::Miss(pending) = system.query_probe(&request).unwrap() else {
            panic!("an empty cache cannot hit");
        };
        let computed =
            std::thread::scope(|s| s.spawn(|| system.query_compute(&request, pending)).join())
                .unwrap();
        let stats = system.query_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let QueryProbe::Hit(hit) = system.query_probe(&request).unwrap() else {
            panic!("the computed answer must be cached");
        };
        assert_eq!(hit.total_matches, computed.total_matches);
        assert_eq!(hit.matches.len(), computed.matches.len());
        let stats = system.query_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Keyword searches are never cached: the probe does no work.
        assert!(matches!(
            system.query_probe(&QueryRequest::keyword("web")).unwrap(),
            QueryProbe::Miss(_)
        ));
        // Parse errors surface from the probe.
        assert!(system.query_probe(&twig("//book[")).is_err());
    }

    #[test]
    fn profiles_report_cache_hits() {
        let system = LotusX::load_str(BIB).unwrap();
        let request = twig("//book/title").algorithm(Algorithm::StructuralJoin);
        let miss = system.query(&request.clone().profiled(true)).unwrap();
        let p = miss.profile.expect("requested");
        assert!(!p.cache_hit);
        assert_eq!(p.algorithm.as_deref(), Some("structural-join"));
        assert_eq!(p.candidates, 2);
        assert_eq!(p.results, 2);
        assert!(p.stage_ns(Stage::Match) > 0);
        assert!(p.stages_ns() <= p.total_ns);
        let hit = system.query(&request.profiled(true)).unwrap();
        let p = hit.profile.expect("requested");
        assert!(p.cache_hit);
        assert!(p.algorithm.is_none(), "cache hits never reach the join");
        assert!(p.render().contains("cache: hit"));
    }

    /// 10 000 rows that all tie: the match stage counts them without
    /// building one, the rank stage stops the enumerator at the tenth, and
    /// the answer is complete — the first ten in document order, exactly
    /// what ranking all of them returns — and cached like any other.
    #[test]
    fn an_early_stopped_ranking_is_complete_exact_and_cacheable() {
        let xml = format!("<r>{}</r>", "<item><a/><b/></item>".repeat(10_000));
        let system = LotusX::load_str(&xml).unwrap();
        let request = twig("//item[a]/b")
            .algorithm(Algorithm::StructuralJoin)
            .top_k(10);
        let stopped = system.query(&request.clone().profiled(true)).unwrap();
        assert_eq!(stopped.completeness, Completeness::Complete);
        assert_eq!(stopped.total_matches, 10_000);
        let profile = stopped.profile.as_ref().expect("requested");
        assert_eq!(profile.candidates, 10_000);
        assert_eq!(profile.rank.expect("ranked").offered, 10);
        assert_eq!(profile.results, 10);

        let all = system.query(&request.clone().top_k(10_000)).unwrap();
        assert_eq!(all.matches.len(), 10_000);
        for (a, b) in stopped.matches.iter().zip(all.matches.iter()) {
            assert_eq!(a.bindings, b.bindings);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        let before = system.query_cache_stats().hits;
        let hit = system.query(&request).unwrap();
        assert_eq!(system.query_cache_stats().hits, before + 1);
        assert_eq!(hit.total_matches, 10_000);
        assert_eq!(hit.matches.len(), 10);
    }

    #[test]
    fn profiling_does_not_change_results() {
        let system = LotusX::load_str(BIB).unwrap();
        for q in ["//book/title", "//book[author]/title", "//book/writer"] {
            let plain = system.query(&twig(q)).unwrap();
            let fresh = LotusX::load_str(BIB).unwrap();
            let profiled = fresh.query(&twig(q).profiled(true)).unwrap();
            assert_eq!(plain.total_matches, profiled.total_matches, "{q}");
            assert_eq!(plain.matches.len(), profiled.matches.len(), "{q}");
            for (a, b) in plain.matches.iter().zip(profiled.matches.iter()) {
                assert_eq!(a.bindings, b.bindings, "{q}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "{q}");
                assert_eq!(a.snippet, b.snippet, "{q}");
            }
        }
    }

    #[test]
    fn explain_renders_a_stage_tree() {
        let system = LotusX::load_str(BIB).unwrap();
        let profile = system.explain("//book[author]/title").unwrap();
        let text = profile.render();
        assert!(text.contains("query: //book[author]/title"));
        assert!(text.contains("parse"));
        assert!(text.contains("match"));
        assert!(text.contains("rank"));
        assert!(text.contains("serialize"));
        assert!(text.contains("total:"));
        // Rewritten queries say so.
        assert!(text.contains("bound="), "the rank walk is named: {text}");
        // Rewritten queries say so, with the search that found the
        // rewrite.
        let rewritten = system.explain("//book/writer").unwrap();
        assert!(rewritten.rewritten.is_some());
        assert!(rewritten.stage_ns(Stage::Rewrite) > 0);
        let search = rewritten.rewrite.expect("a rewrite search ran");
        assert!(search.executions >= 1);
        assert!(rewritten.rewrites >= 1);
        let text = rewritten.render();
        assert!(text.contains("rewritten to:"));
        assert!(
            text.contains(&format!("executions={}", search.executions)),
            "{text}"
        );
        // Two joins ran: the empty original and its rewrite.
        let matches = rewritten.stages.iter().filter(|(s, _)| *s == Stage::Match);
        assert_eq!(matches.count(), 2);
    }

    /// Time between the probe and the compute — a queue, another thread
    /// — is not the engine's: a profile's total is the `total` stage's
    /// engine time, and its stages fit inside it.
    #[test]
    fn a_profile_leaves_out_the_wait_between_probe_and_compute() {
        let system = LotusX::load_str(BIB).unwrap();
        let request = twig("//book/title").profiled(true);
        let QueryProbe::Miss(pending) = system.query_probe(&request).unwrap() else {
            panic!("an empty cache cannot hit");
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        let profile = system.query_compute(&request, pending).profile.unwrap();
        assert!(profile.total_ns < 50_000_000, "{}", profile.render());
        assert!(profile.stages_ns() <= profile.total_ns);
        let ran: Vec<Stage> = profile.stages.iter().map(|&(s, _)| s).collect();
        let expected = [Stage::Parse, Stage::Match, Stage::Rank, Stage::Serialize];
        assert_eq!(ran, expected);
    }

    /// The two shapes the serving benchmark gates on, through the engine:
    /// more keys than the LRU holds, cycled, never hit; a handful of keys,
    /// repeated, always hit after the first pass — and the counters after
    /// every request are the same in every freshly built engine.
    #[test]
    fn cache_hits_and_misses_are_a_function_of_the_request_sequence() {
        const TWIGS: [&str; 7] = [
            "//book",
            "//book/title",
            "//book/author",
            "//book[year >= 2000]",
            "//title",
            "//author",
            "//year",
        ];
        let cold: Vec<QueryRequest> = (1..=64)
            .flat_map(|k| TWIGS.iter().map(move |q| twig(q).top_k(k)))
            .collect();
        assert_eq!(cold.len(), 448);
        let replay = |requests: &[QueryRequest], passes: usize| -> Vec<(u64, u64)> {
            let system = LotusX::load_str(BIB).unwrap();
            let mut counters = Vec::new();
            for request in std::iter::repeat_n(requests, passes).flatten() {
                system.query(request).unwrap();
                let stats = system.query_cache_stats();
                counters.push((stats.hits, stats.misses));
            }
            assert_eq!(system.query_cache_stats().capacity, QUERY_CACHE_CAPACITY);
            counters
        };
        let cycled = replay(&cold, 2);
        assert_eq!(cycled.last(), Some(&(0, 896)));
        assert_eq!(cycled, replay(&cold, 2));
        let repeated = replay(&cold[..6], 3);
        assert_eq!(repeated[5], (0, 6), "first pass fills");
        assert_eq!(repeated.last(), Some(&(12, 6)), "then every lookup hits");
        assert_eq!(repeated, replay(&cold[..6], 3));
    }

    #[test]
    fn unbudgeted_queries_are_complete() {
        let system = LotusX::load_str(BIB).unwrap();
        let response = system.query(&twig("//book/title")).unwrap();
        assert!(response.completeness.is_complete());
        let keyword = system.query(&QueryRequest::keyword("twigstack")).unwrap();
        assert!(keyword.completeness.is_complete());
    }

    #[test]
    fn zero_budget_truncates_immediately() {
        use lotusx_guard::Budget;
        let system = LotusX::load_str(BIB).unwrap();
        let budget = Budget::default().with_node_quota(0);
        let response = system.query(&twig("//book/title").budget(budget)).unwrap();
        assert!(!response.completeness.is_complete());
        assert!(response.matches.is_empty());
        assert_eq!(response.total_matches, 0);
        // A zero deadline behaves the same, on both query kinds.
        let response = system.query(&twig("//author").deadline_ms(0)).unwrap();
        assert_eq!(
            response.completeness.truncation_reason(),
            Some(TruncationReason::DeadlineExceeded)
        );
        let keyword = system
            .query(&QueryRequest::keyword("twigstack").deadline_ms(0))
            .unwrap();
        assert!(!keyword.completeness.is_complete());
        assert!(keyword.matches.is_empty());
    }

    #[test]
    fn cancelled_token_truncates() {
        use lotusx_guard::{Budget, CancelToken};
        let system = LotusX::load_str(BIB).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::default().with_cancel(token);
        let response = system.query(&twig("//author").budget(budget)).unwrap();
        assert_eq!(
            response.completeness.truncation_reason(),
            Some(TruncationReason::Cancelled)
        );
    }

    #[test]
    fn generous_budget_matches_unbudgeted_run() {
        use lotusx_guard::Budget;
        let system = LotusX::load_str(BIB).unwrap();
        let plain = system.query(&twig("//book[author]/title")).unwrap();
        let fresh = LotusX::load_str(BIB).unwrap();
        let budget = Budget::default()
            .with_deadline(std::time::Duration::from_secs(60))
            .with_node_quota(1_000_000);
        let budgeted = fresh
            .query(&twig("//book[author]/title").budget(budget))
            .unwrap();
        assert!(budgeted.completeness.is_complete());
        assert_eq!(budgeted.total_matches, plain.total_matches);
        for (a, b) in plain.matches.iter().zip(budgeted.matches.iter()) {
            assert_eq!(a.bindings, b.bindings);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn truncated_outcomes_are_not_cached() {
        use lotusx_guard::Budget;
        let system = LotusX::load_str(BIB).unwrap();
        let starved = Budget::default().with_node_quota(0);
        let first = system.query(&twig("//book/title").budget(starved)).unwrap();
        assert!(!first.completeness.is_complete());
        // The full-budget rerun must not be served the truncated outcome.
        let second = system.query(&twig("//book/title")).unwrap();
        assert!(second.completeness.is_complete());
        assert_eq!(second.total_matches, 2);
        let stats = system.query_cache_stats();
        assert_eq!(stats.hits, 0, "nothing to hit: truncation never cached");
        // And a cached complete answer satisfies a starved rerun.
        let starved = Budget::default().with_node_quota(0);
        let third = system.query(&twig("//book/title").budget(starved)).unwrap();
        assert!(third.completeness.is_complete(), "served from cache");
        assert_eq!(third.total_matches, 2);
    }

    /// A starved budget — spent before any work or inside the join —
    /// reaches the profile as the response's own truncation reason.
    #[test]
    fn truncated_profile_reports_the_reason() {
        use lotusx_guard::Budget;
        let system = LotusX::load_str(BIB).unwrap();
        for quota in [0, 2] {
            let budget = Budget::default().with_node_quota(quota);
            let response = system
                .query(&twig("//book/title").budget(budget).profiled(true))
                .unwrap();
            let reason = response.completeness.truncation_reason();
            assert_eq!(reason, Some(TruncationReason::NodeQuotaExceeded));
            let profile = response.profile.expect("requested");
            assert_eq!(profile.truncated, reason, "quota {quota}");
            assert!(
                profile.render().contains("truncated: node_quota_exceeded"),
                "{}",
                profile.render()
            );
        }
    }
}
