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
use crate::request::{
    Answer, LotusError, PendingQuery, QueryKind, QueryProbe, QueryRequest, QueryResponse,
    RewriteInfo,
};
use lotusx_autocomplete::{CompletionEngine, ValueTrieCache};
use lotusx_guard::{QueryGuard, TruncationReason};
use lotusx_index::IndexedDocument;
use lotusx_obs::{EventKind, QueryId, QueryProfile, Span, Stage};
use lotusx_rank::Ranker;
use lotusx_rewrite::{Rewriter, RewriterConfig};
use lotusx_twig::exec::{execute_budgeted, Algorithm};
use lotusx_twig::pattern::TwigPattern;
use lotusx_twig::xpath::parse_query;
use lotusx_xml::{Document, SerializeOptions};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Number of hottest tags whose value-completion tries are prebuilt at
/// load time.
const HOT_TAG_TRIES: usize = 8;

/// Capacity of the query-result LRU cache.
const QUERY_CACHE_CAPACITY: usize = 128;

/// How many ranked results a request without a `top_k` gets.
const DEFAULT_TOP_K: usize = 100;

/// What one request carries from its begin to its end, so no stage
/// threads it by hand: the trace identity, whether metrics record, the
/// profile root and the budget guard.
pub(crate) struct RequestCtx {
    qid: QueryId,
    recording: bool,
    /// The profile root when this request is profiled.
    root: Option<Span>,
    /// Unlimited until [`LotusX::query_compute`] starts the request's
    /// budget clock: nothing before it can tick a guard.
    guard: QueryGuard,
    /// Engine time spent on this request so far (the `total` stage).
    spent_ns: u64,
}

impl RequestCtx {
    /// The one begin of every request, twig or keyword: a trace identity,
    /// the `QueryBegin` event, the profile root.
    fn begin(request: &QueryRequest) -> Self {
        let qid = if lotusx_obs::tracing() {
            lotusx_obs::next_query_id()
        } else {
            QueryId::NONE
        };
        lotusx_obs::emit(qid, EventKind::QueryBegin);
        RequestCtx {
            qid,
            recording: lotusx_obs::enabled(),
            root: request.profile.then(|| Span::new("query")),
            guard: QueryGuard::unlimited(),
            spent_ns: 0,
        }
    }

    /// Runs one pipeline stage: `f` gets a child span when the request is
    /// profiled, the stage's wall time lands in the global histogram when
    /// recording is on, and stage begin/end events tagged with the
    /// request's id go to the trace ring when tracing is on. With all
    /// three off this is the bare call.
    fn stage<T>(&self, stage: Stage, f: impl FnOnce(Option<&Span>) -> T) -> T {
        let name = stage.name();
        lotusx_obs::emit(self.qid, EventKind::StageBegin { stage: name });
        let started = self.recording.then(Instant::now);
        let child = self.root.as_ref().map(|root| root.child(name));
        let out = f(child.as_deref());
        drop(child);
        if let Some(t0) = started {
            lotusx_obs::metrics().record_stage(stage, t0.elapsed().as_nanos() as u64);
        }
        lotusx_obs::emit(self.qid, EventKind::StageEnd { stage: name });
        out
    }

    /// Counts one cache lookup and emits its trace event — the hit from
    /// the probe, the miss from the compute, so each twig request moves
    /// the counters exactly once wherever its halves ran.
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
        lotusx_obs::emit(self.qid, EventKind::CacheAccess { hit });
    }

    /// The one end of every successfully parsed request: the `queries`
    /// counter and `total` stage, degradation metrics for a truncated
    /// answer, the profile, the `QueryEnd` event, the response.
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
        response.profile = self.root.map(|root| {
            root.annotate("cache", if hit { "hit" } else { "miss" });
            if let Some(reason) = truncation {
                root.annotate("truncated", reason.name());
            }
            QueryProfile {
                query: request.text.clone(),
                executed: pattern.map_or_else(|| request.text.clone(), |p| p.to_string()),
                // A cache hit never reaches the join.
                algorithm: response
                    .algorithm
                    .filter(|_| !hit)
                    .map(|a| a.name().to_string()),
                cache_hit: hit,
                candidates: response.total_matches,
                results: response.matches.len(),
                rewritten: response.rewrite.as_ref().map(|i| i.pattern.to_string()),
                span: root.finish(),
            }
        });
        lotusx_obs::emit(
            self.qid,
            EventKind::QueryEnd {
                cache_hit: hit,
                truncated: truncation.is_some(),
                results: response.matches.len() as u32,
            },
        );
        response
    }
}

/// The LotusX system over one loaded document.
///
/// `LotusX` is `Send + Sync`: searches and completions take `&self` and
/// may run concurrently from many threads. The two internal caches (query
/// results, per-tag value tries) are thread-safe and shared across all
/// callers.
pub struct LotusX {
    idx: IndexedDocument,
    /// Per-tag value-completion tries, shared with every engine handed
    /// out by [`Self::completion_engine`].
    value_cache: Arc<ValueTrieCache>,
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

    /// Saves the **entire index set** — document tree, labels, tag/value
    /// indexes, completion tries, DataGuide and statistics tables — as a
    /// sectioned, checksummed binary snapshot that [`Self::open_snapshot`]
    /// reopens with bulk reads instead of a rebuild. The write is atomic:
    /// the snapshot is staged in a temp file beside the target, fsynced
    /// and renamed into place, so a crash never leaves a torn file.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<(), LotusError> {
        let mut sections = lotusx_index::snapshot::encode_sections(&self.idx);
        // The warm value-trie cache rides along so a reopened snapshot
        // starts with the same hot completion set instead of rebuilding it.
        sections.push(lotusx_storage::Section {
            id: lotusx_storage::snapshot::section::VALUE_TRIES,
            bytes: self.value_cache.encode(),
        });
        lotusx_storage::write_snapshot_file(path, &sections)?;
        Ok(())
    }

    /// Opens a binary snapshot written by [`Self::save_snapshot`]: every
    /// index structure deserializes directly into place (no re-parsing,
    /// re-labeling or stats re-walks). A file of any other format version
    /// is a typed [`LotusError::Storage`], never parsed.
    pub fn open_snapshot(path: impl AsRef<std::path::Path>) -> Result<Self, LotusError> {
        // Every checksum is verified here, before anything decodes.
        let sections = lotusx_storage::read_snapshot_file(path)?;
        // The shipped value-trie cache (duplicates are corruption) is set
        // aside; the index decoder takes the rest and frees each payload
        // once its section is decoded.
        let (mut vtries, sections): (Vec<_>, Vec<_>) = sections
            .into_iter()
            .partition(|s| s.id == lotusx_storage::snapshot::section::VALUE_TRIES);
        if vtries.len() > 1 {
            return Err(LotusError::Storage(lotusx_storage::StorageError::Corrupt(
                "duplicate snapshot section",
            )));
        }
        let idx = lotusx_index::snapshot::decode_sections(sections)?;
        // Snapshots without a value-trie cache rebuild the hot set.
        match vtries.pop() {
            Some(s) => {
                let cache = ValueTrieCache::decode(&s.bytes, idx.document().symbols().len())?;
                Ok(Self::assemble(idx, cache))
            }
            None => Ok(Self::from_indexed(idx)),
        }
    }

    /// Wraps an already-indexed document in a fresh engine (new caches),
    /// pre-building the value tries of the hottest tags exactly as
    /// [`Self::load_document`] does.
    pub fn from_indexed(idx: IndexedDocument) -> Self {
        let value_cache = ValueTrieCache::new(idx.document().symbols().len());
        value_cache.precompute_hottest(&idx, HOT_TAG_TRIES);
        Self::assemble(idx, value_cache)
    }

    /// Pairs an index with an already-warm value-trie cache (the snapshot
    /// fast path: no trie rebuilds at all).
    fn assemble(idx: IndexedDocument, value_cache: ValueTrieCache) -> Self {
        LotusX {
            idx,
            value_cache: Arc::new(value_cache),
            query_cache: ConcurrentLru::new(QUERY_CACHE_CAPACITY),
        }
    }

    /// Consumes the engine, returning the indexed document.
    pub fn into_index(self) -> IndexedDocument {
        self.idx
    }

    /// Indexes an already-parsed document and pre-builds the value tries
    /// of the hottest tags.
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

    /// Number of per-tag value-completion tries currently cached.
    pub fn value_trie_cache_len(&self) -> usize {
        self.value_cache.len()
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
                    lotusx_obs::emit(
                        ctx.qid,
                        EventKind::QueryEnd {
                            cache_hit: false,
                            truncated: false,
                            results: 0,
                        },
                    );
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
        ctx.guard.set_trace_id(ctx.qid.0);
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
            let response = self.run_twig(&ctx, pattern, limit, algorithm);
            if response.completeness.is_complete() {
                self.query_cache.insert(key, response.clone());
            }
            response
        } else {
            self.run_keyword(&ctx, &request.text, limit)
        };
        ctx.spent_ns += started.elapsed().as_nanos() as u64;
        ctx.end(request, pattern.as_ref(), response, false)
    }

    /// Profiles one twig query: shorthand for a profiled [`Self::query`],
    /// returning just the [`QueryProfile`] the CLI renders as `explain`.
    pub fn explain(&self, query: &str) -> Result<QueryProfile, LotusError> {
        let request = QueryRequest::twig(query).profiled(true);
        let response = self.query(&request)?;
        Ok(response
            .profile
            .expect("profiled requests always carry a profile"))
    }

    /// The keyword body. SLCA search runs to completion once started, so
    /// the budget gates only whether it starts at all: the caller answers
    /// an exhausted budget itself, anything else is a complete answer.
    fn run_keyword(&self, ctx: &RequestCtx, text: &str, limit: usize) -> QueryResponse {
        ctx.stage(Stage::Keyword, |span| {
            let hits = lotusx_keyword::KeywordEngine::new(&self.idx).search(text);
            if let Some(s) = span {
                s.annotate("hits", hits.len());
            }
            let doc = self.idx.document();
            let mut answer = Answer::with_capacity(hits.len().min(limit), 1, 1);
            for hit in hits.iter().take(limit) {
                let snippet = doc.serialize(hit.node, SerializeOptions::default());
                answer.push(hit.score, &[hit.node], [hit.node], &snippet);
            }
            QueryResponse {
                matches: answer.finish(),
                total_matches: hits.len(),
                rewrite: None,
                completeness: ctx.guard.completeness(),
                algorithm: None,
                profile: None,
            }
        })
    }

    /// The twig body: execute → (rewrite if empty) → rank → serialize,
    /// with `algorithm` (already resolved) for the query and its rewrite.
    fn run_twig(
        &self,
        ctx: &RequestCtx,
        pattern: &TwigPattern,
        limit: usize,
        algorithm: Algorithm,
    ) -> QueryResponse {
        let guard = &ctx.guard;
        // The match stage reduces and counts; rows exist only in the rank
        // stage, and only as many as the ranker asks for.
        let mut matches = ctx.stage(Stage::Match, |s| {
            execute_budgeted(&self.idx, pattern, algorithm, s, guard)
        });
        let mut rewrite = None;
        // An empty complete answer is rewritten, under the same budget. A
        // tripped guard suppresses it: a truncated empty run says nothing
        // about whether the query is truly empty, and the budget is spent
        // anyway.
        if matches.is_empty() && !guard.is_tripped() {
            let (rewrites, _) = ctx.stage(Stage::Rewrite, |s| {
                Rewriter::new(&self.idx, RewriterConfig::default()).rewrite(pattern, s, guard)
            });
            // A search the guard cut short applies nothing — the
            // re-execution could not run anyway — and the response
            // reports the truncation.
            let best = rewrites.into_iter().next().filter(|_| !guard.is_tripped());
            lotusx_obs::emit(
                ctx.qid,
                EventKind::Rewrite {
                    accepted: best.is_some(),
                },
            );
            if let Some(best) = best {
                matches = ctx.stage(Stage::Match, |s| {
                    execute_budgeted(&self.idx, &best.pattern, algorithm, s, guard)
                });
                rewrite = Some(RewriteInfo {
                    pattern: best.pattern,
                    cost: best.cost,
                    ops: best.ops,
                });
            }
        }
        let executed = rewrite.as_ref().map_or(pattern, |info| &info.pattern);
        let ranked = ctx.stage(Stage::Rank, |s| {
            Ranker::new(&self.idx).rank_top_k(executed, &matches, limit, s)
        });
        let answer = ctx.stage(Stage::Serialize, |s| {
            if let Some(s) = s {
                s.annotate("snippets", ranked.len());
            }
            let doc = self.idx.document();
            let outputs = executed.output_nodes();
            let mut answer = Answer::with_capacity(ranked.len(), executed.len(), outputs.len());
            for sm in &ranked {
                let output = outputs.iter().map(|q| sm.bindings[q.index()]);
                // The snippet shows the first output node (`output_nodes`
                // falls back to the root, so there always is one).
                let shown = sm.bindings[outputs[0].index()];
                let snippet = doc.serialize(shown, SerializeOptions::default());
                answer.push(sm.score, &sm.bindings, output, &snippet);
            }
            answer.finish()
        });
        QueryResponse {
            matches: answer,
            total_matches: matches.count(),
            rewrite,
            completeness: guard.completeness(),
            algorithm: Some(algorithm),
            profile: None,
        }
    }

    /// A position-aware completion engine over this document. All engines
    /// share one value-trie cache, so a trie built while serving one
    /// completion request is reused by every later engine.
    pub fn completion_engine(&self) -> CompletionEngine<'_> {
        CompletionEngine::with_cache(&self.idx, Arc::clone(&self.value_cache))
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
        assert!(p.stage_ns("match") > 0);
        assert!(p.stages_ns() <= p.total_ns());
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
        let stage = |name: &str| profile.span.child(name).expect("stage ran");
        let join = stage("match").child("join/structural-join").unwrap();
        assert_eq!(join.note("matches"), Some("10000"));
        let select = stage("rank").child("score-select").unwrap();
        assert_eq!(select.note("candidates"), Some("10"));
        assert_eq!(select.note("k"), Some("10"));

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
        let rewritten = system.explain("//book/writer").unwrap();
        assert!(rewritten.rewritten.is_some());
        assert!(rewritten.render().contains("rewritten to:"));
        assert!(rewritten.stage_ns("rewrite") > 0);
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
    fn value_trie_cache_is_precomputed_and_shared() {
        let system = LotusX::load_str(BIB).unwrap();
        // BIB has 5 distinct tags; all fit under the hot-tag budget.
        assert!(system.value_trie_cache_len() > 0);
        let before = system.value_trie_cache_len();
        let engine = system.completion_engine();
        let hits = engine.complete_value("title", "xm", 10);
        assert!(hits.iter().any(|c| c.term.starts_with("xm")));
        assert_eq!(
            system.value_trie_cache_len(),
            before,
            "served from shared cache"
        );
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

    #[test]
    fn truncated_profile_reports_the_reason() {
        use lotusx_guard::Budget;
        let system = LotusX::load_str(BIB).unwrap();
        let budget = Budget::default().with_node_quota(0);
        let response = system
            .query(&twig("//book/title").budget(budget).profiled(true))
            .unwrap();
        let profile = response.profile.expect("requested");
        assert!(
            profile.render().contains("truncated=node_quota_exceeded"),
            "{}",
            profile.render()
        );
    }
}
