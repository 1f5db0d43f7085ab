//! The LotusX engine: load, search, rank, rewrite.
//!
//! The engine is driven through one typed request/response pair:
//! [`QueryRequest`] (twig or keyword text plus per-request overrides, an
//! optional execution [`Budget`], and an opt-in profiling flag) and
//! [`QueryResponse`] (ranked matches, a [`Completeness`] marker, plus an
//! optional [`QueryProfile`] with the stage-timing tree). Configuration
//! travels as a validated [`EngineConfig`] value applied atomically with
//! [`LotusX::reconfigure`].
//!
//! Budgeted queries degrade gracefully: when a deadline or quota trips
//! mid-query the engine stops at the next cooperative checkpoint and
//! returns the best results found so far, marked
//! [`Completeness::Truncated`] — never an error, and never silently
//! passed off as a complete answer. Truncated outcomes are not cached.

use crate::lru::{CacheStats, ConcurrentLru};
use lotusx_autocomplete::{CompletionEngine, ValueTrieCache};
use lotusx_guard::{Budget, Completeness, QueryGuard, TruncationReason};
use lotusx_index::IndexedDocument;
use lotusx_obs::{EventKind, QueryId, QueryProfile, Span, Stage};
use lotusx_rank::{RankWeights, Ranker};
use lotusx_rewrite::{RewriteSetup, Rewriter, RewriterConfig};
use lotusx_twig::exec::{execute_budgeted, Algorithm, JoinResult};
use lotusx_twig::pattern::TwigPattern;
use lotusx_twig::xpath::{parse_query, ParseError};
use lotusx_xml::{Document, NodeId, SerializeOptions};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Errors surfaced by the engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum LotusError {
    /// The XML input failed to parse.
    Xml(lotusx_xml::Error),
    /// The query text failed to parse (the message carries the byte
    /// offset and a caret snippet of the offending input).
    Query(ParseError),
    /// The file could not be read.
    Io(std::io::Error),
    /// A binary snapshot could not be read or written. Carries the
    /// structured [`lotusx_storage::StorageError`] so callers can
    /// distinguish corruption from version skew from I/O failure.
    Storage(lotusx_storage::StorageError),
    /// An [`EngineConfig`] failed validation.
    Config(String),
}

impl fmt::Display for LotusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LotusError::Xml(e) => write!(f, "XML error: {e}"),
            LotusError::Query(e) => write!(f, "query error: {e}"),
            LotusError::Io(e) => write!(f, "I/O error: {e}"),
            LotusError::Storage(e) => write!(f, "snapshot error: {e}"),
            LotusError::Config(e) => write!(f, "configuration error: {e}"),
        }
    }
}

impl std::error::Error for LotusError {}

impl From<lotusx_xml::Error> for LotusError {
    fn from(e: lotusx_xml::Error) -> Self {
        LotusError::Xml(e)
    }
}
impl From<ParseError> for LotusError {
    fn from(e: ParseError) -> Self {
        LotusError::Query(e)
    }
}
impl From<std::io::Error> for LotusError {
    fn from(e: std::io::Error) -> Self {
        LotusError::Io(e)
    }
}
impl From<lotusx_storage::StorageError> for LotusError {
    fn from(e: lotusx_storage::StorageError) -> Self {
        LotusError::Storage(e)
    }
}

/// The engine's full configuration as one validated value.
///
/// Build one with the fluent setters and apply it atomically with
/// [`LotusX::reconfigure`]; read the active one back with
/// [`LotusX::config`]:
///
/// ```
/// use lotusx::{engine::EngineConfig, Algorithm, LotusX};
///
/// let mut system = LotusX::load_str("<a><b/></a>").unwrap();
/// let config = system
///     .config()
///     .clone()
///     .algorithm(Algorithm::StructuralJoin)
///     .result_limit(10);
/// system.reconfigure(config).unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct EngineConfig {
    algorithm: Algorithm,
    weights: RankWeights,
    rewriter: RewriterConfig,
    auto_rewrite: bool,
    result_limit: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            algorithm: Algorithm::Auto,
            weights: RankWeights::default(),
            rewriter: RewriterConfig::default(),
            auto_rewrite: true,
            result_limit: 100,
        }
    }
}

impl EngineConfig {
    /// The default configuration (per-query algorithm selection,
    /// auto-rewrite on, 100 results).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the join algorithm: a concrete one pins it, the default
    /// [`Algorithm::Auto`] lets the cost model pick per query (see
    /// `lotusx_twig::choose_algorithm`).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the ranking weights.
    pub fn rank_weights(mut self, weights: RankWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Sets the empty-result rewriter's search budget.
    pub fn rewriter(mut self, config: RewriterConfig) -> Self {
        self.rewriter = config;
        self
    }

    /// Enables/disables automatic rewriting of empty-result queries.
    pub fn auto_rewrite(mut self, on: bool) -> Self {
        self.auto_rewrite = on;
        self
    }

    /// Sets how many ranked results a search returns.
    pub fn result_limit(mut self, limit: usize) -> Self {
        self.result_limit = limit;
        self
    }

    /// The ranking weights.
    pub fn weights(&self) -> RankWeights {
        self.weights
    }

    /// The rewriter budget.
    pub fn rewriter_config(&self) -> RewriterConfig {
        self.rewriter
    }

    /// Whether empty-result queries are rewritten automatically.
    pub fn auto_rewrite_enabled(&self) -> bool {
        self.auto_rewrite
    }

    /// The ranked-result limit.
    pub fn result_limit_value(&self) -> usize {
        self.result_limit
    }

    /// Checks the configuration for nonsensical values.
    pub fn validate(&self) -> Result<(), LotusError> {
        for (name, w) in [
            ("structure", self.weights.structure),
            ("content", self.weights.content),
            ("specificity", self.weights.specificity),
        ] {
            if !w.is_finite() || w < 0.0 {
                return Err(LotusError::Config(format!(
                    "rank weight `{name}` must be finite and non-negative, got {w}"
                )));
            }
        }
        if !self.rewriter.max_cost.is_finite() || self.rewriter.max_cost < 0.0 {
            return Err(LotusError::Config(format!(
                "rewriter max_cost must be finite and non-negative, got {}",
                self.rewriter.max_cost
            )));
        }
        Ok(())
    }

    /// Whether `self` and `other` can produce different query outcomes.
    fn affects_results_differently(&self, other: &EngineConfig) -> bool {
        let w = |x: RankWeights| {
            (
                x.structure.to_bits(),
                x.content.to_bits(),
                x.specificity.to_bits(),
            )
        };
        let r = |x: RewriterConfig| {
            (
                x.max_rewrites,
                x.max_expansions,
                x.max_cost.to_bits(),
                x.spell_distance,
                x.guide_pruning,
            )
        };
        self.algorithm != other.algorithm
            || w(self.weights) != w(other.weights)
            || r(self.rewriter) != r(other.rewriter)
            || self.auto_rewrite != other.auto_rewrite
            || self.result_limit != other.result_limit
    }
}

/// What a [`QueryRequest`] asks the engine to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// A twig (XPath-like) pattern, parsed from the request text.
    Twig,
    /// Free-text keyword (SLCA) search.
    Keyword,
}

/// One query as the engine runs it: the text, what kind of search it is,
/// per-request overrides, and whether to profile the execution.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// The query text (twig syntax or whitespace-separated keywords).
    pub text: String,
    /// Twig pattern or keyword search.
    pub kind: QueryKind,
    /// Per-request result limit (`None` = the engine's configured limit).
    pub top_k: Option<usize>,
    /// Per-request join algorithm (`None` = the engine's configuration;
    /// ignored by keyword searches).
    pub algorithm: Option<Algorithm>,
    /// Execution budget: wall-clock deadline, work quotas and/or a
    /// cancellation token. The default is unlimited. When a limit trips
    /// the response carries the best results found so far and is marked
    /// [`Completeness::Truncated`].
    pub budget: Budget,
    /// Ask for a [`QueryProfile`] in the response. Profiling never
    /// changes the computed matches.
    pub profile: bool,
}

impl QueryRequest {
    /// A twig query over `text` with engine-default settings.
    pub fn twig(text: impl Into<String>) -> Self {
        QueryRequest {
            text: text.into(),
            kind: QueryKind::Twig,
            top_k: None,
            algorithm: None,
            budget: Budget::unlimited(),
            profile: false,
        }
    }

    /// A keyword (SLCA) query over `text`.
    pub fn keyword(text: impl Into<String>) -> Self {
        QueryRequest {
            kind: QueryKind::Keyword,
            ..Self::twig(text)
        }
    }

    /// Limits this request to the best `k` results.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Pins the join algorithm for this request only.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Caps this request's execution with `budget`.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Shorthand: caps this request at a wall-clock deadline of `ms`
    /// milliseconds.
    pub fn deadline_ms(self, ms: u64) -> Self {
        let budget = self
            .budget
            .clone()
            .with_deadline(std::time::Duration::from_millis(ms));
        self.budget(budget)
    }

    /// Asks for (or suppresses) a per-query profile.
    pub fn profiled(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }
}

/// The engine's answer to one [`QueryRequest`].
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Ranked results (best first), truncated to the effective limit.
    pub matches: Vec<SearchResult>,
    /// Total number of matches before truncation.
    pub total_matches: usize,
    /// If the original query was empty and a rewrite produced these
    /// results: the rewritten query and what was changed.
    pub rewrite: Option<RewriteInfo>,
    /// Whether the query ran to completion or was cut short by its
    /// [`Budget`]. Truncated responses still hold valid matches — every
    /// result returned is a true answer — but the set may be a prefix of
    /// what an unbudgeted run would find.
    pub completeness: Completeness,
    /// The join algorithm that produced these matches — the chooser's
    /// pick when the configuration or request said [`Algorithm::Auto`].
    /// Cache hits report the algorithm of the original execution;
    /// keyword searches report `None`. Not part of the wire encoding:
    /// identical answers stay byte-identical regardless of which
    /// algorithm produced them.
    pub algorithm: Option<Algorithm>,
    /// The execution profile, present iff the request asked for one.
    pub profile: Option<QueryProfile>,
}

/// What [`LotusX::query_probe`] found.
#[derive(Debug)]
pub enum QueryProbe {
    /// The answer was cached: the finished response.
    Hit(QueryResponse),
    /// Not cached (or never cacheable): the parsed state to hand to
    /// [`LotusX::query_compute`], on this thread or another.
    Miss(PendingQuery),
}

/// A probed-but-unanswered query: what the probe already worked out
/// (parsed pattern, cache key, trace identity, profile span), so the
/// compute half repeats none of it. `Send`, so a server can probe where
/// the request arrives and compute on a worker.
pub struct PendingQuery {
    /// `None` for keyword searches, which the probe does not look at.
    twig: Option<PendingTwig>,
}

impl fmt::Debug for PendingQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PendingQuery")
            .field("key", &self.twig.as_ref().map(|t| t.key.as_str()))
            .finish_non_exhaustive()
    }
}

struct PendingTwig {
    qid: QueryId,
    /// The profile root when this query is profiled.
    root: Option<Span>,
    pattern: TwigPattern,
    limit: usize,
    key: String,
    /// Engine time spent on this query so far (the `total` stage).
    spent_ns: u64,
}

/// One ranked search result.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The LotusScore (higher = better).
    pub score: f64,
    /// The full binding vector (query node index → element).
    pub bindings: Vec<NodeId>,
    /// Bindings of the pattern's output nodes.
    pub output: Vec<NodeId>,
    /// Serialized subtree of the first output node.
    pub snippet: String,
}

/// The outcome of one search: ranked results plus rewrite provenance.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Ranked results (best first), truncated to the configured limit.
    pub results: Vec<SearchResult>,
    /// Total number of matches before truncation.
    pub total_matches: usize,
    /// If the original query was empty and a rewrite produced these
    /// results: the rewritten query and what was changed.
    pub rewrite: Option<RewriteInfo>,
    /// Whether the search ran to completion or was cut short by a budget.
    pub completeness: Completeness,
    /// The join algorithm that produced these results (`None` when no
    /// join ran, e.g. an exhausted budget). Memoized with the outcome, so
    /// a cache hit reports the algorithm of the original execution.
    pub algorithm: Option<Algorithm>,
}

/// A complete [`SearchOutcome`] as the query cache holds it: all results'
/// node ids, scores and snippets each in one flat buffer instead of
/// three heap blocks per result, about a quarter of the footprint. A
/// hit unpacks it into an ordinary outcome.
struct PackedOutcome {
    total_matches: usize,
    rewrite: Option<RewriteInfo>,
    algorithm: Option<Algorithm>,
    scores: Vec<f64>,
    /// Per result, its bindings then its output nodes.
    nodes: Vec<NodeId>,
    bindings_width: usize,
    output_width: usize,
    snippets: String,
    /// `snippet_ends[i]` is where result `i`'s snippet ends in `snippets`.
    snippet_ends: Vec<usize>,
}

impl PackedOutcome {
    fn pack(outcome: &SearchOutcome) -> Self {
        let first = outcome.results.first();
        let mut packed = PackedOutcome {
            total_matches: outcome.total_matches,
            rewrite: outcome.rewrite.clone(),
            algorithm: outcome.algorithm,
            scores: Vec::with_capacity(outcome.results.len()),
            nodes: Vec::new(),
            bindings_width: first.map_or(0, |r| r.bindings.len()),
            output_width: first.map_or(0, |r| r.output.len()),
            snippets: String::new(),
            snippet_ends: Vec::with_capacity(outcome.results.len()),
        };
        for r in &outcome.results {
            debug_assert_eq!(r.bindings.len(), packed.bindings_width);
            debug_assert_eq!(r.output.len(), packed.output_width);
            packed.scores.push(r.score);
            packed.nodes.extend_from_slice(&r.bindings);
            packed.nodes.extend_from_slice(&r.output);
            packed.snippets.push_str(&r.snippet);
            packed.snippet_ends.push(packed.snippets.len());
        }
        packed.nodes.shrink_to_fit();
        packed.snippets.shrink_to_fit();
        packed
    }

    fn unpack(&self) -> SearchOutcome {
        let mut snippet_start = 0;
        let results = self
            .scores
            .iter()
            .zip(&self.snippet_ends)
            // (`max(1)`: an empty answer has no widths to chunk by.)
            .zip(
                self.nodes
                    .chunks((self.bindings_width + self.output_width).max(1)),
            )
            .map(|((&score, &snippet_end), nodes)| {
                let (bindings, output) = nodes.split_at(self.bindings_width);
                let snippet = self.snippets[snippet_start..snippet_end].to_string();
                snippet_start = snippet_end;
                SearchResult {
                    score,
                    bindings: bindings.to_vec(),
                    output: output.to_vec(),
                    snippet,
                }
            })
            .collect();
        SearchOutcome {
            results,
            total_matches: self.total_matches,
            rewrite: self.rewrite.clone(),
            // Truncated outcomes are never cached.
            completeness: Completeness::Complete,
            algorithm: self.algorithm,
        }
    }
}

/// Provenance of an automatic rewrite.
#[derive(Clone, Debug)]
pub struct RewriteInfo {
    /// The query that was actually executed.
    pub pattern: TwigPattern,
    /// Total relaxation penalty.
    pub cost: f64,
    /// Human-readable descriptions of the applied operators.
    pub ops: Vec<String>,
}

/// Number of hottest tags whose value-completion tries are prebuilt at
/// load time.
const HOT_TAG_TRIES: usize = 8;

/// Capacity of the query-result LRU cache.
const QUERY_CACHE_CAPACITY: usize = 128;

/// Runs one pipeline stage: `f` gets a child span when the query is
/// profiled, the stage's wall time lands in the global histogram when
/// recording is on, and stage begin/end events tagged with `qid` go to
/// the trace ring when tracing is on. With all three off this is the
/// bare call.
fn run_stage<T>(
    span: Option<&Span>,
    stage: Stage,
    recording: bool,
    qid: QueryId,
    f: impl FnOnce(Option<&Span>) -> T,
) -> T {
    lotusx_obs::emit(
        qid,
        EventKind::StageBegin {
            stage: stage.name(),
        },
    );
    let started = recording.then(Instant::now);
    let out = match span {
        Some(parent) => {
            let child = parent.child(stage.name());
            f(Some(&child))
        }
        None => f(None),
    };
    if let Some(t0) = started {
        lotusx_obs::metrics().record_stage(stage, t0.elapsed().as_nanos() as u64);
    }
    lotusx_obs::emit(
        qid,
        EventKind::StageEnd {
            stage: stage.name(),
        },
    );
    out
}

/// Records degradation metrics (degraded-response and deadline counters,
/// the deadline-overshoot histogram) for a truncated outcome. A no-op for
/// complete outcomes or when recording is off.
fn note_degradation(recording: bool, guard: &QueryGuard, completeness: Completeness) {
    let Some(reason) = completeness.truncation_reason() else {
        return;
    };
    if !recording {
        return;
    }
    let m = lotusx_obs::metrics();
    m.counters
        .degraded_responses
        .fetch_add(1, Ordering::Relaxed);
    if reason == TruncationReason::DeadlineExceeded {
        m.counters
            .queries_deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        if let Some(overshoot) = guard.deadline_overshoot() {
            m.record_stage(Stage::DeadlineOvershoot, overshoot.as_nanos() as u64);
        }
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
    config: EngineConfig,
    /// Per-tag value-completion tries, shared with every engine handed
    /// out by [`Self::completion_engine`].
    value_cache: Arc<ValueTrieCache>,
    /// Memoized outcomes keyed by normalized pattern + effective limit +
    /// per-request algorithm + config generation.
    query_cache: ConcurrentLru<String, PackedOutcome>,
    /// Bumped by every result-affecting reconfiguration; stale cache keys
    /// never match again and age out of the LRU.
    config_generation: u64,
    /// The rewriter's per-document set-up (indexed DataGuide, synonyms),
    /// built by the first query that needs rewriting — never at boot, so
    /// an engine that never rewrites never pays for it.
    rewrite_setup: OnceLock<RewriteSetup>,
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
                Self::load_str(&xml)
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
        let sections = lotusx_storage::read_snapshot_file(path)?;
        let idx = lotusx_index::snapshot::decode_sections(&sections)?;
        // Restore the shipped value-trie cache when present (duplicates
        // are corruption); snapshots without one rebuild the hot set.
        let mut vtries = sections
            .iter()
            .filter(|s| s.id == lotusx_storage::snapshot::section::VALUE_TRIES);
        match (vtries.next(), vtries.next()) {
            (Some(s), None) => {
                let cache = ValueTrieCache::decode(&s.bytes, idx.document().symbols().len())?;
                Ok(Self::assemble(idx, cache))
            }
            (None, None) => Ok(Self::from_indexed(idx)),
            _ => Err(LotusError::Storage(lotusx_storage::StorageError::Corrupt(
                "duplicate snapshot section",
            ))),
        }
    }

    /// Wraps an already-indexed document in a fresh engine (new caches,
    /// default configuration), pre-building the value tries of the
    /// hottest tags exactly as [`Self::load_document`] does.
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
            config: EngineConfig::default(),
            value_cache: Arc::new(value_cache),
            query_cache: ConcurrentLru::new(QUERY_CACHE_CAPACITY),
            config_generation: 0,
            rewrite_setup: OnceLock::new(),
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

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Validates and applies `config` atomically. The query cache is
    /// invalidated iff a result-affecting knob changed. On error nothing
    /// changes.
    pub fn reconfigure(&mut self, config: EngineConfig) -> Result<(), LotusError> {
        config.validate()?;
        if self.config.affects_results_differently(&config) {
            self.config_generation += 1;
        }
        self.config = config;
        Ok(())
    }

    /// The configured join algorithm ([`Algorithm::Auto`] by default).
    pub fn algorithm(&self) -> Algorithm {
        self.config.algorithm
    }

    /// Resolves the effective join algorithm for one execution. A pinned
    /// concrete algorithm passes through; `Algorithm::Auto` (per request
    /// or configuration) runs the cost-model chooser, recording the
    /// decision as an `algo_chosen_*` counter and an
    /// [`EventKind::AlgoChosen`] trace event.
    fn algorithm_for(
        &self,
        pattern: &TwigPattern,
        request_override: Option<Algorithm>,
        recording: bool,
        qid: QueryId,
    ) -> Algorithm {
        match request_override.unwrap_or(self.config.algorithm) {
            Algorithm::Auto => {
                let choice = lotusx_twig::choose_algorithm(&self.idx, pattern);
                if recording {
                    let counters = &lotusx_obs::metrics().counters;
                    match choice.algorithm {
                        Algorithm::Naive => &counters.algo_chosen_naive,
                        Algorithm::StructuralJoin => &counters.algo_chosen_structural_join,
                        Algorithm::Auto => unreachable!("the chooser prices concrete plans"),
                    }
                    .fetch_add(1, Ordering::Relaxed);
                }
                lotusx_obs::emit(
                    qid,
                    EventKind::AlgoChosen {
                        algorithm: choice.algorithm.name(),
                    },
                );
                choice.algorithm
            }
            pinned => pinned,
        }
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
    /// Twig outcomes are memoized in a thread-safe LRU keyed by the
    /// normalized pattern text plus the request's effective limit and
    /// algorithm override, so repeating a query (even spelled differently,
    /// e.g. with extra whitespace) is a cache hit until a result-affecting
    /// reconfiguration invalidates the cache. Keyword searches are not
    /// cached. Profiling ([`QueryRequest::profile`]) never changes the
    /// matches — responses are identical with it on or off.
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

    /// The first half of [`Self::query`]: parses the text, derives the
    /// cache key and looks it up. Everything here is bounded by the size
    /// of the request and of the cached answer — never by the corpus —
    /// and nothing here can tick a [`QueryGuard`]. A hit is counted and
    /// answered on the spot; a miss hands back the parsed state for
    /// [`Self::query_compute`] (keyword searches are never cached, so
    /// they always miss, having done no work).
    pub fn query_probe(&self, request: &QueryRequest) -> Result<QueryProbe, LotusError> {
        if request.kind == QueryKind::Keyword {
            return Ok(QueryProbe::Miss(PendingQuery { twig: None }));
        }
        let recording = lotusx_obs::enabled();
        let tracing = lotusx_obs::tracing();
        let qid = if tracing {
            lotusx_obs::next_query_id()
        } else {
            QueryId::NONE
        };
        lotusx_obs::emit(qid, EventKind::QueryBegin);
        let started = Instant::now();
        let root = request.profile.then(|| Span::new("query"));

        let parsed = run_stage(root.as_ref(), Stage::Parse, recording, qid, |_| {
            parse_query(&request.text)
        });
        let pattern = match parsed {
            Ok(p) => p,
            Err(e) => {
                if recording {
                    let counters = &lotusx_obs::metrics().counters;
                    counters.query_errors.fetch_add(1, Ordering::Relaxed);
                }
                lotusx_obs::emit(
                    qid,
                    EventKind::QueryEnd {
                        cache_hit: false,
                        truncated: false,
                        results: 0,
                    },
                );
                return Err(e.into());
            }
        };

        let limit = request.top_k.unwrap_or(self.config.result_limit);
        let key = format!(
            "g{}|k{}|a{}|{}",
            self.config_generation,
            limit,
            request.algorithm.map(|a| a.name()).unwrap_or("-"),
            pattern
        );
        let cached = self.query_cache.get(&key);
        let mut twig = PendingTwig {
            qid,
            root,
            pattern,
            limit,
            key,
            spent_ns: 0,
        };
        match cached {
            // Cache hits are always complete answers (truncated outcomes
            // are never inserted), so they satisfy any budget as-is.
            Some(packed) => {
                self.note_cache_access(&twig, true);
                twig.spent_ns = started.elapsed().as_nanos() as u64;
                Ok(QueryProbe::Hit(self.respond_twig(
                    request,
                    twig,
                    packed.unpack(),
                    None,
                    true,
                )))
            }
            None => {
                twig.spent_ns = started.elapsed().as_nanos() as u64;
                Ok(QueryProbe::Miss(PendingQuery { twig: Some(twig) }))
            }
        }
    }

    /// The second half of [`Self::query`]: counts the miss, starts the
    /// request's budget clock and does everything that can tick a
    /// [`QueryGuard`] — execute, rewrite, rank, serialize — then caches a
    /// complete outcome. `request` must be the one `pending` was probed
    /// from. Time between the two halves (a queue, another thread) is not
    /// charged to the query's `total` stage.
    pub fn query_compute(&self, request: &QueryRequest, pending: PendingQuery) -> QueryResponse {
        let Some(mut twig) = pending.twig else {
            return self.query_keyword(request);
        };
        let recording = lotusx_obs::enabled();
        let started = Instant::now();
        self.note_cache_access(&twig, false);
        let guard = QueryGuard::new(&request.budget);
        guard.set_trace_id(twig.qid.0);
        let (outcome, executed_algorithm) = if guard.checkpoint() {
            // Exhausted before any work ran (zero budget, pre-cancelled
            // token, or the deadline already passed): nothing but the
            // truncation marker.
            (
                SearchOutcome {
                    results: Vec::new(),
                    total_matches: 0,
                    rewrite: None,
                    completeness: guard.completeness(),
                    algorithm: None,
                },
                None,
            )
        } else {
            let (outcome, algorithm) = self.run_pattern(
                &twig.pattern,
                twig.limit,
                request.algorithm,
                twig.root.as_ref(),
                recording,
                twig.qid,
                &guard,
            );
            if outcome.completeness.is_complete() {
                let key = std::mem::take(&mut twig.key);
                self.query_cache.insert(key, PackedOutcome::pack(&outcome));
            }
            (outcome, Some(algorithm))
        };
        note_degradation(recording, &guard, outcome.completeness);
        twig.spent_ns += started.elapsed().as_nanos() as u64;
        self.respond_twig(request, twig, outcome, executed_algorithm, false)
    }

    /// Counts one cache lookup (`queries` plus `cache_hit`/`cache_miss`)
    /// and emits its trace event — the hit from the probe, the miss from
    /// the compute, so each request moves the counters exactly once
    /// wherever its halves ran.
    fn note_cache_access(&self, twig: &PendingTwig, hit: bool) {
        if lotusx_obs::enabled() {
            let counters = &lotusx_obs::metrics().counters;
            counters.queries.fetch_add(1, Ordering::Relaxed);
            let lookup = if hit {
                &counters.cache_hit
            } else {
                &counters.cache_miss
            };
            lookup.fetch_add(1, Ordering::Relaxed);
        }
        lotusx_obs::emit(twig.qid, EventKind::CacheAccess { hit });
    }

    /// The shared tail of both halves: stage totals, the profile, the
    /// end-of-query trace event, the response.
    fn respond_twig(
        &self,
        request: &QueryRequest,
        twig: PendingTwig,
        outcome: SearchOutcome,
        executed_algorithm: Option<Algorithm>,
        hit: bool,
    ) -> QueryResponse {
        if lotusx_obs::enabled() {
            lotusx_obs::metrics().record_stage(Stage::Total, twig.spent_ns);
        }

        let profile = twig.root.map(|r| {
            r.annotate("cache", if hit { "hit" } else { "miss" });
            if let Some(reason) = outcome.completeness.truncation_reason() {
                r.annotate("truncated", reason.name());
            }
            QueryProfile {
                query: request.text.clone(),
                executed: twig.pattern.to_string(),
                algorithm: executed_algorithm.map(|a| a.name().to_string()),
                cache_hit: hit,
                candidates: outcome.total_matches,
                results: outcome.results.len(),
                rewritten: outcome.rewrite.as_ref().map(|i| i.pattern.to_string()),
                span: r.finish(),
            }
        });
        lotusx_obs::emit(
            twig.qid,
            EventKind::QueryEnd {
                cache_hit: hit,
                truncated: !outcome.completeness.is_complete(),
                results: outcome.results.len() as u32,
            },
        );

        QueryResponse {
            algorithm: outcome.algorithm,
            matches: outcome.results,
            total_matches: outcome.total_matches,
            rewrite: outcome.rewrite,
            completeness: outcome.completeness,
            profile,
        }
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

    fn query_keyword(&self, request: &QueryRequest) -> QueryResponse {
        let recording = lotusx_obs::enabled();
        let tracing = lotusx_obs::tracing();
        let qid = if tracing {
            lotusx_obs::next_query_id()
        } else {
            QueryId::NONE
        };
        lotusx_obs::emit(qid, EventKind::QueryBegin);
        let started = recording.then(Instant::now);
        let root = request.profile.then(|| Span::new("query"));
        let limit = request.top_k.unwrap_or(self.config.result_limit);
        // Keyword (SLCA) search runs to completion once started, so the
        // budget gates only whether it starts at all: an exhausted budget
        // yields an empty truncated response, anything else a complete
        // one.
        let guard = QueryGuard::new(&request.budget);
        guard.set_trace_id(qid.0);
        let exhausted = guard.checkpoint();

        let (results, total_matches) = if exhausted {
            (Vec::new(), 0)
        } else {
            run_stage(root.as_ref(), Stage::Keyword, recording, qid, |span| {
                let engine = lotusx_keyword::KeywordEngine::new(&self.idx);
                let doc = self.idx.document();
                let hits = engine.search(&request.text);
                let total = hits.len();
                if let Some(s) = span {
                    s.annotate("hits", total);
                }
                let results: Vec<SearchResult> = hits
                    .into_iter()
                    .take(limit)
                    .map(|hit| SearchResult {
                        score: hit.score,
                        bindings: vec![hit.node],
                        output: vec![hit.node],
                        snippet: doc.serialize(hit.node, SerializeOptions::default()),
                    })
                    .collect();
                (results, total)
            })
        };
        note_degradation(recording, &guard, guard.completeness());

        if let Some(t0) = started {
            let total_ns = t0.elapsed().as_nanos() as u64;
            let m = lotusx_obs::metrics();
            m.counters.queries.fetch_add(1, Ordering::Relaxed);
            m.counters.keyword_queries.fetch_add(1, Ordering::Relaxed);
            m.record_stage(Stage::Total, total_ns);
        }

        let profile = root.map(|r| QueryProfile {
            query: request.text.clone(),
            executed: request.text.clone(),
            algorithm: None,
            cache_hit: false,
            candidates: total_matches,
            results: results.len(),
            rewritten: None,
            span: r.finish(),
        });
        let completeness = guard.completeness();
        lotusx_obs::emit(
            qid,
            EventKind::QueryEnd {
                cache_hit: false,
                truncated: !completeness.is_complete(),
                results: results.len() as u32,
            },
        );

        QueryResponse {
            matches: results,
            total_matches,
            rewrite: None,
            completeness,
            algorithm: None,
            profile,
        }
    }

    /// Runs a twig pattern: execute → (rewrite if empty) → rank. This is
    /// the canvas-level entry (no query text, no cache) used by
    /// `Session::run`.
    pub fn search_pattern(&self, pattern: &TwigPattern) -> SearchOutcome {
        let recording = lotusx_obs::enabled();
        self.run_pattern(
            pattern,
            self.config.result_limit,
            None,
            None,
            recording,
            QueryId::NONE,
            &QueryGuard::unlimited(),
        )
        .0
    }

    /// Executes, possibly rewrites, ranks and serializes one pattern.
    /// Returns the outcome and the join algorithm of the last execution.
    #[allow(clippy::too_many_arguments)]
    fn run_pattern(
        &self,
        pattern: &TwigPattern,
        limit: usize,
        algorithm_override: Option<Algorithm>,
        span: Option<&Span>,
        recording: bool,
        qid: QueryId,
        guard: &QueryGuard,
    ) -> (SearchOutcome, Algorithm) {
        let algorithm = self.algorithm_for(pattern, algorithm_override, recording, qid);
        // The match stage reduces and counts; rows exist only in the rank
        // stage, and only as many as the ranker asks for.
        let matches = run_stage(span, Stage::Match, recording, qid, |s| {
            execute_budgeted(&self.idx, pattern, algorithm, s, guard)
        });
        // A tripped guard suppresses rewriting: a truncated empty run says
        // nothing about whether the query is truly empty, and the budget
        // is spent anyway.
        if !matches.is_empty() || !self.config.auto_rewrite || guard.is_tripped() {
            let mut outcome =
                self.finish(pattern, &matches, None, limit, span, recording, qid, guard);
            outcome.algorithm = Some(algorithm);
            return (outcome, algorithm);
        }
        // Empty: try rewriting, under the same budget. A search the guard
        // cut short applies nothing — the re-execution could not run
        // anyway — and the outcome reports the truncation.
        let (rewrites, _) = run_stage(span, Stage::Rewrite, recording, qid, |s| {
            let setup = self.rewrite_setup.get_or_init(|| {
                RewriteSetup::new(&self.idx, lotusx_rewrite::SynonymTable::default_table())
            });
            Rewriter::over(&self.idx, setup, self.config.rewriter).rewrite(pattern, s, guard)
        });
        let best = rewrites.into_iter().next().filter(|_| !guard.is_tripped());
        match best {
            Some(best) => {
                lotusx_obs::emit(qid, EventKind::Rewrite { accepted: true });
                let algorithm =
                    self.algorithm_for(&best.pattern, algorithm_override, recording, qid);
                let matches = run_stage(span, Stage::Match, recording, qid, |s| {
                    execute_budgeted(&self.idx, &best.pattern, algorithm, s, guard)
                });
                let info = RewriteInfo {
                    pattern: best.pattern.clone(),
                    cost: best.cost,
                    ops: best.ops,
                };
                let mut outcome = self.finish(
                    &best.pattern,
                    &matches,
                    Some(info),
                    limit,
                    span,
                    recording,
                    qid,
                    guard,
                );
                outcome.algorithm = Some(algorithm);
                (outcome, algorithm)
            }
            None => {
                lotusx_obs::emit(qid, EventKind::Rewrite { accepted: false });
                let mut outcome =
                    self.finish(pattern, &matches, None, limit, span, recording, qid, guard);
                outcome.algorithm = Some(algorithm);
                (outcome, algorithm)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        pattern: &TwigPattern,
        matches: &JoinResult<'_>,
        rewrite: Option<RewriteInfo>,
        limit: usize,
        span: Option<&Span>,
        recording: bool,
        qid: QueryId,
        guard: &QueryGuard,
    ) -> SearchOutcome {
        let total_matches = matches.count();
        let ranked = run_stage(span, Stage::Rank, recording, qid, |s| {
            let ranker = Ranker::with_weights(&self.idx, self.config.weights);
            ranker.rank_top_k(pattern, matches, limit, s)
        });
        let results = run_stage(span, Stage::Serialize, recording, qid, |s| {
            let doc = self.idx.document();
            let outputs = pattern.output_nodes();
            if let Some(s) = s {
                s.annotate("snippets", ranked.len());
            }
            ranked
                .into_iter()
                .map(|sm| {
                    let output: Vec<NodeId> =
                        outputs.iter().map(|q| sm.bindings[q.index()]).collect();
                    let snippet = output
                        .first()
                        .map(|&n| doc.serialize(n, SerializeOptions::default()))
                        .unwrap_or_default();
                    SearchResult {
                        score: sm.score,
                        bindings: sm.bindings,
                        output,
                        snippet,
                    }
                })
                .collect()
        });
        SearchOutcome {
            results,
            total_matches,
            rewrite,
            completeness: guard.completeness(),
            algorithm: None,
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
        assert!(response.matches[0].snippet.starts_with("<title>"));
        assert!(response.matches[0].score >= response.matches[1].score);
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
    fn auto_rewrite_can_be_disabled() {
        let mut system = LotusX::load_str(BIB).unwrap();
        let config = system.config().clone().auto_rewrite(false);
        system.reconfigure(config).unwrap();
        let response = system.query(&twig("//book/writer")).unwrap();
        assert_eq!(response.total_matches, 0);
        assert!(response.rewrite.is_none());
    }

    #[test]
    fn result_limit_truncates_but_total_is_kept() {
        let mut system = LotusX::load_str(BIB).unwrap();
        let config = system.config().clone().result_limit(1);
        system.reconfigure(config).unwrap();
        let response = system.query(&twig("//author")).unwrap();
        assert_eq!(response.total_matches, 3);
        assert_eq!(response.matches.len(), 1);
    }

    #[test]
    fn per_request_top_k_overrides_the_limit() {
        let system = LotusX::load_str(BIB).unwrap();
        let all = system.query(&twig("//author")).unwrap();
        assert_eq!(all.matches.len(), 3);
        let one = system.query(&twig("//author").top_k(1)).unwrap();
        assert_eq!(one.matches.len(), 1);
        assert_eq!(one.total_matches, 3);
        assert_eq!(one.matches[0].bindings, all.matches[0].bindings);
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
    fn reconfigure_validates() {
        let mut system = LotusX::load_str(BIB).unwrap();
        let bad = system.config().clone().rank_weights(RankWeights {
            structure: f64::NAN,
            ..RankWeights::default()
        });
        assert!(matches!(
            system.reconfigure(bad.result_limit(7)),
            Err(LotusError::Config(_))
        ));
        assert_eq!(
            system.config().result_limit_value(),
            100,
            "unchanged on error"
        );
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
        assert!(response.matches[0].snippet.starts_with("<author>"));
    }

    #[test]
    fn responses_report_the_executed_algorithm() {
        let mut system = LotusX::load_str(BIB).unwrap();
        // Auto (the default configuration) resolves to a concrete
        // algorithm.
        assert_eq!(system.algorithm(), Algorithm::Auto);
        let auto = system.query(&twig("//book[title][author]")).unwrap();
        let resolved = auto.algorithm.expect("a join ran");
        assert_ne!(resolved, Algorithm::Auto, "always resolved");
        // Pinned configuration: the pin is reported.
        let config = system.config().clone().algorithm(Algorithm::StructuralJoin);
        system.reconfigure(config).unwrap();
        assert_eq!(system.algorithm(), Algorithm::StructuralJoin);
        let response = system.query(&twig("//book[title][author]")).unwrap();
        assert_eq!(response.algorithm, Some(Algorithm::StructuralJoin));
        // Cache hits report the algorithm of the original execution.
        let hit = system.query(&twig("//book[title][author]")).unwrap();
        assert_eq!(hit.algorithm, Some(Algorithm::StructuralJoin));
        // Auto as a per-request override resolves too.
        let fresh = LotusX::load_str(BIB).unwrap();
        let via_request = fresh
            .query(&twig("//book/title").algorithm(Algorithm::Auto))
            .unwrap();
        assert!(via_request.algorithm.is_some());
        assert_ne!(via_request.algorithm, Some(Algorithm::Auto));
        // Keyword searches never run a join.
        let keyword = fresh.query(&QueryRequest::keyword("handbook")).unwrap();
        assert!(keyword.algorithm.is_none());
    }

    #[test]
    fn auto_algorithm_matches_pinned_results() {
        let mut system = LotusX::load_str(BIB).unwrap();
        let auto = system
            .query(&twig("//book[title][author]"))
            .unwrap()
            .total_matches;
        for pinned in Algorithm::ALL {
            let config = system.config().clone().algorithm(pinned);
            system.reconfigure(config).unwrap();
            assert_eq!(
                system
                    .query(&twig("//book[title][author]"))
                    .unwrap()
                    .total_matches,
                auto,
                "{pinned}"
            );
        }
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
        assert!(response.matches[0].snippet.starts_with("<article>"));
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
                            m.bindings.clone(),
                            m.output.clone(),
                            m.snippet.clone(),
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
        for (a, b) in stopped.matches.iter().zip(&all.matches) {
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
            for (a, b) in plain.matches.iter().zip(&profiled.matches) {
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

    #[test]
    fn configuration_changes_invalidate_the_cache() {
        let mut system = LotusX::load_str(BIB).unwrap();
        assert_eq!(system.query(&twig("//author")).unwrap().matches.len(), 3);
        let config = system.config().clone().result_limit(1);
        system.reconfigure(config).unwrap();
        // A stale cached outcome would still hold 3 results.
        let response = system.query(&twig("//author")).unwrap();
        assert_eq!(response.matches.len(), 1);
        assert_eq!(response.total_matches, 3);
        assert_eq!(system.query_cache_stats().hits, 0);
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
        for (a, b) in plain.matches.iter().zip(&budgeted.matches) {
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
