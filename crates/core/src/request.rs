//! The engine's request/response vocabulary: what a caller hands to
//! [`LotusX::query`](crate::LotusX::query) and what comes back.
//!
//! One typed pair drives the engine: [`QueryRequest`] (twig or keyword
//! text plus four per-request fields — `top_k`, `algorithm`, an execution
//! [`Budget`], an opt-in profiling flag) and [`QueryResponse`] (ranked
//! matches, a [`Completeness`] marker, plus an optional [`QueryProfile`]
//! with the stage timings and the plan behind them). There are no engine-wide settings.

use crate::canvas::CanvasError;
use crate::engine::RequestCtx;
use crate::profile::QueryProfile;
use lotusx_guard::{Budget, Completeness};
use lotusx_twig::exec::Algorithm;
use lotusx_twig::pattern::TwigPattern;
use lotusx_twig::xpath::ParseError;
use lotusx_xml::NodeId;
use std::fmt;
use std::sync::Arc;

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
    /// A tenant registry configuration failed validation.
    Config(String),
    /// The canvas a session was asked to run does not compile to a
    /// pattern.
    Canvas(CanvasError),
}

impl fmt::Display for LotusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LotusError::Xml(e) => write!(f, "XML error: {e}"),
            LotusError::Query(e) => write!(f, "query error: {e}"),
            LotusError::Io(e) => write!(f, "I/O error: {e}"),
            LotusError::Storage(e) => write!(f, "snapshot error: {e}"),
            LotusError::Config(e) => write!(f, "configuration error: {e}"),
            LotusError::Canvas(e) => write!(f, "canvas error: {e}"),
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
impl From<CanvasError> for LotusError {
    fn from(e: CanvasError) -> Self {
        LotusError::Canvas(e)
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
    /// Per-request result limit (`None` = 100 results).
    pub top_k: Option<usize>,
    /// Per-request join algorithm (`None` = [`Algorithm::Auto`], which
    /// runs the structural join; ignored by keyword searches).
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
    /// A twig query over `text` with default settings.
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
    /// Shared with the query cache: cloning a response, or answering
    /// from the cache, copies a pointer.
    pub matches: Arc<Answer>,
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
    /// The join algorithm that produced these matches — what
    /// [`Algorithm::Auto`] resolves to unless the request pinned one.
    /// Cache hits report the algorithm of the original execution; keyword
    /// searches, and requests whose budget was spent before a join ran,
    /// report `None`.
    /// Not part of the wire encoding: identical answers stay
    /// byte-identical regardless of which algorithm produced them.
    pub algorithm: Option<Algorithm>,
    /// The execution profile, present iff the request asked for one
    /// (boxed: a response without one stays small).
    pub profile: Option<Box<QueryProfile>>,
}

/// The ranked results of one query, flat: all results' scores, node ids
/// and snippets each in one buffer instead of three heap blocks per
/// result. Read it through [`Self::iter`] / [`Self::get`], which lend
/// each result as a [`SearchResult`].
#[derive(Debug, Default)]
pub struct Answer {
    scores: Vec<f64>,
    /// Per result, its bindings then its output nodes.
    nodes: Vec<NodeId>,
    bindings_width: usize,
    output_width: usize,
    snippets: String,
    /// `snippet_ends[i]` is where result `i`'s snippet ends in `snippets`.
    snippet_ends: Vec<usize>,
}

/// One ranked search result, borrowed from its [`Answer`].
#[derive(Clone, Copy, Debug)]
pub struct SearchResult<'a> {
    /// The LotusScore (higher = better).
    pub score: f64,
    /// The full binding vector (query node index → element).
    pub bindings: &'a [NodeId],
    /// Bindings of the pattern's output nodes.
    pub output: &'a [NodeId],
    /// Serialized subtree of the first output node.
    pub snippet: &'a str,
}

impl Answer {
    /// An empty answer with room for `rows` results of `bindings_width`
    /// bindings and `output_width` output nodes each.
    pub(crate) fn with_capacity(rows: usize, bindings_width: usize, output_width: usize) -> Self {
        Answer {
            scores: Vec::with_capacity(rows),
            nodes: Vec::with_capacity(rows * (bindings_width + output_width)),
            bindings_width,
            output_width,
            snippets: String::new(),
            snippet_ends: Vec::with_capacity(rows),
        }
    }

    /// Appends one result; `bindings` and `output` must have the widths
    /// the answer was created with.
    pub(crate) fn push(
        &mut self,
        score: f64,
        bindings: &[NodeId],
        output: impl IntoIterator<Item = NodeId>,
        snippet: &str,
    ) {
        self.scores.push(score);
        self.nodes.extend_from_slice(bindings);
        self.nodes.extend(output);
        debug_assert_eq!(
            self.nodes.len(),
            self.scores.len() * (self.bindings_width + self.output_width)
        );
        self.snippets.push_str(snippet);
        self.snippet_ends.push(self.snippets.len());
    }

    /// Gives back the snippet buffer's growth slack: a finished answer
    /// may sit in the query cache for a long time.
    pub(crate) fn finish(mut self) -> Arc<Self> {
        self.snippets.shrink_to_fit();
        Arc::new(self)
    }

    /// Number of results.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when there are no results.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The `i`-th best result.
    pub fn get(&self, i: usize) -> Option<SearchResult<'_>> {
        let score = *self.scores.get(i)?;
        let width = self.bindings_width + self.output_width;
        let (bindings, output) = self.nodes[i * width..][..width].split_at(self.bindings_width);
        let start = if i == 0 { 0 } else { self.snippet_ends[i - 1] };
        Some(SearchResult {
            score,
            bindings,
            output,
            snippet: &self.snippets[start..self.snippet_ends[i]],
        })
    }

    /// The best result.
    pub fn first(&self) -> Option<SearchResult<'_>> {
        self.get(0)
    }

    /// The results, best first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = SearchResult<'_>> {
        (0..self.len()).map(|i| self.get(i).expect("i < len"))
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

/// What [`LotusX::query_probe`](crate::LotusX::query_probe) found.
#[derive(Debug)]
pub enum QueryProbe {
    /// The answer was cached: the finished response.
    Hit(QueryResponse),
    /// Not cached (or never cacheable): the parsed state to hand to
    /// [`LotusX::query_compute`](crate::LotusX::query_compute), on this
    /// thread or another.
    Miss(PendingQuery),
}

/// A probed-but-unanswered query: what the probe already worked out
/// (the profile so far, parsed pattern, cache key, resolved
/// algorithm), so the compute half repeats none of it. `Send`, so a
/// server can probe where the request arrives and compute on a worker.
pub struct PendingQuery {
    pub(crate) ctx: RequestCtx,
    pub(crate) limit: usize,
    /// The parsed pattern, its cache key and the algorithm it runs with;
    /// `None` for keyword searches, which are never cached.
    pub(crate) twig: Option<(TwigPattern, String, Algorithm)>,
}

impl fmt::Debug for PendingQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PendingQuery")
            .field("key", &self.twig.as_ref().map(|(_, key, _)| key.as_str()))
            .finish_non_exhaustive()
    }
}
