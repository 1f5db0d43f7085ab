//! # LotusX
//!
//! A position-aware XML search system with auto-completion — the engine of
//! the ICDE 2012 demo, as a library. LotusX lets users who know neither
//! XQuery nor the document's schema build tree-shaped (twig) queries
//! incrementally, with the system suggesting what can exist at every
//! position, ranking the results, and rewriting queries that come back
//! empty.
//!
//! The three layers mirror the demo's architecture:
//!
//! * [`engine::LotusX`] — load & index a document, execute twig queries,
//!   rank matches, rewrite empty-result queries ([`request`] is what goes
//!   in and comes out);
//! * [`canvas::QueryCanvas`] — the graphical canvas as an API: add nodes,
//!   connect edges, type into nodes, mark outputs;
//! * [`session::Session`] — an interactive session combining both with
//!   per-keystroke position-aware completion.
//!
//! ```
//! use lotusx::{LotusX, QueryRequest};
//!
//! let system = LotusX::load_str(
//!     "<bib><book><title>Data on the Web</title><year>1999</year></book></bib>").unwrap();
//! let response = system.query(&QueryRequest::twig("//book[year <= 2000]/title")).unwrap();
//! assert_eq!(response.matches.len(), 1);
//! assert!(response.matches.first().unwrap().snippet.contains("Data on the Web"));
//! ```

#![warn(missing_docs)]

pub mod canvas;
pub mod engine;
mod lru;
pub mod profile;
pub mod registry;
pub mod request;
pub mod routing;
pub mod session;
pub mod source;

pub use canvas::{CanvasError, CanvasNodeId, QueryCanvas};
pub use engine::LotusX;
pub use lru::CacheStats;
pub use profile::QueryProfile;
pub use registry::{EngineRegistry, Tenant};
pub use request::{
    Answer, LotusError, PendingQuery, QueryKind, QueryProbe, QueryRequest, QueryResponse,
    SearchResult,
};
pub use routing::{
    parse_rules, valid_tenant_name, MatchTest, RegistryConfig, Route, RouteError, RouteErrorKind,
    RouteInput, RouteMatch, RoutePredicate, RouteRule, RouteTable, TenantSelector, TenantSpec,
};
pub use session::Session;
pub use source::CorpusSource;

// Re-export the vocabulary types callers need.
pub use lotusx_autocomplete::{
    CompletionEngine, CompletionState, ContextStep, PositionContext, TagCandidate, ValueCandidate,
};
pub use lotusx_guard::{
    Budget, CancelToken, Completeness, QueryGuard, TenantLimits, TruncationReason,
};
pub use lotusx_index::IndexedDocument;
pub use lotusx_rank::{Bound, RankStats};
pub use lotusx_rewrite::{RankedRewrite, RewriteStats};
pub use lotusx_twig::{Algorithm, Axis, NodeTest, TwigPattern, ValuePredicate};
pub use lotusx_xml::{Document, NodeId};
