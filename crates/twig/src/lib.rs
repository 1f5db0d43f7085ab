//! # lotusx-twig
//!
//! The twig (tree-pattern) query model of LotusX and the algorithms that
//! evaluate it:
//!
//! * [`pattern`] — twig patterns: tag/wildcard node tests, value predicates,
//!   parent-child and ancestor-descendant edges, output flags, and
//!   order-sensitive semantics.
//! * [`xpath`] — a parser for an XPath-like textual subset so queries can be
//!   written as strings (`//book[year >= 2000]/title`).
//! * [`algorithms`] — two evaluators producing identical match sets: the
//!   binary structural join (reduce, count, enumerate on demand) and a
//!   navigational walk that doubles as the test oracle.
//! * [`guide`] — the pattern's embedding in the DataGuide: per query
//!   node, the guide nodes it binds to. Completion and the rewriter's
//!   satisfiability check both read it; the ranker bounds each root
//!   path's scores from its spreads.
//! * [`ordered`] — order-sensitive twig semantics (LotusX supports
//!   "complex twig queries (including order sensitive queries)").
//! * [`exec`] — the execution core: the rule behind [`Algorithm::Auto`]
//!   (the structural join) and the one `execute` / `execute_budgeted` entry,
//!   whose [`JoinResult`] counts matches without building them and hands
//!   rows to a sink one at a time.
//!
//! ```
//! use lotusx_index::IndexedDocument;
//! use lotusx_twig::{exec::{execute, Algorithm}, xpath::parse_query};
//!
//! let idx = IndexedDocument::from_str(
//!     "<bib><book><title>XML</title><year>2003</year></book></bib>").unwrap();
//! let q = parse_query("//book[year >= 2000]/title").unwrap();
//! let matches = execute(&idx, &q, Algorithm::Auto);
//! assert_eq!(matches.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod algorithms;
pub mod exec;
pub mod guide;
pub mod matcher;
pub mod ordered;
pub mod pattern;
pub mod xpath;

pub use exec::{choose_algorithm, execute, execute_budgeted, Algorithm, JoinResult};
pub use matcher::MatchSet;
pub use pattern::{Axis, NodeTest, QNodeId, TwigPattern, ValuePredicate};
pub use xpath::{parse_query, MAX_PATTERN_NODES};
