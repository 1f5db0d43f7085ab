//! # lotusx-keyword
//!
//! Keyword search over indexed XML: the zero-knowledge entry point of a
//! search UI. A user who cannot even place nodes on the canvas types plain
//! keywords; the system returns the *smallest meaningful subtrees* that
//! cover all of them.
//!
//! Two classic answer semantics are implemented:
//!
//! * **SLCA** (smallest lowest common ancestor, XKSearch — Xu &
//!   Papakonstantinou, SIGMOD 2005): elements whose subtree contains all
//!   keywords while no descendant's subtree does.
//! * **ELCA** (exhaustive LCA, XRank lineage): elements that still contain
//!   all keywords after the subtrees of their all-keyword descendants are
//!   carved out — a superset of SLCA that keeps "outer" answers with
//!   their own witnesses.
//!
//! Each semantics has two evaluators: a bottom-up containment-bitmask pass
//! over the whole tree (simple, linear, the ground truth) and, for SLCA,
//! the indexed lookup algorithm over document-ordered keyword lists that only
//! touches the posting lists (sub-linear in document size for selective
//! keywords). Property tests pin them to each other.
//!
//! ```
//! use lotusx_index::IndexedDocument;
//! use lotusx_keyword::KeywordEngine;
//!
//! let idx = IndexedDocument::from_str(
//!     "<bib><book><title>xml search</title><author>lu</author></book>\
//!      <book><title>databases</title><author>lu</author></book></bib>").unwrap();
//! let engine = KeywordEngine::new(&idx);
//! let hits = engine.slca(&["xml", "lu"]);
//! // The first book covers both keywords; the second lacks "xml", so the
//! // SLCA is the first book element, not the whole <bib>.
//! assert_eq!(hits.len(), 1);
//! assert_eq!(idx.document().tag_name(hits[0]), Some("book"));
//! ```

#![warn(missing_docs)]

pub mod bitmask;
pub mod engine;
pub mod indexed;
pub mod score;

pub use engine::{KeywordEngine, KeywordHit};
