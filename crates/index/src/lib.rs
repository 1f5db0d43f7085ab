//! # lotusx-index
//!
//! The index layer of LotusX. One pass over a parsed document builds:
//!
//! * [`columns::TagColumns`] — per-tag, document-ordered element streams
//!   (the inputs of the structural join) as struct-of-arrays columns:
//!   contiguous start/end/level/node arrays, which the join scans
//!   branch-light and skips through with galloping binary search, plus
//!   a derived parent-slot column a child edge gathers through;
//! * [`value_index::ValueIndex`] — tokenized term postings with term
//!   frequencies, an exact-value index, and a numeric index for range
//!   predicates;
//! * [`trie::Trie`] — a from-scratch byte trie with best-first top-k
//!   completion (tags and content terms each get one);
//! * [`dataguide::DataGuide`] — a strong DataGuide structural summary,
//!   the engine behind *position-aware* candidate filtering and
//!   satisfiability pruning;
//! * [`stats::Stats`] — corpus statistics used by ranking.
//!
//! [`IndexedDocument`] bundles the document, its labels and all indexes.

#![warn(missing_docs)]

pub mod builder;
pub mod columns;
pub mod dataguide;
pub mod snapshot;
pub mod stats;
pub mod trie;
pub mod value_index;
mod wire;

pub use builder::IndexedDocument;
pub use columns::{ColumnView, OwnedColumns, TagColumns};
pub use dataguide::{DataGuide, GuideNodeId};
pub use stats::Stats;
pub use trie::{Trie, TrieCursor};
pub use value_index::{fold_value, tokenize, ValueIndex};
