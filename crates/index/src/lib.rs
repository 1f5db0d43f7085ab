//! # lotusx-index
//!
//! The index layer of LotusX. One pass over a parsed document builds:
//!
//! * [`columns::TagColumns`] — per-tag, document-ordered element streams
//!   (the inputs of the structural join) as struct-of-arrays columns:
//!   contiguous start/end/level/node arrays, which the join scans
//!   branch-light and skips through with galloping binary search, plus
//!   a derived parent-slot column a child edge gathers through;
//! * [`value_index::ValueIndex`] — tokenized term postings (node ids,
//!   with the term frequencies above 1 beside them), an exact-value index
//!   whose keys are read in the document's text, and a numeric index for
//!   range predicates derived from those keys; terms and exact values
//!   are sorted dictionaries over compressed sparse rows, and a prefix is
//!   a range of term ranks;
//! * [`term_counts::TermCounts`] — per tag and document-wide term counts
//!   over those ranks, the lists every value candidate list is the top k
//!   of;
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
pub mod term_counts;
pub mod value_index;
mod wire;

pub use builder::IndexedDocument;
// The position and persistence types an index is built from and saved
// to, so a caller needs no dependency on the crates underneath.
pub use columns::{ColumnView, OwnedColumns, TagColumns};
pub use dataguide::{DataGuide, GuideNodeId};
pub use lotusx_labeling::{DocumentLabels, RegionLabel};
pub use lotusx_storage::{codec, read_snapshot_file, Section, StorageError};
pub use stats::Stats;
pub use term_counts::TermCounts;
pub use value_index::{fold_value, tokenize, ValueIndex};
