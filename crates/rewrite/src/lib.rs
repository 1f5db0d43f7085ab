//! # lotusx-rewrite
//!
//! LotusX's query rewriting: when a twig query returns nothing (typo'd
//! tag, wrong axis, structure copied from the wrong document), the
//! rewriter searches a space of relaxations — edge generalization, tag
//! substitution (synonyms + spelling correction against the document's
//! actual tags), predicate relaxation, leaf deletion and internal-node
//! promotion — in best-first (cheapest damage first) order.
//!
//! Two ingredients keep the search fast:
//!
//! 1. **DataGuide satisfiability pruning** — a candidate rewrite is matched
//!    against the (tiny) DataGuide before the data; structurally
//!    unsatisfiable candidates are discarded without touching the document.
//! 2. **Penalty-ordered frontier** — each operator has a cost, the frontier
//!    is a priority queue, and exploration stops after the requested number
//!    of non-empty rewrites or a budget of expansions.

#![warn(missing_docs)]

pub mod ops;
pub mod rewriter;
pub mod synonyms;

pub use ops::{apply, RewriteOp};
pub use rewriter::{RankedRewrite, RewriteSetup, Rewriter, RewriterConfig};
pub use synonyms::SynonymTable;
