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
//! 1. **DataGuide satisfiability pruning** — a candidate rewrite is first
//!    embedded in the index's DataGuide (`lotusx_twig::guide::embed`, the
//!    embedding position-aware completion reads too), read in place and
//!    charged to the request's budget; structurally unsatisfiable candidates are
//!    discarded without touching the document, and nothing is built for
//!    it on first use.
//! 2. **Penalty-ordered frontier** — each operator has a cost, the frontier
//!    is a priority queue, and exploration stops after five non-empty
//!    rewrites, 300 expansions, or when the request's budget trips.
//!
//! The search limits and the synonym table are constants; the one option
//! is [`RewriterConfig::guide_pruning`], which the E9b ablation turns off.

#![warn(missing_docs)]

pub mod ops;
pub mod rewriter;
pub mod synonyms;

pub use ops::{apply, RewriteOp};
pub use rewriter::{RankedRewrite, RewriteStats, Rewriter, RewriterConfig};
