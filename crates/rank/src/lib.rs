//! # lotusx-rank
//!
//! The "new ranking strategy" of LotusX, reconstructed: every twig match is
//! scored by combining
//!
//! 1. **structural tightness** — matches whose ancestor-descendant edges
//!    bind close together (small depth slack) outrank loose ones;
//! 2. **content relevance** — TF-IDF of the query's `contains` terms in
//!    the bound elements;
//! 3. **position specificity** — bindings on rare DataGuide paths (highly
//!    selective positions) outrank bindings on ubiquitous paths.
//!
//! The combination weights live in [`score::RankWeights`]; the experiment
//! harness compares the full score against the document-order and
//! frequency-only baselines with the retrieval metrics of `lotusx-bench`.

#![warn(missing_docs)]

pub mod score;
pub mod topk;

pub use score::{RankWeights, Ranker, ScoredMatch};
pub use topk::OrderedTopK;
