//! Twig-matching algorithms.
//!
//! Both evaluators return the same match sets (a property the test suite
//! enforces) through one signature, `evaluate(idx, pattern, guard)`:
//!
//! | module | style | notes |
//! |---|---|---|
//! | [`naive`] | navigational, top-down | the test oracle, and `Auto`'s pick when reading only structural survivors beats materializing streams (scan predicates, micro-queries) |
//! | [`structural_join`] | binary stack-tree joins | galloping columnar merges per edge, stitched along the twig; `Auto`'s pick everywhere else |
//!
//! The holistic family (PathStack, TwigStack, TJFast, DataGuide-guided
//! TwigStack) was measured and removed — EXPERIMENTS.md E12 is the
//! decision record.

pub mod naive;
pub mod structural_join;
