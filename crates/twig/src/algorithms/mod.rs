//! Twig-matching algorithms.
//!
//! Both evaluators return the same match sets (a property the test suite
//! enforces) through one signature, `evaluate(idx, pattern, guard)`; the
//! structural join can also stop at its reduced twig, which counts the
//! matches without building them:
//!
//! | module | style | notes |
//! |---|---|---|
//! | [`naive`] | navigational, top-down | the test oracle, and `Auto`'s pick when reading only structural survivors beats materializing streams (scan predicates, micro-queries) |
//! | [`structural_join`] | binary stack-tree joins | one counting merge per edge, no pair lists; rows enumerated lazily in document order; `Auto`'s pick everywhere else |
//!
//! The holistic family (PathStack, TwigStack, TJFast, DataGuide-guided
//! TwigStack) was measured and removed — EXPERIMENTS.md E12 is the
//! decision record.

pub mod naive;
pub mod structural_join;
