//! Twig-matching algorithms.
//!
//! Both evaluators return the same match sets (a property the test suite
//! enforces): [`naive::evaluate`] builds them, and
//! [`structural_join::reduce`] stops at a reduced twig that counts the
//! matches without building them and enumerates them on demand:
//!
//! | module | style | notes |
//! |---|---|---|
//! | [`naive`] | navigational, top-down | the test oracle, pinnable per request; `Auto` never picks it |
//! | [`structural_join`] | binary stack-tree joins | one counting pass per edge over the index's own streams, predicates as initial weights, no pair lists; rows enumerated lazily in document order; `Auto`'s pick for every twig |
//!
//! The holistic family (PathStack, TwigStack, TJFast, DataGuide-guided
//! TwigStack) was measured and removed — EXPERIMENTS.md E12 is the
//! decision record.

pub mod naive;
pub mod structural_join;
