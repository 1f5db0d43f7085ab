//! Per-keystroke completion sessions.
//!
//! A session models what the GUI does while the user types into one query
//! node: every keystroke narrows the candidate list without recomputing it
//! from scratch. Candidate sets are small (bounded by the DataGuide
//! fan-out, or by the tag count when nothing is constrained), so they are
//! computed once per focus change and then narrowed by prefix.
//!
//! The narrowing state lives in [`CompletionState`], an engine-free value
//! the canvas-driven `lotusx::Session` holds per focused node.

use crate::context::PositionContext;
use crate::engine::{CompletionEngine, TagCandidate};

/// The engine-free state of one focused query node being typed into:
/// the structural context, the typed prefix, and the cached empty-prefix
/// candidate set the keystrokes narrow.
///
/// This is the single implementation of per-keystroke narrowing; the
/// canvas-driven `lotusx::Session` delegates to it.
#[derive(Clone, Debug)]
pub struct CompletionState {
    context: PositionContext,
    typed: String,
    /// Candidates for the current context with an empty prefix, reused on
    /// every keystroke (position-aware sets are small).
    base_candidates: Vec<TagCandidate>,
    k: usize,
}

impl CompletionState {
    /// Starts narrowing at `context`, returning up to `k` candidates per
    /// keystroke.
    pub fn new(engine: &CompletionEngine<'_>, context: PositionContext, k: usize) -> Self {
        let base_candidates = engine.complete_tag(&context, "", usize::MAX);
        CompletionState {
            context,
            typed: String::new(),
            base_candidates,
            k,
        }
    }

    /// The text typed so far.
    pub fn typed(&self) -> &str {
        &self.typed
    }

    /// The structural context being completed at.
    pub fn context(&self) -> &PositionContext {
        &self.context
    }

    /// Discards the typed prefix.
    pub fn clear_typed(&mut self) {
        self.typed.clear();
    }

    /// Re-resolves the base candidates if `context` differs from the one
    /// the state was built for (the canvas may have been edited between
    /// keystrokes). The typed prefix is preserved.
    pub fn ensure_context(&mut self, engine: &CompletionEngine<'_>, context: &PositionContext) {
        if &self.context != context {
            self.context = context.clone();
            self.base_candidates = engine.complete_tag(context, "", usize::MAX);
        }
    }

    /// Processes one keystroke and returns the narrowed top-k candidates.
    pub fn keystroke(&mut self, ch: char) -> Vec<TagCandidate> {
        self.typed.push(ch);
        self.current()
    }

    /// Removes the last keystroke (no-op on empty input).
    pub fn backspace(&mut self) -> Vec<TagCandidate> {
        self.typed.pop();
        self.current()
    }

    /// The current top-k candidates for the typed prefix.
    pub fn current(&self) -> Vec<TagCandidate> {
        self.base_candidates
            .iter()
            .filter(|c| c.name.starts_with(&self.typed))
            .take(self.k)
            .cloned()
            .collect()
    }

    /// The single remaining candidate, if the prefix is unambiguous.
    pub fn accept_if_unique(&self) -> Option<TagCandidate> {
        let current = self.current();
        if current.len() == 1 {
            Some(current[0].clone())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotusx_index::IndexedDocument;
    use lotusx_twig::Axis;

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib><book><title>t</title><author>a</author></book>\
             <article><author>b</author><abstract>c</abstract></article></bib>",
        )
        .unwrap()
    }

    #[test]
    fn keystrokes_narrow_candidates() {
        let _serial = crate::engine::tests::serial();
        let idx = idx();
        let engine = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["bib", "article"], Axis::Child);
        let mut s = CompletionState::new(&engine, ctx, 10);
        let c0 = s.current();
        assert_eq!(c0.len(), 2); // author, abstract
        let c1 = s.keystroke('a');
        assert_eq!(c1.len(), 2); // both start with 'a'
        let c2 = s.keystroke('u');
        assert_eq!(c2.len(), 1);
        assert_eq!(c2[0].name, "author");
        assert_eq!(s.accept_if_unique().unwrap().name, "author");
    }

    #[test]
    fn backspace_widens_again() {
        let _serial = crate::engine::tests::serial();
        let idx = idx();
        let engine = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["bib", "article"], Axis::Child);
        let mut s = CompletionState::new(&engine, ctx, 10);
        s.keystroke('a');
        s.keystroke('u');
        assert_eq!(s.current().len(), 1);
        let widened = s.backspace();
        assert_eq!(widened.len(), 2);
        assert_eq!(s.typed(), "a");
    }

    #[test]
    fn global_state_narrows_every_tag() {
        let _serial = crate::engine::tests::serial();
        let idx = idx();
        let engine = CompletionEngine::new(&idx);
        let mut s = CompletionState::new(&engine, PositionContext::unconstrained(), 2);
        assert_eq!(s.keystroke('a'), engine.complete_tag_global("a", 2));
        assert_eq!(s.current()[0].name, "author");
    }

    #[test]
    fn state_matches_fresh_queries_at_every_prefix() {
        let _serial = crate::engine::tests::serial();
        let idx = idx();
        let engine = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["bib", "book"], Axis::Child);
        let mut s = CompletionState::new(&engine, ctx.clone(), 10);
        for (i, ch) in "title".chars().enumerate() {
            let via_state = s.keystroke(ch);
            let prefix: String = "title".chars().take(i + 1).collect();
            let fresh = engine.complete_tag(&ctx, &prefix, 10);
            assert_eq!(via_state, fresh, "prefix {prefix}");
        }
    }

    #[test]
    fn dead_prefix_yields_empty_and_recovers() {
        let _serial = crate::engine::tests::serial();
        let idx = idx();
        let engine = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["bib", "book"], Axis::Child);
        let mut s = CompletionState::new(&engine, ctx, 10);
        assert!(s.keystroke('z').is_empty());
        assert!(s.accept_if_unique().is_none());
        assert!(!s.backspace().is_empty());
    }

    #[test]
    fn state_refocuses_only_when_the_context_changes() {
        let _serial = crate::engine::tests::serial();
        let idx = idx();
        let engine = CompletionEngine::new(&idx);
        let book = PositionContext::from_tag_path(&["bib", "book"], Axis::Child);
        let article = PositionContext::from_tag_path(&["bib", "article"], Axis::Child);
        let mut state = CompletionState::new(&engine, book.clone(), 10);
        state.keystroke('a');
        // Same context: base candidates and typed prefix are kept.
        state.ensure_context(&engine, &book);
        assert_eq!(state.typed(), "a");
        assert_eq!(state.current().len(), 1, "author under book");
        // New context: base candidates refresh, typed prefix survives.
        state.ensure_context(&engine, &article);
        assert_eq!(state.context(), &article);
        assert_eq!(state.typed(), "a");
        assert_eq!(state.current().len(), 2, "author + abstract under article");
        state.clear_typed();
        assert_eq!(state.typed(), "");
    }
}
