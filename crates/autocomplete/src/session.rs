//! Per-keystroke completion sessions.
//!
//! A session models what the GUI does while the user types into one query
//! node: every keystroke narrows the candidate list without recomputing it
//! from scratch. Position-aware candidate sets are small (bounded by the
//! DataGuide fan-out), so they are computed once per focus change and then
//! narrowed by prefix; the global fallback narrows through the trie cursor.
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

    /// Sets how many candidates each keystroke returns.
    pub fn set_k(&mut self, k: usize) {
        self.k = k;
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
    pub fn keystroke(&mut self, engine: &CompletionEngine<'_>, ch: char) -> Vec<TagCandidate> {
        self.typed.push(ch);
        self.current(engine)
    }

    /// Removes the last keystroke (no-op on empty input).
    pub fn backspace(&mut self, engine: &CompletionEngine<'_>) -> Vec<TagCandidate> {
        self.typed.pop();
        self.current(engine)
    }

    /// The current top-k candidates for the typed prefix.
    pub fn current(&self, engine: &CompletionEngine<'_>) -> Vec<TagCandidate> {
        if self.context.is_unconstrained() {
            // Global mode: the trie answers prefix queries directly.
            return engine.complete_tag_global(&self.typed, self.k);
        }
        self.base_candidates
            .iter()
            .filter(|c| c.name.starts_with(&self.typed))
            .take(self.k)
            .cloned()
            .collect()
    }

    /// The single remaining candidate, if the prefix is unambiguous.
    pub fn accept_if_unique(&self, engine: &CompletionEngine<'_>) -> Option<TagCandidate> {
        let current = self.current(engine);
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
        let idx = idx();
        let engine = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["bib", "article"], Axis::Child);
        let mut s = CompletionState::new(&engine, ctx, 10);
        let c0 = s.current(&engine);
        assert_eq!(c0.len(), 2); // author, abstract
        let c1 = s.keystroke(&engine, 'a');
        assert_eq!(c1.len(), 2); // both start with 'a'
        let c2 = s.keystroke(&engine, 'u');
        assert_eq!(c2.len(), 1);
        assert_eq!(c2[0].name, "author");
        assert_eq!(s.accept_if_unique(&engine).unwrap().name, "author");
    }

    #[test]
    fn backspace_widens_again() {
        let idx = idx();
        let engine = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["bib", "article"], Axis::Child);
        let mut s = CompletionState::new(&engine, ctx, 10);
        s.keystroke(&engine, 'a');
        s.keystroke(&engine, 'u');
        assert_eq!(s.current(&engine).len(), 1);
        let widened = s.backspace(&engine);
        assert_eq!(widened.len(), 2);
        assert_eq!(s.typed(), "a");
    }

    #[test]
    fn global_state_uses_trie() {
        let idx = idx();
        let engine = CompletionEngine::new(&idx);
        let mut s = CompletionState::new(&engine, PositionContext::unconstrained(), 10);
        let c = s.keystroke(&engine, 'a');
        let names: Vec<&str> = c.iter().map(|x| x.name.as_str()).collect();
        assert!(names.contains(&"author"));
        assert!(names.contains(&"article"));
        assert!(names.contains(&"abstract"));
    }

    #[test]
    fn state_matches_fresh_queries_at_every_prefix() {
        let idx = idx();
        let engine = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["bib", "book"], Axis::Child);
        let mut s = CompletionState::new(&engine, ctx.clone(), 10);
        for (i, ch) in "title".chars().enumerate() {
            let via_state = s.keystroke(&engine, ch);
            let prefix: String = "title".chars().take(i + 1).collect();
            let fresh = engine.complete_tag(&ctx, &prefix, 10);
            assert_eq!(via_state, fresh, "prefix {prefix}");
        }
    }

    #[test]
    fn dead_prefix_yields_empty_and_recovers() {
        let idx = idx();
        let engine = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["bib", "book"], Axis::Child);
        let mut s = CompletionState::new(&engine, ctx, 10);
        assert!(s.keystroke(&engine, 'z').is_empty());
        assert!(s.accept_if_unique(&engine).is_none());
        assert!(!s.backspace(&engine).is_empty());
    }

    #[test]
    fn state_refocuses_only_when_the_context_changes() {
        let idx = idx();
        let engine = CompletionEngine::new(&idx);
        let book = PositionContext::from_tag_path(&["bib", "book"], Axis::Child);
        let article = PositionContext::from_tag_path(&["bib", "article"], Axis::Child);
        let mut state = CompletionState::new(&engine, book.clone(), 10);
        state.keystroke(&engine, 'a');
        // Same context: base candidates and typed prefix are kept.
        state.ensure_context(&engine, &book);
        assert_eq!(state.typed(), "a");
        assert_eq!(state.current(&engine).len(), 1, "author under book");
        // New context: base candidates refresh, typed prefix survives.
        state.ensure_context(&engine, &article);
        assert_eq!(state.context(), &article);
        assert_eq!(state.typed(), "a");
        assert_eq!(
            state.current(&engine).len(),
            2,
            "author + abstract under article"
        );
        state.clear_typed();
        state.set_k(1);
        assert_eq!(state.current(&engine).len(), 1);
    }
}
