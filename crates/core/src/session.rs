//! Interactive sessions: canvas + engine + per-keystroke completion.
//!
//! A [`Session`] is what one demo visitor drives: they edit the canvas,
//! type into a focused node (receiving position-aware candidates on every
//! keystroke), and run the query at any point — complete or not.

use crate::canvas::{CanvasError, CanvasNodeId, QueryCanvas};
use crate::engine::LotusX;
use crate::request::{LotusError, QueryRequest, QueryResponse};
use lotusx_autocomplete::{CompletionEngine, CompletionState, TagCandidate, ValueCandidate};

/// How many candidates each keystroke and each value lookup returns.
const SUGGESTIONS: usize = 8;

/// An interactive query-building session over one loaded document.
pub struct Session<'a> {
    engine: &'a LotusX,
    completion: CompletionEngine<'a>,
    canvas: QueryCanvas,
    focus: Option<(CanvasNodeId, CompletionState)>,
}

impl<'a> Session<'a> {
    /// Starts a session.
    pub fn new(engine: &'a LotusX) -> Self {
        Session {
            completion: engine.completion_engine(),
            engine,
            canvas: QueryCanvas::new(),
            focus: None,
        }
    }

    /// The canvas being edited.
    pub fn canvas(&self) -> &QueryCanvas {
        &self.canvas
    }

    /// Mutable canvas access for structural edits.
    pub fn canvas_mut(&mut self) -> &mut QueryCanvas {
        &mut self.canvas
    }

    /// Focuses a canvas node for typing; returns the initial (empty-prefix)
    /// candidates for that position.
    pub fn focus(&mut self, node: CanvasNodeId) -> Result<Vec<TagCandidate>, CanvasError> {
        let ctx = self.canvas.context_of(node)?;
        let state = CompletionState::new(&self.completion, ctx, SUGGESTIONS);
        let candidates = state.current();
        self.focus = Some((node, state));
        Ok(candidates)
    }

    /// The focused node, if any.
    pub fn focused(&self) -> Option<CanvasNodeId> {
        self.focus.as_ref().map(|(node, _)| *node)
    }

    /// Text typed into the focused node so far.
    pub fn typed(&self) -> &str {
        self.focus
            .as_ref()
            .map(|(_, state)| state.typed())
            .unwrap_or("")
    }

    /// Types one character into the focused node, returning the narrowed
    /// candidates.
    pub fn keystroke(&mut self, ch: char) -> Result<Vec<TagCandidate>, CanvasError> {
        let (node, state) = self.focus.as_mut().ok_or(CanvasError::NoSuchNode)?;
        let ctx = self.canvas.context_of(*node)?;
        state.ensure_context(&self.completion, &ctx);
        Ok(state.keystroke(ch))
    }

    /// Deletes the last typed character.
    pub fn backspace(&mut self) -> Result<Vec<TagCandidate>, CanvasError> {
        let (node, state) = self.focus.as_mut().ok_or(CanvasError::NoSuchNode)?;
        let ctx = self.canvas.context_of(*node)?;
        state.ensure_context(&self.completion, &ctx);
        Ok(state.backspace())
    }

    /// Accepts a candidate (or whatever has been typed) as the focused
    /// node's tag. With no candidate and nothing typed, the node's tag is
    /// left untouched.
    pub fn accept(&mut self, candidate: Option<&TagCandidate>) -> Result<(), CanvasError> {
        let (node, state) = self.focus.as_mut().ok_or(CanvasError::NoSuchNode)?;
        let tag = match candidate {
            Some(c) => c.name.clone(),
            None if state.typed().is_empty() => return Ok(()),
            None => state.typed().to_string(),
        };
        self.canvas.set_tag(*node, &tag)?;
        state.clear_typed();
        Ok(())
    }

    /// The candidates for the focused node at the current typed prefix
    /// (re-anchored if the canvas changed since the last keystroke).
    pub fn current_candidates(&mut self) -> Result<Vec<TagCandidate>, CanvasError> {
        let (node, state) = self.focus.as_mut().ok_or(CanvasError::NoSuchNode)?;
        let ctx = self.canvas.context_of(*node)?;
        state.ensure_context(&self.completion, &ctx);
        Ok(state.current())
    }

    /// Accepts the current top candidate (falling back to the typed text
    /// when no candidate is available).
    pub fn accept_top(&mut self) -> Result<(), CanvasError> {
        let top = self.current_candidates()?.into_iter().next();
        self.accept(top.as_ref())
    }

    /// Value-term suggestions for the focused node (after its tag is set).
    pub fn value_suggestions(&self, prefix: &str) -> Result<Vec<ValueCandidate>, CanvasError> {
        let (node, _) = self.focus.as_ref().ok_or(CanvasError::NoSuchNode)?;
        let node = *node;
        match self.canvas.tag(node)? {
            Some(tag) => Ok(self.completion.complete_value(tag, prefix, SUGGESTIONS)),
            None => Ok(self.completion.complete_value_global(prefix, SUGGESTIONS)),
        }
    }

    /// Runs the current canvas state (untyped nodes run as wildcards):
    /// exactly [`LotusX::query`] on the canvas written out as query text,
    /// so a repeated run is a cache hit. The canvas has to be spellable
    /// in the query grammar: a hand-typed tag that is not a name is a
    /// [`LotusError::Query`], and a predicate value must not contain `"`
    /// (the grammar has no escape for it).
    pub fn run(&self) -> Result<QueryResponse, LotusError> {
        let pattern = self.canvas.to_pattern()?;
        self.engine.query(&QueryRequest::twig(pattern.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotusx_twig::Axis;

    const BIB: &str = "<bib>\
        <book><title>Data on the Web</title><author>Abiteboul</author></book>\
        <book><title>XML Handbook</title><author>Goldfarb</author></book>\
        <article><title>TwigStack</title><journal>tods</journal></article>\
    </bib>";

    #[test]
    fn full_demo_walkthrough() {
        let system = LotusX::load_str(BIB).unwrap();
        let mut s = Session::new(&system);

        // Drop a root node; candidates arrive immediately.
        let root = s.canvas_mut().add_root().unwrap();
        let initial = s.focus(root).unwrap();
        assert!(!initial.is_empty());

        // Type "b" → book; accept the top candidate.
        let cands = s.keystroke('b').unwrap();
        assert_eq!(cands[0].name, "book");
        let top = cands[0].clone();
        s.accept(Some(&top)).unwrap();

        // Add a child and watch position-aware filtering: journal is NOT
        // offered under book.
        let child = s.canvas_mut().add_node(root, Axis::Child).unwrap();
        let cands = s.focus(child).unwrap();
        let names: Vec<&str> = cands.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"title"));
        assert!(!names.contains(&"journal"));

        let cands = s.keystroke('t').unwrap();
        assert_eq!(cands[0].name, "title");
        s.accept(Some(&cands[0].clone())).unwrap();

        // Run: //book/title → 2 results.
        let outcome = s.run().unwrap();
        assert_eq!(outcome.total_matches, 2);
    }

    #[test]
    fn half_built_query_is_runnable() {
        let system = LotusX::load_str(BIB).unwrap();
        let mut s = Session::new(&system);
        let root = s.canvas_mut().add_root().unwrap();
        s.canvas_mut().set_tag(root, "book").unwrap();
        // Untyped child runs as a wildcard.
        s.canvas_mut().add_node(root, Axis::Child).unwrap();
        let outcome = s.run().unwrap();
        assert_eq!(outcome.total_matches, 4, "book × each of its children");
    }

    /// What a response answers with, for equality checks.
    fn rows(r: &QueryResponse) -> (usize, Vec<(u64, Vec<lotusx_xml::NodeId>, String)>) {
        let rows = r.matches.iter();
        let rows = rows.map(|m| (m.score.to_bits(), m.output.to_vec(), m.snippet.to_string()));
        (r.total_matches, rows.collect())
    }

    #[test]
    fn running_a_canvas_is_querying_its_text() {
        use lotusx_twig::ValuePredicate;
        let system = LotusX::load_str(BIB).unwrap();
        let mut s = Session::new(&system);
        // An untyped root, a predicate, an output marker and `ordered`:
        // everything a canvas can say beyond tags and edges.
        let root = s.canvas_mut().add_root().unwrap();
        let title = s.canvas_mut().add_node(root, Axis::Child).unwrap();
        s.canvas_mut().set_tag(title, "title").unwrap();
        let predicate = ValuePredicate::Contains("xml".into());
        s.canvas_mut()
            .set_predicate(title, Some(predicate))
            .unwrap();
        let author = s.canvas_mut().add_node(root, Axis::Child).unwrap();
        s.canvas_mut().set_tag(author, "author").unwrap();
        s.canvas_mut().set_output(author, true).unwrap();
        s.canvas_mut().set_ordered(true);

        let first = s.run().unwrap();
        assert_eq!(first.total_matches, 1);
        assert!(first.matches.first().unwrap().snippet.contains("Goldfarb"));
        let before = system.query_cache_stats();
        // Run again: the same response, from the cache.
        let second = s.run().unwrap();
        assert_eq!(rows(&second), rows(&first));
        let after = system.query_cache_stats();
        assert_eq!((after.hits, after.misses), (before.hits + 1, before.misses));
        // And `query()` on the canvas text is that same entry.
        let text = s.canvas().to_pattern().unwrap().to_string();
        let queried = system.query(&QueryRequest::twig(text)).unwrap();
        assert_eq!(rows(&queried), rows(&first));
        assert_eq!(system.query_cache_stats().hits, after.hits + 1);
    }

    #[test]
    fn value_suggestions_are_tag_scoped() {
        let system = LotusX::load_str(BIB).unwrap();
        let mut s = Session::new(&system);
        let root = s.canvas_mut().add_root().unwrap();
        s.canvas_mut().set_tag(root, "title").unwrap();
        s.focus(root).unwrap();
        s.accept(None).unwrap(); // nothing typed: the tag stays "title"
        assert_eq!(s.canvas().tag(root).unwrap(), Some("title"));
        let suggestions = s.value_suggestions("x").unwrap();
        assert_eq!(suggestions.len(), 1);
        assert_eq!(suggestions[0].term, "xml");
    }

    #[test]
    fn keystroke_without_focus_errors() {
        let system = LotusX::load_str(BIB).unwrap();
        let mut s = Session::new(&system);
        assert!(s.keystroke('x').is_err());
        assert!(s.run().is_err(), "empty canvas cannot run");
    }

    #[test]
    fn accept_top_takes_best_candidate() {
        let system = LotusX::load_str(BIB).unwrap();
        let mut s = Session::new(&system);
        let root = s.canvas_mut().add_root().unwrap();
        s.focus(root).unwrap();
        s.keystroke('b').unwrap();
        s.accept_top().unwrap();
        // "book" (freq 2) outranks "bib" (freq 1).
        assert_eq!(s.canvas().tag(root).unwrap(), Some("book"));
    }

    #[test]
    fn backspace_restores_candidates() {
        let system = LotusX::load_str(BIB).unwrap();
        let mut s = Session::new(&system);
        let root = s.canvas_mut().add_root().unwrap();
        s.focus(root).unwrap();
        let narrowed = s.keystroke('b').unwrap();
        let widened = s.backspace().unwrap();
        assert!(widened.len() >= narrowed.len());
        assert_eq!(s.typed(), "");
    }
}
