//! The completion engine: position-aware tag and value candidates.

use crate::context::PositionContext;
use lotusx_guard::QueryGuard;
use lotusx_index::IndexedDocument;
use lotusx_twig::guide;
use lotusx_xml::Symbol;

/// A ranked tag candidate.
#[derive(Clone, Debug, PartialEq)]
pub struct TagCandidate {
    /// The tag name.
    pub name: String,
    /// Number of document elements carrying this tag *at the queried
    /// position* (global count when the context is unconstrained).
    pub count: u64,
}

/// A ranked value (content term) candidate.
#[derive(Clone, Debug, PartialEq)]
pub struct ValueCandidate {
    /// The term.
    pub term: String,
    /// Number of elements (of the focused tag) containing the term.
    pub count: u64,
}

/// Position-aware completion over one indexed document.
///
/// The engine only borrows the index, so it is free to construct: every
/// candidate list is a top-k read of structures the index already holds.
pub struct CompletionEngine<'a> {
    idx: &'a IndexedDocument,
}

impl<'a> CompletionEngine<'a> {
    /// Creates an engine over `idx`.
    pub fn new(idx: &'a IndexedDocument) -> Self {
        CompletionEngine { idx }
    }

    /// Position-aware tag completion: the tags that can occur at the
    /// focused position, filtered by `prefix`, heaviest-at-position first.
    ///
    /// Per-keystroke latency is recorded into the global
    /// [`lotusx_obs::Stage::CompleteTag`] histogram while observability
    /// is enabled (one sample per call, never double-counted through the
    /// global fallback).
    pub fn complete_tag(
        &self,
        context: &PositionContext,
        prefix: &str,
        k: usize,
    ) -> Vec<TagCandidate> {
        self.complete_tag_guarded(context, prefix, k, &QueryGuard::unlimited())
    }

    /// [`Self::complete_tag`] under a budget: the context's embedding in
    /// the DataGuide ([`guide::embed`], the pattern → guide-nodes pass the
    /// rewriter's satisfiability check reads too) charges every guide
    /// node it reads to `guard`; a tripped guard yields no candidates.
    pub fn complete_tag_guarded(
        &self,
        context: &PositionContext,
        prefix: &str,
        k: usize,
        guard: &QueryGuard,
    ) -> Vec<TagCandidate> {
        lotusx_obs::time_stage(lotusx_obs::Stage::CompleteTag, || {
            if context.is_unconstrained() {
                return self.tag_global(prefix, k);
            }
            let (pattern, focus) = context.to_pattern();
            let Some(sets) = guide::embed(self.idx, &pattern, &mut guard.ticker()) else {
                return Vec::new();
            };
            let guide = self.idx.guide();
            // The focus's set holds each guide node once, so summing per tag
            // counts every element at the position exactly once.
            let mut counts = vec![0u64; self.idx.document().symbols().len()];
            for &g in &sets[focus.index()] {
                let tag = guide.tag(g).expect("the guide root binds no query node");
                counts[tag.index()] += guide.count(g);
            }
            self.rank_tags(prefix, k, |sym| counts[sym.index()])
        })
    }

    /// Global (position-blind) tag completion: every tag by its element
    /// count — the baseline the position-aware experiment compares
    /// against.
    pub fn complete_tag_global(&self, prefix: &str, k: usize) -> Vec<TagCandidate> {
        lotusx_obs::time_stage(lotusx_obs::Stage::CompleteTag, || {
            self.tag_global(prefix, k)
        })
    }

    fn tag_global(&self, prefix: &str, k: usize) -> Vec<TagCandidate> {
        let columns = self.idx.columns();
        self.rank_tags(prefix, k, |sym| columns.view(sym).len() as u64)
    }

    /// The `k` tags named with `prefix` whose `count` is not zero, by
    /// count descending, then name: a filter and a sort over the symbol
    /// table, which holds tens of names.
    fn rank_tags(
        &self,
        prefix: &str,
        k: usize,
        count: impl Fn(Symbol) -> u64,
    ) -> Vec<TagCandidate> {
        let symbols = self.idx.document().symbols();
        let mut found: Vec<(u64, &str)> = symbols
            .iter()
            .filter(|&(_, name)| name.starts_with(prefix))
            .map(|(sym, name)| (count(sym), name))
            .filter(|&(count, _)| count > 0)
            .collect();
        found.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1)));
        found.truncate(k);
        found
            .into_iter()
            .map(|(count, name)| TagCandidate {
                name: name.to_string(),
                count,
            })
            .collect()
    }

    /// Value completion for a node whose tag is already fixed: terms that
    /// actually occur inside elements with that tag, filtered by prefix.
    ///
    /// Latency lands in the [`lotusx_obs::Stage::CompleteValue`]
    /// histogram while observability is enabled.
    pub fn complete_value(&self, tag: &str, prefix: &str, k: usize) -> Vec<ValueCandidate> {
        self.complete_value_guarded(tag, prefix, k, &QueryGuard::unlimited())
    }

    /// [`Self::complete_value`] under a budget: every count entry and
    /// block maximum read is charged to `guard`, and a scan the guard
    /// stops returns the best of what it read.
    pub fn complete_value_guarded(
        &self,
        tag: &str,
        prefix: &str,
        k: usize,
        guard: &QueryGuard,
    ) -> Vec<ValueCandidate> {
        lotusx_obs::time_stage(lotusx_obs::Stage::CompleteValue, || {
            match self.idx.document().symbols().get(tag) {
                Some(sym) => self.rank_values(Some(sym), prefix, k, guard),
                None => Vec::new(),
            }
        })
    }

    /// Global value completion: terms by the number of content elements
    /// holding them.
    pub fn complete_value_global(&self, prefix: &str, k: usize) -> Vec<ValueCandidate> {
        lotusx_obs::time_stage(lotusx_obs::Stage::CompleteValue, || {
            self.rank_values(None, prefix, k, &QueryGuard::unlimited())
        })
    }

    /// The top `k` of `tag`'s term counts (document frequencies for
    /// `None`) over the ranks of the terms starting with `prefix`.
    fn rank_values(
        &self,
        tag: Option<Symbol>,
        prefix: &str,
        k: usize,
        guard: &QueryGuard,
    ) -> Vec<ValueCandidate> {
        let values = self.idx.values();
        let mut ticker = guard.ticker();
        let ranks = values.prefix_range(prefix);
        let found = self
            .idx
            .term_counts()
            .top_k(tag, ranks, k, |n| ticker.tick(n));
        ticker.flush();
        found
            .into_iter()
            .map(|(rank, count)| ValueCandidate {
                term: values.term(rank as usize).to_string(),
                count,
            })
            .collect()
    }

    /// The underlying index (used by sessions).
    pub fn index(&self) -> &'a IndexedDocument {
        self.idx
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::context::ContextStep;
    use lotusx_twig::Axis;
    use std::sync::{Mutex, MutexGuard};

    /// The stage histograms are process-global, and switching metrics on
    /// records every thread's keystrokes: every test of this crate that
    /// completes holds this lock, so the one that counts keystrokes
    /// counts only its own.
    static SERIAL: Mutex<()> = Mutex::new(());

    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book><title>data web</title><author>lu</author><publisher>mk</publisher></book>\
               <book><title>xml handbook</title><author>goldfarb</author><publisher>ph</publisher></book>\
               <article><title>twigstack paper</title><author>bruno</author><journal>tods</journal></article>\
             </bib>",
        )
        .unwrap()
    }

    #[test]
    fn unconstrained_is_global_completion() {
        let _serial = serial();
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        let ctx = PositionContext::unconstrained();
        assert_eq!(
            e.complete_tag(&ctx, "a", 10),
            e.complete_tag_global("a", 10)
        );
    }

    #[test]
    fn position_filters_candidates() {
        let _serial = serial();
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        // Inside //bib/book, "j..." (journal) must NOT be offered.
        let ctx = PositionContext::from_tag_path(&["bib", "book"], Axis::Child);
        assert!(e.complete_tag(&ctx, "j", 10).is_empty());
        // But inside //bib/article it is.
        let ctx = PositionContext::from_tag_path(&["bib", "article"], Axis::Child);
        let cands = e.complete_tag(&ctx, "j", 10);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].name, "journal");
        assert_eq!(cands[0].count, 1);
    }

    #[test]
    fn position_counts_are_per_position_not_global() {
        let _serial = serial();
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["bib", "book"], Axis::Child);
        let cands = e.complete_tag(&ctx, "title", 10);
        assert_eq!(
            cands[0].count, 2,
            "two titles under books; the third is under article"
        );
    }

    #[test]
    fn descendant_axis_widens_candidates() {
        let _serial = serial();
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["bib"], Axis::Descendant);
        let names: Vec<String> = e
            .complete_tag(&ctx, "", 20)
            .into_iter()
            .map(|c| c.name)
            .collect();
        assert!(names.contains(&"journal".to_string()));
        assert!(names.contains(&"title".to_string()));
        assert!(names.contains(&"book".to_string()));
    }

    #[test]
    fn wildcard_steps_match_any_tag() {
        let _serial = serial();
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        let ctx = PositionContext {
            steps: vec![
                ContextStep {
                    tag: Some("bib".into()),
                    axis: Axis::Child,
                },
                ContextStep {
                    tag: None,
                    axis: Axis::Child,
                },
            ],
            axis_to_focus: Axis::Child,
        };
        let names: Vec<String> = e
            .complete_tag(&ctx, "", 20)
            .into_iter()
            .map(|c| c.name)
            .collect();
        // Children of any second-level element: title/author/publisher/journal.
        assert!(names.contains(&"journal".to_string()));
        assert!(names.contains(&"publisher".to_string()));
    }

    #[test]
    fn unknown_context_tag_gives_no_candidates() {
        let _serial = serial();
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["nosuch"], Axis::Child);
        assert!(e.complete_tag(&ctx, "", 10).is_empty());
    }

    #[test]
    fn k_limits_results() {
        let _serial = serial();
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["bib", "book"], Axis::Child);
        assert_eq!(e.complete_tag(&ctx, "", 2).len(), 2);
    }

    #[test]
    fn nested_anchors_do_not_double_count_descendants() {
        let _serial = serial();
        // //a anchors at both the outer and the inner <a>; the inner
        // anchor's subtree is contained in the outer's. Each <b> must be
        // counted once: the document has exactly two.
        let idx = IndexedDocument::from_str("<a><a><b/></a><b/></a>").unwrap();
        let e = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["a"], Axis::Descendant);
        let cands = e.complete_tag(&ctx, "b", 10);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].count, 2, "each b counted once, not per anchor");
    }

    #[test]
    fn keystrokes_charge_the_nodes_they_read() {
        let _serial = serial();
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        let generous =
            || QueryGuard::new(&lotusx_guard::Budget::unlimited().with_node_quota(1 << 40));
        let guard = generous();
        let ctx = PositionContext::from_tag_path(&["bib", "book"], Axis::Child);
        assert!(!e.complete_tag_guarded(&ctx, "", 10, &guard).is_empty());
        assert!(guard.nodes_visited() > 0, "tag path flushed");
        let guard = generous();
        assert_eq!(e.complete_value_guarded("title", "", 10, &guard).len(), 6);
        assert_eq!(guard.nodes_visited(), 6, "one visit per title term read");
        let guard = generous();
        assert_eq!(e.complete_value_guarded("title", "", 2, &guard).len(), 2);
        assert_eq!(guard.nodes_visited(), 6, "no block maximum read: one block");
    }

    #[test]
    fn a_starved_value_keystroke_trips_its_guard() {
        let _serial = serial();
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        let starved = QueryGuard::new(&lotusx_guard::Budget::unlimited().with_node_quota(1));
        assert!(e
            .complete_value_guarded("title", "", 10, &starved)
            .is_empty());
        assert!(starved.is_tripped());
        assert_eq!(e.complete_value("title", "", 10).len(), 6);
    }

    #[test]
    fn keystroke_latency_lands_in_the_global_histograms() {
        let _serial = serial();
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["bib", "book"], Axis::Child);
        // Disabled: no samples recorded.
        let tag_before = lotusx_obs::metrics()
            .stage(lotusx_obs::Stage::CompleteTag)
            .count();
        e.complete_tag(&ctx, "t", 10);
        assert_eq!(
            lotusx_obs::metrics()
                .stage(lotusx_obs::Stage::CompleteTag)
                .count(),
            tag_before
        );
        // Enabled: one sample per keystroke, including the global
        // fallback path (never double-counted).
        lotusx_obs::set_enabled(true);
        let tag_before = lotusx_obs::metrics()
            .stage(lotusx_obs::Stage::CompleteTag)
            .count();
        let val_before = lotusx_obs::metrics()
            .stage(lotusx_obs::Stage::CompleteValue)
            .count();
        e.complete_tag(&ctx, "t", 10);
        e.complete_tag(&PositionContext::unconstrained(), "a", 10);
        e.complete_value("title", "x", 10);
        lotusx_obs::set_enabled(false);
        assert_eq!(
            lotusx_obs::metrics()
                .stage(lotusx_obs::Stage::CompleteTag)
                .count(),
            tag_before + 2
        );
        assert_eq!(
            lotusx_obs::metrics()
                .stage(lotusx_obs::Stage::CompleteValue)
                .count(),
            val_before + 1
        );
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompletionEngine<'static>>();
    }
}
