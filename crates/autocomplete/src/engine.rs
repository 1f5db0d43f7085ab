//! The completion engine: position-aware tag and value candidates.

use crate::context::PositionContext;
use lotusx_guard::{QueryGuard, Ticker};
use lotusx_index::codec::{get_string, get_varint, put_string, put_varint};
use lotusx_index::{IndexedDocument, StorageError, Trie, TrieBuilder};
use lotusx_twig::guide;
use lotusx_xml::Symbol;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

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

/// Thread-safe, shareable cache of per-tag value-completion tries: one
/// build-once cell per tag symbol of the document it was sized for, so a
/// value keystroke on a built trie is an index and an atomic load.
///
/// Engines are cheap to construct and usually short-lived; the cache is
/// what makes lazily built tries survive them. `LotusX` keeps one per
/// loaded document and hands a clone of the `Arc` to every engine, so
/// concurrent completion calls share work instead of repeating it.
pub struct ValueTrieCache {
    slots: Box<[OnceLock<ValueTrie>]>,
}

impl ValueTrieCache {
    /// Creates an empty cache for a document with `tag_count` tag
    /// symbols.
    pub fn new(tag_count: usize) -> Self {
        ValueTrieCache {
            slots: (0..tag_count).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Number of cached per-tag tries.
    pub fn len(&self) -> usize {
        self.built().count()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.built().next().is_none()
    }

    /// The built tries, in tag-symbol order.
    fn built(&self) -> impl Iterator<Item = (usize, &ValueTrie)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((i, slot.get()?)))
    }

    /// Builds and caches the value tries of the `top_k` most frequent
    /// tags (ties broken by name). Returns the number of tries built.
    pub fn precompute_hottest(&self, idx: &IndexedDocument, top_k: usize) -> usize {
        let symbols = idx.document().symbols();
        let frequency = |sym: Symbol| idx.columns().view(sym).len();
        let mut hot: Vec<Symbol> = symbols
            .iter()
            .map(|(sym, _)| sym)
            .filter(|&sym| frequency(sym) > 0)
            .collect();
        hot.sort_by(|&a, &b| {
            frequency(b)
                .cmp(&frequency(a))
                .then_with(|| symbols.resolve(a).cmp(symbols.resolve(b)))
        });
        hot.truncate(top_k);
        for &sym in &hot {
            self.slots[sym.index()].get_or_init(|| build_value_trie(idx, sym));
        }
        hot.len()
    }

    /// Serializes every cached per-tag trie for the snapshot
    /// `VALUE_TRIES` section: entries in tag-symbol order, each carrying
    /// its sorted term table and the structural trie encoding. Rebuilding
    /// these tries dominates warm-up after a snapshot load, so shipping
    /// them in the file is what keeps cold boot in the millisecond range.
    pub fn encode(&self) -> Vec<u8> {
        // Collected first: a completion may fill a cell while we write.
        let built: Vec<(usize, &ValueTrie)> = self.built().collect();
        let mut out = Vec::new();
        put_varint(&mut out, built.len() as u64);
        for (sym, vt) in built {
            put_varint(&mut out, sym as u64);
            put_varint(&mut out, vt.terms.len() as u64);
            for term in &vt.terms {
                put_string(&mut out, term);
            }
            vt.trie.encode(&mut out);
        }
        out
    }

    /// Restores a cache from [`encode`](Self::encode) bytes. `tag_count`
    /// bounds the tag symbols (untrusted input); entries must be strictly
    /// sorted by symbol and each term table strictly sorted — the same
    /// invariants a fresh [`build`](Self::precompute_hottest) guarantees.
    pub fn decode(data: &[u8], tag_count: usize) -> Result<ValueTrieCache, StorageError> {
        let corrupt = StorageError::Corrupt;
        let mut pos = 0usize;
        let count = get_varint(data, &mut pos).ok_or(corrupt("value-trie entry count"))? as usize;
        if count > tag_count {
            return Err(corrupt("value-trie entry count"));
        }
        let cache = ValueTrieCache::new(tag_count);
        let mut prev: Option<u64> = None;
        for _ in 0..count {
            let sym = get_varint(data, &mut pos).ok_or(corrupt("value-trie tag symbol"))?;
            if sym as usize >= tag_count || prev.is_some_and(|p| p >= sym) {
                return Err(corrupt("value-trie tag symbol"));
            }
            prev = Some(sym);
            let term_count =
                get_varint(data, &mut pos).ok_or(corrupt("value-trie term count"))? as usize;
            if term_count > data.len() {
                return Err(corrupt("value-trie term count"));
            }
            let mut terms: Vec<String> = Vec::with_capacity(term_count);
            for _ in 0..term_count {
                let term = get_string(data, &mut pos).ok_or(corrupt("value-trie term"))?;
                if terms.last().is_some_and(|last| *last >= term) {
                    return Err(corrupt("value-trie terms not sorted"));
                }
                terms.push(term);
            }
            let trie = Trie::decode(data, &mut pos, terms.len() as u32)?;
            // Symbols strictly ascend, so each cell is set at most once.
            let _ = cache.slots[sym as usize].set(ValueTrie { trie, terms });
        }
        if pos != data.len() {
            return Err(corrupt("value-trie section trailing bytes"));
        }
        Ok(cache)
    }
}

/// Position-aware completion over one indexed document.
///
/// The engine is cheap to construct (it only borrows the index); per-tag
/// value tries are built lazily and cached in a shared [`ValueTrieCache`].
pub struct CompletionEngine<'a> {
    idx: &'a IndexedDocument,
    cache: Arc<ValueTrieCache>,
}

struct ValueTrie {
    trie: Trie,
    terms: Vec<String>,
}

impl<'a> CompletionEngine<'a> {
    /// Creates an engine over `idx` with a private trie cache.
    pub fn new(idx: &'a IndexedDocument) -> Self {
        let cache = ValueTrieCache::new(idx.document().symbols().len());
        Self::with_cache(idx, Arc::new(cache))
    }

    /// Creates an engine over `idx` sharing an existing trie cache
    /// (one sized for `idx`'s document).
    pub fn with_cache(idx: &'a IndexedDocument, cache: Arc<ValueTrieCache>) -> Self {
        CompletionEngine { idx, cache }
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
                return self.tag_global_inner(prefix, k);
            }
            let (pattern, focus) = context.to_pattern();
            let Some(sets) = guide::embed(self.idx, &pattern, &mut guard.ticker()) else {
                return Vec::new();
            };
            let guide = self.idx.guide();
            let symbols = self.idx.document().symbols();
            // The focus's set holds each guide node once, so summing per tag
            // counts every element at the position exactly once.
            let mut counts = vec![0u64; symbols.len()];
            for &g in &sets[focus.index()] {
                let tag = guide.tag(g).expect("the guide root binds no query node");
                counts[tag.index()] += guide.count(g);
            }
            let mut out: Vec<TagCandidate> = symbols
                .iter()
                .filter(|&(sym, name)| counts[sym.index()] > 0 && name.starts_with(prefix))
                .map(|(sym, name)| TagCandidate {
                    name: name.to_string(),
                    count: counts[sym.index()],
                })
                .collect();
            out.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.name.cmp(&b.name)));
            out.truncate(k);
            out
        })
    }

    /// Global (position-blind) tag completion over the tag trie — the
    /// baseline the position-aware experiment compares against.
    pub fn complete_tag_global(&self, prefix: &str, k: usize) -> Vec<TagCandidate> {
        lotusx_obs::time_stage(lotusx_obs::Stage::CompleteTag, || {
            self.tag_global_inner(prefix, k)
        })
    }

    fn tag_global_inner(&self, prefix: &str, k: usize) -> Vec<TagCandidate> {
        self.idx
            .tag_trie()
            .complete(prefix, k)
            .into_iter()
            .map(|c| TagCandidate {
                name: c.key,
                count: c.weight,
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

    /// [`Self::complete_value`] under a budget. The lazy per-tag trie
    /// build is the expensive step, so it checkpoints per element
    /// scanned; a trie left incomplete by a trip answers this call (its
    /// terms are real, with possibly lowered counts) but is **not**
    /// cached — the next unbudgeted call rebuilds it fully.
    pub fn complete_value_guarded(
        &self,
        tag: &str,
        prefix: &str,
        k: usize,
        guard: &QueryGuard,
    ) -> Vec<ValueCandidate> {
        lotusx_obs::time_stage(lotusx_obs::Stage::CompleteValue, || {
            let Some(sym) = self.idx.document().symbols().get(tag) else {
                return Vec::new();
            };
            let complete_from = |vt: &ValueTrie| -> Vec<ValueCandidate> {
                vt.trie
                    .complete(prefix, k)
                    .into_iter()
                    .map(|c| ValueCandidate {
                        term: vt.terms[c.payload as usize].clone(),
                        count: c.weight,
                    })
                    .collect()
            };
            let slot = &self.cache.slots[sym.index()];
            if let Some(vt) = slot.get() {
                return complete_from(vt);
            }
            let mut ticker = guard.ticker();
            let vt = build_value_trie_ticked(self.idx, sym, &mut ticker);
            // Flushed after the cache decision: a trie whose build ran to
            // the end is cached even if the flush then trips the guard.
            let cut_short = ticker.stopped();
            ticker.flush();
            if cut_short {
                return complete_from(&vt);
            }
            complete_from(slot.get_or_init(|| vt))
        })
    }

    /// Global value completion over the whole content-term trie.
    pub fn complete_value_global(&self, prefix: &str, k: usize) -> Vec<ValueCandidate> {
        lotusx_obs::time_stage(lotusx_obs::Stage::CompleteValue, || {
            self.idx
                .term_trie()
                .complete(prefix, k)
                .into_iter()
                .map(|c| ValueCandidate {
                    term: self.idx.term(c.payload).to_string(),
                    count: c.weight,
                })
                .collect()
        })
    }

    /// The underlying index (used by sessions).
    pub fn index(&self) -> &'a IndexedDocument {
        self.idx
    }
}

fn build_value_trie(idx: &IndexedDocument, tag: Symbol) -> ValueTrie {
    build_value_trie_ticked(idx, tag, &mut QueryGuard::unlimited().ticker())
}

fn build_value_trie_ticked(idx: &IndexedDocument, tag: Symbol, ticker: &mut Ticker) -> ValueTrie {
    let doc = idx.document();
    let mut counts: HashMap<String, u64> = HashMap::new();
    for &node in idx.columns().view(tag).nodes() {
        if ticker.tick(1) {
            break;
        }
        for term in lotusx_index::tokenize(&doc.direct_text(node)) {
            *counts.entry(term).or_insert(0) += 1;
        }
    }
    let mut terms: Vec<String> = counts.keys().cloned().collect();
    terms.sort();
    let mut trie = TrieBuilder::new();
    for (i, term) in terms.iter().enumerate() {
        trie.insert(term, i as u32, counts[term]);
    }
    ValueTrie {
        trie: trie.finish(),
        terms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextStep;
    use lotusx_twig::Axis;

    fn empty_cache(idx: &IndexedDocument) -> Arc<ValueTrieCache> {
        Arc::new(ValueTrieCache::new(idx.document().symbols().len()))
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
    fn unconstrained_falls_back_to_global_trie() {
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        let ctx = PositionContext::unconstrained();
        let cands = e.complete_tag(&ctx, "a", 10);
        let names: Vec<&str> = cands.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"author") && names.contains(&"article"));
    }

    #[test]
    fn position_filters_candidates() {
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
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["nosuch"], Axis::Child);
        assert!(e.complete_tag(&ctx, "", 10).is_empty());
    }

    #[test]
    fn value_completion_is_tag_scoped() {
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        let titles = e.complete_value("title", "x", 10);
        assert_eq!(titles.len(), 1);
        assert_eq!(titles[0].term, "xml");
        // "lu" is an author value, not a title term.
        assert!(e.complete_value("title", "lu", 10).is_empty());
        assert_eq!(e.complete_value("author", "lu", 10).len(), 1);
        assert!(e.complete_value("nosuchtag", "x", 10).is_empty());
    }

    #[test]
    fn value_completion_global_spans_tags() {
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        let all = e.complete_value_global("t", 50);
        let terms: Vec<&str> = all.iter().map(|c| c.term.as_str()).collect();
        assert!(terms.contains(&"twigstack"));
        assert!(terms.contains(&"tods"));
    }

    #[test]
    fn k_limits_results() {
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["bib", "book"], Axis::Child);
        assert_eq!(e.complete_tag(&ctx, "", 2).len(), 2);
    }

    #[test]
    fn nested_anchors_do_not_double_count_descendants() {
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
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        let generous =
            || QueryGuard::new(&lotusx_guard::Budget::unlimited().with_node_quota(1 << 40));
        let guard = generous();
        let ctx = PositionContext::from_tag_path(&["bib", "book"], Axis::Child);
        assert!(!e.complete_tag_guarded(&ctx, "", 10, &guard).is_empty());
        assert!(guard.nodes_visited() > 0, "tag path flushed");
        let guard = generous();
        assert!(!e.complete_value_guarded("title", "", 10, &guard).is_empty());
        assert_eq!(guard.nodes_visited(), 3, "one visit per title scanned");
    }

    #[test]
    fn shared_cache_is_reused_across_engines() {
        let idx = idx();
        let cache = empty_cache(&idx);
        assert!(cache.is_empty());
        let e1 = CompletionEngine::with_cache(&idx, Arc::clone(&cache));
        let before = e1.complete_value("title", "x", 10);
        assert_eq!(cache.len(), 1);
        drop(e1);
        let e2 = CompletionEngine::with_cache(&idx, Arc::clone(&cache));
        assert_eq!(e2.complete_value("title", "x", 10), before);
        assert_eq!(cache.len(), 1, "second engine reused the cached trie");
    }

    #[test]
    fn racing_first_completions_agree_and_store_one_trie() {
        let idx = idx();
        let cache = empty_cache(&idx);
        // Released together on a cold tag: whoever finds the cell empty
        // builds, one build is stored, all answer from a complete trie.
        let barrier = std::sync::Barrier::new(4);
        let answers: Vec<Vec<ValueCandidate>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let e = CompletionEngine::with_cache(&idx, Arc::clone(&cache));
                        barrier.wait();
                        e.complete_value("title", "", 10)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(answers[0].len(), 6, "{:?}", answers[0]);
        assert!(answers.iter().all(|a| *a == answers[0]));
        assert_eq!(cache.len(), 1, "one stored trie, whoever built it");
    }

    #[test]
    fn a_trie_cut_short_by_the_budget_is_not_stored() {
        let idx = idx();
        let e = CompletionEngine::new(&idx);
        let starved = QueryGuard::new(&lotusx_guard::Budget::unlimited().with_node_quota(1));
        let partial = e.complete_value_guarded("title", "", 10, &starved);
        assert!(starved.is_tripped());
        assert!(partial.len() < 6, "three titles, one visit allowed");
        assert!(e.cache.is_empty(), "a partial build is never cached");
        let full = e.complete_value("title", "", 10);
        assert_eq!(
            full,
            CompletionEngine::new(&idx).complete_value("title", "", 10)
        );
        assert_eq!(full.len(), 6);
        assert_eq!(e.cache.len(), 1);
    }

    #[test]
    fn precompute_hottest_seeds_the_cache() {
        let idx = idx();
        let cache = empty_cache(&idx);
        let built = cache.precompute_hottest(&idx, 3);
        assert_eq!(built, 3);
        assert_eq!(cache.len(), 3);
        // Precomputed tries answer identically to lazily built ones.
        let warm = CompletionEngine::with_cache(&idx, Arc::clone(&cache));
        let cold = CompletionEngine::new(&idx);
        for tag in ["title", "author", "book"] {
            assert_eq!(
                warm.complete_value(tag, "", 20),
                cold.complete_value(tag, "", 20),
                "{tag}"
            );
        }
    }

    #[test]
    fn keystroke_latency_lands_in_the_global_histograms() {
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
    fn engine_and_cache_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ValueTrieCache>();
        assert_send_sync::<CompletionEngine<'static>>();
    }

    #[test]
    fn cache_codec_roundtrip_preserves_completions() {
        let idx = idx();
        let cache = empty_cache(&idx);
        cache.precompute_hottest(&idx, 8);
        assert!(!cache.is_empty());

        let bytes = cache.encode();
        let tag_count = idx.document().symbols().len();
        let restored = Arc::new(ValueTrieCache::decode(&bytes, tag_count).unwrap());
        assert_eq!(restored.len(), cache.len());

        let fresh = CompletionEngine::with_cache(&idx, Arc::clone(&cache));
        let loaded = CompletionEngine::with_cache(&idx, Arc::clone(&restored));
        for tag in ["title", "author", "publisher", "journal", "book"] {
            for prefix in ["", "t", "x", "go", "zzz"] {
                assert_eq!(
                    fresh.complete_value(tag, prefix, 10),
                    loaded.complete_value(tag, prefix, 10),
                    "tag={tag} prefix={prefix}"
                );
            }
        }
        // Round-tripping the restored cache is byte-stable.
        assert_eq!(restored.encode(), bytes);
    }

    #[test]
    fn empty_cache_roundtrips() {
        let cache = ValueTrieCache::new(0);
        let bytes = cache.encode();
        let restored = ValueTrieCache::decode(&bytes, 0).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn cache_decode_rejects_malformed_bytes_without_panicking() {
        let idx = idx();
        let cache = empty_cache(&idx);
        cache.precompute_hottest(&idx, 8);
        let good = cache.encode();
        let tag_count = idx.document().symbols().len();

        // Every single-byte flip and every truncation must surface as a
        // typed error (or decode to a valid cache), never a panic.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            let _ = ValueTrieCache::decode(&bad, tag_count);
            let _ = ValueTrieCache::decode(&good[..i], tag_count);
        }

        // Targeted invariants: symbol out of range, unsorted entries,
        // trailing garbage.
        assert!(ValueTrieCache::decode(&good, 0).is_err(), "sym bound");
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(
            ValueTrieCache::decode(&trailing, tag_count).is_err(),
            "trailing bytes"
        );
        assert!(ValueTrieCache::decode(&[0x01], tag_count).is_err());
    }
}
