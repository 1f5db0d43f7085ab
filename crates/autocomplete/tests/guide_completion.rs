//! Position-aware completion through the guide embedding: exact on
//! random chain contexts against the naive join over the data, the
//! candidate lists of every dataset trace pinned byte for byte, and the
//! cost of a `/` context bounded where the server answers inline.

#[path = "../../twig/tests/random_inputs/mod.rs"]
mod random_inputs;

use lotusx_autocomplete::{CompletionEngine, ContextStep, PositionContext, TagCandidate};
use lotusx_datagen::rng::XorShiftRng;
use lotusx_datagen::{generate, queries, Dataset};
use lotusx_guard::{Budget, QueryGuard};
use lotusx_index::codec::fnv1a;
use lotusx_index::IndexedDocument;
use lotusx_twig::exec::{execute, Algorithm};
use lotusx_twig::Axis;

/// FNV-1a of every trace's full candidate lists (prefix `""`, then the
/// intended tag's first letter) at scale 2, per dataset, trace and focus
/// axis, recorded before completion moved onto the guide embedding.
const RECORDED: &[(&str, u64)] = &[
    ("dblp-like/0/", 0x00f3628fe8c6dbf1),
    ("dblp-like/0//", 0xe045b257a1b4bf9f),
    ("dblp-like/1/", 0x90cc6415a65424c3),
    ("dblp-like/1//", 0x4707dcad068bccc2),
    ("dblp-like/2/", 0x6940dfe3b89174d7),
    ("dblp-like/2//", 0x81568a31e4f9bcc6),
    ("dblp-like/3/", 0x1eb4ecf9fd1e3048),
    ("dblp-like/3//", 0x1eb4ecf9fd1e3048),
    ("dblp-like/4/", 0x27f096c43fa86310),
    ("dblp-like/4//", 0x27f096c43fa86310),
    ("dblp-like/5/", 0x3dd9793a3049df04),
    ("dblp-like/5//", 0x3dd9793a3049df04),
    ("dblp-like/6/", 0xf779b2174f6be62f),
    ("dblp-like/6//", 0xf779b2174f6be62f),
    ("xmark-like/0/", 0x56b4108b8f69c23d),
    ("xmark-like/0//", 0x220281b83137f641),
    ("xmark-like/1/", 0x6dada000995d7fcf),
    ("xmark-like/1//", 0x418766f74db29afb),
    ("xmark-like/2/", 0xef0ecccfaea04045),
    ("xmark-like/2//", 0xafa05ea2d880403d),
    ("xmark-like/3/", 0xdad6e24da9738726),
    ("xmark-like/3//", 0x4a946018ef1c4bfb),
    ("xmark-like/4/", 0xd126b78010eb966a),
    ("xmark-like/4//", 0xd126b78010eb966a),
    ("xmark-like/5/", 0x183a4694f4b274cc),
    ("xmark-like/5//", 0x38d1d13863d748ae),
    ("xmark-like/6/", 0xfae3e58f72dd3cb8),
    ("xmark-like/6//", 0xfae3e58f72dd3cb8),
    ("treebank-like/0/", 0xf946e59fac265501),
    ("treebank-like/0//", 0x05bbc6886eb671ca),
    ("treebank-like/1/", 0x1273e8bb26cdd525),
    ("treebank-like/1//", 0x1283b9fc15aa2d96),
    ("treebank-like/2/", 0xe06b633127686e2f),
    ("treebank-like/2//", 0xc11ace0efdb7eaee),
    ("treebank-like/3/", 0x5c0e7077002a04ac),
    ("treebank-like/3//", 0x59640887395f8a66),
    ("treebank-like/4/", 0xabf97f17aa35c9f4),
    ("treebank-like/4//", 0xec62f47239851039),
];

/// The node budget the server answers a `/complete` within on its event
/// loop before handing the request to a worker.
const INLINE_NODE_BUDGET: u64 = 512;

#[test]
fn child_axis_trace_contexts_answer_within_the_inline_budget() {
    for (ds, scale) in [
        (Dataset::DblpLike, 64),
        (Dataset::XmarkLike, 64),
        (Dataset::TreebankLike, 16),
    ] {
        let idx = IndexedDocument::build(generate(ds, scale, 2012));
        let engine = CompletionEngine::new(&idx);
        for trace in queries::completion_traces(ds) {
            let ctx = PositionContext::from_tag_path(trace.context_path, Axis::Child);
            let guard = QueryGuard::new(&Budget::unlimited().with_node_quota(1 << 40));
            let found = engine.complete_tag_guarded(&ctx, "", usize::MAX, &guard);
            let visits = guard.nodes_visited();
            assert!(!found.is_empty(), "{ds}: {:?}", trace.context_path);
            assert!(
                (1..=INLINE_NODE_BUDGET).contains(&visits),
                "{ds}:{scale} {:?}/ read {visits} guide nodes",
                trace.context_path
            );
        }
    }
}

fn render(candidates: &[TagCandidate], out: &mut String) {
    for c in candidates {
        out.push_str(&format!("{} {}\n", c.name, c.count));
    }
    out.push('\n');
}

#[test]
fn trace_candidate_lists_match_the_recorded_hashes() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for ds in Dataset::ALL {
        let idx = IndexedDocument::build(generate(ds, 2, 2012));
        let engine = CompletionEngine::new(&idx);
        for (i, trace) in queries::completion_traces(ds).iter().enumerate() {
            for (name, axis) in [("/", Axis::Child), ("//", Axis::Descendant)] {
                let ctx = PositionContext::from_tag_path(trace.context_path, axis);
                let mut text = String::new();
                for prefix in ["", &trace.intended[..1]] {
                    render(&engine.complete_tag(&ctx, prefix, usize::MAX), &mut text);
                }
                got.push((format!("{ds}/{i}{name}"), fnv1a(text.as_bytes())));
            }
        }
    }
    let recorded: Vec<(String, u64)> = RECORDED.iter().map(|&(k, h)| (k.to_string(), h)).collect();
    if got != recorded {
        let table: String = got
            .iter()
            .map(|(k, h)| format!("    (\"{k}\", {h:#018x}),\n"))
            .collect();
        panic!("candidate lists moved; the table now reads:\n{table}");
    }
}

const TAGS: [&str; 4] = ["a", "b", "c", "unknown"];

/// A chain of one to four steps: each a tag (one in eight unknown to the
/// document) or a wildcard, on either axis, with either focus axis.
fn random_context(rng: &mut XorShiftRng) -> PositionContext {
    let axis = |rng: &mut XorShiftRng| {
        if rng.gen_bool(0.5) {
            Axis::Child
        } else {
            Axis::Descendant
        }
    };
    let steps = (0..rng.gen_range(1..5usize))
        .map(|_| {
            let tag = match rng.gen_range(0..8u32) {
                0 => Some(TAGS[3].to_string()),
                1 | 2 => None,
                t => Some(TAGS[t as usize % 3].to_string()),
            };
            ContextStep {
                tag,
                axis: axis(rng),
            }
        })
        .collect();
    PositionContext {
        steps,
        axis_to_focus: axis(rng),
    }
}

/// What the data says: the focus's distinct bindings under the naive
/// join of the context's chain pattern, counted per tag, heaviest first.
fn naive_candidates(idx: &IndexedDocument, ctx: &PositionContext) -> Vec<TagCandidate> {
    let (pattern, focus) = ctx.to_pattern();
    let matches = execute(idx, &pattern, Algorithm::Naive);
    let mut bound: Vec<_> = matches.rows().map(|row| row[focus.index()]).collect();
    bound.sort_unstable();
    bound.dedup();
    let doc = idx.document();
    let mut out: Vec<TagCandidate> = Vec::new();
    for node in bound {
        let name = doc.symbols().resolve(doc.tag(node).expect("element"));
        match out.iter_mut().find(|c| c.name == name) {
            Some(c) => c.count += 1,
            None => out.push(TagCandidate {
                name: name.to_string(),
                count: 1,
            }),
        }
    }
    out.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.name.cmp(&b.name)));
    out
}

#[test]
fn chain_contexts_complete_like_naive_on_the_data() {
    let mut rng = XorShiftRng::seed_from_u64(0xC0C0);
    let (mut offered, mut empty) = (0, 0);
    for case in 0..400 {
        let (idx, _) = random_inputs::random_case(&mut rng);
        let engine = CompletionEngine::new(&idx);
        let ctx = random_context(&mut rng);
        let got = engine.complete_tag(&ctx, "", usize::MAX);
        assert_eq!(got, naive_candidates(&idx, &ctx), "case {case}: {ctx:?}");
        offered += usize::from(!got.is_empty());
        empty += usize::from(got.is_empty());
    }
    assert!(
        offered > 150 && empty > 20,
        "both outcomes are exercised: {offered} / {empty}"
    );
}
