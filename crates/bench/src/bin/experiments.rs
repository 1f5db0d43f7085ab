//! The experiments harness: regenerates the tables/figures of the
//! reconstructed LotusX evaluation (E1–E10, see DESIGN.md) and prints them
//! as markdown. `EXPERIMENTS.md` records one run of this binary; the
//! holistic-join columns it recorded before E12 are no longer regenerable.
//!
//! ```sh
//! cargo run --release -p lotusx-bench --bin experiments
//! ```

use lotusx_autocomplete::{CompletionEngine, PositionContext};
use lotusx_bench::metrics::{mrr, ndcg_at_k, precision_at_k};
use lotusx_bench::{fixture, fmt_duration, median_time, time_once, SEED};
use lotusx_datagen::{generate, queries, Dataset};
use lotusx_guard::QueryGuard;
use lotusx_index::IndexedDocument;
use lotusx_rank::Ranker;
use lotusx_rewrite::{Rewriter, RewriterConfig};
use lotusx_twig::exec::{execute, Algorithm};
use lotusx_twig::matcher::MatchSet;
use lotusx_twig::xpath::parse_query;
use lotusx_twig::{Axis, TwigPattern};
use lotusx_xml::NodeId;
use std::collections::HashMap;

const REPS: usize = 5;

fn main() {
    println!("# LotusX reconstructed evaluation — harness output\n");
    println!("(seed {SEED}, medians of {REPS} runs; debug/release per invocation)\n");
    e1_indexing();
    e2_algorithms();
    e3_completion_latency();
    e4_completion_quality();
    e5_ranking_quality();
    e6_rewriting();
    e7_ordered();
    e8_scalability();
    e9_ablations();
    e10_keyword();
}

// --------------------------------------------------------------- E10 ----
fn e10_keyword() {
    println!("## E10 — keyword search (SLCA): indexed lookup vs full-tree bitmask\n");
    println!("| scale | elements | query | answers | indexed SLCA | bitmask SLCA |");
    println!("|---|---|---|---|---|---|");
    let keyword_queries: [&[&str]; 3] =
        [&["data", "query"], &["xml", "search", "index"], &["smith"]];
    for scale in [1u32, 4, 16] {
        let idx = fixture(Dataset::DblpLike, scale);
        let engine = lotusx_keyword::KeywordEngine::new(&idx);
        for q in keyword_queries {
            let (t_idx, hits) = median_time(REPS, || engine.slca(q));
            let (t_bm, _) = median_time(REPS, || engine.slca_bitmask(q));
            println!(
                "| {} | {} | {:?} | {} | {} | {} |",
                scale,
                idx.stats().element_count,
                q.join(" "),
                hits.len(),
                fmt_duration(t_idx),
                fmt_duration(t_bm),
            );
        }
    }
    println!();
}

// ---------------------------------------------------------------- E1 ----
fn e1_indexing() {
    println!("## E1 (Table 1) — index construction\n");
    println!("| dataset | scale | elements | parse | index build | index size | guide nodes | distinct tags |");
    println!("|---|---|---|---|---|---|---|---|");
    for ds in Dataset::ALL {
        for scale in [1u32, 2, 4, 8] {
            let doc = generate(ds, scale, SEED);
            let xml = doc.to_xml();
            let (parse_t, parsed) = median_time(REPS.min(3), || {
                lotusx_xml::Document::parse_str(&xml).expect("well-formed")
            });
            let (index_t, idx) =
                median_time(REPS.min(3), || IndexedDocument::build(parsed.clone()));
            println!(
                "| {} | {} | {} | {} | {} | {:.2} MiB | {} | {} |",
                ds,
                scale,
                idx.stats().element_count,
                fmt_duration(parse_t),
                fmt_duration(index_t),
                idx.index_size_bytes() as f64 / (1024.0 * 1024.0),
                idx.guide().node_count(),
                idx.stats().distinct_tags,
            );
        }
    }
    println!();
}

// ---------------------------------------------------------------- E2 ----
fn e2_algorithms() {
    println!("## E2 (Figure 2) — twig algorithm query time (scale 2)\n");
    for ds in Dataset::ALL {
        let idx = fixture(ds, 2);
        println!("### {ds}\n");
        println!("| query | matches | naive | structural-join | auto |");
        println!("|---|---|---|---|---|");
        for q in queries::queries(ds) {
            let pattern = parse_query(q.text).unwrap();
            let mut cells = Vec::new();
            let mut matches = 0usize;
            for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
                let (t, m) = median_time(REPS, || execute(&idx, &pattern, algo));
                matches = m.len();
                cells.push(fmt_duration(t));
            }
            println!(
                "| {} `{}` | {} | {} |",
                q.id,
                q.text,
                matches,
                cells.join(" | ")
            );
        }
        println!();
    }
}

// ---------------------------------------------------------------- E3 ----
fn e3_completion_latency() {
    println!("## E3 (Figure 3) — per-keystroke completion latency (scale 2)\n");
    println!("| dataset | prefix len | position-aware | global |");
    println!("|---|---|---|---|");
    for ds in Dataset::ALL {
        let idx = fixture(ds, 2);
        let engine = CompletionEngine::new(&idx);
        let traces = queries::completion_traces(ds);
        for plen in [0usize, 1, 2, 3] {
            let (aware, _) = median_time(REPS, || {
                traces
                    .iter()
                    .map(|t| {
                        let ctx = PositionContext::from_tag_path(t.context_path, Axis::Child);
                        engine
                            .complete_tag(&ctx, &t.intended[..plen.min(t.intended.len())], 10)
                            .len()
                    })
                    .sum::<usize>()
            });
            let (global, _) = median_time(REPS, || {
                traces
                    .iter()
                    .map(|t| {
                        engine
                            .complete_tag_global(&t.intended[..plen.min(t.intended.len())], 10)
                            .len()
                    })
                    .sum::<usize>()
            });
            let n = traces.len() as u32;
            println!(
                "| {} | {} | {} | {} |",
                ds,
                plen,
                fmt_duration(aware / n),
                fmt_duration(global / n),
            );
        }
    }
    println!();
}

// ---------------------------------------------------------------- E4 ----
fn e4_completion_quality() {
    println!("## E4 (Figure 4) — position-aware vs global completion quality (scale 2)\n");
    println!("| dataset | mode | avg candidates (empty prefix) | avg candidates (1 char) | MRR of intended | P@3 of intended |");
    println!("|---|---|---|---|---|---|");
    for ds in Dataset::ALL {
        let idx = fixture(ds, 2);
        let engine = CompletionEngine::new(&idx);
        let traces = queries::completion_traces(ds);
        for aware in [true, false] {
            let mut cand0 = 0usize;
            let mut cand1 = 0usize;
            let mut mrr_sum = 0.0;
            let mut p3_sum = 0.0;
            for t in traces {
                let ctx = PositionContext::from_tag_path(t.context_path, Axis::Child);
                let list0 = if aware {
                    engine.complete_tag(&ctx, "", usize::MAX)
                } else {
                    engine.complete_tag_global("", usize::MAX)
                };
                let list1 = if aware {
                    engine.complete_tag(&ctx, &t.intended[..1], usize::MAX)
                } else {
                    engine.complete_tag_global(&t.intended[..1], usize::MAX)
                };
                cand0 += list0.len();
                cand1 += list1.len();
                let ranked: Vec<&str> = list0.iter().map(|c| c.name.as_str()).collect();
                let relevance: HashMap<&str, f64> = [(t.intended, 1.0)].into_iter().collect();
                mrr_sum += mrr(&ranked, &relevance);
                p3_sum += if ranked.iter().take(3).any(|r| *r == t.intended) {
                    1.0
                } else {
                    0.0
                };
            }
            let n = traces.len() as f64;
            println!(
                "| {} | {} | {:.1} | {:.1} | {:.3} | {:.3} |",
                ds,
                if aware { "position-aware" } else { "global" },
                cand0 as f64 / n,
                cand1 as f64 / n,
                mrr_sum / n,
                p3_sum / n,
            );
        }
    }
    println!();
}

// ---------------------------------------------------------------- E5 ----
fn e5_ranking_quality() {
    println!("## E5 (Figure 5) — ranking quality (NDCG@10 / P@10 / MRR)\n");
    println!("Two oracles: *content* (relevance = tf of the query term in the");
    println!("bound title) on dblp-like; *structure* (relevance = tightness of");
    println!("the A-D edge) on treebank-like.\n");
    println!("| oracle | strategy | NDCG@10 | P@10 | MRR |");
    println!("|---|---|---|---|---|");

    // Content oracle: //article[title ~ "data"] — graded by tf("data").
    {
        let idx = fixture(Dataset::DblpLike, 1);
        let pattern = parse_query(r#"//article[title ~ "data"]"#).unwrap();
        let matches = execute(&idx, &pattern, Algorithm::Auto);
        let title_q = pattern.node(pattern.root()).children[0];
        let relevance: HashMap<Vec<NodeId>, f64> = matches
            .rows()
            .map(|m| {
                let title = m[title_q.index()];
                let text = idx.document().direct_text(title);
                let tf = lotusx_index::tokenize(&text)
                    .iter()
                    .filter(|t| t.as_str() == "data")
                    .count();
                (m.to_vec(), tf as f64)
            })
            .collect();
        report_ranking(&idx, &pattern, matches, relevance, "content (dblp)");
    }

    // Structure oracle: //s//nn — graded by 3 minus the depth slack.
    {
        let idx = fixture(Dataset::TreebankLike, 1);
        let pattern = parse_query("//s//nn").unwrap();
        let matches = execute(&idx, &pattern, Algorithm::Auto);
        let s_q = pattern.root();
        let nn_q = pattern.node(s_q).children[0];
        let doc = idx.document();
        let relevance: HashMap<Vec<NodeId>, f64> = matches
            .rows()
            .map(|m| {
                let slack = doc.depth(m[nn_q.index()]) - doc.depth(m[s_q.index()]) - 1;
                (m.to_vec(), (3.0 - slack as f64).max(0.0))
            })
            .collect();
        report_ranking(&idx, &pattern, matches, relevance, "structure (treebank)");
    }
    println!();
}

fn report_ranking(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    matches: MatchSet,
    relevance: HashMap<Vec<NodeId>, f64>,
    oracle: &str,
) {
    let ranker = Ranker::new(idx);
    let owned = |rows: Vec<&[NodeId]>| -> Vec<Vec<NodeId>> {
        rows.into_iter().map(<[NodeId]>::to_vec).collect()
    };
    let lotus: Vec<Vec<NodeId>> = ranker
        .rank(pattern, &matches)
        .into_iter()
        .map(|s| s.bindings)
        .collect();
    let doc_order = owned(lotusx_rank::score::rank_by_document_order(&matches));
    let freq = owned(lotusx_rank::score::rank_by_frequency(
        idx, pattern, &matches,
    ));
    for (name, ranked) in [
        ("LotusScore", &lotus),
        ("document-order", &doc_order),
        ("frequency", &freq),
    ] {
        println!(
            "| {} | {} | {:.3} | {:.3} | {:.3} |",
            oracle,
            name,
            ndcg_at_k(ranked, &relevance, 10),
            precision_at_k(ranked, &relevance, 10),
            mrr(ranked, &relevance),
        );
    }
}

// ---------------------------------------------------------------- E6 ----
fn e6_rewriting() {
    println!("## E6 (Figure 6) — query rewriting (scale 1)\n");
    println!("| dataset | query | damage | recovered | penalty | ops | expansions | executions (pruned) | executions (unpruned) | latency |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for ds in Dataset::ALL {
        let idx = fixture(ds, 1);
        let pruned = Rewriter::new(&idx, RewriterConfig::default());
        let unpruned = Rewriter::new(
            &idx,
            RewriterConfig {
                guide_pruning: false,
            },
        );
        for q in queries::broken_queries(ds) {
            let pattern = parse_query(q.text).unwrap();
            let (latency, (rewrites, stats)) = median_time(REPS.min(3), || {
                pruned.rewrite(&pattern, &QueryGuard::unlimited())
            });
            let (_, (_, ustats)) =
                time_once(|| unpruned.rewrite(&pattern, &QueryGuard::unlimited()));
            match rewrites.first() {
                Some(best) => println!(
                    "| {} | `{}` | {} | yes ({} matches) | {:.1} | {} | {} | {} | {} | {} |",
                    ds,
                    q.text,
                    q.damage,
                    best.match_count,
                    best.cost,
                    best.ops.join("; "),
                    stats.expansions,
                    stats.executions,
                    ustats.executions,
                    fmt_duration(latency),
                ),
                None => println!(
                    "| {} | `{}` | {} | no | – | – | {} | {} | {} | {} |",
                    ds,
                    q.text,
                    q.damage,
                    stats.expansions,
                    stats.executions,
                    ustats.executions,
                    fmt_duration(latency),
                ),
            }
        }
    }
    println!();
}

// ---------------------------------------------------------------- E7 ----
fn e7_ordered() {
    println!("## E7 (Figure 7) — order-sensitive overhead (scale 2, auto)\n");
    println!("| dataset | query | matches unordered | matches ordered | time unordered | time ordered | overhead |");
    println!("|---|---|---|---|---|---|---|");
    for ds in Dataset::ALL {
        let idx = fixture(ds, 2);
        for q in queries::queries(ds) {
            let unordered = parse_query(q.text).unwrap();
            if unordered.is_path() {
                continue;
            }
            let mut ordered = unordered.clone();
            ordered.set_ordered(true);
            let (tu, mu) = median_time(REPS, || execute(&idx, &unordered, Algorithm::Auto));
            let (to, mo) = median_time(REPS, || execute(&idx, &ordered, Algorithm::Auto));
            println!(
                "| {} | {} | {} | {} | {} | {} | {:.2}× |",
                ds,
                q.id,
                mu.len(),
                mo.len(),
                fmt_duration(tu),
                fmt_duration(to),
                to.as_secs_f64() / tu.as_secs_f64().max(1e-12),
            );
        }
    }
    println!();
}

// ---------------------------------------------------------------- E8 ----
fn e8_scalability() {
    println!("## E8 (Figure 8) — scalability on dblp-like (query D2, completion prefix \"a\")\n");
    println!(
        "| scale | elements | naive | structural-join | completion aware | completion global |"
    );
    println!("|---|---|---|---|---|---|");
    let pattern = parse_query("//article[author][title]/year").unwrap();
    for scale in [1u32, 2, 4, 8, 16] {
        let idx = fixture(Dataset::DblpLike, scale);
        let (t_naive, _) = median_time(REPS, || execute(&idx, &pattern, Algorithm::Naive));
        let (t_sj, _) = median_time(REPS, || execute(&idx, &pattern, Algorithm::StructuralJoin));
        let engine = CompletionEngine::new(&idx);
        let ctx = PositionContext::from_tag_path(&["dblp", "article"], Axis::Child);
        let (t_aware, _) = median_time(REPS, || engine.complete_tag(&ctx, "a", 10));
        let (t_global, _) = median_time(REPS, || engine.complete_tag_global("a", 10));
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            scale,
            idx.stats().element_count,
            fmt_duration(t_naive),
            fmt_duration(t_sj),
            fmt_duration(t_aware),
            fmt_duration(t_global),
        );
    }
    println!();

    // The navigation/join crossover lives on recursive data: descendant
    // axes force the navigational baseline to rescan whole subtrees.
    println!("### E8b: recursive data (treebank-like, query T2 `//s//vp//nn`)\n");
    println!("| scale | elements | matches | naive | structural-join |");
    println!("|---|---|---|---|---|");
    let pattern = parse_query("//s//vp//nn").unwrap();
    for scale in [1u32, 2, 4, 8] {
        let idx = fixture(Dataset::TreebankLike, scale);
        let (t_naive, m) = median_time(REPS, || execute(&idx, &pattern, Algorithm::Naive));
        let (t_sj, _) = median_time(REPS, || execute(&idx, &pattern, Algorithm::StructuralJoin));
        println!(
            "| {} | {} | {} | {} | {} |",
            scale,
            idx.stats().element_count,
            m.len(),
            fmt_duration(t_naive),
            fmt_duration(t_sj),
        );
    }
    println!();
}

// ---------------------------------------------------------------- E9 ----
fn e9_ablations() {
    println!("## E9 — ablations\n");

    println!("### E9a: DataGuide filtering off (completion = global) — candidate-set blowup\n");
    println!("| dataset | avg candidates with DataGuide | avg candidates without | blowup |");
    println!("|---|---|---|---|");
    for ds in Dataset::ALL {
        let idx = fixture(ds, 2);
        let engine = CompletionEngine::new(&idx);
        let traces = queries::completion_traces(ds);
        let (with, without): (usize, usize) = traces
            .iter()
            .filter(|t| !t.context_path.is_empty())
            .map(|t| {
                let ctx = PositionContext::from_tag_path(t.context_path, Axis::Child);
                (
                    engine.complete_tag(&ctx, "", usize::MAX).len(),
                    engine.complete_tag_global("", usize::MAX).len(),
                )
            })
            .fold((0, 0), |acc, (a, b)| (acc.0 + a, acc.1 + b));
        let n = traces.iter().filter(|t| !t.context_path.is_empty()).count() as f64;
        println!(
            "| {} | {:.1} | {:.1} | {:.1}× |",
            ds,
            with as f64 / n,
            without as f64 / n,
            without as f64 / with.max(1) as f64,
        );
    }
    println!();

    println!("### E9b: rewrite pruning off — wasted executions\n");
    println!("| dataset | executions (pruned) | pruned away | executions (unpruned) | latency pruned | latency unpruned |");
    println!("|---|---|---|---|---|---|");
    for ds in Dataset::ALL {
        let idx = fixture(ds, 1);
        let pruned = Rewriter::new(&idx, RewriterConfig::default());
        let unpruned = Rewriter::new(
            &idx,
            RewriterConfig {
                guide_pruning: false,
            },
        );
        let mut pe = 0usize;
        let mut pa = 0usize;
        let mut ue = 0usize;
        let mut tp = std::time::Duration::ZERO;
        let mut tu = std::time::Duration::ZERO;
        for q in queries::broken_queries(ds) {
            let pattern = parse_query(q.text).unwrap();
            let (t1, (_, s1)) = time_once(|| pruned.rewrite(&pattern, &QueryGuard::unlimited()));
            let (t2, (_, s2)) = time_once(|| unpruned.rewrite(&pattern, &QueryGuard::unlimited()));
            pe += s1.executions;
            pa += s1.pruned_unsatisfiable;
            ue += s2.executions;
            tp += t1;
            tu += t2;
        }
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            ds,
            pe,
            pa,
            ue,
            fmt_duration(tp),
            fmt_duration(tu)
        );
    }
    println!();
}
