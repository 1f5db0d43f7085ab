//! Ignored-by-default diagnostics for calibrating the adaptive chooser:
//! dump every (dataset, scale, query) decision with its cost estimates,
//! print the treebank pair statistics the model leans on, and measure
//! the auto policy's per-query overhead against pinned execution.
//!
//! Run with:
//! `cargo test --release -p lotusx-bench --test choice_debug -- --ignored --nocapture`

use lotusx_bench::fixture;
use lotusx_datagen::{queries::queries, Dataset};
use lotusx_twig::xpath::parse_query;
use lotusx_twig::{choose_algorithm, execute, Algorithm};

#[test]
#[ignore]
fn dump_choices() {
    for ds in Dataset::ALL {
        for scale in [1u32, 2, 8] {
            let idx = fixture(ds, scale);
            for q in queries(ds) {
                let p = parse_query(q.text).unwrap();
                let c = choose_algorithm(&idx, &p);
                println!(
                    "{} s{} {:4} {:45} -> {:15} nav={:>10} bin={:>10}",
                    ds.name(),
                    scale,
                    q.id,
                    q.text,
                    c.algorithm.name(),
                    c.nav_cost,
                    c.binary_cost
                );
            }
        }
    }
}

#[test]
#[ignore]
fn time_auto_overhead() {
    use lotusx_bench::min_time;
    let idx = fixture(Dataset::TreebankLike, 1);
    for q in queries(Dataset::TreebankLike) {
        let p = parse_query(q.text).unwrap();
        let pick = choose_algorithm(&idx, &p).algorithm;
        let (t_choose, _) = min_time(200, || choose_algorithm(&idx, &p));
        let (t_pinned, _) = min_time(50, || execute(&idx, &p, pick));
        let (t_auto, _) = min_time(50, || execute(&idx, &p, Algorithm::Auto));
        println!(
            "{:4} pick={:15} choose={:>10?} pinned={:>10?} auto={:>10?} delta={:>10?}",
            q.id,
            pick.name(),
            t_choose,
            t_pinned,
            t_auto,
            t_auto.saturating_sub(t_pinned)
        );
    }
}

#[test]
#[ignore]
fn dump_treebank_stats() {
    let idx = fixture(Dataset::TreebankLike, 1);
    let js = idx.join_stats();
    for tag in ["s", "vp", "np", "pp", "nn", "vb", "dt"] {
        let Some(sym) = idx.document().symbols().get(tag) else {
            continue;
        };
        println!(
            "{:4} freq={:>6} children_total={:>7} subtree_weight={:>8}",
            tag,
            js.tag_frequency(sym),
            js.children_total(sym),
            js.subtree_weight(sym)
        );
    }
    for (a, d) in [
        ("vp", "pp"),
        ("pp", "nn"),
        ("vp", "vb"),
        ("s", "np"),
        ("s", "vp"),
        ("vp", "nn"),
        ("s", "s"),
        ("np", "dt"),
        ("np", "nn"),
    ] {
        let (Some(sa), Some(sd)) = (
            idx.document().symbols().get(a),
            idx.document().symbols().get(d),
        ) else {
            continue;
        };
        println!(
            "{}->{}: child_pairs={} desc_pairs={} desc_mult={}",
            a,
            d,
            js.child_pairs(sa, sd),
            js.descendant_pairs(sa, sd),
            js.descendant_pair_multiplicity(sa, sd)
        );
    }
}
