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

/// Calibrates the price of a child edge: reduces `//p/c` alone for every
/// child edge between two tags in the canonical queries, and fits
/// `ns = per_child * |c| + per_parent * |p|` by least squares.
#[test]
#[ignore]
fn fit_child_edge_cost() {
    use lotusx_bench::min_time;
    use lotusx_guard::QueryGuard;
    use lotusx_twig::algorithms::structural_join::reduce;
    use lotusx_twig::{Axis, NodeTest};
    let guard = QueryGuard::unlimited();
    // Sums for the normal equations of the two-parameter fit.
    let (mut cc, mut cp, mut pp, mut ct, mut pt) = (0f64, 0f64, 0f64, 0f64, 0f64);
    for ds in Dataset::ALL {
        let idx = fixture(ds, 8);
        let mut seen = std::collections::HashSet::new();
        for q in queries(ds) {
            let p = parse_query(q.text).unwrap();
            for id in p.node_ids() {
                let node = p.node(id);
                let Some(parent) = node.parent else { continue };
                let (NodeTest::Tag(pt_), NodeTest::Tag(ct_)) = (&p.node(parent).test, &node.test)
                else {
                    continue;
                };
                if node.axis != Axis::Child || !seen.insert((pt_.clone(), ct_.clone())) {
                    continue;
                }
                let edge = parse_query(&format!("//{pt_}/{ct_}")).unwrap();
                let len = |tag: &str| {
                    let sym = idx.document().symbols().get(tag).unwrap();
                    idx.columns().view(sym).len() as f64
                };
                let (s_p, s_c) = (len(pt_), len(ct_));
                let (t, count) = min_time(200, || reduce(&idx, &edge, &guard).count());
                let ns = t.as_nanos() as f64;
                println!(
                    "{:13} //{pt_}/{ct_}: |p|={s_p:>6} |c|={s_c:>6} matches={count:>6} \
                     {:>8.1} us  {:.2} ns/(|p|+|c|)",
                    ds.name(),
                    ns / 1e3,
                    ns / (s_p + s_c)
                );
                (cc, cp, pp) = (cc + s_c * s_c, cp + s_c * s_p, pp + s_p * s_p);
                (ct, pt) = (ct + s_c * ns, pt + s_p * ns);
            }
        }
    }
    let det = cc * pp - cp * cp;
    let per_child = (ct * pp - pt * cp) / det;
    let per_parent = (pt * cc - ct * cp) / det;
    println!("fit: {per_child:.2} ns per child + {per_parent:.2} ns per parent");
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
