//! The paper's motivating scenario: a user who knows neither XQuery nor
//! the schema searches a bibliography, building the query incrementally
//! with position-aware auto-completion, then refines it with order
//! sensitivity, and recovers from a typo through automatic rewriting.
//!
//! ```sh
//! cargo run --example bibliography_search
//! ```

use lotusx::{Axis, LotusX, QueryRequest, Session};
use lotusx_datagen::{generate, Dataset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A DBLP-like bibliography (~3k elements, seeded and reproducible).
    let doc = generate(Dataset::DblpLike, 1, 2012);
    let system = LotusX::load_document(doc);
    println!(
        "loaded a DBLP-like bibliography: {} elements, {} distinct tags\n",
        system.index().stats().element_count,
        system.index().stats().distinct_tags
    );

    // --- Scene 1: incremental query building with auto-completion -----
    let mut session = Session::new(&system);
    let root = session.canvas_mut().add_root()?;
    session.focus(root)?;
    println!("user types 'a' into the root node; candidates:");
    for c in session.keystroke('a')? {
        println!("  {} ({})", c.name, c.count);
    }
    session.keystroke('r')?; // "ar"
    session.accept_top()?; // → article
    println!("accepted: article\n");

    let author = session.canvas_mut().add_node(root, Axis::Child)?;
    session.focus(author)?;
    println!("inside //article, the user types 'a'; position-aware candidates:");
    for c in session.keystroke('a')? {
        println!("  {} ({} at this position)", c.name, c.count);
    }
    session.keystroke('u')?;
    session.accept_top()?; // → author
    let title = session.canvas_mut().add_node(root, Axis::Child)?;
    session.canvas_mut().set_tag(title, "title")?;
    session.canvas_mut().set_output(title, true)?;

    let pattern = session.canvas().to_pattern()?;
    println!("\ncanvas compiles to: {pattern}");
    let outcome = session.run()?;
    println!("→ {} matches; top 3:", outcome.total_matches);
    for r in outcome.matches.iter().take(3) {
        println!("  [{:.3}] {}", r.score, r.snippet);
    }

    // --- Scene 2: order-sensitive refinement ---------------------------
    // Only publications where an author appears BEFORE the title (the
    // generator emits authors first, so this keeps all matches; flipping
    // the sibling order would drop them all).
    session.canvas_mut().set_ordered(true);
    let ordered = session.run()?;
    println!(
        "\norder-sensitive variant keeps {} of {} matches",
        ordered.total_matches, outcome.total_matches
    );

    // --- Scene 3: typo recovery via rewriting --------------------------
    let broken = system.query(&QueryRequest::twig("//artcle/author"))?;
    if let Some(info) = &broken.rewrite {
        println!(
            "\nuser typo '//artcle/author' → rewritten to {} ({:?}), {} matches",
            info.pattern, info.ops, broken.total_matches
        );
    }

    // --- Scene 4: value search with ranking -----------------------------
    let response = system.query(&QueryRequest::twig(
        r#"//article[author ~ "smith"][year >= 2000]/title"#,
    ))?;
    println!(
        "\npost-2000 articles by Smith: {} matches; best: {}",
        response.total_matches,
        response
            .matches
            .first()
            .map(|r| r.snippet)
            .unwrap_or("(none)")
    );
    Ok(())
}
