//! Quickstart: load a document, run a twig query, read ranked results.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use lotusx::{LotusX, QueryRequest};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Load & index an XML document (one call builds labels, tag
    //    streams, value indexes, completion tries and the DataGuide).
    let system = LotusX::load_str(
        r#"<bib>
             <book year="1999"><title>Data on the Web</title><author>Abiteboul</author></book>
             <book year="2003"><title>XML Handbook</title><author>Goldfarb</author></book>
             <article year="2002"><title>Holistic Twig Joins</title><author>Bruno</author></article>
           </bib>"#,
    )?;

    // 2. Run a twig query: books with a title, output the title.
    let response = system.query(&QueryRequest::twig("//book/title"))?;
    println!("query //book/title → {} matches", response.total_matches);
    for result in response.matches.iter() {
        println!("  [{:.3}] {}", result.score, result.snippet);
    }

    // 3. Value predicates: equality, containment, numeric ranges.
    let response = system.query(&QueryRequest::twig(r#"//book[title ~ "web"]/author"#))?;
    println!(
        "\nbooks about the web → author: {}",
        response.matches.first().expect("one such book").snippet
    );

    // 4. Queries that come back empty are rewritten automatically:
    //    "writer" is not a tag in this document, but its synonym is.
    let response = system.query(&QueryRequest::twig("//book/writer"))?;
    if let Some(rewrite) = &response.rewrite {
        println!(
            "\n//book/writer was empty — rewritten to {} (penalty {:.1}), {} matches",
            rewrite.pattern, rewrite.cost, response.total_matches
        );
    }

    // 5. Position-aware auto-completion: what can follow //book ?
    let completion = system.completion_engine();
    let ctx = lotusx::PositionContext::from_tag_path(&["bib", "book"], lotusx::Axis::Child);
    let candidates = completion.complete_tag(&ctx, "", 5);
    println!("\ntags possible under //bib/book:");
    for c in candidates {
        println!("  {} ({} occurrences at this position)", c.name, c.count);
    }

    // 6. Keyword search: no structure at all — the smallest subtrees
    //    covering every term, ranked.
    let response = system.query(&QueryRequest::keyword("holistic bruno"))?;
    println!("\nkeyword search 'holistic bruno':");
    for h in response.matches.iter() {
        println!("  [{:.3}] {}", h.score, h.snippet);
    }

    // 7. Per-request knobs ride on the request: top-k, algorithm, and an
    //    execution profile showing where the time went.
    let request = QueryRequest::twig("//book[@year >= 2000]/title")
        .top_k(5)
        .profiled(true);
    let response = system.query(&request)?;
    println!(
        "\npost-2000 books (by attribute): {} match",
        response.total_matches
    );
    let profile = response.profile.expect("requested with .profiled(true)");
    print!("{}", profile.render());

    // 8. Binary snapshots.
    let path = std::env::temp_dir().join("quickstart.ltsx");
    system.save_snapshot(&path)?;
    let reopened = lotusx::LotusX::load_file(&path)?;
    println!(
        "\nsnapshot reopened: {} elements",
        reopened.index().stats().element_count
    );
    std::fs::remove_file(&path)?;
    Ok(())
}
