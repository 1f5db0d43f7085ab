//! Deep-twig analytics over an XMark-like auction site, comparing the five
//! join algorithms on the same queries.
//!
//! ```sh
//! cargo run --release --example auction_analytics
//! ```

use lotusx::{Algorithm, LotusX, QueryRequest};
use lotusx_datagen::{generate, Dataset};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let doc = generate(Dataset::XmarkLike, 2, 7);
    let system = LotusX::load_document(doc);
    let stats = system.index().stats();
    println!(
        "auction site: {} elements, max depth {}, {} distinct tags\n",
        stats.element_count, stats.max_depth, stats.distinct_tags
    );

    let queries = [
        ("auctions with bidders", "//open_auction[bidder]/current"),
        ("big bids", "//open_auction[bidder/increase >= 25]/itemref"),
        (
            "rich bidders' names",
            "//person[profile[income >= 100000]]/name",
        ),
        ("keyword'd items", "//item[description//text/keyword]/name"),
    ];

    for (label, query) in queries {
        println!("{label}: {query}");
        let response = system.query(&QueryRequest::twig(query))?;
        println!("  {} matches", response.total_matches);
        if let Some(best) = response.matches.first() {
            println!("  best: [{:.3}] {}", best.score, best.snippet);
        }
    }

    // Same query through every algorithm — identical answers, different
    // costs (run with --release to see the spread clearly). The override
    // rides on the request, so no engine reconfiguration is needed.
    println!("\nalgorithm comparison on //open_auction[bidder/increase >= 25]/itemref:");
    for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
        let request =
            QueryRequest::twig("//open_auction[bidder/increase >= 25]/itemref").algorithm(algo);
        let start = Instant::now();
        let response = system.query(&request)?;
        println!(
            "  {:<16} {:>6} matches in {:>9.3?}",
            algo.to_string(),
            response.total_matches,
            start.elapsed()
        );
    }
    Ok(())
}
