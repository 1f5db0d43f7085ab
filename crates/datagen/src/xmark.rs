//! XMark-like auction-site generator: moderate depth, mixed structure.
//!
//! Follows the XMark benchmark's `<site>` schema in miniature: regions
//! with items, people with optional profiles, and open auctions with
//! bidder sequences — the mix of optional elements, repetition and
//! moderate nesting (depth 6–8) that makes XMark the standard "mixed"
//! workload of the twig-join papers.

use crate::rng::XorShiftRng;
use crate::words::{zipf_words, Zipf, NAMES, WORDS};
use lotusx_xml::{Document, NodeId};

/// People generated per unit of scale.
pub const PEOPLE_PER_SCALE: u32 = 120;
/// Items generated per unit of scale.
pub const ITEMS_PER_SCALE: u32 = 160;
/// Open auctions generated per unit of scale.
pub const AUCTIONS_PER_SCALE: u32 = 120;

const REGIONS: [&str; 5] = ["africa", "asia", "europe", "namerica", "samerica"];

/// Generates an XMark-like document.
pub fn generate(scale: u32, seed: u64) -> Document {
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let word_zipf = Zipf::new(WORDS.len(), 1.0);
    let mut doc = Document::new();
    let site = doc.append_element(NodeId::DOCUMENT, "site");

    // Regions with items.
    let regions = doc.append_element(site, "regions");
    let items = scale * ITEMS_PER_SCALE;
    for i in 0..items {
        let region_tag = REGIONS[rng.gen_range(0..REGIONS.len())];
        // Reuse existing region element or create it lazily.
        let existing = doc
            .element_children(regions)
            .find(|&r| doc.tag_name(r) == Some(region_tag));
        let region = match existing {
            Some(r) => r,
            None => doc.append_element(regions, region_tag),
        };
        let item = doc.append_element(region, "item");
        doc.set_attribute(item, "id", format!("item{i}"));
        let name = doc.append_element(item, "name");
        doc.append_text(name, zipf_words(&mut rng, &word_zipf, 2));
        let description = doc.append_element(item, "description");
        let text = doc.append_element(description, "text");
        let desc_len = 4 + rng.gen_range(0..8);
        doc.append_text(text, zipf_words(&mut rng, &word_zipf, desc_len));
        for _ in 0..rng.gen_range(0..3) {
            let keyword = doc.append_element(text, "keyword");
            doc.append_text(keyword, WORDS[word_zipf.sample(&mut rng) % WORDS.len()]);
        }
        if rng.gen_bool(0.6) {
            let quantity = doc.append_element(item, "quantity");
            doc.append_text(quantity, format!("{}", rng.gen_range(1..10)));
        }
    }

    // People.
    let people = doc.append_element(site, "people");
    let person_count = scale * PEOPLE_PER_SCALE;
    for i in 0..person_count {
        let person = doc.append_element(people, "person");
        doc.set_attribute(person, "id", format!("person{i}"));
        let name = doc.append_element(person, "name");
        let surname = NAMES[rng.gen_range(0..NAMES.len())];
        doc.append_text(
            name,
            format!("{} {surname}", NAMES[rng.gen_range(0..NAMES.len())]),
        );
        let email = doc.append_element(person, "emailaddress");
        doc.append_text(email, format!("mailto:{surname}{i}@example.org"));
        if rng.gen_bool(0.55) {
            let profile = doc.append_element(person, "profile");
            let income = doc.append_element(profile, "income");
            doc.append_text(income, format!("{}", 20_000 + rng.gen_range(0..120_000)));
            for _ in 0..rng.gen_range(0..4) {
                let interest = doc.append_element(profile, "interest");
                doc.set_attribute(
                    interest,
                    "category",
                    format!("category{}", rng.gen_range(0..20)),
                );
            }
            if rng.gen_bool(0.4) {
                let education = doc.append_element(profile, "education");
                doc.append_text(
                    education,
                    ["high school", "college", "graduate school"][rng.gen_range(0..3)],
                );
            }
        }
    }

    // Open auctions with bidder sequences.
    let open_auctions = doc.append_element(site, "open_auctions");
    let auctions = scale * AUCTIONS_PER_SCALE;
    for i in 0..auctions {
        let auction = doc.append_element(open_auctions, "open_auction");
        doc.set_attribute(auction, "id", format!("auction{i}"));
        let initial = doc.append_element(auction, "initial");
        let mut price = rng.gen_range(1.0..200.0f64);
        doc.append_text(initial, format!("{price:.2}"));
        for _ in 0..rng.gen_range(0..5) {
            let bidder = doc.append_element(auction, "bidder");
            let time = doc.append_element(bidder, "time");
            doc.append_text(
                time,
                format!("{:02}:{:02}:00", rng.gen_range(0..24), rng.gen_range(0..60)),
            );
            let personref = doc.append_element(bidder, "personref");
            doc.set_attribute(
                personref,
                "person",
                format!("person{}", rng.gen_range(0..person_count.max(1))),
            );
            let increase = doc.append_element(bidder, "increase");
            let inc = rng.gen_range(1.0..30.0f64);
            price += inc;
            doc.append_text(increase, format!("{inc:.2}"));
        }
        let current = doc.append_element(auction, "current");
        doc.append_text(current, format!("{price:.2}"));
        let itemref = doc.append_element(auction, "itemref");
        doc.set_attribute(
            itemref,
            "item",
            format!("item{}", rng.gen_range(0..items.max(1))),
        );
        let seller = doc.append_element(auction, "seller");
        doc.set_attribute(
            seller,
            "person",
            format!("person{}", rng.gen_range(0..person_count.max(1))),
        );
        if rng.gen_bool(0.5) {
            let annotation = doc.append_element(auction, "annotation");
            let description = doc.append_element(annotation, "description");
            let text = doc.append_element(description, "text");
            doc.append_text(text, zipf_words(&mut rng, &word_zipf, 5));
            for _ in 0..rng.gen_range(0..2) {
                let keyword = doc.append_element(text, "keyword");
                doc.append_text(keyword, WORDS[word_zipf.sample(&mut rng) % WORDS.len()]);
            }
        }
    }

    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_has_moderate_depth_and_mixed_structure() {
        let doc = generate(1, 21);
        let stats = lotusx_index::Stats::compute(&doc);
        assert!(stats.max_depth >= 6, "depth was {}", stats.max_depth);
        assert!(stats.element_count > 2500);
        for tag in [
            "site",
            "regions",
            "people",
            "person",
            "open_auction",
            "bidder",
            "keyword",
        ] {
            assert!(doc.symbols().get(tag).is_some(), "missing {tag}");
        }
    }

    #[test]
    fn bidder_sequences_are_ordered_time_increase() {
        // The ordered-query experiment relies on bidder children appearing
        // in (time, personref, increase) order.
        let doc = generate(1, 5);
        let mut bidders = 0;
        for n in doc.all_nodes() {
            if doc.tag_name(n) == Some("bidder") {
                bidders += 1;
                let tags: Vec<&str> = doc
                    .element_children(n)
                    .filter_map(|c| doc.tag_name(c))
                    .collect();
                assert_eq!(tags, vec!["time", "personref", "increase"]);
            }
        }
        assert!(bidders > 50, "expected many bidders, got {bidders}");
    }

    #[test]
    fn numeric_fields_parse() {
        let doc = generate(1, 5);
        for n in doc.all_nodes() {
            if doc.tag_name(n) == Some("increase") {
                assert!(doc.direct_text(n).parse::<f64>().is_ok());
            }
        }
    }
}
