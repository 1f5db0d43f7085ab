//! DBLP-like bibliography generator: wide, shallow, Zipf-skewed.
//!
//! Shape mirrors the real DBLP snapshot used throughout the twig-join
//! literature: a flat `<dblp>` root with hundreds of thousands of
//! publication elements of a handful of types, each 3–8 shallow children,
//! authors drawn from a heavily skewed pool, years spanning decades.

use crate::rng::XorShiftRng;
use crate::words::{zipf_words, Zipf, NAMES};
use lotusx_xml::{Document, NodeId};

/// Publications generated per unit of scale.
pub const PUBLICATIONS_PER_SCALE: u32 = 400;

/// Generates a DBLP-like document.
pub fn generate(scale: u32, seed: u64) -> Document {
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let author_zipf = Zipf::new(NAMES.len() * 4, 1.05);
    let word_zipf = Zipf::new(crate::words::WORDS.len(), 1.0);

    let mut doc = Document::new();
    let dblp = doc.append_element(NodeId::DOCUMENT, "dblp");
    let publications = scale * PUBLICATIONS_PER_SCALE;
    for i in 0..publications {
        let kind = match rng.gen_range(0..10) {
            0..=5 => "article",
            6..=8 => "inproceedings",
            _ => "book",
        };
        let publication = doc.append_element(dblp, kind);
        doc.set_attribute(publication, "key", format!("{kind}/{i}"));

        let author_count = 1 + rng.gen_range(0..4).min(rng.gen_range(0..4));
        for _ in 0..author_count {
            let author = doc.append_element(publication, "author");
            let idx = author_zipf.sample(&mut rng);
            let given = NAMES[(idx / NAMES.len() + idx) % NAMES.len()];
            let surname = NAMES[idx % NAMES.len()];
            doc.append_text(author, format!("{given} {surname}"));
        }

        let title = doc.append_element(publication, "title");
        let title_len = 3 + rng.gen_range(0..5);
        doc.append_text(title, zipf_words(&mut rng, &word_zipf, title_len));

        let year = doc.append_element(publication, "year");
        doc.append_text(year, format!("{}", 1975 + rng.gen_range(0..45)));

        match kind {
            "article" => {
                let journal = doc.append_element(publication, "journal");
                doc.append_text(journal, zipf_words(&mut rng, &word_zipf, 2));
                if rng.gen_bool(0.7) {
                    let volume = doc.append_element(publication, "volume");
                    doc.append_text(volume, format!("{}", rng.gen_range(1..60)));
                }
            }
            "inproceedings" => {
                let booktitle = doc.append_element(publication, "booktitle");
                doc.append_text(booktitle, zipf_words(&mut rng, &word_zipf, 2));
                if rng.gen_bool(0.5) {
                    let pages = doc.append_element(publication, "pages");
                    let from = rng.gen_range(1..400);
                    doc.append_text(pages, format!("{from}-{}", from + rng.gen_range(5..20)));
                }
            }
            _ => {
                let publisher = doc.append_element(publication, "publisher");
                doc.append_text(publisher, zipf_words(&mut rng, &word_zipf, 2));
                if rng.gen_bool(0.4) {
                    let isbn = doc.append_element(publication, "isbn");
                    doc.append_text(
                        isbn,
                        format!("978-{}", rng.gen_range(100_000_000..999_999_999u64)),
                    );
                }
            }
        }
        if rng.gen_bool(0.3) {
            let ee = doc.append_element(publication, "ee");
            doc.append_text(ee, format!("https://doi.example/{i}"));
        }
        if rng.gen_bool(0.15) {
            let cite = doc.append_element(publication, "cite");
            doc.append_text(cite, format!("article/{}", rng.gen_range(0..publications)));
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_is_wide_and_shallow() {
        let doc = generate(1, 11);
        let stats = lotusx_index::Stats::compute(&doc);
        assert_eq!(stats.max_depth, 3, "dblp-like is three levels deep");
        assert!(stats.element_count > 2000);
        let root = doc.root_element().unwrap();
        assert_eq!(
            doc.element_children(root).count() as u32,
            PUBLICATIONS_PER_SCALE
        );
    }

    #[test]
    fn publication_types_and_fields_present() {
        let doc = generate(1, 11);
        let syms = doc.symbols();
        for tag in [
            "article",
            "inproceedings",
            "book",
            "author",
            "title",
            "year",
            "journal",
        ] {
            assert!(syms.get(tag).is_some(), "missing tag {tag}");
        }
    }

    #[test]
    fn author_distribution_is_skewed() {
        let doc = generate(2, 13);
        let mut counts: std::collections::HashMap<String, usize> = Default::default();
        for n in doc.all_nodes() {
            if doc.tag_name(n) == Some("author") {
                *counts.entry(doc.direct_text(n).into_owned()).or_default() += 1;
            }
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        assert!(
            freqs[0] >= 5 * freqs[freqs.len() / 2].max(1),
            "head author ({}) should dominate the median ({})",
            freqs[0],
            freqs[freqs.len() / 2]
        );
    }
}
