//! Parser: tokenizer → [`Document`] with well-formedness checks.

use crate::error::{Error, Result, TextPos};
use crate::escape::{needs_unescaping, unescape};
use crate::tokenizer::{Token, Tokenizer};
use crate::tree::{Document, NodeId, NodeKind};
use std::borrow::Cow;

/// Options controlling parsing behaviour.
#[derive(Clone, Copy, Debug)]
pub struct ParseOptions {
    /// Drop text nodes that consist only of whitespace (the usual setting
    /// for data-centric XML like DBLP/XMark).
    pub trim_whitespace_text: bool,
    /// Keep comment nodes in the tree.
    pub keep_comments: bool,
    /// Keep processing-instruction nodes in the tree.
    pub keep_pis: bool,
    /// Maximum element nesting depth (guards against stack abuse).
    pub max_depth: u32,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            trim_whitespace_text: true,
            keep_comments: false,
            keep_pis: false,
            max_depth: 2048,
        }
    }
}

impl Document {
    /// Parses `input` with default options.
    pub fn parse_str(input: &str) -> Result<Document> {
        Document::parse_with_options(input, ParseOptions::default())
    }

    /// Parses `input` with the given options.
    pub fn parse_with_options(input: &str, options: ParseOptions) -> Result<Document> {
        let mut doc = Document::new();
        let mut tokenizer = Tokenizer::new(input);
        // Stack of open elements; the virtual root is always at the bottom.
        let mut stack: Vec<NodeId> = vec![NodeId::DOCUMENT];
        let mut seen_root = false;

        while let Some(token) = tokenizer.next_token()? {
            let parent = *stack.last().expect("stack never empty");
            match token {
                Token::XmlDecl { .. } | Token::Doctype { .. } => {
                    // Prolog items: accepted, not materialized.
                }
                Token::StartTag {
                    name,
                    attributes,
                    self_closing,
                } => {
                    if parent == NodeId::DOCUMENT && seen_root {
                        return Err(Error::InvalidDocumentStructure {
                            detail: "more than one root element",
                            pos: TextPos::from_offset(input, tokenizer.offset()),
                        });
                    }
                    if stack.len() as u32 > options.max_depth {
                        return Err(Error::TooDeep {
                            limit: options.max_depth,
                        });
                    }
                    let elem = doc.new_element(name);
                    for (i, attr) in attributes.iter().enumerate() {
                        if attributes[..i].iter().any(|a| a.name == attr.name) {
                            return Err(Error::DuplicateAttribute {
                                name: attr.name.to_string(),
                                pos: TextPos::from_offset(input, attr.value_offset),
                            });
                        }
                        let value = unescaped(attr.raw_value, input, attr.value_offset)?;
                        doc.set_attribute(elem, attr.name, value);
                    }
                    doc.append_child(parent, elem);
                    if parent == NodeId::DOCUMENT {
                        seen_root = true;
                    }
                    if !self_closing {
                        stack.push(elem);
                    }
                }
                Token::EndTag { name } => {
                    if stack.len() == 1 {
                        return Err(Error::UnexpectedClosingTag {
                            found: name.to_string(),
                            pos: TextPos::from_offset(input, tokenizer.offset()),
                        });
                    }
                    let open = stack.pop().expect("checked non-root");
                    let open_name = doc.tag_name(open).expect("open nodes are elements");
                    if open_name != name {
                        return Err(Error::MismatchedTag {
                            expected: open_name.to_string(),
                            found: name.to_string(),
                            pos: TextPos::from_offset(input, tokenizer.offset()),
                        });
                    }
                }
                Token::Text { raw, offset } => {
                    let is_ws_only = raw.chars().all(|c| c.is_ascii_whitespace());
                    if parent == NodeId::DOCUMENT {
                        if !is_ws_only {
                            return Err(Error::InvalidDocumentStructure {
                                detail: "character data outside the root element",
                                pos: TextPos::from_offset(input, offset),
                            });
                        }
                        continue;
                    }
                    if options.trim_whitespace_text && is_ws_only {
                        continue;
                    }
                    doc.append_text(parent, unescaped(raw, input, offset)?);
                }
                Token::CData { text } => {
                    if parent == NodeId::DOCUMENT {
                        return Err(Error::InvalidDocumentStructure {
                            detail: "CDATA outside the root element",
                            pos: TextPos::from_offset(input, tokenizer.offset()),
                        });
                    }
                    doc.append_text(parent, text);
                }
                Token::Comment { text } => {
                    if options.keep_comments {
                        let c = doc.new_comment(text);
                        doc.append_child(parent, c);
                    }
                }
                Token::ProcessingInstruction { target, data } => {
                    if options.keep_pis {
                        let pi = doc.new_pi(target, data);
                        doc.append_child(parent, pi);
                    }
                }
            }
        }

        if stack.len() > 1 {
            let tag = doc
                .tag_name(*stack.last().expect("non-empty"))
                .unwrap_or("?")
                .to_string();
            return Err(Error::UnclosedElements { tag });
        }
        if !seen_root {
            return Err(Error::InvalidDocumentStructure {
                detail: "document has no root element",
                pos: TextPos::from_offset(input, input.len()),
            });
        }
        doc.shrink_to_fit();
        Ok(doc)
    }
}

/// `raw` with its entity and character references resolved, borrowed
/// unless it has any: the document copies it into its arena either way.
fn unescaped<'a>(raw: &'a str, input: &str, offset: usize) -> Result<Cow<'a, str>> {
    Ok(if needs_unescaping(raw) {
        Cow::Owned(unescape(raw, input, offset)?)
    } else {
        Cow::Borrowed(raw)
    })
}

/// Merges adjacent text children created by CDATA/text interleaving.
///
/// The parser may produce adjacent text nodes (e.g. `a<![CDATA[b]]>c`);
/// most consumers are fine with that, but canonical comparisons want them
/// merged. The first node of each run receives the whole text; the
/// others stay in the tree, emptied, which serializers skip. Returns the
/// number of merges performed.
pub fn coalesce_text(doc: &mut Document) -> usize {
    // Plan first (the walk borrows the tree), then rewrite: each run as
    // its head node and length.
    let mut runs: Vec<(NodeId, usize)> = Vec::new();
    for id in doc.all_nodes() {
        if !matches!(doc.kind(id), NodeKind::Document | NodeKind::Element { .. }) {
            continue;
        }
        let mut run: Option<(NodeId, usize)> = None;
        for child in doc.children(id) {
            let is_text = matches!(doc.kind(child), NodeKind::Text(_));
            match (&mut run, is_text) {
                (Some((_, len)), true) => *len += 1,
                (None, true) => run = Some((child, 1)),
                (_, false) => runs.extend(run.take().filter(|&(_, len)| len > 1)),
            }
        }
        runs.extend(run.filter(|&(_, len)| len > 1));
    }
    let mut merged = 0usize;
    let mut combined = String::new();
    for (head, len) in runs {
        combined.clear();
        let mut node = Some(head);
        for _ in 0..len {
            let text = node.expect("run of text siblings");
            if let NodeKind::Text(t) = doc.kind(text) {
                combined.push_str(t);
            }
            if text != head {
                doc.set_text_content(text, "");
            }
            node = doc.next_sibling(text);
        }
        doc.set_text_content(head, &combined);
        merged += len - 1;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = Document::parse_str(
            "<bib><book year=\"1999\"><title>XML</title><author>Lu</author></book></bib>",
        )
        .unwrap();
        let bib = doc.root_element().unwrap();
        assert_eq!(doc.tag_name(bib), Some("bib"));
        let book = doc.element_children(bib).next().unwrap();
        assert_eq!(doc.attribute(book, "year"), Some("1999"));
        let tags: Vec<&str> = doc
            .element_children(book)
            .filter_map(|c| doc.tag_name(c))
            .collect();
        assert_eq!(tags, vec!["title", "author"]);
        assert_eq!(doc.full_text(book), "XMLLu");
    }

    #[test]
    fn unescapes_text_and_attributes() {
        let doc = Document::parse_str(r#"<a k="x &amp; y">1 &lt; 2</a>"#).unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.attribute(a, "k"), Some("x & y"));
        assert_eq!(doc.direct_text(a), "1 < 2");
    }

    #[test]
    fn cdata_becomes_literal_text() {
        let doc = Document::parse_str("<a><![CDATA[<not-a-tag> & raw]]></a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.direct_text(a), "<not-a-tag> & raw");
    }

    #[test]
    fn whitespace_only_text_is_dropped_by_default() {
        let doc = Document::parse_str("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.children(a).count(), 2);
    }

    #[test]
    fn whitespace_text_kept_when_requested() {
        let opts = ParseOptions {
            trim_whitespace_text: false,
            ..ParseOptions::default()
        };
        let doc = Document::parse_with_options("<a> <b/> </a>", opts).unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.children(a).count(), 3);
    }

    #[test]
    fn comments_and_pis_dropped_by_default_kept_on_request() {
        let input = "<a><!--c--><?pi data?><b/></a>";
        let doc = Document::parse_str(input).unwrap();
        assert_eq!(doc.children(doc.root_element().unwrap()).count(), 1);

        let opts = ParseOptions {
            keep_comments: true,
            keep_pis: true,
            ..ParseOptions::default()
        };
        let doc = Document::parse_with_options(input, opts).unwrap();
        let a = doc.root_element().unwrap();
        let kinds: Vec<bool> = doc
            .children(a)
            .map(|c| matches!(doc.kind(c), NodeKind::Comment(_) | NodeKind::Pi { .. }))
            .collect();
        assert_eq!(kinds, vec![true, true, false]);
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = Document::parse_str("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, Error::MismatchedTag { .. }), "{err}");
    }

    #[test]
    fn rejects_unclosed_elements() {
        let err = Document::parse_str("<a><b>").unwrap_err();
        assert!(matches!(err, Error::UnclosedElements { .. }));
    }

    #[test]
    fn rejects_stray_closing_tag() {
        let err = Document::parse_str("<a/></b>").unwrap_err();
        assert!(matches!(err, Error::UnexpectedClosingTag { .. }));
    }

    #[test]
    fn rejects_two_roots() {
        let err = Document::parse_str("<a/><b/>").unwrap_err();
        assert!(matches!(err, Error::InvalidDocumentStructure { .. }));
    }

    #[test]
    fn rejects_text_outside_root() {
        let err = Document::parse_str("<a/>stray").unwrap_err();
        assert!(matches!(err, Error::InvalidDocumentStructure { .. }));
    }

    #[test]
    fn rejects_empty_document() {
        let err = Document::parse_str("   ").unwrap_err();
        assert!(matches!(err, Error::InvalidDocumentStructure { .. }));
    }

    #[test]
    fn rejects_duplicate_attributes() {
        let err = Document::parse_str(r#"<a k="1" k="2"/>"#).unwrap_err();
        assert!(matches!(err, Error::DuplicateAttribute { .. }));
    }

    #[test]
    fn enforces_depth_limit() {
        let opts = ParseOptions {
            max_depth: 4,
            ..ParseOptions::default()
        };
        let deep = "<a><a><a><a><a></a></a></a></a></a>";
        let err = Document::parse_with_options(deep, opts).unwrap_err();
        assert!(matches!(err, Error::TooDeep { limit: 4 }));
    }

    #[test]
    fn prolog_is_accepted() {
        let doc = Document::parse_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?><!DOCTYPE a><a/>")
            .unwrap();
        assert_eq!(doc.tag_name(doc.root_element().unwrap()), Some("a"));
    }

    #[test]
    fn coalesce_merges_adjacent_text() {
        let mut doc = Document::parse_str("<a>x<![CDATA[y]]>z</a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.children(a).count(), 3);
        let merged = coalesce_text(&mut doc);
        assert_eq!(merged, 2);
        assert_eq!(doc.direct_text(a), "xyz");
        // First child holds everything.
        let first = doc.first_child(a).unwrap();
        assert!(matches!(doc.kind(first), NodeKind::Text(t) if t == "xyz"));
    }
}
