//! Serialization of a [`Document`] (or subtree) back to XML text.

use crate::escape::{escape_attr_into, escape_text_into};
use crate::tree::{Document, NodeId, NodeKind};

/// Options controlling serialization.
#[derive(Clone, Copy, Debug)]
pub struct SerializeOptions {
    /// Pretty-print with indentation (one element per line). When false,
    /// output is compact with no added whitespace.
    pub pretty: bool,
    /// Spaces per indent level when pretty-printing.
    pub indent: usize,
}

impl Default for SerializeOptions {
    fn default() -> Self {
        SerializeOptions {
            pretty: false,
            indent: 2,
        }
    }
}

impl Document {
    /// Serializes the whole document compactly.
    pub fn to_xml(&self) -> String {
        self.serialize(NodeId::DOCUMENT, SerializeOptions::default())
    }

    /// Serializes the whole document with pretty-printing.
    pub fn to_xml_pretty(&self) -> String {
        self.serialize(
            NodeId::DOCUMENT,
            SerializeOptions {
                pretty: true,
                ..SerializeOptions::default()
            },
        )
    }

    /// Serializes the subtree rooted at `id` (the node itself included;
    /// passing [`NodeId::DOCUMENT`] serializes every top-level node).
    pub fn serialize(&self, id: NodeId, options: SerializeOptions) -> String {
        let mut out = String::new();
        if id == NodeId::DOCUMENT {
            for child in self.children(id) {
                self.serialize_node(child, &options, 0, &mut out);
                if options.pretty {
                    out.push('\n');
                }
            }
            if options.pretty && out.ends_with('\n') {
                out.pop();
            }
        } else {
            self.serialize_node(id, &options, 0, &mut out);
        }
        out
    }

    fn serialize_node(&self, id: NodeId, opts: &SerializeOptions, depth: usize, out: &mut String) {
        match self.kind(id) {
            NodeKind::Document => {}
            NodeKind::Element { name, attributes } => {
                out.push('<');
                out.push_str(self.symbols().resolve(name));
                for (attr, value) in attributes {
                    out.push(' ');
                    out.push_str(self.symbols().resolve(attr));
                    out.push_str("=\"");
                    escape_attr_into(value, out);
                    out.push('"');
                }
                // Empty text nodes (left behind by text coalescing) are
                // invisible to serialization.
                let children = self
                    .children(id)
                    .filter(|&c| !matches!(self.kind(c), NodeKind::Text("")));
                if children.clone().next().is_none() {
                    out.push_str("/>");
                    return;
                }
                out.push('>');
                let only_text = children
                    .clone()
                    .all(|c| matches!(self.kind(c), NodeKind::Text(_)));
                if opts.pretty && !only_text {
                    for child in children {
                        out.push('\n');
                        push_indent(out, opts.indent * (depth + 1));
                        self.serialize_node(child, opts, depth + 1, out);
                    }
                    out.push('\n');
                    push_indent(out, opts.indent * depth);
                } else {
                    for child in children {
                        self.serialize_node(child, opts, depth + 1, out);
                    }
                }
                out.push_str("</");
                out.push_str(self.symbols().resolve(name));
                out.push('>');
            }
            NodeKind::Text(text) => escape_text_into(text, out),
            NodeKind::Comment(text) => {
                out.push_str("<!--");
                out.push_str(text);
                out.push_str("-->");
            }
            NodeKind::Pi { target, data } => {
                out.push_str("<?");
                out.push_str(target);
                if !data.is_empty() {
                    out.push(' ');
                    out.push_str(data);
                }
                out.push_str("?>");
            }
        }
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push(' ');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Document;

    #[test]
    fn compact_roundtrip() {
        let src = r#"<bib><book year="1999"><title>XML &amp; more</title></book><note/></bib>"#;
        let doc = Document::parse_str(src).unwrap();
        assert_eq!(doc.to_xml(), src);
    }

    #[test]
    fn escapes_attribute_quotes() {
        let mut doc = Document::new();
        let e = doc.append_element(NodeId::DOCUMENT, "a");
        doc.set_attribute(e, "k", "say \"hi\"");
        assert_eq!(doc.to_xml(), r#"<a k="say &quot;hi&quot;"/>"#);
    }

    #[test]
    fn pretty_print_indents_elements_but_not_text_leaves() {
        let doc = Document::parse_str("<a><b>t</b><c><d/></c></a>").unwrap();
        let pretty = doc.to_xml_pretty();
        assert_eq!(pretty, "<a>\n  <b>t</b>\n  <c>\n    <d/>\n  </c>\n</a>");
    }

    #[test]
    fn subtree_serialization() {
        let doc = Document::parse_str("<a><b><c>x</c></b></a>").unwrap();
        let a = doc.root_element().unwrap();
        let b = doc.element_children(a).next().unwrap();
        assert_eq!(
            doc.serialize(b, SerializeOptions::default()),
            "<b><c>x</c></b>"
        );
    }

    #[test]
    fn comments_and_pis_serialize() {
        let opts = crate::ParseOptions {
            keep_comments: true,
            keep_pis: true,
            ..crate::ParseOptions::default()
        };
        let src = "<a><!--note--><?target data?></a>";
        let doc = Document::parse_with_options(src, opts).unwrap();
        assert_eq!(doc.to_xml(), src);
    }

    #[test]
    fn parse_serialize_parse_is_stable() {
        let src = "<r><x i=\"1\">a&lt;b</x><y><z/></y></r>";
        let doc = Document::parse_str(src).unwrap();
        let once = doc.to_xml();
        let doc2 = Document::parse_str(&once).unwrap();
        assert_eq!(doc2.to_xml(), once);
    }
}
