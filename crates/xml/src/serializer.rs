//! Serialization of a [`Document`] (or subtree) back to XML text.

use crate::escape::{escape_attr_into, escape_text_into};
use crate::tree::{Document, NodeId, NodeKind};

impl Document {
    /// Serializes the whole document compactly.
    pub fn to_xml(&self) -> String {
        self.serialize(NodeId::DOCUMENT)
    }

    /// Serializes the subtree rooted at `id` compactly, adding no
    /// whitespace (the node itself included; passing
    /// [`NodeId::DOCUMENT`] serializes every top-level node).
    pub fn serialize(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.serialize_node(id, &mut out);
        out
    }

    fn serialize_node(&self, id: NodeId, out: &mut String) {
        match self.kind(id) {
            NodeKind::Document => {
                for child in self.children(id) {
                    self.serialize_node(child, out);
                }
            }
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
                let mut children = self
                    .children(id)
                    .filter(|&c| !matches!(self.kind(c), NodeKind::Text("")))
                    .peekable();
                if children.peek().is_none() {
                    out.push_str("/>");
                    return;
                }
                out.push('>');
                for child in children {
                    self.serialize_node(child, out);
                }
                out.push_str("</");
                out.push_str(self.symbols().resolve(name));
                out.push('>');
            }
            NodeKind::Text(text) => escape_text_into(text, out),
        }
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
    fn subtree_serialization() {
        let doc = Document::parse_str("<a><b><c>x</c></b></a>").unwrap();
        let a = doc.root_element().unwrap();
        let b = doc.element_children(a).next().unwrap();
        assert_eq!(doc.serialize(b), "<b><c>x</c></b>");
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
