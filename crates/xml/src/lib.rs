//! # lotusx-xml
//!
//! From-scratch XML substrate for the LotusX reproduction: a zero-copy pull
//! tokenizer, a columnar document tree over byte arenas, a
//! well-formedness-checking parser and an escaping serializer.
//!
//! The scope is deliberately what the twig-search literature's corpora
//! (DBLP, XMark, TreeBank) hold: a document is elements, attributes and
//! text, built one way, in preorder. The parser reads CDATA sections,
//! the five predefined entities and numeric character references into
//! text, drops whitespace-only text, and skips comments, processing
//! instructions and the prolog. Namespaces are treated as plain
//! prefixed names (as the original LotusX demo does) and DTD internal
//! subsets are skipped, not validated. Serialization is compact.
//!
//! ```
//! use lotusx_xml::Document;
//!
//! let doc = Document::parse_str("<bib><book year='1999'><title>XML</title></book></bib>")
//!     .expect("well-formed");
//! let root = doc.root_element().expect("has a root");
//! assert_eq!(doc.tag_name(root), Some("bib"));
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod escape;
pub mod parser;
pub mod serializer;
pub mod symbols;
pub mod tokenizer;
pub mod tree;

pub use error::{Error, Result, TextPos};
pub use symbols::{Symbol, SymbolTable};
pub use tokenizer::{Token, Tokenizer};
pub use tree::{AttributeIter, Attributes, Document, NodeId, NodeKind};
