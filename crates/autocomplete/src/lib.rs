//! # lotusx-autocomplete
//!
//! LotusX's headline feature: *position-aware*, on-the-fly auto-completion
//! of tags and values while the user builds a twig query on the canvas.
//!
//! The key idea: when the user types into a query node, the candidates are
//! not all tags with that prefix but only the tags that can actually occur
//! **at that position of the partial twig**. The position is resolved
//! against the DataGuide structural summary (hundreds of nodes even for
//! huge documents), so candidate filtering never touches the data — the
//! per-keystroke cost the demo depends on.
//!
//! ```
//! use lotusx_autocomplete::{CompletionEngine, PositionContext};
//! use lotusx_index::IndexedDocument;
//! use lotusx_twig::Axis;
//!
//! let idx = IndexedDocument::from_str(
//!     "<bib><book><title>t</title><author>a</author></book><article><title>u</title></article></bib>"
//! ).unwrap();
//! let engine = CompletionEngine::new(&idx);
//!
//! // User is inside //bib/book and types "t": only title fits there.
//! let ctx = PositionContext::from_tag_path(&["bib", "book"], Axis::Child);
//! let cands = engine.complete_tag(&ctx, "t", 10);
//! assert_eq!(cands.len(), 1);
//! assert_eq!(cands[0].name, "title");
//! ```

#![warn(missing_docs)]

pub mod context;
pub mod engine;
pub mod session;

pub use context::{ContextStep, PositionContext};
pub use engine::{CompletionEngine, TagCandidate, ValueCandidate, ValueTrieCache};
pub use session::CompletionState;
