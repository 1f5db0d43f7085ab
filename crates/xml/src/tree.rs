//! Arena-allocated document tree in preorder, stored as struct-of-arrays
//! columns.
//!
//! A node is a [`NodeId`] into parallel columns, and node ids *are* the
//! preorder: a node's descendants are exactly the ids after it up to
//! its subtree end, the id of its last descendant. So per node the
//! document stores a kind byte, a `u32` parent (`u32::MAX` is "none"),
//! a `u32` subtree end and one `u32` payload pair (17 B), and every
//! other link is arithmetic: the first child of `n` is `n + 1` when that
//! is still inside `n`'s subtree, the next sibling of `c` is one past
//! `c`'s subtree end when that is still inside its parent's, and a
//! subtree is an id range ([`Document::descendants_or_self`]).
//!
//! A document holds what the data-centric corpora hold: elements,
//! attributes and text. Character data — text and attribute values — is
//! appended to one byte arena and addressed by spans; attributes are
//! `(Symbol, span)` runs in one more arena.
//! Building a document therefore allocates per arena growth step, never
//! per node, and [`Document::kind`] hands out a borrowed, `Copy` view
//! ([`NodeKind`]).
//!
//! A document is built one way, in preorder, and grows only at its
//! end: `append_*` adds a node as the last child of a node on the path
//! from the root to the last node appended (the *open* nodes), which
//! closes every open node below that parent. The parser, the snapshot
//! decoder and the generators all append this way.
//!
//! A virtual document root (id 0) holds the root element.

use crate::symbols::{Symbol, SymbolTable};
use std::borrow::Cow;
use std::fmt;

/// Index of a node within a [`Document`] arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The virtual document root.
    pub const DOCUMENT: NodeId = NodeId(0);

    /// Dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a raw index previously obtained via
    /// [`NodeId::index`] on the same document.
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

/// A borrowed view of a tree node's payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind<'a> {
    /// The virtual document root.
    Document,
    /// An element with an interned tag name and its attributes.
    Element {
        /// Interned tag name.
        name: Symbol,
        /// Attributes in document order: interned name and unescaped value.
        attributes: Attributes<'a>,
    },
    /// A text node (already unescaped).
    Text(&'a str),
}

/// A byte range `[start, end)` of the character-data arena.
type Span = [u32; 2];

/// An element's attributes, borrowed from the document's arenas.
/// Iterating yields `(name, value)` pairs in document order.
#[derive(Clone, Copy)]
pub struct Attributes<'a> {
    run: &'a [(Symbol, Span)],
    text: &'a str,
}

impl<'a> Attributes<'a> {
    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// True if the element has no attributes.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// The `(name, value)` pairs in document order.
    pub fn iter(&self) -> AttributeIter<'a> {
        AttributeIter {
            run: self.run.iter(),
            text: self.text,
        }
    }
}

impl PartialEq for Attributes<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Attributes<'_> {}

impl fmt::Debug for Attributes<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for Attributes<'a> {
    type Item = (Symbol, &'a str);
    type IntoIter = AttributeIter<'a>;

    fn into_iter(self) -> AttributeIter<'a> {
        self.iter()
    }
}

/// Iterator over an element's `(name, value)` attribute pairs.
#[derive(Clone)]
pub struct AttributeIter<'a> {
    run: std::slice::Iter<'a, (Symbol, Span)>,
    text: &'a str,
}

impl<'a> Iterator for AttributeIter<'a> {
    type Item = (Symbol, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        let &(name, value) = self.run.next()?;
        Some((name, slice(self.text, value)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.run.size_hint()
    }
}

fn slice(text: &str, [start, end]: Span) -> &str {
    &text[start as usize..end as usize]
}

/// "No parent" in the parent column, "still open" in the subtree-end
/// column and "no attributes" in an element's run slot.
const NONE: u32 = u32::MAX;

// Kind bytes.
const DOCUMENT: u8 = 0;
const ELEMENT: u8 = 1;
const TEXT: u8 = 2;

/// An XML document in preorder: node columns, character-data arenas and
/// the tag/attribute symbol table.
#[derive(Clone, Debug)]
pub struct Document {
    kinds: Vec<u8>,
    parents: Vec<u32>,
    /// Per node: the id of its last descendant (its own for a leaf), or
    /// `NONE` while it is open — on the path from the root to the last
    /// node — which [`subtree_end`](Self::subtree_end) reads as the last
    /// node.
    ends: Vec<u32>,
    /// Per node: an element's tag symbol and attribute-run index
    /// (`NONE` without attributes); a text's span in `text`.
    payloads: Vec<[u32; 2]>,
    /// Every text and attribute value, back to back.
    text: String,
    /// Attribute names and value spans, one run per element.
    attrs: Vec<(Symbol, Span)>,
    /// Per element with attributes: its run in `attrs` as `[start, len]`.
    runs: Vec<[u32; 2]>,
    symbols: SymbolTable,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Creates an empty document containing only the virtual root.
    pub fn new() -> Self {
        Self::with_capacity(1, 0)
    }

    /// An empty document (the virtual root alone) with room for `nodes`
    /// nodes and `text_bytes` bytes of character data, so a loader that
    /// knows its sizes never regrows a column.
    pub fn with_capacity(nodes: usize, text_bytes: usize) -> Self {
        let mut doc = Document {
            kinds: Vec::with_capacity(nodes),
            parents: Vec::with_capacity(nodes),
            ends: Vec::with_capacity(nodes),
            payloads: Vec::with_capacity(nodes),
            text: String::with_capacity(text_bytes),
            attrs: Vec::new(),
            runs: Vec::new(),
            symbols: SymbolTable::new(),
        };
        doc.push_node(DOCUMENT, [0, 0]);
        doc
    }

    /// Releases the spare capacity of every column and arena. Loaders
    /// call it once a document is complete.
    pub fn shrink_to_fit(&mut self) {
        self.kinds.shrink_to_fit();
        self.parents.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.payloads.shrink_to_fit();
        self.text.shrink_to_fit();
        self.attrs.shrink_to_fit();
        self.runs.shrink_to_fit();
    }

    /// Bytes held by the node columns and the arenas (by capacity).
    pub fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        self.kinds.capacity()
            + 4 * (self.parents.capacity() + self.ends.capacity())
            + self.payloads.capacity() * size_of::<[u32; 2]>()
            + self.text.capacity()
            + self.attrs.capacity() * size_of::<(Symbol, Span)>()
            + self.runs.capacity() * size_of::<[u32; 2]>()
    }

    /// The symbol table for tag and attribute names.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Mutable access to the symbol table (the snapshot decoder and the
    /// xmark generator intern names through it).
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Total number of nodes including the virtual root.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of element nodes.
    pub fn element_count(&self) -> usize {
        self.kinds.iter().filter(|&&k| k == ELEMENT).count()
    }

    /// The kind of `id`, borrowed from the document.
    pub fn kind(&self, id: NodeId) -> NodeKind<'_> {
        let [a, b] = self.payloads[id.index()];
        match self.kinds[id.index()] {
            ELEMENT => NodeKind::Element {
                name: Symbol::from_index(a as usize),
                attributes: self.attribute_run(b),
            },
            TEXT => NodeKind::Text(slice(&self.text, [a, b])),
            _ => NodeKind::Document,
        }
    }

    fn attribute_run(&self, run: u32) -> Attributes<'_> {
        let attrs = match self.runs.get(run as usize) {
            Some(&[start, len]) => &self.attrs[start as usize..(start + len) as usize],
            None => &[],
        };
        Attributes {
            run: attrs,
            text: &self.text,
        }
    }

    /// Parent of `id`, if any (the virtual root has none).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.parents[id.index()];
        (p != NONE).then_some(NodeId(p))
    }

    /// The last descendant of `id` in preorder (`id` itself for a leaf):
    /// the subtree of `id` is the ids from `id` to it.
    pub fn subtree_end(&self, id: NodeId) -> NodeId {
        NodeId(self.end(id.0))
    }

    /// [`subtree_end`](Self::subtree_end) by raw id. An open node's
    /// subtree ends at the last node.
    fn end(&self, id: u32) -> u32 {
        self.ends[id as usize].min(self.kinds.len() as u32 - 1)
    }

    /// First child of `id`: the next id, when it lies inside `id`'s
    /// subtree.
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        let child = id.0 + 1;
        (child <= self.end(id.0)).then_some(NodeId(child))
    }

    /// Next sibling of `id`: the id after its subtree, when that still
    /// lies inside its parent's.
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        let parent = self.parents[id.index()];
        let after = self.end(id.0) + 1;
        (parent != NONE && after <= self.end(parent)).then_some(NodeId(after))
    }

    /// True if `id` is an element.
    pub fn is_element(&self, id: NodeId) -> bool {
        self.kinds[id.index()] == ELEMENT
    }

    /// True if `id` is a text node. Unlike [`kind`](Self::kind), reads
    /// no character data.
    pub fn is_text(&self, id: NodeId) -> bool {
        self.kinds[id.index()] == TEXT
    }

    /// The interned tag symbol of an element node.
    pub fn tag(&self, id: NodeId) -> Option<Symbol> {
        self.is_element(id)
            .then(|| Symbol::from_index(self.payloads[id.index()][0] as usize))
    }

    /// The tag name string of an element node.
    pub fn tag_name(&self, id: NodeId) -> Option<&str> {
        self.tag(id).map(|s| self.symbols.resolve(s))
    }

    /// The root element (first element child of the virtual root).
    pub fn root_element(&self) -> Option<NodeId> {
        self.children(NodeId::DOCUMENT)
            .find(|&c| self.is_element(c))
    }

    /// Attribute value by name on an element node.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        let sym = self.symbols.get(name)?;
        match self.kind(id) {
            NodeKind::Element { attributes, .. } => attributes
                .into_iter()
                .find(|&(n, _)| n == sym)
                .map(|(_, v)| v),
            _ => None,
        }
    }

    /// All attributes of an element, resolved to `(&str, &str)` pairs.
    pub fn attributes(&self, id: NodeId) -> Vec<(&str, &str)> {
        match self.kind(id) {
            NodeKind::Element { attributes, .. } => attributes
                .into_iter()
                .map(|(n, v)| (self.symbols.resolve(n), v))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Iterates over the children of `id` in document order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: id.0 + 1,
            end: self.end(id.0),
        }
    }

    /// Iterates over element children of `id`.
    pub fn element_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).filter(move |&c| self.is_element(c))
    }

    /// Preorder (document-order) traversal of the subtree rooted at `id`,
    /// including `id` itself: the ids from `id` to its subtree end.
    pub fn descendants_or_self(&self, id: NodeId) -> Descendants {
        Descendants {
            ids: id.0..self.end(id.0) + 1,
        }
    }

    /// Preorder traversal of the whole document, the virtual root first.
    pub fn all_nodes(&self) -> Descendants {
        Descendants {
            ids: 0..self.kinds.len() as u32,
        }
    }

    /// Ancestors of `id`, nearest first, excluding the virtual root.
    pub fn ancestors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut cur = self.parent(id);
        std::iter::from_fn(move || {
            let node = cur?;
            if node == NodeId::DOCUMENT {
                return None;
            }
            cur = self.parent(node);
            Some(node)
        })
    }

    /// Depth of `id`: the root element has depth 1.
    pub fn depth(&self, id: NodeId) -> u32 {
        let mut d = 0;
        let mut cur = Some(id);
        while let Some(n) = cur {
            if n == NodeId::DOCUMENT {
                break;
            }
            d += 1;
            cur = self.parent(n);
        }
        d
    }

    /// Concatenated text of the *direct* text children of `id`: borrowed
    /// from the arena when at most one of them is non-empty.
    pub fn direct_text(&self, id: NodeId) -> Cow<'_, str> {
        join_texts(self.children(id).map(|c| self.kind(c)))
    }

    /// Concatenated text of all descendant text nodes of `id`.
    pub fn full_text(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.descendants_or_self(id) {
            if let NodeKind::Text(t) = self.kind(n) {
                out.push_str(t);
            }
        }
        out
    }

    /// Root-to-node tag path of an element, e.g. `["bib", "book", "title"]`.
    pub fn tag_path(&self, id: NodeId) -> Vec<Symbol> {
        let mut path: Vec<Symbol> = self.ancestors(id).filter_map(|a| self.tag(a)).collect();
        path.reverse();
        if let Some(t) = self.tag(id) {
            path.push(t);
        }
        path
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Pushes a detached, open node.
    fn push_node(&mut self, kind: u8, payload: [u32; 2]) -> NodeId {
        let id = u32::try_from(self.kinds.len())
            .ok()
            .filter(|&id| id != NONE)
            .expect("fewer than 2^32 - 1 nodes");
        self.kinds.push(kind);
        self.parents.push(NONE);
        self.ends.push(NONE);
        self.payloads.push(payload);
        NodeId(id)
    }

    /// Makes the last node, `id`, the last child of `parent`: closes
    /// every open node below `parent` — the path up from the node before
    /// `id` — at that node. Each node is closed once, so appending costs
    /// O(1) amortized at any depth.
    ///
    /// # Panics
    /// Panics if `parent` is closed or is a text.
    fn attach(&mut self, parent: NodeId, id: NodeId) {
        let p = parent.index();
        assert!(
            matches!(self.kinds[p], DOCUMENT | ELEMENT),
            "only the document and elements hold children"
        );
        assert!(
            self.ends[p] == NONE,
            "appending under {parent:?}, whose subtree is closed: out of preorder"
        );
        let last = id.0 - 1;
        let mut open = last;
        while open != parent.0 {
            self.ends[open as usize] = last;
            open = self.parents[open as usize];
        }
        self.parents[id.index()] = parent.0;
    }

    /// Appends `s` to the arena and returns its span.
    fn push_str(&mut self, s: &str) -> Span {
        let start = self.text.len() as u32;
        self.text.push_str(s);
        let end = u32::try_from(self.text.len()).expect("character data under 4 GiB");
        [start, end]
    }

    /// Appends an element with the given tag name as the last child of
    /// `parent`, which must be open (see the module docs).
    pub fn append_element(&mut self, parent: NodeId, tag: &str) -> NodeId {
        let name = self.symbols.intern(tag);
        self.append_element_interned(parent, name)
    }

    /// Appends an element from an already-interned tag symbol. Bulk
    /// loaders (the snapshot decoder) use this to skip the per-node hash
    /// lookup of [`Self::append_element`]; the caller must guarantee the
    /// symbol came from this document's table.
    pub fn append_element_interned(&mut self, parent: NodeId, name: Symbol) -> NodeId {
        let id = self.push_node(ELEMENT, [name.index() as u32, NONE]);
        self.attach(parent, id);
        id
    }

    /// Appends a text node as the last child of `parent`.
    pub fn append_text(&mut self, parent: NodeId, text: impl AsRef<str>) -> NodeId {
        let span = self.push_str(text.as_ref());
        let id = self.push_node(TEXT, span);
        self.attach(parent, id);
        id
    }

    /// Sets (or replaces) an attribute on an element node.
    ///
    /// # Panics
    /// Panics if `id` is not an element.
    pub fn set_attribute(&mut self, id: NodeId, name: &str, value: impl AsRef<str>) {
        assert!(self.is_element(id), "set_attribute on a non-element node");
        let sym = self.symbols.intern(name);
        let value = self.push_str(value.as_ref());
        if let Some(&[start, len]) = self.runs.get(self.payloads[id.index()][1] as usize) {
            let run = &mut self.attrs[start as usize..(start + len) as usize];
            if let Some(slot) = run.iter_mut().find(|(n, _)| *n == sym) {
                slot.1 = value;
                return;
            }
        }
        self.push_attribute(id, sym, value);
    }

    /// Appends an attribute with an already-interned name to an element
    /// without looking for an existing one of that name: for bulk loaders
    /// (the snapshot decoder) whose input does not repeat a name. The
    /// caller must guarantee the symbol came from this document's table.
    ///
    /// # Panics
    /// Panics if `id` is not an element.
    pub fn append_attribute(&mut self, id: NodeId, name: Symbol, value: &str) {
        assert!(
            self.is_element(id),
            "append_attribute on a non-element node"
        );
        let value = self.push_str(value);
        self.push_attribute(id, name, value);
    }

    /// Adds `(name, value)` at the end of `id`'s run. A run is contiguous
    /// in `attrs`; one that is not the last run is first copied to the end
    /// (only documents that revisit an element get there).
    fn push_attribute(&mut self, id: NodeId, name: Symbol, value: Span) {
        let end = u32::try_from(self.attrs.len()).expect("fewer than 2^32 attributes");
        let slot = &mut self.payloads[id.index()][1];
        if *slot == NONE {
            *slot = u32::try_from(self.runs.len()).expect("fewer than 2^32 attribute runs");
            self.runs.push([end, 0]);
        }
        let run = &mut self.runs[*slot as usize];
        if run[0] + run[1] != end {
            let (start, len) = (run[0] as usize, run[1] as usize);
            self.attrs.extend_from_within(start..start + len);
            run[0] = end;
        }
        run[1] += 1;
        self.attrs.push((name, value));
    }

    /// Replaces the content of a text node (used by
    /// [`coalesce_text`](crate::parser::coalesce_text)). The new content
    /// is appended to the arena; the old bytes stay behind unreferenced.
    ///
    /// # Panics
    /// Panics if `id` is not a text node.
    pub fn set_text_content(&mut self, id: NodeId, text: impl AsRef<str>) {
        if self.kinds[id.index()] != TEXT {
            panic!("set_text_content on non-text node {:?}", self.kind(id));
        }
        self.payloads[id.index()] = self.push_str(text.as_ref());
    }
}

/// The texts among `kinds` joined: borrowed when at most one is
/// non-empty.
fn join_texts<'a>(kinds: impl Iterator<Item = NodeKind<'a>>) -> Cow<'a, str> {
    let mut texts = kinds.filter_map(|kind| match kind {
        NodeKind::Text(t) if !t.is_empty() => Some(t),
        _ => None,
    });
    let Some(first) = texts.next() else {
        return Cow::Borrowed("");
    };
    match texts.next() {
        None => Cow::Borrowed(first),
        Some(second) => {
            let mut out = String::from(first);
            out.push_str(second);
            out.extend(texts);
            Cow::Owned(out)
        }
    }
}

/// Iterator over the children of a node: each one past the subtree end
/// of the one before, up to the parent's subtree end.
#[derive(Clone)]
pub struct Children<'a> {
    doc: &'a Document,
    next: u32,
    end: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next > self.end {
            return None;
        }
        let cur = self.next;
        self.next = self.doc.end(cur) + 1;
        Some(NodeId(cur))
    }
}

/// Preorder iterator over a subtree: a range of ids.
#[derive(Clone, Debug)]
pub struct Descendants {
    ids: std::ops::Range<u32>,
}

impl Iterator for Descendants {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        self.ids.next().map(NodeId)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl DoubleEndedIterator for Descendants {
    fn next_back(&mut self) -> Option<NodeId> {
        self.ids.next_back().map(NodeId)
    }
}

impl ExactSizeIterator for Descendants {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId, NodeId) {
        // <bib><book><title>T</title><author>A</author></book></bib>
        let mut doc = Document::new();
        let bib = doc.append_element(NodeId::DOCUMENT, "bib");
        let book = doc.append_element(bib, "book");
        let title = doc.append_element(book, "title");
        doc.append_text(title, "T");
        let author = doc.append_element(book, "author");
        doc.append_text(author, "A");
        (doc, bib, book, title, author)
    }

    #[test]
    fn builder_links_parent_child_and_siblings() {
        let (doc, bib, book, title, author) = sample();
        assert_eq!(doc.parent(book), Some(bib));
        assert_eq!(doc.first_child(book), Some(title));
        assert_eq!(doc.next_sibling(title), Some(author));
        assert_eq!(doc.next_sibling(author), None);
        assert_eq!(doc.next_sibling(bib), None);
        assert_eq!(doc.first_child(NodeId::from_index(4)), None, "a text");
        assert_eq!(doc.root_element(), Some(bib));
        assert_eq!(doc.subtree_end(book), NodeId::from_index(6));
        assert_eq!(doc.subtree_end(title), NodeId::from_index(4));
    }

    /// Appending closes the open nodes below the parent, and a closed
    /// node takes no more children.
    #[test]
    fn appending_closes_the_path_below_the_parent() {
        let mut doc = Document::new();
        let a = doc.append_element(NodeId::DOCUMENT, "a");
        let b = doc.append_element(a, "b");
        let c = doc.append_element(b, "c");
        let d = doc.append_element(a, "d");
        assert_eq!(doc.subtree_end(b), c, "closed when <d> came");
        assert_eq!(doc.subtree_end(a), d, "open: the last node");
        assert_eq!(doc.children(a).collect::<Vec<_>>(), [b, d]);
        let late = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            doc.clone().append_element(b, "e")
        }));
        assert!(late.is_err(), "<b> is closed");
        let t = doc.append_text(d, "x");
        let under_text = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            doc.clone().append_element(t, "f")
        }));
        assert!(under_text.is_err(), "a text holds no children");
    }

    #[test]
    fn preorder_traversal_visits_document_order() {
        let (doc, bib, book, title, author) = sample();
        let elems: Vec<NodeId> = doc
            .descendants_or_self(bib)
            .filter(|&n| doc.is_element(n))
            .collect();
        assert_eq!(elems, vec![bib, book, title, author]);
    }

    #[test]
    fn descendants_stay_within_subtree() {
        let (doc, _bib, book, title, author) = sample();
        let elems: Vec<NodeId> = doc
            .descendants_or_self(title)
            .filter(|&n| doc.is_element(n))
            .collect();
        assert_eq!(elems, vec![title]);
        let from_book: Vec<NodeId> = doc
            .descendants_or_self(book)
            .filter(|&n| doc.is_element(n))
            .collect();
        assert_eq!(from_book, vec![book, title, author]);
    }

    #[test]
    fn depth_and_ancestors() {
        let (doc, bib, book, title, _author) = sample();
        assert_eq!(doc.depth(bib), 1);
        assert_eq!(doc.depth(book), 2);
        assert_eq!(doc.depth(title), 3);
        let ancs: Vec<NodeId> = doc.ancestors(title).collect();
        assert_eq!(ancs, vec![book, bib]);
    }

    #[test]
    fn text_helpers() {
        let (doc, bib, book, title, _author) = sample();
        assert_eq!(doc.direct_text(title), "T");
        assert_eq!(doc.direct_text(book), "");
        assert_eq!(doc.full_text(book), "TA");
        assert_eq!(doc.full_text(bib), "TA");
    }

    #[test]
    fn direct_text_borrows_unless_two_texts_are_joined() {
        let mut doc = Document::new();
        let a = doc.append_element(NodeId::DOCUMENT, "a");
        doc.append_text(a, "x");
        let b = doc.append_element(a, "b");
        assert!(matches!(doc.direct_text(a), Cow::Borrowed("x")));
        assert!(matches!(doc.direct_text(b), Cow::Borrowed("")));
        doc.append_text(a, "");
        assert!(matches!(doc.direct_text(a), Cow::Borrowed("x")));
        doc.append_text(a, "y");
        assert!(matches!(doc.direct_text(a), Cow::Owned(ref s) if s == "xy"));
    }

    #[test]
    fn tag_path_walks_from_root() {
        let (doc, _bib, _book, title, _author) = sample();
        let path: Vec<&str> = doc
            .tag_path(title)
            .into_iter()
            .map(|s| doc.symbols().resolve(s))
            .collect();
        assert_eq!(path, vec!["bib", "book", "title"]);
    }

    #[test]
    fn attributes_set_get_replace() {
        let mut doc = Document::new();
        let e = doc.append_element(NodeId::DOCUMENT, "book");
        doc.set_attribute(e, "year", "1999");
        assert_eq!(doc.attribute(e, "year"), Some("1999"));
        doc.set_attribute(e, "year", "2000");
        assert_eq!(doc.attribute(e, "year"), Some("2000"));
        assert_eq!(doc.attribute(e, "missing"), None);
        assert_eq!(doc.attributes(e), vec![("year", "2000")]);
    }

    #[test]
    fn attribute_runs_move_when_an_element_is_revisited() {
        let mut doc = Document::new();
        let a = doc.append_element(NodeId::DOCUMENT, "a");
        let b = doc.append_element(a, "b");
        doc.set_attribute(a, "k", "1");
        doc.set_attribute(b, "k", "2");
        // `a`'s run is no longer the last one: it moves, `b`'s stays.
        doc.set_attribute(a, "id", "3");
        doc.set_attribute(a, "k", "4");
        assert_eq!(doc.attributes(a), vec![("k", "4"), ("id", "3")]);
        assert_eq!(doc.attributes(b), vec![("k", "2")]);
        assert_eq!(doc.to_xml(), r#"<a k="4" id="3"><b k="2"/></a>"#);
    }

    #[test]
    fn kind_views_are_copy_and_compare_by_content() {
        let mut doc = Document::new();
        let a = doc.append_element(NodeId::DOCUMENT, "a");
        let b = doc.append_element(a, "a");
        doc.set_attribute(a, "k", "v");
        doc.set_attribute(b, "k", "v");
        let t = doc.append_text(b, "note");
        assert_eq!(doc.kind(a), doc.kind(b));
        assert_eq!(doc.kind(t), NodeKind::Text("note"));
        assert_eq!(doc.kind(NodeId::DOCUMENT), NodeKind::Document);
    }

    #[test]
    fn element_count_ignores_text() {
        let (doc, ..) = sample();
        assert_eq!(doc.element_count(), 4);
        assert_eq!(doc.node_count(), 1 + 4 + 2);
    }

    #[test]
    fn size_counts_columns_and_arenas() {
        let mut doc = Document::with_capacity(3, 5);
        let a = doc.append_element(NodeId::DOCUMENT, "a");
        doc.append_text(a, "hello");
        doc.shrink_to_fit();
        // 17 column bytes per node, then the five text bytes.
        assert_eq!(doc.size_bytes(), 3 * 17 + 5);
    }
}
