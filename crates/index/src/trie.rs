//! A from-scratch byte trie with best-first top-k completion.
//!
//! Every terminal carries a `u32` payload (a tag symbol index or a term id)
//! and a weight (its corpus frequency). Each trie node caches the maximum
//! terminal weight in its subtree so that top-k completion can run
//! best-first and stop after emitting `k` results, independent of how many
//! other completions exist. [`TrieCursor`] supports the per-keystroke
//! narrowing of an auto-completion session.
//!
//! A [`TrieBuilder`] collects the keys; the finished [`Trie`] keeps its
//! nodes in one array and every node's edges as one run of two shared
//! edge columns, so a trie is three allocations whatever its size.

use crate::wire::{corrupt, put_varint, rd_len, rd_u8, rd_varint, StorageError};
use std::collections::BinaryHeap;

/// One trie node. Its outgoing edges are its run of the trie's edge
/// columns, sorted by byte: they start where the previous node's end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TrieNode {
    /// One past this node's last edge.
    edges_end: u32,
    /// Payload and weight if a key terminates here.
    terminal: Option<(u32, u64)>,
    /// Maximum terminal weight anywhere in this subtree.
    best: u64,
}

/// A completion produced by the trie.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The full key.
    pub key: String,
    /// The terminal payload.
    pub payload: u32,
    /// The terminal weight (corpus frequency).
    pub weight: u64,
}

/// The byte trie: nodes in creation order, and every node's edges in two
/// shared columns (byte, child), one run per node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trie {
    nodes: Vec<TrieNode>,
    edge_bytes: Vec<u8>,
    edge_targets: Vec<u32>,
    key_count: usize,
}

impl Default for Trie {
    fn default() -> Self {
        TrieBuilder::new().finish()
    }
}

/// A position inside the trie, used for incremental keystroke narrowing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrieCursor {
    node: u32,
}

/// "No node" in a [`TrieBuilder`] link.
const NONE: u32 = u32::MAX;

/// A trie under construction: nodes linked first-child / next-sibling
/// (siblings sorted by byte), so inserting allocates nothing per node.
/// [`finish`](Self::finish) lays every node's edges out as one run.
#[derive(Clone, Debug)]
pub struct TrieBuilder {
    nodes: Vec<BuildNode>,
    key_count: usize,
}

#[derive(Clone, Copy, Debug)]
struct BuildNode {
    byte: u8,
    first_child: u32,
    next_sibling: u32,
    terminal: Option<(u32, u64)>,
}

impl BuildNode {
    const EMPTY: BuildNode = BuildNode {
        byte: 0,
        first_child: NONE,
        next_sibling: NONE,
        terminal: None,
    };
}

impl Default for TrieBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TrieBuilder {
    /// An empty trie: the root alone.
    pub fn new() -> Self {
        TrieBuilder {
            nodes: vec![BuildNode::EMPTY],
            key_count: 0,
        }
    }

    /// Inserts `key` with `payload` and `weight`; replaces both if the key
    /// already exists. Nodes are numbered in the order inserts create
    /// them — the numbering the `TRIES` encoding records.
    pub fn insert(&mut self, key: &str, payload: u32, weight: u64) {
        let mut node = 0u32;
        for &byte in key.as_bytes() {
            let (mut prev, mut next) = (NONE, self.nodes[node as usize].first_child);
            while next != NONE && self.nodes[next as usize].byte < byte {
                prev = next;
                next = self.nodes[next as usize].next_sibling;
            }
            if next != NONE && self.nodes[next as usize].byte == byte {
                node = next;
                continue;
            }
            let child = u32::try_from(self.nodes.len()).expect("fewer than 2^32 trie nodes");
            self.nodes.push(BuildNode {
                byte,
                next_sibling: next,
                ..BuildNode::EMPTY
            });
            match prev {
                NONE => self.nodes[node as usize].first_child = child,
                prev => self.nodes[prev as usize].next_sibling = child,
            }
            node = child;
        }
        let terminal = &mut self.nodes[node as usize].terminal;
        if terminal.is_none() {
            self.key_count += 1;
        }
        *terminal = Some((payload, weight));
    }

    /// Lays the edges out node by node and fills in every subtree's best
    /// weight (children are created after their parent, so a backward
    /// sweep sees each child before its parent).
    pub fn finish(self) -> Trie {
        let n = self.nodes.len();
        let mut trie = Trie {
            nodes: Vec::with_capacity(n),
            edge_bytes: Vec::with_capacity(n - 1),
            edge_targets: Vec::with_capacity(n - 1),
            key_count: self.key_count,
        };
        for node in &self.nodes {
            let mut child = node.first_child;
            while child != NONE {
                trie.edge_bytes.push(self.nodes[child as usize].byte);
                trie.edge_targets.push(child);
                child = self.nodes[child as usize].next_sibling;
            }
            trie.nodes.push(TrieNode {
                edges_end: trie.edge_targets.len() as u32,
                terminal: node.terminal,
                best: 0,
            });
        }
        for i in (0..n).rev() {
            let own = trie.nodes[i].terminal.map_or(0, |(_, w)| w);
            let children = trie.edges(i as u32).1;
            let best = children
                .iter()
                .map(|&c| trie.nodes[c as usize].best)
                .fold(own, u64::max);
            trie.nodes[i].best = best;
        }
        trie
    }
}

impl Trie {
    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.key_count
    }

    /// True if no key was inserted.
    pub fn is_empty(&self) -> bool {
        self.key_count == 0
    }

    /// Number of trie nodes (for size reporting).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Heap bytes held, by capacity.
    pub fn size_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<TrieNode>()
            + self.edge_bytes.capacity()
            + self.edge_targets.capacity() * std::mem::size_of::<u32>()
    }

    /// The edge run of `node`: its bytes and its children.
    fn edges(&self, node: u32) -> (&[u8], &[u32]) {
        let node = node as usize;
        let start = match node {
            0 => 0,
            _ => self.nodes[node - 1].edges_end as usize,
        };
        let end = self.nodes[node].edges_end as usize;
        (&self.edge_bytes[start..end], &self.edge_targets[start..end])
    }

    fn child(&self, node: u32, byte: u8) -> Option<u32> {
        let (bytes, targets) = self.edges(node);
        bytes.binary_search(&byte).ok().map(|i| targets[i])
    }

    /// Exact lookup.
    pub fn get(&self, key: &str) -> Option<(u32, u64)> {
        let cursor = self.cursor_at(key)?;
        self.nodes[cursor.node as usize].terminal
    }

    /// Cursor at the trie root (empty prefix).
    pub fn root_cursor(&self) -> TrieCursor {
        TrieCursor { node: 0 }
    }

    /// Cursor at `prefix`, or `None` if no key starts with it.
    pub fn cursor_at(&self, prefix: &str) -> Option<TrieCursor> {
        let mut node = 0u32;
        for &byte in prefix.as_bytes() {
            node = self.child(node, byte)?;
        }
        Some(TrieCursor { node })
    }

    /// Advances a cursor by one byte (one keystroke).
    pub fn descend(&self, cursor: TrieCursor, byte: u8) -> Option<TrieCursor> {
        self.child(cursor.node, byte)
            .map(|node| TrieCursor { node })
    }

    /// Top-k completions under `prefix`, heaviest first; ties broken by key.
    pub fn complete(&self, prefix: &str, k: usize) -> Vec<Completion> {
        match self.cursor_at(prefix) {
            Some(cursor) => self.complete_from(cursor, prefix, k),
            None => Vec::new(),
        }
    }

    /// Top-k completions from an existing cursor; `prefix` is the text the
    /// cursor was reached with (prepended to emitted keys).
    pub fn complete_from(&self, cursor: TrieCursor, prefix: &str, k: usize) -> Vec<Completion> {
        // Best-first search: a max-heap of frontier entries ordered by the
        // subtree's best weight; terminals are emitted when popped with a
        // weight no smaller than anything still on the frontier.
        #[derive(PartialEq, Eq)]
        struct Frontier {
            priority: u64,
            // None = an unexpanded subtree; Some = a ready-to-emit terminal.
            terminal: Option<(u32, u64)>,
            node: u32,
            // Key bytes; only terminal keys are complete UTF-8 sequences.
            key: Vec<u8>,
        }
        impl Ord for Frontier {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.priority
                    .cmp(&other.priority)
                    // Prefer shorter/lexicographically smaller keys on ties
                    // (BinaryHeap is a max-heap, so reverse the key order).
                    .then_with(|| other.key.cmp(&self.key))
            }
        }
        impl PartialOrd for Frontier {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut out = Vec::new();
        if k == 0 {
            return out;
        }
        let mut heap = BinaryHeap::new();
        heap.push(Frontier {
            priority: self.nodes[cursor.node as usize].best,
            terminal: None,
            node: cursor.node,
            key: prefix.as_bytes().to_vec(),
        });
        while let Some(entry) = heap.pop() {
            match entry.terminal {
                Some((payload, weight)) => {
                    out.push(Completion {
                        key: String::from_utf8(entry.key).expect("inserted keys are valid UTF-8"),
                        payload,
                        weight,
                    });
                    if out.len() == k {
                        break;
                    }
                }
                None => {
                    let node = &self.nodes[entry.node as usize];
                    if let Some((payload, weight)) = node.terminal {
                        heap.push(Frontier {
                            priority: weight,
                            terminal: Some((payload, weight)),
                            node: entry.node,
                            key: entry.key.clone(),
                        });
                    }
                    let (bytes, children) = self.edges(entry.node);
                    for (&byte, &child) in bytes.iter().zip(children) {
                        let mut key = entry.key.clone();
                        key.push(byte);
                        heap.push(Frontier {
                            priority: self.nodes[child as usize].best,
                            terminal: None,
                            node: child,
                            key,
                        });
                    }
                }
            }
        }
        out
    }

    /// All completions under `prefix` (unbounded; document order of keys).
    pub fn complete_all(&self, prefix: &str) -> Vec<Completion> {
        self.complete(prefix, usize::MAX)
    }

    /// Serializes the trie structurally (node array with edges, terminals
    /// and cached subtree maxima) for the snapshot `TRIES` section — the
    /// decoded trie is field-for-field identical, so completion order is
    /// bit-stable across a snapshot round-trip.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.key_count as u64);
        put_varint(out, self.nodes.len() as u64);
        for (i, node) in self.nodes.iter().enumerate() {
            let (bytes, children) = self.edges(i as u32);
            put_varint(out, bytes.len() as u64);
            for (&byte, &child) in bytes.iter().zip(children) {
                out.push(byte);
                put_varint(out, u64::from(child));
            }
            match node.terminal {
                None => put_varint(out, 0),
                Some((payload, weight)) => {
                    put_varint(out, 1);
                    put_varint(out, u64::from(payload));
                    put_varint(out, weight);
                }
            }
            put_varint(out, node.best);
        }
    }

    /// Deserializes a trie written by [`encode`](Self::encode), straight
    /// into the node and edge columns. Edge targets must lie after their
    /// node (so no walk can cycle) and inside the node count, and edges
    /// must be strictly sorted by byte (the lookup invariant); terminal
    /// payloads must be below `payload_bound` (a symbol or term-table
    /// index).
    pub fn decode(data: &[u8], pos: &mut usize, payload_bound: u32) -> Result<Trie, StorageError> {
        let key_count = rd_len(data, pos, "trie key count")?;
        let node_count = rd_len(data, pos, "trie node count")?;
        if node_count == 0 || node_count > data.len() {
            return Err(corrupt("trie node count"));
        }
        // A tree has one edge fewer than nodes.
        let mut trie = Trie {
            nodes: Vec::with_capacity(node_count),
            edge_bytes: Vec::with_capacity(node_count - 1),
            edge_targets: Vec::with_capacity(node_count - 1),
            key_count,
        };
        for node in 0..node_count {
            let edge_count = rd_len(data, pos, "trie edge count")?;
            if edge_count > data.len() {
                return Err(corrupt("trie edge count"));
            }
            for i in 0..edge_count {
                let byte = rd_u8(data, pos, "trie edge byte")?;
                let child = rd_len(data, pos, "trie edge target")?;
                if child >= node_count || child <= node {
                    return Err(corrupt("trie edge target out of range"));
                }
                if i > 0 && trie.edge_bytes.last() >= Some(&byte) {
                    return Err(corrupt("trie edges not sorted"));
                }
                trie.edge_bytes.push(byte);
                trie.edge_targets.push(child as u32);
            }
            let terminal = match rd_varint(data, pos, "trie terminal flag")? {
                0 => None,
                1 => {
                    let payload = u32::try_from(rd_varint(data, pos, "trie payload")?)
                        .map_err(|_| corrupt("trie payload"))?;
                    if payload >= payload_bound {
                        return Err(corrupt("trie payload out of range"));
                    }
                    let weight = rd_varint(data, pos, "trie weight")?;
                    Some((payload, weight))
                }
                _ => return Err(corrupt("trie terminal flag")),
            };
            let best = rd_varint(data, pos, "trie best weight")?;
            trie.nodes.push(TrieNode {
                edges_end: u32::try_from(trie.edge_targets.len())
                    .map_err(|_| corrupt("trie edge count"))?,
                terminal,
                best,
            });
        }
        Ok(trie)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_builder() -> TrieBuilder {
        let mut t = TrieBuilder::new();
        t.insert("author", 0, 50);
        t.insert("article", 1, 80);
        t.insert("art", 2, 10);
        t.insert("book", 3, 70);
        t.insert("booktitle", 4, 20);
        t
    }

    fn sample() -> Trie {
        sample_builder().finish()
    }

    #[test]
    fn exact_lookup() {
        let t = sample();
        assert_eq!(t.get("book"), Some((3, 70)));
        assert_eq!(t.get("boo"), None);
        assert_eq!(t.get("bookt"), None);
        assert_eq!(t.get("missing"), None);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn insert_replaces_existing_key() {
        let mut t = sample_builder();
        t.insert("book", 3, 99);
        let t = t.finish();
        assert_eq!(t.get("book"), Some((3, 99)));
        assert_eq!(t.len(), 5, "no new key added");
        // The new weight propagates to completion order.
        let top = t.complete("", 1);
        assert_eq!(top[0].key, "book");
        // And a lighter one lowers its subtree's best.
        let mut t = sample_builder();
        t.insert("article", 1, 1);
        let keys: Vec<String> = t
            .finish()
            .complete("a", 3)
            .into_iter()
            .map(|c| c.key)
            .collect();
        assert_eq!(keys, ["author", "art", "article"]);
    }

    #[test]
    fn edges_are_one_run_per_node_in_creation_order() {
        let t = sample();
        // The root, "author", "[a]rticle", "booktitle".
        assert_eq!(t.node_count(), 1 + 6 + 6 + 9);
        assert_eq!(t.edge_bytes.len(), t.node_count() - 1);
        // The root's run: 'a' (node 1, created by "author") then 'b'.
        assert_eq!(t.edges(0), (&b"ab"[..], &[1, 13][..]));
        // "a" → "r" (from "article", created after "author"'s chain) and "u".
        assert_eq!(t.edges(1), (&b"ru"[..], &[7, 2][..]));
    }

    #[test]
    fn codec_roundtrips_and_refuses_a_backward_edge() {
        let t = sample();
        let mut bytes = Vec::new();
        t.encode(&mut bytes);
        assert_eq!(Trie::decode(&bytes, &mut 0, 5).unwrap(), t);
        // Node 1's first edge ('r' → 7) pointed back at the root.
        let at = bytes.windows(2).position(|w| w == [b'r', 7]).unwrap();
        bytes[at + 1] = 0;
        assert!(matches!(
            Trie::decode(&bytes, &mut 0, 5),
            Err(StorageError::Corrupt("trie edge target out of range"))
        ));
    }

    #[test]
    fn completion_orders_by_weight() {
        let t = sample();
        let completions = t.complete("a", 10);
        let keys: Vec<&str> = completions.iter().map(|c| c.key.as_str()).collect();
        assert_eq!(keys, vec!["article", "author", "art"]);
    }

    #[test]
    fn completion_respects_k() {
        let t = sample();
        let top2 = t.complete("", 2);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].key, "article");
        assert_eq!(top2[1].key, "book");
    }

    #[test]
    fn prefix_that_is_itself_a_key_is_included() {
        let t = sample();
        let completions = t.complete("art", 10);
        let keys: Vec<&str> = completions.iter().map(|c| c.key.as_str()).collect();
        assert_eq!(keys, vec!["article", "art"]);
    }

    #[test]
    fn missing_prefix_gives_no_completions() {
        let t = sample();
        assert!(t.complete("zzz", 5).is_empty());
        assert!(t.cursor_at("zzz").is_none());
    }

    #[test]
    fn cursor_narrowing_matches_fresh_prefix_queries() {
        let t = sample();
        let mut cursor = t.root_cursor();
        for (i, byte) in "boo".bytes().enumerate() {
            cursor = t.descend(cursor, byte).unwrap();
            let prefix = &"boo"[..=i];
            assert_eq!(
                t.complete_from(cursor, prefix, 10),
                t.complete(prefix, 10),
                "prefix {prefix}"
            );
        }
        assert!(t.descend(cursor, b'z').is_none());
    }

    #[test]
    fn complete_all_enumerates_everything() {
        let t = sample();
        assert_eq!(t.complete_all("").len(), 5);
        assert_eq!(t.complete_all("b").len(), 2);
    }

    #[test]
    fn ties_broken_lexicographically() {
        let mut t = TrieBuilder::new();
        t.insert("beta", 0, 5);
        t.insert("alpha", 1, 5);
        let t = t.finish();
        let completions = t.complete("", 2);
        let keys: Vec<&str> = completions.iter().map(|c| c.key.as_str()).collect();
        assert_eq!(keys, vec!["alpha", "beta"]);
    }

    #[test]
    fn empty_trie_behaves() {
        let t = Trie::default();
        assert!(t.is_empty());
        assert!(t.complete("", 3).is_empty());
        assert_eq!(t.cursor_at(""), Some(t.root_cursor()));
    }
}
