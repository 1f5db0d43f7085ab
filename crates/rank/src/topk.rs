//! A bounded top-k collector of scored match rows.

use crate::score::ScoredMatch;
use lotusx_xml::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A bounded top-k collector over a TOTAL order: rows compare by (score
/// descending, bindings ascending), so the retained set — and the sorted
/// output — is exactly the first `k` of the globally sorted input,
/// independent of insertion order.
///
/// Internally a min-heap of size ≤ k under the ranking order. Rows are
/// offered by reference: one that does not beat the worst retained row
/// is rejected by one comparison and never copied, a better one
/// overwrites the worst in place — `k` row buffers, however many rows go
/// by.
pub struct OrderedTopK {
    k: usize,
    heap: BinaryHeap<Entry>,
}

struct Entry(ScoredMatch);

/// Ranking order: `Less` when `a` outranks `b` — score descending, then
/// document order of the bindings.
pub(crate) fn rank_cmp(a: (f64, &[NodeId]), b: (f64, &[NodeId])) -> Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.1.cmp(b.1))
}

impl Entry {
    fn key(&self) -> (f64, &[NodeId]) {
        (self.0.score, &self.0.bindings)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // The heap's max is the WORST retained entry, so the collector is
        // a min-heap under the ranking order.
        rank_cmp(self.key(), other.key())
    }
}

impl OrderedTopK {
    /// Creates a collector that retains the best `k` rows. Nothing is
    /// reserved up front: `k` is the caller's wish, not the row count.
    pub fn new(k: usize) -> Self {
        OrderedTopK {
            k,
            heap: BinaryHeap::new(),
        }
    }

    /// Offers a row; it is kept (copied) iff it is among the best `k`
    /// seen.
    pub fn offer(&mut self, score: f64, row: &[NodeId]) {
        if self.heap.len() < self.k {
            self.heap.push(Entry(ScoredMatch {
                bindings: row.to_vec(),
                score,
            }));
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if rank_cmp((score, row), worst.key()) == Ordering::Less {
                worst.0.score = score;
                worst.0.bindings.clear();
                worst.0.bindings.extend_from_slice(row);
            }
        }
    }

    /// Number of retained rows.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The lowest retained score once `k` rows are retained: what a row
    /// still to come has to beat, or tie and precede.
    pub fn score_to_beat(&self) -> Option<f64> {
        self.worst().map(|worst| worst.score)
    }

    /// True once no row still to come that scores at most `bound` and
    /// follows `row` in the tie-break order can be retained: `k` rows are
    /// retained and the worst beats `bound`, or ties it and is not after
    /// `row`.
    pub fn settled(&self, bound: f64, row: &[NodeId]) -> bool {
        self.worst().is_some_and(|worst| {
            worst.score > bound || (worst.score == bound && worst.bindings[..] <= *row)
        })
    }

    /// The worst retained row once `k` rows are retained.
    fn worst(&self) -> Option<&ScoredMatch> {
        let worst = self.heap.peek().filter(|_| self.heap.len() == self.k);
        worst.map(|worst| &worst.0)
    }

    /// Finishes, returning the retained rows best-first.
    pub fn into_sorted(self) -> Vec<ScoredMatch> {
        let mut items = self.heap.into_vec();
        items.sort();
        items.into_iter().map(|entry| entry.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: usize) -> [NodeId; 1] {
        [NodeId::from_index(i)]
    }

    fn sorted(topk: OrderedTopK) -> Vec<(f64, usize)> {
        let items = topk.into_sorted().into_iter();
        items.map(|m| (m.score, m.bindings[0].index())).collect()
    }

    #[test]
    fn ordered_topk_is_insertion_order_independent() {
        let entries = [(0.5, 3), (0.9, 1), (0.5, 2), (0.7, 4), (0.5, 1)];
        let mut forward = OrderedTopK::new(3);
        for &(s, v) in &entries {
            forward.offer(s, &row(v));
        }
        let mut backward = OrderedTopK::new(3);
        for &(s, v) in entries.iter().rev() {
            backward.offer(s, &row(v));
        }
        let expect = vec![(0.9, 1), (0.7, 4), (0.5, 1)];
        assert_eq!(sorted(forward), expect);
        assert_eq!(sorted(backward), expect);
    }

    #[test]
    fn ordered_topk_counts_and_zero_k() {
        let mut topk = OrderedTopK::new(2);
        assert!(topk.is_empty());
        topk.offer(0.5, &row(1));
        assert_eq!(topk.score_to_beat(), None, "not full yet");
        topk.offer(0.8, &row(2));
        assert_eq!(topk.len(), 2);
        assert_eq!(topk.score_to_beat(), Some(0.5));
        let mut zero = OrderedTopK::new(0);
        zero.offer(1.0, &row(9));
        assert!(zero.is_empty());
        assert_eq!(zero.score_to_beat(), None);
    }
}
