//! A bounded top-k collector.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A bounded top-k collector over a TOTAL order: entries compare by
/// (score descending, item ascending), so the retained set — and the
/// sorted output — is exactly the first `k` of the globally sorted input,
/// independent of insertion order.
///
/// Internally a min-heap of size ≤ k under the ranking order: an item
/// that does not beat the worst retained entry is rejected by one
/// comparison, a better one replaces it in `O(log k)`.
pub struct OrderedTopK<T: Ord> {
    k: usize,
    heap: BinaryHeap<OrderedEntry<T>>,
}

struct OrderedEntry<T> {
    score: f64,
    item: T,
}

/// Ranking order: `Less` when `a` outranks `b`.
fn rank_cmp<T: Ord>(a: &OrderedEntry<T>, b: &OrderedEntry<T>) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.item.cmp(&b.item))
}

impl<T: Ord> PartialEq for OrderedEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        rank_cmp(self, other) == Ordering::Equal
    }
}
impl<T: Ord> Eq for OrderedEntry<T> {}
impl<T: Ord> PartialOrd for OrderedEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Ord> Ord for OrderedEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // The heap's max is the WORST retained entry, so the collector is
        // a min-heap under the ranking order.
        rank_cmp(self, other)
    }
}

impl<T: Ord> OrderedTopK<T> {
    /// Creates a collector that retains the best `k` items.
    pub fn new(k: usize) -> Self {
        OrderedTopK {
            k,
            heap: BinaryHeap::with_capacity(k),
        }
    }

    /// Offers an item; it is kept iff it is among the best `k` seen.
    pub fn push(&mut self, score: f64, item: T) {
        let entry = OrderedEntry { score, item };
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if rank_cmp(&entry, &worst) == Ordering::Less {
                *worst = entry;
            }
        }
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Finishes, returning `(score, item)` pairs best-first.
    pub fn into_sorted(self) -> Vec<(f64, T)> {
        let mut items: Vec<OrderedEntry<T>> = self.heap.into_vec();
        items.sort_by(rank_cmp);
        items.into_iter().map(|e| (e.score, e.item)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_topk_is_insertion_order_independent() {
        let entries = [(0.5, 3u32), (0.9, 1), (0.5, 2), (0.7, 4), (0.5, 1)];
        let mut forward = OrderedTopK::new(3);
        for &(s, v) in &entries {
            forward.push(s, v);
        }
        let mut backward = OrderedTopK::new(3);
        for &(s, v) in entries.iter().rev() {
            backward.push(s, v);
        }
        let expect = vec![(0.9, 1), (0.7, 4), (0.5, 1)];
        assert_eq!(forward.into_sorted(), expect);
        assert_eq!(backward.into_sorted(), expect);
    }

    #[test]
    fn ordered_topk_counts_and_zero_k() {
        let mut topk = OrderedTopK::new(2);
        assert!(topk.is_empty());
        topk.push(0.5, 1);
        topk.push(0.8, 2);
        assert_eq!(topk.len(), 2);
        let mut zero = OrderedTopK::new(0);
        zero.push(1.0, 9);
        assert!(zero.is_empty());
    }
}
