//! The query-result cache: one mutex-guarded, exact LRU.
//!
//! Entries are few (the engine keeps 128) and values are fat, so a plain
//! map with tick-based recency under one lock is all it takes: the
//! server runs one loop thread and (on the pinned host) one worker, and
//! a lookup holds the lock for a hash probe.
//! Recency ticks are unique, so which entry is evicted — and with it the
//! hit/miss sequence — is a function of the request sequence alone,
//! identical in every process (EXPERIMENTS.md E17).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// Cache usage counters, as surfaced in the CLI `stats` output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Maximum entries retained.
    pub capacity: usize,
}

struct LruInner<K, V> {
    map: HashMap<K, (u64, Arc<V>)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// A thread-safe LRU keyed by `K`, storing `Arc<V>`.
pub(crate) struct ConcurrentLru<K, V> {
    inner: Mutex<LruInner<K, V>>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> ConcurrentLru<K, V> {
    /// Creates a cache retaining at most `capacity` entries (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        ConcurrentLru {
            inner: Mutex::new(LruInner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub(crate) fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut guard = self.inner.lock().expect("lru poisoned");
        let inner = &mut *guard;
        inner.tick += 1;
        match inner.map.get_mut(key) {
            Some((last_used, v)) => {
                *last_used = inner.tick;
                inner.hits += 1;
                Some(v.clone())
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts `value` under `key`, evicting the least-recently-used
    /// entry if the cache is full.
    pub(crate) fn insert(&self, key: K, value: V) {
        let mut inner = self.inner.lock().expect("lru poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key, (tick, Arc::new(value)));
        while inner.map.len() > self.capacity {
            // O(n) victim scan: the capacity is small by construction.
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
                .expect("map is over capacity, hence non-empty");
            inner.map.remove(&victim);
        }
    }

    /// Current usage counters.
    pub(crate) fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("lru poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_counters_track_lookups() {
        let lru: ConcurrentLru<u32, u32> = ConcurrentLru::new(4);
        assert!(lru.get(&1).is_none());
        lru.insert(1, 10);
        assert_eq!(lru.get(&1).as_deref(), Some(&10));
        let s = lru.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.capacity), (1, 1, 1, 4));
    }

    #[test]
    fn cycling_one_key_more_than_fits_misses_every_time() {
        let capacity = 8u32;
        let lru: ConcurrentLru<u32, u32> = ConcurrentLru::new(capacity as usize);
        for round in 0..4 {
            for key in 0..=capacity {
                assert!(lru.get(&key).is_none(), "round {round} key {key}");
                lru.insert(key, key);
            }
        }
        let s = lru.stats();
        assert_eq!((s.hits, s.misses), (0, 4 * (capacity as u64 + 1)));
        assert_eq!(s.entries, capacity as usize);
    }

    #[test]
    fn a_get_refreshes_recency_so_the_untouched_key_is_the_victim() {
        let lru: ConcurrentLru<u32, u32> = ConcurrentLru::new(3);
        for key in [1, 2, 3] {
            lru.insert(key, key * 10);
        }
        lru.get(&1);
        lru.get(&3); // 2 is now the least recently used entry.
        lru.insert(4, 40);
        assert!(lru.get(&2).is_none(), "2 was evicted");
        for key in [1, 3, 4] {
            assert!(lru.get(&key).is_some(), "{key} survived");
        }
    }

    #[test]
    fn reinserting_a_key_replaces_without_growth() {
        let lru: ConcurrentLru<u32, u32> = ConcurrentLru::new(2);
        lru.insert(1, 10);
        lru.insert(1, 11);
        assert_eq!(lru.stats().entries, 1);
        assert_eq!(lru.get(&1).as_deref(), Some(&11));
    }

    #[test]
    fn concurrent_access_never_loses_the_map() {
        let lru: ConcurrentLru<u32, u32> = ConcurrentLru::new(8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let lru = &lru;
                s.spawn(move || {
                    for i in 0..500u32 {
                        lru.insert(i % 16, i);
                        lru.get(&(i % 16));
                    }
                });
            }
        });
        let s = lru.stats();
        assert!(s.entries <= 8);
        assert_eq!(s.hits + s.misses, 2000);
    }
}
