//! # lotusx-par
//!
//! A minimal parallel-execution and concurrent-caching toolkit for the
//! LotusX engine, built entirely on `std::thread::scope` — the environment
//! this repository targets has no access to crates.io, so rayon and
//! friends are off the table.
//!
//! Three pieces:
//!
//! * [`executor`] — the deterministic chunked `par_map_isolated` over
//!   slices (behind `query_batch`). Chunks are contiguous and results are
//!   merged in chunk order, so the output is byte-identical for any thread
//!   count.
//! * [`sharded`] — [`ShardedMap`], a fixed-shard `RwLock<HashMap>` used
//!   as a build-once-read-many cache (per-tag value tries).
//! * [`lru`] — [`ConcurrentLru`], a mutex-protected LRU with atomic
//!   hit/miss counters (the engine's query-result cache).

#![warn(missing_docs)]

pub mod executor;
pub mod lru;
pub mod sharded;

pub use executor::{
    current_lane, default_threads, panic_message, par_map_isolated, set_worker_observer,
    WorkerPanic,
};
pub use lru::{CacheStats, ConcurrentLru, ShardedLru};
pub use sharded::{ShardLoad, ShardedMap};
