//! A deterministic chunked parallel map over slices.
//!
//! [`par_map_isolated`] partitions the input into at most `threads`
//! contiguous chunks, runs one scoped thread per chunk, and recombines
//! results in chunk order. Because chunk boundaries depend only on
//! `(len, threads)` and recombination is ordered, the output never
//! depends on scheduling.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

thread_local! {
    /// The worker lane of the current thread: 0 for any coordinating
    /// (non-executor) thread, `chunk_index + 1` inside a spawned worker.
    static LANE: Cell<u32> = const { Cell::new(0) };
}

/// The worker lane of the calling thread (see [`set_worker_observer`]):
/// 0 outside the executor, `chunk_index + 1` on a spawned worker thread.
/// Tracing layers use this to attribute events to per-worker lanes.
pub fn current_lane() -> u32 {
    LANE.get()
}

/// A hook invoked on the worker's own thread around every spawned chunk:
/// `f(chunk_index, true)` before the chunk runs, `f(chunk_index, false)`
/// after (inline serial runs do not fire it — there is no worker).
type WorkerObserver = fn(usize, bool);

static WORKER_OBSERVER: OnceLock<WorkerObserver> = OnceLock::new();

/// Installs the process-wide worker observer. The first call wins;
/// later calls are ignored (the observability layer installs exactly
/// one, lazily, when tracing is first enabled).
pub fn set_worker_observer(f: fn(usize, bool)) {
    let _ = WORKER_OBSERVER.set(f);
}

fn worker_observer() -> Option<WorkerObserver> {
    WORKER_OBSERVER.get().copied()
}

/// A worker panic captured by the executor: which chunk died and the
/// panic message, with the payload dropped at the catch site so sibling
/// chunks can finish and the caller gets a structured error instead of
/// a process abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the chunk whose worker panicked (chunk order).
    pub chunk_index: usize,
    /// Starting item index of that chunk in the input slice.
    pub start: usize,
    /// Number of items in the chunk.
    pub len: usize,
    /// The panic message, when it was a `&str` or `String` payload.
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked on chunk {} (items {}..{}): {}",
            self.chunk_index,
            self.start,
            self.start + self.len,
            self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Renders a panic payload as text (`&str` / `String` payloads; anything
/// else becomes a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The number of worker threads to use by default: the `LOTUSX_THREADS`
/// environment variable when set to a positive integer, otherwise the
/// host's available parallelism (1 if unknown).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("LOTUSX_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Splits `len` items into at most `threads` contiguous chunk ranges.
fn chunk_ranges(len: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let threads = threads.max(1).min(len.max(1));
    let chunk = len.div_ceil(threads);
    (0..len)
        .step_by(chunk.max(1))
        .map(|start| start..(start + chunk).min(len))
        .collect()
}

/// The chunked runner: applies `f` to every chunk — one scoped worker
/// per chunk, inline when there is at most one — catching each worker's
/// panic individually so one poisoned chunk never takes down its
/// siblings: every other chunk runs to completion and returns its
/// result, the poisoned one the structured record of its panic.
fn run_chunks<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<Result<U, WorkerPanic>>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> U + Sync,
{
    let ranges = chunk_ranges(items.len(), threads);
    let capture = |chunk_index: usize, r: std::ops::Range<usize>| -> Result<U, WorkerPanic> {
        let chunk = &items[r.clone()];
        catch_unwind(AssertUnwindSafe(|| f(chunk))).map_err(|payload| WorkerPanic {
            chunk_index,
            start: r.start,
            len: r.len(),
            message: panic_message(payload.as_ref()),
        })
    };
    if ranges.len() <= 1 {
        return ranges
            .into_iter()
            .enumerate()
            .map(|(i, r)| capture(i, r))
            .collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let capture = &capture;
                scope.spawn(move || {
                    LANE.set(i as u32 + 1);
                    let observer = worker_observer();
                    if let Some(observe) = observer {
                        observe(i, true);
                    }
                    let outcome = capture(i, r);
                    if let Some(observe) = observer {
                        observe(i, false);
                    }
                    outcome
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(outcome) => outcome,
                // The worker closure already catches panics, so join()
                // only fails if the catch itself was bypassed (e.g. a
                // panic-in-panic abort never reaches here anyway).
                Err(payload) => Err(WorkerPanic {
                    chunk_index: usize::MAX,
                    start: 0,
                    len: 0,
                    message: panic_message(payload.as_ref()),
                }),
            })
            .collect()
    })
}

/// Panic-isolated, order-preserving parallel map: without panics,
/// `par_map_isolated(xs, t, f)` equals `xs.iter().map(f).map(Ok)` for
/// every thread count (with `threads <= 1`, or a single chunk, everything
/// runs inline on the calling thread). A worker panic
/// fails only the items it was responsible for, as per-item
/// [`WorkerPanic`] errors — siblings keep their results.
///
/// When a chunk panics, its items are retried one at a time on the
/// calling thread (each retry individually caught), so a single
/// poisoned item inside a large chunk fails alone and the rest of the
/// chunk still succeeds.
pub fn par_map_isolated<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<Result<U, WorkerPanic>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for outcome in run_chunks(items, threads, |chunk| {
        chunk.iter().map(&f).collect::<Vec<U>>()
    }) {
        match outcome {
            Ok(results) => out.extend(results.into_iter().map(Ok)),
            Err(panic) => {
                // Serial per-item retry isolates the poisoned item(s).
                for (offset, item) in items[panic.start..panic.start + panic.len]
                    .iter()
                    .enumerate()
                {
                    match catch_unwind(AssertUnwindSafe(|| f(item))) {
                        Ok(u) => out.push(Ok(u)),
                        Err(payload) => out.push(Err(WorkerPanic {
                            chunk_index: panic.chunk_index,
                            start: panic.start + offset,
                            len: 1,
                            message: panic_message(payload.as_ref()),
                        })),
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for len in [0usize, 1, 2, 7, 16, 100] {
            for threads in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, threads);
                let mut covered = Vec::new();
                for r in &ranges {
                    covered.extend(r.clone());
                }
                assert_eq!(covered, (0..len).collect::<Vec<_>>(), "{len}/{threads}");
                assert!(ranges.len() <= threads.max(1));
            }
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let items: [u8; 0] = [];
        assert!(par_map_isolated(&items, 4, |x| *x).is_empty());
    }

    #[test]
    fn par_map_isolated_catches_inline_serial_panics_too() {
        let items: Vec<u32> = (0..8).collect();
        let outcomes = par_map_isolated(&items, 1, |_| -> u32 { panic!("serial boom") });
        assert_eq!(outcomes.len(), 8);
        assert!(outcomes.iter().all(|o| o.is_err()));
    }

    #[test]
    fn par_map_isolated_retries_serially_and_fails_only_the_poisoned_item() {
        let items: Vec<u32> = (0..40).collect();
        let out = par_map_isolated(&items, 4, |x| {
            if *x == 17 {
                panic!("item 17 is cursed");
            }
            x * 2
        });
        assert_eq!(out.len(), items.len());
        for (i, r) in out.iter().enumerate() {
            if i == 17 {
                let wp = r.as_ref().unwrap_err();
                assert_eq!(wp.start, 17);
                assert_eq!(wp.len, 1);
                assert!(wp.message.contains("cursed"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), (i as u32) * 2, "item {i} survived");
            }
        }
    }

    #[test]
    fn par_map_isolated_matches_serial_map_for_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got: Vec<u64> = par_map_isolated(&items, threads, |x| x * x + 1)
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(got, expect, "{threads}");
        }
    }

    #[test]
    fn worker_panic_displays_usefully() {
        let wp = WorkerPanic {
            chunk_index: 2,
            start: 50,
            len: 25,
            message: "boom".to_string(),
        };
        let s = wp.to_string();
        assert!(s.contains("chunk 2"), "{s}");
        assert!(s.contains("50..75"), "{s}");
        assert!(s.contains("boom"), "{s}");
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn lanes_identify_worker_threads() {
        assert_eq!(current_lane(), 0, "coordinating thread is lane 0");
        let items: Vec<u32> = (0..4).collect();
        let lanes = |threads| -> Vec<u32> {
            par_map_isolated(&items, threads, |_| current_lane())
                .into_iter()
                .map(|r| r.unwrap())
                .collect()
        };
        assert_eq!(lanes(4), vec![1, 2, 3, 4], "one lane per chunk, in order");
        // Serial/inline runs stay on the caller's lane.
        assert_eq!(lanes(1), vec![0; 4]);
        assert_eq!(current_lane(), 0, "lane restored after the job");
    }

    // The worker-observer hook is process-global, so its test lives in
    // `tests/worker_observer.rs` (own process — no cross-test pollution
    // from concurrently running parallel jobs).
}
