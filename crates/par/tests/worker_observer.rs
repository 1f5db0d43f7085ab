//! The worker-observer hook is a process-global `OnceLock`, so this
//! test runs in its own integration-test process: no other test here
//! runs parallel jobs, making the recorded event stream exact.

use lotusx_par::{current_lane, par_map_isolated, set_worker_observer};
use std::sync::Mutex;

static SEEN: Mutex<Vec<(u32, usize, bool)>> = Mutex::new(Vec::new());

fn observe(chunk: usize, begin: bool) {
    SEEN.lock().unwrap().push((current_lane(), chunk, begin));
}

#[test]
fn worker_observer_sees_begin_end_pairs_on_worker_threads() {
    set_worker_observer(observe);
    set_worker_observer(observe); // second install is a no-op
    let items: Vec<u32> = (0..64).collect();
    let _ = par_map_isolated(&items, 4, |x| x + 1);
    let seen = SEEN.lock().unwrap().clone();
    let spawned: Vec<_> = seen.iter().filter(|(lane, _, _)| *lane > 0).collect();
    assert_eq!(spawned.len(), 8, "4 chunks x begin+end: {seen:?}");
    for chunk in 0..4usize {
        let events: Vec<bool> = seen
            .iter()
            .filter(|(_, c, _)| *c == chunk)
            .map(|(_, _, b)| *b)
            .collect();
        assert_eq!(events, vec![true, false], "chunk {chunk} paired");
        // The observer runs on the worker's own lane (chunk + 1).
        assert!(seen
            .iter()
            .filter(|(_, c, _)| *c == chunk)
            .all(|(lane, c, _)| *lane as usize == c + 1));
    }

    // Inline (serial) runs never fire the observer: there is no worker.
    SEEN.lock().unwrap().clear();
    let _ = par_map_isolated(&items, 1, |x| x + 1);
    assert!(SEEN.lock().unwrap().is_empty());
    assert_eq!(current_lane(), 0, "caller stays on lane 0");
}
