//! A coarse hashed timer wheel for connection deadlines.
//!
//! The event loop keeps at most one deadline per connection (read,
//! write-stall, or idle) and moves it often — on every byte received,
//! every response flushed. The deadline itself therefore lives on the
//! connection, in a [`Deadline`], and moving it is a field write. The
//! wheel holds **one entry per connection, not one per arming**: an
//! entry is lodged only when none is lodged or the new deadline falls
//! *earlier* than the lodged one (the old entry is taken out). A
//! deadline moved *later* — the common case, every request pushes the
//! read and idle deadlines out — leaves the lodged entry where it is;
//! when that entry comes up early, [`TimerWheel::fired`] re-lodges it at
//! the true deadline. Disarming is a field clear; closing a connection
//! takes its entry out ([`TimerWheel::release`]). Wheel memory and
//! slot-drain work thus scale with open connections, never with request
//! rate.
//!
//! Deadlines beyond the wheel horizon are parked in the slot they hash
//! to and re-inserted when it comes up early — the wheel trades a few
//! spurious wakeups for O(1) insert and a tiny footprint.

use std::time::{Duration, Instant};

/// A lodged wheel entry: which connection, and which lodging.
#[derive(Clone, Copy, Debug)]
struct Entry {
    token: usize,
    /// Unique per lodging, so an entry can never be mistaken for one of
    /// a later connection that reuses the token.
    seq: u64,
    /// Absolute tick the entry really falls on (for horizon laps).
    at_tick: u64,
}

/// A fired entry handed back to the caller for validation against the
/// connection's [`Deadline`] ([`TimerWheel::fired`]).
#[derive(Clone, Copy, Debug)]
pub struct Fired {
    /// The connection token the entry was lodged for.
    pub token: usize,
    seq: u64,
}

/// Where a connection's one wheel entry sits.
#[derive(Clone, Copy, Debug)]
struct Lodged {
    at: Instant,
    at_tick: u64,
    seq: u64,
}

/// One connection's deadline: when it is due and of what kind `K`, plus
/// the whereabouts of the connection's wheel entry (which may sit
/// earlier than the deadline, never later).
#[derive(Debug)]
pub struct Deadline<K> {
    due: Option<(Instant, K)>,
    lodged: Option<Lodged>,
}

impl<K> Default for Deadline<K> {
    fn default() -> Self {
        Deadline {
            due: None,
            lodged: None,
        }
    }
}

impl<K: Copy> Deadline<K> {
    /// Is a deadline armed?
    pub fn is_armed(&self) -> bool {
        self.due.is_some()
    }

    /// The kind of the armed deadline, if any.
    pub fn kind(&self) -> Option<K> {
        self.due.map(|(_, kind)| kind)
    }

    /// Cancels the deadline. The wheel entry stays lodged for the next
    /// arming to reuse; when it comes up it finds nothing due.
    pub fn disarm(&mut self) {
        self.due = None;
    }
}

/// The wheel itself. Granularity (`slot`) bounds how late a deadline
/// can fire; `slots * slot` is the horizon before laps occur.
pub struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    slot_ns: u64,
    start: Instant,
    /// The next absolute tick to be processed.
    cursor: u64,
    live: usize,
    next_seq: u64,
}

impl TimerWheel {
    /// A wheel with `slots` buckets of `slot` width each.
    pub fn new(slot: Duration, slots: usize) -> TimerWheel {
        assert!(slots > 0 && !slot.is_zero());
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            slot_ns: slot.as_nanos() as u64,
            start: Instant::now(),
            cursor: 0,
            live: 0,
            next_seq: 0,
        }
    }

    /// Entries currently lodged (the `timer_entries` gauge).
    pub fn entries(&self) -> usize {
        self.live
    }

    fn tick_of(&self, at: Instant) -> u64 {
        let ns = at.saturating_duration_since(self.start).as_nanos() as u64;
        // Round up: a deadline never fires early because of bucketing.
        ns.div_ceil(self.slot_ns)
    }

    fn slot_of(&self, at_tick: u64) -> usize {
        (at_tick % self.slots.len() as u64) as usize
    }

    fn lodge(&mut self, at: Instant, token: usize) -> Lodged {
        let at_tick = self.tick_of(at).max(self.cursor);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.slot_of(at_tick);
        self.slots[slot].push(Entry {
            token,
            seq,
            at_tick,
        });
        self.live += 1;
        Lodged { at, at_tick, seq }
    }

    /// Takes a lodged entry out (a no-op when it was already drained
    /// into a `fired` batch).
    fn cancel(&mut self, lodged: Lodged) {
        let slot = self.slot_of(lodged.at_tick);
        let entries = &mut self.slots[slot];
        if let Some(i) = entries.iter().position(|e| e.seq == lodged.seq) {
            entries.swap_remove(i);
            self.live -= 1;
        }
    }

    /// Arms (or moves) `deadline` to fire `kind` at `at` for the
    /// connection `token`. Touches the wheel only when no entry is
    /// lodged or the lodged one would come up too late.
    pub fn arm<K>(&mut self, deadline: &mut Deadline<K>, token: usize, at: Instant, kind: K) {
        deadline.due = Some((at, kind));
        match deadline.lodged {
            Some(lodged) if lodged.at <= at => {}
            stale => {
                if let Some(lodged) = stale {
                    self.cancel(lodged);
                }
                deadline.lodged = Some(self.lodge(at, token));
            }
        }
    }

    /// Validates a fired entry against its connection's `deadline`:
    /// `Some(kind)` when the deadline is really due (it is then
    /// cleared). An entry that came up before the deadline — because the
    /// deadline moved later since lodging — is re-lodged at the true
    /// time; an entry of an earlier lodging or connection is dropped.
    pub fn fired<K: Copy>(
        &mut self,
        deadline: &mut Deadline<K>,
        fired: &Fired,
        now: Instant,
    ) -> Option<K> {
        if deadline.lodged.map(|l| l.seq) != Some(fired.seq) {
            return None;
        }
        deadline.lodged = None;
        let (at, kind) = deadline.due?;
        if now < at {
            deadline.lodged = Some(self.lodge(at, fired.token));
            return None;
        }
        deadline.due = None;
        Some(kind)
    }

    /// The connection is gone: clears its deadline and takes its entry
    /// out of the wheel.
    pub fn release<K>(&mut self, deadline: &mut Deadline<K>) {
        deadline.due = None;
        if let Some(lodged) = deadline.lodged.take() {
            self.cancel(lodged);
        }
    }

    /// How long [`TimerWheel::expire`] can be delayed without firing
    /// anything late: the distance to the next non-empty slot. `None`
    /// when nothing is lodged.
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.live == 0 {
            return None;
        }
        let now_ns = now.saturating_duration_since(self.start).as_nanos() as u64;
        let n = self.slots.len() as u64;
        for offset in 0..n {
            let tick = self.cursor + offset;
            if !self.slots[(tick % n) as usize].is_empty() {
                let due_ns = tick * self.slot_ns;
                return Some(Duration::from_nanos(due_ns.saturating_sub(now_ns)));
            }
        }
        // Only lapped (far-future) entries remain somewhere: one lap.
        Some(Duration::from_nanos(n * self.slot_ns))
    }

    /// Drains every entry whose slot has come due, appending the ones
    /// whose tick has passed to `fired`. Entries parked beyond the
    /// horizon are re-inserted for their next lap.
    pub fn expire(&mut self, now: Instant, fired: &mut Vec<Fired>) {
        let now_tick = {
            let ns = now.saturating_duration_since(self.start).as_nanos() as u64;
            ns / self.slot_ns
        };
        let mut relodge: Vec<Entry> = Vec::new();
        while self.cursor <= now_tick {
            let slot = self.slot_of(self.cursor);
            for entry in self.slots[slot].drain(..) {
                self.live -= 1;
                if entry.at_tick <= now_tick {
                    fired.push(Fired {
                        token: entry.token,
                        seq: entry.seq,
                    });
                } else {
                    relodge.push(entry);
                }
            }
            self.cursor += 1;
        }
        for entry in relodge {
            // `at_tick > now_tick >= cursor - 1`: the entry goes back to
            // the slot `cancel` will look for it in.
            let slot = self.slot_of(entry.at_tick);
            self.slots[slot].push(entry);
            self.live += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// Steps the wheel one millisecond at a time from `from` to `to`
    /// (offsets from `t0`), returning the offsets at which `deadline`
    /// really fired.
    fn run(
        wheel: &mut TimerWheel,
        deadline: &mut Deadline<u8>,
        t0: Instant,
        from: u32,
        to: u32,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        let mut batch = Vec::new();
        for ms in from..=to {
            let now = t0 + MS * ms;
            batch.clear();
            wheel.expire(now, &mut batch);
            for f in &batch {
                if wheel.fired(deadline, f, now).is_some() {
                    out.push(ms);
                }
            }
        }
        out
    }

    #[test]
    fn fires_on_time_and_only_for_its_own_lodging() {
        let mut wheel = TimerWheel::new(MS, 8);
        let t0 = Instant::now();
        let mut d = Deadline::default();
        wheel.arm(&mut d, 7, t0 + MS * 3, 1u8);
        assert_eq!(d.kind(), Some(1));
        let mut fired = Vec::new();
        wheel.expire(t0 + MS, &mut fired);
        assert!(fired.is_empty(), "must not fire early");
        wheel.expire(t0 + MS * 20, &mut fired);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].token, 7);
        // Another connection's deadline does not answer to this entry.
        let mut other: Deadline<u8> = Deadline::default();
        assert_eq!(wheel.fired(&mut other, &fired[0], t0 + MS * 20), None);
        assert_eq!(wheel.fired(&mut d, &fired[0], t0 + MS * 20), Some(1));
        assert!(!d.is_armed());
        assert_eq!(wheel.entries(), 0);
    }

    #[test]
    fn lapped_entries_survive_the_horizon() {
        let mut wheel = TimerWheel::new(MS, 4);
        let t0 = Instant::now();
        let mut d = Deadline::default();
        // 10ms deadline on a 4ms-horizon wheel: must lap, not fire early.
        wheel.arm(&mut d, 1, t0 + MS * 10, 0u8);
        let fired_at = run(&mut wheel, &mut d, t0, 0, 20);
        assert_eq!(fired_at.len(), 1);
        assert!((10..=11).contains(&fired_at[0]), "{fired_at:?}");
    }

    #[test]
    fn next_timeout_tracks_the_earliest_slot() {
        let mut wheel = TimerWheel::new(MS, 64);
        let t0 = Instant::now();
        assert!(wheel.next_timeout(t0).is_none());
        let mut d = Deadline::default();
        wheel.arm(&mut d, 1, t0 + MS * 30, 0u8);
        let timeout = wheel.next_timeout(t0).unwrap();
        assert!(timeout <= Duration::from_millis(31), "{timeout:?}");
    }

    #[test]
    fn a_deadline_moved_later_keeps_one_entry_and_fires_once() {
        let mut wheel = TimerWheel::new(MS, 16);
        let t0 = Instant::now();
        let mut d = Deadline::default();
        // The request pattern: every "request" pushes the deadline out.
        for i in 0..1000u32 {
            wheel.arm(&mut d, 3, t0 + MS * (5 + i / 50), 2u8);
            assert_eq!(wheel.entries(), 1, "arming #{i} lodged a second entry");
        }
        let due = 5 + 999 / 50;
        let fired_at = run(&mut wheel, &mut d, t0, 0, 100);
        assert_eq!(fired_at.len(), 1, "fires exactly once: {fired_at:?}");
        assert!(fired_at[0] >= due, "fired early: {fired_at:?} < {due}");
        assert!(
            fired_at[0] <= due + 1,
            "more than a slot late: {fired_at:?}"
        );
        assert_eq!(wheel.entries(), 0);
    }

    #[test]
    fn a_deadline_moved_earlier_relodges_and_fires_on_time() {
        let mut wheel = TimerWheel::new(MS, 16);
        let t0 = Instant::now();
        let mut d = Deadline::default();
        wheel.arm(&mut d, 3, t0 + MS * 60, 0u8);
        wheel.arm(&mut d, 3, t0 + MS * 7, 1u8);
        assert_eq!(wheel.entries(), 1, "the late entry is replaced, not kept");
        let fired_at = run(&mut wheel, &mut d, t0, 0, 100);
        assert_eq!(fired_at.len(), 1, "{fired_at:?}");
        assert!((7..=8).contains(&fired_at[0]), "{fired_at:?}");
    }

    #[test]
    fn disarm_is_a_field_clear_and_the_entry_is_reused() {
        let mut wheel = TimerWheel::new(MS, 16);
        let t0 = Instant::now();
        let mut d = Deadline::default();
        wheel.arm(&mut d, 3, t0 + MS * 4, 0u8);
        d.disarm();
        assert!(!d.is_armed());
        assert_eq!(wheel.entries(), 1, "disarm does not touch the wheel");
        // Re-armed later than the lodged entry: still one entry.
        wheel.arm(&mut d, 3, t0 + MS * 9, 1u8);
        assert_eq!(wheel.entries(), 1);
        let fired_at = run(&mut wheel, &mut d, t0, 0, 30);
        assert_eq!(fired_at.len(), 1);
        assert!((9..=10).contains(&fired_at[0]), "{fired_at:?}");
        // Disarmed and left alone: the entry comes up, finds nothing
        // due, and is gone.
        wheel.arm(&mut d, 3, t0 + MS * 40, 1u8);
        d.disarm();
        assert!(run(&mut wheel, &mut d, t0, 31, 80).is_empty());
        assert_eq!(wheel.entries(), 0);
    }

    #[test]
    fn a_reused_token_never_fires_on_the_new_connection() {
        let mut wheel = TimerWheel::new(MS, 16);
        let t0 = Instant::now();
        // The old connection on token 5 disarms and is dropped without
        // releasing its entry (the worst case: a leaked entry).
        {
            let mut old = Deadline::default();
            wheel.arm(&mut old, 5, t0 + MS * 6, 0u8);
            old.disarm();
        }
        // A new connection takes token 5 with a later deadline.
        let mut new = Deadline::default();
        wheel.arm(&mut new, 5, t0 + MS * 20, 1u8);
        let fired_at = run(&mut wheel, &mut new, t0, 0, 40);
        assert_eq!(fired_at.len(), 1, "{fired_at:?}");
        assert!((20..=21).contains(&fired_at[0]), "{fired_at:?}");
        // A released deadline leaves nothing behind at all.
        let mut gone = Deadline::default();
        wheel.arm(&mut gone, 5, t0 + MS * 50, 0u8);
        wheel.release(&mut gone);
        assert_eq!(wheel.entries(), 0);
        assert!(run(&mut wheel, &mut gone, t0, 41, 80).is_empty());
    }
}
