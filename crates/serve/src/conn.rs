//! The connection core: every connection's state machine, and nothing
//! else — no socket, no poller, no channel and no clock of its own.
//!
//! # Inputs and actions
//!
//! A driver owns the listener, the sockets and the worker channel, and
//! tells the core what happened to them: a connection was accepted
//! ([`Core::accept`]); a read returned bytes and ended one way or another
//! ([`Core::read`]); a write of [`Core::unwritten`] went out or blocked
//! ([`Core::wrote`]); a socket hung up ([`Core::hangup`]); a worker
//! finished ([`Core::completed`]); time passed ([`Core::tick`]); shutdown
//! began ([`Core::drain`]). After each input the driver carries out the
//! [`Action`]s the core queued, oldest first ([`Core::next_action`]):
//! write a connection's unwritten bytes, watch its socket for other
//! readiness, hand a job to the workers, close a socket. Every reading of
//! the time comes from the [`Clock`] the core was built with.
//!
//! Two drivers run this core: the epoll loop that serves real sockets on
//! the system clock (`event_loop.rs`) and, in tests, a scripted driver
//! over in-memory peers, a clock the script moves and a worker pool the
//! script empties by hand (`sim.rs`).
//!
//! # State machine
//!
//! Every connection is in exactly one of these states, tracked by plain
//! fields on [`Conn`] rather than an enum so transitions stay cheap:
//!
//! ```text
//!           accept (admitted)                accept (gate full)
//!                 │                                 │
//!                 ▼                                 ▼
//!             ┌───────┐  parse complete,       ┌─────────┐
//!      ┌─────▶│READING│  answered inline ──┐   │REJECTING│ (429/4xx/408:
//!      │      └───────┘                    │   └────┬────┘  flush, close)
//!      │          │ ▲  parse complete,     │        │
//!  new bytes      │ │  needs the workers   │        ▼
//! (re-admit)      ▼ └────────────┐         │     closed
//!      │      ┌───────┐  done  ┌─┴─────┐   │
//!      │      │PENDING│───────▶│FLUSH  │◀──┘
//!      │      └───────┘        └─┬─────┘──▶ close (Connection: close,
//!      │   (compute on worker)   │               EOF, error, stop)
//!      │                         │ drained, keep-alive
//!      │                         ▼
//!      │                      ┌──────┐
//!      └──────────────────────│ IDLE │──▶ idle deadline → close
//!                             └──────┘
//! ```
//!
//! * **READING** — accumulating bytes until [`crate::http::parse_request`]
//!   frames a request. The read deadline moves on every received byte;
//!   firing answers `408` (a slow-loris costs a buffer, not a thread).
//!   A framed, routed, admitted request is then *answered where it
//!   arrived* if its work is bounded by its own size and the size of its
//!   response rather than by the corpus: `GET /healthz`, `GET /metrics`,
//!   `POST /complete` within [`INLINE_NODE_BUDGET`], a `POST /query`
//!   whose answer is cached, and every 4xx those produce. That is
//!   READING → FLUSH directly — no queue, no second thread, no wake-up;
//!   the core goes straight on to the next pipelined request, so a burst
//!   of keystrokes is parsed, answered and written with one `read` and
//!   one `write`.
//! * **PENDING** — the inline attempt declined (a cache miss, a tripped
//!   budget, an endpoint that renders the registry or takes a lock): the
//!   request, with whatever was already decoded of it, is on the worker
//!   pool — exactly one per connection. Pipelined bytes keep
//!   accumulating (up to the input-buffer cap) but are not parsed until
//!   the response is enqueued, which keeps responses in request order
//!   with no reorder machinery. Both routes run the same
//!   [`Server::answer`] and deliver through the same [`Core::respond`];
//!   only the thread differs.
//! * **FLUSH** — response bytes draining to the socket. When the socket
//!   pushes back, the core has it watched for writability and arms the
//!   write-stall deadline; a peer that stops reading for too long is
//!   dropped. Appending to an output buffer always ends in a write
//!   ([`Core::flush`]), and a drained buffer lets the input make progress
//!   whose answers are written in turn ([`Core::written`]).
//! * **IDLE** — a keep-alive connection between requests. It gives up
//!   its admission slot (so parked connections never starve new ones)
//!   and is closed when the idle deadline fires.
//!
//! # Deadlines
//!
//! Each connection has one deadline and at most one entry in the
//! [`TimerWheel`]; moving the deadline later (every request does) and
//! disarming it are field writes that never touch the wheel — see
//! `timer.rs`. `timer_entries` in `/stats` is the wheel's live count and
//! stays within the number of open connections.
//!
//! # Admission
//!
//! The `429` gate counts connections *actively being served* (admitted
//! and not idle). It is checked only here, on the driver's one thread,
//! at accept and at idle→reading re-entry — single-threaded, so the gate
//! is exact and never over-admits. Re-entry from idle is always
//! admitted (the connection already proved it holds a well-behaved
//! client; refusing mid-stream would break pipelining), so `active` can
//! transiently exceed `max_inflight` only via re-admissions, never via
//! new connections.
//!
//! # Backpressure
//!
//! Read side: once a connection buffers more than
//! [`crate::http::Limits::input_buffer_cap`] unparsed bytes, the core
//! takes no more ([`Core::read_room`]) and stops watching for reads until
//! the buffer drains below the cap. Write side: a blocked write suspends
//! the flush until the socket signals writable, bounded by the
//! write-stall deadline. Both are per connection; one stalled peer never
//! affects another.

use crate::http::{self, ParseStatus, Reject};
use crate::poller::Interest;
use crate::server::{Outcome, Server, Work};
use crate::tenants::Tenancy;
use crate::timer::{Deadline, Fired, TimerWheel};
use lotusx::TruncationReason;
use lotusx_obs::{push_json_str, push_u64_members, Stage};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// The node-visit budget of one inline answer: how many DataGuide nodes
/// (tag completion) or term-count entries (value completion) the loop
/// thread may touch for a request before it drops
/// the partial work and hands the request to the worker pool. It bounds
/// how long one request can keep every other connection waiting — a few
/// tens of microseconds — while covering whole-guide completions on
/// data-centric corpora (their strong DataGuides have tens of nodes).
/// A constant, not a knob: the fast path's latency bound is part of the
/// server's design, not of its configuration.
pub(crate) const INLINE_NODE_BUDGET: u64 = 512;

/// Where the core reads the time. It is handed in, so a scripted run
/// decides what every deadline and latency sample sees.
pub(crate) trait Clock {
    /// The monotonic now: deadlines and every latency sample.
    fn now(&self) -> Instant;
    /// Milliseconds since the Unix epoch: access-log time stamps.
    fn unix_ms(&self) -> u64;
}

/// The system's clocks, which the server runs on.
pub(crate) struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn unix_ms(&self) -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64)
    }
}

/// Nanoseconds from `since` to `now` (zero if `since` is later).
pub(crate) fn nanos(now: Instant, since: Instant) -> u64 {
    now.saturating_duration_since(since).as_nanos() as u64
}

/// What the core asks its driver to do, in the order asked.
pub(crate) enum Action {
    /// Write [`Core::unwritten`] to the connection's socket and report
    /// each attempt with [`Core::wrote`].
    Write(usize),
    /// Watch the connection's socket for exactly this readiness (report
    /// a failure with [`Core::failed`]). Skip it when [`Core::interest`]
    /// no longer says so: a later action superseded it.
    Watch(usize, Interest),
    /// Hand the request to the worker pool, or back to
    /// [`Core::submit_failed`] when the pool is gone.
    Submit(Box<Job>),
    /// The connection is gone: stop watching its socket and close it.
    /// The reason is the one the access log carries (the scripted driver
    /// checks it; the epoll driver has no use for it).
    Close(usize, #[cfg_attr(not(test), allow(dead_code))] CloseReason),
}

/// Why a connection was closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CloseReason {
    /// The request opted out of keep-alive, or the peer half-closed
    /// cleanly after its last request.
    ClientClose,
    /// The peer vanished (hangup readiness / reset).
    Hangup,
    /// The keep-alive idle deadline fired.
    IdleTimeout,
    /// The read deadline fired before a complete request arrived (408).
    ReadTimeout,
    /// A response write stalled past the write deadline.
    WriteStall,
    /// A socket operation failed.
    IoError,
    /// A protocol or routing reject (4xx/5xx) closed the connection.
    Rejected,
    /// The admission gate answered 429.
    Admission,
    /// Graceful shutdown drained or reaped the connection.
    Drain,
}

impl CloseReason {
    /// Stable snake-case name (the access log's `close` field).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            CloseReason::ClientClose => "client_close",
            CloseReason::Hangup => "hangup",
            CloseReason::IdleTimeout => "idle_timeout",
            CloseReason::ReadTimeout => "read_timeout",
            CloseReason::WriteStall => "write_stall",
            CloseReason::IoError => "io_error",
            CloseReason::Rejected => "rejected",
            CloseReason::Admission => "admission",
            CloseReason::Drain => "drain",
        }
    }
}

/// Which per-connection deadline is armed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeadlineKind {
    /// Deliver a complete request or be answered 408.
    Read,
    /// Keep-alive gap cap.
    Idle,
    /// Accept response bytes or be dropped.
    Write,
}

/// How a driver's read of a connection's socket ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReadEnd {
    /// No more bytes for now, or [`Core::read_room`] is used up.
    Open,
    /// The peer half-closed its write side.
    Eof,
    /// The read failed (a reset).
    Failed,
}

/// How a driver's write of [`Core::unwritten`] went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Wrote {
    /// This many bytes went out (at least one).
    Bytes(usize),
    /// The socket takes nothing more for now.
    Blocked,
    /// The write failed.
    Failed,
}

/// A parsed request the core declined to answer inline, handed to the
/// worker pool.
pub(crate) struct Job {
    /// Connection slot index.
    pub token: usize,
    /// Slot epoch at dispatch; a completion for a replaced connection
    /// fails this check and is dropped.
    pub epoch: u64,
    /// The request to route.
    pub request: http::Request,
    /// What the inline attempt already decoded of it.
    pub work: Work,
    /// The routed tenant index (`None` for server-scoped endpoints).
    /// The core already charged this tenant's `inflight` gauge; the
    /// matching decrement happens when the completion lands.
    pub tenant: Option<u32>,
    /// Encode the response with `Connection: keep-alive`.
    pub keep_alive: bool,
    /// First byte of this request → parse complete.
    pub parse_ns: u64,
    /// When the job entered the worker queue (queue-wait measurement).
    pub queued_at: Instant,
}

/// A finished response on its way to a connection — from a worker
/// through the completion queue, or straight from the core's own inline
/// answer. Either way it lands in [`Core::respond`].
pub(crate) struct Done {
    pub token: usize,
    pub epoch: u64,
    pub payload: Payload,
    /// Request method/path, moved out of the request for the access log.
    pub method: String,
    pub path: String,
    /// The tenant the request was routed to (inflight release, log).
    pub tenant: Option<u32>,
    /// Timing breakdown carried through to the access-log line.
    pub parse_ns: u64,
    pub queue_ns: u64,
    /// The budget that cut a `/query` answer short, for the access log.
    pub truncated: Option<TruncationReason>,
}

/// The response itself, in the form its producer left it.
pub(crate) enum Payload {
    /// Encoded on a worker thread.
    Encoded {
        /// Fully encoded response bytes (may be empty for dead peers).
        bytes: Vec<u8>,
        status: u16,
        /// Close the connection once the bytes are flushed.
        close: bool,
        /// Pick-up to encoded, on the worker.
        compute_ns: u64,
        /// When the worker finished (loop-lag measurement).
        finished: Instant,
    },
    /// Answered inline; encoded straight into the connection's output
    /// buffer by [`Core::respond`].
    Inline {
        outcome: Outcome,
        /// Encode the response with `Connection: keep-alive`.
        keep_alive: bool,
        /// When the inline attempt began (its `compute_ns` clock).
        started: Instant,
    },
}

/// A response whose access-log line is waiting on its flush time
/// (queued per connection, written when the outbuf drains or the
/// connection closes — whichever reveals the response's fate first).
struct PendingLog {
    method: String,
    path: String,
    status: u16,
    bytes: u64,
    tenant: Option<u32>,
    parse_ns: u64,
    queue_ns: u64,
    compute_ns: u64,
    truncated: Option<TruncationReason>,
    enqueued: Instant,
}

impl PendingLog {
    /// A line for a response synthesized by the core without a parsed
    /// request behind it (429/408/400/404 rejects). `tenant` is known
    /// only for per-tenant quota rejects.
    fn loop_reject(status: u16, bytes: u64, tenant: Option<u32>, enqueued: Instant) -> PendingLog {
        PendingLog {
            method: "-".to_string(),
            path: "-".to_string(),
            status,
            bytes,
            tenant,
            parse_ns: 0,
            queue_ns: 0,
            compute_ns: 0,
            truncated: None,
            enqueued,
        }
    }
}

/// Per-connection state. See the module docs for the state machine.
struct Conn {
    /// Lifetime connection id (`connections_accepted` at accept time):
    /// the `conn` field of access-log lines.
    id: u64,
    /// Bytes received but not yet parsed.
    inbuf: Vec<u8>,
    /// Encoded response bytes not yet written; `outpos` is the flush
    /// cursor (drained lazily to avoid repeated copies).
    outbuf: Vec<u8>,
    outpos: usize,
    /// A request is on the worker pool (PENDING state).
    pending: bool,
    /// Close once `outbuf` drains.
    close_after_flush: bool,
    /// Why the close-after-flush was decided (reject status, drain,
    /// clean keep-alive end); reported by the access log when the close
    /// finally happens.
    close_reason: Option<CloseReason>,
    /// The peer half-closed its write side (EOF seen). Requests already
    /// buffered are still served — half-close is a legitimate way to
    /// say "no more requests".
    peer_eof: bool,
    /// Holds an admission slot (counts toward `max_inflight`).
    counted: bool,
    /// Responses fully written on this connection.
    served: u64,
    /// Requests dispatched to workers (for keep-alive accounting).
    dispatched: u64,
    /// When the first byte of the not-yet-framed request arrived
    /// (consumed at dispatch into that request's `parse_ns`).
    read_started: Option<Instant>,
    /// Responses awaiting their flush time before logging.
    log: Vec<PendingLog>,
    /// What the socket is watched for (a change is a `Watch` action).
    interest: Interest,
    /// The connection's one deadline and its one wheel entry (see
    /// `timer.rs`).
    deadline: Deadline<DeadlineKind>,
}

impl Conn {
    fn new(id: u64) -> Conn {
        Conn {
            id,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            pending: false,
            close_after_flush: false,
            close_reason: None,
            peer_eof: false,
            counted: false,
            served: 0,
            dispatched: 0,
            read_started: None,
            log: Vec::new(),
            interest: Interest::default(),
            deadline: Deadline::default(),
        }
    }
}

/// A connection slot: the epoch invalidates stale jobs/completions when
/// the slot is reused for a later connection.
struct Slot {
    epoch: u64,
    conn: Option<Conn>,
}

/// The open connection in `token`'s slot. A free function, so a caller
/// can hold it while it touches the core's other fields.
fn conn_mut(slots: &mut [Slot], token: usize) -> Option<&mut Conn> {
    slots.get_mut(token).and_then(|s| s.conn.as_mut())
}

/// Every connection's state machine (see the module docs).
pub(crate) struct Core<'a, C> {
    server: &'a Server,
    /// The registry and per-tenant runtimes (routing, quotas, counters).
    tenancy: &'a Tenancy<'a>,
    clock: C,
    wheel: TimerWheel,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Freed since the last [`Core::tick`] and reusable after it, so a
    /// stale readiness event of the batch the driver is handling can
    /// never reach a new connection in the slot.
    free_pending: Vec<usize>,
    /// Connections currently open.
    open: usize,
    /// Connections holding an admission slot.
    active: usize,
    drain_started: bool,
    /// Queued for the driver, oldest first.
    actions: VecDeque<Action>,
    /// Scratch for [`Core::tick`].
    fired: Vec<Fired>,
}

impl<'a, C: Clock> Core<'a, C> {
    pub(crate) fn new(server: &'a Server, tenancy: &'a Tenancy<'a>, clock: C) -> Self {
        // 128 x 16ms ≈ 2s horizon; longer deadlines lap (see timer.rs).
        let wheel = TimerWheel::new(Duration::from_millis(16), 128, clock.now());
        Core {
            server,
            tenancy,
            clock,
            wheel,
            slots: Vec::new(),
            free: Vec::new(),
            free_pending: Vec::new(),
            open: 0,
            active: 0,
            drain_started: false,
            actions: VecDeque::new(),
            fired: Vec::new(),
        }
    }

    // ---- what the driver asks ----------------------------------------

    /// The oldest action the driver has not carried out yet.
    pub(crate) fn next_action(&mut self) -> Option<Action> {
        self.actions.pop_front()
    }

    /// What the connection's socket should be watched for; `None` once
    /// the connection is closed.
    pub(crate) fn interest(&self, token: usize) -> Option<Interest> {
        self.conn_ref(token).map(|conn| conn.interest)
    }

    /// How many more bytes the driver reads for the connection before
    /// it stops (it may overshoot by the rest of one read): none while
    /// the connection is closing, the room below the input-buffer cap
    /// otherwise.
    pub(crate) fn read_room(&self, token: usize) -> usize {
        let cap = self.server.config.limits.input_buffer_cap();
        self.conn_ref(token)
            .filter(|conn| !conn.close_after_flush)
            .map_or(0, |conn| cap.saturating_sub(conn.inbuf.len()))
    }

    /// The connection's bytes not yet written, if it has any.
    pub(crate) fn unwritten(&self, token: usize) -> Option<&[u8]> {
        let conn = self.conn_ref(token)?;
        (conn.outpos < conn.outbuf.len()).then(|| &conn.outbuf[conn.outpos..])
    }

    /// How long the driver may wait before [`Core::tick`] has deadlines
    /// to fire; `None` when none is lodged.
    pub(crate) fn next_timeout(&self) -> Option<Duration> {
        self.wheel.next_timeout(self.clock.now())
    }

    /// Shutdown has begun.
    pub(crate) fn draining(&self) -> bool {
        self.drain_started
    }

    /// Shutdown has begun and every connection is closed.
    pub(crate) fn drained(&self) -> bool {
        self.drain_started && self.open == 0
    }

    /// Entries lodged in the deadline wheel.
    #[cfg(test)]
    pub(crate) fn timer_entries(&self) -> usize {
        self.wheel.entries()
    }

    // ---- inputs ------------------------------------------------------

    /// A connection was accepted. Returns its token — the driver
    /// watches the socket under it for [`Core::interest`] — or `None`
    /// once draining (the driver drops the socket: the peer sees a clean
    /// close).
    pub(crate) fn accept(&mut self) -> Option<usize> {
        if self.drain_started {
            return None;
        }
        let stats = &self.server.stats;
        let id = stats.connections_accepted.fetch_add(1, Ordering::Relaxed) + 1;
        let admitted = self.active < self.server.config.max_inflight;
        let mut conn = Conn::new(id);
        if !admitted {
            // Admission gate: answer 429 without entering service.
            // Checked only here, on the driver's one thread — exact.
            stats.rejected.fetch_add(1, Ordering::Relaxed);
            conn.outbuf = http::encode_error(429, "server at capacity");
            conn.close_after_flush = true;
            conn.close_reason = Some(CloseReason::Admission);
            let len = conn.outbuf.len() as u64;
            let now = self.clock.now();
            conn.log.push(PendingLog::loop_reject(429, len, None, now));
            let token = self.alloc(conn);
            self.flush(token);
            return Some(token);
        }
        conn.counted = true;
        conn.interest = Interest::READ;
        let token = self.alloc(conn);
        self.set_active(self.active + 1);
        self.arm(token, DeadlineKind::Read, self.server.config.read_timeout);
        Some(token)
    }

    /// The driver read `bytes` from the connection's socket (about
    /// [`Core::read_room`] at most) and the read ended as `end`.
    pub(crate) fn read(&mut self, token: usize, bytes: &[u8], end: ReadEnd) {
        let Some(conn) = conn_mut(&mut self.slots, token) else {
            return;
        };
        if conn.close_after_flush {
            return;
        }
        conn.inbuf.extend_from_slice(bytes);
        match end {
            ReadEnd::Open => {}
            ReadEnd::Eof => conn.peer_eof = true,
            ReadEnd::Failed => {
                // Peer reset. If it still owed us a request (and was not
                // just parked idle), account the loss the way a read
                // error always has been.
                let owed = !conn.pending && (conn.served == 0 || !conn.inbuf.is_empty());
                if owed {
                    self.server.stats.rejected.fetch_add(1, Ordering::Relaxed);
                }
                self.close_conn(token, CloseReason::IoError);
                return;
            }
        }
        if !bytes.is_empty() {
            if conn.read_started.is_none() {
                // Clock for the current request's parse_ns starts at its
                // first byte.
                conn.read_started = Some(self.clock.now());
            }
            self.on_bytes_arrived(token);
        }
        self.process_inbuf(token);
        self.flush(token);
        self.update_read_interest(token);
    }

    /// ERR/HUP readiness cannot be masked out of a level-triggered
    /// poller, so a connection the read path can no longer make
    /// progress on (rejecting, backpressured at the input cap, already
    /// at EOF) would otherwise wake the driver on every wait, forever.
    /// HUP means the peer is gone in both directions — nothing more
    /// can arrive or be delivered — so account an owed request the way
    /// a read error is accounted and close.
    pub(crate) fn hangup(&mut self, token: usize) {
        let Some(conn) = self.conn_ref(token) else {
            return;
        };
        // `reject_conn` already counted connections it marked closing.
        let owed = !conn.pending
            && !conn.close_after_flush
            && (conn.served == 0 || !conn.inbuf.is_empty());
        if owed {
            self.server.stats.rejected.fetch_add(1, Ordering::Relaxed);
        }
        self.close_conn(token, CloseReason::Hangup);
    }

    /// How the driver's write of [`Core::unwritten`] went.
    pub(crate) fn wrote(&mut self, token: usize, how: Wrote) {
        let Some(conn) = conn_mut(&mut self.slots, token) else {
            return;
        };
        match how {
            Wrote::Bytes(n) => {
                conn.outpos = (conn.outpos + n).min(conn.outbuf.len());
                if conn.outpos == conn.outbuf.len() {
                    self.written(token);
                }
            }
            Wrote::Blocked => {
                // FLUSH stalled: wait for writability, bounded by the
                // write-stall deadline.
                let interest = Interest {
                    readable: conn.interest.readable,
                    writable: true,
                };
                let stalled = conn.deadline.kind() != Some(DeadlineKind::Write);
                self.set_interest(token, interest);
                if stalled {
                    self.arm(token, DeadlineKind::Write, self.server.config.write_timeout);
                }
            }
            Wrote::Failed => self.close_conn(token, CloseReason::IoError),
        }
    }

    /// The driver could not watch the connection's socket: close it.
    pub(crate) fn failed(&mut self, token: usize) {
        self.close_conn(token, CloseReason::IoError);
    }

    /// The worker pool is gone (the shutdown tail): the job comes back
    /// unrun and its connection closes.
    pub(crate) fn submit_failed(&mut self, job: Job) {
        self.server
            .stats
            .queue_depth
            .fetch_sub(1, Ordering::Relaxed);
        if let Some(idx) = job.tenant {
            let rt = self.tenancy.set.runtime(idx);
            rt.stats.inflight.fetch_sub(1, Ordering::Relaxed);
        }
        if self
            .slots
            .get(job.token)
            .is_some_and(|s| s.epoch == job.epoch)
        {
            self.close_conn(job.token, CloseReason::Drain);
        }
    }

    /// A worker finished a request: deliver the response, then resume
    /// the connection's pipeline.
    pub(crate) fn completed(&mut self, done: Done) {
        let token = done.token;
        let Some(closing) = self.respond(done) else {
            // The connection died (reset, write stall) while computing.
            return;
        };
        if !closing {
            // Parse the next pipelined request (or go idle) before
            // flushing so a back-to-back pair coalesces into one write.
            self.process_inbuf(token);
        }
        self.flush(token);
        self.update_read_interest(token);
        // The read deadline was disarmed at dispatch. If the leftover
        // pipelined bytes only make a partial request, the paths above
        // arm nothing — and a deadline-free connection holding its
        // admission slot would outlive a peer that never speaks again.
        self.ensure_deadline(token);
    }

    /// Time passed: fires every deadline now due, then lets the slots
    /// closed since the last tick be reused (the driver ticks once per
    /// lap, after the lap's readiness events).
    pub(crate) fn tick(&mut self) {
        let now = self.clock.now();
        let mut fired = std::mem::take(&mut self.fired);
        fired.clear();
        self.wheel.expire(now, &mut fired);
        for f in &fired {
            self.fire_deadline(f, now);
        }
        self.fired = fired;
        self.server
            .stats
            .timer_entries
            .store(self.wheel.entries() as u64, Ordering::Relaxed);
        self.free.append(&mut self.free_pending);
    }

    /// Shutdown begins (the driver stops accepting): close every
    /// connection not owed a response; the rest drain through their
    /// normal state machine (cancelled query budgets make the computes
    /// finish fast).
    pub(crate) fn drain(&mut self) {
        self.drain_started = true;
        for token in 0..self.slots.len() {
            let Some(conn) = self.conn(token) else {
                continue;
            };
            // Nothing computing and nothing left to flush: the
            // connection is either parked idle or holds a partial
            // request that will never complete before shutdown. Close
            // it now, or the drain waits on a peer that may never
            // speak again.
            let reap = !conn.pending
                && conn.outpos == conn.outbuf.len()
                && (conn.served > 0 || !conn.inbuf.is_empty());
            if reap {
                self.close_conn(token, CloseReason::Drain);
            } else if !conn.close_after_flush && !conn.pending && conn.outpos < conn.outbuf.len() {
                // Anything mid-flush finishes its current write and
                // closes with it (a partial request buffered behind
                // the flush will never be parsed during drain).
                conn.close_after_flush = true;
                conn.close_reason.get_or_insert(CloseReason::Drain);
            }
        }
    }

    // ---- slot bookkeeping --------------------------------------------

    fn stopping(&self) -> bool {
        self.server.stop.load(Ordering::SeqCst)
    }

    fn conn(&mut self, token: usize) -> Option<&mut Conn> {
        conn_mut(&mut self.slots, token)
    }

    fn conn_ref(&self, token: usize) -> Option<&Conn> {
        self.slots.get(token).and_then(|s| s.conn.as_ref())
    }

    fn alloc(&mut self, conn: Conn) -> usize {
        self.open += 1;
        self.server
            .stats
            .connections_open
            .store(self.open as u64, Ordering::Relaxed);
        if let Some(token) = self.free.pop() {
            self.slots[token].conn = Some(conn);
            token
        } else {
            self.slots.push(Slot {
                epoch: 0,
                conn: Some(conn),
            });
            self.slots.len() - 1
        }
    }

    fn close_conn(&mut self, token: usize, reason: CloseReason) {
        let Some(slot) = self.slots.get_mut(token) else {
            return;
        };
        let Some(mut conn) = slot.conn.take() else {
            return;
        };
        slot.epoch += 1;
        self.wheel.release(&mut conn.deadline);
        self.actions.push_back(Action::Close(token, reason));
        if conn.counted {
            self.set_active(self.active - 1);
        }
        self.open -= 1;
        self.server
            .stats
            .connections_open
            .store(self.open as u64, Ordering::Relaxed);
        self.free_pending.push(token);
        // Responses that never fully drained still get their line, with
        // the close reason as the disposition.
        self.write_access_lines(conn.id, &mut conn.log, reason.name());
    }

    /// Writes one access-log line per entry (flush time measured here)
    /// and records each flush latency into the obs registry.
    fn write_access_lines(&self, conn_id: u64, entries: &mut Vec<PendingLog>, disposition: &str) {
        if entries.is_empty() {
            return;
        }
        let now = self.clock.now();
        let recording = lotusx_obs::enabled();
        let stats = &self.server.stats;
        for entry in entries.drain(..) {
            let flush_ns = nanos(now, entry.enqueued);
            if recording {
                lotusx_obs::metrics().record_stage(Stage::HttpFlush, flush_ns);
            }
            let Some(access) = &self.server.access else {
                continue;
            };
            let tenant = entry
                .tenant
                .map_or("-", |idx| self.tenancy.set.runtime(idx).name());
            let mut line = String::with_capacity(256 + entry.path.len());
            line.push('{');
            push_u64_members(
                &mut line,
                [("ts_ms", self.clock.unix_ms()), ("conn", conn_id)],
            );
            let texts = [
                ("tenant", tenant),
                ("method", &entry.method),
                ("path", &entry.path),
            ];
            for (key, text) in texts {
                line.push_str(",\"");
                line.push_str(key);
                line.push_str("\":");
                push_json_str(&mut line, text);
            }
            line.push(',');
            push_u64_members(
                &mut line,
                [("status", entry.status.into()), ("bytes", entry.bytes)],
            );
            line.push_str(",\"close\":");
            push_json_str(&mut line, disposition);
            line.push(',');
            push_u64_members(
                &mut line,
                [
                    ("parse_ns", entry.parse_ns),
                    ("queue_ns", entry.queue_ns),
                    ("compute_ns", entry.compute_ns),
                    ("flush_ns", flush_ns),
                ],
            );
            if let Some(reason) = entry.truncated {
                line.push_str(",\"truncated\":");
                push_json_str(&mut line, reason.name());
            }
            line.push('}');
            if access.log(line) {
                stats.access_log_lines.fetch_add(1, Ordering::Relaxed);
            } else {
                stats.access_log_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn set_active(&mut self, active: usize) {
        self.active = active;
        self.server
            .stats
            .connections_active
            .store(active as u64, Ordering::Relaxed);
    }

    fn set_interest(&mut self, token: usize, interest: Interest) {
        let Some(conn) = self.conn(token) else {
            return;
        };
        if conn.interest == interest {
            return;
        }
        conn.interest = interest;
        self.actions.push_back(Action::Watch(token, interest));
    }

    // ---- deadlines ---------------------------------------------------

    fn arm(&mut self, token: usize, kind: DeadlineKind, after: Duration) {
        let at = self.clock.now() + after;
        if let Some(conn) = conn_mut(&mut self.slots, token) {
            self.wheel.arm(&mut conn.deadline, token, at, kind);
        }
    }

    fn disarm(&mut self, token: usize) {
        if let Some(conn) = self.conn(token) {
            conn.deadline.disarm();
        }
    }

    fn fire_deadline(&mut self, f: &Fired, now: Instant) {
        let token = f.token;
        let Some(conn) = conn_mut(&mut self.slots, token) else {
            return;
        };
        // Stale entries, disarmed deadlines and entries that came up
        // before a since-moved deadline (re-lodged) all end here.
        let Some(kind) = self.wheel.fired(&mut conn.deadline, f, now) else {
            return;
        };
        let stats = &self.server.stats;
        match kind {
            DeadlineKind::Read => {
                stats.read_timeouts.fetch_add(1, Ordering::Relaxed);
                self.reject_conn(token, Reject::new(408, "read timed out"), None);
                self.flush(token);
            }
            DeadlineKind::Idle => {
                stats.idle_closes.fetch_add(1, Ordering::Relaxed);
                self.close_conn(token, CloseReason::IdleTimeout);
            }
            DeadlineKind::Write => {
                stats.write_stalls.fetch_add(1, Ordering::Relaxed);
                self.close_conn(token, CloseReason::WriteStall);
            }
        }
    }

    // ---- read path ---------------------------------------------------

    /// New bytes landed: re-admit an idle connection and re-arm the
    /// read deadline (unless a request is already computing).
    fn on_bytes_arrived(&mut self, token: usize) {
        let Some(conn) = self.conn(token) else {
            return;
        };
        let pending = conn.pending;
        if !conn.counted {
            conn.counted = true;
            self.set_active(self.active + 1);
        }
        if !pending {
            self.arm(token, DeadlineKind::Read, self.server.config.read_timeout);
        }
    }

    /// Parses as much of the input buffer as the pipelining rules allow:
    /// requests are answered inline one after another (their responses
    /// coalesce in the output buffer) until one needs the worker pool —
    /// at most one request per connection is on the workers at a time.
    fn process_inbuf(&mut self, token: usize) {
        // What one look at the buffer decided; acted on after the
        // connection borrow is released.
        enum Act {
            Done,
            EofTruncated,
            EofClose,
            GoIdle,
            /// A routed, admitted request: answer it here if that is
            /// cheap, else hand it to the workers.
            Serve {
                request: http::Request,
                keep_alive: bool,
                reused: bool,
                parse_ns: u64,
                tenant: Option<u32>,
            },
            Reject(Reject),
            /// A routing miss (404 `unknown_tenant`) or a per-tenant
            /// admission quota trip (429); counted separately from
            /// generic rejects.
            RejectTenant {
                reject: Reject,
                tenant: Option<u32>,
                quota: bool,
            },
        }
        let limits = self.server.config.limits;
        // A plain copy of the reference so routing can run while the
        // connection borrow is live.
        let tenancy = self.tenancy;
        loop {
            let stopping = self.stopping();
            let act = {
                let Some(conn) = conn_mut(&mut self.slots, token) else {
                    return;
                };
                if conn.pending || conn.close_after_flush {
                    return;
                }
                if conn.inbuf.is_empty() {
                    if conn.peer_eof {
                        if conn.served == 0 && conn.dispatched == 0 {
                            // The peer connected and said nothing: the
                            // documented "truncated request" 400.
                            Act::EofTruncated
                        } else {
                            // Clean end of a keep-alive conversation.
                            conn.close_after_flush = true;
                            Act::EofClose
                        }
                    } else if conn.served > 0 && conn.outbuf.len() == conn.outpos {
                        Act::GoIdle
                    } else {
                        Act::Done
                    }
                } else {
                    match http::parse_request(&conn.inbuf, &limits) {
                        ParseStatus::Complete(parsed) => {
                            conn.inbuf.drain(..parsed.consumed);
                            conn.dispatched += 1;
                            let parse_ns = conn
                                .read_started
                                .take()
                                .map_or(0, |t| nanos(self.clock.now(), t));
                            // Keep-alive is honored unless the request
                            // opted out, the peer already half-closed
                            // with nothing further buffered, or the
                            // server is stopping (drain closes as it
                            // answers).
                            let keep_alive = !(parsed.close
                                || stopping
                                || (conn.peer_eof && conn.inbuf.is_empty()));
                            let reused = conn.dispatched > 1;
                            let mut request = parsed.request;
                            // Route first, then decide scope once, on
                            // the path routing produced (the request's
                            // own on a miss): health, stats, metrics,
                            // shutdown and route administration answer
                            // for the whole process — never charged to,
                            // or refused for, the tenant a rule or a
                            // `/t/<name>` prefix names.
                            let routed = tenancy.registry.route(&request.path, &request.headers);
                            let routed = routed.map(|(idx, rewritten)| {
                                if let Some(path) = rewritten {
                                    request.path = path;
                                }
                                idx as u32
                            });
                            let server_scoped = matches!(
                                request.path.as_str(),
                                "/healthz" | "/stats" | "/metrics" | "/shutdown" | "/admin/routes"
                            );
                            let tenant = routed.filter(|_| !server_scoped);
                            // Per-tenant admission quota, checked only
                            // here on the driver's thread — exact, like
                            // the server-wide gate.
                            let over = tenant.is_some_and(|idx| {
                                let rt = tenancy.set.runtime(idx);
                                rt.limits().max_inflight.is_some_and(|quota| {
                                    rt.stats.inflight.load(Ordering::Relaxed) >= quota as u64
                                })
                            });
                            if tenant.is_none() && !server_scoped {
                                Act::RejectTenant {
                                    reject: Reject::new(404, "unknown_tenant"),
                                    tenant: None,
                                    quota: false,
                                }
                            } else if over {
                                Act::RejectTenant {
                                    reject: Reject::new(429, "tenant at capacity"),
                                    tenant,
                                    quota: true,
                                }
                            } else {
                                Act::Serve {
                                    request,
                                    keep_alive,
                                    reused,
                                    parse_ns,
                                    tenant,
                                }
                            }
                        }
                        ParseStatus::Partial { on_eof } => {
                            if conn.peer_eof {
                                Act::Reject(on_eof)
                            } else {
                                Act::Done
                            }
                        }
                        ParseStatus::Failed(reject) => Act::Reject(reject),
                    }
                }
            };
            match act {
                Act::Done => return,
                Act::EofTruncated => {
                    self.reject_conn(token, Reject::new(400, "truncated request"), None);
                    self.flush(token);
                    return;
                }
                Act::EofClose => {
                    self.disarm(token);
                    self.flush(token);
                    return;
                }
                Act::GoIdle => {
                    self.park_idle(token);
                    return;
                }
                Act::Reject(reject) => {
                    self.reject_conn(token, reject, None);
                    self.flush(token);
                    return;
                }
                Act::RejectTenant {
                    reject,
                    tenant,
                    quota,
                } => {
                    // `reject_conn` does the generic reject accounting;
                    // these are the tenant-specific counters on top.
                    let stats = &self.server.stats;
                    if quota {
                        stats.tenant_quota_rejects.fetch_add(1, Ordering::Relaxed);
                        if let Some(idx) = tenant {
                            self.tenancy
                                .set
                                .runtime(idx)
                                .stats
                                .quota_rejects
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        stats.unknown_tenant_rejects.fetch_add(1, Ordering::Relaxed);
                    }
                    self.reject_conn(token, reject, tenant);
                    self.flush(token);
                    return;
                }
                Act::Serve {
                    request,
                    keep_alive,
                    reused,
                    parse_ns,
                    tenant,
                } => {
                    let stats = &self.server.stats;
                    stats.requests.fetch_add(1, Ordering::Relaxed);
                    if reused {
                        stats.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
                    }
                    if let Some(idx) = tenant {
                        // Admitted under the tenant's quota: charge the
                        // inflight gauge here; the matching release is
                        // in `respond` (or `submit_failed`).
                        let rt = self.tenancy.set.runtime(idx);
                        rt.stats.requests.fetch_add(1, Ordering::Relaxed);
                        let now = rt.stats.inflight.fetch_add(1, Ordering::Relaxed) + 1;
                        rt.stats.max_inflight_seen.fetch_max(now, Ordering::Relaxed);
                    }
                    // The fast path: whatever is bounded by the size of
                    // the request and its response is answered right
                    // here, with no hand-off.
                    let started = self.clock.now();
                    let epoch = self.slots[token].epoch;
                    let attempt =
                        self.server
                            .answer(self.tenancy, tenant, &request, Work::Raw, true);
                    let work = match attempt {
                        Ok(outcome) => {
                            stats.inline_answers.fetch_add(1, Ordering::Relaxed);
                            let http::Request { method, path, .. } = request;
                            let truncated = outcome.truncated();
                            self.respond(Done {
                                token,
                                epoch,
                                payload: Payload::Inline {
                                    outcome,
                                    keep_alive,
                                    started,
                                },
                                method,
                                path,
                                tenant,
                                parse_ns,
                                queue_ns: 0,
                                truncated,
                            });
                            // Loop: the next pipelined request parses (and
                            // its response coalesces) before the flush.
                            continue;
                        }
                        Err(work) => work,
                    };
                    stats.inline_fallbacks.fetch_add(1, Ordering::Relaxed);
                    if let Some(conn) = self.conn(token) {
                        conn.pending = true;
                    }
                    self.disarm(token);
                    let depth = stats.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
                    stats.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
                    let job = Job {
                        token,
                        epoch,
                        request,
                        work,
                        tenant,
                        keep_alive,
                        parse_ns,
                        queued_at: self.clock.now(),
                    };
                    self.actions.push_back(Action::Submit(Box::new(job)));
                    // Loop: the next iteration sees `pending` and
                    // returns; the completion resumes the parse.
                }
            }
        }
    }

    /// READING/FLUSH → IDLE: give up the admission slot, arm the idle
    /// deadline. During drain there is no idle — close instead.
    fn park_idle(&mut self, token: usize) {
        if self.stopping() {
            self.close_conn(token, CloseReason::Drain);
            return;
        }
        let Some(conn) = self.conn(token) else {
            return;
        };
        if conn.counted {
            conn.counted = false;
            self.set_active(self.active - 1);
        }
        self.arm(token, DeadlineKind::Idle, self.server.config.idle_timeout);
    }

    /// Queues an error response and marks the connection REJECTING: no
    /// more reads, close once the response drains. `tenant` is the
    /// routed tenant when known (quota rejects) so the access-log line
    /// can carry it.
    fn reject_conn(&mut self, token: usize, reject: Reject, tenant: Option<u32>) {
        if self.conn_ref(token).is_none() {
            return;
        }
        self.server.stats.rejected.fetch_add(1, Ordering::Relaxed);
        let bytes =
            (!reject.connection_dead()).then(|| http::encode_error(reject.status, &reject.reason));
        let reason = if reject.status == 408 {
            CloseReason::ReadTimeout
        } else {
            CloseReason::Rejected
        };
        let now = self.clock.now();
        if let Some(conn) = self.conn(token) {
            let len = bytes.as_ref().map_or(0, |b| b.len() as u64);
            if let Some(b) = bytes {
                conn.outbuf.extend_from_slice(&b);
            }
            conn.close_after_flush = true;
            conn.close_reason.get_or_insert(reason);
            conn.inbuf.clear();
            conn.log
                .push(PendingLog::loop_reject(reject.status, len, tenant, now));
        }
        self.disarm(token);
        self.update_read_interest(token);
    }

    // ---- completions -------------------------------------------------

    /// **The** way a finished response reaches a connection, whether a
    /// worker computed it or the core just did inline: releases the
    /// tenant's inflight slot, records the request's queue-wait and
    /// compute samples, appends the bytes to the output buffer (inline
    /// answers are encoded straight into it), decides whether the
    /// connection closes after the flush, and queues the access-log
    /// line. Flushing is the caller's next step. Returns whether the
    /// connection is now closing, or `None` when it no longer exists.
    fn respond(&mut self, done: Done) -> Option<bool> {
        let token = done.token;
        let stopping = self.stopping();
        // Release the tenant's inflight slot unconditionally, *before*
        // the epoch check: the gauge was charged at dispatch, and a
        // connection that died mid-compute must still release it or the
        // tenant's quota leaks shut.
        if let Some(idx) = done.tenant {
            self.tenancy
                .set
                .runtime(idx)
                .stats
                .inflight
                .fetch_sub(1, Ordering::Relaxed);
        }
        // A completion for a connection that died (reset, write stall)
        // while computing has nowhere to go.
        let conn = self
            .slots
            .get_mut(token)
            .filter(|slot| slot.epoch == done.epoch)
            .and_then(|slot| slot.conn.as_mut())?;
        let (status, close, len, compute_ns, lag_ns, now) = match done.payload {
            Payload::Encoded {
                bytes,
                status,
                close,
                compute_ns,
                finished,
            } => {
                conn.outbuf.extend_from_slice(&bytes);
                // Completion-to-pickup latency: how far behind the loop
                // thread is running (its health signal under load).
                let now = self.clock.now();
                let len = bytes.len() as u64;
                (status, close, len, compute_ns, nanos(now, finished), now)
            }
            Payload::Inline {
                outcome,
                keep_alive,
                started,
            } => {
                let before = conn.outbuf.len();
                // A draining server says so in the response itself.
                let (status, close) = self.server.encode_outcome(
                    self.tenancy,
                    done.tenant,
                    outcome,
                    keep_alive && !stopping,
                    &mut conn.outbuf,
                );
                let len = (conn.outbuf.len() - before) as u64;
                let now = self.clock.now();
                (status, close, len, nanos(now, started), 0, now)
            }
        };
        if lotusx_obs::enabled() {
            // Every delivered response leaves one sample of each, so the
            // per-request latency budget sums wherever it was served; an
            // inline answer waited in no queue and for no pick-up.
            let m = lotusx_obs::metrics();
            m.record_stage(Stage::HttpQueueWait, done.queue_ns);
            m.record_stage(Stage::HttpCompute, compute_ns);
            m.record_stage(Stage::HttpLoopLag, lag_ns);
        }
        conn.pending = false;
        if close || stopping {
            conn.close_after_flush = true;
            conn.close_reason.get_or_insert(if stopping {
                CloseReason::Drain
            } else if status >= 400 || status == 0 {
                CloseReason::Rejected
            } else {
                CloseReason::ClientClose
            });
        }
        conn.log.push(PendingLog {
            method: done.method,
            path: done.path,
            status,
            bytes: len,
            tenant: done.tenant,
            parse_ns: done.parse_ns,
            queue_ns: done.queue_ns,
            compute_ns,
            truncated: done.truncated,
            enqueued: now,
        });
        let closing = conn.close_after_flush;
        Some(closing)
    }

    /// Arms whatever deadline the connection's state calls for, if
    /// none is armed. PENDING and closing connections are bounded by
    /// their completion and the write path respectively; every other
    /// state must carry a read or idle deadline.
    fn ensure_deadline(&mut self, token: usize) {
        let Some(conn) = self.conn_ref(token) else {
            return;
        };
        if conn.pending || conn.close_after_flush || conn.deadline.is_armed() {
            return;
        }
        self.restore_deadline(token);
    }

    // ---- write path --------------------------------------------------

    /// Bytes appended to an output buffer always get a write: one is
    /// queued for the driver, or — with nothing left to write — the
    /// connection settles now ([`Core::written`]).
    fn flush(&mut self, token: usize) {
        let Some(conn) = self.conn_ref(token) else {
            return;
        };
        if conn.outpos < conn.outbuf.len() {
            self.actions.push_back(Action::Write(token));
        } else {
            self.written(token);
        }
    }

    /// The output buffer is fully written. Counts and logs what went
    /// out, closes the connection if that was its last response, puts
    /// back the deadline a write stall displaced, and lets the input
    /// buffer make progress — which can queue more bytes (every inline
    /// answer does), and those get a write in turn. So bytes appended to
    /// an output buffer are written without the peer having to speak
    /// again, and a stalled write always leaves write interest and a
    /// deadline behind.
    fn written(&mut self, token: usize) {
        let Some(conn) = self.conn(token) else {
            return;
        };
        let flushed = !conn.outbuf.is_empty();
        conn.outbuf.clear();
        conn.outpos = 0;
        if flushed {
            conn.served += 1;
        }
        let close = conn.close_after_flush;
        let close_reason = conn.close_reason.unwrap_or(CloseReason::ClientClose);
        let writable_armed = conn.interest.writable;
        let write_deadline = conn.deadline.kind() == Some(DeadlineKind::Write);
        // Keep-alive responses that just drained get their access-log
        // lines now, with the flush time known; a closing connection
        // logs from `close_conn` so the line carries the close reason.
        if flushed && !close {
            // Lent out and handed back, so the queue keeps its capacity
            // from one request to the next.
            let (conn_id, mut log) = (conn.id, std::mem::take(&mut conn.log));
            self.write_access_lines(conn_id, &mut log, "keep_alive");
            if let Some(conn) = self.conn(token) {
                conn.log = log;
            }
        }
        if close {
            self.close_conn(token, close_reason);
            return;
        }
        if writable_armed {
            let readable = self.conn_ref(token).is_some_and(|c| c.interest.readable);
            self.set_interest(
                token,
                Interest {
                    readable,
                    writable: false,
                },
            );
        }
        if write_deadline {
            // The stall resolved; restore the deadline the state wants.
            self.disarm(token);
            self.restore_deadline(token);
        }
        self.process_inbuf(token);
        if self.unwritten(token).is_some() {
            self.actions.push_back(Action::Write(token));
        }
    }

    /// Recomputes the deadline for a connection's current state (used
    /// after a write stall resolves).
    fn restore_deadline(&mut self, token: usize) {
        let Some(conn) = self.conn_ref(token) else {
            return;
        };
        if conn.pending {
            return;
        }
        if conn.inbuf.is_empty() && conn.served > 0 {
            self.park_idle(token);
        } else {
            self.arm(token, DeadlineKind::Read, self.server.config.read_timeout);
        }
    }

    /// Read interest is wanted unless the connection is closing, saw
    /// EOF, or has hit the input-buffer cap (read-side backpressure).
    fn update_read_interest(&mut self, token: usize) {
        let cap = self.server.config.limits.input_buffer_cap();
        let Some(conn) = self.conn_ref(token) else {
            return;
        };
        let want = !conn.close_after_flush && !conn.peer_eof && conn.inbuf.len() < cap;
        let interest = Interest {
            readable: want,
            writable: conn.interest.writable,
        };
        self.set_interest(token, interest);
    }
}
