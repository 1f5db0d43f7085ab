//! The single-threaded connection event loop: accept, read, parse,
//! dispatch, write — all nonblocking.
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
//!   the loop goes straight on to the next pipelined request, so a burst
//!   of keystrokes is parsed, answered and written with one `read` and
//!   one `write`.
//! * **PENDING** — the inline attempt declined (a cache miss, a tripped
//!   budget, an endpoint that renders the registry or takes a lock): the
//!   request, with whatever was already decoded of it, is on the worker
//!   pool — exactly one per connection. Pipelined bytes keep
//!   accumulating (up to the input-buffer cap) but are not parsed until
//!   the response is enqueued, which keeps responses in request order
//!   with no reorder machinery. Both routes run the same
//!   [`Server::answer`] and deliver through the same
//!   [`EventLoop::respond`]; only the thread differs.
//! * **FLUSH** — response bytes draining to the socket. On `WouldBlock`
//!   the loop registers write interest and arms the write-stall
//!   deadline; a peer that stops reading for too long is dropped.
//!   Appending to an output buffer always ends in a write attempt
//!   ([`EventLoop::flush`] repeats until nothing is left unwritten).
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
//! and not idle). It is checked only here, on the loop thread, at
//! accept and at idle→reading re-entry — single-threaded, so the gate
//! is exact and never over-admits. Re-entry from idle is always
//! admitted (the connection already proved it holds a well-behaved
//! client; refusing mid-stream would break pipelining), so `active` can
//! transiently exceed `max_inflight` only via re-admissions, never via
//! new connections.
//!
//! # Backpressure
//!
//! Read side: once a connection buffers more than
//! [`crate::http::Limits::input_buffer_cap`] unparsed bytes, the loop
//! drops read interest until the buffer drains below the cap. Write
//! side: `WouldBlock` suspends the flush until the socket signals
//! writable, bounded by the write-stall deadline. Both are per
//! connection; one stalled peer never affects another.

use crate::http::{self, ParseStatus, Reject};
use crate::poller::{Interest, PollEvent, Poller};
use crate::server::{Outcome, Server, Work};
use crate::tenants::Tenancy;
use crate::timer::{Deadline, Fired, TimerWheel};
use lotusx_obs::{
    conn_lane, emit_on_lane, push_json_str, push_u64_members, CloseReason, ConnPhase, DeadlineKind,
    EventKind, QueryId, Stage,
};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Token for the listening socket.
const TOKEN_LISTENER: usize = usize::MAX;
/// Token for the loop-wakeup pipe.
const TOKEN_WAKER: usize = usize::MAX - 1;
/// The loop never sleeps longer than this, so a lost wakeup can delay
/// (never lose) a stop request or completion by at most one lap.
const MAX_WAIT: Duration = Duration::from_millis(500);
/// The node-visit budget of one inline answer: how many DataGuide nodes
/// (tag completion) or elements (building a value trie that is not
/// resident yet) the loop thread may touch for a request before it drops
/// the partial work and hands the request to the worker pool. It bounds
/// how long one request can keep every other connection waiting — a few
/// tens of microseconds — while covering whole-guide completions on
/// data-centric corpora (their strong DataGuides have tens of nodes).
/// A constant, not a knob: the fast path's latency bound is part of the
/// server's design, not of its configuration.
pub(crate) const INLINE_NODE_BUDGET: u64 = 512;

/// A parsed request the loop thread declined to answer itself, handed
/// to the worker pool.
pub(crate) struct Job {
    /// Connection slot index.
    pub token: usize,
    /// Slot epoch at dispatch; a completion for a replaced connection
    /// fails this check and is dropped.
    pub epoch: u64,
    /// Lifetime id of the owning connection (trace lane, access log).
    pub conn_id: u64,
    /// The request to route.
    pub request: http::Request,
    /// What the inline attempt already decoded of it.
    pub work: Work,
    /// The routed tenant index (`None` for server-scoped endpoints).
    /// The loop thread already charged this tenant's `inflight` gauge;
    /// the matching decrement happens when the completion lands.
    pub tenant: Option<u32>,
    /// Encode the response with `Connection: keep-alive`.
    pub keep_alive: bool,
    /// First byte of this request → parse complete, on the loop thread.
    pub parse_ns: u64,
    /// When the job entered the worker queue (queue-wait measurement).
    pub queued_at: Instant,
}

/// A finished response on its way to a connection — from a worker
/// through the completion queue, or straight from the loop thread's own
/// inline answer. Either way it lands in [`EventLoop::respond`].
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
        /// When the worker pushed this completion (loop-lag measurement).
        finished: Instant,
    },
    /// Answered on the loop thread; encoded straight into the
    /// connection's output buffer by [`EventLoop::respond`].
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
    enqueued: Instant,
}

impl PendingLog {
    /// A line for a response synthesized on the loop thread without a
    /// parsed request behind it (429/408/400/404 rejects). `tenant` is
    /// known only for per-tenant quota rejects.
    fn loop_reject(status: u16, bytes: u64, tenant: Option<u32>) -> PendingLog {
        PendingLog {
            method: "-".to_string(),
            path: "-".to_string(),
            status,
            bytes,
            tenant,
            parse_ns: 0,
            queue_ns: 0,
            compute_ns: 0,
            enqueued: Instant::now(),
        }
    }
}

/// Wakes the event loop out of its poll wait (worker completions,
/// shutdown requests). Cheap to clone; writes are nonblocking and a
/// full pipe is fine — a wakeup is already pending.
#[derive(Clone)]
pub(crate) struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    pub(crate) fn new(tx: UnixStream) -> Waker {
        Waker { tx: Arc::new(tx) }
    }

    pub(crate) fn wake(&self) {
        let _ = (&*self.tx).write(&[1]);
    }
}

/// The completion queue from workers back to the loop.
pub(crate) struct Completions {
    queue: Mutex<Vec<Done>>,
    waker: Waker,
}

impl Completions {
    pub(crate) fn new(waker: Waker) -> Completions {
        Completions {
            queue: Mutex::new(Vec::new()),
            waker,
        }
    }

    pub(crate) fn push(&self, done: Done) {
        self.queue.lock().expect("completions poisoned").push(done);
        self.waker.wake();
    }

    fn drain(&self) -> Vec<Done> {
        std::mem::take(&mut *self.queue.lock().expect("completions poisoned"))
    }
}

/// Per-connection state. See the module docs for the state machine.
/// The deadline (at most one) is tagged with the shared
/// [`DeadlineKind`] so the deadline-fired trace event needs no mapping.
struct Conn {
    stream: TcpStream,
    /// Lifetime connection id (`connections_accepted` at accept time):
    /// the trace-lane number and the `conn` field of access-log lines.
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
    /// clean keep-alive end); reported by the close trace event and the
    /// access log when the close finally happens.
    close_reason: Option<CloseReason>,
    /// The peer half-closed its write side (EOF seen). Requests already
    /// buffered are still served — half-close is a legitimate way to
    /// say "no more requests".
    peer_eof: bool,
    /// Holds an admission slot (counts toward `max_inflight`).
    counted: bool,
    /// Responses fully handed to the kernel on this connection.
    served: u64,
    /// Requests dispatched to workers (for keep-alive accounting).
    dispatched: u64,
    /// When the first byte of the not-yet-framed request arrived
    /// (consumed at dispatch into that request's `parse_ns`).
    read_started: Option<Instant>,
    /// Responses awaiting their flush time before logging.
    log: Vec<PendingLog>,
    /// Last lifecycle phase published on the trace lane (dedup).
    phase: Option<ConnPhase>,
    /// Current poller interest (cached to skip no-op syscalls).
    interest: Interest,
    /// The connection's one deadline and its one wheel entry (see
    /// `timer.rs`).
    deadline: Deadline<DeadlineKind>,
}

impl Conn {
    fn new(stream: TcpStream, id: u64) -> Conn {
        Conn {
            stream,
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
            phase: None,
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

struct EventLoop<'a> {
    server: &'a Server,
    /// The registry and per-tenant runtimes (routing, quotas,
    /// counters). A plain reference copy of it is taken wherever a
    /// connection borrow is simultaneously live.
    tenancy: &'a Tenancy<'a>,
    poller: Poller,
    waker_rx: UnixStream,
    wheel: TimerWheel,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Freed this iteration; merged into `free` at iteration end so a
    /// stale readiness event in the same batch can never hit a new
    /// connection that reused the slot.
    free_pending: Vec<usize>,
    /// Connections currently open (gauge; loop exit condition).
    open: usize,
    /// Connections holding an admission slot.
    active: usize,
    jobs: &'a std::sync::mpsc::Sender<Job>,
    completions: &'a Completions,
    drain_started: bool,
}

/// Runs the event loop until shutdown completes: the stop flag is set
/// and every connection owed a response has been answered and closed.
pub(crate) fn run(
    server: &Server,
    tenancy: &Tenancy<'_>,
    poller: Poller,
    waker_rx: UnixStream,
    jobs: &std::sync::mpsc::Sender<Job>,
    completions: &Completions,
) {
    let mut el = EventLoop {
        server,
        tenancy,
        poller,
        waker_rx,
        // 128 x 16ms ≈ 2s horizon; longer deadlines lap (see timer.rs).
        wheel: TimerWheel::new(Duration::from_millis(16), 128),
        slots: Vec::new(),
        free: Vec::new(),
        free_pending: Vec::new(),
        open: 0,
        active: 0,
        jobs,
        completions,
        drain_started: false,
    };
    if let Err(e) = el.register_endpoints() {
        eprintln!("serve: event loop failed to start: {e}");
        return;
    }
    el.run_loop();
}

impl EventLoop<'_> {
    fn register_endpoints(&mut self) -> io::Result<()> {
        self.poller.register(
            self.server.listener.as_raw_fd(),
            TOKEN_LISTENER,
            Interest::READ,
        )?;
        self.poller
            .register(self.waker_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)
    }

    fn stopping(&self) -> bool {
        self.server.stop.load(Ordering::SeqCst)
    }

    fn run_loop(&mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut fired: Vec<Fired> = Vec::new();
        loop {
            if self.stopping() && !self.drain_started {
                self.drain_started = true;
                self.begin_drain();
            }
            if self.drain_started && self.open == 0 {
                return;
            }
            let now = Instant::now();
            let timeout = self
                .wheel
                .next_timeout(now)
                .map_or(MAX_WAIT, |t| t.min(MAX_WAIT));
            if let Err(e) = self.poller.wait(&mut events, Some(timeout)) {
                eprintln!("serve: poll wait failed: {e}");
                return;
            }
            let stats = &self.server.stats;
            if !events.is_empty() {
                stats.loop_wakeups.fetch_add(1, Ordering::Relaxed);
                stats
                    .ready_events
                    .fetch_add(events.len() as u64, Ordering::Relaxed);
                stats
                    .max_ready_batch
                    .fetch_max(events.len() as u64, Ordering::Relaxed);
            }
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.drain_waker(),
                    token => {
                        if ev.writable {
                            self.flush(token);
                        }
                        if ev.readable || ev.hangup {
                            self.on_readable(token);
                        }
                        if ev.hangup {
                            self.on_hangup(token);
                        }
                    }
                }
            }
            for done in self.completions.drain() {
                self.on_completion(done);
            }
            fired.clear();
            self.wheel.expire(Instant::now(), &mut fired);
            for f in &fired {
                self.fire_deadline(f);
            }
            stats
                .timer_entries
                .store(self.wheel.entries() as u64, Ordering::Relaxed);
            // Safe to reuse closed slots now: no stale event from this
            // batch can still reference them.
            self.free.append(&mut self.free_pending);
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        while matches!((&self.waker_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    // ---- slot bookkeeping -------------------------------------------

    fn conn(&mut self, token: usize) -> Option<&mut Conn> {
        self.slots.get_mut(token).and_then(|s| s.conn.as_mut())
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
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        drop(conn.stream);
        if conn.counted {
            self.set_active(self.active - 1);
        }
        self.open -= 1;
        self.server
            .stats
            .connections_open
            .store(self.open as u64, Ordering::Relaxed);
        self.free_pending.push(token);
        if lotusx_obs::tracing() {
            emit_on_lane(
                conn_lane(conn.id as u32),
                QueryId::NONE,
                EventKind::ConnClose {
                    conn: conn.id as u32,
                    reason,
                },
            );
        }
        // Responses that never fully drained still get their line, with
        // the close reason as the disposition.
        self.write_access_lines(conn.id, &mut conn.log, reason.name());
    }

    /// Publishes a lifecycle phase change on the connection's trace
    /// lane (deduplicated: re-entering the current phase is silent).
    fn set_phase(&mut self, token: usize, phase: ConnPhase) {
        let Some(conn) = self.conn(token) else {
            return;
        };
        if conn.phase == Some(phase) {
            return;
        }
        conn.phase = Some(phase);
        if lotusx_obs::tracing() {
            let id = conn.id as u32;
            emit_on_lane(
                conn_lane(id),
                QueryId::NONE,
                EventKind::ConnPhase { conn: id, phase },
            );
        }
    }

    /// Writes one access-log line per entry (flush time measured here)
    /// and records each flush latency into the obs registry.
    fn write_access_lines(&self, conn_id: u64, entries: &mut Vec<PendingLog>, disposition: &str) {
        let recording = lotusx_obs::enabled();
        let stats = &self.server.stats;
        for entry in entries.drain(..) {
            let flush_ns = entry.enqueued.elapsed().as_nanos() as u64;
            if recording {
                lotusx_obs::metrics().record_stage(Stage::HttpFlush, flush_ns);
            }
            let Some(access) = &self.server.access else {
                continue;
            };
            let ts_ms = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            let tenant = entry
                .tenant
                .map_or("-", |idx| self.tenancy.set.runtime(idx).name());
            let mut line = String::with_capacity(256 + entry.path.len());
            line.push('{');
            push_u64_members(&mut line, [("ts_ms", ts_ms), ("conn", conn_id)]);
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
        let fd = conn.stream.as_raw_fd();
        if self.poller.modify(fd, token, interest).is_err() {
            self.close_conn(token, CloseReason::IoError);
        }
    }

    // ---- deadlines ---------------------------------------------------

    fn arm(&mut self, token: usize, kind: DeadlineKind, after: Duration) {
        let at = Instant::now() + after;
        if let Some(conn) = self.slots.get_mut(token).and_then(|s| s.conn.as_mut()) {
            self.wheel.arm(&mut conn.deadline, token, at, kind);
        }
    }

    fn disarm(&mut self, token: usize) {
        if let Some(conn) = self.conn(token) {
            conn.deadline.disarm();
        }
    }

    fn fire_deadline(&mut self, f: &Fired) {
        let token = f.token;
        let Some(conn) = self.slots.get_mut(token).and_then(|s| s.conn.as_mut()) else {
            return;
        };
        // Stale entries, disarmed deadlines and entries that came up
        // before a since-moved deadline (re-lodged) all end here.
        let Some(kind) = self.wheel.fired(&mut conn.deadline, f, Instant::now()) else {
            return;
        };
        if lotusx_obs::tracing() {
            let id = conn.id as u32;
            emit_on_lane(
                conn_lane(id),
                QueryId::NONE,
                EventKind::ConnDeadline { conn: id, kind },
            );
        }
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

    // ---- accept ------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.server.listener.accept() {
                Ok((stream, _)) => {
                    if self.drain_started {
                        // Raced the deregister: refuse politely by
                        // dropping; the peer sees a clean close.
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let stats = &self.server.stats;
                    let id = stats.connections_accepted.fetch_add(1, Ordering::Relaxed) + 1;
                    if self.active >= self.server.config.max_inflight {
                        // Admission gate: answer 429 without entering
                        // service. Checked only on this thread — exact.
                        stats.rejected.fetch_add(1, Ordering::Relaxed);
                        if lotusx_obs::tracing() {
                            let lane = conn_lane(id as u32);
                            emit_on_lane(
                                lane,
                                QueryId::NONE,
                                EventKind::ConnAccept {
                                    conn: id as u32,
                                    admitted: false,
                                },
                            );
                            emit_on_lane(
                                lane,
                                QueryId::NONE,
                                EventKind::AdmissionReject { conn: id as u32 },
                            );
                        }
                        let mut conn = Conn::new(stream, id);
                        conn.outbuf = http::encode_error(429, "server at capacity");
                        conn.close_after_flush = true;
                        conn.close_reason = Some(CloseReason::Admission);
                        conn.log
                            .push(PendingLog::loop_reject(429, conn.outbuf.len() as u64, None));
                        let fd = conn.stream.as_raw_fd();
                        let token = self.alloc(conn);
                        if self
                            .poller
                            .register(fd, token, Interest::default())
                            .is_err()
                        {
                            self.close_conn(token, CloseReason::IoError);
                            continue;
                        }
                        self.flush(token);
                    } else {
                        if lotusx_obs::tracing() {
                            emit_on_lane(
                                conn_lane(id as u32),
                                QueryId::NONE,
                                EventKind::ConnAccept {
                                    conn: id as u32,
                                    admitted: true,
                                },
                            );
                        }
                        let mut conn = Conn::new(stream, id);
                        conn.counted = true;
                        conn.interest = Interest::READ;
                        let fd = conn.stream.as_raw_fd();
                        let token = self.alloc(conn);
                        self.set_active(self.active + 1);
                        if self.poller.register(fd, token, Interest::READ).is_err() {
                            self.close_conn(token, CloseReason::IoError);
                            continue;
                        }
                        self.set_phase(token, ConnPhase::Reading);
                        self.arm(token, DeadlineKind::Read, self.server.config.read_timeout);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient (EMFILE, aborted handshake): back off until
                // the next readiness event.
                Err(_) => return,
            }
        }
    }

    // ---- read path ---------------------------------------------------

    fn on_readable(&mut self, token: usize) {
        let cap = self.server.config.limits.input_buffer_cap();
        let mut got_bytes = false;
        {
            let Some(conn) = self.conn(token) else {
                return;
            };
            if conn.close_after_flush {
                return;
            }
            let mut chunk = [0u8; 8192];
            loop {
                if conn.inbuf.len() >= cap {
                    break;
                }
                match (&conn.stream).read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.inbuf.extend_from_slice(&chunk[..n]);
                        got_bytes = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Peer reset. If it still owed us a request (and
                        // was not just parked idle), account the loss the
                        // way a read error always has been.
                        let owed = !conn.pending && (conn.served == 0 || !conn.inbuf.is_empty());
                        if owed {
                            self.server.stats.rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        self.close_conn(token, CloseReason::IoError);
                        return;
                    }
                }
            }
            if got_bytes && conn.read_started.is_none() {
                // Clock for the current request's parse_ns starts at
                // its first byte.
                conn.read_started = Some(Instant::now());
            }
        }
        if got_bytes {
            self.on_bytes_arrived(token);
        }
        self.process_inbuf(token);
        self.flush(token);
        self.update_read_interest(token);
    }

    /// ERR/HUP readiness cannot be masked out of a level-triggered
    /// poller, so a connection the read path can no longer make
    /// progress on (rejecting, backpressured at the input cap, already
    /// at EOF) would otherwise wake the loop on every wait, forever.
    /// HUP means the peer is gone in both directions — nothing more
    /// can arrive or be delivered — so account an owed request the way
    /// a read error is accounted and close.
    fn on_hangup(&mut self, token: usize) {
        let Some(conn) = self.conn(token) else {
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
            self.set_phase(token, ConnPhase::Reading);
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
                conn_id: u64,
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
                let Some(conn) = self.conn(token) else {
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
                                .map_or(0, |t| t.elapsed().as_nanos() as u64);
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
                            // here on the loop thread — exact, like the
                            // server-wide gate.
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
                                    conn_id: conn.id,
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
                    conn_id,
                    tenant,
                } => {
                    let stats = &self.server.stats;
                    stats.requests.fetch_add(1, Ordering::Relaxed);
                    if reused {
                        stats.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
                    }
                    if let Some(idx) = tenant {
                        // Admitted under the tenant's quota: charge the
                        // inflight gauge here on the loop thread; the
                        // matching release is in `respond` (or the
                        // failed-send path below).
                        let rt = self.tenancy.set.runtime(idx);
                        rt.stats.requests.fetch_add(1, Ordering::Relaxed);
                        let now = rt.stats.inflight.fetch_add(1, Ordering::Relaxed) + 1;
                        rt.stats.max_inflight_seen.fetch_max(now, Ordering::Relaxed);
                    }
                    if reused && lotusx_obs::tracing() {
                        emit_on_lane(
                            conn_lane(conn_id as u32),
                            QueryId::NONE,
                            EventKind::ConnReuse {
                                conn: conn_id as u32,
                            },
                        );
                    }
                    // The fast path: whatever is bounded by the size of
                    // the request and its response is answered right
                    // here, with no hand-off.
                    let started = Instant::now();
                    let epoch = self.slots[token].epoch;
                    let lane = conn_lane(conn_id as u32);
                    let attempt =
                        self.server
                            .answer(self.tenancy, tenant, &request, Work::Raw, lane, true);
                    let work = match attempt {
                        Ok(outcome) => {
                            stats.inline_answers.fetch_add(1, Ordering::Relaxed);
                            let http::Request { method, path, .. } = request;
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
                    self.set_phase(token, ConnPhase::Pending);
                    self.disarm(token);
                    let depth = stats.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
                    stats.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
                    let sent = self.jobs.send(Job {
                        token,
                        epoch,
                        conn_id,
                        request,
                        work,
                        tenant,
                        keep_alive,
                        parse_ns,
                        queued_at: Instant::now(),
                    });
                    if sent.is_err() {
                        // Workers are gone (shutdown tail): close.
                        stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        if let Some(idx) = tenant {
                            self.tenancy
                                .set
                                .runtime(idx)
                                .stats
                                .inflight
                                .fetch_sub(1, Ordering::Relaxed);
                        }
                        self.close_conn(token, CloseReason::Drain);
                        return;
                    }
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
        let idle_timeout = self.server.config.idle_timeout;
        let Some(conn) = self.conn(token) else {
            return;
        };
        if conn.counted {
            conn.counted = false;
            self.set_active(self.active - 1);
        }
        self.set_phase(token, ConnPhase::Idle);
        self.arm(token, DeadlineKind::Idle, idle_timeout);
    }

    /// Queues an error response and marks the connection REJECTING: no
    /// more reads, close once the response drains. `tenant` is the
    /// routed tenant when known (quota rejects) so the access-log line
    /// can carry it.
    fn reject_conn(&mut self, token: usize, reject: Reject, tenant: Option<u32>) {
        if self.conn(token).is_none() {
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
        if let Some(conn) = self.conn(token) {
            let len = bytes.as_ref().map_or(0, |b| b.len() as u64);
            if let Some(b) = bytes {
                conn.outbuf.extend_from_slice(&b);
            }
            conn.close_after_flush = true;
            conn.close_reason.get_or_insert(reason);
            conn.inbuf.clear();
            conn.log
                .push(PendingLog::loop_reject(reject.status, len, tenant));
        }
        self.set_phase(token, ConnPhase::Flush);
        self.disarm(token);
        self.update_read_interest(token);
    }

    // ---- completions -------------------------------------------------

    /// A worker finished a request: deliver the response, then resume
    /// the connection's pipeline.
    fn on_completion(&mut self, done: Done) {
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

    /// **The** way a finished response reaches a connection, whether a
    /// worker computed it or the loop thread just did: releases the
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
        let (status, close, len, compute_ns, lag_ns) = match done.payload {
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
                let lag_ns = finished.elapsed().as_nanos() as u64;
                (status, close, bytes.len() as u64, compute_ns, lag_ns)
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
                (status, close, len, started.elapsed().as_nanos() as u64, 0)
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
            enqueued: Instant::now(),
        });
        let closing = conn.close_after_flush;
        self.set_phase(token, ConnPhase::Flush);
        Some(closing)
    }

    /// Arms whatever deadline the connection's state calls for, if
    /// none is armed. PENDING and closing connections are bounded by
    /// their completion and the write path respectively; every other
    /// state must carry a read or idle deadline.
    fn ensure_deadline(&mut self, token: usize) {
        let Some(conn) = self.conn(token) else {
            return;
        };
        if conn.pending || conn.close_after_flush || conn.deadline.is_armed() {
            return;
        }
        self.restore_deadline(token);
    }

    // ---- write path --------------------------------------------------

    /// Writes out whatever the connection has queued, then lets the
    /// input buffer make progress (the next pipelined request, or idle).
    /// That progress can itself queue bytes — every inline answer does —
    /// so the two steps repeat until nothing is left unwritten: bytes
    /// appended to an output buffer always get a write attempt, and a
    /// stalled write always leaves write interest and a deadline behind.
    fn flush(&mut self, token: usize) {
        while self.flush_once(token) {
            self.process_inbuf(token);
            let more = self
                .conn(token)
                .is_some_and(|conn| conn.outpos < conn.outbuf.len());
            if !more {
                return;
            }
        }
    }

    /// One pass of [`Self::flush`]: writes until the output buffer is
    /// empty or the socket pushes back. Returns true when the connection
    /// is still open with nothing left to write.
    fn flush_once(&mut self, token: usize) -> bool {
        let write_timeout = self.server.config.write_timeout;
        let Some(conn) = self.conn(token) else {
            return false;
        };
        while conn.outpos < conn.outbuf.len() {
            match (&conn.stream).write(&conn.outbuf[conn.outpos..]) {
                Ok(0) => {
                    self.close_conn(token, CloseReason::IoError);
                    return false;
                }
                Ok(n) => conn.outpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // FLUSH stalled: wait for writability, bounded by
                    // the write-stall deadline.
                    let interest = Interest {
                        readable: conn.interest.readable,
                        writable: true,
                    };
                    let stalled = conn.deadline.kind() != Some(DeadlineKind::Write);
                    self.set_interest(token, interest);
                    if stalled {
                        self.arm(token, DeadlineKind::Write, write_timeout);
                    }
                    return false;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token, CloseReason::IoError);
                    return false;
                }
            }
        }
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
            return false;
        }
        if writable_armed {
            let interest = Interest {
                readable: self
                    .conn(token)
                    .map(|c| c.interest.readable)
                    .unwrap_or(false),
                writable: false,
            };
            self.set_interest(token, interest);
        }
        if write_deadline {
            // The stall resolved; restore the deadline the state wants.
            self.disarm(token);
            self.restore_deadline(token);
        }
        self.conn(token).is_some()
    }

    /// Recomputes the deadline for a connection's current state (used
    /// after a write stall resolves).
    fn restore_deadline(&mut self, token: usize) {
        let read_timeout = self.server.config.read_timeout;
        let Some(conn) = self.conn(token) else {
            return;
        };
        if conn.pending {
            return;
        }
        if conn.inbuf.is_empty() && conn.served > 0 {
            self.park_idle(token);
        } else {
            self.arm(token, DeadlineKind::Read, read_timeout);
        }
    }

    /// Read interest is wanted unless the connection is closing, saw
    /// EOF, or has hit the input-buffer cap (read-side backpressure).
    fn update_read_interest(&mut self, token: usize) {
        let cap = self.server.config.limits.input_buffer_cap();
        let Some(conn) = self.conn(token) else {
            return;
        };
        let want = !conn.close_after_flush && !conn.peer_eof && conn.inbuf.len() < cap;
        let interest = Interest {
            readable: want,
            writable: conn.interest.writable,
        };
        self.set_interest(token, interest);
    }

    // ---- shutdown ----------------------------------------------------

    /// Stop accepting and close every connection not owed a response;
    /// the rest drain through their normal state machine (cancelled
    /// query budgets make the computes finish fast).
    fn begin_drain(&mut self) {
        let _ = self.poller.deregister(self.server.listener.as_raw_fd());
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
            } else if let Some(conn) = self.conn(token) {
                // Anything mid-flush finishes its current write and
                // closes with it (a partial request buffered behind
                // the flush will never be parsed during drain).
                if !conn.close_after_flush && !conn.pending && conn.outpos < conn.outbuf.len() {
                    conn.close_after_flush = true;
                    conn.close_reason.get_or_insert(CloseReason::Drain);
                }
            }
        }
    }
}
