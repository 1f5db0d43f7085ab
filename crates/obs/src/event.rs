//! Typed trace events and the process-wide tracer.
//!
//! When tracing is on ([`set_tracing`]), the engine emits one
//! [`TraceEvent`] per interesting moment of a query's life — query
//! begin/end, stage enter/exit, cache hits, budget trips, rewrite
//! decisions — into a lock-free bounded [`EventRing`]. Nothing on the
//! hot path ever blocks: a full ring drops the event and counts it. The
//! CLI (or any embedder) drains the ring into a Chrome trace-event JSON
//! (see [`crate::export`]).
//!
//! When tracing is off the entire cost is one relaxed atomic load per
//! potential emission site.

use crate::ring::{EventRing, RingCounters};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A monotonic per-process query identifier (0 = no traced query).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl QueryId {
    /// The null id used for work not attached to a traced query.
    pub const NONE: QueryId = QueryId(0);
}

/// A served connection's state-machine phase (the serving layer's
/// READING→PENDING→FLUSH→IDLE cycle; see `lotusx-serve`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnPhase {
    /// Accumulating bytes until a request frames.
    Reading,
    /// Exactly one request is on the worker pool.
    Pending,
    /// Response bytes draining to the socket.
    Flush,
    /// Parked keep-alive connection between requests.
    Idle,
}

impl ConnPhase {
    /// Stable snake-case name (trace slice / JSONL field value).
    pub fn name(&self) -> &'static str {
        match self {
            ConnPhase::Reading => "reading",
            ConnPhase::Pending => "pending",
            ConnPhase::Flush => "flush",
            ConnPhase::Idle => "idle",
        }
    }
}

/// Why a connection was closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
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
    /// Stable snake-case name (trace args / access-log `close` field).
    pub fn name(&self) -> &'static str {
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

/// Which per-connection deadline fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlineKind {
    /// Deliver a complete request or be answered 408.
    Read,
    /// Keep-alive gap cap.
    Idle,
    /// Accept response bytes or be dropped.
    Write,
}

impl DeadlineKind {
    /// Stable snake-case name.
    pub fn name(&self) -> &'static str {
        match self {
            DeadlineKind::Read => "read",
            DeadlineKind::Idle => "idle",
            DeadlineKind::Write => "write",
        }
    }
}

/// What happened (the payload half of a [`TraceEvent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A query started executing.
    QueryBegin,
    /// A query finished.
    QueryEnd {
        /// Whether the outcome came from the query-result cache.
        cache_hit: bool,
        /// Whether the budget cut the query short.
        truncated: bool,
        /// Results returned.
        results: u32,
    },
    /// A pipeline stage started.
    StageBegin {
        /// The stage's stable name (e.g. `match`).
        stage: &'static str,
    },
    /// A pipeline stage finished.
    StageEnd {
        /// The stage's stable name.
        stage: &'static str,
    },
    /// The query-result cache was consulted.
    CacheAccess {
        /// Hit or miss.
        hit: bool,
    },
    /// A budget limit tripped (first trip only; sticky afterwards).
    BudgetTrip {
        /// The stable truncation-reason name.
        reason: &'static str,
    },
    /// The empty-result rewriter ran.
    Rewrite {
        /// Whether a rewrite was applied (false = no candidate survived).
        accepted: bool,
    },
    /// The serving layer accepted a connection.
    ConnAccept {
        /// Per-server connection id (wrapping; lanes reuse after 2^20).
        conn: u32,
        /// Whether the admission gate let it into service (false = the
        /// connection only exists to carry a 429).
        admitted: bool,
    },
    /// A connection was closed.
    ConnClose {
        /// Per-server connection id.
        conn: u32,
        /// Why it closed.
        reason: CloseReason,
    },
    /// A connection moved to a new serving phase
    /// (READING→PENDING→FLUSH→IDLE).
    ConnPhase {
        /// Per-server connection id.
        conn: u32,
        /// The phase entered.
        phase: ConnPhase,
    },
    /// A per-connection deadline fired.
    ConnDeadline {
        /// Per-server connection id.
        conn: u32,
        /// Which deadline.
        kind: DeadlineKind,
    },
    /// A parked keep-alive connection began another request.
    ConnReuse {
        /// Per-server connection id.
        conn: u32,
    },
    /// The admission gate turned a new connection away (429).
    AdmissionReject {
        /// Per-server connection id.
        conn: u32,
    },
}

impl EventKind {
    /// Stable snake-case name of the event kind (JSONL `kind` field).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::QueryBegin => "query_begin",
            EventKind::QueryEnd { .. } => "query_end",
            EventKind::StageBegin { .. } => "stage_begin",
            EventKind::StageEnd { .. } => "stage_end",
            EventKind::CacheAccess { .. } => "cache_access",
            EventKind::BudgetTrip { .. } => "budget_trip",
            EventKind::Rewrite { .. } => "rewrite",
            EventKind::ConnAccept { .. } => "conn_accept",
            EventKind::ConnClose { .. } => "conn_close",
            EventKind::ConnPhase { .. } => "conn_phase",
            EventKind::ConnDeadline { .. } => "conn_deadline",
            EventKind::ConnReuse { .. } => "conn_reuse",
            EventKind::AdmissionReject { .. } => "admission_reject",
        }
    }
}

/// One timestamped, lane-attributed event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Trace lane: 0 for engine events, [`conn_lane`] for events the
    /// serving layer attributes to a connection.
    pub lane: u32,
    /// The query this event belongs to (`QueryId::NONE` when unknown).
    pub query: QueryId,
    /// What happened.
    pub kind: EventKind,
}

/// Default trace-ring capacity in events (~1 MiB of 32-byte events).
pub const DEFAULT_RING_CAPACITY: usize = 32_768;

/// First lane id of the per-connection lane namespace: engine events
/// sit on lane 0, connection-attributed events on `CONN_LANE_BASE + conn`,
/// which the exporter labels `conn-N`.
pub const CONN_LANE_BASE: u32 = 1 << 20;

/// The trace lane of connection `conn` (wraps inside the connection
/// namespace after 2^20 connections — fine for any one trace).
pub fn conn_lane(conn: u32) -> u32 {
    CONN_LANE_BASE | (conn & (CONN_LANE_BASE - 1))
}

static TRACING: AtomicBool = AtomicBool::new(false);
static QUERY_SEQ: AtomicU64 = AtomicU64::new(1);
static RING: OnceLock<EventRing<TraceEvent>> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Is structured event tracing on? One relaxed load — the whole cost of
/// the tracer at a disabled emission site.
#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turns event tracing on or off.
pub fn set_tracing(on: bool) {
    if on {
        // Pin the epoch so the first events don't all start at ts 0.
        let _ = trace_epoch();
    }
    TRACING.store(on, Ordering::Relaxed);
}

/// Allocates the next monotonic [`QueryId`].
pub fn next_query_id() -> QueryId {
    QueryId(QUERY_SEQ.fetch_add(1, Ordering::Relaxed))
}

/// The process-wide trace ring.
pub fn trace_ring() -> &'static EventRing<TraceEvent> {
    RING.get_or_init(|| EventRing::new(DEFAULT_RING_CAPACITY))
}

/// The process trace epoch (set on first use; all `ts_ns` are relative
/// to it).
pub fn trace_epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn trace_now_ns() -> u64 {
    trace_epoch().elapsed().as_nanos() as u64
}

/// Emits one event for `query` on lane 0 if tracing is on: stamps the
/// current time and pushes into the ring (dropping, never blocking, when
/// full).
#[inline]
pub fn emit(query: QueryId, kind: EventKind) {
    emit_on_lane(0, query, kind);
}

/// Like [`emit`], but placing the event on an explicit lane. The
/// serving layer uses this to put
/// connection-lifecycle events — and the HTTP stage slices computed on
/// its worker threads — on the owning connection's lane
/// ([`conn_lane`]), so Perfetto renders one lane per connection.
#[inline]
pub fn emit_on_lane(lane: u32, query: QueryId, kind: EventKind) {
    if !tracing() {
        return;
    }
    trace_ring().push(TraceEvent {
        ts_ns: trace_now_ns(),
        lane,
        query,
        kind,
    });
}

/// Drains every event currently buffered, in queue order.
pub fn drain_events() -> Vec<TraceEvent> {
    trace_ring().drain()
}

/// The ring's produced/dropped/exported counters.
pub fn trace_counters() -> RingCounters {
    trace_ring().counters()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_ids_are_monotonic_and_nonzero() {
        let a = next_query_id();
        let b = next_query_id();
        assert!(a.0 > 0);
        assert!(b > a);
        assert_eq!(QueryId::NONE.0, 0);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(EventKind::QueryBegin.name(), "query_begin");
        assert_eq!(EventKind::CacheAccess { hit: true }.name(), "cache_access");
        assert_eq!(
            EventKind::ConnClose {
                conn: 1,
                reason: CloseReason::IdleTimeout
            }
            .name(),
            "conn_close"
        );
        assert_eq!(
            EventKind::ConnPhase {
                conn: 1,
                phase: ConnPhase::Pending
            }
            .name(),
            "conn_phase"
        );
        assert_eq!(CloseReason::WriteStall.name(), "write_stall");
        assert_eq!(ConnPhase::Reading.name(), "reading");
        assert_eq!(DeadlineKind::Write.name(), "write");
    }

    #[test]
    fn conn_lanes_never_collide_with_worker_lanes() {
        assert_eq!(conn_lane(0), CONN_LANE_BASE);
        assert_eq!(conn_lane(7), CONN_LANE_BASE + 7);
        // Wraps inside the namespace rather than spilling out of it.
        assert_eq!(conn_lane(CONN_LANE_BASE + 3), CONN_LANE_BASE + 3);
        assert!(conn_lane(u32::MAX) >= CONN_LANE_BASE);
    }

    #[test]
    fn emit_is_gated_by_the_flag() {
        // Tracing starts off in this process; emission must not buffer.
        // (Tests that enable tracing live in integration tests, which
        // run in their own process — the flag is process-global.)
        let before = trace_counters().produced;
        emit(QueryId(42), EventKind::QueryBegin);
        assert_eq!(trace_counters().produced, before, "disabled: no event");
    }

    #[test]
    fn events_are_compact() {
        // The ring stores events by value; keep them cache-friendly.
        assert!(std::mem::size_of::<TraceEvent>() <= 48);
    }
}
