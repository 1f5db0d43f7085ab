//! Query budgets and cooperative cancellation.
//!
//! Twig-join workloads have super-linear blowup cases (the intermediate
//! path-solution product can dwarf the final result), so an interactive
//! engine cannot rely on every query finishing quickly. This crate
//! provides the *guard* threaded through the whole query path:
//!
//! * [`Budget`] — the per-request spec: an optional wall-clock deadline,
//!   optional node-visit / candidate-count quotas, and an optional
//!   external [`CancelToken`];
//! * [`QueryGuard`] — the shared runtime handle the pipeline charges
//!   work against. Once any limit trips, the guard stays tripped and
//!   every stage unwinds cooperatively, keeping whatever partial results
//!   it has already proven valid;
//! * [`Ticker`] — the amortized checkpoint used inside hot loops: a
//!   plain local counter that consults the guard only every
//!   `stride` steps, so an unbudgeted query pays one branch per step
//!   and zero atomics.
//!
//! The contract for partial results is *prefix consistency*: a stage
//! that observes a tripped guard may stop early, but everything it has
//! already emitted must be a true answer (never a half-verified
//! candidate). The engine surfaces the outcome as a
//! [`Completeness`] on the response — partial results are marked,
//! never silently truncated.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Why a query was cut short.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TruncationReason {
    /// The wall-clock deadline expired.
    DeadlineExceeded,
    /// The node-visit quota was exhausted.
    NodeQuotaExceeded,
    /// The candidate-count quota was exhausted.
    CandidateQuotaExceeded,
    /// The external [`CancelToken`] was cancelled.
    Cancelled,
}

impl TruncationReason {
    /// Stable snake-case name (used in stats and CLI output).
    pub fn name(&self) -> &'static str {
        match self {
            TruncationReason::DeadlineExceeded => "deadline_exceeded",
            TruncationReason::NodeQuotaExceeded => "node_quota_exceeded",
            TruncationReason::CandidateQuotaExceeded => "candidate_quota_exceeded",
            TruncationReason::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a response covers the full answer set or a valid prefix of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Completeness {
    /// Every answer was considered; the response is exact.
    Complete,
    /// The budget tripped: the response holds the best valid partial
    /// top-k found before the cutoff.
    Truncated {
        /// Which limit tripped first.
        reason: TruncationReason,
    },
}

impl Completeness {
    /// True when the response is exact.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }

    /// The truncation reason, if any.
    pub fn truncation_reason(&self) -> Option<TruncationReason> {
        match self {
            Completeness::Complete => None,
            Completeness::Truncated { reason } => Some(*reason),
        }
    }
}

/// A shareable cancellation flag: cloneable, settable from any thread.
///
/// Cancellation is cooperative — setting the token never interrupts a
/// worker mid-step; the next [`Ticker`] checkpoint observes it.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// The per-request budget spec. `Budget::default()` is unlimited.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Maximum wall-clock time from guard creation.
    pub deadline: Option<Duration>,
    /// Maximum index entries / tree nodes the join may visit.
    pub node_quota: Option<u64>,
    /// Maximum candidate matches the pipeline may materialize.
    pub candidate_quota: Option<u64>,
    /// External cancellation handle.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// The unlimited budget (same as `Budget::default()`).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Is every limit absent?
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.node_quota.is_none()
            && self.candidate_quota.is_none()
            && self.cancel.is_none()
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets a node-visit quota.
    pub fn with_node_quota(mut self, n: u64) -> Self {
        self.node_quota = Some(n);
        self
    }

    /// Sets a candidate-count quota.
    pub fn with_candidate_quota(mut self, n: u64) -> Self {
        self.candidate_quota = Some(n);
        self
    }

    /// Attaches an external cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Per-tenant guard policy for a multi-tenant server.
///
/// Two independent knobs live here:
///
/// * `max_inflight` — an admission quota: how many requests the tenant
///   may have in flight at once. The serving layer enforces it on the
///   event-loop thread (exactly, no races) and answers 429 beyond it.
/// * `default_*` budgets — per-request [`Budget`] fields applied when
///   the request itself did not set them. A request's own explicit
///   budget always wins; defaults only fill the gaps, so a tenant
///   configured with `default_deadline` still lets a caller ask for a
///   tighter (or looser) deadline per query.
///
/// `TenantLimits::default()` is fully unlimited and is what a
/// single-tenant server uses for its implicit `default` tenant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantLimits {
    /// Admission quota: maximum concurrently in-flight requests.
    pub max_inflight: Option<u32>,
    /// Deadline applied to requests that did not set one.
    pub default_deadline: Option<Duration>,
    /// Node-visit quota applied to requests that did not set one.
    pub default_node_quota: Option<u64>,
    /// Candidate quota applied to requests that did not set one.
    pub default_candidate_quota: Option<u64>,
}

impl TenantLimits {
    /// The unlimited policy (same as `TenantLimits::default()`).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Is every knob absent?
    pub fn is_unlimited(&self) -> bool {
        self.max_inflight.is_none()
            && self.default_deadline.is_none()
            && self.default_node_quota.is_none()
            && self.default_candidate_quota.is_none()
    }

    /// Fills the unset fields of `budget` from this tenant's defaults.
    /// Fields the request set explicitly are left untouched.
    pub fn apply_defaults(&self, mut budget: Budget) -> Budget {
        if budget.deadline.is_none() {
            budget.deadline = self.default_deadline;
        }
        if budget.node_quota.is_none() {
            budget.node_quota = self.default_node_quota;
        }
        if budget.candidate_quota.is_none() {
            budget.candidate_quota = self.default_candidate_quota;
        }
        budget
    }
}

/// Encoded `TruncationReason` for the tripped-state atomic: 0 = not
/// tripped, 1.. = reason discriminant + 1.
fn encode(reason: TruncationReason) -> u8 {
    match reason {
        TruncationReason::DeadlineExceeded => 1,
        TruncationReason::NodeQuotaExceeded => 2,
        TruncationReason::CandidateQuotaExceeded => 3,
        TruncationReason::Cancelled => 4,
    }
}

fn decode(code: u8) -> Option<TruncationReason> {
    match code {
        1 => Some(TruncationReason::DeadlineExceeded),
        2 => Some(TruncationReason::NodeQuotaExceeded),
        3 => Some(TruncationReason::CandidateQuotaExceeded),
        4 => Some(TruncationReason::Cancelled),
        _ => None,
    }
}

struct GuardInner {
    deadline: Option<Instant>,
    node_quota: Option<u64>,
    candidate_quota: Option<u64>,
    cancel: Option<CancelToken>,
    nodes_visited: AtomicU64,
    candidates_seen: AtomicU64,
    /// 0 = live; otherwise the encoded first trip reason (sticky).
    tripped: AtomicU8,
    /// The trace `QueryId` this guard belongs to (0 = untraced), so the
    /// first trip can be emitted as a structured trace event.
    trace_id: AtomicU64,
    active: bool,
}

/// The shared runtime handle the pipeline charges work against.
///
/// Cloning is an `Arc` clone — the engine creates one guard per request
/// and every stage (including parallel workers) shares it. The first
/// limit to trip wins and is sticky; later checks only observe it.
#[derive(Clone)]
pub struct QueryGuard {
    inner: Arc<GuardInner>,
}

impl std::fmt::Debug for QueryGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryGuard")
            .field("active", &self.inner.active)
            .field("tripped", &self.trip_reason())
            .field("nodes_visited", &self.nodes_visited())
            .field("candidates_seen", &self.candidates_seen())
            .finish()
    }
}

impl QueryGuard {
    /// Creates a guard for `budget`, starting the deadline clock now.
    ///
    /// A budget that is already exhausted at creation (zero deadline,
    /// zero quota, pre-cancelled token) trips immediately, so callers
    /// can bail out before doing any work.
    pub fn new(budget: &Budget) -> Self {
        if budget.is_unlimited() {
            return Self::unlimited();
        }
        let guard = QueryGuard {
            inner: Arc::new(GuardInner {
                deadline: budget.deadline.map(|d| Instant::now() + d),
                node_quota: budget.node_quota,
                candidate_quota: budget.candidate_quota,
                cancel: budget.cancel.clone(),
                nodes_visited: AtomicU64::new(0),
                candidates_seen: AtomicU64::new(0),
                tripped: AtomicU8::new(0),
                trace_id: AtomicU64::new(0),
                active: true,
            }),
        };
        // Zero-budget requests trip before any work runs.
        if budget.deadline == Some(Duration::ZERO) {
            guard.trip(TruncationReason::DeadlineExceeded);
        }
        if budget.node_quota == Some(0) {
            guard.trip(TruncationReason::NodeQuotaExceeded);
        }
        if budget.candidate_quota == Some(0) {
            guard.trip(TruncationReason::CandidateQuotaExceeded);
        }
        guard.check_cancelled();
        guard
    }

    /// The shared no-op guard for unbudgeted requests: inactive, never
    /// trips, and every charge short-circuits before touching atomics.
    pub fn unlimited() -> Self {
        static UNLIMITED: OnceLock<QueryGuard> = OnceLock::new();
        UNLIMITED
            .get_or_init(|| QueryGuard {
                inner: Arc::new(GuardInner {
                    deadline: None,
                    node_quota: None,
                    candidate_quota: None,
                    cancel: None,
                    nodes_visited: AtomicU64::new(0),
                    candidates_seen: AtomicU64::new(0),
                    tripped: AtomicU8::new(0),
                    trace_id: AtomicU64::new(0),
                    active: false,
                }),
            })
            .clone()
    }

    /// True when any limit is actually configured. Inactive guards let
    /// tickers skip all bookkeeping.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.active
    }

    /// Has any limit tripped?
    #[inline]
    pub fn is_tripped(&self) -> bool {
        self.inner.active && self.inner.tripped.load(Ordering::Relaxed) != 0
    }

    /// The first limit that tripped, if any.
    pub fn trip_reason(&self) -> Option<TruncationReason> {
        decode(self.inner.tripped.load(Ordering::Relaxed))
    }

    /// The outcome as a [`Completeness`].
    pub fn completeness(&self) -> Completeness {
        match self.trip_reason() {
            None => Completeness::Complete,
            Some(reason) => Completeness::Truncated { reason },
        }
    }

    /// Total node visits charged so far.
    pub fn nodes_visited(&self) -> u64 {
        self.inner.nodes_visited.load(Ordering::Relaxed)
    }

    /// Total candidates charged so far.
    pub fn candidates_seen(&self) -> u64 {
        self.inner.candidates_seen.load(Ordering::Relaxed)
    }

    /// How far past the deadline the query ran, if it had one.
    pub fn deadline_overshoot(&self) -> Option<Duration> {
        let deadline = self.inner.deadline?;
        Some(Instant::now().saturating_duration_since(deadline))
    }

    /// Tags this guard with the trace `QueryId` of the request it
    /// belongs to, so a budget trip shows up in the event trace
    /// attributed to the right query. No-op on the shared unlimited
    /// guard (it is process-global and never trips anyway).
    pub fn set_trace_id(&self, id: u64) {
        if self.inner.active {
            self.inner.trace_id.store(id, Ordering::Relaxed);
        }
    }

    fn trip(&self, reason: TruncationReason) {
        // First writer wins; later trips keep the original reason.
        let won = self
            .inner
            .tripped
            .compare_exchange(0, encode(reason), Ordering::Relaxed, Ordering::Relaxed)
            .is_ok();
        if won {
            // Only the first trip is an event; sticky re-observations
            // are not. `emit` is one relaxed load when tracing is off.
            lotusx_obs::emit(
                lotusx_obs::QueryId(self.inner.trace_id.load(Ordering::Relaxed)),
                lotusx_obs::EventKind::BudgetTrip {
                    reason: reason.name(),
                },
            );
        }
    }

    fn check_cancelled(&self) {
        if let Some(token) = &self.inner.cancel {
            if token.is_cancelled() {
                self.trip(TruncationReason::Cancelled);
            }
        }
    }

    /// Charges `n` node visits and re-checks every limit. Returns true
    /// when the query should stop. This is the "slow path" a [`Ticker`]
    /// calls once per stride; hot loops must not call it per step.
    pub fn charge_nodes(&self, n: u64) -> bool {
        if !self.inner.active {
            return false;
        }
        let total = self.inner.nodes_visited.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(quota) = self.inner.node_quota {
            if total > quota {
                self.trip(TruncationReason::NodeQuotaExceeded);
            }
        }
        self.check_time_and_cancel();
        self.is_tripped()
    }

    /// Charges `n` materialized candidates and re-checks every limit.
    /// Returns true when the query should stop.
    pub fn charge_candidates(&self, n: u64) -> bool {
        if !self.inner.active {
            return false;
        }
        let total = self.inner.candidates_seen.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(quota) = self.inner.candidate_quota {
            if total > quota {
                self.trip(TruncationReason::CandidateQuotaExceeded);
            }
        }
        self.check_time_and_cancel();
        self.is_tripped()
    }

    /// Re-checks the deadline and cancellation without charging work.
    /// Returns true when the query should stop.
    pub fn checkpoint(&self) -> bool {
        if !self.inner.active {
            return false;
        }
        self.check_time_and_cancel();
        self.is_tripped()
    }

    fn check_time_and_cancel(&self) {
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.trip(TruncationReason::DeadlineExceeded);
            }
        }
        self.check_cancelled();
    }

    /// A [`Ticker`] with the default stride, bound to this guard.
    pub fn ticker(&self) -> Ticker {
        Ticker::new(self.clone(), DEFAULT_STRIDE)
    }
}

/// Default checkpoint stride: consult the guard every this many steps.
/// Small enough that a 1 ms deadline overshoots by well under a
/// millisecond on realistic per-step costs, large enough that the
/// amortized cost (one local decrement per step) is noise.
pub const DEFAULT_STRIDE: u64 = 1024;

/// The amortized hot-loop checkpoint.
///
/// `tick(n)` charges `n` steps to a plain local counter and consults
/// the shared guard only when the counter crosses the stride — so the
/// hot loop pays one subtraction and one predictable branch per call.
/// For an inactive (unbudgeted) guard, `tick` is a single bool test.
///
/// Once the guard trips, `tick` keeps returning true without further
/// atomics — stages use that to unwind.
pub struct Ticker {
    guard: QueryGuard,
    stride: u64,
    pending: u64,
    pending_candidates: u64,
    tripped: bool,
}

impl Ticker {
    /// A ticker flushing to `guard` every `stride` steps. Strides are
    /// clamped to the quota when one is tighter, so a `budget nodes 10`
    /// request trips after ~10 steps, not after 1024.
    pub fn new(guard: QueryGuard, stride: u64) -> Self {
        let mut stride = stride.max(1);
        if let Some(q) = guard.inner.node_quota {
            stride = stride.min(q.max(1));
        }
        if let Some(q) = guard.inner.candidate_quota {
            stride = stride.min(q.max(1));
        }
        let tripped = guard.is_tripped();
        Ticker {
            guard,
            stride,
            pending: 0,
            pending_candidates: 0,
            tripped,
        }
    }

    /// Charges `n` node-visit steps; returns true when the stage should
    /// stop (budget tripped).
    #[inline]
    pub fn tick(&mut self, n: u64) -> bool {
        if !self.guard.is_active() {
            return false;
        }
        if self.tripped {
            return true;
        }
        self.pending += n;
        if self.pending >= self.stride {
            let pending = std::mem::take(&mut self.pending);
            self.tripped = self.guard.charge_nodes(pending);
        }
        self.tripped
    }

    /// Charges `n` candidates — match rows that came into existence —
    /// batched like node visits: the guard hears of them once per stride,
    /// so a quota trips within one stride of being crossed. Returns true
    /// when the stage should stop.
    #[inline]
    pub fn tick_candidates(&mut self, n: u64) -> bool {
        if !self.guard.is_active() {
            return false;
        }
        if self.tripped {
            return true;
        }
        self.pending_candidates += n;
        if self.pending_candidates >= self.stride {
            let pending = std::mem::take(&mut self.pending_candidates);
            self.tripped = self.guard.charge_candidates(pending);
        }
        self.tripped
    }

    /// Flushes any locally buffered steps and candidates to the guard and
    /// returns the stop decision. Call on loop exit so counts stay
    /// accurate.
    pub fn flush(&mut self) -> bool {
        if !self.guard.is_active() || self.tripped {
            return self.tripped;
        }
        // Charging nothing still re-checks the deadline and the token.
        self.guard.charge_nodes(std::mem::take(&mut self.pending));
        let candidates = std::mem::take(&mut self.pending_candidates);
        self.tripped = self.guard.charge_candidates(candidates);
        self.tripped
    }

    /// Has the underlying guard tripped (as of the last flush)?
    #[inline]
    pub fn stopped(&self) -> bool {
        self.tripped
    }

    /// The guard this ticker charges.
    pub fn guard(&self) -> &QueryGuard {
        &self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = QueryGuard::unlimited();
        assert!(!g.is_active());
        assert!(!g.charge_nodes(1_000_000));
        assert!(!g.charge_candidates(1_000_000));
        assert!(!g.checkpoint());
        assert_eq!(g.completeness(), Completeness::Complete);
        // The shared handle stays clean: charges short-circuit.
        assert_eq!(g.nodes_visited(), 0);
    }

    #[test]
    fn default_budget_is_unlimited() {
        assert!(Budget::default().is_unlimited());
        assert!(!QueryGuard::new(&Budget::default()).is_active());
    }

    #[test]
    fn node_quota_trips_and_is_sticky() {
        let g = QueryGuard::new(&Budget::unlimited().with_node_quota(10));
        assert!(!g.charge_nodes(5));
        assert!(!g.charge_nodes(5), "exactly at quota is still fine");
        assert!(g.charge_nodes(1), "crossing the quota trips");
        assert!(g.is_tripped());
        assert_eq!(g.trip_reason(), Some(TruncationReason::NodeQuotaExceeded));
        // A later deadline check cannot overwrite the first reason.
        assert!(g.charge_candidates(1));
        assert_eq!(
            g.completeness(),
            Completeness::Truncated {
                reason: TruncationReason::NodeQuotaExceeded
            }
        );
    }

    #[test]
    fn candidate_quota_trips() {
        let g = QueryGuard::new(&Budget::unlimited().with_candidate_quota(3));
        assert!(!g.charge_candidates(3));
        assert!(g.charge_candidates(1));
        assert_eq!(
            g.trip_reason(),
            Some(TruncationReason::CandidateQuotaExceeded)
        );
    }

    #[test]
    fn zero_budget_trips_at_creation() {
        for budget in [
            Budget::unlimited().with_deadline(Duration::ZERO),
            Budget::unlimited().with_node_quota(0),
            Budget::unlimited().with_candidate_quota(0),
        ] {
            let g = QueryGuard::new(&budget);
            assert!(g.is_tripped(), "{budget:?} must trip immediately");
        }
    }

    #[test]
    fn deadline_trips_on_checkpoint() {
        let g = QueryGuard::new(&Budget::unlimited().with_deadline(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(5));
        assert!(g.checkpoint());
        assert_eq!(g.trip_reason(), Some(TruncationReason::DeadlineExceeded));
        assert!(g.deadline_overshoot().unwrap() > Duration::ZERO);
    }

    #[test]
    fn cancel_token_trips_guard() {
        let token = CancelToken::new();
        let g = QueryGuard::new(&Budget::unlimited().with_cancel(token.clone()));
        assert!(!g.checkpoint());
        token.cancel();
        assert!(g.checkpoint());
        assert_eq!(g.trip_reason(), Some(TruncationReason::Cancelled));
    }

    #[test]
    fn precancelled_token_trips_at_creation() {
        let token = CancelToken::new();
        token.cancel();
        let g = QueryGuard::new(&Budget::unlimited().with_cancel(token));
        assert!(g.is_tripped());
    }

    #[test]
    fn ticker_amortizes_but_stays_accurate() {
        let g = QueryGuard::new(&Budget::unlimited().with_node_quota(10_000_000));
        let mut t = Ticker::new(g.clone(), 100);
        for _ in 0..250 {
            assert!(!t.tick(1));
        }
        // 200 of the 250 steps have been flushed (two full strides).
        assert_eq!(g.nodes_visited(), 200);
        assert!(!t.flush());
        assert_eq!(g.nodes_visited(), 250);
    }

    #[test]
    fn ticker_stride_clamps_to_small_quota() {
        let g = QueryGuard::new(&Budget::unlimited().with_node_quota(8));
        let mut t = Ticker::new(g.clone(), 1024);
        let mut steps = 0u64;
        while !t.tick(1) {
            steps += 1;
            assert!(steps < 100, "small quota must trip promptly");
        }
        assert!(steps <= 16, "stride clamped near the quota, got {steps}");
    }

    #[test]
    fn ticker_batches_candidates_within_a_quota_clamped_stride() {
        let g = QueryGuard::new(&Budget::unlimited().with_candidate_quota(5));
        let mut t = g.ticker();
        let mut rows = 0u64;
        while !t.tick_candidates(1) {
            rows += 1;
            assert!(rows < 100, "small quota must trip promptly");
        }
        assert!((5..10).contains(&rows), "within one stride of 5: {rows}");
        assert_eq!(
            g.trip_reason(),
            Some(TruncationReason::CandidateQuotaExceeded)
        );

        let g = QueryGuard::new(&Budget::unlimited().with_candidate_quota(1 << 40));
        let mut t = g.ticker();
        for _ in 0..1500 {
            assert!(!t.tick_candidates(1));
        }
        assert_eq!(g.candidates_seen(), 1024, "one full stride flushed");
        assert!(!t.flush());
        assert_eq!(g.candidates_seen(), 1500);
    }

    #[test]
    fn ticker_on_unlimited_guard_is_free() {
        let g = QueryGuard::unlimited();
        let mut t = g.ticker();
        for _ in 0..10_000 {
            assert!(!t.tick(1));
        }
        assert_eq!(g.nodes_visited(), 0, "inactive guard never charged");
    }

    #[test]
    fn ticker_sticks_after_trip() {
        let g = QueryGuard::new(&Budget::unlimited().with_node_quota(5));
        let mut t = Ticker::new(g, 1);
        let mut stopped = 0;
        for _ in 0..20 {
            if t.tick(1) {
                stopped += 1;
            }
        }
        assert!(stopped >= 14, "once tripped, every later tick stops");
        assert!(t.stopped());
    }

    #[test]
    fn trace_id_tags_active_guards_only() {
        let g = QueryGuard::new(&Budget::unlimited().with_node_quota(1));
        g.set_trace_id(42);
        assert!(g.charge_nodes(2), "tagged guard still trips normally");
        // The shared unlimited guard ignores tagging: it is process-wide
        // and must never carry one query's id into another's.
        let u = QueryGuard::unlimited();
        u.set_trace_id(7);
        assert_eq!(u.inner.trace_id.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn tenant_limits_fill_only_unset_budget_fields() {
        let limits = TenantLimits {
            max_inflight: Some(2),
            default_deadline: Some(Duration::from_millis(50)),
            default_node_quota: Some(1_000),
            default_candidate_quota: None,
        };
        assert!(!limits.is_unlimited());

        // An empty budget picks up every configured default.
        let filled = limits.apply_defaults(Budget::unlimited());
        assert_eq!(filled.deadline, Some(Duration::from_millis(50)));
        assert_eq!(filled.node_quota, Some(1_000));
        assert_eq!(filled.candidate_quota, None, "no default, stays unset");

        // Explicit request fields always win over tenant defaults.
        let explicit = Budget::unlimited()
            .with_deadline(Duration::from_secs(5))
            .with_node_quota(7);
        let kept = limits.apply_defaults(explicit);
        assert_eq!(kept.deadline, Some(Duration::from_secs(5)));
        assert_eq!(kept.node_quota, Some(7));

        // The unlimited policy is a no-op.
        let untouched = TenantLimits::unlimited().apply_defaults(Budget::unlimited());
        assert!(untouched.is_unlimited());
        assert!(TenantLimits::default().is_unlimited());
    }

    #[test]
    fn completeness_helpers() {
        assert!(Completeness::Complete.is_complete());
        let t = Completeness::Truncated {
            reason: TruncationReason::DeadlineExceeded,
        };
        assert!(!t.is_complete());
        assert_eq!(
            t.truncation_reason(),
            Some(TruncationReason::DeadlineExceeded)
        );
        assert_eq!(
            TruncationReason::DeadlineExceeded.to_string(),
            "deadline_exceeded"
        );
    }
}
