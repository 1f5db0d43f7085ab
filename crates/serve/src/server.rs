//! The event-driven HTTP server: a nonblocking accept/read/write loop
//! with per-connection state machines, backed by a fixed compute pool.
//!
//! Threading model: **one event-loop thread** (the caller of
//! [`Server::run`]) owns the listener and every connection. It accepts,
//! reads, parses incrementally, and writes — all nonblocking, driven by
//! an epoll/poll readiness [`Poller`] and a deadline
//! [`TimerWheel`](crate::timer::TimerWheel) — and it *answers* every
//! request whose work is bounded by the request and response size rather
//! than by the corpus: health checks, scrapes, completions within a
//! fixed node-visit budget, queries whose answer is cached. A keystroke
//! is thus served where it arrives, with no hand-off. What the loop
//! thread declines — cache misses, completions that trip the budget,
//! `/stats`, `/shutdown`, `/admin/routes` — goes, already
//! decoded, to a fixed pool of **worker threads** over a channel;
//! finished responses come back over a completion queue that wakes the
//! loop. Both threads run the one answer path (`Server::answer` →
//! `Server::encode_outcome`: routing, panic isolation, reject
//! accounting), and every response reaches its connection through one
//! function on the loop thread. A slow (or stalled, or hostile) client
//! therefore costs one connection slot and a few kilobytes of buffer —
//! never a query thread — and a cold join never delays a keystroke by
//! more than one inline budget.
//!
//! Admission is gated on the event-loop thread *before* a connection
//! enters service: when `max_inflight` connections are actively being
//! served, new ones are answered `429` and closed. Only the event-loop
//! thread admits, so the gate never over-admits. Idle keep-alive
//! connections release their admission slot between requests and
//! re-acquire it when the next request arrives (see `event_loop` for
//! the exact rules).
//!
//! Graceful shutdown ([`ServerHandle::shutdown`]) cancels the
//! server-wide [`CancelToken`] attached to every in-flight query's
//! budget (long-running queries truncate at their next cooperative
//! checkpoint and still produce a valid, marked response), stops
//! accepting, closes idle connections, and drains every connection that
//! is owed a response before [`Server::run`] returns. No in-flight
//! request is ever answered with a torn or missing response.

use crate::access_log::AccessLog;
use crate::event_loop::{self, Completions, Done, Job, Payload, Waker, INLINE_NODE_BUDGET};
use crate::http::{self, Limits, Reject, Request};
use crate::poller::{Backend, Poller};
use crate::tenants::{Tenancy, TenantSet, TenantSnapshot};
use crate::wire;
use lotusx::{Budget, CancelToken, EngineRegistry, QueryGuard, QueryRequest};
use lotusx_obs::{conn_lane, EventKind, PromWriter, QueryId, Stage};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Server configuration. The default binds an ephemeral loopback port
/// with one worker per available core.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (`:0` = ephemeral).
    pub addr: String,
    /// Worker threads serving requests (at least 1).
    pub threads: usize,
    /// Maximum connections actively being served before new ones are
    /// answered `429`. Idle keep-alive connections do not count.
    pub max_inflight: usize,
    /// How long an admitted connection may take to deliver one complete
    /// request; the deadline re-arms on every received byte, and firing
    /// answers `408`.
    pub read_timeout: Duration,
    /// How long a response write may sit blocked on a full socket
    /// before the connection is dropped (write-side backpressure cap).
    pub write_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Request parsing limits (body cap, header caps).
    pub limits: Limits,
    /// Readiness backend: `Auto` picks epoll on Linux, `poll` elsewhere.
    pub backend: Backend,
    /// Write a structured JSONL access log to this path (one line per
    /// response, with the parse/queue/compute/flush timing breakdown).
    /// The log is bounded and drop-counting: a slow disk never blocks
    /// the event loop (see `access_log_dropped` in [`ServerStats`]).
    pub access_log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            max_inflight: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            limits: Limits::default(),
            backend: Backend::Auto,
            access_log: None,
        }
    }
}

lotusx_obs::counters! {
    /// Lifetime request counters, kept per server instance: the `server`
    /// section of `/stats` and the `lotusx_server_*` families of
    /// `/metrics`, both rendered from this one declaration.
    pub struct ServerStats => StatsSnapshot {
        counter requests: "Requests that parsed and were routed, including ones then answered 4xx.",
        counter rejected: "Rejected work: parse failures, timeouts, 4xx statuses, bad bodies.",
        counter panics: "Handler panics isolated to their connection.",
        counter queries: "POST /query requests answered 200.",
        counter completions: "POST /complete requests answered 200.",
        counter stats_requests: "GET /stats requests answered 200.",
        counter metrics_requests: "GET /metrics scrapes answered 200 (on the loop thread).",
        counter health_checks: "GET /healthz requests answered 200.",
        counter truncated_responses: "Query responses that went out marked truncated.",
        counter connections_accepted: "Connections accepted, including ones answered 429.",
        gauge connections_open: "Connections currently open.",
        gauge connections_active: "Connections currently holding an admission slot.",
        counter keepalive_reuses: "Second and later requests served on one keep-alive connection.",
        counter idle_closes: "Keep-alive connections closed by the idle deadline.",
        counter read_timeouts: "Connections that failed to deliver a request in time (408).",
        counter write_stalls: "Connections dropped when a response write outlasted its timeout.",
        counter loop_wakeups: "Event-loop iterations that found at least one ready event.",
        counter ready_events: "Readiness events dispatched by the loop.",
        gauge max_ready_batch: "High-water mark of events returned by one poll wait.",
        gauge queue_depth: "Requests dispatched to the worker pool and not yet picked up.",
        gauge max_queue_depth: "High-water mark of queue_depth.",
        counter access_log_lines: "Access-log lines accepted by the bounded writer queue.",
        counter access_log_dropped: "Access-log lines dropped on a full writer queue.",
        counter unknown_tenant_rejects: "Requests routing answered 404 unknown_tenant.",
        counter tenant_quota_rejects: "Requests answered 429 by a per-tenant admission quota.",
        counter inline_answers: "Responses produced on the event-loop thread, no worker hand-off.",
        counter inline_fallbacks: "Requests the loop thread handed to the worker pool.",
        gauge timer_entries: "Deadline-wheel entries: at most one per open connection.",
    }
}

impl StatsSnapshot {
    /// The `server` section of the `/stats` response body.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        lotusx_obs::counter_members(&mut out, ServerStats::ROWS, &self.values());
        out.push('}');
        out
    }

    /// The `lotusx_server_*` section of the `GET /metrics` Prometheus
    /// text exposition.
    pub fn to_prometheus(&self) -> String {
        let (mut w, values) = (PromWriter::new(), self.values());
        w.counter_rows("lotusx_server_", ServerStats::ROWS, |w, family, i| {
            w.sample_u64(family, &[], values[i])
        });
        w.finish()
    }
}

/// A cloneable handle for stopping and inspecting a running server.
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    query_cancel: CancelToken,
    stats: Arc<ServerStats>,
    tenants: Arc<OnceLock<Arc<TenantSet>>>,
    addr: SocketAddr,
    waker: Waker,
}

impl ServerHandle {
    /// Begins graceful shutdown: cancels every in-flight query's budget
    /// token, stops accepting, and lets the loop drain every connection
    /// that is owed a response. Idempotent; returns immediately (join
    /// the thread running [`Server::run`] to wait for the drain).
    pub fn shutdown(&self) {
        self.query_cancel.cancel();
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// The server's lifetime request counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Per-tenant `(name, counters)` snapshots, in registry order. Empty
    /// until [`Server::run`] has started.
    pub fn tenant_stats(&self) -> Vec<(String, TenantSnapshot)> {
        self.tenants.get().map(|s| s.snapshot()).unwrap_or_default()
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// A bound (but not yet running) LotusX HTTP server.
pub struct Server {
    pub(crate) listener: TcpListener,
    pub(crate) config: ServeConfig,
    pub(crate) addr: SocketAddr,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) query_cancel: CancelToken,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) waker: Waker,
    /// The structured access log, when configured (opened at bind time
    /// so a bad path surfaces early).
    pub(crate) access: Option<AccessLog>,
    /// The per-tenant runtime table, installed when `run` starts so
    /// handles can read per-tenant counters.
    pub(crate) tenants: Arc<OnceLock<Arc<TenantSet>>>,
    /// The loop-side waker receiver and the readiness poller, built at
    /// bind time so configuration errors surface early; taken by the
    /// one permitted [`Server::run`] call.
    pub(crate) loop_parts: Mutex<Option<(Poller, std::os::unix::net::UnixStream)>>,
}

impl Server {
    /// Binds the configured address and opens the readiness poller. The
    /// registry is supplied at [`Server::run`] time so the server can
    /// borrow it (no `'static` requirement — run it under
    /// `std::thread::scope` if needed).
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        if config.threads == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "threads must be at least 1",
            ));
        }
        if config.max_inflight == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "max_inflight must be at least 1",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = Poller::new(config.backend)?;
        let (waker_tx, waker_rx) = std::os::unix::net::UnixStream::pair()?;
        waker_tx.set_nonblocking(true)?;
        waker_rx.set_nonblocking(true)?;
        let access = match &config.access_log {
            Some(path) => Some(AccessLog::open(path)?),
            None => None,
        };
        Ok(Server {
            listener,
            config,
            addr,
            stop: Arc::new(AtomicBool::new(false)),
            query_cancel: CancelToken::new(),
            stats: Arc::new(ServerStats::default()),
            waker: Waker::new(waker_tx),
            access,
            tenants: Arc::new(OnceLock::new()),
            loop_parts: Mutex::new(Some((poller, waker_rx))),
        })
    }

    /// The actually-bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for stopping/inspecting this server from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: Arc::clone(&self.stop),
            query_cancel: self.query_cancel.clone(),
            stats: Arc::clone(&self.stats),
            tenants: Arc::clone(&self.tenants),
            addr: self.addr,
            waker: self.waker.clone(),
        }
    }

    /// Serves `registry` until [`ServerHandle::shutdown`] is called,
    /// blocking the calling thread (it becomes the event loop): requests
    /// are routed to a hosted engine by the registry's rule table (`404
    /// unknown_tenant` on a miss), per-tenant admission quotas and
    /// default budgets apply, and `POST /admin/routes` hot-reloads the
    /// rule list. A single corpus is served as
    /// [`EngineRegistry::single_tenant`]. Worker threads are scoped to
    /// this call: when it returns, every connection owed a response has
    /// been answered and every thread joined. May be called at most once
    /// per server.
    pub fn run(&self, registry: &EngineRegistry) {
        let tenancy = Tenancy::new(registry);
        let (poller, waker_rx) = self
            .loop_parts
            .lock()
            .expect("loop parts mutex poisoned")
            .take()
            .expect("Server::run may only be called once");
        let _ = self.tenants.set(Arc::clone(&tenancy.set));
        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
        let jobs_rx = Mutex::new(jobs_rx);
        let completions = Completions::new(self.waker.clone());
        std::thread::scope(|scope| {
            for _ in 0..self.config.threads {
                scope.spawn(|| self.worker_loop(&tenancy, &jobs_rx, &completions));
            }
            event_loop::run(self, &tenancy, poller, waker_rx, &jobs_tx, &completions);
            // Dropping the sender lets idle workers observe the
            // disconnect once the queue is drained.
            drop(jobs_tx);
        });
        // Every connection has closed and logged; put its lines on disk.
        if let Some(access) = &self.access {
            access.shutdown();
        }
    }

    /// One compute worker: pulls requests the loop thread declined to
    /// answer itself, finishes them on the engine ([`Server::answer`] —
    /// the same path the loop thread tried), encodes the full response
    /// bytes, and pushes them back to the event loop.
    fn worker_loop(
        &self,
        tenancy: &Tenancy<'_>,
        rx: &Mutex<mpsc::Receiver<Job>>,
        done: &Completions,
    ) {
        loop {
            // Take the lock only long enough to pull one job.
            let received = {
                let guard = rx.lock().expect("receiver mutex poisoned");
                guard.recv_timeout(Duration::from_millis(50))
            };
            match received {
                Ok(job) => {
                    let picked_up = Instant::now();
                    let queue_ns = picked_up.duration_since(job.queued_at).as_nanos() as u64;
                    self.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    // Stage slices land on the owning connection's trace
                    // lane so they nest inside its PENDING phase slice.
                    let lane = conn_lane(job.conn_id as u32);
                    let outcome = self
                        .answer(tenancy, job.tenant, &job.request, job.work, lane, false)
                        .unwrap_or_else(|_| {
                            debug_assert!(false, "only the loop thread falls back");
                            Outcome::Panicked
                        });
                    let mut bytes = Vec::new();
                    let (status, close) = self.encode_outcome(
                        tenancy,
                        job.tenant,
                        outcome,
                        job.keep_alive,
                        &mut bytes,
                    );
                    let http::Request { method, path, .. } = job.request;
                    done.push(Done {
                        token: job.token,
                        epoch: job.epoch,
                        payload: Payload::Encoded {
                            bytes,
                            status,
                            close,
                            compute_ns: picked_up.elapsed().as_nanos() as u64,
                            finished: Instant::now(),
                        },
                        method,
                        path,
                        tenant: job.tenant,
                        parse_ns: job.parse_ns,
                        queue_ns,
                    });
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Keep draining until the event loop hangs up, even
                    // after a stop request: dispatched requests must be
                    // answered.
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    /// Runs one request to its [`Outcome`] on the calling thread —
    /// **the** answer path, shared by the event loop (`inline`) and the
    /// workers. Panics are isolated per request: they become
    /// [`Outcome::Panicked`] (a best-effort `500`) and the server keeps
    /// serving. `Err` hands the request back, with whatever was already
    /// decoded, for the worker pool to finish; it only happens when
    /// `inline` is set.
    pub(crate) fn answer(
        &self,
        tenancy: &Tenancy<'_>,
        tenant: Option<u32>,
        request: &Request,
        work: Work,
        lane: u32,
        inline: bool,
    ) -> Result<Outcome, Work> {
        let routed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.route(tenancy, tenant, request, work, lane, inline)
        }));
        match routed {
            Ok(Ok(Routed::Ready(content_type, body))) => Ok(Outcome::Ready(content_type, body)),
            Ok(Ok(Routed::Fallback(work))) => Err(work),
            Ok(Err(reject)) => Ok(Outcome::Rejected(reject)),
            Err(_) => Ok(Outcome::Panicked),
        }
    }

    /// Appends the wire bytes of `outcome` to `out` — a worker's fresh
    /// buffer or, on the loop thread, the connection's output buffer —
    /// and does the reject/panic accounting. Returns the status and
    /// whether the connection must close after the response.
    pub(crate) fn encode_outcome(
        &self,
        tenancy: &Tenancy<'_>,
        tenant: Option<u32>,
        outcome: Outcome,
        keep_alive: bool,
        out: &mut Vec<u8>,
    ) -> (u16, bool) {
        let count_tenant_reject = || {
            if let Some(idx) = tenant {
                let rt = tenancy.set.runtime(idx);
                rt.stats.rejected.fetch_add(1, Ordering::Relaxed);
            }
        };
        match outcome {
            Outcome::Ready(content_type, body) => {
                http::encode_response_into(out, 200, content_type, body.as_bytes(), keep_alive);
                (200, !keep_alive)
            }
            Outcome::Rejected(reject) => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                count_tenant_reject();
                if !reject.connection_dead() {
                    http::encode_error_into(out, reject.status, &reject.reason);
                }
                (reject.status, true)
            }
            Outcome::Panicked => {
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                count_tenant_reject();
                http::encode_error_into(out, 500, "internal error");
                (500, true)
            }
        }
    }

    /// Routes one parsed request. `Ready` carries the response content
    /// type and body (the status is always 200). `tenant` is the routed
    /// tenant index (`None` for server-scoped endpoints); `lane` is the
    /// owning connection's trace lane; `work` is what an earlier inline
    /// attempt already decoded.
    ///
    /// With `inline` set (the event-loop thread) only work bounded by
    /// the size of the request and of its response is done here:
    /// completions run under [`INLINE_NODE_BUDGET`], queries stop at the
    /// cache probe, and the endpoints that take locks or render the
    /// whole registry go to the workers untouched. Whatever that attempt
    /// decoded travels with the `Fallback`; partial results never do.
    fn route(
        &self,
        tenancy: &Tenancy<'_>,
        tenant: Option<u32>,
        request: &Request,
        work: Work,
        lane: u32,
        inline: bool,
    ) -> Result<Routed, Reject> {
        #[cfg(test)]
        test_hooks::maybe_panic();
        let ready =
            |content_type: &'static str, body: String| Ok(Routed::Ready(content_type, body));
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => {
                self.stats.health_checks.fetch_add(1, Ordering::Relaxed);
                ready("text/plain", "ok\n".to_string())
            }
            // Never falls back, so a wedged pool can't hide from the
            // scraper.
            ("GET", "/metrics") => self.timed(Stage::HttpMetrics, lane, || {
                // Counted *before* rendering so the scrape sees itself —
                // `/metrics` and `/stats` then reconcile exactly, with
                // no in-flight gap.
                self.stats.metrics_requests.fetch_add(1, Ordering::Relaxed);
                let body = format!(
                    "{}{}{}",
                    self.stats.snapshot().to_prometheus(),
                    tenancy.set.to_prometheus(),
                    lotusx_obs::metrics().snapshot().to_prometheus()
                );
                ready("text/plain; version=0.0.4", body)
            }),
            ("GET", "/stats") | ("POST", "/shutdown" | "/admin/routes") if inline => {
                Ok(Routed::Fallback(Work::Raw))
            }
            ("GET", "/stats") => self.timed(Stage::HttpStats, lane, || {
                self.stats.stats_requests.fetch_add(1, Ordering::Relaxed);
                let body = format!(
                    "{{\n\"server\": {},\n\"tenants\": {},\n\"metrics\": {}}}\n",
                    self.stats.snapshot().to_json(),
                    tenancy.set.to_json(),
                    lotusx_obs::metrics().snapshot().to_json()
                );
                ready("application/json", body)
            }),
            ("POST", "/query") => self.timed(Stage::HttpQuery, lane, || {
                let runtime = tenant.map(|idx| tenancy.set.runtime(idx));
                let engine = tenancy.engine(tenant);
                let (query, probe) = match work {
                    Work::Query(probed) => {
                        let (query, pending) = *probed;
                        (query, lotusx::QueryProbe::Miss(pending))
                    }
                    _ => {
                        let query = self.decode_body(&request.body, wire::decode_query)?;
                        let mut query = self.with_server_cancel(query);
                        if let Some(rt) = runtime {
                            // Tenant defaults fill only budget fields the
                            // request left unset — an explicit wire
                            // budget always wins.
                            query.budget = rt.limits().apply_defaults(query.budget);
                        }
                        let probe = engine.query_probe(&query).map_err(|e| match e {
                            e @ lotusx::LotusError::Query(_) => Reject::new(400, e.to_string()),
                            e => Reject::new(500, e.to_string()),
                        })?;
                        (query, probe)
                    }
                };
                let response = match probe {
                    lotusx::QueryProbe::Hit(response) => response,
                    lotusx::QueryProbe::Miss(pending) if inline => {
                        return Ok(Routed::Fallback(Work::Query(Box::new((query, pending)))));
                    }
                    lotusx::QueryProbe::Miss(pending) => engine.query_compute(&query, pending),
                };
                self.stats.queries.fetch_add(1, Ordering::Relaxed);
                let truncated = !response.completeness.is_complete();
                if truncated {
                    self.stats
                        .truncated_responses
                        .fetch_add(1, Ordering::Relaxed);
                }
                if let Some(rt) = runtime {
                    rt.record_query(truncated);
                }
                ready("application/json", wire::encode_response(&response))
            }),
            ("POST", "/complete") => self.timed(Stage::HttpComplete, lane, || {
                let complete = match work {
                    Work::Complete(complete) => complete,
                    _ => self.decode_body(&request.body, wire::decode_complete)?,
                };
                let completion = tenancy.engine(tenant).completion_engine();
                let guard = if inline {
                    QueryGuard::new(&Budget::unlimited().with_node_quota(INLINE_NODE_BUDGET))
                } else {
                    QueryGuard::unlimited()
                };
                let body = match &complete {
                    wire::CompleteRequest::Tag { context, prefix, k } => {
                        let found = completion.complete_tag_guarded(context, prefix, *k, &guard);
                        (!guard.is_tripped()).then(|| wire::encode_tag_candidates(&found))
                    }
                    wire::CompleteRequest::Value { tag, prefix, k } => {
                        let found = completion.complete_value_guarded(tag, prefix, *k, &guard);
                        (!guard.is_tripped()).then(|| wire::encode_value_candidates(&found))
                    }
                };
                // A tripped inline budget: the truncated candidate list is
                // dropped, never sent.
                let Some(body) = body else {
                    return Ok(Routed::Fallback(Work::Complete(complete)));
                };
                self.stats.completions.fetch_add(1, Ordering::Relaxed);
                if let Some(rt) = tenant.map(|idx| tenancy.set.runtime(idx)) {
                    rt.record_completion();
                }
                ready("application/json", body)
            }),
            ("POST", "/shutdown") => {
                // Graceful remote stop: the response goes out first, the
                // event loop notices the flag when the completion lands.
                self.query_cancel.cancel();
                self.stop.store(true, Ordering::SeqCst);
                ready("application/json", "{\"stopping\":true}\n".to_string())
            }
            ("POST", "/admin/routes") => {
                let text = std::str::from_utf8(&request.body)
                    .map_err(|_| Reject::new(400, "body is not valid UTF-8"))?;
                match tenancy.registry.reload_rules(text) {
                    Ok(count) => ready("application/json", format!("{{\"rules\":{count}}}\n")),
                    // The typed error carries kind + byte offset; the
                    // previous table stays installed.
                    Err(e) => Err(Reject::new(400, e.to_string())),
                }
            }
            (_, "/healthz" | "/stats" | "/metrics") => {
                Err(Reject::new(405, format!("{} requires GET", request.path)))
            }
            (_, "/query" | "/complete" | "/shutdown" | "/admin/routes") => {
                Err(Reject::new(405, format!("{} requires POST", request.path)))
            }
            (_, path) => Err(Reject::new(404, format!("unknown endpoint {path}"))),
        }
    }

    /// Parses a request body as JSON and decodes it; decode errors are
    /// 400s.
    fn decode_body<T>(
        &self,
        body: &[u8],
        decode: impl FnOnce(&lotusx_obs::JsonValue) -> Result<T, String>,
    ) -> Result<T, Reject> {
        let text =
            std::str::from_utf8(body).map_err(|_| Reject::new(400, "body is not valid UTF-8"))?;
        let value = lotusx_obs::parse_json(text)
            .map_err(|e| Reject::new(400, format!("body is not valid JSON: {e}")))?;
        decode(&value).map_err(|reason| Reject::new(400, reason))
    }

    /// Attaches the server-wide cancellation token to a request's budget
    /// (client budgets and the shutdown token compose: whichever trips
    /// first wins).
    fn with_server_cancel(&self, mut request: QueryRequest) -> QueryRequest {
        // The wire never carries a client token, so the slot is free.
        request.budget = request
            .budget
            .clone()
            .with_cancel(self.query_cancel.clone());
        request
    }

    /// Runs `f`, recording its wall time into `stage` and emitting stage
    /// begin/end trace events on the owning connection's lane when
    /// tracing is on. An inline attempt that falls back leaves no sample
    /// — the worker's run of the same request records the one that
    /// counts.
    fn timed(
        &self,
        stage: Stage,
        lane: u32,
        f: impl FnOnce() -> Result<Routed, Reject>,
    ) -> Result<Routed, Reject> {
        lotusx_obs::emit_on_lane(
            lane,
            QueryId::NONE,
            EventKind::StageBegin {
                stage: stage.name(),
            },
        );
        let recording = lotusx_obs::enabled();
        let started = recording.then(Instant::now);
        let out = f();
        if let Some(t0) = started {
            if !matches!(out, Ok(Routed::Fallback(_))) {
                lotusx_obs::metrics().record_stage(stage, t0.elapsed().as_nanos() as u64);
            }
        }
        lotusx_obs::emit_on_lane(
            lane,
            QueryId::NONE,
            EventKind::StageEnd {
                stage: stage.name(),
            },
        );
        out
    }
}

/// What an earlier attempt at a request already decoded, so a fallback
/// to the worker pool repeats none of it.
pub(crate) enum Work {
    /// Nothing yet: decode from the request body.
    Raw,
    /// A `/query` whose cache probe missed: the decoded request and
    /// what the probe worked out (boxed — misses are the rare, expensive
    /// case, and this keeps the hand-off small for everyone else).
    Query(Box<(QueryRequest, lotusx::PendingQuery)>),
    /// A `/complete` that tripped the inline budget.
    Complete(wire::CompleteRequest),
}

/// What routing one request produced.
enum Routed {
    /// A 200: content type and body.
    Ready(&'static str, String),
    /// Inline attempts only: the request needs the worker pool.
    Fallback(Work),
}

/// How a request ended, before encoding ([`Server::encode_outcome`]).
pub(crate) enum Outcome {
    /// A 200: content type and body.
    Ready(&'static str, String),
    /// A 4xx/5xx; the connection closes after it.
    Rejected(Reject),
    /// The handler panicked: a best-effort 500.
    Panicked,
}

/// Test-only fault injection for the shared answer path.
#[cfg(test)]
pub(crate) mod test_hooks {
    use std::cell::Cell;

    thread_local! {
        /// Set on the thread that should panic inside its next
        /// [`super::Server::route`] call (one shot).
        pub(crate) static PANIC_NEXT_ROUTE: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn maybe_panic() {
        if PANIC_NEXT_ROUTE.with(|flag| flag.replace(false)) {
            panic!("injected route panic");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    /// The shared answer path isolates panics on whichever thread runs
    /// it: one injected into the loop thread's inline attempt costs that
    /// request a `500` and that connection, nothing else.
    #[test]
    fn a_panic_on_the_loop_thread_is_one_500_and_the_server_lives() {
        let engine = lotusx::LotusX::load_str("<bib><book><title>t</title></book></bib>").unwrap();
        let registry = EngineRegistry::single_tenant(engine);
        let server = Server::bind(ServeConfig::default()).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let keystroke = b"{\"prefix\":\"t\"}";
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // This thread becomes the event loop; the workers it
                // spawns never see the flag.
                test_hooks::PANIC_NEXT_ROUTE.with(|flag| flag.set(true));
                server.run(&registry)
            });
            let mut conn = client::Conn::connect(addr).expect("connect");
            conn.send("POST", "/complete", Some(keystroke))
                .expect("send");
            let r = conn.read_one().expect("a response, not a dead socket");
            assert_eq!(r.status, 500);
            assert_eq!(r.body_text(), "{\"error\":\"internal error\"}\n");
            assert!(conn.at_eof().expect("the connection closes"));
            let stats = handle.stats();
            assert_eq!(stats.panics, 1);
            assert_eq!(stats.inline_answers, 1, "the 500 came from the loop thread");
            assert_eq!(stats.completions, 0);

            // The loop thread survived: the next connection is served.
            let mut conn = client::Conn::connect(addr).expect("connect");
            for _ in 0..3 {
                conn.send("POST", "/complete", Some(keystroke))
                    .expect("send");
                assert_eq!(conn.read_one().expect("response").status, 200);
            }
            let stats = handle.stats();
            assert_eq!((stats.panics, stats.completions), (1, 3));
            assert_eq!(
                stats.requests,
                stats.inline_answers + stats.inline_fallbacks
            );
            handle.shutdown();
        });
    }
}
