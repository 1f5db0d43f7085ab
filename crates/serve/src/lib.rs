//! # lotusx-serve
//!
//! The network serving layer for LotusX: a dependency-free,
//! event-driven HTTP/1.1 server (epoll on Linux, portable `poll(2)`
//! fallback — see [`poller`]) that exposes the engine's
//! [`QueryRequest`](lotusx::QueryRequest) /
//! [`QueryResponse`](lotusx::QueryResponse) API as JSON endpoints:
//!
//! | Endpoint          | Meaning                                        |
//! |-------------------|------------------------------------------------|
//! | `POST /query`     | Twig/keyword search (per-request `top_k`, `algorithm`, `deadline_ms`, `budget`) |
//! | `POST /complete`  | Position-aware tag/value auto-completion       |
//! | `GET /stats`      | Per-server counters, per-tenant counters + the full obs snapshot |
//! | `GET /metrics`    | Prometheus text exposition (v0.0.4), always served on the loop thread |
//! | `GET /healthz`    | Liveness probe (`ok`)                          |
//! | `POST /shutdown`  | Graceful remote stop                           |
//! | `POST /admin/routes` | Hot-swap the routing rules                  |
//!
//! A server hosts an [`EngineRegistry`](lotusx::EngineRegistry) of named
//! corpora ([`Server::run`]); a single corpus is the one-tenant registry
//! ([`EngineRegistry::single_tenant`](lotusx::EngineRegistry::single_tenant):
//! tenant `default`, one catch-all rule). Requests are routed by a
//! declarative rule table (`/t/<tenant>/…` prefixes, headers), with
//! per-tenant `max_inflight` quotas (`429 tenant at capacity`) and default
//! budgets, and per-tenant observability across `/stats`, `/metrics`
//! (`tenant` label) and the access log — see [`tenants`] and the
//! "Multi-tenant routing" section of DESIGN.md. The process endpoints
//! (`/healthz`, `/stats`, `/metrics`, `/shutdown`, `/admin/routes`) are
//! server-scoped: never charged to a tenant, even behind `/t/<tenant>`.
//!
//! The I/O layer is a single-threaded nonblocking event loop driving
//! per-connection state machines — incremental parsing, HTTP/1.1
//! keep-alive and pipelining, read/idle/write-stall deadlines on a
//! timer wheel. Requests whose work is bounded by their own size
//! (completions, query-cache hits, health checks, scrapes) are answered
//! on that thread, where they arrive; everything else computes on a
//! fixed worker pool, so a slow or hostile client costs a buffer, never
//! a query thread. Robustness is
//! first-class: per-connection read/write/idle deadlines, a
//! max-in-flight admission gate (`429`), a request-size cap (`413`),
//! malformed input answered with `400` (never a panic — worker panics
//! are isolated per connection and counted), and graceful shutdown that
//! drains in-flight queries via a [`CancelToken`](lotusx::CancelToken).
//! See [`server`] for the threading model, `event_loop` (crate
//! internal) for the state machines, and [`wire`] for the exact JSON
//! wire format.
//!
//! ```no_run
//! use lotusx::{EngineRegistry, LotusX};
//! use lotusx_serve::{Server, ServeConfig};
//!
//! let engine = LotusX::load_str("<bib><book><title>t</title></book></bib>").unwrap();
//! let registry = EngineRegistry::single_tenant(engine);
//! let server = Server::bind(ServeConfig::default()).unwrap();
//! let handle = server.handle();
//! std::thread::scope(|s| {
//!     s.spawn(|| server.run(&registry));
//!     // ... talk to server.local_addr() ...
//!     handle.shutdown();
//! });
//! ```

#![warn(missing_docs)]

mod access_log;
pub mod client;
mod event_loop;
pub mod http;
pub mod poller;
pub mod server;
pub mod tenants;
pub mod timer;
pub mod wire;

pub use client::{get, post, raw_request, request, Conn, Response};
pub use http::{Limits, Reject, Request};
pub use poller::Backend;
pub use server::{ServeConfig, Server, ServerHandle, ServerStats, StatsSnapshot};
pub use tenants::{TenantRuntime, TenantSet, TenantSnapshot, TenantStats};
