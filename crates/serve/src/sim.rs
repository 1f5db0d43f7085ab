//! The scripted driver: the connection core (`conn.rs`) run over
//! in-memory peers, a clock the script moves and a worker pool the
//! script empties by hand. A script states one interleaving — bytes
//! split anywhere, a deadline before or after a worker's answer, a
//! hangup while a request computes, a drain mid-pipeline, a route swap
//! in flight — and it happens exactly so, on one thread, with no socket
//! and no sleep. Every script ends in [`Sim::finish`], which drains the
//! server and checks what every run must keep:
//!
//! * each connection closed exactly once, and none left open;
//! * the global and per-tenant inflight gauges back at 0;
//! * `requests == inline_answers + inline_fallbacks`;
//! * one access-log line per response a peer received, plus the ones
//!   the script says died with their connection;
//! * at most one deadline-wheel entry per open connection — checked
//!   after every input, not just at the end.
//!
//! Each script checks response order against what it sent.

use crate::client::{parse_response, Response};
use crate::conn::{Action, Clock, CloseReason, Core, Job, ReadEnd, Wrote};
use crate::poller::Interest;
use crate::server::{ServeConfig, Server};
use crate::tenants::Tenancy;
use lotusx::{parse_rules, EngineRegistry, LotusX, TenantLimits};
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A clock that moves only when the script advances it.
#[derive(Clone)]
struct SimClock {
    start: Instant,
    elapsed: Rc<Cell<Duration>>,
}

impl Clock for SimClock {
    fn now(&self) -> Instant {
        self.start + self.elapsed.get()
    }

    fn unix_ms(&self) -> u64 {
        self.elapsed.get().as_millis() as u64
    }
}

/// One scripted client socket.
struct Peer {
    /// The connection's token while it is open.
    token: Option<usize>,
    /// Every byte the server wrote to it.
    received: Vec<u8>,
    /// How many more bytes its receive window takes; `None`: any number.
    window: Option<usize>,
    /// What the core has the socket watched for.
    interest: Interest,
    /// Why the server closed it; a second entry would be a bug.
    closes: Vec<CloseReason>,
}

struct Sim<'a> {
    core: Core<'a, SimClock>,
    clock: SimClock,
    server: &'a Server,
    tenancy: &'a Tenancy<'a>,
    peers: Vec<Peer>,
    /// The peer on each open connection's token.
    by_token: Vec<Option<usize>>,
    /// Jobs the core submitted, oldest first.
    jobs: VecDeque<Job>,
    /// Responses the script expects to die with their connection.
    lost: u64,
}

/// A server configuration with an access log of its own, so the log's
/// accounting is checked too.
fn config() -> ServeConfig {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let name = format!(
        "lotusx-sim-{}-{}.jsonl",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    );
    ServeConfig {
        access_log: Some(std::env::temp_dir().join(name)),
        ..ServeConfig::default()
    }
}

/// Runs `body` against a fresh core over `registry`, then
/// [`Sim::finish`].
fn script(registry: &EngineRegistry, config: ServeConfig, body: impl FnOnce(&mut Sim<'_>)) {
    let log = config.access_log.clone();
    let server = Server::bind(config).expect("bind an ephemeral port");
    let tenancy = Tenancy::new(registry);
    let clock = SimClock {
        start: Instant::now(),
        elapsed: Rc::default(),
    };
    let mut sim = Sim {
        core: Core::new(&server, &tenancy, clock.clone()),
        clock,
        server: &server,
        tenancy: &tenancy,
        peers: Vec::new(),
        by_token: Vec::new(),
        jobs: VecDeque::new(),
        lost: 0,
    };
    body(&mut sim);
    sim.finish();
    if let Some(path) = log {
        let _ = std::fs::remove_file(path);
    }
}

impl Sim<'_> {
    /// A client connects; returns its peer number.
    fn connect(&mut self) -> usize {
        let token = self.core.accept().expect("not draining");
        let peer = self.peers.len();
        self.peers.push(Peer {
            token: Some(token),
            received: Vec::new(),
            window: None,
            interest: self.core.interest(token).expect("just accepted"),
            closes: Vec::new(),
        });
        if self.by_token.len() <= token {
            self.by_token.resize(token + 1, None);
        }
        self.by_token[token] = Some(peer);
        self.run();
        peer
    }

    fn token(&self, peer: usize) -> usize {
        self.peers[peer]
            .token
            .unwrap_or_else(|| panic!("peer {peer} is closed"))
    }

    /// The peer's bytes arrive, in one read. What lies past the core's
    /// read room stays unread, as it would in a socket.
    fn send(&mut self, peer: usize, bytes: &[u8]) {
        self.read(peer, bytes, ReadEnd::Open);
    }

    /// The peer half-closes its write side.
    fn eof(&mut self, peer: usize) {
        self.read(peer, &[], ReadEnd::Eof);
    }

    fn read(&mut self, peer: usize, bytes: &[u8], end: ReadEnd) {
        let token = self.token(peer);
        let room = self.core.read_room(token);
        self.core.read(token, &bytes[..bytes.len().min(room)], end);
        self.run();
    }

    /// The peer's socket reports ERR/HUP.
    fn hangup(&mut self, peer: usize) {
        let token = self.token(peer);
        self.core.hangup(token);
        self.run();
    }

    /// The clock moves on by `by`, and whatever fell due fires.
    fn advance(&mut self, by: Duration) {
        self.clock.elapsed.set(self.clock.elapsed.get() + by);
        self.core.tick();
        self.run();
    }

    /// Job `index` (0 is the oldest) runs to completion, the way a
    /// worker runs it, and its answer lands.
    fn complete(&mut self, index: usize) {
        let job = self.jobs.remove(index).expect("a submitted job");
        let done = self.server.work(self.tenancy, job, &self.clock);
        self.core.completed(done);
        self.run();
    }

    /// Every waiting job completes, oldest first.
    fn complete_all(&mut self) {
        while !self.jobs.is_empty() {
            self.complete(0);
        }
    }

    /// Sets the peer's receive window: `Some(n)` takes `n` more bytes,
    /// `None` any number. A window opening while the core waits for
    /// writability is a writable event.
    fn window(&mut self, peer: usize, window: Option<usize>) {
        self.peers[peer].window = window;
        if let Some(token) = self.peers[peer].token {
            if self.peers[peer].interest.writable {
                self.write(token);
                self.run();
            }
        }
    }

    /// Shutdown is asked for, as `POST /shutdown` or the handle asks.
    fn shutdown(&mut self) {
        self.server.handle().shutdown();
        self.run();
    }

    /// The complete responses the peer received, in order.
    fn responses(&self, peer: usize) -> Vec<Response> {
        complete_responses(&self.peers[peer].received)
    }

    fn statuses(&self, peer: usize) -> Vec<u16> {
        self.responses(peer).iter().map(|r| r.status).collect()
    }

    fn closed(&self, peer: usize) -> Option<CloseReason> {
        self.peers[peer].closes.first().copied()
    }

    /// Tenant `index`'s inflight gauge.
    fn inflight(&self, tenant: usize) -> u64 {
        self.tenancy.set.tenants()[tenant]
            .stats
            .inflight
            .load(Ordering::Relaxed)
    }

    /// Carries out the core's actions the way the real driver does, and
    /// starts the drain once a stop was asked for (the real driver looks
    /// at the top of every lap).
    fn run(&mut self) {
        loop {
            while let Some(action) = self.core.next_action() {
                match action {
                    Action::Write(token) => self.write(token),
                    Action::Watch(token, interest) => {
                        if self.core.interest(token) == Some(interest) {
                            let peer = self.by_token[token].expect("watching an open peer");
                            self.peers[peer].interest = interest;
                        }
                    }
                    Action::Submit(job) => self.jobs.push_back(*job),
                    Action::Close(token, reason) => {
                        let peer = self.by_token[token].take().expect("closing an open peer");
                        self.peers[peer].token = None;
                        self.peers[peer].closes.push(reason);
                    }
                }
            }
            if self.server.stop.load(Ordering::SeqCst) && !self.core.draining() {
                self.core.drain();
                continue;
            }
            break;
        }
        let open = self.peers.iter().filter(|p| p.token.is_some()).count();
        let entries = self.core.timer_entries();
        assert!(
            entries <= open,
            "{entries} wheel entries for {open} open connections"
        );
    }

    /// Writes as much of the connection's unwritten bytes as its peer's
    /// window takes.
    fn write(&mut self, token: usize) {
        while let Some(bytes) = self.core.unwritten(token) {
            let peer = &mut self.peers[self.by_token[token].expect("writing to an open peer")];
            let n = peer.window.map_or(bytes.len(), |w| w.min(bytes.len()));
            if n == 0 {
                self.core.wrote(token, Wrote::Blocked);
                return;
            }
            peer.received.extend_from_slice(&bytes[..n]);
            if let Some(window) = &mut peer.window {
                *window -= n;
            }
            self.core.wrote(token, Wrote::Bytes(n));
        }
    }

    /// Lets everything land, drains the server, and checks the
    /// invariants of the module docs.
    fn finish(mut self) {
        self.complete_all();
        self.shutdown();
        self.complete_all();
        for peer in 0..self.peers.len() {
            self.window(peer, None);
        }
        // A connection that never spoke is owed a first answer: the
        // drain keeps it until its read deadline.
        self.advance(self.server.config.read_timeout + Duration::from_secs(1));
        assert!(self.core.drained(), "the drain left connections open");
        let stats = self.server.stats.snapshot();
        assert_eq!(
            stats.requests,
            stats.inline_answers + stats.inline_fallbacks,
            "{stats:?}"
        );
        assert_eq!(stats.panics, 0);
        let gauges = (
            stats.connections_open,
            stats.connections_active,
            stats.queue_depth,
        );
        assert_eq!(gauges, (0, 0, 0), "{stats:?}");
        for (name, tenant) in self.tenancy.set.snapshot() {
            assert_eq!(tenant.inflight, 0, "tenant {name}");
        }
        let mut answered = self.lost;
        for (i, peer) in self.peers.iter().enumerate() {
            assert_eq!(peer.closes.len(), 1, "peer {i} closed {:?}", peer.closes);
            answered += complete_responses(&peer.received).len() as u64;
        }
        assert_eq!(
            stats.access_log_lines + stats.access_log_dropped,
            answered,
            "one access-log line per response"
        );
    }
}

/// The complete responses at the front of `bytes`.
fn complete_responses(mut bytes: &[u8]) -> Vec<Response> {
    let mut out = Vec::new();
    while let Some((response, used)) = parse_response(bytes).expect("well-formed responses") {
        out.push(response);
        bytes = &bytes[used..];
    }
    out
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: sim\r\n\r\n").into_bytes()
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: sim\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

const BIB: &str = "<bib><book><author>knuth</author><title>taocp</title></book>\
                   <book><author>lamport</author><title>latex</title></book></bib>";
const KEYSTROKE: &str =
    "{\"prefix\":\"t\",\"context\":{\"steps\":[{\"tag\":\"book\"}],\"axis\":\"child\"}}";
const FROM_PATH: &str = r#"[{"when": {"path_prefix": "/t/"}, "tenant": {"from_path": true}}]"#;

/// A twig query; the first of each `top_k` misses the query cache, so
/// the workers answer it.
fn query(top_k: u32) -> String {
    format!("{{\"text\":\"//book/title\",\"top_k\":{top_k}}}")
}

fn bib() -> EngineRegistry {
    EngineRegistry::single_tenant(LotusX::load_str(BIB).expect("corpus parses"))
}

/// Tenants `alpha` (with `alpha_quota`) and `beta` over the same corpus,
/// routed by `/t/<name>`.
fn two_tenants(alpha_quota: Option<u32>) -> EngineRegistry {
    let engine = || LotusX::load_str(BIB).expect("corpus parses");
    let alpha = TenantLimits {
        max_inflight: alpha_quota,
        ..TenantLimits::unlimited()
    };
    EngineRegistry::from_parts(
        vec![
            ("alpha".into(), engine(), alpha),
            ("beta".into(), engine(), TenantLimits::unlimited()),
        ],
        parse_rules(FROM_PATH, &["alpha", "beta"]).expect("rules parse"),
    )
    .expect("registry builds")
}

#[test]
fn every_split_of_a_pipeline_is_answered_alike() {
    let mut pipeline = get("/healthz");
    pipeline.extend(post("/complete", KEYSTROKE));
    pipeline.extend(post("/query", &query(3)));
    pipeline.extend(get("/healthz"));
    script(&bib(), config(), |sim| {
        let mut first: Option<Vec<u8>> = None;
        for at in 0..=pipeline.len() {
            let peer = sim.connect();
            sim.send(peer, &pipeline[..at]);
            sim.complete_all();
            sim.send(peer, &pipeline[at..]);
            sim.complete_all();
            sim.eof(peer);
            assert_eq!(
                sim.closed(peer),
                Some(CloseReason::ClientClose),
                "split at {at}"
            );
            let got = &sim.peers[peer].received;
            let want = first.get_or_insert_with(|| got.clone());
            assert_eq!(got, want, "split at {at}");
            // Frees the slot: the next connection reuses the token.
            sim.advance(Duration::ZERO);
        }
        let responses = sim.responses(0);
        assert_eq!(sim.statuses(0), [200; 4]);
        assert_eq!(responses[0].body_text(), "ok\n");
        assert!(responses[2].body_text().contains("\"total_matches\":"));
        assert_eq!(responses[3].body_text(), "ok\n");
    });
}

/// A request on the workers has no read deadline, so an answer landing
/// long after one would have fired is still delivered. Partial bytes
/// left behind it get the read deadline back and end in a `408`
/// (regression: they used to hold the connection, and its admission
/// slot, with no deadline at all).
#[test]
fn a_late_worker_answer_lands_and_a_partial_behind_it_times_out() {
    let config = config();
    let read_timeout = config.read_timeout;
    script(&bib(), config, |sim| {
        let peer = sim.connect();
        let mut bytes = post("/query", &query(1));
        bytes.extend_from_slice(b"GET /heal");
        sim.send(peer, &bytes);
        assert_eq!(sim.jobs.len(), 1);
        sim.advance(read_timeout * 3);
        assert_eq!(
            sim.closed(peer),
            None,
            "a computing request has no read deadline"
        );
        sim.complete(0);
        assert_eq!(sim.statuses(peer), [200]);
        sim.advance(read_timeout / 2);
        assert_eq!(sim.closed(peer), None);
        sim.advance(read_timeout);
        assert_eq!(sim.statuses(peer), [200, 408]);
        assert_eq!(sim.closed(peer), Some(CloseReason::ReadTimeout));
        let stats = sim.server.stats.snapshot();
        assert_eq!(
            (stats.read_timeouts, stats.rejected, stats.requests),
            (1, 1, 1)
        );
    });
}

#[test]
fn a_hangup_while_computing_releases_the_tenant_slot() {
    script(&two_tenants(Some(1)), config(), |sim| {
        let gone = sim.connect();
        sim.send(gone, &post("/t/alpha/query", &query(1)));
        assert_eq!(sim.inflight(0), 1);
        sim.hangup(gone);
        assert_eq!(sim.closed(gone), Some(CloseReason::Hangup));
        // Still computing, so alpha is still full.
        let refused = sim.connect();
        sim.send(refused, &post("/t/alpha/query", &query(2)));
        assert_eq!(sim.statuses(refused), [429]);
        // The answer has nowhere to go, but it gives the slot back.
        sim.complete(0);
        assert_eq!(sim.inflight(0), 0);
        let next = sim.connect();
        sim.send(next, &post("/t/alpha/query", &query(2)));
        sim.complete_all();
        assert_eq!(sim.statuses(next), [200]);
        let stats = sim.server.stats.snapshot();
        assert_eq!(
            (stats.rejected, stats.tenant_quota_rejects),
            (1, 1),
            "the hangup owed nothing"
        );
    });
}

/// Answers queued behind a stalled write go out when the peer reads
/// again, with no further byte from it (regression: inline answers
/// appended by the parse that follows a worker's answer used to wait
/// for the peer to speak).
#[test]
fn answers_behind_a_stalled_write_go_out_when_it_clears() {
    let config = config();
    let write_timeout = config.write_timeout;
    script(&bib(), config, |sim| {
        let peer = sim.connect();
        sim.window(peer, Some(10));
        let mut burst = post("/query", &query(1));
        for _ in 0..5 {
            burst.extend(post("/complete", KEYSTROKE));
        }
        burst.extend(get("/healthz"));
        sim.send(peer, &burst);
        sim.complete(0);
        assert_eq!(sim.peers[peer].received.len(), 10, "the write stalled");
        assert!(sim.peers[peer].interest.writable);
        sim.window(peer, None);
        assert_eq!(sim.statuses(peer), [200; 7]);
        assert!(!sim.peers[peer].interest.writable);
        // The stall is over: the idle deadline replaced the write one.
        sim.advance(write_timeout * 2);
        assert_eq!(sim.closed(peer), None);
        // A peer that never reads again is dropped by the write deadline.
        let stuck = sim.connect();
        sim.window(stuck, Some(0));
        sim.send(stuck, &get("/healthz"));
        sim.advance(write_timeout + Duration::from_millis(100));
        assert_eq!(sim.closed(stuck), Some(CloseReason::WriteStall));
        sim.lost += 1;
        assert_eq!(sim.server.stats.snapshot().write_stalls, 1);
    });
}

/// Ten tags `t0`..`t9` with 3000, 2900, … 2100 elements, each with its
/// own `v` term: the 600 best `v` terms of `t9` take more count entries
/// than the inline budget allows.
fn tags() -> EngineRegistry {
    let mut xml = String::from("<r>");
    for tag in 0..10 {
        for i in 0..(3000 - 100 * tag) {
            xml.push_str(&format!("<t{tag}>w{} v{i}</t{tag}>", i % 37));
        }
    }
    xml.push_str("</r>");
    EngineRegistry::single_tenant(LotusX::load_str(&xml).expect("corpus parses"))
}

#[test]
fn an_inline_budget_trip_falls_back_mid_pipeline_in_order() {
    let keystroke =
        "{\"prefix\":\"t\",\"context\":{\"steps\":[{\"tag\":\"r\"}],\"axis\":\"child\"}}";
    let cold = "{\"kind\":\"value\",\"tag\":\"t9\",\"prefix\":\"v\",\"k\":600}";
    script(&tags(), config(), |sim| {
        let peer = sim.connect();
        let mut pipeline = post("/complete", keystroke);
        pipeline.extend(post("/complete", cold));
        pipeline.extend(post("/complete", keystroke));
        pipeline.extend(get("/healthz"));
        sim.send(peer, &pipeline);
        assert_eq!(
            sim.statuses(peer),
            [200],
            "the answer ahead of the trip is out"
        );
        assert_eq!(sim.jobs.len(), 1, "the trip fell back to the workers");
        sim.complete(0);
        let responses = sim.responses(peer);
        assert_eq!(sim.statuses(peer), [200; 4]);
        assert_eq!(responses[0].body, responses[2].body);
        let value = responses[1].body_text();
        assert!(value.contains("\"count\""), "{value}");
        assert_eq!(responses[3].body_text(), "ok\n");
        let stats = sim.server.stats.snapshot();
        assert_eq!((stats.inline_answers, stats.inline_fallbacks), (3, 1));
    });
}

/// A drain answers the connections it owes and reaps the rest
/// (regression: it used to wait forever on a peer holding half a
/// request).
#[test]
fn a_drain_answers_what_it_owes_and_reaps_the_rest() {
    script(&bib(), config(), |sim| {
        let busy = sim.connect();
        let mut pipeline = post("/query", &query(1));
        pipeline.extend(get("/healthz"));
        sim.send(busy, &pipeline);
        let idle = sim.connect();
        sim.send(idle, &get("/healthz"));
        let partial = sim.connect();
        sim.send(partial, b"GET /heal");
        let fresh = sim.connect();
        sim.shutdown();
        assert_eq!(sim.closed(idle), Some(CloseReason::Drain));
        assert_eq!(sim.closed(partial), Some(CloseReason::Drain));
        assert_eq!(
            (sim.closed(busy), sim.closed(fresh)),
            (None, None),
            "both are owed"
        );
        sim.complete(0);
        assert_eq!(
            sim.statuses(busy),
            [200],
            "a draining server closes as it answers"
        );
        assert_eq!(sim.closed(busy), Some(CloseReason::Drain));
        sim.send(fresh, &get("/healthz"));
        let responses = sim.responses(fresh);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].header("connection"), Some("close"));
        assert_eq!(sim.closed(fresh), Some(CloseReason::Drain));
    });
}

#[test]
fn a_route_swap_leaves_requests_in_flight_with_their_tenant() {
    script(&two_tenants(None), config(), |sim| {
        let a = sim.connect();
        sim.send(a, &post("/t/alpha/query", &query(1)));
        let admin = sim.connect();
        let to_beta = r#"[{"when":{"always":true},"tenant":"beta"}]"#;
        sim.send(admin, &post("/admin/routes", to_beta));
        assert_eq!((sim.jobs.len(), sim.inflight(0)), (2, 1));
        // The swap lands first, then the query routed before it.
        sim.complete(1);
        assert_eq!(sim.responses(admin)[0].body_text(), "{\"rules\":1}\n");
        sim.complete(0);
        assert_eq!(sim.statuses(a), [200]);
        assert_eq!((sim.inflight(0), sim.inflight(1)), (0, 0));
        // The next request on the same connection follows the new rules.
        sim.send(a, &post("/query", &query(2)));
        sim.complete_all();
        assert_eq!(sim.statuses(a), [200, 200]);
        let tenants = sim.tenancy.set.snapshot();
        assert_eq!((tenants[0].1.requests, tenants[1].1.requests), (1, 1));
    });
}

/// A route reload pipelined ahead of a `Connection: close` request on
/// one connection: the request after the reload routes by the new rules,
/// both answers go out in the order asked, and only then does the
/// connection close.
#[test]
fn a_reload_pipelined_before_a_close_applies_and_both_answers_flush() {
    script(&two_tenants(None), config(), |sim| {
        let peer = sim.connect();
        let to_beta = r#"[{"when":{"always":true},"tenant":"beta"}]"#;
        let mut pipeline = post("/admin/routes", to_beta);
        let body = query(1);
        pipeline.extend(
            format!(
                "POST /query HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes(),
        );
        sim.send(peer, &pipeline);
        // The query waits behind the reload, unrouted.
        assert_eq!(sim.jobs.len(), 1);
        sim.complete(0);
        assert_eq!(sim.statuses(peer), [200]);
        assert_eq!((sim.jobs.len(), sim.inflight(1)), (1, 1), "routed to beta");
        assert_eq!(sim.closed(peer), None, "an answer is still owed");
        sim.complete(0);
        let responses = sim.responses(peer);
        assert_eq!(sim.statuses(peer), [200, 200]);
        assert_eq!(responses[0].body_text(), "{\"rules\":1}\n");
        assert!(responses[1].body_text().contains("\"total_matches\":"));
        assert_eq!(sim.closed(peer), Some(CloseReason::ClientClose));
        // Under the old rules `/query` matched no rule; it went to beta.
        let tenants = sim.tenancy.set.snapshot();
        assert_eq!((tenants[0].1.requests, tenants[1].1.requests), (0, 1));
        assert!(sim.jobs.is_empty());
    });
}

/// Regression: the process endpoints behind a tenant prefix were charged
/// to that tenant and refused at its quota.
#[test]
fn server_endpoints_behind_a_full_tenant_are_neither_charged_nor_refused() {
    script(&two_tenants(Some(1)), config(), |sim| {
        let busy = sim.connect();
        sim.send(busy, &post("/t/alpha/query", &query(1)));
        assert_eq!(sim.inflight(0), 1, "alpha's one slot is taken");
        let probe = sim.connect();
        let mut probes = get("/t/alpha/healthz");
        probes.extend(get("/t/alpha/stats"));
        sim.send(probe, &probes);
        sim.complete_all();
        assert_eq!(sim.statuses(probe), [200, 200]);
        assert_eq!(sim.statuses(busy), [200]);
        let alpha = sim.tenancy.set.snapshot()[0].1;
        assert_eq!((alpha.requests, alpha.quota_rejects), (1, 0));
        assert_eq!(sim.server.stats.snapshot().tenant_quota_rejects, 0);
    });
}

/// A peer that half-closes while its request computes is no longer
/// watched for reads (regression: level-triggered readiness on it spun
/// the loop until the answer landed), and still gets its answer.
#[test]
fn a_half_close_while_computing_stops_reads_and_still_answers() {
    script(&bib(), config(), |sim| {
        let peer = sim.connect();
        sim.send(peer, &post("/query", &query(1)));
        sim.eof(peer);
        assert!(!sim.peers[peer].interest.readable);
        sim.complete(0);
        assert_eq!(sim.statuses(peer), [200]);
        assert_eq!(sim.closed(peer), Some(CloseReason::ClientClose));
    });
}

#[test]
fn the_admission_gate_is_exact() {
    let config = ServeConfig {
        max_inflight: 1,
        ..config()
    };
    script(&bib(), config, |sim| {
        let first = sim.connect();
        sim.send(first, b"GET /heal");
        let second = sim.connect();
        assert_eq!(sim.statuses(second), [429]);
        assert_eq!(sim.closed(second), Some(CloseReason::Admission));
        sim.send(first, b"thz HTTP/1.1\r\n\r\n");
        assert_eq!(sim.statuses(first), [200]);
        // Parked idle, the first connection gave its slot back.
        let third = sim.connect();
        sim.send(third, &get("/healthz"));
        assert_eq!(sim.statuses(third), [200]);
    });
}

/// The clock is the script's, so every timing on an access-log line is
/// exact: the parse time is the gap the script left inside the request,
/// the queue wait the gap before the worker ran it, the flush time the
/// gap the peer's window stayed shut.
#[test]
fn access_log_timings_are_the_scripted_gaps() {
    let config = config();
    let path = config.access_log.clone().expect("the sim logs");
    script(&bib(), config, |sim| {
        let peer = sim.connect();
        sim.send(peer, b"GET /heal");
        sim.advance(Duration::from_millis(7));
        sim.send(peer, b"thz HTTP/1.1\r\n\r\n");
        sim.window(peer, Some(0));
        sim.send(peer, &post("/query", &query(1)));
        sim.advance(Duration::from_millis(3));
        sim.complete(0);
        sim.advance(Duration::from_millis(2));
        sim.window(peer, None);
        assert_eq!(sim.statuses(peer), [200, 200]);
        // Every line is queued; closing the log puts them on disk.
        sim.server.access.as_ref().expect("the sim logs").shutdown();
        let text = std::fs::read_to_string(&path).expect("the access log");
        let field = |line: &str, key: &str| {
            let value = lotusx_obs::parse_json(line).expect("a JSON line");
            value.get(key).and_then(|v| v.as_f64()).expect("a number") as u64
        };
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        let timings = |line| {
            ["ts_ms", "parse_ns", "queue_ns", "compute_ns", "flush_ns"].map(|k| field(line, k))
        };
        assert_eq!(timings(lines[0]), [7, 7_000_000, 0, 0, 0], "{}", lines[0]);
        assert_eq!(
            timings(lines[1]),
            [12, 0, 3_000_000, 0, 2_000_000],
            "{}",
            lines[1]
        );
    });
}

/// The access log carries the budget trip: the line of a `/query` answer
/// a budget cut short names the reason, a complete answer's line has no
/// such member. The starved query runs on the pool; the same query once
/// its key is cached is answered inline, complete under any budget.
#[test]
fn a_starved_query_logs_its_truncation_reason() {
    let starved = "{\"text\":\"//book/title\",\"top_k\":7,\"budget\":{\"nodes\":1}}";
    let config = config();
    let path = config.access_log.clone().expect("the sim logs");
    script(&bib(), config, |sim| {
        let peer = sim.connect();
        let mut pipeline = post("/query", starved);
        pipeline.extend(post("/query", &query(7)));
        pipeline.extend(post("/query", starved));
        sim.send(peer, &pipeline);
        sim.complete(0);
        sim.complete(0);
        let responses = sim.responses(peer);
        assert_eq!(sim.statuses(peer), [200; 3]);
        let starved_body = responses[0].body_text();
        assert!(
            starved_body.contains("\"completeness\":\"truncated\""),
            "{starved_body}"
        );
        assert_eq!(responses[1].body, responses[2].body, "the cached answer");
        let stats = sim.server.stats.snapshot();
        assert_eq!((stats.inline_answers, stats.inline_fallbacks), (1, 2));
        sim.server.access.as_ref().expect("the sim logs").shutdown();
        let text = std::fs::read_to_string(&path).expect("the access log");
        let truncated: Vec<Option<String>> = text
            .lines()
            .map(|line| {
                let value = lotusx_obs::parse_json(line).expect("a JSON line");
                value
                    .get("truncated")
                    .map(|v| v.as_str().expect("a reason").to_string())
            })
            .collect();
        assert_eq!(
            truncated,
            [Some("node_quota_exceeded".to_string()), None, None],
            "{text}"
        );
    });
}
