//! The `lotusx-soak` binary: a connection soak against the event-loop
//! server on loopback.
//!
//! ```text
//! lotusx-soak [--soak] [--conns N] [--backend auto|poll|epoll]
//! lotusx-soak --tenants     # two-tenant isolation chaos (tenant-soak CI stage)
//! ```
//!
//! Starts an in-process server on an ephemeral port and drives a mixed
//! fleet of client state machines from a single thread (reusing the
//! crate's own readiness poller, so the harness itself scales to the
//! connection counts it tests):
//!
//! * **keep-alive** clients: several requests on one socket, the last
//!   with `Connection: close`;
//! * **one-shot** clients: `Connection: close` requests with reconnect
//!   churn;
//! * **slow readers**: send a query, then leave the response unread for
//!   a while before draining it;
//! * **slow-loris** clients: a partial request head and then silence —
//!   each must be answered `408` exactly once.
//!
//! The default quick mode (the `soak-smoke` CI stage) holds 1000
//! concurrent connections; `--soak` is the longer local run. Exit code
//! 0 means every assertion held: zero panics, *exact* accept/request/
//! reject accounting against the server's counters, every response the
//! expected status, and bounded memory growth.
//!
//! `--tenants` (the `tenant-soak` CI stage) runs the mixed-tenant chaos
//! scenario instead: a registry hosting tenant `alpha` (admission quota
//! 2) and tenant `beta` (unlimited), with a client fleet saturating
//! alpha far past its quota while beta trickles sequential traffic.
//! Asserts tenant isolation under load: beta never sees a 429 or an
//! error and its p99 stays bounded, alpha's client-observed 429s equal
//! the server's `quota_rejects` counter *exactly*, alpha actually
//! tripped its quota, beta's counters equal beta's own traffic alone,
//! and nothing panicked.

use lotusx::{parse_rules, EngineRegistry, LotusX, TenantLimits};
use lotusx_serve::client::{self, parse_response, Response};
use lotusx_serve::poller::{Backend, Interest, PollEvent, Poller};
use lotusx_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const CORPUS: &str = "<bib><book><author>knuth</author><title>taocp</title></book>\
                      <book><author>lamport</author><title>latex</title></book></bib>";
const QUERY: &str = "{\"text\":\"knuth\",\"kind\":\"keyword\",\"top_k\":1}";
/// The tenant soak's one rule: `/t/<name>/…` names the tenant.
const FROM_PATH: &str = r#"[{"when": {"path_prefix": "/t/"}, "tenant": {"from_path": true}}]"#;

/// Soak dimensions; `quick()` is the CI stage, `full()` is `--soak`.
struct Profile {
    conns: usize,
    keepalive_rounds: u64,
    oneshot_reconnects: u64,
    traffic_deadline: Duration,
}

impl Profile {
    fn quick() -> Profile {
        Profile {
            conns: 1000,
            keepalive_rounds: 3,
            oneshot_reconnects: 2,
            traffic_deadline: Duration::from_secs(60),
        }
    }

    fn full() -> Profile {
        Profile {
            conns: 2000,
            keepalive_rounds: 25,
            oneshot_reconnects: 10,
            traffic_deadline: Duration::from_secs(300),
        }
    }
}

fn main() -> ExitCode {
    let mut profile = Profile::quick();
    let mut backend = Backend::Auto;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--soak" => profile = Profile::full(),
            "--tenants" => {
                return match tenant_soak() {
                    Ok(()) => {
                        println!("tenant soak ok");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("tenant soak FAILED: {e}");
                        ExitCode::FAILURE
                    }
                }
            }
            "--conns" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => profile.conns = n,
                _ => return usage("--conns requires a positive integer"),
            },
            "--backend" => match iter.next().map(|v| Backend::parse(v)) {
                Some(Ok(b)) => backend = b,
                _ => return usage("--backend requires auto|poll|epoll"),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    match soak(&profile, backend) {
        Ok(()) => {
            println!("soak ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("soak FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: lotusx-soak [--soak] [--conns N] [--backend auto|poll|epoll] | --tenants");
    ExitCode::FAILURE
}

/// What one simulated client is doing.
enum Kind {
    KeepAlive { rounds_left: u64 },
    OneShot { reconnects_left: u64 },
    SlowReader,
    SlowLoris,
}

/// One client state machine, driven by readiness events.
struct Client {
    stream: TcpStream,
    kind: Kind,
    out: Vec<u8>,
    outpos: usize,
    inbuf: Vec<u8>,
    /// Keep the response unread until this instant (slow readers).
    resume_at: Option<Instant>,
    /// The response was read; now expect a server-side close.
    await_eof: bool,
    done: bool,
    /// Interest currently registered (skip no-op `modify` syscalls).
    interest: Interest,
}

/// Client-side ground truth, compared exactly against the server's own
/// counters at the end.
#[derive(Default)]
struct Ledger {
    connects: u64,
    requests_sent: u64,
    ok_responses: u64,
    loris_408s: u64,
    errors: u64,
}

fn soak(profile: &Profile, backend: Backend) -> Result<(), String> {
    let engine = LotusX::load_str(CORPUS).map_err(|e| format!("corpus: {e}"))?;
    let registry = EngineRegistry::single_tenant(engine);
    // Route the soak through the structured access log so the run also
    // proves the log's exactly-once accounting under real churn.
    let access_path =
        std::env::temp_dir().join(format!("lotusx-soak-access-{}.jsonl", std::process::id()));
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        max_inflight: profile.conns * 2,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        idle_timeout: Duration::from_secs(120),
        backend,
        access_log: Some(access_path.clone()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let handle = server.handle();
    let addr = server.local_addr();
    let rss_before = vm_rss_kb();

    let result = std::thread::scope(|scope| {
        scope.spawn(|| server.run(&registry));
        let out = drive(profile, addr, &handle);
        handle.shutdown();
        out
    });
    let ledger = result?;

    // --- exact accounting against the server's own counters ---
    let stats = handle.stats();
    // One loris per block of ten clients (i % 10 == 9 in the mix).
    let loris = (profile.conns / 10) as u64;
    let mut failures = Vec::new();
    let mut check = |name: &str, got: u64, want: u64| {
        if got != want {
            failures.push(format!("{name}: got {got}, want {want}"));
        }
    };
    check("panics", stats.panics, 0);
    check("client-side errors", ledger.errors, 0);
    check(
        "connections_accepted",
        stats.connections_accepted,
        ledger.connects,
    );
    check("requests", stats.requests, ledger.requests_sent);
    check("rejected (loris 408s)", stats.rejected, loris);
    check("client 408s", ledger.loris_408s, loris);
    check(
        "200 responses",
        ledger.ok_responses,
        ledger.requests_sent - 1, // the /stats probe checks its own body
    );
    check("read_timeouts", stats.read_timeouts, loris);
    check("open connections after drain", stats.connections_open, 0);
    // Access-log accounting: every answered request — including the
    // loris 408s, which never parse into requests — lands exactly one
    // JSONL line, and the bounded queue never dropped.
    let want_lines = ledger.requests_sent + ledger.loris_408s;
    check(
        "access_log_lines counter",
        stats.access_log_lines,
        want_lines,
    );
    check("access_log_dropped", stats.access_log_dropped, 0);
    match std::fs::read_to_string(&access_path) {
        Ok(body) => {
            let on_disk = body.lines().filter(|l| !l.is_empty()).count() as u64;
            check("access log lines on disk", on_disk, want_lines);
        }
        Err(e) => failures.push(format!("access log unreadable: {e}")),
    }
    std::fs::remove_file(&access_path).ok();
    if let (Some(before), Some(after)) = (rss_before, vm_rss_kb()) {
        let grown = after.saturating_sub(before);
        if grown > 256 * 1024 {
            failures.push(format!("VmRSS grew {grown} KiB (cap 256 MiB)"));
        }
        println!("rss: {before} KiB -> {after} KiB (+{grown} KiB)");
    }
    println!(
        "accepted={} requests={} rejected={} keepalive_reuses={} max_ready_batch={}",
        stats.connections_accepted,
        stats.requests,
        stats.rejected,
        stats.keepalive_reuses,
        stats.max_ready_batch
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// The mixed-tenant chaos scenario (`--tenants`): saturate tenant
/// `alpha` far past its two-slot admission quota while tenant `beta`
/// trickles sequential traffic, then reconcile every counter exactly.
/// See the module docs for the assertion list.
fn tenant_soak() -> Result<(), String> {
    // alpha gets a corpus big enough that its queries spend real time
    // in compute (keeping the two quota slots occupied); beta stays on
    // the tiny corpus so its requests are cheap and latency-sensitive.
    let mut alpha_xml = String::from("<bib>");
    for i in 0..2000 {
        alpha_xml.push_str(&format!(
            "<book><author>knuth</author><title>taocp vol {i}</title></book>"
        ));
    }
    alpha_xml.push_str("</bib>");
    let alpha = LotusX::load_str(&alpha_xml).map_err(|e| format!("alpha corpus: {e}"))?;
    let beta = LotusX::load_str(CORPUS).map_err(|e| format!("beta corpus: {e}"))?;
    let registry = EngineRegistry::from_parts(
        vec![
            (
                "alpha".to_string(),
                alpha,
                TenantLimits {
                    max_inflight: Some(2),
                    ..TenantLimits::unlimited()
                },
            ),
            ("beta".to_string(), beta, TenantLimits::unlimited()),
        ],
        parse_rules(FROM_PATH, &[]).map_err(|e| format!("rules: {e}"))?,
    )
    .map_err(|e| format!("registry: {e}"))?;
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        max_inflight: 256,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let handle = server.handle();
    let addr = server.local_addr();

    const A_THREADS: u64 = 16;
    const A_REQUESTS: u64 = 40;
    const B_REQUESTS: u64 = 60;
    let alpha_query = "{\"text\":\"knuth\",\"kind\":\"keyword\",\"top_k\":25}";

    let ((a_ok, a_429, a_other), (b_latencies, b_429, b_other)) = std::thread::scope(|scope| {
        scope.spawn(|| server.run(&registry));
        let a_handles: Vec<_> = (0..A_THREADS)
            .map(|_| {
                scope.spawn(move || {
                    let (mut ok, mut rejected, mut other) = (0u64, 0u64, 0u64);
                    for _ in 0..A_REQUESTS {
                        match client::post(addr, "/t/alpha/query", alpha_query) {
                            Ok(r) if r.status == 200 => ok += 1,
                            Ok(r) if r.status == 429 => rejected += 1,
                            _ => other += 1,
                        }
                    }
                    (ok, rejected, other)
                })
            })
            .collect();
        let b_handle = scope.spawn(move || {
            let mut latencies = Vec::with_capacity(B_REQUESTS as usize);
            let (mut rejected, mut other) = (0u64, 0u64);
            for _ in 0..B_REQUESTS {
                let started = Instant::now();
                match client::post(addr, "/t/beta/query", QUERY) {
                    Ok(r) if r.status == 200 => latencies.push(started.elapsed()),
                    Ok(r) if r.status == 429 => rejected += 1,
                    _ => other += 1,
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            (latencies, rejected, other)
        });
        let mut a = (0u64, 0u64, 0u64);
        for h in a_handles {
            let (ok, rejected, other) = h.join().expect("alpha client panicked");
            a.0 += ok;
            a.1 += rejected;
            a.2 += other;
        }
        let b = b_handle.join().expect("beta client panicked");
        handle.shutdown();
        (a, b)
    });

    let stats = handle.stats();
    let tenants = handle.tenant_stats();
    let find = |name: &str| {
        tenants
            .iter()
            .find(|(tenant, _)| tenant == name)
            .map(|(_, snapshot)| snapshot)
            .ok_or_else(|| format!("no {name} snapshot"))
    };
    let alpha_snap = find("alpha")?;
    let beta_snap = find("beta")?;
    let mut failures = Vec::new();
    let mut check = |name: &str, got: u64, want: u64| {
        if got != want {
            failures.push(format!("{name}: got {got}, want {want}"));
        }
    };
    check("panics", stats.panics, 0);
    check("alpha client errors", a_other, 0);
    check(
        "alpha responses accounted",
        a_ok + a_429,
        A_THREADS * A_REQUESTS,
    );
    // --- isolation: beta never feels alpha's saturation ---
    check("beta 429s", b_429, 0);
    check("beta client errors", b_other, 0);
    check("beta 200s", b_latencies.len() as u64, B_REQUESTS);
    // --- exact per-tenant accounting ---
    check(
        "alpha quota_rejects == client-observed 429s",
        alpha_snap.quota_rejects,
        a_429,
    );
    check(
        "server tenant_quota_rejects",
        stats.tenant_quota_rejects,
        a_429,
    );
    check(
        "alpha requests (dispatched only)",
        alpha_snap.requests,
        a_ok,
    );
    check("alpha queries", alpha_snap.queries, a_ok);
    check("alpha worker rejects", alpha_snap.rejected, 0);
    check("beta requests", beta_snap.requests, B_REQUESTS);
    check("beta queries", beta_snap.queries, B_REQUESTS);
    check("beta quota_rejects", beta_snap.quota_rejects, 0);
    check("beta worker rejects", beta_snap.rejected, 0);
    check("alpha inflight after drain", alpha_snap.inflight, 0);
    check("beta inflight after drain", beta_snap.inflight, 0);
    check("unknown_tenant rejects", stats.unknown_tenant_rejects, 0);
    if a_429 == 0 {
        failures.push("alpha never tripped its quota — saturation did not happen".to_string());
    }
    if alpha_snap.max_inflight_seen > 2 {
        failures.push(format!(
            "alpha max_inflight_seen {} exceeds its quota of 2",
            alpha_snap.max_inflight_seen
        ));
    }
    let p99 = {
        let mut sorted = b_latencies.clone();
        sorted.sort();
        sorted
            .get(((sorted.len() * 99) / 100).min(sorted.len().saturating_sub(1)))
            .copied()
            .unwrap_or_default()
    };
    if p99 > Duration::from_secs(2) {
        failures.push(format!("beta p99 {p99:?} exceeds the 2s bound"));
    }
    println!(
        "alpha: ok={a_ok} quota_rejects={a_429} max_inflight_seen={}; \
         beta: ok={} p99={p99:?}",
        alpha_snap.max_inflight_seen,
        b_latencies.len(),
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Runs the client fleet; returns the client-side ledger.
fn drive(
    profile: &Profile,
    addr: SocketAddr,
    handle: &lotusx_serve::ServerHandle,
) -> Result<Ledger, String> {
    let mut ledger = Ledger::default();
    let mut poller = Poller::new(Backend::Auto).map_err(|e| format!("client poller: {e}"))?;
    let mut clients: Vec<Option<Client>> = Vec::with_capacity(profile.conns);

    // Phase 1: connect the whole fleet before any traffic, in batches
    // so the accept backlog never overflows.
    for i in 0..profile.conns {
        let kind = match i % 10 {
            0..=3 => Kind::KeepAlive {
                rounds_left: profile.keepalive_rounds,
            },
            4..=6 => Kind::OneShot {
                reconnects_left: profile.oneshot_reconnects,
            },
            7..=8 => Kind::SlowReader,
            _ => Kind::SlowLoris,
        };
        let client = connect(addr, kind, &mut ledger)?;
        poller
            .register(fd(&client.stream), i, Interest::READ)
            .map_err(|e| format!("register: {e}"))?;
        clients.push(Some(client));
        if i % 100 == 99 {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // Phase 2: with every socket connected and silent, the server must
    // be holding the whole fleet open concurrently.
    let stats_probe = client::get(addr, "/stats").map_err(|e| format!("stats probe: {e}"))?;
    ledger.connects += 1;
    ledger.requests_sent += 1;
    if stats_probe.status != 200 {
        return Err(format!("stats probe answered {}", stats_probe.status));
    }
    let open = lotusx_obs::parse_json(&stats_probe.body_text())
        .map_err(|e| format!("stats probe: {e}"))?
        .get("server")
        .and_then(|s| s.get("connections_open"))
        .and_then(|v| v.as_f64())
        .ok_or("stats probe: no server.connections_open counter")? as u64;
    if (open as usize) < profile.conns {
        return Err(format!(
            "only {open} connections open concurrently, want >= {}",
            profile.conns
        ));
    }
    println!("holding {open} concurrent connections");

    // Phase 3: traffic. Load initial requests, then drive to done.
    for (i, slot) in clients.iter_mut().enumerate() {
        let c = slot.as_mut().expect("fleet fully connected");
        load_request(c, &mut ledger);
        flush_client(c);
        sync_interest(&mut poller, i, c);
    }
    let deadline = Instant::now() + profile.traffic_deadline;
    let mut events: Vec<PollEvent> = Vec::new();
    let mut live = clients.len();
    while live > 0 {
        if Instant::now() > deadline {
            return Err(format!("traffic phase timed out with {live} clients live"));
        }
        poller
            .wait(&mut events, Some(Duration::from_millis(25)))
            .map_err(|e| format!("client wait: {e}"))?;
        for ev in &events {
            let Some(c) = clients[ev.token].as_mut() else {
                continue;
            };
            if ev.writable {
                flush_client(c);
            }
            if ev.readable || ev.hangup {
                pump_read(c, &mut ledger);
            }
            step(c, &mut ledger);
        }
        // Time-based transitions: slow readers resuming.
        let now = Instant::now();
        for (i, slot) in clients.iter_mut().enumerate() {
            let mut finished = false;
            let mut reconnect = false;
            if let Some(c) = slot.as_mut() {
                if c.resume_at.is_some_and(|t| now >= t) {
                    c.resume_at = None;
                    pump_read(c, &mut ledger);
                    step(c, &mut ledger);
                }
                if c.done {
                    finished = true;
                    reconnect = matches!(
                        c.kind,
                        Kind::OneShot { reconnects_left } if reconnects_left > 0
                    );
                }
            }
            if finished {
                let old = slot.take().expect("checked");
                poller.deregister(fd(&old.stream)).ok();
                if reconnect {
                    let Kind::OneShot { reconnects_left } = old.kind else {
                        unreachable!()
                    };
                    drop(old);
                    let mut fresh = connect(
                        addr,
                        Kind::OneShot {
                            reconnects_left: reconnects_left - 1,
                        },
                        &mut ledger,
                    )?;
                    load_request(&mut fresh, &mut ledger);
                    flush_client(&mut fresh);
                    poller
                        .register(fd(&fresh.stream), i, Interest::READ)
                        .map_err(|e| format!("re-register: {e}"))?;
                    sync_interest(&mut poller, i, &mut fresh);
                    *slot = Some(fresh);
                } else {
                    live -= 1;
                }
            } else if let Some(c) = slot.as_mut() {
                sync_interest(&mut poller, i, c);
            }
        }
        if handle.stats().panics > 0 {
            return Err("server panicked mid-soak".to_string());
        }
    }
    Ok(ledger)
}

fn connect(addr: SocketAddr, kind: Kind, ledger: &mut Ledger) -> Result<Client, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    ledger.connects += 1;
    Ok(Client {
        stream,
        kind,
        out: Vec::new(),
        outpos: 0,
        inbuf: Vec::new(),
        resume_at: None,
        await_eof: false,
        done: false,
        interest: Interest::READ,
    })
}

/// Queues this client's next request per its kind.
fn load_request(c: &mut Client, ledger: &mut Ledger) {
    match &mut c.kind {
        Kind::KeepAlive { rounds_left } => {
            let last = *rounds_left <= 1;
            let conn_header = if last { "Connection: close\r\n" } else { "" };
            c.out =
                format!("GET /healthz HTTP/1.1\r\nHost: soak\r\n{conn_header}\r\n").into_bytes();
            ledger.requests_sent += 1;
        }
        Kind::OneShot { .. } => {
            c.out = b"GET /healthz HTTP/1.1\r\nHost: soak\r\nConnection: close\r\n\r\n".to_vec();
            ledger.requests_sent += 1;
        }
        Kind::SlowReader => {
            c.out = format!(
                "POST /query HTTP/1.1\r\nHost: soak\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{QUERY}",
                QUERY.len()
            )
            .into_bytes();
            // Leave the response unread for a while once it lands.
            c.resume_at = Some(Instant::now() + Duration::from_millis(300));
            ledger.requests_sent += 1;
        }
        Kind::SlowLoris => {
            // A partial head and then silence: the read deadline must
            // answer 408. Not counted as a request — it never parses.
            c.out = b"GET /healthz HT".to_vec();
        }
    }
    c.outpos = 0;
}

/// Writes as much of the queued request as the socket accepts.
fn flush_client(c: &mut Client) {
    while c.outpos < c.out.len() {
        match (&c.stream).write(&c.out[c.outpos..]) {
            Ok(0) => {
                c.done = true;
                return;
            }
            Ok(n) => c.outpos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // The server may close mid-write (loris 408); the
                // response, if any, is already readable.
                return;
            }
        }
    }
}

/// Reads whatever the socket has (unless the client is deliberately
/// sitting on it).
fn pump_read(c: &mut Client, ledger: &mut Ledger) {
    if c.resume_at.is_some() {
        return;
    }
    let mut chunk = [0u8; 4096];
    loop {
        match (&c.stream).read(&mut chunk) {
            Ok(0) => {
                finish_on_eof(c, ledger);
                return;
            }
            Ok(n) => c.inbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                finish_on_eof(c, ledger);
                return;
            }
        }
    }
}

fn finish_on_eof(c: &mut Client, ledger: &mut Ledger) {
    if !c.await_eof {
        // Try to salvage a buffered response (loris replies arrive
        // together with the close).
        step(c, ledger);
    }
    if !c.done && !c.await_eof {
        ledger.errors += 1;
    }
    c.done = true;
}

/// Advances the state machine over any complete buffered response.
fn step(c: &mut Client, ledger: &mut Ledger) {
    if c.done || c.resume_at.is_some() {
        return;
    }
    loop {
        let parsed = match parse_response(&c.inbuf) {
            Ok(Some((response, used))) => {
                c.inbuf.drain(..used);
                Some(response)
            }
            Ok(None) => None,
            Err(_) => {
                ledger.errors += 1;
                c.done = true;
                return;
            }
        };
        let Some(response) = parsed else { return };
        on_response(c, response, ledger);
        if c.done || c.await_eof {
            return;
        }
    }
}

fn on_response(c: &mut Client, response: Response, ledger: &mut Ledger) {
    match &mut c.kind {
        Kind::KeepAlive { rounds_left } => {
            if response.status == 200 {
                ledger.ok_responses += 1;
            } else {
                ledger.errors += 1;
            }
            *rounds_left -= 1;
            if *rounds_left == 0 {
                c.await_eof = true;
            } else {
                load_request(c, ledger);
                flush_client(c);
            }
        }
        Kind::OneShot { .. } | Kind::SlowReader => {
            if response.status == 200 {
                ledger.ok_responses += 1;
            } else {
                ledger.errors += 1;
            }
            c.await_eof = true;
        }
        Kind::SlowLoris => {
            if response.status == 408 {
                ledger.loris_408s += 1;
            } else {
                ledger.errors += 1;
            }
            c.await_eof = true;
        }
    }
}

fn sync_interest(poller: &mut Poller, token: usize, c: &mut Client) {
    let interest = Interest {
        readable: c.resume_at.is_none(),
        writable: c.outpos < c.out.len(),
    };
    if interest != c.interest {
        c.interest = interest;
        poller.modify(fd(&c.stream), token, interest).ok();
    }
}

fn fd(stream: &TcpStream) -> std::os::fd::RawFd {
    use std::os::fd::AsRawFd;
    stream.as_raw_fd()
}

/// Resident set size in KiB (Linux); `None` elsewhere.
fn vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
