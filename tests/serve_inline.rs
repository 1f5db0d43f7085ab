//! The loop-thread fast path, on real sockets: requests whose work is
//! bounded by their own size (`/healthz`, `/metrics`, `/complete`,
//! `/query` cache hits) are answered where they arrive, everything else
//! falls back to the worker pool — and a client can never tell which
//! happened except by the clock.
//!
//! * **work counters** — one readiness event per keystroke, every routed
//!   request is exactly one of `inline_answers` / `inline_fallbacks`,
//!   and the deadline wheel holds one entry per connection however many
//!   requests it served;
//! * **differential** — the same request answered inline and via
//!   fallback is byte-identical, and each moves the cache counters once;
//! * **flush** — bytes appended to an output buffer are always written
//!   without the peer having to speak again, stalled or not;
//! * **quota** — an inline answer holds its tenant's inflight slot only
//!   for its own duration;
//! * **drain** — inline answers honour shutdown like worker ones.

use lotusx::{parse_rules, EngineRegistry, LotusX, TenantLimits};
use lotusx_obs::parse_json;
use lotusx_serve::{client, wire, ServeConfig, Server, ServerHandle, StatsSnapshot};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// The obs counters are process-global: the tests of this file run one
/// at a time so a delta means what it says.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Ten tags `t0`..`t9` with 3000, 2900, … 2100 elements each under one
/// root. The engine pre-builds the value tries of the eight hottest
/// (`t0`..`t7`); `t9` is the cold one, with more elements than the
/// inline budget lets the loop thread scan.
fn corpus() -> LotusX {
    let mut xml = String::from("<r>");
    for tag in 0..10 {
        for i in 0..(3000 - 100 * tag) {
            xml.push_str(&format!("<t{tag}>w{} v{i}</t{tag}>", i % 37));
        }
    }
    xml.push_str("</r>");
    LotusX::load_str(&xml).expect("corpus parses")
}

const TAG_KEYSTROKE: &str =
    "{\"prefix\":\"t\",\"context\":{\"steps\":[{\"tag\":\"r\"}],\"axis\":\"child\"}}";
const COLD_VALUE: &str = "{\"kind\":\"value\",\"tag\":\"t9\",\"prefix\":\"w\",\"k\":5}";

fn with_server<T: Send>(
    registry: &EngineRegistry,
    config: ServeConfig,
    body: impl FnOnce(SocketAddr, &ServerHandle) -> T + Send,
) -> T {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        scope.spawn(|| server.run(registry));
        let out = body(addr, &handle);
        handle.shutdown();
        out
    })
}

fn post(conn: &mut client::Conn, path: &str, body: &str) -> client::Response {
    conn.send("POST", path, Some(body.as_bytes()))
        .expect("send");
    let response = conn.read_one().expect("response");
    assert_eq!(response.status, 200, "{}", response.body_text());
    response
}

/// Every routed request was answered inline or handed to the workers.
fn assert_ledger(stats: &StatsSnapshot) {
    assert_eq!(
        stats.requests,
        stats.inline_answers + stats.inline_fallbacks,
        "{stats:?}"
    );
    assert_eq!(stats.panics, 0);
}

#[test]
fn a_keystroke_costs_one_readiness_event_and_no_timer_entry() {
    let _serial = serial();
    let registry = EngineRegistry::single_tenant(corpus());
    with_server(&registry, ServeConfig::default(), |addr, handle| {
        let mut conn = client::Conn::connect(addr).expect("connect");
        post(&mut conn, "/complete", TAG_KEYSTROKE);
        let before = handle.stats();
        const N: u64 = 200;
        for _ in 0..N {
            post(&mut conn, "/complete", TAG_KEYSTROKE);
        }
        let after = handle.stats();
        assert_eq!(after.completions - before.completions, N);
        assert_eq!(
            after.inline_answers - before.inline_answers,
            N,
            "every keystroke is answered on the loop thread"
        );
        assert_eq!(after.inline_fallbacks, before.inline_fallbacks);
        assert_eq!(
            after.ready_events - before.ready_events,
            N,
            "one readiness event (the socket) per keystroke: no waker, no second lap"
        );
        assert_eq!(after.rejected, 0);

        // The deadline moves on every request; the wheel does not grow.
        for _ in 0..10_000 {
            post(&mut conn, "/complete", TAG_KEYSTROKE);
        }
        let stats = handle.stats();
        assert_eq!(stats.connections_open, 1);
        assert!(
            stats.timer_entries <= stats.connections_open + 1,
            "{} timer entries for {} connection(s) after 10 000 requests",
            stats.timer_entries,
            stats.connections_open
        );
        assert_ledger(&stats);
    });
}

#[test]
fn inline_and_fallback_answers_are_byte_identical() {
    let _serial = serial();
    lotusx_obs::set_enabled(true);
    let registry = EngineRegistry::single_tenant(corpus());
    let engine = registry.tenants()[0].engine();
    // What the full (never truncated) answer looks like, from a twin
    // engine so the served one's trie cache stays cold.
    let want_value =
        wire::encode_value_candidates(&corpus().completion_engine().complete_value("t9", "w", 5));
    assert!(want_value.contains("\"count\":57"), "{want_value}");
    let counters = || {
        let c = lotusx_obs::metrics().counters.snapshot();
        (c.queries, c.cache_hit, c.cache_miss)
    };

    with_server(&registry, ServeConfig::default(), |addr, handle| {
        let mut conn = client::Conn::connect(addr).expect("connect");

        // Value completion on a tag whose trie is not resident: the
        // inline budget trips, the partial trie is dropped, a worker
        // builds it once; the repeat is answered inline from it.
        let tries = engine.value_trie_cache_len();
        let s0 = handle.stats();
        let first = post(&mut conn, "/complete", COLD_VALUE);
        let s1 = handle.stats();
        assert_eq!(s1.inline_fallbacks - s0.inline_fallbacks, 1);
        assert_eq!(s1.inline_answers, s0.inline_answers);
        assert_eq!(engine.value_trie_cache_len(), tries + 1);
        assert_eq!(first.body_text(), want_value, "never a truncated list");
        let second = post(&mut conn, "/complete", COLD_VALUE);
        let s2 = handle.stats();
        assert_eq!(s2.inline_answers - s1.inline_answers, 1);
        assert_eq!(s2.inline_fallbacks, s1.inline_fallbacks);
        assert_eq!(engine.value_trie_cache_len(), tries + 1, "built once");
        assert_eq!(second.body, first.body);
        assert_eq!(s2.completions - s0.completions, 2);

        // A query: the miss computes on a worker, the repeat is a cache
        // hit answered inline. Same bytes; the cache counters move by
        // exactly one per request wherever it was served.
        let query = "{\"text\":\"//r/t3\",\"top_k\":7}";
        let (q0, h0, m0) = counters();
        let miss = post(&mut conn, "/query", query);
        let s3 = handle.stats();
        assert_eq!(s3.inline_fallbacks - s2.inline_fallbacks, 1);
        assert_eq!(counters(), (q0 + 1, h0, m0 + 1));
        let hit = post(&mut conn, "/query", query);
        let s4 = handle.stats();
        assert_eq!(s4.inline_answers - s3.inline_answers, 1);
        assert_eq!(s4.inline_fallbacks, s3.inline_fallbacks);
        assert_eq!(counters(), (q0 + 2, h0 + 1, m0 + 1));
        assert_eq!(hit.body, miss.body);
        let cache = engine.query_cache_stats();
        assert_eq!((cache.hits, cache.misses), (1, 1));
        assert_eq!(s4.queries - s2.queries, 2);
        assert_eq!(s4.rejected, 0);
        assert_ledger(&s4);
    });
    lotusx_obs::set_enabled(false);
}

/// Reads `n` pipelined responses and checks they are the `n - 1`
/// completions followed by the scrape, in order.
fn read_completions_then_scrape(conn: &mut client::Conn, completions: usize, want: &[u8]) {
    for i in 0..completions {
        let r = conn.read_one().expect("pipelined completion");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, want, "completion #{i}");
    }
    let scrape = conn.read_one().expect("pipelined scrape");
    assert_eq!(scrape.status, 200);
    assert!(scrape
        .body_text()
        .contains("lotusx_server_inline_answers_total"));
}

fn raw_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    match method {
        "GET" => format!("GET {path} HTTP/1.1\r\nHost: lotusx\r\n\r\n").into_bytes(),
        _ => format!(
            "{method} {path} HTTP/1.1\r\nHost: lotusx\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes(),
    }
}

/// 10 000 half-kilobyte elements: one `/query` answer over them is
/// larger than the kernel's largest loopback send buffer (4 MB), so a
/// peer that is not reading stalls the server's write for certain.
fn stall_corpus() -> LotusX {
    let filler = "lorem ipsum dolor sit amet ".repeat(18);
    let mut xml = String::from("<r><t0>w0</t0>");
    for i in 0..10_000 {
        xml.push_str(&format!("<big>n{i} {filler}</big>"));
    }
    xml.push_str("</r>");
    LotusX::load_str(&xml).expect("corpus parses")
}

#[test]
fn pipelined_inline_answers_are_flushed_without_another_byte() {
    let _serial = serial();
    let registry = EngineRegistry::single_tenant(stall_corpus());
    with_server(&registry, ServeConfig::default(), |addr, handle| {
        let want = client::post(addr, "/complete", TAG_KEYSTROKE)
            .expect("reference completion")
            .body;

        // 64 keystrokes and a scrape in a single write; the client then
        // only reads.
        let mut burst = Vec::new();
        for _ in 0..64 {
            burst.extend(raw_request("POST", "/complete", TAG_KEYSTROKE));
        }
        burst.extend(raw_request("GET", "/metrics", ""));
        let mut conn = client::Conn::connect(addr).expect("connect");
        conn.send_raw(&burst).expect("one write");
        read_completions_then_scrape(&mut conn, 64, &want);

        // The same burst queued behind a large `/query` answer that the
        // peer is slow to read, through a small receive buffer: the
        // write stalls with everything appended behind it.
        let big_query = "{\"text\":\"//r/big\",\"top_k\":10000}";
        let mut stalled = raw_request("POST", "/query", big_query);
        stalled.extend(&burst);
        let stream = TcpStream::connect(addr).expect("connect");
        shrink_receive_buffer(&stream);
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        (&stream).write_all(&stalled).expect("one write");
        std::thread::sleep(Duration::from_millis(300));
        let mut received = Vec::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let marker = b"lotusx_server_inline_answers_total";
        // Read until the scrape (the last response) has fully arrived.
        let responses = loop {
            let n = (&stream).read(&mut chunk).expect("stalled read");
            assert!(n > 0, "server closed mid-burst");
            let searched_from = received.len().saturating_sub(marker.len());
            received.extend_from_slice(&chunk[..n]);
            if received[searched_from..]
                .windows(marker.len())
                .any(|w| w == marker)
            {
                if let Some(all) = split_responses(&received, 66) {
                    break all;
                }
            }
        };
        assert!(
            responses[0].len() > 5_000_000,
            "a {} byte answer may fit the send buffer and never stall",
            responses[0].len()
        );
        for (i, r) in responses[1..65].iter().enumerate() {
            assert_eq!(r, &want, "completion #{i} behind the stall");
        }
        let stats = handle.stats();
        assert_eq!(stats.write_stalls, 0, "a slow reader is not a dead one");
        assert_eq!(stats.rejected, 0);
        assert_ledger(&stats);
    });
}

/// Splits `n` complete pipelined responses out of `bytes` (bodies
/// only), or `None` while the last one is still arriving.
fn split_responses(mut bytes: &[u8], n: usize) -> Option<Vec<Vec<u8>>> {
    let mut out = Vec::new();
    for _ in 0..n {
        let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
        let head = std::str::from_utf8(&bytes[..head_end]).ok()?;
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))?
            .trim()
            .parse()
            .ok()?;
        if bytes.len() < head_end + len {
            return None;
        }
        out.push(bytes[head_end..head_end + len].to_vec());
        bytes = &bytes[head_end + len..];
    }
    Some(out)
}

/// Pins `SO_RCVBUF` small (and so turns receive-buffer autotuning off):
/// the server's writes back up after a couple of hundred kilobytes, yet
/// the window stays above one loopback segment, so draining it is fast.
fn shrink_receive_buffer(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let bytes: i32 = 64 * 1024;
    // SAFETY: `bytes` outlives the call and `len` is its size.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&bytes as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

#[test]
fn inline_answers_hold_a_tenant_slot_only_while_they_run() {
    let _serial = serial();
    let rules = parse_rules(
        r#"[{"when": {"path_prefix": "/t/"}, "tenant": {"from_path": true}}]"#,
        &["solo"],
    )
    .expect("rules parse");
    let registry = EngineRegistry::from_parts(
        vec![(
            "solo".into(),
            corpus(),
            TenantLimits {
                max_inflight: Some(1),
                ..TenantLimits::unlimited()
            },
        )],
        rules,
    )
    .expect("registry builds");
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        scope.spawn(|| server.run(&registry));
        // Two connections taking turns in bursts: with a quota of one,
        // any slot held past its answer would refuse the other's next
        // request.
        let mut a = client::Conn::connect(addr).expect("connect");
        let mut b = client::Conn::connect(addr).expect("connect");
        for round in 0..100 {
            for conn in [&mut a, &mut b] {
                for _ in 0..50 {
                    conn.send("POST", "/t/solo/complete", Some(TAG_KEYSTROKE.as_bytes()))
                        .expect("pipelined send");
                }
                for i in 0..50 {
                    let r = conn.read_one().expect("pipelined response");
                    assert_eq!(r.status, 200, "round {round} #{i}: {}", r.body_text());
                }
            }
        }
        let stats = handle.stats();
        assert_eq!(stats.completions, 10_000);
        assert_eq!(stats.inline_answers, 10_000);
        assert_eq!(stats.tenant_quota_rejects, 0);
        assert_eq!(stats.rejected, 0);
        assert_ledger(&stats);
        let tenants = handle.tenant_stats();
        assert_eq!(tenants[0].1.completions, 10_000);
        assert_eq!(tenants[0].1.quota_rejects, 0);
        assert_eq!(tenants[0].1.inflight, 0);
        assert_eq!(tenants[0].1.max_inflight_seen, 1);
        handle.shutdown();
    });
}

#[test]
fn inline_answers_honour_the_drain() {
    let _serial = serial();
    let registry = EngineRegistry::single_tenant(corpus());
    let want_value =
        wire::encode_value_candidates(&corpus().completion_engine().complete_value("t9", "w", 5));
    let server = Server::bind(ServeConfig {
        // Deliberately long: the drain — not a deadline — ends things.
        read_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        scope.spawn(|| server.run(&registry));

        // A client typing away while the server is told to stop: every
        // response it gets is whole, the last one says `close`, and the
        // connection then ends cleanly — never a torn or missing answer.
        let typist = scope.spawn(move || {
            let mut conn = client::Conn::connect(addr).expect("connect");
            let mut answered = 0u64;
            loop {
                if conn
                    .send("POST", "/complete", Some(TAG_KEYSTROKE.as_bytes()))
                    .is_err()
                {
                    break answered;
                }
                match conn.read_one() {
                    Ok(r) => {
                        assert_eq!(r.status, 200);
                        parse_json(&r.body_text()).expect("whole JSON body");
                        answered += 1;
                        if r.header("connection") == Some("close") {
                            assert!(conn.at_eof().expect("FIN after a closing response"));
                            break answered;
                        }
                    }
                    // Reaped between two requests: the connection ends
                    // on a response boundary, not inside a response.
                    Err(_) => {
                        assert!(conn.buffered().is_empty(), "torn response");
                        break answered;
                    }
                }
            }
        });
        // Two fresh connections that have not spoken yet: the drain owes
        // them a first answer and keeps them.
        let mut inline_conn = client::Conn::connect(addr).expect("connect");
        let mut fallback_conn = client::Conn::connect(addr).expect("connect");
        while handle.stats().completions < 50 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let before = handle.stats();
        handle.shutdown();
        assert!(typist.join().expect("typist") >= 50);

        // The stop flag was set before these bytes are sent, so the
        // loop sees it when it parses them. An inline answer says so and
        // closes…
        inline_conn
            .send("POST", "/complete", Some(TAG_KEYSTROKE.as_bytes()))
            .expect("send while draining");
        let r = inline_conn
            .read_one()
            .expect("inline answer while draining");
        assert_eq!(r.status, 200);
        assert_eq!(r.header("connection"), Some("close"));
        assert!(inline_conn.at_eof().expect("closed by the drain"));
        // …and a request that falls back to the workers is still
        // answered, in full.
        fallback_conn
            .send("POST", "/complete", Some(COLD_VALUE.as_bytes()))
            .expect("send while draining");
        let r = fallback_conn
            .read_one()
            .expect("fallback answer while draining");
        assert_eq!(r.status, 200);
        assert_eq!(r.body_text(), want_value);
        assert!(fallback_conn.at_eof().expect("closed by the drain"));

        let after = handle.stats();
        assert_eq!(after.inline_fallbacks - before.inline_fallbacks, 1);
        assert!(after.inline_answers > before.inline_answers);
        assert_eq!(after.rejected, 0);
        assert_ledger(&after);
    });
}
