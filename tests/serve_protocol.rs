//! Protocol-hardening suite: malformed, hostile, and slow inputs all get
//! the documented 4xx (or a timeout), never a panic, and the rejection
//! counters account for every one of them exactly.

use lotusx::{EngineRegistry, LotusX, RegistryConfig};
use lotusx_datagen::{generate, Dataset};
use lotusx_serve::{client, Limits, ServeConfig, Server};
use std::io::Write;
use std::time::Duration;

const DOC: &str =
    "<bib><book><title>Data on the Web</title><author>Abiteboul</author></book></bib>";

/// Short server-side read timeout so the slow-loris case resolves fast.
const READ_TIMEOUT: Duration = Duration::from_millis(400);

fn hardened_config() -> ServeConfig {
    ServeConfig {
        read_timeout: READ_TIMEOUT,
        write_timeout: Duration::from_secs(5),
        limits: Limits {
            max_request_line: 256,
            max_headers: 8,
            max_header_line: 512,
            max_body_bytes: 1024,
        },
        ..ServeConfig::default()
    }
}

struct Case {
    name: &'static str,
    /// Raw bytes written to the socket, with a pause after each chunk.
    chunks: Vec<(Vec<u8>, Duration)>,
    /// The status the server must answer with.
    expect: u16,
    /// Does this input get far enough to be *routed* (and therefore
    /// counted in `requests` as well as `rejected`)?
    routed: bool,
    /// Text the JSON error body must contain ("" = any reason).
    reason: &'static str,
}

fn case(name: &'static str, raw: &str, expect: u16, routed: bool) -> Case {
    Case {
        name,
        chunks: vec![(raw.as_bytes().to_vec(), Duration::ZERO)],
        expect,
        routed,
        reason: "",
    }
}

#[test]
fn malformed_inputs_get_documented_rejections_and_exact_counters() {
    let registry = EngineRegistry::single_tenant(LotusX::load_str(DOC).unwrap());
    let server = Server::bind(hardened_config()).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();

    let cases = vec![
        case("truncated request line", "GET /healthz", 400, false),
        case("empty request", "", 400, false),
        case("one-token request line", "GARBAGE\r\n\r\n", 400, false),
        case(
            "lowercase method",
            "get /healthz HTTP/1.1\r\n\r\n",
            400,
            false,
        ),
        case(
            "wrong protocol",
            "GET /healthz SPDY/3.1\r\n\r\n",
            400,
            false,
        ),
        case(
            "oversized request line",
            &format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(300)),
            400,
            false,
        ),
        case(
            "oversized header line",
            &format!(
                "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
                "b".repeat(600)
            ),
            431,
            false,
        ),
        case(
            "too many headers",
            &format!(
                "GET /healthz HTTP/1.1\r\n{}\r\n",
                (0..12)
                    .map(|i| format!("X-H{i}: v\r\n"))
                    .collect::<String>()
            ),
            431,
            false,
        ),
        case(
            "header without colon",
            "GET /healthz HTTP/1.1\r\nnocolonhere\r\n\r\n",
            400,
            false,
        ),
        case(
            "bad content-length",
            "POST /query HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            400,
            false,
        ),
        case(
            "negative content-length",
            "POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            400,
            false,
        ),
        // RFC 9112 §6.3: Content-Length is 1*DIGIT, and repeats that
        // differ are a framing error — never "take the first".
        Case {
            reason: "bad content-length",
            ..case(
                "signed content-length",
                "POST /query HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}",
                400,
                false,
            )
        },
        Case {
            reason: "bad content-length",
            ..case(
                "conflicting content-lengths",
                "POST /query HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n{}",
                400,
                false,
            )
        },
        case(
            "content-length over the cap",
            "POST /query HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
            413,
            false,
        ),
        case(
            "post without content-length",
            "POST /query HTTP/1.1\r\n\r\n",
            411,
            false,
        ),
        case(
            "body shorter than content-length",
            "POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"x\":1}",
            400,
            false,
        ),
        case(
            "chunked transfer-encoding",
            "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\n{}",
            400,
            false,
        ),
        Case {
            name: "invalid UTF-8 body",
            chunks: vec![(
                [
                    b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\n".to_vec(),
                    vec![0xff, 0xfe, 0x80, 0x81],
                ]
                .concat(),
                Duration::ZERO,
            )],
            expect: 400,
            routed: true,
            reason: "",
        },
        case(
            "body is not JSON",
            "POST /query HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!",
            400,
            true,
        ),
        case(
            "body fails wire validation",
            "POST /query HTTP/1.1\r\nContent-Length: 13\r\n\r\n{\"top_k\":\"x\"}",
            400,
            true,
        ),
        // A deleted join algorithm is rejected, never silently mapped to
        // a survivor.
        Case {
            reason: "unknown algorithm \\\"twigstack\\\" (one of naive, structural-join, auto)",
            ..case(
                "removed algorithm name",
                "POST /query HTTP/1.1\r\nContent-Length: 38\r\n\r\n\
                 {\"text\":\"//a\",\"algorithm\":\"twigstack\"}",
                400,
                true,
            )
        },
        case("unknown endpoint", "GET /admin HTTP/1.1\r\n\r\n", 404, true),
        case(
            "wrong method on /query",
            "GET /query HTTP/1.1\r\n\r\n",
            405,
            true,
        ),
        case(
            "wrong method on /healthz",
            "POST /healthz HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
            405,
            true,
        ),
        Case {
            name: "slow-loris hits the read timeout",
            chunks: vec![
                (b"GET /healthz HT".to_vec(), READ_TIMEOUT * 3),
                (b"TP/1.1\r\n\r\n".to_vec(), Duration::ZERO),
            ],
            expect: 408,
            routed: false,
            reason: "",
        },
    ];

    let expected_rejects = cases.len() as u64;
    let expected_routed = cases.iter().filter(|c| c.routed).count() as u64;

    std::thread::scope(|scope| {
        scope.spawn(|| server.run(&registry));

        for c in &cases {
            let chunks: Vec<(&[u8], Duration)> = c
                .chunks
                .iter()
                .map(|(bytes, pause)| (bytes.as_slice(), *pause))
                .collect();
            let response = client::raw_request(addr, &chunks, Duration::from_secs(5))
                .unwrap_or_else(|e| panic!("{}: socket error {e}", c.name))
                .unwrap_or_else(|| panic!("{}: server closed without responding", c.name));
            assert_eq!(response.status, c.expect, "{}", c.name);
            // Every rejection carries a JSON error body.
            assert!(
                response.body_text().starts_with("{\"error\":"),
                "{}: body {:?}",
                c.name,
                response.body_text()
            );
            assert!(
                response.body_text().contains(c.reason),
                "{}: body {:?}",
                c.name,
                response.body_text()
            );
        }

        // One good request to prove the server is still healthy after
        // all of the above.
        let ok = client::get(addr, "/healthz").expect("healthz after the gauntlet");
        assert_eq!(ok.status, 200);

        let stats = handle.stats();
        assert_eq!(stats.panics, 0, "hardening input must never panic a worker");
        assert_eq!(
            stats.rejected, expected_rejects,
            "every case increments `rejected` exactly once"
        );
        assert_eq!(
            stats.requests,
            expected_routed + 1, // the routed rejects + the final healthz
            "only parseable requests count as requests"
        );

        handle.shutdown();
    });
}

/// Bodies well inside the default 256 KiB cap that used to recurse the
/// process to death: JSON nesting parsed on the loop thread (`/query`,
/// `/complete`) and on a worker (`/admin/routes`), and twig texts of
/// tens of thousands of steps. Each is one `400` and one `rejected`, no
/// panic, and the same server answers the next `/healthz`.
#[test]
fn nesting_and_pattern_bombs_are_400s_under_default_limits() {
    let config = format!(
        r#"{{"tenants": [{{"name": "only", "corpus": {}}}],
            "rules": [{{"when": {{"always": true}}, "tenant": "only"}}]}}"#,
        lotusx_obs::json_string(DOC)
    );
    let registry = EngineRegistry::open(&RegistryConfig::parse(&config).unwrap()).unwrap();
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let (addr, handle) = (server.local_addr(), server.handle());
    let twig = |tail: String| format!("{{\"text\":\"//a{tail}\"}}");
    let too_deep = "nesting too deep at byte 64";
    let too_big = "pattern has more than 64 nodes\\n";
    let cases = [
        ("/query", "[".repeat(100_000), too_deep),
        ("/complete", "[".repeat(100_000), too_deep),
        ("/admin/routes", "[".repeat(10_000), "(syntax) at byte 64: "),
        ("/query", twig("/b".repeat(20_000)), too_big),
        (
            "/query",
            twig("[b".repeat(20_000) + &"]".repeat(20_000)),
            too_big,
        ),
    ];
    // Asserted outside the scope: a panic inside it would wait forever
    // on a server nobody stops.
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        scope.spawn(|| server.run(&registry));
        let outcomes = cases
            .iter()
            .map(|(path, body, _)| {
                let answer = client::post(addr, path, body).map(|r| (r.status, r.body_text()));
                let health = client::get(addr, "/healthz").map(|r| r.status);
                (answer.ok(), health.ok(), handle.stats())
            })
            .collect();
        handle.shutdown();
        outcomes
    });
    for (i, ((path, _, reason), (answer, health, stats))) in cases.iter().zip(outcomes).enumerate()
    {
        let (status, body) = answer.unwrap_or_else(|| panic!("case {i}: {path} died"));
        assert_eq!(status, 400, "case {i}: {body}");
        assert!(body.contains(reason), "case {i}: {body}");
        assert!(i < 3 || body.ends_with("^\"}\n"), "caret snippet: {body}");
        assert_eq!(health, Some(200), "case {i}: the server keeps serving");
        assert_eq!((stats.rejected, stats.panics), (i as u64 + 1, 0));
    }
}

/// A `\u` surrogate pair — how `json.dumps` spells an astral character —
/// decodes to that one character: a `/complete` prefix sent escaped gets
/// the bytes the same prefix sent as raw UTF-8 gets.
#[test]
fn escaped_surrogate_pairs_decode_to_the_astral_character() {
    let registry = EngineRegistry::single_tenant(
        LotusX::load_str("<bib><book><title>\u{20000}data</title></book></bib>").unwrap(),
    );
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let (addr, handle) = (server.local_addr(), server.handle());
    let complete = |prefix: &str| {
        let body = format!("{{\"kind\":\"value\",\"tag\":\"title\",\"prefix\":\"{prefix}\"}}");
        client::post(addr, "/complete", &body).map(|r| (r.status, r.body_text()))
    };
    // Asserted outside the scope: a panic inside it would wait forever
    // on a server nobody stops.
    let (escaped, raw) = std::thread::scope(|scope| {
        scope.spawn(|| server.run(&registry));
        let answers = (complete("\\ud840\\udc00"), complete("\u{20000}"));
        handle.shutdown();
        answers
    });
    let (escaped, raw) = (escaped.expect("escaped request"), raw.expect("raw request"));
    assert_eq!(raw.0, 200);
    assert!(raw.1.contains("\"term\":\"\u{20000}data\""), "{}", raw.1);
    assert_eq!(escaped, raw);
}

/// Keep-alive, pipelining, half-close, and the idle deadline: the
/// event-loop connection state machine end to end, with exact counter
/// accounting across all four conversations.
#[test]
fn keep_alive_pipelining_half_close_and_idle_timeout() {
    let registry = EngineRegistry::single_tenant(LotusX::load_str(DOC).unwrap());
    let config = ServeConfig {
        idle_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();

    std::thread::scope(|scope| {
        scope.spawn(|| server.run(&registry));

        // 1. A second request on a reused connection.
        let mut conn = client::Conn::connect(addr).expect("keep-alive connect");
        conn.send("GET", "/healthz", None).expect("first send");
        let first = conn.read_one().expect("first response");
        assert_eq!(first.status, 200);
        assert_eq!(
            first.header("connection"),
            Some("keep-alive"),
            "an HTTP/1.1 request without Connection: close keeps the socket open"
        );
        assert_eq!(first.body_text(), "ok\n");
        conn.send("GET", "/healthz", None).expect("reused send");
        let second = conn.read_one().expect("second response on the same socket");
        assert_eq!(second.status, 200);
        assert_eq!(second.body_text(), "ok\n");
        drop(conn); // client-side close: the server reaps it silently

        // 2. A pipelined pair is answered in order: both requests are
        // written before either response is read, and the responses
        // come back in request order (healthz first, query second).
        let query = "{\"text\":\"Abiteboul\",\"kind\":\"keyword\",\"top_k\":1}";
        let mut pipe = client::Conn::connect(addr).expect("pipelining connect");
        pipe.send("GET", "/healthz", None).expect("pipelined #1");
        pipe.send("POST", "/query", Some(query.as_bytes()))
            .expect("pipelined #2");
        let a = pipe.read_one().expect("pipelined response #1");
        let b = pipe.read_one().expect("pipelined response #2");
        assert_eq!((a.status, b.status), (200, 200));
        assert_eq!(
            a.body_text(),
            "ok\n",
            "responses must arrive in request order"
        );
        assert!(
            b.body_text().contains("\"total_matches\":"),
            "second response is the query's: {:?}",
            b.body_text()
        );
        drop(pipe);

        // 3. Half-closed write side: pipeline two requests, shut down
        // the write half, and both buffered requests are still served
        // (half-close means "no more requests", not "hang up").
        let mut half = client::Conn::connect(addr).expect("half-close connect");
        half.send("GET", "/healthz", None).expect("half-close #1");
        half.send("GET", "/healthz", None).expect("half-close #2");
        half.shutdown_write().expect("half-close the write side");
        let h1 = half.read_one().expect("response #1 after half-close");
        let h2 = half.read_one().expect("response #2 after half-close");
        assert_eq!((h1.status, h2.status), (200, 200));
        assert!(
            half.at_eof().expect("clean close after half-close drain"),
            "the server closes once the half-closed connection is drained"
        );

        // 4. Idle timeout: a keep-alive connection parked between
        // requests is closed by the idle deadline, not left forever.
        let mut idle = client::Conn::connect(addr).expect("idle connect");
        idle.send("GET", "/healthz", None).expect("idle send");
        assert_eq!(idle.read_one().expect("idle response").status, 200);
        std::thread::sleep(Duration::from_millis(900));
        assert!(
            idle.at_eof().expect("idle close is a clean FIN"),
            "the idle deadline must close a parked keep-alive connection"
        );

        let stats = handle.stats();
        assert_eq!(stats.panics, 0);
        assert_eq!(stats.rejected, 0, "every conversation here is well-formed");
        assert_eq!(stats.requests, 7, "2 + 2 + 2 + 1 requests were routed");
        assert_eq!(
            stats.keepalive_reuses, 3,
            "one reuse each on the keep-alive, pipelined, and half-closed sockets"
        );
        assert_eq!(stats.health_checks, 6);
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.idle_closes, 1, "only the parked connection idles out");

        handle.shutdown();
    });
}

/// Leftover partial pipelined bytes after a completed response must not
/// park the connection deadline-free: the read deadline answers `408`
/// so a client that goes silent mid-pipeline cannot hold its admission
/// slot forever.
#[test]
fn partial_pipelined_request_hits_the_read_timeout() {
    let registry = EngineRegistry::single_tenant(LotusX::load_str(DOC).unwrap());
    let server = Server::bind(hardened_config()).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();

    std::thread::scope(|scope| {
        scope.spawn(|| server.run(&registry));

        // One complete request plus the head of a second, in one write.
        let mut conn = client::Conn::connect(addr).expect("connect");
        conn.send_raw(b"GET /healthz HTTP/1.1\r\n\r\nGET /heal")
            .expect("pipelined partial");
        let first = conn.read_one().expect("first response");
        assert_eq!(first.status, 200);
        // The client now goes silent: the partial must be answered 408
        // by the read deadline, not parked without any deadline.
        let second = conn.read_one().expect("read-timeout response");
        assert_eq!(second.status, 408);
        assert!(conn.at_eof().expect("close after the 408"));

        let stats = handle.stats();
        assert_eq!(stats.panics, 0);
        assert_eq!(stats.read_timeouts, 1, "the leftover partial timed out");
        assert_eq!(stats.rejected, 1, "the 408 is the only rejection");
        assert_eq!(stats.requests, 1, "only the complete request routed");

        handle.shutdown();
    });
}

/// A drain that begins while a connection holds unparsed partial input
/// must close it (the request can never complete before shutdown)
/// instead of leaving `Server::run` waiting on a silent peer.
#[test]
fn drain_closes_connections_with_partial_input() {
    let registry = EngineRegistry::single_tenant(LotusX::load_str(DOC).unwrap());
    // Deliberately long read timeout: the drain itself — not a
    // deadline — has to reap the partial connection.
    let server = Server::bind(ServeConfig {
        read_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();

    std::thread::scope(|scope| {
        scope.spawn(|| server.run(&registry));

        let mut conn = client::Conn::connect(addr).expect("connect");
        conn.send_raw(b"GET /healthz HTTP/1.1\r\n\r\nGET /heal")
            .expect("pipelined partial");
        assert_eq!(conn.read_one().expect("response").status, 200);

        handle.shutdown();
        assert!(
            conn.at_eof()
                .expect("drain must FIN the partial connection"),
            "a connection holding a partial request is closed by drain"
        );
        // The scope join below hangs (and fails the test harness) if
        // the event loop never finishes draining.
    });
}

/// A peer that half-closes while its query is still computing leaves
/// the connection with read interest off; hangup-style readiness must
/// not level-trigger the loop into a 100% CPU spin while the worker
/// finishes. `loop_wakeups` is the spin detector: a busy loop racks up
/// tens of thousands of wakeups in the measurement window.
#[test]
fn half_close_during_compute_does_not_spin_the_loop() {
    let registry =
        EngineRegistry::single_tenant(LotusX::load_document(generate(Dataset::TreebankLike, 2, 7)));
    let server = Server::bind(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();

    std::thread::scope(|scope| {
        scope.spawn(|| server.run(&registry));

        // A deliberately expensive query (budget-bounded), then FIN the
        // write side so the loop records peer EOF and parks the read.
        let query = "{\"text\":\"//s//np//np//nn\",\"algorithm\":\"naive\",\
                     \"top_k\":9000,\"budget\":{\"nodes\":500000000}}";
        let mut conn = client::Conn::connect(addr).expect("connect");
        conn.send("POST", "/query", Some(query.as_bytes()))
            .expect("send query");
        conn.shutdown_write().expect("half-close the write side");
        std::thread::sleep(Duration::from_millis(400));
        let wakeups = handle.stats().loop_wakeups;

        // Cancelling via shutdown bounds the query regardless of corpus
        // speed (and lets the scope join even if an assert below
        // fails); the half-closed peer still gets its (possibly
        // truncated) response before the connection closes.
        handle.shutdown();
        let response = conn.read_one().expect("response after half-close");
        assert_eq!(response.status, 200);
        assert!(conn.at_eof().expect("clean close after the response"));
        assert!(
            wakeups < 5_000,
            "event loop spun on the half-closed connection: {wakeups} wakeups in 400ms"
        );
    });
}

#[test]
fn admission_gate_answers_429_exactly_at_capacity() {
    let registry = EngineRegistry::single_tenant(LotusX::load_str(DOC).unwrap());
    let config = ServeConfig {
        threads: 1,
        max_inflight: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();

    std::thread::scope(|scope| {
        scope.spawn(|| server.run(&registry));

        // Occupy the single slot: connect and send only part of a
        // request, so the worker sits in read() holding the slot.
        let mut occupier = std::net::TcpStream::connect(addr).expect("occupier connects");
        occupier
            .write_all(b"GET /healthz HTTP/1.1\r\n")
            .expect("partial write");
        occupier.flush().unwrap();
        // Give the accept loop (5ms poll) ample time to admit it.
        std::thread::sleep(Duration::from_millis(150));

        // The next connection must be turned away at the door.
        let turned_away = client::get(addr, "/healthz").expect("rejected roundtrip");
        assert_eq!(turned_away.status, 429);

        // Finish the occupier's request: it was admitted, so it gets
        // served normally — admission control never cancels admitted work.
        occupier.write_all(b"\r\n").expect("finish request");
        occupier.flush().unwrap();
        let response = client::read_response(&mut occupier).expect("occupier response");
        assert_eq!(response.status, 200);

        // The worker releases the slot just after writing the response;
        // wait out that sliver so the next request cannot race a 429.
        std::thread::sleep(Duration::from_millis(150));

        // With the slot free again, requests flow.
        let ok = client::get(addr, "/healthz").expect("healthz after release");
        assert_eq!(ok.status, 200);

        let stats = handle.stats();
        assert_eq!(stats.rejected, 1, "exactly one 429");
        assert_eq!(stats.panics, 0);
        assert_eq!(stats.health_checks, 2);

        handle.shutdown();
    });
}
