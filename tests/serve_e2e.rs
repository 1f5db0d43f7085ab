//! End-to-end tests for the serving layer: a real server on an
//! ephemeral loopback port, concurrent clients on real sockets, and
//! responses checked byte-for-byte against the in-process engine.

use lotusx::{Algorithm, EngineRegistry, LotusX};
use lotusx_datagen::{generate, Dataset};
use lotusx_obs::parse_json;
use lotusx_serve::{client, wire, ServeConfig, Server};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};

fn xmark_engine() -> LotusX {
    LotusX::load_document(generate(Dataset::XmarkLike, 1, 42))
}

/// Runs `body` against a freshly bound server and shuts it down after.
fn with_server<T: Send>(
    registry: &EngineRegistry,
    config: ServeConfig,
    body: impl FnOnce(SocketAddr, &lotusx_serve::ServerHandle) -> T + Send,
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

/// The expected response bytes for a wire-level body: decode it exactly
/// as the server does, run it on the same engine, encode it the same
/// way. Determinism of the encoder makes byte equality meaningful.
fn expected_bytes(engine: &LotusX, body: &str) -> String {
    let request = wire::decode_query(&parse_json(body).unwrap()).expect("valid body");
    wire::encode_response(&engine.query(&request).expect("query runs"))
}

#[test]
fn queries_byte_identical_across_algorithms_under_concurrency() {
    let registry = EngineRegistry::single_tenant(xmark_engine());
    let engine = registry.tenants()[0].engine();

    // Every algorithm, twig and keyword kinds, varying top_k.
    let mut bodies: Vec<String> = Algorithm::ALL
        .iter()
        .chain([&Algorithm::Auto])
        .map(|a| {
            format!(
                "{{\"text\":\"//item/name\",\"algorithm\":\"{}\",\"top_k\":7}}",
                a.name()
            )
        })
        .collect();
    bodies.push("{\"text\":\"//person//emailaddress\"}".to_string());
    bodies.push("{\"text\":\"//open_auction//bidder\",\"top_k\":3}".to_string());
    bodies.push("{\"text\":\"gold keyword\",\"kind\":\"keyword\",\"top_k\":5}".to_string());

    let expected: Vec<String> = bodies.iter().map(|b| expected_bytes(engine, b)).collect();

    let mismatches = AtomicUsize::new(0);
    let served = AtomicUsize::new(0);
    with_server(&registry, ServeConfig::default(), |addr, handle| {
        std::thread::scope(|scope| {
            // The issue demands ≥8 concurrent client threads; use 10.
            for t in 0..10 {
                let bodies = &bodies;
                let expected = &expected;
                let mismatches = &mismatches;
                let served = &served;
                scope.spawn(move || {
                    for round in 0..3 {
                        // Stagger the order per thread so different
                        // algorithms overlap on the wire.
                        for i in 0..bodies.len() {
                            let i = (i + t + round) % bodies.len();
                            let response =
                                client::post(addr, "/query", &bodies[i]).expect("query roundtrip");
                            assert_eq!(response.status, 200, "body {}", bodies[i]);
                            if response.body != expected[i].as_bytes() {
                                mismatches.fetch_add(1, Ordering::Relaxed);
                            }
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let stats = handle.stats();
        assert_eq!(stats.panics, 0);
        assert_eq!(stats.queries, served.load(Ordering::Relaxed) as u64);
    });
    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "socket responses must be byte-identical to in-process encoding"
    );
    assert_eq!(served.load(Ordering::Relaxed), 10 * 3 * bodies.len());
}

#[test]
fn completions_match_in_process_results() {
    let registry = EngineRegistry::single_tenant(xmark_engine());
    let engine = registry.tenants()[0].engine();
    with_server(&registry, ServeConfig::default(), |addr, handle| {
        // Position-aware tag completion: what can sit under //item?
        let body = r#"{"kind":"tag","prefix":"n","context":{"steps":[{"tag":"item","axis":"descendant"}],"axis":"child"}}"#;
        let response = client::post(addr, "/complete", body).expect("complete roundtrip");
        assert_eq!(response.status, 200);
        let completion = engine.completion_engine();
        let context = lotusx::PositionContext {
            steps: vec![lotusx::ContextStep {
                tag: Some("item".to_string()),
                axis: lotusx::Axis::Descendant,
            }],
            axis_to_focus: lotusx::Axis::Child,
        };
        let expected = wire::encode_tag_candidates(&completion.complete_tag(&context, "n", 10));
        assert_eq!(response.body_text(), expected);
        let parsed = parse_json(&response.body_text()).unwrap();
        let candidates = parsed.get("candidates").and_then(|v| v.as_arr()).unwrap();
        assert!(
            candidates
                .iter()
                .any(|c| c.get("term").and_then(|t| t.as_str()) == Some("name")),
            "completion under //item with prefix 'n' must offer 'name'"
        );

        // Value completion under a tag.
        let body = r#"{"kind":"value","tag":"emailaddress","prefix":"","k":5}"#;
        let response = client::post(addr, "/complete", body).expect("value roundtrip");
        assert_eq!(response.status, 200);
        let expected =
            wire::encode_value_candidates(&completion.complete_value("emailaddress", "", 5));
        assert_eq!(response.body_text(), expected);

        assert_eq!(handle.stats().completions, 2);
        assert_eq!(handle.stats().panics, 0);
    });
}

#[test]
fn healthz_and_stats_reconcile() {
    let registry = EngineRegistry::single_tenant(xmark_engine());
    with_server(&registry, ServeConfig::default(), |addr, handle| {
        let health = client::get(addr, "/healthz").expect("healthz");
        assert_eq!(health.status, 200);
        assert_eq!(health.body_text(), "ok\n");

        for _ in 0..4 {
            let r = client::post(addr, "/query", "{\"text\":\"//person/name\",\"top_k\":2}")
                .expect("query");
            assert_eq!(r.status, 200);
        }
        let r = client::post(addr, "/complete", "{\"prefix\":\"i\"}").expect("complete");
        assert_eq!(r.status, 200);
        let bad = client::post(addr, "/query", "{\"oops\":true}").expect("bad query");
        assert_eq!(bad.status, 400);

        let stats = client::get(addr, "/stats").expect("stats");
        assert_eq!(stats.status, 200);
        assert_eq!(stats.header("content-type"), Some("application/json"));
        let doc = parse_json(&stats.body_text()).expect("stats body is valid JSON");

        // The server section reconciles with what this test did. The
        // /stats request itself is counted in `requests` (it parsed and
        // routed) but its `stats_requests` increment happens before the
        // snapshot, so it sees itself.
        let server = doc.get("server").expect("server section");
        let count = |k: &str| server.get(k).and_then(|v| v.as_f64()).unwrap() as u64;
        assert_eq!(count("requests"), 1 + 4 + 1 + 1 + 1); // health+4 queries+complete+bad+stats
        assert_eq!(count("queries"), 4);
        assert_eq!(count("completions"), 1);
        assert_eq!(count("health_checks"), 1);
        assert_eq!(count("stats_requests"), 1);
        assert_eq!(count("rejected"), 1);
        assert_eq!(count("panics"), 0);

        // And it matches the handle's own snapshot for the stable part.
        let snap = handle.stats();
        assert_eq!(snap.queries, 4);
        assert_eq!(snap.rejected, 1);

        // The metrics section is the full obs snapshot: exactly the
        // schema keys the rest of the tooling relies on.
        let metrics = doc.get("metrics").and_then(|m| m.as_obj());
        let keys: Vec<&str> = metrics
            .expect("metrics section")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["stages", "counters"]);
    });
}

#[test]
fn metrics_reconcile_exactly_with_stats() {
    // One keep-alive connection: queries, a /metrics scrape, /stats,
    // and a second scrape. The Prometheus counters must reconcile
    // EXACTLY against the JSON counters — both endpoints render the
    // same `ServerStats`, and each scrape counts itself before it
    // renders, so every step below has one provable right answer.
    let registry = EngineRegistry::single_tenant(xmark_engine());
    with_server(&registry, ServeConfig::default(), |addr, _handle| {
        // A sample's first token is the full metric name; match it
        // exactly so e.g. `..._requests_total` never shadows
        // `..._metrics_requests_total`.
        fn metric(body: &str, name: &str) -> f64 {
            body.lines()
                .filter(|l| !l.starts_with('#'))
                .find_map(|l| {
                    let mut it = l.split_whitespace();
                    (it.next() == Some(name)).then(|| {
                        it.next()
                            .unwrap_or_else(|| panic!("metric {name} has no value"))
                            .parse::<f64>()
                            .unwrap_or_else(|e| panic!("metric {name}: {e}"))
                    })
                })
                .unwrap_or_else(|| panic!("metric {name} missing from exposition"))
        }

        let mut conn = client::Conn::connect(addr).expect("keep-alive connect");
        let body = "{\"text\":\"//person/name\",\"top_k\":2}";
        for _ in 0..3 {
            conn.send("POST", "/query", Some(body.as_bytes()))
                .expect("send query");
            assert_eq!(conn.read_one().expect("query response").status, 200);
        }

        conn.send("GET", "/metrics", None).expect("send scrape");
        let scrape1 = conn.read_one().expect("first scrape");
        assert_eq!(scrape1.status, 200);
        let ct = scrape1.header("content-type").expect("scrape content-type");
        assert!(
            ct.contains("text/plain") && ct.contains("version=0.0.4"),
            "exposition content-type: {ct}"
        );
        let scrape1 = scrape1.body_text();

        conn.send("GET", "/stats", None).expect("send stats");
        let stats = conn.read_one().expect("stats response");
        assert_eq!(stats.status, 200);
        let doc = parse_json(&stats.body_text()).expect("stats JSON");
        let server = doc.get("server").expect("server section");
        let count = |k: &str| server.get(k).and_then(|v| v.as_f64()).unwrap() as u64;

        conn.send("GET", "/metrics", None)
            .expect("send second scrape");
        let scrape2 = conn.read_one().expect("second scrape");
        assert_eq!(scrape2.status, 200);
        let scrape2 = scrape2.body_text();

        // Request ledger on this one connection: 3 queries, scrape 1,
        // /stats, scrape 2 — each snapshot sees itself.
        assert_eq!(metric(&scrape1, "lotusx_server_requests_total"), 4.0);
        assert_eq!(count("requests"), 5);
        assert_eq!(metric(&scrape2, "lotusx_server_requests_total"), 6.0);

        assert_eq!(metric(&scrape1, "lotusx_server_queries_total"), 3.0);
        assert_eq!(count("queries"), 3);
        assert_eq!(metric(&scrape2, "lotusx_server_queries_total"), 3.0);

        assert_eq!(
            metric(&scrape1, "lotusx_server_metrics_requests_total"),
            1.0
        );
        assert_eq!(count("metrics_requests"), 1);
        assert_eq!(
            metric(&scrape2, "lotusx_server_metrics_requests_total"),
            2.0
        );

        assert_eq!(metric(&scrape1, "lotusx_server_stats_requests_total"), 0.0);
        assert_eq!(count("stats_requests"), 1);
        assert_eq!(metric(&scrape2, "lotusx_server_stats_requests_total"), 1.0);

        // Connection-level: one socket, reused for every request after
        // the first; both views agree on the same ledger.
        assert_eq!(
            metric(&scrape1, "lotusx_server_connections_accepted_total"),
            1.0
        );
        assert_eq!(count("connections_accepted"), 1);
        assert_eq!(metric(&scrape1, "lotusx_server_connections_open"), 1.0);
        assert_eq!(
            metric(&scrape1, "lotusx_server_keepalive_reuses_total"),
            3.0
        );
        assert_eq!(count("keepalive_reuses"), 4);
        assert_eq!(
            metric(&scrape2, "lotusx_server_keepalive_reuses_total"),
            5.0
        );

        assert_eq!(metric(&scrape2, "lotusx_server_rejected_total"), 0.0);
        assert_eq!(metric(&scrape2, "lotusx_server_panics_total"), 0.0);
    });
}

#[test]
fn per_request_budget_and_deadline_round_trip() {
    let registry = EngineRegistry::single_tenant(xmark_engine());
    let engine = registry.tenants()[0].engine();
    with_server(&registry, ServeConfig::default(), |addr, _handle| {
        // A node-quota budget so small the query must truncate; the
        // response still parses and says so.
        let body =
            "{\"text\":\"//item//keyword\",\"budget\":{\"nodes\":1},\"algorithm\":\"naive\"}";
        let response = client::post(addr, "/query", body).expect("budgeted query");
        assert_eq!(response.status, 200);
        let doc = parse_json(&response.body_text()).unwrap();
        assert_eq!(
            doc.get("completeness").and_then(|v| v.as_str()),
            Some("truncated")
        );
        assert!(doc
            .get("truncation_reason")
            .and_then(|v| v.as_str())
            .is_some());

        // Byte-identity holds for budgeted requests too (truncation is
        // deterministic for a node quota on the same engine).
        assert_eq!(response.body_text(), expected_bytes(engine, body));
    });
}
