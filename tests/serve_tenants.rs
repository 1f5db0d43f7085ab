//! End-to-end tests for the registry-backed (multi-tenant) server: one
//! process hosting `@dblp:2` and `@treebank:2`, requests routed by the
//! declarative rule table.
//!
//! The core guarantees proven here, each on real sockets:
//!
//! * **byte identity** — a query routed through `/t/<tenant>/...` (or a
//!   routing header) returns exactly the bytes a single-tenant server
//!   of the same corpus returns for the same body;
//! * **counter isolation** — `/stats` and `/metrics` carry per-tenant
//!   counters that reconcile exactly, and traffic to tenant A never
//!   moves tenant B's counters;
//! * **tenant default budgets** — a tenant-configured node budget
//!   truncates queries that set none, while explicit wire budgets win;
//! * **hot reload** — `POST /admin/routes` swaps the rule table without
//!   a restart and rejects bad payloads with the typed route error, on a
//!   one-tenant server as on a registry;
//! * **server scope** — health, stats, metrics and shutdown answer for
//!   the process even behind `/t/<tenant>`: never charged to the tenant,
//!   never refused by its quota.

use lotusx::{parse_rules, CorpusSource, EngineRegistry, LotusX, TenantLimits};
use lotusx_datagen::{generate, Dataset};
use lotusx_obs::{parse_json, JsonValue};
use lotusx_serve::{client, ServeConfig, Server, ServerHandle};
use std::net::SocketAddr;
use std::str::FromStr;

fn open_engine(source: &str) -> LotusX {
    LotusX::open(&CorpusSource::from_str(source).expect("corpus source"))
        .unwrap_or_else(|e| panic!("open {source}: {e}"))
}

/// Runs `body` against a freshly bound server.
fn with_registry<T: Send>(
    registry: &EngineRegistry,
    body: impl FnOnce(SocketAddr, &ServerHandle) -> T + Send,
) -> T {
    let server = Server::bind(ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        scope.spawn(|| server.run(registry));
        let _stop = StopOnDrop(&handle);
        body(addr, &handle)
    })
}

/// Stops the server when dropped: a failed assertion in a test body
/// unwinds into a stopped server, not a scope that never joins.
struct StopOnDrop<'a>(&'a ServerHandle);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// The one rule: `/t/<tenant>/…` names the tenant.
const FROM_PATH: &str = r#"[{"when": {"path_prefix": "/t/"}, "tenant": {"from_path": true}}]"#;

/// The standard two-tenant registry: `@dblp:2` and
/// `@treebank:2`, `/t/<tenant>/...` path routing plus a routing header.
/// Unlimited limits — byte identity only holds with no default budgets.
fn dblp_treebank_registry() -> EngineRegistry {
    let rules = parse_rules(
        r#"[{"when": {"path_prefix": "/t/"}, "tenant": {"from_path": true}},
            {"when": {"header_prefix": {"name": "x-lotusx-tenant", "value": ""}},
             "tenant": {"from_header": "x-lotusx-tenant"}}]"#,
        &["dblp", "treebank"],
    )
    .expect("rules parse");
    EngineRegistry::from_parts(
        vec![
            (
                "dblp".into(),
                open_engine("@dblp:2"),
                TenantLimits::unlimited(),
            ),
            (
                "treebank".into(),
                open_engine("@treebank:2"),
                TenantLimits::unlimited(),
            ),
        ],
        rules,
    )
    .expect("registry builds")
}

/// One keep-alive request with an extra header (the plain client API
/// has no header hook; the wire format is simple enough to hand-roll).
fn post_with_header(
    addr: SocketAddr,
    path: &str,
    header: (&str, &str),
    body: &str,
) -> client::Response {
    let mut conn = client::Conn::connect(addr).expect("connect");
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: lotusx\r\n{}: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        header.0,
        header.1,
        body.len(),
    );
    conn.send_raw(request.as_bytes()).expect("send");
    conn.read_one().expect("response")
}

/// Looks up one tenant's counter in the `/stats` tenants section.
fn tenant_count(stats: &JsonValue, tenant: &str, key: &str) -> u64 {
    stats
        .get("tenants")
        .and_then(|t| t.get(tenant))
        .and_then(|t| t.get(key))
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("tenants.{tenant}.{key} missing")) as u64
}

/// Reads a labelled sample (`name{tenant="t"} v`) from an exposition body.
fn labelled_metric(body: &str, name: &str, tenant: &str) -> f64 {
    let sample = format!("{name}{{tenant=\"{tenant}\"}}");
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some(sample.as_str())).then(|| it.next().unwrap().parse().unwrap())
        })
        .unwrap_or_else(|| panic!("sample {sample} missing from exposition"))
}

#[test]
fn tenant_responses_byte_identical_to_single_tenant_servers() {
    let registry = dblp_treebank_registry();

    let dblp_bodies = [
        "{\"text\":\"//article/title\",\"top_k\":5}",
        "{\"text\":\"//inproceedings//author\",\"top_k\":3}",
        "{\"text\":\"//article[author]/title\",\"algorithm\":\"structural-join\",\"top_k\":7}",
    ];
    let treebank_bodies = [
        "{\"text\":\"//s/np\",\"top_k\":4}",
        "{\"text\":\"//s//nn\"}",
    ];
    let complete_body = "{\"prefix\":\"a\"}";

    // Ground truth: single-tenant servers over engines opened from the
    // SAME corpus source strings (generation is deterministic).
    let dblp_single = EngineRegistry::single_tenant(open_engine("@dblp:2"));
    let dblp_expected: Vec<Vec<u8>> = with_registry(&dblp_single, |addr, _| {
        dblp_bodies
            .iter()
            .map(|b| {
                let r = client::post(addr, "/query", b).expect("single query");
                assert_eq!(r.status, 200);
                r.body
            })
            .collect()
    });
    let dblp_complete_expected = with_registry(&dblp_single, |addr, _| {
        let r = client::post(addr, "/complete", complete_body).expect("single complete");
        assert_eq!(r.status, 200);
        r.body
    });
    let treebank_single = EngineRegistry::single_tenant(open_engine("@treebank:2"));
    let treebank_expected: Vec<Vec<u8>> = with_registry(&treebank_single, |addr, _| {
        treebank_bodies
            .iter()
            .map(|b| {
                let r = client::post(addr, "/query", b).expect("single query");
                assert_eq!(r.status, 200);
                r.body
            })
            .collect()
    });

    with_registry(&registry, |addr, handle| {
        // Path-routed: /t/<tenant>/query, byte-for-byte.
        for (body, want) in dblp_bodies.iter().zip(&dblp_expected) {
            let r = client::post(addr, "/t/dblp/query", body).expect("registry query");
            assert_eq!(r.status, 200, "body {body}");
            assert_eq!(&r.body, want, "dblp bytes must match single-tenant server");
        }
        for (body, want) in treebank_bodies.iter().zip(&treebank_expected) {
            let r = client::post(addr, "/t/treebank/query", body).expect("registry query");
            assert_eq!(r.status, 200, "body {body}");
            assert_eq!(
                &r.body, want,
                "treebank bytes must match single-tenant server"
            );
        }
        // Header-routed: same bytes without the path prefix.
        let r = post_with_header(
            addr,
            "/query",
            ("x-lotusx-tenant", "treebank"),
            treebank_bodies[0],
        );
        assert_eq!(r.status, 200);
        assert_eq!(&r.body, &treebank_expected[0]);
        // Completion endpoints route the same way.
        let r = client::post(addr, "/t/dblp/complete", complete_body).expect("registry complete");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, dblp_complete_expected);

        let stats = handle.stats();
        assert_eq!(stats.panics, 0);
        assert_eq!(
            stats.queries,
            (dblp_bodies.len() + treebank_bodies.len() + 1) as u64
        );
    });
}

#[test]
fn per_tenant_counters_reconcile_and_isolate() {
    let registry = dblp_treebank_registry();
    with_registry(&registry, |addr, handle| {
        // Phase A: dblp-only traffic — 3 queries, 1 completion.
        for _ in 0..3 {
            let r = client::post(addr, "/t/dblp/query", "{\"text\":\"//article/title\"}")
                .expect("query");
            assert_eq!(r.status, 200);
        }
        let r = client::post(addr, "/t/dblp/complete", "{\"prefix\":\"t\"}").expect("complete");
        assert_eq!(r.status, 200);

        let snap1 = parse_json(&client::get(addr, "/stats").expect("stats").body_text())
            .expect("stats JSON");
        assert_eq!(tenant_count(&snap1, "dblp", "requests"), 4);
        assert_eq!(tenant_count(&snap1, "dblp", "queries"), 3);
        assert_eq!(tenant_count(&snap1, "dblp", "completions"), 1);
        // Tenant B untouched: every counter still zero.
        for key in [
            "requests",
            "queries",
            "completions",
            "rejected",
            "quota_rejects",
            "truncated_responses",
            "inflight",
            "max_inflight_seen",
        ] {
            assert_eq!(
                tenant_count(&snap1, "treebank", key),
                0,
                "treebank.{key} moved by dblp traffic"
            );
        }

        // Phase B: treebank traffic, one malformed request (a tenant
        // reject), and one unknown tenant (a server-scoped 404).
        for _ in 0..2 {
            let r =
                client::post(addr, "/t/treebank/query", "{\"text\":\"//s/np\"}").expect("query");
            assert_eq!(r.status, 200);
        }
        let bad = client::post(addr, "/t/treebank/query", "{\"oops\":true}").expect("bad body");
        assert_eq!(bad.status, 400);
        let ghost = client::post(addr, "/t/ghost/query", "{\"text\":\"//x\"}").expect("ghost");
        assert_eq!(ghost.status, 404);
        assert!(
            ghost.body_text().contains("unknown_tenant"),
            "404 body: {}",
            ghost.body_text()
        );

        let snap2 = parse_json(&client::get(addr, "/stats").expect("stats").body_text())
            .expect("stats JSON");
        // Tenant A's ledger is EXACTLY what phase A left: B's traffic,
        // the reject, the unknown tenant and the /stats scrapes moved
        // nothing.
        for key in [
            "requests",
            "queries",
            "completions",
            "rejected",
            "quota_rejects",
            "truncated_responses",
        ] {
            assert_eq!(
                tenant_count(&snap2, "dblp", key),
                tenant_count(&snap1, "dblp", key),
                "dblp.{key} moved by non-dblp traffic"
            );
        }
        assert_eq!(tenant_count(&snap2, "treebank", "requests"), 3);
        assert_eq!(tenant_count(&snap2, "treebank", "queries"), 2);
        assert_eq!(tenant_count(&snap2, "treebank", "rejected"), 1);
        // The ghost request charged the server, not any tenant.
        let server_count = |k: &str| {
            snap2
                .get("server")
                .and_then(|s| s.get(k))
                .and_then(|v| v.as_f64())
                .unwrap() as u64
        };
        assert_eq!(server_count("unknown_tenant_rejects"), 1);
        assert_eq!(server_count("tenant_quota_rejects"), 0);

        // /metrics carries the same ledger with tenant labels.
        let scrape = client::get(addr, "/metrics").expect("metrics").body_text();
        assert_eq!(
            labelled_metric(&scrape, "lotusx_tenant_requests_total", "dblp"),
            4.0
        );
        assert_eq!(
            labelled_metric(&scrape, "lotusx_tenant_requests_total", "treebank"),
            3.0
        );
        assert_eq!(
            labelled_metric(&scrape, "lotusx_tenant_queries_total", "treebank"),
            2.0
        );
        assert_eq!(
            labelled_metric(&scrape, "lotusx_tenant_rejected_total", "treebank"),
            1.0
        );
        assert_eq!(
            labelled_metric(&scrape, "lotusx_tenant_quota_rejects_total", "dblp"),
            0.0
        );
        // One HELP/TYPE header per family even with two tenants.
        assert_eq!(
            scrape
                .lines()
                .filter(|l| *l == "# TYPE lotusx_tenant_requests_total counter")
                .count(),
            1
        );

        // The handle's snapshot agrees with the wire.
        let tenants = handle.tenant_stats();
        let (_, dblp) = tenants.iter().find(|(name, _)| name == "dblp").unwrap();
        assert_eq!(dblp.requests, 4);
        assert_eq!(dblp.queries, 3);
        assert_eq!(handle.stats().unknown_tenant_rejects, 1);
    });
}

#[test]
fn tenant_default_budgets_apply_only_when_wire_sets_none() {
    // Two tenants over the same corpus: one with a 1-node default
    // budget, one unlimited. The budgeted tenant truncates queries
    // that set no budget; an explicit wire budget overrides it.
    let starved = TenantLimits {
        default_node_quota: Some(1),
        ..TenantLimits::unlimited()
    };
    let registry = EngineRegistry::from_parts(
        vec![
            (
                "tiny".into(),
                LotusX::load_document(generate(Dataset::XmarkLike, 1, 42)),
                starved,
            ),
            (
                "free".into(),
                LotusX::load_document(generate(Dataset::XmarkLike, 1, 42)),
                TenantLimits::unlimited(),
            ),
        ],
        parse_rules(FROM_PATH, &["tiny", "free"]).unwrap(),
    )
    .unwrap();

    with_registry(&registry, |addr, _handle| {
        let body = "{\"text\":\"//item//keyword\",\"algorithm\":\"naive\"}";
        let r = client::post(addr, "/t/tiny/query", body).expect("budgeted query");
        assert_eq!(r.status, 200);
        let doc = parse_json(&r.body_text()).unwrap();
        assert_eq!(
            doc.get("completeness").and_then(|v| v.as_str()),
            Some("truncated"),
            "tenant default node budget must truncate"
        );

        let r = client::post(addr, "/t/free/query", body).expect("unbudgeted query");
        assert_eq!(r.status, 200);
        let doc = parse_json(&r.body_text()).unwrap();
        assert_eq!(
            doc.get("completeness").and_then(|v| v.as_str()),
            Some("complete"),
            "unlimited tenant runs the same query to completion"
        );

        // An explicit wire budget beats the tenant default.
        let body = "{\"text\":\"//item//keyword\",\"algorithm\":\"naive\",\
                    \"budget\":{\"nodes\":100000000}}";
        let r = client::post(addr, "/t/tiny/query", body).expect("explicit budget");
        assert_eq!(r.status, 200);
        let doc = parse_json(&r.body_text()).unwrap();
        assert_eq!(
            doc.get("completeness").and_then(|v| v.as_str()),
            Some("complete"),
            "explicit wire budgets win over tenant defaults"
        );

        // The truncation is on the tenant's ledger.
        let stats = parse_json(&client::get(addr, "/stats").expect("stats").body_text()).unwrap();
        assert_eq!(tenant_count(&stats, "tiny", "truncated_responses"), 1);
        assert_eq!(tenant_count(&stats, "free", "truncated_responses"), 0);
    });
}

#[test]
fn admin_routes_hot_reload_end_to_end() {
    let registry = dblp_treebank_registry();
    with_registry(&registry, |addr, _handle| {
        // Before the reload, bare /query matches the header rule only
        // when the header is present; with neither prefix nor header it
        // is the documented 404.
        let r = client::post(addr, "/query", "{\"text\":\"//article/title\"}").expect("query");
        assert_eq!(r.status, 404);
        assert!(r.body_text().contains("unknown_tenant"));

        // Reroute everything to treebank, no restart.
        let reload = client::post(
            addr,
            "/admin/routes",
            r#"[{"when": {"always": true}, "tenant": "treebank"}]"#,
        )
        .expect("reload");
        assert_eq!(reload.status, 200, "body: {}", reload.body_text());
        assert_eq!(reload.body_text(), "{\"rules\":1}\n");

        let r = client::post(addr, "/query", "{\"text\":\"//s/np\"}").expect("rerouted query");
        assert_eq!(r.status, 200);
        let doc = parse_json(&r.body_text()).unwrap();
        assert!(
            doc.get("total_matches").and_then(|v| v.as_f64()).unwrap() > 0.0,
            "treebank corpus answers //s/np"
        );

        // A reload naming an unhosted tenant is a 400 carrying the
        // typed route error — and the installed table stays live.
        let bad = client::post(
            addr,
            "/admin/routes",
            r#"[{"when": {"always": true}, "tenant": "ghost"}]"#,
        )
        .expect("bad reload");
        assert_eq!(bad.status, 400);
        assert!(
            bad.body_text().contains("unknown_tenant") && bad.body_text().contains("at byte"),
            "typed error on the wire: {}",
            bad.body_text()
        );
        // Malformed JSON is a typed syntax error, same shape.
        let bad = client::post(addr, "/admin/routes", "[{").expect("syntax reload");
        assert_eq!(bad.status, 400);
        assert!(bad.body_text().contains("syntax"), "{}", bad.body_text());

        let r = client::post(addr, "/query", "{\"text\":\"//s/np\"}").expect("table retained");
        assert_eq!(r.status, 200);

        // Method discipline matches the rest of the API.
        let r = client::get(addr, "/admin/routes").expect("GET admin");
        assert_eq!(r.status, 405);
    });

    // A single corpus is the one-tenant registry: the endpoint is there
    // too, and takes rules naming its `default` tenant.
    let single = EngineRegistry::single_tenant(open_engine("<r><x>y</x></r>"));
    with_registry(&single, |addr, _| {
        let rules = r#"[{"when": {"always": true}, "tenant": "default"}]"#;
        let r = client::post(addr, "/admin/routes", rules).expect("single-corpus admin");
        assert_eq!((r.status, r.body_text().as_str()), (200, "{\"rules\":1}\n"));
    });
}

/// Server scope is decided once, on the path routing produced: behind
/// `/t/<tenant>` the process endpoints are still the process's. With
/// the tenant at its quota (zero: always full) they answer 200, and its
/// ledger stays still.
#[test]
fn server_endpoints_behind_a_tenant_prefix_are_never_charged_or_refused() {
    let full = TenantLimits {
        max_inflight: Some(0),
        ..TenantLimits::unlimited()
    };
    let registry = EngineRegistry::from_parts(
        vec![("alpha".into(), open_engine("<r><x>y</x></r>"), full)],
        parse_rules(FROM_PATH, &["alpha"]).unwrap(),
    )
    .unwrap();
    with_registry(&registry, |addr, handle| {
        let refused = client::post(addr, "/t/alpha/query", "{\"text\":\"//x\"}").expect("query");
        assert_eq!(refused.status, 429, "{}", refused.body_text());
        for path in ["/t/alpha/stats", "/t/alpha/healthz", "/t/alpha/metrics"] {
            let r = client::get(addr, path).expect("server endpoint");
            assert_eq!(r.status, 200, "{path}: {}", r.body_text());
        }
        let stats = parse_json(
            &client::get(addr, "/t/alpha/stats")
                .expect("stats")
                .body_text(),
        )
        .expect("stats JSON");
        assert_eq!(tenant_count(&stats, "alpha", "requests"), 0);
        assert_eq!(
            tenant_count(&stats, "alpha", "quota_rejects"),
            1,
            "only the query"
        );
        let r = client::post(addr, "/t/alpha/shutdown", "{}").expect("shutdown");
        assert_eq!(r.status, 200);
        let alpha = handle.tenant_stats()[0].1;
        assert_eq!((alpha.requests, alpha.quota_rejects), (0, 1));
        assert_eq!(handle.stats().tenant_quota_rejects, 1);
    });
}
