//! Table-driven tests for the declarative routing layer: predicate
//! trees (AND/OR/NOT nesting, prefix vs exact matchers, header vs path
//! tenant extraction), first-match-wins ordering, and the malformed-
//! config surface — every bad config must come back as a typed
//! [`RouteError`] pointing at the exact byte offset of the offending
//! construct.
//!
//! Resolution probes assert both sides of the contract documented in
//! DESIGN.md: a hit names the tenant (and the effective path the
//! tenant's handlers see), and a miss resolves to `None`, which the
//! serving layer turns into the documented 404 `unknown_tenant` reject
//! (proven on the wire in `serve_tenants.rs`).

use lotusx::{
    parse_rules, valid_tenant_name, RegistryConfig, RouteErrorKind, RouteTable, TenantSelector,
};
use std::time::Duration;

/// One resolution probe: a request shape and the expected outcome.
/// `want: None` is the miss side of the contract — the serving layer
/// maps it to 404 `unknown_tenant`.
struct Probe {
    path: &'static str,
    headers: &'static [(&'static str, &'static str)],
    /// `Some((tenant, effective_path))` on a hit, `None` on a miss.
    want: Option<(&'static str, &'static str)>,
}

struct Case {
    name: &'static str,
    /// A full registry config; rules are exercised via `RouteTable`.
    config: &'static str,
    probes: &'static [Probe],
}

const CASES: &[Case] = &[
    Case {
        name: "path_exact beats nothing, prefix-vs-exact are distinct matchers",
        config: r#"{"tenants": [{"name": "exact", "corpus": "<r/>"},
                                {"name": "prefix", "corpus": "<r/>"}],
                    "rules": [{"when": {"path_exact": "/query"}, "tenant": "exact"},
                              {"when": {"path_prefix": "/q"}, "tenant": "prefix"}]}"#,
        probes: &[
            Probe {
                path: "/query",
                headers: &[],
                want: Some(("exact", "/query")),
            },
            // A proper prefix of the exact rule's path: only the
            // prefix matcher fires.
            Probe {
                path: "/quer",
                headers: &[],
                want: Some(("prefix", "/quer")),
            },
            Probe {
                path: "/query2",
                headers: &[],
                want: Some(("prefix", "/query2")),
            },
            Probe {
                path: "/stats",
                headers: &[],
                want: None,
            },
        ],
    },
    Case {
        name: "from_path extraction strips the /t/<tenant> prefix",
        config: r#"{"tenants": [{"name": "alpha", "corpus": "<r/>"}],
                    "rules": [{"when": {"path_prefix": "/t/"},
                               "tenant": {"from_path": true}}]}"#,
        probes: &[
            Probe {
                path: "/t/alpha/query",
                headers: &[],
                want: Some(("alpha", "/query")),
            },
            // No trailing segment: the effective path defaults to "/".
            Probe {
                path: "/t/alpha",
                headers: &[],
                want: Some(("alpha", "/")),
            },
            // The table extracts syntactically; registration is the
            // registry's check, so unknown-but-valid names still parse.
            Probe {
                path: "/t/ghost/query",
                headers: &[],
                want: Some(("ghost", "/query")),
            },
            // Empty and illegal names fail extraction → miss, even
            // though the predicate matched.
            Probe {
                path: "/t//query",
                headers: &[],
                want: None,
            },
            Probe {
                path: "/t/bad!name/query",
                headers: &[],
                want: None,
            },
            Probe {
                path: "/query",
                headers: &[],
                want: None,
            },
        ],
    },
    Case {
        name: "header extraction: exact routes fixed, prefix extracts, names case-insensitive",
        config: r#"{"tenants": [{"name": "alpha", "corpus": "<r/>"},
                                {"name": "beta", "corpus": "<r/>"}],
                    "rules": [{"when": {"header_exact": {"name": "x-tenant",
                                                         "value": "alpha"}},
                               "tenant": "alpha"},
                              {"when": {"header_prefix": {"name": "x-tenant",
                                                          "value": "b"}},
                               "tenant": {"from_header": "x-tenant"}}]}"#,
        probes: &[
            // Header names match case-insensitively (HTTP semantics) in
            // the table itself: the probe hands them over as written.
            Probe {
                path: "/query",
                headers: &[("X-Tenant", "alpha")],
                want: Some(("alpha", "/query")),
            },
            // Prefix rule + from_header: the value itself is the name,
            // and the path is left untouched.
            Probe {
                path: "/query",
                headers: &[("X-TENANT", "beta")],
                want: Some(("beta", "/query")),
            },
            // Matching rule, but the extracted value is not a legal
            // tenant name → miss; the rule never falls through.
            Probe {
                path: "/query",
                headers: &[("x-tenant", "b!d")],
                want: None,
            },
            // Header values are case-sensitive: "Alpha" is not "alpha"
            // for the exact rule, but does satisfy no rule at all here.
            Probe {
                path: "/query",
                headers: &[("x-tenant", "Alpha")],
                want: None,
            },
            Probe {
                path: "/query",
                headers: &[],
                want: None,
            },
        ],
    },
    Case {
        name: "all/any/not nest and compose",
        config: r#"{"tenants": [{"name": "alpha", "corpus": "<r/>"},
                                {"name": "beta", "corpus": "<r/>"}],
                    "rules": [{"when": {"all": [
                                 {"path_prefix": "/api/"},
                                 {"not": {"header_exact": {"name": "x-env",
                                                           "value": "prod"}}},
                                 {"any": [
                                   {"header_exact": {"name": "x-tenant",
                                                     "value": "alpha"}},
                                   {"header_exact": {"name": "x-tenant",
                                                     "value": "beta"}}]}]},
                               "tenant": {"from_header": "x-tenant"}}]}"#,
        probes: &[
            Probe {
                path: "/api/query",
                headers: &[("x-tenant", "alpha")],
                want: Some(("alpha", "/api/query")),
            },
            Probe {
                path: "/api/query",
                headers: &[("x-tenant", "beta")],
                want: Some(("beta", "/api/query")),
            },
            // NOT arm: the prod header vetoes the whole conjunction.
            Probe {
                path: "/api/query",
                headers: &[("x-tenant", "alpha"), ("x-env", "prod")],
                want: None,
            },
            // ANY arm: a tenant outside the allow-list never matches.
            Probe {
                path: "/api/query",
                headers: &[("x-tenant", "gamma")],
                want: None,
            },
            // ALL arm: wrong path prefix.
            Probe {
                path: "/query",
                headers: &[("x-tenant", "alpha")],
                want: None,
            },
        ],
    },
    Case {
        name: "vacuous truth: empty all matches, empty any never does",
        config: r#"{"tenants": [{"name": "never", "corpus": "<r/>"},
                                {"name": "always", "corpus": "<r/>"}],
                    "rules": [{"when": {"any": []}, "tenant": "never"},
                              {"when": {"all": []}, "tenant": "always"}]}"#,
        probes: &[
            Probe {
                path: "/anything",
                headers: &[],
                want: Some(("always", "/anything")),
            },
            Probe {
                path: "/",
                headers: &[("x", "y")],
                want: Some(("always", "/")),
            },
        ],
    },
    Case {
        name: "first match wins: earlier rules shadow later ones",
        config: r#"{"tenants": [{"name": "first", "corpus": "<r/>"},
                                {"name": "second", "corpus": "<r/>"}],
                    "rules": [{"when": {"path_prefix": "/"}, "tenant": "first"},
                              {"when": {"always": true}, "tenant": "second"}]}"#,
        probes: &[
            Probe {
                path: "/query",
                headers: &[],
                want: Some(("first", "/query")),
            },
            Probe {
                path: "/t/second/query",
                headers: &[],
                want: Some(("first", "/t/second/query")),
            },
        ],
    },
    Case {
        name: "first match wins: swapped order flips every answer",
        config: r#"{"tenants": [{"name": "first", "corpus": "<r/>"},
                                {"name": "second", "corpus": "<r/>"}],
                    "rules": [{"when": {"always": true}, "tenant": "second"},
                              {"when": {"path_prefix": "/"}, "tenant": "first"}]}"#,
        probes: &[Probe {
            path: "/query",
            headers: &[],
            want: Some(("second", "/query")),
        }],
    },
    Case {
        name: "a matching rule decides: failed extraction never falls through",
        config: r#"{"tenants": [{"name": "fallback", "corpus": "<r/>"}],
                    "rules": [{"when": {"path_prefix": "/t/"},
                               "tenant": {"from_path": true}},
                              {"when": {"path_prefix": "/h/"},
                               "tenant": {"from_header": "x-tenant"}},
                              {"when": {"always": true}, "tenant": "fallback"}]}"#,
        probes: &[
            // The catch-all WOULD route this, but the /t/ rule already
            // matched and its extraction failed → miss, not fallback.
            Probe {
                path: "/t/bad!name/query",
                headers: &[],
                want: None,
            },
            // Likewise a selector whose header is absent.
            Probe {
                path: "/h/query",
                headers: &[],
                want: None,
            },
            Probe {
                path: "/query",
                headers: &[],
                want: Some(("fallback", "/query")),
            },
        ],
    },
];

#[test]
fn predicate_tables_resolve_as_documented() {
    for case in CASES {
        let config = RegistryConfig::parse(case.config)
            .unwrap_or_else(|e| panic!("case {:?}: config must parse: {e}", case.name));
        let table = RouteTable::new(config.rules);
        for (i, probe) in case.probes.iter().enumerate() {
            let headers: Vec<(String, String)> = probe
                .headers
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect();
            let got = table.resolve(probe.path, &headers);
            match (&got, &probe.want) {
                (Some(m), Some((tenant, path))) => {
                    assert_eq!(
                        (m.tenant.as_str(), m.path.as_str()),
                        (*tenant, *path),
                        "case {:?} probe {i} ({})",
                        case.name,
                        probe.path
                    );
                }
                (None, None) => {} // documented 404 unknown_tenant
                _ => panic!(
                    "case {:?} probe {i} ({}): got {got:?}, want {:?}",
                    case.name, probe.path, probe.want
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Malformed configs → typed errors with byte offsets
// ---------------------------------------------------------------------

/// One malformed config. The expected byte offset is located by
/// substring (`at`), so the assertions survive reformatting; `at: ""`
/// means offset 0 (the document itself).
struct BadCase {
    name: &'static str,
    config: &'static str,
    kind: RouteErrorKind,
    /// First occurrence of this substring = expected error offset.
    at: &'static str,
    /// Required substring of the error message.
    msg: &'static str,
}

const BAD_CASES: &[BadCase] = &[
    BadCase {
        name: "trailing garbage after the document",
        config: r#"{"tenants": [{"name": "a", "corpus": "<r/>"}], "rules": []} x"#,
        kind: RouteErrorKind::Syntax,
        at: "x",
        msg: "trailing data",
    },
    BadCase {
        name: "truncated JSON",
        config: r#"{"tenants": ["#,
        kind: RouteErrorKind::Syntax,
        at: "<eof>",
        msg: "unexpected end of input",
    },
    BadCase {
        name: "unknown top-level key",
        config: r#"{"corpora": [], "rules": []}"#,
        kind: RouteErrorKind::Schema,
        at: r#""corpora""#,
        msg: "unknown config key `corpora`",
    },
    BadCase {
        name: "missing tenants section",
        config: r#"{"rules": []}"#,
        kind: RouteErrorKind::Schema,
        at: "",
        msg: "missing `tenants`",
    },
    BadCase {
        name: "empty tenant set",
        config: r#"{"tenants": [], "rules": []}"#,
        kind: RouteErrorKind::Schema,
        at: "",
        msg: "at least one tenant",
    },
    BadCase {
        name: "missing rules section",
        config: r#"{"tenants": [{"name": "a", "corpus": "<r/>"}]}"#,
        kind: RouteErrorKind::Schema,
        at: "",
        msg: "missing `rules`",
    },
    BadCase {
        name: "tenant name with a space",
        config: r#"{"tenants": [{"name": "bad name", "corpus": "<r/>"}], "rules": []}"#,
        kind: RouteErrorKind::InvalidTenantName,
        at: r#""bad name""#,
        msg: "[A-Za-z0-9_-]",
    },
    // The Prometheus-safety gate: names that would need label escaping
    // (newline, quote, backslash) are refused at load time, so they can
    // never reach /metrics or the access log. See stats_schema.rs for
    // the renderer-side conformance cases.
    BadCase {
        name: "tenant name with a newline",
        config: "{\"tenants\": [{\"name\": \"a\\nb\", \"corpus\": \"<r/>\"}], \"rules\": []}",
        kind: RouteErrorKind::InvalidTenantName,
        at: "\"a\\nb\"",
        msg: "[A-Za-z0-9_-]",
    },
    BadCase {
        name: "tenant name with a double quote",
        config: "{\"tenants\": [{\"name\": \"a\\\"b\", \"corpus\": \"<r/>\"}], \"rules\": []}",
        kind: RouteErrorKind::InvalidTenantName,
        at: "\"a\\\"b\"",
        msg: "[A-Za-z0-9_-]",
    },
    BadCase {
        name: "tenant name with a backslash",
        config: "{\"tenants\": [{\"name\": \"a\\\\b\", \"corpus\": \"<r/>\"}], \"rules\": []}",
        kind: RouteErrorKind::InvalidTenantName,
        at: "\"a\\\\b\"",
        msg: "[A-Za-z0-9_-]",
    },
    BadCase {
        name: "duplicate tenant name points at the second declaration",
        config: r#"{"tenants": [{"name": "a", "corpus": "<r/>"},
                                {"name": "a", "corpus": "<x/>"}], "rules": []}"#,
        kind: RouteErrorKind::Schema,
        at: r#""a", "corpus": "<x/>""#,
        msg: "duplicate tenant name `a`",
    },
    BadCase {
        name: "unknown tenant key",
        config: r#"{"tenants": [{"name": "a", "corpus": "<r/>", "quota": 3}], "rules": []}"#,
        kind: RouteErrorKind::Schema,
        at: r#""quota""#,
        msg: "unknown tenant key `quota`",
    },
    BadCase {
        name: "max_inflight must be an integer",
        config: r#"{"tenants": [{"name": "a", "corpus": "<r/>", "max_inflight": "lots"}],
                    "rules": []}"#,
        kind: RouteErrorKind::Schema,
        at: r#""lots""#,
        msg: "non-negative integer",
    },
    BadCase {
        name: "unknown predicate",
        config: r#"{"tenants": [{"name": "a", "corpus": "<r/>"}],
                    "rules": [{"when": {"path_regex": ".*"}, "tenant": "a"}]}"#,
        kind: RouteErrorKind::Schema,
        at: r#""path_regex""#,
        msg: "unknown predicate `path_regex`",
    },
    BadCase {
        name: "predicate with two keys",
        config: r#"{"tenants": [{"name": "a", "corpus": "<r/>"}],
                    "rules": [{"when": {"always": true, "path_prefix": "/"},
                               "tenant": "a"}]}"#,
        kind: RouteErrorKind::Schema,
        at: r#"{"always": true, "path_prefix""#,
        msg: "exactly one key",
    },
    BadCase {
        name: "header matcher with a bare name:value shape",
        config: r#"{"tenants": [{"name": "a", "corpus": "<r/>"}],
                    "rules": [{"when": {"header_exact": {"x-tenant": "a"}},
                               "tenant": "a"}]}"#,
        kind: RouteErrorKind::Schema,
        at: r#""x-tenant""#,
        msg: "unknown header-matcher key `x-tenant`",
    },
    BadCase {
        name: "header matcher missing value",
        config: r#"{"tenants": [{"name": "a", "corpus": "<r/>"}],
                    "rules": [{"when": {"header_exact": {"name": "x-tenant"}},
                               "tenant": "a"}]}"#,
        kind: RouteErrorKind::Schema,
        at: r#"{"name": "x-tenant"}"#,
        msg: "missing `value`",
    },
    BadCase {
        name: "unknown rule key",
        config: r#"{"tenants": [{"name": "a", "corpus": "<r/>"}],
                    "rules": [{"if": {"always": true}, "tenant": "a"}]}"#,
        kind: RouteErrorKind::Schema,
        at: r#""if""#,
        msg: "unknown rule key `if`",
    },
    BadCase {
        name: "rule missing its tenant selector",
        config: r#"{"tenants": [{"name": "a", "corpus": "<r/>"}],
                    "rules": [{"when": {"always": true}}]}"#,
        kind: RouteErrorKind::Schema,
        at: r#"{"when""#,
        msg: "rule missing `tenant`",
    },
    BadCase {
        name: "rule routing to an undeclared tenant",
        config: r#"{"tenants": [{"name": "a", "corpus": "<r/>"}],
                    "rules": [{"when": {"always": true}, "tenant": "ghost"}]}"#,
        kind: RouteErrorKind::UnknownTenant,
        at: r#"[{"when": {"always": true}, "tenant": "ghost"}]"#,
        msg: "undeclared tenant `ghost`",
    },
    // A repeated key is refused where it repeats, in every object of
    // the grammar — never "the later value wins".
    BadCase {
        name: "repeated top-level key",
        config: r#"{"tenants": [{"name": "a", "corpus": "<r/>"}], "rules": [], "rules": [1]}"#,
        kind: RouteErrorKind::Schema,
        at: r#""rules": [1]"#,
        msg: "duplicate key `rules`",
    },
    BadCase {
        name: "repeated tenant key",
        config: r#"{"tenants": [{"name": "a", "corpus": "<r/>", "max_inflight": 1, "max_inflight": 9}]}"#,
        kind: RouteErrorKind::Schema,
        at: r#""max_inflight": 9"#,
        msg: "duplicate key `max_inflight`",
    },
    BadCase {
        name: "repeated rule key",
        config: r#"{"rules": [{"when": {"always": true}, "tenant": "a", "when": {"always": true}}]}"#,
        kind: RouteErrorKind::Schema,
        at: r#""when": {"always": true}}"#,
        msg: "duplicate key `when`",
    },
    BadCase {
        name: "repeated header-matcher key",
        config: r#"{"rules": [{"when": {"header_exact": {"name": "x", "value": "1", "name": "y"}}}]}"#,
        kind: RouteErrorKind::Schema,
        at: r#""name": "y""#,
        msg: "duplicate key `name`",
    },
    BadCase {
        name: "repeated selector key",
        config: r#"{"rules": [{"tenant": {"from_path": true, "from_path": true}}]}"#,
        kind: RouteErrorKind::Schema,
        at: r#""from_path": true}"#,
        msg: "duplicate key `from_path`",
    },
];

#[test]
fn malformed_configs_carry_typed_errors_with_byte_offsets() {
    for case in BAD_CASES {
        let err = RegistryConfig::parse(case.config)
            .expect_err(&format!("case {:?} must be rejected", case.name));
        assert_eq!(err.kind, case.kind, "case {:?}: {err}", case.name);
        let want_off = if case.at.is_empty() {
            0
        } else if case.at == "<eof>" {
            case.config.len()
        } else {
            case.config
                .find(case.at)
                .unwrap_or_else(|| panic!("case {:?}: marker {:?} absent", case.name, case.at))
        };
        assert_eq!(
            err.offset, want_off,
            "case {:?}: error {err} should point at byte {want_off}",
            case.name
        );
        assert!(
            err.message.contains(case.msg),
            "case {:?}: message {:?} should contain {:?}",
            case.name,
            err.message,
            case.msg
        );
        // The Display contract the serving layer puts on the wire.
        assert_eq!(
            err.to_string(),
            format!(
                "route config error ({}) at byte {}: {}",
                err.kind.name(),
                err.offset,
                err.message
            )
        );
    }
}

#[test]
fn tenant_limits_parse_into_typed_defaults() {
    let cfg = RegistryConfig::parse(
        r#"{"tenants": [
              {"name": "dblp", "corpus": "@dblp:1", "max_inflight": 4, "deadline_ms": 250},
              {"name": "tb", "corpus": "@treebank:1", "node_budget": 1000}],
            "rules": [{"when": {"always": true}, "tenant": "dblp"}]}"#,
    )
    .unwrap();
    let limits: Vec<_> = cfg.tenants.iter().map(|t| &t.limits).collect();
    assert_eq!(limits[0].max_inflight, Some(4));
    assert_eq!(limits[0].default_deadline, Some(Duration::from_millis(250)));
    assert_eq!(limits[0].default_node_quota, None);
    assert_eq!(limits[1].max_inflight, None);
    assert_eq!(limits[1].default_node_quota, Some(1000));
}

#[test]
fn parse_rules_accepts_both_payload_shapes() {
    let known = ["alpha", "beta"];
    // Bare array (the POST /admin/routes fast path).
    let rules = parse_rules(
        r#"[{"when": {"path_prefix": "/t/"}, "tenant": {"from_path": true}}]"#,
        &known,
    )
    .unwrap();
    assert_eq!(rules.len(), 1);
    assert_eq!(rules[0].tenant, TenantSelector::FromPath);

    // Wrapped object.
    let rules = parse_rules(
        r#"{"rules": [{"when": {"always": true}, "tenant": "beta"}]}"#,
        &known,
    )
    .unwrap();
    assert_eq!(rules.len(), 1);
    assert_eq!(rules[0].tenant, TenantSelector::Fixed("beta".into()));

    // A hot reload naming an unhosted tenant is refused so traffic can
    // never be routed into the void.
    let err =
        parse_rules(r#"[{"when": {"always": true}, "tenant": "ghost"}]"#, &known).unwrap_err();
    assert_eq!(err.kind, RouteErrorKind::UnknownTenant);

    // And unknown wrapper keys are typed schema errors.
    let err = parse_rules(r#"{"ruleset": []}"#, &known).unwrap_err();
    assert_eq!(err.kind, RouteErrorKind::Schema);
    assert!(err.message.contains("unknown key `ruleset`"));
}

#[test]
fn a_repeated_key_in_a_reload_payload_is_a_schema_error() {
    let err = parse_rules(r#"{"rules": [], "rules": []}"#, &["a"]).unwrap_err();
    assert_eq!(
        (err.kind, err.offset),
        (RouteErrorKind::Schema, 14),
        "{err}"
    );
    assert!(err.message.contains("duplicate key `rules`"), "{err}");
}

#[test]
fn tenant_name_alphabet_is_label_safe() {
    for good in ["a", "dblp", "A-b_2", "a-b_C9", "x".repeat(64).as_str()] {
        assert!(valid_tenant_name(good), "{good:?} should be legal");
    }
    for bad in [
        "",
        "a b",
        "a\nb",
        "a\"b",
        "a\\b",
        "a{b}",
        "café",
        "x".repeat(65).as_str(),
    ] {
        assert!(!valid_tenant_name(bad), "{bad:?} should be rejected");
    }
}
