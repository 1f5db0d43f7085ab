//! Declarative request routing for the multi-tenant engine registry.
//!
//! A registry-backed server hosts N independent corpora; this module
//! decides which one a request belongs to. Routing is a first-match-wins
//! list of [`RouteRule`]s, each pairing a [`RoutePredicate`] tree
//! (prefix/exact matchers over the request path and headers, composed
//! with `all`/`any`/`not`) with a [`TenantSelector`] that names the
//! tenant — either statically, or extracted from the `/t/<tenant>/...`
//! path prefix or from a header value.
//!
//! Rule lists come from a JSON config (`--routes FILE`, hot-reloadable
//! via `POST /admin/routes`), read into `lotusx-obs`'s offset-tagged
//! tree: every value remembers its byte offset in the source text, so
//! malformed configs — syntax errors, unknown keys, bad tenant names,
//! rules naming unregistered tenants — produce a typed [`RouteError`]
//! pointing at the exact byte, not a vague "invalid config".
//!
//! Contract used by the serving layer (documented in DESIGN.md):
//!
//! * a request no rule matches → **404 `unknown_tenant`**;
//! * a rule matches but its selector extracts nothing (no `/t/` prefix,
//!   missing header) or an invalid/unregistered name → also 404
//!   `unknown_tenant` — a matching rule decides, it never falls through;
//! * tenant names are restricted to `[A-Za-z0-9_-]` (max 64 bytes) at
//!   route-load time, so names flow into Prometheus label values and the
//!   access log without escaping surprises.

use std::collections::HashSet;
use std::time::Duration;

use lotusx_guard::TenantLimits;
use lotusx_obs::{parse_json_as, JsonNode as Val, SpannedJson as Sp};

/// What went wrong while loading a route config.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteErrorKind {
    /// The text is not well-formed JSON.
    Syntax,
    /// Well-formed JSON with the wrong shape (unknown key, wrong type,
    /// missing required field).
    Schema,
    /// A tenant name outside the `[A-Za-z0-9_-]{1,64}` alphabet.
    InvalidTenantName,
    /// A rule references a tenant the registry does not host.
    UnknownTenant,
}

impl RouteErrorKind {
    /// Stable snake-case name (used in error payloads and tests).
    pub fn name(&self) -> &'static str {
        match self {
            RouteErrorKind::Syntax => "syntax",
            RouteErrorKind::Schema => "schema",
            RouteErrorKind::InvalidTenantName => "invalid_tenant_name",
            RouteErrorKind::UnknownTenant => "unknown_tenant",
        }
    }
}

/// A typed route-config error carrying the byte offset of the offending
/// construct in the source text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteError {
    /// Byte offset into the config text where the problem starts.
    pub offset: usize,
    /// The error class.
    pub kind: RouteErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl RouteError {
    fn new(offset: usize, kind: RouteErrorKind, message: impl Into<String>) -> RouteError {
        RouteError {
            offset,
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "route config error ({}) at byte {}: {}",
            self.kind.name(),
            self.offset,
            self.message
        )
    }
}

impl std::error::Error for RouteError {}

/// Is `name` a legal tenant name (`[A-Za-z0-9_-]{1,64}`)?
///
/// The alphabet is deliberately Prometheus-label-safe and access-log
/// safe: no quotes, backslashes, newlines or separators can ever arrive
/// via a tenant name.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// A boolean condition over a request's path and headers.
#[derive(Clone, Debug, PartialEq)]
pub enum RoutePredicate {
    /// Matches every request.
    Always,
    /// The path starts with the given prefix.
    PathPrefix(String),
    /// The path equals the given string exactly.
    PathExact(String),
    /// The named header is present and its value starts with the prefix.
    HeaderPrefix {
        /// Header name (stored lower-cased; matching is case-insensitive).
        name: String,
        /// Required value prefix.
        value: String,
    },
    /// The named header is present with exactly the given value.
    HeaderExact {
        /// Header name (stored lower-cased; matching is case-insensitive).
        name: String,
        /// Required value.
        value: String,
    },
    /// Every child matches (AND). Empty list matches.
    All(Vec<RoutePredicate>),
    /// At least one child matches (OR). Empty list never matches.
    Any(Vec<RoutePredicate>),
    /// The child does not match (NOT).
    Not(Box<RoutePredicate>),
}

impl RoutePredicate {
    /// Evaluates the predicate against a request's path and (lower-cased
    /// name, value) header list.
    pub fn matches(&self, path: &str, headers: &[(String, String)]) -> bool {
        match self {
            RoutePredicate::Always => true,
            RoutePredicate::PathPrefix(p) => path.starts_with(p.as_str()),
            RoutePredicate::PathExact(p) => path == p,
            RoutePredicate::HeaderPrefix { name, value } => {
                header_value(headers, name).is_some_and(|v| v.starts_with(value.as_str()))
            }
            RoutePredicate::HeaderExact { name, value } => {
                header_value(headers, name).is_some_and(|v| v == value)
            }
            RoutePredicate::All(children) => children.iter().all(|c| c.matches(path, headers)),
            RoutePredicate::Any(children) => children.iter().any(|c| c.matches(path, headers)),
            RoutePredicate::Not(child) => !child.matches(path, headers),
        }
    }
}

fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// How a matching rule names the tenant.
#[derive(Clone, Debug, PartialEq)]
pub enum TenantSelector {
    /// A fixed tenant name (validated at load time).
    Fixed(String),
    /// Extract from the `/t/<tenant>/...` path prefix; the resolved
    /// request continues with the prefix stripped (`/t/a/query` →
    /// tenant `a`, effective path `/query`).
    FromPath,
    /// Extract from the named header's value (name stored lower-cased).
    FromHeader(String),
}

/// One routing rule: `when` the predicate matches, `tenant` decides.
#[derive(Clone, Debug, PartialEq)]
pub struct RouteRule {
    /// The condition under which this rule applies.
    pub when: RoutePredicate,
    /// How the tenant is determined once it applies.
    pub tenant: TenantSelector,
}

/// A successful resolution: the tenant and the effective request path
/// (tenant prefix stripped for [`TenantSelector::FromPath`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteMatch {
    /// The resolved tenant name.
    pub tenant: String,
    /// The path the tenant's endpoint handlers should see.
    pub path: String,
}

/// An ordered, first-match-wins rule list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RouteTable {
    rules: Vec<RouteRule>,
}

impl RouteTable {
    /// A table from an explicit rule list.
    pub fn new(rules: Vec<RouteRule>) -> RouteTable {
        RouteTable { rules }
    }

    /// The single-tenant table: every request routes to `tenant`
    /// unchanged. This is what `Server::run` uses for its implicit
    /// `default` tenant.
    pub fn catch_all(tenant: &str) -> RouteTable {
        RouteTable {
            rules: vec![RouteRule {
                when: RoutePredicate::Always,
                tenant: TenantSelector::Fixed(tenant.to_string()),
            }],
        }
    }

    /// The rules, in evaluation order.
    pub fn rules(&self) -> &[RouteRule] {
        &self.rules
    }

    /// Resolves a request. The *first* rule whose predicate matches
    /// decides: `Some` with the tenant and effective path when its
    /// selector extracts a valid name, `None` (→ 404 `unknown_tenant`)
    /// when extraction fails — a matching rule never falls through to
    /// later rules. `None` is also returned when no rule matches.
    ///
    /// Whether an extracted name is actually *registered* is the
    /// caller's check (the registry knows the tenant set; the table does
    /// not).
    pub fn resolve(&self, path: &str, headers: &[(String, String)]) -> Option<RouteMatch> {
        let rule = self.rules.iter().find(|r| r.when.matches(path, headers))?;
        match &rule.tenant {
            TenantSelector::Fixed(name) => Some(RouteMatch {
                tenant: name.clone(),
                path: path.to_string(),
            }),
            TenantSelector::FromPath => {
                let rest = path.strip_prefix("/t/")?;
                let (tenant, tail) = match rest.find('/') {
                    Some(i) => (&rest[..i], &rest[i..]),
                    None => (rest, "/"),
                };
                if !valid_tenant_name(tenant) {
                    return None;
                }
                Some(RouteMatch {
                    tenant: tenant.to_string(),
                    path: tail.to_string(),
                })
            }
            TenantSelector::FromHeader(name) => {
                let value = header_value(headers, name)?;
                if !valid_tenant_name(value) {
                    return None;
                }
                Some(RouteMatch {
                    tenant: value.to_string(),
                    path: path.to_string(),
                })
            }
        }
    }
}

/// One tenant's declaration in a registry config: a name, a corpus
/// source string (the `CorpusSource` grammar: `@dataset[:scale]`,
/// snapshot path, XML path, inline markup), and guard limits.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSpec {
    /// The tenant's name (`[A-Za-z0-9_-]{1,64}`).
    pub name: String,
    /// The corpus to open, in the `CorpusSource` grammar.
    pub source: String,
    /// Admission quota and default budgets.
    pub limits: TenantLimits,
}

/// A parsed `--routes` config: the tenant set plus the rule list.
#[derive(Clone, Debug, PartialEq)]
pub struct RegistryConfig {
    /// The corpora this process hosts.
    pub tenants: Vec<TenantSpec>,
    /// First-match-wins routing rules.
    pub rules: Vec<RouteRule>,
}

impl RegistryConfig {
    /// Parses and validates a full registry config:
    ///
    /// ```json
    /// {
    ///   "tenants": [
    ///     {"name": "dblp", "corpus": "@dblp:2", "max_inflight": 8,
    ///      "deadline_ms": 250, "node_budget": 200000}
    ///   ],
    ///   "rules": [
    ///     {"when": {"path_prefix": "/t/"}, "tenant": {"from_path": true}},
    ///     {"when": {"header_exact": {"name": "x-lotusx-tenant",
    ///                                "value": "dblp"}}, "tenant": "dblp"}
    ///   ]
    /// }
    /// ```
    ///
    /// Errors are typed with byte offsets: JSON syntax, unknown keys,
    /// wrong types, duplicate or invalid tenant names, and rules whose
    /// fixed tenant is not declared.
    pub fn parse(text: &str) -> Result<RegistryConfig, RouteError> {
        let doc = parse_spanned(text)?;
        let fields = want_obj(&doc, "config")?;
        let mut tenants: Option<Vec<TenantSpec>> = None;
        let mut rules: Option<(usize, Vec<RouteRule>)> = None;
        for (key_off, key, value) in fields {
            match key.as_str() {
                "tenants" => tenants = Some(decode_tenants(value)?),
                "rules" => rules = Some((value.off, decode_rules(value)?)),
                other => {
                    return Err(RouteError::new(
                        *key_off,
                        RouteErrorKind::Schema,
                        format!("unknown config key `{other}` (expected `tenants` or `rules`)"),
                    ));
                }
            }
        }
        let tenants = tenants.ok_or_else(|| {
            RouteError::new(doc.off, RouteErrorKind::Schema, "missing `tenants` section")
        })?;
        if tenants.is_empty() {
            return Err(RouteError::new(
                doc.off,
                RouteErrorKind::Schema,
                "`tenants` must declare at least one tenant",
            ));
        }
        let (rules_off, rules) = rules.ok_or_else(|| {
            RouteError::new(doc.off, RouteErrorKind::Schema, "missing `rules` section")
        })?;
        let names: Vec<&str> = tenants.iter().map(|t| t.name.as_str()).collect();
        check_rules_against(&rules, &names, rules_off)?;
        Ok(RegistryConfig { tenants, rules })
    }
}

/// Parses a rule list on its own — the `POST /admin/routes` payload.
/// Accepts either a bare JSON array of rules or `{"rules": [...]}`.
/// `known_tenants` is the registry's tenant set; rules naming anything
/// else are rejected ([`RouteErrorKind::UnknownTenant`]) so a hot
/// reload can never route traffic into the void.
pub fn parse_rules(text: &str, known_tenants: &[&str]) -> Result<Vec<RouteRule>, RouteError> {
    let doc = parse_spanned(text)?;
    let (off, rules) = match &doc.val {
        Val::Arr(_) => (doc.off, decode_rules(&doc)?),
        Val::Obj(fields) => {
            let mut found: Option<(usize, Vec<RouteRule>)> = None;
            for (key_off, key, value) in fields {
                if key == "rules" {
                    found = Some((value.off, decode_rules(value)?));
                } else {
                    return Err(RouteError::new(
                        *key_off,
                        RouteErrorKind::Schema,
                        format!("unknown key `{key}` (expected `rules`)"),
                    ));
                }
            }
            found.ok_or_else(|| {
                RouteError::new(doc.off, RouteErrorKind::Schema, "missing `rules` section")
            })?
        }
        _ => {
            return Err(RouteError::new(
                doc.off,
                RouteErrorKind::Schema,
                "expected a rule array or {\"rules\": [...]}",
            ));
        }
    };
    check_rules_against(&rules, known_tenants, off)?;
    Ok(rules)
}

/// Validates every fixed tenant reference in `rules` against the
/// registry's tenant set. Offsets are approximate here (the rule list's
/// start) — fixed-name *syntax* errors are caught earlier with exact
/// offsets during decoding.
fn check_rules_against(
    rules: &[RouteRule],
    known: &[&str],
    rules_off: usize,
) -> Result<(), RouteError> {
    for rule in rules {
        if let TenantSelector::Fixed(name) = &rule.tenant {
            if !known.contains(&name.as_str()) {
                return Err(RouteError::new(
                    rules_off,
                    RouteErrorKind::UnknownTenant,
                    format!("rule routes to undeclared tenant `{name}`"),
                ));
            }
        }
    }
    Ok(())
}

/// Reads `input` into the offset-tagged tree the decoders below walk;
/// the reader's own errors are this module's `Syntax` kind, at the same
/// byte.
fn parse_spanned(input: &str) -> Result<Sp, RouteError> {
    parse_json_as(input).map_err(|e| RouteError::new(e.offset, RouteErrorKind::Syntax, e.message))
}

// ---------------------------------------------------------------------
// Schema decoding
// ---------------------------------------------------------------------

fn schema(offset: usize, message: impl Into<String>) -> RouteError {
    RouteError::new(offset, RouteErrorKind::Schema, message)
}

fn want_obj<'a>(sp: &'a Sp, what: &str) -> Result<&'a [(usize, String, Sp)], RouteError> {
    match &sp.val {
        Val::Obj(fields) => Ok(fields),
        _ => Err(schema(sp.off, format!("{what} must be an object"))),
    }
}

fn want_arr<'a>(sp: &'a Sp, what: &str) -> Result<&'a [Sp], RouteError> {
    match &sp.val {
        Val::Arr(items) => Ok(items),
        _ => Err(schema(sp.off, format!("{what} must be an array"))),
    }
}

fn want_str<'a>(sp: &'a Sp, what: &str) -> Result<&'a str, RouteError> {
    match &sp.val {
        Val::Str(s) => Ok(s),
        _ => Err(schema(sp.off, format!("{what} must be a string"))),
    }
}

fn want_u64(sp: &Sp, what: &str) -> Result<u64, RouteError> {
    match &sp.val {
        Val::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => Ok(*n as u64),
        _ => Err(schema(
            sp.off,
            format!("{what} must be a non-negative integer"),
        )),
    }
}

/// Checks a declared tenant name, pointing the error at the name's own
/// offset in the config.
fn checked_tenant_name(sp: &Sp, what: &str) -> Result<String, RouteError> {
    let name = want_str(sp, what)?;
    if !valid_tenant_name(name) {
        return Err(RouteError::new(
            sp.off,
            RouteErrorKind::InvalidTenantName,
            format!(
                "{what} `{}` must match [A-Za-z0-9_-]{{1,64}}",
                name.escape_default()
            ),
        ));
    }
    Ok(name.to_string())
}

fn decode_tenants(sp: &Sp) -> Result<Vec<TenantSpec>, RouteError> {
    let items = want_arr(sp, "`tenants`")?;
    let mut tenants = Vec::with_capacity(items.len());
    let mut seen: HashSet<String> = HashSet::new();
    for item in items {
        let fields = want_obj(item, "tenant entry")?;
        let mut name: Option<(usize, String)> = None;
        let mut source: Option<String> = None;
        let mut limits = TenantLimits::unlimited();
        for (key_off, key, value) in fields {
            match key.as_str() {
                "name" => name = Some((value.off, checked_tenant_name(value, "tenant name")?)),
                "corpus" => source = Some(want_str(value, "`corpus`")?.to_string()),
                "max_inflight" => {
                    let n = want_u64(value, "`max_inflight`")?;
                    if n > u32::MAX as u64 {
                        return Err(schema(value.off, "`max_inflight` out of range"));
                    }
                    limits.max_inflight = Some(n as u32);
                }
                "deadline_ms" => {
                    limits.default_deadline =
                        Some(Duration::from_millis(want_u64(value, "`deadline_ms`")?));
                }
                "node_budget" => {
                    limits.default_node_quota = Some(want_u64(value, "`node_budget`")?);
                }
                "candidate_budget" => {
                    limits.default_candidate_quota = Some(want_u64(value, "`candidate_budget`")?);
                }
                other => {
                    return Err(schema(*key_off, format!("unknown tenant key `{other}`")));
                }
            }
        }
        let (name_off, name) =
            name.ok_or_else(|| schema(item.off, "tenant entry missing `name`"))?;
        let source = source.ok_or_else(|| schema(item.off, "tenant entry missing `corpus`"))?;
        if !seen.insert(name.clone()) {
            return Err(schema(name_off, format!("duplicate tenant name `{name}`")));
        }
        tenants.push(TenantSpec {
            name,
            source,
            limits,
        });
    }
    Ok(tenants)
}

fn decode_rules(sp: &Sp) -> Result<Vec<RouteRule>, RouteError> {
    let items = want_arr(sp, "`rules`")?;
    items.iter().map(decode_rule).collect()
}

fn decode_rule(sp: &Sp) -> Result<RouteRule, RouteError> {
    let fields = want_obj(sp, "rule")?;
    let mut when: Option<RoutePredicate> = None;
    let mut tenant: Option<TenantSelector> = None;
    for (key_off, key, value) in fields {
        match key.as_str() {
            "when" => when = Some(decode_predicate(value)?),
            "tenant" => tenant = Some(decode_selector(value)?),
            other => {
                return Err(schema(
                    *key_off,
                    format!("unknown rule key `{other}` (expected `when` or `tenant`)"),
                ));
            }
        }
    }
    Ok(RouteRule {
        when: when.ok_or_else(|| schema(sp.off, "rule missing `when`"))?,
        tenant: tenant.ok_or_else(|| schema(sp.off, "rule missing `tenant`"))?,
    })
}

fn decode_predicate(sp: &Sp) -> Result<RoutePredicate, RouteError> {
    let fields = want_obj(sp, "predicate")?;
    if fields.len() != 1 {
        return Err(schema(
            sp.off,
            "predicate must have exactly one key (always, path_prefix, path_exact, \
             header_prefix, header_exact, all, any, not)",
        ));
    }
    let (key_off, key, value) = &fields[0];
    match key.as_str() {
        "always" => match value.val {
            Val::Bool(true) => Ok(RoutePredicate::Always),
            _ => Err(schema(value.off, "`always` must be `true`")),
        },
        "path_prefix" => Ok(RoutePredicate::PathPrefix(
            want_str(value, "`path_prefix`")?.to_string(),
        )),
        "path_exact" => Ok(RoutePredicate::PathExact(
            want_str(value, "`path_exact`")?.to_string(),
        )),
        "header_prefix" => {
            let (name, v) = decode_header_matcher(value)?;
            Ok(RoutePredicate::HeaderPrefix { name, value: v })
        }
        "header_exact" => {
            let (name, v) = decode_header_matcher(value)?;
            Ok(RoutePredicate::HeaderExact { name, value: v })
        }
        "all" => Ok(RoutePredicate::All(decode_predicate_list(value)?)),
        "any" => Ok(RoutePredicate::Any(decode_predicate_list(value)?)),
        "not" => Ok(RoutePredicate::Not(Box::new(decode_predicate(value)?))),
        other => Err(schema(*key_off, format!("unknown predicate `{other}`"))),
    }
}

fn decode_predicate_list(sp: &Sp) -> Result<Vec<RoutePredicate>, RouteError> {
    want_arr(sp, "predicate list")?
        .iter()
        .map(decode_predicate)
        .collect()
}

fn decode_header_matcher(sp: &Sp) -> Result<(String, String), RouteError> {
    let fields = want_obj(sp, "header matcher")?;
    let mut name: Option<String> = None;
    let mut value: Option<String> = None;
    for (key_off, key, v) in fields {
        match key.as_str() {
            "name" => name = Some(want_str(v, "header `name`")?.to_ascii_lowercase()),
            "value" => value = Some(want_str(v, "header `value`")?.to_string()),
            other => {
                return Err(schema(
                    *key_off,
                    format!("unknown header-matcher key `{other}`"),
                ));
            }
        }
    }
    let name = name.ok_or_else(|| schema(sp.off, "header matcher missing `name`"))?;
    if name.is_empty() {
        return Err(schema(sp.off, "header `name` must be non-empty"));
    }
    let value = value.ok_or_else(|| schema(sp.off, "header matcher missing `value`"))?;
    Ok((name, value))
}

fn decode_selector(sp: &Sp) -> Result<TenantSelector, RouteError> {
    match &sp.val {
        Val::Str(_) => {
            let name = checked_tenant_name(sp, "tenant name")?;
            Ok(TenantSelector::Fixed(name))
        }
        Val::Obj(fields) => {
            if fields.len() != 1 {
                return Err(schema(
                    sp.off,
                    "tenant selector must have exactly one key (from_path or from_header)",
                ));
            }
            let (key_off, key, value) = &fields[0];
            match key.as_str() {
                "from_path" => match value.val {
                    Val::Bool(true) => Ok(TenantSelector::FromPath),
                    _ => Err(schema(value.off, "`from_path` must be `true`")),
                },
                "from_header" => {
                    let name = want_str(value, "`from_header`")?.to_ascii_lowercase();
                    if name.is_empty() {
                        return Err(schema(value.off, "`from_header` must be non-empty"));
                    }
                    Ok(TenantSelector::FromHeader(name))
                }
                other => Err(schema(*key_off, format!("unknown selector key `{other}`"))),
            }
        }
        _ => Err(schema(
            sp.off,
            "tenant selector must be a name string or {\"from_path\"|\"from_header\": ...}",
        )),
    }
}
