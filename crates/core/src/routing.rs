//! Declarative request routing for the engine registry that every
//! server hosts (a single corpus is a one-tenant registry). Routing is
//! one pipeline:
//!
//! 1. **extract** — a [`RouteInput`] reads a value off the request: the
//!    path or a header;
//! 2. **match** — a [`MatchTest`] (prefix or exact) compares it with the
//!    rule's value; `all`/`any`/`not` compose leaves into a
//!    [`RoutePredicate`];
//! 3. **first match** — the first [`RouteRule`] whose predicate holds
//!    decides, and its [`TenantSelector`] names the tenant: fixed, from
//!    the `/t/<tenant>/...` prefix, or from a header.
//!
//! Rule lists come from a JSON config (`--routes FILE`, hot-reloadable
//! via `POST /admin/routes`) read into `lotusx-obs`'s offset-tagged tree,
//! so every malformed config — syntax, unknown or repeated keys, bad
//! tenant names, rules naming unregistered tenants — is a typed
//! [`RouteError`] at the exact byte.
//!
//! Contract used by the serving layer (documented in DESIGN.md): a
//! request no rule matches, or whose matching rule extracts nothing or
//! an invalid/unregistered name, is **404 `unknown_tenant`** — a
//! matching rule decides, it never falls through; tenant names are
//! `[A-Za-z0-9_-]{1,64}`, checked at load time, so they flow into
//! Prometheus labels and the access log without escaping.

use std::time::Duration;

use lotusx_guard::TenantLimits;
use lotusx_obs::{parse_json_as, JsonNode as Val, SpannedJson as Sp};

/// What went wrong while loading a route config.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteErrorKind {
    /// The text is not well-formed JSON.
    Syntax,
    /// Well-formed JSON with the wrong shape (unknown or repeated key,
    /// wrong type, missing required field).
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

/// The extract step: which value of a request a matcher or selector
/// reads.
#[derive(Clone, Debug, PartialEq)]
pub enum RouteInput {
    /// The request path.
    Path,
    /// The named header's value (name stored lower-cased; matching is
    /// case-insensitive). Absent header → nothing extracted.
    Header(String),
}

impl RouteInput {
    /// The value this input reads from a request, borrowed from it.
    fn extract<'r>(&self, path: &'r str, headers: &'r [(String, String)]) -> Option<&'r str> {
        match self {
            RouteInput::Path => Some(path),
            RouteInput::Header(name) => header_value(headers, name),
        }
    }
}

fn header_value<'r>(headers: &'r [(String, String)], name: &str) -> Option<&'r str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// The match step: how an extracted value is compared with a rule's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchTest {
    /// The extracted value starts with the rule's value.
    Prefix,
    /// The extracted value equals the rule's value.
    Exact,
}

/// A boolean condition over a request's path and headers.
#[derive(Clone, Debug, PartialEq)]
pub enum RoutePredicate {
    /// Matches every request.
    Always,
    /// Extract `input`, then `test` it against `value`.
    Match {
        /// What is read off the request.
        input: RouteInput,
        /// How it is compared.
        test: MatchTest,
        /// What it is compared with.
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
    /// Evaluates the predicate against a request's path and (name,
    /// value) header list.
    pub fn matches(&self, path: &str, headers: &[(String, String)]) -> bool {
        match self {
            RoutePredicate::Always => true,
            RoutePredicate::Match { input, test, value } => {
                input.extract(path, headers).is_some_and(|v| match test {
                    MatchTest::Prefix => v.starts_with(value.as_str()),
                    MatchTest::Exact => v == value,
                })
            }
            RoutePredicate::All(children) => children.iter().all(|c| c.matches(path, headers)),
            RoutePredicate::Any(children) => children.iter().any(|c| c.matches(path, headers)),
            RoutePredicate::Not(child) => !child.matches(path, headers),
        }
    }
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

/// A resolution: the tenant name and the path its endpoint handlers
/// see (a suffix of the request path when [`TenantSelector::FromPath`]
/// stripped `/t/<tenant>`). [`RouteTable::route`] borrows both from the
/// table and the request; a [`RouteMatch`] owns them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route<S = String> {
    /// The resolved tenant name.
    pub tenant: S,
    /// The path the tenant's endpoint handlers should see.
    pub path: S,
}

/// An owned [`Route`] ([`RouteTable::resolve`]).
pub type RouteMatch = Route<String>;

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

    /// The one-rule table that routes every request to `tenant`
    /// unchanged: what a single-corpus server boots with.
    pub fn catch_all(tenant: &str) -> RouteTable {
        RouteTable::new(vec![RouteRule {
            when: RoutePredicate::Always,
            tenant: TenantSelector::Fixed(tenant.to_string()),
        }])
    }

    /// The rules, in evaluation order.
    pub fn rules(&self) -> &[RouteRule] {
        &self.rules
    }

    /// Resolves a request without allocating. The *first* rule whose
    /// predicate matches decides: `None` (→ 404 `unknown_tenant`) when
    /// its selector extracts no valid name — it never falls through —
    /// or when no rule matches. Whether the name is *registered* is the
    /// registry's check.
    pub fn route<'a>(
        &'a self,
        path: &'a str,
        headers: &'a [(String, String)],
    ) -> Option<Route<&'a str>> {
        let rule = self.rules.iter().find(|r| r.when.matches(path, headers))?;
        let (tenant, path) = match &rule.tenant {
            TenantSelector::Fixed(name) => (name.as_str(), path),
            TenantSelector::FromPath => {
                let rest = path.strip_prefix("/t/")?;
                match rest.find('/') {
                    Some(i) => rest.split_at(i),
                    None => (rest, "/"),
                }
            }
            TenantSelector::FromHeader(name) => (header_value(headers, name)?, path),
        };
        valid_tenant_name(tenant).then_some(Route { tenant, path })
    }

    /// [`RouteTable::route`], owned.
    pub fn resolve(&self, path: &str, headers: &[(String, String)]) -> Option<RouteMatch> {
        self.route(path, headers).map(|r| RouteMatch {
            tenant: r.tenant.to_string(),
            path: r.path.to_string(),
        })
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
    /// Errors are typed with byte offsets: JSON syntax, unknown or
    /// repeated keys, wrong types, duplicate or invalid tenant names, and
    /// rules whose fixed tenant is not declared.
    pub fn parse(text: &str) -> Result<RegistryConfig, RouteError> {
        let doc = parse_spanned(text)?;
        let mut tenants: Option<Vec<TenantSpec>> = None;
        let mut rules: Option<(usize, Vec<RouteRule>)> = None;
        for (key_off, key, value) in want_obj(&doc, "config")? {
            match key.as_str() {
                "tenants" => tenants = Some(decode_tenants(value)?),
                "rules" => rules = Some((value.off, decode_rules(value)?)),
                other => {
                    return Err(schema(
                        *key_off,
                        format!("unknown config key `{other}` (expected `tenants` or `rules`)"),
                    ));
                }
            }
        }
        let tenants = tenants.ok_or_else(|| schema(doc.off, "missing `tenants` section"))?;
        if tenants.is_empty() {
            return Err(schema(
                doc.off,
                "`tenants` must declare at least one tenant",
            ));
        }
        let (rules_off, rules) = rules.ok_or_else(|| schema(doc.off, "missing `rules` section"))?;
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
        Val::Obj(_) => {
            let mut found: Option<(usize, Vec<RouteRule>)> = None;
            for (key_off, key, value) in want_obj(&doc, "payload")? {
                if key != "rules" {
                    return Err(schema(
                        *key_off,
                        format!("unknown key `{key}` (expected `rules`)"),
                    ));
                }
                found = Some((value.off, decode_rules(value)?));
            }
            found.ok_or_else(|| schema(doc.off, "missing `rules` section"))?
        }
        _ => {
            return Err(schema(
                doc.off,
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
fn check_rules_against(rules: &[RouteRule], known: &[&str], off: usize) -> Result<(), RouteError> {
    for rule in rules {
        if let TenantSelector::Fixed(name) = &rule.tenant {
            if !known.contains(&name.as_str()) {
                return Err(RouteError::new(
                    off,
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

fn schema(offset: usize, message: impl Into<String>) -> RouteError {
    RouteError::new(offset, RouteErrorKind::Schema, message)
}

/// The members of a config object. Every object of the grammar goes
/// through here, so a key written twice is refused at the repeat's
/// offset instead of the later value silently winning.
fn want_obj<'a>(sp: &'a Sp, what: &str) -> Result<&'a [(usize, String, Sp)], RouteError> {
    let Val::Obj(fields) = &sp.val else {
        return Err(schema(sp.off, format!("{what} must be an object")));
    };
    for (i, (key_off, key, _)) in fields.iter().enumerate() {
        if fields[..i].iter().any(|(_, k, _)| k == key) {
            return Err(schema(*key_off, format!("duplicate key `{key}` in {what}")));
        }
    }
    Ok(fields)
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
    match sp.val {
        Val::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Ok(n as u64),
        _ => Err(schema(
            sp.off,
            format!("{what} must be a non-negative integer"),
        )),
    }
}

/// `true` is the only value a flag key (`always`, `from_path`) takes.
fn want_true(sp: &Sp, what: &str) -> Result<(), RouteError> {
    match sp.val {
        Val::Bool(true) => Ok(()),
        _ => Err(schema(sp.off, format!("{what} must be `true`"))),
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
    for item in items {
        let mut name: Option<(usize, String)> = None;
        let mut source: Option<String> = None;
        let mut limits = TenantLimits::unlimited();
        for (key_off, key, value) in want_obj(item, "tenant entry")? {
            match key.as_str() {
                "name" => name = Some((value.off, checked_tenant_name(value, "tenant name")?)),
                "corpus" => source = Some(want_str(value, "`corpus`")?.to_string()),
                "max_inflight" => {
                    let n = want_u64(value, "`max_inflight`")?;
                    let n = u32::try_from(n)
                        .map_err(|_| schema(value.off, "`max_inflight` out of range"))?;
                    limits.max_inflight = Some(n);
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
        if tenants.iter().any(|t: &TenantSpec| t.name == name) {
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
    let mut when: Option<RoutePredicate> = None;
    let mut tenant: Option<TenantSelector> = None;
    for (key_off, key, value) in want_obj(sp, "rule")? {
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

/// The leaf matchers: config key → is the input a header (else the
/// path), and how the extracted value is tested.
const LEAVES: [(&str, bool, MatchTest); 4] = [
    ("path_prefix", false, MatchTest::Prefix),
    ("path_exact", false, MatchTest::Exact),
    ("header_prefix", true, MatchTest::Prefix),
    ("header_exact", true, MatchTest::Exact),
];

fn decode_predicate(sp: &Sp) -> Result<RoutePredicate, RouteError> {
    let [(key_off, key, value)] = want_obj(sp, "predicate")? else {
        return Err(schema(
            sp.off,
            "predicate must have exactly one key (always, path_prefix, path_exact, \
             header_prefix, header_exact, all, any, not)",
        ));
    };
    if let Some(&(_, header, test)) = LEAVES.iter().find(|(k, ..)| k == key) {
        let (input, value) = if header {
            let (name, value) = decode_header_matcher(value)?;
            (RouteInput::Header(name), value)
        } else {
            let value = want_str(value, &format!("`{key}`"))?;
            (RouteInput::Path, value.to_string())
        };
        return Ok(RoutePredicate::Match { input, test, value });
    }
    match key.as_str() {
        "always" => want_true(value, "`always`").map(|()| RoutePredicate::Always),
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
    let mut name: Option<String> = None;
    let mut value: Option<String> = None;
    for (key_off, key, v) in want_obj(sp, "header matcher")? {
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
        Val::Str(_) => checked_tenant_name(sp, "tenant name").map(TenantSelector::Fixed),
        Val::Obj(_) => {
            let [(key_off, key, value)] = want_obj(sp, "tenant selector")? else {
                return Err(schema(
                    sp.off,
                    "tenant selector must have exactly one key (from_path or from_header)",
                ));
            };
            match key.as_str() {
                "from_path" => want_true(value, "`from_path`").map(|()| TenantSelector::FromPath),
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
