//! The engine registry: one process, N independent corpora.
//!
//! An [`EngineRegistry`] owns a set of named tenants, each a fully
//! independent [`LotusX`] engine (its own document, indexes, caches and
//! stats — nothing is shared between tenants), plus the routing
//! [`RouteTable`] that maps requests onto them. A single corpus is the
//! one-tenant case ([`EngineRegistry::single_tenant`]). Tenants and
//! their corpora are fixed at open time; the *rule list* is
//! hot-swappable (`POST /admin/routes` in the serving layer calls
//! [`EngineRegistry::reload_rules`]), so traffic can be re-routed
//! without reopening engines or dropping connections.
//!
//! The registry is deliberately engine-layer only: admission quotas,
//! per-tenant counters and endpoint semantics live in `lotusx-serve`,
//! whose `Server::run` serves one.

use std::str::FromStr;
use std::sync::{Arc, RwLock};

use lotusx_guard::TenantLimits;

use crate::engine::LotusX;
use crate::request::LotusError;
use crate::routing::{parse_rules, valid_tenant_name, RegistryConfig, RouteRule, RouteTable};
use crate::source::CorpusSource;

/// One hosted corpus: a name, its engine, and its guard limits.
pub struct Tenant {
    name: String,
    limits: TenantLimits,
    engine: LotusX,
}

impl Tenant {
    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's admission quota and default budgets.
    pub fn limits(&self) -> &TenantLimits {
        &self.limits
    }

    /// The tenant's engine.
    pub fn engine(&self) -> &LotusX {
        &self.engine
    }
}

/// A process-wide registry of named engines with a hot-swappable
/// routing table. See the [module docs](self).
pub struct EngineRegistry {
    tenants: Vec<Tenant>,
    routes: RwLock<Arc<RouteTable>>,
}

impl EngineRegistry {
    /// Opens every tenant in `config` (via the [`CorpusSource`] grammar
    /// — datasets, snapshots, XML files, inline markup) and installs its
    /// rule list. Config validation has already happened in
    /// [`RegistryConfig::parse`]; this is where corpora actually load.
    pub fn open(config: &RegistryConfig) -> Result<EngineRegistry, LotusError> {
        let mut parts = Vec::with_capacity(config.tenants.len());
        for spec in &config.tenants {
            let source = CorpusSource::from_str(&spec.source)?;
            let engine = LotusX::open(&source)?;
            parts.push((spec.name.clone(), engine, spec.limits.clone()));
        }
        EngineRegistry::from_parts(parts, config.rules.clone())
    }

    /// The one-tenant registry a single corpus is served as: `engine`
    /// as tenant `default`, unlimited, with every request routed to it
    /// ([`RouteTable::catch_all`]).
    pub fn single_tenant(engine: LotusX) -> EngineRegistry {
        let rules = RouteTable::catch_all("default").rules().to_vec();
        let parts = vec![("default".to_string(), engine, TenantLimits::unlimited())];
        EngineRegistry::from_parts(parts, rules).expect("`default` is a legal tenant name")
    }

    /// Builds a registry from already-opened engines (tests and
    /// harnesses that construct corpora programmatically).
    pub fn from_parts(
        parts: Vec<(String, LotusX, TenantLimits)>,
        rules: Vec<RouteRule>,
    ) -> Result<EngineRegistry, LotusError> {
        let mut tenants: Vec<Tenant> = Vec::with_capacity(parts.len());
        for (name, engine, limits) in parts {
            if !valid_tenant_name(&name) {
                return Err(LotusError::Config(format!(
                    "tenant name `{}` must match [A-Za-z0-9_-]{{1,64}}",
                    name.escape_default()
                )));
            }
            if tenants.iter().any(|t| t.name == name) {
                return Err(LotusError::Config(format!(
                    "duplicate tenant name `{name}`"
                )));
            }
            tenants.push(Tenant {
                name,
                limits,
                engine,
            });
        }
        if tenants.is_empty() {
            return Err(LotusError::Config(
                "a registry needs at least one tenant".into(),
            ));
        }
        Ok(EngineRegistry {
            tenants,
            routes: RwLock::new(Arc::new(RouteTable::new(rules))),
        })
    }

    /// The hosted tenants, in declaration order.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// The index of the named tenant, if hosted (a scan: registries
    /// host a handful of tenants).
    pub fn lookup(&self, name: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.name == name)
    }

    /// Routes a request through the current table to a hosted tenant:
    /// its index, and the rewritten path when `/t/<name>` stripping
    /// changed it. The rewritten path is the only allocation; `None` is
    /// the documented 404 `unknown_tenant` (no rule, a failed
    /// extraction, or a name the registry does not host).
    pub fn route(
        &self,
        path: &str,
        headers: &[(String, String)],
    ) -> Option<(usize, Option<String>)> {
        let table = self.routes.read().expect("routes lock poisoned");
        let route = table.route(path, headers)?;
        let idx = self.lookup(route.tenant)?;
        Some((idx, (route.path != path).then(|| route.path.to_string())))
    }

    /// A snapshot of the current routing table (cheap `Arc` clone; a
    /// concurrent reload never tears an in-flight resolution).
    pub fn routes(&self) -> Arc<RouteTable> {
        self.routes.read().expect("routes lock poisoned").clone()
    }

    /// Validates `text` (a rule array or `{"rules": [...]}`) against the
    /// hosted tenant set and atomically swaps the routing table.
    /// Returns the new rule count. On error the previous table stays
    /// installed untouched.
    pub fn reload_rules(&self, text: &str) -> Result<usize, crate::routing::RouteError> {
        let names: Vec<&str> = self.tenants.iter().map(|t| t.name.as_str()).collect();
        let rules = parse_rules(text, &names)?;
        let count = rules.len();
        *self.routes.write().expect("routes lock poisoned") = Arc::new(RouteTable::new(rules));
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RouteErrorKind;

    fn tiny_engine() -> LotusX {
        LotusX::load_str("<bib><book><title>T</title></book></bib>").unwrap()
    }

    fn two_tenant_registry() -> EngineRegistry {
        EngineRegistry::from_parts(
            vec![
                ("alpha".into(), tiny_engine(), TenantLimits::unlimited()),
                ("beta".into(), tiny_engine(), TenantLimits::unlimited()),
            ],
            RouteTable::catch_all("alpha").rules().to_vec(),
        )
        .unwrap()
    }

    #[test]
    fn registry_hosts_independent_tenants() {
        let reg = two_tenant_registry();
        assert_eq!(reg.tenants().len(), 2);
        assert_eq!(reg.lookup("alpha"), Some(0));
        assert_eq!(reg.lookup("beta"), Some(1));
        assert_eq!(reg.lookup("ghost"), None);
        assert_eq!(reg.routes().rules().len(), 1);
    }

    #[test]
    fn a_single_corpus_is_the_default_tenant_behind_a_catch_all() {
        let reg = EngineRegistry::single_tenant(tiny_engine());
        assert_eq!(reg.tenants().len(), 1);
        assert_eq!(reg.tenants()[0].name(), "default");
        assert!(reg.tenants()[0].limits().is_unlimited());
        assert_eq!(*reg.routes(), RouteTable::catch_all("default"));
        assert_eq!(reg.route("/t/x/query", &[]), Some((0, None)));
    }

    #[test]
    fn duplicate_and_invalid_names_rejected() {
        let dup = EngineRegistry::from_parts(
            vec![
                ("a".into(), tiny_engine(), TenantLimits::unlimited()),
                ("a".into(), tiny_engine(), TenantLimits::unlimited()),
            ],
            vec![],
        );
        assert!(matches!(dup, Err(LotusError::Config(_))));
        let bad = EngineRegistry::from_parts(
            vec![("bad name".into(), tiny_engine(), TenantLimits::unlimited())],
            vec![],
        );
        assert!(matches!(bad, Err(LotusError::Config(_))));
        let empty = EngineRegistry::from_parts(vec![], vec![]);
        assert!(matches!(empty, Err(LotusError::Config(_))));
    }

    #[test]
    fn reload_swaps_rules_atomically() {
        let reg = two_tenant_registry();
        let before = reg.routes();
        let n = reg
            .reload_rules(
                r#"[{"when": {"path_prefix": "/t/"}, "tenant": {"from_path": true}},
                              {"when": {"always": true}, "tenant": "beta"}]"#,
            )
            .unwrap();
        assert_eq!(n, 2);
        let after = reg.routes();
        assert_eq!(after.rules().len(), 2);
        // The pre-reload snapshot is unchanged — readers never tear.
        assert_eq!(before.rules().len(), 1);
        // A bad reload (unknown tenant) leaves the table installed.
        let err = reg
            .reload_rules(r#"[{"when": {"always": true}, "tenant": "ghost"}]"#)
            .unwrap_err();
        assert_eq!(err.kind, RouteErrorKind::UnknownTenant);
        assert_eq!(reg.routes().rules().len(), 2, "previous table retained");
    }

    #[test]
    fn open_from_config_resolves_corpus_sources() {
        let cfg = RegistryConfig::parse(
            r#"{"tenants": [
                  {"name": "inline", "corpus": "<r><x>hello</x></r>", "max_inflight": 1}
                ],
                "rules": [{"when": {"always": true}, "tenant": "inline"}]}"#,
        )
        .unwrap();
        let reg = EngineRegistry::open(&cfg).unwrap();
        assert_eq!(reg.tenants()[0].name(), "inline");
        assert_eq!(reg.tenants()[0].limits().max_inflight, Some(1));
        let resp = reg.tenants()[0]
            .engine()
            .query(&crate::QueryRequest::twig("//x"))
            .unwrap();
        assert_eq!(resp.matches.len(), 1);
    }
}
